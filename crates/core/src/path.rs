//! SPRING(path): disjoint queries with full warping-path recovery.
//!
//! Sec. 5.2 / Fig. 8 of the paper distinguishes plain SPRING (constant
//! memory, positions only) from `SPRING(path)`, which can also report
//! *the arrangement* — the optimal warping path — of each match. The path
//! cannot be held in `O(m)` memory: its length is data-dependent, so the
//! paper plots it as a separate, data-dependent (but far-below-naive)
//! memory series.
//!
//! We realize it with a back-pointer arena: every STWM cell stores the
//! arena index of its path node; nodes unreachable from the live columns
//! are garbage-collected periodically, keeping memory proportional to the
//! length of the candidate paths actually alive — exactly the
//! data-dependent footprint of Fig. 8.

use spring_dtw::kernels::{DistanceKernel, Squared};

use crate::error::SpringError;
use crate::mem::MemoryUse;
use crate::spring::{Spring, SpringConfig};
use crate::stwm::Step;
use crate::types::Match;

const NIL: u32 = u32::MAX;

/// One cell of a retained warping path.
#[derive(Debug, Clone, Copy)]
struct PathNode {
    /// 1-based stream tick of this cell.
    t: u64,
    /// 1-based query row of this cell.
    i: u32,
    /// Arena index of the predecessor cell (`NIL` at the path start).
    parent: u32,
}

/// A reported match together with its optimal warping path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathMatch {
    /// The match (positions, distance, report time).
    pub m: Match,
    /// The optimal warping path as `(tick, query_index)` pairs, both
    /// 1-based, in increasing tick order.
    pub path: Vec<(u64, u32)>,
}

/// Disjoint-query monitor that additionally tracks warping paths.
///
/// Functionally identical to [`Spring`] (same reports, in the same
/// order, at the same ticks); the only addition is the `path` attached to
/// each report and the data-dependent memory that costs.
#[derive(Debug, Clone)]
pub struct PathSpring<K: DistanceKernel = Squared> {
    inner: Spring<K>,
    arena: Vec<PathNode>,
    /// Arena node of each cell of the current/previous column
    /// (index 0 = star row, always `NIL`).
    node_cur: Vec<u32>,
    node_prev: Vec<u32>,
    /// Node of the pending candidate's `(te, m)` cell.
    pending_node: u32,
    /// Ticks between garbage-collection sweeps.
    gc_interval: u64,
    last_gc: u64,
    /// High-water mark of the arena (for memory reporting).
    peak_nodes: usize,
}

impl PathSpring<Squared> {
    /// Path-tracking monitor with the paper's default squared kernel.
    pub fn new(query: &[f64], config: SpringConfig) -> Result<Self, SpringError> {
        Self::with_kernel(query, config, Squared)
    }
}

impl<K: DistanceKernel> PathSpring<K> {
    /// Path-tracking monitor with an explicit kernel.
    pub fn with_kernel(
        query: &[f64],
        config: SpringConfig,
        kernel: K,
    ) -> Result<Self, SpringError> {
        let inner = Spring::with_kernel(query, config, kernel)?;
        let m = query.len();
        Ok(PathSpring {
            inner,
            arena: Vec::new(),
            node_cur: vec![NIL; m + 1],
            node_prev: vec![NIL; m + 1],
            pending_node: NIL,
            gc_interval: (4 * m as u64).max(64),
            last_gc: 0,
            peak_nodes: 0,
        })
    }

    /// Current 1-based tick.
    pub fn tick(&self) -> u64 {
        self.inner.tick()
    }

    /// Live path nodes currently retained.
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// Largest number of path nodes ever retained at once.
    pub fn peak_node_count(&self) -> usize {
        self.peak_nodes
    }

    /// Consumes the next stream value; returns the confirmed group
    /// optimum with its warping path, if any.
    pub fn step(&mut self, x: f64) -> Option<PathMatch> {
        debug_assert!(x.is_finite(), "stream value must be finite");
        let t = self.inner.tick() + 1;
        let m = self.inner.query_len();

        // Fill the STWM column, recording which predecessor won each cell.
        // The borrow checker keeps us from growing the arena inside the
        // closure, so stage the steps first.
        let mut steps = vec![Step::Left; m + 1];
        self.inner.stwm_mut().step_traced(x, |i, s| steps[i] = s);
        for (i, &step) in steps.iter().enumerate().skip(1) {
            let parent = match step {
                Step::Left => self.node_cur[i - 1],
                Step::Down => self.node_prev[i],
                Step::Diag => self.node_prev[i - 1],
            };
            let id = self.arena.len() as u32;
            self.arena.push(PathNode {
                t,
                i: i as u32,
                parent,
            });
            self.node_cur[i] = id;
        }
        std::mem::swap(&mut self.node_cur, &mut self.node_prev);
        self.peak_nodes = self.peak_nodes.max(self.arena.len());

        // Track the candidate's end cell before the policy may reset it.
        let had_pending = self.inner.pending();
        let report = self.inner.after_column();
        // A report always belongs to the candidate captured *before* this
        // tick; snapshot its path node before pending moves on.
        let node_for_report = self.pending_node;
        let now_pending = self.inner.pending();
        if now_pending.is_some() && now_pending != had_pending {
            // dmin was (re)captured from the fresh d(t, m) this tick.
            self.pending_node = self.node_prev[m];
        } else if now_pending.is_none() {
            self.pending_node = NIL;
        }

        let out = report.map(|m| PathMatch {
            m,
            path: self.extract_path(node_for_report),
        });

        if t - self.last_gc >= self.gc_interval {
            self.collect_garbage();
            self.last_gc = t;
        }
        out
    }

    /// Declares the end of the stream, flushing a pending match.
    pub fn finish(&mut self) -> Option<PathMatch> {
        let node = self.pending_node;
        let out = self.inner.finish().map(|m| PathMatch {
            m,
            path: self.extract_path(node),
        });
        if out.is_some() {
            self.pending_node = NIL;
        }
        out
    }

    /// Walks the parent chain into a forward path.
    fn extract_path(&self, mut node: u32) -> Vec<(u64, u32)> {
        let mut path = Vec::new();
        while node != NIL {
            let n = self.arena[node as usize];
            path.push((n.t, n.i));
            node = n.parent;
        }
        path.reverse();
        path
    }

    /// Mark-and-compact: keeps only nodes reachable from the live column
    /// or from the pending candidate.
    fn collect_garbage(&mut self) {
        let mut reachable = vec![false; self.arena.len()];
        let mark = |mut node: u32, arena: &[PathNode], reach: &mut [bool]| {
            while node != NIL && !reach[node as usize] {
                reach[node as usize] = true;
                node = arena[node as usize].parent;
            }
        };
        for &n in self.node_prev.iter().chain(self.node_cur.iter()) {
            mark(n, &self.arena, &mut reachable);
        }
        mark(self.pending_node, &self.arena, &mut reachable);

        // Compact, remembering where each survivor moved.
        let mut remap = vec![NIL; self.arena.len()];
        let mut next = 0u32;
        for (idx, &keep) in reachable.iter().enumerate() {
            if keep {
                remap[idx] = next;
                next += 1;
            }
        }
        let mut compacted = Vec::with_capacity(next as usize);
        for (idx, node) in self.arena.iter().enumerate() {
            if reachable[idx] {
                let parent = if node.parent == NIL {
                    NIL
                } else {
                    remap[node.parent as usize]
                };
                compacted.push(PathNode { parent, ..*node });
            }
        }
        self.arena = compacted;
        let fix = |n: u32| if n == NIL { NIL } else { remap[n as usize] };
        for n in self.node_prev.iter_mut().chain(self.node_cur.iter_mut()) {
            *n = fix(*n);
        }
        self.pending_node = fix(self.pending_node);
    }
}

impl<K: DistanceKernel> MemoryUse for PathSpring<K> {
    fn bytes_used(&self) -> usize {
        self.inner.bytes_used()
            + self.arena.len() * std::mem::size_of::<PathNode>()
            + (self.node_cur.capacity() + self.node_prev.capacity()) * std::mem::size_of::<u32>()
    }
}

impl<K: DistanceKernel> crate::monitor::Monitor for PathSpring<K> {
    type Sample = f64;

    fn variant(&self) -> crate::monitor::MonitorVariant {
        crate::monitor::MonitorVariant::Path
    }

    /// The trait interface reports positions only; use the inherent
    /// [`PathSpring::step`] to also recover the warping path.
    fn step(&mut self, sample: &f64) -> Result<Option<Match>, SpringError> {
        if !sample.is_finite() {
            return Err(SpringError::NonFiniteInput {
                tick: self.inner.tick() + 1,
            });
        }
        Ok(PathSpring::step(self, *sample).map(|pm| pm.m))
    }

    fn finish(&mut self) -> Option<Match> {
        PathSpring::finish(self).map(|pm| pm.m)
    }

    fn query_len(&self) -> usize {
        self.inner.query_len()
    }

    fn epsilon(&self) -> Option<f64> {
        Some(self.inner.epsilon())
    }

    fn tick(&self) -> u64 {
        PathSpring::tick(self)
    }

    fn memory_use(&self) -> usize {
        self.bytes_used()
    }

    fn reset(&mut self) {
        crate::monitor::Monitor::reset(&mut self.inner);
        self.arena.clear();
        self.node_cur.fill(NIL);
        self.node_prev.fill(NIL);
        self.pending_node = NIL;
        self.last_gc = 0;
        self.peak_nodes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(query: &[f64], stream: &[f64], eps: f64) -> Vec<PathMatch> {
        let mut ps = PathSpring::new(query, SpringConfig::new(eps)).unwrap();
        let mut out: Vec<PathMatch> = stream.iter().filter_map(|&x| ps.step(x)).collect();
        out.extend(ps.finish());
        out
    }

    fn run_plain(query: &[f64], stream: &[f64], eps: f64) -> Vec<Match> {
        let mut s = Spring::new(query, SpringConfig::new(eps)).unwrap();
        let mut out: Vec<Match> = stream.iter().filter_map(|&x| s.step(x)).collect();
        out.extend(s.finish());
        out
    }

    #[test]
    fn reports_identical_to_plain_spring() {
        let query = [11.0, 6.0, 9.0, 4.0];
        let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
        let with_path = run(&query, &stream, 15.0);
        let plain = run_plain(&query, &stream, 15.0);
        assert_eq!(with_path.len(), plain.len());
        for (a, b) in with_path.iter().zip(&plain) {
            assert_eq!(a.m, *b);
        }
    }

    #[test]
    fn example1_path_spans_the_match_and_is_monotone() {
        let query = [11.0, 6.0, 9.0, 4.0];
        let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
        let out = run(&query, &stream, 15.0);
        assert_eq!(out.len(), 1);
        let p = &out[0].path;
        // Path covers ticks start..=end and query rows 1..=m.
        assert_eq!(p.first().unwrap(), &(2, 1));
        assert_eq!(p.last().unwrap(), &(5, 4));
        for w in p.windows(2) {
            let (t0, i0) = w[0];
            let (t1, i1) = w[1];
            assert!(t1 >= t0 && t1 - t0 <= 1);
            assert!(i1 >= i0 && i1 - i0 <= 1);
            assert!((t1 - t0) + (i1 - i0) as u64 >= 1);
        }
    }

    #[test]
    fn path_cost_resums_to_reported_distance() {
        // Plant perturbed, time-stretched occurrences among flat filler so
        // matches are guaranteed and their paths are non-trivial.
        let query = [1.0, 4.0, 2.0, 8.0];
        let mut stream = Vec::new();
        for k in 0..4 {
            stream.extend(vec![20.0; 6]);
            let jitter = k as f64 * 0.05;
            stream.extend([1.0 + jitter, 4.1, 4.1, 2.0, 7.9 - jitter, 7.9]);
        }
        stream.extend(vec![20.0; 6]);
        let out = run(&query, &stream, 6.0);
        assert!(!out.is_empty(), "workload should produce matches");
        for pm in &out {
            let resum: f64 = pm
                .path
                .iter()
                .map(|&(t, i)| {
                    let x = stream[t as usize - 1];
                    let y = query[i as usize - 1];
                    (x - y) * (x - y)
                })
                .sum();
            assert!(
                (resum - pm.m.distance).abs() < 1e-9,
                "path resum {} != distance {}",
                resum,
                pm.m.distance
            );
        }
    }

    #[test]
    fn garbage_collection_bounds_memory() {
        use crate::mem::MemoryUse;
        let query: Vec<f64> = (0..32).map(|i| (i as f64 * 0.5).sin()).collect();
        let mut ps = PathSpring::new(&query, SpringConfig::new(0.001)).unwrap();
        let mut sizes = Vec::new();
        for t in 0..20_000u64 {
            ps.step((t as f64 * 0.01).cos() * 10.0);
            if t % 1000 == 0 {
                sizes.push(ps.bytes_used());
            }
        }
        // Memory is data-dependent (sawtooth between GC sweeps) but must
        // stay far below what 20k ticks of un-collected nodes would cost
        // (20_000 × 32 rows × 16 B = ~10 MiB).
        let max = *sizes.iter().max().unwrap();
        assert!(max < 1_000_000, "memory grew unboundedly: {sizes:?}");
        // And it does not trend upward: the last window is no larger than
        // the first post-warmup window.
        assert!(sizes[sizes.len() - 1] < max + 1);
        assert!(ps.peak_node_count() > 0);
    }

    #[test]
    fn finish_attaches_path_to_trailing_match() {
        let query = [1.0, 2.0, 3.0];
        let stream = [9.0, 9.0, 1.0, 2.0, 3.0];
        let mut ps = PathSpring::new(&query, SpringConfig::new(0.5)).unwrap();
        for &x in &stream {
            assert!(ps.step(x).is_none());
        }
        let pm = ps.finish().expect("trailing match");
        assert_eq!((pm.m.start, pm.m.end), (3, 5));
        assert_eq!(pm.path, vec![(3, 1), (4, 2), (5, 3)]);
    }

    #[test]
    fn multiple_matches_each_get_their_own_path() {
        let query = [0.0, 10.0, 0.0];
        let mut stream = Vec::new();
        for _ in 0..3 {
            stream.extend(vec![50.0; 5]);
            stream.extend([0.0, 10.0, 0.0]);
        }
        stream.extend(vec![50.0; 5]);
        let out = run(&query, &stream, 1.0);
        assert_eq!(out.len(), 3);
        for pm in &out {
            assert_eq!(pm.path.len(), 3);
            assert_eq!(pm.path[0].0, pm.m.start);
            assert_eq!(pm.path[2].0, pm.m.end);
        }
    }
}
