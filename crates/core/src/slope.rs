//! Slope-limited SPRING: local continuity constraints.
//!
//! Classic DTW practice (Sakoe–Chiba '78, Itakura '75 — the constraints
//! surveyed in the paper's related work for *whole* matching) limits how
//! many consecutive horizontal or vertical steps a warping path may take,
//! so one element cannot absorb an arbitrarily long stretch of the other
//! sequence. This module brings that to the *streaming subsequence*
//! setting: a [`SlopeLimited`] monitor only considers warping paths whose
//! runs of consecutive same-direction non-diagonal moves are at most `r`.
//!
//! Unlike [`crate::BoundedSpring`] (which caps total match length as a
//! post-filter on the merged matrix), the slope limit is enforced
//! *exactly*, by expanding each STWM cell into `2r + 1` states — "last
//! move was diagonal", "run of `1..=r` query-repeats", "run of `1..=r`
//! stream-repeats" — so the reported distance is the true minimum over
//! all constraint-satisfying warping paths. Cost: `O(m·r)` time and
//! space per tick (still constant in the stream length).

use spring_dtw::kernels::{DistanceKernel, Squared};

use crate::error::{check_epsilon, check_query, SpringError};
use crate::mem::MemoryUse;
use crate::policy::{ColumnOps, DisjointPolicy};
use crate::types::Match;

/// One (distance, start) entry of the state lattice.
#[derive(Debug, Clone, Copy)]
struct Cell {
    d: f64,
    s: u64,
}

const DEAD: Cell = Cell {
    d: f64::INFINITY,
    s: 0,
};

impl Cell {
    #[inline]
    fn min(self, other: Cell) -> Cell {
        if self.d <= other.d {
            self
        } else {
            other
        }
    }
}

/// State lattice for one column: for each query row `i`,
/// `fresh[i]` (last move diagonal), `left[k*m + i]` (a run of `k+1`
/// query-advances within one tick), `down[k*m + i]` (a run of `k+1`
/// stream-advances on one query row).
#[derive(Debug, Clone)]
struct Column {
    fresh: Vec<Cell>,
    left: Vec<Cell>,
    down: Vec<Cell>,
}

impl Column {
    fn new(m: usize, r: usize) -> Self {
        Column {
            fresh: vec![DEAD; m + 1],
            left: vec![DEAD; r * (m + 1)],
            down: vec![DEAD; r * (m + 1)],
        }
    }

    fn reset(&mut self) {
        self.fresh.fill(DEAD);
        self.left.fill(DEAD);
        self.down.fill(DEAD);
    }

    /// Best entry at row `i` over all states.
    fn best(&self, i: usize, m: usize, r: usize) -> Cell {
        let mut best = self.fresh[i];
        for k in 0..r {
            best = best
                .min(self.left[k * (m + 1) + i])
                .min(self.down[k * (m + 1) + i]);
        }
        best
    }

    /// Invalidates every state at row `i` whose path starts at or before
    /// `te` (the disjoint-query reset).
    fn invalidate_through(&mut self, i: usize, te: u64, m: usize, r: usize) {
        let kill = |c: &mut Cell| {
            if c.s <= te {
                *c = DEAD;
            }
        };
        kill(&mut self.fresh[i]);
        for k in 0..r {
            kill(&mut self.left[k * (m + 1) + i]);
            kill(&mut self.down[k * (m + 1) + i]);
        }
    }
}

/// Streaming disjoint-query monitor under a local slope constraint.
///
/// # Examples
/// ```
/// use spring_core::SlopeLimited;
///
/// // Runs of at most 2 consecutive repeats.
/// let mut monitor = SlopeLimited::new(&[0.0, 9.0, 0.0], 1.0, 2).unwrap();
/// let mut hits = Vec::new();
/// for x in [50.0, 0.0, 9.0, 9.0, 0.0, 50.0, 50.0] {
///     hits.extend(monitor.step(x));
/// }
/// hits.extend(monitor.finish());
/// assert_eq!(hits.len(), 1); // the doubled 9 fits within the run limit
/// ```
/// Streaming disjoint-query monitor under a local slope constraint.
#[derive(Debug, Clone)]
pub struct SlopeLimited<K: DistanceKernel = Squared> {
    query: Vec<f64>,
    kernel: K,
    /// Maximum run of consecutive same-direction non-diagonal moves.
    r: usize,
    cur: Column,
    prev: Column,
    t: u64,
    policy: DisjointPolicy,
}

/// [`ColumnOps`] over the state-lattice column.
struct LatticeOps<'a> {
    col: &'a mut Column,
    m: usize,
    r: usize,
}

impl ColumnOps for LatticeOps<'_> {
    fn confirmed(&self, dmin: f64, te: u64) -> bool {
        (1..=self.m).all(|i| {
            let b = self.col.best(i, self.m, self.r);
            b.d >= dmin || b.s > te
        })
    }

    fn invalidate(&mut self, te: u64) {
        for i in 1..=self.m {
            self.col.invalidate_through(i, te, self.m, self.r);
        }
    }

    fn current(&self) -> (f64, u64) {
        let b = self.col.best(self.m, self.m, self.r);
        (b.d, b.s)
    }
}

impl SlopeLimited<Squared> {
    /// Slope-limited monitor with the paper's default squared kernel.
    pub fn new(query: &[f64], epsilon: f64, max_run: usize) -> Result<Self, SpringError> {
        Self::with_kernel(query, epsilon, max_run, Squared)
    }
}

impl<K: DistanceKernel> SlopeLimited<K> {
    /// Slope-limited monitor with an explicit kernel. `max_run >= 1`
    /// (`max_run = 1` forbids any two consecutive repeats — near-rigid
    /// matching; larger values relax toward unconstrained DTW).
    pub fn with_kernel(
        query: &[f64],
        epsilon: f64,
        max_run: usize,
        kernel: K,
    ) -> Result<Self, SpringError> {
        check_query(query)?;
        check_epsilon(epsilon)?;
        if max_run == 0 {
            return Err(SpringError::InvalidQuery("max_run must be >= 1".into()));
        }
        let m = query.len();
        Ok(SlopeLimited {
            query: query.to_vec(),
            kernel,
            r: max_run,
            cur: Column::new(m, max_run),
            prev: Column::new(m, max_run),
            t: 0,
            policy: DisjointPolicy::new(epsilon),
        })
    }

    /// Current 1-based tick.
    pub fn tick(&self) -> u64 {
        self.t
    }

    /// The maximum run length `r`.
    pub fn max_run(&self) -> usize {
        self.r
    }

    /// The captured-but-unconfirmed candidate, if any.
    pub fn pending(&self) -> Option<(f64, u64, u64)> {
        self.policy.pending()
    }

    /// Best constraint-satisfying distance of a subsequence ending now.
    pub fn current_distance(&self) -> f64 {
        let m = self.query.len();
        self.prev.best(m, m, self.r).d
    }

    /// Consumes the next stream value.
    pub fn step(&mut self, x: f64) -> Option<Match> {
        debug_assert!(x.is_finite(), "stream value must be finite");
        self.t += 1;
        let t = self.t;
        let m = self.query.len();
        let r = self.r;
        let stride = m + 1;
        self.cur.reset();

        for i in 1..=m {
            let base = self.kernel.dist(x, self.query[i - 1]);
            // Diagonal entry from (t-1, i-1), any state; row 1 enters
            // from the star row with zero cost and start = t.
            let diag_src = if i == 1 {
                Cell { d: 0.0, s: t }
            } else {
                self.prev.best(i - 1, m, r)
            };
            if diag_src.d.is_finite() {
                self.cur.fresh[i] = Cell {
                    d: base + diag_src.d,
                    s: diag_src.s,
                };
            }
            // Left runs: predecessor is row i-1 of THIS column.
            if i >= 2 {
                // run 1: predecessor's last move was diagonal or a
                // stream-repeat (any down state).
                let mut src = self.cur.fresh[i - 1];
                for k in 0..r {
                    src = src.min(self.cur.down[k * stride + i - 1]);
                }
                if src.d.is_finite() {
                    self.cur.left[i] = Cell {
                        d: base + src.d,
                        s: src.s,
                    };
                }
                // runs 2..=r extend an existing left run.
                for k in 1..r {
                    let srcc = self.cur.left[(k - 1) * stride + i - 1];
                    if srcc.d.is_finite() {
                        self.cur.left[k * stride + i] = Cell {
                            d: base + srcc.d,
                            s: srcc.s,
                        };
                    }
                }
            }
            // Down runs: predecessor is row i of the PREVIOUS column.
            {
                let mut src = self.prev.fresh[i];
                for k in 0..r {
                    src = src.min(self.prev.left[k * stride + i]);
                }
                if src.d.is_finite() {
                    self.cur.down[i] = Cell {
                        d: base + src.d,
                        s: src.s,
                    };
                }
                for k in 1..r {
                    let srcc = self.prev.down[(k - 1) * stride + i];
                    if srcc.d.is_finite() {
                        self.cur.down[k * stride + i] = Cell {
                            d: base + srcc.d,
                            s: srcc.s,
                        };
                    }
                }
            }
        }
        std::mem::swap(&mut self.cur, &mut self.prev);

        let m = self.query.len();
        let mut ops = LatticeOps {
            col: &mut self.prev,
            m,
            r: self.r,
        };
        self.policy.step(t, &mut ops)
    }

    /// Declares the end of the stream, reporting a pending group optimum.
    pub fn finish(&mut self) -> Option<Match> {
        self.policy.finish(self.t)
    }
}

impl<K: DistanceKernel> MemoryUse for SlopeLimited<K> {
    fn bytes_used(&self) -> usize {
        let col = |c: &Column| {
            (c.fresh.capacity() + c.left.capacity() + c.down.capacity())
                * std::mem::size_of::<Cell>()
        };
        self.query.capacity() * std::mem::size_of::<f64>() + col(&self.cur) + col(&self.prev)
    }
}

impl<K: DistanceKernel> crate::monitor::Monitor for SlopeLimited<K> {
    type Sample = f64;

    fn variant(&self) -> crate::monitor::MonitorVariant {
        crate::monitor::MonitorVariant::SlopeLimited
    }

    fn step(&mut self, sample: &f64) -> Result<Option<Match>, SpringError> {
        if !sample.is_finite() {
            return Err(SpringError::NonFiniteInput { tick: self.t + 1 });
        }
        Ok(SlopeLimited::step(self, *sample))
    }

    fn finish(&mut self) -> Option<Match> {
        SlopeLimited::finish(self)
    }

    fn query_len(&self) -> usize {
        self.query.len()
    }

    fn epsilon(&self) -> Option<f64> {
        Some(self.policy.epsilon)
    }

    fn tick(&self) -> u64 {
        self.t
    }

    fn memory_use(&self) -> usize {
        self.bytes_used()
    }

    fn reset(&mut self) {
        self.cur.reset();
        self.prev.reset();
        self.t = 0;
        self.policy = DisjointPolicy::new(self.policy.epsilon);
    }
}

/// Whole-sequence slope-limited DTW (fixed start, both sequences fully
/// consumed) — the brute-force oracle for the monitor's distances.
/// `O(n·m·r)` time. Returns `∞` when no constraint-satisfying path
/// exists (e.g. very different lengths under a tight run limit).
pub fn slope_limited_dtw<K: DistanceKernel>(
    x: &[f64],
    y: &[f64],
    max_run: usize,
    kernel: K,
) -> f64 {
    assert!(max_run >= 1 && !x.is_empty() && !y.is_empty());
    let m = y.len();
    let r = max_run;
    let stride = m + 1;
    let dead = f64::INFINITY;
    // States per (column, row): fresh, left-run k, down-run k.
    let mut prev_fresh = vec![dead; m + 1];
    let mut prev_left = vec![dead; r * (m + 1)];
    let mut prev_down = vec![dead; r * (m + 1)];
    let mut cur_fresh = vec![dead; m + 1];
    let mut cur_left = vec![dead; r * (m + 1)];
    let mut cur_down = vec![dead; r * (m + 1)];
    for (t, &xt) in x.iter().enumerate() {
        cur_fresh.fill(dead);
        cur_left.fill(dead);
        cur_down.fill(dead);
        for i in 1..=m {
            let base = kernel.dist(xt, y[i - 1]);
            // Diagonal from (t-1, i-1); the path must begin at (1, 1).
            let diag = if t == 0 && i == 1 {
                0.0
            } else if t >= 1 && i >= 2 {
                let mut best = prev_fresh[i - 1];
                for k in 0..r {
                    best = best
                        .min(prev_left[k * stride + i - 1])
                        .min(prev_down[k * stride + i - 1]);
                }
                best
            } else {
                dead
            };
            if diag.is_finite() {
                cur_fresh[i] = base + diag;
            }
            if i >= 2 {
                let mut src = cur_fresh[i - 1];
                for k in 0..r {
                    src = src.min(cur_down[k * stride + i - 1]);
                }
                if src.is_finite() {
                    cur_left[i] = base + src;
                }
                for k in 1..r {
                    let s = cur_left[(k - 1) * stride + i - 1];
                    if s.is_finite() {
                        cur_left[k * stride + i] = base + s;
                    }
                }
            }
            if t >= 1 {
                let mut src = prev_fresh[i];
                for k in 0..r {
                    src = src.min(prev_left[k * stride + i]);
                }
                if src.is_finite() {
                    cur_down[i] = base + src;
                }
                for k in 1..r {
                    let s = prev_down[(k - 1) * stride + i];
                    if s.is_finite() {
                        cur_down[k * stride + i] = base + s;
                    }
                }
            }
        }
        std::mem::swap(&mut prev_fresh, &mut cur_fresh);
        std::mem::swap(&mut prev_left, &mut cur_left);
        std::mem::swap(&mut prev_down, &mut cur_down);
    }
    let mut best = prev_fresh[m];
    for k in 0..r {
        best = best
            .min(prev_left[k * stride + m])
            .min(prev_down[k * stride + m]);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best::BestMatch;
    use crate::spring::{Spring, SpringConfig};

    fn pseudo_stream(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state % 23) as f64 - 11.0) * 0.5
            })
            .collect()
    }

    fn run(query: &[f64], stream: &[f64], eps: f64, r: usize) -> Vec<Match> {
        let mut sl = SlopeLimited::new(query, eps, r).unwrap();
        let mut out: Vec<Match> = stream.iter().filter_map(|&x| sl.step(x)).collect();
        out.extend(sl.finish());
        out
    }

    #[test]
    fn oracle_agrees_with_unconstrained_dtw_when_run_is_huge() {
        let x = pseudo_stream(18, 1);
        let y = pseudo_stream(7, 2);
        let free = spring_dtw::dtw_distance(&x, &y).unwrap();
        let constrained = slope_limited_dtw(&x, &y, 64, Squared);
        assert!((free - constrained).abs() < 1e-9);
    }

    #[test]
    fn oracle_is_monotone_in_the_run_limit() {
        let x = pseudo_stream(15, 3);
        let y = pseudo_stream(5, 4);
        let mut last = f64::INFINITY;
        for r in (1..=16).rev() {
            let d = slope_limited_dtw(&x, &y, r, Squared);
            assert!(d >= last - 1e-12 || last.is_infinite(), "r = {r}");
            last = last.min(d);
        }
        // And tightening can only increase the distance.
        assert!(slope_limited_dtw(&x, &y, 1, Squared) >= slope_limited_dtw(&x, &y, 8, Squared));
    }

    #[test]
    fn run_limit_one_on_equal_lengths_is_lockstep() {
        let x = [1.0, 5.0, 2.0, 8.0];
        let y = [2.0, 4.0, 3.0, 7.0];
        // With runs of 1 on equal lengths, the diagonal path is among the
        // admissible ones; distance can't exceed... and for these values
        // the pure diagonal is optimal.
        let d = slope_limited_dtw(&x, &y, 1, Squared);
        let lockstep: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(d <= lockstep + 1e-9);
        assert!(d >= spring_dtw::dtw_distance(&x, &y).unwrap() - 1e-9);
    }

    #[test]
    fn infeasible_when_lengths_differ_too_much_for_the_run_limit() {
        // |x| = 10 vs |y| = 2 needs runs of ~5 stream-repeats... actually
        // down-runs repeat a query element across stream ticks: y of
        // length 2 must absorb 10 stream ticks -> 8 non-diagonal moves on
        // 2 rows -> runs of >= 4. r = 2 is infeasible.
        let x = [1.0; 10];
        let y = [1.0, 1.0];
        assert!(slope_limited_dtw(&x, &y, 2, Squared).is_infinite());
        assert!(slope_limited_dtw(&x, &y, 8, Squared).is_finite());
    }

    #[test]
    fn monitor_best_equals_brute_force_over_all_subsequences() {
        let query = pseudo_stream(4, 7);
        let stream = pseudo_stream(30, 8);
        for r in [1usize, 2, 4] {
            // Streaming: track the best current_distance over time.
            let mut sl = SlopeLimited::new(&query, f64::MAX / 2.0, r).unwrap();
            let mut best_stream = f64::INFINITY;
            for &x in &stream {
                sl.step(x);
                best_stream = best_stream.min(sl.current_distance());
            }
            // Brute force over all subsequences.
            let mut best_brute = f64::INFINITY;
            for ts in 0..stream.len() {
                for te in ts..stream.len() {
                    best_brute =
                        best_brute.min(slope_limited_dtw(&stream[ts..=te], &query, r, Squared));
                }
            }
            assert!(
                (best_stream - best_brute).abs() < 1e-9,
                "r = {r}: streaming {best_stream} vs brute {best_brute}"
            );
        }
    }

    #[test]
    fn large_run_limit_matches_plain_spring_reports() {
        let query = [0.0, 6.0, 0.0];
        let mut stream = vec![30.0; 5];
        stream.extend([0.0, 6.0, 0.0]);
        stream.extend(vec![30.0; 5]);
        stream.extend([0.0, 6.0, 6.0, 0.0]);
        stream.extend(vec![30.0; 5]);
        let limited = run(&query, &stream, 1.0, 32);
        let mut plain = Spring::new(&query, SpringConfig::new(1.0)).unwrap();
        let mut expected: Vec<Match> = stream.iter().filter_map(|&x| plain.step(x)).collect();
        expected.extend(plain.finish());
        assert_eq!(limited.len(), expected.len());
        for (a, b) in limited.iter().zip(&expected) {
            assert_eq!((a.start, a.end), (b.start, b.end));
            assert!((a.distance - b.distance).abs() < 1e-9);
        }
    }

    #[test]
    fn tight_run_limit_rejects_heavily_stretched_occurrences() {
        let query = [0.0, 6.0, 0.0];
        let mut stream = vec![30.0; 4];
        stream.push(0.0);
        stream.extend(vec![6.0; 7]); // heavily stretched middle
        stream.push(0.0);
        stream.extend(vec![30.0; 4]);
        stream.extend([0.0, 6.0, 0.0]); // crisp occurrence
        stream.extend(vec![30.0; 4]);
        let loose = run(&query, &stream, 0.5, 16);
        assert_eq!(loose.len(), 2, "{loose:?}");
        let tight = run(&query, &stream, 0.5, 2);
        assert_eq!(tight.len(), 1, "{tight:?}");
        assert_eq!((tight[0].start, tight[0].end), (18, 20));
    }

    #[test]
    fn reported_distances_match_the_oracle_on_their_positions() {
        let query = pseudo_stream(3, 11);
        let stream = pseudo_stream(60, 12);
        for r in [1usize, 3] {
            for m in run(&query, &stream, 3.0, r) {
                let exact = slope_limited_dtw(&stream[m.range0()], &query, r, Squared);
                assert!(
                    (exact - m.distance).abs() < 1e-9,
                    "r = {r}: {m:?} vs oracle {exact}"
                );
            }
        }
    }

    #[test]
    fn best_match_comparison_against_unconstrained() {
        // The slope-limited optimum can never beat the unconstrained one.
        let query = pseudo_stream(4, 20);
        let stream = pseudo_stream(50, 21);
        let mut bm = BestMatch::new(&query).unwrap();
        for &x in &stream {
            bm.step(x);
        }
        let free = bm.best().unwrap().distance;
        for r in [1usize, 2, 8] {
            let mut sl = SlopeLimited::new(&query, f64::MAX / 2.0, r).unwrap();
            let mut best = f64::INFINITY;
            for &x in &stream {
                sl.step(x);
                best = best.min(sl.current_distance());
            }
            assert!(best >= free - 1e-9, "r = {r}");
        }
    }

    #[test]
    fn invalid_configuration_rejected() {
        assert!(SlopeLimited::new(&[1.0], 1.0, 0).is_err());
        assert!(SlopeLimited::new(&[], 1.0, 2).is_err());
        assert!(SlopeLimited::new(&[1.0], -1.0, 2).is_err());
    }

    #[test]
    fn memory_constant_and_proportional_to_run_limit() {
        use crate::mem::MemoryUse;
        let query = vec![0.5; 32];
        let mut small = SlopeLimited::new(&query, 1.0, 2).unwrap();
        let mut large = SlopeLimited::new(&query, 1.0, 8).unwrap();
        small.step(0.0);
        large.step(0.0);
        let (a, b) = (small.bytes_used(), large.bytes_used());
        assert!(b > a, "more states must cost more: {a} vs {b}");
        for t in 0..5_000 {
            small.step((t as f64 * 0.1).sin());
        }
        assert_eq!(small.bytes_used(), a);
    }
}
