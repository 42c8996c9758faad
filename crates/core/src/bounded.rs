//! Length-bounded SPRING.
//!
//! Unconstrained DTW lets a warping path stretch a match arbitrarily: a
//! query of length `m` can in principle match a subsequence thousands of
//! ticks long (one query element absorbing a long flat stretch), which is
//! rarely meaningful to an application. This extension bounds the match
//! length to `[min_len, max_len]`:
//!
//! * **max_len** is enforced *inside* the matrix: any cell whose best
//!   warping path already spans more than `max_len` ticks is invalidated,
//!   so overlong paths can never produce (or propagate into) a match.
//! * **min_len** is enforced at capture time: a candidate shorter than
//!   `min_len` is not eligible to become the group optimum.
//!
//! Like the disjoint-query reset, the max-length cut operates on the
//! merged matrix's per-cell optimum: a subsequence whose cells are
//! dominated by longer paths may be missed. What is guaranteed — and
//! property-tested — is that every *reported* match is exact, within
//! `ε`, and within the length bounds.

use spring_dtw::kernels::{DistanceKernel, Squared};

use crate::error::{check_epsilon, SpringError};
use crate::mem::MemoryUse;
use crate::policy::{ColumnOps, DisjointPolicy};
use crate::spring::StwmOps;
use crate::stwm::Stwm;
use crate::types::Match;

/// Configuration for a [`BoundedSpring`] monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedConfig {
    /// Distance threshold `ε`.
    pub epsilon: f64,
    /// Smallest reportable match length in ticks (≥ 1).
    pub min_len: u64,
    /// Largest allowed match length in ticks.
    pub max_len: u64,
}

impl BoundedConfig {
    /// Bounds with the given threshold and length interval.
    pub fn new(epsilon: f64, min_len: u64, max_len: u64) -> Self {
        BoundedConfig {
            epsilon,
            min_len,
            max_len,
        }
    }
}

/// Disjoint-query monitor with match-length bounds.
///
/// # Examples
/// ```
/// use spring_core::{BoundedConfig, BoundedSpring};
///
/// // Accept matches of 2..=4 ticks only.
/// let mut monitor =
///     BoundedSpring::new(&[0.0, 9.0, 0.0], BoundedConfig::new(1.0, 2, 4)).unwrap();
/// let mut hits = Vec::new();
/// for x in [50.0, 0.0, 9.0, 0.0, 50.0, 50.0] {
///     hits.extend(monitor.step(x));
/// }
/// hits.extend(monitor.finish());
/// assert_eq!(hits.len(), 1);
/// assert!(hits[0].len() >= 2 && hits[0].len() <= 4);
/// ```
/// Disjoint-query monitor with match-length bounds.
#[derive(Debug, Clone)]
pub struct BoundedSpring<K: DistanceKernel = Squared> {
    stwm: Stwm<K>,
    config: BoundedConfig,
    policy: DisjointPolicy,
}

/// [`ColumnOps`] adding the min-length capture filter to [`StwmOps`].
struct BoundedOps<'a, K: DistanceKernel> {
    inner: StwmOps<'a, K>,
    t: u64,
    min_len: u64,
}

impl<K: DistanceKernel> ColumnOps for BoundedOps<'_, K> {
    fn confirmed(&self, dmin: f64, te: u64) -> bool {
        self.inner.confirmed(dmin, te)
    }

    fn invalidate(&mut self, te: u64) {
        self.inner.invalidate(te);
    }

    fn current(&self) -> (f64, u64) {
        self.inner.current()
    }

    fn eligible(&self, _dm: f64, sm: u64) -> bool {
        self.t + 1 - sm >= self.min_len
    }
}

impl BoundedSpring<Squared> {
    /// Bounded monitor with the paper's default squared kernel.
    pub fn new(query: &[f64], config: BoundedConfig) -> Result<Self, SpringError> {
        Self::with_kernel(query, config, Squared)
    }
}

impl<K: DistanceKernel> BoundedSpring<K> {
    /// Bounded monitor with an explicit kernel.
    pub fn with_kernel(
        query: &[f64],
        config: BoundedConfig,
        kernel: K,
    ) -> Result<Self, SpringError> {
        check_epsilon(config.epsilon)?;
        if config.min_len == 0 || config.min_len > config.max_len {
            return Err(SpringError::InvalidQuery(format!(
                "length bounds must satisfy 1 <= min_len <= max_len, got [{}, {}]",
                config.min_len, config.max_len
            )));
        }
        Ok(BoundedSpring {
            stwm: Stwm::with_kernel(query, kernel)?.with_band(config.epsilon),
            config,
            policy: DisjointPolicy::new(config.epsilon),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> BoundedConfig {
        self.config
    }

    /// Current 1-based tick.
    pub fn tick(&self) -> u64 {
        self.stwm.tick()
    }

    /// The captured-but-unconfirmed candidate, if any.
    pub fn pending(&self) -> Option<(f64, u64, u64)> {
        self.policy.pending()
    }

    /// Consumes the next stream value. Like [`crate::Spring::step`], an
    /// idle tick (empty ε-band, `‖x − y_1‖ > ε`) fills no column: the
    /// max-length cut has no row at or below ε to cut, and the policy
    /// nothing to capture or confirm.
    pub fn step(&mut self, x: f64) -> Option<Match> {
        debug_assert!(x.is_finite(), "stream value must be finite");
        if self.stwm.skip_idle(std::slice::from_ref(&x), 0, &[]) == 1 {
            return None;
        }
        self.stwm.step(x);
        let t = self.stwm.tick();

        // Max-length cut: kill any path already spanning > max_len ticks.
        // Cells above the band top are above ε already.
        for i in 1..=self.stwm.top() {
            if t + 1 - self.stwm.starts()[i] > self.config.max_len {
                self.stwm.invalidate(i);
            }
        }

        let mut ops = BoundedOps {
            inner: StwmOps(&mut self.stwm),
            t,
            min_len: self.config.min_len,
        };
        self.policy.step(t, &mut ops)
    }

    /// Declares the end of the stream, reporting a pending group optimum.
    pub fn finish(&mut self) -> Option<Match> {
        self.policy.finish(self.stwm.tick())
    }
}

impl<K: DistanceKernel> MemoryUse for BoundedSpring<K> {
    fn bytes_used(&self) -> usize {
        self.stwm.bytes_used()
    }
}

impl<K: DistanceKernel> crate::monitor::Monitor for BoundedSpring<K> {
    type Sample = f64;

    fn variant(&self) -> crate::monitor::MonitorVariant {
        crate::monitor::MonitorVariant::Bounded
    }

    fn step(&mut self, sample: &f64) -> Result<Option<Match>, SpringError> {
        if !sample.is_finite() {
            return Err(SpringError::NonFiniteInput {
                tick: self.stwm.tick() + 1,
            });
        }
        Ok(BoundedSpring::step(self, *sample))
    }

    fn finish(&mut self) -> Option<Match> {
        BoundedSpring::finish(self)
    }

    fn query_len(&self) -> usize {
        self.stwm.query_len()
    }

    fn epsilon(&self) -> Option<f64> {
        Some(self.config.epsilon)
    }

    fn tick(&self) -> u64 {
        BoundedSpring::tick(self)
    }

    fn memory_use(&self) -> usize {
        self.bytes_used()
    }

    fn reset(&mut self) {
        self.stwm.reset();
        self.policy = DisjointPolicy::new(self.config.epsilon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spring::{Spring, SpringConfig};

    fn run(query: &[f64], stream: &[f64], cfg: BoundedConfig) -> Vec<Match> {
        let mut bs = BoundedSpring::new(query, cfg).unwrap();
        let mut out: Vec<Match> = stream.iter().filter_map(|&x| bs.step(x)).collect();
        out.extend(bs.finish());
        out
    }

    #[test]
    fn wide_bounds_behave_like_plain_spring() {
        let query = [11.0, 6.0, 9.0, 4.0];
        let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
        let bounded = run(&query, &stream, BoundedConfig::new(15.0, 1, 1_000));
        let mut plain = Spring::new(&query, SpringConfig::new(15.0)).unwrap();
        let mut expected: Vec<Match> = stream.iter().filter_map(|&x| plain.step(x)).collect();
        expected.extend(plain.finish());
        assert_eq!(bounded, expected);
    }

    #[test]
    fn max_len_rejects_stretched_matches() {
        // Query [0, 9, 0]; the stream holds a *stretched* occurrence:
        // 0, 9, 9, 9, 9, 9, 0 (length 7, DTW distance 0).
        let query = [0.0, 9.0, 0.0];
        let mut stream = vec![50.0; 4];
        stream.extend([0.0, 9.0, 9.0, 9.0, 9.0, 9.0, 0.0]);
        stream.extend(vec![50.0; 4]);
        let loose = run(&query, &stream, BoundedConfig::new(1.0, 1, 10));
        assert_eq!(loose.len(), 1);
        assert_eq!(loose[0].len(), 7);
        let tight = run(&query, &stream, BoundedConfig::new(1.0, 1, 4));
        assert!(
            tight.iter().all(|m| m.len() <= 4),
            "max_len must bound every report: {tight:?}"
        );
    }

    #[test]
    fn min_len_rejects_degenerate_singletons() {
        // A single 7.5 matches [7, 8] at distance 0.5 (one element warped
        // to both query elements); min_len = 2 suppresses that while the
        // genuine two-tick occurrence still reports.
        let query = [7.0, 8.0];
        let mut stream = vec![0.0; 3];
        stream.push(7.5); // lone near-spike, singleton distance 0.5
        stream.extend(vec![0.0; 3]);
        stream.extend([7.0, 8.0]); // genuine pair, distance 0
        stream.extend(vec![0.0; 3]);
        let all = run(&query, &stream, BoundedConfig::new(0.7, 1, 100));
        assert_eq!(all.len(), 2, "unbounded finds the singleton too: {all:?}");
        let filtered = run(&query, &stream, BoundedConfig::new(0.7, 2, 100));
        assert_eq!(filtered.len(), 1, "{filtered:?}");
        assert_eq!(
            (filtered[0].start, filtered[0].end, filtered[0].distance),
            (8, 9, 0.0)
        );
    }

    #[test]
    fn every_report_is_exact_and_within_bounds() {
        let query = [1.0, 4.0, 2.0];
        let stream: Vec<f64> = (0..300).map(|i| ((i * 13) % 29) as f64 * 0.3).collect();
        let cfg = BoundedConfig::new(4.0, 2, 6);
        for m in run(&query, &stream, cfg) {
            assert!(m.len() >= cfg.min_len && m.len() <= cfg.max_len, "{m:?}");
            assert!(m.distance <= cfg.epsilon);
            let exact = spring_dtw::dtw_distance(&stream[m.range0()], &query).unwrap();
            assert!((exact - m.distance).abs() < 1e-9);
        }
    }

    /// [`BoundedSpring::step`] on the full reference column: the
    /// max-length cut and the policy over every row, no idle skip.
    fn step_reference(bs: &mut BoundedSpring, x: f64) -> Option<Match> {
        bs.stwm.step_reference(x);
        let t = bs.stwm.tick();
        for i in 1..=bs.stwm.query_len() {
            if t + 1 - bs.stwm.starts()[i] > bs.config.max_len {
                bs.stwm.invalidate(i);
            }
        }
        let mut ops = BoundedOps {
            inner: StwmOps(&mut bs.stwm),
            t,
            min_len: bs.config.min_len,
        };
        bs.policy.step(t, &mut ops)
    }

    #[test]
    fn batched_and_per_sample_steps_skip_idle_ticks_like_the_reference() {
        // Long idle stretches around plain, stretched and too-short
        // occurrences, so the skip, the max-length cut and the min-length
        // filter all take turns.
        use crate::monitor::Monitor as _;
        let query = [0.0, 9.0, 0.0];
        let mut stream = Vec::new();
        for (k, occ) in [
            &[0.0, 9.0, 0.0][..],
            &[0.0, 9.0, 9.0, 9.0, 9.0, 9.0, 0.0],
            &[4.5],
            &[0.2, 9.0, 0.0, 9.0, 0.1],
        ]
        .iter()
        .cycle()
        .take(12)
        .enumerate()
        {
            stream.extend(vec![60.0; 5 + 7 * k]);
            stream.extend(occ.iter());
        }
        stream.extend(vec![60.0; 9]);
        let cfg = BoundedConfig::new(1.0, 2, 5);
        let mut twin = BoundedSpring::new(&query, cfg).unwrap();
        let want: Vec<Match> = stream
            .iter()
            .filter_map(|&x| step_reference(&mut twin, x))
            .collect();
        assert!(!want.is_empty());
        for batch in [0usize, 1, 3, 8, 64] {
            let mut mon = BoundedSpring::new(&query, cfg).unwrap();
            let mut got = Vec::new();
            if batch == 0 {
                got.extend(stream.iter().filter_map(|&x| mon.step(x)));
            } else {
                for chunk in stream.chunks(batch) {
                    mon.step_batch(chunk, &mut got).unwrap();
                }
            }
            assert_eq!(got, want, "batch={batch}");
            assert_eq!(mon.pending(), twin.pending(), "batch={batch}");
            crate::kernel::assert_eps_equivalent(
                cfg.epsilon,
                (twin.stwm.distances(), twin.stwm.starts()),
                (mon.stwm.distances(), mon.stwm.starts()),
                &format!("batch={batch}: final column"),
            );
        }
    }

    #[test]
    fn invalid_bounds_rejected() {
        assert!(BoundedSpring::new(&[1.0], BoundedConfig::new(1.0, 0, 5)).is_err());
        assert!(BoundedSpring::new(&[1.0], BoundedConfig::new(1.0, 6, 5)).is_err());
        assert!(BoundedSpring::new(&[1.0], BoundedConfig::new(-1.0, 1, 5)).is_err());
    }

    #[test]
    fn memory_stays_constant() {
        use crate::mem::MemoryUse;
        let mut bs = BoundedSpring::new(&vec![0.5; 32], BoundedConfig::new(1.0, 2, 64)).unwrap();
        bs.step(0.1);
        let before = bs.bytes_used();
        for t in 0..10_000 {
            bs.step((t as f64 * 0.01).sin());
        }
        assert_eq!(bs.bytes_used(), before);
    }
}
