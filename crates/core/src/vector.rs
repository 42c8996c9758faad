//! SPRING over multi-dimensional ("vector") streams — Sec. 5.3.
//!
//! Each time-tick carries a vector of `k` numbers (motion capture:
//! k = 62 joint velocities) and the query is a `k`-dimensional sequence
//! of `m` ticks. The element distance becomes the sum of per-channel
//! kernel distances; the star padding, the ε-banded [`crate::Stwm`] and
//! the disjoint policy are the scalar [`Spring`]'s own, so all accuracy
//! guarantees carry over.
//!
//! The paper modifies the reporting for motion capture "to report the
//! starting and ending positions of the range of overlapping
//! subsequences" — that is exactly the `group_start`/`group_end` extent
//! every [`Match`] already carries.

use std::sync::Arc;

use spring_dtw::kernels::{DistanceKernel, Squared};

use crate::arena::QueryRef;
use crate::error::SpringError;
use crate::mem::MemoryUse;
use crate::monitor::{AsRows, Monitor};
use crate::spring::Spring;
use crate::types::Match;

/// Disjoint-query monitor over a `k`-dimensional stream: a [`Spring`]
/// whose ε-banded matrix has `k` channels (`Stwm::step_row`). Channel
/// sums are non-negative, so the band argument holds unchanged: the
/// columns are ε-equivalent to the full recurrence and the matches are
/// identical. The report count, the query generation and the
/// checkpoint ([`crate::SpringSnapshot`]) are the scalar monitor's own.
#[derive(Debug, Clone)]
pub struct VectorSpring<K: DistanceKernel = Squared>(pub(crate) Spring<K>);

impl VectorSpring<Squared> {
    /// Vector monitor with the paper's default squared kernel.
    pub fn new(query: &(impl AsRows + ?Sized), epsilon: f64) -> Result<Self, SpringError> {
        Self::with_kernel(query, epsilon, Squared)
    }
}

impl<K: DistanceKernel> VectorSpring<K> {
    /// Vector monitor with an explicit kernel over `query`: nested rows,
    /// [`crate::monitor::Rows`], or flat values as one channel.
    ///
    /// # Errors
    /// Rejects an invalid ε and a ragged, zero-channel, empty or
    /// non-finite query.
    pub fn with_kernel(
        query: &(impl AsRows + ?Sized),
        epsilon: f64,
        kernel: K,
    ) -> Result<Self, SpringError> {
        crate::error::check_epsilon(epsilon)?;
        let (values, channels) = query.pattern()?;
        Self::with_query_ref(QueryRef::flat(&values, channels)?, epsilon, kernel)
    }

    /// Vector monitor over a shared arena entry (built by
    /// [`crate::QueryArena::intern_rows`]):
    /// borrows the flattened pattern, allocating only the
    /// per-attachment DP columns. Bit-identical to
    /// [`VectorSpring::with_kernel`].
    ///
    /// # Errors
    /// Rejects an invalid ε.
    pub fn with_query_ref(
        query: Arc<QueryRef>,
        epsilon: f64,
        kernel: K,
    ) -> Result<Self, SpringError> {
        Spring::with_rows(query, epsilon, kernel).map(VectorSpring)
    }

    /// The shared arena entry backing this monitor.
    pub fn query_ref(&self) -> &Arc<QueryRef> {
        self.0.query_ref()
    }

    /// Stream dimensionality `k`.
    pub fn dim(&self) -> usize {
        self.query_ref().channels()
    }

    /// Query length `m`.
    pub fn query_len(&self) -> usize {
        self.0.query_len()
    }

    /// Current 1-based tick.
    pub fn tick(&self) -> u64 {
        self.0.tick()
    }

    /// The captured-but-unconfirmed candidate, if any:
    /// `(distance, start, end)`.
    pub fn pending(&self) -> Option<(f64, u64, u64)> {
        self.0.pending()
    }

    /// The threshold `ε`.
    pub fn epsilon(&self) -> f64 {
        self.0.epsilon()
    }

    /// Consumes the next `k`-dimensional sample.
    ///
    /// # Errors
    /// Fails when `x` has the wrong number of channels; the monitor state
    /// is unchanged in that case.
    pub fn step(&mut self, x: &[f64]) -> Result<Option<Match>, SpringError> {
        self.0.step_row(x)
    }

    /// Declares the end of the stream, reporting a pending group optimum.
    pub fn finish(&mut self) -> Option<Match> {
        self.0.finish()
    }
}

impl<K: DistanceKernel> MemoryUse for VectorSpring<K> {
    fn bytes_used(&self) -> usize {
        self.0.bytes_used()
    }
}

/// The scalar monitor's bookkeeping, with `[f64]` samples.
impl<K: DistanceKernel> Monitor for VectorSpring<K> {
    type Sample = [f64];

    fn variant(&self) -> crate::monitor::MonitorVariant {
        crate::monitor::MonitorVariant::Vector
    }

    fn step(&mut self, sample: &[f64]) -> Result<Option<Match>, SpringError> {
        if sample.iter().any(|v| !v.is_finite()) {
            return Err(SpringError::NonFiniteInput {
                tick: self.tick() + 1,
            });
        }
        VectorSpring::step(self, sample)
    }

    fn finish(&mut self) -> Option<Match> {
        self.0.finish()
    }

    fn query_len(&self) -> usize {
        self.0.query_len()
    }

    fn epsilon(&self) -> Option<f64> {
        Some(self.0.epsilon())
    }

    fn tick(&self) -> u64 {
        self.0.tick()
    }

    fn memory_use(&self) -> usize {
        self.0.memory_use()
    }

    fn memory_cells(&self) -> usize {
        self.0.memory_cells()
    }

    fn shared_memory_cells(&self) -> usize {
        self.0.shared_memory_cells()
    }

    fn query_fingerprint(&self) -> Option<u64> {
        self.0.query_fingerprint()
    }

    fn generation(&self) -> u64 {
        self.0.generation()
    }

    fn set_generation(&mut self, generation: u64) {
        self.0.set_generation(generation);
    }

    fn reset(&mut self) {
        Monitor::reset(&mut self.0);
    }

    fn channels(&self) -> usize {
        self.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lifts a scalar sequence into 1-dimensional vector samples.
    fn lift(xs: &[f64]) -> Vec<Vec<f64>> {
        xs.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn one_channel_agrees_with_scalar_spring() {
        use crate::spring::{Spring, SpringConfig};
        let query = [11.0, 6.0, 9.0, 4.0];
        let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
        let mut scalar = Spring::new(&query, SpringConfig::new(15.0)).unwrap();
        let mut vector = VectorSpring::new(&lift(&query), 15.0).unwrap();
        for &x in &stream {
            let a = scalar.step(x);
            let b = vector.step(&[x]).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(scalar.finish(), vector.finish());
    }

    #[test]
    fn detects_a_planted_multichannel_pattern() {
        // 3-channel query with distinct per-channel shapes.
        let query: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![i as f64, 10.0 - i as f64, (i * i) as f64])
            .collect();
        let mut stream: Vec<Vec<f64>> = (0..10).map(|_| vec![99.0, 99.0, 99.0]).collect();
        stream.extend(query.clone());
        stream.extend((0..10).map(|_| vec![99.0, 99.0, 99.0]));
        let mut vs = VectorSpring::new(&query, 1.0).unwrap();
        let mut out = Vec::new();
        for x in &stream {
            out.extend(vs.step(x).unwrap());
        }
        out.extend(vs.finish());
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].start, out[0].end, out[0].distance), (11, 15, 0.0));
    }

    #[test]
    fn reported_distance_matches_multivariate_dtw() {
        let query: Vec<Vec<f64>> = (0..4)
            .map(|i| vec![(i as f64 * 1.3).sin(), (i as f64 * 0.7).cos()])
            .collect();
        let stream: Vec<Vec<f64>> = (0..60)
            .map(|t| vec![(t as f64 * 0.4).sin(), (t as f64 * 0.2).cos()])
            .collect();
        let mut vs = VectorSpring::new(&query, 1.5).unwrap();
        let mut out = Vec::new();
        for x in &stream {
            out.extend(vs.step(x).unwrap());
        }
        out.extend(vs.finish());
        for m in &out {
            let sub = &stream[m.start as usize - 1..m.end as usize];
            let exact = spring_dtw::multivariate::dtw_multivariate(sub, &query, Squared).unwrap();
            assert!((m.distance - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn step_batch_agrees_with_per_sample_and_preserves_error_order() {
        use crate::monitor::Monitor;
        let query: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![i as f64, 10.0 - i as f64, (i * i) as f64])
            .collect();
        let mut stream: Vec<Vec<f64>> = (0..10).map(|_| vec![99.0, 99.0, 99.0]).collect();
        stream.extend(query.clone());
        stream.extend((0..10).map(|_| vec![99.0, 99.0, 99.0]));

        let mut per_sample = VectorSpring::new(&query, 1.0).unwrap();
        let mut expect = Vec::new();
        for x in &stream {
            expect.extend(Monitor::step(&mut per_sample, x).unwrap());
        }
        expect.extend(Monitor::finish(&mut per_sample));

        // Flat frames of `batch` rows.
        for batch in [1usize, 3, 64] {
            let mut vs = VectorSpring::new(&query, 1.0).unwrap();
            let mut got = Vec::new();
            for chunk in stream.concat().chunks(3 * batch) {
                Monitor::step_batch(&mut vs, chunk, &mut got).unwrap();
            }
            got.extend(Monitor::finish(&mut vs));
            assert_eq!(got, expect, "batch={batch}");
        }

        // NaN outranks a dimension mismatch, exactly like the per-sample
        // path; the failing sample mutates nothing.
        let mut vs = VectorSpring::new(&query, 1.0).unwrap();
        let mut out = Vec::new();
        let bad = [1.0, 2.0, 3.0, f64::NAN, 2.0];
        assert!(matches!(
            Monitor::step_batch(&mut vs, &bad, &mut out),
            Err(SpringError::NonFiniteInput { tick: 2 })
        ));
        assert_eq!(vs.tick(), 1);
        assert!(matches!(
            Monitor::step_batch(&mut vs, &[1.0], &mut out),
            Err(SpringError::DimensionMismatch {
                expected: 3,
                found: 1
            })
        ));
        assert_eq!(vs.tick(), 1);
    }

    #[test]
    fn dimension_mismatch_is_rejected_and_state_preserved() {
        let query = vec![vec![1.0, 2.0]];
        let mut vs = VectorSpring::new(&query, 1.0).unwrap();
        vs.step(&[1.0, 2.0]).unwrap();
        let before_tick = vs.tick();
        assert!(matches!(
            vs.step(&[1.0]),
            Err(SpringError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert_eq!(vs.tick(), before_tick);
    }

    #[test]
    fn invalid_queries_rejected() {
        assert!(VectorSpring::new(&Vec::<Vec<f64>>::new(), 1.0).is_err());
        assert!(VectorSpring::new(&vec![Vec::new()], 1.0).is_err());
        assert!(VectorSpring::new(&crate::monitor::Rows::new(&[1.0, 2.0, 3.0], 2), 1.0).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(VectorSpring::new(&ragged, 1.0).is_err());
        let nan = vec![vec![f64::NAN]];
        assert!(VectorSpring::new(&nan, 1.0).is_err());
    }

    #[test]
    fn memory_constant_in_stream_length() {
        let query: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64; 8]).collect();
        let mut vs = VectorSpring::new(&query, 10.0).unwrap();
        let sample = vec![0.5; 8];
        let before = vs.bytes_used();
        for _ in 0..5_000 {
            vs.step(&sample).unwrap();
        }
        assert_eq!(vs.bytes_used(), before);
    }
}
