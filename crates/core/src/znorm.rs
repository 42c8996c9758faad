//! Streaming z-normalization.
//!
//! Raw DTW (and hence SPRING) compares absolute values, so a sensor with
//! a drifting baseline or a different gain never matches a fixed query —
//! a practical limitation the follow-up literature on streaming
//! subsequence matching addresses with local normalization. This module
//! provides the standard remedy: normalize the stream against a sliding
//! window of its own recent history, and match against a z-normalized
//! query.
//!
//! [`RollingStats`] maintains exact windowed mean/variance in O(1) per
//! tick via running sums (numerically re-anchored periodically);
//! [`NormalizedSpring`] wraps a [`Spring`] so callers keep the one-call
//! `step` interface.

use std::collections::VecDeque;

use spring_dtw::kernels::{DistanceKernel, Squared};

use crate::error::SpringError;
use crate::mem::MemoryUse;
use crate::spring::{Spring, SpringConfig};
use crate::types::Match;

/// Exact sliding-window mean and standard deviation in O(1) per sample.
#[derive(Debug, Clone)]
pub struct RollingStats {
    window: VecDeque<f64>,
    capacity: usize,
    sum: f64,
    sum_sq: f64,
    /// Samples since the running sums were last recomputed from scratch
    /// (drift control for long streams).
    since_anchor: usize,
}

impl RollingStats {
    /// Stats over a window of `capacity` samples (≥ 2).
    pub fn new(capacity: usize) -> Result<Self, SpringError> {
        if capacity < 2 {
            return Err(SpringError::InvalidQuery(
                "normalization window must hold at least 2 samples".into(),
            ));
        }
        Ok(RollingStats {
            window: VecDeque::with_capacity(capacity),
            capacity,
            sum: 0.0,
            sum_sq: 0.0,
            since_anchor: 0,
        })
    }

    /// Pushes a sample, evicting the oldest when the window is full.
    pub fn push(&mut self, x: f64) {
        if self.window.len() == self.capacity {
            let old = self.window.pop_front().expect("window is full");
            self.sum -= old;
            self.sum_sq -= old * old;
        }
        self.window.push_back(x);
        self.sum += x;
        self.sum_sq += x * x;
        self.since_anchor += 1;
        // Cancellation in sum_sq grows with stream length; re-anchor the
        // sums from the live window every few thousand samples.
        if self.since_anchor >= 8_192 {
            self.sum = self.window.iter().sum();
            self.sum_sq = self.window.iter().map(|v| v * v).sum();
            self.since_anchor = 0;
        }
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Window mean (NaN before the first sample).
    pub fn mean(&self) -> f64 {
        if self.window.is_empty() {
            f64::NAN
        } else {
            self.sum / self.window.len() as f64
        }
    }

    /// Window population standard deviation (NaN before the first sample).
    pub fn std(&self) -> f64 {
        if self.window.is_empty() {
            return f64::NAN;
        }
        let n = self.window.len() as f64;
        let var = (self.sum_sq / n - (self.sum / n).powi(2)).max(0.0);
        var.sqrt()
    }

    /// Z-score of `x` against the current window; 0 when the window has
    /// no variance yet.
    pub fn zscore(&self, x: f64) -> f64 {
        let sd = self.std();
        if sd > 1e-12 {
            (x - self.mean()) / sd
        } else {
            0.0
        }
    }

    /// Empties the window and zeroes the running sums (capacity kept).
    pub fn reset(&mut self) {
        self.window.clear();
        self.sum = 0.0;
        self.sum_sq = 0.0;
        self.since_anchor = 0;
    }
}

/// A SPRING monitor over the z-normalized stream.
///
/// The query is z-normalized once at construction (against its own
/// statistics); each incoming sample is normalized against a sliding
/// window of the last `window` raw samples and then fed to the inner
/// [`Spring`]. Reported tick positions refer to the raw stream.
///
/// # Examples
/// ```
/// use spring_core::NormalizedSpring;
///
/// // The pattern appears offset by +100; raw matching would miss it.
/// let template = [0.0, 5.0, 0.0];
/// let mut monitor = NormalizedSpring::new(&template, 4.0, 8).unwrap();
/// let mut stream = vec![100.0; 20];
/// stream.extend([100.0, 105.0, 100.0]);
/// stream.extend(vec![100.0; 20]);
/// let mut hits = Vec::new();
/// for x in stream {
///     hits.extend(monitor.step(x));
/// }
/// hits.extend(monitor.finish());
/// assert!(hits.iter().any(|m| m.start <= 23 && 21 <= m.end));
/// ```
///
/// Matching only begins once the window has filled — z-scores against a
/// half-empty window are statistically meaningless and produce startup
/// false alarms — so no match can start before raw tick `window`.
#[derive(Debug, Clone)]
pub struct NormalizedSpring<K: DistanceKernel = Squared> {
    inner: Spring<K>,
    stats: RollingStats,
    /// Raw ticks consumed before the inner monitor started (window − 1);
    /// added to every reported position.
    offset: u64,
}

impl NormalizedSpring<Squared> {
    /// Normalized monitor with the paper's default squared kernel.
    pub fn new(query: &[f64], epsilon: f64, window: usize) -> Result<Self, SpringError> {
        Self::with_kernel(query, epsilon, window, Squared)
    }
}

impl<K: DistanceKernel> NormalizedSpring<K> {
    /// Normalized monitor with an explicit kernel.
    pub fn with_kernel(
        query: &[f64],
        epsilon: f64,
        window: usize,
        kernel: K,
    ) -> Result<Self, SpringError> {
        Self::with_query_ref(crate::QueryRef::flat(query, 1)?, epsilon, window, kernel)
    }

    /// Normalized monitor over a shared arena entry: the z-normalized
    /// form of the pattern is computed once
    /// per [`crate::QueryRef`] and borrowed by every normalized monitor
    /// attached to it. Bit-identical to [`NormalizedSpring::with_kernel`].
    ///
    /// # Errors
    /// Rejects an invalid ε, a window below 2 samples, or a
    /// multivariate entry.
    pub fn with_query_ref(
        query: std::sync::Arc<crate::QueryRef>,
        epsilon: f64,
        window: usize,
        kernel: K,
    ) -> Result<Self, SpringError> {
        if query.channels() != 1 {
            return Err(SpringError::InvalidQuery(format!(
                "scalar monitor over a {}-channel query",
                query.channels()
            )));
        }
        Ok(NormalizedSpring {
            inner: Spring::with_query_ref(query.znormalized(), SpringConfig::new(epsilon), kernel)?,
            stats: RollingStats::new(window)?,
            offset: window as u64 - 1,
        })
    }

    /// Current 1-based raw-stream tick (including warmup ticks).
    pub fn tick(&self) -> u64 {
        if self.stats.len() < self.stats.capacity {
            self.stats.len() as u64
        } else {
            self.inner.tick() + self.offset
        }
    }

    /// Shifts an inner-monitor match into raw-stream coordinates.
    fn shift(&self, mut m: Match) -> Match {
        m.start += self.offset;
        m.end += self.offset;
        m.reported_at += self.offset;
        m.group_start += self.offset;
        m.group_end += self.offset;
        m
    }

    /// Consumes the next raw stream value. Returns `None` during the
    /// warmup phase (the first `window − 1` ticks).
    pub fn step(&mut self, x: f64) -> Option<Match> {
        debug_assert!(x.is_finite(), "stream value must be finite");
        self.stats.push(x);
        if self.stats.len() < self.stats.capacity {
            return None;
        }
        self.inner.step(self.stats.zscore(x)).map(|m| self.shift(m))
    }

    /// Declares the end of the stream, reporting a pending group optimum.
    pub fn finish(&mut self) -> Option<Match> {
        self.inner.finish().map(|m| self.shift(m))
    }
}

impl<K: DistanceKernel> MemoryUse for NormalizedSpring<K> {
    fn bytes_used(&self) -> usize {
        self.inner.bytes_used() + self.stats.window.capacity() * std::mem::size_of::<f64>()
    }
}

impl<K: DistanceKernel> crate::monitor::Monitor for NormalizedSpring<K> {
    type Sample = f64;

    fn variant(&self) -> crate::monitor::MonitorVariant {
        crate::monitor::MonitorVariant::Normalized
    }

    fn step(&mut self, sample: &f64) -> Result<Option<Match>, SpringError> {
        if !sample.is_finite() {
            return Err(SpringError::NonFiniteInput {
                tick: self.tick() + 1,
            });
        }
        Ok(NormalizedSpring::step(self, *sample))
    }

    /// Optimized batch path: hoists the warmup capacity and the raw-tick
    /// offset out of the loop and steps the inner STWM's SoA kernel
    /// directly, keeping its lane scratch warm across the frame; the
    /// normalization arithmetic is unchanged and z-scores of finite
    /// samples are always finite, so the inner column never sees the
    /// values the guard rejects.
    fn step_batch(&mut self, samples: &[f64], out: &mut Vec<Match>) -> Result<(), SpringError> {
        let capacity = self.stats.capacity;
        for &x in samples {
            if !x.is_finite() {
                return Err(SpringError::NonFiniteInput {
                    tick: self.tick() + 1,
                });
            }
            self.stats.push(x);
            if self.stats.len() < capacity {
                continue; // warmup: z-scores not meaningful yet
            }
            let z = self.stats.zscore(x);
            if let Some(m) = self.inner.step(z) {
                out.push(self.shift(m));
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Option<Match> {
        NormalizedSpring::finish(self)
    }

    fn query_len(&self) -> usize {
        self.inner.query_len()
    }

    fn epsilon(&self) -> Option<f64> {
        Some(self.inner.epsilon())
    }

    fn tick(&self) -> u64 {
        NormalizedSpring::tick(self)
    }

    fn memory_use(&self) -> usize {
        self.bytes_used()
    }

    fn memory_cells(&self) -> usize {
        // Per-attachment cells: the inner monitor's mutable state plus
        // this monitor's normalization window. The (z-normalized)
        // pattern is shared and reported via `shared_memory_cells`.
        crate::monitor::Monitor::memory_cells(&self.inner) + self.stats.window.capacity()
    }

    fn shared_memory_cells(&self) -> usize {
        crate::monitor::Monitor::shared_memory_cells(&self.inner)
    }

    fn query_fingerprint(&self) -> Option<u64> {
        crate::monitor::Monitor::query_fingerprint(&self.inner)
    }

    fn generation(&self) -> u64 {
        crate::monitor::Monitor::generation(&self.inner)
    }

    fn set_generation(&mut self, generation: u64) {
        crate::monitor::Monitor::set_generation(&mut self.inner, generation);
    }

    fn reset(&mut self) {
        crate::monitor::Monitor::reset(&mut self.inner);
        self.stats.reset();
    }
}

/// Z-normalizes a finite, non-empty sequence; a zero-variance sequence
/// maps to all zeros.
pub fn znormalize(values: &[f64]) -> Result<Vec<f64>, SpringError> {
    crate::error::check_query(values)?;
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    Ok(values
        .iter()
        .map(|&v| if sd > 1e-12 { (v - mean) / sd } else { 0.0 })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_stats_match_batch_stats() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let w = 16;
        let mut rs = RollingStats::new(w).unwrap();
        for (t, &x) in data.iter().enumerate() {
            rs.push(x);
            let lo = (t + 1).saturating_sub(w);
            let win = &data[lo..=t];
            let mean: f64 = win.iter().sum::<f64>() / win.len() as f64;
            let var: f64 =
                win.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / win.len() as f64;
            assert!((rs.mean() - mean).abs() < 1e-9, "t = {t}");
            assert!((rs.std() - var.sqrt()).abs() < 1e-9, "t = {t}");
        }
    }

    #[test]
    fn reanchoring_controls_drift_on_long_streams() {
        let mut rs = RollingStats::new(32).unwrap();
        for t in 0..100_000u64 {
            rs.push(1e6 + (t as f64 * 0.7).sin());
        }
        // Window values are ~1e6 ± 1; a drifting implementation would
        // report a wildly wrong (or negative-variance) std.
        assert!((rs.std() - 0.7).abs() < 0.3, "std = {}", rs.std());
    }

    #[test]
    fn zscore_of_constant_window_is_zero() {
        let mut rs = RollingStats::new(4).unwrap();
        for _ in 0..4 {
            rs.push(5.0);
        }
        assert_eq!(rs.zscore(5.0), 0.0);
        assert_eq!(rs.zscore(100.0), 0.0); // no variance -> neutral
    }

    #[test]
    fn znormalize_handles_constant_and_regular_input() {
        assert_eq!(znormalize(&[3.0, 3.0, 3.0]).unwrap(), vec![0.0; 3]);
        let z = znormalize(&[1.0, 2.0, 3.0]).unwrap();
        assert!(z.iter().sum::<f64>().abs() < 1e-12);
        assert!(znormalize(&[]).is_err());
    }

    #[test]
    fn detects_a_shifted_and_scaled_pattern_that_raw_spring_misses() {
        // The pattern appears offset by +100 and scaled 2x.
        let template = [0.0, 3.0, -3.0, 0.0, 3.0, -3.0, 0.0];
        let mut stream: Vec<f64> = (0..60).map(|i| 100.0 + (i as f64 * 0.4).sin()).collect();
        let planted_at = stream.len();
        stream.extend(template.iter().map(|&v| 100.0 + 2.0 * v));
        stream.extend((0..60).map(|i| 100.0 + (i as f64 * 0.4).sin()));

        // Raw SPRING with the unshifted template: nothing within eps.
        let mut raw = Spring::new(&template, SpringConfig::new(5.0)).unwrap();
        let mut raw_hits: Vec<Match> = stream.iter().filter_map(|&x| raw.step(x)).collect();
        raw_hits.extend(raw.finish());
        assert!(raw_hits.is_empty(), "raw monitor should miss: {raw_hits:?}");

        // Normalized SPRING finds it.
        let mut ns = NormalizedSpring::new(&template, 5.0, 16).unwrap();
        let mut hits: Vec<Match> = stream.iter().filter_map(|&x| ns.step(x)).collect();
        hits.extend(ns.finish());
        assert!(
            hits.iter().any(|m| {
                let lo = planted_at as u64 + 1;
                let hi = (planted_at + template.len()) as u64;
                m.start <= hi && lo <= m.end
            }),
            "normalized monitor should find the planted pattern: {hits:?}"
        );
    }

    #[test]
    fn positions_refer_to_the_raw_stream() {
        let template = [0.0, 5.0, 0.0];
        let mut stream = vec![10.0; 20];
        stream.extend([10.0, 15.0, 10.0]); // same shape, offset +10
        stream.extend(vec![10.0; 20]);
        // The sliding window contains the spike itself, which dampens its
        // z-score; a moderately loose epsilon absorbs that.
        let mut ns = NormalizedSpring::new(&template, 4.0, 8).unwrap();
        let mut hits: Vec<Match> = stream.iter().filter_map(|&x| ns.step(x)).collect();
        hits.extend(ns.finish());
        assert!(!hits.is_empty());
        // The planted shape sits at raw ticks 21..=23.
        assert!(
            hits.iter().any(|m| m.start <= 23 && 21 <= m.end),
            "{hits:?}"
        );
    }

    #[test]
    fn no_reports_during_warmup_and_ticks_count_raw_samples() {
        let mut ns = NormalizedSpring::new(&[0.0, 1.0], 1.0, 10).unwrap();
        for t in 1..10u64 {
            assert!(ns.step(t as f64).is_none(), "warmup tick {t}");
            assert_eq!(ns.tick(), t);
        }
        ns.step(3.0);
        assert_eq!(ns.tick(), 10);
    }

    #[test]
    fn reported_positions_are_shifted_into_raw_coordinates() {
        // Planted shape well after warmup; every reported index must be
        // a plausible raw-stream tick (> warmup, <= stream length).
        let template = [0.0, 6.0, 0.0];
        let mut stream = vec![1.0; 30];
        stream.extend([1.0, 7.0, 1.0]);
        stream.extend(vec![1.0; 10]);
        let mut ns = NormalizedSpring::new(&template, 4.0, 8).unwrap();
        let mut hits: Vec<Match> = stream.iter().filter_map(|&x| ns.step(x)).collect();
        hits.extend(ns.finish());
        assert!(!hits.is_empty());
        for m in &hits {
            assert!(m.start >= 8, "{m:?} starts inside warmup");
            assert!(m.end as usize <= stream.len(), "{m:?} beyond stream");
        }
        assert!(
            hits.iter().any(|m| m.start <= 33 && 31 <= m.end),
            "{hits:?}"
        );
    }

    #[test]
    fn invalid_windows_rejected() {
        assert!(RollingStats::new(0).is_err());
        assert!(RollingStats::new(1).is_err());
        assert!(NormalizedSpring::new(&[1.0], 1.0, 1).is_err());
    }

    #[test]
    fn memory_is_bounded_by_window_and_query() {
        let mut ns = NormalizedSpring::new(&vec![0.5; 32], 1.0, 64).unwrap();
        ns.step(0.0);
        let before = ns.bytes_used();
        for t in 0..20_000 {
            ns.step((t as f64 * 0.01).cos() * 3.0);
        }
        assert_eq!(ns.bytes_used(), before);
    }
}
