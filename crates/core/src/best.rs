//! The best-match monitor (Problem 1, streaming form).
//!
//! Tracks the subsequence with the globally smallest DTW distance seen so
//! far and "reports the best subsequence when the user requires it"
//! (Sec. 3.3.1). Unlike the disjoint query there is no threshold and no
//! confirmation delay — the caller polls [`BestMatch::best`] whenever it
//! wants the current answer.
//!
//! The matrix is ε-banded at ε = the best distance so far (see
//! [`Stwm`]), the best-so-far pruning of exact DTW motif search: a
//! warping path's accumulated distance never falls, so a cell above the
//! current best cannot end a subsequence at or below it. The band keeps
//! cells *equal* to the best bit-exact, so the earliest-tie rule is the
//! one an unbanded matrix gives.

use spring_dtw::kernels::{DistanceKernel, Squared};

use crate::error::SpringError;
use crate::mem::MemoryUse;
use crate::stwm::Stwm;
use crate::types::Match;

/// Streaming best-match monitor over one stream and one query.
///
/// Each tick computes only the rows that can still reach the best
/// distance so far, and none while every row lies above it and the
/// sample is farther from `y_1` than the best (one distance per tick).
/// Answers are bit-identical to a full-column matrix's.
#[derive(Debug, Clone)]
pub struct BestMatch<K: DistanceKernel = Squared> {
    stwm: Stwm<K>,
    best_distance: f64,
    best_start: u64,
    best_end: u64,
    /// Tick at which the current best was first achieved.
    found_at: u64,
    /// Whether [`Monitor::finish`](crate::Monitor::finish) already
    /// reported the best (keeps the trait-level flush idempotent).
    flushed: bool,
}

impl BestMatch<Squared> {
    /// Monitor with the paper's default squared kernel.
    pub fn new(query: &[f64]) -> Result<Self, SpringError> {
        Self::with_kernel(query, Squared)
    }
}

impl<K: DistanceKernel> BestMatch<K> {
    /// Monitor with an explicit distance kernel.
    pub fn with_kernel(query: &[f64], kernel: K) -> Result<Self, SpringError> {
        Ok(BestMatch {
            stwm: Stwm::with_kernel(query, kernel)?,
            best_distance: f64::INFINITY,
            best_start: 0,
            best_end: 0,
            found_at: 0,
            flushed: false,
        })
    }

    /// Current 1-based tick.
    pub fn tick(&self) -> u64 {
        self.stwm.tick()
    }

    /// Query length `m`.
    pub fn query_len(&self) -> usize {
        self.stwm.query_len()
    }

    /// Consumes the next stream value. Returns `true` when the global
    /// best improved at this tick.
    pub fn step(&mut self, x: f64) -> bool {
        debug_assert!(x.is_finite(), "stream value must be finite");
        if self.stwm.skip_idle(std::slice::from_ref(&x), 0, &[]) == 1 {
            return false;
        }
        self.stwm.step(x);
        let dm = self.stwm.current_distance();
        // Strict `<` keeps the *earliest* of equally good subsequences,
        // so answers are deterministic.
        if dm < self.best_distance {
            self.best_distance = dm;
            self.best_start = self.stwm.current_start();
            self.best_end = self.stwm.tick();
            self.found_at = self.stwm.tick();
            // Banding at `≤ best` keeps every tie cell bit-exact.
            self.stwm.set_band(dm);
            true
        } else {
            false
        }
    }

    /// Validating variant of [`BestMatch::step`].
    pub fn step_checked(&mut self, x: f64) -> Result<bool, SpringError> {
        if !x.is_finite() {
            return Err(SpringError::NonFiniteInput {
                tick: self.stwm.tick() + 1,
            });
        }
        Ok(self.step(x))
    }

    /// The best subsequence seen so far, or `None` before the first tick.
    pub fn best(&self) -> Option<Match> {
        self.best_distance.is_finite().then_some(Match {
            start: self.best_start,
            end: self.best_end,
            distance: self.best_distance,
            reported_at: self.found_at,
            group_start: self.best_start,
            group_end: self.best_end,
        })
    }
}

impl<K: DistanceKernel> MemoryUse for BestMatch<K> {
    fn bytes_used(&self) -> usize {
        self.stwm.bytes_used()
    }
}

impl<K: DistanceKernel> crate::monitor::Monitor for BestMatch<K> {
    type Sample = f64;

    fn variant(&self) -> crate::monitor::MonitorVariant {
        crate::monitor::MonitorVariant::Best
    }

    /// Best-match queries have no per-tick reports (Problem 1 answers on
    /// demand); the trait surfaces the answer at
    /// [`finish`](crate::Monitor::finish).
    fn step(&mut self, sample: &f64) -> Result<Option<Match>, SpringError> {
        self.step_checked(*sample)?;
        Ok(None)
    }

    fn finish(&mut self) -> Option<Match> {
        if self.flushed {
            None
        } else {
            self.flushed = true;
            self.best()
        }
    }

    fn query_len(&self) -> usize {
        BestMatch::query_len(self)
    }

    fn epsilon(&self) -> Option<f64> {
        None
    }

    fn tick(&self) -> u64 {
        BestMatch::tick(self)
    }

    fn memory_use(&self) -> usize {
        self.bytes_used()
    }

    fn reset(&mut self) {
        self.stwm.reset();
        self.stwm.set_band(f64::INFINITY);
        self.best_distance = f64::INFINITY;
        self.best_start = 0;
        self.best_end = 0;
        self.found_at = 0;
        self.flushed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn best_of(query: &[f64], stream: &[f64]) -> Match {
        let mut bm = BestMatch::new(query).unwrap();
        for &x in stream {
            bm.step(x);
        }
        bm.best().expect("stream was non-empty")
    }

    #[test]
    fn finds_the_exact_occurrence() {
        let query = [1.0, 5.0, 1.0];
        let mut stream = vec![40.0; 7];
        stream.extend([1.0, 5.0, 1.0]);
        stream.extend(vec![40.0; 7]);
        let m = best_of(&query, &stream);
        assert_eq!((m.start, m.end, m.distance), (8, 10, 0.0));
    }

    #[test]
    fn matches_brute_force_minimum_over_all_subsequences() {
        let query = [3.0, -1.0, 2.0, 0.0];
        let stream: Vec<f64> = (0..40).map(|i| ((i * 7 % 13) as f64) - 5.0).collect();
        let m = best_of(&query, &stream);
        let mut brute = f64::INFINITY;
        for ts in 0..stream.len() {
            for te in ts..stream.len() {
                let d = spring_dtw::dtw_distance(&stream[ts..=te], &query).unwrap();
                brute = brute.min(d);
            }
        }
        assert!((m.distance - brute).abs() < 1e-9);
    }

    #[test]
    fn best_never_worsens() {
        let query = [0.0, 1.0];
        let stream: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin() * 5.0).collect();
        let mut bm = BestMatch::new(&query).unwrap();
        let mut last = f64::INFINITY;
        for &x in &stream {
            bm.step(x);
            let d = bm.best().unwrap().distance;
            assert!(d <= last);
            last = d;
        }
    }

    #[test]
    fn none_before_first_tick_and_some_after() {
        let mut bm = BestMatch::new(&[1.0]).unwrap();
        assert!(bm.best().is_none());
        assert!(bm.step(9.0));
        let m = bm.best().unwrap();
        assert_eq!((m.start, m.end, m.distance), (1, 1, 64.0));
    }

    #[test]
    fn keeps_the_earliest_of_tied_matches() {
        let query = [2.0];
        let stream = [7.0, 2.0, 5.0, 2.0];
        let m = best_of(&query, &stream);
        assert_eq!((m.start, m.end), (2, 2));
    }

    #[test]
    fn step_reports_improvement_moments() {
        let mut bm = BestMatch::new(&[0.0]).unwrap();
        assert!(bm.step(5.0)); // first value always improves (∞ → 25)
        assert!(!bm.step(6.0)); // worse, best unchanged
        assert!(bm.step(1.0)); // improves to 1
    }

    #[test]
    fn reset_restores_the_full_band() {
        // The first stream holds an exact occurrence, so the band
        // tightens to 0; the second never comes within 0 of the query.
        // After `reset` the band must be +∞ again, or the second
        // stream's samples would all pass for idle and find nothing.
        use crate::monitor::Monitor;
        let query = [1.0, 5.0, 1.0];
        let mut first = vec![20.0; 5];
        first.extend(query);
        first.extend(vec![20.0; 5]);
        let second: Vec<f64> = (0..30).map(|i| 8.0 + (i % 5) as f64).collect();
        let mut bm = BestMatch::new(&query).unwrap();
        for &x in &first {
            bm.step(x);
        }
        assert_eq!(bm.best().unwrap().distance, 0.0);
        Monitor::reset(&mut bm);
        let mut fresh = BestMatch::new(&query).unwrap();
        for &x in &second {
            assert_eq!(bm.step(x), fresh.step(x), "tick {}", fresh.tick());
        }
        assert_eq!(bm.best(), fresh.best());
        assert!(bm.best().unwrap().distance > 0.0);
    }

    #[test]
    fn a_non_finite_sample_stops_a_batch_where_per_sample_does() {
        // The bad sample lands before the best, on it, and inside the
        // idle stretch after it, where the band is empty and the skip
        // runs: a batch must stop at the same tick, with the same error
        // and the same answer, as per-sample stepping.
        use crate::monitor::Monitor;
        let query = [1.0, 5.0, 1.0];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0usize, 1, 4, 5, 7, 8, 9, 30] {
                let mut stream = vec![3.0, 2.0, 6.0, 1.0, 5.0, 1.0];
                stream.extend(vec![50.0; 34]);
                stream[at] = bad;
                let mut per_sample = BestMatch::new(&query).unwrap();
                let err = stream
                    .iter()
                    .find_map(|x| Monitor::step(&mut per_sample, x).err())
                    .unwrap();
                let mut batched = BestMatch::new(&query).unwrap();
                let got = batched.step_batch(&stream, &mut Vec::new()).unwrap_err();
                let ctx = format!("bad={bad} at={at}");
                assert_eq!(got, err, "{ctx}");
                assert_eq!(
                    got,
                    SpringError::NonFiniteInput {
                        tick: at as u64 + 1
                    },
                    "{ctx}"
                );
                assert_eq!(batched.tick(), at as u64, "{ctx}: consumed prefix");
                assert_eq!(batched.best(), per_sample.best(), "{ctx}");
            }
        }
    }
}
