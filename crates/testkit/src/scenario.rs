//! Seeded scenario generation for differential fuzzing.
//!
//! A [`Scenario`] is a complete, self-describing test case: one stream
//! (possibly with NaN gap bursts), one query, a threshold, and a gap
//! policy. Generation is fully deterministic from a
//! [`spring_util::Rng`], and deliberately adversarial toward SPRING's
//! known failure surfaces:
//!
//! * **integer-ish value grids** so that many subsequences land at
//!   *exactly* the same distance — ties at the shared `d_min` are where
//!   the disjoint policy (paper Eq. 9) earns its keep;
//! * **plateaus** (runs of a repeated value) so warping paths have many
//!   equally-cheap expansions;
//! * **gap bursts** (runs of NaN) so every [`GapPolicy`] branch of the
//!   engine's shared ingest path is exercised;
//! * **boundary thresholds** including `ε = 0`, which admits only exact
//!   matches, and a full-band `ε` no cell reaches.
//!
//! Streams are kept short (≤ 60 effective ticks) so the `O(n²m)`
//! Super-Naive oracle stays cheap enough to run thousands of times.

use spring_monitor::GapPolicy;
use spring_util::Rng;

/// Upper bound on generated query lengths (`m`).
pub const MAX_QUERY_LEN: usize = 8;

/// Upper bound on generated stream lengths (`n`).
pub const MAX_STREAM_LEN: usize = 60;

/// One self-contained differential test case.
///
/// A scenario is *printable*: shrinking mutates `stream`/`query`
/// directly, so a failing case is replayed from the literal values (via
/// the `Debug` form), not from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Raw stream values; NaN marks a missing sample (a gap).
    pub stream: Vec<f64>,
    /// Query pattern (always finite, never empty).
    pub query: Vec<f64>,
    /// Distance threshold `ε` (≥ 0).
    pub epsilon: f64,
    /// How attachments treat the NaN gaps in `stream`.
    pub gap_policy: GapPolicy,
}

impl Scenario {
    /// Draws a fresh scenario from `rng`.
    pub fn generate(rng: &mut Rng) -> Scenario {
        let m = 1 + rng.u64_below(MAX_QUERY_LEN as u64) as usize;
        let n = 8 + rng.u64_below((MAX_STREAM_LEN - 8) as u64 + 1) as usize;

        // Value style: coarse grids provoke exact ties; the continuous
        // style covers the generic case.
        let style = rng.u64_below(3);
        let draw = |rng: &mut Rng| -> f64 {
            match style {
                0 => rng.u64_below(7) as f64 - 3.0,          // integers −3..=3
                1 => (rng.u64_below(13) as f64 - 6.0) * 0.5, // halves −3.0..=3.0
                _ => rng.f64_range(-5.0, 5.0),               // continuous
            }
        };

        let query: Vec<f64> = (0..m).map(|_| draw(rng)).collect();

        let with_gaps = rng.f64() < 0.3;
        let plateau_p = if rng.f64() < 0.5 { 0.35 } else { 0.0 };
        let mut stream = Vec::with_capacity(n);
        let mut prev = draw(rng);
        while stream.len() < n {
            if with_gaps && rng.f64() < 0.15 {
                // A gap burst of 1–4 missing ticks.
                let burst = 1 + rng.u64_below(4) as usize;
                for _ in 0..burst.min(n - stream.len()) {
                    stream.push(f64::NAN);
                }
                continue;
            }
            let x = if rng.f64() < plateau_p {
                prev
            } else {
                draw(rng)
            };
            prev = x;
            stream.push(x);
        }

        // Occasionally plant the query verbatim so exact-distance-zero
        // matches (and ε = 0 scenarios) are not vanishingly rare.
        if rng.f64() < 0.4 && n > m {
            let at = rng.usize_range(0, n - m);
            stream[at..at + m].copy_from_slice(&query);
        }

        // 1e6 is a full band: every cell of the generated streams stays
        // below it, so the monitors' ε-band never prunes a row.
        const EPS_GRID: [f64; 9] = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 1e6];
        let epsilon = EPS_GRID[rng.u64_below(EPS_GRID.len() as u64) as usize];

        // `Fail` only makes sense for gapless streams (with gaps it
        // aborts ingestion, which is covered by dedicated engine tests).
        let gap_policy = if with_gaps {
            if rng.f64() < 0.5 {
                GapPolicy::Skip
            } else {
                GapPolicy::CarryForward
            }
        } else {
            match rng.u64_below(3) {
                0 => GapPolicy::Skip,
                1 => GapPolicy::CarryForward,
                _ => GapPolicy::Fail,
            }
        };

        Scenario {
            stream,
            query,
            epsilon,
            gap_policy,
        }
    }

    /// The sample sequence the monitor actually observes after the
    /// engine's gap handling: NaN ticks are dropped (`Skip`) or replaced
    /// by the last observed value (`CarryForward`; leading gaps are
    /// skipped). Match tick numbers refer to positions in *this*
    /// sequence.
    pub fn effective_stream(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.stream.len());
        let mut last: Option<f64> = None;
        for &x in &self.stream {
            if x.is_nan() {
                match self.gap_policy {
                    GapPolicy::Skip | GapPolicy::Fail => {}
                    GapPolicy::CarryForward => {
                        if let Some(l) = last {
                            out.push(l);
                        }
                    }
                }
            } else {
                last = Some(x);
                out.push(x);
            }
        }
        out
    }

    /// Number of NaN ticks in the raw stream.
    pub fn gap_count(&self) -> usize {
        self.stream.iter().filter(|x| x.is_nan()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = Scenario::generate(&mut Rng::seed_from_u64(7));
        let b = Scenario::generate(&mut Rng::seed_from_u64(7));
        // NaN != NaN, so compare the debug forms.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = Scenario::generate(&mut Rng::seed_from_u64(8));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn generated_scenarios_respect_the_documented_bounds() {
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..200 {
            let sc = Scenario::generate(&mut rng);
            assert!(!sc.query.is_empty() && sc.query.len() <= MAX_QUERY_LEN);
            assert!(sc.stream.len() >= 8 && sc.stream.len() <= MAX_STREAM_LEN);
            assert!(sc.query.iter().all(|x| x.is_finite()));
            assert!(sc.epsilon >= 0.0);
            if sc.gap_policy == GapPolicy::Fail {
                assert_eq!(sc.gap_count(), 0, "Fail policy only on gapless streams");
            }
        }
    }

    #[test]
    fn effective_stream_resolves_gaps_per_policy() {
        let sc = Scenario {
            stream: vec![f64::NAN, 1.0, f64::NAN, f64::NAN, 2.0],
            query: vec![0.0],
            epsilon: 1.0,
            gap_policy: GapPolicy::Skip,
        };
        assert_eq!(sc.effective_stream(), vec![1.0, 2.0]);
        let sc = Scenario {
            gap_policy: GapPolicy::CarryForward,
            ..sc
        };
        assert_eq!(sc.effective_stream(), vec![1.0, 1.0, 1.0, 2.0]);
    }
}
