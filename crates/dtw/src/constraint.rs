//! Global warping constraints.
//!
//! The indexing literature the paper reviews (Keogh VLDB'02, Zhu–Shasha
//! SIGMOD'03, Rabiner–Juang) limits the scope of the warping path with
//! global constraints — the Sakoe–Chiba band and the Itakura
//! parallelogram. We implement both for `spring dtw --band` and so
//! constrained DTW can be compared against SPRING's unconstrained
//! subsequence matching.

use crate::error::{check_sequence, DtwError};
use crate::kernels::DistanceKernel;

/// A global constraint on admissible warping-matrix cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GlobalConstraint {
    /// No constraint: every cell admissible.
    None,
    /// Sakoe–Chiba band of the given radius around the (length-normalized)
    /// diagonal: cell `(t, i)` is admissible iff
    /// `|i − t·(m−1)/(n−1)| ≤ radius`.
    SakoeChiba {
        /// Band radius in query elements.
        radius: usize,
    },
    /// Itakura parallelogram with maximum local slope `slope` (> 1.0);
    /// the classic choice is `2.0`.
    Itakura {
        /// Maximum slope of the warping path.
        slope: f64,
    },
}

impl GlobalConstraint {
    /// Whether cell `(t, i)` (0-based) is admissible in an `n × m` matrix.
    #[inline]
    pub fn allows(&self, t: usize, i: usize, n: usize, m: usize) -> bool {
        match *self {
            GlobalConstraint::None => true,
            GlobalConstraint::SakoeChiba { radius } => {
                let diag = if n <= 1 {
                    0.0
                } else {
                    t as f64 * (m.saturating_sub(1)) as f64 / (n - 1) as f64
                };
                (i as f64 - diag).abs() <= radius as f64
            }
            GlobalConstraint::Itakura { slope } => {
                // 1-based coordinates; conditions from both corners.
                let (u, v) = ((t + 1) as f64, (i + 1) as f64);
                let (n, m) = (n as f64, m as f64);
                v <= slope * u
                    && v >= u / slope - (1.0 - 1.0 / slope) // allow (1,1)
                    && (m - v) <= slope * (n - u) + (slope - 1.0) // allow (n,m)
                    && (m - v) >= (n - u) / slope - (1.0 - 1.0 / slope)
            }
        }
    }

    /// Validates constraint parameters.
    pub fn validate(&self) -> Result<(), DtwError> {
        match *self {
            GlobalConstraint::Itakura { slope }
                if slope.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater)
                    || !slope.is_finite() =>
            {
                Err(DtwError::InvalidConfig(format!(
                    "Itakura slope must be finite and > 1, got {slope}"
                )))
            }
            _ => Ok(()),
        }
    }
}

/// DTW distance restricted to admissible cells; inadmissible cells act as
/// `∞`. Returns [`DtwError::InfeasibleConstraint`] if no warping path
/// survives the constraint.
///
/// `O(nm)` time in the worst case (banded variants skip inadmissible
/// columns), `O(m)` space.
pub fn dtw_constrained<K: DistanceKernel>(
    x: &[f64],
    y: &[f64],
    kernel: K,
    constraint: GlobalConstraint,
) -> Result<f64, DtwError> {
    check_sequence(x, "x")?;
    check_sequence(y, "y")?;
    constraint.validate()?;
    let (n, m) = (x.len(), y.len());
    let mut prev = vec![f64::INFINITY; m];
    let mut cur = vec![f64::INFINITY; m];
    for (t, &xt) in x.iter().enumerate() {
        for i in 0..m {
            if !constraint.allows(t, i, n, m) {
                cur[i] = f64::INFINITY;
                continue;
            }
            let base = kernel.dist(xt, y[i]);
            let best = match (t, i) {
                (0, 0) => 0.0,
                (0, _) => cur[i - 1],
                (_, 0) => prev[0],
                _ => cur[i - 1].min(prev[i]).min(prev[i - 1]),
            };
            cur[i] = if best.is_finite() {
                base + best
            } else {
                f64::INFINITY
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[m - 1];
    if d.is_finite() {
        Ok(d)
    } else {
        Err(DtwError::InfeasibleConstraint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::dtw_distance_with;
    use crate::kernels::Squared;

    #[test]
    fn none_equals_unconstrained() {
        let x = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0];
        let y = [2.0, 3.0, 8.0, 6.0];
        assert_eq!(
            dtw_constrained(&x, &y, Squared, GlobalConstraint::None).unwrap(),
            dtw_distance_with(&x, &y, Squared).unwrap()
        );
    }

    #[test]
    fn band_never_below_unconstrained() {
        let x = [0.0, 5.0, 1.0, 9.0, 2.0, 2.0, 7.0];
        let y = [4.0, 4.0, 0.0, 8.0];
        let free = dtw_distance_with(&x, &y, Squared).unwrap();
        for radius in 0..6 {
            // Narrow bands between unequal lengths may be infeasible; that
            // is a correct outcome, not a violation.
            match dtw_constrained(&x, &y, Squared, GlobalConstraint::SakoeChiba { radius }) {
                Ok(banded) => assert!(banded >= free, "radius {radius}: {banded} < {free}"),
                Err(DtwError::InfeasibleConstraint) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn wide_band_equals_unconstrained() {
        let x = [0.0, 5.0, 1.0, 9.0, 2.0];
        let y = [4.0, 4.0, 0.0];
        let free = dtw_distance_with(&x, &y, Squared).unwrap();
        let banded =
            dtw_constrained(&x, &y, Squared, GlobalConstraint::SakoeChiba { radius: 10 }).unwrap();
        assert_eq!(banded, free);
    }

    #[test]
    fn band_monotone_in_radius() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0];
        let mut last = f64::INFINITY;
        for radius in 0..6 {
            let d = dtw_constrained(&x, &y, Squared, GlobalConstraint::SakoeChiba { radius })
                .unwrap_or(f64::INFINITY);
            assert!(d <= last);
            last = d;
        }
    }

    #[test]
    fn itakura_corners_admissible() {
        for (n, m) in [(4, 4), (8, 5), (5, 8), (1, 1), (2, 3)] {
            let c = GlobalConstraint::Itakura { slope: 2.0 };
            assert!(c.allows(0, 0, n, m), "start corner n={n} m={m}");
            assert!(c.allows(n - 1, m - 1, n, m), "end corner n={n} m={m}");
        }
    }

    #[test]
    fn itakura_never_below_unconstrained() {
        let x = [0.0, 5.0, 1.0, 9.0, 2.0, 2.0, 7.0, 3.0];
        let y = [4.0, 4.0, 0.0, 8.0, 1.0, 1.0, 6.0, 3.0];
        let free = dtw_distance_with(&x, &y, Squared).unwrap();
        let itakura =
            dtw_constrained(&x, &y, Squared, GlobalConstraint::Itakura { slope: 2.0 }).unwrap();
        assert!(itakura >= free);
    }

    #[test]
    fn equal_identical_sequences_still_zero_under_itakura() {
        let x = [1.0, 2.0, 3.0, 2.0, 1.0];
        let d = dtw_constrained(&x, &x, Squared, GlobalConstraint::Itakura { slope: 2.0 }).unwrap();
        assert_eq!(d, 0.0);
    }

    #[test]
    fn zero_radius_band_on_equal_lengths_is_lockstep_distance() {
        let x = [1.0, 5.0, 3.0];
        let y = [2.0, 4.0, 3.0];
        let d =
            dtw_constrained(&x, &y, Squared, GlobalConstraint::SakoeChiba { radius: 0 }).unwrap();
        assert_eq!(d, 1.0 + 1.0 + 0.0);
    }

    #[test]
    fn infeasible_constraint_is_reported() {
        // Radius 0 band between very different lengths still has the
        // normalized diagonal, so force infeasibility via Itakura with a
        // slope that cannot bridge the length ratio.
        let x = [1.0; 20];
        let y = [1.0, 2.0];
        let r = dtw_constrained(&x, &y, Squared, GlobalConstraint::Itakura { slope: 1.1 });
        assert_eq!(r, Err(DtwError::InfeasibleConstraint));
    }

    #[test]
    fn invalid_slope_rejected() {
        let r = dtw_constrained(
            &[1.0],
            &[1.0],
            Squared,
            GlobalConstraint::Itakura { slope: 0.5 },
        );
        assert!(matches!(r, Err(DtwError::InvalidConfig(_))));
    }
}
