//! Tick-to-tick distance kernels.
//!
//! Equation (1) of the paper uses `‖x − y‖ = (x − y)²` but remarks that
//! "any other choice (say, absolute difference) would be fine; our
//! algorithms are completely independent of such choices". We encode that
//! independence as the [`DistanceKernel`] trait: every DTW routine and the
//! SPRING state machine are generic over it, and the property-test suite
//! checks the SPRING = naive equivalences under both built-in kernels.

/// A non-negative distance between two scalar samples.
///
/// Implementations must satisfy, for all finite `a`, `b`:
///
/// * `dist(a, b) >= 0.0`
/// * `dist(a, a) == 0.0`
/// * `dist(a, b) == dist(b, a)`
/// * `dist(x, b)` is monotone in `x` on each side of `b`: non-increasing
///   for `x ≤ b`, non-decreasing for `x ≥ b`
///
/// The first three are exactly the properties the correctness proofs of
/// the paper rely on (non-negativity makes the star row the
/// unconditional minimum of column 0, which is what makes star-padding
/// sound). Monotonicity lets the idle skip prove a whole chunk of
/// samples farther than ε from `y_1` from the chunk's end nearest
/// `y_1`. Both built-in kernels keep it after rounding, since rounded
/// subtraction, `abs` and squaring are monotone.
pub trait DistanceKernel: Copy + Send + Sync + 'static {
    /// Distance between two samples.
    fn dist(&self, x: f64, y: f64) -> f64;

    /// Human-readable kernel name (used in bench output).
    fn name(&self) -> &'static str;
}

/// Squared difference `(x − y)²` — the paper's default kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Squared;

impl DistanceKernel for Squared {
    #[inline(always)]
    fn dist(&self, x: f64, y: f64) -> f64 {
        let d = x - y;
        d * d
    }

    fn name(&self) -> &'static str {
        "squared"
    }
}

/// Absolute difference `|x − y|`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Absolute;

impl DistanceKernel for Absolute {
    #[inline(always)]
    fn dist(&self, x: f64, y: f64) -> f64 {
        (x - y).abs()
    }

    fn name(&self) -> &'static str {
        "absolute"
    }
}

/// Dynamically selected kernel, for callers that pick a kernel at runtime
/// (configuration files, CLI flags). Monomorphized call sites should prefer
/// the unit structs [`Squared`] / [`Absolute`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Kernel {
    /// `(x − y)²`.
    #[default]
    Squared,
    /// `|x − y|`.
    Absolute,
}

impl DistanceKernel for Kernel {
    #[inline(always)]
    fn dist(&self, x: f64, y: f64) -> f64 {
        match self {
            Kernel::Squared => Squared.dist(x, y),
            Kernel::Absolute => Absolute.dist(x, y),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Kernel::Squared => "squared",
            Kernel::Absolute => "absolute",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_axioms<K: DistanceKernel>(k: K) {
        let samples = [-3.5, -1.0, 0.0, 0.25, 2.0, 100.0];
        for &a in &samples {
            assert_eq!(k.dist(a, a), 0.0, "identity for {}", k.name());
            for &b in &samples {
                let d = k.dist(a, b);
                assert!(d >= 0.0, "non-negativity for {}", k.name());
                assert_eq!(d, k.dist(b, a), "symmetry for {}", k.name());
            }
        }
        // Monotone on each side of `b`, across magnitudes where the
        // squared kernel rounds coarsely or overflows to +∞.
        let grid = [
            -1e200, -1e154, -3.0, -1.0, -0.0, 0.0, 1e-300, 2.0, 1e154, 1e200,
        ];
        for &b in &grid {
            for w in grid.windows(2) {
                let (x0, x1) = (w[0], w[1]);
                if x1 <= b {
                    assert!(k.dist(x0, b) >= k.dist(x1, b), "{} left of {b}", k.name());
                }
                if x0 >= b {
                    assert!(k.dist(x0, b) <= k.dist(x1, b), "{} right of {b}", k.name());
                }
            }
        }
    }

    #[test]
    fn squared_axioms() {
        kernel_axioms(Squared);
    }

    #[test]
    fn absolute_axioms() {
        kernel_axioms(Absolute);
    }

    #[test]
    fn enum_matches_unit_structs() {
        for (a, b) in [(1.0, 4.0), (-2.0, 2.5), (0.0, 0.0)] {
            assert_eq!(Kernel::Squared.dist(a, b), Squared.dist(a, b));
            assert_eq!(Kernel::Absolute.dist(a, b), Absolute.dist(a, b));
        }
    }

    #[test]
    fn squared_values() {
        assert_eq!(Squared.dist(5.0, 11.0), 36.0);
        assert_eq!(Squared.dist(12.0, 11.0), 1.0);
    }

    #[test]
    fn absolute_values() {
        assert_eq!(Absolute.dist(5.0, 11.0), 6.0);
        assert_eq!(Absolute.dist(12.0, 11.0), 1.0);
    }
}
