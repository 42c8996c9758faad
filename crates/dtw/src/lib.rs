//! # spring-dtw — Dynamic Time Warping substrate
//!
//! Everything the SPRING algorithm (and its baselines) needs from classic
//! DTW, implemented from scratch:
//!
//! * [`kernels`] — pluggable tick-to-tick distance kernels. The paper uses
//!   the squared difference `(x - y)^2` but notes the algorithm is
//!   independent of this choice; we provide squared and absolute kernels
//!   plus a dynamic [`Kernel`] enum.
//! * [`full`] — whole-sequence DTW: `O(m)`-space distance, full-matrix
//!   variant with warping-path recovery.
//! * [`matrix`] — the dense time warping matrix used for path recovery and
//!   for the paper's worked example (Fig. 5).
//! * [`constraint`] — global warping constraints (Sakoe–Chiba band,
//!   Itakura parallelogram), behind `spring dtw --band`.
//! * [`multivariate`] — DTW over `k`-dimensional elements (Sec. 5.3).
//!
//! All distances are `f64`; all routines are deterministic and
//! allocation-conscious (the hot paths reuse two rolling columns).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod constraint;
pub mod error;
pub mod full;
pub mod kernels;
pub mod matrix;
pub mod multivariate;

pub use constraint::GlobalConstraint;
pub use error::DtwError;
pub use full::{dtw_distance, dtw_distance_with, dtw_with_path, WarpingPath};
pub use kernels::{Absolute, DistanceKernel, Kernel, Squared};
pub use matrix::WarpingMatrix;
