//! # spring — stream monitoring under the time warping distance
//!
//! Umbrella crate re-exporting the SPRING reproduction workspace:
//!
//! * [`core`] — the SPRING algorithm itself (star-padding + subsequence
//!   time warping matrix), best-match and disjoint queries, naive baselines.
//! * [`dtw`] — the Dynamic Time Warping substrate: kernels, full and
//!   constrained DTW, warping paths, multivariate DTW.
//! * [`data`] — deterministic workload generators reproducing the paper's
//!   datasets, plus dataset I/O.
//! * [`monitor`] — a multi-stream, multi-query monitoring engine.
//! * [`util`] — dependency-free support code (seeded RNG, minimal JSON).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use spring_core as core;
pub use spring_data as data;
pub use spring_dtw as dtw;
pub use spring_monitor as monitor;
pub use spring_util as util;

pub use spring_core::{Match, Spring, SpringConfig};
pub use spring_dtw::{dtw_distance, Kernel};
