//! # spring-core — SPRING: streaming subsequence matching under DTW
//!
//! Reproduction of Sakurai, Faloutsos & Yamamuro, *Stream Monitoring under
//! the Time Warping Distance* (ICDE 2007).
//!
//! SPRING finds, over an unbounded numerical stream `X`, the subsequences
//! whose DTW distance to a fixed query `Y` (length `m`) is at most a
//! threshold `ε` — reporting only the *local optimum* of each group of
//! overlapping matches (the paper's **disjoint query**, Problem 2), with
//! `O(m)` time and space per tick and no false dismissals.
//!
//! Two ideas (Sec. 3.2) collapse the naive `O(nm)`-per-tick approach into
//! a single matrix:
//!
//! 1. **Star-padding** — prefix `Y` with a "don't care" value whose
//!    distance to everything is 0, so a single warping matrix covers every
//!    possible start position (Theorem 1).
//! 2. **Subsequence Time Warping Matrix (STWM)** — each cell also carries
//!    the starting position `s(t, i)` of its best warping path, so a match
//!    is localized the moment it is detected.
//!
//! ## Quick start
//!
//! ```
//! use spring_core::{Spring, SpringConfig};
//!
//! // The worked example of the paper (Fig. 5): ε = 15.
//! let query = [11.0, 6.0, 9.0, 4.0];
//! let mut spring = Spring::new(&query, SpringConfig::new(15.0)).unwrap();
//!
//! let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
//! let mut reports = Vec::new();
//! for &x in &stream {
//!     if let Some(m) = spring.step(x) {
//!         reports.push(m);
//!     }
//! }
//! // X[2:5] (1-based, inclusive) at distance 6, reported at t = 7.
//! assert_eq!(reports.len(), 1);
//! assert_eq!((reports[0].start, reports[0].end), (2, 5));
//! assert_eq!(reports[0].distance, 6.0);
//! assert_eq!(reports[0].reported_at, 7);
//! ```
//!
//! ## Module map
//!
//! * [`arena`] — the shared immutable query arena ([`QueryArena`] /
//!   [`QueryRef`]): pattern samples and derived caches interned once
//!   and borrowed by every attached monitor.
//! * [`stwm`] — the star-padded subsequence time warping matrix stepper
//!   (two rolling columns of distances + start positions).
//! * [`spring`] — the disjoint-query monitor (paper Fig. 4).
//! * [`best`] — the best-match monitor (Problem 1, streaming form).
//! * [`monitor`] — the [`Monitor`] trait unifying every variant behind
//!   one streaming interface, plus [`MonitorSpec`]/[`ScalarMonitor`] for
//!   config-driven and mixed-variant deployments.
//! * [`path`] — SPRING(path): additionally tracks the full warping path
//!   of each reported match (the `SPRING(path)` series of Fig. 8).
//! * [`vector`] — SPRING over `k`-dimensional vector streams (Sec. 5.3).
//! * [`naive`] — the Naive baseline of Sec. 3.1.3 (one warping matrix per
//!   start position) and brute-force oracles, used for Fig. 7/8 and tests.
//! * [`stored`] — batch conveniences for finite stored sequences.
//! * [`mem`] — explicit memory accounting ([`MemoryUse`]) behind Fig. 8.

#![warn(missing_docs)]
// The one sanctioned exception to the no-unsafe rule is the explicit
// x86-64 SIMD min-select in `kernel::simd`, compiled on every x86_64
// build and carrying its own `#[allow(unsafe_code)]` + safety comments
// (UB-checked by the hosted Miri CI job). Every other module is
// `unsafe`-free.
#![deny(unsafe_code)]

pub mod arena;
pub mod best;
pub mod bounded;
pub mod error;
pub(crate) mod kernel;
pub mod mem;
pub mod monitor;
pub mod naive;
pub mod path;
pub(crate) mod policy;
pub mod slope;
pub mod snapshot;
pub mod spring;
pub mod stored;
pub mod stwm;
pub mod types;
pub mod vector;
pub mod znorm;

pub use arena::{QueryArena, QueryRef};
pub use best::BestMatch;
pub use bounded::{BoundedConfig, BoundedSpring};
pub use error::SpringError;
pub use mem::MemoryUse;
pub use monitor::{
    AsRows, FrameScan, Monitor, MonitorSpec, MonitorVariant, Row, Rows, ScalarMonitor,
};
pub use naive::NaiveMonitor;
pub use path::PathSpring;
pub use slope::SlopeLimited;
pub use snapshot::SpringSnapshot;
pub use spring::{Spring, SpringConfig};
pub use stwm::Stwm;
pub use types::Match;
pub use vector::VectorSpring;
pub use znorm::{NormalizedSpring, RollingStats};
