//! The [`Monitor`] abstraction: one streaming interface for every
//! SPRING variant.
//!
//! All of the paper's monitors — the plain disjoint query (Sec. 4), the
//! best-match query (Sec. 3.3.1), path tracking (Sec. 5.2), vector
//! streams (Sec. 5.3), streaming z-normalization, and the length/slope
//! constrained extensions — share one streaming shape:
//!
//! ```text
//! step(sample) → Option<Match>     // per tick, O(state) work
//! finish()     → Option<Match>     // end-of-stream flush
//! ```
//!
//! [`Monitor`] captures that shape so the multi-stream engine, the
//! threaded runner, and the CLI can be written **once**, generically,
//! instead of once per variant. Every frame of a stream is one flat
//! row-major `&[f64]` of rows of `k` values (k = 1 for scalars); [`Row`]
//! views the [`Monitor::Sample`] one step takes (`f64` or `[f64]`) as
//! such a row.
//!
//! For deployments that mix *variants* on one stream (e.g. a raw and a
//! z-normalized attachment side by side, paper Sec. 5.1), the
//! [`ScalarMonitor`] enum erases the variant type without boxing, and
//! [`MonitorSpec`] builds one from a plain description — the single
//! construction path used by the CLI and examples.

use std::borrow::Cow;
use std::ops::Deref;

use spring_dtw::kernels::Kernel;

use crate::bounded::{BoundedConfig, BoundedSpring};
use crate::error::SpringError;
use crate::stwm::IDLE_CHUNK;
use crate::types::Match;
use crate::{BestMatch, NormalizedSpring, PathSpring, SlopeLimited, Spring, SpringConfig};

/// Which SPRING variant a monitor (or an event it produced) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorVariant {
    /// Plain disjoint-query SPRING (paper Fig. 4).
    Spring,
    /// Best-match monitor (Problem 1; reports only at end of stream).
    Best,
    /// SPRING(path): disjoint query with warping-path recovery.
    Path,
    /// Match-length bounded disjoint query.
    Bounded,
    /// Streaming z-normalized disjoint query.
    Normalized,
    /// Slope-limited (local continuity constrained) disjoint query.
    SlopeLimited,
    /// Disjoint query over `k`-dimensional vector samples (Sec. 5.3).
    Vector,
}

impl MonitorVariant {
    /// Stable lowercase name (CLI flags, event logs).
    pub fn name(self) -> &'static str {
        match self {
            MonitorVariant::Spring => "spring",
            MonitorVariant::Best => "best",
            MonitorVariant::Path => "path",
            MonitorVariant::Bounded => "bounded",
            MonitorVariant::Normalized => "znorm",
            MonitorVariant::SlopeLimited => "slope",
            MonitorVariant::Vector => "vector",
        }
    }
}

impl std::fmt::Display for MonitorVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A sample viewed as a row of a stream's frame: `f64` is a 1-value
/// row, `[f64]` is itself.
pub trait Row {
    /// The width every sample of this type has, when the type fixes it
    /// (1 for `f64`; `None` for `[f64]`, whose width is the stream's).
    const WIDTH: Option<usize>;

    /// This sample as a row.
    fn as_row(&self) -> &[f64];

    /// The sample a row holds. A row of an `f64` stream has one value.
    fn from_row(row: &[f64]) -> &Self;
}

impl Row for f64 {
    const WIDTH: Option<usize> = Some(1);

    fn as_row(&self) -> &[f64] {
        std::slice::from_ref(self)
    }

    fn from_row(row: &[f64]) -> &f64 {
        &row[0]
    }
}

impl Row for [f64] {
    const WIDTH: Option<usize> = None;

    fn as_row(&self) -> &[f64] {
        self
    }

    fn from_row(row: &[f64]) -> &[f64] {
        row
    }
}

/// Flat row-major values read as rows of `channels` values: a query
/// pattern as an attachment's builder receives it. It dereferences to
/// the values, so a scalar builder takes it as its `&[f64]` pattern.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    /// The values, row-major.
    pub values: &'a [f64],
    /// Values per row.
    pub channels: usize,
}

impl<'a> Rows<'a> {
    /// `values` read as rows of `channels` values.
    pub fn new(values: &'a [f64], channels: usize) -> Self {
        Rows { values, channels }
    }
}

impl Deref for Rows<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.values
    }
}

/// Rows as a caller holds them. Flat values carry no width: a frame's
/// are read at its stream's width, a pattern's as one channel. Nested
/// rows (one `Vec<f64>` per row) and [`Rows`] carry theirs.
pub trait AsRows {
    /// The values, flat and row-major, and the row width when the form
    /// carries one.
    ///
    /// # Errors
    /// Nested rows of unequal widths ([`SpringError::DimensionMismatch`]).
    fn flat(&self) -> Result<(Cow<'_, [f64]>, Option<usize>), SpringError>;

    /// The rows as a query pattern: its values and its width.
    ///
    /// # Errors
    /// Ragged rows, zero channels, and an empty or non-finite pattern.
    fn pattern(&self) -> Result<(Cow<'_, [f64]>, usize), SpringError> {
        let (values, width) = self.flat()?;
        let channels = width.unwrap_or(1);
        crate::arena::check_rows(&values, channels)?;
        Ok((values, channels))
    }
}

impl AsRows for [f64] {
    fn flat(&self) -> Result<(Cow<'_, [f64]>, Option<usize>), SpringError> {
        Ok((Cow::Borrowed(self), None))
    }
}

impl<const N: usize> AsRows for [f64; N] {
    fn flat(&self) -> Result<(Cow<'_, [f64]>, Option<usize>), SpringError> {
        self.as_slice().flat()
    }
}

impl AsRows for Vec<f64> {
    fn flat(&self) -> Result<(Cow<'_, [f64]>, Option<usize>), SpringError> {
        self.as_slice().flat()
    }
}

impl AsRows for Rows<'_> {
    fn flat(&self) -> Result<(Cow<'_, [f64]>, Option<usize>), SpringError> {
        Ok((Cow::Borrowed(self.values), Some(self.channels)))
    }
}

impl AsRows for [Vec<f64>] {
    fn flat(&self) -> Result<(Cow<'_, [f64]>, Option<usize>), SpringError> {
        let expected = self.first().map_or(0, Vec::len);
        match self.iter().find(|row| row.len() != expected) {
            Some(row) => Err(SpringError::DimensionMismatch {
                expected,
                found: row.len(),
            }),
            None => Ok((Cow::Owned(self.concat()), Some(expected))),
        }
    }
}

impl AsRows for Vec<Vec<f64>> {
    fn flat(&self) -> Result<(Cow<'_, [f64]>, Option<usize>), SpringError> {
        self.as_slice().flat()
    }
}

/// A streaming subsequence monitor: consumes one sample per tick,
/// occasionally confirms a [`Match`].
///
/// Implemented by every variant in this crate ([`Spring`],
/// [`BestMatch`], [`PathSpring`], [`BoundedSpring`],
/// [`NormalizedSpring`], [`SlopeLimited`],
/// [`crate::VectorSpring`]) and by the type-erasing [`ScalarMonitor`].
///
/// # Contract
///
/// * [`step`](Monitor::step) is called once per stream tick with a
///   *present* sample; missing ticks (a row with a non-finite value)
///   are the caller's concern (gap policies live in the engine layer).
/// * [`finish`](Monitor::finish) declares end-of-stream and flushes an
///   unconfirmed pending optimum; it is idempotent — a second call
///   returns `None`.
/// * [`reset`](Monitor::reset) returns the monitor to its tick-0 state,
///   keeping the query and configuration, so one allocation can monitor
///   many streams in sequence.
pub trait Monitor {
    /// One stream sample: `f64` for scalar monitors, `[f64]` for vector
    /// monitors.
    type Sample: ?Sized + Row;

    /// Which variant this monitor is (tags engine events).
    fn variant(&self) -> MonitorVariant;

    /// Consumes the next sample; returns a confirmed match, if any.
    ///
    /// # Errors
    /// Non-finite samples and (for vector monitors) dimension mismatches
    /// are rejected without mutating monitor state.
    fn step(&mut self, sample: &Self::Sample) -> Result<Option<Match>, SpringError>;

    /// Consumes a batch of samples, a flat frame of
    /// [`channels`](Monitor::channels) values per tick, appending every
    /// confirmed match to `out` in tick order. Semantically identical
    /// to calling [`step`](Monitor::step) once per row — a batch of one
    /// is the per-sample path — but implementations may override it to
    /// hoist per-step invariant loads (ε, `m`, band bounds) out of the
    /// loop and amortize dispatch, writing into the caller-owned buffer
    /// so the steady state performs **no per-tick allocation**.
    ///
    /// A match's [`Match::reported_at`] is the [`tick`](Monitor::tick)
    /// of the sample that confirmed it; the frame-at-a-time engine and
    /// runner use it to put each match back in its place in the frame.
    ///
    /// # Errors
    /// On the first invalid sample the error is returned immediately:
    /// samples before it are fully consumed (their confirmed matches are
    /// already in `out`), the failing sample does not mutate state, and
    /// samples after it are not consumed — exactly the state a
    /// per-sample loop would leave behind. A trailing short row fails
    /// as a row of the wrong width.
    fn step_batch(&mut self, samples: &[f64], out: &mut Vec<Match>) -> Result<(), SpringError> {
        for row in samples.chunks(self.channels()) {
            out.extend(self.step(Self::Sample::from_row(row))?);
        }
        Ok(())
    }

    /// [`step_batch`](Monitor::step_batch) over `run`, a run of present
    /// rows that starts at row `at` of a frame described by `scan`. A
    /// monitor may take what the scan already knows instead of scanning
    /// the run again. The default is `step_batch`.
    ///
    /// # Errors
    /// As [`step_batch`](Monitor::step_batch).
    fn step_run(
        &mut self,
        run: &[f64],
        at: usize,
        scan: &FrameScan,
        out: &mut Vec<Match>,
    ) -> Result<(), SpringError> {
        let _ = (at, scan);
        self.step_batch(run, out)
    }

    /// Consumes the whole `frame` described by `scan` at once, without
    /// stepping it, when the monitor can show that no sample of it
    /// changes anything but its clock and idle state, and returns true;
    /// returns false and consumes nothing otherwise. The engine asks
    /// once per frame and attachment, before
    /// [`step_run`](Monitor::step_run); the monitor's state afterwards
    /// must be the one `step_run` over the frame would leave. The
    /// default shows nothing.
    fn skip_frame(&mut self, frame: &[f64], scan: &FrameScan) -> bool {
        let _ = (frame, scan);
        false
    }

    /// Declares end-of-stream; flushes a pending optimum. Idempotent.
    fn finish(&mut self) -> Option<Match>;

    /// Query length `m`.
    fn query_len(&self) -> usize;

    /// The threshold `ε`, or `None` for threshold-free monitors
    /// ([`BestMatch`]).
    fn epsilon(&self) -> Option<f64>;

    /// Current 1-based tick (samples consumed so far).
    fn tick(&self) -> u64;

    /// Bytes of live algorithmic state (see [`crate::mem::MemoryUse`]).
    fn memory_use(&self) -> usize;

    /// Number of live DTW state cells — the quantity the paper's
    /// Theorem 2 bounds by `O(m)` per (stream, query) pair. The default
    /// derives it from [`memory_use`](Monitor::memory_use) at one
    /// `f64`-sized cell each; observability layers export it as a live
    /// gauge to verify the constant-space claim in deployments.
    fn memory_cells(&self) -> usize {
        self.memory_use() / std::mem::size_of::<f64>()
    }

    /// Returns the monitor to its initial (tick 0) state, keeping the
    /// query and configuration.
    fn reset(&mut self);

    /// Channels this monitor expects per sample (1 for scalar
    /// monitors).
    fn channels(&self) -> usize {
        1
    }

    /// Cells of *shared* arena state this monitor borrows (the pattern
    /// samples in a [`crate::QueryRef`]); 0 for
    /// monitors that own a private copy. Fleet accounting counts these
    /// once per [`query_fingerprint`](Monitor::query_fingerprint), not
    /// once per attachment.
    fn shared_memory_cells(&self) -> usize {
        0
    }

    /// Stable content fingerprint of the shared query entry backing
    /// this monitor, or `None` when the pattern is privately owned.
    /// Two monitors with equal fingerprints borrow identical patterns.
    fn query_fingerprint(&self) -> Option<u64> {
        None
    }

    /// Query generation this monitor reflects; bumped by the fleet-wide
    /// hot-swap path. Monitors without swap support report 0.
    fn generation(&self) -> u64 {
        0
    }

    /// Tags the monitor with a query generation after a hot-swap
    /// rebuild. A no-op for monitors without swap support.
    fn set_generation(&mut self, _generation: u64) {}
}

/// What one pass over a stream's frame tells every monitor attached to
/// the stream: the rows that hold a missing (non-finite) value and, for
/// a frame of one channel, the `(min, max)` of each chunk the idle skip
/// tests at once and of the whole frame. The engine and the runner
/// workers fill one per frame ([`FrameScan::scan`]) and hand it to
/// every attachment's [`Monitor::skip_frame`] and
/// [`Monitor::step_run`], so a fact of the frame is found once, not
/// once per attachment.
#[derive(Debug, Default)]
pub struct FrameScan {
    /// Offsets of the missing rows, ascending.
    missing: Vec<usize>,
    /// `(min, max)` of each frame-aligned chunk; empty unless the frame
    /// has one channel. A chunk that holds a missing sample is never
    /// tested by its range.
    pub(crate) ranges: Vec<(f64, f64)>,
    /// `(min, max)` of the whole frame, folded from `ranges`; `None`
    /// unless a non-empty frame of one channel was scanned.
    pub(crate) range: Option<(f64, f64)>,
}

impl FrameScan {
    /// Offsets of the frame's missing rows, ascending.
    pub fn missing(&self) -> &[usize] {
        &self.missing
    }

    /// Scans `frame`, flat rows of `channels` values: its missing rows
    /// and, for one channel, each chunk's range and the frame's, in one
    /// pass.
    pub fn scan(&mut self, frame: &[f64], channels: usize) {
        self.ranges.clear();
        self.missing.clear();
        self.range = None;
        if channels > 1 {
            let rows = frame.chunks_exact(channels).enumerate();
            let bad = rows.filter(|(_, row)| row.iter().any(|x| !x.is_finite()));
            self.missing.extend(bad.map(|(i, _)| i));
            return;
        }
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (c, chunk) in frame.chunks(IDLE_CHUNK).enumerate() {
            let (mut lo, mut hi, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, true);
            for &x in chunk {
                (lo, hi, finite) = (lo.min(x), hi.max(x), finite & x.is_finite());
            }
            (min, max) = (min.min(lo), max.max(hi));
            self.ranges.push((lo, hi));
            if !finite {
                let bad = chunk.iter().enumerate().filter(|(_, x)| !x.is_finite());
                self.missing.extend(bad.map(|(i, _)| c * IDLE_CHUNK + i));
            }
        }
        self.range = (!frame.is_empty()).then_some((min, max));
    }
}

/// A description of a scalar monitor, buildable against any query — the
/// single construction path for CLIs, config files, and examples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MonitorSpec {
    /// Plain disjoint query with threshold `epsilon`.
    Spring {
        /// Distance threshold `ε`.
        epsilon: f64,
    },
    /// Best-match query (no threshold; reports at end of stream).
    Best,
    /// Disjoint query with warping-path tracking (the path itself is
    /// available through [`PathSpring`]'s inherent API; the [`Monitor`]
    /// interface reports positions only).
    Path {
        /// Distance threshold `ε`.
        epsilon: f64,
    },
    /// Length-bounded disjoint query.
    Bounded {
        /// Distance threshold `ε`.
        epsilon: f64,
        /// Smallest reportable match length (ticks, ≥ 1).
        min_len: u64,
        /// Largest allowed match length (ticks).
        max_len: u64,
    },
    /// Streaming z-normalized disjoint query.
    Normalized {
        /// Distance threshold `ε` (in z-score space).
        epsilon: f64,
        /// Sliding normalization window (samples, ≥ 2).
        window: usize,
    },
    /// Slope-limited disjoint query.
    SlopeLimited {
        /// Distance threshold `ε`.
        epsilon: f64,
        /// Maximum run of consecutive non-diagonal moves (≥ 1).
        max_run: usize,
    },
}

impl MonitorSpec {
    /// The variant this spec builds.
    pub fn variant(&self) -> MonitorVariant {
        match self {
            MonitorSpec::Spring { .. } => MonitorVariant::Spring,
            MonitorSpec::Best => MonitorVariant::Best,
            MonitorSpec::Path { .. } => MonitorVariant::Path,
            MonitorSpec::Bounded { .. } => MonitorVariant::Bounded,
            MonitorSpec::Normalized { .. } => MonitorVariant::Normalized,
            MonitorSpec::SlopeLimited { .. } => MonitorVariant::SlopeLimited,
        }
    }

    /// Builds the described monitor over `query` with a runtime-selected
    /// kernel.
    ///
    /// # Errors
    /// Propagates the variant's constructor validation (empty query,
    /// invalid epsilon/bounds/window).
    pub fn build(&self, query: &[f64], kernel: Kernel) -> Result<ScalarMonitor, SpringError> {
        Ok(match *self {
            MonitorSpec::Spring { epsilon } => ScalarMonitor::Spring(Spring::with_kernel(
                query,
                SpringConfig::new(epsilon),
                kernel,
            )?),
            MonitorSpec::Best => ScalarMonitor::Best(BestMatch::with_kernel(query, kernel)?),
            MonitorSpec::Path { epsilon } => ScalarMonitor::Path(PathSpring::with_kernel(
                query,
                SpringConfig::new(epsilon),
                kernel,
            )?),
            MonitorSpec::Bounded {
                epsilon,
                min_len,
                max_len,
            } => ScalarMonitor::Bounded(BoundedSpring::with_kernel(
                query,
                BoundedConfig::new(epsilon, min_len, max_len),
                kernel,
            )?),
            MonitorSpec::Normalized { epsilon, window } => ScalarMonitor::Normalized(
                NormalizedSpring::with_kernel(query, epsilon, window, kernel)?,
            ),
            MonitorSpec::SlopeLimited { epsilon, max_run } => ScalarMonitor::SlopeLimited(
                SlopeLimited::with_kernel(query, epsilon, max_run, kernel)?,
            ),
        })
    }

    /// Like [`MonitorSpec::build`], but over a shared arena entry:
    /// variants whose state machine runs on the raw pattern
    /// ([`Spring`]) or its cached z-normalized form
    /// ([`NormalizedSpring`]) borrow the entry instead of copying it,
    /// so attaching one query to N streams stores the pattern once.
    /// The remaining variants keep private state (paths,
    /// length/slope bookkeeping) and fall back to a fresh copy —
    /// results are bit-identical to [`MonitorSpec::build`] either way.
    ///
    /// # Errors
    /// Propagates the variant's constructor validation.
    pub fn build_shared(
        &self,
        query: &std::sync::Arc<crate::QueryRef>,
        kernel: Kernel,
    ) -> Result<ScalarMonitor, SpringError> {
        Ok(match *self {
            MonitorSpec::Spring { epsilon } => ScalarMonitor::Spring(Spring::with_query_ref(
                std::sync::Arc::clone(query),
                SpringConfig::new(epsilon),
                kernel,
            )?),
            MonitorSpec::Normalized { epsilon, window } => {
                ScalarMonitor::Normalized(NormalizedSpring::with_query_ref(
                    std::sync::Arc::clone(query),
                    epsilon,
                    window,
                    kernel,
                )?)
            }
            _ => self.build(query.samples(), kernel)?,
        })
    }
}

/// A scalar monitor of any variant, without boxing: enables
/// mixed-variant deployments (raw + z-normalized attachments on one
/// stream) in a single generic engine or runner.
#[derive(Debug, Clone)]
pub enum ScalarMonitor {
    /// Plain disjoint query.
    Spring(Spring<Kernel>),
    /// Best-match query.
    Best(BestMatch<Kernel>),
    /// Path-tracking disjoint query (paths dropped at this interface).
    Path(PathSpring<Kernel>),
    /// Length-bounded disjoint query.
    Bounded(BoundedSpring<Kernel>),
    /// Streaming z-normalized disjoint query.
    Normalized(NormalizedSpring<Kernel>),
    /// Slope-limited disjoint query.
    SlopeLimited(SlopeLimited<Kernel>),
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            ScalarMonitor::Spring($inner) => $body,
            ScalarMonitor::Best($inner) => $body,
            ScalarMonitor::Path($inner) => $body,
            ScalarMonitor::Bounded($inner) => $body,
            ScalarMonitor::Normalized($inner) => $body,
            ScalarMonitor::SlopeLimited($inner) => $body,
        }
    };
}

impl Monitor for ScalarMonitor {
    type Sample = f64;

    fn variant(&self) -> MonitorVariant {
        dispatch!(self, m => m.variant())
    }

    fn step(&mut self, sample: &f64) -> Result<Option<Match>, SpringError> {
        dispatch!(self, m => Monitor::step(m, sample))
    }

    fn step_batch(&mut self, samples: &[f64], out: &mut Vec<Match>) -> Result<(), SpringError> {
        // One dispatch per *batch*: reaches the variant's optimized
        // override (Spring, NormalizedSpring) or its default loop.
        dispatch!(self, m => Monitor::step_batch(m, samples, out))
    }

    fn step_run(
        &mut self,
        run: &[f64],
        at: usize,
        scan: &FrameScan,
        out: &mut Vec<Match>,
    ) -> Result<(), SpringError> {
        dispatch!(self, m => Monitor::step_run(m, run, at, scan, out))
    }

    fn skip_frame(&mut self, frame: &[f64], scan: &FrameScan) -> bool {
        dispatch!(self, m => Monitor::skip_frame(m, frame, scan))
    }

    fn finish(&mut self) -> Option<Match> {
        dispatch!(self, m => Monitor::finish(m))
    }

    fn query_len(&self) -> usize {
        dispatch!(self, m => Monitor::query_len(m))
    }

    fn epsilon(&self) -> Option<f64> {
        dispatch!(self, m => Monitor::epsilon(m))
    }

    fn tick(&self) -> u64 {
        dispatch!(self, m => Monitor::tick(m))
    }

    fn memory_use(&self) -> usize {
        dispatch!(self, m => Monitor::memory_use(m))
    }

    fn memory_cells(&self) -> usize {
        dispatch!(self, m => Monitor::memory_cells(m))
    }

    fn shared_memory_cells(&self) -> usize {
        dispatch!(self, m => Monitor::shared_memory_cells(m))
    }

    fn query_fingerprint(&self) -> Option<u64> {
        dispatch!(self, m => Monitor::query_fingerprint(m))
    }

    fn generation(&self) -> u64 {
        dispatch!(self, m => Monitor::generation(m))
    }

    fn set_generation(&mut self, generation: u64) {
        dispatch!(self, m => Monitor::set_generation(m, generation))
    }

    fn reset(&mut self) {
        dispatch!(self, m => Monitor::reset(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUERY: [f64; 4] = [11.0, 6.0, 9.0, 4.0];
    const STREAM: [f64; 7] = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];

    fn all_specs() -> Vec<MonitorSpec> {
        vec![
            MonitorSpec::Spring { epsilon: 15.0 },
            MonitorSpec::Best,
            MonitorSpec::Path { epsilon: 15.0 },
            MonitorSpec::Bounded {
                epsilon: 15.0,
                min_len: 1,
                max_len: 100,
            },
            MonitorSpec::Normalized {
                epsilon: 15.0,
                window: 4,
            },
            MonitorSpec::SlopeLimited {
                epsilon: 15.0,
                max_run: 8,
            },
        ]
    }

    #[test]
    fn every_spec_builds_and_reports_its_variant() {
        for spec in all_specs() {
            let m = spec.build(&QUERY, Kernel::Squared).unwrap();
            assert_eq!(m.variant(), spec.variant(), "{spec:?}");
            assert_eq!(m.query_len(), QUERY.len());
            assert_eq!(m.tick(), 0);
            assert!(m.memory_use() > 0);
            assert!(
                m.memory_cells() > 0 && m.memory_cells() <= m.memory_use(),
                "{spec:?}"
            );
            assert_eq!(m.channels(), 1);
        }
    }

    #[test]
    fn trait_driven_spring_reproduces_the_paper_example() {
        let mut m = MonitorSpec::Spring { epsilon: 15.0 }
            .build(&QUERY, Kernel::Squared)
            .unwrap();
        let mut hits = Vec::new();
        for x in STREAM {
            hits.extend(Monitor::step(&mut m, &x).unwrap());
        }
        hits.extend(Monitor::finish(&mut m));
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].start, hits[0].end, hits[0].distance), (2, 5, 6.0));
    }

    #[test]
    fn reset_makes_runs_repeatable_for_every_variant() {
        for spec in all_specs() {
            let mut m = spec.build(&QUERY, Kernel::Squared).unwrap();
            let run = |m: &mut ScalarMonitor| {
                let mut hits = Vec::new();
                for x in STREAM {
                    hits.extend(Monitor::step(m, &x).unwrap());
                }
                hits.extend(Monitor::finish(m));
                hits
            };
            let first = run(&mut m);
            Monitor::reset(&mut m);
            assert_eq!(Monitor::tick(&m), 0, "{spec:?}");
            let second = run(&mut m);
            assert_eq!(first, second, "{spec:?}");
        }
    }

    #[test]
    fn finish_is_idempotent_through_the_trait() {
        for spec in all_specs() {
            let mut m = spec.build(&QUERY, Kernel::Squared).unwrap();
            for x in STREAM {
                Monitor::step(&mut m, &x).unwrap();
            }
            let _ = Monitor::finish(&mut m);
            assert_eq!(Monitor::finish(&mut m), None, "{spec:?}");
        }
    }

    #[test]
    fn best_match_reports_only_at_finish() {
        let mut m = MonitorSpec::Best.build(&QUERY, Kernel::Squared).unwrap();
        for x in STREAM {
            assert_eq!(Monitor::step(&mut m, &x).unwrap(), None);
        }
        assert_eq!(Monitor::epsilon(&m), None);
        let best = Monitor::finish(&mut m).expect("non-empty stream has a best");
        assert_eq!((best.start, best.end, best.distance), (2, 5, 6.0));
    }

    #[test]
    fn non_finite_samples_are_rejected_without_state_change() {
        for spec in all_specs() {
            let mut m = spec.build(&QUERY, Kernel::Squared).unwrap();
            Monitor::step(&mut m, &1.0).unwrap();
            let tick = Monitor::tick(&m);
            assert!(Monitor::step(&mut m, &f64::NAN).is_err(), "{spec:?}");
            assert_eq!(Monitor::tick(&m), tick, "{spec:?}");
        }
    }

    #[test]
    fn variant_names_are_stable() {
        assert_eq!(MonitorVariant::Spring.name(), "spring");
        assert_eq!(MonitorVariant::Normalized.to_string(), "znorm");
        assert_eq!(MonitorVariant::Vector.name(), "vector");
    }

    #[test]
    fn step_batch_agrees_with_per_sample_for_every_variant_and_batch_size() {
        // A longer stream with a planted pattern so every variant does
        // real work (Normalized needs to clear its warmup window).
        let mut stream: Vec<f64> = (0..40)
            .map(|i| ((i as f64) * 0.9).sin() * 6.0 + 7.0)
            .collect();
        stream.extend([11.0, 6.0, 9.0, 4.0]);
        stream.extend((0..40).map(|i| ((i as f64) * 0.9).cos() * 6.0 + 7.0));
        for spec in all_specs() {
            let mut per_sample = spec.build(&QUERY, Kernel::Squared).unwrap();
            let mut expect = Vec::new();
            for &x in &stream {
                expect.extend(Monitor::step(&mut per_sample, &x).unwrap());
            }
            expect.extend(Monitor::finish(&mut per_sample));
            for batch in [1usize, 3, 7, 64, stream.len()] {
                let mut batched = spec.build(&QUERY, Kernel::Squared).unwrap();
                let mut got = Vec::new();
                for chunk in stream.chunks(batch) {
                    Monitor::step_batch(&mut batched, chunk, &mut got).unwrap();
                }
                got.extend(Monitor::finish(&mut batched));
                assert_eq!(got, expect, "{spec:?} batch={batch}");
                assert_eq!(
                    Monitor::tick(&batched),
                    Monitor::tick(&per_sample),
                    "{spec:?} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn step_batch_errors_at_the_same_sample_as_per_sample() {
        // NaN mid-batch: matches confirmed before it stay in `out`, the
        // failing sample consumes no tick, and the error tick is the one
        // the per-sample path would report.
        for spec in all_specs() {
            let mut m = spec.build(&QUERY, Kernel::Squared).unwrap();
            let batch = [5.0, 12.0, f64::NAN, 10.0];
            let mut out = Vec::new();
            let err = Monitor::step_batch(&mut m, &batch, &mut out).unwrap_err();
            assert_eq!(Monitor::tick(&m), 2, "{spec:?}: two samples consumed");
            match err {
                crate::error::SpringError::NonFiniteInput { tick } => {
                    assert_eq!(tick, 3, "{spec:?}")
                }
                other => panic!("{spec:?}: unexpected error {other:?}"),
            }
            // The remaining valid samples were NOT consumed.
            Monitor::step_batch(&mut m, &[10.0], &mut out).unwrap();
            assert_eq!(Monitor::tick(&m), 3, "{spec:?}");
        }
    }

    #[test]
    fn step_batch_with_empty_slice_is_a_no_op() {
        for spec in all_specs() {
            let mut m = spec.build(&QUERY, Kernel::Squared).unwrap();
            let mut out = Vec::new();
            Monitor::step_batch(&mut m, &[], &mut out).unwrap();
            assert_eq!(Monitor::tick(&m), 0, "{spec:?}");
            assert!(out.is_empty());
        }
    }

    #[test]
    fn a_frame_scan_finds_missing_samples_and_chunk_ranges_in_one_pass() {
        let mut frame: Vec<f64> = (0..19).map(|i| i as f64).collect();
        frame[3] = f64::NAN;
        frame[17] = f64::NEG_INFINITY;
        let mut scan = FrameScan::default();
        scan.scan(&frame, 1);
        assert_eq!(scan.missing(), &[3, 17]);
        // Three chunks of 8, 8 and 3; a NaN does not narrow a range.
        assert_eq!(scan.ranges[..2], [(0.0, 7.0), (8.0, 15.0)]);
        assert_eq!(scan.ranges[2].1, 18.0);
        // Read as rows of two, the same values miss rows 1 and 8 (the
        // odd value out is no row) and have no ranges.
        scan.scan(&frame, 2);
        assert_eq!((scan.missing(), &scan.ranges[..]), (&[1, 8][..], &[][..]));
        assert_eq!(scan.range, None);
        // The frame's range is folded from the chunks'.
        let mut whole = frame.clone();
        whole[17] = 17.0;
        scan.scan(&whole, 1);
        assert_eq!(scan.range, Some((0.0, 18.0)));
        scan.scan(&[], 1);
        assert!(scan.missing().is_empty() && scan.ranges.is_empty());
        assert_eq!(scan.range, None);
    }

    #[test]
    fn samples_are_rows_and_rows_flatten() {
        assert_eq!((2.5).as_row(), &[2.5]);
        assert_eq!(f64::from_row(&[2.5]), &2.5);
        assert_eq!(<[f64]>::from_row(&[1.0, 2.0]).as_row(), &[1.0, 2.0]);
        let nested = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let (values, width) = nested.flat().unwrap();
        assert_eq!((&values[..], width), (&[1.0, 2.0, 3.0, 4.0][..], Some(2)));
        assert_eq!([1.0, 2.0].flat().unwrap().1, None);
        assert_eq!(Rows::new(&[1.0, 2.0], 2).pattern().unwrap().1, 2);
        assert!(matches!(
            vec![vec![1.0, 2.0], vec![3.0]].flat(),
            Err(SpringError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(Rows::new(&[1.0, 2.0, 3.0], 2).pattern().is_err());
        assert!(vec![f64::NAN].pattern().is_err());
    }
}
