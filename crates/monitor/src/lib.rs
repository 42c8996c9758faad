//! # spring-monitor — multi-stream, multi-query monitoring on SPRING
//!
//! The paper's motivating setting (Sec. 1, Sec. 5.3) is *monitoring
//! multiple numerical streams*: many sensors, each watched for many
//! patterns. This crate operationalizes that, generically over any
//! [`spring_core::Monitor`] variant:
//!
//! * [`engine`] — a single-threaded [`Engine`]`<M>`: register streams and
//!   queries, attach any query to any stream with its own threshold, push
//!   values, receive [`Event`]s tagged with the reporting variant.
//!   Handles missing values (sensor dropouts) per attachment via a
//!   [`GapPolicy`]. Ready-made instantiations: [`SpringEngine`] (plain
//!   scalar SPRING), [`MixedEngine`] (mixed variants via
//!   [`spring_core::MonitorSpec`]), [`VectorEngine`] (Sec. 5.3 vector
//!   streams).
//! * [`sink`] — pluggable match consumers: collect into a vector, call a
//!   closure, forward over a channel, or count atomically
//!   ([`CountingSink`]).
//! * [`runner`] — a threaded [`Runner`]`<M>`: one set of worker
//!   threads, each stream placed on one worker by a deterministic FNV-1a
//!   hash of its id, for deployments where one core cannot sustain
//!   `streams × queries × O(m)` per tick. Each worker owns its streams'
//!   pending frames, checkpoints, supervision and backpressure, so
//!   pushes to streams on different workers share no lock. Worker
//!   failures surface as [`MonitorError::WorkerLost`] instead of silent
//!   sample loss; attachments can be added and removed at runtime. The
//!   runner keeps no timer: a caller that owns a slow input calls
//!   [`Runner::flush`] when that input drains, so a partial frame's
//!   matches are reported without waiting for the frame to fill.
//! * [`metrics`] — dependency-free observability: atomic counters,
//!   gauges, and fixed-bucket histograms behind a shared [`Metrics`]
//!   registry (tick latency, match counts, detection delay, queue
//!   depth, live memory), snapshottable as a [`MetricsSnapshot`] or as
//!   Prometheus text exposition.
//! * [`trace`] — structured tracing + flight recorder: lock-free
//!   per-thread event rings holding typed spans and instants with
//!   nanosecond timestamps, exportable as Chrome trace-event JSON and
//!   dumped automatically on worker loss. Compiled into every build
//!   and off until a tracer is created at run time.
//! * [`probe`] — one [`Probe`] per recording thread: the one hook
//!   through which it writes each event to the registry and the ring,
//!   whichever it holds, with one sampling decision per frame.
//!
//! Per-tick cost per attachment is `O(m)` and memory is `O(m)` — SPRING's
//! guarantees are preserved independently for every (stream, query) pair,
//! and the metrics layer makes both claims observable in deployments.

#![warn(missing_docs)]
// The one sanctioned exception to the no-unsafe rule is the reactor's
// raw syscall shim module (`reactor::sys`), compiled on Unix targets and
// carrying its own `#[allow(unsafe_code)]` — the same discipline as
// spring-core's `kernel::simd`. Every other module is `unsafe`-free.
#![deny(unsafe_code)]

pub mod engine;
#[cfg(feature = "failpoints")]
pub mod failpoints;
pub mod metrics;
pub mod probe;
#[cfg(unix)]
pub mod reactor;
pub mod runner;
pub mod sink;
pub mod trace;

/// Evaluates a named fault-injection site (see [`failpoints`]).
///
/// * `fail_point!("site")` — fires `Panic`/`Delay` actions in place.
/// * `fail_point!("site", err)` — additionally `return Err(err)` when an
///   `Error` action fires.
///
/// Without the `failpoints` feature both forms expand to **nothing**:
/// no branch, no call, no overhead on the hot paths.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        let _ = $crate::failpoints::eval($site);
    };
    ($site:expr, $err:expr) => {
        if $crate::failpoints::eval($site).is_some() {
            return Err($err);
        }
    };
}

/// Evaluates a named fault-injection site (no-op: the `failpoints`
/// feature is disabled, so sites compile to nothing).
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {};
    ($site:expr, $err:expr) => {};
}

pub use engine::{
    AttachmentId, Engine, Event, GapPolicy, MixedEngine, MonitorError, Owned, QueryId,
    SpringEngine, StreamId, VectorEngine, VectorEvent,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot, ShardMetrics,
    ShardSnapshot,
};
pub use probe::Probe;
pub use runner::{
    RestartPolicy, Runner, RunnerAttachment, ShardedRunner, CHECKPOINT_EVERY, DEFAULT_MAX_BATCH,
};
pub use sink::{ChannelSink, CountingSink, FnSink, MatchSink, VecSink};
pub use trace::{EventKind as TraceEventKind, TraceSnapshot, Tracer};
