//! Dependency-free observability for the monitoring stack.
//!
//! The paper's headline claim is constant `O(m)` time and space per tick
//! (Theorem 2); this module makes that claim *observable* in a running
//! deployment instead of only in offline benches. It provides the three
//! Prometheus-style primitives — [`Counter`], [`Gauge`], and a
//! fixed-bucket [`Histogram`] — built purely on `std` atomics (the repo
//! carries no external dependencies), plus:
//!
//! * [`Metrics`] — the registry threaded through [`crate::Engine`],
//!   [`crate::Runner`], `spring serve`, and `spring monitor --stats`.
//!   Each recording thread writes to it through its [`crate::Probe`],
//!   which counts ticks and missing samples once per frame, each match
//!   once, and times one frame per [`LATENCY_SAMPLE_EVERY`] stream
//!   ticks.
//! * [`MetricsSnapshot`] — a consistent point-in-time read, renderable
//!   as Prometheus text exposition ([`MetricsSnapshot::to_prometheus`])
//!   or as a human summary table ([`MetricsSnapshot::render_table`]).
//!
//! # Metric inventory
//!
//! | name | type | unit | meaning |
//! |---|---|---|---|
//! | `spring_ticks_total` | counter | samples | attachment-ticks ingested |
//! | `spring_matches_total` | counter | matches | confirmed matches (incl. end-of-stream flushes) |
//! | `spring_missing_samples_total` | counter | samples | NaN/non-finite readings seen |
//! | `spring_tick_latency_seconds` | histogram | seconds | time per attachment-tick, sampled: one timed frame per 64 stream ticks per engine or worker (a one-sample `Engine::push` is a frame too), observed as the frame's time over its attachment-ticks |
//! | `spring_detection_delay_ticks` | histogram | ticks | `t_confirm − t_e` per match (paper "output time") |
//! | `spring_memory_bytes` | gauge | bytes | live algorithmic state across monitors (DP columns and lane scratch) |
//! | `spring_memory_cells` | gauge | cells | live DTW cells — the `O(m)` quantity of Theorem 2 (DP columns only, no frames) |
//! | `spring_query_swaps_total` | counter | swaps | fleet-wide query hot-swaps applied |
//! | `spring_query_generation` | gauge | generation | latest query generation published by a hot-swap |
//! | `spring_batch_len` | histogram | samples | frame sizes seen by the batched ingestion path |
//! | `spring_worker_lost_total` | counter | workers | runner workers lost (panic or ingest error) |
//! | `spring_worker_restarts_total` | counter | workers | lost workers restarted by the runner supervisor |
//! | `spring_runner_queue_depth` | gauge | messages | queued messages across all runner workers (sum of the shard gauges) |
//! | `spring_shard_ticks_total{shard=…}` | counter | samples | samples processed by runner worker `shard` |
//! | `spring_shard_queue_depth{shard=…}` | gauge | messages | messages queued to runner worker `shard` |
//! | `spring_shard_restarts_total{shard=…}` | counter | workers | supervisor restarts of runner worker `shard` |
//! | `spring_shard_messages_total{shard=…}` | counter | messages | messages sent to runner worker `shard` (replays not counted) |
//!
//! A runner worker is labelled `shard` because it owns a hash partition
//! of the streams: `--shards N` spawns `N` workers.
//!
//! # Overhead budget
//!
//! The budget is 5% of the ingest path. The exact counters are relaxed
//! atomic increments (single-digit ns); the latency histogram is fed
//! only on timed frames, and a memory gauge is written only when a
//! monitor's share changed. Every path records a frame once for all of
//! its attachments, not once per attachment; a per-sample
//! `Engine::push` is a one-sample frame.
//! The `metrics_overhead` bench measures both paths as off/on pairs in
//! 15 interleaved rounds, summarized as the median of the per-round
//! on/off ratio. Six full runs on a shared 2-vCPU x86-64 host read
//! `engine_push_batch_q32` (32 attachments, 64-sample frames through
//! `Engine::push_batch`) at medians of +7.6% to +11.3%, over budget,
//! and per-sample `engine_push_m64` at +1.0% to +3.0% (DESIGN §6c).
//! What is left per frame is one sampling decision, one clock pair and
//! one latency observation on a sampled frame, one `spring_batch_len`
//! observation, one counter add and one attachment's memory check.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use spring_core::mem::format_bytes;
use spring_core::Match;

/// Tick latency is timed on one frame per this many stream ticks (per
/// engine or runner worker): the frame holding stream tick 1, 65, 129,
/// …; all other metrics are exact. Sampling keeps the two `Instant`
/// reads off the common path, where they would otherwise rival the
/// `O(m)` step cost for short queries.
pub const LATENCY_SAMPLE_EVERY: u64 = 64;

/// A monotonically increasing event count (relaxed atomics: cheap on the
/// hot path; reads are eventually consistent, exact after a join).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (e.g. live memory, queue depth).
///
/// Stored as a `u64`; deltas use two's-complement wrapping, which is
/// exact as long as every decrement pairs with an earlier increment —
/// the discipline all in-repo writers follow.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value outright.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Applies a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram: lock-free observation, Prometheus-style
/// cumulative export.
///
/// The value sum is an `f64` kept as bits in one atomic, so it needs no
/// lock: exact for integer tick delays (below 2⁵³), and for latencies
/// within `f64` rounding, fractions of a nanosecond included.
#[derive(Debug)]
pub struct Histogram {
    /// Finite upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket catches the rest.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `len == bounds.len() + 1`.
    /// Their total is the observation count.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values, as `f64` bits.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given finite upper bounds (must be strictly
    /// increasing; an `+Inf` overflow bucket is added implicitly).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Buckets suited to per-tick monitor latencies (1 ns … 100 ms). The
    /// batched paths observe a frame's time over its attachment-ticks,
    /// a few ns for an idle attachment, so the low end is resolved too.
    pub fn latency_buckets() -> Self {
        Histogram::new(&[
            1e-9, 2.5e-9, 5e-9, 10e-9, 25e-9, 50e-9, 100e-9, 250e-9, 500e-9, 1e-6, 2.5e-6, 5e-6,
            10e-6, 25e-6, 50e-6, 100e-6, 1e-3, 10e-3, 100e-3,
        ])
    }

    /// Buckets suited to detection delays in ticks (0 … 1024).
    pub fn delay_buckets() -> Self {
        Histogram::new(&[
            0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0,
        ])
    }

    /// Buckets suited to ingestion frame sizes (1 … 1024 samples).
    pub fn batch_buckets() -> Self {
        Histogram::new(&[
            1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
        ])
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let add = |bits| Some((f64::from_bits(bits) + v).to_bits());
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Point-in-time cumulative view.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            let le = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            buckets.push((le, cumulative));
        }
        HistogramSnapshot {
            buckets,
            count: cumulative,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Cumulative histogram view: `(upper bound, observations ≤ bound)`
/// pairs ending with the `+Inf` bucket, plus count and sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// `(le, cumulative count)` per bucket; the last bound is `+Inf`.
    pub buckets: Vec<(f64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0 ≤ q ≤ 1`), linearly interpolated
    /// within the bucket containing the quantile rank — the same
    /// estimator Prometheus' `histogram_quantile` uses (the first
    /// bucket's lower edge is 0). Returns the largest finite bound when
    /// the rank falls in the overflow bucket, 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let (mut prev_le, mut prev_cum) = (0.0f64, 0u64);
        for &(le, cum) in &self.buckets {
            if cum as f64 >= rank {
                if !le.is_finite() {
                    break;
                }
                // `cum > prev_cum` here (the rank just crossed into this
                // bucket), so the division is well-defined.
                let frac = (rank - prev_cum as f64) / (cum - prev_cum) as f64;
                return prev_le + frac * (le - prev_le);
            }
            (prev_le, prev_cum) = (le, cum);
        }
        // Overflow bucket: no upper edge to interpolate against, so
        // report the largest finite bound.
        self.buckets
            .iter()
            .rev()
            .find(|(le, _)| le.is_finite())
            .map(|&(le, _)| le)
            .unwrap_or(0.0)
    }
}

/// Hot-path metrics of one [`crate::Runner`] worker (the `shard`
/// label: each worker owns a hash partition of the streams); registered
/// into a [`Metrics`] via [`Metrics::register_shard`].
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Samples processed by this worker.
    pub ticks: Counter,
    /// Messages currently queued to this worker (incremented by the
    /// pusher before send, decremented by the worker on receive).
    pub queue_depth: Gauge,
    /// Supervisor restarts of this worker.
    pub restarts: Counter,
    /// Messages sent to this worker (frames and control messages;
    /// a restart's replay of its log is not counted again).
    pub messages: Counter,
}

/// The metrics registry shared by every instrumented component.
///
/// Create one (usually inside an `Arc`), hand clones to the engine
/// ([`crate::Engine::set_metrics`]), the runner
/// ([`crate::Runner::spawn_with_observability`]) or serve; read it at
/// any time via [`Metrics::snapshot`].
#[derive(Debug)]
pub struct Metrics {
    /// Attachment-ticks ingested (`spring_ticks_total`).
    pub ticks: Counter,
    /// Confirmed matches (`spring_matches_total`).
    pub matches: Counter,
    /// Missing (non-finite) samples seen (`spring_missing_samples_total`).
    pub missing: Counter,
    /// Runner workers lost to panics or ingest errors
    /// (`spring_worker_lost_total`).
    pub worker_lost: Counter,
    /// Lost runner workers restarted by the supervisor
    /// (`spring_worker_restarts_total`).
    pub worker_restarts: Counter,
    /// Live algorithmic state in bytes (`spring_memory_bytes`).
    pub memory_bytes: Gauge,
    /// Live DTW state cells (`spring_memory_cells`) — the quantity
    /// bounded by the paper's Theorem 2.
    pub memory_cells: Gauge,
    /// Fleet-wide query hot-swaps applied (`spring_query_swaps_total`).
    pub query_swaps: Counter,
    /// Latest query generation published by a hot-swap
    /// (`spring_query_generation`).
    pub query_generation: Gauge,
    /// Sampled time per attachment-tick
    /// (`spring_tick_latency_seconds`).
    pub tick_latency: Histogram,
    /// Per-match `reported_at − end` (`spring_detection_delay_ticks`).
    pub detection_delay: Histogram,
    /// Frame sizes seen by the batched ingestion path
    /// (`spring_batch_len`); per-tick counters stay exact regardless.
    pub batch_len: Histogram,
    /// Live client connections on the serve path
    /// (`spring_connections_open`).
    pub connections_open: Gauge,
    /// Raw bytes read from client connections
    /// (`spring_conn_read_bytes_total`).
    pub conn_read_bytes: Counter,
    /// Protocol parse errors reported to clients — non-numeric or
    /// over-long lines (`spring_conn_parse_errors_total`).
    pub conn_parse_errors: Counter,
    /// Connections dropped by the server: I/O errors, write-buffer
    /// overflow, or the `--max-conns` cap
    /// (`spring_conn_dropped_total`).
    pub conn_dropped: Counter,
    /// Shared-query residency: fingerprint → (attachments referencing
    /// it, resident cells). A query's arena cells enter the
    /// `spring_memory_cells` gauge exactly once no matter how many
    /// attachments borrow it (the `queries × m` term of the fleet
    /// memory bound).
    shared_queries: Mutex<HashMap<u64, (usize, usize)>>,
    /// Registered runner workers (read-locked only for snapshots; the
    /// hot path goes through each worker's own `Arc`).
    shards: RwLock<Vec<Arc<ShardMetrics>>>,
    /// Registry creation time (`spring_uptime_seconds`).
    started: std::time::Instant,
}

/// Crate version baked into `spring_build_info{version=…}`.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The optional feature compiled into this build, baked into
/// `spring_build_info{features=…}`: `failpoints`, or the empty string.
pub fn build_features() -> &'static str {
    if cfg!(feature = "failpoints") {
        "failpoints"
    } else {
        ""
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            ticks: Counter::new(),
            matches: Counter::new(),
            missing: Counter::new(),
            worker_lost: Counter::new(),
            worker_restarts: Counter::new(),
            memory_bytes: Gauge::new(),
            memory_cells: Gauge::new(),
            query_swaps: Counter::new(),
            query_generation: Gauge::new(),
            shared_queries: Mutex::new(HashMap::new()),
            tick_latency: Histogram::latency_buckets(),
            detection_delay: Histogram::delay_buckets(),
            batch_len: Histogram::batch_buckets(),
            connections_open: Gauge::new(),
            conn_read_bytes: Counter::new(),
            conn_parse_errors: Counter::new(),
            conn_dropped: Counter::new(),
            shards: RwLock::new(Vec::new()),
            started: std::time::Instant::now(),
        }
    }
}

impl Metrics {
    /// A fresh registry with the default bucket layouts.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Registers one runner worker and returns its hot-path handle.
    pub fn register_shard(&self) -> Arc<ShardMetrics> {
        let sm = Arc::new(ShardMetrics::default());
        self.shards
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&sm));
        sm
    }

    /// Records a confirmed match: bumps the match counter and the
    /// detection-delay histogram (`reported_at − end`).
    pub fn record_match(&self, m: &Match) {
        self.matches.inc();
        self.detection_delay.observe(m.report_delay() as f64);
    }

    /// Takes one reference on a shared query entry. The first reference
    /// adds the entry's `cells` to `spring_memory_cells`; later
    /// references are free — arena residency is counted once per query,
    /// not once per attachment.
    pub fn retain_query(&self, fingerprint: u64, cells: usize) {
        let mut shared = self
            .shared_queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = shared.entry(fingerprint).or_insert((0, cells));
        entry.0 += 1;
        if entry.0 == 1 {
            entry.1 = cells;
            self.memory_cells.add(cells as i64);
        }
    }

    /// Releases one reference taken by [`Metrics::retain_query`]; the
    /// last release subtracts the entry's cells from the gauge.
    pub fn release_query(&self, fingerprint: u64) {
        let mut shared = self
            .shared_queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = shared.get_mut(&fingerprint) {
            entry.0 -= 1;
            if entry.0 == 0 {
                let cells = entry.1;
                shared.remove(&fingerprint);
                self.memory_cells.add(-(cells as i64));
            }
        }
    }

    /// A consistent point-in-time view of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shards = self
            .shards
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|sh| ShardSnapshot {
                ticks: sh.ticks.get(),
                queue_depth: sh.queue_depth.get(),
                restarts: sh.restarts.get(),
                messages: sh.messages.get(),
            })
            .collect();
        MetricsSnapshot {
            ticks_total: self.ticks.get(),
            matches_total: self.matches.get(),
            missing_total: self.missing.get(),
            worker_lost_total: self.worker_lost.get(),
            worker_restarts_total: self.worker_restarts.get(),
            memory_bytes: self.memory_bytes.get(),
            memory_cells: self.memory_cells.get(),
            query_swaps_total: self.query_swaps.get(),
            query_generation: self.query_generation.get(),
            tick_latency: self.tick_latency.snapshot(),
            detection_delay: self.detection_delay.snapshot(),
            batch_len: self.batch_len.snapshot(),
            connections_open: self.connections_open.get(),
            conn_read_bytes_total: self.conn_read_bytes.get(),
            conn_parse_errors_total: self.conn_parse_errors.get(),
            conn_dropped_total: self.conn_dropped.get(),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            shards,
        }
    }

    /// Shorthand for `snapshot().to_prometheus()`.
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

/// Point-in-time view of one runner worker (`shard` label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Samples processed by this worker so far.
    pub ticks: u64,
    /// Messages queued to this worker at snapshot time.
    pub queue_depth: u64,
    /// Supervisor restarts of this worker so far.
    pub restarts: u64,
    /// Messages sent to this worker so far (replays not counted).
    pub messages: u64,
}

/// A consistent point-in-time view of a [`Metrics`] registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Attachment-ticks ingested.
    pub ticks_total: u64,
    /// Confirmed matches.
    pub matches_total: u64,
    /// Missing samples seen.
    pub missing_total: u64,
    /// Runner workers lost.
    pub worker_lost_total: u64,
    /// Lost runner workers restarted by the supervisor.
    pub worker_restarts_total: u64,
    /// Live algorithmic state, bytes.
    pub memory_bytes: u64,
    /// Live DTW state cells.
    pub memory_cells: u64,
    /// Fleet-wide query hot-swaps applied.
    pub query_swaps_total: u64,
    /// Latest query generation published by a hot-swap.
    pub query_generation: u64,
    /// Sampled per-tick latency, seconds.
    pub tick_latency: HistogramSnapshot,
    /// Detection delay per match, ticks.
    pub detection_delay: HistogramSnapshot,
    /// Ingestion frame sizes, samples per batch.
    pub batch_len: HistogramSnapshot,
    /// Live serve-path client connections.
    pub connections_open: u64,
    /// Raw bytes read from serve-path clients.
    pub conn_read_bytes_total: u64,
    /// Protocol parse errors reported to serve-path clients.
    pub conn_parse_errors_total: u64,
    /// Serve-path connections dropped by the server.
    pub conn_dropped_total: u64,
    /// Seconds since the registry was created.
    pub uptime_seconds: f64,
    /// Per-worker views, indexed by the `shard` label (empty outside
    /// runner deployments).
    pub shards: Vec<ShardSnapshot>,
}

/// Formats an `le` bound for the exposition format (`+Inf` for the
/// overflow bucket).
fn fmt_le(v: f64) -> String {
    if v.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Total queued messages across all workers.
    pub fn runner_queue_depth(&self) -> u64 {
        self.shards.iter().map(|sh| sh.queue_depth).sum()
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers followed by the
    /// series, histograms as cumulative `_bucket{le=…}` + `_sum` +
    /// `_count`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(2048);
        // Build/uptime info first, so a scrape identifies the binary
        // before any counters.
        let _ = writeln!(
            s,
            "# HELP spring_build_info Build metadata: crate version and compiled features (value is always 1)."
        );
        let _ = writeln!(s, "# TYPE spring_build_info gauge");
        let _ = writeln!(
            s,
            "spring_build_info{{version=\"{BUILD_VERSION}\",features=\"{}\"}} 1",
            build_features()
        );
        let _ = writeln!(
            s,
            "# HELP spring_uptime_seconds Seconds since this metrics registry was created."
        );
        let _ = writeln!(s, "# TYPE spring_uptime_seconds gauge");
        let _ = writeln!(s, "spring_uptime_seconds {:.3}", self.uptime_seconds);
        let mut scalar = |name: &str, ty: &str, help: &str, value: u64| {
            let _ = writeln!(s, "# HELP {name} {help}");
            let _ = writeln!(s, "# TYPE {name} {ty}");
            let _ = writeln!(s, "{name} {value}");
        };
        scalar(
            "spring_ticks_total",
            "counter",
            "Samples ingested across all attachments.",
            self.ticks_total,
        );
        scalar(
            "spring_matches_total",
            "counter",
            "Confirmed matches (including end-of-stream flushes).",
            self.matches_total,
        );
        scalar(
            "spring_missing_samples_total",
            "counter",
            "Missing (non-finite) samples seen.",
            self.missing_total,
        );
        scalar(
            "spring_worker_lost_total",
            "counter",
            "Runner workers lost to panics or ingest errors.",
            self.worker_lost_total,
        );
        scalar(
            "spring_worker_restarts_total",
            "counter",
            "Lost runner workers restarted by the supervisor.",
            self.worker_restarts_total,
        );
        scalar(
            "spring_memory_bytes",
            "gauge",
            "Live algorithmic state across monitors, bytes.",
            self.memory_bytes,
        );
        scalar(
            "spring_memory_cells",
            "gauge",
            "Live DTW state cells (the O(m) bound of Theorem 2).",
            self.memory_cells,
        );
        scalar(
            "spring_query_swaps_total",
            "counter",
            "Fleet-wide query hot-swaps applied.",
            self.query_swaps_total,
        );
        scalar(
            "spring_query_generation",
            "gauge",
            "Latest query generation published by a hot-swap.",
            self.query_generation,
        );
        scalar(
            "spring_connections_open",
            "gauge",
            "Live client connections on the serve path.",
            self.connections_open,
        );
        scalar(
            "spring_conn_read_bytes_total",
            "counter",
            "Raw bytes read from serve-path client connections.",
            self.conn_read_bytes_total,
        );
        scalar(
            "spring_conn_parse_errors_total",
            "counter",
            "Protocol parse errors reported to serve-path clients.",
            self.conn_parse_errors_total,
        );
        scalar(
            "spring_conn_dropped_total",
            "counter",
            "Serve-path connections dropped by the server (I/O errors, buffer overflow, conn cap).",
            self.conn_dropped_total,
        );
        scalar(
            "spring_runner_queue_depth",
            "gauge",
            "Queued messages across all runner workers.",
            self.runner_queue_depth(),
        );
        let mut histogram = |name: &str, help: &str, h: &HistogramSnapshot| {
            let _ = writeln!(s, "# HELP {name} {help}");
            let _ = writeln!(s, "# TYPE {name} histogram");
            for &(le, cum) in &h.buckets {
                let _ = writeln!(s, "{name}_bucket{{le=\"{}\"}} {cum}", fmt_le(le));
            }
            let _ = writeln!(s, "{name}_sum {}", h.sum);
            let _ = writeln!(s, "{name}_count {}", h.count);
        };
        histogram(
            "spring_tick_latency_seconds",
            "Time per attachment-tick, one timed frame per 64 stream ticks per engine or worker.",
            &self.tick_latency,
        );
        histogram(
            "spring_detection_delay_ticks",
            "Ticks between a match ending and its confirmation (reported_at - end).",
            &self.detection_delay,
        );
        histogram(
            "spring_batch_len",
            "Frame sizes (samples per batch) seen by the batched ingestion path.",
            &self.batch_len,
        );
        if !self.shards.is_empty() {
            let _ = writeln!(
                s,
                "# HELP spring_shard_ticks_total Samples processed per runner worker (shard)."
            );
            let _ = writeln!(s, "# TYPE spring_shard_ticks_total counter");
            for (i, sh) in self.shards.iter().enumerate() {
                let _ = writeln!(s, "spring_shard_ticks_total{{shard=\"{i}\"}} {}", sh.ticks);
            }
            let _ = writeln!(
                s,
                "# HELP spring_shard_queue_depth Queued messages per runner worker (shard)."
            );
            let _ = writeln!(s, "# TYPE spring_shard_queue_depth gauge");
            for (i, sh) in self.shards.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "spring_shard_queue_depth{{shard=\"{i}\"}} {}",
                    sh.queue_depth
                );
            }
            let _ = writeln!(
                s,
                "# HELP spring_shard_restarts_total Supervisor restarts per runner worker (shard)."
            );
            let _ = writeln!(s, "# TYPE spring_shard_restarts_total counter");
            for (i, sh) in self.shards.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "spring_shard_restarts_total{{shard=\"{i}\"}} {}",
                    sh.restarts
                );
            }
            let _ = writeln!(
                s,
                "# HELP spring_shard_messages_total Messages sent per runner worker (shard)."
            );
            let _ = writeln!(s, "# TYPE spring_shard_messages_total counter");
            for (i, sh) in self.shards.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "spring_shard_messages_total{{shard=\"{i}\"}} {}",
                    sh.messages
                );
            }
        }
        s
    }

    /// Renders a human-readable summary table (the `spring monitor
    /// --stats` output).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "--- stats ---");
        let mut row = |k: &str, v: String| {
            let _ = writeln!(s, "{k:<28} {v}");
        };
        row("ticks ingested", self.ticks_total.to_string());
        row("matches", self.matches_total.to_string());
        row("missing samples", self.missing_total.to_string());
        let lat = &self.tick_latency;
        let q = [
            lat.mean(),
            lat.quantile(0.5),
            lat.quantile(0.95),
            lat.quantile(0.99),
        ];
        // One unit per row: ns while every column is below 1 µs.
        let (scale, unit) = if q[0].max(q[3]) < 1e-6 {
            (1e9, "ns")
        } else {
            (1e6, "µs")
        };
        let [mean, p50, p95, p99] = q.map(|v| v * scale);
        row(
            "tick latency (sampled 1/64)",
            format!(
                "mean {mean:.2} {unit}  p50 {p50:.2} {unit}  p95 {p95:.2} {unit}  p99 {p99:.2} {unit}  ({} samples)",
                lat.count
            ),
        );
        let delay = &self.detection_delay;
        row(
            "detection delay",
            format!(
                "mean {:.2} ticks  p50 {:.1} ticks  p95 {:.1} ticks  p99 {:.1} ticks",
                delay.mean(),
                delay.quantile(0.5),
                delay.quantile(0.95),
                delay.quantile(0.99)
            ),
        );
        if self.batch_len.count > 0 {
            row(
                "ingest batches",
                format!(
                    "{} frames, mean {:.1} samples/frame",
                    self.batch_len.count,
                    self.batch_len.mean()
                ),
            );
        }
        row(
            "live memory",
            format!(
                "{} ({} cells)",
                format_bytes(self.memory_bytes as usize),
                self.memory_cells
            ),
        );
        if self.connections_open > 0 || self.conn_read_bytes_total > 0 {
            row(
                "connections",
                format!(
                    "{} open, {} read, {} parse error(s), {} dropped",
                    self.connections_open,
                    format_bytes(self.conn_read_bytes_total as usize),
                    self.conn_parse_errors_total,
                    self.conn_dropped_total
                ),
            );
        }
        if self.worker_lost_total > 0 {
            row("workers lost", self.worker_lost_total.to_string());
        }
        if self.worker_restarts_total > 0 {
            row("worker restarts", self.worker_restarts_total.to_string());
        }
        for (i, sh) in self.shards.iter().enumerate() {
            row(
                &format!("shard {i}"),
                format!(
                    "{} ticks, queue depth {}, restarts {}",
                    sh.ticks, sh.queue_depth, sh.restarts
                ),
            );
        }
        s
    }
}

/// One live monitor's share of the memory gauges.
///
/// Gives the share back on drop, so `spring_memory_bytes`/
/// `spring_memory_cells` reflect monitors that are actually alive.
#[derive(Debug)]
pub(crate) struct MemoryShare {
    metrics: Arc<Metrics>,
    last_bytes: i64,
    last_cells: i64,
    /// Fingerprint of the shared query entry this share holds a
    /// [`Metrics::retain_query`] reference on, released on drop.
    shared_query: Option<u64>,
}

impl MemoryShare {
    /// An empty share of `metrics`' gauges.
    pub(crate) fn new(metrics: Arc<Metrics>) -> Self {
        MemoryShare {
            metrics,
            last_bytes: 0,
            last_cells: 0,
            shared_query: None,
        }
    }

    /// The registry this share feeds.
    pub(crate) fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Declares that the monitor borrows the shared query entry
    /// `fingerprint` holding `cells` resident cells. The entry is
    /// counted into `spring_memory_cells` once fleet-wide (not once per
    /// attachment) and released when the share drops. Re-declaring
    /// (after a hot-swap) releases the previous entry first.
    pub(crate) fn retain_shared(&mut self, fingerprint: u64, cells: usize) {
        if let Some(prev) = self.shared_query.take() {
            self.metrics.release_query(prev);
        }
        self.metrics.retain_query(fingerprint, cells);
        self.shared_query = Some(fingerprint);
    }

    /// Sets the monitor's share of the live memory gauges to `bytes` and
    /// `cells`, writing the shared gauges only when the share changed.
    #[inline]
    pub(crate) fn set(&mut self, bytes: usize, cells: usize) {
        let (bytes, cells) = (bytes as i64, cells as i64);
        if (bytes, cells) != (self.last_bytes, self.last_cells) {
            self.metrics.memory_bytes.add(bytes - self.last_bytes);
            self.metrics.memory_cells.add(cells - self.last_cells);
            (self.last_bytes, self.last_cells) = (bytes, cells);
        }
    }
}

impl Drop for MemoryShare {
    fn drop(&mut self) {
        self.metrics.memory_bytes.add(-self.last_bytes);
        self.metrics.memory_cells.add(-self.last_cells);
        if let Some(fp) = self.shared_query.take() {
            self.metrics.release_query(fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(end: u64, reported_at: u64) -> Match {
        Match {
            start: 1,
            end,
            distance: 0.0,
            reported_at,
            group_start: 1,
            group_end: end,
        }
    }

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        g.add(5);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_bounded() {
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 0.7, 5.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets, vec![(1.0, 2), (10.0, 3), (f64::INFINITY, 4)]);
        assert!((s.sum - 106.2).abs() < 1e-6, "{}", s.sum);
        assert!((s.mean() - 26.55).abs() < 1e-6);
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0] {
            h.observe(v);
        }
        // Cumulative: (1, 1) (2, 3) (4, 4) (+Inf, 4).
        let s = h.snapshot();
        // rank 1 is the whole first bucket: 0 + 1/1 · (1 − 0).
        assert_eq!(s.quantile(0.25), 1.0);
        // rank 2 is halfway through (1, 2]: 1 + 1/2 · (2 − 1).
        assert_eq!(s.quantile(0.5), 1.5);
        // rank 4 exhausts (2, 4]: 2 + 1/1 · (4 − 2).
        assert_eq!(s.quantile(1.0), 4.0);
        // Overflow bucket reports the largest finite bound.
        h.observe(99.0);
        assert_eq!(h.snapshot().quantile(1.0), 4.0);
        // Empty histogram.
        assert_eq!(Histogram::new(&[1.0]).snapshot().quantile(0.9), 0.0);
    }

    #[test]
    fn memory_share_tracks_deltas_and_releases_on_drop() {
        let metrics = Arc::new(Metrics::new());
        let mut share = MemoryShare::new(Arc::clone(&metrics));
        share.set(1000, 125);
        assert_eq!(metrics.memory_bytes.get(), 1000);
        assert_eq!(metrics.memory_cells.get(), 125);
        share.set(1200, 150);
        assert_eq!(metrics.memory_bytes.get(), 1200);
        assert_eq!(metrics.memory_cells.get(), 150);
        // Dropping the share releases it.
        drop(share);
        assert_eq!(metrics.memory_bytes.get(), 0);
        assert_eq!(metrics.memory_cells.get(), 0);
    }

    #[test]
    fn shared_query_cells_are_counted_once_per_fingerprint() {
        let metrics = Arc::new(Metrics::new());
        let mut shares: Vec<MemoryShare> = (0..3)
            .map(|_| MemoryShare::new(Arc::clone(&metrics)))
            .collect();
        // Three attachments borrow the same 512-cell query entry: the
        // gauge charges it once.
        for share in &mut shares {
            share.retain_shared(0xABCD, 512);
        }
        assert_eq!(metrics.memory_cells.get(), 512);
        // A different query adds its own share.
        let mut other = MemoryShare::new(Arc::clone(&metrics));
        other.retain_shared(0x1234, 100);
        assert_eq!(metrics.memory_cells.get(), 612);
        // Swapping a share to a new fingerprint releases the old ref
        // without disturbing the survivors' share.
        shares[0].retain_shared(0x1234, 100);
        assert_eq!(metrics.memory_cells.get(), 612);
        // Dropping the last holders releases each entry exactly once.
        drop(shares);
        assert_eq!(metrics.memory_cells.get(), 100);
        drop(other);
        assert_eq!(metrics.memory_cells.get(), 0);
    }

    #[test]
    fn query_swap_metrics_round_trip_to_prometheus() {
        let metrics = Metrics::new();
        metrics.query_swaps.inc();
        metrics.query_generation.set(3);
        let snap = metrics.snapshot();
        assert_eq!(snap.query_swaps_total, 1);
        assert_eq!(snap.query_generation, 3);
        let text = snap.to_prometheus();
        assert!(text.contains("spring_query_swaps_total 1"), "{text}");
        assert!(text.contains("spring_query_generation 3"), "{text}");
    }

    #[test]
    fn latency_sampling_rate_is_one_in_sixty_four() {
        // Per-sample `Engine::push` steps one-sample frames: the push
        // holding stream tick 1, 65, 129, … is timed, the rest are not.
        let metrics = Arc::new(Metrics::new());
        let tracer = crate::Tracer::new();
        let mut engine = crate::SpringEngine::new();
        engine.set_metrics(Arc::clone(&metrics));
        engine.set_tracer(&tracer, "engine");
        let s = engine.add_stream("s");
        let q = engine.add_query("q", vec![0.0, 10.0, 0.0]).unwrap();
        engine.attach(s, q, 1.0, crate::GapPolicy::Skip).unwrap();
        engine.push(s, &50.0).unwrap();
        assert_eq!(metrics.tick_latency.count(), 1, "first push is timed");
        for _ in 1..(LATENCY_SAMPLE_EVERY * 3) {
            engine.push(s, &50.0).unwrap();
        }
        assert_eq!(metrics.tick_latency.count(), 3);
        assert_eq!(metrics.ticks.get(), LATENCY_SAMPLE_EVERY * 3);
        assert_eq!(metrics.batch_len.count(), 0, "a push is not a batch");
        // 256 pushes in all: the four sampled frames are the spans.
        for _ in 0..LATENCY_SAMPLE_EVERY {
            engine.push(s, &50.0).unwrap();
        }
        let kinds: Vec<_> = tracer.snapshot().tracks[0]
            .events
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(kinds, [crate::TraceEventKind::Frame; 4]);
    }

    #[test]
    fn histogram_sums_keep_fractions_of_a_nanosecond() {
        let h = Histogram::latency_buckets();
        for _ in 0..1000 {
            h.observe(3.9e-9);
        }
        let mean = h.snapshot().mean();
        assert!((mean / 3.9e-9 - 1.0).abs() < 1e-3, "mean {mean} s");
        // Integer detection delays still sum exactly.
        let delays = Histogram::delay_buckets();
        for d in [0.0, 3.0, 1024.0, 7.0] {
            delays.observe(d);
        }
        assert_eq!(delays.snapshot().sum, 1034.0);
    }

    #[test]
    fn prometheus_text_contains_every_family() {
        let metrics = Metrics::new();
        metrics.ticks.add(7);
        metrics.record_match(&hit(5, 5));
        metrics.tick_latency.observe(3e-6);
        let w = metrics.register_shard();
        w.ticks.add(9);
        w.queue_depth.add(2);
        let text = metrics.to_prometheus();
        for family in [
            "spring_ticks_total",
            "spring_matches_total",
            "spring_missing_samples_total",
            "spring_worker_lost_total",
            "spring_worker_restarts_total",
            "spring_memory_bytes",
            "spring_memory_cells",
            "spring_query_swaps_total",
            "spring_query_generation",
            "spring_runner_queue_depth",
            "spring_tick_latency_seconds",
            "spring_detection_delay_ticks",
            "spring_batch_len",
            "spring_shard_ticks_total",
            "spring_shard_queue_depth",
            "spring_shard_restarts_total",
            "spring_shard_messages_total",
            "spring_build_info",
            "spring_uptime_seconds",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
        }
        assert!(text.contains("spring_ticks_total 7"), "{text}");
        // The info-gauge carries the crate version and feature list as
        // labels with a constant value of 1.
        assert!(
            text.contains(&format!(
                "spring_build_info{{version=\"{BUILD_VERSION}\",features=\""
            )),
            "{text}"
        );
        let info_line = text
            .lines()
            .find(|l| l.starts_with("spring_build_info{"))
            .unwrap();
        assert!(info_line.ends_with("} 1"), "{info_line}");
        assert!(
            info_line.contains(&format!("features=\"{}\"", build_features())),
            "{info_line}"
        );
        assert!(text.contains("spring_uptime_seconds "), "{text}");
        assert!(
            text.contains("spring_detection_delay_ticks_bucket{le=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("spring_tick_latency_seconds_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("spring_shard_ticks_total{shard=\"0\"} 9"));
        assert!(text.contains("spring_runner_queue_depth 2"));
    }

    #[test]
    fn few_nanosecond_latencies_get_their_own_buckets_and_an_ns_row() {
        let metrics = Metrics::new();
        for _ in 0..1000 {
            metrics.tick_latency.observe(3e-9);
        }
        let snap = metrics.snapshot();
        let p99 = snap.tick_latency.quantile(0.99);
        assert!(p99 <= 5e-9, "p99 {p99} s");
        let table = snap.render_table();
        let row = table
            .lines()
            .find(|l| l.starts_with("tick latency"))
            .unwrap();
        assert!(row.contains("mean 3.00 ns"), "{row}");
        assert!(row.contains(" ns  p99") && !row.contains("µs"), "{row}");
        // A mean above 1 µs switches the whole row to µs.
        metrics.tick_latency.observe(1.0);
        let table = metrics.snapshot().render_table();
        assert!(table.contains("mean 999.00 µs"), "{table}");
        assert!(!table.contains(" ns "), "{table}");
    }

    #[test]
    fn summary_table_mentions_the_headline_numbers() {
        let metrics = Metrics::new();
        metrics.ticks.add(100);
        metrics.record_match(&hit(9, 9));
        metrics.memory_bytes.set(2048);
        metrics.memory_cells.set(256);
        let table = metrics.snapshot().render_table();
        assert!(table.contains("ticks ingested"), "{table}");
        assert!(table.contains("100"), "{table}");
        assert!(table.contains("2.00 KiB (256 cells)"), "{table}");
        assert!(table.contains("detection delay"), "{table}");
        // Latency and delay rows both carry interpolated quantile columns.
        for line in table.lines() {
            if line.starts_with("tick latency") || line.starts_with("detection delay") {
                for col in ["p50", "p95", "p99"] {
                    assert!(line.contains(col), "missing {col}: {line}");
                }
            }
        }
    }
}
