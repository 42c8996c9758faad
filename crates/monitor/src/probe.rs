//! One probe per recording thread.
//!
//! Every thread that records observability events owns one [`Probe`]:
//! an [`crate::Engine`], each incarnation of a [`crate::Runner`] worker,
//! each worker's restart supervisor, and `spring serve`'s reactor. The
//! probe holds the sinks its owner was given — the optional [`Metrics`]
//! registry (plus a runner worker's [`ShardMetrics`]) and the optional
//! flight-recorder ring of a [`Tracer`] — and each event is one call
//! that writes to every sink present. A probe with neither records
//! nothing, at one `Option` check per sink.
//!
//! A frame makes one sampling decision: the frame holding stream tick
//! 1, 65, 129, … of its engine or worker (one per
//! [`crate::metrics::LATENCY_SAMPLE_EVERY`]) is timed by one `Instant`
//! pair, which feeds both `spring_tick_latency_seconds` and the `frame`
//! span.

use std::sync::Arc;
use std::time::Instant;

use spring_core::Match;

use crate::metrics::{Metrics, ShardMetrics};
use crate::trace::{EventKind, TraceRing, Tracer};

/// The recording hook of one thread (see the [module docs](self)). The
/// probe is its ring's single writer, so it is not shared between
/// recording threads; its metric sinks are shared atomics.
#[derive(Default)]
pub struct Probe {
    pub(crate) metrics: Option<Arc<Metrics>>,
    /// The `spring_shard_*{shard=…}` series of a runner worker.
    pub(crate) shard: Option<Arc<ShardMetrics>>,
    pub(crate) ring: Option<Arc<TraceRing>>,
}

impl Probe {
    /// A probe recording into `metrics` and, given a tracer, into a new
    /// ring registered under `label` (the `chrome://tracing` track).
    pub fn new(metrics: Option<Arc<Metrics>>, tracer: Option<&Tracer>, label: &str) -> Probe {
        Probe {
            metrics,
            shard: None,
            ring: tracer.map(|t| t.register(label)),
        }
    }

    /// The registry this probe records into, if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// Updates the registry, when there is one.
    #[inline]
    pub fn count(&self, f: impl FnOnce(&Metrics)) {
        if let Some(m) = &self.metrics {
            f(m);
        }
    }

    /// Records an instant event, when there is a ring.
    #[inline]
    pub fn instant(&self, kind: EventKind, arg: u64) {
        if let Some(ring) = &self.ring {
            ring.instant(kind, arg);
        }
    }

    /// Runs `f` as a span of `kind`, timed only when there is a ring.
    #[inline]
    pub(crate) fn span<T>(&self, kind: EventKind, arg: u64, f: impl FnOnce() -> T) -> T {
        let start = self.ring.as_ref().map(|_| Instant::now());
        let out = f();
        if let (Some(ring), Some(start)) = (&self.ring, start) {
            ring.span(start, Instant::now(), kind, arg);
        }
        out
    }

    /// Records one ingested frame of `samples` stream ticks that stepped
    /// `ticks` attachment-ticks and met `missing` missing samples: the
    /// exact counters always, and for a sampled frame (`started`) the
    /// time per attachment-tick and the `frame` span, both from
    /// `started` to now.
    #[inline]
    pub(crate) fn frame(&self, started: Option<Instant>, samples: u64, ticks: u64, missing: u64) {
        if let Some(sh) = &self.shard {
            sh.ticks.add(samples);
        }
        let metrics = self.metrics.as_deref();
        if let Some(m) = metrics {
            m.ticks.add(ticks);
            if missing > 0 {
                m.missing.add(missing);
            }
        }
        let Some(start) = started else { return };
        let end = Instant::now();
        if let (Some(m), true) = (metrics, ticks > 0) {
            let per_tick = (end - start).as_secs_f64() / ticks as f64;
            m.tick_latency.observe(per_tick);
        }
        if let Some(ring) = &self.ring {
            ring.span(start, end, EventKind::Frame, samples);
        }
    }

    /// Records a confirmed match: the match counter, its detection
    /// delay, and a `match` instant at its end tick.
    #[inline]
    pub(crate) fn matched(&self, m: &Match) {
        self.count(|metrics| metrics.record_match(m));
        self.instant(EventKind::Match, m.end);
    }

    /// Records a committed query hot-swap to `generation`.
    pub(crate) fn swapped(&self, generation: u64) {
        self.count(|m| {
            m.query_swaps.inc();
            m.query_generation.set(generation);
        });
        self.instant(EventKind::QuerySwap, generation);
    }

    /// Records one message sent to the worker: its messages counter
    /// and its queue-depth gauge.
    #[inline]
    pub(crate) fn sent(&self) {
        if let Some(sh) = &self.shard {
            sh.messages.inc();
            sh.queue_depth.add(1);
        }
    }

    /// Moves the worker's queue-depth gauge by `delta` messages.
    #[inline]
    pub(crate) fn queued(&self, delta: i64) {
        if let Some(sh) = &self.shard {
            sh.queue_depth.add(delta);
        }
    }

    /// Records the supervisor's restart of worker `w`. The messages
    /// queued at the crash died with its channel, so the queue-depth
    /// gauge restarts at zero.
    pub(crate) fn restarted(&self, w: usize) {
        self.count(|m| m.worker_restarts.inc());
        if let Some(sh) = &self.shard {
            sh.restarts.inc();
            sh.queue_depth.set(0);
        }
        self.instant(EventKind::WorkerRestart, w as u64);
    }

    /// Records a connection opening on stream `stream`.
    pub fn conn_open(&self, stream: u32) {
        self.count(|m| m.connections_open.add(1));
        self.instant(EventKind::ConnOpen, u64::from(stream));
    }

    /// Records a connection closing on stream `stream`; a `dropped` one
    /// (I/O error, buffer overflow) also counts as dropped.
    pub fn conn_close(&self, stream: u32, dropped: bool) {
        self.count(|m| {
            m.connections_open.add(-1);
            if dropped {
                m.conn_dropped.inc();
            }
        });
        self.instant(EventKind::ConnClose, u64::from(stream));
    }
}
