//! Structured tracing + flight recorder for the SPRING stack.
//!
//! The metrics layer ([`crate::metrics`]) proves *aggregate* health —
//! counters and histograms answer "how many" and "how slow on
//! average". This module answers "what happened, in order": a
//! dependency-free, lock-free tracing layer with per-thread
//! fixed-capacity ring buffers holding typed events with monotonic
//! nanosecond timestamps. Rings have flight-recorder semantics: when a
//! ring is full the oldest events are overwritten and counted as
//! dropped, so a long-running fleet always holds the *newest* N events
//! per track — the timeline that led to whatever just went wrong.
//!
//! # Event taxonomy
//!
//! Two shapes, mirroring the Chrome trace-event model the exporter
//! targets:
//!
//! * **spans** (`ph:"X"`, a duration): `frame`, `checkpoint`, `replay`,
//!   `flush`;
//! * **instants** (`ph:"i"`, a point): `match`, `query_swap`,
//!   `worker_restart`, `shard_route`, `reactor_wakeup`,
//!   `backpressure_pause`/`resume`/`drop`, `conn_open`/`conn_close`.
//!
//! See [`EventKind`] for the full catalog with units.
//!
//! # Cost discipline
//!
//! Events reach a ring through the recording thread's
//! [`crate::Probe`], which also feeds the metrics registry: a `frame`
//! span is recorded only for a sampled frame (one per
//! [`crate::metrics::LATENCY_SAMPLE_EVERY`] stream ticks), from the same
//! clock pair as the tick latency; other spans and the instants are
//! recorded whenever the probe holds a ring. Holding a tracer means
//! tracing is on: `spring monitor --trace` and `spring serve
//! --trace-dir` create one, and without it a probe has no ring, so each
//! hook is one `Option` check. A ring's write path is `#[cold]`
//! and never inlined, so its store sequence stays out of the engine and
//! worker loops.
//!
//! # Ring protocol
//!
//! Each ring is written by **one** owning thread (the
//! registration contract) and read by any thread (dump/export). Slots
//! are all-atomic `u64` words guarded by a per-slot sequence: the
//! writer claims ticket `t`, flips the slot's sequence to the odd
//! `2t+1`, stores the payload, then publishes the even `2t+2`; a
//! reader accepts a slot only when the sequence is even and unchanged
//! across its copy. A torn or in-flight slot is simply skipped — the
//! recorder loses at most the event being written, never invents one.
//!
//! # Exports
//!
//! [`Tracer::snapshot`] freezes every ring;
//! [`TraceSnapshot::to_chrome_json`] renders the Chrome trace-event
//! JSON that `chrome://tracing` / Perfetto load directly (one track
//! per registered ring). [`Tracer::postmortem_dump`] writes that JSON
//! to a configured directory — the runner's restart supervisor calls
//! it whenever a worker is lost, so the first panic in a fleet leaves
//! a readable timeline instead of nothing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Default per-ring capacity, in events (~200 KiB per track).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// The typed event catalog. Spans carry a duration; instants are
/// points. `arg` units per kind are given below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Span: one sampled ingestion frame through an engine or worker
    /// (`arg` = samples in the frame).
    Frame = 2,
    /// Span: one checkpoint fork (`arg` = messages since the last).
    Checkpoint = 4,
    /// Span: one post-restart log replay (`arg` = messages replayed).
    Replay = 5,
    /// Span: one stream-end flush (`arg` = stream id) or mark (`arg` = 0).
    Flush = 6,
    /// Instant: a match was emitted (`arg` = match end tick).
    Match = 16,
    /// Instant: a query hot-swap committed (`arg` = new generation).
    QuerySwap = 17,
    /// Instant: the supervisor restarted a worker (`arg` = worker
    /// index).
    WorkerRestart = 18,
    /// Instant: a stream routed to a shard (`arg` = shard index).
    ShardRoute = 19,
    /// Instant: the reactor woke with ready events (`arg` = ready
    /// count).
    ReactorWakeup = 20,
    /// Instant: a connection crossed the soft write-buffer limit and
    /// its reads were paused (`arg` = connection stream id).
    BackpressurePause = 21,
    /// Instant: a paused connection drained below the soft limit and
    /// resumed reading (`arg` = connection stream id).
    BackpressureResume = 22,
    /// Instant: a connection crossed the hard write-buffer limit and
    /// was dropped (`arg` = connection stream id).
    BackpressureDrop = 23,
    /// Instant: a connection opened (`arg` = connection stream id).
    ConnOpen = 24,
    /// Instant: a connection closed (`arg` = connection stream id).
    ConnClose = 25,
}

impl EventKind {
    /// The event name shown in `chrome://tracing`.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Frame => "frame",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Replay => "replay",
            EventKind::Flush => "flush",
            EventKind::Match => "match",
            EventKind::QuerySwap => "query_swap",
            EventKind::WorkerRestart => "worker_restart",
            EventKind::ShardRoute => "shard_route",
            EventKind::ReactorWakeup => "reactor_wakeup",
            EventKind::BackpressurePause => "backpressure_pause",
            EventKind::BackpressureResume => "backpressure_resume",
            EventKind::BackpressureDrop => "backpressure_drop",
            EventKind::ConnOpen => "conn_open",
            EventKind::ConnClose => "conn_close",
        }
    }

    /// Whether this kind is a span (carries a duration).
    pub fn is_span(self) -> bool {
        (self as u8) < 16
    }

    /// Decodes a stored discriminant (`None` for garbage, so a torn
    /// slot can never panic the reader).
    pub fn from_u8(raw: u8) -> Option<EventKind> {
        Some(match raw {
            2 => EventKind::Frame,
            4 => EventKind::Checkpoint,
            5 => EventKind::Replay,
            6 => EventKind::Flush,
            16 => EventKind::Match,
            17 => EventKind::QuerySwap,
            18 => EventKind::WorkerRestart,
            19 => EventKind::ShardRoute,
            20 => EventKind::ReactorWakeup,
            21 => EventKind::BackpressurePause,
            22 => EventKind::BackpressureResume,
            23 => EventKind::BackpressureDrop,
            24 => EventKind::ConnOpen,
            25 => EventKind::ConnClose,
            _ => return None,
        })
    }
}

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Monotonically increasing per-ring write ticket (0-based): the
    /// global order of events within one track.
    pub ticket: u64,
    /// Start time, nanoseconds since the tracer epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]).
    pub arg: u64,
}

/// One ring's frozen contents: events oldest→newest, plus the
/// flight-recorder accounting.
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    /// The track label given at registration (`worker-0`, `reactor`, …).
    pub label: String,
    /// Consistent events, sorted by ticket (oldest first). At most the
    /// ring capacity; under concurrent writing the slot currently being
    /// overwritten is skipped rather than reported torn.
    pub events: Vec<TraceEvent>,
    /// Events overwritten by ring wraparound (exact).
    pub dropped: u64,
    /// Total events ever written to this ring.
    pub written: u64,
}

/// A frozen view of every registered ring.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// One entry per registered ring, in registration order.
    pub tracks: Vec<TrackSnapshot>,
}

impl TraceSnapshot {
    /// Total consistent events across all tracks.
    pub fn total_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Total dropped (overwritten) events across all tracks.
    pub fn total_dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// Renders the snapshot as Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load): one `pid` (`spring`),
    /// one `tid` per track with a `thread_name` metadata record, spans
    /// as `ph:"X"` complete events and instants as thread-scoped
    /// `ph:"i"`, timestamps in microseconds from the tracer epoch.
    pub fn to_chrome_json(&self) -> String {
        use spring_util::json::Value;
        // A metadata record naming the process (tid 0) or a track.
        let meta = |name: &str, tid: f64, label: &str| {
            let args = Value::Obj(vec![("name".into(), Value::Str(label.into()))]);
            Value::Obj(vec![
                ("name".into(), Value::Str(name.into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(tid)),
                ("args".into(), args),
            ])
        };
        let mut events = vec![meta("process_name", 0.0, "spring")];
        for (i, track) in self.tracks.iter().enumerate() {
            let tid = (i + 1) as f64;
            events.push(meta("thread_name", tid, &track.label));
            for ev in &track.events {
                let mut fields = vec![
                    ("name".into(), Value::Str(ev.kind.name().into())),
                    (
                        "ph".into(),
                        Value::Str(if ev.kind.is_span() { "X" } else { "i" }.into()),
                    ),
                    ("pid".into(), Value::Num(1.0)),
                    ("tid".into(), Value::Num(tid)),
                    ("ts".into(), Value::Num(ev.ts_ns as f64 / 1e3)),
                ];
                if ev.kind.is_span() {
                    fields.push(("dur".into(), Value::Num(ev.dur_ns as f64 / 1e3)));
                } else {
                    // Thread-scoped instant.
                    fields.push(("s".into(), Value::Str("t".into())));
                }
                fields.push((
                    "args".into(),
                    Value::Obj(vec![("arg".into(), Value::Num(ev.arg as f64))]),
                ));
                events.push(Value::Obj(fields));
            }
        }
        let dropped: Vec<Value> = self
            .tracks
            .iter()
            .map(|t| {
                Value::Obj(vec![
                    ("track".into(), Value::Str(t.label.clone())),
                    ("dropped".into(), Value::Num(t.dropped as f64)),
                    ("written".into(), Value::Num(t.written as f64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("otherData".into(), Value::Arr(dropped)),
        ])
        .to_compact()
    }
}

/// One ring slot: a per-slot sequence plus the event payload, all
/// plain atomics so readers can race writers without `unsafe`.
#[derive(Default)]
struct Slot {
    /// `0` = never written; `2t+1` = ticket `t` in flight;
    /// `2t+2` = ticket `t` published.
    seq: AtomicU64,
    ts: AtomicU64,
    dur: AtomicU64,
    kind: AtomicU64,
    arg: AtomicU64,
}

/// A fixed-capacity single-writer / many-reader event ring with
/// flight-recorder overwrite semantics (see the [module
/// docs](self) for the slot protocol).
pub(crate) struct TraceRing {
    /// The tracer's epoch: timestamps are nanoseconds since it.
    epoch: Instant,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceRing {
    fn new(epoch: Instant, capacity: usize) -> TraceRing {
        TraceRing {
            epoch,
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`.
    #[inline]
    pub(crate) fn span(&self, start: Instant, end: Instant, kind: EventKind, arg: u64) {
        let ts = self.ns(start);
        self.write(ts, self.ns(end).saturating_sub(ts), kind, arg);
    }

    /// Records an instant event now.
    #[inline]
    pub(crate) fn instant(&self, kind: EventKind, arg: u64) {
        self.write(self.ns(Instant::now()), 0, kind, arg);
    }

    /// Total events ever written.
    fn written(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to wraparound so far (exact: every write past
    /// capacity overwrites exactly one older event).
    fn dropped(&self) -> u64 {
        self.written().saturating_sub(self.slots.len() as u64)
    }

    /// Records one event. Called only by the ring's owning thread.
    /// Cold and out of line, so the store sequence stays out of the
    /// callers' loops.
    #[cold]
    #[inline(never)]
    fn write(&self, ts_ns: u64, dur_ns: u64, kind: EventKind, arg: u64) {
        let t = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(t % self.slots.len() as u64) as usize];
        // Odd = in flight. The AcqRel swap keeps the payload stores
        // below from floating above it; the Release publish keeps
        // them from floating below.
        slot.seq.swap(2 * t + 1, Ordering::AcqRel);
        slot.ts.store(ts_ns, Ordering::Relaxed);
        slot.dur.store(dur_ns, Ordering::Relaxed);
        slot.kind.store(u64::from(kind as u8), Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.seq.store(2 * t + 2, Ordering::Release);
    }

    /// Copies out every consistent event, oldest→newest. Slots
    /// mid-write (or overwritten between the two sequence reads)
    /// are skipped, never reported torn.
    fn snapshot(&self) -> (Vec<TraceEvent>, u64, u64) {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or in flight
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let dur = slot.dur.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            // The Release half of this no-op RMW pins the payload
            // loads above before the re-check.
            let s2 = slot.seq.fetch_add(0, Ordering::AcqRel);
            if s1 != s2 {
                continue; // overwritten while copying
            }
            let Some(kind) = EventKind::from_u8(kind as u8) else {
                continue;
            };
            events.push(TraceEvent {
                ticket: (s1 - 2) / 2,
                ts_ns: ts,
                dur_ns: dur,
                kind,
                arg,
            });
        }
        events.sort_unstable_by_key(|e| e.ticket);
        (events, self.dropped(), self.written())
    }
}

struct Inner {
    epoch: Instant,
    capacity: usize,
    rings: Mutex<Vec<(String, Arc<TraceRing>)>>,
    postmortem_dir: Mutex<Option<PathBuf>>,
    postmortem_seq: AtomicU64,
}

/// The shared trace registry: hands out per-thread rings, owns the
/// monotonic epoch, snapshots and exports every ring. Holding one means
/// tracing is on: every [`crate::Probe`] built with it records. Cheap
/// to clone (an `Arc`).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with the default per-ring capacity
    /// ([`DEFAULT_RING_CAPACITY`]).
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A tracer whose rings hold `capacity` events each.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                rings: Mutex::new(Vec::new()),
                postmortem_dir: Mutex::new(None),
                postmortem_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Directory for [`Tracer::postmortem_dump`] files (`None`
    /// disables postmortems).
    pub fn set_postmortem_dir(&self, dir: Option<PathBuf>) {
        *self
            .inner
            .postmortem_dir
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = dir;
    }

    /// Registers a new ring under `label` (one per owning thread /
    /// component; labels become `chrome://tracing` track names).
    pub(crate) fn register(&self, label: &str) -> Arc<TraceRing> {
        let ring = Arc::new(TraceRing::new(self.inner.epoch, self.inner.capacity));
        self.inner
            .rings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((label.to_string(), Arc::clone(&ring)));
        ring
    }

    /// Freezes every registered ring.
    pub fn snapshot(&self) -> TraceSnapshot {
        let rings: Vec<(String, Arc<TraceRing>)> = self
            .inner
            .rings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        TraceSnapshot {
            tracks: rings
                .into_iter()
                .map(|(label, ring)| {
                    let (events, dropped, written) = ring.snapshot();
                    TrackSnapshot {
                        label,
                        events,
                        dropped,
                        written,
                    }
                })
                .collect(),
        }
    }

    /// Snapshots every ring and renders Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        self.snapshot().to_chrome_json()
    }

    /// Writes a postmortem dump (the newest events from every
    /// ring, as Chrome trace JSON) into the configured directory,
    /// returning the file path. `None` when no directory is set or
    /// the write fails — the supervisor must never die on a
    /// postmortem.
    pub fn postmortem_dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = self
            .inner
            .postmortem_dir
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()?;
        let seq = self.inner.postmortem_seq.fetch_add(1, Ordering::Relaxed);
        let sanitized: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("postmortem-{seq}-{sanitized}.json"));
        std::fs::create_dir_all(&dir).ok()?;
        std::fs::write(&path, self.to_chrome_json()).ok()?;
        Some(path)
    }

    /// Writes the current snapshot as Chrome trace JSON to `path`.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn spans_and_instants_record_with_kinds_and_args() {
        let tracer = Tracer::with_capacity(16);
        let h = tracer.register("t");
        h.span(Instant::now(), Instant::now(), EventKind::Frame, 64);
        h.instant(EventKind::Match, 7);
        let snap = tracer.snapshot();
        assert_eq!(snap.tracks.len(), 1);
        assert_eq!(snap.tracks[0].label, "t");
        let events = &snap.tracks[0].events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Frame);
        assert_eq!(events[0].arg, 64);
        assert_eq!(events[1].kind, EventKind::Match);
        assert_eq!(events[1].arg, 7);
        assert_eq!(events[1].dur_ns, 0);
        assert!(events[0].ts_ns <= events[1].ts_ns);
        assert_eq!(snap.tracks[0].dropped, 0);
    }

    #[test]
    fn wraparound_preserves_newest_n_ordering_and_exact_drop_count() {
        let cap = 8u64;
        let tracer = Tracer::with_capacity(cap as usize);
        let h = tracer.register("t");
        let total = 21u64;
        for i in 0..total {
            h.instant(EventKind::Match, i);
        }
        let snap = tracer.snapshot();
        let track = &snap.tracks[0];
        assert_eq!(track.written, total);
        assert_eq!(track.dropped, total - cap, "drop counter must be exact");
        let tickets: Vec<u64> = track.events.iter().map(|e| e.ticket).collect();
        let expect: Vec<u64> = (total - cap..total).collect();
        assert_eq!(tickets, expect, "newest-N in ticket order");
        for e in &track.events {
            assert_eq!(e.arg, e.ticket, "payload follows its ticket");
        }
        // Timestamps are monotone across the surviving window.
        for w in track.events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn no_overflow_means_no_drops() {
        let tracer = Tracer::with_capacity(32);
        let h = tracer.register("t");
        for i in 0..32 {
            h.instant(EventKind::ConnOpen, i);
        }
        let track = &tracer.snapshot().tracks[0];
        assert_eq!(track.dropped, 0);
        assert_eq!(track.events.len(), 32);
    }

    #[test]
    fn concurrent_writers_never_tear_an_event() {
        // W writer threads hammer their own rings (the single-writer
        // contract) while this thread snapshots continuously. Every
        // event a snapshot reports must be internally consistent:
        // arg == !ts (bitwise), an invariant every writer maintains.
        let writers = 4;
        let iters: u64 = if cfg!(miri) { 64 } else { 20_000 };
        let tracer = Tracer::with_capacity(32);
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let h = tracer.register(&format!("w{w}"));
                std::thread::spawn(move || {
                    for i in 0..iters {
                        // ts and arg are coupled; a torn slot breaks it.
                        h.write(i, 0, EventKind::Frame, !i);
                    }
                })
            })
            .collect();
        let mut seen = 0usize;
        while !stop.load(Ordering::Relaxed) {
            let snap = tracer.snapshot();
            for track in &snap.tracks {
                for e in &track.events {
                    // ts is the fake counter i; the slot protocol
                    // guarantees arg matches it.
                    assert_eq!(e.arg, !e.ts_ns, "torn event: {e:?}");
                }
                seen += track.events.len();
            }
            if handles.iter().all(|h| h.is_finished()) {
                stop.store(true, Ordering::Relaxed);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(seen > 0, "snapshots observed no events");
        // Final accounting is exact per ring.
        for track in &tracer.snapshot().tracks {
            assert_eq!(track.written, iters);
            assert_eq!(track.dropped, iters.saturating_sub(32));
        }
    }

    #[test]
    fn chrome_json_shape_is_loadable() {
        use spring_util::json::Value;
        let tracer = Tracer::with_capacity(16);
        let h = tracer.register("worker-0");
        h.span(Instant::now(), Instant::now(), EventKind::Frame, 3);
        h.instant(EventKind::QuerySwap, 1);
        let json = tracer.to_chrome_json();
        let doc = Value::parse(&json).expect("chrome trace JSON parses");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        // process_name + thread_name metadata + 2 events.
        assert_eq!(events.len(), 4);
        let meta = &events[1];
        assert_eq!(meta.get("ph").and_then(Value::as_str), Some("M"));
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str),
            Some("worker-0")
        );
        for ev in &events[2..] {
            assert!(ev.get("name").and_then(Value::as_str).is_some());
            assert!(ev.get("ts").and_then(Value::as_f64).is_some());
            assert!(ev.get("pid").and_then(Value::as_f64).is_some());
            assert!(ev.get("tid").and_then(Value::as_f64).is_some());
            let ph = ev.get("ph").and_then(Value::as_str).unwrap();
            match ph {
                "X" => assert!(ev.get("dur").and_then(Value::as_f64).is_some()),
                "i" => assert_eq!(ev.get("s").and_then(Value::as_str), Some("t")),
                other => panic!("unexpected ph {other:?}"),
            }
        }
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
    }

    #[test]
    fn postmortem_dump_writes_into_the_configured_dir() {
        let dir = std::env::temp_dir().join(format!("spring-trace-pm-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let tracer = Tracer::with_capacity(16);
        let h = tracer.register("worker-0");
        h.instant(EventKind::WorkerRestart, 2);
        assert_eq!(tracer.postmortem_dump("x"), None, "no dir configured yet");
        tracer.set_postmortem_dir(Some(dir.clone()));
        let path = tracer.postmortem_dump("worker lost").expect("dump written");
        assert!(path.starts_with(&dir));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("worker_restart"), "{text}");
        spring_util::json::Value::parse(&text).expect("postmortem is valid JSON");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_kind_codec_roundtrips() {
        for raw in 0u8..=255 {
            if let Some(kind) = EventKind::from_u8(raw) {
                assert_eq!(kind as u8, raw);
                assert!(!kind.name().is_empty());
            }
        }
        assert!(EventKind::Frame.is_span());
        assert!(!EventKind::Match.is_span());
    }
}
