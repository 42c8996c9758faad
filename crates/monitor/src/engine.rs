//! The single-threaded monitoring engine, generic over any [`Monitor`].
//!
//! One [`Engine`] instance watches any number of streams against any
//! number of query patterns; each (stream, query) attachment owns an
//! independent monitor of type `M`. Instantiations:
//!
//! * [`SpringEngine`] (`Engine<Spring<Kernel>>`) — the paper's plain
//!   disjoint query on scalar streams.
//! * [`MixedEngine`] (`Engine<ScalarMonitor>`) — mixed-variant
//!   deployments: raw, z-normalized, bounded, … attachments side by side
//!   on the same streams, built from [`MonitorSpec`]s.
//! * [`VectorEngine`] (`Engine<VectorSpring<Kernel>>`) — `k`-dimensional
//!   vector streams (paper Sec. 5.3).
//!
//! Missing samples (any sample `M::is_missing` reports true, e.g. NaN)
//! are handled per attachment via a [`GapPolicy`]. The gap handling and
//! tick bookkeeping live in one code path, `ingest_frame`: a frame
//! for [`Engine::push_batch`] and the threaded [`crate::Runner`]'s
//! workers, a one-sample frame for [`Engine::push`].

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use spring_core::monitor::{FrameScan, Monitor, MonitorVariant};
use spring_core::{
    Match, MonitorSpec, QueryArena, ScalarMonitor, Spring, SpringConfig, SpringError, VectorSpring,
};
use spring_dtw::Kernel;

use crate::metrics::{MemoryShare, Metrics, LATENCY_SAMPLE_EVERY};
use crate::probe::Probe;
use crate::trace::{EventKind as TraceKind, Tracer};

/// Identifier of a registered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Identifier of a registered query pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

/// Identifier of a (stream, query) attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttachmentId(pub u32);

/// How an attachment treats a missing (NaN / non-finite) sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GapPolicy {
    /// Skip the tick: the monitor does not advance (DTW tolerates the
    /// resulting time-axis compression by design). The default.
    #[default]
    Skip,
    /// Repeat the last observed value; before any observation, skip.
    CarryForward,
    /// Treat a missing sample as an error.
    Fail,
}

/// A confirmed match on one attachment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Stream the match occurred on.
    pub stream: StreamId,
    /// Query that matched.
    pub query: QueryId,
    /// Attachment that produced the event.
    pub attachment: AttachmentId,
    /// Which monitor variant confirmed the match (distinguishes events
    /// in mixed-variant deployments).
    pub variant: MonitorVariant,
    /// The match itself (ticks are per-stream, 1-based).
    pub m: Match,
}

/// Errors from engine/runner configuration and ingestion.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MonitorError {
    /// Referenced stream id was never registered.
    UnknownStream(StreamId),
    /// Referenced query id was never registered.
    UnknownQuery(QueryId),
    /// Underlying SPRING error (invalid query / epsilon / input).
    Spring(SpringError),
    /// A missing sample arrived on an attachment with [`GapPolicy::Fail`].
    MissingSample {
        /// Stream the sample arrived on.
        stream: StreamId,
        /// 1-based tick of the offending sample.
        tick: u64,
    },
    /// Referenced attachment id was never registered (or already
    /// detached).
    UnknownAttachment(AttachmentId),
    /// A [`crate::Runner`] worker thread died (panicked or stopped after
    /// an ingestion error) and could not be restarted, so at least one
    /// shard is no longer monitored.
    WorkerLost,
    /// A fault injected through the `failpoints` testing feature.
    #[cfg(feature = "failpoints")]
    Injected(&'static str),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::UnknownStream(id) => write!(f, "unknown stream {}", id.0),
            MonitorError::UnknownQuery(id) => write!(f, "unknown query {}", id.0),
            MonitorError::Spring(e) => write!(f, "{e}"),
            MonitorError::MissingSample { stream, tick } => {
                write!(f, "missing sample on stream {} at tick {tick}", stream.0)
            }
            MonitorError::UnknownAttachment(id) => write!(f, "unknown attachment {}", id.0),
            MonitorError::WorkerLost => write!(f, "a monitor worker thread was lost"),
            #[cfg(feature = "failpoints")]
            MonitorError::Injected(site) => write!(f, "injected fault at failpoint `{site}`"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<SpringError> for MonitorError {
    fn from(e: SpringError) -> Self {
        MonitorError::Spring(e)
    }
}

/// The owned form of a monitor's sample (`f64` / `Vec<f64>`).
pub type Owned<M> = <<M as Monitor>::Sample as ToOwned>::Owned;

#[derive(Debug)]
struct StreamState {
    name: String,
    /// Ticks pushed so far (including skipped/missing ones).
    ticks: u64,
    /// Channels per sample; `None` until pinned by a vector attachment.
    channels: Option<usize>,
}

struct QueryDef<M: Monitor> {
    name: String,
    samples: Vec<Owned<M>>,
    /// Bumped by every [`Engine::swap_query`]; recorded into the
    /// rebuilt monitors (and from there into checkpoints/snapshots).
    generation: u64,
}

/// The stored recipe an attachment was built from: called again with
/// the query's new samples to rebuild the monitor on a hot-swap,
/// preserving the attachment's own ε / variant / kernel choices.
pub type AttachmentBuilder<M> = Arc<dyn Fn(&[Owned<M>]) -> Result<M, SpringError> + Send + Sync>;

/// The registration-time sample validation shared by
/// [`Engine::add_query`], [`Engine::swap_query`], and
/// [`crate::Runner::swap_query`]: non-empty, no missing samples, and a
/// consistent channel count.
pub(crate) fn validate_query_samples<M: Monitor>(samples: &[Owned<M>]) -> Result<(), MonitorError> {
    if samples.is_empty() {
        return Err(MonitorError::Spring(SpringError::EmptyQuery));
    }
    let dim = M::sample_dim(samples[0].borrow());
    for (index, s) in samples.iter().enumerate() {
        let s: &M::Sample = s.borrow();
        if M::is_missing(s) {
            return Err(MonitorError::Spring(SpringError::NonFiniteQuery { index }));
        }
        if M::sample_dim(s) != dim {
            return Err(MonitorError::Spring(SpringError::InvalidQuery(format!(
                "query row {index} has {} channels, expected {dim}",
                M::sample_dim(s)
            ))));
        }
    }
    Ok(())
}

/// One (stream, query) attachment: a monitor plus its gap handling.
///
/// Every tick reaches it through [`ingest_frame`], the code path shared
/// by [`Engine::push`], [`Engine::push_batch`] and the [`crate::Runner`]
/// worker loop, so single- and multi-threaded deployments behave
/// identically tick for tick.
pub(crate) struct Attachment<M: Monitor> {
    pub(crate) id: AttachmentId,
    pub(crate) stream: StreamId,
    pub(crate) query: QueryId,
    pub(crate) monitor: M,
    pub(crate) gap_policy: GapPolicy,
    /// The recipe this monitor was built from ([`AttachmentBuilder`]);
    /// `None` for monitors handed in pre-built, which cannot be rebuilt
    /// on a query hot-swap.
    pub(crate) builder: Option<AttachmentBuilder<M>>,
    /// Last present sample (kept only under [`GapPolicy::CarryForward`]).
    last_observed: Option<Owned<M>>,
    /// Samples seen by this attachment (including missing ones).
    ticks: u64,
    /// This monitor's share of the memory gauges (`None` without a
    /// metrics registry).
    memory: Option<MemoryShare>,
}

impl<M: Monitor> Attachment<M> {
    pub(crate) fn new(
        id: AttachmentId,
        stream: StreamId,
        query: QueryId,
        monitor: M,
        gap_policy: GapPolicy,
    ) -> Self {
        Attachment {
            id,
            stream,
            query,
            monitor,
            gap_policy,
            builder: None,
            last_observed: None,
            ticks: 0,
            memory: None,
        }
    }

    /// Stores the recipe this monitor was built from, enabling query
    /// hot-swap rebuilds.
    pub(crate) fn with_builder(mut self, builder: AttachmentBuilder<M>) -> Self {
        self.builder = Some(builder);
        self
    }

    /// Attaches this monitor to a metrics registry and adds its share of
    /// the live memory gauges; dropping the attachment releases it.
    /// Monitors borrowing a shared arena query also take one fleet-wide
    /// reference on its resident cells.
    pub(crate) fn set_metrics(&mut self, metrics: &Arc<Metrics>) {
        let mut share = MemoryShare::new(Arc::clone(metrics));
        if let Some(fp) = self.monitor.query_fingerprint() {
            share.retain_shared(fp, self.monitor.shared_memory_cells());
        }
        self.memory = Some(share);
        self.refresh_memory();
    }

    /// Brings this monitor's share of the live memory gauges up to date
    /// (a write only when it changed).
    fn refresh_memory(&mut self) {
        if let Some(share) = self.memory.as_mut() {
            share.set(self.monitor.memory_use(), self.monitor.memory_cells());
        }
    }

    fn event(&self, m: Match) -> Event {
        Event {
            stream: self.stream,
            query: self.query,
            attachment: self.id,
            variant: self.monitor.variant(),
            m,
        }
    }

    /// Consumes one frame of raw samples, already scanned into
    /// `scratch.scan` ([`Monitor::scan_frame`]): a frame the monitor
    /// proves idle ([`Monitor::skip_frame`]) is consumed at once;
    /// otherwise each run of present samples is stepped with one
    /// [`Monitor::step_run`] and each missing sample takes the
    /// per-sample gap path. Events are appended to `scratch` tagged with
    /// their frame offset and this attachment's `rank`, and the missing
    /// samples consumed are counted into it. Metrics are the caller's
    /// ([`ingest_frame`] records them once per frame).
    ///
    /// # Errors
    /// `(offset, error)` of the first failing sample. Samples before it
    /// are consumed and their events appended, as a per-sample loop
    /// would leave them.
    pub(crate) fn ingest_frame(
        &mut self,
        samples: &[Owned<M>],
        rank: usize,
        scratch: &mut FrameScratch,
    ) -> Result<(), (usize, MonitorError)> {
        crate::fail_point!(
            "attachment::ingest",
            (0, MonitorError::Injected("attachment::ingest"))
        );
        // A frame the monitor proves idle skips the step path.
        if self.monitor.skip_frame(samples, &scratch.scan) {
            self.ticks += samples.len() as u64;
            if let (GapPolicy::CarryForward, Some(last)) = (self.gap_policy, samples.last()) {
                let last: &M::Sample = last.borrow();
                self.last_observed = Some(last.to_owned());
            }
            return Ok(());
        }
        // `at`: the next sample to step; `g`: the next missing sample.
        let (mut at, mut g) = (0, 0);
        loop {
            let gap = match scratch.scan.missing().get(g) {
                Some(&k) if k < samples.len() => k,
                _ => samples.len(),
            };
            if gap > at {
                self.step_run(&samples[at..gap], at, rank, scratch)?;
            }
            let Some(sample) = samples.get(gap) else {
                return Ok(());
            };
            scratch.missing += 1;
            let hit = self.step_sample(sample.borrow()).map_err(|e| (gap, e))?;
            scratch.events.extend(hit.map(|event| FrameEvent {
                offset: gap,
                rank,
                event,
            }));
            (at, g) = (gap + 1, g + 1);
        }
    }

    /// Steps a run of present samples starting at frame offset `at`
    /// through [`Monitor::step_run`].
    fn step_run(
        &mut self,
        run: &[Owned<M>],
        at: usize,
        rank: usize,
        scratch: &mut FrameScratch,
    ) -> Result<(), (usize, MonitorError)> {
        let before = self.monitor.tick();
        scratch.hits.clear();
        let stepped = self
            .monitor
            .step_run(run, at, &scratch.scan, &mut scratch.hits);
        let consumed = match stepped {
            Ok(()) => run.len(),
            Err(_) => (self.monitor.tick() - before) as usize,
        };
        // Like `step_sample`, a failing sample still counts as seen.
        self.ticks += (consumed + usize::from(stepped.is_err())) as u64;
        if matches!(self.gap_policy, GapPolicy::CarryForward) {
            let last: &M::Sample = run[consumed.min(run.len() - 1)].borrow();
            self.last_observed = Some(last.to_owned());
        }
        for hit in &scratch.hits {
            // A match is reported at the tick of the step that confirmed
            // it, which places it within the run.
            let offset = hit.reported_at.saturating_sub(before + 1) as usize;
            scratch.events.push(FrameEvent {
                offset: at + offset.min(run.len() - 1),
                rank,
                event: self.event(*hit),
            });
        }
        stepped.map_err(|e| (at + consumed, e.into()))
    }

    /// Counts one tick, resolves the gap policy for `sample` and steps
    /// the monitor: the gap path of [`Attachment::ingest_frame`].
    fn step_sample(&mut self, sample: &M::Sample) -> Result<Option<Event>, MonitorError> {
        self.ticks += 1;
        let resolved: Option<&M::Sample> = if M::is_missing(sample) {
            match self.gap_policy {
                GapPolicy::Skip => None,
                GapPolicy::CarryForward => self.last_observed.as_ref().map(Borrow::borrow),
                GapPolicy::Fail => {
                    return Err(MonitorError::MissingSample {
                        stream: self.stream,
                        tick: self.ticks,
                    })
                }
            }
        } else {
            if matches!(self.gap_policy, GapPolicy::CarryForward) {
                self.last_observed = Some(sample.to_owned());
            }
            Some(sample)
        };
        let hit = match resolved {
            Some(x) => self.monitor.step(x)?,
            None => None,
        };
        Ok(hit.map(|m| self.event(m)))
    }

    /// An independent copy of this attachment's monitoring state: same
    /// monitor, gap state, and tick counter, but no metrics. A
    /// copy is not a live monitor, so it holds no share of the memory
    /// gauges and no reference on its shared query; a copy that goes
    /// live again is given one with [`Attachment::set_metrics`].
    ///
    /// This is the [`crate::Runner`] supervisor's in-memory checkpoint:
    /// a worker periodically forks its shard so a restarted worker can
    /// resume from the last consistent state and replay the tail.
    pub(crate) fn fork(&self) -> Attachment<M>
    where
        M: Clone,
        Owned<M>: Clone,
    {
        Attachment {
            id: self.id,
            stream: self.stream,
            query: self.query,
            monitor: self.monitor.clone(),
            gap_policy: self.gap_policy,
            builder: self.builder.clone(),
            last_observed: self.last_observed.clone(),
            ticks: self.ticks,
            memory: None,
        }
    }

    /// Builds the monitor a query swap installs ([`Attachment::install`]):
    /// this attachment's stored recipe applied to `samples`, stamped
    /// with `generation`. The attachment itself is untouched.
    ///
    /// # Errors
    /// Fails when no recipe was stored (pre-built monitor) or the
    /// builder rejects the new samples.
    pub(crate) fn rebuild(&self, samples: &[Owned<M>], generation: u64) -> Result<M, MonitorError> {
        let builder = self.builder.as_ref().ok_or_else(|| {
            MonitorError::Spring(SpringError::InvalidQuery(
                "attachment was built from a pre-constructed monitor; \
                 it has no stored recipe to rebuild on a query swap"
                    .into(),
            ))
        })?;
        let mut monitor = builder(samples)?;
        monitor.set_generation(generation);
        Ok(monitor)
    }

    /// Installs a monitor from [`Attachment::rebuild`]: fresh DP state,
    /// gap state and tick counter (detach-and-reattach semantics), and
    /// the shared-cell metrics reference re-pointed at the new query
    /// entry.
    pub(crate) fn install(&mut self, monitor: M) {
        self.monitor = monitor;
        self.last_observed = None;
        self.ticks = 0;
        if let Some(share) = &self.memory {
            let metrics = Arc::clone(share.metrics());
            self.set_metrics(&metrics);
        }
    }

    /// Declares end-of-stream on this attachment, flushing a pending
    /// group optimum.
    pub(crate) fn flush(&mut self) -> Option<Event> {
        self.monitor.finish().map(|m| self.event(m))
    }
}

/// An event produced inside a frame, tagged with its place in
/// sample-major order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameEvent {
    /// Offset within the frame of the sample that confirmed it.
    pub(crate) offset: usize,
    /// Position of its attachment among the stream's attachments.
    pub(crate) rank: usize,
    pub(crate) event: Event,
}

/// Reusable state of frame-at-a-time ingestion: one per engine and per
/// runner worker, so the steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct FrameScratch {
    /// The frame's one pass: missing samples and chunk ranges.
    scan: FrameScan,
    /// One run's matches from [`Monitor::step_run`].
    hits: Vec<Match>,
    /// The frame's events; sample-major after [`ingest_frame`].
    pub(crate) events: Vec<FrameEvent>,
    /// Missing samples the frame's attachments consumed.
    missing: u64,
    /// Stream ticks ingested through frames so far: the sampling clock.
    clock: u64,
    /// Frames sampled so far.
    sampled: u64,
}

impl FrameScratch {
    /// Advances the sampling clock by a frame of `len` stream ticks;
    /// `true` when the frame is sampled: when it holds stream tick 1,
    /// 1 + [`LATENCY_SAMPLE_EVERY`], 1 + 2 × [`LATENCY_SAMPLE_EVERY`], …
    fn sample(&mut self, len: usize) -> bool {
        let into = self.clock % LATENCY_SAMPLE_EVERY;
        self.clock += len as u64;
        len > 0 && (into == 0 || into + len as u64 > LATENCY_SAMPLE_EVERY)
    }
}

/// Steps one frame of a stream through its attachments (`indices` into
/// `attachments`, in attach order) one attachment at a time, then sorts
/// `scratch.events` into the order a sample-major loop produces them:
/// by frame offset, then attachment.
///
/// The frame is scanned once ([`Monitor::scan_frame`]) for all of its
/// attachments, and recorded into `probe` once ([`Probe::frame`]): the
/// attachment-ticks and missing samples, and for a sampled frame (one
/// per [`LATENCY_SAMPLE_EVERY`] stream ticks, timed when the probe has
/// a sink) the mean time per attachment-tick and the `frame` span. A
/// sampled frame also refreshes one attachment's memory share, taking
/// the attachments in turn. Matches are the caller's to record, as it
/// delivers them.
///
/// # Errors
/// `(offset, error)` of the first failure in sample-major order. Every
/// attachment that a per-sample loop would have run before the failure
/// has ingested through `offset`; the others stopped just before it;
/// `scratch.events` holds exactly the events produced before the
/// failure. A missing sample under [`GapPolicy::Fail`] is found before
/// any attachment steps, so the state and the metrics are exactly a
/// per-sample loop's; an unforeseen failure (a monitor error, an
/// injected fault) can leave attachments ranked before it further on.
pub(crate) fn ingest_frame<M: Monitor>(
    attachments: &mut [Attachment<M>],
    indices: &[usize],
    samples: &[Owned<M>],
    scratch: &mut FrameScratch,
    probe: &Probe,
) -> Result<(), (usize, MonitorError)> {
    // A sampled frame is timed when the probe has a sink.
    let sampled = scratch.sample(samples.len());
    let timed = sampled && (probe.metrics.is_some() || probe.ring.is_some());
    let started = timed.then(Instant::now);
    scratch.events.clear();
    scratch.missing = 0;
    M::scan_frame(samples, &mut scratch.scan);
    // The first missing sample stops the frame at the first Fail
    // attachment: (offset, rank).
    let mut stop = scratch.scan.missing().first().and_then(|&k| {
        let fail = |&i: &usize| attachments[i].gap_policy == GapPolicy::Fail;
        indices.iter().position(fail).map(|r| (k, r))
    });
    let mut failure = None;
    let mut ticks = 0;
    for (rank, &i) in indices.iter().enumerate() {
        // Attachments up to the stopping one still see the stopping
        // tick; the ones after it stop before it.
        let len = match stop {
            Some((k, r)) if rank <= r => k + 1,
            Some((k, _)) => k,
            None => samples.len(),
        };
        let att = &mut attachments[i];
        let before = att.ticks;
        let ingested = att.ingest_frame(&samples[..len], rank, scratch);
        ticks += att.ticks - before;
        if let Err((k, e)) = ingested {
            stop = Some((k, rank));
            failure = Some((k, e));
            scratch.events.retain(|ev| (ev.offset, ev.rank) < (k, rank));
        }
    }
    scratch
        .events
        .sort_unstable_by_key(|ev| (ev.offset, ev.rank));
    // A failing tick is processed too.
    let processed = failure.as_ref().map_or(samples.len(), |&(k, _)| k + 1);
    probe.frame(started, processed as u64, ticks, scratch.missing);
    if sampled {
        // One attachment's memory per sampled frame, in turn: a
        // monitor's memory changes rarely (attach, swap and detach set
        // it at once), and reading it is a cost per attachment.
        if let Some(&i) = indices.get(scratch.sampled as usize % indices.len().max(1)) {
            attachments[i].refresh_memory();
        }
        scratch.sampled += 1;
    }
    failure.map_or(Ok(()), Err)
}

/// Monitors any number of streams against any number of query patterns,
/// each attachment an independent monitor of type `M`.
///
/// # Examples
/// ```
/// use spring_monitor::{GapPolicy, SpringEngine};
///
/// let mut engine = SpringEngine::new();
/// let sensor = engine.add_stream("sensor-1");
/// let spike = engine.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
/// engine.attach(sensor, spike, 1.0, GapPolicy::Skip).unwrap();
///
/// let mut events = Vec::new();
/// for x in [50.0, 50.0, 0.0, 10.0, 0.0, 50.0, 50.0] {
///     events.extend(engine.push(sensor, &x).unwrap());
/// }
/// events.extend(engine.finish_stream(sensor).unwrap());
/// assert_eq!(events.len(), 1);
/// assert_eq!((events[0].m.start, events[0].m.end), (3, 5));
/// ```
pub struct Engine<M: Monitor> {
    streams: Vec<StreamState>,
    queries: Vec<QueryDef<M>>,
    attachments: Vec<Attachment<M>>,
    /// Attachment indices per stream, for O(per-stream) dispatch.
    by_stream: HashMap<StreamId, Vec<usize>>,
    /// Shared immutable query storage: the typed attachers intern
    /// patterns here, so attaching one query to many streams allocates
    /// its samples and derived caches exactly once.
    arena: Arc<QueryArena>,
    /// The engine's recording hook: the registry shared by all
    /// attachments ([`Engine::set_metrics`]) and the flight-recorder
    /// ring ([`Engine::set_tracer`]), each absent until set.
    probe: Probe,
    /// The reused frame buffers of [`Engine::push`] and
    /// [`Engine::push_batch`].
    frame: FrameScratch,
    /// [`Engine::push`]'s one-sample frame, reused across pushes.
    one: Vec<Owned<M>>,
}

/// Engine over the paper's plain disjoint-query monitor.
pub type SpringEngine = Engine<Spring<Kernel>>;

/// Engine over [`ScalarMonitor`] attachments: any mix of variants
/// (raw, z-normalized, bounded, …) on the same streams.
pub type MixedEngine = Engine<ScalarMonitor>;

/// Engine over `k`-dimensional vector streams (paper Sec. 5.3).
pub type VectorEngine = Engine<VectorSpring<Kernel>>;

/// A confirmed match on a vector-stream attachment (kept as an alias:
/// scalar and vector engines now share one [`Event`] type).
pub type VectorEvent = Event;

impl<M: Monitor> Default for Engine<M> {
    fn default() -> Self {
        Engine {
            streams: Vec::new(),
            queries: Vec::new(),
            attachments: Vec::new(),
            by_stream: HashMap::new(),
            arena: Arc::new(QueryArena::new()),
            probe: Probe::default(),
            frame: FrameScratch::default(),
            one: Vec::new(),
        }
    }
}

impl<M: Monitor> Engine<M> {
    /// An empty engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Connects the engine to an observability registry: existing and
    /// future attachments record ticks, matches, detection delay,
    /// sampled tick latency, and their live-memory share into it. Read
    /// it back any time via [`Engine::metrics`] /
    /// [`Metrics::snapshot`].
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        for att in &mut self.attachments {
            att.set_metrics(&metrics);
        }
        self.probe.metrics = Some(metrics);
    }

    /// The registry installed by [`Engine::set_metrics`], if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.probe.metrics()
    }

    /// Connects the engine to a flight recorder: registers a ring under
    /// `label` and records sampled frame spans, match instants,
    /// query-swap instants, and flush spans into it. The engine is the
    /// ring's single writer.
    pub fn set_tracer(&mut self, tracer: &Tracer, label: &str) {
        self.probe.ring = Some(tracer.register(label));
    }

    /// Registers a stream and returns its id.
    pub fn add_stream(&mut self, name: impl Into<String>) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(StreamState {
            name: name.into(),
            ticks: 0,
            channels: None,
        });
        self.by_stream.entry(id).or_default();
        id
    }

    /// Registers a stream carrying `channels` values per tick. Vector
    /// attachments and pushed rows are validated against this count.
    pub fn add_channel_stream(&mut self, name: impl Into<String>, channels: usize) -> StreamId {
        let id = self.add_stream(name);
        self.streams[id.0 as usize].channels = Some(channels);
        id
    }

    /// Registers a query pattern (one sample per tick) and returns its
    /// id.
    ///
    /// # Errors
    /// Fails when the pattern is empty, contains a missing sample, or
    /// (vector queries) has ragged rows.
    pub fn add_query(
        &mut self,
        name: impl Into<String>,
        samples: Vec<Owned<M>>,
    ) -> Result<QueryId, MonitorError> {
        validate_query_samples::<M>(&samples)?;
        let id = QueryId(self.queries.len() as u32);
        self.queries.push(QueryDef {
            name: name.into(),
            samples,
            generation: 0,
        });
        Ok(id)
    }

    /// Atomically replaces the pattern behind a registered query and
    /// rebuilds every attachment that watches it (fresh DP state, same
    /// ε / variant / kernel — detach-and-reattach semantics, applied
    /// fleet-wide in one call). Returns the query's new generation,
    /// which is also stamped into each rebuilt monitor (and from there
    /// into checkpoints) and published to the
    /// `spring_query_generation` gauge; `spring_query_swaps_total`
    /// counts the swap.
    ///
    /// The new pattern is validated and every replacement monitor is
    /// built *before* anything is mutated, so a failing swap leaves the
    /// engine untouched.
    ///
    /// # Errors
    /// Fails on an unknown query id, invalid samples, builder
    /// validation, a channel-count mismatch with an attached stream, or
    /// an attachment whose monitor was handed in pre-built (no stored
    /// recipe to rebuild from).
    pub fn swap_query(
        &mut self,
        query: QueryId,
        samples: Vec<Owned<M>>,
    ) -> Result<u64, MonitorError> {
        validate_query_samples::<M>(&samples)?;
        let def = self
            .queries
            .get(query.0 as usize)
            .ok_or(MonitorError::UnknownQuery(query))?;
        let generation = def.generation + 1;
        // Phase 1: rebuild into a side buffer; nothing is committed yet.
        let mut rebuilt: Vec<(usize, M)> = Vec::new();
        for (idx, att) in self.attachments.iter().enumerate() {
            if att.query != query {
                continue;
            }
            let monitor = att.rebuild(&samples, generation)?;
            if let Some(found) = monitor.channels() {
                if let Some(expected) = self.streams[att.stream.0 as usize].channels {
                    if found != expected {
                        return Err(MonitorError::Spring(SpringError::DimensionMismatch {
                            expected,
                            found,
                        }));
                    }
                }
            }
            rebuilt.push((idx, monitor));
        }
        // Phase 2: commit — republish the definition and flip every
        // affected attachment to its rebuilt monitor.
        let def = &mut self.queries[query.0 as usize];
        def.samples = samples;
        def.generation = generation;
        for (idx, monitor) in rebuilt {
            self.attachments[idx].install(monitor);
        }
        // Entries for the old pattern may now be unreferenced.
        self.arena.gc();
        self.probe.swapped(generation);
        Ok(generation)
    }

    /// Current generation of a registered query (0 until the first
    /// [`Engine::swap_query`]).
    pub fn query_generation(&self, id: QueryId) -> Option<u64> {
        self.queries.get(id.0 as usize).map(|q| q.generation)
    }

    /// The shared query arena backing this engine's typed attachers.
    pub fn arena(&self) -> &Arc<QueryArena> {
        &self.arena
    }

    /// Attaches a monitor built by `build` from the registered query's
    /// samples. This is the one generic attachment path; the typed
    /// engines add conveniences ([`SpringEngine::attach`],
    /// [`MixedEngine::attach_spec`], [`VectorEngine::attach`]) on top.
    ///
    /// The builder is *stored* with the attachment: a later
    /// [`Engine::swap_query`] calls it again with the replacement
    /// pattern, so it must capture everything the monitor needs besides
    /// the samples (ε, kernel, spec, …) by value.
    ///
    /// # Errors
    /// Fails on unknown ids, on builder (query/epsilon) validation, and
    /// on a channel-count mismatch with the stream.
    pub fn attach_monitor(
        &mut self,
        stream: StreamId,
        query: QueryId,
        gap_policy: GapPolicy,
        build: impl Fn(&[Owned<M>]) -> Result<M, SpringError> + Send + Sync + 'static,
    ) -> Result<AttachmentId, MonitorError> {
        if stream.0 as usize >= self.streams.len() {
            return Err(MonitorError::UnknownStream(stream));
        }
        let def = self
            .queries
            .get(query.0 as usize)
            .ok_or(MonitorError::UnknownQuery(query))?;
        let mut monitor = build(&def.samples)?;
        // Late attachments join the query at its current generation; a
        // monitor restored from a later one keeps its own.
        monitor.set_generation(monitor.generation().max(def.generation));
        if let Some(expected) = monitor.channels() {
            let state = &mut self.streams[stream.0 as usize];
            match state.channels {
                Some(c) if c != expected => {
                    return Err(MonitorError::Spring(SpringError::DimensionMismatch {
                        expected: c,
                        found: expected,
                    }));
                }
                // First vector attachment pins the stream's width.
                None => state.channels = Some(expected),
                _ => {}
            }
        }
        let id = AttachmentId(self.attachments.len() as u32);
        let idx = self.attachments.len();
        let mut attachment =
            Attachment::new(id, stream, query, monitor, gap_policy).with_builder(Arc::new(build));
        if let Some(metrics) = self.probe.metrics() {
            attachment.set_metrics(metrics);
        }
        self.attachments.push(attachment);
        self.by_stream.entry(stream).or_default().push(idx);
        Ok(id)
    }

    /// Name of a registered stream.
    pub fn stream_name(&self, id: StreamId) -> Option<&str> {
        self.streams.get(id.0 as usize).map(|s| s.name.as_str())
    }

    /// Name of a registered query.
    pub fn query_name(&self, id: QueryId) -> Option<&str> {
        self.queries.get(id.0 as usize).map(|q| q.name.as_str())
    }

    /// Samples of a registered query.
    pub fn query_samples(&self, id: QueryId) -> Option<&[Owned<M>]> {
        self.queries
            .get(id.0 as usize)
            .map(|q| q.samples.as_slice())
    }

    /// Channel count of a registered stream (`None` until declared or
    /// pinned by a vector attachment).
    pub fn stream_channels(&self, id: StreamId) -> Option<usize> {
        self.streams.get(id.0 as usize).and_then(|s| s.channels)
    }

    /// Number of attachments.
    pub fn attachment_count(&self) -> usize {
        self.attachments.len()
    }

    /// The (stream, query) pair of an attachment.
    pub fn attachment_info(&self, id: AttachmentId) -> Option<(StreamId, QueryId)> {
        self.attachments
            .get(id.0 as usize)
            .map(|a| (a.stream, a.query))
    }

    /// The monitor variant of an attachment.
    pub fn attachment_variant(&self, id: AttachmentId) -> Option<MonitorVariant> {
        self.attachments
            .get(id.0 as usize)
            .map(|a| a.monitor.variant())
    }

    /// The monitor of an attachment: its tick, pending candidate and
    /// matrix, read in place.
    pub fn monitor(&self, id: AttachmentId) -> Option<&M> {
        self.attachments.get(id.0 as usize).map(|a| &a.monitor)
    }

    /// Ticks pushed so far on a stream.
    pub fn stream_ticks(&self, id: StreamId) -> Option<u64> {
        self.streams.get(id.0 as usize).map(|s| s.ticks)
    }

    /// Pushes one sample (missing = NaN component) to a stream; returns
    /// the events confirmed at this tick across the stream's
    /// attachments.
    ///
    /// The sample is stepped as a one-sample frame, through the same
    /// path as [`Engine::push_batch`]. In the steady (no-match) state
    /// this performs **no heap allocation**: the frame's one slot is
    /// reused, and the returned `Vec` only allocates when an event is
    /// actually confirmed. High-throughput callers should prefer
    /// [`Engine::push_batch`], which amortizes the per-call overhead
    /// over a whole frame.
    pub fn push(
        &mut self,
        stream: StreamId,
        sample: &M::Sample,
    ) -> Result<Vec<Event>, MonitorError> {
        let mut one = std::mem::take(&mut self.one);
        match one.first_mut() {
            Some(slot) => sample.clone_into(slot),
            None => one.push(sample.to_owned()),
        }
        let mut events = Vec::new(); // allocation-free until a match lands
        let ingested = self.ingest(stream, &one, &mut events);
        self.one = one;
        ingested.map(|()| events)
    }

    /// Pushes a whole frame of samples to a stream, appending every
    /// confirmed event to the caller-owned `out` in tick order.
    ///
    /// Semantically identical to calling [`Engine::push`] once per
    /// sample, but the work is done a frame at a time: the stream state
    /// and attachment indices are resolved once, the channel width is
    /// checked up front, each attachment steps its runs of present
    /// samples with one [`Monitor::step_run`] (idle skip plus the
    /// banded column kernel for SPRING monitors), and the events are
    /// merged back into sample-major order. The steady state performs
    /// zero per-tick heap allocations.
    ///
    /// # Errors
    /// On the first failing sample the error is returned immediately.
    /// Earlier samples of the frame are fully consumed (their events are
    /// in `out`); events from the failing tick itself are discarded —
    /// exactly the state a per-sample `push` loop would leave behind.
    pub fn push_batch(
        &mut self,
        stream: StreamId,
        samples: &[Owned<M>],
        out: &mut Vec<Event>,
    ) -> Result<(), MonitorError> {
        // An unknown stream ingests no frame.
        if self.stream_ticks(stream).is_some() {
            self.probe
                .count(|m| m.batch_len.observe(samples.len() as f64));
        }
        self.ingest(stream, samples, out)
    }

    /// The tick path of [`Engine::push`] and [`Engine::push_batch`]:
    /// cuts the frame at the first sample of the wrong width, steps the
    /// rest through [`ingest_frame`], counts the stream's ticks and
    /// appends the events to `out`, recording each match.
    fn ingest(
        &mut self,
        stream: StreamId,
        samples: &[Owned<M>],
        out: &mut Vec<Event>,
    ) -> Result<(), MonitorError> {
        let Engine {
            streams,
            attachments,
            by_stream,
            probe,
            frame,
            ..
        } = self;
        let state = streams
            .get_mut(stream.0 as usize)
            .ok_or(MonitorError::UnknownStream(stream))?;
        let indices: &[usize] = by_stream.get(&stream).map_or(&[], Vec::as_slice);
        // A sample of the wrong width fails before any attachment sees
        // it, so the frame is cut there.
        let misfit = state.channels.and_then(|expected| {
            samples
                .iter()
                .map(|s| M::sample_dim(s.borrow()))
                .enumerate()
                .find(|&(_, found)| found != expected)
                .map(|(at, found)| {
                    let e = SpringError::DimensionMismatch { expected, found };
                    (at, MonitorError::Spring(e))
                })
        });
        let fit = misfit.as_ref().map_or(samples.len(), |&(at, _)| at);
        let ingested = ingest_frame(attachments, indices, &samples[..fit], frame, probe);
        let (end, seen, result) = match ingested {
            // A tick that fails in a monitor is counted; a wrong-width
            // one is not.
            Err((at, e)) => (at, at + 1, Err(e)),
            Ok(()) => match misfit {
                Some((at, e)) => (at, at, Err(e)),
                None => (fit, fit, Ok(())),
            },
        };
        state.ticks += seen as u64;
        // The failing tick's events are dropped.
        for ev in frame.events.iter().take_while(|ev| ev.offset < end) {
            probe.matched(&ev.event.m);
            out.push(ev.event);
        }
        result
    }

    /// Declares a stream finished, flushing pending group optima on all
    /// of its attachments.
    pub fn finish_stream(&mut self, stream: StreamId) -> Result<Vec<Event>, MonitorError> {
        if stream.0 as usize >= self.streams.len() {
            return Err(MonitorError::UnknownStream(stream));
        }
        let Engine {
            attachments,
            by_stream,
            probe,
            ..
        } = self;
        let indices: &[usize] = by_stream.get(&stream).map_or(&[], Vec::as_slice);
        let events: Vec<Event> = probe.span(TraceKind::Flush, u64::from(stream.0), || {
            indices
                .iter()
                .filter_map(|&i| attachments[i].flush())
                .collect()
        });
        for ev in &events {
            probe.matched(&ev.m);
        }
        Ok(events)
    }

    /// Total bytes of live monitoring state across all attachments
    /// (constant per attachment — Lemma 4 per pair).
    pub fn bytes_used(&self) -> usize {
        self.attachments
            .iter()
            .map(|a| a.monitor.memory_use())
            .sum()
    }

    /// Total live DTW cells across the fleet, counting each shared
    /// arena query once no matter how many attachments borrow it: the
    /// `O(queries·m + attachments·m_cols)` bound the arena establishes.
    pub fn memory_cells(&self) -> usize {
        let mut shared: HashMap<u64, usize> = HashMap::new();
        let mut per_attachment = 0;
        for a in &self.attachments {
            per_attachment += a.monitor.memory_cells();
            if let Some(fp) = a.monitor.query_fingerprint() {
                shared.insert(fp, a.monitor.shared_memory_cells());
            }
        }
        per_attachment + shared.values().sum::<usize>()
    }
}

impl SpringEngine {
    /// Attaches `query` to `stream` with threshold `epsilon` (squared
    /// kernel) and the given gap policy. One query may be attached to
    /// many streams and vice versa; each attachment is independent.
    pub fn attach(
        &mut self,
        stream: StreamId,
        query: QueryId,
        epsilon: f64,
        gap_policy: GapPolicy,
    ) -> Result<AttachmentId, MonitorError> {
        self.attach_with_kernel(stream, query, epsilon, gap_policy, Kernel::Squared)
    }

    /// [`SpringEngine::attach`] with an explicit kernel.
    ///
    /// The pattern is interned into the engine's [`QueryArena`], so the
    /// monitor borrows one shared copy of the samples and derived
    /// caches instead of allocating its own.
    pub fn attach_with_kernel(
        &mut self,
        stream: StreamId,
        query: QueryId,
        epsilon: f64,
        gap_policy: GapPolicy,
        kernel: Kernel,
    ) -> Result<AttachmentId, MonitorError> {
        let arena = Arc::clone(&self.arena);
        self.attach_monitor(stream, query, gap_policy, move |q| {
            Spring::with_query_ref(arena.intern(q)?, SpringConfig::new(epsilon), kernel)
        })
    }
}

impl MixedEngine {
    /// Attaches a monitor described by `spec` (squared kernel). Specs of
    /// different variants may share streams and queries freely; events
    /// carry the variant tag.
    pub fn attach_spec(
        &mut self,
        stream: StreamId,
        query: QueryId,
        spec: MonitorSpec,
        gap_policy: GapPolicy,
    ) -> Result<AttachmentId, MonitorError> {
        self.attach_spec_with_kernel(stream, query, spec, gap_policy, Kernel::Squared)
    }

    /// [`MixedEngine::attach_spec`] with an explicit kernel.
    ///
    /// The pattern is interned into the engine's [`QueryArena`];
    /// variants with a shared constructor borrow the interned entry,
    /// the rest keep a bit-identical private copy
    /// ([`MonitorSpec::build_shared`]).
    pub fn attach_spec_with_kernel(
        &mut self,
        stream: StreamId,
        query: QueryId,
        spec: MonitorSpec,
        gap_policy: GapPolicy,
        kernel: Kernel,
    ) -> Result<AttachmentId, MonitorError> {
        let arena = Arc::clone(&self.arena);
        self.attach_monitor(stream, query, gap_policy, move |q| {
            spec.build_shared(&arena.intern(q)?, kernel)
        })
    }
}

impl VectorEngine {
    /// Attaches vector `query` to `stream` with threshold `epsilon`
    /// (squared kernel). The channel counts must agree.
    pub fn attach(
        &mut self,
        stream: StreamId,
        query: QueryId,
        epsilon: f64,
        gap_policy: GapPolicy,
    ) -> Result<AttachmentId, MonitorError> {
        let arena = Arc::clone(&self.arena);
        self.attach_monitor(stream, query, gap_policy, move |rows| {
            VectorSpring::with_query_ref(arena.intern_vector(rows)?, epsilon, Kernel::Squared)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spike_stream(spike_at: &[usize], len: usize) -> Vec<f64> {
        let mut v = vec![50.0; len];
        for &s in spike_at {
            v[s] = 0.0;
            v[s + 1] = 10.0;
            v[s + 2] = 0.0;
        }
        v
    }

    #[test]
    fn single_stream_single_query_end_to_end() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let mut events = Vec::new();
        for x in spike_stream(&[5, 20], 30) {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].m.start, events[0].m.end), (6, 8));
        assert_eq!((events[1].m.start, events[1].m.end), (21, 23));
        assert!(events.iter().all(|ev| ev.variant == MonitorVariant::Spring));
    }

    #[test]
    fn many_queries_on_one_stream_fire_independently() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let spike = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        let dip = e.add_query("dip", vec![50.0, 45.0, 50.0]).unwrap();
        e.attach(s, spike, 1.0, GapPolicy::Skip).unwrap();
        e.attach(s, dip, 1.0, GapPolicy::Skip).unwrap();
        let mut stream = spike_stream(&[5], 30);
        stream[15] = 45.0; // a dip
        let mut events = Vec::new();
        for x in stream {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        let spikes: Vec<_> = events.iter().filter(|ev| ev.query == spike).collect();
        let dips: Vec<_> = events.iter().filter(|ev| ev.query == dip).collect();
        assert_eq!(spikes.len(), 1);
        assert_eq!(dips.len(), 1);
        assert_eq!((dips[0].m.start, dips[0].m.end), (15, 17));
    }

    #[test]
    fn one_query_on_many_streams_has_independent_tick_counters() {
        let mut e = SpringEngine::new();
        let s1 = e.add_stream("s1");
        let s2 = e.add_stream("s2");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s1, q, 1.0, GapPolicy::Skip).unwrap();
        e.attach(s2, q, 1.0, GapPolicy::Skip).unwrap();
        // Interleave pushes: s2 lags s1 by an offset.
        let v1 = spike_stream(&[3], 12);
        let v2 = spike_stream(&[7], 12);
        let mut events = Vec::new();
        for i in 0..12 {
            events.extend(e.push(s1, &v1[i]).unwrap());
            events.extend(e.push(s2, &v2[i]).unwrap());
        }
        events.extend(e.finish_stream(s1).unwrap());
        events.extend(e.finish_stream(s2).unwrap());
        let on1: Vec<_> = events.iter().filter(|ev| ev.stream == s1).collect();
        let on2: Vec<_> = events.iter().filter(|ev| ev.stream == s2).collect();
        assert_eq!(on1.len(), 1);
        assert_eq!(on2.len(), 1);
        assert_eq!(on1[0].m.start, 4);
        assert_eq!(on2[0].m.start, 8);
    }

    #[test]
    fn gap_policy_skip_tolerates_dropouts_inside_a_match() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        // The pattern appears with a missing tick in the middle; Skip
        // compresses the time axis, which DTW absorbs.
        let stream = [50.0, 50.0, 0.0, 10.0, f64::NAN, 10.0, 0.0, 50.0, 50.0];
        let mut events = Vec::new();
        for x in stream {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].m.distance, 0.0);
    }

    #[test]
    fn gap_policy_fail_surfaces_the_tick() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("q", vec![1.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Fail).unwrap();
        e.push(s, &1.0).unwrap();
        let err = e.push(s, &f64::NAN).unwrap_err();
        assert_eq!(err, MonitorError::MissingSample { stream: s, tick: 2 });
    }

    #[test]
    fn gap_policy_carry_forward_keeps_raw_tick_alignment() {
        // Under CarryForward the monitor advances on the missing tick
        // (repeating the last observation), so reported positions stay in
        // raw-stream coordinates: the match spans the gap tick.
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("ramp", vec![1.0, 2.0, 3.0]).unwrap();
        e.attach(s, q, 0.1, GapPolicy::CarryForward).unwrap();
        let mut events = Vec::new();
        for x in [9.0, 1.0, 2.0, f64::NAN, 3.0, 9.0, 9.0] {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].m.distance, 0.0); // carried 2.0 warps onto y2
        assert_eq!((events[0].m.start, events[0].m.end), (2, 5));
    }

    #[test]
    fn gap_policy_skip_compresses_tick_space() {
        // Under Skip the monitor does not advance on missing ticks, so
        // positions are in observed-sample coordinates.
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("ramp", vec![1.0, 2.0, 3.0]).unwrap();
        e.attach(s, q, 0.1, GapPolicy::Skip).unwrap();
        let mut events = Vec::new();
        for x in [9.0, 1.0, 2.0, f64::NAN, 3.0, 9.0, 9.0] {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].m.distance, 0.0);
        // Observed samples: 9, 1, 2, 3, 9, 9 -> match at observed 2..=4.
        assert_eq!((events[0].m.start, events[0].m.end), (2, 4));
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("q", vec![1.0]).unwrap();
        assert!(matches!(
            e.attach(StreamId(9), q, 1.0, GapPolicy::Skip),
            Err(MonitorError::UnknownStream(_))
        ));
        assert!(matches!(
            e.attach(s, QueryId(9), 1.0, GapPolicy::Skip),
            Err(MonitorError::UnknownQuery(_))
        ));
        assert!(matches!(
            e.push(StreamId(9), &1.0),
            Err(MonitorError::UnknownStream(_))
        ));
        assert!(matches!(
            e.finish_stream(StreamId(9)),
            Err(MonitorError::UnknownStream(_))
        ));
    }

    #[test]
    fn invalid_queries_and_epsilons_are_rejected_at_registration() {
        let mut e = SpringEngine::new();
        assert!(e.add_query("empty", vec![]).is_err());
        assert!(e.add_query("nan", vec![f64::NAN]).is_err());
        let s = e.add_stream("s");
        let q = e.add_query("ok", vec![1.0]).unwrap();
        assert!(e.attach(s, q, -1.0, GapPolicy::Skip).is_err());
    }

    #[test]
    fn names_and_counters_are_queryable() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("sensor-7");
        let q = e.add_query("pattern-x", vec![1.0, 2.0]).unwrap();
        let a = e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        assert_eq!(e.stream_name(s), Some("sensor-7"));
        assert_eq!(e.query_name(q), Some("pattern-x"));
        assert_eq!(e.query_samples(q), Some(&[1.0, 2.0][..]));
        assert_eq!(e.attachment_count(), 1);
        assert_eq!(e.attachment_variant(a), Some(MonitorVariant::Spring));
        e.push(s, &1.0).unwrap();
        assert_eq!(e.stream_ticks(s), Some(1));
        assert!(e.bytes_used() > 0);
    }

    #[test]
    fn memory_is_constant_per_attachment_over_time() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("q", vec![0.5; 64]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        e.push(s, &0.0).unwrap();
        let before = e.bytes_used();
        for t in 0..10_000 {
            e.push(s, &((t as f64 * 0.1).sin())).unwrap();
        }
        assert_eq!(e.bytes_used(), before);
    }

    // ---- batched ingestion ---------------------------------------------

    fn gappy_stream() -> Vec<f64> {
        let mut v = spike_stream(&[5, 20], 40);
        v[11] = f64::NAN;
        v[24] = f64::NAN;
        v
    }

    fn build_engine(policy: GapPolicy) -> (SpringEngine, StreamId) {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let spike = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        let dip = e.add_query("dip", vec![50.0, 45.0, 50.0]).unwrap();
        e.attach(s, spike, 1.0, policy).unwrap();
        e.attach(s, dip, 1.0, policy).unwrap();
        (e, s)
    }

    #[test]
    fn push_batch_agrees_with_push_for_every_gap_policy_and_batch_size() {
        let stream = gappy_stream();
        for policy in [GapPolicy::Skip, GapPolicy::CarryForward] {
            let (mut per_sample, s) = build_engine(policy);
            let mut expect = Vec::new();
            for x in &stream {
                expect.extend(per_sample.push(s, x).unwrap());
            }
            expect.extend(per_sample.finish_stream(s).unwrap());
            for batch in [1usize, 3, 64, stream.len()] {
                let (mut batched, sb) = build_engine(policy);
                let mut got = Vec::new();
                for chunk in stream.chunks(batch) {
                    batched.push_batch(sb, chunk, &mut got).unwrap();
                }
                got.extend(batched.finish_stream(sb).unwrap());
                assert_eq!(got, expect, "policy={policy:?} batch={batch}");
                assert_eq!(batched.stream_ticks(sb), per_sample.stream_ticks(s));
            }
        }
    }

    #[test]
    fn push_batch_error_keeps_prior_tick_events_and_drops_the_failing_tick() {
        // Fail policy: the NaN errors out mid-batch. Events confirmed on
        // earlier ticks of the same batch must survive in `out`.
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Fail).unwrap();
        let batch = [50.0, 0.0, 10.0, 0.0, 50.0, f64::NAN, 0.0];
        let mut out = Vec::new();
        let err = e.push_batch(s, &batch, &mut out).unwrap_err();
        assert_eq!(err, MonitorError::MissingSample { stream: s, tick: 6 });
        // The spike confirmed at tick 5 (one quiet tick after the
        // pattern) is already in `out`.
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].m.start, out[0].m.end), (2, 4));
        // The failing tick was counted (same as per-sample push) but the
        // trailing samples were not consumed.
        assert_eq!(e.stream_ticks(s), Some(6));
    }

    #[test]
    fn push_batch_records_frame_sizes_without_disturbing_tick_counters() {
        let mut e = SpringEngine::new();
        let metrics = Arc::new(Metrics::new());
        e.set_metrics(Arc::clone(&metrics));
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let stream = spike_stream(&[5], 20);
        let mut out = Vec::new();
        for chunk in stream.chunks(8) {
            e.push_batch(s, chunk, &mut out).unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.ticks_total, 20, "per-tick counters stay exact");
        assert_eq!(snap.matches_total, 1);
        assert_eq!(snap.batch_len.count, 3, "one observation per frame");
        assert_eq!(snap.batch_len.sum, 20.0);
    }

    #[test]
    fn push_batch_on_vector_streams_validates_per_sample() {
        let mut e = VectorEngine::new();
        let s = e.add_channel_stream("feed", 2);
        let q = e.add_query("blip", vquery_rows()).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let mut frames: Vec<Vec<f64>> = vec![quiet_row(); 3];
        frames.extend(vquery_rows());
        frames.push(quiet_row());
        let mut out = Vec::new();
        e.push_batch(s, &frames, &mut out).unwrap();
        out.extend(e.finish_stream(s).unwrap());
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].m.start, out[0].m.end), (4, 6));
        // Wrong-width row mid-batch: consumed prefix keeps its ticks, the
        // bad row consumes nothing.
        let bad = vec![quiet_row(), vec![1.0]];
        let mut out2 = Vec::new();
        assert!(matches!(
            e.push_batch(s, &bad, &mut out2),
            Err(MonitorError::Spring(SpringError::DimensionMismatch {
                expected: 2,
                found: 1
            }))
        ));
        assert_eq!(e.stream_ticks(s), Some(8));
    }

    #[test]
    fn push_batch_unknown_stream_is_rejected() {
        let mut e = SpringEngine::new();
        let mut out = Vec::new();
        assert!(matches!(
            e.push_batch(StreamId(3), &[1.0], &mut out),
            Err(MonitorError::UnknownStream(_))
        ));
    }

    // ---- mixed-variant deployments -------------------------------------

    #[test]
    fn mixed_variants_share_one_stream_and_tag_their_events() {
        let mut e = MixedEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach_spec(s, q, MonitorSpec::Spring { epsilon: 1.0 }, GapPolicy::Skip)
            .unwrap();
        e.attach_spec(
            s,
            q,
            MonitorSpec::Bounded {
                epsilon: 1.0,
                min_len: 3,
                max_len: 3,
            },
            GapPolicy::Skip,
        )
        .unwrap();
        e.attach_spec(s, q, MonitorSpec::Best, GapPolicy::Skip)
            .unwrap();
        let mut events = Vec::new();
        for x in spike_stream(&[5], 20) {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        let variants: Vec<MonitorVariant> = events.iter().map(|ev| ev.variant).collect();
        assert!(variants.contains(&MonitorVariant::Spring));
        assert!(variants.contains(&MonitorVariant::Bounded));
        assert!(variants.contains(&MonitorVariant::Best));
        // All three agree on the planted occurrence.
        for ev in &events {
            assert_eq!((ev.m.start, ev.m.end), (6, 8), "{ev:?}");
        }
    }

    #[test]
    fn mixed_engine_events_match_plain_spring_for_spring_specs() {
        let stream = spike_stream(&[4, 15], 28);
        let mut mixed = MixedEngine::new();
        let s = mixed.add_stream("s");
        let q = mixed.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        mixed
            .attach_spec(s, q, MonitorSpec::Spring { epsilon: 1.0 }, GapPolicy::Skip)
            .unwrap();
        let mut plain = SpringEngine::new();
        let s2 = plain.add_stream("s");
        let q2 = plain.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        plain.attach(s2, q2, 1.0, GapPolicy::Skip).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for x in &stream {
            a.extend(mixed.push(s, x).unwrap());
            b.extend(plain.push(s2, x).unwrap());
        }
        a.extend(mixed.finish_stream(s).unwrap());
        b.extend(plain.finish_stream(s2).unwrap());
        let ms_a: Vec<Match> = a.iter().map(|ev| ev.m).collect();
        let ms_b: Vec<Match> = b.iter().map(|ev| ev.m).collect();
        assert_eq!(ms_a, ms_b);
    }

    // ---- vector streams ------------------------------------------------

    fn vquery_rows() -> Vec<Vec<f64>> {
        vec![vec![0.0, 0.0], vec![5.0, -5.0], vec![0.0, 0.0]]
    }

    fn quiet_row() -> Vec<f64> {
        vec![40.0, 40.0]
    }

    #[test]
    fn finds_a_planted_vector_pattern() {
        let mut e = VectorEngine::new();
        let s = e.add_channel_stream("feed", 2);
        let q = e.add_query("blip", vquery_rows()).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let mut events = Vec::new();
        for _ in 0..4 {
            events.extend(e.push(s, &quiet_row()).unwrap());
        }
        for row in vquery_rows() {
            events.extend(e.push(s, &row).unwrap());
        }
        for _ in 0..4 {
            events.extend(e.push(s, &quiet_row()).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].m.start, events[0].m.end, events[0].m.distance),
            (5, 7, 0.0)
        );
        assert_eq!(events[0].variant, MonitorVariant::Vector);
    }

    #[test]
    fn vector_channel_mismatches_are_rejected_at_attach_and_push() {
        let mut e = VectorEngine::new();
        let s = e.add_channel_stream("feed", 3);
        let q = e.add_query("2d", vquery_rows()).unwrap(); // 2 channels
        assert!(matches!(
            e.attach(s, q, 1.0, GapPolicy::Skip),
            Err(MonitorError::Spring(SpringError::DimensionMismatch {
                expected: 3,
                found: 2
            }))
        ));
        assert!(e.push(s, &[1.0, 2.0][..]).is_err());
        assert!(e.push(s, &[1.0, 2.0, 3.0][..]).unwrap().is_empty());
    }

    #[test]
    fn first_vector_attachment_pins_undeclared_stream_width() {
        let mut e = VectorEngine::new();
        let s = e.add_stream("feed"); // width not declared
        assert_eq!(e.stream_channels(s), None);
        let q = e.add_query("blip", vquery_rows()).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        assert_eq!(e.stream_channels(s), Some(2));
        assert!(e.push(s, &[1.0][..]).is_err());
    }

    #[test]
    fn vector_gap_policies_handle_missing_rows() {
        // A NaN component marks the whole row missing.
        let mut e = VectorEngine::new();
        let s = e.add_channel_stream("feed", 2);
        let q = e.add_query("blip", vquery_rows()).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let mut events = Vec::new();
        events.extend(e.push(s, &quiet_row()).unwrap());
        events.extend(e.push(s, &[f64::NAN, 1.0][..]).unwrap());
        for row in vquery_rows() {
            events.extend(e.push(s, &row).unwrap());
        }
        events.extend(e.push(s, &quiet_row()).unwrap());
        events.extend(e.finish_stream(s).unwrap());
        // Skip compresses: match sits at observed ticks 2..=4.
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].m.start, events[0].m.end), (2, 4));

        let mut f = VectorEngine::new();
        let sf = f.add_channel_stream("feed", 2);
        let qf = f.add_query("blip", vquery_rows()).unwrap();
        f.attach(sf, qf, 1.0, GapPolicy::Fail).unwrap();
        f.push(sf, &quiet_row()).unwrap();
        assert_eq!(
            f.push(sf, &[f64::NAN, 1.0][..]).unwrap_err(),
            MonitorError::MissingSample {
                stream: sf,
                tick: 2
            }
        );
    }

    // ---- shared query arena + hot swap ---------------------------------

    #[test]
    fn attachments_share_one_arena_entry_per_query() {
        let mut e = SpringEngine::new();
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        for i in 0..8 {
            let s = e.add_stream(format!("s{i}"));
            e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        }
        // Eight attachments, one interned entry: the pattern resident
        // exactly once.
        assert_eq!(e.arena().len(), 1);
        assert_eq!(e.arena().resident_cells(), 3);
    }

    #[test]
    fn fleet_memory_is_queries_m_plus_attachments_columns() {
        // The regression pin for the arena refactor: total cells must be
        // O(queries·m + attachments·m_cols), i.e. the shared pattern
        // (m) is charged once per query, and only the DP columns scale
        // with the attachment count.
        let m = 256usize;
        let query: Vec<f64> = (0..m).map(|i| (i as f64 * 0.1).sin()).collect();
        let build = |streams: usize| {
            let mut e = SpringEngine::new();
            let q = e.add_query("q", query.clone()).unwrap();
            for i in 0..streams {
                let s = e.add_stream(format!("s{i}"));
                e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
            }
            e
        };
        let one = build(1).memory_cells();
        let many = build(64).memory_cells();
        // Exactly the shared m cells are *not* replicated per
        // attachment: many = m + 64·(one − m).
        assert_eq!(many - one, 63 * (one - m), "one={one} many={many}");
        assert!(many < 64 * one, "no sharing gain: one={one} many={many}");
    }

    #[test]
    fn swap_query_rebuilds_every_attachment_like_a_fresh_attach() {
        let old = vec![0.0, 10.0, 0.0];
        let new = vec![50.0, 45.0, 50.0];
        let mut e = SpringEngine::new();
        let s1 = e.add_stream("s1");
        let s2 = e.add_stream("s2");
        let q = e.add_query("p", old).unwrap();
        e.attach(s1, q, 1.0, GapPolicy::Skip).unwrap();
        e.attach(s2, q, 1.0, GapPolicy::Skip).unwrap();
        // Warm both attachments with pre-swap traffic.
        for x in spike_stream(&[3], 10) {
            e.push(s1, &x).unwrap();
            e.push(s2, &x).unwrap();
        }
        assert_eq!(e.query_generation(q), Some(0));
        let generation = e.swap_query(q, new.clone()).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(e.query_generation(q), Some(1));
        assert_eq!(e.query_samples(q), Some(new.as_slice()));
        // Post-swap, the fleet behaves exactly like a fresh engine
        // attached to the new pattern (detach-and-reattach semantics).
        let mut fresh = SpringEngine::new();
        let f1 = fresh.add_stream("s1");
        let qf = fresh.add_query("p", new).unwrap();
        fresh.attach(f1, qf, 1.0, GapPolicy::Skip).unwrap();
        let mut dip_stream = spike_stream(&[], 12);
        dip_stream[6] = 45.0;
        let mut got = Vec::new();
        let mut expect = Vec::new();
        for x in dip_stream {
            got.extend(e.push(s1, &x).unwrap());
            expect.extend(fresh.push(f1, &x).unwrap());
        }
        got.extend(e.finish_stream(s1).unwrap());
        expect.extend(fresh.finish_stream(f1).unwrap());
        let got: Vec<Match> = got.iter().map(|ev| ev.m).collect();
        let expect: Vec<Match> = expect.iter().map(|ev| ev.m).collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty(), "the swapped-in dip pattern must fire");
    }

    #[test]
    fn swap_query_is_atomic_on_invalid_patterns() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("p", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        for x in [50.0, 0.0] {
            e.push(s, &x).unwrap();
        }
        assert!(e.swap_query(q, vec![]).is_err());
        assert!(e.swap_query(q, vec![f64::NAN]).is_err());
        assert!(e.swap_query(QueryId(9), vec![1.0]).is_err());
        // The failed swaps left pattern, generation, and DP state alone:
        // the in-flight match still completes.
        assert_eq!(e.query_generation(q), Some(0));
        let mut events = Vec::new();
        for x in [10.0, 0.0, 50.0, 50.0] {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].m.start, events[0].m.end), (2, 4));
    }

    #[test]
    fn swap_query_updates_swap_metrics_and_shared_cells() {
        let metrics = Arc::new(Metrics::new());
        let mut e = SpringEngine::new();
        e.set_metrics(Arc::clone(&metrics));
        let q = e.add_query("p", vec![0.0, 10.0, 0.0]).unwrap();
        for i in 0..4 {
            let s = e.add_stream(format!("s{i}"));
            e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        }
        assert_eq!(metrics.snapshot().query_swaps_total, 0);
        e.swap_query(q, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        e.swap_query(q, vec![5.0, 6.0]).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.query_swaps_total, 2);
        assert_eq!(snap.query_generation, 2);
        // The old entries were released: one live query of length 2,
        // charged once (m = 2 cells), not once per attachment.
        assert_eq!(e.arena().len(), 1);
        assert_eq!(e.arena().resident_cells(), 2);
    }

    #[test]
    fn ragged_vector_queries_are_rejected() {
        let mut e = VectorEngine::new();
        assert!(e
            .add_query("ragged", vec![vec![1.0, 2.0], vec![1.0]])
            .is_err());
        assert!(e.add_query("empty", vec![]).is_err());
        assert!(e.add_query("nan", vec![vec![f64::NAN, 1.0]]).is_err());
    }

    /// `attachment::ingest` is hit once per frame and attachment, also
    /// on frames every attachment proves idle at once, and an `Error`
    /// there fails the attachment's frame at offset 0: the attachments
    /// ranked before it consumed the frame, the ones from it on did
    /// not, and the stream counts the failing tick.
    #[cfg(feature = "failpoints")]
    #[test]
    fn an_injected_ingest_error_fails_an_idle_frame_at_offset_zero() {
        use crate::failpoints::{self, FailAction, FailRule};
        const SITE: &str = "attachment::ingest";
        const ATTACHMENTS: u64 = 4;
        const FRAME: u64 = 16;
        let _guard = failpoints::exclusive();
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        for k in 0..ATTACHMENTS {
            let q = e.add_query(format!("q{k}"), vec![0.0, 10.0, 0.0]).unwrap();
            e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        }
        let idle = [50.0; FRAME as usize];
        // The hit after two frames, the one of rank 1 in frame 2, fails.
        let fail = FailRule::new(FailAction::Error).times(1);
        failpoints::configure(SITE, fail.clone().after(2 * ATTACHMENTS + 1));
        let mut out = Vec::new();
        for f in 0..5 {
            let pushed = e.push_batch(s, &idle, &mut out);
            let want = match f {
                2 => Err(MonitorError::Injected(SITE)),
                _ => Ok(()),
            };
            assert_eq!(pushed, want, "frame {f}");
            assert_eq!(failpoints::hits(SITE), (f + 1) * ATTACHMENTS, "frame {f}");
        }
        assert_eq!(failpoints::fired(SITE), 1);
        assert!(out.is_empty());
        assert_eq!(e.stream_ticks(s), Some(4 * FRAME + 1));
        for k in 0..ATTACHMENTS {
            let tick = e.monitor(AttachmentId(k as u32)).unwrap().tick();
            assert_eq!(tick, if k == 0 { 5 * FRAME } else { 4 * FRAME }, "rank {k}");
        }
        // The driver itself reports the failing offset of the frame.
        failpoints::configure(SITE, fail.after(2));
        let indices = e.by_stream[&s].clone();
        let ingested = ingest_frame(&mut e.attachments, &indices, &idle, &mut e.frame, &e.probe);
        assert_eq!(ingested, Err((0, MonitorError::Injected(SITE))));
        assert_eq!(failpoints::hits(SITE), ATTACHMENTS);
    }
}
