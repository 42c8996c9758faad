//! Threaded monitoring runner, generic over any [`Monitor`].
//!
//! A [`Runner`] owns `N` worker threads and places every stream on one
//! of them: worker `fnv1a_u64(stream) % N` ([`spring_util::hash`],
//! stable across processes and restarts). That worker owns all of the
//! stream's attachments, so each (stream, query) pair keeps the paper's
//! `O(m)` time and space per tick (Theorem 2) with no cross-thread
//! coordination. Workers ingest a frame at a time through the same
//! `Attachment::ingest_frame` path as [`crate::Engine::push_batch`]:
//! each attachment steps the frame's runs of present samples with one
//! `Monitor::step_run` (idle skip plus the banded column kernel for
//! SPRING monitors), and the frame's events are merged back into
//! sample-major order (by tick, then attachment) before they reach the
//! shared [`MatchSink`], so the sink sees exactly a per-sample loop's
//! sequence.
//!
//! Each worker has its own stream table (pending frames and attachment
//! counts behind the worker's own lock), bounded channel, checkpoint,
//! replay log and supervisor slot: pushes to streams on different
//! workers share no lock, and backpressure and recovery stay with the
//! worker that owns the stream. A stream has a table entry only while
//! it has attachments — pushes to an unwatched stream are dropped
//! without creating state, and the last detach removes the entry.
//!
//! **Frames.** Channels carry frames of up to [`Runner::max_batch`]
//! consecutive samples of one stream, shared as `Arc<[_]>` by the
//! channel and the replay log. A partial frame waits for
//! [`Runner::flush`], [`Runner::finish_stream`] or [`Runner::shutdown`]
//! (`max_batch = 1` is per-sample messaging): the runner keeps no
//! timer, so a caller that owns a slow input calls [`Runner::flush`]
//! when that input drains, and matches in the partial frame are
//! reported then rather than when the frame fills.
//! Attach, detach, swap, sync and marks ([`Runner::mark`]: a callback
//! run in the stream's queue order) travel the same logged message
//! path, so a restarted worker reconstructs them.
//!
//! **Failures.** An ingestion error (e.g. [`GapPolicy::Fail`] on a
//! missing value) stops its worker deliberately: it is not restarted,
//! and pushes to its streams report [`MonitorError::WorkerLost`]. A
//! panic is an infrastructure failure: the supervisor restarts the
//! worker with capped backoff ([`RestartPolicy`]) from its last
//! checkpoint (every [`CHECKPOINT_EVERY`] messages) and replays the
//! logged tail, so no match is dropped (delivery is at least once).
//! Either way the supervisor steps in as soon as the worker exits, so
//! marks queued behind the failure still run without another call.
//! [`Runner::shutdown`] flushes pending frames in ascending `StreamId`
//! order, heals dead workers, and returns the *lowest ranked* error:
//! `MissingSample` by (stream, tick), then other ingestion errors, then
//! [`MonitorError::WorkerLost`].

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::Duration;

use spring_core::monitor::Monitor;

use crate::engine::{
    ingest_frame, validate_query_samples, Attachment, AttachmentBuilder, AttachmentId,
    FrameScratch, GapPolicy, MonitorError, Owned, QueryId, StreamId,
};
use crate::metrics::Metrics;
use crate::probe::Probe;
use crate::sink::MatchSink;
use crate::trace::{EventKind as TraceKind, Tracer};

/// Queue depth per worker (messages, i.e. frames); bounds memory under
/// bursty producers.
const QUEUE_DEPTH: usize = 1024;

/// A worker forks its attachments into the supervisor checkpoint every
/// this many processed messages, bounding both the replay tail and the
/// supervisor log to `O(CHECKPOINT_EVERY + QUEUE_DEPTH)` entries.
pub const CHECKPOINT_EVERY: u64 = 64;

/// Default frame size for [`Runner::push`] batching: samples buffered
/// per stream before a frame is enqueued. See [`Runner::set_max_batch`].
pub const DEFAULT_MAX_BATCH: usize = 64;

/// The worker that owns `stream` among `workers`: FNV-1a over the id's
/// little-endian bytes, mod the worker count.
fn worker_of(stream: StreamId, workers: usize) -> usize {
    (spring_util::hash::fnv1a_u64(u64::from(stream.0)) % workers as u64) as usize
}

/// How a [`Runner`] treats a worker thread lost to a panic.
///
/// Ingestion errors (a sample rejected under [`GapPolicy::Fail`]) are
/// never restarted — they are the stream's fault, not the worker's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restart attempts per worker before it is declared permanently
    /// lost. `0` disables supervision entirely.
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per subsequent attempt.
    pub base_backoff: Duration,
    /// Upper bound on the per-attempt backoff.
    pub max_backoff: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RestartPolicy {
    /// Supervision disabled: any lost worker is permanently lost.
    pub fn none() -> Self {
        RestartPolicy {
            max_restarts: 0,
            ..RestartPolicy::default()
        }
    }

    /// Capped exponential backoff for the `attempt`-th restart (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// One attachment specification for a [`Runner`]: a pre-built monitor
/// plus its routing and gap handling.
#[derive(Clone)]
pub struct RunnerAttachment<M: Monitor> {
    /// Stream to watch.
    pub stream: StreamId,
    /// Query id reported in events.
    pub query_id: QueryId,
    /// The monitor to drive (any [`Monitor`] variant).
    pub monitor: M,
    /// Missing-sample policy.
    pub gap_policy: GapPolicy,
    /// Recipe to rebuild the monitor on a [`Runner::swap_query`]
    /// (`None` for pre-built monitors, which cannot be swapped).
    builder: Option<AttachmentBuilder<M>>,
}

impl<M: Monitor + std::fmt::Debug> std::fmt::Debug for RunnerAttachment<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunnerAttachment")
            .field("stream", &self.stream)
            .field("query_id", &self.query_id)
            .field("monitor", &self.monitor)
            .field("gap_policy", &self.gap_policy)
            .field("swappable", &self.builder.is_some())
            .finish()
    }
}

impl<M: Monitor> RunnerAttachment<M> {
    /// An attachment watching `stream` with `monitor`.
    pub fn new(stream: StreamId, query_id: QueryId, monitor: M, gap_policy: GapPolicy) -> Self {
        RunnerAttachment {
            stream,
            query_id,
            monitor,
            gap_policy,
            builder: None,
        }
    }

    /// Stores the recipe `monitor` was built from, making the
    /// attachment eligible for [`Runner::swap_query`]: on a swap the
    /// worker calls `build` again with the query's new samples,
    /// preserving this attachment's own ε / variant / kernel choices.
    /// [`RunnerAttachment::spring`] stores one automatically.
    pub fn with_builder(
        mut self,
        build: impl Fn(&[Owned<M>]) -> Result<M, spring_core::SpringError> + Send + Sync + 'static,
    ) -> Self {
        self.builder = Some(Arc::new(build));
        self
    }

    /// Whether this attachment carries a rebuild recipe (and can
    /// therefore survive a [`Runner::swap_query`]).
    pub fn swappable(&self) -> bool {
        self.builder.is_some()
    }

    /// The worker-side attachment under `id`, recording into `metrics`.
    fn into_attachment(self, id: AttachmentId, metrics: Option<&Arc<Metrics>>) -> Attachment<M> {
        let mut att = Attachment::new(
            id,
            self.stream,
            self.query_id,
            self.monitor,
            self.gap_policy,
        );
        if let Some(build) = self.builder {
            att = att.with_builder(build);
        }
        if let Some(m) = metrics {
            att.set_metrics(m);
        }
        att
    }
}

impl RunnerAttachment<spring_core::Spring<spring_dtw::Kernel>> {
    /// Convenience: a plain SPRING attachment (squared kernel) built
    /// from query values and a threshold. The recipe is stored, so the
    /// attachment follows [`Runner::swap_query`] rebuilds.
    pub fn spring(
        stream: StreamId,
        query_id: QueryId,
        query: &[f64],
        epsilon: f64,
        gap_policy: GapPolicy,
    ) -> Result<Self, MonitorError> {
        let build = move |q: &[f64]| {
            spring_core::Spring::with_kernel(
                q,
                spring_core::SpringConfig::new(epsilon),
                spring_dtw::Kernel::Squared,
            )
        };
        let monitor = build(query)?;
        Ok(RunnerAttachment::new(stream, query_id, monitor, gap_policy).with_builder(build))
    }
}

/// The barrier one [`Runner::sync`] call waits on; its mark arrives.
#[derive(Default)]
struct SyncPoint {
    arrived: Mutex<bool>,
    cv: Condvar,
}

impl SyncPoint {
    fn arrive(&self) {
        *self.arrived.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }

    /// Waits up to `timeout`; `true` once the worker has arrived.
    fn wait_for(&self, timeout: Duration) -> bool {
        let arrived = self.arrived.lock().unwrap_or_else(PoisonError::into_inner);
        let (arrived, _) = self
            .cv
            .wait_timeout_while(arrived, timeout, |a| !*a)
            .unwrap_or_else(PoisonError::into_inner);
        *arrived
    }
}

/// The run-once callback of one [`Runner::mark`], shared by the channel
/// and the replay log: a mark replayed after a restart finds it taken.
struct Mark(Mutex<Option<Box<dyn FnOnce() + Send>>>);

impl Mark {
    fn new(f: impl FnOnce() + Send + 'static) -> Arc<Self> {
        Arc::new(Mark(Mutex::new(Some(Box::new(f)))))
    }

    /// Runs the callback unless it already ran.
    fn fire(&self) {
        let f = self.0.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(f) = f {
            f();
        }
    }
}

/// A batch of consecutive samples, shared between the channel and the
/// replay log without copying.
type Frame<M> = Arc<[Owned<M>]>;

enum Msg<M: Monitor> {
    /// Consecutive samples of one stream (the unit of channel traffic,
    /// checkpointing, and replay).
    Frame {
        stream: StreamId,
        samples: Frame<M>,
    },
    FinishStream(StreamId),
    /// Add an attachment to the receiving worker (logged and replayed
    /// like a frame, so restarts reconstruct it).
    Attach(Box<Attachment<M>>),
    /// Remove an attachment from the receiving worker.
    Detach(AttachmentId),
    /// Re-point every attachment of `query` at new pattern samples
    /// (replayed at the same position in the message order).
    Swap {
        query: QueryId,
        samples: Frame<M>,
        generation: u64,
    },
    /// Run a callback in queue order (see [`Runner::mark`]).
    Mark(Arc<Mark>),
    Shutdown,
}

/// Cloning (for the replay log) shares frame and swap payloads; only an
/// attachment is forked.
impl<M: Monitor + Clone> Clone for Msg<M>
where
    Owned<M>: Clone,
{
    fn clone(&self) -> Self {
        match self {
            Msg::Frame { stream, samples } => Msg::Frame {
                stream: *stream,
                samples: Arc::clone(samples),
            },
            Msg::FinishStream(stream) => Msg::FinishStream(*stream),
            Msg::Attach(att) => Msg::Attach(Box::new(att.fork())),
            Msg::Detach(id) => Msg::Detach(*id),
            Msg::Swap {
                query,
                samples,
                generation,
            } => Msg::Swap {
                query: *query,
                samples: Arc::clone(samples),
                generation: *generation,
            },
            Msg::Mark(mark) => Msg::Mark(Arc::clone(mark)),
            Msg::Shutdown => Msg::Shutdown,
        }
    }
}

/// State a worker thread shares with its supervisor.
struct WorkerShared<M: Monitor> {
    /// Set when the worker stopped on an ingestion error (deliberate:
    /// the supervisor must not restart it).
    failed: AtomicBool,
    /// Messages whose effects are contained in `checkpoint`.
    applied: AtomicU64,
    /// The worker's forked attachments as of `applied` messages.
    checkpoint: Mutex<Vec<Attachment<M>>>,
}

/// Supervisor-side state of one worker.
struct WorkerSlot<M: Monitor> {
    sender: SyncSender<Msg<M>>,
    handle: Option<JoinHandle<()>>,
    /// Messages sent since the last checkpoint, with absolute sequence
    /// numbers — the replay tail for a restart.
    log: VecDeque<(u64, Msg<M>)>,
    /// Total non-`Shutdown` messages sent; the next sequence number.
    sent: u64,
    /// Restarts consumed so far.
    restarts: u32,
    /// Permanently lost (ingestion error or restart budget exhausted).
    dead: bool,
    shared: Arc<WorkerShared<M>>,
}

/// One stream's entry in its worker's table.
struct StreamEntry<M: Monitor> {
    /// Samples awaiting a full frame.
    pending: Vec<Owned<M>>,
    /// Live attachments; the entry is removed when this reaches zero.
    attached: usize,
}

impl<M: Monitor> Default for StreamEntry<M> {
    fn default() -> Self {
        StreamEntry {
            pending: Vec::new(),
            attached: 0,
        }
    }
}

/// One worker as the runner sees it. Lock order: `streams`, then `slot`.
struct Worker<M: Monitor> {
    slot: Mutex<WorkerSlot<M>>,
    /// The streams placed on this worker that have attachments.
    streams: Mutex<HashMap<StreamId, StreamEntry<M>>>,
    /// The supervisor's probe, with this worker's `spring_shard_*`
    /// series; its ring is written only with `slot` locked (single
    /// writer).
    probe: Probe,
}

/// Everything a worker thread needs besides its attachments and channel.
struct WorkerCtx<M: Monitor> {
    sink: Arc<dyn MatchSink>,
    error: Arc<Mutex<Option<MonitorError>>>,
    shared: Arc<WorkerShared<M>>,
    /// This incarnation's probe (each restart registers a fresh ring
    /// under the same label, so the dead incarnation's events survive).
    probe: Probe,
    /// Heals this worker once the incarnation on the given thread has
    /// exited abnormally (see [`Core::revive`]).
    revive: Box<dyn FnOnce(ThreadId) + Send>,
}

/// The runner state shared between the [`Runner`] handle and the
/// heals that dying workers request.
struct Core<M: Monitor> {
    workers: Vec<Worker<M>>,
    /// Stream and query of every live attachment (control path only).
    homes: Mutex<HashMap<AttachmentId, (StreamId, QueryId)>>,
    /// Current hot-swap generation per query id.
    generations: Mutex<HashMap<QueryId, u64>>,
    /// Samples per frame (≥ 1).
    max_batch: AtomicUsize,
    next_attachment: AtomicU32,
    /// Lowest-ranked ingestion error recorded by any worker.
    error: Arc<Mutex<Option<MonitorError>>>,
    /// The registry and the flight recorder the workers' probes are
    /// built from; the tracer is also the source of postmortem dumps on
    /// worker loss.
    metrics: Option<Arc<Metrics>>,
    tracer: Option<Tracer>,
    sink: Arc<dyn MatchSink>,
    restart: RestartPolicy,
    /// This core, for the heals that dying workers request.
    me: Weak<Core<M>>,
}

/// A running pool of monitor workers, with streams placed by id hash.
///
/// Samples are pushed from any thread via [`Runner::push`]; matches
/// arrive at the sink from worker threads. Attachments can be added and
/// removed at runtime ([`Runner::attach`] / [`Runner::detach`]). Call
/// [`Runner::shutdown`] to flush, join, and learn about any failure.
pub struct Runner<M: Monitor> {
    core: Arc<Core<M>>,
}

/// [`Runner`] under the name of the former two-level sharded API, for
/// callers written against it (such as the benchmark's layer replays).
pub type ShardedRunner<M> = Runner<M>;

/// Runs when the worker thread exits abnormally — after recording an
/// ingestion error (`lost` set) or while unwinding from a panic:
/// increments `spring_worker_lost_total` and hands the heal to a fresh
/// thread (this one cannot join itself).
struct WorkerLostGuard<'a> {
    probe: &'a Probe,
    lost: bool,
    revive: Option<Box<dyn FnOnce(ThreadId) + Send>>,
}

impl Drop for WorkerLostGuard<'_> {
    fn drop(&mut self) {
        if self.lost || thread::panicking() {
            self.probe.count(|m| m.worker_lost.inc());
            if let Some(revive) = self.revive.take() {
                let dead = thread::current().id();
                // Best effort: without the thread, the next send heals.
                let _ = thread::Builder::new().spawn(move || revive(dead));
            }
        }
    }
}

/// The worker thread body: drains its channel, drives its attachments,
/// and forks a checkpoint every [`CHECKPOINT_EVERY`] messages.
fn spawn_worker<M>(
    mut atts: Vec<Attachment<M>>,
    rx: Receiver<Msg<M>>,
    ctx: WorkerCtx<M>,
) -> JoinHandle<()>
where
    M: Monitor + Clone + Send + 'static,
    Owned<M>: Clone + Send + Sync,
{
    thread::spawn(move || {
        let WorkerCtx {
            sink,
            error,
            shared,
            probe,
            revive,
        } = ctx;
        // Constructed inside the thread so its `Drop` runs here.
        let mut guard = WorkerLostGuard {
            probe: &probe,
            lost: false,
            revive: Some(revive),
        };
        let deliver = |event: &crate::engine::Event| {
            crate::fail_point!("runner::sink");
            probe.matched(&event.m);
            sink.on_match(event);
        };
        // Messages applied by this incarnation, continuing the absolute
        // count from the checkpoint it was forked at.
        let mut applied = shared.applied.load(Ordering::Acquire);
        // Reused per frame: the stream's attachment positions and the
        // frame's events.
        let mut indices: Vec<usize> = Vec::new();
        let mut frame = FrameScratch::default();
        'recv: for msg in rx {
            crate::fail_point!("runner::worker::recv");
            // Shutdown is never counted into the depth gauge.
            if !matches!(msg, Msg::Shutdown) {
                probe.queued(-1);
            }
            let mut failure = None;
            match msg {
                Msg::Frame { stream, samples } => {
                    crate::fail_point!("runner::worker::frame");
                    indices.clear();
                    indices.extend(
                        atts.iter()
                            .enumerate()
                            .filter(|(_, a)| a.stream == stream)
                            .map(|(i, _)| i),
                    );
                    // Frame-at-a-time, like the Engine: each attachment
                    // steps the whole frame, and the sink gets the
                    // events back in sample-major order.
                    if let Err((_, e)) =
                        ingest_frame(&mut atts, &indices, &samples, &mut frame, &probe)
                    {
                        // The frame tail is dropped with the rest of the
                        // stream.
                        failure = Some(e);
                    }
                    for ev in &frame.events {
                        deliver(&ev.event);
                    }
                }
                Msg::FinishStream(stream) => {
                    probe.span(TraceKind::Flush, u64::from(stream.0), || {
                        for att in atts.iter_mut().filter(|a| a.stream == stream) {
                            if let Some(event) = att.flush() {
                                deliver(&event);
                            }
                        }
                    })
                }
                Msg::Attach(att) => {
                    // Replays are pruned against the checkpoint; the
                    // guard keeps a duplicated Attach from counting twice.
                    if !atts.iter().any(|a| a.id == att.id) {
                        atts.push(*att);
                    }
                }
                Msg::Detach(id) => atts.retain(|a| a.id != id),
                Msg::Swap {
                    query,
                    samples,
                    generation,
                } => {
                    // A failed rebuild (no stored recipe, or a rejected
                    // pattern) is an ingestion-class error.
                    failure = atts
                        .iter_mut()
                        .filter(|a| a.query == query)
                        .find_map(|a| a.rebuild(&samples, generation).map(|m| a.install(m)).err());
                    // The runner counts the swap once, on its control path.
                    if failure.is_none() {
                        probe.instant(TraceKind::QuerySwap, generation);
                    }
                }
                Msg::Mark(mark) => probe.span(TraceKind::Flush, 0, || mark.fire()),
                Msg::Shutdown => break,
            }
            if let Some(e) = failure {
                // Deliberate stop: record the error, tell the supervisor
                // not to restart, and drop the receiver so later pushes
                // fail fast.
                record_error(&error, e);
                shared.failed.store(true, Ordering::Release);
                guard.lost = true;
                break 'recv;
            }
            applied += 1;
            let behind = applied - shared.applied.load(Ordering::Relaxed);
            if behind >= CHECKPOINT_EVERY {
                probe.span(TraceKind::Checkpoint, behind, || {
                    let fork: Vec<Attachment<M>> = atts.iter().map(Attachment::fork).collect();
                    *shared
                        .checkpoint
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = fork;
                    shared.applied.store(applied, Ordering::Release);
                });
            }
        }
    })
}

impl<M> Runner<M>
where
    M: Monitor + Clone + Send + 'static,
    Owned<M>: Clone + Send + Sync,
{
    /// Spawns `workers` threads, placing each attachment on the worker
    /// that owns its stream, with the default [`RestartPolicy`].
    ///
    /// # Errors
    /// Fails when `workers == 0`.
    pub fn spawn(
        attachments: Vec<RunnerAttachment<M>>,
        workers: usize,
        sink: Arc<dyn MatchSink>,
    ) -> Result<Self, MonitorError> {
        Runner::spawn_with_observability(
            attachments,
            workers,
            sink,
            None,
            RestartPolicy::default(),
            None,
        )
    }

    /// The benchmark's entry point (springbench's in-process layer
    /// replays call it with this exact signature): spawns
    /// `shards × workers_per_shard` workers with a metrics registry and
    /// the default [`RestartPolicy`].
    ///
    /// # Errors
    /// Fails when `shards == 0` or `workers_per_shard == 0`.
    pub fn spawn_with_metrics(
        attachments: Vec<RunnerAttachment<M>>,
        shards: usize,
        workers_per_shard: usize,
        sink: Arc<dyn MatchSink>,
        metrics: Option<Arc<Metrics>>,
    ) -> Result<Self, MonitorError> {
        Runner::spawn_with_observability(
            attachments,
            shards.saturating_mul(workers_per_shard),
            sink,
            metrics,
            RestartPolicy::default(),
            None,
        )
    }

    /// The fully explicit constructor.
    ///
    /// * `metrics`: worker `i` reports
    ///   `spring_shard_{ticks_total,queue_depth,restarts_total}{shard="i"}`,
    ///   attachments record ticks/matches/latency/memory, and worker
    ///   losses and restarts bump `spring_worker_{lost,restarts}_total`.
    /// * `restart`: supervision ([`RestartPolicy::none`] fails fast).
    /// * `tracer`: worker `i` records spans and match instants into a
    ///   `worker-{i}` ring, its supervisor restarts and replays into
    ///   `supervisor-{i}`; the tracer dumps a postmortem on worker loss.
    ///
    /// # Errors
    /// Fails when `workers == 0`.
    pub fn spawn_with_observability(
        attachments: Vec<RunnerAttachment<M>>,
        workers: usize,
        sink: Arc<dyn MatchSink>,
        metrics: Option<Arc<Metrics>>,
        restart: RestartPolicy,
        tracer: Option<Tracer>,
    ) -> Result<Self, MonitorError> {
        if workers == 0 {
            return Err(MonitorError::Spring(
                spring_core::SpringError::InvalidQuery("runner needs at least one worker".into()),
            ));
        }
        let mut placed: Vec<Vec<Attachment<M>>> = (0..workers).map(|_| Vec::new()).collect();
        let mut tables: Vec<HashMap<StreamId, StreamEntry<M>>> =
            (0..workers).map(|_| HashMap::new()).collect();
        let mut homes = HashMap::new();
        let next_id = attachments.len() as u32;
        for (i, spec) in attachments.into_iter().enumerate() {
            let id = AttachmentId(i as u32);
            let w = worker_of(spec.stream, workers);
            homes.insert(id, (spec.stream, spec.query_id));
            tables[w].entry(spec.stream).or_default().attached += 1;
            placed[w].push(spec.into_attachment(id, metrics.as_ref()));
        }
        let mut receivers = Vec::with_capacity(workers);
        let workers: Vec<Worker<M>> = tables
            .into_iter()
            .zip(&placed)
            .enumerate()
            .map(|(w, (streams, atts))| {
                let (tx, rx) = sync_channel(QUEUE_DEPTH);
                receivers.push(rx);
                Worker {
                    slot: Mutex::new(WorkerSlot {
                        sender: tx,
                        handle: None,
                        log: VecDeque::new(),
                        sent: 0,
                        restarts: 0,
                        dead: false,
                        // Checkpoint 0: the initial state, so a crash
                        // before the first periodic checkpoint can still
                        // replay from tick 0.
                        shared: Arc::new(WorkerShared {
                            failed: AtomicBool::new(false),
                            applied: AtomicU64::new(0),
                            checkpoint: Mutex::new(atts.iter().map(Attachment::fork).collect()),
                        }),
                    }),
                    streams: Mutex::new(streams),
                    probe: Probe {
                        shard: metrics.as_ref().map(|m| m.register_shard()),
                        ..Probe::new(metrics.clone(), tracer.as_ref(), &format!("supervisor-{w}"))
                    },
                }
            })
            .collect();
        let core = Arc::new_cyclic(|me| Core {
            workers,
            homes: Mutex::new(homes),
            generations: Mutex::new(HashMap::new()),
            max_batch: AtomicUsize::new(DEFAULT_MAX_BATCH),
            next_attachment: AtomicU32::new(next_id),
            error: Arc::new(Mutex::new(None)),
            metrics,
            tracer,
            sink,
            restart,
            me: me.clone(),
        });
        for (w, (atts, rx)) in placed.into_iter().zip(receivers).enumerate() {
            let mut slot = core.lock_slot(w);
            slot.handle = Some(core.start_worker(w, &slot.shared, atts, rx));
        }
        Ok(Runner { core })
    }

    /// The index of the worker that owns `stream` (a pure function of
    /// the stream id and the worker count — the `shard` label of its
    /// metrics).
    pub fn worker_of(&self, stream: StreamId) -> usize {
        worker_of(stream, self.core.workers.len())
    }

    /// Sets the frame size: [`Runner::push`] buffers this many samples
    /// per stream before enqueuing a frame (clamped to ≥ 1; `1`
    /// reproduces per-sample messaging exactly). Changing it mid-stream
    /// only affects future frames.
    pub fn set_max_batch(&mut self, max_batch: usize) {
        self.core
            .max_batch
            .store(max_batch.max(1), Ordering::Relaxed);
    }

    /// The configured frame size (default [`DEFAULT_MAX_BATCH`]).
    pub fn max_batch(&self) -> usize {
        self.core.max_batch.load(Ordering::Relaxed)
    }

    /// Adds an attachment on the worker that owns its stream and
    /// returns its id. The attachment sees exactly the samples pushed
    /// to its stream *after* this call returns: samples still pending
    /// for the stream's existing attachments are flushed to them first.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] when that worker is permanently lost.
    pub fn attach(&self, spec: RunnerAttachment<M>) -> Result<AttachmentId, MonitorError> {
        let core = &self.core;
        let id = AttachmentId(core.next_attachment.fetch_add(1, Ordering::Relaxed));
        let (stream, query) = (spec.stream, spec.query_id);
        let attachment = spec.into_attachment(id, core.metrics.as_ref());
        let w = worker_of(stream, core.workers.len());
        let mut streams = core.lock_streams(w);
        let entry = streams.entry(stream).or_default();
        // Pending samples belong to the stream's existing attachments;
        // the FIFO channel then delivers every later frame after the
        // Attach.
        let sent = core
            .flush_entry(w, stream, entry)
            .and_then(|()| core.send(w, Msg::Attach(Box::new(attachment))));
        if let Err(e) = sent {
            if entry.attached == 0 {
                streams.remove(&stream);
            }
            return Err(e);
        }
        entry.attached += 1;
        drop(streams);
        core.lock_homes().insert(id, (stream, query));
        Ok(id)
    }

    /// Removes a live attachment: flushes its stream's pending frame (so
    /// buffered samples are still monitored), detaches the monitor, and
    /// drops the stream's table entry if it was the last attachment.
    ///
    /// # Errors
    /// [`MonitorError::UnknownAttachment`] for an id never attached (or
    /// already detached); [`MonitorError::WorkerLost`] when the owning
    /// worker is permanently lost.
    pub fn detach(&self, id: AttachmentId) -> Result<(), MonitorError> {
        let core = &self.core;
        let (stream, _) = core
            .lock_homes()
            .remove(&id)
            .ok_or(MonitorError::UnknownAttachment(id))?;
        let w = worker_of(stream, core.workers.len());
        let mut streams = core.lock_streams(w);
        if let Some(entry) = streams.get_mut(&stream) {
            // Buffered samples still belong to the attachment. A lost
            // worker surfaces on the Detach send below either way.
            let _ = core.flush_entry(w, stream, entry);
            entry.attached -= 1;
            if entry.attached == 0 {
                streams.remove(&stream);
            }
        }
        core.send(w, Msg::Detach(id))
    }

    /// Atomically re-points every attachment of `query` at a new
    /// pattern, returning the query's new generation.
    ///
    /// The swap lands on a **frame boundary**: affected streams' pending
    /// frames are flushed first (monitored under the old pattern), then
    /// a logged, replayed swap message goes to every owning worker, so
    /// the swap point in each stream is exact across restarts. Each
    /// attachment is rebuilt from its stored recipe
    /// ([`RunnerAttachment::with_builder`]) with fresh DP state, exactly
    /// as if it had been detached and re-attached.
    ///
    /// # Errors
    /// Invalid patterns (empty, non-finite, ragged channels) are
    /// rejected up front with no state change;
    /// [`MonitorError::WorkerLost`] when an owning worker is permanently
    /// lost. An attachment without a recipe fails worker-side and
    /// surfaces at [`Runner::shutdown`].
    pub fn swap_query(&self, query: QueryId, samples: &[Owned<M>]) -> Result<u64, MonitorError> {
        let core = &self.core;
        validate_query_samples::<M>(samples)?;
        let streams: BTreeSet<StreamId> = core
            .lock_homes()
            .values()
            .filter(|&&(_, q)| q == query)
            .map(|&(s, _)| s)
            .collect();
        // Frame boundary: buffered samples were pushed before the swap.
        // A lost worker surfaces below either way.
        for &s in &streams {
            let _ = core.with_stream(s, |w, entry| core.flush_entry(w, s, entry));
        }
        let generation = {
            let mut gens = core
                .generations
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let g = gens.entry(query).or_insert(0);
            *g += 1;
            *g
        };
        let workers: BTreeSet<usize> = streams
            .iter()
            .map(|&s| worker_of(s, core.workers.len()))
            .collect();
        let samples = Frame::<M>::from(samples);
        let mut lost = false;
        for w in workers {
            let msg = Msg::Swap {
                query,
                samples: Arc::clone(&samples),
                generation,
            };
            lost |= core.send(w, msg).is_err();
        }
        if let Some(m) = &core.metrics {
            m.query_swaps.inc();
            m.query_generation.set(generation);
        }
        if lost {
            Err(MonitorError::WorkerLost)
        } else {
            Ok(generation)
        }
    }

    /// The current hot-swap generation of `query` (`0` until its first
    /// [`Runner::swap_query`]).
    pub fn query_generation(&self, query: QueryId) -> u64 {
        *self
            .core
            .generations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&query)
            .unwrap_or(&0)
    }

    /// Barrier: returns once the worker owning `stream` has drained all
    /// messages enqueued before this call — at which point every match
    /// implied by previously flushed samples has reached the sink.
    /// Pending samples are *not* flushed; call [`Runner::flush`] first
    /// when that matters. Returns at once for an unwatched stream.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] when the worker is permanently lost.
    pub fn sync(&self, stream: StreamId) -> Result<(), MonitorError> {
        let core = &self.core;
        let w = worker_of(stream, core.workers.len());
        if !core.lock_streams(w).contains_key(&stream) {
            return Ok(());
        }
        let point = Arc::new(SyncPoint::default());
        let arrival = Arc::clone(&point);
        core.send(w, Msg::Mark(Mark::new(move || arrival.arrive())))?;
        while !point.wait_for(Duration::from_millis(50)) {
            // Not arrived within the poll interval: make sure the worker
            // is still alive (a healed worker arrives via the replayed
            // mark in its log).
            let mut slot = core.lock_slot(w);
            let gone = slot.handle.as_ref().is_none_or(|h| h.is_finished());
            if slot.dead || (gone && core.heal(w, &mut slot).is_err()) {
                return Err(MonitorError::WorkerLost);
            }
        }
        // A worker lost before it reached the mark arrives from `heal`.
        if core.lock_slot(w).dead {
            return Err(MonitorError::WorkerLost);
        }
        Ok(())
    }

    /// Runs `f` in `stream`'s queue order, without waiting: flushes the
    /// stream's pending frame and enqueues a mark behind it, and the
    /// owning worker calls `f` once every match implied by the samples
    /// pushed before this call has reached the sink.
    ///
    /// `f` runs exactly once, also when a restart replays the mark. It
    /// runs at once on the calling thread when the stream has no
    /// attachments or its worker is permanently lost; a worker lost
    /// after the mark was queued runs it from the supervisor. `f` runs
    /// on a runner thread, so it must not call back into the runner.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] when the owning worker is permanently
    /// lost (`f` has run by then).
    pub fn mark(
        &self,
        stream: StreamId,
        f: impl FnOnce() + Send + 'static,
    ) -> Result<(), MonitorError> {
        let core = &self.core;
        let mark = Mark::new(f);
        let w = worker_of(stream, core.workers.len());
        let sent = core.lock_streams(w).get_mut(&stream).map(|entry| {
            core.flush_entry(w, stream, entry)
                .and_then(|()| core.send(w, Msg::Mark(Arc::clone(&mark))))
        });
        match sent {
            Some(Ok(())) => Ok(()),
            unsent => {
                mark.fire();
                unsent.unwrap_or(Ok(()))
            }
        }
    }

    /// Pushes one sample to `stream`'s pending frame, enqueued once
    /// [`Runner::max_batch`] samples have accumulated (blocking briefly
    /// when the worker's queue is full). A stream without attachments
    /// drops the sample and keeps no state.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] when the owning worker is
    /// permanently lost (recorded ingestion error, or restart budget
    /// exhausted); with `max_batch > 1` the error may concern an earlier
    /// push of the same stream.
    pub fn push(&self, stream: StreamId, sample: &M::Sample) -> Result<(), MonitorError> {
        let core = &self.core;
        core.with_stream(stream, |w, entry| {
            entry.pending.push(sample.to_owned());
            if entry.pending.len() >= core.max_batch.load(Ordering::Relaxed) {
                core.flush_entry(w, stream, entry)?;
            }
            Ok(())
        })
    }

    /// Pushes a whole slice of samples to `stream` (batch form of
    /// [`Runner::push`]); whole frames are cut straight from the slice.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] — see [`Runner::push`].
    pub fn push_batch(&self, stream: StreamId, samples: &[Owned<M>]) -> Result<(), MonitorError> {
        let core = &self.core;
        let max_batch = core.max_batch.load(Ordering::Relaxed);
        core.with_stream(stream, |w, entry| {
            let mut rest = samples;
            while !rest.is_empty() {
                if entry.pending.is_empty() && rest.len() >= max_batch {
                    let (frame, tail) = rest.split_at(max_batch);
                    core.send_frame(w, stream, frame.into())?;
                    rest = tail;
                } else {
                    let room = max_batch.saturating_sub(entry.pending.len()).max(1);
                    let (head, tail) = rest.split_at(room.min(rest.len()));
                    entry.pending.extend_from_slice(head);
                    rest = tail;
                    if entry.pending.len() >= max_batch {
                        core.flush_entry(w, stream, entry)?;
                    }
                }
            }
            Ok(())
        })
    }

    /// Enqueues the stream's pending partial frame immediately (a no-op
    /// when nothing is buffered). The runner has no timer: call this
    /// when the stream's input drains, so the frame's matches are
    /// reported without waiting for more samples.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] — see [`Runner::push`].
    pub fn flush(&self, stream: StreamId) -> Result<(), MonitorError> {
        self.core
            .with_stream(stream, |w, entry| self.core.flush_entry(w, stream, entry))
    }

    /// Flushes the stream's pending frame, then its attachments' pending
    /// group optima.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] — see [`Runner::push`].
    pub fn finish_stream(&self, stream: StreamId) -> Result<(), MonitorError> {
        self.core.with_stream(stream, |w, entry| {
            self.core.flush_entry(w, stream, entry)?;
            self.core.send(w, Msg::FinishStream(stream))
        })
    }

    /// Drains all queues, stops the workers, and joins them.
    ///
    /// Pending frames are flushed first, in ascending `StreamId` order
    /// (deterministic error precedence). Dead workers are healed before
    /// the drain, so every queued sample is processed unless a worker is
    /// permanently lost.
    ///
    /// # Errors
    /// The lowest-ranked ingestion error recorded by any worker
    /// ([`MonitorError::MissingSample`] ordered by (stream, tick) first),
    /// or [`MonitorError::WorkerLost`] when a worker was permanently lost.
    pub fn shutdown(self) -> Result<(), MonitorError> {
        self.core.shutdown()
    }
}

impl<M> Core<M>
where
    M: Monitor + Clone + Send + 'static,
    Owned<M>: Clone + Send + Sync,
{
    fn lock_slot(&self, w: usize) -> MutexGuard<'_, WorkerSlot<M>> {
        self.workers[w]
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_streams(&self, w: usize) -> MutexGuard<'_, HashMap<StreamId, StreamEntry<M>>> {
        self.workers[w]
            .streams
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_homes(&self) -> MutexGuard<'_, HashMap<AttachmentId, (StreamId, QueryId)>> {
        self.homes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on `stream`'s table entry with its worker's table locked
    /// (so frame order per stream is total across pusher threads); `Ok`
    /// without calling `f` when the stream has no attachments.
    fn with_stream(
        &self,
        stream: StreamId,
        f: impl FnOnce(usize, &mut StreamEntry<M>) -> Result<(), MonitorError>,
    ) -> Result<(), MonitorError> {
        let w = worker_of(stream, self.workers.len());
        match self.lock_streams(w).get_mut(&stream) {
            Some(entry) => f(w, entry),
            None => Ok(()),
        }
    }

    /// Enqueues `entry`'s pending frame (a no-op when empty); the
    /// buffer keeps its capacity for the next frame.
    fn flush_entry(
        &self,
        w: usize,
        stream: StreamId,
        entry: &mut StreamEntry<M>,
    ) -> Result<(), MonitorError> {
        if entry.pending.is_empty() {
            return Ok(());
        }
        let frame = Frame::<M>::from(entry.pending.as_slice());
        entry.pending.clear();
        self.send_frame(w, stream, frame)
    }

    fn send_frame(
        &self,
        w: usize,
        stream: StreamId,
        samples: Frame<M>,
    ) -> Result<(), MonitorError> {
        if let Some(m) = &self.metrics {
            m.batch_len.observe(samples.len() as f64);
        }
        self.send(w, Msg::Frame { stream, samples })
    }

    /// Sends one message to worker `w`.
    fn send(&self, w: usize, msg: Msg<M>) -> Result<(), MonitorError> {
        let mut slot = self.lock_slot(w);
        if slot.dead || !self.enqueue(w, &mut slot, msg) {
            Err(MonitorError::WorkerLost)
        } else {
            Ok(())
        }
    }

    /// Enqueues one message to worker `w` with its slot locked: logs it,
    /// bumps the depth gauge, sends, and heals on a dead channel.
    /// `false` when the worker is (or became) permanently lost.
    fn enqueue(&self, w: usize, slot: &mut WorkerSlot<M>, m: Msg<M>) -> bool {
        prune_log(slot);
        slot.sent += 1;
        slot.log.push_back((slot.sent, m.clone()));
        // Incremented *before* the send so the worker's decrement never
        // transiently underflows the gauge.
        self.workers[w].probe.queued(1);
        // A failed send means the worker is gone: heal it (the message
        // is already logged, so a successful heal replays it).
        !(slot.sender.send(m).is_err() && self.heal(w, slot).is_err())
    }

    /// Spawns an incarnation of worker `w` over `atts`, reading `rx`.
    fn start_worker(
        &self,
        w: usize,
        shared: &Arc<WorkerShared<M>>,
        atts: Vec<Attachment<M>>,
        rx: Receiver<Msg<M>>,
    ) -> JoinHandle<()> {
        let ctx = WorkerCtx {
            sink: Arc::clone(&self.sink),
            error: Arc::clone(&self.error),
            shared: Arc::clone(shared),
            probe: Probe {
                shard: self.workers[w].probe.shard.clone(),
                ..Probe::new(
                    self.metrics.clone(),
                    self.tracer.as_ref(),
                    &format!("worker-{w}"),
                )
            },
            revive: {
                let core = Weak::clone(&self.me);
                Box::new(move |dead| {
                    if let Some(core) = core.upgrade() {
                        core.revive(w, dead);
                    }
                })
            },
        };
        spawn_worker(atts, rx, ctx)
    }

    /// Heals worker `w` after its incarnation on thread `dead` exited
    /// abnormally, unless a send, sync or shutdown already healed (or
    /// joined) it.
    fn revive(&self, w: usize, dead: ThreadId) {
        let mut slot = self.lock_slot(w);
        if slot
            .handle
            .as_ref()
            .is_some_and(|h| h.thread().id() == dead)
        {
            let _ = self.heal(w, &mut slot);
        }
    }

    /// Restarts a dead worker from its last checkpoint and replays the
    /// log tail. Called with the slot lock held; on `Err` the worker is
    /// permanently lost (`slot.dead`).
    fn heal(&self, w: usize, slot: &mut WorkerSlot<M>) -> Result<(), MonitorError> {
        let worker = &self.workers[w];
        'attempt: loop {
            // Collect the dead thread (the in-thread guard already
            // counted the loss).
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join();
            }
            let reason = if slot.shared.failed.load(Ordering::Acquire) {
                // Ingestion error: deliberate stop, never restarted.
                Some("ingest-error")
            } else if slot.restarts >= self.restart.max_restarts {
                Some("restarts-exhausted")
            } else {
                None
            };
            if let Some(reason) = reason {
                slot.dead = true;
                self.postmortem(w, reason);
                // No worker will reach the logged tail's marks: run them
                // here, in order (marks already run are no-ops).
                for (_, m) in &slot.log {
                    if let Msg::Mark(mark) = m {
                        mark.fire();
                    }
                }
                return Err(MonitorError::WorkerLost);
            }
            slot.restarts += 1;
            // The replay below re-counts the queue depth it resends.
            worker.probe.restarted(w);
            thread::sleep(self.restart.backoff(slot.restarts));
            prune_log(slot);
            let atts: Vec<Attachment<M>> = slot
                .shared
                .checkpoint
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|checkpointed| {
                    let mut att = checkpointed.fork();
                    if let Some(m) = &self.metrics {
                        att.set_metrics(m);
                    }
                    att
                })
                .collect();
            let (tx, rx) = sync_channel(QUEUE_DEPTH);
            slot.handle = Some(self.start_worker(w, &slot.shared, atts, rx));
            slot.sender = tx;
            // Replay the uncheckpointed tail (at-least-once delivery: a
            // match confirmed between the checkpoint and the crash is
            // emitted again here).
            let replayed = worker
                .probe
                .span(TraceKind::Replay, slot.log.len() as u64, || {
                    slot.log.iter().all(|(_, m)| {
                        worker.probe.queued(1);
                        slot.sender.send(m.clone()).is_ok()
                    })
                });
            if !replayed {
                continue 'attempt; // died again mid-replay
            }
            // The dead incarnation's final events, the restart, and the
            // replay are exactly what a postmortem should hold.
            self.postmortem(w, "worker-restarted");
            return Ok(());
        }
    }

    /// Dumps the flight recorder after worker `w` was lost (best
    /// effort; a no-op without a tracer or a postmortem directory).
    fn postmortem(&self, w: usize, reason: &str) {
        if let Some(t) = &self.tracer {
            let _ = t.postmortem_dump(&format!("{reason}-worker-{w}"));
        }
    }

    fn shutdown(&self) -> Result<(), MonitorError> {
        // Flush every pending frame first, in ascending StreamId order:
        // the first frame to reach a failing worker decides which error
        // it records.
        let mut streams: Vec<StreamId> = (0..self.workers.len())
            .flat_map(|w| self.lock_streams(w).keys().copied().collect::<Vec<_>>())
            .collect();
        streams.sort_unstable();
        let mut flush_err = None;
        for s in streams {
            if let Err(e) = self.with_stream(s, |w, entry| self.flush_entry(w, s, entry)) {
                flush_err.get_or_insert(e);
            }
        }
        let mut permanent = false;
        for w in 0..self.workers.len() {
            let mut slot = self.lock_slot(w);
            loop {
                if slot.dead {
                    permanent = true;
                    break;
                }
                let finished = slot.handle.as_ref().is_none_or(|h| h.is_finished());
                // A thread gone before Shutdown died abnormally: heal it
                // so its queued samples are still processed, then retry.
                if finished || slot.sender.send(Msg::Shutdown).is_err() {
                    if self.heal(w, &mut slot).is_err() {
                        permanent = true;
                        break;
                    }
                    continue;
                }
                let handle = slot.handle.take().expect("live worker has a join handle");
                if handle.join().is_ok() {
                    break;
                }
                // Panicked while draining; heal and re-drain.
                if self.heal(w, &mut slot).is_err() {
                    permanent = true;
                    break;
                }
            }
        }
        let recorded = self
            .error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match (recorded, flush_err) {
            (Some(e), _) => Err(e),
            (None, _) if permanent => Err(MonitorError::WorkerLost),
            (None, Some(e)) => Err(e),
            (None, None) => Ok(()),
        }
    }
}

/// Drops log entries whose effects are contained in the checkpoint.
fn prune_log<M: Monitor>(slot: &mut WorkerSlot<M>) {
    let applied = slot.shared.applied.load(Ordering::Acquire);
    while slot.log.front().is_some_and(|&(seq, _)| seq <= applied) {
        slot.log.pop_front();
    }
}

/// Total order over ingestion errors, so concurrent workers surface the
/// same error regardless of scheduling: missing samples (ordered by
/// stream, then tick) rank before other ingestion errors, which rank
/// before [`MonitorError::WorkerLost`].
fn error_rank(e: &MonitorError) -> (u8, u64, u64) {
    match e {
        MonitorError::MissingSample { stream, tick } => (0, u64::from(stream.0), *tick),
        MonitorError::WorkerLost => (2, 0, 0),
        _ => (1, 0, 0),
    }
}

fn record_error(slot: &Mutex<Option<MonitorError>>, e: MonitorError) {
    let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if guard
        .as_ref()
        .is_none_or(|cur| error_rank(&e) < error_rank(cur))
    {
        *guard = Some(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Event;
    use crate::sink::{FnSink, VecSink};
    use spring_core::{Spring, VectorSpring};
    use spring_dtw::Kernel;

    type SpringRunner = Runner<Spring<Kernel>>;

    fn spike_stream(spike_at: &[usize], len: usize) -> Vec<f64> {
        let mut v = vec![50.0; len];
        for &s in spike_at {
            v[s..s + 3].copy_from_slice(&[0.0, 10.0, 0.0]);
        }
        v
    }

    fn attachment(stream: u32, qid: u32, gap: GapPolicy) -> RunnerAttachment<Spring<Kernel>> {
        RunnerAttachment::spring(StreamId(stream), QueryId(qid), &[0.0, 10.0, 0.0], 1.0, gap)
            .unwrap()
    }

    fn spike_attachment(stream: u32, qid: u32) -> RunnerAttachment<Spring<Kernel>> {
        attachment(stream, qid, GapPolicy::Skip)
    }

    /// A runner over `atts` recording into a fresh registry.
    fn metered(
        atts: Vec<RunnerAttachment<Spring<Kernel>>>,
        workers: usize,
        sink: Arc<dyn MatchSink>,
    ) -> (SpringRunner, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::new());
        let runner =
            SpringRunner::spawn_with_metrics(atts, workers, 1, sink, Some(metrics.clone()))
                .unwrap();
        (runner, metrics)
    }

    /// Pushes `values` to `stream` one sample at a time, then finishes it.
    fn feed(runner: &SpringRunner, stream: u32, values: &[f64]) {
        for x in values {
            runner.push(StreamId(stream), x).unwrap();
        }
        runner.finish_stream(StreamId(stream)).unwrap();
    }

    fn starts(events: &[Event]) -> Vec<u64> {
        events.iter().map(|e| e.m.start).collect()
    }

    /// Live stream-table entries across all workers.
    fn table_len(runner: &SpringRunner) -> usize {
        (0..runner.core.workers.len())
            .map(|w| runner.core.lock_streams(w).len())
            .sum()
    }

    #[test]
    fn single_worker_end_to_end() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![spike_attachment(0, 0)], 1, sink.clone()).unwrap();
        feed(&runner, 0, &spike_stream(&[4, 15], 25));
        runner.shutdown().unwrap();
        assert_eq!(starts(&sink.events()), vec![5, 16]);
    }

    #[test]
    fn streams_match_identically_across_worker_counts() {
        let run = |workers: usize| {
            let sink = Arc::new(VecSink::new());
            let atts = (0..8).map(|s| spike_attachment(s, s)).collect();
            let runner = SpringRunner::spawn(atts, workers, sink.clone()).unwrap();
            for s in 0..8 {
                feed(&runner, s, &spike_stream(&[3 + s as usize], 24));
            }
            runner.shutdown().unwrap();
            let mut got: Vec<(u32, u64, u64)> = sink
                .events()
                .iter()
                .map(|e| (e.stream.0, e.m.start, e.m.end))
                .collect();
            got.sort_unstable();
            got
        };
        let one = run(1);
        let expected: Vec<_> = (0..8u32)
            .map(|s| (s, 4 + u64::from(s), 6 + u64::from(s)))
            .collect();
        assert_eq!(one, expected);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn placement_is_pinned_to_fnv1a_mod_workers() {
        // `--shards N` placement must not drift: these are
        // fnv1a_u64(id) % n for ids 0..8.
        let sink = Arc::new(VecSink::new());
        for (n, expected) in [(2, [1, 0, 1, 0, 1, 0, 1, 0]), (4, [1, 0, 3, 2, 1, 0, 3, 2])] {
            let runner = SpringRunner::spawn(Vec::new(), n, sink.clone()).unwrap();
            let got: Vec<usize> = (0..8).map(|s| runner.worker_of(StreamId(s))).collect();
            assert_eq!(got, expected, "n = {n}");
            // Deterministic and total: consecutive ids reach every worker.
            let hit: std::collections::HashSet<usize> =
                (0..64).map(|s| runner.worker_of(StreamId(s))).collect();
            assert_eq!(hit.len(), n);
            runner.shutdown().unwrap();
        }
    }

    #[test]
    fn spawn_with_metrics_spawns_shards_times_workers_per_shard() {
        let sink = Arc::new(VecSink::new());
        let metrics = Arc::new(Metrics::new());
        let runner: ShardedRunner<Spring<Kernel>> =
            ShardedRunner::spawn_with_metrics(Vec::new(), 2, 2, sink, Some(metrics.clone()))
                .unwrap();
        assert_eq!(runner.core.workers.len(), 4);
        assert_eq!(runner.worker_of(StreamId(2)), 3);
        runner.shutdown().unwrap();
        assert_eq!(metrics.snapshot().shards.len(), 4);
    }

    #[test]
    fn per_stream_event_order_is_preserved() {
        let sink = Arc::new(VecSink::new());
        let atts = vec![spike_attachment(0, 0), spike_attachment(1, 1)];
        let runner = SpringRunner::spawn(atts, 2, sink.clone()).unwrap();
        feed(&runner, 0, &spike_stream(&[3, 10, 17, 24], 32));
        runner.shutdown().unwrap();
        assert_eq!(starts(&sink.events()), vec![4, 11, 18, 25]);
    }

    #[test]
    fn zero_workers_rejected() {
        let sink = Arc::new(VecSink::new());
        assert!(SpringRunner::spawn(vec![], 0, sink.clone()).is_err());
        assert!(SpringRunner::spawn_with_metrics(vec![], 0, 1, sink.clone(), None).is_err());
        assert!(SpringRunner::spawn_with_metrics(vec![], 2, 0, sink, None).is_err());
    }

    #[test]
    fn shutdown_with_no_traffic_joins_cleanly() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![spike_attachment(0, 0)], 4, sink).unwrap();
        runner.shutdown().unwrap();
    }

    #[test]
    fn fail_policy_error_is_recorded_and_surfaced_at_shutdown() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![attachment(0, 0, GapPolicy::Fail)], 1, sink).unwrap();
        runner.push(StreamId(0), &1.0).unwrap();
        // The worker records the error and stops; the push itself may
        // still succeed (the queue accepts it before processing).
        let _ = runner.push(StreamId(0), &f64::NAN);
        let expected = MonitorError::MissingSample {
            stream: StreamId(0),
            tick: 2,
        };
        assert_eq!(runner.shutdown(), Err(expected));
    }

    #[test]
    fn shutdown_surfaces_the_lowest_stream_error_deterministically() {
        // Regression: Fail-policy attachments on several streams, every
        // buffer holding a NaN at shutdown. On a shared worker the first
        // frame the drain sends decides the recorded error, so the drain
        // must flush in StreamId order (not HashMap order); across
        // workers the lowest (stream, tick) must win regardless of which
        // worker fails first.
        let order = [5, 1, 4, 2, 3];
        for workers in [1, 1, 1, 4, 4, 4] {
            let sink = Arc::new(VecSink::new());
            let atts = order
                .iter()
                .map(|&s| attachment(s, s, GapPolicy::Fail))
                .collect();
            let runner = SpringRunner::spawn(atts, workers, sink).unwrap();
            for s in order {
                runner.push(StreamId(s), &f64::NAN).unwrap();
            }
            let expected = MonitorError::MissingSample {
                stream: StreamId(1),
                tick: 1,
            };
            assert_eq!(runner.shutdown(), Err(expected), "workers = {workers}");
        }
    }

    #[test]
    fn pushes_after_a_worker_dies_report_worker_lost() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![attachment(0, 0, GapPolicy::Fail)], 1, sink).unwrap();
        let _ = runner.push(StreamId(0), &f64::NAN);
        // The worker drops its receiver once the error is recorded, so a
        // later push fails fast instead of deadlocking on a full queue —
        // and the supervisor refuses to restart after ingestion errors.
        let lost = (0..100_000).any(|_| {
            thread::yield_now();
            runner.push(StreamId(0), &1.0).is_err()
        });
        assert!(lost, "push kept succeeding after the worker died");
        assert!(runner.shutdown().is_err());
    }

    #[test]
    fn panicking_sink_surfaces_worker_lost_on_shutdown() {
        let sink = Arc::new(FnSink(|_: &Event| panic!("sink exploded")));
        let runner = SpringRunner::spawn(vec![spike_attachment(0, 0)], 1, sink).unwrap();
        for x in spike_stream(&[2], 8) {
            let _ = runner.push(StreamId(0), &x);
        }
        // The supervisor retries (replay re-panics each time) until the
        // restart budget is exhausted, then reports the permanent loss.
        assert_eq!(runner.shutdown(), Err(MonitorError::WorkerLost));
    }

    #[test]
    fn vector_attachments_run_through_the_same_worker_loop() {
        let sink = Arc::new(VecSink::new());
        let rows = [vec![0.0, 0.0], vec![5.0, -5.0], vec![0.0, 0.0]];
        let monitor = VectorSpring::with_kernel(&rows, 1.0, Kernel::Squared).unwrap();
        let att = RunnerAttachment::new(StreamId(0), QueryId(0), monitor, GapPolicy::Skip);
        let runner = Runner::spawn(vec![att], 2, sink.clone()).unwrap();
        let quiet = [40.0, 40.0];
        let rows = [&quiet[..]; 3]
            .into_iter()
            .chain(rows.iter().map(Vec::as_slice));
        for row in rows.chain([&quiet[..]; 3]) {
            runner.push(StreamId(0), row).unwrap();
        }
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].m.start, events[0].m.end), (4, 6));
        assert_eq!(events[0].variant, spring_core::MonitorVariant::Vector);
    }

    // ---- dynamic attachments / stream table / sync ----------------------

    #[test]
    fn attach_detach_and_sync_at_runtime() {
        let sink = Arc::new(VecSink::new());
        let mut runner = SpringRunner::spawn(Vec::new(), 3, sink.clone()).unwrap();
        runner.set_max_batch(1);
        // Streams 7 and 8 live on different workers.
        assert_ne!(runner.worker_of(StreamId(7)), runner.worker_of(StreamId(8)));
        let a = runner.attach(spike_attachment(7, 3)).unwrap();
        let b = runner.attach(spike_attachment(8, 4)).unwrap();
        assert_ne!(a, b);
        for x in spike_stream(&[4], 12) {
            runner.push(StreamId(7), &x).unwrap();
            runner.push(StreamId(8), &x).unwrap();
        }
        // The barrier guarantees the match has reached the sink.
        runner.sync(StreamId(7)).unwrap();
        runner.sync(StreamId(8)).unwrap();
        let mut events = sink.events();
        events.sort_by_key(|e| e.stream);
        assert_eq!(starts(&events), vec![5, 5]);
        assert_eq!((events[0].attachment, events[0].query), (a, QueryId(3)));
        assert_eq!((events[1].attachment, events[1].query), (b, QueryId(4)));
        runner.detach(a).unwrap();
        // Detached: pushes to the stream are dropped, and the id cannot
        // be detached twice.
        runner.push(StreamId(7), &1.0).unwrap();
        assert_eq!(runner.detach(a), Err(MonitorError::UnknownAttachment(a)));
        runner.detach(b).unwrap();
        assert_eq!(table_len(&runner), 0);
        runner.shutdown().unwrap();
        assert_eq!(sink.events().len(), 2);
    }

    // ---- marks ---------------------------------------------------------

    /// A mark callback that sends `probe()` once it runs, and the
    /// receiving end.
    fn probe_mark<T: Send + 'static>(
        probe: impl FnOnce() -> T + Send + 'static,
    ) -> (impl FnOnce() + Send + 'static, std::sync::mpsc::Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (move || tx.send(probe()).unwrap(), rx)
    }

    const MARK_WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn mark_sees_every_earlier_match_at_any_max_batch() {
        for max_batch in [1, 3, 64] {
            let sink = Arc::new(VecSink::new());
            let mut runner =
                SpringRunner::spawn(vec![spike_attachment(0, 0)], 2, sink.clone()).unwrap();
            runner.set_max_batch(max_batch);
            // Both spikes are confirmed inside the stream; the tail stays
            // in the pending frame unless the mark flushes it.
            runner
                .push_batch(StreamId(0), &spike_stream(&[3, 12], 20))
                .unwrap();
            let seen = sink.clone();
            let (f, rx) = probe_mark(move || seen.len());
            runner.mark(StreamId(0), f).unwrap();
            assert_eq!(rx.recv_timeout(MARK_WAIT), Ok(2), "max_batch {max_batch}");
            runner.shutdown().unwrap();
        }
    }

    #[test]
    fn mark_runs_once_across_a_worker_restart() {
        // The first delivery kills the worker after the frame and the
        // mark are queued. The supervisor heals it without another
        // runner call, the replay reaches the mark after both matches,
        // and the mark runs once.
        let sink = Arc::new(FlakySink::new(1));
        let (mut runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        runner.set_max_batch(32);
        runner
            .push_batch(StreamId(0), &spike_stream(&[4, 15], 25))
            .unwrap();
        let runs = Arc::new(AtomicU64::new(0));
        let (seen, count) = (sink.clone(), Arc::clone(&runs));
        let (f, rx) = probe_mark(move || {
            count.fetch_add(1, Ordering::Relaxed);
            starts(&seen.inner.events())
        });
        runner.mark(StreamId(0), f).unwrap();
        assert_eq!(rx.recv_timeout(MARK_WAIT), Ok(vec![5, 16]));
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.snapshot().worker_restarts_total, 1);
    }

    #[test]
    fn mark_on_an_unwatched_stream_runs_inline() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![spike_attachment(0, 0)], 2, sink).unwrap();
        let caller = thread::current().id();
        let (f, rx) = probe_mark(move || thread::current().id() == caller);
        runner.mark(StreamId(42), f).unwrap();
        assert_eq!(rx.try_recv(), Ok(true), "ran before returning, inline");
        runner.shutdown().unwrap();
    }

    #[test]
    fn mark_on_a_stopped_worker_runs_inline_and_reports_the_loss() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![attachment(0, 0, GapPolicy::Fail)], 1, sink).unwrap();
        // The NaN waits in the pending frame; this mark flushes it, and
        // the worker stops on it before reaching the mark. The mark must
        // still run, from the supervisor.
        runner.push(StreamId(0), &f64::NAN).unwrap();
        let (f, rx) = probe_mark(|| ());
        let _ = runner.mark(StreamId(0), f);
        assert_eq!(rx.recv_timeout(MARK_WAIT), Ok(()));
        // Once the worker is known lost, a mark runs on the caller.
        assert_eq!(runner.sync(StreamId(0)), Err(MonitorError::WorkerLost));
        let caller = thread::current().id();
        let (f, rx) = probe_mark(move || thread::current().id() == caller);
        assert_eq!(runner.mark(StreamId(0), f), Err(MonitorError::WorkerLost));
        assert_eq!(rx.try_recv(), Ok(true), "ran before returning, inline");
        assert!(runner.shutdown().is_err());
    }

    #[test]
    fn session_churn_leaves_no_stream_state_behind() {
        // Regression: the runner used to keep a pending buffer for every
        // stream it had ever seen, so a server's memory grew with the
        // number of sessions.
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(Vec::new(), 2, sink.clone()).unwrap();
        for s in 0..10_000 {
            let id = runner.attach(spike_attachment(s, 0)).unwrap();
            runner.push_batch(StreamId(s), &[50.0, 0.0, 10.0]).unwrap();
            feed(&runner, s, &[0.0]);
            runner.detach(id).unwrap();
        }
        assert_eq!(table_len(&runner), 0);
        runner.shutdown().unwrap();
        assert_eq!(sink.events().len(), 10_000);
    }

    #[test]
    fn samples_pushed_before_attach_never_reach_the_monitor() {
        let sink = Arc::new(VecSink::new());
        let (runner, metrics) = metered(Vec::new(), 1, sink.clone());
        // Unattached pushes create no state …
        for _ in 0..10 {
            runner.push(StreamId(0), &50.0).unwrap();
        }
        assert_eq!(table_len(&runner), 0);
        // … and the monitor's tick count starts at the first push after
        // the attach.
        runner.attach(spike_attachment(0, 0)).unwrap();
        feed(&runner, 0, &spike_stream(&[4], 12));
        runner.shutdown().unwrap();
        assert_eq!(metrics.snapshot().ticks_total, 12);
        let events = sink.events();
        assert_eq!(
            (events.len(), events[0].m.start, events[0].m.end),
            (1, 5, 7)
        );
    }

    #[test]
    fn attach_flushes_pending_samples_to_the_existing_attachments_only() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![spike_attachment(0, 0)], 1, sink.clone()).unwrap();
        // A spike buffered in the pending frame (default max_batch 64)
        // when the second attachment arrives: only query 0 may see it.
        for x in spike_stream(&[2], 8) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.attach(spike_attachment(0, 1)).unwrap();
        feed(&runner, 0, &spike_stream(&[2], 8));
        runner.shutdown().unwrap();
        let mut got: Vec<(u32, u64)> = sink
            .events()
            .iter()
            .map(|e| (e.query.0, e.m.start))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 3), (0, 11), (1, 3)]);
    }

    #[test]
    fn control_calls_on_unwatched_streams_are_no_ops() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(Vec::new(), 2, sink).unwrap();
        runner.push_batch(StreamId(3), &[1.0, 2.0]).unwrap();
        runner.flush(StreamId(3)).unwrap();
        runner.finish_stream(StreamId(3)).unwrap();
        runner.sync(StreamId(42)).unwrap();
        assert_eq!(table_len(&runner), 0);
        runner.shutdown().unwrap();
    }

    #[test]
    fn shard_metrics_add_up_and_drain() {
        let sink = Arc::new(VecSink::new());
        let atts = (0..8).map(|s| spike_attachment(s, s)).collect();
        let (mut runner, metrics) = metered(atts, 4, sink);
        runner.set_max_batch(8);
        for s in 0..8 {
            feed(&runner, s, &spike_stream(&[5], 32));
        }
        runner.shutdown().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.shards.len(), 4);
        // One attachment per stream: per-worker ticks regroup exactly
        // the attachment ticks.
        let shard_ticks: u64 = snap.shards.iter().map(|s| s.ticks).sum();
        assert_eq!((shard_ticks, snap.ticks_total), (8 * 32, 8 * 32));
        for (i, s) in snap.shards.iter().enumerate() {
            assert_eq!((s.queue_depth, s.restarts), (0, 0), "shard {i}");
        }
        let text = snap.to_prometheus();
        assert!(text.contains("spring_shard_ticks_total{shard=\"0\"}"));
        assert!(text.contains("spring_shard_queue_depth{shard=\"3\"}"));
        assert!(text.contains("spring_shard_restarts_total{shard=\"1\"}"));
        assert!(!text.contains("spring_worker_ticks_total"));
    }

    #[test]
    fn sync_on_an_unwatched_stream_returns_immediately() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![spike_attachment(0, 0)], 1, sink).unwrap();
        runner.sync(StreamId(42)).unwrap();
        runner.shutdown().unwrap();
    }

    #[test]
    fn attachments_added_at_runtime_survive_a_worker_restart() {
        // The Attach message is logged and replayed like a frame: a
        // worker killed by a flaky sink must reconstruct an attachment
        // it gained after its last checkpoint.
        let sink = Arc::new(FlakySink::new(1));
        let mut runner = SpringRunner::spawn(Vec::new(), 1, sink.clone()).unwrap();
        runner.set_max_batch(1);
        runner.attach(spike_attachment(0, 0)).unwrap();
        feed(&runner, 0, &spike_stream(&[4, 15], 25));
        runner.shutdown().unwrap();
        assert_eq!(starts(&sink.inner.events()), vec![5, 16]);
    }

    // ---- supervision ---------------------------------------------------

    /// A sink that panics on the first `panics` deliveries, then records
    /// into an inner [`VecSink`].
    struct FlakySink {
        remaining: AtomicU64,
        inner: VecSink,
    }

    impl FlakySink {
        fn new(panics: u64) -> Self {
            FlakySink {
                remaining: AtomicU64::new(panics),
                inner: VecSink::new(),
            }
        }
    }

    impl MatchSink for FlakySink {
        fn on_match(&self, event: &Event) {
            let left = self.remaining.load(Ordering::Relaxed);
            if left > 0 {
                self.remaining.store(left - 1, Ordering::Relaxed);
                panic!("flaky sink: injected panic ({left} left)");
            }
            self.inner.on_match(event);
        }
    }

    #[test]
    fn supervisor_restarts_a_worker_killed_by_a_flaky_sink() {
        let sink = Arc::new(FlakySink::new(1));
        let (runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        // Two spikes: the first match panics the sink and kills the
        // worker; the supervisor must restart + replay so both matches
        // are delivered anyway.
        feed(&runner, 0, &spike_stream(&[4, 15], 25));
        runner.shutdown().unwrap();
        let got = starts(&sink.inner.events());
        assert_eq!(got, vec![5, 16], "no match may be dropped");
        let snap = metrics.snapshot();
        assert_eq!((snap.worker_lost_total, snap.worker_restarts_total), (1, 1));
        assert_eq!(snap.shards[0].restarts, 1);
        assert_eq!(snap.runner_queue_depth(), 0, "gauge must recover to 0");
    }

    #[test]
    fn supervision_off_keeps_the_fail_fast_behavior() {
        let sink = Arc::new(FlakySink::new(1));
        let atts = vec![spike_attachment(0, 0)];
        let runner = SpringRunner::spawn_with_observability(
            atts,
            1,
            sink.clone(),
            None,
            RestartPolicy::none(),
            None,
        )
        .unwrap();
        for x in spike_stream(&[4], 12) {
            let _ = runner.push(StreamId(0), &x);
        }
        assert_eq!(runner.shutdown(), Err(MonitorError::WorkerLost));
        assert!(sink.inner.events().is_empty());
    }

    #[test]
    fn restart_replays_from_a_late_checkpoint() {
        // Long quiet stream first so several checkpoints are taken, then
        // a crash right at the match: the replay tail must still contain
        // the spike (no false dismissal after recovery).
        let sink = Arc::new(FlakySink::new(1));
        let (runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        let len = (CHECKPOINT_EVERY * 5 + 17) as usize;
        feed(&runner, 0, &spike_stream(&[len - 6], len));
        runner.shutdown().unwrap();
        assert_eq!(starts(&sink.inner.events()), vec![len as u64 - 5]);
        assert_eq!(metrics.snapshot().worker_restarts_total, 1);
    }

    #[test]
    fn worker_restart_mid_frame_drops_and_duplicates_nothing() {
        // Regression (frame-granular recovery): two matches land inside
        // ONE frame, and the sink panics on the first delivery — the
        // worker dies *mid-frame*. The supervisor must restart from the
        // pre-frame checkpoint and replay the whole frame once, so the
        // final match set is exactly {first, second}.
        let sink = Arc::new(FlakySink::new(1));
        let (mut runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        runner.set_max_batch(32);
        // Both spikes sit inside one 25-sample frame (flushed by finish).
        feed(&runner, 0, &spike_stream(&[4, 15], 25));
        runner.shutdown().unwrap();
        let got = starts(&sink.inner.events());
        assert_eq!(
            got,
            vec![5, 16],
            "mid-frame restart must neither drop nor duplicate"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.worker_restarts_total, 1);
        assert_eq!(snap.runner_queue_depth(), 0);
        // Replay re-processed the frame, so worker ticks may exceed the
        // stream length — but never undercount it.
        assert!(snap.shards[0].ticks >= 25);
    }

    // ---- framing -------------------------------------------------------

    #[test]
    fn max_batch_one_reproduces_per_sample_messaging() {
        // `--batch 1`: every push flushes immediately, so nothing sits in
        // the pending frame and the event sequence is the per-sample one.
        let sink = Arc::new(VecSink::new());
        let (mut runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        runner.set_max_batch(1);
        feed(&runner, 0, &spike_stream(&[3, 10], 20));
        runner.shutdown().unwrap();
        assert_eq!(starts(&sink.events()), vec![4, 11]);
        let batches = metrics.snapshot().batch_len;
        assert_eq!((batches.count, batches.sum), (20, 20.0));
    }

    #[test]
    fn explicit_flush_enqueues_a_partial_frame() {
        let sink = Arc::new(VecSink::new());
        let (runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        // 7 samples < DEFAULT_MAX_BATCH: buffered until the explicit
        // flush, which sends one 7-sample frame; a second flush of the
        // empty buffer is a no-op.
        for x in spike_stream(&[2], 7) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.flush(StreamId(0)).unwrap();
        runner.flush(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        assert_eq!(sink.events().len(), 1);
        let batches = metrics.snapshot().batch_len;
        assert_eq!((batches.count, batches.sum), (1, 7.0));
    }

    #[test]
    fn push_batch_fills_and_flushes_full_frames() {
        let sink = Arc::new(VecSink::new());
        let (mut runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        runner.set_max_batch(8);
        runner
            .push_batch(StreamId(0), &spike_stream(&[3, 12], 20))
            .unwrap();
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        assert_eq!(starts(&sink.events()), vec![4, 13]);
        // 20 samples at max_batch 8 ⇒ frames of 8, 8, then 4 (flushed
        // by finish_stream).
        let snap = metrics.snapshot();
        assert_eq!((snap.batch_len.count, snap.batch_len.sum), (3, 20.0));
        assert_eq!(snap.shards[0].ticks, 20);
    }

    #[test]
    fn push_batch_tops_up_a_partial_frame_before_cutting_whole_frames() {
        let sink = Arc::new(VecSink::new());
        let (mut runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        runner.set_max_batch(8);
        let values = spike_stream(&[1, 12, 19], 23);
        for x in &values[..3] {
            runner.push(StreamId(0), x).unwrap();
        }
        runner.push_batch(StreamId(0), &values[3..]).unwrap();
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        // The frames are the same consecutive 8-sample cuts a per-sample
        // feed makes: 3 + 5, then 8, then the 7-sample tail.
        assert_eq!(starts(&sink.events()), vec![2, 13, 20]);
        let batches = metrics.snapshot().batch_len;
        assert_eq!((batches.count, batches.sum), (3, 23.0));
    }

    #[test]
    fn shutdown_drains_queued_samples_before_joining() {
        // Regression: push a burst and shut down immediately — every
        // queued tick must still be processed (drain-before-join),
        // including the finish marker and the spike at the very tail.
        let n = 600;
        let sink = Arc::new(VecSink::new());
        let (runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        feed(&runner, 0, &spike_stream(&[n - 3], n));
        runner.shutdown().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.shards[0].ticks, n as u64, "all queued samples drained");
        assert_eq!(snap.runner_queue_depth(), 0);
        assert_eq!(starts(&sink.events()), vec![n as u64 - 2]);
    }

    #[test]
    fn shutdown_drains_even_across_a_mid_drain_panic() {
        // Panic on the first delivery: it happens *during* the drain
        // (shutdown already sent), so the heal-and-redrain path runs.
        let sink = Arc::new(FlakySink::new(1));
        let (runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        for x in spike_stream(&[5], 40) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.shutdown().unwrap();
        assert_eq!(starts(&sink.inner.events()), vec![6]);
        let snap = metrics.snapshot();
        assert!(snap.worker_restarts_total >= 1);
        assert_eq!(snap.runner_queue_depth(), 0);
    }

    // ---- query hot-swap ------------------------------------------------

    const NEW_PATTERN: [f64; 3] = [5.0, -5.0, 5.0];

    /// Runs 8 streams over 4 workers under the spike pattern, re-points
    /// query 0 at `NEW_PATTERN` mid-stream — via `swap_query` or via
    /// detach-all/re-attach-all — then runs a suffix matching the new
    /// pattern. Returns the sorted (stream, query, start, end,
    /// distance-bits) transcript.
    fn swap_transcript(via_detach: bool, metrics: &Arc<Metrics>) -> Vec<(u32, u32, u64, u64, u64)> {
        let sink = Arc::new(VecSink::new());
        let mut runner =
            SpringRunner::spawn_with_metrics(Vec::new(), 4, 1, sink.clone(), Some(metrics.clone()))
                .unwrap();
        runner.set_max_batch(1);
        let ids: Vec<_> = (0..8)
            .map(|s| runner.attach(spike_attachment(s, 0)).unwrap())
            .collect();
        for s in 0..8 {
            runner
                .push_batch(StreamId(s), &spike_stream(&[3], 10))
                .unwrap();
        }
        for s in 0..8 {
            runner.sync(StreamId(s)).unwrap();
        }
        if via_detach {
            for (s, id) in ids.into_iter().enumerate() {
                runner.detach(id).unwrap();
                let att = RunnerAttachment::spring(
                    StreamId(s as u32),
                    QueryId(0),
                    &NEW_PATTERN,
                    1.0,
                    GapPolicy::Skip,
                )
                .unwrap();
                runner.attach(att).unwrap();
            }
        } else {
            assert_eq!(runner.swap_query(QueryId(0), &NEW_PATTERN).unwrap(), 1);
            assert_eq!(runner.query_generation(QueryId(0)), 1);
        }
        let mut suffix = vec![50.0; 10];
        suffix[4..7].copy_from_slice(&NEW_PATTERN);
        for s in 0..8 {
            feed(&runner, s, &suffix);
        }
        runner.shutdown().unwrap();
        let mut transcript: Vec<_> = sink
            .events()
            .iter()
            .map(|e| {
                let m = &e.m;
                (e.stream.0, e.query.0, m.start, m.end, m.distance.to_bits())
            })
            .collect();
        transcript.sort_unstable();
        transcript
    }

    #[test]
    fn swap_query_transcript_matches_detach_all_reattach_all() {
        let swap_metrics = Arc::new(Metrics::new());
        let swapped = swap_transcript(false, &swap_metrics);
        // One old-pattern match and one new-pattern match per stream.
        assert_eq!(swapped.len(), 16);
        let detach_metrics = Arc::new(Metrics::new());
        assert_eq!(swapped, swap_transcript(true, &detach_metrics));
        // One swap over four workers counts once.
        let snap = swap_metrics.snapshot();
        assert_eq!((snap.query_swaps_total, snap.query_generation), (1, 1));
        assert_eq!(detach_metrics.snapshot().query_swaps_total, 0);
    }

    #[test]
    fn swap_query_flushes_buffered_samples_under_the_old_pattern() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![spike_attachment(0, 0)], 1, sink.clone()).unwrap();
        // Default max_batch (64): this spike sits in the pending frame.
        for x in spike_stream(&[2], 8) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.swap_query(QueryId(0), &[7.0, -7.0]).unwrap();
        runner.sync(StreamId(0)).unwrap();
        // The swap flushed the partial frame first, so the buffered
        // spike was monitored under the old pattern.
        assert_eq!(starts(&sink.events()), vec![3]);
        // From here on the new pattern is live, with fresh DP state.
        feed(&runner, 0, &[50.0, 7.0, -7.0, 50.0]);
        runner.shutdown().unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[1].m.start, events[1].m.end), (2, 3));
    }

    #[test]
    fn swap_is_replayed_across_a_worker_restart() {
        let sink = Arc::new(FlakySink::new(1));
        let (mut runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink.clone());
        runner.set_max_batch(1);
        runner.push_batch(StreamId(0), &[50.0; 5]).unwrap();
        runner.swap_query(QueryId(0), &[7.0, -7.0]).unwrap();
        // The first delivered match panics the sink, killing the worker
        // *after* the swap was applied but with the last checkpoint
        // predating it: the restart must re-apply the logged Swap so the
        // rebuilt worker still matches the new pattern.
        feed(&runner, 0, &[50.0, 7.0, -7.0, 50.0]);
        runner.shutdown().unwrap();
        let events = sink.inner.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].m.start, events[0].m.end), (2, 3));
        assert_eq!(metrics.snapshot().worker_restarts_total, 1);
    }

    #[test]
    fn swap_on_a_prebuilt_monitor_surfaces_an_error_at_shutdown() {
        let sink = Arc::new(VecSink::new());
        let config = spring_core::SpringConfig::new(1.0);
        let monitor = Spring::with_kernel(&[0.0, 10.0, 0.0], config, Kernel::Squared).unwrap();
        let att = RunnerAttachment::new(StreamId(0), QueryId(0), monitor, GapPolicy::Skip);
        assert!(!att.swappable());
        let runner = SpringRunner::spawn(vec![att], 1, sink).unwrap();
        // The swap enqueues fine; the rebuild fails worker-side (no
        // stored recipe) and surfaces as the recorded ingestion error.
        runner.swap_query(QueryId(0), &[1.0, 2.0]).unwrap();
        assert!(matches!(runner.shutdown(), Err(MonitorError::Spring(_))));
    }

    #[test]
    fn swap_query_validates_patterns_and_tracks_generations() {
        let sink = Arc::new(VecSink::new());
        let (runner, metrics) = metered(vec![spike_attachment(0, 0)], 1, sink);
        assert_eq!(runner.query_generation(QueryId(0)), 0);
        assert!(runner.swap_query(QueryId(0), &[]).is_err());
        assert!(runner.swap_query(QueryId(0), &[f64::NAN]).is_err());
        let rejected = runner.query_generation(QueryId(0));
        assert_eq!(rejected, 0, "rejected swaps must not allocate a generation");
        assert_eq!(runner.swap_query(QueryId(0), &[1.0, 2.0]).unwrap(), 1);
        assert_eq!(runner.swap_query(QueryId(0), &[3.0, 4.0]).unwrap(), 2);
        assert_eq!(runner.query_generation(QueryId(0)), 2);
        // A query with no attachments still versions cleanly.
        assert_eq!(runner.swap_query(QueryId(9), &[1.0]).unwrap(), 1);
        runner.shutdown().unwrap();
        let snap = metrics.snapshot();
        assert_eq!((snap.query_swaps_total, snap.query_generation), (3, 1));
    }
}
