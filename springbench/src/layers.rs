//! The traced run: a workload's inputs replayed in-process through each
//! layer's public functions, timed by spans this benchmark records
//! around the calls (the program itself is not instrumented), and the
//! CPU waterfall that reconciles them with the untraced server.
//!
//! The replays mirror what `spring serve` does with the same input:
//! 4 KiB reads through `ProtoParser::feed` and `CarryForward`, one
//! `ShardedRunner::push` per sample into 2 shards with 64-sample frames
//! and a metrics registry, workers stepping every attachment with
//! `Monitor::step` sample by sample, and for sessions the
//! attach / flush / sync / finish / sync / detach sequence of a
//! connection's end.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spring_cli::proto::{format_match, CarryForward, ProtoEvent, ProtoParser};
use spring_core::{Match, Monitor, MonitorSpec, QueryArena, ScalarMonitor};
use spring_dtw::Kernel;
use spring_monitor::{
    Event, FnSink, GapPolicy, Metrics, MixedEngine, QueryId, RunnerAttachment, ShardedRunner,
    StreamId,
};
use spring_util::json::Value;

use crate::procfs;
use crate::reference::Attachment;
use crate::stats::median;
use crate::workload::{Block, Inputs, BATCH};

/// Bytes per `ProtoParser::feed` call (the server's read size).
const READ_CHUNK: usize = 4096;
/// Samples pushed to one stream before switching to the other.
const INTERLEAVE: usize = 4096;
/// Minimum `format_match` calls per round.
const FORMAT_CALLS: usize = 8192;
/// Attach / sync / detach calls per round.
const CONTROL_CALLS: usize = 64;
/// Fresh arenas each pattern is interned into per round.
const INTERN_ARENAS: usize = 32;
/// Shards of the replayed runner (the server's `--shards`).
const SHARDS: usize = 2;

/// One recorded span: a call (or a loop of calls) into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.fn`.
    pub name: &'static str,
    /// Workload replayed.
    pub workload: &'static str,
    /// Span id (from 1).
    pub id: u64,
    /// Enclosing span id, 0 for a root.
    pub parent: u64,
    /// The replay round (workload chunk) the span belongs to.
    pub chunk: u64,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }
}

impl Spans {
    fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn record(
        &mut self,
        id: u64,
        parent: u64,
        chunk: u64,
        name: &'static str,
        workload: &'static str,
        start: Instant,
    ) {
        let dur = start.elapsed();
        self.spans.push(Span {
            name,
            workload,
            id,
            parent,
            chunk,
            start_us: (start - self.epoch).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`ph:"X"`) event per span,
    /// with its id, parent and chunk in `args`.
    pub fn to_chrome_json(&self) -> String {
        let num = |v: f64| Value::Num(v);
        let mut events = vec![Value::Obj(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), num(1.0)),
            ("tid".into(), num(1.0)),
            (
                "args".into(),
                Value::Obj(vec![("name".into(), Value::Str("springbench".into()))]),
            ),
        ])];
        for s in &self.spans {
            events.push(Value::Obj(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str(s.workload.into())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), num(1.0)),
                ("tid".into(), num(1.0)),
                ("ts".into(), num(s.start_us)),
                ("dur".into(), num(s.dur_us)),
                (
                    "args".into(),
                    Value::Obj(vec![
                        ("id".into(), num(s.id as f64)),
                        ("parent".into(), num(s.parent as f64)),
                        ("chunk".into(), num(s.chunk as f64)),
                    ]),
                ),
            ]));
        }
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
        .to_compact()
    }
}

/// Where the spans of one replay round go.
struct Round<'a> {
    spans: &'a mut Spans,
    workload: &'static str,
    chunk: u64,
    root: u64,
}

impl Round<'_> {
    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let id = self.spans.reserve();
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.spans
            .record(id, self.root, self.chunk, name, self.workload, start);
        (out, dur)
    }
}

/// Per-layer costs of one replay round (or the median of several).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// `ProtoParser::feed` + `CarryForward::resolve`, ns per sample.
    pub proto_feed_ns: f64,
    /// `format_match`, ns per match line.
    pub format_ns: f64,
    /// `Monitor::step` over every attachment, ns per stream sample.
    pub kernel_step_ns: f64,
    /// `Monitor::step_batch` (64) over every attachment, ns per stream sample.
    pub kernel_step_batch_ns: f64,
    /// `Engine::push_batch` (64), ns per stream sample.
    pub engine_push_batch_ns: f64,
    /// `ShardedRunner::push` per sample through the final `sync`, wall ns per sample.
    pub runner_push_ns: f64,
    /// The same input through `push_batch` (64), wall ns per sample.
    pub runner_push_batch_ns: f64,
    /// Process CPU (all threads) of the per-sample push replay, ns per sample.
    pub runner_cpu_ns: f64,
    /// `ShardedRunner::attach` on an idle stream, µs per call.
    pub attach_us: f64,
    /// `ShardedRunner::detach` on an idle stream, µs per call.
    pub detach_us: f64,
    /// `ShardedRunner::sync` on an idle stream, µs per call.
    pub sync_us: f64,
    /// `QueryArena::intern`, µs per pattern.
    pub intern_us: f64,
}

fn per(d: Duration, n: u64, unit: f64) -> f64 {
    d.as_secs_f64() * unit / n.max(1) as f64
}

fn monitor(att: &Attachment) -> Result<ScalarMonitor, String> {
    MonitorSpec::Spring {
        epsilon: att.epsilon,
    }
    .build(&att.query, Kernel::Squared)
    .map_err(|e| e.to_string())
}

fn runner_attachment(
    stream: StreamId,
    query: usize,
    att: &Attachment,
) -> Result<RunnerAttachment<ScalarMonitor>, String> {
    let epsilon = att.epsilon;
    Ok(RunnerAttachment::new(
        stream,
        QueryId(query as u32),
        monitor(att)?,
        GapPolicy::Skip,
    )
    .with_builder(move |q| MonitorSpec::Spring { epsilon }.build(q, Kernel::Squared)))
}

/// The replayed streams: the two long-lived streams, or every session
/// of the churn pool (each its own stream, like its own connection).
fn streams(inputs: &Inputs) -> Vec<(StreamId, &Block)> {
    inputs
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (StreamId(i as u32), b))
        .collect()
}

fn proto_feed(blocks: &[(StreamId, &Block)]) -> u64 {
    let mut samples = 0;
    let mut events = VecDeque::new();
    for (_, b) in blocks {
        let mut parser = ProtoParser::new();
        let mut carry = CarryForward::default();
        for chunk in b.bytes.chunks(READ_CHUNK) {
            parser.feed(chunk, &mut events);
            for ev in events.drain(..) {
                if let ProtoEvent::Sample(v) = ev {
                    if let Some(x) = carry.resolve(v) {
                        black_box(x);
                        samples += 1;
                    }
                }
            }
        }
        parser.finish(&mut events);
        events.clear();
    }
    samples
}

fn kernel(
    blocks: &[(StreamId, &Block)],
    monitors: &mut [Vec<ScalarMonitor>],
    batch: bool,
) -> Result<(), String> {
    let mut out: Vec<Match> = Vec::new();
    for ((_, b), mons) in blocks.iter().zip(monitors) {
        if batch {
            for frame in b.values.chunks(BATCH) {
                for m in mons.iter_mut() {
                    m.step_batch(frame, &mut out).map_err(|e| e.to_string())?;
                }
                black_box(&out);
                out.clear();
            }
        } else {
            // Sample-major, like the runner's workers.
            for x in &b.values {
                for m in mons.iter_mut() {
                    black_box(m.step(x).map_err(|e| e.to_string())?);
                }
            }
        }
    }
    Ok(())
}

/// Replays every stream through a fresh 2-shard runner; returns (wall,
/// process CPU) from the first push to the last `sync`.
fn runner_replay(
    blocks: &[(StreamId, &Block)],
    attachments: &[Attachment],
    sessions: bool,
    per_sample: bool,
    expect_matches: u64,
) -> Result<(Duration, Duration), String> {
    let hits = Arc::new(AtomicU64::new(0));
    let sink = Arc::new(FnSink({
        let hits = Arc::clone(&hits);
        move |_: &Event| {
            hits.fetch_add(1, Ordering::Relaxed);
        }
    }));
    let mut runner = ShardedRunner::spawn_with_metrics(
        Vec::new(),
        SHARDS,
        1,
        sink,
        Some(Arc::new(Metrics::new())),
    )
    .map_err(|e| e.to_string())?;
    runner.set_max_batch(BATCH);
    let err = |e: spring_monitor::MonitorError| e.to_string();
    let mut specs = Vec::new();
    for &(sid, _) in blocks {
        for (q, att) in attachments.iter().enumerate() {
            specs.push(runner_attachment(sid, q, att)?);
        }
    }
    if !sessions {
        for spec in specs.drain(..) {
            runner.attach(spec).map_err(err)?;
        }
    }
    let push = |sid: StreamId, values: &[f64]| -> Result<(), String> {
        if per_sample {
            for x in values {
                runner.push(sid, x).map_err(err)?;
            }
        } else {
            for frame in values.chunks(BATCH) {
                runner.push_batch(sid, frame).map_err(err)?;
            }
        }
        Ok(())
    };
    let pid = std::process::id();
    let cpu0 = procfs::live_cpu_ns(pid).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    if sessions {
        let mut specs = specs.into_iter();
        for &(sid, b) in blocks {
            let ids = attachments
                .iter()
                .map(|_| runner.attach(specs.next().expect("one spec per attachment")))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            push(sid, &b.values)?;
            runner.flush(sid).map_err(err)?;
            runner.sync(sid).map_err(err)?;
            runner.finish_stream(sid).map_err(err)?;
            runner.sync(sid).map_err(err)?;
            for id in ids {
                runner.detach(id).map_err(err)?;
            }
        }
    } else {
        let len = blocks
            .iter()
            .map(|(_, b)| b.values.len())
            .max()
            .unwrap_or(0);
        for start in (0..len).step_by(INTERLEAVE) {
            for &(sid, b) in blocks {
                let end = (start + INTERLEAVE).min(b.values.len());
                push(sid, &b.values[start.min(end)..end])?;
            }
        }
        for &(sid, _) in blocks {
            runner.flush(sid).map_err(err)?;
            runner.sync(sid).map_err(err)?;
        }
    }
    let wall = t0.elapsed();
    let cpu = procfs::live_cpu_ns(pid).map_err(|e| e.to_string())? - cpu0;
    runner.shutdown().map_err(err)?;
    let got = hits.load(Ordering::Relaxed);
    if got != expect_matches {
        return Err(format!(
            "runner replay reported {got} matches, the reference {expect_matches}"
        ));
    }
    Ok((wall, Duration::from_nanos(cpu)))
}

/// Attach, sync and detach on idle streams of a fresh runner; returns
/// the three total times.
fn control_calls(att: &Attachment) -> Result<[Duration; 3], String> {
    let sink = Arc::new(FnSink(|_: &Event| {}));
    let runner: ShardedRunner<ScalarMonitor> = ShardedRunner::spawn_with_metrics(
        Vec::new(),
        SHARDS,
        1,
        sink,
        Some(Arc::new(Metrics::new())),
    )
    .map_err(|e| e.to_string())?;
    let err = |e: spring_monitor::MonitorError| e.to_string();
    let mut total = [Duration::ZERO; 3];
    for i in 0..CONTROL_CALLS {
        let sid = StreamId(i as u32);
        let spec = runner_attachment(sid, 0, att)?;
        let t = Instant::now();
        let id = runner.attach(spec).map_err(err)?;
        total[0] += t.elapsed();
        let t = Instant::now();
        runner.sync(sid).map_err(err)?;
        total[1] += t.elapsed();
        let t = Instant::now();
        runner.detach(id).map_err(err)?;
        total[2] += t.elapsed();
    }
    runner.shutdown().map_err(err)?;
    Ok(total)
}

fn one_round(inputs: &Inputs, spans: &mut Spans, chunk: u64) -> Result<LayerCosts, String> {
    let w = inputs.workload;
    let attachments = inputs.attachments();
    let blocks = streams(inputs);
    let samples: u64 = blocks.iter().map(|(_, b)| b.len()).sum();
    let expect_matches: u64 = inputs
        .expected
        .iter()
        .map(|e| e.per_block.len() as u64)
        .sum();
    let start = Instant::now();
    let root = spans.reserve();
    let mut round = Round {
        spans,
        workload: w.name,
        chunk,
        root,
    };
    let mut c = LayerCosts::default();

    let (parsed, d) = round.span("proto.feed", || proto_feed(&blocks));
    if parsed != samples {
        return Err(format!("proto replay parsed {parsed} of {samples} samples"));
    }
    c.proto_feed_ns = per(d, samples, 1e9);

    let lines: Vec<Match> = inputs
        .expected
        .iter()
        .flat_map(|e| e.per_block.iter().map(|w| w.to_match()))
        .collect();
    let calls = FORMAT_CALLS.max(lines.len());
    let ((), d) = round.span("proto.format_match", || {
        for i in 0..calls {
            black_box(format_match(&lines[i % lines.len()], false));
        }
    });
    c.format_ns = per(d, calls as u64, 1e9);

    for batch in [false, true] {
        let mut monitors = blocks
            .iter()
            .map(|_| {
                attachments
                    .iter()
                    .map(monitor)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let name = if batch {
            "kernel.step_batch"
        } else {
            "kernel.step"
        };
        let (r, d) = round.span(name, || kernel(&blocks, &mut monitors, batch));
        r?;
        if batch {
            c.kernel_step_batch_ns = per(d, samples, 1e9);
        } else {
            c.kernel_step_ns = per(d, samples, 1e9);
        }
    }

    let mut engine = MixedEngine::new();
    engine.set_metrics(Arc::new(Metrics::new()));
    let mut ids = Vec::new();
    for _ in &blocks {
        let sid = engine.add_stream("s");
        for (q, att) in attachments.iter().enumerate() {
            let qid = engine
                .add_query(format!("q{q}"), att.query.clone())
                .map_err(|e| e.to_string())?;
            let epsilon = att.epsilon;
            engine
                .attach_monitor(sid, qid, GapPolicy::Skip, move |q| {
                    MonitorSpec::Spring { epsilon }.build(q, Kernel::Squared)
                })
                .map_err(|e| e.to_string())?;
        }
        ids.push(sid);
    }
    let (r, d) = round.span("engine.push_batch", || {
        let mut out: Vec<Event> = Vec::new();
        for (&sid, (_, b)) in ids.iter().zip(&blocks) {
            for frame in b.values.chunks(BATCH) {
                engine.push_batch(sid, frame, &mut out)?;
                out.clear();
            }
        }
        Ok::<(), spring_monitor::MonitorError>(())
    });
    r.map_err(|e| e.to_string())?;
    c.engine_push_batch_ns = per(d, samples, 1e9);

    let (r, _) = round.span("runner.push", || {
        runner_replay(&blocks, &attachments, w.churn, true, expect_matches)
    });
    let (wall, cpu) = r?;
    c.runner_push_ns = per(wall, samples, 1e9);
    c.runner_cpu_ns = per(cpu, samples, 1e9);
    let (r, _) = round.span("runner.push_batch", || {
        runner_replay(&blocks, &attachments, w.churn, false, expect_matches)
    });
    c.runner_push_batch_ns = per(r?.0, samples, 1e9);

    let (r, _) = round.span("runner.attach_sync_detach", || {
        control_calls(&attachments[0])
    });
    let [attach, sync, detach] = r?;
    let n = CONTROL_CALLS as u64;
    (c.attach_us, c.sync_us, c.detach_us) =
        (per(attach, n, 1e6), per(sync, n, 1e6), per(detach, n, 1e6));

    let (r, d) = round.span("arena.intern", || {
        for _ in 0..INTERN_ARENAS {
            let arena = QueryArena::new();
            for q in &inputs.queries {
                black_box(arena.intern(q)?);
            }
        }
        Ok::<(), spring_core::SpringError>(())
    });
    r.map_err(|e| e.to_string())?;
    c.intern_us = per(d, (INTERN_ARENAS * inputs.queries.len()) as u64, 1e6);

    round
        .spans
        .record(root, 0, chunk, "springbench.round", w.name, start);
    Ok(c)
}

/// Replays `inputs` for at least `min_rounds` rounds and until `budget`
/// has passed; returns each round's costs. `chunk` is the running round
/// id across workloads.
pub fn replay(
    inputs: &Inputs,
    budget: Duration,
    min_rounds: usize,
    spans: &mut Spans,
    chunk: &mut u64,
) -> Result<Vec<LayerCosts>, String> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || t0.elapsed() < budget {
        *chunk += 1;
        rounds.push(one_round(inputs, spans, *chunk)?);
    }
    Ok(rounds)
}

/// Each cost's median over `rounds` (at least one).
pub fn median_costs(rounds: &[LayerCosts]) -> LayerCosts {
    let med = |f: fn(&LayerCosts) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).expect("at least one round")
    };
    LayerCosts {
        proto_feed_ns: med(|c| c.proto_feed_ns),
        format_ns: med(|c| c.format_ns),
        kernel_step_ns: med(|c| c.kernel_step_ns),
        kernel_step_batch_ns: med(|c| c.kernel_step_batch_ns),
        engine_push_batch_ns: med(|c| c.engine_push_batch_ns),
        runner_push_ns: med(|c| c.runner_push_ns),
        runner_push_batch_ns: med(|c| c.runner_push_batch_ns),
        runner_cpu_ns: med(|c| c.runner_cpu_ns),
        attach_us: med(|c| c.attach_us),
        detach_us: med(|c| c.detach_us),
        sync_us: med(|c| c.sync_us),
        intern_us: med(|c| c.intern_us),
    }
}

/// The CPU waterfall of one workload, in ns of CPU per stream sample.
#[derive(Debug, Clone, Copy)]
pub struct Waterfall {
    /// `Monitor::step` over every attachment.
    pub kernel: f64,
    /// `Engine::push_batch` minus the kernel.
    pub engine_self: f64,
    /// Runner replay CPU minus `Engine::push_batch`.
    pub runner_self: f64,
    /// Parsing and gap resolution.
    pub proto: f64,
    /// The untraced server's CPU per sample minus every measured row.
    pub serve_self: f64,
    /// The untraced server's CPU per sample.
    pub total: f64,
}

impl Waterfall {
    /// Builds the rows from the replay costs and the untraced server's
    /// `cpu_us_per_sample`.
    pub fn new(c: &LayerCosts, cpu_us_per_sample: f64) -> Self {
        let total = cpu_us_per_sample * 1e3;
        Waterfall {
            kernel: c.kernel_step_ns,
            engine_self: c.engine_push_batch_ns - c.kernel_step_ns,
            runner_self: c.runner_cpu_ns - c.engine_push_batch_ns,
            proto: c.proto_feed_ns,
            serve_self: total - c.proto_feed_ns - c.runner_cpu_ns,
            total,
        }
    }

    /// Whether the measured rows stay within `bound` (a share) of the
    /// untraced total, i.e. the remainder is not below `-bound × total`.
    /// The replay and the server run take turns on the same CPUs, so a
    /// host whose speed drifts between them can break this without any
    /// layer changing.
    pub fn reconciles(&self, bound: f64) -> bool {
        self.serve_self >= -bound * self.total
    }

    /// The table, one row per layer.
    pub fn render(&self, workload: &str) -> String {
        let rows = [
            ("kernel (Monitor::step)", self.kernel),
            ("engine self", self.engine_self),
            ("runner self", self.runner_self),
            ("proto (feed + resolve)", self.proto),
            ("serve self (remainder)", self.serve_self),
        ];
        let mut s = format!("{workload}: CPU per sample, ns\n");
        for (name, v) in rows {
            s.push_str(&format!(
                "  {name:<26} {v:>10.1}  {:>6.1}%\n",
                100.0 * v / self.total
            ));
        }
        s.push_str(&format!(
            "  {:<26} {:>10.1}  100.0%  (untraced cpu_us_per_sample)\n",
            "total", self.total
        ));
        s
    }
}
