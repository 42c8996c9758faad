//! Batched-ingestion ablation (DESIGN.md §6e): per-sample cost of
//! `Engine::push_batch` and `Runner::push_batch` as the batch size
//! sweeps {1, 4, 64, 1024}.
//!
//! Batch 1 is the historical per-sample path (one bounds check, one
//! attachment-index resolution, and — for the runner — one channel
//! message per tick); larger batches amortize those fixed costs across
//! the frame and let each attachment step whole runs with one
//! `step_batch` (idle runs skipped a chunk at a time), which is where
//! the speedup comes from.
//!
//! The `batch_ingest_engine/push` row times per-sample `Engine::push`
//! itself on the `b1` engine: one sample per call, through the same
//! one-sample frame path as `b1`'s `push_batch`, plus the returned
//! `Vec`.
//!
//! The `batch_ingest_fanout/q{1,8,32,56}` rows push 64-sample frames
//! through an engine with a metrics registry and 1, 8, 32 or 56
//! m = 64 attachments on one stream, almost all idle
//! ([`spring_bench::fanout`]). They price the per-frame and
//! per-attachment work around the kernel, not springbench's
//! `fanout_q32`, whose plants make most of its time column fills; the
//! slope from `q1` to `q56` is the cost of one idle attachment per
//! frame.
//!
//! The runner rows time processing, not enqueue: every timed iteration
//! pushes [`RUNNER_SAMPLES`] samples in `push_batch` calls of the batch
//! size, then waits on a `sync` barrier, so the workers' DP work runs
//! inside the timed region (as in `shard_scaling`).
//!
//! `ci.sh --quick` captures these results in BENCH_SMOKE.json and warns
//! when they regress >25% against the committed baseline.

use std::hint::black_box;
use std::sync::Arc;

use spring_bench::fanout;
use spring_bench::harness::Bench;
use spring_core::{Spring, SpringConfig};
use spring_data::util::sine;
use spring_monitor::{
    Event, FnSink, GapPolicy, Metrics, QueryId, Runner, RunnerAttachment, SpringEngine, StreamId,
};

const BATCHES: [usize; 4] = [1, 4, 64, 1024];
const PATTERNS: usize = 4;
/// Samples pushed per timed runner iteration before the drain barrier.
const RUNNER_SAMPLES: usize = 1024;

/// Fills `samples` with the next `samples.len()` ticks of a slow sine
/// (no matches at ε = 1.0, keeping the measurement about ingestion, not
/// match reporting) and advances the clock.
fn refill(samples: &mut [f64], t: &mut u64) {
    for (i, s) in samples.iter_mut().enumerate() {
        *s = ((*t + i as u64) as f64 * 0.05).sin();
    }
    *t += samples.len() as u64;
}

/// One stream with [`PATTERNS`] attachments.
fn engine() -> (SpringEngine, StreamId) {
    let mut engine = SpringEngine::new();
    let stream = engine.add_stream("s");
    for k in 0..PATTERNS {
        let pattern = sine(64, 12.0 + k as f64, 1.0, 0.0);
        let q = engine.add_query(format!("q{k}"), pattern).unwrap();
        engine.attach(stream, q, 1.0, GapPolicy::Skip).unwrap();
    }
    (engine, stream)
}

/// Single-threaded engine: whole slices through `push_batch` into a
/// reused event buffer, then one sample per `Engine::push`.
fn bench_engine_batches() {
    let b = Bench::new("batch_ingest_engine");
    for batch in BATCHES {
        let (mut engine, stream) = engine();
        let mut t = 0u64;
        let mut samples = vec![0.0f64; batch];
        let mut out: Vec<Event> = Vec::new();
        b.bench_elems(&format!("b{batch}"), batch as u64, || {
            refill(&mut samples, &mut t);
            out.clear();
            engine.push_batch(stream, &samples, &mut out).unwrap();
            black_box(out.len());
        });
    }
    let (mut engine, stream) = engine();
    let mut t = 0u64;
    let mut sample = [0.0f64];
    b.bench_elems("push", 1, || {
        refill(&mut sample, &mut t);
        black_box(engine.push(stream, &sample[0]).unwrap());
    });
}

/// Threaded runner: one stream with [`PATTERNS`] attachments on a 1- or
/// 4-worker runner (the stream's worker owns all of them; the other
/// workers idle), with the frame size pinned to the push size so every
/// `push_batch` call enqueues exactly one frame, and a `sync` after
/// [`RUNNER_SAMPLES`] samples that waits until the worker has stepped
/// them all.
fn bench_runner_batches() {
    for workers in [1usize, 4] {
        let b = Bench::new(format!("batch_ingest_runner_w{workers}"));
        for batch in BATCHES {
            let mut attachments: Vec<RunnerAttachment<Spring>> = Vec::new();
            for p in 0..PATTERNS {
                let pattern = sine(64, 12.0 + p as f64, 1.0, 0.0);
                let monitor = Spring::new(&pattern, SpringConfig::new(1.0)).expect("valid query");
                attachments.push(RunnerAttachment::new(
                    StreamId(0),
                    QueryId(p as u32),
                    monitor,
                    GapPolicy::Skip,
                ));
            }
            let sink = Arc::new(FnSink(|_: &Event| {}));
            let mut runner = Runner::spawn(attachments, workers, sink).unwrap();
            runner.set_max_batch(batch);
            let mut t = 0u64;
            let mut samples = vec![0.0f64; batch];
            b.bench_elems(&format!("b{batch}"), RUNNER_SAMPLES as u64, || {
                for _ in 0..RUNNER_SAMPLES / batch {
                    refill(&mut samples, &mut t);
                    runner.push_batch(StreamId(0), &samples).unwrap();
                }
                runner.sync(StreamId(0)).unwrap();
            });
            runner.shutdown().unwrap();
        }
    }
}

/// The fan-out engine at each attachment count, registry on, one
/// 64-sample frame per iteration (cycling through a stream with planted
/// copies, so matches fire).
fn bench_fanout() {
    let b = Bench::new("batch_ingest_fanout");
    for queries in [1, 8, 32, 56] {
        let (mut engine, stream) = fanout::engine(Some(Arc::new(Metrics::new())), queries);
        let xs = fanout::stream(256, queries);
        let mut frames = xs.chunks(fanout::FRAME).cycle();
        let mut out: Vec<Event> = Vec::new();
        b.bench_elems(&format!("q{queries}"), fanout::FRAME as u64, || {
            out.clear();
            let frame = frames.next().unwrap();
            engine.push_batch(stream, frame, &mut out).unwrap();
            black_box(out.len());
        });
    }
}

fn main() {
    bench_engine_batches();
    bench_runner_batches();
    bench_fanout();
}
