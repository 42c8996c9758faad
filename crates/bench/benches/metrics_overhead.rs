//! Overhead of the observability layer on the monitoring hot path.
//!
//! The metrics registry budgets 5% of the ingest path (DESIGN §6c):
//! latency is timed on one frame per 64 stream ticks, match and tick
//! counters are relaxed atomics. Per-sample `Engine::push` steps a
//! one-sample frame through the same path as `Engine::push_batch`, so
//! both pairs below pay the same per-frame recording. This benchmark
//! measures that claim — the same engine, same stream, with and
//! without a registry attached, timed in interleaved rounds by
//! [`Bench::compare`] — plus the raw cost of the metric primitives
//! themselves.

use std::hint::black_box;
use std::sync::Arc;

use spring_bench::fanout;
use spring_bench::harness::Bench;
use spring_data::MaskedChirp;
use spring_monitor::{GapPolicy, Metrics, SpringEngine};

fn stream_values(n: usize) -> Vec<f64> {
    let mut cfg = MaskedChirp::small();
    cfg.stream_len = n.max(1_300);
    cfg.generate().0.values
}

/// One engine, one stream, one m-length query attached.
fn engine(m: usize, with_metrics: bool) -> (SpringEngine, spring_monitor::StreamId) {
    let mut cfg = MaskedChirp::small();
    cfg.query_len = m;
    let query = cfg.query().values;
    let mut engine = SpringEngine::new();
    if with_metrics {
        engine.set_metrics(Arc::new(Metrics::new()));
    }
    let stream = engine.add_stream("s");
    let q = engine.add_query("q", query).unwrap();
    engine.attach(stream, q, 100.0, GapPolicy::Skip).unwrap();
    (engine, stream)
}

fn bench_engine_push(b: &Bench, m: usize) {
    let values = &stream_values(4_000);
    let pushes = |with_metrics: bool| {
        let (mut eng, stream) = engine(m, with_metrics);
        let mut i = 0;
        move || {
            black_box(eng.push(stream, &values[i % values.len()]).unwrap());
            i += 1;
        }
    };
    let (mut off, mut on) = (pushes(false), pushes(true));
    b.compare(
        1,
        &mut [
            (&format!("engine_push_m{m}_metrics_off"), &mut off),
            (&format!("engine_push_m{m}_metrics_on"), &mut on),
        ],
    );
}

/// The fan-out pair: 32 m = 64 attachments on one stream, 64-sample
/// frames through `Engine::push_batch` ([`spring_bench::fanout`]), with
/// and without a registry. Reported per 64-sample frame.
fn bench_engine_push_batch_fanout(b: &Bench) {
    let q = 32;
    let xs = fanout::stream(256, q);
    let frames = |metrics: Option<Arc<Metrics>>| {
        let (mut eng, stream) = fanout::engine(metrics, q);
        let mut frames = xs.chunks(fanout::FRAME).cycle();
        let mut out = Vec::new();
        move || {
            out.clear();
            eng.push_batch(stream, frames.next().unwrap(), &mut out)
                .unwrap();
            black_box(out.len());
        }
    };
    let (mut off, mut on) = (frames(None), frames(Some(Arc::new(Metrics::new()))));
    b.compare(
        fanout::FRAME as u64,
        &mut [
            (&format!("engine_push_batch_q{q}_metrics_off"), &mut off),
            (&format!("engine_push_batch_q{q}_metrics_on"), &mut on),
        ],
    );
}

fn bench_primitives(b: &Bench) {
    let metrics = Metrics::new();
    b.bench("counter_inc", || {
        metrics.ticks.inc();
    });
    b.bench("histogram_observe", || {
        metrics.tick_latency.observe(black_box(3.2e-7));
    });
    b.bench("snapshot_to_prometheus", || {
        black_box(metrics.snapshot().to_prometheus());
    });
}

fn main() {
    let b = Bench::new("metrics_overhead");
    for m in [64usize, 256] {
        bench_engine_push(&b, m);
    }
    bench_engine_push_batch_fanout(&b);
    bench_primitives(&b);
}
