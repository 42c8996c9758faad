//! Overhead of the flight recorder on the monitoring hot path.
//!
//! The tracing layer claims (DESIGN §6j) that a tracer costs ≤ 5% on
//! `Engine::push`: the push steps a one-sample frame, and the frame
//! holding every 64th stream tick is sampled, its `frame` span timed by
//! the same clock pair as the metrics latency histogram. Without a
//! tracer the engine's probe has no ring, so each hook is one `Option`
//! check.
//!
//! This benchmark measures that claim: the same engine, same stream,
//! with no tracer and with one, timed in interleaved rounds by
//! [`Bench::compare`] — plus the raw cost of one ring write and one
//! snapshot.
//! No gate enforces the budget: `scripts/bench_compare.sh` tracks
//! other families, and one smoke batch cannot resolve a few percent.
//! The overhead percentages are printed for a full-mode run to check
//! by eye.

use std::hint::black_box;

use spring_bench::harness::Bench;
use spring_data::MaskedChirp;
use spring_monitor::trace::EventKind;
use spring_monitor::{GapPolicy, Probe, SpringEngine, Tracer};

fn stream_values(n: usize) -> Vec<f64> {
    let mut cfg = MaskedChirp::small();
    cfg.stream_len = n.max(1_300);
    cfg.generate().0.values
}

/// One engine, one stream, one m-length query attached; `traced`
/// registers a ring for it.
fn engine(m: usize, traced: bool) -> (SpringEngine, spring_monitor::StreamId) {
    let mut cfg = MaskedChirp::small();
    cfg.query_len = m;
    let query = cfg.query().values;
    let mut engine = SpringEngine::new();
    if traced {
        engine.set_tracer(&Tracer::new(), "bench-engine");
    }
    let stream = engine.add_stream("s");
    let q = engine.add_query("q", query).unwrap();
    engine.attach(stream, q, 100.0, GapPolicy::Skip).unwrap();
    (engine, stream)
}

fn bench_engine_push(b: &Bench, m: usize) {
    let values = &stream_values(4_000);
    let pushes = |traced: bool| {
        let (mut eng, stream) = engine(m, traced);
        let mut i = 0;
        move || {
            black_box(eng.push(stream, &values[i % values.len()]).unwrap());
            i += 1;
        }
    };
    let (mut none, mut on) = (pushes(false), pushes(true));
    b.compare(
        1,
        &mut [
            (&format!("engine_push_m{m}_trace_none"), &mut none),
            (&format!("engine_push_m{m}_trace_on"), &mut on),
        ],
    );
}

/// Raw recorder primitives: one instant write into the ring (the
/// every-event cost of a probe holding one) and a full snapshot of a
/// saturated ring (the export-path cost, off the hot path).
fn bench_primitives(b: &Bench) {
    let tracer = Tracer::new();
    let probe = Probe::new(None, Some(&tracer), "bench-ring");
    b.bench("ring_write_instant", || {
        probe.instant(EventKind::Match, black_box(7));
    });
    b.bench("ring_snapshot_4096", || {
        black_box(tracer.snapshot().total_events());
    });
}

fn main() {
    let b = Bench::new("trace_overhead");
    for m in [64usize, 256] {
        bench_engine_push(&b, m);
    }
    bench_primitives(&b);
}
