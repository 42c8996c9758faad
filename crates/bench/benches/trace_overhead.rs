//! Overhead of the flight recorder on the monitoring hot path.
//!
//! The tracing layer claims (DESIGN §6j):
//! * **recorder registered but disabled** — the per-tick cost is one
//!   branch on a relaxed atomic: ≤ 1% on `Engine::push`;
//! * **recorder enabled, 1-in-64 span sampling** — `Engine::push`
//!   steps a one-sample frame and records one `ingest` span per 64
//!   pushes, the cadence of the metrics latency histogram, and no
//!   frame span: ≤ 5% on `Engine::push`.
//!
//! This benchmark measures exactly those claims: the same engine, same
//! stream, with no tracer / a disabled tracer / an enabled sampled
//! tracer, timed in interleaved rounds by [`Bench::compare`] — plus the
//! raw cost of one ring write and one snapshot.
//! No gate enforces the budgets: `scripts/bench_compare.sh` tracks
//! other families, and one smoke batch cannot resolve a 1% difference.
//! The overhead percentages are printed for a full-mode run to check
//! by eye.

use std::hint::black_box;

use spring_bench::harness::Bench;
use spring_data::MaskedChirp;
use spring_monitor::trace::EventKind;
use spring_monitor::{GapPolicy, SpringEngine, Tracer};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// No tracer attached: the handle is the inert `off()` default.
    Untraced,
    /// Tracer attached but disabled: the production default when a
    /// recorder is plumbed in and `--trace` is not given.
    Disabled,
    /// Tracer enabled with the default 1-in-64 ingest-span sampling.
    Sampled,
}

impl Mode {
    fn id(self) -> &'static str {
        match self {
            Mode::Untraced => "trace_none",
            Mode::Disabled => "trace_off",
            Mode::Sampled => "trace_on",
        }
    }
}

fn stream_values(n: usize) -> Vec<f64> {
    let mut cfg = MaskedChirp::small();
    cfg.stream_len = n.max(1_300);
    cfg.generate().0.values
}

/// One engine, one stream, one m-length query attached.
fn engine(m: usize, mode: Mode) -> (SpringEngine, spring_monitor::StreamId) {
    let mut cfg = MaskedChirp::small();
    cfg.query_len = m;
    let query = cfg.query().values;
    let mut engine = SpringEngine::new();
    if mode != Mode::Untraced {
        let tracer = Tracer::new();
        tracer.set_enabled(mode == Mode::Sampled);
        engine.set_tracer(&tracer, "bench-engine");
    }
    let stream = engine.add_stream("s");
    let q = engine.add_query("q", query).unwrap();
    engine.attach(stream, q, 100.0, GapPolicy::Skip).unwrap();
    (engine, stream)
}

fn bench_engine_push(b: &Bench, m: usize) {
    let values = &stream_values(4_000);
    let pushes = |mode: Mode| {
        let (mut eng, stream) = engine(m, mode);
        let mut i = 0;
        move || {
            black_box(eng.push(stream, &values[i % values.len()]).unwrap());
            i += 1;
        }
    };
    let mut none = pushes(Mode::Untraced);
    let mut off = pushes(Mode::Disabled);
    let mut on = pushes(Mode::Sampled);
    let id = |mode: Mode| format!("engine_push_m{m}_{}", mode.id());
    b.compare(
        1,
        &mut [
            (&id(Mode::Untraced), &mut none),
            (&id(Mode::Disabled), &mut off),
            (&id(Mode::Sampled), &mut on),
        ],
    );
}

/// Raw recorder primitives: one instant write into the ring (the
/// every-event cost once sampling says yes) and a full snapshot of a
/// saturated ring (the export-path cost, off the hot path).
fn bench_primitives(b: &Bench) {
    let tracer = Tracer::new();
    tracer.set_enabled(true);
    let handle = tracer.register("bench-ring");
    b.bench("ring_write_instant", || {
        handle.instant(EventKind::Match, black_box(7));
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
