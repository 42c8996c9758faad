//! Overhead of the flight recorder on the monitoring hot path.
//!
//! The tracing layer claims (DESIGN §6j):
//! * **recorder registered but disabled** — the per-tick cost is one
//!   branch on a relaxed atomic: ≤ 1% on `Engine::push`;
//! * **recorder enabled, 1-in-64 span sampling** — the ingest spans ride
//!   the same sampling discipline as the metrics latency histogram:
//!   ≤ 5% on `Engine::push`.
//!
//! This benchmark measures exactly those claims: the same engine, same
//! stream, with no tracer / a disabled tracer / an enabled sampled
//! tracer — plus the raw cost of one ring write and one snapshot.
//! No gate enforces the budgets: `scripts/bench_compare.sh` tracks
//! other families, and one smoke batch cannot resolve a 1% difference.
//! The overhead percentages are printed for a full-mode run to check
//! by eye.

use std::hint::black_box;
use std::time::Duration;

use spring_bench::harness::{fmt_time, Bench};
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
    let values = stream_values(4_000);
    let run = |mode: Mode| {
        let (mut eng, stream) = engine(m, mode);
        let mut i = 0;
        let id = format!("engine_push_m{m}_{}", mode.id());
        b.bench(&id, || {
            black_box(eng.push(stream, &values[i % values.len()]).unwrap());
            i += 1;
        })
    };
    let none = run(Mode::Untraced);
    let off = run(Mode::Disabled);
    let on = run(Mode::Sampled);
    println!(
        "trace_overhead/engine_push_m{m}            none {}  off {} ({:+.2}%)  on {} ({:+.2}%)",
        fmt_time(none),
        fmt_time(off),
        (off - none) / none * 100.0,
        fmt_time(on),
        (on - none) / none * 100.0,
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
    // Same discipline as metrics_overhead: the off/on comparison divides
    // nearly-equal numbers, so each side needs a stable noise floor.
    let b = Bench::new("trace_overhead")
        .target(Duration::from_millis(120))
        .samples(9);
    for m in [64usize, 256] {
        bench_engine_push(&b, m);
    }
    bench_primitives(&b);
}
