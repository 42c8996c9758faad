//! Monitoring-engine ablation (DESIGN.md §6): per-sample cost as the
//! number of attached queries grows — the "multiple streams, multiple
//! patterns" deployment the paper motivates. The threaded runner's
//! scaling over workers is measured by the `shard_scaling` bench.

use std::hint::black_box;

use spring_bench::harness::Bench;
use spring_data::util::sine;
use spring_monitor::{GapPolicy, SpringEngine};

fn bench_attachment_scaling() {
    let b = Bench::new("engine_attachments");
    for attachments in [1usize, 4, 16, 64] {
        let mut engine = SpringEngine::new();
        let stream = engine.add_stream("s");
        for k in 0..attachments {
            let pattern = sine(64, 12.0 + k as f64, 1.0, 0.0);
            let q = engine.add_query(format!("q{k}"), pattern).unwrap();
            engine.attach(stream, q, 1.0, GapPolicy::Skip).unwrap();
        }
        let mut t = 0u64;
        b.bench_elems(&format!("a{attachments}"), attachments as u64, || {
            black_box(engine.push(stream, &((t as f64 * 0.05).sin())).unwrap());
            t += 1;
        });
    }
}

fn bench_stream_fanout() {
    let b = Bench::new("engine_streams");
    for streams in [1usize, 8, 32] {
        let mut engine = SpringEngine::new();
        let pattern = sine(64, 12.0, 1.0, 0.0);
        let q = engine.add_query("q", pattern).unwrap();
        let ids: Vec<_> = (0..streams)
            .map(|k| {
                let s = engine.add_stream(format!("s{k}"));
                engine.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
                s
            })
            .collect();
        let mut t = 0u64;
        b.bench_elems(&format!("s{streams}"), streams as u64, || {
            // One sample per stream per iteration.
            for &s in &ids {
                black_box(engine.push(s, &((t as f64 * 0.05).sin())).unwrap());
            }
            t += 1;
        });
    }
}

fn main() {
    bench_attachment_scaling();
    bench_stream_fanout();
}
