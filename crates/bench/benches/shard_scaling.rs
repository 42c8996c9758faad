//! Worker-scaling ablation (DESIGN.md §6f): end-to-end throughput of a
//! [`Runner`] as the worker count (`--shards`) sweeps {1, 2, 4, 8} and
//! the frame size {1, 64}.
//!
//! The workload is 64 independent streams, each with its own monitor,
//! hashed across the workers. Every timed iteration pushes [`REPS`]
//! frames to every stream and then drains the workers with one sync
//! barrier each (one representative stream per worker — a worker
//! processes its queue in FIFO order, so syncing any stream it owns
//! drains everything enqueued before it). The measurement is therefore
//! *processing* throughput, not enqueue throughput: the DP work really
//! runs inside the timed region.
//!
//! What to expect: at batch 64 the per-frame fixed costs are amortized
//! and the work is DP-bound, so throughput scales with workers until the
//! machine runs out of cores (on a single-core host every worker count
//! converges to the same rate — the scaling is real parallelism, not a
//! per-worker constant). At batch 1 the per-message costs dominate and
//! more workers buy much less, which is the point of the comparison.
//!
//! `ci.sh --quick` captures these results in BENCH_SMOKE.json and warns
//! when they regress >25% against the committed baseline.

use std::sync::Arc;

use spring_bench::harness::Bench;
use spring_core::{Spring, SpringConfig};
use spring_data::util::sine;
use spring_monitor::{Event, FnSink, GapPolicy, QueryId, Runner, RunnerAttachment, StreamId};

/// Independent streams hashed across the workers.
const STREAMS: u32 = 64;
const SHARDS: [usize; 4] = [1, 2, 4, 8];
const BATCHES: [usize; 2] = [1, 64];
/// Frames pushed to every stream per timed iteration, so the per-worker
/// sync barrier at the end of the iteration is amortized across real
/// work.
const REPS: usize = 8;

/// Fills `samples` with the next ticks of a slow sine (amplitude 1, far
/// from every query at ε = 1.0: no matches, keeping the measurement
/// about ingestion and the DP recurrence, not match reporting).
fn refill(samples: &mut [f64], t: &mut u64) {
    for (i, s) in samples.iter_mut().enumerate() {
        *s = ((*t + i as u64) as f64 * 0.05).sin();
    }
    *t += samples.len() as u64;
}

fn main() {
    let b = Bench::new("shard_scaling");
    for shards in SHARDS {
        for batch in BATCHES {
            let mut attachments: Vec<RunnerAttachment<Spring>> = Vec::new();
            for s in 0..STREAMS {
                let pattern = sine(64, 12.0 + (s % 4) as f64, 1.0, 0.0);
                let monitor = Spring::new(&pattern, SpringConfig::new(1.0)).expect("valid query");
                attachments.push(RunnerAttachment::new(
                    StreamId(s),
                    QueryId(0),
                    monitor,
                    GapPolicy::Skip,
                ));
            }
            let sink = Arc::new(FnSink(|_: &Event| {}));
            let mut runner = Runner::spawn(attachments, shards, sink).unwrap();
            runner.set_max_batch(batch);
            // One representative stream per worker: syncing it drains
            // that worker's whole FIFO queue.
            let mut reps: Vec<Option<StreamId>> = vec![None; shards];
            for s in 0..STREAMS {
                let stream = StreamId(s);
                reps[runner.worker_of(stream)].get_or_insert(stream);
            }
            let reps: Vec<StreamId> = reps.into_iter().flatten().collect();
            let mut t = 0u64;
            let mut samples = vec![0.0f64; batch];
            let elems = (STREAMS as u64) * (batch as u64) * (REPS as u64);
            b.bench_elems(&format!("s{shards}/b{batch}"), elems, || {
                for _ in 0..REPS {
                    refill(&mut samples, &mut t);
                    for s in 0..STREAMS {
                        runner.push_batch(StreamId(s), &samples).unwrap();
                    }
                }
                for &stream in &reps {
                    runner.sync(stream).unwrap();
                }
            });
            runner.shutdown().unwrap();
        }
    }
}
