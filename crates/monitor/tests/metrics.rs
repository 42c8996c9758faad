//! Cross-layer tests for the observability subsystem: concurrent runner
//! consistency, detection-delay semantics, live-memory gauges, and the
//! Prometheus text exposition.

use std::sync::Arc;

use spring_core::monitor::Monitor;
use spring_core::Spring;
use spring_dtw::Kernel;
use spring_monitor::{
    AttachmentId, CountingSink, GapPolicy, Metrics, MetricsSnapshot, QueryId, RestartPolicy,
    Runner, RunnerAttachment, SpringEngine, StreamId, TraceEventKind, Tracer,
};

/// A value stream that contains the `[0, 9, 0]` pattern every 8 ticks.
fn value_at(t: usize) -> f64 {
    match t % 8 {
        2 => 0.0,
        3 => 9.0,
        4 => 0.0,
        _ => 50.0,
    }
}

#[test]
fn runner_snapshots_are_internally_consistent_for_1_2_4_workers() {
    for workers in [1usize, 2, 4] {
        let metrics = Arc::new(Metrics::new());
        let n_streams = 6usize;
        // One attachment per stream: every push reaches exactly one
        // worker, so attachment-ticks and worker-ticks must agree.
        let attachments = (0..n_streams)
            .map(|i| {
                RunnerAttachment::spring(
                    StreamId(i as u32),
                    QueryId(0),
                    &[0.0, 9.0, 0.0],
                    1.0,
                    GapPolicy::Skip,
                )
                .unwrap()
            })
            .collect();
        let sink = Arc::new(CountingSink::new(n_streams));
        let runner = Runner::spawn_with_metrics(
            attachments,
            workers,
            1,
            Arc::<CountingSink>::clone(&sink),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        // 257 pushes per stream crosses several latency-sampling
        // boundaries (1 in 64), so the histogram sees multiple samples.
        let pushes_per_stream = 257usize;
        for t in 0..pushes_per_stream {
            for s in 0..n_streams {
                runner.push(StreamId(s as u32), &value_at(t)).unwrap();
            }
        }
        for s in 0..n_streams {
            runner.finish_stream(StreamId(s as u32)).unwrap();
        }
        runner.shutdown().unwrap();

        let snap = metrics.snapshot();
        let expected = (n_streams * pushes_per_stream) as u64;
        assert_eq!(snap.ticks_total, expected, "workers={workers}");
        assert_eq!(snap.shards.len(), workers, "workers={workers}");
        let worker_sum: u64 = snap.shards.iter().map(|w| w.ticks).sum();
        assert_eq!(worker_sum, expected, "workers={workers}");
        // Everything enqueued was drained before shutdown completed.
        assert_eq!(snap.runner_queue_depth(), 0, "workers={workers}");
        assert_eq!(snap.worker_lost_total, 0, "workers={workers}");
        // Matches flowed through both the sink and the registry.
        assert!(snap.matches_total > 0, "workers={workers}");
        assert_eq!(sink.total(), snap.matches_total, "workers={workers}");
        // The latency histogram sampled ~1/64 of the ticks.
        assert!(
            snap.tick_latency.count >= expected / 64,
            "workers={workers}: {} latency samples",
            snap.tick_latency.count
        );
        assert!(snap.tick_latency.count < expected);
    }
}

#[test]
fn detection_delay_is_zero_for_an_exact_in_band_match_at_stream_end() {
    let metrics = Arc::new(Metrics::new());
    let mut engine = SpringEngine::new();
    engine.set_metrics(Arc::clone(&metrics));
    let stream = engine.add_stream("s");
    let q = engine.add_query("q", vec![0.0, 9.0, 0.0]).unwrap();
    engine.attach(stream, q, 0.0, GapPolicy::Skip).unwrap();
    // The exact pattern completes on the final tick: the flush confirms
    // it at that same tick, so reported_at == end.
    for v in [50.0, 50.0, 0.0, 9.0, 0.0] {
        let events = engine.push(stream, &v).unwrap();
        assert!(events.is_empty(), "confirmation must wait for the flush");
    }
    let events = engine.finish_stream(stream).unwrap();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].m.report_delay(), 0);

    let snap = metrics.snapshot();
    assert_eq!(snap.matches_total, 1);
    assert_eq!(snap.detection_delay.count, 1);
    assert_eq!(snap.detection_delay.sum, 0.0);
    assert_eq!(snap.detection_delay.quantile(0.99), 0.0);
}

#[test]
fn detection_delay_counts_the_confirmation_lag_mid_stream() {
    let metrics = Arc::new(Metrics::new());
    let mut engine = SpringEngine::new();
    engine.set_metrics(Arc::clone(&metrics));
    let stream = engine.add_stream("s");
    let q = engine.add_query("q", vec![0.0, 9.0, 0.0]).unwrap();
    engine.attach(stream, q, 1.0, GapPolicy::Skip).unwrap();
    // Mid-stream, disjointness requires one more tick to rule out a
    // better overlapping candidate: reported_at == end + 1.
    let mut delays = Vec::new();
    for v in [50.0, 50.0, 0.0, 9.0, 0.0, 50.0, 50.0] {
        for ev in engine.push(stream, &v).unwrap() {
            delays.push(ev.m.report_delay());
        }
    }
    assert_eq!(delays, vec![1]);
    let snap = metrics.snapshot();
    assert_eq!(snap.detection_delay.count, 1);
    assert_eq!(snap.detection_delay.sum, 1.0);
}

#[test]
fn live_memory_gauges_track_the_o_m_bound_and_release_on_drop() {
    let metrics = Arc::new(Metrics::new());
    let m = 64usize;
    {
        let mut engine = SpringEngine::new();
        engine.set_metrics(Arc::clone(&metrics));
        let stream = engine.add_stream("s");
        let query: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let q = engine.add_query("q", query).unwrap();
        engine.attach(stream, q, 1.0, GapPolicy::Skip).unwrap();
        engine.push(stream, &0.5).unwrap();
        let snap = metrics.snapshot();
        // SPRING keeps O(m) cells: the DP columns and lane scratch per
        // attachment plus the shared arena entry (the pattern, charged
        // once per query) — and certainly not O(ticks).
        assert!(snap.memory_cells > 0);
        assert!(
            snap.memory_cells <= (10 * (m as u64 + 1)),
            "cells {} not O(m) for m={m}",
            snap.memory_cells
        );
        assert!(snap.memory_bytes > 0);
    }
    // Dropping the engine releases its share of the live gauges.
    let snap = metrics.snapshot();
    assert_eq!(snap.memory_cells, 0);
    assert_eq!(snap.memory_bytes, 0);
}

/// Attachments of the fan-out counting tests, all on one stream.
const FANOUT: usize = 32;
/// Samples per frame in the fan-out counting tests.
const FRAME: usize = 64;

/// Query `k` of the fan-out tests: a ramp in its own value band.
fn fan_query(k: usize) -> Vec<f64> {
    (0..16).map(|i| 8.0 * k as f64 + i as f64 * 0.25).collect()
}

/// Quiet samples far above every query, with query 3 planted once per
/// 512 ticks.
fn fan_stream(frames: usize) -> Vec<f64> {
    let mut xs = vec![1000.0; frames * FRAME];
    for start in (100..xs.len().saturating_sub(16)).step_by(512) {
        xs[start..start + 16].copy_from_slice(&fan_query(3));
    }
    xs
}

/// The memory gauges must equal what the live monitors hold: every
/// monitor's bytes and DP cells, plus each distinct shared query's
/// cells once.
fn assert_memory_is_live(snap: &MetricsSnapshot, monitors: &[Spring<Kernel>], ctx: &str) {
    let bytes: usize = monitors.iter().map(Monitor::memory_use).sum();
    let mut shared = std::collections::HashMap::new();
    for m in monitors {
        shared.insert(m.query_fingerprint().unwrap(), m.shared_memory_cells());
    }
    let cells =
        monitors.iter().map(Monitor::memory_cells).sum::<usize>() + shared.values().sum::<usize>();
    assert_eq!(
        (snap.memory_bytes, snap.memory_cells),
        (bytes as u64, cells as u64),
        "{ctx}: live memory"
    );
}

/// The `frame` spans a tracer holds, as their frame lengths in order.
fn frame_spans(tracer: &Tracer) -> Vec<u64> {
    let snap = tracer.snapshot();
    let events = snap.tracks.iter().flat_map(|t| &t.events);
    let frames = events.filter(|e| e.kind == TraceEventKind::Frame);
    frames.map(|e| e.arg).collect()
}

/// Per-frame recording through `Engine::push_batch`: 32 attachments on
/// one stream cost one latency observation per sampled frame at most,
/// not one per attachment, while the tick counter stays exact and the
/// memory gauges follow attach and hot-swap at once. For frames of 1,
/// 13 and 64 samples, one sampling decision feeds both the latency
/// histogram and the `frame` spans, and a tracer without a registry
/// records the same spans.
#[test]
fn fan_out_records_latency_once_per_frame_on_the_engine() {
    let build = |metrics: Option<&Arc<Metrics>>, tracer: &Tracer| {
        let mut engine = SpringEngine::new();
        if let Some(metrics) = metrics {
            engine.set_metrics(Arc::clone(metrics));
        }
        engine.set_tracer(tracer, "engine");
        let s = engine.add_stream("s");
        let mut queries = Vec::new();
        for k in 0..FANOUT {
            let q = engine.add_query(format!("q{k}"), fan_query(k)).unwrap();
            engine.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
            queries.push(q);
        }
        (engine, s, queries)
    };
    let live = |engine: &SpringEngine| -> Vec<Spring<Kernel>> {
        (0..FANOUT)
            .map(|k| engine.monitor(AttachmentId(k as u32)).unwrap().clone())
            .collect()
    };
    let frames = 40;
    let xs = fan_stream(frames);
    for len in [1, 13, FRAME] {
        let metrics = Arc::new(Metrics::new());
        let (tracer, alone) = (Tracer::new(), Tracer::new());
        let (mut engine, s, queries) = build(Some(&metrics), &tracer);
        let (mut traced, t, _) = build(None, &alone);
        assert_memory_is_live(&metrics.snapshot(), &live(&engine), "after attach");
        let mut events = Vec::new();
        for frame in xs.chunks(len) {
            engine.push_batch(s, frame, &mut events).unwrap();
            traced.push_batch(t, frame, &mut Vec::new()).unwrap();
        }
        assert!(!events.is_empty(), "the planted copies must match");
        let snap = metrics.snapshot();
        assert_eq!(snap.ticks_total, (FANOUT * xs.len()) as u64);
        assert_eq!(snap.matches_total, events.len() as u64);
        assert!(snap.tick_latency.count >= 1);
        assert!(
            snap.tick_latency.count <= frames as u64,
            "{} latency observations over {frames} frames",
            snap.tick_latency.count
        );
        let spans = frame_spans(&tracer);
        assert_eq!(spans.len() as u64, snap.tick_latency.count, "len {len}");
        assert_eq!(frame_spans(&alone), spans, "len {len}");
        assert_memory_is_live(&snap, &live(&engine), "after ingest");
        engine.swap_query(queries[5], vec![0.5; 40]).unwrap();
        assert_memory_is_live(&metrics.snapshot(), &live(&engine), "after swap");
    }
}

/// The same fan-out on a two-worker runner, with an attachment added,
/// a query swapped and an attachment detached at run time.
#[test]
fn fan_out_records_latency_once_per_frame_on_the_runner() {
    let spring = |k: usize, query: &[f64]| {
        RunnerAttachment::spring(StreamId(0), QueryId(k as u32), query, 1.0, GapPolicy::Skip)
            .unwrap()
    };
    let bare = |query: &[f64]| {
        Spring::with_kernel(query, spring_core::SpringConfig::new(1.0), Kernel::Squared).unwrap()
    };
    let spawn = |metrics: Option<Arc<Metrics>>, tracer: &Tracer, len: usize| {
        let attachments = (0..FANOUT).map(|k| spring(k, &fan_query(k))).collect();
        let sink = Arc::new(CountingSink::new(FANOUT + 1));
        let restart = RestartPolicy::default();
        let tracer = Some(tracer.clone());
        let mut runner =
            Runner::spawn_with_observability(attachments, 2, sink, metrics, restart, tracer)
                .unwrap();
        runner.set_max_batch(len);
        runner
    };
    let frames = 40;
    let xs = fan_stream(frames);
    for len in [1, 13, FRAME] {
        let metrics = Arc::new(Metrics::new());
        let (tracer, alone) = (Tracer::new(), Tracer::new());
        let runner = spawn(Some(Arc::clone(&metrics)), &tracer, len);
        let traced = spawn(None, &alone, len);
        let mut live: Vec<Spring<Kernel>> = (0..FANOUT).map(|k| bare(&fan_query(k))).collect();
        assert_memory_is_live(&metrics.snapshot(), &live, "after spawn");
        for frame in xs.chunks(FRAME) {
            runner.push_batch(StreamId(0), frame).unwrap();
            traced.push_batch(StreamId(0), frame).unwrap();
        }
        for r in [&runner, &traced] {
            r.flush(StreamId(0)).unwrap();
            r.sync(StreamId(0)).unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.ticks_total, (FANOUT * xs.len()) as u64);
        assert!(snap.matches_total > 0, "the planted copies must match");
        assert!(snap.tick_latency.count >= 1);
        assert!(
            snap.tick_latency.count <= frames as u64,
            "{} latency observations over {frames} frames",
            snap.tick_latency.count
        );
        let spans = frame_spans(&tracer);
        assert_eq!(spans.len() as u64, snap.tick_latency.count, "len {len}");
        assert_eq!(frame_spans(&alone), spans, "len {len}");
        traced.shutdown().unwrap();
        assert_memory_is_live(&snap, &live, "after ingest");
        let extra = runner.attach(spring(FANOUT, &fan_query(FANOUT))).unwrap();
        runner.sync(StreamId(0)).unwrap();
        live.push(bare(&fan_query(FANOUT)));
        assert_memory_is_live(&metrics.snapshot(), &live, "after attach");
        runner.swap_query(QueryId(5), &[0.5; 40]).unwrap();
        runner.sync(StreamId(0)).unwrap();
        live[5] = bare(&[0.5; 40]);
        assert_memory_is_live(&metrics.snapshot(), &live, "after swap");
        runner.detach(extra).unwrap();
        runner.sync(StreamId(0)).unwrap();
        live.pop();
        assert_memory_is_live(&metrics.snapshot(), &live, "after detach");
        runner.shutdown().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(
            (snap.memory_bytes, snap.memory_cells),
            (0, 0),
            "after shutdown"
        );
    }
}

/// Minimal validator for the Prometheus text exposition format
/// (version 0.0.4): every sample belongs to a declared family, every
/// histogram is cumulative with `_count` equal to its `+Inf` bucket.
fn validate_prometheus(text: &str) {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples: Vec<(String, Option<String>, f64)> = Vec::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP has a name");
            assert!(!name.is_empty());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE has a name");
            let ty = it.next().expect("TYPE has a type");
            assert!(
                matches!(ty, "counter" | "gauge" | "histogram"),
                "unknown type {ty}"
            );
            types.insert(name.to_string(), ty.to_string());
            continue;
        }
        // A sample: `name[{labels}] value`.
        let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().expect("sample value is a number");
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, l)) => (
                n.to_string(),
                Some(l.strip_suffix('}').expect("labels closed").to_string()),
            ),
            None => (name_labels.to_string(), None),
        };
        samples.push((name, labels, value));
    }
    assert!(!samples.is_empty(), "no samples in exposition");
    for (name, _, value) in &samples {
        let family = types
            .keys()
            .filter(|f| name == *f || name.starts_with(&format!("{f}_")))
            .max_by_key(|f| f.len())
            .unwrap_or_else(|| panic!("sample {name} has no TYPE declaration"));
        assert!(value.is_finite(), "{name} value not finite");
        assert!(*value >= 0.0, "{name} value negative");
        let _ = family;
    }
    // Histogram invariants.
    for (family, ty) in &types {
        if ty != "histogram" {
            continue;
        }
        let buckets: Vec<(f64, u64)> = samples
            .iter()
            .filter(|(n, _, _)| n == &format!("{family}_bucket"))
            .map(|(_, labels, v)| {
                let le = labels
                    .as_deref()
                    .and_then(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .expect("bucket has an le label");
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().expect("le is a number")
                };
                (bound, *v as u64)
            })
            .collect();
        assert!(buckets.len() >= 2, "{family} has too few buckets");
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{family} bounds not increasing");
            assert!(pair[0].1 <= pair[1].1, "{family} buckets not cumulative");
        }
        let (last_bound, last_count) = *buckets.last().unwrap();
        assert!(last_bound.is_infinite(), "{family} missing +Inf bucket");
        let count = samples
            .iter()
            .find(|(n, _, _)| n == &format!("{family}_count"))
            .map(|(_, _, v)| *v as u64)
            .expect("histogram has _count");
        assert_eq!(count, last_count, "{family}_count != +Inf bucket");
        assert!(
            samples
                .iter()
                .any(|(n, _, _)| n == &format!("{family}_sum")),
            "{family} missing _sum"
        );
    }
}

#[test]
fn prometheus_exposition_is_valid_and_complete() {
    let metrics = Arc::new(Metrics::new());
    let attachments = vec![RunnerAttachment::spring(
        StreamId(0),
        QueryId(0),
        &[0.0, 9.0, 0.0],
        1.0,
        GapPolicy::Skip,
    )
    .unwrap()];
    let sink = Arc::new(CountingSink::new(1));
    let runner =
        Runner::spawn_with_metrics(attachments, 1, 1, sink, Some(Arc::clone(&metrics))).unwrap();
    for t in 0..100 {
        runner.push(StreamId(0), &value_at(t)).unwrap();
    }
    runner.finish_stream(StreamId(0)).unwrap();
    runner.shutdown().unwrap();

    let text = metrics.to_prometheus();
    validate_prometheus(&text);
    for family in [
        "spring_ticks_total",
        "spring_matches_total",
        "spring_missing_samples_total",
        "spring_worker_lost_total",
        "spring_memory_bytes",
        "spring_memory_cells",
        "spring_runner_queue_depth",
        "spring_tick_latency_seconds",
        "spring_detection_delay_ticks",
        "spring_shard_ticks_total",
        "spring_shard_queue_depth",
        "spring_shard_restarts_total",
    ] {
        assert!(text.contains(family), "missing family {family}:\n{text}");
    }
    assert!(
        text.contains("spring_shard_ticks_total{shard=\"0\"} 100"),
        "{text}"
    );
}

/// Fault accounting: a worker panicked via a failpoint must show up in
/// `spring_worker_lost_total` and `spring_worker_restarts_total`, while
/// the queue gauges still drain to zero and no match is lost.
///
/// Requires `--features failpoints`.
#[cfg(feature = "failpoints")]
mod under_fault {
    use super::*;
    use spring_monitor::failpoints::{self, FailAction, FailRule};

    #[test]
    fn worker_panic_increments_loss_and_restart_counters_and_queues_drain() {
        let _guard = failpoints::exclusive();

        let run = |fault: bool| {
            failpoints::clear();
            if fault {
                // Panic one worker mid-stream, once.
                failpoints::configure(
                    "runner::worker::recv",
                    FailRule::new(FailAction::Panic).after(40).times(1),
                );
            }
            let metrics = Arc::new(Metrics::new());
            let attachments = vec![RunnerAttachment::spring(
                StreamId(0),
                QueryId(0),
                &[0.0, 9.0, 0.0],
                1.0,
                GapPolicy::Skip,
            )
            .unwrap()];
            let sink = Arc::new(CountingSink::new(1));
            let mut runner = Runner::spawn_with_metrics(
                attachments,
                2,
                1,
                Arc::<CountingSink>::clone(&sink),
                Some(Arc::clone(&metrics)),
            )
            .unwrap();
            // One frame per sample, so the `.after(40)` message budget
            // lands mid-stream (the default frame size would collapse
            // 200 pushes into ~4 messages and the panic would never
            // fire).
            runner.set_max_batch(1);
            for t in 0..200 {
                runner.push(StreamId(0), &value_at(t)).unwrap();
            }
            runner.finish_stream(StreamId(0)).unwrap();
            runner.shutdown().unwrap();
            failpoints::clear();
            (metrics.snapshot(), sink.total())
        };

        let (clean, clean_matches) = run(false);
        assert_eq!(clean.worker_lost_total, 0);
        assert_eq!(clean.worker_restarts_total, 0);
        assert!(clean_matches > 0, "workload sanity: spikes must match");

        let (faulted, faulted_matches) = run(true);
        assert_eq!(faulted.worker_lost_total, 1, "panic must be accounted");
        assert_eq!(
            faulted.worker_restarts_total, 1,
            "supervisor must restart the lost worker"
        );
        // The restarted worker drained everything: queues return to zero
        // and the tick counters still add up to every sample pushed.
        assert_eq!(faulted.runner_queue_depth(), 0);
        assert!(faulted.shards.iter().all(|w| w.queue_depth == 0));
        // Delivery is at-least-once across a restart: every fault-free
        // match arrives, possibly with replay duplicates.
        assert!(
            faulted_matches >= clean_matches,
            "faulted run lost matches: {faulted_matches} < {clean_matches}"
        );
        // The exposition carries the fault counters.
        let text = {
            let metrics = Metrics::new();
            metrics.to_prometheus()
        };
        assert!(text.contains("spring_worker_restarts_total"), "{text}");
    }
}
