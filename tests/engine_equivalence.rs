//! The ISSUE-level guarantees of the generic monitoring stack:
//!
//! 1. `Engine<Spring>` is a *pure wrapper* — its event stream is
//!    identical to a bare [`Spring`] fed the gap-resolved samples, under
//!    every [`GapPolicy`].
//! 2. The threaded [`Runner`] is a *pure sharding* of the engine — for
//!    `w ∈ {1, 2, 4}` workers it yields exactly the single-threaded
//!    event set, for scalar, z-normalized, and vector monitors alike.
//!
//! Randomized with the workspace's seeded [`spring::util::Rng`]
//! (deterministic, reproducible).

use std::sync::Arc;

use spring::core::{Match, NormalizedSpring, Spring, SpringConfig, VectorSpring};
use spring::monitor::{
    Engine, Event, GapPolicy, QueryId, Runner, RunnerAttachment, SpringEngine, StreamId, VecSink,
    VectorEngine,
};
use spring::util::Rng;

/// A noisy random walk with NaN dropouts — adversarial but reproducible.
fn gappy_stream(rng: &mut Rng, len: usize, missing_prob: f64) -> Vec<f64> {
    let mut level = rng.f64_range(-2.0, 2.0);
    (0..len)
        .map(|_| {
            level += rng.f64_range(-1.0, 1.0);
            if rng.f64() < missing_prob {
                f64::NAN
            } else {
                level
            }
        })
        .collect()
}

/// What the engine is *supposed* to feed the monitor under `policy`.
fn resolve(stream: &[f64], policy: GapPolicy) -> Vec<f64> {
    let mut out = Vec::new();
    let mut last = None;
    for &x in stream {
        if x.is_nan() {
            match policy {
                GapPolicy::Skip | GapPolicy::Fail => {}
                GapPolicy::CarryForward => out.extend(last),
            }
        } else {
            last = Some(x);
            out.push(x);
        }
    }
    out
}

fn sorted_matches(events: Vec<Event>) -> Vec<(u32, Match)> {
    let mut out: Vec<(u32, Match)> = events.into_iter().map(|e| (e.stream.0, e.m)).collect();
    out.sort_by(|a, b| {
        (a.0, a.1.start, a.1.end, a.1.reported_at).cmp(&(b.0, b.1.start, b.1.end, b.1.reported_at))
    });
    out
}

// ---------------------------------------------------------------------
// 1. Engine<Spring> ≡ bare Spring, per gap policy.
// ---------------------------------------------------------------------

#[test]
fn engine_events_equal_bare_spring_under_every_gap_policy() {
    let mut rng = Rng::seed_from_u64(0xE9E);
    for case in 0..24 {
        let stream = gappy_stream(&mut rng, 120, 0.15);
        let qlen = rng.usize_range(2, 8);
        let query = rng.f64_vec(qlen, -3.0, 3.0);
        let eps = rng.f64_range(2.0, 60.0);
        for policy in [GapPolicy::Skip, GapPolicy::CarryForward, GapPolicy::Fail] {
            // Under Fail the engine refuses gaps, so feed it the
            // gap-free resolution; Skip/CarryForward see the raw stream.
            let resolved = resolve(&stream, policy);
            let engine_input: &[f64] = match policy {
                GapPolicy::Fail => &resolved,
                _ => &stream,
            };

            let mut engine = SpringEngine::new();
            let q = engine.add_query("q", query.clone()).unwrap();
            let s = engine.add_stream("s");
            engine.attach(s, q, eps, policy).unwrap();
            let mut got = Vec::new();
            for x in engine_input {
                got.extend(engine.push(s, x).unwrap());
            }
            got.extend(engine.finish_stream(s).unwrap());
            let got: Vec<Match> = got.into_iter().map(|e| e.m).collect();

            let mut bare = Spring::new(&query, SpringConfig::new(eps)).unwrap();
            let mut expected: Vec<Match> = resolved.iter().filter_map(|&x| bare.step(x)).collect();
            expected.extend(bare.finish());

            assert_eq!(got, expected, "case {case}, policy {policy:?}");
        }
    }
}

#[test]
fn fail_policy_rejects_the_first_gap() {
    let mut engine = SpringEngine::new();
    let q = engine.add_query("q", vec![0.0, 1.0]).unwrap();
    let s = engine.add_stream("s");
    engine.attach(s, q, 1.0, GapPolicy::Fail).unwrap();
    engine.push(s, &0.5).unwrap();
    assert!(engine.push(s, &f64::NAN).is_err());
}

// ---------------------------------------------------------------------
// 2. Runner ≡ Engine for w ∈ {1, 2, 4}, across monitor types.
// ---------------------------------------------------------------------

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const N_STREAMS: usize = 4;

fn scalar_workload(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
    let mut rng = Rng::seed_from_u64(seed);
    let streams: Vec<Vec<f64>> = (0..N_STREAMS)
        .map(|_| gappy_stream(&mut rng, 200, 0.1))
        .collect();
    let query = rng.f64_vec(6, -3.0, 3.0);
    (streams, query, 40.0)
}

/// Drives `runner` with the scalar workload and collects its events.
fn run_scalar_runner<M>(
    attachments: Vec<RunnerAttachment<M>>,
    workers: usize,
    streams: &[Vec<f64>],
) -> Vec<(u32, Match)>
where
    M: spring::core::Monitor<Sample = f64> + Clone + Send + 'static,
{
    let sink = Arc::new(VecSink::new());
    let runner = Runner::spawn(attachments, workers, sink.clone()).unwrap();
    for (k, vals) in streams.iter().enumerate() {
        for x in vals {
            runner.push(StreamId(k as u32), x).unwrap();
        }
        runner.finish_stream(StreamId(k as u32)).unwrap();
    }
    runner.shutdown().unwrap();
    sorted_matches(sink.events())
}

#[test]
fn runner_equals_engine_for_plain_spring() {
    let (streams, query, eps) = scalar_workload(0x51);

    let mut engine = SpringEngine::new();
    let q = engine.add_query("q", query.clone()).unwrap();
    let mut reference = Vec::new();
    for (k, vals) in streams.iter().enumerate() {
        let s = engine.add_stream(format!("s{k}"));
        engine.attach(s, q, eps, GapPolicy::CarryForward).unwrap();
        for x in vals {
            reference.extend(engine.push(s, x).unwrap());
        }
        reference.extend(engine.finish_stream(s).unwrap());
    }
    let reference = sorted_matches(reference);
    assert!(!reference.is_empty(), "workload must produce events");

    for workers in WORKER_COUNTS {
        let attachments: Vec<_> = (0..N_STREAMS)
            .map(|k| {
                RunnerAttachment::spring(
                    StreamId(k as u32),
                    QueryId(0),
                    &query,
                    eps,
                    GapPolicy::CarryForward,
                )
                .unwrap()
            })
            .collect();
        let got = run_scalar_runner(attachments, workers, &streams);
        assert_eq!(got, reference, "workers = {workers}");
    }
}

#[test]
fn runner_equals_engine_for_normalized_spring() {
    let (streams, query, _) = scalar_workload(0x52);
    let (eps, window) = (8.0, 16);

    let mut engine: Engine<NormalizedSpring> = Engine::new();
    let q = engine.add_query("q", query.clone()).unwrap();
    let mut reference = Vec::new();
    for (k, vals) in streams.iter().enumerate() {
        let s = engine.add_stream(format!("s{k}"));
        engine
            .attach_monitor(s, q, GapPolicy::Skip, move |qs| {
                NormalizedSpring::new(qs, eps, window)
            })
            .unwrap();
        for x in vals {
            reference.extend(engine.push(s, x).unwrap());
        }
        reference.extend(engine.finish_stream(s).unwrap());
    }
    let reference = sorted_matches(reference);
    assert!(!reference.is_empty(), "workload must produce events");

    for workers in WORKER_COUNTS {
        let attachments: Vec<_> = (0..N_STREAMS)
            .map(|k| {
                RunnerAttachment::new(
                    StreamId(k as u32),
                    QueryId(0),
                    NormalizedSpring::new(&query, eps, window).unwrap(),
                    GapPolicy::Skip,
                )
            })
            .collect();
        let got = run_scalar_runner(attachments, workers, &streams);
        assert_eq!(got, reference, "workers = {workers}");
    }
}

/// A `VectorEngine` with streams `0..N_STREAMS`, each `channels` wide
/// and attached to `query` under `policy`.
fn vector_engine(query: &[Vec<f64>], eps: f64, channels: usize, policy: GapPolicy) -> VectorEngine {
    let mut engine = VectorEngine::new();
    let q = engine.add_query("q", query.to_vec()).unwrap();
    for k in 0..N_STREAMS {
        let s = engine.add_channel_stream(format!("s{k}"), channels);
        engine.attach(s, q, eps, policy).unwrap();
    }
    engine
}

/// Vector rows through every ingestion path: per-row `Engine::push` is
/// the reference; flat frames of 1, 3 and 64 rows through
/// `Engine::push_batch` and `Runner::push_batch` must give the same
/// events and the same failures under every gap policy (5% of the rows
/// hold a NaN). A stream stops at its first failure, a missing row
/// under `Fail`; each stream gets its own runner there, because the
/// failure stops the stream's worker. The per-row `Runner::push` must
/// also match at every worker count.
#[test]
fn runner_equals_engine_for_vector_spring() {
    let mut rng = Rng::seed_from_u64(0x53);
    let channels = 3usize;
    let streams: Vec<Vec<Vec<f64>>> = (0..N_STREAMS)
        .map(|_| {
            (0..150)
                .map(|_| {
                    let mut row = rng.f64_vec(channels, -2.0, 2.0);
                    if rng.f64() < 0.05 {
                        row[0] = f64::NAN; // one NaN component ⇒ missing row
                    }
                    row
                })
                .collect()
        })
        .collect();
    let query: Vec<Vec<f64>> = (0..5).map(|_| rng.f64_vec(channels, -2.0, 2.0)).collect();
    let eps = 30.0;

    for policy in [GapPolicy::Skip, GapPolicy::CarryForward, GapPolicy::Fail] {
        let mut engine = vector_engine(&query, eps, channels, policy);
        let (mut reference, mut failures) = (Vec::new(), Vec::new());
        for (k, rows) in streams.iter().enumerate() {
            let s = StreamId(k as u32);
            let pushed = rows
                .iter()
                .try_for_each(|row| engine.push(s, row).map(|ev| reference.extend(ev)));
            match pushed {
                Ok(()) => reference.extend(engine.finish_stream(s).unwrap()),
                Err(e) => failures.push(e),
            }
        }
        let reference = sorted_matches(reference);
        assert!(
            !reference.is_empty(),
            "{policy:?}: workload must produce events"
        );
        assert_eq!(failures.is_empty(), policy != GapPolicy::Fail, "{policy:?}");

        for batch in [1usize, 3, 64] {
            let ctx = format!("{policy:?} batch {batch}");
            let mut engine = vector_engine(&query, eps, channels, policy);
            let (mut got, mut errors) = (Vec::new(), Vec::new());
            let mut runner_events = Vec::new();
            for (k, rows) in streams.iter().enumerate() {
                let s = StreamId(k as u32);
                let flat = rows.concat();
                let mut frames = flat.chunks(batch * channels);
                let failed = match frames.try_for_each(|f| engine.push_batch(s, f, &mut got)) {
                    Ok(()) => {
                        got.extend(engine.finish_stream(s).unwrap());
                        None
                    }
                    Err(e) => Some(e),
                };
                errors.extend(failed.clone());
                let sink = Arc::new(VecSink::new());
                let monitor = VectorSpring::new(&query, eps).unwrap();
                let att = RunnerAttachment::new(s, QueryId(0), monitor, policy);
                let runner = Runner::spawn(vec![att], 1, sink.clone()).unwrap();
                // Pushes behind a failed frame find the worker lost.
                for frame in flat.chunks(batch * channels) {
                    let _ = runner.push_batch(s, frame);
                }
                let _ = runner.finish_stream(s);
                assert_eq!(runner.shutdown().err(), failed, "{ctx}: stream {k}");
                runner_events.extend(sink.events());
            }
            assert_eq!(sorted_matches(got), reference, "{ctx}: Engine::push_batch");
            assert_eq!(errors, failures, "{ctx}: Engine::push_batch");
            assert_eq!(
                sorted_matches(runner_events),
                reference,
                "{ctx}: Runner::push_batch"
            );
        }
        if policy == GapPolicy::Fail {
            continue;
        }
        for workers in WORKER_COUNTS {
            let sink = Arc::new(VecSink::new());
            let attachments: Vec<_> = (0..N_STREAMS)
                .map(|k| {
                    RunnerAttachment::new(
                        StreamId(k as u32),
                        QueryId(0),
                        VectorSpring::new(&query, eps).unwrap(),
                        policy,
                    )
                })
                .collect();
            let runner = Runner::spawn(attachments, workers, sink.clone()).unwrap();
            for (k, rows) in streams.iter().enumerate() {
                for row in rows {
                    runner.push(StreamId(k as u32), row.as_slice()).unwrap();
                }
                runner.finish_stream(StreamId(k as u32)).unwrap();
            }
            runner.shutdown().unwrap();
            let got = sorted_matches(sink.events());
            assert_eq!(got, reference, "{policy:?} workers = {workers}");
        }
    }
}
