//! Frame-at-a-time ingestion keeps the per-sample transcript.
//!
//! `Engine::push_batch` and the runner workers step a whole frame
//! through one attachment before the next, then merge the events back
//! into sample-major order (by tick, then attachment). These tests pin
//! that merge against a per-sample `Engine::push` loop over one stream
//! whose attachments have very different query lengths (so their
//! matches land at interleaved ticks), with gaps in the middle of
//! frames, and pin the error contract of a `GapPolicy::Fail` gap on
//! the second attachment.

use std::sync::Arc;

use spring_core::{Match, Spring};
use spring_dtw::Kernel;
use spring_monitor::{
    Event, GapPolicy, Metrics, MonitorError, QueryId, Runner, RunnerAttachment, SpringEngine,
    StreamId, VecSink,
};
use spring_util::Rng;

const LENGTHS: [usize; 3] = [16, 64, 512];
const PERIOD: f64 = 97.0;

fn wave(t: usize) -> f64 {
    (t as f64 * std::f64::consts::TAU / PERIOD).sin() * 10.0
}

/// A noisy periodic stream: every query below (a window of the clean
/// wave) matches about once per period, so all three attachments report
/// throughout the stream.
fn stream(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len)
        .map(|t| wave(t) + rng.f64_range(-0.3, 0.3))
        .collect()
}

/// Inserts missing samples: singles at scattered ticks plus a run of
/// three, so gaps fall mid-frame for every batch size.
fn with_gaps(mut xs: Vec<f64>) -> Vec<f64> {
    for t in (5..xs.len()).step_by(37) {
        xs[t] = f64::NAN;
    }
    for x in &mut xs[700..703] {
        *x = f64::NAN;
    }
    xs
}

fn query(m: usize) -> Vec<f64> {
    (0..m).map(|t| wave(t + 11)).collect()
}

fn epsilon(m: usize) -> f64 {
    m as f64 * 0.5
}

fn engine(policies: &[GapPolicy], metrics: Option<&Arc<Metrics>>) -> (SpringEngine, StreamId) {
    let mut e = SpringEngine::new();
    if let Some(metrics) = metrics {
        e.set_metrics(Arc::clone(metrics));
    }
    let s = e.add_stream("s");
    for (k, (&m, &gap)) in LENGTHS.iter().zip(policies).enumerate() {
        let q = e.add_query(format!("q{k}"), query(m)).unwrap();
        e.attach(s, q, epsilon(m), gap).unwrap();
    }
    (e, s)
}

fn attachments(policies: &[GapPolicy]) -> Vec<RunnerAttachment<Spring<Kernel>>> {
    LENGTHS
        .iter()
        .zip(policies)
        .enumerate()
        .map(|(k, (&m, &gap))| {
            RunnerAttachment::spring(StreamId(0), QueryId(k as u32), &query(m), epsilon(m), gap)
                .unwrap()
        })
        .collect()
}

/// What a transcript is compared on: which query, and the match.
fn key(events: &[Event]) -> Vec<(u32, Match)> {
    events.iter().map(|e| (e.query.0, e.m)).collect()
}

/// The per-sample reference: `Engine::push` per tick, then the flush.
fn per_sample(xs: &[f64], policies: &[GapPolicy], metrics: Option<&Arc<Metrics>>) -> Vec<Event> {
    let (mut e, s) = engine(policies, metrics);
    let mut events = Vec::new();
    for x in xs {
        events.extend(e.push(s, x).unwrap());
    }
    events.extend(e.finish_stream(s).unwrap());
    events
}

/// True when some pair of consecutive events comes from different
/// queries within one 64-sample frame — the case a per-attachment
/// check cannot see.
fn interleaves(events: &[Event]) -> bool {
    events
        .windows(2)
        .any(|w| w[0].query != w[1].query && w[0].m.reported_at / 64 == w[1].m.reported_at / 64)
}

#[test]
fn engine_push_batch_keeps_the_sample_major_event_order() {
    let xs = with_gaps(stream(2000, 7));
    for gap in [GapPolicy::Skip, GapPolicy::CarryForward] {
        let policies = [gap; 3];
        let reference_metrics = Arc::new(Metrics::new());
        let expect = per_sample(&xs, &policies, Some(&reference_metrics));
        let queries: std::collections::BTreeSet<u32> = expect.iter().map(|e| e.query.0).collect();
        assert_eq!(queries.len(), 3, "{gap:?}: every attachment must report");
        assert!(interleaves(&expect), "{gap:?}: events must interleave");
        for batch in [1usize, 3, 8, 64] {
            let metrics = Arc::new(Metrics::new());
            let (mut e, s) = engine(&policies, Some(&metrics));
            let mut got = Vec::new();
            for chunk in xs.chunks(batch) {
                e.push_batch(s, chunk, &mut got).unwrap();
            }
            got.extend(e.finish_stream(s).unwrap());
            assert_eq!(got, expect, "{gap:?} batch={batch}");
            let (a, b) = (reference_metrics.snapshot(), metrics.snapshot());
            assert_eq!(
                (a.ticks_total, a.matches_total, a.missing_total),
                (b.ticks_total, b.matches_total, b.missing_total),
                "{gap:?} batch={batch}: counter totals"
            );
        }
    }
}

#[test]
fn runner_sink_sees_the_per_sample_event_sequence() {
    let xs = with_gaps(stream(2000, 8));
    for gap in [GapPolicy::Skip, GapPolicy::CarryForward] {
        let policies = [gap; 3];
        let expect = key(&per_sample(&xs, &policies, None));
        assert!(expect.len() > 30, "{gap:?}: workload must match often");
        for workers in [1usize, 2] {
            for batch in [1usize, 3, 8, 64] {
                let sink = Arc::new(VecSink::new());
                let mut runner =
                    Runner::spawn(attachments(&policies), workers, sink.clone()).unwrap();
                runner.set_max_batch(batch);
                runner.push_batch(StreamId(0), &xs).unwrap();
                runner.finish_stream(StreamId(0)).unwrap();
                runner.shutdown().unwrap();
                assert_eq!(
                    key(&sink.events()),
                    expect,
                    "{gap:?} workers={workers} batch={batch}"
                );
            }
        }
    }
}

/// The per-sample runner reference: every attachment ingests tick `t`
/// (in attach order) before any ingests `t + 1`, events are delivered
/// as they occur, and the first error stops everything. One engine per
/// attachment gives exactly that, including the events an earlier
/// attachment confirms on the failing tick itself.
fn per_sample_until_error(xs: &[f64], policies: &[GapPolicy]) -> (Vec<(u32, Match)>, MonitorError) {
    let mut engines: Vec<(SpringEngine, StreamId)> = (0..3)
        .map(|k| {
            let mut e = SpringEngine::new();
            let s = e.add_stream("s");
            let q = e.add_query("q", query(LENGTHS[k])).unwrap();
            e.attach(s, q, epsilon(LENGTHS[k]), policies[k]).unwrap();
            (e, s)
        })
        .collect();
    let mut delivered = Vec::new();
    for x in xs {
        for (k, (e, s)) in engines.iter_mut().enumerate() {
            match e.push(*s, x) {
                Ok(events) => delivered.extend(events.iter().map(|ev| (k as u32, ev.m))),
                Err(err) => return (delivered, err),
            }
        }
    }
    panic!("the stream must fail");
}

#[test]
fn fail_gap_on_the_second_attachment_delivers_the_per_sample_prefix() {
    // Carry-forward on the first attachment: it still steps on the
    // missing tick, so it can confirm a match on the very tick the
    // second attachment rejects. Find such a tick, so the test pins
    // that those same-tick events from earlier attachments reach the
    // runner's sink (and are dropped by `Engine::push_batch`).
    let policies = [GapPolicy::CarryForward, GapPolicy::Fail, GapPolicy::Skip];
    let clean = stream(2000, 9);
    // Candidates: the first attachment's report ticks on the clean
    // stream (past the third attachment's first report).
    let candidates: Vec<usize> = per_sample(&clean, &policies, None)
        .iter()
        .filter(|ev| ev.query.0 == 0 && ev.m.reported_at > 1200)
        .map(|ev| ev.m.reported_at as usize - 1)
        .collect();
    let (xs, prefix, err) = candidates
        .into_iter()
        .find_map(|t| {
            let mut xs = clean.clone();
            xs[t] = f64::NAN;
            let (prefix, err) = per_sample_until_error(&xs, &policies);
            prefix
                .last()
                .is_some_and(|&(k, m)| k == 0 && m.reported_at == t as u64 + 1)
                .then_some((xs, prefix, err))
        })
        .expect("a first-attachment match on some tick");
    assert_eq!(
        err,
        MonitorError::MissingSample {
            stream: StreamId(0),
            tick: prefix.last().unwrap().1.reported_at
        }
    );
    assert!(
        prefix.iter().any(|&(k, _)| k == 2),
        "the third attachment reports too"
    );
    for workers in [1usize, 2] {
        for batch in [1usize, 3, 8, 64] {
            let sink = Arc::new(VecSink::new());
            let mut runner = Runner::spawn(attachments(&policies), workers, sink.clone()).unwrap();
            runner.set_max_batch(batch);
            // The worker stops at the gap; later pushes may already see
            // it lost, which is part of the contract.
            let _ = runner.push_batch(StreamId(0), &xs);
            let got = runner.shutdown().unwrap_err();
            assert_eq!(got, err, "workers={workers} batch={batch}");
            assert_eq!(
                key(&sink.events()),
                prefix,
                "workers={workers} batch={batch}"
            );
        }
    }
    // The engine drops the failing tick's events, like per-sample push,
    // and leaves the same tick counts and metric totals behind.
    let engine_prefix: Vec<(u32, Match)> = prefix
        .iter()
        .copied()
        .filter(|&(_, m)| m.reported_at < prefix.last().unwrap().1.reported_at)
        .collect();
    let totals = |metrics: &Metrics| {
        let s = metrics.snapshot();
        (s.ticks_total, s.matches_total, s.missing_total)
    };
    let reference_metrics = Arc::new(Metrics::new());
    let (mut reference, s) = engine(&policies, Some(&reference_metrics));
    let failed = xs.iter().find_map(|x| reference.push(s, x).err());
    assert_eq!(failed.as_ref(), Some(&err));
    for batch in [1usize, 3, 8, 64] {
        let metrics = Arc::new(Metrics::new());
        let (mut e, s) = engine(&policies, Some(&metrics));
        let mut got = Vec::new();
        let failed = xs
            .chunks(batch)
            .find_map(|chunk| e.push_batch(s, chunk, &mut got).err())
            .expect("the stream must fail");
        assert_eq!(failed, err, "batch={batch}");
        assert_eq!(key(&got), engine_prefix, "batch={batch}");
        assert_eq!(
            e.stream_ticks(s),
            reference.stream_ticks(s),
            "batch={batch}"
        );
        assert_eq!(
            totals(&metrics),
            totals(&reference_metrics),
            "batch={batch}"
        );
    }
}
