//! Checkpoint/restore across a serialization boundary: a monitor
//! snapshotted to JSON mid-stream and restored in a "new process" must
//! behave exactly like one that never stopped.

use spring::core::snapshot::SpringSnapshot;
use spring::core::Match;
use spring::data::MaskedChirp;
use spring::{Spring, SpringConfig};

#[test]
fn json_checkpoint_resumes_identically_on_a_real_workload() {
    let cfg = MaskedChirp::small();
    let (ts, _) = cfg.generate();
    let query = cfg.query();
    let eps = 10.0;

    // Uninterrupted reference run.
    let mut whole = Spring::new(&query.values, SpringConfig::new(eps)).unwrap();
    let mut expected: Vec<Match> = ts.values.iter().filter_map(|&x| whole.step(x)).collect();
    expected.extend(whole.finish());
    assert_eq!(expected.len(), 4, "workload sanity");

    // Checkpoint mid-way through the third burst (tick 900), via JSON.
    let cut = 900usize;
    let mut first = Spring::new(&query.values, SpringConfig::new(eps)).unwrap();
    let mut got: Vec<Match> = ts.values[..cut]
        .iter()
        .filter_map(|&x| first.step(x))
        .collect();
    let json = first.snapshot().to_json_string();
    drop(first);

    let snap = SpringSnapshot::parse_json(&json).unwrap();
    let mut second = Spring::restore_squared(&snap).unwrap();
    got.extend(ts.values[cut..].iter().filter_map(|&x| second.step(x)));
    got.extend(second.finish());

    assert_eq!(got, expected);
}

/// Splits the run at `cut` with a JSON snapshot/restore boundary and
/// returns the combined match stream.
fn split_run(values: &[f64], query: &[f64], eps: f64, cut: usize) -> Vec<Match> {
    let mut first = Spring::new(query, SpringConfig::new(eps)).unwrap();
    let mut got: Vec<Match> = values[..cut]
        .iter()
        .filter_map(|&x| first.step(x))
        .collect();
    let json = first.snapshot().to_json_string();
    drop(first);
    let snap = SpringSnapshot::parse_json(&json).unwrap();
    let mut second = Spring::restore_squared(&snap).unwrap();
    got.extend(values[cut..].iter().filter_map(|&x| second.step(x)));
    got.extend(second.finish());
    got
}

#[test]
fn json_checkpoint_inside_an_active_match_group_resumes_identically() {
    // Cut exactly between a spike's capture and its confirmation: the
    // snapshot must carry the pending group optimum across the
    // serialization boundary, or the match is double-reported or lost.
    let mut values = vec![50.0; 40];
    for s in [10usize, 30] {
        values[s] = 0.0;
        values[s + 1] = 10.0;
        values[s + 2] = 0.0;
    }
    let query = [0.0, 10.0, 0.0];
    let eps = 1.0;

    let mut whole = Spring::new(&query, SpringConfig::new(eps)).unwrap();
    let mut expected: Vec<Match> = values.iter().filter_map(|&x| whole.step(x)).collect();
    expected.extend(whole.finish());
    assert_eq!(expected.len(), 2, "workload sanity");

    // Tick 13 (0-based index 13): the first spike is fully seen and
    // captured but not yet confirmed (confirmation needs the next
    // sample to rule out a better extension).
    let cut = 13usize;
    {
        let mut probe = Spring::new(&query, SpringConfig::new(eps)).unwrap();
        let premature: Vec<Match> = values[..cut]
            .iter()
            .filter_map(|&x| probe.step(x))
            .collect();
        assert!(premature.is_empty(), "cut must land before confirmation");
        assert!(
            probe.pending().is_some(),
            "cut must land inside an active match group"
        );
    }
    assert_eq!(split_run(&values, &query, eps, cut), expected);
}

#[test]
fn json_checkpoint_resumes_identically_at_every_cut_point() {
    // Property: for seeded scenarios, cutting at *any* tick — including
    // every position inside active match groups — changes nothing.
    use spring_testkit::Scenario;
    let mut rng = spring_util::Rng::seed_from_u64(0xC4EC_4901);
    let mut cuts_inside_groups = 0usize;
    for _ in 0..25 {
        let sc = Scenario::generate(&mut rng);
        let eff = sc.effective_stream();
        if eff.len() < 2 {
            continue;
        }
        let mut whole = Spring::new(&sc.query, SpringConfig::new(sc.epsilon)).unwrap();
        let mut expected: Vec<Match> = eff.iter().filter_map(|&x| whole.step(x)).collect();
        expected.extend(whole.finish());

        for cut in 1..eff.len() {
            let mut probe = Spring::new(&sc.query, SpringConfig::new(sc.epsilon)).unwrap();
            for &x in &eff[..cut] {
                probe.step(x);
            }
            if probe.pending().is_some() {
                cuts_inside_groups += 1;
            }
            assert_eq!(
                split_run(&eff, &sc.query, sc.epsilon, cut),
                expected,
                "cut {cut} diverged (scenario {sc:?})"
            );
        }
    }
    assert!(
        cuts_inside_groups > 10,
        "property must actually exercise mid-group cuts (saw {cuts_inside_groups})"
    );
}

/// Splits the run at `cut`, restores the JSON snapshot, and streams the
/// tail through a [`Runner`] of `shards` workers instead of stepping
/// inline: the restored monitor is attached to whichever worker owns its
/// stream id, and the combined match stream must still equal the
/// uninterrupted run.
fn sharded_tail_run(
    values: &[f64],
    query: &[f64],
    eps: f64,
    cut: usize,
    shards: usize,
) -> Vec<Match> {
    use spring::monitor::{GapPolicy, QueryId, Runner, RunnerAttachment, StreamId, VecSink};
    let mut first = Spring::new(query, SpringConfig::new(eps)).unwrap();
    let mut got: Vec<Match> = values[..cut]
        .iter()
        .filter_map(|&x| first.step(x))
        .collect();
    let json = first.snapshot().to_json_string();
    drop(first);
    let snap = SpringSnapshot::parse_json(&json).unwrap();
    let restored = Spring::restore_squared(&snap).unwrap();

    let stream = StreamId(7);
    let sink = std::sync::Arc::new(VecSink::new());
    let attachment = RunnerAttachment::new(stream, QueryId(0), restored, GapPolicy::Skip);
    let runner = Runner::spawn(vec![attachment], shards, sink.clone()).unwrap();
    for &x in &values[cut..] {
        runner.push(stream, &x).unwrap();
    }
    runner.finish_stream(stream).unwrap();
    runner.shutdown().unwrap();
    got.extend(sink.events().into_iter().map(|e| e.m));
    got
}

#[test]
fn sharded_tail_after_a_json_checkpoint_resumes_identically_at_every_cut_point() {
    // Same property as above, but the post-restore half of the stream
    // runs through a multi-worker runner (stream placement, framing,
    // worker checkpoints, end-of-stream flush) rather than inline steps
    // — a process restart picked up by a multi-worker deployment.
    use spring_testkit::Scenario;
    let mut rng = spring_util::Rng::seed_from_u64(0x5A4D_C4E1);
    let mut checked = 0usize;
    for _ in 0..8 {
        let sc = Scenario::generate(&mut rng);
        let eff = sc.effective_stream();
        if eff.len() < 2 {
            continue;
        }
        let mut whole = Spring::new(&sc.query, SpringConfig::new(sc.epsilon)).unwrap();
        let mut expected: Vec<Match> = eff.iter().filter_map(|&x| whole.step(x)).collect();
        expected.extend(whole.finish());

        for cut in 1..eff.len() {
            for shards in [1usize, 2] {
                assert_eq!(
                    sharded_tail_run(&eff, &sc.query, sc.epsilon, cut, shards),
                    expected,
                    "cut {cut} with {shards} shard(s) diverged (scenario {sc:?})"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 50,
        "property must exercise many cuts (ran {checked})"
    );
}

#[test]
fn checkpoint_is_small() {
    let cfg = MaskedChirp::small();
    let (ts, _) = cfg.generate();
    let query = cfg.query();
    let mut spring = Spring::new(&query.values, SpringConfig::new(10.0)).unwrap();
    for &x in &ts.values {
        spring.step(x);
    }
    let json = spring.snapshot().to_json_string();
    // O(m) state: a 128-tick query checkpoints in a few KiB regardless
    // of the 2000 ticks streamed.
    assert!(json.len() < 16 * 1024, "checkpoint is {} bytes", json.len());
}
