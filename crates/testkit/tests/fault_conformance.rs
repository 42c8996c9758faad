//! Differential conformance under injected faults (requires
//! `--features failpoints`).
//!
//! Each test holds the failpoint registry's exclusive guard: faults are
//! process-global, so concurrent tests must serialize around them.

#![cfg(feature = "failpoints")]

use spring_monitor::failpoints;
use spring_monitor::GapPolicy;
use spring_testkit::fault::{
    verify_swap_under_fault, verify_under_fault, verify_under_fault_with, FaultPlan,
};
use spring_testkit::Scenario;
use spring_util::Rng;

fn spike_scenario(len: usize, spikes: &[usize]) -> Scenario {
    let mut stream = vec![50.0; len];
    for &s in spikes {
        stream[s] = 0.0;
        stream[s + 1] = 10.0;
        stream[s + 2] = 0.0;
    }
    Scenario {
        stream,
        query: vec![0.0, 10.0, 0.0],
        epsilon: 1.0,
        gap_policy: GapPolicy::Skip,
    }
}

#[test]
fn worker_panic_mid_stream_loses_no_matches() {
    let _guard = failpoints::exclusive();
    let sc = spike_scenario(200, &[10, 80, 150]);
    // Panic a worker while samples are still arriving; the supervisor
    // must restore from the checkpoint and replay without losing the
    // spikes on either side of the crash.
    for after in [5u64, 90, 170] {
        verify_under_fault(&sc, FaultPlan::WorkerPanic { after }).unwrap();
    }
}

#[test]
fn frame_boundary_panic_preserves_the_deduped_match_set() {
    let _guard = failpoints::exclusive();
    let sc = spike_scenario(200, &[10, 80, 150]);
    // Panic a worker right as it dequeues a frame — before any of the
    // frame's samples are ingested — at several points in the stream and
    // for several frame sizes. The supervisor's checkpoint/replay works
    // at frame granularity, so the whole in-flight frame (possibly
    // containing a spike) must be recovered without loss or duplication.
    for batch in [3usize, 32, 64] {
        for after in [0u64, 1, 3] {
            verify_under_fault_with(&sc, FaultPlan::FramePanic { after }, batch).unwrap();
        }
    }
    // And at the default frame size.
    for after in [0u64, 1, 2] {
        verify_under_fault(&sc, FaultPlan::FramePanic { after }).unwrap();
    }
}

#[test]
fn sink_panic_redelivers_the_match_in_flight() {
    let _guard = failpoints::exclusive();
    let sc = spike_scenario(120, &[20, 60, 100]);
    // The first delivery dies inside the sink: that match must come back
    // through the replay.
    for after in [0u64, 1, 2] {
        verify_under_fault(&sc, FaultPlan::SinkPanic { after }).unwrap();
    }
}

#[test]
fn slow_sink_backpressure_changes_nothing() {
    let _guard = failpoints::exclusive();
    let sc = spike_scenario(80, &[15, 55]);
    verify_under_fault(&sc, FaultPlan::SlowSink { ms: 1 }).unwrap();
}

#[test]
fn worker_loss_inside_one_worker_loses_no_matches() {
    let _guard = failpoints::exclusive();
    let sc = spike_scenario(200, &[10, 80, 150]);
    // The panic fires inside whichever worker hits the site first; that
    // worker's supervisor alone must recover while the other keeps
    // streaming — the combined deduped match set across all (stream,
    // attachment) slots must match the fault-free run.
    for batch in [1usize, 64] {
        for after in [5u64, 40] {
            verify_under_fault_with(&sc, FaultPlan::WorkerPanic { after }, batch).unwrap();
        }
        verify_under_fault_with(&sc, FaultPlan::FramePanic { after: 1 }, batch).unwrap();
        verify_under_fault_with(&sc, FaultPlan::SinkPanic { after: 0 }, batch).unwrap();
    }
}

#[test]
fn swap_checkpoints_replay_across_a_frame_boundary_crash() {
    let _guard = failpoints::exclusive();
    let sc = spike_scenario(200, &[10, 80, 150]);
    let new_query = [50.0, 40.0, 50.0];
    // swap_at = 81: mid-spike, so a candidate group is active when the
    // swap lands — the checkpoint taken around it must carry the
    // post-swap monitor (or replay the swap message) and still lose no
    // matches when a worker dies at a frame boundary before, around,
    // and after the swap.
    for batch in [1usize, 64] {
        for after in [0u64, 2, 5] {
            verify_swap_under_fault(&sc, &new_query, 81, FaultPlan::FramePanic { after }, batch)
                .unwrap();
        }
        // And a plain worker panic for coverage of the recv site.
        verify_swap_under_fault(
            &sc,
            &new_query,
            81,
            FaultPlan::WorkerPanic { after: 9 },
            batch,
        )
        .unwrap();
    }
}

#[test]
fn seeded_scenarios_survive_faults_too() {
    let _guard = failpoints::exclusive();
    let mut rng = Rng::seed_from_u64(0xFA_017);
    for _ in 0..8 {
        let mut sc = Scenario::generate(&mut rng);
        if sc.gap_policy == GapPolicy::Fail && sc.gap_count() > 0 {
            sc.gap_policy = GapPolicy::Skip;
        }
        verify_under_fault(&sc, FaultPlan::WorkerPanic { after: 7 }).unwrap();
        verify_under_fault(&sc, FaultPlan::SinkPanic { after: 0 }).unwrap();
    }
}
