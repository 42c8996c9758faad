//! Differential suite for the SoA STWM kernel (DESIGN.md §6g).
//!
//! Pins the reduction-order contract: the ε-banded column kernel
//! (`Spring::step`) and the wavefront frame path (`Monitor::step_batch`)
//! must report exactly the matches of the scalar Eq. (7)/(8) reference,
//! and keep columns **ε-equivalent** to it: every cell at or below ε is
//! bit-identical (`f64::to_bits`) in distance and start, and every other
//! cell is above ε on both sides. This holds across the generated
//! scenario grid — NaN-gap bursts, plateaus, coarse tie grids, `ε = 0`
//! thresholds and full-band ones. On x86-64 this exercises the explicit
//! SSE2/AVX2/AVX-512 lanes the CPU reports; elsewhere, the portable
//! ones (pinned on x86-64 too by the kernel's own unit tests, which
//! also hold the unbanded kernel to strict bit-exactness).
//!
//! Also covers checkpoint cross-compatibility: a snapshot written by a
//! reference-stepped monitor restores into the frame path (and vice
//! versa) with ε-equivalent columns afterwards, so mixed-version
//! runner fleets can hand checkpoints across the kernel boundary.

use spring_core::monitor::Monitor;
use spring_core::types::Match;
use spring_core::{Spring, SpringConfig, SpringSnapshot};
use spring_testkit::Scenario;
use spring_util::Rng;

/// Scenarios each differential test must process (the ISSUE floor is
/// 500; a little headroom keeps the guarantee under future edits).
const SCENARIOS: usize = 600;

/// Exact (bit-level) report comparison. `Debug` for f64 prints the
/// shortest round-trip form, which is injective on non-NaN values, so
/// comparing the rendered matches compares every field exactly.
fn render(matches: &[Match]) -> Vec<String> {
    matches.iter().map(|m| format!("{m:?}")).collect()
}

/// ε-equivalence of the two monitors' current columns: a cell at or
/// below ε on either side has the same bits and start on both.
fn assert_columns_match(reference: &Spring, other: &Spring, ctx: &str) {
    let eps = reference.epsilon();
    let (rd, rs) = (reference.stwm().distances(), reference.stwm().starts());
    let (od, os) = (other.stwm().distances(), other.stwm().starts());
    assert_eq!(rd.len(), od.len(), "{ctx}: column lengths");
    for i in 0..rd.len() {
        if rd[i] <= eps || od[i] <= eps {
            assert_eq!(
                (rd[i].to_bits(), rs[i]),
                (od[i].to_bits(), os[i]),
                "{ctx}: row {i} diverged from the scalar reference at or below eps"
            );
        }
    }
}

/// The two-phase column kernel against the scalar reference, compared
/// after every single tick.
#[test]
fn kernel_step_is_bit_exact_with_reference_across_the_scenario_grid() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0001);
    let mut done = 0;
    while done < SCENARIOS {
        let sc = Scenario::generate(&mut rng);
        let stream = sc.effective_stream();
        if stream.is_empty() {
            continue;
        }
        done += 1;
        let config = SpringConfig::new(sc.epsilon);
        let mut reference = Spring::new(&sc.query, config).unwrap();
        let mut kernel = Spring::new(&sc.query, config).unwrap();
        for (i, &x) in stream.iter().enumerate() {
            let ctx = format!("scenario {done} tick {} ({sc:?})", i + 1);
            let want = reference.step_reference(x);
            let got = kernel.step(x);
            assert_eq!(
                format!("{want:?}"),
                format!("{got:?}"),
                "{ctx}: reports diverged"
            );
            assert_columns_match(&reference, &kernel, &ctx);
        }
    }
}

/// The wavefront frame path (`step_batch`, including mid-frame
/// invalidation + tail refill on reports) against the scalar reference.
#[test]
fn frame_step_batch_is_bit_exact_with_reference_across_the_scenario_grid() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0002);
    let batches = [1usize, 2, 3, 5, 7, 8, 13, 64];
    let mut done = 0;
    while done < SCENARIOS {
        let sc = Scenario::generate(&mut rng);
        let stream = sc.effective_stream();
        if stream.is_empty() {
            continue;
        }
        let batch = batches[done % batches.len()];
        done += 1;
        let config = SpringConfig::new(sc.epsilon);
        let mut reference = Spring::new(&sc.query, config).unwrap();
        let mut want = Vec::new();
        for &x in &stream {
            want.extend(reference.step_reference(x));
        }
        let mut framed = Spring::new(&sc.query, config).unwrap();
        let mut got = Vec::new();
        for chunk in stream.chunks(batch) {
            Monitor::step_batch(&mut framed, chunk, &mut got).unwrap();
        }
        let ctx = format!("scenario {done} batch {batch} ({sc:?})");
        assert_eq!(render(&want), render(&got), "{ctx}: reports diverged");
        assert_columns_match(&reference, &framed, &ctx);
        assert_eq!(
            format!("{:?}", reference.pending()),
            format!("{:?}", framed.pending()),
            "{ctx}: pending candidate diverged"
        );
    }
}

/// Restores a JSON round-tripped snapshot into a fresh monitor.
fn roundtrip(spring: &Spring) -> Spring {
    let json = spring.snapshot().to_json_string();
    let snap = SpringSnapshot::parse_json(&json).unwrap();
    Spring::restore_squared(&snap).unwrap()
}

/// A snapshot written mid-stream by the scalar reference must restore
/// into the frame path (and one written by the frame path into the
/// reference) with bit-identical columns and reports afterwards.
#[test]
fn checkpoints_cross_the_kernel_boundary_in_both_directions() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0003);
    let mut done = 0;
    while done < 120 {
        let sc = Scenario::generate(&mut rng);
        let stream = sc.effective_stream();
        if stream.len() < 2 {
            continue;
        }
        done += 1;
        let cut = 1 + (done % (stream.len() - 1));
        let (head, tail) = stream.split_at(cut);
        let config = SpringConfig::new(sc.epsilon);

        // Uninterrupted reference run: the ground truth for both legs.
        let mut control = Spring::new(&sc.query, config).unwrap();
        let mut control_tail = Vec::new();
        for (i, &x) in stream.iter().enumerate() {
            let m = control.step_reference(x);
            if i >= cut {
                control_tail.extend(m);
            }
        }

        // Leg 1: scalar-written checkpoint, resumed on the frame path.
        let mut writer = Spring::new(&sc.query, config).unwrap();
        for &x in head {
            writer.step_reference(x);
        }
        let mut resumed = roundtrip(&writer);
        let mut got = Vec::new();
        Monitor::step_batch(&mut resumed, tail, &mut got).unwrap();
        let ctx = format!("scenario {done} cut {cut} scalar->frame ({sc:?})");
        assert_eq!(render(&control_tail), render(&got), "{ctx}: reports");
        assert_columns_match(&control, &resumed, &ctx);

        // Leg 2: frame-written checkpoint, resumed on the scalar path.
        let mut writer = Spring::new(&sc.query, config).unwrap();
        let mut sink = Vec::new();
        Monitor::step_batch(&mut writer, head, &mut sink).unwrap();
        let mut resumed = roundtrip(&writer);
        let mut got = Vec::new();
        for &x in tail {
            got.extend(resumed.step_reference(x));
        }
        let ctx = format!("scenario {done} cut {cut} frame->scalar ({sc:?})");
        assert_eq!(render(&control_tail), render(&got), "{ctx}: reports");
        assert_columns_match(&control, &resumed, &ctx);
    }
}
