//! Checkpoint format cross-compatibility (DESIGN.md §6i).
//!
//! The shared-query-arena work added a `generation` field to
//! [`SpringSnapshot`] (format v2). Deployments upgrade in place, so
//! both directions must keep working against **frozen** documents:
//!
//! * a pre-arena (v1) snapshot — no `generation` key — restores with
//!   generation 0 and *byte-identical* monitor state (the fixture in
//!   `tests/fixtures/snapshot_v1.json` was emitted by the pre-arena
//!   writer and is never regenerated);
//! * a v2 document round-trips exactly, including a non-zero
//!   generation stamped by a fleet-wide hot-swap;
//! * a vector checkpoint written before vector and scalar monitors
//!   shared one snapshot type (`tests/fixtures/vector_snapshot_v1.json`:
//!   nested query rows, no counters) decodes with both counters 0 and
//!   resumes bit-identically.

use spring_core::snapshot::SpringSnapshot;
use spring_core::{Spring, SpringConfig, VectorSpring};
use spring_dtw::Squared;

/// Frozen pre-arena checkpoint: query [1,2,3], ε = 0.5, taken after
/// the stream [9, 1, 2, 3] with a zero-distance candidate pending
/// (mid-active-group — the hard case for replay).
const V1_FIXTURE: &str = include_str!("fixtures/snapshot_v1.json");

/// The same state a live pre-arena monitor would hold at the fixture's
/// checkpoint instant.
fn fixture_monitor() -> Spring {
    let mut spring = Spring::new(&[1.0, 2.0, 3.0], SpringConfig::new(0.5)).unwrap();
    for x in [9.0, 1.0, 2.0, 3.0] {
        spring.step(x);
    }
    spring
}

#[test]
fn v1_fixture_decodes_with_generation_zero() {
    let snap = SpringSnapshot::parse_json(V1_FIXTURE).unwrap();
    assert_eq!(snap.generation, 0, "missing `generation` must default to 0");
    assert_eq!(snap.query, vec![1.0, 2.0, 3.0]);
    assert_eq!(snap.epsilon, 0.5);
    assert_eq!(snap.tick, 4);
    assert_eq!(snap.reported, 0);
}

#[test]
fn v1_fixture_restores_byte_identically() {
    let snap = SpringSnapshot::parse_json(V1_FIXTURE).unwrap();
    let restored = Spring::restore_squared(&snap).unwrap();
    let live = fixture_monitor();

    // The restored monitor's state equals the never-stopped monitor's,
    // bit for bit: re-snapshotting both gives equal distances under
    // `to_bits` (no tolerance).
    let (a, b) = (restored.snapshot(), live.snapshot());
    assert_eq!(a.query, b.query);
    assert_eq!(a.tick, b.tick);
    assert_eq!(a.starts, b.starts);
    assert_eq!(a.candidate, b.candidate);
    assert_eq!(a.generation, b.generation);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.distances), bits(&b.distances));
}

#[test]
fn v1_fixture_resumes_like_an_uninterrupted_monitor() {
    let snap = SpringSnapshot::parse_json(V1_FIXTURE).unwrap();
    let mut restored = Spring::restore_squared(&snap).unwrap();
    let mut live = fixture_monitor();
    // Continue both past the checkpoint: identical reports, identical
    // distances to the bit.
    let tail = [9.0, 9.0, 1.0, 2.0, 3.0, 9.0];
    let mut from_restored = Vec::new();
    let mut from_live = Vec::new();
    for &x in &tail {
        from_restored.extend(restored.step(x));
        from_live.extend(live.step(x));
    }
    from_restored.extend(restored.finish());
    from_live.extend(live.finish());
    assert_eq!(from_restored.len(), 2, "{from_restored:?}");
    let key = |ms: &[spring_core::Match]| {
        ms.iter()
            .map(|m| (m.start, m.end, m.distance.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&from_restored), key(&from_live));
}

#[test]
fn v2_documents_round_trip_including_nonzero_generation() {
    let mut snap = fixture_monitor().snapshot();
    snap.generation = 3; // as stamped after three fleet-wide swaps
    let text = snap.to_json_string();
    assert!(text.contains("\"generation\""), "{text}");
    let back = SpringSnapshot::parse_json(&text).unwrap();
    assert_eq!(back, snap);
    // Restore carries the generation into the live monitor, so the
    // next checkpoint re-emits it.
    let restored = Spring::restore_squared(&back).unwrap();
    assert_eq!(restored.snapshot().generation, 3);
}

#[test]
fn v2_reencoding_of_a_v1_document_is_a_fixed_point() {
    let snap = SpringSnapshot::parse_json(V1_FIXTURE).unwrap();
    // Upgrading the document (v1 → v2) adds only `generation: 0`; from
    // then on, encode/decode is a fixed point.
    let upgraded = snap.to_json_string();
    let again = SpringSnapshot::parse_json(&upgraded).unwrap();
    assert_eq!(again, snap);
    assert_eq!(again.to_json_string(), upgraded);
}

/// Frozen vector checkpoint of the separate vector snapshot format:
/// `k = 3` query rows `[i, 10 − i, i²]` for `i` in 0..4, ε = 2, taken
/// after [`VECTOR_HEAD`] with a distance-0.75 candidate pending.
const VECTOR_V1_FIXTURE: &str = include_str!("fixtures/vector_snapshot_v1.json");

const VECTOR_HEAD: [[f64; 3]; 5] = [
    [99.0, 99.0, 99.0],
    [0.5, 10.0, 0.0],
    [1.0, 9.5, 1.0],
    [2.0, 8.0, 4.5],
    [3.0, 7.0, 9.0],
];

fn vector_fixture_monitor() -> VectorSpring {
    let query: Vec<Vec<f64>> = (0..4)
        .map(|i| vec![i as f64, 10.0 - i as f64, (i * i) as f64])
        .collect();
    let mut vs = VectorSpring::new(&query, 2.0).unwrap();
    for row in &VECTOR_HEAD {
        assert_eq!(vs.step(row).unwrap(), None);
    }
    vs
}

#[test]
fn vector_v1_fixture_decodes_and_resumes_bit_identically() {
    let snap = SpringSnapshot::parse_json(VECTOR_V1_FIXTURE).unwrap();
    assert_eq!(snap.channels, 3);
    assert_eq!((snap.reported, snap.generation), (0, 0));
    assert_eq!((snap.query.len(), snap.tick), (12, 5));
    assert!(
        Spring::restore_squared(&snap).is_err(),
        "not a scalar checkpoint"
    );

    let mut restored = VectorSpring::restore(&snap, Squared).unwrap();
    let mut live = vector_fixture_monitor();
    assert_eq!(restored.pending(), Some((0.75, 2, 5)));
    let (a, b) = (restored.snapshot(), live.snapshot());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.query), bits(&b.query));
    assert_eq!(bits(&a.distances), bits(&b.distances));
    assert_eq!(
        (a.tick, &a.starts, a.candidate),
        (b.tick, &b.starts, b.candidate)
    );

    // Continue both: the pending group is confirmed, and a second,
    // exact occurrence follows; every report agrees to the bit.
    let tail = [
        [99.0, 99.0, 99.0],
        [0.0, 10.0, 0.0],
        [1.0, 9.0, 1.0],
        [2.0, 8.0, 4.0],
        [3.0, 7.0, 9.0],
        [50.0, 50.0, 50.0],
    ];
    let (mut from_restored, mut from_live) = (Vec::new(), Vec::new());
    for row in &tail {
        from_restored.extend(restored.step(row).unwrap());
        from_live.extend(live.step(row).unwrap());
    }
    from_restored.extend(restored.finish());
    from_live.extend(live.finish());
    assert_eq!(from_restored.len(), 2, "{from_restored:?}");
    let key = |ms: &[spring_core::Match]| {
        ms.iter()
            .map(|m| {
                let bounds = (m.group_start, m.group_end);
                (m.start, m.end, m.distance.to_bits(), m.reported_at, bounds)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&from_restored), key(&from_live));
    assert_eq!(restored.snapshot().reported, 2);
}
