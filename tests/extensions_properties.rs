//! Randomized property tests for the post-paper extensions (bounded
//! matching, streaming normalization, vector streams) plus
//! failure injection with extreme inputs. Driven by the seeded
//! [`spring::util::Rng`], so every run is deterministic.

use spring::core::{
    BoundedConfig, BoundedSpring, Match, NormalizedSpring, Spring, SpringConfig, VectorSpring,
};
use spring::dtw::kernels::Squared;
use spring::dtw::{dtw_distance_with, multivariate::dtw_multivariate};
use spring::util::Rng;

fn seq(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    let n = rng.usize_range(1, max_len + 1);
    rng.f64_vec(n, -10.0, 10.0)
}

fn run_bounded(query: &[f64], stream: &[f64], cfg: BoundedConfig) -> Vec<Match> {
    let mut bs = BoundedSpring::new(query, cfg).unwrap();
    let mut out: Vec<Match> = stream.iter().filter_map(|&x| bs.step(x)).collect();
    out.extend(bs.finish());
    out
}

#[test]
fn bounded_reports_are_exact_within_bounds_and_disjoint() {
    let mut rng = Rng::seed_from_u64(0xB0B);
    for _ in 0..48 {
        let stream = seq(&mut rng, 40);
        let query = seq(&mut rng, 5);
        let eps = rng.f64_range(0.5, 40.0);
        let min_len = 1 + rng.u64_below(3);
        let extra = rng.u64_below(8);
        let cfg = BoundedConfig::new(eps, min_len, min_len + extra);
        for m in run_bounded(&query, &stream, cfg) {
            assert!(m.distance <= eps);
            assert!(m.len() >= cfg.min_len && m.len() <= cfg.max_len);
            let exact = dtw_distance_with(&stream[m.range0()], &query, Squared).unwrap();
            assert!((exact - m.distance).abs() < 1e-9);
        }
        let out = run_bounded(&query, &stream, cfg);
        for w in out.windows(2) {
            assert!(w[0].end < w[1].start);
        }
    }
}

#[test]
fn unbounded_config_matches_plain_spring() {
    let mut rng = Rng::seed_from_u64(0x0B1);
    for _ in 0..48 {
        let stream = seq(&mut rng, 40);
        let query = seq(&mut rng, 5);
        let eps = rng.f64_range(0.5, 40.0);
        let cfg = BoundedConfig::new(eps, 1, u64::MAX);
        let bounded = run_bounded(&query, &stream, cfg);
        let mut plain = Spring::new(&query, SpringConfig::new(eps)).unwrap();
        let mut expected: Vec<Match> = stream.iter().filter_map(|&x| plain.step(x)).collect();
        expected.extend(plain.finish());
        assert_eq!(bounded, expected);
    }
}

#[test]
fn normalized_monitor_never_reports_into_warmup() {
    let mut rng = Rng::seed_from_u64(0x207);
    for _ in 0..48 {
        let stream = seq(&mut rng, 60);
        let qlen = rng.usize_range(2, 6);
        let query = rng.f64_vec(qlen, -10.0, 10.0);
        let window = rng.usize_range(2, 12);
        let mut ns = NormalizedSpring::new(&query, 5.0, window).unwrap();
        let mut hits: Vec<Match> = stream.iter().filter_map(|&x| ns.step(x)).collect();
        hits.extend(ns.finish());
        for m in hits {
            assert!(m.start >= window as u64);
            assert!(m.end as usize <= stream.len());
            assert!(m.reported_at as usize <= stream.len());
        }
    }
}

#[test]
fn vector_spring_distances_are_exact() {
    let mut rng = Rng::seed_from_u64(0x7EC);
    for _ in 0..48 {
        // 2-channel rows.
        let stream: Vec<Vec<f64>> = (0..rng.usize_range(4, 30))
            .map(|_| rng.f64_vec(2, -5.0, 5.0))
            .collect();
        let query: Vec<Vec<f64>> = (0..rng.usize_range(1, 4))
            .map(|_| rng.f64_vec(2, -5.0, 5.0))
            .collect();
        let eps = rng.f64_range(0.5, 30.0);
        let mut vs = VectorSpring::new(&query, eps).unwrap();
        let mut hits = Vec::new();
        for row in &stream {
            hits.extend(vs.step(row).unwrap());
        }
        hits.extend(vs.finish());
        for m in hits {
            assert!(m.distance <= eps);
            let sub = &stream[m.start as usize - 1..m.end as usize];
            let exact = dtw_multivariate(sub, &query, Squared).unwrap();
            assert!((exact - m.distance).abs() < 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// Failure injection: extreme magnitudes must degrade gracefully (no
// panics, no bogus reports), even where squared distances overflow to ∞.
// ---------------------------------------------------------------------

#[test]
fn huge_magnitudes_do_not_panic_or_produce_spurious_matches() {
    let query = [1.0, 2.0, 3.0];
    let mut spring = Spring::new(&query, SpringConfig::new(1.0)).unwrap();
    let mut hits = Vec::new();
    for &x in &[1e200, -1e200, 1e308, -1e308, 0.0, 1.0, 2.0, 3.0, 0.0] {
        hits.extend(spring.step(x));
    }
    hits.extend(spring.finish());
    // The genuine occurrence at the end must still be found; the huge
    // values (whose squared distances overflow to +inf) must not be.
    assert_eq!(hits.len(), 1);
    assert_eq!((hits[0].start, hits[0].end), (6, 8)); // the 1.0, 2.0, 3.0 ticks
    for m in &hits {
        assert!(m.distance.is_finite());
    }
}

#[test]
fn denormal_and_tiny_values_behave() {
    let query = [0.0, f64::MIN_POSITIVE, 0.0];
    let stream = [f64::MIN_POSITIVE; 10];
    let mut spring = Spring::new(&query, SpringConfig::new(1e-300)).unwrap();
    let mut hits = Vec::new();
    for &x in &stream {
        hits.extend(spring.step(x));
    }
    hits.extend(spring.finish());
    assert!(!hits.is_empty(), "tiny but exact matches must be reported");
}

#[test]
fn alternating_extremes_keep_the_monitor_consistent() {
    // Alternating ±1e154 keeps squared distances finite (≈4e308 barely
    // overflows; use 1e150 to stay finite) — the point is long streams of
    // wild dynamics never corrupt tick bookkeeping.
    let query = [0.0, 1.0];
    let mut spring = Spring::new(&query, SpringConfig::new(0.1)).unwrap();
    for t in 0..10_000u64 {
        let x = if t % 2 == 0 { 1e150 } else { -1e150 };
        spring.step(x);
        assert_eq!(spring.tick(), t + 1);
    }
    assert_eq!(spring.reported_count(), 0);
}

#[test]
fn bounded_monitor_survives_overflowing_inputs() {
    let query = [1.0, 2.0];
    let mut bs = BoundedSpring::new(&query, BoundedConfig::new(0.5, 1, 4)).unwrap();
    for &x in &[1e308, 1e308, 1.0, 2.0, 1e308] {
        bs.step(x);
    }
    let tail = bs.finish();
    if let Some(m) = tail {
        assert!(m.distance.is_finite());
        assert!(m.len() <= 4);
    }
}

#[test]
fn normalized_monitor_handles_constant_then_wild_input() {
    let mut ns = NormalizedSpring::new(&[0.0, 1.0, 0.0], 1.0, 8).unwrap();
    for _ in 0..100 {
        ns.step(5.0); // zero variance window
    }
    for t in 0..100 {
        ns.step((t as f64).exp().min(1e300)); // explosive growth
    }
    // No panic and ticks tracked.
    assert_eq!(ns.tick(), 200);
}

// ---------------------------------------------------------------------
// Checkpoint/restore: randomized resume equivalence.
// ---------------------------------------------------------------------

#[test]
fn snapshot_resume_reports_identically() {
    let mut rng = Rng::seed_from_u64(0x5A9);
    for _ in 0..48 {
        let slen = rng.usize_range(2, 60);
        let stream = rng.f64_vec(slen, -10.0, 10.0);
        let qlen = rng.usize_range(1, 6);
        let query = rng.f64_vec(qlen, -10.0, 10.0);
        let eps = rng.f64_range(0.5, 40.0);
        let cut = rng.usize_range(1, stream.len());

        let mut whole = Spring::new(&query, SpringConfig::new(eps)).unwrap();
        let mut expected: Vec<Match> = stream.iter().filter_map(|&x| whole.step(x)).collect();
        expected.extend(whole.finish());

        let mut first = Spring::new(&query, SpringConfig::new(eps)).unwrap();
        let mut got: Vec<Match> = stream[..cut]
            .iter()
            .filter_map(|&x| first.step(x))
            .collect();
        let snap = first.snapshot();
        let mut second = spring::core::Spring::restore_squared(&snap).unwrap();
        got.extend(stream[cut..].iter().filter_map(|&x| second.step(x)));
        got.extend(second.finish());

        assert_eq!(got, expected);
    }
}
