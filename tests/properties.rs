//! Randomized property tests of the paper's theorems, across crates —
//! driven by the workspace's seeded [`spring::util::Rng`] so every run is
//! deterministic and reproducible without external crates.
//!
//! * Theorem 1 / Lemma 1 — the star-padded single matrix finds exactly
//!   the minimum DTW distance over **all** subsequences.
//! * Lemma 2 — disjoint queries have no false dismissals.
//! * Kernel independence — every guarantee holds under the absolute
//!   kernel as well as the default squared kernel.

use spring::core::naive::all_subsequence_distances;
use spring::core::stored::{best_subsequence_match_with, disjoint_matches_with};
use spring::core::BestMatch;
use spring::dtw::kernels::{Absolute, DistanceKernel, Squared};
use spring::dtw::{dtw_distance_with, GlobalConstraint};
use spring::util::Rng;

/// A random sequence of length `1..=max_len` with values in `[-10, 10)`.
fn seq(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    let n = rng.usize_range(1, max_len + 1);
    rng.f64_vec(n, -10.0, 10.0)
}

fn theorem1_holds<K: DistanceKernel>(stream: &[f64], query: &[f64], kernel: K) {
    let mut bm = BestMatch::with_kernel(query, kernel).unwrap();
    for &x in stream {
        bm.step(x);
    }
    let best = bm.best().unwrap();
    let brute = all_subsequence_distances(stream, query, kernel)
        .into_iter()
        .map(|(_, _, d)| d)
        .fold(f64::INFINITY, f64::min);
    assert!(
        (best.distance - brute).abs() < 1e-9,
        "streaming best {} != brute-force min {}",
        best.distance,
        brute
    );
    // And the claimed positions actually achieve that distance.
    let sub = &stream[best.start as usize - 1..best.end as usize];
    let exact = dtw_distance_with(sub, query, kernel).unwrap();
    assert!((exact - best.distance).abs() < 1e-9);
}

#[test]
fn theorem1_star_padding_equals_min_over_subsequences() {
    let mut rng = Rng::seed_from_u64(0x5921);
    for _ in 0..64 {
        let stream = seq(&mut rng, 40);
        let query = seq(&mut rng, 6);
        theorem1_holds(&stream, &query, Squared);
    }
}

#[test]
fn theorem1_holds_under_absolute_kernel() {
    let mut rng = Rng::seed_from_u64(0xAB5);
    for _ in 0..64 {
        let stream = seq(&mut rng, 40);
        let query = seq(&mut rng, 6);
        theorem1_holds(&stream, &query, Absolute);
    }
}

#[test]
fn disjoint_queries_have_no_false_dismissals() {
    let mut rng = Rng::seed_from_u64(0xD15);
    for _ in 0..64 {
        let stream = seq(&mut rng, 35);
        let query = seq(&mut rng, 5);
        let eps = rng.f64_range(0.5, 50.0);
        let reported = disjoint_matches_with(&stream, &query, eps, Squared).unwrap();
        // Every reported match is exact and within epsilon.
        for m in &reported {
            assert!(m.distance <= eps);
            let sub = &stream[m.start as usize - 1..m.end as usize];
            let exact = dtw_distance_with(sub, &query, Squared).unwrap();
            assert!((exact - m.distance).abs() < 1e-9);
        }
        // Reports are pairwise disjoint and ordered.
        for w in reported.windows(2) {
            assert!(w[0].end < w[1].start);
        }
        // No false dismissals — stated for what SPRING actually
        // guarantees (Lemma 2): the *optimal* subsequence ending at each
        // tick. A qualifying-but-dominated subsequence whose optimal
        // warping cell belongs to a better overlapping match is
        // intentionally suppressed by condition 2 of Problem 2 (that is
        // what makes the query "disjoint").
        let mut best_per_end: std::collections::HashMap<u64, (u64, f64)> =
            std::collections::HashMap::new();
        for (ts, te, d) in all_subsequence_distances(&stream, &query, Squared) {
            let entry = best_per_end.entry(te).or_insert((ts, d));
            if d < entry.1 {
                *entry = (ts, d);
            }
        }
        for (&te, &(ts, d)) in &best_per_end {
            if d <= eps {
                let covered = reported
                    .iter()
                    .any(|m| m.group_start <= te && ts <= m.group_end && m.distance <= d + 1e-9);
                assert!(covered, "optimal X[{ts}:{te}] d={d} uncovered");
            }
        }
    }
}

#[test]
fn best_match_is_kernel_consistent() {
    let mut rng = Rng::seed_from_u64(0xBE5);
    for _ in 0..64 {
        let stream = seq(&mut rng, 30);
        let query = seq(&mut rng, 5);
        // The best positions may differ between kernels, but each
        // kernel's answer must be optimal under that kernel.
        for_each_kernel(&stream, &query);
    }
}

#[test]
fn banded_dtw_upper_bounds_unconstrained() {
    use spring::dtw::constraint::dtw_constrained;
    let mut rng = Rng::seed_from_u64(0xBA2);
    for _ in 0..64 {
        let x = seq(&mut rng, 20);
        let y = seq(&mut rng, 20);
        let radius = rng.usize_range(0, 20);
        let free = dtw_distance_with(&x, &y, Squared).unwrap();
        if let Ok(banded) =
            dtw_constrained(&x, &y, Squared, GlobalConstraint::SakoeChiba { radius })
        {
            assert!(banded >= free - 1e-9);
        }
    }
}

#[test]
fn dtw_distance_of_identical_inputs_is_zero() {
    let mut rng = Rng::seed_from_u64(0x0D7);
    for _ in 0..64 {
        let x = seq(&mut rng, 30);
        assert_eq!(dtw_distance_with(&x, &x, Squared).unwrap(), 0.0);
        assert_eq!(dtw_distance_with(&x, &x, Absolute).unwrap(), 0.0);
    }
}

#[test]
fn dtw_is_symmetric() {
    let mut rng = Rng::seed_from_u64(0x575);
    for _ in 0..64 {
        let x = seq(&mut rng, 20);
        let y = seq(&mut rng, 20);
        let a = dtw_distance_with(&x, &y, Squared).unwrap();
        let b = dtw_distance_with(&y, &x, Squared).unwrap();
        assert!((a - b).abs() < 1e-9);
    }
}

fn for_each_kernel(stream: &[f64], query: &[f64]) {
    let sq = best_subsequence_match_with(stream, query, Squared)
        .unwrap()
        .unwrap();
    let ab = best_subsequence_match_with(stream, query, Absolute)
        .unwrap()
        .unwrap();
    let brute_sq = all_subsequence_distances(stream, query, Squared)
        .into_iter()
        .map(|(_, _, d)| d)
        .fold(f64::INFINITY, f64::min);
    let brute_ab = all_subsequence_distances(stream, query, Absolute)
        .into_iter()
        .map(|(_, _, d)| d)
        .fold(f64::INFINITY, f64::min);
    assert!((sq.distance - brute_sq).abs() < 1e-9);
    assert!((ab.distance - brute_ab).abs() < 1e-9);
}
