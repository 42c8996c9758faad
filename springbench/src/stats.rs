//! Order statistics shared by every report.

/// A copy of `values` sorted ascending (total order, so NaN cannot
/// break the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `[q1, median, q3]` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here equal
/// the ones a Python reader computes from the same values. `None` below
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = (n + 1) as i64;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

/// The `percent`-th percentile (nearest rank) of an ascending `sorted`
/// sample, reported only when at least ten samples lie beyond it: a
/// tail percentile with fewer samples past it is noise, not a
/// measurement.
pub fn tail_percentile(sorted: &[f64], percent: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || percent == 0 || percent > 100 {
        return None;
    }
    // Integer nearest rank (1-based): ceil(n * p / 100).
    let rank = (n * percent).div_ceil(100);
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}
