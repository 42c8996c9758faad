//! Throughput of the STWM kernels over the same 64-sample frames, at
//! m ∈ {64, 256, 1024}: `Spring::step_batch` (the idle skip plus the
//! banded column kernel, the production hot path), the two-phase SoA
//! column kernel one sample at a time (`Spring::step`), and the branchy
//! scalar reference loop (`Spring::step_reference`).
//! The printed lines report batch-vs-column and batch-vs-reference
//! speedups; the `kernel_throughput` group feeds the CI smoke baseline
//! (elements/s = query cells per second, counting all m rows whether
//! or not the band computes them).
//!
//! The monitors run at ε = 100. On this fixture the ε-band then holds
//! nearly every row (about 84% of them at m = 1024, all at the smaller
//! m). The `_fullband` rows repeat the batch and column forms at
//! ε = `f64::MAX`, where every finite cell is in the band: the worst
//! case, tracked so the band's bookkeeping cannot quietly slow the full
//! column down. The `_idle` rows (m = 64, ε = 100) run the same stream
//! shifted by [`IDLE_OFFSET`], far from the query: the band stays empty
//! and every tick takes the idle skip, one distance instead of a column
//! fill, as on most (attachment, tick) pairs of a many-query server.
//! The `best_` rows (m ∈ {64, 256}) run `BestMatch` (Problem 1) on the
//! unshifted stream, per sample (`BestMatch::step`, what
//! `spring bestmatch` runs) and through `Monitor::step_batch`: a
//! long-lived monitor, so the band sits at the best distance found so
//! far, as it does over most of a long stream.
//!
//! The engine and runner workers first offer each attachment the whole
//! frame (`Monitor::skip_frame`): with an empty band and every sample
//! idle, one range test on the frame's `(min, max)` (or a test per
//! chunk) consumes it at once. Other frames go to `Monitor::step_run`:
//! the same loop as `step_batch`, minus its non-finite scan, which the
//! frame scan already did once for all of a stream's attachments, and
//! with the frame's 8-sample chunk ranges, so the idle skip proves a
//! chunk lying on one side of `y_1` idle with one distance instead of
//! eight. These rows time `step_batch`, one monitor alone with no frame
//! scan, whose skip tests each chunk itself; the fan-out gain shows in
//! the `batch_ingest_fanout/q{1,8,32,56}` and `metrics_overhead`'s
//! `engine_push_batch_q32` rows instead. Shares of the
//! (attachment, sample) pairs per path with `step_batch(64)`, and of
//! the (attachment, 64-sample frame) pairs consumed whole by
//! `skip_frame`, on the springbench seed-1 inputs (stream 0, or every
//! churn session):
//!
//! | workload        | idle skip | banded columns | whole frame idle |
//! |-----------------|-----------|----------------|------------------|
//! | `wire_m16`      | 99.0%     | 1.03%          | 95.7%            |
//! | `wire_m512`     | 56.5%     | 43.5%          | 51.8%            |
//! | `fanout_q32`    | 99.2%     | 0.84%          | 98.4%            |
//! | `session_churn` | 72.8%     | 27.2%          | 51.6%            |
//!
//! So the `soa_` rows here, whose band is nearly full, bound the
//! kernel's speed, not a server's. The one row shaped like a server's
//! workload is `soa_batch64_m512_planted`: time-warped copies of an
//! m = 512 query planted about every 1,024 samples in far-off noise,
//! at ε = 0.25·m, as in springbench's `wire_m512`. Its printed line
//! gives its share of banded columns and of `left` rows (rows within
//! ε where Eq. (8) picks the in-column `left` cell) beside
//! `wire_m512`'s 43.5% and 17.8%. Only those `left` rows reach the
//! column kernel's serial chain: the carry guesses that `left` loses,
//! fills every row as one vector pass and repairs the runs where it
//! wins, so the fewer `left` rows, the closer a column comes to the
//! lane phase's speed. The `_fullband` rows are the opposite case:
//! every row computed, whatever their `left` structure.
//!
//! On x86-64 the column kernel runs the explicit `core::arch`
//! min-select (AVX2 where the CPU reports it, else SSE2). All paths
//! report the same matches; only the time differs.

use std::f64::consts::TAU;
use std::hint::black_box;

use spring_bench::harness::{fmt_time, Bench};
use spring_core::stwm::Step;
use spring_core::{BestMatch, Spring, SpringConfig, Stwm};
use spring_data::MaskedChirp;
use spring_dtw::kernels::{DistanceKernel, Squared};
use spring_util::Rng;

const BATCH: usize = 64;

/// Shift of the `_idle` rows' stream: the chirp stays within ±2, so
/// every sample is farther than 10 from every query element, and its
/// squared distance is above ε = 100.
const IDLE_OFFSET: f64 = 20.0;

/// Query and stream of length-`m` fixtures, the stream shifted by
/// `offset`.
fn fixtures(m: usize, offset: f64) -> (Vec<f64>, Vec<f64>) {
    let mut cfg = MaskedChirp::small();
    cfg.query_len = m;
    cfg.stream_len = 4_096;
    let query = cfg.query().values;
    let values = cfg.generate().0.values.iter().map(|v| v + offset).collect();
    (query, values)
}

/// Samples in the `_planted` stream.
const PLANTED_LEN: usize = 65_536;

/// The `_planted` fixture, shaped like springbench's `wire_m512`: a
/// smooth length-`m` query around 5 and its time-warped copies
/// (resampled to 0.8–1.25× its length, plus a little Gaussian noise)
/// planted about every 1,024 samples in a bounded random walk around
/// 500, far above the query.
fn planted_fixtures(m: usize) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(0x0512);
    let query: Vec<f64> = (0..m)
        .map(|i| {
            let x = TAU * i as f64 / m as f64;
            5.0 + 2.0 * (x + 0.7).sin() + 0.6 * (3.0 * x + 2.1).sin()
        })
        .collect();
    let mut walk = 500.0;
    let mut stream = Vec::with_capacity(PLANTED_LEN + 2 * m);
    while stream.len() < PLANTED_LEN {
        let gap = rng.usize_range(512, 1_536).saturating_sub(m).max(m);
        for _ in 0..gap {
            walk = (walk + 0.2 * rng.normal()).clamp(490.0, 510.0);
            stream.push(walk);
        }
        let len = ((m as f64 * rng.f64_range(0.8, 1.25)).round() as usize).max(2);
        for j in 0..len {
            let pos = j as f64 * (m - 1) as f64 / (len - 1) as f64;
            let (i, frac) = (pos.floor() as usize, pos.fract());
            let v = match i + 1 < m {
                true => query[i] * (1.0 - frac) + query[i + 1] * frac,
                false => query[m - 1],
            };
            stream.push(v + 0.05 * rng.normal());
        }
    }
    stream.truncate(PLANTED_LEN);
    (query, stream)
}

/// Shares of the `_planted` workload's columns the band computes (the
/// rest take the idle skip: empty band, sample farther than `eps` from
/// `y_1`), and of the rows at or below each column's highest row within
/// `eps` where `left` wins Eq. (8). Counted on a bare STWM (no disjoint
/// reset), as springbench's `wire_m512` figures were.
fn planted_shares(query: &[f64], values: &[f64], eps: f64) -> (f64, f64) {
    let mut stwm = Stwm::new(query).unwrap();
    let (mut banded, mut band_rows, mut left_rows) = (0usize, 0usize, 0usize);
    let mut top_prev = 0;
    let mut left = vec![false; query.len() + 1];
    for &x in values {
        stwm.step_traced(x, |i, step| left[i] = step == Step::Left);
        if top_prev > 0 || Squared.dist(x, query[0]) <= eps {
            banded += 1;
        }
        let d = stwm.distances();
        top_prev = (1..d.len()).rev().find(|&i| d[i] <= eps).unwrap_or(0);
        band_rows += top_prev;
        left_rows += left[1..=top_prev].iter().filter(|&&l| l).count();
    }
    (
        banded as f64 / values.len() as f64,
        left_rows as f64 / band_rows.max(1) as f64,
    )
}

/// `step_batch` over 64-sample frames: the production hot path (idle
/// skip plus banded columns). `tag` names the threshold (and offset) in
/// the row name.
fn bench_step_batch(b: &Bench, m: usize, eps: f64, offset: f64, tag: &str) -> f64 {
    let (query, values) = fixtures(m, offset);
    bench_step_batch_on(b, &query, &values, eps, tag)
}

/// [`bench_step_batch`] over a given query and stream.
fn bench_step_batch_on(b: &Bench, query: &[f64], values: &[f64], eps: f64, tag: &str) -> f64 {
    let m = query.len();
    let mut spring = Spring::new(query, SpringConfig::new(eps)).unwrap();
    let mut out = Vec::new();
    let frames: Vec<&[f64]> = values.chunks_exact(BATCH).collect();
    let mut i = 0;
    b.bench_elems(
        &format!("soa_batch{BATCH}_m{m}{tag}"),
        (m * BATCH) as u64,
        || {
            use spring_core::Monitor as _;
            out.clear();
            spring
                .step_batch(black_box(frames[i % frames.len()]), &mut out)
                .unwrap();
            black_box(&out);
            i += 1;
        },
    )
}

/// Per-sample `Spring::step` over the same frames: the SoA column
/// kernel one call per sample.
fn bench_column(b: &Bench, m: usize, eps: f64, offset: f64, tag: &str) -> f64 {
    let (query, values) = fixtures(m, offset);
    let mut spring = Spring::new(&query, SpringConfig::new(eps)).unwrap();
    let frames: Vec<&[f64]> = values.chunks_exact(BATCH).collect();
    let mut i = 0;
    b.bench_elems(
        &format!("column_batch{BATCH}_m{m}{tag}"),
        (m * BATCH) as u64,
        || {
            for &x in black_box(frames[i % frames.len()]) {
                black_box(spring.step(x));
            }
            i += 1;
        },
    )
}

/// The scalar reference loop over the same frames: the pre-SoA column.
fn bench_reference(b: &Bench, m: usize) -> f64 {
    let (query, values) = fixtures(m, 0.0);
    let mut spring = Spring::new(&query, SpringConfig::new(100.0)).unwrap();
    let frames: Vec<&[f64]> = values.chunks_exact(BATCH).collect();
    let mut i = 0;
    b.bench_elems(
        &format!("reference_batch{BATCH}_m{m}"),
        (m * BATCH) as u64,
        || {
            for &x in black_box(frames[i % frames.len()]) {
                black_box(spring.step_reference(x));
            }
            i += 1;
        },
    )
}

/// `BestMatch` over the same frames, long-lived: per sample
/// (`best_step_`) or through `Monitor::step_batch` (`best_batch64_`).
fn bench_best(b: &Bench, m: usize, batched: bool) -> f64 {
    use spring_core::Monitor as _;
    let (query, values) = fixtures(m, 0.0);
    let mut best = BestMatch::new(&query).unwrap();
    let mut out = Vec::new();
    let frames: Vec<&[f64]> = values.chunks_exact(BATCH).collect();
    let mut i = 0;
    let name = match batched {
        true => format!("best_batch{BATCH}_m{m}"),
        false => format!("best_step_m{m}"),
    };
    b.bench_elems(&name, (m * BATCH) as u64, || {
        let frame = black_box(frames[i % frames.len()]);
        if batched {
            best.step_batch(frame, &mut out).unwrap();
        } else {
            for &x in frame {
                black_box(best.step(x));
            }
        }
        i += 1;
    })
}

fn main() {
    let b = Bench::new("kernel_throughput");
    let mut lines = Vec::new();
    for m in [64usize, 256, 1_024] {
        let soa = bench_step_batch(&b, m, 100.0, 0.0, "");
        let column = bench_column(&b, m, 100.0, 0.0, "");
        let reference = bench_reference(&b, m);
        lines.push(format!(
            "kernel_throughput: m={m:<5} batch {:>10}  column {:>10} ({:.2}x)  reference {:>10} ({:.2}x)",
            fmt_time(soa),
            fmt_time(column),
            column / soa,
            fmt_time(reference),
            reference / soa
        ));
    }
    // Every finite cell is at or below f64::MAX: the whole column.
    for m in [64usize, 256, 1_024] {
        let soa = bench_step_batch(&b, m, f64::MAX, 0.0, "_fullband");
        let column = bench_column(&b, m, f64::MAX, 0.0, "_fullband");
        lines.push(format!(
            "kernel_throughput: m={m:<5} full band: batch {:>10}  column {:>10} ({:.2}x)",
            fmt_time(soa),
            fmt_time(column),
            column / soa
        ));
    }
    // ε = 0.25·m, springbench's threshold.
    let (query, values) = planted_fixtures(512);
    let eps = 0.25 * query.len() as f64;
    let soa = bench_step_batch_on(&b, &query, &values, eps, "_planted");
    let (banded, left) = planted_shares(&query, &values, eps);
    lines.push(format!(
        "kernel_throughput: m=512   planted: batch {:>10}  banded columns {:.1}% (wire_m512 43.5%)  left rows {:.1}% (wire_m512 17.8%)",
        fmt_time(soa),
        100.0 * banded,
        100.0 * left
    ));
    let soa = bench_step_batch(&b, 64, 100.0, IDLE_OFFSET, "_idle");
    let column = bench_column(&b, 64, 100.0, IDLE_OFFSET, "_idle");
    lines.push(format!(
        "kernel_throughput: m=64    idle: batch {:>10}  column {:>10} ({:.2}x)",
        fmt_time(soa),
        fmt_time(column),
        column / soa
    ));
    for m in [64usize, 256] {
        let step = bench_best(&b, m, false);
        let batch = bench_best(&b, m, true);
        lines.push(format!(
            "kernel_throughput: m={m:<5} best match: step {:>10}  batch {:>10} ({:.2}x)",
            fmt_time(step),
            fmt_time(batch),
            step / batch
        ));
    }
    for line in &lines {
        println!("{line}");
    }
}
