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
//! kernel's speed, not a server's.
//!
//! On x86-64 the column kernel runs the explicit `core::arch`
//! min-select (AVX2 where the CPU reports it, else SSE2). All paths
//! report the same matches; only the time differs.

use std::hint::black_box;

use spring_bench::harness::{fmt_time, Bench};
use spring_core::{BestMatch, Spring, SpringConfig};
use spring_data::MaskedChirp;

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

/// `step_batch` over 64-sample frames: the production hot path (idle
/// skip plus banded columns). `tag` names the threshold (and offset) in
/// the row name.
fn bench_step_batch(b: &Bench, m: usize, eps: f64, offset: f64, tag: &str) -> f64 {
    let (query, values) = fixtures(m, offset);
    let mut spring = Spring::new(&query, SpringConfig::new(eps)).unwrap();
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
