//! Throughput of the STWM kernels over the same 64-sample frames, at
//! m ∈ {64, 256, 1024}: the wavefront frame kernel
//! (`Spring::step_batch`), the two-phase SoA column kernel one sample
//! at a time (`Spring::step`), and the branchy scalar reference loop
//! (`Spring::step_reference`).
//! The printed lines report frame-vs-column and frame-vs-reference
//! speedups; the `kernel_throughput` group feeds the CI smoke baseline
//! (elements/s = query cells per second, counting all m rows whether
//! or not the band computes them).
//!
//! The monitors run at ε = 100. On this fixture the ε-band then holds
//! nearly every row (about 84% of them at m = 1024, all at the smaller
//! m). The `_fullband` rows repeat the frame and column forms at
//! ε = `f64::MAX`, where every finite cell is in the band: the worst
//! case, tracked so the band's bookkeeping cannot quietly slow the full
//! column down. The `_idle` rows (m = 64, ε = 100) run the same stream
//! shifted by [`IDLE_OFFSET`], far from the query: the band stays empty
//! and every tick takes the idle skip, one distance instead of a column
//! fill, as on most (attachment, tick) pairs of a many-query server.
//!
//! The engine and runner workers call `step_batch`, but it sends only
//! part of the (attachment, sample) pairs through the wavefront: a
//! sample whose ε-band is empty takes the idle skip, and a band that
//! does not reach row m takes the banded column kernel. Shares per
//! path with `step_batch(64)` on the springbench seed-1 inputs:
//!
//! | workload        | frames | idle skip | banded columns |
//! |-----------------|--------|-----------|----------------|
//! | `wire_m16`      | 0.73%  | 99.0%     | 0.30%          |
//! | `wire_m512`     | 6.8%   | 56.5%     | 36.7%          |
//! | `fanout_q32`    | 0.27%  | 99.2%     | 0.57%          |
//! | `session_churn` | 13.4%  | 72.8%     | 13.8%          |
//!
//! So the frame rows here bound the kernel's speed, not a server's.
//!
//! On x86-64 the frame and column kernels run the explicit `core::arch`
//! selects at the widest width the CPU reports. All three paths report
//! the same matches; only the time differs.

use std::hint::black_box;

use spring_bench::harness::{fmt_time, Bench};
use spring_core::{Spring, SpringConfig};
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

/// `step_batch` over 64-sample frames: the production hot path. `tag`
/// names the threshold (and offset) in the row name.
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
/// kernel without the wavefront.
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

fn main() {
    let b = Bench::new("kernel_throughput");
    let mut lines = Vec::new();
    for m in [64usize, 256, 1_024] {
        let soa = bench_step_batch(&b, m, 100.0, 0.0, "");
        let column = bench_column(&b, m, 100.0, 0.0, "");
        let reference = bench_reference(&b, m);
        lines.push(format!(
            "kernel_throughput: m={m:<5} frame {:>10}  column {:>10} ({:.2}x)  reference {:>10} ({:.2}x)",
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
            "kernel_throughput: m={m:<5} full band: frame {:>10}  column {:>10} ({:.2}x)",
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
    for line in &lines {
        println!("{line}");
    }
}
