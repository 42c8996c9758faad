//! Per-tick cost of the streaming monitors (the microbench behind
//! Fig. 7): SPRING is O(m) regardless of stream history; Naive is O(n·m).
//! Also measures the m-scaling of SPRING and the k-scaling of the vector
//! variant (Sec. 5.3).

use std::hint::black_box;

use spring_bench::harness::Bench;
use spring_core::{NaiveMonitor, Spring, SpringConfig, VectorSpring};
use spring_data::MaskedChirp;

fn stream_values(n: usize) -> Vec<f64> {
    let mut cfg = MaskedChirp::small();
    cfg.stream_len = n.max(1_300);
    cfg.generate().0.values
}

fn bench_spring_vs_naive() {
    let b = Bench::new("per_tick");
    let m = 256;
    let mut q = MaskedChirp::small();
    q.query_len = m;
    let query = q.query().values;
    let values = stream_values(2_000);

    {
        let mut spring = Spring::new(&query, SpringConfig::new(100.0)).unwrap();
        let mut i = 0;
        b.bench("spring_m256", || {
            black_box(spring.step(values[i % values.len()]));
            i += 1;
        });
    }
    for n in [1_000usize, 10_000] {
        let mut naive = NaiveMonitor::new(&query, 100.0).unwrap();
        naive.prefill_for_benchmark(n);
        let mut i = 0;
        b.bench(&format!("naive_m256_n{n}"), || {
            black_box(naive.step(values[i % values.len()]));
            i += 1;
        });
    }
}

fn bench_spring_m_scaling() {
    let b = Bench::new("spring_m_scaling");
    let values = stream_values(2_000);
    for m in [64usize, 256, 1_024, 4_096] {
        let mut cfg = MaskedChirp::small();
        cfg.query_len = m;
        let query = cfg.query().values;
        let mut spring = Spring::new(&query, SpringConfig::new(100.0)).unwrap();
        let mut i = 0;
        b.bench_elems(&format!("m{m}"), m as u64, || {
            black_box(spring.step(values[i % values.len()]));
            i += 1;
        });
    }
}

fn bench_vector_spring() {
    let b = Bench::new("vector_spring_k_scaling");
    for k in [2usize, 16, 62] {
        let m = 120;
        let query: Vec<Vec<f64>> = (0..m)
            .map(|i| (0..k).map(|c| ((i * c) as f64 * 0.1).sin()).collect())
            .collect();
        // The stream cycles through the query's rows, and ε = 4km bounds
        // every cell the column fill computes (a row's distance is at
        // most 4k for samples in [-1, 1]^k): the ε-band keeps every row,
        // so a tick fills the whole m × k column.
        let epsilon = (4 * k * m) as f64;
        let mut vs = VectorSpring::new(&query, epsilon).unwrap();
        let mut i = 0;
        b.bench_elems(&format!("k{k}"), k as u64, || {
            black_box(vs.step(&query[i % m]).unwrap());
            i += 1;
        });
    }
}

fn main() {
    bench_spring_vs_naive();
    bench_spring_m_scaling();
    bench_vector_spring();
}
