//! Ablations for the post-paper monitor variants: what do length bounds,
//! streaming normalization and slope limits cost per tick against plain
//! SPRING?

use std::hint::black_box;

use spring_bench::harness::Bench;
use spring_core::{
    BoundedConfig, BoundedSpring, NormalizedSpring, SlopeLimited, Spring, SpringConfig,
};
use spring_data::MaskedChirp;

fn workload() -> (Vec<f64>, Vec<f64>) {
    let mut cfg = MaskedChirp::small();
    cfg.query_len = 256;
    (cfg.generate().0.values, cfg.query().values)
}

/// Per-tick overhead of the monitor variants against plain SPRING.
fn bench_monitor_variants() {
    let b = Bench::new("monitor_variants_per_tick");
    let (values, query) = workload();

    {
        let mut s = Spring::new(&query, SpringConfig::new(100.0)).unwrap();
        let mut i = 0;
        b.bench("plain", || {
            black_box(s.step(values[i % values.len()]));
            i += 1;
        });
    }
    {
        let mut s = BoundedSpring::new(&query, BoundedConfig::new(100.0, 16, 2_048)).unwrap();
        let mut i = 0;
        b.bench("bounded", || {
            black_box(s.step(values[i % values.len()]));
            i += 1;
        });
    }
    {
        let mut s = NormalizedSpring::new(&query, 100.0, 256).unwrap();
        let mut i = 0;
        b.bench("normalized_w256", || {
            black_box(s.step(values[i % values.len()]));
            i += 1;
        });
    }
    for r in [1usize, 2, 4] {
        let mut s = SlopeLimited::new(&query, 100.0, r).unwrap();
        let mut i = 0;
        b.bench(&format!("slope_limited_r{r}"), || {
            black_box(s.step(values[i % values.len()]));
            i += 1;
        });
    }
}

fn main() {
    bench_monitor_variants();
}
