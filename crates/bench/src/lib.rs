//! # spring-bench — harnesses regenerating the paper's tables and figures
//!
//! One binary per experiment (see DESIGN.md §3 for the full index):
//!
//! | Paper artifact | Binary | What it prints |
//! |---|---|---|
//! | Fig. 6 (a–d) | `fig6_discovery` | detected subsequences per dataset |
//! | Table 2 | `table2` | the table's rows: start, length, distance, output time |
//! | Fig. 7 | `fig7_time` | per-tick wall-clock vs stream length, Naive vs SPRING |
//! | Fig. 8 | `fig8_memory` | bytes vs stream length: Naive, SPRING(path), SPRING |
//! | Fig. 9 / Sec. 5.3 | `fig9_mocap` | motions captured by the 4 queries |
//!
//! Microbenches (`cargo bench`, self-contained [`harness`]): `per_tick`
//! (SPRING vs Naive cost per tick), `dtw_kernels` (kernel ablation),
//! `monitor_scaling` (engine attachments / runner workers ablation),
//! `extensions` (variant overhead).
//!
//! This library holds the shared measurement utilities.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fanout;
pub mod harness;

use std::time::Instant;

/// Measures the average wall-clock seconds of `f` per invocation:
/// `reps` timed invocations after `warmup` untimed ones.
pub fn time_per_call<F: FnMut()>(warmup: usize, reps: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Formats seconds as engineering-style milliseconds for table output.
pub fn fmt_ms(seconds: f64) -> String {
    format!("{:.6}", seconds * 1e3)
}

/// Geometric sequence of stream lengths used by Figs. 7–8
/// (10³, 10⁴, 10⁵, 10⁶).
pub fn fig7_lengths() -> Vec<usize> {
    vec![1_000, 10_000, 100_000, 1_000_000]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_per_call_is_positive_and_scales() {
        // black_box the loop bound too, or release builds const-fold the
        // whole sum and both measurements collapse to ~0.
        let fast = time_per_call(1, 20, || {
            let n = std::hint::black_box(100u64);
            std::hint::black_box((0..n).map(std::hint::black_box).sum::<u64>());
        });
        let slow = time_per_call(1, 20, || {
            let n = std::hint::black_box(1_000_000u64);
            std::hint::black_box((0..n).map(std::hint::black_box).sum::<u64>());
        });
        assert!(fast >= 0.0);
        assert!(slow > fast);
    }

    #[test]
    fn fmt_ms_converts_units() {
        assert_eq!(fmt_ms(0.001), "1.000000");
    }

    #[test]
    fn fig7_lengths_are_the_papers_axis() {
        assert_eq!(fig7_lengths(), vec![1_000, 10_000, 100_000, 1_000_000]);
    }
}
