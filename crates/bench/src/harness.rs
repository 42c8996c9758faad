//! A small, self-contained micro-benchmark harness (no external
//! dependencies): calibrated batch timing with best-of-N reporting.
//!
//! Methodology: each benchmark first calibrates an iteration count so one
//! timed batch lasts roughly the target duration (amortizing `Instant`
//! overhead), then times several batches and reports the **minimum**
//! per-iteration time — the standard noise-floor estimator for
//! micro-benchmarks (background load only ever adds time).
//!
//! [`Bench::compare`] is the A/B variant for overhead measurements: it
//! interleaves the sides round by round, so drift on a shared host
//! lands on every side alike, and reports the median and interquartile
//! range of the per-round ratio to the first side.
//!
//! Set `SPRING_BENCH_FAST=1` to shrink batch targets ~10×, or
//! `SPRING_BENCH_SMOKE=1` for a single ~2 ms batch per benchmark (the
//! CI smoke stage: "does every benchmark still run?", not "how fast?").
//! Set `SPRING_BENCH_JSON=<path>` to additionally append one JSON line
//! per result (`{"name":…,"secs_per_iter":…,"elems_per_iter":…}`) to
//! that file — `ci.sh --quick` assembles these into `BENCH_SMOKE.json`.

use std::time::{Duration, Instant};

/// A named group of benchmarks sharing batch-target/sample settings.
pub struct Bench {
    group: String,
    target: Duration,
    samples: usize,
    smoke: bool,
}

impl Bench {
    /// A group with the default settings (≈60 ms batches, 7 samples),
    /// ~10× faster when `SPRING_BENCH_FAST` is set, or one ≈2 ms batch
    /// when `SPRING_BENCH_SMOKE` is set.
    pub fn new(group: impl Into<String>) -> Self {
        let smoke = std::env::var_os("SPRING_BENCH_SMOKE").is_some();
        let fast = std::env::var_os("SPRING_BENCH_FAST").is_some();
        let (target, samples) = if smoke {
            (Duration::from_millis(2), 1)
        } else if fast {
            (Duration::from_millis(6), 3)
        } else {
            (Duration::from_millis(60), 7)
        };
        Bench {
            group: group.into(),
            target,
            samples,
            smoke,
        }
    }

    /// Times `f`, prints one result line, and returns seconds/iteration.
    pub fn bench(&self, id: &str, f: impl FnMut()) -> f64 {
        self.bench_elems(id, 1, f)
    }

    /// Like [`Bench::bench`], but each call to `f` processes `elems`
    /// elements; the report adds an elements/second column.
    pub fn bench_elems(&self, id: &str, elems: u64, mut f: impl FnMut()) -> f64 {
        let iters = self.calibrate(&mut f);
        let mut best = f64::INFINITY;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            best = best.min(start.elapsed().as_secs_f64() / iters as f64);
        }
        let name = format!("{}/{id}", self.group);
        if elems > 1 {
            let rate = elems as f64 / best;
            println!(
                "{name:<44} {:>12}/iter  {:>14}/s",
                fmt_time(best),
                fmt_count(rate)
            );
        } else {
            println!("{name:<44} {:>12}/iter", fmt_time(best));
        }
        append_json_line(&name, best, elems);
        best
    }

    /// Times the `sides` of one comparison interleaved: each of 15
    /// rounds (one in smoke mode) times one calibrated batch per side,
    /// rotating which side goes first. Prints and records each side under
    /// `group/id` with its median seconds per call of `f` (which
    /// processes `elems` elements), and for every later side the median
    /// and IQR of its per-round ratio to the first side.
    pub fn compare(&self, elems: u64, sides: &mut [(&str, &mut dyn FnMut())]) {
        let iters: Vec<u64> = sides.iter_mut().map(|(_, f)| self.calibrate(f)).collect();
        let rounds = if self.smoke { 1 } else { COMPARE_ROUNDS };
        let mut times = vec![Vec::with_capacity(rounds); sides.len()];
        for round in 0..rounds {
            for side in round_order(round, sides.len()) {
                let start = Instant::now();
                for _ in 0..iters[side] {
                    (sides[side].1)();
                }
                times[side].push(start.elapsed().as_secs_f64() / iters[side] as f64);
            }
        }
        for (i, (median, ratio)) in compare_rounds(&times).into_iter().enumerate() {
            let name = format!("{}/{}", self.group, sides[i].0);
            let mut line = format!("{name:<44} {:>12}/iter", fmt_time(median));
            if i > 0 {
                let pct = |r: f64| (r - 1.0) * 100.0;
                line += &format!(
                    "  {:+.1}% vs first (IQR {:+.1}% .. {:+.1}%, {rounds} rounds)",
                    pct(ratio.median),
                    pct(ratio.q1),
                    pct(ratio.q3),
                );
            }
            println!("{line}");
            append_json_line(&name, median, elems);
        }
    }

    /// Doubles the batch size until one batch reaches ~1/8 of the
    /// target, then scales up to the target.
    fn calibrate(&self, f: &mut impl FnMut()) -> u64 {
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = start.elapsed();
            if elapsed * 8 >= self.target || iters >= 1 << 30 {
                let per = elapsed.as_secs_f64() / iters as f64;
                let scaled = (self.target.as_secs_f64() / per.max(1e-12)).ceil();
                return (scaled as u64).clamp(1, 1 << 32);
            }
            iters *= 2;
        }
    }
}

/// Rounds of a full-mode [`Bench::compare`].
const COMPARE_ROUNDS: usize = 15;

/// The side order of `round` in [`Bench::compare`]: a rotation that
/// starts at `round mod n`, so every side leads equally often.
fn round_order(round: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |k| (round + k) % n)
}

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    /// Interpolates linearly between order statistics (rank `p·(n − 1)`);
    /// `xs` must be non-empty.
    fn of(xs: &[f64]) -> Self {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let rank = p * (v.len() - 1) as f64;
            let lo = rank.floor() as usize;
            v[lo] + (rank - lo as f64) * (v[rank.ceil() as usize] - v[lo])
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

/// Per side of `times[side][round]` (seconds per call): the median time
/// and the quartiles of the per-round ratio to side 0.
fn compare_rounds(times: &[Vec<f64>]) -> Vec<(f64, Quartiles)> {
    times
        .iter()
        .map(|t| {
            let ratios: Vec<f64> = t.iter().zip(&times[0]).map(|(a, b)| a / b).collect();
            (Quartiles::of(t).median, Quartiles::of(&ratios))
        })
        .collect()
}

/// Appends one JSON line per result to `$SPRING_BENCH_JSON`, when set.
/// Failures are reported to stderr but never fail the benchmark itself.
fn append_json_line(name: &str, secs_per_iter: f64, elems: u64) {
    let Some(path) = std::env::var_os("SPRING_BENCH_JSON") else {
        return;
    };
    use std::io::Write as _;
    let line = format!(
        "{{\"name\":\"{name}\",\"secs_per_iter\":{secs_per_iter:e},\"elems_per_iter\":{elems}}}"
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = appended {
        eprintln!("SPRING_BENCH_JSON {}: {e}", path.to_string_lossy());
    }
}

/// Formats seconds/iteration with an auto-selected unit.
pub fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    }
}

/// Formats a rate (elements/second) with k/M/G suffixes.
pub fn fmt_count(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2} G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2} M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2} k", rate / 1e3)
    } else {
        format!("{rate:.0} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full-mode group with 1 ms batches, whatever the environment.
    fn quick(group: &str) -> Bench {
        Bench {
            group: group.into(),
            target: Duration::from_millis(1),
            samples: 2,
            smoke: false,
        }
    }

    #[test]
    fn bench_returns_a_positive_time() {
        let b = quick("test");
        let t = b.bench("noop-ish", || {
            std::hint::black_box((0..50u64).sum::<u64>());
        });
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn json_lines_append_to_the_env_path() {
        let path = std::env::temp_dir().join(format!("spring_bench_json_{}", std::process::id()));
        std::fs::remove_file(&path).ok();
        std::env::set_var("SPRING_BENCH_JSON", &path);
        let b = quick("jsontest");
        b.bench("noop", || {
            std::hint::black_box((0..10u64).sum::<u64>());
        });
        std::env::remove_var("SPRING_BENCH_JSON");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let line = text
            .lines()
            .find(|l| l.contains("\"jsontest/noop\""))
            .expect("result line present");
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"secs_per_iter\":"), "{line}");
        assert!(line.contains("\"elems_per_iter\":1"), "{line}");
    }

    #[test]
    fn rounds_rotate_which_side_goes_first() {
        let orders: Vec<Vec<usize>> = (0..4).map(|r| round_order(r, 2).collect()).collect();
        assert_eq!(orders, [[0, 1], [1, 0], [0, 1], [1, 0]]);
        let orders: Vec<Vec<usize>> = (0..3).map(|r| round_order(r, 3).collect()).collect();
        assert_eq!(orders, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]);
    }

    #[test]
    fn quartiles_and_ratios_are_taken_round_by_round() {
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        // n = 4: ranks 0.75, 1.5 and 2.25.
        let q = Quartiles::of(&[10.0, 40.0, 20.0, 30.0]);
        assert_eq!((q.q1, q.median, q.q3), (17.5, 25.0, 32.5));
        // The second side is 10% slower in every round while the rounds
        // drift by 2x: the per-round ratio removes the drift.
        let first = vec![1.0, 2.0, 1.0, 2.0];
        let second: Vec<f64> = first.iter().map(|t| t * 1.1).collect();
        let sides = compare_rounds(&[first, second]);
        assert_eq!((sides[0].0, sides[0].1.median), (1.5, 1.0));
        assert!((sides[1].0 - 1.65).abs() < 1e-12);
        let r = sides[1].1;
        for v in [r.q1, r.median, r.q3] {
            assert!((v - 1.1).abs() < 1e-12, "{v}");
        }
    }

    #[test]
    fn compare_times_every_side() {
        let (mut a_calls, mut b_calls) = (0u64, 0u64);
        quick("cmptest").compare(
            1,
            &mut [("a", &mut || a_calls += 1), ("b", &mut || b_calls += 1)],
        );
        assert!(a_calls > 0 && b_calls > 0);
    }

    #[test]
    fn formatting_selects_sane_units() {
        assert!(fmt_time(5e-9).ends_with("ns"));
        assert!(fmt_time(5e-6).ends_with("µs"));
        assert!(fmt_time(5e-3).ends_with("ms"));
        assert!(fmt_time(5.0).ends_with('s'));
        assert!(fmt_count(2.5e6).ends_with('M'));
        assert!(fmt_count(2.5e3).ends_with('k'));
    }
}
