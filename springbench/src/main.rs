//! The `springbench` command line. Human-readable tables go to stderr;
//! each workload's result object is one JSON line on stdout, the last
//! line for a single workload.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use springbench::layers::Spans;
use springbench::run::{self, Config, Metric, Outcome};
use springbench::stats::quartiles;
use springbench::workload::{self, Workload, WORKLOADS};

const USAGE: &str = "usage: springbench [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--trace-dir DIR] [--smoke] [--repeat N] [--server PATH]";

/// Measured seconds per run under `--smoke` (all four workloads fit in
/// about ten seconds).
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    smoke: bool,
    repeat: usize,
    server: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_dir: None,
        smoke: false,
        repeat: 1,
        server: None,
    };
    let mut it = env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value)),
            "--repeat" => {
                args.repeat = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| bad("a positive integer"))?;
            }
            "--server" => args.server = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn report(w: &Workload, o: &Outcome, label: &str) {
    let status = if o.correct() {
        "correct"
    } else {
        "NOT CORRECT"
    };
    eprintln!(
        "{} {label}: {status}, {} attempted, {} failed",
        w.name, o.attempted, o.failed
    );
    for m in &o.metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &o.problems {
        eprintln!("  problem: {p}");
    }
    for n in &o.notes {
        eprintln!("  note: {n}");
    }
}

/// Folds repeated runs: summed operations, every problem, and each
/// metric's median (quartiles go to stderr).
fn fold(w: &Workload, runs: Vec<Outcome>) -> Outcome {
    if runs.len() == 1 {
        return runs.into_iter().next().expect("one run");
    }
    let mut folded = Outcome::default();
    eprintln!(
        "{} over {} runs: median [q1, q3] (spread = (q3 - q1) / median)",
        w.name,
        runs.len()
    );
    let first = &runs[0].metrics;
    for (i, m) in first.iter().enumerate() {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.get(i))
            .map(|m| m.value)
            .collect();
        let [q1, med, q3] = quartiles(&values).expect("two or more runs");
        eprintln!(
            "  {:<34} {med:>16.6} [{q1:.6}, {q3:.6}] {} spread {:.2}%",
            m.name,
            m.unit,
            100.0 * (q3 - q1) / med.abs().max(f64::MIN_POSITIVE)
        );
        folded.metrics.push(Metric {
            value: med,
            ..m.clone()
        });
    }
    for r in runs {
        folded.attempted += r.attempted;
        folded.failed += r.failed;
        folded.problems.extend(r.problems);
        folded.waterfall = r.waterfall.or(folded.waterfall);
    }
    folded
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("springbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let target =
        env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let server = args
        .server
        .unwrap_or_else(|| target.join("release").join("spring"));
    if !server.is_file() {
        eprintln!(
            "springbench: no server binary at {} (build it with `cargo build --release -p spring-cli`)",
            server.display()
        );
        return ExitCode::from(2);
    }
    let workloads: Vec<&'static Workload> = match &args.workload {
        None => WORKLOADS.iter().collect(),
        Some(name) => match workload::find(name) {
            Some(w) => vec![w],
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "springbench: unknown workload `{name}` (one of {})",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };
    let cfg = Config {
        server,
        work_dir: target.join("springbench"),
        seed: args.seed,
        seconds: if args.smoke {
            SMOKE_SECONDS
        } else {
            args.seconds
        },
        smoke: args.smoke,
    };
    let mut spans = Spans::default();
    let mut chunk = 0;
    let mut waterfalls = String::new();
    let mut all_correct = true;
    for w in workloads {
        let runs: Vec<Outcome> = (1..=args.repeat)
            .map(|i| {
                let label = format!(
                    "run {i}/{} (seed {}, {} s, {})",
                    args.repeat,
                    cfg.seed,
                    cfg.seconds,
                    if args.trace { "traced" } else { "untraced" }
                );
                eprintln!("springbench: {} {label} …", w.name);
                let o = if args.trace {
                    run::traced(w, &cfg, &mut spans, &mut chunk)
                } else {
                    run::untraced(w, &cfg)
                };
                report(w, &o, &label);
                o
            })
            .collect();
        let folded = fold(w, runs);
        if let Some(table) = &folded.waterfall {
            eprint!("{table}");
            waterfalls.push_str(table);
        }
        all_correct &= folded.correct();
        println!("{}", result_json(&folded));
    }
    if args.trace {
        let dir = args
            .trace_dir
            .unwrap_or_else(|| target.join("springbench").join("trace"));
        let written = fs::create_dir_all(&dir)
            .and_then(|()| fs::write(dir.join("trace.json"), spans.to_chrome_json()))
            .and_then(|()| fs::write(dir.join("waterfall.txt"), &waterfalls));
        match written {
            Ok(()) => eprintln!(
                "springbench: wrote {}/trace.json and waterfall.txt",
                dir.display()
            ),
            Err(e) => {
                eprintln!("springbench: trace output in {}: {e}", dir.display());
                all_correct = false;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
