//! One run of one workload: set-up, load, scrape, verification, and
//! the metrics the run reports.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use crate::calib::{self, Burst, Calibrators, Pinger};
use crate::layers::{self, Spans, Waterfall};
use crate::load::{self, ChurnPlan, ChurnRun, Session, StreamPlan};
use crate::procfs;
use crate::prom::Exposition;
use crate::server::Server;
use crate::stats::{median, quartiles, sorted, tail_percentile};
use crate::verify::verify;
use crate::workload::{Inputs, Workload, STREAMS};

/// End-to-end metrics (name, unit), reported with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("cpu_us_per_sample", "us"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics (name, unit), reported by the traced run.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("proto.feed_ns_per_sample", "ns"),
    ("proto.format_ns_per_match", "ns"),
    ("runner.push_ns_per_sample", "ns"),
    ("runner.push_batch_ns_per_sample", "ns"),
    ("runner.cpu_ns_per_sample", "ns"),
    ("runner.self_ns_per_sample", "ns"),
    ("runner.attach_us", "us"),
    ("runner.detach_us", "us"),
    ("runner.sync_us", "us"),
    ("runner.frame_len_mean", "samples"),
    ("runner.shard_skew", "ratio"),
    ("runner.restarts", "count"),
    ("engine.push_batch_ns_per_sample", "ns"),
    ("engine.self_ns_per_sample", "ns"),
    ("kernel.step_ns_per_sample", "ns"),
    ("kernel.step_batch_ns_per_sample", "ns"),
    ("kernel.cells_per_ns", "cells/ns"),
    ("kernel.steps_per_match", "ratio"),
    ("arena.intern_us", "us"),
    ("serve.read_bytes_per_sample", "bytes"),
    ("serve.self_ns_per_sample", "ns"),
    ("match_p50_ms", "ms"),
    ("match_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_ratio", "ratio"),
    ("loadgen.cpu_share", "ratio"),
];

/// Share by which the waterfall's measured rows may exceed the
/// untraced CPU per sample (the bound of `cpu_us_per_sample`) before
/// the traced run warns.
pub const WATERFALL_TOLERANCE: f64 = 0.25;

/// Set-ups per run, half before the load and half after it; `setup_s`
/// is the median of their times at the reference host speed. Two
/// groups 20 s apart sample two moments of the host rather than one.
const SETUPS: usize = 32;
const SMOKE_SETUPS: usize = 2;
/// Idle time before each set-up, so that it does not overlap the exit
/// of the previous server or the work before it. Back to back, eight
/// runs of `fanout_q32` spread their `setup_s` over 4.0–4.9 ms; with
/// this pause and 32 set-ups, over 4.4–4.7 ms.
const SETUP_PAUSE: Duration = Duration::from_millis(10);

/// `session_churn` runs this many sessions per measured second (60k
/// at 20 s). A fixed count, not a fixed time: the server's memory
/// grows with the number of streams it has seen, so peak RSS is only
/// comparable across runs at equal session counts.
const SESSIONS_PER_SECOND: f64 = 3000.0;

/// How long phase A runs, in whole blocks: at least `share` of the
/// server run, and at least as many blocks as yield `min_matches`
/// matches over all streams (not under `--smoke`).
#[derive(Debug, Clone, Copy)]
struct PhaseA {
    share: f64,
    min_matches: u64,
}

impl PhaseA {
    /// Phase-A blocks per stream in a server run of `seconds` at `rate`
    /// samples/s, for blocks of `block_len` samples that each hold
    /// `block_matches` matches.
    fn blocks(&self, seconds: f64, rate: f64, block_len: u64, block_matches: u64) -> u64 {
        let by_time = (rate * seconds * self.share / block_len as f64).round() as u64;
        let by_matches = self
            .min_matches
            .div_ceil(STREAMS as u64)
            .div_ceil(block_matches.max(1));
        by_time.max(by_matches).max(1)
    }
}

/// An untraced run's metrics come from phase B; phase A checks the
/// open-loop path and gives the latency notes.
const UNTRACED_PHASE_A: PhaseA = PhaseA {
    share: 0.2,
    min_matches: 0,
};
/// The traced run's `match_p99_ms` needs ten samples beyond it, so a
/// thousand matches at least, some of which `(stream end)` lines may
/// replace. At the frozen phase-A rates, a time share alone would give
/// `wire_m512` and `fanout_q32` about 500–650.
const TRACED_PHASE_A: PhaseA = PhaseA {
    share: 0.6,
    min_matches: 1200,
};

/// Above this, phase-A latency grew over the phase: the generator's
/// rate was not sustainable and phase A does not measure steady state.
const BACKLOG_LIMIT: f64 = 1.5;

/// Where and how to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The `spring` binary under test.
    pub server: std::path::PathBuf,
    /// Scratch directory for the query file.
    pub work_dir: std::path::PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Tiny inputs and phases: checks that the benchmark runs.
    pub smoke: bool,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: samples, reference matches, connections.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Why the run is not correct, beyond failed operations.
    pub problems: Vec<String>,
    /// The reported metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Context for a human reader (not part of the result object).
    pub notes: Vec<String>,
    /// The traced run's waterfall table.
    pub waterfall: Option<String>,
}

impl Outcome {
    /// No failed operation and nothing else wrong.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn push(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .expect("metric is in its table");
        if !value.is_finite() {
            self.problems.push(format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        });
    }
}

/// What the server side of a run measured.
#[derive(Default)]
struct ServerRun {
    /// Each set-up's wall time, s, and the host's speed just before it
    /// ([`Pinger::speed`]).
    setup_s: Vec<(f64, f64)>,
    /// Closed-loop throughput at the reference core speed.
    samples_per_s: f64,
    /// Server CPU per sample at the reference core speed, ns.
    cpu_ns_per_sample: f64,
    /// Server CPU per sample as measured, ns.
    raw_cpu_ns_per_sample: f64,
    /// Match latencies (phase A, or churn), ms.
    match_ms: Vec<f64>,
    /// Churn session latencies, ms.
    session_ms: Vec<f64>,
    late_p99_ms: f64,
    backlog_ratio: f64,
    loadgen_cpu_share: f64,
    rss_bytes: u64,
    scrape: Exposition,
    /// Every sample the `done` counts cover, all phases.
    all_samples: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl ServerRun {
    fn set_steady(&mut self, s: Steady) {
        self.samples_per_s = s.samples_per_s;
        self.cpu_ns_per_sample = s.cpu_ns_per_sample;
        self.raw_cpu_ns_per_sample = s.raw_cpu_ns_per_sample;
        self.notes.push(s.note);
    }
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Spawns the server and opens every data connection's set-up.
fn set_up(cfg: &Config, inputs: &Inputs, query: &Path) -> io::Result<(Server, Vec<Session>, f64)> {
    let t0 = Instant::now();
    let server = Server::spawn(&cfg.server, query, inputs.workload.epsilon())?;
    let sessions = (0..STREAMS)
        .map(|k| {
            let (commands, acks) = inputs.setup_commands(k);
            load::open_session(server.addr(), &commands, acks)
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok((server, sessions, t0.elapsed().as_secs_f64()))
}

/// Refuses a server built with fault injection or tracing compiled in.
fn check_build(server: &Server) -> Result<(), String> {
    let scrape = Exposition::from_http(&server.scrape().map_err(io_err("scrape"))?)?;
    let features = scrape
        .label("spring_build_info", "features")
        .ok_or("no spring_build_info in /metrics")?;
    if features
        .split(',')
        .any(|f| f == "trace" || f == "failpoints")
    {
        return Err(format!(
            "the server was built with features `{features}`; build it with default features"
        ));
    }
    Ok(())
}

/// Median of the last third of `(order, value)` pairs over the median
/// of the first third, ordered by `order`.
fn backlog_ratio(mut points: Vec<(f64, f64)>) -> f64 {
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let third = points.len() / 3;
    if third == 0 {
        return 1.0;
    }
    let values = |s: &[(f64, f64)]| s.iter().map(|p| p.1).collect::<Vec<_>>();
    let first = median(&values(&points[..third])).unwrap_or(1.0);
    let last = median(&values(&points[points.len() - third..])).unwrap_or(1.0);
    last / first
}

/// How often the sampler reads the server's threads.
const POLL: Duration = Duration::from_millis(10);

/// Largest share of an interval counted as stolen from a CPU, so a
/// coarse steal counter cannot divide throughput by nearly zero.
const MAX_STOLEN: f64 = 0.9;

/// One progress sample of a closed-loop phase.
#[derive(Debug, Clone)]
struct Point {
    at: Instant,
    /// Samples the server has finished so far: confirmed ticks of the
    /// long-lived streams, or samples of completed sessions.
    samples: u64,
    /// Server CPU so far per CPU, ns: each poll adds what a thread used
    /// since the last poll to the CPU it is on.
    cpu_ns: BTreeMap<usize, u64>,
    /// Server user and system CPU time so far, clock ticks.
    ticks: (u64, u64),
    /// Time stolen from each CPU by the hypervisor so far, ns.
    steal_ns: BTreeMap<usize, u64>,
}

/// What the sampler saw of a closed-loop phase.
struct Sampled {
    points: Vec<Point>,
    bursts: Vec<Burst>,
}

/// Polls the server's threads every [`POLL`] and records a progress
/// point every `interval` from the moment `started()` holds until
/// `finished()` does, with the core-speed calibrators running over the
/// same span (their user-mode work is `shape` = (m, queries)). Runs on
/// the otherwise idle main thread while the generator works.
fn sample(
    pid: u32,
    progress: &[AtomicU64],
    interval: Duration,
    shape: (usize, usize),
    started: impl Fn() -> bool,
    finished: impl Fn() -> bool,
) -> io::Result<Sampled> {
    let mut points = Vec::new();
    let mut last = HashMap::new();
    let mut cpu_ns: BTreeMap<usize, u64> = BTreeMap::new();
    let mut calibrators = None;
    let mut next = Instant::now();
    while !finished() {
        for t in procfs::threads(pid)? {
            let before = last.insert(t.tid, t.ns).unwrap_or(t.ns);
            *cpu_ns.entry(t.cpu).or_default() += t.ns.saturating_sub(before);
        }
        if started() {
            if calibrators.is_none() {
                calibrators = Some(Calibrators::start(shape.0, shape.1)?);
            }
            let now = Instant::now();
            if now >= next {
                points.push(Point {
                    at: now,
                    samples: progress.iter().map(|p| p.load(Ordering::Relaxed)).sum(),
                    cpu_ns: cpu_ns.clone(),
                    ticks: procfs::cpu_ticks(pid)?,
                    steal_ns: procfs::steal_ns()?,
                });
                next = now + interval;
            }
        }
        thread::sleep(POLL);
    }
    let bursts = match calibrators {
        Some(c) => c.finish()?,
        None => Vec::new(),
    };
    Ok(Sampled { points, bursts })
}

/// Closed-loop throughput and server CPU per sample.
struct Steady {
    /// Samples per second at the reference core speed.
    samples_per_s: f64,
    /// Server CPU per sample at the reference core speed, ns.
    cpu_ns_per_sample: f64,
    /// Server CPU per sample as measured, ns.
    raw_cpu_ns_per_sample: f64,
    note: String,
}

/// One sampler interval of a closed-loop phase.
struct Interval {
    /// Share of the server's CPU time the hypervisor stole.
    stolen: f64,
    /// Samples per second at the reference core speed.
    rate: f64,
    /// Server CPU per sample on reference cores, ns.
    cpu_ns: f64,
    /// Samples per second as measured.
    raw_rate: f64,
    /// Server CPU per sample as measured, ns.
    raw_cpu_ns: f64,
    /// Mean speed of the CPUs the server ran on.
    speed: f64,
}

/// Throughput and server CPU per sample of a closed-loop phase between
/// `from` and `to`, at the reference core speed ([`crate::calib`]).
///
/// In each sampler interval, the server's CPU time on each CPU is
/// converted to reference-core time by that CPU's speed in the same
/// interval: user and kernel speed, weighted by the server's share of
/// system time over the whole phase. Throughput is divided by the
/// resulting mean speed, each CPU's share reduced by the time the
/// hypervisor stole from it (a reference core is never stolen from).
///
/// Both are medians over the intervals with the least steal: those with
/// none, or when fewer than a quarter have none, the quarter with the
/// least. A vCPU the hypervisor preempts stalls every chain of wake-ups
/// that needs it, which costs a closed loop far more than the time
/// taken: on `session_churn`, intervals with 10–20% stolen ran at half
/// the rate of their neighbours.
fn steady(sampled: &Sampled, from: Instant, to: Instant) -> Result<Steady, String> {
    let too_short = || "the closed-loop phase was too short to sample".to_string();
    let inside: Vec<&Point> = sampled
        .points
        .iter()
        .filter(|p| p.at >= from && p.at <= to)
        .collect();
    let (Some(first), Some(last)) = (inside.first(), inside.last()) else {
        return Err(too_short());
    };
    let (user, system) = (last.ticks.0 - first.ticks.0, last.ticks.1 - first.ticks.1);
    let sys_share = system as f64 / (user + system).max(1) as f64;
    let mut intervals = Vec::new();
    for w in inside.windows(2) {
        let ds = (w[1].samples - w[0].samples) as f64;
        let dt = (w[1].at - w[0].at).as_secs_f64();
        let (mut raw_ns, mut ref_ns, mut ref_available) = (0.0, 0.0, 0.0);
        for (&cpu, &total) in &w[1].cpu_ns {
            let ns = (total - w[0].cpu_ns.get(&cpu).copied().unwrap_or(0)) as f64;
            if ns == 0.0 {
                continue;
            }
            let (user, sys) = calib::speed(&sampled.bursts, cpu, w[0].at, w[1].at)
                .or_else(|| calib::speed(&sampled.bursts, cpu, from, to))
                .ok_or_else(|| format!("the server ran on CPU {cpu}, which was not calibrated"))?;
            let speed = (1.0 - sys_share) * user + sys_share * sys;
            let stolen = w[1].steal_ns.get(&cpu).copied().unwrap_or(0)
                - w[0].steal_ns.get(&cpu).copied().unwrap_or(0);
            let stolen = (stolen as f64 / 1e9 / dt).min(MAX_STOLEN);
            raw_ns += ns;
            ref_ns += ns * speed;
            ref_available += ns * speed * (1.0 - stolen);
        }
        if ds == 0.0 || raw_ns == 0.0 {
            continue;
        }
        intervals.push(Interval {
            stolen: 1.0 - ref_available / ref_ns,
            rate: ds / dt / (ref_available / raw_ns),
            cpu_ns: ref_ns / ds,
            raw_rate: ds / dt,
            raw_cpu_ns: raw_ns / ds,
            speed: ref_ns / raw_ns,
        });
    }
    let all_stolen = sorted(&intervals.iter().map(|i| i.stolen).collect::<Vec<_>>());
    let limit = *all_stolen.get(all_stolen.len() / 4).ok_or_else(too_short)?;
    let kept: Vec<&Interval> = intervals.iter().filter(|i| i.stolen <= limit).collect();
    let values = |f: fn(&Interval) -> f64| kept.iter().map(|i| f(i)).collect::<Vec<f64>>();
    let med = |f: fn(&Interval) -> f64| median(&values(f)).expect("at least one interval is kept");
    let spread = |f: fn(&Interval) -> f64| {
        quartiles(&values(f)).map_or(f64::NAN, |[q1, m, q3]| 100.0 * (q3 - q1) / m)
    };
    let note = format!(
        "closed loop: medians over the {} of {} intervals with at most {:.1}% stolen \
         (median {:.1}% over all); core speed {:.3} of the reference (system share {:.0}%); \
         as measured {:.0} samples/s and {:.4} us per sample (interquartile spread {:.1}% \
         and {:.1}%; calibrated {:.1}% and {:.1}%)",
        kept.len(),
        intervals.len(),
        100.0 * limit,
        100.0 * median(&all_stolen).expect("intervals exist"),
        med(|i| i.speed),
        100.0 * sys_share,
        med(|i| i.raw_rate),
        med(|i| i.raw_cpu_ns) / 1e3,
        spread(|i| i.raw_rate),
        spread(|i| i.raw_cpu_ns),
        spread(|i| i.rate),
        spread(|i| i.cpu_ns),
    );
    Ok(Steady {
        samples_per_s: med(|i| i.rate),
        cpu_ns_per_sample: med(|i| i.cpu_ns),
        raw_cpu_ns_per_sample: med(|i| i.raw_cpu_ns),
        note,
    })
}

fn server_run(
    cfg: &Config,
    inputs: &Inputs,
    seconds: f64,
    phase_a: PhaseA,
) -> Result<ServerRun, String> {
    let w = inputs.workload;
    fs::create_dir_all(&cfg.work_dir).map_err(io_err("work dir"))?;
    let query = cfg
        .work_dir
        .join(format!("query-{}-{}.csv", std::process::id(), w.name));
    fs::write(&query, inputs.query_csv()).map_err(io_err("query file"))?;

    let setups = if cfg.smoke { SMOKE_SETUPS } else { SETUPS };
    let mut pinger = Pinger::start().map_err(io_err("pinger"))?;
    let mut setup_s = Vec::new();
    // Each set-up is timed together with the host's speed just before.
    let mut timed_set_up = || {
        thread::sleep(SETUP_PAUSE);
        let speed = pinger.speed().map_err(io_err("pinger"))?;
        let (server, sessions, secs) = set_up(cfg, inputs, &query).map_err(io_err("set-up"))?;
        setup_s.push((secs, speed));
        Ok::<_, String>((server, sessions))
    };
    let mut kept = None;
    for _ in 0..setups / 2 {
        // The previous one is dropped: one server runs at a time.
        kept = Some(timed_set_up()?);
    }
    let (server, sessions) = kept.expect("at least one set-up before the load");
    check_build(&server)?;

    let me = std::process::id();
    let self_cpu0 = procfs::cpu_ns(me).map_err(io_err("/proc"))?;
    let load_t0 = Instant::now();
    let mut run = if w.churn {
        churn(&server, inputs, sessions, seconds)?
    } else {
        streams(&server, inputs, sessions, seconds, phase_a)?
    };
    let self_cpu = procfs::cpu_ns(me).map_err(io_err("/proc"))? - self_cpu0;
    run.loadgen_cpu_share = self_cpu as f64 / 1e9 / load_t0.elapsed().as_secs_f64();
    run.scrape = Exposition::from_http(&server.scrape().map_err(io_err("scrape"))?)?;
    run.rss_bytes = procfs::peak_rss_bytes(server.pid()).map_err(io_err("/proc"))?;
    drop(server);
    for _ in setups / 2..setups {
        timed_set_up()?;
    }
    let _ = fs::remove_file(&query);
    run.setup_s = setup_s;
    Ok(run)
}

/// Phase A (open loop, see [`PhaseA`]) then phase B (closed loop, the
/// rest of `seconds`) on both long-lived connections.
fn streams(
    server: &Server,
    inputs: &Inputs,
    sessions: Vec<Session>,
    seconds: f64,
    phase_a: PhaseA,
) -> Result<ServerRun, String> {
    let w: &Workload = inputs.workload;
    let phase_b = Duration::from_secs_f64(seconds * (1.0 - phase_a.share));
    let progress: Vec<AtomicU64> = (0..STREAMS).map(|_| AtomicU64::new(0)).collect();
    let plans: Vec<StreamPlan> = inputs
        .blocks
        .iter()
        .zip(&inputs.expected)
        .zip(&progress)
        .map(|((block, e), progress)| {
            let blocks_a = phase_a.blocks(
                seconds,
                w.phase_a_rate,
                block.len(),
                e.per_block.len() as u64,
            );
            StreamPlan {
                block,
                rate: w.phase_a_rate,
                phase_a_samples: blocks_a * block.len(),
                phase_a_matches: blocks_a * e.per_block.len() as u64,
                phase_b,
                progress,
            }
        })
        .collect();
    let pid = server.pid();
    let b_start: OnceLock<Instant> = OnceLock::new();
    let (runs, sampled) = thread::scope(|s| {
        let generator = s.spawn(|| {
            load::drive_streams(sessions, &plans, || {
                let _ = b_start.set(Instant::now());
            })
        });
        let sampled = sample(
            pid,
            &progress,
            phase_b / 40,
            (w.m, w.queries),
            || b_start.get().is_some(),
            || generator.is_finished(),
        );
        (generator.join().expect("generator thread"), sampled)
    });
    let sampled = sampled.map_err(io_err("sampler"))?;
    let b_start = *b_start.get().expect("the generator records phase B");

    let mut run = ServerRun::default();
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    let mut write_end: Option<Instant> = None;
    for (k, (r, plan)) in runs.iter().zip(&plans).enumerate() {
        let verdict = verify(&r.transcript, &inputs.expected[k], r.sent);
        run.attempted += r.sent + verdict.expected_matches + 1;
        run.failed += verdict.failed(r.sent);
        if let Some(e) = &r.error {
            run.notes.push(format!("stream {k}: {e}"));
        }
        if verdict.failed(r.sent) > 0 {
            run.notes.push(format!("stream {k}: {verdict:?}"));
        }
        run.all_samples += verdict.done.map_or(0, |(_, t)| t.min(r.sent));
        write_end = match (write_end, r.write_end) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        latencies.extend_from_slice(&r.latencies);
        lateness.extend_from_slice(&r.lateness_ms);
        run.notes.push(format!(
            "stream {k}: {} samples ({} in phase A at {} samples/s), {} matches; \
             per block of {}: {} plants, {} reference matches",
            r.sent,
            plan.phase_a_samples,
            plan.rate,
            verdict.match_lines,
            plan.block.len(),
            plan.block.plants,
            inputs.expected[k].per_block.len()
        ));
    }
    let write_end = write_end.ok_or("phase B never finished writing")?;
    run.set_steady(steady(&sampled, b_start + phase_b / 10, write_end)?);
    run.match_ms = latencies.iter().map(|l| l.1).collect();
    run.late_p99_ms = tail_percentile(&sorted(&lateness), 99).unwrap_or(f64::NAN);
    run.backlog_ratio = backlog_ratio(latencies);
    Ok(run)
}

/// `SESSIONS_PER_SECOND × seconds` back-to-back sessions over both
/// threads.
fn churn(
    server: &Server,
    inputs: &Inputs,
    sessions: Vec<Session>,
    seconds: f64,
) -> Result<ServerRun, String> {
    let mut run = ServerRun::default();
    for (k, session) in sessions.into_iter().enumerate() {
        run.attempted += 1;
        let transcript = load::close_idle(session).map_err(io_err("set-up session"))?;
        if transcript != "done 0 match(es) over 0 ticks\n" {
            run.failed += 1;
            run.notes
                .push(format!("set-up session {k} ended with `{transcript}`"));
        }
    }
    let pid = server.pid();
    let addr = server.addr();
    let per_thread = ((SESSIONS_PER_SECOND * seconds / STREAMS as f64).round() as u64).max(1);
    // The sessions take about half of `seconds` on the reference box;
    // the sampler's grain follows that.
    let phase = Duration::from_secs_f64(seconds / 2.0);
    let progress: Vec<AtomicU64> = (0..STREAMS).map(|_| AtomicU64::new(0)).collect();
    let origin = Instant::now();
    let (runs, sampled) = thread::scope(|s| {
        let handles: Vec<_> = progress
            .iter()
            .enumerate()
            .map(|(k, progress)| {
                let plan = ChurnPlan {
                    blocks: &inputs.blocks,
                    expected: &inputs.expected,
                    first: k,
                    stride: STREAMS,
                    sessions: per_thread,
                    progress,
                };
                s.spawn(move || load::drive_churn(addr, &plan, origin))
            })
            .collect();
        let sampled = sample(
            pid,
            &progress,
            phase / 40,
            (inputs.workload.m, inputs.workload.queries),
            || true,
            || handles.iter().all(|h| h.is_finished()),
        );
        let runs: Vec<ChurnRun> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect();
        (runs, sampled)
    });
    let sampled = sampled.map_err(io_err("sampler"))?;
    let mut sessions_ms = Vec::new();
    let mut total_sessions = 0;
    for r in &runs {
        run.attempted += r.attempted;
        run.failed += r.failed;
        run.all_samples += r.samples;
        run.match_ms.extend_from_slice(&r.match_ms);
        sessions_ms.extend_from_slice(&r.session_ms);
        total_sessions += r.sessions;
        if let Some(e) = &r.first_error {
            run.notes.push(e.clone());
        }
    }
    // Both threads are busy until the first one runs out of sessions.
    let end = runs
        .iter()
        .filter_map(|r| r.finished)
        .min()
        .ok_or("no churn thread finished")?;
    run.notes.push(format!("{total_sessions} sessions"));
    run.set_steady(steady(&sampled, origin + phase / 10, end)?);
    run.session_ms = sessions_ms.iter().map(|s| s.1).collect();
    run.backlog_ratio = backlog_ratio(sessions_ms);
    // Closed loop: nothing is ever due, so the generator is never late.
    run.late_p99_ms = 0.0;
    Ok(run)
}

/// A percentile that must have ten samples beyond it. Under `--smoke`
/// a short sample falls back to its maximum, flagged in the notes.
fn tail(out: &mut Outcome, smoke: bool, what: &str, values: &[f64], percent: usize) -> f64 {
    let s = sorted(values);
    match tail_percentile(&s, percent) {
        Some(v) => v,
        None if smoke && !s.is_empty() => {
            out.notes.push(format!(
                "{what} p{percent}: {} samples, max reported",
                s.len()
            ));
            s[s.len() - 1]
        }
        None => {
            out.problems.push(format!(
                "{what}: {} samples are too few for p{percent} (ten must lie beyond it)",
                s.len()
            ));
            f64::NAN
        }
    }
}

/// A run that could not measure: not correct, no metrics.
fn failed(problem: String) -> Outcome {
    Outcome {
        attempted: 1,
        problems: vec![problem],
        ..Outcome::default()
    }
}

/// Runs the server on `inputs`; a failure becomes a run that is not
/// correct and reports no metrics.
fn measure(
    inputs: &Inputs,
    cfg: &Config,
    seconds: f64,
    mut phase_a: PhaseA,
) -> Result<(ServerRun, Outcome), Outcome> {
    if cfg.smoke {
        // A smoke run reports the maximum when a tail is short.
        phase_a.min_matches = 0;
    }
    let run = server_run(cfg, inputs, seconds, phase_a).map_err(failed)?;
    let mut out = Outcome {
        attempted: run.attempted,
        failed: run.failed,
        ..Outcome::default()
    };
    if run.backlog_ratio > BACKLOG_LIMIT {
        out.notes.push(format!(
            "warning: latency grew {:.2}x over the phase (backlog); the open-loop rate is not sustainable here",
            run.backlog_ratio
        ));
    }
    let restarts = run
        .scrape
        .value("spring_worker_restarts_total")
        .unwrap_or(0.0);
    if restarts != 0.0 {
        out.problems.push(format!("{restarts} worker restarts"));
    }
    out.notes.extend(run.notes.iter().cloned());
    Ok((run, out))
}

/// The untraced run: every end-to-end metric.
pub fn untraced(w: &'static Workload, cfg: &Config) -> Outcome {
    let inputs = match Inputs::generate(w, cfg.seed, cfg.smoke) {
        Ok(i) => i,
        Err(e) => return failed(format!("inputs: {e}")),
    };
    let (run, mut out) = match measure(&inputs, cfg, cfg.seconds, UNTRACED_PHASE_A) {
        Ok(m) => m,
        Err(o) => return o,
    };
    let t = &END_TO_END;
    let at_reference: Vec<f64> = run.setup_s.iter().map(|(s, speed)| s * speed).collect();
    out.push(t, "setup_s", median(&at_reference).unwrap_or(f64::NAN));
    let (walls, speeds): (Vec<f64>, Vec<f64>) = run.setup_s.iter().copied().unzip();
    out.notes.push(format!(
        "set-up: {} times, median {:.4} ms as measured, host speed {:.3} of the reference",
        walls.len(),
        median(&walls).unwrap_or(f64::NAN) * 1e3,
        median(&speeds).unwrap_or(f64::NAN)
    ));
    out.push(t, "samples_per_s", run.samples_per_s);
    out.push(t, "cpu_us_per_sample", run.cpu_ns_per_sample / 1e3);
    out.push(t, "rss_peak_mb", run.rss_bytes as f64 / (1 << 20) as f64);
    let s = sorted(&run.match_ms);
    out.notes.push(format!(
        "match latency over {} matches: p50 {:.4} ms, p99 {:.4} ms",
        s.len(),
        tail_percentile(&s, 50).unwrap_or(f64::NAN),
        tail_percentile(&s, 99).unwrap_or(f64::NAN)
    ));
    if w.churn {
        let s = sorted(&run.session_ms);
        out.notes.push(format!(
            "session latency over {} sessions: p50 {:.4} ms, p99 {:.4} ms",
            s.len(),
            tail_percentile(&s, 50).unwrap_or(f64::NAN),
            tail_percentile(&s, 99).unwrap_or(f64::NAN)
        ));
    }
    out.notes.push(format!(
        "loadgen: late p99 {:.4} ms, backlog ratio {:.3}, cpu share {:.3}",
        run.late_p99_ms, run.backlog_ratio, run.loadgen_cpu_share
    ));
    out
}

/// The traced run: a half-length untraced server run, weighted towards
/// phase A so its p99 has enough matches, for the scrape and the CPU
/// total; and the in-process layer replay for the other half, its
/// rounds split around the server run so that both see the host at
/// about the same speed. Every per-layer metric and the waterfall.
pub fn traced(w: &'static Workload, cfg: &Config, spans: &mut Spans, chunk: &mut u64) -> Outcome {
    let inputs = match Inputs::generate(w, cfg.seed, cfg.smoke) {
        Ok(i) => i,
        Err(e) => return failed(format!("inputs: {e}")),
    };
    let quarter = Duration::from_secs_f64(cfg.seconds / 4.0);
    let min_rounds = if cfg.smoke { 1 } else { 2 };
    let mut rounds = match layers::replay(&inputs, quarter, min_rounds, spans, chunk) {
        Ok(r) => r,
        Err(e) => return failed(format!("replay: {e}")),
    };
    let (run, mut out) = match measure(&inputs, cfg, cfg.seconds / 2.0, TRACED_PHASE_A) {
        Ok(m) => m,
        Err(o) => return o,
    };
    match layers::replay(&inputs, quarter, min_rounds, spans, chunk) {
        Ok(r) => rounds.extend(r),
        Err(e) => {
            out.problems.push(format!("replay: {e}"));
            return out;
        }
    }
    let costs = layers::median_costs(&rounds);
    let fall = Waterfall::new(&costs, run.raw_cpu_ns_per_sample / 1e3);
    if !fall.reconciles(WATERFALL_TOLERANCE) {
        out.notes.push(format!(
            "warning: the waterfall's measured rows exceed the untraced {:.1} ns per sample by more than {:.0}%",
            fall.total,
            WATERFALL_TOLERANCE * 100.0
        ));
    }
    out.waterfall = Some(fall.render(w.name));
    let s = &run.scrape;
    let get = |name: &str| s.value(name).unwrap_or(f64::NAN);
    let shard_ticks = s.values("spring_shard_ticks_total");
    let shard_mean = shard_ticks.iter().sum::<f64>() / shard_ticks.len().max(1) as f64;
    let shard_max = shard_ticks.iter().copied().fold(0.0, f64::max);
    let t = &PER_LAYER;
    out.push(t, "proto.feed_ns_per_sample", costs.proto_feed_ns);
    out.push(t, "proto.format_ns_per_match", costs.format_ns);
    out.push(t, "runner.push_ns_per_sample", costs.runner_push_ns);
    out.push(
        t,
        "runner.push_batch_ns_per_sample",
        costs.runner_push_batch_ns,
    );
    out.push(t, "runner.cpu_ns_per_sample", costs.runner_cpu_ns);
    out.push(t, "runner.self_ns_per_sample", fall.runner_self);
    out.push(t, "runner.attach_us", costs.attach_us);
    out.push(t, "runner.detach_us", costs.detach_us);
    out.push(t, "runner.sync_us", costs.sync_us);
    out.push(
        t,
        "runner.frame_len_mean",
        get("spring_batch_len_sum") / get("spring_batch_len_count"),
    );
    out.push(t, "runner.shard_skew", shard_max / shard_mean);
    out.push(t, "runner.restarts", get("spring_worker_restarts_total"));
    out.push(
        t,
        "engine.push_batch_ns_per_sample",
        costs.engine_push_batch_ns,
    );
    out.push(t, "engine.self_ns_per_sample", fall.engine_self);
    out.push(t, "kernel.step_ns_per_sample", costs.kernel_step_ns);
    out.push(
        t,
        "kernel.step_batch_ns_per_sample",
        costs.kernel_step_batch_ns,
    );
    out.push(
        t,
        "kernel.cells_per_ns",
        (w.m * w.queries) as f64 / costs.kernel_step_ns,
    );
    out.push(
        t,
        "kernel.steps_per_match",
        get("spring_ticks_total") / get("spring_matches_total"),
    );
    out.push(t, "arena.intern_us", costs.intern_us);
    out.push(
        t,
        "serve.read_bytes_per_sample",
        get("spring_conn_read_bytes_total") / run.all_samples.max(1) as f64,
    );
    out.push(t, "serve.self_ns_per_sample", fall.serve_self);
    let p50 = tail(&mut out, cfg.smoke, "match latency", &run.match_ms, 50);
    out.push(t, "match_p50_ms", p50);
    let p99 = tail(&mut out, cfg.smoke, "match latency", &run.match_ms, 99);
    out.push(t, "match_p99_ms", p99);
    out.push(t, "loadgen.late_p99_ms", run.late_p99_ms);
    out.push(t, "loadgen.backlog_ratio", run.backlog_ratio);
    out.push(t, "loadgen.cpu_share", run.loadgen_cpu_share);
    out.notes.push(format!(
        "untraced CPU per sample in this run: {:.4} us as measured (the waterfall's total), \
         {:.4} us at the reference core speed",
        run.raw_cpu_ns_per_sample / 1e3,
        run.cpu_ns_per_sample / 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// Two CPUs, one at half the reference speed and one at the
    /// reference speed, each giving the server 0.1 s of CPU per 0.2 s
    /// interval while it finishes 1000 samples.
    #[test]
    fn steady_converts_each_cpus_time_by_its_speed_and_steal() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let points: Vec<Point> = (0..4u64)
            .map(|i| Point {
                at: at(200 * i),
                samples: 1000 * i,
                cpu_ns: BTreeMap::from([(0, 100_000_000 * i), (1, 100_000_000 * i)]),
                ticks: (20 * i, 0),
                // The hypervisor takes a fifth of every interval from CPU 1.
                steal_ns: BTreeMap::from([(0, 0), (1, 40_000_000 * i)]),
            })
            .collect();
        let bursts: Vec<Burst> = (1..60u64)
            .flat_map(|i| {
                [(0, 0.5), (1, 1.0)].map(|(cpu, speed)| Burst {
                    cpu,
                    at: at(10 * i),
                    user: speed,
                    sys: 1.0,
                })
            })
            .collect();
        let s = steady(&Sampled { points, bursts }, t0, at(600)).expect("steady");
        // As measured: 0.2 s of CPU per 1000 samples, 5000 samples/s.
        assert!((s.raw_cpu_ns_per_sample - 200_000.0).abs() < 1e-6);
        // On reference cores the same work takes 0.05 + 0.1 s; with
        // nothing stolen, the server would finish it in 0.05 + 0.08 s of
        // the 0.2 s it had.
        assert!((s.cpu_ns_per_sample - 150_000.0).abs() < 1e-6);
        assert!((s.samples_per_s - 5000.0 / 0.65).abs() < 1e-6);
    }

    /// Eight 0.1 s intervals on one reference-speed CPU: three with
    /// nothing stolen at 5000 samples/s, then five that lose a tenth of
    /// the CPU and half the rate.
    #[test]
    fn steady_keeps_only_the_intervals_with_the_least_steal() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let (mut samples, mut steal) = (0, 0);
        let points: Vec<Point> = (0..9u64)
            .map(|i| {
                if i > 3 {
                    (samples, steal) = (samples + 250, steal + 10_000_000);
                } else if i > 0 {
                    samples += 500;
                }
                Point {
                    at: at(100 * i),
                    samples,
                    cpu_ns: BTreeMap::from([(0, 50_000_000 * i)]),
                    ticks: (5 * i, 0),
                    steal_ns: BTreeMap::from([(0, steal)]),
                }
            })
            .collect();
        let bursts: Vec<Burst> = (1..90u64)
            .map(|i| Burst {
                cpu: 0,
                at: at(10 * i),
                user: 1.0,
                sys: 1.0,
            })
            .collect();
        let s = steady(&Sampled { points, bursts }, t0, at(900)).expect("steady");
        assert!(
            (s.samples_per_s - 5000.0).abs() < 1e-6,
            "{}",
            s.samples_per_s
        );
        assert!((s.cpu_ns_per_sample - 100_000.0).abs() < 1e-6);
    }

    /// The traced server run lasts half of the default 20 s. Whatever
    /// share of the plants become matches, its phase A has enough of
    /// them for a p99.
    #[test]
    fn traced_phase_a_yields_a_p99_on_every_stream_workload() {
        for w in WORKLOADS.iter().filter(|w| !w.churn) {
            let plants = (w.block_len / w.plant_every) as u64;
            for block_matches in [1, plants / 2, plants] {
                let blocks =
                    TRACED_PHASE_A.blocks(10.0, w.phase_a_rate, w.block_len as u64, block_matches);
                let matches = STREAMS as u64 * blocks * block_matches;
                let latencies = vec![0.0; matches as usize];
                assert!(
                    tail_percentile(&latencies, 99).is_some(),
                    "{}: {matches} matches",
                    w.name
                );
            }
        }
    }
}
