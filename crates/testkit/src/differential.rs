//! Differential oracle fuzzing across every Monitor variant and every
//! deployment layer.
//!
//! For each seeded [`Scenario`] the harness runs every [`MonitorSpec`]
//! variant through three code paths —
//!
//! 1. a **bare monitor** stepped by hand (gap policy applied inline),
//! 2. the single-threaded [`MixedEngine`], per-sample **and** batched
//!    (`push_batch` with batch sizes 1, 3, and 64),
//! 3. the threaded [`Runner`] with 1, 2, and 4 workers × frame sizes
//!    1, 3, and 64, carrying *three* streams that each hold the full
//!    scenario (one fed per sample through `push`, two through
//!    `push_batch`) — so stream placement, per-worker buffers, and
//!    cross-worker error precedence are all exercised,
//!
//! — and demands bit-identical match streams from all of them. On top of
//! the cross-layer equality, variant-specific **oracle checks** compare
//! the reports against the paper's guarantees using [`NaiveMonitor`] and
//! the Super-Naive [`all_subsequence_distances`] ground truth:
//!
//! * reported distances never understate the true DTW of their range
//!   (recomputed by [`dtw_distance`]; post-reset reports may
//!   legitimately overstate it, but stay `≤ ε`),
//! * reports respect `d ≤ ε` and are pairwise disjoint (Problem 2),
//! * no false dismissals: every qualifying subsequence is dominated by a
//!   report active in its time window, and the global optimum is
//!   captured exactly,
//! * [`BestMatch`](spring_core::BestMatch) equals the naive best.
//!
//! A mismatch is **shrunk** (halving the stream, dropping endpoints,
//! truncating the query, rounding values) to the smallest scenario that
//! still fails, and returned as a [`Failure`] whose `Display` form is a
//! replayable report.

use std::fmt;
use std::sync::Arc;

use spring_core::monitor::{Monitor, MonitorSpec, ScalarMonitor};
use spring_core::naive::all_subsequence_distances;
use spring_core::{Match, NaiveMonitor};
use spring_dtw::{dtw_distance, Kernel, Squared};
use spring_monitor::{
    GapPolicy, MixedEngine, MonitorError, QueryId, Runner, RunnerAttachment, StreamId, VecSink,
};
use spring_util::Rng;

use crate::scenario::Scenario;

/// Worker counts exercised for every scenario.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Frame sizes exercised on the hot-swap path: the per-sample
/// degenerate and the production default (a smaller cross product than
/// [`BATCH_SIZES`], which the plain runner path already sweeps).
pub const SWAP_BATCHES: [usize; 2] = [1, 64];

/// Streams fed through the runner, each carrying the full scenario
/// stream, so several workers see real traffic and the cross-worker
/// error precedence is exercised.
const N_STREAMS: u32 = 3;

/// Batch sizes exercised for every scenario on the batched ingestion
/// paths (`Engine::push_batch` / `Runner::push_batch`): the degenerate
/// per-sample frame, a small odd size that never divides the stream
/// evenly (forcing ragged tails), and the production default.
pub const BATCH_SIZES: [usize; 3] = [1, 3, 64];

/// Fixed fallback seed used by `spring fuzz` and local CI runs when no
/// seed is supplied, so local failures are immediately reproducible.
pub const DEFAULT_FUZZ_SEED: u64 = 0x5EED_CAFE;

/// Attachments per runner stream (distinct query ids).
const N_ATTACH: usize = 3;

/// Absolute tolerance for distance comparisons between independently
/// computed DTW values (the cross-layer equality itself is exact).
const TOL: f64 = 1e-9;

/// The monitor variants exercised for a scenario, derived from its
/// threshold and query length.
pub fn specs_for(sc: &Scenario) -> Vec<MonitorSpec> {
    let m = sc.query.len() as u64;
    vec![
        MonitorSpec::Spring {
            epsilon: sc.epsilon,
        },
        MonitorSpec::Best,
        MonitorSpec::Path {
            epsilon: sc.epsilon,
        },
        MonitorSpec::Bounded {
            epsilon: sc.epsilon,
            min_len: 1,
            max_len: 2 * m + 4,
        },
        MonitorSpec::Normalized {
            epsilon: sc.epsilon,
            window: (sc.query.len() + 1).max(2),
        },
        MonitorSpec::SlopeLimited {
            epsilon: sc.epsilon,
            max_run: 3,
        },
    ]
}

/// Steps `monitor` through the scenario's stream with the scenario's gap
/// policy applied inline — the reference (bare) code path.
pub fn run_monitor<M: Monitor<Sample = f64>>(
    sc: &Scenario,
    monitor: &mut M,
) -> Result<Vec<Match>, MonitorError> {
    run_monitor_inner(sc, monitor, true)
}

fn run_monitor_inner<M: Monitor<Sample = f64>>(
    sc: &Scenario,
    monitor: &mut M,
    finish: bool,
) -> Result<Vec<Match>, MonitorError> {
    let mut out = Vec::new();
    let mut last: Option<f64> = None;
    for (i, &x) in sc.stream.iter().enumerate() {
        let v = if x.is_nan() {
            match sc.gap_policy {
                GapPolicy::Skip => continue,
                GapPolicy::CarryForward => match last {
                    Some(l) => l,
                    None => continue,
                },
                GapPolicy::Fail => {
                    return Err(MonitorError::MissingSample {
                        stream: StreamId(0),
                        tick: i as u64 + 1,
                    })
                }
            }
        } else {
            last = Some(x);
            x
        };
        if let Some(m) = monitor.step(&v).map_err(MonitorError::Spring)? {
            out.push(m);
        }
    }
    if finish {
        out.extend(monitor.finish());
    }
    Ok(out)
}

/// Runs `spec` over the scenario as a bare monitor.
pub fn run_bare(sc: &Scenario, spec: MonitorSpec) -> Result<Vec<Match>, MonitorError> {
    let mut monitor = spec.build(&sc.query, Kernel::Squared)?;
    run_monitor(sc, &mut monitor)
}

/// Runs `spec` over the scenario through the single-threaded engine.
pub fn run_engine(sc: &Scenario, spec: MonitorSpec) -> Result<Vec<Match>, MonitorError> {
    let mut engine = MixedEngine::new();
    let s = engine.add_stream("s");
    let q = engine.add_query("q", sc.query.clone())?;
    engine.attach_spec(s, q, spec, sc.gap_policy)?;
    let mut out = Vec::new();
    for &x in &sc.stream {
        out.extend(engine.push(s, &x)?.into_iter().map(|e| e.m));
    }
    out.extend(engine.finish_stream(s)?.into_iter().map(|e| e.m));
    Ok(out)
}

/// Runs `spec` over the scenario through the engine's batched ingestion
/// path, chunking the raw stream (gaps included — the gap policy is
/// applied per attachment inside the engine) into `batch`-sized slices
/// through [`MixedEngine::push_batch`] with a caller-owned event buffer.
pub fn run_engine_batched(
    sc: &Scenario,
    spec: MonitorSpec,
    batch: usize,
) -> Result<Vec<Match>, MonitorError> {
    let mut engine = MixedEngine::new();
    let s = engine.add_stream("s");
    let q = engine.add_query("q", sc.query.clone())?;
    engine.attach_spec(s, q, spec, sc.gap_policy)?;
    let mut out = Vec::new();
    let mut events = Vec::new();
    for chunk in sc.stream.chunks(batch.max(1)) {
        events.clear();
        engine.push_batch(s, chunk, &mut events)?;
        out.extend(events.drain(..).map(|e| e.m));
    }
    out.extend(engine.finish_stream(s)?.into_iter().map(|e| e.m));
    Ok(out)
}

/// Spawns a runner over `workers` workers with `N_STREAMS` streams of
/// `N_ATTACH` attachments each (built by `attach(stream, query)`) and
/// the frame size pinned to `batch`.
fn spawn_runner(
    workers: usize,
    batch: usize,
    attach: impl Fn(u32, u32) -> Result<RunnerAttachment<ScalarMonitor>, MonitorError>,
) -> Result<(Runner<ScalarMonitor>, Arc<VecSink>), MonitorError> {
    let mut attachments = Vec::with_capacity(N_STREAMS as usize * N_ATTACH);
    for s in 0..N_STREAMS {
        for k in 0..N_ATTACH as u32 {
            attachments.push(attach(s, k)?);
        }
    }
    let sink = Arc::new(VecSink::new());
    let mut runner = Runner::spawn(attachments, workers, sink.clone())?;
    runner.set_max_batch(batch);
    Ok((runner, sink))
}

/// Pushes `samples` to every stream in `batch`-sized chunks, round-robin
/// so the workers interleave: stream 0 one sample at a time through
/// [`Runner::push`], the others whole chunks through
/// [`Runner::push_batch`].
fn feed(runner: &Runner<ScalarMonitor>, samples: &[f64], batch: usize) -> Result<(), MonitorError> {
    for chunk in samples.chunks(batch.max(1)) {
        for x in chunk {
            runner.push(StreamId(0), x)?;
        }
        for s in 1..N_STREAMS {
            runner.push_batch(StreamId(s), chunk)?;
        }
    }
    Ok(())
}

/// Finishes every stream after `fed`, shuts the runner down, and
/// returns every (stream, attachment) match stream separately.
fn collect(
    runner: Runner<ScalarMonitor>,
    sink: &VecSink,
    fed: Result<(), MonitorError>,
) -> Result<Vec<Vec<Match>>, MonitorError> {
    let fed = fed.and_then(|()| (0..N_STREAMS).try_for_each(|s| runner.finish_stream(StreamId(s))));
    // The recorded (lowest-ranked) worker error takes precedence over
    // the secondary WorkerLost a push may have observed.
    runner.shutdown()?;
    fed?;
    let mut per = vec![Vec::new(); N_STREAMS as usize * N_ATTACH];
    for e in sink.events() {
        per[e.stream.0 as usize * N_ATTACH + e.query.0 as usize].push(e.m);
    }
    Ok(per)
}

/// Runs `spec` over the scenario through a [`Runner`] of `workers`
/// workers with frame size `batch`: `N_STREAMS` streams (ids 0, 1, 2 —
/// hashed across the workers) each carry the full scenario stream and
/// hold `N_ATTACH` identical attachments. Returns every (stream,
/// attachment) match stream separately; all must agree with the bare
/// run, and a failing scenario must surface stream 0's error (the
/// lowest-ranked across workers — exactly the bare error).
pub fn run_runner(
    sc: &Scenario,
    spec: MonitorSpec,
    workers: usize,
    batch: usize,
) -> Result<Vec<Vec<Match>>, MonitorError> {
    let (runner, sink) = spawn_runner(workers, batch, |s, k| {
        let monitor = spec.build(&sc.query, Kernel::Squared)?;
        Ok(RunnerAttachment::new(
            StreamId(s),
            QueryId(k),
            monitor,
            sc.gap_policy,
        ))
    })?;
    let fed = feed(&runner, &sc.stream, batch);
    collect(runner, &sink, fed)
}

/// Query id targeted by the swap differential: the middle of the
/// `N_ATTACH` attachments, so every run checks both that the swapped
/// query follows the new pattern *and* that its neighbours (same
/// streams, same workers) are untouched.
const SWAPPED_QUERY: u32 = 1;

/// The bare reference for a hot-swapped attachment: the old-query
/// monitor over the prefix (no `finish` — [`Runner::swap_query`]
/// replaces the monitor, discarding its pending groups unreported),
/// then a freshly built new-query monitor over the suffix (with
/// `finish`). Tick numbering and gap carry-state restart at the swap
/// boundary, exactly like `Attachment::install`.
pub fn run_bare_swapped(
    sc: &Scenario,
    spec: MonitorSpec,
    new_query: &[f64],
    swap_at: usize,
) -> Result<Vec<Match>, MonitorError> {
    let swap_at = swap_at.min(sc.stream.len());
    let mut out = Vec::new();
    let prefix = Scenario {
        stream: sc.stream[..swap_at].to_vec(),
        ..sc.clone()
    };
    let mut old = spec.build(&sc.query, Kernel::Squared)?;
    out.extend(run_monitor_inner(&prefix, &mut old, false)?);
    let suffix = Scenario {
        stream: sc.stream[swap_at..].to_vec(),
        query: new_query.to_vec(),
        ..sc.clone()
    };
    let mut fresh = spec.build(new_query, Kernel::Squared)?;
    out.extend(run_monitor_inner(&suffix, &mut fresh, true)?);
    Ok(out)
}

/// Like [`run_runner`], but hot-swaps query `SWAPPED_QUERY` to
/// `new_query` after `swap_at` samples of every stream have been
/// pushed. The swap goes through [`Runner::swap_query`] — one control
/// message per owning worker, flushed to a frame boundary per stream —
/// while the other query ids keep running the original pattern.
pub fn run_runner_swapped(
    sc: &Scenario,
    spec: MonitorSpec,
    new_query: &[f64],
    swap_at: usize,
    workers: usize,
    batch: usize,
) -> Result<Vec<Vec<Match>>, MonitorError> {
    let (runner, sink) = spawn_runner(workers, batch, |s, k| {
        let monitor = spec.build(&sc.query, Kernel::Squared)?;
        Ok(
            RunnerAttachment::new(StreamId(s), QueryId(k), monitor, sc.gap_policy)
                .with_builder(move |q| spec.build(q, Kernel::Squared)),
        )
    })?;
    let (prefix, suffix) = sc.stream.split_at(swap_at.min(sc.stream.len()));
    let fed = feed(&runner, prefix, batch)
        .and_then(|()| runner.swap_query(QueryId(SWAPPED_QUERY), new_query))
        .and_then(|_| feed(&runner, suffix, batch));
    collect(runner, &sink, fed)
}

/// The swap differential for one scenario: across worker counts
/// [`WORKER_COUNTS`] × frame sizes [`SWAP_BATCHES`], the hot-swapped
/// query's match stream must equal the prefix-old/suffix-new bare
/// composition **exactly** (bit-identical distances), and every
/// untouched query must equal the plain full-stream bare run. Covers
/// the arena-backed variants (plain and z-normalized SPRING).
pub fn verify_swap(sc: &Scenario, new_query: &[f64], swap_at: usize) -> Result<(), String> {
    let specs = [
        MonitorSpec::Spring {
            epsilon: sc.epsilon,
        },
        MonitorSpec::Normalized {
            epsilon: sc.epsilon,
            window: (sc.query.len() + 1).max(2),
        },
    ];
    for spec in specs {
        let bare_full = run_bare(sc, spec);
        let bare_swapped = run_bare_swapped(sc, spec, new_query, swap_at);
        for workers in WORKER_COUNTS {
            for batch in SWAP_BATCHES {
                let label = format!("{spec:?}: swapped runner({workers} workers, batch {batch})");
                match run_runner_swapped(sc, spec, new_query, swap_at, workers, batch) {
                    Ok(per) => {
                        for (slot, ms) in per.iter().enumerate() {
                            let k = (slot % N_ATTACH) as u32;
                            let expect = if k == SWAPPED_QUERY {
                                &bare_swapped
                            } else {
                                &bare_full
                            };
                            let Ok(expect) = expect else {
                                return Err(format!(
                                    "{label} slot {slot} succeeded but bare errored: {}",
                                    fmt_matches(expect)
                                ));
                            };
                            if ms != expect {
                                return Err(format!(
                                    "{label} slot {slot} (query {k}) diverges\n  \
                                     bare:   {}\n  runner: {}",
                                    fmt_matches(&Ok(expect.clone())),
                                    fmt_matches(&Ok(ms.clone()))
                                ));
                            }
                        }
                    }
                    Err(e) => {
                        // An error run must mirror the earliest bare
                        // error (the swapped path sees it first only if
                        // the prefix already fails).
                        let expect = match (&bare_swapped, &bare_full) {
                            (Err(a), _) => Some(a),
                            (_, Err(b)) => Some(b),
                            _ => None,
                        };
                        if expect != Some(&e) {
                            return Err(format!(
                                "{label} errored with {e} but bare gave\n  \
                                 swapped: {}\n  full:    {}",
                                fmt_matches(&bare_swapped.clone()),
                                fmt_matches(&bare_full.clone())
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Runs `iters` seeded hot-swap scenarios through [`verify_swap`]: each
/// draws a scenario, a swap tick uniform over the stream (endpoints
/// included), and a mutated replacement pattern (reversed, rescaled,
/// shifted — same length, so every spec accepts it). `Fail` gap
/// scenarios are downgraded to `Skip`: a mid-stream error makes the
/// swap point unreachable, which is the plain fuzzer's territory.
pub fn fuzz_swaps(seed: u64, iters: u64) -> Result<u64, String> {
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..iters {
        let mut sc = Scenario::generate(&mut rng);
        if sc.gap_policy == GapPolicy::Fail {
            sc.gap_policy = GapPolicy::Skip;
        }
        let swap_at = rng.u64_below(sc.stream.len() as u64 + 1) as usize;
        let scale = 0.5 + rng.u64_below(8) as f64 * 0.25;
        let shift = rng.u64_below(11) as f64 - 5.0;
        let new_query: Vec<f64> = sc.query.iter().rev().map(|v| v * scale + shift).collect();
        verify_swap(&sc, &new_query, swap_at).map_err(|e| {
            format!(
                "swap differential mismatch (seed {seed}, iteration {i}, swap_at {swap_at}):\n\
                 {e}\n  new_query:  {new_query:?}\n  stream:     {:?}\n  query:      {:?}\n  \
                 epsilon:    {:?}\n  gap_policy: {:?}\n\
                 replay: spring fuzz --swap --seed {seed} --iters {}",
                sc.stream,
                sc.query,
                sc.epsilon,
                sc.gap_policy,
                i + 1
            )
        })?;
    }
    Ok(iters)
}

fn fmt_matches(out: &Result<Vec<Match>, MonitorError>) -> String {
    match out {
        Ok(ms) => format!(
            "{:?}",
            ms.iter()
                .map(|m| (m.start, m.end, m.distance))
                .collect::<Vec<_>>()
        ),
        Err(e) => format!("Err({e})"),
    }
}

/// Compares a single-match-stream run (engine paths) against the bare
/// reference, demanding exact match equality or exact error equality.
fn check_against_bare(
    bare: &Result<Vec<Match>, MonitorError>,
    other: &Result<Vec<Match>, MonitorError>,
    label: &str,
) -> Result<(), String> {
    let agree = match (bare, other) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if agree {
        Ok(())
    } else {
        Err(format!(
            "{label} diverges from bare monitor\n  bare:   {}\n  other:  {}",
            fmt_matches(bare),
            fmt_matches(other)
        ))
    }
}

/// Compares a per-attachment runner run against the bare reference:
/// every attachment's match stream must equal the bare run exactly, or
/// both sides must fail with the same error.
fn check_runner_against_bare(
    bare: &Result<Vec<Match>, MonitorError>,
    runner: Result<Vec<Vec<Match>>, MonitorError>,
    label: &str,
) -> Result<(), String> {
    match (runner, bare) {
        (Ok(per), Ok(b)) => {
            for (k, ms) in per.iter().enumerate() {
                if ms != b {
                    return Err(format!(
                        "{label} attachment {k} diverges\n  bare:   {}\n  runner: {}",
                        fmt_matches(bare),
                        fmt_matches(&Ok(ms.clone()))
                    ));
                }
            }
            Ok(())
        }
        (Err(a), Err(b)) if &a == b => Ok(()),
        (r, _) => {
            let r = r.map(|per| per.into_iter().flatten().collect::<Vec<_>>());
            Err(format!(
                "{label} error disagrees\n  bare:   {}\n  runner: {}",
                fmt_matches(bare),
                fmt_matches(&r)
            ))
        }
    }
}

/// Checks the cross-layer equality and variant oracle for one spec.
fn verify_spec(sc: &Scenario, spec: MonitorSpec) -> Result<(), String> {
    let bare = run_bare(sc, spec);
    check_against_bare(&bare, &run_engine(sc, spec), &format!("{spec:?}: engine"))?;
    for batch in BATCH_SIZES {
        check_against_bare(
            &bare,
            &run_engine_batched(sc, spec, batch),
            &format!("{spec:?}: engine(batch {batch})"),
        )?;
    }
    for workers in WORKER_COUNTS {
        for batch in BATCH_SIZES {
            check_runner_against_bare(
                &bare,
                run_runner(sc, spec, workers, batch),
                &format!("{spec:?}: runner({workers} workers, batch {batch})"),
            )?;
        }
    }
    if let Ok(reports) = &bare {
        match spec {
            MonitorSpec::Spring { .. } | MonitorSpec::Path { .. } => {
                check_spring_reports(sc, reports).map_err(|e| format!("{spec:?}: {e}"))?;
            }
            MonitorSpec::Best => {
                check_best_report(sc, reports).map_err(|e| format!("{spec:?}: {e}"))?;
            }
            MonitorSpec::Bounded {
                min_len, max_len, ..
            } => {
                check_thresholded(sc, reports, Some((min_len, max_len)))
                    .map_err(|e| format!("{spec:?}: {e}"))?;
            }
            MonitorSpec::SlopeLimited { .. } => {
                check_thresholded(sc, reports, None).map_err(|e| format!("{spec:?}: {e}"))?;
            }
            MonitorSpec::Normalized { .. } => {
                // Distances live in z-score space; only structural
                // guarantees apply.
                check_disjoint(reports)?;
            }
        }
    }
    Ok(())
}

fn check_disjoint(reports: &[Match]) -> Result<(), String> {
    for (i, a) in reports.iter().enumerate() {
        for b in &reports[i + 1..] {
            if a.overlaps(b) {
                return Err(format!("overlapping reports {a:?} and {b:?}"));
            }
        }
    }
    Ok(())
}

/// The full SPRING oracle: exact distances, `d ≤ ε`, disjointness, and
/// no false dismissals relative to both the naive monitor and the
/// Super-Naive enumeration. Public so mutated monitors (see
/// [`crate::broken`]) can be checked against it directly.
pub fn check_spring_reports(sc: &Scenario, reports: &[Match]) -> Result<(), String> {
    let eff = sc.effective_stream();
    let eps = sc.epsilon;
    for m in reports {
        if m.distance > eps + TOL {
            return Err(format!("report {m:?} exceeds epsilon {eps}"));
        }
        // After a report's reset, the merged matrix rebuilds from the
        // surviving (post-`t_e`-start) cells only, so a later report's
        // distance is an *upper bound* on the true DTW of its range —
        // still `≤ ε`, so the range genuinely qualifies. What must never
        // happen is an underestimate: a reported distance below the true
        // DTW would be a fabricated alignment.
        let exact = dtw_distance(&eff[m.range0()], &sc.query)
            .map_err(|e| format!("dtw_distance failed: {e}"))?;
        if m.distance < exact - TOL {
            return Err(format!(
                "report {m:?} understates the true DTW of its range (dtw = {exact})"
            ));
        }
    }
    check_disjoint(reports)?;

    // (b) no false dismissals, against the Super-Naive ground truth.
    //
    // SPRING's merged matrix deliberately discards a qualifying
    // subsequence when its DP cell is shadowed by a better-start path
    // that a report then retires — the paper's guarantee is not "every
    // qualifying subsequence is reported" but "every qualifying
    // subsequence is *accounted for*": it must temporally intersect the
    // active span of some report (`group_start ..= reported_at`, the
    // window in which that group's reset could have retired it) whose
    // captured optimum is at least as good. A genuinely dropped match —
    // one no report dominates in its own time window — fails this.
    let mut global_min = f64::INFINITY;
    for (ts, te, d) in all_subsequence_distances(&eff, &sc.query, Squared) {
        if d > eps {
            continue;
        }
        global_min = global_min.min(d);
        let accounted = reports
            .iter()
            .any(|r| ts <= r.reported_at && r.group_start <= te && r.distance <= d + TOL);
        if !accounted {
            return Err(format!(
                "qualifying subsequence X[{ts}:{te}] (d = {d}) is dominated by no report \
                 (false dismissal)"
            ));
        }
    }

    // (c) the global optimum is captured exactly by one of the reports:
    // nothing can shadow the best subsequence of the whole stream.
    if global_min.is_finite() {
        let best = reports
            .iter()
            .map(|r| r.distance)
            .fold(f64::INFINITY, f64::min);
        if best > global_min + TOL {
            return Err(format!(
                "best report ({best}) misses the global optimum ({global_min})"
            ));
        }
    }
    Ok(())
}

/// Best-match oracle: at most one report, flushed at end of stream, with
/// the naive best's distance (positions may tie-break differently on
/// coarse value grids, so only the distance is compared — plus an exact
/// recomputation at the reported positions).
fn check_best_report(sc: &Scenario, reports: &[Match]) -> Result<(), String> {
    if reports.len() > 1 {
        return Err(format!("best-match produced {} reports", reports.len()));
    }
    let eff = sc.effective_stream();
    let mut naive =
        NaiveMonitor::new(&sc.query, f64::MAX.sqrt()).map_err(|e| format!("naive: {e}"))?;
    for &x in &eff {
        naive.step(x);
    }
    match (reports.first(), naive.best()) {
        (None, None) => Ok(()),
        (Some(a), Some(b)) => {
            let exact = dtw_distance(&eff[a.range0()], &sc.query)
                .map_err(|e| format!("dtw_distance failed: {e}"))?;
            if (a.distance - exact).abs() > TOL {
                return Err(format!("best report {a:?} distance is not exact ({exact})"));
            }
            if (a.distance - b.distance).abs() > TOL {
                return Err(format!("best report {a:?} disagrees with naive best {b:?}"));
            }
            Ok(())
        }
        (a, b) => Err(format!("best report {a:?} vs naive best {b:?}")),
    }
}

/// Structural oracle for thresholded variants whose distances are
/// computed under extra path/length constraints: `d ≤ ε`, pairwise
/// disjoint, `d` no better than the unconstrained DTW of the reported
/// positions, and (for bounded) the length bounds.
fn check_thresholded(
    sc: &Scenario,
    reports: &[Match],
    bounds: Option<(u64, u64)>,
) -> Result<(), String> {
    let eff = sc.effective_stream();
    for m in reports {
        if m.distance > sc.epsilon + TOL {
            return Err(format!("report {m:?} exceeds epsilon {}", sc.epsilon));
        }
        let unconstrained = dtw_distance(&eff[m.range0()], &sc.query)
            .map_err(|e| format!("dtw_distance failed: {e}"))?;
        if m.distance < unconstrained - TOL {
            return Err(format!(
                "report {m:?} beats the unconstrained DTW ({unconstrained}) of its positions"
            ));
        }
        if let Some((lo, hi)) = bounds {
            if m.len() < lo || m.len() > hi {
                return Err(format!("report {m:?} violates length bounds [{lo}, {hi}]"));
            }
        }
    }
    check_disjoint(reports)
}

/// Runs the full differential check on one scenario.
pub fn verify(sc: &Scenario) -> Result<(), String> {
    for spec in specs_for(sc) {
        verify_spec(sc, spec)?;
    }
    Ok(())
}

/// A confirmed differential mismatch, with the smallest scenario the
/// shrinker could reduce it to. `Display` prints a replayable report.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Seed the fuzz run started from.
    pub seed: u64,
    /// 0-based iteration at which the mismatch was generated.
    pub iteration: u64,
    /// Mismatch description for the original scenario.
    pub message: String,
    /// The scenario as generated.
    pub scenario: Scenario,
    /// The smallest still-failing scenario found by shrinking.
    pub shrunk: Scenario,
    /// Mismatch description for the shrunk scenario.
    pub shrunk_message: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential mismatch (seed {}, iteration {}):",
            self.seed, self.iteration
        )?;
        writeln!(f, "  {}", self.shrunk_message.replace('\n', "\n  "))?;
        writeln!(f, "shrunk scenario:")?;
        writeln!(f, "  stream:     {:?}", self.shrunk.stream)?;
        writeln!(f, "  query:      {:?}", self.shrunk.query)?;
        writeln!(f, "  epsilon:    {:?}", self.shrunk.epsilon)?;
        writeln!(f, "  gap_policy: {:?}", self.shrunk.gap_policy)?;
        write!(
            f,
            "replay: spring fuzz --seed {} --iters {}",
            self.seed,
            self.iteration + 1
        )
    }
}

impl std::error::Error for Failure {}

fn rounded(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 2.0).round() / 2.0).collect()
}

/// Shrink candidates, most aggressive first.
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let n = sc.stream.len();
    if n > 1 {
        let mut push_stream = |stream: Vec<f64>| {
            out.push(Scenario {
                stream,
                ..sc.clone()
            })
        };
        push_stream(sc.stream[..n / 2].to_vec());
        push_stream(sc.stream[n / 2..].to_vec());
        push_stream(sc.stream[1..].to_vec());
        push_stream(sc.stream[..n - 1].to_vec());
    }
    if sc.query.len() > 1 {
        out.push(Scenario {
            query: sc.query[..sc.query.len() - 1].to_vec(),
            ..sc.clone()
        });
    }
    let r = rounded(&sc.stream);
    // NaN != NaN: compare via bit patterns so gaps survive rounding
    // without defeating the fixed-point test.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&r) != bits(&sc.stream) {
        out.push(Scenario {
            stream: r,
            ..sc.clone()
        });
    }
    let rq = rounded(&sc.query);
    if bits(&rq) != bits(&sc.query) {
        out.push(Scenario {
            query: rq,
            ..sc.clone()
        });
    }
    out
}

/// Greedily shrinks a failing scenario: repeatedly applies the first
/// candidate transformation that still fails [`verify`], until none do.
pub fn shrink(mut sc: Scenario) -> Scenario {
    loop {
        let Some(next) = candidates(&sc).into_iter().find(|c| verify(c).is_err()) else {
            return sc;
        };
        sc = next;
    }
}

/// Runs `iters` seeded scenarios through [`verify`]; on the first
/// mismatch, shrinks it and returns the [`Failure`]. `Ok` carries the
/// number of scenarios checked.
pub fn fuzz(seed: u64, iters: u64) -> Result<u64, Box<Failure>> {
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..iters {
        let sc = Scenario::generate(&mut rng);
        if let Err(message) = verify(&sc) {
            let shrunk = shrink(sc.clone());
            let shrunk_message = verify(&shrunk).err().unwrap_or_else(|| message.clone());
            return Err(Box::new(Failure {
                seed,
                iteration: i,
                message,
                scenario: sc,
                shrunk,
                shrunk_message,
            }));
        }
    }
    Ok(iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spike_scenario() -> Scenario {
        let mut stream = vec![50.0; 30];
        for s in [4usize, 20] {
            stream[s] = 0.0;
            stream[s + 1] = 10.0;
            stream[s + 2] = 0.0;
        }
        Scenario {
            stream,
            query: vec![0.0, 10.0, 0.0],
            epsilon: 1.0,
            gap_policy: GapPolicy::Skip,
        }
    }

    #[test]
    fn all_layers_agree_on_a_spike_scenario() {
        verify(&spike_scenario()).unwrap();
    }

    #[test]
    fn bare_run_reports_both_spikes() {
        let sc = spike_scenario();
        let out = run_bare(
            &sc,
            MonitorSpec::Spring {
                epsilon: sc.epsilon,
            },
        )
        .unwrap();
        let starts: Vec<u64> = out.iter().map(|m| m.start).collect();
        assert_eq!(starts, vec![5, 21]);
    }

    #[test]
    fn fail_policy_with_gaps_errors_identically_across_layers() {
        let mut sc = spike_scenario();
        sc.stream[10] = f64::NAN;
        sc.gap_policy = GapPolicy::Fail;
        let spec = MonitorSpec::Spring {
            epsilon: sc.epsilon,
        };
        let bare = run_bare(&sc, spec).unwrap_err();
        assert_eq!(
            bare,
            MonitorError::MissingSample {
                stream: StreamId(0),
                tick: 11
            }
        );
        assert_eq!(run_engine(&sc, spec).unwrap_err(), bare);
        for batch in BATCH_SIZES {
            assert_eq!(run_engine_batched(&sc, spec, batch).unwrap_err(), bare);
        }
        // The runner surfaces the lowest-ranked error across workers —
        // stream 0's, which is exactly the bare error.
        for workers in WORKER_COUNTS {
            for batch in BATCH_SIZES {
                assert_eq!(run_runner(&sc, spec, workers, batch).unwrap_err(), bare);
            }
        }
        // And verify() as a whole accepts the error-equivalence.
        verify(&sc).unwrap();
    }

    #[test]
    fn batched_engine_agrees_with_bare_at_every_batch_size() {
        let sc = spike_scenario();
        for spec in specs_for(&sc) {
            let bare = run_bare(&sc, spec).unwrap();
            for batch in BATCH_SIZES {
                assert_eq!(
                    run_engine_batched(&sc, spec, batch).unwrap(),
                    bare,
                    "{spec:?} batch {batch}"
                );
            }
            // A ragged batch size that never divides the stream evenly
            // and one larger than the whole stream.
            for batch in [7usize, sc.stream.len() + 5] {
                assert_eq!(
                    run_engine_batched(&sc, spec, batch).unwrap(),
                    bare,
                    "{spec:?} batch {batch}"
                );
            }
        }
    }

    #[test]
    fn runner_agrees_with_bare_across_workers_and_batches() {
        let sc = spike_scenario();
        let spec = MonitorSpec::Spring {
            epsilon: sc.epsilon,
        };
        let bare = run_bare(&sc, spec).unwrap();
        for workers in WORKER_COUNTS {
            for batch in BATCH_SIZES {
                let per = run_runner(&sc, spec, workers, batch).unwrap();
                assert_eq!(per.len(), N_STREAMS as usize * N_ATTACH);
                for (k, ms) in per.iter().enumerate() {
                    assert_eq!(ms, &bare, "workers {workers} batch {batch} slot {k}");
                }
            }
        }
    }

    #[test]
    fn batched_paths_survive_gap_policies() {
        // Gaps interleaved with matches: Skip and CarryForward must
        // produce identical match streams at every batch size (gap
        // handling happens per attachment inside the ingestion layers,
        // after the batch is framed).
        for policy in [GapPolicy::Skip, GapPolicy::CarryForward] {
            let mut sc = spike_scenario();
            sc.stream[0] = f64::NAN;
            sc.stream[10] = f64::NAN;
            sc.stream[11] = f64::NAN;
            sc.gap_policy = policy;
            verify(&sc).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn swapped_runs_agree_with_the_prefix_suffix_composition() {
        let sc = spike_scenario();
        // Swap between the two spikes: the first fires under the old
        // pattern, the second must only fire if the NEW pattern matches.
        verify_swap(&sc, &[50.0, 40.0, 50.0], 12).unwrap();
        // Degenerate swap points: before any sample and after the last.
        verify_swap(&sc, &[50.0, 40.0, 50.0], 0).unwrap();
        verify_swap(&sc, &[50.0, 40.0, 50.0], sc.stream.len()).unwrap();
    }

    #[test]
    fn swapped_query_reports_under_the_new_pattern_only() {
        let sc = spike_scenario();
        let spec = MonitorSpec::Spring {
            epsilon: sc.epsilon,
        };
        // New pattern matches the stream's quiet plateau around the
        // second spike's flanks: [50, 0, 50]? No — pick the second
        // spike reversed-compatible pattern so it still fires.
        let new_query = [0.0, 10.0, 0.0];
        let per = run_runner_swapped(&sc, spec, &new_query, 12, 2, 1).unwrap();
        let bare_swapped = run_bare_swapped(&sc, spec, &new_query, 12).unwrap();
        let bare_full = run_bare(&sc, spec).unwrap();
        // Full run sees both spikes; the swapped run sees the first
        // spike (prefix, old query) and the second (suffix, new query —
        // identical pattern here) with restarted tick numbering.
        assert_eq!(bare_full.len(), 2);
        assert_eq!(bare_swapped.len(), 2);
        assert_ne!(bare_swapped, bare_full, "suffix ticks must restart");
        for (slot, ms) in per.iter().enumerate() {
            let k = (slot % N_ATTACH) as u32;
            let expect = if k == SWAPPED_QUERY {
                &bare_swapped
            } else {
                &bare_full
            };
            assert_eq!(ms, expect, "slot {slot}");
        }
    }

    #[test]
    fn short_swap_fuzz_is_clean() {
        fuzz_swaps(DEFAULT_FUZZ_SEED, 10).unwrap();
    }

    #[test]
    fn shrinking_reaches_a_fixed_point_on_a_failing_predicate() {
        // Use a synthetic predicate via a scenario that genuinely fails:
        // an epsilon of -1 is rejected by every layer identically, so
        // verify() passes; instead check the shrinker's mechanics on the
        // candidate generator.
        let sc = spike_scenario();
        let cands = candidates(&sc);
        assert!(cands.iter().any(|c| c.stream.len() == sc.stream.len() / 2));
        assert!(cands.iter().any(|c| c.query.len() == sc.query.len() - 1));
        for c in &cands {
            assert!(c.stream.len() <= sc.stream.len());
        }
    }
}
