//! Subcommand implementations, writing to any `io::Write` so tests can
//! capture output.

use std::io::{self, BufRead, Read, Write};
use std::path::Path;

use spring_core::stored::best_subsequence_match_with;
use spring_core::{Match, Monitor, MonitorSpec, ScalarMonitor, Spring, SpringSnapshot};
use spring_data::io::{read_csv, write_csv};
use spring_data::{MaskedChirp, Seismic, Sunspots, Temperature, TimeSeries};
use spring_dtw::constraint::{dtw_constrained, GlobalConstraint};
use spring_dtw::{dtw_distance_with, dtw_with_path, Kernel};
use spring_monitor::{
    ChannelSink, GapPolicy, Metrics, MixedEngine, QueryId, RestartPolicy, Runner, RunnerAttachment,
    StreamId, Tracer,
};

use crate::args::{ArgError, Parsed};

/// Top-level CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing failed.
    Args(ArgError),
    /// A file could not be read or written.
    Io(io::Error),
    /// The computation itself failed (invalid query, epsilon, …).
    Compute(String),
    /// Unknown subcommand (carries the usage text to print).
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Compute(msg) => write!(f, "{msg}"),
            CliError::Usage(u) => write!(f, "{u}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Usage text shown by `spring help` and on unknown subcommands.
pub const USAGE: &str = "\
spring — stream monitoring under the time warping distance (SPRING, ICDE 2007)

USAGE:
  spring monitor   --query Q.csv --epsilon N [--stream S.csv] [--kernel squared|absolute]
                   [--gap skip|carry] [--min-len N --max-len N | --max-run R | --normalize W]
                   [--resume SNAP.json] [--checkpoint SNAP.json] [--stats] [--batch N]
                   [--shards N] [--trace OUT.json]
                   (--batch: readings pushed per ingestion frame, default 64;
                    a partial frame goes out whenever the input drains, so
                    a live pipe sees each match as soon as its producer
                    pauses; output is identical for every N — --batch 1
                    pushes one reading a frame. --shards: run through an
                    N-worker runner instead of the inline monitor — the
                    transcript is identical. --trace: write a Chrome
                    trace-event flight recording of the run; without it
                    the recorder stays off)
  spring bestmatch --query Q.csv [--stream S.csv] [--kernel squared|absolute]
  spring topk      --query Q.csv --k N [--stream S.csv] [--kernel squared|absolute]
  spring dtw       A.csv B.csv [--kernel squared|absolute] [--band R] [--path]
  spring serve     --query Q.csv --epsilon N [--port P] [--kernel squared|absolute] [--once]
                   [--min-len N --max-len N | --max-run R | --normalize W] [--batch N]
                   [--shards N] [--max-conns N] [--trace-dir DIR]
                   (one acceptor thread multiplexes all connections through a
                    readiness event loop; HTTP `GET /metrics` on the same port
                    serves Prometheus text; connections are placed on one of
                    --shards runner workers by stream-id hash, default
                    min(8, cores); --batch: samples per frame, default 64 —
                    a partial frame is flushed when its connection's input
                    drains, so matches never wait for a frame to fill;
                    --max-conns caps concurrent connections, default 1024;
                    --trace-dir enables the flight recorder: `GET /trace`,
                    the `trace dump` verb, and automatic postmortem dumps
                    into DIR when a worker is lost)
  spring generate  maskedchirp|temperature|kursk|sunspots --out DIR [--seed N] [--small]
  spring fuzz      [--seed N] [--iters N] [--swap]
                   (differential conformance: every monitor variant through the bare
                    monitor, the engine, and a three-stream runner on 1/2/4 workers
                    vs the naive oracles; mismatches are shrunk and printed with a
                    replayable seed. --swap instead hot-swaps a query mid-stream
                    across 1/2/4 workers and demands exact agreement with a
                    freshly rebuilt monitor after the swap point)
  spring help

monitor/bestmatch read one value per line from --stream or stdin
(# comments and blank lines ignored; NaN = missing reading).";

/// Kernel flag parsing, shared with `spring serve`.
pub(crate) fn kernel_from(p: &Parsed) -> Result<Kernel, CliError> {
    parse_kernel(p)
}

/// Query CSV loading, shared with `spring serve`.
pub(crate) fn read_query(path: &str) -> Result<Vec<f64>, CliError> {
    Ok(read_csv_named(path)?.values)
}

fn parse_kernel(p: &Parsed) -> Result<Kernel, CliError> {
    match p.get("kernel") {
        None | Some("squared") => Ok(Kernel::Squared),
        Some("absolute") => Ok(Kernel::Absolute),
        Some(other) => Err(CliError::Args(ArgError::BadValue(
            "--kernel".into(),
            other.into(),
            "kernel (squared|absolute)",
        ))),
    }
}

/// How `monitor` treats NaN readings (`--gap skip|carry`).
fn parse_gap(p: &Parsed) -> Result<GapPolicy, CliError> {
    match p.get("gap") {
        None | Some("skip") => Ok(GapPolicy::Skip),
        Some("carry") => Ok(GapPolicy::CarryForward),
        Some(other) => Err(CliError::Args(ArgError::BadValue(
            "--gap".into(),
            other.into(),
            "gap policy (skip|carry)",
        ))),
    }
}

/// What [`for_each_value`] hands its callback.
enum Input {
    /// The next reading.
    Value(f64),
    /// No complete line is buffered, so the next read may block until
    /// the producer writes more (or the input ended): readings held for
    /// a frame go out now.
    Drained,
}

/// Streams values line by line into `f`, with [`Input::Drained`] before
/// every read that may block and at the end. `NaN`/`nan` pass through
/// as NaN; `#` comments and blank lines are skipped; any other line that
/// is not a number is an error naming its line number.
fn for_each_value<R: Read>(
    mut reader: io::BufReader<R>,
    mut f: impl FnMut(Input) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let mut line = String::new();
    let mut lineno = 0u64;
    loop {
        if !reader.buffer().contains(&b'\n') {
            f(Input::Drained)?;
        }
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return f(Input::Drained);
        }
        lineno += 1;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let v: f64 = text.parse().map_err(|_| {
            CliError::Compute(format!("stream line {lineno}: `{text}` is not a number"))
        })?;
        f(Input::Value(v))?;
    }
}

/// Reads a CSV series, attaching the file path to any I/O error.
fn read_csv_named(path: &str) -> Result<TimeSeries, CliError> {
    read_csv(Path::new(path)).map_err(|e| CliError::Compute(format!("{path}: {e}")))
}

fn open_stream(p: &Parsed) -> Result<io::BufReader<Box<dyn Read>>, CliError> {
    let source: Box<dyn Read> = match p.get("stream") {
        Some(path) => Box::new(
            std::fs::File::open(path).map_err(|e| CliError::Compute(format!("{path}: {e}")))?,
        ),
        None => Box::new(io::stdin()),
    };
    Ok(io::BufReader::new(source))
}

/// Collects the finite stream values, counting dropped (NaN/inf) lines.
fn collect_finite(reader: io::BufReader<Box<dyn Read>>) -> Result<(Vec<f64>, usize), CliError> {
    let mut values = Vec::new();
    let mut dropped = 0usize;
    for_each_value(reader, |input| {
        match input {
            Input::Value(v) if v.is_finite() => values.push(v),
            Input::Value(_) => dropped += 1,
            Input::Drained => {}
        }
        Ok(())
    })?;
    Ok((values, dropped))
}

/// Tells the user when missing readings were dropped, since reported tick
/// positions then refer to the filtered stream, not the input file's rows.
fn warn_dropped(out: &mut dyn Write, dropped: usize) -> Result<(), CliError> {
    if dropped > 0 {
        writeln!(
            out,
            "note: {dropped} missing reading(s) dropped; reported ticks index the remaining values"
        )?;
    }
    Ok(())
}

/// Resolves the `monitor`/`serve` variant flags into a [`MonitorSpec`] —
/// the single construction path shared with the engine and examples.
pub(crate) fn spec_from_flags(p: &Parsed, epsilon: f64) -> Result<MonitorSpec, CliError> {
    let min_len: Option<u64> = p.get_parsed("min-len", "integer")?;
    let max_len: Option<u64> = p.get_parsed("max-len", "integer")?;
    let max_run: Option<usize> = p.get_parsed("max-run", "integer")?;
    let normalize: Option<usize> = p.get_parsed("normalize", "integer")?;
    let variants = usize::from(min_len.is_some() || max_len.is_some())
        + usize::from(max_run.is_some())
        + usize::from(normalize.is_some());
    if variants > 1 {
        return Err(CliError::Compute(
            "--min-len/--max-len, --max-run, and --normalize are mutually exclusive".into(),
        ));
    }
    Ok(if min_len.is_some() || max_len.is_some() {
        MonitorSpec::Bounded {
            epsilon,
            min_len: min_len.unwrap_or(1),
            max_len: max_len.unwrap_or(u64::MAX),
        }
    } else if let Some(max_run) = max_run {
        MonitorSpec::SlopeLimited { epsilon, max_run }
    } else if let Some(window) = normalize {
        MonitorSpec::Normalized { epsilon, window }
    } else {
        MonitorSpec::Spring { epsilon }
    })
}

/// Prints one numbered match line of the `monitor` transcript.
fn write_match(out: &mut dyn Write, count: &mut u64, m: &Match, suffix: &str) -> io::Result<()> {
    *count += 1;
    writeln!(
        out,
        "match {count}: ticks {}..={} len {} distance {:.6} reported_at {}{suffix}",
        m.start,
        m.end,
        m.len(),
        m.distance,
        m.reported_at
    )
}

/// Pushes the buffered raw readings through the inline monitor's engine
/// as one frame and prints its matches. On an error the matches before
/// the failing reading are printed first.
fn push_readings(
    engine: &mut MixedEngine,
    stream: StreamId,
    buf: &mut Vec<f64>,
    count: &mut u64,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if buf.is_empty() {
        return Ok(());
    }
    let mut events = Vec::new();
    let pushed = engine.push_batch(stream, buf, &mut events);
    buf.clear();
    for ev in &events {
        write_match(out, count, &ev.m, "")?;
    }
    pushed.map_err(|e| CliError::Compute(e.to_string()))
}

/// `spring monitor` — disjoint queries over a stream, optionally with
/// length bounds, a slope limit, or sliding-window normalization.
///
/// The inline run is an engine with one stream and one attachment: raw
/// readings go in `--batch`-sized frames through
/// [`MixedEngine::push_batch`], which resolves gaps under `--gap`.
pub fn monitor(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let p = Parsed::parse(
        argv,
        &[
            "query",
            "epsilon",
            "stream",
            "kernel",
            "gap",
            "min-len",
            "max-len",
            "max-run",
            "normalize",
            "resume",
            "checkpoint",
            "batch",
            "shards",
            "trace",
        ],
        &["stats"],
    )?;
    p.positionals(0)?;
    let kernel = parse_kernel(&p)?;
    let gap = parse_gap(&p)?;
    let trace_out = p.get("trace").map(std::path::PathBuf::from);
    if let Some(shards) = p.get_parsed::<usize>("shards", "integer")? {
        return monitor_sharded(&p, shards, kernel, gap, out);
    }
    let compute = |e: spring_monitor::MonitorError| CliError::Compute(e.to_string());
    let checkpoint_path = p.get("checkpoint").map(str::to_string);
    let mut engine = MixedEngine::new();
    let stream = engine.add_stream("stream");
    let attachment = if let Some(resume_path) = p.get("resume") {
        // Resuming: query and epsilon come from the snapshot; if the
        // flags are also given, they must agree. Only the plain monitor
        // checkpoints, so variant flags are rejected.
        if p.get("min-len").is_some()
            || p.get("max-len").is_some()
            || p.get("max-run").is_some()
            || p.get("normalize").is_some()
        {
            return Err(CliError::Compute(
                "--resume/--checkpoint only apply to the plain monitor".into(),
            ));
        }
        let text = std::fs::read_to_string(resume_path)
            .map_err(|e| CliError::Compute(format!("{resume_path}: {e}")))?;
        let snap = SpringSnapshot::parse_json(&text)
            .map_err(|e| CliError::Compute(format!("{resume_path}: {e}")))?;
        if let Some(qpath) = p.get("query") {
            let q = read_csv_named(qpath)?;
            if q.values != snap.query {
                return Err(CliError::Compute(format!(
                    "--query {qpath} disagrees with the snapshot's query"
                )));
            }
        }
        if let Some(eps) = p.get_parsed::<f64>("epsilon", "number")? {
            if eps != snap.epsilon {
                return Err(CliError::Compute(format!(
                    "--epsilon {eps} disagrees with the snapshot's epsilon {}",
                    snap.epsilon
                )));
            }
        }
        let q = engine
            .add_query("query", snap.query.clone())
            .map_err(compute)?;
        engine.attach_monitor(stream, q, gap, move |_| {
            Spring::restore(&snap, kernel).map(ScalarMonitor::Spring)
        })
    } else {
        let query = read_csv_named(p.require("query")?)?;
        let epsilon: f64 = p.require_parsed("epsilon", "number")?;
        let spec = spec_from_flags(&p, epsilon)?;
        if checkpoint_path.is_some() && spec != (MonitorSpec::Spring { epsilon }) {
            return Err(CliError::Compute(
                "--resume/--checkpoint only apply to the plain monitor".into(),
            ));
        }
        let q = engine.add_query("query", query.values).map_err(compute)?;
        engine.attach_monitor(stream, q, gap, move |q| spec.build(q, kernel))
    }
    .map_err(compute)?;
    // `--stats`: the engine records into a registry, printed as the
    // summary table after the run.
    if p.has("stats") {
        engine.set_metrics(std::sync::Arc::new(Metrics::new()));
    }
    // `--trace`: frame spans and match instants on a single "monitor"
    // track, exported as Chrome trace-event JSON.
    let tracer = Tracer::new();
    if trace_out.is_some() {
        engine.set_tracer(&tracer, "monitor");
    }
    // Output is batch-invariant: `--batch 1` steps one reading a frame.
    let batch_size: usize = p
        .get_parsed("batch", "integer")?
        .unwrap_or(spring_monitor::DEFAULT_MAX_BATCH)
        .max(1);
    // A frame goes out when it fills or when the input drains, so a
    // live pipe sees each match as soon as its producer pauses.
    let mut buf: Vec<f64> = Vec::with_capacity(batch_size);
    let mut count = 0u64;
    for_each_value(open_stream(&p)?, |input| {
        if let Input::Value(v) = input {
            buf.push(v);
            if buf.len() < batch_size {
                return Ok(());
            }
        }
        push_readings(&mut engine, stream, &mut buf, &mut count, &mut *out)
    })?;
    if let Some(path) = checkpoint_path {
        // The stream continues in a later run: persist state instead of
        // flushing the pending group.
        let Some(ScalarMonitor::Spring(plain)) = engine.monitor(attachment) else {
            unreachable!("variant flags were rejected above");
        };
        std::fs::write(&path, plain.snapshot().to_json_string())
            .map_err(|e| CliError::Compute(format!("{path}: {e}")))?;
        writeln!(
            out,
            "checkpoint written to {path} at tick {}",
            Monitor::tick(plain)
        )?;
    } else {
        for ev in engine.finish_stream(stream).map_err(compute)? {
            write_match(out, &mut count, &ev.m, " (stream end)")?;
        }
    }
    let ticks = engine.monitor(attachment).map_or(0, Monitor::tick);
    writeln!(out, "{count} match(es) over {ticks} ticks")?;
    if let Some(metrics) = engine.metrics() {
        write!(out, "{}", metrics.snapshot().render_table())?;
    }
    write_trace_export(&tracer, trace_out.as_deref(), out)?;
    Ok(())
}

/// Exports the flight recorder to `path` (when `--trace` was given) and
/// notes where it went, so the user can load it in `chrome://tracing`.
fn write_trace_export(
    tracer: &Tracer,
    path: Option<&Path>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    tracer
        .write_chrome_json(path)
        .map_err(|e| CliError::Compute(format!("{}: {e}", path.display())))?;
    writeln!(out, "trace written to {}", path.display())?;
    Ok(())
}

/// `spring monitor --shards N` — the same monitoring run, deployed
/// through a [`Runner`] of `N` workers instead of the inline monitor loop.
///
/// The printed transcript is identical to the inline path: matches in
/// stream order (the trailing pending-group match tagged
/// `(stream end)`), then the `N match(es) over T ticks` summary. Every
/// reading is pushed and the attachment resolves gaps under the `--gap`
/// policy, so it steps exactly the samples the inline monitor would and
/// its `--stats` recorder counts the missing ones. Frames are cut where
/// the inline path cuts them: when full, and when the input drains —
/// then the partial frame is flushed, the worker is synced, and its
/// matches are printed before the next read may block.
fn monitor_sharded(
    p: &Parsed,
    shards: usize,
    kernel: Kernel,
    gap: GapPolicy,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if p.get("resume").is_some() || p.get("checkpoint").is_some() {
        return Err(CliError::Compute(
            "--resume/--checkpoint are incompatible with --shards".into(),
        ));
    }
    let query = read_csv_named(p.require("query")?)?;
    let epsilon: f64 = p.require_parsed("epsilon", "number")?;
    let spec = spec_from_flags(p, epsilon)?;
    let monitor = spec
        .build(&query.values, kernel)
        .map_err(|e| CliError::Compute(e.to_string()))?;
    let metrics = p.has("stats").then(|| std::sync::Arc::new(Metrics::new()));
    let (tx, matches) = std::sync::mpsc::channel();
    let sink = std::sync::Arc::new(ChannelSink::new(tx));
    let stream_id = StreamId(0);
    let attachment = RunnerAttachment::new(stream_id, QueryId(0), monitor, gap);
    // `--trace`: every worker and supervisor records into its own ring
    // (`worker-N` / `supervisor-N` tracks in the export).
    let trace_out = p.get("trace").map(std::path::PathBuf::from);
    let tracer = Tracer::new();
    let mut runner = Runner::spawn_with_observability(
        vec![attachment],
        shards,
        sink.clone(),
        metrics.clone(),
        RestartPolicy::default(),
        trace_out.is_some().then(|| tracer.clone()),
    )
    .map_err(|e| CliError::Compute(e.to_string()))?;
    let batch: usize = p
        .get_parsed("batch", "integer")?
        .unwrap_or(spring_monitor::DEFAULT_MAX_BATCH)
        .max(1);
    runner.set_max_batch(batch);
    // `ticks` counts the samples the monitor steps: present readings,
    // plus carried ones once a reading has been seen.
    let mut ticks = 0u64;
    let mut seen = false;
    let mut push_err = None;
    let mut count = 0u64;
    for_each_value(open_stream(p)?, |input| {
        match input {
            Input::Value(v) => {
                seen |= v.is_finite();
                if v.is_finite() || (gap == GapPolicy::CarryForward && seen) {
                    ticks += 1;
                }
                if push_err.is_none() {
                    push_err = runner.push(stream_id, &v).err();
                }
            }
            Input::Drained => {
                // Wait for the worker to step the partial frame, then
                // print the matches it reached.
                if push_err.is_none() {
                    push_err = runner
                        .flush(stream_id)
                        .and_then(|()| runner.sync(stream_id))
                        .err();
                }
                for ev in matches.try_iter() {
                    write_match(&mut *out, &mut count, &ev.m, "")?;
                }
            }
        }
        Ok(())
    })?;
    // Every match the finish adds is the pending-group (stream end) one.
    if push_err.is_none() {
        if let Err(e) = runner.finish_stream(stream_id) {
            push_err = Some(e);
        }
    }
    // The recorded worker error (surfaced by shutdown) takes precedence
    // over the secondary WorkerLost a push may have observed.
    runner
        .shutdown()
        .map_err(|e| CliError::Compute(e.to_string()))?;
    if let Some(e) = push_err {
        return Err(CliError::Compute(e.to_string()));
    }
    for ev in matches.try_iter() {
        write_match(out, &mut count, &ev.m, " (stream end)")?;
    }
    writeln!(out, "{count} match(es) over {ticks} ticks")?;
    if let Some(m) = &metrics {
        write!(out, "{}", m.snapshot().render_table())?;
    }
    write_trace_export(&tracer, trace_out.as_deref(), out)?;
    Ok(())
}

/// `spring bestmatch` — the single best subsequence in a stream.
pub fn bestmatch(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let p = Parsed::parse(argv, &["query", "stream", "kernel"], &[])?;
    p.positionals(0)?;
    let query = read_csv_named(p.require("query")?)?;
    let kernel = parse_kernel(&p)?;
    let (values, dropped) = collect_finite(open_stream(&p)?)?;
    warn_dropped(out, dropped)?;
    match best_subsequence_match_with(&values, &query.values, kernel)
        .map_err(|e| CliError::Compute(e.to_string()))?
    {
        Some(m) => writeln!(
            out,
            "best match: ticks {}..={} len {} distance {:.6}",
            m.start,
            m.end,
            m.len(),
            m.distance
        )?,
        None => writeln!(out, "empty stream: no match")?,
    }
    Ok(())
}

/// `spring topk` — the k best pairwise-disjoint matches in a stream.
pub fn topk(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let p = Parsed::parse(argv, &["query", "k", "stream", "kernel"], &[])?;
    p.positionals(0)?;
    let query = read_csv_named(p.require("query")?)?;
    let k: usize = p.require_parsed("k", "integer")?;
    let kernel = parse_kernel(&p)?;
    let (values, dropped) = collect_finite(open_stream(&p)?)?;
    warn_dropped(out, dropped)?;
    let hits = spring_core::stored::top_k_matches_with(&values, &query.values, k, kernel)
        .map_err(|e| CliError::Compute(e.to_string()))?;
    for (rank, m) in hits.iter().enumerate() {
        writeln!(
            out,
            "#{}: ticks {}..={} len {} distance {:.6}",
            rank + 1,
            m.start,
            m.end,
            m.len(),
            m.distance
        )?;
    }
    writeln!(out, "{} of {k} requested match(es)", hits.len())?;
    Ok(())
}

/// `spring dtw` — whole-sequence distance between two CSV files.
pub fn dtw(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let p = Parsed::parse(argv, &["kernel", "band"], &["path"])?;
    let pos = p.positionals(2)?;
    let a = read_csv_named(&pos[0])?;
    let b = read_csv_named(&pos[1])?;
    let kernel = parse_kernel(&p)?;
    let band: Option<usize> = p.get_parsed("band", "integer")?;
    // Flag conflicts fail before any output is produced.
    if p.has("path") && band.is_some() {
        return Err(CliError::Compute(
            "--path is incompatible with --band".into(),
        ));
    }
    let d = match band {
        Some(radius) => dtw_constrained(
            &a.values,
            &b.values,
            kernel,
            GlobalConstraint::SakoeChiba { radius },
        )
        .map_err(|e| CliError::Compute(e.to_string()))?,
        None => dtw_distance_with(&a.values, &b.values, kernel)
            .map_err(|e| CliError::Compute(e.to_string()))?,
    };
    writeln!(out, "dtw({}, {}) = {d:.6}", a.name, b.name)?;
    if p.has("path") {
        let (_, path) = dtw_with_path(&a.values, &b.values, kernel)
            .map_err(|e| CliError::Compute(e.to_string()))?;
        for (t, i) in path.iter() {
            writeln!(out, "{}\t{}", t + 1, i + 1)?;
        }
    }
    Ok(())
}

/// `spring generate` — writes a reproduction workload as CSV files.
pub fn generate(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let p = Parsed::parse(argv, &["out", "seed"], &["small"])?;
    let pos = p.positionals(1)?;
    let dir = Path::new(p.require("out")?);
    std::fs::create_dir_all(dir)?;
    let seed: Option<u64> = p.get_parsed("seed", "integer")?;
    let small = p.has("small");

    let (stream, query, truth): (TimeSeries, TimeSeries, Vec<(u64, u64)>) = match pos[0].as_str() {
        "maskedchirp" => {
            let mut cfg = if small {
                MaskedChirp::small()
            } else {
                MaskedChirp::paper()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
            let (ts, truth) = cfg.generate();
            (ts, cfg.query(), truth)
        }
        "temperature" => {
            let mut cfg = if small {
                Temperature::small()
            } else {
                Temperature::paper()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
            let (ts, truth) = cfg.generate();
            (ts, cfg.query(), truth)
        }
        "kursk" => {
            let mut cfg = if small {
                Seismic::small()
            } else {
                Seismic::paper()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
            let (ts, truth) = cfg.generate();
            (ts, cfg.query(), truth)
        }
        "sunspots" => {
            let mut cfg = if small {
                Sunspots::small()
            } else {
                Sunspots::paper()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
            let (ts, truth) = cfg.generate();
            (ts, cfg.query(), truth)
        }
        other => {
            return Err(CliError::Compute(format!(
                "unknown dataset `{other}` (maskedchirp|temperature|kursk|sunspots)"
            )))
        }
    };

    let stream_path = dir.join("stream.csv");
    let query_path = dir.join("query.csv");
    write_csv(&stream, &stream_path)?;
    write_csv(&query, &query_path)?;
    writeln!(
        out,
        "wrote {} ({} ticks)",
        stream_path.display(),
        stream.len()
    )?;
    writeln!(
        out,
        "wrote {} ({} ticks)",
        query_path.display(),
        query.len()
    )?;
    for (k, (s, e)) in truth.iter().enumerate() {
        writeln!(out, "ground truth #{}: ticks {s}..={e}", k + 1)?;
    }
    Ok(())
}

/// `spring fuzz` — seeded differential conformance fuzzing.
///
/// Runs `--iters` generated scenarios (default 200) through every
/// monitor variant on the bare-monitor, engine, and 1/2/4-worker runner
/// code paths, checking the reports against the naive oracles (see
/// `spring-testkit`). The default seed is fixed so local runs are
/// reproducible; CI passes a varying seed to widen coverage over time.
/// A mismatch exits nonzero after printing the shrunk scenario and a
/// replay command.
///
/// `--swap` runs the query hot-swap differential instead: each scenario
/// swaps one query mid-stream through `Runner::swap_query`
/// (workers 1/2/4 × batch 1/64) and demands exact agreement with a
/// freshly rebuilt monitor after the swap point, while co-resident
/// queries stay bit-identical to the unswapped run.
pub fn fuzz(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let p = Parsed::parse(argv, &["seed", "iters"], &["swap"])?;
    p.positionals(0)?;
    let seed: u64 = p
        .get_parsed("seed", "integer")?
        .unwrap_or(spring_testkit::differential::DEFAULT_FUZZ_SEED);
    let swap = p.has("swap");
    let iters: u64 = p
        .get_parsed("iters", "integer")?
        .unwrap_or(if swap { 500 } else { 200 });
    if swap {
        writeln!(
            out,
            "fuzz --swap: seed {seed}, {iters} hot-swap scenarios x 2 variants x \
             runner w=1,2,4 x batch 1,64 vs prefix/suffix bare composition"
        )?;
        return match spring_testkit::differential::fuzz_swaps(seed, iters) {
            Ok(n) => {
                writeln!(out, "ok: {n} swap scenarios, 0 mismatches")?;
                Ok(())
            }
            Err(e) => Err(CliError::Compute(e)),
        };
    }
    writeln!(
        out,
        "fuzz: seed {seed}, {iters} scenarios x 6 variants x (bare | engine \
         | 3-stream runner w=1,2,4) x (per-sample | batch 1,3,64)"
    )?;
    match spring_testkit::differential::fuzz(seed, iters) {
        Ok(n) => {
            writeln!(out, "ok: {n} scenarios, 0 mismatches")?;
            Ok(())
        }
        Err(f) => Err(CliError::Compute(f.to_string())),
    }
}

/// Dispatches a full argv (without the program name).
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    match argv.first().map(String::as_str) {
        Some("monitor") => monitor(&argv[1..], out),
        Some("bestmatch") => bestmatch(&argv[1..], out),
        Some("topk") => topk(&argv[1..], out),
        Some("serve") => crate::serve::run_serve(&argv[1..], out),
        Some("dtw") => dtw(&argv[1..], out),
        Some("generate") => generate(&argv[1..], out),
        Some("fuzz") => fuzz(&argv[1..], out),
        Some("help") | None => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spring-cli-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn write_series(dir: &Path, name: &str, values: &[f64]) -> std::path::PathBuf {
        let path = dir.join(name);
        write_csv(
            &TimeSeries::new(name.trim_end_matches(".csv"), values.to_vec()),
            &path,
        )
        .unwrap();
        path
    }

    #[test]
    fn fuzz_smoke_runs_and_reports_clean() {
        let mut out = Vec::new();
        fuzz(&argv("--seed 7 --iters 5"), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("seed 7"), "{text}");
        assert!(text.contains("5 scenarios, 0 mismatches"), "{text}");
    }

    #[test]
    fn swap_fuzz_smoke_runs_and_reports_clean() {
        let mut out = Vec::new();
        fuzz(&argv("--swap --seed 7 --iters 3"), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("ok: 3 swap scenarios, 0 mismatches"), "{s}");
    }

    #[test]
    fn fuzz_rejects_unknown_flags_and_positionals() {
        let mut out = Vec::new();
        assert!(matches!(
            fuzz(&argv("--bogus 1"), &mut out),
            Err(CliError::Args(_))
        ));
        assert!(matches!(
            fuzz(&argv("extra"), &mut out),
            Err(CliError::Args(_))
        ));
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        for cmd in [
            "monitor",
            "bestmatch",
            "topk",
            "dtw",
            "serve",
            "generate",
            "fuzz",
        ] {
            assert!(USAGE.contains(cmd), "usage is missing `{cmd}`");
        }
    }

    #[test]
    fn monitor_finds_the_paper_example() {
        let dir = tmpdir("mon");
        let q = write_series(&dir, "q.csv", &[11.0, 6.0, 9.0, 4.0]);
        let s = write_series(&dir, "s.csv", &[5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0]);
        let mut out = Vec::new();
        monitor(
            &argv(&format!(
                "--query {} --epsilon 15 --stream {}",
                q.display(),
                s.display()
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("ticks 2..=5"), "{text}");
        assert!(text.contains("distance 6.0"), "{text}");
        assert!(text.contains("1 match(es) over 7 ticks"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_stats_flag_prints_the_summary_table() {
        let dir = tmpdir("stats");
        let q = write_series(&dir, "q.csv", &[11.0, 6.0, 9.0, 4.0]);
        let s = dir.join("s.csv");
        // The paper example plus a NaN that the default skip policy drops.
        std::fs::write(&s, "5\n12\n6\n10\nNaN\n6\n5\n13\n").unwrap();
        let mut out = Vec::new();
        monitor(
            &argv(&format!(
                "--query {} --epsilon 15 --stream {} --stats",
                q.display(),
                s.display()
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("1 match(es) over 7 ticks"), "{text}");
        assert!(text.contains("--- stats ---"), "{text}");
        let row = |key: &str, value: &str| {
            text.lines()
                .any(|l| l.starts_with(key) && l.trim_end().ends_with(value))
        };
        assert!(row("ticks ingested", "8"), "{text}");
        assert!(row("matches", "1"), "{text}");
        assert!(row("missing samples", "1"), "{text}");
        assert!(text.contains("tick latency"), "{text}");
        assert!(text.contains("detection delay"), "{text}");
        assert!(text.contains("live memory"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_trace_flag_writes_a_chrome_trace() {
        let dir = tmpdir("clitrace");
        let q = write_series(&dir, "q.csv", &[11.0, 6.0, 9.0, 4.0]);
        let s = write_series(&dir, "s.csv", &[5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0]);
        // Inline path: frame spans + match instants on one track.
        // Sharded path: the worker's frame spans on `worker-N`.
        for (file, extra, track) in [
            ("inline.json", "", "monitor"),
            ("sharded.json", " --shards 2", "worker-"),
        ] {
            let path = dir.join(file);
            let mut out = Vec::new();
            monitor(
                &argv(&format!(
                    "--query {} --epsilon 15 --stream {} --trace {}{extra}",
                    q.display(),
                    s.display(),
                    path.display()
                )),
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains("1 match(es) over 7 ticks"), "{text}");
            assert!(
                text.contains(&format!("trace written to {}", path.display())),
                "{text}"
            );
            let doc = spring_util::json::Value::parse(&std::fs::read_to_string(&path).unwrap())
                .expect("trace export must be valid JSON");
            let events = doc
                .get("traceEvents")
                .and_then(|v| v.as_arr())
                .expect("traceEvents array");
            let named = |name: &str| {
                events.iter().any(|e| {
                    e.get("name").and_then(|n| n.as_str()) == Some(name)
                        || e.get("args")
                            .and_then(|a| a.get("name"))
                            .and_then(|n| n.as_str())
                            .is_some_and(|n| n.contains(name))
                })
            };
            assert!(named("match"), "no match instant in {file}");
            assert!(named(track), "no {track} track metadata in {file}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_output_is_batch_invariant() {
        // `--batch N` must never change what is printed: same matches,
        // same counts, same stats totals for every batch size (1 pushes
        // one reading a frame).
        let dir = tmpdir("batchinv");
        let q = write_series(&dir, "q.csv", &[0.0, 9.0, 0.0]);
        let s = dir.join("s.csv");
        // Two occurrences plus a NaN (skipped by default) straddling
        // batch boundaries for the sizes below.
        std::fs::write(
            &s,
            "50\n50\n0\n9\n0\n50\nNaN\n50\n0\n9\n9\n0\n50\n50\n50\n50\n50\n",
        )
        .unwrap();
        let run = |extra: &str| {
            let mut out = Vec::new();
            monitor(
                &argv(&format!(
                    "--query {} --epsilon 1 --stream {} --stats{extra}",
                    q.display(),
                    s.display()
                )),
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let reference = run(" --batch 1");
        assert!(reference.contains("2 match(es)"), "{reference}");
        for n in [2, 3, 5, 64] {
            let text = run(&format!(" --batch {n}"));
            // Identical up to the stats table's latency/batch rows
            // (timing and frame sizes legitimately differ).
            let scrub = |t: &str| {
                t.lines()
                    .filter(|l| {
                        !l.starts_with("tick latency")
                            && !l.starts_with("ingest batches")
                            && !l.starts_with("live memory")
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(scrub(&text), scrub(&reference), "--batch {n} diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_monitor_transcript_matches_the_inline_monitor() {
        // `--shards N` deploys the same run through an N-worker Runner;
        // the printed transcript must be byte-identical to the inline
        // path for every shard count and batch size —
        // including the `(stream end)` tag on the pending-group match
        // and the gap handling.
        let dir = tmpdir("shardeq");
        let q = write_series(&dir, "q.csv", &[0.0, 9.0, 0.0]);
        let s = dir.join("s.csv");
        // A mid-stream occurrence, a NaN gap, and an occurrence at the
        // very end of the stream (confirmed only by the finish).
        std::fs::write(&s, "50\n50\n0\n9\n0\n50\nNaN\n50\n50\n0\n9\n0\n").unwrap();
        let run = |extra: &str| {
            let mut out = Vec::new();
            monitor(
                &argv(&format!(
                    "--query {} --epsilon 1 --stream {}{extra}",
                    q.display(),
                    s.display()
                )),
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let reference = run("");
        assert!(reference.contains("2 match(es)"), "{reference}");
        assert!(reference.contains("(stream end)"), "{reference}");
        for extra in [
            " --shards 1",
            " --shards 2",
            " --shards 4 --batch 1",
            " --shards 2 --batch 3",
            " --shards 2 --gap carry",
        ] {
            let got = run(extra);
            let want = if extra.contains("carry") {
                run(" --gap carry")
            } else {
                reference.clone()
            };
            assert_eq!(got, want, "{extra} diverged from the inline monitor");
        }
        // `--stats` agrees too, frames included, bar the rows that
        // measure the deployment (latency, memory) or exist only under
        // `--shards`.
        let stats = |text: String| -> Vec<String> {
            let own = ["tick latency", "live memory", "shard "];
            text.lines()
                .filter(|l| !own.iter().any(|k| l.starts_with(k)))
                .map(str::to_owned)
                .collect()
        };
        for gap in ["", " --gap carry"] {
            let want = stats(run(&format!(" --stats{gap}")));
            assert!(
                want.contains(&format!("{:<28} 1", "missing samples")),
                "{want:?}"
            );
            for shards in [" --shards 1", " --shards 2"] {
                let got = stats(run(&format!(" --stats{gap}{shards}")));
                assert_eq!(
                    got, want,
                    "--stats{gap}{shards} diverged from the inline monitor"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_monitor_rejects_conflicting_flags() {
        let dir = tmpdir("shardflags");
        let q = write_series(&dir, "q.csv", &[0.0, 9.0, 0.0]);
        let err = monitor(
            &argv(&format!(
                "--query {} --epsilon 1 --shards 2 --checkpoint snap.json",
                q.display()
            )),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_carry_policy_handles_nan_lines() {
        let dir = tmpdir("gap");
        let q = write_series(&dir, "q.csv", &[1.0, 2.0, 3.0]);
        let s = dir.join("s.csv");
        std::fs::write(&s, "# sensor\n9\n1\n2\nNaN\n3\n9\n9\n").unwrap();
        let mut out = Vec::new();
        monitor(
            &argv(&format!(
                "--query {} --epsilon 0.1 --stream {} --gap carry",
                q.display(),
                s.display()
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("ticks 2..=5"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bestmatch_reports_the_minimum() {
        let dir = tmpdir("best");
        let q = write_series(&dir, "q.csv", &[0.0, 5.0]);
        let s = write_series(&dir, "s.csv", &[9.0, 0.0, 5.0, 9.0]);
        let mut out = Vec::new();
        bestmatch(
            &argv(&format!("--query {} --stream {}", q.display(), s.display())),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("ticks 2..=3"), "{text}");
        assert!(text.contains("distance 0.0"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dtw_command_computes_distances_and_paths() {
        let dir = tmpdir("dtw");
        let a = write_series(&dir, "a.csv", &[0.0, 1.0, 2.0]);
        let b = write_series(&dir, "b.csv", &[0.0, 1.0, 1.0, 2.0]);
        let mut out = Vec::new();
        dtw(
            &argv(&format!("{} {} --path", a.display(), b.display())),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("= 0.000000"), "{text}");
        assert!(text.lines().count() > 3, "path rows expected: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dtw_band_flag_constrains() {
        let dir = tmpdir("band");
        let a = write_series(&dir, "a.csv", &[0.0, 5.0, 1.0, 9.0]);
        let b = write_series(&dir, "b.csv", &[4.0, 4.0, 0.0, 8.0]);
        let mut free = Vec::new();
        dtw(
            &argv(&format!("{} {}", a.display(), b.display())),
            &mut free,
        )
        .unwrap();
        let mut banded = Vec::new();
        dtw(
            &argv(&format!("{} {} --band 0", a.display(), b.display())),
            &mut banded,
        )
        .unwrap();
        let parse = |v: &[u8]| -> f64 {
            String::from_utf8_lossy(v)
                .split('=')
                .nth(1)
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        assert!(parse(&banded) >= parse(&free));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_writes_stream_query_and_truth() {
        let dir = tmpdir("gen");
        let mut out = Vec::new();
        generate(
            &argv(&format!("maskedchirp --out {} --small", dir.display())),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("stream.csv (2000 ticks)"), "{text}");
        assert!(text.contains("ground truth #4"), "{text}");
        assert!(dir.join("query.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generated_workload_roundtrips_through_the_monitor() {
        let dir = tmpdir("roundtrip");
        generate(
            &argv(&format!("maskedchirp --out {} --small", dir.display())),
            &mut Vec::new(),
        )
        .unwrap();
        let mut out = Vec::new();
        monitor(
            &argv(&format!(
                "--query {} --epsilon 10 --stream {}",
                dir.join("query.csv").display(),
                dir.join("stream.csv").display()
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("4 match(es)"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_variant_flags_select_the_extension_monitors() {
        let dir = tmpdir("variants");
        let q = write_series(&dir, "q.csv", &[0.0, 9.0, 0.0]);
        // Stream with a heavily stretched occurrence and a crisp one.
        let mut vals = vec![50.0; 4];
        vals.push(0.0);
        vals.extend(vec![9.0; 8]);
        vals.push(0.0);
        vals.extend(vec![50.0; 4]);
        vals.extend([0.0, 9.0, 0.0]);
        vals.extend(vec![50.0; 4]);
        let s = write_series(&dir, "s.csv", &vals);

        // Plain: finds both.
        let mut out = Vec::new();
        monitor(
            &argv(&format!(
                "--query {} --epsilon 1 --stream {}",
                q.display(),
                s.display()
            )),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("2 match(es)"));

        // Length bound rejects the stretched one.
        let mut out = Vec::new();
        monitor(
            &argv(&format!(
                "--query {} --epsilon 1 --stream {} --max-len 5",
                q.display(),
                s.display()
            )),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("1 match(es)"));

        // Slope limit rejects it too.
        let mut out = Vec::new();
        monitor(
            &argv(&format!(
                "--query {} --epsilon 1 --stream {} --max-run 2",
                q.display(),
                s.display()
            )),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("1 match(es)"));

        // Variant flags are mutually exclusive.
        let err = monitor(
            &argv(&format!(
                "--query {} --epsilon 1 --stream {} --max-run 2 --normalize 8",
                q.display(),
                s.display()
            )),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn topk_ranks_disjoint_matches() {
        let dir = tmpdir("topk");
        let q = write_series(&dir, "q.csv", &[0.0, 8.0, 0.0]);
        let mut vals = Vec::new();
        for jitter in [0.0, 0.6] {
            vals.extend(vec![99.0; 5]);
            vals.extend([jitter, 8.0 + jitter, 0.0]);
        }
        vals.extend(vec![99.0; 5]);
        let s = write_series(&dir, "s.csv", &vals);
        let mut out = Vec::new();
        topk(
            &argv(&format!(
                "--query {} --k 2 --stream {}",
                q.display(),
                s.display()
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("#1: ticks 6..=8"), "{text}");
        assert!(text.contains("#2: ticks 14..=16"), "{text}");
        assert!(text.contains("2 of 2 requested"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_dispatches_and_rejects_unknown_commands() {
        let mut out = Vec::new();
        run(&argv("help"), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("USAGE"));
        assert!(matches!(
            run(&argv("frobnicate"), &mut Vec::new()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn helpful_errors_for_bad_input() {
        let err = monitor(&argv("--epsilon 1"), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--query"));
        let err = dtw(&argv("only_one.csv"), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("positional"));
        let dir = tmpdir("badkernel");
        let q = write_series(&dir, "q.csv", &[1.0]);
        let err = monitor(
            &argv(&format!(
                "--query {} --epsilon 1 --kernel cosine",
                q.display()
            )),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("cosine"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod dropped_note_tests {
    use super::*;

    #[test]
    fn bestmatch_notes_dropped_missing_readings() {
        let dir = {
            let mut p = std::env::temp_dir();
            p.push(format!("spring-cli-{}-drop", std::process::id()));
            std::fs::create_dir_all(&p).unwrap();
            p
        };
        let q = dir.join("q.csv");
        write_csv(&TimeSeries::new("q", vec![0.0, 5.0]), &q).unwrap();
        let s = dir.join("s.csv");
        std::fs::write(&s, "NaN\nNaN\n9\n0\n5\n9\n").unwrap();
        let mut out = Vec::new();
        bestmatch(
            &format!("--query {} --stream {}", q.display(), s.display())
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("2 missing reading(s) dropped"), "{text}");
        assert!(text.contains("ticks 2..=3"), "{text}"); // filtered coords
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_note_when_stream_is_clean() {
        let dir = {
            let mut p = std::env::temp_dir();
            p.push(format!("spring-cli-{}-clean", std::process::id()));
            std::fs::create_dir_all(&p).unwrap();
            p
        };
        let q = dir.join("q.csv");
        write_csv(&TimeSeries::new("q", vec![0.0]), &q).unwrap();
        let s = dir.join("s.csv");
        std::fs::write(&s, "1\n0\n2\n").unwrap();
        let mut out = Vec::new();
        topk(
            &format!("--query {} --k 1 --stream {}", q.display(), s.display())
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("dropped"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod checkpoint_cli_tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spring-cli-ckpt-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn checkpoint_then_resume_equals_one_continuous_run() {
        let dir = tmpdir("roundtrip");
        let q = dir.join("q.csv");
        write_csv(&TimeSeries::new("q", vec![0.0, 9.0, 0.0]), &q).unwrap();
        // Full stream: two occurrences; cut between them.
        let full = [50.0, 0.0, 9.0, 0.0, 50.0, 50.0, 0.0, 9.0, 0.0, 50.0];
        let (head, tail) = full.split_at(5);
        let write_stream = |name: &str, vals: &[f64]| {
            let p = dir.join(name);
            write_csv(&TimeSeries::new(name, vals.to_vec()), &p).unwrap();
            p
        };
        let s_full = write_stream("full.csv", &full);
        let s_head = write_stream("head.csv", head);
        let s_tail = write_stream("tail.csv", tail);
        let snap = dir.join("snap.json");

        let mut reference = Vec::new();
        monitor(
            &argv(&format!(
                "--query {} --epsilon 1 --stream {}",
                q.display(),
                s_full.display()
            )),
            &mut reference,
        )
        .unwrap();
        let reference = String::from_utf8(reference).unwrap();

        let mut part1 = Vec::new();
        monitor(
            &argv(&format!(
                "--query {} --epsilon 1 --stream {} --checkpoint {}",
                q.display(),
                s_head.display(),
                snap.display()
            )),
            &mut part1,
        )
        .unwrap();
        let part1 = String::from_utf8(part1).unwrap();
        assert!(part1.contains("checkpoint written"), "{part1}");

        let mut part2 = Vec::new();
        monitor(
            &argv(&format!(
                "--resume {} --stream {}",
                snap.display(),
                s_tail.display()
            )),
            &mut part2,
        )
        .unwrap();
        let part2 = String::from_utf8(part2).unwrap();

        // Both matches surface, with the same positions as the
        // continuous run (part1 reports the first, part2 the second).
        assert!(reference.contains("ticks 2..=4"), "{reference}");
        assert!(reference.contains("ticks 7..=9"), "{reference}");
        assert!(part1.contains("ticks 2..=4"), "{part1}");
        assert!(part2.contains("ticks 7..=9"), "{part2}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_keeps_the_snapshot_query_generation() {
        let dir = tmpdir("generation");
        let q = dir.join("q.csv");
        write_csv(&TimeSeries::new("q", vec![0.0, 9.0, 0.0]), &q).unwrap();
        let s = dir.join("s.csv");
        write_csv(&TimeSeries::new("s", vec![50.0, 0.0, 9.0]), &s).unwrap();
        let (snap, next) = (dir.join("snap.json"), dir.join("next.json"));
        let run = |args: String| monitor(&argv(&args), &mut Vec::new()).unwrap();
        let read = |path: &Path| {
            SpringSnapshot::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap()
        };
        run(format!(
            "--query {} --epsilon 1 --stream {} --checkpoint {}",
            q.display(),
            s.display(),
            snap.display()
        ));
        let mut swapped = read(&snap);
        swapped.generation = 3;
        std::fs::write(&snap, swapped.to_json_string()).unwrap();
        run(format!(
            "--resume {} --stream {} --checkpoint {}",
            snap.display(),
            s.display(),
            next.display()
        ));
        assert_eq!(read(&next).generation, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_conflicting_flags_and_bad_snapshots() {
        let dir = tmpdir("reject");
        let q = dir.join("q.csv");
        write_csv(&TimeSeries::new("q", vec![1.0, 2.0]), &q).unwrap();
        let s = dir.join("s.csv");
        write_csv(&TimeSeries::new("s", vec![1.0, 2.0]), &s).unwrap();
        let snap = dir.join("snap.json");
        monitor(
            &argv(&format!(
                "--query {} --epsilon 1 --stream {} --checkpoint {}",
                q.display(),
                s.display(),
                snap.display()
            )),
            &mut Vec::new(),
        )
        .unwrap();

        // Variant flags conflict with resume.
        let err = monitor(
            &argv(&format!(
                "--resume {} --stream {} --max-run 2",
                snap.display(),
                s.display()
            )),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("plain monitor"), "{err}");

        // Disagreeing epsilon is rejected.
        let err = monitor(
            &argv(&format!(
                "--resume {} --epsilon 99 --stream {}",
                snap.display(),
                s.display()
            )),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");

        // Corrupt snapshot file.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        let err = monitor(
            &argv(&format!(
                "--resume {} --stream {}",
                bad.display(),
                s.display()
            )),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("bad.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
