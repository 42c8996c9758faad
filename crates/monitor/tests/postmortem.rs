//! Acceptance: a worker lost to an injected panic leaves a usable
//! flight-recorder postmortem behind.
//!
//! An armed `runner::worker::recv` failpoint kills one worker
//! mid-stream; the restart supervisor heals it and — because the tracer
//! has a postmortem directory — dumps the whole recorder to disk. The
//! dump must contain the dead incarnation's final `frame` span, the
//! supervisor's `worker_restart` instant, and the `replay` span of the
//! log replay that rebuilt the worker's state.
//!
//! Requires `--features failpoints`.
#![cfg(feature = "failpoints")]

use std::path::PathBuf;
use std::sync::Arc;

use spring_monitor::failpoints::{self, FailAction, FailRule};
use spring_monitor::{
    GapPolicy, QueryId, RestartPolicy, Runner, RunnerAttachment, StreamId, Tracer, VecSink,
};
use spring_util::json::Value;

fn tmpdir() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spring-postmortem-{}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// One sample per tick: quiet noise with the planted `0 9 0` pattern
/// every 16 ticks, so the stream keeps producing frames and matches.
fn value_at(t: u64) -> f64 {
    match t % 16 {
        4 => 0.0,
        5 => 9.0,
        6 => 0.0,
        _ => 50.0,
    }
}

#[test]
fn injected_worker_panic_writes_a_postmortem_trace() {
    let _guard = failpoints::exclusive();
    failpoints::configure(
        "runner::worker::recv",
        FailRule::new(FailAction::Panic).after(40).times(1),
    );
    let dir = tmpdir();
    let tracer = Tracer::new();
    tracer.set_postmortem_dir(Some(dir.clone()));
    let attachments = vec![RunnerAttachment::spring(
        StreamId(0),
        QueryId(0),
        &[0.0, 9.0, 0.0],
        1.0,
        GapPolicy::Skip,
    )
    .unwrap()];
    let sink = Arc::new(VecSink::new());
    let mut runner = Runner::spawn_with_observability(
        attachments,
        2,
        sink,
        None,
        RestartPolicy::default(),
        Some(tracer),
    )
    .unwrap();
    // One frame per sample so the `.after(40)` budget lands mid-stream.
    runner.set_max_batch(1);
    for t in 0..200 {
        runner.push(StreamId(0), &value_at(t)).unwrap();
    }
    runner.finish_stream(StreamId(0)).unwrap();
    runner.shutdown().unwrap();
    failpoints::clear();

    // Exactly one heal happened, so exactly one postmortem file exists,
    // named after the restart reason.
    let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("postmortem-"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "{dumps:?}");
    let name = dumps[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(name.contains("worker-restarted"), "{name}");

    let doc = Value::parse(&std::fs::read_to_string(&dumps[0]).unwrap())
        .expect("postmortem must be valid chrome-trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    let named = |name: &str| -> Vec<&Value> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .collect()
    };
    // The dead incarnation's rings survive re-registration: its final
    // frame spans are in the dump.
    assert!(!named("frame").is_empty(), "no frame span in postmortem");
    // The supervisor recorded the restart…
    let restarts = named("worker_restart");
    assert_eq!(restarts.len(), 1, "{restarts:?}");
    assert_eq!(restarts[0].get("ph").and_then(|p| p.as_str()), Some("i"));
    // …and the log replay that rebuilt the worker, as a span with the
    // replayed-message count in its args.
    let replays = named("replay");
    assert_eq!(replays.len(), 1, "{replays:?}");
    assert_eq!(replays[0].get("ph").and_then(|p| p.as_str()), Some("X"));
    let replayed = replays[0]
        .get("args")
        .and_then(|a| a.get("arg"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(replayed > 0.0, "replay span must cover queued messages");
    std::fs::remove_dir_all(&dir).ok();
}
