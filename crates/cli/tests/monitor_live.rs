//! `spring monitor` on a live pipe: readings held for a frame are pushed
//! before every read that may block, so a match is printed while stdin
//! is still open — inline and through `--shards 2` — instead of when
//! the frame fills or the pipe closes.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Duration;

fn match_arrives_before_stdin_closes(extra: &[&str]) {
    let query = std::env::temp_dir().join(format!(
        "spring-monitor-live-{}{}.csv",
        std::process::id(),
        extra.concat()
    ));
    std::fs::write(&query, "0\n9\n0\n").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_spring"))
        .args(["monitor", "--epsilon", "1", "--query"])
        .arg(&query)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    // Seven readings: far fewer than a 64-reading frame.
    stdin.write_all(b"50\n50\n0\n9\n0\n50\n50\n").unwrap();
    // Read stdout on its own thread, so a held match times out here
    // instead of hanging the test.
    let (tx, lines) = std::sync::mpsc::channel();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let reader = std::thread::spawn(move || stdout.lines().try_for_each(|l| tx.send(l.unwrap())));
    let first = lines.recv_timeout(Duration::from_secs(10));
    if first.is_err() {
        child.kill().unwrap();
    }
    let first = first.expect("no match line while stdin was open");
    assert!(first.starts_with("match 1: ticks 3..=5 "), "{first}");
    drop(stdin);
    assert_eq!(
        lines.iter().collect::<Vec<_>>(),
        ["1 match(es) over 7 ticks"]
    );
    assert!(child.wait().unwrap().success());
    reader.join().unwrap().unwrap();
    std::fs::remove_file(&query).ok();
}

#[test]
fn inline_monitor_prints_a_match_before_stdin_closes() {
    match_arrives_before_stdin_closes(&[]);
}

#[test]
fn sharded_monitor_prints_a_match_before_stdin_closes() {
    match_arrives_before_stdin_closes(&["--shards", "2"]);
}
