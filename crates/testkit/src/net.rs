//! Scripted multi-client network driver for `spring serve` conformance.
//!
//! The serve event loop's contract is *transcript equivalence*: whatever
//! the chunking, pacing, or concurrency of its clients, each connection
//! must see exactly the matches a bare monitor stepped one sample at a
//! time ([`crate::differential::run_bare`]) reports for the same
//! samples. This module supplies the adversarial
//! client side of that check, with no dependency on the CLI crate (the
//! CLI depends on the testkit, so the comparison itself lives in
//! `crates/cli/tests/`):
//!
//! * [`ClientScript`] / [`ClientOp`] — a deterministic per-connection
//!   plan: send exact byte slices (including partial lines — a script
//!   may split `"1.5\n"` anywhere), sleep between writes, slow-read the
//!   response, hang up mid-line, or abort without closing cleanly.
//! * [`run_clients`] — drives N scripts concurrently against one
//!   address, one thread per client, and returns each client's full
//!   response transcript in script order.
//! * [`sample_script`] / [`split_script`] — builders for the common
//!   cases: one write per sample, or the same bytes re-chunked at
//!   arbitrary boundaries (seeded via [`spring_util::rng::Rng`]).
//! * [`canonical_matches`] — normalizes a serve or monitor transcript
//!   into the shared `ticks S..=E len L distance D` form (dropping the
//!   serve-only `reported_at`/`(stream end)` trailer and the monitor's
//!   `match N:` counter, deduplicating repeated confirmations) so the
//!   two can be compared byte-for-byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use spring_util::rng::Rng;

/// One step of a [`ClientScript`].
#[derive(Debug, Clone)]
pub enum ClientOp {
    /// Write these exact bytes (need not align with protocol lines).
    Send(Vec<u8>),
    /// Pause before the next step (lets the server interleave others).
    Sleep(Duration),
    /// Close the write side (EOF to the server), keep reading.
    CloseWrite,
}

/// A deterministic plan for one connection.
#[derive(Debug, Clone, Default)]
pub struct ClientScript {
    /// Steps executed in order.
    pub ops: Vec<ClientOp>,
    /// Read the response this many bytes at a time with this delay —
    /// a deliberately slow reader exercising the server's write-side
    /// buffering. `None` reads at full speed.
    pub slow_read: Option<(usize, Duration)>,
    /// Drop the socket right after the last op *without* closing the
    /// write side first: the server sees a reset/EOF mid-session and
    /// must clean up without a transcript.
    pub abort: bool,
}

impl ClientScript {
    /// A script that sends each op in order and reads at full speed.
    pub fn new(ops: Vec<ClientOp>) -> Self {
        ClientScript {
            ops,
            slow_read: None,
            abort: false,
        }
    }
}

/// Builds the plain script for a sample sequence: one `Send` per
/// `value\n` line, then a clean write-side close.
pub fn sample_script(samples: &[f64]) -> ClientScript {
    let mut ops: Vec<ClientOp> = samples
        .iter()
        .map(|v| ClientOp::Send(format!("{v}\n").into_bytes()))
        .collect();
    ops.push(ClientOp::CloseWrite);
    ClientScript::new(ops)
}

/// Builds a script sending the same bytes as [`sample_script`] but
/// re-chunked at seeded-random boundaries (including splits inside a
/// number and writes spanning several lines), with tiny sleeps between
/// chunks so the server observes genuinely partial reads.
pub fn split_script(samples: &[f64], rng: &mut Rng) -> ClientScript {
    let mut bytes = Vec::new();
    for v in samples {
        bytes.extend_from_slice(format!("{v}\n").as_bytes());
    }
    let mut ops = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let step = rng.usize_range(1, 8);
        let end = (at + step).min(bytes.len());
        ops.push(ClientOp::Send(bytes[at..end].to_vec()));
        if rng.u64_below(3) == 0 {
            ops.push(ClientOp::Sleep(Duration::from_millis(1)));
        }
        at = end;
    }
    ops.push(ClientOp::CloseWrite);
    ClientScript::new(ops)
}

/// Runs one script against `addr`, returning the full response read
/// from the connection ("" for aborted connections, which drop without
/// draining).
///
/// # Errors
/// Propagates connect/read/write failures — except on aborted scripts,
/// where write errors are expected (the server may already have
/// dropped us) and ignored.
pub fn run_client(addr: SocketAddr, script: &ClientScript) -> std::io::Result<String> {
    let mut sock = TcpStream::connect(addr)?;
    for op in &script.ops {
        match op {
            ClientOp::Send(bytes) => {
                if let Err(e) = sock.write_all(bytes) {
                    if script.abort {
                        return Ok(String::new());
                    }
                    return Err(e);
                }
            }
            ClientOp::Sleep(d) => std::thread::sleep(*d),
            ClientOp::CloseWrite => sock.shutdown(std::net::Shutdown::Write)?,
        }
    }
    if script.abort {
        // Dropping the socket here resets the connection (unread data
        // may trigger RST); the transcript is intentionally empty.
        return Ok(String::new());
    }
    let mut response = String::new();
    match script.slow_read {
        None => {
            sock.read_to_string(&mut response)?;
        }
        Some((chunk, delay)) => {
            let mut raw = Vec::new();
            let mut buf = vec![0u8; chunk.max(1)];
            loop {
                let n = sock.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                raw.extend_from_slice(&buf[..n]);
                std::thread::sleep(delay);
            }
            response = String::from_utf8_lossy(&raw).into_owned();
        }
    }
    Ok(response)
}

/// Drives all scripts concurrently (one thread each) against `addr` and
/// returns their transcripts in script order.
///
/// # Panics
/// Panics if a client thread panics or its connection fails — in a
/// conformance test both mean the server broke its contract.
pub fn run_clients(addr: SocketAddr, scripts: &[ClientScript]) -> Vec<String> {
    let handles: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|script| std::thread::spawn(move || run_client(addr, &script).unwrap()))
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect()
}

/// Normalizes one match-report transcript to the representation shared
/// by `spring serve` and `spring monitor`: per line, keep only
/// `ticks S..=E len L distance D`, drop everything that is not a match
/// line, and deduplicate repeated confirmations of the same match
/// (serve may re-deliver across frame flushes; `monitor` numbers each
/// distinct match exactly once).
pub fn canonical_matches(transcript: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in transcript.lines() {
        // serve: "match ticks S..=E len L distance D reported_at T[ (stream end)]"
        // monitor: "match N: ticks S..=E len L distance D reported_at T"
        let Some(at) = line.find("ticks ") else {
            continue;
        };
        if !line.starts_with("match") {
            continue;
        }
        let core = match line.find(" reported_at") {
            Some(end) => &line[at..end],
            None => &line[at..],
        };
        let core = core.trim().to_string();
        if !out.contains(&core) {
            out.push(core);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_matches_unifies_serve_and_monitor_lines() {
        let serve = "listening on 127.0.0.1:1\n\
                     match ticks 3..=5 len 3 distance 0.500000 reported_at 6\n\
                     match ticks 3..=5 len 3 distance 0.500000 reported_at 7 (stream end)\n\
                     done 1 match(es) over 7 ticks\n";
        let monitor = "match 1: ticks 3..=5 len 3 distance 0.500000 reported_at 6\ndone\n";
        assert_eq!(canonical_matches(serve), canonical_matches(monitor));
        assert_eq!(
            canonical_matches(serve),
            vec!["ticks 3..=5 len 3 distance 0.500000".to_string()]
        );
    }

    #[test]
    fn canonical_matches_keeps_distinct_matches_in_order() {
        let t = "match ticks 1..=2 len 2 distance 0.000000 reported_at 3\n\
                 error: `x` is not a number\n\
                 match ticks 4..=6 len 3 distance 1.000000 reported_at 7\n";
        assert_eq!(
            canonical_matches(t),
            vec![
                "ticks 1..=2 len 2 distance 0.000000".to_string(),
                "ticks 4..=6 len 3 distance 1.000000".to_string(),
            ]
        );
    }

    #[test]
    fn split_script_reassembles_to_the_same_bytes() {
        let samples = [1.5, -2.0, f64::NAN, 300.25];
        let mut rng = Rng::seed_from_u64(7);
        let script = split_script(&samples, &mut rng);
        let mut joined = Vec::new();
        for op in &script.ops {
            if let ClientOp::Send(b) = op {
                joined.extend_from_slice(b);
            }
        }
        let mut expected = Vec::new();
        for v in &samples {
            expected.extend_from_slice(format!("{v}\n").as_bytes());
        }
        assert_eq!(joined, expected);
        assert!(matches!(script.ops.last(), Some(ClientOp::CloseWrite)));
    }
}
