//! Fault conformance for the `spring serve` event loop (`--features
//! failpoints`): injected socket faults at the `serve::accept`,
//! `serve::read`, and `serve::write` sites must cost at most the one
//! connection they hit — never the server, never another connection —
//! and a stalled runner worker may delay only the connections it owns.
//!
//! Each test serializes on `failpoints::exclusive()` (the registry is
//! process-global) and asserts the site actually fired, so a renamed
//! or dropped `fail_point!` call site fails loudly instead of testing
//! nothing.

#![cfg(feature = "failpoints")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use spring_cli::serve::{serve_listener, ServeOptions};
use spring_core::MonitorSpec;
use spring_dtw::Kernel;
use spring_monitor::failpoints::{self, FailAction, FailRule};

const SAMPLES: [f64; 7] = [50.0, 50.0, 0.0, 9.0, 0.0, 50.0, 50.0];

fn options(accept_limit: usize) -> ServeOptions {
    ServeOptions {
        query: vec![0.0, 9.0, 0.0],
        spec: MonitorSpec::Spring { epsilon: 1.0 },
        kernel: Kernel::Squared,
        once: false,
        batch: 3,
        shards: 2,
        linger: None,
        max_conns: 64,
        accept_limit: Some(accept_limit),
        trace_dir: None,
    }
}

fn start(accept_limit: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        serve_listener(listener, options(accept_limit), &mut Vec::new()).unwrap();
    });
    (addr, handle)
}

/// A full clean session; returns the transcript.
fn session(addr: SocketAddr) -> String {
    let mut sock = TcpStream::connect(addr).unwrap();
    for v in SAMPLES {
        writeln!(sock, "{v}").unwrap();
    }
    sock.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    response
}

/// A session that tolerates being dropped by the server: returns
/// whatever arrived before the reset (write/read errors map to "").
fn doomed_session(addr: SocketAddr) -> String {
    let mut sock = TcpStream::connect(addr).unwrap();
    for v in SAMPLES {
        if writeln!(sock, "{v}").is_err() {
            return String::new();
        }
    }
    let _ = sock.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    match sock.read_to_string(&mut response) {
        Ok(_) => response,
        Err(_) => String::new(), // RST mid-read: nothing usable arrived
    }
}

#[test]
fn injected_read_fault_drops_one_connection_not_the_server() {
    let _guard = failpoints::exclusive();
    // The very first connection read(2) fails; the rule then exhausts,
    // so the second connection runs clean.
    failpoints::configure("serve::read", FailRule::new(FailAction::Error).times(1));
    let (addr, server) = start(2);
    let doomed = doomed_session(addr);
    assert!(
        !doomed.contains("done"),
        "the faulted connection still completed:\n{doomed}"
    );
    assert!(failpoints::fired("serve::read") >= 1);
    let clean = session(addr);
    assert!(
        clean.contains("match ticks 3..=5") && clean.contains("done 1 match(es) over 7 ticks"),
        "the server did not survive the read fault:\n{clean}"
    );
    server.join().unwrap();
}

#[test]
fn injected_write_fault_drops_one_connection_not_the_server() {
    let _guard = failpoints::exclusive();
    failpoints::configure("serve::write", FailRule::new(FailAction::Error).times(1));
    let (addr, server) = start(2);
    let doomed = doomed_session(addr);
    assert!(
        !doomed.contains("done"),
        "the faulted connection still completed:\n{doomed}"
    );
    assert!(failpoints::fired("serve::write") >= 1);
    let clean = session(addr);
    assert!(
        clean.contains("done 1 match(es) over 7 ticks"),
        "the server did not survive the write fault:\n{clean}"
    );
    server.join().unwrap();
}

#[test]
fn injected_accept_fault_is_transient_not_fatal() {
    let _guard = failpoints::exclusive();
    // accept(2) fails once; the listener stays registered and the
    // retried accept picks the queued connection up.
    failpoints::configure("serve::accept", FailRule::new(FailAction::Error).times(1));
    let (addr, server) = start(1);
    let transcript = session(addr);
    assert!(failpoints::fired("serve::accept") >= 1);
    assert!(
        transcript.contains("done 1 match(es) over 7 ticks"),
        "{transcript}"
    );
    server.join().unwrap();
}

#[test]
fn delayed_accept_and_read_only_add_latency() {
    let _guard = failpoints::exclusive();
    failpoints::configure(
        "serve::accept",
        FailRule::new(FailAction::Delay(25)).times(1),
    );
    failpoints::configure("serve::read", FailRule::new(FailAction::Delay(25)).times(2));
    let (addr, server) = start(1);
    let begun = std::time::Instant::now();
    let transcript = session(addr);
    assert!(
        transcript.contains("done 1 match(es) over 7 ticks"),
        "{transcript}"
    );
    assert!(failpoints::fired("serve::accept") >= 1);
    assert!(failpoints::fired("serve::read") >= 1);
    assert!(
        begun.elapsed() >= Duration::from_millis(25),
        "delays did not take effect"
    );
    server.join().unwrap();
}

#[test]
fn a_stalled_worker_delays_only_its_own_connections() {
    let _guard = failpoints::exclusive();
    // The first frame any worker takes stalls for 1.5 s: stream 0's, on
    // worker 1 of 2.
    failpoints::configure(
        "runner::worker::frame",
        FailRule::new(FailAction::Delay(1500)).times(1),
    );
    let (addr, server) = start(3);
    let stalled = std::thread::spawn(move || session(addr));
    std::thread::sleep(Duration::from_millis(150));
    // Stream 1 lives on worker 0: its session ends while worker 1 is
    // still stalled.
    let begun = Instant::now();
    let quick = session(addr);
    let took = begun.elapsed();
    assert!(
        quick.ends_with("done 1 match(es) over 7 ticks\n"),
        "{quick}"
    );
    assert!(
        took < Duration::from_millis(700),
        "stream 1 waited {took:?} behind worker 1's stall"
    );
    // Stream 0 has ended (its matches are still queued behind the
    // stall), so nothing may attach to it any more.
    let mut control = TcpStream::connect(addr).unwrap();
    writeln!(control, "attach 0 0 0.5").unwrap();
    control.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    control.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("error: no live stream 0\n"), "{reply}");
    let stalled = stalled.join().unwrap();
    assert!(
        stalled.contains("match ticks 3..=5")
            && stalled.ends_with("done 1 match(es) over 7 ticks\n"),
        "{stalled}"
    );
    assert_eq!(failpoints::fired("runner::worker::frame"), 1);
    server.join().unwrap();
}
