//! Network conformance for the `spring serve` event loop.
//!
//! The contract under test: whatever the clients do to the byte stream
//! — partial writes cut inside numbers, pipelined samples, slow reads,
//! mid-line disconnects, hundreds of concurrent connections — every
//! completed session's match transcript is **identical** to what a
//! bare monitor reports for the same samples, for every shards × batch
//! configuration. The scripted clients come from `spring_testkit::net`;
//! the oracle is the differential fuzzer's reference,
//! `spring_testkit::differential::run_bare`: per-sample `Monitor::step`
//! with gaps carried forward. It shares no ingestion code with the
//! server, so a fault in the frame path cannot hide in the oracle too;
//! `spring monitor` steps through the same `ingest_frame` as serve.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use spring_cli::serve::{serve_listener, ServeOptions};
use spring_core::MonitorSpec;
use spring_dtw::Kernel;
use spring_monitor::GapPolicy;
use spring_testkit::differential::run_bare;
use spring_testkit::net::{
    canonical_matches, run_client, run_clients, sample_script, split_script, ClientOp, ClientScript,
};
use spring_testkit::Scenario;
use spring_util::rng::Rng;

const QUERY: [f64; 3] = [0.0, 9.0, 0.0];
const EPSILON: f64 = 1.0;

/// Streams with planted pattern occurrences, gaps, and near-misses —
/// one per concurrent client so shard routing actually fans out.
fn client_streams() -> Vec<Vec<f64>> {
    vec![
        vec![50.0, 50.0, 0.0, 9.0, 0.0, 50.0, 50.0],
        vec![0.5, 9.0, 0.5, 30.0, 0.0, 9.0, 0.0, 30.0, 0.0, 8.8, 0.1],
        // Gaps carry the last value forward mid-pattern.
        vec![20.0, 0.0, 9.0, f64::NAN, 0.0, 20.0, 20.0],
        // A trailing candidate only the end-of-stream flush reports.
        vec![40.0, 40.0, 0.0, 9.0, 0.2],
        // No match at all: the transcript is just the summary line.
        vec![5.0, 5.0, 5.0, 5.0],
    ]
}

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spring-serve-conf-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// The oracle: `samples` through a bare monitor, stepped one sample at
/// a time with serve's carry-forward gap handling, each match in the
/// form [`canonical_matches`] gives a transcript line.
fn reference_matches(samples: &[f64]) -> Vec<String> {
    let scenario = Scenario {
        stream: samples.to_vec(),
        query: QUERY.to_vec(),
        epsilon: EPSILON,
        gap_policy: GapPolicy::CarryForward,
    };
    let spec = MonitorSpec::Spring { epsilon: EPSILON };
    run_bare(&scenario, spec)
        .unwrap()
        .iter()
        .map(|m| {
            let (start, end, len, d) = (m.start, m.end, m.len(), m.distance);
            format!("ticks {start}..={end} len {len} distance {d:.6}")
        })
        .collect()
}

fn server_options(shards: usize, batch: usize, accept_limit: usize) -> ServeOptions {
    ServeOptions {
        query: QUERY.to_vec(),
        spec: MonitorSpec::Spring { epsilon: EPSILON },
        kernel: Kernel::Squared,
        once: false,
        batch,
        shards,
        linger: None,
        max_conns: 1024,
        accept_limit: Some(accept_limit),
        trace_dir: None,
    }
}

fn start_server(options: ServeOptions) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        serve_listener(listener, options, &mut Vec::new()).unwrap();
    });
    (addr, handle)
}

/// Checks the paper's guarantees on every `match` line of a serve
/// transcript (`match ticks S..=E len L distance D reported_at T`):
/// the distance qualifies (d ≤ ε), the report comes no earlier than the
/// match's last tick, `len` is `E − S + 1`, and — each serve stream
/// carrying a single attachment — reported matches are disjoint
/// (Eq. 9). Returns the number of match lines.
fn assert_paper_guarantees(transcript: &str, context: &str) -> usize {
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for line in transcript.lines().filter(|l| l.starts_with("match ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert!(
            f.len() >= 9
                && f[1] == "ticks"
                && f[3] == "len"
                && f[5] == "distance"
                && f[7] == "reported_at",
            "{context}: malformed match line `{line}`"
        );
        let (start, end) = f[2].split_once("..=").unwrap();
        let (start, end): (u64, u64) = (start.parse().unwrap(), end.parse().unwrap());
        let len: u64 = f[4].parse().unwrap();
        let distance: f64 = f[6].parse().unwrap();
        let reported_at: u64 = f[8].parse().unwrap();
        assert!(distance <= EPSILON, "{context}: d > ε in `{line}`");
        assert!(reported_at >= end, "{context}: reported early in `{line}`");
        assert_eq!(len, end - start + 1, "{context}: bad len in `{line}`");
        spans.push((start, end));
    }
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(
            w[0].1 < w[1].0,
            "{context}: overlapping reports {:?} and {:?}",
            w[0],
            w[1]
        );
    }
    spans.len()
}

/// The headline check: shards {1,2,4} × batch {1,64}, concurrent
/// clients mixing clean writes, seeded byte-boundary splits, and slow
/// readers — every transcript byte-identical (canonicalized) to the
/// bare monitor run on the same samples, and every match line
/// keeping the paper's guarantees.
#[test]
fn transcripts_match_inline_monitor_across_configs() {
    let streams = client_streams();
    let expected: Vec<Vec<String>> = streams.iter().map(|s| reference_matches(s)).collect();
    // At least one stream must actually match, or the test is vacuous.
    assert!(expected.iter().any(|m| !m.is_empty()), "{expected:?}");
    let mut rng = Rng::seed_from_u64(0x5EEDED);
    let mut checked = 0;
    for shards in [1usize, 2, 4] {
        for batch in [1usize, 64] {
            let scripts: Vec<ClientScript> = streams
                .iter()
                .enumerate()
                .map(|(i, samples)| {
                    let mut script = if i % 2 == 0 {
                        sample_script(samples)
                    } else {
                        split_script(samples, &mut rng)
                    };
                    if i == 1 {
                        // One deliberately slow reader per round.
                        script.slow_read = Some((3, Duration::from_millis(1)));
                    }
                    script
                })
                .collect();
            let (addr, server) = start_server(server_options(shards, batch, scripts.len()));
            let transcripts = run_clients(addr, &scripts);
            server.join().unwrap();
            for (i, transcript) in transcripts.iter().enumerate() {
                assert_eq!(
                    canonical_matches(transcript),
                    expected[i],
                    "client {i} diverged under shards={shards} batch={batch}:\n{transcript}"
                );
                assert!(
                    transcript.contains("match(es) over"),
                    "client {i} got no summary under shards={shards} batch={batch}:\n{transcript}"
                );
                checked += assert_paper_guarantees(
                    transcript,
                    &format!("client {i}, shards={shards} batch={batch}"),
                );
            }
        }
    }
    assert!(checked > 0, "no match line was checked");
}

/// Acceptance criterion: one acceptor thread multiplexes 256 live
/// connections, and each still gets its exact transcript.
#[test]
fn multiplexes_256_concurrent_connections() {
    const N: usize = 256;
    let samples = [50.0, 50.0, 0.0, 9.0, 0.0, 50.0, 50.0];
    let expected = reference_matches(&samples);
    assert!(!expected.is_empty());
    let (addr, server) = start_server(server_options(4, 8, N));
    // Hold every connection open concurrently: all N connect and send
    // a first sample, then a barrier releases the rest of the script.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).unwrap();
                sock.write_all(b"50\n").unwrap();
                // Everyone is connected before anyone finishes: the
                // server really does hold N sockets at once.
                barrier.wait();
                let script = ClientScript::new(
                    samples[1..]
                        .iter()
                        .map(|v| ClientOp::Send(format!("{v}\n").into_bytes()))
                        .chain([ClientOp::CloseWrite])
                        .collect(),
                );
                for op in &script.ops {
                    match op {
                        ClientOp::Send(b) => sock.write_all(b).unwrap(),
                        ClientOp::Sleep(d) => std::thread::sleep(*d),
                        ClientOp::CloseWrite => sock.shutdown(std::net::Shutdown::Write).unwrap(),
                    }
                }
                let mut response = String::new();
                use std::io::Read as _;
                sock.read_to_string(&mut response).unwrap();
                response
            })
        })
        .collect();
    let transcripts: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    server.join().unwrap();
    for (i, transcript) in transcripts.iter().enumerate() {
        assert_eq!(
            canonical_matches(transcript),
            expected,
            "client {i} diverged:\n{transcript}"
        );
        assert!(
            transcript.contains("done 1 match(es) over 7 ticks"),
            "client {i}:\n{transcript}"
        );
    }
}

/// Regression: a connected client that writes samples but never reads
/// its responses (and never hangs up) must not stall the other
/// connections — the loop pauses *that* connection and keeps serving.
#[test]
fn stalled_writer_does_not_stall_live_clients() {
    let samples = [50.0, 50.0, 0.0, 9.0, 0.0, 50.0, 50.0];
    let expected = reference_matches(&samples);
    let (addr, server) = start_server(server_options(2, 1, 9));
    // The stalled connection: keeps pumping matching patterns, never
    // reads a byte, never closes. Its socket's receive window fills;
    // the server must park it.
    let stalled = TcpStream::connect(addr).unwrap();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pump = std::thread::spawn({
        let mut sock = stalled.try_clone().unwrap();
        let stop = std::sync::Arc::clone(&stop);
        move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if sock.write_all(b"0\n9\n0\n50\n").is_err() {
                    break; // server dropped us at the hard cap: fine
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    // Eight live clients run complete sessions meanwhile; if the loop
    // ever blocks on the stalled socket, these time out and the test
    // fails on join.
    let scripts: Vec<ClientScript> = (0..8).map(|_| sample_script(&samples)).collect();
    let transcripts = run_clients(addr, &scripts);
    for (i, transcript) in transcripts.iter().enumerate() {
        assert_eq!(
            canonical_matches(transcript),
            expected,
            "live client {i} diverged:\n{transcript}"
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    pump.join().unwrap();
    drop(stalled); // the 9th accept slot: server can now exit
    server.join().unwrap();
}

/// A client vanishing mid-line (abort, no clean shutdown) must be
/// cleaned up without a transcript and without poisoning later
/// connections.
#[test]
fn mid_line_disconnect_cleans_up_and_serving_continues() {
    let samples = [50.0, 50.0, 0.0, 9.0, 0.0, 50.0, 50.0];
    let expected = reference_matches(&samples);
    let (addr, server) = start_server(server_options(2, 3, 2));
    let aborter = ClientScript {
        ops: vec![
            ClientOp::Send(b"0\n9\n0.".to_vec()), // cut inside a number
            ClientOp::Sleep(Duration::from_millis(5)),
        ],
        slow_read: None,
        abort: true,
    };
    assert_eq!(run_client(addr, &aborter).unwrap(), "");
    let clean = run_clients(addr, &[sample_script(&samples)]);
    server.join().unwrap();
    assert_eq!(
        canonical_matches(&clean[0]),
        expected,
        "post-abort client diverged:\n{}",
        clean[0]
    );
}

/// Pinned overhead contract: enabling the flight recorder (`--trace-dir`)
/// must not change a single transcript byte — same scripts, same
/// configuration, byte-identical responses with tracing off and on.
/// The recorder is compiled into every build, so the traced side
/// always records into real rings.
#[test]
fn tracing_enabled_transcripts_are_byte_identical() {
    let dir = tmpdir("traced");
    let streams = client_streams();
    let scripts: Vec<ClientScript> = streams.iter().map(|s| sample_script(s)).collect();
    let (plain_addr, plain_server) = start_server(server_options(2, 3, scripts.len()));
    let plain = run_clients(plain_addr, &scripts);
    plain_server.join().unwrap();
    let mut traced_options = server_options(2, 3, scripts.len());
    traced_options.trace_dir = Some(dir.join("recorder"));
    let (addr, server) = start_server(traced_options);
    let traced = run_clients(addr, &scripts);
    server.join().unwrap();
    assert_eq!(traced, plain, "tracing changed a transcript");
    std::fs::remove_dir_all(&dir).ok();
}

/// Pipelining everything — samples, EOF — into a single write before
/// the server has even seen the connection must produce the same
/// transcript as polite line-at-a-time interaction.
#[test]
fn fully_pipelined_session_is_equivalent() {
    let samples = [30.0, 0.0, 9.0, 0.0, 30.0, 0.1, 8.9, 0.0, 30.0];
    let expected = reference_matches(&samples);
    assert!(!expected.is_empty());
    let mut blob = Vec::new();
    for v in samples {
        blob.extend_from_slice(format!("{v}\n").as_bytes());
    }
    let script = ClientScript::new(vec![ClientOp::Send(blob), ClientOp::CloseWrite]);
    let (addr, server) = start_server(server_options(2, 64, 1));
    let transcripts = run_clients(addr, &[script]);
    server.join().unwrap();
    assert_eq!(
        canonical_matches(&transcripts[0]),
        expected,
        "{}",
        transcripts[0]
    );
}
