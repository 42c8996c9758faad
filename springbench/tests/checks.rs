//! The benchmark's own checks: the tail-percentile rule, the block
//! periodicity self-check, the transcript verifier on a transcript
//! captured from an in-process `serve_listener`, and the `/metrics`
//! reader on that server's exposition.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

use spring_cli::serve::{serve_listener, ServeOptions};
use spring_core::MonitorSpec;
use spring_dtw::Kernel;
use springbench::prom::Exposition;
use springbench::reference::{periodic_reference, Attachment};
use springbench::stats::{quartiles, tail_percentile};
use springbench::verify::verify;
use springbench::workload::{find, Inputs, WORKLOADS};

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    // 1000 samples: p99 is the 990th, with exactly ten beyond it.
    assert_eq!(tail_percentile(&values, 99), Some(990.0));
    // 999 samples leave only nine beyond the nearest-rank p99.
    assert_eq!(tail_percentile(&values[..999], 99), None);
    assert_eq!(tail_percentile(&values[..20], 50), Some(10.0));
    assert_eq!(tail_percentile(&values[..19], 50), None);
    assert_eq!(tail_percentile(&[], 50), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4)
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[1.0]), None);
}

fn spike() -> Vec<Attachment> {
    vec![Attachment {
        query: vec![1.0, 5.0, 1.0],
        epsilon: 0.5,
    }]
}

#[test]
fn periodicity_check_accepts_a_quiet_block() {
    let mut block = vec![50.0; 10];
    block.extend([1.0, 5.0, 1.0]);
    block.extend([50.0; 10]);
    let matches = periodic_reference(&block, &spike()).expect("periodic");
    assert_eq!(matches.len(), 1);
    assert_eq!((matches[0].start, matches[0].end), (11, 13));
}

#[test]
fn periodicity_check_rejects_a_block_that_does_not_end_quiet() {
    let mut block = vec![50.0; 10];
    block.extend([1.0, 5.0, 1.0]);
    let err = periodic_reference(&block, &spike()).expect_err("the plant touches the end");
    assert!(err.contains("does not end quiet"), "{err}");
}

#[test]
fn every_workload_generates_periodic_inputs() {
    for w in &WORKLOADS {
        let inputs = Inputs::generate(w, 7, true).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for (b, e) in inputs.blocks.iter().zip(&inputs.expected) {
            assert_eq!(b.len() % 64, 0, "{}: blocks are whole frames", w.name);
            // Each planted occurrence is found once, and nothing else.
            assert_eq!(e.per_block.len(), b.plants, "{}", w.name);
            for n in [0, 1, b.len() - 1, b.len(), 3 * b.len() + 5] {
                assert_eq!(b.samples_within(b.bytes_before(n)), n);
            }
        }
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let w = find("fanout_q32").expect("workload");
    let (a, b) = (
        Inputs::generate(w, 3, true).unwrap(),
        Inputs::generate(w, 3, true).unwrap(),
    );
    assert_eq!(a.blocks[1].bytes, b.blocks[1].bytes);
    assert_eq!(a.queries, b.queries);
    let c = Inputs::generate(w, 4, true).unwrap();
    assert_ne!(a.blocks[1].bytes, c.blocks[1].bytes);
}

/// Streams `copies` copies of stream 0's block through an in-process
/// server (`--shards 2 --batch 64`), then scrapes it. Returns the data
/// transcript and the `/metrics` response.
fn capture(inputs: &Inputs, copies: usize) -> (String, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let opts = ServeOptions {
        query: inputs.queries[0].clone(),
        spec: MonitorSpec::Spring {
            epsilon: inputs.workload.epsilon(),
        },
        kernel: Kernel::Squared,
        once: false,
        batch: 64,
        shards: 2,
        linger: None,
        max_conns: 8,
        accept_limit: Some(2),
        trace_dir: None,
    };
    let server = std::thread::spawn(move || {
        serve_listener(listener, opts, &mut Vec::new()).expect("serve");
    });
    let mut sock = TcpStream::connect(addr).expect("connect");
    for _ in 0..copies {
        sock.write_all(&inputs.blocks[0].bytes).expect("write");
    }
    sock.shutdown(Shutdown::Write).expect("half-close");
    let mut transcript = String::new();
    sock.read_to_string(&mut transcript).expect("transcript");
    let mut scrape = TcpStream::connect(addr).expect("connect");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("request");
    scrape.shutdown(Shutdown::Write).expect("half-close");
    let mut http = String::new();
    scrape.read_to_string(&mut http).expect("response");
    server.join().expect("server thread");
    (transcript, http)
}

fn replace_line(t: &str, index: usize, with: Option<&str>) -> String {
    t.lines()
        .enumerate()
        .filter_map(|(i, l)| if i == index { with } else { Some(l) })
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn verifier_counts_every_corruption_of_a_real_transcript() {
    let w = find("wire_m16").expect("workload");
    let inputs = Inputs::generate(w, 1, true).expect("inputs");
    let copies = 3;
    let sent = copies * inputs.blocks[0].len();
    let expected = &inputs.expected[0];
    assert!(
        expected.per_block.len() >= 2,
        "the test needs two matches per block"
    );
    let (clean, _) = capture(&inputs, copies as usize);
    let failures = |t: &str| verify(t, expected, sent).failed(sent);

    let v = verify(&clean, expected, sent);
    assert_eq!(v.failed(sent), 0, "{v:?}\n{clean}");
    assert_eq!(v.match_lines, copies * expected.per_block.len() as u64);

    let lines: Vec<&str> = clean.lines().collect();
    let first = lines
        .iter()
        .position(|l| l.starts_with("match "))
        .expect("a match");
    let done = lines
        .iter()
        .position(|l| l.starts_with("done "))
        .expect("done");

    let dropped = replace_line(&clean, first, None);
    assert_eq!(verify(&dropped, expected, sent).missing, 1);
    assert!(failures(&dropped) > 0);

    let extra = format!("{}\n{clean}", lines[first]);
    assert_eq!(verify(&extra, expected, sent).extra, 1);
    assert!(failures(&extra) > 0);

    // One digit of the distance changed: missing once, extra once,
    // counted as one failed match.
    let (head, digit) = lines[first].split_at(lines[first].find(" reported_at").unwrap() - 1);
    let bumped = if digit.starts_with('9') { '8' } else { '9' };
    let altered_line = format!("{head}{bumped}{}", &digit[1..]);
    let altered = replace_line(&clean, first, Some(&altered_line));
    assert_eq!(verify(&altered, expected, sent).failed_matches(), 1);

    let n = v.done.expect("done").0;
    let short_count = lines[done].replacen(&format!("done {n} "), &format!("done {} ", n - 1), 1);
    assert!(failures(&replace_line(&clean, done, Some(&short_count))) > 0);
    let short_ticks = lines[done].replace(&format!("over {sent} "), &format!("over {} ", sent - 1));
    assert_eq!(
        verify(
            &replace_line(&clean, done, Some(&short_ticks)),
            expected,
            sent
        )
        .failed_samples(sent),
        1
    );

    let missing_done = replace_line(&clean, done, None);
    assert!(verify(&missing_done, expected, sent).connection_failed());

    // Several attachments interleave their lines: order is not checked.
    let mut reordered: Vec<&str> = lines.clone();
    reordered.reverse();
    let reordered = reordered
        .iter()
        .map(|l| format!("{l}\n"))
        .collect::<String>();
    assert_eq!(failures(&reordered), 0);
}

#[test]
fn metrics_reader_parses_a_captured_exposition() {
    let w = find("wire_m16").expect("workload");
    let inputs = Inputs::generate(w, 2, true).expect("inputs");
    let (_, http) = capture(&inputs, 2);
    let scrape = Exposition::from_http(&http).expect("exposition");
    let samples = 2.0 * inputs.blocks[0].len() as f64;
    assert_eq!(scrape.value("spring_ticks_total"), Some(samples));
    assert_eq!(
        scrape.value("spring_matches_total"),
        Some(2.0 * inputs.expected[0].per_block.len() as f64)
    );
    let shards = scrape.values("spring_shard_ticks_total");
    assert_eq!(shards.len(), 2);
    assert_eq!(shards.iter().sum::<f64>(), samples);
    assert!(scrape.value("spring_batch_len_count").unwrap() > 0.0);
    assert_eq!(scrape.value("spring_worker_restarts_total"), Some(0.0));
    assert!(scrape.value("spring_conn_read_bytes_total").unwrap() >= samples);
    let features = scrape
        .label("spring_build_info", "features")
        .expect("build info");
    assert!(!features.contains("failpoints"), "{features}");
    assert!(Exposition::from_http("HTTP/1.1 404 Not Found\r\n\r\nnope").is_err());
    assert!(Exposition::parse("spring_ticks_total twelve").is_err());
}

#[test]
fn traced_replay_yields_chrome_json_and_a_waterfall() {
    use springbench::layers::{median_costs, replay, Spans, Waterfall};
    let w = find("wire_m16").expect("workload");
    let inputs = Inputs::generate(w, 1, true).expect("inputs");
    let (mut spans, mut chunk) = (Spans::default(), 0);
    let rounds = replay(
        &inputs,
        std::time::Duration::ZERO,
        1,
        &mut spans,
        &mut chunk,
    )
    .expect("replay");
    assert_eq!(rounds.len(), 1);
    let costs = median_costs(&rounds);
    assert!(
        costs.kernel_step_ns > 0.0 && costs.runner_cpu_ns > 0.0,
        "{costs:?}"
    );

    let doc = spring_util::json::Value::parse(&spans.to_chrome_json()).expect("JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents");
    assert_eq!(events.len(), spans.spans().len() + 1, "one metadata record");
    let ids: std::collections::HashSet<u64> = spans.spans().iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.spans().len(), "span ids are unique");
    for s in spans.spans() {
        assert!(s.parent == 0 || ids.contains(&s.parent), "{s:?}");
        assert_eq!(s.chunk, chunk);
    }
    for ev in &events[1..] {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some());
    }

    // The rows add up to the untraced total; the remainder is what is left.
    let measured = costs.proto_feed_ns + costs.runner_cpu_ns;
    let fall = Waterfall::new(&costs, 2.0 * measured / 1e3);
    let rows = fall.kernel + fall.engine_self + fall.runner_self + fall.proto + fall.serve_self;
    assert!((rows - fall.total).abs() < 1e-6 * fall.total);
    assert!(fall.reconciles(0.25));
    assert!(!Waterfall::new(&costs, 0.5 * measured / 1e3).reconciles(0.25));
}
