//! Wire-parser throughput: `ProtoParser::feed` over 4 KiB reads plus
//! `CarryForward::resolve` per sample, the serve acceptor's per-sample
//! parse cost.
//!
//! Rows (ns per line = time per iteration ÷ [`LINES`]):
//! * `wire_4dp` — springbench-shaped `{v:.4}` lines around 500, the
//!   one-pass decimal scan;
//! * `exponent` — `5.0012e2` lines, which the scan rejects, so they
//!   take the text path (lossy copy, trim, tokenizer, `str::parse`);
//! * `crlf` — `{v:.4}\r\n` lines, the text path by their `\r`.
//!
//! `ci.sh --quick` captures these results in BENCH_SMOKE.json, and
//! `scripts/bench_compare.sh` gates the family.

use std::collections::VecDeque;
use std::hint::black_box;

use spring_bench::harness::Bench;
use spring_cli::proto::{CarryForward, ProtoEvent, ProtoParser};
use spring_util::rng::Rng;

/// Lines per timed iteration.
const LINES: usize = 4096;
/// Bytes per `feed` call (springbench's proto replay reads this much).
const READ_CHUNK: usize = 4096;

/// [`LINES`] lines of noise around 500, each written by `fmt`.
fn blob(fmt: impl Fn(f64) -> String) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(7);
    let mut bytes = Vec::new();
    for _ in 0..LINES {
        bytes.extend_from_slice(fmt(500.0 + rng.normal()).as_bytes());
    }
    bytes
}

fn main() {
    let b = Bench::new("proto_feed");
    let rows: [(&str, Vec<u8>); 3] = [
        ("wire_4dp", blob(|v| format!("{v:.4}\n"))),
        ("exponent", blob(|v| format!("{v:.4e}\n"))),
        ("crlf", blob(|v| format!("{v:.4}\r\n"))),
    ];
    for (id, bytes) in rows {
        let mut parser = ProtoParser::new();
        let mut carry = CarryForward::default();
        let mut events = VecDeque::new();
        b.bench_elems(id, LINES as u64, || {
            let mut samples = 0usize;
            for chunk in bytes.chunks(READ_CHUNK) {
                parser.feed(black_box(chunk), &mut events);
                for ev in events.drain(..) {
                    if let ProtoEvent::Sample(v) = ev {
                        if let Some(x) = carry.resolve(v) {
                            black_box(x);
                            samples += 1;
                        }
                    }
                }
            }
            assert_eq!(samples, LINES, "{id}: every line is one sample");
        });
    }
}
