//! Seeded fuzz for the serve protocol parser (`spring_cli::proto`).
//!
//! A reference model computes the expected event stream for a byte
//! blob from the protocol spec (split on `\n`, sniff HTTP on the first
//! line, cap over-long lines at one error each, trim, parse); the fuzz
//! then feeds the same blob to [`ProtoParser`] under adversarial
//! framing — random chunk sizes, splits at every byte boundary, abrupt
//! EOF truncation — and demands the identical events every time. Any
//! panic, desync after a bad line, duplicated or lost error fails the
//! test. Scenarios come from the workspace's seeded xoshiro generator,
//! so every failure replays from its seed.

use std::collections::VecDeque;

use spring_cli::proto::{is_http_request, ProtoEvent, ProtoParser};
use spring_util::rng::Rng;

/// Cheap cap so oversized-line scenarios don't need 4 KiB of input.
const MAX_LINE: usize = 64;

/// The reference model: expected events for `bytes` followed by EOF.
fn model(bytes: &[u8]) -> Vec<ProtoEvent> {
    let mut out = Vec::new();
    let mut first = true;
    let mut segments: Vec<(&[u8], bool)> = Vec::new(); // (segment, terminated)
    let mut rest = bytes;
    while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
        segments.push((&rest[..nl], true));
        rest = &rest[nl + 1..];
    }
    if !rest.is_empty() {
        segments.push((rest, false));
    }
    for (seg, _terminated) in segments {
        if seg.len() > MAX_LINE {
            // One error per over-long line, terminated or not; the
            // sniff window closes either way.
            out.push(ProtoEvent::Error(format!("line exceeds {MAX_LINE} bytes")));
            first = false;
            continue;
        }
        let text = String::from_utf8_lossy(seg);
        let line = text.trim();
        if first {
            first = false;
            if is_http_request(line) {
                out.push(ProtoEvent::Http(line.to_string()));
                return out; // everything after an HTTP line is ignored
            }
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.parse::<f64>() {
            Ok(v) => out.push(ProtoEvent::Sample(v)),
            Err(_) => out.push(ProtoEvent::Error(format!("`{line}` is not a number"))),
        }
    }
    out
}

/// Feeds `bytes` in the given chunk sizes (then EOF) and collects the
/// events.
fn drive(bytes: &[u8], chunks: &[usize]) -> Vec<ProtoEvent> {
    let mut p = ProtoParser::with_max_line(MAX_LINE);
    let mut out = VecDeque::new();
    let mut at = 0;
    for &c in chunks {
        if at >= bytes.len() {
            break;
        }
        let end = (at + c.max(1)).min(bytes.len());
        p.feed(&bytes[at..end], &mut out);
        at = end;
    }
    if at < bytes.len() {
        p.feed(&bytes[at..], &mut out);
    }
    p.finish(&mut out);
    out.into_iter().collect()
}

/// NaN-tolerant event equality (`ProtoEvent::Sample(NaN)` is a legal
/// event and must compare equal to itself across framings).
fn same(a: &[ProtoEvent], b: &[ProtoEvent]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (ProtoEvent::Sample(u), ProtoEvent::Sample(v)) => u == v || (u.is_nan() && v.is_nan()),
            _ => x == y,
        })
}

/// Lines drawn only from `[0-9.+-eE]`: some parse as `f64`, some are
/// errors. Together they reach every exit of the parser's one-pass
/// decimal scan: signs, a leading or trailing `.`, a lone `.` or sign,
/// a sign that is not first, a second `.`, exponents, leading zeros,
/// `-0`, and 15-digit (scanned) against 16-digit (text path) mantissas,
/// 2⁵³ ± 1 among them.
const NUMERIC_ALPHABET_LINES: [&str; 26] = [
    "-.5",
    "+3e-2",
    "007",
    "1e400",
    "1e",
    "--1",
    ".",
    "1.2.3",
    "e5",
    "-",
    "+",
    "+.",
    "5.",
    "-0",
    "+0.0",
    "1-2",
    "2E5",
    "0000000000000.5",
    "999999999999999",
    "99999999999999.9",
    "9999999999999999",
    ".0000000000000001",
    "9007199254740991",
    "900719925474099.3",
    "9007199254740993",
    "9.007199254740993",
];

/// One seeded line-soup blob: valid floats, NaN, garbage, comments,
/// blank lines, CRLF endings, non-UTF-8 bytes, over-long runs, lines
/// from the numeric alphabet (bare or with a trailing `\r`), and
/// (sometimes) an HTTP first line; possibly missing its final newline.
fn scenario(rng: &mut Rng) -> Vec<u8> {
    let mut bytes = Vec::new();
    if rng.u64_below(8) == 0 {
        bytes.extend_from_slice(b"GET /metrics HTTP/1.1\r\n");
    }
    let lines = rng.usize_range(1, 16);
    for _ in 0..lines {
        match rng.u64_below(12) {
            0 => bytes.extend_from_slice(b"\n"),                  // blank
            1 => bytes.extend_from_slice(b"# comment line\n"),    // comment
            2 => bytes.extend_from_slice(b"NaN\n"),               // gap marker
            3 => bytes.extend_from_slice(b"not-a-number\n"),      // garbage
            4 => bytes.extend_from_slice(b"\xff\xfe\x80 junk\n"), // non-UTF-8
            5 => {
                // Over the cap: digits so a missing cap would parse it.
                let n = rng.usize_range(MAX_LINE + 1, MAX_LINE * 40);
                bytes.extend(std::iter::repeat_n(b'7', n));
                bytes.push(b'\n');
            }
            6 => {
                // Exactly at the cap: legal, parses as a number.
                bytes.extend(std::iter::repeat_n(b'7', MAX_LINE));
                bytes.push(b'\n');
            }
            7 => {
                let v = rng.f64_range(-1e6, 1e6);
                bytes.extend_from_slice(format!("  {v} \r\n").as_bytes()); // padded + CRLF
            }
            8 | 9 => {
                // Numeric alphabet only: a listed line, or random bytes
                // from the alphabet. A trailing `\r` sends the same
                // text down the general path.
                if rng.u64_below(2) == 0 {
                    let i = rng.usize_range(0, NUMERIC_ALPHABET_LINES.len());
                    bytes.extend_from_slice(NUMERIC_ALPHABET_LINES[i].as_bytes());
                } else {
                    const ALPHABET: &[u8] = b"0123456789.+-eE";
                    for _ in 0..rng.usize_range(1, 8) {
                        bytes.push(ALPHABET[rng.usize_range(0, ALPHABET.len())]);
                    }
                }
                if rng.u64_below(2) == 0 {
                    bytes.push(b'\r');
                }
                bytes.push(b'\n');
            }
            _ => {
                let v = rng.f64_range(-1e3, 1e3);
                bytes.extend_from_slice(format!("{v}\n").as_bytes());
            }
        }
    }
    if rng.u64_below(4) == 0 && !bytes.is_empty() {
        bytes.pop(); // strip the final newline: trailing partial line
    }
    bytes
}

#[test]
fn random_framing_matches_the_model() {
    let mut rng = Rng::seed_from_u64(0xF00D);
    for round in 0..400 {
        let bytes = scenario(&mut rng);
        // Abrupt EOF: sometimes truncate mid-everything.
        let bytes = if rng.u64_below(3) == 0 && !bytes.is_empty() {
            let cut = rng.usize_range(0, bytes.len());
            bytes[..cut].to_vec()
        } else {
            bytes
        };
        let expected = model(&bytes);
        // Whole-blob feed.
        let whole = drive(&bytes, &[bytes.len().max(1)]);
        assert!(
            same(&whole, &expected),
            "round {round}: whole-feed diverged\ninput: {bytes:?}\ngot:  {whole:?}\nwant: {expected:?}"
        );
        // Random chunking.
        for _ in 0..4 {
            let mut chunks = Vec::new();
            let mut left = bytes.len();
            while left > 0 {
                let c = rng.usize_range(1, 9).min(left);
                chunks.push(c);
                left -= c;
            }
            let got = drive(&bytes, &chunks);
            assert!(
                same(&got, &expected),
                "round {round}: chunked feed diverged\ninput: {bytes:?}\nchunks: {chunks:?}\ngot:  {got:?}\nwant: {expected:?}"
            );
        }
    }
}

#[test]
fn every_byte_boundary_split_is_equivalent() {
    let mut rng = Rng::seed_from_u64(0xB17E);
    for _ in 0..40 {
        let mut bytes = scenario(&mut rng);
        bytes.truncate(96); // quadratic check: keep it small
        let expected = model(&bytes);
        for cut in 0..=bytes.len() {
            let got = drive(&bytes, &[cut.max(1), bytes.len()]);
            assert!(
                same(&got, &expected),
                "split at {cut} diverged\ninput: {bytes:?}\ngot:  {got:?}\nwant: {expected:?}"
            );
        }
        // And byte-at-a-time.
        let got = drive(&bytes, &vec![1; bytes.len()]);
        assert!(same(&got, &expected), "byte-at-a-time diverged: {bytes:?}");
    }
}

#[test]
fn errors_never_desync_later_samples() {
    // Directed scenario: after every class of bad line, a sentinel
    // sample must still come through — per-line errors, not session
    // death.
    let blob = b"oops\n\xff\xfe\n# c\n\n123badtrail\n42.5\n";
    let mut p = ProtoParser::with_max_line(MAX_LINE);
    let mut out = VecDeque::new();
    for b in blob.iter() {
        p.feed(std::slice::from_ref(b), &mut out);
    }
    p.finish(&mut out);
    let events: Vec<_> = out.into_iter().collect();
    assert_eq!(events.last(), Some(&ProtoEvent::Sample(42.5)), "{events:?}");
    let errors = events
        .iter()
        .filter(|e| matches!(e, ProtoEvent::Error(_)))
        .count();
    assert_eq!(errors, 3, "{events:?}");
}

#[test]
fn numeric_alphabet_lines_match_the_model_on_both_paths() {
    // Bare, the line takes the parser's numeric fast path; with a
    // trailing `\r` it takes the general trim-and-parse path. Both
    // must produce the model's event at every byte-boundary split.
    for line in NUMERIC_ALPHABET_LINES {
        for ending in ["\n", "\r\n"] {
            let bytes = format!("{line}{ending}7\n{line}").into_bytes();
            let expected = model(&bytes);
            assert_eq!(expected.len(), 3, "{expected:?}");
            for cut in 0..=bytes.len() {
                let got = drive(&bytes, &[cut.max(1), bytes.len()]);
                assert!(
                    same(&got, &expected),
                    "{line:?}{ending:?} split at {cut}\ngot:  {got:?}\nwant: {expected:?}"
                );
            }
        }
    }
}

/// One seeded line for the scan differential: an optional sign, 0–20
/// digits with an optional `.` among them (sometimes 2⁵³ ± 1 or a run
/// of leading zeros), sometimes a stray sign, a second `.`, an
/// exponent, or a `\r` before the `\n`. Never empty.
fn decimal_line(rng: &mut Rng, line: &mut Vec<u8>) {
    const SPECIAL: [&[u8]; 4] = [
        b"9007199254740991",
        b"9007199254740993",
        b"999999999999999",
        b"1000000000000000",
    ];
    line.clear();
    match rng.u64_below(4) {
        0 => line.push(b'-'),
        1 => line.push(b'+'),
        _ => {}
    }
    let digits_at = line.len();
    if rng.u64_below(8) == 0 {
        line.extend_from_slice(SPECIAL[rng.usize_range(0, SPECIAL.len())]);
    } else {
        let zeros = if rng.u64_below(8) == 0 {
            rng.usize_range(1, 6)
        } else {
            0
        };
        line.extend(std::iter::repeat_n(b'0', zeros));
        for _ in 0..rng.usize_range(0, 21 - zeros) {
            line.push(b'0' + rng.u64_below(10) as u8);
        }
    }
    if rng.u64_below(4) != 0 {
        let at = rng.usize_range(digits_at, line.len() + 1);
        line.insert(at, b'.');
    }
    match rng.u64_below(32) {
        0 => {
            let at = rng.usize_range(0, line.len() + 1);
            line.insert(at, b'.');
        }
        1 => {
            let at = rng.usize_range(0, line.len() + 1);
            line.insert(at, if rng.u64_below(2) == 0 { b'-' } else { b'+' });
        }
        2 | 3 => {
            line.push(if rng.u64_below(2) == 0 { b'e' } else { b'E' });
            match rng.u64_below(3) {
                0 => line.push(b'-'),
                1 => line.push(b'+'),
                _ => {}
            }
            for _ in 0..rng.usize_range(0, 4) {
                line.push(b'0' + rng.u64_below(10) as u8);
            }
        }
        _ => {}
    }
    if line.is_empty() {
        line.push(b'.');
    }
    if rng.u64_below(16) == 0 {
        line.push(b'\r');
    }
    line.push(b'\n');
}

/// `lines` seeded decimal lines fed in random reads of up to 4 KiB (so
/// most lines are scanned and some are split across reads) must give
/// exactly `str::parse`'s result, bit for bit, or its error text.
fn decimal_differential(seed: u64, lines: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut parser = ProtoParser::new();
    let mut out = VecDeque::new();
    let mut blob = Vec::new();
    let mut want = Vec::new();
    let mut line = Vec::new();
    let mut done = 0;
    while done < lines {
        blob.clear();
        want.clear();
        while blob.len() < 64 * 1024 && done < lines {
            decimal_line(&mut rng, &mut line);
            let text = std::str::from_utf8(&line).unwrap().trim();
            want.push(match text.parse::<f64>() {
                Ok(v) => Ok(v.to_bits()),
                Err(_) => Err(format!("`{text}` is not a number")),
            });
            blob.extend_from_slice(&line);
            done += 1;
        }
        let mut rest = &blob[..];
        while !rest.is_empty() {
            let n = rng.usize_range(1, 4097).min(rest.len());
            parser.feed(&rest[..n], &mut out);
            rest = &rest[n..];
        }
        assert_eq!(out.len(), want.len(), "seed {seed}: one event per line");
        for (i, (ev, want)) in out.drain(..).zip(&want).enumerate() {
            let got = match ev {
                ProtoEvent::Sample(v) => Ok(v.to_bits()),
                ProtoEvent::Error(e) => Err(e),
                other => panic!("seed {seed}: unexpected {other:?}"),
            };
            assert_eq!(&got, want, "seed {seed}, line {i} of a block");
        }
    }
}

#[test]
fn decimal_scan_is_bit_exact_against_str_parse() {
    // 10⁶ lines in debug builds; `cargo test --release` runs 10⁷.
    let lines = if cfg!(debug_assertions) {
        1_000_000
    } else {
        10_000_000
    };
    decimal_differential(0xD1F7, lines);
}
