//! The `spring serve` wire protocol, as a pure state machine.
//!
//! The serve event loop ([`crate::serve`]) reads whatever bytes the
//! kernel has — half a line, three lines and a fragment, a lone `\n` —
//! and needs line-oriented protocol decisions that never depend on how
//! the bytes were chunked. This module is that decision layer, with no
//! I/O of its own so the conformance fuzzer can drive it byte by byte:
//!
//! * [`ProtoParser`] — accumulates bytes into lines and emits
//!   [`ProtoEvent`]s: one [`ProtoEvent::Sample`] per numeric line, one
//!   [`ProtoEvent::Error`] per malformed line (the stream stays in
//!   sync — a bad line never desynchronizes later good ones), and
//!   [`ProtoEvent::Http`] when the *first* line is an HTTP request
//!   line (`GET /metrics` scrapes share the port with sensor clients).
//! * A hard per-line byte cap ([`MAX_LINE_BYTES`]): a line that never
//!   terminates would otherwise grow the connection's read buffer
//!   without bound. At the cap the parser reports one protocol error
//!   and discards until the next `\n`, after which parsing resumes.
//! * [`CarryForward`] — the serve path's gap policy (missing readings
//!   repeat the last observation), shared with the conformance tests
//!   so the expected transcript is computed with the same rule.
//! * [`format_match`] — the match line clients receive, shared by the
//!   sink and the tests that assert on it byte-for-byte.
//!
//! Input is treated as bytes; invalid UTF-8 inside a line is handled
//! lossily and reported as a per-line parse error rather than a
//! connection error (the historical `BufRead::read_line` loop killed
//! the whole session on the first non-UTF-8 byte).

use std::collections::VecDeque;

use spring_core::Match;

/// Hard cap on one protocol line, in bytes (terminator excluded). A
/// line still unterminated at the cap is reported as one protocol
/// error and discarded through its trailing `\n`; the stream then
/// resumes cleanly. 4 KiB is ~200× the longest representable `f64`
/// literal, so no legitimate sample ever hits it.
pub const MAX_LINE_BYTES: usize = 4096;

/// One protocol decision from [`ProtoParser`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoEvent {
    /// The first line was an HTTP request line; the payload is that
    /// line. The parser emits nothing further — the server answers the
    /// scrape and closes.
    Http(String),
    /// A numeric line (non-finite values like `NaN` pass through; gap
    /// resolution is [`CarryForward`]'s job).
    Sample(f64),
    /// A fleet-control verb (`query …` / `attach …`); see [`Command`].
    Command(Command),
    /// A malformed line: the payload is the message the client gets
    /// (after `error: `). The stream stays in sync.
    Error(String),
}

/// A fleet-control verb: lines whose first token is `query`, `attach`,
/// or `trace` manage the server's query table, attachments, and flight
/// recorder instead of carrying a sample.
///
/// ```text
/// query add <id> <v1> <v2> …     register a pattern under <id>
/// query update <id> <v1> <v2> …  hot-swap <id> across every attachment
/// query drop <id>                remove <id> from the table
/// attach <stream> <query-id> <eps>   attach <query-id> to a live stream
/// trace dump                     write a flight-recorder snapshot
/// ```
///
/// The server answers each verb with one `ok …` or `error: …` line, in
/// order with the surrounding samples.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `query add <id> <v1> <v2> …`
    QueryAdd {
        /// Query table id.
        id: u32,
        /// Pattern values.
        values: Vec<f64>,
    },
    /// `query update <id> <v1> <v2> …` — the hot-swap verb.
    QueryUpdate {
        /// Query table id.
        id: u32,
        /// Replacement pattern values.
        values: Vec<f64>,
    },
    /// `query drop <id>`
    QueryDrop {
        /// Query table id.
        id: u32,
    },
    /// `attach <stream> <query-id> <eps>`
    Attach {
        /// Server-side stream id of a live connection.
        stream: u32,
        /// Query table id to attach.
        query: u32,
        /// Distance threshold ε for the new attachment.
        epsilon: f64,
    },
    /// `trace dump` — write a Chrome trace-event snapshot of the flight
    /// recorder into the server's `--trace-dir`.
    TraceDump,
}

/// Parses a control line. `None` when `line` is not a control verb
/// (first token is neither `query`, `attach`, nor `trace`);
/// `Some(Err(_))` for a verb with malformed arguments (the message the
/// client gets).
fn parse_command(line: &str) -> Option<Result<Command, String>> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next()?;
    match verb {
        "query" => Some(parse_query_command(tokens)),
        "attach" => Some(parse_attach_command(tokens)),
        "trace" => Some(parse_trace_command(tokens)),
        _ => None,
    }
}

fn parse_trace_command<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<Command, String> {
    match tokens.next() {
        Some("dump") => match tokens.next() {
            None => Ok(Command::TraceDump),
            Some(extra) => Err(format!("trace dump takes no arguments (got `{extra}`)")),
        },
        Some(other) => Err(format!("unknown trace action `{other}` (expected dump)")),
        None => Err("trace needs an action: dump".to_string()),
    }
}

fn parse_query_command<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<Command, String> {
    let action = tokens
        .next()
        .ok_or("query needs an action: add, update, or drop")?;
    let id: u32 = tokens
        .next()
        .ok_or_else(|| format!("query {action} needs an id"))?
        .parse()
        .map_err(|_| format!("query {action}: id must be an integer"))?;
    match action {
        "add" | "update" => {
            let values = tokens
                .map(|t| {
                    t.parse::<f64>()
                        .map_err(|_| format!("query {action}: `{t}` is not a number"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            if values.is_empty() {
                return Err(format!("query {action} needs at least one value"));
            }
            Ok(if action == "add" {
                Command::QueryAdd { id, values }
            } else {
                Command::QueryUpdate { id, values }
            })
        }
        "drop" => match tokens.next() {
            None => Ok(Command::QueryDrop { id }),
            Some(extra) => Err(format!("query drop takes only an id (got `{extra}`)")),
        },
        other => Err(format!(
            "unknown query action `{other}` (expected add, update, or drop)"
        )),
    }
}

fn parse_attach_command<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<Command, String> {
    let usage = "attach needs: attach <stream> <query-id> <eps>";
    let stream: u32 = tokens
        .next()
        .ok_or(usage)?
        .parse()
        .map_err(|_| "attach: stream must be an integer".to_string())?;
    let query: u32 = tokens
        .next()
        .ok_or(usage)?
        .parse()
        .map_err(|_| "attach: query-id must be an integer".to_string())?;
    let epsilon: f64 = tokens
        .next()
        .ok_or(usage)?
        .parse()
        .map_err(|_| "attach: eps must be a number".to_string())?;
    match tokens.next() {
        None => Ok(Command::Attach {
            stream,
            query,
            epsilon,
        }),
        Some(extra) => Err(format!("attach takes 3 arguments (got extra `{extra}`)")),
    }
}

/// True when `line` looks like an HTTP request line (`GET / HTTP/1.1`).
pub fn is_http_request(line: &str) -> bool {
    let mut parts = line.split_whitespace();
    matches!(
        (parts.next(), parts.next(), parts.next()),
        (Some("GET" | "HEAD" | "POST"), Some(_), Some(v)) if v.starts_with("HTTP/")
    )
}

/// Byte-at-a-time line-protocol parser; see the [module docs](self).
///
/// Feed it raw reads with [`ProtoParser::feed`]; call
/// [`ProtoParser::finish`] exactly once at EOF so a final unterminated
/// line is still processed (matching `BufRead::lines`). The parser
/// never panics, whatever the input.
#[derive(Debug)]
pub struct ProtoParser {
    /// Bytes of the current, still-unterminated line.
    buf: Vec<u8>,
    /// Inside an over-long line: drop bytes until the next `\n`.
    discarding: bool,
    /// Before the first complete line (HTTP sniffing window).
    first_line: bool,
    /// The first line was HTTP: ignore everything that follows.
    http: bool,
    max_line: usize,
}

impl Default for ProtoParser {
    fn default() -> Self {
        ProtoParser::new()
    }
}

impl ProtoParser {
    /// A parser with the default [`MAX_LINE_BYTES`] cap.
    pub fn new() -> Self {
        ProtoParser::with_max_line(MAX_LINE_BYTES)
    }

    /// A parser with a custom per-line byte cap (tests).
    pub fn with_max_line(max_line: usize) -> Self {
        ProtoParser {
            buf: Vec::new(),
            discarding: false,
            first_line: true,
            http: false,
            max_line: max_line.max(1),
        }
    }

    /// Consumes one read's worth of bytes, appending an event per
    /// protocol decision to `out` in input order.
    pub fn feed(&mut self, mut bytes: &[u8], out: &mut VecDeque<ProtoEvent>) {
        while !bytes.is_empty() {
            if self.http {
                return;
            }
            match bytes.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let (head, rest) = bytes.split_at(nl);
                    bytes = &rest[1..]; // past the '\n'
                    if self.discarding {
                        // The error for this line is already out; the
                        // newline resynchronizes the stream.
                        self.discarding = false;
                        self.buf.clear();
                        continue;
                    }
                    if self.buf.len() + head.len() > self.max_line {
                        // Same cap as the unterminated branch below: a
                        // line whose terminator arrives in a later read
                        // must not dodge the limit. The newline already
                        // resynchronized the stream.
                        out.push_back(ProtoEvent::Error(format!(
                            "line exceeds {} bytes",
                            self.max_line
                        )));
                        self.buf.clear();
                        self.first_line = false;
                        continue;
                    }
                    if self.buf.is_empty() {
                        self.line(head, out);
                    } else {
                        let mut line = std::mem::take(&mut self.buf);
                        line.extend_from_slice(head);
                        self.line(&line, out);
                    }
                }
                None => {
                    if self.discarding {
                        return; // still skipping to the next '\n'
                    }
                    if self.buf.len() + bytes.len() > self.max_line {
                        out.push_back(ProtoEvent::Error(format!(
                            "line exceeds {} bytes",
                            self.max_line
                        )));
                        self.discarding = true;
                        self.buf.clear();
                        // An over-long first line is a protocol error,
                        // not an HTTP request; close the sniff window.
                        self.first_line = false;
                        return;
                    }
                    self.buf.extend_from_slice(bytes);
                    return;
                }
            }
        }
    }

    /// Signals EOF: a trailing unterminated line (if any) is processed
    /// as a line, exactly as `BufRead::lines` would have yielded it.
    pub fn finish(&mut self, out: &mut VecDeque<ProtoEvent>) {
        if self.http || self.discarding {
            self.buf.clear();
            return;
        }
        if !self.buf.is_empty() {
            let line = std::mem::take(&mut self.buf);
            self.line(&line, out);
        }
    }

    /// True until the first complete line has been seen (the serve
    /// loop attaches a monitor once this flips — mirroring the
    /// blocking implementation, which attached after its first
    /// `read_line` returned, whatever the line held).
    pub fn awaiting_first_line(&self) -> bool {
        self.first_line && !self.http
    }

    /// True when the first line was an HTTP request line (the
    /// connection is a scrape, not a sensor session).
    pub fn is_http(&self) -> bool {
        self.http
    }

    fn line(&mut self, raw: &[u8], out: &mut VecDeque<ProtoEvent>) {
        // Fast path for the common numeric line. A line drawn only from
        // `[0-9.+-eE]` is ASCII with no padding, and cannot be HTTP, a
        // comment or a verb, so the general path below would reach the
        // same `parse::<f64>` with the same text.
        if !raw.is_empty() && raw.iter().all(|&b| is_numeric_byte(b)) {
            self.first_line = false;
            let line = std::str::from_utf8(raw).expect("numeric-alphabet bytes are ASCII");
            out.push_back(match line.parse::<f64>() {
                Ok(v) => ProtoEvent::Sample(v),
                Err(_) => ProtoEvent::Error(format!("`{line}` is not a number")),
            });
            return;
        }
        let text = String::from_utf8_lossy(raw);
        let line = text.trim();
        if self.first_line {
            self.first_line = false;
            if is_http_request(line) {
                self.http = true;
                out.push_back(ProtoEvent::Http(line.to_string()));
                return;
            }
        }
        if line.is_empty() || line.starts_with('#') {
            return;
        }
        if let Some(parsed) = parse_command(line) {
            out.push_back(match parsed {
                Ok(cmd) => ProtoEvent::Command(cmd),
                Err(msg) => ProtoEvent::Error(msg),
            });
            return;
        }
        match line.parse::<f64>() {
            Ok(v) => out.push_back(ProtoEvent::Sample(v)),
            Err(_) => out.push_back(ProtoEvent::Error(format!("`{line}` is not a number"))),
        }
    }
}

/// The bytes of [`ProtoParser`]'s numeric fast path: digits, `.`, signs
/// and exponent markers.
fn is_numeric_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'+' | b'-' | b'e' | b'E')
}

/// The serve path's gap policy: missing (non-finite) readings repeat
/// the last observation; leading gaps (no observation yet) are
/// dropped. Sensors hold their last value.
#[derive(Debug, Default, Clone, Copy)]
pub struct CarryForward {
    last: Option<f64>,
}

impl CarryForward {
    /// Resolves one decoded sample to the value actually monitored
    /// (`None` = drop this reading).
    pub fn resolve(&mut self, v: f64) -> Option<f64> {
        if v.is_finite() {
            self.last = Some(v);
            Some(v)
        } else {
            self.last
        }
    }
}

/// Formats the match line a serve client receives (no trailing
/// newline). `stream_end` tags matches flushed by the end-of-stream
/// finish, after the client closed its write side.
pub fn format_match(m: &Match, stream_end: bool) -> String {
    format!(
        "match ticks {}..={} len {} distance {:.6} reported_at {}{}",
        m.start,
        m.end,
        m.len(),
        m.distance,
        m.reported_at,
        if stream_end { " (stream end)" } else { "" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(chunks: &[&[u8]], finish: bool) -> Vec<ProtoEvent> {
        let mut p = ProtoParser::new();
        let mut out = VecDeque::new();
        for c in chunks {
            p.feed(c, &mut out);
        }
        if finish {
            p.finish(&mut out);
        }
        out.into_iter().collect()
    }

    #[test]
    fn chunking_never_changes_the_events() {
        let input = b"1.5\n# comment\nquery add 7 1 2 3\n\n  2.5 \nattach 1 7 0.25\nnope\n3.5";
        let whole = events(&[input], true);
        for cut in 0..=input.len() {
            let (a, b) = input.split_at(cut);
            assert_eq!(events(&[a, b], true), whole, "cut at {cut}");
        }
        assert_eq!(
            whole,
            vec![
                ProtoEvent::Sample(1.5),
                ProtoEvent::Command(Command::QueryAdd {
                    id: 7,
                    values: vec![1.0, 2.0, 3.0],
                }),
                ProtoEvent::Sample(2.5),
                ProtoEvent::Command(Command::Attach {
                    stream: 1,
                    query: 7,
                    epsilon: 0.25,
                }),
                ProtoEvent::Error("`nope` is not a number".into()),
                ProtoEvent::Sample(3.5),
            ]
        );
    }

    #[test]
    fn http_first_line_swallows_the_rest() {
        let got = events(&[b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"], true);
        assert_eq!(got, vec![ProtoEvent::Http("GET /metrics HTTP/1.1".into())]);
        // Split mid-request-line: same single event.
        let got = events(&[b"GET /met", b"rics HTTP/1.1\r\nHost: x\r\n"], true);
        assert_eq!(got, vec![ProtoEvent::Http("GET /metrics HTTP/1.1".into())]);
    }

    #[test]
    fn http_only_sniffed_on_the_first_line() {
        let got = events(&[b"1\nGET / HTTP/1.1\n2\n"], true);
        assert_eq!(
            got,
            vec![
                ProtoEvent::Sample(1.0),
                ProtoEvent::Error("`GET / HTTP/1.1` is not a number".into()),
                ProtoEvent::Sample(2.0),
            ]
        );
    }

    #[test]
    fn oversized_line_reports_once_and_resyncs() {
        let mut p = ProtoParser::with_max_line(8);
        let mut out = VecDeque::new();
        p.feed(b"123456789", &mut out); // over the cap, no newline yet
        p.feed(b"9999", &mut out); // still the same over-long line
        p.feed(b"\n7\n", &mut out); // resync, then a good sample
        let got: Vec<_> = out.into_iter().collect();
        assert_eq!(
            got,
            vec![
                ProtoEvent::Error("line exceeds 8 bytes".into()),
                ProtoEvent::Sample(7.0),
            ]
        );
        // Same when the terminator arrives with (or after) the overflow.
        let mut p = ProtoParser::with_max_line(8);
        let mut out = VecDeque::new();
        p.feed(b"123456789\n7\n", &mut out);
        let got: Vec<_> = out.into_iter().collect();
        assert_eq!(
            got,
            vec![
                ProtoEvent::Error("line exceeds 8 bytes".into()),
                ProtoEvent::Sample(7.0),
            ]
        );
    }

    #[test]
    fn oversized_line_at_eof_stays_a_single_error() {
        let mut p = ProtoParser::with_max_line(8);
        let mut out = VecDeque::new();
        p.feed(b"123456789abcdef", &mut out);
        p.finish(&mut out);
        let got: Vec<_> = out.into_iter().collect();
        assert_eq!(got, vec![ProtoEvent::Error("line exceeds 8 bytes".into())]);
    }

    #[test]
    fn trailing_unterminated_line_is_processed_at_eof() {
        assert_eq!(
            events(&[b"1\n2.5"], true),
            vec![ProtoEvent::Sample(1.0), ProtoEvent::Sample(2.5)]
        );
        // …but only at EOF.
        assert_eq!(events(&[b"1\n2.5"], false), vec![ProtoEvent::Sample(1.0)]);
    }

    #[test]
    fn non_utf8_bytes_become_a_parse_error_not_a_panic() {
        let got = events(&[b"\xff\xfe\n4\n"], true);
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], ProtoEvent::Error(_)), "{got:?}");
        assert_eq!(got[1], ProtoEvent::Sample(4.0));
    }

    #[test]
    fn carry_forward_holds_last_observation() {
        let mut c = CarryForward::default();
        assert_eq!(c.resolve(f64::NAN), None); // leading gap: drop
        assert_eq!(c.resolve(2.0), Some(2.0));
        assert_eq!(c.resolve(f64::NAN), Some(2.0));
        assert_eq!(c.resolve(f64::INFINITY), Some(2.0));
        assert_eq!(c.resolve(3.0), Some(3.0));
    }

    #[test]
    fn control_verbs_parse_into_commands() {
        let got = events(
            &[b"query add 1 0 10 0\nquery update 1 5 -5\nquery drop 1\nattach 3 1 0.5\ntrace dump\n"],
            true,
        );
        assert_eq!(
            got,
            vec![
                ProtoEvent::Command(Command::QueryAdd {
                    id: 1,
                    values: vec![0.0, 10.0, 0.0],
                }),
                ProtoEvent::Command(Command::QueryUpdate {
                    id: 1,
                    values: vec![5.0, -5.0],
                }),
                ProtoEvent::Command(Command::QueryDrop { id: 1 }),
                ProtoEvent::Command(Command::Attach {
                    stream: 3,
                    query: 1,
                    epsilon: 0.5,
                }),
                ProtoEvent::Command(Command::TraceDump),
            ]
        );
    }

    #[test]
    fn malformed_control_verbs_become_errors_and_stay_in_sync() {
        let got = events(
            &[b"query add one 1\nquery zap 1\nattach 1 2\nquery add 2\ntrace\ntrace flush\ntrace dump now\n7\n"],
            true,
        );
        assert_eq!(got.len(), 8);
        for ev in &got[..7] {
            assert!(matches!(ev, ProtoEvent::Error(_)), "{ev:?}");
        }
        assert_eq!(got[7], ProtoEvent::Sample(7.0));
    }

    #[test]
    fn control_verbs_mix_with_samples_in_order() {
        let got = events(&[b"1.5\nquery add 2 9 9\n2.5\n"], true);
        assert_eq!(
            got,
            vec![
                ProtoEvent::Sample(1.5),
                ProtoEvent::Command(Command::QueryAdd {
                    id: 2,
                    values: vec![9.0, 9.0],
                }),
                ProtoEvent::Sample(2.5),
            ]
        );
    }

    #[test]
    fn nan_parses_as_a_sample_for_gap_handling() {
        let got = events(&[b"NaN\n"], true);
        assert_eq!(got.len(), 1);
        assert!(
            matches!(got[0], ProtoEvent::Sample(v) if v.is_nan()),
            "{got:?}"
        );
    }
}
