//! Transcript verification: everything one data connection received,
//! checked against the in-process reference.

use std::collections::HashMap;

use crate::reference::WireMatch;

/// What one connection's transcript must hold.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Reference matches of one block (or of one whole session), sorted.
    pub per_block: Vec<WireMatch>,
    /// Samples per block; the connection streams whole blocks.
    pub block_len: u64,
    /// The threshold every attachment on the stream uses.
    pub epsilon: f64,
    /// One attachment on the stream, so Eq. 9 disjointness applies to
    /// the whole transcript.
    pub single_attachment: bool,
}

/// The outcome of checking one transcript.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Match lines the reference predicts.
    pub expected_matches: u64,
    /// Match lines received.
    pub match_lines: u64,
    /// Reference matches with no equal line.
    pub missing: u64,
    /// Lines (or surplus copies) the reference does not predict.
    pub extra: u64,
    /// Lines breaking a check that needs no reference: d ≤ ε,
    /// `reported_at ≥ end`, a consistent length, Eq. 9 disjointness on
    /// single-attachment streams, a known line kind, one `done` line.
    pub wire_violations: u64,
    /// `error:` lines.
    pub error_lines: u64,
    /// The `done N match(es) over T ticks` trailer, as (N, T).
    pub done: Option<(u64, u64)>,
}

impl Verdict {
    /// Failed match operations: one per missing or altered or extra
    /// line (an altered line is one missing plus one extra, counted
    /// once), one per wire violation, and one for a `done` count that
    /// disagrees with the lines or the reference.
    pub fn failed_matches(&self) -> u64 {
        let count_wrong = match self.done {
            Some((n, _)) => u64::from(n != self.match_lines || n != self.expected_matches),
            None => 0,
        };
        self.missing.max(self.extra) + self.wire_violations + count_wrong
    }

    /// Samples of the `sent` ones no `done` count covers.
    pub fn failed_samples(&self, sent: u64) -> u64 {
        sent - self.done.map_or(0, |(_, ticks)| ticks.min(sent))
    }

    /// The connection was answered with `error:` or never finished.
    pub fn connection_failed(&self) -> bool {
        self.error_lines > 0 || self.done.is_none()
    }

    /// Every failed operation: samples, matches and the connection.
    pub fn failed(&self, sent: u64) -> u64 {
        self.failed_samples(sent) + self.failed_matches() + u64::from(self.connection_failed())
    }
}

/// Parses `done N match(es) over T ticks`.
fn parse_done(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix("done ")?;
    let (n, rest) = rest.split_once(" match(es) over ")?;
    let t = rest.strip_suffix(" ticks")?;
    Some((n.parse().ok()?, t.parse().ok()?))
}

/// Checks the lines a connection received after its set-up replies,
/// for a stream of `sent` samples (whole blocks of `expected`).
/// Matches are compared as multisets per block, since several
/// attachments on one stream interleave their lines.
pub fn verify(transcript: &str, expected: &Expected, sent: u64) -> Verdict {
    let len = expected.block_len.max(1);
    let blocks = sent / len;
    let mut v = Verdict {
        expected_matches: blocks * expected.per_block.len() as u64,
        ..Verdict::default()
    };
    // ε is printed with at most six decimals, so a rounded distance of
    // a match within ε never rounds past it.
    let eps_micros = (expected.epsilon * 1e6).round() as u64;
    let mut got: HashMap<(u64, WireMatch), u64> = HashMap::new();
    let mut extents: Vec<(u64, u64)> = Vec::new();
    for line in transcript.lines() {
        if line.starts_with("match ") {
            v.match_lines += 1;
            let Some(w) = WireMatch::parse(line) else {
                v.extra += 1;
                continue;
            };
            if w.distance_micros > eps_micros
                || w.reported_at < w.end
                || w.end < w.start
                || w.len != w.end - w.start + 1
            {
                v.wire_violations += 1;
            }
            extents.push((w.start, w.end));
            let k = w.reported_at.saturating_sub(1) / len;
            let w = if w.start > k * len {
                w.shifted_back(k * len)
            } else {
                w // spans a block boundary: matches nothing, counts as extra
            };
            *got.entry((k, w)).or_default() += 1;
        } else if line.starts_with("done ") {
            match (v.done, parse_done(line)) {
                (None, Some(done)) => v.done = Some(done),
                _ => v.wire_violations += 1,
            }
        } else if line.starts_with("error:") {
            v.error_lines += 1;
        } else if !line.starts_with("ok ") {
            v.wire_violations += 1;
        }
    }
    if expected.single_attachment {
        extents.sort_unstable();
        v.wire_violations += extents.windows(2).filter(|w| w[1].0 <= w[0].1).count() as u64;
    }
    let mut want: HashMap<WireMatch, u64> = HashMap::new();
    for w in &expected.per_block {
        *want.entry(*w).or_default() += 1;
    }
    for k in 0..blocks {
        for (w, &count) in &want {
            let g = got.remove(&(k, *w)).unwrap_or(0);
            v.missing += count.saturating_sub(g);
            v.extra += g.saturating_sub(count);
        }
    }
    v.extra += got.values().sum::<u64>();
    v
}
