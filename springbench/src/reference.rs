//! The in-process reference the server's transcripts are checked
//! against: bare monitors (`MonitorSpec::build`, then `Monitor::step`
//! per sample) over the exact values the wire text encodes.

use spring_core::{Match, Monitor, MonitorSpec};
use spring_dtw::Kernel;

/// One match line, in the form compared: every field exactly as the
/// wire prints it (the distance in millionths, since `spring serve`
/// prints six decimals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireMatch {
    /// First tick (1-based, inclusive).
    pub start: u64,
    /// Last tick (1-based, inclusive).
    pub end: u64,
    /// Length as printed (`end - start + 1` on a well-formed line).
    pub len: u64,
    /// Distance in millionths.
    pub distance_micros: u64,
    /// Tick of the report.
    pub reported_at: u64,
    /// Flushed by the end-of-stream finish (`(stream end)` suffix).
    pub stream_end: bool,
}

impl WireMatch {
    /// The line `spring serve` prints for `m`, in compared form.
    pub fn from_match(m: &Match, stream_end: bool) -> Self {
        WireMatch {
            start: m.start,
            end: m.end,
            len: m.len(),
            distance_micros: parse_micros(&format!("{:.6}", m.distance))
                .expect("a match distance is finite and non-negative"),
            reported_at: m.reported_at,
            stream_end,
        }
    }

    /// Parses `match ticks S..=E len L distance D reported_at T[ (stream end)]`.
    pub fn parse(line: &str) -> Option<Self> {
        let rest = line.strip_prefix("match ticks ")?;
        let (rest, stream_end) = match rest.strip_suffix(" (stream end)") {
            Some(rest) => (rest, true),
            None => (rest, false),
        };
        let mut it = rest.split(' ');
        let (start, end) = it.next()?.split_once("..=")?;
        let mut field = |key: &str| {
            if it.next()? == key {
                it.next()
            } else {
                None
            }
        };
        let len = field("len")?.parse().ok()?;
        let distance_micros = parse_micros(field("distance")?)?;
        let reported_at = field("reported_at")?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(WireMatch {
            start: start.parse().ok()?,
            end: end.parse().ok()?,
            len,
            distance_micros,
            reported_at,
            stream_end,
        })
    }

    /// The same match `by` ticks earlier (`by` must not exceed `start - 1`).
    pub fn shifted_back(self, by: u64) -> Self {
        WireMatch {
            start: self.start - by,
            end: self.end - by,
            reported_at: self.reported_at - by,
            ..self
        }
    }

    /// Back to a [`Match`] (for replaying `format_match`).
    pub fn to_match(self) -> Match {
        Match {
            start: self.start,
            end: self.end,
            distance: self.distance_micros as f64 / 1e6,
            reported_at: self.reported_at,
            group_start: self.start,
            group_end: self.end,
        }
    }
}

/// Parses a fixed six-decimal number (`12.345678`) into millionths.
fn parse_micros(text: &str) -> Option<u64> {
    let (int, frac) = text.split_once('.')?;
    if frac.len() != 6 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    int.parse::<u64>()
        .ok()?
        .checked_mul(1_000_000)?
        .checked_add(frac.parse().ok()?)
}

/// One monitor on a stream: a query pattern and its threshold.
#[derive(Debug, Clone)]
pub struct Attachment {
    /// Query values, as the server parsed them.
    pub query: Vec<f64>,
    /// Distance threshold ε.
    pub epsilon: f64,
}

fn run_monitors(
    values: impl Iterator<Item = f64> + Clone,
    attachments: &[Attachment],
) -> Result<(Vec<Match>, Vec<Match>), String> {
    let mut in_stream = Vec::new();
    let mut at_end = Vec::new();
    for att in attachments {
        let mut monitor = MonitorSpec::Spring {
            epsilon: att.epsilon,
        }
        .build(&att.query, Kernel::Squared)
        .map_err(|e| format!("reference monitor: {e}"))?;
        for x in values.clone() {
            if let Some(m) = monitor.step(&x).map_err(|e| format!("reference: {e}"))? {
                in_stream.push(m);
            }
        }
        at_end.extend(monitor.finish());
    }
    Ok((in_stream, at_end))
}

/// Reference matches of one *periodic* block: the block is streamed
/// back to back, so the monitors run over three copies and the check
/// demands that copies 2 and 3 reproduce copy 1's matches shifted by
/// one and two block lengths, and that nothing is pending at the end.
/// Returns copy 1's matches, sorted.
pub fn periodic_reference(
    block: &[f64],
    attachments: &[Attachment],
) -> Result<Vec<WireMatch>, String> {
    const COPIES: u64 = 3;
    let len = block.len() as u64;
    let stream = (0..COPIES).flat_map(|_| block.iter().copied());
    let (in_stream, at_end) = run_monitors(stream, attachments)?;
    if let Some(m) = at_end.first() {
        return Err(format!(
            "block does not end quiet: a match at ticks {}..={} is still pending at its end",
            m.start, m.end
        ));
    }
    let mut copies: Vec<Vec<WireMatch>> = vec![Vec::new(); COPIES as usize];
    for m in &in_stream {
        let k = (m.reported_at - 1) / len;
        if m.start <= k * len {
            return Err(format!(
                "match at ticks {}..={} is reported in a later block than it starts",
                m.start, m.end
            ));
        }
        copies[k as usize].push(WireMatch::from_match(m, false).shifted_back(k * len));
    }
    for c in &mut copies {
        c.sort_unstable();
    }
    if copies[1] != copies[0] || copies[2] != copies[0] {
        return Err(format!(
            "blocks 2 and 3 do not reproduce block 1's matches ({} / {} / {})",
            copies[0].len(),
            copies[1].len(),
            copies[2].len()
        ));
    }
    Ok(copies.swap_remove(0))
}

/// Reference matches of one complete session: the stream ends after
/// the block, so pending optima are flushed as `(stream end)` matches.
/// Sorted.
pub fn session_reference(
    block: &[f64],
    attachments: &[Attachment],
) -> Result<Vec<WireMatch>, String> {
    let (in_stream, at_end) = run_monitors(block.iter().copied(), attachments)?;
    let mut out: Vec<WireMatch> = in_stream
        .iter()
        .map(|m| WireMatch::from_match(m, false))
        .chain(at_end.iter().map(|m| WireMatch::from_match(m, true)))
        .collect();
    out.sort_unstable();
    Ok(out)
}
