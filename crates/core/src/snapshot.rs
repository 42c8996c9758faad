//! Monitor state checkpointing.
//!
//! SPRING monitors run for the lifetime of a stream — weeks, in the
//! paper's sensor scenarios — so an operational deployment needs to
//! survive restarts without losing the warping state accumulated since
//! the last group boundary. A monitor's entire live state is `O(m)`
//! (that is the point of the algorithm), so a checkpoint is tiny: the
//! current STWM column, the tick counter, and the pending-candidate
//! bookkeeping.
//!
//! [`Spring::snapshot`] and [`VectorSpring::snapshot`] capture that
//! state as a plain-data [`SpringSnapshot`]; [`Spring::restore`] and
//! [`VectorSpring::restore`] resume from it, producing a monitor whose
//! future reports are **identical** to one that never stopped
//! (property-tested). [`SpringSnapshot::to_json`] /
//! [`SpringSnapshot::from_json`] give a stable JSON wire format
//! (non-finite distances encode as `null`): a scalar query is one array
//! of numbers, a `k`-channel query (`k > 1`) one array per tick.

use spring_dtw::kernels::{DistanceKernel, Squared};
use spring_util::json::{nullable_arr, nullable_num, u64_arr, Value};

use crate::arena::QueryRef;
use crate::error::SpringError;
use crate::spring::Spring;
use crate::vector::VectorSpring;

/// A resumable checkpoint of a [`Spring`] or [`VectorSpring`] monitor.
/// Plain data: `O(m)` numbers, independent of how long the stream has
/// been running.
#[derive(Debug, Clone, PartialEq)]
pub struct SpringSnapshot {
    /// The monitored query, flattened row-major: `channels` values per
    /// tick.
    pub query: Vec<f64>,
    /// Channels per query tick: 1 for a [`Spring`] checkpoint, `k` for
    /// a [`VectorSpring`] one.
    pub channels: usize,
    /// The threshold `ε`.
    pub epsilon: f64,
    /// 1-based tick of the last consumed value.
    pub tick: u64,
    /// Current STWM distance column, `d(t, 0 ..= m)`. Invalidated cells
    /// are `+∞`, which JSON cannot represent natively — the JSON codec
    /// maps them to `null` and back.
    pub distances: Vec<f64>,
    /// Current STWM start-position column, `s(t, 0 ..= m)`.
    pub starts: Vec<u64>,
    /// Pending-candidate bookkeeping.
    pub candidate: CandidateState,
    /// Matches reported so far. Absent in vector documents of format
    /// v1, which decode as 0.
    pub reported: u64,
    /// Query generation at checkpoint time (format v2; 0 until a
    /// fleet-wide hot-swap has republished the query). Absent in
    /// pre-arena (v1) documents, which decode as generation 0 and
    /// restore byte-identically.
    pub generation: u64,
}

/// The pending-candidate portion of a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateState {
    /// Group-minimum distance; `+∞` (serialized as `null`) when no
    /// candidate is captured.
    pub dmin: f64,
    /// Candidate start tick (1-based).
    pub ts: u64,
    /// Candidate end tick (1-based).
    pub te: u64,
    /// Leftmost start among the current group's candidates.
    pub group_start: u64,
    /// Rightmost end among the current group's candidates.
    pub group_end: u64,
}

fn bad(what: &str) -> SpringError {
    SpringError::InvalidQuery(format!("snapshot JSON: {what}"))
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, SpringError> {
    v.get(key).ok_or_else(|| bad(&format!("missing `{key}`")))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, SpringError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| bad(&format!("`{key}` is not a number")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, SpringError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| bad(&format!("`{key}` is not an integer")))
}

/// A counter that older documents may lack: missing reads as 0, but a
/// present one must still type-check.
fn counter_field(v: &Value, key: &str) -> Result<u64, SpringError> {
    match v.get(key) {
        Some(_) => u64_field(v, key),
        None => Ok(0),
    }
}

/// Decodes the array `v` entry by entry; errors name the array `what`
/// and the `kind` of entry it holds.
fn arr<T>(
    v: &Value,
    what: &str,
    kind: &str,
    entry: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<T>, SpringError> {
    v.as_arr()
        .ok_or_else(|| bad(&format!("{what} is not an array")))?
        .iter()
        .map(|x| entry(x).ok_or_else(|| bad(&format!("{what} entry is not {kind}"))))
        .collect()
}

/// Decodes `query`: an array of numbers (one channel), or an array of
/// equally long rows of numbers, flattened row-major. Returns the
/// samples and the channel count.
fn query_field(v: &Value) -> Result<(Vec<f64>, usize), SpringError> {
    let query = field(v, "query")?;
    let rows = query
        .as_arr()
        .ok_or_else(|| bad("`query` is not an array"))?;
    let channels = match rows.first().and_then(Value::as_arr) {
        None => return Ok((arr(query, "`query`", "a number", Value::as_f64)?, 1)),
        Some(row) => row.len(),
    };
    let mut flat = Vec::with_capacity(rows.len() * channels);
    for row in rows {
        let row = arr(row, "`query` row", "a number", Value::as_f64)?;
        if row.is_empty() || row.len() != channels {
            return Err(bad(&format!(
                "`query` row has {} channels, expected {channels} (at least 1)",
                row.len()
            )));
        }
        flat.extend(row);
    }
    Ok((flat, channels))
}

impl CandidateState {
    fn to_json(self) -> Value {
        Value::Obj(vec![
            ("dmin".into(), nullable_num(self.dmin)),
            ("ts".into(), Value::Num(self.ts as f64)),
            ("te".into(), Value::Num(self.te as f64)),
            ("group_start".into(), Value::Num(self.group_start as f64)),
            ("group_end".into(), Value::Num(self.group_end as f64)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, SpringError> {
        Ok(CandidateState {
            dmin: field(v, "dmin")?
                .as_nullable_f64(f64::INFINITY)
                .ok_or_else(|| bad("`dmin` is not a number/null"))?,
            ts: u64_field(v, "ts")?,
            te: u64_field(v, "te")?,
            group_start: u64_field(v, "group_start")?,
            group_end: u64_field(v, "group_end")?,
        })
    }
}

impl SpringSnapshot {
    /// Encodes the snapshot as a JSON value (`+∞` distances as `null`;
    /// a `k`-channel query as one array per tick).
    pub fn to_json(&self) -> Value {
        let nums = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect());
        let query = match self.channels {
            1 => nums(&self.query),
            k => Value::Arr(self.query.chunks(k.max(1)).map(nums).collect()),
        };
        Value::Obj(vec![
            ("query".into(), query),
            ("epsilon".into(), Value::Num(self.epsilon)),
            ("tick".into(), Value::Num(self.tick as f64)),
            ("distances".into(), nullable_arr(&self.distances)),
            ("starts".into(), u64_arr(&self.starts)),
            ("candidate".into(), self.candidate.to_json()),
            ("reported".into(), Value::Num(self.reported as f64)),
            ("generation".into(), Value::Num(self.generation as f64)),
        ])
    }

    /// The snapshot rendered as a pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Decodes a snapshot from a JSON value.
    ///
    /// # Errors
    /// Returns [`SpringError::InvalidQuery`] for missing or mistyped
    /// fields, and for ragged or empty query rows. Structural validation
    /// happens in [`Spring::restore`].
    pub fn from_json(v: &Value) -> Result<Self, SpringError> {
        let (query, channels) = query_field(v)?;
        Ok(SpringSnapshot {
            query,
            channels,
            epsilon: f64_field(v, "epsilon")?,
            tick: u64_field(v, "tick")?,
            distances: arr(
                field(v, "distances")?,
                "`distances`",
                "a number/null",
                |x| x.as_nullable_f64(f64::INFINITY),
            )?,
            starts: arr(field(v, "starts")?, "`starts`", "an integer", Value::as_u64)?,
            candidate: CandidateState::from_json(field(v, "candidate")?)?,
            // Format v1 vector documents carry neither counter, and
            // pre-arena scalar ones no generation.
            reported: counter_field(v, "reported")?,
            generation: counter_field(v, "generation")?,
        })
    }

    /// Parses a snapshot from JSON text.
    ///
    /// # Errors
    /// Returns [`SpringError::InvalidQuery`] on malformed JSON or schema
    /// mismatch.
    pub fn parse_json(text: &str) -> Result<Self, SpringError> {
        let v = Value::parse(text).map_err(|e| bad(&e.to_string()))?;
        Self::from_json(&v)
    }
}

/// Rejects checkpointed columns the kernel cannot hold: lengths that
/// disagree with the query length `m`, a distance that is NaN or
/// negative (the column state space is `[0, +∞]`), or a start after the
/// checkpoint's `tick`.
fn check_columns(
    m: usize,
    tick: u64,
    distances: &[f64],
    starts: &[u64],
) -> Result<(), SpringError> {
    if distances.len() != m + 1 || starts.len() != m + 1 {
        return Err(SpringError::InvalidQuery(format!(
            "snapshot columns have {} / {} entries, query needs {}",
            distances.len(),
            starts.len(),
            m + 1
        )));
    }
    if let Some(i) = distances.iter().position(|d| d.is_nan() || *d < 0.0) {
        return Err(SpringError::InvalidQuery(format!(
            "snapshot distance {} at row {i} is negative or NaN",
            distances[i]
        )));
    }
    if let Some(i) = starts.iter().position(|&s| s > tick) {
        return Err(SpringError::InvalidQuery(format!(
            "snapshot start {} at row {i} is after tick {tick}",
            starts[i]
        )));
    }
    Ok(())
}

impl<K: DistanceKernel> Spring<K> {
    /// Captures the monitor's complete live state.
    pub fn snapshot(&self) -> SpringSnapshot {
        let stwm = self.stwm();
        let (dmin, ts, te, group_start, group_end) = self.policy_state();
        SpringSnapshot {
            query: stwm.query().to_vec(),
            channels: stwm.query_ref().channels(),
            epsilon: self.epsilon(),
            tick: stwm.tick(),
            distances: stwm.distances().to_vec(),
            starts: stwm.starts().to_vec(),
            candidate: CandidateState {
                dmin,
                ts,
                te,
                group_start,
                group_end,
            },
            reported: self.reported_count(),
            generation: self.generation(),
        }
    }

    /// Resumes a monitor from a snapshot, with the kernel supplied by
    /// the caller (kernels are zero-sized strategies, not data).
    ///
    /// # Errors
    /// Rejects snapshots of a multichannel monitor (restore those with
    /// [`VectorSpring::restore`]), and those whose column lengths
    /// disagree with the query, whose columns hold a NaN or negative
    /// distance or a start after the tick, whose tick/candidate fields
    /// are inconsistent, or whose query is invalid.
    pub fn restore(snapshot: &SpringSnapshot, kernel: K) -> Result<Self, SpringError> {
        if snapshot.channels != 1 {
            return Err(SpringError::InvalidQuery(format!(
                "snapshot of a {}-channel monitor; restore it as a VectorSpring",
                snapshot.channels
            )));
        }
        Self::resume(snapshot, kernel)
    }

    /// The restore of either monitor: checks the snapshot, then loads
    /// it into a monitor over its query of any channel count.
    fn resume(snapshot: &SpringSnapshot, kernel: K) -> Result<Self, SpringError> {
        let query = QueryRef::flat(&snapshot.query, snapshot.channels)?;
        check_columns(
            query.len(),
            snapshot.tick,
            &snapshot.distances,
            &snapshot.starts,
        )?;
        let CandidateState {
            dmin,
            ts,
            te,
            group_start: gs,
            group_end: ge,
        } = snapshot.candidate;
        if dmin <= snapshot.epsilon && !(ts >= 1 && ts <= te && te <= snapshot.tick && gs <= ge) {
            return Err(SpringError::InvalidQuery(
                "snapshot candidate positions are inconsistent".into(),
            ));
        }
        let mut spring = Spring::with_rows(query, snapshot.epsilon, kernel)?;
        spring.load_state(snapshot);
        Ok(spring)
    }
}

impl Spring<Squared> {
    /// [`Spring::restore`] with the paper's default squared kernel.
    pub fn restore_squared(snapshot: &SpringSnapshot) -> Result<Self, SpringError> {
        Self::restore(snapshot, Squared)
    }
}

impl<K: DistanceKernel> VectorSpring<K> {
    /// Captures the monitor's complete live state: the scalar monitor's
    /// checkpoint, with the query's `k` channels.
    pub fn snapshot(&self) -> SpringSnapshot {
        self.0.snapshot()
    }

    /// Resumes a vector monitor from a snapshot of any channel count,
    /// with the kernel supplied by the caller.
    ///
    /// # Errors
    /// The checks of [`Spring::restore`], but for the channel count.
    pub fn restore(snapshot: &SpringSnapshot, kernel: K) -> Result<Self, SpringError> {
        Spring::resume(snapshot, kernel).map(VectorSpring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spring::SpringConfig;
    use crate::types::Match;
    use spring_data_free::pseudo_stream;

    /// Deterministic stream without external crates (mirrors naive.rs).
    mod spring_data_free {
        pub fn pseudo_stream(len: usize, seed: u64) -> Vec<f64> {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut v = 0.0;
            (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    v += ((state % 17) as f64 - 8.0) * 0.25;
                    v
                })
                .collect()
        }
    }

    fn run_all(spring: &mut Spring, stream: &[f64]) -> Vec<Match> {
        let mut out: Vec<Match> = stream.iter().filter_map(|&x| spring.step(x)).collect();
        out.extend(spring.finish());
        out
    }

    #[test]
    fn resume_is_indistinguishable_from_uninterrupted() {
        let query = [0.0, 2.0, -1.0, 1.0];
        for seed in 1..5 {
            let stream = pseudo_stream(150, seed);
            for cut in [1usize, 40, 75, 149] {
                // Uninterrupted reference.
                let mut whole = Spring::new(&query, SpringConfig::new(5.0)).unwrap();
                let expected = run_all(&mut whole, &stream);

                // Stop at `cut`, snapshot, restore, continue.
                let mut first = Spring::new(&query, SpringConfig::new(5.0)).unwrap();
                let mut got: Vec<Match> = stream[..cut]
                    .iter()
                    .filter_map(|&x| first.step(x))
                    .collect();
                let snap = first.snapshot();
                drop(first);
                let mut second = Spring::restore_squared(&snap).unwrap();
                got.extend(stream[cut..].iter().filter_map(|&x| second.step(x)));
                got.extend(second.finish());

                assert_eq!(got, expected, "seed {seed}, cut {cut}");
            }
        }
    }

    #[test]
    fn snapshot_carries_pending_candidate_and_counters() {
        let query = [1.0, 2.0, 3.0];
        let mut spring = Spring::new(&query, SpringConfig::new(0.5)).unwrap();
        for x in [9.0, 1.0, 2.0, 3.0] {
            spring.step(x);
        }
        let snap = spring.snapshot();
        assert_eq!(snap.tick, 4);
        assert!(snap.candidate.dmin <= 0.5, "candidate captured: {snap:?}");
        let mut resumed = Spring::restore_squared(&snap).unwrap();
        assert_eq!(resumed.pending(), spring.pending());
        // The pending match flushes identically from both.
        assert_eq!(resumed.finish(), spring.finish());
    }

    #[test]
    fn snapshot_size_is_independent_of_stream_length() {
        let query = vec![0.5; 32];
        let mut spring = Spring::new(&query, SpringConfig::new(1.0)).unwrap();
        spring.step(0.0);
        let early = spring.snapshot();
        for t in 0..10_000 {
            spring.step((t as f64 * 0.01).sin());
        }
        let late = spring.snapshot();
        assert_eq!(early.distances.len(), late.distances.len());
        assert_eq!(early.starts.len(), late.starts.len());
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let mut spring = Spring::new(&[1.0, 2.0], SpringConfig::new(1.0)).unwrap();
        spring.step(1.0);
        let good = spring.snapshot();

        let mut bad = good.clone();
        bad.distances.pop();
        assert!(Spring::restore_squared(&bad).is_err());

        let mut bad = good.clone();
        bad.query.clear();
        assert!(Spring::restore_squared(&bad).is_err());

        let mut bad = good.clone();
        bad.epsilon = -1.0;
        assert!(Spring::restore_squared(&bad).is_err());

        // Candidate claiming to end after the snapshot tick.
        let mut bad = good.clone();
        bad.candidate = CandidateState {
            dmin: 0.5,
            ts: 1,
            te: 99,
            group_start: 1,
            group_end: 99,
        };
        assert!(Spring::restore_squared(&bad).is_err());

        // Column values outside the kernel's state space [0, +∞].
        for d in [-1.0, -f64::MIN_POSITIVE, f64::NAN, f64::NEG_INFINITY] {
            let mut bad = good.clone();
            bad.distances[1] = d;
            assert!(Spring::restore_squared(&bad).is_err(), "distance {d}");
        }
        // A start after the snapshot's tick.
        let mut bad = good.clone();
        bad.starts[2] = good.tick + 1;
        assert!(Spring::restore_squared(&bad).is_err());
        // Not corrupt: `+∞` cells and starts at the tick itself.
        let mut fine = good.clone();
        fine.distances[2] = f64::INFINITY;
        fine.starts[1] = good.tick;
        assert!(Spring::restore_squared(&fine).is_ok());

        // The frozen v1 checkpoint with one distance flipped negative:
        // resumed on [3, 3, 9, 9, 9, 9] it would report a match at
        // distance −1000.
        let v1 = include_str!("../tests/fixtures/snapshot_v1.json");
        let mut bad = SpringSnapshot::parse_json(v1).unwrap();
        Spring::restore_squared(&bad).expect("the fixture itself restores");
        bad.distances[3] = -1000.0;
        let err = Spring::restore_squared(&bad).unwrap_err();
        assert!(err.to_string().contains("negative"), "{err}");
    }

    #[test]
    fn json_roundtrip_preserves_snapshot_exactly() {
        let query = [1.0, 2.0, 3.0];
        let mut spring = Spring::new(&query, SpringConfig::new(0.5)).unwrap();
        for x in [9.0, 1.0, 2.0, 3.0] {
            spring.step(x);
        }
        let snap = spring.snapshot();
        let text = snap.to_json_string();
        let back = SpringSnapshot::parse_json(&text).unwrap();
        assert_eq!(back, snap);

        // A fresh monitor's column is all-infinite above row 0; those
        // cells must encode as `null`, not `inf`, and roundtrip back.
        let fresh = Spring::new(&query, SpringConfig::new(0.5))
            .unwrap()
            .snapshot();
        let text = fresh.to_json_string();
        assert!(text.contains("null"), "{text}");
        assert!(!text.contains("inf"), "{text}");
        let back = SpringSnapshot::parse_json(&text).unwrap();
        assert_eq!(back, fresh);
    }

    #[test]
    fn json_parse_rejects_malformed_documents() {
        assert!(SpringSnapshot::parse_json("not json").is_err());
        assert!(SpringSnapshot::parse_json("{}").is_err());
        assert!(SpringSnapshot::parse_json(r#"{"query":[1.0]}"#).is_err());
    }

    #[test]
    fn restore_with_absolute_kernel_respects_the_kernel() {
        use spring_dtw::kernels::Absolute;
        let query = [0.0, 4.0];
        let mut a = Spring::with_kernel(&query, SpringConfig::new(1.0), Absolute).unwrap();
        a.step(9.0);
        let snap = a.snapshot();
        let mut b = Spring::restore(&snap, Absolute).unwrap();
        // Next step must use |x−y|, not (x−y)²: feed an exact occurrence.
        let mut hits = Vec::new();
        for x in [0.0, 4.0, 9.0] {
            hits.extend(b.step(x));
        }
        hits.extend(b.finish());
        assert!(hits.iter().any(|m| m.distance == 0.0), "{hits:?}");
    }
}

#[cfg(test)]
mod vector_tests {
    use super::SpringSnapshot;
    use crate::monitor::Monitor;
    use crate::{Spring, VectorSpring};
    use spring_dtw::kernels::{Absolute, DistanceKernel, Squared};
    use spring_util::json::Value;

    fn rows(seed: u64, len: usize) -> Vec<Vec<f64>> {
        (0..len)
            .map(|t| {
                vec![
                    ((t as f64 + seed as f64) * 0.7).sin() * 3.0,
                    ((t as f64 * 1.3 + seed as f64) * 0.4).cos() * 2.0,
                ]
            })
            .collect()
    }

    /// Runs `stream` through a monitor cut at every `cuts` offset and
    /// restored from its JSON checkpoint, and through one that never
    /// stopped: the reports must agree to the bit.
    fn resume_matches_uninterrupted<K: DistanceKernel>(kernel: K, eps: f64, cuts: &[usize]) {
        let query = rows(9, 5);
        let stream = rows(2, 80);
        let bits = |ms: &[crate::Match]| {
            ms.iter()
                .map(|m| {
                    let bounds = (m.group_start, m.group_end);
                    (m.start, m.end, m.distance.to_bits(), m.reported_at, bounds)
                })
                .collect::<Vec<_>>()
        };
        let mut whole = VectorSpring::with_kernel(&query, eps, kernel).unwrap();
        let mut expected = Vec::new();
        for r in &stream {
            expected.extend(whole.step(r).unwrap());
        }
        expected.extend(whole.finish());
        assert!(!expected.is_empty(), "the workload must match");
        for &cut in cuts {
            let mut first = VectorSpring::with_kernel(&query, eps, kernel).unwrap();
            let mut got = Vec::new();
            for r in &stream[..cut] {
                got.extend(first.step(r).unwrap());
            }
            let text = first.snapshot().to_json_string();
            drop(first);
            let snap = SpringSnapshot::parse_json(&text).unwrap();
            let mut second = VectorSpring::restore(&snap, kernel).unwrap();
            assert_eq!(second.snapshot().reported, got.len() as u64, "cut {cut}");
            for r in &stream[cut..] {
                got.extend(second.step(r).unwrap());
            }
            got.extend(second.finish());
            assert_eq!(bits(&got), bits(&expected), "cut {cut}");
        }
    }

    #[test]
    fn vector_resume_is_indistinguishable_from_uninterrupted() {
        resume_matches_uninterrupted(Squared, 6.0, &[1, 30, 79]);
    }

    #[test]
    fn absolute_kernel_vector_resume_is_bit_identical() {
        resume_matches_uninterrupted(Absolute, 6.0, &[1, 17, 30, 55, 79]);
    }

    #[test]
    fn vector_json_roundtrip_preserves_snapshot_exactly() {
        let query = rows(3, 4);
        let mut vs = VectorSpring::new(&query, 2.0).unwrap();
        for r in rows(5, 20) {
            vs.step(&r).unwrap();
        }
        vs.set_generation(2);
        let snap = vs.snapshot();
        assert_eq!((snap.channels, snap.query.len()), (2, 8));
        let text = snap.to_json_string();
        // Nested query rows, and both counters.
        assert!(text.contains("\"query\": [\n    [\n"), "{text}");
        assert!(text.contains("\"reported\""), "{text}");
        assert!(text.contains("\"generation\": 2"), "{text}");
        let back = SpringSnapshot::parse_json(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn vector_restore_rejects_corrupt_snapshots() {
        let query = rows(1, 3);
        let mut vs = VectorSpring::new(&query, 1.0).unwrap();
        vs.step(&[0.0, 0.0]).unwrap();
        let good = vs.snapshot();
        VectorSpring::restore(&good, Squared).expect("the snapshot itself restores");
        // The scalar monitor takes only one-channel checkpoints.
        let err = Spring::restore_squared(&good).unwrap_err();
        assert!(err.to_string().contains("2-channel"), "{err}");
        let mut bad = good.clone();
        bad.starts.pop();
        assert!(VectorSpring::restore(&bad, Squared).is_err());
        let mut bad = good.clone();
        bad.query.clear();
        assert!(VectorSpring::restore(&bad, Squared).is_err());
        let mut bad = good.clone();
        bad.query.pop();
        assert!(VectorSpring::restore(&bad, Squared).is_err());
        let mut bad = good.clone();
        bad.channels = 0;
        assert!(VectorSpring::restore(&bad, Squared).is_err());
        let mut bad = good.clone();
        bad.distances[1] = -1.0;
        assert!(VectorSpring::restore(&bad, Squared).is_err());
        let mut bad = good.clone();
        bad.distances[1] = f64::NAN;
        assert!(VectorSpring::restore(&bad, Squared).is_err());
        let mut bad = good.clone();
        bad.starts[1] = good.tick + 1;
        assert!(VectorSpring::restore(&bad, Squared).is_err());
        // Ragged or empty query rows fail to decode.
        for query in ["[[1.0, 2.0], [3.0]]", "[[], []]", "[[1.0], 2.0]"] {
            let mut doc = good.to_json();
            if let Value::Obj(fields) = &mut doc {
                fields[0].1 = Value::parse(query).unwrap();
            }
            assert!(SpringSnapshot::from_json(&doc).is_err(), "{query}");
        }
    }
}
