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
//! [`Spring::snapshot`] captures that state as a plain-data
//! [`SpringSnapshot`]; [`Spring::restore`] resumes from it, producing a
//! monitor whose future reports are **identical** to one that never
//! stopped (property-tested). [`SpringSnapshot::to_json`] /
//! [`SpringSnapshot::from_json`] give a stable JSON wire format
//! (non-finite distances encode as `null`).

use spring_dtw::kernels::{DistanceKernel, Squared};
use spring_util::json::{nullable_arr, nullable_num, u64_arr, Value};

use crate::error::SpringError;
use crate::spring::{Spring, SpringConfig};

/// A resumable checkpoint of a [`Spring`] monitor. Plain data: `O(m)`
/// numbers, independent of how long the stream has been running.
#[derive(Debug, Clone, PartialEq)]
pub struct SpringSnapshot {
    /// The monitored query sequence.
    pub query: Vec<f64>,
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
    /// Matches reported so far.
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

/// Decodes an array of numbers-or-null, nulls mapping to `+∞`.
fn nullable_f64_field(v: &Value, key: &str) -> Result<Vec<f64>, SpringError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| bad(&format!("`{key}` is not an array")))?
        .iter()
        .map(|x| {
            x.as_nullable_f64(f64::INFINITY)
                .ok_or_else(|| bad(&format!("`{key}` entry is not a number/null")))
        })
        .collect()
}

fn f64_arr_field(v: &Value, key: &str) -> Result<Vec<f64>, SpringError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| bad(&format!("`{key}` is not an array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| bad(&format!("`{key}` entry is not a number")))
        })
        .collect()
}

fn u64_arr_field(v: &Value, key: &str) -> Result<Vec<u64>, SpringError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| bad(&format!("`{key}` is not an array")))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| bad(&format!("`{key}` entry is not an integer")))
        })
        .collect()
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
    /// Encodes the snapshot as a JSON value (`+∞` distances as `null`).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "query".into(),
                Value::Arr(self.query.iter().map(|&x| Value::Num(x)).collect()),
            ),
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
    /// fields. Structural validation happens in [`Spring::restore`].
    pub fn from_json(v: &Value) -> Result<Self, SpringError> {
        Ok(SpringSnapshot {
            query: f64_arr_field(v, "query")?,
            epsilon: f64_field(v, "epsilon")?,
            tick: u64_field(v, "tick")?,
            distances: nullable_f64_field(v, "distances")?,
            starts: u64_arr_field(v, "starts")?,
            candidate: CandidateState::from_json(field(v, "candidate")?)?,
            reported: u64_field(v, "reported")?,
            // Format v1 (pre-arena) has no generation; default 0. A v2
            // document carrying the field must still type-check.
            generation: match v.get("generation") {
                Some(g) => g
                    .as_u64()
                    .ok_or_else(|| bad("`generation` is not an integer"))?,
                None => 0,
            },
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
        SpringSnapshot {
            query: stwm.query().to_vec(),
            epsilon: self.epsilon(),
            tick: stwm.tick(),
            distances: stwm.distances().to_vec(),
            starts: stwm.starts().to_vec(),
            candidate: {
                let (dmin, ts, te, group_start, group_end) = self.policy_state();
                CandidateState {
                    dmin,
                    ts,
                    te,
                    group_start,
                    group_end,
                }
            },
            reported: self.reported_count(),
            generation: self.generation(),
        }
    }

    /// Resumes a monitor from a snapshot, with the kernel supplied by
    /// the caller (kernels are zero-sized strategies, not data).
    ///
    /// # Errors
    /// Rejects snapshots whose column lengths disagree with the query,
    /// whose columns hold a NaN or negative distance or a start after
    /// the tick, whose tick/candidate fields are inconsistent, or whose
    /// query is invalid.
    pub fn restore(snapshot: &SpringSnapshot, kernel: K) -> Result<Self, SpringError> {
        check_columns(
            snapshot.query.len(),
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
        let mut spring =
            Spring::with_kernel(&snapshot.query, SpringConfig::new(snapshot.epsilon), kernel)?;
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

/// A resumable checkpoint of a [`crate::VectorSpring`] monitor
/// (Sec. 5.3 vector streams). Same shape as [`SpringSnapshot`] with a
/// multivariate query.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSnapshot {
    /// The monitored query, one row of channel values per tick.
    pub query: Vec<Vec<f64>>,
    /// The threshold `ε`.
    pub epsilon: f64,
    /// 1-based tick of the last consumed sample.
    pub tick: u64,
    /// Current STWM distance column (`+∞` serialized as `null`).
    pub distances: Vec<f64>,
    /// Current STWM start-position column.
    pub starts: Vec<u64>,
    /// Pending-candidate bookkeeping.
    pub candidate: CandidateState,
}

impl VectorSnapshot {
    /// Encodes the snapshot as a JSON value (`+∞` distances as `null`).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "query".into(),
                Value::Arr(
                    self.query
                        .iter()
                        .map(|row| Value::Arr(row.iter().map(|&x| Value::Num(x)).collect()))
                        .collect(),
                ),
            ),
            ("epsilon".into(), Value::Num(self.epsilon)),
            ("tick".into(), Value::Num(self.tick as f64)),
            ("distances".into(), nullable_arr(&self.distances)),
            ("starts".into(), u64_arr(&self.starts)),
            ("candidate".into(), self.candidate.to_json()),
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
    /// fields.
    pub fn from_json(v: &Value) -> Result<Self, SpringError> {
        let rows = field(v, "query")?
            .as_arr()
            .ok_or_else(|| bad("`query` is not an array"))?
            .iter()
            .map(|row| {
                row.as_arr()
                    .ok_or_else(|| bad("`query` row is not an array"))?
                    .iter()
                    .map(|x| {
                        x.as_f64()
                            .ok_or_else(|| bad("`query` cell is not a number"))
                    })
                    .collect::<Result<Vec<f64>, SpringError>>()
            })
            .collect::<Result<Vec<Vec<f64>>, SpringError>>()?;
        Ok(VectorSnapshot {
            query: rows,
            epsilon: f64_field(v, "epsilon")?,
            tick: u64_field(v, "tick")?,
            distances: nullable_f64_field(v, "distances")?,
            starts: u64_arr_field(v, "starts")?,
            candidate: CandidateState::from_json(field(v, "candidate")?)?,
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

impl crate::VectorSpring<Squared> {
    /// Captures the monitor's complete live state.
    pub fn snapshot(&self) -> VectorSnapshot {
        let (tick, distances, starts, (dmin, ts, te, group_start, group_end)) = self.state();
        VectorSnapshot {
            query: self.query_rows(),
            epsilon: self.epsilon(),
            tick,
            distances,
            starts,
            candidate: CandidateState {
                dmin,
                ts,
                te,
                group_start,
                group_end,
            },
        }
    }

    /// Resumes a vector monitor from a snapshot.
    ///
    /// # Errors
    /// The same checks as [`Spring::restore`].
    pub fn restore(snapshot: &VectorSnapshot) -> Result<Self, SpringError> {
        check_columns(
            snapshot.query.len(),
            snapshot.tick,
            &snapshot.distances,
            &snapshot.starts,
        )?;
        let c = snapshot.candidate;
        if c.dmin <= snapshot.epsilon
            && !(c.ts >= 1 && c.ts <= c.te && c.te <= snapshot.tick && c.group_start <= c.group_end)
        {
            return Err(SpringError::InvalidQuery(
                "snapshot candidate positions are inconsistent".into(),
            ));
        }
        let mut vs = crate::VectorSpring::new(&snapshot.query, snapshot.epsilon)?;
        vs.load_state(
            snapshot.tick,
            &snapshot.distances,
            &snapshot.starts,
            (c.dmin, c.ts, c.te, c.group_start, c.group_end),
        );
        Ok(vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    use crate::VectorSpring;

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

    #[test]
    fn vector_resume_is_indistinguishable_from_uninterrupted() {
        let query = rows(9, 5);
        let stream = rows(2, 80);
        for cut in [1usize, 30, 79] {
            let mut whole = VectorSpring::new(&query, 6.0).unwrap();
            let mut expected = Vec::new();
            for r in &stream {
                expected.extend(whole.step(r).unwrap());
            }
            expected.extend(whole.finish());

            let mut first = VectorSpring::new(&query, 6.0).unwrap();
            let mut got = Vec::new();
            for r in &stream[..cut] {
                got.extend(first.step(r).unwrap());
            }
            let snap = first.snapshot();
            drop(first);
            let mut second = VectorSpring::restore(&snap).unwrap();
            for r in &stream[cut..] {
                got.extend(second.step(r).unwrap());
            }
            got.extend(second.finish());
            assert_eq!(got, expected, "cut {cut}");
        }
    }

    #[test]
    fn vector_json_roundtrip_preserves_snapshot_exactly() {
        use super::VectorSnapshot;
        let query = rows(3, 4);
        let mut vs = VectorSpring::new(&query, 2.0).unwrap();
        for r in rows(5, 20) {
            vs.step(&r).unwrap();
        }
        let snap = vs.snapshot();
        let back = VectorSnapshot::parse_json(&snap.to_json_string()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn vector_restore_rejects_corrupt_snapshots() {
        let query = rows(1, 3);
        let mut vs = VectorSpring::new(&query, 1.0).unwrap();
        vs.step(&[0.0, 0.0]).unwrap();
        let good = vs.snapshot();
        let mut bad = good.clone();
        bad.starts.pop();
        assert!(VectorSpring::restore(&bad).is_err());
        let mut bad = good.clone();
        bad.query.clear();
        assert!(VectorSpring::restore(&bad).is_err());
        let mut bad = good.clone();
        bad.distances[1] = -1.0;
        assert!(VectorSpring::restore(&bad).is_err());
        let mut bad = good.clone();
        bad.distances[1] = f64::NAN;
        assert!(VectorSpring::restore(&bad).is_err());
        let mut bad = good.clone();
        bad.starts[1] = good.tick + 1;
        assert!(VectorSpring::restore(&bad).is_err());
    }
}
