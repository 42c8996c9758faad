//! The SPRING disjoint-query monitor (paper Fig. 4).
//!
//! For each incoming value the monitor updates the STWM column, then:
//!
//! 1. If a captured candidate exists (`dmin ≤ ε`) and no in-flight warping
//!    path can still improve or overlap it
//!    (`∀i: d_i ≥ dmin ∨ s_i > te`, Equation 9), the candidate is
//!    **reported** and the in-group cells are invalidated.
//! 2. If the best subsequence ending *now* qualifies (`d_m ≤ ε`) and beats
//!    the captured candidate (`d_m < dmin`), it becomes the new candidate.
//!
//! This reports exactly the local optimum of each group of overlapping
//! qualifying subsequences — no false dismissals (paper Lemma 2) — as
//! early as the stream permits.

use spring_dtw::kernels::{DistanceKernel, Squared};

use crate::error::{check_epsilon, SpringError};
use crate::mem::MemoryUse;
use crate::monitor::FrameScan;
use crate::policy::{ColumnOps, DisjointPolicy};
use crate::stwm::Stwm;
use crate::types::Match;

/// [`ColumnOps`] over an STWM column.
pub(crate) struct StwmOps<'a, K: DistanceKernel>(pub &'a mut Stwm<K>);

impl<K: DistanceKernel> ColumnOps for StwmOps<'_, K> {
    /// Stops at the band top: every cell above it is above ε ≥ dmin.
    fn confirmed(&self, dmin: f64, te: u64) -> bool {
        let top = self.0.top();
        let d = self.0.distances();
        let s = self.0.starts();
        (1..=top).all(|i| d[i] >= dmin || s[i] > te)
    }

    /// Runs only when a report fires, so it walks the whole column:
    /// every in-group cell becomes `+∞`, as in the paper's reset.
    fn invalidate(&mut self, te: u64) {
        // Invalidate cells still belonging to the reported group; paths
        // starting after te may seed the next group.
        for i in 1..=self.0.query_len() {
            if self.0.starts()[i] <= te {
                self.0.invalidate(i);
            }
        }
    }

    fn current(&self) -> (f64, u64) {
        (self.0.current_distance(), self.0.current_start())
    }
}

/// Configuration for a [`Spring`] monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpringConfig {
    /// Distance threshold `ε` of the disjoint query (Problem 2).
    pub epsilon: f64,
}

impl SpringConfig {
    /// Configuration with threshold `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        SpringConfig { epsilon }
    }
}

/// Streaming disjoint-query monitor: one fixed query over one stream.
///
/// See the crate-level docs for a worked example. Requires `O(m)` space
/// and at most `O(m)` time per tick regardless of how long the stream
/// has been running (paper Lemma 4): the matrix is ε-banded (see
/// [`Stwm`]), so a tick computes only the rows that can still reach ε.
/// An idle tick — empty band and a sample farther than ε from the
/// query's first element — costs `O(1)`.
#[derive(Debug, Clone)]
pub struct Spring<K: DistanceKernel = Squared> {
    stwm: Stwm<K>,
    policy: DisjointPolicy,
    /// Total matches reported (monitoring statistic).
    reported: u64,
    /// Query generation this monitor was built against (bumped by the
    /// fleet-wide hot-swap path; recorded in checkpoints so replay can
    /// tell pre- from post-swap state).
    generation: u64,
}

impl Spring<Squared> {
    /// Monitor with the paper's default squared kernel.
    pub fn new(query: &[f64], config: SpringConfig) -> Result<Self, SpringError> {
        Self::with_kernel(query, config, Squared)
    }
}

impl<K: DistanceKernel> Spring<K> {
    /// Monitor with an explicit distance kernel.
    pub fn with_kernel(
        query: &[f64],
        config: SpringConfig,
        kernel: K,
    ) -> Result<Self, SpringError> {
        check_epsilon(config.epsilon)?;
        Ok(Self::banded(
            Stwm::with_kernel(query, kernel)?,
            config.epsilon,
        ))
    }

    /// Monitor over a shared arena entry ([`crate::QueryRef`]): borrows
    /// the pattern, allocating only the
    /// per-attachment DP columns. Bit-identical to the plain
    /// constructors on the same pattern.
    ///
    /// # Errors
    /// Rejects an invalid ε or a multivariate entry.
    pub fn with_query_ref(
        query: std::sync::Arc<crate::QueryRef>,
        config: SpringConfig,
        kernel: K,
    ) -> Result<Self, SpringError> {
        check_epsilon(config.epsilon)?;
        Ok(Self::banded(
            Stwm::with_query_ref(query, kernel)?,
            config.epsilon,
        ))
    }

    /// Monitor over an arena entry of any channel count `k`
    /// ([`crate::VectorSpring`]'s matrix). A `k`-channel monitor is
    /// stepped only by [`Spring::step_row`].
    ///
    /// # Errors
    /// Rejects an invalid ε.
    pub(crate) fn with_rows(
        query: std::sync::Arc<crate::QueryRef>,
        epsilon: f64,
        kernel: K,
    ) -> Result<Self, SpringError> {
        check_epsilon(epsilon)?;
        Ok(Self::banded(Stwm::with_rows(query, kernel), epsilon))
    }

    /// A fresh monitor over `stwm`, banded at the checked `epsilon`.
    fn banded(stwm: Stwm<K>, epsilon: f64) -> Self {
        Spring {
            stwm: stwm.with_band(epsilon),
            policy: DisjointPolicy::new(epsilon),
            reported: 0,
            generation: 0,
        }
    }

    /// The shared arena entry backing this monitor.
    pub fn query_ref(&self) -> &std::sync::Arc<crate::QueryRef> {
        self.stwm.query_ref()
    }

    /// Query generation this monitor reflects (0 until a hot-swap).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Tags the monitor with a query generation (hot-swap bookkeeping;
    /// does not touch the matrix).
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// The threshold `ε`.
    pub fn epsilon(&self) -> f64 {
        self.policy.epsilon
    }

    /// Query length `m`.
    pub fn query_len(&self) -> usize {
        self.stwm.query_len()
    }

    /// Current 1-based tick.
    pub fn tick(&self) -> u64 {
        self.stwm.tick()
    }

    /// Number of matches reported so far.
    pub fn reported_count(&self) -> u64 {
        self.reported
    }

    /// The captured-but-unconfirmed candidate, if any:
    /// `(distance, start, end)`.
    pub fn pending(&self) -> Option<(f64, u64, u64)> {
        self.policy.pending()
    }

    /// Read access to the underlying STWM (current column, tick, query).
    pub fn stwm(&self) -> &Stwm<K> {
        &self.stwm
    }

    /// Policy bookkeeping for [`crate::snapshot::SpringSnapshot`].
    pub(crate) fn policy_state(&self) -> (f64, u64, u64, u64, u64) {
        self.policy.state()
    }

    /// Restores checkpointed state (column + policy + counters); the
    /// monitor must have been constructed with the snapshot's query and
    /// epsilon.
    pub(crate) fn load_state(&mut self, snap: &crate::snapshot::SpringSnapshot) {
        self.stwm
            .load_column(snap.tick, &snap.distances, &snap.starts);
        let c = snap.candidate;
        self.policy
            .set_state((c.dmin, c.ts, c.te, c.group_start, c.group_end));
        self.reported = snap.reported;
        self.generation = snap.generation;
    }

    /// Mutable STWM access for [`crate::PathSpring`], which needs the
    /// traced step; callers must invoke `after_column` exactly once per
    /// column filled.
    pub(crate) fn stwm_mut(&mut self) -> &mut Stwm<K> {
        &mut self.stwm
    }

    /// Consumes the next stream value; returns a match if one group's
    /// optimum was confirmed at this tick. Fills only the ε-band of the
    /// column (see [`Stwm`]), and no column at all on an idle tick
    /// (empty band, `‖x − y_1‖ > ε`): the matches are exactly those of
    /// the full recurrence, and the column is ε-equivalent to it.
    ///
    /// In release builds non-finite inputs corrupt the matrix silently;
    /// use [`Spring::step_checked`] on untrusted input.
    pub fn step(&mut self, x: f64) -> Option<Match> {
        debug_assert!(x.is_finite(), "stream value must be finite");
        if self.stwm.skip_idle(std::slice::from_ref(&x), 0, &[]) == 1 {
            return None;
        }
        self.stwm.step(x);
        self.after_column()
    }

    /// Like [`Spring::step`], but fills every row of the column with the
    /// branchy scalar reference loop instead of the banded SoA kernel.
    /// The two paths report the same matches and keep ε-equivalent
    /// columns (every cell at or below ε has the same `f64::to_bits`
    /// distance and the same start; every other cell is above ε on both
    /// paths). The differential suite and the `kernel_throughput` bench
    /// use this as the executable spec / speedup baseline.
    pub fn step_reference(&mut self, x: f64) -> Option<Match> {
        debug_assert!(x.is_finite(), "stream value must be finite");
        self.stwm.step_reference(x);
        self.after_column()
    }

    /// Validating variant of [`Spring::step`].
    pub fn step_checked(&mut self, x: f64) -> Result<Option<Match>, SpringError> {
        if !x.is_finite() {
            return Err(SpringError::NonFiniteInput {
                tick: self.stwm.tick() + 1,
            });
        }
        Ok(self.step(x))
    }

    /// Consumes the next `k`-channel sample of a [`Spring::with_rows`]
    /// monitor (`Stwm::step_row`), then runs the policy as
    /// [`Spring::step`] does.
    ///
    /// # Errors
    /// Fails when `x` does not have `k` channels; the monitor is then
    /// unchanged.
    pub(crate) fn step_row(&mut self, x: &[f64]) -> Result<Option<Match>, SpringError> {
        self.stwm.step_row(x)?;
        Ok(self.after_column())
    }

    /// The report/capture logic shared by `step`, `step_row` and
    /// [`crate::PathSpring`].
    pub(crate) fn after_column(&mut self) -> Option<Match> {
        let t = self.stwm.tick();
        let report = self.policy.step(t, &mut StwmOps(&mut self.stwm));
        self.reported += u64::from(report.is_some());
        report
    }

    /// Steps finite `samples`: a loop of the idle skip (empty ε-band,
    /// `‖x − y_1‖ > ε`: one distance per sample, or per chunk with the
    /// frame's `ranges`, and no column fill) and one banded column.
    /// `samples[0]` sits at offset `at` of the frame `ranges` describe
    /// (see `Stwm::skip_idle`).
    fn step_present(
        &mut self,
        samples: &[f64],
        at: usize,
        ranges: &[(f64, f64)],
        out: &mut Vec<Match>,
    ) {
        let mut k = 0;
        while k < samples.len() {
            k += self.stwm.skip_idle(&samples[k..], at + k, ranges);
            if let Some(&x) = samples.get(k) {
                self.stwm.step(x);
                out.extend(self.after_column());
                k += 1;
            }
        }
    }

    /// Declares the end of the stream: reports the still-pending group
    /// optimum, if any. Idempotent.
    pub fn finish(&mut self) -> Option<Match> {
        let report = self.policy.finish(self.stwm.tick());
        self.reported += u64::from(report.is_some());
        report
    }
}

impl<K: DistanceKernel> MemoryUse for Spring<K> {
    fn bytes_used(&self) -> usize {
        self.stwm.bytes_used()
    }
}

impl<K: DistanceKernel> crate::monitor::Monitor for Spring<K> {
    type Sample = f64;

    fn variant(&self) -> crate::monitor::MonitorVariant {
        crate::monitor::MonitorVariant::Spring
    }

    fn step(&mut self, sample: &f64) -> Result<Option<Match>, SpringError> {
        self.step_checked(*sample)
    }

    /// Batch path: after one scan for the first non-finite sample,
    /// `Spring::step_present` over the samples before it. Same
    /// matches as per-sample stepping, with ε-equivalent columns.
    /// Matches append to the caller-owned `out`; the steady state
    /// allocates nothing.
    fn step_batch(&mut self, samples: &[f64], out: &mut Vec<Match>) -> Result<(), SpringError> {
        // The error contract consumes every sample before the first
        // non-finite one. A pass without an early exit vectorizes; only
        // a batch that holds a non-finite sample is scanned for it.
        let bad = match samples.iter().fold(true, |ok, x| ok & x.is_finite()) {
            true => None,
            false => samples.iter().position(|x| !x.is_finite()),
        };
        self.step_present(&samples[..bad.unwrap_or(samples.len())], 0, &[], out);
        match bad {
            Some(_) => Err(SpringError::NonFiniteInput {
                tick: self.stwm.tick() + 1,
            }),
            None => Ok(()),
        }
    }

    /// The engine's path: the frame scan already found the run's
    /// samples finite, and its chunk ranges let the idle skip prove a
    /// chunk idle with one distance.
    fn step_run(
        &mut self,
        run: &[f64],
        at: usize,
        scan: &FrameScan,
        out: &mut Vec<Match>,
    ) -> Result<(), SpringError> {
        debug_assert!(run.iter().all(|x| x.is_finite()), "a run is present");
        self.step_present(run, at, &scan.ranges, out);
        Ok(())
    }

    /// A frame the scan proves idle (`Stwm::skip_frame`): no column and
    /// no policy step, as on every idle tick of `step_run`.
    fn skip_frame(&mut self, frame: &[f64], scan: &FrameScan) -> bool {
        self.stwm.skip_frame(frame, scan)
    }

    fn finish(&mut self) -> Option<Match> {
        Spring::finish(self)
    }

    fn query_len(&self) -> usize {
        Spring::query_len(self)
    }

    fn epsilon(&self) -> Option<f64> {
        Some(Spring::epsilon(self))
    }

    fn tick(&self) -> u64 {
        Spring::tick(self)
    }

    fn memory_use(&self) -> usize {
        self.bytes_used()
    }

    fn memory_cells(&self) -> usize {
        // Per-attachment cells only: DP columns + scratch. The shared
        // pattern is reported once per query through
        // `shared_memory_cells`, not once per attachment.
        self.stwm.attachment_cells()
    }

    fn shared_memory_cells(&self) -> usize {
        self.stwm.query_ref().cells()
    }

    fn query_fingerprint(&self) -> Option<u64> {
        Some(self.stwm.query_ref().fingerprint())
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    fn reset(&mut self) {
        self.stwm.reset();
        self.policy = DisjointPolicy::new(self.policy.epsilon);
        self.reported = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel;

    fn run(query: &[f64], stream: &[f64], eps: f64) -> Vec<Match> {
        let mut spring = Spring::new(query, SpringConfig::new(eps)).unwrap();
        let mut out: Vec<Match> = stream.iter().filter_map(|&x| spring.step(x)).collect();
        out.extend(spring.finish());
        out
    }

    #[test]
    fn example1_reproduces_the_paper_exactly() {
        // ε = 15, X = (5,12,6,10,6,5,13), Y = (11,6,9,4): the optimal
        // subsequence X[2:5] (distance 6) is reported at t = 7.
        let out = run(
            &[11.0, 6.0, 9.0, 4.0],
            &[5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0],
            15.0,
        );
        assert_eq!(out.len(), 1);
        let m = out[0];
        assert_eq!((m.start, m.end, m.distance, m.reported_at), (2, 5, 6.0, 7));
    }

    #[test]
    fn example1_candidate_timeline() {
        let query = [11.0, 6.0, 9.0, 4.0];
        let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
        let mut spring = Spring::new(&query, SpringConfig::new(15.0)).unwrap();
        let mut pendings = Vec::new();
        for &x in &stream {
            let r = spring.step(x);
            pendings.push((spring.tick(), spring.pending(), r.is_some()));
        }
        // t = 3: candidate X[2:3] at distance 14 captured, not reported.
        assert_eq!(pendings[2], (3, Some((14.0, 2, 3)), false));
        // t = 4: still held (d(4,3) = 2 could grow into a better match).
        assert_eq!(pendings[3], (4, Some((14.0, 2, 3)), false));
        // t = 5: replaced by X[2:5] at distance 6.
        assert_eq!(pendings[4], (5, Some((6.0, 2, 5)), false));
        // t = 7: reported; pending cleared.
        assert_eq!(pendings[6].1, None);
        assert!(pendings[6].2);
    }

    #[test]
    fn example1_keeps_cell_of_next_group_alive() {
        // After the report at t = 7, d(7, 1) (start 7 > te = 5) must
        // survive the reset: "we do not initialize d(7, 1)".
        let query = [11.0, 6.0, 9.0, 4.0];
        let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
        let mut spring = Spring::new(&query, SpringConfig::new(15.0)).unwrap();
        for &x in &stream {
            spring.step(x);
        }
        let d = spring.stwm().distances();
        assert_eq!(d[1], 4.0); // (13 − 11)², intact
        assert!(d[2].is_infinite() && d[3].is_infinite() && d[4].is_infinite());
    }

    #[test]
    fn no_match_when_epsilon_too_small() {
        let out = run(
            &[11.0, 6.0, 9.0, 4.0],
            &[5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0],
            5.0,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn finish_flushes_trailing_group() {
        // The stream ends while the candidate is still improving; only
        // finish() can report it.
        let query = [1.0, 2.0, 3.0];
        let stream = [9.0, 9.0, 1.0, 2.0, 3.0];
        let mut spring = Spring::new(&query, SpringConfig::new(0.5)).unwrap();
        let mut inline = Vec::new();
        for &x in &stream {
            inline.extend(spring.step(x));
        }
        assert!(inline.is_empty());
        let tail = spring.finish().expect("pending match flushed");
        assert_eq!((tail.start, tail.end, tail.distance), (3, 5, 0.0));
        assert_eq!(spring.finish(), None, "finish is idempotent");
    }

    #[test]
    fn two_disjoint_occurrences_yield_two_reports() {
        let query = [0.0, 10.0, 0.0];
        let mut stream = vec![50.0; 5];
        stream.extend([0.0, 10.0, 0.0]);
        stream.extend(vec![50.0; 5]);
        stream.extend([0.0, 10.0, 0.0]);
        stream.extend(vec![50.0; 5]);
        let out = run(&query, &stream, 1.0);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].start, out[0].end), (6, 8));
        assert_eq!((out[1].start, out[1].end), (14, 16));
        assert!(!out[0].overlaps(&out[1]));
        assert_eq!(out[0].distance, 0.0);
    }

    #[test]
    fn overlapping_candidates_report_only_the_local_minimum() {
        // A slightly-off occurrence immediately followed by a perfect one:
        // both qualify and overlap; only the better one may be reported.
        let query = [0.0, 10.0, 0.0];
        let mut stream = vec![50.0; 3];
        stream.extend([0.5, 10.5, 0.0, 10.0, 0.0]); // overlapping matches
        stream.extend(vec![50.0; 3]);
        let out = run(&query, &stream, 2.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].distance, 0.0);
        assert_eq!((out[0].start, out[0].end), (6, 8));
    }

    #[test]
    fn group_extent_covers_all_overlapping_candidates() {
        let query = [0.0, 10.0, 0.0];
        let mut stream = vec![50.0; 3];
        stream.extend([0.5, 10.5, 0.0, 10.0, 0.0]);
        stream.extend(vec![50.0; 3]);
        let out = run(&query, &stream, 2.0);
        assert_eq!(out.len(), 1);
        // The qualifying group includes the earlier, worse candidate.
        assert!(out[0].group_start <= 4);
        assert!(out[0].group_end >= out[0].end);
    }

    #[test]
    fn report_delay_is_zero_or_more_and_bounded_by_disjointness() {
        let query = [0.0, 5.0, 0.0];
        let mut stream = Vec::new();
        for _ in 0..4 {
            stream.extend(vec![99.0; 6]);
            stream.extend([0.0, 5.0, 0.0]);
        }
        stream.extend(vec![99.0; 6]);
        let out = run(&query, &stream, 0.5);
        assert_eq!(out.len(), 4);
        for m in &out {
            assert!(m.reported_at >= m.end);
        }
    }

    #[test]
    fn reported_distances_match_exact_subsequence_dtw() {
        let query = [1.0, 4.0, 2.0, 8.0];
        let stream: Vec<f64> = (0..60)
            .map(|i| ((i as f64) * 0.7).sin() * 4.0 + 3.0)
            .collect();
        let out = run(&query, &stream, 8.0);
        for m in &out {
            let sub = &stream[m.range0()];
            let exact = spring_dtw::dtw_distance(sub, &query).unwrap();
            assert!(
                (m.distance - exact).abs() < 1e-9,
                "reported {} != exact {} for {:?}",
                m.distance,
                exact,
                (m.start, m.end)
            );
        }
    }

    #[test]
    fn epsilon_zero_only_reports_exact_occurrences() {
        let query = [2.0, 7.0];
        let mut stream = vec![1.0; 4];
        stream.extend([2.0, 7.0]);
        stream.extend(vec![1.0; 4]);
        let out = run(&query, &stream, 0.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].distance, 0.0);
    }

    #[test]
    fn batched_ingestion_with_frequent_reports_matches_per_sample() {
        // Dense, repeating occurrences force reports (and therefore
        // column invalidation) to land on every offset of a batch across
        // the run. The batched monitor must report identical matches and
        // leave ε-equivalent columns.
        use crate::monitor::Monitor as _;
        let query = [0.0, 6.0, 0.0];
        let mut stream = Vec::new();
        for gap in 1..=12usize {
            for _ in 0..3 {
                stream.extend([0.0, 6.0, 0.0]);
                stream.extend(std::iter::repeat_n(40.0, gap));
            }
        }
        for batch in [1usize, 2, 3, 5, 8, 13, 64] {
            let mut a = Spring::new(&query, SpringConfig::new(2.0)).unwrap();
            let mut b = Spring::new(&query, SpringConfig::new(2.0)).unwrap();
            let mut expect = Vec::new();
            for &x in &stream {
                expect.extend(a.step(x));
            }
            let mut got = Vec::new();
            for chunk in stream.chunks(batch) {
                b.step_batch(chunk, &mut got).unwrap();
            }
            assert_eq!(got, expect, "batch={batch}");
            assert_eq!(a.pending(), b.pending(), "batch={batch}");
            kernel::assert_eps_equivalent(
                2.0,
                (a.stwm().distances(), a.stwm().starts()),
                (b.stwm().distances(), b.stwm().starts()),
                &format!("batch={batch}: final column"),
            );
        }
    }

    #[test]
    fn memory_cells_do_not_depend_on_the_stepping_path() {
        // A monitor driven by `step_batch` holds exactly the state of
        // one driven by `step`.
        use crate::monitor::Monitor as _;
        let query: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let stream: Vec<f64> = (0..500).map(|i| (i as f64 * 0.07).cos()).collect();
        let mut a = Spring::new(&query, SpringConfig::new(1.0)).unwrap();
        let mut b = Spring::new(&query, SpringConfig::new(1.0)).unwrap();
        let fresh = a.memory_cells();
        for &x in &stream {
            a.step(x);
        }
        let mut out = Vec::new();
        b.step_batch(&stream, &mut out).unwrap();
        assert_eq!(a.memory_cells(), fresh);
        assert_eq!(b.memory_cells(), fresh);
        assert_eq!(a.memory_use(), b.memory_use());
    }

    #[test]
    fn one_thread_frame_serves_monitors_of_every_query_length() {
        // Monitors of different `m` take turns on one thread, one ragged
        // batch of 13 samples at a time: each must report what its own
        // per-sample run reports.
        use crate::monitor::Monitor as _;
        let stream: Vec<f64> = (0..400)
            .map(|i| (i as f64 * 0.21).sin() * 5.0 + ((i * 7 % 11) as f64) * 0.1)
            .collect();
        let make = |m: usize| {
            let query: Vec<f64> = (0..m).map(|i| (i as f64 * 0.21).sin() * 5.0).collect();
            Spring::new(&query, SpringConfig::new(m as f64 * 0.4)).unwrap()
        };
        let lengths = [96usize, 3, 17, 40];
        let mut batched: Vec<Spring> = lengths.iter().map(|&m| make(m)).collect();
        let mut stepped: Vec<Spring> = lengths.iter().map(|&m| make(m)).collect();
        let mut got = vec![Vec::new(); lengths.len()];
        for chunk in stream.chunks(13) {
            for (mon, out) in batched.iter_mut().zip(&mut got) {
                mon.step_batch(chunk, out).unwrap();
            }
        }
        for (k, mon) in stepped.iter_mut().enumerate() {
            let expect: Vec<Match> = stream.iter().filter_map(|&x| mon.step(x)).collect();
            assert!(!expect.is_empty(), "m={}: workload must match", lengths[k]);
            assert_eq!(got[k], expect, "m={}", lengths[k]);
            kernel::assert_eps_equivalent(
                mon.epsilon(),
                (mon.stwm().distances(), mon.stwm().starts()),
                (batched[k].stwm().distances(), batched[k].stwm().starts()),
                &format!("m={}: final column", lengths[k]),
            );
        }
    }

    /// Stepping paths the idle-skip tests compare: 0 is per-sample
    /// [`Spring::step`], any other value `step_batch` in chunks of it.
    const PATHS: [usize; 5] = [0, 1, 3, 8, 64];

    /// Drives a monitor over `stream` on one stepping path (see
    /// [`PATHS`]) beside a [`Spring::step_reference`] twin and checks
    /// after every call: identical reports, the same tick and pending
    /// candidate, and ε-equivalent columns, star row included. Returns
    /// the monitor and its reports.
    fn against_reference(
        query: &[f64],
        stream: &[f64],
        eps: f64,
        path: usize,
    ) -> (Spring, Vec<Match>) {
        use crate::monitor::Monitor as _;
        let config = SpringConfig::new(eps);
        let mut mon = Spring::new(query, config).unwrap();
        let mut twin = Spring::new(query, config).unwrap();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (k, chunk) in stream.chunks(path.max(1)).enumerate() {
            want.extend(chunk.iter().filter_map(|&x| twin.step_reference(x)));
            if path == 0 {
                got.extend(chunk.iter().filter_map(|&x| mon.step(x)));
            } else {
                mon.step_batch(chunk, &mut got).unwrap();
            }
            let ctx = format!("eps={eps} path={path} chunk {k}");
            assert_eq!(got, want, "{ctx}: reports");
            assert_eq!(mon.tick(), twin.tick(), "{ctx}: tick");
            assert_eq!(mon.pending(), twin.pending(), "{ctx}: pending");
            kernel::assert_eps_equivalent(
                eps,
                (twin.stwm().distances(), twin.stwm().starts()),
                (mon.stwm().distances(), mon.stwm().starts()),
                &ctx,
            );
        }
        (mon, got)
    }

    #[test]
    fn a_stream_of_idle_ticks_fills_no_column() {
        // Every sample is farther than ε from y_1, so no column is ever
        // filled: rows above 1 keep the construction-time +∞ (the
        // reference holds large finite values there), while the star
        // cell and row 1 follow the reference exactly — at ε = 0 the
        // star cell is itself at or below ε and is compared.
        let query = [1.0, 2.0, 3.0, 2.0];
        let stream: Vec<f64> = (0..100).map(|i| 50.0 + (i % 7) as f64).collect();
        for eps in [0.0, 2.0] {
            for path in PATHS {
                let (mon, got) = against_reference(&query, &stream, eps, path);
                assert!(got.is_empty());
                let d = mon.stwm().distances();
                assert_eq!((d[0], mon.stwm().starts()[0]), (0.0, 100));
                assert_eq!(d[1], (stream[99] - 1.0).powi(2));
                assert!(d[2..].iter().all(|v| v.is_infinite()), "{d:?}");
            }
        }
    }

    #[test]
    fn a_pending_candidate_is_reported_on_time_across_an_idle_stretch() {
        // The candidate's confirming tick is idle by its sample, but the
        // skip must wait until the report has fired. Varying the lead-in
        // moves that tick across every offset of a batch.
        let query = [0.0, 10.0, 0.0];
        for lead in 0..10 {
            let mut stream = vec![50.0; lead];
            stream.extend([0.5, 10.0, 10.0, 0.0]);
            stream.extend(vec![50.0; 80]);
            for path in PATHS {
                let (mon, got) = against_reference(&query, &stream, 1.0, path);
                assert_eq!(got.len(), 1, "lead={lead} path={path}");
                let m = got[0];
                assert_eq!((m.start, m.end), (lead as u64 + 1, lead as u64 + 4));
                assert_eq!(m.reported_at, m.end + 1, "lead={lead} path={path}");
                assert_eq!(mon.pending(), None);
            }
        }
    }

    #[test]
    fn idle_to_active_at_every_offset_of_a_batch() {
        // A 12-element query planted after an idle prefix of every
        // length up to a full batch: the skip hands over to the banded
        // column at every offset.
        let query: Vec<f64> = (0..12).map(|i| (i as f64 * 0.5).sin() * 3.0).collect();
        for offset in 0..64 {
            let mut stream = vec![40.0; offset];
            stream.extend(query.iter().map(|&y| y + 0.1));
            stream.extend(vec![40.0; 64]);
            for path in PATHS {
                let (_, got) = against_reference(&query, &stream, 2.0, path);
                assert_eq!(
                    got.first().map(|m| m.start),
                    Some(offset as u64 + 1),
                    "offset={offset} path={path}"
                );
            }
        }
    }

    #[test]
    fn a_non_finite_sample_stops_an_idle_run_where_per_sample_does() {
        // The skip must neither swallow the bad sample (an infinite one
        // is farther than ε from everything) nor stop short of it.
        use crate::monitor::Monitor;
        let query = [1.0, 2.0];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0usize, 1, 7, 8, 9, 30] {
                let mut stream = vec![50.0; 40];
                stream[at] = bad;
                let config = SpringConfig::new(1.0);
                let mut per_sample = Spring::new(&query, config).unwrap();
                let err = stream
                    .iter()
                    .find_map(|x| Monitor::step(&mut per_sample, x).err())
                    .unwrap();
                let mut batched = Spring::new(&query, config).unwrap();
                let got = batched.step_batch(&stream, &mut Vec::new()).unwrap_err();
                let ctx = format!("bad={bad} at={at}");
                assert_eq!(got, err, "{ctx}");
                assert_eq!(
                    got,
                    SpringError::NonFiniteInput {
                        tick: at as u64 + 1
                    }
                );
                assert_eq!(batched.tick(), at as u64, "{ctx}: consumed prefix");
                kernel::assert_eps_equivalent(
                    1.0,
                    (per_sample.stwm().distances(), per_sample.stwm().starts()),
                    (batched.stwm().distances(), batched.stwm().starts()),
                    &ctx,
                );
            }
        }
    }

    #[test]
    fn a_single_element_query_skips_and_matches_like_the_reference() {
        let query = [5.0];
        let stream: Vec<f64> = (0..200)
            .map(|i| {
                if i % 17 < 3 {
                    5.0 + (i % 17) as f64 * 0.2
                } else {
                    30.0
                }
            })
            .collect();
        for eps in [0.0, 0.1, 1.0] {
            for path in PATHS {
                let (_, got) = against_reference(&query, &stream, eps, path);
                assert!(!got.is_empty(), "eps={eps} path={path}");
            }
        }
    }

    #[test]
    fn a_distance_overflowing_to_infinity_is_idle_at_eps_max() {
        // (1e200)² overflows to +∞, the one distance above f64::MAX.
        let query = [0.0, 1.0];
        let mut stream = vec![1e200; 20];
        stream.extend([0.0, 1.0]);
        stream.extend(vec![-1e200; 20]);
        for path in PATHS {
            let (mon, got) = against_reference(&query, &stream, f64::MAX, path);
            assert_eq!(got.len(), 1, "path={path}");
            assert_eq!((got[0].start, got[0].end, got[0].distance), (21, 22, 0.0));
            assert!(mon.stwm().distances()[1].is_infinite());
        }
    }

    #[test]
    fn step_checked_rejects_non_finite() {
        let mut spring = Spring::new(&[1.0], SpringConfig::new(1.0)).unwrap();
        assert!(matches!(
            spring.step_checked(f64::NAN),
            Err(SpringError::NonFiniteInput { tick: 1 })
        ));
        assert!(spring.step_checked(1.0).is_ok());
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Spring::new(&[1.0], SpringConfig::new(-1.0)).is_err());
        assert!(Spring::new(&[], SpringConfig::new(1.0)).is_err());
    }

    #[test]
    fn constant_memory_over_long_streams() {
        use crate::mem::MemoryUse;
        let mut spring = Spring::new(&vec![0.0; 128], SpringConfig::new(10.0)).unwrap();
        let before = spring.bytes_used();
        for t in 0..50_000 {
            spring.step((t as f64 * 0.01).sin());
        }
        assert_eq!(spring.bytes_used(), before);
    }
}
