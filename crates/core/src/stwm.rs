//! The star-padded Subsequence Time Warping Matrix (STWM).
//!
//! Implements Equations (4)–(8) of the paper: a single warping matrix
//! between the stream `X` and the star-padded query
//! `Y' = (y0, y1, …, ym)`, where `y0` is the "don't care" interval
//! `(−∞, +∞)` with zero distance to everything. Each cell carries both
//! the cumulative distance `d(t, i)` and the starting position `s(t, i)`
//! of its best warping path.
//!
//! Only two columns (current and previous) are retained — `O(m)` space —
//! and one column is filled per incoming value — at most `O(m)` time per
//! tick. A matrix with a finite band threshold `ε` (the disjoint-query
//! monitors') fills only the rows that can still reach `ε`; see the
//! ε-band section of `crate::kernel`. While that band is empty, a sample
//! farther than `ε` from the query's first element costs `O(1)`: one
//! distance, no column fill (`Stwm::skip_idle`), and a whole idle frame
//! is consumed at once, with one distance when it lies on one side of
//! that element (`Stwm::skip_frame`).

use std::sync::Arc;

use spring_dtw::kernels::{DistanceKernel, Squared};
use spring_dtw::multivariate::element_distance;

use crate::arena::QueryRef;
use crate::error::SpringError;
use crate::kernel::{self, Scratch};
use crate::mem::MemoryUse;
use crate::monitor::FrameScan;

/// Samples [`Stwm::skip_idle`] tests per chunk without an early exit:
/// wide enough for the compares to vectorize. A frame scan
/// ([`crate::monitor::FrameScan`]) records one range per chunk.
pub(crate) const IDLE_CHUNK: usize = 8;

/// True when every sample in `[lo, hi]` is idle, proven from the end
/// nearest `y1` alone: the rounded `dist(x, y_1)` of a
/// [`DistanceKernel`] is monotone in `x` on each side of `y_1`, so no
/// sample of a range on one side is nearer than that end. A range that
/// holds `y1` proves nothing.
fn range_idle(idle: impl Fn(f64) -> bool, y1: f64, (lo, hi): (f64, f64)) -> bool {
    (hi < y1 && idle(hi)) || (lo > y1 && idle(lo))
}

/// Rolling two-column STWM between an evolving stream and a fixed query.
///
/// This type is the shared engine beneath [`crate::Spring`] (disjoint
/// queries), [`crate::BestMatch`] (best-match queries),
/// [`crate::PathSpring`] and [`crate::VectorSpring`] (`k`-channel
/// samples, `Stwm::step_row`). It exposes the freshly computed column
/// after each step, so the policy layers above decide what to report.
///
/// A matrix built by [`Stwm::new`] (or the other public constructors)
/// fills every row, bit-identically to [`Stwm::step_reference`].
/// [`crate::Spring`] and [`crate::BoundedSpring`] give theirs an
/// ε-band at their ε, and [`crate::BestMatch`] at its best distance so
/// far (+∞ until the first column, tightened on every improvement):
/// every column buffer keeps a `top` row above which every cell is
/// above ε, and [`Stwm::step`] computes only the rows that can still
/// reach ε. Their columns are then **ε-equivalent** to the reference:
/// every cell at or below ε is bit-identical in distance and start, and
/// every other cell is above ε on both sides, which is all either
/// query reads. While the band is empty (no cell at or below ε), a tick
/// whose sample lies farther than ε from `y_1` fills no column at all:
/// it costs one distance (see `Stwm::skip_idle`), and a whole frame
/// proven idle from its scan costs one or a few (`Stwm::skip_frame`).
#[derive(Debug, Clone)]
pub struct Stwm<K: DistanceKernel = Squared> {
    /// The shared immutable query (pattern samples and statistics);
    /// one arena entry may back any number of monitors.
    query: Arc<QueryRef>,
    /// The query's first element, `y_1`, kept beside the state the idle
    /// skips touch so that proving an attachment idle reads no shared
    /// query memory.
    y1: f64,
    kernel: K,
    /// `d_cur[i] = d(t, i)` for `i = 0 ..= m`; index 0 is the star row.
    d_cur: Vec<f64>,
    /// `d_prev[i] = d(t−1, i)`.
    d_prev: Vec<f64>,
    /// `s_cur[i] = s(t, i)`: 1-based starting tick of the best path.
    s_cur: Vec<u64>,
    s_prev: Vec<u64>,
    /// Current 1-based tick (0 before the first value).
    t: u64,
    /// Band threshold `ε` (`+∞`: the full column).
    eps: f64,
    /// Band tops of the two column buffers: every row above a buffer's
    /// top holds a value above `eps`. Swapped with the buffers.
    top_cur: usize,
    top_prev: usize,
    /// Lane scratch for the two-phase SoA kernel (see `crate::kernel`);
    /// kept in-struct so steady-state stepping never allocates.
    scratch: Scratch,
}

/// Which predecessor supplied `dbest` in Equation (7); used by
/// [`crate::PathSpring`] to thread warping-path back-pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `d(t, i−1)`: the query advanced while the stream tick repeats.
    Left,
    /// `d(t−1, i)`: the stream advanced while the query element repeats.
    Down,
    /// `d(t−1, i−1)`: both advanced.
    Diag,
}

impl<K: DistanceKernel> Stwm<K> {
    /// Creates the STWM for `query` under `kernel`, minting a private
    /// single-use [`QueryRef`] (use [`Stwm::with_query_ref`] to share
    /// one arena entry across monitors).
    pub fn with_kernel(query: &[f64], kernel: K) -> Result<Self, SpringError> {
        Self::with_query_ref(QueryRef::flat(query, 1)?, kernel)
    }

    /// Creates the STWM over a shared arena entry: the monitor borrows
    /// the pattern and allocates only its own DP columns.
    ///
    /// # Errors
    /// Rejects multivariate entries (`channels != 1`); use
    /// [`crate::VectorSpring`] for those.
    pub fn with_query_ref(query: Arc<QueryRef>, kernel: K) -> Result<Self, SpringError> {
        if query.channels() != 1 {
            return Err(SpringError::InvalidQuery(format!(
                "scalar monitor over a {}-channel query",
                query.channels()
            )));
        }
        Ok(Self::with_rows(query, kernel))
    }

    /// Creates the STWM over an arena entry of any channel count `k`.
    /// A `k`-channel matrix is stepped only by [`Stwm::step_row`]: the
    /// scalar steps and idle skips read the query as `k = 1`.
    pub(crate) fn with_rows(query: Arc<QueryRef>, kernel: K) -> Self {
        let m = query.len();
        Stwm {
            y1: query.samples()[0],
            query,
            kernel,
            // Every row, the star row included, starts at +∞ (no stream
            // value consumed yet); the first column fill (or idle skip)
            // sets the star cell to d(t, 0) = 0.
            d_cur: vec![f64::INFINITY; m + 1],
            d_prev: vec![f64::INFINITY; m + 1],
            s_cur: vec![0; m + 1],
            s_prev: vec![0; m + 1],
            t: 0,
            eps: f64::INFINITY,
            top_cur: 0,
            top_prev: 0,
            scratch: Scratch::new(m),
        }
    }

    /// Gives the matrix an ε-band (see the type docs): the disjoint
    /// query never reads a cell's value once it is above `eps`.
    pub(crate) fn with_band(mut self, eps: f64) -> Self {
        self.set_band(eps);
        self
    }

    /// Moves the band threshold to `eps`. Lowering it keeps the band
    /// invariant (a row above `eps` is above any smaller threshold), so
    /// it takes effect from the next column on. Raising it is sound only
    /// on a fresh or freshly [`reset`](Stwm::reset) matrix.
    pub(crate) fn set_band(&mut self, eps: f64) {
        self.eps = eps;
    }

    /// Query length `m`.
    pub fn query_len(&self) -> usize {
        self.query.len()
    }

    /// The monitored query sequence.
    pub fn query(&self) -> &[f64] {
        self.query.samples()
    }

    /// The shared arena entry backing this matrix.
    pub fn query_ref(&self) -> &Arc<QueryRef> {
        &self.query
    }

    /// The distance kernel in use.
    pub fn kernel(&self) -> K {
        self.kernel
    }

    /// Current 1-based tick (0 before any value has been consumed).
    pub fn tick(&self) -> u64 {
        self.t
    }

    /// Consumes the next stream value and fills the column for tick
    /// `t + 1`. Equations (7) and (8) of the paper, computed by the
    /// two-phase SoA kernel (`crate::kernel`) over the rows of the
    /// ε-band — bit-exact with [`Stwm::step_reference`] for an unbanded
    /// matrix, ε-equivalent to it for a banded one.
    pub fn step(&mut self, x: f64) {
        self.t += 1;
        self.top_cur = kernel::fill_column(
            self.kernel,
            self.query.samples(),
            x,
            self.t,
            self.eps,
            &mut self.d_prev,
            &mut self.s_prev,
            self.top_prev,
            &mut self.d_cur,
            &mut self.s_cur,
            self.top_cur,
            &mut self.scratch,
        );
        self.swap();
    }

    /// Consumes the next `k`-channel sample of a [`Stwm::with_rows`]
    /// matrix and fills the column for tick `t + 1`: [`Stwm::step`] with
    /// the row-`i` base distance summed over the channels,
    /// `element_distance(x, y_i, kernel)` (Sec. 5.3), on the same band.
    ///
    /// # Errors
    /// Fails when `x` does not have `k` channels; the matrix is then
    /// unchanged.
    pub(crate) fn step_row(&mut self, x: &[f64]) -> Result<(), SpringError> {
        let dim = self.query.channels();
        if x.len() != dim {
            return Err(SpringError::DimensionMismatch {
                expected: dim,
                found: x.len(),
            });
        }
        self.t += 1;
        let (rows, kernel) = (self.query.samples(), self.kernel);
        let row = |i: usize| element_distance(x, &rows[(i - 1) * dim..i * dim], kernel);
        self.top_cur = kernel::fill_column_with(
            |base| {
                for (b, y) in base[1..].iter_mut().zip(rows.chunks_exact(dim)) {
                    *b = element_distance(x, y, kernel);
                }
            },
            row,
            self.t,
            self.eps,
            &mut self.d_prev,
            &mut self.s_prev,
            self.top_prev,
            &mut self.d_cur,
            &mut self.s_cur,
            self.top_cur,
            &mut self.scratch,
        );
        self.swap();
        Ok(())
    }

    /// Consumes the longest prefix of `xs` that leaves the ε-band empty
    /// and returns its length, without filling a column: 0 unless the
    /// current band is empty (`top == 0`).
    ///
    /// With an empty band every row `1 ..= m` of the current column is
    /// above ε, so row 1 of the next column has the star cells as its
    /// left and diagonal predecessors and is exactly
    /// `d(t, 1) = ‖x_t − y_1‖`, starting at `t`. While that distance is
    /// above ε, every higher row has three predecessors above ε and ends
    /// above ε too, so the column stays empty and the disjoint policy
    /// does nothing: no candidate can be pending, because the tick that
    /// emptied the band found every row above ε ≥ `dmin` and confirmed
    /// it, and `d_m > ε` captures none. For the best-match query ε is
    /// the best distance so far, which `d_m > ε` cannot improve on.
    /// Only the current column's star
    /// cell and row 1 are written; its other rows are already above ε,
    /// and the other buffer and both tops keep their (still valid)
    /// values. With `eps = +∞` no distance is above ε, and a NaN
    /// distance stops the run.
    ///
    /// Samples are tested [`IDLE_CHUNK`] at a time. `ranges`, when not
    /// empty, holds the `(min, max)` of each chunk of the frame that
    /// `xs` starts at offset `offset` of ([`crate::monitor::FrameScan`]),
    /// and the chunks follow the frame's grid; otherwise they start at
    /// `xs[0]`. A whole chunk that lies on one side of `y_1` is idle
    /// when its end nearest `y_1` is: the rounded `dist(x, y_1)` of a
    /// [`DistanceKernel`] is monotone in `x` on each side of `y_1`, so
    /// no sample of the chunk is nearer: one distance for the chunk, from
    /// ranges found once for every matrix on the stream. Any other whole
    /// chunk is tested with one
    /// pass without an early exit, so the compares vectorize, and from
    /// the first chunk that holds a busy sample on, one sample at a
    /// time.
    ///
    /// Samples must be finite: an infinite one would count as idle.
    ///
    /// [`Stwm::skip_frame`] is the whole-frame form of the same proof.
    pub(crate) fn skip_idle(&mut self, xs: &[f64], offset: usize, ranges: &[(f64, f64)]) -> usize {
        let k = self.idle_len(xs, offset, ranges);
        if k > 0 {
            self.idle_through(k, xs[k - 1]);
        }
        k
    }

    /// The length of the leading run of `xs` that [`Stwm::skip_idle`]
    /// consumes, found without consuming it; `xs`, `offset` and
    /// `ranges` as there.
    fn idle_len(&self, xs: &[f64], offset: usize, ranges: &[(f64, f64)]) -> usize {
        if self.top_prev != 0 {
            return 0;
        }
        let (kernel, y1, eps) = (self.kernel, self.y1, self.eps);
        let idle = |x: f64| kernel.dist(x, y1) > eps;
        let proven = |range: &(f64, f64)| range_idle(idle, y1, *range);
        let base = if ranges.is_empty() { 0 } else { offset };
        let mut k = 0;
        while k < xs.len() {
            let start = base + k;
            let end = (k + IDLE_CHUNK - start % IDLE_CHUNK).min(xs.len());
            let chunk = &xs[k..end];
            let all_idle = <&[f64; IDLE_CHUNK]>::try_from(chunk).is_ok_and(|whole| {
                ranges.get(start / IDLE_CHUNK).is_some_and(proven)
                    || whole.iter().fold(true, |all, &x| all & idle(x))
            });
            if all_idle {
                k = end;
                continue;
            }
            k += chunk.iter().take_while(|&&x| idle(x)).count();
            if k < end {
                break;
            }
        }
        k
    }

    /// Consumes all of `xs` at once when [`Stwm::skip_idle`] would
    /// consume all of it, and returns whether it did; the matrix is
    /// then left as `skip_idle` leaves it. `xs` is the frame `scan`
    /// ([`crate::monitor::FrameScan`], filled once for every matrix on
    /// the stream) describes, or a prefix of it; a frame with a missing
    /// sample is never consumed.
    ///
    /// The whole frame's `(min, max)` is tested first, as `skip_idle`
    /// tests a chunk's: one distance when the frame lies on one side of
    /// `y_1`, which proves every prefix of it too. Otherwise the proof
    /// is `skip_idle`'s own ([`Stwm::idle_len`]).
    pub(crate) fn skip_frame(&mut self, xs: &[f64], scan: &FrameScan) -> bool {
        let Some(&last) = xs.last() else {
            return false;
        };
        if self.top_prev != 0 || !scan.missing().is_empty() {
            return false;
        }
        let (kernel, y1, eps) = (self.kernel, self.y1, self.eps);
        let idle = |x: f64| kernel.dist(x, y1) > eps;
        let by_range = scan.range.is_some_and(|r| range_idle(idle, y1, r));
        if !by_range && self.idle_len(xs, 0, &scan.ranges) < xs.len() {
            return false;
        }
        self.idle_through(xs.len(), last);
        true
    }

    /// Records `k > 0` idle ticks ending with sample `last`: the star
    /// cell and row 1 of the current column, as a column fill would
    /// write them. The other rows are already above ε.
    fn idle_through(&mut self, k: usize, last: f64) {
        self.t += k as u64;
        // The star cell too: a fresh matrix still holds +∞ in row 0.
        self.d_prev[0] = 0.0;
        self.s_prev[0] = self.t;
        self.d_prev[1] = self.kernel.dist(last, self.y1);
        self.s_prev[1] = self.t;
    }

    /// Makes the freshly filled column the current one.
    fn swap(&mut self) {
        std::mem::swap(&mut self.d_cur, &mut self.d_prev);
        std::mem::swap(&mut self.s_cur, &mut self.s_prev);
        std::mem::swap(&mut self.top_cur, &mut self.top_prev);
    }

    /// Like [`Stwm::step`], but via the branchy scalar reference loop
    /// over every row — the executable spec the SoA kernel is pinned
    /// against by the differential suite. Column contents are
    /// bit-identical to [`Stwm::step`]'s on an unbanded matrix and
    /// ε-equivalent on a banded one.
    pub fn step_reference(&mut self, x: f64) {
        self.step_traced(x, |_, _| {});
    }

    /// Like [`Stwm::step_reference`], but invokes `trace(i, step)` for
    /// every query row with the predecessor that won Equation (7) — the
    /// hook [`crate::PathSpring`] uses to record back-pointers. `i` is
    /// the 1-based query row. Runs the scalar reference loop (the trace
    /// needs the per-row three-way decision the kernel splits apart).
    pub fn step_traced(&mut self, x: f64, trace: impl FnMut(usize, Step)) {
        self.t += 1;
        kernel::fill_column_reference(
            self.kernel,
            self.query.samples(),
            x,
            self.t,
            &mut self.d_prev,
            &mut self.s_prev,
            &mut self.d_cur,
            &mut self.s_cur,
            trace,
        );
        // Every row computed; the other buffer's top m bounds anything.
        let m = self.query.len();
        (self.top_cur, self.top_prev) = (m, m);
        self.swap();
    }

    /// Band top of the current column: every row above it holds a value
    /// above ε, so the disjoint query's scans stop there.
    pub(crate) fn top(&self) -> usize {
        self.top_prev
    }

    /// Distance column of the current tick: `d(t, i)` for `i = 0 ..= m`
    /// (index 0 is the star row, value 0 from the first tick on). On a
    /// banded matrix a cell above ε holds some value above ε, not
    /// necessarily `d(t, i)`.
    ///
    /// Before the first step (and after [`Stwm::reset`]) every entry,
    /// the star row included, is `∞`.
    pub fn distances(&self) -> &[f64] {
        // Columns are swapped after each step, so `d_prev` is tick t's.
        &self.d_prev
    }

    /// Start-position column of the current tick: `s(t, i)`, 1-based.
    pub fn starts(&self) -> &[u64] {
        &self.s_prev
    }

    /// `d(t, m)`: distance of the best subsequence ending exactly now.
    pub fn current_distance(&self) -> f64 {
        self.d_prev[self.query.len()]
    }

    /// `s(t, m)`: start of the best subsequence ending exactly now.
    pub fn current_start(&self) -> u64 {
        self.s_prev[self.query.len()]
    }

    /// Overwrites `d(t, i)` (used by the disjoint-query reset: the
    /// algorithm sets in-group cells to `∞` after reporting).
    pub(crate) fn invalidate(&mut self, i: usize) {
        self.d_prev[i] = f64::INFINITY;
    }

    /// Restores the current column from a checkpoint (`distances` and
    /// `starts` are full `m + 1` columns including the star row).
    /// Lengths are the caller's responsibility. Nothing is clamped: the
    /// full top m is a valid band for any column.
    pub(crate) fn load_column(&mut self, tick: u64, distances: &[f64], starts: &[u64]) {
        debug_assert_eq!(distances.len(), self.query.len() + 1);
        debug_assert_eq!(starts.len(), self.query.len() + 1);
        self.d_prev.copy_from_slice(distances);
        self.s_prev.copy_from_slice(starts);
        self.d_cur.fill(f64::INFINITY);
        self.s_cur.fill(0);
        self.t = tick;
        let m = self.query.len();
        (self.top_cur, self.top_prev) = (m, m);
    }

    /// Resets the matrix to its initial (tick 0) state, keeping the query.
    pub fn reset(&mut self) {
        self.d_cur.fill(f64::INFINITY);
        self.d_prev.fill(f64::INFINITY);
        self.s_cur.fill(0);
        self.s_prev.fill(0);
        self.t = 0;
        (self.top_cur, self.top_prev) = (0, 0);
    }
}

impl Stwm<Squared> {
    /// Creates the STWM with the paper's default squared kernel.
    pub fn new(query: &[f64]) -> Result<Self, SpringError> {
        Self::with_kernel(query, Squared)
    }
}

impl<K: DistanceKernel> MemoryUse for Stwm<K> {
    fn bytes_used(&self) -> usize {
        // Shared query entry (pattern; counted in full here,
        // deduplicated fleet-wide by the cell accounting in
        // `Monitor::shared_memory_cells`) + two distance columns + two
        // start columns + kernel scratch lanes.
        self.query.bytes_used()
            + (self.d_cur.capacity() + self.d_prev.capacity()) * std::mem::size_of::<f64>()
            + (self.s_cur.capacity() + self.s_prev.capacity()) * std::mem::size_of::<u64>()
            + self.scratch.bytes()
    }
}

impl<K: DistanceKernel> Stwm<K> {
    /// Per-attachment mutable cells (DP columns + kernel scratch), in
    /// `f64`-sized units — the `attachments × m` term of the fleet
    /// memory bound. Excludes the shared [`QueryRef`].
    pub(crate) fn attachment_cells(&self) -> usize {
        (self.d_cur.capacity()
            + self.d_prev.capacity()
            + self.s_cur.capacity()
            + self.s_prev.capacity())
            + self.scratch.bytes() / std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the STWM over the paper's Fig. 5 example and returns the
    /// full (d, s) matrix column by column.
    fn fig5_columns() -> Vec<(Vec<f64>, Vec<u64>)> {
        let query = [11.0, 6.0, 9.0, 4.0];
        let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
        let mut stwm = Stwm::new(&query).unwrap();
        stream
            .iter()
            .map(|&x| {
                stwm.step(x);
                (stwm.distances()[1..].to_vec(), stwm.starts()[1..].to_vec())
            })
            .collect()
    }

    #[test]
    fn fig5_distances_match_the_paper_cell_by_cell() {
        // Rows bottom (i=1) to top (i=4), columns t = 1..=7, from Fig. 5.
        let expected: [[f64; 7]; 4] = [
            [36.0, 1.0, 25.0, 1.0, 25.0, 36.0, 4.0],
            [37.0, 37.0, 1.0, 17.0, 1.0, 2.0, 51.0],
            [53.0, 46.0, 10.0, 2.0, 10.0, 17.0, 18.0],
            [54.0, 110.0, 14.0, 38.0, 6.0, 7.0, 88.0],
        ];
        let cols = fig5_columns();
        for (t, (d, _)) in cols.iter().enumerate() {
            for i in 0..4 {
                assert_eq!(d[i], expected[i][t], "d(t={}, i={})", t + 1, i + 1);
            }
        }
    }

    #[test]
    fn fig5_starting_positions_match_the_paper_cell_by_cell() {
        let expected: [[u64; 7]; 4] = [
            [1, 2, 3, 4, 5, 6, 7],
            [1, 2, 2, 4, 4, 4, 4],
            [1, 2, 2, 2, 4, 4, 4],
            [1, 2, 2, 2, 2, 2, 2],
        ];
        let cols = fig5_columns();
        for (t, (_, s)) in cols.iter().enumerate() {
            for i in 0..4 {
                assert_eq!(s[i], expected[i][t], "s(t={}, i={})", t + 1, i + 1);
            }
        }
    }

    #[test]
    fn star_row_is_always_zero_with_start_now() {
        let mut stwm = Stwm::new(&[1.0, 2.0]).unwrap();
        for (k, x) in [5.0, -3.0, 0.0].into_iter().enumerate() {
            stwm.step(x);
            assert_eq!(stwm.distances()[0], 0.0);
            assert_eq!(stwm.starts()[0], k as u64 + 1);
        }
    }

    #[test]
    fn first_row_always_restarts() {
        // s(t, 1) = t for every t, because the star row is free.
        let mut stwm = Stwm::new(&[7.0, 3.0, 9.0]).unwrap();
        for t in 1..=20u64 {
            stwm.step((t as f64).sin() * 10.0);
            assert_eq!(stwm.starts()[1], t);
        }
    }

    #[test]
    fn rejects_invalid_queries() {
        assert!(Stwm::new(&[]).is_err());
        assert!(Stwm::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut stwm = Stwm::new(&[1.0, 2.0]).unwrap();
        stwm.step(1.0);
        stwm.step(2.0);
        assert_eq!(stwm.current_distance(), 0.0);
        stwm.reset();
        assert_eq!(stwm.tick(), 0);
        assert!(stwm.current_distance().is_infinite());
        // And it works again after the reset.
        stwm.step(1.0);
        stwm.step(2.0);
        assert_eq!(stwm.current_distance(), 0.0);
    }

    #[test]
    fn exact_query_occurrence_reaches_zero_distance() {
        let query = [3.0, 1.0, 4.0, 1.0];
        let mut stwm = Stwm::new(&query).unwrap();
        for &x in &[9.0, 9.0] {
            stwm.step(x);
        }
        for &x in &query {
            stwm.step(x);
        }
        assert_eq!(stwm.current_distance(), 0.0);
        assert_eq!(stwm.current_start(), 3); // starts right after the noise
    }

    #[test]
    fn memory_is_constant_in_stream_length() {
        let mut stwm = Stwm::new(&vec![0.5; 64]).unwrap();
        let before = stwm.bytes_used();
        for t in 0..10_000 {
            stwm.step((t as f64).cos());
        }
        assert_eq!(stwm.bytes_used(), before);
    }

    #[test]
    fn step_and_step_reference_agree_bit_for_bit() {
        let query = [11.0, 6.0, 9.0, 4.0, 2.5];
        let mut fast = Stwm::new(&query).unwrap();
        let mut reference = Stwm::new(&query).unwrap();
        for t in 0..500 {
            let x = ((t as f64) * 0.31).sin() * 8.0 + ((t % 7) as f64);
            fast.step(x);
            reference.step_reference(x);
            assert_eq!(
                fast.distances()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<_>>(),
                reference
                    .distances()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<_>>(),
                "distance column diverges at t = {}",
                t + 1
            );
            assert_eq!(fast.starts(), reference.starts());
        }
    }

    #[test]
    fn a_fresh_matrix_has_no_star_cell_until_the_first_tick() {
        // Row 0 starts at +∞ like every other row (tick-0 checkpoints
        // serialise it that way); the first column fill writes (0, 1).
        let mut stwm = Stwm::new(&[1.0, 2.0]).unwrap();
        assert!(stwm.distances().iter().all(|d| d.is_infinite()));
        assert_eq!(stwm.starts()[0], 0);
        stwm.step(4.0);
        assert_eq!((stwm.distances()[0], stwm.starts()[0]), (0.0, 1));
        stwm.reset();
        assert!(stwm.distances()[0].is_infinite());
    }

    #[test]
    fn skip_idle_writes_the_star_cell_and_row_one_only() {
        let query = [1.0, 2.0, 3.0];
        let mut stwm = Stwm::new(&query).unwrap().with_band(4.0);
        // 10 and 20 are idle (distance to y_1 above 4), 2 is not.
        assert_eq!(stwm.skip_idle(&[10.0, 20.0, 2.0, 30.0], 0, &[]), 2);
        assert_eq!(stwm.tick(), 2);
        assert_eq!(stwm.distances()[..2], [0.0, 361.0]);
        assert_eq!(stwm.starts()[..2], [2, 2]);
        assert!(stwm.distances()[2..].iter().all(|d| d.is_infinite()));
        // The band stays empty, so the skip resumes where it stopped...
        assert_eq!(stwm.skip_idle(&[2.0], 0, &[]), 0);
        stwm.step(2.0);
        // ...but not while the band holds a row at or below ε.
        assert_eq!(stwm.top(), 3);
        assert_eq!(stwm.skip_idle(&[30.0], 0, &[]), 0);
        assert_eq!(stwm.tick(), 3);
        // An unbanded matrix never skips: no distance is above +∞.
        let mut full = Stwm::new(&query).unwrap();
        assert_eq!(full.skip_idle(&[1e300, 1e200], 0, &[]), 0);
    }

    #[test]
    fn chunk_ranges_skip_exactly_what_per_sample_tests_skip() {
        // Frames drawn from values at, beside and far from y_1 (±0.0 and
        // magnitudes where the squared distance overflows to +∞
        // included), skipped from every offset with and without the
        // frame scan's chunk ranges: the same count and the same cells.
        use crate::monitor::FrameScan;
        use spring_dtw::Kernel;
        use spring_util::Rng;
        let mut rng = Rng::seed_from_u64(0x5C4A);
        let mut scan = FrameScan::default();
        for round in 0..400 {
            let y1 = [0.0, -0.0, 5.0, 1e154][round % 4];
            let kernel = [Kernel::Squared, Kernel::Absolute][round / 4 % 2];
            let eps = [0.0, 1.0, 4.0, f64::MAX][round / 8 % 4];
            // Either side alone makes whole chunks the ranges can prove.
            let pool = match rng.usize_range(0, 3) {
                0 => vec![
                    y1,
                    -y1,
                    y1 + 1.0,
                    y1 - 3.0,
                    40.0,
                    -40.0,
                    1e154,
                    -1e154,
                    1e200,
                ],
                1 => vec![y1 + 1.0, y1 + 3.0, 40.0, 1e154, 1e200],
                _ => vec![y1 - 1.0, y1 - 3.0, -40.0, -1e154, -1e200],
            };
            let len = rng.usize_range(0, 30);
            let frame: Vec<f64> = (0..len)
                .map(|_| pool[rng.usize_range(0, pool.len())])
                .collect();
            scan.scan(&frame, 1);
            let query = [y1, y1 + 2.0];
            for at in 0..=len {
                let fresh = || Stwm::with_kernel(&query, kernel).unwrap().with_band(eps);
                let (mut plain, mut ranged) = (fresh(), fresh());
                let want = plain.skip_idle(&frame[at..], 0, &[]);
                let got = ranged.skip_idle(&frame[at..], at, &scan.ranges);
                let ctx = format!("y1={y1} {kernel:?} eps={eps} frame={frame:?} at={at}");
                assert_eq!(got, want, "{ctx}");
                assert_eq!(ranged.tick(), plain.tick(), "{ctx}");
                let bits = |s: &Stwm<Kernel>| {
                    s.distances()
                        .iter()
                        .map(|d| d.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&ranged), bits(&plain), "{ctx}");
                assert_eq!(ranged.starts(), plain.starts(), "{ctx}");
            }
        }
    }

    #[test]
    fn a_frame_proof_consumes_exactly_the_frames_the_idle_skip_consumes_whole() {
        // Frames from the same value pools as above: the proof consumes
        // a frame iff `skip_idle` consumes it whole, with the same cells;
        // any other frame leaves the matrix untouched. So does a prefix
        // of the scanned frame, as an earlier attachment's failure cuts
        // it, in one round of four.
        use crate::monitor::FrameScan;
        use spring_dtw::Kernel;
        use spring_util::Rng;
        let mut rng = Rng::seed_from_u64(0xF2A3);
        let mut scan = FrameScan::default();
        let (mut proven, mut by_chunks) = (0, 0);
        for round in 0..800 {
            let y1 = [0.0, -0.0, 5.0, 1e154][round % 4];
            let kernel = [Kernel::Squared, Kernel::Absolute][round / 4 % 2];
            let eps = [0.0, 1.0, 4.0, f64::MAX, f64::INFINITY][round / 8 % 5];
            let (below, above) = (
                vec![y1, y1 - 1.0, y1 - 3.0, -40.0, -1e154, -1e200],
                vec![y1, y1 + 1.0, y1 + 3.0, 40.0, 1e154, 1e200],
            );
            let len = rng.usize_range(1, 40);
            // One side for the whole frame, or one side per chunk, so
            // the frame range straddles y_1 and only the chunks prove
            // it; y_1 itself in one frame of four.
            let sides = rng.usize_range(0, 3);
            let first = usize::from(rng.usize_range(0, 4) != 0);
            let frame: Vec<f64> = (0..len)
                .map(|i| {
                    let pool = match sides {
                        0 => &below,
                        1 => &above,
                        _ if (i / IDLE_CHUNK).is_multiple_of(2) => &below,
                        _ => &above,
                    };
                    pool[rng.usize_range(first, pool.len())]
                })
                .collect();
            scan.scan(&frame, 1);
            let query = [y1, y1 + 2.0];
            let fresh = || Stwm::with_kernel(&query, kernel).unwrap().with_band(eps);
            let (mut plain, mut framed) = (fresh(), fresh());
            let cut = match rng.usize_range(0, 4) {
                0 => rng.usize_range(1, len + 1),
                _ => len,
            };
            let xs = &frame[..cut];
            let ctx = format!("y1={y1} {kernel:?} eps={eps} frame={frame:?} cut={cut}");
            let skipped = framed.skip_frame(xs, &scan);
            let want = plain.skip_idle(xs, 0, &scan.ranges);
            assert_eq!(skipped, want == cut, "{ctx}");
            if skipped {
                proven += 1;
                by_chunks += usize::from(sides == 2 && cut > IDLE_CHUNK);
            } else {
                plain = fresh();
            }
            assert_eq!(framed.tick(), plain.tick(), "{ctx}");
            let bits = |s: &Stwm<Kernel>| {
                s.distances()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&framed), bits(&plain), "{ctx}");
            assert_eq!(framed.starts(), plain.starts(), "{ctx}");
        }
        assert!(
            proven > 80 && by_chunks > 10,
            "{proven} proven, {by_chunks} by chunks"
        );
        // Not while the band holds a row, nor over a missing sample, nor
        // an empty frame.
        let mut stwm = Stwm::new(&[1.0, 2.0]).unwrap().with_band(4.0);
        stwm.step(1.0);
        scan.scan(&[30.0; 8], 1);
        assert!(!stwm.skip_frame(&[30.0; 8], &scan));
        let mut fresh = Stwm::new(&[1.0, 2.0]).unwrap().with_band(4.0);
        scan.scan(&[30.0, f64::NAN, 30.0], 1);
        assert!(!fresh.skip_frame(&[30.0, f64::NAN, 30.0], &scan));
        assert!(!fresh.skip_frame(&[], &scan));
        assert_eq!(fresh.tick(), 0);
    }

    #[test]
    fn trace_reports_plausible_steps() {
        let mut stwm = Stwm::new(&[1.0, 2.0, 3.0]).unwrap();
        let mut seen = Vec::new();
        stwm.step_traced(1.0, |i, s| seen.push((i, s)));
        assert_eq!(seen.len(), 3);
        // At t = 1 every cell must come from the current column (Left) —
        // the previous column is all ∞ except the star row, and row 1's
        // best predecessor is the star cell d(1, 0) = 0 via Left.
        assert_eq!(seen[0], (1, Step::Left));
    }
}
