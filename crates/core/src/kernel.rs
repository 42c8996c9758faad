//! Lane-level column kernels for the STWM recurrence (Eq. 6–8).
//!
//! The per-tick DP update
//!
//! ```text
//! d(t, i) = ‖x_t − y_i‖ + min(d(t, i−1), d(t−1, i), d(t−1, i−1))
//! ```
//!
//! looks inherently sequential: `d(t, i)` reads `d(t, i−1)` from the
//! *same* column. The kernel splits it into two phases so everything
//! except that single carried value is data-parallel over the
//! structure-of-arrays lanes (`Vec<f64>` distances, `Vec<u64>` starts):
//!
//! 1. **Lane phase** (no loop-carried dependency, chunked [`LANES`]
//!    wide): per row `i`, the base distance `base[i] = ‖x − y_i‖` and
//!    the merged prev-column predecessor
//!    `dd[i] = min⁻(d(t−1, i), d(t−1, i−1))`, with the start lane
//!    `sd[i]` following the same selection mask. `min⁻` prefers the
//!    *down* cell on ties — the Eq. (8) tie order with the in-column
//!    *left* cell peeled off.
//! 2. **Carry phase** (speculative): per row `i`, compare the finished
//!    left neighbour `d(t, i−1)` against `dd[i]` and finish
//!    `d(t, i) = base[i] + min(left, dd[i])`, the start lane again
//!    following the mask. Only rows where `left` wins need the
//!    neighbour's value, so the carry first guesses that `left` loses
//!    everywhere, `base[i] + dd[i]` in one lane pass, then finds the
//!    rows where the guess fails with a chunked compare and runs the
//!    serial chain only over those runs (see [`carry`]).
//!
//! ## ε-band
//!
//! The disjoint query never needs the value of a cell above ε: costs
//! are non-negative, so such a cell cannot be reported, cannot block a
//! report (`dmin ≤ ε`), and cannot feed a cell at or below ε. The
//! column fill therefore takes a threshold `eps` and one band `top` per
//! column buffer — every row above a buffer's top holds a value above
//! `eps` (or `+∞`) — and computes only rows `1 ..= top_prev + 1`, plus
//! the `left`-only chain a cheap sample can push further up (see
//! [`fill_column`]). Its column is **ε-equivalent** to the full one:
//! every cell at or below `eps` is bit-identical in distance and start,
//! every other cell is above `eps` on both sides. Cells the band
//! computes keep their values even above `eps`; only stale rows from
//! two ticks back are overwritten with `+∞`. With `eps = +∞` the band
//! is the whole column and the contract below is strict bit-exactness.
//!
//! ## Reduction-order contract (bit-exactness)
//!
//! The split preserves Eq. (8)'s tie order *exactly*: the scalar
//! reference picks `left` iff `left ≤ down ∧ left ≤ diag`, and the
//! two-phase kernel picks `left` iff `left ≤ dd` where
//! `dd = (down ≤ diag ? down : diag)`. Over the monitors' validated
//! state space (column values in `[0, +∞]`, never NaN — non-finite
//! inputs are rejected before the column fill) the two predicates are
//! equivalent by transitivity, every select is an element-wise IEEE
//! comparison, and the single f64 addition `base + dbest` happens in
//! the same order in both forms. The speculative carry changes none of
//! this: a guessed row is `base[i] + dd[i]`, the very addition the
//! chain makes when `left` loses, and it stands only where the chain's
//! own comparison `left ≤ dd[i]`, made on the finished `left`, is
//! false; every other row comes from the chain itself. So cell for cell
//! the same comparison picks the same operand for the same single
//! addition, and scalar reference, portable chunked
//! kernel, and the explicit SIMD paths produce bit-identical columns
//! (`f64::to_bits`) over the rows they compute, which the unit tests
//! below pin and the differential suite
//! (`crates/testkit/tests/kernel_differential.rs`) checks as
//! ε-equivalence for banded monitors. See DESIGN.md §6g.
//!
//! ## SIMD
//!
//! On every `x86_64` build the lane phase's Eq. (8) min-select runs on
//! `core::arch` intrinsics: AVX2 when the CPU reports it at runtime,
//! the SSE2 baseline otherwise. That is the one place autovectorizers
//! struggle, because the `u64` start lane must be blended under the
//! `f64` comparison mask; with only the portable select the
//! `kernel_throughput` `column_*` rows measured 1.35–1.7× slower on an
//! x86-64 host. The base-distance fill and the carry phase stay in
//! portable Rust: the base fill, the carry's guess pass and its chunked
//! compare autovectorize (fixed-size chunks, no carried dependency), and
//! its repair runs are a serial chain. Other targets run the portable
//! select loop, which stays
//! compiled on `x86_64` too so the bit-exactness tests pin every lane
//! width against the reference. The `simd` module is the only `unsafe`
//! code in the crate (which is otherwise `deny(unsafe_code)`); the
//! hosted `miri` CI job runs the kernel tests under Miri to keep it
//! UB-clean.

use spring_dtw::kernels::DistanceKernel;

use crate::stwm::Step;

/// Portable chunk width of the lane phase: two AVX2 vectors of `f64`,
/// and a multiple of every narrower lane count, so the autovectorizer
/// can pick whatever the target offers.
const LANES: usize = 8;

/// The lanes the column min-select runs on: `Some(avx2)` is the
/// explicit x86-64 SIMD path (AVX2 when `avx2`, else SSE2), `None` the
/// portable loop (every other target). Only [`lanes`] builds one with
/// `avx2` set, after the CPU reported it: the AVX2 path relies on that.
#[derive(Debug, Clone, Copy)]
struct Lanes(Option<bool>);

/// The lanes this CPU runs the column min-select on, probed per column.
#[inline]
fn lanes() -> Lanes {
    #[cfg(target_arch = "x86_64")]
    let lanes = Lanes(Some(is_x86_feature_detected!("avx2")));
    #[cfg(not(target_arch = "x86_64"))]
    let lanes = Lanes(None);
    lanes
}

/// Reusable scratch lanes for the two-phase column fill, sized `m + 1`
/// to share the column indexing (index 0 is unused padding for the star
/// row). Owned by the matrix, so every column fill reuses it and the
/// steady state stays allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// `base[i] = ‖x − y_i‖` for `i = 1 ..= m`.
    base: Vec<f64>,
    /// `dd[i] = min⁻(d(t−1, i), d(t−1, i−1))` (down preferred on ties).
    dd: Vec<f64>,
    /// Start-lane values tracking `dd`'s selection.
    sd: Vec<u64>,
}

impl Scratch {
    /// Scratch for a query of length `m`.
    pub(crate) fn new(m: usize) -> Self {
        Scratch {
            base: vec![0.0; m + 1],
            dd: vec![0.0; m + 1],
            sd: vec![0; m + 1],
        }
    }

    /// Heap bytes held by the scratch lanes (for `MemoryUse`).
    pub(crate) fn bytes(&self) -> usize {
        (self.base.capacity() + self.dd.capacity()) * std::mem::size_of::<f64>()
            + self.sd.capacity() * std::mem::size_of::<u64>()
    }
}

/// Fills `base[i] = kernel.dist(x, query[i - 1])` for `i = 1 ..= m`.
/// A straight lane loop: both built-in kernels inline to 2–3 arithmetic
/// ops, so this autovectorizes without explicit intrinsics.
#[inline]
fn fill_base<K: DistanceKernel>(kernel: K, query: &[f64], x: f64, base: &mut [f64]) {
    for (b, &q) in base[1..].iter_mut().zip(query) {
        *b = kernel.dist(x, q);
    }
}

/// Lane-phase min-select over a previous-column prefix (`len h + 1`)
/// on `lanes`: for `i = 1 ..= h`, `dd[i] = min⁻(d_prev[i], d_prev[i−1])`
/// with `sd[i]` following the mask.
#[inline]
fn min_select_on(lanes: Lanes, d_prev: &[f64], s_prev: &[u64], dd: &mut [f64], sd: &mut [u64]) {
    let m = d_prev.len() - 1;
    let (down, diag) = (&d_prev[1..], &d_prev[..m]);
    let (sdown, sdiag) = (&s_prev[1..], &s_prev[..m]);
    let (dd, sd) = (&mut dd[1..m + 1], &mut sd[1..m + 1]);
    match lanes.0 {
        #[cfg(target_arch = "x86_64")]
        Some(avx2) => simd::min_select(avx2, down, diag, sdown, sdiag, dd, sd),
        _ => min_select_portable(down, diag, sdown, sdiag, dd, sd),
    }
}

/// Portable chunked min-select: `dd[i] = down[i]` if `down[i] ≤ diag[i]`
/// else `diag[i]`, the start lane blended under the same mask. The
/// fixed-width inner loop has no carried dependency, so LLVM unrolls
/// and vectorizes it at whatever width the target supports. The SIMD
/// paths finish their remainder lanes with it.
fn min_select_portable(
    down: &[f64],
    diag: &[f64],
    sdown: &[u64],
    sdiag: &[u64],
    dd: &mut [f64],
    sd: &mut [u64],
) {
    let n = dd.len();
    let mut i = 0;
    while i + LANES <= n {
        for k in 0..LANES {
            let j = i + k;
            let take_down = down[j] <= diag[j];
            dd[j] = if take_down { down[j] } else { diag[j] };
            sd[j] = if take_down { sdown[j] } else { sdiag[j] };
        }
        i += LANES;
    }
    while i < n {
        let take_down = down[i] <= diag[i];
        dd[i] = if take_down { down[i] } else { diag[i] };
        sd[i] = if take_down { sdown[i] } else { sdiag[i] };
        i += 1;
    }
}

/// Carry phase: finishes rows `1 ..= h` (`h = base.len() − 1`) with
/// the in-column *left* dependency and returns the highest of those
/// rows at or below `eps` (0 if none). `d_cur[0]` / `s_cur[0]` must
/// already hold the star cell `(0, t)`; `base`/`dd`/`sd` are the
/// scratch lanes. Row `i` picks `left` iff `left ≤ dd[i]`, which
/// reproduces the Eq. (8) tie order exactly (see the module docs).
///
/// It guesses that `left` loses every row: one lane pass writes
/// `base[i] + dd[i]` with start `sd[i]`. A chunked scan
/// ([`first_left`]) then finds the first row whose final predecessor
/// passes `left ≤ dd[i]`, and the serial chain repairs rows from there
/// while `left` keeps winning. The row where it loses already holds its
/// guess, so the scan resumes one row above it. Row 1 reads the star
/// cell, `0 ≤ dd[1]`, and always starts a run.
#[inline]
fn carry(
    base: &[f64],
    dd: &[f64],
    sd: &[u64],
    d_cur: &mut [f64],
    s_cur: &mut [u64],
    eps: f64,
) -> usize {
    let h = base.len() - 1;
    let (dd, sd) = (&dd[..=h], &sd[..=h]);
    let (d, s) = (&mut d_cur[..=h], &mut s_cur[..=h]);
    for (((d, s), (&b, &x)), &sx) in d[1..]
        .iter_mut()
        .zip(&mut s[1..])
        .zip(base[1..].iter().zip(&dd[1..]))
        .zip(&sd[1..])
    {
        *d = b + x;
        *s = sx;
    }
    let mut i = 1;
    while i <= h {
        let (mut left, sleft) = (d[i - 1], s[i - 1]);
        while i <= h && left <= dd[i] {
            left += base[i];
            d[i] = left;
            s[i] = sleft;
            i += 1;
        }
        i = first_left(d, dd, i + 1);
    }
    // Scanned after the carry: one compare while the band is full, a
    // few rows while it moves, all h only when it collapses.
    band_top(d, eps)
}

/// The first row `j ≥ from` of `d` (rows `1 ..= h`, `h = d.len() − 1`)
/// whose guess is wrong, `d[j − 1] ≤ dd[j]`, or `h + 1` if there is
/// none. Rows below `from` must be final, so the first row that fires
/// reads a final predecessor. The compare runs [`LANES`] rows per
/// branch: a chunk with no row firing is skipped whole.
#[inline]
fn first_left(d: &[f64], dd: &[f64], from: usize) -> usize {
    let h = d.len() - 1;
    let mut j = from;
    while j + LANES <= h + 1 {
        let left: &[f64; LANES] = d[j - 1..][..LANES].try_into().expect("LANES rows");
        let merged: &[f64; LANES] = dd[j..][..LANES].try_into().expect("LANES rows");
        let fired = left
            .iter()
            .zip(merged)
            .fold(false, |any, (l, x)| any | (l <= x));
        if fired {
            break;
        }
        j += LANES;
    }
    (j..=h).find(|&j| d[j - 1] <= dd[j]).unwrap_or(h + 1)
}

/// The highest row `i ≥ 1` of column `d` with `d[i] ≤ eps` (0 if none),
/// scanning down from the last row.
#[inline]
fn band_top(d: &[f64], eps: f64) -> usize {
    d[1..].iter().rposition(|&v| v <= eps).map_or(0, |i| i + 1)
}

/// Fills one STWM column with the two-phase SoA kernel over the ε-band
/// and returns the column's new band top. Star cells of both columns
/// are (re)set to `(0, t)` first, exactly as the scalar reference does.
///
/// `top_prev` / `top_cur` are the band tops of the two buffers: every
/// row above a buffer's top holds a value above `eps` (see the module
/// docs). With `eps = +∞` the band is the whole column and the result
/// is bit-exact with [`fill_column_reference`]; otherwise it is
/// ε-equivalent to it.
#[allow(clippy::too_many_arguments)] // the five lanes ARE the layout
pub(crate) fn fill_column<K: DistanceKernel>(
    kernel: K,
    query: &[f64],
    x: f64,
    t: u64,
    eps: f64,
    d_prev: &mut [f64],
    s_prev: &mut [u64],
    top_prev: usize,
    d_cur: &mut [f64],
    s_cur: &mut [u64],
    top_cur: usize,
    scratch: &mut Scratch,
) -> usize {
    fill_column_on(
        lanes(),
        |base| fill_base(kernel, query, x, base),
        |i| kernel.dist(x, query[i - 1]),
        t,
        eps,
        (d_prev, s_prev, top_prev),
        (d_cur, s_cur, top_cur),
        scratch,
    )
}

/// [`fill_column`] generalized over the base distance: `fill_base`
/// receives a `h + 1`-long prefix of the base lane (index 0 unused) and
/// must fill `base[i] = ‖x − y_i‖` for `i = 1 ..= h`; `row_dist(i)` is
/// the same distance for one row (the vertical chain). This is how a
/// `k`-channel matrix (`Stwm::step_row`), whose element distance sums
/// over channels, shares the min-select and carry phases.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_column_with(
    fill_base: impl FnOnce(&mut [f64]),
    row_dist: impl Fn(usize) -> f64,
    t: u64,
    eps: f64,
    d_prev: &mut [f64],
    s_prev: &mut [u64],
    top_prev: usize,
    d_cur: &mut [f64],
    s_cur: &mut [u64],
    top_cur: usize,
    scratch: &mut Scratch,
) -> usize {
    fill_column_on(
        lanes(),
        fill_base,
        row_dist,
        t,
        eps,
        (d_prev, s_prev, top_prev),
        (d_cur, s_cur, top_cur),
        scratch,
    )
}

/// One column buffer as the band fill sees it: distances, starts, top.
type BandColumn<'a> = (&'a mut [f64], &'a mut [u64], usize);

/// The banded column fill on `lanes`:
///
/// 1. rows `1 ..= h`, `h = min(m, top_prev + 1)`, through the lane and
///    carry phases; the carry reports the highest of them at or below
///    `eps`;
/// 2. if that is row `h` itself, a `left`-only chain climbs on while it
///    stays at or below `eps` (above row `h` both the down and the
///    diagonal predecessor lie above the previous column's top, so
///    `left` wins Eq. (8) strictly);
/// 3. rows between the last one written and `top_cur` still hold the
///    buffer's tick-`t−2` values, which may be at or below `eps`: they
///    become `+∞`.
///
/// Computed cells above `eps` keep their values. Returns the new top.
#[allow(clippy::too_many_arguments)]
fn fill_column_on(
    lanes: Lanes,
    fill_base: impl FnOnce(&mut [f64]),
    row_dist: impl Fn(usize) -> f64,
    t: u64,
    eps: f64,
    (d_prev, s_prev, top_prev): BandColumn<'_>,
    (d_cur, s_cur, top_cur): BandColumn<'_>,
    scratch: &mut Scratch,
) -> usize {
    let m = d_cur.len() - 1;
    let h = m.min(top_prev + 1);
    // Star row: distance 0; a path entering from (t, 0) or diagonally
    // from (t−1, 0) starts its first real element at tick t.
    d_prev[0] = 0.0;
    s_prev[0] = t;
    d_cur[0] = 0.0;
    s_cur[0] = t;
    let Scratch { base, dd, sd } = scratch;
    fill_base(&mut base[..=h]);
    min_select_on(lanes, &d_prev[..=h], &s_prev[..=h], dd, sd);
    let mut top = carry(&base[..=h], dd, sd, d_cur, s_cur, eps);
    let mut last = h;
    if top == h {
        let (mut left, s) = (d_cur[h], s_cur[h]);
        while last < m && left <= eps {
            last += 1;
            left += row_dist(last);
            d_cur[last] = left;
            s_cur[last] = s;
            top = if left <= eps { last } else { top };
        }
    }
    if top_cur > last {
        d_cur[last + 1..=top_cur].fill(f64::INFINITY);
    }
    top
}

/// The scalar reference column fill: the Eq. (7)/(8) recurrence as one
/// branchy loop, with a per-row trace hook for
/// [`crate::PathSpring`]'s back-pointers. The SoA kernel is pinned
/// bit-exact against this by unit tests and the differential fuzzer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_column_reference<K: DistanceKernel>(
    kernel: K,
    query: &[f64],
    x: f64,
    t: u64,
    d_prev: &mut [f64],
    s_prev: &mut [u64],
    d_cur: &mut [f64],
    s_cur: &mut [u64],
    mut trace: impl FnMut(usize, Step),
) {
    let m = query.len();
    d_cur[0] = 0.0;
    s_cur[0] = t;
    d_prev[0] = 0.0;
    s_prev[0] = t;
    for i in 1..=m {
        let base = kernel.dist(x, query[i - 1]);
        let left = d_cur[i - 1]; //  d(t,   i−1)
        let down = d_prev[i]; //     d(t−1, i)
        let diag = d_prev[i - 1]; // d(t−1, i−1)
                                  // Tie-break in the order of Equation (8).
        let (dbest, s, step) = if left <= down && left <= diag {
            (left, s_cur[i - 1], Step::Left)
        } else if down <= diag {
            (down, s_prev[i], Step::Down)
        } else {
            (diag, s_prev[i - 1], Step::Diag)
        };
        d_cur[i] = base + dbest;
        s_cur[i] = s;
        trace(i, step);
    }
}

/// Explicit x86-64 SIMD min-select: the only `unsafe` in the crate,
/// compiled on every x86_64 build. AVX2 (4 × f64) or SSE2 (2 × f64,
/// part of the x86-64 baseline), chosen at runtime from the CPU's
/// features. Every operation is an element-wise IEEE compare/blend, so
/// results are bit-identical to the portable path at either width.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use core::arch::x86_64::*;

    use super::min_select_portable;

    /// Min-select on AVX2 when `avx2` (which the CPU must report, see
    /// [`super::Lanes`]), on SSE2 otherwise; the lanes past the last
    /// full vector go through the portable loop.
    #[inline]
    pub(super) fn min_select(
        avx2: bool,
        down: &[f64],
        diag: &[f64],
        sdown: &[u64],
        sdiag: &[u64],
        dd: &mut [f64],
        sd: &mut [u64],
    ) {
        // SAFETY: sse2 is unconditionally part of the x86-64 baseline;
        // the avx2 path is only entered when the caller's probe
        // reported avx2.
        let i = unsafe {
            if avx2 {
                min_select_avx2(down, diag, sdown, sdiag, dd, sd)
            } else {
                min_select_sse2(down, diag, sdown, sdiag, dd, sd)
            }
        };
        min_select_portable(
            &down[i..],
            &diag[i..],
            &sdown[i..],
            &sdiag[i..],
            &mut dd[i..],
            &mut sd[i..],
        );
    }

    /// Fills whole 4-lane vectors and returns how many lanes it filled.
    ///
    /// # Safety
    /// Requires AVX2. All slices must hold at least `dd.len()` elements
    /// (guaranteed by the caller's subslicing of `m + 1` columns).
    #[target_feature(enable = "avx2")]
    unsafe fn min_select_avx2(
        down: &[f64],
        diag: &[f64],
        sdown: &[u64],
        sdiag: &[u64],
        dd: &mut [f64],
        sd: &mut [u64],
    ) -> usize {
        let n = dd.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm256_loadu_pd(down.as_ptr().add(i));
            let g = _mm256_loadu_pd(diag.as_ptr().add(i));
            // All-ones lanes where down ≤ diag (false for NaN, exactly
            // like the scalar `<=`).
            let mask = _mm256_cmp_pd::<_CMP_LE_OQ>(d, g);
            let best = _mm256_blendv_pd(g, d, mask);
            _mm256_storeu_pd(dd.as_mut_ptr().add(i), best);
            // Blend the u64 start lane under the same mask: the mask
            // lanes are all-ones/all-zeros, so a byte blend is exact.
            let sm = _mm256_castpd_si256(mask);
            let sdn = _mm256_loadu_si256(sdown.as_ptr().add(i) as *const __m256i);
            let sdg = _mm256_loadu_si256(sdiag.as_ptr().add(i) as *const __m256i);
            let sbest = _mm256_blendv_epi8(sdg, sdn, sm);
            _mm256_storeu_si256(sd.as_mut_ptr().add(i) as *mut __m256i, sbest);
            i += 4;
        }
        i
    }

    /// Fills whole 2-lane vectors and returns how many lanes it filled.
    ///
    /// # Safety
    /// SSE2 is part of the x86-64 baseline; slice bounds as above.
    #[target_feature(enable = "sse2")]
    unsafe fn min_select_sse2(
        down: &[f64],
        diag: &[f64],
        sdown: &[u64],
        sdiag: &[u64],
        dd: &mut [f64],
        sd: &mut [u64],
    ) -> usize {
        let n = dd.len();
        let mut i = 0;
        while i + 2 <= n {
            let d = _mm_loadu_pd(down.as_ptr().add(i));
            let g = _mm_loadu_pd(diag.as_ptr().add(i));
            let mask = _mm_cmple_pd(d, g);
            let best = _mm_or_pd(_mm_and_pd(mask, d), _mm_andnot_pd(mask, g));
            _mm_storeu_pd(dd.as_mut_ptr().add(i), best);
            let sm = _mm_castpd_si128(mask);
            let sdn = _mm_loadu_si128(sdown.as_ptr().add(i) as *const __m128i);
            let sdg = _mm_loadu_si128(sdiag.as_ptr().add(i) as *const __m128i);
            let sbest = _mm_or_si128(_mm_and_si128(sm, sdn), _mm_andnot_si128(sm, sdg));
            _mm_storeu_si128(sd.as_mut_ptr().add(i) as *mut __m128i, sbest);
            i += 2;
        }
        i
    }
}

/// Asserts that column `(d, s)` is ε-equivalent to the reference column
/// `(rd, rs)`: every cell at or below `eps` on either side has the same
/// distance bits and start on both, and every other cell is above `eps`
/// on both.
#[cfg(test)]
pub(crate) fn assert_eps_equivalent(
    eps: f64,
    (rd, rs): (&[f64], &[u64]),
    (d, s): (&[f64], &[u64]),
    ctx: &str,
) {
    assert_eq!(rd.len(), d.len(), "{ctx}: column lengths");
    for i in 0..rd.len() {
        if rd[i] <= eps || d[i] <= eps {
            assert_eq!(
                (rd[i].to_bits(), rs[i]),
                (d[i].to_bits(), s[i]),
                "{ctx}: row {i} diverges at or below eps = {eps}: {} vs {}",
                rd[i],
                d[i]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spring_dtw::kernels::{Absolute, Squared};
    use spring_util::Rng;
    use std::sync::Arc;

    /// Every lane implementation this build can run: the portable loop,
    /// then each explicit SIMD width the CPU reports (SSE2, AVX2), so one
    /// build pins all of them.
    fn every_lanes() -> Vec<Lanes> {
        let mut all = vec![Lanes(None)];
        if let Some(avx2) = lanes().0 {
            all.push(Lanes(Some(false)));
            if avx2 {
                all.push(Lanes(Some(true)));
            }
        }
        all
    }

    /// Drives a reference column and a kernel column side by side over
    /// the same inputs, once per lane width ([`every_lanes`]), and
    /// demands bit-identical lanes after every tick.
    fn assert_bit_exact(query: &[f64], stream: &[f64], invalidate_every: Option<usize>) {
        let m = query.len();
        for lanes in every_lanes() {
            let mut rd_prev = vec![f64::INFINITY; m + 1];
            let mut rd_cur = vec![f64::INFINITY; m + 1];
            let mut rs_prev = vec![0u64; m + 1];
            let mut rs_cur = vec![0u64; m + 1];
            let mut kd_prev = rd_prev.clone();
            let mut kd_cur = rd_cur.clone();
            let mut ks_prev = rs_prev.clone();
            let mut ks_cur = rs_cur.clone();
            let mut scratch = Scratch::new(m);
            for (tick, &x) in stream.iter().enumerate() {
                let t = tick as u64 + 1;
                fill_column_reference(
                    Squared,
                    query,
                    x,
                    t,
                    &mut rd_prev,
                    &mut rs_prev,
                    &mut rd_cur,
                    &mut rs_cur,
                    |_, _| {},
                );
                // `fill_column_with`'s phases, the min-select on `lanes`.
                (kd_prev[0], ks_prev[0], kd_cur[0], ks_cur[0]) = (0.0, t, 0.0, t);
                let Scratch { base, dd, sd } = &mut scratch;
                fill_base(Squared, query, x, base);
                min_select_on(lanes, &kd_prev, &ks_prev, dd, sd);
                carry(base, dd, sd, &mut kd_cur, &mut ks_cur, f64::INFINITY);
                let rbits: Vec<u64> = rd_cur.iter().map(|d| d.to_bits()).collect();
                let kbits: Vec<u64> = kd_cur.iter().map(|d| d.to_bits()).collect();
                assert_eq!(rbits, kbits, "{lanes:?}: distance lanes diverge at t = {t}");
                assert_eq!(rs_cur, ks_cur, "{lanes:?}: start lanes diverge at t = {t}");
                std::mem::swap(&mut rd_cur, &mut rd_prev);
                std::mem::swap(&mut rs_cur, &mut rs_prev);
                std::mem::swap(&mut kd_cur, &mut kd_prev);
                std::mem::swap(&mut ks_cur, &mut ks_prev);
                // Mimic the disjoint reset: knock identical cells to +∞ on
                // both sides so the kernel is exercised on post-reset
                // columns full of infinities.
                if let Some(every) = invalidate_every {
                    if tick % every == every - 1 {
                        for i in (1..=m).step_by(2) {
                            rd_prev[i] = f64::INFINITY;
                            kd_prev[i] = f64::INFINITY;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit_on_random_streams() {
        let mut rng = Rng::seed_from_u64(0xC0FFEE);
        for m in [1usize, 2, 3, 4, 7, 8, 9, 15, 16, 17, 64, 129] {
            let query: Vec<f64> = (0..m).map(|_| rng.f64_range(-5.0, 5.0)).collect();
            let stream: Vec<f64> = (0..200).map(|_| rng.f64_range(-5.0, 5.0)).collect();
            assert_bit_exact(&query, &stream, None);
        }
    }

    #[test]
    fn kernel_matches_reference_on_plateaus_and_coarse_ties() {
        // Integer grids force exact ties at every predecessor, the worst
        // case for tie-order bugs; plateaus stress equal-cost expansion.
        let mut rng = Rng::seed_from_u64(7);
        for m in [3usize, 8, 33] {
            let query: Vec<f64> = (0..m).map(|_| rng.u64_below(5) as f64).collect();
            let mut stream = Vec::new();
            for _ in 0..120 {
                let v = rng.u64_below(5) as f64;
                for _ in 0..=rng.u64_below(3) {
                    stream.push(v);
                }
            }
            assert_bit_exact(&query, &stream, Some(9));
        }
    }

    #[test]
    fn kernel_matches_reference_through_invalidated_columns() {
        let query = [1.0, 4.0, 2.0, 8.0, 3.0];
        let stream: Vec<f64> = (0..300).map(|i| ((i * 13) % 29) as f64 * 0.3).collect();
        assert_bit_exact(&query, &stream, Some(5));
    }

    #[test]
    fn min_select_prefers_down_on_ties() {
        // dd must take the *down* cell on exact ties (Eq. 8 order with
        // `left` peeled off) — the start lane makes the choice visible.
        let d_prev = [0.0, 2.0, 2.0, f64::INFINITY, f64::INFINITY];
        let s_prev = [9u64, 10, 11, 12, 13];
        let mut dd = [0.0; 5];
        let mut sd = [0u64; 5];
        min_select_on(lanes(), &d_prev, &s_prev, &mut dd, &mut sd);
        // i = 1: down = 2.0 (s 10), diag = 0.0 (s 9) -> diag.
        assert_eq!((dd[1], sd[1]), (0.0, 9));
        // i = 2: down = 2.0 (s 11) ties diag = 2.0 (s 10) -> down.
        assert_eq!((dd[2], sd[2]), (2.0, 11));
        // i = 3: down = ∞ (s 12), diag = 2.0 (s 11) -> diag.
        assert_eq!((dd[3], sd[3]), (2.0, 11));
        // i = 4: both ∞, tie -> down (s 13).
        assert_eq!((dd[4], sd[4]), (f64::INFINITY, 13));
    }

    /// The serial carry chain [`carry`] must match bit for bit: per row,
    /// `left` iff `left ≤ dd[i]`, then one addition.
    fn carry_serial(
        base: &[f64],
        dd: &[f64],
        sd: &[u64],
        d_cur: &mut [f64],
        s_cur: &mut [u64],
        eps: f64,
    ) -> usize {
        let h = base.len() - 1;
        let mut left = d_cur[0];
        let mut sleft = s_cur[0];
        for i in 1..=h {
            let take_left = left <= dd[i];
            let dbest = if take_left { left } else { dd[i] };
            let s = if take_left { sleft } else { sd[i] };
            left = base[i] + dbest;
            sleft = s;
            d_cur[i] = left;
            s_cur[i] = s;
        }
        band_top(&d_cur[..=h], eps)
    }

    /// Runs [`carry`] and [`carry_serial`] on the same lanes (rows
    /// above `h` and the column's tail hold junk that must survive) and
    /// demands equal distance bits, starts and tops. `ctx` names the
    /// case, built only on a failure.
    fn assert_carry_matches(
        base: &[f64],
        dd: &[f64],
        sd: &[u64],
        eps: f64,
        ctx: impl Fn() -> String,
    ) {
        let h = base.len() - 1;
        let len = h + 1 + LANES;
        let mut want_d = vec![-7.0; len];
        let mut want_s = vec![u64::MAX; len];
        (want_d[0], want_s[0]) = (0.0, 5);
        let (mut d, mut s) = (want_d.clone(), want_s.clone());
        let want_top = carry_serial(base, dd, sd, &mut want_d, &mut want_s, eps);
        let top = carry(base, dd, sd, &mut d, &mut s, eps);
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d), bits(&want_d), "{}: distances", ctx());
        assert_eq!(s, want_s, "{}: starts", ctx());
        assert_eq!(top, want_top, "{}: top", ctx());
    }

    /// How row `i` of a crafted lane meets its `left` cell.
    #[derive(Debug, Clone, Copy)]
    enum Row {
        /// `left` wins strictly: `dd[i]` lies above it.
        Above,
        /// `left` wins an exact tie, `dd[i] == left`.
        Tie,
        /// `left` wins against `dd[i] = +∞`.
        Inf,
        /// `left` loses: `dd[i]` lies below it (when `left` is 0 it
        /// cannot, and ties instead).
        Loses,
    }

    /// Crafts `(base, dd, sd)` for rows `1 ..= rows.len()` so that row
    /// `i + 1` meets its `left` cell as `rows[i]` says, walking the
    /// serial chain; `base` cycles through `bases`.
    fn craft(rows: &[Row], bases: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<u64>) {
        let h = rows.len();
        let mut base = vec![f64::NAN; h + 1];
        let mut dd = vec![f64::NAN; h + 1];
        let sd: Vec<u64> = (0..=h as u64).map(|i| 100 + i).collect();
        let mut left = 0.0;
        for (i, row) in (1..=h).zip(rows) {
            base[i] = bases[i % bases.len()];
            dd[i] = match row {
                Row::Above => left + 1.5,
                Row::Tie => left,
                Row::Inf => f64::INFINITY,
                Row::Loses if left > 0.0 => left * 0.5,
                Row::Loses => 0.0,
            };
            left = left.min(dd[i]) + base[i];
        }
        (base, dd, sd)
    }

    #[test]
    fn speculative_carry_matches_the_serial_chain_on_crafted_lanes() {
        // Row 1 always wins (its `left` is the star cell, 0). Beside it,
        // one more `left` run on rows a ..= b for every 2 ≤ a ≤ b ≤ h,
        // h = 1 ..= 3·LANES + 1: runs that start and end at every offset
        // inside a chunk, at row h and across chunk boundaries, one row
        // after the first run (a = 3) or glued to it (a = 2). Each run
        // wins strictly, by exact ties or against +∞; bases with zero
        // rows make `left` stay 0, where it cannot lose.
        let bases: [&[f64]; 3] = [&[1.0, 0.25, 3.0], &[0.0, 2.0], &[0.0]];
        let wins = [Row::Above, Row::Tie, Row::Inf];
        for h in 1..=3 * LANES + 1 {
            // `0..=0` holds no row: row 1's run alone.
            let runs = (2..=h).flat_map(|a| (a..=h).map(move |b| a..=b));
            for run in std::iter::once(0..=0).chain(runs) {
                for win in wins {
                    // Each base cycle with its own ε, so the returned top
                    // falls at row 0, inside the column and at row h.
                    for (bases, eps) in bases.iter().zip([2.0, 0.0, f64::INFINITY]) {
                        let rows: Vec<Row> = (1..=h)
                            .map(|i| match i == 1 || run.contains(&i) {
                                true => win,
                                false => Row::Loses,
                            })
                            .collect();
                        let (base, dd, sd) = craft(&rows, bases);
                        let ctx = || format!("h={h} run {run:?} {win:?} {bases:?} eps={eps}");
                        assert_carry_matches(&base, &dd, &sd, eps, ctx);
                    }
                }
            }
        }
        // Random mixes of every row kind, several runs per column; a
        // `+∞` base makes `left` itself `+∞`, so `+∞` rows then tie.
        let mut rng = Rng::seed_from_u64(0xCA22);
        let kinds = [Row::Above, Row::Tie, Row::Inf, Row::Loses, Row::Loses];
        let grid = [0.0, 0.5, 1.0, 0.0, 0.5, 1.0, f64::INFINITY];
        for round in 0..500 {
            let h = rng.usize_range(1, 4 * LANES + 2);
            let rows: Vec<Row> = (0..h).map(|_| kinds[rng.usize_range(0, 5)]).collect();
            let bases: Vec<f64> = (0..5).map(|_| grid[rng.usize_range(0, 7)]).collect();
            let (base, dd, sd) = craft(&rows, &bases);
            let ctx = || format!("round {round}: {rows:?} {bases:?}");
            assert_carry_matches(&base, &dd, &sd, 1.0, ctx);
        }
    }

    /// A banded column pair stepped by [`fill_column_on`] on `lanes`
    /// beside a full reference pair; asserts ε-equivalence and a tight
    /// band top after every tick and returns the tops.
    fn run_band(lanes: Lanes, query: &[f64], stream: &[f64], eps: f64) -> Vec<usize> {
        let m = query.len();
        let (mut rd_prev, mut rs_prev) = (vec![f64::INFINITY; m + 1], vec![0u64; m + 1]);
        let (mut rd_cur, mut rs_cur) = (rd_prev.clone(), rs_prev.clone());
        let (mut bd_prev, mut bs_prev) = (rd_prev.clone(), rs_prev.clone());
        let (mut bd_cur, mut bs_cur) = (rd_prev.clone(), rs_prev.clone());
        let (mut top_prev, mut top_cur) = (0, 0);
        let mut scratch = Scratch::new(m);
        let mut tops = Vec::new();
        for (tick, &x) in stream.iter().enumerate() {
            let t = tick as u64 + 1;
            fill_column_reference(
                Squared,
                query,
                x,
                t,
                &mut rd_prev,
                &mut rs_prev,
                &mut rd_cur,
                &mut rs_cur,
                |_, _| {},
            );
            top_cur = fill_column_on(
                lanes,
                |base| fill_base(Squared, query, x, base),
                |i| Squared.dist(x, query[i - 1]),
                t,
                eps,
                (&mut bd_prev, &mut bs_prev, top_prev),
                (&mut bd_cur, &mut bs_cur, top_cur),
                &mut scratch,
            );
            let ctx = format!("{lanes:?} m={m} eps={eps} t={t}");
            assert_eps_equivalent(eps, (&rd_cur, &rs_cur), (&bd_cur, &bs_cur), &ctx);
            let live = (1..=m).rev().find(|&i| rd_cur[i] <= eps).unwrap_or(0);
            assert_eq!(top_cur, live, "{ctx}: band top");
            tops.push(top_cur);
            std::mem::swap(&mut rd_cur, &mut rd_prev);
            std::mem::swap(&mut rs_cur, &mut rs_prev);
            std::mem::swap(&mut bd_cur, &mut bd_prev);
            std::mem::swap(&mut bs_cur, &mut bs_prev);
            std::mem::swap(&mut top_cur, &mut top_prev);
        }
        tops
    }

    #[test]
    fn band_follows_a_vertical_chain_from_row_one_to_m_in_one_tick() {
        // A flat query: after noise the band is empty, and the first
        // sample that meets the query is a zero-cost `left` chain from
        // row 1 to row m, above the only row the lane phase computes.
        let m = 12;
        let query = vec![2.0; m];
        let mut stream = vec![9.0; 5];
        stream.extend([2.0, 2.0, 9.0]);
        for lanes in every_lanes() {
            let tops = run_band(lanes, &query, &stream, 1.0);
            assert_eq!(tops, [0, 0, 0, 0, 0, m, m, 0], "{lanes:?}");
        }
    }

    #[test]
    fn band_shrinks_from_m_to_one_and_clears_stale_rows() {
        // The exact occurrence fills the band to m; the next sample
        // leaves only row 1 at or below ε. The tick after that writes
        // rows 1..=2 into the buffer that still holds the occurrence's
        // column, whose rows 3..=m are at or below ε: the fill must
        // overwrite them, or they would pass for live cells.
        let query = [0.0, 3.0, 3.0, 3.0, 3.0, 3.0];
        let stream = [0.0, 3.0, 3.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0];
        for lanes in every_lanes() {
            let tops = run_band(lanes, &query, &stream, 1.0);
            assert_eq!(tops[5..], [6, 1, 1, 1], "{lanes:?}");
        }
    }

    #[test]
    fn band_prefixes_of_every_length_on_every_lane_width() {
        // Previous columns whose band top is h − 1 make the lane phase
        // compute exactly h rows, h = 1..=9: every SIMD width's
        // remainder path. Integer grids force ties; the current buffer
        // starts with stale cells up to a random top of its own.
        let mut rng = Rng::seed_from_u64(0xBA4D);
        let (m, eps, t) = (12usize, 2.0, 40);
        let grid = |rng: &mut Rng| rng.u64_below(3) as f64;
        // A column whose rows 1..=top are at or below ε, the rest above.
        let column = |rng: &mut Rng, top: usize| -> (Vec<f64>, Vec<u64>) {
            (0..=m)
                .map(|i| {
                    let d = match i <= top {
                        true => rng.u64_below(5) as f64 * 0.5,
                        false => [2.5, 4.0, f64::INFINITY][rng.u64_below(3) as usize],
                    };
                    (d, rng.u64_below(t))
                })
                .unzip()
        };
        for lanes in every_lanes() {
            for h in 1..=9usize {
                for _ in 0..16 {
                    let query: Vec<f64> = (0..m).map(|_| grid(&mut rng)).collect();
                    let x = grid(&mut rng);
                    let (mut d_prev, mut s_prev) = column(&mut rng, h - 1);
                    let top_cur = rng.u64_below(m as u64 + 1) as usize;
                    let (mut d_cur, mut s_cur) = column(&mut rng, top_cur);
                    let (mut rd_prev, mut rs_prev) = (d_prev.clone(), s_prev.clone());
                    let (mut rd_cur, mut rs_cur) = (d_cur.clone(), s_cur.clone());
                    fill_column_reference(
                        Squared,
                        &query,
                        x,
                        t,
                        &mut rd_prev,
                        &mut rs_prev,
                        &mut rd_cur,
                        &mut rs_cur,
                        |_, _| {},
                    );
                    let top = fill_column_on(
                        lanes,
                        |base| fill_base(Squared, &query, x, base),
                        |i| Squared.dist(x, query[i - 1]),
                        t,
                        eps,
                        (&mut d_prev, &mut s_prev, h - 1),
                        (&mut d_cur, &mut s_cur, top_cur),
                        &mut Scratch::new(m),
                    );
                    let ctx = format!("{lanes:?} h={h} top_cur={top_cur}");
                    assert_eps_equivalent(eps, (&rd_cur, &rs_cur), (&d_cur, &s_cur), &ctx);
                    let live_top = (1..=m).rev().find(|&i| rd_cur[i] <= eps).unwrap_or(0);
                    assert_eq!(top, live_top, "{ctx}: band top");
                }
            }
        }
    }

    #[test]
    fn one_monitor_stays_eps_equivalent_across_every_stepping_path() {
        // One banded monitor takes turns on `step`, `step_batch` (in
        // chunks of 8 and ragged chunks of 13), `step_reference` and a
        // snapshot restore; its twin only ever runs the full reference.
        use crate::monitor::Monitor as _;
        use crate::{Spring, SpringConfig};
        let m = 20;
        let query: Vec<f64> = (0..m).map(|i| (i as f64 * 0.4).sin() * 3.0).collect();
        let stream: Vec<f64> = (0..240)
            .map(|i| (i as f64 * 0.4).sin() * 3.0 + ((i * 7 % 5) as f64 - 2.0) * 0.3)
            .collect();
        let config = SpringConfig::new(4.0);
        let mut mon = Spring::new(&query, config).unwrap();
        let mut twin = Spring::new(&query, config).unwrap();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (k, chunk) in stream.chunks(24).enumerate() {
            want.extend(chunk.iter().filter_map(|&x| twin.step_reference(x)));
            match k % 4 {
                0 => got.extend(chunk.iter().filter_map(|&x| mon.step(x))),
                1 => {
                    for part in chunk.chunks(8) {
                        mon.step_batch(part, &mut got).unwrap();
                    }
                }
                2 => got.extend(chunk.iter().filter_map(|&x| mon.step_reference(x))),
                _ => {
                    mon = Spring::restore_squared(&mon.snapshot()).unwrap();
                    for part in chunk.chunks(13) {
                        mon.step_batch(part, &mut got).unwrap();
                    }
                }
            }
            let ctx = format!("after chunk {k}");
            assert_eq!(got, want, "{ctx}: reports");
            assert_eq!(mon.pending(), twin.pending(), "{ctx}: pending");
            let (r, b) = (twin.stwm(), mon.stwm());
            assert_eps_equivalent(
                4.0,
                (r.distances(), r.starts()),
                (b.distances(), b.starts()),
                &ctx,
            );
        }
        assert!(!want.is_empty(), "the workload must report");
    }

    #[test]
    fn vector_rows_keep_the_banded_kernel_eps_equivalent_to_the_full_column() {
        // A `k`-channel matrix with an ε-band beside one without (ε = +∞,
        // every row): after each row step the columns must be
        // ε-equivalent and the band top tight. Coarse grids make ties and
        // repeated query rows (vertical chains); planted copies of the
        // query fill the band from row 1 to m.
        use crate::arena::QueryRef;
        use crate::stwm::Stwm;
        use spring_dtw::Kernel;
        let mut rng = Rng::seed_from_u64(0x7EC7);
        for k in [1usize, 3, 8] {
            for round in 0..8 {
                let kernel = [Kernel::Squared, Kernel::Absolute][round % 2];
                let m = rng.usize_range(1, 13);
                let cell = |rng: &mut Rng| match round / 2 % 2 {
                    0 => rng.u64_below(3) as f64,
                    _ => rng.f64_range(-2.0, 2.0),
                };
                let row = |rng: &mut Rng| (0..k).map(|_| cell(rng)).collect::<Vec<f64>>();
                let query: Vec<Vec<f64>> = (0..m).map(|_| row(&mut rng)).collect();
                let eps = [0.0, 0.5 * k as f64, (m * k) as f64, 1e6][round / 2];
                let mut stream: Vec<Vec<f64>> = Vec::new();
                while stream.len() < 80 {
                    match rng.u64_below(8) {
                        0 => stream.extend(query.iter().cloned()),
                        1 | 2 if !stream.is_empty() => {
                            stream.push(stream[stream.len() - 1].clone())
                        }
                        _ => stream.push(row(&mut rng)),
                    }
                }
                let entry = QueryRef::flat(&query.concat(), k).unwrap();
                let mut full = Stwm::with_rows(Arc::clone(&entry), kernel);
                let mut banded = Stwm::with_rows(entry, kernel).with_band(eps);
                for (t, x) in stream.iter().enumerate() {
                    full.step_row(x).unwrap();
                    banded.step_row(x).unwrap();
                    let ctx = format!("k={k} round={round} m={m} eps={eps} t={}", t + 1);
                    assert_eps_equivalent(
                        eps,
                        (full.distances(), full.starts()),
                        (banded.distances(), banded.starts()),
                        &ctx,
                    );
                    let live = (1..=m).rev().find(|&i| full.distances()[i] <= eps);
                    assert_eq!(banded.top(), live.unwrap_or(0), "{ctx}: band top");
                }
            }
        }
    }

    #[test]
    fn absolute_kernel_is_also_bit_exact() {
        let query = [0.5, -1.25, 3.0];
        let stream: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.37).sin() * 4.0).collect();
        let m = query.len();
        let mut rd_prev = vec![f64::INFINITY; m + 1];
        let mut rd_cur = vec![f64::INFINITY; m + 1];
        let mut rs_prev = vec![0u64; m + 1];
        let mut rs_cur = vec![0u64; m + 1];
        let mut kd_prev = rd_prev.clone();
        let mut kd_cur = rd_cur.clone();
        let mut ks_prev = rs_prev.clone();
        let mut ks_cur = rs_cur.clone();
        let mut scratch = Scratch::new(m);
        for (tick, &x) in stream.iter().enumerate() {
            let t = tick as u64 + 1;
            fill_column_reference(
                Absolute,
                &query,
                x,
                t,
                &mut rd_prev,
                &mut rs_prev,
                &mut rd_cur,
                &mut rs_cur,
                |_, _| {},
            );
            fill_column(
                Absolute,
                &query,
                x,
                t,
                f64::INFINITY,
                &mut kd_prev,
                &mut ks_prev,
                m,
                &mut kd_cur,
                &mut ks_cur,
                m,
                &mut scratch,
            );
            assert_eq!(
                rd_cur.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                kd_cur.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(rs_cur, ks_cur);
            std::mem::swap(&mut rd_cur, &mut rd_prev);
            std::mem::swap(&mut rs_cur, &mut rs_prev);
            std::mem::swap(&mut kd_cur, &mut kd_prev);
            std::mem::swap(&mut ks_cur, &mut ks_prev);
        }
    }
}
