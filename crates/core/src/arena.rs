//! Shared immutable query storage — the query arena.
//!
//! The fleet scenario attaches one query to many streams (or many ε
//! values to one stream). Before this module every monitor owned a
//! private copy of the pattern and its derived data (z-normalization
//! statistics), so a fleet cost `O(attachments × m)` for data that
//! never changes after construction. The arena splits every monitor
//! into:
//!
//! * an **immutable shared part** — a [`QueryRef`] holding the pattern
//!   samples and z-norm statistics, interned
//!   behind an [`Arc`] and deduplicated by FNV-1a content hash
//!   (`spring-util::hash`); and
//! * a **mutable per-attachment part** — the DP distance/start columns
//!   and candidate bookkeeping, which stay inside each monitor.
//!
//! Fleet memory becomes `O(queries × m + attachments × m_columns)`,
//! and because a [`QueryRef`] is immutable, republishing a new entry
//! under the same logical query id gives atomic fleet-wide query
//! hot-swap (see `spring-monitor`'s `Engine::swap_query`).
//!
//! Monitors built through the plain `&[f64]` constructors keep working:
//! they mint a private single-use [`QueryRef`] internally, which is
//! bit-exact with the shared path (same buffers, same kernel calls).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use spring_util::hash::{fnv1a, fnv1a_continue};

use crate::error::{check_query, SpringError};
use crate::mem::MemoryUse;

/// An immutable, shareable query: pattern samples plus every derived
/// buffer that does not change while the query is attached.
///
/// A `QueryRef` is always handled as an [`Arc<QueryRef>`]; monitors
/// borrow the pattern from the `Arc` and keep only their mutable DP
/// columns per attachment. Content equality is pinned by an FNV-1a
/// [`fingerprint`](QueryRef::fingerprint) over the sample bits and the
/// channel count.
#[derive(Debug)]
pub struct QueryRef {
    /// Pattern samples, flattened row-major: tick `i` occupies
    /// `samples[i*channels .. (i+1)*channels]`.
    samples: Vec<f64>,
    /// Channels per tick (1 for scalar queries).
    channels: usize,
    /// Population mean of the flattened samples.
    mean: f64,
    /// Population standard deviation of the flattened samples.
    std: f64,
    /// FNV-1a content hash (channels ⊕ samples).
    hash: u64,
    /// Lazily-built z-normalized variant of a scalar query, computed at
    /// most once per `QueryRef` no matter how many normalized monitors
    /// attach to it.
    znormalized: OnceLock<Arc<QueryRef>>,
}

/// FNV-1a over the exact bit patterns: two queries share an arena slot
/// iff the channel count and every sample bit agree.
fn content_hash(samples: &[f64], channels: usize) -> u64 {
    samples
        .iter()
        .fold(fnv1a(&(channels as u64).to_le_bytes()), |h, s| {
            fnv1a_continue(h, &s.to_bits().to_le_bytes())
        })
}

/// Validates a pattern flattened row-major, `channels` per tick.
///
/// # Errors
/// Rejects zero channels, a sample count that is not a multiple of
/// `channels`, and empty or non-finite patterns.
pub(crate) fn check_rows(samples: &[f64], channels: usize) -> Result<(), SpringError> {
    if channels == 0 || !samples.len().is_multiple_of(channels) {
        return Err(SpringError::InvalidQuery(format!(
            "{} samples do not split into rows of {channels} channels",
            samples.len()
        )));
    }
    check_query(samples)
}

impl QueryRef {
    /// Builds a private query from samples flattened row-major,
    /// `channels` per tick (1 for a scalar query).
    ///
    /// # Errors
    /// Rejects zero channels, a sample count that is not a multiple of
    /// `channels`, and empty or non-finite patterns.
    pub fn flat(samples: &[f64], channels: usize) -> Result<Arc<Self>, SpringError> {
        check_rows(samples, channels)?;
        let hash = content_hash(samples, channels);
        Ok(Arc::new(Self::with_hash(hash, samples.to_vec(), channels)))
    }

    fn with_hash(hash: u64, samples: Vec<f64>, channels: usize) -> Self {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        QueryRef {
            samples,
            channels,
            mean,
            std: var.sqrt(),
            hash,
            znormalized: OnceLock::new(),
        }
    }

    /// The flattened pattern samples (row-major for vector queries).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Channels per tick (1 for scalar queries).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Query length `m` in ticks.
    pub fn len(&self) -> usize {
        self.samples.len() / self.channels
    }

    /// True for a zero-tick query (unreachable through the validated
    /// constructors; present for `len`/`is_empty` symmetry).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Population mean of the flattened samples.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation of the flattened samples.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// FNV-1a content fingerprint. Stable across runs and processes, so
    /// it doubles as the arena key and the metrics dedup key.
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// Shared cells this entry holds resident (the pattern), in
    /// `f64`-sized units — the arena-side term of the
    /// `O(queries·m + attachments·m)` memory bound.
    pub fn cells(&self) -> usize {
        self.samples.len()
    }

    /// The z-normalized variant of a scalar query, built at most once
    /// per `QueryRef` and shared by every normalized monitor attached
    /// to it. Uses the exact arithmetic of [`crate::znorm::znormalize`],
    /// so normalized monitors stay bit-identical to the un-shared path.
    ///
    /// # Panics
    /// Never for scalar queries (the samples were validated at
    /// construction); multivariate queries have no z-normalized form
    /// and panic by contract.
    pub fn znormalized(self: &Arc<Self>) -> Arc<QueryRef> {
        assert_eq!(self.channels, 1, "z-normalization is scalar-only");
        Arc::clone(self.znormalized.get_or_init(|| {
            let z = crate::znorm::znormalize(&self.samples)
                .expect("samples were validated at construction");
            Arc::new(QueryRef::with_hash(content_hash(&z, 1), z, 1))
        }))
    }

    /// Content equality (used to guard against hash collisions when
    /// interning).
    fn same_content(&self, samples: &[f64], channels: usize) -> bool {
        self.channels == channels
            && self
                .samples
                .iter()
                .map(|s| s.to_bits())
                .eq(samples.iter().map(|s| s.to_bits()))
    }
}

impl MemoryUse for QueryRef {
    fn bytes_used(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<f64>()
            + self
                .znormalized
                .get()
                .map_or(0, |z| z.bytes_used() + std::mem::size_of::<QueryRef>())
    }
}

/// An interning table of shared queries.
///
/// `intern` deduplicates by content hash: attaching the same pattern to
/// 64 streams allocates its samples exactly once.
/// The arena hands out [`Arc<QueryRef>`] clones; entries stay resident
/// until [`QueryArena::gc`] removes the ones no monitor references any
/// more. All methods take `&self` (the table is internally locked), so
/// one arena can be shared across engine, runner workers, and serve
/// connections via `Arc<QueryArena>`.
#[derive(Debug, Default)]
pub struct QueryArena {
    entries: Mutex<HashMap<u64, Arc<QueryRef>>>,
}

impl QueryArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a scalar pattern, returning the canonical shared entry.
    ///
    /// # Errors
    /// Rejects empty or non-finite patterns.
    pub fn intern(&self, samples: &[f64]) -> Result<Arc<QueryRef>, SpringError> {
        self.intern_rows(samples, 1)
    }

    /// Interns a pattern flattened row-major, `channels` per tick. The
    /// samples are hashed and compared where they lie and copied only
    /// when no entry holds them yet, so a cache hit allocates nothing.
    ///
    /// # Errors
    /// Rejects zero channels, a sample count that is not a multiple of
    /// `channels`, and empty or non-finite patterns.
    pub fn intern_rows(
        &self,
        samples: &[f64],
        channels: usize,
    ) -> Result<Arc<QueryRef>, SpringError> {
        check_rows(samples, channels)?;
        let hash = content_hash(samples, channels);
        let mut entries = self.entries.lock().expect("arena lock poisoned");
        if let Some(existing) = entries.get(&hash) {
            if existing.same_content(samples, channels) {
                return Ok(Arc::clone(existing));
            }
        }
        let entry = Arc::new(QueryRef::with_hash(hash, samples.to_vec(), channels));
        // On a 64-bit hash collision between distinct patterns the table
        // keeps its entry and this one stays private rather than aliasing.
        entries.entry(hash).or_insert_with(|| Arc::clone(&entry));
        Ok(entry)
    }

    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("arena lock poisoned").len()
    }

    /// True when nothing has been interned (or everything was GC'd).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total shared cells currently resident across all entries (the
    /// `queries × m` term of the fleet memory bound), in `f64` units.
    pub fn resident_cells(&self) -> usize {
        self.entries
            .lock()
            .expect("arena lock poisoned")
            .values()
            .map(|q| q.cells())
            .sum()
    }

    /// Drops entries no monitor references any more (the arena holds
    /// the only `Arc`). Returns how many entries were released.
    pub fn gc(&self) -> usize {
        let mut entries = self.entries.lock().expect("arena lock poisoned");
        let before = entries.len();
        entries.retain(|_, q| Arc::strong_count(q) > 1);
        before - entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_the_same_pattern_yields_the_same_entry() {
        let arena = QueryArena::new();
        let a = arena.intern(&[1.0, 2.0, 3.0]).unwrap();
        let b = arena.intern(&[1.0, 2.0, 3.0]).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(arena.len(), 1);
        let c = arena.intern(&[1.0, 2.0, 4.0]).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn stats_match_the_znorm_definitions() {
        let q = QueryRef::flat(&[1.0, 2.0, 3.0], 1).unwrap();
        assert!((q.mean() - 2.0).abs() < 1e-12);
        assert!((q.std() - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn znormalized_variant_is_cached_and_matches_znormalize() {
        let q = QueryRef::flat(&[1.0, 5.0, 3.0], 1).unwrap();
        let z1 = q.znormalized();
        let z2 = q.znormalized();
        assert!(Arc::ptr_eq(&z1, &z2));
        let expect = crate::znorm::znormalize(&[1.0, 5.0, 3.0]).unwrap();
        assert_eq!(z1.samples(), expect.as_slice());
    }

    #[test]
    fn vector_queries_flatten_row_major() {
        let q = QueryRef::flat(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(q.samples(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(q.channels(), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.cells(), 4);
        let arena = QueryArena::new();
        let a = arena.intern_rows(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        let b = arena.intern_rows(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(
            &a,
            &arena.intern(&[1.0, 2.0, 3.0, 4.0]).unwrap()
        ));
    }

    #[test]
    fn fingerprints_separate_flat_shape_from_channel_shape() {
        // Same flattened samples, different channel structure.
        let flat = QueryRef::flat(&[1.0, 2.0, 3.0, 4.0], 1).unwrap();
        let wide = QueryRef::flat(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_ne!(flat.fingerprint(), wide.fingerprint());
    }

    #[test]
    fn invalid_patterns_are_rejected() {
        let arena = QueryArena::new();
        assert!(arena.intern(&[]).is_err());
        assert!(arena.intern(&[f64::NAN]).is_err());
        assert!(arena.intern_rows(&[1.0, 2.0, 3.0], 2).is_err());
        assert!(arena.intern_rows(&[1.0], 0).is_err());
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn gc_drops_only_unreferenced_entries() {
        let arena = QueryArena::new();
        let keep = arena.intern(&[1.0, 2.0]).unwrap();
        let _drop = arena.intern(&[3.0, 4.0]).unwrap();
        drop(_drop);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.gc(), 1);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.resident_cells(), keep.cells());
    }
}
