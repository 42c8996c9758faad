//! Counting-allocator proof of the shared-arena memory contract
//! (attaching one query to a fleet must allocate the pattern exactly
//! once, fleet-wide).
//!
//! The test wraps the system allocator with a counter keyed on the
//! *exact* byte size of an `m = 256` pattern (`256 × 8 = 2048` bytes):
//! interning the pattern into a [`QueryArena`] performs exactly one
//! such allocation (the samples), and constructing
//! 64 monitors over the interned [`QueryRef`] performs **zero** — the
//! per-attachment DP columns are `(m + 1) × 8 = 2056` bytes, so a
//! regression that re-clones the pattern per attachment trips the
//! counter immediately.
//!
//! This file is its own test binary with a single test, so no
//! concurrent test thread can perturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use spring_core::monitor::Monitor;
use spring_core::{QueryArena, Spring, SpringConfig};
use spring_dtw::Squared;

/// Pattern length under test; chosen so the pattern's byte size is
/// unambiguous (2048 bytes ≠ the 2056-byte DP column of the same m).
const M: usize = 256;
const PATTERN_BYTES: usize = M * std::mem::size_of::<f64>();
const FLEET: usize = 64;

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static PATTERN_SIZED_ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) && layout.size() == PATTERN_BYTES {
            PATTERN_SIZED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) && new_size == PATTERN_BYTES {
            PATTERN_SIZED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn pattern_sized_allocs_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PATTERN_SIZED_ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (out, PATTERN_SIZED_ALLOCS.load(Ordering::SeqCst))
}

#[test]
fn fleet_attachments_share_one_pattern_allocation() {
    let pattern: Vec<f64> = (0..M).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
    let arena = QueryArena::new();

    // Interning clones the pattern once: exactly one pattern-sized
    // allocation.
    let (query, during_intern) = pattern_sized_allocs_during(|| arena.intern(&pattern).unwrap());
    assert_eq!(
        during_intern, 1,
        "intern must allocate the pattern exactly once"
    );

    // A whole fleet of monitors over the interned entry allocates DP
    // state only — never another copy of the pattern.
    let (mut fleet, during_build) = pattern_sized_allocs_during(|| {
        (0..FLEET)
            .map(|_| {
                Spring::with_query_ref(Arc::clone(&query), SpringConfig::new(0.5), Squared).unwrap()
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(fleet.len(), FLEET);
    assert_eq!(
        during_build, 0,
        "constructing {FLEET} shared monitors must not re-allocate the pattern"
    );
    for monitor in &fleet {
        assert!(Arc::ptr_eq(monitor.query_ref(), &query));
    }

    // Streaming doesn't either (rolling columns are preallocated).
    let (matches, during_stream) = pattern_sized_allocs_during(|| {
        let mut n = 0usize;
        for monitor in &mut fleet {
            for x in &pattern {
                if Monitor::step(monitor, x).unwrap().is_some() {
                    n += 1;
                }
            }
            // The optimal candidate is only provably final at stream
            // end; `finish` flushes it (allocating a tiny match vec,
            // never a pattern-sized buffer).
            n += usize::from(monitor.finish().is_some());
        }
        n
    });
    assert_eq!(
        matches, FLEET,
        "each shared monitor matches its own pattern"
    );
    assert_eq!(
        during_stream, 0,
        "steady-state streaming must not allocate pattern-sized buffers"
    );

    // Interning the same pattern again is a pure cache hit.
    let (again, during_rehit) = pattern_sized_allocs_during(|| arena.intern(&pattern).unwrap());
    assert!(Arc::ptr_eq(&again, &query));
    assert_eq!(during_rehit, 0, "re-interning must dedup, not clone");
}
