//! Steady-state ingestion must be allocation-free (PR 4 acceptance
//! criterion): once an `Engine` and its caller-owned buffers are warmed
//! up, neither `Engine::push` nor `Engine::push_batch` may touch the
//! heap on the hot path, on scalar or vector streams.
//!
//! The test swaps in a counting `#[global_allocator]` shim (this
//! integration-test binary is its own crate, so the umbrella library's
//! `#![forbid(unsafe_code)]` is unaffected) and asserts a zero
//! allocation delta across thousands of steady-state ticks.
//!
//! Only the allocations of the thread that drives the engine count, and
//! only inside a measured window ([`measure`]): the test harness's own
//! threads (libtest's main thread keeps books while the test runs) can
//! allocate at any time without failing the test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use spring_monitor::{Event, GapPolicy, SpringEngine, VectorEngine};

thread_local! {
    /// Set on the measuring thread for the length of a measured window.
    /// `const`-initialized and without a destructor, so reading it from
    /// inside the allocator never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Counts the allocations the measuring thread makes while
/// [`MEASURING`] is set.
struct CountingAlloc {
    allocs: AtomicU64,
}

impl CountingAlloc {
    fn count(&self) {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: defers every operation to `System`, only adding a
// thread-local read and a relaxed atomic increment on the allocating
// entry points.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    allocs: AtomicU64::new(0),
};

/// The allocations this thread makes while running `f`.
fn measure(f: impl FnOnce()) -> u64 {
    let before = ALLOC.allocs.load(Ordering::Relaxed);
    MEASURING.set(true);
    f();
    MEASURING.set(false);
    ALLOC.allocs.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_push_and_push_batch_do_not_allocate() {
    // One stream, several queries — the multi-attachment fanout the
    // paper motivates, with a threshold low enough that the quiet sine
    // stream never confirms a match (match reporting legitimately
    // pushes into the event buffer; steady state is the no-match case).
    let mut engine = SpringEngine::new();
    let stream = engine.add_stream("s");
    for k in 0..3 {
        let pattern: Vec<f64> = (0..32)
            .map(|i| ((i + k) as f64 * 0.4).sin() * 10.0)
            .collect();
        let q = engine.add_query(format!("q{k}"), pattern).unwrap();
        engine.attach(stream, q, 1e-6, GapPolicy::Skip).unwrap();
    }

    const BATCH: usize = 64;
    let mut samples = vec![0.0f64; BATCH];
    let mut out: Vec<Event> = Vec::with_capacity(16);
    let mut t = 0u64;
    let mut refill = move |samples: &mut [f64]| {
        for s in samples.iter_mut() {
            *s = (t as f64 * 0.05).sin();
            t += 1;
        }
    };

    // Warm up: monitors allocate their DP columns at construction and
    // the first ticks may lazily size internal state.
    for _ in 0..8 {
        refill(&mut samples);
        out.clear();
        engine.push_batch(stream, &samples, &mut out).unwrap();
        assert!(out.is_empty(), "workload must stay match-free");
    }

    // A one-time lazy init anywhere in std can allocate on the first
    // measured pass; each section measures two passes and asserts on
    // the second, where only genuinely per-tick allocations remain.

    // Steady state, batched path: zero per-tick heap allocations.
    let mut batched = u64::MAX;
    for _pass in 0..2 {
        batched = measure(|| {
            for _ in 0..64 {
                refill(&mut samples);
                out.clear();
                engine.push_batch(stream, &samples, &mut out).unwrap();
            }
        });
    }
    assert_eq!(
        batched, 0,
        "Engine::push_batch allocated {batched} times over 64 steady-state frames"
    );

    // Steady state, per-sample path: the returned `Vec` stays empty
    // (`Vec::new` is allocation-free) and the sample is its own
    // one-sample frame.
    let mut per_sample = u64::MAX;
    for _pass in 0..2 {
        per_sample = measure(|| {
            for _ in 0..256 {
                let events = engine.push(stream, &0.25).unwrap();
                assert!(events.is_empty());
            }
        });
    }
    assert_eq!(
        per_sample, 0,
        "Engine::push allocated {per_sample} times over 256 steady-state ticks"
    );
    // Steady state, vector pushes: a row is its own one-row frame.
    let mut vectors = VectorEngine::new();
    let feed = vectors.add_channel_stream("feed", 2);
    let blip = vec![vec![0.0, 0.0], vec![5.0, -5.0], vec![0.0, 0.0]];
    let q = vectors.add_query("blip", blip).unwrap();
    vectors.attach(feed, q, 1e-6, GapPolicy::Skip).unwrap();
    let mut vector_pushes = u64::MAX;
    for _pass in 0..2 {
        vector_pushes = measure(|| {
            for t in 0..256 {
                let row = [(t as f64 * 0.05).sin() + 40.0, 40.0];
                assert!(vectors.push(feed, &row[..]).unwrap().is_empty());
            }
        });
    }
    assert_eq!(
        vector_pushes, 0,
        "VectorEngine::push allocated {vector_pushes} times over 256 steady-state rows"
    );
    // Steady state, vector frames: flat rows go to the monitors as they
    // lie, 64 rows a frame.
    let rows: Vec<f64> = (0..256)
        .flat_map(|t| [(t as f64 * 0.05).sin() + 40.0, 40.0])
        .collect();
    let mut out: Vec<Event> = Vec::with_capacity(16);
    let mut vector_frames = u64::MAX;
    for _pass in 0..2 {
        vector_frames = measure(|| {
            for frame in rows.chunks(2 * 64) {
                vectors.push_batch(feed, frame, &mut out).unwrap();
            }
        });
    }
    assert!(out.is_empty());
    assert_eq!(
        vector_frames, 0,
        "VectorEngine::push_batch allocated {vector_frames} times over 256 steady-state rows"
    );
}
