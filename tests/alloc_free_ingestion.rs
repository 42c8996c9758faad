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
//! This file intentionally contains a single `#[test]`: a second test
//! running concurrently in the same binary would allocate on another
//! thread and poison the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spring_monitor::{Event, GapPolicy, SpringEngine, VectorEngine};

/// Counts every allocation routed through the global allocator.
struct CountingAlloc {
    allocs: AtomicU64,
}

// SAFETY: defers every operation to `System`, only adding a relaxed
// atomic increment on the allocating entry points.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
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

fn allocations() -> u64 {
    ALLOC.allocs.load(Ordering::Relaxed)
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
        let before = allocations();
        for _ in 0..64 {
            refill(&mut samples);
            out.clear();
            engine.push_batch(stream, &samples, &mut out).unwrap();
        }
        batched = allocations() - before;
    }
    assert_eq!(
        batched, 0,
        "Engine::push_batch allocated {batched} times over 64 steady-state frames"
    );

    // Steady state, per-sample path: the returned `Vec` stays empty
    // (`Vec::new` is allocation-free) and the one-sample frame's slot is
    // reused.
    let mut per_sample = u64::MAX;
    for _pass in 0..2 {
        let before = allocations();
        for _ in 0..256 {
            let events = engine.push(stream, &0.25).unwrap();
            assert!(events.is_empty());
        }
        per_sample = allocations() - before;
    }
    assert_eq!(
        per_sample, 0,
        "Engine::push allocated {per_sample} times over 256 steady-state ticks"
    );
    // Steady state, vector pushes: the one-sample frame's slot keeps its
    // `Vec`, so copying each row into it allocates nothing.
    let mut vectors = VectorEngine::new();
    let feed = vectors.add_channel_stream("feed", 2);
    let blip = vec![vec![0.0, 0.0], vec![5.0, -5.0], vec![0.0, 0.0]];
    let q = vectors.add_query("blip", blip).unwrap();
    vectors.attach(feed, q, 1e-6, GapPolicy::Skip).unwrap();
    let mut vector_pushes = u64::MAX;
    for _pass in 0..2 {
        let before = allocations();
        for t in 0..256 {
            let row = [(t as f64 * 0.05).sin() + 40.0, 40.0];
            assert!(vectors.push(feed, &row[..]).unwrap().is_empty());
        }
        vector_pushes = allocations() - before;
    }
    assert_eq!(
        vector_pushes, 0,
        "VectorEngine::push allocated {vector_pushes} times over 256 steady-state rows"
    );
}
