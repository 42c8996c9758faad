//! Multi-query fleet attach (DESIGN.md §6i): the cost of standing up a
//! monitoring fleet when `Q` interned queries fan out across `S`
//! streams — every (stream, query) pair gets its own attachment built
//! from the shared [`QueryRef`], so the timed region is exactly the
//! arena borrow path: per-attachment DP state is allocated, the pattern
//! is not.
//!
//! Reported per configuration:
//!
//! * attach latency — seconds per attachment (the `elems` column), for
//!   queries {1, 16, 256} × streams {1, 64};
//! * resident memory-cells — an untimed info line comparing the
//!   arena-backed fleet (shared cells counted once per distinct query
//!   fingerprint) against the pre-arena layout that cloned the pattern
//!   into every attachment.
//!
//! `ci.sh --quick` captures the timing results in BENCH_SMOKE.json and
//! warns when they regress >25% against the committed baseline.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

use spring_bench::harness::Bench;
use spring_core::monitor::Monitor;
use spring_core::{QueryArena, QueryRef, Spring, SpringConfig};
use spring_data::util::sine;
use spring_dtw::Squared;

/// Pattern length: matches the counting-allocator test in
/// `spring-core/tests/alloc_share.rs`, where the shared-allocation
/// contract is proven exactly.
const M: usize = 256;
const QUERIES: [usize; 3] = [1, 16, 256];
const STREAMS: [usize; 2] = [1, 64];

/// `Q` distinct patterns interned into one arena (phase-shifted sines,
/// so no two dedup onto the same entry).
fn intern_fleet(arena: &QueryArena, queries: usize) -> Vec<Arc<QueryRef>> {
    (0..queries)
        .map(|q| {
            let pattern = sine(M, 12.0 + (q % 7) as f64, 1.0, q as f64 * 0.013);
            arena.intern(&pattern).expect("valid query")
        })
        .collect()
}

/// Builds the full fleet: one monitor per (stream, query) pair, all
/// borrowing from the interned refs.
fn attach_all(refs: &[Arc<QueryRef>], streams: usize) -> Vec<Spring> {
    let mut fleet = Vec::with_capacity(refs.len() * streams);
    for _ in 0..streams {
        for query in refs {
            fleet.push(
                Spring::with_query_ref(Arc::clone(query), SpringConfig::new(0.5), Squared)
                    .expect("valid query"),
            );
        }
    }
    fleet
}

fn main() {
    let b = Bench::new("multi_query_attach");
    for queries in QUERIES {
        let arena = QueryArena::new();
        let refs = intern_fleet(&arena, queries);
        assert_eq!(arena.len(), queries, "distinct patterns must not dedup");
        for streams in STREAMS {
            let attachments = (queries * streams) as u64;
            b.bench_elems(&format!("q{queries}/s{streams}"), attachments, || {
                black_box(attach_all(&refs, streams));
            });

            // Untimed memory accounting: shared cells once per distinct
            // fingerprint + per-attachment DP cells, vs the pre-arena
            // layout where every attachment owned the pattern.
            let fleet = attach_all(&refs, streams);
            let mut seen = HashSet::new();
            let mut shared = 0usize;
            let mut per_attachment = 0usize;
            for monitor in &fleet {
                if seen.insert(monitor.query_fingerprint().expect("arena-backed")) {
                    shared += monitor.shared_memory_cells();
                }
                per_attachment += Monitor::memory_cells(monitor);
            }
            let naive = per_attachment + fleet.len() * M;
            println!(
                "  q{queries}/s{streams}: resident {} cells \
                 (shared {shared} + per-attachment {per_attachment}); \
                 pre-arena layout {naive} cells",
                shared + per_attachment
            );
        }
    }
}
