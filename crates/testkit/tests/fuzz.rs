//! The differential fuzzers behind `spring fuzz` and `spring fuzz
//! --swap`, run by the default test gate at a small fixed size.
//!
//! Both draw every scenario from one seed, so a run is reproducible.
//! The environment widens a run without editing the file:
//!
//! * `SPRING_FUZZ_SEED` — the seed (default `DEFAULT_FUZZ_SEED`);
//! * `SPRING_FUZZ_ITERS` — scenarios of the plain differential;
//! * `SPRING_FUZZ_SWAP_ITERS` — scenarios of the hot-swap differential.
//!
//! ```text
//! SPRING_FUZZ_ITERS=500 SPRING_FUZZ_SWAP_ITERS=500 \
//!     cargo test --release -p spring-testkit --test fuzz
//! ```

use spring_testkit::differential::{fuzz, fuzz_swaps, DEFAULT_FUZZ_SEED};

/// Plain differential scenarios per default run.
const ITERS: u64 = 40;
/// Hot-swap scenarios per default run.
const SWAP_ITERS: u64 = 100;

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be an integer, got {v:?}")),
        Err(_) => default,
    }
}

#[test]
fn differential_fuzz_finds_no_mismatch() {
    let seed = env_u64("SPRING_FUZZ_SEED", DEFAULT_FUZZ_SEED);
    let iters = env_u64("SPRING_FUZZ_ITERS", ITERS);
    if let Err(failure) = fuzz(seed, iters) {
        panic!("{failure}");
    }
}

#[test]
fn swap_fuzz_finds_no_mismatch() {
    let seed = env_u64("SPRING_FUZZ_SEED", DEFAULT_FUZZ_SEED);
    let iters = env_u64("SPRING_FUZZ_SWAP_ITERS", SWAP_ITERS);
    if let Err(message) = fuzz_swaps(seed, iters) {
        panic!("{message}");
    }
}
