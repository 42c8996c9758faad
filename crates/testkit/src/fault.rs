//! Fault-injection conformance: the differential harness under
//! deterministic faults (requires the `failpoints` feature, which
//! forwards `spring-monitor/failpoints`).
//!
//! The guarantee under test is the supervisor's: a worker lost to a
//! panic is restarted from its last checkpoint and the replay redelivers
//! every match, so the *set* of matches equals the fault-free run.
//! Delivery across a restart is at-least-once (a match delivered just
//! before the panic is redelivered by the replay), so comparisons are on
//! deduplicated, order-normalized sets.

use spring_core::monitor::MonitorSpec;
use spring_core::Match;
use spring_monitor::failpoints::{self, FailAction, FailRule};

use crate::differential::{run_runner, run_runner_swapped};
use crate::scenario::Scenario;

/// One deterministic fault to inject into a runner run.
#[derive(Debug, Clone, Copy)]
pub enum FaultPlan {
    /// Panic a worker inside its receive loop after `after` received
    /// messages (site `runner::worker::recv`).
    WorkerPanic {
        /// Messages received across workers before the panic fires.
        after: u64,
    },
    /// Panic a worker at a frame boundary — after `after` frames have
    /// been received but before the next frame's samples are ingested
    /// (site `runner::worker::frame`). Exercises the batched ingestion
    /// path: the whole in-flight frame must come back via the replay.
    FramePanic {
        /// Frames received across workers before the panic fires.
        after: u64,
    },
    /// Panic inside the sink after `after` deliveries (site
    /// `runner::sink`) — the match in flight is *not* delivered and must
    /// be recovered by the replay.
    SinkPanic {
        /// Deliveries across workers before the panic fires.
        after: u64,
    },
    /// Stall the sink for `ms` milliseconds on every delivery (site
    /// `runner::sink`), backing the bounded queues up.
    SlowSink {
        /// Delay per delivery, in milliseconds.
        ms: u64,
    },
}

impl FaultPlan {
    fn arm(self) {
        match self {
            FaultPlan::WorkerPanic { after } => failpoints::configure(
                "runner::worker::recv",
                FailRule::new(FailAction::Panic).after(after).times(1),
            ),
            FaultPlan::FramePanic { after } => failpoints::configure(
                "runner::worker::frame",
                FailRule::new(FailAction::Panic).after(after).times(1),
            ),
            FaultPlan::SinkPanic { after } => failpoints::configure(
                "runner::sink",
                FailRule::new(FailAction::Panic).after(after).times(1),
            ),
            FaultPlan::SlowSink { ms } => {
                failpoints::configure("runner::sink", FailRule::new(FailAction::Delay(ms)))
            }
        }
    }
}

fn normalize(mut per: Vec<Vec<Match>>) -> Vec<Vec<(u64, u64, u64)>> {
    per.iter_mut()
        .map(|ms| {
            let mut keys: Vec<(u64, u64, u64)> = ms
                .iter()
                .map(|m| (m.start, m.end, m.distance.to_bits()))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        })
        .collect()
}

/// Runs the scenario's plain-SPRING spec through a 2-worker
/// [`run_runner`] (three streams, frame size `batch`) with `fault`
/// armed, and checks the deduplicated match set of every (stream,
/// attachment) slot equals the fault-free run's. The failpoint fires in
/// whichever worker hits the site first, so that worker's supervisor
/// alone must recover while the other keeps streaming.
///
/// Uses the global failpoint registry: hold
/// [`failpoints::exclusive`] around calls in multi-test binaries.
pub fn verify_under_fault_with(
    sc: &Scenario,
    fault: FaultPlan,
    batch: usize,
) -> Result<(), String> {
    let spec = MonitorSpec::Spring {
        epsilon: sc.epsilon,
    };
    failpoints::clear();
    let clean =
        run_runner(sc, spec, 2, batch).map_err(|e| format!("fault-free run failed: {e}"))?;
    fault.arm();
    let faulted = run_runner(sc, spec, 2, batch);
    failpoints::clear();
    let faulted = faulted.map_err(|e| format!("faulted run failed: {e} ({fault:?})"))?;
    let (clean, faulted) = (normalize(clean), normalize(faulted));
    if clean != faulted {
        return Err(format!(
            "match sets diverge under {fault:?}\n  fault-free: {clean:?}\n  faulted:    {faulted:?}"
        ));
    }
    Ok(())
}

/// [`verify_under_fault_with`] at the default frame size.
pub fn verify_under_fault(sc: &Scenario, fault: FaultPlan) -> Result<(), String> {
    verify_under_fault_with(sc, fault, spring_monitor::DEFAULT_MAX_BATCH)
}

/// Fault conformance for the hot-swap path: runs
/// [`run_runner_swapped`] (2 workers, frame size `batch`, swap after
/// `swap_at` samples) with `fault` armed and demands the deduplicated
/// per-slot match sets equal the fault-free swapped run's.
///
/// Because the swap travels the logged control-message path, a worker
/// killed *after* the swap restarts from a checkpoint that either
/// already holds the post-swap monitor or replays the swap message
/// before the post-swap frames — either way the recovered match set is
/// the same. A mid-active-group checkpoint (candidate pending at swap
/// time) is covered by choosing `swap_at` inside a spike.
///
/// Uses the global failpoint registry: hold
/// [`failpoints::exclusive`] around calls in multi-test binaries.
pub fn verify_swap_under_fault(
    sc: &Scenario,
    new_query: &[f64],
    swap_at: usize,
    fault: FaultPlan,
    batch: usize,
) -> Result<(), String> {
    let spec = MonitorSpec::Spring {
        epsilon: sc.epsilon,
    };
    failpoints::clear();
    let clean = run_runner_swapped(sc, spec, new_query, swap_at, 2, batch)
        .map_err(|e| format!("fault-free swapped run failed: {e}"))?;
    fault.arm();
    let faulted = run_runner_swapped(sc, spec, new_query, swap_at, 2, batch);
    failpoints::clear();
    let faulted = faulted.map_err(|e| format!("faulted swapped run failed: {e} ({fault:?})"))?;
    let (clean, faulted) = (normalize(clean), normalize(faulted));
    if clean != faulted {
        return Err(format!(
            "swapped match sets diverge under {fault:?}\n  fault-free: {clean:?}\n  faulted:    {faulted:?}"
        ));
    }
    Ok(())
}
