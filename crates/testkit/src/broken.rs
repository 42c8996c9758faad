//! A deliberately faulty monitor, used to prove the differential oracle
//! has teeth: if the harness cannot catch *this*, it cannot catch a real
//! regression either.

use spring_core::monitor::{Monitor, MonitorVariant};
use spring_core::{Match, Spring, SpringConfig, SpringError};
use spring_dtw::Kernel;

/// A [`Spring`] wrapper that silently **drops every second match** — the
/// canonical false dismissal. Everything else (distances, memory
/// accounting, reset) is delegated unchanged, so only the differential
/// oracle's no-false-dismissal check can tell it apart from the real
/// thing.
#[derive(Debug, Clone)]
pub struct BrokenSpring {
    inner: Spring<Kernel>,
    reported: u64,
}

impl BrokenSpring {
    /// A broken monitor over `query` with threshold `epsilon`.
    pub fn new(query: &[f64], epsilon: f64) -> Result<Self, SpringError> {
        Ok(BrokenSpring {
            inner: Spring::with_kernel(query, SpringConfig::new(epsilon), Kernel::Squared)?,
            reported: 0,
        })
    }

    fn censor(&mut self, m: Option<Match>) -> Option<Match> {
        let m = m?;
        self.reported += 1;
        if self.reported.is_multiple_of(2) {
            None // the bug: every second match vanishes
        } else {
            Some(m)
        }
    }
}

impl Monitor for BrokenSpring {
    type Sample = f64;

    fn variant(&self) -> MonitorVariant {
        self.inner.variant()
    }

    fn step(&mut self, sample: &f64) -> Result<Option<Match>, SpringError> {
        let m = Monitor::step(&mut self.inner, sample)?;
        Ok(self.censor(m))
    }

    fn finish(&mut self) -> Option<Match> {
        let m = Monitor::finish(&mut self.inner);
        self.censor(m)
    }

    fn query_len(&self) -> usize {
        self.inner.query_len()
    }

    fn epsilon(&self) -> Option<f64> {
        Monitor::epsilon(&self.inner)
    }

    fn tick(&self) -> u64 {
        Monitor::tick(&self.inner)
    }

    fn memory_use(&self) -> usize {
        self.inner.memory_use()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.reported = 0;
    }
}
