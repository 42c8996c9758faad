//! The fan-out fixture of the `batch_ingest` and `metrics_overhead`
//! benches: one stream with `queries` attachments of m = [`M`], each
//! query in its own value band, and a stream of noise far above every
//! query with a copy of one query planted every [`PLANT_EVERY`]
//! samples, ingested through `Engine::push_batch` in [`FRAME`]-sample
//! frames.
//!
//! It prices idle overhead only. At ε = [`EPSILON`] and one plant per
//! [`PLANT_EVERY`] samples, nearly every (attachment, frame) pair is
//! proven idle, so the fixture times the per-frame and per-attachment
//! costs around the kernel. springbench's `fanout_q32` is not shaped
//! like it: there ε = 16 and a plant lands every 256 samples, and the
//! column fills around each plant take most of its engine time.

use std::sync::Arc;

use spring_monitor::{GapPolicy, Metrics, SpringEngine, StreamId};
use spring_util::Rng;

/// Query length.
pub const M: usize = 64;
/// Samples per `push_batch` frame.
pub const FRAME: usize = 64;
/// Samples between the starts of two planted copies.
pub const PLANT_EVERY: usize = 1024;
/// Threshold of every attachment: a planted copy (distance 0) matches.
pub const EPSILON: f64 = 1.0;

/// Query `k`: a smooth sinusoid in the band `[8k − 2, 8k + 2]`.
pub fn query(k: usize) -> Vec<f64> {
    (0..M)
        .map(|i| {
            let x = std::f64::consts::TAU * i as f64 / M as f64;
            8.0 * k as f64 + 1.5 * (x + k as f64).sin() + 0.5 * (3.0 * x).sin()
        })
        .collect()
}

/// `frames` frames of the stream: Gaussian noise (σ = 1) around 500,
/// with query `j mod queries` planted at the start of the `j`-th
/// [`PLANT_EVERY`]-sample block.
pub fn stream(frames: usize, queries: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(0xFA40_0032);
    let mut xs: Vec<f64> = (0..frames * FRAME).map(|_| 500.0 + rng.normal()).collect();
    for (j, start) in (0..xs.len().saturating_sub(M))
        .step_by(PLANT_EVERY)
        .enumerate()
    {
        xs[start..start + M].copy_from_slice(&query(j % queries));
    }
    xs
}

/// The engine with queries `0 .. queries` attached to one stream,
/// recording into `metrics` when given.
pub fn engine(metrics: Option<Arc<Metrics>>, queries: usize) -> (SpringEngine, StreamId) {
    let mut engine = SpringEngine::new();
    if let Some(metrics) = metrics {
        engine.set_metrics(metrics);
    }
    let stream = engine.add_stream("fanout");
    for k in 0..queries {
        let q = engine.add_query(format!("q{k}"), query(k)).unwrap();
        engine.attach(stream, q, EPSILON, GapPolicy::Skip).unwrap();
    }
    (engine, stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_planted_copy_matches_its_own_query_only() {
        let queries = 32;
        let (mut engine, s) = engine(Some(Arc::new(Metrics::new())), queries);
        let xs = stream(64, queries);
        let mut events = Vec::new();
        for frame in xs.chunks(FRAME) {
            engine.push_batch(s, frame, &mut events).unwrap();
        }
        let planted = xs.len().div_ceil(PLANT_EVERY);
        assert_eq!(events.len(), planted);
        for (j, ev) in events.iter().enumerate() {
            assert_eq!(ev.query.0 as usize, j % queries);
            assert_eq!(ev.m.distance, 0.0);
        }
    }
}
