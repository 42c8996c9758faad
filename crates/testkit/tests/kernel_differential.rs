//! Differential suite for the SoA STWM kernel (DESIGN.md §6g).
//!
//! Pins the reduction-order contract: the ε-banded column kernel, per
//! sample (`Spring::step`) and batched (`Monitor::step_batch`), must
//! report exactly the matches of the scalar Eq. (7)/(8) reference, and
//! keep columns **ε-equivalent** to it: every cell at or below ε is
//! bit-identical (`f64::to_bits`) in distance and start, and every other
//! cell is above ε on both sides. This holds across the generated
//! scenario grid — NaN-gap bursts, plateaus, coarse tie grids, `ε = 0`
//! thresholds and full-band ones. On x86-64 this exercises the explicit
//! SSE2/AVX2 lanes the CPU reports; elsewhere, the portable ones
//! (pinned on x86-64 too by the kernel's own unit tests, which also
//! hold the unbanded kernel to strict bit-exactness).
//!
//! A second grid of serving-shaped streams — a random walk far from the
//! query with warped copies planted after long idle stretches — holds
//! the idle skip (an empty band costs one distance per tick) to the same
//! contract on every stepping path, after every batch.
//!
//! A third grid runs many attachments on one stream through
//! `Engine::push_batch` and a two-worker `Runner`, where the frame scan
//! lets the idle skip prove a whole chunk idle from the chunk's range
//! and one distance, and a whole frame from the frame's range:
//! events, per-attachment ticks and ε-equivalent
//! columns must equal each attachment stepped alone with `step_batch`,
//! across chunk ends equal to `y_1`, ±0.0, magnitudes where the squared
//! distance overflows, both kernels, frames that are not whole chunks,
//! and a missing sample at every offset of a frame under every gap
//! policy. Hand-built frames pin the edges of the whole-frame proof.
//!
//! Vector rows: the scenario grid copied into two identical channels
//! must give `VectorSpring` at 2ε, bare and through the engine, exactly
//! the scalar matches at ε with the distance doubled.
//!
//! `BestMatch` (Problem 1) bands its matrix at its best distance so far;
//! over both grids its answer must stay bit-identical to an unbanded
//! matrix's on every stepping path.
//!
//! Also covers checkpoint cross-compatibility: a snapshot written by a
//! reference-stepped monitor restores into the batch path (and vice
//! versa) with ε-equivalent columns afterwards, so mixed-version
//! runner fleets can hand checkpoints across the kernel boundary.

use std::sync::Arc;

use spring_core::monitor::{Monitor, MonitorVariant};
use spring_core::types::Match;
use spring_core::{BestMatch, Spring, SpringConfig, SpringSnapshot, Stwm, VectorSpring};
use spring_dtw::kernels::DistanceKernel;
use spring_dtw::Kernel;
use spring_monitor::{
    AttachmentId, Event, GapPolicy, Metrics, MonitorError, QueryId, Runner, RunnerAttachment,
    SpringEngine, StreamId, VecSink, VectorEngine,
};
use spring_testkit::Scenario;
use spring_util::Rng;

/// Scenarios each differential test must process (the ISSUE floor is
/// 500; a little headroom keeps the guarantee under future edits).
const SCENARIOS: usize = 600;

/// Exact (bit-level) report comparison. `Debug` for f64 prints the
/// shortest round-trip form, which is injective on non-NaN values, so
/// comparing the rendered matches compares every field exactly.
fn render(matches: &[Match]) -> Vec<String> {
    matches.iter().map(|m| format!("{m:?}")).collect()
}

/// ε-equivalence of the two monitors' current columns: a cell at or
/// below ε on either side has the same bits and start on both.
fn assert_columns_match<K: DistanceKernel>(reference: &Spring<K>, other: &Spring<K>, ctx: &str) {
    let eps = reference.epsilon();
    let (rd, rs) = (reference.stwm().distances(), reference.stwm().starts());
    let (od, os) = (other.stwm().distances(), other.stwm().starts());
    assert_eq!(rd.len(), od.len(), "{ctx}: column lengths");
    for i in 0..rd.len() {
        if rd[i] <= eps || od[i] <= eps {
            assert_eq!(
                (rd[i].to_bits(), rs[i]),
                (od[i].to_bits(), os[i]),
                "{ctx}: row {i} diverged from the scalar reference at or below eps"
            );
        }
    }
}

/// The two-phase column kernel against the scalar reference, compared
/// after every single tick.
#[test]
fn kernel_step_is_bit_exact_with_reference_across_the_scenario_grid() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0001);
    let mut done = 0;
    while done < SCENARIOS {
        let sc = Scenario::generate(&mut rng);
        let stream = sc.effective_stream();
        if stream.is_empty() {
            continue;
        }
        done += 1;
        let config = SpringConfig::new(sc.epsilon);
        let mut reference = Spring::new(&sc.query, config).unwrap();
        let mut kernel = Spring::new(&sc.query, config).unwrap();
        for (i, &x) in stream.iter().enumerate() {
            let ctx = format!("scenario {done} tick {} ({sc:?})", i + 1);
            let want = reference.step_reference(x);
            let got = kernel.step(x);
            assert_eq!(
                format!("{want:?}"),
                format!("{got:?}"),
                "{ctx}: reports diverged"
            );
            assert_columns_match(&reference, &kernel, &ctx);
        }
    }
}

/// The batch path (`step_batch`, including invalidation on reports
/// mid-batch) against the scalar reference.
#[test]
fn frame_step_batch_is_bit_exact_with_reference_across_the_scenario_grid() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0002);
    let batches = [1usize, 2, 3, 5, 7, 8, 13, 64];
    let mut done = 0;
    while done < SCENARIOS {
        let sc = Scenario::generate(&mut rng);
        let stream = sc.effective_stream();
        if stream.is_empty() {
            continue;
        }
        let batch = batches[done % batches.len()];
        done += 1;
        let config = SpringConfig::new(sc.epsilon);
        let mut reference = Spring::new(&sc.query, config).unwrap();
        let mut want = Vec::new();
        for &x in &stream {
            want.extend(reference.step_reference(x));
        }
        let mut framed = Spring::new(&sc.query, config).unwrap();
        let mut got = Vec::new();
        for chunk in stream.chunks(batch) {
            Monitor::step_batch(&mut framed, chunk, &mut got).unwrap();
        }
        let ctx = format!("scenario {done} batch {batch} ({sc:?})");
        assert_eq!(render(&want), render(&got), "{ctx}: reports diverged");
        assert_columns_match(&reference, &framed, &ctx);
        assert_eq!(
            format!("{:?}", reference.pending()),
            format!("{:?}", framed.pending()),
            "{ctx}: pending candidate diverged"
        );
    }
}

/// Each scenario's stream and query copied into two identical channels.
/// Doubling is exact in binary floating point, so every cell, tie and
/// band top of the `k = 2` matrix is the scalar one × 2: `VectorSpring`
/// at 2ε, bare and through `VectorEngine` `push` / `push_batch`, must
/// report exactly the scalar matches at ε, with the distance doubled
/// bit for bit, under both kernels and the scenario's gap policy.
#[test]
fn two_identical_channels_report_the_scalar_matches_at_twice_the_distance() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0006);
    let twice = |xs: &[f64]| xs.iter().map(|&x| vec![x, x]).collect::<Vec<_>>();
    let mut done = 0;
    while done < SCENARIOS {
        let sc = Scenario::generate(&mut rng);
        let stream = sc.effective_stream();
        if stream.is_empty() {
            continue;
        }
        done += 1;
        let (query, eps) = (twice(&sc.query), 2.0 * sc.epsilon);
        for kernel in [Kernel::Squared, Kernel::Absolute] {
            let config = SpringConfig::new(sc.epsilon);
            let mut scalar = Spring::with_kernel(&sc.query, config, kernel).unwrap();
            let mut want: Vec<Match> = stream
                .iter()
                .filter_map(|&x| scalar.step_reference(x))
                .collect();
            want.extend(scalar.finish());
            for m in &mut want {
                m.distance *= 2.0;
            }
            let ctx = format!("scenario {done} {kernel:?} ({sc:?})");
            let mut bare = VectorSpring::with_kernel(&query, eps, kernel).unwrap();
            let mut got = Vec::new();
            for x in twice(&stream) {
                got.extend(bare.step(&x).unwrap());
            }
            got.extend(bare.finish());
            assert_eq!(render(&want), render(&got), "{ctx}: bare");
            for batch in [1usize, 3, 64] {
                let mut e = VectorEngine::new();
                let s = e.add_channel_stream("s", 2);
                let q = e.add_query("q", query.clone()).unwrap();
                e.attach_monitor(s, q, sc.gap_policy, move |rows| {
                    VectorSpring::with_kernel(rows, eps, kernel)
                })
                .unwrap();
                let mut events = Vec::new();
                for chunk in twice(&sc.stream).chunks(batch) {
                    match batch {
                        1 => events.extend(e.push(s, &chunk[0]).unwrap()),
                        _ => e.push_batch(s, chunk, &mut events).unwrap(),
                    }
                }
                events.extend(e.finish_stream(s).unwrap());
                let got: Vec<Match> = events.iter().map(|ev| ev.m).collect();
                assert_eq!(render(&want), render(&got), "{ctx} batch {batch}: engine");
            }
        }
    }
}

/// A smooth query of length `m` around `level`: two sinusoids.
fn smooth_query(rng: &mut Rng, m: usize, level: f64) -> Vec<f64> {
    let (a1, a2) = (rng.f64_range(1.0, 2.5), rng.f64_range(0.2, 1.0));
    let (f1, f2) = (rng.f64_range(0.5, 1.5), rng.f64_range(2.0, 4.0));
    let phase = rng.f64_range(0.0, std::f64::consts::TAU);
    (0..m)
        .map(|i| {
            let x = std::f64::consts::TAU * i as f64 / m as f64;
            level + a1 * (f1 * x + phase).sin() + a2 * (f2 * x).sin()
        })
        .collect()
}

/// A time-warped copy of `q`: resampled to 0.7–1.4 × its length by
/// linear interpolation, plus Gaussian noise of σ = `noise`.
fn warped_copy(rng: &mut Rng, q: &[f64], noise: f64) -> Vec<f64> {
    let m = q.len();
    let len = ((m as f64 * rng.f64_range(0.7, 1.4)).round() as usize).max(1);
    (0..len)
        .map(|j| {
            let pos = if len == 1 {
                0.0
            } else {
                j as f64 * (m - 1) as f64 / (len - 1) as f64
            };
            let i = pos.floor() as usize;
            let v = match q.get(i + 1) {
                Some(&next) => q[i] + (next - q[i]) * (pos - i as f64),
                None => q[i],
            };
            v + noise * rng.normal()
        })
        .collect()
}

/// A serving-shaped stream: a bounded random walk far from the query
/// (or, in one scenario of four, close enough for its distance to `y_1`
/// to cross ε now and then), with warped copies of the query — some
/// noisy enough to miss ε, some cut short — planted after idle stretches
/// of up to 60 samples, so a pending candidate is usually followed by a
/// long run of idle ticks.
fn idle_heavy_stream(rng: &mut Rng, query: &[f64], near: bool) -> Vec<f64> {
    let level = query[0] + if near { 4.0 } else { 100.0 };
    let mut walk = level;
    let mut stream = Vec::new();
    for _ in 0..rng.usize_range(2, 7) {
        for _ in 0..rng.usize_range(0, 60) {
            walk = (walk + 0.5 * rng.normal()).clamp(level - 3.0, level + 3.0);
            stream.push(walk);
        }
        let noise = rng.f64_range(0.0, 0.4);
        let mut plant = warped_copy(rng, query, noise);
        if rng.u64_below(4) == 0 {
            plant.truncate(rng.usize_range(1, plant.len() + 1));
        }
        stream.extend(plant);
    }
    stream.extend((0..rng.usize_range(0, 60)).map(|_| walk));
    stream
}

/// Long idle stretches on both stepping paths against the scalar
/// reference: exact reports, ε-equivalent columns (star row included)
/// and the same pending candidate after every batch. The scenario grid
/// above keeps values near the query, so idle runs with a candidate
/// pending are rare there; here they are the common case.
#[test]
fn idle_stretches_skip_exactly_on_every_stepping_path() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0004);
    let batches = [1usize, 3, 8, 13, 64];
    let mut reported = 0;
    for scenario in 0..240 {
        let m = rng.usize_range(1, 48);
        let level = rng.f64_range(-10.0, 10.0);
        let query = smooth_query(&mut rng, m, level);
        let stream = idle_heavy_stream(&mut rng, &query, scenario % 4 == 3);
        let eps = [0.0, 0.5, 0.05 * m as f64, 0.5 * m as f64][scenario % 4];
        let config = SpringConfig::new(eps);
        for (path, batch) in [0].into_iter().chain(batches).enumerate() {
            let mut reference = Spring::new(&query, config).unwrap();
            let mut mon = Spring::new(&query, config).unwrap();
            let (mut want, mut got) = (Vec::new(), Vec::new());
            for (k, chunk) in stream.chunks(batch.max(1)).enumerate() {
                want.extend(chunk.iter().filter_map(|&x| reference.step_reference(x)));
                if batch == 0 {
                    got.extend(chunk.iter().filter_map(|&x| mon.step(x)));
                } else {
                    Monitor::step_batch(&mut mon, chunk, &mut got).unwrap();
                }
                let ctx = format!("scenario {scenario} m={m} eps={eps} batch={batch} chunk {k}");
                assert_eq!(render(&want), render(&got), "{ctx}: reports diverged");
                assert_columns_match(&reference, &mon, &ctx);
                assert_eq!(
                    format!("{:?}", reference.pending()),
                    format!("{:?}", mon.pending()),
                    "{ctx}: pending candidate diverged"
                );
            }
            if path == 0 {
                reported += want.len();
            }
        }
    }
    assert!(reported > 240, "the planted copies must match: {reported}");
}

/// One attachment of a fan-out scenario.
#[derive(Debug, Clone)]
struct Fan {
    query: Vec<f64>,
    eps: f64,
    kernel: Kernel,
    gap: GapPolicy,
}

impl Fan {
    fn monitor(&self) -> Spring<Kernel> {
        Spring::with_kernel(&self.query, SpringConfig::new(self.eps), self.kernel).unwrap()
    }
}

/// Many attachments on one stream, pushed in frames of `frame` samples.
#[derive(Debug)]
struct FanOut {
    fans: Vec<Fan>,
    stream: Vec<f64>,
    frame: usize,
}

/// Frame lengths: whole chunks of 8 and not.
const FRAMES: [usize; 5] = [5, 13, 64, 67, 100];

/// A fan-out scenario of kind `kind % 3`:
///
/// * 0 — queries in their own value bands with a walk far above all of
///   them and warped copies planted, as on a many-query server;
/// * 1 — a walk on a coarse grid whose values are the queries' `y_1`,
///   so chunk minima and maxima often equal `y_1` exactly;
/// * 2 — ±0.0 and magnitudes near 1e154, where the squared distance
///   overflows to +∞, with `y_1` among them and ε up to `f64::MAX`.
///
/// `gaps` are the policies the attachments draw from.
fn fan_out(rng: &mut Rng, kind: usize, gaps: &[GapPolicy]) -> FanOut {
    let n = rng.usize_range(8, 41);
    let fan = |query: Vec<f64>, eps: f64, rng: &mut Rng| Fan {
        query,
        eps,
        kernel: [Kernel::Squared, Kernel::Absolute][rng.usize_range(0, 2)],
        gap: gaps[rng.usize_range(0, gaps.len())],
    };
    let mut fans = Vec::new();
    let mut stream = Vec::new();
    match kind % 3 {
        0 => {
            for k in 0..n {
                let m = rng.usize_range(1, 24);
                let eps = [0.0, 0.5, 0.05 * m as f64, 0.5 * m as f64][rng.usize_range(0, 4)];
                let query = smooth_query(rng, m, 8.0 * k as f64);
                fans.push(fan(query, eps, rng));
            }
            let level = 8.0 * n as f64 + 40.0;
            let mut walk = level;
            for _ in 0..rng.usize_range(3, 8) {
                for _ in 0..rng.usize_range(0, 120) {
                    walk = (walk + 0.5 * rng.normal()).clamp(level - 3.0, level + 3.0);
                    stream.push(walk);
                }
                let planted = &fans[rng.usize_range(0, n)].query;
                let noise = rng.f64_range(0.0, 0.3);
                stream.extend(warped_copy(rng, planted, noise));
            }
        }
        1 => {
            let grid = |rng: &mut Rng| rng.usize_range(0, 12) as f64 * 0.5;
            for _ in 0..n {
                let m = rng.usize_range(1, 12);
                let mut query = vec![grid(rng)];
                query.extend((1..m).map(|_| grid(rng)));
                let eps = [0.0, 0.25, 1.0][rng.usize_range(0, 3)];
                fans.push(fan(query, eps, rng));
            }
            stream.extend((0..rng.usize_range(100, 400)).map(|_| grid(rng)));
        }
        _ => {
            let values = [0.0, -0.0, 1e154, -1e154, 1.5e154, -1.5e154, 3.0, -3.0];
            let pick = |rng: &mut Rng| values[rng.usize_range(0, values.len())];
            for _ in 0..n {
                let m = rng.usize_range(1, 6);
                let query = (0..m).map(|_| pick(rng)).collect();
                let eps = [0.0, 1.0, 1e300, f64::MAX][rng.usize_range(0, 4)];
                fans.push(fan(query, eps, rng));
            }
            // Runs of one value, so whole chunks sit on one side.
            while stream.len() < 300 {
                let x = pick(rng);
                stream.extend(std::iter::repeat_n(x, rng.usize_range(1, 20)));
            }
        }
    }
    let frame = FRAMES[rng.usize_range(0, FRAMES.len())];
    FanOut {
        fans,
        stream,
        frame,
    }
}

/// Where a per-sample loop stops on the scenario's stream: the first
/// missing sample and the rank of the first `Fail` attachment, if both
/// exist.
fn stop_of(sc: &FanOut) -> Option<(usize, usize)> {
    let k = sc.stream.iter().position(|x| !x.is_finite())?;
    let r = sc.fans.iter().position(|f| f.gap == GapPolicy::Fail)?;
    Some((k, r))
}

/// A reference match tagged `(offset in the stream, rank)`.
type Tagged = (usize, usize, Match);

/// Each attachment stepped alone: frame by frame, `step_batch` on each
/// run of present samples and the gap policy on each missing one, up
/// to the per-sample stopping point. Returns the monitors and the
/// events tagged `(offset in the stream, rank)`, in sample-major order.
fn fan_reference(sc: &FanOut) -> (Vec<Spring<Kernel>>, Vec<Tagged>) {
    let stop = stop_of(sc);
    let mut monitors = Vec::new();
    let mut events = Vec::new();
    let mut hits = Vec::new();
    for (rank, fan) in sc.fans.iter().enumerate() {
        let limit = match stop {
            Some((k, r)) if rank <= r => k + 1,
            Some((k, _)) => k,
            None => sc.stream.len(),
        };
        let mut mon = fan.monitor();
        let mut last = None;
        for f0 in (0..limit).step_by(sc.frame) {
            let end = (f0 + sc.frame).min(limit);
            let mut t = f0;
            while t < end {
                if sc.stream[t].is_finite() {
                    let run_end = (t..end).find(|&i| !sc.stream[i].is_finite()).unwrap_or(end);
                    let before = mon.tick();
                    hits.clear();
                    Monitor::step_batch(&mut mon, &sc.stream[t..run_end], &mut hits).unwrap();
                    for h in &hits {
                        events.push((t + (h.reported_at - before - 1) as usize, rank, *h));
                    }
                    last = Some(sc.stream[run_end - 1]);
                    t = run_end;
                } else {
                    if let (GapPolicy::CarryForward, Some(x)) = (fan.gap, last) {
                        events.extend(mon.step(x).map(|h| (t, rank, h)));
                    }
                    t += 1;
                }
            }
        }
        monitors.push(mon);
    }
    events.sort_by_key(|&(offset, rank, _)| (offset, rank));
    (monitors, events)
}

fn fan_event(stream: StreamId, rank: usize, m: Match) -> Event {
    Event {
        stream,
        query: QueryId(rank as u32),
        attachment: AttachmentId(rank as u32),
        variant: MonitorVariant::Spring,
        m,
    }
}

/// Bit-level rendering of events (see [`render`]).
fn render_events(events: &[Event]) -> Vec<String> {
    events.iter().map(|e| format!("{e:?}")).collect()
}

/// The engine's transcript, per-attachment state and error against
/// the per-attachment reference.
fn check_engine(sc: &FanOut, ctx: &str) {
    let (reference, want) = fan_reference(sc);
    let stop = stop_of(sc);
    let mut e = SpringEngine::new();
    e.set_metrics(Arc::new(Metrics::new()));
    let s = e.add_stream("s");
    for (k, fan) in sc.fans.iter().enumerate() {
        let q = e.add_query(format!("q{k}"), fan.query.clone()).unwrap();
        e.attach_with_kernel(s, q, fan.eps, fan.gap, fan.kernel)
            .unwrap();
    }
    let mut got = Vec::new();
    // Frames of one sample go through `Engine::push`.
    let failed = sc.stream.chunks(sc.frame).find_map(|chunk| match sc.frame {
        1 => e.push(s, &chunk[0]).map(|events| got.extend(events)).err(),
        _ => e.push_batch(s, chunk, &mut got).err(),
    });
    // The engine drops the failing tick's events, like per-sample push.
    let cut = stop.map_or(usize::MAX, |(k, _)| k);
    let mut expect: Vec<Event> = want
        .iter()
        .filter(|&&(offset, _, _)| offset < cut)
        .map(|&(_, rank, m)| fan_event(s, rank, m))
        .collect();
    match stop {
        Some((k, _)) => {
            let tick = k as u64 + 1;
            assert_eq!(
                failed,
                Some(MonitorError::MissingSample { stream: s, tick }),
                "{ctx}"
            );
        }
        None => assert_eq!(failed, None, "{ctx}"),
    }
    for (rank, mon) in reference.iter().enumerate() {
        let ectx = format!("{ctx} attachment {rank}");
        let engine_mon = e.monitor(AttachmentId(rank as u32)).unwrap();
        assert_eq!(engine_mon.tick(), mon.tick(), "{ectx}: ticks");
        assert_eq!(
            format!("{:?}", engine_mon.pending()),
            format!("{:?}", mon.pending()),
            "{ectx}: pending candidate"
        );
        assert_columns_match(mon, engine_mon, &ectx);
    }
    if stop.is_none() {
        got.extend(e.finish_stream(s).unwrap());
        for (rank, mut mon) in reference.into_iter().enumerate() {
            expect.extend(mon.finish().map(|m| fan_event(s, rank, m)));
        }
    }
    assert_eq!(
        render_events(&got),
        render_events(&expect),
        "{ctx}: engine events"
    );
}

/// The same scenario on two streams of a two-worker runner: each
/// stream's sink transcript is the per-attachment reference's, cut
/// where a per-sample runner stops.
fn check_runner(sc: &FanOut, ctx: &str) {
    let (reference, want) = fan_reference(sc);
    let stop = stop_of(sc);
    let n = sc.fans.len();
    let streams = [StreamId(0), StreamId(1)];
    let attachments = streams
        .iter()
        .flat_map(|&s| {
            sc.fans.iter().enumerate().map(move |(k, fan)| {
                RunnerAttachment::new(s, QueryId(k as u32), fan.monitor(), fan.gap)
            })
        })
        .collect();
    let sink = Arc::new(VecSink::new());
    let metrics = Some(Arc::new(Metrics::new()));
    let mut runner = Runner::spawn_with_metrics(attachments, 2, 1, sink.clone(), metrics).unwrap();
    runner.set_max_batch(sc.frame);
    let mut expect: Vec<(u32, Match)> = want
        .iter()
        .filter(|&&(offset, rank, _)| stop.is_none_or(|stop| (offset, rank) < stop))
        .map(|&(_, rank, m)| (rank as u32, m))
        .collect();
    for &s in &streams {
        // A worker stopped by a gap may fail later pushes.
        let _ = runner.push_batch(s, &sc.stream);
    }
    match stop {
        Some((k, _)) => {
            let tick = k as u64 + 1;
            let err = runner.shutdown().unwrap_err();
            assert!(
                matches!(err, MonitorError::MissingSample { tick: t, .. } if t == tick),
                "{ctx}: {err:?}"
            );
        }
        None => {
            for &s in &streams {
                runner.finish_stream(s).unwrap();
            }
            runner.shutdown().unwrap();
            for (rank, mut mon) in reference.into_iter().enumerate() {
                expect.extend(mon.finish().map(|m| (rank as u32, m)));
            }
        }
    }
    let events = sink.events();
    for (w, &s) in streams.iter().enumerate() {
        let got: Vec<(u32, Match)> = events
            .iter()
            .filter(|e| e.stream == s)
            .inspect(|e| assert_eq!(e.attachment.0 as usize, w * n + e.query.0 as usize))
            .map(|e| (e.query.0, e.m))
            .collect();
        assert_eq!(
            format!("{got:?}"),
            format!("{expect:?}"),
            "{ctx}: runner stream {}",
            s.0
        );
    }
}

/// Plants one missing sample in frame `j` at offset `j % frame` for
/// every frame, so one stream covers every offset once it has `frame`
/// frames.
fn with_rolling_gaps(sc: &mut FanOut) {
    let frame = sc.frame;
    for j in 0..sc.stream.len() / frame {
        sc.stream[j * frame + j % frame] = f64::NAN;
    }
}

/// The shared idle bound against per-attachment stepping on
/// many-attachment, idle-heavy streams through the engine and the
/// runner, with `Skip` and `CarryForward` gaps at rolling offsets.
#[test]
fn the_shared_idle_bound_keeps_every_attachment_exact_on_the_engine_and_the_runner() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0006);
    let gaps = [GapPolicy::Skip, GapPolicy::CarryForward];
    let mut reported = 0;
    for scenario in 0..90 {
        let mut sc = fan_out(&mut rng, scenario, &gaps);
        if scenario % 2 == 1 {
            // Long enough to cover every offset of the frame.
            while sc.stream.len() < sc.frame * (sc.frame + 1) {
                sc.stream.extend_from_within(..sc.stream.len().min(500));
            }
            with_rolling_gaps(&mut sc);
        }
        let ctx = format!(
            "scenario {scenario} kind {} frame {}",
            scenario % 3,
            sc.frame
        );
        reported += fan_reference(&sc).1.len();
        check_engine(&sc, &ctx);
        if scenario % 3 == 0 {
            check_runner(&sc, &ctx);
        }
    }
    assert!(reported > 200, "the planted copies must match: {reported}");
}

/// A missing sample at every offset of a frame, for every frame length,
/// with `Fail` attachments among the others: the frame stops where a
/// per-sample loop stops, on the engine and the runner.
#[test]
fn a_fail_gap_at_every_frame_offset_stops_where_per_attachment_stepping_does() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0007);
    let gaps = [GapPolicy::Skip, GapPolicy::CarryForward, GapPolicy::Fail];
    for frame in FRAMES {
        for offset in 0..frame {
            let mut sc = fan_out(&mut rng, offset, &gaps);
            sc.frame = frame;
            let failing = rng.usize_range(0, sc.fans.len());
            sc.fans[failing].gap = GapPolicy::Fail;
            let at = (2 * frame + offset).min(sc.stream.len() - 1);
            sc.stream[at] = f64::NAN;
            let ctx = format!("frame {frame} offset {offset}");
            check_engine(&sc, &ctx);
            if offset % 4 == 0 {
                check_runner(&sc, &ctx);
            }
        }
    }
}

/// The fan-out scenario of hand-built `frames` (each `frame` samples
/// long but the last), with one attachment per `(y_1, ε)` of `queries`
/// under each kernel and each gap policy of `gaps`. Query `k` is
/// `[y_1, y_1 + 2, y_1 + 1]`.
fn edge_fan_out(queries: &[(f64, f64)], gaps: &[GapPolicy], frames: Vec<Vec<f64>>) -> FanOut {
    let frame = frames[0].len();
    let mut fans = Vec::new();
    for &(y1, eps) in queries {
        for kernel in [Kernel::Squared, Kernel::Absolute] {
            for &gap in gaps {
                let query = vec![y1, y1 + 2.0, y1 + 1.0];
                fans.push(Fan {
                    query,
                    eps,
                    kernel,
                    gap,
                });
            }
        }
    }
    FanOut {
        fans,
        stream: frames.concat(),
        frame,
    }
}

/// Frames at the edges of the whole-frame idle proof, where an
/// attachment with an empty band consumes a frame at once when the
/// frame scan's ranges prove every sample idle. Against per-attachment
/// stepping on the engine (`Engine::push` for one-sample frames) and
/// the runner:
///
/// * a frame whose range ends exactly at `y_1` (its minimum or maximum
///   is `y_1`, ±0.0 included), which must wake the attachment;
/// * a frame that straddles `y_1` with every sample idle, one side per
///   8-sample chunk, which only its chunks prove;
/// * ε = 0 and ε = `f64::MAX` on values of ±1e154, whose squared
///   distances overflow to +∞ (a `Spring` rejects ε = +∞; the matrix's
///   own tests cover that band);
/// * a `CarryForward` attachment idle for a whole frame on a fresh
///   stream, then a missing sample: the value carried is the idle
///   frame's last sample, so the attachment takes that tick.
#[test]
fn whole_frame_idle_proofs_keep_every_attachment_exact_at_their_edges() {
    let both = [GapPolicy::Skip, GapPolicy::CarryForward];
    for frame in [1, 8, 13, 16] {
        let idle = vec![50.0; frame];
        // A frame of samples 9, 10, … on side `sign` of 0 with `x` at
        // offset `k`.
        let edge = |k: usize, x: f64, sign: f64| -> Vec<f64> {
            let away = |i: usize| sign * (9.0 + i as f64);
            (0..frame)
                .map(|i| if i == k { x } else { away(i) })
                .collect()
        };
        let mut frames = vec![idle.clone()];
        for k in [0, frame / 2, frame - 1] {
            for (x, sign) in [(0.0, 1.0), (0.0, -1.0), (-0.0, 1.0), (-0.0, -1.0)] {
                frames.extend([edge(k, x, sign), idle.clone(), idle.clone()]);
            }
        }
        let queries = [0.0, -0.0].map(|y1| [0.0, 1.0, 4.0].map(|eps| (y1, eps)));
        let sc = edge_fan_out(queries.as_flattened(), &both, frames);
        check_engine(&sc, &format!("range ends at y_1, frame {frame}"));
        check_runner(&sc, &format!("range ends at y_1, frame {frame}"));

        // Chunks alternate sides of y_1 = 0; every sample is idle.
        let straddle = |flip: f64| -> Vec<f64> {
            let side = |i: usize| flip * if (i / 8).is_multiple_of(2) { -1.0 } else { 1.0 };
            (0..frame).map(|i| side(i) * (40.0 + i as f64)).collect()
        };
        let mut frames = vec![idle.clone()];
        for round in 0..6 {
            frames.extend([straddle(1.0), straddle(-1.0)]);
            // A wake now and then, so the band fills and empties again.
            if round % 2 == 0 {
                frames.push(edge(frame / 2, 0.5, 1.0));
            }
        }
        let queries = [0.0, 1.0, 4.0, 100.0].map(|eps| (0.0, eps));
        let sc = edge_fan_out(&queries, &both, frames);
        check_engine(&sc, &format!("straddles y_1, frame {frame}"));
        check_runner(&sc, &format!("straddles y_1, frame {frame}"));

        // Overflow: values and y_1 near ±1e154 at ε = 0 and f64::MAX.
        let values = [1e154, -1e154, 1.5e154, -1.5e154, 0.0, -0.0, 3.0];
        let mut frames = Vec::new();
        for (j, &x) in values.iter().enumerate() {
            frames.push(vec![x; frame]);
            let y = values[(j + 1) % values.len()];
            frames.push((0..frame).map(|i| [x, y][i / 8 % 2]).collect());
        }
        let queries = [0.0, 1e154, -1e154, 3.0].map(|y1| [0.0, f64::MAX].map(|eps| (y1, eps)));
        let sc = edge_fan_out(queries.as_flattened(), &both, frames);
        check_engine(&sc, &format!("overflow, frame {frame}"));
        check_runner(&sc, &format!("overflow, frame {frame}"));

        // Carry forward after a whole idle frame on a fresh stream.
        let mut gap = idle.clone();
        gap[0] = f64::NAN;
        let last = edge(frame - 1, 70.0, 1.0);
        let frames = vec![last, gap, idle.clone(), edge(0, 0.0, 1.0), idle.clone()];
        let queries = [(0.0, 1.0), (0.0, 0.0), (3.0, 4.0)];
        let sc = edge_fan_out(&queries, &[GapPolicy::CarryForward], frames);
        check_engine(&sc, &format!("carry after an idle frame, frame {frame}"));
        check_runner(&sc, &format!("carry after an idle frame, frame {frame}"));
    }
}

/// The answer of an unbanded matrix (`Stwm::new`, every row computed)
/// stepped per sample: a strict-`<` minimum of `d(t, m)`, so the
/// earliest of equal distances wins, as `BestMatch::best` reports it.
struct UnbandedBest {
    stwm: Stwm,
    best: Option<Match>,
}

impl UnbandedBest {
    fn new(query: &[f64]) -> Self {
        let stwm = Stwm::new(query).unwrap();
        UnbandedBest { stwm, best: None }
    }

    fn step(&mut self, x: f64) {
        self.stwm.step(x);
        let d = self.stwm.current_distance();
        if d < self.best.map_or(f64::INFINITY, |b| b.distance) {
            let (start, end) = (self.stwm.current_start(), self.stwm.tick());
            self.best = Some(Match {
                start,
                end,
                distance: d,
                reported_at: end,
                group_start: start,
                group_end: end,
            });
        }
    }
}

/// Bit-level key of a best-match answer.
fn best_key(best: Option<Match>) -> Option<(u64, u64, u64, u64)> {
    best.map(|b| (b.start, b.end, b.distance.to_bits(), b.reported_at))
}

/// Steps `BestMatch` over `stream` on every stepping path — per-sample
/// `BestMatch::step` (batch 0) and `Monitor::step_batch` at batch
/// 1/3/8/13/64 — beside an unbanded twin, and demands the same answer,
/// bit for bit, after every batch.
fn assert_best_match_is_unbanded(query: &[f64], stream: &[f64], ctx: &str) {
    for batch in [0usize, 1, 3, 8, 13, 64] {
        let mut twin = UnbandedBest::new(query);
        let mut mon = BestMatch::new(query).unwrap();
        let mut out = Vec::new();
        for (k, chunk) in stream.chunks(batch.max(1)).enumerate() {
            chunk.iter().for_each(|&x| twin.step(x));
            if batch == 0 {
                chunk.iter().for_each(|&x| _ = mon.step(x));
            } else {
                Monitor::step_batch(&mut mon, chunk, &mut out).unwrap();
            }
            assert_eq!(
                best_key(mon.best()),
                best_key(twin.best),
                "{ctx} batch={batch} chunk {k}: best diverged from the unbanded matrix"
            );
        }
        assert!(out.is_empty(), "{ctx}: best-match never reports mid-stream");
    }
}

/// `BestMatch` banded at its best distance so far against an unbanded
/// twin, over the scenario grid (values near the query: the band moves
/// on most ticks) and the idle-heavy serving-shaped grid (long runs of
/// samples the band skips after the best is found).
#[test]
fn best_match_band_is_bit_exact_with_an_unbanded_matrix_on_every_stepping_path() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0005);
    let mut done = 0;
    while done < SCENARIOS {
        let sc = Scenario::generate(&mut rng);
        let stream = sc.effective_stream();
        if stream.is_empty() {
            continue;
        }
        done += 1;
        assert_best_match_is_unbanded(&sc.query, &stream, &format!("scenario {done} ({sc:?})"));
    }
    for scenario in 0..120 {
        let m = rng.usize_range(1, 48);
        let level = rng.f64_range(-10.0, 10.0);
        let query = smooth_query(&mut rng, m, level);
        let stream = idle_heavy_stream(&mut rng, &query, scenario % 4 == 3);
        assert_best_match_is_unbanded(&query, &stream, &format!("idle-heavy {scenario} m={m}"));
    }
}

/// Restores a JSON round-tripped snapshot into a fresh monitor.
fn roundtrip(spring: &Spring) -> Spring {
    let json = spring.snapshot().to_json_string();
    let snap = SpringSnapshot::parse_json(&json).unwrap();
    Spring::restore_squared(&snap).unwrap()
}

/// A snapshot written mid-stream by the scalar reference must restore
/// into the frame path (and one written by the frame path into the
/// reference) with bit-identical columns and reports afterwards.
#[test]
fn checkpoints_cross_the_kernel_boundary_in_both_directions() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0003);
    let mut done = 0;
    while done < 120 {
        let sc = Scenario::generate(&mut rng);
        let stream = sc.effective_stream();
        if stream.len() < 2 {
            continue;
        }
        done += 1;
        let cut = 1 + (done % (stream.len() - 1));
        let (head, tail) = stream.split_at(cut);
        let config = SpringConfig::new(sc.epsilon);

        // Uninterrupted reference run: the ground truth for both legs.
        let mut control = Spring::new(&sc.query, config).unwrap();
        let mut control_tail = Vec::new();
        for (i, &x) in stream.iter().enumerate() {
            let m = control.step_reference(x);
            if i >= cut {
                control_tail.extend(m);
            }
        }

        // Leg 1: scalar-written checkpoint, resumed on the frame path.
        let mut writer = Spring::new(&sc.query, config).unwrap();
        for &x in head {
            writer.step_reference(x);
        }
        let mut resumed = roundtrip(&writer);
        let mut got = Vec::new();
        Monitor::step_batch(&mut resumed, tail, &mut got).unwrap();
        let ctx = format!("scenario {done} cut {cut} scalar->frame ({sc:?})");
        assert_eq!(render(&control_tail), render(&got), "{ctx}: reports");
        assert_columns_match(&control, &resumed, &ctx);

        // Leg 2: frame-written checkpoint, resumed on the scalar path.
        let mut writer = Spring::new(&sc.query, config).unwrap();
        let mut sink = Vec::new();
        Monitor::step_batch(&mut writer, head, &mut sink).unwrap();
        let mut resumed = roundtrip(&writer);
        let mut got = Vec::new();
        for &x in tail {
            got.extend(resumed.step_reference(x));
        }
        let ctx = format!("scenario {done} cut {cut} frame->scalar ({sc:?})");
        assert_eq!(render(&control_tail), render(&got), "{ctx}: reports");
        assert_columns_match(&control, &resumed, &ctx);
    }
}
