//! The four workloads and their seed-generated inputs.
//!
//! Every input is a function of the seed alone: query patterns, the
//! stream block each connection replays, and the session pool of
//! `session_churn`. Values are formatted once, with four decimals, into
//! the exact bytes the generator copies onto the wire, and the reference
//! runs on the values parsed back from that text.

use std::f64::consts::TAU;

use spring_util::rng::Rng;

use crate::reference::{self, Attachment};
use crate::verify::Expected;

/// Data connections per run (the server runs `--shards 2`, and stream
/// ids 0 and 1 hash to different shards).
pub const STREAMS: usize = 2;

/// The server's frame size (`--batch`). Blocks are whole frames, so a
/// phase that ends on a block boundary leaves no partial frame waiting.
pub const BATCH: usize = 64;

/// Threshold per query sample: ε = m × this. Warped plants land well
/// inside it; the noise level sits thousands of ε away.
const EPSILON_PER_SAMPLE: f64 = 0.25;

/// Sessions in the `session_churn` pool (each a distinct block).
const SESSION_POOL: usize = 64;
const SMOKE_SESSION_POOL: usize = 8;

/// One traffic mix. Parameters are fixed here, not on the command line,
/// so every run of a workload measures the same thing.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    /// Query length.
    pub m: usize,
    /// Attachments per stream (query 0 plus `query add`/`attach` extras).
    pub queries: usize,
    /// Samples per replayed block (a multiple of [`BATCH`]), or per
    /// session for the churn workload.
    pub block_len: usize,
    /// Block length under `--smoke`.
    pub smoke_block_len: usize,
    /// Mean samples from one planted occurrence to the next.
    pub plant_every: usize,
    /// Phase-A open-loop rate per connection, samples/s: at most about a
    /// quarter of the closed-loop rate in the slowest spells of the
    /// reference box, frozen. At a third of its usual rate, such spells
    /// pushed phase A into a backlog and its p50 from 0.3 ms to 20 ms
    /// and more.
    pub phase_a_rate: f64,
    /// Closed-loop sessions instead of two long-lived streams.
    pub churn: bool,
}

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_m16",
        why: "m=16 makes the kernel cheap, so parsing, per-sample runner pushes, frame hand-off and socket I/O dominate",
        m: 16,
        queries: 1,
        block_len: 65_536,
        smoke_block_len: 4_096,
        plant_every: 2_048,
        phase_a_rate: 500_000.0,
        churn: false,
    },
    Workload {
        name: "wire_m512",
        why: "m=512 makes the STWM kernel most of the CPU; gains here come from kernel changes, not wire or runner ones",
        m: 512,
        queries: 1,
        block_len: 131_072,
        smoke_block_len: 8_192,
        plant_every: 1_024,
        phase_a_rate: 60_000.0,
        churn: false,
    },
    Workload {
        name: "fanout_q32",
        why: "32 m=64 queries per stream (64 attachments): per-attachment engine overhead and non-matching DP work dominate",
        m: 64,
        queries: 32,
        block_len: 16_384,
        smoke_block_len: 4_096,
        plant_every: 256,
        phase_a_rate: 12_000.0,
        churn: false,
    },
    Workload {
        name: "session_churn",
        why: "closed-loop 256-sample sessions: accept, attach, and the finish/sync/detach control path dominate",
        m: 64,
        queries: 1,
        block_len: 256,
        smoke_block_len: 256,
        plant_every: 0,
        phase_a_rate: 0.0,
        churn: true,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The threshold every attachment uses.
    pub fn epsilon(&self) -> f64 {
        self.m as f64 * EPSILON_PER_SAMPLE
    }
}

/// A block of samples in wire form.
#[derive(Debug, Clone)]
pub struct Block {
    /// One `value\n` line per sample, four decimals.
    pub bytes: Vec<u8>,
    /// The values those lines parse to.
    pub values: Vec<f64>,
    /// Byte offset just past each sample's line.
    pub ends: Vec<u32>,
    /// Occurrences planted in the block.
    pub plants: usize,
}

impl Block {
    /// Formats `raw` into wire bytes and parses them back.
    pub fn from_raw(raw: &[f64], plants: usize) -> Block {
        let mut bytes = Vec::with_capacity(raw.len() * 8);
        let mut ends = Vec::with_capacity(raw.len());
        for v in raw {
            bytes.extend_from_slice(format!("{v:.4}\n").as_bytes());
            ends.push(u32::try_from(bytes.len()).expect("a block stays far below 4 GiB"));
        }
        let values = wire_values(&bytes);
        Block {
            bytes,
            values,
            ends,
            plants,
        }
    }

    /// Samples per block.
    pub fn len(&self) -> u64 {
        self.values.len() as u64
    }

    /// Whether the block holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bytes taken by the first `n` samples of the block repeated back
    /// to back.
    pub fn bytes_before(&self, n: u64) -> u64 {
        let (whole, part) = (n / self.len(), n % self.len());
        let tail = match part {
            0 => 0,
            p => u64::from(self.ends[p as usize - 1]),
        };
        whole * self.bytes.len() as u64 + tail
    }

    /// Complete samples within the first `bytes` bytes of the block
    /// repeated back to back.
    pub fn samples_within(&self, bytes: u64) -> u64 {
        let total = self.bytes.len() as u64;
        let (whole, part) = (bytes / total, bytes % total);
        whole * self.len() + self.ends.partition_point(|&e| u64::from(e) <= part) as u64
    }
}

fn wire_values(bytes: &[u8]) -> Vec<f64> {
    std::str::from_utf8(bytes)
        .expect("formatted numbers are ASCII")
        .lines()
        .map(|l| l.parse().expect("formatted numbers parse"))
        .collect()
}

fn round4(v: f64) -> f64 {
    format!("{v:.4}").parse().expect("formatted numbers parse")
}

fn rng_for(seed: u64, tag: u64) -> Rng {
    Rng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Level of query `k`: each query lives in its own band, [level - 3.5,
/// level + 3.5], so a plant of one query is far (under DTW, which does
/// not normalise) from every other query and from the noise.
fn query_level(k: usize) -> f64 {
    5.0 + 8.0 * k as f64
}

/// A smooth random pattern around `level`: two sinusoids.
fn query(rng: &mut Rng, m: usize, level: f64) -> Vec<f64> {
    let f1 = 1.0 + rng.u64_below(2) as f64;
    let f2 = 2.0 + rng.u64_below(3) as f64;
    let (a1, a2) = (rng.f64_range(1.5, 2.5), rng.f64_range(0.3, 1.0));
    let (p1, p2) = (rng.f64_range(0.0, TAU), rng.f64_range(0.0, TAU));
    (0..m)
        .map(|i| {
            let x = i as f64 / m as f64;
            round4(level + a1 * (TAU * f1 * x + p1).sin() + a2 * (TAU * f2 * x + p2).sin())
        })
        .collect()
}

/// A time-warped copy of `q`: resampled to 0.8–1.25 × its length by
/// linear interpolation, plus a little Gaussian noise.
fn plant(rng: &mut Rng, q: &[f64]) -> Vec<f64> {
    let m = q.len();
    let len = ((m as f64 * rng.f64_range(0.8, 1.25)).round() as usize).max(2);
    (0..len)
        .map(|j| {
            let pos = j as f64 * (m - 1) as f64 / (len - 1) as f64;
            let i = pos.floor() as usize;
            let frac = pos - i as f64;
            let v = if i + 1 < m {
                q[i] * (1.0 - frac) + q[i + 1] * frac
            } else {
                q[m - 1]
            };
            v + 0.05 * rng.normal()
        })
        .collect()
}

/// Background noise far above every query band: a bounded random walk
/// around 500.
struct Noise(f64);

impl Noise {
    fn new() -> Self {
        Noise(500.0)
    }

    fn next(&mut self, rng: &mut Rng) -> f64 {
        self.0 = (self.0 + 0.2 * rng.normal()).clamp(490.0, 510.0);
        self.0
    }
}

/// A periodic stream block: ≥ 4·m quiet samples at both ends, planted
/// occurrences (cycling through `queries`) in between.
fn stream_block(rng: &mut Rng, w: &Workload, len: usize, queries: &[Vec<f64>]) -> Block {
    let quiet = 4 * w.m;
    let mut noise = Noise::new();
    let mut raw: Vec<f64> = (0..quiet).map(|_| noise.next(rng)).collect();
    let mut plants = 0;
    loop {
        let gap = rng
            .usize_range(w.plant_every / 2, w.plant_every * 3 / 2)
            .saturating_sub(w.m)
            .max(w.m);
        let occurrence = plant(rng, &queries[plants % queries.len()]);
        if raw.len() + gap + occurrence.len() + quiet > len {
            break;
        }
        raw.extend((0..gap).map(|_| noise.next(rng)));
        raw.extend(occurrence);
        plants += 1;
    }
    while raw.len() < len {
        raw.push(noise.next(rng));
    }
    Block::from_raw(&raw, plants)
}

/// One churn session: quiet lead, one occurrence, quiet tail.
fn session_block(rng: &mut Rng, w: &Workload, queries: &[Vec<f64>]) -> Block {
    let mut noise = Noise::new();
    let lead = rng.usize_range(w.m * 3 / 4, w.m * 3 / 2);
    let mut raw: Vec<f64> = (0..lead).map(|_| noise.next(rng)).collect();
    raw.extend(plant(rng, &queries[0]));
    while raw.len() < w.block_len {
        raw.push(noise.next(rng));
    }
    raw.truncate(w.block_len);
    Block::from_raw(&raw, 1)
}

/// Everything a run sends, and what the server must answer.
#[derive(Debug)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: &'static Workload,
    /// Query patterns (query 0 is the server's `--query`).
    pub queries: Vec<Vec<f64>>,
    /// One block per data connection, or the churn session pool.
    pub blocks: Vec<Block>,
    /// The reference for each block.
    pub expected: Vec<Expected>,
}

impl Inputs {
    /// Generates the inputs of `w` from `seed` and computes their
    /// reference. Fails when a stream block is not periodic.
    pub fn generate(w: &'static Workload, seed: u64, smoke: bool) -> Result<Inputs, String> {
        let mut qrng = rng_for(seed, 1);
        let queries: Vec<Vec<f64>> = (0..w.queries)
            .map(|k| query(&mut qrng, w.m, query_level(k)))
            .collect();
        let blocks: Vec<Block> = if w.churn {
            let pool = if smoke {
                SMOKE_SESSION_POOL
            } else {
                SESSION_POOL
            };
            (0..pool)
                .map(|i| session_block(&mut rng_for(seed, 1000 + i as u64), w, &queries))
                .collect()
        } else {
            let len = if smoke {
                w.smoke_block_len
            } else {
                w.block_len
            };
            (0..STREAMS)
                .map(|k| stream_block(&mut rng_for(seed, 100 + k as u64), w, len, &queries))
                .collect()
        };
        let inputs = Inputs {
            workload: w,
            queries,
            blocks,
            expected: Vec::new(),
        };
        let attachments = inputs.attachments();
        let per_block: Vec<Result<_, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = inputs
                .blocks
                .iter()
                .map(|b| {
                    let attachments = &attachments;
                    s.spawn(move || {
                        if w.churn {
                            reference::session_reference(&b.values, attachments)
                        } else {
                            reference::periodic_reference(&b.values, attachments)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread"))
                .collect()
        });
        if let Some(b) = inputs.blocks.iter().find(|b| b.plants == 0) {
            return Err(format!(
                "a block of {} samples holds no occurrence",
                b.len()
            ));
        }
        let expected = per_block
            .into_iter()
            .zip(&inputs.blocks)
            .map(|(per_block, b)| {
                Ok(Expected {
                    per_block: per_block?,
                    block_len: b.len(),
                    epsilon: w.epsilon(),
                    single_attachment: w.queries == 1,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Inputs { expected, ..inputs })
    }

    /// Every attachment each stream carries.
    pub fn attachments(&self) -> Vec<Attachment> {
        self.queries
            .iter()
            .map(|q| Attachment {
                query: q.clone(),
                epsilon: self.workload.epsilon(),
            })
            .collect()
    }

    /// The `--query` file: query 0, one value per line.
    pub fn query_csv(&self) -> String {
        self.queries[0]
            .iter()
            .map(|v| format!("{v:.4}\n"))
            .collect()
    }

    /// The set-up lines of data connection `stream` and the number of
    /// `ok` replies they draw. Streams with extra queries register them
    /// (`query add`, once) and attach them to themselves; the others
    /// register one unused single-value query, which only serves as an
    /// acknowledged handshake.
    pub fn setup_commands(&self, stream: usize) -> (String, usize) {
        let eps = self.workload.epsilon();
        if self.queries.len() == 1 {
            return (format!("query add {} 0\n", 100 + stream), 1);
        }
        let mut text = String::new();
        let mut acks = 0;
        if stream == 0 {
            for (id, q) in self.queries.iter().enumerate().skip(1) {
                text.push_str(&format!("query add {id}"));
                for v in q {
                    text.push_str(&format!(" {v:.4}"));
                }
                text.push('\n');
                acks += 1;
            }
        }
        for id in 1..self.queries.len() {
            text.push_str(&format!("attach {stream} {id} {eps}\n"));
            acks += 1;
        }
        (text, acks)
    }
}
