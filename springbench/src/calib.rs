//! Core-speed calibration of the closed-loop metrics.
//!
//! Each vCPU of the reference box is a share of a physical core that
//! other tenants use too. How fast it runs the server's code changes by
//! up to 1.8x from one second to the next, and the two vCPUs change
//! independently. Raw throughput and CPU time per sample drift with
//! them, so ten runs of the same code spread by 20–45% (interquartile)
//! whatever the run length.
//!
//! One calibrator thread per CPU the benchmark may run on, pinned to it,
//! measures how fast that CPU is right now. Every [`PERIOD`] it runs two
//! fixed pieces of work and times each with its own thread CPU clock:
//! - user-mode work: a frozen copy of the SPRING column recurrence over
//!   the workload's query shape, i.e. the kernel work of one sample;
//! - kernel-mode work: 64-byte round trips over a loopback TCP pair.
//!
//! Both are the benchmark's own code and the C library's, so a change
//! to the program under test never changes them. A burst's *speed* is
//! what its work costs on the reference core ([`REF_NS_PER_CELL`],
//! [`REF_NS_PER_ROUND_TRIP`]) divided by what it cost now: 0.5 means the
//! CPU currently runs at half the reference speed.
//!
//! Set-up is made of other work: spawning a process, waking threads,
//! and short exchanges over loopback sockets. A [`Pinger`] measures the
//! host's speed at that work with round trips to an echo thread.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::stats::median;
use crate::sys;

/// Reference cost of one cell of the recurrence. The reference box
/// takes 4–8 ns per cell.
pub const REF_NS_PER_CELL: f64 = 6.0;
/// Reference cost of one loopback round trip within one thread (two
/// 64-byte writes and reads). The reference box takes 5–10 µs.
pub const REF_NS_PER_ROUND_TRIP: f64 = 7_500.0;
/// Reference cost of one [`Pinger`] round trip (a 64-byte write, a
/// thread wake-up, the echo, and a second wake-up). The reference box
/// takes 15–40 µs.
pub const REF_NS_PER_PING: f64 = 25_000.0;

/// Time between the starts of two bursts on one CPU.
const PERIOD: Duration = Duration::from_millis(20);
/// Recurrence cells per user-mode burst (about 0.25 ms).
const BURST_CELLS: usize = 32_768;
/// Round trips per kernel-mode burst (about 0.2 ms).
const BURST_TRIPS: usize = 16;
/// A burst first runs 1/`WARM_UP` of its work untimed.
const WARM_UP: usize = 4;
/// Round trips per [`Pinger::speed`].
const PINGS: usize = 8;

/// One burst on one CPU.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// The CPU the calibrator is pinned to.
    pub cpu: usize,
    /// When the burst ended.
    pub at: Instant,
    /// Speed of user-mode work relative to the reference core.
    pub user: f64,
    /// Speed of kernel-mode work relative to the reference core.
    pub sys: f64,
}

/// The user- and kernel-mode speed of `cpu`: the medians over its bursts
/// that ended in `(from, to]`; `None` without one.
pub fn speed(bursts: &[Burst], cpu: usize, from: Instant, to: Instant) -> Option<(f64, f64)> {
    let here: Vec<&Burst> = bursts
        .iter()
        .filter(|b| b.cpu == cpu && b.at > from && b.at <= to)
        .collect();
    let user = median(&here.iter().map(|b| b.user).collect::<Vec<_>>())?;
    let sys = median(&here.iter().map(|b| b.sys).collect::<Vec<_>>())?;
    Some((user, sys))
}

/// The running calibrator threads. Dropping it stops and joins them.
pub struct Calibrators {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<io::Result<Vec<Burst>>>>,
}

impl Drop for Calibrators {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Calibrators {
    /// Starts one calibrator per CPU this process may run on. Its
    /// user-mode work steps `queries` columns of length `m` per sample.
    pub fn start(m: usize, queries: usize) -> io::Result<Calibrators> {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = sys::allowed_cpus()?
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || calibrate(cpu, m, queries, &stop))
            })
            .collect();
        Ok(Calibrators { stop, handles })
    }

    /// Stops every calibrator and returns all bursts.
    pub fn finish(mut self) -> io::Result<Vec<Burst>> {
        self.stop.store(true, Ordering::Relaxed);
        let mut bursts = Vec::new();
        for h in self.handles.drain(..) {
            bursts.extend(h.join().expect("calibrator thread")?);
        }
        Ok(bursts)
    }
}

fn calibrate(cpu: usize, m: usize, queries: usize, stop: &AtomicBool) -> io::Result<Vec<Burst>> {
    sys::pin_to(cpu)?;
    let mut columns: Vec<Column> = (0..queries).map(|k| Column::new(m, k)).collect();
    let samples = BURST_CELLS.div_ceil(m * queries);
    let ref_user = REF_NS_PER_CELL * (samples * m * queries) as f64;
    let ref_sys = REF_NS_PER_ROUND_TRIP * BURST_TRIPS as f64;
    let mut pair = LoopbackPair::open()?;
    let mut bursts = Vec::new();
    let mut t = 0u64;
    let mut next = Instant::now();
    let mut step = |columns: &mut [Column], n: usize| {
        for _ in 0..n {
            t += 1;
            // Noise far from every query, as in the workloads' blocks.
            let x = 500.0 + (t % 97) as f64 * 0.1;
            for c in columns.iter_mut() {
                std::hint::black_box(c.step(x));
            }
        }
    };
    while !stop.load(Ordering::Relaxed) {
        // Untimed warm-up first: the server evicted the calibrator's
        // state from the caches since the last burst, and refetching it
        // measures the shared cache, not the core.
        step(&mut columns, samples.div_ceil(WARM_UP));
        let c0 = sys::thread_cpu_ns()?;
        step(&mut columns, samples);
        let c1 = sys::thread_cpu_ns()?;
        pair.round_trip()?;
        let c2 = sys::thread_cpu_ns()?;
        for _ in 0..BURST_TRIPS {
            pair.round_trip()?;
        }
        let c3 = sys::thread_cpu_ns()?;
        bursts.push(Burst {
            cpu,
            at: Instant::now(),
            user: ref_user / (c1 - c0).max(1) as f64,
            sys: ref_sys / (c3 - c2).max(1) as f64,
        });
        next += PERIOD;
        match next.checked_duration_since(Instant::now()) {
            Some(wait) => thread::sleep(wait),
            None => next = Instant::now(),
        }
    }
    Ok(bursts)
}

/// A frozen copy of the two-phase SPRING column recurrence (Eq. 7 and 8
/// with start positions): distances to the query, the min-select over
/// the previous column, and the left-dependent carry.
struct Column {
    query: Vec<f64>,
    d_prev: Vec<f64>,
    s_prev: Vec<u64>,
    d_cur: Vec<f64>,
    s_cur: Vec<u64>,
    base: Vec<f64>,
    dd: Vec<f64>,
    sd: Vec<u64>,
    t: u64,
}

impl Column {
    /// Column `k` of a shape: a smooth query in band `k`, as the
    /// workloads' queries are.
    fn new(m: usize, k: usize) -> Column {
        let level = 5.0 + 8.0 * k as f64;
        Column {
            query: (0..m)
                .map(|i| level + 2.0 * (i as f64 * 0.1).sin())
                .collect(),
            d_prev: vec![f64::INFINITY; m + 1],
            s_prev: vec![0; m + 1],
            d_cur: vec![f64::INFINITY; m + 1],
            s_cur: vec![0; m + 1],
            base: vec![0.0; m + 1],
            dd: vec![0.0; m + 1],
            sd: vec![0; m + 1],
            t: 0,
        }
    }

    /// Consumes `x`; returns the distance of the best path ending at
    /// the last query row.
    #[inline(never)]
    fn step(&mut self, x: f64) -> f64 {
        self.t += 1;
        let m = self.query.len();
        self.d_prev[0] = 0.0;
        self.s_prev[0] = self.t;
        self.d_cur[0] = 0.0;
        self.s_cur[0] = self.t;
        for (b, q) in self.base[1..].iter_mut().zip(&self.query) {
            *b = (x - q) * (x - q);
        }
        for i in 1..=m {
            let (down, diag) = (self.d_prev[i], self.d_prev[i - 1]);
            let take_down = down <= diag;
            self.dd[i] = if take_down { down } else { diag };
            self.sd[i] = if take_down {
                self.s_prev[i]
            } else {
                self.s_prev[i - 1]
            };
        }
        let (mut left, mut s_left) = (self.d_cur[0], self.s_cur[0]);
        for i in 1..=m {
            let take_left = left <= self.dd[i];
            let best = if take_left { left } else { self.dd[i] };
            s_left = if take_left { s_left } else { self.sd[i] };
            left = self.base[i] + best;
            self.d_cur[i] = left;
            self.s_cur[i] = s_left;
        }
        std::mem::swap(&mut self.d_cur, &mut self.d_prev);
        std::mem::swap(&mut self.s_cur, &mut self.s_prev);
        self.d_prev[m]
    }
}

/// Two ends of one loopback TCP connection, both owned by the
/// calibrator: a round trip runs the kernel's socket paths with no
/// thread wake-up.
struct LoopbackPair {
    a: TcpStream,
    b: TcpStream,
    buf: [u8; 64],
}

impl LoopbackPair {
    fn open() -> io::Result<LoopbackPair> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let a = TcpStream::connect(listener.local_addr()?)?;
        let (b, _) = listener.accept()?;
        a.set_nodelay(true)?;
        b.set_nodelay(true)?;
        Ok(LoopbackPair { a, b, buf: [7; 64] })
    }

    fn round_trip(&mut self) -> io::Result<()> {
        self.a.write_all(&self.buf)?;
        self.b.read_exact(&mut self.buf)?;
        self.b.write_all(&self.buf)?;
        self.a.read_exact(&mut self.buf)
    }
}

/// One end of a loopback TCP connection whose other end an echo
/// thread serves.
pub struct Pinger {
    sock: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Pinger {
    /// Connects to a new echo thread.
    pub fn start() -> io::Result<Pinger> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let sock = TcpStream::connect(listener.local_addr()?)?;
        let (mut peer, _) = listener.accept()?;
        sock.set_nodelay(true)?;
        peer.set_nodelay(true)?;
        let echo = thread::spawn(move || {
            let mut buf = [0; 64];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        Ok(Pinger {
            sock,
            echo: Some(echo),
        })
    }

    /// The host's speed at wake-ups and socket exchanges relative to
    /// the reference: [`REF_NS_PER_PING`] divided by the median of
    /// [`PINGS`] round trips.
    pub fn speed(&mut self) -> io::Result<f64> {
        let mut buf = [0; 64];
        let mut ns = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let t = Instant::now();
            self.sock.write_all(&buf)?;
            self.sock.read_exact(&mut buf)?;
            ns.push(t.elapsed().as_nanos() as f64);
        }
        Ok(REF_NS_PER_PING / median(&ns).expect("PINGS is not 0"))
    }
}

impl Drop for Pinger {
    fn drop(&mut self) {
        // The echo thread's read fails once this end is shut.
        let _ = self.sock.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_measure_a_positive_speed_on_every_cpu() {
        let started = Instant::now();
        let cal = Calibrators::start(64, 2).expect("start");
        thread::sleep(PERIOD * 3);
        let bursts = cal.finish().expect("finish");
        for cpu in sys::allowed_cpus().expect("affinity") {
            let (user, sys) =
                speed(&bursts, cpu, started, Instant::now()).expect("a burst on every CPU");
            assert!(user > 0.0 && sys > 0.0, "{user} {sys}");
        }
    }

    #[test]
    fn a_pinger_measures_a_positive_speed_and_stops() {
        let mut pinger = Pinger::start().expect("start");
        assert!(pinger.speed().expect("speed") > 0.0);
        drop(pinger);
    }

    #[test]
    fn the_frozen_recurrence_finds_a_planted_copy() {
        let mut c = Column::new(16, 0);
        let query = c.query.clone();
        let mut best = f64::INFINITY;
        for &x in [500.0; 20].iter().chain(&query).chain(&[500.0; 20]) {
            best = best.min(c.step(x));
        }
        assert_eq!(best, 0.0);
    }
}
