//! The load generator: acknowledged set-up, the open-loop phase A, the
//! closed-loop phase B, and closed-loop churn sessions. One connection
//! per stream, all of them driven by one thread: the reference box has
//! two vCPUs, and the server's reactor and two shard workers already
//! want both. `TCP_NODELAY` is set on every socket: without it
//! client-side Nagle holds small writes until the server's delayed ACK,
//! which adds tens of milliseconds to every latency.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::sys;
use crate::verify::{verify, Expected};
use crate::workload::Block;

/// Phase-A schedule slot: each wake-up writes every sample due by then.
const SLOT: Duration = Duration::from_micros(100);
/// Phase-B pause when neither the window nor the socket lets a byte
/// through and nothing arrived. Short against the window's work (tens
/// of milliseconds or more), long enough that the generator's
/// wake-ups do not compete with the server for the CPU.
const IDLE: Duration = Duration::from_millis(1);
/// Largest single `write` call.
const MAX_WRITE: usize = 256 * 1024;
/// Bytes written in phase B before the next read.
const BURST: u64 = 1 << 20;
/// Phase B writes at most this many blocks past the last tick the
/// server confirmed. Loopback socket buffers hold megabytes, seconds of
/// work on the slow workloads; the window keeps the backlog, and so the
/// drain after the phase, to two blocks. Every block reports a match
/// inside itself, so a two-block window can never stall.
const WINDOW_BLOCKS: u64 = 2;
/// How long phase-A matches may still arrive after the last due sample.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest wait for any reply the server owes.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// What one read brought.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pump {
    /// Bytes arrived.
    Data,
    /// Nothing to read right now (or a blocking read timed out).
    Idle,
    /// The server closed the connection.
    Eof,
}

/// Splits a connection's input into lines.
pub struct Lines {
    buf: Vec<u8>,
    chunk: Box<[u8]>,
}

impl Default for Lines {
    fn default() -> Self {
        Lines {
            buf: Vec::new(),
            chunk: vec![0; 64 * 1024].into_boxed_slice(),
        }
    }
}

impl Lines {
    /// One `read` on `sock`; calls `on_line` for every line it
    /// completes, with the time the read's bytes reached the socket
    /// (see [`sys::recv_stamped`]). At EOF an unterminated tail is
    /// passed on as a line.
    pub fn pump(
        &mut self,
        sock: &mut TcpStream,
        mut on_line: impl FnMut(&str, Instant),
    ) -> io::Result<Pump> {
        loop {
            match sys::recv_stamped(sock, &mut self.chunk) {
                Ok((0, arrived)) => {
                    if !self.buf.is_empty() {
                        on_line(&String::from_utf8_lossy(&self.buf), arrived);
                        self.buf.clear();
                    }
                    return Ok(Pump::Eof);
                }
                Ok((n, arrived)) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    let mut start = 0;
                    while let Some(nl) = self.buf[start..].iter().position(|&b| b == b'\n') {
                        on_line(
                            &String::from_utf8_lossy(&self.buf[start..start + nl]),
                            arrived,
                        );
                        start += nl + 1;
                    }
                    self.buf.drain(..start);
                    return Ok(Pump::Data);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Pump::Idle)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A data connection past its set-up replies.
pub struct Session {
    /// The socket.
    pub sock: TcpStream,
    /// Its line splitter (holds any bytes read past the replies).
    pub lines: Lines,
}

/// Connects to the server with `TCP_NODELAY` and arrival stamps on.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sys::stamp_arrivals(&sock)?;
    Ok(sock)
}

/// Connects, sends `commands`, and waits for `acks` replies, each of
/// which must be `ok …`.
pub fn open_session(addr: SocketAddr, commands: &str, acks: usize) -> io::Result<Session> {
    let mut sock = connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_millis(100)))?;
    sock.write_all(commands.as_bytes())?;
    let mut lines = Lines::default();
    let (mut got, mut bad) = (0, None);
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while got < acks {
        let pumped = lines.pump(&mut sock, |l, _| {
            if l.starts_with("ok ") {
                got += 1;
            } else {
                bad.get_or_insert_with(|| l.to_string());
            }
        })?;
        if let Some(line) = bad {
            return Err(io::Error::other(format!("set-up answered `{line}`")));
        }
        if pumped == Pump::Eof || Instant::now() > deadline {
            return Err(io::Error::other("no set-up reply from the server"));
        }
    }
    Ok(Session { sock, lines })
}

/// Half-closes a session that streamed nothing and returns what the
/// server sent until it closed.
pub fn close_idle(mut session: Session) -> io::Result<String> {
    session.sock.shutdown(Shutdown::Write)?;
    session.sock.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut transcript = String::new();
    loop {
        match session.lines.pump(&mut session.sock, |l, _| {
            transcript.push_str(l);
            transcript.push('\n');
        })? {
            Pump::Eof => return Ok(transcript),
            Pump::Data => {}
            Pump::Idle => return Err(io::ErrorKind::TimedOut.into()),
        }
    }
}

/// What one long-lived connection sends.
pub struct StreamPlan<'a> {
    /// The block replayed back to back.
    pub block: &'a Block,
    /// Phase-A rate, samples/s.
    pub rate: f64,
    /// Phase-A length in samples (whole blocks).
    pub phase_a_samples: u64,
    /// Matches the reference reports within phase A.
    pub phase_a_matches: u64,
    /// Phase-B length; it ends at the next block boundary after it.
    pub phase_b: Duration,
    /// The latest tick the server confirmed (a `reported_at` read), for
    /// the phase-B sampler.
    pub progress: &'a AtomicU64,
}

/// What one long-lived connection saw.
#[derive(Debug, Default)]
pub struct StreamRun {
    /// Every line after the set-up replies.
    pub transcript: String,
    /// Phase-A matches as (due time of the reporting sample in seconds
    /// since phase A began, latency in ms from that due time).
    pub latencies: Vec<(f64, f64)>,
    /// Per phase-A slot: how far the generator trailed its schedule, ms.
    pub lateness_ms: Vec<f64>,
    /// Complete samples written.
    pub sent: u64,
    /// The latest `reported_at` read: every sample up to it has been
    /// processed by the server.
    pub confirmed: u64,
    /// When phase B wrote its last sample.
    pub write_end: Option<Instant>,
    /// The I/O error that ended the connection early.
    pub error: Option<String>,
}

/// One long-lived connection in the generator loop.
struct Conn<'a> {
    session: Session,
    plan: &'a StreamPlan<'a>,
    run: StreamRun,
    /// Bytes written so far, as a position in the endless repetition.
    cursor: u64,
    /// Phase-A match lines read.
    seen: u64,
}

impl Conn<'_> {
    /// Reads every line available now; `phase_a` holds phase A's start
    /// while its latencies are recorded.
    fn read(&mut self, phase_a: Option<Instant>) -> io::Result<bool> {
        let (run, plan, seen) = (&mut self.run, self.plan, &mut self.seen);
        read_available(&mut self.session, |line, arrived| {
            *seen += record(run, line, arrived, plan, phase_a);
        })
    }
}

/// Drives every long-lived connection from the calling thread: phase A,
/// then `at_phase_b()`, then phase B and the reads to the end. An I/O
/// error ends the drive; it is recorded on the connection it came from,
/// and the verifier counts what every connection is missing.
pub fn drive_streams(
    sessions: Vec<Session>,
    plans: &[StreamPlan],
    at_phase_b: impl FnOnce(),
) -> Vec<StreamRun> {
    let mut conns: Vec<Conn> = sessions
        .into_iter()
        .zip(plans)
        .map(|(session, plan)| Conn {
            session,
            plan,
            run: StreamRun::default(),
            cursor: 0,
            seen: 0,
        })
        .collect();
    let nonblocking = conns
        .iter()
        .enumerate()
        .try_for_each(|(k, c)| c.session.sock.set_nonblocking(true).map_err(|e| (k, e)));
    let a = nonblocking.and_then(|()| phase_a(&mut conns));
    at_phase_b();
    let b = a.and_then(|()| phase_b(&mut conns));
    if let Err((k, e)) = b {
        conns[k].run.error = Some(e.to_string());
    }
    conns
        .into_iter()
        .map(|mut c| {
            c.run.sent = c.plan.block.samples_within(c.cursor);
            c.run
        })
        .collect()
}

/// An I/O error and the connection it came from.
type ConnError = (usize, io::Error);

fn reported_at(line: &str) -> Option<u64> {
    line.split_once(" reported_at ")?
        .1
        .split(' ')
        .next()?
        .parse()
        .ok()
}

/// Appends `line` to the transcript and advances the confirmed tick; in
/// phase A (`phase_a` holds its start) records a match's latency: from
/// the due time of the sample that reported it until the line
/// `arrived`. Returns 1 for a match line.
fn record(
    run: &mut StreamRun,
    line: &str,
    arrived: Instant,
    plan: &StreamPlan,
    phase_a: Option<Instant>,
) -> u64 {
    run.transcript.push_str(line);
    run.transcript.push('\n');
    if !line.starts_with("match ") {
        return 0;
    }
    let Some(t) = reported_at(line) else {
        return 1; // malformed: the verifier counts it
    };
    run.confirmed = run.confirmed.max(t);
    plan.progress.store(run.confirmed, Ordering::Relaxed);
    if let (Some(t0), false) = (phase_a, line.ends_with("(stream end)")) {
        if (1..=plan.phase_a_samples).contains(&t) {
            let due = (t - 1) as f64 / plan.rate;
            let latency = arrived.saturating_duration_since(t0).as_secs_f64() - due;
            run.latencies.push((due, latency * 1e3));
        }
    }
    1
}

/// Writes block bytes from `cursor` up to `target` (a byte position in
/// the endless repetition) as far as the socket accepts them.
fn write_until(
    sock: &mut TcpStream,
    block: &Block,
    cursor: &mut u64,
    target: u64,
) -> io::Result<()> {
    let total = block.bytes.len() as u64;
    while *cursor < target {
        let off = (*cursor % total) as usize;
        let n = (block.bytes.len() - off).min((target - *cursor).min(MAX_WRITE as u64) as usize);
        match sock.write(&block.bytes[off..off + n]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => *cursor += k as u64,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads until the socket has nothing more; returns whether anything
/// arrived.
fn read_available(
    session: &mut Session,
    mut on_line: impl FnMut(&str, Instant),
) -> io::Result<bool> {
    let mut any = false;
    loop {
        match session.lines.pump(&mut session.sock, &mut on_line)? {
            Pump::Data => any = true,
            Pump::Idle => return Ok(any),
            Pump::Eof => return Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }
}

/// Open loop: sample `i` of each connection is due `i / rate` seconds
/// after the start, whatever the server does. Ends once every sample is
/// written and the phase's matches have arrived.
fn phase_a(conns: &mut [Conn]) -> Result<(), ConnError> {
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let mut all_written = true;
        for (k, c) in conns.iter_mut().enumerate() {
            let (plan, block) = (c.plan, c.plan.block);
            let due = ((elapsed * plan.rate) as u64 + 1).min(plan.phase_a_samples);
            let written = block.samples_within(c.cursor);
            c.run.lateness_ms.push(if written < due {
                (elapsed - written as f64 / plan.rate) * 1e3
            } else {
                0.0
            });
            write_until(
                &mut c.session.sock,
                block,
                &mut c.cursor,
                block.bytes_before(due),
            )
            .map_err(|e| (k, e))?;
            c.read(Some(t0)).map_err(|e| (k, e))?;
            all_written &= c.cursor >= block.bytes_before(plan.phase_a_samples);
        }
        if all_written {
            break;
        }
        let slots = t0.elapsed().as_nanos() / SLOT.as_nanos() + 1;
        let next = t0 + SLOT * u32::try_from(slots).expect("phase A lasts under 5 days");
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
    }
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while conns.iter().any(|c| c.seen < c.plan.phase_a_matches) && Instant::now() < deadline {
        for (k, c) in conns.iter_mut().enumerate() {
            c.read(Some(t0)).map_err(|e| (k, e))?;
        }
        thread::sleep(SLOT);
    }
    Ok(())
}

/// Closed loop: write as fast as the sockets and the window accept until
/// the phase time is up, finish each connection's current block,
/// half-close, and read every connection to EOF.
fn phase_b(conns: &mut [Conn]) -> Result<(), ConnError> {
    let t0 = Instant::now();
    let mut ends: Vec<Option<u64>> = vec![None; conns.len()];
    while conns.iter().any(|c| c.run.write_end.is_none()) {
        let mut progress = false;
        for (k, c) in conns.iter_mut().enumerate() {
            if c.run.write_end.is_some() {
                continue;
            }
            let block = c.plan.block;
            let total = block.bytes.len() as u64;
            if ends[k].is_none() && t0.elapsed() >= c.plan.phase_b {
                ends[k] = Some(c.cursor.div_ceil(total) * total);
            }
            let window = block.bytes_before(c.run.confirmed + WINDOW_BLOCKS * block.len());
            let limit = ends[k]
                .unwrap_or(u64::MAX)
                .min(window)
                .min(c.cursor + BURST);
            let before = c.cursor;
            write_until(&mut c.session.sock, block, &mut c.cursor, limit).map_err(|e| (k, e))?;
            progress |= c.read(None).map_err(|e| (k, e))? || c.cursor != before;
            if ends[k] == Some(c.cursor) {
                c.run.write_end = Some(Instant::now());
                c.session
                    .sock
                    .shutdown(Shutdown::Write)
                    .map_err(|e| (k, e))?;
            }
        }
        if !progress {
            thread::sleep(IDLE);
        }
    }
    let deadline = Instant::now() + REPLY_TIMEOUT;
    let mut open: Vec<usize> = (0..conns.len()).collect();
    while !open.is_empty() {
        let mut progress = false;
        let mut still = Vec::new();
        for k in open {
            let c = &mut conns[k];
            let (run, plan) = (&mut c.run, c.plan);
            match c
                .session
                .lines
                .pump(&mut c.session.sock, |line, arrived| {
                    record(run, line, arrived, plan, None);
                })
                .map_err(|e| (k, e))?
            {
                Pump::Eof => progress = true,
                Pump::Data => {
                    progress = true;
                    still.push(k);
                }
                Pump::Idle => still.push(k),
            }
        }
        open = still;
        if !progress {
            if Instant::now() > deadline {
                return Err((open[0], io::ErrorKind::TimedOut.into()));
            }
            thread::sleep(IDLE);
        }
    }
    Ok(())
}

/// What one churn thread runs.
pub struct ChurnPlan<'a> {
    /// The session pool.
    pub blocks: &'a [Block],
    /// The reference of each pool session.
    pub expected: &'a [Expected],
    /// First pool index this thread uses.
    pub first: usize,
    /// Pool stride between this thread's sessions.
    pub stride: usize,
    /// Sessions this thread runs.
    pub sessions: u64,
    /// Samples of completed sessions so far, for the sampler.
    pub progress: &'a AtomicU64,
}

/// What one churn thread saw.
#[derive(Debug, Default)]
pub struct ChurnRun {
    /// Sessions run.
    pub sessions: u64,
    /// Samples covered by `done` counts.
    pub samples: u64,
    /// Operations attempted: samples, reference matches, connections.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Match latency from the write of the session's samples, ms.
    pub match_ms: Vec<f64>,
    /// Per session: (start, s since `origin`; connect-to-`done`, ms).
    pub session_ms: Vec<(f64, f64)>,
    /// When the last session ended.
    pub finished: Option<Instant>,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

/// `plan.sessions` back-to-back sessions: connect, write the session,
/// half-close, read to `done`, verify.
pub fn drive_churn(addr: SocketAddr, plan: &ChurnPlan, origin: Instant) -> ChurnRun {
    let mut run = ChurnRun::default();
    for n in 0..plan.sessions as usize {
        let k = (plan.first + n * plan.stride) % plan.blocks.len();
        let (block, expected) = (&plan.blocks[k], &plan.expected[k]);
        let ops = block.len() + expected.per_block.len() as u64 + 1;
        run.sessions += 1;
        run.attempted += ops;
        let started = Instant::now();
        match one_session(addr, block) {
            Ok((transcript, match_ms, done_at)) => {
                let verdict = verify(&transcript, expected, block.len());
                let failed = verdict.failed(block.len());
                run.failed += failed;
                let done = verdict.done.map_or(0, |(_, t)| t.min(block.len()));
                run.samples += done;
                plan.progress.fetch_add(done, Ordering::Relaxed);
                run.match_ms.extend(match_ms);
                if let Some(done) = done_at {
                    let ms = done.saturating_duration_since(started).as_secs_f64() * 1e3;
                    run.session_ms.push(((started - origin).as_secs_f64(), ms));
                }
                if failed > 0 && run.first_error.is_none() {
                    run.first_error = Some(format!("session {k}: {verdict:?}"));
                }
            }
            Err(e) => {
                // A server that stopped answering would cost every
                // remaining session its full reply timeout.
                run.failed += ops;
                run.first_error
                    .get_or_insert_with(|| format!("session {k}: {e}"));
                break;
            }
        }
    }
    run.finished = Some(Instant::now());
    run
}

type SessionOutcome = (String, Vec<f64>, Option<Instant>);

fn one_session(addr: SocketAddr, block: &Block) -> io::Result<SessionOutcome> {
    let mut sock = connect(addr)?;
    sock.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let sent = Instant::now();
    sock.write_all(&block.bytes)?;
    sock.shutdown(Shutdown::Write)?;
    let mut lines = Lines::default();
    let (mut transcript, mut match_ms, mut done_at) = (String::new(), Vec::new(), None);
    loop {
        let pumped = lines.pump(&mut sock, |line, arrived| {
            transcript.push_str(line);
            transcript.push('\n');
            if line.starts_with("match ") && !line.ends_with("(stream end)") {
                match_ms.push(arrived.saturating_duration_since(sent).as_secs_f64() * 1e3);
            } else if line.starts_with("done ") {
                done_at = Some(arrived);
            }
        })?;
        match pumped {
            Pump::Eof => return Ok((transcript, match_ms, done_at)),
            Pump::Data => {}
            Pump::Idle => return Err(io::ErrorKind::TimedOut.into()),
        }
    }
}
