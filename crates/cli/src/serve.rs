//! `spring serve` — a line-protocol monitoring server on a
//! readiness-driven event loop.
//!
//! The paper's motivating deployments (network monitoring, sensor
//! fleets) push values over sockets; this subcommand accepts them. Each
//! TCP connection is one independent stream monitored by its own SPRING
//! instance:
//!
//! ```text
//! client → one numeric value per line (`NaN` = missing reading)
//! server → "match ticks S..=E len L distance D reported_at T" per
//!          confirmed match, "done N match(es) over T ticks" at EOF
//! ```
//!
//! # Architecture (DESIGN.md §6h)
//!
//! One **acceptor thread** multiplexes every connection through a
//! [`Reactor`] (`spring-monitor::reactor`: epoll on Linux, `poll(2)`
//! fallback, in-tree and dependency-free) — there is no
//! thread-per-connection. Sockets are nonblocking; each connection is a
//! small state machine: a [`ProtoParser`] accumulates partial reads
//! into protocol lines (bounded — an unterminated line is cut off at
//! [`proto::MAX_LINE_BYTES`] with a protocol error), decoded samples
//! are pushed into a server-wide [`Runner`] a run at a time (every
//! sample between two non-sample lines goes in with one
//! [`Runner::push_batch`], so commands, errors and EOF keep their place
//! between samples), and everything the client should see is staged in
//! a per-connection write buffer flushed as the socket allows. A slow
//! or dead client therefore never stalls the loop: its buffer fills,
//! its reads pause (backpressure), and past a hard cap the connection
//! is dropped (`spring_conn_dropped_total`).
//!
//! An `error:` line or the final `done` line must come *after* every
//! match for samples pushed before it, so it is written by a
//! [`Runner::mark`]: a callback the stream's own worker runs in queue
//! order, behind those samples. EOF ends the session with one
//! [`Runner::end_stream`], whose marks write the `done` line around the
//! stream-end flush. Nothing waits for a mark. While one is
//! in flight the connection's reads stay paused (so command replies
//! keep their place in the transcript), other connections keep
//! streaming, and a stalled worker delays only its own streams.
//!
//! Matches are delivered by the runner workers through the serve sink
//! straight into the owning connection's write buffer, then the
//! reactor is woken to flush. Per stream, delivery order is the owning
//! worker's confirmation order, as before.
//!
//! Connections whose first line is an HTTP request line (`GET <path>
//! HTTP/1.x`) are answered as HTTP instead: `GET /metrics` returns the
//! server-wide [`Metrics`] registry in the Prometheus text exposition
//! format (including `spring_connections_open`,
//! `spring_conn_read_bytes_total`, `spring_conn_parse_errors_total`,
//! `spring_conn_dropped_total` and the per-worker `spring_shard_*`
//! series), anything else a 404.
//!
//! A partial frame is flushed when its connection's input drains: once
//! no decoded event is left and the socket has nothing more to read,
//! [`Runner::flush`] hands the frame to its worker. A match is therefore
//! reported as soon as the client pauses, never held until the frame
//! fills, and with no timer. Frames end on the same ticks in every
//! transcript, so output is identical for every `--batch`.
//!
//! `--shards` and `--batch` keep their semantics byte-identical to the
//! blocking implementation; `--max-conns` caps
//! concurrent connections (excess connections get one `error:` line
//! and are closed). `--once` serves a single connection then exits
//! (used by the tests; production deployments run without it).
//!
//! The listener binds **loopback only** (`127.0.0.1`): the protocol is
//! unauthenticated, so exposure beyond the host should go through a
//! reverse proxy or tunnel that adds transport security.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

use spring_core::{MonitorSpec, ScalarMonitor};
use spring_dtw::Kernel;
use spring_monitor::reactor::{self, Interest, Reactor, Ready, Waker};
use spring_monitor::{
    AttachmentId, Event, GapPolicy, MatchSink, Metrics, Probe, QueryId, Runner, RunnerAttachment,
    StreamId, TraceEventKind, TraceSnapshot, Tracer,
};

use crate::args::Parsed;
use crate::commands::CliError;
use crate::proto::{self, CarryForward, Command, ProtoEvent, ProtoParser};

/// Bytes read per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;
/// Reads per readiness event before yielding to other connections (the
/// level-triggered reactor re-reports, so nothing is lost): at most
/// 64 KiB per connection per event.
const READS_PER_EVENT: usize = 4;
/// Write-buffer size past which a connection's reads are paused
/// (backpressure: a slow reader stops feeding its own monitor).
const OUT_SOFT_LIMIT: usize = 64 * 1024;
/// Write-buffer size past which a connection is dropped outright (a
/// dead reader must not grow server memory without bound).
const OUT_HARD_LIMIT: usize = 4 * 1024 * 1024;
/// Reactor token of the listening socket (connection tokens are slab
/// indices, far below).
const LISTENER_TOKEN: usize = usize::MAX - 1;
/// Safety-net wait timeout: cross-thread wakes are UDP datagrams, so a
/// periodic sweep guarantees progress even if one is ever dropped.
/// Coarse on purpose — every observed latency is event-driven, this
/// only bounds recovery from a lost wake.
const WAIT_TIMEOUT: Duration = Duration::from_millis(250);

/// Options resolved from the `serve` flags.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Query pattern values.
    pub query: Vec<f64>,
    /// Which monitor variant each connection gets (built via the same
    /// [`MonitorSpec`] path as `spring monitor` and the engine).
    pub spec: MonitorSpec,
    /// Distance kernel.
    pub kernel: Kernel,
    /// Serve a single connection, then return.
    pub once: bool,
    /// Samples per runner frame (`--batch`, clamped to ≥ 1). Output is
    /// identical for every value — `1` is per-sample messaging. A frame
    /// is enqueued when it fills, and a partial one when the client's
    /// input drains (or at a command mark or EOF), so a match is never
    /// held back waiting for more samples.
    pub batch: usize,
    /// Runner workers connections are hashed across (`--shards`,
    /// clamped to ≥ 1).
    pub shards: usize,
    /// Frozen: kept only so existing `ServeOptions` literals (the
    /// benchmark's checks build one) still compile. Partial frames are
    /// flushed when a connection's input drains, so there is no linger
    /// timer; [`serve_listener`] rejects `Some(_)` and callers pass
    /// `None`.
    pub linger: Option<Duration>,
    /// Concurrent-connection cap (`--max-conns`): connections beyond it
    /// receive one `error:` line and are closed.
    pub max_conns: usize,
    /// Stop accepting after this many connections and exit once they
    /// have all completed (`None` = serve forever). Not exposed as a
    /// flag; the conformance harness and benches use it to run a
    /// bounded session. `--once` is `Some(1)`.
    pub accept_limit: Option<usize>,
    /// Flight-recorder directory (`--trace-dir`): enables tracing,
    /// receives postmortem dumps on worker loss and `trace dump`
    /// snapshots. `None` = tracing off (each hook is one branch).
    pub trace_dir: Option<std::path::PathBuf>,
}

/// Builds one HTTP response: `GET /metrics` serves the Prometheus text
/// exposition, `GET /trace` a Chrome trace-event JSON snapshot of the
/// flight recorder (an empty one without a tracer), anything else a
/// 404. A `HEAD` request gets the same
/// status line and headers, `Content-Length` included, and no body
/// (RFC 9110 §9.3.2). The connection is closed after the response
/// (`Connection: close`), so request headers need not be read.
fn http_response(request_line: &str, metrics: Option<&Metrics>, tracer: Option<&Tracer>) -> String {
    let mut parts = request_line.split_whitespace();
    let head = parts.next() == Some("HEAD");
    let path = parts.next().unwrap_or("/");
    let (status, content_type, body) = if path == "/metrics" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            metrics.map_or_else(String::new, Metrics::to_prometheus),
        )
    } else if path == "/trace" {
        (
            "200 OK",
            "application/json; charset=utf-8",
            tracer.map_or_else(
                || TraceSnapshot::default().to_chrome_json(),
                Tracer::to_chrome_json,
            ),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try GET /metrics or GET /trace\n".to_string(),
        )
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        if head { "" } else { &body },
    )
}

/// A connection's staged output: bytes the event loop still has to
/// write to the socket. Consumed from the front without reallocating
/// on every write.
#[derive(Debug, Default)]
struct OutBuf {
    buf: Vec<u8>,
    start: usize,
}

impl OutBuf {
    fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn push_line(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn is_empty(&self) -> bool {
        self.start == self.buf.len()
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= 16 * 1024 {
            // Reclaim consumed prefix once it is worth the memmove.
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// One connection's server-side state shared across threads: the event
/// loop flushes `out`; the runner workers append match lines to it (via
/// [`ServeSink`]) and run the connection's marks, which write its
/// `error:` and `done` lines and lift `paused`.
#[derive(Debug, Default)]
struct ConnShared {
    out: Mutex<OutBuf>,
    /// Matches delivered so far (the `done` line's count).
    matches: AtomicU64,
    /// Set once the client stream has ended and drained: matches
    /// delivered after this point come from the pending-group flush and
    /// are tagged `(stream end)`.
    ended: AtomicBool,
    /// Reads and event processing are suspended: set by the event loop
    /// when it queues a mark, cleared by that mark once its line is
    /// written.
    paused: AtomicBool,
}

impl ConnShared {
    fn out(&self) -> std::sync::MutexGuard<'_, OutBuf> {
        self.out.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn paused(&self) -> bool {
        self.paused.load(Ordering::Acquire)
    }

    /// Lifts the pause (after the mark's line is written) and wakes the
    /// event loop to act on it.
    fn resume(&self, waker: &Waker) {
        self.paused.store(false, Ordering::Release);
        waker.wake();
    }
}

/// The server-wide [`MatchSink`]: routes each event into the write
/// buffer of the connection owning its stream id, then wakes the
/// reactor to flush it. Shard workers call this concurrently for
/// *different* streams; per stream, delivery is serialized by the
/// owning worker, so a connection's match lines stay in confirmation
/// order.
struct ServeSink {
    conns: RwLock<HashMap<StreamId, Arc<ConnShared>>>,
    waker: Waker,
}

impl ServeSink {
    fn get(&self, stream: StreamId) -> Option<Arc<ConnShared>> {
        self.conns
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&stream)
            .cloned()
    }

    fn insert(&self, stream: StreamId, conn: Arc<ConnShared>) {
        self.conns
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(stream, conn);
    }

    fn remove(&self, stream: StreamId) {
        self.conns
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&stream);
    }
}

impl MatchSink for ServeSink {
    fn on_match(&self, event: &Event) {
        // A detached connection's stragglers have nowhere to go.
        let Some(conn) = self.get(event.stream) else {
            return;
        };
        let stream_end = conn.ended.load(Ordering::Acquire);
        conn.matches.fetch_add(1, Ordering::Relaxed);
        conn.out()
            .push_line(&proto::format_match(&event.m, stream_end));
        self.waker.wake();
    }
}

/// Failpoint-instrumented socket ops (`serve::accept`, `serve::read`,
/// `serve::write` — see `spring-monitor::failpoints`). Without the
/// `failpoints` feature these compile to the bare syscall wrappers.
fn sys_accept(listener: &TcpListener) -> io::Result<(TcpStream, std::net::SocketAddr)> {
    spring_monitor::fail_point!("serve::accept", io::Error::other("injected accept fault"));
    listener.accept()
}

fn sys_read(sock: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
    spring_monitor::fail_point!("serve::read", io::Error::other("injected read fault"));
    sock.read(buf)
}

fn sys_write(sock: &mut TcpStream, buf: &[u8]) -> io::Result<usize> {
    spring_monitor::fail_point!("serve::write", io::Error::other("injected write fault"));
    sock.write(buf)
}

/// One connection's event-loop-side state machine.
struct Conn {
    sock: TcpStream,
    shared: Arc<ConnShared>,
    parser: ProtoParser,
    /// Protocol events decoded but not yet acted on (processing stops
    /// while a mark is in flight, so ordering survives pauses).
    pending: VecDeque<ProtoEvent>,
    carry: CarryForward,
    stream_id: StreamId,
    /// A non-HTTP first line arrived: monitor attached, samples flow.
    session: bool,
    ticks: u64,
    /// The client's write side is done (EOF seen).
    eof: bool,
    /// The input drained and its partial frame is not yet flushed: set
    /// when a read returns `WouldBlock`, or when reads stop for a mark
    /// (once the mark lifts, a socket that still holds bytes is reported
    /// readable again, and that read clears the flag). Cleared by a read
    /// that returns bytes and by the flush.
    drained: bool,
    /// Flush remaining output, then close (once no mark is in flight).
    closing: bool,
    /// Interest currently registered with the reactor.
    registered: Interest,
    /// Reads currently paused because staged output crossed
    /// [`OUT_SOFT_LIMIT`] (drives the backpressure trace instants).
    bp_paused: bool,
}

/// The single-threaded accept/read/write loop. See the module docs.
struct EventLoop<'a> {
    listener: &'a TcpListener,
    opts: &'a ServeOptions,
    reactor: &'a mut Reactor,
    runner: Runner<ScalarMonitor>,
    sink: Arc<ServeSink>,
    /// The reactor thread's probe: the server's registry, and with
    /// `--trace-dir` its ring (reactor wakeups, connection open/close,
    /// worker placement, backpressure).
    probe: Probe,
    /// Server-wide query table for the `query`/`attach` verbs: id →
    /// pattern. Seeded with the serve query under id 0; `query update 0`
    /// therefore hot-swaps every default per-connection attachment.
    queries: HashMap<u32, Vec<f64>>,
    /// Every live session's stream → its attachments (its own first,
    /// then those the `attach` verb added). A stream leaves when its
    /// session ends, so `attach` can never target a finished stream.
    sessions: HashMap<StreamId, Vec<AttachmentId>>,
    /// The server-wide flight recorder, present with `--trace-dir`.
    tracer: Option<Tracer>,
    /// Sequence for `trace dump` file names.
    trace_dumps: u64,
    conns: Vec<Option<Conn>>,
    accepted: usize,
    accept_limit: Option<usize>,
    accepting: bool,
    next_stream: u32,
    /// The sample run [`EventLoop::process`] hands to
    /// [`Runner::push_batch`]. One buffer serves every connection: the
    /// loop is single-threaded and each run is pushed before the next
    /// is collected.
    run: Vec<f64>,
    /// The `read(2)` buffer [`EventLoop::on_readable`] fills, reused
    /// like `run`: each read is parsed before the next.
    read_buf: Box<[u8]>,
}

impl EventLoop<'_> {
    fn live(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn is_paused(&self, token: usize) -> bool {
        self.conns
            .get(token)
            .and_then(Option::as_ref)
            .is_some_and(|conn| conn.shared.paused())
    }

    fn run(&mut self) -> Result<(), CliError> {
        self.listener.set_nonblocking(true)?;
        self.reactor
            .register(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        let mut events: Vec<Ready> = Vec::new();
        loop {
            if !self.accepting && self.live() == 0 {
                return Ok(());
            }
            self.reactor.wait(&mut events, Some(WAIT_TIMEOUT))?;
            self.probe
                .instant(TraceEventKind::ReactorWakeup, events.len() as u64);
            for ev in events.iter().copied() {
                if ev.token == LISTENER_TOKEN {
                    self.accept_burst()?;
                } else if ev.closed && self.is_paused(ev.token) {
                    // Hangup or error on a paused connection: the peer
                    // is gone, and no interest mask silences the
                    // report, so drop it now rather than spin until its
                    // mark lifts the pause. The mark still runs, into a
                    // buffer nobody reads.
                    if let Some(conn) = self.conns[ev.token].take() {
                        self.drop_conn(conn, true);
                    }
                } else if ev.readable {
                    self.on_readable(ev.token);
                }
                // Writability is handled by the maintenance sweep: every
                // connection with staged output gets a flush attempt.
            }
            for token in 0..self.conns.len() {
                self.maintain(token);
            }
        }
    }

    fn accept_burst(&mut self) -> Result<(), CliError> {
        while self.accepting {
            let (sock, _) = match sys_accept(self.listener) {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient accept failures (EMFILE, injected
                    // faults) must not take down every live stream.
                    eprintln!("accept error: {e}");
                    break;
                }
            };
            // Every accepted socket counts against the limit, including
            // ones turned away below — the limit bounds accept()s, not
            // completed sessions.
            self.accepted += 1;
            let at_limit = self.accept_limit.is_some_and(|n| self.accepted >= n);
            if at_limit {
                self.accepting = false;
                let _ = self.reactor.deregister(self.listener.as_raw_fd());
            }
            if self.live() >= self.opts.max_conns.max(1) {
                self.probe.count(|m| m.conn_dropped.inc());
                let mut sock = sock;
                let _ = sock.write_all(b"error: server at connection capacity\n");
                if at_limit {
                    break;
                }
                continue; // dropped: the socket closes here
            }
            if sock.set_nonblocking(true).is_err() {
                continue;
            }
            let stream_id = StreamId(self.next_stream);
            self.next_stream = self.next_stream.wrapping_add(1);
            let conn = Conn {
                sock,
                shared: Arc::new(ConnShared::default()),
                parser: ProtoParser::new(),
                pending: VecDeque::new(),
                carry: CarryForward::default(),
                stream_id,
                session: false,
                ticks: 0,
                eof: false,
                drained: false,
                closing: false,
                registered: Interest::READ,
                bp_paused: false,
            };
            let token = match self.conns.iter().position(Option::is_none) {
                Some(i) => i,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            if let Err(e) = self
                .reactor
                .register(conn.sock.as_raw_fd(), token, Interest::READ)
            {
                eprintln!("client register error: {e}");
                continue;
            }
            self.probe.conn_open(stream_id.0);
            self.conns[token] = Some(conn);
        }
        Ok(())
    }

    fn on_readable(&mut self, token: usize) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        let mut failed = false;
        for _ in 0..READS_PER_EVENT {
            if conn.eof || conn.closing {
                break;
            }
            if conn.shared.paused() {
                conn.drained = true;
                break;
            }
            match sys_read(&mut conn.sock, &mut self.read_buf) {
                Ok(0) => {
                    conn.eof = true;
                    conn.parser.finish(&mut conn.pending);
                }
                Ok(n) => {
                    conn.drained = false;
                    self.probe.count(|m| m.conn_read_bytes.add(n as u64));
                    conn.parser.feed(&self.read_buf[..n], &mut conn.pending);
                    self.process(&mut conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.drained = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Reset mid-stream: nothing more to tell the client.
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            self.drop_conn(conn, true);
        } else {
            self.process(&mut conn);
            self.conns[token] = Some(conn);
        }
    }

    /// Runs the connection's protocol state machine over its decoded
    /// events until it empties, pauses on a mark, or closes, then flushes
    /// the partial frame if that emptied a drained input.
    fn process(&mut self, conn: &mut Conn) {
        if !conn.session
            && !conn.closing
            && !conn.parser.awaiting_first_line()
            && !conn.parser.is_http()
        {
            // A first line arrived and it is not an HTTP request: this
            // is a sensor session. Register with the sink *before*
            // attaching, so the first match can never race past the
            // routing table. The pattern comes from the query table
            // (id 0) so connections opened after a `query update 0` see
            // the swapped pattern from their first sample.
            let pattern = self.queries.get(&0).unwrap_or(&self.opts.query);
            match self.opts.spec.build(pattern, self.opts.kernel) {
                Ok(monitor) => {
                    self.sink.insert(conn.stream_id, Arc::clone(&conn.shared));
                    let monitor_spec = self.opts.spec;
                    let kernel = self.opts.kernel;
                    let spec = RunnerAttachment::new(
                        conn.stream_id,
                        QueryId(0),
                        monitor,
                        // Gaps never reach the attachment — they are
                        // resolved by CarryForward, like the historical
                        // per-connection loop.
                        GapPolicy::Skip,
                    )
                    // The stored recipe lets `query update 0` hot-swap
                    // this attachment in place.
                    .with_builder(move |q| monitor_spec.build(q, kernel));
                    match self.runner.attach(spec) {
                        Ok(id) => {
                            self.sessions.insert(conn.stream_id, vec![id]);
                            conn.session = true;
                            self.probe.instant(
                                TraceEventKind::ShardRoute,
                                self.runner.worker_of(conn.stream_id) as u64,
                            );
                        }
                        Err(e) => {
                            self.sink.remove(conn.stream_id);
                            conn.shared.out().push_line(&format!("error: {e}"));
                            conn.closing = true;
                            conn.pending.clear();
                        }
                    }
                }
                Err(e) => {
                    conn.shared.out().push_line(&format!("error: {e}"));
                    conn.closing = true;
                    conn.pending.clear();
                }
            }
        }
        while !conn.shared.paused() && !conn.closing {
            let Some(ev) = conn.pending.pop_front() else {
                break;
            };
            match ev {
                ProtoEvent::Http(line) => {
                    let metrics = self.probe.metrics().map(Arc::as_ref);
                    let response = http_response(&line, metrics, self.tracer.as_ref());
                    conn.shared.out().push_bytes(response.as_bytes());
                    conn.closing = true;
                    conn.pending.clear();
                }
                ProtoEvent::Sample(v) => {
                    // This sample and every sample queued directly
                    // behind it go to the runner as one run. Any other
                    // event ends the run, so commands, error marks and
                    // EOF keep their place between samples. Missing
                    // readings carry the last observation (sensors
                    // hold); leading gaps are dropped.
                    self.run.clear();
                    self.run.extend(conn.carry.resolve(v));
                    while let Some(&ProtoEvent::Sample(v)) = conn.pending.front() {
                        conn.pending.pop_front();
                        self.run.extend(conn.carry.resolve(v));
                    }
                    if self.run.is_empty() {
                        continue;
                    }
                    conn.ticks += self.run.len() as u64;
                    if let Err(e) = self.runner.push_batch(conn.stream_id, &self.run) {
                        // Fatal for this stream: report and end it, like
                        // the blocking loop's `break`.
                        conn.pending.clear();
                        conn.eof = true;
                        self.end_session(conn, Some(e.to_string()));
                    }
                }
                ProtoEvent::Command(cmd) => {
                    // Control verbs run inline on the acceptor: they
                    // only enqueue against the worker queues (like
                    // `push_batch`), never wait on them. The reply lands
                    // in the issuing connection's buffer, in order with
                    // its other lines.
                    let reply = match self.run_command(cmd) {
                        Ok(line) => line,
                        Err(msg) => format!("error: {msg}"),
                    };
                    conn.shared.out().push_line(&reply);
                }
                ProtoEvent::Error(line) => {
                    // The error line goes after the matches of every
                    // sample before it; reads resume once it is written.
                    self.probe.count(|m| m.conn_parse_errors.inc());
                    conn.shared.paused.store(true, Ordering::Release);
                    let (shared, sink) = (Arc::clone(&conn.shared), Arc::clone(&self.sink));
                    let _ = self.runner.mark(conn.stream_id, move || {
                        shared.out().push_line(&format!("error: {line}"));
                        shared.resume(&sink.waker);
                    });
                }
            }
        }
        if !conn.shared.paused() && !conn.closing && conn.eof && conn.pending.is_empty() {
            if conn.session {
                self.end_session(conn, None);
            } else {
                // Connected and hung up without a single line.
                conn.closing = true;
            }
        }
        if conn.drained
            && conn.session
            && !conn.closing
            && !conn.shared.paused()
            && conn.pending.is_empty()
        {
            // The client paused: no more samples are coming for now, so
            // the partial frame goes to the worker and its matches are
            // reported without waiting for the frame to fill.
            conn.drained = false;
            if let Err(e) = self.runner.flush(conn.stream_id) {
                conn.eof = true;
                self.end_session(conn, Some(e.to_string()));
            }
        }
    }

    /// Ends a session without waiting, in one worker message
    /// ([`Runner::end_stream`]). Its first mark writes the optional
    /// final `error:` line and tags the stream-end flush that follows;
    /// its second mark, behind that flush, writes the `done` line,
    /// removes the stream from the sink and lets the connection close.
    /// The stream's attachments are detached behind both.
    fn end_session(&mut self, conn: &mut Conn, error_line: Option<String>) {
        let stream = conn.stream_id;
        conn.closing = true;
        conn.shared.paused.store(true, Ordering::Release);
        self.sessions.remove(&stream);
        let before = Arc::clone(&conn.shared);
        let (shared, sink, ticks) = (Arc::clone(&conn.shared), Arc::clone(&self.sink), conn.ticks);
        let _ = self.runner.end_stream(
            stream,
            move || {
                if let Some(line) = error_line {
                    before.out().push_line(&format!("error: {line}"));
                }
                before.ended.store(true, Ordering::Release);
            },
            move || {
                let count = shared.matches.load(Ordering::Relaxed);
                shared
                    .out()
                    .push_line(&format!("done {count} match(es) over {ticks} ticks"));
                sink.remove(stream);
                shared.resume(&sink.waker);
            },
        );
    }

    /// Executes one fleet-control verb. Returns the `ok …` reply line,
    /// or the message for an `error: …` line.
    ///
    /// - `query add <id> <v…>` registers a pattern in the server-wide
    ///   table (rejecting ids already present — `update` is the
    ///   explicit swap verb).
    /// - `query update <id> <v…>` hot-swaps the pattern across every
    ///   live attachment of that query id, fleet-wide and at a frame
    ///   boundary, and reports the new generation.
    /// - `query drop <id>` removes the table entry; attachments built
    ///   from it keep running until their stream ends.
    /// - `attach <stream> <query-id> <eps>` adds a second monitor to a
    ///   live stream; its matches interleave into that stream's output
    ///   and it is detached when the stream ends.
    fn run_command(&mut self, cmd: Command) -> Result<String, String> {
        match cmd {
            Command::QueryAdd { id, values } => {
                // Build once up front so a bad pattern fails here, not
                // at first attach.
                self.opts
                    .spec
                    .build(&values, self.opts.kernel)
                    .map_err(|e| e.to_string())?;
                if self.queries.contains_key(&id) {
                    return Err(format!("query {id} already exists; use `query update`"));
                }
                let m = values.len();
                self.queries.insert(id, values);
                Ok(format!("ok query {id} added (m={m})"))
            }
            Command::QueryUpdate { id, values } => {
                if !self.queries.contains_key(&id) {
                    return Err(format!("unknown query {id}; use `query add` first"));
                }
                let generation = self
                    .runner
                    .swap_query(QueryId(id), &values)
                    .map_err(|e| e.to_string())?;
                self.queries.insert(id, values);
                Ok(format!("ok query {id} generation {generation}"))
            }
            Command::QueryDrop { id } => {
                if id == 0 {
                    return Err("query 0 is the serve default and cannot be dropped".into());
                }
                if self.queries.remove(&id).is_some() {
                    Ok(format!("ok query {id} dropped"))
                } else {
                    Err(format!("unknown query {id}"))
                }
            }
            Command::Attach {
                stream,
                query,
                epsilon,
            } => {
                if !epsilon.is_finite() || epsilon < 0.0 {
                    return Err("attach: eps must be a finite non-negative number".into());
                }
                let values = self
                    .queries
                    .get(&query)
                    .ok_or_else(|| format!("unknown query {query}; use `query add` first"))?;
                let target = StreamId(stream);
                let Some(attachments) = self.sessions.get_mut(&target) else {
                    return Err(format!("no live stream {stream}"));
                };
                let kernel = self.opts.kernel;
                let monitor_spec = MonitorSpec::Spring { epsilon };
                let monitor = monitor_spec
                    .build(values, kernel)
                    .map_err(|e| e.to_string())?;
                let spec = RunnerAttachment::new(target, QueryId(query), monitor, GapPolicy::Skip)
                    .with_builder(move |q| monitor_spec.build(q, kernel));
                let id = self.runner.attach(spec).map_err(|e| e.to_string())?;
                attachments.push(id);
                Ok(format!("ok attach stream {stream} query {query}"))
            }
            Command::TraceDump => {
                let (Some(dir), Some(tracer)) = (&self.opts.trace_dir, &self.tracer) else {
                    return Err("tracing is off; start the server with --trace-dir".into());
                };
                let path = dir.join(format!("trace-{}.json", self.trace_dumps));
                self.trace_dumps += 1;
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                tracer.write_chrome_json(&path).map_err(|e| e.to_string())?;
                let events = tracer.snapshot().total_events();
                Ok(format!(
                    "ok trace dump {} ({events} events)",
                    path.display()
                ))
            }
        }
    }

    /// Per-iteration sweep: resume paused work, flush staged output,
    /// enforce buffer caps, update reactor interest, close drained
    /// connections.
    fn maintain(&mut self, token: usize) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        self.process(&mut conn);
        if self.flush_out(&mut conn).is_err() {
            self.drop_conn(conn, true);
            return;
        }
        // Read the pause first: a mark writes its line before lifting
        // the pause, so a lifted pause implies `out_len` counts the line.
        let paused = conn.shared.paused();
        let out_len = conn.shared.out().len();
        if out_len > OUT_HARD_LIMIT {
            // A dead reader: its buffer can only grow. Cut it loose.
            self.probe.instant(
                TraceEventKind::BackpressureDrop,
                u64::from(conn.stream_id.0),
            );
            self.drop_conn(conn, true);
            return;
        }
        if conn.closing && out_len == 0 && !paused {
            self.drop_conn(conn, false);
            return;
        }
        let congested = out_len >= OUT_SOFT_LIMIT;
        if congested != conn.bp_paused {
            let kind = if congested {
                TraceEventKind::BackpressurePause
            } else {
                TraceEventKind::BackpressureResume
            };
            self.probe.instant(kind, u64::from(conn.stream_id.0));
            conn.bp_paused = congested;
        }
        let desired = Interest {
            readable: !conn.closing && !conn.eof && !paused && out_len < OUT_SOFT_LIMIT,
            writable: out_len > 0,
        };
        if desired != conn.registered {
            if self
                .reactor
                .modify(conn.sock.as_raw_fd(), token, desired)
                .is_err()
            {
                self.drop_conn(conn, true);
                return;
            }
            conn.registered = desired;
        }
        self.conns[token] = Some(conn);
    }

    /// Writes as much staged output as the socket accepts right now.
    fn flush_out(&mut self, conn: &mut Conn) -> io::Result<()> {
        let mut out = conn.shared.out();
        loop {
            if out.is_empty() {
                return Ok(());
            }
            match sys_write(&mut conn.sock, out.pending()) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => out.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => Err(e)?,
            }
        }
    }

    /// Removes a connection: deregisters, closes the socket, and for a
    /// session aborted before its end detaches its attachments and
    /// unroutes its stream at once (an ended session's `done` mark has
    /// done both). `dropped` distinguishes failures from normal
    /// completion in `spring_conn_dropped_total`.
    fn drop_conn(&mut self, conn: Conn, dropped: bool) {
        let _ = self.reactor.deregister(conn.sock.as_raw_fd());
        self.probe.conn_close(conn.stream_id.0, dropped);
        if let Some(attachments) = self.sessions.remove(&conn.stream_id) {
            for id in attachments {
                let _ = self.runner.detach(id);
            }
            self.sink.remove(conn.stream_id);
        }
        // `conn` drops here, closing the socket.
    }
}

/// Serves connections from an already-bound listener. Exposed so tests
/// can bind an ephemeral port; `run_serve` is the CLI entry point.
///
/// # Errors
/// Rejects `opts.linger = Some(_)` (there is no linger timer: see
/// [`ServeOptions::linger`]); otherwise I/O and runner failures.
pub fn serve_listener(
    listener: TcpListener,
    opts: ServeOptions,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    serve_with_reactor(listener, opts, out, Reactor::new()?)
}

/// [`serve_listener`] on a given reactor (the tests pick its backend).
pub(crate) fn serve_with_reactor(
    listener: TcpListener,
    opts: ServeOptions,
    out: &mut dyn Write,
    mut reactor: Reactor,
) -> Result<(), CliError> {
    if opts.linger.is_some() {
        return Err(CliError::Compute(
            "serve has no linger timer: partial frames are flushed when a \
             connection's input drains; pass `linger: None`"
                .into(),
        ));
    }
    writeln!(out, "listening on {}", listener.local_addr()?)?;
    out.flush()?;
    // `TcpListener::bind` hardcodes a backlog of 128; a burst of
    // simultaneous connects beyond that gets its SYNs dropped and each
    // straggler stalls for a full TCP retransmission timeout (~1 s)
    // before it can even connect. Widen the backlog to the connection
    // budget (best-effort: the kernel clamps to somaxconn, and on
    // failure the listener just keeps its default backlog).
    let _ = reactor::widen_listen_backlog(&listener, opts.max_conns.max(128));
    // One registry and one runner for the whole server: every
    // connection's attachment feeds them, and any `GET /metrics`
    // connection scrapes the registry.
    let metrics = Arc::new(Metrics::new());
    let sink = Arc::new(ServeSink {
        conns: RwLock::default(),
        waker: reactor.waker(),
    });
    // One flight recorder for the whole server, only with `--trace-dir`:
    // without it no probe holds a ring, so each trace hook is one
    // `Option` check.
    let tracer = opts.trace_dir.as_ref().map(|dir| {
        let tracer = Tracer::new();
        tracer.set_postmortem_dir(Some(dir.clone()));
        tracer
    });
    let mut runner = Runner::spawn_with_observability(
        Vec::new(),
        opts.shards.max(1),
        Arc::clone(&sink) as Arc<dyn MatchSink>,
        Some(Arc::clone(&metrics)),
        spring_monitor::RestartPolicy::default(),
        tracer.clone(),
    )
    .map_err(|e| CliError::Compute(e.to_string()))?;
    runner.set_max_batch(opts.batch.max(1));
    let accept_limit = if opts.once {
        Some(1)
    } else {
        opts.accept_limit
    };
    let probe = Probe::new(Some(metrics), tracer.as_ref(), "reactor");
    let mut event_loop = EventLoop {
        listener: &listener,
        opts: &opts,
        reactor: &mut reactor,
        runner,
        sink,
        probe,
        queries: HashMap::from([(0u32, opts.query.clone())]),
        sessions: HashMap::new(),
        tracer,
        trace_dumps: 0,
        conns: Vec::new(),
        accepted: 0,
        accept_limit,
        accepting: true,
        next_stream: 0,
        run: Vec::new(),
        read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
    };
    let result = event_loop.run();
    event_loop
        .runner
        .shutdown()
        .map_err(|e| CliError::Compute(e.to_string()))?;
    result
}

/// Default worker count (`--shards`): one per core, capped at 8 (each
/// worker has its own channel, supervisor and checkpoints, so more than
/// a handful only pays off with very many connections).
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Default concurrent-connection cap (`--max-conns`).
const DEFAULT_MAX_CONNS: usize = 1024;

/// `spring serve` — parse flags, bind, and serve.
pub fn run_serve(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let p = Parsed::parse(
        argv,
        &[
            "query",
            "epsilon",
            "port",
            "kernel",
            "min-len",
            "max-len",
            "max-run",
            "normalize",
            "batch",
            "shards",
            "max-conns",
            "trace-dir",
        ],
        &["once"],
    )?;
    p.positionals(0)?;
    let query = crate::commands::read_query(p.require("query")?)?;
    let epsilon: f64 = p.require_parsed("epsilon", "number")?;
    let spec = crate::commands::spec_from_flags(&p, epsilon)?;
    let kernel = crate::commands::parse_kernel(&p)?;
    let port: u16 = p.get_parsed("port", "integer")?.unwrap_or(7471);
    let batch: usize = p
        .get_parsed("batch", "integer")?
        .unwrap_or(spring_monitor::DEFAULT_MAX_BATCH)
        .max(1);
    let shards: usize = p
        .get_parsed("shards", "integer")?
        .unwrap_or_else(default_shards)
        .max(1);
    let max_conns: usize = p
        .get_parsed("max-conns", "integer")?
        .unwrap_or(DEFAULT_MAX_CONNS)
        .max(1);
    let trace_dir = p.get("trace-dir").map(std::path::PathBuf::from);
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    serve_listener(
        listener,
        ServeOptions {
            query,
            spec,
            kernel,
            once: p.has("once"),
            batch,
            shards,
            linger: None,
            max_conns,
            accept_limit: None,
            trace_dir,
        },
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpStream;

    fn opts(query: Vec<f64>, epsilon: f64) -> ServeOptions {
        ServeOptions {
            query,
            spec: MonitorSpec::Spring { epsilon },
            kernel: Kernel::Squared,
            once: true,
            // Small odd batch: exercises mid-stream flushes and
            // trailing partial batches in every test below.
            batch: 3,
            shards: 2,
            linger: None,
            max_conns: 64,
            accept_limit: None,
            trace_dir: None,
        }
    }

    fn start_with(options: ServeOptions) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            serve_listener(listener, options, &mut Vec::new()).unwrap();
        });
        (addr, handle)
    }

    fn start(query: Vec<f64>, epsilon: f64) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        start_with(opts(query, epsilon))
    }

    #[test]
    fn streams_values_and_receives_matches_live() {
        let (addr, server) = start(vec![0.0, 9.0, 0.0], 1.0);
        let mut conn = TcpStream::connect(addr).unwrap();
        // Quiet, then the pattern, then quiet: the report confirms one
        // tick after the pattern completes.
        for v in [50.0, 50.0, 0.0, 9.0, 0.0, 50.0, 50.0] {
            writeln!(conn, "{v}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        server.join().unwrap();
        assert!(response.contains("match ticks 3..=5"), "{response}");
        assert!(
            response.contains("done 1 match(es) over 7 ticks"),
            "{response}"
        );
    }

    #[test]
    fn trailing_candidate_flushes_at_eof() {
        let (addr, server) = start(vec![1.0, 2.0, 3.0], 0.5);
        let mut conn = TcpStream::connect(addr).unwrap();
        for v in [9.0, 1.0, 2.0, 3.0] {
            writeln!(conn, "{v}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        server.join().unwrap();
        assert!(response.contains("(stream end)"), "{response}");
        assert!(response.contains("ticks 2..=4"), "{response}");
    }

    #[test]
    fn garbage_lines_get_an_error_without_killing_the_session() {
        let (addr, server) = start(vec![0.0, 9.0, 0.0], 1.0);
        let mut conn = TcpStream::connect(addr).unwrap();
        writeln!(conn, "not-a-number").unwrap();
        for v in [0.0, 9.0, 0.0] {
            writeln!(conn, "{v}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        server.join().unwrap();
        assert!(response.contains("error: `not-a-number`"), "{response}");
        assert!(response.contains("done 1 match(es)"), "{response}");
    }

    #[test]
    fn oversized_lines_are_cut_off_with_a_protocol_error() {
        let (addr, server) = start(vec![0.0, 9.0, 0.0], 1.0);
        let mut conn = TcpStream::connect(addr).unwrap();
        // A line that never ends until well past the cap, then a valid
        // session: the server must bound its buffer, report once, and
        // keep monitoring.
        let huge = vec![b'7'; proto::MAX_LINE_BYTES + 1000];
        conn.write_all(&huge).unwrap();
        conn.write_all(b"\n").unwrap();
        for v in [0.0, 9.0, 0.0] {
            writeln!(conn, "{v}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        server.join().unwrap();
        assert!(
            response.contains(&format!(
                "error: line exceeds {} bytes",
                proto::MAX_LINE_BYTES
            )),
            "{response}"
        );
        assert!(
            response.contains("done 1 match(es) over 3 ticks"),
            "{response}"
        );
    }

    #[test]
    fn serve_builds_variant_monitors_from_specs() {
        let (addr, server) = start_with(ServeOptions {
            query: vec![0.0, 9.0, 0.0],
            spec: MonitorSpec::Bounded {
                epsilon: 1.0,
                min_len: 3,
                max_len: 3,
            },
            kernel: Kernel::Squared,
            once: true,
            batch: spring_monitor::DEFAULT_MAX_BATCH,
            shards: 1,
            linger: None,
            max_conns: 64,
            accept_limit: None,
            trace_dir: None,
        });
        let mut conn = TcpStream::connect(addr).unwrap();
        // A stretched occurrence (len 5, rejected by the bound) and a
        // crisp one (len 3, reported).
        for v in [50.0, 0.0, 9.0, 9.0, 9.0, 0.0, 50.0, 0.0, 9.0, 0.0, 50.0] {
            writeln!(conn, "{v}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        server.join().unwrap();
        assert!(response.contains("done 1 match(es)"), "{response}");
        assert!(response.contains("ticks 8..=10"), "{response}");
    }

    #[test]
    fn drained_input_delivers_partial_frame_matches_before_eof() {
        // Seven samples never fill a frame of 64 or 1024: the match must
        // arrive while the client's write side is still open, because the
        // server flushes the partial frame once the socket drains. Behind
        // `bad` the samples wait for its error mark and are pushed when
        // the mark lifts the pause, with no read left to see the socket
        // drain: they must be flushed too.
        let plain = ["50", "50", "0", "9", "0", "50", "50"];
        let after_error = ["bad", "50", "50", "0", "9", "0", "50", "50"];
        for batch in [1024, 64] {
            for lines in [&plain[..], &after_error[..]] {
                let (addr, server) = start_with(ServeOptions {
                    batch,
                    ..opts(vec![0.0, 9.0, 0.0], 1.0)
                });
                let mut conn = TcpStream::connect(addr).unwrap();
                // A held match shows as a timeout, not a hung test.
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                conn.write_all(format!("{}\n", lines.join("\n")).as_bytes())
                    .unwrap();
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut before = Vec::new();
                while !before.last().is_some_and(|l: &String| l.contains("match")) {
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).unwrap() > 0, "{before:?}");
                    before.push(line);
                }
                let want: &[&str] = match lines[0] {
                    "bad" => &["error: `bad` is not a number\n", "match ticks 3..=5"],
                    _ => &["match ticks 3..=5"],
                };
                assert_eq!(before.len(), want.len(), "batch {batch}: {before:?}");
                for (got, want) in before.iter().zip(want) {
                    assert!(got.starts_with(want), "batch {batch}: {before:?}");
                }
                conn.shutdown(std::net::Shutdown::Write).unwrap();
                let mut rest = String::new();
                reader.read_to_string(&mut rest).unwrap();
                server.join().unwrap();
                assert!(rest.contains("done 1 match(es) over 7 ticks"), "{rest}");
            }
        }
    }

    #[test]
    fn serve_listener_rejects_a_linger() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let opts = ServeOptions {
            linger: Some(Duration::from_millis(5)),
            ..opts(vec![0.0, 9.0, 0.0], 1.0)
        };
        let err = serve_listener(listener, opts, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("no linger timer"), "{err}");
    }

    #[test]
    fn http_get_metrics_scrapes_prometheus_text() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Five connections: one data session, a `/metrics` and a
        // `/trace` scrape, a `HEAD /metrics`, and a 404. No
        // `--trace-dir`: the recorder is off, as in every default server.
        let server = std::thread::spawn(move || {
            serve_listener(
                listener,
                ServeOptions {
                    query: vec![0.0, 9.0, 0.0],
                    spec: MonitorSpec::Spring { epsilon: 1.0 },
                    kernel: Kernel::Squared,
                    once: false,
                    // Per-sample messaging: `--batch 1` compatibility.
                    batch: 1,
                    shards: 2,
                    linger: None,
                    max_conns: 64,
                    accept_limit: Some(5),
                    trace_dir: None,
                },
                &mut Vec::new(),
            )
            .unwrap();
        });
        // A data connection first, so the registry has something to show.
        // With the recorder off, `trace dump` is refused and the session
        // goes on: the pattern after it still matches.
        let mut conn = TcpStream::connect(addr).unwrap();
        for line in ["50", "50", "trace dump", "0", "9", "0", "50", "50"] {
            writeln!(conn, "{line}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("error: tracing is off; start the server with --trace-dir\n"),
            "{response}"
        );
        assert!(response.contains("match ticks 3..=5"), "{response}");
        assert!(response.contains("done 1 match(es)"), "{response}");
        // Scrape: the same port answers HTTP.
        let mut scrape = TcpStream::connect(addr).unwrap();
        write!(scrape, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        scrape.shutdown(std::net::Shutdown::Write).unwrap();
        let mut http = String::new();
        scrape.read_to_string(&mut http).unwrap();
        assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
        assert!(
            http.contains("Content-Type: text/plain; version=0.0.4"),
            "{http}"
        );
        assert!(http.contains("spring_ticks_total 7"), "{http}");
        assert!(http.contains("spring_matches_total 1"), "{http}");
        // Build identity and uptime ride along with every scrape. The
        // feature list names only what this build compiled in.
        assert!(http.contains("spring_build_info{version="), "{http}");
        let features = if cfg!(feature = "failpoints") {
            "failpoints"
        } else {
            ""
        };
        assert!(
            http.contains(&format!(",features=\"{features}\"}} 1\n")),
            "{http}"
        );
        assert!(http.contains("spring_uptime_seconds "), "{http}");
        assert!(
            http.contains("spring_tick_latency_seconds_bucket"),
            "{http}"
        );
        assert!(
            http.contains("spring_detection_delay_ticks_count"),
            "{http}"
        );
        // The serve-path metrics: the scrape connection itself is the
        // one open connection, and the data session's bytes are
        // accounted.
        assert!(http.contains("spring_connections_open 1"), "{http}");
        assert!(!http.contains("spring_conn_read_bytes_total 0\n"), "{http}");
        assert!(http.contains("spring_conn_parse_errors_total 0"), "{http}");
        // The per-worker `spring_shard_*` series are exposed too, and the
        // connection's 7 ticks all landed on its owning worker.
        assert!(
            http.contains("spring_shard_ticks_total{shard=\"0\"}"),
            "{http}"
        );
        assert!(
            http.contains("spring_shard_queue_depth{shard=\"1\"}"),
            "{http}"
        );
        // `/trace` with the recorder off: a valid chrome-trace document
        // with no tracks, so nothing but the process-name record.
        let mut trace = TcpStream::connect(addr).unwrap();
        write!(trace, "GET /trace HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        trace.shutdown(std::net::Shutdown::Write).unwrap();
        let mut http = String::new();
        trace.read_to_string(&mut http).unwrap();
        assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
        let body = http.split("\r\n\r\n").nth(1).unwrap();
        let doc = spring_util::json::Value::parse(body).expect("valid chrome-trace JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), 1, "{body}");
        assert_eq!(
            events[0].get("name").and_then(|v| v.as_str()),
            Some("process_name"),
            "{body}"
        );
        let tracks = doc.get("otherData").and_then(|v| v.as_arr()).unwrap();
        assert!(tracks.is_empty(), "{body}");
        // `HEAD`: the GET status line and headers, `Content-Length`
        // included, and not one byte after them.
        let mut head = TcpStream::connect(addr).unwrap();
        write!(head, "HEAD /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        head.shutdown(std::net::Shutdown::Write).unwrap();
        let mut http = String::new();
        head.read_to_string(&mut http).unwrap();
        assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
        let (headers, body) = http.split_once("\r\n\r\n").expect("header terminator");
        assert_eq!(body, "", "{http}");
        let length: usize = headers
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .parse()
            .unwrap();
        assert!(length > 1000, "a GET would carry the exposition: {http}");
        let (metrics, tracer) = (Metrics::new(), Tracer::new());
        let get = http_response("GET /nope HTTP/1.1", Some(&metrics), Some(&tracer));
        let head = http_response("HEAD /nope HTTP/1.1", Some(&metrics), Some(&tracer));
        assert_eq!(head.as_str(), &get[..get.find("\r\n\r\n").unwrap() + 4]);
        // Unknown paths get a 404, not a protocol error.
        let mut other = TcpStream::connect(addr).unwrap();
        write!(other, "GET /nope HTTP/1.1\r\n\r\n").unwrap();
        other.shutdown(std::net::Shutdown::Write).unwrap();
        let mut nf = String::new();
        other.read_to_string(&mut nf).unwrap();
        assert!(nf.starts_with("HTTP/1.1 404 Not Found"), "{nf}");
        server.join().unwrap();
    }

    #[test]
    fn http_get_trace_and_trace_dump_expose_the_flight_recorder() {
        let dir = std::env::temp_dir().join(format!("spring-serve-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut options = opts(vec![0.0, 9.0, 0.0], 1.0);
        options.once = false;
        options.accept_limit = Some(2);
        options.trace_dir = Some(dir.clone());
        let (addr, server) = start_with(options);
        // A data session: stream the pattern, ask for a dump, finish.
        let mut conn = TcpStream::connect(addr).unwrap();
        for v in [50.0, 0.0, 9.0, 0.0, 50.0] {
            writeln!(conn, "{v}").unwrap();
        }
        writeln!(conn, "trace dump").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        BufReader::new(&conn).read_to_string(&mut response).unwrap();
        assert!(response.contains("ok trace dump "), "{response}");
        let dumped = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("trace-"))
            .expect("trace dump must write a file");
        let doc = spring_util::json::Value::parse(&std::fs::read_to_string(dumped.path()).unwrap())
            .expect("dump must be valid JSON");
        assert!(doc.get("traceEvents").and_then(|v| v.as_arr()).is_some());
        // The HTTP endpoint serves the same document live.
        let mut scrape = TcpStream::connect(addr).unwrap();
        write!(scrape, "GET /trace HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        scrape.shutdown(std::net::Shutdown::Write).unwrap();
        let mut http = String::new();
        scrape.read_to_string(&mut http).unwrap();
        server.join().unwrap();
        assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
        assert!(http.contains("Content-Type: application/json"), "{http}");
        let body = http.split("\r\n\r\n").nth(1).unwrap();
        let doc = spring_util::json::Value::parse(body).expect("valid chrome-trace JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // The reactor and connection instrumentation recorded real
        // events (conn_open instants at minimum).
        assert!(!events.is_empty(), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An HTTP GET against the server; returns the response body.
    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut http = String::new();
        conn.read_to_string(&mut http).unwrap();
        assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
        http.split("\r\n\r\n").nth(1).unwrap().to_string()
    }

    #[test]
    fn a_session_costs_a_constant_few_wakeups_and_worker_messages() {
        // A session's tail (EOF to `done`) must not busy-poll the event
        // loop, and its end must be one worker message.
        const SESSIONS: usize = 50;
        let dir = std::env::temp_dir().join(format!("spring-serve-count-{}", std::process::id()));
        let mut options = opts(vec![0.0, 9.0, 0.0], 1.0);
        options.once = false;
        options.batch = 64;
        options.accept_limit = Some(SESSIONS + 2);
        options.trace_dir = Some(dir.clone());
        let (addr, server) = start_with(options);
        // 256 samples, so a session is the attach, four full frames and
        // the end; one write, so the server reads them in one go.
        let payload: String = (0..256).map(|t| format!("{}\n", t % 7)).collect();
        for _ in 0..SESSIONS {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(payload.as_bytes()).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            assert!(response.ends_with("over 256 ticks\n"), "{response}");
        }
        let trace = http_get(addr, "/trace");
        let metrics = http_get(addr, "/metrics");
        server.join().unwrap();
        let doc = spring_util::json::Value::parse(&trace).expect("valid chrome-trace JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let count = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .count()
        };
        let (wakeups, opens) = (count("reactor_wakeup"), count("conn_open"));
        // The sessions and the `GET /trace` connection itself.
        assert_eq!(opens, SESSIONS + 1);
        let per_session = wakeups as f64 / opens as f64;
        eprintln!("reactor wakeups: {wakeups} over {opens} connections ({per_session:.1} each)");
        assert!(
            per_session <= 8.0,
            "{wakeups} wakeups for {opens} connections"
        );
        let messages: u64 = metrics
            .lines()
            .filter(|l| l.starts_with("spring_shard_messages_total{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        eprintln!("worker messages: {messages} over {SESSIONS} sessions");
        assert_eq!(messages, 6 * SESSIONS as u64, "{metrics}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_readings_carry_forward() {
        let (addr, server) = start(vec![1.0, 2.0, 3.0], 0.1);
        let mut conn = TcpStream::connect(addr).unwrap();
        for v in ["9", "1", "2", "NaN", "3", "9", "9"] {
            writeln!(conn, "{v}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        server.join().unwrap();
        assert!(response.contains("ticks 2..=5"), "{response}");
    }

    #[test]
    fn connection_cap_rejects_with_an_error_line() {
        let mut options = opts(vec![0.0, 9.0, 0.0], 1.0);
        options.once = false;
        options.max_conns = 1;
        options.accept_limit = Some(2);
        let (addr, server) = start_with(options);
        // First connection occupies the only slot…
        let mut first = TcpStream::connect(addr).unwrap();
        writeln!(first, "1.0").unwrap();
        let mut over = TcpStream::connect(addr).unwrap();
        let mut rejection = String::new();
        // …so the second is turned away immediately.
        over.read_to_string(&mut rejection).unwrap();
        assert!(
            rejection.contains("error: server at connection capacity"),
            "{rejection}"
        );
        first.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        first.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("done 0 match(es) over 1 ticks"),
            "{response}"
        );
        server.join().unwrap();
    }

    #[test]
    fn query_update_hot_swaps_the_running_session() {
        let (addr, server) = start(vec![0.0, 9.0, 0.0], 1.0);
        let mut conn = TcpStream::connect(addr).unwrap();
        // Quiet samples under the original pattern, then a fleet-wide
        // hot-swap, then the NEW pattern: the match is against the
        // swapped query, with tick numbering restarted at the swap
        // boundary (same semantics as detach + reattach).
        for v in [50.0, 50.0, 50.0] {
            writeln!(conn, "{v}").unwrap();
        }
        writeln!(conn, "query update 0 1 2 3").unwrap();
        for v in [9.0, 1.0, 2.0, 3.0, 9.0, 9.0] {
            writeln!(conn, "{v}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        server.join().unwrap();
        assert!(response.contains("ok query 0 generation 1"), "{response}");
        assert!(response.contains("match ticks 2..=4"), "{response}");
        assert!(
            response.contains("done 1 match(es) over 9 ticks"),
            "{response}"
        );
    }

    #[test]
    fn sample_runs_keep_commands_and_errors_in_wire_order() {
        // Samples reach the runner a run at a time; every other line
        // ends a run. Pipelined or line by line, the swap and the
        // error lines must keep their exact tick positions: match A is
        // confirmed by the sample just before `oops`, match B by the
        // sample just after `nope`, and post-swap ticks count from the
        // swap.
        const SESSION: [&str; 22] = [
            "NaN", // leading gap: dropped
            "50",
            "50",
            "query update 0 1 2 3",
            "9",
            "1",
            "2",
            "3",
            "9", // confirms A (post-swap ticks 2..=4)
            "oops",
            "1",
            "2",
            "3",
            "nope",
            "9", // confirms B (ticks 6..=8)
            "1",
            "2",
            "NaN", // carries 2 forward: C is 1 2 2 3
            "3",
            "9", // confirms C (ticks 10..=13)
            "50",
            "50",
        ];
        let expected = "ok query 0 generation 1\n\
            match ticks 2..=4 len 3 distance 0.000000 reported_at 5\n\
            error: `oops` is not a number\n\
            error: `nope` is not a number\n\
            match ticks 6..=8 len 3 distance 0.000000 reported_at 9\n\
            match ticks 10..=13 len 4 distance 0.000000 reported_at 14\n\
            done 3 match(es) over 18 ticks\n";
        let lines: Vec<Vec<u8>> = SESSION
            .iter()
            .map(|l| format!("{l}\n").into_bytes())
            .collect();
        let later_nan = SESSION.iter().rposition(|&l| l == "NaN").unwrap();
        let framings: [Vec<Vec<u8>>; 3] = [
            vec![lines.concat()],
            lines.clone(),
            // The later `NaN` opens the second write.
            vec![lines[..later_nan].concat(), lines[later_nan..].concat()],
        ];
        for batch in [3, 1] {
            for writes in &framings {
                let mut options = opts(vec![0.0, 9.0, 0.0], 1.0);
                options.batch = batch;
                let (addr, server) = start_with(options);
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_nodelay(true).unwrap();
                for w in writes {
                    conn.write_all(w).unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
                conn.shutdown(std::net::Shutdown::Write).unwrap();
                let mut response = String::new();
                conn.read_to_string(&mut response).unwrap();
                server.join().unwrap();
                assert_eq!(
                    response,
                    expected,
                    "--batch {batch}, {} write(s)",
                    writes.len()
                );
            }
        }
    }

    #[test]
    fn attach_adds_a_second_query_to_a_live_stream() {
        let mut options = opts(vec![0.0, 9.0, 0.0], 0.1);
        options.once = false;
        options.accept_limit = Some(2);
        let (addr, server) = start_with(options);
        // Stream 0: the sensor. The garbage line's error reply is a
        // barrier — once it is read back, the session is registered and
        // a control connection can target it by id.
        let sensor = TcpStream::connect(addr).unwrap();
        let mut sensor_r = BufReader::new(sensor.try_clone().unwrap());
        let mut sensor = sensor;
        writeln!(sensor, "sync-me").unwrap();
        let mut line = String::new();
        sensor_r.read_line(&mut line).unwrap();
        assert!(line.starts_with("error:"), "{line}");
        // Stream 1: the control connection registers a second pattern
        // and attaches it to the live sensor stream.
        let control = TcpStream::connect(addr).unwrap();
        let mut control_r = BufReader::new(control.try_clone().unwrap());
        let mut control = control;
        writeln!(control, "query add 1 1 2 3").unwrap();
        writeln!(control, "attach 0 1 0.25").unwrap();
        let mut ok = String::new();
        control_r.read_line(&mut ok).unwrap();
        assert_eq!(ok.trim_end(), "ok query 1 added (m=3)");
        ok.clear();
        control_r.read_line(&mut ok).unwrap();
        assert_eq!(ok.trim_end(), "ok attach stream 0 query 1");
        // The sensor now matches the attached pattern even though its
        // default query never fires.
        for v in [1.0, 2.0, 3.0, 9.0] {
            writeln!(sensor, "{v}").unwrap();
        }
        sensor.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        sensor_r.read_to_string(&mut response).unwrap();
        assert!(response.contains("match ticks 1..=3"), "{response}");
        assert!(
            response.contains("done 1 match(es) over 4 ticks"),
            "{response}"
        );
        control.shutdown(std::net::Shutdown::Write).unwrap();
        let mut control_done = String::new();
        control_r.read_to_string(&mut control_done).unwrap();
        assert!(
            control_done.contains("done 0 match(es) over 0 ticks"),
            "{control_done}"
        );
        server.join().unwrap();
    }

    #[test]
    fn commands_reject_unknown_ids_and_dead_streams() {
        let (addr, server) = start(vec![0.0, 9.0, 0.0], 1.0);
        let mut conn = TcpStream::connect(addr).unwrap();
        writeln!(conn, "query update 9 1 2 3").unwrap();
        writeln!(conn, "query drop 0").unwrap();
        writeln!(conn, "query drop 9").unwrap();
        writeln!(conn, "attach 55 0 0.5").unwrap();
        writeln!(conn, "query add 2 4 5 6").unwrap();
        writeln!(conn, "query add 2 4 5 6").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        server.join().unwrap();
        assert!(
            response.contains("error: unknown query 9; use `query add` first"),
            "{response}"
        );
        assert!(
            response.contains("error: query 0 is the serve default and cannot be dropped"),
            "{response}"
        );
        assert!(response.contains("error: unknown query 9\n"), "{response}");
        assert!(response.contains("error: no live stream 55"), "{response}");
        assert!(response.contains("ok query 2 added (m=3)"), "{response}");
        assert!(
            response.contains("error: query 2 already exists; use `query update`"),
            "{response}"
        );
    }

    #[test]
    fn poll_backend_serves_the_same_protocol() {
        // Exercise the portable poll(2) fallback end-to-end.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::with_backend(reactor::BackendKind::Poll).unwrap();
        let server = std::thread::spawn(move || {
            let opts = opts(vec![0.0, 9.0, 0.0], 1.0);
            serve_with_reactor(listener, opts, &mut Vec::new(), reactor).unwrap();
        });
        let mut conn = TcpStream::connect(addr).unwrap();
        for v in [50.0, 50.0, 0.0, 9.0, 0.0, 50.0, 50.0] {
            writeln!(conn, "{v}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        server.join().unwrap();
        assert!(response.contains("match ticks 3..=5"), "{response}");
        assert!(
            response.contains("done 1 match(es) over 7 ticks"),
            "{response}"
        );
    }
}
