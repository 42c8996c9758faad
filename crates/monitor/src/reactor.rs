//! A tiny in-tree readiness reactor (Unix targets).
//!
//! `spring serve` multiplexes thousands of sensor connections through a
//! single acceptor thread. The standard library has no readiness API,
//! and the workspace stays dependency-free, so this module wraps the
//! two portable Unix readiness syscalls itself:
//!
//! * **epoll** on Linux (`epoll_create1`/`epoll_ctl`/`epoll_wait`,
//!   level-triggered) — O(ready) wakeups, the production backend;
//! * **`poll(2)`** everywhere else (and on Linux via
//!   [`Reactor::with_backend`], which is how the test suite exercises
//!   the fallback on the machines we actually run on) — O(registered)
//!   per wait, fine for hundreds of descriptors.
//!
//! The syscall surface lives in the private `sys` submodule, the crate's one
//! sanctioned unsafe region: raw `extern "C"` prototypes against the
//! platform libc (which `std` already links), no `libc` crate. Like
//! `spring-core`'s `kernel::simd`, it carries its own
//! `#[allow(unsafe_code)]` inside a `deny(unsafe_code)` crate, so
//! nothing outside `sys` can add more.
//!
//! # Model
//!
//! A [`Reactor`] owns a set of registered descriptors, each tagged with
//! a caller-chosen `usize` token and an [`Interest`] (read/write). One
//! call to [`Reactor::wait`] blocks until at least one descriptor is
//! ready (or the timeout lapses, or the [`Waker`] is poked from another
//! thread) and appends [`Ready`] records to a caller-owned buffer.
//! Registration is level-triggered: a descriptor that stays readable
//! keeps reporting readable, so dropping an event on the floor is safe.
//!
//! The [`Waker`] is a pair of connected loopback UDP sockets — pure
//! `std`, no extra syscall surface — whose receive end is registered
//! with the reactor under an internal token. Any thread holding a
//! clone can interrupt a blocked [`Reactor::wait`]; wakes are drained
//! internally and never surface as [`Ready`] events. Wakes coalesce: a
//! shared "wake pending" flag lets only the first wake after each
//! drain send a datagram.
//!
//! The reactor never owns the descriptors it watches: callers keep
//! their `TcpListener`/`TcpStream` values and must
//! [`Reactor::deregister`] before closing them.

use std::collections::HashMap;
use std::io;
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a registered descriptor should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when a read would not block (includes EOF/peer close).
    pub readable: bool,
    /// Report when a write would not block.
    pub writable: bool,
}

impl Interest {
    /// Watch for readability only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Watch for writability only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Watch for both readability and writability.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Keep the registration but report nothing (a paused connection:
    /// backpressure without the churn of deregister/register). A peer's
    /// half-close counts as readability, so it is reported only while
    /// `readable` is set, on both backends. A hangup or error
    /// ([`Ready::closed`]) is reported whatever the interest: neither
    /// `epoll` nor `poll(2)` can mask it.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness report from [`Reactor::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ready {
    /// The token the descriptor was registered with.
    pub token: usize,
    /// A read would not block (data, EOF, or a pending error).
    pub readable: bool,
    /// A write would not block.
    pub writable: bool,
    /// The kernel flagged hangup or error (`EPOLLHUP`/`EPOLLERR`,
    /// `POLLHUP`/`POLLERR`/`POLLNVAL`). The next read/write surfaces
    /// the concrete `io::Error`; treat the connection as closing.
    pub closed: bool,
}

/// Which syscall backend a [`Reactor`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Linux `epoll` (level-triggered).
    Epoll,
    /// Portable `poll(2)`.
    Poll,
}

/// Token reserved for the internal waker registration; user tokens must
/// stay below it.
const WAKER_TOKEN: usize = usize::MAX;

/// A cloneable handle that interrupts a blocked [`Reactor::wait`] from
/// another thread (match sinks, runner workers).
///
/// Wakes coalesce. Every clone shares one "wake pending" flag, and
/// [`Waker::wake`] sends its datagram only when it raises the flag.
/// [`Reactor::wait`] drains the datagram, then lowers the flag, so a
/// wake raised after that sends again. A wake that finds the flag
/// still raised sends nothing: a datagram is pending, and what the
/// waker published before its wake is visible to the reactor's thread
/// once the `wait` that drains that datagram returns.
#[derive(Debug, Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

#[derive(Debug)]
struct WakerInner {
    tx: UdpSocket,
    pending: AtomicBool,
}

impl Waker {
    /// Wakes the reactor. Non-blocking; at most one datagram is in
    /// flight per reactor.
    pub fn wake(&self) {
        if !self.inner.pending.swap(true, Ordering::AcqRel) && self.inner.tx.send(&[1]).is_err() {
            // Nothing was sent, so `wait` will not lower the flag:
            // lower it here, or every later wake would be swallowed.
            self.inner.pending.store(false, Ordering::Release);
        }
    }
}

/// Widens the accept backlog of an already-listening socket by
/// re-issuing `listen(2)` on it (the kernel clamps the request to
/// `net.core.somaxconn`).
///
/// `std::net::TcpListener::bind` hardcodes a backlog of 128, which a
/// burst of simultaneous connects can overflow — the kernel then drops
/// the overflowing SYNs and those clients stall for a full TCP
/// retransmission timeout (~1 s) before connecting. An acceptor that
/// expects N concurrent clients should widen the backlog to ≥ N right
/// after binding. Best-effort by design: on failure the socket keeps
/// the backlog it already had, so callers may ignore the error.
pub fn widen_listen_backlog(listener: &impl AsRawFd, backlog: usize) -> io::Result<()> {
    sys::relisten(listener.as_raw_fd(), backlog)
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll { ep: std::os::fd::OwnedFd },
    Poll {
        registered: HashMap<RawFd, (usize, Interest)>,
    },
}

/// A readiness-driven event demultiplexer over raw file descriptors.
///
/// See the [module docs](self) for the model and backends.
pub struct Reactor {
    backend: Backend,
    waker_rx: UdpSocket,
    waker: Waker,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("backend", &self.backend_kind())
            .finish_non_exhaustive()
    }
}

impl Reactor {
    /// Creates a reactor on the platform's preferred backend: epoll on
    /// Linux, `poll(2)` on other Unix systems.
    pub fn new() -> io::Result<Reactor> {
        Reactor::with_backend(if cfg!(target_os = "linux") {
            BackendKind::Epoll
        } else {
            BackendKind::Poll
        })
    }

    /// Creates a reactor on a specific backend. [`BackendKind::Epoll`]
    /// is only available on Linux (`Unsupported` elsewhere).
    pub fn with_backend(kind: BackendKind) -> io::Result<Reactor> {
        let backend = match kind {
            #[cfg(target_os = "linux")]
            BackendKind::Epoll => Backend::Epoll {
                ep: sys::epoll_create()?,
            },
            #[cfg(not(target_os = "linux"))]
            BackendKind::Epoll => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "epoll backend is Linux-only; use BackendKind::Poll",
                ))
            }
            BackendKind::Poll => Backend::Poll {
                registered: HashMap::new(),
            },
        };
        // The waker: a connected loopback UDP pair. Receive side lives
        // in the reactor's descriptor set; any clone of the send side
        // interrupts a blocked wait.
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        tx.connect(rx.local_addr()?)?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let mut reactor = Reactor {
            backend,
            waker_rx: rx,
            waker: Waker {
                inner: Arc::new(WakerInner {
                    tx,
                    pending: AtomicBool::new(false),
                }),
            },
        };
        reactor.register(reactor.waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
        Ok(reactor)
    }

    /// Which backend this reactor runs on.
    pub fn backend_kind(&self) -> BackendKind {
        match self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => BackendKind::Epoll,
            Backend::Poll { .. } => BackendKind::Poll,
        }
    }

    /// A cloneable cross-thread wakeup handle for this reactor.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Starts watching `fd` under `token`. One registration per
    /// descriptor; `token` must be unique among live registrations and
    /// below an internal reserved value.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { ep } => sys::epoll_add(ep, fd, token as u64, interest),
            Backend::Poll { registered } => {
                registered.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Updates the interest set (and token) of a registered descriptor.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { ep } => sys::epoll_mod(ep, fd, token as u64, interest),
            Backend::Poll { registered } => {
                registered.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. Call before closing the descriptor.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { ep } => sys::epoll_del(ep, fd),
            Backend::Poll { registered } => {
                registered.remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until readiness, a wake, or `timeout` (`None` = forever),
    /// appending events to `out` (which is cleared first). Returns the
    /// number of events delivered; `0` means a timeout or a bare wake.
    /// `EINTR` is retried internally.
    pub fn wait(&mut self, out: &mut Vec<Ready>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        let waker_fd = self.waker_rx.as_raw_fd();
        let mut woke = false;
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { ep } => {
                sys::epoll_wait_round(ep, timeout_ms, |token, readable, writable, closed| {
                    if token == WAKER_TOKEN as u64 {
                        woke = true;
                    } else {
                        out.push(Ready {
                            token: token as usize,
                            readable,
                            writable,
                            closed,
                        });
                    }
                })?;
            }
            Backend::Poll { registered } => {
                sys::poll_wait(
                    registered,
                    timeout_ms,
                    |fd, token, readable, writable, closed| {
                        if fd == waker_fd {
                            woke = true;
                        } else {
                            out.push(Ready {
                                token,
                                readable,
                                writable,
                                closed,
                            });
                        }
                    },
                )?;
            }
        }
        if woke {
            // Drain the wake datagram so the level-triggered
            // registration goes quiet, then lower the flag so the next
            // wake() sends again. In this order no wake is lost: one
            // raised before the swap below is seen by the caller once
            // `wait` returns (the swap acquires its flag write), and
            // one after it sends a datagram the drain cannot eat.
            let mut buf = [0u8; 16];
            while self.waker_rx.recv(&mut buf).is_ok() {}
            self.waker.inner.pending.swap(false, Ordering::AcqRel);
        }
        Ok(out.len())
    }
}

/// The raw syscall shims — the one `unsafe` region of the crate.
///
/// Everything here is a thin, safe-to-call wrapper over an `extern "C"`
/// prototype resolved against the platform libc `std` already links.
/// Invariants upheld by the wrappers:
///
/// * every pointer passed down is derived from a live Rust reference
///   with the correct length;
/// * return codes are checked and converted to `io::Error` before any
///   result is used;
/// * descriptors created here (`epoll_create1`) are wrapped in
///   [`std::os::fd::OwnedFd`] immediately, so they close on drop and
///   are never double-closed.
#[allow(unsafe_code)]
mod sys {
    use super::Interest;
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short};

    #[cfg(target_os = "linux")]
    pub use linux::{epoll_add, epoll_create, epoll_del, epoll_mod, epoll_wait_round};

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const POLLNVAL: c_short = 0x020;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
        fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    }

    /// Re-issues `listen(2)` on an already-listening socket. On Linux
    /// (and the BSDs) this updates the accept backlog in place; the
    /// kernel still clamps it to `net.core.somaxconn`.
    pub fn relisten(fd: RawFd, backlog: usize) -> io::Result<()> {
        let backlog = c_int::try_from(backlog).unwrap_or(c_int::MAX);
        // SAFETY: plain syscall on a caller-owned descriptor, no
        // pointers; the return code is checked before use.
        if unsafe { listen(fd, backlog) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// One `poll(2)` round over `registered`, reporting each ready
    /// descriptor through `deliver(fd, token, readable, writable,
    /// closed)`. Retries `EINTR`.
    pub fn poll_wait(
        registered: &HashMap<RawFd, (usize, Interest)>,
        timeout_ms: i32,
        mut deliver: impl FnMut(RawFd, usize, bool, bool, bool),
    ) -> io::Result<()> {
        let mut fds: Vec<PollFd> = Vec::with_capacity(registered.len());
        let mut tokens: Vec<usize> = Vec::with_capacity(registered.len());
        for (&fd, &(token, interest)) in registered {
            let mut events = 0;
            if interest.readable {
                events |= POLLIN;
            }
            if interest.writable {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
            tokens.push(token);
        }
        let n = loop {
            // SAFETY: `fds` is a live, exclusively-borrowed slice of
            // `repr(C)` pollfd records; the kernel writes only the
            // `revents` fields of the first `fds.len()` entries.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if rc >= 0 {
                break rc;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (pfd, &token) in fds.iter().zip(&tokens) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            let closed = r & (POLLERR | POLLHUP | POLLNVAL) != 0;
            // Surface hangup/error through the read path so the caller
            // observes the concrete io::Error (or EOF) on its next read.
            let readable = r & POLLIN != 0 || closed;
            let writable = r & POLLOUT != 0;
            deliver(pfd.fd, token, readable, writable, closed);
        }
        Ok(())
    }

    #[cfg(target_os = "linux")]
    mod linux {
        use super::super::Interest;
        use std::io;
        use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
        use std::os::raw::c_int;

        const EPOLL_CLOEXEC: c_int = 0o2000000;
        const EPOLL_CTL_ADD: c_int = 1;
        const EPOLL_CTL_DEL: c_int = 2;
        const EPOLL_CTL_MOD: c_int = 3;
        const EPOLLIN: u32 = 0x001;
        const EPOLLOUT: u32 = 0x004;
        const EPOLLERR: u32 = 0x008;
        const EPOLLHUP: u32 = 0x010;
        const EPOLLRDHUP: u32 = 0x2000;

        /// `struct epoll_event`; packed on x86-64, as in the kernel ABI.
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        struct EpollEvent {
            events: u32,
            data: u64,
        }

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }

        /// The epoll event mask for `interest`. `EPOLLRDHUP` rides only
        /// with `EPOLLIN` (which fires on a FIN anyway): the
        /// registration is level-triggered, so a standing half-close
        /// would otherwise report a paused or write-only descriptor on
        /// every wait. `EPOLLHUP`/`EPOLLERR` are always reported.
        fn mask(interest: Interest) -> u32 {
            let mut m = 0;
            if interest.readable {
                m |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.writable {
                m |= EPOLLOUT;
            }
            m
        }

        /// Creates the epoll instance (`EPOLL_CLOEXEC`).
        pub fn epoll_create() -> io::Result<OwnedFd> {
            // SAFETY: plain syscall, no pointers; the returned fd is
            // checked before being wrapped, and OwnedFd guarantees a
            // single close.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a freshly created, valid, uniquely-owned
            // descriptor.
            Ok(unsafe { OwnedFd::from_raw_fd(fd) })
        }

        fn ctl(ep: &OwnedFd, op: c_int, fd: RawFd, ev: Option<EpollEvent>) -> io::Result<()> {
            let mut ev = ev;
            let ptr = ev
                .as_mut()
                .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ep` is a live epoll fd; `ptr` is null (DEL) or a
            // live exclusive borrow the kernel only reads from.
            let rc = unsafe { epoll_ctl(ep.as_raw_fd(), op, fd, ptr) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Adds `fd` with `token` under `interest` (level-triggered).
        pub fn epoll_add(
            ep: &OwnedFd,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            ctl(ep, EPOLL_CTL_ADD, fd, Some(ev))
        }

        /// Rewrites `fd`'s token/interest.
        pub fn epoll_mod(
            ep: &OwnedFd,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            ctl(ep, EPOLL_CTL_MOD, fd, Some(ev))
        }

        /// Removes `fd` from the interest set.
        pub fn epoll_del(ep: &OwnedFd, fd: RawFd) -> io::Result<()> {
            ctl(ep, EPOLL_CTL_DEL, fd, None)
        }

        /// One `epoll_wait` round, reporting each event through
        /// `deliver(token, readable, writable, closed)`. Retries
        /// `EINTR`.
        pub fn epoll_wait_round(
            ep: &OwnedFd,
            timeout_ms: i32,
            mut deliver: impl FnMut(u64, bool, bool, bool),
        ) -> io::Result<()> {
            let mut events = [EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                // SAFETY: `events` is a live, exclusively-borrowed
                // array of `repr(C)` epoll_event records and maxevents
                // is exactly its length; the kernel writes at most that
                // many entries.
                let rc = unsafe {
                    epoll_wait(
                        ep.as_raw_fd(),
                        events.as_mut_ptr(),
                        events.len() as c_int,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) struct before use.
                let EpollEvent { events: bits, data } = *ev;
                let closed = bits & (EPOLLERR | EPOLLHUP) != 0;
                let readable = bits & (EPOLLIN | EPOLLRDHUP) != 0 || closed;
                let writable = bits & EPOLLOUT != 0;
                deliver(data, readable, writable, closed);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn backends() -> Vec<BackendKind> {
        #[cfg(target_os = "linux")]
        {
            vec![BackendKind::Epoll, BackendKind::Poll]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![BackendKind::Poll]
        }
    }

    /// A connected nonblocking loopback TCP pair.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    #[cfg_attr(miri, ignore = "real sockets; syscalls Miri does not model")]
    fn widen_listen_backlog_keeps_the_listener_accepting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        widen_listen_backlog(&listener, 1024).unwrap();
        // The socket still listens and accepts after the re-listen.
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (_conn, peer) = listener.accept().unwrap();
        assert_eq!(peer, client.local_addr().unwrap());
        // A non-listening descriptor is reported as an error, not UB.
        let udp = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        assert!(widen_listen_backlog(&udp, 16).is_err());
    }

    #[test]
    #[cfg_attr(miri, ignore = "real sockets; syscalls Miri does not model")]
    fn reports_readable_when_data_arrives() {
        for kind in backends() {
            let mut r = Reactor::with_backend(kind).unwrap();
            let (mut a, b) = tcp_pair();
            r.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
            let mut events = Vec::new();
            // Nothing yet: a zero-timeout wait returns empty.
            assert_eq!(
                r.wait(&mut events, Some(Duration::from_millis(0))).unwrap(),
                0,
                "{kind:?}"
            );
            a.write_all(b"hello\n").unwrap();
            let n = r.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{kind:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable, "{kind:?} {:?}", events[0]);
            r.deregister(b.as_raw_fd()).unwrap();
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "real sockets; syscalls Miri does not model")]
    fn modify_changes_interest_and_token() {
        for kind in backends() {
            let mut r = Reactor::with_backend(kind).unwrap();
            let (mut a, b) = tcp_pair();
            a.write_all(b"x").unwrap();
            r.register(b.as_raw_fd(), 1, Interest::NONE).unwrap();
            let mut events = Vec::new();
            assert_eq!(
                r.wait(&mut events, Some(Duration::from_millis(20)))
                    .unwrap(),
                0,
                "{kind:?}: Interest::NONE must report nothing"
            );
            r.modify(b.as_raw_fd(), 2, Interest::BOTH).unwrap();
            let n = r.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{kind:?}");
            assert_eq!(events[0].token, 2);
            assert!(events[0].readable && events[0].writable, "{:?}", events[0]);
            r.deregister(b.as_raw_fd()).unwrap();
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "real sockets; syscalls Miri does not model")]
    fn peer_close_reports_readable_eof() {
        for kind in backends() {
            let mut r = Reactor::with_backend(kind).unwrap();
            let (a, mut b) = tcp_pair();
            r.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
            drop(a);
            let mut events = Vec::new();
            let n = r.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{kind:?}");
            assert!(events[0].readable, "{kind:?} {:?}", events[0]);
            let mut buf = [0u8; 8];
            assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF must be observable");
            r.deregister(b.as_raw_fd()).unwrap();
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "real sockets; syscalls Miri does not model")]
    fn waker_interrupts_a_blocked_wait() {
        for kind in backends() {
            let mut r = Reactor::with_backend(kind).unwrap();
            let waker = r.waker();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
            });
            let mut events = Vec::new();
            let t0 = std::time::Instant::now();
            // Without the wake this would block for the full 10 s.
            let n = r.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
            assert_eq!(n, 0, "{kind:?}: a bare wake delivers no events");
            assert!(
                t0.elapsed() < Duration::from_secs(9),
                "{kind:?}: wait must return promptly on wake"
            );
            handle.join().unwrap();
            // Wakes coalesce: many wakes, one drained round.
            for _ in 0..100 {
                r.waker().wake();
            }
            assert_eq!(
                r.wait(&mut events, Some(Duration::from_millis(0))).unwrap(),
                0
            );
            assert_eq!(
                r.wait(&mut events, Some(Duration::from_millis(0))).unwrap(),
                0,
                "{kind:?}: drained wakes must not re-report"
            );
        }
    }

    /// Writes to `sock` until a write would block, and again after each
    /// pause that let a write through: the peer never reads, so once a
    /// write blocks right after a pause no acknowledgement in flight is
    /// left to free room.
    fn fill_send_buffer(sock: &mut TcpStream) {
        let chunk = [0u8; 64 * 1024];
        loop {
            let mut wrote = false;
            loop {
                match sock.write(&chunk) {
                    Ok(_) => wrote = true,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("filling the send buffer: {e}"),
                }
            }
            if !wrote {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "real sockets; syscalls Miri does not model")]
    fn half_closed_peer_is_quiet_without_read_interest() {
        for kind in backends() {
            // A paused connection (`NONE`), and a write-only one whose
            // send buffer is full (`WRITE`): neither may report the
            // peer's half-close, which only read interest asks about.
            for (interest, full) in [(Interest::NONE, false), (Interest::WRITE, true)] {
                let mut r = Reactor::with_backend(kind).unwrap();
                let (peer, mut b) = tcp_pair();
                if full {
                    fill_send_buffer(&mut b);
                }
                r.register(b.as_raw_fd(), 5, Interest::READ).unwrap();
                peer.shutdown(std::net::Shutdown::Write).unwrap();
                // The FIN has arrived once the socket reads EOF.
                let mut events = Vec::new();
                let n = r.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert_eq!(n, 1, "{kind:?} {interest:?}");
                assert!(events[0].readable, "{kind:?} {:?}", events[0]);
                let mut buf = [0u8; 8];
                assert_eq!(b.read(&mut buf).unwrap(), 0, "{kind:?}: EOF");
                r.modify(b.as_raw_fd(), 5, interest).unwrap();
                assert_eq!(
                    r.wait(&mut events, Some(Duration::from_millis(20)))
                        .unwrap(),
                    0,
                    "{kind:?} {interest:?}: a half-closed peer must report nothing: {events:?}"
                );
                r.deregister(b.as_raw_fd()).unwrap();
                drop(peer);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "real sockets; syscalls Miri does not model")]
    fn wakes_coalesce_until_a_wait_drains_them() {
        for kind in backends() {
            let mut r = Reactor::with_backend(kind).unwrap();
            let mut events = Vec::new();
            for _ in 0..3 {
                for _ in 0..100 {
                    r.waker().wake();
                }
                assert_eq!(
                    r.wait(&mut events, Some(Duration::from_millis(0))).unwrap(),
                    0
                );
                // The wait saw the wake and re-armed the waker.
                assert!(
                    !r.waker.inner.pending.load(Ordering::Acquire),
                    "{kind:?}: a drained wake must lower the pending flag"
                );
            }
            // 100 wakes before a drain send one datagram.
            for _ in 0..100 {
                r.waker().wake();
            }
            let mut buf = [0u8; 16];
            let mut datagrams = 0;
            while r.waker_rx.recv(&mut buf).is_ok() {
                datagrams += 1;
            }
            assert_eq!(datagrams, 1, "{kind:?}");
        }
    }

    #[test]
    fn interest_constants_compose() {
        const { assert!(Interest::BOTH.readable && Interest::BOTH.writable) };
        const { assert!(!Interest::NONE.readable && !Interest::NONE.writable) };
        const { assert!(Interest::READ.readable && !Interest::READ.writable) };
        const { assert!(!Interest::WRITE.readable && Interest::WRITE.writable) };
    }
}
