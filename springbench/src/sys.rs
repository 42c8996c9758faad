//! The few Linux calls the benchmark needs that the standard library
//! does not offer, as thin wrappers over the C library's functions
//! (which every Rust program on Linux links already).

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

/// `struct msghdr` on 64-bit Linux.
#[repr(C)]
struct MsgHdr {
    name: *mut u8,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut u8,
    controllen: usize,
    flags: i32,
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SOL_SOCKET: i32 = 1;
/// `SO_TIMESTAMPNS`, which is also the type of its control message
/// (`SCM_TIMESTAMPNS`): a `struct timespec` of wall-clock time.
const SO_TIMESTAMPNS: i32 = 35;
/// `sizeof(struct cmsghdr)` on 64-bit Linux: `cmsg_len` (8 bytes),
/// `cmsg_level` and `cmsg_type` (4 each); the data follows at once.
const CMSG_HEADER: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
}

/// CPU time of the calling thread, ns. Unlike `/proc` it includes the
/// slice the thread is running in, so it can time work shorter than a
/// scheduler tick.
pub fn thread_cpu_ns() -> io::Result<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, and
    // `clock_gettime` writes only into it.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread to `cpu`.
pub fn pin_to(cpu: usize) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    let word = set
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other(format!("CPU {cpu} is past the affinity mask")))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Makes the kernel stamp the time each packet reaches `sock`, for
/// [`recv_stamped`].
pub fn stamp_arrivals(sock: &TcpStream) -> io::Result<()> {
    let on: i32 = 1;
    // SAFETY: the descriptor is open for the borrow of `sock`, and the
    // option value is a live `int` of the length passed.
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_TIMESTAMPNS,
            &on,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// One `read` of `sock` into `buf`, and when the bytes reached the
/// socket: the kernel's stamp of the latest packet read, or the time of
/// the read when the socket stamps nothing. Errors and timeouts are as
/// for `Read::read`.
pub fn recv_stamped(sock: &TcpStream, buf: &mut [u8]) -> io::Result<(usize, Instant)> {
    let mut iov = IoVec {
        base: buf.as_mut_ptr(),
        len: buf.len(),
    };
    // Room for a few control messages, aligned as `struct cmsghdr`.
    let mut control = [0u64; 16];
    let mut msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        controllen: std::mem::size_of_val(&control),
        flags: 0,
    };
    // SAFETY: the descriptor is open for the borrow of `sock`; `msg`
    // points at one iovec over `buf` and at `control`, both live and
    // writable for the lengths given, and it names no address buffer.
    let n = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, 0) };
    let (now, wall) = (Instant::now(), SystemTime::now());
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    let bytes: Vec<u8> = control.iter().flat_map(|w| w.to_ne_bytes()).collect();
    let arrived = packet_time(&bytes[..msg.controllen.min(bytes.len())])
        .and_then(|stamp| wall.duration_since(stamp).ok())
        .and_then(|ago| now.checked_sub(ago))
        .unwrap_or(now);
    Ok((n as usize, arrived))
}

/// The `SCM_TIMESTAMPNS` time among the control messages in `control`.
fn packet_time(control: &[u8]) -> Option<SystemTime> {
    let word = |at: usize| -> Option<u64> {
        Some(u64::from_ne_bytes(
            control.get(at..at + 8)?.try_into().ok()?,
        ))
    };
    let half = |at: usize| -> Option<u32> {
        Some(u32::from_ne_bytes(
            control.get(at..at + 4)?.try_into().ok()?,
        ))
    };
    let mut at = 0;
    while at + CMSG_HEADER <= control.len() {
        let len = usize::try_from(word(at)?).ok()?;
        if len < CMSG_HEADER {
            return None;
        }
        let (level, kind) = (half(at + 8)? as i32, half(at + 12)? as i32);
        if (level, kind) == (SOL_SOCKET, SO_TIMESTAMPNS) {
            let (secs, nanos) = (word(at + CMSG_HEADER)?, word(at + CMSG_HEADER + 8)?);
            return Some(UNIX_EPOCH + Duration::new(secs, u32::try_from(nanos).ok()?));
        }
        at += len.next_multiple_of(8);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn a_stamped_read_reports_when_the_bytes_arrived() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut a = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        stamp_arrivals(&b).expect("timestamps");
        // The kernel turns stamping on from a work queue when no socket
        // had it: packets in the next moments may go unstamped.
        std::thread::sleep(Duration::from_millis(50));
        a.write_all(b"match\n").expect("write");
        let written = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let mut buf = [0; 16];
        let (n, arrived) = recv_stamped(&b, &mut buf).expect("read");
        assert_eq!(&buf[..n], b"match\n");
        // The stamp predates the read by about the sleep.
        assert!(
            arrived <= written + Duration::from_millis(5),
            "{arrived:?} {written:?}"
        );
    }

    #[test]
    fn the_calling_thread_may_run_somewhere() {
        let cpus = allowed_cpus().expect("affinity");
        assert!(!cpus.is_empty());
        assert!(thread_cpu_ns().expect("clock") > 0);
    }
}
