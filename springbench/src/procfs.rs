//! Process statistics read from Linux `/proc`.

use std::collections::BTreeMap;
use std::fs;
use std::io;

/// Kernel clock ticks per second behind `/proc/<pid>/stat` times
/// (`USER_HZ`, 100 on every Linux platform the repository targets).
const CLOCK_TICKS_PER_S: u64 = 100;

/// Fields 3 onwards (1-based) of a `stat` file: those after the
/// parenthesised command name, which may contain spaces.
fn stat_fields(path: &str) -> io::Result<Vec<u64>> {
    let text = fs::read_to_string(path)?;
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other(format!("malformed {path}")))?;
    // Field 3 (the state) is a letter; the rest used here are numbers.
    Ok(rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect())
}

/// User and system CPU time of process `pid` over its whole life,
/// exited threads included, in clock ticks (10 ms).
pub fn cpu_ticks(pid: u32) -> io::Result<(u64, u64)> {
    let path = format!("/proc/{pid}/stat");
    let fields = stat_fields(&path)?;
    // utime is field 14 and stime 15 (1-based).
    match (fields.get(11), fields.get(12)) {
        (Some(&user), Some(&system)) => Ok((user, system)),
        _ => Err(io::Error::other(format!("malformed {path}"))),
    }
}

/// Time the hypervisor ran something else while each CPU had work
/// (`steal` in `/proc/stat`), so far, in ns at clock-tick (10 ms)
/// resolution. Thread CPU times do not include it.
pub fn steal_ns() -> io::Result<BTreeMap<usize, u64>> {
    let text = fs::read_to_string("/proc/stat")?;
    let mut steal = BTreeMap::new();
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        let Some(cpu) = fields
            .next()
            .and_then(|f| f.strip_prefix("cpu"))
            .and_then(|n| n.parse().ok())
        else {
            continue;
        };
        // user nice system idle iowait irq softirq steal
        let ticks: u64 = fields
            .nth(7)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc/stat"))?;
        steal.insert(cpu, ticks * (1_000_000_000 / CLOCK_TICKS_PER_S));
    }
    Ok(steal)
}

/// CPU time (user + system) of process `pid` over its whole life,
/// exited threads included, in nanoseconds at clock-tick (10 ms)
/// resolution. For phases of seconds.
pub fn cpu_ns(pid: u32) -> io::Result<u64> {
    let (user, system) = cpu_ticks(pid)?;
    Ok((user + system) * (1_000_000_000 / CLOCK_TICKS_PER_S))
}

/// CPU time of the live threads of process `pid`, in nanoseconds at
/// scheduler resolution. Threads that already exited are not counted,
/// so read it while the threads being measured still run. For spans of
/// milliseconds.
pub fn live_cpu_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between the listing and the read.
        if let Ok(text) = fs::read_to_string(entry?.path().join("schedstat")) {
            total += text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Ok(total)
}

/// One live thread of a process.
#[derive(Debug, Clone, Copy)]
pub struct ThreadCpu {
    /// Thread id.
    pub tid: u32,
    /// CPU time so far, ns, at scheduler resolution.
    pub ns: u64,
    /// The CPU it runs on, or last ran on.
    pub cpu: usize,
}

/// Every live thread of process `pid`. Threads that exit between the
/// listing and the reads are left out.
pub fn threads(pid: u32) -> io::Result<Vec<ThreadCpu>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = format!("/proc/{pid}/task/{tid}");
        let (Ok(sched), Ok(stat)) = (
            fs::read_to_string(format!("{dir}/schedstat")),
            stat_fields(&format!("{dir}/stat")),
        ) else {
            continue;
        };
        let ns = sched
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
        // `processor` is field 39 (1-based).
        let cpu = stat.get(36).map_or(0, |&c| c as usize);
        out.push(ThreadCpu { tid, ns, cpu });
    }
    Ok(out)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in bytes.
pub fn peak_rss_bytes(pid: u32) -> io::Result<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib * 1024)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}
