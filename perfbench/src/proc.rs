//! Process accounting from the outside: `/proc/<pid>` for a running
//! daemon, `wait4` rusage for a finished `experiments` run, and SIGTERM
//! for a graceful stop. Linux only, std only.

use std::process::Child;
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, fixed at 100
/// on Linux.
const USER_HZ: f64 = 100.0;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sync();
}

const SIGTERM: i32 = 15;

/// How a child process ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Exit code; `None` when killed by a signal.
    pub code: Option<i32>,
    /// user + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, KiB.
    pub maxrss_kib: f64,
}

/// Waits for `child` with `wait4` and returns its exit code and rusage.
///
/// The kernel carries the spawning process's peak RSS into the child's
/// `maxrss`, so the figure is only the child's own when the spawner is
/// smaller; callers spawn from a small process.
pub fn wait_usage(child: Child) -> std::io::Result<Usage> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: valid pointers to owned locals; `pid` is our child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The child is reaped; `Child` must not wait on it again.
    std::mem::forget(child);
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(Usage {
        code,
        cpu_s: ru.utime.sec as f64
            + ru.utime.usec as f64 * 1e-6
            + ru.stime.sec as f64
            + ru.stime.usec as f64 * 1e-6,
        maxrss_kib: ru.maxrss as f64,
    })
}

/// Sends SIGTERM.
pub fn terminate(child: &Child) {
    // SAFETY: plain syscall on our own child's pid.
    unsafe {
        kill(child.id() as i32, SIGTERM);
    }
}

/// Waits up to `timeout` for `child` to exit, then kills it.
pub fn reap(child: &mut Child, timeout: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                child.kill().ok();
                child.wait().ok();
                return None;
            }
        }
    }
}

/// Flushes every dirty page and journal entry to disk.
pub fn sync_all() {
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync() }
}

/// A phase or run is disturbed when the hypervisor took more than this
/// share of the machine's CPU time during it. Quiet periods on the
/// 2-vCPU development host stayed at 1–3 %; runs whose latency tripled
/// showed 5–30 %.
pub const STEAL_LIMIT: f64 = 0.05;

/// `(steal, total)` CPU ticks of the whole machine since boot, from
/// `/proc/stat`: the time the hypervisor ran other guests on this
/// machine's virtual CPUs, and all time.
pub fn steal_ticks() -> std::io::Result<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or_else(|| std::io::Error::other("no cpu line in /proc/stat"))?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let total = ticks.iter().take(8).sum();
    Ok((ticks.get(7).copied().unwrap_or(0.0), total))
}

/// Share of the machine's CPU time stolen since `before` (a
/// [`steal_ticks`] reading).
pub fn steal_share_since(before: (f64, f64)) -> std::io::Result<f64> {
    let (steal, total) = steal_ticks()?;
    Ok((steal - before.0) / (total - before.1).max(1.0))
}

/// user + system CPU seconds of a running process.
pub fn cpu_seconds(pid: u32) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    let after = stat
        .rfind(')')
        .map(|i| &stat[i + 2..])
        .ok_or_else(|| std::io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> f64 { fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    Ok((tick(11) + tick(12)) / USER_HZ)
}

/// Peak resident set (`VmHWM`) of a running process, KiB.
pub fn vm_hwm_kib(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
}
