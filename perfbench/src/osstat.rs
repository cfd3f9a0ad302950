//! Process accounting read from the kernel: CPU seconds of this process
//! and its reaped children, and peak resident memory.
//!
//! `getrusage(RUSAGE_CHILDREN)` covers every child that has been waited
//! for, which is how the `service` workload counts the CPU time of its
//! `--worker-once` fleet. Linux only, like the fleet itself.

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s
/// that are not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `who` is one of the two documented selectors.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_of(usage: &Rusage) -> f64 {
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&usage.ru_utime) + secs(&usage.ru_stime)
}

/// User plus system CPU seconds of this process and its reaped children.
pub fn cpu_seconds() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// This process image's peak resident set in KiB (`VmHWM`). Unlike
/// `ru_maxrss` it starts afresh at `exec`, so neither the launcher that
/// started this process nor the supervisor a worker child was forked from
/// is counted.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// Resets this process's `VmHWM` to its current resident set (Linux's
/// `clear_refs` code 5), so that the peak covers only what runs after.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("write /proc/self/clear_refs");
}

/// Steal and total ticks of all CPUs since boot, from `/proc/stat`.
/// Steal is time a hypervisor gave this guest's virtual CPUs to someone
/// else while they had work; it shows in wall time but not in CPU time.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of all CPU ticks since `before` (a [`cpu_ticks`] reading) that
/// were stolen.
pub fn steal_share_since(before: (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    let elapsed = total.saturating_sub(before.1);
    if elapsed == 0 {
        0.0
    } else {
        steal.saturating_sub(before.0) as f64 / elapsed as f64
    }
}

/// Online CPUs as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
