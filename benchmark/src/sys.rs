//! What the harness reads from the operating system: core count, peak
//! resident memory and CPU time of this process and of its reaped children.
//! Linux only, like the `/proc`-based suites in the repository.

use std::time::Duration;

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's peak resident set (`VmHWM`) in KiB; 0 if `/proc` is
/// unreadable.
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Reset `VmHWM` to the current resident set, so the next reading is the
/// peak of what ran in between (the reference kernel's buffers would
/// otherwise mask every workload smaller than they are). Returns whether
/// the kernel accepted the reset.
pub fn reset_vm_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin this process — and every thread and child process it starts from now
/// on — to the lowest-numbered CPU it may run on. Returns that CPU, or
/// `None` if the kernel refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|&w| w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the size passed; the call
    // reads it and changes only this thread's scheduling.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0)
        .then_some(word * 64 + bit)
}

/// CPU time and peak resident set of a process group member.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    /// User-mode CPU time.
    pub user: Duration,
    /// Kernel-mode CPU time.
    pub sys: Duration,
    /// Largest resident set in KiB (for children: of the largest reaped one).
    pub maxrss_kb: u64,
}

fn rusage(who: i32) -> Rusage {
    let mut raw = RawRusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` of the layout 64-bit
    // Linux defines (asserted by the size test below), and `getrusage` only
    // writes within it.
    let rc = unsafe { getrusage(who, &mut raw) };
    if rc != 0 {
        return Rusage::default();
    }
    let dur = |t: &Timeval| Duration::new(t.tv_sec.max(0) as u64, (t.tv_usec.max(0) as u32) * 1000);
    Rusage {
        user: dur(&raw.ru_utime),
        sys: dur(&raw.ru_stime),
        maxrss_kb: raw.ru_maxrss.max(0) as u64,
    }
}

/// Usage of this process so far.
pub fn rusage_self() -> Rusage {
    rusage(0)
}

/// Usage of every child this process has waited for so far (shard workers
/// are reaped before `run_sharded` returns).
pub fn rusage_children() -> Rusage {
    rusage(-1)
}

const _: () =
    assert!(std::mem::size_of::<RawRusage>() == 144, "struct rusage is 144 bytes on 64-bit Linux");
