//! Process memory and host facts.

use std::process::Command;

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.trim().strip_suffix("kB"))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or(0)
}

/// Resident set size now, in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// Peak resident set size of the process so far, in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}

/// Size of the L3 cache as `lscpu -B` reports it, in bytes.
pub fn l3_bytes() -> Result<u64, String> {
    let output = Command::new("lscpu")
        .arg("-B")
        .output()
        .map_err(|err| format!("running lscpu: {err}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines()
        .find_map(|line| line.strip_prefix("L3 cache:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| "lscpu reports no L3 cache size".to_string())
}

/// Logical CPUs this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel's `cpu_set_t` lays it out: 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer that outlives
    // the call, and pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and threads it spawns from now on, to
/// `cpu`.  Returns whether the kernel accepted.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer that outlives
    // the call, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// The CPU the `n`-th pinned thread of a workload runs on: the allowed
/// CPUs in turn, so two threads get two CPUs when there are two.
pub fn nth_cpu(cpus: &[usize], n: usize) -> Option<usize> {
    (!cpus.is_empty()).then(|| cpus[n % cpus.len()])
}
