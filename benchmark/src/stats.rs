//! Sample statistics and process accounting.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// value with at least `q` of the sample at or below it. 0 when empty.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of floats (mean of the middle pair for even counts). 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Wall time of `f` in nanoseconds, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

/// Microseconds with the nanosecond digits kept.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 on every Linux ABI this runs on).
const USER_HZ: u64 = 100;

/// User + system CPU time the whole process (every thread, load generator
/// included) has consumed so far.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the full line, i.e. index 11 and 12 after `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: u64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 1_000 / USER_HZ)
}

/// Peak resident set (`VmHWM`) in MB. 0 when `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pin the calling thread — and every thread it creates from now on — to the
/// first CPU it is allowed on. Returns that CPU, or `None` when the affinity
/// could not be read or set (the run then goes on unpinned).
///
/// For workloads with one operation in flight: at most one thread is
/// runnable at a time, so a second core adds nothing, while on a virtualised
/// host a cross-core wake-up costs an inter-processor interrupt and a
/// halted-vCPU exit (~25 µs here) against ~2 µs for a same-core switch. Left
/// to the kernel's placement, `serve_point` reads 34 µs or 118 µs p50
/// depending on where the three threads of a request happened to land.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut previous: CpuSet = [0; 16];
    // SAFETY: `previous` is a live 128-byte buffer and the size passed is its
    // size; the call only writes within it. pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), previous.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let word = previous.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + previous[word].trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (cpu % 64);
    set_affinity(&one).then_some(Pinned { cpu, previous })
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live, initialised 128-byte buffer and the size
    // passed is its size; the call only reads it. pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// A one-CPU pin; dropping it gives the calling thread its CPUs back.
pub struct Pinned {
    /// The CPU pinned to.
    pub cpu: usize,
    previous: CpuSet,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set_affinity(&self.previous);
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.95), 95);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 0.999), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [7], 0.999), 7);
        // Ten samples: p95 is the 10th (ceil(9.5)), p50 the 5th.
        let mut ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&mut ten, 0.95), 10);
        assert_eq!(percentile(&mut ten, 0.5), 5);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_accounting_reads_proc() {
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(peak_rss_mb() > 0.0);
        // CPU time is tick-quantised; only require that parsing works.
        let _ = process_cpu();
    }
}
