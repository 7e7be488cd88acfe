//! Order statistics, `/proc` readings and the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub use paxi::metrics::percentile;

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

fn proc_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime`, from the C library `std` already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux clock ids, the same on every architecture.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `/proc` counts processor time in scheduler ticks of 4 or 10 ms, too
/// coarse for a bucket of a second; the POSIX CPU-time clocks count
/// nanoseconds, and `std` does not expose them.
fn cpu_clock(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux), and the call writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// User plus system CPU seconds of this process, threads that have
/// already exited included.
pub fn cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread alone: what a simulation, which
/// runs on one thread, is charged.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Resident set size of this process in MiB: now, and its peak.
pub fn rss_mb() -> (f64, f64) {
    let status = proc_file("/proc/self/status");
    let mb = |key| status_field(&status, key) as f64 / 1024.0;
    (mb("VmRSS:"), mb("VmHWM:"))
}

/// Context switches summed over the live threads, and their number.
pub fn threads() -> (u64, u64) {
    let mut switches = 0;
    let mut count = 0;
    for entry in std::fs::read_dir("/proc/self/task")
        .expect("task dir")
        .flatten()
    {
        // A thread may exit between the listing and the read.
        if let Ok(status) = std::fs::read_to_string(entry.path().join("status")) {
            count += 1;
            switches += status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:");
        }
    }
    (switches, count)
}

/// Counts allocations while [`COUNTING`] is set. It is set only in traced
/// runs: the counters are shared by every thread, and the end-to-end
/// numbers should not pay for that cache line.
pub struct CountingAllocator;

pub static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters do not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes allocated so far while counting was on.
pub fn allocations() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// What the sampler thread reads at each edge of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    pub cpu_s: f64,
    pub rss_mb: f64,
    pub ctx_switches: u64,
    pub threads: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl ProcSample {
    pub fn now() -> Self {
        let (ctx_switches, threads) = threads();
        let (allocs, alloc_bytes) = allocations();
        ProcSample {
            cpu_s: cpu_seconds(),
            rss_mb: rss_mb().0,
            ctx_switches,
            threads,
            allocs,
            alloc_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        assert!(rss_mb().0 > 1.0 && rss_mb().1 >= rss_mb().0 * 0.5);
        assert!(threads().1 >= 1);
        assert!(cpu_seconds() >= 0.0);
    }
}
