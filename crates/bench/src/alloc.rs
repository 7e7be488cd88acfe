//! A counting global allocator for allocation-budget measurements.
//!
//! The profiling story for the leader hot path needs a number, not a
//! vibe: *allocations per decided command*. This module provides a
//! [`CountingAllocator`] that wraps the system allocator and bumps
//! process-wide atomic counters on every `alloc`/`realloc`. Binaries
//! that want the counters install it as their `#[global_allocator]`
//! (the `alloc_gate` bin and the allocation-regression integration
//! test each do); library code and the ordinary test suite keep the
//! plain system allocator.
//!
//! Counting is process-global, so precise measurements should run the
//! measured region on a single thread (or accept that concurrent
//! threads inflate the count — the thread-substrate regression test
//! does, with a correspondingly generous bound).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` wrapper around [`System`] that counts every
/// allocation and reallocation. Deallocations are pass-through: the
/// metric of interest is churn (how often we go to the allocator), not
/// live bytes.
pub struct CountingAllocator;

// SAFETY: defers all actual memory management to `System`; the counter
// updates are lock-free atomics and allocate nothing themselves.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one trip to the allocator; count the grown size
        // so byte totals reflect the high-water copy.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations (+ reallocations) since process start. Always
/// available; stays at 0 unless [`CountingAllocator`] is installed as
/// the global allocator of the running binary.
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start (see [`allocation_count`]).
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Allocation activity observed across a measured region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDelta {
    /// Number of `alloc`/`alloc_zeroed`/`realloc` calls.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Run `f` and report the allocation delta it produced. Only meaningful
/// in binaries that install [`CountingAllocator`]; elsewhere the delta
/// is always zero.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocDelta) {
    let a0 = allocation_count();
    let b0 = allocated_bytes();
    let r = f();
    (
        r,
        AllocDelta {
            allocs: allocation_count() - a0,
            bytes: allocated_bytes() - b0,
        },
    )
}
