//! Peak live heap of the benchmark process.
//!
//! The peak resident set (`VmHWM`) of a run depends on how the C
//! allocator caches freed memory per thread: two runs of the same
//! campaign differed by half. The bytes the program holds allocated at
//! once do not, so the binary installs [`CountingAlloc`] and reports the
//! peak of those.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated through [`CountingAlloc`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest value [`LIVE`] has reached.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes. Both counters are
/// statistics that publish no other data, so relaxed ordering suffices.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters besides, so `System`'s guarantees
// carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Peak live heap so far, in bytes (0 when [`CountingAlloc`] is not the
/// global allocator).
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
