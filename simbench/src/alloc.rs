//! Counting global allocator.
//!
//! Wraps the system allocator and counts allocations and requested bytes on
//! every thread, so the traced run can report steady-state allocations per
//! access and bytes allocated per system build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus two counters.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // Relaxed: plain statistics that publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Puts every thread on glibc's one main malloc arena. By default a
/// sweep's pool thread may land on a fresh arena, and then `VmHWM` grows by
/// several MB on some runs and not on others; with one arena peak RSS is
/// the same from run to run. Call before any thread starts.
pub fn single_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// `M_ARENA_MAX` from glibc's `malloc.h`.
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only changes allocator settings; it is called
        // from `main` before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Allocations so far, reallocations included.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested so far.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`, a
// correct `GlobalAlloc`; counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`. Forwarding keeps the system's lazily
        // zeroed pages, so counting does not change resident memory.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s size
        // contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
