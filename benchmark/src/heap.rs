//! The process's live heap, counted at the allocator.
//!
//! `peak_heap_mb` comes from here and not from `VmHWM`: glibc moves its
//! mmap threshold after the first large free, so whether a freed 32 MB
//! buffer goes back to the kernel or stays on the heap — and with it the
//! resident peak — differs from run to run of the same program (134 MB or
//! 165 MB on `lu_large`). The bytes the program asked for do not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

// Relaxed: the counters are statistics and publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with a live-byte count on the side.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // forwarded (not alloc + memset) so large zeroed buffers keep
        // coming as untouched pages, as they would without the counter
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Highest live heap since the process started, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation_and_survives_its_release() {
        let before = peak_mb();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let during = peak_mb();
        assert!(during >= 64.0, "{during}");
        assert!(during >= before);
        drop(big);
        assert!(peak_mb() >= during, "a peak never falls");
        let mut v: Vec<u8> = Vec::with_capacity(16);
        v.extend(std::iter::repeat_n(7, 4096));
        assert_eq!(v.len(), 4096);
    }
}
