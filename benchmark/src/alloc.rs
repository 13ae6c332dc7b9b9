//! Counting global allocator.
//!
//! Counts every allocation the process makes — the program's and the
//! harness's alike — so the harness keeps its own timed-window work
//! allocation-free (preallocated records and span buffers). A window is
//! the difference of two [`snapshot`]s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System`, with counters. All counters are statistics that publish no
/// other data, hence `Relaxed`.
pub struct Counting;

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one allocator call that takes `new_size` bytes and
        // gives `layout.size()` back.
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        note_alloc(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    allocs: u64,
    bytes: u64,
    live: u64,
}

/// What happened between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocWindow {
    /// Allocator calls that took memory (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest live heap size inside the window, above its opening level.
    pub peak_live_above_start: u64,
}

/// Open a window: reads the counters and re-arms the peak at the current
/// live size. Windows must not overlap (one rep at a time).
pub fn snapshot() -> AllocSnapshot {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live,
    }
}

/// Close the window opened by `start`.
pub fn since(start: AllocSnapshot) -> AllocWindow {
    AllocWindow {
        allocs: ALLOCS.load(Ordering::Relaxed) - start.allocs,
        bytes: BYTES.load(Ordering::Relaxed) - start.bytes,
        peak_live_above_start: PEAK.load(Ordering::Relaxed).saturating_sub(start.live),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counts_what_happens_inside_it() {
        // Other tests allocate concurrently, so the window can only be
        // bounded from below.
        let before_window: Vec<u64> = Vec::with_capacity(64);
        let start = snapshot();
        let boxes: Vec<Box<[u8; 256]>> = (0..1000).map(|_| Box::new([7u8; 256])).collect();
        let window = since(start);
        assert!(window.allocs >= 1000, "allocs {}", window.allocs);
        assert!(window.bytes >= 1000 * 256, "bytes {}", window.bytes);
        assert!(window.peak_live_above_start >= 1000 * 256);
        drop(boxes);
        drop(before_window);
        // A later window does not see the earlier one's allocations.
        let start = snapshot();
        let window = since(start);
        assert!(window.allocs < 1000, "allocs {}", window.allocs);
    }
}
