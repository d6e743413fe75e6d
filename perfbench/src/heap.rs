//! Peak live heap bytes, counted by a wrapper around the system allocator.
//!
//! Resident-set peaks of this multi-threaded program swing by a quarter
//! between identical runs, because how much freed memory glibc keeps in
//! per-thread arenas depends on scheduling.  The live-byte peak counts only
//! what the program holds, so it repeats.
//!
//! Each thread gathers its net change locally and moves the shared counters
//! only once that reaches [`BATCH`] bytes either way, and when it exits: a
//! shared read-modify-write on every allocation, from every thread, slowed
//! the allocation-heavy paths (JSON, service frames) by a tenth.  The peak
//! can therefore miss up to `BATCH` bytes per live thread, well under 1% of
//! the peaks measured here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Net bytes a thread may hold back before it updates the shared counters.
const BATCH: isize = 32 << 10;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread's net change not yet in [`LIVE`]; settled when the thread
/// exits, so bytes allocated on one thread and freed on another balance.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        settle(self.0.get());
    }
}

thread_local! {
    // const-initialised: touching it never calls this allocator (glibc
    // registers the destructor with its own malloc), so the allocator
    // itself may use it
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

pub struct Counting;

/// Account for `delta` bytes allocated (positive) or freed (negative).
fn moved(delta: isize) {
    let flush = PENDING
        .try_with(|pending| {
            let held = pending.0.get() + delta;
            if held.abs() < BATCH {
                pending.0.set(held);
                None
            } else {
                pending.0.set(0);
                Some(held)
            }
        })
        // a thread whose slot is already destroyed counts directly
        .unwrap_or(Some(delta));
    if let Some(delta) = flush {
        settle(delta);
    }
}

/// Move `delta` bytes into the shared counters.
fn settle(delta: isize) {
    // statistics only: Relaxed publishes nothing else
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    // a plain load first: most flushes stay below the peak, and a load
    // leaves the peak's cache line shared where a read-modify-write takes it
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// side-effect-free bookkeeping that never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            moved(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            moved(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        moved(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            moved(new_size as isize - layout.size() as isize);
        }
        new
    }
}

/// Highest number of heap bytes held at once so far, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_covers_a_live_allocation() {
        let before = super::peak_mb();
        let block = vec![1u8; 64 << 20];
        assert!(super::peak_mb() >= 67.0);
        drop(block);
        assert!(super::peak_mb() >= before, "the peak never falls");
    }
}
