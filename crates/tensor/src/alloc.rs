//! A counting global allocator for peak-memory accounting.
//!
//! The scale campaign (DESIGN.md §15) asserts a hard peak-RSS-style
//! budget on N = 10⁴ simulations: the streaming invariant checker and the
//! windowed connectivity structure promise O(N + T·P) state, and the only
//! honest way to enforce that promise in a test is to *measure* the
//! process's live allocation. [`CountingAlloc`] wraps the system
//! allocator with two relaxed atomics (live bytes, peak bytes) so a
//! harness can do:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//! // ... run the sim ...
//! assert!(ALLOC.peak_bytes() < BUDGET);
//! ```
//!
//! The counters use `Ordering::Relaxed` throughout: cross-thread
//! precision of a *diagnostic* high-water mark is not worth a fence on
//! every allocation, and the scale harness drives the sim from a single
//! thread anyway. The peak is maintained with a CAS loop, so it is never
//! *under*-reported for allocations this thread observed.
//!
//! This module lives in `preduce-tensor` because it is the workspace's
//! one crate permitted to contain `unsafe` (every other crate root says
//! `#![forbid(unsafe_code)]`; a `GlobalAlloc` impl is inherently unsafe).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`System`]-backed allocator that tracks live and peak bytes.
///
/// Zero-cost when not installed; one or two relaxed atomic RMWs per
/// allocation when installed as the `#[global_allocator]`.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// Creates an allocator with zeroed counters (`const`, so it can
    /// initialize a `static`).
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// High-water mark of the bytes allocated and not yet freed, since
    /// construction (or the last [`Self::reset_peak`]).
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// The bytes allocated and not yet freed right now.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current live count, so a harness
    /// can measure the peak of one phase in isolation.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn on_alloc(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let mut peak = self.peak.load(Ordering::Relaxed);
        while live > peak {
            match self
                .peak
                .compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => peak = seen,
            }
        }
    }

    fn on_dealloc(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract (valid layouts in, valid blocks out); the
// counter updates on the side never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded unchanged; the caller upholds the
        // `GlobalAlloc::alloc` contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: delegates to `System.dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `Self::alloc`/`alloc_zeroed`/
        // `realloc`, which all delegate to `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.on_dealloc(layout.size());
    }

    // SAFETY: delegates to `System.alloc_zeroed` under the caller's
    // contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded unchanged from the caller.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: delegates to `System.realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live block from this
        // allocator (delegated to `System`); `new_size` is the caller's.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // Successful realloc frees the old block and owns the new.
            self.on_dealloc(layout.size());
            self.on_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Installed as the real global allocator only inside the scale
    // harness; here the methods are exercised directly.
    #[test]
    fn counters_track_alloc_and_free() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: a valid, non-zero-sized layout.
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        assert_eq!(a.live_bytes(), 4096);
        assert_eq!(a.peak_bytes(), 4096);
        // SAFETY: `p` came from `a.alloc` with `layout`.
        unsafe { a.dealloc(p, layout) };
        assert_eq!(a.live.load(Ordering::Relaxed), 0);
        assert_eq!(a.peak_bytes(), 4096, "peak is a high-water mark");
        a.reset_peak();
        assert_eq!(a.peak_bytes(), 0);
    }

    #[test]
    fn realloc_moves_the_live_count() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(1024, 8).unwrap();
        // SAFETY: a valid, non-zero-sized layout.
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        // SAFETY: `p` is live from `a.alloc` with `layout`; 2048 > 0.
        let q = unsafe { a.realloc(p, layout, 2048) };
        assert!(!q.is_null());
        assert_eq!(a.live.load(Ordering::Relaxed), 2048);
        assert!(a.peak_bytes() >= 2048);
        let grown = Layout::from_size_align(2048, 8).unwrap();
        // SAFETY: `q` is live with layout `grown` after the realloc.
        unsafe { a.dealloc(q, grown) };
        assert_eq!(a.live.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zeroed_allocations_are_counted() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(512, 8).unwrap();
        // SAFETY: a valid, non-zero-sized layout.
        let p = unsafe { a.alloc_zeroed(layout) };
        assert!(!p.is_null());
        // SAFETY: `p` points at 512 readable bytes from `alloc_zeroed`.
        let first = unsafe { *p };
        assert_eq!(first, 0);
        assert_eq!(a.live.load(Ordering::Relaxed), 512);
        // SAFETY: `p` came from `a.alloc_zeroed` with `layout`.
        unsafe { a.dealloc(p, layout) };
    }
}
