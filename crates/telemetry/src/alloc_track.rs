//! Thread-aware allocation tracking (telemetry builds only).
//!
//! [`CountingAllocator`] wraps the system allocator and bumps a pair of
//! const-initialized thread-local counters — allocation count and bytes
//! requested — on every `alloc`/`realloc`/`alloc_zeroed`. Installing it is
//! this crate's job: when the `telemetry` feature is on, the module
//! registers it as the `#[global_allocator]`, so every workspace binary
//! built with `--features telemetry` gets allocation attribution for free,
//! and default builds carry no allocator override at all (the feature gate
//! sits on the whole module).
//!
//! [`SpanGuard`](crate::SpanGuard) reads [`thread_alloc_counts`] at enter
//! and at drop; the difference is the number of heap allocations the
//! recording thread performed while the span was open. Because the counters
//! are thread-local, concurrent work on other threads never pollutes a
//! span's attribution — a sweep worker's spans see only that worker's
//! allocations. Two caveats, both documented in DESIGN.md:
//!
//! * nested spans double-count (the outer span includes the inner's
//!   allocations) — shares are per-label, not a partition;
//! * closing a span sends one channel event whose queue node is itself
//!   heap-allocated, so a span may be charged ~1 small allocation of
//!   bookkeeping noise from the previously closed span on its thread.
//!
//! The counters use relaxed `Cell` arithmetic (no atomics): each thread
//! only ever touches its own slots, so the fast path is two additions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations performed by this thread since it started.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those allocations.
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The counting wrapper around [`System`]. Zero-sized; all state lives in
/// the thread-locals above.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAllocator;

#[inline]
fn note_alloc(bytes: usize) {
    // `try_with` so a late allocation during thread teardown (after TLS
    // destruction) degrades to "uncounted" instead of aborting. The cells
    // are const-initialized and droppable-free, so this effectively never
    // fails in practice.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = THREAD_ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes as u64)));
}

#[expect(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; the telemetry build denies unsafe code everywhere else"
)]
// SAFETY: every method delegates to `System` with the caller's exact layout
// and pointer; the wrapper only observes sizes, never changes behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A grow-in-place still "allocates" the delta conceptually; we
            // charge the full new size like jemalloc's stats do, keeping
            // the counter monotone and cheap.
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL_COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;

/// This thread's cumulative `(allocations, bytes_requested)` counters.
///
/// Monotone within a thread (modulo `u64` wrap after ~10^19 allocations);
/// differences between two reads bound the allocations the thread performed
/// in between.
#[inline]
pub fn thread_alloc_counts() -> (u64, u64) {
    let allocs = THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0);
    let bytes = THREAD_ALLOC_BYTES.try_with(Cell::get).unwrap_or(0);
    (allocs, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_observe_an_allocation() {
        let (a0, b0) = thread_alloc_counts();
        let v = vec![0u8; 32 * 1024];
        std::hint::black_box(&v);
        let (a1, b1) = thread_alloc_counts();
        assert!(a1 > a0, "allocation count did not advance");
        assert!(b1 - b0 >= 32 * 1024, "byte count missed the vec");
    }

    #[test]
    fn dealloc_does_not_advance_counters() {
        let v = vec![0u8; 4096];
        drop(v);
        let (a0, _) = thread_alloc_counts();
        // A pure drop of an existing buffer allocates nothing.
        let w = std::hint::black_box(Vec::<u8>::new());
        drop(w);
        let (a1, _) = thread_alloc_counts();
        assert_eq!(a1, a0, "empty-vec drop must not allocate");
    }

    #[test]
    fn other_threads_do_not_pollute_this_thread() {
        let (a0, _) = thread_alloc_counts();
        std::thread::scope(|s| {
            s.spawn(|| {
                let v = vec![0u8; 1 << 20];
                std::hint::black_box(&v);
            });
        });
        let (a1, _) = thread_alloc_counts();
        // Spawning/joining the scope costs this thread a few bookkeeping
        // allocations, but the worker's 1 MiB buffer must not appear here.
        assert!(a1 - a0 < 64, "cross-thread allocations leaked in");
    }
}
