//! A global allocator that counts, per thread, how often the thread asked
//! for memory — so a test can pin the number of allocations a code path
//! makes (a count repeats exactly where a timing does not).
//!
//! A test binary installs it once and measures with [`allocations_in`]:
//!
//! ```
//! use linkcast_alloc_count::{allocations_in, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//!
//! let (count, v) = allocations_in(|| Vec::<u8>::with_capacity(16));
//! assert_eq!(count, 1);
//! drop(v);
//! ```
//!
//! Counting is per thread, so tests of one binary may run in parallel.
//! Frees are not counted as allocations; a `realloc` counts as one.
//!
//! [`live_bytes_in`] measures what a code path *keeps*: the bytes the thread
//! requested minus the bytes it gave back, a `realloc` counted as the
//! difference between its sizes — capacity slack included, since a `Vec`
//! asks for its capacity, not its length. [`largest_allocation_in`] measures
//! the largest single request, which is what a decoder handed a lying length
//! field would inflate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested minus bytes freed. Signed: a thread may free what
    /// another allocated.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The largest single request (an `alloc`'s size, a `realloc`'s new
    /// size) since [`largest_allocation_in`] last reset it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread that is tearing down its locals still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

fn note_size(size: usize) {
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

/// The system allocator, counting the calling thread's requests.
pub struct CountingAllocator;

// SAFETY: every operation is the system allocator's, called with the
// arguments this one was given; the bookkeeping in between touches only a
// `const`-initialised thread-local `Cell<u64>`, which neither allocates nor
// has a destructor; the same goes for the `Cell<i64>` of live bytes and the
// `Cell<usize>` of the largest request.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size() as i64);
        note_size(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size() as i64);
        note_size(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_bytes(new_size as i64 - layout.size() as i64);
        note_size(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through; `ptr`
        // came from this allocator, which is to say from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        // SAFETY: the caller's contract for `dealloc`, passed through; `ptr`
        // came from this allocator, which is to say from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns how many allocations the calling thread made
/// meanwhile (zero unless [`CountingAllocator`] is the global allocator),
/// with `f`'s result — returned, not dropped, so that freeing it is the
/// caller's to place.
pub fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Runs `f` and returns by how many bytes the calling thread's live heap
/// grew meanwhile (negative if it shrank; zero unless [`CountingAllocator`]
/// is the global allocator), with `f`'s result — returned, not dropped, so
/// that what `f` built still counts.
pub fn live_bytes_in<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE_BYTES.with(Cell::get);
    let result = f();
    (LIVE_BYTES.with(Cell::get) - before, result)
}

/// Runs `f` and returns the size of the largest single allocation the
/// calling thread requested meanwhile (a `realloc` counts its new size;
/// zero unless [`CountingAllocator`] is the global allocator), with `f`'s
/// result.
pub fn largest_allocation_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let outer = LARGEST.with(|n| n.replace(0));
    let result = f();
    let largest = LARGEST.with(|n| n.replace(outer.max(n.get())));
    (largest, result)
}
