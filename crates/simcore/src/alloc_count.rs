//! A counting global allocator for tests and probes.
//!
//! [`CountingAlloc`] wraps [`System`] and counts, per thread, allocation
//! *events* (`alloc`, `alloc_zeroed`, `realloc`) and live heap bytes. The
//! Rust test harness runs each test on its own thread, so a test reading
//! its thread's counters sees only its own traffic, as long as what it
//! measures is freed on the thread that allocated it.
//!
//! Each user installs it with its own `#[global_allocator]` line and reads
//! the counters before and after the code under measurement:
//!
//! ```
//! use vfc_simcore::alloc_count::{thread_alloc_events, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOCATOR: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let before = thread_alloc_events();
//!     let v = vec![0u8; 64];
//!     assert_eq!(thread_alloc_events() - before, 1);
//!     drop(v);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator: [`System`] plus two per-thread counters.
pub struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn bump(bytes: i64) {
    // `try_with` so allocations during TLS teardown never panic.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
    grow(bytes);
}

fn grow(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

/// Allocation events on this thread since it started.
pub fn thread_alloc_events() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

/// Bytes allocated minus bytes freed on this thread since it started.
pub fn thread_live_bytes() -> i64 {
    LIVE_BYTES.with(|c| c.get())
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local cells that never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}
