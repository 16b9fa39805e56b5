//! A global allocator for tests that records the largest allocation each
//! thread requests, so a test can prove that hostile input was refused
//! before its claimed length was allocated.
//!
//! A test binary installs it once, then brackets the call under test with
//! [`reset`] and [`largest`]. The record is per thread, so parallel test
//! threads do not disturb it.
//!
//! ```
//! #[global_allocator]
//! static ALLOC: gr_testalloc::Tracking = gr_testalloc::Tracking;
//!
//! fn main() {
//!     gr_testalloc::reset();
//!     let page = std::hint::black_box(vec![0u8; 4096]);
//!     assert_eq!(gr_testalloc::largest(), 4096);
//!     drop(page);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(layout: Layout) {
    // `try_with`: allocations during thread teardown find no slot.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
}

/// Forwards to the system allocator, recording request sizes.
pub struct Tracking;

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; recording a size touches only a
// thread-local `Cell` and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Forgets this thread's largest allocation.
pub fn reset() {
    LARGEST.with(|m| m.set(0));
}

/// The largest allocation this thread requested since [`reset`].
pub fn largest() -> usize {
    LARGEST.with(Cell::get)
}
