//! Host heap-allocation counters for the snapshot's `host_allocs` and
//! `host_alloc_bytes` columns.
//!
//! [`CountingAlloc`] forwards every request to the system allocator and
//! counts the allocations (`alloc`, `alloc_zeroed` and each `realloc`) and
//! the bytes they ask for, process-wide, in the style of shadow's
//! `ObjectStats` counters. It counts only where a binary installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: trisolve_bench::alloc::CountingAlloc = trisolve_bench::alloc::CountingAlloc;
//! ```
//!
//! The `snapshot` binary and the `trisolve` CLI (whose `report --regress`
//! runs the gate) install it. Anywhere else [`counting`] reports `None`,
//! and the snapshot's allocation columns are `null`. The counters are
//! process-wide, so a count taken while another thread allocates includes
//! that thread's allocations too: measure with nothing else running.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting what it is asked for.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract for them; the counting around each
// call only bumps atomics, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations counted over a stretch of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Allocations, reallocations included.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub bytes: u64,
}

/// The totals since start-up, or `None` when this process does not run
/// [`CountingAlloc`]: a program that installed it has allocated before
/// `main` (its arguments, at least).
fn totals() -> Option<AllocCounts> {
    let allocs = ALLOCS.load(Relaxed);
    (allocs > 0).then(|| AllocCounts {
        allocs,
        bytes: BYTES.load(Relaxed),
    })
}

/// Run `f` and return its result with the allocations made meanwhile
/// (`None` without [`CountingAlloc`]).
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, Option<AllocCounts>) {
    let before = totals();
    let out = f();
    let counts = totals().zip(before).map(|(after, before)| AllocCounts {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
    });
    (out, counts)
}
