//! `bench` — the Criterion benchmark suite of the reproduction: two
//! targets under `benches/`, each a walk of one table.
//!
//! `paper_experiments` prints every row of `harness::EXPERIMENTS` (one
//! per table or figure of the paper's evaluation) at paper scale with
//! its shape check, then times the rows and the operations underneath
//! them. `store_throughput` does the same for its own `SCENARIOS`
//! table (one row per storage scenario) and, under
//! `STORE_THROUGHPUT_SMOKE=1`, rewrites `BENCH_store_throughput.json`
//! from it. Run with `cargo bench --workspace`. The end-to-end
//! benchmark with its own workloads is a separate package, described
//! in `benchmark/README.md`.
//!
//! The crate also exports [`CountingAllocator`], a global-allocator
//! shim the `zero_alloc` integration test installs to prove the
//! per-frame encode path stays off the heap once its scratch buffers
//! are warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] wrapper around [`System`] that counts every call
/// which can hand out new heap memory (`alloc`, `alloc_zeroed`,
/// `realloc`). Install it with `#[global_allocator]` and use
/// [`CountingAllocator::count`] to measure the allocation cost of a
/// closure.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

impl CountingAllocator {
    /// Total counted allocations since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Runs `f` and returns its result together with the number of
    /// heap allocations it performed. Only meaningful when
    /// `CountingAllocator` is installed as the global allocator and no
    /// other thread allocates concurrently.
    pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = Self::allocations();
        let result = f();
        (result, Self::allocations() - before)
    }
}
