//! Counting global allocator for bench binaries.
//!
//! Install it with
//!
//! ```ignore
//! #[path = "support/alloc_probe.rs"]
//! mod alloc_probe;
//!
//! #[global_allocator]
//! static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;
//! ```
//!
//! and bracket the region of interest with [`start`]/[`stop`]. While
//! armed, the probe tracks the net bytes allocated since [`start`] and
//! their peak, so [`stop`] reports how much heap the region held at
//! its high-water mark above what was live before it (frees of older
//! blocks count too, so the net can dip below zero). Allocation calls
//! and requested bytes are counted only when `WEBDEPS_BENCH_ALLOC=1` is
//! set (reallocs count the full new size: that pair measures allocator
//! traffic, not live heap). Outside a region each allocation pays one
//! relaxed atomic load.
//!
//! Lives outside the `webdeps_bench` library because the library
//! forbids `unsafe`, and a `GlobalAlloc` impl is irreducibly unsafe;
//! bench binaries opt in file-by-file instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static TRAFFIC: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// What the probe saw between [`start`] and [`stop`].
pub struct Region {
    /// Peak of the net bytes allocated since [`start`].
    pub peak_bytes: u64,
    /// `(allocation_calls, bytes_requested)`, when
    /// `WEBDEPS_BENCH_ALLOC=1`.
    pub traffic: Option<(u64, u64)>,
}

/// System allocator wrapper that tracks live bytes while armed.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Books `freed` bytes released and `allocated` bytes obtained by
    /// one call.
    #[inline]
    fn tally(freed: usize, allocated: usize) {
        // Relaxed is enough: the counters are read only after `stop`
        // disarms the probe, and the peak is a high-water mark of one
        // shared counter, whose updates are totally ordered.
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let delta = allocated as i64 - freed as i64;
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        if allocated > 0 && TRAFFIC.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(allocated as u64, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tally(0, layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tally(0, layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tally(layout.size(), new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::tally(layout.size(), 0);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Resets the counters and arms the probe; allocation traffic is
/// counted too when `WEBDEPS_BENCH_ALLOC=1`.
pub fn start() {
    // Read the environment out here, never inside the allocator hooks:
    // `std::env::var` allocates, and an env read from `alloc` would
    // re-enter the allocator.
    let traffic = std::env::var("WEBDEPS_BENCH_ALLOC").is_ok_and(|v| v == "1");
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TRAFFIC.store(traffic, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the probe and reports the region since [`start`].
pub fn stop() -> Region {
    ARMED.store(false, Ordering::Relaxed);
    Region {
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        traffic: TRAFFIC.load(Ordering::Relaxed).then(|| {
            (
                ALLOCS.load(Ordering::Relaxed),
                BYTES.load(Ordering::Relaxed),
            )
        }),
    }
}
