//! The producer's allocation budget off the calling thread, pinned by count.
//!
//! Pool workers that allocate dump-sized buffers each grow a malloc arena of
//! their own, which shows as tens of megabytes of resident memory that the
//! producer never needed. The cheap step and every field encoder build
//! their buffers on the caller; this counts every large allocation made on
//! any other thread, so a worker-side buffer fails here whatever the host's
//! memory does.

use msr_apps::astro3d::{ANALYSIS_VARS, RESTART_VARS, VIZ_VARS};
use msr_apps::{Astro3d, Astro3dConfig, StepMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest allocation counted: far above a worker's bookkeeping, far
/// below one 64³ field (256 KiB as u8s).
const LARGE: usize = 64 << 10;
static LARGE_ON_CALLER: AtomicUsize = AtomicUsize::new(0);
static LARGE_ELSEWHERE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator may consult it.
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting requests of at least [`LARGE`] bytes by
/// whether the calling thread is the one that marked itself the caller.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics and a
// const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            let counter = if IS_CALLER.try_with(Cell::get).unwrap_or(false) {
                &LARGE_ON_CALLER
            } else {
                &LARGE_ELSEWHERE
            };
            counter.fetch_add(1, Ordering::SeqCst);
        }
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn pool_workers_allocate_no_large_buffer_for_the_producer() {
    let cfg = Astro3dConfig {
        step_mode: StepMode::Cheap,
        ..Astro3dConfig::small(64, 12)
    };
    let mut sim = Astro3d::new(cfg);
    IS_CALLER.with(|c| c.set(true));
    let elsewhere = LARGE_ELSEWHERE.load(Ordering::SeqCst);
    // More workers than the two parts of a 64³ grid, whatever the host has.
    rayon::with_threads(4, || {
        for step in 1..=3 {
            sim.cheap_step();
            assert_eq!(
                LARGE_ELSEWHERE.load(Ordering::SeqCst),
                elsewhere,
                "cheap step {step} allocated on a worker"
            );
            for name in ANALYSIS_VARS.iter().chain(&VIZ_VARS).chain(&RESTART_VARS) {
                let on_caller = LARGE_ON_CALLER.load(Ordering::SeqCst);
                sim.field_bytes(name).expect("a known field");
                // The output alone is large: the count is live.
                assert!(LARGE_ON_CALLER.load(Ordering::SeqCst) > on_caller, "{name}");
                assert_eq!(
                    LARGE_ELSEWHERE.load(Ordering::SeqCst),
                    elsewhere,
                    "{name} allocated on a worker"
                );
            }
        }
    });
}
