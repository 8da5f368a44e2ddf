//! The metrics snapshot is exact at any event count, and the raw-event
//! window is bounded.
//!
//! `msr-obs` folds every recorded event into its per-(layer, resource, op)
//! row as it arrives and keeps only the newest events raw. A fleet whose
//! stream outgrows the window must still count every native call and
//! every scheduled request; recording many times the window must not hold
//! more than the window, and many live recorders no more than one. The
//! heap tests count what this thread allocates, so tests running beside
//! it do not disturb the count.

use msr::apps::multi::{run_concurrent, scaling_fleet};
use msr::obs::{Layer, Registry, DEFAULT_CAPACITY};
use msr::prelude::*;
use msr::sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Bytes this thread holds live, and the most it held since the last
/// [`reset_peak`].
struct Track {
    live: Cell<isize>,
    peak: Cell<isize>,
}

thread_local! {
    static TRACK: Track = const {
        Track {
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

fn live() -> isize {
    TRACK.with(|t| t.live.get())
}

fn reset_peak() -> isize {
    TRACK.with(|t| {
        t.peak.set(t.live.get());
        t.live.get()
    })
}

fn peak() -> isize {
    TRACK.with(|t| t.peak.get())
}

fn charge(bytes: isize) {
    // A thread being torn down has no track left to keep.
    let _ = TRACK.try_with(|t| {
        let live = t.live.get() + bytes;
        t.live.set(live);
        t.peak.set(t.peak.get().max(live));
    });
}

/// The system allocator, keeping each thread's [`Track`].
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only thread-locals.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        charge(-(layout.size() as isize));
        // SAFETY: `p` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_fleet_past_the_window_counts_every_call_and_request() {
    let sys = MsrSystem::testbed(2000);
    let report = run_concurrent(&sys, scaling_fleet(500)).unwrap();
    let snap = sys.obs.snapshot();
    assert!(
        snap.events > DEFAULT_CAPACITY as u64,
        "{} events",
        snap.events
    );
    assert!(snap.evicted > 0);
    assert_eq!((snap.dropped, sys.obs.dropped()), (0, 0));
    assert_eq!(snap.evicted, sys.obs.evicted());
    assert_eq!(sys.obs.events().len() as u64, snap.events - snap.evicted);

    let count = |layer: &str, resource: &str, op: &str| -> u64 {
        snap.per_op
            .iter()
            .filter(|m| m.layer == layer && m.resource == resource && m.op == op)
            .map(|m| m.count)
            .sum()
    };
    for (_, res) in sys.resources() {
        let (name, stats) = {
            let r = res.lock();
            (r.name().to_owned(), r.stats())
        };
        assert_eq!(
            count("storage", &name, "open"),
            stats.opens as u64,
            "{name}"
        );
        assert_eq!(
            count("storage", &name, "write"),
            stats.writes as u64,
            "{name}"
        );
        assert_eq!(
            count("storage", &name, "close"),
            stats.closes as u64,
            "{name}"
        );
    }
    let sched = |op: &str| -> u64 {
        snap.per_op
            .iter()
            .filter(|m| m.layer == "sched" && m.op == op)
            .map(|m| m.count)
            .sum()
    };
    assert_eq!(sched("sched_wait"), report.requests());
    assert_eq!(sched("sched_dispatch"), report.batches);
}

#[test]
fn recording_many_windows_holds_one_window_and_its_rows() {
    // The default window is small: at most 64 Ki events, 3 MiB.
    const { assert!(DEFAULT_CAPACITY <= 1 << 16) };
    let reg = Registry::new();
    let rec = reg.recorder();
    let base = reset_peak();
    for i in 0..4 * DEFAULT_CAPACITY {
        let dur = SimDuration::from_secs(1e-3 * (1 + i % 100) as f64);
        rec.span(Layer::Storage, "disk", "write", SimTime::EPOCH, dur, 4096);
    }
    drop(rec);
    let held = peak() - base;
    // The window grows by doubling: at most itself and its half while it
    // moves. The one row's sketch has at most 100 buckets.
    let bound = 2 * DEFAULT_CAPACITY * 48 + (64 << 10);
    assert!(held <= bound as isize, "{held} B held, bound {bound} B");
    let snap = reg.snapshot();
    assert_eq!(snap.per_op[0].count, 4 * DEFAULT_CAPACITY as u64);
    assert_eq!(snap.evicted, 3 * DEFAULT_CAPACITY as u64);
    assert!(live() - base <= bound as isize);
}

#[test]
fn a_recorder_holds_no_heap() {
    // Each recorder is a pointer to its registry: what the registry holds
    // is its window, its rows and its names, whatever the recorder count.
    const RECORDERS: usize = 10_000;
    let mut recorders = Vec::with_capacity(RECORDERS);
    let base = live();
    let reg = Registry::new();
    for i in 0..RECORDERS {
        let rec = reg.recorder();
        for _ in 0..5 {
            let dur = SimDuration::from_secs(1e-3);
            rec.span(Layer::Storage, "disk", "write", SimTime::EPOCH, dur, 4096);
        }
        rec.instant(
            Layer::Storage,
            "disk",
            "write",
            SimTime::EPOCH,
            &format!("r{i:05}"),
        );
        recorders.push(rec);
    }
    let held = live() - base;
    // The window's records, then its details: one event in six, each a
    // 24-byte ring slot (at most 4 Ki) and a 6-byte string, plus the one
    // row, the two names and the registry itself.
    let bound = DEFAULT_CAPACITY * 48 + (160 << 10);
    assert!(held <= bound as isize, "{held} B held, bound {bound} B");
    let snap = reg.snapshot();
    assert_eq!(snap.per_op.len(), 1);
    assert_eq!(snap.per_op[0].count, 5 * RECORDERS as u64);
    assert_eq!(reg.events().len(), DEFAULT_CAPACITY);
}
