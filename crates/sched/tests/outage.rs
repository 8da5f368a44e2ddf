//! Outage regression suite for the discrete-event dispatcher.
//!
//! The dispatcher arms one completion event per resource. An outaged
//! resource must *park* — its queue drains to the fallback through the
//! circuit-open branch and its cursor simply stops receiving events —
//! never *wedge* the loop with a `SimTime::INFINITY` completion that would
//! stall the drain forever. These tests hold the engine to that contract
//! under the harshest shapes: a resource dark for the entire drain, an
//! outage landing mid-drain, and every resource dark at once (nothing left
//! to fail over to).

use msr_core::{BreakerState, DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_meta::{ElementType, Location, RunId};
use msr_sched::{Scheduler, SessionProgram};
use msr_sim::SimDuration;
use msr_storage::StorageKind;

/// Tape-bound archival producer, pinned to tape.
fn archive_program(i: usize) -> SessionProgram {
    SessionProgram::new(&format!("archive-{i:02}"))
        .user("sim")
        .iterations(24)
        .dataset(
            DatasetSpec::builder("hist")
                .element(ElementType::F32)
                .cube(16)
                .frequency(6)
                .hint(LocationHint::RemoteTape)
                .future_use(FutureUse::Archive)
                .build(),
        )
}

/// A resource that is dark for the *whole* drain parks: every stranded
/// request re-queues to the fallback, the drain terminates with a finite
/// makespan, and no request is lost or wedged on the dead resource. The
/// fallback is a resource no session had connected: the re-placement
/// connects it, so every request moves exactly once and lands there.
#[test]
fn whole_drain_outage_parks_and_drains_to_fallback() {
    let sys = MsrSystem::testbed(71);
    let mut sched = Scheduler::new(&sys);
    for i in 0..3 {
        sched.admit(archive_program(i)).unwrap();
    }
    sys.set_resource_online(StorageKind::RemoteTape, false);
    let report = sched.run().expect("drain must terminate, not wedge");
    assert!(report.makespan > SimDuration::ZERO);
    assert!(report.makespan.as_secs().is_finite(), "wedged makespan");
    for s in &report.sessions {
        assert!(s.errors.is_empty(), "failover must stay transparent");
        assert_eq!(
            s.reports.len() as u64,
            s.requests,
            "every request must be served exactly once"
        );
        assert_eq!(
            u64::from(s.requeues),
            s.requests,
            "one move per request: the fallback must not bounce them on"
        );
        assert_eq!(
            s.placements["hist"],
            StorageKind::RemoteDisk,
            "archive data falls back to the remote disks"
        );
        let mut catalog = sys.catalog.lock();
        assert_eq!(
            catalog.find_dataset(RunId(s.run), "hist").unwrap().location,
            Location::Stored(StorageKind::RemoteDisk),
            "the catalog and the report name the same resource"
        );
    }
    assert_eq!(
        sys.health.state(StorageKind::RemoteDisk),
        BreakerState::Closed,
        "a healthy fallback must not be blamed for a missing connection"
    );
}

/// The outage drives the *failure path*, not just the planner pre-check:
/// the breaker starts closed, the first dispatches to the dark resource
/// fail, the circuit opens after the threshold, and from then on the
/// circuit-open branch drains the queue to fallback. The drain stays
/// bounded — a parked resource must not stall it past a small multiple of
/// the healthy makespan.
#[test]
fn outage_failures_trip_the_breaker_and_stay_bounded() {
    // Baseline: how long the healthy drain runs.
    let healthy = {
        let sys = MsrSystem::testbed(72);
        let mut sched = Scheduler::new(&sys);
        for i in 0..3 {
            sched.admit(archive_program(i)).unwrap();
        }
        sched.run().unwrap().makespan
    };

    let sys = MsrSystem::testbed(72);
    let mut sched = Scheduler::new(&sys);
    for i in 0..3 {
        sched.admit(archive_program(i)).unwrap();
    }
    sys.set_resource_online(StorageKind::RemoteTape, false);
    let report = sched.run().expect("outage must not wedge");
    assert!(report.makespan.as_secs().is_finite());
    assert!(
        report.makespan < healthy + healthy + healthy,
        "parked resource must not stall the drain: {} vs healthy {}",
        report.makespan,
        healthy
    );
    let served: u64 = report.sessions.iter().map(|s| s.requests).sum();
    let errors: usize = report.sessions.iter().map(|s| s.errors.len()).sum();
    assert!(served > 0);
    assert_eq!(errors, 0, "fallback capacity was available");
    // The breaker actually opened: requeue markers name the circuit.
    assert!(
        sys.health.total_counters().trips > 0,
        "offline dispatch failures must trip the breaker"
    );
}

/// Every resource dark at once: nothing to fail over to. The drain must
/// still terminate — every request surfaces as a typed per-request error
/// in the session report instead of wedging the event loop.
#[test]
fn total_outage_terminates_with_typed_errors() {
    let sys = MsrSystem::testbed(73);
    let mut sched = Scheduler::new(&sys);
    let id = sched
        .admit(
            SessionProgram::new("doomed").iterations(12).dataset(
                DatasetSpec::builder("d")
                    .element(ElementType::U8)
                    .cube(8)
                    .frequency(6)
                    .hint(LocationHint::LocalDisk)
                    .build(),
            ),
        )
        .unwrap()
        .expect("admitted");
    for kind in [
        StorageKind::LocalDisk,
        StorageKind::RemoteDisk,
        StorageKind::RemoteTape,
    ] {
        sys.set_resource_online(kind, false);
    }
    let report = sched.run().expect("total outage must terminate");
    let s = &report.sessions[id as usize];
    assert!(report.makespan.as_secs().is_finite());
    // Every queued request is accounted for: served (none can be) or
    // abandoned with a typed reason. Nothing silently vanishes.
    assert_eq!(s.requests, 0, "no resource could serve anything");
    assert!(
        !s.errors.is_empty(),
        "abandoned requests must surface as typed errors"
    );
    assert!(s
        .errors
        .iter()
        .all(|e| e.contains("gave up") || e.contains("no usable resource")));
}

/// The outage drain replays bitwise at any worker-pool width — parking a
/// resource must not introduce thread-count-dependent interleavings.
#[test]
fn outage_drains_replay_across_thread_counts() {
    let run = || {
        let sys = MsrSystem::testbed(74);
        let mut sched = Scheduler::new(&sys);
        for i in 0..3 {
            sched.admit(archive_program(i)).unwrap();
        }
        sys.set_resource_online(StorageKind::RemoteTape, false);
        serde_json::to_string(&sched.run().unwrap()).unwrap()
    };
    let wide = rayon::pool::with_threads(4, run);
    let narrow = rayon::pool::with_threads(1, run);
    assert_eq!(wide, narrow, "outage drain must not depend on MSR_THREADS");
}

/// A deadline session whose tape requests requeue to the remote disk is
/// judged by what it still has queued there: its deadline bookkeeping
/// follows the repriced work, so once everything it queued is served it
/// is never cancelled, however long other sessions keep the drain going.
#[test]
fn requeued_deadline_session_is_not_cancelled_after_it_drains() {
    let sys = MsrSystem::testbed(75);
    let mut sched = Scheduler::new(&sys);
    // The tape estimate (68.7 s: five dumps, the first priced with the
    // mount of the run's fresh volume) fits the deadline; so does the disk.
    let deadline = SimDuration::from_secs(200.0);
    let id = sched
        .admit(archive_program(0).deadline(deadline))
        .unwrap()
        .expect("admitted");
    // Local-disk work that keeps the drain running well past the deadline.
    let local = DatasetSpec::builder("d")
        .element(ElementType::F32)
        .cube(16)
        .frequency(1)
        .hint(LocationHint::LocalDisk)
        .build();
    sched
        .admit(SessionProgram::new("local").iterations(2400).dataset(local))
        .unwrap();
    sys.set_resource_online(StorageKind::RemoteTape, false);
    let report = sched.run().unwrap();
    assert!(report.makespan.as_secs() > 2.0 * deadline.as_secs());
    let s = &report.sessions[id as usize];
    assert_eq!(u64::from(s.requeues), s.requests, "every request moved");
    assert_eq!(s.reports.len(), 5, "every dump served");
    assert!(s.completed_at.as_secs() < deadline.as_secs());
    assert_eq!(s.cancelled, None, "a drained session cannot be doomed");
}
