//! Frozen `SchedReport` fingerprints.
//!
//! `crates/sched/tests/equivalence.rs` holds the event engine to the
//! round engine, but the two share their leaf accounting (`Drain::serve`,
//! `requeue`, `finalize`): a bug there moves both reports together and
//! the equivalence suite cannot see it. These golden fingerprints —
//! FNV-1a-64 of the full report JSON at seed 2000 — pin the absolute
//! bytes instead, the same pattern as `cut_fingerprint_is_frozen` in
//! `crates/chunk/tests/parallel_cdc.rs`. A changed constant means every
//! committed scheduler ledger moved; it must be a deliberate decision.

use msr::apps::multi::{consumer_fleet, dedup_fleet};
use msr::prelude::*;

const SEED: u64 = 2000;

fn fingerprint(report: &SchedReport) -> String {
    let json = serde_json::to_string(report).unwrap();
    let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{fnv:016x}")
}

/// Admit `programs` on `sys` and drain with the event engine, or with the
/// round-based reference engine when `event` is false.
fn drain(
    sys: &MsrSystem,
    programs: Vec<SessionProgram>,
    prefetch: bool,
    event: bool,
) -> SchedReport {
    let mut sched = Scheduler::new(sys).with_prefetch(prefetch);
    for p in programs {
        sched.admit(p).unwrap();
    }
    if event {
        sched.run().unwrap()
    } else {
        sched.run_round_based().unwrap()
    }
}

#[test]
fn client_fleet_on_demand_fingerprint_is_frozen() {
    for event in [true, false] {
        let sys = MsrSystem::testbed(SEED);
        let report = drain(&sys, client_fleet(16, 16, 12), false, event);
        assert_eq!(report.prefetch_hits, 0);
        assert_eq!(
            fingerprint(&report),
            "51b3ccdfdfde6c5b",
            "client fleet report moved (event engine: {event})"
        );
    }
}

#[test]
fn consumer_fleet_staged_fingerprint_is_frozen() {
    for event in [true, false] {
        let sys = MsrSystem::testbed(SEED);
        let report = drain(&sys, consumer_fleet(16, 16, 24), true, event);
        assert!(report.prefetch_hits > 0, "the staged serve path must run");
        assert_eq!(
            fingerprint(&report),
            "c2ed991948dcb915",
            "consumer fleet report moved (event engine: {event})"
        );
    }
}

#[test]
fn antagonist_tenants_fingerprint_is_frozen() {
    let sys = MsrSystem::testbed(SEED);
    register_antagonist_tenants(&sys, 100, SimDuration::from_secs(5.0));
    let mut programs = quiet_fleet(4, 16, 24);
    let mut antagonists = noisy_fleet(6, 32, 23);
    antagonists[0] = antagonists[0]
        .clone()
        .deadline(SimDuration::from_secs(1e-6));
    programs.extend(antagonists);
    programs.extend(batch_fleet(2, 16, 24));
    let report = run_overloaded(&sys, programs).unwrap();
    let total = |f: fn(&TenantReport) -> u64| report.tenants.iter().map(f).sum::<u64>();
    assert!(total(|t| t.shed) > 0, "the noisy cap must shed");
    assert!(total(|t| t.deferred) > 0, "the batch SLO must defer");
    assert_eq!(total(|t| t.cancelled), 1, "one deadline cancellation");
    assert_eq!(
        fingerprint(&report),
        "191283323008018e",
        "antagonist report moved"
    );
}

#[test]
fn chunked_producers_fingerprint_is_frozen() {
    let sys = MsrSystem::testbed(SEED);
    let report = drain(&sys, dedup_fleet(4, 16, 24, true), false, true);
    assert!(report.sessions.iter().all(|s| s.errors.is_empty()));
    assert_eq!(
        fingerprint(&report),
        "c207acbd212e8019",
        "chunked producer report moved"
    );
}

#[test]
fn seeded_fault_requeue_fingerprint_is_frozen() {
    let mut sys = MsrSystem::testbed(SEED);
    sys.inject_faults(
        StorageKind::RemoteTape,
        FaultPlan::none().with_error_prob(0.3),
    )
    .unwrap();
    let report = drain(&sys, consumer_fleet(8, 16, 24), true, true);
    let requeues: u32 = report.sessions.iter().map(|s| s.requeues).sum();
    assert!(requeues > 0, "seeded faults must force requeues");
    assert_eq!(
        fingerprint(&report),
        "ef7bc1553c32cc6a",
        "faulted drain report moved"
    );
}
