//! Multi-tenant overload protection: quota shedding, eq. (2)-priced SLO
//! admission, deferral with TTL expiry, deadline cancellation and the
//! per-tenant report rollup.

use msr_core::{
    CoreError, DatasetSpec, LocationHint, MsrSystem, OverloadPolicy, Tenant, TenantQuota,
};
use msr_meta::ElementType;
use msr_sched::{Scheduler, SessionProgram};
use msr_sim::SimDuration;
use msr_storage::StorageKind;

/// `dumps` local-disk dumps of a 16 KiB float cube.
fn disk_program(app: &str, dumps: u32) -> SessionProgram {
    SessionProgram::new(app).iterations(dumps - 1).dataset(
        DatasetSpec::builder("d")
            .element(ElementType::F32)
            .cube(16)
            .frequency(1)
            .hint(LocationHint::LocalDisk)
            .build(),
    )
}

/// A program that would push the tenant past its hard request quota is
/// shed at admission with a typed [`CoreError::QuotaExceeded`], before
/// anything is queued, and the shed lands in the tenant's report row.
#[test]
fn quota_overflow_sheds_with_a_typed_error() {
    let sys = MsrSystem::testbed(81);
    sys.tenants
        .register(Tenant::new("capped").with_quota(TenantQuota {
            max_queued_requests: Some(10),
        }));
    let mut sched = Scheduler::new(&sys);
    // 8 dumps fit under the 10-request cap...
    let ok = sched
        .admit(disk_program("capped-a", 8).tenant("capped"))
        .unwrap();
    assert!(ok.is_some());
    // ...but 8 more on top of the 8 already queued do not.
    let err = sched
        .admit(disk_program("capped-b", 8).tenant("capped"))
        .unwrap_err();
    match err {
        CoreError::QuotaExceeded {
            tenant,
            resource,
            used,
            requested,
            limit,
        } => {
            assert_eq!(tenant, "capped");
            assert_eq!(resource, "queued requests");
            assert_eq!((used, requested, limit), (8, 8, 10));
        }
        other => panic!("expected QuotaExceeded, got {other}"),
    }
    // Another tenant is not affected by the capped tenant's quota.
    assert!(sched
        .admit(disk_program("free", 8).tenant("free"))
        .unwrap()
        .is_some());

    let report = sched.run().unwrap();
    let capped = report
        .tenants
        .iter()
        .find(|t| t.tenant == "capped")
        .expect("tenant row");
    assert_eq!(capped.shed, 1);
    assert_eq!(capped.sessions, 1);
    assert!(capped.requests > 0);
}

/// A tenant whose eq. (2) priced queue wait exceeds its SLO is shed with
/// a typed [`CoreError::Rejected`] carrying both the priced wait and the
/// SLO; once the backlog drains, the same program is admitted.
#[test]
fn slo_violation_sheds_and_clears_with_the_backlog() {
    let sys = MsrSystem::testbed(82);
    // Load the disk queue with an untagged heavy client, then derive an
    // SLO strictly below the resulting priced wait.
    let mut sched = Scheduler::new(&sys);
    sched.admit(disk_program("heavy", 40)).unwrap();
    let backlog = sys.load.predicted_backlog(StorageKind::LocalDisk);
    assert!(backlog > 0.0, "heavy client must register backlog");
    sys.tenants
        .register(Tenant::new("latency").with_slo(SimDuration::from_secs(backlog * 0.5)));

    let err = sched
        .admit(disk_program("latency-app", 2).tenant("latency"))
        .unwrap_err();
    match err {
        CoreError::Rejected {
            tenant,
            predicted_wait,
            slo,
        } => {
            assert_eq!(tenant, "latency");
            assert!(predicted_wait > slo, "{predicted_wait} vs {slo}");
        }
        other => panic!("expected Rejected, got {other}"),
    }
    let report = sched.run().unwrap();
    let row = report
        .tenants
        .iter()
        .find(|t| t.tenant == "latency")
        .expect("shed tenants still get a report row");
    assert_eq!((row.shed, row.sessions), (1, 0));

    // With the queue drained, the identical program is admitted.
    let mut sched = Scheduler::new(&sys);
    assert!(sched
        .admit(disk_program("latency-app", 2).tenant("latency"))
        .unwrap()
        .is_some());
    let report = sched.run().unwrap();
    assert!(report.sessions.iter().all(|s| s.errors.is_empty()));
}

/// Under a `Defer` overload policy an over-SLO program parks in the
/// backpressure queue instead of erroring, and is admitted mid-drain once
/// the backlog clears — the drain's final report carries its session.
#[test]
fn deferred_program_is_admitted_mid_drain() {
    let sys = MsrSystem::testbed(83);
    let mut sched = Scheduler::new(&sys);
    sched.admit(disk_program("heavy", 40)).unwrap();
    let backlog = sys.load.predicted_backlog(StorageKind::LocalDisk);
    sys.tenants.register(
        Tenant::new("patient")
            .with_slo(SimDuration::from_secs(backlog * 0.5))
            .with_overload(OverloadPolicy::Defer {
                max_deferred: 2,
                ttl: SimDuration::from_secs(1e9),
            }),
    );
    let parked = sched
        .admit(disk_program("patient-app", 2).tenant("patient"))
        .unwrap();
    assert!(parked.is_none(), "over-SLO program must park, not error");
    assert_eq!(sched.deferred_len(), 1);

    let report = sched.run().unwrap();
    // The parked program ran: two sessions in the report, and the
    // patient tenant's row shows one deferral and one completed session.
    assert_eq!(report.sessions.len(), 2);
    let patient = report
        .sessions
        .iter()
        .find(|s| s.app == "patient-app")
        .expect("deferred session must run");
    assert!(patient.errors.is_empty());
    assert!(patient.requests > 0);
    assert_eq!(patient.tenant, "patient");
    let row = report
        .tenants
        .iter()
        .find(|t| t.tenant == "patient")
        .unwrap();
    assert_eq!((row.deferred, row.expired, row.sessions), (1, 0, 1));
}

/// A parked program that can no longer be placed when its turn comes (every
/// resource went dark while it waited) expires with the typed error as its
/// reason. The drain still ends `Ok` and still accounts for the session it
/// was already serving — one parked program must not cost the whole report.
#[test]
fn deferred_program_that_cannot_be_placed_expires_without_aborting_the_drain() {
    let sys = MsrSystem::testbed(83);
    let mut sched = Scheduler::new(&sys);
    sched.admit(disk_program("heavy", 40)).unwrap();
    let backlog = sys.load.predicted_backlog(StorageKind::LocalDisk);
    sys.tenants.register(
        Tenant::new("patient")
            .with_slo(SimDuration::from_secs(backlog * 0.5))
            .with_overload(OverloadPolicy::Defer {
                max_deferred: 2,
                ttl: SimDuration::from_secs(1e9),
            }),
    );
    assert!(sched
        .admit(disk_program("patient-app", 2).tenant("patient"))
        .unwrap()
        .is_none());
    for kind in [
        StorageKind::LocalDisk,
        StorageKind::RemoteDisk,
        StorageKind::RemoteTape,
    ] {
        sys.set_resource_online(kind, false);
    }

    let report = sched
        .run()
        .expect("a parked program's typed error must not abort the drain");
    assert_eq!(report.sessions.len(), 1, "the parked program never opened");
    let heavy = &report.sessions[0];
    assert_eq!(heavy.app, "heavy");
    assert_eq!(heavy.requests, 0, "no resource could serve anything");
    assert!(
        !heavy.errors.is_empty(),
        "abandoned dumps surface as errors"
    );
    let row = report
        .tenants
        .iter()
        .find(|t| t.tenant == "patient")
        .unwrap();
    assert_eq!((row.deferred, row.expired, row.sessions), (1, 1, 0));
}

/// A parked program whose TTL elapses before the backlog clears expires:
/// counted on the tenant, never run, never errored.
#[test]
fn deferred_program_expires_after_its_ttl() {
    let sys = MsrSystem::testbed(84);
    let mut sched = Scheduler::new(&sys);
    sched.admit(disk_program("heavy", 40)).unwrap();
    let backlog = sys.load.predicted_backlog(StorageKind::LocalDisk);
    sys.tenants.register(
        Tenant::new("hasty")
            .with_slo(SimDuration::from_secs(backlog * 0.5))
            .with_overload(OverloadPolicy::Defer {
                max_deferred: 2,
                // Expires long before the 40-dump backlog can drain.
                ttl: SimDuration::from_secs(1e-6),
            }),
    );
    assert!(sched
        .admit(disk_program("hasty-app", 2).tenant("hasty"))
        .unwrap()
        .is_none());

    let report = sched.run().unwrap();
    assert_eq!(report.sessions.len(), 1, "expired program must not run");
    let row = report.tenants.iter().find(|t| t.tenant == "hasty").unwrap();
    assert_eq!((row.deferred, row.expired, row.sessions), (1, 1, 0));
}

/// A full deferral queue stops absorbing programs: the overflow is shed
/// with a typed error even under a `Defer` policy.
#[test]
fn full_deferral_queue_sheds_the_overflow() {
    let sys = MsrSystem::testbed(85);
    let mut sched = Scheduler::new(&sys);
    sched.admit(disk_program("heavy", 40)).unwrap();
    let backlog = sys.load.predicted_backlog(StorageKind::LocalDisk);
    sys.tenants.register(
        Tenant::new("bursty")
            .with_slo(SimDuration::from_secs(backlog * 0.5))
            .with_overload(OverloadPolicy::Defer {
                max_deferred: 1,
                ttl: SimDuration::from_secs(1e9),
            }),
    );
    assert!(sched
        .admit(disk_program("bursty-a", 2).tenant("bursty"))
        .unwrap()
        .is_none());
    let err = sched
        .admit(disk_program("bursty-b", 2).tenant("bursty"))
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Rejected { .. }),
        "overflow must shed: {err}"
    );
}

/// A session whose deadline becomes unreachable is cancelled mid-drain:
/// its queued requests are dropped, its partial report carries the
/// cancellation reason, and the tenant row counts it.
#[test]
fn unreachable_deadline_cancels_the_session_mid_drain() {
    let sys = MsrSystem::testbed(86);
    let mut sched = Scheduler::new(&sys);
    // Plenty of queued work with a deadline no drain can meet.
    let id = sched
        .admit(
            disk_program("doomed", 40)
                .tenant("impatient")
                .deadline(SimDuration::from_secs(1e-6)),
        )
        .unwrap()
        .expect("deadline programs are admitted, then policed");
    let report = sched.run().unwrap();
    let s = &report.sessions[id as usize];
    let reason = s.cancelled.as_ref().expect("session must be cancelled");
    assert!(
        reason.contains("deadline"),
        "cancellation must name the deadline: {reason}"
    );
    assert!(
        s.requests < 40,
        "queued requests must have been dropped, not drained"
    );
    assert_eq!(s.reports.len() as u64, s.requests, "partial but consistent");
    let row = report
        .tenants
        .iter()
        .find(|t| t.tenant == "impatient")
        .unwrap();
    assert_eq!(row.cancelled, 1);

    // A generous deadline on the same workload is left alone.
    let mut sched = Scheduler::new(&sys);
    sched
        .admit(
            disk_program("relaxed", 10)
                .tenant("impatient")
                .deadline(SimDuration::from_secs(1e9)),
        )
        .unwrap();
    let report = sched.run().unwrap();
    assert!(report.sessions[0].cancelled.is_none());
    assert_eq!(report.sessions[0].requests, 10);
}

/// The per-tenant rollup: untagged programs land on the default tenant,
/// tagged ones on their own row, and the rows account all served traffic.
#[test]
fn tenant_rollup_accounts_every_session() {
    let sys = MsrSystem::testbed(87);
    let mut sched = Scheduler::new(&sys);
    sched.admit(disk_program("plain", 4)).unwrap();
    sched
        .admit(disk_program("a-1", 4).tenant("team-a"))
        .unwrap();
    sched
        .admit(disk_program("a-2", 4).tenant("team-a"))
        .unwrap();
    sched
        .admit(disk_program("b-1", 4).tenant("team-b"))
        .unwrap();
    let report = sched.run().unwrap();

    let names: Vec<&str> = report.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert_eq!(names, ["default", "team-a", "team-b"]);
    let by_name = |n: &str| report.tenants.iter().find(|t| t.tenant == n).unwrap();
    assert_eq!(by_name("default").sessions, 1);
    assert_eq!(by_name("team-a").sessions, 2);
    assert_eq!(by_name("team-b").sessions, 1);
    let rolled: u64 = report.tenants.iter().map(|t| t.requests).sum();
    assert_eq!(rolled, report.requests(), "rows must cover all traffic");
    let bytes: u64 = report.tenants.iter().map(|t| t.bytes).sum();
    assert_eq!(bytes, report.total_bytes);
    for s in &report.sessions {
        assert!(!s.tenant.is_empty(), "every session names its tenant");
    }
    // The default tenant's p99 wait is the max over its sessions' p99s —
    // and at least one session actually waited under this contention.
    assert!(report
        .sessions
        .iter()
        .any(|s| s.wait_p99 > SimDuration::ZERO));
}
