//! Failure-injection integration tests: outages, WAN partitions, capacity
//! exhaustion and space aggregation — the §5 reliability claims.

use msr::apps::multi::consumer_fleet;
use msr::obs::ops;
use msr::prelude::*;

fn u8_spec(name: &str, hint: LocationHint) -> DatasetSpec {
    DatasetSpec::builder(name)
        .element(ElementType::U8)
        .cube(16)
        .hint(hint)
        .build()
}

fn payload(spec: &DatasetSpec) -> Vec<u8> {
    (0..spec.snapshot_bytes())
        .map(|i| (i % 253) as u8)
        .collect()
}

#[test]
fn wan_partition_fails_remote_placements_over_to_local() {
    let sys = MsrSystem::testbed(201);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(12)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let spec = u8_spec("d", LocationHint::RemoteDisk).with_future_use(FutureUse::Analysis);
    let h = s.open(spec.clone()).unwrap();
    s.write_iteration(h, 0, &payload(&spec)).unwrap();
    // The WAN partitions: both SDSC resources become unreachable.
    sys.set_wan_up(false);
    let rep = s.write_iteration(h, 6, &payload(&spec)).unwrap().unwrap();
    assert!(rep.bytes > 0);
    let report = s.finalize().unwrap();
    assert_eq!(report.datasets[0].location, Some(StorageKind::LocalDisk));
    assert!(report.events.iter().any(|e| e.reason == "network failure"));
}

#[test]
fn capacity_exhaustion_midrun_spills_to_the_next_resource() {
    let sys = MsrSystem::testbed(202);
    // Local disk fits two dumps and no more.
    let local = sys.resource(StorageKind::LocalDisk).unwrap();
    local.lock().set_capacity(2 * 16 * 16 * 16 + 100);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(24)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    // Placement checks the *whole run's* bytes, so a pinned hint for a run
    // that cannot fit falls back immediately...
    let spec = u8_spec("d", LocationHint::LocalDisk).with_future_use(FutureUse::Visualization);
    let h = s.open(spec.clone()).unwrap();
    for iter in (0..=24).step_by(6) {
        s.write_iteration(h, iter, &payload(&spec)).unwrap();
    }
    let report = s.finalize().unwrap();
    assert_eq!(report.datasets[0].dumps, 5);
    assert_eq!(
        report.datasets[0].location,
        Some(StorageKind::RemoteDisk),
        "visualization preference spills to remote disk"
    );
}

#[test]
fn an_overwrite_dataset_is_replaced_where_its_one_file_fits() {
    let sys = MsrSystem::testbed(205);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(10)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let spec = DatasetSpec::builder("restart")
        .element(ElementType::U8)
        .cube(16)
        .frequency(1)
        .amode(AccessMode::OverWrite)
        .hint(LocationHint::LocalDisk)
        .future_use(FutureUse::Visualization)
        .build();
    let h = s.open(spec.clone()).unwrap();
    s.write_iteration(h, 0, &payload(&spec)).unwrap();
    sys.set_resource_online(StorageKind::LocalDisk, false);
    // The next preference has room for two snapshots: the one file an
    // overwrite-in-place dataset rewrites fits, its remaining dumps would not.
    {
        let remote = sys.resource(StorageKind::RemoteDisk).unwrap();
        let mut r = remote.lock();
        let used = r.used_bytes();
        r.set_capacity(used + 2 * spec.snapshot_bytes());
    }
    for iter in 1..=10 {
        s.write_iteration(h, iter, &payload(&spec)).unwrap();
    }
    let report = s.finalize().unwrap();
    assert_eq!(report.datasets[0].dumps, 11);
    assert_eq!(report.datasets[0].location, Some(StorageKind::RemoteDisk));
    assert_eq!(
        report.events.last().map(|e| (e.to, e.at_iteration)),
        Some((Some(StorageKind::RemoteDisk), 1))
    );
}

#[test]
fn capacity_pressure_from_another_tenant_triggers_failover() {
    let sys = MsrSystem::testbed(203);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(24)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let spec = u8_spec("d", LocationHint::LocalDisk).with_future_use(FutureUse::Visualization);
    let h = s.open(spec.clone()).unwrap();
    s.write_iteration(h, 0, &payload(&spec)).unwrap();
    // Another tenant fills the local disk between iterations.
    let local = sys.resource(StorageKind::LocalDisk).unwrap();
    {
        let mut r = local.lock();
        let used = r.used_bytes();
        r.set_capacity(used + 100);
    }
    let rep = s.write_iteration(h, 6, &payload(&spec)).unwrap().unwrap();
    assert!(rep.bytes > 0);
    let report = s.finalize().unwrap();
    assert!(report
        .events
        .iter()
        .any(|e| e.reason == "capacity exceeded" && e.at_iteration == 6));
}

#[test]
fn recovered_resource_is_used_by_subsequent_sessions() {
    let sys = MsrSystem::testbed(204);
    sys.set_resource_online(StorageKind::RemoteTape, false);
    {
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(6)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let spec = u8_spec("d", LocationHint::RemoteTape);
        let h = s.open(spec.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&spec)).unwrap();
        let r = s.finalize().unwrap();
        assert_eq!(r.datasets[0].location, Some(StorageKind::RemoteDisk));
    }
    sys.set_resource_online(StorageKind::RemoteTape, true);
    {
        let mut s = sys
            .session()
            .app("app")
            .user("u2")
            .iterations(6)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let spec = u8_spec("d", LocationHint::RemoteTape);
        let h = s.open(spec.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&spec)).unwrap();
        let r = s.finalize().unwrap();
        assert_eq!(r.datasets[0].location, Some(StorageKind::RemoteTape));
    }
}

#[test]
fn disable_hint_writes_nothing_anywhere() {
    let sys = MsrSystem::testbed(205);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(12)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let spec = u8_spec("ghost", LocationHint::Disable);
    let h = s.open(spec.clone()).unwrap();
    for iter in (0..=12).step_by(6) {
        assert!(s
            .write_iteration(h, iter, &payload(&spec))
            .unwrap()
            .is_none());
    }
    s.finalize().unwrap();
    for (_, res) in sys.resources() {
        assert_eq!(res.lock().list("app/").len(), 0);
    }
}

#[test]
fn many_sessions_by_the_same_user_reuse_the_catalog_rows() {
    let sys = MsrSystem::testbed(207);
    for i in 0..4 {
        let mut s = sys
            .session()
            .app("app")
            .user("same-user")
            .iterations(6)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let spec = u8_spec(&format!("d{i}"), LocationHint::LocalDisk);
        let h = s.open(spec.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&spec)).unwrap();
        s.finalize().unwrap();
    }
}

#[test]
fn the_trace_records_placements_failovers_and_staging() {
    let sys = MsrSystem::testbed(208);
    let grid = ProcGrid::new(1, 1, 1);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(12)
        .grid(grid)
        .build()
        .unwrap();
    let spec = u8_spec("d", LocationHint::RemoteTape);
    let h = s.open(spec.clone()).unwrap();
    s.write_iteration(h, 0, &payload(&spec)).unwrap();
    sys.set_resource_online(StorageKind::RemoteTape, false);
    s.write_iteration(h, 6, &payload(&spec)).unwrap();
    let run = s.run_id();
    s.finalize().unwrap();
    sys.set_resource_online(StorageKind::RemoteTape, true);
    sys.migrate_dataset(run, "d", StorageKind::LocalDisk)
        .unwrap();

    // One event log: the three facts are three ops in the registry, in
    // the order they happened on the virtual timeline.
    let story: Vec<_> = sys
        .obs
        .events()
        .into_iter()
        .filter(|e| [ops::DATASET_OPEN, ops::FAILOVER, ops::MIGRATE].contains(&e.op.as_str()))
        .collect();
    let told: Vec<&str> = story.iter().map(|e| e.op.as_str()).collect();
    assert_eq!(told, [ops::DATASET_OPEN, ops::FAILOVER, ops::MIGRATE]);
    assert!(story.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(story[1].detail.contains("resource offline"));
    assert!(story[2].bytes > 0, "the staging span carries what it moved");
}

/// A remote-disk outage in the middle of the run's *read* phase: writes
/// landed, then the WAN partitions while the application reads back. The
/// session serves its staging copy, flagged stale, and recovers to fresh
/// reads when the link returns.
#[test]
fn remote_disk_outage_midread_serves_stale_then_recovers() {
    let sys = MsrSystem::testbed(209);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(12)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let spec = u8_spec("d", LocationHint::RemoteDisk);
    let h = s.open(spec.clone()).unwrap();
    s.write_iteration(h, 0, &payload(&spec)).unwrap().unwrap();
    sys.set_wan_up(false);
    let (data, rep) = s.read_iteration(h, 0).unwrap();
    assert_eq!(data, payload(&spec), "stale copy is still bitwise correct");
    assert!(rep.stale);
    assert_eq!(rep.native_reads, 0, "no native I/O reached the resource");
    sys.set_wan_up(true);
    let (data, rep) = s.read_iteration(h, 0).unwrap();
    assert_eq!(data, payload(&spec));
    assert!(!rep.stale, "link is back: reads are authoritative again");
    assert!(rep.native_reads > 0);
}

/// A tape outage during `read_iteration` with nothing staged (the dump
/// was written by an earlier session): the failure is a typed error on
/// the consumer path, not a panic or garbage data.
#[test]
fn tape_outage_midread_without_staged_copy_is_typed() {
    let sys = MsrSystem::testbed(210);
    let run = {
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(6)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let spec = u8_spec("d", LocationHint::RemoteTape);
        let h = s.open(spec.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&spec)).unwrap().unwrap();
        let run = s.run_id();
        s.finalize().unwrap();
        run
    };
    // Tape drops while the consumer reads the archived dump.
    sys.set_resource_online(StorageKind::RemoteTape, false);
    let err = sys
        .read_dataset(run, "d", 0, ProcGrid::new(1, 1, 1), IoStrategy::Naive)
        .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Storage(msr::storage::StorageError::Offline { .. })
                | CoreError::Runtime(msr::runtime::RuntimeError::Storage(
                    msr::storage::StorageError::Offline { .. }
                ))
        ),
        "expected a typed offline error, got: {err}"
    );
    // Back online, the same read succeeds.
    sys.set_resource_online(StorageKind::RemoteTape, true);
    let spec = u8_spec("d", LocationHint::RemoteTape);
    let (data, _) = sys
        .read_dataset(run, "d", 0, ProcGrid::new(1, 1, 1), IoStrategy::Naive)
        .unwrap();
    assert_eq!(data, payload(&spec));
}

/// Repeated read failures trip the breaker; a later session then avoids
/// the sick resource at placement time.
#[test]
fn read_failures_open_the_breaker_and_steer_placement() {
    let sys = MsrSystem::testbed(211);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(12)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let spec = u8_spec("d", LocationHint::RemoteDisk);
    let h = s.open(spec.clone()).unwrap();
    s.write_iteration(h, 0, &payload(&spec)).unwrap().unwrap();
    sys.set_wan_up(false);
    for _ in 0..3 {
        // Served stale while failures accumulate on the breaker.
        let (_, rep) = s.read_iteration(h, 0).unwrap();
        assert!(rep.stale);
    }
    assert_eq!(
        sys.health.state(StorageKind::RemoteDisk),
        BreakerState::Open
    );
    s.finalize().unwrap();
    // WAN heals, but the breaker stays open until its cooldown: the next
    // session's REMOTEDISK hint routes elsewhere instead of gambling.
    sys.set_wan_up(true);
    let mut s2 = sys
        .session()
        .app("app")
        .user("u2")
        .iterations(6)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let spec2 = u8_spec("d2", LocationHint::RemoteDisk).with_future_use(FutureUse::Visualization);
    let h2 = s2.open(spec2.clone()).unwrap();
    s2.write_iteration(h2, 0, &payload(&spec2))
        .unwrap()
        .unwrap();
    let rep = s2.finalize().unwrap();
    assert_ne!(
        rep.datasets[0].location,
        Some(StorageKind::RemoteDisk),
        "open breaker steers placement away"
    );
    // After the cooldown the breaker half-opens and a probe can close it.
    sys.clock.advance(SimDuration::from_secs(60.0));
    assert!(sys.health.allows(StorageKind::RemoteDisk));
    assert_eq!(
        sys.health.state(StorageKind::RemoteDisk),
        BreakerState::HalfOpen
    );
}

#[test]
fn outage_schedule_drives_link_state() {
    use msr::net::OutageSchedule;
    let sys = MsrSystem::testbed(206);
    let schedule = OutageSchedule::always_up().with_outage(100.0, 200.0);
    // The harness applies the schedule against the virtual clock.
    sys.clock.advance(SimDuration::from_secs(150.0));
    sys.set_wan_up(schedule.is_up(sys.clock.now()));
    let rd = sys.resource(StorageKind::RemoteDisk).unwrap();
    assert!(rd.lock().connect().is_err(), "inside the outage window");
    sys.clock.advance(SimDuration::from_secs(100.0));
    sys.set_wan_up(schedule.is_up(sys.clock.now()));
    assert!(rd.lock().connect().is_ok(), "after the window");
}

/// A tape-pinned archive dataset that dumps every 6th iteration.
fn archive_spec() -> DatasetSpec {
    DatasetSpec::builder("hist")
        .element(ElementType::F32)
        .cube(16)
        .frequency(6)
        .hint(LocationHint::RemoteTape)
        .future_use(FutureUse::Archive)
        .build()
}

/// The `failover` markers in `sys`'s event stream.
fn failovers(sys: &MsrSystem) -> Vec<String> {
    let events = sys.obs.events().into_iter();
    events
        .filter(|e| e.op == ops::FAILOVER)
        .map(|e| e.detail)
        .collect()
}

/// One failure policy: a tape outage met by `write_iteration` and by the
/// scheduler picks the same fallback under the same reason, and the
/// scheduled move pays the catalog query the direct one pays, on the
/// fallback's cursor ahead of its connection setup.
#[test]
fn direct_and_scheduled_writes_are_replaced_alike() {
    const SEED: u64 = 71;
    let direct = MsrSystem::testbed(SEED);
    let mut s = direct
        .session()
        .app("archive-00")
        .iterations(24)
        .build()
        .unwrap();
    let spec = archive_spec();
    let h = s.open(spec.clone()).unwrap();
    direct.set_resource_online(StorageKind::RemoteTape, false);
    let data = vec![7u8; spec.snapshot_bytes() as usize];
    for iter in (0..=24).step_by(6) {
        s.write_iteration(h, iter, &data).unwrap().unwrap();
    }
    let direct_report = s.finalize().unwrap();

    let scheduled = MsrSystem::testbed(SEED);
    let mut sched = Scheduler::new(&scheduled);
    let program = SessionProgram::new("archive-00")
        .iterations(24)
        .dataset(spec);
    sched.admit(program).unwrap();
    scheduled.set_resource_online(StorageKind::RemoteTape, false);
    let start = scheduled.clock.now();
    let report = sched.run().unwrap();
    let s = &report.sessions[0];
    assert!(s.errors.is_empty(), "{:?}", s.errors);
    assert_eq!(s.requeues, 5, "every dump moved once");

    assert_eq!(
        direct_report.datasets[0].location,
        Some(StorageKind::RemoteDisk)
    );
    assert_eq!(s.placements["hist"], StorageKind::RemoteDisk);
    let marker = "remote tape -> remote disk at iter 0: resource offline";
    assert_eq!(failovers(&direct), [marker]);
    assert_eq!(failovers(&scheduled), [marker]);

    // The fallback's cursor: the catalog query, the connection setup,
    // then the one batch that serves the moved dumps.
    let events = scheduled.obs.events();
    let setup = events
        .iter()
        .find(|e| e.op == ops::CONN && e.resource == "sdsc-disk")
        .expect("the fallback is connected mid-drain")
        .dur;
    let dispatch = events
        .iter()
        .find(|e| e.op == ops::SCHED_DISPATCH && e.resource == "remote disk")
        .expect("the moved dumps are served");
    let lead = dispatch.at.since(start).as_secs();
    let expect = (msr::meta::QUERY_COST + setup).as_secs();
    assert!(
        (lead - expect).abs() < 1e-9,
        "{lead} s before the first batch, expected {expect} s"
    );
}

/// A read never re-places its dataset. In the seeded-fault consumer fleet
/// one read-back asks the disk for a dump written to tape before the
/// dataset moved: it is abandoned once, as a typed `NotFound`, and the
/// dataset stays on the disk.
#[test]
fn a_failed_read_is_dropped_not_requeued() {
    let mut sys = MsrSystem::testbed(2000);
    sys.inject_faults(
        StorageKind::RemoteTape,
        FaultPlan::none().with_error_prob(0.3),
    )
    .unwrap();
    let mut sched = Scheduler::new(&sys).with_prefetch(true);
    for p in consumer_fleet(8, 16, 24) {
        sched.admit(p).unwrap();
    }
    let report = sched.run().unwrap();
    let errors: Vec<&String> = report.sessions.iter().flat_map(|s| &s.errors).collect();
    assert!(errors.iter().all(|e| !e.contains("gave up")), "{errors:?}");
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("no such file"), "{errors:?}");
    let s7 = &report.sessions[7];
    assert_eq!(s7.placements["hist"], StorageKind::RemoteDisk, "no bounce");
    let requeued = sys
        .obs
        .events()
        .into_iter()
        .filter(|e| e.op == ops::SCHED_REQUEUE);
    for e in requeued {
        assert!(
            !e.detail.contains("no such file"),
            "a NotFound read moved: {}",
            e.detail
        );
    }
}
