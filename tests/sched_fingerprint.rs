//! Frozen `SchedReport` fingerprints.
//!
//! FNV-1a-64 of the full report JSON at seed 2000, the same pattern as
//! `cut_fingerprint_is_frozen` in `crates/chunk/tests/parallel_cdc.rs`.
//! The grid — the mixed client fleet and the tape-heavy consumer fleet at
//! 1/4/16 sessions with read-ahead off and on, a weighted two-tenant
//! fleet, chunked producers at 1/4 — is drained at the default worker
//! pool and at a one-worker pool, and every drain must hash to the pinned
//! constant. Among the bytes pinned: the `(step, phase, kind)` order each
//! session's float totals are folded in, and `SchedReport.rounds`, the
//! busiest resource's dispatch-step count. A changed constant means every
//! scheduler number moved; it must be a deliberate decision.

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

/// Admit `programs` on `sys` and drain them.
fn drain(sys: &MsrSystem, programs: Vec<SessionProgram>, prefetch: bool) -> SchedReport {
    let mut sched = Scheduler::new(sys).with_prefetch(prefetch);
    for p in programs {
        sched.admit(p).unwrap();
    }
    sched.run().unwrap()
}

/// Drain `programs` on a fresh `testbed` at the default pool and at a
/// one-worker pool, and hold both reports to `pin`. Returns the
/// default-pool drain.
fn pinned(
    label: &str,
    pin: &str,
    testbed: impl Fn() -> MsrSystem,
    programs: impl Fn() -> Vec<SessionProgram>,
    prefetch: bool,
) -> (MsrSystem, SchedReport) {
    let run = || {
        let sys = testbed();
        let report = drain(&sys, programs(), prefetch);
        (sys, report)
    };
    let narrow = rayon::pool::with_threads(1, run);
    let wide = run();
    for (how, (_, report)) in [("one pool worker", &narrow), ("default pool", &wide)] {
        let moved = format!("{label} prefetch={prefetch} moved ({how})");
        assert_eq!(fingerprint(report), pin, "{moved}");
    }
    wide
}

fn testbed() -> MsrSystem {
    MsrSystem::testbed(SEED)
}

/// Read-ahead finds nothing to stage in the mixed fleet, so both settings
/// share one constant per fleet size.
#[test]
fn client_fleet_on_demand_fingerprint_is_frozen() {
    for (n, pin) in [
        (1, "3cf6b54fddeb0e44"),
        (4, "627cc5058fed304d"),
        (16, "6f77ee8d1de5a314"),
    ] {
        for prefetch in [false, true] {
            let label = format!("client fleet n={n}");
            let fleet = || client_fleet(n, 16, 12);
            let (_, report) = pinned(&label, pin, testbed, fleet, prefetch);
            assert_eq!(report.prefetched, 0);
        }
    }
}

#[test]
fn consumer_fleet_staged_fingerprint_is_frozen() {
    for (n, off_pin, on_pin) in [
        (1, "6d47d0419a72724c", "6d47d0419a72724c"),
        (4, "88d2d39cfa2d8f5e", "1e3d67486e9ed037"),
        (16, "6f1b9393ececa0f7", "8534bea6f75c8094"),
    ] {
        let label = format!("consumer fleet n={n}");
        let fleet = || consumer_fleet(n, 16, 24);
        let (_, off) = pinned(&label, off_pin, testbed, fleet, false);
        let (_, on) = pinned(&label, on_pin, testbed, fleet, true);
        assert_eq!(off.prefetch_hits, 0);
        // A lone session has no idle window to fetch in.
        assert_eq!(on.prefetch_hits > 0, n > 1, "the staged serve path");
        if n == 16 {
            // What read-ahead is for: 2 168.8 s on demand, 1 239.6 s staged.
            assert!(
                off.makespan.as_secs() >= 1.5 * on.makespan.as_secs(),
                "read-ahead must cut the tape fleet's makespan: {} vs {}",
                off.makespan,
                on.makespan
            );
        }
    }
}

/// Weighted-fair dispatch: two tenants with distinct weights sharing every
/// resource, tenant rows included in the report.
#[test]
fn weighted_tenants_fingerprint_is_frozen() {
    let two_tenants = || {
        let sys = testbed();
        sys.tenants.register(Tenant::new("sim").with_weight(8.0));
        sys.tenants.register(Tenant::new("viz").with_weight(2.0));
        sys
    };
    let fleet = || {
        let program = |i| match i % 2 {
            0 => ClientKind::Producer.program(i, 16, 12).tenant("sim"),
            _ => ClientKind::Renderer.program(i, 16, 12).tenant("viz"),
        };
        (0..6).map(program).collect()
    };
    let pin = "07d7c376a2068fd4";
    let (_, report) = pinned("weighted tenants", pin, two_tenants, fleet, true);
    assert_eq!(report.tenants.len(), 2);
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
        "bc31bffc090cb423",
        "antagonist report moved"
    );

    // What the protection is for: the quiet tenant's tail stays near what
    // it is with the testbed to itself (24.439 s against 20.943 s).
    let quiet_p99 = |r: &SchedReport| {
        let quiet = r.tenants.iter().find(|t| t.tenant == "quiet");
        quiet.expect("quiet tenant row").wait_p99.as_secs()
    };
    let solo = run_overloaded(&testbed(), quiet_fleet(4, 16, 24)).unwrap();
    assert!(
        quiet_p99(&report) <= 1.25 * quiet_p99(&solo),
        "protected quiet p99 {} vs solo {}",
        quiet_p99(&report),
        quiet_p99(&solo)
    );
}

#[test]
fn chunked_producers_fingerprint_is_frozen() {
    let fleet = |n| move || dedup_fleet(n, 16, 24, true);
    pinned("chunked n=1", "0a987070aa90cf58", testbed, fleet(1), false);
    let (sys, report) = pinned("chunked n=4", "781f53be2061e774", testbed, fleet(4), false);
    assert!(report.sessions.iter().all(|s| s.errors.is_empty()));

    // What crossed the WAN and what the store holds for it.
    let remote = sys.resource(StorageKind::RemoteDisk).unwrap();
    let (name, stats) = {
        let r = remote.lock();
        (r.name().to_owned(), r.stats())
    };
    let store = sys.engine.chunk_plane().store_stats(&name).unwrap();
    assert_eq!(stats.bytes_written, 397_836, "WAN bytes moved");
    assert_eq!(
        (store.chunks, store.inserts, store.hits, store.stored_bytes),
        (45, 45, 44, 394_836),
        "store accounting moved: {store:?}"
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
    let report = drain(&sys, consumer_fleet(8, 16, 24), true);
    let requeues: u32 = report.sessions.iter().map(|s| s.requeues).sum();
    assert!(requeues > 0, "seeded faults must force requeues");
    assert_eq!(
        fingerprint(&report),
        "1df1e6ddd9e12cc1",
        "faulted drain report moved"
    );
}

/// What a scheduled chunked drain leaves behind, pinned independently of
/// the report: every resource's chunk-store accounting and manifest
/// count, and the bytes of every dump read back through the catalog. A
/// change to how the scheduler makes the bytes it writes (queued,
/// generated at dispatch) must leave all of them where they are.
#[test]
fn chunked_fleet_store_and_readbacks_are_frozen() {
    let sys = testbed();
    let report = drain(&sys, dedup_fleet(4, 64, 24, true), false);
    assert!(report.sessions.iter().all(|s| s.errors.is_empty()));
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    let mut hash = |bytes: &[u8]| {
        for &b in bytes {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let plane = sys.engine.chunk_plane();
    for (kind, res) in sys.resources() {
        let name = res.lock().name().to_owned();
        let stats = plane.store_stats(&name);
        let manifests = plane.manifest_count(&name);
        hash(format!("{kind:?} {stats:?} {manifests}").as_bytes());
    }
    let grid = ProcGrid::new(1, 1, 1);
    let mut dumps = 0;
    for s in &report.sessions {
        for iter in (0..=24).step_by(3) {
            let (back, _) = sys
                .read_dataset(RunId(s.run), "chk", iter, grid, IoStrategy::Collective)
                .unwrap();
            assert_eq!(back.len(), 64 * 64 * 64 * 4);
            hash(&back);
            dumps += 1;
        }
    }
    assert_eq!(dumps, 36);
    assert_eq!(
        format!("{fnv:016x}"),
        "3680b0482c9b4ebb",
        "store or dump bytes moved"
    );
}
