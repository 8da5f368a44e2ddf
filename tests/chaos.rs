//! Seeded chaos property harness.
//!
//! Drives the full fault-plan × strategy × placement grid through a
//! session and asserts the resilience invariants the architecture
//! promises, for every cell:
//!
//! 1. **No silent corruption**: every read that returns `Ok` hands back
//!    bitwise-identical data to what was written — even reads served
//!    stale from the staging copy.
//! 2. **Typed failure**: everything that does not succeed surfaces as a
//!    [`CoreError`]; nothing panics (a panic fails the test run itself).
//! 3. **Reconciliation**: every fault the injector logged is accounted
//!    for — it was either absorbed by a recorded retry, or it surfaced
//!    to the session (as a transient-persisted failover, a degraded
//!    read, or a terminal error). Breaker trip counters match the
//!    observability stream.
//!
//! One test per seed so a failing seed is immediately visible in the
//! test list and can be replayed in isolation.

use msr::net::OutageSchedule;
use msr::obs::{ops, EventKind};
use msr::prelude::*;

fn checksum(data: &[u8]) -> u64 {
    // FNV-1a, enough to detect any byte flip in the comparisons below.
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn payload(spec: &DatasetSpec, iter: u32) -> Vec<u8> {
    (0..spec.snapshot_bytes())
        .map(|i| ((i * 31 + u64::from(iter) * 7) % 251) as u8)
        .collect()
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        (
            "light",
            FaultPlan::none()
                .with_error_prob(0.02)
                .with_spikes(0.05, 4.0),
        ),
        (
            "heavy",
            FaultPlan::none()
                .with_error_prob(0.15)
                .with_torn_prob(0.05)
                .with_spikes(0.1, 8.0),
        ),
        ("burst", FaultPlan::none().with_error_burst(2)),
        (
            "flap",
            FaultPlan::none()
                .with_flap(OutageSchedule::always_up().with_outage(0.5, 3.0))
                .with_error_prob(0.05),
        ),
    ]
}

const STRATEGIES: [IoStrategy; 4] = [
    IoStrategy::Naive,
    IoStrategy::DataSieving,
    IoStrategy::Collective,
    IoStrategy::Subfile,
];

const PLACEMENTS: [(StorageKind, LocationHint); 3] = [
    (StorageKind::LocalDisk, LocationHint::LocalDisk),
    (StorageKind::RemoteDisk, LocationHint::RemoteDisk),
    (StorageKind::RemoteTape, LocationHint::RemoteTape),
];

/// One grid cell: a full session against one faulty resource.
fn chaos_run(
    seed: u64,
    plan_name: &str,
    plan: FaultPlan,
    strategy: IoStrategy,
    kind: StorageKind,
    hint: LocationHint,
) {
    let ctx = format!("seed {seed} plan {plan_name} {strategy} on {kind}");
    let mut sys = MsrSystem::testbed(seed);
    let log = sys.inject_faults(kind, plan).expect("kind registered");
    let mut s = sys
        .session()
        .app("chaos")
        .user("u")
        .iterations(6)
        .grid(ProcGrid::new(2, 1, 1))
        .build()
        .unwrap_or_else(|e| panic!("{ctx}: init failed: {e}"));
    let spec = DatasetSpec::astro3d_default("d", ElementType::U8, 16)
        .with_hint(hint)
        .with_strategy(strategy);
    let h = match s.open(spec.clone()) {
        Ok(h) => h,
        // Typed refusal (e.g. the flap window makes the resource look
        // offline at placement time) is a legal outcome.
        Err(CoreError::NoUsableResource { .. }) => return,
        Err(e) => panic!("{ctx}: untyped open failure: {e}"),
    };

    // Errors that escaped the engine's retry budget and surfaced to us.
    let mut terminal_transient = 0usize;
    for iter in [0u32, 6] {
        match s.write_iteration(h, iter, &payload(&spec, iter)) {
            Ok(_) => {}
            Err(e) => {
                if classify(&e) == ErrorClass::Retryable("transient fault persisted") {
                    terminal_transient += 1;
                }
                // Any CoreError is a typed failure: acceptable, move on.
            }
        }
    }
    for iter in [0u32, 6] {
        match s.read_iteration(h, iter) {
            Ok((data, rep)) => {
                assert_eq!(
                    checksum(&data),
                    checksum(&payload(&spec, iter)),
                    "{ctx}: read of iter {iter} returned corrupt data (stale={})",
                    rep.stale
                );
            }
            Err(e) => {
                if classify(&e) == ErrorClass::Retryable("transient fault persisted") {
                    terminal_transient += 1;
                }
            }
        }
    }
    let report = s
        .finalize()
        .unwrap_or_else(|e| panic!("{ctx}: finalize: {e}"));

    // --- Reconciliation against the injected-fault log. ---
    let events = sys.obs.events();
    assert_eq!(sys.obs.evicted(), 0, "{ctx}: obs stream truncated");
    let retries = events.iter().filter(|e| e.op == ops::RETRY).count();
    let persisted_failovers = report
        .events
        .iter()
        .filter(|e| e.reason == "transient fault persisted")
        .count();
    let degraded_after_failure = events
        .iter()
        .filter(|e| e.op == ops::DEGRADED_READ && e.detail.contains("failed)"))
        .count();
    let injected = log.errors_injected();
    assert_eq!(
        retries + persisted_failovers + degraded_after_failure + terminal_transient,
        injected,
        "{ctx}: injected faults do not reconcile (retries {retries}, failovers \
         {persisted_failovers}, degraded {degraded_after_failure}, terminal \
         {terminal_transient} vs {injected} injected)"
    );
    // Spikes slow calls down but never fail them.
    assert_eq!(
        log.records().len() - log.count(FaultKind::Spike),
        injected,
        "{ctx}: only spike records may fall outside the error count"
    );

    // Breaker trips line up with the observability stream, and every
    // recorded session failure came from an observed failure path.
    let health = sys.health.total_counters();
    let open_transitions = events
        .iter()
        .filter(|e| {
            e.op == ops::BREAKER && e.kind == EventKind::Instant && e.detail.contains("-> open:")
        })
        .count();
    assert_eq!(health.trips as usize, open_transitions, "{ctx}: trip count");
    let observed_failures = report
        .events
        .iter()
        .filter(|e| e.from.is_some() && e.reason != "circuit open")
        .count()
        + degraded_after_failure
        + terminal_transient;
    assert_eq!(
        health.failures as usize, observed_failures,
        "{ctx}: breaker failure counter does not reconcile"
    );

    // The fault-free cell of the grid must be completely quiet.
    if plan_name == "none" {
        assert_eq!(injected, 0, "{ctx}");
        assert_eq!(retries, 0, "{ctx}");
        assert!(
            !report.events.iter().any(|e| e.from.is_some()),
            "{ctx}: fault-free run must not fail over"
        );
    }
}

fn chaos_grid(seed: u64) {
    for (plan_name, plan) in plans() {
        for strategy in STRATEGIES {
            for (kind, hint) in PLACEMENTS {
                chaos_run(seed, plan_name, plan.clone(), strategy, kind, hint);
            }
        }
    }
}

#[test]
fn chaos_grid_seed_101() {
    chaos_grid(101);
}

#[test]
fn chaos_grid_seed_202() {
    chaos_grid(202);
}

#[test]
fn chaos_grid_seed_303() {
    chaos_grid(303);
}

#[test]
fn chaos_grid_seed_404() {
    chaos_grid(404);
}

/// Chaos × scheduler: the discrete-event engine with lifecycle ticks AND
/// prediction-driven prefetch enabled *together*, over a faulty archive
/// resource. The two between-event subsystems must compose: every request
/// is served exactly once or surfaces as a typed error, the lifecycle
/// engine ticks, the prefetcher actually considers work, and the whole
/// drain replays bitwise at any worker-pool width.
#[test]
fn event_engine_runs_lifecycle_and_prefetch_together_under_chaos() {
    let run = || {
        let mut sys = MsrSystem::testbed(606);
        let log = sys
            .inject_faults(
                StorageKind::RemoteTape,
                FaultPlan::none()
                    .with_error_prob(0.05)
                    .with_spikes(0.05, 4.0),
            )
            .expect("tape registered");
        let engine = LifecycleEngine::new(LifecycleConfig {
            demote_after: SimDuration::from_secs(600.0),
            vault_after: SimDuration::from_secs(1e9),
            retention: RetentionPolicy::keep_all().with_keep_last(2),
            ..LifecycleConfig::default()
        });
        let mut sched = Scheduler::new(&sys)
            .with_prefetch(true)
            .with_lifecycle(engine)
            .lifecycle_every(2);
        for i in 0..4 {
            sched
                .admit(
                    SessionProgram::new(&format!("archive-{i:02}"))
                        .user("post")
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
                        .readbacks(3),
                )
                .unwrap();
        }
        let report = sched.run().expect("chaos drain must terminate");
        let retries = sys
            .obs
            .events()
            .iter()
            .filter(|e| e.op == ops::RETRY)
            .count();
        (report, log.errors_injected(), retries)
    };
    let (report, injected, retries) = run();
    assert!(report.makespan.as_secs().is_finite());
    for s in &report.sessions {
        assert_eq!(
            s.reports.len() as u64,
            s.requests,
            "served exactly once: session {}",
            s.session
        );
        for e in &s.errors {
            assert!(
                e.contains("gave up") || e.contains("no usable resource"),
                "untyped abandonment: {e}"
            );
        }
    }
    assert!(report.lifecycle.ticks > 0, "lifecycle must tick mid-drain");
    assert!(
        report.prefetched + report.prefetch_declined > 0,
        "readback chains must reach the prefetcher"
    );
    if injected > 0 {
        // Every injected fault was either absorbed by an engine-level
        // retry, moved to the fallback by a scheduler requeue, or
        // abandoned as a typed error — never silently lost.
        let requeues: u32 = report.sessions.iter().map(|s| s.requeues).sum();
        let errors: usize = report.sessions.iter().map(|s| s.errors.len()).sum();
        assert!(
            retries + requeues as usize + errors > 0,
            "{injected} injected faults left no trace in the report or obs stream"
        );
    }

    // Bitwise replay at both pool widths, subsystems both enabled.
    let narrow = rayon::pool::with_threads(1, || serde_json::to_string(&run().0).unwrap());
    let wide = rayon::pool::with_threads(4, || serde_json::to_string(&run().0).unwrap());
    assert_eq!(
        narrow, wide,
        "lifecycle+prefetch chaos drain must not depend on MSR_THREADS"
    );
}

/// Same seed, same grid cell → bitwise-identical fault log and run
/// report: the whole chaos pipeline replays deterministically.
#[test]
fn chaos_runs_replay_deterministically() {
    let run = || {
        let mut sys = MsrSystem::testbed(42);
        let log = sys
            .inject_faults(
                StorageKind::RemoteDisk,
                FaultPlan::none().with_error_prob(0.1).with_torn_prob(0.05),
            )
            .unwrap();
        let mut s = sys
            .session()
            .app("chaos")
            .user("u")
            .iterations(6)
            .grid(ProcGrid::new(2, 1, 1))
            .build()
            .unwrap();
        let spec = DatasetSpec::astro3d_default("d", ElementType::U8, 16)
            .with_hint(LocationHint::RemoteDisk);
        let h = s.open(spec.clone()).unwrap();
        let mut outcomes = Vec::new();
        for iter in [0u32, 6] {
            outcomes.push(match s.write_iteration(h, iter, &payload(&spec, iter)) {
                Ok(Some(rep)) => format!("ok {} {} {}", rep.retries, rep.backoff, rep.bytes),
                Ok(None) => "skip".into(),
                Err(e) => format!("err {e}"),
            });
        }
        let report = s.finalize().unwrap();
        (
            outcomes,
            log.records(),
            report.events.len(),
            report.total_io,
        )
    };
    let a = run();
    let b = run();
    assert!(
        !a.1.is_empty(),
        "the plan must actually inject faults for this check to mean anything"
    );
    assert_eq!(a, b);
}
