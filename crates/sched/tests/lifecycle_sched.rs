//! Scheduler × lifecycle integration: between-round ticks act on prior
//! epochs' data, never on admitted runs, and attaching an engine keeps
//! the drain deterministic at any worker count.

use msr_core::{DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_lifecycle::{LifecycleConfig, LifecycleEngine, RetentionPolicy};
use msr_meta::{ElementType, Location};
use msr_sched::{SchedReport, Scheduler, SessionProgram};
use msr_sim::SimDuration;
use msr_storage::StorageKind;

fn ckpt_program(i: usize) -> SessionProgram {
    SessionProgram::new(&format!("ckpt-{i:02}"))
        .user("sim")
        .iterations(9)
        .dataset(
            DatasetSpec::builder("chk")
                .element(ElementType::F32)
                .cube(8)
                .frequency(3)
                .hint(LocationHint::LocalDisk)
                .future_use(FutureUse::Checkpoint)
                .build(),
        )
}

fn engine() -> LifecycleEngine {
    LifecycleEngine::new(LifecycleConfig {
        demote_after: SimDuration::from_secs(600.0),
        vault_after: SimDuration::from_secs(1e9),
        promote_heat: u64::MAX,
        retention: RetentionPolicy::keep_all().with_keep_last(2),
        ..LifecycleConfig::default()
    })
}

fn epoch(sys: &MsrSystem, n: usize, lifecycle: bool) -> SchedReport {
    let mut sched = Scheduler::new(sys);
    if lifecycle {
        sched = sched.with_lifecycle(engine()).lifecycle_every(2);
    }
    for i in 0..n {
        sched.admit(ckpt_program(i)).unwrap();
    }
    sched.run().unwrap()
}

/// A second scheduled epoch with a lifecycle attached demotes and prunes
/// the *previous* epoch's cold checkpoints between rounds, while its own
/// admitted runs — busy by definition — are left alone.
#[test]
fn between_round_ticks_manage_prior_epochs_only() {
    let sys = MsrSystem::testbed(61);
    let first = epoch(&sys, 2, false);
    assert!(first.sessions.iter().all(|s| s.errors.is_empty()));
    assert_eq!(first.lifecycle.ticks, 0, "no engine attached yet");

    // Let epoch 1's history go cold, then run epoch 2 with the engine.
    sys.clock.advance(SimDuration::from_secs(700.0));
    let second = epoch(&sys, 2, true);
    assert!(second.sessions.iter().all(|s| s.errors.is_empty()));
    assert!(second.lifecycle.ticks > 0, "engine ticked between rounds");
    assert!(
        second.lifecycle.demotions > 0,
        "cold epoch-1 data demoted: {:?}",
        second.lifecycle
    );
    assert!(
        second.lifecycle.pruned_files > 0,
        "keep_last 2 thinned epoch-1 histories"
    );

    // Epoch-2 runs were busy the whole drain: still on their admitted
    // tier; the demoted datasets are epoch-1's.
    let busy: Vec<u64> = second.sessions.iter().map(|s| s.run).collect();
    let mut catalog = sys.catalog.lock();
    for d in catalog.all_datasets() {
        if busy.contains(&d.run.0) {
            assert_eq!(
                d.location,
                Location::Stored(StorageKind::LocalDisk),
                "admitted run {} must not be moved mid-drain",
                d.run
            );
        } else {
            assert_ne!(
                d.location,
                Location::Stored(StorageKind::LocalDisk),
                "cold run {} should have been demoted",
                d.run
            );
        }
    }

    // What tiering is for: the same two epochs with no engine leave more
    // on the fast tier, and retention never grows what is stored overall.
    let unmanaged = MsrSystem::testbed(61);
    epoch(&unmanaged, 2, false);
    unmanaged.clock.advance(SimDuration::from_secs(700.0));
    epoch(&unmanaged, 2, false);
    let (on, off) = (sys.usage(), unmanaged.usage());
    let local = StorageKind::LocalDisk;
    assert!(
        on[&local] < off[&local],
        "lifecycle run holds {} local-disk bytes, unmanaged {}",
        on[&local],
        off[&local]
    );
    assert!(on.values().sum::<u64>() <= off.values().sum::<u64>());
}

/// The full two-epoch lifecycle scenario produces a bitwise-identical
/// `SchedReport` (lifecycle totals included) at any worker count.
#[test]
fn lifecycle_on_reports_are_thread_count_independent() {
    let scenario = || {
        let sys = MsrSystem::testbed(62);
        epoch(&sys, 2, false);
        sys.clock.advance(SimDuration::from_secs(700.0));
        let report = epoch(&sys, 3, true);
        (
            serde_json::to_string(&report).unwrap(),
            format!("{:?}", sys.usage()),
        )
    };
    let seq = rayon::pool::with_threads(1, scenario);
    let par = rayon::pool::with_threads(4, scenario);
    assert_eq!(
        seq, par,
        "lifecycle-on drains must not depend on MSR_THREADS"
    );
}

/// With no engine attached the report's lifecycle totals stay zero and
/// old serialized reports (no `lifecycle` field) still deserialize.
#[test]
fn lifecycle_off_is_inert_and_reports_stay_compatible() {
    let sys = MsrSystem::testbed(63);
    let report = epoch(&sys, 2, false);
    assert_eq!(report.lifecycle, msr_lifecycle::TickTotals::default());

    let mut v = serde_json::to_value(&report).unwrap();
    v.as_object_mut().unwrap().remove("lifecycle");
    let back: SchedReport = serde_json::from_value(v).unwrap();
    assert_eq!(back.lifecycle, msr_lifecycle::TickTotals::default());
    assert_eq!(back.sessions, report.sessions);
}
