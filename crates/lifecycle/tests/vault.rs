//! Tape vaulting and recall: latency accounting, readability, and
//! degradation under an injected outage.

use msr_core::{DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_lifecycle::{LifecycleConfig, LifecycleEngine};
use msr_meta::{DumpState, ElementType, RunId};
use msr_runtime::{IoStrategy, ProcGrid};
use msr_sim::SimDuration;
use msr_storage::{profiles::DEFAULT_RECALL_SECS, StorageKind};

/// Write an archival history (dumps at iterations 0, 3, 6) pinned to the
/// tape resource.
fn write_tape_history(sys: &MsrSystem, app: &str) -> RunId {
    let mut s = sys
        .session()
        .app(app)
        .user("arch")
        .iterations(6)
        .build()
        .unwrap();
    let spec = DatasetSpec::builder("chk")
        .element(ElementType::F32)
        .cube(8)
        .frequency(3)
        .hint(LocationHint::RemoteTape)
        .future_use(FutureUse::Archive)
        .build();
    let bytes = spec.snapshot_bytes() as usize;
    let h = s.open(spec).unwrap();
    let run = s.run_id();
    for iter in 0..=6 {
        if s.dumps_at(h, iter) {
            s.write_iteration(h, iter, &vec![3u8; bytes]).unwrap();
        }
    }
    s.finalize().unwrap();
    run
}

fn vault_fast() -> LifecycleConfig {
    LifecycleConfig {
        vault_after: SimDuration::from_secs(100.0),
        demote_after: SimDuration::from_secs(1e9),
        promote_heat: 5,
        promote_window: SimDuration::from_secs(300.0),
        ..LifecycleConfig::default()
    }
}

#[test]
fn vaulted_dumps_are_unreadable_until_a_priced_recall() {
    let sys = MsrSystem::testbed(31);
    let run = write_tape_history(&sys, "arch");
    let engine = LifecycleEngine::new(vault_fast());
    let grid = ProcGrid::new(1, 1, 1);

    // Idle past the vault window (and past the promotion window, so the
    // engine shelves instead of promoting).
    sys.clock.advance(SimDuration::from_secs(400.0));
    let t = engine.tick(&sys);
    assert_eq!(t.vaulted, 3, "all three dumps shelved");
    assert_eq!(t.recalls, 0);

    // A vaulted dump is not readable.
    let err = sys.read_dataset(run, "chk", 6, grid, IoStrategy::Collective);
    assert!(err.is_err(), "vaulted data must not serve reads");

    // Explicit recall: the run's one volume pays the configured recall
    // latency once, and all three dumps come back with it.
    let before = sys.clock.now();
    let recalled = engine.recall_dataset(&sys, run, "chk").unwrap();
    assert_eq!(recalled, 3);
    assert_eq!(
        sys.clock.now().since(before),
        SimDuration::from_secs(DEFAULT_RECALL_SECS),
        "recall latency is charged per volume, no jitter"
    );
    let (data, _) = sys
        .read_dataset(run, "chk", 6, grid, IoStrategy::Collective)
        .expect("recalled data reads again");
    assert!(!data.is_empty());

    // Recalling resident data is free and counts nothing.
    let again = engine.recall_dataset(&sys, run, "chk").unwrap();
    assert_eq!(again, 0);
}

#[test]
fn recall_during_outage_degrades_and_recovers_without_wedging() {
    let sys = MsrSystem::testbed(32);
    let run = write_tape_history(&sys, "arch");
    let engine = LifecycleEngine::new(vault_fast());

    sys.clock.advance(SimDuration::from_secs(400.0));
    assert_eq!(engine.tick(&sys).vaulted, 3);

    // Make it hot (heat 3 from the writes + 3 reads >= promote_heat 5)
    // while the tape is down: the promotion's recalls fail, the engine
    // counts them and returns — degraded, not wedged.
    for _ in 0..3 {
        let at = sys.clock.now().as_secs();
        sys.catalog.lock().note_access(run, "chk", Some(6), at);
    }
    sys.set_resource_online(StorageKind::RemoteTape, false);
    let t = engine.tick(&sys);
    assert_eq!(t.recall_failures, 3);
    assert_eq!(t.recalls, 0);
    assert!(t.promotions.is_empty(), "promotion abandoned for the tick");
    assert!(
        engine.recall_dataset(&sys, run, "chk").is_err(),
        "explicit recall reports the outage"
    );

    // Outage over: the very next tick recalls and promotes.
    sys.set_resource_online(StorageKind::RemoteTape, true);
    let t2 = engine.tick(&sys);
    assert_eq!(t2.recalls, 3);
    assert_eq!(t2.recall_failures, 0);
    assert_eq!(t2.promotions.len(), 1);
    assert_eq!(t2.promotions[0].from, StorageKind::RemoteTape);
    assert_eq!(t2.promotions[0].to, StorageKind::RemoteDisk);
    let id = {
        let mut c = sys.catalog.lock();
        c.find_dataset(run, "chk").unwrap().id
    };
    assert!(
        sys.catalog
            .lock()
            .dumps_of(id)
            .iter()
            .all(|d| d.state == DumpState::Resident),
        "recalled dumps are resident at their new home"
    );
}

/// Two datasets of one run share its tape volume: the tick shelves the
/// volume once, and one recall of either dataset brings both back.
#[test]
fn one_recall_brings_back_every_dataset_on_the_volume() {
    let sys = MsrSystem::testbed(33);
    let mut s = sys
        .session()
        .app("pair")
        .user("arch")
        .iterations(3)
        .build()
        .unwrap();
    let specs = ["left", "right"].map(|name| {
        DatasetSpec::builder(name)
            .element(ElementType::F32)
            .cube(8)
            .frequency(3)
            .hint(LocationHint::RemoteTape)
            .future_use(FutureUse::Archive)
            .build()
    });
    let bytes = specs[0].snapshot_bytes() as usize;
    let handles = specs.map(|spec| s.open(spec).unwrap());
    let run = s.run_id();
    for iter in [0, 3] {
        for (i, &h) in handles.iter().enumerate() {
            s.write_iteration(h, iter, &vec![i as u8 + 1; bytes])
                .unwrap();
        }
    }
    s.finalize().unwrap();
    let engine = LifecycleEngine::new(vault_fast());
    let grid = ProcGrid::new(1, 1, 1);

    sys.clock.advance(SimDuration::from_secs(400.0));
    assert_eq!(engine.tick(&sys).vaulted, 4, "both datasets' dumps");
    for name in ["left", "right"] {
        assert!(sys
            .read_dataset(run, name, 3, grid, IoStrategy::Collective)
            .is_err());
    }

    let before = sys.clock.now();
    assert_eq!(engine.recall_dataset(&sys, run, "left").unwrap(), 4);
    assert_eq!(
        sys.clock.now().since(before),
        SimDuration::from_secs(DEFAULT_RECALL_SECS),
        "one volume, one recall"
    );
    for (i, name) in ["left", "right"].into_iter().enumerate() {
        let (data, _) = sys
            .read_dataset(run, name, 3, grid, IoStrategy::Collective)
            .expect("the recalled volume serves both datasets");
        assert_eq!(data, vec![i as u8 + 1; bytes]);
    }
    assert_eq!(engine.recall_dataset(&sys, run, "right").unwrap(), 0);
}
