//! Tape vaulting and recall: latency accounting, readability, and
//! degradation under an injected outage.

use msr_core::{DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_lifecycle::{LifecycleConfig, LifecycleEngine};
use msr_meta::{DatasetId, DumpState, ElementType, RunId};
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
        ..LifecycleConfig::default()
    }
}

fn dataset_id(sys: &MsrSystem, run: RunId) -> DatasetId {
    sys.catalog.lock().find_dataset(run, "chk").unwrap().id
}

fn states(sys: &MsrSystem, id: DatasetId) -> Vec<DumpState> {
    let dumps = sys.catalog.lock().dumps_of(id);
    dumps.iter().map(|d| d.state).collect()
}

/// Whether a read failed because its dump is in the vault.
fn shelved(read: &Result<(), String>) -> bool {
    read.as_ref().is_err_and(|e| e.contains("vaulted"))
}

/// Read back every dump of the tape history, as it was written.
fn read_back(sys: &MsrSystem, run: RunId) -> Vec<Result<(), String>> {
    let grid = ProcGrid::new(1, 1, 1);
    let read = |iter| sys.read_dataset(run, "chk", iter, grid, IoStrategy::Collective);
    [0, 3, 6]
        .map(|iter| match read(iter) {
            Ok((data, _)) => {
                assert!(data.iter().all(|&b| b == 3), "dump {iter} read back");
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        })
        .into()
}

#[test]
fn vaulted_dumps_are_unreadable_until_a_priced_recall() {
    let sys = MsrSystem::testbed(31);
    let run = write_tape_history(&sys, "arch");
    let engine = LifecycleEngine::new(vault_fast());
    let grid = ProcGrid::new(1, 1, 1);

    // Idle past the vault window.
    sys.clock.advance(SimDuration::from_secs(400.0));
    let t = engine.tick(&sys);
    assert_eq!(t.vaulted, 3, "all three dumps shelved");

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
    let id = dataset_id(&sys, run);

    sys.clock.advance(SimDuration::from_secs(400.0));
    assert_eq!(engine.tick(&sys).vaulted, 3);

    // With the tape down the recall fails, pays no recall latency and
    // leaves every dump shelved: degraded, not wedged.
    sys.set_resource_online(StorageKind::RemoteTape, false);
    let before = sys.clock.now();
    assert!(
        engine.recall_dataset(&sys, run, "chk").is_err(),
        "explicit recall reports the outage"
    );
    assert!(
        sys.clock.now().since(before) < SimDuration::from_secs(DEFAULT_RECALL_SECS),
        "a failed recall charges no recall"
    );
    assert_eq!(states(&sys, id), [DumpState::Vaulted; 3]);
    sys.set_resource_online(StorageKind::RemoteTape, true);
    assert!(read_back(&sys, run).iter().all(shelved));

    // Outage over: the same call brings all three back.
    assert_eq!(engine.recall_dataset(&sys, run, "chk"), Ok(3));
    assert_eq!(states(&sys, id), [DumpState::Resident; 3]);
    assert_eq!(read_back(&sys, run), [Ok(()), Ok(()), Ok(())]);
}

/// Reads of a vaulted dataset never bring it back on their own: however
/// often and recently it is asked for, under the default configuration
/// every tick leaves it shelved and charges no recall. Only
/// `recall_dataset` does.
#[test]
fn accesses_never_recall_a_vaulted_dataset_only_recall_dataset_does() {
    let sys = MsrSystem::testbed(34);
    let run = write_tape_history(&sys, "arch");
    let engine = LifecycleEngine::default();
    let id = dataset_id(&sys, run);

    sys.clock
        .advance(engine.config().vault_after + SimDuration::from_secs(400.0));
    assert_eq!(engine.tick(&sys).vaulted, 3);

    // Three accesses inside 300 s, a tick after each.
    for _ in 0..3 {
        sys.clock.advance(SimDuration::from_secs(100.0));
        let at = sys.clock.now().as_secs();
        sys.catalog.lock().note_access(run, "chk", at);
        let before = sys.clock.now();
        let t = engine.tick(&sys);
        assert!(t.demotions.is_empty() && t.vaulted == 0, "{t:?}");
        assert!(
            sys.clock.now().since(before) < SimDuration::from_secs(DEFAULT_RECALL_SECS),
            "a tick never charges a recall"
        );
        assert_eq!(states(&sys, id), [DumpState::Vaulted; 3]);
    }
    assert!(read_back(&sys, run).iter().all(shelved));

    assert_eq!(engine.recall_dataset(&sys, run, "chk"), Ok(3));
    assert_eq!(read_back(&sys, run), [Ok(()), Ok(()), Ok(())]);
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
