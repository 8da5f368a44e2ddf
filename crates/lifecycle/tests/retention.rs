//! End-to-end retention and migration behaviour of the lifecycle engine
//! against a full testbed system.

use msr_core::{DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_lifecycle::{LifecycleConfig, LifecycleEngine, RetentionPolicy};
use msr_meta::{ElementType, Location, RunId};
use msr_sim::SimDuration;
use msr_storage::StorageKind;

/// Write a checkpoint history (dumps at iterations 0, 3, …) pinned to
/// local disk, through the plain session API.
fn write_history(sys: &MsrSystem, app: &str, iterations: u32) -> RunId {
    let mut s = sys
        .session()
        .app(app)
        .user("sim")
        .iterations(iterations)
        .build()
        .unwrap();
    let spec = DatasetSpec::builder("chk")
        .element(ElementType::F32)
        .cube(8)
        .frequency(3)
        .hint(LocationHint::LocalDisk)
        .future_use(FutureUse::Checkpoint)
        .build();
    let bytes = spec.snapshot_bytes() as usize;
    let h = s.open(spec).unwrap();
    let run = s.run_id();
    for iter in 0..=iterations {
        if s.dumps_at(h, iter) {
            s.write_iteration(h, iter, &vec![7u8; bytes]).unwrap();
        }
    }
    s.finalize().unwrap();
    run
}

fn quiet(cfg: LifecycleConfig) -> LifecycleConfig {
    // Windows far beyond any test horizon: the returned config only does
    // what the test explicitly re-enables.
    LifecycleConfig {
        demote_after: SimDuration::from_secs(1e9),
        vault_after: SimDuration::from_secs(1e9),
        ..cfg
    }
}

#[test]
fn retention_prunes_cold_history_never_the_newest() {
    let sys = MsrSystem::testbed(21);
    let run = write_history(&sys, "ckpt", 12); // dumps at 0, 3, 6, 9, 12
    let engine = LifecycleEngine::new(quiet(LifecycleConfig {
        retention: RetentionPolicy::keep_all().with_keep_last(2),
        ..LifecycleConfig::default()
    }));

    let before = sys.usage()[&StorageKind::LocalDisk];
    let t = engine.tick(&sys);
    assert_eq!(t.pruned_files, 3, "5 dumps, keep_last 2");
    assert!(t.pruned_bytes > 0);
    assert!(t.demotions.is_empty());
    assert_eq!(t.vaulted, 0);
    assert!(
        sys.usage()[&StorageKind::LocalDisk] < before,
        "pruning frees fast-tier bytes"
    );

    let id = {
        let mut c = sys.catalog.lock();
        c.find_dataset(run, "chk").unwrap().id
    };
    let iters: Vec<u32> = sys
        .catalog
        .lock()
        .dumps_of(id)
        .iter()
        .map(|d| d.iter)
        .collect();
    assert_eq!(iters, vec![9, 12], "newest window survives");

    // A second tick over the already-thinned history is a no-op.
    let t2 = engine.tick(&sys);
    assert_eq!(t2.pruned_files, 0);
}

#[test]
fn cold_data_demotes_in_one_copy_straight_to_tape() {
    let sys = MsrSystem::testbed(22);
    let run = write_history(&sys, "ckpt", 12);
    let engine = LifecycleEngine::new(LifecycleConfig {
        demote_after: SimDuration::from_secs(500.0),
        vault_after: SimDuration::from_secs(1e9),
        ..LifecycleConfig::default()
    });

    // Freshly written data is not cold.
    let t0 = engine.tick(&sys);
    assert!(t0.demotions.is_empty());

    // Idle past the window: one demotion, in one copy straight to tape.
    sys.clock.advance(SimDuration::from_secs(600.0));
    let t1 = engine.tick(&sys);
    assert_eq!(t1.demotions.len(), 1);
    let m = &t1.demotions[0];
    assert_eq!(
        (m.from, m.to),
        (StorageKind::LocalDisk, StorageKind::RemoteTape)
    );
    assert_eq!(m.files, 5);
    assert!(m.predicted_secs > 0.0, "eq.(2) priced the move");
    assert!(m.actual_secs > 0.0);
    let loc = {
        let mut c = sys.catalog.lock();
        c.find_dataset(run, "chk").unwrap().location
    };
    assert_eq!(loc, Location::Stored(StorageKind::RemoteTape));

    // On the bottom rung there is nowhere further down to go.
    assert!(engine.tick(&sys).demotions.is_empty());
}

#[test]
fn migration_budget_caps_moves_per_tick() {
    let sys = MsrSystem::testbed(23);
    for i in 0..3 {
        write_history(&sys, &format!("ckpt-{i}"), 6);
    }
    let engine = LifecycleEngine::new(LifecycleConfig {
        demote_after: SimDuration::from_secs(100.0),
        max_moves_per_tick: 2,
        vault_after: SimDuration::from_secs(1e9),
        ..LifecycleConfig::default()
    });
    sys.clock.advance(SimDuration::from_secs(500.0));
    let t1 = engine.tick(&sys);
    assert_eq!(t1.demotions.len(), 2, "budget caps the tick");
    // Still-cold data keeps moving down on later ticks, never more than
    // the budget per tick, until everything bottoms out on tape.
    let mut ticks = 0;
    loop {
        let t = engine.tick(&sys);
        assert!(t.demotions.len() <= 2);
        if t.demotions.is_empty() {
            break;
        }
        ticks += 1;
        assert!(ticks < 10, "demotions must converge");
    }
    let locations: Vec<_> = {
        let mut c = sys.catalog.lock();
        c.all_datasets().iter().map(|d| d.location).collect()
    };
    assert!(locations
        .iter()
        .all(|&l| l == Location::Stored(StorageKind::RemoteTape)));
}

#[test]
fn ticks_are_identical_at_any_thread_count() {
    let scenario = || {
        let sys = MsrSystem::testbed(33);
        let run = write_history(&sys, "ckpt", 12);
        sys.clock.advance(SimDuration::from_secs(700.0));
        let engine = LifecycleEngine::new(LifecycleConfig {
            demote_after: SimDuration::from_secs(500.0),
            retention: RetentionPolicy::keep_all().with_keep_last(3),
            vault_after: SimDuration::from_secs(1e9),
            ..LifecycleConfig::default()
        });
        let t1 = engine.tick(&sys);
        let at = sys.clock.now().as_secs();
        sys.catalog.lock().note_access(run, "chk", at);
        let t2 = engine.tick(&sys);
        (
            serde_json::to_string(&t1).unwrap(),
            serde_json::to_string(&t2).unwrap(),
            format!("{:?}", sys.usage()),
            format!("{}", sys.clock.now()),
        )
    };
    let seq = rayon::with_threads(1, scenario);
    let par = rayon::with_threads(4, scenario);
    assert_eq!(
        seq, par,
        "tick reports are bitwise thread-count independent"
    );
}
