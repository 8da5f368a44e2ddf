//! The lifecycle engine on a dataset written in subfiles: every pass acts
//! on all of a dump's stored objects, one per writing process.

use msr_core::{CoreError, DatasetSpec, LocationHint, MsrSystem};
use msr_lifecycle::{LifecycleConfig, LifecycleEngine, RetentionPolicy};
use msr_meta::{ElementType, RunId};
use msr_runtime::{IoStrategy, ProcGrid, RuntimeError};
use msr_sim::SimDuration;
use msr_storage::{profiles::DEFAULT_RECALL_SECS, StorageError, StorageKind};

/// The writer's grid: two processes, so each dump is two subfiles.
const GRID: ProcGrid = ProcGrid {
    px: 2,
    py: 1,
    pz: 1,
};

/// Bytes of one 8³ f32 dump.
const DUMP: u64 = 8 * 8 * 8 * 4;

/// Write `field`, an 8³ f32 `Subfile` dataset dumped every 3 iterations
/// on [`GRID`], pinned by `hint`. Returns the run and each dump's
/// iteration and bytes.
fn write_history(
    sys: &MsrSystem,
    hint: LocationHint,
    iterations: u32,
) -> (RunId, Vec<(u32, Vec<u8>)>) {
    let mut s = sys
        .session()
        .app("sub")
        .user("sim")
        .iterations(iterations)
        .grid(GRID)
        .build()
        .unwrap();
    let spec = DatasetSpec::builder("field")
        .element(ElementType::F32)
        .cube(8)
        .frequency(3)
        .strategy(IoStrategy::Subfile)
        .hint(hint)
        .build();
    let h = s.open(spec).unwrap();
    let run = s.run_id();
    let mut dumps = Vec::new();
    for iter in (0..=iterations).step_by(3) {
        let bytes: Vec<u8> = (0..DUMP).map(|i| (i * 7 + u64::from(iter)) as u8).collect();
        s.write_iteration(h, iter, &bytes).unwrap();
        dumps.push((iter, bytes));
    }
    s.finalize().unwrap();
    (run, dumps)
}

fn objects_on(sys: &MsrSystem, kind: StorageKind) -> usize {
    sys.resource(kind).unwrap().lock().list("sub/").len()
}

/// Every dump reads back bit for bit on the writer's grid, whichever
/// strategy the consumer asks for.
fn reads_back(sys: &MsrSystem, run: RunId, dumps: &[(u32, Vec<u8>)]) {
    for (iter, bytes) in dumps {
        for strategy in [IoStrategy::Subfile, IoStrategy::Collective] {
            let (back, _) = sys
                .read_dataset(run, "field", *iter, GRID, strategy)
                .unwrap();
            assert_eq!(&back, bytes, "iteration {iter}, {strategy}");
        }
    }
}

#[test]
fn retention_deletes_every_subfile_of_a_pruned_dump() {
    let sys = MsrSystem::testbed(21);
    write_history(&sys, LocationHint::LocalDisk, 12); // dumps at 0, 3, 6, 9, 12
    assert_eq!(objects_on(&sys, StorageKind::LocalDisk), 10);
    let engine = LifecycleEngine::new(LifecycleConfig {
        demote_after: SimDuration::from_secs(1e9),
        promote_heat: u64::MAX,
        vault_after: SimDuration::from_secs(1e9),
        retention: RetentionPolicy::keep_all().with_keep_last(2),
        ..LifecycleConfig::default()
    });

    let before = sys.usage()[&StorageKind::LocalDisk];
    let t = engine.tick(&sys);
    assert_eq!(t.pruned_files, 3, "5 dumps, keep_last 2");
    assert_eq!(t.pruned_bytes, 3 * DUMP);
    assert_eq!(
        sys.usage()[&StorageKind::LocalDisk],
        before - t.pruned_bytes,
        "the bytes reported pruned are the bytes freed"
    );
    assert_eq!(objects_on(&sys, StorageKind::LocalDisk), 4);
}

#[test]
fn subfile_dumps_on_tape_vault_then_recall_and_read_back() {
    let sys = MsrSystem::testbed(31);
    let (run, dumps) = write_history(&sys, LocationHint::RemoteTape, 6); // dumps at 0, 3, 6
    let engine = LifecycleEngine::new(LifecycleConfig {
        vault_after: SimDuration::from_secs(100.0),
        demote_after: SimDuration::from_secs(1e9),
        promote_heat: u64::MAX,
        ..LifecycleConfig::default()
    });

    sys.clock.advance(SimDuration::from_secs(400.0));
    assert_eq!(engine.tick(&sys).vaulted, 3, "every dump shelved");
    let err = sys
        .read_dataset(run, "field", 6, GRID, IoStrategy::Subfile)
        .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Runtime(RuntimeError::Storage(StorageError::Vaulted(_)))
        ),
        "{err:?}"
    );

    let before = sys.clock.now();
    assert_eq!(engine.recall_dataset(&sys, run, "field").unwrap(), 3);
    assert_eq!(
        sys.clock.now().since(before),
        SimDuration::from_secs(DEFAULT_RECALL_SECS),
        "the six subfiles share the run's volume: one recall"
    );
    reads_back(&sys, run, &dumps);
}

#[test]
fn lifecycle_demotes_a_subfile_dataset_and_it_moves_back_intact() {
    let sys = MsrSystem::testbed(22);
    let (run, dumps) = write_history(&sys, LocationHint::LocalDisk, 6); // dumps at 0, 3, 6
    let engine = LifecycleEngine::new(LifecycleConfig {
        demote_after: SimDuration::from_secs(500.0),
        promote_heat: u64::MAX,
        vault_after: SimDuration::from_secs(1e9),
        ..LifecycleConfig::default()
    });

    sys.clock.advance(SimDuration::from_secs(600.0));
    let t = engine.tick(&sys);
    assert_eq!(t.demotions.len(), 1, "one copy, straight to tape");
    let m = &t.demotions[0];
    assert_eq!(
        (m.from, m.to),
        (StorageKind::LocalDisk, StorageKind::RemoteTape)
    );
    assert_eq!((m.files, m.bytes), (3, 3 * DUMP));
    assert_eq!(
        objects_on(&sys, StorageKind::LocalDisk),
        0,
        "the source is emptied"
    );
    assert_eq!(objects_on(&sys, StorageKind::RemoteDisk), 0);
    assert_eq!(
        objects_on(&sys, StorageKind::RemoteTape),
        6,
        "two subfiles per dump"
    );
    reads_back(&sys, run, &dumps);

    let back = sys
        .migrate_dataset(run, "field", StorageKind::LocalDisk)
        .unwrap();
    assert_eq!((back.files, back.bytes), (3, 3 * DUMP));
    assert_eq!(objects_on(&sys, StorageKind::RemoteTape), 0);
    reads_back(&sys, run, &dumps);
}
