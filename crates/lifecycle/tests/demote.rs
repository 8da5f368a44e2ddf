//! Demotion copies a cold dataset once: straight to the lowest rung that
//! is up, never through a rung it would leave again on the next tick.

use msr_core::{DatasetSpec, LocationHint, MsrSystem, TenantId};
use msr_lifecycle::{LifecycleConfig, LifecycleEngine};
use msr_meta::{ElementType, Location, RunId};
use msr_runtime::{IoStrategy, ProcGrid};
use msr_sim::SimDuration;
use msr_storage::StorageKind;

/// Bytes of one 8³ f32 dump.
const DUMP: u64 = 8 * 8 * 8 * 4;

/// Write `chk` in app `app`, an 8³ f32 dataset dumped every 3 iterations
/// of 6 and pinned to local disk. Returns the run and each dump's
/// iteration and bytes.
fn write_history(sys: &MsrSystem, app: &str) -> (RunId, Vec<(u32, Vec<u8>)>) {
    let mut s = sys
        .session()
        .app(app)
        .user("sim")
        .iterations(6)
        .build()
        .unwrap();
    let spec = DatasetSpec::builder("chk")
        .element(ElementType::F32)
        .cube(8)
        .frequency(3)
        .hint(LocationHint::LocalDisk)
        .build();
    let h = s.open(spec).unwrap();
    let run = s.run_id();
    let mut dumps = Vec::new();
    for iter in (0..=6).step_by(3) {
        let bytes: Vec<u8> = (0..DUMP)
            .map(|i| (i * 13 + u64::from(iter)) as u8)
            .collect();
        s.write_iteration(h, iter, &bytes).unwrap();
        dumps.push((iter, bytes));
    }
    s.finalize().unwrap();
    (run, dumps)
}

/// Demote after 500 s idle; never vault.
fn engine() -> LifecycleEngine {
    LifecycleEngine::new(LifecycleConfig {
        demote_after: SimDuration::from_secs(500.0),
        vault_after: SimDuration::from_secs(1e9),
        ..LifecycleConfig::default()
    })
}

fn location(sys: &MsrSystem, run: RunId) -> Location {
    sys.catalog
        .lock()
        .find_dataset(run, "chk")
        .unwrap()
        .location
}

fn bytes_written(sys: &MsrSystem, kind: StorageKind) -> u64 {
    sys.resource(kind).unwrap().lock().stats().bytes_written
}

/// Every dump reads back bit for bit from wherever the dataset rests.
fn reads_back(sys: &MsrSystem, run: RunId, dumps: &[(u32, Vec<u8>)]) {
    for (iter, bytes) in dumps {
        let (back, _) = sys
            .read_dataset(
                run,
                "chk",
                *iter,
                ProcGrid::new(1, 1, 1),
                IoStrategy::Collective,
            )
            .unwrap();
        assert_eq!(&back, bytes, "iteration {iter}");
    }
}

#[test]
fn an_idle_dataset_moves_to_tape_in_one_copy() {
    let sys = MsrSystem::testbed(41);
    let (run, dumps) = write_history(&sys, "ckpt");
    let engine = engine();
    let rdisk_before = bytes_written(&sys, StorageKind::RemoteDisk);

    sys.clock.advance(SimDuration::from_secs(600.0));
    let t = engine.tick(&sys);
    assert_eq!(t.demotions.len(), 1);
    let m = &t.demotions[0];
    assert_eq!(
        (m.from, m.to),
        (StorageKind::LocalDisk, StorageKind::RemoteTape)
    );
    assert_eq!((m.files, m.bytes), (3, 3 * DUMP));
    assert_eq!(
        location(&sys, run),
        Location::Stored(StorageKind::RemoteTape)
    );
    assert_eq!(
        bytes_written(&sys, StorageKind::RemoteDisk),
        rdisk_before,
        "the remote disk receives nothing"
    );
    assert_eq!(sys.usage()[&StorageKind::RemoteDisk], 0);
    assert_eq!(
        sys.usage()[&StorageKind::LocalDisk],
        0,
        "the source is emptied"
    );

    // Resting on the bottom rung, the dataset is never copied again.
    sys.clock.advance(SimDuration::from_secs(600.0));
    assert!(engine.tick(&sys).demotions.is_empty());
    reads_back(&sys, run, &dumps);
}

#[test]
fn with_tape_down_a_cold_dataset_rests_on_the_remote_disk_until_tape_is_back() {
    let sys = MsrSystem::testbed(42);
    let (first, first_dumps) = write_history(&sys, "ckpt-a");
    let engine = engine();

    sys.set_resource_online(StorageKind::RemoteTape, false);
    sys.clock.advance(SimDuration::from_secs(600.0));
    let t = engine.tick(&sys);
    assert_eq!(t.demotions.len(), 1);
    assert_eq!(
        (t.demotions[0].from, t.demotions[0].to),
        (StorageKind::LocalDisk, StorageKind::RemoteDisk)
    );
    assert_eq!(
        location(&sys, first),
        Location::Stored(StorageKind::RemoteDisk)
    );

    // Still down: no rung below the remote disk is up, so nothing moves.
    sys.clock.advance(SimDuration::from_secs(600.0));
    assert!(engine.tick(&sys).demotions.is_empty());

    // Tape is back: the resting dataset takes its last hop, and a dataset
    // that turned cold on local disk meanwhile goes straight to tape.
    let (second, second_dumps) = write_history(&sys, "ckpt-b");
    sys.clock.advance(SimDuration::from_secs(600.0));
    sys.set_resource_online(StorageKind::RemoteTape, true);
    let t = engine.tick(&sys);
    let hops: Vec<_> = t.demotions.iter().map(|m| (m.from, m.to)).collect();
    assert_eq!(
        hops,
        [
            (StorageKind::RemoteDisk, StorageKind::RemoteTape),
            (StorageKind::LocalDisk, StorageKind::RemoteTape),
        ]
    );
    for run in [first, second] {
        assert_eq!(
            location(&sys, run),
            Location::Stored(StorageKind::RemoteTape)
        );
    }
    assert_eq!(sys.usage()[&StorageKind::RemoteDisk], 0);
    reads_back(&sys, first, &first_dumps);
    reads_back(&sys, second, &second_dumps);
}

/// A lifecycle move runs at the tick on the global clock, not behind the
/// scheduler's queues: the load board's depths do not enter its price.
#[test]
fn a_move_price_ignores_the_queues_it_never_waits_in() {
    let price = |queued: bool| {
        let sys = MsrSystem::testbed(43);
        write_history(&sys, "ckpt");
        if queued {
            for kind in [StorageKind::LocalDisk, StorageKind::RemoteTape] {
                for _ in 0..5 {
                    sys.load.enqueue(kind, TenantId(1), 30.0);
                }
            }
        }
        sys.clock.advance(SimDuration::from_secs(600.0));
        let t = engine().tick(&sys);
        assert_eq!(t.demotions.len(), 1);
        t.demotions[0].predicted_secs
    };
    let idle = price(false);
    assert!(idle > 0.0, "eq.(2) priced the move");
    assert_eq!(price(true).to_bits(), idle.to_bits());
}
