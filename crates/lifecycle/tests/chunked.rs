//! Lifecycle over content-addressed data: retention pruning must
//! garbage-collect unreferenced chunks — deleting a pack once its last
//! live frame is gone — and vaulting shelves a chunked dump's manifest
//! with its run's volume while its packs stay on the on-site `cas`
//! volume, so no other dump ever waits on a recall for a shared frame.

use msr_core::{ChunkPolicy, Codec, DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_lifecycle::{LifecycleConfig, LifecycleEngine, RetentionPolicy};
use msr_meta::{ElementType, RunId};
use msr_runtime::{IoStrategy, ProcGrid};
use msr_sim::SimDuration;
use msr_storage::StorageKind;

/// Checkpoint payload: an LCG base shared by every dump of `name` plus a
/// per-iteration churn window, so consecutive dumps dedup heavily but
/// each contributes some unique chunks (the ones pruning must GC).
fn churned(name: &str, iter: u32, len: usize) -> Vec<u8> {
    let seed = name.bytes().fold(0x9e3779b97f4a7c15u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    });
    let stream = |seed: u64, n: usize| -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    };
    let mut out = stream(seed, len);
    let window = (len / 16).max(1);
    let at = (iter as usize).wrapping_mul(977) % len.max(1);
    let churn = stream(
        seed ^ u64::from(iter).wrapping_mul(0x2545f4914f6cdd1d),
        window,
    );
    for (i, b) in churn.into_iter().enumerate() {
        out[(at + i) % len] = b;
    }
    out
}

/// Write a chunked checkpoint history (dumps at iterations 0, 3, …).
fn write_chunked_history(
    sys: &MsrSystem,
    app: &str,
    hint: LocationHint,
    future_use: FutureUse,
    iterations: u32,
) -> RunId {
    let mut s = sys
        .session()
        .app(app)
        .user("sim")
        .iterations(iterations)
        .build()
        .unwrap();
    let spec = DatasetSpec::builder("chk")
        .element(ElementType::F32)
        .cube(16)
        .frequency(3)
        .hint(hint)
        .future_use(future_use)
        .chunked(ChunkPolicy::cdc(8))
        .compression(Codec::Lz4Like(1))
        .build();
    let bytes = spec.snapshot_bytes() as usize;
    let h = s.open(spec).unwrap();
    let run = s.run_id();
    for iter in 0..=iterations {
        if s.dumps_at(h, iter) {
            s.write_iteration(h, iter, &churned("chk", iter, bytes))
                .unwrap();
        }
    }
    s.finalize().unwrap();
    run
}

fn quiet(cfg: LifecycleConfig) -> LifecycleConfig {
    LifecycleConfig {
        demote_after: SimDuration::from_secs(1e9),
        vault_after: SimDuration::from_secs(1e9),
        ..cfg
    }
}

/// Retention pruning of chunked dumps drops their manifests and
/// garbage-collects every chunk whose last reference died, while the
/// surviving dumps keep reading back bitwise intact.
#[test]
fn retention_pruning_garbage_collects_unreferenced_chunks() {
    let sys = MsrSystem::testbed(61);
    let run = write_chunked_history(
        &sys,
        "ckpt",
        LocationHint::LocalDisk,
        FutureUse::Checkpoint,
        12,
    );
    let name = sys
        .resource(StorageKind::LocalDisk)
        .unwrap()
        .lock()
        .name()
        .to_owned();
    let plane = sys.engine.chunk_plane();
    assert_eq!(plane.manifest_count(&name), 5, "dumps at 0,3,6,9,12");
    let before = plane.store_stats(&name).expect("store populated");
    assert_eq!(before.gcs, 0);

    let engine = LifecycleEngine::new(quiet(LifecycleConfig {
        retention: RetentionPolicy::keep_all().with_keep_last(2),
        ..LifecycleConfig::default()
    }));
    let t = engine.tick(&sys);
    assert_eq!(t.pruned_files, 3, "5 dumps, keep_last 2");

    let plane = sys.engine.chunk_plane();
    assert_eq!(t.pruned_files as usize, 5 - plane.manifest_count(&name));
    let after = plane.store_stats(&name).expect("store survives pruning");
    assert!(
        after.gcs > 0,
        "pruned dumps' unique chunks must be collected: {after:?}"
    );
    assert!(
        after.stored_bytes < before.stored_bytes,
        "GC must free physical bytes ({} -> {})",
        before.stored_bytes,
        after.stored_bytes
    );
    // Reclamation is by whole pack: the index and the resource agree on
    // which packs are left, and nothing else lives under `cas/`.
    let on_disk = sys
        .resource(StorageKind::LocalDisk)
        .unwrap()
        .lock()
        .list("cas/");
    assert!(on_disk.iter().all(|p| p.starts_with("cas/pack-")));
    assert_eq!(after.packs, on_disk.len());
    assert!(after.packs <= before.packs);

    // The survivors still read back exactly.
    let grid = ProcGrid::new(1, 1, 1);
    for iter in [9u32, 12] {
        let (data, _) = sys
            .read_dataset(run, "chk", iter, grid, IoStrategy::Collective)
            .expect("kept dump reads");
        assert_eq!(data, churned("chk", iter, data.len()));
    }
}

/// Vaulting a chunked archive makes it unreadable until recalled; the
/// recall restores the manifests, and every dump reads back bitwise
/// identical afterwards. The packs never leave the `cas` volume.
#[test]
fn vault_and_recall_roundtrip_chunked_dumps() {
    let sys = MsrSystem::testbed(62);
    let run = write_chunked_history(
        &sys,
        "arch",
        LocationHint::RemoteTape,
        FutureUse::Archive,
        6,
    );
    let engine = LifecycleEngine::new(LifecycleConfig {
        vault_after: SimDuration::from_secs(100.0),
        demote_after: SimDuration::from_secs(1e9),
        ..LifecycleConfig::default()
    });
    let grid = ProcGrid::new(1, 1, 1);

    sys.clock.advance(SimDuration::from_secs(400.0));
    let t = engine.tick(&sys);
    assert_eq!(t.vaulted, 3, "dumps at 0, 3, 6 shelved");
    // The manifests' volume is shelved; the packs' is not.
    let tape = sys.resource(StorageKind::RemoteTape).unwrap();
    let packs = tape.lock().list("cas/");
    assert!(
        !packs.is_empty() && packs.len() <= 3,
        "at most one per dump"
    );
    assert!(!packs.iter().any(|p| tape.lock().is_vaulted(p)));
    assert!(
        sys.read_dataset(run, "chk", 6, grid, IoStrategy::Collective)
            .is_err(),
        "vaulted chunked data must not serve reads"
    );

    let recalled = engine.recall_dataset(&sys, run, "chk").unwrap();
    assert_eq!(recalled, 3);
    for iter in [0u32, 3, 6] {
        let (data, _) = sys
            .read_dataset(run, "chk", iter, grid, IoStrategy::Collective)
            .expect("recalled dump reads");
        assert_eq!(
            data,
            churned("chk", iter, data.len()),
            "iter {iter} corrupt after vault/recall"
        );
    }
}

/// A chunked dump that dedups against the frames of a dump whose volume
/// is on the shelf reads back with no recall: the frames live on the
/// `cas` volume, which holds no dataset and is never shelved.
#[test]
fn a_dedup_hit_on_a_shelved_dumps_frames_reads_without_a_recall() {
    let sys = MsrSystem::testbed(63);
    let first = write_chunked_history(
        &sys,
        "arch",
        LocationHint::RemoteTape,
        FutureUse::Archive,
        0,
    );
    let engine = LifecycleEngine::new(LifecycleConfig {
        vault_after: SimDuration::from_secs(100.0),
        demote_after: SimDuration::from_secs(1e9),
        ..LifecycleConfig::default()
    });
    sys.clock.advance(SimDuration::from_secs(400.0));
    assert_eq!(engine.tick(&sys).vaulted, 1);
    let grid = ProcGrid::new(1, 1, 1);
    assert!(sys
        .read_dataset(first, "chk", 0, grid, IoStrategy::Collective)
        .is_err());

    // The same payload under a new run: every frame is a dedup hit on the
    // shelved dump's pack.
    let tape = sys.resource(StorageKind::RemoteTape).unwrap();
    let name = tape.lock().name().to_owned();
    let hits = sys.engine.chunk_plane().store_stats(&name).unwrap().hits;
    let second = write_chunked_history(
        &sys,
        "arch",
        LocationHint::RemoteTape,
        FutureUse::Archive,
        0,
    );
    let stats = sys.engine.chunk_plane().store_stats(&name).unwrap();
    assert!(stats.hits > hits, "the new dump dedups: {stats:?}");
    let (data, _) = sys
        .read_dataset(second, "chk", 0, grid, IoStrategy::Collective)
        .expect("the shared frames are on-site");
    assert_eq!(data, churned("chk", 0, data.len()));
    assert!(
        sys.read_dataset(first, "chk", 0, grid, IoStrategy::Collective)
            .is_err(),
        "no recall happened: the first run's volume is still shelved"
    );
}
