//! Determinism and effectiveness of scheduled drains over the
//! content-addressed chunk plane.
//!
//! With chunked `DatasetSpec`s the engine routes every dump through
//! `write_chunked`: payloads split into digest-keyed chunks, repeats dedup
//! against the per-resource store, and the delta summaries feed the
//! predictor's `RatioBook` at the report-finalization barrier. None of
//! that may perturb the scheduler's bitwise-determinism contract: the same
//! fleet must produce byte-identical `SchedReport` JSON at any
//! `MSR_THREADS`.

use msr_core::{ChunkPolicy, Codec, DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_meta::ElementType;
use msr_sched::{Scheduler, SessionProgram};
use msr_storage::StorageKind;

/// Checkpoint-every-6 producer whose dumps land on the remote disk as CDC
/// chunks. The scheduler's churn payload shares ~15/16 of its bytes
/// between successive dumps of one dataset, so the store dedups heavily.
fn chunked_producer(i: usize) -> SessionProgram {
    SessionProgram::new(&format!("ckpt-{i:02}"))
        .user("sim")
        .iterations(24)
        .dataset(
            DatasetSpec::builder("state")
                .element(ElementType::F32)
                .cube(16)
                .frequency(6)
                .hint(LocationHint::RemoteDisk)
                .future_use(FutureUse::Archive)
                .chunked(ChunkPolicy::cdc(8))
                .compression(Codec::Lz4Like(1))
                .build(),
        )
}

fn drain(seed: u64, n: usize) -> (String, f64) {
    let sys = MsrSystem::testbed(seed);
    let mut sched = Scheduler::new(&sys).with_prefetch(true);
    for i in 0..n {
        sched.admit(chunked_producer(i)).unwrap();
    }
    let json = serde_json::to_string(&sched.run().unwrap()).unwrap();
    (json, sys.predicted_ratio("state"))
}

/// Chunked fleets drain to byte-identical reports at a single-threaded
/// worker pool.
#[test]
fn chunked_drains_are_bitwise_deterministic() {
    for n in [1usize, 4] {
        let (wide, _) = drain(3000, n);
        let (narrow, _) = rayon::pool::with_threads(1, || drain(3000, n));
        assert_eq!(
            narrow, wide,
            "chunked fleet n={n}: drain diverged at MSR_THREADS=1"
        );
    }
}

/// The drain's delta summaries reach the predictor: after a churny
/// checkpoint run the learned moved/logical ratio is well below 1, and it
/// is the same ratio at any worker-pool width.
#[test]
fn chunked_drains_teach_the_predictor() {
    let (_, ratio) = drain(3100, 1);
    assert!(
        ratio < 0.9,
        "churn producer should dedup a real fraction of bytes, got ratio {ratio}"
    );
    let (_, narrow) = rayon::pool::with_threads(1, || drain(3100, 1));
    assert_eq!(
        ratio.to_bits(),
        narrow.to_bits(),
        "learned ratio must not depend on MSR_THREADS"
    );
}

/// The chunk store on the placement target actually engaged — manifests
/// registered, dedup hits recorded — and physical occupancy sits well
/// under the logical bytes dumped.
#[test]
fn chunked_drains_dedup_on_the_store() {
    let sys = MsrSystem::testbed(3200);
    let mut sched = Scheduler::new(&sys).with_prefetch(false);
    for i in 0..2 {
        sched.admit(chunked_producer(i)).unwrap();
    }
    let report = sched.run().unwrap();
    assert!(report.sessions.iter().all(|s| s.errors.is_empty()));

    let name = sys
        .resource(StorageKind::RemoteDisk)
        .unwrap()
        .lock()
        .name()
        .to_owned();
    let plane = sys.engine.chunk_plane();
    let manifests = plane.manifest_count(&name);
    assert!(manifests > 0, "no manifests on {name}");
    let stats = plane.store_stats(&name).expect("store should exist");
    assert!(stats.hits > 0, "churn payloads should produce dedup hits");
    // Each manifest represents one 16³×f32 dump; deduped chunks keep the
    // store's physical footprint under the logical bytes dumped. (The LCG
    // payloads are incompressible, so the saving is all dedup.)
    // A dump ships at most one pack, and nothing else lives under `cas/`.
    let on_disk = sys
        .resource(StorageKind::RemoteDisk)
        .unwrap()
        .lock()
        .list("cas/");
    assert!(on_disk.iter().all(|p| p.starts_with("cas/pack-")));
    assert_eq!(stats.packs, on_disk.len());
    assert!(stats.packs <= manifests, "{stats:?} for {manifests} dumps");
    let dumped = manifests as u64 * 16 * 16 * 16 * 4;
    assert!(
        stats.stored_bytes < dumped,
        "dedup should shrink the store below {dumped} dumped bytes: {stats:?}"
    );
}
