//! Chunk-plane integration tests: dedup, GC, vault gating, corruption
//! detection and thread-count determinism at the engine level.

use msr_chunk::{pack_path, ChunkPolicy, Codec, Digest, IngestSpec};
use msr_runtime::{
    Dims3, Distribution, IoEngine, IoReport, IoStrategy, Pattern, ProcGrid, RuntimeError,
};
use msr_storage::{share, DiskParams, LocalDisk, OpenMode, SharedResource};
use rayon::with_threads;

fn disk() -> SharedResource {
    share(LocalDisk::new("t", DiskParams::simple(100.0, 1 << 30), 0))
}

fn dist(bytes: u64, nprocs: usize) -> Distribution {
    let side = (bytes as f64).cbrt().round() as u64;
    assert_eq!(side * side * side, bytes, "pick a cube-sized payload");
    Distribution::new(
        Dims3::cube(side),
        1,
        Pattern::bbb(),
        ProcGrid::new(nprocs as u32, 1, 1),
    )
    .unwrap()
}

/// A compressible payload with per-iteration churn: a repeating tile with
/// a sliding window of mutated bytes — the checkpoint-every-N shape.
fn churned(bytes: usize, iter: u64) -> Vec<u8> {
    let mut out = vec![0u8; bytes];
    for (i, b) in out.iter_mut().enumerate() {
        *b = ((i % 509) * 13 % 251) as u8;
    }
    let window = bytes / 16;
    let start = (iter as usize * 7919) % (bytes - window.max(1));
    for (k, b) in out[start..start + window].iter_mut().enumerate() {
        *b = (*b)
            .wrapping_add(1 + (k % 7) as u8)
            .wrapping_add(iter as u8);
    }
    out
}

fn cas_ingest() -> IngestSpec {
    IngestSpec::chunked(ChunkPolicy::cdc(4)).with_codec(Codec::Lz4Like(2))
}

/// Like [`churned`] but over an incompressible pseudorandom base, so
/// dedup — not compression — is what saves bytes.
fn noisy_churned(bytes: usize, iter: u64) -> Vec<u8> {
    let mut out: Vec<u8> = (0..bytes)
        .map(|i| {
            // SplitMix64 finalizer: a true per-index avalanche, so the
            // base stream has no structure a codec can exploit.
            let mut x = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            x as u8
        })
        .collect();
    let window = bytes / 16;
    let start = (iter as usize * 7919) % (bytes - window.max(1));
    for (k, b) in out[start..start + window].iter_mut().enumerate() {
        *b = (*b)
            .wrapping_add(1 + (k % 7) as u8)
            .wrapping_add(iter as u8);
    }
    out
}

#[test]
fn chunked_roundtrip_and_dedup_across_dumps() {
    let engine = IoEngine::default();
    let res = disk();
    let d = dist(40 * 40 * 40, 1);
    let ingest = cas_ingest();
    let mut moved = Vec::new();
    for iter in 0..4u64 {
        let data = noisy_churned(d.total_bytes() as usize, iter);
        engine
            .write_chunked(
                &res,
                &format!("d.t{iter}"),
                &data,
                &d,
                IoStrategy::Collective,
                OpenMode::Create,
                &ingest,
                "d",
            )
            .unwrap();
        let (back, _) = engine
            .read_chunked(&res, &format!("d.t{iter}"), &d, IoStrategy::Collective)
            .unwrap();
        assert_eq!(back, data, "iter {iter} roundtrip");
    }
    for s in engine.chunk_plane().take_deltas() {
        moved.push(s.moved_bytes);
        assert_eq!(s.dataset, "d");
        assert_eq!(s.logical_bytes, d.total_bytes());
    }
    assert_eq!(moved.len(), 4);
    // Later dumps ship only the churned window (+ manifest): far less
    // than the first, which had an empty store to fill.
    assert!(
        moved[3] * 3 < moved[0],
        "dedup: dump 3 moved {} vs dump 0 {}",
        moved[3],
        moved[0]
    );
    let stats = engine.chunk_plane().store_stats("t").unwrap();
    assert!(stats.hits > 0, "shared chunks were hits");
    assert!(
        stats.stored_bytes < 4 * d.total_bytes(),
        "dedup + compression"
    );
}

#[test]
fn overwrite_releases_old_references_and_gcs_orphans() {
    let engine = IoEngine::default();
    let res = disk();
    let d = dist(16 * 16 * 16, 1);
    let ingest = IngestSpec::chunked(ChunkPolicy::fixed(4));
    let a = churned(d.total_bytes() as usize, 0);
    let mut b = a.clone();
    for x in b.iter_mut() {
        *x = x.wrapping_mul(17).wrapping_add(3);
    }
    engine
        .write_chunked(
            &res,
            "d",
            &a,
            &d,
            IoStrategy::Naive,
            OpenMode::Create,
            &ingest,
            "d",
        )
        .unwrap();
    let before = engine.chunk_plane().store_stats("t").unwrap();
    engine
        .write_chunked(
            &res,
            "d",
            &b,
            &d,
            IoStrategy::Naive,
            OpenMode::Create,
            &ingest,
            "d",
        )
        .unwrap();
    let after = engine.chunk_plane().store_stats("t").unwrap();
    assert!(after.gcs > 0, "disjoint rewrite GCs the old chunks");
    assert_eq!(
        after.chunks, before.chunks,
        "fully replaced dump keeps the store the same size"
    );
    let (back, _) = engine
        .read_chunked(&res, "d", &d, IoStrategy::Naive)
        .unwrap();
    assert_eq!(back, b);
}

#[test]
fn delete_dump_gcs_unreferenced_frames_only() {
    let engine = IoEngine::default();
    let res = disk();
    let d = dist(16 * 16 * 16, 1);
    let ingest = IngestSpec::chunked(ChunkPolicy::fixed(4));
    let data = churned(d.total_bytes() as usize, 0);
    // Two dumps of identical content share every chunk.
    for p in ["d.t0", "d.t1"] {
        engine
            .write_chunked(
                &res,
                p,
                &data,
                &d,
                IoStrategy::Naive,
                OpenMode::Create,
                &ingest,
                "d",
            )
            .unwrap();
    }
    let shared = engine.chunk_plane().store_stats("t").unwrap();
    engine.delete_dump(&res, "d.t0").unwrap();
    let after_one = engine.chunk_plane().store_stats("t").unwrap();
    assert_eq!(
        after_one.chunks, shared.chunks,
        "t1 still holds every chunk"
    );
    assert_eq!(after_one.gcs, 0);
    let (back, _) = engine
        .read_chunked(&res, "d.t1", &d, IoStrategy::Naive)
        .unwrap();
    assert_eq!(back, data);
    engine.delete_dump(&res, "d.t1").unwrap();
    let empty = engine.chunk_plane().store_stats("t").unwrap();
    assert_eq!(empty.chunks, 0, "last reference GCs everything");
    assert!(empty.gcs > 0);
    assert_eq!(
        res.lock().list("cas/").len(),
        0,
        "pack objects deleted from storage"
    );
    assert!(!engine.chunk_plane().is_chunked("t", "d.t1"));
}

#[test]
fn corrupted_frame_surfaces_a_digest_mismatch() {
    let engine = IoEngine::default();
    let res = disk();
    let d = dist(16 * 16 * 16, 1);
    let ingest = IngestSpec::chunked(ChunkPolicy::fixed(4));
    let data = churned(d.total_bytes() as usize, 1);
    engine
        .write_chunked(
            &res,
            "d",
            &data,
            &d,
            IoStrategy::Naive,
            OpenMode::Create,
            &ingest,
            "d",
        )
        .unwrap();
    // Flip bytes inside the dump's pack, behind the engine's back.
    let victim = res.lock().list("cas/").into_iter().next().unwrap();
    {
        let mut r = res.lock();
        let h = r.open(&victim, OpenMode::OverWrite).unwrap().value;
        r.write(h, &[0xFF, 0x00, 0xFF]).unwrap();
        r.close(h).unwrap();
    }
    let err = engine
        .read_chunked(&res, "d", &d, IoStrategy::Naive)
        .unwrap_err();
    match err {
        RuntimeError::Chunk { path, source } => {
            assert_eq!(path, "d");
            let msg = source.to_string();
            assert!(
                msg.contains("digest") || msg.contains("frame"),
                "typed chunk error, got: {msg}"
            );
        }
        other => panic!("expected RuntimeError::Chunk, got {other}"),
    }
}

/// One whole object, read natively.
fn get(res: &SharedResource, path: &str) -> Vec<u8> {
    let mut r = res.lock();
    let len = r.file_size(path).unwrap() as usize;
    let h = r.open(path, OpenMode::Read).unwrap().value;
    let bytes = r.read(h, len).unwrap().value.to_vec();
    r.close(h).unwrap();
    bytes
}

/// Replace one whole object, behind the engine's back.
fn put(res: &SharedResource, path: &str, bytes: &[u8]) {
    let mut r = res.lock();
    let h = r.open(path, OpenMode::Create).unwrap().value;
    r.write(h, bytes).unwrap();
    r.close(h).unwrap();
}

#[test]
fn mutated_manifests_and_packs_read_back_exactly_or_fail_typed() {
    let engine = IoEngine::default();
    let res = disk();
    let d = dist(32 * 32 * 32, 1);
    let ingest = IngestSpec::chunked(ChunkPolicy::fixed(4)).with_codec(Codec::Lz4Like(2));
    let mut last = Vec::new();
    for iter in 0..2u64 {
        last = churned(d.total_bytes() as usize, iter);
        engine
            .write_chunked(
                &res,
                &format!("d.t{iter}"),
                &last,
                &d,
                IoStrategy::Collective,
                OpenMode::Create,
                &ingest,
                "d",
            )
            .unwrap();
    }
    // d.t1 reads its own pack and, for the chunks it kept, d.t0's.
    let mut victims = res.lock().list("cas/");
    assert_eq!(victims.len(), 2);
    victims.push("d.t1".to_owned());
    let mut refused = 0;
    for path in &victims {
        let good = get(&res, path);
        // Truncations, every bit of the leading (header) bytes, and one
        // bit of every seventh byte after them.
        let cuts = [0, 1, good.len() / 2, good.len() - 1]
            .into_iter()
            .map(|n| good[..n].to_vec());
        let flips = (0..good.len()).flat_map(|at| {
            let bits = match at {
                0..32 => 0..8,
                _ if at % 7 == 0 => at % 8..at % 8 + 1,
                _ => 0..0,
            };
            let good = &good;
            bits.map(move |bit| {
                let mut m = good.clone();
                m[at] ^= 1 << bit;
                m
            })
        });
        for mutated in cuts.chain(flips) {
            put(&res, path, &mutated);
            match engine.read_chunked(&res, "d.t1", &d, IoStrategy::Collective) {
                // A flip in a frame d.t1 does not reference, or in a
                // manifest byte no read depends on, changes nothing.
                Ok((back, _)) => assert_eq!(back, last, "{path}: silent corruption"),
                Err(RuntimeError::Chunk { .. }) => refused += 1,
                Err(other) => panic!("{path}: untyped failure {other}"),
            }
        }
        put(&res, path, &good);
    }
    assert!(refused > 100, "the corpus must bite: {refused} refusals");
    let (back, _) = engine
        .read_chunked(&res, "d.t1", &d, IoStrategy::Collective)
        .unwrap();
    assert_eq!(back, last, "restored objects read back");
}

#[test]
fn a_codec_alone_ingests_through_cas_packs() {
    let engine = IoEngine::default();
    let res = disk();
    let d = dist(32 * 32 * 32, 1);
    let ingest = IngestSpec::raw().with_codec(Codec::Lz4Like(2));
    let data = churned(d.total_bytes() as usize, 2);
    for p in ["d.t0", "d.t1"] {
        engine
            .write_chunked(
                &res,
                p,
                &data,
                &d,
                IoStrategy::Collective,
                OpenMode::Create,
                &ingest,
                "d",
            )
            .unwrap();
    }
    // Identical dumps: the first wrote the one pack, the second none.
    assert_eq!(res.lock().list("cas/").len(), 1);
    let (used, logical) = {
        let r = res.lock();
        (r.used_bytes(), r.logical_bytes())
    };
    assert!(
        used < d.total_bytes(),
        "two compressed, deduplicated dumps store {used} B, under one logical dump"
    );
    assert_eq!(logical, 2 * d.total_bytes());
    let (back, _) = engine
        .read_auto(&res, "d.t1", &d, IoStrategy::Collective)
        .unwrap();
    assert_eq!(back.into_vec(), data);
}

#[test]
fn logical_accounting_splits_from_physical() {
    let engine = IoEngine::default();
    let res = disk();
    let d = dist(32 * 32 * 32, 1);
    let ingest = cas_ingest();
    for iter in 0..3u64 {
        let data = noisy_churned(d.total_bytes() as usize, iter);
        engine
            .write_chunked(
                &res,
                &format!("d.t{iter}"),
                &data,
                &d,
                IoStrategy::Collective,
                OpenMode::Create,
                &ingest,
                "d",
            )
            .unwrap();
    }
    let r = res.lock();
    assert_eq!(
        r.logical_bytes(),
        3 * d.total_bytes(),
        "tenant quotas charge what applications dumped"
    );
    assert!(
        r.used_bytes() < r.logical_bytes(),
        "physical occupancy {} under logical {} after dedup+compression",
        r.used_bytes(),
        r.logical_bytes()
    );
}

fn chunked_cycle(threads: usize, nprocs: usize) -> (Vec<Vec<u8>>, Vec<IoReport>, Vec<IoReport>) {
    with_threads(threads, || {
        let engine = IoEngine::default();
        let res = disk();
        let d = dist(32 * 32 * 32, nprocs);
        let ingest = cas_ingest();
        let mut datas = Vec::new();
        let mut wreps = Vec::new();
        let mut rreps = Vec::new();
        for iter in 0..3u64 {
            let data = churned(d.total_bytes() as usize, iter);
            let w = engine
                .write_chunked(
                    &res,
                    &format!("d.t{iter}"),
                    &data,
                    &d,
                    IoStrategy::Collective,
                    OpenMode::Create,
                    &ingest,
                    "d",
                )
                .unwrap();
            let (back, r) = engine
                .read_chunked(&res, &format!("d.t{iter}"), &d, IoStrategy::Collective)
                .unwrap();
            assert_eq!(back, data);
            datas.push(back);
            wreps.push(w);
            rreps.push(r);
        }
        (datas, wreps, rreps)
    })
}

#[test]
fn chunked_io_is_bitwise_identical_across_thread_counts() {
    for nprocs in [1usize, 4] {
        let seq = chunked_cycle(1, nprocs);
        let par = chunked_cycle(8, nprocs);
        assert_eq!(seq.0, par.0, "assembled data (nprocs {nprocs})");
        assert_eq!(seq.1, par.1, "write reports (nprocs {nprocs})");
        assert_eq!(seq.2, par.2, "read reports (nprocs {nprocs})");
    }
}

#[test]
fn same_payload_same_digests_at_any_thread_count() {
    let data = churned(1 << 16, 5);
    let policy = ChunkPolicy::cdc(8);
    let seq: Vec<Digest> = with_threads(1, || {
        msr_chunk::split(&data, &policy)
            .into_iter()
            .map(|r| Digest::of(&data[r]))
            .collect()
    });
    let par: Vec<Digest> = with_threads(8, || {
        msr_chunk::split(&data, &policy)
            .into_iter()
            .map(|r| Digest::of(&data[r]))
            .collect()
    });
    assert_eq!(seq, par);
    assert!(seq.len() > 1);
    // Pack paths are stable hex names under the plane's prefix.
    assert!(pack_path(&seq[0]).starts_with("cas/pack-"));
}

#[test]
fn concurrent_fleets_on_distinct_resources_keep_independent_shards() {
    // Real OS threads ingesting to different resources through one shared
    // engine: the sharded plane must keep every resource's store,
    // manifests and deltas exactly as if each ran alone.
    const SESSIONS: usize = 4;
    const ITERS: u64 = 3;
    let engine = IoEngine::default();
    let d = dist(32 * 32 * 32, 1);
    let resources: Vec<SharedResource> = (0..SESSIONS)
        .map(|s| {
            share(LocalDisk::new(
                format!("shard{s}"),
                DiskParams::simple(100.0, 1 << 30),
                0,
            ))
        })
        .collect();
    std::thread::scope(|scope| {
        for (s, res) in resources.iter().enumerate() {
            let engine = &engine;
            let d = &d;
            scope.spawn(move || {
                for iter in 0..ITERS {
                    let data = churned(32 * 32 * 32, iter);
                    engine
                        .write_chunked(
                            res,
                            "d.ckpt",
                            &data,
                            d,
                            IoStrategy::Naive,
                            OpenMode::Create,
                            &cas_ingest(),
                            &format!("ds{s}"),
                        )
                        .unwrap();
                }
            });
        }
    });
    // Every shard saw exactly its own dumps...
    let plane = engine.chunk_plane();
    for s in 0..SESSIONS {
        let name = format!("shard{s}");
        assert_eq!(plane.manifest_count(&name), 1, "{name}: one live path");
        let stats = plane.store_stats(&name).expect("store exists");
        assert!(stats.inserts > 0 && stats.chunks > 0, "{name}: {stats:?}");
        // Overwrites dedup against the previous iteration on this shard.
        assert!(stats.hits > 0, "{name}: churn should dedup: {stats:?}");
    }
    // ...and the drain is sorted by resource name, one dataset each.
    let deltas = plane.take_deltas();
    assert_eq!(deltas.len(), SESSIONS * ITERS as usize);
    let names: Vec<&str> = deltas.iter().map(|t| t.dataset.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "shards drain in resource-name order");
    // Reads verify per shard after the storm.
    let last = churned(32 * 32 * 32, ITERS - 1);
    for (s, res) in resources.iter().enumerate() {
        let (back, _) = engine
            .read_chunked(res, "d.ckpt", &d, IoStrategy::Naive)
            .unwrap();
        assert_eq!(back, last, "shard{s} readback");
    }
}
