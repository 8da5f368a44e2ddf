//! The chunk plane: content-addressed, optionally compressed dumps.
//!
//! A dataset whose [`IngestSpec`] is active routes its dumps through this
//! module instead of the raw object path. The payload is split into
//! chunks ([`msr_chunk::ChunkPolicy`]), each chunk digested over its
//! *uncompressed* bytes and optionally compressed; the dump's object at
//! the dataset path becomes a [`Manifest`]. A dump is **at most two
//! objects**: the frames the destination's
//! refcounted [`ChunkStore`] does not already hold go, concatenated in
//! first-occurrence order, into one plane-owned pack `cas/pack-<id>`
//! (none when the dump is fully deduplicated), then the manifest is
//! written. Frames are shared across dumps through the store's
//! `digest → (pack, offset)` index — a dump only ships what is new, which
//! is where the WAN savings of checkpoint-every-N producers come from,
//! and it pays eq. (1)'s per-object open and close twice, not once per
//! chunk.
//!
//! # Cost model
//!
//! A chunked write gathers the global array to an aggregator (two-phase
//! exchange when `nprocs > 1`), charges one node-memory scan for the
//! chunk/digest/compress pass, then issues rank-0 sequential native calls
//! for the pack and the manifest. Reads mirror this: the manifest, then
//! per referenced pack one open, one seek + read per run of abutting
//! frames (no seek for a run at offset 0; nothing between runs is
//! transferred) and one close, a decompress scan, then the scatter
//! exchange. Native call order is fixed (dump order for writes, pack
//! first-occurrence then offset order for reads), so virtual times are
//! bitwise reproducible at any `MSR_THREADS`; host-side splitting,
//! compression and verification run on the work-stealing pool but their
//! results are order-collected.
//!
//! # Write order and faults
//!
//! Pack → manifest → index commit → release of the replaced dump. A
//! fault after the pack and before the manifest leaves an unreferenced
//! pack and nothing else: no manifest or index entry points at it, and
//! because the pack id is the digest of the manifest bytes, a retry of
//! the same dump recreates the same object name. New references are
//! committed before the replaced manifest's are released, so a chunk
//! shared between the old and new dump never hits refcount zero
//! mid-flight. Packs are reclaimed whole: one is deleted when its last
//! live frame dies. Packs share the `cas` volume, which holds no dataset,
//! so a tape never shelves one: vaulting a run's volume shelves its
//! manifests, and a dedup hit on their frames needs no recall.
//!
//! # Sharding and locking
//!
//! Plane state is sharded per resource: each storage resource owns an
//! independent `store + manifests + pending` shard behind its own mutex,
//! so producer fleets ingesting to *different* resources never contend
//! on plane bookkeeping (the shard map itself is touched only briefly,
//! under a read-mostly lock). A shard mutex nests strictly *inside* the
//! owning resource's lock: every path that takes both locks the resource
//! first. The write path's presence peek takes the shard lock alone.

use crate::engine::{memcpy_cost, subfile_path, IoEngine, IoReport, OpCx};
use crate::error::RuntimeError;
use crate::layout::Distribution;
use crate::strategy::{shuffle_cost, IoStrategy};
use crate::RuntimeResult;
use bytes::Bytes;
use msr_chunk::{
    compress, decompress_into, decompressed_len, pack_path, raw_span, split, ChunkError, ChunkRef,
    ChunkStore, DeltaSummary, Digest, IngestSpec, Manifest, StoreStats,
};
use msr_obs::{ops, Layer};
use msr_sim::SimDuration;
use msr_storage::{
    Cost, CostModel, Device, OpKind, OpenMode, Payload, SharedResource, StorageError,
};
use parking_lot::{Mutex, RwLock};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Global free lists of chunk-plane scratch: LZ compressors (match
/// tables up to 2 MiB each) for the write path and decompress buffers
/// for the read path. Any pool worker or caller thread may take one, so
/// the lists are shared rather than thread-local; takes and gives are
/// counted into the op's scratch telemetry by the callers.
mod chunk_scratch {
    use msr_chunk::Compressor;
    use parking_lot::Mutex;

    static COMPRESSORS: Mutex<Vec<Compressor>> = Mutex::new(Vec::new());
    static PLAIN: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
    /// Bound on pooled items, so a wide fleet doesn't pin memory forever.
    const MAX_POOLED: usize = 64;

    /// A compressor with a warm match table when one is pooled; `true`
    /// on reuse.
    pub fn take_compressor() -> (Compressor, bool) {
        match COMPRESSORS.lock().pop() {
            Some(c) => (c, true),
            None => (Compressor::new(), false),
        }
    }

    pub fn give_compressor(c: Compressor) {
        let mut pool = COMPRESSORS.lock();
        if pool.len() < MAX_POOLED {
            pool.push(c);
        }
    }

    /// A decompress target buffer (contents unspecified, cleared by
    /// `decompress_into`); `true` on reuse.
    pub fn take_plain() -> (Vec<u8>, bool) {
        match PLAIN.lock().pop() {
            Some(b) => (b, true),
            None => (Vec::new(), false),
        }
    }

    pub fn give_plain(b: Vec<u8>) {
        let mut pool = PLAIN.lock();
        if pool.len() < MAX_POOLED {
            pool.push(b);
        }
    }
}

/// What the plane remembers about one chunked dump.
#[derive(Debug, Clone)]
struct ManifestMeta {
    /// Chunk occurrences in dump order.
    chunks: Vec<ChunkRef>,
    /// Policy and codec the dump was written with.
    ingest: IngestSpec,
    /// Logical payload bytes.
    logical: u64,
}

/// One resource's slice of the plane: its chunk store, its registered
/// dumps (keyed by path — the resource is the shard key), and its
/// not-yet-drained transfer observations.
#[derive(Debug, Default)]
struct Shard {
    store: ChunkStore,
    manifests: HashMap<String, ManifestMeta>,
    pending: Vec<DeltaSummary>,
}

/// Shared state of the chunk plane. Engine clones share one plane (the
/// stores must be global per process — dedup across sessions is the
/// point), so this is an `Arc` handle over the per-resource shard map.
#[derive(Debug, Clone, Default)]
pub struct ChunkPlane {
    shards: Arc<RwLock<HashMap<String, Arc<Mutex<Shard>>>>>,
}

impl ChunkPlane {
    /// The shard for `resource`, created on first use.
    fn shard(&self, resource: &str) -> Arc<Mutex<Shard>> {
        if let Some(s) = self.shards.read().get(resource) {
            return Arc::clone(s);
        }
        Arc::clone(self.shards.write().entry(resource.to_owned()).or_default())
    }

    /// The shard for `resource` if any chunked dump ever touched it.
    fn shard_if(&self, resource: &str) -> Option<Arc<Mutex<Shard>>> {
        self.shards.read().get(resource).cloned()
    }

    /// Whether `(resource, path)` is a registered chunked dump.
    pub fn is_chunked(&self, resource: &str, path: &str) -> bool {
        self.shard_if(resource)
            .is_some_and(|s| s.lock().manifests.contains_key(path))
    }

    /// The ingest spec a registered dump was written with — what a
    /// migration uses to re-chunk faithfully at the destination.
    pub fn ingest_of(&self, resource: &str, path: &str) -> Option<IngestSpec> {
        let shard = self.shard_if(resource)?;
        let sh = shard.lock();
        sh.manifests.get(path).map(|m| m.ingest)
    }

    /// Logical payload bytes of a registered chunked dump (what a
    /// migration will move, regardless of the manifest's stored size).
    pub fn logical_of(&self, resource: &str, path: &str) -> Option<u64> {
        let shard = self.shard_if(resource)?;
        let sh = shard.lock();
        sh.manifests.get(path).map(|m| m.logical)
    }

    /// Aggregate chunk-store counters for one resource.
    pub fn store_stats(&self, resource: &str) -> Option<StoreStats> {
        self.shard_if(resource).map(|s| s.lock().store.stats())
    }

    /// Registered chunked dumps on one resource.
    pub fn manifest_count(&self, resource: &str) -> usize {
        self.shard_if(resource)
            .map_or(0, |s| s.lock().manifests.len())
    }

    /// Drain the transfer observations accumulated since the last drain.
    /// Shards drain in sorted resource-name order — a pure function of
    /// plane state, identical at any `MSR_THREADS` — and within a shard
    /// per-dataset order follows that resource's dispatch order; callers
    /// fold them into per-dataset state (cross-dataset interleave is not
    /// meaningful).
    pub fn take_deltas(&self) -> Vec<DeltaSummary> {
        let shards: Vec<Arc<Mutex<Shard>>> = {
            let map = self.shards.read();
            let mut named: Vec<(&String, &Arc<Mutex<Shard>>)> = map.iter().collect();
            named.sort_by_key(|(name, _)| *name);
            named.into_iter().map(|(_, s)| Arc::clone(s)).collect()
        };
        let mut out = Vec::new();
        for s in shards {
            out.append(&mut s.lock().pending);
        }
        out
    }
}

/// One planned chunk of an outgoing dump.
struct Planned {
    digest: Digest,
    /// Frame under the *requested* codec. `None` when the plan saw no
    /// need to ship the chunk — the store held it at the peek, or it
    /// repeats an earlier chunk of the same dump — and so never
    /// compressed it.
    frame: Option<Vec<u8>>,
}

/// The host-side plan of one dump: boundaries, digests and the frames
/// worth compressing. A pure function of content (and, for which frames
/// exist, of the peeked store), collected in order, so the objects
/// written from it are identical at any thread count.
struct DumpPlan<'a> {
    data: &'a [u8],
    ranges: Vec<Range<usize>>,
    chunks: Vec<Planned>,
    /// Compression scratch taken from / returned to the worker pool.
    scratch_allocs: usize,
    scratch_reuses: usize,
}

impl<'a> DumpPlan<'a> {
    /// Plan in two parallel passes: split + digest, then compress only
    /// what ships: the first occurrence of each chunk the `peek` shard's
    /// store does not hold right now. The shard lock is taken alone, never
    /// under a resource lock.
    fn new(data: &'a [u8], ingest: &IngestSpec, peek: &Mutex<Shard>) -> DumpPlan<'a> {
        let ranges = split(data, &ingest.policy);
        let digests: Vec<Digest> = ranges
            .par_iter()
            .map(|r| Digest::of(&data[r.clone()]))
            .collect();
        let ships: Vec<bool> = {
            let sh = peek.lock();
            let mut seen: HashSet<Digest> = HashSet::with_capacity(digests.len());
            digests
                .iter()
                .map(|d| seen.insert(*d) && !sh.store.contains(d))
                .collect()
        };
        let scratch_allocs = AtomicUsize::new(0);
        let scratch_reuses = AtomicUsize::new(0);
        let chunks: Vec<Planned> = (0..ranges.len())
            .into_par_iter()
            .map(|i| {
                let chunk = &data[ranges[i].clone()];
                let frame = ships[i].then(|| {
                    if !ingest.codec.is_active() {
                        // `Codec::None` needs no match table: skip the pool.
                        return compress(&ingest.codec, chunk);
                    }
                    let (mut comp, reused) = chunk_scratch::take_compressor();
                    if reused {
                        scratch_reuses.fetch_add(1, Ordering::Relaxed);
                    } else {
                        scratch_allocs.fetch_add(1, Ordering::Relaxed);
                    }
                    let frame = comp.compress(&ingest.codec, chunk);
                    chunk_scratch::give_compressor(comp);
                    frame
                });
                Planned {
                    digest: digests[i],
                    frame,
                }
            })
            .collect();
        DumpPlan {
            data,
            ranges,
            chunks,
            scratch_allocs: scratch_allocs.into_inner(),
            scratch_reuses: scratch_reuses.into_inner(),
        }
    }
}

/// One verified chunk on the read path: a zero-copy slice of the frame
/// buffer when the frame was raw, a pooled decompress buffer otherwise.
enum Plain {
    Shared(Bytes),
    Pooled(Vec<u8>),
}

impl Plain {
    fn bytes(&self) -> &[u8] {
        match self {
            Plain::Shared(b) => b,
            Plain::Pooled(v) => v,
        }
    }
}

impl IoEngine {
    /// The shared chunk plane.
    pub fn chunk_plane(&self) -> &ChunkPlane {
        &self.plane
    }

    /// Write the global array `data` as a *chunked* dump at `path`. Falls
    /// back to the raw [`IoEngine::write`] path when `ingest` is inactive,
    /// so callers can route unconditionally. `dataset` labels the transfer
    /// observation the predictor's ratio book learns from.
    #[allow(clippy::too_many_arguments)]
    pub fn write_chunked(
        &self,
        res: &SharedResource,
        path: &str,
        data: &[u8],
        dist: &Distribution,
        strategy: IoStrategy,
        mode: OpenMode,
        ingest: &IngestSpec,
        dataset: &str,
    ) -> RuntimeResult<IoReport> {
        if !ingest.is_active() {
            return self.write(res, path, data, dist, strategy, mode);
        }
        if data.len() as u64 != dist.total_bytes() {
            return Err(RuntimeError::SizeMismatch {
                expected: dist.total_bytes(),
                got: data.len() as u64,
            });
        }
        if !mode.writable() {
            return Err(RuntimeError::Storage(StorageError::BadMode { op: "write" }));
        }
        let peek = {
            let resource = res.lock().name().to_owned();
            self.plane.shard(&resource)
        };
        let plan = DumpPlan::new(data, ingest, &peek);
        self.write_planned(res, path, plan, dist, strategy, ingest, dataset)
    }

    /// The storage half of [`IoEngine::write_chunked`]: ship `plan` under
    /// the resource lock. Presence is decided again here, against the
    /// locked shard; a chunk the plan skipped that has left the store
    /// since the peek is compressed under the lock (rare, and the frame
    /// is the one the plan would have made).
    #[allow(clippy::too_many_arguments)]
    fn write_planned(
        &self,
        res: &SharedResource,
        path: &str,
        mut plan: DumpPlan<'_>,
        dist: &Distribution,
        strategy: IoStrategy,
        ingest: &IngestSpec,
        dataset: &str,
    ) -> RuntimeResult<IoReport> {
        let total = plan.data.len() as u64;
        let nprocs = dist.nprocs();

        let mut r = res.lock();
        let mut cx = OpCx::new(nprocs, &*r);
        cx.note_scratch_many(plan.scratch_allocs, plan.scratch_reuses);
        r.set_stream_hint(1);

        // Gather the distributed array to the aggregator, then one
        // node-memory scan for the chunk/digest/compress pass.
        if nprocs > 1 {
            let shuffle = shuffle_cost(total, nprocs);
            for p in 0..nprocs {
                cx.tl.charge(p, shuffle);
            }
            cx.tl.barrier();
        }
        cx.tl.charge(0, memcpy_cost(total));

        let resource = r.name().to_owned();
        let shard = self.plane.shard(&resource);
        let (moved, shipped, dead_packs);
        {
            let mut sh = shard.lock();
            let sh = &mut *sh;

            // Manifest entries, and the frames that ship — concatenated
            // into one object, the pack of new frames in first-occurrence
            // order.
            let mut chunks: Vec<ChunkRef> = Vec::with_capacity(plan.chunks.len());
            let mut frames: Vec<Vec<u8>> = Vec::new();
            // Stored length of each chunk this dump's pack adds, for the
            // entries that repeat it.
            let mut fresh: HashMap<Digest, u32> = HashMap::new();
            for (c, range) in plan.chunks.iter_mut().zip(&plan.ranges) {
                let ulen = range.len() as u32;
                // A dedup hit keeps the sizes of the frame actually on
                // storage, whatever codec first wrote it.
                let held = sh
                    .store
                    .locate(&c.digest)
                    .map(|l| (l.ulen, l.clen))
                    .or_else(|| fresh.get(&c.digest).map(|&clen| (ulen, clen)));
                let (ulen, clen) = held.unwrap_or_else(|| {
                    let frame = c
                        .frame
                        .take()
                        .unwrap_or_else(|| compress(&ingest.codec, &plan.data[range.clone()]));
                    let clen = frame.len() as u32;
                    frames.push(frame);
                    fresh.insert(c.digest, clen);
                    (ulen, clen)
                });
                chunks.push(ChunkRef {
                    digest: c.digest,
                    ulen,
                    clen,
                    packed: held.is_none(),
                });
            }
            shipped = frames.len();
            let manifest = Manifest {
                policy: ingest.policy,
                codec: ingest.codec,
                logical: total,
                chunks,
            };
            let object = manifest.encode();
            // The dump's pack id: a pure function of its manifest.
            let pack = Digest::of(&object);
            // Both objects are handed to the resource, which may keep
            // them: each is built at its final size.
            let frames = frames.concat();
            let pack_bytes = frames.len();
            if pack_bytes > 0 {
                let pack_path = pack_path(&pack);
                self.write_object(&mut cx, &mut *r, &pack_path, frames.into())?;
                r.set_logical_size(&pack_path, 0);
            }
            moved = (object.len() + pack_bytes) as u64;
            self.write_object(&mut cx, &mut *r, path, object.into())?;
            r.set_logical_size(path, total);

            // Commit the new references, then release the replaced
            // dump's — shared chunks never hit zero in between.
            sh.store.commit(&manifest.chunks, pack);
            let old = sh.manifests.insert(
                path.to_owned(),
                ManifestMeta {
                    chunks: manifest.chunks,
                    ingest: *ingest,
                    logical: total,
                },
            );
            dead_packs = old
                .map(|old| sh.store.release_all(&old.chunks))
                .unwrap_or_default();
            sh.pending.push(DeltaSummary {
                dataset: dataset.to_owned(),
                logical_bytes: total,
                moved_bytes: moved,
                chunks_total: plan.chunks.len(),
                chunks_shipped: shipped,
                objects_written: 1 + usize::from(pack_bytes > 0),
            });
        }
        let hits = plan.chunks.len() - shipped;
        // Delete packs the overwrite left without a live frame. A failed
        // delete leaks the pack but must not fail the (already committed)
        // write.
        for id in &dead_packs {
            if let Ok(cost) = r.delete(&pack_path(id)) {
                cx.tl.charge(0, cost.time);
            }
        }

        let report = cx.report(strategy, total, &*r);
        self.record_strategy(r.name(), OpKind::Write, &report);
        self.record_scratch(&resource, &cx);
        if self.recorder.enabled() {
            let now = self.clock.now();
            if hits > 0 {
                self.recorder
                    .count(Layer::Runtime, &resource, ops::CHUNK_HIT, now, hits as f64);
            }
            if shipped > 0 {
                self.recorder.count(
                    Layer::Runtime,
                    &resource,
                    ops::CHUNK_SHIP,
                    now,
                    shipped as f64,
                );
            }
            if moved < total {
                self.recorder.count(
                    Layer::Runtime,
                    &resource,
                    ops::CHUNK_SAVED_BYTES,
                    now,
                    (total - moved) as f64,
                );
            }
            if !dead_packs.is_empty() {
                self.recorder.count(
                    Layer::Runtime,
                    &resource,
                    ops::CHUNK_GC,
                    now,
                    dead_packs.len() as f64,
                );
            }
        }
        Ok(report)
    }

    /// Read a chunked dump back into the assembled global array. Every
    /// frame is digest-verified against its manifest entry; a mismatch
    /// surfaces as [`RuntimeError::Chunk`]. Raw frames (the `Codec::None`
    /// path and the incompressible fallback) verify against a zero-copy
    /// slice of the frame buffer; compressed frames decompress into
    /// pooled per-worker scratch.
    pub fn read_chunked(
        &self,
        res: &SharedResource,
        path: &str,
        dist: &Distribution,
        strategy: IoStrategy,
    ) -> RuntimeResult<(Vec<u8>, IoReport)> {
        let nprocs = dist.nprocs();
        let mut r = res.lock();
        let mut cx = OpCx::new(nprocs, &*r);
        r.set_stream_hint(1);

        let chunk_err = |source: ChunkError| RuntimeError::Chunk {
            path: path.to_owned(),
            source,
        };
        let obj = self.read_object(&mut cx, &mut *r, path)?;
        let manifest = Manifest::decode(&obj).map_err(chunk_err)?;
        if manifest.logical != dist.total_bytes() {
            return Err(RuntimeError::SizeMismatch {
                expected: dist.total_bytes(),
                got: manifest.logical,
            });
        }

        // Fetch each distinct frame once, as a zero-copy slice of the run
        // read out of its pack. The index says where every frame lives and
        // refuses a manifest that disagrees with it; nothing is sliced
        // before the pack and each run proved to be the length it recorded.
        let mut frames: HashMap<Digest, Bytes> = HashMap::with_capacity(manifest.chunks.len());
        let own_pack = Digest::of(&obj);
        let shard = self.plane.shard_if(r.name()).unwrap_or_default();
        let plan = shard.lock().store.read_plan(&manifest, &own_pack);
        for pack in plan.map_err(chunk_err)? {
            let pack_path = pack_path(&pack.pack);
            let bad_pack = |what: String| {
                chunk_err(ChunkError::BadPack {
                    detail: format!("{pack_path} {what}"),
                })
            };
            match r.file_size(&pack_path) {
                Some(len) if len == pack.bytes => {}
                Some(len) => {
                    return Err(bad_pack(format!(
                        "is {len} B, the index recorded {}",
                        pack.bytes
                    )))
                }
                None => return Err(RuntimeError::Storage(StorageError::NotFound(pack_path))),
            }
            let open = self.retried(&mut cx, 0, &mut *r, |r| r.open(&pack_path, OpenMode::Read))?;
            cx.tl.charge(0, open.time);
            for run in pack.runs {
                // The cursor of a fresh handle is already at 0.
                if run.offset != 0 {
                    let sk =
                        self.retried(&mut cx, 0, &mut *r, |r| r.seek(open.value, run.offset))?;
                    cx.tl.charge(0, sk.time);
                }
                let read = self.retried(&mut cx, 0, &mut *r, |r| r.read(open.value, run.len))?;
                cx.tl.charge(0, read.time);
                if read.value.len() != run.len {
                    return Err(bad_pack(format!(
                        "returned {} of the {} B at offset {}",
                        read.value.len(),
                        run.len,
                        run.offset
                    )));
                }
                for (digest, range) in run.frames {
                    frames.insert(digest, read.value.slice(range));
                }
            }
            let cl = self.retried(&mut cx, 0, &mut *r, |r| r.close(open.value))?;
            cx.tl.charge(0, cl.time);
        }

        // Decompress and verify on the pool; results collect in dump
        // order. One node-memory scan is charged for the pass.
        let scratch_allocs = AtomicUsize::new(0);
        let scratch_reuses = AtomicUsize::new(0);
        let plains: Vec<Result<Plain, ChunkError>> = manifest
            .chunks
            .par_iter()
            .enumerate()
            .map(|(i, c)| {
                let frame = &frames[&c.digest];
                let declared = decompressed_len(frame)?;
                if declared != c.ulen as usize {
                    return Err(ChunkError::BadFrame {
                        detail: format!(
                            "chunk {i}: frame declares {declared} B, the manifest {} B",
                            c.ulen
                        ),
                    });
                }
                let plain = match raw_span(frame)? {
                    Some(span) => Plain::Shared(frame.slice(span)),
                    None => {
                        let (mut buf, reused) = chunk_scratch::take_plain();
                        if reused {
                            scratch_reuses.fetch_add(1, Ordering::Relaxed);
                        } else {
                            scratch_allocs.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Err(e) = decompress_into(frame, &mut buf) {
                            chunk_scratch::give_plain(buf);
                            return Err(e);
                        }
                        Plain::Pooled(buf)
                    }
                };
                let got = Digest::of(plain.bytes());
                if got != c.digest {
                    return Err(ChunkError::DigestMismatch {
                        chunk: i,
                        expected: c.digest,
                        got,
                    });
                }
                Ok(plain)
            })
            .collect();
        cx.note_scratch_many(scratch_allocs.into_inner(), scratch_reuses.into_inner());
        let mut out = Vec::with_capacity(manifest.logical as usize);
        for p in plains {
            match p.map_err(chunk_err)? {
                Plain::Shared(b) => out.extend_from_slice(&b),
                Plain::Pooled(v) => {
                    out.extend_from_slice(&v);
                    chunk_scratch::give_plain(v);
                }
            }
        }
        if out.len() as u64 != manifest.logical {
            return Err(chunk_err(ChunkError::BadManifest {
                detail: format!(
                    "frames decompress to {} B, manifest declares {}",
                    out.len(),
                    manifest.logical
                ),
            }));
        }
        cx.tl.charge(0, memcpy_cost(manifest.logical));
        if nprocs > 1 {
            let shuffle = shuffle_cost(manifest.logical, nprocs);
            cx.tl.barrier();
            for p in 0..nprocs {
                cx.tl.charge(p, shuffle);
            }
        }

        let report = cx.report(strategy, manifest.logical, &*r);
        self.record_strategy(r.name(), OpKind::Read, &report);
        self.record_scratch(r.name(), &cx);
        Ok((out, report))
    }

    /// Read `path` whichever way it was written: through the chunk plane
    /// when a manifest is registered for it, with [`IoStrategy::Subfile`]
    /// when it is laid out in subfiles (whatever `strategy` asks), raw
    /// with `strategy` otherwise. A raw collective read returns the object
    /// as the resource keeps it ([`Device::read_shared`]), so a
    /// caller that writes it on copies a recipe as a recipe.
    pub fn read_auto(
        &self,
        res: &SharedResource,
        path: &str,
        dist: &Distribution,
        strategy: IoStrategy,
    ) -> RuntimeResult<(Payload, IoReport)> {
        let (chunked, subfiles) = {
            let r = res.lock();
            let subfiles = !r.exists(path) && r.exists(&subfile_path(path, 0));
            (self.plane.is_chunked(r.name(), path), subfiles)
        };
        if chunked {
            let (data, report) = self.read_chunked(res, path, dist, strategy)?;
            Ok((data.into(), report))
        } else if subfiles {
            self.read_raw(res, path, dist, IoStrategy::Subfile)
        } else {
            self.read_raw(res, path, dist, strategy)
        }
    }

    /// Delete a dump, raw or chunked. A raw dump's stored objects go one
    /// at a time; for a chunked dump the manifest object goes first, then
    /// its chunk references are released and any pack left without a live
    /// frame is deleted. Returns the accumulated native-call time.
    pub fn delete_dump(&self, res: &SharedResource, path: &str) -> RuntimeResult<Cost<()>> {
        let mut r = res.lock();
        let resource = r.name().to_owned();
        let Some(shard) = self.plane.shard_if(&resource) else {
            return self.each_object(&mut *r, path, |r, o| r.delete(o));
        };
        let mut sh = shard.lock();
        let Some(meta) = sh.manifests.remove(path) else {
            return self.each_object(&mut *r, path, |r, o| r.delete(o));
        };
        let mut time = SimDuration::ZERO;
        // Manifest delete failures propagate *before* bookkeeping is
        // touched (the registration is restored for the retry). A missing
        // file still clears the registration (failover may have scattered
        // dumps).
        match r.delete(path) {
            Ok(cost) => time += cost.time,
            Err(StorageError::NotFound(_)) => {}
            Err(e) => {
                sh.manifests.insert(path.to_owned(), meta);
                return Err(RuntimeError::Storage(e));
            }
        }
        let dead_packs = sh.store.release_all(&meta.chunks);
        drop(sh);
        for id in &dead_packs {
            if let Ok(cost) = r.delete(&pack_path(id)) {
                time += cost.time;
            }
        }
        if self.recorder.enabled() && !dead_packs.is_empty() {
            self.recorder.count(
                Layer::Runtime,
                &resource,
                ops::CHUNK_GC,
                self.clock.now(),
                dead_packs.len() as f64,
            );
        }
        Ok(Cost::new(time, ()))
    }

    /// `call` on each stored object of the raw dump at `path`, last first,
    /// so a failure part-way leaves objects [`IoEngine::dump_objects`]
    /// still finds. A dump with no objects here is `path` itself, so the
    /// resource says why (offline, not found).
    fn each_object(
        &self,
        r: &mut Device<dyn CostModel>,
        path: &str,
        call: impl Fn(&mut Device<dyn CostModel>, &str) -> Result<Cost<()>, StorageError>,
    ) -> RuntimeResult<Cost<()>> {
        let mut objects = self.dump_objects(r, path);
        if objects.is_empty() {
            objects.push(path.to_owned());
        }
        let mut time = SimDuration::ZERO;
        for object in objects.iter().rev() {
            time += call(r, object)?.time;
        }
        Ok(Cost::new(time, ()))
    }

    /// One whole object via native open/write/close on the aggregator.
    fn write_object(
        &self,
        cx: &mut OpCx,
        r: &mut Device<dyn CostModel>,
        path: &str,
        bytes: Bytes,
    ) -> RuntimeResult<()> {
        let open = self.retried(cx, 0, r, |r| r.open(path, OpenMode::Create))?;
        cx.tl.charge(0, open.time);
        let w = self.retried(cx, 0, r, |r| {
            r.write_shared(open.value, bytes.clone().into())
        })?;
        cx.tl.charge(0, w.time);
        let cl = self.retried(cx, 0, r, |r| r.close(open.value))?;
        cx.tl.charge(0, cl.time);
        Ok(())
    }

    /// One whole object via native open/read/close on the aggregator.
    /// Returns the shared buffer as-is: callers slice it zero-copy.
    fn read_object(
        &self,
        cx: &mut OpCx,
        r: &mut Device<dyn CostModel>,
        path: &str,
    ) -> RuntimeResult<Bytes> {
        let len = r
            .file_size(path)
            .ok_or_else(|| RuntimeError::Storage(StorageError::NotFound(path.to_owned())))?;
        let open = self.retried(cx, 0, r, |r| r.open(path, OpenMode::Read))?;
        cx.tl.charge(0, open.time);
        let read = self.retried(cx, 0, r, |r| r.read(open.value, len as usize))?;
        cx.tl.charge(0, read.time);
        let cl = self.retried(cx, 0, r, |r| r.close(open.value))?;
        cx.tl.charge(0, cl.time);
        Ok(read.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Dims3, Pattern, ProcGrid};
    use msr_chunk::{ChunkPolicy, Codec};
    use msr_storage::{share, DiskParams, LocalDisk};
    use std::collections::BTreeMap;

    const SIDE: u64 = 32;
    const BYTES: usize = (SIDE * SIDE * SIDE) as usize;

    fn disk() -> SharedResource {
        share(LocalDisk::new("t", DiskParams::simple(100.0, 1 << 30), 0))
    }

    fn dist() -> Distribution {
        Distribution::new(Dims3::cube(SIDE), 1, Pattern::bbb(), ProcGrid::new(1, 1, 1)).unwrap()
    }

    fn ingest() -> IngestSpec {
        IngestSpec::chunked(ChunkPolicy::fixed(4)).with_codec(Codec::Lz4Like(2))
    }

    /// Eight 4 KiB blocks, each compressible and distinct, except that
    /// block 5 repeats block 1; `iter` rewrites block `iter % 8`.
    fn churned(iter: u64) -> Vec<u8> {
        let block = |tag: u64| -> Vec<u8> {
            (0..4096u64)
                .map(|i| ((i % 97) * (tag + 3) % 251) as u8)
                .collect()
        };
        let mut out = Vec::with_capacity(BYTES);
        for b in 0..8u64 {
            out.extend(block(if b == 5 { 1 } else { b }));
        }
        if iter > 0 {
            let at = (iter % 8) as usize * 4096;
            out[at..at + 4096].copy_from_slice(&block(100 + iter));
        }
        out
    }

    fn write(engine: &IoEngine, res: &SharedResource, path: &str, data: &[u8]) -> IoReport {
        engine
            .write_chunked(
                res,
                path,
                data,
                &dist(),
                IoStrategy::Collective,
                OpenMode::Create,
                &ingest(),
                "d",
            )
            .unwrap()
    }

    /// Every object on `res`, by path.
    fn objects(res: &SharedResource) -> BTreeMap<String, Vec<u8>> {
        let mut r = res.lock();
        let mut out = BTreeMap::new();
        for path in r.list("") {
            let len = r.file_size(&path).unwrap() as usize;
            let h = r.open(&path, OpenMode::Read).unwrap().value;
            out.insert(path, r.read(h, len).unwrap().value.to_vec());
            r.close(h).unwrap();
        }
        out
    }

    /// The one-pass plan this module used to run: compress *every* chunk
    /// of every dump, then keep the frames a store that saw the earlier
    /// dumps lacks. Returns the objects it would leave on storage.
    fn one_pass(dumps: &[(&str, Vec<u8>)]) -> BTreeMap<String, Vec<u8>> {
        let spec = ingest();
        let mut held: HashMap<Digest, u32> = HashMap::new();
        let mut out = BTreeMap::new();
        for (path, data) in dumps {
            let mut chunks = Vec::new();
            let mut pack = Vec::new();
            for range in split(data, &spec.policy) {
                let chunk = &data[range];
                let frame = compress(&spec.codec, chunk);
                let digest = Digest::of(chunk);
                let packed = !held.contains_key(&digest);
                let clen = *held.entry(digest).or_insert(frame.len() as u32);
                if packed {
                    pack.extend_from_slice(&frame);
                }
                chunks.push(ChunkRef {
                    digest,
                    ulen: chunk.len() as u32,
                    clen,
                    packed,
                });
            }
            let manifest = Manifest {
                policy: spec.policy,
                codec: spec.codec,
                logical: data.len() as u64,
                chunks,
            }
            .encode();
            if !pack.is_empty() {
                out.insert(pack_path(&Digest::of(&manifest)), pack);
            }
            out.insert((*path).to_owned(), manifest);
        }
        out
    }

    #[test]
    fn two_pass_plan_writes_what_the_one_pass_plan_would() {
        let engine = IoEngine::default();
        let res = disk();
        // A base, two churned dumps, and a byte-identical re-dump.
        let dumps = [
            ("d.t0", churned(0)),
            ("d.t1", churned(1)),
            ("d.t2", churned(2)),
            ("d.t3", churned(2)),
        ];
        let mut reports = Vec::new();
        for (path, data) in &dumps {
            reports.push(write(&engine, &res, path, data));
        }
        let stored = objects(&res);
        assert_eq!(stored, one_pass(&dumps), "frames, manifests and packs");
        assert_eq!(stored.len(), 4 + 3, "the re-dump wrote no pack");

        // The re-dump compressed nothing and still pays the whole
        // chunk/digest scan: its time is the scan plus one manifest put,
        // replayed here call for call on a twin disk.
        let twin = disk();
        let mut t = twin.lock();
        let open = t.open("d.t3", OpenMode::Create).unwrap();
        let put = t.write(open.value, &stored["d.t3"]).unwrap();
        let close = t.close(open.value).unwrap();
        assert_eq!(
            reports[3].elapsed,
            memcpy_cost(BYTES as u64) + open.time + put.time + close.time
        );
    }

    #[test]
    fn a_chunk_gone_since_the_peek_is_compressed_under_the_lock() {
        let engine = IoEngine::default();
        let res = disk();
        let data = churned(3);
        write(&engine, &res, "d.t0", &data);
        // Plan against a store that holds every chunk: nothing is
        // compressed...
        let shard = engine.plane.shard("t");
        let plan = DumpPlan::new(&data, &ingest(), &shard);
        assert!(plan.chunks.iter().all(|c| c.frame.is_none()));
        // ...then the chunks leave before the plan is shipped.
        engine.delete_dump(&res, "d.t0").unwrap();
        assert!(objects(&res).is_empty());
        engine
            .write_planned(
                &res,
                "d.t1",
                plan,
                &dist(),
                IoStrategy::Collective,
                &ingest(),
                "d",
            )
            .unwrap();
        assert_eq!(objects(&res), one_pass(&[("d.t1", data.clone())]));
        let (back, _) = engine
            .read_chunked(&res, "d.t1", &dist(), IoStrategy::Collective)
            .unwrap();
        assert_eq!(back, data);
    }
}
