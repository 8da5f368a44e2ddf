//! The chunk plane: content-addressed, optionally compressed dumps.
//!
//! A dataset whose [`IngestSpec`] is active routes its dumps through this
//! module instead of the raw object path. The payload is split into
//! chunks ([`msr_chunk::ChunkPolicy`]), each chunk digested over its
//! *uncompressed* bytes and optionally compressed; the dump's object at
//! the dataset path becomes a [`Manifest`]. In content-addressed mode the
//! frames live in per-resource `cas/<digest>` objects shared across
//! dumps, tracked by a refcounted [`ChunkStore`] — a dump only ships the
//! chunks its destination does not already hold, which is where the WAN
//! savings of checkpoint-every-N producers come from. In pack mode
//! (`content_addressed: false`) the frames follow the manifest header in
//! one self-contained object: compression without dedup.
//!
//! # Cost model
//!
//! A chunked write gathers the global array to an aggregator (two-phase
//! exchange when `nprocs > 1`), charges one node-memory scan for the
//! chunk/digest/compress pass, then issues rank-0 sequential native calls
//! for every *absent* chunk frame and the manifest. Reads mirror this:
//! native reads for the manifest and each referenced frame, a decompress
//! scan, then the scatter exchange. Native call order is fixed (dump
//! order), so virtual times are bitwise reproducible at any
//! `MSR_THREADS`; host-side splitting, compression and verification run
//! on the work-stealing pool but their results are order-collected.
//!
//! # Sharding and locking
//!
//! Plane state is sharded per resource: each storage resource owns an
//! independent `store + manifests + pending` shard behind its own mutex,
//! so producer fleets ingesting to *different* resources never contend
//! on plane bookkeeping (the shard map itself is touched only briefly,
//! under a read-mostly lock). A shard mutex nests strictly *inside* the
//! owning resource's lock: every path that takes both locks the resource
//! first. On overwrite, new chunk references are committed before the
//! replaced manifest's references are released, so a chunk shared
//! between the old and new dump never hits refcount zero mid-flight.

use crate::engine::{memcpy_cost, IoEngine, IoReport, OpCx, StatsDelta};
use crate::error::RuntimeError;
use crate::layout::Distribution;
use crate::strategy::IoStrategy;
use crate::RuntimeResult;
use bytes::Bytes;
use msr_chunk::{
    cas_path, compress, decompress_into, raw_span, split, ChunkError, ChunkPolicy, ChunkRef,
    ChunkStore, Codec, DeltaSummary, Digest, IngestSpec, Manifest, StoreStats,
};
use msr_obs::{ops, Layer};
use msr_sim::SimDuration;
use msr_storage::{Cost, OpenMode, SharedResource, StorageError, StorageResource};
use parking_lot::{Mutex, RwLock};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Global free lists of chunk-plane scratch: LZ compressors (match
/// tables up to 2 MiB each) for the write path and decompress buffers
/// for the read path. Pool workers are scoped per parallel region, so
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
    /// Policy that produced the boundaries.
    policy: ChunkPolicy,
    /// Codec the dump was written with.
    codec: Codec,
    /// Logical payload bytes.
    logical: u64,
    /// Pack mode: frames inline in the manifest object, no store refs.
    inline: bool,
    /// The dump is in the tape vault (its store references are counted in
    /// the vaulted population).
    vaulted: bool,
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
        let m = sh.manifests.get(path)?;
        Some(IngestSpec {
            policy: m.policy,
            codec: m.codec,
            content_addressed: !m.inline,
        })
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
    ulen: u32,
    /// Compressed frame under the *requested* codec.
    frame: Vec<u8>,
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
        // Host-side planning: boundaries, digests and frames are pure
        // functions of content, so the parallel map collects in order and
        // the plan is identical at any thread count. Compression scratch
        // comes from the worker pool; its alloc/reuse totals fold into
        // the op's scratch telemetry after the region.
        let scratch_allocs = AtomicUsize::new(0);
        let scratch_reuses = AtomicUsize::new(0);
        let ranges = split(data, &ingest.policy);
        let planned: Vec<Planned> = ranges
            .into_par_iter()
            .map(|r| {
                let chunk = &data[r];
                let frame = if ingest.codec.is_active() {
                    let (mut comp, reused) = chunk_scratch::take_compressor();
                    if reused {
                        scratch_reuses.fetch_add(1, Ordering::Relaxed);
                    } else {
                        scratch_allocs.fetch_add(1, Ordering::Relaxed);
                    }
                    let frame = comp.compress(&ingest.codec, chunk);
                    chunk_scratch::give_compressor(comp);
                    frame
                } else {
                    // `Codec::None` needs no match table: skip the pool.
                    compress(&ingest.codec, chunk)
                };
                Planned {
                    digest: Digest::of(chunk),
                    ulen: chunk.len() as u32,
                    frame,
                }
            })
            .collect();
        let total = data.len() as u64;
        let nprocs = dist.nprocs();

        let mut r = res.lock();
        let delta = StatsDelta::start(&*r);
        let mut cx = OpCx::new(nprocs);
        cx.note_scratch_many(scratch_allocs.into_inner(), scratch_reuses.into_inner());
        r.set_stream_hint(1);

        // Gather the distributed array to the aggregator, then one
        // node-memory scan for the chunk/digest/compress pass.
        if nprocs > 1 {
            let shuffle = self.exchange.shuffle_cost(total, nprocs);
            for p in 0..nprocs {
                cx.tl.charge(p, shuffle);
            }
            cx.tl.barrier();
        }
        cx.tl.charge(0, memcpy_cost(total));

        let resource = r.name().to_owned();
        let shard = self.plane.shard(&resource);
        let (moved, shipped, hits, gc_deletes);
        let manifest_bytes;
        {
            let mut sh = shard.lock();
            let sh = &mut *sh;

            if ingest.content_addressed {
                // Ship each distinct absent chunk once, in dump order.
                let mut seen: HashSet<Digest> = HashSet::with_capacity(planned.len());
                let mut to_ship: Vec<&Planned> = Vec::new();
                for c in &planned {
                    if seen.insert(c.digest) && !sh.store.contains(&c.digest) {
                        to_ship.push(c);
                    }
                }
                let mut moved_now = 0u64;
                for c in &to_ship {
                    let cas = cas_path(&c.digest);
                    let open =
                        self.retried(&mut cx, 0, &mut *r, |r| r.open(&cas, OpenMode::Create))?;
                    cx.tl.charge(0, open.time);
                    let w = self.retried(&mut cx, 0, &mut *r, |r| r.write(open.value, &c.frame))?;
                    cx.tl.charge(0, w.time);
                    let cl = self.retried(&mut cx, 0, &mut *r, |r| r.close(open.value))?;
                    cx.tl.charge(0, cl.time);
                    r.set_logical_size(&cas, 0);
                    moved_now += c.frame.len() as u64;
                }
                // Manifest entries use the sizes of the frames actually on
                // storage: a dedup hit keeps the codec it was first
                // written with.
                let chunks: Vec<ChunkRef> = planned
                    .iter()
                    .map(|c| {
                        let (ulen, clen) = sh
                            .store
                            .sizes(&c.digest)
                            .unwrap_or((c.ulen, c.frame.len() as u32));
                        ChunkRef {
                            digest: c.digest,
                            ulen,
                            clen,
                        }
                    })
                    .collect();
                let manifest = Manifest {
                    policy: ingest.policy,
                    codec: ingest.codec,
                    logical: total,
                    chunks: chunks.clone(),
                    inline: false,
                };
                manifest_bytes = manifest.encode();
                let open = self.retried(&mut cx, 0, &mut *r, |r| r.open(path, OpenMode::Create))?;
                cx.tl.charge(0, open.time);
                let w = self.retried(&mut cx, 0, &mut *r, |r| {
                    r.write(open.value, &manifest_bytes)
                })?;
                cx.tl.charge(0, w.time);
                let cl = self.retried(&mut cx, 0, &mut *r, |r| r.close(open.value))?;
                cx.tl.charge(0, cl.time);
                r.set_logical_size(path, total);

                // Commit the new references, then release the replaced
                // dump's — shared chunks never hit zero in between.
                for c in &chunks {
                    sh.store.acquire(c.digest, c.ulen, c.clen);
                }
                let old = sh.manifests.insert(
                    path.to_owned(),
                    ManifestMeta {
                        chunks,
                        policy: ingest.policy,
                        codec: ingest.codec,
                        logical: total,
                        inline: false,
                        vaulted: false,
                    },
                );
                gc_deletes = match &old {
                    Some(old) if !old.inline => sh.store.release_all(&old.chunks, old.vaulted),
                    _ => Vec::new(),
                };
                shipped = to_ship.len();
                hits = planned.len() - shipped;
                moved = moved_now + manifest_bytes.len() as u64;
            } else {
                // Pack mode: manifest header + every frame in one object.
                let chunks: Vec<ChunkRef> = planned
                    .iter()
                    .map(|c| ChunkRef {
                        digest: c.digest,
                        ulen: c.ulen,
                        clen: c.frame.len() as u32,
                    })
                    .collect();
                let manifest = Manifest {
                    policy: ingest.policy,
                    codec: ingest.codec,
                    logical: total,
                    chunks: chunks.clone(),
                    inline: true,
                };
                let mut obj = manifest.encode();
                for c in &planned {
                    obj.extend_from_slice(&c.frame);
                }
                manifest_bytes = obj;
                let open = self.retried(&mut cx, 0, &mut *r, |r| r.open(path, OpenMode::Create))?;
                cx.tl.charge(0, open.time);
                let w = self.retried(&mut cx, 0, &mut *r, |r| {
                    r.write(open.value, &manifest_bytes)
                })?;
                cx.tl.charge(0, w.time);
                let cl = self.retried(&mut cx, 0, &mut *r, |r| r.close(open.value))?;
                cx.tl.charge(0, cl.time);
                r.set_logical_size(path, total);
                // Release a replaced content-addressed dump's references
                // even when the new dump is packed.
                let old = sh.manifests.insert(
                    path.to_owned(),
                    ManifestMeta {
                        chunks,
                        policy: ingest.policy,
                        codec: ingest.codec,
                        logical: total,
                        inline: true,
                        vaulted: false,
                    },
                );
                gc_deletes = match &old {
                    Some(old) if !old.inline => sh.store.release_all(&old.chunks, old.vaulted),
                    _ => Vec::new(),
                };
                shipped = planned.len();
                hits = 0;
                moved = manifest_bytes.len() as u64;
            }
            sh.pending.push(DeltaSummary {
                dataset: dataset.to_owned(),
                logical_bytes: total,
                moved_bytes: moved,
                chunks_total: planned.len(),
                chunks_shipped: shipped,
            });
        }
        // GC frames orphaned by the overwrite. A failed delete leaks the
        // frame but must not fail the (already committed) write.
        for d in &gc_deletes {
            if let Ok(cost) = r.delete(&cas_path(d)) {
                cx.tl.charge(0, cost.time);
            }
        }

        cx.tl.barrier();
        let (nr, nw, no) = delta.finish(&*r);
        let report = IoReport {
            strategy,
            nprocs,
            native_reads: nr,
            native_writes: nw,
            native_opens: no,
            bytes: total,
            elapsed: cx.tl.makespan(),
            total_work: cx.tl.total_work(),
            retries: cx.retries,
            backoff: cx.backoff,
            stale: false,
        };
        self.record_strategy(r.name(), "write", &report);
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
            if !gc_deletes.is_empty() {
                self.recorder.count(
                    Layer::Runtime,
                    &resource,
                    ops::CHUNK_GC,
                    now,
                    gc_deletes.len() as f64,
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
        let delta = StatsDelta::start(&*r);
        let mut cx = OpCx::new(nprocs);
        r.set_stream_hint(1);

        let chunk_err = |source: ChunkError| RuntimeError::Chunk {
            path: path.to_owned(),
            source,
        };
        let obj = self.read_object(&mut cx, &mut *r, path)?;
        let (manifest, frames_at) = Manifest::decode(&obj).map_err(chunk_err)?;
        if manifest.logical != dist.total_bytes() {
            return Err(RuntimeError::SizeMismatch {
                expected: dist.total_bytes(),
                got: manifest.logical,
            });
        }

        // Fetch each distinct frame once, in first-occurrence order.
        // Inline frames are zero-copy slices of the manifest object.
        let mut frames: HashMap<Digest, Bytes> = HashMap::with_capacity(manifest.chunks.len());
        if manifest.inline {
            let mut at = frames_at;
            for c in &manifest.chunks {
                let end = at + c.clen as usize;
                if end > obj.len() {
                    return Err(chunk_err(ChunkError::BadManifest {
                        detail: format!(
                            "inline frames truncated: need {end} B, object has {}",
                            obj.len()
                        ),
                    }));
                }
                frames.entry(c.digest).or_insert_with(|| obj.slice(at..end));
                at = end;
            }
        } else {
            for c in &manifest.chunks {
                if frames.contains_key(&c.digest) {
                    continue;
                }
                let frame = self.read_object(&mut cx, &mut *r, &cas_path(&c.digest))?;
                frames.insert(c.digest, frame);
            }
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
            let shuffle = self.exchange.shuffle_cost(manifest.logical, nprocs);
            cx.tl.barrier();
            for p in 0..nprocs {
                cx.tl.charge(p, shuffle);
            }
        }

        cx.tl.barrier();
        let (nr, nw, no) = delta.finish(&*r);
        let report = IoReport {
            strategy,
            nprocs,
            native_reads: nr,
            native_writes: nw,
            native_opens: no,
            bytes: manifest.logical,
            elapsed: cx.tl.makespan(),
            total_work: cx.tl.total_work(),
            retries: cx.retries,
            backoff: cx.backoff,
            stale: false,
        };
        self.record_strategy(r.name(), "read", &report);
        self.record_scratch(r.name(), &cx);
        Ok((out, report))
    }

    /// Read `path` whichever way it was written: through the chunk plane
    /// when a manifest is registered for it, raw otherwise.
    pub fn read_auto(
        &self,
        res: &SharedResource,
        path: &str,
        dist: &Distribution,
        strategy: IoStrategy,
    ) -> RuntimeResult<(Vec<u8>, IoReport)> {
        let chunked = {
            let r = res.lock();
            self.plane.is_chunked(r.name(), path)
        };
        if chunked {
            self.read_chunked(res, path, dist, strategy)
        } else {
            self.read(res, path, dist, strategy)
        }
    }

    /// Delete a dump, raw or chunked. For a chunked dump the manifest
    /// object goes first, then its chunk references are released and any
    /// frame whose refcount hit zero is garbage-collected. Returns the
    /// accumulated native-call time.
    pub fn delete_dump(&self, res: &SharedResource, path: &str) -> RuntimeResult<Cost<()>> {
        let mut r = res.lock();
        let resource = r.name().to_owned();
        let Some(shard) = self.plane.shard_if(&resource) else {
            // No chunked dump ever touched this resource: plain delete.
            let cost = r.delete(path).map_err(RuntimeError::Storage)?;
            return Ok(Cost::new(cost.time, ()));
        };
        let mut time = SimDuration::ZERO;
        let mut sh = shard.lock();
        let meta = sh.manifests.remove(path);
        // Manifest delete failures propagate *before* bookkeeping is
        // touched (the registration is restored for the retry). A missing
        // file still clears the registration (failover may have scattered
        // dumps).
        match r.delete(path) {
            Ok(cost) => time += cost.time,
            Err(StorageError::NotFound(_)) if meta.is_some() => {}
            Err(e) => {
                if let Some(meta) = meta {
                    sh.manifests.insert(path.to_owned(), meta);
                }
                return Err(RuntimeError::Storage(e));
            }
        }
        let Some(meta) = meta else {
            return Ok(Cost::new(time, ()));
        };
        let gcs = if meta.inline {
            Vec::new()
        } else {
            sh.store.release_all(&meta.chunks, meta.vaulted)
        };
        drop(sh);
        for d in &gcs {
            if let Ok(cost) = r.delete(&cas_path(d)) {
                time += cost.time;
            }
        }
        if self.recorder.enabled() && !gcs.is_empty() {
            self.recorder.count(
                Layer::Runtime,
                &resource,
                ops::CHUNK_GC,
                self.clock.now(),
                gcs.len() as f64,
            );
        }
        Ok(Cost::new(time, ()))
    }

    /// Vault a dump, raw or chunked. A chunked dump vaults its manifest
    /// and marks its references vaulted; each frame object moves to the
    /// vault only once *every* dump referencing it is vaulted.
    pub fn vault_dump(&self, res: &SharedResource, path: &str) -> RuntimeResult<Cost<()>> {
        let mut r = res.lock();
        let resource = r.name().to_owned();
        let Some(shard) = self.plane.shard_if(&resource) else {
            return Ok(Cost::new(r.vault(path)?.time, ()));
        };
        let mut sh = shard.lock();
        let sh = &mut *sh;
        let Some(meta) = sh.manifests.get_mut(path) else {
            return Ok(Cost::new(r.vault(path)?.time, ()));
        };
        if meta.vaulted {
            return Ok(Cost::free(()));
        }
        let mut time = r.vault(path)?.time;
        let mut to_vault: Vec<Digest> = Vec::new();
        if !meta.inline {
            for c in &meta.chunks {
                if sh.store.vault_ref(&c.digest) {
                    to_vault.push(c.digest);
                }
            }
        }
        meta.vaulted = true;
        for d in &to_vault {
            if let Ok(cost) = r.vault(&cas_path(d)) {
                time += cost.time;
            }
        }
        Ok(Cost::new(time, ()))
    }

    /// Recall a dump from the vault, raw or chunked. The first dump to
    /// need a shared frame recalls the frame object for everyone.
    pub fn recall_dump(&self, res: &SharedResource, path: &str) -> RuntimeResult<Cost<()>> {
        let mut r = res.lock();
        let resource = r.name().to_owned();
        let Some(shard) = self.plane.shard_if(&resource) else {
            return Ok(Cost::new(r.recall(path)?.time, ()));
        };
        let mut sh = shard.lock();
        let sh = &mut *sh;
        let Some(meta) = sh.manifests.get_mut(path) else {
            return Ok(Cost::new(r.recall(path)?.time, ()));
        };
        if !meta.vaulted {
            return Ok(Cost::free(()));
        }
        let mut time = r.recall(path)?.time;
        let mut to_recall: Vec<Digest> = Vec::new();
        if !meta.inline {
            for c in &meta.chunks {
                if sh.store.recall_ref(&c.digest) {
                    to_recall.push(c.digest);
                }
            }
        }
        meta.vaulted = false;
        for d in &to_recall {
            if let Ok(cost) = r.recall(&cas_path(d)) {
                time += cost.time;
            }
        }
        Ok(Cost::new(time, ()))
    }

    /// One whole object via native open/read/close on the aggregator.
    /// Returns the shared buffer as-is: callers slice it zero-copy.
    fn read_object(
        &self,
        cx: &mut OpCx,
        r: &mut dyn StorageResource,
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
