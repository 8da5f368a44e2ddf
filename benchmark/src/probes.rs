//! Layer probes: after the timed repetitions of the traced run, the
//! harness replays inputs through one layer's public functions in
//! isolation, on fresh `LocalDisk`s, and times them.
//!
//! Two kinds. *Rate probes* give the `*_mb_s` / `*_us_p50` metrics of one
//! layer. *Replays* take the workload's own served operations — every raw
//! engine operation by class, every chunked dump sequence payload for
//! payload — and measure what they cost below the crate the harness
//! entered, which is how a scheduler drain's host time is split between
//! `msr-sched`, `msr-runtime`, `msr-chunk` and `msr-storage` from outside.

use crate::stats::median;
use crate::trace::{Layer, Tracer};
use crate::workloads::{msg, Numbers, Res, Scale};
use msr_chunk::{decompress_into, split, Compressor, Digest, IngestSpec};
use msr_core::MsrSystem;
use msr_meta::RunId;
use msr_runtime::{Dims3, Distribution, IoEngine, IoStrategy, Pattern, ProcGrid};
use msr_sched::{program::payload, SchedReport, SessionProgram};
use msr_storage::{share, DiskParams, LocalDisk, OpenMode, SharedResource};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Bytes a raw-class replay moves at most per direction.
const REPLAY_BUDGET_BYTES: u64 = 64 << 20;

fn fresh_disk(name: &str) -> SharedResource {
    share(LocalDisk::new(name, DiskParams::simple(4000.0, 8 << 30), 0))
}

fn timed<T>(tr: &mut Tracer, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = tr.call(layer, name, f);
    (out, t.elapsed().as_secs_f64())
}

fn mb_s(bytes: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / 1e6 / secs
    } else {
        0.0
    }
}

/// Raw engine operations that share a distribution and a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct RawClass {
    /// How the array is laid out over the process grid.
    pub dist: Distribution,
    /// The I/O strategy used.
    pub strategy: IoStrategy,
    /// Writes served.
    pub writes: u64,
    /// Reads served.
    pub reads: u64,
}

/// One session's dumps of one chunked dataset, in dump order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedSeq {
    /// Scheduler session id (keys the payload generator).
    pub session: u64,
    /// Dataset name (keys the payload generator).
    pub dataset: String,
    /// Layout of one dump.
    pub dist: Distribution,
    /// The I/O strategy used.
    pub strategy: IoStrategy,
    /// Chunking and compression.
    pub ingest: IngestSpec,
    /// Iterations dumped.
    pub iters: Vec<u32>,
    /// Earliest dumps read back.
    pub reads: usize,
}

/// A workload's served operations, as the replays need them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ops {
    /// Raw engine operations by class.
    pub raw: Vec<RawClass>,
    /// Chunked dump sequences.
    pub chunked: Vec<ChunkedSeq>,
    /// `(payload length, payloads generated)` at admission.
    pub payloads: BTreeMap<usize, u64>,
    /// Datasets the catalog probe looks up.
    pub lookups: Vec<(RunId, String)>,
}

impl Ops {
    /// Add `writes`/`reads` raw operations of one class.
    pub fn add_raw(&mut self, dist: Distribution, strategy: IoStrategy, writes: u64, reads: u64) {
        match self
            .raw
            .iter_mut()
            .find(|c| c.dist == dist && c.strategy == strategy)
        {
            Some(c) => {
                c.writes += writes;
                c.reads += reads;
            }
            None => self.raw.push(RawClass {
                dist,
                strategy,
                writes,
                reads,
            }),
        }
    }

    /// The operations a drained fleet served: every session of `report`
    /// that ran to completion, expanded by the scheduler's own rule.
    pub fn of_drain(programs: &[SessionProgram], report: &SchedReport) -> Res<Ops> {
        let by_app: BTreeMap<&str, &SessionProgram> =
            programs.iter().map(|p| (p.app.as_str(), p)).collect();
        let mut ops = Ops::default();
        for s in &report.sessions {
            let Some(p) = by_app.get(s.app.as_str()) else {
                continue;
            };
            if s.cancelled.is_some() {
                continue;
            }
            for spec in p.datasets.iter().filter(|d| d.frequency != 0) {
                let dist = Distribution::new(spec.dims, spec.etype.size(), spec.pattern, p.grid)
                    .map_err(msg)?;
                let iters: Vec<u32> = (0..=p.iterations)
                    .filter(|i| i % spec.frequency == 0)
                    .collect();
                let reads = if p.readbacks > 0 {
                    (p.readbacks as usize).min(iters.len())
                } else {
                    usize::from(p.readback)
                };
                *ops.payloads
                    .entry(spec.snapshot_bytes() as usize)
                    .or_insert(0) += iters.len() as u64;
                ops.lookups.push((RunId(s.run), spec.name.clone()));
                if spec.ingest.is_active() {
                    ops.chunked.push(ChunkedSeq {
                        session: s.session,
                        dataset: spec.name.clone(),
                        dist,
                        strategy: spec.strategy,
                        ingest: spec.ingest,
                        iters,
                        reads,
                    });
                } else {
                    ops.add_raw(dist, spec.strategy, iters.len() as u64, reads as u64);
                }
            }
        }
        Ok(ops)
    }
}

/// Host seconds per traced repetition that a workload's operations cost
/// below the crate the harness entered.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lower {
    /// `msr-runtime`'s raw strategies.
    pub runtime_s: f64,
    /// `msr-runtime::chunked`: plane, manifests, verified reads.
    pub chunk_plane_s: f64,
    /// `msr-chunk`: CDC, digests, LZ.
    pub chunk_s: f64,
    /// `msr-storage` native calls.
    pub storage_s: f64,
}

/// Most operations one raw-class replay pass makes per direction.
const REPLAY_MAX_OPS: u64 = 4096;

/// Replay every raw class: through `IoEngine` (runtime + storage) and
/// straight at the native interface (storage alone), on fresh disks. Each
/// class runs two passes and the second is kept: the first warms the
/// allocator and the caches, as the fleet before any one request did.
fn replay_raw(classes: &[RawClass], tr: &mut Tracer) -> Res<Lower> {
    let engine = IoEngine::default();
    let mut lower = Lower::default();
    for c in classes {
        let bytes = c.dist.total_bytes();
        let k = (REPLAY_BUDGET_BYTES / bytes.max(1)).clamp(1, REPLAY_MAX_OPS) as usize;
        let data: Vec<u8> = (0..bytes).map(|b| (b % 251) as u8).collect();
        let paths: Vec<String> = (0..k).map(|j| format!("d{j}")).collect();
        let mut secs = [0.0; 4];
        for _pass in 0..2 {
            let res = fresh_disk("replay-engine");
            let (out, s) = timed(tr, Layer::Runtime, "probe.replay_write", || {
                paths.iter().try_for_each(|p| {
                    engine
                        .write(&res, p, &data, &c.dist, c.strategy, OpenMode::Create)
                        .map(drop)
                })
            });
            out.map_err(msg)?;
            secs[0] = s;
            let (out, s) = timed(tr, Layer::Runtime, "probe.replay_read", || {
                paths.iter().try_for_each(|p| {
                    engine
                        .read(&res, p, &c.dist, c.strategy)
                        .map(|r| drop(black_box(r)))
                })
            });
            out.map_err(msg)?;
            secs[1] = s;
            let native = fresh_disk("replay-native");
            let (out, s) = timed(tr, Layer::Storage, "probe.replay_put", || {
                paths.iter().try_for_each(|p| put(&native, p, &data))
            });
            out?;
            secs[2] = s;
            let (out, s) = timed(tr, Layer::Storage, "probe.replay_get", || {
                paths
                    .iter()
                    .try_for_each(|p| get(&native, p, data.len()).map(drop))
            });
            out?;
            secs[3] = s;
        }
        let [engine_write, engine_read, native_put, native_get] = secs.map(|s| s / k as f64);
        let storage = native_put * c.writes as f64 + native_get * c.reads as f64;
        let both = engine_write * c.writes as f64 + engine_read * c.reads as f64;
        lower.storage_s += storage.min(both);
        lower.runtime_s += (both - storage).max(0.0);
    }
    Ok(lower)
}

fn put(res: &SharedResource, path: &str, data: &[u8]) -> Res<()> {
    let mut r = res.lock();
    let h = r.open(path, OpenMode::Create).map_err(msg)?.value;
    r.write(h, data).map_err(msg)?;
    r.close(h).map_err(msg)?;
    Ok(())
}

fn get(res: &SharedResource, path: &str, len: usize) -> Res<usize> {
    let mut r = res.lock();
    let h = r.open(path, OpenMode::Read).map_err(msg)?.value;
    let bytes = r.read(h, len).map_err(msg)?.value;
    r.close(h).map_err(msg)?;
    Ok(black_box(bytes.len()))
}

/// Replay every chunked sequence payload for payload: once through
/// `write_chunked` / `read_chunked` on one fresh disk (the chunk plane
/// with everything under it), once through `msr-chunk`'s stages alone.
/// Fills the chunk-plane rate metrics.
fn replay_chunked(seqs: &[ChunkedSeq], tr: &mut Tracer, host: &mut Numbers) -> Res<Lower> {
    let mut lower = Lower::default();
    if seqs.is_empty() {
        return Ok(lower);
    }
    let engine = IoEngine::default();
    let res = fresh_disk("replay-chunked");
    let (mut written, mut read, mut compressed, mut inflated) = (0u64, 0u64, 0u64, 0u64);
    let (mut write_s, mut read_s) = (0.0, 0.0);
    let (mut split_s, mut digest_s, mut compress_s, mut decompress_s) = (0.0, 0.0, 0.0, 0.0);
    let mut seen: HashSet<Digest> = HashSet::new();
    let mut compressor = Compressor::new();
    let mut plain = Vec::new();
    for seq in seqs {
        let len = seq.dist.total_bytes() as usize;
        for (n, &iter) in seq.iters.iter().enumerate() {
            let data = payload(seq.session, &seq.dataset, iter, len);
            let path = format!("s{}/{}.t{iter:05}", seq.session, seq.dataset);
            let (out, s) = timed(tr, Layer::ChunkPlane, "probe.write_chunked", || {
                engine.write_chunked(
                    &res,
                    &path,
                    &data,
                    &seq.dist,
                    seq.strategy,
                    OpenMode::Create,
                    &seq.ingest,
                    &seq.dataset,
                )
            });
            out.map_err(msg)?;
            write_s += s;
            written += len as u64;

            // The same payload through msr-chunk alone. Only chunks the
            // store has not seen are compressed, as on the write path.
            let (cuts, s) = timed(tr, Layer::Chunk, "probe.cdc_split", || {
                split(&data, &seq.ingest.policy)
            });
            split_s += s;
            let (digests, s) = timed(tr, Layer::Chunk, "probe.digest", || {
                cuts.iter()
                    .map(|c| Digest::of(&data[c.clone()]))
                    .collect::<Vec<_>>()
            });
            digest_s += s;
            let fresh: Vec<_> = cuts
                .iter()
                .zip(&digests)
                .filter(|(_, d)| seen.insert(**d))
                .map(|(c, _)| c.clone())
                .collect();
            let (frames, s) = timed(tr, Layer::Chunk, "probe.compress", || {
                fresh
                    .iter()
                    .map(|c| compressor.compress(&seq.ingest.codec, &data[c.clone()]))
                    .collect::<Vec<_>>()
            });
            compress_s += s;
            compressed += fresh.iter().map(|c| c.len() as u64).sum::<u64>();
            if n < seq.reads {
                // A verified read decompresses and re-digests every chunk
                // of the dump; frames of deduplicated chunks are rebuilt
                // off the clock.
                let all: Vec<Vec<u8>> = if fresh.len() == cuts.len() {
                    frames
                } else {
                    cuts.iter()
                        .map(|c| compressor.compress(&seq.ingest.codec, &data[c.clone()]))
                        .collect()
                };
                let (out, s) = timed(tr, Layer::Chunk, "probe.decompress", || {
                    all.iter().try_for_each(|f| {
                        decompress_into(f, &mut plain)?;
                        black_box(Digest::of(&plain));
                        Ok::<(), msr_chunk::ChunkError>(())
                    })
                });
                out.map_err(msg)?;
                decompress_s += s;
                inflated += len as u64;
            }
        }
        for &iter in seq.iters.iter().take(seq.reads) {
            let path = format!("s{}/{}.t{iter:05}", seq.session, seq.dataset);
            let (out, s) = timed(tr, Layer::ChunkPlane, "probe.read_chunked", || {
                engine.read_chunked(&res, &path, &seq.dist, seq.strategy)
            });
            black_box(out.map_err(msg)?);
            read_s += s;
            read += len as u64;
        }
    }
    host.insert("runtime.write_chunked_mb_s".into(), mb_s(written, write_s));
    host.insert("runtime.read_chunked_mb_s".into(), mb_s(read, read_s));
    host.insert("chunk.cdc_split_mb_s".into(), mb_s(written, split_s));
    host.insert("chunk.digest_mb_s".into(), mb_s(written, digest_s));
    host.insert("chunk.compress_mb_s".into(), mb_s(compressed, compress_s));
    host.insert("chunk.decompress_mb_s".into(), mb_s(inflated, decompress_s));
    lower.chunk_s = split_s + digest_s + compress_s + decompress_s;
    // Per-chunk object puts and gets stay with the chunk plane: from
    // outside they cannot be told from its own bookkeeping.
    lower.chunk_plane_s = (write_s + read_s - lower.chunk_s).max(0.0);
    Ok(lower)
}

/// Replay a workload's operations; the result is per repetition.
pub fn replay(ops: &Ops, tr: &mut Tracer, host: &mut Numbers) -> Res<Lower> {
    let raw = replay_raw(&ops.raw, tr)?;
    let chunked = replay_chunked(&ops.chunked, tr, host)?;
    Ok(Lower {
        chunk_plane_s: chunked.chunk_plane_s,
        chunk_s: chunked.chunk_s,
        ..raw
    })
}

/// `msr_sched::program::payload` on the workload's own payload sizes.
pub fn payloads(ops: &Ops, tr: &mut Tracer, host: &mut Numbers) {
    let (mut bytes, mut secs) = (0u64, 0.0);
    for &len in ops.payloads.keys() {
        let k = (REPLAY_BUDGET_BYTES / 4 / len.max(1) as u64).clamp(1, 4096) as u32;
        let ((), s) = timed(tr, Layer::Sched, "probe.payload", || {
            for iter in 0..k {
                black_box(payload(0, "probe", iter, len));
            }
        });
        bytes += u64::from(k) * len as u64;
        secs += s;
    }
    host.insert("sched.payload_mb_s".into(), mb_s(bytes, secs));
}

/// `IoEngine::write` / `read` per strategy on one f32 field over a 2×2×2
/// grid (128³ at full scale), each on its own fresh disk.
pub fn strategies(scale: Scale, tr: &mut Tracer, host: &mut Numbers) -> Res<()> {
    let n = match scale {
        Scale::Full => 128,
        Scale::Smoke => 16,
    };
    let dist = Distribution::new(Dims3::cube(n), 4, Pattern::bbb(), ProcGrid::new(2, 2, 2))
        .map_err(msg)?;
    let bytes = dist.total_bytes();
    let data: Vec<u8> = (0..bytes).map(|b| (b % 251) as u8).collect();
    let engine = IoEngine::default();
    const REPS: usize = 3;
    for strategy in IoStrategy::ALL {
        let key = match strategy {
            IoStrategy::Naive => "naive",
            IoStrategy::DataSieving => "sieving",
            IoStrategy::Collective => "collective",
            IoStrategy::Subfile => "subfile",
        };
        let res = fresh_disk(&format!("probe-{key}"));
        let (mut w, mut r) = (Vec::new(), Vec::new());
        for rep in 0..REPS {
            let path = format!("field{rep}");
            let (out, s) = timed(tr, Layer::Runtime, "probe.engine_write", || {
                engine.write(&res, &path, &data, &dist, strategy, OpenMode::Create)
            });
            out.map_err(msg)?;
            w.push(s);
            let (out, s) = timed(tr, Layer::Runtime, "probe.engine_read", || {
                engine.read(&res, &path, &dist, strategy)
            });
            black_box(out.map_err(msg)?);
            r.push(s);
        }
        host.insert(format!("runtime.write_{key}_mb_s"), mb_s(bytes, median(&w)));
        host.insert(format!("runtime.read_{key}_mb_s"), mb_s(bytes, median(&r)));
    }
    Ok(())
}

/// One-MiB put and get (open + write/read + close) on each resource of
/// the drained testbed.
pub fn storage(sys: &MsrSystem, tr: &mut Tracer, host: &mut Numbers) -> Res<()> {
    const REPS: usize = 5;
    let data = vec![0x5au8; 1 << 20];
    let (mut puts, mut gets) = (Vec::new(), Vec::new());
    for (_, res) in sys.resources() {
        res.lock().connect().map_err(msg)?;
        for rep in 0..REPS {
            let path = format!("probe/put{rep}");
            let (out, s) = timed(tr, Layer::Storage, "probe.put_1mib", || {
                put(&res, &path, &data)
            });
            out?;
            puts.push(s * 1e6);
            let (out, s) = timed(tr, Layer::Storage, "probe.get_1mib", || {
                get(&res, &path, data.len())
            });
            out?;
            gets.push(s * 1e6);
        }
        res.lock().disconnect().map_err(msg)?;
    }
    host.insert("storage.put_1mib_us_p50".into(), median(&puts));
    host.insert("storage.get_1mib_us_p50".into(), median(&gets));
    Ok(())
}

/// `Catalog::find_dataset` on the post-drain catalog, in batches of the
/// workload's own `(run, dataset)` keys. Returns seconds per lookup.
pub fn meta(
    sys: &MsrSystem,
    lookups: &[(RunId, String)],
    tr: &mut Tracer,
    host: &mut Numbers,
) -> f64 {
    const BATCH: usize = 64;
    let mut per_lookup_us = Vec::new();
    let mut catalog = sys.catalog.lock();
    for batch in lookups.chunks(BATCH).take(64) {
        let (found, s) = timed(tr, Layer::Meta, "probe.find_dataset", || {
            batch
                .iter()
                .filter(|(run, name)| catalog.find_dataset(*run, name).is_ok())
                .count()
        });
        black_box(found);
        per_lookup_us.push(s * 1e6 / batch.len() as f64);
    }
    let p50 = median(&per_lookup_us);
    host.insert("meta.find_dataset_us_p50".into(), p50);
    p50 / 1e6
}

/// Seconds one event costs to record and batch into a registry — the
/// price every native call pays while `MsrSystem::testbed` records.
pub fn obs_record_s(tr: &mut Tracer) -> f64 {
    const EVENTS: u32 = 200_000;
    let registry = msr_obs::Registry::new();
    let rec = registry.recorder();
    let at = msr_sim::SimTime::from_secs(0.0);
    let dur = msr_sim::SimDuration::from_secs(1e-3);
    let ((), s) = timed(tr, Layer::Obs, "probe.record", || {
        for _ in 0..EVENTS {
            rec.span(msr_obs::Layer::Storage, "sdsc-disk", "write", at, dur, 4096);
        }
        black_box(registry.dropped());
    });
    s / f64::from(EVENTS)
}

/// Every probe, in one pass over the system the last repetition left.
/// `counts` are that repetition's per-layer counts: the event and query
/// totals price what `msr-obs` recording and the catalog cost per
/// repetition. Fills the probe metrics and the `_lower.*` seconds the
/// layer table debits from the entry crate.
pub fn run_all(
    sys: &MsrSystem,
    ops: &Ops,
    counts: &Numbers,
    scale: Scale,
    tr: &mut Tracer,
    host: &mut Numbers,
) -> Res<()> {
    tr.enter(Layer::Bench, "probes");
    let result = (|| {
        strategies(scale, tr, host)?;
        storage(sys, tr, host)?;
        payloads(ops, tr, host);
        let per_lookup_s = meta(sys, &ops.lookups, tr, host);
        let per_event_s = obs_record_s(tr);
        let lower = replay(ops, tr, host)?;
        let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
        host.insert("_lower.runtime_s".into(), lower.runtime_s);
        host.insert("_lower.chunk_plane_s".into(), lower.chunk_plane_s);
        host.insert("_lower.chunk_s".into(), lower.chunk_s);
        host.insert("_lower.storage_s".into(), lower.storage_s);
        host.insert("_lower.meta_s".into(), count("meta.queries") * per_lookup_s);
        host.insert("_lower.obs_s".into(), count("obs.events") * per_event_s);
        Ok(())
    })();
    tr.exit();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_core::{ChunkPolicy, Codec, DatasetSpec, LocationHint};
    use msr_meta::ElementType;
    use msr_sched::Scheduler;

    #[test]
    fn drain_ops_follow_the_programs_and_replay_on_fresh_disks() {
        let raw = SessionProgram::new("raw")
            .iterations(6)
            .dataset(
                DatasetSpec::builder("d")
                    .element(ElementType::F32)
                    .cube(8)
                    .frequency(3)
                    .hint(LocationHint::LocalDisk)
                    .build(),
            )
            .readback(true);
        let chunked = SessionProgram::new("chunked")
            .iterations(6)
            .dataset(
                DatasetSpec::builder("chk")
                    .element(ElementType::F32)
                    .cube(16)
                    .frequency(3)
                    .hint(LocationHint::LocalDisk)
                    .chunked(ChunkPolicy::cdc(4))
                    .compression(Codec::Lz4Like(1))
                    .build(),
            )
            .readbacks(2);
        let programs = vec![raw, chunked];
        let sys = MsrSystem::testbed(3);
        let mut sched = Scheduler::new(&sys);
        for p in &programs {
            sched.admit(p.clone()).unwrap();
        }
        let report = sched.run().unwrap();
        let ops = Ops::of_drain(&programs, &report).unwrap();
        assert_eq!(ops.raw.len(), 1);
        assert_eq!((ops.raw[0].writes, ops.raw[0].reads), (3, 1));
        assert_eq!(ops.chunked.len(), 1);
        assert_eq!(ops.chunked[0].iters, [0, 3, 6]);
        assert_eq!(ops.chunked[0].reads, 2);
        assert_eq!(ops.payloads[&(8 * 8 * 8 * 4)], 3);
        assert_eq!(ops.lookups.len(), 2);

        let mut tr = Tracer::new();
        tr.set(true, 0);
        let mut host = Numbers::new();
        let lower = replay(&ops, &mut tr, &mut host).unwrap();
        assert!(lower.runtime_s > 0.0 && lower.storage_s > 0.0);
        assert!(lower.chunk_plane_s > 0.0 && lower.chunk_s > 0.0);
        for name in [
            "runtime.write_chunked_mb_s",
            "runtime.read_chunked_mb_s",
            "chunk.cdc_split_mb_s",
            "chunk.digest_mb_s",
            "chunk.compress_mb_s",
            "chunk.decompress_mb_s",
        ] {
            assert!(host[name] > 0.0, "{name}");
        }
        payloads(&ops, &mut tr, &mut host);
        assert!(host["sched.payload_mb_s"] > 0.0);
        let per_lookup = meta(&sys, &ops.lookups, &mut tr, &mut host);
        assert!(per_lookup > 0.0 && host["meta.find_dataset_us_p50"] > 0.0);
        storage(&sys, &mut tr, &mut host).unwrap();
        assert!(host["storage.put_1mib_us_p50"] > 0.0);
        strategies(Scale::Smoke, &mut tr, &mut host).unwrap();
        assert!(host["runtime.write_collective_mb_s"] > 0.0);
        assert!(host["runtime.read_subfile_mb_s"] > 0.0);
        assert!(obs_record_s(&mut tr) > 0.0);
        assert!(tr.spans().iter().any(|s| s.name == "probe.compress"));
    }
}
