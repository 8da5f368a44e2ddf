//! Ingest throughput: what the chunk plane's hot loops sustain.
//!
//! One [`IngestPoint`]: MB/s of the three CPU stages a chunked dump pays
//! (CDC split, chunk digesting, per-chunk compression) plus the
//! end-to-end `write_chunked` path, each at 1, 2 and N pool workers via
//! [`rayon::with_threads`]. Best-of-`reps` wall clock, so a noisy
//! scheduler tick cannot sink a point.
//!
//! Every figure is one shot of a few milliseconds: the ledger records
//! them (with `host_cores`, so a single-core runner reads as "cannot show
//! scaling", not as a regression) and asserts nothing about them. Ingest
//! correctness is gated by the CDC equality suite, ingest performance by
//! `ckpt_chunked/host_wall_s` in `benchmark/`.

use super::Scale;
use msr_chunk::{split, ChunkPolicy, Codec, Compressor, Digest, IngestSpec};
use msr_runtime::{Dims3, Distribution, IoEngine, IoStrategy, Pattern, ProcGrid};
use msr_storage::{share, DiskParams, LocalDisk, OpenMode, SharedResource};
use rayon::prelude::*;
use serde::Serialize;
use std::time::Instant;

/// One (stage, worker-count) throughput sample.
#[derive(Debug, Clone, Serialize)]
pub struct StagePoint {
    /// Stage name: `cdc_split`, `digest`, `compress` or `write_chunked`.
    pub stage: String,
    /// Pool workers the stage ran on.
    pub workers: usize,
    /// Best-of-reps wall clock, seconds.
    pub seconds: f64,
    /// Payload megabytes per second at that wall clock.
    pub mb_s: f64,
}

/// The full ingest ledger: the stage curves.
#[derive(Debug, Clone, Serialize)]
pub struct IngestPoint {
    /// Megabytes of the stage-benchmark payload.
    pub payload_mb: f64,
    /// Chunks the CDC policy cut the payload into.
    pub chunks: usize,
    /// Stage samples, grouped by stage then worker count.
    pub stages: Vec<StagePoint>,
}

/// The checkpoint-shaped payload every measurement ingests: a repeating
/// compressible tile with a per-iteration churn window, same family as
/// the dedup experiment's fleets.
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

fn cube_dist(bytes: usize) -> Distribution {
    let side = (bytes as f64).cbrt().round() as u64;
    assert_eq!(side * side * side, bytes as u64, "cube-sized payload");
    Distribution::new(Dims3::cube(side), 1, Pattern::bbb(), ProcGrid::new(1, 1, 1))
        .expect("valid distribution")
}

fn worker_counts() -> Vec<usize> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, host];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Best-of-`reps` wall clock of `f`, seconds.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Measure every stage at every worker count. Deterministic payloads;
/// wall clock is the only host-dependent output.
pub fn ingest_throughput(scale: Scale, seed: u64) -> IngestPoint {
    let (payload_bytes, reps) = match scale {
        // 12 MiB-ish cube payload.
        Scale::Paper => (144usize.pow(3), 5),
        Scale::Quick => (48usize.pow(3), 3),
    };
    let policy = ChunkPolicy::cdc(64);
    let codec = Codec::Lz4Like(2);
    let data = churned(payload_bytes, seed);
    let mb = payload_bytes as f64 / (1024.0 * 1024.0);

    let cuts = split(&data, &policy);
    let chunks = cuts.len();
    let mut stages = Vec::new();
    for workers in worker_counts() {
        // CDC split: the segmented gear scan.
        let s = rayon::with_threads(workers, || {
            best_of(reps, || {
                std::hint::black_box(split(&data, &policy));
            })
        });
        stages.push(stage("cdc_split", workers, mb, s));

        // Digesting every chunk (the content-address step).
        let s = rayon::with_threads(workers, || {
            best_of(reps, || {
                let sum: u64 = (0..cuts.len())
                    .into_par_iter()
                    .map(|i| u64::from(Digest::of(&data[cuts[i].clone()]).0[0]))
                    .sum();
                std::hint::black_box(sum);
            })
        });
        stages.push(stage("digest", workers, mb, s));

        // Per-chunk compression, one reused LZ table per block — the
        // generation-stamped reuse the write path's scratch pool buys.
        let nblocks = (workers * 2).min(cuts.len()).max(1);
        let per = cuts.len().div_ceil(nblocks);
        let s = rayon::with_threads(workers, || {
            best_of(reps, || {
                let total: usize = (0..nblocks)
                    .into_par_iter()
                    .map(|b| {
                        let mut c = Compressor::new();
                        cuts[b * per..cuts.len().min((b + 1) * per)]
                            .iter()
                            .map(|cut| c.compress(&codec, &data[cut.clone()]).len())
                            .sum::<usize>()
                    })
                    .sum();
                std::hint::black_box(total);
            })
        });
        stages.push(stage("compress", workers, mb, s));

        // End to end: split + digest + compress + store + manifest, onto
        // a fresh local disk each rep so dedup cannot short-circuit the
        // CPU stages being measured.
        let dist = cube_dist(payload_bytes);
        let ingest = IngestSpec::chunked(policy).with_codec(codec);
        let s = rayon::with_threads(workers, || {
            best_of(reps, || {
                let engine = IoEngine::default();
                let res = fresh_disk("ingest-e2e");
                engine
                    .write_chunked(
                        &res,
                        "d.ckpt",
                        &data,
                        &dist,
                        IoStrategy::Naive,
                        OpenMode::Create,
                        &ingest,
                        "ingest",
                    )
                    .expect("chunked write");
            })
        });
        stages.push(stage("write_chunked", workers, mb, s));
    }

    IngestPoint {
        payload_mb: mb,
        chunks,
        stages,
    }
}

fn stage(name: &str, workers: usize, mb: f64, seconds: f64) -> StagePoint {
    StagePoint {
        stage: name.to_owned(),
        workers,
        seconds,
        mb_s: mb / seconds.max(1e-12),
    }
}

fn fresh_disk(name: &str) -> SharedResource {
    share(LocalDisk::new(name, DiskParams::simple(4000.0, 8 << 30), 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ingest_point_is_well_formed() {
        let p = ingest_throughput(Scale::Quick, 7);
        assert!(p.chunks >= 1);
        let per_stage = worker_counts().len();
        assert_eq!(p.stages.len(), 4 * per_stage);
        for s in &p.stages {
            assert!(s.mb_s > 0.0, "{s:?}");
            assert!(s.seconds > 0.0, "{s:?}");
        }
    }
}
