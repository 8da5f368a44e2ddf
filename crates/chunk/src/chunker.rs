//! Splitting a dump into chunks: fixed-size or content-defined.
//!
//! The CDC scan has two interchangeable implementations with bitwise
//! identical output: a serial byte-at-a-time reference ([`split_serial`])
//! and a parallel segmented scan used by [`split`] for large payloads.
//! The segmented scan partitions the payload into fixed segments, finds
//! every gear-hash *match position* per segment on the work-stealing
//! pool, then replays the min/max chunk automaton over the concatenated
//! match list in one cheap sequential stitch. Because the masked gear
//! hash at any position is a pure function of the trailing `mask` bits'
//! worth of bytes (carries in a shift-add hash only propagate upward)
//! and every segment warms its hash over the [`WARM`] bytes before its
//! first position, the per-segment match decisions equal the serial
//! ones at every position the automaton can consult — so the cut list
//! is identical to the serial scan for *any* segmentation and any
//! `MSR_THREADS`.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// How a dump payload is split into chunks.
///
/// `Fixed` blocks are the cheapest to compute but any insertion shifts
/// every later boundary, defeating dedup against the previous dump.
/// `Cdc` places boundaries where a gear rolling hash over the content
/// matches a mask, so boundaries move *with* the content: an edit
/// re-chunks only its neighbourhood. Checkpoint-style overwrite workloads
/// (same offsets mutated in place) dedup well under both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ChunkPolicy {
    /// Chunking off: the dump is written as one raw object (the pre-chunk
    /// data plane, byte for byte).
    #[default]
    Disabled,
    /// Fixed-size blocks of `kib` KiB (last block may be short).
    Fixed {
        /// Block size in KiB; clamped to [4, 4096].
        kib: u32,
    },
    /// Content-defined chunking with a target average of `avg_kib` KiB.
    /// Minimum chunk is a quarter of the average, maximum four times.
    Cdc {
        /// Target average chunk size in KiB; clamped to [4, 4096].
        avg_kib: u32,
    },
}

impl ChunkPolicy {
    /// Fixed-size blocks of `kib` KiB.
    pub fn fixed(kib: u32) -> ChunkPolicy {
        ChunkPolicy::Fixed { kib }
    }

    /// Content-defined chunking targeting `avg_kib` KiB per chunk.
    pub fn cdc(avg_kib: u32) -> ChunkPolicy {
        ChunkPolicy::Cdc { avg_kib }
    }

    /// The policy used when a builder enables compression or content
    /// addressing without picking one explicitly: CDC at 64 KiB average.
    pub fn default_active() -> ChunkPolicy {
        ChunkPolicy::Cdc { avg_kib: 64 }
    }

    /// Whether this policy routes dumps through the chunk plane at all.
    pub fn is_active(&self) -> bool {
        !matches!(self, ChunkPolicy::Disabled)
    }

    fn clamped_kib(kib: u32) -> usize {
        kib.clamp(4, 4096) as usize * 1024
    }
}

/// The largest chunk any policy can cut: CDC's maximum (four times the
/// average) at the clamped 4 MiB average. Decoders refuse any length
/// above it before they allocate.
pub const MAX_CHUNK_BYTES: usize = 4 * 4096 * 1024;

impl fmt::Display for ChunkPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkPolicy::Disabled => f.write_str("disabled"),
            ChunkPolicy::Fixed { kib } => write!(f, "fixed({kib} KiB)"),
            ChunkPolicy::Cdc { avg_kib } => write!(f, "cdc(~{avg_kib} KiB)"),
        }
    }
}

/// Gear table: 256 pseudo-random 64-bit words, fixed at compile time so
/// every build chunks identically.
const GEAR: [u64; 256] = build_gear();

const fn build_gear() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut i = 0;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    while i < 256 {
        // SplitMix64 sequence.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        t[i] = z ^ (z >> 31);
        i += 1;
    }
    t
}

/// Warm-up window: bytes hashed before the first position a scan may
/// cut at. Must cover the mask width (at most 22 bits for the 4 MiB
/// average ceiling) so the masked hash at every consulted position is a
/// pure function of content the scan has actually seen.
const WARM: usize = 32;

/// Segment length of the parallel scan. Small enough that a few MiB
/// fan out across the pool, large enough that the per-segment warm-up
/// (32 re-hashed bytes) is noise.
const SEGMENT: usize = 256 * 1024;

/// Payloads below this stay on the serial scan: spawning pool tasks
/// costs more than scanning a couple of segments in place.
const PARALLEL_MIN: usize = 2 * SEGMENT;

/// CDC parameters derived from the clamped target average.
#[derive(Clone, Copy)]
struct CdcParams {
    mask: u64,
    min: usize,
    max: usize,
}

impl CdcParams {
    fn for_avg(avg_kib: u32) -> CdcParams {
        let avg = ChunkPolicy::clamped_kib(avg_kib);
        // Boundary probability 1/2^k per byte with 2^k the nearest
        // power of two to the requested average.
        let mask = (avg.next_power_of_two() as u64) - 1;
        debug_assert!(mask < 1u64 << WARM, "mask wider than the warm-up window");
        CdcParams {
            mask,
            min: (avg / 4).max(64),
            max: avg * 4,
        }
    }
}

/// Split `data` into chunk ranges under `policy`.
///
/// Returns consecutive, exhaustive, non-empty ranges covering
/// `0..data.len()` (empty input yields no chunks). A pure function of
/// `(data, policy)`: large CDC payloads are scanned segment-parallel on
/// the pool, but the reconciliation stitch makes the cut list bitwise
/// identical to [`split_serial`] at any thread count.
pub fn split(data: &[u8], policy: &ChunkPolicy) -> Vec<Range<usize>> {
    match *policy {
        ChunkPolicy::Cdc { avg_kib }
            if data.len() >= PARALLEL_MIN && rayon::current_num_threads() > 1 =>
        {
            split_cdc_segmented(data, CdcParams::for_avg(avg_kib), SEGMENT)
        }
        _ => split_serial(data, policy),
    }
}

/// The serial reference scan: byte-at-a-time semantics, identical output
/// to [`split`]. Kept public as the ground truth the parallel-equality
/// property suite and the ingest benchmarks compare against.
pub fn split_serial(data: &[u8], policy: &ChunkPolicy) -> Vec<Range<usize>> {
    if data.is_empty() {
        return Vec::new();
    }
    match *policy {
        ChunkPolicy::Disabled => {
            // One range spanning the whole buffer, not a collected range.
            #[allow(clippy::single_range_in_vec_init)]
            {
                vec![0..data.len()]
            }
        }
        ChunkPolicy::Fixed { kib } => {
            let block = ChunkPolicy::clamped_kib(kib);
            (0..data.len())
                .step_by(block)
                .map(|start| start..(start + block).min(data.len()))
                .collect()
        }
        ChunkPolicy::Cdc { avg_kib } => {
            let p = CdcParams::for_avg(avg_kib);
            let mut cuts = Vec::with_capacity(data.len() / (p.min * 4) + 1);
            let mut start = 0usize;
            while start < data.len() {
                let end = cut_point(&data[start..], p);
                cuts.push(start..start + end);
                start += end;
            }
            cuts
        }
    }
}

/// Segment-parallel CDC with an explicit segment length — the test and
/// bench hook behind [`split`]'s large-payload path. Output is identical
/// to [`split_serial`] for any `segment >= 1` and any thread count.
pub fn split_segmented(data: &[u8], policy: &ChunkPolicy, segment: usize) -> Vec<Range<usize>> {
    match *policy {
        ChunkPolicy::Cdc { avg_kib } if !data.is_empty() => {
            split_cdc_segmented(data, CdcParams::for_avg(avg_kib), segment.max(1))
        }
        _ => split_serial(data, policy),
    }
}

fn split_cdc_segmented(data: &[u8], p: CdcParams, segment: usize) -> Vec<Range<usize>> {
    let nseg = data.len().div_ceil(segment);
    // Phase 1 (parallel): every gear-hash match position, segment by
    // segment. `flat_map_iter` collects in segment order, so the list is
    // globally sorted and independent of scheduling.
    let matches: Vec<usize> = (0..nseg)
        .into_par_iter()
        .flat_map_iter(|s| {
            let lo = s * segment;
            let hi = data.len().min(lo + segment);
            gear_matches(data, lo, hi, p.mask).into_iter()
        })
        .collect();
    // Phase 2 (sequential stitch): replay the min/max chunk automaton
    // over the match list. O(chunks + matches), no byte re-hashed.
    stitch(&matches, data.len(), p)
}

/// Every position `j` in `[lo, hi)` where the gear hash — warmed over
/// the [`WARM`] bytes before `lo` — matches `mask` after absorbing
/// `data[j]`. The serial scan cuts at `j + 1` when it consults `j`.
fn gear_matches(data: &[u8], lo: usize, hi: usize, mask: u64) -> Vec<usize> {
    let mut h = 0u64;
    for &b in &data[lo.saturating_sub(WARM)..lo] {
        h = (h << 1).wrapping_add(GEAR[b as usize]);
    }
    // ~1 match per 2^mask_bits bytes; headroom for lumpy content.
    let mut out = Vec::with_capacity(8 + (hi - lo) / (mask as usize / 2 + 1));
    let region = &data[lo..hi];
    let mut base = lo;
    let mut words = region.chunks_exact(8);
    for w in words.by_ref() {
        // 8-byte stride: one bounds check per word, unrolled absorb.
        for (k, &b) in w.iter().enumerate() {
            h = (h << 1).wrapping_add(GEAR[b as usize]);
            if h & mask == mask {
                out.push(base + k);
            }
        }
        base += 8;
    }
    for (k, &b) in words.remainder().iter().enumerate() {
        h = (h << 1).wrapping_add(GEAR[b as usize]);
        if h & mask == mask {
            out.push(base + k);
        }
    }
    out
}

/// Replay the serial chunk automaton over a sorted match-position list:
/// from the last cut `start`, the next cut is `q + 1` for the first
/// match `q` in `[start + min, start + max)`, else `start + max`, else
/// the end of data. The cursor over `matches` only moves forward — a
/// match skipped below one chunk's legal window can never be consulted
/// by a later chunk, whose window starts even further right.
fn stitch(matches: &[usize], len: usize, p: CdcParams) -> Vec<Range<usize>> {
    let mut cuts = Vec::with_capacity(len / (p.min * 4) + 1);
    let mut start = 0usize;
    let mut mi = 0usize;
    while start < len {
        let rem = len - start;
        if rem <= p.min {
            cuts.push(start..len);
            break;
        }
        let stop = start + rem.min(p.max);
        let lo = start + p.min;
        while mi < matches.len() && matches[mi] < lo {
            mi += 1;
        }
        let end = match matches.get(mi) {
            Some(&q) if q < stop => q + 1,
            _ => stop,
        };
        cuts.push(start..end);
        start = end;
    }
    cuts
}

/// Find the next cut in `data` (relative offset): the first position after
/// `min` where the gear hash matches `mask`, else `max`, else the end.
/// Bytes before the warm-up window are skipped entirely — no cut is
/// possible there, so no hashing happens there.
fn cut_point(data: &[u8], p: CdcParams) -> usize {
    let CdcParams { mask, min, max } = p;
    if data.len() <= min {
        return data.len();
    }
    let stop = data.len().min(max);
    let mut h = 0u64;
    // Warm the hash over the bytes before the earliest legal cut so the
    // boundary decision sees a full window of context.
    for &b in &data[min.saturating_sub(WARM)..min] {
        h = (h << 1).wrapping_add(GEAR[b as usize]);
    }
    let region = &data[min..stop];
    let mut base = min;
    let mut words = region.chunks_exact(8);
    for w in words.by_ref() {
        for (k, &b) in w.iter().enumerate() {
            h = (h << 1).wrapping_add(GEAR[b as usize]);
            if h & mask == mask {
                return base + k + 1;
            }
        }
        base += 8;
    }
    for (k, &b) in words.remainder().iter().enumerate() {
        h = (h << 1).wrapping_add(GEAR[b as usize]);
        if h & mask == mask {
            return base + k + 1;
        }
    }
    stop
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    fn assert_exhaustive(ranges: &[Range<usize>], len: usize) {
        let mut at = 0;
        for r in ranges {
            assert_eq!(r.start, at);
            assert!(r.end > r.start, "empty chunk");
            at = r.end;
        }
        assert_eq!(at, len);
    }

    #[test]
    fn disabled_yields_one_chunk() {
        let data = payload(10_000, 7);
        let r = split(&data, &ChunkPolicy::Disabled);
        assert_eq!(r, vec![0..10_000]);
        assert!(split(&[], &ChunkPolicy::Disabled).is_empty());
    }

    #[test]
    fn fixed_blocks_cover_exactly() {
        let data = payload(100_000, 3);
        let r = split(&data, &ChunkPolicy::fixed(16));
        assert_exhaustive(&r, data.len());
        assert!(r[..r.len() - 1].iter().all(|c| c.len() == 16 * 1024));
    }

    #[test]
    fn cdc_average_lands_near_target() {
        let data = payload(4 << 20, 11);
        let r = split(&data, &ChunkPolicy::cdc(64));
        assert_exhaustive(&r, data.len());
        let avg = data.len() / r.len();
        assert!(
            (16 * 1024..256 * 1024).contains(&avg),
            "average chunk {avg} B for a 64 KiB target"
        );
        let min = 16 * 1024; // avg/4
        let max = 64 * 4 * 1024;
        for c in &r[..r.len() - 1] {
            assert!(c.len() >= min && c.len() <= max, "bounds: {}", c.len());
        }
    }

    #[test]
    fn cdc_boundaries_survive_a_prefix_insertion() {
        // The defining CDC property: prepend bytes and most boundaries
        // (as content positions) are unchanged, so most chunks dedup.
        let data = payload(1 << 20, 5);
        let mut shifted = payload(1111, 9);
        shifted.extend_from_slice(&data);
        let a: std::collections::HashSet<crate::Digest> = split(&data, &ChunkPolicy::cdc(16))
            .into_iter()
            .map(|r| crate::Digest::of(&data[r]))
            .collect();
        let b: Vec<crate::Digest> = split(&shifted, &ChunkPolicy::cdc(16))
            .into_iter()
            .map(|r| crate::Digest::of(&shifted[r]))
            .collect();
        let shared = b.iter().filter(|d| a.contains(d)).count();
        assert!(
            shared * 10 >= b.len() * 8,
            "only {shared}/{} chunks survived the shift",
            b.len()
        );
    }

    #[test]
    fn fixed_boundaries_do_not_survive_a_prefix_insertion() {
        let data = payload(1 << 20, 5);
        let mut shifted = vec![0xAAu8; 7];
        shifted.extend_from_slice(&data);
        let a: std::collections::HashSet<crate::Digest> = split(&data, &ChunkPolicy::fixed(16))
            .into_iter()
            .map(|r| crate::Digest::of(&data[r]))
            .collect();
        let b: Vec<crate::Digest> = split(&shifted, &ChunkPolicy::fixed(16))
            .into_iter()
            .map(|r| crate::Digest::of(&shifted[r]))
            .collect();
        let shared = b.iter().filter(|d| a.contains(d)).count();
        assert!(shared <= 1, "fixed blocks should not realign, got {shared}");
    }

    #[test]
    fn split_is_deterministic() {
        let data = payload(3 << 20, 21);
        for policy in [ChunkPolicy::cdc(32), ChunkPolicy::fixed(64)] {
            assert_eq!(split(&data, &policy), split(&data, &policy));
        }
    }

    #[test]
    fn segmented_matches_serial_at_awkward_segment_lengths() {
        // Tiny, prime and power-of-two segment lengths all stitch to the
        // serial cut list; the dedicated property suite sweeps further.
        let data = payload(1 << 20, 33);
        let policy = ChunkPolicy::cdc(16);
        let want = split_serial(&data, &policy);
        for seg in [97, 4096, 65_536, 1 << 20, 1 << 22] {
            assert_eq!(
                split_segmented(&data, &policy, seg),
                want,
                "segment {seg} B diverged"
            );
        }
    }

    #[test]
    fn policy_display_and_clamps() {
        assert_eq!(ChunkPolicy::cdc(64).to_string(), "cdc(~64 KiB)");
        assert_eq!(ChunkPolicy::fixed(16).to_string(), "fixed(16 KiB)");
        assert_eq!(ChunkPolicy::Disabled.to_string(), "disabled");
        // A silly block size still produces valid exhaustive chunks.
        let data = payload(64 * 1024, 2);
        let r = split(&data, &ChunkPolicy::fixed(0));
        assert_exhaustive(&r, data.len());
        assert!(ChunkPolicy::default_active().is_active());
        assert!(!ChunkPolicy::default().is_active());
    }
}
