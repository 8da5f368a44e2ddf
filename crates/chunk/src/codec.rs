//! Per-chunk compression.
//!
//! The build environment has no registry access, so the codec is
//! self-contained: an LZ77 byte-oriented compressor in the LZ4 spirit
//! (greedy hash-table matching, 64 KiB window, literal runs + length/
//! distance tokens) with an exact decompressor. Chunks that do not shrink
//! are stored raw, so compression never inflates and `Codec::None` is a
//! pure pass-through frame.
//!
//! The compressor's scan is shaped for the common case on checkpoint
//! payloads, a chunk that does not compress. Each match-table slot keeps
//! the 4-byte word that began at its position beside the stamped position,
//! so a miss costs one hash, one table load and one store, with no second
//! read of the input. Match extension and literal flushing sit in a cold
//! function. The frame buffer is sized for the raw frame, and an LZ stream
//! is abandoned as soon as it can no longer come out shorter than the
//! input. The scan's speed depends on the code the compiler emits for it,
//! so time any change to it on incompressible input. Its frames are held
//! bit for bit to a plain greedy loop that the tests keep as
//! `mod reference`.

use crate::chunker::MAX_CHUNK_BYTES;
use crate::error::ChunkError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Compression applied to each chunk before it is stored or shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Codec {
    /// Store chunks uncompressed.
    #[default]
    None,
    /// LZ77 compression; `level` (1–9, clamped) trades match-finding
    /// effort (hash-table size) for ratio.
    Lz4Like(u8),
}

impl Codec {
    /// Whether this codec can shrink data at all.
    pub fn is_active(&self) -> bool {
        !matches!(self, Codec::None)
    }

    /// Wire tag used in manifests.
    pub(crate) fn tag(&self) -> (u8, u8) {
        match self {
            Codec::None => (0, 0),
            Codec::Lz4Like(level) => (1, *level),
        }
    }

    /// Rebuild from a manifest tag.
    pub(crate) fn from_tag(tag: u8, level: u8) -> Result<Codec, ChunkError> {
        match tag {
            0 => Ok(Codec::None),
            1 => Ok(Codec::Lz4Like(level)),
            other => Err(ChunkError::BadManifest {
                detail: format!("unknown codec tag {other}"),
            }),
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::None => f.write_str("none"),
            Codec::Lz4Like(level) => write!(f, "lz4like({level})"),
        }
    }
}

// Frame layout: [tag: u8][ulen: u32 le][payload].
// tag 0 = raw payload, tag 1 = lz-compressed payload.
pub(crate) const FRAME_HEADER: usize = 5;
const TAG_RAW: u8 = 0;
const TAG_LZ: u8 = 1;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 127;
const MAX_DIST: usize = 65_535;
const MAX_LITERAL_RUN: usize = 128;

/// Compress `data` into a self-describing frame. The frame is at most
/// `data.len() + 5` bytes: when compression does not win, the payload is
/// stored raw.
///
/// Convenience wrapper over a throwaway [`Compressor`]; hot ingest loops
/// keep a `Compressor` per worker instead so the match table is
/// allocated once, not per chunk.
pub fn compress(codec: &Codec, data: &[u8]) -> Vec<u8> {
    Compressor::new().compress(codec, data)
}

/// Reusable compression scratch: the LZ match table survives across
/// chunks so hot ingest loops allocate it once per worker instead of
/// once per chunk (up to 2 MiB each at high levels).
///
/// Each slot holds a *stamped position* (`stamp + position`, high half)
/// beside the 4-byte word that began there (low half). Stale entries are
/// invalidated by the generation stamp rather than a table clear: the
/// stamp advances past every position after each chunk, so a slot from an
/// earlier chunk decodes to no candidate, exactly as a fresh table would,
/// and frames are bitwise identical to the one-shot path. The stamp is 32
/// bits; the one chunk that would carry it past `u32::MAX` clears the
/// table and restarts it at 1.
#[derive(Debug, Default)]
pub struct Compressor {
    table: Vec<u64>,
    /// Stamp of the current chunk; stamped positions below it are stale.
    /// Starts at 1 so the zeroed table reads as all-empty.
    stamp: u32,
}

/// What the cold path made of a slot whose word equals the current one.
enum Hit {
    /// The candidate is beyond the window: no match.
    Far,
    /// A match was emitted; scanning resumes at this position.
    Match(usize),
    /// The stream already cannot come out shorter than the input.
    Raw,
}

impl Compressor {
    /// Fresh scratch; the match table is allocated lazily on first use.
    pub fn new() -> Compressor {
        Compressor::default()
    }

    /// Compress `data` into a self-describing frame, reusing this
    /// scratch. Output is bitwise identical to [`compress`].
    pub fn compress(&mut self, codec: &Codec, data: &[u8]) -> Vec<u8> {
        // Sized for the raw frame: an LZ stream is abandoned before it
        // grows to the input's length, so the buffer never reallocates.
        let mut out = Vec::with_capacity(FRAME_HEADER + data.len());
        out.push(TAG_RAW);
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        if let Codec::Lz4Like(level) = codec {
            if self.lz_compress(data, *level, &mut out) {
                out[0] = TAG_LZ;
                out.shrink_to_fit();
                return out;
            }
            out.truncate(FRAME_HEADER);
        }
        out.extend_from_slice(data);
        out
    }

    /// Greedy LZ77 into `out` (after its header): a single-slot hash
    /// table over 4-byte prefixes; `level` widens the table, finding more
    /// distant repeats. `false` when the stream would not be shorter than
    /// `data`, which is then stored raw.
    ///
    /// The scan is the hot loop, and on incompressible chunks it is
    /// nearly all misses: a slot whose word differs from the current one
    /// is rejected without touching `data` again, and everything else is
    /// in [`Compressor::hit`].
    fn lz_compress(&mut self, data: &[u8], level: u8, out: &mut Vec<u8>) -> bool {
        // Positions are stamped in 32 bits. A chunk of 4 GiB or more is
        // stored raw; no frame header can declare its length anyway.
        if data.len() < MIN_MATCH + 1 || data.len() >= u32::MAX as usize {
            return false;
        }
        let bits = 10 + 2 * u32::from(level.clamp(1, 4));
        let len = data.len() as u32;
        if self.table.len() != 1 << bits || self.stamp.checked_add(len).is_none() {
            self.table.clear();
            self.table.resize(1 << bits, 0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        // Advance past every position this chunk will stamp, so the next
        // chunk sees all of them as stale.
        self.stamp += len;
        let table = &mut self.table[..];
        let shift = 32 - bits;

        let mut lit_start = 0usize;
        let mut pos = 0usize;
        let limit = data.len() - MIN_MATCH;
        while pos <= limit {
            let word = u32::from_le_bytes(data[pos..pos + MIN_MATCH].try_into().unwrap());
            let slot = &mut table[(word.wrapping_mul(2_654_435_761) >> shift) as usize];
            let prev = *slot;
            *slot = u64::from(stamp + pos as u32) << 32 | u64::from(word);
            // Same word, stamped during this chunk: a candidate.
            if prev as u32 == word && (prev >> 32) as u32 >= stamp {
                let cand = ((prev >> 32) as u32 - stamp) as usize;
                match Self::hit(data, pos, cand, lit_start, out) {
                    Hit::Far => {}
                    Hit::Match(next) => {
                        pos = next;
                        lit_start = next;
                        continue;
                    }
                    Hit::Raw => return false,
                }
            }
            pos += 1;
        }
        push_literals(out, &data[lit_start..], data.len())
    }

    /// Position `cand` of this chunk begins with the same 4-byte word as
    /// `pos`. If it is within the window, extend the match, flush the
    /// literals before it and emit the match token.
    #[cold]
    #[inline(never)]
    fn hit(data: &[u8], pos: usize, cand: usize, lit_start: usize, out: &mut Vec<u8>) -> Hit {
        if pos - cand > MAX_DIST {
            return Hit::Far;
        }
        let mut len = MIN_MATCH;
        let max = (data.len() - pos).min(MAX_MATCH);
        while len < max && data[cand + len] == data[pos + len] {
            len += 1;
        }
        // The token's three bytes must fit under the input length too.
        if !push_literals(out, &data[lit_start..pos], data.len() - 3) {
            return Hit::Raw;
        }
        out.push(0x80 | (len - MIN_MATCH) as u8);
        out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
        Hit::Match(pos + len)
    }
}

/// The uncompressed length a frame declares, without decompressing it.
/// The header is untrusted: a length above the largest chunk any policy
/// cuts is refused here, before any decoder sizes a buffer from it.
pub fn decompressed_len(frame: &[u8]) -> Result<usize, ChunkError> {
    let Some(&[_, a, b, c, d]) = frame.first_chunk::<FRAME_HEADER>() else {
        return Err(ChunkError::BadFrame {
            detail: format!("frame of {} B is shorter than the header", frame.len()),
        });
    };
    let ulen = u32::from_le_bytes([a, b, c, d]) as usize;
    if ulen > MAX_CHUNK_BYTES {
        return Err(ChunkError::BadFrame {
            detail: format!("frame declares {ulen} B, above the {MAX_CHUNK_BYTES} B chunk clamp"),
        });
    }
    Ok(ulen)
}

/// Decompress a frame produced by [`compress`].
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, ChunkError> {
    let mut out = Vec::new();
    decompress_into(frame, &mut out)?;
    Ok(out)
}

/// Decompress a frame into a caller-supplied buffer (cleared first, then
/// filled with exactly the declared payload). Hot read loops reuse one
/// buffer per worker instead of allocating per chunk.
pub fn decompress_into(frame: &[u8], out: &mut Vec<u8>) -> Result<(), ChunkError> {
    let ulen = decompressed_len(frame)?;
    let payload = &frame[FRAME_HEADER..];
    out.clear();
    match frame[0] {
        TAG_RAW => {
            if payload.len() != ulen {
                return Err(ChunkError::BadFrame {
                    detail: format!("raw frame declares {ulen} B but carries {}", payload.len()),
                });
            }
            out.extend_from_slice(payload);
            Ok(())
        }
        TAG_LZ => lz_decompress(payload, ulen, out),
        other => Err(ChunkError::BadFrame {
            detail: format!("unknown frame tag {other}"),
        }),
    }
}

/// The payload byte range of a *raw* frame (`Codec::None` or the
/// raw fallback), after validating the header. `None` for LZ frames.
/// Raw frames carry the chunk bytes verbatim, so a reader holding the
/// frame in a shareable buffer can serve the chunk as a zero-copy slice
/// instead of decompressing into a fresh allocation.
pub fn raw_span(frame: &[u8]) -> Result<Option<std::ops::Range<usize>>, ChunkError> {
    let ulen = decompressed_len(frame)?;
    match frame[0] {
        TAG_RAW => {
            if frame.len() - FRAME_HEADER != ulen {
                return Err(ChunkError::BadFrame {
                    detail: format!(
                        "raw frame declares {ulen} B but carries {}",
                        frame.len() - FRAME_HEADER
                    ),
                });
            }
            Ok(Some(FRAME_HEADER..frame.len()))
        }
        TAG_LZ => Ok(None),
        other => Err(ChunkError::BadFrame {
            detail: format!("unknown frame tag {other}"),
        }),
    }
}

/// Append `lits` as literal runs, unless that would carry the LZ stream
/// (what `out` holds past its frame header) to `budget` bytes or more:
/// the stream only grows, so it could no longer beat the raw frame.
fn push_literals(out: &mut Vec<u8>, mut lits: &[u8], budget: usize) -> bool {
    let cost = lits.len() + lits.len().div_ceil(MAX_LITERAL_RUN);
    if out.len() - FRAME_HEADER + cost >= budget {
        return false;
    }
    while !lits.is_empty() {
        let n = lits.len().min(MAX_LITERAL_RUN);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
    true
}

fn lz_decompress(mut src: &[u8], ulen: usize, out: &mut Vec<u8>) -> Result<(), ChunkError> {
    out.reserve(ulen);
    let truncated = || ChunkError::BadFrame {
        detail: "lz stream truncated".to_owned(),
    };
    while !src.is_empty() {
        let ctrl = src[0];
        src = &src[1..];
        if ctrl & 0x80 == 0 {
            let n = ctrl as usize + 1;
            if src.len() < n {
                return Err(truncated());
            }
            out.extend_from_slice(&src[..n]);
            src = &src[n..];
        } else {
            if src.len() < 2 {
                return Err(truncated());
            }
            let len = (ctrl & 0x7F) as usize + MIN_MATCH;
            let dist = u16::from_le_bytes([src[0], src[1]]) as usize;
            src = &src[2..];
            if dist == 0 || dist > out.len() {
                return Err(ChunkError::BadFrame {
                    detail: format!("match distance {dist} at output offset {}", out.len()),
                });
            }
            // Overlapping copies (dist < len) repeat the tail byte-wise.
            let start = out.len() - dist;
            for i in 0..len {
                let b = out[start + i];
                out.push(b);
            }
        }
        if out.len() > ulen {
            return Err(ChunkError::BadFrame {
                detail: format!("lz stream overruns declared length {ulen}"),
            });
        }
    }
    if out.len() != ulen {
        return Err(ChunkError::BadFrame {
            detail: format!("lz stream yields {} B, declared {ulen}", out.len()),
        });
    }
    Ok(())
}

/// The plain greedy loop the kernel above must match frame for frame: a
/// `u64` stamp, each candidate's bytes read back from `data`, matches
/// and literals handled inline.
#[cfg(test)]
mod reference {
    use super::{
        Codec, FRAME_HEADER, MAX_DIST, MAX_LITERAL_RUN, MAX_MATCH, MIN_MATCH, TAG_LZ, TAG_RAW,
    };

    #[derive(Debug, Default)]
    pub(super) struct Compressor {
        table: Vec<u64>,
        stamp: u64,
    }

    impl Compressor {
        pub(super) fn compress(&mut self, codec: &Codec, data: &[u8]) -> Vec<u8> {
            let ulen = data.len() as u32;
            let body = match codec {
                Codec::None => None,
                Codec::Lz4Like(level) => self.lz_compress(data, *level),
            };
            match body {
                Some(lz) if lz.len() < data.len() => {
                    let mut out = Vec::with_capacity(FRAME_HEADER + lz.len());
                    out.push(TAG_LZ);
                    out.extend_from_slice(&ulen.to_le_bytes());
                    out.extend_from_slice(&lz);
                    out
                }
                _ => {
                    let mut out = Vec::with_capacity(FRAME_HEADER + data.len());
                    out.push(TAG_RAW);
                    out.extend_from_slice(&ulen.to_le_bytes());
                    out.extend_from_slice(data);
                    out
                }
            }
        }

        fn lz_compress(&mut self, data: &[u8], level: u8) -> Option<Vec<u8>> {
            if data.len() < MIN_MATCH + 1 {
                return None;
            }
            let bits = 10 + 2 * u32::from(level.clamp(1, 4));
            if self.table.len() != 1 << bits {
                self.table.clear();
                self.table.resize(1 << bits, 0);
                self.stamp = 1;
            }
            let stamp = self.stamp;
            self.stamp += data.len() as u64;
            let table = &mut self.table[..];

            let mut out = Vec::with_capacity(data.len() / 2 + 16);
            let mut lit_start = 0usize;
            let mut pos = 0usize;
            let limit = data.len() - MIN_MATCH;

            while pos <= limit {
                let slot = hash4(data, pos, bits);
                let cand = table[slot].checked_sub(stamp).map(|c| c as usize);
                table[slot] = stamp + pos as u64;
                let found = match cand {
                    Some(cand) => {
                        pos - cand <= MAX_DIST
                            && data[cand..cand + MIN_MATCH] == data[pos..pos + MIN_MATCH]
                    }
                    None => false,
                };
                if found {
                    let cand = cand.unwrap();
                    let mut len = MIN_MATCH;
                    let max = (data.len() - pos).min(MAX_MATCH);
                    while len < max && data[cand + len] == data[pos + len] {
                        len += 1;
                    }
                    flush_literals(&mut out, &data[lit_start..pos]);
                    out.push(0x80 | (len - MIN_MATCH) as u8);
                    out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
                    pos += len;
                    lit_start = pos;
                } else {
                    pos += 1;
                }
            }
            flush_literals(&mut out, &data[lit_start..]);
            Some(out)
        }
    }

    fn hash4(data: &[u8], pos: usize, bits: u32) -> usize {
        let w = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        (w.wrapping_mul(2_654_435_761) >> (32 - bits)) as usize
    }

    fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
        while !lits.is_empty() {
            let n = lits.len().min(MAX_LITERAL_RUN);
            out.push((n - 1) as u8);
            out.extend_from_slice(&lits[..n]);
            lits = &lits[n..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
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

    fn tiled(len: usize, tile: usize, seed: u64) -> Vec<u8> {
        let t = noise(tile, seed);
        (0..len).map(|i| t[i % tile]).collect()
    }

    #[test]
    fn roundtrip_all_shapes() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0u8; 1],
            vec![7u8; 100_000],
            noise(64 * 1024, 9),
            tiled(64 * 1024, 512, 4),
            b"abcabcabcabcabcabcab".to_vec(),
            noise(3, 1),
        ];
        for codec in [Codec::None, Codec::Lz4Like(1), Codec::Lz4Like(9)] {
            for data in &cases {
                let frame = compress(&codec, data);
                assert_eq!(decompressed_len(&frame).unwrap(), data.len());
                assert_eq!(
                    &decompress(&frame).unwrap(),
                    data,
                    "{codec} {} B",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn repetitive_data_shrinks_noise_does_not_inflate() {
        let rep = tiled(256 * 1024, 512, 3);
        let frame = compress(&Codec::Lz4Like(1), &rep);
        assert!(
            frame.len() * 10 < rep.len(),
            "tiled data compresses hard: {} of {}",
            frame.len(),
            rep.len()
        );
        let rnd = noise(256 * 1024, 3);
        let frame = compress(&Codec::Lz4Like(9), &rnd);
        assert!(frame.len() <= rnd.len() + 5, "raw fallback caps inflation");
        assert_eq!(frame[0], TAG_RAW);
    }

    #[test]
    fn none_codec_is_a_raw_frame() {
        let data = tiled(4096, 64, 1);
        let frame = compress(&Codec::None, &data);
        assert_eq!(frame[0], TAG_RAW);
        assert_eq!(frame.len(), data.len() + FRAME_HEADER);
    }

    #[test]
    fn overlapping_matches_roundtrip() {
        // RLE-style: matches with dist 1.
        let mut data = vec![b'x'; 10_000];
        data.extend_from_slice(b"tail");
        let frame = compress(&Codec::Lz4Like(2), &data);
        assert!(frame.len() < 400);
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        assert!(matches!(
            decompress(&[1, 2]),
            Err(ChunkError::BadFrame { .. })
        ));
        let mut frame = compress(&Codec::Lz4Like(1), &tiled(4096, 32, 5));
        assert_eq!(frame[0], TAG_LZ);
        frame.truncate(frame.len() - 1);
        assert!(decompress(&frame).is_err());
        let bad_tag = [9u8, 0, 0, 0, 0];
        assert!(matches!(
            decompress(&bad_tag),
            Err(ChunkError::BadFrame { .. })
        ));
        // A declared-length lie in a raw frame.
        let mut raw = compress(&Codec::None, b"hello");
        raw[1] = 99;
        assert!(decompress(&raw).is_err());
    }

    #[test]
    fn levels_trade_effort_for_ratio() {
        // Repeats at distance ~24 KiB need a wider table to be found.
        let tile = noise(24 * 1024, 7);
        let mut data = tile.clone();
        data.extend_from_slice(&tile);
        let lo = compress(&Codec::Lz4Like(1), &data);
        let hi = compress(&Codec::Lz4Like(9), &data);
        assert!(hi.len() <= lo.len());
        assert!(hi.len() < data.len() / 2 + 1024, "level 9 finds the repeat");
    }

    #[test]
    fn compression_is_deterministic() {
        let data = tiled(128 * 1024, 700, 13);
        assert_eq!(
            compress(&Codec::Lz4Like(3), &data),
            compress(&Codec::Lz4Like(3), &data)
        );
    }

    #[test]
    fn reused_compressor_matches_one_shot_frames() {
        // The generation-stamped table must behave exactly like a fresh
        // table: a dirty compressor (different content, different level)
        // produces bitwise identical frames for every chunk.
        let chunks: Vec<Vec<u8>> = vec![
            tiled(64 * 1024, 512, 3),
            noise(64 * 1024, 9),
            tiled(64 * 1024, 512, 3), // repeat: stale slots would love this
            tiled(300, 30, 8),
            Vec::new(),
            noise(5, 2),
        ];
        let mut c = Compressor::new();
        for codec in [Codec::Lz4Like(1), Codec::Lz4Like(9), Codec::Lz4Like(1)] {
            for data in &chunks {
                assert_eq!(
                    c.compress(&codec, data),
                    compress(&codec, data),
                    "{codec} {} B",
                    data.len()
                );
            }
        }
    }

    /// Noise with a copy of its first `k` bytes at the end: one match of
    /// `k` bytes that wins or loses against the literal overhead, so a
    /// sweep over `k` crosses the raw/LZ boundary.
    fn noise_with_repeat(len: usize, k: usize, seed: u64) -> Vec<u8> {
        let mut data = noise(len, seed);
        let head = data[..k].to_vec();
        data.extend_from_slice(&head);
        data
    }

    fn reference_frame(codec: &Codec, data: &[u8]) -> Vec<u8> {
        reference::Compressor::default().compress(codec, data)
    }

    #[test]
    fn frames_equal_the_reference_at_every_level() {
        let mut cases: Vec<Vec<u8>> = vec![
            noise(64 * 1024, 9),
            tiled(64 * 1024, 512, 4),
            tiled(20_000, 3, 2),
            vec![0u8; 100_000],
            vec![0u8; 4096],
            b"abcabcabcabcabcabcab".to_vec(),
        ];
        for len in 0..=5 {
            cases.push(noise(len, len as u64));
            cases.push(vec![0u8; len]);
        }
        for k in (4..160).step_by(3) {
            cases.push(noise_with_repeat(1000, k, k as u64));
        }
        for level in 0..=9 {
            let codec = Codec::Lz4Like(level);
            for data in &cases {
                let frame = compress(&codec, data);
                assert_eq!(
                    frame,
                    reference_frame(&codec, data),
                    "{codec} {} B",
                    data.len()
                );
                assert_eq!(decompress(&frame).unwrap(), *data);
            }
        }
    }

    #[test]
    fn a_reused_compressor_equals_the_reference_over_mixed_chunks() {
        // Sizes, shapes and levels drawn from one stream, so every chunk
        // scans a table full of slots stamped by the chunks before it.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        let mut c = Compressor::new();
        let (mut lz, mut raw) = (0, 0);
        for i in 0..400u64 {
            let len = next(24 * 1024) as usize;
            let data = match next(4) {
                0 => noise(len, i),
                1 => tiled(len, 1 + next(700) as usize, i),
                2 => noise_with_repeat(len, (len / 8).max(4).min(len), i),
                _ => vec![next(256) as u8; len],
            };
            let codec = Codec::Lz4Like(next(10) as u8);
            let frame = c.compress(&codec, &data);
            assert_eq!(
                frame,
                reference_frame(&codec, &data),
                "chunk {i}: {codec} {len} B"
            );
            match frame[0] {
                TAG_LZ => lz += 1,
                _ => raw += 1,
            }
        }
        assert!(
            lz > 50 && raw > 50,
            "both frame kinds exercised: {lz} lz, {raw} raw"
        );
    }

    #[test]
    fn the_stamp_restarts_below_u32_max_without_a_stale_match() {
        let codec = Codec::Lz4Like(2);
        let first = noise(16 * 1024, 3);
        // `first` again 100 bytes on: were the slots `first` stamped read
        // as live after the restart, each of its words would be a match
        // candidate in range.
        let mut shifted = noise(100, 4);
        shifted.extend_from_slice(&first);
        let tile = tiled(16 * 1024, 512, 3);
        let mut c = Compressor::new();
        assert_eq!(c.compress(&codec, &first), reference_frame(&codec, &first));
        // `tile` ends exactly at the stamp's ceiling; `shifted` cannot fit
        // under it and restarts the table.
        c.stamp = u32::MAX - tile.len() as u32;
        for data in [&tile, &shifted, &tile] {
            assert_eq!(c.compress(&codec, data), reference_frame(&codec, data));
        }
        assert!(c.stamp < 1 << 20, "restarted, stamp {}", c.stamp);
    }

    #[test]
    fn decompress_into_reuses_and_clears_the_buffer() {
        let a = tiled(32 * 1024, 256, 5);
        let b = noise(1000, 6);
        let mut buf = Vec::new();
        decompress_into(&compress(&Codec::Lz4Like(2), &a), &mut buf).unwrap();
        assert_eq!(buf, a);
        // A smaller second payload must fully replace the first.
        decompress_into(&compress(&Codec::None, &b), &mut buf).unwrap();
        assert_eq!(buf, b);
    }

    #[test]
    fn raw_span_exposes_raw_payloads_only() {
        let data = noise(4096, 11);
        let raw = compress(&Codec::None, &data);
        let span = raw_span(&raw).unwrap().expect("raw frame has a span");
        assert_eq!(&raw[span], &data[..]);
        let lz = compress(&Codec::Lz4Like(1), &tiled(4096, 64, 2));
        assert_eq!(lz[0], TAG_LZ);
        assert!(raw_span(&lz).unwrap().is_none());
        assert!(raw_span(&[1, 2]).is_err());
        // A declared-length lie is caught before the span is handed out.
        let mut lie = compress(&Codec::None, b"hello");
        lie[1] = 99;
        assert!(raw_span(&lie).is_err());
    }
}
