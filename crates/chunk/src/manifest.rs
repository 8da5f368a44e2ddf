//! The on-storage description of a chunked dump.
//!
//! A chunked dump's object at the dataset path is a *manifest*: the
//! ordered list of chunk digests with their uncompressed/compressed sizes,
//! plus the policy and codec that produced them, and nothing else. The
//! frames live in plane-owned *pack* objects, one per dump that had
//! anything new to ship: `cas/pack-<id>` holds that dump's new frames
//! concatenated in first-occurrence order, and each manifest entry flags
//! whether its frame is in this dump's own pack. The pack id is the digest
//! of the encoded manifest, so a manifest names its pack without storing
//! the name, a retried dump recreates the same object, and the whole
//! `digest → (pack, offset)` index can be rebuilt from manifests alone.
//! The header keeps a flags byte that is always 0; a manifest with any
//! flag set is refused.

use crate::chunker::{ChunkPolicy, MAX_CHUNK_BYTES};
use crate::codec::{Codec, FRAME_HEADER};
use crate::digest::Digest;
use crate::error::ChunkError;

/// One chunk as a manifest records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Digest of the uncompressed chunk bytes.
    pub digest: Digest,
    /// Uncompressed length.
    pub ulen: u32,
    /// Stored (frame) length.
    pub clen: u32,
    /// The frame ships in *this* dump's pack: the first occurrence of a
    /// chunk the store did not hold.
    pub packed: bool,
}

/// A parsed manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Chunking policy that produced the boundaries (needed to re-chunk
    /// faithfully when a dump migrates between modes).
    pub policy: ChunkPolicy,
    /// Codec the frames were written with.
    pub codec: Codec,
    /// Total uncompressed (logical) bytes of the dump.
    pub logical: u64,
    /// Chunks in dump order.
    pub chunks: Vec<ChunkRef>,
}

const MAGIC: &[u8; 4] = b"MSRC";
const VERSION: u8 = 2;
const HEADER: usize = 4 + 1 + 1 + 2 + 4 + 4 + 8; // magic ver flags codec policy count logical
const ENTRY: usize = 16 + 4 + 4;
/// Top bit of an entry's `clen` word: the frame is in this dump's pack.
/// A frame is at most `MAX_CHUNK_BYTES + FRAME_HEADER` long, so the bit is
/// spare and version 2 is no larger than version 1.
const PACKED_BIT: u32 = 1 << 31;

fn policy_tag(p: &ChunkPolicy) -> (u8, u32) {
    match *p {
        ChunkPolicy::Disabled => (0, 0),
        ChunkPolicy::Fixed { kib } => (1, kib),
        ChunkPolicy::Cdc { avg_kib } => (2, avg_kib),
    }
}

fn policy_from_tag(tag: u8, param: u32) -> Result<ChunkPolicy, ChunkError> {
    match tag {
        0 => Ok(ChunkPolicy::Disabled),
        1 => Ok(ChunkPolicy::Fixed { kib: param }),
        2 => Ok(ChunkPolicy::Cdc { avg_kib: param }),
        other => Err(ChunkError::BadManifest {
            detail: format!("unknown policy tag {other}"),
        }),
    }
}

impl Manifest {
    /// Total stored bytes of all frames.
    pub fn stored_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.clen as u64).sum()
    }

    /// Stored bytes of the frames flagged into this dump's pack — the
    /// pack object's length (0: the dump was fully deduplicated and has
    /// no pack).
    pub fn packed_bytes(&self) -> u64 {
        self.chunks
            .iter()
            .filter(|c| c.packed)
            .map(|c| c.clen as u64)
            .sum()
    }

    /// Size of the header + chunk table: the manifest object itself.
    pub fn header_bytes(&self) -> u64 {
        (HEADER + self.chunks.len() * ENTRY) as u64
    }

    /// Encode the header + chunk table.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + self.chunks.len() * ENTRY);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(0); // flags: none defined
        let (ctag, clevel) = self.codec.tag();
        out.push(ctag);
        out.push(clevel);
        let (ptag, pparam) = policy_tag(&self.policy);
        out.push(ptag);
        out.extend_from_slice(&pparam.to_le_bytes()[..3]);
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.logical.to_le_bytes());
        for c in &self.chunks {
            debug_assert!(c.clen & PACKED_BIT == 0, "frame length uses the flag bit");
            let clen = if c.packed {
                c.clen | PACKED_BIT
            } else {
                c.clen
            };
            out.extend_from_slice(c.digest.as_bytes());
            out.extend_from_slice(&c.ulen.to_le_bytes());
            out.extend_from_slice(&clen.to_le_bytes());
        }
        out
    }

    /// Decode a manifest object: a header and a chunk table, nothing
    /// after them. The bytes are untrusted: every count and length is
    /// bounded before anything is sized or sliced from it.
    pub fn decode(data: &[u8]) -> Result<Manifest, ChunkError> {
        let bad = |detail: String| ChunkError::BadManifest { detail };
        let Some(head) = data.first_chunk::<HEADER>() else {
            return Err(bad(format!("{} B is shorter than the header", data.len())));
        };
        if &head[..4] != MAGIC {
            return Err(bad("bad magic — not a chunk manifest".to_owned()));
        }
        if head[4] != VERSION {
            return Err(bad(format!("unsupported manifest version {}", head[4])));
        }
        if head[5] != 0 {
            return Err(bad(format!("unknown header flags {:#04x}", head[5])));
        }
        let codec = Codec::from_tag(head[6], head[7])?;
        let policy = policy_from_tag(
            head[8],
            u32::from_le_bytes([head[9], head[10], head[11], 0]),
        )?;
        let count = le_u32(&head[12..16]) as usize;
        let logical = u64::from_le_bytes(head[16..24].try_into().expect("8-byte slice"));
        // The table must be exactly what was read before `count` sizes
        // anything: no entry missing, no byte after the last.
        let table = data[HEADER..].chunks_exact(ENTRY);
        if table.len() != count || !table.remainder().is_empty() {
            return Err(bad(format!(
                "{} B after the header do not hold the {count} declared entries",
                data.len() - HEADER
            )));
        }
        let mut chunks = Vec::with_capacity(count);
        let mut total = 0u64;
        for (i, e) in table.enumerate() {
            let word = le_u32(&e[20..24]);
            let c = ChunkRef {
                digest: Digest(e[..16].try_into().expect("16-byte slice")),
                ulen: le_u32(&e[16..20]),
                clen: word & !PACKED_BIT,
                packed: word & PACKED_BIT != 0,
            };
            let (ulen, clen) = (c.ulen as usize, c.clen as usize);
            if ulen == 0 || ulen > MAX_CHUNK_BYTES {
                return Err(bad(format!(
                    "chunk {i} declares {ulen} B, outside 1..={MAX_CHUNK_BYTES}"
                )));
            }
            if !(FRAME_HEADER..=ulen + FRAME_HEADER).contains(&clen) {
                return Err(bad(format!(
                    "chunk {i} declares a {clen} B frame for {ulen} B of data"
                )));
            }
            total += u64::from(c.ulen);
            chunks.push(c);
        }
        if total != logical {
            return Err(bad(format!(
                "chunk lengths sum to {total} B but header declares {logical}"
            )));
        }
        Ok(Manifest {
            policy,
            codec,
            logical,
            chunks,
        })
    }
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte slice"))
}

/// The object name of the pack a manifest with digest `id` owns.
pub fn pack_path(id: &Digest) -> String {
    format!("cas/pack-{}", id.hex())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            policy: ChunkPolicy::cdc(64),
            codec: Codec::Lz4Like(3),
            logical: 300,
            chunks: vec![
                ChunkRef {
                    digest: Digest::of(b"a"),
                    ulen: 100,
                    clen: 40,
                    packed: false,
                },
                ChunkRef {
                    digest: Digest::of(b"b"),
                    ulen: 200,
                    clen: 205,
                    packed: true,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let enc = m.encode();
        assert_eq!(enc.len() as u64, m.header_bytes());
        assert_eq!(enc[5], 0, "no header flag is defined");
        let back = Manifest::decode(&enc).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.stored_bytes(), 245);
        assert_eq!(back.packed_bytes(), 205);
    }

    #[test]
    fn the_packed_flag_rides_in_a_spare_bit() {
        // Version 2 costs no bytes over version 1, and flipping the flag
        // changes the bytes — hence the pack id.
        let m = sample();
        let mut unflagged = m.clone();
        unflagged.chunks[1].packed = false;
        assert_eq!(m.encode().len(), HEADER + 2 * ENTRY);
        assert_ne!(m.encode(), unflagged.encode());
    }

    #[test]
    fn corrupt_manifests_are_typed_errors() {
        let enc = sample().encode();
        // Truncated table.
        assert!(matches!(
            Manifest::decode(&enc[..enc.len() - 1]),
            Err(ChunkError::BadManifest { .. })
        ));
        // Bytes after the table: a manifest object is nothing else.
        let mut long = enc.clone();
        long.extend_from_slice(&[9u8; 245]);
        assert!(matches!(
            Manifest::decode(&long),
            Err(ChunkError::BadManifest { .. })
        ));
        // Bad magic.
        let mut bad = enc.clone();
        bad[0] = b'X';
        assert!(Manifest::decode(&bad).is_err());
        // Length lie.
        let mut lie = enc.clone();
        lie[16] ^= 1;
        assert!(Manifest::decode(&lie).is_err());
        // Not even a header.
        assert!(Manifest::decode(b"short").is_err());
        // The version-1 layout is gone, not tolerated.
        let mut v1 = enc.clone();
        v1[4] = 1;
        assert!(Manifest::decode(&v1).is_err());
        // No header flag is defined: the retired inline bit, and every
        // other nonzero flags byte, is refused.
        for flags in 1..=u8::MAX {
            let mut flagged = enc.clone();
            flagged[5] = flags;
            assert!(
                matches!(
                    Manifest::decode(&flagged),
                    Err(ChunkError::BadManifest { .. })
                ),
                "flags {flags:#04x}"
            );
        }
    }

    #[test]
    fn empty_manifest_roundtrips() {
        let m = Manifest {
            policy: ChunkPolicy::fixed(16),
            codec: Codec::None,
            logical: 0,
            chunks: Vec::new(),
        };
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn pack_path_shape() {
        let d = Digest::of(b"x");
        assert_eq!(pack_path(&d), format!("cas/pack-{}", d.hex()));
    }
}
