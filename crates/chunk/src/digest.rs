//! 128-bit content digests.

use std::fmt;

/// A 128-bit content digest of an (uncompressed) chunk.
///
/// The function is a two-lane multiply/rotate mix (xxHash-style) — not
/// cryptographic, but with full avalanche over both lanes it is collision
/// safe at the scales this system stores, and it is a pure function of the
/// input bytes so digests are identical at any thread count and across
/// runs. Digests key the [`crate::ChunkStore`]; the digest of a dump's
/// encoded manifest names its `cas/pack-<hex>` object on storage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 16]);

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// SplitMix64-style avalanche finalizer.
const fn fmix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 32;
    x
}

fn word(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(buf)
}

impl Digest {
    /// Digest `data`.
    pub fn of(data: &[u8]) -> Digest {
        let mut a = P1 ^ (data.len() as u64).wrapping_mul(P3);
        let mut b = P2 ^ (data.len() as u64).rotate_left(32);
        let mut chunks = data.chunks_exact(16);
        for stripe in &mut chunks {
            let lo = u64::from_le_bytes(stripe[..8].try_into().unwrap());
            let hi = u64::from_le_bytes(stripe[8..].try_into().unwrap());
            a = (a ^ lo.wrapping_mul(P2)).rotate_left(27).wrapping_mul(P1);
            b = (b ^ hi.wrapping_mul(P1)).rotate_left(31).wrapping_mul(P2);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let lo = word(tail);
            let hi = if tail.len() > 8 { word(&tail[8..]) } else { 0 };
            a = (a ^ lo.wrapping_mul(P3)).rotate_left(23).wrapping_mul(P1);
            b = (b ^ hi.wrapping_mul(P3)).rotate_left(29).wrapping_mul(P2);
        }
        // Cross-mix the lanes so every input bit reaches both words.
        let x = fmix(a ^ b.rotate_left(17));
        let y = fmix(b ^ x);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&x.to_le_bytes());
        out[8..].copy_from_slice(&y.to_le_bytes());
        Digest(out)
    }

    /// Lowercase hex form (32 chars) — what a pack's object name under
    /// `cas/` ends in.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use std::fmt::Write;
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// First 12 hex chars, for logs.
    pub fn short(&self) -> String {
        self.hex()[..12].to_owned()
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_length_sensitive() {
        let a = Digest::of(b"hello world");
        assert_eq!(a, Digest::of(b"hello world"));
        assert_ne!(a, Digest::of(b"hello worlD"));
        assert_ne!(Digest::of(b""), Digest::of(b"\0"));
        assert_ne!(Digest::of(b"\0"), Digest::of(b"\0\0"));
    }

    #[test]
    fn single_bit_flips_change_the_digest_everywhere() {
        let base: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let d0 = Digest::of(&base);
        for pos in [0usize, 7, 15, 16, 100, 2048, 4095] {
            let mut v = base.clone();
            v[pos] ^= 1;
            assert_ne!(Digest::of(&v), d0, "flip at {pos}");
        }
    }

    #[test]
    fn no_collisions_over_small_corpus() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..5000u32 {
            let data: Vec<u8> = i.to_le_bytes().repeat(3 + (i as usize % 5));
            assert!(seen.insert(Digest::of(&data)), "collision at {i}");
        }
    }

    #[test]
    fn hex_roundtrip_shape() {
        let d = Digest::of(b"x");
        assert_eq!(d.hex().len(), 32);
        assert_eq!(d.short().len(), 12);
        assert!(d.hex().starts_with(&d.short()));
        assert_eq!(d.to_string(), d.hex());
    }
}
