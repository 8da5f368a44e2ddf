//! Hostile bytes: a version-2 manifest and a frame are decoded from
//! storage, so every mutation of them — truncation, bit flips, lying
//! counts and lengths, oversize declared lengths — must end in a typed
//! [`ChunkError`] (or decode to something the index still vouches for;
//! what the index refuses, edit by edit, is `store.rs`'s unit test).
//! Nothing may panic, and nothing may size an allocation from an
//! unchecked length.

use msr_chunk::{
    compress, decompress, decompress_into, decompressed_len, raw_span, ChunkError, ChunkPolicy,
    ChunkRef, ChunkStore, Codec, Digest, Manifest, MAX_CHUNK_BYTES as CLAMP,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request.
struct Watermark;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a relaxed counter.
unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Watermark = Watermark;

/// Run `corpus`, then check no single allocation inside it (or anywhere
/// else in this binary so far) went past the clamp plus a frame header's
/// worth of slack.
fn bounded(corpus: impl FnOnce()) {
    corpus();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= CLAMP + 4096,
        "an allocation of {largest} B was sized from hostile bytes"
    );
}

fn tiled(len: usize, tile: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i % tile) as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Truncations to every length, and every single-bit flip.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|n| bytes[..n].to_vec());
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut m = bytes.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        m
    });
    cuts.chain(flips)
}

/// A store holding two dumps — the second keeps two chunks of the first,
/// adds one and repeats one — and the second dump's manifest and pack id.
fn history() -> (ChunkStore, Manifest, Digest) {
    let chunk = |seed: u8, len: usize, packed: bool| {
        let data = tiled(len, 61, seed);
        ChunkRef {
            digest: Digest::of(&data),
            ulen: len as u32,
            clen: compress(&Codec::Lz4Like(1), &data).len() as u32,
            packed,
        }
    };
    let manifest = |chunks: Vec<ChunkRef>| Manifest {
        policy: ChunkPolicy::cdc(8),
        codec: Codec::Lz4Like(1),
        logical: chunks.iter().map(|c| u64::from(c.ulen)).sum(),
        chunks,
    };
    let mut store = ChunkStore::new();
    let base = manifest(vec![
        chunk(1, 9000, true),
        chunk(2, 7000, true),
        chunk(3, 8000, true),
    ]);
    store.commit(&base.chunks, Digest::of(&base.encode()));
    let next = manifest(vec![
        chunk(1, 9000, false),
        chunk(4, 6000, true),
        chunk(3, 8000, false),
        chunk(1, 9000, false),
    ]);
    let id = Digest::of(&next.encode());
    store.commit(&next.chunks, id);
    (store, next, id)
}

#[test]
fn mutated_manifests_decode_to_typed_errors_or_to_what_the_index_vouches_for() {
    bounded(|| {
        let (store, manifest, id) = history();
        let good = manifest.encode();
        let good_plan = store.read_plan(&manifest, &id).unwrap();
        let mut survivors = 0;
        for bytes in mutations(&good) {
            let Ok(m) = Manifest::decode(&bytes) else {
                continue;
            };
            // Decoded: the frames it names must still resolve through
            // the index, under the pack id of the bytes as read, or be
            // refused. Any flip moves the pack id away from where the
            // flagged frame lives, so the one mutation that resolves is
            // the flip clearing that flag — and it names the same frames
            // in the same places.
            if let Ok(plan) = store.read_plan(&m, &Digest::of(&bytes)) {
                assert_eq!(plan, good_plan);
                survivors += 1;
            }
        }
        assert_eq!(survivors, 1);

        // Lying counts: more entries than the table holds, up to a count
        // that would size a 100 GB vector.
        for count in [5u32, 1 << 20, u32::MAX] {
            let mut lie = good.clone();
            lie[12..16].copy_from_slice(&count.to_le_bytes());
            assert!(matches!(
                Manifest::decode(&lie),
                Err(ChunkError::BadManifest { .. })
            ));
        }
        // Lying lengths: an oversize and a zero `ulen`, a frame longer
        // than its chunk could ever compress to, a frame shorter than a
        // header.
        let entry = 24; // first table entry; ulen at +16, clen at +20
        for (at, value) in [
            (entry + 16, (CLAMP as u32 + 1).to_le_bytes()),
            (entry + 16, 0u32.to_le_bytes()),
            (entry + 20, 9006u32.to_le_bytes()),
            (entry + 20, 4u32.to_le_bytes()),
        ] {
            let mut lie = good.clone();
            lie[at..at + 4].copy_from_slice(&value);
            assert!(
                matches!(Manifest::decode(&lie), Err(ChunkError::BadManifest { .. })),
                "lie at byte {at}"
            );
        }
    });
}

#[test]
fn mutated_frames_decode_to_typed_errors() {
    bounded(|| {
        let data = tiled(6000, 61, 9);
        for codec in [Codec::None, Codec::Lz4Like(1)] {
            let good = compress(&codec, &data);
            for frame in mutations(&good) {
                // Whatever the decoders make of it, they agree with each
                // other, never return more than the clamp, and a success
                // is exactly as long as the header said.
                let declared = decompressed_len(&frame);
                let _ = raw_span(&frame);
                match decompress(&frame) {
                    Ok(out) => assert_eq!(Ok(out.len()), declared),
                    Err(e) => assert!(matches!(e, ChunkError::BadFrame { .. })),
                }
            }
            // An oversize declared length is refused before any buffer is
            // sized from it — by every entry point.
            for ulen in [CLAMP as u32 + 1, u32::MAX] {
                let mut lie = good.clone();
                lie[1..5].copy_from_slice(&ulen.to_le_bytes());
                assert!(matches!(
                    decompressed_len(&lie),
                    Err(ChunkError::BadFrame { .. })
                ));
                assert!(raw_span(&lie).is_err());
                assert!(decompress_into(&lie, &mut Vec::new()).is_err());
            }
            // A merely wrong one is caught by the payload check.
            let mut lie = good.clone();
            lie[1..5].copy_from_slice(&5999u32.to_le_bytes());
            assert!(decompress(&lie).is_err());
        }
    });
}
