//! The per-resource chunk index: refcounts, frame locations, pack lives.

use crate::digest::Digest;
use crate::error::ChunkError;
use crate::manifest::{ChunkRef, Manifest};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Book-keeping for one stored chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkEntry {
    /// Manifest references (one per occurrence in every live manifest).
    refs: u32,
    /// Uncompressed length.
    ulen: u32,
    /// Stored frame length.
    clen: u32,
    /// The pack holding the frame, and the frame's offset in it.
    pack: Digest,
    offset: u64,
}

/// Book-keeping for one pack object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackEntry {
    /// Length of the pack object.
    bytes: u64,
    /// Live frames located in the pack. The object is deleted when the
    /// last one dies — whole-pack reclamation only.
    live_frames: u32,
    /// Stored bytes of those live frames; the rest of the pack is dead.
    live_bytes: u64,
}

/// Where one stored frame lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLoc {
    /// Id of the pack holding the frame (see [`crate::pack_path`]).
    pub pack: Digest,
    /// Offset of the frame inside the pack.
    pub offset: u64,
    /// Uncompressed length.
    pub ulen: u32,
    /// Stored frame length.
    pub clen: u32,
}

/// One contiguous byte range of a pack and the frames cut from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackRun {
    /// Offset of the run inside the pack.
    pub offset: u64,
    /// Length of the run: exactly the bytes of its frames.
    pub len: usize,
    /// The frames, as ranges relative to the start of the run.
    pub frames: Vec<(Digest, Range<usize>)>,
}

/// What a dump needs from one pack: each run of abutting frames is one
/// native read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackRead {
    /// Pack id.
    pub pack: Digest,
    /// Length the index recorded for the pack object.
    pub bytes: u64,
    /// Runs in ascending offset order.
    pub runs: Vec<PackRun>,
}

/// Aggregate counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct chunks currently stored.
    pub chunks: usize,
    /// Pack objects currently holding them.
    pub packs: usize,
    /// Sum of stored frame lengths.
    pub stored_bytes: u64,
    /// Bytes of dead frames inside live packs: what a compaction pass
    /// would reclaim (none is built yet — a pack is only deleted whole).
    pub dead_bytes: u64,
    /// Sum of uncompressed lengths (each distinct chunk counted once).
    pub unique_logical_bytes: u64,
    /// Lifetime dedup hits (a reference acquired on an already-present
    /// chunk).
    pub hits: u64,
    /// Lifetime chunk inserts (references that had to ship bytes).
    pub inserts: u64,
    /// Lifetime chunks garbage-collected after their last reference.
    pub gcs: u64,
}

/// A per-resource content-addressed chunk index: digest → refcount,
/// sizes and `(pack, offset)`, plus per-pack live-frame counts. The store
/// tracks *metadata only*; the frames themselves live in `cas/pack-<id>`
/// objects on the owning storage resource. Reclamation is refcount-driven:
/// when retention pruning (or an overwrite) kills the last live frame of a
/// pack, the caller deletes the object.
///
/// Lookups are digest-keyed hash-map probes — the hot ingest path does
/// one per chunk occurrence — and nothing that returns an order iterates
/// a table: pack lists come back in the order the caller's chunk list
/// produced them.
#[derive(Debug, Clone, Default)]
pub struct ChunkStore {
    chunks: HashMap<Digest, ChunkEntry>,
    packs: HashMap<Digest, PackEntry>,
    stored_bytes: u64,
    unique_logical: u64,
    hits: u64,
    inserts: u64,
    gcs: u64,
}

impl ChunkStore {
    /// An empty store.
    pub fn new() -> ChunkStore {
        ChunkStore::default()
    }

    /// Whether `digest` is already stored (its frame need not be shipped).
    pub fn contains(&self, digest: &Digest) -> bool {
        self.chunks.contains_key(digest)
    }

    /// Where the frame of a stored chunk lives, and its sizes. A dedup hit
    /// records these sizes in its manifest — the frame on storage keeps
    /// whatever codec it was first written with.
    pub fn locate(&self, digest: &Digest) -> Option<FrameLoc> {
        self.chunks.get(digest).map(|e| FrameLoc {
            pack: e.pack,
            offset: e.offset,
            ulen: e.ulen,
            clen: e.clen,
        })
    }

    /// Current reference count of `digest` (0 when absent).
    pub fn refs(&self, digest: &Digest) -> u32 {
        self.chunks.get(digest).map(|e| e.refs).unwrap_or(0)
    }

    /// Commit one dump's references, in dump order. An entry flagged
    /// `packed` is a new chunk: it enters the index at the running offset
    /// of `pack` (the flagged frames concatenate in this order). Every
    /// other entry adds a reference to a chunk already stored. The caller
    /// flags entries against this store under one lock, so a flagged
    /// chunk is absent and an unflagged one present.
    pub fn commit(&mut self, chunks: &[ChunkRef], pack: Digest) {
        let bytes = chunks
            .iter()
            .filter(|c| c.packed)
            .map(|c| u64::from(c.clen))
            .sum();
        let mut offset = 0u64;
        for c in chunks {
            match self.chunks.entry(c.digest) {
                Entry::Vacant(v) => {
                    debug_assert!(c.packed, "unflagged {} not in the store", c.digest.short());
                    if !c.packed {
                        continue;
                    }
                    v.insert(ChunkEntry {
                        refs: 1,
                        ulen: c.ulen,
                        clen: c.clen,
                        pack,
                        offset,
                    });
                    let p = self.packs.entry(pack).or_insert(PackEntry {
                        bytes,
                        live_frames: 0,
                        live_bytes: 0,
                    });
                    p.live_frames += 1;
                    p.live_bytes += u64::from(c.clen);
                    self.stored_bytes += u64::from(c.clen);
                    self.unique_logical += u64::from(c.ulen);
                    self.inserts += 1;
                }
                Entry::Occupied(mut o) => {
                    debug_assert!(!c.packed, "flagged {} already stored", c.digest.short());
                    o.get_mut().refs += 1;
                    self.hits += 1;
                }
            }
            if c.packed {
                offset += u64::from(c.clen);
            }
        }
    }

    /// Drop one reference to `digest`. Returns the pack whose last live
    /// frame this killed. An unknown digest (double release) is a
    /// tolerated no-op.
    fn release(&mut self, digest: &Digest) -> Option<Digest> {
        let Entry::Occupied(mut o) = self.chunks.entry(*digest) else {
            return None;
        };
        let e = o.get_mut();
        // Entries are inserted with one reference and removed the moment
        // their last one drops, so a live entry always has refs >= 1; a
        // zero here means a release/commit pairing bug upstream.
        debug_assert!(e.refs > 0, "refcount underflow on {}", digest.short());
        e.refs -= 1;
        if e.refs > 0 {
            return None;
        }
        let e = o.remove();
        self.stored_bytes -= u64::from(e.clen);
        self.unique_logical -= u64::from(e.ulen);
        self.gcs += 1;
        let Entry::Occupied(mut p) = self.packs.entry(e.pack) else {
            return None;
        };
        let pack = p.get_mut();
        pack.live_frames -= 1;
        pack.live_bytes -= u64::from(e.clen);
        if pack.live_frames > 0 {
            return None;
        }
        p.remove();
        Some(e.pack)
    }

    /// Release one reference per entry of `refs` (a dropped manifest's
    /// chunk list) in a single pass, returning the packs whose *last*
    /// live frame died — in first-died dump order, ready for the caller's
    /// object deletes.
    pub fn release_all<'a>(&mut self, refs: impl IntoIterator<Item = &'a ChunkRef>) -> Vec<Digest> {
        refs.into_iter()
            .filter_map(|c| self.release(&c.digest))
            .collect()
    }

    /// Plan the reads that fetch every distinct frame of `manifest`: packs
    /// in first-occurrence order, and per pack the referenced frames in
    /// offset order, merged into runs wherever they abut. Nothing between
    /// runs is read.
    ///
    /// The manifest came off storage and is untrusted; the index is the
    /// authority. Lengths that differ from the index, a packed flag whose
    /// derived `(own_pack, offset)` is not where the index put the frame,
    /// flagged lengths that do not add up to the pack, and a range past
    /// the end of its pack are each a typed error — the caller slices
    /// only what this returns.
    pub fn read_plan(
        &self,
        manifest: &Manifest,
        own_pack: &Digest,
    ) -> Result<Vec<PackRead>, ChunkError> {
        let lies = |i: usize, c: &ChunkRef, what: String| ChunkError::BadManifest {
            detail: format!("chunk {i} ({}) {what}", c.digest.short()),
        };
        let mut seen: HashSet<Digest> = HashSet::with_capacity(manifest.chunks.len());
        let mut order: Vec<Digest> = Vec::new();
        let mut wanted: HashMap<Digest, Vec<(u64, Digest, u32)>> = HashMap::new();
        let mut own_at = 0u64;
        for (i, c) in manifest.chunks.iter().enumerate() {
            let Some(loc) = self.locate(&c.digest) else {
                return Err(lies(i, c, "is not in the store index".to_owned()));
            };
            if (loc.ulen, loc.clen) != (c.ulen, c.clen) {
                return Err(lies(
                    i,
                    c,
                    format!(
                        "declares {}/{} B, the index holds {}/{} B",
                        c.ulen, c.clen, loc.ulen, loc.clen
                    ),
                ));
            }
            let first = seen.insert(c.digest);
            if c.packed {
                if !first || (loc.pack, loc.offset) != (*own_pack, own_at) {
                    return Err(lies(
                        i,
                        c,
                        format!(
                            "is flagged at offset {own_at} of this dump's pack but is not there"
                        ),
                    ));
                }
                own_at += u64::from(c.clen);
            }
            if first {
                let frames = wanted.entry(loc.pack).or_insert_with(|| {
                    order.push(loc.pack);
                    Vec::new()
                });
                frames.push((loc.offset, c.digest, c.clen));
            }
        }
        if own_at > 0 && self.packs.get(own_pack).map(|p| p.bytes) != Some(own_at) {
            return Err(ChunkError::BadPack {
                detail: format!(
                    "flagged frames add up to {own_at} B, not the length of pack {}",
                    own_pack.short()
                ),
            });
        }
        let mut plan = Vec::with_capacity(order.len());
        for pack in order {
            let mut frames = wanted.remove(&pack).expect("ordered packs are wanted");
            frames.sort_unstable_by_key(|&(offset, ..)| offset);
            let bytes = self.packs.get(&pack).map_or(0, |p| p.bytes);
            let mut runs: Vec<PackRun> = Vec::new();
            for (offset, digest, clen) in frames {
                let clen = clen as usize;
                if offset + clen as u64 > bytes {
                    return Err(ChunkError::BadPack {
                        detail: format!(
                            "frame {} spans {offset}..{} of the {bytes} B pack {}",
                            digest.short(),
                            offset + clen as u64,
                            pack.short()
                        ),
                    });
                }
                match runs.last_mut() {
                    Some(run) if run.offset + run.len as u64 == offset => {
                        run.frames.push((digest, run.len..run.len + clen));
                        run.len += clen;
                    }
                    _ => runs.push(PackRun {
                        offset,
                        len: clen,
                        frames: vec![(digest, 0..clen)],
                    }),
                }
            }
            plan.push(PackRead { pack, bytes, runs });
        }
        Ok(plan)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            chunks: self.chunks.len(),
            packs: self.packs.len(),
            stored_bytes: self.stored_bytes,
            dead_bytes: self.packs.values().map(|p| p.bytes - p.live_bytes).sum(),
            unique_logical_bytes: self.unique_logical,
            hits: self.hits,
            inserts: self.inserts,
            gcs: self.gcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChunkPolicy, Codec};

    fn d(s: &str) -> Digest {
        Digest::of(s.as_bytes())
    }

    /// A reference to an already-stored chunk.
    fn hit(s: &str, ulen: u32, clen: u32) -> ChunkRef {
        ChunkRef {
            digest: d(s),
            ulen,
            clen,
            packed: false,
        }
    }

    /// A new chunk, shipped in the committing dump's pack.
    fn new(s: &str, ulen: u32, clen: u32) -> ChunkRef {
        ChunkRef {
            packed: true,
            ..hit(s, ulen, clen)
        }
    }

    fn manifest(chunks: &[ChunkRef]) -> Manifest {
        Manifest {
            policy: ChunkPolicy::fixed(4),
            codec: Codec::None,
            logical: chunks.iter().map(|c| u64::from(c.ulen)).sum(),
            chunks: chunks.to_vec(),
        }
    }

    #[test]
    fn commit_release_refcount_lifecycle() {
        let mut s = ChunkStore::new();
        s.commit(&[new("a", 100, 40)], d("p1"));
        s.commit(&[hit("a", 100, 40)], d("p2"));
        assert_eq!(s.refs(&d("a")), 2);
        assert_eq!(s.stats().stored_bytes, 40);
        assert_eq!(s.stats().unique_logical_bytes, 100);
        assert_eq!(s.stats().packs, 1, "a fully deduplicated dump has no pack");

        assert!(s.release_all(&[hit("a", 100, 40)]).is_empty());
        assert_eq!(
            s.release_all(&[hit("a", 100, 40)]),
            vec![d("p1")],
            "the last reference kills the frame and its pack"
        );
        assert_eq!(s.stats().stored_bytes, 0);
        assert_eq!((s.stats().gcs, s.stats().packs), (1, 0));
        assert!(
            s.release_all(&[hit("a", 100, 40)]).is_empty(),
            "double release is a tolerated no-op"
        );
    }

    #[test]
    fn frames_land_at_running_offsets_in_dump_order() {
        let mut s = ChunkStore::new();
        // Dump order [a, b, a, c]: the repeat is a hit on the dump's own
        // pack and takes no room in it.
        let m = [
            new("a", 10, 5),
            new("b", 20, 8),
            hit("a", 10, 5),
            new("c", 30, 9),
        ];
        s.commit(&m, d("p"));
        let at = |name: &str| s.locate(&d(name)).map(|l| (l.pack, l.offset));
        assert_eq!(at("a"), Some((d("p"), 0)));
        assert_eq!(at("b"), Some((d("p"), 5)));
        assert_eq!(at("c"), Some((d("p"), 13)));
        assert_eq!(s.refs(&d("a")), 2);
        let st = s.stats();
        assert_eq!((st.inserts, st.hits, st.chunks), (3, 1, 3));
        assert_eq!((st.stored_bytes, st.dead_bytes), (22, 0));
    }

    #[test]
    fn a_pack_dies_with_its_last_live_frame_and_not_before() {
        let mut s = ChunkStore::new();
        let m1 = [new("a", 10, 5), new("b", 20, 8), hit("a", 10, 5)];
        s.commit(&m1, d("p1"));
        let m2 = [hit("b", 20, 8), new("c", 30, 9)];
        s.commit(&m2, d("p2"));
        // Dropping m1 kills `a` but `b` keeps p1 alive: 5 dead bytes.
        assert!(s.release_all(&m1).is_empty());
        assert_eq!(s.refs(&d("b")), 1);
        let st = s.stats();
        assert_eq!((st.gcs, st.packs, st.dead_bytes), (1, 2, 5));
        // Dropping m2 kills both packs, in the order their frames died.
        assert_eq!(s.release_all(&m2), vec![d("p1"), d("p2")]);
        let st = s.stats();
        assert_eq!((st.chunks, st.packs, st.dead_bytes), (0, 0, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "refcount underflow")]
    fn refcount_underflow_is_asserted_in_debug() {
        // Force the invariant violation the debug assertion guards: a
        // zero-ref entry reached by release. Only constructible by
        // reaching into the private map, which is the point — the public
        // API cannot produce it, and the assertion keeps it that way.
        let mut s = ChunkStore::new();
        s.commit(&[new("a", 10, 5)], d("p"));
        s.chunks.get_mut(&d("a")).unwrap().refs = 0;
        let _ = s.release_all(&[hit("a", 10, 5)]);
    }

    #[test]
    fn read_plan_groups_by_pack_and_merges_abutting_frames() {
        let mut s = ChunkStore::new();
        let base = [
            new("a", 10, 5),
            new("b", 10, 6),
            new("c", 10, 7),
            new("e", 10, 8),
        ];
        s.commit(&base, d("p0"));
        // The next dump keeps a, b and e, replaces c by x and repeats a.
        let next = [
            hit("a", 10, 5),
            hit("b", 10, 6),
            new("x", 10, 9),
            hit("e", 10, 8),
            hit("a", 10, 5),
        ];
        s.commit(&next, d("p1"));
        let plan = s.read_plan(&manifest(&next), &d("p1")).unwrap();
        assert_eq!(
            plan,
            vec![
                PackRead {
                    pack: d("p0"),
                    bytes: 26,
                    runs: vec![
                        PackRun {
                            offset: 0,
                            len: 11,
                            frames: vec![(d("a"), 0..5), (d("b"), 5..11)],
                        },
                        PackRun {
                            offset: 18,
                            len: 8,
                            frames: vec![(d("e"), 0..8)],
                        },
                    ],
                },
                PackRead {
                    pack: d("p1"),
                    bytes: 9,
                    runs: vec![PackRun {
                        offset: 0,
                        len: 9,
                        frames: vec![(d("x"), 0..9)],
                    }],
                },
            ]
        );
    }

    #[test]
    fn read_plan_refuses_manifests_that_disagree_with_the_index() {
        let mut s = ChunkStore::new();
        let m = [new("a", 10, 5), new("b", 10, 6)];
        s.commit(&m, d("p"));
        let plan = |chunks: &[ChunkRef], own: &str| s.read_plan(&manifest(chunks), &d(own));
        assert!(plan(&m, "p").is_ok());
        // A chunk the index never saw.
        assert!(matches!(
            plan(&[m[0], hit("z", 10, 5)], "p"),
            Err(ChunkError::BadManifest { .. })
        ));
        // A lying frame length, and a lying uncompressed length.
        assert!(plan(&[m[0], new("b", 10, 7)], "p").is_err());
        assert!(plan(&[m[0], new("b", 11, 6)], "p").is_err());
        // A flag on a frame that lives in another pack, a flag that moves
        // the derived offset, and a flag on a repeat.
        assert!(plan(&m, "other").is_err());
        assert!(plan(&[m[1], m[0]], "p").is_err());
        assert!(plan(&[m[0], m[1], m[0]], "p").is_err());
        // Flagged lengths that stop short of the pack's length.
        assert!(matches!(
            plan(&[m[0], hit("b", 10, 6)], "p"),
            Err(ChunkError::BadPack { .. })
        ));
        // A range past the end of its pack (only reachable if the index
        // itself is damaged).
        let mut broken = s.clone();
        broken.packs.get_mut(&d("p")).unwrap().bytes = 10;
        assert!(matches!(
            broken.read_plan(&manifest(&[hit("a", 10, 5), hit("b", 10, 6)]), &d("p")),
            Err(ChunkError::BadPack { .. })
        ));
    }
}
