//! Content-addressed chunking for the multi-storage data plane.
//!
//! The paper's producers (Astro3D, volume renderers) re-dump largely
//! similar arrays every timestep; this crate provides the pieces that let
//! the data plane move and store only what actually changed:
//!
//! * [`Digest`] — a 128-bit content digest keying every chunk. Digests are
//!   computed over the *uncompressed* chunk bytes, so deduplication is
//!   independent of the codec in force when a chunk was first stored.
//! * [`ChunkPolicy`] — how a dump is split: fixed-size blocks or
//!   content-defined chunking (CDC) with a gear rolling hash, whose
//!   boundaries depend only on content and therefore survive insertions.
//! * [`Codec`] — optional per-chunk compression ([`Codec::Lz4Like`], an
//!   LZ77 byte-oriented compressor with an exact, dependency-free
//!   decompressor).
//! * [`ChunkStore`] — a per-resource digest-keyed index: how many
//!   manifests reference each stored chunk, which pack holds its frame
//!   and where, and per pack the live-frame count that decides when the
//!   pack object is deleted.
//! * [`Manifest`] — the ordered chunk list written as the dump object; a
//!   chunked dump on storage is one manifest plus at most one
//!   `cas/pack-<id>` object holding the frames it added to the store.
//!   Packs share the `cas` volume, which holds no dataset and so is never
//!   vaulted: a tape shelves a dump's manifest with its run's volume while
//!   every frame stays on-site for the next dump to dedup against.
//!
//! Everything here is pure data manipulation: no virtual-time charges, no
//! storage access. The I/O engine (`msr-runtime`) owns the transfer path
//! and the cost model; `msr-core` exposes the [`IngestSpec`] knobs on
//! `DatasetSpec`.
//!
//! Determinism: chunk boundaries are a pure function of content and
//! policy, digests a pure function of content, and compression a pure
//! function of content and level — so any thread count produces bitwise
//! identical chunk streams.

#![warn(missing_docs)]

mod chunker;
mod codec;
mod digest;
mod error;
mod ingest;
mod manifest;
mod store;

pub use chunker::{split, split_segmented, split_serial, ChunkPolicy, MAX_CHUNK_BYTES};
pub use codec::{
    compress, decompress, decompress_into, decompressed_len, raw_span, Codec, Compressor,
};
pub use digest::Digest;
pub use error::ChunkError;
pub use ingest::{DeltaSummary, IngestSpec};
pub use manifest::{pack_path, ChunkRef, Manifest};
pub use store::{ChunkStore, FrameLoc, PackRead, PackRun, StoreStats};
