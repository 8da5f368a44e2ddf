//! Typed chunk-plane failures.

use crate::digest::Digest;
use std::fmt;

/// Failures in the chunked data plane's pure layer: corrupt frames,
/// corrupt manifests, pack objects that do not hold what the index says,
/// and — the one that matters most — a chunk whose content no longer
/// matches its digest. The I/O engine wraps these with
/// the storage path; `msr-core` surfaces them as `CoreError::ChunkCorrupt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// A chunk read back from storage hashed to a different digest than
    /// the manifest recorded: the stored bytes are corrupt (or the object
    /// was overwritten out of band). Never retried — the resource would
    /// serve the same bytes again.
    DigestMismatch {
        /// Index of the chunk within its manifest.
        chunk: usize,
        /// The digest the manifest expects.
        expected: Digest,
        /// The digest the stored bytes actually hash to.
        got: Digest,
    },
    /// A manifest object failed to parse.
    BadManifest {
        /// What was wrong.
        detail: String,
    },
    /// A compression frame failed to parse or decode.
    BadFrame {
        /// What was wrong.
        detail: String,
    },
    /// A pack object is not the length the index recorded, or a frame
    /// range falls outside it.
    BadPack {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::DigestMismatch {
                chunk,
                expected,
                got,
            } => write!(
                f,
                "chunk {chunk} digest mismatch: manifest says {}, stored bytes hash to {}",
                expected.short(),
                got.short()
            ),
            ChunkError::BadManifest { detail } => write!(f, "corrupt manifest: {detail}"),
            ChunkError::BadFrame { detail } => write!(f, "corrupt chunk frame: {detail}"),
            ChunkError::BadPack { detail } => write!(f, "corrupt chunk pack: {detail}"),
        }
    }
}

impl std::error::Error for ChunkError {}
