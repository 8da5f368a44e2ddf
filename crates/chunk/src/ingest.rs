//! The typed ingest surface a `DatasetSpec` carries.

use crate::chunker::ChunkPolicy;
use crate::codec::Codec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a dataset's dumps enter the data plane.
///
/// The default ([`IngestSpec::raw`]) is the pre-chunk path: dumps are
/// written byte for byte as single objects, and every report stays bitwise
/// identical to a build without the chunk plane. An *active* spec routes
/// dumps through the chunk plane, which keys chunks by digest in the
/// per-resource [`crate::ChunkStore`], so a dump ships and stores only the
/// chunks the resource does not already hold:
///
/// * `policy` splits the payload ([`ChunkPolicy::cdc`] /
///   [`ChunkPolicy::fixed`]);
/// * `codec` compresses each chunk ([`Codec::Lz4Like`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestSpec {
    /// How dumps are split into chunks; `Disabled` bypasses the chunk
    /// plane entirely.
    pub policy: ChunkPolicy,
    /// Per-chunk compression.
    pub codec: Codec,
}

impl IngestSpec {
    /// The pre-chunk raw path (the default).
    pub fn raw() -> IngestSpec {
        IngestSpec::default()
    }

    /// Content-addressed chunking under `policy`, no compression.
    pub fn chunked(policy: ChunkPolicy) -> IngestSpec {
        IngestSpec {
            policy,
            codec: Codec::None,
        }
    }

    /// Set the per-chunk codec (enables chunking with the default policy
    /// if none was picked).
    pub fn with_codec(mut self, codec: Codec) -> IngestSpec {
        self.codec = codec;
        if codec.is_active() && !self.policy.is_active() {
            self.policy = ChunkPolicy::default_active();
        }
        self
    }

    /// Whether dumps route through the chunk plane.
    pub fn is_active(&self) -> bool {
        self.policy.is_active()
    }
}

impl fmt::Display for IngestSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_active() {
            return f.write_str("raw");
        }
        write!(f, "{}+{}", self.policy, self.codec)
    }
}

/// What one chunked transfer actually moved: the observation the
/// predictor's ratio book folds (EWMA) to learn a dataset's
/// post-compression/post-dedup ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSummary {
    /// Dataset the dump belongs to.
    pub dataset: String,
    /// Uncompressed payload bytes of the dump.
    pub logical_bytes: u64,
    /// Bytes actually written to the resource (absent chunk frames +
    /// manifest).
    pub moved_bytes: u64,
    /// Chunks the dump split into.
    pub chunks_total: usize,
    /// Chunks that had to ship (store misses).
    pub chunks_shipped: usize,
    /// Objects the dump wrote, each paying its own open and close: the
    /// manifest, plus the pack when anything was new.
    pub objects_written: usize,
}

impl DeltaSummary {
    /// `moved / logical` — the ratio the predictor learns (1.0 when
    /// nothing was saved, < 1.0 when dedup/compression won).
    pub fn ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            1.0
        } else {
            self.moved_bytes as f64 / self.logical_bytes as f64
        }
    }

    /// Bytes dedup + compression avoided moving.
    pub fn bytes_saved(&self) -> u64 {
        self.logical_bytes.saturating_sub(self.moved_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_raw_and_inactive() {
        let spec = IngestSpec::default();
        assert!(!spec.is_active());
        assert_eq!(spec, IngestSpec::raw());
        assert_eq!(spec.to_string(), "raw");
    }

    #[test]
    fn chunked_builder_activates_the_plane() {
        let spec = IngestSpec::chunked(ChunkPolicy::cdc(64));
        assert!(spec.is_active());
        assert_eq!(spec.codec, Codec::None);
        assert_eq!(spec.to_string(), "cdc(~64 KiB)+none");
    }

    #[test]
    fn codec_alone_upgrades_to_the_default_policy() {
        // Every active spec is content-addressed: a codec alone means the
        // chunk plane under its default policy, the spec `chunked` makes.
        let spec = IngestSpec::raw().with_codec(Codec::Lz4Like(2));
        assert!(spec.is_active());
        assert_eq!(
            spec,
            IngestSpec::chunked(ChunkPolicy::default_active()).with_codec(Codec::Lz4Like(2))
        );
    }

    #[test]
    fn delta_summary_ratio() {
        let d = DeltaSummary {
            dataset: "chk".into(),
            logical_bytes: 1000,
            moved_bytes: 250,
            chunks_total: 16,
            chunks_shipped: 4,
            objects_written: 2,
        };
        assert!((d.ratio() - 0.25).abs() < 1e-12);
        assert_eq!(d.bytes_saved(), 750);
        let empty = DeltaSummary {
            dataset: "e".into(),
            logical_bytes: 0,
            moved_bytes: 0,
            chunks_total: 0,
            chunks_shipped: 0,
            objects_written: 1,
        };
        assert_eq!(empty.ratio(), 1.0);
    }

    #[test]
    fn serde_roundtrip() {
        let spec = IngestSpec::chunked(ChunkPolicy::cdc(32)).with_codec(Codec::Lz4Like(1));
        let v = serde::Serialize::to_value(&spec);
        let back: IngestSpec = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, spec);
    }
}
