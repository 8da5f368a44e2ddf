//! Dataset specifications — what the application declares at `open`.

use crate::hints::{FutureUse, LocationHint};
use msr_chunk::{ChunkPolicy, Codec, IngestSpec};
use msr_meta::{AccessMode, ElementType};
use msr_runtime::{CallPlan, Dims3, Distribution, IoStrategy, Pattern};
use msr_storage::{OpKind, OpenMode};
use serde::{Deserialize, Serialize};

/// Everything the API needs to know about one dataset, provided by the
/// application at open time (compare the columns of Fig. 11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name, unique within the run.
    pub name: String,
    /// Element type.
    pub etype: ElementType,
    /// Global dimensions.
    pub dims: Dims3,
    /// Distribution pattern over the process grid.
    pub pattern: Pattern,
    /// Dump frequency in iterations (`freq(j)`); `0` = never dumped.
    pub frequency: u32,
    /// Open mode per dump: fresh snapshot files or overwrite-in-place.
    pub amode: AccessMode,
    /// The user's location hint.
    pub hint: LocationHint,
    /// What the dataset will be used for (guides AUTO placement).
    pub future_use: FutureUse,
    /// I/O optimization. The paper's experiments all use collective I/O.
    pub strategy: IoStrategy,
    /// How dumps are ingested on storage: raw objects (the default, the
    /// paper's byte-for-byte path) or the content-addressed chunk plane
    /// with optional per-chunk compression.
    #[serde(default)]
    pub ingest: IngestSpec,
}

impl DatasetSpec {
    /// Start a typed builder. Defaults match the Astro3D shape: `F32`
    /// elements in a 32³ cube, BBB distribution, dumped every 6
    /// iterations into fresh snapshots, AUTO-placed for archival over
    /// collective I/O.
    ///
    /// ```
    /// use msr_core::{DatasetSpec, LocationHint};
    /// use msr_meta::ElementType;
    ///
    /// let spec = DatasetSpec::builder("temperature")
    ///     .element(ElementType::F32)
    ///     .cube(128)
    ///     .frequency(6)
    ///     .hint(LocationHint::Auto)
    ///     .build();
    /// assert_eq!(spec.snapshot_bytes(), 8 * 1024 * 1024);
    /// ```
    pub fn builder(name: &str) -> DatasetSpecBuilder {
        DatasetSpecBuilder {
            spec: DatasetSpec::astro3d_default(name, ElementType::F32, 32),
        }
    }

    /// A collective-I/O, BBB, every-6-iterations dataset — the Astro3D
    /// default shape; customize from here.
    pub fn astro3d_default(name: &str, etype: ElementType, n: u64) -> Self {
        DatasetSpec {
            name: name.to_owned(),
            etype,
            dims: Dims3::cube(n),
            pattern: Pattern::bbb(),
            frequency: 6,
            amode: AccessMode::Create,
            hint: LocationHint::Auto,
            future_use: FutureUse::Archive,
            strategy: IoStrategy::Collective,
            ingest: IngestSpec::raw(),
        }
    }

    /// Bytes of one dump.
    pub fn snapshot_bytes(&self) -> u64 {
        self.dims.elements() * self.etype.size()
    }

    /// How a dump of this dataset is opened for writing: a fresh file per
    /// `Create` dump, the one file rewritten in place for `OverWrite`.
    pub(crate) fn write_mode(&self) -> OpenMode {
        match self.amode {
            AccessMode::Create => OpenMode::Create,
            AccessMode::OverWrite => OpenMode::OverWrite,
        }
    }

    /// The native calls of one `op` dump of this dataset laid out as
    /// `dist`: what the engine runs and eq. (2) prices.
    pub fn plan(&self, op: OpKind, dist: Distribution) -> CallPlan {
        match op {
            OpKind::Read => CallPlan::read(self.strategy, dist),
            OpKind::Write => CallPlan::write(self.strategy, self.write_mode(), dist),
        }
    }

    /// Bytes this dataset will write over a whole run of `iterations`.
    /// Overwritten datasets occupy only one snapshot on storage.
    pub fn run_bytes(&self, iterations: u32) -> u64 {
        if self.frequency == 0 {
            return 0;
        }
        let dumps = u64::from(iterations / self.frequency + 1);
        match self.amode {
            AccessMode::Create => dumps * self.snapshot_bytes(),
            AccessMode::OverWrite => self.snapshot_bytes(),
        }
    }

    /// Builder-style hint override.
    pub fn with_hint(mut self, hint: LocationHint) -> Self {
        self.hint = hint;
        self
    }

    /// Builder-style future-use override.
    pub fn with_future_use(mut self, fu: FutureUse) -> Self {
        self.future_use = fu;
        self
    }

    /// Builder-style strategy override.
    pub fn with_strategy(mut self, s: IoStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Builder-style frequency override.
    pub fn with_frequency(mut self, f: u32) -> Self {
        self.frequency = f;
        self
    }

    /// Builder-style amode override.
    pub fn with_amode(mut self, amode: AccessMode) -> Self {
        self.amode = amode;
        self
    }
}

/// Typed builder for [`DatasetSpec`]; start from [`DatasetSpec::builder`].
#[derive(Debug, Clone)]
pub struct DatasetSpecBuilder {
    spec: DatasetSpec,
}

impl DatasetSpecBuilder {
    /// Element type of the global array.
    pub fn element(mut self, etype: ElementType) -> Self {
        self.spec.etype = etype;
        self
    }

    /// Global dimensions.
    pub fn dims(mut self, dims: Dims3) -> Self {
        self.spec.dims = dims;
        self
    }

    /// Cubic global dimensions `n × n × n`.
    pub fn cube(self, n: u64) -> Self {
        self.dims(Dims3::cube(n))
    }

    /// Distribution pattern over the process grid.
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.spec.pattern = pattern;
        self
    }

    /// Dump frequency in iterations; `0` never dumps.
    pub fn frequency(mut self, frequency: u32) -> Self {
        self.spec.frequency = frequency;
        self
    }

    /// Fresh snapshot files per dump, or overwrite in place.
    pub fn amode(mut self, amode: AccessMode) -> Self {
        self.spec.amode = amode;
        self
    }

    /// The location hint.
    pub fn hint(mut self, hint: LocationHint) -> Self {
        self.spec.hint = hint;
        self
    }

    /// Declared future use (guides AUTO placement).
    pub fn future_use(mut self, future_use: FutureUse) -> Self {
        self.spec.future_use = future_use;
        self
    }

    /// I/O optimization strategy.
    pub fn strategy(mut self, strategy: IoStrategy) -> Self {
        self.spec.strategy = strategy;
        self
    }

    /// Route dumps through the content-addressed chunk plane with this
    /// boundary policy; combine with [`compression`](Self::compression)
    /// for compressed frames.
    ///
    /// ```
    /// use msr_core::DatasetSpec;
    /// use msr_chunk::{ChunkPolicy, Codec};
    ///
    /// let spec = DatasetSpec::builder("ckpt")
    ///     .chunked(ChunkPolicy::cdc(64))
    ///     .compression(Codec::Lz4Like(2))
    ///     .build();
    /// assert!(spec.ingest.is_active());
    /// ```
    pub fn chunked(mut self, policy: ChunkPolicy) -> Self {
        self.spec.ingest = IngestSpec::chunked(policy).with_codec(self.spec.ingest.codec);
        self
    }

    /// Per-chunk codec for chunked dumps. On a raw ingest an active codec
    /// also routes dumps through the chunk plane, under the default
    /// policy until [`chunked`](Self::chunked) picks another.
    pub fn compression(mut self, codec: Codec) -> Self {
        self.spec.ingest = self.spec.ingest.with_codec(codec);
        self
    }

    /// Set the full ingest spec in one call.
    pub fn ingest(mut self, ingest: IngestSpec) -> Self {
        self.spec.ingest = ingest;
        self
    }

    /// Finish the spec.
    pub fn build(self) -> DatasetSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_builder_sets_every_field() {
        let d = DatasetSpec::builder("vr_temp")
            .element(ElementType::U8)
            .cube(64)
            .pattern(Pattern::bbb())
            .frequency(3)
            .amode(AccessMode::OverWrite)
            .hint(LocationHint::LocalDisk)
            .future_use(FutureUse::Visualization)
            .strategy(IoStrategy::Subfile)
            .build();
        assert_eq!(d.name, "vr_temp");
        assert_eq!(d.etype, ElementType::U8);
        assert_eq!(d.dims, Dims3::cube(64));
        assert_eq!(d.frequency, 3);
        assert_eq!(d.amode, AccessMode::OverWrite);
        assert_eq!(d.hint, LocationHint::LocalDisk);
        assert_eq!(d.future_use, FutureUse::Visualization);
        assert_eq!(d.strategy, IoStrategy::Subfile);
    }

    #[test]
    fn builder_defaults_match_the_astro3d_shape() {
        let d = DatasetSpec::builder("x").build();
        assert_eq!(d, DatasetSpec::astro3d_default("x", ElementType::F32, 32));
    }

    #[test]
    fn paper_dataset_sizes() {
        let temp = DatasetSpec::astro3d_default("temp", ElementType::F32, 128);
        assert_eq!(temp.snapshot_bytes(), 8 * 1024 * 1024);
        let vr = DatasetSpec::astro3d_default("vr_temp", ElementType::U8, 128);
        assert_eq!(vr.snapshot_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn run_bytes_accounts_for_amode() {
        let temp = DatasetSpec::astro3d_default("temp", ElementType::F32, 128);
        // 21 dumps × 8 MiB
        assert_eq!(temp.run_bytes(120), 21 * 8 * 1024 * 1024);
        let restart = temp.clone().with_amode(AccessMode::OverWrite);
        assert_eq!(restart.run_bytes(120), 8 * 1024 * 1024);
        let never = temp.with_frequency(0);
        assert_eq!(never.run_bytes(120), 0);
    }

    #[test]
    fn typed_ingest_builder_composes() {
        let d = DatasetSpec::builder("ckpt")
            .chunked(ChunkPolicy::cdc(32))
            .compression(Codec::Lz4Like(2))
            .build();
        assert!(d.ingest.is_active());
        assert_eq!(d.ingest.policy, ChunkPolicy::cdc(32));
        assert_eq!(d.ingest.codec, Codec::Lz4Like(2));
        // A codec alone activates the plane under the default policy.
        let compressed = DatasetSpec::builder("ckpt")
            .compression(Codec::Lz4Like(2))
            .build();
        assert_eq!(compressed.ingest.policy, ChunkPolicy::default_active());
        // Codec set before chunking survives the policy switch.
        let swapped = DatasetSpec::builder("ckpt")
            .compression(Codec::Lz4Like(1))
            .chunked(ChunkPolicy::fixed(64))
            .build();
        assert_eq!(swapped.ingest.codec, Codec::Lz4Like(1));
        // The default stays raw, so existing specs are untouched.
        assert_eq!(DatasetSpec::builder("x").build().ingest, IngestSpec::raw());
    }

    #[test]
    fn builders_compose() {
        let d = DatasetSpec::astro3d_default("vr_temp", ElementType::U8, 64)
            .with_hint(LocationHint::LocalDisk)
            .with_future_use(FutureUse::Visualization)
            .with_strategy(IoStrategy::Subfile)
            .with_frequency(3);
        assert_eq!(d.hint, LocationHint::LocalDisk);
        assert_eq!(d.future_use, FutureUse::Visualization);
        assert_eq!(d.strategy, IoStrategy::Subfile);
        assert_eq!(d.frequency, 3);
    }
}
