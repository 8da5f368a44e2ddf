//! # msr-core — the distributed multi-storage resource architecture
//!
//! The paper's primary contribution: a five-layer architecture in which an
//! application is *not* bound to a single storage resource. Each dataset
//! carries a high-level **location hint** — `LOCALDISK`, `REMOTEDISK`,
//! `REMOTETAPE`, `AUTO` or `DISABLE` — and the system routes every dump to
//! a suitable resource, optimized by the run-time library and recorded in
//! the metadata catalog so post-processing tools can find the data.
//!
//! The crate assembles the substrates:
//!
//! * [`MsrSystem`] — the configured environment: network, storage
//!   resources, metadata catalog, performance database and virtual clock
//!   (the paper's Fig. 4).
//! * [`Session`] — the I/O flow of Fig. 5: `initialize → open →
//!   read/write per iteration → close → finalize`, with per-dataset
//!   placement, transparent failover when a resource is down or full
//!   (§5's reliability example), and catalog bookkeeping.
//! * [`PlacementPolicy`] — hint resolution. Besides the paper's hinted
//!   policy (AUTO defaults to tape), the future-work policy of §7 is
//!   implemented: given a per-dump time target, the system consults the
//!   performance predictor and picks the fastest resource that fits.
//! * [`RunReport`] — per-dataset and total I/O accounting for a run,
//!   feeding the Fig. 9/10 experiments.

pub mod builder;
pub mod dataset;
pub mod error;
pub mod health;
pub mod hints;
pub mod load;
pub mod migrate;
pub mod placement;
pub mod report;
pub mod session;
pub mod system;
pub mod tenant;

pub use builder::SessionBuilder;
pub use dataset::{DatasetSpec, DatasetSpecBuilder};
// The typed ingest vocabulary, re-exported so applications can configure
// chunked datasets without naming `msr_chunk` directly.
pub use error::{classify, CoreError, ErrorClass};
pub use health::{BreakerState, HealthCounters, HealthTracker};
pub use hints::{FutureUse, LocationHint};
pub use load::{LoadBoard, TenantUsage};
pub use migrate::MigrationReport;
pub use msr_chunk::{ChunkPolicy, Codec, IngestSpec};
pub use placement::PlacementPolicy;
pub use report::{PlacementEvent, RunReport};
pub use session::{DatasetHandle, Session, MAX_TRIES};
pub use system::{MsrSystem, Volume};
pub use tenant::{OverloadPolicy, Tenant, TenantId, TenantQuota, TenantRegistry};

/// Convenience result alias.
pub type CoreResult<T> = Result<T, CoreError>;
