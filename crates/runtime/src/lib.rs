//! # msr-runtime — the run-time I/O optimization library
//!
//! The paper's *performance-sensitive* middle layer (its MPI-IO / D-OL /
//! SRB-OL): it knows how a dataset is distributed across the parallel
//! process grid, and turns one high-level dataset access into an optimized
//! sequence of native calls on a [`msr_storage::Device`]:
//!
//! * [`strategy::IoStrategy::Naive`] — every process issues one native call
//!   per contiguous file run it owns (the baseline the paper says would be
//!   "many times slower").
//! * [`strategy::IoStrategy::DataSieving`] — each process covers its runs
//!   with one large extent access (read-modify-write for writes).
//! * [`strategy::IoStrategy::Collective`] — two-phase I/O: processes
//!   exchange data over the interconnect so a single aggregated native call
//!   moves the whole dataset (`n(j) = 1` in eq. (2), as in §4.2).
//! * [`strategy::IoStrategy::Subfile`] — one packed subfile per process:
//!   P native calls, no exchange, layout transposed.
//! * [`superfile`] — the paper's container optimization for *many small
//!   files* (Volren images): writes append into one remote superfile, the
//!   first read stages the whole container into a memory cache and
//!   subsequent reads are memcpys (Fig. 10(c)).
//! * [`pipeline`] — write-behind/async-I/O overlap of compute and I/O.
//!
//! Each of the four strategies is a [`plan::CallPlan`], the one statement
//! of its native calls: the engine runs it and `msr-predict` prices it.
//!
//! Real bytes move through every path (gather/scatter, pack/unpack,
//! sieve-merge), so all strategies are verified byte-for-byte against each
//! other in tests; virtual time is charged per process on a
//! [`msr_sim::Timeline`] with barrier semantics.

pub mod cache;
pub mod chunked;
pub mod engine;
pub mod error;
pub mod layout;
pub mod pipeline;
pub mod plan;
pub mod request;
mod retry;
pub mod strategy;
pub mod superfile;

pub use cache::{staging_cache, LruCache, StagingCache};
pub use chunked::ChunkPlane;
pub use engine::{memcpy_cost, IoEngine, IoReport};
pub use error::RuntimeError;
pub use layout::{Chunk, DimDist, Dims3, Distribution, Pattern, ProcGrid};
pub use pipeline::WriteBehind;
pub use plan::{CallPlan, Object, Step, Unit};
pub use request::{EngineRequest, RequestBody, RequestOutcome, RequestTag};
pub use strategy::IoStrategy;
pub use superfile::{Superfile, SuperfileStats};

/// Convenience result alias for runtime operations.
pub type RuntimeResult<T> = Result<T, RuntimeError>;
