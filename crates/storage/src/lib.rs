//! # msr-storage — simulated physical storage resources
//!
//! The bottom two layers of the paper's architecture: *physical storage
//! resources* plus their *native storage interfaces*. Three resource kinds
//! are modelled, each with an eq.(1)-shaped cost structure
//! (`T_conn + T_open + T_seek + T_read/write(s) + T_fileclose + T_connclose`)
//! and a real in-memory object store behind it, so that reads return the
//! bytes that were written and the upper layers are testable end-to-end
//! (a synthetic dump may be kept as the [`Recipe`] its bytes are generated
//! from, see [`payload`]):
//!
//! * [`LocalDisk`] — the SP-2 node's SSA disks behind a UNIX-FS/PIOFS-style
//!   interface. No connection cost, cheap open/close, ~tens of MB/s.
//! * [`RemoteDisk`] — SDSC disk farm behind an SRB-style client-server
//!   protocol over [`msr_net`]: connection setup, per-request round trips,
//!   WAN bandwidth.
//! * [`TapeResource`] — HPSS tape tier behind SRB: drive pool with mounts,
//!   sequential positioning, very large latency, effectively unlimited
//!   capacity.
//!
//! The three are one [`Device`] with a per-kind [`CostModel`]: the file
//! mechanics exist once, only the eq. (1) terms differ. `Device` is the
//! "native storage interface" consumed by the run-time optimization layer;
//! a [`SharedResource`] holds any kind as `Device<dyn CostModel>`, so
//! [`CostModel`] is the one place the kinds are told apart. Every device
//! carries the optional fault-injection and observe stages itself
//! ([`Device::observed`], [`Device::inject_faults`]).
//! Aggregating the space of several resources is not a resource of its
//! own: it is session failover in `msr-core`.
//!
//! Model-only calls ([`Device::fixed_costs`], [`Device::transfer_model`])
//! expose the deterministic cost terms the performance predictor needs,
//! while the data-path methods apply seeded jitter so "actual" timings
//! fluctuate like the paper's WAN numbers.

pub mod device;
pub mod error;
pub mod fault;
pub mod local_disk;
pub mod object_store;
pub mod payload;
pub mod profiles;
pub mod rate;
pub mod remote_disk;
pub mod resource;
pub mod srb;
pub mod tape;

pub use device::{share, CostModel, Device, SharedResource};
pub use error::StorageError;
pub use fault::{FaultKind, FaultLog, FaultPlan, FaultRecord};
pub use local_disk::{DiskParams, LocalDisk};
pub use object_store::ObjectStore;
pub use payload::{Payload, Recipe};
pub use profiles::{
    anl_local_disk, hpss_params, hpss_protocol, sdsc_hpss_tape, sdsc_remote_disk, srb_protocol,
    testbed,
};
pub use rate::RateCurve;
pub use remote_disk::RemoteDisk;
pub use resource::{Cost, FileHandle, FixedCosts, OpKind, OpenMode, ResourceStats, StorageKind};
pub use tape::{volume_of, TapeParams, TapeResource};

/// Convenience result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;
