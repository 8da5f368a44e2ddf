//! # msr-net — simulated wide-area network
//!
//! The paper's remote storage (SDSC disks and HPSS tape) is reached from the
//! compute site (ANL) over one year-2000 WAN. This crate replaces that WAN
//! with one [`Network`]: a link between a client site and a server site,
//! with latency, bandwidth, jitter, background load and an up/down flag.
//!
//! Costs follow the classic α–β model: a transfer of `bytes` costs
//! `latency + bytes / effective_bandwidth`, where the effective bandwidth is
//! the nominal bandwidth divided among the transfer's own parallel streams
//! plus any configured background load. Outage injection feeds the
//! reliability experiment in §5 of the paper.

pub mod error;
pub mod failure;
pub mod network;

pub use error::NetError;
pub use failure::OutageSchedule;
pub use network::{LinkSpec, Network, ProtocolCosts};

/// Convenience result alias for network operations.
pub type NetResult<T> = Result<T, NetError>;

/// The network as shared by storage resources and the experiment harness:
/// transfers take the read lock, outage/load injection the write lock.
pub type SharedNetwork = std::sync::Arc<parking_lot::RwLock<Network>>;

/// Wrap a network for sharing.
pub fn share(n: Network) -> SharedNetwork {
    std::sync::Arc::new(parking_lot::RwLock::new(n))
}
