//! # msr-net — simulated wide-area network
//!
//! The paper's remote storage (SDSC disks and HPSS tape) is reached from the
//! compute site (ANL) over a year-2000 WAN; the metadata database lives at
//! NWU. This crate replaces the physical network with a graph of
//! [`site::Site`]s connected by [`link::Link`]s, each with latency,
//! bandwidth, jitter, background load and an up/down flag.
//!
//! Costs follow the classic α–β model per link: a transfer of `bytes` over a
//! route costs `Σ_link (latency + bytes / effective_bandwidth)`, where the
//! effective bandwidth is the nominal bandwidth divided among the transfer's
//! own parallel streams plus any configured background load. Outage
//! injection (link or whole site) feeds the reliability experiment in §5 of
//! the paper.

pub mod connection;
pub mod error;
pub mod failure;
pub mod link;
pub mod network;
pub mod site;

pub use connection::{Connection, ProtocolCosts};
pub use error::NetError;
pub use failure::OutageSchedule;
pub use link::{LinkId, LinkSpec};
pub use network::Network;
pub use site::SiteId;

/// Convenience result alias for network operations.
pub type NetResult<T> = Result<T, NetError>;

/// The network as shared by storage resources and the experiment harness:
/// reads (routing, transfers) take the read lock, outage/load injection the
/// write lock.
pub type SharedNetwork = std::sync::Arc<parking_lot::RwLock<Network>>;

/// Wrap a network for sharing.
pub fn share(n: Network) -> SharedNetwork {
    std::sync::Arc::new(parking_lot::RwLock::new(n))
}
