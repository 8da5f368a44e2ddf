//! The SRB client connection shared by the two remote resource kinds.
//!
//! Remote disk and HPSS tape are both reached from the compute site over
//! the WAN through the Storage Resource Broker: the same explicit
//! connection phase (`T_conn`/`T_connclose` in Table 1), the same
//! per-request wire cost. [`SrbLink`] holds that once; the two cost models
//! add only their server-side terms.

use crate::error::StorageError;
use crate::StorageResult;
use msr_net::{NetError, Network, ProtocolCosts, SharedNetwork};
use msr_sim::SimDuration;
use rand::rngs::StdRng;

/// A client's SRB session with the remote server at the far end of the
/// WAN.
#[derive(Debug)]
pub struct SrbLink {
    net: SharedNetwork,
    proto: ProtocolCosts,
    connected: bool,
}

impl SrbLink {
    /// A not-yet-connected link; WAN characteristics come from `net`.
    pub fn new(net: SharedNetwork, proto: ProtocolCosts) -> Self {
        SrbLink {
            net,
            proto,
            connected: false,
        }
    }

    /// Setup handshake: one round trip plus protocol work.
    fn setup_cost(&self, net: &Network) -> SimDuration {
        net.latency() * 2.0 + self.proto.conn_setup
    }

    /// Establish the session unless one exists (idempotent reconnect);
    /// returns the setup cost when work was done. Fails while the WAN is
    /// down, leaving an existing session in place.
    pub fn connect(&mut self) -> StorageResult<Option<SimDuration>> {
        let net = self.net.read();
        if !net.is_up() {
            return Err(StorageError::Network(NetError::RouteDown));
        }
        if self.connected {
            return Ok(None);
        }
        self.connected = true;
        Ok(Some(self.setup_cost(&net)))
    }

    /// Drop the session; returns the teardown cost (zero if none existed).
    pub fn disconnect(&mut self) -> SimDuration {
        if std::mem::take(&mut self.connected) {
            self.proto.conn_teardown
        } else {
            SimDuration::ZERO
        }
    }

    /// A session exists and the WAN is up.
    pub fn check_live(&self) -> StorageResult<()> {
        if !self.connected {
            Err(StorageError::NotConnected)
        } else if self.net.read().is_up() {
            Ok(())
        } else {
            Err(StorageError::Network(NetError::RouteDown))
        }
    }

    /// Jittered wire cost of one call of `bytes` contending with `streams`
    /// same-sized concurrent calls: the WAN pipe carries `bytes × streams`
    /// in total while this call completes.
    pub fn wire(&self, bytes: u64, streams: u32, rng: &mut StdRng) -> StorageResult<SimDuration> {
        if !self.connected {
            return Err(StorageError::NotConnected);
        }
        let wire = self
            .net
            .read()
            .transfer_with(bytes * u64::from(streams), streams, rng)?;
        Ok(wire + self.proto.per_request)
    }

    /// Noise-free wire cost (predictor path); zero while there is neither
    /// a session nor a live WAN to open one over.
    pub fn wire_nominal(&self, bytes: u64, streams: u32) -> SimDuration {
        let net = self.net.read();
        if self.connected || net.is_up() {
            net.transfer_nominal(bytes, streams) + self.proto.per_request
        } else {
            SimDuration::ZERO
        }
    }

    /// The connection columns of Table 1: `(T_conn, T_connclose)`. While
    /// the WAN is down `T_conn` is the protocol setup alone.
    pub fn conn_costs(&self) -> (SimDuration, SimDuration) {
        let net = self.net.read();
        let conn = if net.is_up() {
            self.setup_cost(&net)
        } else {
            self.proto.conn_setup
        };
        (conn, self.proto.conn_teardown)
    }
}
