//! The SRB client connection shared by the two remote resource kinds.
//!
//! Remote disk and HPSS tape are both reached from the compute site over
//! the WAN through the Storage Resource Broker: the same explicit
//! connection phase (`T_conn`/`T_connclose` in Table 1), the same
//! per-request wire cost. [`SrbLink`] holds that once; the two cost models
//! add only their server-side terms.

use crate::error::StorageError;
use crate::StorageResult;
use msr_net::{Connection, NetError, ProtocolCosts, SharedNetwork, SiteId};
use msr_sim::SimDuration;
use rand::rngs::StdRng;

/// A client's SRB session with one remote server.
#[derive(Debug)]
pub struct SrbLink {
    net: SharedNetwork,
    client: SiteId,
    server: SiteId,
    proto: ProtocolCosts,
    conn: Option<Connection>,
}

impl SrbLink {
    /// A not-yet-connected link; WAN characteristics come from the
    /// network's links between `client` and `server`.
    pub fn new(net: SharedNetwork, client: SiteId, server: SiteId, proto: ProtocolCosts) -> Self {
        SrbLink {
            net,
            client,
            server,
            proto,
            conn: None,
        }
    }

    /// Establish the session unless a live one exists (idempotent
    /// reconnect); returns the setup cost when work was done.
    pub fn connect(&mut self) -> StorageResult<Option<SimDuration>> {
        let net = self.net.read();
        if self.conn.as_ref().is_some_and(|c| c.is_up(&net)) {
            return Ok(None);
        }
        let (cost, conn) = Connection::establish(&net, self.client, self.server, self.proto)?;
        self.conn = Some(conn);
        Ok(Some(cost))
    }

    /// Drop the session; returns the teardown cost (zero if none existed).
    pub fn disconnect(&mut self) -> SimDuration {
        self.conn
            .take()
            .map_or(SimDuration::ZERO, |c| c.close_cost())
    }

    /// A session exists and its route is up.
    pub fn check_live(&self) -> StorageResult<()> {
        let conn = self.conn.as_ref().ok_or(StorageError::NotConnected)?;
        if conn.is_up(&self.net.read()) {
            Ok(())
        } else {
            Err(StorageError::Network(NetError::RouteDown))
        }
    }

    /// Jittered wire cost of one call of `bytes` contending with `streams`
    /// same-sized concurrent calls: the WAN pipe carries `bytes × streams`
    /// in total while this call completes.
    pub fn wire(&self, bytes: u64, streams: u32, rng: &mut StdRng) -> StorageResult<SimDuration> {
        let conn = self.conn.as_ref().ok_or(StorageError::NotConnected)?;
        let net = self.net.read();
        Ok(conn.request_with(&net, bytes * u64::from(streams), streams, rng)?)
    }

    /// Noise-free wire cost (predictor path). Before any connection exists
    /// the route is resolved afresh.
    pub fn wire_nominal(&self, bytes: u64, streams: u32) -> SimDuration {
        let net = self.net.read();
        match &self.conn {
            Some(conn) => conn.request_nominal(&net, bytes, streams),
            None => match net.route(self.client, self.server) {
                Ok(route) => net.transfer_nominal(&route, bytes, streams) + self.proto.per_request,
                Err(_) => SimDuration::ZERO,
            },
        }
    }

    /// The connection columns of Table 1: `(T_conn, T_connclose)`.
    pub fn conn_costs(&self) -> (SimDuration, SimDuration) {
        let net = self.net.read();
        let conn = match net.route(self.client, self.server) {
            Ok(route) => net.route_latency(&route) * 2.0 + self.proto.conn_setup,
            Err(_) => self.proto.conn_setup,
        };
        (conn, self.proto.conn_teardown)
    }
}
