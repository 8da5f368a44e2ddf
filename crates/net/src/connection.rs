//! Stateful client↔server connections with protocol costs.
//!
//! The paper's eq. (1) charges `T_conn` once when a storage connection is
//! established and `T_connclose` when it is torn down; every subsequent
//! request rides the established route. [`ProtocolCosts`] captures the
//! fixed per-protocol components (calibrated to Table 1), and
//! [`Connection`] pairs them with a concrete route through the network.

use crate::link::LinkId;
use crate::network::Network;
use crate::site::SiteId;
use crate::NetResult;
use msr_sim::SimDuration;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Fixed protocol overheads of a storage access protocol (SRB-like).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolCosts {
    /// Server-side connection establishment work added on top of the route
    /// round trip (authentication, session setup).
    pub conn_setup: SimDuration,
    /// Connection teardown cost.
    pub conn_teardown: SimDuration,
    /// Extra server processing charged on every request (marshalling,
    /// catalog touch).
    pub per_request: SimDuration,
}

impl ProtocolCosts {
    /// A protocol with no fixed costs (local access).
    pub fn free() -> Self {
        ProtocolCosts {
            conn_setup: SimDuration::ZERO,
            conn_teardown: SimDuration::ZERO,
            per_request: SimDuration::ZERO,
        }
    }
}

/// An established connection between a client site and a server site.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Client endpoint.
    pub client: SiteId,
    /// Server endpoint.
    pub server: SiteId,
    route: Vec<LinkId>,
    costs: ProtocolCosts,
}

impl Connection {
    /// Establish a connection, returning it together with the setup cost
    /// (route round trip + protocol setup). Fails when no live route exists.
    pub fn establish(
        net: &Network,
        client: SiteId,
        server: SiteId,
        costs: ProtocolCosts,
    ) -> NetResult<(SimDuration, Connection)> {
        let route = net.route(client, server)?;
        // Setup handshake ≈ one round trip plus protocol work.
        let rtt = net.route_latency(&route) * 2.0;
        let cost = rtt + costs.conn_setup;
        Ok((
            cost,
            Connection {
                client,
                server,
                route,
                costs,
            },
        ))
    }

    /// The route currently used by this connection.
    pub fn route(&self) -> &[LinkId] {
        &self.route
    }

    /// Whether the connection's route is currently live.
    pub fn is_up(&self, net: &Network) -> bool {
        net.route_up(&self.route)
    }

    /// Cost of one data request of `bytes` with `streams` parallel streams
    /// (jittered; the "actual" path). Jitter draws from the network's
    /// shared stream; see [`Connection::request_with`].
    pub fn request(&self, net: &Network, bytes: u64, streams: u32) -> NetResult<SimDuration> {
        let wire = net.transfer(&self.route, bytes, streams)?;
        Ok(wire + self.costs.per_request)
    }

    /// [`Connection::request`] with jitter drawn from the caller's own
    /// stream, so cost sequences per resource do not depend on how
    /// concurrent traffic on other connections interleaves.
    pub fn request_with(
        &self,
        net: &Network,
        bytes: u64,
        streams: u32,
        rng: &mut StdRng,
    ) -> NetResult<SimDuration> {
        let wire = net.transfer_with(&self.route, bytes, streams, rng)?;
        Ok(wire + self.costs.per_request)
    }

    /// Deterministic model cost of one data request (predictor path).
    pub fn request_nominal(&self, net: &Network, bytes: u64, streams: u32) -> SimDuration {
        net.transfer_nominal(&self.route, bytes, streams) + self.costs.per_request
    }

    /// Teardown cost.
    pub fn close_cost(&self) -> SimDuration {
        self.costs.conn_teardown
    }

    /// Re-resolve the route after topology changes; returns false when the
    /// endpoints are now unreachable.
    pub fn refresh_route(&mut self, net: &Network) -> bool {
        match net.route(self.client, self.server) {
            Ok(r) => {
                self.route = r;
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    fn net() -> (Network, SiteId, SiteId) {
        let mut n = Network::new(1);
        let a = n.add_site("ANL");
        let s = n.add_site("SDSC");
        n.add_link(a, s, LinkSpec::ideal(SimDuration::from_millis(25.0), 1.0));
        (n, a, s)
    }

    fn srb_like() -> ProtocolCosts {
        ProtocolCosts {
            conn_setup: SimDuration::from_secs(0.39),
            conn_teardown: SimDuration::from_micros(200.0),
            per_request: SimDuration::from_millis(5.0),
        }
    }

    #[test]
    fn establish_charges_rtt_plus_setup() {
        let (n, a, s) = net();
        let (cost, conn) = Connection::establish(&n, a, s, srb_like()).unwrap();
        assert!((cost.as_secs() - (0.05 + 0.39)).abs() < 1e-9);
        assert_eq!(conn.route().len(), 1);
    }

    #[test]
    fn request_nominal_composes_wire_and_protocol() {
        let (n, a, s) = net();
        let (_, conn) = Connection::establish(&n, a, s, srb_like()).unwrap();
        let c = conn.request_nominal(&n, 1_000_000, 1);
        assert!((c.as_secs() - (0.025 + 1.0 + 0.005)).abs() < 1e-9);
    }

    #[test]
    fn local_connection_is_free() {
        let (n, a, _) = net();
        let (cost, conn) = Connection::establish(&n, a, a, ProtocolCosts::free()).unwrap();
        assert_eq!(cost, SimDuration::ZERO);
        assert_eq!(conn.request_nominal(&n, 1 << 30, 1), SimDuration::ZERO);
    }

    #[test]
    fn connection_detects_outage_and_refresh_fails() {
        let (mut n, a, s) = net();
        let (_, mut conn) = Connection::establish(&n, a, s, srb_like()).unwrap();
        assert!(conn.is_up(&n));
        let l = conn.route()[0];
        n.set_link_up(l, false);
        assert!(!conn.is_up(&n));
        assert!(conn.request(&n, 1, 1).is_err());
        assert!(!conn.refresh_route(&n), "no alternative route exists");
    }

    #[test]
    fn refresh_route_finds_detour() {
        let (mut n, a, s) = net();
        let w = n.add_site("NWU");
        n.add_link(a, w, LinkSpec::ideal(SimDuration::from_millis(2.0), 10.0));
        n.add_link(w, s, LinkSpec::ideal(SimDuration::from_millis(30.0), 1.0));
        let (_, mut conn) = Connection::establish(&n, a, s, srb_like()).unwrap();
        n.set_link_up(conn.route()[0], false);
        assert!(conn.refresh_route(&n));
        assert_eq!(conn.route().len(), 2);
        assert!(conn.is_up(&n));
    }
}
