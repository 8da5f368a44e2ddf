//! Remote disk farm behind an SRB-style protocol.
//!
//! Models the SDSC disk cache reached from the compute site over the WAN
//! through the Storage Resource Broker: an explicit connection phase
//! (`T_conn`/`T_connclose` in Table 1), end-to-end open/seek/close constants
//! and transfers that pay both the WAN pipe and the server's disks.

use crate::device::{CostModel, Device};
use crate::rate::RateCurve;
use crate::resource::{FixedCosts, OpKind, StorageKind};
use crate::srb::SrbLink;
use msr_net::{ProtocolCosts, SharedNetwork};
use msr_sim::{Jitter, SimDuration};
use rand::rngs::StdRng;

/// End-to-end fixed operation constants for a remote SRB resource —
/// directly the numbers of the paper's Table 1 (they lump the WAN round
/// trip and the server-side work into one measured constant).
#[derive(Debug, Clone, Copy)]
pub struct RemoteFixed {
    /// File open (read and write measured identically in Table 1).
    pub open: SimDuration,
    /// File seek for reads (`-` in Table 1 for writes: sequential create).
    pub seek: SimDuration,
    /// File close after reading.
    pub close_read: SimDuration,
    /// File close after writing (flush: larger).
    pub close_write: SimDuration,
}

/// Cost model of an SRB disk farm: the link plus server-side constants.
#[derive(Debug)]
pub struct RemoteDiskModel {
    link: SrbLink,
    fixed: RemoteFixed,
    /// Server-side disk transfer curve (the WAN usually dominates, but the
    /// server's disks are real and show up for big requests).
    server_read: RateCurve,
    /// Server-side write curve.
    server_write: RateCurve,
    capacity: u64,
    jitter: Jitter,
}

/// A simulated SRB remote disk resource.
pub type RemoteDisk = Device<RemoteDiskModel>;

impl RemoteDisk {
    /// Build a remote disk reached over `net`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        net: SharedNetwork,
        proto: ProtocolCosts,
        fixed: RemoteFixed,
        server_read: RateCurve,
        server_write: RateCurve,
        capacity: u64,
        seed: u64,
    ) -> Self {
        let model = RemoteDiskModel {
            link: SrbLink::new(net, proto),
            fixed,
            server_read,
            server_write,
            capacity,
            jitter: Jitter::LogNormal { sigma: 0.02 },
        };
        Device::assemble(name.into(), model, "remotedisk", seed)
    }
}

impl RemoteDiskModel {
    fn server_time(&self, op: OpKind, bytes: u64) -> SimDuration {
        match op {
            OpKind::Read => self.server_read.time_for(bytes),
            OpKind::Write => self.server_write.time_for(bytes),
        }
    }
}

impl CostModel for RemoteDiskModel {
    fn kind(&self) -> StorageKind {
        StorageKind::RemoteDisk
    }

    fn jitter(&self) -> Jitter {
        self.jitter
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn set_capacity(&mut self, bytes: u64) {
        self.capacity = bytes;
    }

    fn link(&self) -> Option<&SrbLink> {
        Some(&self.link)
    }

    fn link_mut(&mut self) -> Option<&mut SrbLink> {
        Some(&mut self.link)
    }

    fn file_costs(&self, op: OpKind) -> FixedCosts {
        FixedCosts {
            open: self.fixed.open,
            seek: self.fixed.seek,
            close: match op {
                OpKind::Read => self.fixed.close_read,
                OpKind::Write => self.fixed.close_write, // flush: larger
            },
            ..FixedCosts::default()
        }
    }

    fn delete_cost(&self) -> SimDuration {
        self.fixed.close_read
    }

    fn seek_cost(&mut self, _path: &str, _pos: u64, _rng: &mut StdRng) -> SimDuration {
        self.fixed.seek
    }

    fn stream_cost(
        &mut self,
        op: OpKind,
        _path: &str,
        _end: u64,
        bytes: u64,
        streams: u32,
    ) -> SimDuration {
        self.server_time(op, bytes) * f64::from(streams)
    }

    fn transfer_model(&self, op: OpKind, bytes: u64, streams: u32) -> SimDuration {
        self.link.wire_nominal(bytes, streams) + self.server_time(op, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::resource::OpenMode;
    use msr_net::{LinkSpec, Network};

    fn testnet() -> SharedNetwork {
        msr_net::share(Network::new(
            "ANL",
            "SDSC",
            LinkSpec::ideal(SimDuration::from_millis(25.0), 0.30),
        ))
    }

    fn table1_fixed() -> RemoteFixed {
        RemoteFixed {
            open: SimDuration::from_secs(0.42),
            seek: SimDuration::from_secs(0.40),
            close_read: SimDuration::from_secs(0.63),
            close_write: SimDuration::from_secs(0.83),
        }
    }

    fn rdisk(net: SharedNetwork) -> RemoteDisk {
        let mut d = RemoteDisk::new(
            "sdsc-disk",
            net,
            ProtocolCosts {
                conn_setup: SimDuration::from_secs(0.39),
                conn_teardown: SimDuration::from_micros(200.0),
                per_request: SimDuration::from_millis(5.0),
            },
            table1_fixed(),
            RateCurve::constant_bandwidth(2.0),
            RateCurve::constant_bandwidth(2.0),
            1 << 40,
            0,
        );
        d.model.jitter = Jitter::None;
        d
    }

    #[test]
    fn requires_connect_before_io() {
        let mut d = rdisk(testnet());
        assert!(matches!(
            d.open("f", OpenMode::Create),
            Err(StorageError::NotConnected)
        ));
        d.connect().unwrap();
        assert!(d.open("f", OpenMode::Create).is_ok());
    }

    #[test]
    fn connect_cost_matches_table1() {
        let mut d = rdisk(testnet());
        let c = d.connect().unwrap();
        assert!(
            (c.time.as_secs() - 0.44).abs() < 1e-9,
            "2×25ms RTT + 0.39 setup"
        );
        // Idempotent reconnect is free.
        assert_eq!(d.connect().unwrap().time, SimDuration::ZERO);
        assert_eq!(d.stats().connects, 1);
    }

    #[test]
    fn fixed_costs_report_table1_row() {
        let d = rdisk(testnet());
        let f = d.fixed_costs(OpKind::Write);
        assert!((f.conn.as_secs() - 0.44).abs() < 1e-9);
        assert!((f.open.as_secs() - 0.42).abs() < 1e-9);
        assert!((f.close.as_secs() - 0.83).abs() < 1e-9);
        assert!((f.connclose.as_secs() - 0.0002).abs() < 1e-9);
        assert!((d.fixed_costs(OpKind::Read).close.as_secs() - 0.63).abs() < 1e-9);
    }

    #[test]
    fn write_read_roundtrip_over_wan() {
        let mut d = rdisk(testnet());
        d.connect().unwrap();
        let h = d.open("vol/vr_temp.0", OpenMode::Create).unwrap().value;
        let payload: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        d.write(h, &payload).unwrap();
        d.close(h).unwrap();
        let h = d.open("vol/vr_temp.0", OpenMode::Read).unwrap().value;
        let got = d.read(h, payload.len()).unwrap().value;
        assert_eq!(&got[..], &payload[..]);
    }

    #[test]
    fn transfer_model_composes_wan_and_server() {
        let mut d = rdisk(testnet());
        d.connect().unwrap();
        // 2 MB: WAN 2/0.3 s + latency 0.025 + per_request 0.005 + server 1.0
        let t = d.transfer_model(OpKind::Write, 2_000_000, 1);
        let expect = 2.0 / 0.3 + 0.025 + 0.005 + 1.0;
        assert!((t.as_secs() - expect).abs() < 1e-6, "got {t}");
    }

    fn set_wan(net: &SharedNetwork, up: bool) {
        net.write().set_up(up);
    }

    #[test]
    fn wan_outage_surfaces_as_network_error() {
        let net = testnet();
        let mut d = rdisk(net.clone());
        d.connect().unwrap();
        let h = d.open("f", OpenMode::Create).unwrap().value;
        set_wan(&net, false);
        assert!(matches!(d.write(h, b"x"), Err(StorageError::Network(_))));
    }

    #[test]
    fn connect_fails_while_the_wan_is_down_and_the_session_survives() {
        let net = testnet();
        let mut d = rdisk(net.clone());
        d.connect().unwrap();
        set_wan(&net, false);
        assert!(matches!(d.connect(), Err(StorageError::Network(_))));
        set_wan(&net, true);
        // No reconnect: the session from before the outage still serves.
        let h = d.open("f", OpenMode::Create).unwrap().value;
        d.write(h, b"x").unwrap();
        assert_eq!(d.stats().connects, 1);
    }

    #[test]
    fn first_connect_after_the_wan_returns_is_free() {
        let net = testnet();
        let mut d = rdisk(net.clone());
        d.connect().unwrap();
        set_wan(&net, false);
        assert!(d.connect().is_err());
        set_wan(&net, true);
        assert_eq!(d.connect().unwrap().time, SimDuration::ZERO);
    }

    #[test]
    fn conn_cost_is_setup_alone_while_the_wan_is_down() {
        let net = testnet();
        let d = rdisk(net.clone());
        set_wan(&net, false);
        for op in [OpKind::Read, OpKind::Write] {
            assert_eq!(d.fixed_costs(op).conn, SimDuration::from_secs(0.39));
        }
    }

    #[test]
    fn transfer_model_before_connect_has_no_wire_term_while_the_wan_is_down() {
        let net = testnet();
        let d = rdisk(net.clone());
        set_wan(&net, false);
        // Server side only: 2 MB at 2 MB/s.
        let t = d.transfer_model(OpKind::Write, 2_000_000, 1);
        assert_eq!(t, RateCurve::constant_bandwidth(2.0).time_for(2_000_000));
    }

    #[test]
    fn offline_resource_rejects_everything() {
        let mut d = rdisk(testnet());
        d.connect().unwrap();
        d.set_online(false);
        assert!(matches!(
            d.open("f", OpenMode::Create),
            Err(StorageError::Offline { .. })
        ));
    }

    #[test]
    fn disconnect_then_io_fails() {
        let mut d = rdisk(testnet());
        d.connect().unwrap();
        let c = d.disconnect().unwrap();
        assert!((c.time.as_secs() - 0.0002).abs() < 1e-12);
        assert!(matches!(
            d.open("f", OpenMode::Create),
            Err(StorageError::NotConnected)
        ));
    }
}
