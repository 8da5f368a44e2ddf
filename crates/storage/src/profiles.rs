//! Calibrated testbed profiles.
//!
//! These presets reproduce the paper's experimental environment (§3.2):
//! an SP-2 at ANL with local SSA disks, an SRB-fronted disk farm and HPSS
//! tape tier at SDSC across one WAN link. The metadata database at NWU is
//! not on the network: a catalog query costs `msr_meta::QUERY_COST`.
//! Constants are calibrated against the paper's published numbers:
//!
//! * Table 1 fixed costs — matched exactly (conn 0.44/0.81 s, open
//!   0.42/6.17 s, close 0.63/0.83/0.46/0.42 s, connclose 0.0002 s, local
//!   open 0.20/0.21 s, local close 0.001 s).
//! * Fig. 11 per-dump times — matched within ≈ 10 % (8 MB float → tape
//!   ≈ 145 s/dump, 2 MB u8 → tape ≈ 44 s, 8 MB → remote disk ≈ 39 s),
//!   yielding effective rates of ≈ 0.06 MB/s (tape), ≈ 0.25 MB/s (remote
//!   disk) and ≈ 17 MB/s (local disk).

use crate::local_disk::{DiskParams, LocalDisk};
use crate::rate::RateCurve;
use crate::remote_disk::{RemoteDisk, RemoteFixed};
use crate::tape::{TapeParams, TapeResource};
use msr_net::{LinkSpec, Network, ProtocolCosts, SharedNetwork};
use msr_sim::{Jitter, SimDuration};

/// Sustained application-level WAN rate between ANL and SDSC (MB/s).
pub const WAN_RATE_MB_S: f64 = 0.28;
/// SDSC disk-farm server streaming rate (MB/s).
pub const REMOTE_DISK_SERVER_MB_S: f64 = 2.2;
/// HPSS tape drive streaming rate as seen through SRB (MB/s).
pub const TAPE_STREAM_MB_S: f64 = 0.075;
/// Local SSA disk rate (MB/s).
pub const LOCAL_DISK_MB_S: f64 = 17.0;
/// Default local disk capacity: deliberately smaller than one full Astro3D
/// run (≈ 2.2 GB) so the capacity dilemma of the paper is reproducible.
pub const LOCAL_DISK_CAPACITY: u64 = 2 * 1000 * 1000 * 1000;

/// SRB protocol costs calibrated so that `2 × RTT + setup` hits Table 1's
/// `T_conn` for the disk farm (0.44 s with the 25 ms WAN).
pub fn srb_protocol() -> ProtocolCosts {
    ProtocolCosts {
        conn_setup: SimDuration::from_secs(0.39),
        conn_teardown: SimDuration::from_micros(200.0),
        per_request: SimDuration::from_millis(5.0),
    }
}

/// HPSS-through-SRB protocol costs (`T_conn` = 0.81 s with the 25 ms WAN).
pub fn hpss_protocol() -> ProtocolCosts {
    ProtocolCosts {
        conn_setup: SimDuration::from_secs(0.76),
        conn_teardown: SimDuration::from_micros(200.0),
        per_request: SimDuration::from_millis(5.0),
    }
}

/// The SP-2 node's local disk subsystem (Table 1 rows 1–2).
pub fn anl_local_disk(seed: u64) -> LocalDisk {
    LocalDisk::new(
        "anl-local",
        DiskParams {
            open_read: SimDuration::from_secs(0.20),
            open_write: SimDuration::from_secs(0.21),
            close: SimDuration::from_secs(0.001),
            seek: SimDuration::from_micros(500.0),
            read_curve: RateCurve::constant_bandwidth(LOCAL_DISK_MB_S),
            write_curve: RateCurve::constant_bandwidth(LOCAL_DISK_MB_S),
            capacity: LOCAL_DISK_CAPACITY,
            jitter: Jitter::LogNormal { sigma: 0.02 },
        },
        seed,
    )
}

/// The SRB remote disk farm at SDSC (Table 1 rows 3–4).
pub fn sdsc_remote_disk(net: SharedNetwork, seed: u64) -> RemoteDisk {
    RemoteDisk::new(
        "sdsc-disk",
        net,
        srb_protocol(),
        RemoteFixed {
            open: SimDuration::from_secs(0.42),
            seek: SimDuration::from_secs(0.40),
            close_read: SimDuration::from_secs(0.63),
            close_write: SimDuration::from_secs(0.83),
        },
        RateCurve::constant_bandwidth(REMOTE_DISK_SERVER_MB_S),
        RateCurve::constant_bandwidth(REMOTE_DISK_SERVER_MB_S),
        1 << 40, // 1 TB disk cache
        seed,
    )
}

/// The calibrated HPSS tape parameters (exposed for ablations that vary
/// the drive pool or mount window).
pub fn hpss_params() -> TapeParams {
    TapeParams {
        open: SimDuration::from_secs(6.17),
        close_read: SimDuration::from_secs(0.46),
        close_write: SimDuration::from_secs(0.42),
        mount_min: SimDuration::from_secs(20.0),
        mount_max: SimDuration::from_secs(40.0),
        unmount: SimDuration::from_secs(8.0),
        position_base: SimDuration::from_secs(1.0),
        position_rate: 10e6,
        read_curve: RateCurve::constant_bandwidth(TAPE_STREAM_MB_S),
        write_curve: RateCurve::constant_bandwidth(TAPE_STREAM_MB_S),
        num_drives: 4,
        jitter: Jitter::LogNormal { sigma: 0.05 },
        recall: SimDuration::from_secs(DEFAULT_RECALL_SECS),
    }
}

/// Default shelf-recall latency for vaulted HPSS tapes: the robot export /
/// import cycle is measured in hours, not mount-seconds.
pub const DEFAULT_RECALL_SECS: f64 = 4.0 * 3600.0;

/// The HPSS tape tier at SDSC (Table 1 rows 5–6).
pub fn sdsc_hpss_tape(net: SharedNetwork, seed: u64) -> TapeResource {
    TapeResource::new("sdsc-hpss", net, hpss_protocol(), hpss_params(), seed)
}

/// The full experimental environment of §3.2, wired together.
pub struct Testbed {
    /// The ANL↔SDSC WAN, for load/outage injection.
    pub net: SharedNetwork,
    /// Node-local disks at ANL.
    pub local: LocalDisk,
    /// SRB disk farm at SDSC.
    pub remote_disk: RemoteDisk,
    /// HPSS tape at SDSC.
    pub tape: TapeResource,
}

/// Build the calibrated testbed. All noise streams derive from `seed`.
pub fn testbed(seed: u64) -> Testbed {
    let net = msr_net::share(Network::new("ANL", "SDSC", LinkSpec::wan(WAN_RATE_MB_S)));
    let local = anl_local_disk(seed);
    let remote_disk = sdsc_remote_disk(net.clone(), seed);
    let tape = sdsc_hpss_tape(net.clone(), seed);

    Testbed {
        net,
        local,
        remote_disk,
        tape,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::OpKind;

    #[test]
    fn table1_constants_are_reproduced() {
        let mut tb = testbed(0);
        tb.remote_disk.connect().unwrap();
        tb.tape.connect().unwrap();

        let ld_r = tb.local.fixed_costs(OpKind::Read);
        assert!((ld_r.open.as_secs() - 0.20).abs() < 1e-9);
        assert!((ld_r.close.as_secs() - 0.001).abs() < 1e-9);
        assert_eq!(ld_r.conn.as_secs(), 0.0);

        let ld_w = tb.local.fixed_costs(OpKind::Write);
        assert!((ld_w.open.as_secs() - 0.21).abs() < 1e-9);

        let rd_r = tb.remote_disk.fixed_costs(OpKind::Read);
        assert!((rd_r.conn.as_secs() - 0.44).abs() < 1e-9);
        assert!((rd_r.open.as_secs() - 0.42).abs() < 1e-9);
        assert!((rd_r.seek.as_secs() - 0.40).abs() < 1e-9);
        assert!((rd_r.close.as_secs() - 0.63).abs() < 1e-9);
        assert!((rd_r.connclose.as_secs() - 0.0002).abs() < 1e-9);

        let rt_w = tb.tape.fixed_costs(OpKind::Write);
        assert!((rt_w.conn.as_secs() - 0.81).abs() < 1e-9);
        assert!((rt_w.open.as_secs() - 6.17).abs() < 1e-9);
        assert!((rt_w.close.as_secs() - 0.42).abs() < 1e-9);
    }

    #[test]
    fn fig11_per_dump_anchors_hold_within_tolerance() {
        let tb = testbed(0);
        const MB8: u64 = 8 * 1024 * 1024 / 2 * 2; // 8 MiB-ish float dataset
        const MB2: u64 = 2 * 1024 * 1024;

        // 8 MB float dump to tape ≈ 145 s (paper: 3036.34 / 21 ≈ 144.6).
        let tape_call = tb.tape.transfer_model(OpKind::Write, MB8, 1).as_secs()
            + tb.tape.fixed_costs(OpKind::Write).total().as_secs();
        assert!(
            (130.0..175.0).contains(&tape_call),
            "tape per-dump {tape_call}"
        );

        // 2 MB u8 dump to tape ≈ 44 s (paper: 932.98 / 21 ≈ 44.4).
        let vr_call = tb.tape.transfer_model(OpKind::Write, MB2, 1).as_secs()
            + tb.tape.fixed_costs(OpKind::Write).total().as_secs();
        assert!(
            (36.0..53.0).contains(&vr_call),
            "tape vr per-dump {vr_call}"
        );

        // 8 MB float dump to remote disk ≈ 39 s (paper: 812.45 / 21 ≈ 38.7).
        let rd_call = tb
            .remote_disk
            .transfer_model(OpKind::Write, MB8, 1)
            .as_secs()
            + tb.remote_disk.fixed_costs(OpKind::Write).total().as_secs();
        assert!(
            (32.0..46.0).contains(&rd_call),
            "remote disk per-dump {rd_call}"
        );

        // 2 MB u8 to local disk: well under a second of transfer.
        let ld_call = tb.local.transfer_model(OpKind::Write, MB2, 1).as_secs();
        assert!(ld_call < 0.25, "local 2 MB transfer {ld_call}");
    }

    #[test]
    fn ordering_tape_slower_than_disk_slower_than_local() {
        let tb = testbed(0);
        let s = 4 * 1024 * 1024;
        let local = tb.local.transfer_model(OpKind::Write, s, 1);
        let rd = tb.remote_disk.transfer_model(OpKind::Write, s, 1);
        let tape = tb.tape.transfer_model(OpKind::Write, s, 1);
        assert!(local < rd && rd < tape);
    }

    #[test]
    fn local_capacity_is_smaller_than_a_full_run() {
        let tb = testbed(0);
        // One Astro3D run ≈ 2.2 GB > local capacity, the paper's dilemma.
        assert!(tb.local.capacity_bytes() < 2_200_000_000);
    }
}
