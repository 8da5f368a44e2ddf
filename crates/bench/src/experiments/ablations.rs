//! Ablation studies for the design choices DESIGN.md calls out: the I/O
//! strategy, the tape drive pool, WAN background load, the superfile
//! staging cache, and write-behind buffering.

use msr_core::MsrSystem;
use msr_net::{LinkSpec, Network};
use msr_runtime::{
    Dims3, Distribution, IoEngine, IoStrategy, Pattern, ProcGrid, Superfile, WriteBehind,
};
use msr_sim::SimDuration;
use msr_storage::{
    hpss_params, hpss_protocol, share, OpenMode, SharedResource, StorageKind, TapeResource,
};
use rayon::prelude::*;

/// `(label, virtual seconds)` ablation row.
pub type AblationRow = (String, f64);

/// Strategy ablation: one 64³ f32 dataset dumped to the remote disk under
/// each strategy, 8 processes.
pub fn ablation_strategies(seed: u64) -> Vec<AblationRow> {
    IoStrategy::ALL
        .into_par_iter()
        .map(|strategy| {
            let sys = MsrSystem::testbed(seed);
            let res = sys.resource(StorageKind::RemoteDisk).expect("testbed");
            res.lock().connect().expect("connect");
            let dist =
                Distribution::new(Dims3::cube(64), 4, Pattern::bbb(), ProcGrid::new(2, 2, 2))
                    .expect("valid distribution");
            let data: Vec<u8> = (0..dist.total_bytes()).map(|i| (i % 251) as u8).collect();
            let report = IoEngine::default()
                .write(&res, "abl/d", &data, &dist, strategy, OpenMode::Create)
                .expect("write");
            (strategy.to_string(), report.elapsed.as_secs())
        })
        .collect()
}

fn tape_with_drives(drives: usize, seed: u64) -> SharedResource {
    let net = msr_net::share(Network::new("ANL", "SDSC", LinkSpec::wan(0.28)));
    let mut params = hpss_params();
    params.num_drives = drives;
    share(TapeResource::new(
        "hpss-abl",
        net,
        hpss_protocol(),
        params,
        seed,
    ))
}

/// Tape drive-pool ablation: four datasets dumped round-robin (the worst
/// case for mount thrash) with 1, 2, 4 and 8 drives.
pub fn ablation_tape_drives(seed: u64) -> Vec<AblationRow> {
    [1usize, 2, 4, 8]
        .into_par_iter()
        .map(|drives| {
            let tape = tape_with_drives(drives, seed);
            tape.lock().connect().expect("connect");
            let payload = vec![0u8; 1 << 20];
            let mut total = SimDuration::ZERO;
            // 6 rounds over 4 dataset volumes: with few drives every open
            // remounts; with ≥4 drives all volumes stay mounted.
            for round in 0..6 {
                for vol in 0..4 {
                    let mut t = tape.lock();
                    let path = format!("vol{vol}/data.t{round}");
                    let open = t.open(&path, OpenMode::Create).expect("open");
                    total += open.time;
                    total += t.write(open.value, &payload).expect("write").time;
                    total += t.close(open.value).expect("close").time;
                }
            }
            (format!("{drives} drives"), total.as_secs())
        })
        .collect()
}

/// WAN background-load ablation: an 8 MiB remote-disk write under 0–4
/// equivalent competing streams.
pub fn ablation_net_load(seed: u64) -> Vec<AblationRow> {
    [0.0, 1.0, 2.0, 4.0]
        .into_par_iter()
        .map(|load| {
            let sys = MsrSystem::testbed(seed);
            sys.set_wan_background_load(load);
            let res = sys.resource(StorageKind::RemoteDisk).expect("testbed");
            let mut r = res.lock();
            r.connect().expect("connect");
            let open = r.open("abl/load", OpenMode::Create).expect("open");
            let mut total = open.time;
            total += r
                .write(open.value, &vec![0u8; 8 << 20])
                .expect("write")
                .time;
            total += r.close(open.value).expect("close").time;
            (format!("background load {load}"), total.as_secs())
        })
        .collect()
}

/// Superfile staging-cache ablation: read 20 members with an unlimited vs
/// a too-small cache.
pub fn ablation_superfile_cache(seed: u64) -> Vec<AblationRow> {
    [u64::MAX, 1024]
        .into_par_iter()
        .map(|limit| {
            let sys = MsrSystem::testbed(seed);
            let res = sys.resource(StorageKind::RemoteDisk).expect("testbed");
            res.lock().connect().expect("connect");
            let (_, sf) = Superfile::create(&res, "abl/container").expect("create");
            let mut sf = sf.with_cache_limit(limit);
            let member = vec![7u8; 16 << 10];
            for i in 0..20 {
                sf.write_member(&res, &format!("m{i}"), &member)
                    .expect("write");
            }
            sf.close(&res).expect("close");
            let mut total = SimDuration::ZERO;
            for i in 0..20 {
                total += sf.read_member(&res, &format!("m{i}")).expect("read").0;
            }
            let label = if limit == u64::MAX {
                "cache unlimited (stage once)".to_owned()
            } else {
                format!("cache {limit} B (member-by-member)")
            };
            (label, total.as_secs())
        })
        .collect()
}

/// Write-behind ablation: 20 iterations of 1 s compute + 0.8 s I/O with
/// synchronous I/O vs an unbounded write-behind buffer.
pub fn ablation_writebehind(_seed: u64) -> Vec<AblationRow> {
    let compute = SimDuration::from_secs(1.0);
    let io = SimDuration::from_secs(0.8);
    let sync_total = (compute + io) * 20.0;

    let mut wb = WriteBehind::new();
    for _ in 0..20 {
        wb.submit(io);
        wb.compute(compute);
    }
    vec![
        ("synchronous I/O".to_owned(), sync_total.as_secs()),
        (
            "write-behind (unbounded)".to_owned(),
            wb.makespan().as_secs(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_wins_the_strategy_ablation() {
        let rows = ablation_strategies(61);
        let get = |name: &str| {
            rows.iter()
                .find(|(l, _)| l == name)
                .map(|&(_, t)| t)
                .unwrap()
        };
        assert!(get("collective") < get("naive"));
        assert!(get("collective") <= get("subfile") * 1.5);
        assert!(get("data-sieving") < get("naive"));
    }

    #[test]
    fn more_drives_less_thrash() {
        let rows = ablation_tape_drives(62);
        let t: Vec<f64> = rows.iter().map(|&(_, t)| t).collect();
        // With a 4-volume round-robin, 1 and 2 drives both miss on every
        // open (LRU + cyclic access), so they are near-equal; 4 drives
        // eliminate the thrash entirely.
        assert!(
            (t[0] - t[1]).abs() / t[0] < 0.1,
            "1 drive {} vs 2 drives {}",
            t[0],
            t[1]
        );
        assert!(t[1] > 1.5 * t[3], "2 drives {} vs 8 drives {}", t[1], t[3]);
        // 4 volumes fit on 4 drives: no further win from 8.
        assert!((t[2] - t[3]).abs() / t[3] < 0.35);
    }

    #[test]
    fn background_load_degrades_monotonically() {
        let rows = ablation_net_load(63);
        let t: Vec<f64> = rows.iter().map(|&(_, t)| t).collect();
        assert!(t[0] < t[1] && t[1] < t[2] && t[2] < t[3]);
        // 1 competing stream ≈ halves the bandwidth.
        assert!((t[1] / t[0]) > 1.5);
    }

    #[test]
    fn staging_cache_pays_off() {
        let rows = ablation_superfile_cache(64);
        assert!(
            rows[0].1 < rows[1].1 / 2.0,
            "staged {} vs member reads {}",
            rows[0].1,
            rows[1].1
        );
    }

    #[test]
    fn writebehind_hides_io() {
        let rows = ablation_writebehind(0);
        assert!((rows[0].1 - 36.0).abs() < 1e-9);
        // Each 0.8 s I/O hides fully under the following 1 s compute.
        assert!((rows[1].1 - 20.0).abs() < 1e-6, "got {}", rows[1].1);
    }
}
