//! The calls eq. (2) counts are the calls the engine issues.
//!
//! A dump is priced from the same call plan the engine runs, so
//! `Session::predict`'s `native_calls` for a dataset is the native reads
//! plus writes one of its dumps issues: for every strategy, for a fresh
//! (`Create`) dump and for an in-place (`OverWrite`) rewrite, on grids that
//! divide the array evenly, unevenly, and with ranks that own nothing. A
//! read-back is counted by its own plan.

use msr::predict::{plan_time, Learned, ResourceProfile};
use msr::prelude::*;
use msr::runtime::{CallPlan, Distribution};

/// The grids, each over the array it decomposes: one process, an even
/// 2×2×2 and an uneven 3×1×1 split of a 100³ `f32` cube, and a 5×8 grid
/// over an array too small for it, so ranks own nothing.
fn layouts() -> [(ProcGrid, Dims3); 4] {
    let cube = Dims3::cube(100);
    [
        (ProcGrid::new(1, 1, 1), cube),
        (ProcGrid::new(2, 2, 2), cube),
        (ProcGrid::new(3, 1, 1), cube),
        (ProcGrid::new(5, 8, 1), Dims3 { x: 4, y: 6, z: 10 }),
    ]
}

fn calls(report: &msr::runtime::IoReport) -> u64 {
    (report.native_reads + report.native_writes) as u64
}

#[test]
fn predicted_calls_are_the_calls_a_dump_issues() {
    for (grid, dims) in layouts() {
        for strategy in IoStrategy::ALL {
            for amode in [AccessMode::Create, AccessMode::OverWrite] {
                let at = format!("{strategy} {amode:?} on {grid} over {dims}");
                let sys = MsrSystem::testbed(43);
                let mut s = sys.session().iterations(1).grid(grid).build().unwrap();
                let spec = DatasetSpec::builder("d")
                    .element(ElementType::F32)
                    .dims(dims)
                    .frequency(1)
                    .amode(amode)
                    .hint(LocationHint::LocalDisk)
                    .strategy(strategy)
                    .build();
                let payload: Vec<u8> = (0..spec.snapshot_bytes())
                    .map(|i| (i * 7 % 251) as u8)
                    .collect();
                let h = s.open(spec).unwrap();
                let predicted = s.predict().unwrap().rows[0].native_calls;
                // An `OverWrite` dump is priced as the rewrite of a file
                // that exists: the second dump.
                let mut issued = s.write_iteration(h, 0, &payload).unwrap().unwrap();
                if amode == AccessMode::OverWrite {
                    issued = s.write_iteration(h, 1, &payload).unwrap().unwrap();
                }
                assert_eq!(predicted, calls(&issued), "{at}");
            }
        }
    }
}

#[test]
fn a_read_plan_counts_the_calls_the_read_issues() {
    for (grid, dims) in layouts() {
        let dist = Distribution::new(dims, 4, Pattern::bbb(), grid).unwrap();
        for strategy in IoStrategy::ALL {
            let sys = MsrSystem::testbed(44);
            let res = sys.resource(StorageKind::LocalDisk).unwrap();
            let payload: Vec<u8> = (0..dist.total_bytes()).map(|i| (i % 253) as u8).collect();
            let engine = &sys.engine;
            engine
                .write(&res, "d", &payload, &dist, strategy, OpenMode::Create)
                .unwrap();
            let (back, read) = engine.read(&res, "d", &dist, strategy).unwrap();
            assert_eq!(back, payload, "{strategy} on {grid}");
            let plan = CallPlan::read(strategy, dist);
            assert_eq!(plan.transfers(), calls(&read), "{strategy} on {grid}");
        }
    }
}

#[test]
fn a_sieving_write_prices_above_the_sieving_read_of_the_same_dump() {
    let sys = MsrSystem::testbed(45);
    let dist =
        Distribution::new(Dims3::cube(100), 4, Pattern::bbb(), ProcGrid::new(2, 2, 2)).unwrap();
    let disk = sys.resource(StorageKind::RemoteDisk).unwrap();
    let profile = ResourceProfile::of_model(&*disk.lock(), OpKind::Write);
    let price = |plan: CallPlan| plan_time(&plan, |_| &profile, Learned::default());
    let read = price(CallPlan::read(IoStrategy::DataSieving, dist));
    for mode in [OpenMode::Create, OpenMode::OverWrite] {
        let write = price(CallPlan::write(IoStrategy::DataSieving, mode, dist));
        // The read-modify-write pass: a read of an extent more.
        assert!(write > read, "{mode:?}: write {write} vs read {read}");
    }
}
