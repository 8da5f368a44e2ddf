//! Prediction integration: PTool → PerfDb → eq. (2) vs actual sessions,
//! disk persistence of the performance database, re-prediction after a
//! re-sweep under changed conditions, and the §7 performance-target
//! policy.

use msr::predict::{compare, PerfDb};
use msr::prelude::*;

fn quick_ptool() -> PTool {
    PTool {
        sizes: vec![1 << 12, 1 << 15, 1 << 18, 1 << 21],
        reps: 2,
        scratch_prefix: "ptool/int".into(),
    }
}

fn run_and_compare(hint: LocationHint, n: u64) -> (f64, f64) {
    let mut sys = MsrSystem::testbed(301);
    sys.run_ptool(&quick_ptool()).unwrap();
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(24)
        .grid(ProcGrid::new(2, 2, 2))
        .build()
        .unwrap();
    let spec = DatasetSpec::astro3d_default("d", ElementType::U8, n).with_hint(hint);
    let payload: Vec<u8> = (0..spec.snapshot_bytes())
        .map(|i| (i % 251) as u8)
        .collect();
    let h = s.open(spec).unwrap();
    let predicted = s.predict().unwrap().total;
    for iter in (0..=24).step_by(6) {
        s.write_iteration(h, iter, &payload).unwrap();
    }
    let report = s.finalize().unwrap();
    (predicted.as_secs(), report.datasets[0].io_time.as_secs())
}

#[test]
fn predictions_within_tolerance_on_every_kind() {
    // Dump sizes near the paper's (2 MiB) keep the per-call fixed costs
    // subdominant; eq. (2) then tracks the engine closely.
    for (hint, tolerance) in [
        (LocationHint::LocalDisk, 0.40), // fixed-cost dominated: looser
        (LocationHint::RemoteDisk, 0.25),
        (LocationHint::RemoteTape, 0.25),
    ] {
        let (p, a) = run_and_compare(hint, 128);
        let err = (p - a).abs() / a;
        assert!(
            err < tolerance,
            "{hint:?}: predicted {p:.2} actual {a:.2} err {err:.2}"
        );
    }
}

#[test]
fn perfdb_survives_disk_persistence() {
    let mut sys = MsrSystem::testbed(303);
    sys.run_ptool(&quick_ptool()).unwrap();
    let db = sys.perf_db().clone();
    let path = std::env::temp_dir().join("msr_perfdb_test.json");
    db.save(&path).unwrap();
    let loaded = PerfDb::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, db);
}

#[test]
fn performance_target_policy_picks_fast_media_for_tight_deadlines() {
    let mut sys = MsrSystem::testbed(304);
    sys.run_ptool(&quick_ptool()).unwrap();

    // Tight deadline: only local disk can dump 2 MiB in under a second.
    sys.set_policy(PlacementPolicy::PerformanceTarget {
        per_dump: SimDuration::from_secs(1.0),
    });
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(6)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let spec = DatasetSpec::astro3d_default("tight", ElementType::U8, 128);
    let h = s.open(spec).unwrap();
    let payload = vec![1u8; 128 * 128 * 128];
    s.write_iteration(h, 0, &payload).unwrap();
    let r = s.finalize().unwrap();
    assert_eq!(r.datasets[0].location, Some(StorageKind::LocalDisk));

    // Loose deadline: everything qualifies; the policy prefers the
    // largest-capacity resource (tape).
    sys.set_policy(PlacementPolicy::PerformanceTarget {
        per_dump: SimDuration::from_secs(1e6),
    });
    let mut s = sys
        .session()
        .app("app")
        .user("u2")
        .iterations(6)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let h = s
        .open(DatasetSpec::astro3d_default("loose", ElementType::U8, 128))
        .unwrap();
    s.write_iteration(h, 0, &payload).unwrap();
    let r = s.finalize().unwrap();
    assert_eq!(r.datasets[0].location, Some(StorageKind::RemoteTape));
}

#[test]
fn accuracy_report_over_multiple_datasets() {
    let mut sys = MsrSystem::testbed(305);
    sys.run_ptool(&quick_ptool()).unwrap();
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(24)
        .grid(ProcGrid::new(2, 2, 2))
        .build()
        .unwrap();
    let mut handles = Vec::new();
    for (name, hint) in [
        ("a", LocationHint::LocalDisk),
        ("b", LocationHint::RemoteDisk),
        ("c", LocationHint::RemoteTape),
    ] {
        let spec = DatasetSpec::astro3d_default(name, ElementType::U8, 64).with_hint(hint);
        handles.push((s.open(spec.clone()).unwrap(), spec));
    }
    let prediction = s.predict().unwrap();
    for iter in (0..=24).step_by(6) {
        for (h, spec) in &handles {
            let payload: Vec<u8> = (0..spec.snapshot_bytes())
                .map(|i| (i % 251) as u8)
                .collect();
            s.write_iteration(*h, iter, &payload).unwrap();
        }
    }
    let report = s.finalize().unwrap();
    let cmp = compare(
        prediction
            .rows
            .iter()
            .zip(&report.datasets)
            .map(|(p, a)| (p.name.clone(), p.total, a.io_time)),
    );
    let mape = cmp.mape().unwrap();
    assert!(mape < 0.5, "MAPE {mape}");
    assert!(cmp.to_string().contains("MAPE"));
}

fn rel_err(pred: SimDuration, actual: SimDuration) -> f64 {
    (pred.as_secs() - actual.as_secs()).abs() / actual.as_secs()
}

/// Calibration happens on a quiet WAN, then background traffic appears.
/// The prediction from the stale calibration misses badly; after PTool
/// sweeps the resources again under the new load, the same prediction
/// lands strictly closer to what the run actually cost.
#[test]
fn resweep_repredicts_strictly_more_accurately() {
    let mut sys = MsrSystem::testbed(7);
    let sweep = PTool {
        sizes: vec![1 << 18, 1 << 20, 1 << 21],
        reps: 2,
        scratch_prefix: "ptool/fb".into(),
    };
    // Calibrate on an idle system — the paper's Table 1 / Figs. 6–8 sweep.
    sys.run_ptool(&sweep).unwrap();

    // Conditions change after calibration: three competing WAN streams.
    sys.set_wan_background_load(3.0);

    let grid = ProcGrid::new(1, 1, 1);
    let sp = DatasetSpec::astro3d_default("vr_press", ElementType::U8, 128)
        .with_hint(LocationHint::RemoteDisk);
    let data: Vec<u8> = (0..sp.snapshot_bytes()).map(|i| (i % 251) as u8).collect();

    let mut s = sys
        .session()
        .app("astro3d")
        .user("xshen")
        .iterations(12)
        .grid(grid)
        .build()
        .unwrap();
    let h = s.open(sp.clone()).unwrap();
    let stale = s.predict().unwrap().total;
    for iter in 0..=12 {
        s.write_iteration(h, iter, &data).unwrap();
    }
    let actual = s.finalize().unwrap().total_io;
    assert!(actual > SimDuration::ZERO);
    // The stale database still believes in the quiet WAN.
    assert!(
        stale < actual,
        "stale calibration should underestimate under load: {} vs {}",
        stale.as_secs(),
        actual.as_secs()
    );

    // Measure the resources again under the current load.
    sys.run_ptool(&sweep).unwrap();

    // Re-predict the same plan with the re-swept database.
    let mut s2 = sys
        .session()
        .app("astro3d-next")
        .user("xshen")
        .iterations(12)
        .grid(grid)
        .build()
        .unwrap();
    s2.open(sp).unwrap();
    let fresh = s2.predict().unwrap().total;

    let (e_stale, e_fresh) = (rel_err(stale, actual), rel_err(fresh, actual));
    assert!(
        e_fresh < e_stale,
        "re-swept DB should predict strictly better: stale err {:.3} ({}s), fresh err {:.3} ({}s), actual {}s",
        e_stale,
        stale.as_secs(),
        e_fresh,
        fresh.as_secs(),
        actual.as_secs()
    );
}
