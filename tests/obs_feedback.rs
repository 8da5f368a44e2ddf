//! The closed feedback loop: observe a run, feed the events into the
//! performance database, and re-predict under the *current* conditions.
//!
//! This is the paper's "PTool runs in the background" promise made
//! testable: calibration happens on a quiet WAN, then background traffic
//! appears. The prediction from the stale calibration misses badly; after
//! `PerfDbFeeder` folds one observed run back into the database, the same
//! prediction lands strictly closer to what the run actually cost.

use msr::core::{DatasetSpec, LocationHint, MsrSystem};
use msr::meta::ElementType;
use msr::predict::{observed_resources, PTool, PerfDbFeeder};
use msr::runtime::ProcGrid;
use msr::sim::SimDuration;

fn rel_err(pred: SimDuration, actual: SimDuration) -> f64 {
    (pred.as_secs() - actual.as_secs()).abs() / actual.as_secs()
}

#[test]
fn feeder_updated_db_repredicts_strictly_more_accurately() {
    let mut sys = MsrSystem::testbed(7);
    // Calibrate on an idle system — the paper's Table 1 / Figs. 6–8 sweep.
    sys.run_ptool(&PTool {
        sizes: vec![1 << 18, 1 << 20, 1 << 21],
        reps: 2,
        scratch_prefix: "ptool/fb".into(),
    })
    .unwrap();
    // Calibration traffic is not run feedback; start the stream clean.
    sys.obs.clear();

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
    let report = s.finalize().unwrap();
    let actual = report.total_io;
    assert!(actual > SimDuration::ZERO);
    // The stale database still believes in the quiet WAN.
    assert!(
        stale < actual,
        "stale calibration should underestimate under load: {} vs {}",
        stale.as_secs(),
        actual.as_secs()
    );

    // Fold the observed native calls back into a copy of the database.
    let events = sys.obs.events();
    let remote = sys
        .resource(msr::storage::StorageKind::RemoteDisk)
        .unwrap()
        .lock()
        .name()
        .to_owned();
    assert!(
        observed_resources(&events).contains(&remote),
        "run should have touched {remote}"
    );
    let feeder = PerfDbFeeder {
        alpha: 0.5,
        ..Default::default()
    };
    let mut db = sys.perf_db().clone();
    let summary = feeder.ingest(&mut db, &events);
    assert!(summary.changed(), "no feedback applied: {summary:?}");
    assert!(summary.transfer_updates > 0);
    sys.set_perf_db(db);

    // Re-predict the same plan with the fed database.
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
        "fed DB should predict strictly better: stale err {:.3} ({}s), fresh err {:.3} ({}s), actual {}s",
        e_stale,
        stale.as_secs(),
        e_fresh,
        fresh.as_secs(),
        actual.as_secs()
    );
}
