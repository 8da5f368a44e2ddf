//! Observability end to end: run an Astro3D workload with every layer
//! instrumented, print the aggregated metrics snapshot, export the event
//! stream as Chrome trace JSON + JSON-lines, and re-run the PTool sweep
//! under the loaded WAN for a sharper re-prediction.
//!
//! ```text
//! cargo run --release --example traced_run
//! ```
//!
//! Open `target/traced_run.trace.json` in Perfetto / `about:tracing` to see
//! the storage, network, runtime and session layers as separate processes
//! on the shared virtual timeline.

use msr::prelude::*;

fn main() -> CoreResult<()> {
    let mut sys = MsrSystem::testbed(7);

    // Calibrate the performance database, then drop the calibration traffic
    // from the stream: we want the run's own trace.
    sys.run_ptool(&PTool::default())?;
    sys.obs.clear();

    // A background-loaded WAN makes the trace (and the re-sweep) interesting.
    sys.set_wan_background_load(2.0);

    let grid = ProcGrid::new(2, 2, 2);
    let mut cfg = Astro3dConfig::small(64, 24);
    cfg.plan = PlacementPlan::uniform(LocationHint::Disable)
        .with("vr_temp", LocationHint::LocalDisk)
        .with("vr_press", LocationHint::RemoteDisk);
    let iters = cfg.iterations;
    let mut sim = Astro3d::new(cfg);

    let mut session = sys
        .session()
        .app("astro3d")
        .user("xshen")
        .iterations(iters)
        .grid(grid)
        .build()?;
    let mut handles = Vec::new();
    for spec in sim.dataset_specs() {
        handles.push((session.open(spec.clone())?, spec));
    }
    let stale = session.predict()?.total;

    // Application-layer markers interleave with the system's own events.
    let app_rec = sys.obs_recorder();
    for iter in 0..=iters {
        app_rec.instant(
            Layer::App,
            "astro3d",
            "iteration",
            sys.clock.now(),
            &format!("iter {iter}"),
        );
        for (h, spec) in &handles {
            if session.dumps_at(*h, iter) {
                let data = sim.field_bytes(&spec.name).expect("known field");
                session.write_iteration(*h, iter, &data)?;
            }
        }
        if iter < iters {
            sim.step();
        }
    }
    let report = session.finalize()?;

    // 1. Aggregated metrics snapshot.
    let snap = sys.obs.snapshot();
    println!("== metrics snapshot ==\n{snap}");

    // 2. Exports: Chrome trace + JSON-lines next to the build artifacts.
    let events = sys.obs.events();
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/traced_run.trace.json", chrome_trace(&events)).expect("write trace");
    std::fs::write("target/traced_run.events.jsonl", jsonl(&events)).expect("write jsonl");
    println!(
        "wrote target/traced_run.trace.json ({} events) and target/traced_run.events.jsonl",
        events.len()
    );

    // 3. Close the loop: measure the resources again under the current
    //    load and re-predict the run.
    sys.run_ptool(&PTool::default())?;
    let mut s2 = sys
        .session()
        .app("astro3d-re")
        .user("xshen")
        .iterations(iters)
        .grid(grid)
        .build()?;
    for spec in sim.dataset_specs() {
        s2.open(spec)?;
    }
    let fresh = s2.predict()?.total;
    println!(
        "actual I/O {:.2}s | predicted from calibration {:.2}s | after a \
         re-sweep: {:.2}s",
        report.total_io.as_secs(),
        stale.as_secs(),
        fresh.as_secs()
    );
    Ok(())
}
