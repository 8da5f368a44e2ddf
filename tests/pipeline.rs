//! End-to-end integration: the full Fig. 1(b) environment — Astro3D
//! produces through the API, the consumers (analysis, Volren, viewer)
//! read back through the catalog, across all three storage classes.

use msr::apps::analysis::run_analysis;
use msr::apps::volren::{run_volren_superfile, RenderMode};
use msr::apps::{bytes_to_f32s, Image};
use msr::prelude::*;

fn produce(sys: &MsrSystem, plan: PlacementPlan) -> (msr::meta::RunId, ProcGrid, u32) {
    let mut cfg = Astro3dConfig::small(16, 12);
    cfg.plan = plan;
    let (grid, iters) = (cfg.grid, cfg.iterations);
    let mut sim = Astro3d::new(cfg);
    let mut session = sys
        .session()
        .app("astro3d")
        .user("it")
        .iterations(iters)
        .grid(grid)
        .build()
        .unwrap();
    sim.run(&mut session).unwrap();
    let run = session.run_id();
    session.finalize().unwrap();
    (run, grid, iters)
}

#[test]
fn produced_data_is_bitwise_recoverable_from_every_resource() {
    let sys = MsrSystem::testbed(101);
    let plan = PlacementPlan::uniform(LocationHint::RemoteTape)
        .with("temp", LocationHint::RemoteDisk)
        .with("vr_temp", LocationHint::LocalDisk);
    let (run, grid, _) = produce(&sys, plan);

    // Each dataset reads back from where the catalog says it is, with
    // finite float content / plausible u8 content.
    for (name, check_f32) in [("temp", true), ("rho", true), ("vr_temp", false)] {
        let (bytes, report) = sys
            .read_dataset(run, name, 6, grid, IoStrategy::Collective)
            .unwrap();
        assert!(report.elapsed > SimDuration::ZERO);
        if check_f32 {
            let f = bytes_to_f32s(&bytes);
            assert_eq!(f.len(), 16 * 16 * 16);
            assert!(f.iter().all(|x| x.is_finite() && *x > 0.0), "{name}");
        } else {
            assert_eq!(bytes.len(), 16 * 16 * 16);
        }
    }
}

#[test]
fn reads_from_local_beat_disk_beat_tape() {
    let sys = MsrSystem::testbed(102);
    let plan = PlacementPlan::uniform(LocationHint::Disable)
        .with("vr_temp", LocationHint::LocalDisk)
        .with("vr_press", LocationHint::RemoteDisk)
        .with("vr_rho", LocationHint::RemoteTape);
    let (run, grid, _) = produce(&sys, plan);
    let t = |name: &str| {
        sys.read_dataset(run, name, 6, grid, IoStrategy::Collective)
            .unwrap()
            .1
            .elapsed
    };
    let (local, disk, tape) = (t("vr_temp"), t("vr_press"), t("vr_rho"));
    assert!(local < disk, "local {local} < disk {disk}");
    assert!(disk < tape, "disk {disk} < tape {tape}");
}

#[test]
fn analysis_series_shrinks_as_diffusion_smooths_the_field() {
    let sys = MsrSystem::testbed(103);
    let plan = PlacementPlan::uniform(LocationHint::Disable).with("temp", LocationHint::LocalDisk);
    let (run, grid, iters) = produce(&sys, plan);
    let series = run_analysis(&sys, run, "temp", iters, 6, grid, IoStrategy::Collective).unwrap();
    assert_eq!(series.points.len(), 2);
    assert!(series.points.iter().all(|&(_, e)| e.is_finite() && e > 0.0));
}

#[test]
fn volren_pipeline_renders_valid_pgms_into_a_superfile() {
    let sys = MsrSystem::testbed(104);
    let plan =
        PlacementPlan::uniform(LocationHint::Disable).with("vr_temp", LocationHint::LocalDisk);
    let (run, grid, iters) = produce(&sys, plan);
    let remote = sys.resource(StorageKind::RemoteDisk).unwrap();
    remote.lock().connect().unwrap();
    let (report, mut sf) = run_volren_superfile(
        &sys,
        run,
        "vr_temp",
        iters,
        6,
        grid,
        RenderMode::Compositing,
        &remote,
        "volren/c",
    )
    .unwrap();
    assert_eq!(report.frames, 3);
    assert_eq!(sf.members().len(), 3);
    for m in sf.members() {
        let (_, bytes) = sf.read_member(&remote, &m).unwrap();
        let img = Image::from_pgm(&bytes).expect("valid PGM");
        assert_eq!((img.width, img.height), (16, 16));
    }
    // A second consumer process re-opens the container from the index.
    let (_, mut sf2) = Superfile::open(&remote, "volren/c").unwrap();
    assert_eq!(sf2.members(), sf.members());
    let (_, first) = sf2.read_member(&remote, &sf.members()[0]).unwrap();
    assert!(Image::from_pgm(&first).is_some());
}

#[test]
fn checkpoint_restart_roundtrip_via_overwrite_amode() {
    let sys = MsrSystem::testbed(105);
    let plan = PlacementPlan::uniform(LocationHint::Disable)
        .with("restart_temp", LocationHint::RemoteDisk);
    let (run, grid, iters) = produce(&sys, plan);
    // The restart dataset is overwritten in place: reading "iteration 0"
    // of an OverWrite dataset returns the latest snapshot.
    let (bytes, _) = sys
        .read_dataset(run, "restart_temp", iters, grid, IoStrategy::Collective)
        .unwrap();
    let f = bytes_to_f32s(&bytes);
    assert_eq!(f.len(), 16 * 16 * 16);
    assert!(f.iter().all(|x| x.is_finite()));
    // Storage holds exactly one snapshot for the overwritten dataset.
    let rd = sys.resource(StorageKind::RemoteDisk).unwrap();
    let files = rd.lock().list("astro3d/");
    assert_eq!(files.len(), 1, "OverWrite keeps a single file: {files:?}");
}

#[test]
fn subfile_layout_is_recorded_so_consumers_read_it_correctly() {
    let sys = MsrSystem::testbed(107);
    let grid = ProcGrid::new(2, 2, 2);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(6)
        .grid(grid)
        .build()
        .unwrap();
    let spec = DatasetSpec::astro3d_default("d", ElementType::U8, 16)
        .with_hint(LocationHint::LocalDisk)
        .with_strategy(IoStrategy::Subfile);
    let data: Vec<u8> = (0..16u32 * 16 * 16).map(|i| (i % 251) as u8).collect();
    let h = s.open(spec).unwrap();
    s.write_iteration(h, 0, &data).unwrap();
    let run = s.run_id();
    s.finalize().unwrap();
    // The consumer asks for a collective read, but the engine finds the
    // dump stored as subfiles and reads them correctly anyway.
    let (back, _) = sys
        .read_dataset(run, "d", 0, grid, IoStrategy::Collective)
        .unwrap();
    assert_eq!(back, data);
}

#[test]
fn checkpoint_restart_resumes_the_simulation_exactly() {
    let sys = MsrSystem::testbed(108);
    // Original run: physics with checkpoints to the remote disk.
    let mut cfg = Astro3dConfig::small(10, 12);
    cfg.plan = PlacementPlan::uniform(LocationHint::Disable)
        .with("restart_rho", LocationHint::RemoteDisk)
        .with("restart_temp", LocationHint::RemoteDisk)
        .with("restart_ux", LocationHint::RemoteDisk)
        .with("restart_uy", LocationHint::RemoteDisk)
        .with("restart_uz", LocationHint::RemoteDisk)
        .with("restart_press", LocationHint::RemoteDisk);
    let grid = cfg.grid;
    let mut original = Astro3d::new(cfg.clone());
    let mut session = sys
        .session()
        .app("astro3d")
        .user("u")
        .iterations(12)
        .grid(grid)
        .build()
        .unwrap();
    original.run(&mut session).unwrap();
    let run = session.run_id();
    session.finalize().unwrap();

    // Crash-and-restart: a fresh process restores from the last
    // checkpoint (OverWrite amode: the latest snapshot).
    let restored = Astro3d::from_checkpoint(cfg, &sys, run, 12).unwrap();
    assert_eq!(restored.iteration(), 12);
    assert_eq!(
        restored.field_bytes("temp"),
        original.field_bytes("temp"),
        "restored state matches the producer bit-for-bit"
    );
    assert_eq!(restored.field_bytes("rho"), original.field_bytes("rho"));
    assert_eq!(restored.field_bytes("ux"), original.field_bytes("ux"));

    // Both copies evolve identically from here.
    let mut a = restored;
    let mut b = original;
    a.step();
    b.step();
    assert_eq!(a.field_bytes("temp"), b.field_bytes("temp"));
}

#[test]
fn catalog_records_where_everything_went() {
    let sys = MsrSystem::testbed(106);
    let plan =
        PlacementPlan::uniform(LocationHint::RemoteTape).with("vr_temp", LocationHint::LocalDisk);
    let (run, _, _) = produce(&sys, plan);
    let mut catalog = sys.catalog.lock();
    let all = catalog.datasets_for_run(run);
    assert_eq!(all.len(), 19);
    let vr_temp = all.iter().find(|d| d.name == "vr_temp").unwrap();
    assert_eq!(
        vr_temp.location,
        msr::meta::Location::Stored(StorageKind::LocalDisk)
    );
    let press = all.iter().find(|d| d.name == "press").unwrap();
    assert_eq!(
        press.location,
        msr::meta::Location::Stored(StorageKind::RemoteTape)
    );
}
