//! Figure 10 — post-processing I/O time: (a) data analysis, (b)
//! visualization, (c) superfile vs naive small-file access.

use super::{run_astro3d, system_with_perfdb, Scale};
use msr_apps::analysis::run_analysis;
use msr_apps::volren::{run_volren, run_volren_superfile, RenderMode};
use msr_apps::PlacementPlan;
use msr_core::{LocationHint, MsrSystem, Volume};
use msr_meta::RunId;
use msr_runtime::{CallPlan, Distribution, IoStrategy, ProcGrid};
use msr_sim::SimDuration;
use msr_storage::{OpKind, OpenMode, StorageKind};
use rayon::prelude::*;

/// A labelled placement-comparison bar: the same consumer workload with
/// the dataset on two different media.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// What was read and from where.
    pub label: String,
    /// Measured I/O time.
    pub actual: SimDuration,
    /// Predicted I/O time: every dump's read priced by eq. (2).
    pub predicted: SimDuration,
}

/// Eq. (2)'s price of the consumer's `dumps` collective reads of
/// `dataset` of `run` from `kind`, each dump laid out as `dist`. Taken
/// before the reads: the first also pays the mount if the dataset's volume
/// is on no drive then.
fn predicted_reads(
    sys: &MsrSystem,
    run: RunId,
    kind: StorageKind,
    dataset: &str,
    dist: Distribution,
    dumps: u32,
) -> SimDuration {
    let plan = CallPlan::read(IoStrategy::Collective, dist);
    let rec = sys.catalog.lock().find_dataset(run, dataset).cloned();
    let path = rec.expect("the producer recorded the dataset").path;
    let mount = sys.mount_price(kind, OpKind::Read, Volume::Of(&path));
    sys.price(kind, dataset, Volume::Mounted, &plan) * f64::from(dumps) + mount
}

/// Run the producer with `dataset` placed by `hint`; returns the run,
/// its iteration count, its process grid and the layout of one dump of
/// `dataset`, taken from the producer's own spec of it.
fn produce(
    sys: &MsrSystem,
    scale: Scale,
    dataset: &str,
    hint: LocationHint,
    seed: u64,
) -> (RunId, u32, ProcGrid, Distribution) {
    let plan = PlacementPlan::uniform(LocationHint::Disable).with(dataset, hint);
    let cfg = scale.astro3d(plan.clone(), seed);
    let (grid, iters) = (cfg.grid, cfg.iterations);
    let spec = cfg
        .dataset_specs()
        .into_iter()
        .find(|s| s.name == dataset)
        .expect("the producer dumps the dataset");
    let dist = Distribution::new(spec.dims, spec.etype.size(), spec.pattern, grid)
        .expect("the producer's grid divides its cube");
    let (report, _) = run_astro3d(sys, scale, plan, seed).expect("producer run");
    (report.run, iters, grid, dist)
}

/// Fig. 10(a): MSE data analysis on `temp`, reading from tape vs remote
/// disk.
pub fn fig10a(scale: Scale, seed: u64) -> Vec<CompareRow> {
    [
        (StorageKind::RemoteTape, LocationHint::RemoteTape),
        (StorageKind::RemoteDisk, LocationHint::RemoteDisk),
    ]
    .into_par_iter()
    .map(|(kind, hint)| {
        let sys = system_with_perfdb(scale, seed);
        let (run, iters, grid, dist) = produce(&sys, scale, "temp", hint, seed);
        let dumps = iters / 6 + 1;
        let predicted = predicted_reads(&sys, run, kind, "temp", dist, dumps);
        let series = run_analysis(&sys, run, "temp", iters, 6, grid, IoStrategy::Collective)
            .expect("analysis run");
        CompareRow {
            label: format!("analyse temp from {kind}"),
            actual: series.io_time,
            predicted,
        }
    })
    .collect()
}

/// Fig. 10(b): visualization reads — `vr_temp` from local disk vs tape,
/// `vr_press` from remote disk vs tape.
pub fn fig10b(scale: Scale, seed: u64) -> Vec<CompareRow> {
    let cases = [
        ("vr_temp", LocationHint::LocalDisk, StorageKind::LocalDisk),
        ("vr_temp", LocationHint::RemoteTape, StorageKind::RemoteTape),
        (
            "vr_press",
            LocationHint::RemoteDisk,
            StorageKind::RemoteDisk,
        ),
        (
            "vr_press",
            LocationHint::RemoteTape,
            StorageKind::RemoteTape,
        ),
    ];
    cases
        .into_par_iter()
        .map(|(name, hint, kind)| {
            let sys = system_with_perfdb(scale, seed);
            let (run, iters, grid, dist) = produce(&sys, scale, name, hint, seed);
            // The visualization tool (Volren / VTK stand-in) reads every dump.
            let mut io = SimDuration::ZERO;
            let dumps = iters / 6 + 1;
            let predicted = predicted_reads(&sys, run, kind, name, dist, dumps);
            let mut iter = 0;
            while iter <= iters {
                let (_, rep) = sys
                    .read_dataset(run, name, iter, grid, IoStrategy::Collective)
                    .expect("viz read");
                io += rep.elapsed;
                iter += 6;
            }
            CompareRow {
                label: format!("visualize {name} from {kind}"),
                actual: io,
                predicted,
            }
        })
        .collect()
}

/// The Fig. 10(c) result: naive small files vs superfile on one resource.
#[derive(Debug, Clone)]
pub struct SuperfileRow {
    /// Which resource held the images.
    pub resource: StorageKind,
    /// Number of image files.
    pub frames: u32,
    /// Naive write / superfile write times.
    pub write_naive: SimDuration,
    /// Superfile write time.
    pub write_superfile: SimDuration,
    /// Naive read-back of all frames.
    pub read_naive: SimDuration,
    /// Superfile read-back of all frames (stage once, then memory).
    pub read_superfile: SimDuration,
}

/// Fig. 10(c): Volren's images stored naively vs in a superfile, on the
/// remote disk and on tape.
pub fn fig10c(scale: Scale, seed: u64) -> Vec<SuperfileRow> {
    [StorageKind::RemoteDisk, StorageKind::RemoteTape]
        .into_par_iter()
        .map(|kind| {
            let sys = system_with_perfdb(scale, seed);
            // Volumes come from fast local disk so image I/O dominates.
            let (run, iters, grid, _) =
                produce(&sys, scale, "vr_temp", LocationHint::LocalDisk, seed);
            let target = sys.resource(kind).expect("testbed resource");
            target.lock().connect().expect("connect");

            let naive = run_volren(
                &sys,
                run,
                "vr_temp",
                iters,
                6,
                grid,
                RenderMode::MaxIntensity,
                &target,
                "volren/naive",
            )
            .expect("naive volren");
            let (superfile, mut sf) = run_volren_superfile(
                &sys,
                run,
                "vr_temp",
                iters,
                6,
                grid,
                RenderMode::MaxIntensity,
                &target,
                "volren/container",
            )
            .expect("superfile volren");

            // Read everything back both ways.
            let mut read_naive = SimDuration::ZERO;
            {
                let mut r = target.lock();
                for f in r.list("volren/naive/") {
                    let open = r.open(&f, OpenMode::Read).expect("open frame");
                    read_naive += open.time;
                    let len = r.file_size(&f).unwrap_or(0) as usize;
                    read_naive += r.read(open.value, len).expect("read frame").time;
                    read_naive += r.close(open.value).expect("close frame").time;
                }
            }
            let mut read_superfile = SimDuration::ZERO;
            for m in sf.members() {
                read_superfile += sf.read_member(&target, &m).expect("member read").0;
            }

            SuperfileRow {
                resource: kind,
                frames: naive.frames,
                write_naive: naive.write_time,
                write_superfile: superfile.write_time,
                read_naive,
                read_superfile,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10a_remote_disk_beats_tape() {
        let rows = fig10a(Scale::Quick, 21);
        assert_eq!(rows.len(), 2);
        let tape = rows[0].actual.as_secs();
        let disk = rows[1].actual.as_secs();
        assert!(disk < tape / 2.0, "disk {disk} vs tape {tape}");
    }

    #[test]
    fn fig10b_local_is_at_least_10x_tape() {
        let rows = fig10b(Scale::Quick, 22);
        let local = rows[0].actual.as_secs();
        let tape = rows[1].actual.as_secs();
        assert!(
            tape > 10.0 * local,
            "paper claims 10x: local {local} tape {tape}"
        );
        // vr_press: remote disk beats tape too.
        assert!(rows[2].actual < rows[3].actual);
    }

    #[test]
    fn fig10c_superfile_wins_both_ways() {
        let rows = fig10c(Scale::Quick, 23);
        for r in rows {
            assert!(
                r.read_superfile.as_secs() < r.read_naive.as_secs() / 3.0,
                "{}: superfile read {} vs naive {}",
                r.resource,
                r.read_superfile,
                r.read_naive
            );
            assert!(r.write_superfile < r.write_naive);
            assert!(r.frames >= 3);
        }
    }
}
