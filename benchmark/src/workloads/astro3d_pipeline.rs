//! `astro3d_pipeline` — the paper's own single-client path (Fig. 1(b)) at
//! the array size where every copy misses cache.
//!
//! One Astro3D producer on one testbed with a PTool-populated performance
//! database: 128³ arrays (Table 2), a 2×2×2 grid, all 19 datasets dumped
//! every 6 iterations under `StepMode::Cheap`; tape by default, `temp` and
//! `press` on the remote disk, `vr_temp` and `vr_press` on the local disk.
//! The timed region is `Session::predict`, the `advance` / `field_bytes` /
//! `write_iteration` loop and `finalize`, then the consumers: the MSE
//! analysis over `temp` (remote disk) and `rho` (tape) and the volume
//! renderer over `vr_temp` into a superfile on the remote disk. The
//! consumers are written out here call by call — what `run_analysis` and
//! `run_volren_superfile` do — so each call into a crate gets its span.
//!
//! `msr-apps` does most of the host work, `msr-runtime` + `msr-storage`
//! collective writes most of the rest; `msr-sched` and `msr-chunk` do
//! nothing. The only workload with a paper-comparable prediction error.

use super::{
    abs_err_pct, msg, ptool_sweep, record_prediction, stored_per_logical, wan_bytes, Cx, Numbers,
    Rep, Res, Scale, Timed, Workload,
};
use crate::stats::tail_percentile;
use crate::trace::Layer;
use crate::{layers, probes};
use msr_apps::{
    bytes_to_f32s, max_square_error, render, Astro3d, Astro3dConfig, PlacementPlan, RenderMode,
    StepMode,
};
use msr_chunk::Digest;
use msr_core::{LocationHint, MsrSystem};
use msr_runtime::{Distribution, IoStrategy, ProcGrid, Superfile};
use msr_storage::StorageKind;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every dataset kind dumps at this frequency (Table 2).
const FREQUENCY: u32 = 6;
/// Datasets the consumers read back, and so the ones whose dumps are
/// digested at write time.
const ANALYSED: [&str; 2] = ["temp", "rho"];
const RENDERED: &str = "vr_temp";

/// `(array edge, iterations)` at `scale`.
fn size(scale: Scale) -> (u64, u32) {
    match scale {
        Scale::Full => (128, 24),
        Scale::Smoke => (16, 12),
    }
}

fn config(scale: Scale, seed: u64) -> Astro3dConfig {
    let (n, iterations) = size(scale);
    Astro3dConfig {
        n,
        iterations,
        analysis_freq: FREQUENCY,
        viz_freq: FREQUENCY,
        ckpt_freq: FREQUENCY,
        grid: ProcGrid::new(2, 2, 2),
        plan: PlacementPlan::uniform(LocationHint::RemoteTape)
            .with("temp", LocationHint::RemoteDisk)
            .with("press", LocationHint::RemoteDisk)
            .with("vr_temp", LocationHint::LocalDisk)
            .with("vr_press", LocationHint::LocalDisk),
        strategy: IoStrategy::Collective,
        step_mode: StepMode::Cheap,
        seed,
    }
}

struct State {
    sys: MsrSystem,
    ops: probes::Ops,
}

/// The workload.
#[derive(Default)]
pub struct Pipeline {
    last: Option<State>,
}

impl Workload for Pipeline {
    fn entry(&self) -> Layer {
        Layer::Core
    }

    fn rep(&mut self, cx: &mut Cx) -> Res<Rep> {
        self.last = None;
        cx.tr.enter(Layer::Bench, "setup");
        let t = Instant::now();
        let mut sys = MsrSystem::testbed(cx.seed);
        let ptool_sweep_s = ptool_sweep(&mut sys, cx.tr)?;
        let cfg = config(cx.scale, cx.seed);
        let (iterations, grid, n) = (cfg.iterations, cfg.grid, cfg.n as usize);
        let mut sim = cx.tr.call(Layer::Apps, "astro3d_new", || Astro3d::new(cfg));
        let specs = sim.dataset_specs();
        let setup_s = t.elapsed().as_secs_f64();
        cx.tr.exit();

        let tr = &mut *cx.tr;
        let mut timed = Timed::start(tr);
        // What the producer wrote, by (dataset, iteration).
        let mut written: BTreeMap<(&str, u32), Digest> = BTreeMap::new();
        // Virtual seconds the client blocked in each I/O call.
        let mut blocked = Vec::new();
        let mut ops = probes::Ops::default();
        let (mut logical_written, mut logical_read) = (0u64, 0u64);

        // --- produce -------------------------------------------------------
        tr.enter(Layer::Bench, "produce");
        let mut session = tr
            .call(Layer::Core, "session_build", || {
                sys.session()
                    .app("astro3d")
                    .user("bench")
                    .iterations(iterations)
                    .grid(grid)
                    .build()
            })
            .map_err(msg)?;
        let mut handles = Vec::with_capacity(specs.len());
        for spec in &specs {
            let h = tr
                .call(Layer::Core, "open", || session.open(spec.clone()))
                .map_err(msg)?;
            handles.push((h, spec));
        }
        let predicted = tr
            .call(Layer::Predict, "predict", || session.predict())
            .map_err(msg)?;
        for iter in 0..=iterations {
            for (h, spec) in &handles {
                if !session.dumps_at(*h, iter) {
                    continue;
                }
                let data = tr
                    .call(Layer::Apps, "field_bytes", || sim.field_bytes(&spec.name))
                    .ok_or_else(|| format!("unknown field {}", spec.name))?;
                let report = tr
                    .call(Layer::Core, "write_iteration", || {
                        session.write_iteration(*h, iter, &data)
                    })
                    .map_err(msg)?
                    .ok_or_else(|| format!("{}@{iter} did not dump", spec.name))?;
                blocked.push(report.elapsed.as_secs());
                logical_written += report.bytes;
                timed.untimed(tr, || {
                    let dist = Distribution::new(spec.dims, spec.etype.size(), spec.pattern, grid)
                        .expect("the session accepted this layout");
                    ops.add_raw(dist, spec.strategy, 1, 0);
                    let name = spec.name.as_str();
                    if ANALYSED.contains(&name) || name == RENDERED {
                        written.insert((name, iter), Digest::of(&data));
                    }
                });
            }
            if iter < iterations {
                tr.call(Layer::Apps, "advance", || sim.advance());
            }
        }
        let run = session.run_id();
        let produce = tr
            .call(Layer::Core, "finalize", || session.finalize())
            .map_err(msg)?;
        tr.exit();

        // --- consume -------------------------------------------------------
        tr.enter(Layer::Bench, "consume");
        let mut consumed_s = 0.0;
        let mut read = |tr: &mut crate::trace::Tracer,
                        timed: &mut Timed,
                        name: &'static str,
                        iter: u32|
         -> Res<Vec<u8>> {
            let (bytes, io) = tr
                .call(Layer::Core, "read_dataset", || {
                    sys.read_dataset(run, name, iter, grid, IoStrategy::Collective)
                })
                .map_err(|e| format!("{name}@{iter}: {e}"))?;
            consumed_s += io.elapsed.as_secs();
            blocked.push(io.elapsed.as_secs());
            logical_read += io.bytes;
            timed.untimed(tr, || {
                if written.get(&(name, iter)) == Some(&Digest::of(&bytes)) {
                    Ok(bytes)
                } else {
                    Err(format!("{name}@{iter}: read differs from what was written"))
                }
            })
        };
        let dumps = || (0..=iterations).step_by(FREQUENCY as usize);
        for name in ANALYSED {
            let mut prev: Option<Vec<f32>> = None;
            for iter in dumps() {
                let bytes = read(tr, &mut timed, name, iter)?;
                let field = tr.call(Layer::Apps, "bytes_to_f32s", || bytes_to_f32s(&bytes));
                if let Some(prev) = &prev {
                    let mse = tr.call(Layer::Apps, "max_square_error", || {
                        max_square_error(prev, &field)
                    });
                    if !mse.is_finite() {
                        return Err(format!("{name}@{iter}: analysis is not finite"));
                    }
                }
                prev = Some(field);
            }
        }
        let remote = sys
            .resource(StorageKind::RemoteDisk)
            .ok_or("testbed has no remote disk")?;
        let mut volren_s = remote.lock().connect().map_err(msg)?.time.as_secs();
        let (t_create, mut frames) = tr
            .call(Layer::Runtime, "superfile_create", || {
                Superfile::create(&remote, "volren/frames.sf")
            })
            .map_err(msg)?;
        volren_s += t_create.as_secs();
        for iter in dumps() {
            let volume = read(tr, &mut timed, RENDERED, iter)?;
            let image = tr.call(Layer::Apps, "render", || {
                render(&volume, n, RenderMode::Compositing)
            });
            let pgm = tr.call(Layer::Apps, "to_pgm", || image.to_pgm());
            logical_written += pgm.len() as u64;
            volren_s += tr
                .call(Layer::Runtime, "superfile_write_member", || {
                    frames.write_member(&remote, &format!("image.t{iter:05}.pgm"), &pgm)
                })
                .map_err(msg)?
                .as_secs();
        }
        volren_s += tr
            .call(Layer::Runtime, "superfile_close", || frames.close(&remote))
            .map_err(msg)?
            .as_secs();
        volren_s += remote.lock().disconnect().map_err(msg)?.time.as_secs();
        tr.exit();
        let wall_s = timed.stop(tr);

        let reads = dumps().count() as u64 * (ANALYSED.len() as u64 + 1);
        let writes = blocked.len() as u64 - reads;
        for spec in specs
            .iter()
            .filter(|s| ANALYSED.contains(&s.name.as_str()) || s.name == RENDERED)
        {
            let dist =
                Distribution::new(spec.dims, spec.etype.size(), spec.pattern, grid).map_err(msg)?;
            ops.add_raw(dist, IoStrategy::Collective, 0, dumps().count() as u64);
            ops.lookups.push((run, spec.name.clone()));
        }

        let mut virt = Numbers::new();
        let mut host = Numbers::new();
        let (wait_p99, wait_pct) = tail_percentile(&blocked, 99.0);
        virt.insert(
            "virtual_makespan_s".into(),
            produce.total_io.as_secs() + consumed_s + volren_s,
        );
        // One client never queues: the tail it sees is the virtual time
        // its own I/O calls block.
        virt.insert("virtual_wait_p99_s".into(), wait_p99);
        record_prediction(
            predicted.total.as_secs(),
            produce.total_io.as_secs(),
            &mut virt,
        );
        virt.insert(
            "wan_bytes_per_logical_byte".into(),
            wan_bytes(&sys) as f64 / (logical_written + logical_read).max(1) as f64,
        );
        virt.insert(
            "stored_bytes_per_logical_byte".into(),
            stored_per_logical(&sys),
        );
        virt.insert("served_op_share".into(), 1.0);
        if cx.layers {
            virt.insert("_wait_p99.requests".into(), blocked.len() as f64);
            virt.insert("_wait_p99.percentile".into(), wait_pct);
            virt.insert("_core.bytes_written".into(), produce.total_bytes() as f64);
            virt.insert("_core.bytes_read".into(), logical_read as f64);
            let worst = predicted
                .rows
                .iter()
                .zip(&produce.datasets)
                .filter(|(_, d)| d.dumps > 0)
                .map(|(p, d)| abs_err_pct(p.total.as_secs(), d.io_time.as_secs()))
                .fold(0.0, f64::max);
            virt.insert("predict.dataset_err_pct_max".into(), worst);
            virt.insert("predict.learned_ratio".into(), sys.predicted_ratio("temp"));
            host.insert("predict.ptool_sweep_s".into(), ptool_sweep_s);
            layers::collect(&sys, writes + reads, &mut virt, &mut host);
        }
        self.last = Some(State { sys, ops });
        Ok(Rep {
            setup_s,
            wall_s,
            requests: writes + reads,
            attempted: writes + reads,
            failed: 0,
            virt,
            host,
        })
    }

    fn finish(&mut self, cx: &mut Cx, counts: &Numbers) -> Res<(Numbers, Numbers)> {
        let st = self.last.take().ok_or("finish before any repetition")?;
        let mut host = Numbers::new();
        if cx.layers {
            probes::run_all(&st.sys, &st.ops, counts, cx.scale, cx.tr, &mut host)?;
        }
        Ok((Numbers::new(), host))
    }
}
