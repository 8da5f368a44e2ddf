//! `fleet_10k` — control plane only.
//!
//! 10 000 sessions in the producer / renderer / analyzer rotation at 8³
//! cubes over 12 iterations, admitted into one scheduler on a fresh
//! testbed and drained. Payloads are ≈ 2 KB, so `msr-sched` admission and
//! event dispatch, `msr-core` placement, the `msr-meta` catalog and
//! `msr-obs` recording do all the host work; the byte-moving layers and
//! `msr-chunk` do almost none. An engine or chunk optimisation must show
//! *no change* here.

use super::{
    admit_and_run, drain_numbers, msg, outcome, ptool_sweep, record_prediction, sched_counts,
    twin_prediction, Cx, Numbers, Rep, Res, Scale, Timed, Workload,
};
use crate::trace::Layer;
use crate::{layers, probes};
use msr_core::{DatasetSpec, FutureUse, MsrSystem};
use msr_meta::ElementType;
use msr_sched::{SchedReport, Scheduler, SessionProgram};
use std::time::Instant;

/// Cube edge and iterations of every client (the shape of the
/// `BENCH_sched.json` fleet curve).
const CUBE: u64 = 8;
const ITERATIONS: u32 = 12;

/// Sessions admitted at `scale`.
pub fn sessions(scale: Scale) -> usize {
    match scale {
        Scale::Full => 10_000,
        Scale::Smoke => 100,
    }
}

fn dataset(name: &str, etype: ElementType, frequency: u32, fu: FutureUse) -> DatasetSpec {
    DatasetSpec::builder(name)
        .element(etype)
        .cube(CUBE)
        .frequency(frequency)
        .future_use(fu)
        .build()
}

/// Client `index` of the rotation: an Astro3D-shaped producer (two float
/// variables every 6), a Volren-shaped feed (one u8 volume every 3), or a
/// post-processing analyzer (one float variable every 6, read back once).
fn client(index: usize) -> SessionProgram {
    match index % 3 {
        0 => SessionProgram::new(&format!("astro3d-{index:02}"))
            .user("sim")
            .iterations(ITERATIONS)
            .dataset(dataset("temp", ElementType::F32, 6, FutureUse::Archive))
            .dataset(dataset("pres", ElementType::F32, 6, FutureUse::Analysis)),
        1 => SessionProgram::new(&format!("volren-{index:02}"))
            .user("viz")
            .iterations(ITERATIONS)
            .dataset(dataset(
                "vr_temp",
                ElementType::U8,
                3,
                FutureUse::Visualization,
            )),
        _ => SessionProgram::new(&format!("mse-{index:02}"))
            .user("post")
            .iterations(ITERATIONS)
            .dataset(dataset("rho", ElementType::F32, 6, FutureUse::Analysis))
            .readback(true),
    }
}

/// The fleet of `n` clients, in admission order.
pub fn fleet(n: usize) -> Vec<SessionProgram> {
    (0..n).map(client).collect()
}

struct State {
    sys: MsrSystem,
    programs: Vec<SessionProgram>,
    report: SchedReport,
}

/// The workload.
#[derive(Default)]
pub struct Fleet {
    last: Option<State>,
}

impl Workload for Fleet {
    fn entry(&self) -> Layer {
        Layer::Sched
    }

    fn rep(&mut self, cx: &mut Cx) -> Res<Rep> {
        self.last = None;
        cx.tr.enter(Layer::Bench, "setup");
        let t = Instant::now();
        let sys = MsrSystem::testbed(cx.seed);
        let programs = fleet(sessions(cx.scale));
        let setup_s = t.elapsed().as_secs_f64();
        cx.tr.exit();

        let timed = Timed::start(cx.tr);
        let sched = cx
            .tr
            .call(Layer::Sched, "scheduler_new", || Scheduler::new(&sys));
        let (report, shed) = admit_and_run(cx.tr, sched, &programs, false)?;
        let wall_s = timed.stop(cx.tr);

        let o = outcome(&programs, &shed, &report);
        let requests = report.requests();
        let mut virt = drain_numbers(&sys, &report, &o)?;
        let mut host = Numbers::new();
        if cx.layers {
            sched_counts(&report, &mut virt);
            layers::collect(&sys, requests, &mut virt, &mut host);
        }
        self.last = Some(State {
            sys,
            programs,
            report,
        });
        Ok(Rep {
            setup_s,
            wall_s,
            requests,
            attempted: o.attempted,
            failed: o.failed,
            virt,
            host,
        })
    }

    fn finish(&mut self, cx: &mut Cx, counts: &Numbers) -> Res<(Numbers, Numbers)> {
        let mut st = self.last.take().ok_or("finish before any repetition")?;
        let mut virt = Numbers::new();
        let mut host = Numbers::new();
        if cx.layers {
            let ops = probes::Ops::of_drain(&st.programs, &st.report)?;
            probes::run_all(&st.sys, &ops, counts, cx.scale, cx.tr, &mut host)?;
        }
        // The drain ran without a performance database (as the
        // `BENCH_sched.json` curve does); the twins need one.
        ptool_sweep(&mut st.sys, cx.tr)?;
        let (p, a) = twin_prediction(&st.sys, &st.programs, &st.report, cx.tr).map_err(msg)?;
        record_prediction(p, a, &mut virt);
        Ok((virt, host))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_matches_the_scaling_fleet_shape() {
        let f = fleet(6);
        assert!(f[0].app.starts_with("astro3d") && f[0].datasets.len() == 2);
        assert!(f[1].app.starts_with("volren") && f[1].datasets[0].frequency == 3);
        assert!(f[2].app.starts_with("mse") && f[2].readback);
        // The harness's own declaration and msr_apps::multi agree today;
        // if multi changes, this says so without changing the workload.
        for (mine, theirs) in f.iter().zip(msr_apps::multi::scaling_fleet(6)) {
            assert_eq!(mine.app, theirs.app);
            assert_eq!(mine.datasets, theirs.datasets);
            assert_eq!(mine.readback, theirs.readback);
            assert_eq!(mine.iterations, theirs.iterations);
        }
    }
}
