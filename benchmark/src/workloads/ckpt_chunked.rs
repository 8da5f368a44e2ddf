//! `ckpt_chunked` — the chunk plane, writes and verified reads in one
//! drain.
//!
//! Eight checkpoint producers pinned to the remote disk dump a 64³ f32
//! `chk` (1 MiB) every 3 of 96 iterations through the content-addressed
//! chunk plane (CDC at 8 KiB, `Lz4Like(1)`) and read their three earliest
//! dumps back. `msr-chunk` (CDC, digest, LZ) and `msr-runtime::chunked`
//! (plane, manifests, verified reads) do most of the host work, and
//! per-chunk native calls dominate the virtual clock: this is ROADMAP
//! item 2's pathology — the chunked drain is dearer than its raw twin and
//! the predictor, which scales only the byte term, misses it by far.

use super::{
    admit_and_run, drain_numbers, msg, outcome, ptool_sweep, record_prediction, sched_counts,
    twin_prediction, Cx, Numbers, Rep, Res, Scale, Timed, Workload,
};
use crate::trace::Layer;
use crate::{layers, probes};
use msr_core::{ChunkPolicy, Codec, DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_meta::{ElementType, RunId};
use msr_runtime::{IoStrategy, ProcGrid};
use msr_sched::{program::payload, SchedReport, Scheduler, SessionProgram};
use std::time::Instant;

const PRODUCERS: usize = 8;
const ITERATIONS: u32 = 96;
const READBACKS: u32 = 3;

fn cube(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 64,
        Scale::Smoke => 16,
    }
}

/// Producer `index`: the same every-3-iterations `chk` dumps raw or
/// through the chunk plane.
fn producer(index: usize, cube: u64, chunked: bool) -> SessionProgram {
    let mut spec = DatasetSpec::builder("chk")
        .element(ElementType::F32)
        .cube(cube)
        .frequency(3)
        .hint(LocationHint::RemoteDisk)
        .future_use(FutureUse::Checkpoint);
    if chunked {
        spec = spec
            .chunked(ChunkPolicy::cdc(8))
            .compression(Codec::Lz4Like(1));
    }
    SessionProgram::new(&format!("ckpt-{index:02}"))
        .user("sim")
        .iterations(ITERATIONS)
        .dataset(spec.build())
        .readbacks(READBACKS)
}

/// The fleet, chunked or as its raw twin.
pub fn fleet(scale: Scale, chunked: bool) -> Vec<SessionProgram> {
    (0..PRODUCERS)
        .map(|i| producer(i, cube(scale), chunked))
        .collect()
}

struct State {
    sys: MsrSystem,
    programs: Vec<SessionProgram>,
    report: SchedReport,
}

/// The workload.
#[derive(Default)]
pub struct Checkpoints {
    last: Option<State>,
}

impl Workload for Checkpoints {
    fn entry(&self) -> Layer {
        Layer::Sched
    }

    fn rep(&mut self, cx: &mut Cx) -> Res<Rep> {
        self.last = None;
        cx.tr.enter(Layer::Bench, "setup");
        let t = Instant::now();
        // The raw twin — the same fleet without `.chunked()` — drained on
        // its own testbed: the deterministic reference the chunked
        // makespan is read against.
        let raw_twin_makespan_s = {
            let mut sys = MsrSystem::testbed(cx.seed);
            sys.run_ptool(&msr_predict::PTool::default()).map_err(msg)?;
            let mut sched = Scheduler::new(&sys);
            for p in fleet(cx.scale, false) {
                sched.admit(p).map_err(msg)?;
            }
            sched.run().map_err(msg)?.makespan.as_secs()
        };
        let mut sys = MsrSystem::testbed(cx.seed);
        let ptool_sweep_s = ptool_sweep(&mut sys, cx.tr)?;
        let programs = fleet(cx.scale, true);
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
            virt.insert("chunk.raw_twin_makespan_s".into(), raw_twin_makespan_s);
            virt.insert("predict.learned_ratio".into(), sys.predicted_ratio("chk"));
            host.insert("predict.ptool_sweep_s".into(), ptool_sweep_s);
            layers::collect(&sys, requests, &mut virt, &mut host);
        }
        verify_sample(&sys, &report, cx.scale)?;
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
        let st = self.last.take().ok_or("finish before any repetition")?;
        let mut virt = Numbers::new();
        let mut host = Numbers::new();
        if cx.layers {
            let ops = probes::Ops::of_drain(&st.programs, &st.report)?;
            probes::run_all(&st.sys, &ops, counts, cx.scale, cx.tr, &mut host)?;
        }
        let (p, a) = twin_prediction(&st.sys, &st.programs, &st.report, cx.tr).map_err(msg)?;
        record_prediction(p, a, &mut virt);
        Ok((virt, host))
    }
}

/// Read a sample of dumps back through the consumer path (manifest-
/// driven, every chunk digest verified) and compare with the payload the
/// scheduler generated: the first, a middle and the last dump of the
/// first and last producer.
fn verify_sample(sys: &MsrSystem, report: &SchedReport, scale: Scale) -> Res<()> {
    let len = (cube(scale).pow(3) * 4) as usize;
    let sessions = [report.sessions.first(), report.sessions.last()];
    for s in sessions.into_iter().flatten() {
        for iter in [0, 48, ITERATIONS] {
            let (bytes, _) = sys
                .read_dataset(
                    RunId(s.run),
                    "chk",
                    iter,
                    ProcGrid::new(1, 1, 1),
                    IoStrategy::Collective,
                )
                .map_err(|e| format!("{} chk@{iter}: {e}", s.app))?;
            if bytes[..] != payload(s.session, "chk", iter, len)[..] {
                return Err(format!(
                    "{} chk@{iter}: read-back differs from the dumped payload",
                    s.app
                ));
            }
        }
    }
    Ok(())
}
