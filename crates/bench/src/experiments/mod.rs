//! The per-table/per-figure experiment implementations.

pub mod ablations;
pub mod example42;
pub mod failover;
pub mod fig10;
pub mod fig11;
pub mod fig9;
pub mod figs678;
pub mod table1;

use msr_apps::{Astro3d, Astro3dConfig, PlacementPlan, StepMode};
use msr_core::{CoreResult, MsrSystem, Session};
use msr_predict::PTool;

/// Problem scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's Table 2 parameters: 128³ arrays, 120 iterations,
    /// ≈ 2.2 GB of dumps. Takes a few seconds of wall time per
    /// configuration (virtual hours of I/O).
    Paper,
    /// 32³ arrays, 24 iterations — for tests and smoke runs. Same shapes,
    /// ~1000× less data.
    Quick,
}

impl Scale {
    /// The Astro3D configuration at this scale (placement plan supplied by
    /// the experiment).
    pub fn astro3d(self, plan: PlacementPlan, seed: u64) -> Astro3dConfig {
        let mut cfg = match self {
            Scale::Paper => Astro3dConfig::paper_table2(),
            Scale::Quick => Astro3dConfig::small(32, 24),
        };
        cfg.plan = plan;
        // Experiments measure I/O; the cheap evolution keeps full-scale
        // runs fast while consecutive dumps still differ.
        cfg.step_mode = StepMode::Cheap;
        cfg.seed = seed;
        cfg
    }

    /// The PTool sweep used at this scale.
    pub fn ptool(self) -> PTool {
        match self {
            Scale::Paper => PTool::default(),
            Scale::Quick => PTool {
                sizes: vec![1 << 12, 1 << 15, 1 << 18, 1 << 21],
                reps: 2,
                scratch_prefix: "ptool/quick".into(),
            },
        }
    }
}

/// Build a testbed with a populated performance database.
pub fn system_with_perfdb(scale: Scale, seed: u64) -> MsrSystem {
    let mut sys = MsrSystem::testbed(seed);
    sys.run_ptool(&scale.ptool())
        .expect("PTool sweep over the calibrated testbed cannot fail");
    sys
}

/// Run a full Astro3D session under `plan`, returning `(run report,
/// predicted report if a perf DB is installed)`.
pub fn run_astro3d(
    sys: &MsrSystem,
    scale: Scale,
    plan: PlacementPlan,
    seed: u64,
) -> CoreResult<(msr_core::RunReport, Option<msr_predict::PredictionReport>)> {
    let cfg = scale.astro3d(plan, seed);
    let grid = cfg.grid;
    let iters = cfg.iterations;
    let mut sim = Astro3d::new(cfg);
    let mut session: Session<'_> = sys
        .session()
        .app("astro3d")
        .user("xshen")
        .iterations(iters)
        .grid(grid)
        .build()?;
    let specs = sim.dataset_specs();
    let mut handles = Vec::with_capacity(specs.len());
    for spec in specs {
        handles.push((session.open(spec.clone())?, spec));
    }
    let predicted = session.predict().ok();
    for iter in 0..=iters {
        for (h, spec) in &handles {
            if session.dumps_at(*h, iter) {
                let data = sim.field_bytes(&spec.name).expect("known field");
                session.write_iteration(*h, iter, &data)?;
            }
        }
        if iter < iters {
            sim.advance();
        }
    }
    Ok((session.finalize()?, predicted))
}
