//! Astro3D — the data-producing hydrodynamics simulation.
//!
//! A compact but genuine stand-in for the Malagoli/Dubey/Cattaneo code the
//! paper uses: it integrates compressible-hydro equations on a periodic
//! 3-D grid — upwind (Godunov-flavoured) advection for density,
//! temperature and momentum, a pressure-gradient velocity update, and a
//! Crank–Nicolson-style iterative solve for nonlinear thermal diffusion
//! (conductivity varying with temperature, as in the paper's description).
//! Every dump goes through the msr-core [`Session`], producing the 19
//! datasets of Fig. 11 at per-kind frequencies (Table 2).

use crate::f32s_to_bytes;
use msr_core::{CoreResult, DatasetHandle, DatasetSpec, FutureUse, LocationHint, Session};
use msr_meta::{AccessMode, ElementType};
use msr_runtime::{Dims3, IoStrategy, ProcGrid, RuntimeError};
use msr_sim::stream_rng;
use rand::Rng;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// The six float analysis variables.
pub const ANALYSIS_VARS: [&str; 6] = ["press", "temp", "rho", "ux", "uy", "uz"];
/// The seven u8 visualization variables.
pub const VIZ_VARS: [&str; 7] = [
    "vr_scalar",
    "vr_press",
    "vr_rho",
    "vr_temp",
    "vr_mach",
    "vr_ek",
    "vr_logrho",
];
/// The six float checkpoint variables (overwritten in place).
pub const RESTART_VARS: [&str; 6] = [
    "restart_press",
    "restart_temp",
    "restart_rho",
    "restart_ux",
    "restart_uy",
    "restart_uz",
];

/// Per-dataset location hints for a run — the knob the paper's five Fig. 9
/// configurations turn.
#[derive(Debug, Clone, Default)]
pub struct PlacementPlan {
    hints: BTreeMap<String, LocationHint>,
    /// Hint used for datasets not explicitly listed.
    pub default: LocationHint,
}

impl PlacementPlan {
    /// Everything to one location.
    pub fn uniform(hint: LocationHint) -> Self {
        PlacementPlan {
            hints: BTreeMap::new(),
            default: hint,
        }
    }

    /// Override one dataset's hint.
    pub fn with(mut self, name: &str, hint: LocationHint) -> Self {
        self.hints.insert(name.to_owned(), hint);
        self
    }

    /// The hint for a dataset.
    pub fn hint_for(&self, name: &str) -> LocationHint {
        self.hints.get(name).copied().unwrap_or(self.default)
    }

    /// The paper's Fig. 9 configurations (1)–(5).
    pub fn fig9(config: u8) -> Self {
        let tape = PlacementPlan::uniform(LocationHint::RemoteTape);
        match config {
            1 => tape,
            2 => tape.with("temp", LocationHint::RemoteDisk),
            3 => PlacementPlan::uniform(LocationHint::Disable)
                .with("temp", LocationHint::RemoteDisk)
                .with("press", LocationHint::RemoteDisk),
            4 => tape.with("vr_temp", LocationHint::LocalDisk),
            5 => PlacementPlan::uniform(LocationHint::Disable)
                .with("vr_temp", LocationHint::LocalDisk)
                .with("vr_press", LocationHint::RemoteDisk),
            other => panic!("fig9 has configurations 1–5, not {other}"),
        }
    }
}

/// Run configuration (the paper's Table 2 defaults via
/// [`Astro3dConfig::paper_table2`]).
#[derive(Debug, Clone)]
pub struct Astro3dConfig {
    /// Cubic problem size per dimension.
    pub n: u64,
    /// Max number of iterations `N`.
    pub iterations: u32,
    /// Analysis-dataset dump frequency.
    pub analysis_freq: u32,
    /// Visualization-dataset dump frequency.
    pub viz_freq: u32,
    /// Checkpoint dump frequency.
    pub ckpt_freq: u32,
    /// Process grid.
    pub grid: ProcGrid,
    /// Per-dataset placement hints.
    pub plan: PlacementPlan,
    /// I/O optimization for all datasets.
    pub strategy: IoStrategy,
    /// How iterations advance the state (full physics or the cheap
    /// evolution used by I/O-focused experiment harnesses).
    pub step_mode: StepMode,
    /// Seed for the initial perturbation field.
    pub seed: u64,
}

/// How [`Astro3d::run`] advances the state between dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// The real hydro step — use for physics-meaningful output.
    #[default]
    Physics,
    /// A cheap deterministic evolution (roll + ripple, one `sinf` per
    /// cell per step): consecutive dumps still differ, but a 128-cubed
    /// 120-iteration run finishes in seconds. I/O costs are identical
    /// either way; the paper's evaluation only measures I/O. The grid rolls
    /// in fixed-size parts on the pool, each part's carry captured before
    /// the parallel region, so the bytes are identical at any
    /// `MSR_THREADS`.
    Cheap,
}

impl Astro3dConfig {
    /// A small, fast configuration for tests and examples.
    pub fn small(n: u64, iterations: u32) -> Self {
        Astro3dConfig {
            n,
            iterations,
            analysis_freq: 6,
            viz_freq: 6,
            ckpt_freq: 6,
            grid: ProcGrid::new(2, 2, 2),
            plan: PlacementPlan::uniform(LocationHint::RemoteTape),
            strategy: IoStrategy::Collective,
            step_mode: StepMode::Physics,
            seed: 42,
        }
    }

    /// The paper's Table 2 production parameters: 128³, 120 iterations,
    /// every dataset kind dumped every 6 iterations (≈ 2.2 GB total).
    pub fn paper_table2() -> Self {
        let mut c = Astro3dConfig::small(128, 120);
        c.grid = ProcGrid::new(2, 2, 2);
        c
    }

    /// The 19 dataset specifications of this configuration, hints applied
    /// from the placement plan.
    pub fn dataset_specs(&self) -> Vec<DatasetSpec> {
        let mut specs = Vec::with_capacity(19);
        let make = |name: &str, etype, freq, amode, fu: FutureUse| {
            DatasetSpec::builder(name)
                .element(etype)
                .dims(Dims3::cube(self.n))
                .frequency(freq)
                .amode(amode)
                .hint(self.plan.hint_for(name))
                .future_use(fu)
                .strategy(self.strategy)
                .build()
        };
        for v in ANALYSIS_VARS {
            specs.push(make(
                v,
                ElementType::F32,
                self.analysis_freq,
                AccessMode::Create,
                FutureUse::Analysis,
            ));
        }
        for v in VIZ_VARS {
            specs.push(make(
                v,
                ElementType::U8,
                self.viz_freq,
                AccessMode::Create,
                FutureUse::Visualization,
            ));
        }
        for v in RESTART_VARS {
            specs.push(make(
                v,
                ElementType::F32,
                self.ckpt_freq,
                AccessMode::OverWrite,
                FutureUse::Checkpoint,
            ));
        }
        specs
    }

    /// Total bytes this configuration will dump.
    pub fn total_dump_bytes(&self) -> u64 {
        let cube = self.n * self.n * self.n;
        let dumps = |f: u32| u64::from(self.iterations / f.max(1) + 1);
        6 * cube * 4 * dumps(self.analysis_freq)
            + 7 * cube * dumps(self.viz_freq)
            + 6 * cube * 4 * dumps(self.ckpt_freq)
    }
}

/// The simulation state.
pub struct Astro3d {
    /// The configuration.
    pub cfg: Astro3dConfig,
    n: usize,
    rho: Vec<f32>,
    temp: Vec<f32>,
    ux: Vec<f32>,
    uy: Vec<f32>,
    uz: Vec<f32>,
    iter: u32,
}

const DT: f32 = 0.05;
const KAPPA0: f32 = 0.02;

impl Astro3d {
    /// Initialize: a hot, dense central blob in a quiescent background with
    /// seeded small-scale perturbations (turbulent-convection flavour).
    pub fn new(cfg: Astro3dConfig) -> Self {
        let n = cfg.n as usize;
        let total = n * n * n;
        let mut rng = stream_rng(cfg.seed, "astro3d-init");
        let mut rho = vec![1.0f32; total];
        let mut temp = vec![1.0f32; total];
        let mut ux = vec![0.0f32; total];
        let mut uy = vec![0.0f32; total];
        let mut uz = vec![0.0f32; total];
        let c = (n as f32 - 1.0) / 2.0;
        let r0 = n as f32 / 4.0;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let i = (x * n + y) * n + z;
                    let dx = x as f32 - c;
                    let dy = y as f32 - c;
                    let dz = z as f32 - c;
                    let r2 = (dx * dx + dy * dy + dz * dz) / (r0 * r0);
                    let blob = (-r2).exp();
                    rho[i] = 1.0 + 0.5 * blob + 0.02 * rng.random_range(-1.0f32..1.0);
                    temp[i] = 1.0 + 1.5 * blob + 0.02 * rng.random_range(-1.0f32..1.0);
                    ux[i] = 0.05 * rng.random_range(-1.0f32..1.0);
                    uy[i] = 0.05 * rng.random_range(-1.0f32..1.0);
                    uz[i] = 0.05 * rng.random_range(-1.0f32..1.0);
                }
            }
        }
        Astro3d {
            cfg,
            n,
            rho,
            temp,
            ux,
            uy,
            uz,
            iter: 0,
        }
    }

    /// Current iteration number.
    pub fn iteration(&self) -> u32 {
        self.iter
    }

    /// One time step: upwind advection + pressure acceleration +
    /// Crank–Nicolson-style nonlinear diffusion on temperature.
    pub fn step(&mut self) {
        let n = self.n;
        let press = self.pressure();

        // Advect each quantity with first-order upwind differences and the
        // compressibility source on density.
        let adv = |q: &[f32], with_div: bool| -> Vec<f32> {
            let (ux, uy, uz) = (&self.ux, &self.uy, &self.uz);
            let mut out = vec![0.0f32; q.len()];
            out.par_chunks_mut(n * n).enumerate().for_each(|(x, slab)| {
                let xp = (x + 1) % n;
                let xm = (x + n - 1) % n;
                for y in 0..n {
                    let yp = (y + 1) % n;
                    let ym = (y + n - 1) % n;
                    for z in 0..n {
                        let zp = (z + 1) % n;
                        let zm = (z + n - 1) % n;
                        let i = (x * n + y) * n + z;
                        let il = |a: usize, b: usize, c: usize| (a * n + b) * n + c;
                        let (u, v, w) = (ux[i], uy[i], uz[i]);
                        let dqx = if u >= 0.0 {
                            q[i] - q[il(xm, y, z)]
                        } else {
                            q[il(xp, y, z)] - q[i]
                        };
                        let dqy = if v >= 0.0 {
                            q[i] - q[il(x, ym, z)]
                        } else {
                            q[il(x, yp, z)] - q[i]
                        };
                        let dqz = if w >= 0.0 {
                            q[i] - q[il(x, y, zm)]
                        } else {
                            q[il(x, y, zp)] - q[i]
                        };
                        let mut dq = -(u * dqx + v * dqy + w * dqz);
                        if with_div {
                            let div = (ux[il(xp, y, z)] - ux[il(xm, y, z)] + uy[il(x, yp, z)]
                                - uy[il(x, ym, z)]
                                + uz[il(x, y, zp)]
                                - uz[il(x, y, zm)])
                                / 2.0;
                            dq -= q[i] * div;
                        }
                        slab[y * n + z] = q[i] + DT * dq;
                    }
                }
            });
            out
        };

        let new_rho = adv(&self.rho, true);
        let new_temp = adv(&self.temp, false);
        let new_ux = adv(&self.ux, false);
        let new_uy = adv(&self.uy, false);
        let new_uz = adv(&self.uz, false);
        self.rho = new_rho;
        self.temp = new_temp;
        self.ux = new_ux;
        self.uy = new_uy;
        self.uz = new_uz;

        // Pressure-gradient acceleration (operator split).
        let rho = self.rho.clone();
        let accel = |u: &mut Vec<f32>, axis: usize| {
            let nn = n;
            u.par_chunks_mut(nn * nn).enumerate().for_each(|(x, slab)| {
                for y in 0..nn {
                    for z in 0..nn {
                        let i = (x * nn + y) * nn + z;
                        let (pp, pm) = match axis {
                            0 => {
                                let xp = (x + 1) % nn;
                                let xm = (x + nn - 1) % nn;
                                (press[(xp * nn + y) * nn + z], press[(xm * nn + y) * nn + z])
                            }
                            1 => {
                                let yp = (y + 1) % nn;
                                let ym = (y + nn - 1) % nn;
                                (press[(x * nn + yp) * nn + z], press[(x * nn + ym) * nn + z])
                            }
                            _ => {
                                let zp = (z + 1) % nn;
                                let zm = (z + nn - 1) % nn;
                                (press[(x * nn + y) * nn + zp], press[(x * nn + y) * nn + zm])
                            }
                        };
                        let g = (pp - pm) / 2.0;
                        let s = slab[y * nn + z];
                        let val = (s - DT * g / rho[i].max(1e-3)).clamp(-1.0, 1.0);
                        slab[y * nn + z] = val;
                    }
                }
            });
        };
        accel(&mut self.ux, 0);
        accel(&mut self.uy, 1);
        accel(&mut self.uz, 2);

        // Nonlinear thermal diffusion, Crank–Nicolson via two Jacobi
        // sweeps: κ(T) = κ0·√T.
        // Each sweep writes into a buffer allocated here, so pool workers
        // allocate nothing.
        let old = std::mem::take(&mut self.temp);
        let mut guess = old.clone();
        let mut next = vec![0.0f32; old.len()];
        for _ in 0..2 {
            next.par_chunks_mut(n * n)
                .enumerate()
                .for_each(|(x, slab)| {
                    let xp = (x + 1) % n;
                    let xm = (x + n - 1) % n;
                    for (yz, out) in slab.iter_mut().enumerate() {
                        let y = yz / n;
                        let z = yz % n;
                        let yp = (y + 1) % n;
                        let ym = (y + n - 1) % n;
                        let zp = (z + 1) % n;
                        let zm = (z + n - 1) % n;
                        let il = |a: usize, b: usize, c: usize| (a * n + b) * n + c;
                        let i = il(x, y, z);
                        let kappa = KAPPA0 * old[i].max(0.0).sqrt();
                        let lap = |f: &[f32]| {
                            f[il(xp, y, z)]
                                + f[il(xm, y, z)]
                                + f[il(x, yp, z)]
                                + f[il(x, ym, z)]
                                + f[il(x, y, zp)]
                                + f[il(x, y, zm)]
                                - 6.0 * f[i]
                        };
                        // θ = ½: average the explicit and (Jacobi-lagged)
                        // implicit Laplacians.
                        *out = (old[i] + 0.5 * DT * kappa * (lap(&old) + lap(&guess))).max(1e-3);
                    }
                });
            std::mem::swap(&mut guess, &mut next);
        }
        self.temp = guess;
        // Keep density physical.
        for r in &mut self.rho {
            *r = r.max(1e-3);
        }
        self.iter += 1;
    }

    /// The cheap evolution: roll every field one cell and superpose a
    /// small iteration-dependent ripple, `0.001·sin(0.01·i + phase)`.
    /// Deterministic; one `sinf` per cell per step, shared by the five
    /// fields.
    ///
    /// The grid is cut into parts of a fixed size, whatever the worker
    /// count, and the parts roll on the pool. Before the parallel region
    /// the caller records each part's carry — the pre-roll value of the
    /// cell just below it, the last cell for part 0 — so no part reads
    /// another's cells, and the bytes are the same at any `MSR_THREADS`.
    pub fn cheap_step(&mut self) {
        let phase = self.iter as f32 * 0.37;
        self.iter += 1;
        let total = self.rho.len();
        let fields = [
            &mut self.rho,
            &mut self.temp,
            &mut self.ux,
            &mut self.uy,
            &mut self.uz,
        ];
        // The roll wraps: part 0's carry is what the last cell held. (An
        // empty grid has no parts.)
        let carries: Vec<[f32; 5]> = (0..total)
            .step_by(PART)
            .map(|start| fields.each_ref().map(|f| f[(start + total - 1) % total]))
            .collect();
        let mut chunks = fields.map(|f| f.chunks_mut(PART));
        let parts: Vec<_> = carries
            .into_iter()
            .enumerate()
            .map(|(p, carry)| {
                let part = chunks
                    .each_mut()
                    .map(|c| c.next().expect("one chunk per carry"));
                (p * PART, part, carry)
            })
            .collect();
        parts
            .into_par_iter()
            .for_each(|(offset, part, carry)| roll_part(part, carry, offset, phase));
    }

    /// Advance per the configured [`StepMode`].
    pub fn advance(&mut self) {
        match self.cfg.step_mode {
            StepMode::Physics => self.step(),
            StepMode::Cheap => self.cheap_step(),
        }
    }

    /// Ideal-gas pressure field.
    pub fn pressure(&self) -> Vec<f32> {
        self.pressures().collect()
    }

    fn pressures(&self) -> impl ExactSizeIterator<Item = f32> + '_ {
        self.rho.iter().zip(&self.temp).map(|(r, t)| r * t)
    }

    /// `|u|²` per cell.
    fn speeds_squared(&self) -> impl ExactSizeIterator<Item = f32> + '_ {
        (self.ux.iter().zip(&self.uy).zip(&self.uz)).map(|((x, y), z)| x * x + y * y + z * z)
    }

    /// The raw bytes of a named dataset's current snapshot, or `None` for
    /// an unknown name.
    pub fn field_bytes(&self, name: &str) -> Option<Vec<u8>> {
        Some(match name {
            "press" | "restart_press" => self.pressures().flat_map(f32::to_le_bytes).collect(),
            "temp" | "restart_temp" => f32s_to_bytes(&self.temp),
            "rho" | "restart_rho" => f32s_to_bytes(&self.rho),
            "ux" | "restart_ux" => f32s_to_bytes(&self.ux),
            "uy" | "restart_uy" => f32s_to_bytes(&self.uy),
            "uz" | "restart_uz" => f32s_to_bytes(&self.uz),
            "vr_scalar" | "vr_temp" => normalize_u8(&self.temp),
            "vr_press" => normalize_u8(&self.pressure()),
            "vr_rho" => normalize_u8(&self.rho),
            "vr_mach" => {
                let m: Vec<f32> = (self.speeds_squared().zip(&self.temp))
                    .map(|(s, t)| s.sqrt() / t.max(1e-6).sqrt())
                    .collect();
                normalize_u8(&m)
            }
            "vr_ek" => {
                let e: Vec<f32> = (self.rho.iter().zip(self.speeds_squared()))
                    .map(|(r, s)| 0.5 * r * s)
                    .collect();
                normalize_u8(&e)
            }
            "vr_logrho" => {
                let l: Vec<f32> = self.rho.iter().map(|r| r.max(1e-6).ln()).collect();
                normalize_u8(&l)
            }
            _ => return None,
        })
    }

    /// Total mass (density integral) — a conservation diagnostic.
    pub fn total_mass(&self) -> f64 {
        self.rho.iter().map(|&r| f64::from(r)).sum()
    }

    /// The 19 dataset specifications of this run (see
    /// [`Astro3dConfig::dataset_specs`]).
    pub fn dataset_specs(&self) -> Vec<DatasetSpec> {
        self.cfg.dataset_specs()
    }

    /// Restart from the checkpoint datasets of an earlier run: load the
    /// six `restart_*` fields from wherever the catalog says they live and
    /// resume at `iteration`. This is what the paper's checkpoint dumps
    /// (AMODE `over_write`) exist for.
    pub fn from_checkpoint(
        cfg: Astro3dConfig,
        sys: &msr_core::MsrSystem,
        run: msr_meta::RunId,
        iteration: u32,
    ) -> CoreResult<Astro3d> {
        let mut sim = Astro3d::new(cfg);
        let grid = sim.cfg.grid;
        let expected = (sim.n * sim.n * sim.n * 4) as u64;
        // Checked in bytes, before `bytes_to_f32s` drops a ragged tail.
        let load = |name: &str| -> CoreResult<Vec<f32>> {
            let (bytes, _) = sys.read_dataset(run, name, iteration, grid, sim.cfg.strategy)?;
            let got = bytes.len() as u64;
            if got != expected {
                return Err(RuntimeError::SizeMismatch { expected, got }.into());
            }
            Ok(crate::bytes_to_f32s(&bytes))
        };
        sim.rho = load("restart_rho")?;
        sim.temp = load("restart_temp")?;
        sim.ux = load("restart_ux")?;
        sim.uy = load("restart_uy")?;
        sim.uz = load("restart_uz")?;
        sim.iter = iteration;
        Ok(sim)
    }

    /// Drive the whole simulation through a session (the Fig. 2 main
    /// loop): dump due datasets each iteration, then advance the physics.
    pub fn run(&mut self, session: &mut Session<'_>) -> CoreResult<Vec<DatasetHandle>> {
        let specs = self.dataset_specs();
        let mut handles = Vec::with_capacity(specs.len());
        for spec in specs {
            handles.push((session.open(spec.clone())?, spec));
        }
        for iter in 0..=self.cfg.iterations {
            for (h, spec) in &handles {
                if session.dumps_at(*h, iter) {
                    let data = self
                        .field_bytes(&spec.name)
                        .expect("specs only name known fields");
                    session.write_iteration(*h, iter, &data)?;
                }
            }
            if iter < self.cfg.iterations {
                self.advance();
            }
        }
        Ok(handles.into_iter().map(|(h, _)| h).collect())
    }
}

/// Cells per ripple block: 8 KiB of ripple beside 8 KiB of one field, so a
/// block is computed once and read five times from L1.
const BLOCK: usize = 2048;
/// Cells per part of the pooled cheap step: 64 ripple blocks, so 16 parts
/// at 128³. A constant, never derived from the worker count.
const PART: usize = 64 * BLOCK;

/// Roll one part of the five fields — cells `offset..` of each — one cell
/// up, `carry` entering its first cell, and add the ripple.
fn roll_part(mut part: [&mut [f32]; 5], carry: [f32; 5], offset: usize, phase: f32) {
    let len = part[0].len();
    let mut ripple = [0.0f32; BLOCK];
    // Top block first: every cell below it still holds its pre-roll value,
    // so the roll needs no second copy of the part.
    for start in (0..len).step_by(BLOCK).rev() {
        let end = (start + BLOCK).min(len);
        let ripple = &mut ripple[..end - start];
        for (r, i) in ripple.iter_mut().zip(offset + start..) {
            *r = 0.001 * ((i as f32 * 0.01 + phase).sin());
        }
        for (field, carry) in part.iter_mut().zip(carry) {
            let from = start.max(1);
            field.copy_within(from - 1..end - 1, from);
            if start == 0 {
                field[0] = carry;
            }
            for (v, r) in field[start..end].iter_mut().zip(&*ripple) {
                *v = (*v + r).max(1e-3);
            }
        }
    }
}

/// Smallest and largest value of `xs` (NaN skipped, as `f32::min` does),
/// `(∞, −∞)` when empty. Sixteen independent accumulators: a float min
/// is only a reduction the compiler may reorder when the source spells
/// the lanes out.
fn min_max(xs: &[f32]) -> (f32, f32) {
    const LANES: usize = 16;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    for block in xs.chunks(LANES) {
        for ((lo, hi), &x) in lo.iter_mut().zip(&mut hi).zip(block) {
            *lo = lo.min(x);
            *hi = hi.max(x);
        }
    }
    (
        lo.into_iter().fold(f32::INFINITY, f32::min),
        hi.into_iter().fold(f32::NEG_INFINITY, f32::max),
    )
}

/// Quantise a field onto 0..=255 over its own dynamic range.
fn normalize_u8(xs: &[f32]) -> Vec<u8> {
    let (lo, hi) = min_max(xs);
    let span = (hi - lo).max(1e-12);
    xs.iter()
        .map(|&x| (((x - lo) / span) * 255.0) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_core::{CoreError, MsrSystem};

    fn sim(n: u64) -> Astro3d {
        Astro3d::new(Astro3dConfig::small(n, 12))
    }

    /// The producer's cheap step and encoders as they stood before the
    /// single-pass rewrite, and the physics step before its Jacobi sweeps
    /// wrote into a caller-allocated buffer, kept verbatim as the oracle
    /// (`sinf` is libm's, so there is no frozen hash to hold them to
    /// instead).
    mod reference {
        use super::super::{DT, KAPPA0};
        use super::Astro3d;
        use crate::reference::f32s_to_bytes;
        use rayon::prelude::*;

        pub(super) fn step(sim: &mut Astro3d) {
            let n = sim.n;
            let press = sim.pressure();

            // Advect each quantity with first-order upwind differences and the
            // compressibility source on density.
            let adv = |q: &[f32], with_div: bool| -> Vec<f32> {
                let (ux, uy, uz) = (&sim.ux, &sim.uy, &sim.uz);
                let mut out = vec![0.0f32; q.len()];
                out.par_chunks_mut(n * n).enumerate().for_each(|(x, slab)| {
                    let xp = (x + 1) % n;
                    let xm = (x + n - 1) % n;
                    for y in 0..n {
                        let yp = (y + 1) % n;
                        let ym = (y + n - 1) % n;
                        for z in 0..n {
                            let zp = (z + 1) % n;
                            let zm = (z + n - 1) % n;
                            let i = (x * n + y) * n + z;
                            let il = |a: usize, b: usize, c: usize| (a * n + b) * n + c;
                            let (u, v, w) = (ux[i], uy[i], uz[i]);
                            let dqx = if u >= 0.0 {
                                q[i] - q[il(xm, y, z)]
                            } else {
                                q[il(xp, y, z)] - q[i]
                            };
                            let dqy = if v >= 0.0 {
                                q[i] - q[il(x, ym, z)]
                            } else {
                                q[il(x, yp, z)] - q[i]
                            };
                            let dqz = if w >= 0.0 {
                                q[i] - q[il(x, y, zm)]
                            } else {
                                q[il(x, y, zp)] - q[i]
                            };
                            let mut dq = -(u * dqx + v * dqy + w * dqz);
                            if with_div {
                                let div = (ux[il(xp, y, z)] - ux[il(xm, y, z)] + uy[il(x, yp, z)]
                                    - uy[il(x, ym, z)]
                                    + uz[il(x, y, zp)]
                                    - uz[il(x, y, zm)])
                                    / 2.0;
                                dq -= q[i] * div;
                            }
                            slab[y * n + z] = q[i] + DT * dq;
                        }
                    }
                });
                out
            };

            let new_rho = adv(&sim.rho, true);
            let new_temp = adv(&sim.temp, false);
            let new_ux = adv(&sim.ux, false);
            let new_uy = adv(&sim.uy, false);
            let new_uz = adv(&sim.uz, false);
            sim.rho = new_rho;
            sim.temp = new_temp;
            sim.ux = new_ux;
            sim.uy = new_uy;
            sim.uz = new_uz;

            // Pressure-gradient acceleration (operator split).
            let rho = sim.rho.clone();
            let accel = |u: &mut Vec<f32>, axis: usize| {
                let nn = n;
                u.par_chunks_mut(nn * nn).enumerate().for_each(|(x, slab)| {
                    for y in 0..nn {
                        for z in 0..nn {
                            let i = (x * nn + y) * nn + z;
                            let (pp, pm) = match axis {
                                0 => {
                                    let xp = (x + 1) % nn;
                                    let xm = (x + nn - 1) % nn;
                                    (press[(xp * nn + y) * nn + z], press[(xm * nn + y) * nn + z])
                                }
                                1 => {
                                    let yp = (y + 1) % nn;
                                    let ym = (y + nn - 1) % nn;
                                    (press[(x * nn + yp) * nn + z], press[(x * nn + ym) * nn + z])
                                }
                                _ => {
                                    let zp = (z + 1) % nn;
                                    let zm = (z + nn - 1) % nn;
                                    (press[(x * nn + y) * nn + zp], press[(x * nn + y) * nn + zm])
                                }
                            };
                            let g = (pp - pm) / 2.0;
                            let s = slab[y * nn + z];
                            let val = (s - DT * g / rho[i].max(1e-3)).clamp(-1.0, 1.0);
                            slab[y * nn + z] = val;
                        }
                    }
                });
            };
            accel(&mut sim.ux, 0);
            accel(&mut sim.uy, 1);
            accel(&mut sim.uz, 2);

            // Nonlinear thermal diffusion, Crank–Nicolson via two Jacobi
            // sweeps: κ(T) = κ0·√T.
            let old = sim.temp.clone();
            let mut guess = sim.temp.clone();
            for _ in 0..2 {
                let next: Vec<f32> = (0..n)
                    .into_par_iter()
                    .flat_map_iter(|x| {
                        let old = &old;
                        let guess = &guess;
                        let xp = (x + 1) % n;
                        let xm = (x + n - 1) % n;
                        (0..n * n).map(move |yz| {
                            let y = yz / n;
                            let z = yz % n;
                            let yp = (y + 1) % n;
                            let ym = (y + n - 1) % n;
                            let zp = (z + 1) % n;
                            let zm = (z + n - 1) % n;
                            let il = |a: usize, b: usize, c: usize| (a * n + b) * n + c;
                            let i = il(x, y, z);
                            let kappa = KAPPA0 * old[i].max(0.0).sqrt();
                            let lap = |f: &[f32]| {
                                f[il(xp, y, z)]
                                    + f[il(xm, y, z)]
                                    + f[il(x, yp, z)]
                                    + f[il(x, ym, z)]
                                    + f[il(x, y, zp)]
                                    + f[il(x, y, zm)]
                                    - 6.0 * f[i]
                            };
                            // θ = ½: average the explicit and (Jacobi-lagged)
                            // implicit Laplacians.
                            (old[i] + 0.5 * DT * kappa * (lap(old) + lap(guess))).max(1e-3)
                        })
                    })
                    .collect();
                guess = next;
            }
            sim.temp = guess;
            // Keep density physical.
            for r in &mut sim.rho {
                *r = r.max(1e-3);
            }
            sim.iter += 1;
        }

        pub(super) fn cheap_step(sim: &mut Astro3d) {
            let phase = sim.iter as f32 * 0.37;
            for field in [
                &mut sim.rho,
                &mut sim.temp,
                &mut sim.ux,
                &mut sim.uy,
                &mut sim.uz,
            ] {
                field.rotate_right(1);
                for (i, v) in field.iter_mut().enumerate() {
                    *v = (*v + 0.001 * ((i as f32 * 0.01 + phase).sin())).max(1e-3);
                }
            }
            sim.iter += 1;
        }

        pub(super) fn normalize_u8(xs: &[f32]) -> Vec<u8> {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &x in xs {
                lo = lo.min(x);
                hi = hi.max(x);
            }
            let span = (hi - lo).max(1e-12);
            xs.par_iter()
                .map(|&x| (((x - lo) / span) * 255.0) as u8)
                .collect()
        }

        pub(super) fn field_bytes(sim: &Astro3d, name: &str) -> Option<Vec<u8>> {
            let pressure = || -> Vec<f32> {
                sim.rho
                    .par_iter()
                    .zip(sim.temp.par_iter())
                    .map(|(r, t)| r * t)
                    .collect()
            };
            let f32_field = |xs: &[f32]| Some(f32s_to_bytes(xs));
            match name {
                "press" | "restart_press" => f32_field(&pressure()),
                "temp" | "restart_temp" => f32_field(&sim.temp),
                "rho" | "restart_rho" => f32_field(&sim.rho),
                "ux" | "restart_ux" => f32_field(&sim.ux),
                "uy" | "restart_uy" => f32_field(&sim.uy),
                "uz" | "restart_uz" => f32_field(&sim.uz),
                "vr_scalar" => Some(normalize_u8(&sim.temp)),
                "vr_press" => Some(normalize_u8(&pressure())),
                "vr_rho" => Some(normalize_u8(&sim.rho)),
                "vr_temp" => Some(normalize_u8(&sim.temp)),
                "vr_mach" => {
                    let m: Vec<f32> = (0..sim.rho.len())
                        .into_par_iter()
                        .map(|i| {
                            let speed = (sim.ux[i] * sim.ux[i]
                                + sim.uy[i] * sim.uy[i]
                                + sim.uz[i] * sim.uz[i])
                                .sqrt();
                            speed / sim.temp[i].max(1e-6).sqrt()
                        })
                        .collect();
                    Some(normalize_u8(&m))
                }
                "vr_ek" => {
                    let e: Vec<f32> = (0..sim.rho.len())
                        .into_par_iter()
                        .map(|i| {
                            0.5 * sim.rho[i]
                                * (sim.ux[i] * sim.ux[i]
                                    + sim.uy[i] * sim.uy[i]
                                    + sim.uz[i] * sim.uz[i])
                        })
                        .collect();
                    Some(normalize_u8(&e))
                }
                "vr_logrho" => {
                    let l: Vec<f32> = sim.rho.par_iter().map(|r| r.max(1e-6).ln()).collect();
                    Some(normalize_u8(&l))
                }
                _ => None,
            }
        }
    }

    /// All 19 datasets of `new` byte-equal to the reference encoders' view
    /// of `old`.
    fn assert_dumps_match(new: &Astro3d, old: &Astro3d, what: &str) {
        assert_eq!(new.iteration(), old.iteration(), "{what}");
        for name in ANALYSIS_VARS.iter().chain(&VIZ_VARS).chain(&RESTART_VARS) {
            assert_eq!(
                new.field_bytes(name),
                reference::field_bytes(old, name),
                "{name} after {what}"
            );
        }
    }

    #[test]
    fn cheap_steps_dump_the_reference_bytes() {
        // 65^3 spans several parts of the pooled step and ends in a ragged
        // one; 33^3 spans several ripple blocks and a ragged one; 1 and 2
        // are smaller than any block or lane count. Four workers are more
        // than the parts at any of these sizes, so tasks are stolen.
        for threads in [1, 4] {
            rayon::with_threads(threads, || {
                for n in [1, 2, 5, 17, 33, 65] {
                    let cfg = Astro3dConfig {
                        step_mode: StepMode::Cheap,
                        ..Astro3dConfig::small(n, 12)
                    };
                    let mut new = Astro3d::new(cfg.clone());
                    let mut old = Astro3d::new(cfg);
                    for step in 1..=7 {
                        new.advance();
                        reference::cheap_step(&mut old);
                        if n < 65 || step == 7 {
                            let what = format!("{step} cheap steps at n = {n}, {threads} threads");
                            assert_dumps_match(&new, &old, &what);
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn physics_steps_match_the_reference() {
        for n in [5, 17] {
            let mut new = sim(n);
            let mut old = sim(n);
            for step in 1..=3 {
                new.step();
                reference::step(&mut old);
                assert_dumps_match(&new, &old, &format!("{step} physics steps at n = {n}"));
            }
        }
    }

    #[test]
    fn normalize_u8_matches_the_reference() {
        let mut s = sim(12);
        for _ in 0..3 {
            s.step();
        }
        let two_valued: Vec<f32> = (0..1001)
            .map(|i| if i % 3 == 0 { -1.0 } else { 4.0 })
            .collect();
        let zeros: Vec<f32> = (0..37)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        for xs in [
            &[][..],
            &[2.5; 1000],
            &zeros,
            &two_valued,
            &s.temp,
            &s.rho[..s.rho.len() - 1],
            &s.ux,
            &s.pressure(),
        ] {
            assert_eq!(normalize_u8(xs), reference::normalize_u8(xs));
        }
    }

    #[test]
    fn nineteen_datasets_with_paper_shapes() {
        let s = sim(16);
        let specs = s.dataset_specs();
        assert_eq!(specs.len(), 19);
        let f32s = specs.iter().filter(|s| s.etype == ElementType::F32).count();
        let u8s = specs.iter().filter(|s| s.etype == ElementType::U8).count();
        assert_eq!((f32s, u8s), (12, 7));
        let restarts = specs
            .iter()
            .filter(|s| s.amode == AccessMode::OverWrite)
            .count();
        assert_eq!(restarts, 6);
    }

    #[test]
    fn stepping_stays_finite_and_positive() {
        let mut s = sim(12);
        for _ in 0..30 {
            s.step();
        }
        assert!(s.temp.iter().all(|t| t.is_finite() && *t > 0.0));
        assert!(s.rho.iter().all(|r| r.is_finite() && *r > 0.0));
        assert!(s.ux.iter().all(|u| u.is_finite() && u.abs() <= 1.0));
    }

    #[test]
    fn mass_is_roughly_conserved() {
        let mut s = sim(16);
        let m0 = s.total_mass();
        for _ in 0..20 {
            s.step();
        }
        let m1 = s.total_mass();
        assert!(((m1 - m0) / m0).abs() < 0.05, "mass drifted {m0} -> {m1}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = sim(10);
        let mut b = sim(10);
        for _ in 0..5 {
            a.step();
            b.step();
        }
        assert_eq!(a.field_bytes("temp"), b.field_bytes("temp"));
        let mut c = Astro3d::new(Astro3dConfig {
            seed: 43,
            ..Astro3dConfig::small(10, 12)
        });
        for _ in 0..5 {
            c.step();
        }
        assert_ne!(a.field_bytes("temp"), c.field_bytes("temp"));
    }

    #[test]
    fn field_bytes_sizes_match_etype() {
        let s = sim(8);
        assert_eq!(s.field_bytes("temp").unwrap().len(), 8 * 8 * 8 * 4);
        assert_eq!(s.field_bytes("vr_temp").unwrap().len(), 8 * 8 * 8);
        assert!(s.field_bytes("nope").is_none());
    }

    #[test]
    fn vr_fields_use_full_dynamic_range() {
        let mut s = sim(12);
        for _ in 0..3 {
            s.step();
        }
        let vr = s.field_bytes("vr_temp").unwrap();
        assert!(vr.iter().any(|&b| b < 32));
        assert!(vr.iter().any(|&b| b > 223), "normalization spans 0..255");
    }

    #[test]
    fn cheap_step_on_an_empty_grid_moves_nothing() {
        for threads in [1, 4] {
            let mut s = sim(0);
            rayon::with_threads(threads, || s.cheap_step());
            assert_eq!(s.iteration(), 1);
            assert_eq!(s.field_bytes("temp"), Some(Vec::new()));
            assert_eq!(s.field_bytes("vr_mach"), Some(Vec::new()));
        }
    }

    /// One 1×1×1-grid run whose only dataset is a `restart_rho` of `dims`
    /// u8s on the remote disk.
    fn run_with_restart_rho(sys: &MsrSystem, dims: Dims3) -> msr_meta::RunId {
        let grid = ProcGrid::new(1, 1, 1);
        let mut session = sys
            .session()
            .app("astro3d")
            .user("u")
            .iterations(1)
            .grid(grid)
            .build()
            .unwrap();
        let spec = DatasetSpec::builder("restart_rho")
            .element(ElementType::U8)
            .dims(dims)
            .frequency(1)
            .amode(AccessMode::OverWrite)
            .hint(LocationHint::RemoteDisk)
            .build();
        let h = session.open(spec).unwrap();
        let data = vec![0x3f; dims.elements() as usize];
        session.write_iteration(h, 0, &data).unwrap();
        let run = session.run_id();
        session.finalize().unwrap();
        run
    }

    #[test]
    fn a_checkpoint_of_the_wrong_size_is_a_typed_mismatch() {
        let sys = MsrSystem::testbed(7);
        let mut cfg = Astro3dConfig::small(2, 1);
        cfg.grid = ProcGrid::new(1, 1, 1);
        let mismatch =
            |run, expected, got| match Astro3d::from_checkpoint(cfg.clone(), &sys, run, 0)
                .map(|_| ())
            {
                Err(CoreError::Runtime(RuntimeError::SizeMismatch {
                    expected: e,
                    got: g,
                })) => assert_eq!((e, g), (expected, got)),
                other => panic!("expected a size mismatch, got {other:?}"),
            };
        // 2^3 f32s and three stray bytes: as f32s it would pass for n = 2.
        let ragged = Dims3 { x: 5, y: 7, z: 1 };
        mismatch(run_with_restart_rho(&sys, ragged), 32, 35);
        // A whole checkpoint, but of a 3^3 grid.
        let wrong_n = Dims3 { x: 27, y: 4, z: 1 };
        mismatch(run_with_restart_rho(&sys, wrong_n), 32, 108);
    }

    #[test]
    fn fig9_plans_route_datasets() {
        let p = PlacementPlan::fig9(5);
        assert_eq!(p.hint_for("vr_temp"), LocationHint::LocalDisk);
        assert_eq!(p.hint_for("vr_press"), LocationHint::RemoteDisk);
        assert_eq!(p.hint_for("temp"), LocationHint::Disable);
        let p2 = PlacementPlan::fig9(2);
        assert_eq!(p2.hint_for("temp"), LocationHint::RemoteDisk);
        assert_eq!(p2.hint_for("rho"), LocationHint::RemoteTape);
    }

    #[test]
    #[should_panic(expected = "configurations 1–5")]
    fn fig9_bad_config_panics() {
        PlacementPlan::fig9(9);
    }

    #[test]
    fn table2_config_is_2_2_gb() {
        let c = Astro3dConfig::paper_table2();
        let gb = c.total_dump_bytes() as f64 / 1e9;
        assert!((2.0..2.5).contains(&gb), "got {gb} GB");
    }

    #[test]
    fn full_run_through_a_session() {
        let sys = MsrSystem::testbed(3);
        let mut cfg = Astro3dConfig::small(8, 6);
        cfg.plan = PlacementPlan::fig9(5);
        let mut sim = Astro3d::new(cfg);
        let mut session = sys
            .session()
            .app("astro3d")
            .user("xshen")
            .iterations(sim.cfg.iterations)
            .grid(sim.cfg.grid)
            .build()
            .unwrap();
        sim.run(&mut session).unwrap();
        let report = session.finalize().unwrap();
        // Config 5: only vr_temp and vr_press dumped (2 dumps each at 0, 6).
        let dumped: Vec<_> = report.datasets.iter().filter(|d| d.dumps > 0).collect();
        assert_eq!(dumped.len(), 2);
        assert!(dumped.iter().all(|d| d.dumps == 2));
    }
}
