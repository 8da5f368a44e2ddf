//! The four workloads and what they share.
//!
//! Every workload is a closed loop — one client, or one scheduler
//! draining a fixed admitted batch — declared here with the public
//! builders, so an edit to `msr_apps::multi` cannot silently change what
//! the benchmark runs. Each repetition builds a fresh seeded testbed
//! (set-up, timed separately), runs the timed region, then collects the
//! virtual-clock numbers and checks the outputs outside the timed region.

pub mod astro3d_pipeline;
pub mod ckpt_chunked;
pub mod fleet_10k;
pub mod shared_mix;

use crate::trace::{Layer, Tracer};
use msr_core::{CoreError, CoreResult, DatasetSpec, LocationHint, MsrSystem};
use msr_predict::PTool;
use msr_sched::{SchedReport, Scheduler, SessionProgram, SessionReport, TenantReport};
use msr_storage::StorageKind;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Harness result: any failure is a message and a non-zero exit.
pub type Res<T> = Result<T, String>;

/// Render any error as the harness's message type.
pub fn msg<E: Display>(e: E) -> String {
    e.to_string()
}

/// Named numbers, sorted by name.
pub type Numbers = BTreeMap<String, f64>;

/// Workload sizes: the recorded benchmark, or the seconds-long variant the
/// tests run (never recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// 16³ arrays and a 100-session fleet, for tests only.
    Smoke,
}

/// What a repetition runs under.
pub struct Cx<'a> {
    /// The workload seed: feeds `MsrSystem::testbed` and
    /// `Astro3dConfig.seed`, nothing else.
    pub seed: u64,
    /// Workload sizes.
    pub scale: Scale,
    /// The span recorder (off for end-to-end repetitions).
    pub tr: &'a mut Tracer,
    /// Collect the per-layer counts too (they cost an event-log snapshot
    /// per repetition, so end-to-end runs skip them).
    pub layers: bool,
}

/// One repetition's outcome.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds before the timed region: testbed, PTool, programs.
    pub setup_s: f64,
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Requests served (the divisor of `host_us_per_request`).
    pub requests: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (refusals by design are not failures; they
    /// lower `served_op_share`).
    pub failed: u64,
    /// Virtual-clock numbers — must repeat exactly between repetitions.
    pub virt: Numbers,
    /// Host-clock numbers of this repetition that no span carries.
    pub host: Numbers,
}

/// A workload: repetitions, then one finishing pass on the state the last
/// repetition left behind.
pub trait Workload {
    /// The crate through which the harness reaches the I/O layers: the
    /// layer table moves the replayed cost of those layers out of it.
    fn entry(&self) -> Layer;
    /// One repetition. Drops the previous repetition's system first.
    fn rep(&mut self, cx: &mut Cx) -> Res<Rep>;
    /// After the last repetition, outside every timed region: the layer
    /// probes (only with `cx.layers`) and the twin-session prediction.
    /// `counts` are the last repetition's virtual numbers. Returns more
    /// virtual and host numbers, in that order.
    fn finish(&mut self, cx: &mut Cx, counts: &Numbers) -> Res<(Numbers, Numbers)>;
}

/// The workload names, in report order. Final: later issues refer to them.
pub const NAMES: [&str; 4] = [
    "astro3d_pipeline",
    "fleet_10k",
    "ckpt_chunked",
    "shared_mix",
];

/// Instantiate a workload by name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "astro3d_pipeline" => Some(Box::new(astro3d_pipeline::Pipeline::default())),
        "fleet_10k" => Some(Box::new(fleet_10k::Fleet::default())),
        "ckpt_chunked" => Some(Box::new(ckpt_chunked::Checkpoints::default())),
        "shared_mix" => Some(Box::new(shared_mix::SharedMix::default())),
        _ => None,
    }
}

/// The timed region: a stopwatch and a `timed` span in one. Harness
/// bookkeeping inside it (digesting outputs for the correctness check)
/// runs in [`Timed::untimed`] sections, off the clock and under an
/// `untimed` span the layer table leaves out.
#[derive(Debug)]
pub struct Timed {
    total: Duration,
    since: Instant,
}

impl Timed {
    /// Open the timed region.
    pub fn start(tr: &mut Tracer) -> Timed {
        tr.enter(Layer::Bench, "timed");
        Timed {
            total: Duration::ZERO,
            since: Instant::now(),
        }
    }

    /// Run `f` off the clock.
    pub fn untimed<T>(&mut self, tr: &mut Tracer, f: impl FnOnce() -> T) -> T {
        self.total += self.since.elapsed();
        tr.enter(Layer::Bench, "untimed");
        let out = f();
        tr.exit();
        self.since = Instant::now();
        out
    }

    /// Close the region and return the seconds on the clock.
    pub fn stop(self, tr: &mut Tracer) -> f64 {
        let total = self.total + self.since.elapsed();
        tr.exit();
        total.as_secs_f64()
    }
}

/// Short resource names used in metric names.
pub fn short(kind: StorageKind) -> &'static str {
    match kind {
        StorageKind::LocalDisk => "local",
        StorageKind::RemoteDisk => "rdisk",
        StorageKind::RemoteTape => "tape",
    }
}

/// The location hint that pins a dataset to `kind`.
pub fn pin(kind: StorageKind) -> LocationHint {
    match kind {
        StorageKind::LocalDisk => LocationHint::LocalDisk,
        StorageKind::RemoteDisk => LocationHint::RemoteDisk,
        StorageKind::RemoteTape => LocationHint::RemoteTape,
    }
}

/// Set-up shared by the workloads that run with a populated performance
/// database: the PTool sweep over every resource, as one traced call.
pub fn ptool_sweep(sys: &mut MsrSystem, tr: &mut Tracer) -> Res<f64> {
    let t = Instant::now();
    tr.call(Layer::Predict, "ptool_sweep", || {
        sys.run_ptool(&PTool::default())
    })
    .map_err(msg)?;
    Ok(t.elapsed().as_secs_f64())
}

/// Requests a program expands into: one write per dump plus its consumer
/// reads, per dataset (the scheduler's own expansion rule).
pub fn program_requests(p: &SessionProgram) -> u64 {
    p.datasets
        .iter()
        .filter(|d| d.frequency != 0)
        .map(|d| {
            let dumps = u64::from(p.iterations / d.frequency) + 1;
            let reads = if p.readbacks > 0 {
                u64::from(p.readbacks).min(dumps)
            } else {
                u64::from(p.readback)
            };
            dumps + reads
        })
        .sum()
}

/// How one fleet's admission and drain went, request by request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Requests of every program offered.
    pub attempted: u64,
    /// Requests of programs refused at admission or never admitted
    /// (shed by quota or SLO, expired in the deferral queue).
    pub refused: u64,
    /// Requests of admitted sessions that were cancelled mid-drain or
    /// abandoned with an error.
    pub failed: u64,
}

impl Outcome {
    /// `(refused + failed) ÷ attempted`.
    pub fn failed_op_share(&self) -> f64 {
        (self.refused + self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Fold another drain in.
    pub fn merge(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.failed += other.failed;
    }
}

/// Account a drained fleet: `programs` is everything offered, `shed` the
/// app names refused at admission with a typed error.
pub fn outcome(programs: &[SessionProgram], shed: &[String], report: &SchedReport) -> Outcome {
    let mut out = Outcome::default();
    let by_app: BTreeMap<&str, &SessionReport> = report
        .sessions
        .iter()
        .map(|s| (s.app.as_str(), s))
        .collect();
    for p in programs {
        let requests = program_requests(p);
        out.attempted += requests;
        match by_app.get(p.app.as_str()) {
            _ if shed.contains(&p.app) => out.refused += requests,
            // Parked in the deferral queue until its TTL ran out.
            None => out.refused += requests,
            Some(s) if s.cancelled.is_some() => out.failed += requests,
            Some(s) => out.failed += s.errors.len() as u64,
        }
    }
    out
}

/// Admit `programs` (one traced `admit` per program) and drain them.
/// Typed `Rejected`/`QuotaExceeded` refusals are returned by app name
/// when `tolerate_shed`, fatal otherwise.
pub fn admit_and_run(
    tr: &mut Tracer,
    mut sched: Scheduler<'_>,
    programs: &[SessionProgram],
    tolerate_shed: bool,
) -> Res<(SchedReport, Vec<String>)> {
    let mut shed = Vec::new();
    tr.enter(Layer::Bench, "admit_phase");
    for p in programs {
        let program = p.clone();
        match tr.call(Layer::Sched, "admit", || sched.admit(program)) {
            Ok(_) => {}
            Err(CoreError::Rejected { .. } | CoreError::QuotaExceeded { .. }) if tolerate_shed => {
                shed.push(p.app.clone());
            }
            Err(e) => return Err(format!("admit {}: {e}", p.app)),
        }
    }
    tr.exit();
    tr.enter(Layer::Bench, "run_phase");
    let report = tr.call(Layer::Sched, "run", || sched.run());
    tr.exit();
    Ok((report.map_err(msg)?, shed))
}

/// The scheduler's own deterministic counts, summed over the drains of a
/// repetition. `_`-prefixed sums feed derived metrics (mean wait, hit
/// ratio) and are not reported themselves.
pub fn sched_counts(report: &SchedReport, virt: &mut Numbers) {
    let requests = report.requests();
    let wait: f64 = report.sessions.iter().map(|s| s.wait_time.as_secs()).sum();
    let requeues: u64 = report.sessions.iter().map(|s| u64::from(s.requeues)).sum();
    let sum =
        |f: fn(&TenantReport) -> u64| -> f64 { report.tenants.iter().map(f).sum::<u64>() as f64 };
    let mut add = |name: &str, value: f64| {
        *virt.entry(name.to_owned()).or_insert(0.0) += value;
    };
    add("sched.requests", requests as f64);
    add("sched.batches", report.batches as f64);
    add("_sched.wait_sum_s", wait);
    add("sched.requeues", requeues as f64);
    add("sched.prefetched", report.prefetched as f64);
    add("_sched.prefetch_hits", report.prefetch_hits as f64);
    add("sched.prefetch_waste", report.prefetch_waste as f64);
    add("sched.prefetch_declined", report.prefetch_declined as f64);
    add("sched.shed_sessions", sum(|t| t.shed));
    add("sched.deferred_sessions", sum(|t| t.deferred));
    add("sched.cancelled_sessions", sum(|t| t.cancelled));
    let max_batch = virt.entry("sched.max_batch".to_owned()).or_insert(0.0);
    *max_batch = max_batch.max(report.max_batch as f64);
}

/// The end-to-end virtual numbers of one drained fleet on a fresh testbed,
/// which must have served every request it was offered.
pub fn drain_numbers(sys: &MsrSystem, report: &SchedReport, o: &Outcome) -> Res<Numbers> {
    if report.requests() != o.attempted || o.refused + o.failed != 0 {
        return Err(format!(
            "the drain must serve exactly its {} requests: served {}, {o:?}",
            o.attempted,
            report.requests()
        ));
    }
    let worst_wait_p99 = report
        .sessions
        .iter()
        .map(|s| s.wait_p99.as_secs())
        .fold(0.0, f64::max);
    Ok(Numbers::from([
        ("virtual_makespan_s".to_owned(), report.makespan.as_secs()),
        ("virtual_wait_p99_s".to_owned(), worst_wait_p99),
        (
            "wan_bytes_per_logical_byte".to_owned(),
            wan_bytes(sys) as f64 / report.total_bytes.max(1) as f64,
        ),
        (
            "stored_bytes_per_logical_byte".to_owned(),
            stored_per_logical(sys),
        ),
        ("served_op_share".to_owned(), 1.0 - o.failed_op_share()),
    ]))
}

/// Bytes that crossed the WAN: everything the remote disk and the tape
/// wrote or read.
pub fn wan_bytes(sys: &MsrSystem) -> u64 {
    [StorageKind::RemoteDisk, StorageKind::RemoteTape]
        .into_iter()
        .filter_map(|k| sys.resource(k))
        .map(|r| {
            let s = r.lock().stats();
            s.bytes_written + s.bytes_read
        })
        .sum()
}

/// `Σ usage ÷ Σ logical usage` over every resource.
pub fn stored_per_logical(sys: &MsrSystem) -> f64 {
    let physical: u64 = sys.usage().values().sum();
    let logical: u64 = sys.usage_logical().values().sum();
    physical as f64 / logical.max(1) as f64
}

/// `100 × |predicted − actual| ÷ actual`.
pub fn abs_err_pct(predicted: f64, actual: f64) -> f64 {
    100.0 * (predicted - actual).abs() / actual.abs().max(1e-12)
}

/// Record how well eq. (2) predicted a run, two ways. The per-layer
/// `predict.abs_err_pct` is the paper's figure. The end-to-end
/// `predict_agreement_pct` is `100 × min(P, A) ÷ max(P, A)`: the same
/// comparison on a scale that stays away from zero when the prediction is
/// good, so that the simulator's seed-to-seed jitter (±3 % of `A`) moves it
/// by a few per cent of its value and not by several times its value.
pub fn record_prediction(predicted: f64, actual: f64, virt: &mut Numbers) {
    virt.insert("predict.abs_err_pct".into(), abs_err_pct(predicted, actual));
    virt.insert(
        "predict_agreement_pct".into(),
        100.0 * predicted.min(actual) / predicted.max(actual).max(1e-12),
    );
}

/// Sum of eq. (2) predictions for *twin sessions* of the served programs:
/// same application shape and dataset specs, pinned to where the drain
/// actually placed each dataset, opened on the drained system and never
/// written. Returns `(predicted, actual)` seconds, `actual` being the
/// served sessions' summed service time. The system needs a predictor.
pub fn twin_prediction(
    sys: &MsrSystem,
    programs: &[SessionProgram],
    report: &SchedReport,
    tr: &mut Tracer,
) -> CoreResult<(f64, f64)> {
    let by_app: BTreeMap<&str, &SessionProgram> =
        programs.iter().map(|p| (p.app.as_str(), p)).collect();
    let (mut predicted, mut actual) = (0.0, 0.0);
    for s in &report.sessions {
        let Some(p) = by_app.get(s.app.as_str()) else {
            continue;
        };
        if s.cancelled.is_some() || !s.errors.is_empty() {
            continue;
        }
        let mut twin = sys
            .session()
            .app(&p.app)
            .user(&p.user)
            .iterations(p.iterations)
            .grid(p.grid)
            .build()?;
        for spec in &p.datasets {
            let spec: DatasetSpec = match s.placements.get(&spec.name) {
                Some(&kind) => spec.clone().with_hint(pin(kind)),
                None => spec.clone(),
            };
            twin.open(spec)?;
        }
        let prediction = tr.call(Layer::Predict, "predict", || twin.predict())?;
        predicted += prediction.total.as_secs();
        actual += s.io_time.as_secs();
    }
    Ok((predicted, actual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_meta::ElementType;

    fn program(app: &str, readbacks: u32) -> SessionProgram {
        SessionProgram::new(app)
            .iterations(12)
            .dataset(
                DatasetSpec::builder("d")
                    .element(ElementType::U8)
                    .cube(8)
                    .frequency(3)
                    .hint(LocationHint::LocalDisk)
                    .build(),
            )
            .readbacks(readbacks)
    }

    #[test]
    fn program_requests_follow_the_expansion_rule() {
        // 12 iterations every 3: dumps at 0, 3, 6, 9, 12.
        assert_eq!(program_requests(&program("a", 0)), 5);
        assert_eq!(program_requests(&program("a", 3)), 8);
        assert_eq!(
            program_requests(&program("a", 9)),
            10,
            "reads capped at dumps"
        );
        assert_eq!(program_requests(&program("a", 0).readback(true)), 6);
    }

    #[test]
    fn failed_op_share_counts_shed_sessions_against_everything_offered() {
        let sys = MsrSystem::testbed(5);
        sys.tenants.register(
            msr_core::Tenant::new("capped").with_quota(msr_core::TenantQuota {
                max_queued_requests: Some(12),
                ..msr_core::TenantQuota::default()
            }),
        );
        // Five requests each: the quota of 12 admits two and sheds two.
        let programs: Vec<SessionProgram> = (0..4)
            .map(|i| program(&format!("p{i}"), 0).tenant("capped"))
            .collect();
        let mut tr = Tracer::new();
        let (report, shed) = admit_and_run(&mut tr, Scheduler::new(&sys), &programs, true).unwrap();
        assert_eq!(shed, ["p2", "p3"]);
        let o = outcome(&programs, &shed, &report);
        assert_eq!((o.attempted, o.refused, o.failed), (20, 10, 0));
        assert_eq!(o.failed_op_share(), 0.5);
        assert_eq!(report.requests(), 10, "what was admitted was served");
        // The same fleet is fatal where sheds are not expected.
        let sys = MsrSystem::testbed(5);
        sys.tenants.register(
            msr_core::Tenant::new("capped").with_quota(msr_core::TenantQuota {
                max_queued_requests: Some(12),
                ..msr_core::TenantQuota::default()
            }),
        );
        assert!(admit_and_run(&mut tr, Scheduler::new(&sys), &programs, false).is_err());
    }

    #[test]
    fn stopwatch_excludes_untimed_sections() {
        let mut tr = Tracer::new();
        tr.set(true, 0);
        let mut t = Timed::start(&mut tr);
        t.untimed(&mut tr, || std::thread::sleep(Duration::from_millis(30)));
        assert!(t.stop(&mut tr) < 0.025);
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["timed", "untimed"]);
        assert!(tr.spans()[1].secs() >= 0.03);
    }
}
