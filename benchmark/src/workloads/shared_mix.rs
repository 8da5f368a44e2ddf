//! `shared_mix` — the same scheduler, storage and runtime layers used
//! *differently*: contention, not volume.
//!
//! One long-lived testbed, three epochs. Each epoch one scheduler (read-
//! ahead on, lifecycle engine attached) drains, in admission order: the
//! antagonist tenant mix on the local disk — 6 quiet clients (weight 8),
//! 10 noisy producers under a 250-request quota, 3 batch analyzers under a
//! 5 s SLO that defers — then 16 archive consumers that read their three
//! earliest tape dumps back, then 6 local checkpoint producers. After each
//! drain the clock jumps 900 s and the lifecycle engine ticks: demote
//! after 600 s idle, vault after 2 400 s, keep the last two dumps.
//!
//! A dispatch speed-up that costs fairness, a prefetch change that adds
//! waste, or a lifecycle change that slows hot reads shows here and not in
//! `fleet_10k`.

use super::{
    abs_err_pct, admit_and_run, msg, outcome, ptool_sweep, record_prediction, sched_counts,
    stored_per_logical, twin_prediction, wan_bytes, Cx, Numbers, Outcome, Rep, Res, Scale, Timed,
    Workload,
};
use crate::trace::Layer;
use crate::{layers, probes};
use msr_core::{
    DatasetSpec, FutureUse, LocationHint, MsrSystem, OverloadPolicy, Tenant, TenantQuota,
};
use msr_lifecycle::{LifecycleConfig, LifecycleEngine, MoveRec, RetentionPolicy, TickTotals};
use msr_meta::ElementType;
use msr_sched::{SchedReport, Scheduler, SessionProgram};
use msr_sim::SimDuration;
use std::time::Instant;

const EPOCHS: usize = 3;
const ITERATIONS: u32 = 48;
const NOISY_QUOTA: usize = 250;
const BATCH_SLO_S: f64 = 5.0;
const EPOCH_GAP_S: f64 = 900.0;

/// Array edges at `scale`: `(small, medium, large)`.
fn cubes(scale: Scale) -> (u64, u64, u64) {
    match scale {
        Scale::Full => (16, 32, 64),
        Scale::Smoke => (8, 16, 16),
    }
}

#[allow(clippy::too_many_arguments)]
fn client(
    app: String,
    user: &str,
    iterations: u32,
    dataset: &str,
    etype: ElementType,
    cube: u64,
    frequency: u32,
    hint: LocationHint,
    fu: FutureUse,
) -> SessionProgram {
    SessionProgram::new(&app)
        .user(user)
        .iterations(iterations)
        .dataset(
            DatasetSpec::builder(dataset)
                .element(etype)
                .cube(cube)
                .frequency(frequency)
                .hint(hint)
                .future_use(fu)
                .build(),
        )
}

/// One epoch's fleet, in admission order.
pub fn fleet(scale: Scale) -> Vec<SessionProgram> {
    use ElementType::{F32, U8};
    use LocationHint::{Auto, LocalDisk};
    let (small, medium, large) = cubes(scale);
    let mut programs = Vec::new();
    for i in 0..6 {
        let app = format!("quiet-{i:02}");
        programs.push(
            client(
                app,
                "svc",
                ITERATIONS,
                "q",
                U8,
                small,
                1,
                LocalDisk,
                FutureUse::Visualization,
            )
            .tenant("quiet"),
        );
    }
    for i in 0..10 {
        let app = format!("noisy-{i:02}");
        programs.push(
            client(
                app,
                "bulk",
                ITERATIONS,
                "n",
                F32,
                medium,
                1,
                LocalDisk,
                FutureUse::Analysis,
            )
            .tenant("noisy"),
        );
    }
    for i in 0..3 {
        let app = format!("batch-{i:02}");
        programs.push(
            client(
                app,
                "post",
                ITERATIONS,
                "b",
                F32,
                small,
                6,
                LocalDisk,
                FutureUse::Analysis,
            )
            .tenant("batch"),
        );
    }
    for i in 0..16 {
        let app = format!("archive-{i:02}");
        programs.push(
            client(
                app,
                "post",
                ITERATIONS,
                "hist",
                F32,
                large,
                6,
                Auto,
                FutureUse::Archive,
            )
            .readbacks(3),
        );
    }
    for i in 0..6 {
        let app = format!("ckpt-{i:02}");
        programs.push(client(
            app,
            "sim",
            ITERATIONS / 2,
            "chk",
            F32,
            medium,
            3,
            LocalDisk,
            FutureUse::Checkpoint,
        ));
    }
    programs
}

/// The PR 8 antagonist tenant profile: quiet is weighted 8×, noisy is
/// capped at a queued-request quota (overflow is shed), batch carries an
/// admission SLO and defers instead of shedding.
fn register_tenants(sys: &MsrSystem) {
    sys.tenants.register(Tenant::new("quiet").with_weight(8.0));
    sys.tenants
        .register(Tenant::new("noisy").with_quota(TenantQuota {
            max_queued_requests: Some(NOISY_QUOTA),
            ..TenantQuota::default()
        }));
    sys.tenants.register(
        Tenant::new("batch")
            .with_slo(SimDuration::from_secs(BATCH_SLO_S))
            .with_overload(OverloadPolicy::Defer {
                max_deferred: 8,
                ttl: SimDuration::from_secs(1e9),
            }),
    );
}

fn lifecycle_engine() -> LifecycleEngine {
    LifecycleEngine::new(LifecycleConfig {
        demote_after: SimDuration::from_secs(600.0),
        vault_after: SimDuration::from_secs(2400.0),
        promote_heat: u64::MAX,
        retention: RetentionPolicy::keep_all().with_keep_last(2),
        ..LifecycleConfig::default()
    })
}

struct State {
    sys: MsrSystem,
    programs: Vec<SessionProgram>,
    reports: Vec<SchedReport>,
}

/// The workload.
#[derive(Default)]
pub struct SharedMix {
    last: Option<State>,
}

impl Workload for SharedMix {
    fn entry(&self) -> Layer {
        Layer::Sched
    }

    fn rep(&mut self, cx: &mut Cx) -> Res<Rep> {
        self.last = None;
        cx.tr.enter(Layer::Bench, "setup");
        let t = Instant::now();
        let sys = MsrSystem::testbed(cx.seed);
        register_tenants(&sys);
        let engine = lifecycle_engine();
        let programs = fleet(cx.scale);
        let setup_s = t.elapsed().as_secs_f64();
        cx.tr.exit();

        let mut timed = Timed::start(cx.tr);
        let mut reports = Vec::with_capacity(EPOCHS);
        let mut total = Outcome::default();
        let mut ticks = TickTotals::default();
        let mut moves: Vec<MoveRec> = Vec::new();
        for _ in 0..EPOCHS {
            cx.tr.enter(Layer::Bench, "epoch");
            let sched = cx.tr.call(Layer::Sched, "scheduler_new", || {
                Scheduler::new(&sys)
                    .with_prefetch(true)
                    .with_lifecycle(engine.clone())
                    .lifecycle_every(2)
            });
            let (report, shed) = admit_and_run(cx.tr, sched, &programs, true)?;
            // The fleet goes quiet; the finished epoch ages past the
            // demotion window before the next one starts.
            sys.clock.advance(SimDuration::from_secs(EPOCH_GAP_S));
            let tick = cx
                .tr
                .call(Layer::Lifecycle, "engine.tick", || engine.tick(&sys));
            cx.tr.exit();
            timed.untimed(cx.tr, || {
                total.merge(&outcome(&programs, &shed, &report));
                ticks.merge(&report.lifecycle);
                ticks.absorb(&tick);
                moves.extend(tick.demotions);
                moves.extend(tick.promotions);
                reports.push(report);
            });
        }
        let wall_s = timed.stop(cx.tr);

        let quiet: Vec<_> = reports
            .iter()
            .flat_map(|r| r.tenants.iter().filter(|t| t.tenant == "quiet"))
            .collect();
        if quiet.iter().any(|t| t.shed + t.expired + t.cancelled > 0)
            || quiet.iter().map(|t| t.sessions).sum::<u64>() != 6 * EPOCHS as u64
        {
            return Err(format!("the quiet tenant must never be shed: {quiet:?}"));
        }

        let requests: u64 = reports.iter().map(SchedReport::requests).sum();
        let logical: u64 = reports.iter().map(|r| r.total_bytes).sum();
        let mut virt = Numbers::new();
        let mut host = Numbers::new();
        virt.insert(
            "virtual_makespan_s".into(),
            reports.iter().map(|r| r.makespan.as_secs()).sum(),
        );
        virt.insert(
            "virtual_wait_p99_s".into(),
            quiet
                .iter()
                .map(|t| t.wait_p99.as_secs())
                .fold(0.0, f64::max),
        );
        virt.insert(
            "wan_bytes_per_logical_byte".into(),
            wan_bytes(&sys) as f64 / logical.max(1) as f64,
        );
        virt.insert(
            "stored_bytes_per_logical_byte".into(),
            stored_per_logical(&sys),
        );
        virt.insert("served_op_share".into(), 1.0 - total.failed_op_share());
        if cx.layers {
            for r in &reports {
                sched_counts(r, &mut virt);
            }
            virt.insert(
                "_wait_p99.requests".into(),
                quiet.iter().map(|t| t.requests).sum::<u64>() as f64,
            );
            virt.insert("lifecycle.ticks".into(), ticks.ticks as f64);
            virt.insert("lifecycle.demotions".into(), ticks.demotions as f64);
            virt.insert("lifecycle.vaulted".into(), ticks.vaulted as f64);
            virt.insert("lifecycle.pruned_bytes".into(), ticks.pruned_bytes as f64);
            let (p, a) = moves.iter().fold((0.0, 0.0), |(p, a), m| {
                (p + m.predicted_secs, a + m.actual_secs)
            });
            virt.insert(
                "lifecycle.move_err_pct".into(),
                if a > 0.0 { abs_err_pct(p, a) } else { 0.0 },
            );
            layers::collect(&sys, requests, &mut virt, &mut host);
        }
        self.last = Some(State {
            sys,
            programs,
            reports,
        });
        Ok(Rep {
            setup_s,
            wall_s,
            requests,
            attempted: total.attempted,
            failed: total.failed,
            virt,
            host,
        })
    }

    fn finish(&mut self, cx: &mut Cx, counts: &Numbers) -> Res<(Numbers, Numbers)> {
        let mut st = self.last.take().ok_or("finish before any repetition")?;
        let mut virt = Numbers::new();
        let mut host = Numbers::new();
        if cx.layers {
            let mut ops = probes::Ops::default();
            for r in &st.reports {
                let epoch = probes::Ops::of_drain(&st.programs, r)?;
                for c in epoch.raw {
                    ops.add_raw(c.dist, c.strategy, c.writes, c.reads);
                }
                for (len, n) in epoch.payloads {
                    *ops.payloads.entry(len).or_insert(0) += n;
                }
                ops.lookups.extend(epoch.lookups);
            }
            probes::run_all(&st.sys, &ops, counts, cx.scale, cx.tr, &mut host)?;
        }
        // Admission priced requests from synthesized profiles; the twins
        // need the measured database.
        ptool_sweep(&mut st.sys, cx.tr)?;
        let (mut predicted, mut actual) = (0.0, 0.0);
        for r in &st.reports {
            let (p, a) = twin_prediction(&st.sys, &st.programs, r, cx.tr).map_err(msg)?;
            predicted += p;
            actual += a;
        }
        record_prediction(predicted, actual, &mut virt);
        Ok((virt, host))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::program_requests;

    #[test]
    fn epoch_fleet_has_the_declared_shape() {
        let f = fleet(Scale::Full);
        assert_eq!(f.len(), 6 + 10 + 3 + 16 + 6);
        let tenant =
            |name: &'static str| f.iter().filter(move |p| p.tenant.as_deref() == Some(name));
        assert_eq!(tenant("quiet").count(), 6);
        assert_eq!(tenant("noisy").count(), 10);
        assert_eq!(tenant("batch").count(), 3);
        // 49 requests per noisy producer: the 250-request quota holds five.
        assert_eq!(program_requests(tenant("noisy").next().unwrap()), 49);
        let archive = f.iter().find(|p| p.app == "archive-00").unwrap();
        assert_eq!(program_requests(archive), 9 + 3);
        let ckpt = f.iter().find(|p| p.app == "ckpt-05").unwrap();
        assert_eq!((ckpt.iterations, program_requests(ckpt)), (24, 9));
    }
}
