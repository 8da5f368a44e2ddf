//! Scheduler acceptance: determinism, fairness, throughput, failover and
//! observability for concurrent sessions.

use msr_core::{DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_meta::ElementType;
use msr_predict::PTool;
use msr_runtime::ProcGrid;
use msr_sched::{program::PayloadSource, Scheduler, SessionProgram};
use msr_sim::SimDuration;
use msr_storage::{OpKind, StorageKind};

/// An Astro3D-shaped producer: float cubes, archived, every 6 iterations.
/// Each dataset is pinned to the first kind its future use prefers.
fn astro_program(i: usize) -> SessionProgram {
    SessionProgram::new(&format!("astro3d-{i}"))
        .user("sim")
        .iterations(12)
        .dataset(
            DatasetSpec::builder("temp")
                .element(ElementType::F32)
                .cube(16)
                .frequency(6)
                .hint(LocationHint::RemoteTape)
                .future_use(FutureUse::Archive)
                .build(),
        )
        .dataset(
            DatasetSpec::builder("pres")
                .element(ElementType::F32)
                .cube(16)
                .frequency(6)
                .hint(LocationHint::RemoteDisk)
                .future_use(FutureUse::Analysis)
                .build(),
        )
}

/// A Volren-shaped consumer feed: byte cubes for visualization, dumped
/// every 3 iterations — the bursty, latency-sensitive client, pinned to
/// local disk.
fn volren_program(i: usize) -> SessionProgram {
    SessionProgram::new(&format!("volren-{i}"))
        .user("viz")
        .iterations(12)
        .dataset(
            DatasetSpec::builder("vr_temp")
                .element(ElementType::U8)
                .cube(16)
                .frequency(3)
                .hint(LocationHint::LocalDisk)
                .future_use(FutureUse::Visualization)
                .build(),
        )
}

fn mixed_programs(n: usize) -> Vec<SessionProgram> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                astro_program(i)
            } else {
                volren_program(i)
            }
        })
        .collect()
}

fn run_scheduled(seed: u64, programs: Vec<SessionProgram>) -> msr_sched::SchedReport {
    let sys = MsrSystem::testbed(seed);
    let mut sched = Scheduler::new(&sys);
    for p in programs {
        sched.admit(p).unwrap();
    }
    sched.run().unwrap()
}

/// The same seed and session set produce bitwise-identical per-session
/// reports whether the dispatcher's batches run sequentially or on a full
/// worker pool.
#[test]
fn scheduled_run_is_deterministic_across_thread_counts() {
    let runs: Vec<String> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            rayon::pool::with_threads(threads, || {
                let report = run_scheduled(42, mixed_programs(4));
                serde_json::to_string(&report.sessions).unwrap()
            })
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "per-session reports must not depend on worker count"
    );
}

/// Under a saturating mixed workload no session starves: every client's
/// requests all complete, and identical clients finish near one another
/// instead of strictly one-after-another. Long runs (dumps well past
/// `MAX_CHAIN`) force each session into many chains so round-robin
/// interleaving is actually exercised.
#[test]
fn round_robin_dispatch_starves_no_session() {
    let programs: Vec<SessionProgram> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                astro_program(i).iterations(96)
            } else {
                volren_program(i).iterations(96)
            }
        })
        .collect();
    let report = run_scheduled(7, programs);
    assert_eq!(report.sessions.len(), 6);
    for s in &report.sessions {
        assert!(
            s.errors.is_empty(),
            "session {} errors: {:?}",
            s.session,
            s.errors
        );
        assert!(s.requests > 0);
        assert_eq!(s.reports.len() as u64, s.requests);
    }
    // The three astro sessions are identical programs; under FIFO-without-
    // interleaving the last-admitted one would finish ~3x later than the
    // first. Round-robin keeps their completions within one chain of each
    // other.
    let astro: Vec<_> = report
        .sessions
        .iter()
        .filter(|s| s.app.starts_with("astro3d"))
        .collect();
    let first = astro
        .iter()
        .map(|s| s.completed_at.as_secs())
        .fold(f64::INFINITY, f64::min);
    let last = astro
        .iter()
        .map(|s| s.completed_at.as_secs())
        .fold(0.0, f64::max);
    let makespan = report.makespan.as_secs();
    assert!(
        last - first < 0.5 * makespan,
        "identical sessions should finish close together: first {first:.3}s last {last:.3}s of {makespan:.3}s"
    );
    // And every session actually waited its turn somewhere (the queues
    // were contended), rather than one client owning the system.
    assert!(report
        .sessions
        .iter()
        .any(|s| s.wait_time > SimDuration::ZERO));
}

/// Concurrent admission beats running the same sessions back-to-back
/// through the plain session API: the scheduler overlaps sessions across
/// resources, so the makespan is bounded by the busiest resource instead
/// of the sum of all service times.
#[test]
fn concurrent_sessions_beat_sequential_back_to_back() {
    let programs = mixed_programs(4);

    // Baseline: the old API, one session at a time on a fresh system.
    let sys = MsrSystem::testbed(99);
    let t0 = sys.clock.now();
    for p in &programs {
        let mut s = sys
            .session()
            .app(&p.app)
            .user(&p.user)
            .iterations(p.iterations)
            .grid(p.grid)
            .build()
            .unwrap();
        let handles: Vec<_> = p
            .datasets
            .iter()
            .map(|d| (s.open(d.clone()).unwrap(), d.clone()))
            .collect();
        for iter in 0..=p.iterations {
            for (h, d) in &handles {
                let data = vec![1u8; d.snapshot_bytes() as usize];
                s.write_iteration(*h, iter, &data).unwrap();
            }
        }
        s.finalize().unwrap();
    }
    let sequential = sys.clock.now().since(t0);

    let report = run_scheduled(99, programs);
    assert!(
        report.makespan < sequential,
        "scheduled {} should beat sequential {}",
        report.makespan,
        sequential
    );
    assert!(report.max_batch > 1, "contiguous dumps should batch");
    assert!(report.throughput_mb_s > 0.0);
}

/// A resource dying mid-drain does not lose requests: the failed batch and
/// the dataset's remaining queue move to the fallback resource, the
/// catalog is updated, and the re-queue is observable.
#[test]
fn outage_mid_drain_requeues_to_fallback() {
    let sys = MsrSystem::testbed(13);
    let mut sched = Scheduler::new(&sys);
    // The archived `temp` is pinned to tape.
    let id = sched.admit(astro_program(0)).unwrap().expect("admitted");
    assert_eq!(id, 0);
    sys.set_resource_online(StorageKind::RemoteTape, false);
    let report = sched.run().unwrap();
    let s = &report.sessions[0];
    assert!(s.errors.is_empty(), "errors: {:?}", s.errors);
    assert!(s.requeues > 0, "tape requests must have been re-queued");
    assert_eq!(s.placements["temp"], StorageKind::RemoteDisk);
    // Catalog followed the move.
    let rec = sys
        .catalog
        .lock()
        .find_dataset(msr_meta::RunId(s.run), "temp")
        .unwrap()
        .clone();
    assert_eq!(
        rec.location,
        msr_meta::Location::Stored(StorageKind::RemoteDisk)
    );
    // The re-queue left a sched-layer marker naming the new target.
    assert!(sys
        .obs
        .events()
        .iter()
        .any(|e| e.op == msr_obs::ops::SCHED_REQUEUE && e.detail.contains("remote disk")));
}

/// Chaos drain: tape goes dark after admission placed archives on it. The
/// event engine must requeue every stranded request to the fallback
/// resource (no session-visible errors), update the catalog, and produce
/// the same report at any worker-pool width.
#[test]
fn chaos_failover_requeues_deterministically_under_event_engine() {
    let run = || {
        let sys = MsrSystem::testbed(13);
        let mut sched = Scheduler::new(&sys).with_prefetch(true);
        for i in 0..4 {
            sched.admit(astro_program(i).readbacks(3)).unwrap();
        }
        sys.set_resource_online(StorageKind::RemoteTape, false);
        sched.run().unwrap()
    };
    let report = run();
    let requeues: u32 = report.sessions.iter().map(|s| s.requeues).sum();
    assert!(requeues > 0, "outage must force failover requeues");
    for s in &report.sessions {
        assert!(s.errors.is_empty(), "failover must stay transparent");
        assert_eq!(s.reports.len() as u64, s.requests);
        assert_ne!(
            s.placements["temp"],
            StorageKind::RemoteTape,
            "stranded archives must drain off the dead resource"
        );
    }
    let wide = serde_json::to_string(&report).unwrap();
    let narrow = rayon::pool::with_threads(1, || serde_json::to_string(&run()).unwrap());
    assert_eq!(wide, narrow, "chaos drains must not depend on worker count");
}

/// The full admission-control stack — quotas, SLO pricing, deferral and
/// deadlines — stays bitwise deterministic across worker-pool widths.
#[test]
fn admission_control_drains_are_thread_count_independent() {
    let drain = || {
        let sys = MsrSystem::testbed(2200);
        sys.tenants
            .register(msr_core::Tenant::new("sim").with_weight(8.0).with_quota(
                msr_core::TenantQuota {
                    max_queued_requests: Some(64),
                },
            ));
        sys.tenants.register(
            msr_core::Tenant::new("viz")
                .with_slo(SimDuration::from_secs(1e-3))
                .with_overload(msr_core::OverloadPolicy::Defer {
                    max_deferred: 4,
                    ttl: SimDuration::from_secs(1e9),
                }),
        );
        let mut sched = Scheduler::new(&sys).with_prefetch(true);
        for i in 0..4 {
            sched.admit(astro_program(i).tenant("sim")).unwrap();
        }
        for i in 0..2 {
            // Over-SLO behind the astro backlog: parks, admitted later.
            sched.admit(volren_program(i).tenant("viz")).unwrap();
        }
        sched
            .admit(
                astro_program(9)
                    .tenant("sim")
                    .deadline(SimDuration::from_secs(1e-6)),
            )
            .unwrap();
        serde_json::to_string(&sched.run().unwrap()).unwrap()
    };
    let wide = rayon::pool::with_threads(4, drain);
    let narrow = rayon::pool::with_threads(1, drain);
    assert_eq!(
        wide, narrow,
        "admission-control drain must not depend on MSR_THREADS"
    );
}

/// Scheduler activity shows up in the observability snapshot: queue-depth
/// gauges and wait/dispatch spans under the `sched` layer.
#[test]
fn scheduler_metrics_land_in_the_obs_snapshot() {
    let sys = MsrSystem::testbed(21);
    let mut sched = Scheduler::new(&sys);
    for p in mixed_programs(3) {
        sched.admit(p).unwrap();
    }
    let report = sched.run().unwrap();
    assert!(report.requests() > 0);
    let snap = sys.obs.snapshot();
    assert!(
        snap.gauges
            .iter()
            .any(|g| g.key.starts_with("sched/") && g.key.ends_with("queue_depth") && g.max > 0.0),
        "queue-depth gauge missing: {:?}",
        snap.gauges.iter().map(|g| &g.key).collect::<Vec<_>>()
    );
    for op in [msr_obs::ops::SCHED_WAIT, msr_obs::ops::SCHED_DISPATCH] {
        assert!(
            snap.per_op.iter().any(|m| m.layer == "sched" && m.op == op),
            "missing sched span {op}"
        );
    }
}

/// With a populated performance database, an AUTO-hint dataset is admitted
/// onto the minimum predicted-time resource, and piling queue depth onto
/// that winner steers the next admission elsewhere.
#[test]
fn scored_admission_follows_the_predictor_and_queue_depth() {
    let mut sys = MsrSystem::testbed(31);
    sys.run_ptool(&PTool {
        sizes: vec![1 << 14, 1 << 18, 1 << 21],
        reps: 2,
        scratch_prefix: "ptool/sched".into(),
    })
    .unwrap();

    // Independently compute the predictor's per-dump argmin for this shape.
    let spec = DatasetSpec::builder("temp")
        .element(ElementType::F32)
        .cube(16)
        .frequency(1)
        .build();
    let dist = msr_runtime::Distribution::new(
        spec.dims,
        spec.etype.size(),
        spec.pattern,
        ProcGrid::new(1, 1, 1),
    )
    .unwrap();
    let plan = spec.plan(OpKind::Write, dist);
    let fastest = [
        StorageKind::LocalDisk,
        StorageKind::RemoteDisk,
        StorageKind::RemoteTape,
    ]
    .into_iter()
    .map(|k| {
        let name = sys.resource(k).unwrap().lock().name().to_owned();
        let row = |op| sys.perf_db().get(&name, op).unwrap();
        (k, msr_predict::plan_time(&plan, row, Default::default()))
    })
    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    .unwrap()
    .0;

    let mut sched = Scheduler::new(&sys);
    // A heavy first client: 30 dumps, all AUTO-routed to the fastest
    // resource, loading its queue.
    let heavy = SessionProgram::new("heavy")
        .iterations(29)
        .dataset(spec.clone());
    sched.admit(heavy).unwrap();
    let depth = sys.load.depth(fastest);
    assert!(depth >= 30, "heavy client queued on the predicted winner");

    // The next AUTO client sees that queue and is steered elsewhere.
    let light = SessionProgram::new("light").iterations(5).dataset(
        DatasetSpec::builder("temp2")
            .element(ElementType::F32)
            .cube(16)
            .frequency(1)
            .build(),
    );
    sched.admit(light).unwrap();
    let report = sched.run().unwrap();
    assert_eq!(report.sessions[0].placements["temp"], fastest);
    assert_ne!(
        report.sessions[1].placements["temp2"], fastest,
        "queue-depth-adjusted score must route the second client around the {depth}-deep queue"
    );
    assert!(report.sessions.iter().all(|s| s.errors.is_empty()));
}

/// Readback requests flow through the same queues and return the bytes the
/// scheduler wrote; the consumer path still finds the data via the catalog
/// afterwards.
#[test]
fn readback_roundtrips_through_the_catalog() {
    let sys = MsrSystem::testbed(55);
    let mut sched = Scheduler::new(&sys);
    let spec = DatasetSpec::builder("field")
        .element(ElementType::U8)
        .cube(8)
        .frequency(6)
        .hint(LocationHint::RemoteDisk)
        .build();
    let program = SessionProgram::new("producer")
        .iterations(12)
        .dataset(spec.clone())
        .readback(true);
    let id = sched.admit(program).unwrap().expect("admitted");
    let report = sched.run().unwrap();
    let s = &report.sessions[0];
    assert!(s.errors.is_empty());
    // 3 writes (iters 0, 6, 12) + 1 readback.
    assert_eq!(s.requests, 4);
    assert!(s.reports.iter().any(|r| r.native_reads > 0));

    // The consumer path reads the same bytes the payload generator made,
    // every dump from the one source of its dataset.
    let source = PayloadSource::new(id, "field", spec.snapshot_bytes() as usize);
    for iter in [0, 6, 12] {
        let (data, _) = sys
            .read_dataset(
                msr_meta::RunId(s.run),
                "field",
                iter,
                ProcGrid::new(1, 1, 1),
                msr_runtime::IoStrategy::Collective,
            )
            .unwrap();
        assert_eq!(data, source.dump(iter), "dump {iter}");
    }
}
