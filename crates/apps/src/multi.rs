//! Deterministic multi-client workloads for the scheduler.
//!
//! The paper evaluates one application at a time; a shared deployment of
//! the testbed serves a *mix* — several Astro3D producers dumping while
//! Volren feeds render and post-processing readers pull dumps back. This
//! module declares that mix as [`SessionProgram`]s so the scheduler (and
//! the `benchmark/` workloads) can admit the same fleet at any concurrency
//! level and compare against running the identical clients back-to-back
//! through the plain session API.

use msr_core::{CoreResult, DatasetSpec, FutureUse, MsrSystem};
use msr_meta::ElementType;
use msr_sched::program::PayloadSource;
use msr_sched::{SchedReport, Scheduler, SessionProgram};
use msr_sim::SimDuration;

/// The client archetypes a shared testbed serves at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// Astro3D-shaped producer: two float analysis variables archived /
    /// analysed every 6 iterations.
    Producer,
    /// Volren-shaped feed: one u8 visualization volume every 3 iterations.
    Renderer,
    /// Post-processing reader: dumps a float variable for analysis and
    /// reads its first dump back at the end of the run.
    Analyzer,
}

impl ClientKind {
    /// Round-robin mix: producer, renderer, analyzer, producer, …
    pub fn of(index: usize) -> ClientKind {
        match index % 3 {
            0 => ClientKind::Producer,
            1 => ClientKind::Renderer,
            _ => ClientKind::Analyzer,
        }
    }

    /// This client's program. `cube` is the per-dataset array side;
    /// `iterations` the main-loop length.
    pub fn program(self, index: usize, cube: u64, iterations: u32) -> SessionProgram {
        match self {
            ClientKind::Producer => SessionProgram::new(&format!("astro3d-{index:02}"))
                .user("sim")
                .iterations(iterations)
                .dataset(
                    DatasetSpec::builder("temp")
                        .element(ElementType::F32)
                        .cube(cube)
                        .frequency(6)
                        .future_use(FutureUse::Archive)
                        .build(),
                )
                .dataset(
                    DatasetSpec::builder("pres")
                        .element(ElementType::F32)
                        .cube(cube)
                        .frequency(6)
                        .future_use(FutureUse::Analysis)
                        .build(),
                ),
            ClientKind::Renderer => SessionProgram::new(&format!("volren-{index:02}"))
                .user("viz")
                .iterations(iterations)
                .dataset(
                    DatasetSpec::builder("vr_temp")
                        .element(ElementType::U8)
                        .cube(cube)
                        .frequency(3)
                        .future_use(FutureUse::Visualization)
                        .build(),
                ),
            ClientKind::Analyzer => SessionProgram::new(&format!("mse-{index:02}"))
                .user("post")
                .iterations(iterations)
                .dataset(
                    DatasetSpec::builder("rho")
                        .element(ElementType::F32)
                        .cube(cube)
                        .frequency(6)
                        .future_use(FutureUse::Analysis)
                        .build(),
                )
                .readback(true),
        }
    }
}

/// A deterministic fleet of `n` mixed clients.
pub fn client_fleet(n: usize, cube: u64, iterations: u32) -> Vec<SessionProgram> {
    (0..n)
        .map(|i| ClientKind::of(i).program(i, cube, iterations))
        .collect()
}

/// The tape-heavy consumer fleet the prefetcher is measured on: `n`
/// archival producers that each dump one float variable every 6
/// iterations (Archive future-use, pinned to tape) and read
/// their three earliest dumps back at the end of the run as standalone
/// read chains. While one session's writes hold the tape foreground
/// stream, every *other* session's consumer reads are idle queue tail —
/// exactly the window a prediction-driven prefetcher can fill.
pub fn consumer_fleet(n: usize, cube: u64, iterations: u32) -> Vec<SessionProgram> {
    (0..n)
        .map(|i| {
            SessionProgram::new(&format!("archive-{i:02}"))
                .user("post")
                .iterations(iterations)
                .dataset(
                    DatasetSpec::builder("hist")
                        .element(ElementType::F32)
                        .cube(cube)
                        .frequency(6)
                        .hint(msr_core::LocationHint::RemoteTape)
                        .future_use(FutureUse::Archive)
                        .build(),
                )
                .readbacks(3)
        })
        .collect()
}

/// A compact mixed fleet for fleet-size scaling runs (100 / 1k / 10k
/// sessions): the same producer/renderer/analyzer rotation as
/// [`client_fleet`], but at 8³ cubes over 12 iterations so per-session
/// data stays small (~2 KB payloads) and the measured cost is the
/// dispatcher itself, not payload memcpys. At these sizes a 10k-session
/// drain holds every admitted payload in a few hundred MB — the scale the
/// discrete-event scheduler's O(resources + batch) dispatch step
/// exists for.
pub fn scaling_fleet(n: usize) -> Vec<SessionProgram> {
    client_fleet(n, 8, 12)
}

/// An Astro3D-style checkpoint producer: one float `chk` variable dumped
/// every 3 iterations, pinned to local disk for fast restart. Each dump
/// is a fresh file (`Create`), so a long campaign accumulates an aging
/// history of snapshots — exactly what a lifecycle engine's retention and
/// demotion passes exist to thin.
pub fn checkpoint_producer(index: usize, cube: u64, iterations: u32) -> SessionProgram {
    SessionProgram::new(&format!("ckpt-{index:02}"))
        .user("sim")
        .iterations(iterations)
        .dataset(
            DatasetSpec::builder("chk")
                .element(ElementType::F32)
                .cube(cube)
                .frequency(3)
                .hint(msr_core::LocationHint::LocalDisk)
                .future_use(FutureUse::Checkpoint)
                .build(),
        )
}

/// A deterministic fleet of `n` checkpoint producers.
pub fn checkpoint_fleet(n: usize, cube: u64, iterations: u32) -> Vec<SessionProgram> {
    (0..n)
        .map(|i| checkpoint_producer(i, cube, iterations))
        .collect()
}

/// A WAN-bound checkpoint producer: the same every-3-iterations `chk`
/// dumps as [`checkpoint_producer`], but pinned to the remote disk and —
/// when `chunked` — ingested through the content-addressed chunk plane
/// (CDC boundaries, LZ-style compression). Successive dumps share most of
/// their bytes, so the chunked variant ships only each iteration's churn
/// window across the WAN; the raw variant re-ships every byte. The pair
/// `tests/chunked.rs` compares.
pub fn dedup_producer(index: usize, cube: u64, iterations: u32, chunked: bool) -> SessionProgram {
    let mut spec = DatasetSpec::builder("chk")
        .element(ElementType::F32)
        .cube(cube)
        .frequency(3)
        .hint(msr_core::LocationHint::RemoteDisk)
        .future_use(FutureUse::Checkpoint);
    if chunked {
        spec = spec
            .chunked(msr_core::ChunkPolicy::cdc(8))
            .compression(msr_core::Codec::Lz4Like(1));
    }
    SessionProgram::new(&format!("ckpt-{index:02}"))
        .user("sim")
        .iterations(iterations)
        .dataset(spec.build())
}

/// A deterministic fleet of `n` WAN-bound checkpoint producers, raw or
/// chunked (see [`dedup_producer`]).
pub fn dedup_fleet(n: usize, cube: u64, iterations: u32, chunked: bool) -> Vec<SessionProgram> {
    (0..n)
        .map(|i| dedup_producer(i, cube, iterations, chunked))
        .collect()
}

/// The latency-sensitive tenant of the antagonist mix: `n` small-dump
/// clients (u8 cubes, every iteration) pinned to local disk, tagged
/// `"quiet"`. The tenant whose tail latency the overload machinery is
/// judged on.
pub fn quiet_fleet(n: usize, cube: u64, iterations: u32) -> Vec<SessionProgram> {
    (0..n)
        .map(|i| {
            SessionProgram::new(&format!("quiet-{i:02}"))
                .user("svc")
                .iterations(iterations)
                .dataset(
                    DatasetSpec::builder("q")
                        .element(ElementType::U8)
                        .cube(cube)
                        .frequency(1)
                        .hint(msr_core::LocationHint::LocalDisk)
                        .future_use(FutureUse::Visualization)
                        .build(),
                )
                .tenant("quiet")
        })
        .collect()
}

/// The antagonist tenant: `n` heavy producers (float cubes, every
/// iteration) aimed at the *same* local disk the quiet tenant lives on,
/// tagged `"noisy"`. Unprotected, this tenant's backlog grows the quiet
/// tenant's queue wait without bound.
pub fn noisy_fleet(n: usize, cube: u64, iterations: u32) -> Vec<SessionProgram> {
    (0..n)
        .map(|i| {
            SessionProgram::new(&format!("noisy-{i:02}"))
                .user("bulk")
                .iterations(iterations)
                .dataset(
                    DatasetSpec::builder("n")
                        .element(ElementType::F32)
                        .cube(cube)
                        .frequency(1)
                        .hint(msr_core::LocationHint::LocalDisk)
                        .future_use(FutureUse::Analysis)
                        .build(),
                )
                .tenant("noisy")
        })
        .collect()
}

/// The best-effort tenant: `n` light analyzers (one dump every 6
/// iterations) on the same contended local disk, tagged `"batch"`. Happy
/// to wait — its overload policy defers rather than sheds, so its
/// programs park behind the backlog and are admitted as the drain makes
/// room.
pub fn batch_fleet(n: usize, cube: u64, iterations: u32) -> Vec<SessionProgram> {
    (0..n)
        .map(|i| {
            SessionProgram::new(&format!("batch-{i:02}"))
                .user("post")
                .iterations(iterations)
                .dataset(
                    DatasetSpec::builder("b")
                        .element(ElementType::F32)
                        .cube(cube)
                        .frequency(6)
                        .hint(msr_core::LocationHint::LocalDisk)
                        .future_use(FutureUse::Analysis)
                        .build(),
                )
                .tenant("batch")
        })
        .collect()
}

/// Drop every program's tenant tag: the unprotected baseline, where the
/// whole fleet shares the default tenant's single FIFO lane and no
/// quota, SLO or weight applies.
pub fn strip_tenants(mut programs: Vec<SessionProgram>) -> Vec<SessionProgram> {
    for p in &mut programs {
        p.tenant = None;
    }
    programs
}

/// Register the three antagonist tenants with the protection profile the
/// acceptance tests use: `quiet` gets an 8× dispatch
/// weight; `noisy` gets a hard cap of `noisy_cap` queued requests (work
/// past the cap is shed); `batch` gets a `batch_slo` admission SLO with
/// a defer-not-shed overload policy.
pub fn register_antagonist_tenants(sys: &MsrSystem, noisy_cap: usize, batch_slo: SimDuration) {
    sys.tenants
        .register(msr_core::Tenant::new("quiet").with_weight(8.0));
    sys.tenants.register(
        msr_core::Tenant::new("noisy").with_quota(msr_core::TenantQuota {
            max_queued_requests: Some(noisy_cap),
        }),
    );
    sys.tenants.register(
        msr_core::Tenant::new("batch")
            .with_slo(batch_slo)
            .with_overload(msr_core::OverloadPolicy::Defer {
                max_deferred: 8,
                ttl: SimDuration::from_secs(1e9),
            }),
    );
}

/// Admit every program into one scheduler on `sys` and drain the queues,
/// tolerating typed admission sheds (`Rejected` / `QuotaExceeded` — they
/// are counted on the shedding tenant's report row). Any other admission
/// error still aborts.
pub fn run_overloaded(sys: &MsrSystem, programs: Vec<SessionProgram>) -> CoreResult<SchedReport> {
    let mut sched = Scheduler::new(sys);
    for p in programs {
        match sched.admit(p) {
            Ok(_) => {}
            Err(msr_core::CoreError::Rejected { .. })
            | Err(msr_core::CoreError::QuotaExceeded { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    sched.run()
}

/// Admit every program into one scheduler on `sys` and drain the queues.
pub fn run_concurrent(sys: &MsrSystem, programs: Vec<SessionProgram>) -> CoreResult<SchedReport> {
    let mut sched = Scheduler::new(sys);
    for p in programs {
        sched.admit(p)?;
    }
    sched.run()
}

/// The baseline the scheduler is measured against: the same clients run
/// one after another through the plain session API (no queues, no
/// overlap), returning total virtual time including readbacks.
pub fn run_sequential(sys: &MsrSystem, programs: &[SessionProgram]) -> CoreResult<SimDuration> {
    let t0 = sys.clock.now();
    for p in programs {
        let mut s = sys
            .session()
            .app(&p.app)
            .user(&p.user)
            .iterations(p.iterations)
            .grid(p.grid)
            .build()?;
        let handles: Vec<_> = p
            .datasets
            .iter()
            .map(|d| {
                let source = PayloadSource::new(0, &d.name, d.snapshot_bytes() as usize);
                s.open(d.clone()).map(|h| (h, source))
            })
            .collect::<CoreResult<_>>()?;
        for iter in 0..=p.iterations {
            for (h, source) in &handles {
                if s.dumps_at(*h, iter) {
                    s.write_iteration(*h, iter, &source.dump(iter))?;
                }
            }
        }
        if p.readback {
            for (h, _) in &handles {
                s.read_iteration(*h, 0)?;
            }
        }
        s.finalize()?;
    }
    Ok(sys.clock.now().since(t0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_core::LocationHint;
    use msr_storage::StorageKind;

    #[test]
    fn fleet_is_deterministic_and_mixed() {
        let a = client_fleet(6, 16, 12);
        let b = client_fleet(6, 16, 12);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.app, y.app);
            assert_eq!(x.datasets.len(), y.datasets.len());
        }
        assert!(a[0].app.starts_with("astro3d"));
        assert!(a[1].app.starts_with("volren"));
        assert!(a[2].app.starts_with("mse"));
        assert!(a[2].readback);
    }

    #[test]
    fn checkpoint_fleet_lands_on_local_disk_and_accumulates_history() {
        let sys = MsrSystem::testbed(11);
        let report = run_concurrent(&sys, checkpoint_fleet(2, 8, 9)).unwrap();
        assert!(report.sessions.iter().all(|s| s.errors.is_empty()));
        for s in &report.sessions {
            assert_eq!(
                s.placements["chk"],
                StorageKind::LocalDisk,
                "checkpoints pin to local disk"
            );
            // 9 iterations at frequency 3: dumps at 0, 3, 6, 9.
            assert_eq!(s.requests, 4);
        }
        // The recency hooks recorded every dump in the catalog.
        let mut catalog = sys.catalog.lock();
        for d in catalog.all_datasets() {
            let dumps = catalog.dumps_of(d.id);
            assert_eq!(dumps.len(), 4, "one DumpRec per snapshot");
        }
    }

    #[test]
    fn concurrent_fleet_beats_sequential_fleet() {
        // Each dataset pinned to the first kind its future use prefers.
        let mut programs = client_fleet(4, 8, 12);
        for d in programs.iter_mut().flat_map(|p| &mut p.datasets) {
            d.hint = match d.future_use.preference()[0] {
                StorageKind::LocalDisk => LocationHint::LocalDisk,
                StorageKind::RemoteDisk => LocationHint::RemoteDisk,
                StorageKind::RemoteTape => LocationHint::RemoteTape,
            };
        }
        let seq_sys = MsrSystem::testbed(5);
        let sequential = run_sequential(&seq_sys, &programs).unwrap();
        let sys = MsrSystem::testbed(5);
        let report = run_concurrent(&sys, programs).unwrap();
        assert!(report.sessions.iter().all(|s| s.errors.is_empty()));
        assert!(
            report.makespan < sequential,
            "concurrent {} vs sequential {}",
            report.makespan,
            sequential
        );
    }
}
