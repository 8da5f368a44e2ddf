//! Read-ahead acceptance: the prediction-driven prefetcher must win on
//! tape-heavy consumer fleets, cost nothing where it declines, preserve
//! the determinism contract, and degrade to on-demand service under
//! injected faults.

use msr_core::{ChunkPolicy, Codec, DatasetSpec, FutureUse, LocationHint, MsrSystem};
use msr_meta::ElementType;
use msr_sched::{SchedReport, Scheduler, SessionProgram};
use msr_storage::{FaultPlan, StorageKind};

/// An archival producer, pinned to tape, that reads its three earliest
/// dumps back at the end of the run — the consumer-fleet shape from
/// `msr-apps`.
fn archive_program(i: usize, iterations: u32) -> SessionProgram {
    SessionProgram::new(&format!("archive-{i:02}"))
        .user("post")
        .iterations(iterations)
        .dataset(
            DatasetSpec::builder("hist")
                .element(ElementType::F32)
                .cube(16)
                .frequency(6)
                .hint(LocationHint::RemoteTape)
                .future_use(FutureUse::Archive)
                .build(),
        )
        .readbacks(3)
}

fn fleet(n: usize) -> Vec<SessionProgram> {
    (0..n).map(|i| archive_program(i, 24)).collect()
}

fn run(seed: u64, programs: Vec<SessionProgram>, prefetch: bool) -> SchedReport {
    let sys = MsrSystem::testbed(seed);
    let mut sched = Scheduler::new(&sys).with_prefetch(prefetch);
    for p in programs {
        sched.admit(p).unwrap();
    }
    sched.run().unwrap()
}

/// On a tape-heavy consumer fleet the prefetcher stages reads into the
/// idle windows behind other sessions' writes and serves them at memory
/// speed: hits land, the makespan drops, and no request is lost.
#[test]
fn prefetch_overlaps_consumer_reads_into_idle_windows() {
    let off = run(11, fleet(6), false);
    let on = run(11, fleet(6), true);
    for s in &on.sessions {
        assert!(s.errors.is_empty(), "session {}: {:?}", s.session, s.errors);
    }
    assert_eq!(on.total_bytes, off.total_bytes, "same work either way");
    assert!(on.prefetched > 0, "fetches must be admitted");
    assert!(on.prefetch_hits > 0, "staged reads must be served");
    assert!(
        on.makespan < off.makespan,
        "prefetch on {} must beat off {}",
        on.makespan,
        off.makespan
    );
}

/// The determinism contract survives read-ahead: per-session reports and
/// the prefetch counters are bitwise identical whether the dispatcher's
/// batches (and their trailing fetches) run sequentially or on a full
/// worker pool.
#[test]
fn prefetch_run_is_deterministic_across_thread_counts() {
    let runs: Vec<String> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            rayon::pool::with_threads(threads, || {
                let report = run(42, fleet(5), true);
                serde_json::to_string(&report).unwrap()
            })
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "scheduled reports must not depend on worker count with prefetch on"
    );
}

/// A single session has no idle window: its reads sit directly behind its
/// own writes, so admission stages nothing — and because a declined plan
/// runs no fetch and draws no jitter, the whole report is bitwise
/// identical to a prefetch-off run. Zero overhead where read-ahead cannot
/// help.
#[test]
fn single_session_prefetch_is_a_bitwise_noop() {
    let off = run(7, fleet(1), false);
    let on = run(7, fleet(1), true);
    assert_eq!(on.prefetched, 0, "no idle window, nothing staged");
    assert_eq!(on.prefetch_hits, 0);
    assert_eq!(
        serde_json::to_string(&off.sessions).unwrap(),
        serde_json::to_string(&on.sessions).unwrap(),
        "declining must not perturb the sessions"
    );
    assert_eq!(off.makespan, on.makespan, "declining must cost nothing");
}

/// Seeded chaos on the tape resource with prefetch enabled: failed
/// fetches are dropped (no breaker failure, no retry loop) and their
/// reads fall back to on-demand service — every session still completes
/// without errors.
#[test]
fn mid_prefetch_faults_degrade_to_on_demand() {
    let mut sys = MsrSystem::testbed(23);
    let _log = sys
        .inject_faults(
            StorageKind::RemoteTape,
            FaultPlan::none().with_error_prob(0.1),
        )
        .unwrap();
    let mut sched = Scheduler::new(&sys).with_prefetch(true);
    for p in fleet(5) {
        sched.admit(p).unwrap();
    }
    let report = sched.run().unwrap();
    for s in &report.sessions {
        assert!(
            s.errors.is_empty(),
            "chaos must stay invisible to session {}: {:?}",
            s.session,
            s.errors
        );
        assert_eq!(s.reports.len() as u64, s.requests);
    }
    assert_eq!(report.requests(), 5 * 8, "5 writes + 3 reads per session");
}

/// A checkpointing producer on the remote disk that reads its four
/// earliest dumps back, its dumps chunked and compressed or not.
fn checkpoint_program(i: usize, chunked: bool) -> SessionProgram {
    let spec = DatasetSpec::builder("chk")
        .element(ElementType::F32)
        .cube(32)
        .frequency(3)
        .hint(LocationHint::RemoteDisk);
    let spec = match chunked {
        true => spec
            .chunked(ChunkPolicy::cdc(8))
            .compression(Codec::Lz4Like(1)),
        false => spec,
    };
    SessionProgram::new(&format!("ckpt-{i:02}"))
        .iterations(24)
        .dataset(spec.build())
        .readbacks(4)
}

/// A chunked dump is read ahead as it is read on demand, through its
/// manifest. The object at a chunked dump's path is the manifest, so a
/// fetch that read it as the raw array failed on its size and left every
/// read-back to on-demand service. Here the chunked fleet stages every
/// read-back, as its raw twin does, and is served sooner for it.
#[test]
fn chunked_read_backs_are_staged_and_served_from_the_cache() {
    let fleet = |chunked| (0..4).map(|i| checkpoint_program(i, chunked)).collect();
    for chunked in [false, true] {
        let off = run(2000, fleet(chunked), false);
        let on = run(2000, fleet(chunked), true);
        for s in &on.sessions {
            assert!(s.errors.is_empty(), "session {}: {:?}", s.session, s.errors);
        }
        assert_eq!(on.prefetched, 16, "chunked={chunked}");
        assert_eq!(
            on.prefetch_hits + on.prefetch_waste,
            16,
            "chunked={chunked}"
        );
        assert!(
            on.prefetch_hits >= 14,
            "chunked={chunked}: {}",
            on.prefetch_hits
        );
        assert!(
            on.makespan < off.makespan,
            "chunked={chunked}: prefetch on {} must beat off {}",
            on.makespan,
            off.makespan
        );
    }
}
