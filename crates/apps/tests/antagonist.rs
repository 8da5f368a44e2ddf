//! Antagonist-fleet acceptance: the multi-tenant overload machinery must
//! actually protect the quiet tenant.
//!
//! Three runs of the *same* interleaved workload:
//!
//! 1. **solo** — the quiet tenant alone: its intrinsic tail latency.
//! 2. **unprotected** — quiet + noisy + batch with tenant tags stripped:
//!    one shared FIFO lane, no quotas, no weights. The noisy tenant's
//!    backlog inflates the quiet tenant's p99 queue wait far past solo.
//! 3. **protected** — the same fleet tagged, with the antagonist tenant
//!    profile registered (quiet 8× weight, noisy request-capped, batch
//!    defer-on-SLO). The quiet tenant's p99 must stay within 1.25× of
//!    solo.
//!
//! Run at both worker-pool shapes: the protected drain must be bitwise
//! identical at `MSR_THREADS`=1 and a wide pool.

use msr_apps::multi::{
    batch_fleet, noisy_fleet, quiet_fleet, register_antagonist_tenants, run_overloaded,
    strip_tenants,
};
use msr_core::MsrSystem;
use msr_sched::{SchedReport, SessionProgram, TenantReport};
use msr_sim::SimDuration;

const NOISY_CAP: usize = 100;

fn batch_slo() -> SimDuration {
    SimDuration::from_secs(5.0)
}

/// The contended fleet, in admission order: quiet, then noisy (one of
/// them carrying an unmeetable deadline), then batch.
fn fleet() -> Vec<SessionProgram> {
    let mut programs = quiet_fleet(4, 16, 24);
    let mut noisy = noisy_fleet(6, 32, 23);
    // One antagonist session demands the impossible: cancelled mid-drain
    // by deadline enforcement rather than draining at everyone's expense.
    // It must be admitted to be cancelled, so it goes first — the request
    // cap sheds later antagonists instead.
    noisy[0] = noisy[0].clone().deadline(SimDuration::from_secs(1e-6));
    programs.extend(noisy);
    programs.extend(batch_fleet(2, 16, 24));
    programs
}

fn quiet_row(report: &SchedReport) -> &TenantReport {
    report
        .tenants
        .iter()
        .find(|t| t.tenant == "quiet")
        .expect("quiet tenant row")
}

/// Worst per-session p99 wait of the quiet apps, regardless of how the
/// run was tagged (the unprotected run files everything under the
/// default tenant).
fn quiet_p99(report: &SchedReport) -> f64 {
    report
        .sessions
        .iter()
        .filter(|s| s.app.starts_with("quiet"))
        .map(|s| s.wait_p99.as_secs())
        .fold(0.0, f64::max)
}

#[test]
fn quotas_and_wfq_hold_the_quiet_tenants_tail() {
    // 1. Solo: the quiet tenant's intrinsic p99.
    let sys = MsrSystem::testbed(900);
    let solo = run_overloaded(&sys, quiet_fleet(4, 16, 24)).unwrap();
    let solo_p99 = quiet_p99(&solo);
    assert!(solo_p99 > 0.0, "solo fleet must contend with itself");

    // 2. Unprotected: same fleet, tags stripped, one FIFO lane.
    let sys = MsrSystem::testbed(900);
    let fifo = run_overloaded(&sys, strip_tenants(fleet())).unwrap();
    let fifo_p99 = quiet_p99(&fifo);
    assert!(
        fifo_p99 > 1.5 * solo_p99,
        "unprotected contention must visibly inflate the quiet tail: \
         {fifo_p99:.3}s vs solo {solo_p99:.3}s"
    );

    // 3. Protected: quotas + WFQ + admission control.
    let sys = MsrSystem::testbed(900);
    register_antagonist_tenants(&sys, NOISY_CAP, batch_slo());
    let protected = run_overloaded(&sys, fleet()).unwrap();
    let prot_p99 = quiet_p99(&protected);
    assert!(
        prot_p99 <= 1.25 * solo_p99,
        "protected quiet p99 must stay within 1.25x of solo: \
         {prot_p99:.3}s vs solo {solo_p99:.3}s (unprotected was {fifo_p99:.3}s)"
    );
    assert_eq!(
        quiet_p99(&protected),
        quiet_row(&protected).wait_p99.as_secs()
    );

    // The machinery visibly acted on the antagonists.
    let row = |name: &str| {
        protected
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("{name} row"))
    };
    assert!(row("noisy").shed > 0, "capped antagonist must shed work");
    assert_eq!(row("noisy").cancelled, 1, "doomed deadline must cancel");
    assert!(row("batch").deferred > 0, "batch must park behind the SLO");
    assert_eq!(
        row("batch").sessions,
        2,
        "deferred batch programs must still run once the backlog clears"
    );
    // Every quiet session completed untouched by the load shedding.
    assert_eq!(quiet_row(&protected).sessions, 4);
    for s in protected.sessions.iter().filter(|s| s.tenant == "quiet") {
        assert!(s.errors.is_empty());
        assert!(s.cancelled.is_none());
    }
}

/// The protected antagonist drain is bitwise identical at both pool
/// shapes (a single-threaded and a wide worker pool).
#[test]
fn protected_drain_is_identical_at_both_pool_shapes() {
    let run = || {
        let sys = MsrSystem::testbed(901);
        register_antagonist_tenants(&sys, NOISY_CAP, batch_slo());
        run_overloaded(&sys, fleet()).unwrap()
    };
    let narrow = rayon::pool::with_threads(1, run);
    let wide = rayon::pool::with_threads(4, run);
    assert_eq!(
        narrow, wide,
        "protected drain must not depend on the worker-pool shape"
    );
}
