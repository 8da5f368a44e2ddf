//! Many clients, one testbed: admit a mixed fleet of Astro3D producers,
//! Volren feeds and post-processing readers into the prediction-driven
//! scheduler and compare against running the identical clients
//! back-to-back.
//!
//! ```text
//! cargo run --release --example scheduled_clients [-- <clients>]
//! ```
//!
//! AUTO-hint datasets are placed by eq. (2) predicted time adjusted by
//! live queue depth, so admissions spread the fleet across the three
//! storage resources; the dispatcher then overlaps service across
//! resources while keeping per-session results deterministic.

use msr::prelude::*;

fn main() -> CoreResult<()> {
    let clients = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6usize);
    let fleet = client_fleet(clients, 16, 24);

    // Baseline: the same clients, one at a time, through the plain
    // session API on a fresh system.
    let baseline_sys = MsrSystem::testbed(2000);
    let sequential = run_sequential(&baseline_sys, &fleet)?;

    // Scheduled: sweep PTool so AUTO placements are scored from measured
    // rows rather than the resources' models, then admit everyone at once.
    let mut sys = MsrSystem::testbed(2000);
    sys.run_ptool(&PTool::default())?;
    let report = run_concurrent(&sys, fleet)?;

    println!(
        "{:>3} {:<12} {:>9} {:>9} {:>10} {:>10} {:>4}  placements",
        "id", "app", "requests", "bytes", "io(s)", "wait(s)", "rq"
    );
    for s in &report.sessions {
        let placements: Vec<String> = s
            .placements
            .iter()
            .map(|(d, k)| format!("{d}->{k}"))
            .collect();
        println!(
            "{:>3} {:<12} {:>9} {:>9} {:>10.2} {:>10.2} {:>4}  {}",
            s.session,
            s.app,
            s.requests,
            s.bytes,
            s.io_time.as_secs(),
            s.wait_time.as_secs(),
            s.requeues,
            placements.join(", ")
        );
    }
    println!(
        "\n{} sessions, {} requests, {} batches (largest {})",
        report.sessions.len(),
        report.requests(),
        report.batches,
        report.max_batch
    );
    println!(
        "scheduled makespan {:>9.2}s   sequential baseline {:>9.2}s   ({:.2}x)",
        report.makespan.as_secs(),
        sequential.as_secs(),
        sequential.as_secs() / report.makespan.as_secs().max(1e-9)
    );
    println!(
        "throughput {:.4} MB/s of virtual time",
        report.throughput_mb_s
    );

    // The scheduler's queues are visible in the observability snapshot.
    let snap = sys.obs.snapshot();
    for g in snap.gauges.iter().filter(|g| g.key.starts_with("sched/")) {
        println!(
            "gauge {:<32} last {:>6.0}  max {:>6.0}",
            g.key, g.last, g.max
        );
    }
    Ok(())
}
