//! The §5 reliability example, extended with the resilience subsystem:
//! "suppose that the remote tape system is down for maintenance … the
//! user does not have to stop her experiments."
//!
//! Phase 1 — *transient* faults: an injected SRB hiccup fails the first
//! few native calls. The engine's retry policy absorbs them with backoff
//! charged to the virtual timeline; no failover happens and the dataset
//! stays on tape.
//!
//! Phase 2 — *hard* outage: HPSS enters a maintenance window mid-run.
//! Retrying cannot help an offline resource, so checkpoints transparently
//! fail over to the remote disks and the catalog records the new
//! location.
//!
//! ```text
//! cargo run --release --example failover
//! ```

use msr::obs::ops;
use msr::prelude::*;

fn main() -> CoreResult<()> {
    let mut sys = MsrSystem::testbed(23);
    // An SRB hiccup: the first two native calls on tape fail transiently,
    // then the fault clears — exactly the shape a retry budget absorbs.
    let fault_log = sys
        .inject_faults(
            StorageKind::RemoteTape,
            FaultPlan::none().with_error_burst(2),
        )
        .expect("tape is registered");
    let mut session = sys
        .session()
        .app("astro3d")
        .user("demo")
        .iterations(48)
        .grid(ProcGrid::new(2, 2, 2))
        .build()?;

    let spec = DatasetSpec::builder("restart_temp")
        .element(ElementType::F32)
        .cube(32)
        .hint(LocationHint::RemoteTape)
        .amode(AccessMode::OverWrite)
        .build();
    let payload: Vec<u8> = (0..spec.snapshot_bytes())
        .map(|i| (i % 256) as u8)
        .collect();
    let h = session.open(spec)?;

    for iter in 0..=48 {
        if iter == 20 {
            println!(">>> iteration 20: HPSS enters its maintenance window");
            sys.set_resource_online(StorageKind::RemoteTape, false);
        }
        if iter == 40 {
            println!(">>> iteration 40: HPSS is back");
            sys.set_resource_online(StorageKind::RemoteTape, true);
        }
        if let Some(report) = session.write_iteration(h, iter, &payload)? {
            let resilience = if report.retries > 0 {
                format!(" ({} retries, {} backoff)", report.retries, report.backoff)
            } else {
                String::new()
            };
            println!(
                "iter {iter:>2}: checkpoint written in {:>9}{resilience}",
                report.elapsed
            );
        }
    }

    let report = session.finalize()?;
    println!(
        "\ninjected transient faults: {} — all absorbed below the session",
        fault_log.errors_injected()
    );
    println!(
        "tape breaker state: {:?}",
        sys.health.state(StorageKind::RemoteTape)
    );

    println!("\nplacement history (transient faults do not appear here):");
    for e in &report.events {
        println!(
            "  iter {:>2}: {} -> {}  ({})",
            e.at_iteration,
            e.from.map(|k| k.to_string()).unwrap_or("-".into()),
            e.to.map(|k| k.to_string()).unwrap_or("-".into()),
            e.reason
        );
    }

    println!("\nvirtual-time trace of the failover path:");
    for ev in sys.obs.events().iter().filter(|e| e.op == ops::FAILOVER) {
        println!("  [{}] {}: {}", ev.at, ev.resource, ev.detail);
    }

    println!("\nfinal location: {:?}", report.datasets[0].location);
    println!(
        "run never stopped: {} checkpoints written",
        report.datasets[0].dumps
    );
    Ok(())
}
