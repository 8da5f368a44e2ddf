//! Tiered data lifecycle end to end: checkpoint fleets write to local
//! disk, the lifecycle engine thins each history to its retention window
//! and moves each cold epoch down the tier ladder (local disk → remote
//! disk → tape → vault) in one copy, straight to the lowest tier that is
//! up: with every device healthy the remote disk never holds a byte. A
//! priced recall brings vaulted data back when someone finally asks for
//! it. The tape vaults and recalls whole volumes
//! (a run's directory), so the recall is charged once per volume, however
//! many dumps are on it.
//!
//! ```text
//! cargo run --release --example lifecycle_run
//! ```

use msr::prelude::*;
use msr::storage::volume_of;
use std::collections::BTreeSet;

fn tiers(sys: &MsrSystem) -> String {
    sys.usage()
        .iter()
        .map(|(k, b)| format!("{k}: {b} B"))
        .collect::<Vec<_>>()
        .join("   ")
}

fn main() -> CoreResult<()> {
    let sys = MsrSystem::testbed(7);

    // Epoch 1: three checkpoint producers dump `chk` every 3 iterations,
    // pinned to local disk for fast restart.
    let first = run_concurrent(&sys, checkpoint_fleet(3, 16, 12))?;
    println!("after epoch 1     {}", tiers(&sys));

    // The fleet goes quiet long enough for epoch 1 to turn cold.
    sys.clock.advance(SimDuration::from_secs(900.0));

    // Epoch 2 runs with the engine attached: between dispatch rounds it
    // prunes epoch-1 histories to their newest 2 dumps and demotes the
    // cold datasets, while its own admitted runs are busy and untouched.
    let engine = LifecycleEngine::new(LifecycleConfig {
        demote_after: SimDuration::from_secs(600.0),
        retention: RetentionPolicy::keep_all().with_keep_last(2),
        ..LifecycleConfig::default()
    });
    let mut sched = Scheduler::new(&sys)
        .with_lifecycle(engine.clone())
        .lifecycle_every(2);
    for p in checkpoint_fleet(3, 16, 12) {
        sched.admit(p)?;
    }
    let report = sched.run()?;
    let t = report.lifecycle;
    println!(
        "epoch 2 drain     {} ticks: {} demotions, {} files pruned ({} B)",
        t.ticks, t.demotions, t.pruned_files, t.pruned_bytes
    );
    println!("after epoch 2     {}", tiers(&sys));

    // Everyone leaves for the weekend. Explicit ticks move the rest of the
    // cold data straight to tape and, once idle past `vault_after`, into
    // the vault.
    sys.clock.advance(SimDuration::from_secs(4000.0));
    let mut vaulted = 0;
    loop {
        let tick = engine.tick(&sys);
        vaulted += tick.vaulted;
        if tick.moves() == 0 && tick.vaulted == 0 {
            break;
        }
    }
    println!(
        "after the weekend {}   ({vaulted} dumps vaulted)",
        tiers(&sys)
    );

    // Vaulted bytes are on tape but unreadable until a priced recall.
    let run = RunId(first.sessions[0].run);
    let grid = ProcGrid::new(1, 1, 1);
    let denied = sys.read_dataset(run, "chk", 12, grid, IoStrategy::Collective);
    println!("read while vaulted: {}", denied.unwrap_err());
    let volumes: BTreeSet<String> = {
        let mut catalog = sys.catalog.lock();
        let d = catalog.find_dataset(run, "chk")?.clone();
        let dumps = catalog.dumps_of(d.id);
        dumps
            .iter()
            .map(|x| volume_of(&d.dump_file(x.iter)).to_owned())
            .collect()
    };
    let before = sys.clock.now();
    let recalled = engine
        .recall_dataset(&sys, run, "chk")
        .expect("tape is healthy");
    println!(
        "recalled {recalled} dumps on {} volume(s) in {:.0} virtual seconds (one {:.0} s recall per volume)",
        volumes.len(),
        sys.clock.now().since(before).as_secs(),
        msr::storage::profiles::DEFAULT_RECALL_SECS
    );
    let (bytes, _) = sys.read_dataset(run, "chk", 12, grid, IoStrategy::Collective)?;
    println!(
        "read after recall: {} bytes of checkpoint back",
        bytes.len()
    );
    Ok(())
}
