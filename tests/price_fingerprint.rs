//! Frozen eq. (2) prices.
//!
//! FNV-1a-64 over the `f64` bit patterns of every estimate the system
//! derives from its performance model, at seed 2000: the load board's
//! predicted backlog after admission, the lifecycle engine's migration
//! prices and the SLO gate's predicted wait, each with and without a PTool
//! database; and scored AUTO placement's choices (hashed as kind indices)
//! with a database installed and one resource loaded. A changed constant
//! means a price moved; it must be a deliberate decision.

use msr::apps::multi::consumer_fleet;
use msr::core::placement;
use msr::prelude::*;
use msr::runtime::Distribution;

const SEED: u64 = 2000;

const KINDS: [StorageKind; 3] = [
    StorageKind::LocalDisk,
    StorageKind::RemoteDisk,
    StorageKind::RemoteTape,
];

fn fnv(words: impl IntoIterator<Item = u64>) -> String {
    let h = words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!("{h:016x}")
}

/// The seed-2000 testbed, with a small PTool database installed when
/// `swept`.
fn testbed(swept: bool) -> MsrSystem {
    let mut sys = MsrSystem::testbed(SEED);
    if swept {
        sys.run_ptool(&PTool {
            sizes: vec![1 << 14, 1 << 18, 1 << 21],
            reps: 2,
            scratch_prefix: "ptool/price".into(),
        })
        .unwrap();
    }
    sys
}

/// The mixed client fleet plus the tape-heavy consumers, admitted and not
/// drained: every request is priced onto the load board.
fn admit_mixed(sys: &MsrSystem) -> Scheduler<'_> {
    let mut sched = Scheduler::new(sys);
    for p in client_fleet(9, 16, 12)
        .into_iter()
        .chain(consumer_fleet(4, 16, 24))
    {
        sched.admit(p).unwrap();
    }
    sched
}

#[test]
fn admitted_backlog_is_frozen() {
    for (swept, pin) in [(false, "a8cd702cb252b8a6"), (true, "46802871c12bd2c7")] {
        let sys = testbed(swept);
        let _sched = admit_mixed(&sys);
        let backlog = KINDS.map(|k| sys.load.predicted_backlog(k));
        assert!(backlog.iter().all(|&b| b > 0.0), "{backlog:?}");
        let got = fnv(backlog.map(f64::to_bits));
        assert_eq!(got, pin, "backlog moved (swept={swept}): {backlog:?}");
    }
}

#[test]
fn lifecycle_move_prices_are_frozen() {
    for (swept, pin) in [(false, "ff99b946aef59021"), (true, "d39c4c2815d3169f")] {
        let sys = testbed(swept);
        run_concurrent(&sys, checkpoint_fleet(3, 16, 12)).unwrap();
        sys.clock.advance(SimDuration::from_secs(4000.0));
        let engine = LifecycleEngine::default();
        let mut prices = Vec::new();
        for _ in 0..8 {
            let tick = engine.tick(&sys);
            if tick.moves() == 0 {
                break;
            }
            let moves = tick.demotions.iter().chain(&tick.promotions);
            prices.extend(moves.map(|m| m.predicted_secs));
        }
        assert_eq!(prices.len(), 3, "one demotion per dataset");
        let got = fnv(prices.iter().map(|p| p.to_bits()));
        assert_eq!(got, pin, "move prices moved (swept={swept}): {prices:?}");
    }
}

#[test]
fn slo_shed_wait_is_frozen() {
    for (swept, pin) in [(false, "da2eb6308b653ca7"), (true, "ef64e91f1a26b443")] {
        let sys = testbed(swept);
        let strict = Tenant::new("strict").with_slo(SimDuration::from_secs(1e-9));
        sys.tenants.register(strict);
        let mut sched = admit_mixed(&sys);
        let late = consumer_fleet(1, 16, 24).remove(0).tenant("strict");
        let Err(CoreError::Rejected { predicted_wait, .. }) = sched.admit(late) else {
            panic!("the strict tenant must be shed (swept={swept})");
        };
        let got = fnv([predicted_wait.as_secs().to_bits()]);
        assert_eq!(got, pin, "wait moved (swept={swept}): {predicted_wait}");
    }
}

#[test]
fn scored_placement_is_frozen() {
    let sys = testbed(true);
    let mut sched = Scheduler::new(&sys);
    let mut choices = Vec::new();
    // Local disk takes one more pinned checkpoint session per round.
    for producer in checkpoint_fleet(4, 32, 12) {
        sched.admit(producer).unwrap();
        for future_use in [
            FutureUse::Visualization,
            FutureUse::Analysis,
            FutureUse::Checkpoint,
            FutureUse::Archive,
        ] {
            for cube in [8, 32, 64] {
                let spec = DatasetSpec::builder("probe")
                    .element(ElementType::F32)
                    .cube(cube)
                    .future_use(future_use)
                    .build();
                let grid = ProcGrid::new(1, 1, 1);
                let dist =
                    Distribution::new(spec.dims, spec.etype.size(), spec.pattern, grid).unwrap();
                let kind =
                    placement::resolve(&sys, &spec, &dist, spec.run_bytes(12), Volume::Fresh)
                        .unwrap()
                        .expect("AUTO places");
                choices.push(KINDS.iter().position(|&k| k == kind).unwrap() as u64);
            }
        }
    }
    assert!(choices.contains(&0) && choices.iter().any(|&c| c != 0));
    assert_eq!(fnv(choices), "e0fd65b5eca38fa5", "placement moved");
}
