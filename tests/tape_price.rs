//! The one eq. (2) price against the time a dump is served, per resource.
//!
//! A fleet in `fleet_10k`'s client rotation is drained with AUTO placement
//! on the model-priced testbed, and a PTool sweep then measures every
//! resource. Each served session whose datasets all sit on one resource
//! is priced again by a twin session: the same specs, pinned where the
//! drain placed them, opened on the drained system and never written. Per
//! resource, the twins' per-dump price is held against the served write
//! reports. A price that charges no tape mount under-prices a tape dump by
//! half.

use msr::apps::multi::client_fleet;
use msr::prelude::*;
use std::collections::BTreeMap;

const SEED: u64 = 2000;
/// Sessions drained: enough that AUTO placement sends some dumps to tape
/// whether or not its price charges the mount.
const SESSIONS: usize = 2000;

/// One resource's twins: predicted seconds and dumps, served write
/// seconds and writes.
#[derive(Debug, Default)]
struct Split {
    predicted: f64,
    dumps: u32,
    served: f64,
    writes: u32,
}

impl Split {
    /// Signed error of the per-dump price, % of the served per-dump time.
    fn err_pct(&self) -> f64 {
        let priced = self.predicted / f64::from(self.dumps);
        let served = self.served / f64::from(self.writes);
        100.0 * (priced - served) / served
    }
}

fn pin(kind: StorageKind) -> LocationHint {
    match kind {
        StorageKind::LocalDisk => LocationHint::LocalDisk,
        StorageKind::RemoteDisk => LocationHint::RemoteDisk,
        StorageKind::RemoteTape => LocationHint::RemoteTape,
    }
}

#[test]
fn per_dump_prices_track_served_writes_on_each_resource() {
    let mut sys = MsrSystem::testbed(SEED);
    let programs = client_fleet(SESSIONS, 8, 12);
    let mut sched = Scheduler::new(&sys);
    for p in &programs {
        sched.admit(p.clone()).unwrap();
    }
    let report = sched.run().unwrap();
    sys.run_ptool(&PTool::default()).unwrap();

    let mut splits: BTreeMap<StorageKind, Split> = BTreeMap::new();
    for (s, p) in report.sessions.iter().zip(&programs) {
        let mut kinds = s.placements.values();
        let Some(&kind) = kinds.next() else {
            continue;
        };
        if kinds.any(|&k| k != kind) || s.cancelled.is_some() || !s.errors.is_empty() {
            continue;
        }
        let mut twin = sys
            .session()
            .app(&p.app)
            .user(&p.user)
            .iterations(p.iterations)
            .grid(p.grid)
            .build()
            .unwrap();
        for spec in &p.datasets {
            twin.open(spec.clone().with_hint(pin(kind))).unwrap();
        }
        let prediction = twin.predict().unwrap();
        let split = splits.entry(kind).or_default();
        split.predicted += prediction.total.as_secs();
        split.dumps += prediction.rows.iter().map(|r| r.dumps).sum::<u32>();
        for r in s.reports.iter().filter(|r| r.native_writes > 0) {
            split.served += r.elapsed.as_secs();
            split.writes += 1;
        }
    }

    let tape = &splits[&StorageKind::RemoteTape];
    assert!(tape.dumps >= 20, "too few tape dumps to judge: {splits:?}");
    assert_eq!(tape.dumps, tape.writes, "{splits:?}");
    let err = tape.err_pct();
    assert!(
        err.abs() <= 25.0,
        "tape per-dump price {err:+.1} %: {splits:?}"
    );
    let err = splits[&StorageKind::LocalDisk].err_pct();
    assert!(
        err.abs() <= 5.0,
        "local per-dump price {err:+.1} %: {splits:?}"
    );
}
