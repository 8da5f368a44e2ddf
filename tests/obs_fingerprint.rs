//! Frozen fingerprints of the event stream.
//!
//! The other fingerprint files pin what callers are handed back; this one
//! pins what `msr-obs` recorded while they ran. Three runs at seed 2000 — a
//! small scheduled fleet with read-ahead and lifecycle ticks, the §5
//! failover matrix through a direct `Session`, and one chunked dataset
//! written twice and read back — each hashed (FNV-1a-64, as everywhere)
//! over every field of every `sys.obs.events()` entry and over
//! `sys.obs.snapshot().to_json()`, at a one-worker pool and at the default
//! pool. A changed constant means an event appeared, vanished, moved in
//! the order of record or changed a field, or the aggregation folded the
//! same events differently; it must be a deliberate decision.
//!
//! `scratch_alloc` / `scratch_reuse` counts are left out: whether the
//! engine allocates or re-uses a scratch buffer depends on how warm this
//! process's pool is, not on the run (`benchmark/src/layers.rs` drops them
//! for the same reason). Every other event's `seq` is hashed less the
//! scratch events recorded before it, so the order of record stays pinned.

use msr::obs::{ops, Event, EventKind};
use msr::prelude::*;
use std::fmt::Write as _;

const SEED: u64 = 2000;

fn fingerprint(transcript: &str) -> String {
    let fnv = transcript.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{fnv:016x}")
}

fn is_scratch(op: &str) -> bool {
    op == ops::SCRATCH_ALLOC || op == ops::SCRATCH_REUSE
}

/// Every field of every event in the order of record, and the aggregated
/// snapshot as its JSON.
fn transcript(sys: &MsrSystem) -> [String; 2] {
    let mut out = String::new();
    let mut scratch = 0u64;
    let events: Vec<Event> = sys.obs.events();
    for e in &events {
        if is_scratch(&e.op) {
            scratch += 1;
            continue;
        }
        let kind = match e.kind {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
            EventKind::Count => "count",
        };
        writeln!(
            out,
            "{} {:016x} {:016x} {:016x} {} {:?} {:?} {} {:?} {kind}",
            e.seq - scratch,
            e.at.as_secs().to_bits(),
            e.dur.as_secs().to_bits(),
            e.value.to_bits(),
            e.layer,
            e.resource,
            e.op,
            e.bytes,
            e.detail,
        )
        .unwrap();
    }
    let mut snapshot = sys.obs.snapshot();
    assert_eq!(snapshot.evicted, 0, "stream outgrew the event window");
    assert_eq!(snapshot.events, events.len() as u64);
    snapshot.events -= scratch;
    snapshot
        .gauges
        .retain(|g| !is_scratch(g.key.rsplit('/').next().unwrap_or("")));
    [out, snapshot.to_json()]
}

/// Run `scenario` at a one-worker pool and at the default pool and hold
/// both to `pins`, the `[events, snapshot]` fingerprints.
fn pinned(label: &str, pins: [&str; 2], scenario: impl Fn() -> MsrSystem) {
    let narrow = rayon::pool::with_threads(1, || transcript(&scenario()));
    let wide = transcript(&scenario());
    for (how, t) in [("one pool worker", &narrow), ("default pool", &wide)] {
        let got = [fingerprint(&t[0]), fingerprint(&t[1])];
        assert_eq!(got, pins, "{label} [events, snapshot] moved ({how})");
    }
}

fn spec(name: &str, hint: LocationHint, future_use: FutureUse) -> DatasetSpec {
    DatasetSpec::builder(name)
        .element(ElementType::U8)
        .cube(32)
        .hint(hint)
        .future_use(future_use)
        .build()
}

fn payload(spec: &DatasetSpec, iter: u32) -> Vec<u8> {
    (0..spec.snapshot_bytes())
        .map(|i| ((i + u64::from(iter) * 7) % 251) as u8)
        .collect()
}

fn session(sys: &MsrSystem) -> Session<'_> {
    sys.session()
        .app("astro3d")
        .user("u")
        .iterations(12)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap()
}

/// Two drains on one testbed with read-ahead on and a lifecycle engine
/// attached: tape consumers (the staged serve path), the mixed client
/// rotation, and an idle gap long enough for the tick after each drain to
/// demote and prune.
#[test]
fn scheduled_fleet_event_stream_is_frozen() {
    pinned(
        "scheduled fleet",
        ["beab16f272f70953", "c19aaba0e49c936a"],
        || {
            let sys = MsrSystem::testbed(SEED);
            let engine = LifecycleEngine::new(LifecycleConfig {
                demote_after: SimDuration::from_secs(600.0),
                vault_after: SimDuration::from_secs(2400.0),
                retention: RetentionPolicy::keep_all().with_keep_last(2),
                ..LifecycleConfig::default()
            });
            for _ in 0..2 {
                let mut sched = Scheduler::new(&sys)
                    .with_prefetch(true)
                    .with_lifecycle(engine.clone())
                    .lifecycle_every(2);
                let mut programs = msr::apps::multi::consumer_fleet(4, 16, 24);
                programs.extend(client_fleet(3, 16, 12));
                for p in programs {
                    sched.admit(p).unwrap();
                }
                let report = sched.run().unwrap();
                assert!(report.prefetch_hits > 0, "the staged serve path");
                sys.clock.advance(SimDuration::from_secs(900.0));
                engine.tick(&sys);
            }
            sys
        },
    );
}

/// The §5 reliability matrix: tape offline, WAN down, local disk full —
/// each a transparent mid-run re-placement with its `failover` instant.
#[test]
fn section5_failover_matrix_event_stream_is_frozen() {
    pinned(
        "failover matrix",
        ["31252084cb03d061", "1c8342e9be60c9ba"],
        || {
            let sys = MsrSystem::testbed(SEED);
            let mut s = session(&sys);
            let arch = spec("arch", LocationHint::RemoteTape, FutureUse::Archive);
            let viz = spec("viz", LocationHint::LocalDisk, FutureUse::Visualization);
            let chk = spec("chk", LocationHint::RemoteDisk, FutureUse::Visualization);
            let ha = s.open(arch.clone()).unwrap();
            let hv = s.open(viz.clone()).unwrap();
            let hc = s.open(chk.clone()).unwrap();
            let write = |s: &mut Session, sp: &DatasetSpec, h, iter| {
                s.write_iteration(h, iter, &payload(sp, iter)).unwrap();
            };
            for (sp, h) in [(&arch, ha), (&viz, hv), (&chk, hc)] {
                write(&mut s, sp, h, 0);
            }
            sys.set_resource_online(StorageKind::RemoteTape, false);
            write(&mut s, &arch, ha, 6);
            sys.set_wan_up(false);
            write(&mut s, &chk, hc, 6);
            sys.set_wan_up(true);
            let local = sys.resource(StorageKind::LocalDisk).unwrap();
            let used = local.lock().used_bytes();
            local.lock().set_capacity(used + 16);
            write(&mut s, &viz, hv, 6);
            for (sp, h) in [(&arch, ha), (&viz, hv), (&chk, hc)] {
                write(&mut s, sp, h, 12);
            }
            s.finalize().unwrap();
            assert_eq!(sys.obs.snapshot().failovers, 4);
            sys
        },
    );
}

/// One content-addressed dataset across the WAN: the same iteration
/// written twice (the second dump deduplicates), a later one, and both
/// read back through their manifests.
#[test]
fn chunked_dataset_event_stream_is_frozen() {
    pinned(
        "chunked dataset",
        ["1f94aaca8906c5a2", "411bab9e110275c7"],
        || {
            let sys = MsrSystem::testbed(SEED);
            let mut s = session(&sys);
            let sp = DatasetSpec::builder("ckpt")
                .element(ElementType::U8)
                .cube(32)
                .hint(LocationHint::RemoteDisk)
                .chunked(ChunkPolicy::cdc(8))
                .compression(Codec::Lz4Like(1))
                .build();
            let h = s.open(sp.clone()).unwrap();
            for iter in [0, 0, 6] {
                s.write_iteration(h, iter, &payload(&sp, iter)).unwrap();
            }
            for iter in [0, 6] {
                let (data, _) = s.read_iteration(h, iter).unwrap();
                assert_eq!(data, payload(&sp, iter));
            }
            s.finalize().unwrap();
            sys
        },
    );
}
