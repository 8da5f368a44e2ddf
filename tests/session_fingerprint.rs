//! Frozen fingerprints of the direct `Session` path.
//!
//! `tests/sched_fingerprint.rs` pins what a scheduled drain costs; this
//! file pins the paper's Fig. 5 flow driven call by call. Four runs at
//! seed 2000 — the three-kind healthy run, the §5 failover matrix, a
//! degraded-read run through breaker-open, and a chunked dataset written
//! twice and read back — each hashed over every `IoReport` a call
//! returned, the final `RunReport`, the catalog's dataset and dump rows
//! and the bit pattern of the final `sys.clock.now()`. Same FNV-1a-64
//! recipe as the scheduler file, same two pool shapes. A changed constant
//! means a clock advance, a catalog row or a per-dataset total moved
//! somewhere between `write_iteration` and the device; it must be a
//! deliberate decision.

use msr::prelude::*;
use msr::runtime::IoReport;
use std::fmt::Write as _;

const SEED: u64 = 2000;

fn fingerprint(transcript: &str) -> String {
    let fnv = transcript.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{fnv:016x}")
}

/// Everything one run let a caller observe, in call order.
#[derive(Default)]
struct Transcript(String);

impl Transcript {
    fn io(&mut self, what: &str, report: Option<&IoReport>) {
        let json = report.map(|r| serde_json::to_string(r).unwrap());
        writeln!(self.0, "{what} {}", json.as_deref().unwrap_or("none")).unwrap();
    }

    /// Close the run: its report, what the catalog holds for it, and where
    /// the global clock ended up.
    fn finish(mut self, sys: &MsrSystem, report: &RunReport) -> String {
        writeln!(self.0, "run {}", serde_json::to_string(report).unwrap()).unwrap();
        let mut catalog = sys.catalog.lock();
        for d in catalog.all_datasets() {
            writeln!(self.0, "dataset {}", serde_json::to_string(&d).unwrap()).unwrap();
            for x in catalog.dumps_of(d.id) {
                writeln!(self.0, "dump {}", serde_json::to_string(&x).unwrap()).unwrap();
            }
        }
        writeln!(self.0, "clock {:016x}", sys.clock.now().as_secs().to_bits()).unwrap();
        self.0
    }
}

/// Run `scenario` at a one-worker pool and at the default pool and hold
/// both transcripts to `pin`.
fn pinned(label: &str, pin: &str, scenario: impl Fn() -> String) {
    let narrow = rayon::pool::with_threads(1, &scenario);
    let wide = scenario();
    for (how, transcript) in [("one pool worker", &narrow), ("default pool", &wide)] {
        assert_eq!(fingerprint(transcript), pin, "{label} moved ({how})");
    }
}

fn session(sys: &MsrSystem, grid: ProcGrid) -> Session<'_> {
    sys.session()
        .app("astro3d")
        .user("u")
        .iterations(12)
        .grid(grid)
        .build()
        .unwrap()
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

/// One dataset per resource kind (the local one rewritten in place), every
/// scheduled dump, a read-back of each through the session and one through
/// the session-less consumer path.
#[test]
fn three_kind_healthy_run_fingerprint_is_frozen() {
    pinned("healthy run", "d98e5a848d8488dc", || {
        let sys = MsrSystem::testbed(SEED);
        let grid = ProcGrid::new(2, 2, 2);
        let mut s = session(&sys, grid);
        let mut t = Transcript::default();
        let specs = [
            spec("a", LocationHint::LocalDisk, FutureUse::Visualization)
                .with_amode(AccessMode::OverWrite),
            spec("b", LocationHint::RemoteDisk, FutureUse::Visualization),
            spec("c", LocationHint::RemoteTape, FutureUse::Archive),
        ];
        let handles: Vec<_> = specs.iter().map(|sp| s.open(sp.clone()).unwrap()).collect();
        for iter in 0..=12 {
            for (sp, &h) in specs.iter().zip(&handles) {
                let rep = s.write_iteration(h, iter, &payload(sp, iter)).unwrap();
                t.io(&format!("write {} {iter}", sp.name), rep.as_ref());
            }
        }
        for (sp, &h) in specs.iter().zip(&handles) {
            let (data, rep) = s.read_iteration(h, 6).unwrap();
            let last = match sp.amode {
                AccessMode::OverWrite => 12,
                AccessMode::Create => 6,
            };
            assert_eq!(data, payload(sp, last));
            t.io(&format!("read {} 6", sp.name), Some(&rep));
        }
        let run = s.run_id();
        let report = s.finalize().unwrap();
        for sp in &specs {
            let (_, rep) = sys
                .read_dataset(run, &sp.name, 12, grid, IoStrategy::Collective)
                .unwrap();
            t.io(&format!("archived {} 12", sp.name), Some(&rep));
        }
        t.finish(&sys, &report)
    });
}

/// The §5 reliability matrix: tape offline, WAN down, local disk full —
/// each a transparent mid-run re-placement.
#[test]
fn section5_failover_matrix_fingerprint_is_frozen() {
    pinned("failover matrix", "777aacfe5099bc1a", || {
        let sys = MsrSystem::testbed(SEED);
        let mut s = session(&sys, ProcGrid::new(1, 1, 1));
        let mut t = Transcript::default();
        let arch = spec("arch", LocationHint::RemoteTape, FutureUse::Archive);
        let viz = spec("viz", LocationHint::LocalDisk, FutureUse::Visualization);
        let chk = spec("chk", LocationHint::RemoteDisk, FutureUse::Visualization);
        let ha = s.open(arch.clone()).unwrap();
        let hv = s.open(viz.clone()).unwrap();
        let hc = s.open(chk.clone()).unwrap();
        let mut write = |s: &mut Session, sp: &DatasetSpec, h, iter| {
            let rep = s.write_iteration(h, iter, &payload(sp, iter)).unwrap();
            t.io(&format!("write {} {iter}", sp.name), rep.as_ref());
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
        let report = s.finalize().unwrap();
        // The three matrix cells, then `chk` again: it came home to the
        // local disk that has since filled up.
        let moves: Vec<_> = report.events.iter().filter(|e| e.from.is_some()).collect();
        assert_eq!(moves.len(), 4, "{moves:?}");
        t.finish(&sys, &report)
    });
}

/// Reads while the placed resource is dark: three failures served stale
/// from the staging copy open the breaker, the fourth never probes the
/// resource, and the write that follows re-places on the open circuit.
#[test]
fn degraded_read_through_breaker_open_fingerprint_is_frozen() {
    pinned("degraded reads", "2be5f97ede0fff58", || {
        let sys = MsrSystem::testbed(SEED);
        let mut s = session(&sys, ProcGrid::new(1, 1, 1));
        let mut t = Transcript::default();
        let sp = spec("x", LocationHint::LocalDisk, FutureUse::Visualization);
        let h = s.open(sp.clone()).unwrap();
        let rep = s.write_iteration(h, 0, &payload(&sp, 0)).unwrap();
        t.io("write 0", rep.as_ref());
        sys.set_resource_online(StorageKind::LocalDisk, false);
        for n in 0..4 {
            let (data, rep) = s.read_iteration(h, 0).unwrap();
            assert_eq!(data, payload(&sp, 0));
            assert!(rep.stale);
            t.io(&format!("degraded {n}"), Some(&rep));
        }
        assert_eq!(sys.health.state(StorageKind::LocalDisk), BreakerState::Open);
        let rep = s.write_iteration(h, 6, &payload(&sp, 6)).unwrap();
        t.io("write 6", rep.as_ref());
        let (_, rep) = s.read_iteration(h, 6).unwrap();
        t.io("read 6", Some(&rep));
        let report = s.finalize().unwrap();
        assert_eq!(report.events.last().unwrap().reason, "circuit open");
        t.finish(&sys, &report)
    });
}

/// One content-addressed dataset across the WAN: the same iteration
/// written twice (the second dump deduplicates), a later one, and both
/// read back through their manifests.
#[test]
fn chunked_dataset_fingerprint_is_frozen() {
    pinned("chunked dataset", "12ced287130feaa2", || {
        let sys = MsrSystem::testbed(SEED);
        let mut s = session(&sys, ProcGrid::new(1, 1, 1));
        let mut t = Transcript::default();
        let sp = DatasetSpec::builder("ckpt")
            .element(ElementType::U8)
            .cube(32)
            .hint(LocationHint::RemoteDisk)
            .chunked(ChunkPolicy::cdc(8))
            .compression(Codec::Lz4Like(1))
            .build();
        let h = s.open(sp.clone()).unwrap();
        for iter in [0, 0, 6] {
            let rep = s.write_iteration(h, iter, &payload(&sp, iter)).unwrap();
            t.io(&format!("write {iter}"), rep.as_ref());
        }
        for iter in [0, 6] {
            let (data, rep) = s.read_iteration(h, iter).unwrap();
            assert_eq!(data, payload(&sp, iter));
            t.io(&format!("read {iter}"), Some(&rep));
        }
        let report = s.finalize().unwrap();
        assert_eq!(report.datasets[0].dumps, 3);
        t.finish(&sys, &report)
    });
}
