//! Frozen fingerprints of the native storage interface.
//!
//! The scheduler fingerprints (`tests/sched_fingerprint.rs`) pin what a
//! whole drain costs; they reach the storage layer only through the calls
//! the engine happens to make. This file drives the three testbed
//! resources directly — a fixed battery of edge cases, then a seeded
//! random walk over every native call, outage toggles included — and
//! hashes everything a caller can observe: the bit pattern of every
//! `Cost.time`, every error variant, the bytes read back, final
//! `ResourceStats`, `FaultLog` records and the obs event stream. Same
//! FNV-1a-64 recipe as the scheduler file. A changed constant means a
//! jitter draw, a check order or a span moved somewhere between the caller
//! and the device; it must be a deliberate decision.
//!
//! Everything is built through `MsrSystem` (`testbed`, `inject_faults`,
//! `resource`, `set_resource_online`, `set_wan_up`), so the file does not
//! depend on how `msr-storage` composes its types.
//!
//! The script never reconnects after a `disconnect` while the resource is
//! offline or its WAN route is down (see `Walk::connect_allowed`); the
//! constants below pin the script with that gap in it.
//!
//! The same script run with every write issued as `write_shared` must
//! produce the same transcripts, line for line: handing the buffer over
//! changes who owns the allocation and nothing a caller can observe. So
//! must the script with its bytes swapped for recipes: each write draws its
//! bytes as before and writes a recipe keyed by them instead, once as the
//! recipe itself and once as the recipe's bytes through `write`.

use msr::net::OutageSchedule;
use msr::prelude::*;
use msr::sim::stream_rng;
use msr::storage::{Cost, FileHandle, Payload, SharedResource, StorageError};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::{Debug, Write as _};

const SEED: u64 = 2000;
const KINDS: [StorageKind; 3] = [
    StorageKind::LocalDisk,
    StorageKind::RemoteDisk,
    StorageKind::RemoteTape,
];
/// Eight paths over six directories: more tape volumes than HPSS drives,
/// so the walk forces LRU evictions.
const PATHS: [&str; 8] = ["a/x", "a/y", "b/x", "c/x", "d/x", "e/x", "f/x", "g/long/y"];
const MODES: [OpenMode; 4] = [
    OpenMode::Read,
    OpenMode::Create,
    OpenMode::OverWrite,
    OpenMode::Append,
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fingerprint(transcript: &str) -> String {
    format!("{:016x}", fnv(transcript.as_bytes()))
}

/// One resource under the script: the transcript plus what the script must
/// remember to stay clear of the skipped case.
struct Walk<'a> {
    sys: &'a MsrSystem,
    kind: StorageKind,
    res: SharedResource,
    rng: StdRng,
    /// Handles the script believes open, with whether they were opened
    /// for reading.
    open: Vec<(FileHandle, bool)>,
    /// The last connection call was a `disconnect`.
    parked: bool,
    offline: bool,
    wan_down: bool,
    /// Issue writes as `write_shared` (the payload given away) instead of
    /// `write`.
    shared: bool,
    /// Write a recipe keyed by each write's drawn bytes instead of them.
    recipes: bool,
    out: String,
}

/// The recipe standing in for drawn bytes in the recipe script: now and
/// then a fill, so that appends meet a file that is the same fill, else a
/// dump keyed by the draw.
fn recipe(drawn: &[u8]) -> Payload {
    let key = drawn
        .iter()
        .take(8)
        .fold(0u64, |k, &b| k << 8 | u64::from(b));
    match key % 4 {
        0 => Payload::fill(0xA5, drawn.len()),
        _ => Payload::dump(key, "walk", (key >> 32) as u32, drawn.len()),
    }
}

impl<'a> Walk<'a> {
    fn new(sys: &'a MsrSystem, kind: StorageKind, shared: bool, recipes: bool) -> Self {
        Walk {
            sys,
            kind,
            res: sys.resource(kind).expect("testbed registers every kind"),
            rng: stream_rng(SEED, &format!("storage-fingerprint:{kind}")),
            open: Vec::new(),
            parked: false,
            offline: false,
            wan_down: false,
            shared,
            recipes,
            out: String::new(),
        }
    }

    /// Append one call's outcome: the cost's bit pattern and value, or the
    /// error variant with its fields.
    fn log<T>(
        &mut self,
        what: &str,
        r: &Result<Cost<T>, StorageError>,
        value: impl Fn(&T) -> String,
    ) {
        match r {
            Ok(c) => writeln!(
                self.out,
                "{what} ok {:016x} {}",
                c.time.as_secs().to_bits(),
                value(&c.value)
            ),
            Err(e) => writeln!(self.out, "{what} err {e:?}"),
        }
        .unwrap();
    }

    fn note(&mut self, what: &str, v: impl Debug) {
        writeln!(self.out, "{what} {v:?}").unwrap();
    }

    fn connect_allowed(&self) -> bool {
        !(self.parked && (self.offline || self.wan_down))
    }

    fn connect(&mut self) {
        if !self.connect_allowed() {
            return;
        }
        let r = self.res.lock().connect();
        if r.is_ok() {
            self.parked = false;
        }
        self.log("connect", &r, |_| String::new());
    }

    fn disconnect(&mut self) {
        let r = self.res.lock().disconnect();
        self.parked = true;
        self.log("disconnect", &r, |_| String::new());
    }

    fn open(&mut self, path: &str, mode: OpenMode) -> FileHandle {
        let r = self.res.lock().open(path, mode);
        self.log(&format!("open {path} {mode:?}"), &r, |h| {
            h.raw().to_string()
        });
        match r {
            Ok(c) => {
                self.open.push((c.value, mode == OpenMode::Read));
                c.value
            }
            // A handle nobody issued: later calls on it hash `BadHandle`.
            Err(_) => FileHandle::from_raw(9_999),
        }
    }

    fn seek(&mut self, h: FileHandle, pos: u64) {
        let r = self.res.lock().seek(h, pos);
        self.log(&format!("seek {} {pos}", h.raw()), &r, |_| String::new());
    }

    fn read(&mut self, h: FileHandle, len: usize) {
        let r = self.res.lock().read(h, len);
        self.log(&format!("read {} {len}", h.raw()), &r, |b| {
            format!("{} {:016x}", b.len(), fnv(b))
        });
    }

    fn write(&mut self, h: FileHandle, len: usize) {
        let mut data = vec![0u8; len];
        self.rng.fill_bytes(&mut data);
        let data = match self.recipes {
            true => recipe(&data),
            false => Payload::from(data),
        };
        let r = if self.shared {
            self.res.lock().write_shared(h, data)
        } else {
            self.res.lock().write(h, &data.into_bytes())
        };
        self.log(&format!("write {} {len}", h.raw()), &r, |n| n.to_string());
    }

    fn close(&mut self, h: FileHandle) {
        let r = self.res.lock().close(h);
        self.open.retain(|(o, _)| *o != h);
        self.log(&format!("close {}", h.raw()), &r, |_| String::new());
    }

    fn delete(&mut self, path: &str) {
        let r = self.res.lock().delete(path);
        self.log(&format!("delete {path}"), &r, |_| String::new());
    }

    fn vault(&mut self, path: &str) {
        let r = self.res.lock().vault(path);
        self.log(&format!("vault {path}"), &r, |_| String::new());
    }

    fn recall(&mut self, path: &str) {
        let r = self.res.lock().recall(path);
        self.log(&format!("recall {path}"), &r, |_| String::new());
    }

    fn advance(&mut self, secs: f64) {
        self.sys.clock.advance(SimDuration::from_secs(secs));
        self.note("advance", secs.to_bits());
    }

    fn set_online(&mut self, up: bool) {
        self.sys.set_resource_online(self.kind, up);
        self.offline = !up;
        self.note("online", up);
    }

    fn set_wan(&mut self, up: bool) {
        self.sys.set_wan_up(up);
        self.wan_down = !up;
        self.note("wan", up);
    }

    /// Every info method, for all paths.
    fn probe(&mut self) {
        let r = self.res.lock();
        let mut line = format!(
            "probe {} {:?} online={} cap={} used={} logical={} avail={} hint={} {:?}",
            r.name(),
            r.kind(),
            r.is_online(),
            r.capacity_bytes(),
            r.used_bytes(),
            r.logical_bytes(),
            r.available_bytes(),
            r.stream_hint(),
            r.stats(),
        );
        for p in PATHS {
            write!(
                line,
                " {p}:{}:{:?}:{}",
                r.exists(p),
                r.file_size(p),
                r.is_vaulted(p)
            )
            .unwrap();
        }
        write!(line, " {:?} {:?}", r.list("a/"), r.list("")).unwrap();
        for op in [OpKind::Read, OpKind::Write] {
            let f = r.fixed_costs(op);
            write!(
                line,
                " {op}:{:016x}:{:016x}:{:016x}:{:016x}:{:016x}",
                f.conn.as_secs().to_bits(),
                f.open.as_secs().to_bits(),
                f.seek.as_secs().to_bits(),
                f.close.as_secs().to_bits(),
                f.connclose.as_secs().to_bits(),
            )
            .unwrap();
            for (bytes, streams) in [(1u64 << 12, 1u32), (1 << 20, 1), (1 << 20, 8)] {
                let t = r.transfer_model(op, bytes, streams);
                write!(line, ":{:016x}", t.as_secs().to_bits()).unwrap();
            }
        }
        drop(r);
        self.out.push_str(&line);
        self.out.push('\n');
    }

    /// The fixed battery: each edge the random walk might not hit.
    fn battery(&mut self) {
        self.probe(); // predictor path before any connection exists
        self.open("a/x", OpenMode::Create); // remote kinds: NotConnected
        self.connect();
        self.connect(); // idempotent: free
        self.probe();

        // All four modes, cursor placement, mode enforcement.
        let h = self.open("a/x", OpenMode::Create);
        self.write(h, 40_000);
        self.read(h, 1); // BadMode
        self.seek(h, 10_000);
        self.write(h, 5_000);
        self.close(h);
        self.close(h); // BadHandle
        self.write(h, 1); // BadHandle
        let h = self.open("a/x", OpenMode::Append);
        self.write(h, 3_000);
        self.close(h);
        let h = self.open("a/x", OpenMode::OverWrite);
        self.write(h, 2_000);
        self.close(h);
        let h = self.open("a/x", OpenMode::Read);
        self.write(h, 1); // BadMode
        self.read(h, 50_000); // short read at the tail
        self.read(h, 10); // at end of file
        self.seek(h, 1_000);
        self.read(h, 2_000);
        self.close(h);
        self.open("ghost", OpenMode::Read); // NotFound
        self.delete("ghost"); // NotFound

        // A file deleted under an open handle.
        let h = self.open("b/x", OpenMode::Create);
        self.write(h, 100);
        self.close(h);
        let h = self.open("b/x", OpenMode::Read);
        self.delete("b/x");
        self.read(h, 10);
        self.close(h);

        // Capacity, then logical-size overrides.
        let cap = self.res.lock().capacity_bytes();
        let used = self.res.lock().used_bytes();
        self.res.lock().set_capacity(used + 1_000);
        let h = self.open("c/x", OpenMode::Create);
        self.write(h, 900);
        self.write(h, 200); // CapacityExceeded where capacity is finite
        self.seek(h, 0);
        self.write(h, 900); // overwrite: no growth
        self.close(h);
        self.res.lock().set_capacity(cap);
        self.res.lock().set_logical_size("c/x", 123_456);
        self.res.lock().set_logical_size("ghost", 1);
        self.probe();

        // Contention hint.
        self.res.lock().set_stream_hint(6);
        let h = self.open("a/y", OpenMode::Create);
        self.write(h, 20_000);
        self.close(h);
        let h = self.open("a/y", OpenMode::Read);
        self.read(h, 20_000);
        self.close(h);
        self.res.lock().set_stream_hint(0); // clamps to 1
        self.probe();

        // Vault and recall (tape), refusals elsewhere.
        self.vault("ghost");
        self.vault("a/y");
        self.vault("a/y");
        self.open("a/y", OpenMode::Read); // Vaulted on tape
        self.open("a/y", OpenMode::Create); // Vaulted on tape
        self.probe();
        self.recall("ghost");
        self.recall("a/y");
        self.recall("a/y"); // resident: free
        self.vault("c/x");
        self.delete("c/x"); // the volume stays on the shelf

        // Resource outage with a live connection and an open handle.
        let h = self.open("d/x", OpenMode::Create);
        self.write(h, 1_000);
        self.set_online(false);
        self.probe();
        self.connect();
        self.open("d/x", OpenMode::Read);
        self.seek(h, 0);
        self.write(h, 10);
        self.delete("d/x");
        self.vault("a/x");
        self.recall("a/x");
        self.close(h); // close never checks the outage
        self.set_online(true);
        self.connect();

        // WAN outage: the same calls against a dead route.
        let h = self.open("d/x", OpenMode::Append);
        self.set_wan(false);
        self.connect();
        self.write(h, 10);
        self.open("a/x", OpenMode::Read);
        self.delete("a/x");
        self.recall("a/x");
        self.probe();
        self.set_wan(true);
        self.connect();
        self.write(h, 10);
        self.close(h);

        // Connection teardown and re-establishment, with read re-opens
        // around a mutation in between.
        self.disconnect();
        self.disconnect();
        self.advance(5.0);
        self.connect();
        let h = self.open("a/x", OpenMode::Read);
        self.close(h);
        let h = self.open("a/x", OpenMode::Read);
        self.read(h, 100);
        self.close(h);
        let h = self.open("a/x", OpenMode::Append);
        self.write(h, 10);
        self.close(h);
        let h = self.open("a/x", OpenMode::Read);
        self.close(h);
        self.disconnect();
        self.advance(5_000.0);
        self.open("a/x", OpenMode::Read); // remote kinds: NotConnected
        self.connect();
        self.probe();
    }

    /// An open handle of the wanted direction when there is one, now and
    /// then a stale or never-issued one.
    fn pick(&mut self, readable: Option<bool>) -> FileHandle {
        let fits: Vec<FileHandle> = self
            .open
            .iter()
            .filter(|(_, r)| readable.is_none_or(|want| want == *r))
            .map(|(h, _)| *h)
            .collect();
        if fits.is_empty() || self.rng.random_bool(0.08) {
            FileHandle::from_raw(self.rng.random_range(0..12u32))
        } else {
            fits[self.rng.random_range(0..fits.len())]
        }
    }

    /// One seeded step of the random walk.
    fn step(&mut self) {
        // Outages heal and dropped connections come back quickly, so most
        // of the walk runs against a live, connected resource.
        if self.offline && self.rng.random_bool(0.3) {
            self.set_online(true);
        }
        if self.wan_down && self.rng.random_bool(0.3) {
            self.set_wan(true);
        }
        if self.parked && self.rng.random_bool(0.3) {
            self.connect();
        }
        let path = PATHS[self.rng.random_range(0..PATHS.len())];
        match self.rng.random_range(0..80u32) {
            0..=2 => self.connect(),
            3 => self.disconnect(),
            4..=15 => {
                let mode = MODES[self.rng.random_range(0..MODES.len())];
                self.open(path, mode);
            }
            16..=21 => {
                let h = self.pick(None);
                let pos = self.rng.random_range(0..80_000u64);
                self.seek(h, pos);
            }
            22..=35 => {
                let h = self.pick(Some(true));
                let len = self.rng.random_range(0..65_536usize);
                self.read(h, len);
            }
            36..=49 => {
                let h = self.pick(Some(false));
                let len = self.rng.random_range(0..65_536usize);
                self.write(h, len);
            }
            50..=59 => {
                let h = self.pick(None);
                self.close(h);
            }
            60..=61 => self.delete(path),
            62..=63 => self.vault(path),
            64..=66 => self.recall(path),
            67..=70 => {
                let secs = self.rng.random_range(0.5..90.0);
                self.advance(secs);
            }
            71 => self.set_online(false),
            72 => self.set_wan(false),
            73 => {
                let streams = self.rng.random_range(0..9u32);
                self.res.lock().set_stream_hint(streams);
                self.note("hint", streams);
            }
            74 => {
                let bytes = self.rng.random_range(0..1_000_000u64);
                self.res.lock().set_logical_size(path, bytes);
                self.note("logical", (path, bytes));
            }
            _ => self.probe(),
        }
    }

    fn run(mut self) -> String {
        self.battery();
        for _ in 0..800 {
            self.step();
        }
        // Leave the shared system healthy for the next kind.
        self.set_online(true);
        self.set_wan(true);
        self.res.lock().set_stream_hint(1);
        for (h, _) in self.open.clone() {
            self.close(h);
        }
        self.probe();
        self.out
    }
}

/// A plan exercising every fault kind: a burst, probabilistic errors,
/// spikes, torn transfers and periodic flap windows (the three walks share
/// one clock, so each crosses several).
fn fault_plan() -> FaultPlan {
    let flap = (0..40).fold(OutageSchedule::always_up(), |s, i| {
        let from = 150.0 + 700.0 * f64::from(i);
        s.with_outage(from, from + 90.0)
    });
    FaultPlan::none()
        .with_error_burst(3)
        .with_error_prob(0.06)
        .with_spikes(0.15, 3.5)
        .with_torn_prob(0.15)
        .with_flap(flap)
}

/// Run the script over the three kinds of one system; returns the three
/// per-kind transcripts, then one of the fault logs and the obs event
/// stream.
fn transcripts(faults: bool, shared: bool, recipes: bool) -> [String; 4] {
    let mut sys = MsrSystem::testbed(SEED);
    let logs: Vec<FaultLog> = if faults {
        KINDS
            .iter()
            .map(|k| sys.inject_faults(*k, fault_plan()).expect("registered"))
            .collect()
    } else {
        Vec::new()
    };
    let [local, rdisk, tape] = KINDS.map(|kind| Walk::new(&sys, kind, shared, recipes).run());

    let mut tail = String::new();
    for log in &logs {
        writeln!(tail, "{:?}", log.records()).unwrap();
    }
    for e in sys.obs.events() {
        writeln!(tail, "{e:?}").unwrap();
    }
    [local, rdisk, tape, tail]
}

/// The four transcripts of the borrowed-write script, hashed.
fn run(faults: bool) -> [String; 4] {
    transcripts(faults, false, false).map(|t| fingerprint(&t))
}

/// The script with writes given away against the borrowed-write script,
/// its bytes drawn (`recipes` off) or recipes keyed by them, with the fault
/// stage off and on, line for line.
fn assert_given_away_writes_are_borrowed_writes(recipes: bool) {
    for faults in [false, true] {
        let borrowed = transcripts(faults, false, recipes);
        let shared = transcripts(faults, true, recipes);
        for (part, (b, s)) in ["local", "rdisk", "tape", "logs+obs"]
            .iter()
            .zip(borrowed.iter().zip(&shared))
        {
            let differs = b.lines().zip(s.lines()).position(|(b, s)| b != s);
            if let Some(at) = differs {
                panic!(
                    "faults={faults} recipes={recipes} {part} line {at}:\n  write        {}\n  write_shared {}",
                    b.lines().nth(at).unwrap(),
                    s.lines().nth(at).unwrap()
                );
            }
            assert_eq!(b.len(), s.len(), "{part}: one transcript is longer");
        }
    }
}

/// Shared and borrowed writes are indistinguishable to every observer but
/// the allocator, with the fault stage off and on: torn halves, fault
/// draws, spikes, cursors, stats and spans line up.
#[test]
fn shared_writes_leave_every_transcript_as_it_is() {
    assert_given_away_writes_are_borrowed_writes(false);
}

/// A recipe written as it is and its bytes written borrowed are
/// indistinguishable too: reads of whole files, ranges and torn halves
/// return the same bytes, and a recipe file mutated in part becomes the
/// same extents.
#[test]
fn recipe_writes_leave_every_transcript_as_it_is() {
    assert_given_away_writes_are_borrowed_writes(true);
}

#[test]
fn plain_resources_fingerprint_is_frozen() {
    assert_eq!(
        run(false),
        [
            "d8ec93da7bcee639",
            "8b9602e7d03a74ae",
            "1af0e687f5e5c080",
            "bcf4f2bb742c4bd1"
        ],
        "[local, rdisk, tape, obs] moved"
    );
}

#[test]
fn faulted_resources_fingerprint_is_frozen() {
    assert_eq!(
        run(true),
        [
            "cb376084f705317e",
            "42dca4e8b325591a",
            "891e93b2815f1b29",
            "5930540019179c47"
        ],
        "[local, rdisk, tape, faults+obs] moved"
    );
}
