//! The copy budget of a dump, pinned by pointer and by allocation count.
//!
//! A raw collective dump's bytes are written once: the refcounted buffer a
//! request carries is what the resource stores, and a native read hands
//! back a view of it. Every dump the scheduler synthesises is queued as
//! its recipe. A raw collective one is not written at all: it is stored
//! as that recipe, and its bytes are made when they are read. A chunked
//! one is made once, at dispatch, for the call that ingests it, from the
//! base stream its dataset keeps while it has writes queued. A stopwatch
//! cannot hold that; these tests compare `as_ptr()`s and count the
//! allocations of peculiar sizes, so a re-introduced copy fails here
//! whatever the host is doing.
//!
//! A read hands back the stored object as it is kept, and its bytes are
//! made only where a consumer asks for them: a scheduled read-back of a
//! recipe-stored dump, on demand or read ahead into the staging cache,
//! makes none, and a staged serve is the cached object itself.
//!
//! Nor does admission hold a request: it queues each dump as a key the
//! session names at dispatch, and a session's keys are dropped once its
//! program is dealt into the queues. Those tests count what one thread
//! allocates, so tests running beside them do not disturb the count.

use bytes::Bytes;
use msr::apps::multi::scaling_fleet;
use msr::prelude::*;
use msr::runtime::{
    CallPlan, Distribution, EngineRequest, RequestBody, RequestOutcome, RequestTag,
};
use msr::sched::program::payload as dump_payload;
use msr::storage::{Payload, SharedResource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes of the dump `one_allocation_serves_the_store_and_the_staging_cache`
/// writes: 11 × 13 × 17 `f32`s, a size nothing else in this binary asks for.
const WATCHED: usize = 11 * 13 * 17 * 4;
static WATCHED_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static WATCHED_LAST: AtomicUsize = AtomicUsize::new(0);
/// Bytes of the dump `a_scheduled_raw_dump_allocates_nothing_until_read`
/// admits: 7 × 11 × 19 `f32`s, another size nothing else here asks for.
const RECIPE: usize = 7 * 11 * 19 * 4;
static RECIPE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes of the chunked dump `a_scheduled_chunked_dump_is_made_at_dispatch`
/// admits: 37 × 41 × 43 `f32`s, a third size nothing else here asks for,
/// and many CDC chunks long, so no chunk or frame is the whole dump.
const CHUNKED: usize = 37 * 41 * 43 * 4;
static CHUNKED_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static CHUNKED_LIVE: AtomicUsize = AtomicUsize::new(0);
static CHUNKED_PEAK: AtomicUsize = AtomicUsize::new(0);
/// Bytes of the dumps `a_scheduled_read_back_makes_no_bytes` reads back:
/// 13 × 17 × 23 `f32`s, a fourth size nothing else here asks for.
const READBACK: usize = 13 * 17 * 23 * 4;
static READBACK_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// What this thread allocated, so tests running beside it do not count:
/// byte buffers (`String`s, `Vec<u8>`s: alignment 1) ever, blocks still
/// live, and how many were live at the first byte buffer after `armed`.
struct Track {
    byte_allocs: Cell<usize>,
    live: Cell<isize>,
    armed: Cell<bool>,
    live_at_armed_bytes: Cell<isize>,
}

thread_local! {
    static TRACK: Track = const {
        Track {
            byte_allocs: Cell::new(0),
            live: Cell::new(0),
            armed: Cell::new(false),
            live_at_armed_bytes: Cell::new(0),
        }
    };
}

fn byte_allocs() -> usize {
    TRACK.with(|t| t.byte_allocs.get())
}

thread_local! {
    /// Every allocation this thread made.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting requests for exactly [`WATCHED`] bytes,
/// remembering where the last one landed, counting requests for exactly
/// [`RECIPE`] and [`READBACK`] bytes, and counting requests for exactly
/// [`CHUNKED`] bytes with how many are live and the most that were; and
/// keeping each thread's [`Track`].
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as they are.
        let p = unsafe { System.alloc(layout) };
        if layout.size() == WATCHED {
            WATCHED_ALLOCS.fetch_add(1, Ordering::SeqCst);
            WATCHED_LAST.store(p as usize, Ordering::SeqCst);
        }
        if layout.size() == RECIPE {
            RECIPE_ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        if layout.size() == READBACK {
            READBACK_ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        if layout.size() == CHUNKED {
            CHUNKED_ALLOCS.fetch_add(1, Ordering::SeqCst);
            let live = CHUNKED_LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            CHUNKED_PEAK.fetch_max(live, Ordering::SeqCst);
        }
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // A thread being torn down has no track left to keep.
        let _ = TRACK.try_with(|t| {
            t.live.set(t.live.get() + 1);
            if layout.align() == 1 {
                t.byte_allocs.set(t.byte_allocs.get() + 1);
                if t.armed.replace(false) {
                    t.live_at_armed_bytes.set(t.live.get());
                }
            }
        });
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        if layout.size() == CHUNKED {
            CHUNKED_LIVE.fetch_sub(1, Ordering::SeqCst);
        }
        let _ = TRACK.try_with(|t| t.live.set(t.live.get() - 1));
        // SAFETY: `p` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn payload(len: usize, salt: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| ((i * 7 + salt) % 251) as u8)
            .collect::<Vec<u8>>(),
    )
}

fn dist(n: u64) -> Distribution {
    Distribution::new(Dims3::cube(n), 4, Pattern::bbb(), ProcGrid::new(2, 2, 2)).unwrap()
}

fn write_request(path: &str, n: u64, data: Bytes, mode: OpenMode) -> EngineRequest {
    EngineRequest {
        tag: RequestTag { session: 7, seq: 0 },
        dataset: "d".into(),
        path: path.into(),
        dist: dist(n),
        strategy: IoStrategy::Collective,
        ingest: IngestSpec::raw(),
        body: RequestBody::Write {
            data: data.into(),
            mode,
        },
    }
}

/// One native open / read / close of the first `len` bytes of `path`.
fn native_read(res: &SharedResource, path: &str, len: usize) -> Bytes {
    let mut r = res.lock();
    let h = r.open(path, OpenMode::Read).unwrap().value;
    let got = r.read(h, len).unwrap().value;
    r.close(h).unwrap();
    got
}

#[test]
fn an_executed_dump_is_stored_as_the_buffer_the_request_carried() {
    let sys = MsrSystem::testbed(31);
    let local = sys.resource(StorageKind::LocalDisk).unwrap();
    let data = payload(16 * 16 * 16 * 4, 1);
    let req = write_request("dump", 16, data.clone(), OpenMode::Create);
    sys.engine.execute(&local, &req).unwrap();
    let first = native_read(&local, "dump", data.len());
    let second = native_read(&local, "dump", data.len());
    assert_eq!(first.as_ptr(), data.as_ptr(), "the store copied the dump");
    assert_eq!(second.as_ptr(), data.as_ptr(), "a read copied the dump");
    assert_eq!(first, data);
    // A partial read is a view into the same allocation.
    let mut r = local.lock();
    let h = r.open("dump", OpenMode::Read).unwrap().value;
    r.seek(h, 100).unwrap();
    assert_eq!(r.read(h, 50).unwrap().value.as_ptr(), data[100..].as_ptr());
    r.close(h).unwrap();
}

#[test]
fn one_allocation_serves_the_store_and_the_staging_cache() {
    let sys = MsrSystem::testbed(32);
    let mut s = sys
        .session()
        .app("app")
        .user("u")
        .iterations(6)
        .grid(ProcGrid::new(1, 1, 1))
        .build()
        .unwrap();
    let spec = DatasetSpec::builder("d")
        .element(ElementType::F32)
        .dims(Dims3 {
            x: 11,
            y: 13,
            z: 17,
        })
        .hint(LocationHint::RemoteDisk)
        .build();
    let h = s.open(spec).unwrap();
    let data = payload(WATCHED, 2).to_vec();
    let before = WATCHED_ALLOCS.load(Ordering::SeqCst);
    s.write_iteration(h, 0, &data).unwrap().unwrap();
    assert_eq!(
        WATCHED_ALLOCS.load(Ordering::SeqCst) - before,
        1,
        "write_iteration owns the caller's bytes once; the store and the \
         staging cache must both hold that one buffer"
    );
    let the_copy = WATCHED_LAST.load(Ordering::SeqCst);
    let rdisk = sys.resource(StorageKind::RemoteDisk).unwrap();
    let path = rdisk.lock().list("app/").pop().unwrap();
    let stored = native_read(&rdisk, &path, WATCHED);
    assert_eq!(stored.as_ptr() as usize, the_copy, "the store holds it");
    assert_ne!(stored.as_ptr(), data.as_ptr());
    drop(stored);

    // The staged copy a degraded read serves is the same buffer: serving
    // it allocates the caller's output and nothing else of that size.
    sys.set_wan_up(false);
    let before = WATCHED_ALLOCS.load(Ordering::SeqCst);
    let (back, report) = s.read_iteration(h, 0).unwrap();
    assert!(report.stale);
    assert_eq!(back, data);
    assert_eq!(WATCHED_ALLOCS.load(Ordering::SeqCst) - before, 1);
}

#[test]
fn a_partial_write_copies_out_of_the_writers_buffer_not_into_it() {
    let sys = MsrSystem::testbed(33);
    let local = sys.resource(StorageKind::LocalDisk).unwrap();
    let data = payload(16 * 16 * 16 * 4, 3);
    let original = data.to_vec();
    let req = write_request("dump", 16, data.clone(), OpenMode::Create);
    sys.engine.execute(&local, &req).unwrap();
    {
        let mut r = local.lock();
        let h = r.open("dump", OpenMode::OverWrite).unwrap().value;
        r.seek(h, 1000).unwrap();
        r.write(h, &[0xee; 24]).unwrap();
        r.close(h).unwrap();
    }
    assert_eq!(data, original, "the writer's buffer was written through");
    let mut want = original;
    want[1000..1024].fill(0xee);
    let stored = native_read(&local, "dump", want.len());
    assert_eq!(stored, want);
    assert_ne!(stored.as_ptr(), data.as_ptr());
    assert_eq!(local.lock().used_bytes(), want.len() as u64);
}

#[test]
fn a_same_length_overwrite_dump_swaps_the_buffer() {
    let sys = MsrSystem::testbed(34);
    let local = sys.resource(StorageKind::LocalDisk).unwrap();
    let len = 16 * 16 * 16 * 4;
    let (first, second) = (payload(len, 4), payload(len, 5));
    let create = write_request("restart", 16, first.clone(), OpenMode::Create);
    sys.engine.execute(&local, &create).unwrap();
    let overwrite = write_request("restart", 16, second.clone(), OpenMode::OverWrite);
    sys.engine.execute(&local, &overwrite).unwrap();
    let stored = native_read(&local, "restart", len);
    assert_eq!(stored.as_ptr(), second.as_ptr(), "the rewrite was copied");
    assert_eq!(local.lock().used_bytes(), len as u64);
    // The engine's own read-back builds its output in one pass from that
    // view: right bytes, and not the stored buffer itself.
    let (back, _) = sys
        .engine
        .read(&local, "restart", &dist(16), IoStrategy::Collective)
        .unwrap();
    assert_eq!(back, second);
    assert_ne!(back.as_ptr(), second.as_ptr());
}

#[test]
fn a_scheduled_raw_dump_allocates_nothing_until_read() {
    let sys = MsrSystem::testbed(35);
    let spec = DatasetSpec::builder("d")
        .element(ElementType::F32)
        .dims(Dims3 { x: 7, y: 11, z: 19 })
        .frequency(6)
        .hint(LocationHint::LocalDisk)
        .build();
    let before = RECIPE_ALLOCS.load(Ordering::SeqCst);
    let mut sched = Scheduler::new(&sys);
    let program = SessionProgram::new("app").iterations(12).dataset(spec);
    let session = sched.admit(program).unwrap().unwrap();
    let report = sched.run().unwrap();
    assert_eq!(report.requests(), 3);
    let local = sys.resource(StorageKind::LocalDisk).unwrap();
    assert_eq!(local.lock().used_bytes(), 3 * RECIPE as u64);
    assert_eq!(
        RECIPE_ALLOCS.load(Ordering::SeqCst) - before,
        0,
        "admission, queue and store must hold the dumps as recipes"
    );
    // Reading a dump back makes its bytes: the generator's, once.
    let run = RunId(report.sessions[0].run);
    let grid = ProcGrid::new(1, 1, 1);
    let (back, _) = sys
        .read_dataset(run, "d", 6, grid, IoStrategy::Collective)
        .unwrap();
    assert_eq!(RECIPE_ALLOCS.load(Ordering::SeqCst) - before, 1);
    assert!(back == dump_payload(session, "d", 6, RECIPE)[..]);
}

/// Producers on the remote disk that each read their `readbacks` earliest
/// dumps back, [`READBACK`] bytes each.
fn read_back_fleet(sessions: usize, readbacks: u32) -> Vec<SessionProgram> {
    let spec = DatasetSpec::builder("d")
        .element(ElementType::F32)
        .dims(Dims3 {
            x: 13,
            y: 17,
            z: 23,
        })
        .frequency(3)
        .hint(LocationHint::RemoteDisk)
        .build();
    (0..sessions)
        .map(|i| {
            let program = SessionProgram::new(&format!("app-{i}"));
            let program = program.iterations(24).dataset(spec.clone());
            program.readbacks(readbacks)
        })
        .collect()
}

#[test]
fn a_scheduled_read_back_makes_no_bytes() {
    // The drain keeps a served read's report and drops what it read, so a
    // read-back of a dump stored as its recipe generates nothing: not on
    // demand, and not when read-ahead stages it and serves it from the
    // staging cache.
    for prefetch in [false, true] {
        let sys = MsrSystem::testbed(39);
        let mut sched = Scheduler::new(&sys).with_prefetch(prefetch);
        let mut sessions = Vec::new();
        for program in read_back_fleet(4, 4) {
            sessions.push(sched.admit(program).unwrap().unwrap());
        }
        let before = READBACK_ALLOCS.load(Ordering::SeqCst);
        let report = sched.run().unwrap();
        assert!(report.sessions.iter().all(|s| s.errors.is_empty()));
        assert_eq!(report.requests(), 4 * (9 + 4));
        if prefetch {
            assert!(report.prefetch_hits > 0, "nothing was served staged");
        }
        assert_eq!(
            READBACK_ALLOCS.load(Ordering::SeqCst) - before,
            0,
            "a read-back made the bytes nobody reads (prefetch={prefetch})"
        );
        // A consumer that asks for a dump's bytes gets them, made once.
        let run = RunId(report.sessions[0].run);
        let grid = ProcGrid::new(1, 1, 1);
        let (back, _) = sys
            .read_dataset(run, "d", 3, grid, IoStrategy::Collective)
            .unwrap();
        assert_eq!(READBACK_ALLOCS.load(Ordering::SeqCst) - before, 1);
        assert!(back == dump_payload(sessions[0], "d", 3, READBACK)[..]);
    }
}

#[test]
fn a_staged_serve_is_the_cached_object() {
    let sys = MsrSystem::testbed(40);
    let data = payload(16 * 16 * 16 * 4, 6);
    let mut req = write_request("dump", 16, data.clone(), OpenMode::Create);
    req.body = RequestBody::Read;
    let cache = msr::runtime::staging_cache(1 << 20);
    cache.lock().put("dump", data.clone().into());
    let staged = cache.lock().get("dump").unwrap();
    let served = sys.engine.staged_read("local", &req, &staged).unwrap();
    let RequestOutcome::Read(Payload::Bytes(back), report) = served else {
        panic!("a staged serve of held bytes came back in another form");
    };
    assert_eq!(back.as_ptr(), data.as_ptr(), "the staged serve copied");
    assert_eq!(report.bytes, data.len() as u64);
    // A staged recipe is served as the recipe: nothing is generated.
    let recipe = Payload::dump(7, "d", 0, data.len());
    let served = sys.engine.staged_read("local", &req, &recipe).unwrap();
    assert!(matches!(
        served,
        RequestOutcome::Read(Payload::Recipe(_), _)
    ));
}

#[test]
fn a_catalog_lookup_allocates_nothing() {
    // Every served request notes its dump in the catalog, and every open
    // finds its dataset: once the rows exist, neither builds a key.
    let sys = MsrSystem::testbed(41);
    let mut sched = Scheduler::new(&sys);
    for program in read_back_fleet(3, 1) {
        sched.admit(program).unwrap().unwrap();
    }
    let report = sched.run().unwrap();
    let runs: Vec<RunId> = report.sessions.iter().map(|s| RunId(s.run)).collect();
    let mut catalog = sys.catalog.lock();
    let before = ALLOCS.with(Cell::get);
    for (i, &run) in runs.iter().cycle().take(1000).enumerate() {
        let at = 1e4 + i as f64;
        std::hint::black_box(catalog.find_dataset(run, "d").unwrap());
        catalog.note_access(run, "d", at);
        catalog.note_dump(run, "d", 6, at, READBACK as u64);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "1 000 catalog lookups allocated");
}

#[test]
fn a_scheduled_chunked_dump_is_made_at_dispatch() {
    let sys = MsrSystem::testbed(36);
    let spec = DatasetSpec::builder("d")
        .element(ElementType::F32)
        .dims(Dims3 {
            x: 37,
            y: 41,
            z: 43,
        })
        .frequency(3)
        .hint(LocationHint::LocalDisk)
        .chunked(ChunkPolicy::cdc(8))
        .compression(Codec::Lz4Like(1))
        .build();
    let before = CHUNKED_ALLOCS.load(Ordering::SeqCst);
    let mut sched = Scheduler::new(&sys);
    let program = SessionProgram::new("app").iterations(12).dataset(spec);
    let session = sched.admit(program).unwrap().unwrap();
    assert_eq!(
        CHUNKED_ALLOCS.load(Ordering::SeqCst) - before,
        0,
        "admission must queue the dumps as recipes"
    );
    CHUNKED_PEAK.store(CHUNKED_LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
    let live = CHUNKED_LIVE.load(Ordering::SeqCst);
    let report = sched.run().unwrap();
    assert_eq!(report.requests(), 5);
    assert!(report.sessions[0].errors.is_empty());
    // Each dump is made once, for the call that ingests it, from the one
    // base stream the dataset keeps while it has writes queued.
    assert_eq!(CHUNKED_ALLOCS.load(Ordering::SeqCst) - before, 5 + 1);
    assert!(
        CHUNKED_PEAK.load(Ordering::SeqCst) - live <= 2,
        "more than the base and one dump were live at once"
    );
    assert_eq!(
        CHUNKED_LIVE.load(Ordering::SeqCst),
        live,
        "a dump outlived the drain"
    );
    let run = RunId(report.sessions[0].run);
    let grid = ProcGrid::new(1, 1, 1);
    for iter in [0, 3, 6, 9, 12] {
        let (back, _) = sys
            .read_dataset(run, "d", iter, grid, IoStrategy::Collective)
            .unwrap();
        assert!(
            back == dump_payload(session, "d", iter, CHUNKED)[..],
            "{iter}"
        );
    }
}

#[test]
fn admission_names_no_request() {
    // Admission queues each dump as a key the session names at dispatch,
    // so the byte buffers it allocates (names, catalog rows, event
    // details) are per session: a fleet with twice the dumps per session
    // allocates no more of them.
    let admit = |iterations| {
        let sys = MsrSystem::testbed(37);
        let mut sched = Scheduler::new(&sys);
        let before = byte_allocs();
        for program in scaling_fleet(300) {
            sched
                .admit(program.iterations(iterations))
                .unwrap()
                .unwrap();
        }
        let allocs = byte_allocs() - before;
        let kinds = [
            StorageKind::LocalDisk,
            StorageKind::RemoteDisk,
            StorageKind::RemoteTape,
        ];
        (
            allocs,
            kinds.map(|k| sys.load.depth(k)).iter().sum::<usize>(),
        )
    };
    let (allocs, requests) = admit(12);
    let (more_allocs, more_requests) = admit(24);
    assert!(
        more_requests > requests + 300,
        "{requests} -> {more_requests}"
    );
    assert_eq!(
        more_allocs,
        allocs,
        "admitting {} more requests allocated byte buffers",
        more_requests - requests
    );
}

#[test]
fn the_deal_leaves_no_request_staging_live() {
    // A drain deals every admitted program into the queues before it
    // names its first request, and each session's staging goes once its
    // program is dealt: at that first naming (the first byte buffer the
    // drain allocates) this thread holds fewer blocks than admission left
    // it, by about one per session, although the drain's own bookkeeping
    // has been allocated since.
    let sys = MsrSystem::testbed(38);
    let mut sched = Scheduler::new(&sys);
    let fleet = scaling_fleet(300);
    let sessions = fleet.len() as isize;
    for program in fleet {
        sched.admit(program).unwrap().unwrap();
    }
    let admitted = TRACK.with(|t| {
        t.armed.set(true);
        t.live.get()
    });
    let report = sched.run().unwrap();
    let named = TRACK.with(|t| t.live_at_armed_bytes.get());
    assert!(report.sessions.iter().all(|s| s.errors.is_empty()));
    assert!(
        named < admitted - sessions / 2,
        "{admitted} blocks live after admission, {named} at the first request named"
    );
}

#[test]
fn a_warm_price_allocates_nothing() {
    // Every admission estimate and scored placement is a price: once a
    // resource's profiles are resolved, pricing reads them in place, and
    // asking the tape whether a dump's volume is on a drive, mounted or
    // cold, builds no path.
    let mut sys = MsrSystem::testbed(38);
    let tape = sys.resource(StorageKind::RemoteTape).unwrap();
    {
        let mut t = tape.lock();
        t.connect().unwrap();
        let h = t.open("warm/d.t00000", OpenMode::Create).unwrap().value;
        t.close(h).unwrap();
    }
    let volumes = [
        Volume::Of("warm/d.t00006"),
        Volume::Of("cold/d.t00000"),
        Volume::Fresh,
        Volume::Mounted,
    ];
    let d = dist(16);
    let plans: Vec<CallPlan> = IoStrategy::ALL
        .into_iter()
        .flat_map(|s| {
            [
                CallPlan::read(s, d),
                CallPlan::write(s, OpenMode::Create, d),
            ]
        })
        .collect();
    let kinds = [
        StorageKind::LocalDisk,
        StorageKind::RemoteDisk,
        StorageKind::RemoteTape,
    ];
    let calls = kinds
        .iter()
        .flat_map(|&k| plans.iter().map(move |p| (k, p)));
    for swept in [false, true] {
        if swept {
            sys.run_ptool(&PTool {
                sizes: vec![1 << 14, 1 << 18, 1 << 21],
                reps: 2,
                scratch_prefix: "ptool/budget".into(),
            })
            .unwrap();
        }
        assert!(tape.lock().mounted("warm/d.t00006"));
        assert!(!tape.lock().mounted("cold/d.t00000"));
        for (kind, plan) in calls.clone() {
            sys.price(kind, "d", Volume::Fresh, plan);
        }
        let before = ALLOCS.with(Cell::get);
        for ((kind, plan), volume) in calls.clone().cycle().zip(volumes.iter().cycle()).take(1000) {
            std::hint::black_box(sys.price(kind, "d", *volume, plan));
            std::hint::black_box(sys.mount_price(kind, plan.op(), *volume));
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(allocs, 0, "1 000 warm prices allocated (swept={swept})");
    }
}

#[test]
fn predicting_a_tape_session_allocates_what_a_disk_one_does() {
    // The mount a tape session's first dump pays is looked up, not built:
    // its prediction allocates exactly what the same session on local
    // disk does (names, rows), however many datasets share the volume.
    let sys = MsrSystem::testbed(39);
    let allocs = |hint, datasets: usize| {
        let mut s = sys.session().app("p").iterations(12).build().unwrap();
        for i in 0..datasets {
            let spec = DatasetSpec::builder(&format!("d{i}"))
                .element(ElementType::F32)
                .cube(8)
                .frequency(3)
                .hint(hint)
                .build();
            s.open(spec).unwrap();
        }
        s.predict().unwrap();
        let before = ALLOCS.with(Cell::get);
        let report = s.predict().unwrap();
        let allocs = ALLOCS.with(Cell::get) - before;
        (allocs, report)
    };
    for datasets in [1, 3] {
        let (tape, report) = allocs(LocationHint::RemoteTape, datasets);
        let (disk, _) = allocs(LocationHint::LocalDisk, datasets);
        assert!(report.rows[0].mount > SimDuration::ZERO, "{report}");
        assert_eq!(tape, disk, "{datasets} tape datasets");
    }
}
