//! Session-level properties of the content-addressed chunk plane: typed
//! ingest roundtrips, logical-vs-physical accounting, predictor feedback,
//! corruption surfacing as a typed fatal error, and chaos tolerance with
//! chunking enabled.

use msr::prelude::*;

/// A checkpoint-shaped payload: a deterministic base keyed by `name` plus
/// a churn window per iteration, so successive dumps share most bytes.
fn churned(name: &str, iter: u32, len: usize) -> Vec<u8> {
    let seed = name.bytes().fold(0x9e3779b97f4a7c15u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    });
    let stream = |seed: u64, n: usize| -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    };
    let mut out = stream(seed, len);
    let window = (len / 16).max(1);
    let at = (iter as usize).wrapping_mul(977) % len.max(1);
    let churn = stream(
        seed ^ u64::from(iter).wrapping_mul(0x2545f4914f6cdd1d),
        window,
    );
    for (i, b) in churn.into_iter().enumerate() {
        out[(at + i) % len] = b;
    }
    out
}

fn chunked_spec(name: &str, hint: LocationHint) -> DatasetSpec {
    DatasetSpec::builder(name)
        .element(ElementType::U8)
        .cube(32)
        .frequency(3)
        .hint(hint)
        .chunked(ChunkPolicy::cdc(8))
        .compression(Codec::Lz4Like(1))
        .build()
}

/// Chunked dumps roundtrip bitwise through the session API, the store
/// dedups across iterations, and draining the delta ledger teaches the
/// predictor a moved/logical ratio below 1.
#[test]
fn chunked_session_roundtrips_and_teaches_the_predictor() {
    let sys = MsrSystem::testbed(7100);
    let mut s = sys
        .session()
        .app("ckpt")
        .user("u")
        .iterations(12)
        .build()
        .unwrap();
    let spec = chunked_spec("state", LocationHint::LocalDisk);
    let h = s.open(spec.clone()).unwrap();
    let mut originals = Vec::new();
    for iter in (0..=12).step_by(3) {
        let data = churned("state", iter, spec.snapshot_bytes() as usize);
        s.write_iteration(h, iter, &data).unwrap();
        originals.push((iter, data));
    }
    for (iter, data) in &originals {
        let (back, rep) = s.read_iteration(h, *iter).unwrap();
        assert_eq!(&back, data, "iter {iter} corrupt (stale={})", rep.stale);
    }
    s.finalize().unwrap();

    let name = sys
        .resource(StorageKind::LocalDisk)
        .unwrap()
        .lock()
        .name()
        .to_owned();
    let plane = sys.engine.chunk_plane();
    assert_eq!(plane.manifest_count(&name), 5);
    let stats = plane.store_stats(&name).expect("store populated");
    assert!(stats.hits > 0, "churned dumps must dedup: {stats:?}");

    assert!(sys.sync_ratios() > 0, "writes must queue delta summaries");
    let ratio = sys.predicted_ratio("state");
    assert!(
        ratio < 1.0,
        "predictor should learn that chunked dumps move fewer bytes: {ratio}"
    );
}

/// Physical occupancy (what the load board and lifecycle see) sits below
/// logical occupancy (what tenant quotas charge) once dedup engages.
#[test]
fn logical_accounting_exceeds_physical_under_dedup() {
    let sys = MsrSystem::testbed(7200);
    let mut s = sys
        .session()
        .app("ckpt")
        .user("u")
        .iterations(12)
        .build()
        .unwrap();
    let spec = chunked_spec("state", LocationHint::LocalDisk);
    let h = s.open(spec.clone()).unwrap();
    for iter in (0..=12).step_by(3) {
        let data = churned("state", iter, spec.snapshot_bytes() as usize);
        s.write_iteration(h, iter, &data).unwrap();
    }
    s.finalize().unwrap();

    let physical = sys.usage()[&StorageKind::LocalDisk];
    let logical = sys.usage_logical()[&StorageKind::LocalDisk];
    assert_eq!(
        logical,
        5 * spec.snapshot_bytes(),
        "logical accounting must reflect the bytes the application dumped"
    );
    assert!(
        physical < logical,
        "dedup should keep physical ({physical}) under logical ({logical})"
    );
}

/// A flipped byte inside a stored chunk frame surfaces as the typed
/// [`CoreError::ChunkCorrupt`] — classified fatal, never silent data.
#[test]
fn corrupted_chunk_surfaces_typed_fatal_error() {
    let sys = MsrSystem::testbed(7300);
    let mut s = sys
        .session()
        .app("ckpt")
        .user("u")
        .iterations(3)
        .build()
        .unwrap();
    let spec = chunked_spec("state", LocationHint::LocalDisk);
    let h = s.open(spec.clone()).unwrap();
    let data = churned("state", 0, spec.snapshot_bytes() as usize);
    s.write_iteration(h, 0, &data).unwrap();

    // Flip bytes inside one stored frame, behind the architecture's back.
    let res = sys.resource(StorageKind::LocalDisk).unwrap();
    let victim = res
        .lock()
        .list("cas/")
        .into_iter()
        .next()
        .expect("cas objects on disk");
    {
        let mut r = res.lock();
        let hdl = r.open(&victim, OpenMode::OverWrite).unwrap().value;
        r.write(hdl, &[0xFF, 0x00, 0xFF, 0x55]).unwrap();
        r.close(hdl).unwrap();
    }

    let err = s.read_iteration(h, 0).unwrap_err();
    match &err {
        CoreError::ChunkCorrupt { path, source } => {
            assert!(path.contains("state"), "unexpected path {path}");
            let msg = source.to_string();
            assert!(
                msg.contains("digest") || msg.contains("frame"),
                "unexpected source {msg}"
            );
        }
        other => panic!("expected ChunkCorrupt, got {other}"),
    }
    assert_eq!(classify(&err), ErrorClass::Fatal);
}

/// Chaos with chunking enabled: injected transient faults on the dump
/// resource never corrupt a successful chunked read — every `Ok` is
/// bitwise exact, every failure is a typed `CoreError`.
#[test]
fn chaos_with_chunking_returns_exact_or_typed() {
    for (seed, kind, hint) in [
        (7501u64, StorageKind::LocalDisk, LocationHint::LocalDisk),
        (7502, StorageKind::RemoteDisk, LocationHint::RemoteDisk),
    ] {
        let mut sys = MsrSystem::testbed(seed);
        sys.inject_faults(
            kind,
            FaultPlan::none()
                .with_error_prob(0.05)
                .with_spikes(0.05, 4.0),
        )
        .expect("kind registered");
        let mut s = sys
            .session()
            .app("chaos")
            .user("u")
            .iterations(6)
            .build()
            .unwrap();
        let spec = chunked_spec("state", hint);
        let h = match s.open(spec.clone()) {
            Ok(h) => h,
            Err(CoreError::NoUsableResource { .. }) => continue,
            Err(e) => panic!("untyped open failure: {e}"),
        };
        let mut written = Vec::new();
        for iter in (0..=6).step_by(3) {
            let data = churned("state", iter, spec.snapshot_bytes() as usize);
            if s.write_iteration(h, iter, &data).is_ok() {
                written.push((iter, data));
            }
        }
        for (iter, data) in &written {
            // Typed failure is a legal outcome under injected faults;
            // a successful read must be bitwise exact.
            if let Ok((back, rep)) = s.read_iteration(h, *iter) {
                assert_eq!(
                    &back, data,
                    "seed {seed} on {kind}: chunked read of iter {iter} corrupt \
                     (stale={})",
                    rep.stale
                );
            }
        }
        s.finalize().unwrap();
    }
}
