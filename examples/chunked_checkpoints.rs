//! Content-addressed checkpoints end to end: a churning checkpoint
//! series opts into the chunk plane from the dataset builder, the store
//! dedups everything the iterations share, the accounting splits into
//! logical (what the application wrote) vs physical
//! (what the media holds), and the predictor learns the dataset's
//! moved/logical ratio so future placement prices real bytes.
//!
//! ```text
//! cargo run --release --example chunked_checkpoints
//! ```

use msr::prelude::*;

/// A checkpoint payload: a fixed pseudo-random base plus a small window
/// of fresh bytes per iteration — the shape a simulation restart file
/// actually has, and what gives dedup something to find.
fn checkpoint(iter: u32, len: usize) -> Vec<u8> {
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
    let mut out = stream(0x5eed, len);
    let window = (len / 16).max(1);
    let at = (iter as usize).wrapping_mul(7919) % len;
    for (i, b) in stream(u64::from(iter) + 1, window).into_iter().enumerate() {
        out[(at + i) % len] = b;
    }
    out
}

fn main() -> CoreResult<()> {
    let sys = MsrSystem::testbed(42);
    let mut s = sys
        .session()
        .app("churn")
        .user("me")
        .iterations(24)
        .build()?;

    // The whole opt-in is three builder calls: CDC chunking, compressed
    // frames, content-addressed storage (the default once chunked).
    let spec = DatasetSpec::builder("state")
        .element(ElementType::F32)
        .cube(32)
        .frequency(3)
        .hint(LocationHint::LocalDisk)
        .chunked(ChunkPolicy::cdc(8))
        .compression(Codec::Lz4Like(1))
        .build();
    let bytes = spec.snapshot_bytes() as usize;
    let h = s.open(spec)?;

    for iter in (0..=24).step_by(3) {
        s.write_iteration(h, iter, &checkpoint(iter, bytes))?;
    }

    // Reads self-describe through the stored manifest and verify every
    // chunk digest on the way back.
    let (data, _) = s.read_iteration(h, 12)?;
    assert_eq!(data, checkpoint(12, bytes), "bitwise roundtrip");
    s.finalize()?;

    // What the application dumped vs what the media actually holds.
    let logical = sys.usage_logical()[&StorageKind::LocalDisk];
    let physical = sys.usage()[&StorageKind::LocalDisk];
    println!("logical bytes (the app wrote these):  {logical}");
    println!(
        "physical bytes (the disk holds these): {physical}  ({:.1}x less)",
        logical as f64 / physical as f64
    );

    let name = sys
        .resource(StorageKind::LocalDisk)
        .expect("testbed disk")
        .lock()
        .name()
        .to_owned();
    let stats = sys
        .engine
        .chunk_plane()
        .store_stats(&name)
        .expect("chunked writes populate the store");
    println!(
        "chunk store: {} chunks in {} packs ({} dead bytes), {} dedup hits / {} inserts, {} GCed",
        stats.chunks, stats.packs, stats.dead_bytes, stats.hits, stats.inserts, stats.gcs
    );

    // Drain the write deltas into the predictor: every eq. (2) pricing
    // site (placement, admission, prefetch, migration) now scales this
    // dataset's byte terms by the learned moved/logical ratio and counts
    // the objects a dump is written as.
    sys.sync_ratios();
    println!(
        "learned moved/logical ratio for `state`: {:.3}",
        sys.predicted_ratio("state")
    );
    Ok(())
}
