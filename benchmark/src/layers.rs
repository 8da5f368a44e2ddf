//! Per-layer counts read off a drained system, from outside: the
//! deterministic numbers the program already exposes (`ResourceStats`,
//! the observability snapshot, the catalog, the chunk plane), keyed by the
//! metric names of `BENCHMARK.json`.

use crate::workloads::{short, Numbers};
use msr_core::MsrSystem;
use std::time::Instant;

/// Storage operations that cost the same whatever the payload: the
/// fixed-cost side of eq. (1).
const FIXED_OPS: [&str; 5] = ["conn", "connclose", "open", "seek", "close"];

/// Collect every system-level per-layer count into `virt`, and into
/// `host` the two numbers here that depend on the process and not only on
/// the workload: the milliseconds the event-log snapshot took and the
/// scratch-pool reuse ratio. `requests` is the workload's served-request
/// count.
pub fn collect(sys: &MsrSystem, requests: u64, virt: &mut Numbers, host: &mut Numbers) {
    let per_request = |x: f64| x / requests.max(1) as f64;
    let mut put = |name: String, value: f64| {
        virt.insert(name, value);
    };

    let t = Instant::now();
    let snapshot = sys.obs.snapshot();
    host.insert("obs.snapshot_ms".into(), t.elapsed().as_secs_f64() * 1e3);

    // --- storage: native calls and bytes per resource, virtual busy time
    // and its fixed-cost share from the storage-layer spans.
    let mut native_calls = 0usize;
    let (mut fixed_s, mut storage_s) = (0.0, 0.0);
    for (kind, res) in sys.resources() {
        let (name, s) = {
            let r = res.lock();
            (r.name().to_owned(), r.stats())
        };
        let calls = s.opens + s.seeks + s.reads + s.writes + s.closes;
        native_calls += calls;
        let busy: f64 = snapshot
            .per_op
            .iter()
            .filter(|m| m.layer == "storage" && m.resource == name)
            .map(|m| {
                if FIXED_OPS.contains(&m.op.as_str()) {
                    fixed_s += m.total_secs;
                }
                m.total_secs
            })
            .sum();
        storage_s += busy;
        let r = short(kind);
        put(format!("storage.{r}.native_calls"), calls as f64);
        put(format!("storage.{r}.bytes_written"), s.bytes_written as f64);
        put(format!("storage.{r}.bytes_read"), s.bytes_read as f64);
        put(format!("storage.{r}.virtual_busy_s"), busy);
    }
    put(
        "storage.fixed_cost_frac".into(),
        if storage_s > 0.0 {
            fixed_s / storage_s
        } else {
            0.0
        },
    );
    put(
        "runtime.native_calls_per_request".into(),
        per_request(native_calls as f64),
    );

    // --- net: WAN transfers as the network layer recorded them.
    let transfers: Vec<_> = snapshot
        .per_op
        .iter()
        .filter(|m| m.layer == "network" && m.op == "transfer")
        .collect();
    put(
        "net.transfers".into(),
        transfers.iter().map(|m| m.count as f64).sum(),
    );
    put(
        "net.wire_bytes".into(),
        transfers.iter().map(|m| m.bytes as f64).sum(),
    );
    put(
        "net.virtual_busy_s".into(),
        transfers.iter().map(|m| m.total_secs).sum(),
    );
    put("net.failures".into(), snapshot.net_failures as f64);

    // --- meta: read the query counter before asking the catalog anything.
    let (queries, datasets) = {
        let mut catalog = sys.catalog.lock();
        (catalog.query_count(), catalog.all_datasets().len())
    };
    put("meta.queries".into(), queries as f64);
    put("meta.datasets".into(), datasets as f64);

    // --- obs: recording is always on in `MsrSystem::testbed`. The
    // scratch-pool counters are left out: whether a buffer is allocated
    // or reused depends on how warm this process's pool is, not on the
    // workload, and everything counted here must repeat exactly.
    let gauge = |op: &str| -> (u64, f64) {
        snapshot
            .gauges
            .iter()
            .filter(|g| g.key.ends_with(op))
            .fold((0, 0.0), |(n, sum), g| (n + g.count, sum + g.sum))
    };
    let (alloc_events, allocs) = gauge("/scratch_alloc");
    let (reuse_events, reuses) = gauge("/scratch_reuse");
    host.insert(
        "runtime.scratch_reuse_ratio".into(),
        if allocs + reuses > 0.0 {
            reuses / (allocs + reuses)
        } else {
            0.0
        },
    );
    let events = snapshot.events - alloc_events - reuse_events;
    put("obs.events".into(), events as f64);
    put("obs.dropped".into(), snapshot.dropped as f64);
    put("obs.events_per_request".into(), per_request(events as f64));

    // --- chunk plane: store counters summed over the resources.
    let plane = sys.engine.chunk_plane();
    let (mut chunks, mut hits, mut inserts, mut manifests) = (0, 0, 0, 0);
    for (_, res) in sys.resources() {
        let name = res.lock().name().to_owned();
        if let Some(s) = plane.store_stats(&name) {
            chunks += s.chunks;
            hits += s.hits;
            inserts += s.inserts;
        }
        manifests += plane.manifest_count(&name);
    }
    put("chunk.store_chunks".into(), chunks as f64);
    put("chunk.inserts".into(), inserts as f64);
    put("chunk.manifests".into(), manifests as f64);
    put(
        "chunk.dedup_hit_ratio".into(),
        if hits + inserts > 0 {
            hits as f64 / (hits + inserts) as f64
        } else {
            0.0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_core::{DatasetSpec, LocationHint};
    use msr_meta::ElementType;

    #[test]
    fn collects_storage_net_meta_and_obs_counts_of_a_tiny_session() {
        let sys = MsrSystem::testbed(9);
        let mut s = sys.session().app("t").iterations(1).build().unwrap();
        let spec = DatasetSpec::builder("d")
            .element(ElementType::U8)
            .cube(8)
            .hint(LocationHint::RemoteDisk)
            .build();
        let h = s.open(spec).unwrap();
        s.write_iteration(h, 0, &[1u8; 512]).unwrap();
        s.finalize().unwrap();
        let (mut virt, mut host) = (Numbers::new(), Numbers::new());
        collect(&sys, 1, &mut virt, &mut host);
        assert!(host["obs.snapshot_ms"] >= 0.0);
        assert_eq!(host["runtime.scratch_reuse_ratio"], 0.0, "nothing pooled");
        assert_eq!(virt["storage.rdisk.bytes_written"], 512.0);
        assert_eq!(virt["storage.local.bytes_written"], 0.0);
        assert!(
            virt["storage.rdisk.native_calls"] >= 3.0,
            "open, write, close"
        );
        assert!(virt["storage.rdisk.virtual_busy_s"] > 0.0);
        let f = virt["storage.fixed_cost_frac"];
        assert!(f > 0.0 && f < 1.0, "fixed share {f}");
        assert!(virt["net.transfers"] >= 1.0);
        assert!(virt.contains_key("meta.queries"));
        assert_eq!(virt["meta.datasets"], 1.0);
        assert!(virt["obs.events"] > 0.0);
        assert_eq!(virt["chunk.manifests"], 0.0);
    }
}
