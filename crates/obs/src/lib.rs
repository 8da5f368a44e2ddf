//! `msr-obs` — cross-layer observability for the multi-storage resource
//! architecture.
//!
//! Every architectural layer (storage native calls, network transfers, runtime
//! strategies, session lifecycle) emits structured [`Event`]s through a
//! [`Recorder`] — a cheap clonable handle that records each event straight
//! into a shared [`Registry`]. Exporters turn the collected
//! stream into JSON-lines, an aggregated [`MetricsSnapshot`] or Chrome
//! `trace_event` JSON (loadable in `about:tracing` / Perfetto). The stream
//! is for explaining a run; the performance database is filled by PTool
//! alone, and re-running the sweep is how predictions follow changed
//! conditions.
//!
//! Everything is timestamped with the simulation clock ([`msr_sim::SimTime`]), not
//! wall time: traces line up with predicted/actual comparisons.
//!
//! [`Event`] is what readers get. What is stored per event is a 48-byte
//! record with interned `resource` / `op` names, so recording a span or a
//! count on a known key allocates nothing. Under the registry's one lock,
//! each event gets the next `seq`, is folded into its per-(layer,
//! resource, op) row, so [`Registry::snapshot`] is exact at any event
//! count, and is pushed onto a window of the newest [`DEFAULT_CAPACITY`]
//! records, from which [`Registry::events`] builds the owned `Event`s on
//! demand.
//!
//! Building this crate with `default-features = false` compiles all record
//! calls down to empty inlined functions (no lock, no branch) — the
//! zero-cost "sink disabled" configuration.

// With the sink compiled out, the store has no writer.
#![cfg_attr(not(feature = "record"), allow(unused))]

mod event;
mod export;
mod metrics;
mod packed;
mod recorder;
mod registry;

pub use event::{Event, EventKind, Layer};
pub use export::{chrome_trace, jsonl};
pub use metrics::{GaugeStat, Histogram, MetricsSnapshot, OpMetrics};
pub use recorder::Recorder;
pub use registry::{Registry, DEFAULT_CAPACITY};

/// Canonical operation names for the eq. (1) native-call components and the
/// other layers' events, shared by emitters and readers of the stream.
pub mod ops {
    /// `T_conn`: connect to a storage server.
    pub const CONN: &str = "conn";
    /// `T_connclose`: tear down a connection.
    pub const CONNCLOSE: &str = "connclose";
    /// `T_open`: open a file.
    pub const OPEN: &str = "open";
    /// `T_seek`: position within a file.
    pub const SEEK: &str = "seek";
    /// `T_read(s)`: transfer bytes in.
    pub const READ: &str = "read";
    /// `T_write(s)`: transfer bytes out.
    pub const WRITE: &str = "write";
    /// `T_close`: close a file.
    pub const CLOSE: &str = "close";
    /// A failover re-placement (session layer).
    pub const FAILOVER: &str = "failover";
    /// A network transfer over the WAN link (network layer).
    pub const TRANSFER: &str = "transfer";
    /// A failed network transfer (network layer instant).
    pub const TRANSFER_FAILED: &str = "transfer_failed";
    /// A file delete (storage layer).
    pub const DELETE: &str = "delete";
    /// A metadata-catalog query (meta layer counter).
    pub const QUERY: &str = "query";
    /// Session start (session layer instant).
    pub const SESSION_INIT: &str = "session_init";
    /// Session end (session layer instant).
    pub const SESSION_FINALIZE: &str = "session_finalize";
    /// A dataset declared and placed (session layer instant).
    pub const DATASET_OPEN: &str = "dataset_open";
    /// A retried native call (runtime layer counter).
    pub const RETRY: &str = "retry";
    /// A backoff sleep charged to the timeline before a retry (runtime
    /// layer span).
    pub const BACKOFF: &str = "backoff";
    /// A circuit-breaker state change (core layer instant).
    pub const BREAKER: &str = "breaker";
    /// A read served stale from the staging cache because the
    /// authoritative resource is open-circuit (session layer instant).
    pub const DEGRADED_READ: &str = "degraded_read";
    /// Admission-queue depth after an enqueue/dequeue (sched layer gauge,
    /// keyed by resource).
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Time a request spent queued before its resource started serving it
    /// (sched layer span).
    pub const SCHED_WAIT: &str = "sched_wait";
    /// One dispatched batch of contiguous requests: the span covers the
    /// batch's service on its resource, `bytes` its payload (sched layer).
    pub const SCHED_DISPATCH: &str = "sched_dispatch";
    /// A session admitted to the scheduler (sched layer instant).
    pub const SESSION_ADMIT: &str = "session_admit";
    /// A session shed at admission — quota exceeded or predicted wait
    /// over the tenant's SLO with a shed policy (sched layer instant).
    pub const ADMIT_SHED: &str = "admit_shed";
    /// A session parked in the admission backpressure queue because its
    /// tenant's predicted wait exceeded its SLO (sched layer instant).
    pub const ADMIT_DEFER: &str = "admit_defer";
    /// A deferred session expired: its time-to-live elapsed before the
    /// predicted wait dropped under the SLO (sched layer instant).
    pub const ADMIT_EXPIRE: &str = "admit_expire";
    /// An admitted session cancelled mid-drain because its deadline can
    /// no longer be met under current predictions (sched layer instant).
    pub const SESSION_CANCEL: &str = "session_cancel";
    /// A scheduled request re-queued onto another resource after its
    /// placed resource failed or refused it (sched layer instant).
    pub const SCHED_REQUEUE: &str = "sched_requeue";
    /// A background prefetch fetch staged into the read-ahead cache: the
    /// span covers the fetch on the resource's background stream, `bytes`
    /// its payload (sched layer).
    pub const PREFETCH: &str = "prefetch";
    /// A queued read served from the read-ahead staging cache instead of
    /// the resource (sched layer counter).
    pub const PREFETCH_HIT: &str = "prefetch_hit";
    /// A staged prefetch that was never consumed — invalidated by a write,
    /// evicted, not ready in time, or the fetch itself failed (sched layer
    /// counter).
    pub const PREFETCH_WASTE: &str = "prefetch_waste";
    /// A prefetch candidate rejected by the cost-aware admission rule:
    /// the predicted fetch time exceeded the predicted idle window (sched
    /// layer counter).
    pub const PREFETCH_DECLINE: &str = "prefetch_decline";
    /// A fresh scratch buffer allocated by the engine pack/sieve phase
    /// (runtime layer counter).
    pub const SCRATCH_ALLOC: &str = "scratch_alloc";
    /// A pooled scratch buffer re-used by the engine pack/sieve phase
    /// (runtime layer counter).
    pub const SCRATCH_REUSE: &str = "scratch_reuse";
    /// A dataset migrated between storage resources — the span covers the
    /// whole staging transfer, `bytes` the data moved (meta layer).
    pub const MIGRATE: &str = "migrate";
    /// A dataset touched (dump written or read back) — the recency signal
    /// the lifecycle engine keys on (meta layer counter).
    pub const DATASET_ACCESS: &str = "dataset_access";
    /// One lifecycle engine pass over the catalog (meta layer counter).
    pub const LIFECYCLE_TICK: &str = "lifecycle_tick";
    /// A dump pruned by retention policy, `bytes` its size (meta layer).
    pub const PRUNE: &str = "prune";
    /// A resident tape dump moved to the vault (storage layer counter).
    pub const VAULT: &str = "vault";
    /// A vaulted dump recalled to the tape's resident store — the span
    /// covers the configured recall latency (storage layer).
    pub const RECALL: &str = "recall";
    /// A chunk already present in the destination's chunk store — its
    /// frame did not ship (runtime layer counter).
    pub const CHUNK_HIT: &str = "chunk_hit";
    /// A chunk absent at the destination whose frame had to ship
    /// (runtime layer counter).
    pub const CHUNK_SHIP: &str = "chunk_ship";
    /// Logical bytes dedup + compression avoided moving for one chunked
    /// dump (runtime layer counter; the value is bytes).
    pub const CHUNK_SAVED_BYTES: &str = "chunk_saved_bytes";
    /// Pack objects deleted after their last live frame's last reference
    /// was released (runtime layer counter).
    pub const CHUNK_GC: &str = "chunk_gc";
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_sim::{SimDuration, SimTime};

    fn at(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[cfg(feature = "record")]
    #[test]
    fn a_recorder_is_one_pointer() {
        assert_eq!(
            std::mem::size_of::<Recorder>(),
            std::mem::size_of::<usize>()
        );
    }

    #[cfg(feature = "record")]
    #[test]
    fn a_recorder_feeds_its_registry() {
        let reg = Registry::new();
        let rec = reg.recorder();
        for i in 0..10 {
            rec.span(
                Layer::Storage,
                "disk",
                ops::WRITE,
                at(i as f64),
                SimDuration::from_secs(0.5),
                1024,
            );
        }
        rec.instant(Layer::Session, "s0", "open", at(11.0), "dataset temp");
        let events = reg.events();
        assert_eq!(events.len(), 11);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events[0].bytes, 1024);
        assert_eq!(events[10].detail, "dataset temp");
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        rec.span(
            Layer::Storage,
            "disk",
            ops::READ,
            at(0.0),
            SimDuration::ZERO,
            0,
        );
    }

    #[cfg(feature = "record")]
    #[test]
    fn the_window_keeps_the_newest_and_the_metrics_count_all() {
        let reg = Registry::with_capacity(16);
        let rec = reg.recorder();
        for i in 0..100 {
            rec.span(Layer::App, "w", "tick", at(i as f64), SimDuration::ZERO, 1);
            rec.instant(Layer::App, "w", "mark", at(i as f64), &format!("why{i}"));
        }
        drop(rec);
        let snap = reg.snapshot();
        let ticks = snap.per_op.iter().find(|m| m.op == "tick").unwrap();
        assert_eq!((ticks.count, ticks.bytes), (100, 100));
        assert_eq!((snap.events, snap.evicted, snap.dropped), (200, 184, 0));
        assert_eq!((reg.evicted(), reg.dropped()), (184, 0));
        // The newest are the ones kept, each still with its own detail.
        let events = reg.events();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (184..200).collect::<Vec<u64>>());
        for e in &events {
            let detail = format!("why{}", e.seq / 2);
            assert_eq!(
                e.detail,
                if e.op == "mark" {
                    detail
                } else {
                    String::new()
                }
            );
        }
    }

    #[cfg(feature = "record")]
    #[test]
    fn interleaved_recorders_keep_order_and_details_across_the_window_bound() {
        let window = 100;
        let reg = Registry::with_capacity(window);
        let a = reg.recorder();
        let b = reg.recorder();
        let n = 135;
        for i in 0..n {
            a.instant(Layer::App, "a", "tick", at(i as f64), &format!("a{i}"));
            b.instant(Layer::App, "b", "tick", at(i as f64), &format!("b{i}"));
        }
        // The window is exactly the newest `window` events, in `seq` order.
        let events = reg.events();
        let kept: Vec<u64> = ((2 * n - window) as u64..2 * n as u64).collect();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), kept);
        for e in &events {
            assert_eq!(e.detail, format!("{}{}", e.resource, e.seq / 2));
        }
        assert_eq!(reg.evicted(), (2 * n - window) as u64);
    }

    #[cfg(feature = "record")]
    #[test]
    fn empty_keys_and_detail_round_trip() {
        let reg = Registry::new();
        let rec = reg.recorder();
        rec.span(Layer::App, "", "", at(1.0), SimDuration::from_secs(2.0), 7);
        rec.instant(Layer::App, "", "", at(3.0), "");
        rec.count(Layer::App, "", "", at(4.0), -0.0);
        rec.instant(Layer::App, "r", "o", at(5.0), "d");
        let events = reg.events();
        assert_eq!(events.len(), 4);
        for e in &events[..3] {
            assert_eq!((e.resource.as_str(), e.op.as_str()), ("", ""));
            assert_eq!(e.detail, "");
        }
        assert_eq!((events[0].kind, events[0].bytes), (EventKind::Span, 7));
        assert_eq!(events[0].dur, SimDuration::from_secs(2.0));
        assert_eq!((events[0].value, events[1].bytes), (0.0, 0));
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[2].kind, EventKind::Count);
        assert_eq!(events[2].value.to_bits(), (-0.0f64).to_bits());
        assert_eq!(events[2].bytes, 0);
        assert_eq!(events[3].detail, "d");
        let snap = reg.snapshot();
        assert_eq!(snap.per_op[0].resource, "");
        assert_eq!(snap.gauges[0].key, "app//");
    }

    #[cfg(feature = "record")]
    #[test]
    fn recorders_interleave_by_seq_across_a_flush_boundary() {
        let reg = Registry::new();
        let a = reg.recorder();
        let b = reg.recorder();
        let n = 135;
        for i in 0..n {
            a.instant(Layer::App, "a", "tick", at(i as f64), &format!("a{i}"));
            b.count(Layer::App, "b", "tick", at(i as f64), i as f64);
        }
        let events = reg.events();
        assert_eq!(events.len(), 2 * n);
        for (i, pair) in events.chunks(2).enumerate() {
            assert_eq!((pair[0].seq, pair[1].seq), (2 * i as u64, 2 * i as u64 + 1));
            assert_eq!(
                (pair[0].resource.as_str(), pair[1].resource.as_str()),
                ("a", "b")
            );
            assert_eq!(pair[0].detail, format!("a{i}"));
            assert_eq!(pair[1].value, i as f64);
        }
    }

    #[cfg(feature = "record")]
    #[test]
    fn snapshot_aggregates_per_op() {
        let reg = Registry::new();
        let rec = reg.recorder();
        for i in 0..4 {
            rec.span(
                Layer::Storage,
                "disk",
                ops::WRITE,
                at(i as f64),
                SimDuration::from_secs(1.0 + i as f64),
                1 << 20,
            );
        }
        rec.instant(Layer::Session, "s", ops::FAILOVER, at(9.0), "tape full");
        let snap = reg.snapshot();
        assert_eq!(snap.failovers, 1);
        let m = snap
            .per_op
            .iter()
            .find(|m| m.op == ops::WRITE)
            .expect("write metrics");
        assert_eq!(m.count, 4);
        assert_eq!(m.bytes, 4 << 20);
        assert!(m.p50_secs >= 1.0 && m.max_secs == 4.0);
        assert!(m.throughput_mb_s > 0.0);
    }

    #[cfg(feature = "record")]
    #[test]
    fn clear_forgets_the_rows_and_the_eviction_count() {
        let reg = Registry::with_capacity(4);
        let rec = reg.recorder();
        for i in 0..10 {
            rec.instant(Layer::App, "w", "tick", at(i as f64), "before");
            rec.count(Layer::App, "w", "depth", at(i as f64), 1.0);
        }
        assert_eq!(reg.snapshot().evicted, 16);
        reg.clear();
        rec.instant(Layer::App, "w", "tick", at(10.0), "");
        assert_eq!(reg.evicted(), 0);
        let snap = reg.snapshot();
        assert_eq!((snap.events, snap.evicted, snap.dropped), (1, 0, 0));
        assert!(snap.gauges.is_empty(), "the rows went with their events");
        assert_eq!(reg.events()[0].detail, "", "details went with their events");
    }

    #[cfg(feature = "record")]
    #[test]
    fn a_gauge_reads_its_latest_sample_whichever_recorder_sent_it() {
        let reg = Registry::new();
        let (early, late) = (reg.recorder(), reg.recorder());
        early.count(Layer::Sched, "r", "depth", at(0.0), 7.0);
        late.count(Layer::Sched, "r", "depth", at(1.0), 3.0);
        early.count(Layer::Sched, "r", "depth", at(2.0), 5.0);
        let g = &reg.snapshot().gauges[0];
        assert_eq!((g.count, g.last, g.max, g.sum), (3, 5.0, 7.0, 15.0));
    }

    #[cfg(not(feature = "record"))]
    #[test]
    fn disabled_build_records_nothing() {
        let reg = Registry::with_capacity(4);
        let rec = reg.recorder();
        assert!(!rec.enabled());
        for i in 0..10 {
            rec.span(
                Layer::Storage,
                "disk",
                ops::WRITE,
                at(i as f64),
                SimDuration::ZERO,
                1,
            );
            rec.instant(Layer::App, "w", "tick", at(i as f64), "why");
            rec.count(Layer::Meta, "catalog", ops::QUERY, at(i as f64), 1.0);
        }
        assert!(reg.events().is_empty());
        assert_eq!((reg.dropped(), reg.evicted()), (0, 0));
        assert_eq!(reg.snapshot().events, 0);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let reg = Registry::new();
        let rec = reg.recorder();
        rec.span(
            Layer::Runtime,
            "engine",
            "write:collective",
            at(1.0),
            SimDuration::from_secs(2.0),
            8 << 20,
        );
        rec.instant(Layer::Session, "s", ops::FAILOVER, at(2.0), "offline");
        let trace = chrome_trace(&reg.events());
        let v = serde_json::parse_value(&trace).expect("valid JSON");
        let obj = v.as_obj().expect("object");
        assert!(obj.contains_key("traceEvents"));
    }
}
