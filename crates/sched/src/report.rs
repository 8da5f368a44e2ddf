//! Per-session and scheduler-wide accounting for a scheduled run.

use msr_lifecycle::TickTotals;
use msr_runtime::IoReport;
use msr_sim::{SimDuration, SimTime};
use msr_storage::StorageKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One admitted session's accounting, folded back from the per-resource
/// queues. `reports` is in the session's program (sequence) order, so two
/// runs of the same workload can be compared bitwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Scheduler-assigned session id (admission order).
    pub session: u64,
    /// Application name.
    pub app: String,
    /// Catalog run id of the session.
    pub run: u64,
    /// Where each dataset ended up (after any failover re-queues).
    pub placements: BTreeMap<String, StorageKind>,
    /// Requests served.
    pub requests: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Sum of service time across the session's requests.
    pub io_time: SimDuration,
    /// Sum of time the session's requests spent queued before service.
    pub wait_time: SimDuration,
    /// Connection setup/teardown time charged to the session.
    pub conn_time: SimDuration,
    /// Virtual time the session's last request completed.
    pub completed_at: SimTime,
    /// Requests re-queued onto another resource after a failure or an
    /// open circuit.
    pub requeues: u32,
    /// Requests abandoned after exhausting re-queue attempts.
    pub errors: Vec<String>,
    /// Per-request reports in program order.
    pub reports: Vec<IoReport>,
    /// Name of the tenant the session ran under (`"default"` for
    /// untagged programs).
    #[serde(default)]
    pub tenant: String,
    /// p99 of the session's per-request queue waits (the tail-latency
    /// figure per-tenant SLOs are judged against).
    #[serde(default)]
    pub wait_p99: SimDuration,
    /// Why the session was cancelled mid-drain, if it was: its deadline
    /// became unreachable under current predictions. The report is then
    /// partial — served requests are accounted, queued ones dropped.
    #[serde(default)]
    pub cancelled: Option<String>,
}

/// The whole scheduled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedReport {
    /// Per-session accounting, in admission order.
    pub sessions: Vec<SessionReport>,
    /// Virtual time from first dispatch to last completion, connection
    /// teardown included.
    pub makespan: SimDuration,
    /// Bytes moved across all sessions.
    pub total_bytes: u64,
    /// Dispatch steps taken by the busiest resource: each resource counts
    /// the completion events that served it a batch, and this is the
    /// maximum.
    pub rounds: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Largest contiguous batch served in one dispatch.
    pub max_batch: usize,
    /// `total_bytes / makespan`, MB/s of virtual time.
    pub throughput_mb_s: f64,
    /// Reads the prefetcher staged into the cache (0 with prefetch off).
    pub prefetched: u64,
    /// Reads served from staged bytes at memory speed.
    pub prefetch_hits: u64,
    /// Staged buffers that were never served: overwritten, evicted,
    /// cache-declined, or beaten by their own on-demand serve.
    pub prefetch_waste: u64,
    /// Candidate reads whose predicted fetch did not fit the predicted
    /// idle window and were never fetched.
    pub prefetch_declined: u64,
    /// Lifecycle-engine totals across the run's between-step ticks (all
    /// zero with no lifecycle attached).
    #[serde(default)]
    pub lifecycle: TickTotals,
    /// Per-tenant accounting, in tenant-id order. Always at least the
    /// default tenant once any session ran.
    #[serde(default)]
    pub tenants: Vec<TenantReport>,
}

/// One tenant's view of the drain: how much service it received and how
/// the overload machinery treated it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Sessions that completed (or were cancelled) under this tenant.
    pub sessions: u64,
    /// Requests served.
    pub requests: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Programs rejected at admission (quota or SLO with a shed policy,
    /// or a full deferral queue).
    pub shed: u64,
    /// Programs parked in the admission backpressure queue at least once.
    pub deferred: u64,
    /// Deferred programs whose time-to-live elapsed unadmitted.
    pub expired: u64,
    /// Admitted sessions cancelled mid-drain by deadline enforcement.
    pub cancelled: u64,
    /// Worst p99 queue wait across the tenant's sessions.
    pub wait_p99: SimDuration,
}

impl SchedReport {
    /// Requests served across all sessions.
    pub fn requests(&self) -> u64 {
        self.sessions.iter().map(|s| s.requests).sum()
    }
}
