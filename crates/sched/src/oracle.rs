//! The retired round-robin dispatcher, kept compiled as the reference
//! the equivalence suite holds [`Scheduler::run`] to.
//!
//! What it keeps of its own: batch selection (one batch per resource per
//! round, in fixed resource order), round ordering (staged serves, then
//! resource results, then blocked batches), concurrent execution on the
//! worker pool, an unconditional plan walk per resource per round, and
//! the global round number as every contribution's `step`. What it shares
//! with the event engine: the leaf accounting on [`Drain`] (`serve_staged`,
//! `serve_batch`, `land_fetches`, `lifecycle_tick`), `requeue`, the queue
//! deal, the [`Prefetcher`](crate::prefetch::Prefetcher) and the
//! finalizer. A bug in a shared leaf is invisible to the equivalence
//! suite; `tests/sched_fingerprint.rs` pins absolute reports for that.

use crate::drain::Drain;
use crate::prefetch::{Fetched, RoundPlan};
use crate::report::SchedReport;
use crate::scheduler::{Queued, Scheduler, MAX_CHAIN};
use msr_core::{CoreError, CoreResult};
use msr_runtime::RequestOutcome;
use msr_storage::StorageKind;
use std::collections::BTreeMap;

/// A foreground batch's outcome: served requests, the unserved tail after
/// a mid-batch failure, and the failure.
type BatchResult = (Vec<(Queued, RequestOutcome)>, Vec<Queued>, Option<String>);

impl Scheduler<'_> {
    /// Drain every admitted session with the retired round-robin loop —
    /// the pre-event-engine dispatcher, kept compiled as the reference
    /// implementation for the equivalence test suite (integration tests
    /// cannot see `#[cfg(test)]` items, so it is hidden rather than
    /// test-gated). Semantics are frozen: in fault-free drains
    /// [`Scheduler::run`] must produce a bitwise-identical report.
    /// Deferred programs and deadlines are not policed here.
    #[doc(hidden)]
    pub fn run_round_based(mut self) -> CoreResult<SchedReport> {
        let sys = self.sys;
        let start = sys.clock.now();
        let mut drain = Drain::new(&mut self, start);
        let mut rounds = 0u64;

        loop {
            // One batch per resource per round, in fixed resource order. A
            // queue whose head is a staged-ready read is served from the
            // cache instead of dispatching to the resource.
            let mut staged_served: Vec<(StorageKind, Vec<Queued>)> = Vec::new();
            let mut picked: Vec<(StorageKind, Vec<Queued>)> = Vec::new();
            let mut blocked: Vec<(StorageKind, Vec<Queued>)> = Vec::new();
            for (&kind, q) in drain.queues.iter_mut() {
                let Some(tenant) = q.select() else { continue };
                let lane = q.lane_mut(tenant);
                if let Some(p) = drain.prefetcher.as_mut() {
                    let cursor = drain.cursors.get(&kind).copied().unwrap_or(start);
                    let mut run = Vec::new();
                    p.pop_staged_run_into(lane, cursor, &mut run);
                    if !run.is_empty() {
                        q.commit(tenant, run.iter().map(|i| i.est).sum());
                        staged_served.push((kind, run));
                        continue;
                    }
                }
                let Some(head) = lane.pop_front() else {
                    continue;
                };
                let mut batch = vec![head];
                while batch.len() < MAX_CHAIN
                    && lane
                        .front()
                        .is_some_and(|n| batch.last().unwrap().req.chains_with(&n.req))
                {
                    batch.push(lane.pop_front().unwrap());
                }
                q.commit(tenant, batch.iter().map(|i| i.est).sum());
                if sys.health.allows(kind) {
                    picked.push((kind, batch));
                } else {
                    blocked.push((kind, batch));
                }
            }
            if picked.is_empty() && blocked.is_empty() && staged_served.is_empty() {
                break;
            }
            rounds += 1;

            // Plan this round's background fetches against what is still
            // queued (on the dispatcher thread: planning is pure
            // prediction, no jitter draws).
            let mut plans: BTreeMap<StorageKind, RoundPlan> = BTreeMap::new();
            if let Some(p) = drain.prefetcher.as_mut() {
                for (&kind, q) in drain.queues.iter() {
                    let fg = drain.cursors.get(&kind).copied().unwrap_or(start);
                    if let (Some(plan), _) = p.plan(sys, &self.rec, kind, q, fg) {
                        sys.load.bg_enqueued(kind, plan.fetches.len());
                        plans.insert(kind, plan);
                    }
                }
            }

            // Execute the round's batches concurrently: each touches only
            // its own resource, so per-resource state stays deterministic.
            // A resource's planned fetches ride the same closure, after
            // its foreground batch, in plan order; plans on resources
            // with no foreground batch this round run as fetch-only tasks.
            let engine = &sys.engine;
            let mut tasks = Vec::new();
            for (kind, batch) in picked {
                tasks.push((kind, batch, plans.remove(&kind)));
            }
            for (kind, plan) in plans {
                tasks.push((kind, Vec::new(), Some(plan)));
            }
            let results: Vec<(StorageKind, BatchResult, Option<Fetched>)> = rayon::pool::execute(
                tasks
                    .into_iter()
                    .map(|(kind, batch, plan)| {
                        let res = sys.resource(kind).expect("placed on registered kind");
                        move || {
                            let mut served = Vec::new();
                            let mut unserved = Vec::new();
                            let mut error = None;
                            let mut pending = batch.into_iter();
                            for q in pending.by_ref() {
                                match engine.execute(&res, &q.req) {
                                    Ok(outcome) => served.push((q, outcome)),
                                    Err(e) => {
                                        error = Some(CoreError::from(e).to_string());
                                        unserved.push(q);
                                        break;
                                    }
                                }
                            }
                            unserved.extend(pending);
                            let fetched = plan.map(|plan| plan.execute(engine, &res));
                            (kind, (served, unserved, error), fetched)
                        }
                    })
                    .collect(),
            );

            // Serve this round's staged batches inline, before fetch
            // results can touch the cache.
            for (kind, batch) in staged_served {
                drain.serve_staged(kind, rounds, batch);
            }

            // Apply outcomes on this thread, in the round's fixed order.
            for (kind, (served, unserved, error), fetched) in results {
                let charged = !served.is_empty() || !unserved.is_empty() || error.is_some();
                drain.serve_batch(kind, rounds, charged, served);
                drain.land_fetches(kind, fetched);
                if let Some(reason) = error {
                    sys.health.record_failure(kind);
                    self.requeue(&mut drain, kind, unserved, &reason);
                }
            }
            for (kind, batch) in blocked {
                self.requeue(&mut drain, kind, batch, "circuit open");
            }

            if let Some(engine) = &self.lifecycle {
                if rounds.is_multiple_of(self.lifecycle_every) {
                    drain.lifecycle_tick(engine);
                }
            }
        }

        self.finalize_report(drain, rounds)
    }
}
