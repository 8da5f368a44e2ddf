//! The admission scheduler: many concurrent sessions against one
//! [`MsrSystem`].
//!
//! **Admission** opens a real catalog [`Session`] per program, which
//! resolves each dataset's placement (the scored AUTO policy reads this
//! scheduler's live queue depths off the system's
//! [`LoadBoard`](msr_core::LoadBoard)), and queues each dump as a key the
//! session names as a tagged [`EngineRequest`] only at dispatch. The
//! session stays the owner of each dataset's dump lifecycle for the whole
//! drain: the scheduler decides *when* and *where in the queue*; naming,
//! execution, completion accounting and re-placement are the session's
//! steps (see `msr_core::session`).
//!
//! **Dispatch** is discrete-event: requests are dealt into per-resource
//! FIFO queues (interleaved across sessions at chain granularity so no
//! client starves), and each resource with queued work holds one armed
//! completion time (see `crate::event`). When a resource comes free its
//! event fires, the dispatcher pops at most one *batch* — a maximal run of
//! contiguous requests from the same session and dataset, capped at
//! [`MAX_CHAIN`] — executes it, and re-arms the resource at its advanced
//! cursor. Sessions wake lazily (a session is touched only when the
//! resource at its queue head comes free), so one dispatch step costs
//! O(resources + batch) no matter how many sessions are admitted. Events
//! are totally ordered by `(time, resource)` and every outcome is computed
//! from seeded jitter streams on the dispatcher thread, which keeps
//! per-session accounting bitwise identical at any `MSR_THREADS`.
//!
//! **Virtual time** is tracked as one cursor per resource: a request's
//! service starts at its resource's cursor, its wait is the cursor minus
//! its submission instant, and the run's makespan is the latest cursor —
//! so concurrent sessions overlap across resources instead of serializing
//! on the global clock, which is advanced once at the end of the drain.
//!
//! **Failure handling** is the direct path's policy; the scheduler keeps
//! only the queue mechanics. The owning session decides a failed request
//! ([`Session::failed`], which charges the breaker), and a resource whose
//! circuit is open is never dispatched to. A failed or refused write
//! re-places its dataset ([`Session::replace`], the step `write_iteration`
//! fails over through): the dataset's queued requests move to wherever it
//! landed, and the catalog query and the connection setup are charged on
//! that resource's cursor. A read never re-places its dataset. A Fatal
//! error, or a failed or refused read, drops only the request at the head
//! into its session's errors; the rest of the batch goes back to the head
//! of its lane.
//!
//! **Read-ahead** (opt-in via [`Scheduler::with_prefetch`]) walks the
//! tail of each resource's admitted queue at each of its dispatch steps,
//! prices every future remote read with the eq. (2) estimate it was
//! admitted with ([`MsrSystem::price`]), and stages the ones whose predicted fetch
//! fits inside the predicted idle window before their chain is served.
//! Fetches run as a *background stream* on the resource — accounted on a
//! separate background cursor that overlaps the foreground cursor — and
//! read each dump as an on-demand read would (a chunked one through its
//! manifest). What they read lands in a shared
//! [`StagingCache`](msr_runtime::StagingCache) as the resource keeps it: a
//! dump stored as its recipe is staged as that recipe, and no byte of it
//! is made, because the drain keeps only a served read's report. When a
//! staged read reaches the head of its queue it is served at memory speed
//! instead of paying the remote resource again. Planning, admission and
//! serving all happen on the dispatcher thread, and each resource's
//! fetches execute right after its foreground batch, so the determinism
//! contract (bitwise identical per-session reports at any `MSR_THREADS`)
//! is preserved with prefetch on. A fetch that fails is dropped silently — the read falls
//! back to the normal on-demand path and the session never sees the error.

use crate::admission::{Deferred, TenantCounters};
use crate::drain::Drain;
use crate::event::{pop_next, Scratch};
use crate::program::PayloadSource;
use crate::report::SchedReport;
use msr_core::{CoreResult, DatasetHandle, MsrSystem, Session, TenantId};
use msr_lifecycle::LifecycleEngine;
use msr_obs::Recorder;
use msr_runtime::{EngineRequest, RequestBody, RequestOutcome, RequestTag};
use msr_sim::{SimDuration, SimTime};
use msr_storage::{OpKind, Payload, StorageKind};
use std::collections::{BTreeMap, VecDeque};

/// Fixed virtual cost of dispatching one batch to a resource (queue
/// bookkeeping, placement lookup). Contiguous requests served in one batch
/// share a single charge — the benefit batching exists to win.
pub fn dispatch_overhead() -> SimDuration {
    SimDuration::from_millis(2.0)
}

/// Longest contiguous run of one session's requests served in a single
/// batch. Bounds how long a bursty client can monopolize a resource.
pub const MAX_CHAIN: usize = 8;

/// How many fired events between deferred-admission retries (and between
/// deadline-feasibility sweeps) in the event engine.
const DEFER_RETRY_EVERY: u64 = 8;

/// One admitted session. Its id is its index in [`Scheduler::admitted`].
pub(crate) struct Admitted<'a> {
    pub id: u64,
    pub app: String,
    pub tenant: TenantId,
    /// Owner of every dataset's dump lifecycle: names the requests,
    /// executes them, accounts their completions and re-places on failure.
    pub session: Session<'a>,
    /// The expanded program not yet dealt into queues, as keys (see
    /// [`Queued`]; `submitted` is stamped by the deal). Dropped once the
    /// program is dealt.
    pub requests: VecDeque<Queued>,
    /// The base streams of the datasets whose writes need their bytes
    /// (chunked ingest, or a strategy other than `Collective`).
    pub bases: Vec<Base>,
}

/// The base stream one dataset's writes are made from at dispatch. The
/// stream is generated on the dataset's first dispatched write and
/// dropped once its last has left the queues, so a session holds at most
/// one base per dataset it is writing, not every dump it has queued.
pub(crate) struct Base {
    pub handle: DatasetHandle,
    /// The dataset's writes not yet served or abandoned.
    pub left: usize,
    pub source: Option<PayloadSource>,
}

/// A dump's file: its session, dataset and catalog dump row. An
/// `OverWrite` dataset's dumps share one.
pub(crate) type File = (u64, DatasetHandle, u32);

impl Admitted<'_> {
    /// Have the owning session name queued request `q` and execute it.
    /// A write carries its recipe, or, for a dataset with a [`Base`], its
    /// bytes made from the base stream for this call only: the named
    /// request returned with the outcome carries the recipe again.
    pub fn execute(
        &mut self,
        q: &Queued,
    ) -> CoreResult<(EngineRequest, RequestOutcome, SimDuration)> {
        let (id, spec) = (self.id, self.session.spec(q.handle));
        let len = spec.snapshot_bytes() as usize;
        let recipe = Payload::dump(id, &spec.name, q.iter, len);
        let data = (q.op == OpKind::Write).then(|| {
            match self.bases.iter_mut().find(|b| b.handle == q.handle) {
                Some(base) => (base.source)
                    .get_or_insert_with(|| PayloadSource::new(id, &spec.name, len))
                    .dump(q.iter)
                    .into(),
                None => recipe.clone(),
            }
        });
        let mut req = self.session.request(q.handle, q.iter, q.tag, data);
        let (outcome, setup) = self.session.execute(q.handle, &req)?;
        if let RequestBody::Write { data, .. } = &mut req.body {
            *data = recipe;
        }
        self.settle(q);
        Ok((req, outcome, setup))
    }

    /// `q` has left the queues, served or abandoned: after the last write
    /// of its dataset, the dataset's base stream is dropped.
    pub fn settle(&mut self, q: &Queued) {
        if q.op != OpKind::Write {
            return;
        }
        if let Some(i) = self.bases.iter().position(|b| b.handle == q.handle) {
            self.bases[i].left -= 1;
            if self.bases[i].left == 0 {
                self.bases.swap_remove(i);
            }
        }
    }

    /// The file `q` writes or reads.
    pub fn file(&self, q: &Queued) -> File {
        let row = self.session.spec(q.handle).amode.dump_row(q.iter);
        (q.tag.session, q.handle, row)
    }
}

/// A scheduled request as the queues hold it: a key the owning session
/// names the request from at dispatch ([`Admitted::execute`]), with no
/// heap data of its own.
pub(crate) struct Queued {
    pub tag: RequestTag,
    /// The dataset (in the owning session) and iteration the request
    /// dumps or reads back, and which of the two.
    pub handle: DatasetHandle,
    pub iter: u32,
    pub op: OpKind,
    pub attempts: u32,
    pub submitted: SimTime,
    /// eq. (1) predicted service time (seconds) on the request's current
    /// resource — the WFQ batch cost, the load board's backlog unit, the
    /// prefetch planner's window unit and the deadline checker's
    /// remaining-work unit. Priced once at admission ([`Session::price`])
    /// and again on requeue.
    pub est: f64,
}

impl Queued {
    /// Whether `next` can join a batch behind this request: same session
    /// and dataset, consecutive program order.
    pub fn chains_with(&self, next: &Queued) -> bool {
        self.tag.session == next.tag.session
            && self.handle == next.handle
            && next.tag.seq == self.tag.seq + 1
    }
}

/// The scheduler. Admit programs, then [`run`](Scheduler::run) to drain.
pub struct Scheduler<'a> {
    pub(crate) sys: &'a MsrSystem,
    pub(crate) rec: Recorder,
    pub(crate) admitted: Vec<Admitted<'a>>,
    pub(crate) prefetch: bool,
    pub(crate) lifecycle: Option<LifecycleEngine>,
    pub(crate) lifecycle_every: u64,
    /// Admission backpressure queue, in defer order.
    pub(crate) deferred: VecDeque<Deferred>,
    pub(crate) tcounts: BTreeMap<TenantId, TenantCounters>,
    /// Tenant names and WFQ weights captured at admission time.
    pub(crate) tenant_names: BTreeMap<TenantId, String>,
    pub(crate) weights: BTreeMap<TenantId, f64>,
    /// Per-session completion deadlines (virtual time from admission).
    pub(crate) deadlines: BTreeMap<u64, SimDuration>,
}

impl<'a> Scheduler<'a> {
    /// A scheduler over `sys`. Nothing is queued until programs are
    /// admitted. Prediction-driven read-ahead is off until
    /// [`with_prefetch`](Scheduler::with_prefetch) turns it on.
    pub fn new(sys: &'a MsrSystem) -> Scheduler<'a> {
        Scheduler {
            sys,
            rec: sys.obs_recorder(),
            admitted: Vec::new(),
            prefetch: false,
            lifecycle: None,
            lifecycle_every: 4,
            deferred: VecDeque::new(),
            tcounts: BTreeMap::new(),
            tenant_names: BTreeMap::new(),
            weights: BTreeMap::new(),
            deadlines: BTreeMap::new(),
        }
    }

    /// Attach a lifecycle engine: between dispatch steps (every
    /// [`lifecycle_every`](Scheduler::lifecycle_every) fired events, on the
    /// dispatcher thread) it prunes, demotes and vaults datasets
    /// whose runs are *not* admitted here — in-flight data is never moved
    /// under a queued request. Ticks derive from a single catalog snapshot
    /// in fixed order, so attaching an engine keeps reports bitwise
    /// identical at any `MSR_THREADS`.
    pub fn with_lifecycle(mut self, engine: LifecycleEngine) -> Self {
        self.lifecycle = Some(engine);
        self
    }

    /// Tick the attached lifecycle engine every `n` fired events
    /// (default 4; clamped to at least 1). No effect without
    /// [`with_lifecycle`](Scheduler::with_lifecycle).
    pub fn lifecycle_every(mut self, n: u64) -> Self {
        self.lifecycle_every = n.max(1);
        self
    }

    /// Enable or disable prediction-driven read-ahead for this run.
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// Programs currently parked in the admission backpressure queue.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Drain every admitted session's requests and return the run's
    /// accounting. Consumes the scheduler: the catalog sessions are
    /// finalized (disconnect costs charged) on the way out, and the global
    /// clock is advanced to the scheduled makespan.
    ///
    /// Dispatch is discrete-event: each resource with queued work holds
    /// one armed completion time, the earliest `(time, kind)` fires (see
    /// `crate::event`), and each fired event serves exactly one batch — a
    /// staged-ready run or a chained queue head — on that resource, plans
    /// and executes its background fetches, then re-arms the resource at
    /// its advanced cursor. Sessions wake lazily (a session is touched
    /// only when the resource at its queue head comes free), so one
    /// dispatch step is O(resources + batch) no matter how many sessions
    /// are admitted, and reports are independent of `MSR_THREADS`.
    pub fn run(mut self) -> CoreResult<SchedReport> {
        let sys = self.sys;
        let mut drain = Drain::new(&mut self, sys.clock.now());
        let mut armed: BTreeMap<StorageKind, SimTime> = BTreeMap::new();
        let mut scratch: Scratch<Queued, (Queued, EngineRequest, RequestOutcome)> = Scratch::new();
        let mut fired = 0u64;
        drain.rearm(&mut armed);

        loop {
            while let Some(kind) = pop_next(&mut armed) {
                scratch.batch.clear();
                let staged = drain.pop_batch(&self.admitted, kind, &mut scratch.batch);
                if !scratch.batch.is_empty() {
                    let step = drain.next_step(kind);
                    fired += 1;

                    if staged {
                        // Staged-serve step: plan and fetch on the
                        // resource, then serve the staged batch from
                        // memory and land the fetches.
                        let fetched = drain.plan_step(&self.admitted, kind).map(|plan| {
                            let res = sys.resource(kind).expect("placed on registered kind");
                            plan.execute(&sys.engine, &res)
                        });
                        drain.serve_staged(&mut self.admitted, kind, step, scratch.batch.drain(..));
                        drain.land_fetches(kind, fetched);
                    } else if !sys.health.allows(kind) {
                        // Open circuit: never dispatch to the resource — a
                        // write batch (and the rest of its dataset's queue)
                        // drains to the fallback, a read batch loses its
                        // head. No plan either: the planner refuses
                        // unhealthy resources.
                        let batch = std::mem::take(&mut scratch.batch);
                        self.requeue(&mut drain, kind, batch, "circuit open");
                    } else {
                        // Normal step: plan fetches, execute the foreground
                        // batch inline, then the fetches, in plan order — a
                        // fixed per-resource op order, so every seeded jitter
                        // stream draws identically at any pool width.
                        let plan = drain.plan_step(&self.admitted, kind);
                        scratch.served.clear();
                        scratch.unserved.clear();
                        let mut error = None;
                        let mut pending = scratch.batch.drain(..);
                        for q in pending.by_ref() {
                            let a = &mut self.admitted[q.tag.session as usize];
                            match a.execute(&q) {
                                Ok((req, outcome, setup)) => {
                                    drain.charge(kind, setup);
                                    scratch.served.push((q, req, outcome));
                                }
                                Err(e) => {
                                    // The session's one failure rule,
                                    // `write_iteration`'s too.
                                    error = Some(a.session.failed(kind, &e).ok_or(e));
                                    scratch.unserved.push(q);
                                    break;
                                }
                            }
                        }
                        scratch.unserved.extend(pending);
                        let fetched = plan.map(|plan| {
                            let res = sys.resource(kind).expect("placed on registered kind");
                            plan.execute(&sys.engine, &res)
                        });

                        drain.serve_batch(&mut self.admitted, kind, step, scratch.served.drain(..));
                        drain.land_fetches(kind, fetched);
                        if let Some(failed) = error {
                            let unserved = std::mem::take(&mut scratch.unserved);
                            match failed {
                                Ok(reason) => self.requeue(&mut drain, kind, unserved, reason),
                                Err(fatal) => {
                                    self.drop_head(&mut drain, kind, unserved, &fatal.to_string())
                                }
                            }
                        }
                    }

                    // Lifecycle tick every `lifecycle_every` fired events.
                    if let Some(lc) = &self.lifecycle {
                        if fired.is_multiple_of(self.lifecycle_every) {
                            drain.lifecycle_tick(lc);
                        }
                    }

                    // Deadline enforcement: cancel any session whose remaining
                    // predicted work can no longer finish by its deadline —
                    // its queued requests are dropped and its partial report
                    // finalizes with the cancellation reason.
                    if !drain.deadlines.is_empty() {
                        let frontier = drain.frontier();
                        for id in drain.take_doomed(frontier) {
                            self.cancel_session(&mut drain, id, frontier);
                        }
                    }

                    // Backpressure retry: re-price parked programs against the
                    // drained-down load board every few events.
                    if !self.deferred.is_empty() && fired.is_multiple_of(DEFER_RETRY_EVERY) {
                        let frontier = drain.frontier();
                        self.admit_deferred(&mut drain, frontier, false);
                    }
                }
                drain.rearm(&mut armed);
            }

            // No resource is armed. Give every still-parked program a
            // final verdict — admit what fits a fully drained backlog,
            // expire the rest — and keep draining if anything landed.
            if self.deferred.is_empty() {
                break;
            }
            let frontier = drain.frontier();
            let admitted_any = self.admit_deferred(&mut drain, frontier, true);
            drain.rearm(&mut armed);
            if !admitted_any {
                break;
            }
        }

        self.finalize_report(drain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_core::DatasetSpec;

    #[test]
    fn a_queued_request_is_a_small_key() {
        let size = std::mem::size_of::<Queued>();
        assert!(size <= 64, "Queued is {size} bytes");
    }

    #[test]
    fn chaining_requires_same_session_dataset_and_adjacent_seq() {
        let sys = MsrSystem::testbed(5);
        let mut session = sys.session().app("app").build().unwrap();
        let d = session.open(DatasetSpec::builder("d").build()).unwrap();
        let e = session.open(DatasetSpec::builder("e").build()).unwrap();
        let key = |session, seq, handle| Queued {
            tag: RequestTag { session, seq },
            handle,
            iter: 0,
            op: OpKind::Write,
            attempts: 0,
            submitted: SimTime::EPOCH,
            est: 0.0,
        };
        let a = key(1, 0, d);
        assert!(a.chains_with(&key(1, 1, d)));
        assert!(!a.chains_with(&key(1, 2, d)), "gap in program order");
        assert!(!a.chains_with(&key(2, 1, d)), "different session");
        assert!(!a.chains_with(&key(1, 1, e)), "different dataset");
    }
}
