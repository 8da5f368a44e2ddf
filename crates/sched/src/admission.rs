//! Admission: eq. (2) pricing, the overload gate (quotas, SLO, deferral,
//! expiry), expansion of an admitted program into queued request keys,
//! and the deal of those keys into per-resource weighted-fair queues.

use crate::drain::{pop_chain, Acc, Deadline, Drain, Queues};
use crate::program::SessionProgram;
use crate::scheduler::{dispatch_overhead, Admitted, Base, Queued, Scheduler, MAX_CHAIN};
use msr_core::{placement, CoreError, CoreResult, OverloadPolicy, Tenant, TenantId, Volume};
use msr_obs::{ops, Layer};
use msr_runtime::{Distribution, IoStrategy, RequestTag};
use msr_sim::{SimDuration, SimTime};
use msr_storage::{OpKind, StorageKind};
use std::collections::{BTreeSet, VecDeque};

/// Per-tenant overload-machinery counters, folded into the report's
/// [`TenantReport`](crate::TenantReport)s.
#[derive(Default, Clone, Copy)]
pub(crate) struct TenantCounters {
    pub shed: u64,
    pub deferred: u64,
    pub expired: u64,
    pub cancelled: u64,
}

/// A program parked in the admission backpressure queue: its tenant's
/// predicted wait exceeded the SLO under a `Defer` overload policy. It is
/// re-priced as the drain progresses and admitted once the predicted wait
/// drops, or expired when `expires` passes unadmitted.
pub(crate) struct Deferred {
    program: SessionProgram,
    tenant: TenantId,
    expires: SimTime,
}

/// What one program would add to the system, resolved before any catalog
/// state is touched: the admission controller's input.
#[derive(Default)]
struct Pricing {
    requests: usize,
    kinds: BTreeSet<StorageKind>,
}

/// The admission controller's verdict on one program.
enum GateVerdict {
    Admit,
    Shed(CoreError),
    Defer { ttl: SimDuration },
}

impl Scheduler<'_> {
    /// Admit one program through the overload controller. The program is
    /// first *priced* — eq. (2) service estimates per request, summed
    /// against the tenant's quotas and the live load board — before any
    /// catalog state is touched:
    ///
    /// - over quota, or over the tenant's SLO with a [`OverloadPolicy::Shed`]
    ///   policy: the program is **shed** with a typed error
    ///   ([`CoreError::QuotaExceeded`] / [`CoreError::Rejected`]) and
    ///   nothing is opened;
    /// - over the SLO with a [`OverloadPolicy::Defer`] policy and room in
    ///   the backpressure queue: the program is **parked** (`Ok(None)`)
    ///   and retried as the drain progresses, expiring after its TTL;
    /// - otherwise it is **admitted**: its catalog session opens, its
    ///   datasets are placed (scored AUTO placement sees the current queue
    ///   depths), and it expands into queued request keys accounted on
    ///   the system's load board. Returns `Ok(Some(session_id))`.
    pub fn admit(&mut self, program: SessionProgram) -> CoreResult<Option<u64>> {
        let (tid, tenant) = self
            .sys
            .tenants
            .resolve_or_register(program.tenant.as_deref());
        self.tenant_names.insert(tid, tenant.name.clone());
        self.weights.insert(tid, tenant.weight);
        match self.admission_gate(&program, tid, &tenant)? {
            GateVerdict::Admit => Ok(Some(self.open_and_expand(&program, tid)?)),
            GateVerdict::Shed(e) => {
                self.tcounts.entry(tid).or_default().shed += 1;
                self.rec.instant(
                    Layer::Sched,
                    &tenant.name,
                    ops::ADMIT_SHED,
                    self.sys.clock.now(),
                    &format!("{}: {e}", program.app),
                );
                Err(e)
            }
            GateVerdict::Defer { ttl } => {
                self.tcounts.entry(tid).or_default().deferred += 1;
                let now = self.sys.clock.now();
                self.rec.instant(
                    Layer::Sched,
                    &tenant.name,
                    ops::ADMIT_DEFER,
                    now,
                    &format!("{}: parked for up to {:.3}s", program.app, ttl.as_secs()),
                );
                self.deferred.push_back(Deferred {
                    program,
                    tenant: tid,
                    expires: now + ttl,
                });
                Ok(None)
            }
        }
    }

    /// Price `program` without touching catalog state: how many requests
    /// it would queue and the resources it would land on. Placement is
    /// resolved with the same pure scoring the later open uses, so the
    /// admission decision prices what admission would do.
    fn price(&self, program: &SessionProgram) -> CoreResult<Pricing> {
        let sys = self.sys;
        let mut pricing = Pricing::default();
        for spec in &program.datasets {
            if spec.frequency == 0 {
                continue;
            }
            let dist = Distribution::new(spec.dims, spec.etype.size(), spec.pattern, program.grid)?;
            let run_bytes = spec.run_bytes(program.iterations);
            // The program's run is not opened yet: its volume is fresh,
            // as it will be when the open resolves the same placement.
            let volume = Volume::Fresh;
            let Some(kind) = placement::resolve(sys, spec, &dist, run_bytes, volume)? else {
                continue;
            };
            pricing.kinds.insert(kind);
            let dumps = (0..=program.iterations)
                .filter(|i| i.is_multiple_of(spec.frequency))
                .count();
            let reads = if program.readbacks > 0 {
                (program.readbacks as usize).min(dumps)
            } else {
                usize::from(program.readback)
            };
            pricing.requests += dumps + reads;
        }
        Ok(pricing)
    }

    /// The admission controller: quotas first, then the eq. (2) SLO check
    /// — predicted queue wait on the program's most backlogged target
    /// resource against the tenant's SLO.
    fn admission_gate(
        &mut self,
        program: &SessionProgram,
        tid: TenantId,
        tenant: &Tenant,
    ) -> CoreResult<GateVerdict> {
        let pricing = self.price(program)?;
        let usage = self.sys.load.tenant_usage(tid);
        let over_quota = |resource, used: u64, requested: u64, limit: u64| {
            Ok(GateVerdict::Shed(CoreError::QuotaExceeded {
                tenant: tenant.name.clone(),
                resource,
                used,
                requested,
                limit,
            }))
        };
        if let Some(cap) = tenant.quota.max_queued_requests {
            if usage.queued + pricing.requests > cap {
                return over_quota(
                    "queued requests",
                    usage.queued as u64,
                    pricing.requests as u64,
                    cap as u64,
                );
            }
        }
        if let Some(slo) = tenant.slo {
            let mut wait = SimDuration::ZERO;
            for &kind in &pricing.kinds {
                // The predicted service time already queued on `kind`, plus
                // one dispatch charge per batch it will be served in (full
                // batches assumed; a partial final batch still pays one).
                let backlog = SimDuration::from_secs(self.sys.load.predicted_backlog(kind));
                let batches = self.sys.load.depth(kind).div_ceil(MAX_CHAIN);
                wait = wait.max(backlog + dispatch_overhead() * batches as f64);
            }
            if wait > slo {
                let reject = || CoreError::Rejected {
                    tenant: tenant.name.clone(),
                    predicted_wait: wait,
                    slo,
                };
                return Ok(match tenant.overload {
                    OverloadPolicy::Shed => GateVerdict::Shed(reject()),
                    OverloadPolicy::Defer { max_deferred, ttl } => {
                        let parked = self.deferred.iter().filter(|d| d.tenant == tid).count();
                        if parked >= max_deferred {
                            GateVerdict::Shed(reject())
                        } else {
                            GateVerdict::Defer { ttl }
                        }
                    }
                });
            }
        }
        Ok(GateVerdict::Admit)
    }

    /// Open the program's catalog session, place its datasets, stage
    /// every dump as a queued key, price each one once through the
    /// session and book it on the system's load board. Every step that can
    /// fail comes before the first write to scheduler state, so a program
    /// that errors leaves nothing behind under the id the next admission
    /// takes.
    fn open_and_expand(&mut self, program: &SessionProgram, tid: TenantId) -> CoreResult<u64> {
        let (id, sys) = (self.admitted.len() as u64, self.sys);
        let mut session = sys
            .session()
            .app(&program.app)
            .user(&program.user)
            .iterations(program.iterations)
            .grid(program.grid)
            .build()?;
        let mut handles = Vec::with_capacity(program.datasets.len());
        for spec in &program.datasets {
            handles.push(session.open(spec.clone())?);
        }

        let mut requests = VecDeque::new();
        let mut bases = Vec::new();
        let mut kinds = BTreeSet::new();
        let mut seq = 0u64;
        // Keys are priced in queue order, so only the first on each
        // resource carries the mount of the run's volume.
        let mut met = BTreeSet::new();
        // Dataset-major expansion keeps one dataset's dumps at consecutive
        // sequence numbers, which is what makes them batchable.
        for (spec, &h) in program.datasets.iter().zip(&handles) {
            // Iteration 0 is on every schedule: a dataset that skips it is
            // DISABLEd, unplaced or never dumps.
            if !session.dumps_at(h, 0) {
                continue;
            }
            let kind = session.location(h).expect("dumping datasets are placed");
            kinds.insert(kind);
            let mut request = |seq, iter, op| {
                let est = session.price(h, kind, op, &mut met).as_secs();
                sys.load.enqueue(kind, tid, est);
                requests.push_back(Queued {
                    tag: RequestTag { session: id, seq },
                    handle: h,
                    iter,
                    op,
                    attempts: 0,
                    submitted: SimTime::EPOCH,
                    est,
                });
            };
            // Every dump is queued as its key; the session names it at
            // dispatch, and a write that needs its bytes gets them then,
            // from the dataset's base stream (see `Admitted::execute`).
            let mut dumps = Vec::new();
            for iter in (0..=program.iterations).filter(|&i| session.dumps_at(h, i)) {
                dumps.push(iter);
                request(seq, iter, OpKind::Write);
                seq += 1;
            }
            if spec.strategy != IoStrategy::Collective || spec.ingest.is_active() {
                bases.push(Base {
                    handle: h,
                    left: dumps.len(),
                    source: None,
                });
            }
            // Consumer reads at the end of the program. `readbacks` opens a
            // sequence hole first so the reads chain with each other and
            // not with the dumps — standalone read chains are what the
            // prefetcher can overlap with other sessions' writes.
            let consumer_reads = if program.readbacks > 0 {
                seq += 1;
                program.readbacks as usize
            } else {
                usize::from(program.readback)
            };
            for iter in dumps.into_iter().take(consumer_reads) {
                request(seq, iter, OpKind::Read);
                seq += 1;
            }
        }

        let now = sys.clock.now();
        for kind in kinds {
            let depth = sys.load.depth(kind) as f64;
            self.rec
                .count(Layer::Sched, kind.name(), ops::QUEUE_DEPTH, now, depth);
        }
        self.rec.instant(
            Layer::Sched,
            &program.app,
            ops::SESSION_ADMIT,
            now,
            &format!(
                "session {id}: {} requests, run{}",
                requests.len(),
                session.run_id().0
            ),
        );

        if let Some(d) = program.deadline {
            self.deadlines.insert(id, d);
        }
        self.admitted.push(Admitted {
            id,
            app: program.app.clone(),
            tenant: tid,
            session,
            requests,
            bases,
        });
        Ok(id)
    }

    /// Deal the next batchable run (same dataset, consecutive seqs, at
    /// most [`MAX_CHAIN`]) of session `idx`'s program onto its tenant's
    /// lane of the run's resource, each request's admission-time estimate
    /// added to `dealt_secs` in request order (float sums are
    /// order-sensitive). Returns the resource, or `None` once the program
    /// is exhausted. The program's staging is dropped once it is dealt.
    fn deal_chain(
        &mut self,
        idx: usize,
        submitted: SimTime,
        queues: &mut Queues,
        dealt_secs: &mut f64,
    ) -> Option<StorageKind> {
        let a = &mut self.admitted[idx];
        let mut chain = Vec::new();
        pop_chain(&mut a.requests, &mut chain, |_| true);
        if a.requests.is_empty() {
            a.requests = VecDeque::new();
        }
        // A chain is one session × one dataset, so its placement is a
        // single lookup, not one per request.
        let kind = a
            .session
            .location(chain.first()?.handle)
            .expect("queued datasets are placed");
        let q = queues.entry(kind).or_default();
        q.set_weight(
            a.tenant,
            self.weights.get(&a.tenant).copied().unwrap_or(1.0),
        );
        for item in chain {
            *dealt_secs += item.est;
            q.push_back(a.tenant, Queued { submitted, ..item });
        }
        Some(kind)
    }

    /// Deal every admitted session's requests into per-resource weighted-
    /// fair queues, round-robin across sessions at chain granularity: each
    /// turn takes one batchable run from each session, so no client's
    /// backlog buries another's. Within a resource, each tenant's requests
    /// land on its own lane — the start-time-fair virtual clock arbitrates
    /// between lanes at dispatch.
    pub(crate) fn build_queues(&mut self, submitted: SimTime) -> Queues {
        let mut queues = Queues::new();
        let mut dealt_secs = 0.0;
        loop {
            let mut any = false;
            for idx in 0..self.admitted.len() {
                any |= self
                    .deal_chain(idx, submitted, &mut queues, &mut dealt_secs)
                    .is_some();
            }
            if !any {
                return queues;
            }
        }
    }

    /// One pass over the backpressure queue: expire programs whose TTL
    /// elapsed, re-run the admission gate on the rest, and deal whatever
    /// now fits into the live queues (admitted at `now`; the session's
    /// chains keep program order — fairness against the sessions already
    /// draining comes from the WFQ lanes, not the deal). A program whose
    /// gate or open fails with a typed error (its resources went offline
    /// while it was parked, say) expires with that error as the reason:
    /// one parked program must not cost the drain its report, nor the
    /// programs queued behind it their verdict. With `force` (no resource
    /// is armed any more) every program gets a final verdict — admit or
    /// expire — so the drain always terminates. Returns whether anything
    /// was admitted.
    pub(crate) fn admit_deferred(&mut self, drain: &mut Drain, now: SimTime, force: bool) -> bool {
        let mut any = false;
        for d in std::mem::take(&mut self.deferred) {
            if now > d.expires {
                self.expire(&d, now, "ttl elapsed");
                continue;
            }
            let Some(tenant) = self.sys.tenants.get(d.tenant) else {
                self.expire(&d, now, "tenant unregistered");
                continue;
            };
            // `None`: the gate still says shed or defer.
            let opened = self
                .admission_gate(&d.program, d.tenant, &tenant)
                .and_then(|verdict| match verdict {
                    GateVerdict::Admit => self.open_and_expand(&d.program, d.tenant).map(Some),
                    _ => Ok(None),
                });
            let id = match opened {
                Ok(Some(id)) => id,
                Ok(None) if force => {
                    self.expire(&d, now, "still over limits with queues drained");
                    continue;
                }
                Ok(None) => {
                    self.deferred.push_back(d);
                    continue;
                }
                Err(e) => {
                    self.expire(&d, now, &e.to_string());
                    continue;
                }
            };
            let queued = self.admitted[id as usize].requests.len();
            let mut secs = 0.0f64;
            while let Some(kind) = self.deal_chain(id as usize, now, &mut drain.queues, &mut secs) {
                // A resource that was idle (cursor behind the frontier)
                // cannot have served this work before it arrived.
                let c = drain.cursors.entry(kind).or_insert(now);
                *c = (*c).max(now);
            }
            let a = &self.admitted[id as usize];
            drain.busy.insert(a.session.run_id());
            drain.accs.push(Acc::new(a.tenant, now));
            if let Some(dl) = d.program.deadline {
                let at = now + dl;
                drain.deadlines.insert(id, Deadline { at, queued, secs });
            }
            drain.dirty_gates();
            any = true;
        }
        any
    }

    /// Count and record one deferred program dropped unadmitted.
    fn expire(&mut self, d: &Deferred, at: SimTime, why: &str) {
        self.tcounts.entry(d.tenant).or_default().expired += 1;
        let tenant = self
            .tenant_names
            .get(&d.tenant)
            .cloned()
            .unwrap_or_default();
        self.rec.instant(
            Layer::Sched,
            &tenant,
            ops::ADMIT_EXPIRE,
            at,
            &format!("{}: {why}", d.program.app),
        );
    }
}
