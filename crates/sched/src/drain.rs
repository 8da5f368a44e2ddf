//! One drain's state and the one serve path.
//!
//! [`Drain`] owns everything a drain mutates — the per-resource queues and
//! cursors, the per-session accumulators, deadline bookkeeping, the
//! read-ahead state and the whole-drain counters — and [`Drain::serve`] is
//! the single place one served request is accounted on the scheduler's
//! side: queue wait, cursor advance, load-board release and the session's
//! [`Contrib`]. The completion itself (per-dataset totals, catalog
//! recency) is handed to the owning [`Session`](msr_core::Session), which
//! accounts a scheduled dump exactly as it accounts a direct one. The
//! event loop in [`crate::scheduler`] decides *what* to serve and
//! accounts it here.

use crate::event::PlanGate;
use crate::prefetch::{Fetched, Prefetcher, RoundPlan};
use crate::scheduler::{dispatch_overhead, Admitted, Queued, Scheduler, MAX_CHAIN};
use crate::wfq::WfqQueue;
use msr_core::{MsrSystem, TenantId, MAX_TRIES};
use msr_lifecycle::{LifecycleEngine, TickTotals};
use msr_meta::{RunId, QUERY_COST};
use msr_obs::{ops, Layer, Recorder};
use msr_runtime::{EngineRequest, IoReport, RequestOutcome};
use msr_sim::{SimDuration, SimTime};
use msr_storage::{OpKind, StorageKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub(crate) type Queues = BTreeMap<StorageKind, WfqQueue<Queued>>;

/// Per-session accumulator while the queues drain, indexed by session id.
pub(crate) struct Acc {
    pub tenant: TenantId,
    pub reports: Vec<(u64, IoReport)>,
    pub contribs: Vec<Contrib>,
    pub bytes: u64,
    pub completed: SimTime,
    pub requeues: u32,
    pub errors: Vec<String>,
    pub cancelled: Option<String>,
}

impl Acc {
    pub fn new(tenant: TenantId, admitted_at: SimTime) -> Acc {
        Acc {
            tenant,
            reports: Vec::new(),
            contribs: Vec::new(),
            bytes: 0,
            completed: admitted_at,
            requeues: 0,
            errors: Vec::new(),
            cancelled: None,
        }
    }
}

/// Which serve produced a contribution: inline from the staging cache, or
/// a result from the resource. Orders before/after within one step.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Phase {
    Staged,
    OnDemand,
}

/// One served request's timing contribution to its session's totals.
/// Float sums are order-sensitive, so the finalizer folds a session's
/// contributions in one fixed order, the one `tests/sched_fingerprint.rs`
/// pins: sorted (stably) by `(step, phase, kind)`, where `step` is the
/// serving resource's own dispatch-step count.
pub(crate) struct Contrib {
    pub step: u64,
    pub phase: Phase,
    pub kind: StorageKind,
    pub wait: SimDuration,
    pub io: SimDuration,
}

/// A session's deadline and the predicted work it still has queued.
pub(crate) struct Deadline {
    /// The deadline, as an absolute virtual instant.
    pub at: SimTime,
    /// Requests the session still has queued.
    pub queued: usize,
    /// Their summed predicted service seconds.
    pub secs: f64,
}

/// Release one of `session`'s queued requests of `secs` from its deadline
/// bookkeeping. A session with nothing left queued can no longer miss its
/// deadline and leaves the books.
fn release(deadlines: &mut BTreeMap<u64, Deadline>, session: u64, secs: f64) {
    let Some(d) = deadlines.get_mut(&session) else {
        return;
    };
    d.queued -= 1;
    d.secs -= secs;
    if d.queued == 0 {
        deadlines.remove(&session);
    }
}

/// One batch being applied to its resource's cursor.
struct Batch {
    kind: StorageKind,
    comp: &'static str,
    step: u64,
    phase: Phase,
    start: SimTime,
    bytes: u64,
    served: usize,
}

/// Everything one drain mutates. Built once per `run`; the scheduler's
/// own fields (the admitted sessions, tenant counters, the deferral
/// queue) stay on [`Scheduler`].
pub(crate) struct Drain<'a> {
    sys: &'a MsrSystem,
    rec: Recorder,
    pub start: SimTime,
    pub queues: Queues,
    /// Per-resource foreground cursors: when each resource comes free.
    pub cursors: BTreeMap<StorageKind, SimTime>,
    pub accs: Vec<Acc>,
    /// Admitted runs: off-limits to the lifecycle engine for the drain.
    pub busy: BTreeSet<RunId>,
    /// Deadline bookkeeping, for sessions that declared one and still
    /// have work queued.
    pub deadlines: BTreeMap<u64, Deadline>,
    gates: BTreeMap<StorageKind, PlanGate>,
    /// Per-resource dispatch-step counts: each contribution's `step`, and
    /// their maximum is [`SchedReport::rounds`](crate::SchedReport::rounds).
    steps: BTreeMap<StorageKind, u64>,
    pub prefetcher: Option<Prefetcher>,
    pub batches: u64,
    pub max_batch: usize,
    pub lifecycle: TickTotals,
}

impl<'a> Drain<'a> {
    /// Deal every admitted session into per-resource queues and zero the
    /// drain's accounting at `start`.
    pub fn new(sched: &mut Scheduler<'a>, start: SimTime) -> Drain<'a> {
        let queues = sched.build_queues(start);
        let mut deadlines = BTreeMap::new();
        for (&id, &d) in &sched.deadlines {
            let (at, queued, secs) = (start + d, 0, 0.0);
            deadlines.insert(id, Deadline { at, queued, secs });
        }
        if !deadlines.is_empty() {
            for item in queues.values().flat_map(|q| q.iter()) {
                if let Some(d) = deadlines.get_mut(&item.tag.session) {
                    d.queued += 1;
                    d.secs += item.est;
                }
            }
        }
        Drain {
            sys: sched.sys,
            rec: sched.rec.clone(),
            start,
            cursors: queues.keys().map(|&k| (k, start)).collect(),
            queues,
            accs: sched
                .admitted
                .iter()
                .map(|a| Acc::new(a.tenant, start))
                .collect(),
            busy: sched.admitted.iter().map(|a| a.session.run_id()).collect(),
            deadlines,
            gates: BTreeMap::new(),
            steps: BTreeMap::new(),
            prefetcher: sched.prefetch.then(Prefetcher::new),
            batches: 0,
            max_batch: 0,
            lifecycle: TickTotals::default(),
        }
    }

    /// When `kind` next comes free.
    pub fn cursor(&self, kind: StorageKind) -> SimTime {
        self.cursors.get(&kind).copied().unwrap_or(self.start)
    }

    /// Keep `kind` busy for `d` more: connection setup a session paid
    /// outside any served request.
    pub fn charge(&mut self, kind: StorageKind, d: SimDuration) {
        *self.cursors.entry(kind).or_insert(self.start) += d;
    }

    /// The latest foreground cursor: how far the drain has progressed.
    pub fn frontier(&self) -> SimTime {
        self.cursors.values().fold(self.start, |m, &t| m.max(t))
    }

    /// Where the drain ends: the frontier, background fetch streams
    /// included, so time spent prefetching never disappears from the
    /// makespan.
    pub fn end(&self) -> SimTime {
        let bg = self.prefetcher.iter().flat_map(|p| p.bg_cursors.values());
        bg.fold(self.frontier(), |m, &t| m.max(t))
    }

    /// Advance and return `kind`'s dispatch-step count, the key that
    /// orders its contributions.
    pub fn next_step(&mut self, kind: StorageKind) -> u64 {
        let s = self.steps.entry(kind).or_insert(0);
        *s += 1;
        *s
    }

    /// Dispatch steps taken by the busiest resource.
    pub fn rounds(&self) -> u64 {
        self.steps.values().copied().max().unwrap_or(0)
    }

    /// Arm every resource with pending work and no event in flight: a
    /// step's own leftovers, and any queue a requeue or a deferred
    /// admission just landed work on. O(resources), resources are few.
    pub fn rearm(&self, armed: &mut BTreeMap<StorageKind, SimTime>) {
        for (&kind, q) in &self.queues {
            if !q.is_empty() {
                armed.entry(kind).or_insert_with(|| self.cursor(kind));
            }
        }
    }

    /// Force the next planning walk on every resource: the queues changed
    /// shape under the gates.
    pub fn dirty_gates(&mut self) {
        for g in self.gates.values_mut() {
            g.dirty = true;
        }
    }

    /// The pop phase: select the WFQ lane whose head batch
    /// has the smallest start tag, then pop a staged-ready run off that
    /// lane's head if the prefetcher has one landed, otherwise one chained
    /// batch, into `out` (empty on entry). The popped batch's eq. (2) cost
    /// advances the lane's virtual finish tag — weighted-fair arbitration.
    /// Returns whether the batch is a staged run.
    pub fn pop_batch(
        &mut self,
        admitted: &[Admitted],
        kind: StorageKind,
        out: &mut Vec<Queued>,
    ) -> bool {
        let cursor = self.cursor(kind);
        let q = self.queues.entry(kind).or_default();
        let Some(tenant) = q.select() else {
            return false;
        };
        let lane = q.lane_mut(tenant);
        if let Some(p) = self.prefetcher.as_mut() {
            p.pop_staged_run_into(admitted, lane, cursor, out);
        }
        let staged = !out.is_empty();
        if !staged {
            pop_chain(lane, out, |_| true);
        }
        if !out.is_empty() {
            q.commit(tenant, out.iter().map(|i| i.est).sum());
        }
        staged
    }

    /// Plan `kind`'s background fetches for the current step against the
    /// post-pop queue and the pre-application foreground cursor, skipping
    /// the queue walk when the gate proves it side-effect-free.
    pub fn plan_step(&mut self, admitted: &[Admitted], kind: StorageKind) -> Option<RoundPlan> {
        let fg = self.cursor(kind);
        let p = self.prefetcher.as_mut()?;
        let gate = self.gates.entry(kind).or_default();
        if !gate.needs_walk() {
            return None;
        }
        let q = self.queues.get(&kind)?;
        let (plan, walked) = p.plan(self.sys, &self.rec, admitted, kind, q, fg);
        if let Some(undecided) = walked {
            gate.walked(undecided);
        }
        plan
    }

    /// Land a step's executed fetches in the staging cache.
    pub fn land_fetches(&mut self, kind: StorageKind, fetched: Option<Fetched>) {
        let Some(fetched) = fetched else { return };
        let p = self.prefetcher.as_mut().expect("fetches imply prefetch");
        p.apply_fetches(&self.rec, kind, fetched);
    }

    /// Serve a staged-ready run from the staging cache: one dispatch
    /// charge plus a memcpy per read — no resource, no jitter. A read
    /// whose staged copy vanished goes back to its queue head for
    /// on-demand service.
    pub fn serve_staged(
        &mut self,
        admitted: &mut [Admitted],
        kind: StorageKind,
        step: u64,
        batch: impl IntoIterator<Item = Queued>,
    ) {
        let mut b = self.open_batch(kind, step, Phase::Staged);
        let mut leftovers = Vec::new();
        for item in batch {
            let p = self
                .prefetcher
                .as_mut()
                .expect("staged runs imply prefetch");
            let a = &admitted[item.tag.session as usize];
            let req = a.session.request(item.handle, item.iter, item.tag, None);
            let outcome = p
                .take(a.file(&item))
                .and_then(|data| self.sys.engine.staged_read(b.comp, &req, &data).ok());
            match outcome {
                Some(outcome) => self.serve(admitted, &mut b, item, req, outcome.into_report()),
                None => leftovers.push(item),
            }
        }
        self.close_batch(b);
        let q = self.queues.entry(kind).or_default();
        for item in leftovers.into_iter().rev() {
            q.push_front(self.accs[item.tag.session as usize].tenant, item);
        }
    }

    /// Apply a foreground batch's outcomes: one dispatch charge, then each
    /// report advances the resource cursor.
    pub fn serve_batch(
        &mut self,
        admitted: &mut [Admitted],
        kind: StorageKind,
        step: u64,
        served: impl IntoIterator<Item = (Queued, EngineRequest, RequestOutcome)>,
    ) {
        let mut b = self.open_batch(kind, step, Phase::OnDemand);
        for (item, req, outcome) in served {
            self.serve(admitted, &mut b, item, req, outcome.into_report());
        }
        self.close_batch(b);
    }

    fn open_batch(&mut self, kind: StorageKind, step: u64, phase: Phase) -> Batch {
        let cursor = self.cursors.entry(kind).or_insert(self.start);
        let start = *cursor;
        *cursor += dispatch_overhead();
        Batch {
            kind,
            comp: kind.name(),
            step,
            phase,
            start,
            bytes: 0,
            served: 0,
        }
    }

    /// Account one served request, `item` as the session named it (`req`)
    /// — the single definition both serve kinds share. In order: the
    /// queue-wait span, the cursor advance, the load-board release, the
    /// deadline checker's remaining work, the owning session's completion
    /// accounting, and the session's report and timing contribution.
    fn serve(
        &mut self,
        admitted: &mut [Admitted],
        b: &mut Batch,
        item: Queued,
        req: EngineRequest,
        report: IoReport,
    ) {
        let (sys, kind) = (self.sys, b.kind);
        let (bytes, io) = (report.bytes, report.elapsed);
        let cursor = self.cursors.get_mut(&kind).expect("batch opened on cursor");
        let wait = cursor.since(item.submitted);
        self.rec.span(
            Layer::Sched,
            b.comp,
            ops::SCHED_WAIT,
            item.submitted,
            wait,
            bytes,
        );
        *cursor += io;
        let at = *cursor;
        b.bytes += bytes;
        b.served += 1;
        // (An on-demand serve closed the breaker in `Session::execute`,
        // when the resource answered.)
        if b.phase == Phase::Staged {
            let p = self
                .prefetcher
                .as_mut()
                .expect("staged runs imply prefetch");
            p.hits += 1;
            self.rec
                .count(Layer::Sched, b.comp, ops::PREFETCH_HIT, at, 1.0);
        }
        let session = item.tag.session;
        let tenant = self.accs[session as usize].tenant;
        let depth = sys.load.dequeue(kind, tenant, item.est);
        self.rec
            .count(Layer::Sched, b.comp, ops::QUEUE_DEPTH, at, depth as f64);
        if let (Phase::OnDemand, Some(p)) = (b.phase, self.prefetcher.as_mut()) {
            let file = admitted[session as usize].file(&item);
            if p.note_foreground(&self.rec, b.comp, file, &req, at) {
                self.gates.entry(kind).or_default().dirty = true;
            }
        }
        release(&mut self.deadlines, session, item.est);
        let acc = &mut self.accs[session as usize];
        // Per-dataset totals and the catalog's dump rows and recency, so a
        // lifecycle engine (this run's or a later one's) sees what is cold.
        admitted[session as usize]
            .session
            .complete(item.handle, item.iter, &req, &report, at);
        acc.contribs.push(Contrib {
            step: b.step,
            phase: b.phase,
            kind,
            wait,
            io,
        });
        acc.reports.push((item.tag.seq, report));
        acc.bytes += bytes;
        acc.completed = acc.completed.max(at);
    }

    fn close_batch(&mut self, b: Batch) {
        if b.served == 0 {
            return;
        }
        self.batches += 1;
        self.max_batch = self.max_batch.max(b.served);
        self.rec.span(
            Layer::Sched,
            b.comp,
            ops::SCHED_DISPATCH,
            b.start,
            self.cursor(b.kind).since(b.start),
            b.bytes,
        );
    }

    /// Between-step lifecycle tick, on the dispatcher thread. The global
    /// clock first catches up to the drain's frontier so the engine's idle
    /// windows see virtual time passing; `advance_to` is a monotonic max,
    /// so the final makespan advance still lands wherever is latest.
    pub fn lifecycle_tick(&mut self, engine: &LifecycleEngine) {
        self.sys.clock.advance_to(self.frontier());
        self.lifecycle
            .absorb(&engine.tick_excluding(self.sys, &self.busy));
    }

    /// Remove and return every session whose remaining predicted work can
    /// no longer finish by its deadline with the drain at `frontier`.
    pub fn take_doomed(&mut self, frontier: SimTime) -> Vec<u64> {
        let doomed: Vec<u64> = self
            .deadlines
            .iter()
            .filter(|(_, d)| d.secs > 0.0 && frontier + SimDuration::from_secs(d.secs) > d.at)
            .map(|(&id, _)| id)
            .collect();
        for id in &doomed {
            self.deadlines.remove(id);
        }
        doomed
    }
}

/// Pop the maximal batchable run at the head of `q` — contiguous requests
/// of one session and dataset, at most [`MAX_CHAIN`], each one `take`
/// accepts — onto `out`.
pub(crate) fn pop_chain(
    q: &mut VecDeque<Queued>,
    out: &mut Vec<Queued>,
    take: impl Fn(&Queued) -> bool,
) {
    while out.len() < MAX_CHAIN
        && q.front()
            .is_some_and(|next| take(next) && out.last().is_none_or(|prev| prev.chains_with(next)))
    {
        out.extend(q.pop_front());
    }
}

impl Scheduler<'_> {
    /// Cancel an admitted session mid-drain: everything it still has
    /// queued is removed and released from the load board, its
    /// accumulator is marked cancelled and the cancellation counts against
    /// its tenant. Requests already served
    /// stay accounted — the session's report finalizes partial.
    pub(crate) fn cancel_session(&mut self, drain: &mut Drain, id: u64, at: SimTime) {
        let tid = drain.accs[id as usize].tenant;
        let mut dropped = 0usize;
        for (&kind, q) in drain.queues.iter_mut() {
            let removed = q.drain_matching(|item| item.tag.session == id);
            if removed.is_empty() {
                continue;
            }
            let mut depth = 0;
            for item in &removed {
                depth = self.sys.load.dequeue(kind, tid, item.est);
            }
            self.rec.count(
                Layer::Sched,
                kind.name(),
                ops::QUEUE_DEPTH,
                at,
                depth as f64,
            );
            dropped += removed.len();
        }
        let reason = format!("deadline unreachable: {dropped} queued requests dropped");
        self.tcounts.entry(tid).or_default().cancelled += 1;
        let a = &mut self.admitted[id as usize];
        a.bases.clear();
        let app = &a.app;
        self.rec
            .instant(Layer::Sched, app, ops::SESSION_CANCEL, at, &reason);
        drain.accs[id as usize].cancelled = Some(reason);
        drain.dirty_gates();
    }

    /// Move a failed (or breaker-refused) write batch — and everything
    /// else the same dataset still has queued on `from` — to wherever the
    /// owning session re-places the dataset, the step a direct session
    /// fails over through. The catalog query and the connection setup are
    /// charged on the fallback's cursor. Requests that exhaust
    /// [`MAX_TRIES`] are abandoned into the session's error list. A read
    /// never re-places its dataset: its head request is dropped instead
    /// ([`drop_head`](Self::drop_head)).
    pub(crate) fn requeue(
        &mut self,
        drain: &mut Drain,
        from: StorageKind,
        mut items: Vec<Queued>,
        reason: &str,
    ) {
        let sys = self.sys;
        // A batch is one session × one dataset (see `pop_chain`).
        let Some(first) = items.first() else { return };
        if first.op == OpKind::Read {
            let why = format!("read gave up on {from}: {reason}");
            return self.drop_head(drain, from, items, &why);
        }
        let (sid, handle, iter) = (first.tag.session, first.handle, first.iter);
        // Drag along the dataset's later requests still waiting on `from`,
        // preserving their order behind the failed batch.
        if let Some(q) = drain.queues.get_mut(&from) {
            items.extend(q.drain_matching(|item| item.tag.session == sid && item.handle == handle));
        }
        let a = &mut self.admitted[sid as usize];
        let next = a.session.replace(handle, iter, from, reason).ok();
        // The fallback may be a resource no session of this drain holds a
        // link to: set it up before the first moved request is dispatched.
        // A refused connect is left for that dispatch to fail on.
        if let Some(to) = next {
            drain.charge(to, QUERY_COST);
            if let Ok(setup) = a.session.connect(to) {
                drain.charge(to, setup);
            }
        }
        let tid = drain.accs[sid as usize].tenant;
        for q in &items {
            sys.load.dequeue(from, tid, q.est);
        }
        let acc = &mut drain.accs[sid as usize];
        let Some(to) = next else {
            for q in items {
                a.settle(&q);
                release(&mut drain.deadlines, sid, q.est);
                acc.errors
                    .push(format!("{}: no usable resource ({reason})", q.tag));
            }
            return drain.dirty_gates();
        };
        let n = items.len();
        self.rec.instant(
            Layer::Sched,
            from.name(),
            ops::SCHED_REQUEUE,
            sys.clock.now(),
            &format!(
                "s{sid}/{}: {from} -> {to} ({reason}, {n} requests)",
                a.session.spec(handle).name
            ),
        );
        acc.requeues += n as u32;
        let weight = self.weights.get(&tid).copied().unwrap_or(1.0);
        let target = drain.queues.entry(to).or_default();
        target.set_weight(tid, weight);
        for mut q in items {
            q.attempts += 1;
            if q.attempts >= MAX_TRIES {
                a.settle(&q);
                release(&mut drain.deadlines, sid, q.est);
                acc.errors
                    .push(format!("{} gave up after {} attempts", q.tag, q.attempts));
            } else {
                // Re-price on the fallback resource, each request alone:
                // the backlog and the deadline checker track where the
                // work now queues.
                let est = a
                    .session
                    .price(handle, to, q.op, &mut BTreeSet::new())
                    .as_secs();
                sys.load.enqueue(to, tid, est);
                if let Some(d) = drain.deadlines.get_mut(&sid) {
                    d.secs = d.secs - q.est + est;
                }
                q.est = est;
                target.push_back(tid, q);
            }
        }
        drain.dirty_gates();
    }

    /// Abandon the head of a batch that failed on `from` without moving
    /// it — a Fatal error, or a read, which never re-places its dataset —
    /// into its session's errors with `why`. The head leaves the load
    /// board and the deadline books; the rest of the batch goes back to
    /// the head of its lane, as `serve_staged`'s leftovers do.
    pub(crate) fn drop_head(
        &mut self,
        drain: &mut Drain,
        from: StorageKind,
        items: Vec<Queued>,
        why: &str,
    ) {
        let mut items = items.into_iter();
        let Some(head) = items.next() else { return };
        let sid = head.tag.session;
        self.admitted[sid as usize].settle(&head);
        let acc = &mut drain.accs[sid as usize];
        let tid = acc.tenant;
        self.sys.load.dequeue(from, tid, head.est);
        release(&mut drain.deadlines, sid, head.est);
        acc.errors.push(format!("{}: {why}", head.tag));
        let q = drain.queues.entry(from).or_default();
        for item in items.rev() {
            q.push_front(tid, item);
        }
    }
}
