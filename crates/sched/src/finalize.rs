//! Fold a finished drain into the [`SchedReport`].

use crate::drain::Drain;
use crate::report::{SchedReport, SessionReport, TenantReport};
use crate::scheduler::Scheduler;
use msr_core::{CoreResult, TenantId};
use msr_sim::SimDuration;
use std::collections::BTreeMap;

impl Scheduler<'_> {
    /// Advance the global clock to the drain's end (the drain overlapped
    /// sessions across resources; the clock moves once, to the latest
    /// cursor), finalize every catalog session (disconnect costs charged)
    /// in admission order, and compute the whole-run totals.
    pub(crate) fn finalize_report(mut self, drain: Drain) -> CoreResult<SchedReport> {
        let start = drain.start;
        let rounds = drain.rounds();
        debug_assert_eq!(self.admitted.len(), drain.accs.len());
        self.sys.clock.advance_to(drain.end());
        // Fold the drain's chunk-plane transfer observations into the
        // ratio book at a deterministic point: the drain is complete, so
        // every dataset's observations arrived in dump order and the
        // per-dataset EWMA folds are order-independent across datasets.
        // The learned ratios price the *next* drain's admission and
        // prefetch decisions.
        self.sys.sync_ratios();

        let tenant_name = |tid: TenantId| {
            self.tenant_names
                .get(&tid)
                .cloned()
                .unwrap_or_else(|| tid.to_string())
        };
        let mut sessions = Vec::new();
        let mut total_bytes = 0u64;
        // Per-tenant rollup: the overload counters plus session totals, in
        // tenant-id order (deterministic across thread counts).
        let mut tmap: BTreeMap<TenantId, TenantReport> = BTreeMap::new();
        for (&tid, c) in &self.tcounts {
            let e = tmap.entry(tid).or_default();
            e.shed = c.shed;
            e.deferred = c.deferred;
            e.expired = c.expired;
            e.cancelled = c.cancelled;
        }
        for (a, mut acc) in std::mem::take(&mut self.admitted)
            .into_iter()
            .zip(drain.accs)
        {
            acc.reports.sort_by_key(|&(seq, _)| seq);
            // Fold timing contributions in `(step, phase, kind)` order
            // (stable, so intra-batch order is kept): float sums are
            // order-sensitive and this is the order the fingerprints pin.
            acc.contribs.sort_by_key(|c| (c.step, c.phase, c.kind));
            let mut wait_time = SimDuration::ZERO;
            let mut io_time = SimDuration::ZERO;
            for c in &acc.contribs {
                wait_time += c.wait;
                io_time += c.io;
            }
            // p99 queue wait: the tail-latency figure tenant SLOs are
            // judged against. Sorted with total_cmp so the pick is
            // deterministic for every float pattern.
            let wait_p99 = {
                let mut waits: Vec<f64> = acc.contribs.iter().map(|c| c.wait.as_secs()).collect();
                waits.sort_by(|x, y| x.total_cmp(y));
                if waits.is_empty() {
                    SimDuration::ZERO
                } else {
                    let idx = ((waits.len() as f64 * 0.99).ceil() as usize).clamp(1, waits.len());
                    SimDuration::from_secs(waits[idx - 1])
                }
            };
            let fin = a.session.finalize()?;
            let placements = fin
                .datasets
                .into_iter()
                .filter_map(|d| Some((d.name, d.location?)))
                .collect();
            total_bytes += acc.bytes;
            let requests = acc.reports.len() as u64;
            let e = tmap.entry(a.tenant).or_default();
            e.sessions += 1;
            e.requests += requests;
            e.bytes += acc.bytes;
            e.wait_p99 = e.wait_p99.max(wait_p99);
            sessions.push(SessionReport {
                session: a.id,
                app: a.app,
                run: fin.run.0,
                placements,
                requests,
                bytes: acc.bytes,
                io_time,
                wait_time,
                conn_time: fin.conn_time,
                completed_at: acc.completed,
                requeues: acc.requeues,
                errors: acc.errors,
                reports: acc.reports.into_iter().map(|(_, r)| r).collect(),
                tenant: tenant_name(a.tenant),
                wait_p99,
                cancelled: acc.cancelled,
            });
        }
        for (&tid, e) in &mut tmap {
            e.tenant = tenant_name(tid);
        }

        let makespan = self.sys.clock.now().since(start);
        let throughput_mb_s = if makespan > SimDuration::ZERO {
            total_bytes as f64 / makespan.as_secs() / 1e6
        } else {
            0.0
        };
        let (prefetched, prefetch_hits, prefetch_waste, prefetch_declined) = drain
            .prefetcher
            .map(|p| (p.staged, p.hits, p.waste, p.declines))
            .unwrap_or_default();
        Ok(SchedReport {
            sessions,
            makespan,
            total_bytes,
            rounds,
            batches: drain.batches,
            max_batch: drain.max_batch,
            throughput_mb_s,
            prefetched,
            prefetch_hits,
            prefetch_waste,
            prefetch_declined,
            lifecycle: drain.lifecycle,
            tenants: tmap.into_values().collect(),
        })
    }
}
