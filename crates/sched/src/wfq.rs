//! Weighted-fair queueing over per-tenant lanes.
//!
//! Each storage resource used to hold one FIFO `VecDeque` of queued
//! requests, so one backlogged tenant owned a resource until its queue
//! drained. [`WfqQueue`] replaces that with *start-time fair queueing*
//! (SFQ): one FIFO lane per tenant, a queue-wide virtual time, and a
//! per-lane finish tag. Selecting the next lane to serve takes the
//! smallest *start tag* `S = max(vtime, lane.finish)`; after serving a
//! batch of predicted cost `c` (eq. (1) service-time estimates, in
//! seconds) the queue sets `vtime = S` and the lane's finish tag to
//! `S + c / weight`. While several lanes stay backlogged each receives
//! service in proportion to its weight; an idle lane accumulates no
//! credit (its stale finish tag is clamped up to `vtime` on return), so
//! a bursty tenant cannot save up bandwidth and flood the resource
//! later.
//!
//! Determinism: lanes live in a `BTreeMap` keyed by [`TenantId`], tags
//! are exact `f64` arithmetic on model-derived estimates, and ties break
//! toward the smaller tenant id — nothing depends on host time, thread
//! count or hash order. With a single lane (every session on the default
//! tenant) `select` always returns that lane and the structure *is* a
//! plain FIFO.

use msr_core::TenantId;
use std::collections::{BTreeMap, VecDeque};

struct Lane<T> {
    items: VecDeque<T>,
    weight: f64,
    /// Finish tag of the last batch this lane was served.
    finish: f64,
}

/// A per-resource ready queue: one FIFO lane per tenant under start-time
/// fair queueing. See the module docs for the discipline.
pub(crate) struct WfqQueue<T> {
    lanes: BTreeMap<TenantId, Lane<T>>,
    /// Queue-wide virtual time: the start tag of the last served batch.
    vtime: f64,
}

impl<T> Default for WfqQueue<T> {
    fn default() -> Self {
        WfqQueue {
            lanes: BTreeMap::new(),
            vtime: 0.0,
        }
    }
}

impl<T> WfqQueue<T> {
    /// Ensure `tenant`'s lane exists with `weight` (clamped positive).
    /// Updating the weight of an existing lane is allowed and takes
    /// effect from the next commit.
    pub fn set_weight(&mut self, tenant: TenantId, weight: f64) {
        self.lane(tenant).weight = if weight > 0.0 { weight } else { 1.0 };
    }

    /// Append `item` to `tenant`'s lane (created at weight 1 if needed).
    pub fn push_back(&mut self, tenant: TenantId, item: T) {
        self.lane(tenant).items.push_back(item);
    }

    /// Put `item` back at the head of `tenant`'s lane (a leftover from a
    /// partially-served batch).
    pub fn push_front(&mut self, tenant: TenantId, item: T) {
        self.lane(tenant).items.push_front(item);
    }

    /// `tenant`'s lane, created at weight 1 if needed.
    fn lane(&mut self, tenant: TenantId) -> &mut Lane<T> {
        self.lanes.entry(tenant).or_insert_with(|| Lane {
            items: VecDeque::new(),
            weight: 1.0,
            finish: 0.0,
        })
    }

    /// The lane to serve next: smallest start tag `max(vtime, finish)`
    /// over non-empty lanes, ties to the smaller tenant id. `None` when
    /// every lane is empty.
    pub fn select(&self) -> Option<TenantId> {
        let mut best: Option<(f64, TenantId)> = None;
        for (&t, lane) in &self.lanes {
            if lane.items.is_empty() {
                continue;
            }
            let start = self.vtime.max(lane.finish);
            // Strict `<` keeps the earliest (smallest-id) lane on ties.
            if best.is_none_or(|(b, _)| start < b) {
                best = Some((start, t));
            }
        }
        best.map(|(_, t)| t)
    }

    /// Mutable access to `tenant`'s lane FIFO, for popping batches (and
    /// the prefetcher's staged-run pops). The lane must exist — callers
    /// pop from a tenant [`select`](WfqQueue::select) just returned.
    pub fn lane_mut(&mut self, tenant: TenantId) -> &mut VecDeque<T> {
        &mut self
            .lanes
            .get_mut(&tenant)
            .expect("selected lane exists")
            .items
    }

    /// Account one served batch of predicted cost `cost` (seconds)
    /// against `tenant`: advance virtual time to the batch's start tag
    /// and the lane's finish tag by `cost / weight`.
    pub fn commit(&mut self, tenant: TenantId, cost: f64) {
        let lane = self.lanes.get_mut(&tenant).expect("committed lane exists");
        let start = self.vtime.max(lane.finish);
        self.vtime = start;
        lane.finish = start + cost.max(0.0) / lane.weight;
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.values().all(|l| l.items.is_empty())
    }

    /// Total queued items across lanes.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.lanes.values().map(|l| l.items.len()).sum()
    }

    /// Walk every queued item, lanes in tenant-id order, FIFO within a
    /// lane — the deterministic order the prefetch planner prices the
    /// queue in. With one lane this is exactly the old FIFO walk.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.lanes.values().flat_map(|l| l.items.iter())
    }

    /// Remove every item matching `pred` (lane order, FIFO within a
    /// lane), returning them — requeue traffic dragging a dataset's
    /// remaining requests, and deadline cancellation removing a whole
    /// session's queued batches.
    pub fn drain_matching(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut out = Vec::new();
        for lane in self.lanes.values_mut() {
            let mut rest = VecDeque::new();
            while let Some(item) = lane.items.pop_front() {
                if pred(&item) {
                    out.push(item);
                } else {
                    rest.push_back(item);
                }
            }
            lane.items = rest;
        }
        out
    }

    /// Current queue-wide virtual time (tests).
    #[cfg(test)]
    fn vtime(&self) -> f64 {
        self.vtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG for randomized arrival orders (no host entropy:
    /// property runs must be reproducible).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn queue_with(weights: &[(u32, f64)]) -> WfqQueue<u32> {
        let mut q = WfqQueue::default();
        for &(t, w) in weights {
            q.set_weight(TenantId(t), w);
        }
        q
    }

    /// Serve the queue dry with unit-cost batches, recording the tenant
    /// order.
    fn drain_order(q: &mut WfqQueue<u32>) -> Vec<u32> {
        let mut order = Vec::new();
        while let Some(t) = q.select() {
            q.lane_mut(t).pop_front().unwrap();
            q.commit(t, 1.0);
            order.push(t.0);
        }
        order
    }

    #[test]
    fn single_lane_is_fifo() {
        let mut q = queue_with(&[(0, 1.0)]);
        for i in 0..10u32 {
            q.push_back(TenantId(0), i);
        }
        let mut popped = Vec::new();
        while let Some(t) = q.select() {
            popped.push(q.lane_mut(t).pop_front().unwrap());
            q.commit(t, 2.5);
        }
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn virtual_time_is_monotone_under_random_arrivals() {
        let mut rng = Lcg(0xfa12);
        for _ in 0..50 {
            let mut q = queue_with(&[(0, 1.0), (1, 4.0), (2, 0.5)]);
            for i in 0..60u32 {
                q.push_back(TenantId((rng.below(3)) as u32), i);
            }
            let mut last = q.vtime();
            while let Some(t) = q.select() {
                q.lane_mut(t).pop_front().unwrap();
                q.commit(t, 0.25 + rng.below(8) as f64);
                assert!(
                    q.vtime() >= last,
                    "virtual time went backwards: {} < {last}",
                    q.vtime()
                );
                last = q.vtime();
                // Mid-drain arrivals must not rewind time either.
                if rng.below(4) == 0 {
                    q.push_back(TenantId(rng.below(3) as u32), 99);
                }
                if q.len() > 200 {
                    break; // bound the mid-drain arrival loop
                }
            }
        }
    }

    #[test]
    fn work_conservation_never_idles_while_backlogged() {
        // As long as any lane has items, select() must produce a lane —
        // regardless of how lopsided the finish tags are.
        let mut rng = Lcg(7);
        for _ in 0..50 {
            let mut q = queue_with(&[(0, 8.0), (1, 1.0)]);
            for i in 0..40u32 {
                q.push_back(TenantId(rng.below(2) as u32), i);
            }
            let total = q.len();
            let mut served = 0;
            while !q.is_empty() {
                let t = q.select().expect("backlogged queue must select a lane");
                q.lane_mut(t).pop_front().unwrap();
                q.commit(t, rng.below(100) as f64);
                served += 1;
            }
            assert_eq!(served, total);
            assert!(q.select().is_none());
        }
    }

    #[test]
    fn share_is_weight_proportional_within_a_bounded_window() {
        // Two continuously-backlogged unit-cost tenants at weights 3:1.
        // In any window of the service order, tenant 0's share must stay
        // within one batch of 3/4.
        let mut q = queue_with(&[(0, 3.0), (1, 1.0)]);
        for i in 0..400u32 {
            q.push_back(TenantId(i % 2), i);
        }
        let order = drain_order(&mut q);
        // Share proportionality only holds while both lanes stay
        // backlogged: at 3:1 the heavy lane's 200 items drain around serve
        // 266, so check windows strictly before that.
        let backlogged = &order[..240];
        for window in 8..=64usize {
            for chunk in backlogged.chunks(window) {
                if chunk.len() < window {
                    continue;
                }
                let heavy = chunk.iter().filter(|&&t| t == 0).count() as f64;
                let expected = window as f64 * 0.75;
                assert!(
                    (heavy - expected).abs() <= 1.0 + window as f64 * 0.05,
                    "window {window}: heavy tenant served {heavy}, expected ~{expected}"
                );
            }
        }
    }

    #[test]
    fn share_holds_under_randomized_arrival_orders() {
        let mut rng = Lcg(0xabcdef);
        for trial in 0..20 {
            let mut q = queue_with(&[(0, 2.0), (1, 1.0), (2, 1.0)]);
            // Random interleaving, equal totals per tenant, all present
            // before the drain starts (continuous backlog).
            let mut remaining = [120u32; 3];
            while remaining.iter().any(|&r| r > 0) {
                let t = rng.below(3) as usize;
                if remaining[t] > 0 {
                    remaining[t] -= 1;
                    q.push_back(TenantId(t as u32), remaining[t]);
                }
            }
            let order = drain_order(&mut q);
            // While all three lanes are backlogged (the first 240 serves:
            // the weight-2 lane drains its 120 fastest), shares must track
            // 2:1:1 within a batch of slack.
            let window = &order[..240];
            let w0 = window.iter().filter(|&&t| t == 0).count() as f64;
            let w1 = window.iter().filter(|&&t| t == 1).count() as f64;
            let w2 = window.iter().filter(|&&t| t == 2).count() as f64;
            assert!(
                (w0 - 120.0).abs() <= 2.0,
                "trial {trial}: weight-2 lane got {w0}/240, expected ~120"
            );
            assert!(
                (w1 - 60.0).abs() <= 2.0 && (w2 - 60.0).abs() <= 2.0,
                "trial {trial}: weight-1 lanes got {w1}/{w2}, expected ~60 each"
            );
        }
    }

    #[test]
    fn idle_lanes_accumulate_no_credit() {
        let mut q = queue_with(&[(0, 1.0), (1, 1.0)]);
        // Tenant 0 runs alone for a long stretch.
        for i in 0..50u32 {
            q.push_back(TenantId(0), i);
        }
        let mut served = 0;
        while served < 50 {
            let t = q.select().unwrap();
            q.lane_mut(t).pop_front().unwrap();
            q.commit(t, 1.0);
            served += 1;
        }
        // Tenant 1 arrives late: it must not get 50 units of catch-up —
        // from here the two lanes alternate 1:1.
        for i in 0..20u32 {
            q.push_back(TenantId(0), i);
            q.push_back(TenantId(1), i);
        }
        let order = drain_order(&mut q);
        for chunk in order.chunks(4) {
            if chunk.len() < 4 {
                continue;
            }
            let late = chunk.iter().filter(|&&t| t == 1).count();
            assert!(
                (1..=3).contains(&late),
                "late lane must share ~1:1, got {late}/4 in {chunk:?}"
            );
        }
    }

    #[test]
    fn drain_matching_removes_across_lanes_in_order() {
        let mut q = queue_with(&[(0, 1.0), (1, 1.0)]);
        for i in 0..6u32 {
            q.push_back(TenantId(i % 2), i);
        }
        let evens = q.drain_matching(|&v| v % 2 == 0);
        // Lane 0 holds 0,2,4 (all even); lane 1 holds 1,3,5 (none).
        assert_eq!(evens, vec![0, 2, 4]);
        assert_eq!(q.len(), 3);
        let rest: Vec<u32> = q.iter().copied().collect();
        assert_eq!(rest, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_toward_the_smaller_tenant_id() {
        let mut q = queue_with(&[(2, 1.0), (1, 1.0)]);
        q.push_back(TenantId(2), 0);
        q.push_back(TenantId(1), 1);
        // Both lanes start at tag 0: the smaller id wins.
        assert_eq!(q.select(), Some(TenantId(1)));
    }
}
