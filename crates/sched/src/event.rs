//! Discrete-event machinery for the dispatcher: a binary min-heap of
//! resource-completion events and the per-resource bookkeeping the event
//! loop keeps between steps.
//!
//! The event loop keeps **one pending completion event per resource**:
//! when a resource's cursor reaches the event's time, the engine pops one
//! batch from that resource's queue, executes it, and re-arms the resource
//! at its new cursor. Sessions are woken lazily — a session is only touched
//! when the resource at its queue head comes free — so a dispatch step
//! costs O(log resources + batch) regardless of how many sessions are
//! admitted.
//!
//! Determinism: events are ordered by `(SimTime, StorageKind, seq)`.
//! Virtual times are exact `f64` arithmetic on deterministic inputs (the
//! seeded jitter streams), `StorageKind` breaks exact-time ties in fixed
//! resource order, and `seq` — the push counter — makes the ordering
//! total. Nothing in the ordering depends on host time, thread scheduling
//! or map iteration order, so a drain is bitwise reproducible at any
//! `MSR_THREADS`.

use msr_sim::SimTime;
use msr_storage::StorageKind;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A resource-completion event: `kind`'s cursor reaches `time` and the
/// resource is free to serve its next batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventKey {
    pub time: SimTime,
    pub kind: StorageKind,
    pub seq: u64,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // SimTime is a plain f64 without a total order of its own;
        // total_cmp is exact and total (virtual times are never NaN, and
        // every producer computes them deterministically).
        self.time
            .as_secs()
            .total_cmp(&other.time.as_secs())
            .then_with(|| self.kind.cmp(&other.kind))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Min-heap of pending resource events. The scheduler keeps at most one
/// event per resource in flight (re-arming a resource only after its
/// previous event fired), so the heap never outgrows the resource count.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<std::cmp::Reverse<EventKey>>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Arm `kind` to fire at `time`.
    pub fn push(&mut self, time: SimTime, kind: StorageKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(std::cmp::Reverse(EventKey { time, kind, seq }));
    }

    /// The earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, StorageKind)> {
        self.heap.pop().map(|std::cmp::Reverse(e)| (e.time, e.kind))
    }
}

/// Reusable per-step scratch owned by the event loop, so steady-state
/// dispatch allocates nothing: the batch/outcome buffers below are
/// drained and reused every step.
#[derive(Default)]
pub(crate) struct Scratch<B, S> {
    /// The batch popped from the queue head this step.
    pub batch: Vec<B>,
    /// Served `(request, outcome)` pairs, applied then drained.
    pub served: Vec<S>,
    /// Requests not served after a mid-batch failure.
    pub unserved: Vec<B>,
}

impl<B, S> Scratch<B, S> {
    pub fn new() -> Scratch<B, S> {
        Scratch {
            batch: Vec::new(),
            served: Vec::new(),
            unserved: Vec::new(),
        }
    }
}

/// Per-resource read-ahead planning gate. The planner's queue walk is
/// side-effect-free unless some queued read is still *undecided* (not yet
/// planned or declined, e.g. because a write to the same path is still
/// ahead of it, or its file does not exist yet). Tracking how many
/// undecided reads the last walk saw lets the event loop skip the walk
/// entirely once every candidate has a final decision — which is what
/// keeps prefetch-on dispatch from re-walking O(queue) state every step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanGate {
    /// Undecided read candidates remaining after the last walk.
    pub undecided: usize,
    /// Set when the queue changed shape under the gate (initial build,
    /// requeue traffic, or a planned path re-opened by an overwrite):
    /// the next step must walk regardless of the counter.
    pub dirty: bool,
}

impl Default for PlanGate {
    fn default() -> Self {
        PlanGate {
            undecided: 0,
            dirty: true,
        }
    }
}

impl PlanGate {
    /// Whether the next step needs a planning walk.
    pub fn needs_walk(&self) -> bool {
        self.dirty || self.undecided > 0
    }

    /// Record a walk's outcome: `undecided` candidates remain.
    pub fn walked(&mut self, undecided: usize) {
        self.undecided = undecided;
        self.dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_then_kind_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2.0), StorageKind::LocalDisk);
        q.push(SimTime::from_secs(1.0), StorageKind::RemoteTape);
        q.push(SimTime::from_secs(1.0), StorageKind::LocalDisk);
        assert_eq!(
            q.pop(),
            Some((SimTime::from_secs(1.0), StorageKind::LocalDisk))
        );
        assert_eq!(
            q.pop(),
            Some((SimTime::from_secs(1.0), StorageKind::RemoteTape))
        );
        assert_eq!(
            q.pop(),
            Some((SimTime::from_secs(2.0), StorageKind::LocalDisk))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_time_and_kind_breaks_ties_by_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        q.push(t, StorageKind::RemoteDisk);
        q.push(t, StorageKind::RemoteDisk);
        assert_eq!(q.pop(), Some((t, StorageKind::RemoteDisk)));
        assert_eq!(q.pop(), Some((t, StorageKind::RemoteDisk)));
    }

    #[test]
    fn plan_gate_skips_after_settled_walk() {
        let mut g = PlanGate::default();
        assert!(g.needs_walk(), "fresh queues must be walked once");
        g.walked(2);
        assert!(g.needs_walk(), "undecided candidates keep the walk alive");
        g.walked(0);
        assert!(!g.needs_walk(), "all decided: the walk is skippable");
        g.dirty = true;
        assert!(g.needs_walk(), "requeue traffic re-arms the walk");
    }
}
