//! Discrete-event machinery for the dispatcher: the armed resource events
//! and the per-resource bookkeeping the event loop keeps between steps.
//!
//! The event loop keeps **one pending completion event per resource**:
//! when a resource's cursor reaches the event's time, the engine pops one
//! batch from that resource's queue, executes it, and re-arms the resource
//! at its new cursor. Sessions are woken lazily — a session is only touched
//! when the resource at its queue head comes free — so a dispatch step
//! costs O(resources + batch) regardless of how many sessions are
//! admitted.
//!
//! Determinism: events are ordered by `(SimTime, StorageKind)`. Virtual
//! times are exact `f64` arithmetic on deterministic inputs (the seeded
//! jitter streams) and `StorageKind` breaks exact-time ties in fixed
//! resource order; with one event per resource that order is total.
//! Nothing in the ordering depends on host time, thread scheduling or map
//! iteration order, so a drain is bitwise reproducible at any
//! `MSR_THREADS`.

use msr_sim::SimTime;
use msr_storage::StorageKind;
use std::collections::BTreeMap;

/// Disarm and return the resource whose armed event comes first: least by
/// `(time, kind)`. `SimTime` is a plain `f64` without a total order of its
/// own; `total_cmp` is exact and total (virtual times are never NaN).
pub(crate) fn pop_next(armed: &mut BTreeMap<StorageKind, SimTime>) -> Option<StorageKind> {
    let (&kind, _) = armed.iter().min_by(|a, b| {
        let time = a.1.as_secs().total_cmp(&b.1.as_secs());
        time.then_with(|| a.0.cmp(b.0))
    })?;
    armed.remove(&kind);
    Some(kind)
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
    fn events_pop_in_time_then_kind_order() {
        let at = SimTime::from_secs;
        let mut armed = BTreeMap::from([
            (StorageKind::RemoteTape, at(1.0)),
            (StorageKind::RemoteDisk, at(2.0)),
            (StorageKind::LocalDisk, at(1.0)),
        ]);
        assert_eq!(pop_next(&mut armed), Some(StorageKind::LocalDisk));
        assert_eq!(pop_next(&mut armed), Some(StorageKind::RemoteTape));
        assert_eq!(pop_next(&mut armed), Some(StorageKind::RemoteDisk));
        assert_eq!(pop_next(&mut armed), None);
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
