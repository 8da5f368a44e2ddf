//! Per-resource health tracking: a circuit breaker in front of placement.
//!
//! Every session-level I/O outcome feeds this tracker. A resource that
//! fails repeatedly trips its breaker **open**: placement stops routing new
//! dumps to it (so a flapping tape drive does not eat one failover per
//! dump), and reads fall back to the staging cache when a copy exists.
//! After a virtual-time cooldown the breaker goes **half-open** and lets a
//! single probe through; a success closes it, a failure re-opens it.
//!
//! All state is interior-mutable so the tracker can live on a shared
//! [`crate::MsrSystem`]; timestamps come from the system's virtual clock,
//! so chaos runs replay deterministically.

use crate::error::{classify, CoreError};
use msr_obs::{ops, Layer, Recorder};
use msr_sim::{Clock, SimDuration, SimTime};
use msr_storage::StorageKind;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// The classic three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: calls flow normally.
    #[default]
    Closed,
    /// Tripped: placement refuses the resource until the cooldown expires.
    Open,
    /// Cooldown expired: one probe call is allowed through; its outcome
    /// decides between `Closed` and `Open`.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Monotonic per-resource counters, for reconciling a chaos run against
/// its injected-fault log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Successful session-level operations recorded.
    pub successes: u64,
    /// Failed session-level operations recorded.
    pub failures: u64,
    /// Times the breaker tripped `Closed`/`HalfOpen` → `Open`.
    pub trips: u64,
    /// Calls refused because the breaker was open.
    pub rejections: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct ResourceHealth {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    counters: HealthCounters,
}

/// Consecutive failures that trip a breaker.
const THRESHOLD: u32 = 3;

/// Virtual time an open breaker waits before allowing a probe.
const COOLDOWN: SimDuration = SimDuration::from_secs(60.0);

/// The per-resource circuit breaker consulted by placement.
pub struct HealthTracker {
    state: Mutex<BTreeMap<StorageKind, ResourceHealth>>,
    clock: Clock,
    rec: Recorder,
}

impl HealthTracker {
    /// A tracker that trips after 3 consecutive failures and probes again
    /// after 60 s of virtual time.
    pub fn new(clock: Clock, rec: Recorder) -> Self {
        HealthTracker {
            state: Mutex::new(BTreeMap::new()),
            clock,
            rec,
        }
    }

    /// Whether placement may route an operation to `kind` right now.
    /// An open breaker whose cooldown has expired transitions to half-open
    /// here and admits the caller as the probe.
    pub fn allows(&self, kind: StorageKind) -> bool {
        let mut map = self.state.lock();
        let h = map.entry(kind).or_default();
        match h.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.clock.now() >= h.opened_at + COOLDOWN {
                    h.state = BreakerState::HalfOpen;
                    self.transition(kind, BreakerState::HalfOpen, "cooldown expired");
                    true
                } else {
                    h.counters.rejections += 1;
                    false
                }
            }
        }
    }

    /// Record a successful session-level operation on `kind`.
    pub fn record_success(&self, kind: StorageKind) {
        let mut map = self.state.lock();
        let h = map.entry(kind).or_default();
        h.counters.successes += 1;
        h.consecutive_failures = 0;
        if h.state != BreakerState::Closed {
            h.state = BreakerState::Closed;
            self.transition(kind, BreakerState::Closed, "probe succeeded");
        }
    }

    /// Record a failed session-level operation on `kind`. Trips the
    /// breaker at the threshold; a failed half-open probe re-opens it
    /// immediately.
    pub fn record_failure(&self, kind: StorageKind) {
        let mut map = self.state.lock();
        let h = map.entry(kind).or_default();
        h.counters.failures += 1;
        h.consecutive_failures += 1;
        let trip = match h.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => h.consecutive_failures >= THRESHOLD,
            BreakerState::Open => false,
        };
        if trip {
            let reason = if h.state == BreakerState::HalfOpen {
                "probe failed"
            } else {
                "failure threshold reached"
            };
            h.state = BreakerState::Open;
            h.opened_at = self.clock.now();
            h.counters.trips += 1;
            self.transition(kind, BreakerState::Open, reason);
        }
    }

    /// The failure rule: decide what `e`, raised by a request on `kind`,
    /// means. `None` is Fatal — the error belongs to the caller and the
    /// breaker is not charged. Otherwise the failure is charged to
    /// `kind`'s breaker and the classified reason is returned.
    pub(crate) fn charge(&self, kind: StorageKind, e: &CoreError) -> Option<&'static str> {
        let reason = classify(e).failover_reason()?;
        self.record_failure(kind);
        Some(reason)
    }

    /// The current breaker state of `kind` (without side effects).
    pub fn state(&self, kind: StorageKind) -> BreakerState {
        self.state
            .lock()
            .get(&kind)
            .map(|h| h.state)
            .unwrap_or_default()
    }

    /// The reconciliation counters of `kind`.
    pub fn counters(&self, kind: StorageKind) -> HealthCounters {
        self.state
            .lock()
            .get(&kind)
            .map(|h| h.counters)
            .unwrap_or_default()
    }

    /// Counters summed over every tracked resource.
    pub fn total_counters(&self) -> HealthCounters {
        let map = self.state.lock();
        let mut t = HealthCounters::default();
        for h in map.values() {
            t.successes += h.counters.successes;
            t.failures += h.counters.failures;
            t.trips += h.counters.trips;
            t.rejections += h.counters.rejections;
        }
        t
    }

    fn transition(&self, kind: StorageKind, to: BreakerState, why: &str) {
        if self.rec.enabled() {
            self.rec.instant(
                Layer::Session,
                kind.name(),
                ops::BREAKER,
                self.clock.now(),
                &format!("-> {to}: {why}"),
            );
        }
    }
}

impl std::fmt::Debug for HealthTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthTracker")
            .field("threshold", &THRESHOLD)
            .field("cooldown", &COOLDOWN)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(clock: &Clock) -> HealthTracker {
        HealthTracker::new(clock.clone(), Recorder::disabled())
    }

    #[test]
    fn trips_open_after_threshold_consecutive_failures() {
        let clock = Clock::new();
        let t = tracker(&clock);
        let k = StorageKind::RemoteTape;
        assert!(t.allows(k));
        t.record_failure(k);
        t.record_failure(k);
        assert_eq!(t.state(k), BreakerState::Closed, "below threshold");
        assert!(t.allows(k));
        t.record_failure(k);
        assert_eq!(t.state(k), BreakerState::Open);
        assert!(!t.allows(k));
        assert_eq!(t.counters(k).trips, 1);
        assert_eq!(t.counters(k).rejections, 1);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let clock = Clock::new();
        let t = tracker(&clock);
        let k = StorageKind::LocalDisk;
        t.record_failure(k);
        t.record_failure(k);
        t.record_success(k);
        t.record_failure(k);
        t.record_failure(k);
        assert_eq!(t.state(k), BreakerState::Closed);
        assert_eq!(t.counters(k).failures, 4);
        assert_eq!(t.counters(k).successes, 1);
    }

    #[test]
    fn cooldown_half_opens_and_probe_outcome_decides() {
        let clock = Clock::new();
        let t = tracker(&clock);
        let k = StorageKind::RemoteDisk;
        for _ in 0..3 {
            t.record_failure(k);
        }
        assert!(!t.allows(k), "open during cooldown");
        clock.advance(COOLDOWN);
        assert!(t.allows(k), "cooldown expired: probe admitted");
        assert_eq!(t.state(k), BreakerState::HalfOpen);
        // Failed probe re-opens immediately (no threshold).
        t.record_failure(k);
        assert_eq!(t.state(k), BreakerState::Open);
        assert_eq!(t.counters(k).trips, 2);
        clock.advance(COOLDOWN);
        assert!(t.allows(k));
        t.record_success(k);
        assert_eq!(t.state(k), BreakerState::Closed);
        assert!(t.allows(k));
    }

    #[test]
    fn breaker_transitions_emit_obs_instants() {
        let reg = msr_obs::Registry::new();
        let clock = Clock::new();
        let t = HealthTracker::new(clock.clone(), reg.recorder());
        let k = StorageKind::RemoteTape;
        for _ in 0..3 {
            t.record_failure(k);
        }
        clock.advance(COOLDOWN);
        assert!(t.allows(k));
        t.record_success(k);
        let breaker_events: Vec<_> = reg
            .events()
            .into_iter()
            .filter(|e| e.op == ops::BREAKER)
            .collect();
        assert_eq!(breaker_events.len(), 3, "open, half-open, closed");
        assert!(breaker_events[0].detail.contains("open"));
        assert!(breaker_events[2].detail.contains("closed"));
    }
}
