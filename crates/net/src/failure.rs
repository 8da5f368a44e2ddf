//! Scheduled outages for reliability experiments.
//!
//! The paper's final §5 example assumes "the remote tape system is down for
//! maintenance". [`OutageSchedule`] lets an experiment declare maintenance
//! windows in virtual time and ask whether a component should currently be
//! up, which the harness then applies to the link or to storage resources.

use msr_sim::SimTime;
use serde::{Deserialize, Serialize};

/// A half-open outage window `[from, until)` in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outage {
    /// Start of the outage (inclusive).
    pub from: SimTime,
    /// End of the outage (exclusive).
    pub until: SimTime,
}

impl Outage {
    /// Whether `t` falls inside the window.
    pub fn covers(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// A set of outage windows for one component.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OutageSchedule {
    windows: Vec<Outage>,
}

impl OutageSchedule {
    /// A schedule with no outages.
    pub fn always_up() -> Self {
        Self::default()
    }

    /// Add an outage window `[from, until)` (seconds of virtual time).
    pub fn with_outage(mut self, from_secs: f64, until_secs: f64) -> Self {
        self.windows.push(Outage {
            from: SimTime::from_secs(from_secs),
            until: SimTime::from_secs(until_secs),
        });
        self
    }

    /// Should the component be up at virtual time `t`?
    pub fn is_up(&self, t: SimTime) -> bool {
        !self.windows.iter().any(|w| w.covers(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_always_up() {
        let s = OutageSchedule::always_up();
        assert!(s.is_up(SimTime::EPOCH));
        assert!(s.is_up(SimTime::from_secs(1e9)));
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let s = OutageSchedule::always_up().with_outage(10.0, 20.0);
        assert!(s.is_up(SimTime::from_secs(9.999)));
        assert!(!s.is_up(SimTime::from_secs(10.0)));
        assert!(!s.is_up(SimTime::from_secs(19.999)));
        assert!(s.is_up(SimTime::from_secs(20.0)));
    }

    #[test]
    fn overlapping_windows_compose() {
        let s = OutageSchedule::always_up()
            .with_outage(0.0, 5.0)
            .with_outage(3.0, 8.0);
        assert!(!s.is_up(SimTime::from_secs(4.0)));
        assert!(!s.is_up(SimTime::from_secs(6.0)));
        assert!(s.is_up(SimTime::from_secs(8.0)));
    }
}
