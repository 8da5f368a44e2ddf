//! Virtual time newtypes.
//!
//! All storage and network costs in the simulator are [`SimDuration`]s —
//! non-negative `f64` seconds. [`SimTime`] is an absolute instant on the
//! virtual clock. Keeping these distinct from raw `f64` prevents the classic
//! unit bug (adding an instant to an instant) and lets us enforce the
//! invariant that durations are never negative.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, in seconds. Always finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimDuration(f64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from seconds. Negative or non-finite inputs are clamped to
    /// zero — a cost model must never produce negative time.
    pub const fn from_secs(secs: f64) -> Self {
        if secs.is_finite() && secs > 0.0 {
            SimDuration(secs)
        } else {
            SimDuration(0.0)
        }
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us / 1e6)
    }

    /// The duration as floating seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The duration as floating milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - other.0)
    }

    /// Relative closeness test used by calibration tests: true when the two
    /// durations differ by at most `rel` of the larger magnitude.
    pub fn approx_eq(self, other: SimDuration, rel: f64) -> bool {
        let scale = self.0.abs().max(other.0.abs()).max(1e-12);
        (self.0 - other.0).abs() <= rel * scale
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Subtraction saturates at zero; durations cannot be negative.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.2}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.2}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.2}us", self.0 * 1e6)
        }
    }
}

/// An absolute instant on the virtual clock, in seconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation start.
    pub const EPOCH: SimTime = SimTime(0.0);

    /// The sentinel instant "never": later than every finite instant. Used
    /// for open-ended outage windows and other unbounded deadlines.
    pub const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// Instant at `secs` seconds after the epoch. `+inf` maps to
    /// [`SimTime::INFINITY`]; NaN and negative values clamp to the epoch.
    pub fn from_secs(secs: f64) -> Self {
        if secs == f64::INFINITY {
            SimTime::INFINITY
        } else if secs.is_finite() {
            SimTime(secs.max(0.0))
        } else {
            SimTime(0.0)
        }
    }

    /// Seconds since epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// False only for the [`SimTime::INFINITY`] sentinel.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Duration elapsed since `earlier` (zero if `earlier` is in the future).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.as_secs())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps_negative_and_nan() {
        assert_eq!(SimDuration::from_secs(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(2.5).as_secs(), 2.5);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimDuration::from_secs(2.0);
        let b = SimDuration::from_secs(0.5);
        assert_eq!((a + b).as_secs(), 2.5);
        assert_eq!((a - b).as_secs(), 1.5);
        assert_eq!((b - a), SimDuration::ZERO, "subtraction saturates");
        assert_eq!((a * 3.0).as_secs(), 6.0);
        assert_eq!((a / 4.0).as_secs(), 0.5);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(SimDuration::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimDuration::from_micros(250.0).as_secs(), 0.00025);
        assert!((SimDuration::from_secs(0.25).as_millis() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn instants_and_durations_compose() {
        let t0 = SimTime::EPOCH;
        let t1 = t0 + SimDuration::from_secs(5.0);
        assert_eq!(t1.since(t0).as_secs(), 5.0);
        assert_eq!(t0.since(t1), SimDuration::ZERO);
        assert_eq!(t1.max(t0), t1);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_secs(2.0)), "2.00s");
        assert_eq!(format!("{}", SimDuration::from_secs(0.002)), "2.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(0.000002)), "2.00us");
    }

    #[test]
    fn infinity_sentinel_orders_after_everything() {
        assert!(!SimTime::INFINITY.is_finite());
        assert!(SimTime::from_secs(1e300).is_finite());
        assert!(SimTime::from_secs(1e300) < SimTime::INFINITY);
        assert_eq!(SimTime::from_secs(f64::INFINITY), SimTime::INFINITY);
        // NaN and -inf still clamp to the epoch.
        assert_eq!(SimTime::from_secs(f64::NAN), SimTime::EPOCH);
        assert_eq!(SimTime::from_secs(f64::NEG_INFINITY), SimTime::EPOCH);
        assert_eq!(SimTime::INFINITY.max(SimTime::EPOCH), SimTime::INFINITY);
    }

    #[test]
    fn approx_eq_is_relative() {
        let a = SimDuration::from_secs(100.0);
        let b = SimDuration::from_secs(105.0);
        assert!(a.approx_eq(b, 0.06));
        assert!(!a.approx_eq(b, 0.01));
    }

    #[test]
    fn min_max_orderings() {
        let a = SimDuration::from_secs(1.0);
        let b = SimDuration::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(a < b);
    }
}
