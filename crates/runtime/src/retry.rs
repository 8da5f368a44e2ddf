//! Capped exponential backoff for transient native-call failures.
//!
//! The run-time layer sits between "a native call failed" and "abandon the
//! resource": transient faults (the [`msr_storage::StorageError::Transient`]
//! class) are retried in place with exponential backoff, and every backoff
//! sleep is *charged to the virtual timeline* of the process that issued
//! the call — retries cost simulated time exactly like the I/O they shadow.
//! The budget is the testbed's: three retries, 50 ms doubling to a 2 s
//! cap, ±10 % jitter. Jitter is deterministic: each backoff draws from a
//! stream keyed by the engine's seed and a caller-supplied label, so a
//! chaos run replays bit-for-bit.

use msr_sim::{stream_rng, Jitter, SimDuration};

/// Retries allowed per native call.
pub(crate) const MAX_RETRIES: u32 = 3;
/// Backoff before the first retry.
const BASE: SimDuration = SimDuration::from_secs(50e-3);
/// Multiplier applied per subsequent retry.
const FACTOR: f64 = 2.0;
/// Upper bound on any single backoff.
const CAP: SimDuration = SimDuration::from_secs(2.0);
/// Multiplicative jitter applied to each backoff.
const JITTER: Jitter = Jitter::Uniform { frac: 0.1 };

/// The backoff to charge before retry number `attempt` (0-based), for the
/// call identified by `label`. Deterministic in `(seed, attempt, label)`.
pub(crate) fn backoff(seed: u64, attempt: u32, label: &str) -> SimDuration {
    let raw = (BASE * FACTOR.powi(attempt as i32)).min(CAP);
    let mut rng = stream_rng(seed, &format!("retry:{label}:{attempt}"));
    JITTER.apply(raw, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        for (attempt, ms) in [(0, 50.0), (1, 100.0), (2, 200.0), (10, 2000.0)] {
            let d = backoff(0, attempt, "x").as_millis();
            assert!(
                (ms * 0.9..=ms * 1.1).contains(&d),
                "attempt {attempt}: {d} ms outside ±10 % of {ms} ms"
            );
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_per_label() {
        assert_eq!(backoff(0, 1, "tape:3"), backoff(0, 1, "tape:3"));
        assert_ne!(backoff(0, 1, "tape:3"), backoff(0, 1, "tape:4"));
    }

    #[test]
    fn jitter_stays_within_band() {
        for n in 0..100 {
            let d = backoff(0, 0, &format!("l{n}")).as_millis();
            assert!((45.0..=55.0).contains(&d), "{d} ms out of ±10 % band");
        }
    }
}
