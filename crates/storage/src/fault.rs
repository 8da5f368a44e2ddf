//! Seeded transient-fault injection for any storage resource.
//!
//! A [`Device`](crate::Device)'s fault stage perturbs the data path
//! according to a [`FaultPlan`]: per-op transient error
//! probability, latency spikes, torn (partial) transfers, and flapping
//! up/down windows driven by an [`OutageSchedule`] in virtual time. All
//! randomness comes from a seeded stream (`msr_sim::stream_rng`), so a
//! chaos run is reproducible bit-for-bit from `(plan, seed)`.
//!
//! Every injected fault is appended to a shared [`FaultLog`]; the chaos
//! harness reconciles this log against the retry/breaker counters observed
//! by the layers above. Injected errors surface as
//! [`StorageError::Transient`] — the only error class the runtime retry
//! policy treats as retryable — so existing failure semantics (offline,
//! capacity, network) are untouched.
//!
//! Torn transfers are the delicate case: the device performs *half* of
//! the requested transfer, then seeks the handle back to its own cursor as
//! of call entry and reports `Transient`. A retry therefore re-runs the
//! full call from the original position and the data ends up bitwise
//! correct — a torn fault can cost time but never silently corrupt.

use crate::error::StorageError;
use crate::resource::Cost;
use crate::StorageResult;
use msr_net::OutageSchedule;
use msr_sim::{stream_rng, Clock, SimTime};
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng};
use std::sync::Arc;

/// What kinds of transient misbehaviour to inject, and how often.
///
/// Probabilities apply independently per native data-path call
/// (`open`/`seek`/`read`/`write`/`close`); metadata and connection calls
/// are never faulted so the log stays reconcilable against the engine's
/// retry counters.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability that a call fails outright with a transient error.
    pub error_prob: f64,
    /// Probability that a call succeeds but takes `spike_factor`× longer.
    pub spike_prob: f64,
    /// Latency multiplier for spiked calls.
    pub spike_factor: f64,
    /// Probability that a read/write transfers only half its payload
    /// before failing (cursor restored, so a retry is safe).
    pub torn_prob: f64,
    /// Fail the first `error_burst` data-path calls deterministically —
    /// the "fault clears within the retry budget" scenario.
    pub error_burst: u32,
    /// Flapping up/down windows in virtual time; while a window covers the
    /// current clock the resource refuses data-path calls.
    pub flap: Option<OutageSchedule>,
}

impl FaultPlan {
    /// No faults at all (useful as a grid baseline).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fail each call with probability `p`.
    pub fn with_error_prob(mut self, p: f64) -> Self {
        self.error_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Spike each call's latency by `factor` with probability `p`.
    pub fn with_spikes(mut self, p: f64, factor: f64) -> Self {
        self.spike_prob = p.clamp(0.0, 1.0);
        self.spike_factor = factor.max(1.0);
        self
    }

    /// Tear each transfer with probability `p`.
    pub fn with_torn_prob(mut self, p: f64) -> Self {
        self.torn_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Deterministically fail the first `n` data-path calls.
    pub fn with_error_burst(mut self, n: u32) -> Self {
        self.error_burst = n;
        self
    }

    /// Flap the resource down during `schedule`'s outage windows.
    pub fn with_flap(mut self, schedule: OutageSchedule) -> Self {
        self.flap = Some(schedule);
        self
    }
}

/// The kind of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Call failed with a transient error (probability or burst).
    Error,
    /// Transfer was torn: half performed, cursor restored, call failed.
    Torn,
    /// Call succeeded but its latency was multiplied.
    Spike,
    /// Call refused because a flap window covered the virtual clock.
    FlapDown,
}

/// One injected fault, for post-run reconciliation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Virtual time of the faulted call.
    pub at: SimTime,
    /// Resource name.
    pub resource: String,
    /// Native call that was perturbed.
    pub op: &'static str,
    /// What was injected.
    pub kind: FaultKind,
}

/// Shared, clonable log of every fault one resource's fault stage produced.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    records: Arc<Mutex<Vec<FaultRecord>>>,
}

impl FaultLog {
    fn push(&self, rec: FaultRecord) {
        self.records.lock().push(rec);
    }

    /// Snapshot of all records so far.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.records.lock().clone()
    }

    /// Total number of injected faults (all kinds).
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing has been injected yet.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Number of faults of one kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.records
            .lock()
            .iter()
            .filter(|r| r.kind == kind)
            .count()
    }

    /// Number of faults that surfaced as errors to the caller (everything
    /// except latency spikes, which succeed).
    pub fn errors_injected(&self) -> usize {
        self.records
            .lock()
            .iter()
            .filter(|r| r.kind != FaultKind::Spike)
            .count()
    }
}

/// State of a [`Device`](crate::Device)'s fault stage: the plan, its
/// seeded stream and the decisions it takes. The stage never touches the
/// device's files itself — the device asks it what to do and makes the
/// calls — and is told the resource's `name` per call instead of caching
/// it.
#[derive(Debug)]
pub(crate) struct Faults {
    plan: FaultPlan,
    clock: Clock,
    rng: StdRng,
    burst_left: u32,
    log: FaultLog,
}

impl Faults {
    /// A stage for the resource called `name`. The RNG stream is derived
    /// from `seed` and the name, so distinct resources fault independently
    /// under one master seed.
    pub fn new(plan: FaultPlan, clock: Clock, seed: u64, name: &str) -> (Self, FaultLog) {
        let log = FaultLog::default();
        let stage = Faults {
            rng: stream_rng(seed, &format!("fault:{name}")),
            burst_left: plan.error_burst,
            plan,
            clock,
            log: log.clone(),
        };
        (stage, log)
    }

    fn record(&self, name: &str, op: &'static str, kind: FaultKind) {
        self.log.push(FaultRecord {
            at: self.clock.now(),
            resource: name.to_owned(),
            op,
            kind,
        });
    }

    /// Log one injected fault of `kind` and build the error it surfaces as.
    pub fn inject(&self, name: &str, op: &'static str, kind: FaultKind) -> StorageError {
        self.record(name, op, kind);
        StorageError::Transient {
            resource: name.to_owned(),
            op,
        }
    }

    /// Whether a flap window covers the virtual clock right now.
    pub fn flapped_down(&self) -> bool {
        self.plan
            .flap
            .as_ref()
            .is_some_and(|f| !f.is_up(self.clock.now()))
    }

    /// Common pre-call gate for every data-path op: flap window, then
    /// deterministic burst, then probabilistic error.
    pub fn gate(&mut self, name: &str, op: &'static str) -> StorageResult<()> {
        if self.flapped_down() {
            return Err(self.inject(name, op, FaultKind::FlapDown));
        }
        if self.burst_left > 0 {
            self.burst_left -= 1;
            return Err(self.inject(name, op, FaultKind::Error));
        }
        if self.plan.error_prob > 0.0 && self.rng.random_bool(self.plan.error_prob) {
            return Err(self.inject(name, op, FaultKind::Error));
        }
        Ok(())
    }

    /// Post-call latency perturbation for calls that succeeded.
    pub fn spike<T>(&mut self, name: &str, op: &'static str, mut cost: Cost<T>) -> Cost<T> {
        if self.plan.spike_prob > 0.0 && self.rng.random_bool(self.plan.spike_prob) {
            cost.time = cost.time * self.plan.spike_factor;
            self.record(name, op, FaultKind::Spike);
        }
        cost
    }

    /// Whether to tear the transfer about to run.
    pub fn should_tear(&mut self) -> bool {
        self.plan.torn_prob > 0.0 && self.rng.random_bool(self.plan.torn_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{share, SharedResource};
    use crate::local_disk::{DiskParams, LocalDisk};
    use crate::resource::OpenMode;
    use msr_sim::SimDuration;

    fn faulty(plan: FaultPlan, clock: Clock, seed: u64) -> (SharedResource, FaultLog) {
        let mut disk = LocalDisk::new("d", DiskParams::simple(100.0, 1 << 30), 0);
        let log = disk.inject_faults(plan, clock, seed);
        (share(disk), log)
    }

    fn wrap(plan: FaultPlan) -> (SharedResource, FaultLog, Clock) {
        let clock = Clock::new();
        let (r, log) = faulty(plan, clock.clone(), 42);
        (r, log, clock)
    }

    #[test]
    fn no_plan_is_transparent() {
        let (r, log, _) = wrap(FaultPlan::none());
        let mut r = r.lock();
        let h = r.open("f", OpenMode::Create).unwrap().value;
        r.write(h, b"hello").unwrap();
        r.close(h).unwrap();
        let h = r.open("f", OpenMode::Read).unwrap().value;
        let got = r.read(h, 5).unwrap().value;
        assert_eq!(&got[..], b"hello");
        assert!(log.is_empty());
    }

    #[test]
    fn burst_fails_exactly_n_calls() {
        let (r, log, _) = wrap(FaultPlan::none().with_error_burst(2));
        let mut r = r.lock();
        assert!(r.open("f", OpenMode::Create).unwrap_err().is_transient());
        assert!(r.open("f", OpenMode::Create).unwrap_err().is_transient());
        let h = r.open("f", OpenMode::Create).unwrap().value;
        r.write(h, b"x").unwrap();
        r.close(h).unwrap();
        assert_eq!(log.count(FaultKind::Error), 2);
        assert_eq!(log.errors_injected(), 2);
    }

    #[test]
    fn torn_write_restores_cursor_and_retry_is_bitwise_clean() {
        let (r, log, _) = wrap(FaultPlan::none().with_torn_prob(1.0));
        let mut r = r.lock();
        let h = r.open("f", OpenMode::Create).unwrap().value;
        let payload: Vec<u8> = (0..64u8).collect();
        // Every attempt tears (p = 1), so loosen the plan mid-test is not
        // possible; instead assert the failure, then verify the file still
        // reads back correctly after a 1-byte write, which is too small to
        // tear.
        let err = r.write(h, &payload).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(log.count(FaultKind::Torn), 1);
        // Cursor was restored: a 1-byte write (too small to tear) lands at
        // offset 0, not at the torn midpoint.
        r.write(h, &[7u8]).unwrap();
        r.close(h).unwrap();
        assert_eq!(r.file_size("f"), Some(32), "torn half remains on disk");
        let h = r.open("f", OpenMode::Read).unwrap().value;
        let b = r.read(h, 1).unwrap().value;
        assert_eq!(b[0], 7, "retry wrote from the original cursor");
    }

    #[test]
    fn a_plan_switched_on_mid_file_tears_back_to_the_handles_cursor() {
        let (r, log, clock) = wrap(FaultPlan::none());
        let mut r = r.lock();
        let h = r.open("f", OpenMode::Create).unwrap().value;
        let head: Vec<u8> = (1..=10u8).collect();
        r.write(h, &head).unwrap();
        // A new plan while the handle is open: the restore point is the
        // handle's cursor, not the start of the file.
        let torn = r.inject_faults(FaultPlan::none().with_torn_prob(1.0), clock, 42);
        assert!(r.write(h, &[9u8; 64]).unwrap_err().is_transient());
        assert_eq!(torn.count(FaultKind::Torn), 1);
        assert!(log.is_empty(), "the replaced plan's log stays as it was");
        r.write(h, &[7u8]).unwrap();
        r.close(h).unwrap();
        // Reads of one byte are too small to tear.
        let h = r.open("f", OpenMode::Read).unwrap().value;
        let back: Vec<u8> = (0..11).map(|_| r.read(h, 1).unwrap().value[0]).collect();
        assert_eq!(&back[..10], &head[..], "the file's head is intact");
        assert_eq!(back[10], 7, "the next write landed at offset 10");
    }

    #[test]
    fn flap_window_refuses_calls_then_recovers() {
        let plan = FaultPlan::none().with_flap(OutageSchedule::always_up().with_outage(10.0, 20.0));
        let (r, log, clock) = wrap(plan);
        let mut r = r.lock();
        let h = r.open("f", OpenMode::Create).unwrap().value;
        clock.advance(SimDuration::from_secs(15.0));
        assert!(!r.is_online());
        assert!(r.write(h, b"x").unwrap_err().is_transient());
        clock.advance(SimDuration::from_secs(10.0));
        assert!(r.is_online());
        r.write(h, b"x").unwrap();
        assert_eq!(log.count(FaultKind::FlapDown), 1);
    }

    #[test]
    fn spikes_multiply_latency_but_succeed() {
        let (faulty, _, _) = wrap(FaultPlan::none().with_spikes(1.0, 10.0));
        let (clean, _, _) = wrap(FaultPlan::none());
        let mut f = faulty.lock();
        let mut c = clean.lock();
        let hf = f.open("f", OpenMode::Create).unwrap().value;
        let hc = c.open("f", OpenMode::Create).unwrap().value;
        let tf = f.write(hf, &[1u8; 4096]).unwrap().time;
        let tc = c.write(hc, &[1u8; 4096]).unwrap().time;
        assert!(
            tf.as_secs() > 5.0 * tc.as_secs(),
            "spiked {tf} vs clean {tc}"
        );
    }

    #[test]
    fn error_prob_is_seed_deterministic() {
        let run = || {
            let clock = Clock::new();
            let (r, log) = faulty(FaultPlan::none().with_error_prob(0.3), clock, 7);
            let mut r = r.lock();
            let mut outcomes = Vec::new();
            for i in 0..50 {
                outcomes.push(r.open(&format!("f{i}"), OpenMode::Create).is_ok());
            }
            (outcomes, log.len())
        };
        assert_eq!(run(), run());
    }
}
