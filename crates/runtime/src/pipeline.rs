//! Write-behind (asynchronous I/O) overlap accounting.
//!
//! The paper lists asynchronous I/O among the run-time optimizations
//! (MPI-IO style). In virtual time, overlapping compute with background
//! writes means: while the application computes for `c` seconds, up to `c`
//! seconds of previously queued I/O drain concurrently. [`WriteBehind`]
//! tracks the pending I/O and yields the pipelined makespan.

use msr_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Accounting state of a write-behind pipeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WriteBehind {
    pending_io: SimDuration,
    app_busy: SimDuration,
}

impl WriteBehind {
    /// An idle pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit an I/O that would take `io_time` synchronously.
    pub fn submit(&mut self, io_time: SimDuration) {
        self.pending_io += io_time;
    }

    /// The application computes for `c`: queued I/O drains concurrently.
    pub fn compute(&mut self, c: SimDuration) {
        self.app_busy += c;
        self.pending_io -= self.pending_io.min(c);
    }

    /// Total elapsed virtual time so far if the run ended now: app busy
    /// time plus whatever I/O is still in flight.
    pub fn makespan(&self) -> SimDuration {
        self.app_busy + self.pending_io
    }

    /// I/O still in flight.
    pub fn pending(&self) -> SimDuration {
        self.pending_io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn perfect_overlap_hides_io() {
        let mut p = WriteBehind::new();
        for _ in 0..10 {
            p.submit(secs(1.0));
            p.compute(secs(2.0)); // compute longer than I/O: fully hidden
        }
        assert_eq!(p.makespan(), secs(20.0));
        assert_eq!(p.pending(), SimDuration::ZERO);
    }

    #[test]
    fn io_bound_run_degenerates_to_io_time() {
        let mut p = WriteBehind::new();
        for _ in 0..10 {
            p.submit(secs(3.0));
            p.compute(secs(1.0));
        }
        // 10 s compute + 20 s of unhidden I/O.
        assert_eq!(p.makespan(), secs(30.0));
    }

    #[test]
    fn trailing_io_counts_toward_makespan() {
        let mut p = WriteBehind::new();
        p.compute(secs(5.0));
        p.submit(secs(2.0)); // nothing to overlap with afterwards
        assert_eq!(p.makespan(), secs(7.0));
    }
}
