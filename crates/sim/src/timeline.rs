//! Per-process virtual timelines with barrier semantics.
//!
//! Collective I/O on a P-process grid costs `max` over processes between
//! barriers (everybody waits for the slowest writer), while independent I/O
//! accumulates per process. [`Timeline`] captures that: charge work to
//! individual processes, then [`Timeline::barrier`] synchronizes everyone to
//! the maximum. The makespan of the whole operation is [`Timeline::makespan`].

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Elapsed virtual time per process since the timeline started.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    elapsed: Vec<SimDuration>,
}

impl Timeline {
    /// A timeline for `nprocs` processes, all at zero.
    ///
    /// # Panics
    /// Panics if `nprocs == 0`; a process grid always has at least one rank.
    pub fn new(nprocs: usize) -> Self {
        assert!(nprocs > 0, "timeline needs at least one process");
        Timeline {
            elapsed: vec![SimDuration::ZERO; nprocs],
        }
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.elapsed.len()
    }

    /// Charge `d` to process `p`.
    pub fn charge(&mut self, p: usize, d: SimDuration) {
        self.elapsed[p] += d;
    }

    /// Charge `d` to every process (e.g. a replicated open).
    pub fn charge_all(&mut self, d: SimDuration) {
        for e in &mut self.elapsed {
            *e += d;
        }
    }

    /// Synchronize all processes to the slowest one; returns the barrier time.
    pub fn barrier(&mut self) -> SimDuration {
        let m = self.makespan();
        for e in &mut self.elapsed {
            *e = m;
        }
        m
    }

    /// Elapsed time of process `p`.
    pub fn elapsed(&self, p: usize) -> SimDuration {
        self.elapsed[p]
    }

    /// The maximum elapsed time over processes — the wall-clock (virtual)
    /// cost of the parallel operation so far.
    pub fn makespan(&self) -> SimDuration {
        self.elapsed
            .iter()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// Sum over processes — total resource-seconds consumed (used by
    /// efficiency ablations).
    pub fn total_work(&self) -> SimDuration {
        self.elapsed.iter().copied().sum()
    }

    /// Merge another timeline that ran *after* this one on the same
    /// processes (sequential composition).
    pub fn then(&mut self, later: &Timeline) {
        assert_eq!(self.nprocs(), later.nprocs(), "process counts must match");
        for (e, l) in self.elapsed.iter_mut().zip(&later.elapsed) {
            *e += *l;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_procs_rejected() {
        Timeline::new(0);
    }

    #[test]
    fn charge_and_makespan() {
        let mut t = Timeline::new(4);
        t.charge(0, secs(1.0));
        t.charge(2, secs(3.0));
        assert_eq!(t.makespan(), secs(3.0));
        assert_eq!(t.total_work(), secs(4.0));
    }

    #[test]
    fn barrier_levels_everyone() {
        let mut t = Timeline::new(3);
        t.charge(1, secs(5.0));
        let m = t.barrier();
        assert_eq!(m, secs(5.0));
        for p in 0..3 {
            assert_eq!(t.elapsed(p), secs(5.0));
        }
    }

    #[test]
    fn charge_all_hits_every_rank() {
        let mut t = Timeline::new(2);
        t.charge_all(secs(0.5));
        assert_eq!(t.elapsed(0), secs(0.5));
        assert_eq!(t.elapsed(1), secs(0.5));
        assert_eq!(t.total_work(), secs(1.0));
    }

    #[test]
    fn sequential_composition() {
        let mut a = Timeline::new(2);
        a.charge(0, secs(1.0));
        let mut b = Timeline::new(2);
        b.charge(1, secs(2.0));
        b.barrier();
        a.then(&b);
        assert_eq!(a.elapsed(0), secs(3.0));
        assert_eq!(a.elapsed(1), secs(2.0));
    }
}
