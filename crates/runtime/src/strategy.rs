//! I/O strategies and the interconnect exchange model.

use msr_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the run-time library performs one dataset access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoStrategy {
    /// One native call per contiguous file run per process. The baseline.
    Naive,
    /// Each process accesses its covering extent in one native call and
    /// sieves its runs out of (or merges them into) the buffer.
    DataSieving,
    /// Two-phase collective I/O: interconnect exchange, then a single
    /// aggregated native call for the whole dataset (`n(j) = 1`).
    Collective,
    /// One packed subfile per process: P native calls, transposed layout.
    Subfile,
}

impl IoStrategy {
    /// All strategies, for sweeps and ablations.
    pub const ALL: [IoStrategy; 4] = [
        IoStrategy::Naive,
        IoStrategy::DataSieving,
        IoStrategy::Collective,
        IoStrategy::Subfile,
    ];
}

impl fmt::Display for IoStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoStrategy::Naive => "naive",
            IoStrategy::DataSieving => "data-sieving",
            IoStrategy::Collective => "collective",
            IoStrategy::Subfile => "subfile",
        })
    }
}

/// α–β model of the compute-side interconnect (the SP-2 switch), used to
/// price the shuffle phase of two-phase collective I/O.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExchangeModel {
    /// Per-message latency.
    pub alpha: SimDuration,
    /// Per-process link bandwidth, MB/s.
    pub beta_mb_s: f64,
}

impl ExchangeModel {
    /// SP-2 class switch: ~40 µs latency, ~35 MB/s per node.
    pub fn sp2() -> Self {
        ExchangeModel {
            alpha: SimDuration::from_micros(40.0),
            beta_mb_s: 35.0,
        }
    }

    /// A free interconnect (isolates storage costs in tests).
    pub fn free() -> Self {
        ExchangeModel {
            alpha: SimDuration::ZERO,
            beta_mb_s: f64::INFINITY,
        }
    }

    /// Cost per process of redistributing a `total_bytes` dataset over
    /// `nprocs` processes (each sends/receives ≈ its share once, in
    /// log-structured rounds).
    pub fn shuffle_cost(&self, total_bytes: u64, nprocs: usize) -> SimDuration {
        if nprocs <= 1 {
            return SimDuration::ZERO;
        }
        let rounds = (nprocs as f64).log2().ceil();
        let share = total_bytes as f64 / nprocs as f64;
        let wire = if self.beta_mb_s.is_finite() && self.beta_mb_s > 0.0 {
            SimDuration::from_secs(share / (self.beta_mb_s * 1e6))
        } else {
            SimDuration::ZERO
        };
        self.alpha * rounds + wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_free_for_one_proc() {
        assert_eq!(
            ExchangeModel::sp2().shuffle_cost(1 << 30, 1),
            SimDuration::ZERO
        );
    }

    #[test]
    fn shuffle_cost_has_latency_and_bandwidth_terms() {
        let m = ExchangeModel {
            alpha: SimDuration::from_secs(0.001),
            beta_mb_s: 1.0,
        };
        // 8 MB over 8 procs: 3 rounds of latency + 1 MB share at 1 MB/s.
        let c = m.shuffle_cost(8_000_000, 8);
        assert!((c.as_secs() - (0.003 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn free_interconnect_costs_nothing() {
        assert_eq!(
            ExchangeModel::free().shuffle_cost(1 << 30, 64),
            SimDuration::ZERO
        );
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(IoStrategy::Collective.to_string(), "collective");
        assert_eq!(IoStrategy::ALL.len(), 4);
    }
}
