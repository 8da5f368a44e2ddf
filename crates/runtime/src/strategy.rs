//! I/O strategies and the interconnect's shuffle price.

use msr_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the run-time library performs one dataset access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoStrategy {
    /// One native call per contiguous file run per process. The baseline.
    Naive,
    /// Each process accesses its covering extent in one native call and
    /// sieves its runs out of the buffer; a write first reads the extent
    /// and merges its runs into it (read-modify-write).
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

/// Per-message latency of the compute-side interconnect (the SP-2 switch,
/// ~40 µs).
const ALPHA: SimDuration = SimDuration::from_secs(40e-6);
/// Per-process link bandwidth of the SP-2 switch, MB/s.
const BETA_MB_S: f64 = 35.0;

/// The α–β price of the shuffle phase of two-phase collective I/O: cost per
/// process of redistributing a `total_bytes` dataset over `nprocs`
/// processes (each sends/receives ≈ its share once, in log-structured
/// rounds).
pub(crate) fn shuffle_cost(total_bytes: u64, nprocs: usize) -> SimDuration {
    if nprocs <= 1 {
        return SimDuration::ZERO;
    }
    let rounds = (nprocs as f64).log2().ceil();
    let share = total_bytes as f64 / nprocs as f64;
    ALPHA * rounds + SimDuration::from_secs(share / (BETA_MB_S * 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_free_for_one_proc() {
        assert_eq!(shuffle_cost(1 << 30, 1), SimDuration::ZERO);
    }

    #[test]
    fn shuffle_cost_has_latency_and_bandwidth_terms() {
        // 35 MB over 8 procs: 3 rounds of 40 µs + a 4.375 MB share at
        // 35 MB/s.
        let c = shuffle_cost(35_000_000, 8);
        assert!((c.as_secs() - (3.0 * 40e-6 + 0.125)).abs() < 1e-9);
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(IoStrategy::Collective.to_string(), "collective");
        assert_eq!(IoStrategy::ALL.len(), 4);
    }
}
