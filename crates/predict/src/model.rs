//! The per-dump cost model: eq. (1) composed per strategy.
//!
//! The paper's eq. (1) prices one native call; a dump of a distributed
//! dataset issues a strategy-dependent *pattern* of native calls. The
//! predictor interprets "the number of 'native' I/O calls needed for the
//! request and the data size of each 'native' I/O unit" (§4.2) per
//! strategy, and returns the parallel makespan a run-time engine of P
//! processes produces. Following the paper's worked example, the fixed
//! connection cost is charged on every dump (their `t(s)` includes
//! `T_conn`), which slightly over-estimates engines that hold a session
//! connection open — a deliberate fidelity to the published algorithm.

use msr_runtime::{Distribution, IoStrategy};
use msr_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The distribution facts the model needs, decoupled from `Distribution`
/// so plans can also be written down directly (e.g. from catalog rows).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessSummary {
    /// Bytes of one dump of the full dataset.
    pub total_bytes: u64,
    /// Number of processes.
    pub nprocs: u32,
    /// Contiguous file runs per process (naive's per-proc call count).
    pub runs_per_proc: u64,
    /// Bytes of one contiguous run.
    pub run_bytes: u64,
    /// Bytes of a process's covering extent (data sieving's unit).
    pub extent_bytes: u64,
    /// Bytes a single process owns (subfile's unit).
    pub proc_bytes: u64,
    /// Objects one dump is stored as, each opened and closed once: 1 for
    /// a raw dump, the learned manifest + pack count for a chunked one
    /// (see [`crate::RatioBook`]).
    pub objects: f64,
}

impl AccessSummary {
    /// Summarize a concrete distribution (rank 0 is representative; block
    /// decompositions are balanced to ±1 element).
    pub fn of(dist: &Distribution) -> Self {
        let (runs_per_proc, run_bytes, extent_bytes) = dist.run_shape(0);
        AccessSummary {
            total_bytes: dist.total_bytes(),
            nprocs: dist.nprocs() as u32,
            runs_per_proc,
            run_bytes,
            extent_bytes,
            proc_bytes: dist.bytes_for(0),
            objects: 1.0,
        }
    }

    /// Native calls per dump under a strategy (the `n(j)` of eq. (2)).
    pub fn native_calls(&self, strategy: IoStrategy) -> u64 {
        match strategy {
            IoStrategy::Naive => u64::from(self.nprocs) * self.runs_per_proc,
            IoStrategy::DataSieving => u64::from(self.nprocs),
            IoStrategy::Collective => 1,
            IoStrategy::Subfile => u64::from(self.nprocs),
        }
    }
}

/// Predicted cost of one dump of the dataset under `strategy` against the
/// profile `p` — a measured database row, or one synthesized from a
/// resource's model hooks
/// ([`ResourceProfile::of_model`](crate::ResourceProfile::of_model)) —
/// per the composed eq. (1). Returns the parallel makespan.
pub fn dump_time_with(
    p: &crate::perfdb::ResourceProfile,
    strategy: IoStrategy,
    access: &AccessSummary,
) -> SimDuration {
    let f = p.fixed;
    let session = f.conn + f.connclose;
    let per_proc = match strategy {
        IoStrategy::Collective => {
            // One aggregated native call: conn + open + T(total) + close +
            // connclose — the paper's worked example exactly. No seek: the
            // aggregated call streams from offset 0 (Table 1 writes its
            // seek column as "-" for exactly this reason).
            f.open + p.transfer_time(access.total_bytes) + f.close
        }
        IoStrategy::Naive => {
            // Each process: one open, then per run a seek and a transfer
            // contending with the other P−1 processes.
            let contended = p.transfer_time(access.run_bytes) * f64::from(access.nprocs.max(1));
            f.open + (f.seek + contended) * access.runs_per_proc as f64 + f.close
        }
        IoStrategy::DataSieving => {
            // One covering-extent access per process (write adds the RMW
            // read pass, priced by the caller issuing two dump_time_with calls
            // if desired; the single pass is the dominant term).
            let contended = p.transfer_time(access.extent_bytes) * f64::from(access.nprocs.max(1));
            f.open + f.seek + contended + f.close
        }
        IoStrategy::Subfile => {
            let contended = p.transfer_time(access.proc_bytes) * f64::from(access.nprocs.max(1));
            f.open + contended + f.close
        }
    };
    let dump = session + per_proc;
    // Every object beyond the first pays its own open and close. Raw
    // dumps are one object and skip the term, bit for bit.
    if access.objects > 1.0 {
        dump + (f.open + f.close) * (access.objects - 1.0)
    } else {
        dump
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfdb::ResourceProfile;
    use msr_runtime::{Dims3, Pattern, ProcGrid};
    use msr_storage::{FixedCosts, StorageKind};

    /// An `sdsc-disk` write row.
    fn remote_disk() -> ResourceProfile {
        ResourceProfile {
            kind: StorageKind::RemoteDisk,
            fixed: FixedCosts {
                conn: SimDuration::from_secs(0.44),
                open: SimDuration::from_secs(0.42),
                seek: SimDuration::ZERO,
                close: SimDuration::from_secs(0.83),
                connclose: SimDuration::from_secs(0.0002),
            },
            // ~0.295 MB/s effective rate with a WAN latency floor at
            // small sizes (what a full PTool sweep measures).
            samples: vec![
                (4_096, 0.044),
                (262_144, 0.889),
                (2_097_152, 7.109),
                (16_777_216, 56.87),
            ],
        }
    }

    fn access(n: u64, procs: (u32, u32, u32), elem: u64) -> AccessSummary {
        let dist = Distribution::new(
            Dims3::cube(n),
            elem,
            Pattern::bbb(),
            ProcGrid::new(procs.0, procs.1, procs.2),
        )
        .unwrap();
        AccessSummary::of(&dist)
    }

    #[test]
    fn collective_dump_matches_paper_worked_example_shape() {
        // 2 MB collective write to remote disk ≈ 8.5 s (paper: 8.47).
        let a = access(128, (1, 1, 1), 1);
        assert_eq!(a.total_bytes, 2_097_152);
        let t = dump_time_with(&remote_disk(), IoStrategy::Collective, &a).as_secs();
        assert!((8.0..9.0).contains(&t), "got {t}");
    }

    #[test]
    fn each_extra_object_costs_exactly_one_open_and_close() {
        let p = &remote_disk();
        let one = access(64, (2, 2, 2), 4);
        for strategy in [
            IoStrategy::Collective,
            IoStrategy::Naive,
            IoStrategy::DataSieving,
            IoStrategy::Subfile,
        ] {
            let base = dump_time_with(p, strategy, &one);
            for objects in [2.0, 1.7, 3.0] {
                let many = AccessSummary { objects, ..one };
                assert_eq!(
                    dump_time_with(p, strategy, &many),
                    base + (p.fixed.open + p.fixed.close) * (objects - 1.0),
                    "{strategy} at {objects} objects"
                );
            }
            // One object — or a nonsense count below it — is the raw
            // price, bit for bit.
            for objects in [1.0, 0.0, f64::NAN] {
                let same = AccessSummary { objects, ..one };
                assert_eq!(dump_time_with(p, strategy, &same), base);
            }
        }
    }

    #[test]
    fn native_call_counts() {
        let a = access(128, (2, 2, 2), 4);
        assert_eq!(a.native_calls(IoStrategy::Collective), 1);
        assert_eq!(a.native_calls(IoStrategy::Subfile), 8);
        assert_eq!(a.native_calls(IoStrategy::DataSieving), 8);
        assert_eq!(a.native_calls(IoStrategy::Naive), 8 * 64 * 64);
    }

    #[test]
    fn naive_costs_dwarf_collective_on_remote() {
        let a = access(64, (2, 2, 2), 4);
        let p = remote_disk();
        let coll = dump_time_with(&p, IoStrategy::Collective, &a);
        let naive = dump_time_with(&p, IoStrategy::Naive, &a);
        assert!(
            naive.as_secs() > 3.0 * coll.as_secs(),
            "naive {naive} vs collective {coll}"
        );
    }

    #[test]
    fn subfile_between_naive_and_collective() {
        let a = access(64, (2, 2, 2), 4);
        let p = remote_disk();
        let coll = dump_time_with(&p, IoStrategy::Collective, &a);
        let sub = dump_time_with(&p, IoStrategy::Subfile, &a);
        let naive = dump_time_with(&p, IoStrategy::Naive, &a);
        assert!(coll <= sub && sub <= naive, "{coll} <= {sub} <= {naive}");
    }

    #[test]
    fn access_summary_of_single_proc() {
        let a = access(32, (1, 1, 1), 4);
        assert_eq!(a.runs_per_proc, 1);
        assert_eq!(a.run_bytes, a.total_bytes);
        assert_eq!(a.proc_bytes, a.total_bytes);
        assert_eq!(a.extent_bytes, a.total_bytes);
    }
}
