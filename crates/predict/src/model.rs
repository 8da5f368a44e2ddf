//! The per-dump cost model: the engine's call plan priced by eq. (1).
//!
//! The paper prices a dump by "the number of 'native' I/O calls needed for
//! the request and the data size of each 'native' I/O unit" (§4.2). Those
//! calls are the run-time engine's own [`CallPlan`], and [`plan_time`]
//! folds its steps over a performance profile without enumerating a run:
//!
//! - `T_conn + T_connclose` once per dump, as the paper's worked example
//!   charges it (its `t(s)` includes `T_conn`). This is a divergence from
//!   what the engine does: a session connects once per resource, at
//!   admission, outside every dump. It over-prices each remote-disk dump
//!   of `fleet_10k` by +34.5 % of its served time.
//! - Per rank, `T_open + Σ (T_seek + T(bytes) × streams) × runs +
//!   T_fileclose`: each transfer contends with the plan's other streams,
//!   and seeks only where the engine seeks. Each step is priced from the
//!   row of its own direction, so a data-sieving write pays its
//!   read-modify-write pass at read rates.
//! - Host copies and the interconnect exchange at zero: eq. (1) has no
//!   term for them.
//! - The maximum over ranks, which run in parallel between barriers.
//! - A chunked dataset's [`Learned`] shape: every transfer's bytes scaled
//!   by the learned ratio, and one open and close per object beyond the
//!   first.
//!
//! The tape mount is not a plan step, because whether a dump pays it
//! depends on the drives, not on the plan. The one price
//! (`MsrSystem::price` in `msr-core`) adds the row's
//! [`FixedCosts::mount`](msr_storage::FixedCosts::mount) once to a dump
//! whose volume is on no drive, and nothing to a dump whose volume is
//! mounted. The mount is 0 on disks.

use crate::perfdb::ResourceProfile;
use crate::ratio::Learned;
use msr_runtime::{CallPlan, Step};
use msr_sim::SimDuration;
use msr_storage::OpKind;

/// Predicted cost of one dump run as `plan`, against `row(op)` — a
/// measured database row, or one synthesized from a resource's model
/// hooks ([`ResourceProfile::of_model`]) — for each direction, with the
/// byte figures and object count `learned` for the dataset. Returns the
/// parallel makespan the engine produces, per the rules in the module
/// doc. Allocates nothing.
pub fn plan_time<'a>(
    plan: &CallPlan,
    row: impl Fn(OpKind) -> &'a ResourceProfile,
    learned: Learned,
) -> SimDuration {
    let dump = row(plan.op()).fixed;
    let streams = f64::from(plan.streams());
    let mut slowest = SimDuration::ZERO;
    for rank in 0..plan.dist().nprocs() {
        let mut t = SimDuration::ZERO;
        // The row of the object opened last, which its close is priced at.
        let mut open = dump;
        for step in plan.steps(rank) {
            match step {
                Step::Open { mode, .. } => {
                    open = row(mode.op()).fixed;
                    t += open.open;
                }
                Step::Transfer {
                    op,
                    unit,
                    bytes,
                    runs,
                } => {
                    let p = row(op);
                    let seek = if unit.seeks() {
                        p.fixed.seek
                    } else {
                        SimDuration::ZERO
                    };
                    let contended = p.transfer_time(learned.scale(bytes)) * streams;
                    t += (seek + contended) * runs as f64;
                }
                Step::Close => t += open.close,
                Step::Copy { .. } | Step::Exchange => {}
            }
        }
        slowest = slowest.max(t);
    }
    let priced = dump.conn + dump.connclose + slowest;
    // Every object beyond the first pays its own open and close. Raw
    // dumps are one object and skip the term, bit for bit.
    if learned.objects > 1.0 {
        priced + (dump.open + dump.close) * (learned.objects - 1.0)
    } else {
        priced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_runtime::{Dims3, Distribution, IoStrategy, Pattern, ProcGrid};
    use msr_storage::{FixedCosts, OpenMode, StorageKind};

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
                mount: SimDuration::ZERO,
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

    fn dist(n: u64, procs: (u32, u32, u32), elem: u64) -> Distribution {
        let grid = ProcGrid::new(procs.0, procs.1, procs.2);
        Distribution::new(Dims3::cube(n), elem, Pattern::bbb(), grid).unwrap()
    }

    /// `strategy`'s `Create` dump of `d`, priced on one row.
    fn priced(p: &ResourceProfile, strategy: IoStrategy, d: Distribution) -> SimDuration {
        let plan = CallPlan::write(strategy, OpenMode::Create, d);
        plan_time(&plan, |_| p, Learned::default())
    }

    #[test]
    fn collective_dump_matches_paper_worked_example_shape() {
        // 2 MB collective write to remote disk ≈ 8.5 s (paper: 8.47).
        let d = dist(128, (1, 1, 1), 1);
        assert_eq!(d.total_bytes(), 2_097_152);
        let t = priced(&remote_disk(), IoStrategy::Collective, d).as_secs();
        assert!((8.0..9.0).contains(&t), "got {t}");
    }

    #[test]
    fn a_collective_dump_is_conn_open_transfer_close_connclose() {
        let p = &remote_disk();
        let d = dist(64, (2, 2, 2), 4);
        let f = p.fixed;
        let paper = f.conn + f.connclose + (f.open + p.transfer_time(d.total_bytes()) + f.close);
        assert_eq!(priced(p, IoStrategy::Collective, d), paper);
    }

    #[test]
    fn each_extra_object_costs_exactly_one_open_and_close() {
        let p = &remote_disk();
        let d = dist(64, (2, 2, 2), 4);
        for strategy in IoStrategy::ALL {
            let plan = CallPlan::write(strategy, OpenMode::Create, d);
            let base = plan_time(&plan, |_| p, Learned::default());
            for objects in [2.0, 1.7, 3.0] {
                let many = Learned {
                    objects,
                    ..Learned::default()
                };
                assert_eq!(
                    plan_time(&plan, |_| p, many),
                    base + (p.fixed.open + p.fixed.close) * (objects - 1.0),
                    "{strategy} at {objects} objects"
                );
            }
            // One object — or a nonsense count below it — is the raw
            // price, bit for bit.
            for objects in [1.0, 0.0, f64::NAN] {
                let same = Learned {
                    objects,
                    ..Learned::default()
                };
                assert_eq!(plan_time(&plan, |_| p, same), base);
            }
        }
    }

    #[test]
    fn naive_costs_dwarf_collective_on_remote() {
        let d = dist(64, (2, 2, 2), 4);
        let p = remote_disk();
        let coll = priced(&p, IoStrategy::Collective, d);
        let naive = priced(&p, IoStrategy::Naive, d);
        assert!(
            naive.as_secs() > 3.0 * coll.as_secs(),
            "naive {naive} vs collective {coll}"
        );
    }

    #[test]
    fn subfile_between_naive_and_collective() {
        let d = dist(64, (2, 2, 2), 4);
        let p = remote_disk();
        let coll = priced(&p, IoStrategy::Collective, d);
        let sub = priced(&p, IoStrategy::Subfile, d);
        let naive = priced(&p, IoStrategy::Naive, d);
        assert!(coll <= sub && sub <= naive, "{coll} <= {sub} <= {naive}");
    }

    #[test]
    fn a_sieving_write_pays_its_read_pass_at_read_rates() {
        let d = dist(64, (2, 2, 2), 4);
        let write = remote_disk();
        let read = ResourceProfile {
            samples: write.samples.iter().map(|&(b, t)| (b, t * 2.0)).collect(),
            ..write.clone()
        };
        let rows = |op| if op == OpKind::Read { &read } else { &write };
        let sieve_read = plan_time(
            &CallPlan::read(IoStrategy::DataSieving, d),
            rows,
            Learned::default(),
        );
        let create = CallPlan::write(IoStrategy::DataSieving, OpenMode::Create, d);
        let sieve_write = plan_time(&create, rows, Learned::default());
        // Rank 1 reads its extent at read rates, then writes it back.
        let runs = d.chunks_for(1);
        let extent = runs[runs.len() - 1].end() - runs[0].offset;
        let f = write.fixed;
        let pass =
            |p: &ResourceProfile| f.open + (f.seek + p.transfer_time(extent) * 8.0) + f.close;
        let rank1 = f.conn + f.connclose + pass(&read) + pass(&write);
        assert!(
            (sieve_write - rank1).as_secs().abs() < 1e-9,
            "{sieve_write} vs {rank1}"
        );
        assert!(sieve_write > sieve_read, "{sieve_write} > {sieve_read}");
    }

    #[test]
    fn the_learned_ratio_shrinks_every_transfer() {
        let p = &remote_disk();
        let d = dist(64, (1, 1, 1), 4);
        let plan = CallPlan::write(IoStrategy::Collective, OpenMode::Create, d);
        let quarter = Learned {
            ratio: 0.25,
            objects: 1.0,
        };
        let f = p.fixed;
        let shrunk =
            f.conn + f.connclose + (f.open + p.transfer_time(d.total_bytes() / 4) + f.close);
        assert_eq!(plan_time(&plan, |_| p, quarter), shrunk);
    }
}
