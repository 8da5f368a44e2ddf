//! Call plans: what each strategy does to storage, written once.
//!
//! A [`CallPlan`] is one dump's native calls: for each rank an ordered list
//! of [`Step`]s — open, transfer (counted, where the call repeats), a host
//! copy or the interconnect exchange, close — and the stream count the
//! device serves. [`CallPlan::steps`] is the one place that knows what a
//! strategy issues: [`IoEngine`](crate::IoEngine) runs the steps and
//! `msr-predict` prices them, so the calls eq. (2) counts are the calls
//! the engine makes. A rank's steps come from its shape in closed form,
//! so walking a plan allocates nothing, however many runs it has.

use crate::layout::Distribution;
use crate::strategy::IoStrategy;
use msr_storage::{OpKind, OpenMode};

/// The object a step opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Object {
    /// The dump's one file, `<path>`.
    Dump,
    /// The rank's own subfile of the dump, `<path>.subNNN`.
    Subfile,
}

/// What one transfer or host copy of a rank covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Each of the rank's contiguous runs, in place in the file.
    Run,
    /// The rank's covering extent, from its first byte to its last.
    Extent,
    /// The rank's runs packed end to end: its whole subfile.
    Packed,
    /// The whole array.
    Whole,
}

impl Unit {
    /// Whether each transfer of this unit seeks to its offset first (a
    /// packed or whole transfer streams from offset 0).
    pub fn seeks(self) -> bool {
        matches!(self, Unit::Run | Unit::Extent)
    }
}

/// One step of a rank's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Open `object` in `mode`. A read-mode open inside a write plan is a
    /// read-modify-write pass: it, and its steps up to the next close, are
    /// skipped when the object does not exist yet (there is nothing to
    /// preserve).
    Open { object: Object, mode: OpenMode },
    /// `runs` native transfers of `bytes` each in direction `op`, each of
    /// one `unit` ([`Unit::seeks`] says whether a seek precedes it).
    Transfer {
        op: OpKind,
        unit: Unit,
        bytes: u64,
        runs: u64,
    },
    /// A host copy of the rank's `bytes` between its runs and a buffer
    /// laid out as `unit` — gather or overlay before a write, extract
    /// after a read — charged at the node's memcpy rate.
    Copy { unit: Unit, bytes: u64 },
    /// The interconnect exchange of two-phase I/O: every rank waits at a
    /// barrier, then each pays its share of the shuffle.
    Exchange,
    /// Close the object opened last.
    Close,
}

/// One dump's native-call pattern under a strategy; see the module doc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallPlan {
    pub(crate) strategy: IoStrategy,
    mode: OpenMode,
    pub(crate) dist: Distribution,
}

impl CallPlan {
    /// The plan of reading a dump laid out as `dist` under `strategy`.
    pub fn read(strategy: IoStrategy, dist: Distribution) -> Self {
        CallPlan {
            strategy,
            mode: OpenMode::Read,
            dist,
        }
    }

    /// The plan of writing a dump laid out as `dist` under `strategy`,
    /// opened in writable `mode` (`Create` for a fresh file, `OverWrite`
    /// for one rewritten in place).
    pub fn write(strategy: IoStrategy, mode: OpenMode, dist: Distribution) -> Self {
        CallPlan {
            strategy,
            mode,
            dist,
        }
    }

    /// Read or write.
    pub fn op(&self) -> OpKind {
        self.mode.op()
    }

    /// The dump's layout.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// Concurrent streams the device serves while the plan runs: one
    /// aggregated stream for collective I/O, one per rank otherwise.
    pub fn streams(&self) -> u32 {
        match self.strategy {
            IoStrategy::Collective => 1,
            _ => self.dist.nprocs() as u32,
        }
    }

    /// Native transfers (reads plus writes) the plan issues over all
    /// ranks — eq. (2)'s `n(j)`, assuming an `OverWrite` dump rewrites an
    /// object that exists.
    pub fn transfers(&self) -> u64 {
        (0..self.dist.nprocs())
            .flat_map(|rank| self.steps(rank))
            .map(|step| match step {
                Step::Transfer { runs, .. } => runs,
                _ => 0,
            })
            .sum()
    }

    /// Rank `rank`'s steps, in the order the engine issues them.
    pub fn steps(&self, rank: usize) -> impl Iterator<Item = Step> {
        use IoStrategy::*;
        use OpKind::{Read, Write};
        let d = &self.dist;
        let open = |object, mode| Some(Step::Open { object, mode });
        let transfer = |op, unit, bytes, runs| {
            Some(Step::Transfer {
                op,
                unit,
                bytes,
                runs,
            })
        };
        let copy = |unit, bytes| Some(Step::Copy { unit, bytes });
        let close = Some(Step::Close);
        // Only the first toucher of a fresh file may truncate it.
        let own_mode = match self.mode {
            OpenMode::Create if rank > 0 => OpenMode::OverWrite,
            mode => mode,
        };
        let owned = d.bytes_for(rank);
        let shape = d.shape(rank);
        let steps = match (self.strategy, self.op(), shape) {
            (Naive, op, _) => {
                let (runs, bytes) = shape.map_or((0, 0), |(runs, first, _)| (runs, first));
                pad([
                    open(Object::Dump, own_mode),
                    transfer(op, Unit::Run, bytes, runs),
                    close,
                ])
            }
            // A rank that owns nothing has no extent to sieve.
            (DataSieving, _, None) => pad([]),
            (DataSieving, Read, Some((_, _, extent))) => pad([
                open(Object::Dump, OpenMode::Read),
                transfer(Read, Unit::Extent, extent.len, 1),
                copy(Unit::Extent, owned),
                close,
            ]),
            (DataSieving, Write, Some((_, _, extent))) => {
                // Read-modify-write: fetch the extent, overlay this rank's
                // runs, write it back. A fresh file's first writer has
                // nothing to preserve.
                let rmw = !(rank == 0 && self.mode == OpenMode::Create);
                let fill = |step| if rmw { step } else { None };
                [
                    fill(open(Object::Dump, OpenMode::Read)),
                    fill(transfer(Read, Unit::Extent, extent.len, 1)),
                    fill(close),
                    copy(Unit::Extent, owned),
                    open(Object::Dump, own_mode),
                    transfer(Write, Unit::Extent, extent.len, 1),
                    close,
                ]
            }
            // Two-phase I/O: rank 0 makes the one aggregated call.
            (Collective, _, _) if rank > 0 => pad([]),
            (Collective, Read, _) => pad([
                open(Object::Dump, OpenMode::Read),
                transfer(Read, Unit::Whole, d.total_bytes(), 1),
                close,
                Some(Step::Exchange),
            ]),
            (Collective, Write, _) => pad([
                Some(Step::Exchange),
                open(Object::Dump, self.mode),
                transfer(Write, Unit::Whole, d.total_bytes(), 1),
                close,
            ]),
            // Each rank owns its subfile outright, so `Create` never
            // tramples another rank's data.
            (Subfile, Read, _) => pad([
                open(Object::Subfile, OpenMode::Read),
                transfer(Read, Unit::Packed, owned, 1),
                copy(Unit::Packed, owned),
                close,
            ]),
            (Subfile, Write, _) => pad([
                copy(Unit::Packed, owned),
                open(Object::Subfile, self.mode),
                transfer(Write, Unit::Packed, owned, 1),
                close,
            ]),
        };
        steps.into_iter().flatten()
    }
}

/// `steps`, padded to the longest rank's plan.
fn pad<const N: usize>(steps: [Option<Step>; N]) -> [Option<Step>; 7] {
    let mut all = [None; 7];
    all[..N].copy_from_slice(&steps);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Dims3, Pattern, ProcGrid};

    fn dist(n: u64, grid: ProcGrid) -> Distribution {
        Distribution::new(Dims3::cube(n), 4, Pattern::bbb(), grid).unwrap()
    }

    #[test]
    fn transfer_counts_per_strategy() {
        let d = dist(128, ProcGrid::new(2, 2, 2));
        let count = |plan: CallPlan| plan.transfers();
        use IoStrategy::*;
        assert_eq!(count(CallPlan::read(Collective, d)), 1);
        assert_eq!(count(CallPlan::read(Subfile, d)), 8);
        assert_eq!(count(CallPlan::read(DataSieving, d)), 8);
        assert_eq!(count(CallPlan::read(Naive, d)), 8 * 64 * 64);
        // The sieving write's read pass: every rank but a fresh file's
        // first writer reads its extent before writing it.
        let create = CallPlan::write(DataSieving, OpenMode::Create, d);
        let over = CallPlan::write(DataSieving, OpenMode::OverWrite, d);
        assert_eq!((count(create), count(over)), (15, 16));
    }

    #[test]
    fn streams_are_one_for_collective_and_p_otherwise() {
        let d = dist(16, ProcGrid::new(2, 2, 2));
        for strategy in IoStrategy::ALL {
            let want = if strategy == IoStrategy::Collective {
                1
            } else {
                8
            };
            assert_eq!(CallPlan::read(strategy, d).streams(), want, "{strategy}");
        }
    }

    #[test]
    fn later_ranks_never_truncate_a_fresh_file() {
        let d = dist(16, ProcGrid::new(2, 1, 1));
        for strategy in [IoStrategy::Naive, IoStrategy::DataSieving] {
            let plan = CallPlan::write(strategy, OpenMode::Create, d);
            let modes = |rank| {
                plan.steps(rank)
                    .filter_map(|s| match s {
                        Step::Open { mode, .. } => Some(mode),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(modes(0), [OpenMode::Create], "{strategy}");
            assert_eq!(modes(1).last(), Some(&OpenMode::OverWrite), "{strategy}");
        }
    }

    #[test]
    fn a_rank_that_owns_nothing_sieves_nothing_but_opens_its_subfile() {
        let d = Distribution::new(
            Dims3 { x: 5, y: 8, z: 8 },
            4,
            Pattern::bbb(),
            ProcGrid::new(8, 1, 1),
        )
        .unwrap();
        let read = |strategy| CallPlan::read(strategy, d).steps(7).count();
        assert_eq!(read(IoStrategy::DataSieving), 0);
        assert_eq!(read(IoStrategy::Collective), 0);
        // Open and close, with no run to transfer.
        assert_eq!(CallPlan::read(IoStrategy::Naive, d).steps(7).count(), 3);
        assert_eq!(CallPlan::read(IoStrategy::Naive, d).transfers(), 5);
        // An empty subfile is still written and read.
        assert_eq!(CallPlan::read(IoStrategy::Subfile, d).transfers(), 8);
    }
}
