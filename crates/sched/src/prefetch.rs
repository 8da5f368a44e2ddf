//! Prediction-driven read-ahead: the planner that walks a resource's
//! queued tail, the background fetch stream it admits work onto, and the
//! staging cache staged reads are served from.

use crate::drain::pop_chain;
use crate::scheduler::{Admitted, File, Queued};
use crate::wfq::WfqQueue;
use msr_core::{CoreError, MsrSystem};
use msr_obs::{ops, Layer, Recorder};
use msr_runtime::{
    staging_cache, superfile::DEFAULT_CACHE_LIMIT, EngineRequest, IoEngine, IoReport, RequestBody,
    StagingCache,
};
use msr_sim::{SimDuration, SimTime};
use msr_storage::{OpKind, Payload, SharedResource, StorageKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One planned background fetch: the future read, named by its session,
/// so it executes against the resource without touching the queues again.
pub(crate) struct PlannedFetch {
    file: File,
    req: EngineRequest,
}

/// A resource's admitted fetch work for one step, starting on the
/// background stream at `start`.
pub(crate) struct RoundPlan {
    start: SimTime,
    pub fetches: Vec<PlannedFetch>,
}

type FetchOutcome = Result<(Payload, IoReport), String>;

/// An executed [`RoundPlan`]: each fetch's outcome, in plan order.
pub(crate) struct Fetched {
    start: SimTime,
    pub results: Vec<(PlannedFetch, FetchOutcome)>,
}

impl RoundPlan {
    /// Execute the fetches against the owning resource, in plan order,
    /// each read whichever way its dump was written (a chunked dump
    /// through its manifest), as an on-demand read would be. Called right
    /// after the resource's foreground batch so every seeded jitter
    /// stream draws in the same per-resource order.
    pub fn execute(self, engine: &IoEngine, res: &SharedResource) -> Fetched {
        let results = self
            .fetches
            .into_iter()
            .map(|f| {
                let r = engine
                    .read_auto(res, &f.req.path, &f.req.dist, f.req.strategy)
                    .map_err(|e| CoreError::from(e).to_string());
                (f, r)
            })
            .collect();
        Fetched {
            start: self.start,
            results,
        }
    }
}

/// Run-local read-ahead state: the shared staging cache, one background
/// stream cursor per resource, and the admission bookkeeping, keyed on
/// each dump's [`File`]. Everything
/// here lives on the dispatcher thread; the only work that leaves it is
/// the fetches themselves, which execute right after the owning
/// resource's foreground batch, in plan order, so the per-resource
/// operation order — and with it every seeded jitter stream — is
/// independent of the worker count.
pub(crate) struct Prefetcher {
    cache: StagingCache,
    pub bg_cursors: BTreeMap<StorageKind, SimTime>,
    /// Successfully staged files: when their fetch landed, and the path
    /// the staging cache holds them under.
    ready: BTreeMap<File, (SimTime, String)>,
    /// Every file ever planned (in flight, staged, or failed) — a failed
    /// fetch is not retried in a loop; the read just runs on demand.
    planned: BTreeSet<File>,
    /// Files whose idle window was too small. Windows only shrink as the
    /// queue ahead drains, so a decline is final and is counted once.
    declined: BTreeSet<File>,
    pub staged: u64,
    pub hits: u64,
    pub waste: u64,
    pub declines: u64,
}

impl Prefetcher {
    pub fn new() -> Prefetcher {
        Prefetcher {
            cache: staging_cache(DEFAULT_CACHE_LIMIT),
            bg_cursors: BTreeMap::new(),
            ready: BTreeMap::new(),
            planned: BTreeSet::new(),
            declined: BTreeSet::new(),
            staged: 0,
            hits: 0,
            waste: 0,
            declines: 0,
        }
    }

    /// Walk `q`'s tail and admit every remote read whose predicted fetch
    /// fits the predicted idle window before its own service:
    /// `max(bg, fg) + t_fetch ≤ fg + Σ t_est(ahead)`, both sides priced by
    /// the eq. (2) estimate each queued item already carries
    /// ([`Queued::est`]). Only reads whose file exists *now* are
    /// candidates (a fetch must never observe a write that has not been
    /// served), and a read with a queued write to the same file ahead of
    /// it is skipped outright. The walk names no request: it compares
    /// file keys and checks existence through one reused path buffer.
    ///
    /// The second return value is the number of *undecided* candidates the
    /// walk saw — reads with no final plan/decline verdict yet (their write
    /// is still ahead, or their file does not exist yet). It is `None`
    /// when the walk was skipped outright (wrong kind, empty queue, open
    /// circuit). The event loop's [`PlanGate`](crate::event::PlanGate)
    /// uses it to skip provably side-effect-free walks: decisions are
    /// final, so once nothing is undecided the walk can change nothing.
    pub fn plan(
        &mut self,
        sys: &MsrSystem,
        rec: &Recorder,
        admitted: &[Admitted],
        kind: StorageKind,
        q: &WfqQueue<Queued>,
        fg_cursor: SimTime,
    ) -> (Option<RoundPlan>, Option<usize>) {
        if !matches!(kind, StorageKind::RemoteDisk | StorageKind::RemoteTape)
            || q.is_empty()
            || !sys.health.allows(kind)
        {
            return (None, None);
        }
        let Some(res) = sys.resource(kind) else {
            return (None, None);
        };
        let start = self
            .bg_cursors
            .get(&kind)
            .copied()
            .unwrap_or(fg_cursor)
            .max(fg_cursor);
        let mut bg_avail = start;
        let mut ahead = SimDuration::ZERO;
        let (mut writes_ahead, mut path) = (BTreeSet::new(), String::new());
        let mut fetches = Vec::new();
        let mut undecided = 0usize;
        for item in q.iter() {
            let est = SimDuration::from_secs(item.est);
            let a = &admitted[item.tag.session as usize];
            let file = a.file(item);
            if item.op == OpKind::Write {
                writes_ahead.insert(file);
            } else if !self.ready.contains_key(&file)
                && !self.planned.contains(&file)
                && !self.declined.contains(&file)
            {
                let mut exists = || {
                    a.session.dump_path(item.handle, item.iter, &mut path);
                    res.lock().exists(&path)
                };
                if !writes_ahead.contains(&file) && exists() {
                    if bg_avail + est <= fg_cursor + ahead {
                        self.planned.insert(file);
                        bg_avail += est;
                        let req = a.session.request(item.handle, item.iter, item.tag, None);
                        fetches.push(PlannedFetch { file, req });
                    } else {
                        // Too close to its own service: fetching would push
                        // the read later than just serving it on demand.
                        // Final — the window ahead of this path only
                        // shrinks.
                        self.declined.insert(file);
                        self.declines += 1;
                        rec.count(
                            Layer::Sched,
                            kind.name(),
                            ops::PREFETCH_DECLINE,
                            fg_cursor,
                            1.0,
                        );
                    }
                } else {
                    // Read-after-write within the drain (or the file is
                    // not on the resource yet): no verdict until the
                    // blocking write lands.
                    undecided += 1;
                }
            }
            ahead += est;
        }
        (
            (!fetches.is_empty()).then_some(RoundPlan { start, fetches }),
            Some(undecided),
        )
    }

    /// Pop the staged-ready run at the head of `q` — reads whose fetch has
    /// landed by `cursor`, chained under the same rule as a normal batch —
    /// into `out` (empty on entry).
    pub fn pop_staged_run_into(
        &self,
        admitted: &[Admitted],
        q: &mut VecDeque<Queued>,
        cursor: SimTime,
        out: &mut Vec<Queued>,
    ) {
        pop_chain(q, out, |item| {
            let file = admitted[item.tag.session as usize].file(item);
            let staged =
                |(t, path): &(SimTime, String)| *t <= cursor && self.cache.lock().contains(path);
            item.op == OpKind::Read && self.ready.get(&file).is_some_and(staged)
        });
    }

    /// Take a staged object for serving, consuming the entry.
    pub fn take(&mut self, file: File) -> Option<Payload> {
        let (_, path) = self.ready.remove(&file)?;
        let mut cache = self.cache.lock();
        let data = cache.get(&path);
        cache.invalidate(&path);
        data
    }

    /// A foreground serve touched `req`'s file: drop any staged copy. A
    /// write makes the copy stale; an on-demand read means the fetch
    /// arrived too late — either way the staged bytes were wasted. Returns
    /// whether a previously *planned* path was re-opened for future
    /// fetching (the event loop must re-walk its plan gate when that
    /// happens).
    pub fn note_foreground(
        &mut self,
        rec: &Recorder,
        comp: &str,
        file: File,
        req: &EngineRequest,
        at: SimTime,
    ) -> bool {
        let was_ready = self.ready.remove(&file).is_some();
        let cached = {
            let mut cache = self.cache.lock();
            let hit = cache.contains(&req.path);
            cache.invalidate(&req.path);
            hit
        };
        let mut reopened = false;
        if was_ready || cached {
            self.waste += 1;
            rec.count(Layer::Sched, comp, ops::PREFETCH_WASTE, at, 1.0);
            if matches!(req.body, RequestBody::Write { .. }) {
                // Overwritten: the file may be fetched again for a later
                // read once the new bytes are on the resource.
                reopened = self.planned.remove(&file);
            }
        }
        reopened
    }

    /// Fold one resource's completed fetches into the staging cache and
    /// advance its background cursor by the *measured* fetch times.
    pub fn apply_fetches(&mut self, rec: &Recorder, kind: StorageKind, fetched: Fetched) {
        let comp = kind.name();
        let mut t = fetched.start;
        for (f, result) in fetched.results {
            match result {
                Ok((data, report)) => {
                    let began = t;
                    t += report.elapsed;
                    rec.span(
                        Layer::Sched,
                        comp,
                        ops::PREFETCH,
                        began,
                        report.elapsed,
                        report.bytes,
                    );
                    if self.cache.lock().put(&f.req.path, data) {
                        self.ready.insert(f.file, (t, f.req.path));
                        self.staged += 1;
                    } else {
                        // Larger than the whole cache: the fetch was wasted.
                        self.waste += 1;
                        rec.count(Layer::Sched, comp, ops::PREFETCH_WASTE, t, 1.0);
                    }
                }
                Err(e) => {
                    // Mid-prefetch fault: drop the fetch and let the read
                    // fall back to on-demand service. No breaker failure is
                    // recorded — the session never asked for this work.
                    rec.instant(
                        Layer::Sched,
                        comp,
                        ops::PREFETCH,
                        t,
                        &format!("fetch {} failed: {e}", f.req.path),
                    );
                }
            }
        }
        let cur = self.bg_cursors.entry(kind).or_insert(t);
        *cur = (*cur).max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_core::{ChunkPolicy, Codec, DatasetSpec, LocationHint};
    use msr_meta::ElementType;
    use msr_runtime::{IoStrategy, ProcGrid, RequestOutcome, RequestTag};
    use msr_storage::payload::payload;

    /// A chunked dump fetched ahead and served from the staging cache is
    /// the dump a direct read of it returns.
    #[test]
    fn a_staged_chunked_dump_serves_what_a_direct_read_returns() {
        let sys = MsrSystem::testbed(2000);
        let grid = ProcGrid::new(1, 1, 1);
        let mut s = sys
            .session()
            .app("ckpt")
            .iterations(6)
            .grid(grid)
            .build()
            .unwrap();
        let spec = DatasetSpec::builder("chk")
            .element(ElementType::F32)
            .cube(32)
            .frequency(3)
            .hint(LocationHint::RemoteDisk)
            .chunked(ChunkPolicy::cdc(8))
            .compression(Codec::Lz4Like(1))
            .build();
        let len = spec.snapshot_bytes() as usize;
        let h = s.open(spec).unwrap();
        let data = payload(7, "chk", 3, len);
        s.write_iteration(h, 3, &data).unwrap().unwrap();

        let req = s.request(h, 3, RequestTag { session: 0, seq: 0 }, None);
        let file = (0, h, 3);
        let res = sys.resource(StorageKind::RemoteDisk).unwrap();
        let plan = RoundPlan {
            start: SimTime::EPOCH,
            fetches: vec![PlannedFetch {
                file,
                req: req.clone(),
            }],
        };
        let mut p = Prefetcher::new();
        let rec = sys.obs.recorder();
        p.apply_fetches(
            &rec,
            StorageKind::RemoteDisk,
            plan.execute(&sys.engine, &res),
        );
        assert_eq!((p.staged, p.waste), (1, 0), "the fetch was not staged");
        let staged = p.take(file).unwrap();
        let Ok(RequestOutcome::Read(served, _)) = sys.engine.staged_read("remote", &req, &staged)
        else {
            panic!("a staged read of the fetched dump failed");
        };
        let (direct, _) = sys
            .read_dataset(s.run_id(), "chk", 3, grid, IoStrategy::Collective)
            .unwrap();
        assert!(direct == data, "the direct read is not the dump written");
        assert!(
            served.into_vec() == direct,
            "the staged serve is not the direct read"
        );
    }
}
