//! The session: the paper's Fig. 5 I/O flow.
//!
//! `initialize()` registers the run in the metadata catalog. Each
//! `open()` declares a dataset with its hints and resolves a placement.
//! During the main loop the application calls `write_iteration` /
//! `read_iteration`; dumps that fail because a resource went offline or
//! filled up are transparently re-placed (the §5 reliability example) and
//! the catalog is updated so consumers can still find the data.
//! `finalize()` closes connections and returns the run's accounting.
//!
//! A dump's lifecycle inside a session is five steps, each defined once
//! here: *naming* ([`Session::request`]), *connect-on-demand*
//! ([`Session::connect`]), *execution* ([`Session::execute`]), *completion
//! accounting* ([`Session::complete`]) and *re-placement*
//! ([`Session::replace`]). A step moves no clock; it
//! returns its cost for the caller to charge. `write_iteration` and
//! `read_iteration` loop over the steps and charge the global clock; the
//! scheduler (`msr-sched`) calls the same steps for the sessions it
//! admitted and charges its per-resource cursors.
//!
//! **Failure handling** is one policy for both callers. A request whose
//! execution failed goes through [`Session::failed`]: a Fatal error
//! belongs to the caller and leaves the breaker alone; any other error
//! charges the breaker and names the failover reason. A failed write, or
//! one the breaker refused, re-places its dataset ([`Session::replace`])
//! and is tried again, at most [`MAX_TRIES`] times. A read never
//! re-places: the direct path serves its staging copy, if it has one.

use crate::dataset::DatasetSpec;
use crate::error::CoreError;
use crate::hints::LocationHint;
use crate::placement;
use crate::report::{DatasetReport, PlacementEvent, RunReport};
use crate::system::{MsrSystem, Volume};
use crate::CoreResult;
use bytes::Bytes;
use msr_meta::{AccessMode, DatasetId, DatasetRec, Location, MetaError, RunId, QUERY_COST};
use msr_obs::{ops, Layer, Recorder};
use msr_predict::{PredictionReport, PredictionRow};
use msr_runtime::{
    staging_cache, Distribution, EngineRequest, IoReport, IoStrategy, Pattern, ProcGrid,
    RequestBody, RequestOutcome, RequestTag, RuntimeError, StagingCache,
};
use msr_sim::{SimDuration, SimTime};
use msr_storage::{OpKind, Payload, StorageError, StorageKind};
use std::collections::BTreeSet;

/// Budget for the session's degraded-read staging copies.
const STAGE_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Attempts one write gets, the first included, before it is abandoned:
/// each failed or breaker-refused attempt re-places its dataset.
pub const MAX_TRIES: u32 = 3;

/// Handle to a dataset opened in a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatasetHandle(usize);

#[derive(Debug)]
struct DatasetState {
    spec: DatasetSpec,
    dist: Distribution,
    location: Option<StorageKind>,
    meta_id: DatasetId,
    /// Catalog path of the dataset: the prefix every dump file derives
    /// from (see [`AccessMode::dump_file`]).
    base: String,
    dumps: u32,
    bytes: u64,
    io_time: SimDuration,
    native_calls: usize,
}

/// Mirror one served request into the catalog: a write's dump row, and the
/// dataset's recency, which the lifecycle engine's demotion and vaulting
/// key on. The hook is free: no query cost, no clock movement.
fn note_served(
    sys: &MsrSystem,
    run: RunId,
    dataset: &str,
    row: u32,
    written: Option<u64>,
    at: SimTime,
) {
    let mut catalog = sys.catalog.lock();
    match written {
        Some(bytes) => catalog.note_dump(run, dataset, row, at.as_secs(), bytes),
        None => catalog.note_access(run, dataset, at.as_secs()),
    }
}

fn kind_or_dash(kind: Option<StorageKind>) -> String {
    kind.map_or_else(|| "-".into(), |k| k.to_string())
}

/// An active application session.
pub struct Session<'a> {
    sys: &'a MsrSystem,
    app: String,
    run: RunId,
    grid: ProcGrid,
    iterations: u32,
    datasets: Vec<DatasetState>,
    connected: BTreeSet<StorageKind>,
    events: Vec<PlacementEvent>,
    conn_time: SimDuration,
    rec: Recorder,
    /// Last good copy of each dump, for degraded reads while the
    /// authoritative resource is open-circuit.
    staged: StagingCache,
}

impl<'a> Session<'a> {
    pub(crate) fn initialize(
        sys: &'a MsrSystem,
        app: &str,
        user: &str,
        iterations: u32,
        grid: ProcGrid,
    ) -> CoreResult<Session<'a>> {
        let mut catalog = sys.catalog.lock();
        let app_id = match catalog.create_app(app, "") {
            Ok(id) => id,
            Err(MetaError::Duplicate { .. }) => catalog.app_by_name(app)?.id,
            Err(e) => return Err(e.into()),
        };
        let user_id = match catalog.create_user(user, "") {
            Ok(id) => id,
            Err(MetaError::Duplicate { .. }) => catalog.user_by_name(user)?.id,
            Err(e) => return Err(e.into()),
        };
        let run = catalog.create_run(app_id, user_id, iterations, "")?;
        drop(catalog);
        sys.clock.advance(QUERY_COST * 3.0);
        let rec = sys.obs.recorder();
        rec.count(Layer::Meta, "catalog", ops::QUERY, sys.clock.now(), 3.0);
        rec.instant(
            Layer::Session,
            app,
            ops::SESSION_INIT,
            sys.clock.now(),
            &format!("run{} user {user}", run.0),
        );
        Ok(Session {
            sys,
            app: app.to_owned(),
            run,
            grid,
            iterations,
            datasets: Vec::new(),
            connected: BTreeSet::new(),
            events: Vec::new(),
            conn_time: SimDuration::ZERO,
            rec,
            staged: staging_cache(STAGE_CACHE_BYTES),
        })
    }

    /// The catalog run id (give this to consumers so they can locate the
    /// datasets later).
    pub fn run_id(&self) -> RunId {
        self.run
    }

    /// The process grid of this session.
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// Total iterations declared.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Connect-on-demand: establish this session's connection to `kind`
    /// unless it already holds one. Returns the setup time, already on
    /// the session's `conn_time`, for the caller to charge.
    pub fn connect(&mut self, kind: StorageKind) -> CoreResult<SimDuration> {
        if self.connected.contains(&kind) {
            return Ok(SimDuration::ZERO);
        }
        let res = self.sys.resource(kind).ok_or(CoreError::NoUsableResource {
            dataset: String::new(),
            bytes: 0,
        })?;
        let cost = res.lock().connect()?;
        self.conn_time += cost.time;
        self.connected.insert(kind);
        Ok(cost.time)
    }

    /// Declare a dataset (Fig. 5's `open`): resolves placement, records the
    /// catalog row and establishes the connection.
    pub fn open(&mut self, spec: DatasetSpec) -> CoreResult<DatasetHandle> {
        let dist = Distribution::new(spec.dims, spec.etype.size(), spec.pattern, self.grid)?;
        let run_bytes = spec.run_bytes(self.iterations);
        let base = format!("{}/run{}/{}", self.app, self.run.0, spec.name);
        let volume = Volume::Of(&base);
        let location = placement::resolve(self.sys, &spec, &dist, run_bytes, volume)?;

        let meta_location = match location {
            Some(kind) => Location::Stored(kind),
            None => Location::Disabled,
        };
        let meta_id = {
            let mut catalog = self.sys.catalog.lock();
            let id = catalog.add_dataset(DatasetRec {
                id: DatasetId(0),
                run: self.run,
                name: spec.name.clone(),
                amode: spec.amode,
                etype: spec.etype,
                dims: vec![spec.dims.x, spec.dims.y, spec.dims.z],
                pattern: spec.pattern.to_string(),
                strategy: spec.strategy.to_string(),
                location: meta_location,
                frequency: spec.frequency,
                path: base.clone(),
                predicted_secs: None,
                last_access_secs: 0.0,
            })?;
            self.sys.clock.advance(QUERY_COST);
            id
        };

        let reason = match spec.hint {
            LocationHint::Disable => "disabled".to_owned(),
            LocationHint::Auto => format!("auto ({})", spec.future_use),
            h => format!("hint {h}"),
        };
        self.rec.count(
            Layer::Meta,
            "catalog",
            ops::QUERY,
            self.sys.clock.now(),
            1.0,
        );
        self.rec.instant(
            Layer::Session,
            &spec.name,
            ops::DATASET_OPEN,
            self.sys.clock.now(),
            &format!("-> {}", kind_or_dash(location)),
        );
        self.events.push(PlacementEvent {
            dataset: spec.name.clone(),
            from: None,
            to: location,
            at_iteration: 0,
            reason,
        });
        if let Some(kind) = location {
            let setup = self.connect(kind)?;
            self.sys.clock.advance(setup);
        }
        self.datasets.push(DatasetState {
            spec,
            dist,
            location,
            meta_id,
            base,
            dumps: 0,
            bytes: 0,
            io_time: SimDuration::ZERO,
            native_calls: 0,
        });
        Ok(DatasetHandle(self.datasets.len() - 1))
    }

    /// Whether dataset `h` dumps at iteration `iter`.
    pub fn dumps_at(&self, h: DatasetHandle, iter: u32) -> bool {
        let d = &self.datasets[h.0];
        d.location.is_some() && d.spec.frequency != 0 && iter.is_multiple_of(d.spec.frequency)
    }

    /// The resource dataset `h` currently lives on (`None` = DISABLEd).
    pub fn location(&self, h: DatasetHandle) -> Option<StorageKind> {
        self.datasets[h.0].location
    }

    /// The spec dataset `h` was opened with. The spec, the dataset's
    /// catalog path and its distribution are fixed at
    /// [`open`](Self::open), so naming a request later names the same one.
    pub fn spec(&self, h: DatasetHandle) -> &DatasetSpec {
        &self.datasets[h.0].spec
    }

    /// Pricing: the eq. (2) estimate of one `op` dump of dataset `h` on
    /// `kind` ([`MsrSystem::price`]) for a caller that meets the session's
    /// dumps in the order the executor does, `met` holding the resources
    /// already met: with the mount if it is the session's first dump on
    /// `kind` and the run's volume is on no drive now. An empty `met`
    /// prices the dump alone.
    pub fn price(
        &self,
        h: DatasetHandle,
        kind: StorageKind,
        op: OpKind,
        met: &mut BTreeSet<StorageKind>,
    ) -> SimDuration {
        let d = &self.datasets[h.0];
        let volume = self.next_volume(h, kind, met);
        self.sys
            .price(kind, &d.spec.name, volume, &d.spec.plan(op, d.dist))
    }

    /// The volume dataset `h`'s next dump on `kind` is priced at, for a
    /// caller that meets the session's dumps in the order the executor
    /// does: a session's datasets on one resource share its run's volume,
    /// so its first dump on `kind` finds that volume as the drives hold it
    /// now and every later one finds it mounted. `met` holds the resources
    /// already met, and gains `kind`.
    fn next_volume(
        &self,
        h: DatasetHandle,
        kind: StorageKind,
        met: &mut BTreeSet<StorageKind>,
    ) -> Volume<'_> {
        if met.insert(kind) {
            Volume::Of(&self.datasets[h.0].base)
        } else {
            Volume::Mounted
        }
    }

    /// The file of dataset `h`'s dump at `iter`, the path
    /// [`request`](Self::request) names, written into `path` in place of
    /// what it held.
    pub fn dump_path(&self, h: DatasetHandle, iter: u32, path: &mut String) {
        let d = &self.datasets[h.0];
        path.clear();
        d.spec.amode.push_dump_file(&d.base, iter, path);
    }

    /// Naming: the engine request for dataset `h`'s dump at `iter` — a
    /// write of `data`, or the read-back when `data` is `None`.
    pub fn request(
        &self,
        h: DatasetHandle,
        iter: u32,
        tag: RequestTag,
        data: Option<Payload>,
    ) -> EngineRequest {
        let d = &self.datasets[h.0];
        EngineRequest {
            tag,
            dataset: d.spec.name.clone(),
            path: d.spec.amode.dump_file(&d.base, iter),
            dist: d.dist,
            strategy: d.spec.strategy,
            // Reads self-describe through the registered manifest;
            // carrying the spec keeps report lines symmetrical.
            ingest: d.spec.ingest,
            body: match data {
                Some(data) => RequestBody::Write {
                    data,
                    mode: d.spec.write_mode(),
                },
                None => RequestBody::Read,
            },
        }
    }

    /// The tag of a request issued directly (not by a scheduler).
    fn direct_tag(&self, iter: u32) -> RequestTag {
        RequestTag {
            session: self.run.0,
            seq: u64::from(iter),
        }
    }

    /// Execution: run `req` (built by [`request`](Self::request) for
    /// dataset `h`) on the dataset's resource through the system engine.
    /// A success closes the resource's circuit breaker; a failure is
    /// decided by [`failed`](Self::failed). Returns, beside the
    /// outcome, any connection setup paid inside for the caller to charge:
    /// when the device reports the link gone (every session shares the
    /// one link per resource, and another's `finalize` tears it down) the
    /// cached connection was wrong, so the session reconnects and retries
    /// once.
    pub fn execute(
        &mut self,
        h: DatasetHandle,
        req: &EngineRequest,
    ) -> CoreResult<(RequestOutcome, SimDuration)> {
        let d = &self.datasets[h.0];
        let kind = d
            .location
            .ok_or_else(|| CoreError::DatasetDisabled(d.spec.name.clone()))?;
        let res = self.sys.resource(kind).expect("placed on registered kind");
        let mut setup = SimDuration::ZERO;
        let outcome = match self.sys.engine.execute(&res, req) {
            Err(RuntimeError::Storage(StorageError::NotConnected)) => {
                self.connected.remove(&kind);
                setup = self.connect(kind)?;
                self.sys.engine.execute(&res, req)
            }
            first => first,
        }?;
        self.sys.health.record_success(kind);
        Ok((outcome, setup))
    }

    /// Completion accounting: fold one served request of dataset `h` —
    /// `req`, the dump at `iter`, done at `at` with `report` — into the
    /// per-dataset totals and the catalog's recency columns.
    pub fn complete(
        &mut self,
        h: DatasetHandle,
        iter: u32,
        req: &EngineRequest,
        report: &IoReport,
        at: SimTime,
    ) {
        let d = &mut self.datasets[h.0];
        let written = match req.body {
            RequestBody::Write { .. } => {
                d.dumps += 1;
                Some(report.bytes)
            }
            RequestBody::Read => None,
        };
        d.bytes += report.bytes;
        d.io_time += report.elapsed;
        d.native_calls += report.native_reads + report.native_writes;
        let row = d.spec.amode.dump_row(iter);
        note_served(self.sys, self.run, &d.spec.name, row, written, at);
    }

    /// The failure rule both paths (and staging) share: decide what `e`,
    /// raised by a request on `from`, means. `None` is Fatal — the error
    /// belongs to the caller and the breaker is not charged. Otherwise the
    /// failure is charged to `from`'s breaker and the classified reason is
    /// returned, for a write to re-place under (a Retryable error here has
    /// already outlived the engine's retry budget).
    pub fn failed(&self, from: StorageKind, e: &CoreError) -> Option<&'static str> {
        self.sys.health.charge(from, e)
    }

    /// Re-placement: move dataset `h` to the next usable resource after
    /// `from` failed (or was refused by its breaker) at iteration `iter`,
    /// recording the [`PlacementEvent`], the catalog move and the
    /// observability marker. The new resource must have room for what
    /// the dataset's schedule still owes. Returns the new resource; the
    /// caller charges the catalog move's [`QUERY_COST`]. With no usable
    /// resource left the dataset stays where it was and the error says so.
    pub fn replace(
        &mut self,
        h: DatasetHandle,
        iter: u32,
        from: StorageKind,
        reason: &str,
    ) -> CoreResult<StorageKind> {
        let d = &mut self.datasets[h.0];
        // An overwrite-in-place dataset owes its one file. A dataset may
        // have been dumped more often than its schedule (the same
        // iteration written twice); the dump that failed is still owed.
        let dumps = match d.spec.amode {
            AccessMode::OverWrite => 1,
            AccessMode::Create => {
                let scheduled = self.iterations / d.spec.frequency.max(1) + 1;
                scheduled.saturating_sub(d.dumps).max(1)
            }
        };
        let owed = d.spec.snapshot_bytes() * u64::from(dumps);
        let next = placement::fallback(self.sys, &d.spec, owed, Some(from))?;
        d.location = Some(next);
        self.events.push(PlacementEvent {
            dataset: d.spec.name.clone(),
            from: Some(from),
            to: Some(next),
            at_iteration: iter,
            reason: reason.to_owned(),
        });
        let now = self.sys.clock.now();
        self.rec.instant(
            Layer::Session,
            &d.spec.name,
            ops::FAILOVER,
            now,
            &format!("{from} -> {next} at iter {iter}: {reason}"),
        );
        self.sys
            .catalog
            .lock()
            .set_dataset_location(d.meta_id, Location::Stored(next))?;
        self.rec
            .count(Layer::Meta, "catalog", ops::QUERY, now + QUERY_COST, 1.0);
        Ok(next)
    }

    /// Dump one iteration of a dataset. Returns `Ok(None)` when this
    /// iteration does not dump (frequency miss or DISABLE); transparently
    /// fails over when the placed resource is offline or full.
    pub fn write_iteration(
        &mut self,
        h: DatasetHandle,
        iter: u32,
        data: &[u8],
    ) -> CoreResult<Option<IoReport>> {
        let Some(mut kind) = self.location(h).filter(|_| self.dumps_at(h, iter)) else {
            return Ok(None);
        };
        let payload = Bytes::from(data.to_vec());
        let req = self.request(h, iter, self.direct_tag(iter), Some(payload.clone().into()));
        for _attempt in 0..MAX_TRIES {
            // An open breaker means this resource has been failing
            // repeatedly: re-place without hammering it again.
            let reason = if !self.sys.health.allows(kind) {
                "circuit open"
            } else {
                let setup = self.connect(kind)?;
                self.sys.clock.advance(setup);
                match self.execute(h, &req) {
                    Ok((outcome, setup)) => {
                        self.sys.clock.advance(setup);
                        let report = outcome.into_report();
                        self.staged.lock().put(&req.path, payload.into());
                        let done = self.sys.clock.advance(report.elapsed);
                        self.complete(h, iter, &req, &report, done);
                        return Ok(Some(report));
                    }
                    Err(e) => self.failed(kind, &e).ok_or(e)?,
                }
            };
            kind = self.replace(h, iter, kind, reason)?;
            self.sys.clock.advance(QUERY_COST);
        }
        let d = &self.datasets[h.0];
        Err(CoreError::NoUsableResource {
            dataset: d.spec.name.clone(),
            bytes: d.spec.snapshot_bytes(),
        })
    }

    /// Serve read `req` from the session's staging copy because the
    /// authoritative resource cannot: the data is flagged stale in the
    /// report (it is the last copy this session wrote, which may lag the
    /// resource if something else updated it) and only a memcpy is
    /// charged, not native I/O.
    fn degraded_read(
        &mut self,
        h: DatasetHandle,
        kind: StorageKind,
        req: &EngineRequest,
        why: &str,
    ) -> Option<(Vec<u8>, IoReport)> {
        let copy = self.staged.lock().get(&req.path)?;
        let served = self.sys.engine.staged_read(&kind.to_string(), req, &copy);
        let Ok(RequestOutcome::Read(data, mut report)) = served else {
            return None;
        };
        let data = data.into_vec();
        report.stale = true;
        let now = self.sys.clock.advance(report.elapsed);
        let d = &mut self.datasets[h.0];
        d.io_time += report.elapsed;
        d.bytes += report.bytes;
        self.rec.instant(
            Layer::Session,
            &d.spec.name,
            ops::DEGRADED_READ,
            now,
            &format!("{} from staging copy ({kind} {why})", req.path),
        );
        Some((data, report))
    }

    /// Read back one of this run's dumps (e.g. for in-run analysis).
    ///
    /// When the placed resource's circuit breaker is open — or the read
    /// fails with a recoverable error — the session serves its staging
    /// copy instead, flagged `stale` in the [`IoReport`]. Fatal errors
    /// and misses with no staged copy propagate.
    pub fn read_iteration(
        &mut self,
        h: DatasetHandle,
        iter: u32,
    ) -> CoreResult<(Vec<u8>, IoReport)> {
        let d = &self.datasets[h.0];
        let Some(kind) = d.location else {
            return Err(CoreError::DatasetDisabled(d.spec.name.clone()));
        };
        let req = self.request(h, iter, self.direct_tag(iter), None);
        if !self.sys.health.allows(kind) {
            return self.degraded_read(h, kind, &req, "open-circuit").ok_or(
                CoreError::NoUsableResource {
                    dataset: req.dataset,
                    bytes: 0,
                },
            );
        }
        let setup = self.connect(kind)?;
        self.sys.clock.advance(setup);
        match self.execute(h, &req) {
            Ok((RequestOutcome::Read(data, report), setup)) => {
                self.sys.clock.advance(setup);
                let done = self.sys.clock.advance(report.elapsed);
                self.complete(h, iter, &req, &report, done);
                Ok((data.into_vec(), report))
            }
            Ok((RequestOutcome::Written(_), _)) => unreachable!("a read request yields a read"),
            Err(e) => match self.failed(kind, &e) {
                None => Err(e),
                Some(_) => self.degraded_read(h, kind, &req, "failed").ok_or(e),
            },
        }
    }

    /// Predict this session's total I/O time, eq. (2), and record each
    /// dataset's VIRTUALTIME in the catalog (Fig. 11). Every dump is priced
    /// by [`MsrSystem::price`], the estimate placement, admission,
    /// read-ahead and lifecycle moves take, so it answers on a fresh
    /// system from the resources' own models and from the measured rows
    /// once a PTool sweep has installed them. Chunked datasets are priced
    /// at their learned post-dedup/post-compression size and object count;
    /// raw datasets at their plain shape, bit for bit. Dumps are priced in
    /// the order the executor meets them: the first dump of the session on
    /// a volume no drive holds pays the mount, carried by its dataset's
    /// row ([`PredictionRow::mount`](msr_predict::PredictionRow::mount)),
    /// and the session's later dumps on that volume pay none.
    pub fn predict(&self) -> CoreResult<PredictionReport> {
        let mut met = BTreeSet::new();
        let report: PredictionReport = self
            .datasets
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let (name, plan) = (&d.spec.name, d.spec.plan(OpKind::Write, d.dist));
                let (resource, per_dump, mount) = match d.location {
                    Some(kind) => {
                        let volume = self.next_volume(DatasetHandle(i), kind, &mut met);
                        let mount = self.sys.mount_price(kind, OpKind::Write, volume);
                        (
                            self.sys.resource(kind).map(|r| r.lock().name().to_owned()),
                            self.sys.price(kind, name, Volume::Mounted, &plan),
                            mount,
                        )
                    }
                    None => (None, SimDuration::ZERO, SimDuration::ZERO),
                };
                let calls = plan.transfers();
                let (n, freq) = (self.iterations, d.spec.frequency);
                PredictionRow::new(name, resource, n, freq, calls, per_dump).with_mount(mount)
            })
            .collect();
        let mut catalog = self.sys.catalog.lock();
        for (row, d) in report.rows.iter().zip(&self.datasets) {
            catalog.set_dataset_prediction(d.meta_id, row.total.as_secs())?;
        }
        Ok(report)
    }

    /// A snapshot of the run's accounting so far, without closing the
    /// session. Unlike [`finalize`](Session::finalize) the session stays
    /// usable, connections stay open and their teardown time is not yet
    /// charged — so a final `finalize()` report can show a larger
    /// `conn_time` than the last snapshot.
    pub fn report(&self) -> RunReport {
        let datasets = self
            .datasets
            .iter()
            .map(|d| DatasetReport {
                name: d.spec.name.clone(),
                location: d.location,
                dumps: d.dumps,
                bytes: d.bytes,
                io_time: d.io_time,
                native_calls: d.native_calls,
            })
            .collect::<Vec<_>>();
        let total_io = datasets.iter().map(|d| d.io_time).sum::<SimDuration>() + self.conn_time;
        RunReport {
            run: self.run,
            datasets,
            events: self.events.clone(),
            conn_time: self.conn_time,
            total_io,
        }
    }

    /// Close connections and produce the run's accounting (Fig. 5's
    /// `finalization()`).
    pub fn finalize(mut self) -> CoreResult<RunReport> {
        let mut disconnect_time = SimDuration::ZERO;
        for kind in std::mem::take(&mut self.connected) {
            if let Some(res) = self.sys.resource(kind) {
                if let Ok(cost) = res.lock().disconnect() {
                    disconnect_time += cost.time;
                }
            }
        }
        self.sys.clock.advance(disconnect_time);
        self.conn_time += disconnect_time;
        self.rec.instant(
            Layer::Session,
            &self.app,
            ops::SESSION_FINALIZE,
            self.sys.clock.now(),
            &format!("run{}", self.run.0),
        );
        Ok(self.report())
    }

    /// Consumer path: read a dump of a dataset recorded in the catalog.
    pub(crate) fn read_archived(
        sys: &MsrSystem,
        run: RunId,
        name: &str,
        iteration: u32,
        grid: ProcGrid,
        strategy: IoStrategy,
    ) -> CoreResult<(Vec<u8>, IoReport)> {
        let rec = sys.catalog.lock().find_dataset(run, name)?.clone();
        sys.clock.advance(QUERY_COST);
        sys.obs
            .recorder()
            .count(Layer::Meta, "catalog", ops::QUERY, sys.clock.now(), 1.0);
        let Location::Stored(kind) = rec.location else {
            return Err(CoreError::DatasetDisabled(name.to_owned()));
        };
        let dims = msr_runtime::Dims3 {
            x: rec.dims.first().copied().unwrap_or(1),
            y: rec.dims.get(1).copied().unwrap_or(1),
            z: rec.dims.get(2).copied().unwrap_or(1),
        };
        let dist = Distribution::new(dims, rec.etype.size(), Pattern::parse(&rec.pattern)?, grid)?;
        let path = rec.dump_file(iteration);
        let res = sys.resource(kind).ok_or(CoreError::NoUsableResource {
            dataset: name.to_owned(),
            bytes: 0,
        })?;
        let conn = res.lock().connect()?;
        sys.clock.advance(conn.time);
        let (data, report) = sys.engine.read_auto(&res, &path, &dist, strategy)?;
        let done = sys.clock.advance(report.elapsed);
        note_served(sys, run, name, rec.amode.dump_row(iteration), None, done);
        Ok((data.into_vec(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::FutureUse;
    use msr_meta::ElementType;

    fn spec(name: &str, hint: LocationHint) -> DatasetSpec {
        DatasetSpec::builder(name)
            .element(ElementType::U8)
            .cube(32)
            .hint(hint)
            .build()
    }

    fn payload(spec: &DatasetSpec) -> Vec<u8> {
        (0..spec.snapshot_bytes())
            .map(|i| (i % 251) as u8)
            .collect()
    }

    #[test]
    fn fig5_flow_roundtrips_through_every_kind() {
        let sys = MsrSystem::testbed(2);
        let mut s = sys
            .session()
            .app("astro3d")
            .user("xshen")
            .iterations(12)
            .grid(ProcGrid::new(2, 2, 2))
            .build()
            .unwrap();
        let hints = [
            ("a", LocationHint::LocalDisk),
            ("b", LocationHint::RemoteDisk),
            ("c", LocationHint::RemoteTape),
        ];
        let handles: Vec<(DatasetHandle, DatasetSpec)> = hints
            .iter()
            .map(|(n, h)| {
                let sp = spec(n, *h);
                (s.open(sp.clone()).unwrap(), sp)
            })
            .collect();
        for iter in 0..=12 {
            for (h, sp) in &handles {
                s.write_iteration(*h, iter, &payload(sp)).unwrap();
            }
        }
        // Read back iteration 6 of each.
        for (h, sp) in &handles {
            let (data, _) = s.read_iteration(*h, 6).unwrap();
            assert_eq!(data, payload(sp));
        }
        let run = s.run_id();
        let report = s.finalize().unwrap();
        assert_eq!(report.datasets.len(), 3);
        // 12 iterations, freq 6 → dumps at 0, 6, 12.
        assert!(report.datasets.iter().all(|d| d.dumps == 3));
        // Consumer path still finds the data through the catalog.
        let (data, _) = sys
            .read_dataset(
                run,
                "a",
                6,
                ProcGrid::new(2, 2, 2),
                msr_runtime::IoStrategy::Collective,
            )
            .unwrap();
        assert_eq!(data, payload(&handles[0].1));
    }

    #[test]
    fn frequency_misses_and_disable_return_none() {
        let sys = MsrSystem::testbed(2);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let on = s.open(spec("on", LocationHint::LocalDisk)).unwrap();
        let off = s.open(spec("off", LocationHint::Disable)).unwrap();
        let sp = spec("x", LocationHint::LocalDisk);
        assert!(s.write_iteration(on, 1, &payload(&sp)).unwrap().is_none());
        assert!(s.write_iteration(on, 6, &payload(&sp)).unwrap().is_some());
        assert!(s.write_iteration(off, 6, &payload(&sp)).unwrap().is_none());
        let report = s.finalize().unwrap();
        assert_eq!(report.datasets[1].dumps, 0);
        assert_eq!(report.datasets[1].location, None);
    }

    #[test]
    fn tape_outage_fails_over_midrun() {
        // `(iterations, dumps before the outage, the dump that meets it)`.
        // The second run has already dumped more often than its schedule
        // (iteration 0 written twice) when the outage hits.
        for (iterations, before, after) in [(12, &[0][..], 6), (0, &[0, 0][..], 0)] {
            let sys = MsrSystem::testbed(2);
            let mut s = sys
                .session()
                .app("app")
                .user("u")
                .iterations(iterations)
                .grid(ProcGrid::new(1, 1, 1))
                .build()
                .unwrap();
            let sp = spec("ckpt", LocationHint::RemoteTape).with_future_use(FutureUse::Archive);
            let h = s.open(sp.clone()).unwrap();
            for &iter in before {
                s.write_iteration(h, iter, &payload(&sp)).unwrap();
            }
            // Tape goes down for maintenance.
            sys.set_resource_online(msr_storage::StorageKind::RemoteTape, false);
            let rep = s.write_iteration(h, after, &payload(&sp)).unwrap().unwrap();
            assert!(rep.bytes > 0);
            let report = s.finalize().unwrap();
            assert_eq!(
                report.datasets[0].location,
                Some(StorageKind::RemoteDisk),
                "archive preference falls back to remote disk"
            );
            assert!(report
                .events
                .iter()
                .any(|e| e.reason == "resource offline" && e.at_iteration == after));
        }
    }

    #[test]
    fn local_capacity_overflow_spills() {
        let sys = MsrSystem::testbed(2);
        // Shrink local disk below what the dataset's run needs.
        let local = sys.resource(StorageKind::LocalDisk).unwrap();
        local.lock().set_capacity(10_000);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let sp = spec("viz", LocationHint::LocalDisk).with_future_use(FutureUse::Visualization);
        // Placement sees the full disk and immediately picks the fallback.
        let h = s.open(sp.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&sp)).unwrap();
        let report = s.finalize().unwrap();
        assert_eq!(report.datasets[0].location, Some(StorageKind::RemoteDisk));
    }

    /// The §5 reliability story end to end: each failover-worthy failure
    /// class (resource offline, capacity exceeded, network failure) gets a
    /// transparent mid-run re-placement, a recorded [`PlacementEvent`], a
    /// catalog location update and an observability marker.
    #[test]
    fn section5_failover_matrix_replaces_and_updates_catalog() {
        let sys = MsrSystem::testbed(3);
        let mut s = sys
            .session()
            .app("astro3d")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let run = s.run_id();

        let arch = spec("arch", LocationHint::RemoteTape).with_future_use(FutureUse::Archive);
        let viz = spec("viz", LocationHint::LocalDisk).with_future_use(FutureUse::Visualization);
        let chk = spec("chk", LocationHint::RemoteDisk).with_future_use(FutureUse::Visualization);
        let ha = s.open(arch.clone()).unwrap();
        let hb = s.open(viz.clone()).unwrap();
        let hc = s.open(chk.clone()).unwrap();
        for (h, sp) in [(ha, &arch), (hb, &viz), (hc, &chk)] {
            s.write_iteration(h, 0, &payload(sp)).unwrap().unwrap();
        }

        // (1) Tape down for maintenance → archive data moves to remote disk.
        sys.set_resource_online(StorageKind::RemoteTape, false);
        s.write_iteration(ha, 6, &payload(&arch)).unwrap().unwrap();

        // (2) WAN outage mid-run → the remote-disk dataset comes home.
        sys.set_wan_up(false);
        s.write_iteration(hc, 6, &payload(&chk)).unwrap().unwrap();
        sys.set_wan_up(true);

        // (3) Local disk fills up → the viz dataset spills to remote disk.
        let local = sys.resource(StorageKind::LocalDisk).unwrap();
        let used = local.lock().used_bytes();
        local.lock().set_capacity(used + 16);
        s.write_iteration(hb, 6, &payload(&viz)).unwrap().unwrap();

        let report = s.finalize().unwrap();
        let loc = |name: &str| {
            report
                .datasets
                .iter()
                .find(|d| d.name == name)
                .unwrap()
                .location
        };
        assert_eq!(loc("arch"), Some(StorageKind::RemoteDisk));
        assert_eq!(loc("chk"), Some(StorageKind::LocalDisk));
        assert_eq!(loc("viz"), Some(StorageKind::RemoteDisk));

        // One failover PlacementEvent per failure class, all at iteration 6.
        for (name, reason, to) in [
            ("arch", "resource offline", StorageKind::RemoteDisk),
            ("chk", "network failure", StorageKind::LocalDisk),
            ("viz", "capacity exceeded", StorageKind::RemoteDisk),
        ] {
            let ev = report
                .events
                .iter()
                .find(|e| e.dataset == name && e.from.is_some())
                .unwrap_or_else(|| panic!("no failover event for {name}"));
            assert_eq!(ev.reason, reason);
            assert_eq!(ev.at_iteration, 6);
            assert_eq!(ev.to, Some(to));
        }

        // The catalog tracks the moves, so later consumers find the data.
        let mut catalog = sys.catalog.lock();
        for (name, kind) in [
            ("arch", StorageKind::RemoteDisk),
            ("chk", StorageKind::LocalDisk),
            ("viz", StorageKind::RemoteDisk),
        ] {
            assert_eq!(
                catalog.find_dataset(run, name).unwrap().location,
                msr_meta::Location::Stored(kind)
            );
        }
        drop(catalog);

        // And the observability stream carries the failover markers.
        let failovers: Vec<_> = sys
            .obs
            .events()
            .into_iter()
            .filter(|e| e.layer == Layer::Session && e.op == ops::FAILOVER)
            .collect();
        assert_eq!(failovers.len(), 3);
        assert!(failovers
            .iter()
            .any(|e| e.detail.contains("network failure")));
    }

    /// A transient fault that clears within the engine's retry budget is
    /// invisible to placement: the dump lands on the hinted resource with
    /// no failover [`PlacementEvent`], only retry accounting.
    #[test]
    fn transient_fault_within_budget_is_not_replaced() {
        let mut sys = MsrSystem::testbed(7);
        let log = sys
            .inject_faults(
                StorageKind::LocalDisk,
                msr_storage::FaultPlan::none().with_error_burst(2),
            )
            .unwrap();
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let sp = spec("x", LocationHint::LocalDisk);
        let h = s.open(sp.clone()).unwrap();
        let rep = s.write_iteration(h, 0, &payload(&sp)).unwrap().unwrap();
        assert_eq!(rep.retries, 2, "both burst faults absorbed by retries");
        assert!(rep.backoff > SimDuration::ZERO);
        assert_eq!(log.errors_injected(), 2);
        let (back, _) = s.read_iteration(h, 0).unwrap();
        assert_eq!(back, payload(&sp));
        let report = s.finalize().unwrap();
        assert_eq!(report.datasets[0].location, Some(StorageKind::LocalDisk));
        assert!(
            !report.events.iter().any(|e| e.from.is_some()),
            "no failover for a fault that cleared within the retry budget"
        );
    }

    /// A persistent fault outlives the retry budget and triggers exactly
    /// one failover, with the transient-specific reason recorded.
    #[test]
    fn persistent_fault_fails_over_exactly_once() {
        let mut sys = MsrSystem::testbed(7);
        sys.inject_faults(
            StorageKind::LocalDisk,
            msr_storage::FaultPlan::none().with_error_prob(1.0),
        )
        .unwrap();
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let sp = spec("x", LocationHint::LocalDisk).with_future_use(FutureUse::Visualization);
        let h = s.open(sp.clone()).unwrap();
        let rep = s.write_iteration(h, 0, &payload(&sp)).unwrap().unwrap();
        assert!(rep.bytes > 0);
        let (back, _) = s.read_iteration(h, 0).unwrap();
        assert_eq!(back, payload(&sp));
        let report = s.finalize().unwrap();
        assert_eq!(report.datasets[0].location, Some(StorageKind::RemoteDisk));
        let failovers: Vec<_> = report.events.iter().filter(|e| e.from.is_some()).collect();
        assert_eq!(failovers.len(), 1, "exactly one failover");
        assert_eq!(failovers[0].reason, "transient fault persisted");
    }

    /// While the placed resource is failing, reads are served stale from
    /// the session's staging copy; once the breaker opens the resource is
    /// not even probed.
    #[test]
    fn degraded_read_serves_staging_copy_when_resource_fails() {
        let sys = MsrSystem::testbed(7);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let sp = spec("x", LocationHint::LocalDisk);
        let h = s.open(sp.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&sp)).unwrap().unwrap();
        sys.set_resource_online(StorageKind::LocalDisk, false);
        // Reads keep working, flagged stale, while failures accumulate.
        for _ in 0..3 {
            let (back, rep) = s.read_iteration(h, 0).unwrap();
            assert_eq!(back, payload(&sp));
            assert!(rep.stale, "served from the staging copy");
            assert_eq!(rep.native_reads, 0);
        }
        // Three consecutive failures opened the breaker: the next read is
        // served degraded without touching the resource at all.
        assert_eq!(
            sys.health.state(StorageKind::LocalDisk),
            crate::health::BreakerState::Open
        );
        let (_, rep) = s.read_iteration(h, 0).unwrap();
        assert!(rep.stale);
        assert!(sys
            .obs
            .events()
            .iter()
            .any(|e| e.op == ops::DEGRADED_READ && e.detail.contains("open-circuit")));
    }

    #[test]
    fn degraded_read_without_a_staged_copy_propagates_the_error() {
        let sys = MsrSystem::testbed(7);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let sp = spec("x", LocationHint::LocalDisk);
        let h = s.open(sp.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&sp)).unwrap().unwrap();
        sys.set_resource_online(StorageKind::LocalDisk, false);
        // Iteration 6 was never dumped: nothing staged under that path.
        assert!(matches!(
            s.read_iteration(h, 6),
            Err(CoreError::Runtime(msr_runtime::RuntimeError::Storage(
                msr_storage::StorageError::Offline { .. }
            ))) | Err(CoreError::Storage(
                msr_storage::StorageError::Offline { .. }
            ))
        ));
    }

    #[test]
    fn all_resources_down_is_an_error() {
        let sys = MsrSystem::testbed(2);
        for k in [
            StorageKind::LocalDisk,
            StorageKind::RemoteDisk,
            StorageKind::RemoteTape,
        ] {
            sys.set_resource_online(k, false);
        }
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        assert!(matches!(
            s.open(spec("x", LocationHint::RemoteTape)),
            Err(CoreError::NoUsableResource { .. })
        ));
    }

    /// A fresh testbed, with no PTool sweep, predicts from the resources'
    /// own models and records every VIRTUALTIME in the catalog.
    #[test]
    fn session_predict_works_on_a_fresh_testbed() {
        let sys = MsrSystem::testbed(2);
        assert!(sys.perf_db().is_empty());
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        s.open(spec("x", LocationHint::RemoteDisk)).unwrap();
        s.open(spec("off", LocationHint::Disable)).unwrap();
        let pred = s.predict().unwrap();
        assert_eq!(pred.rows[0].resource.as_deref(), Some("sdsc-disk"));
        assert_eq!(pred.rows[0].dumps, 12 / 6 + 1);
        assert!(pred.rows[0].total > SimDuration::ZERO);
        assert_eq!(pred.rows[1].dumps, 0, "a DISABLEd dataset never dumps");
        assert_eq!(pred.total, pred.rows[0].total);
        let mut catalog = sys.catalog.lock();
        for row in &pred.rows {
            let rec = catalog.find_dataset(s.run_id(), &row.name).unwrap();
            assert_eq!(rec.predicted_secs, Some(row.total.as_secs()));
        }
    }

    #[test]
    fn only_the_sessions_first_tape_dump_pays_the_mount() {
        let sys = MsrSystem::testbed(2);
        let mut s = sys.session().app("app").iterations(12).build().unwrap();
        s.open(spec("disk", LocationHint::RemoteDisk)).unwrap();
        s.open(spec("a", LocationHint::RemoteTape)).unwrap();
        s.open(spec("b", LocationHint::RemoteTape)).unwrap();
        let pred = s.predict().unwrap();
        let mount = SimDuration::from_secs(30.0);
        let mounts: Vec<SimDuration> = pred.rows.iter().map(|r| r.mount).collect();
        assert_eq!(mounts, [SimDuration::ZERO, mount, SimDuration::ZERO]);
        let (a, b) = (&pred.rows[1], &pred.rows[2]);
        assert_eq!(
            a.per_dump, b.per_dump,
            "the mount is not in the per-dump price"
        );
        assert_eq!(a.total, b.total + mount);
        // Once the run's volume is on a drive, no row pays it.
        let h = DatasetHandle(1);
        let data = payload(s.spec(h));
        s.write_iteration(h, 0, &data).unwrap();
        assert!(s
            .predict()
            .unwrap()
            .rows
            .iter()
            .all(|r| r.mount == SimDuration::ZERO));
    }

    #[test]
    fn session_predict_records_virtualtime_in_catalog() {
        let mut sys = MsrSystem::testbed(2);
        sys.run_ptool(&msr_predict::PTool {
            sizes: vec![1 << 14, 1 << 18, 1 << 21],
            reps: 2,
            scratch_prefix: "ptool/s".into(),
        })
        .unwrap();
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        s.open(spec("x", LocationHint::RemoteDisk)).unwrap();
        let pred = s.predict().unwrap();
        assert!(pred.total > SimDuration::ZERO);
        let run = s.run_id();
        let mut catalog = sys.catalog.lock();
        let rec = catalog.find_dataset(run, "x").unwrap();
        assert!(rec.predicted_secs.unwrap() > 0.0);
    }

    /// `report()` snapshots mid-run accounting without closing the
    /// session; the session remains writable afterwards and the final
    /// `finalize()` report extends the snapshot.
    #[test]
    fn report_snapshots_without_consuming_the_session() {
        let sys = MsrSystem::testbed(2);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let sp = spec("x", LocationHint::LocalDisk);
        let h = s.open(sp.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&sp)).unwrap().unwrap();

        let mid = s.report();
        assert_eq!(mid.datasets.len(), 1);
        assert_eq!(mid.datasets[0].dumps, 1);
        assert!(mid.total_io > SimDuration::ZERO);

        // Still usable: another dump lands and the next snapshot grows.
        s.write_iteration(h, 6, &payload(&sp)).unwrap().unwrap();
        let later = s.report();
        assert_eq!(later.datasets[0].dumps, 2);
        assert!(later.datasets[0].bytes > mid.datasets[0].bytes);

        let fin = s.finalize().unwrap();
        assert_eq!(fin.datasets[0].dumps, 2);
        assert!(
            fin.conn_time >= later.conn_time,
            "finalize adds disconnect time on top of the snapshot"
        );
    }

    #[test]
    fn finalize_report_matches_last_snapshot_accounting() {
        let sys = MsrSystem::testbed(3);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(6)
            .build()
            .unwrap();
        let sp = spec("x", LocationHint::RemoteDisk);
        let h = s.open(sp.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&sp)).unwrap().unwrap();
        let snap = s.report();
        let fin = s.finalize().unwrap();
        assert_eq!(fin.run, snap.run);
        assert_eq!(fin.datasets[0].io_time, snap.datasets[0].io_time);
        assert_eq!(fin.events.len(), snap.events.len());
    }

    #[test]
    fn a_new_session_reuses_a_finalized_sessions_app_row() {
        let sys = MsrSystem::testbed(2);
        let s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let _ = s.finalize().unwrap();
        // A new session on the same app name reuses the application row.
        let mut s2 = sys
            .session()
            .app("app")
            .user("u2")
            .iterations(12)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        assert!(s2.open(spec("y", LocationHint::LocalDisk)).is_ok());
    }

    /// Two sessions share the one SRB link to the remote disks. The first
    /// to finalize tears it down under the second, whose cached
    /// "connected" flag is now wrong: its next dump reconnects, pays the
    /// setup and lands, instead of dying with `NotConnected`.
    #[test]
    fn a_link_torn_down_by_another_session_is_reconnected() {
        let sys = MsrSystem::testbed(2);
        let open = |app: &str| {
            let mut s = sys
                .session()
                .app(app)
                .user("u")
                .iterations(12)
                .grid(ProcGrid::new(1, 1, 1))
                .build()
                .unwrap();
            let h = s.open(spec("x", LocationHint::RemoteDisk)).unwrap();
            (s, h)
        };
        let sp = spec("x", LocationHint::RemoteDisk);
        let (mut first, h1) = open("first");
        let (mut second, h2) = open("second");
        first
            .write_iteration(h1, 0, &payload(&sp))
            .unwrap()
            .unwrap();
        second
            .write_iteration(h2, 0, &payload(&sp))
            .unwrap()
            .unwrap();
        let before = second.report().conn_time;
        first.finalize().unwrap();

        let clock = sys.clock.now();
        let rep = second
            .write_iteration(h2, 6, &payload(&sp))
            .unwrap()
            .unwrap();
        let setup = second.report().conn_time - before;
        assert!(setup > SimDuration::ZERO, "the reconnect is paid for");
        assert_eq!(sys.clock.now(), clock + setup + rep.elapsed);
        let (back, _) = second.read_iteration(h2, 6).unwrap();
        assert_eq!(back, payload(&sp));
        let report = second.finalize().unwrap();
        assert_eq!(report.datasets[0].location, Some(StorageKind::RemoteDisk));
        assert!(
            !report.events.iter().any(|e| e.from.is_some()),
            "no failover"
        );
    }

    #[test]
    fn clock_advances_with_io() {
        let sys = MsrSystem::testbed(2);
        let before = sys.clock.now();
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(6)
            .grid(ProcGrid::new(1, 1, 1))
            .build()
            .unwrap();
        let sp = spec("x", LocationHint::RemoteDisk);
        let h = s.open(sp.clone()).unwrap();
        s.write_iteration(h, 0, &payload(&sp)).unwrap();
        assert!(sys.clock.now() > before);
    }
}
