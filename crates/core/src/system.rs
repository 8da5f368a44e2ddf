//! The assembled environment (the paper's Fig. 4).

use crate::builder::SessionBuilder;
use crate::health::HealthTracker;
use crate::load::LoadBoard;
use crate::placement::PlacementPolicy;
use crate::session::Session;
use crate::tenant::TenantRegistry;
use crate::CoreResult;
use msr_meta::{Catalog, ResourceRec, RunId};
use msr_net::SharedNetwork;
use msr_obs::{Recorder, Registry};
use msr_predict::{plan_time, PTool, PerfDb, RatioBook, ResourceProfile};
use msr_runtime::{CallPlan, IoEngine, IoStrategy, ProcGrid};
use msr_sim::{derive_seed, Clock, SimDuration};
use msr_storage::{share, testbed, FaultLog, FaultPlan, OpKind, SharedResource, StorageKind};
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where the volume of a priced dump stands, which decides whether the
/// dump pays its resource's mount ([`MsrSystem::price`]). Only tape
/// mounts; a disk prices the same in every case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volume<'a> {
    /// The volume holding this file (a dataset's catalog path or one of
    /// its dump files): mounted or not, as its device says now.
    Of(&'a str),
    /// A volume no drive holds: that of a run not yet opened.
    Fresh,
    /// A volume an earlier dump of the same series has just mounted.
    Mounted,
}

/// The configured multi-storage environment: network, storage resources,
/// metadata catalog, performance database and the virtual clock.
pub struct MsrSystem {
    /// The ANL↔SDSC WAN.
    pub net: SharedNetwork,
    /// Global virtual clock.
    pub clock: Clock,
    /// The metadata catalog (the NWU "Postgres").
    pub catalog: Arc<Mutex<Catalog>>,
    /// The run-time I/O engine.
    pub engine: IoEngine,
    /// The cross-layer observability registry: every layer's structured
    /// events land here (see `msr-obs`).
    pub obs: Registry,
    /// Per-resource circuit breakers fed by session-level outcomes and
    /// consulted by placement (see `crate::health`).
    pub health: HealthTracker,
    /// Live per-resource admission-queue depths, written by a scheduler
    /// and read by scored AUTO placement (see `crate::load`).
    pub load: LoadBoard,
    /// Registered tenants: weights, quotas and SLOs consulted by the
    /// scheduler's admission controller (see `crate::tenant`).
    pub tenants: TenantRegistry,
    /// Every resource, observed. Fault injection is configured in place:
    /// a `SharedResource` handed out earlier sees the stage switched on.
    resources: BTreeMap<StorageKind, SharedResource>,
    /// Learned per-dataset `moved / logical` byte ratios from the chunk
    /// plane, consulted wherever eq. (2) prices a chunked dataset's bytes
    /// (scored placement, prefetch admission, lifecycle pricing).
    ratios: Mutex<RatioBook>,
    /// The profile [`price`](Self::price) resolved per resource and
    /// operation, kept until a call that changes it clears the table.
    profiles: Mutex<BTreeMap<(StorageKind, OpKind), ResourceProfile>>,
    /// Measured rows: empty until [`run_ptool`](Self::run_ptool) or
    /// [`set_perf_db`](Self::set_perf_db) installs some.
    perf_db: PerfDb,
    policy: PlacementPolicy,
    seed: u64,
}

impl MsrSystem {
    /// Build the calibrated §3.2 testbed environment: local disks at ANL,
    /// SRB remote disks and HPSS tape at SDSC over one WAN link, catalog at
    /// NWU (priced per query by `QUERY_COST`; there is no NWU link).
    ///
    /// ```
    /// use msr_core::{DatasetSpec, LocationHint, MsrSystem};
    /// use msr_meta::ElementType;
    ///
    /// let sys = MsrSystem::testbed(42);
    /// let mut session = sys.session().app("demo").user("me").iterations(12).build()?;
    /// let spec = DatasetSpec::builder("d")
    ///     .element(ElementType::U8)
    ///     .cube(8)
    ///     .hint(LocationHint::RemoteDisk)
    ///     .build();
    /// let data = vec![7u8; spec.snapshot_bytes() as usize];
    /// let h = session.open(spec)?;
    /// session.write_iteration(h, 0, &data)?;
    /// let (back, _) = session.read_iteration(h, 0)?;
    /// assert_eq!(back, data);
    /// # Ok::<(), msr_core::CoreError>(())
    /// ```
    pub fn testbed(seed: u64) -> Self {
        let tb = testbed(seed);
        let clock = Clock::new();
        let obs = Registry::new();
        // Every layer writes into the same registry through its own
        // recorder, stamped with the shared virtual clock.
        let resources = BTreeMap::from(
            [
                share(tb.local.observed(obs.recorder(), clock.clone())),
                share(tb.remote_disk.observed(obs.recorder(), clock.clone())),
                share(tb.tape.observed(obs.recorder(), clock.clone())),
            ]
            .map(|r| {
                let kind = r.lock().kind();
                (kind, r)
            }),
        );
        tb.net.write().set_observer(obs.recorder(), clock.clone());
        let mut engine = IoEngine::new(derive_seed(seed, "retry"));
        engine.set_observer(obs.recorder(), clock.clone());

        let mut catalog = Catalog::new();
        for (kind, res) in &resources {
            let r = res.lock();
            catalog.register_resource(ResourceRec {
                name: r.name().to_owned(),
                kind: *kind,
                site: match kind {
                    StorageKind::LocalDisk => "ANL".to_owned(),
                    _ => "SDSC".to_owned(),
                },
                capacity: r.capacity_bytes(),
            });
        }

        let health = HealthTracker::new(clock.clone(), obs.recorder());
        MsrSystem {
            net: tb.net,
            clock,
            catalog: Arc::new(Mutex::new(catalog)),
            engine,
            obs,
            health,
            load: LoadBoard::new(),
            tenants: TenantRegistry::new(),
            resources,
            ratios: Mutex::new(RatioBook::new()),
            profiles: Mutex::new(BTreeMap::new()),
            perf_db: PerfDb::new(),
            policy: PlacementPolicy::Hinted,
            seed,
        }
    }

    /// A fresh recorder attached to this system's observability registry
    /// (for application-level events: `Layer::App`).
    pub fn obs_recorder(&self) -> Recorder {
        self.obs.recorder()
    }

    /// The master seed this system was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The active placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Switch placement policy (e.g. to the §7 performance-target policy).
    pub fn set_policy(&mut self, policy: PlacementPolicy) {
        self.policy = policy;
    }

    /// The resource of a kind, if registered.
    pub fn resource(&self, kind: StorageKind) -> Option<SharedResource> {
        self.resources.get(&kind).cloned()
    }

    /// All registered resources.
    pub fn resources(&self) -> impl Iterator<Item = (StorageKind, SharedResource)> + '_ {
        self.resources.iter().map(|(k, r)| (*k, r.clone()))
    }

    /// Inject or clear an outage on a resource (§5's "tape system is down
    /// for maintenance").
    pub fn set_resource_online(&self, kind: StorageKind, up: bool) {
        if let Some(res) = self.resource(kind) {
            res.lock().set_online(up);
        }
    }

    /// Switch on the seeded transient-fault stage of `kind`'s resource
    /// (replacing any earlier plan). Returns the shared fault log
    /// for reconciling what was injected against what the resilience
    /// machinery reports, or `None` if the kind is not registered. The
    /// stage's seed derives from the system seed and the kind, so chaos
    /// runs replay deterministically.
    pub fn inject_faults(&mut self, kind: StorageKind, plan: FaultPlan) -> Option<FaultLog> {
        let res = self.resources.get(&kind)?;
        let seed = derive_seed(self.seed, &format!("fault:{kind}"));
        Some(res.lock().inject_faults(plan, self.clock.clone(), seed))
    }

    /// Background load on the ANL↔SDSC WAN (equivalent competing streams).
    pub fn set_wan_background_load(&self, load: f64) {
        self.net.write().set_background_load(load);
        self.profiles.lock().clear();
    }

    /// Bring the WAN link down or up.
    pub fn set_wan_up(&self, up: bool) {
        self.net.write().set_up(up);
        self.profiles.lock().clear();
    }

    /// Run PTool over every registered resource, install the resulting
    /// performance database and return how much virtual time the sweep
    /// itself consumed. Running it again re-measures every resource under
    /// the current conditions and replaces the database.
    pub fn run_ptool(&mut self, ptool: &PTool) -> CoreResult<SimDuration> {
        let resources: Vec<SharedResource> = self.resources().map(|(_, r)| r).collect();
        let mut db = PerfDb::new();
        ptool.populate(&mut db, &resources)?;
        // PTool's probing consumed operations; clear the counters so run
        // reports start clean.
        for res in &resources {
            res.lock().reset_stats();
        }
        self.set_perf_db(db);
        Ok(SimDuration::ZERO)
    }

    /// The performance database's measured rows (empty before a sweep).
    pub fn perf_db(&self) -> &PerfDb {
        &self.perf_db
    }

    /// Install an externally built performance database.
    pub fn set_perf_db(&mut self, db: PerfDb) {
        self.perf_db = db;
        self.profiles.get_mut().clear();
    }

    /// Begin fluent session construction (the `initialization()` of
    /// Fig. 5):
    ///
    /// ```
    /// # use msr_core::MsrSystem;
    /// # let sys = MsrSystem::testbed(1);
    /// let session = sys.session().app("astro3d").iterations(12).build()?;
    /// # Ok::<(), msr_core::CoreError>(())
    /// ```
    pub fn session(&self) -> SessionBuilder<'_> {
        SessionBuilder::new(self)
    }

    /// Read a dataset dump produced by an earlier run — the consumer path
    /// used by the post-processing tools (data analysis, Volren, viewers).
    /// Placement is looked up in the catalog; the caller only names the
    /// run, dataset and iteration.
    pub fn read_dataset(
        &self,
        run: RunId,
        name: &str,
        iteration: u32,
        grid: ProcGrid,
        strategy: IoStrategy,
    ) -> CoreResult<(Vec<u8>, msr_runtime::IoReport)> {
        Session::read_archived(self, run, name, iteration, grid, strategy)
    }

    /// Total *physical* bytes currently stored per resource kind — what
    /// actually occupies media after chunk dedup and compression. This is
    /// what capacity planning and the lifecycle engine's occupancy
    /// thresholds see.
    pub fn usage(&self) -> BTreeMap<StorageKind, u64> {
        self.resources
            .iter()
            .map(|(k, r)| (*k, r.lock().used_bytes()))
            .collect()
    }

    /// Total *logical* bytes per resource kind — the bytes applications
    /// wrote, before dedup and compression. Identical to
    /// [`usage`](Self::usage) when no chunked dataset exists.
    pub fn usage_logical(&self) -> BTreeMap<StorageKind, u64> {
        self.resources
            .iter()
            .map(|(k, r)| (*k, r.lock().logical_bytes()))
            .collect()
    }

    /// Drain the chunk plane's pending transfer observations into the
    /// ratio book and return how many were folded. Deterministic given a
    /// deterministic dump order: observations are EWMA-folded per dataset
    /// and every dataset's own observations arrive in dump order (they
    /// serialize under the resource lock).
    pub fn sync_ratios(&self) -> usize {
        let deltas = self.engine.chunk_plane().take_deltas();
        let mut book = self.ratios.lock();
        for d in &deltas {
            book.observe(
                &d.dataset,
                d.logical_bytes,
                d.moved_bytes,
                d.objects_written,
            );
        }
        deltas.len()
    }

    /// The learned `moved / logical` ratio for `dataset` (`1.0` until the
    /// chunk plane has reported a dump for it).
    pub fn predicted_ratio(&self, dataset: &str) -> f64 {
        self.ratios.lock().learned(dataset).ratio
    }

    /// The eq. (2) price of one dump of `dataset` run as `plan` on `kind` —
    /// the one single-dump estimate scored placement, admission,
    /// read-ahead, lifecycle moves and [`Session::predict`] all take. It
    /// always answers: each direction's profile is the measured database
    /// row for the resource, else [`ResourceProfile::of_model`], the
    /// resource's own fixed costs and transfer model read live. Profiles
    /// are resolved once and kept until [`run_ptool`](Self::run_ptool),
    /// [`set_perf_db`](Self::set_perf_db), [`set_wan_up`](Self::set_wan_up)
    /// or [`set_wan_background_load`](Self::set_wan_background_load)
    /// changes what they would be. A chunked dataset is priced at the
    /// shape the chunk plane taught the ratio book (bytes at the learned
    /// ratio, the learned number of objects); any other at its plan, bit
    /// for bit. A dump whose `volume` is on no drive also pays the row's
    /// mount ([`mount_price`](Self::mount_price)). A warm price allocates
    /// nothing.
    pub fn price(
        &self,
        kind: StorageKind,
        dataset: &str,
        volume: Volume<'_>,
        plan: &CallPlan,
    ) -> SimDuration {
        let learned = self.ratios.lock().learned(dataset);
        let profiles = self.profiles_of(kind);
        let dump = plan_time(plan, |op| &profiles[&(kind, op)], learned);
        let mount = profiles[&(kind, plan.op())].fixed.mount;
        drop(profiles);
        dump + self.mount_due(kind, mount, volume)
    }

    /// The part of [`price`](Self::price) that a dump in `volume` pays
    /// for the mount: the `op` row's
    /// [`FixedCosts::mount`](msr_storage::FixedCosts::mount) where the
    /// volume is on no drive, else zero (always zero on disks). A series
    /// of dumps on one volume pays it once: price the dumps
    /// [`Volume::Mounted`] and add this for the first.
    pub fn mount_price(&self, kind: StorageKind, op: OpKind, volume: Volume<'_>) -> SimDuration {
        let mount = self.profiles_of(kind)[&(kind, op)].fixed.mount;
        self.mount_due(kind, mount, volume)
    }

    /// The kept profiles, with both of `kind`'s rows resolved.
    fn profiles_of(
        &self,
        kind: StorageKind,
    ) -> MutexGuard<'_, BTreeMap<(StorageKind, OpKind), ResourceProfile>> {
        let mut profiles = self.profiles.lock();
        for op in [OpKind::Read, OpKind::Write] {
            profiles.entry((kind, op)).or_insert_with(|| {
                let r = self.resources[&kind].lock();
                let row = self.perf_db.get(r.name(), op).ok();
                row.cloned()
                    .unwrap_or_else(|| ResourceProfile::of_model(&*r, op))
            });
        }
        profiles
    }

    /// `mount` if a dump in `volume` on `kind` has to wait for it.
    fn mount_due(&self, kind: StorageKind, mount: SimDuration, volume: Volume<'_>) -> SimDuration {
        let cold = mount > SimDuration::ZERO
            && match volume {
                Volume::Of(path) => !self.resources[&kind].lock().mounted(path),
                Volume::Fresh => true,
                Volume::Mounted => false,
            };
        if cold {
            mount
        } else {
            SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_registers_three_resources() {
        let sys = MsrSystem::testbed(1);
        assert!(sys.resource(StorageKind::LocalDisk).is_some());
        assert!(sys.resource(StorageKind::RemoteDisk).is_some());
        assert!(sys.resource(StorageKind::RemoteTape).is_some());
        assert_eq!(sys.resources().count(), 3);
        assert_eq!(sys.catalog.lock().resources().len(), 3);
    }

    #[test]
    fn outage_injection_reaches_the_resource() {
        let sys = MsrSystem::testbed(1);
        sys.set_resource_online(StorageKind::RemoteTape, false);
        let tape = sys.resource(StorageKind::RemoteTape).unwrap();
        assert!(!tape.lock().is_online());
        sys.set_resource_online(StorageKind::RemoteTape, true);
        assert!(tape.lock().is_online());
    }

    #[test]
    fn ptool_installs_a_predictor() {
        let mut sys = MsrSystem::testbed(1);
        assert!(sys.perf_db().is_empty(), "no measured row before the sweep");
        let pt = PTool {
            sizes: vec![1 << 16, 1 << 20],
            reps: 2,
            scratch_prefix: "ptool/x".into(),
        };
        sys.run_ptool(&pt).unwrap();
        assert_eq!(sys.perf_db().len(), 6, "3 resources x 2 ops");
    }

    #[test]
    fn price_takes_the_database_row_once_one_is_installed() {
        let mut sys = MsrSystem::testbed(1);
        let (cube, bbb) = (msr_runtime::Dims3::cube(16), msr_runtime::Pattern::bbb());
        let dist = msr_runtime::Distribution::new(cube, 4, bbb, ProcGrid::new(1, 1, 1)).unwrap();
        let plan = CallPlan::read(IoStrategy::Collective, dist);
        let price = |sys: &MsrSystem| sys.price(StorageKind::LocalDisk, "d", Volume::Fresh, &plan);
        let modelled = price(&sys);
        assert_eq!(price(&sys), modelled);
        let local = sys.resource(StorageKind::LocalDisk).unwrap();
        let mut measured = ResourceProfile::of_model(&*local.lock(), OpKind::Read);
        measured.samples = vec![(1, 123.0), (1 << 30, 123.0)];
        let mut db = PerfDb::new();
        db.insert(local.lock().name(), OpKind::Read, measured)
            .unwrap();
        sys.set_perf_db(db);
        let secs = (price(&sys) - modelled).as_secs();
        assert!(secs > 100.0, "the planted row replaced the kept profile");
    }

    #[test]
    fn a_cold_tape_volume_pays_the_rows_mount_once() {
        let sys = MsrSystem::testbed(1);
        let (cube, bbb) = (msr_runtime::Dims3::cube(16), msr_runtime::Pattern::bbb());
        let dist = msr_runtime::Distribution::new(cube, 4, bbb, ProcGrid::new(1, 1, 1)).unwrap();
        let plan = CallPlan::write(IoStrategy::Collective, msr_storage::OpenMode::Create, dist);
        let tape = StorageKind::RemoteTape;
        let price = |kind, volume| sys.price(kind, "d", volume, &plan);
        let warm = price(tape, Volume::Mounted);
        let mount = SimDuration::from_secs(30.0);
        assert_eq!(sys.mount_price(tape, OpKind::Write, Volume::Fresh), mount);
        assert_eq!(price(tape, Volume::Fresh), warm + mount);
        assert_eq!(price(tape, Volume::Of("run1/d.t00000")), warm + mount);
        {
            let res = sys.resource(tape).unwrap();
            let mut r = res.lock();
            r.connect().unwrap();
            let h = r.open("run1/d.t00000", msr_storage::OpenMode::Create);
            r.close(h.unwrap().value).unwrap();
        }
        // A sibling file is on the mounted volume.
        assert_eq!(price(tape, Volume::Of("run1/d.t00006")), warm);
        assert_eq!(price(tape, Volume::Of("run2/d.t00000")), warm + mount);
        // Disks never mount: every volume prices bit for bit the same.
        for kind in [StorageKind::LocalDisk, StorageKind::RemoteDisk] {
            let bits = |volume| price(kind, volume).as_secs().to_bits();
            assert_eq!(bits(Volume::Fresh), bits(Volume::Mounted));
            assert_eq!(bits(Volume::Of("run2/d.t00000")), bits(Volume::Mounted));
        }
    }

    #[test]
    fn wan_controls_take_effect() {
        let sys = MsrSystem::testbed(1);
        sys.set_wan_up(false);
        let rd = sys.resource(StorageKind::RemoteDisk).unwrap();
        assert!(rd.lock().connect().is_err(), "WAN down: cannot connect");
        sys.set_wan_up(true);
        assert!(rd.lock().connect().is_ok());
        sys.set_wan_background_load(3.0);
    }
}
