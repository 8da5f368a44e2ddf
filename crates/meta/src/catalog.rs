//! The embedded catalog: typed tables with keys, queries and persistence.

use crate::error::MetaError;
use crate::records::{
    AppId, ApplicationRec, DatasetId, DatasetRec, DumpRec, DumpState, Location, ResourceRec, RunId,
    RunRec, UserId, UserRec,
};
use crate::MetaResult;
use msr_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::hash::Hash;
use std::path::Path;

/// Virtual cost a caller charges per catalog query — the campus round trip
/// to the NWU database. Metadata access is cheap by design (§3.2).
pub const QUERY_COST: SimDuration = SimDuration::from_secs(4.0 / 1e3);

/// Derived lookup tables over the row vectors. Never serialized — rebuilt
/// wholesale after deserialization — and maintained inline on insert and
/// prune, so the hot-path lookups (`find_dataset` on every open, the free
/// `note_*` recency hooks on every served request) touch only the run's
/// own rows and allocate nothing, instead of scanning a table that grows
/// with every admitted session, and a pruned dump row costs O(log n). At
/// 10k concurrent sessions the scans were quadratic in the drain length.
#[derive(Debug, Default)]
struct Indexes {
    /// Application name → row position.
    apps: HashMap<String, usize>,
    /// User name → row position.
    users: HashMap<String, usize>,
    /// Run id → the row positions of its datasets, in row order. A run
    /// has a handful of datasets, so a lookup compares a few names: no
    /// key is built and nothing is hashed.
    datasets: Vec<Vec<usize>>,
    /// `(dataset, iteration)` → dump row position, ordered so a dataset's
    /// dumps are one key range in iteration order.
    dumps: BTreeMap<(u64, u32), usize>,
}

/// The metadata database: applications, users, runs, datasets, dumps and
/// storage resources.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Catalog {
    apps: Vec<ApplicationRec>,
    users: Vec<UserRec>,
    runs: Vec<RunRec>,
    datasets: Vec<DatasetRec>,
    resources: Vec<ResourceRec>,
    #[serde(default)]
    dumps: Vec<DumpRec>,
    #[serde(skip)]
    queries: u64,
    #[serde(skip)]
    index: Indexes,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Number of queries served (observability; each costs
    /// [`QUERY_COST`] of virtual time to the caller).
    pub fn query_count(&self) -> u64 {
        self.queries
    }

    fn count_query(&mut self) {
        self.queries += 1;
    }

    /// Rebuild every derived index from the row vectors after
    /// deserialization, refusing a unique name that appears twice.
    fn rebuild_indexes(&mut self) -> MetaResult<()> {
        self.index = Indexes::default();
        for (i, a) in self.apps.iter().enumerate() {
            index_unique(
                &mut self.index.apps,
                a.name.clone(),
                i,
                "applications",
                &a.name,
            )?;
        }
        for (i, u) in self.users.iter().enumerate() {
            index_unique(&mut self.index.users, u.name.clone(), i, "users", &u.name)?;
        }
        self.index.datasets = vec![Vec::new(); self.runs.len()];
        for (i, d) in self.datasets.iter().enumerate() {
            if self.dataset_row(d.run, &d.name).is_some() {
                return Err(MetaError::Duplicate {
                    table: "datasets",
                    key: format!("{}/{}", d.run, d.name),
                });
            }
            self.index.datasets[d.run.0 as usize].push(i);
        }
        for (i, x) in self.dumps.iter().enumerate() {
            if self.index.dumps.insert((x.dataset.0, x.iter), i).is_some() {
                return Err(MetaError::Duplicate {
                    table: "dumps",
                    key: format!("{}@{}", x.dataset, x.iter),
                });
            }
        }
        Ok(())
    }

    /// Refuse keys a consistent catalog cannot hold: a primary key that is
    /// not its row's position (a lookup by id would miss the row, or land
    /// on another one) or a foreign key that names no row.
    fn check_keys(&self) -> MetaResult<()> {
        check_ids("applications", self.apps.iter().map(|a| a.id.0))?;
        check_ids("users", self.users.iter().map(|u| u.id.0))?;
        check_ids("runs", self.runs.iter().map(|r| r.id.0))?;
        check_ids("datasets", self.datasets.iter().map(|d| d.id.0))?;
        let refers = |table, key: &dyn Display, id: u64, rows: usize| {
            if id < rows as u64 {
                Ok(())
            } else {
                Err(MetaError::ForeignKey {
                    table,
                    key: key.to_string(),
                })
            }
        };
        for r in &self.runs {
            refers("runs", &r.app, r.app.0, self.apps.len())?;
            refers("runs", &r.user, r.user.0, self.users.len())?;
        }
        for d in &self.datasets {
            refers("datasets", &d.run, d.run.0, self.runs.len())?;
        }
        for x in &self.dumps {
            refers("dumps", &x.dataset, x.dataset.0, self.datasets.len())?;
        }
        Ok(())
    }

    // ---- applications ----------------------------------------------------

    /// Register an application; names are unique.
    pub fn create_app(&mut self, name: &str, description: &str) -> MetaResult<AppId> {
        if self.index.apps.contains_key(name) {
            return Err(MetaError::Duplicate {
                table: "applications",
                key: name.to_owned(),
            });
        }
        let id = AppId(self.apps.len() as u64);
        self.index.apps.insert(name.to_owned(), self.apps.len());
        self.apps.push(ApplicationRec {
            id,
            name: name.to_owned(),
            description: description.to_owned(),
        });
        Ok(id)
    }

    /// Look up an application by name.
    pub fn app_by_name(&mut self, name: &str) -> MetaResult<&ApplicationRec> {
        self.count_query();
        match self.index.apps.get(name) {
            Some(&i) => Ok(&self.apps[i]),
            None => Err(MetaError::NotFound {
                table: "applications",
                key: name.to_owned(),
            }),
        }
    }

    // ---- users -----------------------------------------------------------

    /// Register a user; names are unique.
    pub fn create_user(&mut self, name: &str, site: &str) -> MetaResult<UserId> {
        if self.index.users.contains_key(name) {
            return Err(MetaError::Duplicate {
                table: "users",
                key: name.to_owned(),
            });
        }
        let id = UserId(self.users.len() as u64);
        self.index.users.insert(name.to_owned(), self.users.len());
        self.users.push(UserRec {
            id,
            name: name.to_owned(),
            site: site.to_owned(),
        });
        Ok(id)
    }

    /// Look up a user by name.
    pub fn user_by_name(&mut self, name: &str) -> MetaResult<&UserRec> {
        self.count_query();
        match self.index.users.get(name) {
            Some(&i) => Ok(&self.users[i]),
            None => Err(MetaError::NotFound {
                table: "users",
                key: name.to_owned(),
            }),
        }
    }

    // ---- runs ------------------------------------------------------------

    /// Create a run of `app` by `user`.
    pub fn create_run(
        &mut self,
        app: AppId,
        user: UserId,
        iterations: u32,
        tag: &str,
    ) -> MetaResult<RunId> {
        if self.apps.get(app.0 as usize).is_none() {
            return Err(MetaError::ForeignKey {
                table: "runs",
                key: app.to_string(),
            });
        }
        if self.users.get(user.0 as usize).is_none() {
            return Err(MetaError::ForeignKey {
                table: "runs",
                key: user.to_string(),
            });
        }
        let id = RunId(self.runs.len() as u64);
        self.index.datasets.push(Vec::new());
        self.runs.push(RunRec {
            id,
            app,
            user,
            iterations,
            tag: tag.to_owned(),
        });
        Ok(id)
    }

    /// Fetch a run.
    pub fn run(&mut self, id: RunId) -> MetaResult<&RunRec> {
        self.count_query();
        self.runs.get(id.0 as usize).ok_or(MetaError::NotFound {
            table: "runs",
            key: id.to_string(),
        })
    }

    // ---- datasets ----------------------------------------------------------

    /// Register a dataset for a run; `(run, name)` is unique.
    pub fn add_dataset(&mut self, mut rec: DatasetRec) -> MetaResult<DatasetId> {
        if self.runs.get(rec.run.0 as usize).is_none() {
            return Err(MetaError::ForeignKey {
                table: "datasets",
                key: rec.run.to_string(),
            });
        }
        if self.dataset_row(rec.run, &rec.name).is_some() {
            return Err(MetaError::Duplicate {
                table: "datasets",
                key: format!("{}/{}", rec.run, rec.name),
            });
        }
        let id = DatasetId(self.datasets.len() as u64);
        rec.id = id;
        self.index.datasets[rec.run.0 as usize].push(self.datasets.len());
        self.datasets.push(rec);
        Ok(id)
    }

    /// Fetch a dataset by primary key.
    pub fn dataset(&mut self, id: DatasetId) -> MetaResult<&DatasetRec> {
        self.count_query();
        self.datasets.get(id.0 as usize).ok_or(MetaError::NotFound {
            table: "datasets",
            key: id.to_string(),
        })
    }

    /// The row position of dataset `(run, name)`.
    fn dataset_row(&self, run: RunId, name: &str) -> Option<usize> {
        let rows = self.index.datasets.get(run.0 as usize)?;
        rows.iter()
            .copied()
            .find(|&i| self.datasets[i].name == name)
    }

    /// Find a dataset by `(run, name)` — the lookup the API layer performs
    /// on every open.
    pub fn find_dataset(&mut self, run: RunId, name: &str) -> MetaResult<&DatasetRec> {
        self.count_query();
        match self.dataset_row(run, name) {
            Some(i) => Ok(&self.datasets[i]),
            None => Err(MetaError::NotFound {
                table: "datasets",
                key: format!("{run}/{name}"),
            }),
        }
    }

    /// All datasets of a run.
    pub fn datasets_for_run(&mut self, run: RunId) -> Vec<DatasetRec> {
        self.count_query();
        let rows = self
            .index
            .datasets
            .get(run.0 as usize)
            .map_or(&[][..], Vec::as_slice);
        rows.iter().map(|&i| self.datasets[i].clone()).collect()
    }

    /// Update a dataset's resolved location (placement decisions are
    /// recorded so post-processing tools can find the data).
    pub fn set_dataset_location(&mut self, id: DatasetId, loc: Location) -> MetaResult<()> {
        let d = self
            .datasets
            .get_mut(id.0 as usize)
            .ok_or(MetaError::NotFound {
                table: "datasets",
                key: id.to_string(),
            })?;
        d.location = loc;
        Ok(())
    }

    /// Record the predictor's estimate for a dataset (VIRTUALTIME column).
    pub fn set_dataset_prediction(&mut self, id: DatasetId, secs: f64) -> MetaResult<()> {
        let d = self
            .datasets
            .get_mut(id.0 as usize)
            .ok_or(MetaError::NotFound {
                table: "datasets",
                key: id.to_string(),
            })?;
        d.predicted_secs = Some(secs);
        Ok(())
    }

    // ---- dumps & access recency --------------------------------------------
    //
    // The `note_*` hooks are deliberately *free*: they neither count as
    // catalog queries nor charge query cost, so recording recency leaves
    // every pre-lifecycle run's timing (and report) bitwise unchanged.

    /// Record (or refresh) a dump of `(run, name)` written at `at_secs`.
    /// Unknown datasets are ignored — recency is best-effort bookkeeping,
    /// never an error path.
    pub fn note_dump(&mut self, run: RunId, name: &str, iter: u32, at_secs: f64, bytes: u64) {
        let Some(di) = self.dataset_row(run, name) else {
            return;
        };
        let d = &mut self.datasets[di];
        d.last_access_secs = d.last_access_secs.max(at_secs);
        d.heat += 1;
        let id = d.id;
        match self.index.dumps.get(&(id.0, iter)) {
            Some(&xi) => {
                let x = &mut self.dumps[xi];
                x.written_secs = at_secs;
                x.last_access_secs = x.last_access_secs.max(at_secs);
                x.bytes = bytes;
                x.state = DumpState::Resident;
            }
            None => {
                self.index.dumps.insert((id.0, iter), self.dumps.len());
                self.dumps.push(DumpRec {
                    dataset: id,
                    iter,
                    written_secs: at_secs,
                    bytes,
                    last_access_secs: at_secs,
                    reads: 0,
                    state: DumpState::Resident,
                });
            }
        }
    }

    /// Record a read of `(run, name)` (optionally of one dump) at `at_secs`.
    /// Free for the same reason as [`Catalog::note_dump`].
    pub fn note_access(&mut self, run: RunId, name: &str, iter: Option<u32>, at_secs: f64) {
        let Some(di) = self.dataset_row(run, name) else {
            return;
        };
        let d = &mut self.datasets[di];
        d.last_access_secs = d.last_access_secs.max(at_secs);
        d.heat += 1;
        let id = d.id;
        if let Some(iter) = iter {
            if let Some(&xi) = self.index.dumps.get(&(id.0, iter)) {
                let x = &mut self.dumps[xi];
                x.last_access_secs = x.last_access_secs.max(at_secs);
                x.reads += 1;
            }
        }
    }

    /// All recorded dumps of a dataset, in iteration order: the dataset's
    /// key range of the dump index.
    pub fn dumps_of(&mut self, id: DatasetId) -> Vec<DumpRec> {
        self.count_query();
        let rows = self.index.dumps.range((id.0, 0)..=(id.0, u32::MAX));
        rows.map(|(_, &xi)| self.dumps[xi].clone()).collect()
    }

    /// Drop the record of one dump (after its file is pruned from storage).
    /// Returns whether a row was removed. The last row moves into the
    /// removed one's place, so the rows are kept in no order; the index
    /// keeps them in iteration order.
    pub fn remove_dump(&mut self, id: DatasetId, iter: u32) -> bool {
        let Some(xi) = self.index.dumps.remove(&(id.0, iter)) else {
            return false;
        };
        self.dumps.swap_remove(xi);
        if let Some(moved) = self.dumps.get(xi) {
            self.index.dumps.insert((moved.dataset.0, moved.iter), xi);
        }
        true
    }

    /// Update the residency state of one dump. Returns whether it existed.
    pub fn set_dump_state(&mut self, id: DatasetId, iter: u32, state: DumpState) -> bool {
        match self.index.dumps.get(&(id.0, iter)) {
            Some(&xi) => {
                self.dumps[xi].state = state;
                true
            }
            None => false,
        }
    }

    /// Reset a dataset's heat counter (after the lifecycle engine acts on it).
    pub fn reset_heat(&mut self, id: DatasetId) {
        if let Some(d) = self.datasets.get_mut(id.0 as usize) {
            d.heat = 0;
        }
    }

    /// Every dataset row — the lifecycle engine's scan.
    pub fn all_datasets(&mut self) -> Vec<DatasetRec> {
        self.count_query();
        self.datasets.clone()
    }

    // ---- resources ---------------------------------------------------------

    /// Register a storage resource; names are unique (re-registration
    /// replaces the row, matching how an admin updates capacity).
    pub fn register_resource(&mut self, rec: ResourceRec) {
        if let Some(existing) = self.resources.iter_mut().find(|r| r.name == rec.name) {
            *existing = rec;
        } else {
            self.resources.push(rec);
        }
    }

    /// All registered resources.
    pub fn resources(&mut self) -> Vec<ResourceRec> {
        self.count_query();
        self.resources.clone()
    }

    // ---- persistence ---------------------------------------------------------

    /// Serialize the whole catalog to a JSON string.
    pub fn to_json(&self) -> MetaResult<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Restore a catalog from JSON. The lookup indexes are not serialized;
    /// they are rebuilt here. Rows the catalog itself could never have
    /// written are refused: an id off its row position is
    /// [`MetaError::NotFound`], a repeated unique name or a second row for
    /// one dump [`MetaError::Duplicate`], a dangling reference
    /// [`MetaError::ForeignKey`].
    pub fn from_json(s: &str) -> MetaResult<Catalog> {
        let mut c: Catalog = serde_json::from_str(s)?;
        c.check_keys()?;
        c.rebuild_indexes()?;
        Ok(c)
    }

    /// Persist to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> MetaResult<()> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> MetaResult<Catalog> {
        Catalog::from_json(&std::fs::read_to_string(path)?)
    }
}

/// Index `key` at row `i` of `table`; a key already indexed is a repeated
/// unique name, reported as `shown`.
fn index_unique<K: Eq + Hash>(
    index: &mut HashMap<K, usize>,
    key: K,
    i: usize,
    table: &'static str,
    shown: impl Display,
) -> MetaResult<()> {
    match index.insert(key, i) {
        Some(_) => Err(MetaError::Duplicate {
            table,
            key: shown.to_string(),
        }),
        None => Ok(()),
    }
}

/// Refuse a table whose primary keys are not its row positions.
fn check_ids(table: &'static str, ids: impl Iterator<Item = u64>) -> MetaResult<()> {
    for (i, id) in ids.enumerate() {
        if id != i as u64 {
            return Err(MetaError::NotFound {
                table,
                key: format!("{id} (stored at row {i})"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{AccessMode, ElementType};
    use msr_storage::StorageKind;

    fn seed_catalog() -> (Catalog, RunId) {
        let mut c = Catalog::new();
        let app = c.create_app("astro3d", "hydro simulation").unwrap();
        let user = c.create_user("xshen", "NWU").unwrap();
        let run = c.create_run(app, user, 120, "128^3").unwrap();
        (c, run)
    }

    fn ds(run: RunId, name: &str) -> DatasetRec {
        DatasetRec {
            id: DatasetId(0),
            run,
            name: name.into(),
            amode: AccessMode::Create,
            etype: ElementType::F32,
            dims: vec![128, 128, 128],
            pattern: "BBB".into(),
            strategy: "collective".into(),
            location: Location::Stored(StorageKind::RemoteTape),
            frequency: 6,
            path: format!("astro3d/{name}"),
            predicted_secs: None,
            last_access_secs: 0.0,
            heat: 0,
        }
    }

    #[test]
    fn app_and_user_uniqueness() {
        let (mut c, _) = seed_catalog();
        assert!(matches!(
            c.create_app("astro3d", "again"),
            Err(MetaError::Duplicate { .. })
        ));
        assert!(matches!(
            c.create_user("xshen", "ANL"),
            Err(MetaError::Duplicate { .. })
        ));
        assert_eq!(c.app_by_name("astro3d").unwrap().name, "astro3d");
        assert!(matches!(
            c.app_by_name("volren"),
            Err(MetaError::NotFound { .. })
        ));
    }

    #[test]
    fn run_foreign_keys_checked() {
        let (mut c, _) = seed_catalog();
        let bad_app = AppId(99);
        let user = UserId(0);
        assert!(matches!(
            c.create_run(bad_app, user, 1, ""),
            Err(MetaError::ForeignKey { .. })
        ));
        assert!(matches!(
            c.create_run(AppId(0), UserId(99), 1, ""),
            Err(MetaError::ForeignKey { .. })
        ));
    }

    #[test]
    fn dataset_crud_and_lookup() {
        let (mut c, run) = seed_catalog();
        let id = c.add_dataset(ds(run, "temp")).unwrap();
        assert!(matches!(
            c.add_dataset(ds(run, "temp")),
            Err(MetaError::Duplicate { .. })
        ));
        assert_eq!(c.dataset(id).unwrap().name, "temp");
        assert_eq!(c.find_dataset(run, "temp").unwrap().id, id);
        assert!(matches!(
            c.find_dataset(run, "ghost"),
            Err(MetaError::NotFound { .. })
        ));
    }

    #[test]
    fn dataset_updates() {
        let (mut c, run) = seed_catalog();
        let id = c.add_dataset(ds(run, "temp")).unwrap();
        c.set_dataset_location(id, Location::Stored(StorageKind::RemoteDisk))
            .unwrap();
        c.set_dataset_prediction(id, 812.45).unwrap();
        let d = c.dataset(id).unwrap();
        assert_eq!(d.location, Location::Stored(StorageKind::RemoteDisk));
        assert_eq!(d.predicted_secs, Some(812.45));
    }

    #[test]
    fn resource_registration_replaces() {
        let (mut c, _) = seed_catalog();
        c.register_resource(ResourceRec {
            name: "anl-local".into(),
            kind: StorageKind::LocalDisk,
            site: "ANL".into(),
            capacity: 100,
        });
        c.register_resource(ResourceRec {
            name: "anl-local".into(),
            kind: StorageKind::LocalDisk,
            site: "ANL".into(),
            capacity: 200,
        });
        let rs = c.resources();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].capacity, 200);
    }

    #[test]
    fn persistence_roundtrip() {
        let (mut c, run) = seed_catalog();
        c.add_dataset(ds(run, "temp")).unwrap();
        let json = c.to_json().unwrap();
        let mut back = Catalog::from_json(&json).unwrap();
        assert_eq!(back.find_dataset(run, "temp").unwrap().name, "temp");
        assert_eq!(back.query_count(), 1, "query counter is not persisted");
    }

    /// `c` saved and loaded back.
    fn reload(c: &Catalog) -> MetaResult<Catalog> {
        Catalog::from_json(&c.to_json().unwrap())
    }

    #[test]
    fn load_rejects_an_id_off_its_row() {
        let (mut c, run) = seed_catalog();
        c.add_dataset(ds(run, "x")).unwrap();
        c.datasets[0].id = DatasetId(9);
        assert!(matches!(
            reload(&c),
            Err(MetaError::NotFound {
                table: "datasets",
                ..
            })
        ));
        let (mut c, _) = seed_catalog();
        c.apps[0].id = AppId(1);
        assert!(matches!(
            reload(&c),
            Err(MetaError::NotFound {
                table: "applications",
                ..
            })
        ));
    }

    #[test]
    fn load_rejects_a_duplicate_name() {
        let (mut c, run) = seed_catalog();
        c.add_dataset(ds(run, "x")).unwrap();
        c.add_dataset(ds(run, "y")).unwrap();
        c.datasets[1].name = "x".into();
        assert!(matches!(
            reload(&c),
            Err(MetaError::Duplicate {
                table: "datasets",
                ..
            })
        ));
        let (mut c, _) = seed_catalog();
        c.create_user("other", "ANL").unwrap();
        c.users[1].name = "xshen".into();
        assert!(matches!(
            reload(&c),
            Err(MetaError::Duplicate { table: "users", .. })
        ));
        // Two rows for one dump: the index could reach only one of them,
        // so the other could be neither listed nor pruned.
        let (mut c, run) = seed_catalog();
        c.add_dataset(ds(run, "x")).unwrap();
        c.note_dump(run, "x", 0, 1.0, 64);
        c.note_dump(run, "x", 6, 2.0, 64);
        c.dumps[1].iter = 0;
        assert!(matches!(
            reload(&c),
            Err(MetaError::Duplicate { table: "dumps", .. })
        ));
    }

    #[test]
    fn load_rejects_a_dangling_foreign_key() {
        let (mut c, run) = seed_catalog();
        c.add_dataset(ds(run, "x")).unwrap();
        c.note_dump(run, "x", 0, 1.0, 64);
        assert!(reload(&c).is_ok());
        let refused = |table: &str, break_key: fn(&mut Catalog)| {
            let mut bad = reload(&c).unwrap();
            break_key(&mut bad);
            match reload(&bad) {
                Err(MetaError::ForeignKey { table: t, .. }) => assert_eq!(t, table),
                other => panic!("{table}: expected a dangling foreign key, got {other:?}"),
            }
        };
        refused("runs", |c| c.runs[0].app = AppId(7));
        refused("runs", |c| c.runs[0].user = UserId(7));
        refused("datasets", |c| c.datasets[0].run = RunId(7));
        refused("dumps", |c| c.dumps[0].dataset = DatasetId(7));
    }

    #[test]
    fn recency_hooks_are_free_and_tracked() {
        let (mut c, run) = seed_catalog();
        let id = c.add_dataset(ds(run, "temp")).unwrap();
        let before = c.query_count();
        c.note_dump(run, "temp", 0, 10.0, 1024);
        c.note_dump(run, "temp", 6, 20.0, 1024);
        c.note_access(run, "temp", Some(0), 30.0);
        c.note_access(run, "ghost", None, 99.0); // unknown: silently ignored
        assert_eq!(c.query_count(), before, "note_* never counts as a query");
        let d = c.dataset(id).unwrap();
        assert_eq!(d.last_access_secs, 30.0);
        assert_eq!(d.heat, 3);
        let dumps = c.dumps_of(id);
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].iter, 0);
        assert_eq!(dumps[0].reads, 1);
        assert_eq!(dumps[0].last_access_secs, 30.0);
        assert_eq!(dumps[1].reads, 0);
        c.reset_heat(id);
        assert_eq!(c.dataset(id).unwrap().heat, 0);
    }

    #[test]
    fn dump_state_and_removal() {
        let (mut c, run) = seed_catalog();
        let id = c.add_dataset(ds(run, "temp")).unwrap();
        c.note_dump(run, "temp", 0, 1.0, 64);
        c.note_dump(run, "temp", 6, 2.0, 64);
        assert!(c.set_dump_state(id, 6, DumpState::Vaulted));
        assert!(!c.set_dump_state(id, 12, DumpState::Vaulted));
        assert_eq!(c.dumps_of(id)[1].state, DumpState::Vaulted);
        // Rewriting a vaulted dump makes it resident again.
        c.note_dump(run, "temp", 6, 3.0, 64);
        assert_eq!(c.dumps_of(id)[1].state, DumpState::Resident);
        assert!(c.remove_dump(id, 0));
        assert!(!c.remove_dump(id, 0));
        assert_eq!(c.dumps_of(id).len(), 1);
    }

    #[test]
    fn dumps_survive_persistence() {
        let (mut c, run) = seed_catalog();
        let id = c.add_dataset(ds(run, "temp")).unwrap();
        c.note_dump(run, "temp", 0, 5.0, 256);
        let json = c.to_json().unwrap();
        let mut back = Catalog::from_json(&json).unwrap();
        assert_eq!(back.dumps_of(id), c.dumps_of(id));
    }

    /// The catalog's dump rows against a map keyed as the index is, over a
    /// seeded walk of writes, reads, state changes, prunes and save/load
    /// round trips, with every dataset's `dumps_of` checked after each
    /// step. Prunes move the last row into the pruned one's place, so a
    /// row index that is not re-pointed serves another dump's row, or
    /// none.
    #[test]
    fn dump_rows_match_a_map_model_over_a_seeded_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xd0_5eed);
        let (mut c, run) = seed_catalog();
        let app = c.create_app("volren", "renderer").unwrap();
        let other = c.create_run(app, UserId(0), 12, "").unwrap();
        let names = [
            (run, "temp"),
            (run, "press"),
            (other, "temp"),
            (other, "img"),
        ];
        let ids: Vec<DatasetId> = names
            .iter()
            .map(|&(r, name)| c.add_dataset(ds(r, name)).unwrap())
            .collect();
        let states = [DumpState::Resident, DumpState::Vaulted];
        let mut model: BTreeMap<(u64, u32), DumpRec> = BTreeMap::new();
        for step in 0..4000 {
            let d = rng.random_range(0..names.len());
            let ((r, name), id) = (names[d], ids[d]);
            let iter = rng.random_range(0..24u32);
            let at = step as f64;
            match rng.random_range(0..16u32) {
                0..=4 => {
                    let bytes = rng.random_range(0..1u64 << 20);
                    c.note_dump(r, name, iter, at, bytes);
                    let x = model.entry((id.0, iter)).or_insert(DumpRec {
                        dataset: id,
                        iter,
                        written_secs: at,
                        bytes,
                        last_access_secs: at,
                        reads: 0,
                        state: DumpState::Resident,
                    });
                    x.written_secs = at;
                    x.last_access_secs = x.last_access_secs.max(at);
                    (x.bytes, x.state) = (bytes, DumpState::Resident);
                }
                5..=7 => {
                    c.note_access(r, name, Some(iter), at);
                    if let Some(x) = model.get_mut(&(id.0, iter)) {
                        x.last_access_secs = x.last_access_secs.max(at);
                        x.reads += 1;
                    }
                }
                8..=9 => {
                    let state = states[rng.random_range(0..states.len())];
                    let known = model.get_mut(&(id.0, iter)).map(|x| x.state = state);
                    assert_eq!(c.set_dump_state(id, iter, state), known.is_some(), "{step}");
                }
                10..=14 => {
                    let known = model.remove(&(id.0, iter)).is_some();
                    assert_eq!(c.remove_dump(id, iter), known, "step {step}");
                }
                _ => c = reload(&c).unwrap(),
            }
            for &id in &ids {
                let want: Vec<DumpRec> = model
                    .range((id.0, 0)..=(id.0, u32::MAX))
                    .map(|(_, x)| x.clone())
                    .collect();
                assert_eq!(c.dumps_of(id), want, "step {step}, dataset {id}");
            }
            assert_eq!(c.dumps.len(), model.len(), "step {step}");
        }
    }

    #[test]
    fn query_counter_increments() {
        let (mut c, run) = seed_catalog();
        let before = c.query_count();
        let _ = c.datasets_for_run(run);
        let _ = c.resources();
        assert_eq!(c.query_count(), before + 2);
        assert!(QUERY_COST > SimDuration::ZERO);
    }
}
