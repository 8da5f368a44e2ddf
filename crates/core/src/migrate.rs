//! Dataset migration / prestaging between storage resources.
//!
//! §1 of the paper: "Aggressive prefetch or prestage may partially solve
//! this problem by overlapping I/O access and computation." In the
//! multi-storage architecture the natural form is *explicit staging*:
//! copy a dataset's dumps from the slow archive to a faster medium before
//! the post-processing tools need them, and update the catalog so
//! consumers transparently read the staged copy.

use crate::error::CoreError;
use crate::system::MsrSystem;
use crate::CoreResult;
use msr_meta::{Location, RunId, QUERY_COST};
use msr_obs::{ops, Layer};
use msr_runtime::{Distribution, IoStrategy};
use msr_sim::SimDuration;
use msr_storage::{OpenMode, StorageKind};
use serde::{Deserialize, Serialize};

/// The outcome of a staging operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Dataset moved.
    pub dataset: String,
    /// Source resource.
    pub from: StorageKind,
    /// Destination resource.
    pub to: StorageKind,
    /// Number of dumps copied.
    pub files: u32,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Virtual time spent reading the source.
    pub read_time: SimDuration,
    /// Virtual time spent writing the destination.
    pub write_time: SimDuration,
}

impl MigrationReport {
    /// Total staging cost.
    pub fn total_time(&self) -> SimDuration {
        self.read_time + self.write_time
    }
}

impl MsrSystem {
    /// Stage (migrate) every dump of `(run, dataset)` to `to`, updating
    /// the catalog so subsequent reads hit the new location. The dumps
    /// are the dataset's catalog rows; each one's stored objects
    /// ([`IoEngine::dump_objects`](msr_runtime::IoEngine::dump_objects))
    /// are copied as they are, whole, on one process, so a dump keeps the
    /// layout it was written in. A dump with no objects on the source is
    /// skipped. Source copies are deleted after a successful move (this is
    /// a migration, not a replica — the catalog has a single location per
    /// dataset).
    pub fn migrate_dataset(
        &self,
        run: RunId,
        dataset: &str,
        to: StorageKind,
    ) -> CoreResult<MigrationReport> {
        let rec = self.catalog.lock().find_dataset(run, dataset)?.clone();
        self.clock.advance(QUERY_COST);
        let Location::Stored(from) = rec.location else {
            return Err(CoreError::DatasetDisabled(dataset.to_owned()));
        };
        let mut report = MigrationReport {
            dataset: dataset.to_owned(),
            from,
            to,
            files: 0,
            bytes: 0,
            read_time: SimDuration::ZERO,
            write_time: SimDuration::ZERO,
        };
        if from == to {
            return Ok(report);
        }
        let src = self.resource(from).ok_or(CoreError::NoUsableResource {
            dataset: dataset.to_owned(),
            bytes: 0,
        })?;
        let dst = self.resource(to).ok_or(CoreError::NoUsableResource {
            dataset: dataset.to_owned(),
            bytes: 0,
        })?;
        // Staging must respect the circuit breaker: a destination the
        // health tracker has tripped (or that is outright offline) must not
        // receive data, exactly as scored placement would refuse it.
        if !self.health.allows(to) || !dst.lock().is_online() {
            return Err(CoreError::NoUsableResource {
                dataset: dataset.to_owned(),
                bytes: 0,
            });
        }
        let conn = src.lock().connect()?;
        self.clock.advance(conn.time);
        let conn = dst.lock().connect()?;
        self.clock.advance(conn.time);

        // Every stored object of every recorded dump, at the size its copy
        // moves: a chunked manifest moves its dump's logical bytes.
        let src_name = src.lock().name().to_owned();
        let plane = self.engine.chunk_plane();
        let rows = self.catalog.lock().dumps_of(rec.id);
        let mut objects: Vec<(String, u64)> = Vec::new();
        for row in rows {
            let r = src.lock();
            let found = self.engine.dump_objects(&*r, &rec.dump_file(row.iter));
            report.files += u32::from(!found.is_empty());
            for object in found {
                let size = plane.logical_of(&src_name, &object);
                let size = size.or_else(|| r.file_size(&object)).unwrap_or(0);
                objects.push((object, size));
            }
        }
        if objects.is_empty() {
            return Err(CoreError::Storage(msr_storage::StorageError::NotFound(
                rec.path.clone(),
            )));
        }

        // Capacity check up front: a migration must not strand a dataset
        // halfway. Chunked dumps are priced at their *logical* size — the
        // conservative bound, since the destination may not yet hold any
        // of their chunks (dedup can only shrink what actually lands).
        let total: u64 = objects.iter().map(|(_, size)| size).sum();
        if dst.lock().available_bytes() < total {
            return Err(CoreError::NoUsableResource {
                dataset: dataset.to_owned(),
                bytes: total,
            });
        }

        let start = self.clock.now();
        // A failure is charged to the resource whose call raised it.
        let moved = (|| -> Result<(), (StorageKind, CoreError)> {
            for (object, size) in &objects {
                // A chunked dump is read back through its manifest and
                // re-ingested with the same spec at the destination, whose
                // store then receives only the chunks it does not already
                // hold. A raw object is read and written in one native
                // call each.
                let dist = Distribution::whole(*size);
                let (data, read) = self
                    .engine
                    .read_auto(&src, object, &dist, IoStrategy::Collective)
                    .map_err(|e| (from, e.into()))?;
                let ingest = plane.ingest_of(&src_name, object).unwrap_or_default();
                // The read-back is ours to give: a raw object — its
                // buffer, or its recipe — becomes the destination's.
                let write = self
                    .engine
                    .write_shared(
                        &dst,
                        object,
                        data,
                        &dist,
                        IoStrategy::Collective,
                        OpenMode::Create,
                        &ingest,
                        dataset,
                    )
                    .map_err(|e| (to, e.into()))?;
                self.clock.advance(read.elapsed + write.elapsed);
                report.bytes += size;
                report.read_time += read.elapsed;
                report.write_time += write.elapsed;
            }
            Ok(())
        })();
        if let Err((kind, e)) = moved {
            self.health.charge(kind, &e);
            return Err(e);
        }
        self.health.record_success(to);
        let rec_obs = self.obs.recorder();
        if rec_obs.enabled() {
            rec_obs.span(
                Layer::Meta,
                dst.lock().name(),
                ops::MIGRATE,
                start,
                report.total_time(),
                report.bytes,
            );
        }
        // Point the catalog at the staged copy, then drop the originals.
        self.catalog
            .lock()
            .set_dataset_location(rec.id, Location::Stored(to))?;
        self.clock.advance(QUERY_COST);
        for (object, _) in &objects {
            // `delete_dump` releases chunk references and garbage-collects
            // frames no surviving dump shares; for a raw object it is a
            // plain delete.
            let cost = self.engine.delete_dump(&src, object)?;
            self.clock.advance(cost.time);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::hints::LocationHint;
    use msr_meta::{AccessMode, ElementType};
    use msr_runtime::ProcGrid;

    fn produce(sys: &MsrSystem, hint: LocationHint, amode: AccessMode) -> (RunId, Vec<u8>) {
        let grid = ProcGrid::new(1, 1, 1);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(12)
            .grid(grid)
            .build()
            .unwrap();
        let spec = DatasetSpec::astro3d_default("d", ElementType::U8, 16)
            .with_hint(hint)
            .with_amode(amode);
        let data: Vec<u8> = (0..spec.snapshot_bytes())
            .map(|i| (i % 250) as u8)
            .collect();
        let h = s.open(spec).unwrap();
        for iter in (0..=12).step_by(6) {
            s.write_iteration(h, iter, &data).unwrap();
        }
        let run = s.run_id();
        s.finalize().unwrap();
        (run, data)
    }

    #[test]
    fn tape_to_local_staging_moves_all_dumps() {
        let sys = MsrSystem::testbed(401);
        let grid = ProcGrid::new(1, 1, 1);
        let (run, data) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        let report = sys
            .migrate_dataset(run, "d", StorageKind::LocalDisk)
            .unwrap();
        assert_eq!(report.files, 3);
        assert_eq!(report.bytes, 3 * 16 * 16 * 16);
        assert!(report.read_time > report.write_time, "tape read dominates");

        // Reads now come from the local disk — much faster.
        let (back, io) = sys
            .read_dataset(run, "d", 6, grid, IoStrategy::Collective)
            .unwrap();
        assert_eq!(back, data);
        assert!(io.elapsed.as_secs() < 1.0, "local read, got {}", io.elapsed);

        // The originals are gone from tape.
        let tape = sys.resource(StorageKind::RemoteTape).unwrap();
        assert!(tape.lock().list("app/").is_empty());
    }

    #[test]
    fn staging_speeds_up_the_consumer() {
        let sys = MsrSystem::testbed(402);
        let grid = ProcGrid::new(1, 1, 1);
        let (run, _) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        let before = sys
            .read_dataset(run, "d", 0, grid, IoStrategy::Collective)
            .unwrap()
            .1
            .elapsed;
        sys.migrate_dataset(run, "d", StorageKind::LocalDisk)
            .unwrap();
        let after = sys
            .read_dataset(run, "d", 0, grid, IoStrategy::Collective)
            .unwrap()
            .1
            .elapsed;
        assert!(
            after.as_secs() * 10.0 < before.as_secs(),
            "staged read {after} vs tape read {before}"
        );
    }

    #[test]
    fn overwrite_dataset_moves_its_single_file() {
        let sys = MsrSystem::testbed(403);
        let grid = ProcGrid::new(1, 1, 1);
        let (run, data) = produce(&sys, LocationHint::RemoteDisk, AccessMode::OverWrite);
        let report = sys
            .migrate_dataset(run, "d", StorageKind::LocalDisk)
            .unwrap();
        assert_eq!(report.files, 1);
        let (back, _) = sys
            .read_dataset(run, "d", 12, grid, IoStrategy::Collective)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn noop_when_already_there() {
        let sys = MsrSystem::testbed(404);
        let (run, _) = produce(&sys, LocationHint::LocalDisk, AccessMode::Create);
        let report = sys
            .migrate_dataset(run, "d", StorageKind::LocalDisk)
            .unwrap();
        assert_eq!(report.files, 0);
        assert_eq!(report.total_time(), SimDuration::ZERO);
    }

    #[test]
    fn insufficient_destination_capacity_rejected_upfront() {
        let sys = MsrSystem::testbed(405);
        let (run, _) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        let local = sys.resource(StorageKind::LocalDisk).unwrap();
        local.lock().set_capacity(100);
        let err = sys
            .migrate_dataset(run, "d", StorageKind::LocalDisk)
            .unwrap_err();
        assert!(matches!(err, CoreError::NoUsableResource { .. }));
        // Nothing was moved or deleted.
        let tape = sys.resource(StorageKind::RemoteTape).unwrap();
        assert_eq!(tape.lock().list("app/").len(), 3);
    }

    #[test]
    fn staging_refuses_an_offline_destination() {
        let sys = MsrSystem::testbed(407);
        let (run, _) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        sys.set_resource_online(StorageKind::LocalDisk, false);
        assert!(matches!(
            sys.migrate_dataset(run, "d", StorageKind::LocalDisk),
            Err(CoreError::NoUsableResource { .. })
        ));
        sys.set_resource_online(StorageKind::LocalDisk, true);
    }

    #[test]
    fn staging_refuses_a_tripped_destination() {
        let sys = MsrSystem::testbed(408);
        let (run, _) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        for _ in 0..32 {
            sys.health.record_failure(StorageKind::LocalDisk);
        }
        assert!(!sys.health.allows(StorageKind::LocalDisk));
        assert!(matches!(
            sys.migrate_dataset(run, "d", StorageKind::LocalDisk),
            Err(CoreError::NoUsableResource { .. })
        ));
        // Nothing was deleted from the source.
        let tape = sys.resource(StorageKind::RemoteTape).unwrap();
        assert_eq!(tape.lock().list("app/").len(), 3);
    }

    #[test]
    fn staging_emits_an_obs_span() {
        let sys = MsrSystem::testbed(409);
        let (run, _) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        sys.migrate_dataset(run, "d", StorageKind::LocalDisk)
            .unwrap();
        let events = sys.obs.events();
        let m = events
            .iter()
            .find(|e| e.op == msr_obs::ops::MIGRATE)
            .expect("migration span recorded");
        assert!(m.bytes > 0);
    }

    #[test]
    fn staging_moves_only_its_own_dumps() {
        // `chk2` extends `chk`'s catalog path: a bare prefix listing of
        // `chk` would take `chk2`'s dumps along.
        let sys = MsrSystem::testbed(410);
        let grid = ProcGrid::new(1, 1, 1);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(6)
            .grid(grid)
            .build()
            .unwrap();
        let mut data = Vec::new();
        for name in ["chk", "chk2"] {
            let spec = DatasetSpec::astro3d_default(name, ElementType::U8, 8)
                .with_hint(LocationHint::LocalDisk);
            let bytes: Vec<u8> = (0..spec.snapshot_bytes())
                .map(|i| (i % 200) as u8 + name.len() as u8)
                .collect();
            let h = s.open(spec).unwrap();
            for iter in [0, 6] {
                s.write_iteration(h, iter, &bytes).unwrap();
            }
            data.push(bytes);
        }
        let run = s.run_id();
        s.finalize().unwrap();

        let report = sys
            .migrate_dataset(run, "chk", StorageKind::RemoteDisk)
            .unwrap();
        assert_eq!(report.files, 2);
        let local = sys.resource(StorageKind::LocalDisk).unwrap();
        assert_eq!(local.lock().list("app/").len(), 2, "chk2 stays put");
        for (name, bytes) in ["chk", "chk2"].iter().zip(&data) {
            let (back, _) = sys
                .read_dataset(run, name, 0, grid, IoStrategy::Collective)
                .unwrap();
            assert_eq!(&back, bytes, "{name}");
        }
    }

    #[test]
    fn a_failed_source_read_does_not_trip_the_destination() {
        // A corrupted chunk on the source is a Fatal read error: no fault
        // of either resource's, so neither breaker is charged.
        let sys = MsrSystem::testbed(411);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(6)
            .build()
            .unwrap();
        let spec = DatasetSpec::builder("ck")
            .element(ElementType::U8)
            .cube(16)
            .hint(LocationHint::LocalDisk)
            .chunked(msr_chunk::ChunkPolicy::cdc(8))
            .build();
        let data: Vec<u8> = (0..spec.snapshot_bytes()).map(|i| (i % 97) as u8).collect();
        let h = s.open(spec).unwrap();
        s.write_iteration(h, 0, &data).unwrap();
        let run = s.run_id();
        s.finalize().unwrap();
        let local = sys.resource(StorageKind::LocalDisk).unwrap();
        {
            let mut r = local.lock();
            let pack = r.list("cas/").into_iter().next().expect("a pack on disk");
            let hdl = r.open(&pack, OpenMode::OverWrite).unwrap().value;
            r.write(hdl, &[0xFF, 0x00, 0xFF, 0x55]).unwrap();
            r.close(hdl).unwrap();
        }
        for _ in 0..3 {
            let err = sys
                .migrate_dataset(run, "ck", StorageKind::RemoteDisk)
                .unwrap_err();
            assert!(matches!(err, CoreError::ChunkCorrupt { .. }), "{err:?}");
        }
        for kind in [StorageKind::LocalDisk, StorageKind::RemoteDisk] {
            assert_eq!(sys.health.counters(kind).failures, 0, "{kind:?}");
        }

        // A source whose every data-path call faults is charged; the
        // destination stays allowed.
        let mut sys = MsrSystem::testbed(412);
        let (run, _) = produce(&sys, LocationHint::LocalDisk, AccessMode::Create);
        sys.inject_faults(
            StorageKind::LocalDisk,
            msr_storage::FaultPlan::none().with_error_prob(1.0),
        )
        .unwrap();
        for _ in 0..3 {
            sys.migrate_dataset(run, "d", StorageKind::RemoteDisk)
                .unwrap_err();
        }
        assert_eq!(sys.health.counters(StorageKind::LocalDisk).failures, 3);
        assert!(!sys.health.allows(StorageKind::LocalDisk));
        assert_eq!(sys.health.counters(StorageKind::RemoteDisk).failures, 0);
        assert!(sys.health.allows(StorageKind::RemoteDisk));
    }

    #[test]
    fn an_overwrite_subfile_dataset_migrates() {
        // Written as one subfile per process, moved object for object,
        // read back on the writer's grid whichever strategy is asked for.
        let sys = MsrSystem::testbed(413);
        let grid = ProcGrid::new(2, 1, 1);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(6)
            .grid(grid)
            .build()
            .unwrap();
        let spec = DatasetSpec::astro3d_default("sub", ElementType::U8, 8)
            .with_hint(LocationHint::LocalDisk)
            .with_strategy(IoStrategy::Subfile)
            .with_amode(AccessMode::OverWrite);
        let data: Vec<u8> = (0..spec.snapshot_bytes()).map(|i| (i % 13) as u8).collect();
        let h = s.open(spec).unwrap();
        s.write_iteration(h, 0, &data).unwrap();
        s.write_iteration(h, 6, &data).unwrap();
        let run = s.run_id();
        s.finalize().unwrap();

        let report = sys
            .migrate_dataset(run, "sub", StorageKind::RemoteDisk)
            .unwrap();
        assert_eq!(report.files, 1, "one dump");
        assert_eq!(report.bytes, data.len() as u64);
        let local = sys.resource(StorageKind::LocalDisk).unwrap();
        assert!(local.lock().list("app/").is_empty(), "the source is gone");
        let remote = sys.resource(StorageKind::RemoteDisk).unwrap();
        assert_eq!(remote.lock().list("app/").len(), 2, "both subfiles moved");
        for strategy in [IoStrategy::Subfile, IoStrategy::Collective] {
            let (back, _) = sys.read_dataset(run, "sub", 6, grid, strategy).unwrap();
            assert_eq!(back, data, "{strategy}");
        }
    }

    #[test]
    fn disabled_dataset_cannot_be_staged() {
        let sys = MsrSystem::testbed(406);
        let grid = ProcGrid::new(1, 1, 1);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(6)
            .grid(grid)
            .build()
            .unwrap();
        let spec = DatasetSpec::astro3d_default("off", ElementType::U8, 8)
            .with_hint(LocationHint::Disable);
        s.open(spec).unwrap();
        let run = s.run_id();
        s.finalize().unwrap();
        assert!(matches!(
            sys.migrate_dataset(run, "off", StorageKind::LocalDisk),
            Err(CoreError::DatasetDisabled(_))
        ));
    }
}
