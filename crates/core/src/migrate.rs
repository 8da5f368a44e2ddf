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
use msr_meta::{AccessMode, Location, RunId, QUERY_COST};
use msr_obs::{ops, Layer};
use msr_runtime::{Dims3, Distribution, IoStrategy, Pattern, ProcGrid};
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
    /// Number of dump files copied.
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
    /// the catalog so subsequent reads hit the new location. Source copies
    /// are deleted after a successful move (this is a migration, not a
    /// replica — the catalog has a single location per dataset).
    pub fn migrate_dataset(
        &self,
        run: RunId,
        dataset: &str,
        to: StorageKind,
        grid: ProcGrid,
    ) -> CoreResult<MigrationReport> {
        let rec = self.catalog.lock().find_dataset(run, dataset)?.clone();
        self.clock.advance(QUERY_COST);
        let Location::Stored(from) = rec.location else {
            return Err(CoreError::DatasetDisabled(dataset.to_owned()));
        };
        if from == to {
            return Ok(MigrationReport {
                dataset: dataset.to_owned(),
                from,
                to,
                files: 0,
                bytes: 0,
                read_time: SimDuration::ZERO,
                write_time: SimDuration::ZERO,
            });
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

        // Every dump file of a `Create` dataset is `<path>.t<iter>`; the
        // bare path would also match a dataset whose name extends it.
        let files: Vec<String> = match rec.amode {
            AccessMode::OverWrite => vec![rec.path.clone()],
            AccessMode::Create => src.lock().list(&format!("{}.t", rec.path)),
        };
        if files.is_empty() {
            return Err(CoreError::Storage(msr_storage::StorageError::NotFound(
                rec.path.clone(),
            )));
        }

        // Capacity check up front: a migration must not strand a dataset
        // halfway. Chunked dumps are priced at their *logical* size — the
        // conservative bound, since the destination may not yet hold any
        // of their chunks (dedup can only shrink what actually lands).
        let src_name = src.lock().name().to_owned();
        let plane = self.engine.chunk_plane();
        let total: u64 = files
            .iter()
            .filter_map(|f| {
                let physical = src.lock().file_size(f)?;
                Some(plane.logical_of(&src_name, f).unwrap_or(physical))
            })
            .sum();
        if dst.lock().available_bytes() < total {
            return Err(CoreError::NoUsableResource {
                dataset: dataset.to_owned(),
                bytes: total,
            });
        }

        let dims = Dims3 {
            x: rec.dims.first().copied().unwrap_or(1),
            y: rec.dims.get(1).copied().unwrap_or(1),
            z: rec.dims.get(2).copied().unwrap_or(1),
        };
        let dist = Distribution::new(dims, rec.etype.size(), Pattern::parse(&rec.pattern)?, grid)?;

        let mut report = MigrationReport {
            dataset: dataset.to_owned(),
            from,
            to,
            files: 0,
            bytes: 0,
            read_time: SimDuration::ZERO,
            write_time: SimDuration::ZERO,
        };
        let start = self.clock.now();
        // A failure is charged to the resource whose call raised it.
        let moved = (|| -> Result<(), (StorageKind, CoreError)> {
            for file in &files {
                // The chunk-aware transfer path: a chunked dump is read
                // back through its manifest and re-ingested with the same
                // spec at the destination, whose store then receives only
                // the chunks it does not already hold. Raw dumps take the
                // byte-for-byte path exactly as before.
                let (data, read) = self
                    .engine
                    .read_auto(&src, file, &dist, IoStrategy::Collective)
                    .map_err(|e| (from, e.into()))?;
                let ingest = plane.ingest_of(&src_name, file).unwrap_or_default();
                let bytes = data.len() as u64;
                // The read-back is ours to give: a raw dump's object — its
                // buffer, or its recipe — becomes the destination's.
                let write = self
                    .engine
                    .write_shared(
                        &dst,
                        file,
                        data,
                        &dist,
                        IoStrategy::Collective,
                        OpenMode::Create,
                        &ingest,
                        dataset,
                    )
                    .map_err(|e| (to, e.into()))?;
                self.clock.advance(read.elapsed + write.elapsed);
                report.files += 1;
                report.bytes += bytes;
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
        for file in &files {
            // `delete_dump` releases chunk references and garbage-collects
            // frames no surviving dump shares; for raw dumps it is a plain
            // delete.
            let cost = self.engine.delete_dump(&src, file)?;
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
    use msr_meta::ElementType;
    use msr_runtime::RuntimeError;

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
            .migrate_dataset(run, "d", StorageKind::LocalDisk, grid)
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
        sys.migrate_dataset(run, "d", StorageKind::LocalDisk, grid)
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
            .migrate_dataset(run, "d", StorageKind::LocalDisk, grid)
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
        let grid = ProcGrid::new(1, 1, 1);
        let (run, _) = produce(&sys, LocationHint::LocalDisk, AccessMode::Create);
        let report = sys
            .migrate_dataset(run, "d", StorageKind::LocalDisk, grid)
            .unwrap();
        assert_eq!(report.files, 0);
        assert_eq!(report.total_time(), SimDuration::ZERO);
    }

    #[test]
    fn insufficient_destination_capacity_rejected_upfront() {
        let sys = MsrSystem::testbed(405);
        let grid = ProcGrid::new(1, 1, 1);
        let (run, _) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        let local = sys.resource(StorageKind::LocalDisk).unwrap();
        local.lock().set_capacity(100);
        let err = sys
            .migrate_dataset(run, "d", StorageKind::LocalDisk, grid)
            .unwrap_err();
        assert!(matches!(err, CoreError::NoUsableResource { .. }));
        // Nothing was moved or deleted.
        let tape = sys.resource(StorageKind::RemoteTape).unwrap();
        assert_eq!(tape.lock().list("app/").len(), 3);
    }

    #[test]
    fn staging_refuses_an_offline_destination() {
        let sys = MsrSystem::testbed(407);
        let grid = ProcGrid::new(1, 1, 1);
        let (run, _) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        sys.set_resource_online(StorageKind::LocalDisk, false);
        assert!(matches!(
            sys.migrate_dataset(run, "d", StorageKind::LocalDisk, grid),
            Err(CoreError::NoUsableResource { .. })
        ));
        sys.set_resource_online(StorageKind::LocalDisk, true);
    }

    #[test]
    fn staging_refuses_a_tripped_destination() {
        let sys = MsrSystem::testbed(408);
        let grid = ProcGrid::new(1, 1, 1);
        let (run, _) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        for _ in 0..32 {
            sys.health.record_failure(StorageKind::LocalDisk);
        }
        assert!(!sys.health.allows(StorageKind::LocalDisk));
        assert!(matches!(
            sys.migrate_dataset(run, "d", StorageKind::LocalDisk, grid),
            Err(CoreError::NoUsableResource { .. })
        ));
        // Nothing was deleted from the source.
        let tape = sys.resource(StorageKind::RemoteTape).unwrap();
        assert_eq!(tape.lock().list("app/").len(), 3);
    }

    #[test]
    fn staging_emits_an_obs_span() {
        let sys = MsrSystem::testbed(409);
        let grid = ProcGrid::new(1, 1, 1);
        let (run, _) = produce(&sys, LocationHint::RemoteTape, AccessMode::Create);
        sys.migrate_dataset(run, "d", StorageKind::LocalDisk, grid)
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
            .migrate_dataset(run, "chk", StorageKind::RemoteDisk, grid)
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
        // A subfile dump written on 2×2×2 cannot be read back on 1×1×1: the
        // source read fails with a Fatal `SizeMismatch`, which is no fault
        // of the destination's.
        let sys = MsrSystem::testbed(411);
        let mut s = sys
            .session()
            .app("app")
            .user("u")
            .iterations(6)
            .grid(ProcGrid::new(2, 2, 2))
            .build()
            .unwrap();
        let spec = DatasetSpec::astro3d_default("sub", ElementType::U8, 8)
            .with_hint(LocationHint::LocalDisk)
            .with_strategy(IoStrategy::Subfile);
        let data = vec![3u8; spec.snapshot_bytes() as usize];
        let h = s.open(spec).unwrap();
        s.write_iteration(h, 0, &data).unwrap();
        let run = s.run_id();
        s.finalize().unwrap();

        for _ in 0..3 {
            let err = sys
                .migrate_dataset(run, "sub", StorageKind::RemoteDisk, ProcGrid::new(1, 1, 1))
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Runtime(RuntimeError::SizeMismatch { .. })),
                "{err:?}"
            );
        }
        assert!(sys.health.allows(StorageKind::RemoteDisk));
        assert!(sys.health.allows(StorageKind::LocalDisk));
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
            sys.migrate_dataset(run, "off", StorageKind::LocalDisk, grid),
            Err(CoreError::DatasetDisabled(_))
        ));
    }
}
