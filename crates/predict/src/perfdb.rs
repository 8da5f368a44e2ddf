//! The performance database.

use crate::{PredictError, PredictResult};
use msr_sim::SimDuration;
use msr_storage::{CostModel, Device, FixedCosts, OpKind, RateCurve, StorageKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Request sizes [`ResourceProfile::of_model`] samples the transfer model
/// at: 4 KB to 128 MB, the range the PTool sweeps.
const MODEL_SAMPLE_BYTES: [u64; 5] = [4_096, 65_536, 1 << 20, 1 << 24, 1 << 27];

/// Everything the predictor knows about one `(resource, op)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// The resource's kind (for display and placement policies).
    pub kind: StorageKind,
    /// Fixed eq.(1) components — one Table 1 row.
    pub fixed: FixedCosts,
    /// `(bytes, seconds)` transfer samples, sorted by size, each size
    /// once: a row is put in this order where it enters the database.
    pub samples: Vec<(u64, f64)>,
}

impl ResourceProfile {
    /// The profile `r`'s own model hooks give for `op` — what eq. (2)
    /// prices against before a PTool sweep has measured the resource. The
    /// hooks carry no jitter, so the synthesis is deterministic; the
    /// row's mount is the model's expected one (0 on disks).
    pub fn of_model(r: &Device<dyn CostModel>, op: OpKind) -> ResourceProfile {
        ResourceProfile {
            kind: r.kind(),
            fixed: r.fixed_costs(op),
            samples: MODEL_SAMPLE_BYTES
                .iter()
                .map(|&b| (b, r.transfer_model(op, b, 1).as_secs()))
                .collect(),
        }
    }

    /// Interpolated `T_read/write(s)` for a request of `bytes`, over the
    /// samples in place.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        RateCurve::time_over(&self.samples, bytes)
    }

    /// This row as the database keeps it, samples sorted as a
    /// [`RateCurve`] keeps its anchors, or a [`PredictError::BadSample`].
    fn normalise(&mut self) -> PredictResult<()> {
        let bad = |&&(bytes, secs): &&(u64, f64)| bytes == 0 || !(secs >= 0.0 && secs.is_finite());
        if let Some(&(bytes, secs)) = self.samples.iter().find(bad) {
            let secs = Some(secs);
            return Err(PredictError::BadSample { bytes, secs });
        }
        self.samples.sort_by_key(|&(bytes, _)| bytes);
        self.samples.dedup_by_key(|&mut (bytes, _)| bytes);
        Ok(())
    }
}

fn key(resource: &str, op: OpKind) -> String {
    format!("{resource}/{op}")
}

/// The performance database: profiles per resource and operation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PerfDb {
    profiles: BTreeMap<String, ResourceProfile>,
}

impl PerfDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install or replace a profile, its samples sorted; a sample no rate
    /// curve can hold is a [`PredictError::BadSample`].
    pub fn insert(
        &mut self,
        resource: &str,
        op: OpKind,
        mut profile: ResourceProfile,
    ) -> PredictResult<()> {
        profile.normalise()?;
        self.profiles.insert(key(resource, op), profile);
        Ok(())
    }

    /// Look up a profile.
    pub fn get(&self, resource: &str, op: OpKind) -> PredictResult<&ResourceProfile> {
        self.profiles
            .get(&key(resource, op))
            .ok_or_else(|| PredictError::NoProfile {
                resource: resource.to_owned(),
                op,
            })
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Persist as JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> PredictResult<()> {
        std::fs::write(path, serde_json::to_string_pretty(self)?)?;
        Ok(())
    }

    /// Load from JSON, every row checked and sorted as
    /// [`insert`](Self::insert) does.
    pub fn load(path: impl AsRef<Path>) -> PredictResult<PerfDb> {
        let mut db: PerfDb = serde_json::from_str(&std::fs::read_to_string(path)?)?;
        db.profiles
            .values_mut()
            .try_for_each(ResourceProfile::normalise)?;
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ResourceProfile {
        ResourceProfile {
            kind: StorageKind::RemoteDisk,
            fixed: FixedCosts {
                conn: SimDuration::from_secs(0.44),
                open: SimDuration::from_secs(0.42),
                seek: SimDuration::from_secs(0.40),
                close: SimDuration::from_secs(0.83),
                connclose: SimDuration::from_secs(0.0002),
                mount: SimDuration::ZERO,
            },
            samples: vec![(1_000_000, 3.4), (2_000_000, 6.8), (8_000_000, 27.0)],
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = PerfDb::new();
        db.insert("sdsc-disk", OpKind::Write, profile()).unwrap();
        assert!(db.get("sdsc-disk", OpKind::Write).is_ok());
        assert!(db.get("sdsc-disk", OpKind::Read).is_err());
        assert!(matches!(
            db.get("hpss", OpKind::Write),
            Err(PredictError::NoProfile { .. })
        ));
    }

    #[test]
    fn transfer_interpolates_between_samples() {
        let p = profile();
        let t = p.transfer_time(4_000_000).as_secs();
        assert!(t > 6.8 && t < 27.0, "got {t}");
        assert_eq!(p.transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn empty_profile_transfers_free() {
        let p = ResourceProfile {
            kind: StorageKind::LocalDisk,
            fixed: FixedCosts::default(),
            samples: vec![],
        };
        assert_eq!(p.transfer_time(123), SimDuration::ZERO);
    }

    fn disk() -> msr_storage::LocalDisk {
        msr_storage::LocalDisk::new("d", msr_storage::DiskParams::simple(50.0, 1 << 30), 3)
    }

    #[test]
    fn model_profile_tracks_the_model_hooks() {
        let r = disk();
        let p = ResourceProfile::of_model(&r, OpKind::Read);
        assert_eq!(p.kind, r.kind());
        assert_eq!(p.fixed, r.fixed_costs(OpKind::Read));
        assert_eq!(p.samples.len(), MODEL_SAMPLE_BYTES.len());
        // A 50 MB/s disk should price ~1 MB at ~0.02 s in the curve.
        let t = p.transfer_time(1 << 20).as_secs();
        assert!((0.005..0.1).contains(&t), "got {t}");
    }

    #[test]
    fn a_model_tape_row_carries_the_expected_mount() {
        let tb = msr_storage::testbed(3);
        let tape = ResourceProfile::of_model(&tb.tape, OpKind::Write);
        // The middle of the calibrated 20–40 s window.
        assert_eq!(tape.fixed.mount, SimDuration::from_secs(30.0));
        let disk = ResourceProfile::of_model(&tb.remote_disk, OpKind::Write);
        assert_eq!(disk.fixed.mount, SimDuration::ZERO);
    }

    #[test]
    fn model_profile_is_deterministic_and_prices_positive() {
        let p = ResourceProfile::of_model(&disk(), OpKind::Write);
        assert_eq!(p, ResourceProfile::of_model(&disk(), OpKind::Write));
        assert!(p.transfer_time(1 << 20) > SimDuration::ZERO);
    }

    #[test]
    fn json_roundtrip() {
        let mut db = PerfDb::new();
        db.insert("anl-local", OpKind::Read, profile()).unwrap();
        let s = serde_json::to_string(&db).unwrap();
        let back: PerfDb = serde_json::from_str(&s).unwrap();
        assert_eq!(back, db);
    }

    /// A database file as a hand edit might leave it: `anl-local/write`
    /// holding `samples`.
    fn db_file(name: &str, samples: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("msr-perfdb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = PerfDb::new();
        db.insert("anl-local", OpKind::Write, profile()).unwrap();
        let json = serde_json::to_string(&db)
            .unwrap()
            .replace("[[1000000,3.4],[2000000,6.8],[8000000,27.0]]", samples);
        let path = dir.join(name);
        std::fs::write(&path, json).unwrap();
        path
    }

    #[test]
    fn a_loaded_row_no_curve_can_hold_is_a_typed_error() {
        for (name, samples, bad) in [
            ("zero.json", "[[0,0.5],[2000000,6.8]]", (0, 0.5)),
            (
                "negative.json",
                "[[1000000,-1.0],[2000000,6.8]]",
                (1_000_000, -1.0),
            ),
        ] {
            let loaded = PerfDb::load(db_file(name, samples));
            if let Ok(db) = &loaded {
                // What a price of the row would do.
                db.get("anl-local", OpKind::Write)
                    .unwrap()
                    .transfer_time(1 << 20);
            }
            assert!(
                matches!(loaded, Err(PredictError::BadSample { bytes, secs: Some(secs) })
                    if (bytes, secs) == bad),
                "{name}: {loaded:?}"
            );
        }
    }

    #[test]
    fn rows_enter_sorted_by_size_keeping_the_first_of_a_size() {
        let path = db_file(
            "unsorted.json",
            "[[8000000,27.0],[1000000,3.4],[8000000,1.0]]",
        );
        let loaded = PerfDb::load(path).unwrap();
        let want = [(1_000_000, 3.4), (8_000_000, 27.0)];
        assert_eq!(
            loaded.get("anl-local", OpKind::Write).unwrap().samples,
            want
        );
        let mut db = PerfDb::new();
        let mut row = profile();
        row.samples.reverse();
        db.insert("d", OpKind::Read, row).unwrap();
        assert_eq!(
            db.get("d", OpKind::Read).unwrap().samples,
            profile().samples
        );
    }

    #[test]
    fn in_place_pricing_is_the_rate_curve_bit_for_bit() {
        let p = ResourceProfile::of_model(&disk(), OpKind::Write);
        let curve = RateCurve::from_anchors(p.samples.clone());
        for bytes in [1, 4_095, 4_096, 100_000, 1 << 20, 3 << 24, 1 << 30] {
            assert_eq!(p.transfer_time(bytes), curve.time_for(bytes), "{bytes}");
        }
    }
}
