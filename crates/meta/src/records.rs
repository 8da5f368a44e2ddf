//! Table row types of the metadata catalog.
//!
//! The columns mirror what the paper shows in Fig. 11's IJ-GUI table
//! (NAME, AMODE, NDIMS, ETYPE, PATTERN, DIMS, EXPECTEDLOC, FREQUENCY,
//! VIRTUALTIME) plus the application/user/run bookkeeping of §3.2.

use msr_storage::StorageKind;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "#{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Primary key of an application record.
    AppId
);
id_type!(
    /// Primary key of a user record.
    UserId
);
id_type!(
    /// Primary key of a run record.
    RunId
);
id_type!(
    /// Primary key of a dataset record.
    DatasetId
);

/// A registered application (e.g. `astro3d`, `volren`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplicationRec {
    /// Primary key.
    pub id: AppId,
    /// Unique application name.
    pub name: String,
    /// Free-form description.
    pub description: String,
}

/// A registered user.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserRec {
    /// Primary key.
    pub id: UserId,
    /// Login-style name.
    pub name: String,
    /// Home site of the user (display only).
    pub site: String,
}

/// One execution of an application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunRec {
    /// Primary key.
    pub id: RunId,
    /// Which application ran.
    pub app: AppId,
    /// Who ran it.
    pub user: UserId,
    /// Total number of iterations (the `N` of eq. (2)).
    pub iterations: u32,
    /// Free-form tag, e.g. `"128^3 production"`.
    pub tag: String,
}

/// How a dataset's files are opened each dump (Fig. 11's AMODE column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessMode {
    /// A fresh file (or appended snapshot region) per dump.
    Create,
    /// Rewritten in place every dump (checkpoint/restart datasets).
    OverWrite,
}

impl AccessMode {
    /// On-storage file of the dump taken at `iter` for a dataset whose
    /// catalog path is `base`: `Create` datasets keep one file per dump
    /// (`<base>.t<iter>`), `OverWrite` datasets rewrite `base` itself. The
    /// one definition of the dump-file format.
    pub fn dump_file(self, base: &str, iter: u32) -> String {
        let mut file = String::with_capacity(base.len() + ".t4294967295".len());
        self.push_dump_file(base, iter, &mut file);
        file
    }

    /// [`dump_file`](Self::dump_file), appended to `out`, so a caller
    /// that names many dumps can reuse one buffer.
    pub fn push_dump_file(self, base: &str, iter: u32, out: &mut String) {
        out.push_str(base);
        if self == AccessMode::Create {
            write!(out, ".t{iter:05}").expect("writing to a String cannot fail");
        }
    }

    /// The catalog dump row the dump at `iter` keys on: an `OverWrite`
    /// dataset rewrites one file, so all its dumps share row 0.
    pub fn dump_row(self, iter: u32) -> u32 {
        match self {
            AccessMode::Create => iter,
            AccessMode::OverWrite => 0,
        }
    }
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessMode::Create => "create",
            AccessMode::OverWrite => "over_write",
        })
    }
}

/// Element type of a dataset (Fig. 11's ETYPE column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElementType {
    /// 32-bit float (analysis/checkpoint variables).
    F32,
    /// 64-bit float.
    F64,
    /// Unsigned byte (visualization variables).
    U8,
}

impl ElementType {
    /// Size of one element in bytes.
    pub fn size(self) -> u64 {
        match self {
            ElementType::F32 => 4,
            ElementType::F64 => 8,
            ElementType::U8 => 1,
        }
    }
}

impl fmt::Display for ElementType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ElementType::F32 => "f32",
            ElementType::F64 => "f64",
            ElementType::U8 => "u8",
        })
    }
}

/// Where a dataset lives (or is destined): the catalog-resident form of the
/// paper's per-dataset "location" attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Location {
    /// Bound to a concrete storage kind.
    Stored(StorageKind),
    /// Dump suppressed for this run (the paper's `DISABLE`).
    Disabled,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Stored(k) => write!(f, "{k}"),
            Location::Disabled => f.write_str("disabled"),
        }
    }
}

/// A dataset produced (or consumed) by a run — one row of Fig. 11.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetRec {
    /// Primary key.
    pub id: DatasetId,
    /// Owning run.
    pub run: RunId,
    /// Dataset name, e.g. `"temp"`, `"vr_press"`.
    pub name: String,
    /// Open mode per dump.
    pub amode: AccessMode,
    /// Element type.
    pub etype: ElementType,
    /// Global array dimensions, e.g. `[128, 128, 128]`.
    pub dims: Vec<u64>,
    /// Distribution pattern string, e.g. `"BBB"` (block in each dim).
    pub pattern: String,
    /// I/O optimization the dumps were written with (e.g. `"collective"`,
    /// `"subfile"`). A record only: the run-time engine reads a dump's
    /// layout from what is stored.
    #[serde(default = "default_strategy")]
    pub strategy: String,
    /// Resolved storage location.
    pub location: Location,
    /// Dump frequency in iterations (the `freq(j)` of eq. (2)).
    pub frequency: u32,
    /// Path prefix on the storage resource.
    pub path: String,
    /// Predicted total I/O time for the run, seconds (VIRTUALTIME column);
    /// filled in by the predictor.
    pub predicted_secs: Option<f64>,
    /// Virtual time of the most recent write or read of any dump, seconds.
    /// Updated for free (no query cost) by the access-recency hooks; the
    /// lifecycle engine keys demotion and vaulting decisions on it.
    #[serde(default)]
    pub last_access_secs: f64,
}

impl DatasetRec {
    /// Bytes of one dump (the full global array).
    pub fn snapshot_bytes(&self) -> u64 {
        self.dims.iter().product::<u64>() * self.etype.size()
    }

    /// Number of dumps a run of `n` iterations performs: `N/freq + 1`
    /// (eq. (2) counts the initial dump).
    pub fn dumps(&self, iterations: u32) -> u32 {
        match iterations.checked_div(self.frequency) {
            None => 0,
            Some(d) => d + 1,
        }
    }

    /// On-storage file of this dataset's dump at `iter`.
    pub fn dump_file(&self, iter: u32) -> String {
        self.amode.dump_file(&self.path, iter)
    }
}

fn default_strategy() -> String {
    "collective".to_owned()
}

/// Residency state of one dump on its storage resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DumpState {
    /// On its resource and readable directly.
    #[default]
    Resident,
    /// Moved to the tape vault: the bytes exist but every read fails with
    /// `StorageError::Vaulted` until a priced recall brings them back.
    Vaulted,
}

impl fmt::Display for DumpState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DumpState::Resident => "resident",
            DumpState::Vaulted => "vaulted",
        })
    }
}

/// One dump of a dataset — the per-snapshot row the lifecycle engine scans
/// for retention and vaulting decisions. Kept as a flat list (not a map)
/// so the catalog stays a plain JSON document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DumpRec {
    /// Owning dataset.
    pub dataset: DatasetId,
    /// Iteration number of the dump.
    pub iter: u32,
    /// Virtual time the dump was written, seconds.
    pub written_secs: f64,
    /// Size of the dump in bytes.
    pub bytes: u64,
    /// Residency state.
    #[serde(default)]
    pub state: DumpState,
}

/// A registered storage resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceRec {
    /// Resource name (matches `Device::name` in msr-storage).
    pub name: String,
    /// Kind of resource.
    pub kind: StorageKind,
    /// Hosting site name.
    pub site: String,
    /// Capacity in bytes.
    pub capacity: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dataset() -> DatasetRec {
        DatasetRec {
            id: DatasetId(1),
            run: RunId(1),
            name: "temp".into(),
            amode: AccessMode::Create,
            etype: ElementType::F32,
            dims: vec![128, 128, 128],
            pattern: "BBB".into(),
            strategy: "collective".into(),
            location: Location::Stored(StorageKind::RemoteDisk),
            frequency: 6,
            path: "astro3d/run1/temp".into(),
            predicted_secs: None,
            last_access_secs: 0.0,
        }
    }

    #[test]
    fn snapshot_bytes_for_paper_shapes() {
        let d = temp_dataset();
        assert_eq!(d.snapshot_bytes(), 128 * 128 * 128 * 4); // 8 MiB
        let mut vr = d;
        vr.etype = ElementType::U8;
        assert_eq!(vr.snapshot_bytes(), 128 * 128 * 128); // 2 MiB
    }

    #[test]
    fn dump_count_matches_eq2() {
        let d = temp_dataset();
        assert_eq!(d.dumps(120), 21); // 120/6 + 1, the paper's example
        assert_eq!(d.dumps(0), 1);
        let mut never = temp_dataset();
        never.frequency = 0;
        assert_eq!(never.dumps(120), 0);
    }

    #[test]
    fn element_sizes() {
        assert_eq!(ElementType::F32.size(), 4);
        assert_eq!(ElementType::F64.size(), 8);
        assert_eq!(ElementType::U8.size(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(AccessMode::OverWrite.to_string(), "over_write");
        assert_eq!(ElementType::U8.to_string(), "u8");
        assert_eq!(Location::Disabled.to_string(), "disabled");
        assert_eq!(
            Location::Stored(StorageKind::RemoteTape).to_string(),
            "remote tape"
        );
        assert_eq!(DatasetId(3).to_string(), "DatasetId#3");
    }

    #[test]
    fn records_serde_roundtrip() {
        let d = temp_dataset();
        let j = serde_json::to_string(&d).unwrap();
        let back: DatasetRec = serde_json::from_str(&j).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn dataset_json_without_lifecycle_fields_still_loads() {
        // Catalogs saved before the lifecycle engine existed have no
        // recency column; they must deserialize as cold. Ones saved while
        // datasets counted heat carry a column nothing reads any more.
        let mut v = serde_json::to_value(&temp_dataset()).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.remove("last_access_secs");
        let back: DatasetRec = serde_json::from_value(v.clone()).unwrap();
        assert_eq!(back.last_access_secs, 0.0);
        let heat = serde_json::to_value(&7u64).unwrap();
        v.as_object_mut().unwrap().insert("heat".into(), heat);
        let back: DatasetRec = serde_json::from_value(v).unwrap();
        assert_eq!(back, temp_dataset());
        assert!(!serde_json::to_string(&back).unwrap().contains("heat"));
    }

    #[test]
    fn dump_rec_serde_defaults() {
        let j = r#"{"dataset":3,"iter":6,"written_secs":12.5,"bytes":1024}"#;
        let d: DumpRec = serde_json::from_str(j).unwrap();
        assert_eq!(d.dataset, DatasetId(3));
        assert_eq!(d.state, DumpState::Resident);
        assert_eq!(DumpState::Vaulted.to_string(), "vaulted");
        // Rows saved while dumps counted their reads load the same.
        let old = r#"{"dataset":3,"iter":6,"written_secs":12.5,"bytes":1024,
                      "last_access_secs":30.0,"reads":2,"state":"Resident"}"#;
        assert_eq!(serde_json::from_str::<DumpRec>(old).unwrap(), d);
    }
}
