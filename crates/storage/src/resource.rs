//! The values the native storage interface ([`Device`](crate::Device))
//! speaks in.
//!
//! That interface is the layer the paper calls *performance-insensitive*:
//! a plain connect/open/seek/read/write/close surface per resource,
//! exactly the call decomposition of eq. (1). The run-time optimization
//! library sits on top and decides *how many* of these native calls to
//! make and how large each one is.

use crate::error::StorageError;
use crate::StorageResult;
use msr_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a storage resource — the value space of the paper's
/// per-dataset "location" attribute (minus the hints, which live in
/// `msr-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StorageKind {
    /// Node-local disks (UNIX FS / PIOFS).
    LocalDisk,
    /// Remote disk farm behind SRB.
    RemoteDisk,
    /// Remote tape system (HPSS) behind SRB.
    RemoteTape,
}

impl StorageKind {
    /// The kind's display name, e.g. `"local disk"` — what [`fmt::Display`]
    /// writes, without building a `String` for it.
    pub fn name(self) -> &'static str {
        match self {
            StorageKind::LocalDisk => "local disk",
            StorageKind::RemoteDisk => "remote disk",
            StorageKind::RemoteTape => "remote tape",
        }
    }
}

impl fmt::Display for StorageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Direction of a data operation, for cost lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Data flows from the resource to the application.
    Read,
    /// Data flows from the application to the resource.
    Write,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
        })
    }
}

/// How a file is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpenMode {
    /// Read-only; the file must exist.
    Read,
    /// Create or truncate, then write.
    Create,
    /// Write in place without truncating (the paper's `over_write` amode
    /// used by restart/checkpoint datasets).
    OverWrite,
    /// Append at the end, creating if absent.
    Append,
}

impl OpenMode {
    /// Whether writes are allowed in this mode.
    pub fn writable(self) -> bool {
        !matches!(self, OpenMode::Read)
    }

    /// Whether reads are allowed in this mode.
    pub fn readable(self) -> bool {
        matches!(self, OpenMode::Read)
    }

    /// The transfer direction a handle opened in this mode serves.
    pub fn op(self) -> OpKind {
        if self.writable() {
            OpKind::Write
        } else {
            OpKind::Read
        }
    }
}

/// A value together with the virtual time its production cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost<T> {
    /// Virtual time consumed.
    pub time: SimDuration,
    /// The operation's result.
    pub value: T,
}

impl<T> Cost<T> {
    /// Pair a value with a cost.
    pub fn new(time: SimDuration, value: T) -> Self {
        Cost { time, value }
    }

    /// A free value.
    pub fn free(value: T) -> Self {
        Cost {
            time: SimDuration::ZERO,
            value,
        }
    }

    /// Map the value, keeping the cost.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Cost<U> {
        Cost {
            time: self.time,
            value: f(self.value),
        }
    }
}

/// The fixed (size-independent) cost components of eq. (1) for one
/// resource/op combination — one row of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FixedCosts {
    /// `T_conn` — connection setup.
    pub conn: SimDuration,
    /// `T_open` — file open.
    pub open: SimDuration,
    /// `T_seek` — file seek (size-independent for disks; tape reports its
    /// *base* positioning cost here, the distance term is model-internal).
    pub seek: SimDuration,
    /// `T_fileclose` — file close.
    pub close: SimDuration,
    /// `T_connclose` — connection teardown.
    pub connclose: SimDuration,
    /// What a dump pays on top when its volume is on no drive: the tape's
    /// mount (and, with every drive busy, the unmount before it). Zero on
    /// random-access media, which never mount. Charged once per volume,
    /// not per call, so it is not part of [`total`](Self::total).
    #[serde(default)]
    pub mount: SimDuration,
}

impl FixedCosts {
    /// Sum of the per-call fixed components: the overhead when each call
    /// opens and closes its own file and connection. The
    /// [`mount`](Self::mount) is per volume and left out.
    pub fn total(&self) -> SimDuration {
        self.conn + self.open + self.seek + self.close + self.connclose
    }
}

/// Opaque handle to an open file on some resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle(pub(crate) u32);

impl FileHandle {
    /// The raw id, e.g. for a transcript.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild from a raw id; only meaningful for handles the same
    /// resource issued.
    pub fn from_raw(id: u32) -> Self {
        FileHandle(id)
    }
}

/// Operation counters, maintained by every resource. The run-time layer and
/// tests use these to assert *how* I/O was performed (e.g. collective I/O
/// must issue exactly one native write per process per dump).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceStats {
    /// Number of `connect` calls that performed work.
    pub connects: usize,
    /// Number of `open` calls.
    pub opens: usize,
    /// Number of `seek` calls.
    pub seeks: usize,
    /// Number of `read` calls.
    pub reads: usize,
    /// Number of `write` calls.
    pub writes: usize,
    /// Number of `close` calls.
    pub closes: usize,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

/// A device's open-handle table, with slot reuse.
#[derive(Debug, Default)]
pub(crate) struct HandleTable {
    slots: Vec<Option<OpenFile>>,
    free: Vec<u32>,
}

/// Book-keeping for one open file.
#[derive(Debug, Clone)]
pub(crate) struct OpenFile {
    pub path: String,
    pub mode: OpenMode,
    pub cursor: u64,
}

impl HandleTable {
    pub fn insert(&mut self, f: OpenFile) -> FileHandle {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(f);
            FileHandle(idx)
        } else {
            self.slots.push(Some(f));
            FileHandle((self.slots.len() - 1) as u32)
        }
    }

    pub fn get(&self, h: FileHandle) -> StorageResult<&OpenFile> {
        self.slots
            .get(h.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(StorageError::BadHandle)
    }

    pub fn get_mut(&mut self, h: FileHandle) -> StorageResult<&mut OpenFile> {
        self.slots
            .get_mut(h.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(StorageError::BadHandle)
    }

    pub fn remove(&mut self, h: FileHandle) -> StorageResult<OpenFile> {
        let slot = self
            .slots
            .get_mut(h.0 as usize)
            .ok_or(StorageError::BadHandle)?;
        let f = slot.take().ok_or(StorageError::BadHandle)?;
        self.free.push(h.0);
        Ok(f)
    }

    #[cfg(test)]
    pub fn open_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_map_preserves_time() {
        let c = Cost::new(SimDuration::from_secs(2.0), 21).map(|v| v * 2);
        assert_eq!(c.time.as_secs(), 2.0);
        assert_eq!(c.value, 42);
    }

    #[test]
    fn fixed_costs_total() {
        let f = FixedCosts {
            conn: SimDuration::from_secs(0.44),
            open: SimDuration::from_secs(0.42),
            seek: SimDuration::from_secs(0.40),
            close: SimDuration::from_secs(0.63),
            connclose: SimDuration::from_secs(0.0002),
            mount: SimDuration::from_secs(30.0),
        };
        assert!((f.total().as_secs() - 1.8902).abs() < 1e-9);
    }

    #[test]
    fn open_mode_permissions() {
        assert!(OpenMode::Create.writable());
        assert!(OpenMode::Append.writable());
        assert!(OpenMode::OverWrite.writable());
        assert!(!OpenMode::Read.writable());
        assert!(OpenMode::Read.readable());
        assert!(!OpenMode::Create.readable());
    }

    #[test]
    fn handle_table_reuses_slots() {
        let mut t = HandleTable::default();
        let h1 = t.insert(OpenFile {
            path: "a".into(),
            mode: OpenMode::Read,
            cursor: 0,
        });
        let h2 = t.insert(OpenFile {
            path: "b".into(),
            mode: OpenMode::Read,
            cursor: 0,
        });
        assert_ne!(h1, h2);
        t.remove(h1).unwrap();
        assert_eq!(t.open_count(), 1);
        let h3 = t.insert(OpenFile {
            path: "c".into(),
            mode: OpenMode::Read,
            cursor: 0,
        });
        assert_eq!(h3, h1, "slot is reused");
        assert!(t.get(h2).is_ok());
        assert_eq!(t.get(h3).unwrap().path, "c");
    }

    #[test]
    fn stale_handle_rejected() {
        let mut t = HandleTable::default();
        let h = t.insert(OpenFile {
            path: "a".into(),
            mode: OpenMode::Read,
            cursor: 0,
        });
        t.remove(h).unwrap();
        assert!(matches!(t.get(h), Err(StorageError::BadHandle)));
        assert!(matches!(t.remove(h), Err(StorageError::BadHandle)));
    }

    #[test]
    fn kind_display() {
        assert_eq!(StorageKind::LocalDisk.to_string(), "local disk");
        assert_eq!(StorageKind::RemoteTape.to_string(), "remote tape");
        assert_eq!(OpKind::Read.to_string(), "read");
    }
}
