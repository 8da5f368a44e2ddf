//! Node-local disk resource (UNIX FS / PIOFS class).
//!
//! Models the SP-2 node's SSA disk subsystem: no connection cost, cheap
//! open/close, effectively free seeks, tens of MB/s transfer — but a *small
//! capacity*, which is the whole point of the paper: local disks are fast
//! and scarce, so only datasets needed soon should land here.

use crate::device::{CostModel, Device};
use crate::rate::RateCurve;
use crate::resource::{FixedCosts, OpKind, StorageKind};
use msr_sim::{Jitter, SimDuration};
use rand::rngs::StdRng;

/// Cost parameters of a local disk.
#[derive(Debug, Clone)]
pub struct DiskParams {
    /// File open cost for reads (Table 1: 0.20 s on the testbed).
    pub open_read: SimDuration,
    /// File open cost for writes (Table 1: 0.21 s).
    pub open_write: SimDuration,
    /// File close cost (Table 1: 0.001 s).
    pub close: SimDuration,
    /// Seek cost (random-access medium: tiny constant).
    pub seek: SimDuration,
    /// Read transfer-time curve.
    pub read_curve: RateCurve,
    /// Write transfer-time curve.
    pub write_curve: RateCurve,
    /// Capacity in bytes.
    pub capacity: u64,
    /// Device timing noise.
    pub jitter: Jitter,
}

impl DiskParams {
    /// A convenient uniform-bandwidth disk for tests.
    pub fn simple(mb_per_s: f64, capacity: u64) -> Self {
        DiskParams {
            open_read: SimDuration::from_millis(1.0),
            open_write: SimDuration::from_millis(1.0),
            close: SimDuration::from_micros(100.0),
            seek: SimDuration::from_micros(100.0),
            read_curve: RateCurve::constant_bandwidth(mb_per_s),
            write_curve: RateCurve::constant_bandwidth(mb_per_s),
            capacity,
            jitter: Jitter::None,
        }
    }
}

/// A simulated local disk. It has no physical state beyond its files, so
/// its cost model is the parameter set itself.
pub type LocalDisk = Device<DiskParams>;

impl LocalDisk {
    /// Create a local disk with the given parameters. `seed` controls the
    /// device-noise stream.
    pub fn new(name: impl Into<String>, params: DiskParams, seed: u64) -> Self {
        Device::assemble(name.into(), params, "localdisk", seed)
    }
}

impl DiskParams {
    fn curve(&self, op: OpKind) -> &RateCurve {
        match op {
            OpKind::Read => &self.read_curve,
            OpKind::Write => &self.write_curve,
        }
    }
}

impl CostModel for DiskParams {
    fn kind(&self) -> StorageKind {
        StorageKind::LocalDisk
    }

    fn jitter(&self) -> Jitter {
        self.jitter
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn set_capacity(&mut self, bytes: u64) {
        self.capacity = bytes;
    }

    fn file_costs(&self, op: OpKind) -> FixedCosts {
        FixedCosts {
            open: match op {
                OpKind::Read => self.open_read,
                OpKind::Write => self.open_write,
            },
            seek: self.seek,
            close: self.close,
            ..FixedCosts::default() // local filesystem: no connection phase
        }
    }

    fn delete_cost(&self) -> SimDuration {
        self.close
    }

    fn seek_cost(&mut self, _path: &str, _pos: u64, _rng: &mut StdRng) -> SimDuration {
        self.seek
    }

    fn stream_cost(
        &mut self,
        op: OpKind,
        _path: &str,
        _end: u64,
        bytes: u64,
        streams: u32,
    ) -> SimDuration {
        self.transfer_model(op, bytes, streams)
    }

    fn transfer_model(&self, op: OpKind, bytes: u64, streams: u32) -> SimDuration {
        // Concurrent streams serialize on the spindle: each call sees the
        // device busy with the other streams' interleaved requests.
        self.curve(op).time_for(bytes) * streams.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::resource::OpenMode;

    fn disk() -> LocalDisk {
        LocalDisk::new("d0", DiskParams::simple(10.0, 10_000_000), 0)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = disk();
        let h = d.open("f", OpenMode::Create).unwrap().value;
        d.write(h, b"hello world").unwrap();
        d.close(h).unwrap();
        let h = d.open("f", OpenMode::Read).unwrap().value;
        let got = d.read(h, 11).unwrap().value;
        assert_eq!(&got[..], b"hello world");
        d.close(h).unwrap();
        let s = d.stats();
        assert_eq!((s.opens, s.reads, s.writes, s.closes), (2, 1, 1, 2));
        assert_eq!(s.bytes_written, 11);
        assert_eq!(s.bytes_read, 11);
    }

    #[test]
    fn read_mode_enforced() {
        let mut d = disk();
        let h = d.open("f", OpenMode::Create).unwrap().value;
        assert!(matches!(d.read(h, 1), Err(StorageError::BadMode { .. })));
        d.write(h, b"x").unwrap();
        d.close(h).unwrap();
        let h = d.open("f", OpenMode::Read).unwrap().value;
        assert!(matches!(
            d.write(h, b"y"),
            Err(StorageError::BadMode { .. })
        ));
    }

    #[test]
    fn open_missing_for_read_fails() {
        let mut d = disk();
        assert!(matches!(
            d.open("missing", OpenMode::Read),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn append_positions_cursor_at_end() {
        let mut d = disk();
        let h = d.open("f", OpenMode::Create).unwrap().value;
        d.write(h, b"abc").unwrap();
        d.close(h).unwrap();
        let h = d.open("f", OpenMode::Append).unwrap().value;
        d.write(h, b"def").unwrap();
        d.close(h).unwrap();
        let h = d.open("f", OpenMode::Read).unwrap().value;
        assert_eq!(&d.read(h, 6).unwrap().value[..], b"abcdef");
    }

    #[test]
    fn overwrite_keeps_existing_tail() {
        let mut d = disk();
        let h = d.open("f", OpenMode::Create).unwrap().value;
        d.write(h, b"abcdef").unwrap();
        d.close(h).unwrap();
        let h = d.open("f", OpenMode::OverWrite).unwrap().value;
        d.write(h, b"XY").unwrap();
        d.close(h).unwrap();
        let h = d.open("f", OpenMode::Read).unwrap().value;
        assert_eq!(&d.read(h, 6).unwrap().value[..], b"XYcdef");
    }

    #[test]
    fn capacity_is_enforced() {
        let mut d = LocalDisk::new("small", DiskParams::simple(10.0, 100), 0);
        let h = d.open("f", OpenMode::Create).unwrap().value;
        d.write(h, &[0u8; 80]).unwrap();
        let err = d.write(h, &[0u8; 40]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::CapacityExceeded { available: 20, .. }
        ));
        // Overwriting existing bytes does not count as growth.
        d.seek(h, 0).unwrap();
        assert!(d.write(h, &[1u8; 80]).is_ok());
    }

    #[test]
    fn offline_rejects_io() {
        let mut d = disk();
        d.set_online(false);
        assert!(matches!(
            d.open("f", OpenMode::Create),
            Err(StorageError::Offline { .. })
        ));
        assert!(!d.is_online());
        d.set_online(true);
        assert!(d.open("f", OpenMode::Create).is_ok());
    }

    #[test]
    fn costs_match_model_when_noise_free() {
        let mut d = disk();
        let h = d.open("f", OpenMode::Create).unwrap();
        assert_eq!(h.time, SimDuration::from_millis(1.0));
        let w = d.write(h.value, &[0u8; 1_000_000]).unwrap();
        assert!((w.time.as_secs() - 0.1).abs() < 1e-9, "1 MB at 10 MB/s");
        assert_eq!(
            d.transfer_model(OpKind::Write, 1_000_000, 1),
            SimDuration::from_secs(0.1)
        );
    }

    #[test]
    fn streams_serialize_on_spindle() {
        let d = disk();
        let one = d.transfer_model(OpKind::Read, 1_000_000, 1);
        let four = d.transfer_model(OpKind::Read, 1_000_000, 4);
        assert!((four.as_secs() - 4.0 * one.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn connect_is_free_for_local() {
        let mut d = disk();
        assert_eq!(d.connect().unwrap().time, SimDuration::ZERO);
        assert_eq!(d.fixed_costs(OpKind::Read).conn, SimDuration::ZERO);
    }

    #[test]
    fn delete_frees_space() {
        let mut d = LocalDisk::new("small", DiskParams::simple(10.0, 100), 0);
        let h = d.open("f", OpenMode::Create).unwrap().value;
        d.write(h, &[0u8; 100]).unwrap();
        d.close(h).unwrap();
        assert_eq!(d.available_bytes(), 0);
        d.delete("f").unwrap();
        assert_eq!(d.available_bytes(), 100);
        assert!(matches!(d.delete("f"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn list_and_file_size() {
        let mut d = disk();
        for p in ["run/a", "run/b"] {
            let h = d.open(p, OpenMode::Create).unwrap().value;
            d.write(h, b"12").unwrap();
            d.close(h).unwrap();
        }
        assert_eq!(d.list("run/").len(), 2);
        assert_eq!(d.file_size("run/a"), Some(2));
        assert_eq!(d.file_size("run/x"), None);
    }
}
