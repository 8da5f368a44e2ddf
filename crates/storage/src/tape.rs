//! Remote tape system (HPSS class) behind an SRB-style protocol.
//!
//! Tape is the paper's capacity workhorse and performance villain: huge
//! capacity, but "a minimum of 20 to 40 seconds to be ready to move the
//! data" plus slow streaming. The model has a drive pool: opening a file
//! whose tape is not mounted grabs a free drive (or evicts the
//! least-recently-used one, paying an unmount), then pays a mount sampled
//! uniformly from the configured window. Positioning is sequential —
//! seeking costs time proportional to the distance travelled — unlike the
//! constant-time disk seek of Table 1.

use crate::device::{CostModel, Device};
use crate::rate::RateCurve;
use crate::resource::{FixedCosts, OpKind, StorageKind};
use crate::srb::SrbLink;
use msr_net::{ProtocolCosts, SharedNetwork};
use msr_sim::{Jitter, SimDuration};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

/// Cost parameters of a tape tier.
#[derive(Debug, Clone)]
pub struct TapeParams {
    /// End-to-end file open constant (Table 1: 6.17 s) — drive scheduling
    /// and catalog work, *not* the physical mount.
    pub open: SimDuration,
    /// Close after read (Table 1: 0.46 s).
    pub close_read: SimDuration,
    /// Close after write (Table 1: 0.42 s).
    pub close_write: SimDuration,
    /// Minimum physical mount time.
    pub mount_min: SimDuration,
    /// Maximum physical mount time.
    pub mount_max: SimDuration,
    /// Unmount cost paid when evicting a mounted tape.
    pub unmount: SimDuration,
    /// Base cost of any repositioning.
    pub position_base: SimDuration,
    /// Tape winding rate for positioning, bytes/second.
    pub position_rate: f64,
    /// Streaming read curve of the drive.
    pub read_curve: RateCurve,
    /// Streaming write curve of the drive.
    pub write_curve: RateCurve,
    /// Number of drives in the pool.
    pub num_drives: usize,
    /// Device noise (tapes are noisy).
    pub jitter: Jitter,
    /// Time to recall a vaulted tape from the off-site shelf back into the
    /// silo. Deterministic (no jitter): the courier window is scheduled,
    /// not device noise.
    pub recall: SimDuration,
}

/// The tape volume a path lives on: its directory prefix. Files written
/// under one collection land on the same tape, as HPSS does for a run's
/// output, so opening a sibling file does not remount, vaulting one file
/// shelves its siblings and one recall brings them all back.
pub fn volume_of(path: &str) -> &str {
    path.rsplit_once('/').map(|(dir, _)| dir).unwrap_or(path)
}

#[derive(Debug, Clone)]
struct DriveState {
    volume: String,
    position: u64,
    last_use: u64,
}

/// Cost model and physical state of a tape tier: the link, the drive
/// pool with what is mounted where, and the off-site shelf.
#[derive(Debug)]
pub struct TapeModel {
    link: SrbLink,
    params: TapeParams,
    drives: Vec<Option<DriveState>>,
    use_counter: u64,
    /// Number of physical mounts performed ([`Device::mounts`]).
    mounts: usize,
    /// Volumes on the off-site shelf: every file on one is readable only
    /// after a recall. Ordered set so iteration (and serialization, if
    /// ever) is deterministic.
    vaulted: BTreeSet<String>,
}

/// A simulated remote tape resource.
pub type TapeResource = Device<TapeModel>;

impl TapeResource {
    /// Build a tape resource reached over `net`.
    pub fn new(
        name: impl Into<String>,
        net: SharedNetwork,
        proto: ProtocolCosts,
        params: TapeParams,
        seed: u64,
    ) -> Self {
        let model = TapeModel {
            link: SrbLink::new(net, proto),
            drives: vec![None; params.num_drives.max(1)],
            params,
            use_counter: 0,
            mounts: 0,
            vaulted: BTreeSet::new(),
        };
        Device::assemble(name.into(), model, "tape", seed)
    }
}

impl TapeModel {
    /// Ensure the file's tape volume is mounted on some drive; returns
    /// (drive index, cost). Cost covers unmount of an evicted tape plus the
    /// mount.
    fn ensure_mounted(&mut self, path: &str, rng: &mut StdRng) -> (usize, SimDuration) {
        self.use_counter += 1;
        let stamp = self.use_counter;
        // Already mounted?
        if let Some(i) = self.drive_of(path) {
            self.drives[i].as_mut().expect("checked above").last_use = stamp;
            return (i, SimDuration::ZERO);
        }
        // Free drive?
        let mut cost = SimDuration::ZERO;
        let slot = match self.drives.iter().position(Option::is_none) {
            Some(i) => i,
            None => {
                // Evict the least recently used drive.
                let i = self
                    .drives
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, d)| d.as_ref().map(|d| d.last_use).unwrap_or(0))
                    .map(|(i, _)| i)
                    .expect("drive pool is non-empty");
                cost += self.params.unmount;
                i
            }
        };
        let mount_span = self
            .params
            .mount_max
            .saturating_sub(self.params.mount_min)
            .as_secs();
        let mount = self.params.mount_min
            + SimDuration::from_secs(if mount_span > 0.0 {
                rng.random_range(0.0..=mount_span)
            } else {
                0.0
            });
        cost += mount;
        self.mounts += 1;
        self.drives[slot] = Some(DriveState {
            volume: volume_of(path).to_owned(),
            position: 0,
            last_use: stamp,
        });
        (slot, cost)
    }

    /// Cost of winding the mounted tape from its position to `target`.
    fn position_cost(&mut self, drive: usize, target: u64) -> SimDuration {
        let d = self.drives[drive].as_mut().expect("drive mounted");
        if d.position == target {
            return SimDuration::ZERO;
        }
        let dist = d.position.abs_diff(target);
        d.position = target;
        self.params.position_base
            + SimDuration::from_secs(dist as f64 / self.params.position_rate.max(1.0))
    }

    fn drive_of(&self, path: &str) -> Option<usize> {
        let volume = volume_of(path);
        self.drives
            .iter()
            .position(|d| d.as_ref().is_some_and(|d| d.volume == volume))
    }

    /// Drive-pool rounds needed for `streams` concurrent tape calls.
    fn drive_rounds(&self, streams: u32) -> u32 {
        streams
            .max(1)
            .div_ceil(self.params.num_drives.max(1) as u32)
    }

    fn stream_time(&self, op: OpKind, bytes: u64) -> SimDuration {
        match op {
            OpKind::Read => self.params.read_curve.time_for(bytes),
            OpKind::Write => self.params.write_curve.time_for(bytes),
        }
    }
}

impl CostModel for TapeModel {
    fn kind(&self) -> StorageKind {
        StorageKind::RemoteTape
    }

    fn jitter(&self) -> Jitter {
        self.params.jitter
    }

    fn capacity(&self) -> u64 {
        u64::MAX // "we assume they can hold any size of data"
    }

    fn link(&self) -> Option<&SrbLink> {
        Some(&self.link)
    }

    fn link_mut(&mut self) -> Option<&mut SrbLink> {
        Some(&mut self.link)
    }

    fn file_costs(&self, op: OpKind) -> FixedCosts {
        FixedCosts {
            open: self.params.open,
            seek: self.params.position_base,
            close: match op {
                OpKind::Read => self.params.close_read,
                OpKind::Write => self.params.close_write,
            },
            // The expected mount: the middle of the uniform window the
            // drive pool draws from.
            mount: (self.params.mount_min + self.params.mount_max) * 0.5,
            ..FixedCosts::default()
        }
    }

    fn delete_cost(&self) -> SimDuration {
        self.params.close_write
    }

    fn seek_cost(&mut self, path: &str, pos: u64, rng: &mut StdRng) -> SimDuration {
        // Seeking tape physically winds the media.
        match self.drive_of(path) {
            Some(drive) => self.position_cost(drive, pos),
            None => {
                let (drive, mount) = self.ensure_mounted(path, rng);
                mount + self.position_cost(drive, pos)
            }
        }
    }

    fn position(
        &mut self,
        path: &str,
        target: u64,
        rng: &mut StdRng,
    ) -> (SimDuration, SimDuration) {
        let (drive, mount) = self.ensure_mounted(path, rng);
        (mount, self.position_cost(drive, target))
    }

    fn stream_cost(
        &mut self,
        op: OpKind,
        path: &str,
        end: u64,
        bytes: u64,
        streams: u32,
    ) -> SimDuration {
        // The transfer left the head at `end`.
        if let Some(drive) = self.drive_of(path) {
            self.drives[drive].as_mut().expect("mounted").position = end;
        }
        self.stream_time(op, bytes) * f64::from(self.drive_rounds(streams))
    }

    fn recall_cost(&self) -> Option<SimDuration> {
        Some(self.params.recall)
    }

    fn is_vaulted(&self, path: &str) -> bool {
        self.vaulted.contains(volume_of(path))
    }

    fn set_vaulted(&mut self, path: &str, vaulted: bool) -> bool {
        let volume = volume_of(path);
        if vaulted {
            self.vaulted.insert(volume.to_owned())
        } else {
            self.vaulted.remove(volume)
        }
    }

    fn mounted(&self, path: &str) -> bool {
        self.drive_of(path).is_some()
    }

    fn mounts(&self) -> usize {
        self.mounts
    }

    fn transfer_model(&self, op: OpKind, bytes: u64, streams: u32) -> SimDuration {
        let streams = streams.max(1);
        // More concurrent streams than drives: rounds of drive usage.
        let rounds = self.drive_rounds(streams);
        self.link.wire_nominal(bytes * u64::from(streams), streams)
            + self.stream_time(op, bytes) * f64::from(rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::resource::OpenMode;
    use msr_net::{LinkSpec, Network};

    fn testnet() -> SharedNetwork {
        msr_net::share(Network::new(
            "ANL",
            "SDSC",
            LinkSpec::ideal(SimDuration::from_millis(25.0), 0.30),
        ))
    }

    fn params(drives: usize) -> TapeParams {
        TapeParams {
            open: SimDuration::from_secs(6.17),
            close_read: SimDuration::from_secs(0.46),
            close_write: SimDuration::from_secs(0.42),
            mount_min: SimDuration::from_secs(20.0),
            mount_max: SimDuration::from_secs(20.0), // deterministic in tests
            unmount: SimDuration::from_secs(8.0),
            position_base: SimDuration::from_secs(1.0),
            position_rate: 10e6,
            read_curve: RateCurve::constant_bandwidth(0.07),
            write_curve: RateCurve::constant_bandwidth(0.07),
            num_drives: drives,
            jitter: Jitter::None,
            recall: SimDuration::from_secs(3600.0),
        }
    }

    fn tape(drives: usize) -> TapeResource {
        let mut t = TapeResource::new(
            "hpss",
            testnet(),
            ProtocolCosts {
                conn_setup: SimDuration::from_secs(0.76),
                conn_teardown: SimDuration::from_micros(200.0),
                per_request: SimDuration::from_millis(5.0),
            },
            params(drives),
            0,
        );
        t.connect().unwrap();
        t
    }

    #[test]
    fn connect_cost_matches_table1_tape_row() {
        let t = tape(2);
        let f = t.fixed_costs(OpKind::Write);
        assert!((f.conn.as_secs() - 0.81).abs() < 1e-9);
        assert!((f.open.as_secs() - 6.17).abs() < 1e-9);
        assert!((f.close.as_secs() - 0.42).abs() < 1e-9);
        assert!((t.fixed_costs(OpKind::Read).close.as_secs() - 0.46).abs() < 1e-9);
        // The expected mount, outside the per-call total.
        assert_eq!(f.mount, SimDuration::from_secs(20.0));
        assert!((f.total().as_secs() - (0.81 + 6.17 + 1.0 + 0.42 + 0.0002)).abs() < 1e-6);
    }

    #[test]
    fn a_volume_is_mounted_from_its_first_open_until_evicted() {
        let mut t = tape(1);
        assert!(!t.mounted("run1/a.t00000"));
        assert_eq!(t.mounts(), 0);
        let h = t.open("run1/a.t00000", OpenMode::Create).unwrap().value;
        t.close(h).unwrap();
        // Every file under the directory is on the same volume.
        assert!(t.mounted("run1/b.t00006"));
        assert!(!t.mounted("run2/a.t00000"));
        t.open("run2/a.t00000", OpenMode::Create).unwrap();
        assert!(!t.mounted("run1/a.t00000"), "evicted by the one drive");
        assert_eq!(t.mounts(), 2);
    }

    #[test]
    fn disks_never_mount() {
        use crate::local_disk::{DiskParams, LocalDisk};
        let mut d = LocalDisk::new("d", DiskParams::simple(100.0, 1 << 30), 0);
        assert!(d.mounted("run1/a.t00000"));
        d.open("run1/a.t00000", OpenMode::Create).unwrap();
        assert_eq!(d.mounts(), 0);
        assert_eq!(d.fixed_costs(OpKind::Write).mount, SimDuration::ZERO);
    }

    #[test]
    fn first_open_pays_the_mount() {
        let mut t = tape(2);
        let c = t.open("f", OpenMode::Create).unwrap();
        // 6.17 open + 20 s mount, no reposition (fresh tape at 0).
        assert!((c.time.as_secs() - 26.17).abs() < 1e-9, "got {}", c.time);
        assert_eq!(t.mounts(), 1);
    }

    #[test]
    fn reopen_of_mounted_tape_skips_mount_but_rewinds() {
        let mut t = tape(2);
        let h = t.open("f", OpenMode::Create).unwrap().value;
        t.write(h, &[0u8; 700_000]).unwrap(); // winds to 700 KB
        t.close(h).unwrap();
        let c = t.open("f", OpenMode::Read).unwrap();
        // 6.17 open + rewind (1 s base + 0.07 s wind), no mount.
        assert_eq!(t.mounts(), 1);
        assert!(
            (c.time.as_secs() - (6.17 + 1.0 + 0.07)).abs() < 1e-6,
            "got {}",
            c.time
        );
    }

    #[test]
    fn lru_eviction_when_drives_exhausted() {
        let mut t = tape(1);
        let h1 = t.open("a", OpenMode::Create).unwrap().value;
        t.close(h1).unwrap();
        let c2 = t.open("b", OpenMode::Create).unwrap();
        // Evicts "a": unmount 8 s + mount 20 s + open 6.17.
        assert!((c2.time.as_secs() - 34.17).abs() < 1e-9, "got {}", c2.time);
        assert_eq!(t.mounts(), 2);
        // Going back to "a" remounts again.
        let h = t.open("a", OpenMode::OverWrite).unwrap().value;
        assert_eq!(t.mounts(), 3);
        t.close(h).unwrap();
    }

    #[test]
    fn two_drives_avoid_thrashing() {
        let mut t = tape(2);
        let ha = t.open("a", OpenMode::Create).unwrap().value;
        t.close(ha).unwrap();
        let hb = t.open("b", OpenMode::Create).unwrap().value;
        t.close(hb).unwrap();
        // Both tapes stay mounted: alternating access costs no new mounts.
        t.open("a", OpenMode::OverWrite).unwrap();
        t.open("b", OpenMode::OverWrite).unwrap();
        assert_eq!(t.mounts(), 2);
    }

    #[test]
    fn sequential_read_after_write_needs_rewind() {
        let mut t = tape(2);
        let h = t.open("f", OpenMode::Create).unwrap().value;
        t.write(h, b"0123456789").unwrap();
        // Read from the same handle is BadMode; open a read handle.
        t.close(h).unwrap();
        let h = t.open("f", OpenMode::Read).unwrap().value;
        let got = t.read(h, 10).unwrap().value;
        assert_eq!(&got[..], b"0123456789");
    }

    #[test]
    fn streaming_rate_dominates_large_transfers() {
        let mut t = tape(2);
        let h = t.open("f", OpenMode::Create).unwrap().value;
        let c = t.write(h, &vec![7u8; 7_000_000]).unwrap();
        // 7 MB at 0.07 MB/s tape + 7/0.3 WAN + 25 ms + 5 ms: ≈ 123.4 s
        let expect = 100.0 + 7.0 / 0.3 + 0.03;
        assert!((c.time.as_secs() - expect).abs() < 0.01, "got {}", c.time);
    }

    #[test]
    fn transfer_model_accounts_for_drive_rounds() {
        let t = tape(2);
        let one = t.transfer_model(OpKind::Write, 1_000_000, 2);
        let four = t.transfer_model(OpKind::Write, 1_000_000, 4);
        assert!(four > one, "4 streams on 2 drives take 2 rounds");
    }

    #[test]
    fn capacity_is_unlimited() {
        let t = tape(2);
        assert_eq!(t.capacity_bytes(), u64::MAX);
        assert!(t.available_bytes() > 1 << 60);
    }

    #[test]
    fn seek_cost_scales_with_distance() {
        let mut t = tape(2);
        let h = t.open("f", OpenMode::Create).unwrap().value;
        t.write(h, &vec![0u8; 1_000_000]).unwrap();
        let near = t.seek(h, 999_000).unwrap().time;
        let far = t.seek(h, 0).unwrap().time;
        assert!(far > near, "winding 999 KB costs more than 1 KB");
    }

    /// Write `body` to each of `paths`.
    fn filled(paths: &[&str], body: &[u8]) -> TapeResource {
        let mut t = tape(2);
        for path in paths {
            let h = t.open(path, OpenMode::Create).unwrap().value;
            t.write(h, body).unwrap();
            t.close(h).unwrap();
        }
        t
    }

    #[test]
    fn vaulted_file_rejects_open_until_recalled() {
        let mut t = filled(&["run/f"], b"history");
        t.vault("run/f").unwrap();
        assert!(t.is_vaulted("run/f"));
        assert!(matches!(
            t.open("run/f", OpenMode::Read),
            Err(StorageError::Vaulted(_))
        ));
        assert!(matches!(
            t.open("run/f", OpenMode::Create),
            Err(StorageError::Vaulted(_))
        ));
        let c = t.recall("run/f").unwrap();
        assert_eq!(c.time, SimDuration::from_secs(3600.0));
        assert!(!t.is_vaulted("run/f"));
        // Second recall of a resident volume is free.
        assert_eq!(t.recall("run/f").unwrap().time, SimDuration::ZERO);
        let h = t.open("run/f", OpenMode::Read).unwrap().value;
        assert_eq!(&t.read(h, 7).unwrap().value[..], b"history");
    }

    #[test]
    fn vaulting_one_file_shelves_its_volume_and_no_other() {
        let mut t = filled(&["run/a", "run/b", "other/c"], b"xyz");
        let c = t.vault("run/a").unwrap();
        assert_eq!(c.time, SimDuration::from_secs(0.42), "the export");
        assert!(t.is_vaulted("run/b"), "a sibling is on the same volume");
        assert!(t.is_vaulted("run/never-written"));
        assert!(matches!(
            t.open("run/b", OpenMode::Read),
            Err(StorageError::Vaulted(_))
        ));
        assert!(matches!(
            t.open("run/new", OpenMode::Create),
            Err(StorageError::Vaulted(_))
        ));
        assert_eq!(
            t.vault("run/b").unwrap().time,
            SimDuration::ZERO,
            "re-vaulting a shelved volume is free"
        );
        // Another volume stays readable.
        assert!(!t.is_vaulted("other/c"));
        let h = t.open("other/c", OpenMode::Read).unwrap().value;
        assert_eq!(&t.read(h, 3).unwrap().value[..], b"xyz");
    }

    #[test]
    fn one_recall_restores_the_whole_volume() {
        let mut t = filled(&["run/a", "run/b"], b"xyz");
        t.vault("run/a").unwrap();
        assert_eq!(
            t.recall("run/b").unwrap().time,
            SimDuration::from_secs(3600.0)
        );
        assert_eq!(t.recall("run/a").unwrap().time, SimDuration::ZERO);
        for path in ["run/a", "run/b"] {
            let h = t.open(path, OpenMode::Read).unwrap().value;
            assert_eq!(&t.read(h, 3).unwrap().value[..], b"xyz");
            t.close(h).unwrap();
        }
    }

    #[test]
    fn vault_requires_existing_file_and_delete_leaves_the_volume_shelved() {
        let mut t = filled(&["run/g", "run/h"], b"x");
        assert!(matches!(t.vault("ghost"), Err(StorageError::NotFound(_))));
        t.vault("run/g").unwrap();
        t.delete("run/g").unwrap();
        assert!(!t.exists("run/g"));
        assert!(
            t.is_vaulted("run/g"),
            "the volume, not the file, is shelved"
        );
        assert!(matches!(
            t.open("run/h", OpenMode::Read),
            Err(StorageError::Vaulted(_))
        ));
    }

    #[test]
    fn vault_unsupported_off_tape() {
        use crate::local_disk::{DiskParams, LocalDisk};
        let mut d = LocalDisk::new("d", DiskParams::simple(100.0, 1 << 30), 0);
        assert!(matches!(
            d.vault("f"),
            Err(StorageError::VaultUnsupported { .. })
        ));
        assert!(matches!(
            d.recall("f"),
            Err(StorageError::VaultUnsupported { .. })
        ));
        assert!(!d.is_vaulted("f"));
    }

    #[test]
    fn offline_tape_rejects_io() {
        let mut t = tape(2);
        t.set_online(false);
        assert!(matches!(
            t.open("f", OpenMode::Create),
            Err(StorageError::Offline { .. })
        ));
    }
}
