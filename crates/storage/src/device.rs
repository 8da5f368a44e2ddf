//! One simulated device: the file mechanics of the native interface,
//! written once.
//!
//! Eq. (1) says the three resource kinds differ only in what each native
//! call costs. [`Device`] therefore owns everything they share — the
//! [`ObjectStore`], the open-handle table, the operation counters, the
//! online flag, the contention hint, the capacity check and the seeded
//! device-noise stream — and carries the single data-path
//! `impl StorageResource`. What a call *costs*, and the physical state that
//! cost depends on (an SRB connection, a tape drive pool, a vault shelf),
//! lives behind the small [`CostModel`] trait, implemented once per kind.
//!
//! The split is also the determinism contract: `Device` fixes the order of
//! checks (which error surfaces first), of stats increments and of draws
//! from the noise stream; a model only decides durations.

use crate::error::StorageError;
use crate::object_store::ObjectStore;
use crate::resource::{
    Cost, FileHandle, FixedCosts, HandleTable, OpKind, OpenFile, OpenMode, ResourceStats,
    StorageKind, StorageResource,
};
use crate::srb::SrbLink;
use crate::StorageResult;
use bytes::Bytes;
use msr_sim::{stream_rng, Jitter, SimDuration};
use rand::rngs::StdRng;

/// What native calls cost on one kind of device, plus the physical state
/// those costs depend on. Durations are noise-free unless stated; the
/// [`Device`] applies [`CostModel::jitter`] itself.
pub trait CostModel: Send {
    /// The resource kind this model prices.
    fn kind(&self) -> StorageKind;

    /// Device timing noise applied to the fixed and device-side terms.
    fn jitter(&self) -> Jitter;

    /// Capacity in bytes (`u64::MAX`: effectively unlimited).
    fn capacity(&self) -> u64;

    /// Administrative resize; kinds with unlimited capacity ignore it.
    fn set_capacity(&mut self, _bytes: u64) {}

    /// The SRB session this device is reached through, for remote kinds.
    /// The device drives it: connection phase, liveness, wire time.
    fn link(&self) -> Option<&SrbLink> {
        None
    }

    /// [`CostModel::link`], mutably.
    fn link_mut(&mut self) -> Option<&mut SrbLink> {
        None
    }

    /// The file columns of the Table 1 row for `op` — `T_open`, `T_seek`
    /// (tape: its *base* positioning cost) and `T_fileclose`; the
    /// connection columns come from the link and are left zero here.
    fn file_costs(&self, op: OpKind) -> FixedCosts;

    /// Catalog cost of removing (or shelving) a file; charged without noise.
    fn delete_cost(&self) -> SimDuration;

    /// `T_seek` to `pos` in `path`, updating any physical head position.
    fn seek_cost(&mut self, path: &str, pos: u64, rng: &mut StdRng) -> SimDuration;

    /// Make the medium holding `path` ready to move data at `target`:
    /// returns `(mount, wind)`. Random-access media pay neither.
    fn position(
        &mut self,
        _path: &str,
        _target: u64,
        _rng: &mut StdRng,
    ) -> (SimDuration, SimDuration) {
        (SimDuration::ZERO, SimDuration::ZERO)
    }

    /// Device-side time of moving `bytes` of `path`, ending at offset
    /// `end`, while `streams` same-sized calls contend.
    fn stream_cost(
        &mut self,
        op: OpKind,
        path: &str,
        end: u64,
        bytes: u64,
        streams: u32,
    ) -> SimDuration;

    /// Latency of recalling a vaulted file, for kinds that have a vault.
    fn recall_cost(&self) -> Option<SimDuration> {
        None
    }

    /// Whether `path` is in the vault.
    fn is_vaulted(&self, _path: &str) -> bool {
        false
    }

    /// Move `path` into or out of the vault; returns whether that changed
    /// anything.
    fn set_vaulted(&mut self, _path: &str, _vaulted: bool) -> bool {
        false
    }

    /// Deterministic `T_read/write(s)` for one native call.
    fn transfer_model(&self, op: OpKind, bytes: u64, streams: u32) -> SimDuration;
}

/// A simulated storage device priced by the cost model `M`.
#[derive(Debug)]
pub struct Device<M> {
    name: String,
    pub(crate) model: M,
    store: ObjectStore,
    handles: HandleTable,
    stats: ResourceStats,
    online: bool,
    stream_hint: u32,
    rng: StdRng,
}

impl<M: CostModel> Device<M> {
    /// Assemble a device. The noise stream is `"<stream>:<name>"` under
    /// `seed`, so distinct resources stay independent under one master seed.
    pub(crate) fn assemble(name: String, model: M, stream: &str, seed: u64) -> Self {
        let rng = stream_rng(seed, &format!("{stream}:{name}"));
        Device {
            name,
            model,
            store: ObjectStore::new(),
            handles: HandleTable::default(),
            stats: ResourceStats::default(),
            online: true,
            stream_hint: 1,
            rng,
        }
    }

    fn check_online(&self) -> StorageResult<()> {
        if self.online {
            Ok(())
        } else {
            Err(StorageError::Offline {
                resource: self.name.clone(),
            })
        }
    }

    /// Whether a data-path call can reach the device right now.
    fn check_live(&self) -> StorageResult<()> {
        self.model.link().map_or(Ok(()), SrbLink::check_live)
    }

    /// Online, reachable, and `path` exists.
    fn check_present(&self, path: &str) -> StorageResult<()> {
        self.check_online()?;
        self.check_live()?;
        if self.store.exists(path) {
            Ok(())
        } else {
            Err(StorageError::NotFound(path.to_owned()))
        }
    }

    fn jittered(&mut self, d: SimDuration) -> SimDuration {
        self.model.jitter().apply(d, &mut self.rng)
    }

    fn vault_unsupported(&self) -> StorageError {
        StorageError::VaultUnsupported {
            resource: self.name.clone(),
        }
    }

    /// A native write of `len` bytes through `h`: every check, the
    /// positioning, the counters and the cost, with `put` storing the bytes
    /// at `(path, cursor)`. Both write entry points are this body, so they
    /// cannot drift apart.
    fn write_with(
        &mut self,
        h: FileHandle,
        len: usize,
        put: impl FnOnce(&mut ObjectStore, &str, u64) -> StorageResult<()>,
    ) -> StorageResult<Cost<usize>> {
        self.check_online()?;
        self.check_live()?;
        let f = self.handles.get(h)?;
        if !f.mode.writable() {
            return Err(StorageError::BadMode { op: "write" });
        }
        let n = len as u64;
        // Only bytes beyond the file's current extent count as growth.
        let growth = (f.cursor + n).saturating_sub(self.store.size(&f.path).unwrap_or(0));
        let available = self.available_bytes();
        if growth > available {
            return Err(StorageError::CapacityExceeded {
                resource: self.name.clone(),
                requested: growth,
                available,
            });
        }
        let f = self.handles.get_mut(h)?;
        let positioned = self.model.position(&f.path, f.cursor, &mut self.rng);
        put(&mut self.store, &f.path, f.cursor)?;
        f.cursor += n;
        self.stats.writes += 1;
        self.stats.bytes_written += n;
        let t = self.transfer_cost(OpKind::Write, h, positioned, n)?;
        Ok(Cost::new(t, len))
    }

    /// The transfer term of eq. (1) for a call that has just moved `bytes`
    /// through `h` (cursor already advanced): positioning, plus the
    /// device's noisy streaming time, plus the wire. The wire draws before
    /// the device noise does.
    fn transfer_cost(
        &mut self,
        op: OpKind,
        h: FileHandle,
        (mount, wind): (SimDuration, SimDuration),
        bytes: u64,
    ) -> StorageResult<SimDuration> {
        let f = self.handles.get(h)?;
        let device = self
            .model
            .stream_cost(op, &f.path, f.cursor, bytes, self.stream_hint);
        // Jitter draws from this device's own stream, so concurrent traffic
        // elsewhere cannot reorder it.
        let wire = match self.model.link() {
            Some(link) => link.wire(bytes, self.stream_hint, &mut self.rng)?,
            None => SimDuration::ZERO,
        };
        Ok(mount + wind + self.jittered(device) + wire)
    }
}

impl<M: CostModel> StorageResource for Device<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> StorageKind {
        self.model.kind()
    }

    fn is_online(&self) -> bool {
        self.online
    }

    fn set_online(&mut self, up: bool) {
        self.online = up;
    }

    fn capacity_bytes(&self) -> u64 {
        self.model.capacity()
    }

    fn set_capacity(&mut self, bytes: u64) {
        self.model.set_capacity(bytes);
    }

    fn used_bytes(&self) -> u64 {
        self.store.used_bytes()
    }

    fn logical_bytes(&self) -> u64 {
        self.store.logical_bytes()
    }

    fn set_logical_size(&mut self, path: &str, bytes: u64) {
        self.store.set_logical(path, bytes);
    }

    fn connect(&mut self) -> StorageResult<Cost<()>> {
        self.check_online()?;
        let Some(link) = self.model.link_mut() else {
            return Ok(Cost::free(())); // local filesystem: no connection phase
        };
        match link.connect()? {
            None => Ok(Cost::free(())), // idempotent reconnect
            Some(setup) => {
                self.stats.connects += 1;
                Ok(Cost::new(self.jittered(setup), ()))
            }
        }
    }

    fn disconnect(&mut self) -> StorageResult<Cost<()>> {
        let teardown = self.model.link_mut().map(SrbLink::disconnect);
        Ok(Cost::new(teardown.unwrap_or(SimDuration::ZERO), ()))
    }

    fn open(&mut self, path: &str, mode: OpenMode) -> StorageResult<Cost<FileHandle>> {
        self.check_online()?;
        self.check_live()?;
        // A vaulted file is off-site for every mode — even a truncating
        // create would need the volume back.
        if self.model.is_vaulted(path) {
            return Err(StorageError::Vaulted(path.to_owned()));
        }
        let cursor = match mode {
            OpenMode::Read => {
                if !self.store.exists(path) {
                    return Err(StorageError::NotFound(path.to_owned()));
                }
                0
            }
            OpenMode::Create => {
                self.store.create(path);
                0
            }
            OpenMode::OverWrite => {
                self.store.ensure(path);
                0
            }
            OpenMode::Append => {
                self.store.ensure(path);
                self.store.size(path).unwrap_or(0)
            }
        };
        // Open includes getting the medium ready to move data.
        let (mount, wind) = self.model.position(path, cursor, &mut self.rng);
        let h = self.handles.insert(OpenFile {
            path: path.to_owned(),
            mode,
            cursor,
        });
        self.stats.opens += 1;
        let t = self.jittered(self.model.file_costs(mode.op()).open) + mount + wind;
        Ok(Cost::new(t, h))
    }

    fn seek(&mut self, h: FileHandle, pos: u64) -> StorageResult<Cost<()>> {
        self.check_online()?;
        self.check_live()?;
        let f = self.handles.get_mut(h)?;
        f.cursor = pos;
        self.stats.seeks += 1;
        let cost = self.model.seek_cost(&f.path, pos, &mut self.rng);
        Ok(Cost::new(self.jittered(cost), ()))
    }

    fn read(&mut self, h: FileHandle, len: usize) -> StorageResult<Cost<Bytes>> {
        self.check_online()?;
        self.check_live()?;
        let f = self.handles.get_mut(h)?;
        if !f.mode.readable() {
            return Err(StorageError::BadMode { op: "read" });
        }
        // Sequential media may have lost the mount to another file since
        // open: position first, then touch the bytes.
        let positioned = self.model.position(&f.path, f.cursor, &mut self.rng);
        let data = self.store.read_at(&f.path, f.cursor, len)?;
        let n = data.len() as u64;
        f.cursor += n;
        self.stats.reads += 1;
        self.stats.bytes_read += n;
        let t = self.transfer_cost(OpKind::Read, h, positioned, n)?;
        Ok(Cost::new(t, data))
    }

    fn write(&mut self, h: FileHandle, data: &[u8]) -> StorageResult<Cost<usize>> {
        self.write_with(h, data.len(), |store, path, at| {
            store.write_at(path, at, data)
        })
    }

    fn write_shared(&mut self, h: FileHandle, data: Bytes) -> StorageResult<Cost<usize>> {
        self.write_with(h, data.len(), |store, path, at| {
            store.write_shared_at(path, at, data)
        })
    }

    fn close(&mut self, h: FileHandle) -> StorageResult<Cost<()>> {
        let f = self.handles.remove(h)?;
        self.stats.closes += 1;
        let t = self.jittered(self.model.file_costs(f.mode.op()).close);
        Ok(Cost::new(t, ()))
    }

    fn delete(&mut self, path: &str) -> StorageResult<Cost<()>> {
        self.check_present(path)?;
        self.store.delete(path);
        // Pruning a vaulted dump destroys the shelf copy too — no recall
        // needed to expire data.
        self.model.set_vaulted(path, false);
        Ok(Cost::new(self.model.delete_cost(), ()))
    }

    fn vault(&mut self, path: &str) -> StorageResult<Cost<()>> {
        if self.model.recall_cost().is_none() {
            return Err(self.vault_unsupported());
        }
        // Shelving happens off the data path: no live connection needed.
        self.check_online()?;
        if !self.store.exists(path) {
            return Err(StorageError::NotFound(path.to_owned()));
        }
        // Shelving is a catalog update plus a robot export: charge the same
        // bookkeeping cost as a delete. No jitter: the noise stream must
        // stay unperturbed so lifecycle-on runs do not reorder other draws.
        self.model.set_vaulted(path, true);
        Ok(Cost::new(self.model.delete_cost(), ()))
    }

    fn recall(&mut self, path: &str) -> StorageResult<Cost<()>> {
        let Some(latency) = self.model.recall_cost() else {
            return Err(self.vault_unsupported());
        };
        self.check_present(path)?;
        if self.model.set_vaulted(path, false) {
            Ok(Cost::new(latency, ()))
        } else {
            Ok(Cost::free(())) // already resident
        }
    }

    fn is_vaulted(&self, path: &str) -> bool {
        self.model.is_vaulted(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.store.exists(path)
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        self.store.size(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.store.list(prefix)
    }

    fn stats(&self) -> ResourceStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ResourceStats::default();
    }

    fn set_stream_hint(&mut self, streams: u32) {
        self.stream_hint = streams.max(1);
    }

    fn stream_hint(&self) -> u32 {
        self.stream_hint
    }

    fn fixed_costs(&self, op: OpKind) -> FixedCosts {
        let (conn, connclose) = self
            .model
            .link()
            .map(SrbLink::conn_costs)
            .unwrap_or_default();
        FixedCosts {
            conn,
            connclose,
            ..self.model.file_costs(op)
        }
    }

    fn transfer_model(&self, op: OpKind, bytes: u64, streams: u32) -> SimDuration {
        self.model.transfer_model(op, bytes, streams)
    }
}
