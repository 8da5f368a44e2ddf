//! One simulated device: the native storage interface, written once.
//!
//! Eq. (1) says the three resource kinds differ only in what each native
//! call costs. [`Device`] therefore *is* the native interface: it owns
//! everything the kinds share — the [`ObjectStore`], the open-handle
//! table, the operation counters, the online flag, the contention hint,
//! the capacity check and the seeded device-noise stream — and its
//! methods are the connect/open/seek/read/write/close calls the run-time
//! layer issues. What a call *costs*, and the physical state that cost
//! depends on (an SRB connection, a tape drive pool, a vault shelf), lives
//! behind the small [`CostModel`] trait, implemented once per kind. A
//! [`SharedResource`] holds any kind as `Device<dyn CostModel>`.
//!
//! The split is also the determinism contract: `Device` fixes the order of
//! checks (which error surfaces first), of stats increments and of draws
//! from the noise stream; a model only decides durations.
//!
//! Every native call runs through two optional stages in a fixed order:
//!
//! ```text
//! caller → faults → observe → device
//! ```
//!
//! * **faults** ([`crate::fault`], switched on by
//!   [`Device::inject_faults`]) gates, tears and spikes data-path
//!   calls: the gate runs before the device is touched, the spike after
//!   the call has been observed. `connect`, `disconnect`, `delete` and
//!   `vault` are never gated; `recall` is. A torn transfer's half call and
//!   the seek restoring the handle's cursor are observed; a spike is not,
//!   so it does not distort what PTool learns.
//! * **observe** ([`Device::observed`]) emits one `msr-obs` span per native
//!   call that reached the device and succeeded — the exact eq. (1)
//!   components (`conn`, `open`, `seek`, `read`, `write`, `close`,
//!   `connclose`) with the call's jittered "actual" duration and payload
//!   size. It is what the paper's PTool observes "in the background".
//!   Spans are stamped with the simulation clock *as of call entry*: the
//!   run-time engine charges per-process time on its own
//!   [`msr_sim::Timeline`] and the session advances the global clock once
//!   per operation, so all native calls of one dump share a timestamp
//!   while durations stay exact.

use crate::error::StorageError;
use crate::fault::{FaultKind, FaultLog, FaultPlan, Faults};
use crate::object_store::ObjectStore;
use crate::payload::Payload;
use crate::resource::{
    Cost, FileHandle, FixedCosts, HandleTable, OpKind, OpenFile, OpenMode, ResourceStats,
    StorageKind,
};
use crate::srb::SrbLink;
use crate::StorageResult;
use bytes::Bytes;
use msr_obs::{ops, Layer, Recorder};
use msr_sim::{stream_rng, Clock, Jitter, SimDuration};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use std::sync::Arc;

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

    /// Whether the medium holding `path` is in the vault.
    fn is_vaulted(&self, _path: &str) -> bool {
        false
    }

    /// Move the medium holding `path` into or out of the vault; returns
    /// whether that changed anything.
    fn set_vaulted(&mut self, _path: &str, _vaulted: bool) -> bool {
        false
    }

    /// Deterministic `T_read/write(s)` for one native call.
    fn transfer_model(&self, op: OpKind, bytes: u64, streams: u32) -> SimDuration;

    /// Whether the medium holding `path` is ready to move data without a
    /// mount. Random-access media never mount.
    fn mounted(&self, _path: &str) -> bool {
        true
    }

    /// Physical mounts performed so far; zero on media that never mount.
    fn mounts(&self) -> usize {
        0
    }
}

/// A simulated storage device priced by the cost model `M`: the native
/// storage interface.
///
/// Data-path methods return [`Cost`]s carrying jittered "actual" durations;
/// [`Device::fixed_costs`] and [`Device::transfer_model`] expose the
/// deterministic components used by the performance predictor.
#[derive(Debug)]
pub struct Device<M: ?Sized> {
    name: String,
    store: ObjectStore,
    handles: HandleTable,
    stats: ResourceStats,
    online: bool,
    stream_hint: u32,
    rng: StdRng,
    /// The observe stage: where spans go and the clock that stamps them.
    observe: Option<(Recorder, Clock)>,
    /// The fault stage, once [`Device::inject_faults`] set a plan.
    faults: Option<Faults>,
    /// Last, so a device of any kind unsizes to `Device<dyn CostModel>`.
    pub(crate) model: M,
}

/// Shared, lockable resource handle used across the system (API layer,
/// runtime, PTool all touch the same resources).
pub type SharedResource = Arc<Mutex<Device<dyn CostModel>>>;

/// Wrap a device for sharing.
pub fn share<M: CostModel + 'static>(r: Device<M>) -> SharedResource {
    Arc::new(Mutex::new(r))
}

impl<M: CostModel> Device<M> {
    /// Assemble a device. The noise stream is `"<stream>:<name>"` under
    /// `seed`, so distinct resources stay independent under one master seed.
    pub(crate) fn assemble(name: String, model: M, stream: &str, seed: u64) -> Self {
        let rng = stream_rng(seed, &format!("{stream}:{name}"));
        Device {
            name,
            store: ObjectStore::new(),
            handles: HandleTable::default(),
            stats: ResourceStats::default(),
            online: true,
            stream_hint: 1,
            rng,
            observe: None,
            faults: None,
            model,
        }
    }

    /// Switch the observe stage on: emit events through `recorder`
    /// stamped with `clock`'s current virtual time.
    pub fn observed(mut self, recorder: Recorder, clock: Clock) -> Self {
        self.observe = Some((recorder, clock));
        self
    }
}

impl<M: CostModel + ?Sized> Device<M> {
    /// The observe stage: record a native call that reached the device and
    /// succeeded, moving `bytes` of payload.
    fn span<T>(&self, op: &str, cost: Cost<T>, bytes: u64) -> Cost<T> {
        // With the recorder disabled (or `msr-obs` built without the
        // `record` feature) this guard is a constant and the body — clock
        // read included — drops out of the hot path.
        if let Some((recorder, clock)) = &self.observe {
            if recorder.enabled() {
                recorder.span(
                    Layer::Storage,
                    &self.name,
                    op,
                    clock.now(),
                    cost.time,
                    bytes,
                );
            }
        }
        cost
    }

    // --- fault stage: every helper passes through when it is off ---

    fn gate(&mut self, op: &'static str) -> StorageResult<()> {
        match &mut self.faults {
            Some(f) => f.gate(&self.name, op),
            None => Ok(()),
        }
    }

    fn spike<T>(&mut self, op: &'static str, cost: Cost<T>) -> Cost<T> {
        match &mut self.faults {
            Some(f) => f.spike(&self.name, op, cost),
            None => cost,
        }
    }

    /// If the fault stage decides to tear this transfer, where the handle's
    /// cursor must be put back afterwards.
    fn tear_from(&mut self, h: FileHandle, len: usize) -> Option<u64> {
        let f = self.faults.as_mut()?;
        (len > 1 && f.should_tear()).then(|| self.handles.get(h).map_or(0, |open| open.cursor))
    }

    /// Finish a torn transfer: the half call already ran; seek the handle
    /// back to `start` and fail. If the restore itself fails, surface
    /// *that* error — better a loud failure than a handle silently left
    /// mid-file.
    fn torn<T>(&mut self, op: &'static str, h: FileHandle, start: u64) -> StorageResult<T> {
        self.seek_to(h, start)?;
        let f = self.faults.as_ref().expect("only the fault stage tears");
        Err(f.inject(&self.name, op, FaultKind::Torn))
    }

    // --- device bodies shared by the staged entry points ---

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

    /// An observed, ungated seek: the native call, and a torn transfer's
    /// cursor restore.
    fn seek_to(&mut self, h: FileHandle, pos: u64) -> StorageResult<Cost<()>> {
        self.check_online()?;
        self.check_live()?;
        let f = self.handles.get_mut(h)?;
        f.cursor = pos;
        self.stats.seeks += 1;
        let cost = self.model.seek_cost(&f.path, pos, &mut self.rng);
        let cost = Cost::new(self.jittered(cost), ());
        Ok(self.span(ops::SEEK, cost, 0))
    }

    /// An observed read of up to `len` bytes at the cursor, as the file
    /// keeps them ([`ObjectStore::read_shared_at`]).
    fn read_at_cursor(&mut self, h: FileHandle, len: usize) -> StorageResult<Cost<Payload>> {
        self.check_online()?;
        self.check_live()?;
        let f = self.handles.get_mut(h)?;
        if !f.mode.readable() {
            return Err(StorageError::BadMode { op: "read" });
        }
        // Sequential media may have lost the mount to another file since
        // open: position first, then touch the bytes.
        let positioned = self.model.position(&f.path, f.cursor, &mut self.rng);
        let data = self.store.read_shared_at(&f.path, f.cursor, len)?;
        let n = data.len() as u64;
        f.cursor += n;
        self.stats.reads += 1;
        self.stats.bytes_read += n;
        let t = self.transfer_cost(OpKind::Read, h, positioned, n)?;
        Ok(self.span(ops::READ, Cost::new(t, data), n))
    }

    /// A write of `len` bytes through the fault stage, with `whole` making
    /// the observed device call that moves all of them. A torn write moves
    /// the first half, which `half` produces, through the borrowed path,
    /// whichever entry point was called.
    fn write_staged<H: AsRef<[u8]>>(
        &mut self,
        h: FileHandle,
        len: usize,
        half: impl FnOnce(usize) -> H,
        whole: impl FnOnce(&mut Self) -> StorageResult<Cost<usize>>,
    ) -> StorageResult<Cost<usize>> {
        self.gate(ops::WRITE)?;
        if let Some(start) = self.tear_from(h, len) {
            self.write_borrowed(h, half(len / 2).as_ref())?;
            return self.torn(ops::WRITE, h, start);
        }
        let cost = whole(self)?;
        Ok(self.spike(ops::WRITE, cost))
    }

    fn write_borrowed(&mut self, h: FileHandle, data: &[u8]) -> StorageResult<Cost<usize>> {
        self.write_with(h, data.len(), |store, path, at| {
            store.write_at(path, at, data)
        })
    }

    /// An observed native write of `len` bytes through `h`: every check,
    /// the positioning, the counters and the cost, with `put` storing the
    /// bytes at `(path, cursor)`. Both write entry points are this body, so
    /// they cannot drift apart.
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
        Ok(self.span(ops::WRITE, Cost::new(t, len), n))
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

impl<M: CostModel + ?Sized> Device<M> {
    /// Unique resource name, e.g. `"anl-local"`, `"sdsc-disk"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resource's kind.
    pub fn kind(&self) -> StorageKind {
        self.model.kind()
    }

    /// Whether the resource is currently usable.
    pub fn is_online(&self) -> bool {
        self.online && !self.faults.as_ref().is_some_and(Faults::flapped_down)
    }

    /// Inject or clear an outage.
    pub fn set_online(&mut self, up: bool) {
        self.online = up;
    }

    /// Total capacity in bytes (`u64::MAX` means effectively unlimited).
    pub fn capacity_bytes(&self) -> u64 {
        self.model.capacity()
    }

    /// Administratively resize the resource (quota change). Resources with
    /// effectively unlimited capacity (tape) ignore this.
    pub fn set_capacity(&mut self, bytes: u64) {
        self.model.set_capacity(bytes);
    }

    /// Bytes currently stored (physical occupancy — what capacity checks
    /// and migration pressure see).
    pub fn used_bytes(&self) -> u64 {
        self.store.used_bytes()
    }

    /// Logical bytes currently stored: the application-visible dump bytes
    /// before dedup and compression. Equal to [`used_bytes`] for files
    /// stored raw; diverges when the chunk plane declares overrides via
    /// [`set_logical_size`].
    ///
    /// [`used_bytes`]: Device::used_bytes
    /// [`set_logical_size`]: Device::set_logical_size
    pub fn logical_bytes(&self) -> u64 {
        self.store.logical_bytes()
    }

    /// Declare that `path` logically represents `bytes` of application
    /// data regardless of its stored length (the chunk plane marks a
    /// manifest with the dump's payload size and shared `cas/` packs
    /// with 0).
    pub fn set_logical_size(&mut self, path: &str, bytes: u64) {
        self.store.set_logical(path, bytes);
    }

    /// Bytes still available.
    pub fn available_bytes(&self) -> u64 {
        self.capacity_bytes().saturating_sub(self.used_bytes())
    }

    /// Switch the seeded transient-fault stage on (replacing any earlier
    /// plan; handles already open keep their cursors). Its draws come from
    /// `seed` and the resource name, its records are stamped with `clock`.
    /// Returns the shared fault log for reconciliation.
    pub fn inject_faults(&mut self, plan: FaultPlan, clock: Clock, seed: u64) -> FaultLog {
        let (stage, log) = Faults::new(plan, clock, seed, &self.name);
        self.faults = Some(stage);
        log
    }

    /// Establish the client connection (no-op with zero cost for local
    /// resources, SRB session setup for remote ones). Idempotent: a second
    /// connect on a live connection is free.
    pub fn connect(&mut self) -> StorageResult<Cost<()>> {
        self.check_online()?;
        // No link: a local filesystem has no connection phase. No setup:
        // an idempotent reconnect.
        let setup = match self.model.link_mut() {
            Some(link) => link.connect()?,
            None => None,
        };
        let t = match setup {
            Some(setup) => {
                self.stats.connects += 1;
                self.jittered(setup)
            }
            None => SimDuration::ZERO,
        };
        Ok(self.span(ops::CONN, Cost::new(t, ()), 0))
    }

    /// Tear down the client connection.
    pub fn disconnect(&mut self) -> StorageResult<Cost<()>> {
        let teardown = self.model.link_mut().map(SrbLink::disconnect);
        let cost = Cost::new(teardown.unwrap_or(SimDuration::ZERO), ());
        Ok(self.span(ops::CONNCLOSE, cost, 0))
    }

    /// Open a file.
    pub fn open(&mut self, path: &str, mode: OpenMode) -> StorageResult<Cost<FileHandle>> {
        self.gate(ops::OPEN)?;
        self.check_online()?;
        self.check_live()?;
        // A file on a vaulted volume is off-site for every mode — even a
        // truncating create would need the volume back.
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
        let cost = self.span(ops::OPEN, Cost::new(t, h), 0);
        Ok(self.spike(ops::OPEN, cost))
    }

    /// Position the handle's cursor.
    pub fn seek(&mut self, h: FileHandle, pos: u64) -> StorageResult<Cost<()>> {
        self.gate(ops::SEEK)?;
        let cost = self.seek_to(h, pos)?;
        Ok(self.spike(ops::SEEK, cost))
    }

    /// Read up to `len` bytes at the cursor, advancing it.
    pub fn read(&mut self, h: FileHandle, len: usize) -> StorageResult<Cost<Bytes>> {
        Ok(self.read_shared(h, len)?.map(Payload::into_bytes))
    }

    /// [`read`](Device::read) for a caller that can take the file
    /// as it is kept: same checks, same cost, same counters. A read of a
    /// whole-object file's whole length returns the object — its bytes, or
    /// the recipe they are generated from — and any other read returns the
    /// bytes [`read`](Device::read) would.
    pub fn read_shared(&mut self, h: FileHandle, len: usize) -> StorageResult<Cost<Payload>> {
        self.gate(ops::READ)?;
        if let Some(start) = self.tear_from(h, len) {
            // Transfer half, discard it, and put the cursor back: the
            // caller sees a clean transient failure it can retry in full.
            self.read_at_cursor(h, len / 2)?;
            return self.torn(ops::READ, h, start);
        }
        let cost = self.read_at_cursor(h, len)?;
        Ok(self.spike(ops::READ, cost))
    }

    /// Write bytes at the cursor, advancing it.
    pub fn write(&mut self, h: FileHandle, data: &[u8]) -> StorageResult<Cost<usize>> {
        let half = |n| &data[..n];
        self.write_staged(h, data.len(), half, |d| d.write_borrowed(h, data))
    }

    /// [`write`](Device::write) for a caller that can give the
    /// payload away: same checks, same cost, same counters, same bytes on
    /// the resource — but a resource that keeps its data in memory may keep
    /// `data` itself, held bytes or recipe, instead of a copy of its bytes.
    /// Hand over exact-size buffers; whatever the allocation holds beyond
    /// `data` lives as long as the file does.
    pub fn write_shared(&mut self, h: FileHandle, data: Payload) -> StorageResult<Cost<usize>> {
        let view = data.clone();
        self.write_staged(
            h,
            data.len(),
            |n| view.range(0, n),
            |d| {
                d.write_with(h, data.len(), |store, path, at| {
                    store.write_shared_at(path, at, data)
                })
            },
        )
    }

    /// Close a handle.
    pub fn close(&mut self, h: FileHandle) -> StorageResult<Cost<()>> {
        self.gate(ops::CLOSE)?;
        let f = self.handles.remove(h)?;
        self.stats.closes += 1;
        let t = self.jittered(self.model.file_costs(f.mode.op()).close);
        let cost = self.span(ops::CLOSE, Cost::new(t, ()), 0);
        Ok(self.spike(ops::CLOSE, cost))
    }

    /// Delete a file by path.
    pub fn delete(&mut self, path: &str) -> StorageResult<Cost<()>> {
        self.check_present(path)?;
        // Pruning a vaulted dump needs no recall, and its volume stays on
        // the shelf with whatever else it holds.
        self.store.delete(path);
        Ok(self.span(ops::DELETE, Cost::new(self.model.delete_cost(), ()), 0))
    }

    /// Move the volume holding `path` ([`crate::volume_of`]) into the
    /// vault (off-site tape shelf): the bytes stay accounted but every
    /// subsequent `open` of a file on it fails with
    /// [`StorageError::Vaulted`] until [`Device::recall`] brings the
    /// volume back. The first vault of a volume pays the export;
    /// re-vaulting a shelved one is free. Only tape has a vault; the other
    /// kinds refuse with [`StorageError::VaultUnsupported`].
    pub fn vault(&mut self, path: &str) -> StorageResult<Cost<()>> {
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
        let t = if self.model.set_vaulted(path, true) {
            self.model.delete_cost()
        } else {
            SimDuration::ZERO
        };
        Ok(self.span(ops::VAULT, Cost::new(t, ()), 0))
    }

    /// Bring the vaulted volume holding `path` back on-site, paying the
    /// configured recall latency once for every file on it. A no-op with
    /// zero cost if the volume is already resident.
    pub fn recall(&mut self, path: &str) -> StorageResult<Cost<()>> {
        // The shelf robot lives behind the same faulty front door as the
        // data path: outage windows and error bursts fault recalls too.
        self.gate(ops::RECALL)?;
        let Some(latency) = self.model.recall_cost() else {
            return Err(self.vault_unsupported());
        };
        self.check_present(path)?;
        // Already resident: a free no-op.
        let t = if self.model.set_vaulted(path, false) {
            latency
        } else {
            SimDuration::ZERO
        };
        Ok(self.span(ops::RECALL, Cost::new(t, ()), 0))
    }

    /// Whether the volume holding `path` is currently in the vault.
    pub fn is_vaulted(&self, path: &str) -> bool {
        self.model.is_vaulted(path)
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.store.exists(path)
    }

    /// Size of a file, if present.
    pub fn file_size(&self, path: &str) -> Option<u64> {
        self.store.size(path)
    }

    /// Paths under a prefix.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.store.list(prefix)
    }

    /// Operation counters since construction (or [`Device::reset_stats`]).
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }

    /// Zero the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = ResourceStats::default();
    }

    /// Declare that the next data-path calls will contend with `streams`
    /// same-sized concurrent native calls (the run-time layer sets this to
    /// the process count for uncoordinated strategies, and back to 1 for
    /// aggregated ones). Affects "actual" read/write costs only.
    pub fn set_stream_hint(&mut self, streams: u32) {
        self.stream_hint = streams.max(1);
    }

    /// The current contention hint.
    pub fn stream_hint(&self) -> u32 {
        self.stream_hint
    }

    /// Deterministic fixed cost components for the predictor (Table 1 row).
    pub fn fixed_costs(&self, op: OpKind) -> FixedCosts {
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

    /// Deterministic transfer-time model `T_read/write(s)` for one native
    /// call of `bytes` with `streams` parallel client streams.
    pub fn transfer_model(&self, op: OpKind, bytes: u64, streams: u32) -> SimDuration {
        self.model.transfer_model(op, bytes, streams)
    }

    /// Whether `path`'s volume is on a drive now, so that opening it pays
    /// no mount. Always true on random-access media. A query: no call, no
    /// noise drawn, nothing allocated.
    pub fn mounted(&self, path: &str) -> bool {
        self.model.mounted(path)
    }

    /// Physical mounts this device has performed (0 on disks).
    pub fn mounts(&self) -> usize {
        self.model.mounts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_disk::{DiskParams, LocalDisk};
    use msr_obs::Registry;

    fn observed() -> (Registry, LocalDisk, Clock) {
        let reg = Registry::new();
        let clock = Clock::new();
        let disk = LocalDisk::new("d", DiskParams::simple(100.0, 1 << 30), 0)
            .observed(reg.recorder(), clock.clone());
        (reg, disk, clock)
    }

    #[test]
    fn every_native_call_emits_a_span() {
        let (reg, mut r, clock) = observed();
        r.connect().unwrap();
        let h = r.open("f", OpenMode::Create).unwrap().value;
        r.seek(h, 0).unwrap();
        r.write(h, &[7u8; 512]).unwrap();
        r.close(h).unwrap();
        clock.advance(SimDuration::from_secs(1.0));
        let h = r.open("f", OpenMode::Read).unwrap().value;
        r.read(h, 512).unwrap();
        r.close(h).unwrap();
        r.disconnect().unwrap();

        let events = reg.events();
        let ops_seen: Vec<&str> = events.iter().map(|e| e.op.as_str()).collect();
        assert_eq!(
            ops_seen,
            vec![
                ops::CONN,
                ops::OPEN,
                ops::SEEK,
                ops::WRITE,
                ops::CLOSE,
                ops::OPEN,
                ops::READ,
                ops::CLOSE,
                ops::CONNCLOSE
            ]
        );
        let w = events.iter().find(|e| e.op == ops::WRITE).unwrap();
        assert_eq!(w.bytes, 512);
        assert_eq!(w.resource, "d");
        let rd = events.iter().find(|e| e.op == ops::READ).unwrap();
        assert_eq!(rd.bytes, 512);
        assert_eq!(rd.at.as_secs(), 1.0, "stamped with the shared clock");
    }

    #[test]
    fn failed_calls_emit_nothing() {
        let (reg, mut r, _clock) = observed();
        assert!(r.open("missing", OpenMode::Read).is_err());
        assert!(reg.events().is_empty());
    }

    #[test]
    fn observing_preserves_behaviour() {
        let (_reg, mut r, _clock) = observed();
        assert_eq!(r.name(), "d");
        assert_eq!(r.kind(), StorageKind::LocalDisk);
        assert!(r.is_online());
        let h = r.open("x", OpenMode::Create).unwrap().value;
        r.write(h, b"abc").unwrap();
        r.close(h).unwrap();
        assert!(r.exists("x"));
        assert_eq!(r.file_size("x"), Some(3));
        assert_eq!(r.stats().writes, 1);
    }
}
