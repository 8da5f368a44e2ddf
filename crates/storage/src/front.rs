//! The one interposition point in front of a storage device.
//!
//! A [`Front`] owns its device and carries two optional stages in a
//! fixed order:
//!
//! ```text
//! caller → faults → observe → device
//! ```
//!
//! * **observe** emits one `msr-obs` span per native call that reached the
//!   device and succeeded — the exact eq. (1) components (`conn`, `open`,
//!   `seek`, `read`, `write`, `close`, `connclose`) with the call's
//!   jittered "actual" duration and payload size. It is what the paper's
//!   PTool observes "in the background". Spans are stamped with the
//!   simulation clock *as of call entry*: the run-time engine charges
//!   per-process time on its own [`msr_sim::Timeline`] and the session
//!   advances the global clock once per operation, so all native calls of
//!   one dump share a timestamp while durations stay exact.
//! * **faults** ([`crate::fault`]) gates, tears and spikes data-path calls.
//!   Sitting above observe, a torn transfer's half call and cursor restore
//!   show up as spans, and a spike does not distort what PTool learns.
//!
//! Every info method forwards to the device exactly once, here, so a front
//! is transparent. Stages are configured in place: handles to the shared
//! resource stay valid when faults are switched on.

use crate::fault::{FaultKind, FaultLog, FaultPlan, Faults};
use crate::resource::{
    Cost, FileHandle, FixedCosts, OpKind, OpenMode, ResourceStats, StorageKind, StorageResource,
};
use crate::StorageResult;
use bytes::Bytes;
use msr_obs::{ops, Layer, Recorder};
use msr_sim::{Clock, SimDuration};

/// A storage device behind its optional fault and observe stages.
pub struct Front {
    device: Box<dyn StorageResource>,
    observe: Option<(Recorder, Clock)>,
    faults: Option<Faults>,
}

impl Front {
    /// Front `device` with every stage off: a transparent pass-through.
    pub fn new(device: impl StorageResource + 'static) -> Self {
        Front {
            device: Box::new(device),
            observe: None,
            faults: None,
        }
    }

    /// Switch the observe stage on: emit events through `recorder`
    /// stamped with `clock`'s current virtual time.
    pub fn observed(mut self, recorder: Recorder, clock: Clock) -> Self {
        self.observe = Some((recorder, clock));
        self
    }

    /// Switch the fault stage on (replacing any earlier plan). Returns the
    /// shared fault log for reconciliation.
    pub fn inject_faults(&mut self, plan: FaultPlan, clock: Clock, seed: u64) -> FaultLog {
        let (stage, log) = Faults::new(plan, clock, seed, self.device.name());
        self.faults = Some(stage);
        log
    }

    /// The single place a native call reaches the device: run it and, on
    /// success, let the observe stage record it.
    fn call<T>(
        &mut self,
        op: &str,
        f: impl FnOnce(&mut dyn StorageResource) -> StorageResult<Cost<T>>,
        bytes: impl FnOnce(&T) -> u64,
    ) -> StorageResult<Cost<T>> {
        let cost = f(self.device.as_mut())?;
        // With the recorder disabled (or `msr-obs` built without the
        // `record` feature) this guard is a constant and the body — clock
        // read included — drops out of the hot path.
        if let Some((recorder, clock)) = &self.observe {
            if recorder.enabled() {
                recorder.span(
                    Layer::Storage,
                    self.device.name(),
                    op,
                    clock.now(),
                    cost.time,
                    bytes(&cost.value),
                );
            }
        }
        Ok(cost)
    }

    // --- fault stage helpers: all pass through when the stage is off ---

    fn gate(&mut self, op: &'static str) -> StorageResult<()> {
        match &mut self.faults {
            Some(f) => f.gate(self.device.name(), op),
            None => Ok(()),
        }
    }

    fn spike<T>(&mut self, op: &'static str, cost: Cost<T>) -> Cost<T> {
        match &mut self.faults {
            Some(f) => f.spike(self.device.name(), op, cost),
            None => cost,
        }
    }

    /// If the fault stage decides to tear this transfer, where the handle's
    /// cursor must be put back afterwards.
    fn tear_from(&mut self, h: FileHandle, len: usize) -> Option<u64> {
        let f = self.faults.as_mut()?;
        (len > 1 && f.should_tear()).then(|| f.cursors.get(&h.raw()).copied().unwrap_or(0))
    }

    /// Finish a torn transfer: the half call already ran; seek the device
    /// back to `start` and fail. If the restore itself fails, surface
    /// *that* error — better a loud failure than a handle silently left
    /// mid-file.
    fn torn<T>(&mut self, op: &'static str, h: FileHandle, start: u64) -> StorageResult<T> {
        self.call(ops::SEEK, |d| d.seek(h, start), |_| 0)?;
        let f = self.faults.as_ref().expect("only the fault stage tears");
        Err(f.inject(self.device.name(), op, FaultKind::Torn))
    }

    fn advance_shadow(&mut self, h: FileHandle, by: u64) {
        if let Some(c) = self
            .faults
            .as_mut()
            .and_then(|f| f.cursors.get_mut(&h.raw()))
        {
            *c += by;
        }
    }

    /// A write of `data` through every stage, with `whole` making the
    /// device call that moves all of it. A torn write moves its first half
    /// through the borrowed `write`, whichever entry point was called.
    fn write_with(
        &mut self,
        h: FileHandle,
        data: &[u8],
        whole: impl FnOnce(&mut dyn StorageResource) -> StorageResult<Cost<usize>>,
    ) -> StorageResult<Cost<usize>> {
        self.gate("write")?;
        if let Some(start) = self.tear_from(h, data.len()) {
            self.call(
                ops::WRITE,
                |d| d.write(h, &data[..data.len() / 2]),
                |n| *n as u64,
            )?;
            return self.torn("write", h, start);
        }
        let cost = self.call(ops::WRITE, whole, |n| *n as u64)?;
        self.advance_shadow(h, cost.value as u64);
        Ok(self.spike("write", cost))
    }
}

impl StorageResource for Front {
    fn name(&self) -> &str {
        self.device.name()
    }

    fn kind(&self) -> StorageKind {
        self.device.kind()
    }

    fn is_online(&self) -> bool {
        self.device.is_online() && !self.faults.as_ref().is_some_and(Faults::flapped_down)
    }

    fn set_online(&mut self, up: bool) {
        self.device.set_online(up);
    }

    fn capacity_bytes(&self) -> u64 {
        self.device.capacity_bytes()
    }

    fn used_bytes(&self) -> u64 {
        self.device.used_bytes()
    }

    fn logical_bytes(&self) -> u64 {
        self.device.logical_bytes()
    }

    fn set_logical_size(&mut self, path: &str, bytes: u64) {
        self.device.set_logical_size(path, bytes);
    }

    fn set_capacity(&mut self, bytes: u64) {
        self.device.set_capacity(bytes);
    }

    fn connect(&mut self) -> StorageResult<Cost<()>> {
        self.call(ops::CONN, |d| d.connect(), |_| 0)
    }

    fn disconnect(&mut self) -> StorageResult<Cost<()>> {
        self.call(ops::CONNCLOSE, |d| d.disconnect(), |_| 0)
    }

    fn open(&mut self, path: &str, mode: OpenMode) -> StorageResult<Cost<FileHandle>> {
        self.gate("open")?;
        let cost = self.call(ops::OPEN, |d| d.open(path, mode), |_| 0)?;
        if let Some(f) = &mut self.faults {
            let cursor = match mode {
                OpenMode::Append => self.device.file_size(path).unwrap_or(0),
                _ => 0,
            };
            f.cursors.insert(cost.value.raw(), cursor);
        }
        Ok(self.spike("open", cost))
    }

    fn seek(&mut self, h: FileHandle, pos: u64) -> StorageResult<Cost<()>> {
        self.gate("seek")?;
        let cost = self.call(ops::SEEK, |d| d.seek(h, pos), |_| 0)?;
        if let Some(f) = &mut self.faults {
            f.cursors.insert(h.raw(), pos);
        }
        Ok(self.spike("seek", cost))
    }

    fn read(&mut self, h: FileHandle, len: usize) -> StorageResult<Cost<Bytes>> {
        self.gate("read")?;
        if let Some(start) = self.tear_from(h, len) {
            // Transfer half, discard it, and put the cursor back: the
            // caller sees a clean transient failure it can retry in full.
            self.call(ops::READ, |d| d.read(h, len / 2), |b| b.len() as u64)?;
            return self.torn("read", h, start);
        }
        let cost = self.call(ops::READ, |d| d.read(h, len), |b| b.len() as u64)?;
        self.advance_shadow(h, cost.value.len() as u64);
        Ok(self.spike("read", cost))
    }

    fn write(&mut self, h: FileHandle, data: &[u8]) -> StorageResult<Cost<usize>> {
        self.write_with(h, data, |d| d.write(h, data))
    }

    fn write_shared(&mut self, h: FileHandle, data: Bytes) -> StorageResult<Cost<usize>> {
        let view = data.clone();
        self.write_with(h, &view, |d| d.write_shared(h, data))
    }

    fn close(&mut self, h: FileHandle) -> StorageResult<Cost<()>> {
        self.gate("close")?;
        let cost = self.call(ops::CLOSE, |d| d.close(h), |_| 0)?;
        if let Some(f) = &mut self.faults {
            f.cursors.remove(&h.raw());
        }
        Ok(self.spike("close", cost))
    }

    fn delete(&mut self, path: &str) -> StorageResult<Cost<()>> {
        self.call(ops::DELETE, |d| d.delete(path), |_| 0)
    }

    fn vault(&mut self, path: &str) -> StorageResult<Cost<()>> {
        self.call(ops::VAULT, |d| d.vault(path), |_| 0)
    }

    fn recall(&mut self, path: &str) -> StorageResult<Cost<()>> {
        // The shelf robot lives behind the same faulty front door as the
        // data path: outage windows and error bursts fault recalls too.
        self.gate("recall")?;
        self.call(ops::RECALL, |d| d.recall(path), |_| 0)
    }

    fn is_vaulted(&self, path: &str) -> bool {
        self.device.is_vaulted(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.device.exists(path)
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        self.device.file_size(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.device.list(prefix)
    }

    fn stats(&self) -> ResourceStats {
        self.device.stats()
    }

    fn reset_stats(&mut self) {
        self.device.reset_stats();
    }

    fn set_stream_hint(&mut self, streams: u32) {
        self.device.set_stream_hint(streams);
    }

    fn stream_hint(&self) -> u32 {
        self.device.stream_hint()
    }

    fn fixed_costs(&self, op: OpKind) -> FixedCosts {
        self.device.fixed_costs(op)
    }

    fn transfer_model(&self, op: OpKind, bytes: u64, streams: u32) -> SimDuration {
        self.device.transfer_model(op, bytes, streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_disk::{DiskParams, LocalDisk};
    use msr_obs::Registry;

    fn observed() -> (Registry, Front, Clock) {
        let reg = Registry::new();
        let clock = Clock::new();
        let disk = LocalDisk::new("d", DiskParams::simple(100.0, 1 << 30), 0);
        let obs = Front::new(disk).observed(reg.recorder(), clock.clone());
        (reg, obs, clock)
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
    fn delegation_preserves_behaviour() {
        let (_reg, mut r, _clock) = observed();
        assert_eq!(r.name(), "d");
        assert_eq!(r.kind(), crate::resource::StorageKind::LocalDisk);
        assert!(r.is_online());
        let h = r.open("x", OpenMode::Create).unwrap().value;
        r.write(h, b"abc").unwrap();
        r.close(h).unwrap();
        assert!(r.exists("x"));
        assert_eq!(r.file_size("x"), Some(3));
        assert_eq!(r.stats().writes, 1);
    }
}
