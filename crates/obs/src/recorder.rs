//! The emitting side: a cheap handle with its own buffer, batching into
//! the shared registry so hot paths touch the global store only once per
//! [`FLUSH_BATCH`] events.

use crate::event::{EventKind, Layer};
use crate::packed::{Interner, Log, Packed};
use crate::registry::Inner;
use msr_sim::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Events buffered per recorder before a flush into the registry.
pub const FLUSH_BATCH: usize = 64;

/// Names a [`KeyCache`] remembers; the next new one replaces the oldest.
const KEY_CACHE: usize = 8;

/// The ids of the names one recorder used most recently, so a repeated key
/// costs a few string compares: no registry lock, no hash. Names are
/// compared by content, never by address.
#[derive(Debug, Default)]
struct KeyCache {
    slots: Vec<(Arc<str>, u32)>,
    oldest: usize,
}

impl KeyCache {
    fn id(&mut self, name: &str, names: &Mutex<Interner>) -> u32 {
        if let Some((_, id)) = self.slots.iter().find(|(known, _)| **known == *name) {
            return *id;
        }
        let slot = names.lock().intern(name);
        let id = slot.1;
        if self.slots.len() < KEY_CACHE {
            self.slots.push(slot);
        } else {
            self.slots[self.oldest] = slot;
            self.oldest = (self.oldest + 1) % KEY_CACHE;
        }
        id
    }
}

/// One recorder's private state (the "per-session buffer" of the design):
/// the batch not yet flushed and the key caches for its two name fields.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pending: Log,
    resources: KeyCache,
    ops: KeyCache,
}

/// Drain every live recorder buffer into the registry store.
#[cfg(feature = "record")]
pub(crate) fn flush_all(reg: &Inner) {
    let mut shards = reg.shards.lock();
    shards.retain(|weak| match weak.upgrade() {
        Some(shard) => {
            reg.ingest(&mut shard.lock().pending);
            true
        }
        None => false,
    });
}

/// A handle components record through. Clones share one buffer; a
/// disconnected recorder ([`Recorder::disabled`]) ignores every call, and
/// with the `record` feature off *all* recorders compile to no-ops.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    #[cfg(feature = "record")]
    inner: Option<(Arc<Mutex<Shard>>, Arc<Inner>)>,
}

impl Recorder {
    /// A recorder that drops everything (the default for un-wired
    /// components).
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    #[cfg(feature = "record")]
    pub(crate) fn attached(reg: &Arc<Inner>) -> Recorder {
        let shard = Arc::new(Mutex::new(Shard::default()));
        let mut shards = reg.shards.lock();
        // Before the list would grow, forget the recorders dropped since
        // it last did: amortised O(1) per attach.
        if shards.len() == shards.capacity() {
            shards.retain(|weak| weak.strong_count() > 0);
        }
        shards.push(Arc::downgrade(&shard));
        Recorder {
            inner: Some((shard, Arc::clone(reg))),
        }
    }

    #[cfg(not(feature = "record"))]
    pub(crate) fn attached(_reg: &Arc<Inner>) -> Recorder {
        Recorder::default()
    }

    /// Whether events recorded here can reach a registry.
    #[inline]
    pub fn enabled(&self) -> bool {
        #[cfg(feature = "record")]
        {
            self.inner.is_some()
        }
        #[cfg(not(feature = "record"))]
        {
            false
        }
    }

    /// Store `e` under the next sequence number, with `resource` and `op`
    /// resolved to ids. No heap allocation unless `detail` is non-empty or
    /// a buffer grows.
    #[cfg(feature = "record")]
    fn emit(&self, mut e: Packed, resource: &str, op: &str, detail: &str) {
        if let Some((shard, reg)) = &self.inner {
            let mut guard = shard.lock();
            let shard = &mut *guard;
            e.resource = shard.resources.id(resource, &reg.names);
            e.op = shard.ops.id(op, &reg.names);
            e.seq = reg.seq.fetch_add(1, Ordering::Relaxed);
            shard.pending.push(e, detail);
            if shard.pending.events.len() >= FLUSH_BATCH {
                reg.ingest(&mut shard.pending);
            }
        }
    }

    /// Record an operation that took `dur` starting at `at`; `bytes` is the
    /// payload volume for transfer-shaped ops (0 otherwise).
    #[inline]
    pub fn span(
        &self,
        layer: Layer,
        resource: &str,
        op: &str,
        at: SimTime,
        dur: SimDuration,
        bytes: u64,
    ) {
        #[cfg(feature = "record")]
        self.emit(
            Packed::new(EventKind::Span, layer, at, dur, bytes),
            resource,
            op,
            "",
        );
        #[cfg(not(feature = "record"))]
        {
            let _ = (layer, resource, op, at, dur, bytes);
        }
    }

    /// Record a point-in-time marker with free-form context.
    #[inline]
    pub fn instant(&self, layer: Layer, resource: &str, op: &str, at: SimTime, detail: &str) {
        #[cfg(feature = "record")]
        self.emit(
            Packed::new(EventKind::Instant, layer, at, SimDuration::ZERO, 0),
            resource,
            op,
            detail,
        );
        #[cfg(not(feature = "record"))]
        {
            let _ = (layer, resource, op, at, detail);
        }
    }

    /// Record a numeric sample: a counter increment or gauge level (e.g.
    /// queue depth at `at`).
    #[inline]
    pub fn count(&self, layer: Layer, resource: &str, op: &str, at: SimTime, value: f64) {
        #[cfg(feature = "record")]
        self.emit(
            Packed::new(
                EventKind::Count,
                layer,
                at,
                SimDuration::ZERO,
                value.to_bits(),
            ),
            resource,
            op,
            "",
        );
        #[cfg(not(feature = "record"))]
        {
            let _ = (layer, resource, op, at, value);
        }
    }
}

#[cfg(feature = "record")]
impl Drop for Recorder {
    fn drop(&mut self) {
        if let Some((shard, reg)) = &self.inner {
            // Last handle to this buffer: push the tail into the registry.
            if Arc::strong_count(shard) == 1 {
                reg.ingest(&mut shard.lock().pending);
            }
        }
    }
}
