//! The shared event registry: per-recorder buffers drain here, folded into
//! the metrics rows as they arrive and kept as a bounded window of raw
//! events; exporters read from here.

use crate::event::Event;
use crate::metrics::{Fold, MetricsSnapshot};
use crate::packed::{Interner, Log};
use crate::recorder::{Recorder, Shard};
use parking_lot::Mutex;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Weak};

/// Default bound on the raw-event window (768 KiB of records plus their
/// details): twice the longest stream an in-repo [`Registry::events`]
/// reader takes. Past it the oldest events leave the window, counted by
/// [`Registry::evicted`]; the metrics count every event either way.
pub const DEFAULT_CAPACITY: usize = 1 << 14;

/// What the registry keeps of the events ingested since the last clear.
#[derive(Debug, Default)]
struct Store {
    window: Log,
    rows: Fold,
    capacity: usize,
}

impl Store {
    fn evicted(&self) -> u64 {
        self.rows.events - self.window.events.len() as u64
    }
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) seq: AtomicU64,
    pub(crate) names: Mutex<Interner>,
    /// Every attached recorder's buffer; dropped ones are pruned before
    /// the list would grow, and by every flush.
    pub(crate) shards: Mutex<Vec<Weak<Mutex<Shard>>>>,
    #[cfg(feature = "record")]
    store: Mutex<Store>,
}

impl Inner {
    /// Fold a recorder's pending batch into the rows, then move it into
    /// the window.
    #[cfg(feature = "record")]
    pub(crate) fn ingest(&self, batch: &mut Log) {
        let mut store = self.store.lock();
        let names = self.names.lock();
        for p in &batch.events {
            store.rows.add(p, &names);
        }
        let capacity = store.capacity;
        store.window.append(batch, capacity);
    }

    /// Flush every recorder, then run `read` over the store with the names
    /// its ids stand for (nothing to read with recording compiled out).
    fn read<T: Default>(&self, read: impl FnOnce(&mut Store, &Interner) -> T) -> T {
        #[cfg(feature = "record")]
        return {
            crate::recorder::flush_all(self);
            read(&mut self.store.lock(), &self.names.lock())
        };
        #[cfg(not(feature = "record"))]
        T::default()
    }
}

/// Shared sink for all [`Recorder`]s of one system. Cloning is cheap and
/// yields a handle to the same underlying store.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry with the default window bound.
    pub fn new() -> Registry {
        Registry::with_capacity(DEFAULT_CAPACITY)
    }

    /// A registry whose raw-event window keeps at most the `capacity` most
    /// recently ingested events. Metrics are exact at any bound.
    pub fn with_capacity(capacity: usize) -> Registry {
        let inner = Inner::default();
        #[cfg(feature = "record")]
        {
            inner.store.lock().capacity = capacity;
        }
        Registry {
            inner: Arc::new(inner),
        }
    }

    /// A new recorder feeding this registry. Each recorder owns its own
    /// buffer, so concurrent emitters contend only on batch flush.
    pub fn recorder(&self) -> Recorder {
        Recorder::attached(&self.inner)
    }

    /// The events still in the window, in emission order. Flushes every
    /// live recorder buffer first, then builds one owned [`Event`] per
    /// stored record.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .read(|store, names| store.window.materialise(names))
    }

    /// Always 0: no event is lost to the metrics. Raw events that left
    /// the window are [`Registry::evicted`].
    pub fn dropped(&self) -> u64 {
        0
    }

    /// Events ingested since the last clear that have left the window,
    /// after flushing every live recorder.
    pub fn evicted(&self) -> u64 {
        self.inner.read(|store, _| store.evicted())
    }

    /// Discard everything recorded so far, the rows and the eviction count
    /// with it (the sequence counter keeps increasing, so later events
    /// still sort after earlier ones).
    pub fn clear(&self) {
        self.inner.read(|store, _| {
            (store.window, store.rows) = (Log::default(), Fold::default());
        });
    }

    /// The per-(layer, resource, op) metrics of every event ingested since
    /// the last clear, read from the rows folded at ingest.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .read(|store, names| store.rows.snapshot(names, store.evicted()))
    }
}

#[cfg(all(test, feature = "record"))]
mod tests {
    use super::*;

    #[test]
    fn dropped_recorders_do_not_pile_up() {
        let reg = Registry::new();
        let mut live = Vec::new();
        for i in 0..10_000 {
            let rec = reg.recorder();
            if i % 100 == 0 {
                live.push(rec);
            }
            let listed = reg.inner.shards.lock().len();
            assert!(
                listed <= 2 * live.len() + 8,
                "{listed} listed, {} live",
                live.len()
            );
        }
    }
}
