//! The shared event registry: every recorder's events land here, one at a
//! time under one lock, folded into the metrics rows and kept as a bounded
//! window of raw events; exporters read from here.

use crate::event::Event;
use crate::metrics::{Fold, MetricsSnapshot};
use crate::packed::{Interner, Log, Packed};
use crate::recorder::Recorder;
use parking_lot::Mutex;
use std::sync::Arc;

/// Default bound on the raw-event window (768 KiB of records plus their
/// details): twice the longest stream an in-repo [`Registry::events`]
/// reader takes. Past it the oldest events leave the window, counted by
/// [`Registry::evicted`]; the metrics count every event either way.
pub const DEFAULT_CAPACITY: usize = 1 << 14;

/// Everything one registry keeps. With recording compiled out nothing
/// reaches it, so it stays empty.
#[derive(Debug, Default)]
struct Store {
    /// The next event's sequence number; [`Registry::clear`] keeps it.
    seq: u64,
    names: Interner,
    window: Log,
    rows: Fold,
    capacity: usize,
}

impl Store {
    fn evicted(&self) -> u64 {
        self.rows.events - self.window.len() as u64
    }
}

#[derive(Debug)]
pub(crate) struct Inner {
    store: Mutex<Store>,
}

impl Inner {
    /// Record `p` under the next sequence number, with `resource` and `op`
    /// resolved to ids: fold it into the rows and push it onto the window.
    /// No heap allocation unless `detail` is non-empty, a name is new or a
    /// table grows.
    #[cfg(feature = "record")]
    pub(crate) fn record(&self, mut p: Packed, resource: &str, op: &str, detail: &str) {
        let store = &mut *self.store.lock();
        p.seq = store.seq;
        store.seq += 1;
        p.resource = store.names.intern(resource);
        p.op = store.names.intern(op);
        store.rows.add(&p, &store.names);
        store.window.push(p, detail, store.capacity);
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

    /// A registry whose raw-event window keeps at most the `capacity`
    /// newest events. Metrics are exact at any bound.
    pub fn with_capacity(capacity: usize) -> Registry {
        let store = Store {
            capacity,
            ..Store::default()
        };
        Registry {
            inner: Arc::new(Inner {
                store: Mutex::new(store),
            }),
        }
    }

    /// A new recorder feeding this registry: a handle, holding no state of
    /// its own.
    pub fn recorder(&self) -> Recorder {
        Recorder::attached(&self.inner)
    }

    /// The events still in the window, in `seq` order: one owned
    /// [`Event`] built per stored record.
    pub fn events(&self) -> Vec<Event> {
        let store = self.inner.store.lock();
        store.window.materialise(&store.names)
    }

    /// Always 0: no event is lost to the metrics. Raw events that left
    /// the window are [`Registry::evicted`].
    pub fn dropped(&self) -> u64 {
        0
    }

    /// Events recorded since the last clear that have left the window.
    pub fn evicted(&self) -> u64 {
        self.inner.store.lock().evicted()
    }

    /// Discard everything recorded so far, the rows and the eviction count
    /// with it (the sequence counter keeps increasing, so later events
    /// still sort after earlier ones).
    pub fn clear(&self) {
        let store = &mut *self.inner.store.lock();
        (store.window, store.rows) = (Log::default(), Fold::default());
    }

    /// The per-(layer, resource, op) metrics of every event recorded since
    /// the last clear, read from the rows folded as each arrived.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let store = self.inner.store.lock();
        store.rows.snapshot(&store.names, store.evicted())
    }
}
