//! The shared event registry: per-recorder buffers drain here, exporters
//! read from here.

use crate::event::Event;
use crate::metrics::MetricsSnapshot;
use crate::packed::{Interner, Log};
use crate::recorder::Recorder;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default bound on retained events: 48 MB of packed records at the bound,
/// plus the details of its instants. Older events are kept, new ones
/// dropped and counted once the bound is hit.
pub const DEFAULT_CAPACITY: usize = 1_000_000;

#[derive(Debug, Default)]
pub(crate) struct Inner {
    #[cfg_attr(not(feature = "record"), allow(dead_code))]
    pub(crate) seq: AtomicU64,
    pub(crate) log: Mutex<Log>,
    pub(crate) names: Mutex<Interner>,
    pub(crate) shards: Mutex<Vec<std::sync::Weak<Mutex<crate::recorder::Shard>>>>,
    pub(crate) capacity: usize,
    pub(crate) dropped: AtomicU64,
}

impl Inner {
    /// Accept a recorder's pending batch, oldest first, up to the capacity
    /// bound; what does not fit is dropped, details included, and counted.
    pub(crate) fn ingest(&self, batch: &mut Log) {
        let mut log = self.log.lock();
        let room = self.capacity.saturating_sub(log.events.len());
        let (kept, lost) = batch.events.split_at(batch.events.len().min(room));
        if !lost.is_empty() {
            self.dropped.fetch_add(lost.len() as u64, Ordering::Relaxed);
            batch
                .details
                .retain(|(seq, _)| lost.iter().all(|p| p.seq != *seq));
        }
        log.events.extend_from_slice(kept);
        log.details.append(&mut batch.details);
        batch.events.clear();
    }

    /// Flush every recorder, then run `read` over the store in order of
    /// record with the names its ids stand for.
    fn read<T>(&self, read: impl FnOnce(&Log, &Interner) -> T) -> T {
        crate::recorder::flush_all(self);
        let mut log = self.log.lock();
        log.sort();
        read(&log, &self.names.lock())
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
    /// A registry with the default capacity bound.
    pub fn new() -> Registry {
        Registry::with_capacity(DEFAULT_CAPACITY)
    }

    /// A registry retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Registry {
        Registry {
            inner: Arc::new(Inner {
                capacity,
                ..Inner::default()
            }),
        }
    }

    /// A new recorder feeding this registry. Each recorder owns its own
    /// buffer, so concurrent emitters contend only on batch flush.
    pub fn recorder(&self) -> Recorder {
        Recorder::attached(&self.inner)
    }

    /// All recorded events in emission order. Flushes every live recorder
    /// buffer first, then builds one owned [`Event`] per stored record.
    pub fn events(&self) -> Vec<Event> {
        self.inner.read(Log::materialise)
    }

    /// Number of events dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Discard everything recorded so far, the drop count with it (the
    /// sequence counter keeps increasing, so later events still sort after
    /// earlier ones).
    pub fn clear(&self) {
        crate::recorder::flush_all(&self.inner);
        self.inner.log.lock().clear();
        self.inner.dropped.store(0, Ordering::Relaxed);
    }

    /// Aggregate the event stream into per-(layer, resource, op) metrics,
    /// straight from the stored records.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // The flush inside `read` can drop: count after it.
        self.inner
            .read(|log, names| MetricsSnapshot::fold(&log.events, names, self.dropped()))
    }
}
