//! The stored form of the event stream: fixed-size [`Packed`] records whose
//! `resource` and `op` are ids into the registry's [`Interner`], with the
//! few non-empty instant details in a side table keyed by position. Nothing
//! here is public — [`Event`] is the read type, and ids never leave the
//! crate, so nothing observable depends on the order names were first seen.

use crate::event::{Event, EventKind, Layer};
use msr_sim::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One recorded event, 48 bytes, `Copy`, no heap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packed {
    pub(crate) seq: u64,
    pub(crate) at: SimTime,
    pub(crate) dur: SimDuration,
    /// `bytes` of a span, `value.to_bits()` of a count, 0 for an instant.
    pub(crate) payload: u64,
    pub(crate) resource: u32,
    pub(crate) op: u32,
    pub(crate) layer: Layer,
    pub(crate) kind: EventKind,
}

impl Packed {
    /// A record whose sequence number and name ids are still to be filled
    /// in. `payload` is read back by [`Packed::bytes`] / [`Packed::value`].
    pub(crate) fn new(
        kind: EventKind,
        layer: Layer,
        at: SimTime,
        dur: SimDuration,
        payload: u64,
    ) -> Packed {
        Packed {
            seq: 0,
            at,
            dur,
            payload,
            resource: 0,
            op: 0,
            layer,
            kind,
        }
    }

    /// Payload bytes (spans only).
    pub(crate) fn bytes(&self) -> u64 {
        match self.kind {
            EventKind::Span => self.payload,
            _ => 0,
        }
    }

    /// Sample value (counts only).
    pub(crate) fn value(&self) -> f64 {
        match self.kind {
            EventKind::Count => f64::from_bits(self.payload),
            _ => 0.0,
        }
    }
}

/// Every distinct `resource` / `op` string of one registry, stored once.
/// Ids are dense, in first-seen order, and never re-used or forgotten.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    ids: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl Interner {
    /// The id of `name` and the shared copy of it, adding it if new.
    pub(crate) fn intern(&mut self, name: &str) -> (Arc<str>, u32) {
        if let Some((shared, &id)) = self.ids.get_key_value(name) {
            return (Arc::clone(shared), id);
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct keys");
        let shared: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&shared));
        self.ids.insert(Arc::clone(&shared), id);
        (shared, id)
    }

    /// The string behind an id this interner handed out.
    pub(crate) fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// A run of packed records, oldest first, plus the details of the instants
/// among them: each recorder's pending batch, and the registry's window of
/// the most recently ingested events.
#[derive(Debug, Default)]
pub(crate) struct Log {
    pub(crate) events: VecDeque<Packed>,
    /// `(ordinal, detail)` of every instant recorded with a non-empty
    /// detail, oldest first.
    details: VecDeque<(u64, Box<str>)>,
    /// Ordinal of the front record: how many have ever left the front.
    head: u64,
}

impl Log {
    pub(crate) fn push(&mut self, p: Packed, detail: &str) {
        if !detail.is_empty() {
            let at = self.head + self.events.len() as u64;
            self.details.push_back((at, detail.into()));
        }
        self.events.push_back(p);
    }

    /// Drop the `n` oldest records, each with its detail.
    fn evict(&mut self, n: usize) {
        self.events.drain(..n);
        self.head += n as u64;
        while self.details.front().is_some_and(|d| d.0 < self.head) {
            self.details.pop_front();
        }
    }

    /// Move `batch` to the back, keeping at most `capacity` records: the
    /// oldest leave first.
    pub(crate) fn append(&mut self, batch: &mut Log, capacity: usize) {
        let room = capacity.saturating_sub(batch.events.len());
        self.evict(self.events.len().saturating_sub(room));
        batch.evict(batch.events.len().saturating_sub(capacity));
        let shift = (self.head + self.events.len() as u64).wrapping_sub(batch.head);
        let moved = batch
            .details
            .drain(..)
            .map(|(at, d)| (at.wrapping_add(shift), d));
        self.details.extend(moved);
        batch.head += batch.events.len() as u64;
        self.events.append(&mut batch.events);
    }

    /// The public form of the log, in order of record: batches from
    /// different recorders arrive interleaved.
    pub(crate) fn materialise(&self, names: &Interner) -> Vec<Event> {
        let mut details = self.details.iter().peekable();
        let mut events: Vec<Event> = (self.head..)
            .zip(&self.events)
            .map(|(at, p)| Event {
                seq: p.seq,
                at: p.at,
                dur: p.dur,
                layer: p.layer,
                resource: names.name(p.resource).to_owned(),
                op: names.name(p.op).to_owned(),
                bytes: p.bytes(),
                value: p.value(),
                detail: details
                    .next_if(|d| d.0 == at)
                    .map_or_else(String::new, |d| d.1.to_string()),
                kind: p.kind,
            })
            .collect();
        events.sort_unstable_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stored_record_is_at_most_48_bytes() {
        assert!(std::mem::size_of::<Packed>() <= 48);
    }

    #[test]
    fn interned_names_share_one_id() {
        let mut names = Interner::default();
        let (_, a) = names.intern("sdsc-disk");
        let (_, b) = names.intern("write");
        assert_eq!(names.intern("sdsc-disk").1, a);
        assert_ne!(a, b);
        assert_eq!((names.name(a), names.name(b)), ("sdsc-disk", "write"));
    }
}
