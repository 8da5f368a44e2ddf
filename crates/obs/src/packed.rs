//! The stored form of the event stream: fixed-size [`Packed`] records whose
//! `resource` and `op` are ids into the registry's [`Interner`], with the
//! few non-empty instant details in a side table keyed by `seq`. Nothing
//! here is public — [`Event`] is the read type, and ids never leave the
//! crate, so nothing observable depends on the order names were first seen.

use crate::event::{Event, EventKind, Layer};
use msr_sim::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// An FxHash-style hasher for the crate's small keys: interned names and
/// `(layer, id, id)` rows, each hashed once per event. The names are the
/// ones the program's own emitters pass, not bytes read from outside.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// One round per whole 8-byte word, then one for a 4-byte word, then
    /// one per byte left.
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk() {
            self.write_u64(u64::from_ne_bytes(*word));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk() {
            self.write_u64(u64::from(u32::from_ne_bytes(*word)));
            bytes = rest;
        }
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A `HashMap` hashed by [`KeyHasher`].
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

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
    ids: KeyMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl Interner {
    /// The id of `name`, adding it if new.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct keys");
        let shared: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&shared));
        self.ids.insert(shared, id);
        id
    }

    /// The string behind an id this interner handed out.
    pub(crate) fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// The registry's window: the newest records, oldest first and in `seq`
/// order with no gaps, plus the details of the instants among them.
#[derive(Debug, Default)]
pub(crate) struct Log {
    events: VecDeque<Packed>,
    /// `(seq, detail)` of every instant recorded with a non-empty detail,
    /// oldest first.
    details: VecDeque<(u64, Box<str>)>,
}

impl Log {
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Add `p` at the back, keeping at most `capacity` records: when full,
    /// the oldest leaves first, with its detail.
    pub(crate) fn push(&mut self, p: Packed, detail: &str, capacity: usize) {
        if self.events.len() == capacity {
            // A window of capacity 0 keeps nothing.
            let Some(oldest) = self.events.pop_front() else {
                return;
            };
            if self.details.front().is_some_and(|d| d.0 == oldest.seq) {
                self.details.pop_front();
            }
        }
        if !detail.is_empty() {
            self.details.push_back((p.seq, detail.into()));
        }
        self.events.push_back(p);
    }

    /// The public form of the log, in order of record.
    pub(crate) fn materialise(&self, names: &Interner) -> Vec<Event> {
        let mut details = self.details.iter().peekable();
        self.events
            .iter()
            .map(|p| Event {
                seq: p.seq,
                at: p.at,
                dur: p.dur,
                layer: p.layer,
                resource: names.name(p.resource).to_owned(),
                op: names.name(p.op).to_owned(),
                bytes: p.bytes(),
                value: p.value(),
                detail: details
                    .next_if(|d| d.0 == p.seq)
                    .map_or_else(String::new, |d| d.1.to_string()),
                kind: p.kind,
            })
            .collect()
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
        let a = names.intern("sdsc-disk");
        let b = names.intern("write");
        assert_eq!(names.intern("sdsc-disk"), a);
        assert_ne!(a, b);
        assert_eq!((names.name(a), names.name(b)), ("sdsc-disk", "write"));
    }
}
