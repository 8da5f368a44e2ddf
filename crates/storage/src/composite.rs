//! Space aggregation across resources (§5's final example).
//!
//! "We can still satisfy large storage space requirements for simulations
//! by aggregating all the space of remote disks, local disks and other
//! storage resources" — [`CompositeResource`] presents a set of child
//! resources as one logical store: each file is placed whole on the first
//! child with room (spill placement), lookups consult the child that holds
//! the path, and capacity/usage aggregate. The cost of an operation is the
//! cost on whichever child serves it.

use crate::error::StorageError;
use crate::resource::{
    Cost, FileHandle, FixedCosts, OpKind, OpenMode, ResourceStats, SharedResource, StorageKind,
    StorageResource,
};
use crate::StorageResult;
use bytes::Bytes;
use msr_sim::SimDuration;
use std::collections::HashMap;

/// A logical resource aggregating the space of several children.
pub struct CompositeResource {
    name: String,
    children: Vec<SharedResource>,
    /// Which child holds each path.
    placement: HashMap<String, usize>,
    /// Open handles: our handle id → (child index, child handle, cursor,
    /// mode).
    handles: HashMap<u32, HandleState>,
    /// Path behind each open handle (needed for spill migration).
    open_paths: HashMap<u32, String>,
    next_handle: u32,
    stats: ResourceStats,
    online: bool,
}

impl CompositeResource {
    /// Aggregate `children` (placement spills in the given order).
    ///
    /// # Panics
    /// Panics when `children` is empty.
    pub fn new(name: impl Into<String>, children: Vec<SharedResource>) -> Self {
        assert!(!children.is_empty(), "composite needs at least one child");
        CompositeResource {
            name: name.into(),
            children,
            placement: HashMap::new(),
            handles: HashMap::new(),
            open_paths: HashMap::new(),
            next_handle: 0,
            stats: ResourceStats::default(),
            online: true,
        }
    }

    /// The child currently holding `path`, if any.
    pub fn child_of(&self, path: &str) -> Option<usize> {
        self.placement
            .get(path)
            .copied()
            .or_else(|| self.children.iter().position(|c| c.lock().exists(path)))
    }

    /// Pick a child for a new file of (estimated) `bytes`: first online
    /// child with room.
    fn place(&self, bytes: u64) -> StorageResult<usize> {
        for (i, c) in self.children.iter().enumerate() {
            let r = c.lock();
            if r.is_online() && r.available_bytes() >= bytes {
                return Ok(i);
            }
        }
        Err(StorageError::CapacityExceeded {
            resource: self.name.clone(),
            requested: bytes,
            available: self.available_bytes(),
        })
    }

    fn child_for_handle(&self, h: FileHandle) -> StorageResult<HandleState> {
        self.handles
            .get(&handle_id(h))
            .copied()
            .ok_or(StorageError::BadHandle)
    }

    /// Migrate the file behind handle `h` to a child that can hold its
    /// current contents plus `extra` more bytes. Returns the migration's
    /// cost. The handle stays valid (remapped).
    fn spill(&mut self, h: FileHandle, path: &str, extra: u64) -> StorageResult<SimDuration> {
        let st = self.child_for_handle(h)?;
        let old_child = st.child;
        let existing = self.children[old_child].lock().file_size(path).unwrap_or(0);
        // Find a destination with room for the whole relocated file.
        let dest = self
            .children
            .iter()
            .enumerate()
            .position(|(i, c)| {
                let r = c.lock();
                i != old_child && r.is_online() && r.available_bytes() >= existing + extra
            })
            .ok_or(StorageError::CapacityExceeded {
                resource: self.name.clone(),
                requested: extra,
                available: self.available_bytes(),
            })?;

        let mut cost = SimDuration::ZERO;
        // Read the bytes written so far off the old child...
        let content = {
            let mut old = self.children[old_child].lock();
            cost += old.close(st.inner)?.time;
            let data = if existing > 0 {
                let o = old.open(path, OpenMode::Read)?;
                cost += o.time;
                let read = old.read(o.value, existing as usize)?;
                cost += read.time;
                cost += old.close(o.value)?.time;
                read.value
            } else {
                Bytes::new()
            };
            cost += old
                .delete(path)
                .map(|c| c.time)
                .unwrap_or(SimDuration::ZERO);
            data
        };
        // ...and replay them on the destination.
        let new_inner = {
            let mut new = self.children[dest].lock();
            let o = new.open(path, OpenMode::Create)?;
            cost += o.time;
            if !content.is_empty() {
                cost += new.write(o.value, &content)?.time;
            }
            cost += new.seek(o.value, st.cursor)?.time;
            o.value
        };
        self.placement.insert(path.to_owned(), dest);
        self.handles.insert(
            handle_id(h),
            HandleState {
                child: dest,
                inner: new_inner,
                cursor: st.cursor,
                mode: st.mode,
            },
        );
        Ok(cost)
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

    /// A write of `len` bytes through `h`, `call` being the child's native
    /// call; run a second time on the new child when the first one filled
    /// up and the file had to spill.
    fn write_with(
        &mut self,
        h: FileHandle,
        len: usize,
        call: impl Fn(&mut dyn StorageResource, FileHandle) -> StorageResult<Cost<usize>>,
    ) -> StorageResult<Cost<usize>> {
        let st = self.child_for_handle(h)?;
        let result = call(&mut *self.children[st.child].lock(), st.inner);
        let out = match result {
            Ok(out) => out,
            Err(StorageError::CapacityExceeded { .. }) => {
                // The child filled up: aggregate space by migrating the
                // file to a sibling with room, then retry the write there.
                let path = self
                    .open_paths
                    .get(&handle_id(h))
                    .cloned()
                    .ok_or(StorageError::BadHandle)?;
                let migration = self.spill(h, &path, len as u64)?;
                let st = self.child_for_handle(h)?;
                let retried = call(&mut *self.children[st.child].lock(), st.inner)?;
                Cost::new(migration + retried.time, retried.value)
            }
            Err(e) => return Err(e),
        };
        self.stats.writes += 1;
        self.stats.bytes_written += out.value as u64;
        if let Some(s) = self.handles.get_mut(&handle_id(h)) {
            s.cursor += out.value as u64;
        }
        Ok(out)
    }
}

fn handle_id(h: FileHandle) -> u32 {
    h.raw()
}

#[derive(Debug, Clone, Copy)]
struct HandleState {
    child: usize,
    inner: FileHandle,
    cursor: u64,
    mode: OpenMode,
}

impl StorageResource for CompositeResource {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> StorageKind {
        // The composite takes the kind of its primary (first) child.
        self.children[0].lock().kind()
    }

    fn is_online(&self) -> bool {
        self.online && self.children.iter().any(|c| c.lock().is_online())
    }

    fn set_online(&mut self, up: bool) {
        self.online = up;
    }

    fn capacity_bytes(&self) -> u64 {
        self.children
            .iter()
            .map(|c| c.lock().capacity_bytes())
            .fold(0u64, u64::saturating_add)
    }

    fn used_bytes(&self) -> u64 {
        self.children.iter().map(|c| c.lock().used_bytes()).sum()
    }

    fn logical_bytes(&self) -> u64 {
        self.children.iter().map(|c| c.lock().logical_bytes()).sum()
    }

    fn set_logical_size(&mut self, path: &str, bytes: u64) {
        if let Some(child) = self.child_of(path) {
            self.children[child].lock().set_logical_size(path, bytes);
        }
    }

    fn available_bytes(&self) -> u64 {
        self.children
            .iter()
            .map(|c| {
                let r = c.lock();
                if r.is_online() {
                    r.available_bytes()
                } else {
                    0
                }
            })
            .fold(0u64, u64::saturating_add)
    }

    fn connect(&mut self) -> StorageResult<Cost<()>> {
        self.check_online()?;
        let mut total = SimDuration::ZERO;
        let mut any = false;
        for c in &self.children {
            let mut r = c.lock();
            if r.is_online() {
                if let Ok(cost) = r.connect() {
                    total += cost.time;
                    any = true;
                }
            }
        }
        if any {
            self.stats.connects += 1;
            Ok(Cost::new(total, ()))
        } else {
            Err(StorageError::Offline {
                resource: self.name.clone(),
            })
        }
    }

    fn disconnect(&mut self) -> StorageResult<Cost<()>> {
        let mut total = SimDuration::ZERO;
        for c in &self.children {
            if let Ok(cost) = c.lock().disconnect() {
                total += cost.time;
            }
        }
        Ok(Cost::new(total, ()))
    }

    fn open(&mut self, path: &str, mode: OpenMode) -> StorageResult<Cost<FileHandle>> {
        self.check_online()?;
        let child = match self.child_of(path) {
            Some(i) => i,
            None => {
                if mode == OpenMode::Read {
                    return Err(StorageError::NotFound(path.to_owned()));
                }
                // New file: no size known yet; require a token amount and
                // let writes spill on capacity errors upstream.
                self.place(1)?
            }
        };
        let cost = self.children[child].lock().open(path, mode)?;
        self.placement.insert(path.to_owned(), child);
        let cursor = if mode == OpenMode::Append {
            self.children[child].lock().file_size(path).unwrap_or(0)
        } else {
            0
        };
        let id = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(
            id,
            HandleState {
                child,
                inner: cost.value,
                cursor,
                mode,
            },
        );
        self.open_paths.insert(id, path.to_owned());
        self.stats.opens += 1;
        Ok(Cost::new(cost.time, FileHandle::from_raw(id)))
    }

    fn seek(&mut self, h: FileHandle, pos: u64) -> StorageResult<Cost<()>> {
        let st = self.child_for_handle(h)?;
        self.stats.seeks += 1;
        let out = self.children[st.child].lock().seek(st.inner, pos)?;
        if let Some(s) = self.handles.get_mut(&handle_id(h)) {
            s.cursor = pos;
        }
        Ok(out)
    }

    fn read(&mut self, h: FileHandle, len: usize) -> StorageResult<Cost<Bytes>> {
        let st = self.child_for_handle(h)?;
        let out = self.children[st.child].lock().read(st.inner, len)?;
        self.stats.reads += 1;
        self.stats.bytes_read += out.value.len() as u64;
        if let Some(s) = self.handles.get_mut(&handle_id(h)) {
            s.cursor += out.value.len() as u64;
        }
        Ok(out)
    }

    fn write(&mut self, h: FileHandle, data: &[u8]) -> StorageResult<Cost<usize>> {
        self.write_with(h, data.len(), |child, inner| child.write(inner, data))
    }

    fn write_shared(&mut self, h: FileHandle, data: Bytes) -> StorageResult<Cost<usize>> {
        self.write_with(h, data.len(), |child, inner| {
            child.write_shared(inner, data.clone())
        })
    }

    fn close(&mut self, h: FileHandle) -> StorageResult<Cost<()>> {
        let st = self.child_for_handle(h)?;
        let out = self.children[st.child].lock().close(st.inner)?;
        self.handles.remove(&handle_id(h));
        self.open_paths.remove(&handle_id(h));
        self.stats.closes += 1;
        Ok(out)
    }

    fn delete(&mut self, path: &str) -> StorageResult<Cost<()>> {
        let child = self
            .child_of(path)
            .ok_or_else(|| StorageError::NotFound(path.to_owned()))?;
        let out = self.children[child].lock().delete(path)?;
        self.placement.remove(path);
        Ok(out)
    }

    fn vault(&mut self, path: &str) -> StorageResult<Cost<()>> {
        let child = self
            .child_of(path)
            .ok_or_else(|| StorageError::NotFound(path.to_owned()))?;
        self.children[child].lock().vault(path)
    }

    fn recall(&mut self, path: &str) -> StorageResult<Cost<()>> {
        let child = self
            .child_of(path)
            .ok_or_else(|| StorageError::NotFound(path.to_owned()))?;
        self.children[child].lock().recall(path)
    }

    fn is_vaulted(&self, path: &str) -> bool {
        self.child_of(path)
            .is_some_and(|i| self.children[i].lock().is_vaulted(path))
    }

    fn exists(&self, path: &str) -> bool {
        self.child_of(path).is_some()
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        let child = self.child_of(path)?;
        self.children[child].lock().file_size(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .children
            .iter()
            .flat_map(|c| c.lock().list(prefix))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    fn stats(&self) -> ResourceStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ResourceStats::default();
    }

    fn set_stream_hint(&mut self, streams: u32) {
        for c in &self.children {
            c.lock().set_stream_hint(streams);
        }
    }

    fn fixed_costs(&self, op: OpKind) -> FixedCosts {
        // Model costs follow the primary child (placement-dependent costs
        // are inherently approximate for an aggregate).
        self.children[0].lock().fixed_costs(op)
    }

    fn transfer_model(&self, op: OpKind, bytes: u64, streams: u32) -> SimDuration {
        self.children[0].lock().transfer_model(op, bytes, streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_disk::{DiskParams, LocalDisk};
    use crate::resource::share;

    fn composite(caps: &[u64]) -> CompositeResource {
        let children = caps
            .iter()
            .enumerate()
            .map(|(i, &cap)| {
                share(LocalDisk::new(
                    format!("child{i}"),
                    DiskParams::simple(10.0 + i as f64, cap),
                    i as u64,
                )) as SharedResource
            })
            .collect();
        CompositeResource::new("agg", children)
    }

    fn put(c: &mut CompositeResource, path: &str, bytes: usize) -> StorageResult<()> {
        let h = c.open(path, OpenMode::Create)?.value;
        c.write(h, &vec![7u8; bytes])?;
        c.close(h)?;
        Ok(())
    }

    #[test]
    fn capacity_aggregates() {
        let c = composite(&[100, 200, 300]);
        assert_eq!(c.capacity_bytes(), 600);
        assert_eq!(c.available_bytes(), 600);
    }

    #[test]
    fn files_spill_to_the_next_child() {
        let mut c = composite(&[100, 100]);
        put(&mut c, "a", 80).unwrap();
        put(&mut c, "b", 80).unwrap(); // does not fit on child0
        assert_eq!(c.child_of("a"), Some(0));
        assert_eq!(c.child_of("b"), Some(1));
        assert_eq!(c.used_bytes(), 160);
        // Both read back through the aggregate.
        for p in ["a", "b"] {
            let h = c.open(p, OpenMode::Read).unwrap().value;
            assert_eq!(c.read(h, 80).unwrap().value.len(), 80);
            c.close(h).unwrap();
        }
    }

    #[test]
    fn a_shared_write_spills_like_a_borrowed_one_and_lands_uncopied() {
        // "b" is opened on child0 (1 byte free is enough to open), its
        // first write fits, the second overflows and moves the file.
        let script = |c: &mut CompositeResource, shared: Option<&Bytes>| {
            put(c, "a", 60).unwrap();
            let h = c.open("b", OpenMode::Create).unwrap().value;
            let first = c.write(h, &[1u8; 30]).unwrap();
            let second = match shared {
                Some(buf) => c.write_shared(h, buf.clone()),
                None => c.write(h, &[2u8; 50]),
            }
            .unwrap();
            let close = c.close(h).unwrap();
            let times = [first.time, second.time, close.time].map(|t| t.as_secs().to_bits());
            (
                times,
                second.value,
                c.stats(),
                c.child_of("b"),
                c.used_bytes(),
            )
        };
        let mut borrowed = composite(&[100, 100]);
        let mut shared = composite(&[100, 100]);
        let buf = Bytes::from(vec![2u8; 50]);
        let want = script(&mut borrowed, None);
        assert_eq!(script(&mut shared, Some(&buf)), want);
        assert_eq!(want.3, Some(1), "the file moved to the child with room");
        let read_back = |c: &mut CompositeResource| {
            let h = c.open("b", OpenMode::Read).unwrap().value;
            c.read(h, 80).unwrap().value
        };
        assert_eq!(read_back(&mut shared), read_back(&mut borrowed));

        // A whole object that overflows its first child is retried on the
        // next one with the same buffer, which that child then keeps.
        let mut c = composite(&[100, 100]);
        put(&mut c, "a", 60).unwrap();
        let whole = Bytes::from(vec![3u8; 70]);
        let h = c.open("w", OpenMode::Create).unwrap().value;
        assert_eq!(c.write_shared(h, whole.clone()).unwrap().value, 70);
        c.close(h).unwrap();
        assert_eq!(c.child_of("w"), Some(1));
        let h = c.open("w", OpenMode::Read).unwrap().value;
        assert_eq!(c.read(h, 70).unwrap().value.as_ptr(), whole.as_ptr());
    }

    #[test]
    fn full_everywhere_is_capacity_exceeded() {
        let mut c = composite(&[50, 50]);
        put(&mut c, "a", 40).unwrap();
        put(&mut c, "b", 40).unwrap();
        // New file placement: open succeeds on a child with ≥1 byte free,
        // but the write then trips the child's capacity check.
        let h = c.open("c", OpenMode::Create).unwrap().value;
        assert!(matches!(
            c.write(h, &[0u8; 40]),
            Err(StorageError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn offline_child_is_skipped_for_new_files() {
        let mut c = composite(&[1000, 1000]);
        c.children[0].lock().set_online(false);
        put(&mut c, "x", 10).unwrap();
        assert_eq!(c.child_of("x"), Some(1));
        assert!(c.is_online());
        assert_eq!(
            c.available_bytes(),
            990,
            "offline space not counted, 10 B used on child1"
        );
    }

    #[test]
    fn list_merges_children() {
        let mut c = composite(&[100, 100]);
        put(&mut c, "d/a", 80).unwrap();
        put(&mut c, "d/b", 80).unwrap();
        assert_eq!(c.list("d/"), vec!["d/a".to_owned(), "d/b".to_owned()]);
        assert_eq!(c.file_size("d/b"), Some(80));
    }

    #[test]
    fn delete_frees_space_on_the_right_child() {
        let mut c = composite(&[100, 100]);
        put(&mut c, "a", 80).unwrap();
        put(&mut c, "b", 80).unwrap();
        c.delete("a").unwrap();
        assert!(!c.exists("a"));
        assert_eq!(c.used_bytes(), 80);
        // Space on child0 is reusable again.
        put(&mut c, "c", 80).unwrap();
        assert_eq!(c.child_of("c"), Some(0));
    }

    #[test]
    fn read_missing_file_not_found() {
        let mut c = composite(&[100]);
        assert!(matches!(
            c.open("ghost", OpenMode::Read),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn stale_handle_rejected() {
        let mut c = composite(&[100]);
        let h = c.open("a", OpenMode::Create).unwrap().value;
        c.close(h).unwrap();
        assert!(matches!(c.read(h, 1), Err(StorageError::BadHandle)));
    }

    #[test]
    #[should_panic(expected = "at least one child")]
    fn empty_composite_rejected() {
        CompositeResource::new("x", vec![]);
    }

    #[test]
    fn whole_composite_offline() {
        let mut c = composite(&[100]);
        c.set_online(false);
        assert!(matches!(
            c.open("a", OpenMode::Create),
            Err(StorageError::Offline { .. })
        ));
        assert!(!c.is_online());
    }
}
