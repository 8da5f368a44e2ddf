//! In-memory object store backing every simulated resource.
//!
//! Timing comes from the cost models; *data* comes from here. Each resource
//! owns an `ObjectStore` mapping paths to byte buffers, supporting random
//! access reads/writes, so the optimization layers above (data sieving,
//! superfile packing, …) can be verified byte-for-byte, not just timed.

use crate::error::StorageError;
use crate::payload::{Payload, Recipe};
use crate::StorageResult;
use bytes::Bytes;
use std::collections::BTreeMap;

/// Bytes per extent of a stored file.
const EXTENT: usize = 256 << 10;

/// One file's contents, in one of two forms.
///
/// **Extents** (the default, and the only form a borrowed
/// [`ObjectStore::write_at`] ever makes): a run of extents of which every
/// one but the last holds exactly [`EXTENT`] bytes, so no file needs one
/// contiguous buffer of its whole length and appends never re-copy what is
/// already stored. The reason is the allocator, not the copy: a 64 MiB
/// file written in 16 MiB appends as one buffer is either carved from free
/// heap or — when earlier frees left no hole that large — mapped fresh on
/// top of it, which makes a drain's peak RSS differ by 10 % between
/// identical runs. Extents are requests any fragmented heap can serve.
///
/// **Whole**: a file written as one whole object from a given-away
/// [`Payload`] ([`ObjectStore::write_shared_at`] at offset 0, covering the
/// file's whole current length) *is* that payload. Held bytes are kept —
/// the writer already paid for the allocation, so keeping it adds none —
/// and reads hand back [`Bytes::slice`]s of them; a recipe is kept as the
/// tens of bytes it is, and reads generate the range asked for. While
/// `whole` is set `extents` is empty and `len` is the payload's length.
/// Any other mutation first copies the payload into extents, once
/// ([`File::unshare`]); the writer's `Bytes` is never written through.
#[derive(Debug, Default, Clone)]
struct File {
    whole: Option<Payload>,
    extents: Vec<Vec<u8>>,
    len: usize,
}

impl File {
    /// Make room in the last extent for `target` bytes: amortised
    /// doubling, but never past the extent.
    fn reserve_last(last: &mut Vec<u8>, target: usize) {
        if target > last.capacity() {
            let cap = (2 * last.capacity()).clamp(target, EXTENT);
            last.reserve_exact(cap - last.len());
        }
    }

    /// Zero-extend to `len` bytes (never shrinks).
    fn grow(&mut self, len: usize) {
        let mut covered = self.extents.len().saturating_sub(1) * EXTENT;
        if let Some(last) = self.extents.last_mut() {
            let target = EXTENT.min(len - covered);
            Self::reserve_last(last, target);
            last.resize(target, 0);
            covered += EXTENT;
        }
        while covered < len {
            self.extents.push(vec![0; EXTENT.min(len - covered)]);
            covered += EXTENT;
        }
        self.len = len;
    }

    /// Append `data` at the end of the file, writing each new byte once:
    /// the same extents [`File::grow`] would make, built from the data
    /// instead of zero-filled and then overwritten.
    fn append(&mut self, mut data: &[u8]) {
        self.len += data.len();
        if let Some(last) = self.extents.last_mut() {
            let (head, tail) = data.split_at(data.len().min(EXTENT - last.len()));
            Self::reserve_last(last, last.len() + head.len());
            last.extend_from_slice(head);
            data = tail;
        }
        self.extents.extend(data.chunks(EXTENT).map(<[u8]>::to_vec));
    }

    /// Overwrite `data` at `offset`; the range must already exist.
    fn write(&mut self, mut offset: usize, mut data: &[u8]) {
        while !data.is_empty() {
            let at = offset % EXTENT;
            let (head, tail) = data.split_at(data.len().min(EXTENT - at));
            self.extents[offset / EXTENT][at..at + head.len()].copy_from_slice(head);
            offset += head.len();
            data = tail;
        }
    }

    /// Bytes `offset..end` (within the file): the whole payload when that
    /// is what was asked for, a range of it, or a copy gathered from the
    /// extents.
    fn read(&self, mut offset: usize, end: usize) -> Payload {
        if let Some(whole) = &self.whole {
            if offset == 0 && end == self.len {
                return whole.clone();
            }
            return Payload::Bytes(whole.range(offset, end));
        }
        let mut out = Vec::with_capacity(end - offset);
        while offset < end {
            let at = offset % EXTENT;
            let n = (end - offset).min(EXTENT - at);
            out.extend_from_slice(&self.extents[offset / EXTENT][at..at + n]);
            offset += n;
        }
        Payload::from(out)
    }

    /// Leave the whole form: copy the payload into extents, exactly the
    /// ones a borrowed write of the same bytes to an empty file makes. A
    /// recipe is generated straight into them.
    fn unshare(&mut self) {
        match self.whole.take() {
            None => {}
            Some(Payload::Bytes(whole)) => {
                self.len = 0;
                self.append(&whole);
            }
            Some(Payload::Recipe(recipe)) => {
                let mut at = 0;
                while at < self.len {
                    let mut extent = vec![0; EXTENT.min(self.len - at)];
                    recipe.generate(at, &mut extent);
                    at += extent.len();
                    self.extents.push(extent);
                }
            }
        }
    }
}

/// A flat path → bytes store. Paths are plain strings; a `/`-separated
/// hierarchy is conventional but not enforced (SRB collections behave the
/// same way).
#[derive(Debug, Default, Clone)]
pub struct ObjectStore {
    files: BTreeMap<String, File>,
    /// Running total of all file lengths. Kept incrementally because
    /// `used_bytes` sits on every write's capacity check: recomputing the
    /// sum is O(files) per operation, which a 10k-session drain turns
    /// into quadratic dispatch cost.
    used: u64,
    /// Running total of *logical* bytes: what the applications dumped, as
    /// opposed to what is physically stored after dedup/compression. A
    /// file contributes its physical length unless an override was
    /// declared via [`ObjectStore::set_logical`] (the chunk plane sets a
    /// manifest's override to the dump's payload size and each shared
    /// `cas/` object's to 0). Capacity checks see physical occupancy.
    logical: u64,
    /// Per-path logical overrides; absent paths count physical == logical.
    overrides: BTreeMap<String, u64>,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes physically stored across all files.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Total logical (pre-dedup, pre-compression) bytes stored.
    pub fn logical_bytes(&self) -> u64 {
        self.logical
    }

    /// This file's current contribution to the logical total.
    fn logical_of(&self, path: &str) -> u64 {
        match self.overrides.get(path) {
            Some(&l) => l,
            None => self.size(path).unwrap_or(0),
        }
    }

    /// Declare that `path` logically represents `bytes` of application
    /// data regardless of its stored length. The override dies with the
    /// file (delete or truncating create).
    pub fn set_logical(&mut self, path: &str, bytes: u64) {
        if !self.exists(path) {
            return;
        }
        let before = self.logical_of(path);
        self.overrides.insert(path.to_owned(), bytes);
        self.logical = self.logical - before + bytes;
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Size of `path`, if present.
    pub fn size(&self, path: &str) -> Option<u64> {
        self.files.get(path).map(|f| f.len as u64)
    }

    /// Create (or truncate) a file.
    pub fn create(&mut self, path: &str) {
        self.logical -= self.logical_of(path);
        self.overrides.remove(path);
        if let Some(old) = self.files.insert(path.to_owned(), File::default()) {
            self.used -= old.len as u64;
        }
    }

    /// Ensure a file exists without truncating it.
    pub fn ensure(&mut self, path: &str) {
        self.files.entry(path.to_owned()).or_default();
    }

    /// Remove a file, returning whether it existed.
    pub fn delete(&mut self, path: &str) -> bool {
        self.logical -= self.logical_of(path);
        self.overrides.remove(path);
        match self.files.remove(path) {
            Some(old) => {
                self.used -= old.len as u64;
                true
            }
            None => false,
        }
    }

    /// Paths with the given prefix, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Move the totals for `path` having grown by `growth` bytes.
    fn grew(&mut self, path: &str, growth: usize) {
        self.used += growth as u64;
        if !self.overrides.contains_key(path) {
            self.logical += growth as u64;
        }
    }

    /// The file at `path`, for mutation.
    fn file_mut(&mut self, path: &str) -> StorageResult<&mut File> {
        self.files
            .get_mut(path)
            .ok_or_else(|| StorageError::NotFound(path.to_owned()))
    }

    /// Write `data` at `offset`, zero-filling any gap and growing the file
    /// as needed. The file must exist.
    pub fn write_at(&mut self, path: &str, offset: u64, data: &[u8]) -> StorageResult<()> {
        let offset = usize::try_from(offset).expect("offset fits in memory model");
        let f = self.file_mut(path)?;
        let growth = (offset + data.len()).saturating_sub(f.len);
        f.unshare();
        // Zero-fill only a gap before the data; what lands past the old
        // end of file is appended, not zeroed first.
        if f.len < offset {
            f.grow(offset);
        }
        let (inside, past) = data.split_at(data.len().min(f.len - offset));
        f.write(offset, inside);
        f.append(past);
        self.grew(path, growth);
        Ok(())
    }

    /// [`ObjectStore::write_at`] for a caller that can give the payload
    /// away. A non-empty write at offset 0 that covers the file's whole
    /// current length (a fresh or just-truncated file, or an in-place
    /// rewrite no shorter than what is there) makes `data` the file, with
    /// no copy. A fill written over or appended to a file that is the same
    /// fill only moves the file's end. Anything else is the borrowed write
    /// of `data`'s bytes. What the store reports and returns afterwards is
    /// the same either way.
    pub fn write_shared_at(&mut self, path: &str, offset: u64, data: Payload) -> StorageResult<()> {
        // The store may keep `data` for as long as the file lives, so the
        // allocation behind it should be the object and nothing more.
        if let Payload::Bytes(b) = &data {
            debug_assert_eq!(b.hidden_bytes(), 0, "{path}: buffer is not exact");
        }
        let f = self.file_mut(path)?;
        let at = usize::try_from(offset).expect("offset fits in memory model");
        let end = at + data.len();
        let growth = end.saturating_sub(f.len);
        let fill = match (&f.whole, &data) {
            (
                Some(Payload::Recipe(Recipe::Fill { byte: have, .. })),
                Payload::Recipe(Recipe::Fill { byte, .. }),
            ) if have == byte && at <= f.len => Some(*byte),
            _ => None,
        };
        let whole = match fill {
            _ if at == 0 && !data.is_empty() && end >= f.len => data,
            Some(byte) => Payload::fill(byte, f.len.max(end)),
            None => return self.write_at(path, offset, &data.into_bytes()),
        };
        f.extents = Vec::new();
        f.len = whole.len();
        f.whole = Some(whole);
        self.grew(path, growth);
        Ok(())
    }

    /// Read up to `len` bytes at `offset`. Short reads happen at EOF; a read
    /// entirely past EOF returns an empty buffer.
    pub fn read_at(&self, path: &str, offset: u64, len: usize) -> StorageResult<Bytes> {
        self.read_shared_at(path, offset, len)
            .map(Payload::into_bytes)
    }

    /// [`ObjectStore::read_at`] for a caller that can take the file as it
    /// is kept: a read of a whole-form file's whole length returns its
    /// payload (held bytes or recipe), any other read the bytes.
    pub fn read_shared_at(&self, path: &str, offset: u64, len: usize) -> StorageResult<Payload> {
        let f = self
            .files
            .get(path)
            .ok_or_else(|| StorageError::NotFound(path.to_owned()))?;
        let offset = usize::try_from(offset).expect("offset fits in memory model");
        if offset >= f.len {
            return Ok(Payload::Bytes(Bytes::new()));
        }
        Ok(f.read(offset, (offset + len).min(f.len)))
    }

    /// Full contents of a file.
    pub fn read_all(&self, path: &str) -> StorageResult<Bytes> {
        let f = self
            .files
            .get(path)
            .ok_or_else(|| StorageError::NotFound(path.to_owned()))?;
        Ok(f.read(0, f.len).into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn create_write_read_roundtrip() {
        let mut s = ObjectStore::new();
        s.create("a/b");
        s.write_at("a/b", 0, b"hello").unwrap();
        assert_eq!(&s.read_at("a/b", 0, 5).unwrap()[..], b"hello");
        assert_eq!(s.size("a/b"), Some(5));
    }

    #[test]
    fn write_at_offset_zero_fills_gap() {
        let mut s = ObjectStore::new();
        s.create("f");
        s.write_at("f", 4, b"xy").unwrap();
        let all = s.read_all("f").unwrap();
        assert_eq!(&all[..], &[0, 0, 0, 0, b'x', b'y']);
    }

    #[test]
    fn files_span_extents_like_one_buffer() {
        let mut s = ObjectStore::new();
        let mut model = Vec::new();
        s.create("f");
        // Appends that straddle extent boundaries, a sparse write two
        // extents past EOF, then an overwrite across a boundary.
        let writes = [
            (0, EXTENT - 3),
            (EXTENT - 3, 10),
            (EXTENT + 7, 2 * EXTENT),
            (5 * EXTENT + 1, 9),
            (2 * EXTENT - 5, 11),
        ];
        for (i, (offset, len)) in writes.into_iter().enumerate() {
            let data: Vec<u8> = (0..len).map(|j| (i * 31 + j % 251) as u8 | 1).collect();
            s.write_at("f", offset as u64, &data).unwrap();
            if model.len() < offset + len {
                model.resize(offset + len, 0);
            }
            model[offset..offset + len].copy_from_slice(&data);
        }
        assert_eq!(s.size("f"), Some(model.len() as u64));
        assert_eq!(s.used_bytes(), model.len() as u64);
        assert_eq!(&s.read_all("f").unwrap()[..], &model[..]);
        for (offset, len) in [
            (EXTENT - 1, 2),
            (3 * EXTENT, 2 * EXTENT + 5),
            (0, 7 * EXTENT),
        ] {
            let end = (offset + len).min(model.len());
            let got = s.read_at("f", offset as u64, len).unwrap();
            assert_eq!(&got[..], &model[offset..end]);
        }
    }

    #[test]
    fn appends_keep_the_extent_shape() {
        // Length and capacity of every extent: what the `File` doc
        // comment's RSS argument rests on.
        let shape = |s: &ObjectStore| -> Vec<(usize, usize)> {
            s.files["f"]
                .extents
                .iter()
                .map(|e| (e.len(), e.capacity()))
                .collect()
        };
        let mut s = ObjectStore::new();
        s.create("f");
        let mut end = 0;
        let mut append = |s: &mut ObjectStore, len: usize| {
            s.write_at("f", end as u64, &vec![7; len]).unwrap();
            end += len;
        };
        // The last extent doubles, but never past the extent.
        append(&mut s, 100);
        assert_eq!(shape(&s), [(100, 100)]);
        append(&mut s, 50);
        assert_eq!(shape(&s), [(150, 200)]);
        append(&mut s, 1000);
        assert_eq!(shape(&s), [(1150, 1150)]);
        append(&mut s, EXTENT / 2);
        assert_eq!(shape(&s), [(1150 + EXTENT / 2, 1150 + EXTENT / 2)]);
        append(&mut s, 10);
        assert_eq!(shape(&s), [(1160 + EXTENT / 2, EXTENT)]);
        // One append that fills the tail and spills over three extents.
        append(&mut s, 3 * EXTENT);
        assert_eq!(
            shape(&s),
            [
                (EXTENT, EXTENT),
                (EXTENT, EXTENT),
                (EXTENT, EXTENT),
                (1160 + EXTENT / 2, 1160 + EXTENT / 2)
            ]
        );
        // An overwrite that runs past EOF appends only its tail.
        s.write_at("f", (end - 4) as u64, &[9; 12]).unwrap();
        assert_eq!(shape(&s)[3], (1168 + EXTENT / 2, EXTENT));
        assert_eq!(s.size("f"), Some((end + 8) as u64));
        assert_eq!(s.used_bytes(), (end + 8) as u64);
        let all = s.read_all("f").unwrap();
        assert!(all[..end - 4].iter().all(|&b| b == 7));
        assert_eq!(&all[end - 4..], &[9; 12]);
    }

    /// How one write of the model walk reaches the store.
    type WalkWrite = fn(&mut ObjectStore, &str, u64, Payload, &mut StdRng) -> StorageResult<()>;

    /// Drive the store and a `BTreeMap<String, Vec<u8>>` model through
    /// `steps` seeded moves over six paths and compare them after every
    /// one: the touched file's bytes, every size, `used_bytes`,
    /// `logical_bytes` and `list`; every file's bytes each 64 steps and at
    /// the end. With `recipes`, half the writes carry a recipe (a dump or
    /// one of two fills) instead of bytes from the pool.
    fn model_walk(seed: u64, steps: usize, recipes: bool, write: WalkWrite) {
        const PATHS: [&str; 6] = ["a/0", "a/1", "a/2", "b/0", "b/1", "c"];
        const LENS: [usize; 5] = [0, 1, EXTENT - 3, EXTENT + 3, 3 * EXTENT + 5];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = vec![0u8; 4 * EXTENT];
        rng.fill_bytes(&mut pool);

        let mut s = ObjectStore::new();
        let mut files: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut overrides: BTreeMap<String, u64> = BTreeMap::new();
        let same_bytes = |s: &ObjectStore, files: &BTreeMap<String, Vec<u8>>, path: &str| {
            match files.get(path) {
                Some(want) => assert!(s.read_all(path).unwrap() == want[..], "bytes of {path}"),
                None => assert!(matches!(s.read_all(path), Err(StorageError::NotFound(_)))),
            }
        };
        for step in 0..steps {
            let path = PATHS[rng.random_range(0..PATHS.len())];
            let len_now = files.get(path).map_or(0, Vec::len);
            match rng.random_range(0..16u32) {
                0 => {
                    s.create(path);
                    files.insert(path.to_owned(), Vec::new());
                    overrides.remove(path);
                }
                1 => {
                    s.ensure(path);
                    files.entry(path.to_owned()).or_default();
                }
                2 => {
                    overrides.remove(path);
                    assert_eq!(s.delete(path), files.remove(path).is_some(), "step {step}");
                }
                3 => {
                    let bytes = rng.random_range(0..1u64 << 22);
                    s.set_logical(path, bytes);
                    if files.contains_key(path) {
                        overrides.insert(path.to_owned(), bytes);
                    }
                }
                4..=6 => {
                    // Any range, also one starting or ending past EOF.
                    let offset = rng.random_range(0..=len_now + 3);
                    let len = rng.random_range(0..=len_now + EXTENT);
                    match files.get(path) {
                        Some(want) => {
                            let got = s.read_at(path, offset as u64, len).unwrap();
                            let lo = offset.min(want.len());
                            let hi = (offset + len).min(want.len());
                            assert!(got == want[lo..hi], "step {step}: {path} {offset}+{len}");
                        }
                        None => assert!(matches!(
                            s.read_at(path, offset as u64, len),
                            Err(StorageError::NotFound(_))
                        )),
                    }
                }
                // A file that has grown long is truncated instead, so
                // the walk keeps meeting short and empty files.
                _ if len_now > 5 * EXTENT => {
                    s.create(path);
                    files.insert(path.to_owned(), Vec::new());
                    overrides.remove(path);
                }
                _ => {
                    let offset = match rng.random_range(0..4u32) {
                        0 => 0,
                        1 => rng.random_range(0..=len_now),
                        2 => len_now,
                        _ => len_now + rng.random_range(1..=EXTENT + 3),
                    };
                    let len = LENS[rng.random_range(0..LENS.len())];
                    let from = rng.random_range(0..=pool.len() - len);
                    let data = if recipes && rng.random_bool(0.5) {
                        match rng.random_range(0..3u32) {
                            0 => Payload::fill(0xA5, len),
                            1 => Payload::fill(0, len),
                            _ => Payload::dump(rng.random_range(0..3), "walk", step as u32, len),
                        }
                    } else {
                        Payload::from(pool[from..from + len].to_vec())
                    };
                    let bytes = data.clone().into_bytes();
                    let result = write(&mut s, path, offset as u64, data, &mut rng);
                    match files.get_mut(path) {
                        Some(f) => {
                            result.unwrap();
                            if f.len() < offset + len {
                                f.resize(offset + len, 0);
                            }
                            f[offset..offset + len].copy_from_slice(&bytes);
                        }
                        None => assert!(matches!(result, Err(StorageError::NotFound(_)))),
                    }
                }
            }
            same_bytes(&s, &files, path);
            if step % 64 == 63 || step + 1 == steps {
                PATHS.iter().for_each(|p| same_bytes(&s, &files, p));
            }
            for p in PATHS {
                assert_eq!(s.size(p), files.get(p).map(|f| f.len() as u64), "{step}");
            }
            let used: u64 = files.values().map(|f| f.len() as u64).sum();
            let logical: u64 = files
                .iter()
                .map(|(p, f)| overrides.get(p).copied().unwrap_or(f.len() as u64))
                .sum();
            assert_eq!(s.used_bytes(), used, "step {step}");
            assert_eq!(s.logical_bytes(), logical, "step {step}");
            assert_eq!(s.file_count(), files.len(), "step {step}");
            for prefix in ["", "a/", "b/1", "z"] {
                let want: Vec<&String> = files.keys().filter(|k| k.starts_with(prefix)).collect();
                assert_eq!(s.list(prefix).iter().collect::<Vec<_>>(), want, "{step}");
            }
        }
    }

    #[test]
    fn store_matches_a_vec_model_over_a_seeded_walk() {
        model_walk(0x5eed_0b1e, 2500, false, |s, path, offset, data, _| {
            s.write_at(path, offset, &data.into_bytes())
        });
    }

    /// Half the writes give their payload away, half are borrowed.
    fn mixed(
        s: &mut ObjectStore,
        path: &str,
        offset: u64,
        data: Payload,
        rng: &mut StdRng,
    ) -> StorageResult<()> {
        if rng.random_bool(0.5) {
            s.write_shared_at(path, offset, data)
        } else {
            s.write_at(path, offset, &data.into_bytes())
        }
    }

    #[test]
    fn store_matches_the_model_with_owned_writes_mixed_in() {
        model_walk(0x0b1e_5eed, 2500, false, mixed);
    }

    #[test]
    fn store_matches_the_model_with_recipe_writes_mixed_in() {
        model_walk(0x7ec1_9e5e, 2500, true, mixed);
    }

    #[test]
    fn a_recipe_is_kept_as_its_key() {
        let mut s = ObjectStore::new();
        let dump = Payload::dump(7, "chk", 3, 3 * EXTENT + 5);
        s.create("f");
        s.write_shared_at("f", 0, dump.clone()).unwrap();
        assert!(s.files["f"].extents.is_empty());
        assert_eq!(s.used_bytes(), 3 * EXTENT as u64 + 5);
        let kept = s.read_shared_at("f", 0, 4 * EXTENT).unwrap();
        assert!(matches!(kept, Payload::Recipe(r) if r.len() == 3 * EXTENT + 5));
        let want = dump.clone().into_bytes();
        assert_eq!(s.read_at("f", 9, EXTENT).unwrap(), want[9..EXTENT + 9]);
        // Appending a fill to the same fill only moves the end; over a
        // shorter stretch it changes nothing.
        s.create("g");
        for at in [0, 4 * EXTENT, 8 * EXTENT, 5] {
            s.write_shared_at("g", at as u64, Payload::fill(0xA5, 4 * EXTENT))
                .unwrap();
        }
        assert!(s.files["g"].extents.is_empty());
        assert_eq!(s.size("g"), Some(12 * EXTENT as u64));
        assert_eq!(s.used_bytes(), 15 * EXTENT as u64 + 5);
        // Another fill byte is the borrowed write.
        s.write_shared_at("g", 1, Payload::fill(0, 2)).unwrap();
        assert_eq!(s.files["g"].extents.len(), 12);
        assert_eq!(&s.read_at("g", 0, 4).unwrap()[..], &[0xA5, 0, 0, 0xA5]);
        // A partial overwrite makes the extents a borrowed write would.
        let mut borrowed = ObjectStore::new();
        borrowed.create("f");
        borrowed.write_at("f", 0, &want).unwrap();
        for t in [&mut s, &mut borrowed] {
            t.write_at("f", EXTENT as u64 - 1, &[1, 2]).unwrap();
        }
        let shape = |s: &ObjectStore| -> Vec<(usize, usize)> {
            let extents = s.files["f"].extents.iter();
            extents.map(|e| (e.len(), e.capacity())).collect()
        };
        assert_eq!(shape(&s), shape(&borrowed));
        assert_eq!(s.read_all("f").unwrap(), borrowed.read_all("f").unwrap());
    }

    #[test]
    fn a_whole_object_written_owned_is_kept_not_copied() {
        let mut s = ObjectStore::new();
        let payload = Bytes::from(vec![5u8; EXTENT + 9]);
        s.create("f");
        s.write_shared_at("f", 0, payload.clone().into()).unwrap();
        assert!(s.files["f"].extents.is_empty());
        assert_eq!(s.read_all("f").unwrap().as_ptr(), payload.as_ptr());
        let mid = s.read_at("f", 7, EXTENT).unwrap();
        assert_eq!(mid.as_ptr(), payload[7..].as_ptr());
        assert_eq!(mid.len(), EXTENT);
        assert_eq!(s.read_at("f", 7, 2 * EXTENT).unwrap().len(), EXTENT + 2);
        assert!(s.read_at("f", (EXTENT + 9) as u64, 1).unwrap().is_empty());
        // A rewrite in place that is no shorter swaps the buffer, whatever
        // form the file had; the override keeps logical where it was.
        s.set_logical("f", 77);
        let longer = Bytes::from(vec![6u8; EXTENT + 10]);
        s.write_shared_at("f", 0, longer.clone().into()).unwrap();
        assert_eq!(s.read_all("f").unwrap().as_ptr(), longer.as_ptr());
        assert_eq!(
            (s.used_bytes(), s.logical_bytes()),
            (EXTENT as u64 + 10, 77)
        );
        // Shorter than the file, past its start, or empty: the borrowed write.
        s.write_shared_at("f", 0, Bytes::from(vec![7u8; 4]).into())
            .unwrap();
        assert_eq!(s.files["f"].extents.len(), 2);
        assert_eq!(s.size("f"), Some(EXTENT as u64 + 10));
        s.create("g");
        s.write_shared_at("g", 3, Bytes::from(vec![8u8; 4]).into())
            .unwrap();
        s.write_shared_at("g", 0, Bytes::new().into()).unwrap();
        assert!(s.files["g"].whole.is_none());
        assert_eq!(&s.read_all("g").unwrap()[..], &[0, 0, 0, 8, 8, 8, 8]);
        assert!(matches!(
            s.write_shared_at("nope", 0, Bytes::from(vec![1]).into()),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn mutating_a_shared_file_copies_it_into_the_borrowed_shape() {
        let data: Vec<u8> = (0..2 * EXTENT + 100).map(|i| (i % 241) as u8).collect();
        let payload = Bytes::from(data.clone());
        let mut shared = ObjectStore::new();
        shared.create("f");
        shared
            .write_shared_at("f", 0, payload.clone().into())
            .unwrap();
        let mut borrowed = ObjectStore::new();
        borrowed.create("f");
        borrowed.write_at("f", 0, &data).unwrap();
        for s in [&mut shared, &mut borrowed] {
            s.write_at("f", (EXTENT - 2) as u64, &[1, 2, 3, 4]).unwrap();
            s.write_at("f", (2 * EXTENT + 100) as u64, &[9; 50])
                .unwrap();
        }
        let shape = |s: &ObjectStore| -> Vec<(usize, usize)> {
            let extents = s.files["f"].extents.iter();
            extents.map(|e| (e.len(), e.capacity())).collect()
        };
        assert!(shared.files["f"].whole.is_none());
        assert_eq!(shape(&shared), shape(&borrowed));
        assert_eq!(
            shared.read_all("f").unwrap(),
            borrowed.read_all("f").unwrap()
        );
        assert_eq!(shared.used_bytes(), borrowed.used_bytes());
        // The writer's buffer was copied out of, never written through.
        assert_eq!(payload, data);
    }

    #[test]
    fn overwrite_in_place() {
        let mut s = ObjectStore::new();
        s.create("f");
        s.write_at("f", 0, b"abcdef").unwrap();
        s.write_at("f", 2, b"XY").unwrap();
        assert_eq!(&s.read_all("f").unwrap()[..], b"abXYef");
    }

    #[test]
    fn short_read_at_eof() {
        let mut s = ObjectStore::new();
        s.create("f");
        s.write_at("f", 0, b"abc").unwrap();
        assert_eq!(&s.read_at("f", 1, 100).unwrap()[..], b"bc");
        assert!(s.read_at("f", 10, 5).unwrap().is_empty());
    }

    #[test]
    fn missing_file_errors() {
        let s = ObjectStore::new();
        assert!(matches!(
            s.read_at("nope", 0, 1),
            Err(StorageError::NotFound(_))
        ));
        let mut s = s;
        assert!(matches!(
            s.write_at("nope", 0, b"x"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn create_truncates_ensure_does_not() {
        let mut s = ObjectStore::new();
        s.create("f");
        s.write_at("f", 0, b"data").unwrap();
        s.ensure("f");
        assert_eq!(s.size("f"), Some(4));
        s.create("f");
        assert_eq!(s.size("f"), Some(0));
    }

    #[test]
    fn list_by_prefix_is_sorted() {
        let mut s = ObjectStore::new();
        for p in ["run1/b", "run1/a", "run2/c", "other"] {
            s.create(p);
        }
        assert_eq!(
            s.list("run1/"),
            vec!["run1/a".to_owned(), "run1/b".to_owned()]
        );
        assert_eq!(s.list("run"), vec!["run1/a", "run1/b", "run2/c"]);
        assert!(s.list("zzz").is_empty());
    }

    #[test]
    fn logical_tracks_physical_without_overrides() {
        let mut s = ObjectStore::new();
        s.create("f");
        s.write_at("f", 0, &[7u8; 500]).unwrap();
        assert_eq!(s.used_bytes(), 500);
        assert_eq!(s.logical_bytes(), 500);
        s.delete("f");
        assert_eq!(s.logical_bytes(), 0);
    }

    #[test]
    fn logical_override_decouples_from_physical() {
        let mut s = ObjectStore::new();
        s.create("manifest");
        s.write_at("manifest", 0, &[1u8; 100]).unwrap();
        s.create("cas/abc");
        s.write_at("cas/abc", 0, &[2u8; 300]).unwrap();
        // A manifest logically represents the whole 4000-byte dump; the
        // shared cas object counts for nothing.
        s.set_logical("manifest", 4000);
        s.set_logical("cas/abc", 0);
        assert_eq!(s.used_bytes(), 400);
        assert_eq!(s.logical_bytes(), 4000);
        // Growth of an overridden file moves physical but not logical.
        s.write_at("cas/abc", 300, &[3u8; 50]).unwrap();
        assert_eq!(s.used_bytes(), 450);
        assert_eq!(s.logical_bytes(), 4000);
        // Deleting an overridden file removes its override contribution.
        s.delete("manifest");
        assert_eq!(s.logical_bytes(), 0);
        assert_eq!(s.used_bytes(), 350);
    }

    #[test]
    fn truncating_create_clears_the_override() {
        let mut s = ObjectStore::new();
        s.create("f");
        s.write_at("f", 0, &[0u8; 10]).unwrap();
        s.set_logical("f", 1000);
        assert_eq!(s.logical_bytes(), 1000);
        s.create("f");
        assert_eq!(s.logical_bytes(), 0);
        s.write_at("f", 0, &[0u8; 20]).unwrap();
        assert_eq!(s.logical_bytes(), 20, "fresh file counts physical again");
    }

    #[test]
    fn set_logical_on_missing_file_is_a_noop() {
        let mut s = ObjectStore::new();
        s.set_logical("nope", 999);
        assert_eq!(s.logical_bytes(), 0);
    }

    #[test]
    fn delete_and_accounting() {
        let mut s = ObjectStore::new();
        s.create("f");
        s.write_at("f", 0, &[0u8; 1000]).unwrap();
        assert_eq!(s.used_bytes(), 1000);
        assert!(s.delete("f"));
        assert!(!s.delete("f"));
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(s.file_count(), 0);
    }
}
