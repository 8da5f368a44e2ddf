//! The *superfile* optimization (§5, Fig. 10(c)).
//!
//! Scientific post-processing often creates "large numbers of small files"
//! (Volren writes one small image per iteration). Accessed naively over SRB
//! each file pays full connection/open/close overhead. A superfile
//! transparently appends the small files into one container with an index;
//! on read, the *first* access stages the whole container into memory with
//! a single large native read, and every subsequent member read is a memory
//! copy.

use crate::error::RuntimeError;
use crate::RuntimeResult;
use bytes::Bytes;
use msr_sim::SimDuration;
use msr_storage::{FileHandle, OpenMode, SharedResource};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default staging-cache budget: containers larger than this are not staged
/// and members are fetched individually (still one open, but per-member
/// remote reads).
pub const DEFAULT_CACHE_LIMIT: u64 = 256 * 1024 * 1024;

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Index {
    members: BTreeMap<String, (u64, u64)>,
    end: u64,
}

/// Observability counters for the superfile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperfileStats {
    /// Members written.
    pub writes: u64,
    /// Member reads served from the staged cache.
    pub cache_hits: u64,
    /// Member reads that went to the resource.
    pub remote_reads: u64,
    /// Whole-container staging reads performed.
    pub stagings: u64,
}

/// A container of many small member files on one storage resource.
///
/// ```
/// use msr_runtime::Superfile;
/// use msr_storage::{share, DiskParams, LocalDisk};
///
/// let res = share(LocalDisk::new("d", DiskParams::simple(20.0, 1 << 30), 0));
/// let (_, mut sf) = Superfile::create(&res, "images")?;
/// sf.write_member(&res, "frame0", b"pixels")?;
/// sf.close(&res)?;
/// let (_, bytes) = sf.read_member(&res, "frame0")?;
/// assert_eq!(&bytes[..], b"pixels");
/// # Ok::<(), msr_runtime::RuntimeError>(())
/// ```
#[derive(Debug)]
pub struct Superfile {
    path: String,
    index: Index,
    write_handle: Option<FileHandle>,
    cache: Option<Bytes>,
    cache_limit: u64,
    stats: SuperfileStats,
}

impl Superfile {
    /// Create a new, empty superfile at `path` on `res`. Returns the setup
    /// cost (one create-open; the handle is kept for appending).
    pub fn create(res: &SharedResource, path: &str) -> RuntimeResult<(SimDuration, Superfile)> {
        let mut r = res.lock();
        let open = r.open(path, OpenMode::Create)?;
        Ok((
            open.time,
            Superfile {
                path: path.to_owned(),
                index: Index::default(),
                write_handle: Some(open.value),
                cache: None,
                cache_limit: DEFAULT_CACHE_LIMIT,
                stats: SuperfileStats::default(),
            },
        ))
    }

    /// Open an existing superfile by loading its index member
    /// (`<path>.idx`). Cost: one small open/read/close. An index with a
    /// member that does not lie inside the container is
    /// [`RuntimeError::CorruptSuperfile`].
    pub fn open(res: &SharedResource, path: &str) -> RuntimeResult<(SimDuration, Superfile)> {
        let mut r = res.lock();
        let idx_path = format!("{path}.idx");
        let mut t = SimDuration::ZERO;
        let open = r.open(&idx_path, OpenMode::Read)?;
        t += open.time;
        let len = r.file_size(&idx_path).unwrap_or(0) as usize;
        let read = r.read(open.value, len)?;
        t += read.time;
        t += r.close(open.value)?.time;
        let index: Index = serde_json::from_slice(&read.value)
            .map_err(|e| RuntimeError::CorruptSuperfile(e.to_string()))?;
        for (name, &(off, len)) in &index.members {
            if off.checked_add(len).is_none_or(|stop| stop > index.end) {
                return Err(RuntimeError::CorruptSuperfile(format!(
                    "member {name} at {off}+{len} lies outside the {}-byte container",
                    index.end
                )));
            }
        }
        Ok((
            t,
            Superfile {
                path: path.to_owned(),
                index,
                write_handle: None,
                cache: None,
                cache_limit: DEFAULT_CACHE_LIMIT,
                stats: SuperfileStats::default(),
            },
        ))
    }

    /// Cap the staging cache (ablation hook).
    pub fn with_cache_limit(mut self, bytes: u64) -> Self {
        self.cache_limit = bytes;
        self
    }

    /// Container path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Member names in index order.
    pub fn members(&self) -> Vec<String> {
        self.index.members.keys().cloned().collect()
    }

    /// Counters.
    pub fn stats(&self) -> SuperfileStats {
        self.stats
    }

    /// Append a member. The container handle stays open across appends, so
    /// each member costs one native write — no per-file create/open storm.
    pub fn write_member(
        &mut self,
        res: &SharedResource,
        name: &str,
        data: &[u8],
    ) -> RuntimeResult<SimDuration> {
        let mut r = res.lock();
        let mut t = SimDuration::ZERO;
        let h = match self.write_handle {
            Some(h) => h,
            None => {
                let open = r.open(&self.path, OpenMode::Append)?;
                t += open.time;
                self.write_handle = Some(open.value);
                open.value
            }
        };
        t += r.seek(h, self.index.end)?.time;
        t += r.write(h, data)?.time;
        self.index
            .members
            .insert(name.to_owned(), (self.index.end, data.len() as u64));
        self.index.end += data.len() as u64;
        self.cache = None; // staged image is stale
        self.stats.writes += 1;
        Ok(t)
    }

    /// Close the append handle and persist the index member. Must be called
    /// after writing; reading a never-closed superfile from another
    /// [`Superfile`] instance would find no index.
    pub fn close(&mut self, res: &SharedResource) -> RuntimeResult<SimDuration> {
        let mut r = res.lock();
        let mut t = SimDuration::ZERO;
        if let Some(h) = self.write_handle.take() {
            t += r.close(h)?.time;
        }
        let idx = serde_json::to_vec(&self.index)
            .map_err(|e| RuntimeError::CorruptSuperfile(e.to_string()))?;
        let open = r.open(&format!("{}.idx", self.path), OpenMode::Create)?;
        t += open.time;
        t += r.write(open.value, &idx)?.time;
        t += r.close(open.value)?.time;
        Ok(t)
    }

    /// Read one member. The first read stages the whole container (one
    /// large native read); later reads are memory copies.
    pub fn read_member(
        &mut self,
        res: &SharedResource,
        name: &str,
    ) -> RuntimeResult<(SimDuration, Bytes)> {
        let &(off, len) = self
            .index
            .members
            .get(name)
            .ok_or_else(|| RuntimeError::NoSuchMember(name.to_owned()))?;
        let mut t = SimDuration::ZERO;

        if self.cache.is_none() && self.index.end <= self.cache_limit {
            // Stage the container.
            let mut r = res.lock();
            let open = r.open(&self.path, OpenMode::Read)?;
            t += open.time;
            let read = r.read(open.value, self.index.end as usize)?;
            t += read.time;
            t += r.close(open.value)?.time;
            if read.value.len() as u64 != self.index.end {
                return Err(RuntimeError::CorruptSuperfile(format!(
                    "container truncated: {} of {} bytes",
                    read.value.len(),
                    self.index.end
                )));
            }
            self.cache = Some(read.value);
            self.stats.stagings += 1;
        }

        match &self.cache {
            Some(whole) => {
                self.stats.cache_hits += 1;
                // Copy out of the staged image at memory speed.
                t += SimDuration::from_secs(len as f64 / (crate::engine::MEMCPY_MB_S * 1e6));
                Ok((t, whole.slice(off as usize..(off + len) as usize)))
            }
            None => {
                // Container too big to stage: fetch just this member.
                let mut r = res.lock();
                let open = r.open(&self.path, OpenMode::Read)?;
                t += open.time;
                t += r.seek(open.value, off)?.time;
                let read = r.read(open.value, len as usize)?;
                t += read.time;
                t += r.close(open.value)?.time;
                if read.value.len() as u64 != len {
                    return Err(RuntimeError::CorruptSuperfile(format!(
                        "member {name} truncated: {} of {len} bytes",
                        read.value.len()
                    )));
                }
                self.stats.remote_reads += 1;
                Ok((t, read.value))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_storage::{share, DiskParams, LocalDisk};

    fn disk() -> SharedResource {
        share(LocalDisk::new("t", DiskParams::simple(50.0, 1 << 30), 0))
    }

    fn image(i: u32) -> Vec<u8> {
        (0..1024u32).map(|x| ((x * 7 + i) % 256) as u8).collect()
    }

    #[test]
    fn write_close_open_read_roundtrip() {
        let res = disk();
        let (_, mut sf) = Superfile::create(&res, "volren/images").unwrap();
        for i in 0..5 {
            sf.write_member(&res, &format!("img{i}"), &image(i))
                .unwrap();
        }
        sf.close(&res).unwrap();

        let (_, mut sf2) = Superfile::open(&res, "volren/images").unwrap();
        assert_eq!(sf2.members().len(), 5);
        for i in 0..5 {
            let (_, data) = sf2.read_member(&res, &format!("img{i}")).unwrap();
            assert_eq!(&data[..], &image(i)[..]);
        }
    }

    #[test]
    fn first_read_stages_then_hits_cache() {
        let res = disk();
        let (_, mut sf) = Superfile::create(&res, "c").unwrap();
        for i in 0..10 {
            sf.write_member(&res, &format!("m{i}"), &image(i)).unwrap();
        }
        sf.close(&res).unwrap();
        let (t_first, _) = sf.read_member(&res, "m0").unwrap();
        let (t_second, _) = sf.read_member(&res, "m1").unwrap();
        assert_eq!(sf.stats().stagings, 1);
        assert_eq!(sf.stats().cache_hits, 2);
        assert!(
            t_second < t_first,
            "cached read {t_second} must beat staging read {t_first}"
        );
    }

    #[test]
    fn writes_keep_one_handle_open() {
        let res = disk();
        let (_, mut sf) = Superfile::create(&res, "c").unwrap();
        for i in 0..20 {
            sf.write_member(&res, &format!("m{i}"), &image(i)).unwrap();
        }
        let s = res.lock().stats();
        assert_eq!(s.opens, 1, "only the container create");
        assert_eq!(s.writes, 20);
    }

    #[test]
    fn missing_member_is_reported() {
        let res = disk();
        let (_, mut sf) = Superfile::create(&res, "c").unwrap();
        sf.write_member(&res, "a", &image(0)).unwrap();
        sf.close(&res).unwrap();
        assert!(matches!(
            sf.read_member(&res, "zzz"),
            Err(RuntimeError::NoSuchMember(_))
        ));
    }

    #[test]
    fn over_limit_container_reads_members_individually() {
        let res = disk();
        let (_, mut sf) = Superfile::create(&res, "c").unwrap();
        for i in 0..4 {
            sf.write_member(&res, &format!("m{i}"), &image(i)).unwrap();
        }
        sf.close(&res).unwrap();
        let mut sf = sf.with_cache_limit(10); // too small to stage
        let (_, d) = sf.read_member(&res, "m2").unwrap();
        assert_eq!(&d[..], &image(2)[..]);
        assert_eq!(sf.stats().stagings, 0);
        assert_eq!(sf.stats().remote_reads, 1);
    }

    #[test]
    fn write_after_staging_invalidates_cache() {
        let res = disk();
        let (_, mut sf) = Superfile::create(&res, "c").unwrap();
        sf.write_member(&res, "a", &image(1)).unwrap();
        sf.close(&res).unwrap();
        sf.read_member(&res, "a").unwrap();
        assert_eq!(sf.stats().stagings, 1);
        sf.write_member(&res, "b", &image(2)).unwrap();
        sf.close(&res).unwrap();
        let (_, d) = sf.read_member(&res, "b").unwrap();
        assert_eq!(&d[..], &image(2)[..]);
        assert_eq!(sf.stats().stagings, 2, "restaged after append");
    }

    #[test]
    fn opening_unclosed_superfile_fails() {
        let res = disk();
        let (_, mut sf) = Superfile::create(&res, "c").unwrap();
        sf.write_member(&res, "a", &image(0)).unwrap();
        // No close: the index member does not exist yet.
        assert!(Superfile::open(&res, "c").is_err());
    }

    /// A 4-byte container under a hand-written index member.
    fn hostile(index: &str) -> SharedResource {
        let res = disk();
        for (path, bytes) in [("c", &b"abcd"[..]), ("c.idx", index.as_bytes())] {
            let mut r = res.lock();
            let h = r.open(path, OpenMode::Create).unwrap().value;
            r.write(h, bytes).unwrap();
            r.close(h).unwrap();
        }
        res
    }

    #[test]
    fn index_member_past_the_container_end_is_corrupt() {
        let res = hostile(r#"{"end":4,"members":{"m":[2,100]}}"#);
        assert!(matches!(
            Superfile::open(&res, "c"),
            Err(RuntimeError::CorruptSuperfile(_))
        ));
    }

    #[test]
    fn index_member_whose_end_overflows_is_corrupt() {
        let res = hostile(r#"{"end":4,"members":{"m":[18446744073709551615,2]}}"#);
        assert!(matches!(
            Superfile::open(&res, "c"),
            Err(RuntimeError::CorruptSuperfile(_))
        ));
    }

    #[test]
    fn short_unstaged_member_read_is_corrupt() {
        let res = hostile(r#"{"end":10,"members":{"m":[0,10]}}"#);
        let (_, sf) = Superfile::open(&res, "c").unwrap();
        let mut sf = sf.with_cache_limit(1);
        assert!(matches!(
            sf.read_member(&res, "m"),
            Err(RuntimeError::CorruptSuperfile(_))
        ));
        assert_eq!(sf.stats().remote_reads, 0);
    }
}
