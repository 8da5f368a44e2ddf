//! Offline stand-in for the subset of the `bytes` crate this workspace
//! uses: [`Bytes`] as an `Arc`-backed, cheaply-cloneable immutable buffer
//! with zero-copy [`Bytes::slice`], and [`BytesMut`] as a growable builder
//! that [`BytesMut::freeze`]s into `Bytes`.

use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;
use std::{cmp, fmt};

/// An immutable, reference-counted byte buffer. Cloning and slicing are
/// O(1) and share the underlying allocation, which is the vector the
/// buffer was made from: `Arc<[u8]>::from(Vec<u8>)` would reallocate and
/// copy every byte to put the reference counts in front of them.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation shared yet).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// A static buffer (copies in this shim; real `bytes` borrows).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zero-copy sub-slice sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of range"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Bytes of the shared allocation this handle keeps alive but does
    /// not show: the vector's spare capacity plus whatever lies outside the
    /// slice. Zero for a buffer made from an exact-size `Vec` and never
    /// narrowed. Shim-only (the real crate does not expose its allocation):
    /// call it from debug assertions, nothing else.
    #[doc(hidden)]
    pub fn hidden_bytes(&self) -> usize {
        self.data.capacity() - self.len()
    }

    /// Copy the contents out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Takes ownership of `v`'s allocation without copying.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

/// Gives the bytes back as a vector: the allocation itself when this is
/// the only handle and shows all of it, a copy otherwise (as the real
/// crate does).
impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        let view = b.start..b.end;
        match Arc::try_unwrap(b.data) {
            Ok(v) if view == (0..v.len()) => v,
            Ok(v) => v[view].to_vec(),
            Err(shared) => shared[view].to_vec(),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_ref()
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_ref()
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.data[self.start..self.end].iter()
    }
}

/// A growable byte builder; [`BytesMut::freeze`] converts to [`Bytes`]
/// without copying.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Append `extend` to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Alias for [`BytesMut::extend_from_slice`] (bytes' `BufMut::put_slice`).
    pub fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Grow or shrink to `new_len`, filling with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> BytesMut {
        BytesMut { data }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(..2), Bytes::from(vec![2, 3]));
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec<u8>> must not copy");
        assert_eq!(b.slice(16..).as_ptr(), ptr.wrapping_add(16));

        let mut m = BytesMut::with_capacity(4096);
        m.resize(4096, 1);
        let ptr = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), ptr, "freeze must not copy");
    }

    #[test]
    fn into_vec_takes_a_sole_whole_handle_and_copies_any_other() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let ptr = b.as_ptr();
        let v = Vec::from(b);
        assert_eq!((v.as_ptr(), &v[..]), (ptr, &[1u8, 2, 3, 4][..]));

        let b = Bytes::from(v);
        let held = b.clone();
        let copy = Vec::from(b);
        assert_ne!(copy.as_ptr(), ptr, "another handle still reads it");
        assert_eq!(copy, held);
        assert_eq!(Vec::from(held.slice(1..3)), [2, 3]);
    }

    #[test]
    fn freeze_roundtrip() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"abc");
        m.extend_from_slice(b"def");
        assert_eq!(m.freeze(), Bytes::copy_from_slice(b"abcdef"));
    }

    #[test]
    fn equality_against_vec_and_slice() {
        let b = Bytes::from(vec![9, 9]);
        assert_eq!(b, vec![9u8, 9]);
        assert_eq!(b, &[9u8, 9][..]);
    }
}
