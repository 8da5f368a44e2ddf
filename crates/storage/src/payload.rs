//! A dump's bytes, held or described.
//!
//! Nothing the virtual clock reports depends on the bytes of a dump, only
//! on its size; the chunk plane's dedup and compression and the readers
//! that verify a dump do. The synthetic dumps the scheduler makes come
//! from a generator that can regenerate any range of them bit for bit, so
//! a store need not keep them: a [`Payload`] is either the bytes
//! ([`Payload::Bytes`]) or the key they are generated from
//! ([`Payload::Recipe`]), tens of bytes whatever the dump's size.
//!
//! The generator: dump `iter` of dataset `(session, dataset)` is the LCG
//! stream seeded from that identity with a churn window of ~1/16 of the
//! bytes laid over it, so replays are bitwise identical regardless of
//! worker count or admission interleaving. The churn shape mirrors a
//! checkpointing producer — successive dumps of one dataset share most of
//! their bytes, with a sliding window of fresh data per iteration — which
//! is what gives the content-addressed chunk plane dedup to find. A
//! [`PayloadSource`] makes whole dumps cheaply: the base stream of a
//! dataset is generated once, eight bytes abreast, and each dump copies
//! it around a freshly generated churn window, writing every byte once.
//! A [`Recipe`] generates exactly the range asked for, jumping the LCG
//! ahead to its start, and panics on a range past its end, as the
//! [`Payload::Bytes`] it describes would. The
//! bytes themselves are frozen (`tests/payload_fingerprint.rs`); the
//! generator they were first defined by survives as the reference in this
//! module's tests.

use bytes::Bytes;

/// The LCG every payload byte comes from: `x ← A·x + C (mod 2⁶⁴)`, one
/// step per byte, the byte being the state's top eight bits.
const A: u64 = 6364136223846793005;
const C: u64 = 1442695040888963407;

/// The affine map of `k` LCG steps, `x ↦ a·x + c`, by doubling the one-step
/// map and composing the doublings `k`'s bits select. Exact in wrapping
/// arithmetic, because composing affine maps over ℤ/2⁶⁴ only ever
/// multiplies and adds; and the order of composition does not matter,
/// because powers of one map commute.
const fn steps(mut k: u64) -> (u64, u64) {
    let (mut a, mut c) = (1u64, 0u64);
    let (mut da, mut dc) = (A, C);
    while k > 0 {
        if k & 1 == 1 {
            (a, c) = (da.wrapping_mul(a), da.wrapping_mul(c).wrapping_add(dc));
        }
        (da, dc) = (da.wrapping_mul(da), da.wrapping_mul(dc).wrapping_add(dc));
        k >>= 1;
    }
    (a, c)
}

/// Eight LCG steps composed into one: `x[k+8] = A8·x[k] + C8`.
const JUMP: (u64, u64) = steps(8);

/// One LCG stream read eight bytes abreast. Lane `j` holds the state whose
/// top byte is the `j`-th byte still to come; emitting a byte jumps its
/// lane eight positions ahead. The byte-serial loop is one dependent
/// multiply-add per byte; here eight independent ones are in flight, which
/// is what the processor (or the vectoriser) needs to overlap them.
struct Lanes([u64; 8]);

impl Lanes {
    /// The stream of `seed` from byte `at` on: lane `j` is `at + j + 1`
    /// serial steps from the seed.
    fn at(seed: u64, at: usize) -> Lanes {
        let (a, c) = steps(at as u64);
        let mut x = a.wrapping_mul(seed | 1).wrapping_add(c);
        Lanes(std::array::from_fn(|_| {
            x = x.wrapping_mul(A).wrapping_add(C);
            x
        }))
    }

    /// Write the stream's next `out.len()` bytes. A tail shorter than a
    /// block takes the leading lanes and rotates them to the back, so a
    /// later call continues the same stream.
    fn fill(&mut self, out: &mut [u8]) {
        let (a8, c8) = JUMP;
        let emit = |block: &mut [u8], lanes: &mut [u64; 8]| {
            for (byte, x) in block.iter_mut().zip(lanes) {
                *byte = (*x >> 56) as u8;
                *x = x.wrapping_mul(a8).wrapping_add(c8);
            }
        };
        let mut blocks = out.chunks_exact_mut(8);
        for block in &mut blocks {
            emit(block, &mut self.0);
        }
        let tail = blocks.into_remainder();
        emit(tail, &mut self.0);
        self.0.rotate_left(tail.len());
    }

    /// Append the stream's next `n` bytes to `out`, made a block at a time
    /// on the stack, where they stay in cache until copied.
    fn extend(&mut self, out: &mut Vec<u8>, mut n: usize) {
        let mut block = [0; 512];
        while n > 0 {
            let k = n.min(block.len());
            self.fill(&mut block[..k]);
            out.extend_from_slice(&block[..k]);
            n -= k;
        }
    }
}

/// The seed of `(session, dataset)`'s base stream: FNV-1a over the
/// dataset name, started from the session.
fn seed_of(session: u64, dataset: &str) -> u64 {
    let mut seed = 0xcbf29ce484222325u64 ^ session.wrapping_mul(0x9e3779b97f4a7c15);
    for b in dataset.bytes() {
        seed = (seed ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    seed
}

/// Where dump `iter` of a `len`-byte dataset seeded `seed` lays its churn
/// window: `(at, window, churn seed)`. The position walks the payload with
/// iteration, the content is keyed by the full identity so every iteration
/// differs, and a window that runs off the end continues at the front.
fn churn(seed: u64, iter: u32, len: usize) -> (usize, usize, u64) {
    let window = (len / 16).max(1);
    let at = (iter as usize).wrapping_mul(7919) % len;
    (
        at,
        window,
        seed ^ u64::from(iter).wrapping_mul(0x2545f4914f6cdd1d),
    )
}

/// The dumps of one dataset of one session: the base stream, generated
/// once, and the identity its churn windows are keyed by.
pub struct PayloadSource {
    seed: u64,
    base: Vec<u8>,
}

impl PayloadSource {
    /// Generate the `len`-byte base stream of `(session, dataset)`.
    pub fn new(session: u64, dataset: &str, len: usize) -> PayloadSource {
        let seed = seed_of(session, dataset);
        let mut base = vec![0; len];
        Lanes::at(seed, 0).fill(&mut base);
        PayloadSource { seed, base }
    }

    /// The payload of dump `iter`, each byte written once: the base copied
    /// around the churn window, the window generated where it lands.
    pub fn dump(&self, iter: u32) -> Bytes {
        let len = self.base.len();
        let mut out = Vec::with_capacity(len);
        if len > 0 {
            let (at, window, seed) = churn(self.seed, iter, len);
            let head = window.min(len - at);
            let wrapped = window - head;
            // In file order: the wrapped tail of the window, the base up
            // to the window, the window's head, the base after it.
            let mut churn = Lanes::at(seed, 0);
            let mut tail = Lanes::at(seed, head);
            tail.extend(&mut out, wrapped);
            out.extend_from_slice(&self.base[wrapped..at]);
            churn.extend(&mut out, head);
            out.extend_from_slice(&self.base[at + head..]);
        }
        Bytes::from(out)
    }
}

/// Deterministic dump payload for `(session, dataset, iter)`: dump `iter`
/// of a fresh [`PayloadSource`]. Callers making several dumps of one
/// dataset keep the source instead and pay for the base stream once.
pub fn payload(session: u64, dataset: &str, iter: u32, len: usize) -> Bytes {
    PayloadSource::new(session, dataset, len).dump(iter)
}

/// The key a payload is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// Dump `iter` of the `len`-byte dataset whose base stream is seeded
    /// `seed`: the bytes of [`PayloadSource::dump`].
    Dump {
        /// The base stream's seed.
        seed: u64,
        /// The dump's iteration, which places and keys its churn window.
        iter: u32,
        /// Bytes in the dump.
        len: usize,
    },
    /// `len` copies of `byte`.
    Fill {
        /// The repeated byte.
        byte: u8,
        /// Bytes in the fill.
        len: usize,
    },
}

impl Recipe {
    /// Bytes the recipe makes.
    pub fn len(&self) -> usize {
        match *self {
            Recipe::Dump { len, .. } | Recipe::Fill { len, .. } => len,
        }
    }

    /// Whether the recipe makes no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generate bytes `offset..offset + out.len()` (within the recipe) into
    /// `out`: the base stream from `offset` on, with whatever part of the
    /// churn window falls in the range laid over it.
    ///
    /// # Panics
    /// Panics when the range runs past the recipe's end, as slicing the
    /// bytes it describes would.
    pub fn generate(&self, offset: usize, out: &mut [u8]) {
        let end = offset + out.len();
        assert!(end <= self.len(), "{offset}..{end} out of range");
        let (seed, iter, len) = match *self {
            Recipe::Fill { byte, .. } => return out.fill(byte),
            Recipe::Dump { seed, iter, len } => (seed, iter, len),
        };
        Lanes::at(seed, offset).fill(out);
        if out.is_empty() {
            return;
        }
        let (at, window, seed) = churn(seed, iter, len);
        // The window in file order: its first `head` bytes at `at..`, the
        // rest wrapped to the front.
        let head = window.min(len - at);
        for (from, n, skip) in [(at, head, 0), (0, window - head, head)] {
            let (lo, hi) = (from.max(offset), (from + n).min(end));
            if lo < hi {
                Lanes::at(seed, skip + lo - from).fill(&mut out[lo - offset..hi - offset]);
            }
        }
    }

    /// Bytes `offset..end` (within the recipe), freshly generated.
    ///
    /// # Panics
    /// Panics when `offset..end` is not a range within the recipe, as
    /// slicing the bytes it describes would.
    pub fn range(&self, offset: usize, end: usize) -> Bytes {
        assert!(offset <= end, "{offset}..{end} out of range");
        let mut out = vec![0; end - offset];
        self.generate(offset, &mut out);
        Bytes::from(out)
    }
}

/// A dump's bytes, held or described.
#[derive(Debug, Clone)]
pub enum Payload {
    /// The bytes themselves.
    Bytes(Bytes),
    /// The key the bytes are generated from, on demand.
    Recipe(Recipe),
}

impl Payload {
    /// The recipe of `payload(session, dataset, iter, len)`.
    pub fn dump(session: u64, dataset: &str, iter: u32, len: usize) -> Payload {
        let seed = seed_of(session, dataset);
        Payload::Recipe(Recipe::Dump { seed, iter, len })
    }

    /// The recipe of `len` copies of `byte`.
    pub fn fill(byte: u8, len: usize) -> Payload {
        Payload::Recipe(Recipe::Fill { byte, len })
    }

    /// Bytes in the payload.
    pub fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Recipe(r) => r.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes `offset..end` (within the payload): a view of held bytes, or
    /// the range generated.
    ///
    /// # Panics
    /// Panics when `offset..end` is not a range within the payload, held
    /// or described alike.
    pub fn range(&self, offset: usize, end: usize) -> Bytes {
        match self {
            Payload::Bytes(b) => b.slice(offset..end),
            Payload::Recipe(r) => r.range(offset, end),
        }
    }

    /// All the bytes: the held buffer itself, or the whole recipe
    /// generated.
    pub fn into_bytes(self) -> Bytes {
        match self {
            Payload::Bytes(b) => b,
            Payload::Recipe(r) => r.range(0, r.len()),
        }
    }

    /// All the bytes as a vector: the held allocation when nothing else
    /// shares it, a copy when something does, the recipe generated.
    pub fn into_vec(self) -> Vec<u8> {
        self.into_bytes().into()
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Payload {
        Payload::Bytes(b)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::Bytes(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator [`PayloadSource`] replaced, kept as its reference:
    /// one dependent multiply-add per byte, the base stream regenerated
    /// for every dump, the churn window staged in a vector of its own.
    fn serial_payload(session: u64, dataset: &str, iter: u32, len: usize) -> Vec<u8> {
        let mut h = 0xcbf29ce484222325u64 ^ session.wrapping_mul(0x9e3779b97f4a7c15);
        for b in dataset.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        let stream = |seed: u64, n: usize| -> Vec<u8> {
            let mut out = Vec::with_capacity(n);
            let mut x = seed | 1;
            for _ in 0..n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                out.push((x >> 56) as u8);
            }
            out
        };
        let mut out = stream(h, len);
        if len > 0 {
            let window = (len / 16).max(1);
            let at = (iter as usize).wrapping_mul(7919) % len;
            let churn = stream(
                h ^ u64::from(iter).wrapping_mul(0x2545f4914f6cdd1d),
                window.min(len),
            );
            for (i, b) in churn.into_iter().enumerate() {
                out[(at + i) % len] = b;
            }
        }
        out
    }

    /// The grid `tests/payload_fingerprint.rs` pins, wrapping cells
    /// included.
    const ITERS: [u32; 8] = [0, 1, 3, 48, 96, 125, 143, u32::MAX];

    fn assert_matches_serial(len: usize, iters: impl Iterator<Item = u32> + Clone) {
        for session in [0, 7] {
            for dataset in ["chk", "field"] {
                let source = PayloadSource::new(session, dataset, len);
                for iter in iters.clone() {
                    assert!(
                        source.dump(iter) == serial_payload(session, dataset, iter, len),
                        "len={len} session={session} dataset={dataset} iter={iter}"
                    );
                }
            }
        }
    }

    #[test]
    fn source_equals_the_serial_reference_on_the_pinned_grid() {
        for len in [2_048, 4_099, 131_072, 1 << 20, (1 << 20) + 5] {
            assert_matches_serial(len, ITERS.into_iter());
        }
    }

    /// Every block count and tail length around the first sixteen blocks,
    /// at every window position: 7919 is coprime to each of these lengths,
    /// so iterations `0..len` put the window everywhere, each wrap
    /// included.
    #[test]
    fn source_equals_the_serial_reference_at_every_small_length() {
        for len in 0..=130 {
            assert_matches_serial(len, ITERS.into_iter().chain(0..len as u32));
        }
    }

    #[test]
    fn jumping_ahead_is_stepping_ahead() {
        let (mut a, mut c) = (1u64, 0u64);
        for k in 0..300u64 {
            assert_eq!(steps(k), (a, c), "{k}");
            (a, c) = (A.wrapping_mul(a), A.wrapping_mul(c).wrapping_add(C));
        }
        let mut whole = vec![0; 200];
        Lanes::at(42, 0).fill(&mut whole);
        for at in [0, 1, 7, 8, 9, 63, 199] {
            let mut tail = vec![0; 200 - at];
            Lanes::at(42, at).fill(&mut tail);
            assert_eq!(tail, whole[at..], "{at}");
        }
    }

    /// Every range over a grid of offsets and lengths, for iterations
    /// whose churn window sits inside the dump, straddles its end and
    /// wraps to the front, equals the same slice of the whole dump.
    #[test]
    fn a_recipe_range_is_the_same_slice_of_the_dump() {
        for len in [1, 2, 17, 130, 4_099, 70_001] {
            let source = PayloadSource::new(7, "chk", len);
            let (w, edges) = ((len / 16).max(1), [0, 1, 7, 8, 9, 63, 64, 65]);
            let mut cuts: Vec<usize> = edges.iter().flat_map(|&e| [e, len / 2 + e]).collect();
            cuts.extend(edges.iter().map(|&e| len.saturating_sub(e)));
            cuts.extend([len - w, len - w / 2, w, w + 1]);
            cuts.retain(|&c| c <= len);
            cuts.sort_unstable();
            cuts.dedup();
            // Iterations putting the window at the front, mid-dump, across
            // the end (7919·iter ≡ len - w/2), and the extremes.
            let wrapping = (0..len as u32).find(|&i| {
                let at = (i as usize * 7919) % len;
                at + w > len && at < len
            });
            let iters = [0, 1, 48, 143, u32::MAX].into_iter().chain(wrapping);
            for iter in iters {
                let dump = source.dump(iter);
                let Payload::Recipe(recipe) = Payload::dump(7, "chk", iter, len) else {
                    unreachable!()
                };
                for &lo in &cuts {
                    for &hi in cuts.iter().filter(|&&hi| hi >= lo) {
                        assert!(
                            recipe.range(lo, hi) == dump[lo..hi],
                            "len={len} iter={iter} {lo}..{hi}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_payload_turns_into_its_bytes() {
        let held = Bytes::from(vec![3u8; 10]);
        let p = Payload::from(held.clone());
        assert_eq!((p.len(), p.range(2, 5).as_ptr()), (10, held[2..].as_ptr()));
        assert_eq!(p.into_bytes().as_ptr(), held.as_ptr());
        assert_eq!(Payload::fill(0xA5, 6).into_vec(), [0xA5; 6]);
        assert_eq!(Payload::fill(0xA5, 6).range(1, 3), [0xA5; 2][..]);
        assert!(Payload::fill(1, 0).is_empty());
        let dump = Payload::dump(3, "ckpt", 6, 4096);
        assert_eq!(dump.len(), 4096);
        assert_eq!(dump.into_bytes(), payload(3, "ckpt", 6, 4096));
    }

    /// A range past the end panics whether the payload holds its bytes
    /// or describes them; in release too, where a debug assertion would
    /// have let a recipe make up the bytes past its end.
    #[test]
    fn a_range_past_the_end_panics_in_either_form() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let len = 4_099;
        let described = [Payload::dump(7, "chk", 3, len), Payload::fill(0xA5, len)];
        for recipe in described {
            let held = Payload::from(recipe.clone().into_bytes());
            for (lo, hi) in [(0, len + 1), (len - 1, len + 1), (len + 1, len + 9), (9, 8)] {
                for form in [&recipe, &held] {
                    let got = catch_unwind(AssertUnwindSafe(|| form.range(lo, hi)));
                    assert!(got.is_err(), "{form:?} {lo}..{hi} did not panic");
                }
            }
            assert_eq!(recipe.range(len - 9, len), held.range(len - 9, len));
            assert!(recipe.range(len, len).is_empty() && held.range(len, len).is_empty());
        }
    }

    #[test]
    fn a_sources_dumps_do_not_depend_on_call_order() {
        let len = 4_099;
        let source = PayloadSource::new(7, "chk", len);
        for iter in [143, 0, 96, 0, 3, u32::MAX, 143] {
            assert_eq!(source.dump(iter), payload(7, "chk", iter, len), "{iter}");
        }
    }

    #[test]
    fn a_stream_filled_in_pieces_is_the_stream_filled_at_once() {
        let mut whole = vec![0; 100];
        Lanes::at(42, 0).fill(&mut whole);
        for cuts in [[0, 0, 100], [3, 8, 13], [7, 9, 64], [16, 17, 99]] {
            let mut pieces = vec![0; 100];
            let mut lanes = Lanes::at(42, 0);
            let mut from = 0;
            for to in cuts.into_iter().chain([100]) {
                lanes.fill(&mut pieces[from..to]);
                from = to;
            }
            assert_eq!(pieces, whole, "{cuts:?}");
        }
    }

    #[test]
    fn payload_is_deterministic_and_identity_sensitive() {
        let a = payload(1, "temp", 0, 64);
        assert_eq!(a, payload(1, "temp", 0, 64));
        assert_ne!(a, payload(2, "temp", 0, 64));
        assert_ne!(a, payload(1, "pres", 0, 64));
        assert_ne!(a, payload(1, "temp", 6, 64));
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn payload_churns_a_window_between_iterations() {
        let len = 4096;
        let a = payload(3, "ckpt", 0, len);
        let b = payload(3, "ckpt", 6, len);
        let differing = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
        assert!(differing > 0, "successive dumps must not be identical");
        // Both dumps overlay their own window on the shared base, so at
        // most two windows' worth of bytes can differ.
        assert!(
            differing <= 2 * (len / 16).max(1),
            "churn window too wide: {differing} of {len} bytes differ"
        );
        // Degenerate sizes still behave.
        assert_ne!(payload(3, "ckpt", 0, 1), payload(3, "ckpt", 1, 1));
        assert!(payload(3, "ckpt", 0, 0).is_empty());
    }
}
