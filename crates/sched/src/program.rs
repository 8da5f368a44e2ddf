//! What a client asks the scheduler to run.
//!
//! A [`SessionProgram`] is the whole I/O side of one application run,
//! declared up front: the catalog identity, the process grid, the
//! iteration count and the datasets with their hints. At admission the
//! scheduler opens a real catalog session for it, resolves placements
//! (through the scored AUTO policy) and expands the program into tagged
//! [`msr_runtime::EngineRequest`]s — one write per dump the Fig. 5 main
//! loop would have issued, in program order.
//!
//! The bytes those writes carry are synthesised here too. Nothing the
//! virtual clock reports depends on them, but the chunk plane's dedup and
//! compression do, and they are the largest thing the *host* clock pays
//! for at admission, so a [`PayloadSource`] makes them cheaply: the base
//! stream of a dataset is generated once, eight bytes abreast, and each
//! dump is a copy of it with a freshly generated churn window. The bytes
//! themselves are frozen (`tests/payload_fingerprint.rs`); the generator
//! they were first defined by survives as the reference in this module's
//! tests.

use bytes::Bytes;
use msr_core::DatasetSpec;
use msr_runtime::ProcGrid;
use msr_sim::SimDuration;

/// One client's declared run, admitted as a unit.
#[derive(Debug, Clone)]
pub struct SessionProgram {
    /// Application name registered in the catalog.
    pub app: String,
    /// User name registered in the catalog.
    pub user: String,
    /// Main-loop iterations of the run.
    pub iterations: u32,
    /// The parallel process grid.
    pub grid: ProcGrid,
    /// Datasets the run dumps, in open order.
    pub datasets: Vec<DatasetSpec>,
    /// Also read every dataset's first dump back at the end of the
    /// program (a post-processing consumer folded into the same session).
    pub readback: bool,
    /// Read this many of each dataset's earliest dumps back at the end of
    /// the program. Unlike [`readback`](SessionProgram::readback) (which
    /// chains its single read directly behind the dumps), a non-zero
    /// `readbacks` expands with a sequence hole before the reads, so the
    /// consumer reads form their own dispatch chains — the shape the
    /// prediction-driven prefetcher can overlap with other sessions'
    /// foreground work.
    pub readbacks: u32,
    /// The tenant this run belongs to. `None` lands on the default
    /// tenant (weight 1, no quotas, no SLO); a name is resolved against
    /// the system's [`msr_core::TenantRegistry`], auto-registering with
    /// defaults when unknown.
    pub tenant: Option<String>,
    /// Completion deadline, in virtual time from the drain's start. A
    /// session whose remaining predicted work can no longer finish by
    /// the deadline is cancelled mid-drain: its queued requests are
    /// removed and its partial report carries the cancellation reason.
    pub deadline: Option<SimDuration>,
}

impl SessionProgram {
    /// A program with defaults: user `"user"`, 12 iterations, a 1×1×1
    /// grid, no datasets, no readback.
    pub fn new(app: &str) -> SessionProgram {
        SessionProgram {
            app: app.to_owned(),
            user: "user".to_owned(),
            iterations: 12,
            grid: ProcGrid::new(1, 1, 1),
            datasets: Vec::new(),
            readback: false,
            readbacks: 0,
            tenant: None,
            deadline: None,
        }
    }

    /// User name registered in the catalog.
    pub fn user(mut self, user: &str) -> Self {
        self.user = user.to_owned();
        self
    }

    /// Main-loop iterations.
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// The process grid.
    pub fn grid(mut self, grid: ProcGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Add one dataset.
    pub fn dataset(mut self, spec: DatasetSpec) -> Self {
        self.datasets.push(spec);
        self
    }

    /// Read each dataset's first dump back at the end of the program.
    pub fn readback(mut self, readback: bool) -> Self {
        self.readback = readback;
        self
    }

    /// Read each dataset's `n` earliest dumps back at the end of the
    /// program, expanded as standalone read chains (see
    /// [`SessionProgram::readbacks`]).
    pub fn readbacks(mut self, n: u32) -> Self {
        self.readbacks = n;
        self
    }

    /// Tag the run with a tenant name (see [`SessionProgram::tenant`]).
    pub fn tenant(mut self, tenant: &str) -> Self {
        self.tenant = Some(tenant.to_owned());
        self
    }

    /// Set a completion deadline in virtual time from the drain's start
    /// (see [`SessionProgram::deadline`]).
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The LCG every payload byte comes from: `x ← A·x + C (mod 2⁶⁴)`, one
/// step per byte, the byte being the state's top eight bits.
const A: u64 = 6364136223846793005;
const C: u64 = 1442695040888963407;

/// Eight LCG steps composed into one: `x[k+8] = A8·x[k] + C8` with
/// `A8 = A⁸` and `C8 = C·(A⁷ + … + A + 1)`, by doubling the affine map
/// three times. Exact in wrapping arithmetic, because composing affine
/// maps over ℤ/2⁶⁴ only ever multiplies and adds.
const JUMP: (u64, u64) = {
    let mut step = (A, C);
    let mut doublings = 0;
    while doublings < 3 {
        let (a, c) = step;
        step = (a.wrapping_mul(a), a.wrapping_mul(c).wrapping_add(c));
        doublings += 1;
    }
    step
};

/// One LCG stream read eight bytes abreast. Lane `j` holds the state whose
/// top byte is the `j`-th byte still to come; emitting a byte jumps its
/// lane eight positions ahead. The byte-serial loop is one dependent
/// multiply-add per byte; here eight independent ones are in flight, which
/// is what the processor (or the vectoriser) needs to overlap them.
struct Lanes([u64; 8]);

impl Lanes {
    /// The stream of `seed`: lane `j` is `j + 1` serial steps from it.
    fn new(seed: u64) -> Lanes {
        let mut x = seed | 1;
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
}

/// The dumps of one dataset of one session: the base stream, generated
/// once, and the identity its churn windows are keyed by.
///
/// Dump `iter` is the base LCG stream seeded from `(session, dataset)`
/// with a churn window of ~1/16 of the bytes laid over it, so replays are
/// bitwise identical regardless of worker count or admission interleaving.
/// The churn shape mirrors a checkpointing producer — successive dumps of
/// one dataset share most of their bytes, with a sliding window of fresh
/// data per iteration — which is what gives the content-addressed chunk
/// plane dedup to find. Request *timing* is unaffected: virtual I/O costs
/// depend on sizes, never on payload content.
pub struct PayloadSource {
    seed: u64,
    base: Vec<u8>,
}

impl PayloadSource {
    /// Generate the `len`-byte base stream of `(session, dataset)`.
    pub fn new(session: u64, dataset: &str, len: usize) -> PayloadSource {
        let mut seed = 0xcbf29ce484222325u64 ^ session.wrapping_mul(0x9e3779b97f4a7c15);
        for b in dataset.bytes() {
            seed = (seed ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        let mut base = vec![0; len];
        Lanes::new(seed).fill(&mut base);
        PayloadSource { seed, base }
    }

    /// The payload of dump `iter`: one copy of the base with the churn
    /// window generated in place.
    pub fn dump(&self, iter: u32) -> Bytes {
        let mut out = self.base.clone();
        let len = out.len();
        if len > 0 {
            // Churn window: position walks the payload with iteration,
            // content is keyed by the full identity so every iteration
            // differs. A window that runs off the end continues at the
            // front.
            let window = (len / 16).max(1);
            let at = (iter as usize).wrapping_mul(7919) % len;
            let mut churn =
                Lanes::new(self.seed ^ u64::from(iter).wrapping_mul(0x2545f4914f6cdd1d));
            let (front, back) = out.split_at_mut(at);
            let head = window.min(back.len());
            churn.fill(&mut back[..head]);
            churn.fill(&mut front[..window - head]);
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
        Lanes::new(42).fill(&mut whole);
        for cuts in [[0, 0, 100], [3, 8, 13], [7, 9, 64], [16, 17, 99]] {
            let mut pieces = vec![0; 100];
            let mut lanes = Lanes::new(42);
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

    #[test]
    fn program_builder_composes() {
        let p = SessionProgram::new("astro3d")
            .user("me")
            .iterations(24)
            .grid(ProcGrid::new(2, 1, 1))
            .dataset(DatasetSpec::builder("temp").build())
            .dataset(DatasetSpec::builder("pres").build())
            .readback(true);
        assert_eq!(p.app, "astro3d");
        assert_eq!(p.iterations, 24);
        assert_eq!(p.datasets.len(), 2);
        assert!(p.readback);
    }
}
