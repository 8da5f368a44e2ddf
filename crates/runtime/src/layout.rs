//! Array layouts and process-grid decompositions.
//!
//! Scientific datasets here are dense 3-D arrays stored row-major
//! (`[x][y][z]`, `z` fastest) — the paper's `DIMS 128,128,128` with
//! `PATTERN BBB`. A [`Distribution`] maps a [`ProcGrid`] onto the array and
//! can enumerate, for any process, the *contiguous file runs* it owns. The
//! run count is exactly the number of native I/O calls a naive strategy
//! issues — the quantity `n(j)` of the paper's eq. (2).

use crate::error::RuntimeError;
use crate::RuntimeResult;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Global array dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dims3 {
    /// Slowest-varying dimension.
    pub x: u64,
    /// Middle dimension.
    pub y: u64,
    /// Fastest-varying (contiguous) dimension.
    pub z: u64,
}

impl Dims3 {
    /// A cubic array.
    pub fn cube(n: u64) -> Self {
        Dims3 { x: n, y: n, z: n }
    }

    /// Total number of elements.
    pub fn elements(self) -> u64 {
        self.x * self.y * self.z
    }
}

impl fmt::Display for Dims3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.x, self.y, self.z)
    }
}

/// Distribution of one array dimension over the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DimDist {
    /// Contiguous block per process (`B`).
    Block,
    /// Not distributed (`*`): every process sees the full extent.
    Star,
}

/// Per-dimension distribution pattern, e.g. `BBB` or `B**`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pattern(pub [DimDist; 3]);

impl Pattern {
    /// The ubiquitous block-block-block pattern.
    pub fn bbb() -> Self {
        Pattern([DimDist::Block; 3])
    }

    /// Parse `"BBB"`, `"B**"`, … (case-insensitive).
    ///
    /// ```
    /// use msr_runtime::Pattern;
    /// assert_eq!(Pattern::parse("bbb").unwrap(), Pattern::bbb());
    /// assert!(Pattern::parse("BX*").is_err());
    /// ```
    pub fn parse(s: &str) -> RuntimeResult<Pattern> {
        let chars: Vec<char> = s.chars().collect();
        if chars.len() != 3 {
            return Err(RuntimeError::BadDistribution(format!(
                "pattern {s:?} must have exactly 3 characters"
            )));
        }
        let mut dists = [DimDist::Star; 3];
        for (i, c) in chars.iter().enumerate() {
            dists[i] = match c.to_ascii_uppercase() {
                'B' => DimDist::Block,
                '*' => DimDist::Star,
                other => {
                    return Err(RuntimeError::BadDistribution(format!(
                        "pattern {s:?}: unknown distribution {other:?}"
                    )))
                }
            };
        }
        Ok(Pattern(dists))
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in self.0 {
            f.write_str(match d {
                DimDist::Block => "B",
                DimDist::Star => "*",
            })?;
        }
        Ok(())
    }
}

/// The logical process grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcGrid {
    /// Processes along x.
    pub px: u32,
    /// Processes along y.
    pub py: u32,
    /// Processes along z.
    pub pz: u32,
}

impl ProcGrid {
    /// A grid with the given extents.
    pub fn new(px: u32, py: u32, pz: u32) -> Self {
        assert!(px > 0 && py > 0 && pz > 0, "grid extents must be positive");
        ProcGrid { px, py, pz }
    }

    /// Total process count.
    pub fn nprocs(&self) -> usize {
        (self.px * self.py * self.pz) as usize
    }

    /// A near-cubic factorization of `n` processes (largest factors first
    /// along x). Useful default for `BBB` runs.
    pub fn for_procs(n: u32) -> Self {
        assert!(n > 0);
        let mut best = (n, 1, 1);
        let mut best_score = u32::MAX;
        for px in 1..=n {
            if !n.is_multiple_of(px) {
                continue;
            }
            let rest = n / px;
            for py in 1..=rest {
                if !rest.is_multiple_of(py) {
                    continue;
                }
                let pz = rest / py;
                let score = px.max(py).max(pz) - px.min(py).min(pz);
                if score < best_score {
                    best_score = score;
                    best = (px, py, pz);
                }
            }
        }
        ProcGrid::new(best.0, best.1, best.2)
    }

    /// Decompose a linear rank into grid coordinates (x-major).
    pub fn coords(&self, rank: usize) -> (u32, u32, u32) {
        let rank = rank as u32;
        let iz = rank % self.pz;
        let iy = (rank / self.pz) % self.py;
        let ix = rank / (self.pz * self.py);
        (ix, iy, iz)
    }
}

impl fmt::Display for ProcGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.px, self.py, self.pz)
    }
}

/// Block range along one dimension: `start` and `len` for process `i` of
/// `p` over extent `n` (remainder spread over the first ranks).
fn block_range(n: u64, p: u32, i: u32) -> (u64, u64) {
    let p = u64::from(p);
    let i = u64::from(i);
    let base = n / p;
    let rem = n % p;
    let start = i * base + i.min(rem);
    let len = base + u64::from(i < rem);
    (start, len)
}

/// A contiguous file run in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chunk {
    /// Byte offset in the file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Chunk {
    /// End offset (exclusive).
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// A complete description of how a dataset is laid out and distributed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Distribution {
    /// Global array shape.
    pub dims: Dims3,
    /// Bytes per element.
    pub elem_size: u64,
    /// Per-dimension distribution.
    pub pattern: Pattern,
    /// The process grid.
    pub grid: ProcGrid,
}

impl Distribution {
    /// Build and validate a distribution. Dimensions marked `*` must have a
    /// grid extent of 1 (they are not distributed).
    pub fn new(
        dims: Dims3,
        elem_size: u64,
        pattern: Pattern,
        grid: ProcGrid,
    ) -> RuntimeResult<Self> {
        if elem_size == 0 {
            return Err(RuntimeError::BadDistribution(
                "element size must be positive".into(),
            ));
        }
        let checks = [
            (pattern.0[0], grid.px, "x"),
            (pattern.0[1], grid.py, "y"),
            (pattern.0[2], grid.pz, "z"),
        ];
        for (dist, p, dim) in checks {
            if dist == DimDist::Star && p != 1 {
                return Err(RuntimeError::BadDistribution(format!(
                    "dimension {dim} is not distributed (*) but grid extent is {p}"
                )));
            }
        }
        Ok(Distribution {
            dims,
            elem_size,
            pattern,
            grid,
        })
    }

    /// One process owning `bytes` contiguous bytes, as one opaque
    /// element: how a stored object is copied whole.
    pub fn whole(bytes: u64) -> Self {
        Distribution {
            dims: Dims3::cube(1),
            elem_size: bytes,
            pattern: Pattern::bbb(),
            grid: ProcGrid::new(1, 1, 1),
        }
    }

    /// Total bytes of the global array.
    pub fn total_bytes(&self) -> u64 {
        self.dims.elements() * self.elem_size
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.grid.nprocs()
    }

    /// The element ranges `(start, len)` a process owns along each dim.
    pub fn local_ranges(&self, rank: usize) -> [(u64, u64); 3] {
        let (ix, iy, iz) = self.grid.coords(rank);
        let r = |dist: DimDist, n: u64, p: u32, i: u32| match dist {
            DimDist::Block => block_range(n, p, i),
            DimDist::Star => (0, n),
        };
        [
            r(self.pattern.0[0], self.dims.x, self.grid.px, ix),
            r(self.pattern.0[1], self.dims.y, self.grid.py, iy),
            r(self.pattern.0[2], self.dims.z, self.grid.pz, iz),
        ]
    }

    /// Bytes owned by a process.
    pub fn bytes_for(&self, rank: usize) -> u64 {
        self.local_ranges(rank)
            .iter()
            .map(|&(_, l)| l)
            .product::<u64>()
            * self.elem_size
    }

    /// The contiguous file runs (in byte offsets) owned by `rank`, in file
    /// order, with adjacent runs merged. The length of this list is the
    /// naive native-call count `n(j)` for this process.
    pub fn chunks_for(&self, rank: usize) -> Vec<Chunk> {
        let [(x0, ex), (y0, ey), (z0, ez)] = self.local_ranges(rank);
        if ex == 0 || ey == 0 || ez == 0 {
            return Vec::new();
        }
        let (ny, nz) = (self.dims.y, self.dims.z);
        let es = self.elem_size;
        let mut chunks: Vec<Chunk> = Vec::with_capacity((ex * ey) as usize);
        for x in x0..x0 + ex {
            for y in y0..y0 + ey {
                let offset = ((x * ny + y) * nz + z0) * es;
                let len = ez * es;
                match chunks.last_mut() {
                    Some(last) if last.end() == offset => last.len += len,
                    _ => chunks.push(Chunk { offset, len }),
                }
            }
        }
        chunks
    }

    /// `(runs, first run bytes, covering extent)` of `rank` in closed
    /// form: what `chunks_for(rank)` would report as its length, its first
    /// run's length and the span from its first byte to its last, without
    /// building the list. `None` for a rank that owns nothing.
    ///
    /// Rows along z merge into one run only where the rank owns the whole z
    /// extent, and those runs merge across x only where it also owns the
    /// whole y extent — hence `ex·ey` runs, `ex`, or one. Every run of a
    /// rank is as long as its first.
    pub(crate) fn shape(&self, rank: usize) -> Option<(u64, u64, Chunk)> {
        let [(x0, ex), (y0, ey), (z0, ez)] = self.local_ranges(rank);
        if ex == 0 || ey == 0 || ez == 0 {
            return None;
        }
        let (ny, nz, es) = (self.dims.y, self.dims.z, self.elem_size);
        let (runs, first) = if ez < nz {
            (ex * ey, ez)
        } else if ey < ny {
            (ex, ey * nz)
        } else {
            (1, ex * ny * nz)
        };
        let extent = Chunk {
            offset: ((x0 * ny + y0) * nz + z0) * es,
            len: (((ex - 1) * ny + (ey - 1)) * nz + ez) * es,
        };
        Some((runs, first * es, extent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(n: u64, grid: ProcGrid) -> Distribution {
        Distribution::new(Dims3::cube(n), 4, Pattern::bbb(), grid).unwrap()
    }

    #[test]
    fn pattern_parsing() {
        assert_eq!(Pattern::parse("BBB").unwrap(), Pattern::bbb());
        assert_eq!(
            Pattern::parse("b*B").unwrap().0,
            [DimDist::Block, DimDist::Star, DimDist::Block]
        );
        assert!(Pattern::parse("BB").is_err());
        assert!(Pattern::parse("BBC").is_err());
        assert_eq!(Pattern::bbb().to_string(), "BBB");
        assert_eq!(Pattern::parse("B**").unwrap().to_string(), "B**");
    }

    #[test]
    fn a_whole_object_is_one_run_on_one_process() {
        let d = Distribution::whole(1234);
        assert_eq!(
            (d.total_bytes(), d.nprocs(), d.bytes_for(0)),
            (1234, 1, 1234)
        );
        assert_eq!(
            d.chunks_for(0),
            [Chunk {
                offset: 0,
                len: 1234
            }]
        );
        let whole = Chunk {
            offset: 0,
            len: 1234,
        };
        assert_eq!(d.shape(0), Some((1, 1234, whole)));
    }

    #[test]
    fn grid_factorization_is_near_cubic() {
        let g = ProcGrid::for_procs(8);
        assert_eq!((g.px, g.py, g.pz), (2, 2, 2));
        let g = ProcGrid::for_procs(12);
        assert_eq!(g.nprocs(), 12);
        assert!(g.px.max(g.py).max(g.pz) <= 4);
        let g = ProcGrid::for_procs(1);
        assert_eq!((g.px, g.py, g.pz), (1, 1, 1));
    }

    #[test]
    fn coords_roundtrip() {
        let g = ProcGrid::new(2, 3, 4);
        let mut seen = std::collections::HashSet::new();
        for r in 0..g.nprocs() {
            let (x, y, z) = g.coords(r);
            assert!(x < 2 && y < 3 && z < 4);
            assert!(seen.insert((x, y, z)));
        }
    }

    #[test]
    fn block_ranges_tile_the_dimension() {
        for (n, p) in [(128u64, 4u32), (100, 3), (7, 7), (5, 8)] {
            let mut covered = 0;
            for i in 0..p {
                let (s, l) = block_range(n, p, i);
                assert_eq!(s, covered, "ranges must be contiguous");
                covered += l;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn star_dim_with_multi_grid_rejected() {
        let err = Distribution::new(
            Dims3::cube(8),
            4,
            Pattern::parse("B*B").unwrap(),
            ProcGrid::new(2, 2, 1),
        );
        assert!(matches!(err, Err(RuntimeError::BadDistribution(_))));
    }

    #[test]
    fn chunks_cover_exactly_owned_bytes() {
        let d = dist(16, ProcGrid::new(2, 2, 2));
        let mut total = 0;
        for r in 0..d.nprocs() {
            let chunks = d.chunks_for(r);
            let sum: u64 = chunks.iter().map(|c| c.len).sum();
            assert_eq!(sum, d.bytes_for(r));
            total += sum;
        }
        assert_eq!(total, d.total_bytes());
    }

    #[test]
    fn chunks_do_not_overlap_across_procs() {
        let d = dist(8, ProcGrid::new(2, 2, 2));
        let mut all: Vec<Chunk> = (0..d.nprocs()).flat_map(|r| d.chunks_for(r)).collect();
        all.sort_by_key(|c| c.offset);
        for w in all.windows(2) {
            assert!(w[0].end() <= w[1].offset, "overlap: {w:?}");
        }
        let sum: u64 = all.iter().map(|c| c.len).sum();
        assert_eq!(sum, d.total_bytes());
    }

    #[test]
    fn full_z_and_y_ownership_merges_runs() {
        // Distribute only x: each process owns a fully contiguous slab.
        let d = Distribution::new(
            Dims3::cube(8),
            4,
            Pattern::parse("B**").unwrap(),
            ProcGrid::new(4, 1, 1),
        )
        .unwrap();
        for r in 0..4 {
            assert_eq!(d.chunks_for(r).len(), 1, "slab must be one run");
        }
    }

    #[test]
    fn bbb_run_count_is_ex_times_ey() {
        // 128^3 over 2x2x2: per-proc 64x64 runs of 64 elements — the naive
        // call explosion that motivates collective I/O.
        let d = dist(128, ProcGrid::new(2, 2, 2));
        let chunks = d.chunks_for(0);
        assert_eq!(chunks.len(), 64 * 64);
        assert_eq!(chunks[0].len, 64 * 4);
    }

    #[test]
    fn single_proc_owns_one_run() {
        let d = dist(32, ProcGrid::new(1, 1, 1));
        let chunks = d.chunks_for(0);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len, d.total_bytes());
    }

    #[test]
    fn extent_covers_all_chunks() {
        let d = dist(16, ProcGrid::new(2, 2, 2));
        for r in 0..8 {
            let (_, _, e) = d.shape(r).unwrap();
            for c in d.chunks_for(r) {
                assert!(c.offset >= e.offset && c.end() <= e.end());
            }
        }
    }

    /// Every grid of at most 12 processes the pattern allows.
    fn legal_grids(pattern: Pattern) -> Vec<ProcGrid> {
        let extents = |d: DimDist| match d {
            DimDist::Block => 1..=12u32,
            DimDist::Star => 1..=1,
        };
        let mut grids = Vec::new();
        for px in extents(pattern.0[0]) {
            for py in extents(pattern.0[1]) {
                for pz in extents(pattern.0[2]) {
                    if px * py * pz <= 12 {
                        grids.push(ProcGrid::new(px, py, pz));
                    }
                }
            }
        }
        grids
    }

    #[test]
    fn shape_and_extent_equal_the_run_list() {
        let mut shapes: Vec<Dims3> = Vec::new();
        for x in [1, 2, 5, 8, 17] {
            for y in [1, 2, 5, 8, 17] {
                shapes.extend([1, 2, 5, 8, 17].map(|z| Dims3 { x, y, z }));
            }
        }
        shapes.push(Dims3 { x: 3, y: 8, z: 5 });
        let mut idle_ranks = 0;
        for pattern in ["BBB", "BB*", "B**", "*B*", "**B", "***"] {
            let pattern = Pattern::parse(pattern).unwrap();
            for grid in legal_grids(pattern) {
                for &dims in &shapes {
                    let d = Distribution::new(dims, 4, pattern, grid).unwrap();
                    for rank in 0..d.nprocs() {
                        let chunks = d.chunks_for(rank);
                        let listed = match (chunks.first(), chunks.last()) {
                            (Some(first), Some(last)) => Some(Chunk {
                                offset: first.offset,
                                len: last.end() - first.offset,
                            }),
                            _ => None,
                        };
                        idle_ranks += usize::from(listed.is_none());
                        let at = format!("{dims} {pattern} {grid} rank {rank}");
                        assert_eq!(
                            d.shape(rank),
                            listed.map(|e| (chunks.len() as u64, chunks[0].len, e)),
                            "{at}"
                        );
                        assert!(chunks.iter().all(|c| c.len == chunks[0].len), "{at}");
                    }
                }
            }
        }
        assert!(idle_ranks > 0, "a dimension shorter than its grid");
    }

    #[test]
    fn uneven_extents_still_tile() {
        let d = Distribution::new(
            Dims3 { x: 7, y: 5, z: 3 },
            2,
            Pattern::bbb(),
            ProcGrid::new(2, 2, 2),
        )
        .unwrap();
        let total: u64 = (0..8).map(|r| d.bytes_for(r)).sum();
        assert_eq!(total, d.total_bytes());
    }

    #[test]
    fn zero_elem_size_rejected() {
        assert!(
            Distribution::new(Dims3::cube(4), 0, Pattern::bbb(), ProcGrid::new(1, 1, 1)).is_err()
        );
    }
}
