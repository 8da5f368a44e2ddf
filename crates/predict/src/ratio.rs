//! Per-dataset transfer-shape learning for the chunked data plane.
//!
//! When a dataset is ingested through `msr-chunk`, the bytes that actually
//! cross the wire and land on media are the *post-compression, post-dedup*
//! bytes — often far fewer than the logical dump size eq. (2) would
//! otherwise price — and a dump is stored as more than one object (a
//! manifest, plus a pack of new frames), each paying its own open and
//! close. The [`RatioBook`] learns both per dataset — the observed
//! `moved / logical` byte ratio and the objects written per dump — with
//! an exponential moving average that weighs the newest dump at `0.3`,
//! and [`RatioBook::priced`] applies them so placement, prefetch
//! admission, and lifecycle pricing all estimate what the chunk plane will
//! really move and how many objects it will touch.
//!
//! Datasets the book has never observed (or with chunking disabled)
//! predict at ratio `1.0` and one object, where [`RatioBook::priced`] is a
//! bitwise no-op — predictions without chunking are unchanged. The
//! benchmark's `ckpt_chunked` workload measures what the book is worth:
//! with `priced` made an identity its `predict_agreement_pct` falls from
//! 88.55 to 60.93 at seed 2000 (DESIGN.md §5).

use crate::model::AccessSummary;
use std::collections::BTreeMap;

/// EWMA smoothing factor: the weight of the newest observed dump.
const ALPHA: f64 = 0.3;

/// What the book holds for one dataset.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// EWMA of `moved / logical` bytes.
    ratio: f64,
    /// EWMA of objects written per dump.
    objects: f64,
}

/// EWMA book of the observed shape of chunked dumps, keyed by dataset:
/// the `moved / logical` byte ratio and the objects written per dump.
#[derive(Debug, Clone, Default)]
pub struct RatioBook {
    cells: BTreeMap<String, Cell>,
}

impl RatioBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observed dump: `logical` bytes requested, `moved` bytes
    /// actually shipped (frames for absent chunks plus the manifest) as
    /// `objects` objects. Zero-byte dumps are ignored — they carry no
    /// ratio information.
    pub fn observe(&mut self, dataset: &str, logical: u64, moved: u64, objects: usize) {
        if logical == 0 {
            return;
        }
        let sample = Cell {
            ratio: (moved as f64 / logical as f64).clamp(0.0, 2.0),
            objects: objects as f64,
        };
        let fold = |old: f64, new: f64| old * (1.0 - ALPHA) + new * ALPHA;
        match self.cells.get_mut(dataset) {
            Some(cell) => {
                cell.ratio = fold(cell.ratio, sample.ratio);
                cell.objects = fold(cell.objects, sample.objects);
            }
            None => {
                // The first observation is adopted outright.
                self.cells.insert(dataset.to_string(), sample);
            }
        }
    }

    /// The learned ratio for `dataset`, or `1.0` when nothing has been
    /// observed yet (raw datasets never enter the book, so they always
    /// predict at full logical size).
    pub fn ratio(&self, dataset: &str) -> f64 {
        self.cells.get(dataset).map_or(1.0, |c| c.ratio)
    }

    /// The learned objects per dump of `dataset`, or `1.0` when nothing
    /// has been observed yet.
    pub fn objects(&self, dataset: &str) -> f64 {
        self.cells.get(dataset).map_or(1.0, |c| c.objects)
    }

    /// `access` as eq. (2) should price one dump of `dataset`: byte
    /// figures scaled by the learned ratio, the learned object count
    /// attached. The one place a chunked dataset's shape enters a
    /// prediction; returns `access` unchanged for a dataset the book has
    /// never seen.
    pub fn priced(&self, dataset: &str, access: AccessSummary) -> AccessSummary {
        match self.cells.get(dataset) {
            Some(cell) => AccessSummary {
                objects: cell.objects,
                ..access.scaled(cell.ratio)
            },
            None => access,
        }
    }

    /// Number of datasets with learned ratios.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no dataset has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl AccessSummary {
    /// This access with every byte figure scaled by `ratio` — the shape
    /// eq. (2) should price when the chunk plane is expected to move only
    /// `ratio` of the logical bytes. Counts (`nprocs`, `runs_per_proc`)
    /// and `objects` are untouched: dedup shrinks transfers, not the
    /// access pattern.
    ///
    /// At `ratio >= 1.0` (or a non-finite ratio) this returns `self`
    /// unchanged, so predictions for unchunked datasets stay bitwise
    /// identical.
    pub fn scaled(&self, ratio: f64) -> AccessSummary {
        if !ratio.is_finite() || ratio >= 1.0 {
            return *self;
        }
        let r = ratio.max(0.0);
        // Never round a nonzero figure down to zero: a dump that moves
        // any bytes at all still pays per-call fixed costs on a nonempty
        // transfer.
        let scale = |b: u64| -> u64 {
            if b == 0 {
                0
            } else {
                (((b as f64) * r).round() as u64).max(1)
            }
        };
        AccessSummary {
            total_bytes: scale(self.total_bytes),
            nprocs: self.nprocs,
            runs_per_proc: self.runs_per_proc,
            run_bytes: scale(self.run_bytes),
            extent_bytes: scale(self.extent_bytes),
            proc_bytes: scale(self.proc_bytes),
            objects: self.objects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access() -> AccessSummary {
        AccessSummary {
            total_bytes: 1 << 20,
            nprocs: 8,
            runs_per_proc: 16,
            run_bytes: 8192,
            extent_bytes: 1 << 17,
            proc_bytes: 1 << 17,
            objects: 1.0,
        }
    }

    #[test]
    fn unknown_datasets_predict_at_full_size() {
        let book = RatioBook::new();
        assert_eq!(book.ratio("astro3d"), 1.0);
        assert_eq!(book.objects("astro3d"), 1.0);
        assert_eq!(access().scaled(book.ratio("astro3d")), access());
        assert_eq!(book.priced("astro3d", access()), access());
    }

    #[test]
    fn first_observation_is_adopted_then_smoothed() {
        let mut book = RatioBook::new();
        book.observe("ckpt", 1000, 250, 2);
        assert!((book.ratio("ckpt") - 0.25).abs() < 1e-12);
        assert_eq!(book.objects("ckpt"), 2.0);
        book.observe("ckpt", 1000, 750, 1);
        // 0.25 * 0.7 + 0.75 * 0.3 = 0.40
        assert!((book.ratio("ckpt") - 0.40).abs() < 1e-12);
        // 2 * 0.7 + 1 * 0.3 = 1.7
        assert!((book.objects("ckpt") - 1.7).abs() < 1e-12);
    }

    #[test]
    fn priced_scales_bytes_and_attaches_the_object_count() {
        let mut book = RatioBook::new();
        book.observe("ckpt", 1000, 250, 2);
        let a = book.priced("ckpt", access());
        assert_eq!(a.total_bytes, 1 << 18);
        assert_eq!(a.objects, 2.0);
        assert_eq!(a.nprocs, 8);
    }

    #[test]
    fn scaling_shrinks_byte_figures_but_not_counts() {
        let a = access().scaled(0.25);
        assert_eq!(a.total_bytes, 1 << 18);
        assert_eq!(a.run_bytes, 2048);
        assert_eq!(a.nprocs, 8);
        assert_eq!(a.runs_per_proc, 16);
    }

    #[test]
    fn nonzero_figures_never_scale_to_zero() {
        let a = AccessSummary {
            total_bytes: 3,
            nprocs: 1,
            runs_per_proc: 1,
            run_bytes: 3,
            extent_bytes: 3,
            proc_bytes: 3,
            objects: 1.0,
        };
        let s = a.scaled(0.001);
        assert_eq!(s.total_bytes, 1);
        assert_eq!(s.run_bytes, 1);
    }

    #[test]
    fn ratios_above_one_and_zero_dumps_are_handled() {
        let mut book = RatioBook::new();
        book.observe("d", 0, 500, 2);
        assert_eq!(book.ratio("d"), 1.0);
        book.observe("d", 100, 500, 1); // clamped to 2.0
        assert!((book.ratio("d") - 2.0).abs() < 1e-12);
        // Inflating ratios still price at the unscaled shape: the plane
        // never ships more than logical + bounded framing overhead.
        assert_eq!(access().scaled(book.ratio("d")), access());
    }
}
