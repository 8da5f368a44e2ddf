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
//! and [`RatioBook::learned`] hands them to
//! [`plan_time`](crate::plan_time), so placement, prefetch admission, and
//! lifecycle pricing all estimate what the chunk plane will really move
//! and how many objects it will touch.
//!
//! Datasets the book has never observed (or with chunking disabled)
//! predict at ratio `1.0` and one object, the [`Learned::default`] that
//! prices every plan bit for bit as it is — predictions without chunking
//! are unchanged. The benchmark's `ckpt_chunked` workload measures what
//! the book is worth: with the learned shape ignored its
//! `predict_agreement_pct` falls from 88.55 to 60.93 at seed 2000
//! (DESIGN.md §5).

use std::collections::BTreeMap;

/// EWMA smoothing factor: the weight of the newest observed dump.
const ALPHA: f64 = 0.3;

/// What the book has learned of one dataset's dumps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Learned {
    /// EWMA of `moved / logical` bytes.
    pub ratio: f64,
    /// EWMA of objects written per dump.
    pub objects: f64,
}

impl Default for Learned {
    /// A dataset the book has not seen: every byte moved, one object.
    fn default() -> Self {
        Learned {
            ratio: 1.0,
            objects: 1.0,
        }
    }
}

impl Learned {
    /// `bytes` as eq. (2) should price them when the chunk plane moves
    /// only `ratio` of the logical bytes (dedup shrinks transfers, not the
    /// calls). Unchanged at a ratio ≥ 1 or not finite, so unchunked prices
    /// stay bit for bit; a nonzero figure never rounds down to zero.
    pub fn scale(&self, bytes: u64) -> u64 {
        if !self.ratio.is_finite() || self.ratio >= 1.0 || bytes == 0 {
            return bytes;
        }
        (((bytes as f64) * self.ratio.max(0.0)).round() as u64).max(1)
    }
}

/// EWMA book of the observed shape of chunked dumps, keyed by dataset:
/// the `moved / logical` byte ratio and the objects written per dump.
#[derive(Debug, Clone, Default)]
pub struct RatioBook {
    cells: BTreeMap<String, Learned>,
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
        let sample = Learned {
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

    /// What the book has learned of `dataset`: [`Learned::default`] when
    /// nothing has been observed yet (raw datasets never enter the book,
    /// so they always predict at full logical size and one object). The
    /// one place a chunked dataset's shape enters a prediction.
    pub fn learned(&self, dataset: &str) -> Learned {
        self.cells.get(dataset).copied().unwrap_or_default()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_datasets_predict_at_full_size() {
        let book = RatioBook::new();
        assert_eq!(book.learned("astro3d"), Learned::default());
        assert_eq!(Learned::default().scale(12_345), 12_345);
    }

    #[test]
    fn first_observation_is_adopted_then_smoothed() {
        let mut book = RatioBook::new();
        book.observe("ckpt", 1000, 250, 2);
        let first = book.learned("ckpt");
        assert!((first.ratio - 0.25).abs() < 1e-12);
        assert_eq!(first.objects, 2.0);
        book.observe("ckpt", 1000, 750, 1);
        let then = book.learned("ckpt");
        // 0.25 * 0.7 + 0.75 * 0.3 = 0.40
        assert!((then.ratio - 0.40).abs() < 1e-12);
        // 2 * 0.7 + 1 * 0.3 = 1.7
        assert!((then.objects - 1.7).abs() < 1e-12);
    }

    #[test]
    fn scaling_shrinks_byte_figures() {
        let quarter = Learned {
            ratio: 0.25,
            objects: 2.0,
        };
        assert_eq!(quarter.scale(1 << 20), 1 << 18);
        assert_eq!(quarter.scale(8192), 2048);
        assert_eq!(quarter.scale(0), 0);
    }

    #[test]
    fn nonzero_figures_never_scale_to_zero() {
        let tiny = Learned {
            ratio: 0.001,
            objects: 1.0,
        };
        assert_eq!(tiny.scale(3), 1);
    }

    #[test]
    fn ratios_above_one_and_zero_dumps_are_handled() {
        let mut book = RatioBook::new();
        book.observe("d", 0, 500, 2);
        assert_eq!(book.learned("d"), Learned::default());
        book.observe("d", 100, 500, 1); // clamped to 2.0
        let inflated = book.learned("d");
        assert!((inflated.ratio - 2.0).abs() < 1e-12);
        // Inflating ratios still price at the unscaled shape: the plane
        // never ships more than logical + bounded framing overhead.
        assert_eq!(inflated.scale(1 << 20), 1 << 20);
        for ratio in [f64::NAN, f64::INFINITY] {
            let odd = Learned {
                ratio,
                objects: 1.0,
            };
            assert_eq!(odd.scale(77), 77);
        }
    }
}
