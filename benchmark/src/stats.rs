//! Order statistics for host-clock samples.
//!
//! A host timing is reported as a median with its quartiles and sample
//! count. A tail is reported as the highest percentile that still has ten
//! samples beyond it (choosing-metrics §1): with 209 `write_iteration`
//! calls per repetition that is p95; with 60 it is p83, and the report
//! says so instead of printing a p95 two samples wide.

use serde::{Deserialize, Serialize};

/// Median, quartiles and sample count of one host-clock metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quartiles {
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// Samples behind the three numbers.
    pub n: usize,
}

impl Quartiles {
    /// `(p75 − p25) ÷ p50`: the run-to-run spread as a share of the median.
    pub fn spread_frac(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice (`q` in `0..=1`).
fn interpolated(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    interpolated(&sorted(samples), 0.5)
}

/// Median and quartiles of `samples` (all 0 when empty).
pub fn quartiles(samples: &[f64]) -> Quartiles {
    let s = sorted(samples);
    Quartiles {
        p25: interpolated(&s, 0.25),
        p50: interpolated(&s, 0.5),
        p75: interpolated(&s, 0.75),
        n: s.len(),
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `pct` (`0..=100`) of `samples`, lowered to the
/// highest percentile that still has [`TAIL_SAMPLES_BEYOND`] samples
/// beyond it. Returns `(value, percentile actually reported)`; with ten
/// samples or fewer the tail is not resolvable and the median is returned
/// as `(median, 50.0)`.
pub fn tail_percentile(samples: &[f64], pct: f64) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return (interpolated(&s, 0.5), 50.0);
    }
    let wanted = ((pct.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n - TAIL_SAMPLES_BEYOND);
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q.p25, q.p50, q.p75, q.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(q.spread_frac(), 2.0 / 3.0);
        let q = quartiles(&[10.0, 20.0]);
        assert_eq!((q.p25, q.p50, q.p75), (12.5, 15.0, 17.5));
        assert_eq!(quartiles(&[]).spread_frac(), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 209 write_iteration calls: p95 is rank 199, ten samples beyond.
        let xs: Vec<f64> = (1..=209).map(f64::from).collect();
        let (v, p) = tail_percentile(&xs, 95.0);
        assert_eq!(v, 199.0);
        assert!((p - 100.0 * 199.0 / 209.0).abs() < 1e-12);
        // 60 calls cannot resolve p95: the rule lowers it to rank 50.
        let xs: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        let (v, p) = tail_percentile(&xs, 95.0);
        assert_eq!(v, 50.0);
        assert!((p - 100.0 * 50.0 / 60.0).abs() < 1e-12);
        // A request below the cap is served as asked.
        assert_eq!(tail_percentile(&xs, 50.0), (30.0, 50.0));
        // Ten samples or fewer: no tail, the median is returned.
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), (5.5, 50.0));
        assert_eq!(tail_percentile(&[], 99.0), (0.0, 50.0));
    }
}
