//! Size-dependent transfer-time curves.
//!
//! The paper's Figures 6–8 plot read/write time against request size for
//! each medium; the observed cost is not a single bandwidth number (small
//! requests pay proportionally more per byte). [`RateCurve`] represents the
//! device transfer-time component `T_read/write(s)` as anchor points
//! interpolated log-linearly in size — the same representation PTool later
//! regenerates empirically into the performance database.

use msr_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Piecewise transfer-time model: `(bytes, seconds)` anchors, interpolated
/// log-log between anchors, extrapolated at the edge bandwidths.
///
/// ```
/// use msr_storage::RateCurve;
/// let curve = RateCurve::constant_bandwidth(2.0); // 2 MB/s
/// assert!((curve.time_for(4_000_000).as_secs() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateCurve {
    /// Anchor points sorted by size; each is `(bytes, seconds)`.
    anchors: Vec<(u64, f64)>,
}

impl RateCurve {
    /// Build from anchor points. Points are sorted and deduplicated by size.
    ///
    /// # Panics
    /// Panics when no anchors are given or a size of zero is supplied.
    pub fn from_anchors(mut anchors: Vec<(u64, f64)>) -> Self {
        assert!(!anchors.is_empty(), "rate curve needs at least one anchor");
        assert!(
            anchors.iter().all(|&(s, t)| s > 0 && t >= 0.0),
            "anchor sizes must be positive and times non-negative"
        );
        anchors.sort_by_key(|&(s, _)| s);
        anchors.dedup_by_key(|&mut (s, _)| s);
        RateCurve { anchors }
    }

    /// A curve with constant bandwidth (MB/s decimal).
    pub fn constant_bandwidth(mb_per_s: f64) -> Self {
        assert!(mb_per_s > 0.0);
        let one_mb = 1_000_000u64;
        RateCurve::from_anchors(vec![
            (one_mb, 1.0 / mb_per_s),
            (16 * one_mb, 16.0 / mb_per_s),
        ])
    }

    /// Transfer time for a request of `bytes`.
    pub fn time_for(&self, bytes: u64) -> SimDuration {
        RateCurve::time_over(&self.anchors, bytes)
    }

    /// [`time_for`](Self::time_for) over `anchors` as they lie, without
    /// building a curve: they must be what [`from_anchors`](Self::from_anchors)
    /// keeps — at least one, sorted by size, sizes distinct and positive,
    /// times non-negative.
    ///
    /// # Panics
    /// May panic, for a nonzero `bytes`, on anchors that are not.
    pub fn time_over(anchors: &[(u64, f64)], bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let pts = anchors;
        if pts.len() == 1 {
            // Single anchor: treat as a pure bandwidth.
            let (s, t) = pts[0];
            return SimDuration::from_secs(t * bytes as f64 / s as f64);
        }
        let x = (bytes as f64).log2();
        // Below the first anchor: fit α + β·s from the first segment
        // (intercept clamped to [0, t0]). A proportional scale-down would
        // wrongly predict near-zero cost for tiny requests on media whose
        // smallest measured point is already latency-dominated (WAN round
        // trips, tape positioning).
        let (s0, t0) = pts[0];
        if bytes <= s0 {
            let (s1, t1) = pts[1];
            let beta = ((t1 - t0) / (s1 - s0) as f64).max(0.0);
            let alpha = (t0 - beta * s0 as f64).clamp(0.0, t0);
            return SimDuration::from_secs(alpha + beta * bytes as f64);
        }
        // Above the last: extrapolate with the bandwidth of the last segment.
        let (sn, tn) = pts[pts.len() - 1];
        if bytes >= sn {
            let (sp, tp) = pts[pts.len() - 2];
            let marginal = (tn - tp) / (sn - sp) as f64; // s per byte on last segment
            let marginal = marginal.max(0.0);
            return SimDuration::from_secs(tn + marginal * (bytes - sn) as f64);
        }
        // Interior: log-log interpolation between bracketing anchors, which
        // represents constant-bandwidth segments exactly (log t is linear in
        // log s with slope 1) and power-law-ish device curves faithfully.
        let idx = pts.partition_point(|&(s, _)| s < bytes);
        let (sa, ta) = pts[idx - 1];
        let (sb, tb) = pts[idx];
        let xa = (sa as f64).log2();
        let xb = (sb as f64).log2();
        let w = if xb > xa { (x - xa) / (xb - xa) } else { 0.0 };
        if ta > 0.0 && tb > 0.0 {
            SimDuration::from_secs((ta.ln() + w * (tb.ln() - ta.ln())).exp())
        } else {
            // A zero-time anchor cannot be interpolated in log space; fall
            // back to linear-in-size interpolation.
            let lw = (bytes - sa) as f64 / (sb - sa) as f64;
            SimDuration::from_secs(ta + lw * (tb - ta))
        }
    }

    /// The anchor points (for inspection / serialization round trips).
    pub fn anchors(&self) -> &[(u64, f64)] {
        &self.anchors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1_000_000;

    #[test]
    fn constant_bandwidth_scales_linearly() {
        let c = RateCurve::constant_bandwidth(2.0);
        assert!((c.time_for(2 * MB).as_secs() - 1.0).abs() < 1e-9);
        assert!((c.time_for(8 * MB).as_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_is_free() {
        let c = RateCurve::constant_bandwidth(1.0);
        assert_eq!(c.time_for(0), SimDuration::ZERO);
    }

    #[test]
    fn interpolates_between_anchors() {
        let c = RateCurve::from_anchors(vec![(MB, 1.0), (4 * MB, 3.0)]);
        // Log-log midpoint of (1MB, 1s)..(4MB, 3s) at 2MB: √3 s.
        let t = c.time_for(2 * MB).as_secs();
        assert!((t - 3.0f64.sqrt()).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn zero_time_anchor_falls_back_to_linear() {
        let c = RateCurve::from_anchors(vec![(MB, 0.0), (3 * MB, 2.0)]);
        let t = c.time_for(2 * MB).as_secs();
        assert!((t - 1.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn below_first_anchor_uses_its_per_byte_cost() {
        let c = RateCurve::from_anchors(vec![(MB, 2.0), (4 * MB, 8.0)]);
        assert!((c.time_for(MB / 2).as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn above_last_anchor_extrapolates_marginal_bandwidth() {
        let c = RateCurve::from_anchors(vec![(MB, 1.0), (2 * MB, 2.0)]);
        // Marginal rate on last segment: 1s per MB.
        assert!((c.time_for(4 * MB).as_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_size() {
        let c = RateCurve::from_anchors(vec![(64 * 1024, 0.05), (MB, 0.5), (16 * MB, 6.0)]);
        let mut last = 0.0;
        for exp in 10..28 {
            let t = c.time_for(1u64 << exp).as_secs();
            assert!(t >= last, "non-monotone at 2^{exp}");
            last = t;
        }
    }

    #[test]
    fn unsorted_anchors_are_sorted() {
        let c = RateCurve::from_anchors(vec![(4 * MB, 4.0), (MB, 1.0)]);
        assert_eq!(c.anchors()[0].0, MB);
    }

    #[test]
    #[should_panic(expected = "at least one anchor")]
    fn empty_anchor_list_rejected() {
        RateCurve::from_anchors(vec![]);
    }
}
