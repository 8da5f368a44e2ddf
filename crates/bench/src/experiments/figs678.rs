//! Figures 6, 7 and 8 — read/write time vs request size per medium.
//!
//! The paper plots `T_read/write(s)` measured by PTool for local disks
//! (Fig. 6), SDSC remote disks (Fig. 7) and HPSS tape (Fig. 8). We
//! regenerate the same series: one PTool sweep per resource, reporting the
//! measured (jittered) time next to the deterministic model.

use msr_predict::PTool;
use msr_storage::{share, testbed, OpKind, SharedResource};

/// One point of a Fig. 6/7/8 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Request size in bytes.
    pub bytes: u64,
    /// PTool-measured read time (s).
    pub read_s: f64,
    /// PTool-measured write time (s).
    pub write_s: f64,
    /// Deterministic model read time (s).
    pub model_read_s: f64,
    /// Deterministic model write time (s).
    pub model_write_s: f64,
}

fn sweep(res: SharedResource, sizes: &[u64]) -> Vec<CurvePoint> {
    let ptool = PTool {
        sizes: sizes.to_vec(),
        reps: 3,
        scratch_prefix: "ptool/fig".into(),
    };
    let (read_prof, write_prof) = ptool.profile_resource(&res).expect("sweep");
    sizes
        .iter()
        .map(|&bytes| {
            let r = res.lock();
            CurvePoint {
                bytes,
                read_s: read_prof
                    .samples
                    .iter()
                    .find(|&&(s, _)| s == bytes)
                    .map(|&(_, t)| t)
                    .unwrap_or_default(),
                write_s: write_prof
                    .samples
                    .iter()
                    .find(|&&(s, _)| s == bytes)
                    .map(|&(_, t)| t)
                    .unwrap_or_default(),
                model_read_s: r.transfer_model(OpKind::Read, bytes, 1).as_secs(),
                model_write_s: r.transfer_model(OpKind::Write, bytes, 1).as_secs(),
            }
        })
        .collect()
}

/// The sweep sizes of the figures: 64 KB … 16 MB.
pub fn figure_sizes() -> Vec<u64> {
    (16..=24).map(|e| 1u64 << e).collect()
}

/// Fig. 6 — local disk read/write time vs size.
pub fn fig6(seed: u64) -> Vec<CurvePoint> {
    let tb = testbed(seed);
    sweep(share(tb.local), &figure_sizes())
}

/// Fig. 7 — remote disk read/write time vs size.
pub fn fig7(seed: u64) -> Vec<CurvePoint> {
    let tb = testbed(seed);
    sweep(share(tb.remote_disk), &figure_sizes())
}

/// Fig. 8 — remote tape read/write time vs size.
pub fn fig8(seed: u64) -> Vec<CurvePoint> {
    let tb = testbed(seed);
    sweep(share(tb.tape), &figure_sizes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monotone(points: &[CurvePoint], f: impl Fn(&CurvePoint) -> f64) -> bool {
        points.windows(2).all(|w| f(&w[0]) <= f(&w[1]) * 1.3)
    }

    #[test]
    fn fig6_local_is_fast_and_grows_with_size() {
        let c = fig6(3);
        assert_eq!(c.len(), 9);
        assert!(c.last().unwrap().write_s > c.first().unwrap().write_s);
        // 16 MB at ~17 MB/s ≈ 1 s.
        assert!((0.5..2.0).contains(&c.last().unwrap().write_s));
        assert!(monotone(&c, |p| p.model_write_s));
    }

    #[test]
    fn fig7_remote_disk_is_wan_bound() {
        let c = fig7(3);
        // 2 MiB ≈ 8.5 s total transfer at the calibrated WAN+server rate.
        let p2m = c.iter().find(|p| p.bytes == 1 << 21).unwrap();
        assert!((5.0..12.0).contains(&p2m.write_s), "got {}", p2m.write_s);
    }

    #[test]
    fn fig8_tape_orders_slowest() {
        let (c6, c7, c8) = (fig6(4), fig7(4), fig8(4));
        for i in 0..c6.len() {
            assert!(c6[i].model_write_s < c7[i].model_write_s);
            assert!(c7[i].model_write_s < c8[i].model_write_s);
        }
    }

    #[test]
    fn measured_tracks_model_within_jitter() {
        for p in fig7(5) {
            if p.bytes >= 1 << 18 {
                let err = (p.write_s - p.model_write_s).abs() / p.model_write_s;
                assert!(
                    err < 0.5,
                    "size {}: measured {} model {}",
                    p.bytes,
                    p.write_s,
                    p.model_write_s
                );
            }
        }
    }
}
