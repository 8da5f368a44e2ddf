//! # msr-apps — the simulation environment's applications
//!
//! The paper's Fig. 1(b) data flow, implemented for real:
//!
//! * [`astro3d`] — the data producer: a (simplified but genuine)
//!   3-D compressible-hydrodynamics stepper producing the paper's 19
//!   datasets — six float analysis variables (`press, temp, rho, ux, uy,
//!   uz`), seven u8 visualization variables (`vr_*`) and six float
//!   checkpoint variables (`restart_*`) — dumped through the msr-core
//!   session at per-kind frequencies.
//! * [`analysis`] — the data consumer: Maximum/mean Square Error between
//!   consecutive dumped timesteps of one variable.
//! * [`volren`] — consumer *and* producer: a parallel ray-casting volume
//!   renderer (maximum-intensity and alpha-compositing modes) that turns a
//!   `vr_*` volume into a 2-D image per iteration — the "large numbers of
//!   small files" workload behind the superfile experiment.
//! * [`image`] — the viewer stand-in: PGM encode/decode and image
//!   statistics.
//! * [`multi`] — deterministic multi-client fleets (producer + renderer +
//!   analyzer mixes) for the msr-sched concurrency experiments.
//! * [`workload`] — deterministic synthetic volumes for tests and benches.
//!
//! Fields are computed with rayon data-parallelism (the compute side of
//! the SP-2), while all I/O flows through the architecture under test.

pub mod analysis;
pub mod astro3d;
pub mod image;
pub mod multi;
pub mod volren;
pub mod workload;

pub use analysis::{max_square_error, mean_square_error, AnalysisSeries};
pub use astro3d::{Astro3d, Astro3dConfig, PlacementPlan, StepMode};
pub use image::Image;
pub use multi::{
    batch_fleet, client_fleet, consumer_fleet, noisy_fleet, quiet_fleet,
    register_antagonist_tenants, run_concurrent, run_overloaded, run_sequential, strip_tenants,
    ClientKind,
};
pub use volren::{render, RenderMode};
pub use workload::synthetic_volume;

/// Convert an f32 field to little-endian bytes (dataset wire format).
pub fn f32s_to_bytes(xs: &[f32]) -> Vec<u8> {
    // An exact-length flatten of 4-byte arrays: one allocation, and the
    // compiler stores whole vectors into it.
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Convert little-endian bytes back to f32s (up to three trailing bytes
/// are ignored).
pub fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// `f32s_to_bytes` as it stood before the single-pass rewrite, kept verbatim
/// as the oracle the fast one is held to.
#[cfg(test)]
pub(crate) mod reference {
    pub(crate) fn f32s_to_bytes(xs: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(xs.len() * 4);
        for x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_byte_roundtrip() {
        let xs = vec![0.0f32, -1.5, 3.25e7, f32::MIN_POSITIVE];
        assert_eq!(bytes_to_f32s(&f32s_to_bytes(&xs)), xs);
    }

    #[test]
    fn byte_length_is_4x() {
        assert_eq!(f32s_to_bytes(&[1.0; 10]).len(), 40);
        assert!(
            bytes_to_f32s(&[0u8; 7]).len() == 1,
            "trailing bytes ignored"
        );
    }

    #[test]
    fn converters_match_the_reference() {
        for len in [0, 1, 7, (1 << 20) + 3] {
            // Every bit pattern class, NaN payloads included: compare bits.
            let xs: Vec<f32> = (0..len as u32)
                .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
                .collect();
            let mut bytes = f32s_to_bytes(&xs);
            assert_eq!(bytes, reference::f32s_to_bytes(&xs), "{len}");
            // And back, with and without a ragged tail.
            let bits = |fs: &[f32]| fs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&bytes_to_f32s(&bytes)), bits(&xs), "{len}");
            bytes.extend([0xAB; 3]);
            assert_eq!(bits(&bytes_to_f32s(&bytes)), bits(&xs), "{len} + 3");
        }
    }
}
