//! Volren — the parallel volume renderer.
//!
//! "It generates a 2D image by projection given a 3D input file … then
//! performs a parallel volume rendering algorithm to generate a
//! 2-dimensional image dataset for each iteration." Rays are cast along
//! the z axis, parallelized over image rows with rayon; two classic
//! projections are provided.

use crate::image::Image;
use crate::workload::u8_volume_dims;
use msr_core::{CoreError, CoreResult, MsrSystem};
use msr_meta::RunId;
use msr_runtime::{IoStrategy, ProcGrid, Superfile};
use msr_sim::SimDuration;
use msr_storage::SharedResource;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The projection used along each ray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RenderMode {
    /// Maximum-intensity projection.
    MaxIntensity,
    /// Front-to-back alpha compositing with a linear opacity transfer
    /// function.
    Compositing,
}

/// Render a cubic u8 volume of side `n` (row-major `[x][y][z]`) into an
/// `n × n` image by casting rays along z. An empty volume renders the empty
/// 0×0 image.
///
/// # Panics
/// Panics when `volume.len() != n³`.
pub fn render(volume: &[u8], n: usize, mode: RenderMode) -> Image {
    assert_eq!(volume.len(), n * n * n, "volume must be n^3 bytes");
    let mut img = Image::new(n as u32, n as u32);
    if n == 0 {
        return img;
    }
    img.pixels
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(x, row)| {
            for (y, px) in row.iter_mut().enumerate() {
                let ray = &volume[(x * n + y) * n..(x * n + y) * n + n];
                *px = match mode {
                    RenderMode::MaxIntensity => ray.iter().copied().max().unwrap_or(0),
                    RenderMode::Compositing => {
                        // Front-to-back: C += (1-A)·α·c ; A += (1-A)·α.
                        let mut color = 0.0f32;
                        let mut alpha = 0.0f32;
                        for &s in ray {
                            let a = f32::from(s) / 255.0 * 0.06;
                            color += (1.0 - alpha) * a * f32::from(s);
                            alpha += (1.0 - alpha) * a;
                            if alpha > 0.99 {
                                break;
                            }
                        }
                        color.clamp(0.0, 255.0) as u8
                    }
                };
            }
        });
    img
}

/// Accounting of a whole Volren pass over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VolrenReport {
    /// Iterations rendered.
    pub frames: u32,
    /// Virtual time spent reading the input volumes.
    pub read_time: SimDuration,
    /// Virtual time spent writing the output images.
    pub write_time: SimDuration,
    /// Total image bytes produced.
    pub image_bytes: u64,
}

/// Render every dump of `dataset` from `run` and store each frame as its
/// own small file under `prefix` on `resource` — the naive small-file
/// pattern the superfile experiment (Fig. 10(c)) compares against.
#[allow(clippy::too_many_arguments)]
pub fn run_volren(
    sys: &MsrSystem,
    run: RunId,
    dataset: &str,
    iterations: u32,
    frequency: u32,
    grid: ProcGrid,
    mode: RenderMode,
    resource: &SharedResource,
    prefix: &str,
) -> CoreResult<VolrenReport> {
    let mut report = VolrenReport {
        frames: 0,
        read_time: SimDuration::ZERO,
        write_time: SimDuration::ZERO,
        image_bytes: 0,
    };
    if frequency == 0 {
        return Ok(report);
    }
    let mut iter = 0;
    while iter <= iterations {
        let (bytes, io) = sys.read_dataset(run, dataset, iter, grid, IoStrategy::Collective)?;
        report.read_time += io.elapsed;
        let n = u8_volume_dims(bytes.len()).ok_or_else(|| {
            CoreError::DatasetDisabled(format!("{dataset}: not a cubic u8 volume"))
        })?;
        let img = render(&bytes, n, mode);
        let pgm = img.to_pgm();
        report.image_bytes += pgm.len() as u64;
        {
            let mut r = resource.lock();
            let path = format!("{prefix}/image.t{iter:05}.pgm");
            let open = r.open(&path, msr_storage::OpenMode::Create)?;
            report.write_time += open.time;
            report.write_time += r.write(open.value, &pgm)?.time;
            report.write_time += r.close(open.value)?.time;
        }
        report.frames += 1;
        iter += frequency;
    }
    Ok(report)
}

/// Superfile variant of [`run_volren`]: renders the same frames but appends
/// them to a container on `resource`, returning the report and the closed
/// superfile (index persisted).
#[allow(clippy::too_many_arguments)]
pub fn run_volren_superfile(
    sys: &MsrSystem,
    run: RunId,
    dataset: &str,
    iterations: u32,
    frequency: u32,
    grid: ProcGrid,
    mode: RenderMode,
    resource: &SharedResource,
    container_path: &str,
) -> CoreResult<(VolrenReport, Superfile)> {
    let mut report = VolrenReport {
        frames: 0,
        read_time: SimDuration::ZERO,
        write_time: SimDuration::ZERO,
        image_bytes: 0,
    };
    let (setup, mut sf) = Superfile::create(resource, container_path)?;
    report.write_time += setup;
    if frequency > 0 {
        let mut iter = 0;
        while iter <= iterations {
            let (bytes, io) = sys.read_dataset(run, dataset, iter, grid, IoStrategy::Collective)?;
            report.read_time += io.elapsed;
            let n = u8_volume_dims(bytes.len()).ok_or_else(|| {
                CoreError::DatasetDisabled(format!("{dataset}: not a cubic u8 volume"))
            })?;
            let img = render(&bytes, n, mode);
            let pgm = img.to_pgm();
            report.image_bytes += pgm.len() as u64;
            report.write_time +=
                sf.write_member(resource, &format!("image.t{iter:05}.pgm"), &pgm)?;
            report.frames += 1;
            iter += frequency;
        }
    }
    report.write_time += sf.close(resource)?;
    Ok((report, sf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synthetic_volume;

    #[test]
    fn mip_finds_the_bright_voxel() {
        let n = 8;
        let mut vol = vec![10u8; n * n * n];
        vol[(3 * n + 4) * n + 5] = 250; // (x=3, y=4, z=5)
        let img = render(&vol, n, RenderMode::MaxIntensity);
        assert_eq!(img.get(4, 3), 250, "image is (x=row, y=col)");
        assert_eq!(img.get(0, 0), 10);
    }

    #[test]
    fn compositing_monotone_in_density() {
        let n = 8;
        let dim = vec![20u8; n * n * n];
        let bright = vec![200u8; n * n * n];
        let a = render(&dim, n, RenderMode::Compositing);
        let b = render(&bright, n, RenderMode::Compositing);
        assert!(b.mean() > a.mean());
    }

    #[test]
    fn render_is_deterministic() {
        let vol = synthetic_volume(16, 9);
        let a = render(&vol, 16, RenderMode::Compositing);
        let b = render(&vol, 16, RenderMode::Compositing);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "n^3")]
    fn wrong_volume_size_panics() {
        render(&[0u8; 10], 3, RenderMode::MaxIntensity);
    }

    #[test]
    fn an_empty_volume_renders_the_empty_image() {
        for mode in [RenderMode::MaxIntensity, RenderMode::Compositing] {
            assert_eq!(render(&[], 0, mode), Image::new(0, 0), "{mode:?}");
        }
    }

    #[test]
    fn empty_ray_is_black() {
        let img = render(&[0u8; 27], 3, RenderMode::Compositing);
        assert_eq!(img.min_max(), (0, 0));
    }
}
