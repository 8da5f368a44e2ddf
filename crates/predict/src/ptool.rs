//! PTool — automatic generation of the performance database.
//!
//! §4.1: "To efficiently obtain these numbers, we built a tool called PTool
//! that can automatically generate all these numbers … so the user can
//! easily set up her basic performance prediction database in a single
//! run." PTool exercises each live resource with a size sweep, measures
//! every eq. (1) component (with one warm-up and the median of the
//! repetitions kept, since measurements are jittered exactly like the
//! paper's), and fills a [`PerfDb`]. The fixed-cost warm-up is the scratch
//! volume's first open: on tape it pays the mount, which the sweep keeps
//! as the row's [`FixedCosts::mount`] (that open minus the row's median
//! warm open).

use crate::perfdb::{PerfDb, ResourceProfile};
use crate::{PredictError, PredictResult};
use msr_sim::SimDuration;
use msr_storage::{FixedCosts, OpKind, OpenMode, Payload, SharedResource};

/// The measurement sweep configuration.
#[derive(Debug, Clone)]
pub struct PTool {
    /// Request sizes to measure (the x-axis of Figs. 6–8).
    pub sizes: Vec<u64>,
    /// Repetitions per point (median kept, after one discarded warm-up).
    pub reps: usize,
    /// Scratch path prefix on each resource.
    pub scratch_prefix: String,
}

impl Default for PTool {
    fn default() -> Self {
        PTool {
            // 4 KB … 16 MB in powers of two: the small sizes capture the
            // per-request latency floor of remote media.
            sizes: (12..=24).map(|e| 1u64 << e).collect(),
            reps: 3,
            scratch_prefix: "ptool/scratch".to_owned(),
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

impl PTool {
    /// Measure one resource and produce its read and write profiles. A
    /// size of zero is a [`PredictError::BadSample`], before any call.
    pub fn profile_resource(
        &self,
        res: &SharedResource,
    ) -> PredictResult<(ResourceProfile, ResourceProfile)> {
        // Sweep sizes in the order the samples are kept; a zero size has
        // no rate to measure.
        let mut sizes = self.sizes.clone();
        sizes.sort_unstable();
        sizes.dedup();
        if sizes.first() == Some(&0) {
            return Err(PredictError::BadSample {
                bytes: 0,
                secs: None,
            });
        }
        let mut r = res.lock();
        let kind = r.kind();
        let reps = self.reps.max(1);

        // --- connection costs (disconnect/connect cycles, skip warm-up) ---
        let mut conns = Vec::with_capacity(reps);
        let mut connclose = Vec::with_capacity(reps);
        r.connect()?; // warm-up
        for _ in 0..reps {
            connclose.push(r.disconnect()?.time.as_secs());
            conns.push(r.connect()?.time.as_secs());
        }
        let t_conn = SimDuration::from_secs(median(conns));
        let t_connclose = SimDuration::from_secs(median(connclose));

        // --- open/close/seek constants per op ---
        let scratch = format!("{}.fixed", self.scratch_prefix);
        let mut open_w = Vec::new();
        let mut close_w = Vec::new();
        let mut open_r = Vec::new();
        let mut close_r = Vec::new();
        let mut seeks = Vec::new();
        // The warm-up create is the scratch volume's first open: where it
        // mounted, it is timed as the mount's measurement.
        let mounts = r.mounts();
        let first = r.open(&scratch, OpenMode::Create)?;
        let mounted = r.mounts() > mounts;
        r.write(first.value, &[0u8; 4096])?;
        r.close(first.value)?;
        for _ in 0..reps {
            let o = r.open(&scratch, OpenMode::OverWrite)?;
            open_w.push(o.time.as_secs());
            seeks.push(r.seek(o.value, 0)?.time.as_secs());
            close_w.push(r.close(o.value)?.time.as_secs());
            let o = r.open(&scratch, OpenMode::Read)?;
            open_r.push(o.time.as_secs());
            close_r.push(r.close(o.value)?.time.as_secs());
        }
        let fixed_for = |op: OpKind, open: &[f64], close: &[f64]| {
            let open = SimDuration::from_secs(median(open.to_vec()));
            FixedCosts {
                conn: t_conn,
                open,
                seek: SimDuration::from_secs(median(seeks.clone())),
                close: SimDuration::from_secs(median(close.to_vec())),
                connclose: t_connclose,
                // A cold open is the row's warm open plus the mount. A
                // sweep whose volume was already on a drive (a re-sweep)
                // sees no mount, and keeps the model's expected one.
                mount: if mounted {
                    first.time.saturating_sub(open)
                } else {
                    r.fixed_costs(op).mount
                },
            }
        };
        let fixed_write = fixed_for(OpKind::Write, &open_w, &close_w);
        let fixed_read = fixed_for(OpKind::Read, &open_r, &close_r);

        // --- transfer curves ---
        let mut write_samples = Vec::with_capacity(sizes.len());
        let mut read_samples = Vec::with_capacity(sizes.len());
        for &size in &sizes {
            let path = format!("{}.{}", self.scratch_prefix, size);
            // A fill the resource keeps as its recipe: appending it to
            // itself only moves the file's end, so the sweep stores nothing
            // of the sizes it measures.
            let payload = Payload::fill(0xA5, size as usize);
            // Write sweep: sequential appends keep tape streaming, matching
            // how datasets are dumped.
            let h = r.open(&path, OpenMode::Create)?.value;
            r.write_shared(h, payload.clone())?; // warm-up (mount, first-touch)
            let mut ws = Vec::with_capacity(reps);
            for _ in 0..reps {
                ws.push(r.write_shared(h, payload.clone())?.time.as_secs());
            }
            r.close(h)?;
            write_samples.push((size, median(ws)));
            // Read sweep over the bytes just written.
            let h = r.open(&path, OpenMode::Read)?.value;
            let mut rs = Vec::with_capacity(reps);
            let _ = r.read(h, size as usize)?; // warm-up
            for _ in 0..reps {
                rs.push(r.read(h, size as usize)?.time.as_secs());
            }
            r.close(h)?;
            read_samples.push((size, median(rs)));
            r.delete(&path)?;
        }
        r.delete(&scratch)?;

        Ok((
            ResourceProfile {
                kind,
                fixed: fixed_read,
                samples: read_samples,
            },
            ResourceProfile {
                kind,
                fixed: fixed_write,
                samples: write_samples,
            },
        ))
    }

    /// Profile every resource into `db` — "set up her basic performance
    /// prediction database in a single run".
    pub fn populate(&self, db: &mut PerfDb, resources: &[SharedResource]) -> PredictResult<()> {
        for res in resources {
            let name = res.lock().name().to_owned();
            let (read, write) = self.profile_resource(res)?;
            db.insert(&name, OpKind::Read, read)?;
            db.insert(&name, OpKind::Write, write)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_storage::{share, testbed};

    fn small_ptool() -> PTool {
        PTool {
            sizes: vec![1 << 16, 1 << 18, 1 << 20],
            reps: 3,
            scratch_prefix: "ptool/t".into(),
        }
    }

    #[test]
    fn profiles_local_disk_close_to_model() {
        let tb = testbed(7);
        let res = share(tb.local);
        let (read, write) = small_ptool().profile_resource(&res).unwrap();
        // Fixed costs should be near Table 1's local rows.
        assert!((write.fixed.open.as_secs() - 0.21).abs() < 0.03);
        assert!((read.fixed.open.as_secs() - 0.20).abs() < 0.03);
        assert_eq!(write.fixed.conn, SimDuration::ZERO);
        // 1 MB at ~17 MB/s ≈ 0.06 s.
        let t = write.transfer_time(1 << 20).as_secs();
        assert!((0.04..0.09).contains(&t), "got {t}");
    }

    #[test]
    fn profiles_remote_disk_conn_cost() {
        let tb = testbed(7);
        let res = share(tb.remote_disk);
        let (_, write) = small_ptool().profile_resource(&res).unwrap();
        // Table 1: conn 0.44 s (jittered measurement, generous tolerance).
        assert!((write.fixed.conn.as_secs() - 0.44).abs() < 0.15);
        assert!((write.fixed.open.as_secs() - 0.42).abs() < 0.1);
    }

    #[test]
    fn populate_fills_all_resources() {
        let tb = testbed(7);
        let resources = vec![share(tb.local), share(tb.remote_disk)];
        let mut db = PerfDb::new();
        small_ptool().populate(&mut db, &resources).unwrap();
        assert_eq!(db.len(), 4);
        assert!(db.get("anl-local", OpKind::Read).is_ok());
        assert!(db.get("sdsc-disk", OpKind::Write).is_ok());
    }

    #[test]
    fn scratch_files_are_cleaned_up() {
        let tb = testbed(7);
        let res = share(tb.local);
        small_ptool().profile_resource(&res).unwrap();
        assert!(res.lock().list("ptool/").is_empty());
    }

    #[test]
    fn tape_profile_orders_above_disk() {
        let tb = testbed(7);
        let tape = share(tb.tape);
        let disk = share(tb.remote_disk);
        let pt = small_ptool();
        let (_, tape_w) = pt.profile_resource(&tape).unwrap();
        let (_, disk_w) = pt.profile_resource(&disk).unwrap();
        assert!(tape_w.transfer_time(1 << 20) > disk_w.transfer_time(1 << 20));
        assert!(tape_w.fixed.open > disk_w.fixed.open);
    }

    #[test]
    fn the_tape_rows_keep_the_mount_the_first_open_paid() {
        let tb = testbed(7);
        let (tape, disk) = (share(tb.tape), share(tb.local));
        let pt = small_ptool();
        let (read, write) = pt.profile_resource(&tape).unwrap();
        assert_eq!(tape.lock().mounts(), 1, "the sweep mounts its volume once");
        // One draw from the 20–40 s window, less the row's warm open
        // (the write row's warm open rewinds: about 1 s more).
        for row in [&read, &write] {
            let mount = row.fixed.mount.as_secs();
            assert!((18.0..41.0).contains(&mount), "mount {mount}");
        }
        assert!(write.fixed.mount < read.fixed.mount);
        // A re-sweep finds its volume on a drive: no mount to time, so the
        // rows keep the model's expected one.
        let (_, again) = pt.profile_resource(&tape).unwrap();
        let expected = tape.lock().fixed_costs(OpKind::Write).mount;
        assert_eq!(again.fixed.mount, expected);
        assert_eq!(tape.lock().mounts(), 1);
        let (read, write) = pt.profile_resource(&disk).unwrap();
        assert_eq!(read.fixed.mount, SimDuration::ZERO);
        assert_eq!(write.fixed.mount, SimDuration::ZERO);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![5.0]), 5.0);
        assert_eq!(median(vec![1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_zero_size_sweep_is_refused_before_any_call() {
        let tb = testbed(7);
        let res = share(tb.local);
        let pt = PTool {
            sizes: vec![0, 1 << 16],
            ..small_ptool()
        };
        let mut db = PerfDb::new();
        let swept = pt.populate(&mut db, std::slice::from_ref(&res));
        if swept.is_ok() {
            // What a price of the row would do.
            db.get("anl-local", OpKind::Write)
                .unwrap()
                .transfer_time(1 << 20);
        }
        assert!(
            matches!(
                swept,
                Err(PredictError::BadSample {
                    bytes: 0,
                    secs: None
                })
            ),
            "{swept:?}"
        );
        assert_eq!(res.lock().stats().opens, 0, "no native call");
    }
}
