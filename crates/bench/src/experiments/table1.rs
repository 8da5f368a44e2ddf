//! Table 1 — timings for file open, close, connection setup, etc.

use msr_core::MsrSystem;
use msr_predict::PTool;
use msr_storage::{FixedCosts, OpKind};

/// One regenerated Table 1 row, next to the paper's published constants.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Location column (resource name).
    pub location: String,
    /// read / write.
    pub op: OpKind,
    /// PTool-measured fixed costs on the simulated testbed.
    pub measured: FixedCosts,
    /// The paper's published row `(conn, open, seek, close, connclose)`;
    /// `None` entries were printed as `-`.
    pub paper: [Option<f64>; 5],
}

/// The paper's Table 1 values.
fn paper_rows() -> Vec<(&'static str, OpKind, [Option<f64>; 5])> {
    vec![
        (
            "anl-local",
            OpKind::Read,
            [Some(0.0), Some(0.20), None, Some(0.001), Some(0.0)],
        ),
        (
            "anl-local",
            OpKind::Write,
            [Some(0.0), Some(0.21), None, Some(0.001), Some(0.0)],
        ),
        (
            "sdsc-disk",
            OpKind::Read,
            [Some(0.44), Some(0.42), Some(0.40), Some(0.63), Some(0.0002)],
        ),
        (
            "sdsc-disk",
            OpKind::Write,
            [Some(0.44), Some(0.42), None, Some(0.83), Some(0.0002)],
        ),
        (
            "sdsc-hpss",
            OpKind::Read,
            [Some(0.81), Some(6.17), None, Some(0.46), Some(0.0002)],
        ),
        (
            "sdsc-hpss",
            OpKind::Write,
            [Some(0.81), Some(6.17), None, Some(0.42), Some(0.0002)],
        ),
    ]
}

/// Regenerate Table 1 by running PTool's fixed-cost measurement against
/// the live (simulated) resources.
pub fn table1(seed: u64) -> Vec<Table1Row> {
    let mut sys = MsrSystem::testbed(seed);
    let ptool = PTool {
        sizes: vec![1 << 16],
        reps: 5,
        scratch_prefix: "ptool/table1".into(),
    };
    sys.run_ptool(&ptool).expect("testbed sweep");
    let db = sys.perf_db();
    paper_rows()
        .into_iter()
        .map(|(location, op, paper)| Table1Row {
            location: location.to_owned(),
            op,
            measured: db
                .get(location, op)
                .expect("ptool profiled every testbed resource")
                .fixed,
            paper,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regenerated_constants_track_the_paper() {
        let rows = table1(1);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            // conn within 20% of the published value (jittered measurement).
            if let Some(conn) = row.paper[0] {
                let got = row.measured.conn.as_secs();
                assert!(
                    (got - conn).abs() <= 0.2 * conn.max(0.05),
                    "{} {} conn: paper {conn} got {got}",
                    row.location,
                    row.op
                );
            }
            if let Some(open) = row.paper[1] {
                let got = row.measured.open.as_secs();
                assert!(
                    (got - open).abs() <= 0.2 * open.max(0.05),
                    "{} {} open: paper {open} got {got}",
                    row.location,
                    row.op
                );
            }
        }
    }

    #[test]
    fn tape_open_dwarfs_disk_open() {
        let rows = table1(2);
        let tape_open = rows
            .iter()
            .find(|r| r.location == "sdsc-hpss")
            .unwrap()
            .measured
            .open;
        let disk_open = rows
            .iter()
            .find(|r| r.location == "sdsc-disk")
            .unwrap()
            .measured
            .open;
        assert!(tape_open.as_secs() > 10.0 * disk_open.as_secs());
    }
}
