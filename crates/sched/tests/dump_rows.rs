//! Catalog dump rows written by the scheduler's recency hook.

use msr_core::{DatasetSpec, LocationHint, MsrSystem};
use msr_meta::{AccessMode, ElementType};
use msr_sched::{Scheduler, SessionProgram};

/// An `OverWrite` dataset rewrites one file, so the scheduler records a
/// single dump row at iteration 0 for it — as the session layer does —
/// whatever its name looks like. The row's iteration travels with the
/// queued request; it is never parsed back out of the path, so a name
/// ending in `.t<digits>` cannot be mistaken for a per-dump suffix.
#[test]
fn overwrite_dataset_named_like_a_dump_suffix_keys_on_iteration_zero() {
    let sys = MsrSystem::testbed(91);
    let mut sched = Scheduler::new(&sys);
    sched
        .admit(
            SessionProgram::new("restart")
                .iterations(4)
                .dataset(
                    DatasetSpec::builder("snap.t7")
                        .element(ElementType::F32)
                        .cube(8)
                        .frequency(1)
                        .amode(AccessMode::OverWrite)
                        .hint(LocationHint::LocalDisk)
                        .build(),
                )
                .readback(true),
        )
        .unwrap();
    let report = sched.run().unwrap();
    assert_eq!(report.requests(), 5 + 1, "five dumps and one readback");

    let mut catalog = sys.catalog.lock();
    let d = catalog.all_datasets().remove(0);
    let dumps = catalog.dumps_of(d.id);
    assert_eq!(dumps.len(), 1, "one rewritten file, one dump row");
    assert_eq!(dumps[0].iter, 0);
    assert!(
        d.last_access_secs > dumps[0].written_secs,
        "the readback after the last rewrite is noted on the dataset"
    );
}
