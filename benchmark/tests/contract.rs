//! The benchmark against its own contract: the fleet it declares drives
//! the same system the old ledger did, every named metric comes out of a
//! smoke run of every workload, and `BENCHMARK.json` is what the metric
//! catalogue generates.

use msr_benchmark::metrics;
use msr_benchmark::run::{run, RunConfig};
use msr_benchmark::workloads::{fleet_10k, Scale, NAMES};
use msr_core::MsrSystem;
use msr_sched::Scheduler;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
        .to_owned()
}

/// At seed 2000 the harness's own 10k fleet reproduces the deterministic
/// fields of the committed `BENCH_sched.json` 10k row.
#[test]
fn own_fleet_reproduces_the_committed_sched_ledger_row() {
    let ledger = std::fs::read_to_string(repo_root().join("BENCH_sched.json"))
        .expect("the committed scheduler ledger");
    let ledger = serde_json::parse_value(&ledger).expect("ledger is JSON");
    let ledger = ledger.as_obj().unwrap();
    let seed = ledger["seed"].as_num().unwrap().as_u64().unwrap();
    assert_eq!(seed, 2000);
    let row = ledger["fleet"]
        .as_arr()
        .unwrap()
        .iter()
        .map(|r| r.as_obj().unwrap())
        .find(|r| r["sessions"].as_num().unwrap().as_u64() == Some(10_000))
        .expect("the 10k row");
    let field = |name: &str| row[name].as_num().unwrap();

    let sys = MsrSystem::testbed(seed);
    let mut sched = Scheduler::new(&sys);
    for p in fleet_10k::fleet(fleet_10k::sessions(Scale::Full)) {
        sched.admit(p).unwrap();
    }
    let report = sched.run().unwrap();
    assert!(report.sessions.iter().all(|s| s.errors.is_empty()));
    assert_eq!(Some(report.requests()), field("requests").as_u64());
    assert_eq!(Some(report.batches), field("batches").as_u64());
    assert_eq!(Some(report.total_bytes), field("total_bytes").as_u64());
    assert_eq!(report.makespan.as_secs(), field("scheduled_s").as_f64());
}

/// A `--smoke` run of all four workloads, both passes: every named metric
/// is present, finite and spelled from `[A-Za-z0-9_.-]`; end-to-end
/// metrics are never zero; virtual metrics survive a one-worker pool.
#[test]
fn smoke_runs_report_every_named_metric() {
    let out = std::env::temp_dir().join(format!("msr-benchmark-smoke-{}", std::process::id()));
    for name in NAMES {
        for traced in [false, true] {
            let r = run(&RunConfig {
                workload: name.to_owned(),
                seed: 7,
                seconds: 0.0,
                traced,
                scale: Scale::Smoke,
                out_dir: out.clone(),
                repo_root: repo_root(),
                verify_threads: true,
            })
            .unwrap_or_else(|e| panic!("{name} (traced {traced}): {e}"));
            assert!(r.attempted >= 1 && r.reps >= 2, "{name}");
            assert_eq!(r.scale, "smoke");
            let catalogue = if traced {
                metrics::per_layer()
            } else {
                metrics::end_to_end()
            };
            assert_eq!(r.metrics.len(), catalogue.len(), "{name}");
            for m in catalogue {
                let v = r
                    .metrics
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("{name}: {} missing", m.name));
                assert!(v.value.is_finite(), "{name}: {} = {}", m.name, v.value);
                assert!(
                    m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{}",
                    m.name
                );
                assert_eq!(v.unit, m.unit);
                if !traced {
                    assert!(v.value > 0.0, "{name}: {} must never be 0", m.name);
                }
            }
            if traced {
                let trace = std::fs::read_to_string(out.join(format!("trace-{name}.json")))
                    .expect("the traced run writes its spans");
                let trace = serde_json::parse_value(&trace).expect("trace is JSON");
                assert!(!trace.as_obj().unwrap()["traceEvents"]
                    .as_arr()
                    .unwrap()
                    .is_empty());
                let shares: f64 = r
                    .metrics
                    .iter()
                    .filter(|(k, _)| k.starts_with("layer."))
                    .map(|(_, v)| v.value)
                    .sum();
                assert!(
                    (shares - 1.0).abs() < 1e-9,
                    "{name}: shares sum to {shares}"
                );
            }
            // The driver's line: exactly the catalogue's names.
            let line = serde_json::parse_value(&r.contract_line()).unwrap();
            assert_eq!(
                line.as_obj().unwrap()["metrics"].as_obj().unwrap().len(),
                r.metrics.len()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// `BENCHMARK.json` at the repository root is the generated manifest.
#[test]
fn committed_manifest_is_the_generated_one() {
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        metrics::manifest_json(),
        "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
    );
}
