//! The results file: what one workload run measured, and the merged set
//! of all four that `compare` reads.

use crate::host::HostInfo;
use crate::stats::Quartiles;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Value {
    /// The number: a median over repetitions on the host clock, the exact
    /// value on the virtual clock.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// `"host"` or `"virtual"`.
    pub clock: String,
    /// Host-clock metrics sampled once per repetition: quartiles and
    /// sample count behind the median.
    pub spread: Option<Quartiles>,
}

/// One run of one workload (`--trace 0`: the end-to-end metrics;
/// `--trace 1`: the per-layer metrics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// The `--seed` it ran at.
    pub seed: u64,
    /// The `--seconds` it measured for.
    pub seconds: f64,
    /// `"full"` or `"smoke"`.
    pub scale: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Repetitions completed.
    pub reps: usize,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed over all repetitions.
    pub failed: u64,
    /// Host and build.
    pub host: HostInfo,
    /// Every metric of this run, by name.
    pub metrics: BTreeMap<String, Value>,
    /// Traced run only: host seconds per repetition by layer, after the
    /// replayed cost of the lower layers is moved out of the entered crate.
    pub layer_seconds: BTreeMap<String, f64>,
    /// Every per-repetition sample behind the host-clock medians, in
    /// repetition order.
    pub samples: BTreeMap<String, Vec<f64>>,
}

/// The benchmark contract's result object: the last line a workload run
/// prints.
#[derive(Debug, Serialize)]
struct ContractLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ContractValue>,
}

#[derive(Debug, Serialize)]
struct ContractValue {
    value: f64,
    unit: String,
}

impl WorkloadRun {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (`name → {value, unit}`). A run that failed a
    /// correctness or determinism check never gets this far.
    pub fn contract_line(&self) -> String {
        let line = ContractLine {
            correct: true,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .map(|(name, v)| {
                    let value = ContractValue {
                        value: v.value,
                        unit: v.unit.clone(),
                    };
                    (name.clone(), value)
                })
                .collect(),
        };
        serde_json::to_string(&line).expect("plain numbers and strings serialize")
    }
}

/// Both runs of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadEntry {
    /// The untraced run.
    pub end_to_end: WorkloadRun,
    /// The traced run.
    pub per_layer: WorkloadRun,
}

/// A complete set: what `run.sh` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultsFile {
    /// Results schema version.
    pub schema: u32,
    /// By workload name.
    pub workloads: BTreeMap<String, WorkloadEntry>,
}

/// Current [`ResultsFile::schema`].
pub const SCHEMA: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    fn run(traced: bool) -> WorkloadRun {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "host_wall_s".to_owned(),
            Value {
                value: 0.731_294_118_2,
                unit: "s".into(),
                clock: "host".into(),
                spread: Some(Quartiles {
                    p25: 0.72,
                    p50: 0.731_294_118_2,
                    p75: 0.74,
                    n: 23,
                }),
            },
        );
        metrics.insert(
            "virtual_makespan_s".to_owned(),
            Value {
                value: 199_550.116_938_123_97,
                unit: "s".into(),
                clock: "virtual".into(),
                spread: None,
            },
        );
        WorkloadRun {
            workload: "fleet_10k".into(),
            seed: 2000,
            seconds: 20.0,
            scale: "full".into(),
            traced,
            reps: 23,
            attempted: 1_150_023,
            failed: 0,
            host: HostInfo {
                host_cores: 2,
                pool_workers: 2,
                rustc: "rustc 1.0.0".into(),
                git_rev: "unknown".into(),
            },
            metrics,
            layer_seconds: BTreeMap::from([("sched".to_owned(), 0.5)]),
            samples: BTreeMap::from([("host_wall_s".to_owned(), vec![0.72, 0.74])]),
        }
    }

    #[test]
    fn results_round_trip_through_json_bit_for_bit() {
        let file = ResultsFile {
            schema: SCHEMA,
            workloads: BTreeMap::from([(
                "fleet_10k".to_owned(),
                WorkloadEntry {
                    end_to_end: run(false),
                    per_layer: run(true),
                },
            )]),
        };
        let text = serde_json::to_string_pretty(&file).unwrap();
        let back: ResultsFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_named_metrics() {
        let line = run(false).contract_line();
        assert!(!line.contains('\n'));
        let v = serde_json::parse_value(&line).unwrap();
        let obj = v.as_obj().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = obj["metrics"].as_obj().unwrap();
        assert_eq!(metrics.len(), 2);
        let wall = metrics["host_wall_s"].as_obj().unwrap();
        assert_eq!(wall["value"].as_num().unwrap().as_f64(), 0.731_294_118_2);
        assert_eq!(wall["unit"].as_str(), Some("s"));
        assert_eq!(obj["correct"], serde_json::Value::Bool(true));
    }
}
