//! `msr-benchmark compare <a.json> <b.json>` — ROADMAP item 1's
//! `repro diff`, scoped to the benchmark: one row per workload ×
//! end-to-end metric, the bound the catalogue fixed, and a verdict.

use crate::metrics::{self, Better, Clock, Metric};
use crate::results::{ResultsFile, WorkloadEntry};
use std::fmt;

/// Relative tolerance for virtual metrics of two runs at the same seed:
/// they must repeat exactly, so any worsening is a regression.
const SAME_SEED_BOUND: f64 = 1e-9;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the comparison cannot resolve a change of that size.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One workload × end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: &'static str,
    /// The base (`a`) value.
    pub base: f64,
    /// The compared (`b`) value.
    pub new: f64,
    /// `new ÷ base`.
    pub ratio: f64,
    /// The bound applied.
    pub bound: f64,
    /// The wider of the two sides' `(p75 − p25) ÷ median`, where sampled.
    pub spread: Option<f64>,
    /// The conclusion.
    pub verdict: Verdict,
}

fn judge(m: &Metric, bound: f64, base: f64, new: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let slack = bound * base.abs();
    let worse = match m.better {
        Better::Lower => new > base + slack,
        Better::Higher => new < base - slack,
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn rows_of(name: &str, a: &WorkloadEntry, b: &WorkloadEntry) -> Result<Vec<Row>, String> {
    let same_seed = a.end_to_end.seed == b.end_to_end.seed;
    metrics::end_to_end()
        .into_iter()
        .map(|m| {
            let get = |side: &WorkloadEntry| {
                side.end_to_end
                    .metrics
                    .get(&m.name)
                    .cloned()
                    .ok_or_else(|| format!("{name}: {} is missing", m.name))
            };
            let (va, vb) = (get(a)?, get(b)?);
            let catalogue = m.bound.expect("end-to-end metrics carry a bound");
            let bound = match m.clock {
                Clock::Virtual if same_seed => SAME_SEED_BOUND,
                _ => catalogue,
            };
            let spread = match (va.spread, vb.spread) {
                (Some(x), Some(y)) => Some(x.spread_frac().max(y.spread_frac())),
                _ => None,
            };
            Ok(Row {
                workload: name.to_owned(),
                metric: m.name.clone(),
                unit: m.unit,
                base: va.value,
                new: vb.value,
                ratio: vb.value / va.value,
                bound,
                spread,
                verdict: judge(&m, bound, va.value, vb.value, spread),
            })
        })
        .collect()
}

/// Compare `b` against the base `a`, workload by workload.
pub fn compare(a: &ResultsFile, b: &ResultsFile) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (name, ea) in &a.workloads {
        let eb = b
            .workloads
            .get(name)
            .ok_or_else(|| format!("{name}: missing from the compared set"))?;
        rows.extend(rows_of(name, ea, eb)?);
    }
    Ok(rows)
}

/// The comparison as a table: every ratio with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<17} {:<30} {:>16} {:>16} {:>9} {:>8} {:>8}  {}\n",
        "WORKLOAD", "METRIC", "BASE", "NEW", "NEW/BASE", "BOUND", "SPREAD", "VERDICT"
    );
    for r in rows {
        let spread = r.spread.map_or("-".to_owned(), |s| format!("{s:.4}"));
        out.push_str(&format!(
            "{:<17} {:<30} {:>16} {:>16} {:>9.4} {:>8} {:>8}  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            format!("{:.6}", r.base),
            format!("{:.6}", r.new),
            r.ratio,
            format!("{:.0e}", r.bound),
            spread,
            r.verdict
        ));
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} ok, {} worse, {} unresolved\n",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostInfo;
    use crate::results::{Value, WorkloadRun, SCHEMA};
    use crate::stats::Quartiles;
    use std::collections::BTreeMap;

    fn entry(seed: u64, tweak: impl Fn(&str, f64) -> f64, spread: f64) -> WorkloadEntry {
        let metrics: BTreeMap<String, Value> = metrics::end_to_end()
            .into_iter()
            .map(|m| {
                let value = tweak(&m.name, 10.0);
                let host = m.clock == Clock::Host && m.name != "peak_rss_mb";
                (
                    m.name,
                    Value {
                        value,
                        unit: m.unit.to_owned(),
                        clock: m.clock.name().to_owned(),
                        spread: host.then_some(Quartiles {
                            p25: value * (1.0 - spread / 2.0),
                            p50: value,
                            p75: value * (1.0 + spread / 2.0),
                            n: 12,
                        }),
                    },
                )
            })
            .collect();
        let run = WorkloadRun {
            workload: "w".into(),
            seed,
            seconds: 1.0,
            scale: "full".into(),
            traced: false,
            reps: 12,
            attempted: 1,
            failed: 0,
            host: HostInfo {
                host_cores: 2,
                pool_workers: 2,
                rustc: String::new(),
                git_rev: String::new(),
            },
            metrics,
            layer_seconds: BTreeMap::new(),
            samples: BTreeMap::new(),
        };
        WorkloadEntry {
            per_layer: WorkloadRun {
                traced: true,
                ..run.clone()
            },
            end_to_end: run,
        }
    }

    fn file(e: WorkloadEntry) -> ResultsFile {
        ResultsFile {
            schema: SCHEMA,
            workloads: BTreeMap::from([("w".to_owned(), e)]),
        }
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn identical_sets_are_all_ok() {
        let a = file(entry(7, |_, v| v, 0.01));
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.ratio == 1.0));
        assert!(render(&rows).contains("10 ok, 0 worse, 0 unresolved"));
    }

    #[test]
    fn bounds_directions_and_spread_are_applied() {
        let a = file(entry(7, |_, v| v, 0.01));
        let b = file(entry(
            7,
            |name, v| match name {
                "host_wall_s" => v * 1.25,                  // beyond 0.20: worse
                "host_us_per_request" => v * 1.15,          // within 0.20: ok
                "setup_s" => v * 0.5,                       // better: ok
                "virtual_makespan_s" => v * 1.001,          // same seed: any worsening
                "served_op_share" => v * 0.9,               // higher is better
                "stored_bytes_per_logical_byte" => v * 0.8, // improved virtual: ok
                _ => v,
            },
            0.01,
        ));
        let rows = compare(&a, &b).unwrap();
        assert_eq!(verdict(&rows, "host_wall_s"), Verdict::Worse);
        assert_eq!(verdict(&rows, "host_us_per_request"), Verdict::Ok);
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Ok);
        assert_eq!(verdict(&rows, "virtual_makespan_s"), Verdict::Worse);
        assert_eq!(verdict(&rows, "served_op_share"), Verdict::Worse);
        assert_eq!(verdict(&rows, "stored_bytes_per_logical_byte"), Verdict::Ok);
        // A different seed gets the catalogue's seed-to-seed bound.
        let c = file(entry(
            8,
            |name, v| {
                if name == "virtual_makespan_s" {
                    v * 1.001
                } else {
                    v
                }
            },
            0.01,
        ));
        assert_eq!(
            verdict(&compare(&a, &c).unwrap(), "virtual_makespan_s"),
            Verdict::Ok
        );
        // A side whose repetitions spread wider than the bound resolves
        // nothing, however the medians compare.
        let noisy = file(entry(7, |_, v| v, 0.22));
        let rows = compare(&a, &noisy).unwrap();
        assert_eq!(verdict(&rows, "host_wall_s"), Verdict::Unresolved);
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Ok, "0.22 < 0.25");
        assert_eq!(verdict(&rows, "peak_rss_mb"), Verdict::Ok, "not sampled");
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let a = file(entry(7, |_, v| v, 0.01));
        let empty = ResultsFile {
            schema: SCHEMA,
            workloads: BTreeMap::new(),
        };
        assert!(compare(&a, &empty).is_err());
        assert!(compare(&empty, &a).unwrap().is_empty());
    }
}
