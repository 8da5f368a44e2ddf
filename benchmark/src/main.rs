//! `msr-benchmark` — the command line of the benchmark.
//!
//! ```text
//! msr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--verify-threads] [--root <checkout>] [--result <file>]
//! msr-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--verify-threads] [--root <checkout>]
//! msr-benchmark compare <a.json> <b.json>
//! msr-benchmark manifest
//! ```
//!
//! With `--workload` it runs that workload in this process and prints its
//! metrics, the last line being the result object of the benchmark
//! contract. Without, it runs the full set — one child process per
//! workload and pass, so `peak_rss_mb` is each workload's own — merges the
//! results into `<root>/benchmark/out/results.json` and prints every
//! metric. Any correctness or determinism failure exits non-zero. The
//! checkout root defaults to `$MSR_BENCHMARK_ROOT` (set by `run.sh`), else
//! the current directory.

use msr_benchmark::compare::{compare, render, Verdict};
use msr_benchmark::metrics;
use msr_benchmark::results::{ResultsFile, WorkloadEntry, WorkloadRun, SCHEMA};
use msr_benchmark::run::{run, RunConfig};
use msr_benchmark::trace::Layer;
use msr_benchmark::workloads::{Res, Scale, NAMES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    verify_threads: bool,
    root: PathBuf,
    result: Option<PathBuf>,
}

fn parse(args: &[String]) -> Res<Args> {
    let mut out = Args {
        workload: None,
        seed: 2000,
        seconds: f64::from(metrics::RUN_SECONDS),
        traced: false,
        smoke: false,
        verify_threads: false,
        root: std::env::var_os("MSR_BENCHMARK_ROOT")
            .map_or_else(|| PathBuf::from("."), PathBuf::from),
        result: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            "--verify-threads" => out.verify_threads = true,
            "--root" => out.root = PathBuf::from(value()?),
            "--result" => out.result = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !out.seconds.is_finite() || out.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(out)
}

fn out_dir(root: &Path) -> PathBuf {
    root.join("benchmark").join("out")
}

fn print_run(r: &WorkloadRun) {
    println!(
        "== {} · seed {} · {} s · {} · {} · {} reps · {} cores, {} pool workers · {} · rev {}",
        r.workload,
        r.seed,
        r.seconds,
        r.scale,
        if r.traced { "traced" } else { "untraced" },
        r.reps,
        r.host.host_cores,
        r.host.pool_workers,
        r.host.rustc,
        r.host.git_rev
    );
    println!(
        "{:<34} {:>8} {:>8} {:>18} {:>14} {:>14} {:>5}",
        "METRIC", "UNIT", "CLOCK", "VALUE", "P25", "P75", "N"
    );
    for (name, v) in &r.metrics {
        let (p25, p75, n) =
            v.spread
                .map_or(("-".to_owned(), "-".to_owned(), "-".to_owned()), |q| {
                    (
                        format!("{:.6}", q.p25),
                        format!("{:.6}", q.p75),
                        q.n.to_string(),
                    )
                });
        println!(
            "{name:<34} {:>8} {:>8} {:>18.6} {p25:>14} {p75:>14} {n:>5}",
            v.unit, v.clock, v.value
        );
    }
    if r.traced {
        let total: f64 = r.layer_seconds.values().sum();
        println!("{:<12} {:>12} {:>8}", "LAYER", "SELF s/rep", "SHARE");
        for l in Layer::ALL {
            let secs = r.layer_seconds.get(l.name()).copied().unwrap_or(0.0);
            println!(
                "{:<12} {secs:>12.6} {:>7.1}%",
                l.name(),
                100.0 * secs / total.max(1e-12)
            );
        }
        println!("{:<12} {total:>12.6}", "total");
    }
}

fn run_one(a: &Args, workload: &str) -> Res<()> {
    let r = run(&RunConfig {
        workload: workload.to_owned(),
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        scale: if a.smoke { Scale::Smoke } else { Scale::Full },
        out_dir: out_dir(&a.root),
        repo_root: a.root.clone(),
        verify_threads: a.verify_threads,
    })?;
    print_run(&r);
    if let Some(path) = &a.result {
        let text = serde_json::to_string_pretty(&r).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", r.contract_line());
    Ok(())
}

/// The full set: each workload untraced, then traced, each in a process
/// of its own that is waited for.
fn run_all(a: &Args) -> Res<()> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir(&a.root);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut workloads = BTreeMap::new();
    for name in NAMES {
        let pass = |traced: bool| -> Res<WorkloadRun> {
            let result = dir.join(format!(
                "{name}.{}.json",
                if traced { "per_layer" } else { "end_to_end" }
            ));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--root")
                .arg(&a.root)
                .arg("--result")
                .arg(&result);
            if a.smoke {
                cmd.arg("--smoke");
            }
            if a.verify_threads {
                cmd.arg("--verify-threads");
            }
            let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
            if !status.success() {
                return Err(format!(
                    "{name} (trace {}) failed: {status}",
                    u8::from(traced)
                ));
            }
            let text = std::fs::read_to_string(&result)
                .map_err(|e| format!("{}: {e}", result.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", result.display()))
        };
        let entry = WorkloadEntry {
            end_to_end: pass(false)?,
            per_layer: pass(true)?,
        };
        workloads.insert(name.to_owned(), entry);
    }
    let file = ResultsFile {
        schema: SCHEMA,
        workloads,
    };
    let path = dir.join("results.json");
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\n==== merged: {} ====", path.display());
    for entry in file.workloads.values() {
        print_run(&entry.end_to_end);
        print_run(&entry.per_layer);
    }
    Ok(())
}

fn load(path: &str) -> Res<ResultsFile> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file: ResultsFile = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if file.schema != SCHEMA {
        return Err(format!(
            "{path}: results schema {} is not {SCHEMA}",
            file.schema
        ));
    }
    Ok(file)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => load(a).and_then(|a| Ok((a, load(b)?))).and_then(|(a, b)| {
                let rows = compare(&a, &b)?;
                print!("{}", render(&rows));
                if rows.iter().any(|r| r.verdict == Verdict::Worse) {
                    Err("at least one metric is worse than its bound allows".into())
                } else {
                    Ok(())
                }
            }),
            _ => Err("usage: msr-benchmark compare <a.json> <b.json>".into()),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(())
        }
        _ => parse(&args).and_then(|a| match a.workload.clone() {
            Some(w) => run_one(&a, &w),
            None => run_all(&a),
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("msr-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
