//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--seed N] <experiment>...
//! experiments: table1 fig6 fig7 fig8 fig9 fig10a fig10b fig10c fig11
//!              example42 failover ablations all
//! ```
//!
//! `--quick` runs the Astro3D experiments at 32³/24 iterations instead of
//! the paper's 128³/120 (same shapes, ~1000× less data). No experiment
//! named, or `all`, runs every one. An argument `repro` does not know is
//! an error: the usage line on stderr and exit status 2.

use msr_bench::experiments::Scale;
use msr_bench::*;
use msr_predict::compare;
use msr_sim::SimDuration;

fn hline() {
    println!("{}", "-".repeat(78));
}

fn banner(title: &str) {
    println!();
    hline();
    println!("{title}");
    hline();
}

fn opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:>12.2}"))
        .unwrap_or_else(|| format!("{:>12}", "-"))
}

fn run_table1(seed: u64) {
    banner("TABLE 1 - timings for file open, close, etc. (paper vs PTool-measured)");
    println!(
        "{:<12} {:<6} | {:>10} {:>10} {:>10} {:>10} {:>10}",
        "location", "type", "conn", "open", "seek", "close", "connclose"
    );
    for row in table1(seed) {
        let m = row.measured;
        println!(
            "{:<12} {:<6} | {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}   (measured)",
            row.location,
            row.op.to_string(),
            m.conn.as_secs(),
            m.open.as_secs(),
            m.seek.as_secs(),
            m.close.as_secs(),
            m.connclose.as_secs()
        );
        let p: Vec<String> = row
            .paper
            .iter()
            .map(|v| {
                v.map(|x| format!("{x:>10.4}"))
                    .unwrap_or_else(|| format!("{:>10}", "-"))
            })
            .collect();
        println!(
            "{:<12} {:<6} | {} {} {} {} {}   (paper)",
            "", "", p[0], p[1], p[2], p[3], p[4]
        );
    }
}

fn run_curve(name: &str, points: Vec<CurvePoint>) {
    banner(&format!("{name} - read/write time vs request size"));
    println!(
        "{:>12} | {:>12} {:>12} | {:>12} {:>12}",
        "bytes", "read(s)", "write(s)", "model-rd(s)", "model-wr(s)"
    );
    for p in points {
        println!(
            "{:>12} | {:>12.4} {:>12.4} | {:>12.4} {:>12.4}",
            p.bytes, p.read_s, p.write_s, p.model_read_s, p.model_write_s
        );
    }
}

fn run_fig9(scale: Scale, seed: u64) {
    banner("FIGURE 9 - Astro3D total write I/O time, configurations (1)-(5)");
    println!(
        "{:>3} {:<46} {:>12} {:>12} {:>12}",
        "#", "configuration", "actual(s)", "pred(s)", "paper-pred"
    );
    let rows = fig9(scale, seed);
    for r in &rows {
        println!(
            "{:>3} {:<46} {:>12.2} {} {}",
            r.config,
            r.description,
            r.actual.as_secs(),
            opt(r.predicted.map(|p| p.as_secs())),
            opt(r.paper_predicted),
        );
    }
    let cmp = compare(rows.iter().filter_map(|r| {
        r.predicted
            .map(|p| (format!("fig9({})", r.config), p, r.actual))
    }));
    println!("\nprediction vs actual:\n{cmp}");
}

fn run_fig10a(scale: Scale, seed: u64) {
    banner("FIGURE 10(a) - data analysis (MSE on temp): read I/O time by placement");
    for r in fig10a(scale, seed) {
        println!(
            "{:<40} actual {:>10.2}s   predicted {:>12.2}",
            r.label,
            r.actual.as_secs(),
            r.predicted.as_secs()
        );
    }
}

fn run_fig10b(scale: Scale, seed: u64) {
    banner("FIGURE 10(b) - visualization reads by placement");
    let rows = fig10b(scale, seed);
    for r in &rows {
        println!(
            "{:<40} actual {:>10.2}s   predicted {:>12.2}",
            r.label,
            r.actual.as_secs(),
            r.predicted.as_secs()
        );
    }
    if rows.len() >= 2 && rows[0].actual.as_secs() > 0.0 {
        println!(
            "\nvr_temp: local disk is {:.1}x faster than tape (paper: ~10x)",
            rows[1].actual.as_secs() / rows[0].actual.as_secs()
        );
    }
}

fn run_fig10c(scale: Scale, seed: u64) {
    banner("FIGURE 10(c) - superfile vs naive small-file access (Volren images)");
    for r in fig10c(scale, seed) {
        println!("on {} ({} frames):", r.resource, r.frames);
        println!(
            "  write  naive {:>10.2}s   superfile {:>10.2}s   ({:.1}x)",
            r.write_naive.as_secs(),
            r.write_superfile.as_secs(),
            r.write_naive.as_secs() / r.write_superfile.as_secs().max(1e-9)
        );
        println!(
            "  read   naive {:>10.2}s   superfile {:>10.2}s   ({:.1}x)",
            r.read_naive.as_secs(),
            r.read_superfile.as_secs(),
            r.read_naive.as_secs() / r.read_superfile.as_secs().max(1e-9)
        );
    }
}

fn run_fig11(scale: Scale, seed: u64) {
    banner("FIGURE 11 - per-dataset prediction table (temp -> remote disk, rest -> tape)");
    let f = fig11(scale, seed);
    println!("{}", f.report);
    if !f.paper.is_empty() {
        let cmp = compare(f.report.rows.iter().filter_map(|r| {
            f.paper
                .iter()
                .find(|(n, _)| *n == r.name)
                .map(|&(_, v)| (r.name.clone(), r.total, SimDuration::from_secs(v)))
        }));
        println!("our prediction vs the paper's VIRTUALTIME column:\n{cmp}");
    }
}

fn run_example42(seed: u64) {
    banner("WORKED EXAMPLE (section 4.2) - vr_temp local + vr_press remote disk");
    let e = example42(seed);
    println!("{:<22} {:>12} {:>12}", "", "predicted(s)", "actual(s)");
    println!(
        "{:<22} {:>12.2} {:>12.2}",
        "this reproduction",
        e.predicted.as_secs(),
        e.actual.as_secs()
    );
    println!(
        "{:<22} {:>12.2} {:>12.2}",
        "paper", e.paper_predicted, e.paper_actual
    );
}

fn run_failover(scale: Scale, seed: u64) {
    banner("RELIABILITY (section 5) - tape outage mid-run");
    let o = failover_demo(scale, seed);
    println!(
        "checkpoints written: {} (schedule required 9)",
        o.dumps_written
    );
    println!(
        "final location: {}",
        o.final_location
            .map(|k| k.to_string())
            .unwrap_or("-".into())
    );
    for e in &o.events {
        println!(
            "  iter {:>2}: {} -> {} ({})",
            e.at_iteration,
            e.from.map(|k| k.to_string()).unwrap_or("-".into()),
            e.to.map(|k| k.to_string()).unwrap_or("-".into()),
            e.reason
        );
    }
}

fn run_ablations(seed: u64) {
    banner("ABLATIONS");
    for (title, rows) in [
        (
            "I/O strategy (64^3 f32 dump to remote disk, 8 procs)",
            ablation_strategies(seed),
        ),
        (
            "tape drive pool (4 volumes round-robin)",
            ablation_tape_drives(seed),
        ),
        (
            "WAN background load (8 MiB remote write)",
            ablation_net_load(seed),
        ),
        (
            "superfile staging cache (20 member reads)",
            ablation_superfile_cache(seed),
        ),
        (
            "write-behind vs synchronous (20 x 1s compute + 0.8s I/O)",
            ablation_writebehind(seed),
        ),
    ] {
        println!("\n  {title}:");
        for (label, secs) in rows {
            println!("    {label:<38} {secs:>10.2}s");
        }
    }
}

/// A named experiment and the function that runs and prints it.
type Experiment = (&'static str, fn(Scale, u64));

const EXPERIMENTS: [Experiment; 12] = [
    ("table1", |_, seed| run_table1(seed)),
    ("fig6", |_, seed| {
        run_curve("FIGURE 6 (local disk)", fig6(seed))
    }),
    ("fig7", |_, seed| {
        run_curve("FIGURE 7 (remote disk)", fig7(seed))
    }),
    ("fig8", |_, seed| {
        run_curve("FIGURE 8 (remote tape)", fig8(seed))
    }),
    ("fig9", run_fig9),
    ("fig10a", run_fig10a),
    ("fig10b", run_fig10b),
    ("fig10c", run_fig10c),
    ("fig11", run_fig11),
    ("example42", |_, seed| run_example42(seed)),
    ("failover", run_failover),
    ("ablations", |_, seed| run_ablations(seed)),
];

/// Walk the command line into `(scale, seed, experiments to run)`.
/// Anything that is not `--quick`, `--seed N`, `all` or an experiment name
/// is an error, as is a seed that does not parse.
fn parse_args(args: &[String]) -> Result<(Scale, u64, Vec<Experiment>), String> {
    let mut scale = Scale::Paper;
    let mut seed = 2000;
    let mut wanted = Vec::new();
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                let n = it.next().ok_or("--seed needs a value")?;
                seed = n
                    .parse()
                    .map_err(|_| format!("--seed {n:?} is not a number"))?;
            }
            "all" => all = true,
            name => match EXPERIMENTS.iter().find(|e| e.0 == name) {
                Some(e) => wanted.push(*e),
                None => return Err(format!("unknown argument {name:?}")),
            },
        }
    }
    if all || wanted.is_empty() {
        wanted = EXPERIMENTS.to_vec();
    }
    Ok((scale, seed, wanted))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, seed, wanted) = parse_args(&args).unwrap_or_else(|e| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        eprintln!("repro: {e}");
        eprintln!(
            "usage: repro [--quick] [--seed N] <experiment>...   ({} all)",
            names.join(" ")
        );
        std::process::exit(2);
    });
    println!(
        "multi-storage resource architecture repro  (scale: {:?}, seed: {seed})",
        scale
    );
    for (_, run) in wanted {
        run(scale, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(scale, seed, experiment names)` of a command line.
    fn parse(line: &str) -> Result<(Scale, u64, Vec<&'static str>), String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let (scale, seed, wanted) = parse_args(&args)?;
        Ok((scale, seed, wanted.iter().map(|e| e.0).collect()))
    }

    #[test]
    fn parse_args_accepts_the_paper_and_rejects_the_rest() {
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(parse(""), Ok((Scale::Paper, 2000, all.clone())));
        assert_eq!(parse("--quick all"), Ok((Scale::Quick, 2000, all.clone())));
        assert_eq!(parse("fig6 all"), Ok((Scale::Paper, 2000, all)));
        assert_eq!(
            parse("fig9 --seed 7 --quick table1"),
            Ok((Scale::Quick, 7, vec!["fig9", "table1"]))
        );
        for bad in [
            "nosuch",
            "sched",
            "--no-such-flag",
            "--help",
            "--seed",
            "--seed x",
            "--seed -1",
            "fig6 2000",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
