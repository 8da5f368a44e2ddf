//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--seed N] [--bench-json] [--sched-json]
//!       [--prefetch-json] [--lifecycle-json] [--tenant-json]
//!       [--dedup-json] [--ingest-json] <experiment>...
//! experiments: table1 fig6 fig7 fig8 fig9 fig10a fig10b fig10c fig11
//!              example42 failover ablations sched prefetch lifecycle
//!              tenant dedup all
//! ```
//!
//! `--quick` runs the Astro3D experiments at 32³/24 iterations instead of
//! the paper's 128³/120 (same shapes, ~1000× less data).
//!
//! `--bench-json` skips the report rendering and instead times each
//! multi-configuration experiment twice — forced sequential
//! (`with_threads(1)`) and on the default pool — and writes the wall-clock
//! ledger to `BENCH_parallel.json` (thread count and host cores included,
//! so single-core CI runs are self-describing).
//!
//! `--sched-json` sweeps the scheduler over 1/4/16 concurrent sessions
//! (virtual-time makespan vs back-to-back baseline), then drains the
//! compact mixed fleet at 16/100/1k/10k sessions to record the
//! discrete-event dispatcher's wall-clock cost per request, and writes
//! both curves to `BENCH_sched.json`. `--fleet-max N` caps the
//! fleet-size curve (CI runs to 1k; the committed ledger carries 10k).
//!
//! `--prefetch-json` sweeps the tape-heavy consumer fleet with
//! prediction-driven read-ahead off vs on and writes
//! `BENCH_prefetch.json`.
//!
//! `--lifecycle-json` runs the epoched checkpoint fleet with the tiered
//! data lifecycle off vs on (resident fast-tier bytes, hot-read p99,
//! engine totals) and writes `BENCH_lifecycle.json`.
//!
//! `--tenant-json` drains the three-tenant antagonist fleet solo /
//! unprotected-FIFO / protected (quotas + weighted-fair queueing +
//! eq. (2)-priced admission) and writes the quiet tenant's p99 bound and
//! the per-tenant shed/deferred/cancelled counters to
//! `BENCH_tenant.json`.
//!
//! `--dedup-json` drains the WAN-bound checkpoint producer fleet raw vs
//! content-addressed-chunked and writes the bytes-moved comparison (the
//! ≥ 3× WAN reduction claim, store occupancy, learned delta ratio) to
//! `BENCH_dedup.json`.
//!
//! `--ingest-json` times the chunk plane's ingest stages (CDC split,
//! chunk digesting, compression, end-to-end `write_chunked`) at 1/2/N
//! pool workers and writes `BENCH_ingest.json` (pool workers and host
//! cores included, so single-core runs are self-describing). It asserts
//! nothing host-timed.

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
            "{:<40} actual {:>10.2}s   predicted {}",
            r.label,
            r.actual.as_secs(),
            opt(r.predicted.map(|p| p.as_secs()))
        );
    }
}

fn run_fig10b(scale: Scale, seed: u64) {
    banner("FIGURE 10(b) - visualization reads by placement");
    let rows = fig10b(scale, seed);
    for r in &rows {
        println!(
            "{:<40} actual {:>10.2}s   predicted {}",
            r.label,
            r.actual.as_secs(),
            opt(r.predicted.map(|p| p.as_secs()))
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

fn run_sched(scale: Scale, seed: u64) -> Vec<SchedPoint> {
    banner("SCHEDULER - concurrent sessions vs back-to-back (virtual time)");
    let points = sched_throughput(scale, seed, &DEFAULT_LEVELS);
    println!(
        "{:>8} | {:>12} {:>12} {:>8} | {:>12} {:>8} {:>10}",
        "sessions", "seq(s)", "sched(s)", "speedup", "MB/s", "batches", "wait(s)"
    );
    for p in &points {
        println!(
            "{:>8} | {:>12.2} {:>12.2} {:>7.2}x | {:>12.4} {:>8} {:>10.3}",
            p.sessions,
            p.sequential_s,
            p.scheduled_s,
            p.speedup,
            p.throughput_mb_s,
            p.batches,
            p.mean_wait_s
        );
    }
    points
}

fn run_prefetch(scale: Scale, seed: u64) -> Vec<PrefetchPoint> {
    banner("READ-AHEAD - consumer fleet, prediction-driven prefetch off vs on");
    let points = prefetch_overlap(scale, seed, &PREFETCH_LEVELS);
    println!(
        "{:>8} | {:>12} {:>12} {:>8} | {:>8} {:>6} {:>6} {:>9}",
        "sessions", "off(s)", "on(s)", "speedup", "prefetch", "hits", "waste", "declined"
    );
    for p in &points {
        println!(
            "{:>8} | {:>12.2} {:>12.2} {:>7.2}x | {:>8} {:>6} {:>6} {:>9}",
            p.sessions, p.off_s, p.on_s, p.speedup, p.prefetched, p.hits, p.waste, p.declined
        );
    }
    points
}

fn run_lifecycle(scale: Scale, seed: u64) -> LifecyclePoint {
    banner("LIFECYCLE - tiered auto-migration + retention, off vs on");
    let p = lifecycle_tiering(scale, seed);
    println!(
        "{} epochs x {} producers   (demote 600s, vault 2400s, keep_last 2)",
        p.epochs, p.producers
    );
    println!("{:<24} {:>14} {:>14}", "", "lifecycle off", "lifecycle on");
    println!(
        "{:<24} {:>14} {:>14}   ({:.1}x smaller)",
        "fast-tier bytes", p.off_fast_bytes, p.on_fast_bytes, p.fast_shrink
    );
    println!(
        "{:<24} {:>14} {:>14}",
        "stored bytes (all tiers)", p.off_stored_bytes, p.on_stored_bytes
    );
    println!(
        "{:<24} {:>13.4}s {:>13.4}s",
        "hot-read p99", p.off_hot_p99_s, p.on_hot_p99_s
    );
    let t = &p.totals;
    println!(
        "engine: {} ticks, {} demotions, {} promotions, {} files pruned ({} bytes), \
         {} vaulted, {} recalled",
        t.ticks, t.demotions, t.promotions, t.pruned_files, t.pruned_bytes, t.vaulted, t.recalls
    );
    p
}

#[derive(serde::Serialize)]
struct LifecycleLedger {
    scale: String,
    seed: u64,
    point: LifecyclePoint,
}

/// Run the epoched checkpoint fleet lifecycle-off vs lifecycle-on and
/// write the virtual-time ledger to `BENCH_lifecycle.json`.
fn run_lifecycle_json(scale: Scale, seed: u64) {
    let point = run_lifecycle(scale, seed);
    let ledger = LifecycleLedger {
        scale: format!("{scale:?}"),
        seed,
        point,
    };
    let out = serde_json::to_string_pretty(&ledger).expect("ledger serializes");
    std::fs::write("BENCH_lifecycle.json", out).expect("write BENCH_lifecycle.json");
    println!("\nwrote BENCH_lifecycle.json");
}

fn run_tenant(scale: Scale, seed: u64) -> TenantPoint {
    banner("TENANTS - antagonist fleet: solo vs unprotected FIFO vs quotas+WFQ");
    let p = tenant_overload(scale, seed);
    println!(
        "{} quiet + {} noisy + {} batch sessions   (noisy cap {} requests, batch SLO {:.1}s)",
        p.quiet_sessions, p.noisy_sessions, p.batch_sessions, p.noisy_cap, p.batch_slo_s
    );
    println!(
        "quiet p99 wait: solo {:>8.3}s   fifo {:>8.3}s ({:.2}x)   protected {:>8.3}s ({:.2}x)",
        p.solo_quiet_p99_s,
        p.fifo_quiet_p99_s,
        p.fifo_vs_solo,
        p.protected_quiet_p99_s,
        p.protected_vs_solo
    );
    println!(
        "{:<10} {:>8} {:>9} {:>12} | {:>5} {:>8} {:>7} {:>9} | {:>10}",
        "tenant",
        "sessions",
        "requests",
        "bytes",
        "shed",
        "deferred",
        "expired",
        "cancelled",
        "p99(s)"
    );
    for t in &p.tenants {
        println!(
            "{:<10} {:>8} {:>9} {:>12} | {:>5} {:>8} {:>7} {:>9} | {:>10.3}",
            t.tenant,
            t.sessions,
            t.requests,
            t.bytes,
            t.shed,
            t.deferred,
            t.expired,
            t.cancelled,
            t.wait_p99.as_secs()
        );
    }
    p
}

#[derive(serde::Serialize)]
struct TenantLedger {
    scale: String,
    seed: u64,
    point: TenantPoint,
}

/// Drain the antagonist fleet three ways and write the quiet-tenant p99
/// bound plus the per-tenant counters to `BENCH_tenant.json`.
fn run_tenant_json(scale: Scale, seed: u64) {
    let point = run_tenant(scale, seed);
    assert!(
        point.protected_vs_solo <= 1.25,
        "protected quiet p99 must stay within 1.25x of solo: {point:?}"
    );
    let ledger = TenantLedger {
        scale: format!("{scale:?}"),
        seed,
        point,
    };
    let out = serde_json::to_string_pretty(&ledger).expect("ledger serializes");
    std::fs::write("BENCH_tenant.json", out).expect("write BENCH_tenant.json");
    println!("\nwrote BENCH_tenant.json");
}

fn run_dedup(scale: Scale, seed: u64) -> DedupPoint {
    banner("DEDUP - WAN-bound checkpoints, raw vs content-addressed chunks");
    let p = dedup_checkpoints(scale, seed);
    println!(
        "{} producers x {} dumps of {}^3 f32 ({} logical bytes over the WAN)",
        p.sessions, p.dumps_per_session, p.cube, p.logical_bytes
    );
    println!(
        "wan bytes: raw {:>12}   chunked {:>12}   ({:.1}x less moved)",
        p.raw_wan_bytes, p.chunked_wan_bytes, p.wan_reduction
    );
    println!(
        "store: {} chunks, {} physical bytes ({} dedup hits / {} inserts)",
        p.store_chunks, p.store_physical_bytes, p.dedup_hits, p.inserts
    );
    println!(
        "learned moved/logical ratio: {:.3}   wall clock: raw {:.3}s chunked {:.3}s",
        p.learned_ratio, p.raw_wall_s, p.chunked_wall_s
    );
    println!(
        "virtual makespan: raw {:.1}s chunked {:.1}s",
        p.raw_makespan_s, p.chunked_makespan_s
    );
    p
}

#[derive(serde::Serialize)]
struct DedupLedger {
    scale: String,
    seed: u64,
    point: DedupPoint,
}

/// Drain the checkpoint fleet raw vs chunked and write the bytes-moved
/// ledger to `BENCH_dedup.json`.
fn run_dedup_json(scale: Scale, seed: u64) {
    let point = run_dedup(scale, seed);
    assert!(
        point.wan_reduction >= 3.0,
        "chunked drain must move at most a third of the raw WAN bytes: {point:?}"
    );
    let ledger = DedupLedger {
        scale: format!("{scale:?}"),
        seed,
        point,
    };
    let out = serde_json::to_string_pretty(&ledger).expect("ledger serializes");
    std::fs::write("BENCH_dedup.json", out).expect("write BENCH_dedup.json");
    println!("\nwrote BENCH_dedup.json");
}

#[derive(serde::Serialize)]
struct IngestLedger {
    scale: String,
    seed: u64,
    /// Workers the global pool runs parallel regions on (`MSR_THREADS`
    /// if set, else host parallelism).
    pool_workers: usize,
    /// Physical parallelism of the host. When 1, the worker curves
    /// coincide by construction — the ledger is informative, not a failed
    /// scaling run.
    host_cores: usize,
    point: IngestPoint,
}

/// Measure the chunk plane's ingest stages at 1/2/N workers and write
/// `BENCH_ingest.json`.
fn run_ingest_json(scale: Scale, seed: u64) {
    banner("INGEST - chunk-plane throughput (CDC / digest / compress / e2e)");
    let point = ingest_throughput(scale, seed);
    println!(
        "payload {:.1} MB in {} chunks",
        point.payload_mb, point.chunks
    );
    println!(
        "{:>14} | {:>7} {:>12} {:>10}",
        "stage", "workers", "MB/s", "secs"
    );
    for s in &point.stages {
        println!(
            "{:>14} | {:>7} {:>12.1} {:>10.4}",
            s.stage, s.workers, s.mb_s, s.seconds
        );
    }
    let pool_workers = rayon::pool::ThreadPool::global().threads();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Recorded, never asserted: each figure is a single shot of a few
    // milliseconds, so the ratio swings either side of 1 from run to run.
    let e2e_mb_s = |workers: usize| {
        point
            .stages
            .iter()
            .find(|s| s.stage == "write_chunked" && s.workers == workers)
            .map(|s| s.mb_s)
    };
    if let (Some(one), Some(two)) = (e2e_mb_s(1), e2e_mb_s(2)) {
        println!(
            "e2e ingest at 2 workers: {:.2}x of 1 worker (pool {pool_workers} workers / host {host_cores} cores)",
            two / one
        );
    }
    let ledger = IngestLedger {
        scale: format!("{scale:?}"),
        seed,
        pool_workers,
        host_cores,
        point,
    };
    let out = serde_json::to_string_pretty(&ledger).expect("ledger serializes");
    std::fs::write("BENCH_ingest.json", out).expect("write BENCH_ingest.json");
    println!("\nwrote BENCH_ingest.json ({pool_workers} pool workers)");
}

#[derive(serde::Serialize)]
struct PrefetchLedger {
    scale: String,
    seed: u64,
    points: Vec<PrefetchPoint>,
}

/// Sweep the consumer fleet with read-ahead off/on and write the
/// virtual-time ledger to `BENCH_prefetch.json`.
fn run_prefetch_json(scale: Scale, seed: u64) {
    let points = run_prefetch(scale, seed);
    let ledger = PrefetchLedger {
        scale: format!("{scale:?}"),
        seed,
        points,
    };
    let out = serde_json::to_string_pretty(&ledger).expect("ledger serializes");
    std::fs::write("BENCH_prefetch.json", out).expect("write BENCH_prefetch.json");
    println!("\nwrote BENCH_prefetch.json");
}

#[derive(serde::Serialize)]
struct SchedLedger {
    scale: String,
    seed: u64,
    points: Vec<SchedPoint>,
    /// Fleet-size scaling curve: wall-clock dispatch cost per request at
    /// 16/100/1k/10k sessions under the discrete-event engine.
    fleet: Vec<FleetPoint>,
}

fn run_fleet_curve(seed: u64, fleet_max: usize) -> Vec<FleetPoint> {
    banner("SCHEDULER - fleet-size scaling (discrete-event dispatch, wall clock)");
    let levels: Vec<usize> = FLEET_LEVELS
        .iter()
        .copied()
        .filter(|&n| n <= fleet_max)
        .collect();
    if levels.len() < FLEET_LEVELS.len() {
        println!("(--fleet-max {fleet_max}: larger fleet sizes skipped)");
    }
    let fleet = fleet_scaling(seed, &levels);
    println!(
        "{:>8} | {:>9} {:>12} {:>12} | {:>10} {:>10} {:>12}",
        "sessions", "requests", "sched(s)", "MB/s", "admit(ms)", "run(ms)", "us/request"
    );
    for p in &fleet {
        println!(
            "{:>8} | {:>9} {:>12.2} {:>12.4} | {:>10.1} {:>10.1} {:>12.2}",
            p.sessions,
            p.requests,
            p.scheduled_s,
            p.throughput_mb_s,
            p.admit_ms,
            p.run_ms,
            p.dispatch_us_per_request
        );
    }
    fleet
}

/// Sweep the scheduler, drain the fleet-size curve, and write the ledger
/// to `BENCH_sched.json`.
fn run_sched_json(scale: Scale, seed: u64, fleet_max: usize) {
    let points = run_sched(scale, seed);
    let fleet = run_fleet_curve(seed, fleet_max);
    let ledger = SchedLedger {
        scale: format!("{scale:?}"),
        seed,
        points,
        fleet,
    };
    let out = serde_json::to_string_pretty(&ledger).expect("ledger serializes");
    std::fs::write("BENCH_sched.json", out).expect("write BENCH_sched.json");
    println!("\nwrote BENCH_sched.json");
}

#[derive(serde::Serialize)]
struct BenchRow {
    name: String,
    sequential_s: f64,
    parallel_s: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct BenchLedger {
    threads: usize,
    /// Workers the global pool actually runs parallel regions on —
    /// `MSR_THREADS` if set, else the host's available parallelism. On a
    /// single-core runner this is 1 and sequential-vs-pool parity is
    /// expected; anywhere else a speedup below 1.0 means the pool lost.
    pool_workers: usize,
    host_cores: usize,
    scale: String,
    seed: u64,
    experiments: Vec<BenchRow>,
}

/// Time each parallelized experiment sequential-vs-pool and write the
/// ledger to `BENCH_parallel.json`.
fn run_bench_json(scale: Scale, seed: u64) {
    type Experiment<'a> = (&'a str, Box<dyn Fn() + Sync>);
    let experiments: Vec<Experiment<'_>> = vec![
        ("figs678", Box::new(move || drop(figs678_all(seed)))),
        ("fig9", Box::new(move || drop(fig9(scale, seed)))),
        ("fig10a", Box::new(move || drop(fig10a(scale, seed)))),
        ("fig10b", Box::new(move || drop(fig10b(scale, seed)))),
        ("fig10c", Box::new(move || drop(fig10c(scale, seed)))),
        (
            "ablations",
            Box::new(move || {
                ablation_strategies(seed);
                ablation_tape_drives(seed);
                ablation_net_load(seed);
                ablation_superfile_cache(seed);
            }),
        ),
    ];
    let time = |f: &(dyn Fn() + Sync)| {
        let t = std::time::Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let threads = rayon::current_num_threads();
    let mut rows = Vec::new();
    for (name, f) in &experiments {
        let sequential_s = rayon::with_threads(1, || time(f.as_ref()));
        let parallel_s = time(f.as_ref());
        let speedup = sequential_s / parallel_s.max(1e-12);
        println!("{name:<10} sequential {sequential_s:>8.3}s   pool({threads}) {parallel_s:>8.3}s   speedup {speedup:.2}x");
        rows.push(BenchRow {
            name: (*name).to_owned(),
            sequential_s,
            parallel_s,
            speedup,
        });
    }
    let pool_workers = rayon::pool::ThreadPool::global().threads();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if pool_workers > 1 {
        for r in rows.iter().filter(|r| r.speedup < 1.0) {
            eprintln!(
                "warning: {} ran {:.2}x SLOWER on {} pool workers than sequential \
                 ({:.3}s vs {:.3}s) — the pool is losing on this host",
                r.name,
                1.0 / r.speedup.max(1e-12),
                pool_workers,
                r.parallel_s,
                r.sequential_s
            );
        }
    }
    let ledger = BenchLedger {
        threads,
        pool_workers,
        host_cores,
        scale: format!("{scale:?}"),
        seed,
        experiments: rows,
    };
    let out = serde_json::to_string_pretty(&ledger).expect("ledger serializes");
    std::fs::write("BENCH_parallel.json", out).expect("write BENCH_parallel.json");
    println!("\nwrote BENCH_parallel.json ({pool_workers} pool workers)");
    run_chaos_bench(scale, seed);
}

#[derive(serde::Serialize)]
struct ChaosLedger {
    scale: String,
    seed: u64,
    reps: u32,
    /// Fault-free wall-clock with the full resilience machinery active
    /// (retry policy + circuit breaker + staging copies).
    resilience_on_s: f64,
    /// The same workload with `MsrSystem::disable_resilience()`.
    resilience_off_s: f64,
    /// `on / off` — the real-time cost of resilience when nothing fails.
    overhead: f64,
}

/// The chaos-overhead entry: a fault-free session workload timed with the
/// resilience machinery on vs off, written to `BENCH_chaos.json`. The
/// interesting number is the overhead ratio — retry/breaker bookkeeping
/// on the happy path should be close to free.
fn run_chaos_bench(scale: Scale, seed: u64) {
    use msr_core::{DatasetSpec, LocationHint, MsrSystem};
    use msr_meta::ElementType;
    use msr_runtime::ProcGrid;

    let (n, iterations, reps) = match scale {
        Scale::Quick => (16, 12, 3),
        Scale::Paper => (32, 24, 5),
    };
    let workload = |resilient: bool| {
        let mut sys = MsrSystem::testbed(seed);
        if !resilient {
            sys.disable_resilience();
        }
        let mut s = sys
            .session()
            .app("chaosbench")
            .user("u")
            .iterations(iterations)
            .grid(ProcGrid::new(2, 2, 1))
            .build()
            .expect("session");
        let spec = DatasetSpec::astro3d_default("d", ElementType::U8, n)
            .with_hint(LocationHint::RemoteDisk);
        let data: Vec<u8> = (0..spec.snapshot_bytes())
            .map(|i| (i % 251) as u8)
            .collect();
        let h = s.open(spec).expect("open");
        for iter in 0..=iterations {
            s.write_iteration(h, iter, &data).expect("fault-free write");
        }
        for iter in (0..=iterations).step_by(6) {
            let (back, rep) = s.read_iteration(h, iter).expect("fault-free read");
            assert!(!rep.stale && back == data, "fault-free run must be exact");
        }
        s.finalize().expect("finalize");
    };
    let time = |resilient: bool| {
        let t = std::time::Instant::now();
        for _ in 0..reps {
            workload(resilient);
        }
        t.elapsed().as_secs_f64() / f64::from(reps)
    };
    // Warm up once so allocator/page-cache effects don't land on either side.
    workload(true);
    let resilience_off_s = time(false);
    let resilience_on_s = time(true);
    let overhead = resilience_on_s / resilience_off_s.max(1e-12);
    println!(
        "chaos      off {resilience_off_s:>8.3}s   on {resilience_on_s:>8.3}s   overhead {overhead:.2}x"
    );
    let ledger = ChaosLedger {
        scale: format!("{scale:?}"),
        seed,
        reps,
        resilience_on_s,
        resilience_off_s,
        overhead,
    };
    let out = serde_json::to_string_pretty(&ledger).expect("ledger serializes");
    std::fs::write("BENCH_chaos.json", out).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    if args.iter().any(|a| a == "--bench-json") {
        run_bench_json(scale, seed);
        return;
    }
    if args.iter().any(|a| a == "--sched-json") {
        let fleet_max = args
            .iter()
            .position(|a| a == "--fleet-max")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(usize::MAX);
        run_sched_json(scale, seed, fleet_max);
        return;
    }
    if args.iter().any(|a| a == "--prefetch-json") {
        run_prefetch_json(scale, seed);
        return;
    }
    if args.iter().any(|a| a == "--lifecycle-json") {
        run_lifecycle_json(scale, seed);
        return;
    }
    if args.iter().any(|a| a == "--tenant-json") {
        run_tenant_json(scale, seed);
        return;
    }
    if args.iter().any(|a| a == "--ingest-json") {
        run_ingest_json(scale, seed);
        return;
    }
    if args.iter().any(|a| a == "--dedup-json") {
        run_dedup_json(scale, seed);
        return;
    }
    let mut wanted: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--") && a.parse::<u64>().is_err())
        .collect();
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = vec![
            "table1",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10a",
            "fig10b",
            "fig10c",
            "fig11",
            "example42",
            "failover",
            "ablations",
            "sched",
            "prefetch",
            "lifecycle",
            "tenant",
            "dedup",
        ];
    }
    println!(
        "multi-storage resource architecture repro  (scale: {:?}, seed: {seed})",
        scale
    );
    for w in wanted {
        match w {
            "table1" => run_table1(seed),
            "fig6" => run_curve("FIGURE 6 (local disk)", fig6(seed)),
            "fig7" => run_curve("FIGURE 7 (remote disk)", fig7(seed)),
            "fig8" => run_curve("FIGURE 8 (remote tape)", fig8(seed)),
            "fig9" => run_fig9(scale, seed),
            "fig10a" => run_fig10a(scale, seed),
            "fig10b" => run_fig10b(scale, seed),
            "fig10c" => run_fig10c(scale, seed),
            "fig11" => run_fig11(scale, seed),
            "example42" => run_example42(seed),
            "failover" => run_failover(scale, seed),
            "ablations" => run_ablations(seed),
            "sched" => drop(run_sched(scale, seed)),
            "prefetch" => drop(run_prefetch(scale, seed)),
            "lifecycle" => drop(run_lifecycle(scale, seed)),
            "tenant" => drop(run_tenant(scale, seed)),
            "dedup" => drop(run_dedup(scale, seed)),
            other => eprintln!("unknown experiment {other:?} (see --help in source)"),
        }
    }
}
