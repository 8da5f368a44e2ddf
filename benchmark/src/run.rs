//! One workload, one process: repetitions for `--seconds`, the
//! determinism check between them, the finishing pass, and the metrics
//! assembled under their catalogue names.

use crate::host::{peak_rss_mb, HostInfo};
use crate::metrics::{self, Clock};
use crate::results::{Value, WorkloadRun};
use crate::stats::{median, quartiles, tail_percentile};
use crate::trace::{chrome_trace, self_time_by_layer, Layer, Span, Tracer};
use crate::workloads::{by_name, Cx, Numbers, Rep, Res, Scale};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for; repetitions stop when the next one would
    /// not fit (at least two are always made).
    pub seconds: f64,
    /// The traced run: per-layer metrics, spans, probes.
    pub traced: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// Where `trace-<workload>.json` goes (traced runs only).
    pub out_dir: PathBuf,
    /// The checkout, for the recorded commit.
    pub repo_root: PathBuf,
    /// Also re-run one repetition under a one-worker pool and require
    /// bit-identical virtual metrics.
    pub verify_threads: bool,
}

/// Require `b` to repeat `a` bit for bit.
fn same_virtual(a: &Numbers, b: &Numbers, what: &str) -> Res<()> {
    let names: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for name in names {
        let (x, y) = (a.get(name), b.get(name));
        if x.map(|v| v.to_bits()) != y.map(|v| v.to_bits()) {
            return Err(format!(
                "virtual metric {name} differs {what}: {x:?} vs {y:?}"
            ));
        }
    }
    Ok(())
}

/// Whether `span` lies inside a `timed` span and outside every `untimed`
/// one: the part of a repetition the layer table accounts for.
fn on_the_clock(spans: &[Span], mut id: usize) -> bool {
    let mut timed = false;
    loop {
        match spans[id].name {
            "untimed" => return false,
            "timed" => timed = true,
            _ => {}
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return timed,
        }
    }
}

/// Host seconds per repetition by layer: span self times of the traced
/// repetitions, then the replayed cost of the layers below the entered
/// crate (`_lower.*`) moved out of `entry` and into them. If the replays
/// claim more than the entered crate spent, they are scaled to fit.
fn layer_seconds(
    spans: &[Span],
    traced_reps: &BTreeSet<u32>,
    entry: Layer,
    probes: &Numbers,
) -> BTreeMap<Layer, f64> {
    let mut table = self_time_by_layer(spans, |id, s| {
        traced_reps.contains(&s.rep) && on_the_clock(spans, id)
    });
    let n = traced_reps.len().max(1) as f64;
    for secs in table.values_mut() {
        *secs /= n;
    }
    let lower = [
        (Layer::Runtime, "_lower.runtime_s"),
        (Layer::ChunkPlane, "_lower.chunk_plane_s"),
        (Layer::Chunk, "_lower.chunk_s"),
        (Layer::Storage, "_lower.storage_s"),
        (Layer::Meta, "_lower.meta_s"),
        (Layer::Obs, "_lower.obs_s"),
    ]
    .map(|(l, name)| (l, probes.get(name).copied().unwrap_or(0.0)));
    let claimed: f64 = lower.iter().map(|(_, s)| s).sum();
    let available = table.get(&entry).copied().unwrap_or(0.0);
    let scale = if claimed > available && claimed > 0.0 {
        available / claimed
    } else {
        1.0
    };
    for (l, secs) in lower {
        *table.entry(l).or_insert(0.0) += secs * scale;
        *table.entry(entry).or_insert(0.0) -= secs * scale;
    }
    table
}

impl RunConfig {
    fn cx<'a>(&self, tr: &'a mut Tracer) -> Cx<'a> {
        Cx {
            seed: self.seed,
            scale: self.scale,
            tr,
            layers: self.traced,
        }
    }
}

/// Run one workload as configured.
pub fn run(cfg: &RunConfig) -> Res<WorkloadRun> {
    let started = Instant::now();
    let mut workload =
        by_name(&cfg.workload).ok_or_else(|| format!("unknown workload {}", cfg.workload))?;
    let mut tr = Tracer::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced_reps = BTreeSet::new();
    loop {
        let i = reps.len() as u32;
        // The traced run alternates untraced and traced repetitions: the
        // difference between the two is the tracing overhead.
        let traced = cfg.traced && i % 2 == 1;
        tr.set(traced, i);
        tr.enter(Layer::Bench, "rep");
        let rep = workload.rep(&mut cfg.cx(&mut tr))?;
        tr.exit();
        if traced {
            traced_reps.insert(i);
        }
        reps.push(rep);
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        // Untraced and traced repetitions come in pairs.
        let step = if cfg.traced { 2 } else { 1 };
        if reps.len() >= 2
            && reps.len().is_multiple_of(step)
            && elapsed + step as f64 * per_rep > cfg.seconds
        {
            break;
        }
    }
    for rep in &reps[1..] {
        same_virtual(&reps[0].virt, &rep.virt, "between repetitions")?;
    }

    tr.set(cfg.traced, reps.len() as u32);
    let last = reps.last().expect("at least two repetitions");
    let (finish_virt, finish_host) = workload.finish(&mut cfg.cx(&mut tr), &last.virt)?;

    if cfg.verify_threads {
        tr.set(false, 0);
        let single = rayon::with_threads(1, || workload.rep(&mut cfg.cx(&mut tr)))?;
        same_virtual(&reps[0].virt, &single.virt, "under a one-worker pool")?;
    }

    // --- assemble ----------------------------------------------------------
    let mut virt = last.virt.clone();
    virt.extend(finish_virt);
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let sample = |samples: &mut BTreeMap<String, Vec<f64>>, name: &str, v: f64| {
        samples.entry(name.to_owned()).or_default().push(v);
    };
    // End-to-end host metrics come from repetitions run with tracing off.
    let untraced: Vec<&Rep> = reps
        .iter()
        .enumerate()
        .filter(|(i, _)| !traced_reps.contains(&(*i as u32)))
        .map(|(_, r)| r)
        .collect();
    for rep in &untraced {
        sample(&mut samples, "setup_s", rep.setup_s);
        sample(&mut samples, "host_wall_s", rep.wall_s);
        sample(
            &mut samples,
            "host_us_per_request",
            rep.wall_s * 1e6 / rep.requests.max(1) as f64,
        );
    }
    for rep in &reps {
        for (name, v) in &rep.host {
            sample(&mut samples, name, *v);
        }
    }
    let mut host: Numbers = finish_host;
    let mut layer_table = BTreeMap::new();
    if cfg.traced {
        let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
        let traced_walls: Vec<f64> = traced_reps
            .iter()
            .map(|&i| reps[i as usize].wall_s)
            .collect();
        // Each traced repetition against the untraced one before it: the
        // median of the pairs shrugs off one cold or disturbed pair.
        let overheads: Vec<f64> = walls
            .iter()
            .zip(&traced_walls)
            .map(|(u, t)| t / u.max(1e-12) - 1.0)
            .collect();
        host.insert("bench.trace_overhead_frac".into(), median(&overheads));
        host.insert(
            "bench.rep_spread_frac".into(),
            quartiles(&walls).spread_frac(),
        );
        span_metrics(&tr, &traced_reps, &virt, last.requests, &mut host);

        let table = layer_seconds(tr.spans(), &traced_reps, workload.entry(), &host);
        let total: f64 = table.values().sum();
        for l in Layer::ALL {
            let secs = table.get(&l).copied().unwrap_or(0.0);
            host.insert(
                format!("layer.{}.self_frac", l.name()),
                secs / total.max(1e-12),
            );
            layer_table.insert(l.name().to_owned(), secs);
        }
        host.insert("apps.busy_frac".into(), host["layer.apps.self_frac"]);
        derive(&mut virt);
        let dir = &cfg.out_dir;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", cfg.workload));
        std::fs::write(&path, chrome_trace(&cfg.workload, tr.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    host.insert("peak_rss_mb".into(), peak_rss_mb().unwrap_or(0.0));

    let catalogue = if cfg.traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut out = BTreeMap::new();
    for m in catalogue {
        let (value, spread) = match m.clock {
            Clock::Virtual => (virt.get(&m.name).copied().unwrap_or(0.0), None),
            Clock::Host => match samples.get(&m.name) {
                Some(xs) => {
                    let q = quartiles(xs);
                    (q.p50, Some(q))
                }
                None => (host.get(&m.name).copied().unwrap_or(0.0), None),
            },
        };
        if !value.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
        out.insert(
            m.name,
            Value {
                value,
                unit: m.unit.to_owned(),
                clock: m.clock.name().to_owned(),
                spread,
            },
        );
    }
    Ok(WorkloadRun {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        scale: match cfg.scale {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
        .to_owned(),
        traced: cfg.traced,
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        host: HostInfo::probe(&cfg.repo_root),
        metrics: out,
        layer_seconds: layer_table,
        samples,
    })
}

/// Ratios of the summed counts a repetition reports.
fn derive(virt: &mut Numbers) {
    let get = |virt: &Numbers, name: &str| virt.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mean_wait = ratio(get(virt, "_sched.wait_sum_s"), get(virt, "sched.requests"));
    let hit_ratio = ratio(
        get(virt, "_sched.prefetch_hits"),
        get(virt, "sched.prefetched"),
    );
    virt.insert("sched.mean_wait_s".into(), mean_wait);
    virt.insert("sched.prefetch_hit_ratio".into(), hit_ratio);
}

/// Per-layer host metrics read off the traced repetitions' spans.
fn span_metrics(
    tr: &Tracer,
    traced_reps: &BTreeSet<u32>,
    virt: &Numbers,
    requests: u64,
    host: &mut Numbers,
) {
    let durations = |name: &str| -> Vec<f64> {
        tr.spans()
            .iter()
            .filter(|s| s.name == name && traced_reps.contains(&s.rep))
            .map(Span::secs)
            .collect()
    };
    let n = traced_reps.len().max(1) as f64;
    let p50 = |name: &str, scale: f64| median(&durations(name)) * scale;
    // A fold from 0.0: `sum()` of no samples is -0.0.
    let total = |name: &str| durations(name).iter().fold(0.0, |a, d| a + d);
    let rate_mb_s = |bytes_per_rep: f64, name: &str| {
        let secs = total(name);
        if secs > 0.0 {
            bytes_per_rep * n / 1e6 / secs
        } else {
            0.0
        }
    };
    let count = |name: &str| virt.get(name).copied().unwrap_or(0.0);

    host.insert("apps.advance_ms_p50".into(), p50("advance", 1e3));
    host.insert("apps.render_ms_p50".into(), p50("render", 1e3));
    host.insert(
        "apps.field_bytes_mb_s".into(),
        rate_mb_s(count("_core.bytes_written"), "field_bytes"),
    );
    host.insert("core.open_us_p50".into(), p50("open", 1e6));
    host.insert(
        "core.write_iteration_ms_p50".into(),
        p50("write_iteration", 1e3),
    );
    host.insert(
        "core.write_iteration_ms_p95".into(),
        tail_percentile(&durations("write_iteration"), 95.0).0 * 1e3,
    );
    host.insert(
        "core.write_mb_s".into(),
        rate_mb_s(count("_core.bytes_written"), "write_iteration"),
    );
    host.insert(
        "core.read_dataset_mb_s".into(),
        rate_mb_s(count("_core.bytes_read"), "read_dataset"),
    );
    host.insert("core.finalize_ms".into(), p50("finalize", 1e3));
    let admits = durations("admit");
    host.insert(
        "sched.admit_us_per_session".into(),
        total("admit") * 1e6 / admits.len().max(1) as f64,
    );
    host.insert(
        "sched.dispatch_us_per_request".into(),
        total("run") * 1e6 / (requests.max(1) as f64 * n),
    );
    host.insert("lifecycle.tick_ms_p50".into(), p50("engine.tick", 1e3));
    // Twin-session predictions run in the finishing pass, after the
    // repetitions: take every `predict` span of the run.
    let predicts: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "predict")
        .map(Span::secs)
        .collect();
    host.insert("predict.predict_us_p50".into(), median(&predicts) * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn layer_table_covers_the_timed_region_and_moves_replayed_cost_down() {
        let spans = vec![
            span("rep", Layer::Bench, 0, 1000, None),
            span("setup", Layer::Bench, 0, 100, Some(0)),
            span("ptool_sweep", Layer::Predict, 10, 90, Some(1)),
            span("timed", Layer::Bench, 100, 900, Some(0)),
            span("run", Layer::Sched, 100, 700, Some(3)),
            span("untimed", Layer::Bench, 700, 800, Some(3)),
            span("engine.tick", Layer::Lifecycle, 800, 900, Some(3)),
        ];
        let reps = BTreeSet::from([1]);
        let mut probes = Numbers::new();
        probes.insert("_lower.runtime_s".into(), 200e-9);
        probes.insert("_lower.chunk_s".into(), 100e-9);
        let t = layer_seconds(&spans, &reps, Layer::Sched, &probes);
        assert!((t[&Layer::Sched] - 300e-9).abs() < 1e-15);
        assert!((t[&Layer::Runtime] - 200e-9).abs() < 1e-15);
        assert!((t[&Layer::Chunk] - 100e-9).abs() < 1e-15);
        assert!((t[&Layer::Lifecycle] - 100e-9).abs() < 1e-15);
        assert!(!t.contains_key(&Layer::Predict), "set-up is off the clock");
        let total: f64 = t.values().sum();
        assert!((total - 700e-9).abs() < 1e-15, "timed minus untimed");
        // Replays that claim more than the entered crate spent are scaled.
        probes.insert("_lower.runtime_s".into(), 1100e-9);
        let t = layer_seconds(&spans, &reps, Layer::Sched, &probes);
        assert!(t[&Layer::Sched].abs() < 1e-15);
        assert!((t[&Layer::Runtime] - 550e-9).abs() < 1e-15);
    }

    #[test]
    fn virtual_numbers_must_match_bit_for_bit() {
        let a = Numbers::from([("x".to_owned(), 0.1 + 0.2)]);
        let b = Numbers::from([("x".to_owned(), 0.3)]);
        assert!(same_virtual(&a, &a, "").is_ok());
        assert!(same_virtual(&a, &b, "").is_err(), "one ulp apart");
        assert!(same_virtual(&a, &Numbers::new(), "").is_err(), "missing");
    }
}
