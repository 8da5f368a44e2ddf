//! The metric catalogue: every name the benchmark reports, with its unit,
//! its clock, which way is better and — for end-to-end metrics — the bound
//! by which it may worsen before a change counts as a regression.
//!
//! `BENCHMARK.json` is generated from this file (`msr-benchmark manifest`)
//! and a test keeps the two equal.

use crate::trace::Layer;

/// Which of the two clocks a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the rust code: a median over repetitions, with spread.
    Host,
    /// eq. (1)/(2) seconds and counts from the seeded simulator: repeats
    /// exactly at a fixed seed.
    Virtual,
}

impl Clock {
    /// `"host"` or `"virtual"`.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry. What each metric measures, and which end-to-end
/// metric a per-layer metric should move on which workload, is tabulated
/// in `README.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The reported name.
    pub name: String,
    /// Unit, in `BENCHMARK.json`'s alphabet.
    pub unit: &'static str,
    /// The clock it reads.
    pub clock: Clock,
    /// The direction that is an improvement.
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen. Host bounds come from the measured run-to-run
    /// spread of the build host; virtual metrics repeat exactly at a fixed
    /// seed, and their bounds cover the simulator's seed-to-seed jitter.
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, clock: Clock, better: Better) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        clock,
        better,
        bound: None,
    }
}

/// The ten end-to-end metrics, reported for every workload.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    use Clock::{Host, Virtual};
    [
        ("setup_s", "s", Host, Lower, 0.25),
        ("host_wall_s", "s", Host, Lower, 0.20),
        ("host_us_per_request", "us", Host, Lower, 0.20),
        ("peak_rss_mb", "MB", Host, Lower, 0.10),
        ("virtual_makespan_s", "s", Virtual, Lower, 0.05),
        ("virtual_wait_p99_s", "s", Virtual, Lower, 0.05),
        ("predict_agreement_pct", "%", Virtual, Higher, 0.15),
        ("wan_bytes_per_logical_byte", "ratio", Virtual, Lower, 0.05),
        (
            "stored_bytes_per_logical_byte",
            "ratio",
            Virtual,
            Lower,
            0.05,
        ),
        ("served_op_share", "ratio", Virtual, Higher, 0.02),
    ]
    .into_iter()
    .map(|(name, unit, clock, better, bound)| Metric {
        bound: Some(bound),
        ..metric(name, unit, clock, better)
    })
    .collect()
}

/// The per-layer metrics, reported for every workload by the traced run
/// (0 where a workload never reaches the layer).
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    use Clock::{Host, Virtual};
    let mut m: Vec<Metric> = [
        ("apps.advance_ms_p50", "ms", Host, Lower),
        ("apps.field_bytes_mb_s", "MB/s", Host, Higher),
        ("apps.render_ms_p50", "ms", Host, Lower),
        ("apps.busy_frac", "ratio", Host, Lower),
        ("core.open_us_p50", "us", Host, Lower),
        ("core.write_iteration_ms_p50", "ms", Host, Lower),
        ("core.write_iteration_ms_p95", "ms", Host, Lower),
        ("core.write_mb_s", "MB/s", Host, Higher),
        ("core.read_dataset_mb_s", "MB/s", Host, Higher),
        ("core.finalize_ms", "ms", Host, Lower),
        ("sched.admit_us_per_session", "us", Host, Lower),
        ("sched.dispatch_us_per_request", "us", Host, Lower),
        ("sched.payload_mb_s", "MB/s", Host, Higher),
        ("sched.requests", "count", Virtual, Higher),
        ("sched.batches", "count", Virtual, Lower),
        ("sched.max_batch", "count", Virtual, Higher),
        ("sched.mean_wait_s", "s", Virtual, Lower),
        ("sched.requeues", "count", Virtual, Lower),
        ("sched.prefetched", "count", Virtual, Higher),
        ("sched.prefetch_hit_ratio", "ratio", Virtual, Higher),
        ("sched.prefetch_waste", "count", Virtual, Lower),
        ("sched.prefetch_declined", "count", Virtual, Lower),
        ("sched.shed_sessions", "count", Virtual, Lower),
        ("sched.deferred_sessions", "count", Virtual, Lower),
        ("sched.cancelled_sessions", "count", Virtual, Lower),
        ("runtime.write_naive_mb_s", "MB/s", Host, Higher),
        ("runtime.write_sieving_mb_s", "MB/s", Host, Higher),
        ("runtime.write_collective_mb_s", "MB/s", Host, Higher),
        ("runtime.write_subfile_mb_s", "MB/s", Host, Higher),
        ("runtime.read_naive_mb_s", "MB/s", Host, Higher),
        ("runtime.read_sieving_mb_s", "MB/s", Host, Higher),
        ("runtime.read_collective_mb_s", "MB/s", Host, Higher),
        ("runtime.read_subfile_mb_s", "MB/s", Host, Higher),
        ("runtime.write_chunked_mb_s", "MB/s", Host, Higher),
        ("runtime.read_chunked_mb_s", "MB/s", Host, Higher),
        ("runtime.scratch_reuse_ratio", "ratio", Host, Higher),
        ("runtime.native_calls_per_request", "count", Virtual, Lower),
        ("chunk.cdc_split_mb_s", "MB/s", Host, Higher),
        ("chunk.digest_mb_s", "MB/s", Host, Higher),
        ("chunk.compress_mb_s", "MB/s", Host, Higher),
        ("chunk.decompress_mb_s", "MB/s", Host, Higher),
        ("chunk.dedup_hit_ratio", "ratio", Virtual, Higher),
        ("chunk.store_chunks", "count", Virtual, Lower),
        ("chunk.inserts", "count", Virtual, Lower),
        ("chunk.manifests", "count", Virtual, Lower),
        ("chunk.raw_twin_makespan_s", "s", Virtual, Lower),
        ("storage.local.native_calls", "count", Virtual, Lower),
        ("storage.local.bytes_written", "B", Virtual, Lower),
        ("storage.local.bytes_read", "B", Virtual, Lower),
        ("storage.local.virtual_busy_s", "s", Virtual, Lower),
        ("storage.rdisk.native_calls", "count", Virtual, Lower),
        ("storage.rdisk.bytes_written", "B", Virtual, Lower),
        ("storage.rdisk.bytes_read", "B", Virtual, Lower),
        ("storage.rdisk.virtual_busy_s", "s", Virtual, Lower),
        ("storage.tape.native_calls", "count", Virtual, Lower),
        ("storage.tape.bytes_written", "B", Virtual, Lower),
        ("storage.tape.bytes_read", "B", Virtual, Lower),
        ("storage.tape.virtual_busy_s", "s", Virtual, Lower),
        ("storage.fixed_cost_frac", "ratio", Virtual, Lower),
        ("storage.put_1mib_us_p50", "us", Host, Lower),
        ("storage.get_1mib_us_p50", "us", Host, Lower),
        ("net.transfers", "count", Virtual, Lower),
        ("net.wire_bytes", "B", Virtual, Lower),
        ("net.virtual_busy_s", "s", Virtual, Lower),
        ("net.failures", "count", Virtual, Lower),
        ("meta.queries", "count", Virtual, Lower),
        ("meta.datasets", "count", Virtual, Lower),
        ("meta.find_dataset_us_p50", "us", Host, Lower),
        ("predict.ptool_sweep_s", "s", Host, Lower),
        ("predict.predict_us_p50", "us", Host, Lower),
        ("predict.abs_err_pct", "%", Virtual, Lower),
        ("predict.dataset_err_pct_max", "%", Virtual, Lower),
        ("predict.learned_ratio", "ratio", Virtual, Lower),
        ("lifecycle.ticks", "count", Virtual, Higher),
        ("lifecycle.demotions", "count", Virtual, Higher),
        ("lifecycle.vaulted", "count", Virtual, Higher),
        ("lifecycle.pruned_bytes", "B", Virtual, Higher),
        ("lifecycle.move_err_pct", "%", Virtual, Lower),
        ("lifecycle.tick_ms_p50", "ms", Host, Lower),
        ("obs.events", "count", Virtual, Lower),
        ("obs.dropped", "count", Virtual, Lower),
        ("obs.events_per_request", "count", Virtual, Lower),
        ("obs.snapshot_ms", "ms", Host, Lower),
        ("bench.trace_overhead_frac", "ratio", Host, Lower),
        ("bench.rep_spread_frac", "ratio", Host, Lower),
    ]
    .into_iter()
    .map(|(name, unit, clock, better)| metric(name, unit, clock, better))
    .collect();
    // The layer table: each layer's share of the traced `host_wall_s`.
    m.extend(Layer::ALL.map(|l| {
        metric(
            &format!("layer.{}.self_frac", l.name()),
            "ratio",
            Host,
            Lower,
        )
    }));
    m
}

/// The workloads and why each exists, as `BENCHMARK.json` states it.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("astro3d_pipeline", "The paper's single-client Fig. 1(b) path at 128^3: msr-apps and collective msr-runtime/msr-storage writes do the host work, msr-sched and msr-chunk none; the one paper-comparable prediction error."),
    ("fleet_10k", "10 000 tiny sessions through one scheduler: control plane only (msr-sched, msr-core placement, msr-meta, msr-obs); an engine or chunk optimisation must show no change here."),
    ("ckpt_chunked", "8 WAN checkpoint producers through the chunk plane with verified read-backs: msr-chunk and msr-runtime::chunked dominate the host clock, per-chunk native calls the virtual clock (ROADMAP item 2)."),
    ("shared_mix", "One testbed over 3 epochs of tenants, quotas, deferral, tape read-ahead and lifecycle ticks: the scheduler and storage layers under contention, where fairness, prefetch waste and tiering show."),
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, generated.
pub fn manifest_json() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(&m.name),
                quote(m.unit),
                quote(m.better.name()),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(&m.name),
                quote(m.unit),
                quote(m.better.name())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_fits_the_manifest_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert_eq!(e2e.len(), 10);
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &e2e {
            let bound = m.bound.unwrap();
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
        for (name, why) in WORKLOADS {
            assert!(
                name_ok(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
            assert!(seen.insert(name.to_owned()), "{name} used twice");
        }
        assert_eq!(
            WORKLOADS.map(|(n, _)| n),
            crate::workloads::NAMES,
            "manifest and harness name the same workloads"
        );
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let text = manifest_json();
        assert!(text.len() <= 64 * 1024);
        let v = serde_json::parse_value(&text).expect("valid JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
