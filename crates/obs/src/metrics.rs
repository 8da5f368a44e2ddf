//! Aggregation: the event stream folded into per-(layer, resource, op)
//! statistics — throughput, latency percentiles, gauge extremes, failover
//! counts.

use crate::event::{EventKind, Layer};
use crate::ops;
use crate::packed::{Interner, Packed};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// A simple exact-percentile histogram: samples are retained and sorted on
/// demand. Good for post-run snapshots; not a streaming sketch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Add one sample.
    pub fn record(&mut self, sample: f64) {
        self.samples.push(sample);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest-rank; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.samples.len() as f64).ceil() as usize)
            .clamp(1, self.samples.len());
        self.samples[rank - 1]
    }
}

/// Aggregated statistics for one (layer, resource, op) key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpMetrics {
    /// Emitting layer name.
    pub layer: String,
    /// Resource key.
    pub resource: String,
    /// Operation key.
    pub op: String,
    /// Number of span events.
    pub count: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total busy seconds.
    pub total_secs: f64,
    /// Mean span duration.
    pub mean_secs: f64,
    /// Median span duration.
    pub p50_secs: f64,
    /// 95th-percentile span duration.
    pub p95_secs: f64,
    /// 99th-percentile span duration.
    pub p99_secs: f64,
    /// Longest span.
    pub max_secs: f64,
    /// `bytes / total_secs`, in MB/s (0 when no bytes or no time).
    pub throughput_mb_s: f64,
}

/// Min/last/max over one gauge key (a `Count` event stream).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeStat {
    /// `layer/resource/op` key.
    pub key: String,
    /// Number of samples.
    pub count: u64,
    /// Final sampled value.
    pub last: f64,
    /// Largest sampled value (e.g. peak queue depth).
    pub max: f64,
    /// Sum of samples (meaningful for counter-style gauges).
    pub sum: f64,
}

/// A full aggregated view of one run's event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Events aggregated.
    pub events: u64,
    /// Events lost to the registry capacity bound.
    pub dropped: u64,
    /// Per-operation span statistics, sorted by key.
    pub per_op: Vec<OpMetrics>,
    /// Gauge/counter statistics, sorted by key.
    pub gauges: Vec<GaugeStat>,
    /// Session-layer failover re-placements observed.
    pub failovers: u64,
    /// Network-layer transfer failures observed.
    pub net_failures: u64,
}

/// Rows grouped by `(layer, resource id, op id)`. The row's public name is
/// built once, when a key is first seen, and decides both which row the
/// key feeds (two keys that spell the same name share one) and where the
/// row sorts in the output — ids and first-seen order decide nothing.
struct Rows<N, R> {
    by_key: HashMap<(Layer, u32, u32), usize>,
    by_name: BTreeMap<N, usize>,
    rows: Vec<R>,
}

impl<N: Ord, R> Rows<N, R> {
    fn new() -> Self {
        Rows {
            by_key: HashMap::new(),
            by_name: BTreeMap::new(),
            rows: Vec::new(),
        }
    }

    fn row(&mut self, p: &Packed, name: impl FnOnce() -> N, new: impl FnOnce(&N) -> R) -> &mut R {
        let (by_name, rows) = (&mut self.by_name, &mut self.rows);
        let at = *self
            .by_key
            .entry((p.layer, p.resource, p.op))
            .or_insert_with(|| match by_name.entry(name()) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(fresh) => {
                    rows.push(new(fresh.key()));
                    *fresh.insert(rows.len() - 1)
                }
            });
        &mut self.rows[at]
    }

    /// `(name, row)` in name order.
    fn into_sorted(self) -> impl Iterator<Item = (N, R)> {
        let mut rows: Vec<Option<R>> = self.rows.into_iter().map(Some).collect();
        self.by_name
            .into_iter()
            .map(move |(name, at)| (name, rows[at].take().expect("one name per row")))
    }
}

impl MetricsSnapshot {
    /// Fold stored records, in order of record, into per-key statistics.
    pub(crate) fn fold(records: &[Packed], names: &Interner, dropped: u64) -> MetricsSnapshot {
        struct Acc {
            count: u64,
            bytes: u64,
            hist: Histogram,
        }
        let mut spans: Rows<(&str, &str, &str), Acc> = Rows::new();
        let mut gauges: Rows<String, GaugeStat> = Rows::new();
        let failover = names.lookup(ops::FAILOVER);
        let transfer_failed = names.lookup(ops::TRANSFER_FAILED);
        let mut failovers = 0u64;
        let mut net_failures = 0u64;

        for p in records {
            if p.layer == Layer::Session && Some(p.op) == failover {
                failovers += 1;
            }
            if p.layer == Layer::Network && Some(p.op) == transfer_failed {
                net_failures += 1;
            }
            let name = || (p.layer.name(), names.name(p.resource), names.name(p.op));
            match p.kind {
                EventKind::Span => {
                    let acc = spans.row(p, name, |_| Acc {
                        count: 0,
                        bytes: 0,
                        hist: Histogram::new(),
                    });
                    acc.count += 1;
                    acc.bytes += p.bytes();
                    acc.hist.record(p.dur.as_secs());
                }
                EventKind::Count => {
                    let key = || {
                        let (layer, resource, op) = name();
                        format!("{layer}/{resource}/{op}")
                    };
                    let g = gauges.row(p, key, |key| GaugeStat {
                        key: key.clone(),
                        count: 0,
                        last: 0.0,
                        max: f64::MIN,
                        sum: 0.0,
                    });
                    let value = p.value();
                    g.count += 1;
                    g.last = value;
                    g.max = g.max.max(value);
                    g.sum += value;
                }
                EventKind::Instant => {}
            }
        }

        let per_op = spans
            .into_sorted()
            .map(|((layer, resource, op), mut acc)| {
                let total = acc.hist.sum();
                OpMetrics {
                    layer: layer.to_owned(),
                    resource: resource.to_owned(),
                    op: op.to_owned(),
                    count: acc.count,
                    bytes: acc.bytes,
                    total_secs: total,
                    mean_secs: acc.hist.mean(),
                    p50_secs: acc.hist.quantile(0.50),
                    p95_secs: acc.hist.quantile(0.95),
                    p99_secs: acc.hist.quantile(0.99),
                    max_secs: acc.hist.max(),
                    throughput_mb_s: if total > 0.0 {
                        acc.bytes as f64 / total / 1e6
                    } else {
                        0.0
                    },
                }
            })
            .collect();

        MetricsSnapshot {
            events: records.len() as u64,
            dropped,
            per_op,
            gauges: gauges.into_sorted().map(|(_, g)| g).collect(),
            failovers,
            net_failures,
        }
    }

    /// Pretty JSON form for dumping alongside traces.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} events ({} dropped), {} failovers, {} network failures",
            self.events, self.dropped, self.failovers, self.net_failures
        )?;
        writeln!(
            f,
            "{:<8} {:<12} {:<16} {:>6} {:>12} {:>10} {:>10} {:>10}",
            "LAYER", "RESOURCE", "OP", "COUNT", "BYTES", "MEAN(s)", "P95(s)", "MB/s"
        )?;
        for m in &self.per_op {
            writeln!(
                f,
                "{:<8} {:<12} {:<16} {:>6} {:>12} {:>10.4} {:>10.4} {:>10.2}",
                m.layer,
                m.resource,
                m.op,
                m.count,
                m.bytes,
                m.mean_secs,
                m.p95_secs,
                m.throughput_mb_s
            )?;
        }
        for g in &self.gauges {
            writeln!(f, "{:<38} {:>6} samples, sum {:.1}", g.key, g.count, g.sum)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }
}
