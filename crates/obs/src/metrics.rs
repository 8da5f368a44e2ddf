//! Aggregation: the event stream folded into per-(layer, resource, op)
//! statistics — throughput, latency percentiles, gauge extremes, failover
//! counts.

use crate::event::{EventKind, Layer};
use crate::ops;
use crate::packed::{Interner, KeyMap, Packed};
use serde::{Deserialize, Serialize};

/// A log-bucketed quantile sketch. A positive sample lands in one of 64
/// equal-width buckets per power of two (its top six mantissa bits), zero,
/// negative and NaN samples in one bucket that reads 0. A quantile reads
/// its bucket's midpoint, so for normal floats it is within
/// [`Histogram::RELATIVE_ERROR`] of the exact nearest-rank sample;
/// `count`, `sum` (in order of record) and `max` are exact. Only touched
/// buckets are kept, so a row of five samples holds at most five, and two
/// sketches merge bucket by bucket.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    count: u64,
    sum: f64,
    max: f64,
    /// `(bucket, samples)`, by bucket.
    buckets: Vec<(u32, u64)>,
}

/// Mantissa bits below a bucket's top six.
const SUB_BITS: u32 = 52 - 6;

impl Histogram {
    /// Largest relative error of a quantile: half a bucket over its lower
    /// edge, at most `(2^e / 64 / 2) / 2^e`.
    pub const RELATIVE_ERROR: f64 = 1.0 / 128.0;

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket of `sample`: its bits above [`SUB_BITS`], which order
    /// like the samples themselves.
    fn bucket(sample: f64) -> u32 {
        (sample.max(0.0).to_bits() >> SUB_BITS) as u32
    }

    /// The midpoint `bucket` stands for (0 for the bucket of 0).
    fn value(bucket: u32) -> f64 {
        if bucket == 0 {
            return 0.0;
        }
        let lo = f64::from_bits(u64::from(bucket) << SUB_BITS);
        let hi = f64::from_bits(u64::from(bucket + 1) << SUB_BITS);
        lo + (hi - lo) / 2.0
    }

    fn add(&mut self, bucket: u32, samples: u64) {
        match self.buckets.binary_search_by_key(&bucket, |b| b.0) {
            Ok(at) => self.buckets[at].1 += samples,
            Err(at) => self.buckets.insert(at, (bucket, samples)),
        }
    }

    /// Add one sample.
    pub fn record(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
        self.max = self.max.max(sample);
        self.add(Histogram::bucket(sample), 1);
    }

    /// Add every sample of `other`, as if recorded here after these.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for &(bucket, samples) in &other.buckets {
            self.add(bucket, samples);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest rank, to within
    /// [`Histogram::RELATIVE_ERROR`]; the largest rank reads `max` exactly,
    /// and 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0;
        let (bucket, _) = self
            .buckets
            .iter()
            .find(|(_, samples)| {
                seen += samples;
                seen >= rank
            })
            .expect("the ranks sum to count");
        Histogram::value(*bucket).min(self.max)
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Events aggregated: every one ingested since the last clear.
    pub events: u64,
    /// Always 0: every event reaches the metrics, whatever the window
    /// keeps.
    pub dropped: u64,
    /// Raw events that have left the registry's window (the metrics still
    /// count them).
    pub evicted: u64,
    /// Per-operation span statistics, sorted by key.
    pub per_op: Vec<OpMetrics>,
    /// Gauge/counter statistics, sorted by key.
    pub gauges: Vec<GaugeStat>,
    /// Session-layer failover re-placements observed.
    pub failovers: u64,
    /// Network-layer transfer failures observed.
    pub net_failures: u64,
}

/// Rows are keyed by `(layer, resource id, op id)`.
type Rows<R> = KeyMap<(Layer, u32, u32), R>;

/// Every recorded event, folded into per-key rows as it arrives: what a
/// [`MetricsSnapshot`] reads, exact whatever the registry's window kept.
/// A span row is its bytes and duration sketch, a gauge row its stat and
/// the `seq` of the sample its `last` is.
#[derive(Debug, Default)]
pub(crate) struct Fold {
    pub(crate) events: u64,
    failovers: u64,
    net_failures: u64,
    spans: Rows<(u64, Histogram)>,
    gauges: Rows<(u64, GaugeStat)>,
}

impl Fold {
    /// Fold in one record; records arrive in `seq` order.
    pub(crate) fn add(&mut self, p: &Packed, names: &Interner) {
        self.events += 1;
        let op = || names.name(p.op);
        self.failovers += u64::from(p.layer == Layer::Session && op() == ops::FAILOVER);
        self.net_failures += u64::from(p.layer == Layer::Network && op() == ops::TRANSFER_FAILED);
        let key = (p.layer, p.resource, p.op);
        match p.kind {
            EventKind::Span => {
                let (bytes, hist) = self.spans.entry(key).or_default();
                *bytes += p.bytes();
                hist.record(p.dur.as_secs());
            }
            EventKind::Count => {
                let (seq, g) = self.gauges.entry(key).or_default();
                let value = p.value();
                g.max = if g.count == 0 { f64::MIN } else { g.max }.max(value);
                g.count += 1;
                g.sum += value;
                (*seq, g.last) = (p.seq, value);
            }
            EventKind::Instant => {}
        }
    }

    /// The rows in name order. Rows are named here; gauge keys that spell
    /// the same `layer/resource/op` share one row.
    pub(crate) fn snapshot(&self, names: &Interner, evicted: u64) -> MetricsSnapshot {
        let name = |&(layer, resource, op): &(Layer, u32, u32)| {
            (layer.name(), names.name(resource), names.name(op))
        };
        let mut spans: Vec<_> = self.spans.iter().map(|(k, row)| (name(k), row)).collect();
        spans.sort_unstable_by_key(|(name, _)| *name);
        let per_op = spans
            .into_iter()
            .map(|((layer, resource, op), (bytes, h))| OpMetrics {
                layer: layer.to_owned(),
                resource: resource.to_owned(),
                op: op.to_owned(),
                count: h.count(),
                bytes: *bytes,
                total_secs: h.sum(),
                mean_secs: h.mean(),
                p50_secs: h.quantile(0.50),
                p95_secs: h.quantile(0.95),
                p99_secs: h.quantile(0.99),
                max_secs: h.max(),
                throughput_mb_s: if h.sum() > 0.0 {
                    *bytes as f64 / h.sum() / 1e6
                } else {
                    0.0
                },
            })
            .collect();

        let mut gauges: Vec<(u64, GaugeStat)> = self
            .gauges
            .iter()
            .map(|(k, (seq, g))| {
                let (layer, resource, op) = name(k);
                let key = format!("{layer}/{resource}/{op}");
                (*seq, GaugeStat { key, ..g.clone() })
            })
            .collect();
        gauges.sort_unstable_by(|a, b| (&a.1.key, a.0).cmp(&(&b.1.key, b.0)));
        gauges.dedup_by(|(_, later), (_, kept)| {
            let same = later.key == kept.key;
            if same {
                (kept.count, kept.last) = (kept.count + later.count, later.last);
                (kept.max, kept.sum) = (kept.max.max(later.max), kept.sum + later.sum);
            }
            same
        });

        MetricsSnapshot {
            events: self.events,
            dropped: 0,
            evicted,
            per_op,
            gauges: gauges.into_iter().map(|(_, g)| g).collect(),
            failovers: self.failovers,
            net_failures: self.net_failures,
        }
    }
}

impl MetricsSnapshot {
    /// Pretty JSON form for dumping alongside traces.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} events ({} dropped, {} evicted), {} failovers, {} network failures",
            self.events, self.dropped, self.evicted, self.failovers, self.net_failures
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
        let near = |got: f64, exact: f64| (got - exact).abs() <= exact * Histogram::RELATIVE_ERROR;
        assert!(near(h.quantile(0.5), 3.0) && near(h.quantile(0.0), 1.0));
        assert_eq!((h.quantile(1.0), h.max()), (5.0, 5.0));
        assert_eq!(h.buckets.len(), 5, "only touched buckets are kept");
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    /// `n` samples log-uniform from 1 ns to 1e5 s (splitmix64).
    fn samples(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| 1e-9 * 1e14f64.powf((next() >> 11) as f64 / (1u64 << 53) as f64))
            .collect()
    }

    fn sketch(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn every_quantile_is_within_the_stated_relative_error() {
        for seed in [1, 2, 3] {
            let xs = samples(seed, 5000);
            let h = sketch(&xs);
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            for k in 0..=2000 {
                let q = k as f64 / 2000.0;
                let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
                let exact = sorted[rank - 1];
                let err = (h.quantile(q) - exact).abs() / exact;
                assert!(err <= Histogram::RELATIVE_ERROR, "q {q}: {err}");
            }
        }
    }

    #[test]
    fn a_shuffled_input_gives_an_identical_sketch() {
        let xs = samples(7, 3000);
        let mut shuffled = xs.clone();
        let mut state = 11u64;
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        assert_ne!(xs, shuffled);
        let (a, b) = (sketch(&xs), sketch(&shuffled));
        assert_eq!((a.count, a.max.to_bits()), (b.count, b.max.to_bits()));
        assert_eq!(a.buckets, b.buckets);
        // Split in two and merged, the buckets are the same again.
        let (mut front, back) = (sketch(&xs[..1000]), sketch(&xs[1000..]));
        front.merge(&back);
        assert_eq!((front.count, &front.buckets), (a.count, &a.buckets));
    }

    #[test]
    fn count_max_and_sum_are_exact() {
        let xs = samples(5, 4000);
        let h = sketch(&xs);
        assert_eq!(h.count(), 4000);
        assert_eq!(h.max(), xs.iter().copied().fold(0.0, f64::max));
        assert_eq!(h.sum().to_bits(), xs.iter().sum::<f64>().to_bits());
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
        assert_eq!((h.count(), h.sum(), h.mean(), h.max()), (0, 0.0, 0.0, 0.0));
    }
}
