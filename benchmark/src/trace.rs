//! In-memory host-clock spans, recorded by the harness around every call
//! it makes into a crate.
//!
//! Spans nest `workload → rep → phase → call`. Nothing is written until
//! the run ends; with tracing off [`Tracer::call`] runs the closure and
//! records nothing. A layer's *self time* is the duration of its spans
//! minus the part of that interval its child spans cover, so the self
//! times of all layers (the harness's own `bench` layer included) add up
//! to the root span.

use std::collections::BTreeMap;
use std::time::Instant;

/// The crate a span's call entered — the benchmark's layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The harness itself: structural spans and bookkeeping between calls.
    Bench,
    /// `msr-apps`.
    Apps,
    /// `msr-core`.
    Core,
    /// `msr-predict`.
    Predict,
    /// `msr-sched`.
    Sched,
    /// `msr-lifecycle`.
    Lifecycle,
    /// `msr-runtime`'s raw strategies: everything but the chunk plane.
    Runtime,
    /// `msr-runtime::chunked`: the chunk plane, its manifests and verified
    /// reads (with the per-chunk object puts and gets under it).
    ChunkPlane,
    /// `msr-chunk`.
    Chunk,
    /// `msr-storage`.
    Storage,
    /// `msr-meta`.
    Meta,
    /// `msr-obs`.
    Obs,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Apps,
        Layer::Core,
        Layer::Predict,
        Layer::Sched,
        Layer::Lifecycle,
        Layer::Runtime,
        Layer::ChunkPlane,
        Layer::Chunk,
        Layer::Storage,
        Layer::Meta,
        Layer::Obs,
        Layer::Bench,
    ];

    /// Stable lower-case name (trace category and metric prefix).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Apps => "apps",
            Layer::Core => "core",
            Layer::Predict => "predict",
            Layer::Sched => "sched",
            Layer::Lifecycle => "lifecycle",
            Layer::Runtime => "runtime",
            Layer::ChunkPlane => "runtime_chunked",
            Layer::Chunk => "chunk",
            Layer::Storage => "storage",
            Layer::Meta => "meta",
            Layer::Obs => "obs",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The crate it entered.
    pub layer: Layer,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span recorder. One per process; single driver thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Tracer {
    /// A recorder that starts switched off.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Switch recording on or off and stamp later spans with `rep`. Only
    /// legal between top-level spans.
    pub fn set(&mut self, enabled: bool, rep: u32) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a structural span; pair with [`Tracer::exit`].
    pub fn enter(&mut self, layer: Layer, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span attributed to `layer`.
    pub fn call<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(layer, name);
        let out = f();
        self.exit();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of `children`
/// (each clipped to the parent, overlaps counted once).
fn covered_ns(parent: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(parent.end_ns);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time per layer, seconds, over the spans `keep(index, span)`
/// selects (children are always looked up among *all* spans).
pub fn self_time_by_layer(
    spans: &[Span],
    keep: impl Fn(usize, &Span) -> bool,
) -> BTreeMap<Layer, f64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if !keep(id, s) {
            continue;
        }
        let covered = children
            .get_mut(&id)
            .map_or(0, |kids| covered_ns(s, kids.as_mut_slice()));
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// The spans in Chrome `trace_event` form (`chrome://tracing`, Perfetto):
/// one complete (`"ph":"X"`) event per span, category = layer.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent},\"rep\":{}}}}}",
            s.name,
            s.layer.name(),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.rep
        ));
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\"}}}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // bench 0..100 > sched 10..90 > (core 20..40, core 50..60)
        let spans = vec![
            span(Layer::Bench, 0, 100, None),
            span(Layer::Sched, 10, 90, Some(0)),
            span(Layer::Core, 20, 40, Some(1)),
            span(Layer::Core, 50, 60, Some(1)),
        ];
        let t = self_time_by_layer(&spans, |_, _| true);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-18;
        assert!(close(t[&Layer::Bench], 20e-9));
        assert!(close(t[&Layer::Sched], 50e-9));
        assert!(close(t[&Layer::Core], 30e-9));
        let total: f64 = t.values().sum();
        assert!(
            (total - 100e-9).abs() < 1e-18,
            "self times add up to the root"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children 10..50 and 30..70 overlap; 90..130 overhangs the parent.
        let spans = vec![
            span(Layer::Sched, 0, 100, None),
            span(Layer::Core, 10, 50, Some(0)),
            span(Layer::Core, 30, 70, Some(0)),
            span(Layer::Core, 90, 130, Some(0)),
        ];
        let t = self_time_by_layer(&spans, |_, s| s.layer == Layer::Sched);
        // Covered: 10..70 and 90..100 = 70 ns.
        assert!((t[&Layer::Sched] - 30e-9).abs() < 1e-18);
        assert_eq!(t.len(), 1, "the filter selects whose self time is summed");
    }

    #[test]
    fn tracer_nests_calls_and_is_silent_when_off() {
        let mut tr = Tracer::new();
        assert_eq!(tr.call(Layer::Core, "open", || 7), 7);
        assert!(tr.spans().is_empty(), "off by default");
        tr.set(true, 3);
        tr.enter(Layer::Bench, "rep");
        tr.call(Layer::Core, "open", || ());
        tr.call(Layer::Apps, "advance", || ());
        tr.exit();
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        let json = chrome_trace("w", spans);
        let v = serde_json::parse_value(&json).expect("valid JSON");
        let events = v.as_obj().unwrap()["traceEvents"].as_arr().unwrap();
        assert_eq!(events.len(), 3);
    }
}
