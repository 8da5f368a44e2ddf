//! The emitting side: a handle that records each event straight into its
//! registry, under the registry's one lock.

use crate::event::{EventKind, Layer};
use crate::packed::Packed;
use crate::registry::Inner;
use msr_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// A handle components record through: a pointer to its registry and
/// nothing else. A disconnected recorder ([`Recorder::disabled`]) ignores
/// every call, and with the `record` feature off *all* recorders compile
/// to no-ops.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    #[cfg(feature = "record")]
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that drops everything (the default for un-wired
    /// components).
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    pub(crate) fn attached(reg: &Arc<Inner>) -> Recorder {
        #[cfg(feature = "record")]
        return Recorder {
            inner: Some(Arc::clone(reg)),
        };
        #[cfg(not(feature = "record"))]
        Recorder::default()
    }

    /// Whether events recorded here can reach a registry.
    #[inline]
    pub fn enabled(&self) -> bool {
        #[cfg(feature = "record")]
        {
            self.inner.is_some()
        }
        #[cfg(not(feature = "record"))]
        {
            false
        }
    }

    #[cfg(feature = "record")]
    fn emit(&self, e: Packed, resource: &str, op: &str, detail: &str) {
        if let Some(reg) = &self.inner {
            reg.record(e, resource, op, detail);
        }
    }

    /// Record an operation that took `dur` starting at `at`; `bytes` is the
    /// payload volume for transfer-shaped ops (0 otherwise).
    #[inline]
    pub fn span(
        &self,
        layer: Layer,
        resource: &str,
        op: &str,
        at: SimTime,
        dur: SimDuration,
        bytes: u64,
    ) {
        #[cfg(feature = "record")]
        self.emit(
            Packed::new(EventKind::Span, layer, at, dur, bytes),
            resource,
            op,
            "",
        );
        #[cfg(not(feature = "record"))]
        {
            let _ = (layer, resource, op, at, dur, bytes);
        }
    }

    /// Record a point-in-time marker with free-form context.
    #[inline]
    pub fn instant(&self, layer: Layer, resource: &str, op: &str, at: SimTime, detail: &str) {
        #[cfg(feature = "record")]
        self.emit(
            Packed::new(EventKind::Instant, layer, at, SimDuration::ZERO, 0),
            resource,
            op,
            detail,
        );
        #[cfg(not(feature = "record"))]
        {
            let _ = (layer, resource, op, at, detail);
        }
    }

    /// Record a numeric sample: a counter increment or gauge level (e.g.
    /// queue depth at `at`).
    #[inline]
    pub fn count(&self, layer: Layer, resource: &str, op: &str, at: SimTime, value: f64) {
        #[cfg(feature = "record")]
        self.emit(
            Packed::new(
                EventKind::Count,
                layer,
                at,
                SimDuration::ZERO,
                value.to_bits(),
            ),
            resource,
            op,
            "",
        );
        #[cfg(not(feature = "record"))]
        {
            let _ = (layer, resource, op, at, value);
        }
    }
}
