//! The structured event model: everything observable is an [`Event`] keyed
//! by layer × resource × operation and stamped with the simulation clock.

use msr_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which architectural layer emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// `msr-storage` native calls (the eq. (1) components).
    Storage,
    /// `msr-net` transfers over the WAN link.
    Network,
    /// `msr-runtime` strategy execution.
    Runtime,
    /// `msr-core` session lifecycle and placement.
    Session,
    /// `msr-sched` admission queues and dispatch.
    Sched,
    /// `msr-meta` catalog traffic.
    Meta,
    /// `msr-predict` predictions.
    Predict,
    /// Application/workload markers.
    App,
}

impl Layer {
    /// Stable lower-case name (used as trace process name and JSON field).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Storage => "storage",
            Layer::Network => "network",
            Layer::Runtime => "runtime",
            Layer::Session => "session",
            Layer::Sched => "sched",
            Layer::Meta => "meta",
            Layer::Predict => "predict",
            Layer::App => "app",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The shape of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// An operation with a duration (`at` .. `at + dur`).
    Span,
    /// A point-in-time marker.
    Instant,
    /// A numeric sample (counter increment or gauge level) in `value`.
    Count,
}

/// One observed occurrence. Field meanings by [`EventKind`]:
/// spans carry `dur` and (for transfers) `bytes`; counts carry `value`;
/// instants carry only `detail`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Global order of record (monotonic per registry).
    pub seq: u64,
    /// Simulation time at the start of the operation.
    pub at: SimTime,
    /// Duration of the operation (zero for instants/counts).
    pub dur: SimDuration,
    /// Emitting layer.
    pub layer: Layer,
    /// Resource key, e.g. `"sdsc-disk"`, `"wan:ANL-SDSC"`, `"session:run0"`.
    pub resource: String,
    /// Operation key, e.g. `"write"`, `"conn"`, `"failover"`.
    pub op: String,
    /// Payload bytes for transfer-shaped spans (0 otherwise).
    pub bytes: u64,
    /// Sample value for `Count` events (0 otherwise).
    pub value: f64,
    /// Free-form context, e.g. the failover reason.
    pub detail: String,
    /// Shape of this event.
    pub kind: EventKind,
}

impl Event {
    /// End time of the operation.
    pub fn end(&self) -> SimTime {
        self.at + self.dur
    }
}
