//! Schedulable engine requests.
//!
//! The engine's `read`/`write` entry points execute immediately on the
//! caller's thread. Admission scheduling needs the *description* of an
//! operation to exist apart from its execution, so it can sit in a
//! per-resource queue, carry its session identity, and be dispatched —
//! possibly batched with its neighbours — when the resource's turn comes
//! round. [`EngineRequest`] is that description: everything
//! [`IoEngine::execute`](crate::IoEngine::execute) needs except the
//! resource itself, tagged with the owning session and a per-session
//! sequence number so completions can be folded back per client.

use crate::engine::IoReport;
use crate::layout::Distribution;
use crate::strategy::IoStrategy;
use msr_chunk::IngestSpec;
use msr_storage::{OpenMode, Payload};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of a schedulable unit: which admitted session issued it and
/// where it sits in that session's program order. Sequence numbers are
/// per-session, so `(session, seq)` is globally unique within one
/// scheduler and FIFO dispatch per resource preserves each session's
/// intra-resource order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestTag {
    /// The admitted session's id.
    pub session: u64,
    /// Position in the session's submission order.
    pub seq: u64,
}

impl fmt::Display for RequestTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}#{}", self.session, self.seq)
    }
}

/// The direction-specific half of a request. Writes carry their payload as
/// a cheaply clonable [`Payload`] — shared bytes, or the recipe they are
/// generated from — so a queued request does not copy the dump.
#[derive(Debug, Clone)]
pub enum RequestBody {
    /// Dump the payload as the dataset file.
    Write {
        /// The full global array to write.
        data: Payload,
        /// Create a fresh snapshot or overwrite in place.
        mode: OpenMode,
    },
    /// Read the dataset file back.
    Read,
}

impl RequestBody {
    /// Payload bytes a write carries (0 for reads).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            RequestBody::Write { data, .. } => data.len() as u64,
            RequestBody::Read => 0,
        }
    }
}

/// One schedulable engine operation: a tagged, self-contained description
/// of a dataset access that an admission queue can hold and a dispatcher
/// can execute against whatever resource placement chose.
#[derive(Debug, Clone)]
pub struct EngineRequest {
    /// Owning session and program order.
    pub tag: RequestTag,
    /// Dataset name (for traces and per-dataset accounting).
    pub dataset: String,
    /// Storage path of the dump.
    pub path: String,
    /// Distribution of the global array over the process grid.
    pub dist: Distribution,
    /// I/O optimization to execute under.
    pub strategy: IoStrategy,
    /// How writes enter the data plane (raw object or chunked through the
    /// per-resource chunk store). Reads self-describe: a chunked dump is
    /// detected by its registered manifest.
    pub ingest: IngestSpec,
    /// Direction plus direction-specific payload.
    pub body: RequestBody,
}

/// What a dispatched request produced.
#[derive(Debug, Clone)]
pub enum RequestOutcome {
    /// A completed write.
    Written(IoReport),
    /// A completed read with the global array as the read got it: a
    /// whole object as the resource keeps it (held bytes, or the recipe
    /// they are generated from), any other read's assembled buffer. Bytes
    /// are made only where a consumer asks for them
    /// ([`Payload::into_vec`]); a scheduled read-back whose bytes nobody
    /// reads makes none.
    Read(Payload, IoReport),
}

impl RequestOutcome {
    /// The operation's report, either direction.
    pub fn report(&self) -> &IoReport {
        match self {
            RequestOutcome::Written(r) => r,
            RequestOutcome::Read(_, r) => r,
        }
    }

    /// Consume, keeping only the report.
    pub fn into_report(self) -> IoReport {
        match self {
            RequestOutcome::Written(r) => r,
            RequestOutcome::Read(_, r) => r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Dims3, Pattern, ProcGrid};

    fn req(session: u64, seq: u64, dataset: &str) -> EngineRequest {
        let dist =
            Distribution::new(Dims3::cube(8), 1, Pattern::bbb(), ProcGrid::new(1, 1, 1)).unwrap();
        EngineRequest {
            tag: RequestTag { session, seq },
            dataset: dataset.into(),
            path: format!("{dataset}.t0"),
            dist,
            strategy: IoStrategy::Collective,
            ingest: IngestSpec::raw(),
            body: RequestBody::Read,
        }
    }

    #[test]
    fn write_payload_is_cheap_to_clone_and_counted() {
        let mut r = req(3, 0, "d");
        r.body = RequestBody::Write {
            data: Payload::from(vec![7u8; 512]),
            mode: OpenMode::Create,
        };
        assert_eq!(r.body.payload_bytes(), 512);
        assert_eq!(r.tag.to_string(), "s3#0");
        let r2 = r.clone();
        assert_eq!(r2.body.payload_bytes(), 512);
    }
}
