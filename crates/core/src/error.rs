//! Top-level error type of the architecture, and the exhaustive
//! classification that drives the session's recovery decisions.

use msr_runtime::RuntimeError;
use msr_sim::SimDuration;
use msr_storage::StorageError;
use std::fmt;

/// Failures surfaced by the user API.
#[derive(Debug)]
pub enum CoreError {
    /// Storage-layer failure that could not be recovered by failover.
    Storage(msr_storage::StorageError),
    /// Run-time library failure.
    Runtime(msr_runtime::RuntimeError),
    /// Metadata catalog failure.
    Meta(msr_meta::MetaError),
    /// Performance-database failure: a PTool sweep that could not
    /// exercise a resource.
    Predict(msr_predict::PredictError),
    /// No resource can currently satisfy the request (everything offline
    /// or full).
    NoUsableResource {
        /// Dataset being placed.
        dataset: String,
        /// Bytes that had to fit.
        bytes: u64,
    },
    /// A chunked dump failed digest verification or its manifest/frames
    /// are corrupt. Neither a retry nor a failover can produce the bytes
    /// (the resource would serve the same corrupt object again); the
    /// caller must re-produce the dump.
    ChunkCorrupt {
        /// Dump path whose verification failed.
        path: String,
        /// The underlying chunk-plane error.
        source: msr_chunk::ChunkError,
    },
    /// The requested dataset was DISABLEd for this run.
    DatasetDisabled(String),
    /// Admission control shed the session: the eq. (2) predicted queue
    /// wait exceeded the tenant's SLO (and its overload policy was shed,
    /// or its deferral queue was full).
    Rejected {
        /// Tenant whose SLO was violated.
        tenant: String,
        /// The priced wait at admission time.
        predicted_wait: SimDuration,
        /// The tenant's configured SLO.
        slo: SimDuration,
    },
    /// Admission control shed the session: it would push the tenant past
    /// its hard quota.
    QuotaExceeded {
        /// Tenant whose quota was hit.
        tenant: String,
        /// Which quota: `"queued requests"`.
        resource: &'static str,
        /// Usage already charged to the tenant.
        used: u64,
        /// What this session would have added.
        requested: u64,
        /// The configured cap.
        limit: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::Runtime(e) => write!(f, "runtime: {e}"),
            CoreError::Meta(e) => write!(f, "metadata: {e}"),
            CoreError::Predict(e) => write!(f, "predictor: {e}"),
            CoreError::NoUsableResource { dataset, bytes } => write!(
                f,
                "no storage resource can hold dataset {dataset} ({bytes} B): all offline or full"
            ),
            CoreError::ChunkCorrupt { path, source } => {
                write!(f, "chunked dump {path} corrupt: {source}")
            }
            CoreError::DatasetDisabled(name) => {
                write!(f, "dataset {name} is DISABLEd for this run")
            }
            CoreError::Rejected {
                tenant,
                predicted_wait,
                slo,
            } => write!(
                f,
                "admission shed for {tenant}: predicted wait {:.3}s exceeds SLO {:.3}s",
                predicted_wait.as_secs(),
                slo.as_secs()
            ),
            CoreError::QuotaExceeded {
                tenant,
                resource,
                used,
                requested,
                limit,
            } => write!(
                f,
                "quota exceeded for {tenant}: {resource} {used} + {requested} > limit {limit}"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Runtime(e) => Some(e),
            CoreError::Meta(e) => Some(e),
            CoreError::Predict(e) => Some(e),
            CoreError::ChunkCorrupt { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<msr_storage::StorageError> for CoreError {
    fn from(e: msr_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<msr_runtime::RuntimeError> for CoreError {
    fn from(e: msr_runtime::RuntimeError) -> Self {
        match e {
            // Surface chunk corruption as its own typed error so callers
            // can distinguish "the stored bytes are bad" from transport
            // and layout failures without digging through the chain.
            RuntimeError::Chunk { path, source } => CoreError::ChunkCorrupt { path, source },
            e => CoreError::Runtime(e),
        }
    }
}

impl From<msr_meta::MetaError> for CoreError {
    fn from(e: msr_meta::MetaError) -> Self {
        CoreError::Meta(e)
    }
}

impl From<msr_predict::PredictError> for CoreError {
    fn from(e: msr_predict::PredictError) -> Self {
        CoreError::Predict(e)
    }
}

/// How the session layer should react to a failure.
///
/// Every [`CoreError`] falls into exactly one class; [`classify`] is an
/// exhaustive match (no catch-all arm), so adding an error variant is a
/// compile error until its recovery semantics are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// An immediate retry of the same call may succeed. The engine's retry
    /// budget handles these below the session; one
    /// reaching the session means the retry budget is exhausted, and the
    /// carried reason is used for the resulting failover.
    Retryable(&'static str),
    /// The resource is gone, full or unreachable — re-place the dataset on
    /// the next preferred resource (the §5 reliability path).
    Failover(&'static str),
    /// A caller or environment bug. Retrying or re-placing cannot help;
    /// propagate to the application.
    Fatal,
}

impl ErrorClass {
    /// The failover reason when re-placement is warranted (both transient
    /// faults that outlived the retry budget and hard failover classes).
    pub fn failover_reason(self) -> Option<&'static str> {
        match self {
            ErrorClass::Retryable(r) | ErrorClass::Failover(r) => Some(r),
            ErrorClass::Fatal => None,
        }
    }
}

/// Classify a storage-layer failure (shared by the direct and
/// runtime-wrapped paths so the two stay consistent).
fn classify_storage(e: &StorageError) -> ErrorClass {
    match e {
        StorageError::Offline { .. } => ErrorClass::Failover("resource offline"),
        StorageError::CapacityExceeded { .. } => ErrorClass::Failover("capacity exceeded"),
        StorageError::Network(_) => ErrorClass::Failover("network failure"),
        StorageError::Transient { .. } => ErrorClass::Retryable("transient fault persisted"),
        // Vaulted data is nowhere else: neither a retry nor a failover can
        // produce the bytes. The caller must recall (or wait for the
        // lifecycle engine to) before reading.
        StorageError::Vaulted(_) | StorageError::VaultUnsupported { .. } => ErrorClass::Fatal,
        StorageError::NotFound(_)
        | StorageError::BadHandle
        | StorageError::BadMode { .. }
        | StorageError::NotConnected => ErrorClass::Fatal,
    }
}

/// Decide the recovery semantics of `e`. Exhaustive over every variant of
/// [`CoreError`] and its nested storage/runtime errors.
pub fn classify(e: &CoreError) -> ErrorClass {
    match e {
        CoreError::Storage(se) => classify_storage(se),
        CoreError::Runtime(re) => match re {
            RuntimeError::Storage(se) => classify_storage(se),
            RuntimeError::BadDistribution(_)
            | RuntimeError::SizeMismatch { .. }
            | RuntimeError::CorruptSuperfile(_)
            | RuntimeError::NoSuchMember(_)
            | RuntimeError::Chunk { .. } => ErrorClass::Fatal,
        },
        // The stored bytes are corrupt: the resource would serve the same
        // bytes on retry, and no other resource holds the dump.
        CoreError::ChunkCorrupt { .. } => ErrorClass::Fatal,
        CoreError::Meta(_)
        | CoreError::Predict(_)
        | CoreError::NoUsableResource { .. }
        | CoreError::DatasetDisabled(_) => ErrorClass::Fatal,
        // Overload shedding is a deliberate decision, not a transient
        // condition the session layer should route around: retrying or
        // failing over would defeat the admission controller. The caller
        // backs off (or re-tunes its quota/SLO) and resubmits.
        CoreError::Rejected { .. } | CoreError::QuotaExceeded { .. } => ErrorClass::Fatal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offline() -> StorageError {
        StorageError::Offline {
            resource: "r".into(),
        }
    }

    #[test]
    fn offline_is_failover_on_both_paths() {
        assert_eq!(
            classify(&CoreError::Storage(offline())),
            ErrorClass::Failover("resource offline")
        );
        assert_eq!(
            classify(&CoreError::Runtime(RuntimeError::Storage(offline()))),
            ErrorClass::Failover("resource offline")
        );
    }

    #[test]
    fn capacity_exceeded_is_failover() {
        let e = CoreError::Storage(StorageError::CapacityExceeded {
            resource: "r".into(),
            requested: 10,
            available: 1,
        });
        assert_eq!(classify(&e), ErrorClass::Failover("capacity exceeded"));
    }

    #[test]
    fn network_failure_is_failover() {
        let e = CoreError::Runtime(RuntimeError::Storage(StorageError::Network(
            msr_net::NetError::RouteDown,
        )));
        assert_eq!(classify(&e), ErrorClass::Failover("network failure"));
        assert_eq!(classify(&e).failover_reason(), Some("network failure"));
    }

    #[test]
    fn transient_is_retryable_with_a_failover_reason() {
        let e = CoreError::Storage(StorageError::Transient {
            resource: "r".into(),
            op: "write",
        });
        let c = classify(&e);
        assert_eq!(c, ErrorClass::Retryable("transient fault persisted"));
        assert_eq!(c.failover_reason(), Some("transient fault persisted"));
    }

    #[test]
    fn caller_bugs_are_fatal() {
        for e in [
            CoreError::Storage(StorageError::NotFound("p".into())),
            CoreError::Storage(StorageError::BadHandle),
            CoreError::Storage(StorageError::BadMode { op: "write" }),
            CoreError::Storage(StorageError::NotConnected),
            CoreError::Storage(StorageError::Vaulted("p".into())),
            CoreError::Storage(StorageError::VaultUnsupported {
                resource: "r".into(),
            }),
            CoreError::Runtime(RuntimeError::BadDistribution("x".into())),
            CoreError::Runtime(RuntimeError::SizeMismatch {
                expected: 1,
                got: 2,
            }),
            CoreError::Runtime(RuntimeError::CorruptSuperfile("x".into())),
            CoreError::Runtime(RuntimeError::NoSuchMember("x".into())),
            CoreError::ChunkCorrupt {
                path: "p".into(),
                source: msr_chunk::ChunkError::BadManifest {
                    detail: "truncated".into(),
                },
            },
            CoreError::NoUsableResource {
                dataset: "d".into(),
                bytes: 1,
            },
            CoreError::DatasetDisabled("d".into()),
            CoreError::Rejected {
                tenant: "t".into(),
                predicted_wait: SimDuration::from_secs(9.0),
                slo: SimDuration::from_secs(1.0),
            },
            CoreError::QuotaExceeded {
                tenant: "t".into(),
                resource: "queued requests",
                used: 10,
                requested: 5,
                limit: 12,
            },
        ] {
            assert_eq!(classify(&e), ErrorClass::Fatal, "{e}");
            assert_eq!(classify(&e).failover_reason(), None);
        }
    }

    #[test]
    fn meta_and_predict_are_fatal() {
        let m = CoreError::Meta(msr_meta::MetaError::NotFound {
            table: "runs",
            key: "1".into(),
        });
        assert_eq!(classify(&m), ErrorClass::Fatal);
        let p = CoreError::Predict(msr_predict::PredictError::NoProfile {
            resource: "r".into(),
            op: msr_storage::OpKind::Write,
        });
        assert_eq!(classify(&p), ErrorClass::Fatal);
    }
}
