//! # msr-predict — the I/O performance predictor
//!
//! Section 4 of the paper: since I/O dominates these applications, the user
//! should be able to estimate I/O cost *before* running (e.g. to pick the
//! SP-2 job's maximum-run-time parameter). The mechanism has three parts:
//!
//! 1. A **performance database** ([`PerfDb`]) holding, per storage resource
//!    and operation, the fixed components of eq. (1) (`T_conn`, `T_open`,
//!    `T_seek`, `T_fileclose`, `T_connclose` — Table 1), the tape mount a
//!    cold volume pays, and measured `T_read/write(s)` samples over request
//!    sizes (Figs. 6–8).
//! 2. **PTool** ([`PTool`]) — "a tool … to help users automatically
//!    generate performance data stored in databases": it sweeps request
//!    sizes against the live resources, measures every component, and fills
//!    the database. It is the database's one writer: to re-predict under
//!    new conditions (a loaded WAN, a slowed server), sweep again.
//! 3. The **prediction algorithm** — eq. (2):
//!    `T = Σ_j (N/freq(j)+1) · n(j) · t_j(s)`. The inner term is the plan
//!    pricer [`plan_time`], which folds the engine's own
//!    [`CallPlan`](msr_runtime::CallPlan) for the dump — its `n(j)` native
//!    calls and the size of each — over a profile: `T_conn` once per dump,
//!    eq. (1) per rank, host copies and the exchange unpriced, the maximum
//!    over ranks. The outer sum is [`PredictionRow::new`], summed into a
//!    [`PredictionReport`].
//!
//! Every single-dump price — scored placement, admission backlog,
//! read-ahead, lifecycle moves and a session's Fig. 11 table — is taken
//! through `msr_core::MsrSystem::price`, which resolves the
//! [`ResourceProfile`]s of a resource (the measured database rows, else
//! [`ResourceProfile::of_model`]), prices the dump's plan against them and
//! adds the row's mount when the dump's volume is on no drive.

pub mod accuracy;
pub mod model;
pub mod perfdb;
pub mod predictor;
pub mod ptool;
pub mod ratio;

pub use accuracy::{compare, ComparisonRow};
pub use model::plan_time;
pub use perfdb::{PerfDb, ResourceProfile};
pub use predictor::{PredictionReport, PredictionRow};
pub use ptool::PTool;
pub use ratio::{Learned, RatioBook};

/// Convenience result alias.
pub type PredictResult<T> = Result<T, PredictError>;

/// Failures surfaced by the predictor.
#[derive(Debug)]
pub enum PredictError {
    /// The performance database has no profile for a resource/op pair.
    NoProfile {
        /// Resource name.
        resource: String,
        /// Operation.
        op: msr_storage::OpKind,
    },
    /// A transfer sample no rate curve can hold: a size of zero, or a time
    /// that is negative or not finite. `secs` is `None` for a size a PTool
    /// sweep was asked to measure.
    BadSample {
        /// Request size, bytes.
        bytes: u64,
        /// Measured time, seconds.
        secs: Option<f64>,
    },
    /// PTool could not exercise the resource.
    Storage(msr_storage::StorageError),
    /// Persistence failed.
    Serde(serde_json::Error),
    /// Persistence I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::NoProfile { resource, op } => {
                write!(f, "no performance profile for {resource}/{op}")
            }
            PredictError::BadSample { bytes, secs } => write!(
                f,
                "transfer sample ({bytes} B, {secs:?} s): sizes must be positive, times finite"
            ),
            PredictError::Storage(e) => write!(f, "PTool storage failure: {e}"),
            PredictError::Serde(e) => write!(f, "performance DB serialization: {e}"),
            PredictError::Io(e) => write!(f, "performance DB I/O: {e}"),
        }
    }
}

impl std::error::Error for PredictError {}

impl From<msr_storage::StorageError> for PredictError {
    fn from(e: msr_storage::StorageError) -> Self {
        PredictError::Storage(e)
    }
}

impl From<serde_json::Error> for PredictError {
    fn from(e: serde_json::Error) -> Self {
        PredictError::Serde(e)
    }
}

impl From<std::io::Error> for PredictError {
    fn from(e: std::io::Error) -> Self {
        PredictError::Io(e)
    }
}
