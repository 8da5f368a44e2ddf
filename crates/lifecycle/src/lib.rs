//! # msr-lifecycle — tiered data lifecycle for the MSR testbed
//!
//! The paper's multi-storage architecture gives every dataset a *location*
//! (local disk, remote disk, remote tape) chosen at creation. This crate
//! adds the missing half of that story: what happens to the data **after**
//! the run, as it ages. Three mechanisms, all deterministic and driven by
//! explicit ticks:
//!
//! - **Demotion** ([`LifecycleEngine`]) — a cold dataset moves down the
//!   tier ladder in one copy, straight to the lowest rung that is up. Each
//!   move is priced with the eq. (2) estimator and executed through the
//!   system's health-gated staging path.
//! - **Retention pruning** ([`RetentionPolicy`]) — `keep_last` /
//!   `keep_daily` windows over dump timestamps thin a run's checkpoint
//!   history; expired dumps are deleted from storage and the catalog.
//! - **Tape vaulting** — the tape vaults and recalls whole volumes
//!   (`msr_storage::volume_of`: one run's directory). A volume whose
//!   datasets are all on tape and idle past `vault_after` moves to the
//!   vault, and every dump on it turns
//!   [`DumpState::Vaulted`](msr_meta::DumpState): reads fail until a
//!   consumer asks for the data with [`LifecycleEngine::recall_dataset`],
//!   a priced recall (hours of virtual latency, paid once per volume). A
//!   tick never recalls.
//!
//! The engine never runs on a timer or a background thread. A scheduler
//! attaches it with `Scheduler::with_lifecycle` and ticks it between
//! dispatch rounds on the dispatcher thread; standalone consumers call
//! [`LifecycleEngine::tick`] themselves. Either way the decisions derive
//! from a single catalog snapshot and a fixed candidate order, so reports
//! stay bitwise identical at any `MSR_THREADS`.
//!
//! ```
//! use msr_lifecycle::{LifecycleConfig, LifecycleEngine, RetentionPolicy};
//! use msr_sim::SimDuration;
//!
//! let cfg = LifecycleConfig {
//!     demote_after: SimDuration::from_secs(600.0),
//!     retention: RetentionPolicy::keep_all().with_keep_last(3),
//!     ..LifecycleConfig::default()
//! };
//! let engine = LifecycleEngine::new(cfg);
//! assert_eq!(engine.config().max_moves_per_tick, 4);
//! ```

pub mod engine;
pub mod policy;

pub use engine::{tier_down, LifecycleConfig, LifecycleEngine, MoveRec, TickReport, TickTotals};
pub use policy::{KeepReason, Mark, RetentionPolicy};
