//! # msr-sim — virtual-time substrate
//!
//! The HPDC 2000 multi-storage architecture was evaluated on a live testbed
//! (ANL SP-2 ↔ SDSC over a WAN). This crate replaces wall-clock time with a
//! deterministic *virtual* clock so that the whole evaluation can be
//! regenerated on a laptop in seconds, reproducibly.
//!
//! The pieces:
//!
//! * [`SimDuration`] / [`SimTime`] — `f64`-seconds newtypes with safe
//!   arithmetic (costs never go negative).
//! * [`Clock`] — a shared monotonically advancing virtual clock.
//! * [`Timeline`] — per-process virtual elapsed times with *barrier = max*
//!   semantics, used to model collective parallel I/O on a process grid.
//! * [`Jitter`] — seeded multiplicative noise models, so "actual" runs
//!   fluctuate around model predictions the way the paper's WAN numbers did.
//! * [`SeedDerivation`](rng::derive_seed) — stable per-component RNG streams.
//! * [`Summary`] — small statistics helper used by PTool and the benches.

pub mod clock;
pub mod jitter;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;

pub use clock::Clock;
pub use jitter::Jitter;
pub use rng::{derive_seed, stream_rng};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
pub use timeline::Timeline;
