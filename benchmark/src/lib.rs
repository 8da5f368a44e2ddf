//! # msr-benchmark — one benchmark, two clocks
//!
//! The instrument every later performance claim about the msr workspace
//! is measured with. Four named workloads drive the system through the
//! public functions of its crates only; each run reports ten end-to-end
//! metrics and, in a separate traced run, per-layer metrics attributed
//! from outside. See `README.md` beside this crate for the tables.
//!
//! *Virtual* metrics are eq. (1)/(2) seconds and counts from the seeded
//! simulator: they repeat exactly at a fixed seed and the harness fails a
//! run in which they differ between repetitions. *Host* metrics are wall
//! time of the rust code: medians over repetitions, quartiles beside them.

pub mod compare;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod probes;
pub mod results;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
