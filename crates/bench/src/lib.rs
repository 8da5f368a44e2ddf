//! # msr-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation, each returning
//! a structured result that the `repro` binary renders next to the paper's
//! published numbers. Absolute seconds come from the calibrated simulation
//! substrate (DESIGN.md §2); the claims being reproduced are the *shapes*:
//! who wins, by roughly what factor, and how close predictions are to
//! "actual" (jittered) runs.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p msr-bench --bin repro -- all
//! ```

pub mod experiments;

pub use experiments::ablations::{
    ablation_net_load, ablation_strategies, ablation_superfile_cache, ablation_tape_drives,
    ablation_writebehind,
};
pub use experiments::example42::example42;
pub use experiments::failover::failover_demo;
pub use experiments::fig10::{fig10a, fig10b, fig10c};
pub use experiments::fig11::fig11;
pub use experiments::fig9::fig9;
pub use experiments::figs678::{fig6, fig7, fig8, CurvePoint};
pub use experiments::table1::table1;
pub use experiments::Scale;
