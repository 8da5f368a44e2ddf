//! # msr-sched — prediction-driven scheduling of concurrent sessions
//!
//! The paper's architecture serves one application run at a time: a
//! [`msr_core::Session`] executes each dump on the caller's thread and
//! advances the global clock as it goes. A production deployment of the
//! same testbed faces *many* clients at once — several Astro3D runs
//! dumping while Volren renders and post-processing tools read back — all
//! contending for the same three storage resources.
//!
//! This crate adds that admission layer:
//!
//! * [`SessionProgram`] — one client's whole declared run, admitted as a
//!   unit.
//! * [`Scheduler`] — per-resource FIFO queues, a deterministic
//!   discrete-event dispatcher (one armed completion time per resource;
//!   each step costs O(resources + batch) regardless of session count),
//!   contiguous-request batching (one
//!   [`dispatch_overhead`] charge per batch), and transparent failover
//!   re-queues mirroring the session layer.
//! * Scored placement — admission resolves AUTO hints through
//!   `msr-core`'s placement, which ranks resources by their
//!   [`MsrSystem::price`](msr_core::MsrSystem::price) inflated by this
//!   scheduler's live queue depths (the system
//!   [`msr_core::LoadBoard`]) and skips resources with open circuit
//!   breakers.
//! * [`SessionReport`]/[`SchedReport`] — per-session accounting in
//!   program order (bitwise reproducible at any `MSR_THREADS`) plus
//!   whole-run makespan and throughput; queue depths and wait times are
//!   also emitted as `sched`-layer observability events.
//! * Multi-tenant overload protection — programs carry an optional tenant
//!   tag ([`SessionProgram::tenant`]); dispatch runs start-time weighted-
//!   fair queueing across per-tenant lanes (each request's eq. (2) price,
//!   taken once at admission, as its batch cost), and admission prices
//!   every program against the live load board, shedding
//!   ([`msr_core::CoreError::Rejected`]), deferring (bounded backpressure
//!   queue with TTL expiry) or cancelling deadline-unmeetable sessions
//!   mid-drain. Per-tenant outcomes land in [`TenantReport`].

mod admission;
mod drain;
mod event;
mod finalize;
mod prefetch;
pub mod program;
pub mod report;
pub mod scheduler;
mod wfq;

pub use program::SessionProgram;
pub use report::{SchedReport, SessionReport, TenantReport};
pub use scheduler::{dispatch_overhead, Scheduler, MAX_CHAIN};
