//! What a client asks the scheduler to run.
//!
//! A [`SessionProgram`] is the whole I/O side of one application run,
//! declared up front: the catalog identity, the process grid, the
//! iteration count and the datasets with their hints. At admission the
//! scheduler opens a real catalog session for it, resolves placements
//! (through the scored AUTO policy) and expands the program into queued
//! request keys — one write per dump the Fig. 5 main loop would have
//! issued, in program order — that the session names as tagged
//! [`msr_runtime::EngineRequest`]s at dispatch.
//!
//! The bytes those writes carry are synthesised
//! ([`msr_storage::payload`]); each write is named with its recipe.
//! A raw collective dump reaches the store as that recipe, which the
//! storage layer generates when it is read; a write that needs its bytes
//! (chunked ingest, a strategy that packs or scatters) gets them at
//! dispatch, for that call only, from a [`PayloadSource`] its dataset
//! keeps while it has writes queued. [`payload`] and [`PayloadSource`]
//! are re-exported here for the callers that make the bytes themselves.

use msr_core::DatasetSpec;
use msr_runtime::ProcGrid;
use msr_sim::SimDuration;

pub use msr_storage::payload::{payload, PayloadSource};

/// One client's declared run, admitted as a unit.
#[derive(Debug, Clone)]
pub struct SessionProgram {
    /// Application name registered in the catalog.
    pub app: String,
    /// User name registered in the catalog.
    pub user: String,
    /// Main-loop iterations of the run.
    pub iterations: u32,
    /// The parallel process grid.
    pub grid: ProcGrid,
    /// Datasets the run dumps, in open order.
    pub datasets: Vec<DatasetSpec>,
    /// Also read every dataset's first dump back at the end of the
    /// program (a post-processing consumer folded into the same session).
    pub readback: bool,
    /// Read this many of each dataset's earliest dumps back at the end of
    /// the program. Unlike [`readback`](SessionProgram::readback) (which
    /// chains its single read directly behind the dumps), a non-zero
    /// `readbacks` expands with a sequence hole before the reads, so the
    /// consumer reads form their own dispatch chains — the shape the
    /// prediction-driven prefetcher can overlap with other sessions'
    /// foreground work.
    pub readbacks: u32,
    /// The tenant this run belongs to. `None` lands on the default
    /// tenant (weight 1, no quotas, no SLO); a name is resolved against
    /// the system's [`msr_core::TenantRegistry`], auto-registering with
    /// defaults when unknown.
    pub tenant: Option<String>,
    /// Completion deadline, in virtual time from the drain's start. A
    /// session whose remaining predicted work can no longer finish by
    /// the deadline is cancelled mid-drain: its queued requests are
    /// removed and its partial report carries the cancellation reason.
    pub deadline: Option<SimDuration>,
}

impl SessionProgram {
    /// A program with defaults: user `"user"`, 12 iterations, a 1×1×1
    /// grid, no datasets, no readback.
    pub fn new(app: &str) -> SessionProgram {
        SessionProgram {
            app: app.to_owned(),
            user: "user".to_owned(),
            iterations: 12,
            grid: ProcGrid::new(1, 1, 1),
            datasets: Vec::new(),
            readback: false,
            readbacks: 0,
            tenant: None,
            deadline: None,
        }
    }

    /// User name registered in the catalog.
    pub fn user(mut self, user: &str) -> Self {
        self.user = user.to_owned();
        self
    }

    /// Main-loop iterations.
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// The process grid.
    pub fn grid(mut self, grid: ProcGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Add one dataset.
    pub fn dataset(mut self, spec: DatasetSpec) -> Self {
        self.datasets.push(spec);
        self
    }

    /// Read each dataset's first dump back at the end of the program.
    pub fn readback(mut self, readback: bool) -> Self {
        self.readback = readback;
        self
    }

    /// Read each dataset's `n` earliest dumps back at the end of the
    /// program, expanded as standalone read chains (see
    /// [`SessionProgram::readbacks`]).
    pub fn readbacks(mut self, n: u32) -> Self {
        self.readbacks = n;
        self
    }

    /// Tag the run with a tenant name (see [`SessionProgram::tenant`]).
    pub fn tenant(mut self, tenant: &str) -> Self {
        self.tenant = Some(tenant.to_owned());
        self
    }

    /// Set a completion deadline in virtual time from the drain's start
    /// (see [`SessionProgram::deadline`]).
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_builder_composes() {
        let p = SessionProgram::new("astro3d")
            .user("me")
            .iterations(24)
            .grid(ProcGrid::new(2, 1, 1))
            .dataset(DatasetSpec::builder("temp").build())
            .dataset(DatasetSpec::builder("pres").build())
            .readback(true);
        assert_eq!(p.app, "astro3d");
        assert_eq!(p.iterations, 24);
        assert_eq!(p.datasets.len(), 2);
        assert!(p.readback);
    }
}
