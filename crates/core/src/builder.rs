//! Fluent session construction.
//!
//! [`SessionBuilder`] names each session parameter and supplies sensible
//! defaults, so a session declares only what it cares about:
//!
//! ```
//! use msr_core::MsrSystem;
//! use msr_runtime::ProcGrid;
//!
//! let sys = MsrSystem::testbed(42);
//! let session = sys
//!     .session()
//!     .app("astro3d")
//!     .user("xshen")
//!     .iterations(12)
//!     .grid(ProcGrid::new(2, 2, 2))
//!     .build()?;
//! assert_eq!(session.iterations(), 12);
//! # Ok::<(), msr_core::CoreError>(())
//! ```

use crate::session::Session;
use crate::system::MsrSystem;
use crate::CoreResult;
use msr_runtime::ProcGrid;

/// Builder for a [`Session`]; obtained from [`MsrSystem::session`].
///
/// Defaults: app `"app"`, user `"user"`, 1 iteration, a 1×1×1 grid.
#[derive(Clone)]
pub struct SessionBuilder<'a> {
    sys: &'a MsrSystem,
    app: String,
    user: String,
    iterations: u32,
    grid: ProcGrid,
}

impl<'a> SessionBuilder<'a> {
    pub(crate) fn new(sys: &'a MsrSystem) -> SessionBuilder<'a> {
        SessionBuilder {
            sys,
            app: "app".to_owned(),
            user: "user".to_owned(),
            iterations: 1,
            grid: ProcGrid::new(1, 1, 1),
        }
    }

    /// Application name registered in the catalog.
    pub fn app(mut self, app: &str) -> Self {
        self.app = app.to_owned();
        self
    }

    /// User name registered in the catalog.
    pub fn user(mut self, user: &str) -> Self {
        self.user = user.to_owned();
        self
    }

    /// Total main-loop iterations the run will execute.
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// The parallel process grid.
    pub fn grid(mut self, grid: ProcGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Register the run in the catalog and start the session (Fig. 5's
    /// `initialization()`).
    pub fn build(self) -> CoreResult<Session<'a>> {
        Session::initialize(self.sys, &self.app, &self.user, self.iterations, self.grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_every_field() {
        let sys = MsrSystem::testbed(5);
        let s = sys
            .session()
            .app("astro3d")
            .user("me")
            .iterations(24)
            .grid(ProcGrid::new(2, 2, 1))
            .build()
            .unwrap();
        assert_eq!(s.iterations(), 24);
        assert_eq!(s.grid(), ProcGrid::new(2, 2, 1));
        assert!(sys.catalog.lock().app_by_name("astro3d").is_ok());
        assert!(sys.catalog.lock().user_by_name("me").is_ok());
    }

    #[test]
    fn builder_defaults_make_a_usable_session() {
        let sys = MsrSystem::testbed(5);
        let s = sys.session().build().unwrap();
        assert_eq!(s.iterations(), 1);
        assert_eq!(s.grid(), ProcGrid::new(1, 1, 1));
    }
}
