//! Network error type.

use std::fmt;

/// Failures surfaced by the network simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The link is down.
    RouteDown,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::RouteDown => write!(f, "connection route is down"),
        }
    }
}

impl std::error::Error for NetError {}
