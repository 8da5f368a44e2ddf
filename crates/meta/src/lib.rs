//! # msr-meta — the metadata catalog (MDMS)
//!
//! The paper keeps a "small" Postgres database at NWU holding *meta-data*:
//! which applications and users exist, which datasets each run produced,
//! where every dataset lives (storage resource type, path) and how it is
//! partitioned across processors. The paper also keeps its performance
//! tables there; here the predictor's database is `msr-predict`'s `PerfDb`,
//! held once by the system and persisted on its own.
//!
//! This crate is the embedded stand-in: a typed, relational-style
//! [`Catalog`] with primary-key tables, foreign-key lookups and JSON
//! persistence (the paper's Postgres is, for our purposes, a durable table
//! store with an embedded C API — the catalog exercises the same code
//! paths: dataset lookup by name, location attributes, dump recency). A
//! load checks what inserts check: ids match row positions, unique names
//! are unique and every foreign key names a row.
//!
//! Metadata access is deliberately cheap (§3.2: "As meta-data access is
//! inexpensive, there is no need to provide a run-time library on top"); a
//! flat per-query cost, [`QUERY_COST`], models the campus round trip to
//! NWU.

pub mod catalog;
pub mod error;
pub mod records;

pub use catalog::{Catalog, QUERY_COST};
pub use error::MetaError;
pub use records::{
    AccessMode, AppId, ApplicationRec, DatasetId, DatasetRec, DumpRec, DumpState, ElementType,
    Location, ResourceRec, RunId, RunRec, UserId, UserRec,
};

/// Convenience result alias for catalog operations.
pub type MetaResult<T> = Result<T, MetaError>;
