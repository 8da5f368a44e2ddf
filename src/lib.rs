//! # msr — distributed multi-storage resource architecture
//!
//! Facade crate re-exporting the whole reproduction of Shen, Choudhary,
//! Matarazzo & Sinha, *"A Distributed Multi-Storage Resource Architecture
//! and I/O Performance Prediction for Scientific Computing"* (HPDC 2000).
//!
//! Layer map (bottom-up, matching the paper's Fig. 3):
//!
//! | paper layer | crate |
//! |---|---|
//! | physical storage resources | [`storage`] (+ [`net`] underneath) |
//! | native storage interfaces  | [`storage::Device`] |
//! | run-time library           | [`runtime`] |
//! | user API                   | [`core`] |
//! | user applications          | [`apps`] |
//! | metadata DB (MDMS)         | [`meta`] |
//! | I/O performance predictor  | [`predict`] |
//! | cross-layer observability  | [`obs`] (feeds [`predict`] online) |
//! | concurrent-session scheduler | [`sched`] |
//! | tiered data lifecycle      | [`lifecycle`] (migration, retention, vaulting) |
//!
//! Start with [`core::MsrSystem::testbed`] and the `quickstart` example.
//! Every example compiles from [`prelude`] alone:
//!
//! ```
//! use msr::prelude::*;
//!
//! let sys = MsrSystem::testbed(42);
//! let mut session = sys.session().app("demo").iterations(12).build()?;
//! let spec = DatasetSpec::builder("temp")
//!     .element(ElementType::F32)
//!     .cube(8)
//!     .build();
//! let h = session.open(spec)?;
//! session.write_iteration(h, 0, &[0u8; 8 * 8 * 8 * 4])?;
//! let report = session.finalize()?;
//! assert_eq!(report.datasets.len(), 1);
//! # Ok::<(), CoreError>(())
//! ```

pub use msr_apps as apps;
pub use msr_chunk as chunk;
pub use msr_core as core;
pub use msr_lifecycle as lifecycle;
pub use msr_meta as meta;
pub use msr_net as net;
pub use msr_obs as obs;
pub use msr_predict as predict;
pub use msr_runtime as runtime;
pub use msr_sched as sched;
pub use msr_sim as sim;
pub use msr_storage as storage;

/// The most commonly needed names in one import — everything the
/// `examples/` directory uses.
pub mod prelude {
    pub use msr_apps::analysis::run_analysis;
    pub use msr_apps::multi::{
        batch_fleet, checkpoint_fleet, checkpoint_producer, client_fleet, noisy_fleet, quiet_fleet,
        register_antagonist_tenants, run_concurrent, run_overloaded, run_sequential, strip_tenants,
        ClientKind,
    };
    pub use msr_apps::volren::{run_volren, run_volren_superfile};
    pub use msr_apps::{
        bytes_to_f32s, f32s_to_bytes, Astro3d, Astro3dConfig, Image, PlacementPlan, RenderMode,
        StepMode,
    };
    pub use msr_core::{
        classify, BreakerState, ChunkPolicy, Codec, CoreError, CoreResult, DatasetSpec,
        DatasetSpecBuilder, ErrorClass, FutureUse, HealthCounters, HealthTracker, IngestSpec,
        LoadBoard, LocationHint, MsrSystem, OverloadPolicy, PlacementPolicy, RunReport, Session,
        SessionBuilder, Tenant, TenantId, TenantQuota, TenantRegistry, Volume,
    };
    pub use msr_lifecycle::{
        tier_down, tier_up, LifecycleConfig, LifecycleEngine, RetentionPolicy, TickReport,
        TickTotals,
    };
    pub use msr_meta::{AccessMode, ElementType, RunId};
    pub use msr_obs::{chrome_trace, jsonl, Layer, MetricsSnapshot, Recorder, Registry};
    pub use msr_predict::{compare, PTool};
    pub use msr_runtime::{Dims3, IoStrategy, Pattern, ProcGrid, Superfile};
    pub use msr_sched::{SchedReport, Scheduler, SessionProgram, SessionReport, TenantReport};
    pub use msr_sim::SimDuration;
    pub use msr_storage::{FaultKind, FaultLog, FaultPlan, OpKind, OpenMode, StorageKind};
}
