//! # cedr-core
//!
//! The public face of the CEDR reproduction: an [`engine::Engine`] that
//! registers standing queries (from CEDR query text or the programmatic
//! [`builder::PlanBuilder`]), routes provider streams to them, applies
//! per-query consistency specs, and exposes a **sessioned I/O surface**:
//! typed [`Source`] ingestion sessions with bounded backpressure on the
//! way in, incremental [`Subscription`] change-stream cursors on the way
//! out, plus a unified [`Engine::metrics`](engine::Engine::metrics)
//! telemetry snapshot. A [`Source`] comes in two targets: the borrowed
//! [`SourceHandle`] flushes into the engine's ingress queue, and the
//! `Send + Clone` [`ChannelSource`] lets producer threads feed a bounded
//! channel while the engine pumps ([`Engine::pump`](engine::Engine::pump) /
//! [`Engine::run_pipelined`](engine::Engine::run_pipelined)), with
//! multi-producer runs bit-identical to single-threaded ingestion — see
//! [`ingest`] for the "which handle do I want?" table.
//!
//! ```
//! use cedr_core::prelude::*;
//!
//! let mut engine = Engine::new();
//! engine.register_event_type("INSTALL", vec![("Machine_Id", FieldType::Str)]);
//! engine.register_event_type("SHUTDOWN", vec![("Machine_Id", FieldType::Str)]);
//! engine.register_event_type("RESTART", vec![("Machine_Id", FieldType::Str)]);
//! let q = engine
//!     .register_query(
//!         "EVENT Q WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours) \
//!          WHERE x.Machine_Id = y.Machine_Id",
//!         ConsistencySpec::middle(),
//!     )
//!     .unwrap();
//! let mut sub = engine.subscribe(q).unwrap();
//!
//! // Provider session: resolve the stream once, stage typed events.
//! let mut installs = engine.source("INSTALL").unwrap();
//! installs.insert(100, vec![Value::str("m1")]).unwrap();
//! drop(installs);
//! let mut shutdowns = engine.source("SHUTDOWN").unwrap();
//! shutdowns.insert(200, vec![Value::str("m1")]).unwrap();
//! drop(shutdowns);
//! engine.seal();
//!
//! // Consumer session: drain the insert/retract/CTI change stream.
//! let deltas = sub.poll(&mut engine);
//! assert_eq!(deltas.iter().filter(|d| d.is_data()).count(), 1);
//! assert_eq!(engine.collector(q).stats().inserts, 1);
//! ```

pub mod builder;
mod checkpoint;
pub mod engine;
pub mod ingest;
mod metrics;
pub mod session;

pub use builder::PlanBuilder;
pub use engine::{
    Engine, EngineConfig, EngineError, QueryId, DEFAULT_CHANNEL_DEPTH, DEFAULT_INGRESS_CAPACITY,
    DEFAULT_TRACE_CAPACITY,
};
pub use ingest::{ChannelSource, IngressStats, PumpProgress};
pub use session::{Source, SourceHandle, Subscription, DEFAULT_AUTOFLUSH};

// Observability surface: [`Engine::metrics`] returns these `cedr-obs`
// types; re-export the ones applications and tests touch directly.
pub use cedr_obs::{
    validate_exposition, ManualClock, MetricsSnapshot, ObsClock, SemanticCounters, TraceEvent,
};

/// Convenience prelude for applications.
pub mod prelude {
    pub use crate::builder::PlanBuilder;
    pub use crate::engine::{Engine, EngineConfig, EngineError, QueryId};
    pub use crate::ingest::{ChannelSource, IngressStats, PumpProgress};
    pub use crate::session::{SourceHandle, Subscription};
    pub use cedr_algebra::expr::{CmpOp, Pred, Scalar};
    pub use cedr_algebra::pattern::{Consumption, ScMode, Selection};
    pub use cedr_algebra::relational::AggFunc;
    pub use cedr_lang::catalog::{Catalog, EventTypeDef, FieldType};
    pub use cedr_obs::{ManualClock, MetricsSnapshot, ObsClock, TraceEvent};
    pub use cedr_runtime::{ConsistencyLevel, ConsistencySpec};
    pub use cedr_streams::{
        Collector, DisorderConfig, Message, MessageBatch, OutputDelta, Retraction, StreamBuilder,
    };
    pub use cedr_temporal::prelude::*;
    pub use cedr_temporal::time::{dur, t};
}
