//! Dependency-free observability primitives for the CEDR engine.
//!
//! The paper's central claim is that consistency is a *measurable*
//! trade-off (Figure 8 plots blocking, state and output size against the
//! guarantee level). This crate supplies the measuring instruments that
//! the engine crates wire into the data path:
//!
//! - [`clock`] — the **clock seam**: every wall-clock read goes through
//!   the [`ObsClock`] trait so tests can inject a [`ManualClock`] and
//!   prove that counters never depend on timing.
//! - [`hist`] — allocation-free log2-bucketed [`Histogram`]s for latency
//!   distributions (round drain, drain worker, ingest→delta, blocking).
//! - [`trace`] — a bounded, allocation-light [`TraceRing`] of structured
//!   [`TraceEvent`]s; disabled rings cost one branch per hook.
//! - [`hub`] — [`ObsHub`], the shared handle threaded through the engine,
//!   drain workers and channel producers.
//! - [`stats`] — [`OpStats`], the per-operator counters every layer above
//!   shares: the runtime's shells fill them, checkpoints persist them,
//!   snapshots report them.
//! - [`snapshot`] — the typed [`MetricsSnapshot`] returned by
//!   `Engine::metrics()`, split into **counter-class** fields (exact,
//!   replayable) and **timing-class** fields (wall-clock, behind the
//!   seam). [`CounterSnapshot::semantic`] further projects the subset
//!   that is bit-identical across worker counts.
//! - [`expo`] — text exposition: Prometheus text format 0.0.4
//!   ([`MetricsSnapshot::render_prometheus`]), a human dashboard
//!   ([`MetricsSnapshot::render_report`]), and a format validator used by
//!   tests ([`validate_exposition`]).
//!
//! The crate deliberately has **no dependencies** (not even on the other
//! CEDR crates) so it can sit below `cedr-durable` and `cedr-runtime`:
//! a counter struct defined here is the one every crate above names.

pub mod clock;
pub mod expo;
pub mod hist;
pub mod hub;
pub mod snapshot;
pub mod stats;
pub mod trace;

pub use clock::{ManualClock, MonotonicClock, ObsClock};
pub use expo::{validate_exposition, ExpositionSummary};
pub use hist::Histogram;
pub use hub::{ObsHub, Timings};
pub use snapshot::{
    ChannelCounters, CheckpointCounters, CounterSnapshot, IngressCounters, MetricsSnapshot,
    NodeCounters, QueryCounters, SemanticChannel, SemanticCounters, SemanticQuery, SubscriptionLag,
    TraceStats,
};
pub use stats::OpStats;
pub use trace::{TraceEvent, TraceRing};
