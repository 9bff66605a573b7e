//! The CEDR engine: standing-query registration, shared-source routing,
//! sessioned I/O and per-query consistency.
//!
//! Applications "specify consistency requirements on a per query basis"
//! (Section 1): each registered query gets its own operator instances
//! running at its own ⟨M, B⟩ spectrum point, fed from shared named input
//! streams.
//!
//! # Sessioned I/O
//!
//! The engine is a *standing-query server*: providers feed streams in
//! continuously and consumers observe a consistent, repairing output
//! stream. Both directions are **sessions**:
//!
//! * **Ingestion** — [`Engine::source`] and [`Engine::channel_source`]
//!   open a typed [`Source`] on one input stream: it resolves the event
//!   type and its subscribers **once**, offers typed
//!   `insert`/`retract`/`cti` builders, stages a local [`MessageBatch`]
//!   and flushes it against a bounded target — real backpressure, never
//!   unbounded growth. A [`SourceHandle`] borrows the engine and flushes
//!   into its ingress queue ([`EngineConfig::ingress_capacity`]); a
//!   [`ChannelSource`] is `Send + Clone` with **no engine borrow**, so
//!   provider threads feed a bounded mpsc ingress while the engine thread
//!   interleaves channel drains with quiescence passes via
//!   [`Engine::pump`] / [`Engine::run_pipelined`]. See the
//!   [`crate::ingest`] module docs for the **"which handle do I want?"**
//!   table and the order-insensitivity guarantee (multi-producer runs
//!   are bit-identical to single-threaded ingestion of the same
//!   emissions at every consistency level).
//! * **Consumption** — [`Engine::subscribe`] opens a
//!   [`Subscription`] cursoring the query
//!   collector's append-only [`OutputDelta`](cedr_streams::OutputDelta)
//!   log — the collector's single per-message store. Polling drains
//!   staged work and returns exactly the insert/retract/CTI deltas
//!   appended since the last poll, bit-identical at every consistency
//!   level and thread count, instead of re-reading whole output tables.
//!
//! # Routing and threading
//!
//! Ingestion is built for fan-out at scale. The engine keeps **one**
//! event-type → `(query, source port)` routing table and **one** bounded
//! ingress queue ([`EngineConfig::ingress_capacity`]). Staging is one
//! table lookup (or none at all, through a resolved handle) plus one
//! queue entry holding the `Arc`-shared [`MessageBatch`] — never a
//! payload deep-copy, regardless of how many standing queries share a
//! stream. The [`Engine::enqueue_batch`]/[`Engine::run_to_quiescence`]
//! pair lets callers stage several per-type batches (e.g. one per
//! provider stream) and then drain every query's dataflow once,
//! maximising the runs each dataflow's sweep can amortise.
//!
//! A drain groups the queue into one round per query — every query sees
//! its staged batches in exactly the enqueue order — and runs the rounds
//! in query order. [`EngineConfig::threads`] splits **only this drain**:
//! query `q` belongs to worker `q % threads`, and a round in which at
//! least two workers have input runs them on scoped threads, each owning
//! its queries' dataflows outright (no lock on the hot path). Queries are
//! independent, single-threaded dataflows, so threaded and serial drains
//! produce bit-identical outputs at every consistency level; routing,
//! admission, backpressure, ingress counters and checkpoint images do not
//! depend on the worker count at all.
//!
//! # Durability
//!
//! [`Engine::checkpoint`] serializes the **complete engine image** at a
//! quiescent round boundary — per-operator state across every operator
//! family (shell alignment and reorder-guard state, group-aggregate tables,
//! join indexes, sequence/negation state), the channel pump's
//! resequencer (buffered emissions and per-producer cursors), each
//! query's output delta log (the collector is rebuilt from it), the
//! routing table, the engine configuration and round counters —
//! into a versioned, length-prefixed binary image (see [`cedr_durable`])
//! whose manifest carries the format version, the round number, a
//! configuration hash and a content checksum.
//! [`Engine::restore`] validates the whole image (framing, checksums,
//! format version, configuration hash, section inventory) **before**
//! mutating anything, then rebuilds an identically configured engine —
//! one with the same event types and queries registered in the same
//! order — into the exact state the checkpointed engine held. Recovery
//! is *invisible at the tape level*: replaying the remaining emissions
//! into the restored engine produces stamped tapes, subscription deltas
//! and output CTIs **bit-identical** to the run that never failed, at
//! every consistency level and thread count (`tests/recovery.rs` pins
//! this). A corrupt, truncated or
//! version-mismatched image fails with a typed
//! [`EngineError::CheckpointCorrupt`] naming the offending section and
//! leaves the engine untouched; [`Engine::seal`] after a restore behaves
//! exactly as on an engine that was never checkpointed. Channel
//! producers reattach by calling [`Engine::channel_source`] in the same
//! order as the original run: restored open lanes are handed back,
//! emission cursors intact, before fresh producer keys are minted.
//! Subscriptions are plain positions into the restored delta logs, so a
//! consumer can resume its cursor ([`crate::Subscription::position`])
//! unchanged.
//!
//! # Observability
//!
//! [`Engine::metrics`] returns one unified
//! [`MetricsSnapshot`](cedr_obs::MetricsSnapshot): per-query and per-node
//! operator counters, engine ingress counters, channel pump and
//! resequencer state (including per-producer backpressure attribution),
//! checkpoint/restore accounting, the latency histograms and the trace
//! ring occupancy. Render it with
//! [`render_prometheus`](cedr_obs::MetricsSnapshot::render_prometheus)
//! (text exposition format 0.0.4) or
//! [`render_report`](cedr_obs::MetricsSnapshot::render_report) (a human
//! dashboard).
//!
//! Metrics fall into three classes (see [`cedr_obs::snapshot`]):
//! **semantic counters** ([`MetricsSnapshot::semantic`](cedr_obs::MetricsSnapshot::semantic))
//! are bit-identical across `CEDR_THREADS` worker counts for the same
//! logical workload (`tests/metrics_determinism.rs` pins this);
//! **execution counters** (per-node operator stats, ingress and channel
//! backpressure) are exact for a fixed configuration but move with
//! capacities and producer timing; and **timing histograms** read wall-clock through the
//! [`ObsClock`](cedr_obs::ObsClock) seam — swap in a
//! [`ManualClock`](cedr_obs::ManualClock) via [`Engine::set_obs_clock`]
//! for deterministic tests. None of this state is ever serialized into
//! checkpoint images, and none of it feeds back into scheduling.
//!
//! Structured tracing is off by default ([`EngineConfig::trace_capacity`]
//! `= 0`: every hook is one branch); enable it per engine with
//! [`EngineConfig::with_trace_capacity`] or globally with `CEDR_TRACE`
//! (`1`/`on` → a [`DEFAULT_TRACE_CAPACITY`]-event ring, any other number
//! → that capacity). [`Engine::trace_events`] returns the buffered
//! window of [`TraceEvent`]s — round start/end,
//! drain-worker sweeps, operator runs, backpressure hits,
//! resequencer stalls, checkpoint/restore, seal — oldest first.

use crate::ingest::{ChannelIngress, ChannelSource, ChannelTarget, IngressStats};
use crate::session::{EngineTarget, Source, SourceHandle, Subscription};
use cedr_lang::catalog::{Catalog, EventTypeDef, FieldType};
use cedr_lang::{compile, lower, optimize, LangError, LogicalOp, LoweredPlan};
use cedr_obs::{CheckpointCounters, ObsHub, TraceEvent};
use cedr_runtime::{ConsistencySpec, OpStats};
use cedr_streams::{Collector, MessageBatch};
use cedr_temporal::{Event, EventId, Interval, Payload, TimePoint, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Handle to a registered standing query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryId(pub usize);

/// Engine errors.
///
/// Marked `#[non_exhaustive]`: future PRs may add variants (as this one
/// added [`EngineError::IngressFull`] and [`EngineError::Sealed`]) without
/// breaking downstream matches.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    Lang(LangError),
    /// The named event type was never registered. Carries the names that
    /// *are* registered, so the message can point at the likely typo.
    UnknownEventType {
        name: String,
        registered: Vec<String>,
    },
    UnknownQuery(QueryId),
    PayloadArity {
        event_type: String,
        expected: usize,
        got: usize,
    },
    /// A builder was asked for a point event starting at `vs ==
    /// u64::MAX`: that tick is reserved for `∞`
    /// ([`TimePoint::INFINITY`]), so no finite event can start there.
    TimeOutOfRange {
        event_type: String,
        vs: u64,
    },
    /// A bounded ingress has no room for the batch being staged. Returned
    /// only by the `try_*` admission paths
    /// ([`crate::SourceHandle::try_flush`], [`Engine::try_enqueue_batch`],
    /// [`crate::ChannelSource::try_flush`]); the blocking paths exert
    /// backpressure instead of failing. This is the signal to drain or
    /// slow down.
    ///
    /// For the engine ingress, `capacity`/`staged`/`batch` count
    /// *messages* and [`Engine::run_to_quiescence`] drains it. For a
    /// channel source the bounded resource is the mpsc channel itself:
    /// `capacity`/`staged` count in-flight *emissions* (batches), per
    /// [`EngineConfig::channel_depth`], and only [`Engine::pump`] /
    /// [`Engine::run_pipelined`] drain it.
    IngressFull {
        event_type: String,
        capacity: usize,
        staged: usize,
        batch: usize,
    },
    /// The pump's resequencer skew buffer is at
    /// [`EngineConfig::resequencer_capacity`] and the canonical line is
    /// stalled: producer `waiting_on` owes the next round its emission,
    /// so nothing buffered can be released and nothing more will be
    /// drained from the channel. Returned by [`Engine::pump`] /
    /// [`Engine::run_pipelined`]. Recovery: get the named producer to
    /// emit, drop/[`seal`](crate::ChannelSource::seal) it (its disconnect
    /// releases the line on the next pump), or configure a larger buffer.
    ResequencerFull {
        capacity: usize,
        buffered: usize,
        /// Producer key (see [`crate::ChannelSource::producer_key`]) of
        /// the lane the next round is waiting on.
        waiting_on: u64,
    },
    /// The engine was sealed ([`Engine::seal`]): every input already
    /// carries `CTI(∞)`, so no further ingestion is possible.
    Sealed,
    /// [`Engine::checkpoint`] was called away from a quiescent round
    /// boundary: staged ingress would be lost by a boundary image (a
    /// dataflow holds no input between calls, so only staged ingress
    /// trips this). Drain first ([`Engine::run_to_quiescence`] /
    /// [`Engine::pump`]).
    NotQuiescent {
        detail: String,
    },
    /// [`Engine::restore`] rejected a checkpoint image, naming the
    /// offending section (`"header"`, `"manifest"`, `"engine"`,
    /// `"channel"` or a `"query:…"` section). The engine is only mutated
    /// once the whole image has been validated, so a corrupt, truncated
    /// or mismatched image leaves it exactly as it was.
    CheckpointCorrupt {
        section: String,
        detail: String,
    },
    /// An I/O failure while writing ([`Engine::checkpoint`]) or reading
    /// ([`Engine::restore`]) a checkpoint image.
    CheckpointIo(std::io::Error),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Lang(e) => write!(f, "{e}"),
            EngineError::UnknownEventType { name, registered } => {
                if registered.is_empty() {
                    write!(f, "unknown event type '{name}' (no types registered)")
                } else {
                    write!(
                        f,
                        "unknown event type '{name}' (registered: {})",
                        registered.join(", ")
                    )
                }
            }
            EngineError::UnknownQuery(q) => write!(f, "unknown query {q:?}"),
            EngineError::PayloadArity {
                event_type,
                expected,
                got,
            } => write!(
                f,
                "payload arity mismatch for {event_type}: expected {expected}, got {got}"
            ),
            EngineError::TimeOutOfRange { event_type, vs } => write!(
                f,
                "start time {vs} for '{event_type}' is out of range: u64::MAX is reserved \
                 for ∞"
            ),
            EngineError::IngressFull {
                event_type,
                capacity,
                staged,
                batch,
            } => write!(
                f,
                "ingress full for '{event_type}': {staged}/{capacity} staged, batch of \
                 {batch} does not fit; drain the engine ingress (counts messages) with \
                 run_to_quiescence() or a channel source (counts emissions) with pump() / \
                 run_pipelined(), or use the blocking flush"
            ),
            EngineError::ResequencerFull {
                capacity,
                buffered,
                waiting_on,
            } => write!(
                f,
                "resequencer skew buffer full: {buffered}/{capacity} emissions buffered while \
                 waiting on producer {waiting_on}; make it emit, drop/seal it, or raise \
                 resequencer_capacity"
            ),
            EngineError::Sealed => write!(
                f,
                "engine is sealed (CTI ∞ broadcast); no further ingestion is possible"
            ),
            EngineError::NotQuiescent { detail } => write!(
                f,
                "checkpoint requires a quiescent round boundary: {detail}; drain with \
                 run_to_quiescence() or pump() first"
            ),
            EngineError::CheckpointCorrupt { section, detail } => {
                write!(
                    f,
                    "checkpoint image rejected at section '{section}': {detail}"
                )
            }
            EngineError::CheckpointIo(e) => write!(f, "checkpoint I/O failure: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LangError> for EngineError {
    fn from(e: LangError) -> Self {
        EngineError::Lang(e)
    }
}

pub(crate) struct RunningQuery {
    pub(crate) name: String,
    pub(crate) plan: LoweredPlan,
    pub(crate) spec: ConsistencySpec,
    pub(crate) explain: String,
}

/// Default bound on messages staged in the engine's ingress queue (see
/// [`EngineConfig::ingress_capacity`]).
pub const DEFAULT_INGRESS_CAPACITY: usize = 65_536;

/// Default bound on in-flight channel-source emissions (see
/// [`EngineConfig::channel_depth`]).
pub const DEFAULT_CHANNEL_DEPTH: usize = 1_024;

/// Default bound on messages buffered inside the pump's resequencer (see
/// [`EngineConfig::resequencer_capacity`]).
pub const DEFAULT_RESEQUENCER_CAPACITY: usize = 16_384;

/// Trace-ring capacity used when tracing is enabled without an explicit
/// size (`CEDR_TRACE=1`; see [`EngineConfig::trace_capacity`]).
pub const DEFAULT_TRACE_CAPACITY: usize = 4_096;

/// Execution configuration of an [`Engine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Drain workers for [`Engine::run_to_quiescence`]: query `q` runs on
    /// worker `q % threads`, and a drain in which at least two workers
    /// have input runs them on scoped threads. `1` = fully serial. Splits
    /// the drain only — routing, admission, counters and checkpoint images
    /// are the same at every worker count.
    pub threads: usize,
    /// Bound on *staged* messages in the engine's ingress queue: admission
    /// fails ([`EngineError::IngressFull`], on the `try_*` paths) or
    /// drains the engine (on the blocking paths) once the queue holds this
    /// many messages. This is what keeps a fast provider from growing the
    /// staging queue without bound. A single batch larger than the
    /// capacity is admitted alone into an empty queue (it could never fit
    /// otherwise), so the bound is `capacity + one oversized batch` in the
    /// worst case.
    pub ingress_capacity: usize,
    /// Bound on in-flight [`ChannelSource`] emissions (whole staged
    /// batches, not messages): the capacity of the mpsc channel between
    /// provider threads and the pump. A full channel blocks
    /// [`ChannelSource::flush`](crate::ChannelSource::flush) and rejects
    /// [`try_flush`](crate::ChannelSource::try_flush) with
    /// [`EngineError::IngressFull`] — backpressure on providers that
    /// outrun the pump.
    pub channel_depth: usize,
    /// Bound on emissions buffered inside the pump's **resequencer** — the
    /// skew buffer that holds a fast producer's rounds while a slow
    /// producer's earlier round is still missing. Without a bound, one
    /// silent producer would let every other producer grow this buffer
    /// indefinitely. When the buffer is at capacity and no round is ready,
    /// [`Engine::pump`] stops draining the channel and returns
    /// [`EngineError::ResequencerFull`] naming the producers it is waiting
    /// on; providers keep blocking on the (also bounded) channel in the
    /// meantime, so memory stays bounded end to end.
    pub resequencer_capacity: usize,
    /// Ignored; kept so `benchmark/` builds. Every stateless operator
    /// lowers to its own shell whatever this says.
    pub fuse: bool,
    /// Ignored; kept so `benchmark/` builds.
    pub compile_kernels: bool,
    /// Capacity of the structured trace ring (events), `0` = tracing off
    /// (every trace hook is a single branch and no ring is allocated).
    /// Defaults to the `CEDR_TRACE` environment switch — unset or `0`
    /// disables, `1`/`on` enables a [`DEFAULT_TRACE_CAPACITY`]-event
    /// ring, any other number is used as the capacity — and can be
    /// overridden per engine with [`EngineConfig::with_trace_capacity`].
    /// Pure observability: it is deliberately **excluded from the
    /// checkpoint configuration hash**, so an image taken with tracing
    /// off restores into an engine with tracing on (and vice versa).
    pub trace_capacity: usize,
}

/// The `CEDR_TRACE` environment switch (see
/// [`EngineConfig::trace_capacity`]).
fn trace_capacity_from_env() -> usize {
    match std::env::var("CEDR_TRACE") {
        Err(_) => 0,
        Ok(v) => match v.trim() {
            "" | "0" | "off" => 0,
            "1" | "on" => DEFAULT_TRACE_CAPACITY,
            other => other.parse().unwrap_or(DEFAULT_TRACE_CAPACITY),
        },
    }
}

impl EngineConfig {
    /// Single-threaded execution (serial drain). Tracing follows the
    /// `CEDR_TRACE` environment switch, like every constructor.
    pub fn serial() -> Self {
        EngineConfig {
            threads: 1,
            ingress_capacity: DEFAULT_INGRESS_CAPACITY,
            channel_depth: DEFAULT_CHANNEL_DEPTH,
            resequencer_capacity: DEFAULT_RESEQUENCER_CAPACITY,
            fuse: false,
            compile_kernels: false,
            trace_capacity: trace_capacity_from_env(),
        }
    }

    /// `threads` drain workers (clamped to at least 1).
    pub fn threaded(threads: usize) -> Self {
        EngineConfig {
            threads: threads.max(1),
            ..EngineConfig::serial()
        }
    }

    /// Same configuration with a different ingress bound (clamped to at
    /// least 1 message).
    pub fn with_ingress_capacity(self, capacity: usize) -> Self {
        EngineConfig {
            ingress_capacity: capacity.max(1),
            ..self
        }
    }

    /// Same configuration with a different channel-source emission bound
    /// (clamped to at least 1 batch).
    pub fn with_channel_depth(self, depth: usize) -> Self {
        EngineConfig {
            channel_depth: depth.max(1),
            ..self
        }
    }

    /// Same configuration with a different resequencer skew-buffer bound
    /// (clamped to at least 1 emission).
    pub fn with_resequencer_capacity(self, capacity: usize) -> Self {
        EngineConfig {
            resequencer_capacity: capacity.max(1),
            ..self
        }
    }

    /// Same configuration with a different trace-ring capacity (`0`
    /// disables tracing; overrides the `CEDR_TRACE` environment default).
    pub fn with_trace_capacity(self, capacity: usize) -> Self {
        EngineConfig {
            trace_capacity: capacity,
            ..self
        }
    }

    /// Sets the ignored [`EngineConfig::fuse`]; kept so `benchmark/`
    /// builds.
    pub fn with_fuse(self, fuse: bool) -> Self {
        EngineConfig { fuse, ..self }
    }

    /// Read `CEDR_THREADS`, `CEDR_INGRESS_CAPACITY`, `CEDR_CHANNEL_DEPTH`,
    /// `CEDR_RESEQ_CAPACITY` and `CEDR_TRACE` from the environment
    /// (defaults: 1 thread, [`DEFAULT_INGRESS_CAPACITY`],
    /// [`DEFAULT_CHANNEL_DEPTH`], [`DEFAULT_RESEQUENCER_CAPACITY`], tracing
    /// off). `CEDR_THREADS` is the knob the CI matrix turns to run the
    /// whole test suite serial and threaded — outputs (and every semantic
    /// counter, see [`Engine::metrics`]) are bit-identical both ways.
    pub fn from_env() -> Self {
        let parse = |var: &str| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&t| t >= 1)
        };
        EngineConfig {
            threads: parse("CEDR_THREADS").unwrap_or(1),
            ingress_capacity: parse("CEDR_INGRESS_CAPACITY").unwrap_or(DEFAULT_INGRESS_CAPACITY),
            channel_depth: parse("CEDR_CHANNEL_DEPTH").unwrap_or(DEFAULT_CHANNEL_DEPTH),
            resequencer_capacity: parse("CEDR_RESEQ_CAPACITY")
                .unwrap_or(DEFAULT_RESEQUENCER_CAPACITY),
            ..EngineConfig::serial()
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::from_env()
    }
}

/// The `(query index, source port)` subscribers of one event type, shared
/// behind `Arc` so that resolved [`SourceHandle`]s and staged ingress
/// entries alias the routing table instead of copying it.
pub(crate) type SubscriberList = Arc<Vec<(usize, usize)>>;

/// The schema check every ingestion surface applies — engine minting,
/// borrowed handles and channel sources share this single definition so
/// a validation change can never drift between them.
pub(crate) fn validate_arity(
    event_type: &str,
    expected: usize,
    got: usize,
) -> Result<(), EngineError> {
    if got != expected {
        return Err(EngineError::PayloadArity {
            event_type: event_type.to_string(),
            expected,
            got,
        });
    }
    Ok(())
}

/// The point interval `[vs, vs+1)` behind every `insert`/`event` builder,
/// or [`EngineError::TimeOutOfRange`] when `vs` is the tick reserved for
/// `∞`.
pub(crate) fn point_interval(event_type: &str, vs: u64) -> Result<Interval, EngineError> {
    if vs == TimePoint::INFINITY.0 {
        return Err(EngineError::TimeOutOfRange {
            event_type: event_type.to_string(),
            vs,
        });
    }
    Ok(Interval::point(TimePoint::new(vs)))
}

/// Channel-pump accounting that must outlive the [`ChannelIngress`]
/// itself: admission totals accumulate across pump calls, and the
/// backpressure counters of a torn-down channel are retired here at
/// [`Engine::seal`] so the metrics stay monotone. Serialized in the
/// checkpoint `engine` section (the totals are semantic counters).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ChannelAccounting {
    /// Cumulative rounds / batches / messages admitted through the pump.
    pub(crate) rounds: u64,
    pub(crate) batches: u64,
    pub(crate) messages: u64,
    /// Full-channel backpressure folded out of the channel at seal:
    /// total, and the per-producer attribution (sorted by key).
    pub(crate) retired_backpressure: u64,
    pub(crate) retired_by_producer: Vec<(u64, u64)>,
    /// Whether a channel ingress ever existed — keeps the channel block
    /// of [`Engine::metrics`] present after seal tears the channel down.
    pub(crate) seen: bool,
}

impl ChannelAccounting {
    /// Fold a retiring channel's per-producer backpressure counters in.
    pub(crate) fn retire(&mut self, total: u64, by_producer: Vec<(u64, u64)>) {
        self.retired_backpressure += total;
        for (key, n) in by_producer {
            match self
                .retired_by_producer
                .binary_search_by_key(&key, |&(k, _)| k)
            {
                Ok(i) => self.retired_by_producer[i].1 += n,
                Err(i) => self.retired_by_producer.insert(i, (key, n)),
            }
        }
    }
}

/// The CEDR engine.
pub struct Engine {
    pub(crate) catalog: Catalog,
    pub(crate) queries: Vec<RunningQuery>,
    /// Event-type name → `(query, port)` subscribers. Extended at
    /// registration; makes routing a lookup instead of a scan over every
    /// standing query.
    pub(crate) routing: HashMap<String, SubscriberList>,
    /// Staged batches awaiting the next drain, in enqueue order, each with
    /// the subscribers it fans out to at drain time.
    pub(crate) ingress: Vec<(MessageBatch, SubscriberList)>,
    /// Total messages across `ingress` — the quantity bounded by
    /// [`EngineConfig::ingress_capacity`].
    pub(crate) staged_msgs: usize,
    /// Staged/admitted/backpressure counters of the ingress queue.
    pub(crate) stats: IngressStats,
    pub(crate) config: EngineConfig,
    pub(crate) next_event_id: u64,
    /// Quiescence passes completed — the engine's round counter, stamped
    /// into checkpoint manifests ([`Engine::checkpoint`]).
    pub(crate) rounds_completed: u64,
    /// Set by [`Engine::seal`]: every input carries `CTI(∞)`, ingestion is
    /// over. Sealing is idempotent; ingestion afterwards is a typed error.
    pub(crate) sealed: bool,
    /// Channel-source ingress (mpsc + resequencer), created lazily by the
    /// first [`Engine::channel_source`] call; drained by [`Engine::pump`].
    pub(crate) channel: Option<ChannelIngress>,
    /// Pump admission totals + retired channel backpressure (outlives the
    /// channel; see [`ChannelAccounting`]).
    pub(crate) channel_acct: ChannelAccounting,
    /// Shared observability hub: clock seam, latency histograms, optional
    /// trace ring. Threaded into every dataflow at registration. Pure
    /// observability — never serialized, never read by scheduling.
    pub(crate) obs: Arc<ObsHub>,
    /// Checkpoint/restore accounting for [`Engine::metrics`] (counts this
    /// process's activity; deliberately not part of checkpoint images).
    pub(crate) ckpt: CheckpointCounters,
    /// Clock reading at the first staged admission since the last drain —
    /// the start point of the ingestion→delta latency histogram.
    pub(crate) round_open_at: Option<u64>,
}

impl Engine {
    /// An engine configured from the environment
    /// ([`EngineConfig::from_env`]; serial unless `CEDR_THREADS` is set).
    pub fn new() -> Self {
        Engine::with_config(EngineConfig::from_env())
    }

    /// An engine with an explicit execution configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine {
            catalog: Catalog::new(),
            queries: Vec::new(),
            routing: HashMap::new(),
            ingress: Vec::new(),
            staged_msgs: 0,
            stats: IngressStats::default(),
            config,
            next_event_id: 1,
            rounds_completed: 0,
            sealed: false,
            channel: None,
            channel_acct: ChannelAccounting::default(),
            obs: Arc::new(ObsHub::new(config.trace_capacity)),
            ckpt: CheckpointCounters::default(),
            round_open_at: None,
        }
    }

    /// Quiescence passes completed so far — the round counter stamped
    /// into checkpoint manifests.
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// The active execution configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Record the sources a freshly-registered query consumes in the
    /// routing table.
    fn index_query(&mut self, q: usize) {
        for (port, ty) in self.queries[q].plan.source_types.iter().enumerate() {
            let subs = self.routing.entry(ty.clone()).or_default();
            // Copy-on-write: batches already staged (and handles already
            // resolved) keep routing as of their staging time.
            Arc::make_mut(subs).push((q, port));
        }
    }

    /// Register a primitive event type.
    pub fn register_event_type(&mut self, name: &str, fields: Vec<(&str, FieldType)>) {
        self.catalog.register(EventTypeDef::new(name, fields));
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register a query from CEDR query text.
    pub fn register_query(
        &mut self,
        text: &str,
        spec: ConsistencySpec,
    ) -> Result<QueryId, EngineError> {
        let compiled = compile(text, &self.catalog, spec)?;
        Ok(self.install(RunningQuery {
            name: compiled.name,
            plan: compiled.plan,
            spec,
            explain: compiled.explain,
        }))
    }

    /// Register a programmatic plan (see [`crate::builder::PlanBuilder`]).
    pub fn register_plan(
        &mut self,
        name: &str,
        root: LogicalOp,
        spec: ConsistencySpec,
    ) -> Result<QueryId, EngineError> {
        let optimized = optimize(root);
        let plan = lower(&optimized, &self.catalog, spec)?;
        Ok(self.install(RunningQuery {
            name: name.to_string(),
            plan,
            spec,
            explain: optimized.to_string(),
        }))
    }

    /// The install tail both registrations share: append the query, route
    /// its sources to it and attach the observability hub.
    fn install(&mut self, query: RunningQuery) -> QueryId {
        self.queries.push(query);
        let q = self.queries.len() - 1;
        self.index_query(q);
        self.queries[q]
            .plan
            .dataflow
            .set_obs(Arc::clone(&self.obs), q as u16);
        QueryId(q)
    }

    /// Mint a point event `[vs, vs+1)` of a registered type with a fresh
    /// ID. `vs == u64::MAX` is [`EngineError::TimeOutOfRange`]: that tick
    /// is `∞`.
    pub fn event(
        &mut self,
        event_type: &str,
        vs: u64,
        payload: Vec<Value>,
    ) -> Result<Event, EngineError> {
        self.event_with_interval(event_type, point_interval(event_type, vs)?, payload)
    }

    /// Mint an event with an explicit validity interval.
    pub fn event_with_interval(
        &mut self,
        event_type: &str,
        interval: Interval,
        payload: Vec<Value>,
    ) -> Result<Event, EngineError> {
        let def = match self.catalog.lookup(event_type) {
            Ok(def) => def,
            Err(_) => return Err(self.unknown_type(event_type)),
        };
        validate_arity(event_type, def.fields.len(), payload.len())?;
        Ok(Event::primitive(
            self.mint_id(),
            interval,
            Payload::from_values(payload),
        ))
    }

    // ------------------------------------------------------------------
    // Sessioned ingestion: typed handles over a bounded ingress
    // ------------------------------------------------------------------

    /// Open a typed ingestion session on the named input stream that
    /// borrows the engine: a [`SourceHandle`] flushing into the bounded
    /// engine ingress ([`EngineConfig::ingress_capacity`]).
    ///
    /// Resolution happens **once**: the handle captures the event type's
    /// payload schema and its `(query, port)` subscriber list, so staging
    /// and flushing never repeat the string-keyed lookups per message.
    /// The borrow is exclusive, so the routing it resolved cannot go stale
    /// and the engine cannot be sealed while a session is open. Errors:
    /// [`EngineError::UnknownEventType`], [`EngineError::Sealed`].
    pub fn source(&mut self, event_type: &str) -> Result<SourceHandle<'_>, EngineError> {
        let (arity, subs) = self.resolve(event_type)?;
        Ok(Source::open(
            EngineTarget { engine: self },
            event_type,
            arity,
            subs,
        ))
    }

    /// Open a **concurrent** typed ingestion session on the named input
    /// stream: a [`ChannelSource`] that is `Send + Clone` and holds no
    /// engine borrow, so provider threads can feed the engine while it
    /// drains.
    ///
    /// Resolution still happens once, here: the handle carries an
    /// `Arc`-shared snapshot of the event type's `(query, port)`
    /// subscriber list and feeds a bounded mpsc ingress
    /// ([`EngineConfig::channel_depth`]) that [`Engine::pump`] /
    /// [`Engine::run_pipelined`] drain in canonical producer order.
    /// Because the snapshot is taken now, register every standing query
    /// *before* opening channel sources. Producer keys are assigned in
    /// call order — open sources in a deterministic order to make the
    /// whole ingestion schedule deterministic (see [`crate::ingest`]).
    ///
    /// Errors: [`EngineError::UnknownEventType`], [`EngineError::Sealed`].
    pub fn channel_source(&mut self, event_type: &str) -> Result<ChannelSource, EngineError> {
        let (arity, subs) = self.resolve(event_type)?;
        let depth = self.config.channel_depth;
        self.channel_acct.seen = true;
        let ch = self
            .channel
            .get_or_insert_with(|| ChannelIngress::new(depth));
        // A restore leaves the checkpointed open lanes waiting for their
        // producers to come back: reattach to those (emission cursor
        // intact, ascending key order) before minting fresh keys.
        let (key, emitted) = match ch.resume_keys.pop_front() {
            Some(resume) => resume,
            None => {
                let key = ch.next_key;
                ch.next_key += 1;
                ch.reseq.register(key);
                (key, 0)
            }
        };
        let target = ChannelTarget::new(ch, key, emitted, Arc::clone(&self.obs));
        Ok(Source::open(target, event_type, arity, subs))
    }

    /// Engine-wide ingress counters: what was staged onto and admitted
    /// from the ingress queue, and backpressure — the queue's own plus
    /// channel-source flushes that found the bounded mpsc channel full
    /// (live and retired channels both; the per-producer attribution is
    /// in [`Engine::metrics`]).
    pub fn ingress_stats(&self) -> IngressStats {
        let mut total = self.stats;
        total.backpressure_events += self.channel_backpressure_total();
        total
    }

    /// Full-channel backpressure across the live channel (if any) and
    /// every channel retired by [`Engine::seal`].
    pub(crate) fn channel_backpressure_total(&self) -> u64 {
        let live = self
            .channel
            .as_ref()
            .map(|ch| {
                ch.board
                    .backpressure
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .unwrap_or(0);
        live + self.channel_acct.retired_backpressure
    }

    /// Open an incremental subscription on a query's output change stream.
    ///
    /// The subscription cursors the query collector's append-only
    /// [`OutputDelta`](cedr_streams::OutputDelta) log from the beginning:
    /// each [`poll`](Subscription::poll) first drains any staged ingress
    /// (consumption drives the scheduler) and then returns exactly the
    /// deltas appended since the previous poll — the insert/retract/CTI
    /// change stream itself, bit-identical at every consistency level and
    /// thread count, with no state re-read and no copying. Several
    /// subscriptions may cursor the same query independently, and a
    /// sealed engine can still be drained.
    pub fn subscribe(&self, q: QueryId) -> Result<Subscription, EngineError> {
        if q.0 >= self.queries.len() {
            return Err(EngineError::UnknownQuery(q));
        }
        Ok(Subscription::new(q))
    }

    /// The output collector of a query: the delta log behind every
    /// subscription, and the history/net tables folded from it on demand.
    ///
    /// # Panics
    /// On an unregistered `QueryId` (use [`Engine::subscribe`] for a typed
    /// error).
    pub fn collector(&self, q: QueryId) -> &Collector {
        let rq = &self.queries[q.0];
        rq.plan.dataflow.collector(rq.plan.sink)
    }

    /// Stage a batch on the named input stream without draining the
    /// dataflows: one `Arc`-shared clone joins the ingress queue with the
    /// type's subscriber list. Pair with [`Engine::run_to_quiescence`] to
    /// ingest several per-type batches (one per provider stream, say) and
    /// then run every query's graph once over the union.
    ///
    /// Admission is bounded: once the ingress holds
    /// [`EngineConfig::ingress_capacity`] staged messages, this call
    /// **drains the engine first** (backpressure by blocking). Use
    /// [`Engine::try_enqueue_batch`] to get [`EngineError::IngressFull`]
    /// instead and decide for yourself.
    pub fn enqueue_batch(
        &mut self,
        event_type: &str,
        batch: &MessageBatch,
    ) -> Result<(), EngineError> {
        self.enqueue_impl(event_type, batch, true)
    }

    /// [`Engine::enqueue_batch`] with backpressure surfaced: if the batch
    /// does not fit the bounded ingress, nothing is staged and
    /// [`EngineError::IngressFull`] is returned.
    pub fn try_enqueue_batch(
        &mut self,
        event_type: &str,
        batch: &MessageBatch,
    ) -> Result<(), EngineError> {
        self.enqueue_impl(event_type, batch, false)
    }

    fn enqueue_impl(
        &mut self,
        event_type: &str,
        batch: &MessageBatch,
        block: bool,
    ) -> Result<(), EngineError> {
        let (_, subs) = self.resolve(event_type)?;
        self.admit_resolved(event_type, &mut batch.clone(), &subs, block)
    }

    /// The open-time resolution every ingestion entry point shares: the
    /// sealed check, then the event type's payload arity and its
    /// subscriber list.
    fn resolve(&self, event_type: &str) -> Result<(usize, SubscriberList), EngineError> {
        if self.sealed {
            return Err(EngineError::Sealed);
        }
        match self.catalog.lookup(event_type) {
            Ok(def) => Ok((def.fields.len(), self.resolve_subs(event_type))),
            Err(_) => Err(self.unknown_type(event_type)),
        }
    }

    /// An [`EngineError::UnknownEventType`] naming every registered type.
    fn unknown_type(&self, name: &str) -> EngineError {
        EngineError::UnknownEventType {
            name: name.to_string(),
            registered: self
                .catalog
                .type_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    /// Resolve the subscriber list of an event type (empty when no query
    /// consumes it) — the lookup every [`Source`] performs once at open
    /// time. Cloning a list is an `Arc` refcount bump.
    pub(crate) fn resolve_subs(&self, event_type: &str) -> SubscriberList {
        self.routing.get(event_type).cloned().unwrap_or_default()
    }

    /// Allocate a fresh engine-minted event ID ([`Engine::event`] and the
    /// [`SourceHandle`] builders share this counter).
    pub(crate) fn mint_id(&mut self) -> EventId {
        let id = EventId(self.next_event_id);
        self.next_event_id += 1;
        id
    }

    /// Move `batch` onto the ingress queue for its (pre-resolved)
    /// subscribers, enforcing [`EngineConfig::ingress_capacity`]. A batch
    /// larger than the capacity itself fits an *empty* queue (it could
    /// never be admitted otherwise). When the queue lacks room, either
    /// drain the whole engine first (`block`) or stage nothing, leave
    /// `batch` with the caller and return [`EngineError::IngressFull`].
    /// On success `batch` is left empty; a batch nobody subscribes to is
    /// dropped.
    pub(crate) fn admit_resolved(
        &mut self,
        event_type: &str,
        batch: &mut MessageBatch,
        subs: &SubscriberList,
        block: bool,
    ) -> Result<(), EngineError> {
        let len = batch.len();
        if len == 0 {
            return Ok(());
        }
        if subs.is_empty() {
            batch.clear();
            return Ok(());
        }
        let cap = self.config.ingress_capacity;
        if self.staged_msgs > 0 && self.staged_msgs + len > cap {
            // Blocking drains and `try_*` rejections both count.
            self.stats.backpressure_events += 1;
            self.obs.trace(|| TraceEvent::Backpressure);
            if !block {
                return Err(EngineError::IngressFull {
                    event_type: event_type.to_string(),
                    capacity: cap,
                    staged: self.staged_msgs,
                    batch: len,
                });
            }
            // Backpressure by draining: empties the ingress. The time
            // the producer spends blocked in this forced drain is the
            // flush_block histogram.
            let t0 = self.obs.now();
            self.run_to_quiescence();
            let blocked = self.obs.now().saturating_sub(t0);
            self.obs.with_timings(|t| t.flush_block.record(blocked));
        }
        // First admission since the last drain opens the ingest→delta
        // latency window (closed by `run_to_quiescence`).
        if self.round_open_at.is_none() {
            self.round_open_at = Some(self.obs.now());
        }
        self.staged_msgs += len;
        self.stats.staged_batches += 1;
        self.stats.staged_messages += len as u64;
        // Fan-out to subscribers happens at drain time.
        self.ingress.push((std::mem::take(batch), subs.clone()));
        Ok(())
    }

    /// Drain the staged ingress into the queries' dataflows and run them
    /// to quiescence — serially, or split across the configured drain
    /// workers ([`EngineConfig::threads`]). Each query always receives its
    /// batches in enqueue order, so the two modes are bit-identical.
    pub fn run_to_quiescence(&mut self) {
        let t0 = self.obs.now();
        self.obs.trace(|| TraceEvent::RoundStart {
            round: self.rounds_completed + 1,
            staged_batches: self.ingress.len().min(u32::MAX as usize) as u32,
        });
        let deltas_before = self.round_open_at.map(|_| self.deltas_logged_total());
        self.drain_round();
        let t1 = self.obs.now();
        let nanos = t1.saturating_sub(t0);
        self.obs.with_timings(|t| t.round_drain.record(nanos));
        self.obs.trace(|| TraceEvent::RoundEnd {
            round: self.rounds_completed,
            nanos,
        });
        // Ingestion→subscription-delta latency: close the window opened by
        // the first admission iff this drain appended output deltas.
        if let (Some(opened), Some(before)) = (self.round_open_at.take(), deltas_before) {
            if self.deltas_logged_total() > before {
                self.obs
                    .with_timings(|t| t.ingest_to_delta.record(t1.saturating_sub(opened)));
            }
        }
    }

    /// Total output deltas appended across every query's collector.
    fn deltas_logged_total(&self) -> u64 {
        self.queries
            .iter()
            .map(|rq| rq.plan.dataflow.collector(rq.plan.sink).delta_log().len() as u64)
            .sum()
    }

    /// The uninstrumented drain behind [`Engine::run_to_quiescence`]: take
    /// the ingress, group it into one round per query and run every
    /// query's round in query order — on the calling thread, or on one
    /// scoped worker per `q % threads` bucket when the engine is threaded
    /// and at least two buckets have input.
    fn drain_round(&mut self) {
        self.rounds_completed += 1;
        self.staged_msgs = 0;
        let ingress = std::mem::take(&mut self.ingress);
        let workers = self.config.threads.max(1);
        let mut rounds: Vec<Vec<(usize, &MessageBatch)>> =
            (0..self.queries.len()).map(|_| Vec::new()).collect();
        // Per worker: `(batches, messages)` reaching its queries, each
        // batch counted once, and the index of the last batch counted.
        let mut load = vec![(0usize, 0u64, usize::MAX); workers];
        for (i, (batch, subs)) in ingress.iter().enumerate() {
            let len = batch.len() as u64;
            self.stats.admitted_batches += 1;
            self.stats.admitted_messages += len;
            for &(q, port) in subs.iter() {
                rounds[q].push((port, batch));
                let w = &mut load[q % workers];
                if w.2 != i {
                    *w = (w.0 + 1, w.1 + len, i);
                }
            }
        }
        let hub = &self.obs;
        if load.iter().filter(|w| w.0 > 0).count() <= 1 {
            // One ShardDrain for the whole serial sweep, by convention on
            // worker 0 (the histogram stays parallel-path only).
            let t0 = hub.tracing().then(|| hub.now());
            for (rq, round) in self.queries.iter_mut().zip(rounds) {
                rq.plan.dataflow.run_round(round);
            }
            if let Some(t0) = t0 {
                let messages = ingress.iter().map(|(b, _)| b.len() as u64).sum();
                let nanos = hub.now().saturating_sub(t0);
                trace_drain(hub, 0, ingress.len(), messages, nanos);
            }
            return;
        }
        let mut buckets: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
        for (q, item) in self.queries.iter_mut().zip(rounds).enumerate() {
            buckets[q % workers].push(item);
        }
        std::thread::scope(|scope| {
            for (w, (bucket, (batches, messages, _))) in buckets.into_iter().zip(load).enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                scope.spawn(move || {
                    let t0 = hub.now();
                    for (rq, round) in bucket {
                        rq.plan.dataflow.run_round(round);
                    }
                    let nanos = hub.now().saturating_sub(t0);
                    hub.with_timings(|t| t.shard_drain.record(nanos));
                    trace_drain(hub, w, batches, messages, nanos);
                });
            }
        });
    }

    /// Declare a guarantee on *all* registered event types (a provider-wide
    /// sync point). Staged through the batch path: every input's CTI is
    /// enqueued first, then all dataflows drain once. Errors with
    /// [`EngineError::Sealed`] once the engine is sealed.
    pub fn advance_all(&mut self, t: TimePoint) -> Result<(), EngineError> {
        if self.sealed {
            return Err(EngineError::Sealed);
        }
        self.broadcast_cti(t);
        Ok(())
    }

    fn broadcast_cti(&mut self, t: TimePoint) {
        let types: Vec<String> = self
            .catalog
            .type_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut cti = MessageBatch::new();
        cti.push_cti(t);
        for ty in types {
            let subs = self.resolve_subs(&ty);
            let _ = self.admit_resolved(&ty, &mut cti.clone(), &subs, true);
        }
        self.run_to_quiescence();
    }

    /// Seal every input with `CTI(∞)` — no more data will arrive.
    ///
    /// Sealing is **idempotent**: the guarantee is broadcast once, and
    /// repeated calls are no-ops rather than fresh `CTI(∞)` rounds. After
    /// sealing, every ingestion entry point ([`Engine::source`],
    /// [`Engine::enqueue_batch`], [`Engine::advance_all`]) returns
    /// [`EngineError::Sealed`]; subscriptions keep draining normally.
    ///
    /// The channel ingress is **torn down**: live [`ChannelSource`]s are
    /// disconnected, so a provider blocked on a full channel unblocks
    /// immediately and every later `flush`/`try_flush` quietly discards
    /// (there is nothing left to feed — no thread can be stranded by a
    /// shutdown). Anything those sources had emitted but the pump had not
    /// yet admitted is dropped with the channel; drain first with
    /// [`Engine::run_pipelined`] when that traffic matters.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.broadcast_cti(TimePoint::INFINITY);
        self.sealed = true;
        self.obs.trace(|| TraceEvent::Seal {
            round: self.rounds_completed,
        });
        // Dropping the ingress (its receiver in particular) is what turns
        // provider-side sends into no-ops. Its backpressure counters are
        // retired into the engine-side channel accounting — per-producer
        // attribution intact — so `ingress_stats` (and the metrics
        // snapshot) stay monotone across the seal.
        if let Some(ch) = self.channel.take() {
            self.channel_acct.retire(
                ch.board
                    .backpressure
                    .load(std::sync::atomic::Ordering::Relaxed),
                ch.board.backpressure_by_producer(),
            );
        }
    }

    /// Has [`Engine::seal`] run?
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Plan-wide runtime statistics of a query (Figure-8 observables).
    pub fn stats(&self, q: QueryId) -> OpStats {
        self.queries[q.0].plan.dataflow.total_stats()
    }

    /// Per-node statistics `(name, stats)` in plan order.
    pub fn node_stats(&self, q: QueryId) -> Vec<(&'static str, OpStats)> {
        let df = &self.queries[q.0].plan.dataflow;
        (0..df.node_count())
            .map(|n| (df.node_name(n), df.stats(n).clone()))
            .collect()
    }

    /// The optimized logical plan, rendered.
    pub fn explain(&self, q: QueryId) -> &str {
        &self.queries[q.0].explain
    }

    pub fn query_name(&self, q: QueryId) -> &str {
        &self.queries[q.0].name
    }

    pub fn query_spec(&self, q: QueryId) -> ConsistencySpec {
        self.queries[q.0].spec
    }

    pub fn query_count(&self) -> usize {
        self.queries.len()
    }
}

/// Record one drain worker's sweep (see [`TraceEvent::ShardDrain`]).
fn trace_drain(hub: &ObsHub, worker: usize, batches: usize, messages: u64, nanos: u64) {
    hub.trace(|| TraceEvent::ShardDrain {
        shard: worker.min(u16::MAX as usize) as u16,
        batches: batches.min(u32::MAX as usize) as u32,
        messages: messages.min(u32::MAX as u64) as u32,
        nanos,
    });
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_streams::Message;
    use cedr_temporal::time::t;

    fn machine_engine() -> Engine {
        let mut e = Engine::new();
        for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
            e.register_event_type(ty, vec![("Machine_Id", FieldType::Str)]);
        }
        e
    }

    #[test]
    fn register_and_run_text_query() {
        let mut e = machine_engine();
        let q = e
            .register_query(cedr_lang::parser::CIDR07_EXAMPLE, ConsistencySpec::middle())
            .unwrap();
        assert_eq!(e.query_name(q), "CIDR07_Example");
        assert!(e.explain(q).contains("Unless"));

        let mut installs = e.source("INSTALL").unwrap();
        installs.insert(100, vec![Value::str("m1")]).unwrap();
        drop(installs);
        let mut shutdowns = e.source("SHUTDOWN").unwrap();
        shutdowns.insert(200, vec![Value::str("m1")]).unwrap();
        drop(shutdowns);
        e.seal();
        assert_eq!(e.collector(q).stats().inserts, 1);
    }

    #[test]
    fn multiple_queries_share_inputs_independently() {
        let mut e = machine_engine();
        let q_strong = e
            .register_query(
                "EVENT A WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 1 hours)",
                ConsistencySpec::strong(),
            )
            .unwrap();
        let q_middle = e
            .register_query(
                "EVENT B WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 1 hours)",
                ConsistencySpec::middle(),
            )
            .unwrap();
        let mut installs = e.source("INSTALL").unwrap();
        assert_eq!(installs.subscriber_count(), 2, "both queries subscribe");
        installs.insert(10, vec![Value::str("m")]).unwrap();
        drop(installs);
        e.source("SHUTDOWN")
            .unwrap()
            .insert(20, vec![Value::str("m")])
            .unwrap();
        e.seal();
        assert_eq!(e.collector(q_strong).stats().inserts, 1);
        assert_eq!(e.collector(q_middle).stats().inserts, 1);
        assert_eq!(
            e.query_spec(q_strong).level(),
            cedr_runtime::ConsistencyLevel::Strong
        );
    }

    #[test]
    fn event_minting_validates() {
        let mut e = machine_engine();
        assert!(matches!(
            e.event("NOPE", 0, vec![]),
            Err(EngineError::UnknownEventType { .. })
        ));
        assert!(matches!(
            e.event("INSTALL", 0, vec![]),
            Err(EngineError::PayloadArity { .. })
        ));
        let ev1 = e.event("INSTALL", 0, vec![Value::str("m")]).unwrap();
        let ev2 = e.event("INSTALL", 0, vec![Value::str("m")]).unwrap();
        assert_ne!(ev1.id, ev2.id, "fresh IDs");
    }

    #[test]
    fn unknown_type_error_names_the_registered_types() {
        let mut e = machine_engine();
        let err = e.source("NOPE").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'NOPE'"), "{msg}");
        for ty in ["INSTALL", "RESTART", "SHUTDOWN"] {
            assert!(msg.contains(ty), "{msg} should list {ty}");
        }
        let empty = Engine::new().source("X").unwrap_err().to_string();
        assert!(empty.contains("no types registered"), "{empty}");
    }

    #[test]
    fn sealed_engine_rejects_ingestion_and_seal_is_idempotent() {
        let mut e = machine_engine();
        let q = e
            .register_query(
                "EVENT A WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 1 hours)",
                ConsistencySpec::middle(),
            )
            .unwrap();
        e.source("INSTALL")
            .unwrap()
            .insert(10, vec![Value::str("m")])
            .unwrap();
        e.seal();
        assert!(e.is_sealed());
        let ctis_after_first_seal = e.collector(q).stats().ctis;

        // Idempotent: a second seal must not re-broadcast CTI(∞)...
        e.seal();
        assert_eq!(e.collector(q).stats().ctis, ctis_after_first_seal);
        // ...and every ingestion entry point is a typed error now.
        assert!(matches!(e.source("INSTALL"), Err(EngineError::Sealed)));
        assert!(matches!(
            e.enqueue_batch("INSTALL", &MessageBatch::new()),
            Err(EngineError::Sealed)
        ));
        assert!(matches!(e.advance_all(t(99)), Err(EngineError::Sealed)));
        // Consumption still works on a sealed engine.
        let mut sub = e.subscribe(q).unwrap();
        assert!(!sub.poll(&mut e).is_empty());
    }

    #[test]
    fn subscribe_validates_the_query() {
        let e = machine_engine();
        assert!(matches!(
            e.subscribe(QueryId(3)),
            Err(EngineError::UnknownQuery(QueryId(3)))
        ));
    }

    #[test]
    fn try_flush_surfaces_ingress_backpressure() {
        let mut e = Engine::with_config(EngineConfig::serial().with_ingress_capacity(8));
        e.register_event_type("T", vec![("v", FieldType::Int)]);
        let plan = {
            use crate::builder::PlanBuilder;
            use cedr_algebra::expr::Pred;
            PlanBuilder::source("T").select(Pred::True).into_plan()
        };
        let q = e
            .register_plan("q", plan, ConsistencySpec::middle())
            .unwrap();
        let mut sub = e.subscribe(q).unwrap();

        let mut h = e.source("T").unwrap().manual_flush();
        for i in 0..6u64 {
            h.insert(i, vec![Value::Int(i as i64)]).unwrap();
        }
        h.try_flush().unwrap();
        for i in 6..12u64 {
            h.insert(i, vec![Value::Int(i as i64)]).unwrap();
        }
        // 6 staged + 6 incoming > 8: backpressure.
        let err = h.try_flush().unwrap_err();
        assert!(matches!(err, EngineError::IngressFull { .. }));
        assert!(err.to_string().contains("ingress full"), "{err}");
        assert_eq!(h.staged_len(), 6, "failed try_flush must not lose data");
        // The blocking flush drains the engine and admits.
        h.flush();
        assert_eq!(h.staged_len(), 0);
        drop(h);
        assert_eq!(sub.poll(&mut e).len(), 12, "all 12 inserts observed");
    }

    #[test]
    fn oversized_batch_admitted_alone_into_empty_ingress() {
        let mut e = Engine::with_config(EngineConfig::serial().with_ingress_capacity(4));
        e.register_event_type("T", vec![("v", FieldType::Int)]);
        let plan = {
            use crate::builder::PlanBuilder;
            use cedr_algebra::expr::Pred;
            PlanBuilder::source("T").select(Pred::True).into_plan()
        };
        let q = e
            .register_plan("q", plan, ConsistencySpec::middle())
            .unwrap();
        let mut h = e.source("T").unwrap().manual_flush();
        for i in 0..10u64 {
            h.insert(i, vec![Value::Int(i as i64)]).unwrap();
        }
        h.try_flush()
            .expect("an empty ingress admits one oversized batch");
        drop(h);
        e.run_to_quiescence();
        assert_eq!(e.collector(q).stats().inserts, 10);
    }

    #[test]
    fn handle_autoflush_bounds_local_staging() {
        let mut e = Engine::new();
        e.register_event_type("T", vec![("v", FieldType::Int)]);
        let plan = {
            use crate::builder::PlanBuilder;
            use cedr_algebra::expr::Pred;
            PlanBuilder::source("T").select(Pred::True).into_plan()
        };
        let q = e
            .register_plan("q", plan, ConsistencySpec::middle())
            .unwrap();
        let mut h = e.source("T").unwrap().with_autoflush(4);
        for i in 0..9u64 {
            h.insert(i, vec![Value::Int(i as i64)]).unwrap();
            assert!(h.staged_len() < 4, "autoflush keeps staging bounded");
        }
        h.sync();
        drop(h);
        assert_eq!(e.collector(q).stats().inserts, 9);
    }

    #[test]
    fn send_after_enqueue_drains_staged_ingress_first() {
        use crate::builder::PlanBuilder;
        use cedr_algebra::expr::Pred;
        // A direct send (here: a CTI) must never overtake batches that
        // were staged before it — the guarantee would otherwise reach the
        // shells ahead of the data it covers.
        let build = || {
            let mut e = Engine::with_config(EngineConfig::threaded(2));
            e.register_event_type("T", vec![("v", FieldType::Int)]);
            let plan = PlanBuilder::source("T").select(Pred::True).into_plan();
            let q = e
                .register_plan("q", plan, ConsistencySpec::strong())
                .unwrap();
            let mut batch = MessageBatch::new();
            for i in 0..10u64 {
                batch.push(Message::insert(
                    i + 1,
                    Interval::new(t(i), t(i + 3)),
                    cedr_temporal::Payload::from_values(vec![Value::Int(i as i64)]),
                ));
            }
            (e, q, batch)
        };
        // Reference: explicit drain between staging and the CTI.
        let (mut a, qa, batch) = build();
        a.enqueue_batch("T", &batch).unwrap();
        a.run_to_quiescence();
        a.source("T").unwrap().send(Message::Cti(t(100)));
        // Same calls without the explicit drain: send must flush first.
        let (mut b, qb, batch) = build();
        b.enqueue_batch("T", &batch).unwrap();
        b.source("T").unwrap().send(Message::Cti(t(100)));
        assert_eq!(a.collector(qa).delta_log(), b.collector(qb).delta_log());
    }

    #[test]
    fn send_runs_a_counted_round_through_the_ingress() {
        use crate::builder::PlanBuilder;
        use cedr_algebra::expr::Pred;
        const N: u64 = 5;
        let mut e = Engine::with_config(EngineConfig::serial());
        e.register_event_type("T", vec![("v", FieldType::Int)]);
        e.register_event_type("U", vec![("v", FieldType::Int)]);
        let plan = PlanBuilder::source("T").select(Pred::True).into_plan();
        let q = e
            .register_plan("q", plan, ConsistencySpec::middle())
            .unwrap();
        let (before, rounds) = (e.ingress_stats(), e.rounds_completed());
        for i in 0..N {
            let ev = e.event("T", i, vec![Value::Int(i as i64)]).unwrap();
            e.source("T").unwrap().send(Message::insert_event(ev));
        }
        let after = e.ingress_stats();
        assert_eq!(after.admitted_batches - before.admitted_batches, N);
        assert_eq!(after.admitted_messages - before.admitted_messages, N);
        assert_eq!(e.rounds_completed() - rounds, N, "one round per send");
        assert_eq!(e.collector(q).stats().inserts, N as usize);
        assert!(e.metrics().timings.ingest_to_delta.count() > 0);
        // Nothing reads U: its send runs no round and admits nothing.
        let ev = e.event("U", 9, vec![Value::Int(9)]).unwrap();
        e.source("U").unwrap().send(Message::insert_event(ev));
        assert_eq!(e.rounds_completed() - rounds, N);
        assert_eq!(e.ingress_stats(), after);
    }

    #[test]
    fn threaded_drain_is_bit_identical_to_serial() {
        let run = |threads: usize| {
            let mut e = Engine::with_config(EngineConfig::threaded(threads));
            for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
                e.register_event_type(ty, vec![("Machine_Id", FieldType::Str)]);
            }
            let mut qs = Vec::new();
            for i in 0..5 {
                qs.push(
                    e.register_query(
                        &format!("EVENT Q{i} WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 1 hours)"),
                        ConsistencySpec::middle(),
                    )
                    .unwrap(),
                );
            }
            let mut installs = e.source("INSTALL").unwrap();
            for i in 0..20u64 {
                installs
                    .insert(10 * i, vec![Value::str(format!("m{}", i % 4))])
                    .unwrap();
            }
            drop(installs);
            let mut shutdowns = e.source("SHUTDOWN").unwrap();
            for i in 0..20u64 {
                shutdowns
                    .insert(10 * i + 5, vec![Value::str(format!("m{}", i % 4))])
                    .unwrap();
            }
            drop(shutdowns);
            e.run_to_quiescence();
            e.seal();
            (e, qs)
        };
        let (serial, qs) = run(1);
        for threads in [2, 4] {
            let (par, qp) = run(threads);
            for (a, b) in qs.iter().zip(qp.iter()) {
                assert_eq!(
                    serial.collector(*a).delta_log(),
                    par.collector(*b).delta_log(),
                    "threads={threads}: output diverged"
                );
                // A subscription drains that same log.
                let (mut sa, mut sb) = (serial.subscribe(*a).unwrap(), par.subscribe(*b).unwrap());
                assert_eq!(
                    sa.drain_ready(&serial),
                    sb.drain_ready(&par),
                    "threads={threads}: subscription deltas diverged"
                );
                assert_eq!(serial.stats(*a), par.stats(*b));
            }
        }
    }
}
