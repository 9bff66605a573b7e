//! The typed metrics snapshot returned by `Engine::metrics()`.
//!
//! One [`MetricsSnapshot`] unifies everything the engine can observe:
//! per-query / per-node operator counters (the shells' own [`OpStats`],
//! cloned, not converted), engine ingress counters, channel pump and
//! resequencer state, checkpoint accounting, the latency histograms and
//! trace-ring occupancy. The struct is plain data — no engine references
//! — so callers can diff, store or render it freely.
//!
//! # Determinism classes
//!
//! Fields fall into three classes, and the split is load-bearing for the
//! engine's bit-identity contract:
//!
//! 1. **Semantic counters** ([`CounterSnapshot::semantic`]) — what the
//!    logical workload alone decides: collector output counts, delta-log
//!    lengths, output CTIs, rounds completed, pump admission totals,
//!    checkpoint/restore counts.
//! 2. **Execution counters** (the rest of [`CounterSnapshot`]) — exact
//!    and replayable for a *fixed* configuration, but configuration-
//!    dependent: ingress backpressure varies with the ingress capacity,
//!    channel backpressure depends on producer/consumer timing, and the
//!    thread gauge reports the worker count. Nothing else varies with the
//!    worker count — per-node operator stats included: the engine has one
//!    ingress queue, and workers only split its drain.
//! 3. **Timing metrics** ([`MetricsSnapshot::timings`]) — wall-clock
//!    histograms behind the [`crate::ObsClock`] seam; never compared for
//!    equality.

use crate::hub::Timings;
use crate::stats::OpStats;

/// One dataflow node's counters, labelled with its graph name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    pub name: String,
    pub stats: OpStats,
}

/// A consumer cursor observed against a query's delta log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubscriptionLag {
    pub label: String,
    /// The cursor's position in the delta log.
    pub position: u64,
    /// `deltas_logged - position`: deltas appended but not yet taken.
    pub lag: u64,
}

/// One standing query's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Registration index (stable across runs).
    pub index: u64,
    pub name: String,
    /// Debug rendering of the query's consistency spec.
    pub consistency: String,
    /// Collector output counts (semantic: inserts + retractions + CTIs
    /// actually emitted to the subscriber-visible stream).
    pub inserts: u64,
    pub retractions: u64,
    pub full_removals: u64,
    pub ctis: u64,
    pub data_messages: u64,
    /// Length of the append-only output delta log.
    pub deltas_logged: u64,
    /// Highest CTI observed on the output (`None` before the first CTI).
    pub output_cti: Option<u64>,
    /// Operator counters folded over the whole dataflow
    /// ([`OpStats::absorb`]).
    pub total: OpStats,
    /// Per-node operator counters in topological order.
    pub nodes: Vec<NodeCounters>,
    /// Consumer cursors registered via
    /// [`MetricsSnapshot::record_subscription`].
    pub subscriptions: Vec<SubscriptionLag>,
}

/// Ingress observability: what was staged onto the engine's bounded
/// ingress queue, what the drains admitted into dataflows, and how often
/// admission hit the capacity bound. The engine counts into this struct
/// directly (`cedr_core::IngressStats` is a re-export).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngressCounters {
    /// Batches staged onto the ingress queue.
    pub staged_batches: u64,
    /// Messages inside those batches.
    pub staged_messages: u64,
    /// Batches drained from the ingress into dataflows.
    pub admitted_batches: u64,
    /// Messages delivered by those drains.
    pub admitted_messages: u64,
    /// Times admission found the ingress at capacity (blocking drains and
    /// `try_*` rejections both count).
    pub backpressure_events: u64,
}

/// Channel ingress (pump + resequencer) state and totals. Present only
/// when the engine has a channel source attached (or had one at seal).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Producer handles currently alive.
    pub open_producers: u64,
    /// Rounds buffered in the resequencer, not yet admissible.
    pub buffered_batches: u64,
    /// Producer key blocking resequenced admission, if stalled.
    pub waiting_on: Option<u64>,
    /// Consecutive pump passes spent in that stall.
    pub rounds_stalled: u64,
    /// Cumulative rounds admitted through the pump (semantic).
    pub rounds_admitted: u64,
    /// Cumulative batches admitted through the pump (semantic).
    pub batches_admitted: u64,
    /// Cumulative messages admitted through the pump (semantic).
    pub messages_admitted: u64,
    /// Full-channel events across all producers.
    pub backpressure_total: u64,
    /// Full-channel events per producer key, sorted by key — the
    /// per-origin attribution of `backpressure_total`.
    pub backpressure_by_producer: Vec<(u64, u64)>,
}

/// Checkpoint/restore accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub restores: u64,
    pub restore_bytes: u64,
}

/// Trace-ring occupancy at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    pub capacity: u64,
    pub recorded: u64,
    pub dropped: u64,
    pub buffered: u64,
}

/// Every counter-class metric the engine exposes (classes 1 and 2 of the
/// module-level taxonomy).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Completed `run_to_quiescence` rounds (semantic).
    pub rounds_completed: u64,
    pub sealed: bool,
    /// Worker thread count of the configuration that produced this
    /// snapshot (execution context, not semantic).
    pub threads: u64,
    pub queries: Vec<QueryCounters>,
    /// Engine ingress counters, with channel backpressure folded into
    /// `backpressure_events`.
    pub ingress_total: IngressCounters,
    pub channel: Option<ChannelCounters>,
    pub checkpoints: CheckpointCounters,
}

/// The mode-invariant projection of one query (see
/// [`CounterSnapshot::semantic`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SemanticQuery {
    pub name: String,
    pub consistency: String,
    pub inserts: u64,
    pub retractions: u64,
    pub full_removals: u64,
    pub ctis: u64,
    pub data_messages: u64,
    pub deltas_logged: u64,
    pub output_cti: Option<u64>,
}

/// The mode-invariant projection of the channel pump.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SemanticChannel {
    pub rounds_admitted: u64,
    pub batches_admitted: u64,
    pub messages_admitted: u64,
}

/// The subset of [`CounterSnapshot`] that is **bit-identical across
/// `CEDR_THREADS` worker counts** for the same logical workload. Pinned
/// by `tests/metrics_determinism.rs`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SemanticCounters {
    pub rounds_completed: u64,
    pub sealed: bool,
    pub queries: Vec<SemanticQuery>,
    pub channel: Option<SemanticChannel>,
    pub checkpoints: u64,
    pub restores: u64,
}

impl CounterSnapshot {
    /// Project the semantic (mode-invariant) counters; see the module
    /// docs for the taxonomy.
    pub fn semantic(&self) -> SemanticCounters {
        SemanticCounters {
            rounds_completed: self.rounds_completed,
            sealed: self.sealed,
            queries: self
                .queries
                .iter()
                .map(|q| SemanticQuery {
                    name: q.name.clone(),
                    consistency: q.consistency.clone(),
                    inserts: q.inserts,
                    retractions: q.retractions,
                    full_removals: q.full_removals,
                    ctis: q.ctis,
                    data_messages: q.data_messages,
                    deltas_logged: q.deltas_logged,
                    output_cti: q.output_cti,
                })
                .collect(),
            channel: self.channel.as_ref().map(|c| SemanticChannel {
                rounds_admitted: c.rounds_admitted,
                batches_admitted: c.batches_admitted,
                messages_admitted: c.messages_admitted,
            }),
            checkpoints: self.checkpoints.checkpoints,
            restores: self.checkpoints.restores,
        }
    }
}

/// The unified snapshot: counters + timings + trace occupancy.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: CounterSnapshot,
    pub timings: Timings,
    pub trace: TraceStats,
}

impl MetricsSnapshot {
    /// Shorthand for [`CounterSnapshot::semantic`].
    pub fn semantic(&self) -> SemanticCounters {
        self.counters.semantic()
    }

    /// Record a consumer cursor against query `index` so the exposition
    /// can show subscription lag. `position` is the cursor's delta-log
    /// position; lag is computed against `deltas_logged`. No-op when
    /// `index` is out of range.
    pub fn record_subscription(&mut self, index: usize, label: &str, position: u64) {
        if let Some(q) = self.counters.queries.get_mut(index) {
            q.subscriptions.push(SubscriptionLag {
                label: label.to_string(),
                position,
                lag: q.deltas_logged.saturating_sub(position),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.rounds_completed = 7;
        snap.counters.queries.push(QueryCounters {
            index: 0,
            name: "q".into(),
            consistency: "Strong".into(),
            inserts: 10,
            deltas_logged: 12,
            ..Default::default()
        });
        snap
    }

    #[test]
    fn semantic_projection_drops_execution_counters() {
        let mut a = sample();
        let mut b = sample();
        // Execution-class divergence: ingress, thread gauge and node
        // stats must not affect the semantic view.
        a.counters.threads = 1;
        a.counters.ingress_total.backpressure_events = 5;
        b.counters.threads = 4;
        b.counters.queries[0].total.batches = 3;
        assert_eq!(a.semantic(), b.semantic());
    }

    #[test]
    fn subscription_lag_is_deltas_minus_position() {
        let mut snap = sample();
        snap.record_subscription(0, "dashboard", 9);
        snap.record_subscription(42, "out-of-range", 0);
        let subs = &snap.counters.queries[0].subscriptions;
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].lag, 3);
    }
}
