//! [`Engine::metrics`] — the unified [`MetricsSnapshot`] assembly.
//!
//! This module only *reads*: it converts the engine's live counters
//! (per-query collector stats, channel pump state, checkpoint
//! accounting) and the [`ObsHub`](cedr_obs::ObsHub)'s histograms/trace
//! ring into the plain [`cedr_obs`] snapshot types. Per-node operator
//! stats and ingress counters need no conversion: the shells count
//! straight into [`cedr_obs::OpStats`], the ingress queue into
//! [`cedr_obs::IngressCounters`].
//! Rendering lives in `cedr_obs` (see
//! [`MetricsSnapshot::render_prometheus`] /
//! [`MetricsSnapshot::render_report`]); the determinism taxonomy the
//! snapshot obeys is documented in [`cedr_obs::snapshot`] and in the
//! Observability section of [`crate::engine`].

use crate::engine::Engine;
use cedr_obs::{
    ChannelCounters, CounterSnapshot, MetricsSnapshot, NodeCounters, ObsClock, QueryCounters,
    TraceEvent,
};
use std::sync::Arc;

impl Engine {
    /// One unified snapshot of everything the engine can observe —
    /// counters (semantic + execution classes), the latency histograms
    /// and the trace-ring occupancy. Plain data: diff it, store it, or
    /// render it with
    /// [`render_prometheus`](MetricsSnapshot::render_prometheus) /
    /// [`render_report`](MetricsSnapshot::render_report).
    ///
    /// Taking a snapshot never disturbs execution and is safe at any
    /// point (mid-round counters are simply the counts so far). Consumer
    /// cursors are not engine state; attach them afterwards with
    /// [`MetricsSnapshot::record_subscription`] (or
    /// [`Subscription::observe`](crate::Subscription::observe)).
    pub fn metrics(&self) -> MetricsSnapshot {
        let queries = (0..self.queries.len())
            .map(|i| {
                let rq = &self.queries[i];
                let df = &rq.plan.dataflow;
                let col = df.collector(rq.plan.sink);
                let st = col.stats();
                QueryCounters {
                    index: i as u64,
                    name: rq.name.clone(),
                    consistency: format!("{:?}", rq.spec),
                    inserts: st.inserts as u64,
                    retractions: st.retractions as u64,
                    full_removals: st.full_removals as u64,
                    ctis: st.ctis as u64,
                    data_messages: st.data_messages as u64,
                    deltas_logged: col.delta_log().len() as u64,
                    output_cti: col.max_cti().map(|t| t.0),
                    total: df.total_stats(),
                    nodes: (0..df.node_count())
                        .map(|n| NodeCounters {
                            name: format!("{n}:{}", df.node_name(n)),
                            stats: df.stats(n).clone(),
                        })
                        .collect(),
                    subscriptions: Vec::new(),
                }
            })
            .collect();

        // The channel block is present whenever a channel ingress exists
        // or ever existed (seal tears the channel down but the semantic
        // totals and retired backpressure live on in `channel_acct`).
        let acct = &self.channel_acct;
        let channel = (self.channel.is_some() || acct.seen).then(|| {
            let mut by_producer = acct.retired_by_producer.clone();
            let (open_producers, buffered_batches, waiting_on, rounds_stalled) =
                match self.channel.as_ref() {
                    None => (0, 0, None, 0),
                    Some(ch) => {
                        for (key, n) in ch.board.backpressure_by_producer() {
                            match by_producer.binary_search_by_key(&key, |&(k, _)| k) {
                                Ok(i) => by_producer[i].1 += n,
                                Err(i) => by_producer.insert(i, (key, n)),
                            }
                        }
                        (
                            ch.reseq.open_lanes() as u64,
                            ch.reseq.buffered() as u64,
                            ch.stalled_on,
                            ch.stalled_rounds,
                        )
                    }
                };
            ChannelCounters {
                open_producers,
                buffered_batches,
                waiting_on,
                rounds_stalled,
                rounds_admitted: acct.rounds,
                batches_admitted: acct.batches,
                messages_admitted: acct.messages,
                backpressure_total: self.channel_backpressure_total(),
                backpressure_by_producer: by_producer,
            }
        });

        MetricsSnapshot {
            counters: CounterSnapshot {
                rounds_completed: self.rounds_completed,
                sealed: self.sealed,
                threads: self.config.threads as u64,
                queries,
                ingress_total: self.ingress_stats(),
                channel,
                checkpoints: self.ckpt,
            },
            timings: self.obs.timings(),
            trace: self.obs.trace_stats(),
        }
    }

    /// Swap the observability clock (see [`cedr_obs::ObsClock`]). Tests
    /// inject a [`cedr_obs::ManualClock`] here to make every timing
    /// histogram deterministic; counters never read the clock at all.
    pub fn set_obs_clock(&self, clock: Arc<dyn ObsClock>) {
        self.obs.set_clock(clock);
    }

    /// The buffered window of structured trace events, oldest first.
    /// Empty unless tracing is enabled
    /// ([`EngineConfig::trace_capacity`](crate::EngineConfig::trace_capacity)
    /// / `CEDR_TRACE`).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.obs.trace_events()
    }

    /// Is the structured trace ring enabled?
    pub fn tracing(&self) -> bool {
        self.obs.tracing()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::PlanBuilder;
    use crate::engine::{Engine, EngineConfig};
    use cedr_algebra::expr::Pred;
    use cedr_lang::catalog::FieldType;
    use cedr_obs::{ManualClock, TraceEvent};
    use cedr_runtime::ConsistencySpec;
    use cedr_temporal::Value;
    use std::sync::Arc;

    fn engine(config: EngineConfig) -> (Engine, crate::QueryId) {
        let mut e = Engine::with_config(config);
        e.register_event_type("T", vec![("v", FieldType::Int)]);
        let plan = PlanBuilder::source("T").select(Pred::True).into_plan();
        let q = e
            .register_plan("q", plan, ConsistencySpec::middle())
            .unwrap();
        (e, q)
    }

    #[test]
    fn metrics_unify_query_ingress_and_round_counters() {
        let (mut e, q) = engine(EngineConfig::serial());
        let mut src = e.source("T").unwrap();
        for i in 0..5u64 {
            src.insert(i, vec![Value::Int(i as i64)]).unwrap();
        }
        drop(src);
        e.seal();
        let snap = e.metrics();
        assert_eq!(snap.counters.rounds_completed, e.rounds_completed());
        assert!(snap.counters.sealed);
        let qc = &snap.counters.queries[0];
        assert_eq!(qc.inserts, e.collector(q).stats().inserts as u64);
        assert_eq!(qc.deltas_logged, e.collector(q).delta_log().len() as u64);
        assert!(!qc.nodes.is_empty(), "per-node counters present");
        assert_eq!(
            qc.total.out_inserts,
            e.stats(q).out_inserts,
            "snapshot totals mirror Engine::stats"
        );
        assert_eq!(snap.counters.ingress_total, e.ingress_stats());
        // Five inserts plus the seal's CTI(∞), each staged once.
        assert_eq!(snap.counters.ingress_total.staged_messages, 6);
        assert!(snap.counters.channel.is_none(), "no channel ever existed");
    }

    #[test]
    fn channel_metrics_survive_seal_with_producer_attribution() {
        let (mut e, _q) = engine(EngineConfig::serial().with_channel_depth(1));
        let mut src = e.channel_source("T").unwrap().manual_flush();
        let key = src.producer_key();
        // Fill the depth-1 channel, then overflow it via the try path.
        src.insert(0, vec![Value::Int(0)]).unwrap();
        src.try_flush().unwrap();
        src.insert(1, vec![Value::Int(1)]).unwrap();
        src.try_flush().unwrap_err();
        e.pump().unwrap();
        src.try_flush().unwrap();
        drop(src);
        e.run_pipelined().unwrap();
        let live = e.metrics();
        let ch = live.counters.channel.as_ref().expect("channel present");
        assert_eq!(ch.backpressure_by_producer, vec![(key, 1)]);
        assert_eq!(ch.backpressure_total, 1);
        assert_eq!(ch.messages_admitted, 2);
        e.seal();
        let sealed = e.metrics();
        let ch = sealed.counters.channel.as_ref().expect("block survives");
        assert_eq!(
            ch.backpressure_by_producer,
            vec![(key, 1)],
            "attribution survives the channel teardown at seal"
        );
        assert_eq!(sealed.counters.ingress_total.backpressure_events, 1);
        assert_eq!(
            e.stats.backpressure_events, 0,
            "channel backpressure is not attributed to the engine ingress"
        );
    }

    #[test]
    fn manual_clock_drives_timings_without_touching_counters() {
        let (mut e, _q) = engine(EngineConfig::serial());
        let clock = Arc::new(ManualClock::new());
        e.set_obs_clock(clock.clone());
        clock.set(1_000);
        let mut src = e.source("T").unwrap();
        src.insert(1, vec![Value::Int(1)]).unwrap();
        drop(src);
        clock.advance(500);
        e.run_to_quiescence();
        let snap = e.metrics();
        assert_eq!(snap.timings.round_drain.max(), 0, "clock froze mid-round");
        assert!(
            snap.timings.ingest_to_delta.count() >= 1,
            "admission→delta window closed"
        );
        assert_eq!(snap.counters.queries[0].inserts, 1, "counters clock-free");
    }

    #[test]
    fn trace_ring_records_round_lifecycle_when_enabled() {
        let (mut e, _q) = engine(EngineConfig::serial().with_trace_capacity(64));
        assert!(e.tracing());
        let mut src = e.source("T").unwrap();
        src.insert(1, vec![Value::Int(1)]).unwrap();
        drop(src);
        e.seal();
        let events = e.trace_events();
        assert!(events
            .iter()
            .any(|ev| matches!(ev, TraceEvent::RoundStart { .. })));
        assert!(events
            .iter()
            .any(|ev| matches!(ev, TraceEvent::RoundEnd { .. })));
        assert!(events
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Seal { .. })));
        // Capacity 0 disables the ring regardless of `CEDR_TRACE` (the
        // test suite runs under a CEDR_TRACE=1 CI leg).
        let (mut e2, _) = engine(EngineConfig::serial().with_trace_capacity(0));
        assert!(!e2.tracing(), "capacity 0 disables tracing");
        e2.seal();
        assert!(e2.trace_events().is_empty());
        assert_eq!(e2.metrics().trace.recorded, 0);
    }
}
