//! Per-layer replays: the rounds the pipelined run was fed, pushed through
//! each layer's public functions in isolation.
//!
//! A replay times one layer with nothing else running: the resequencer
//! alone, each operator family's lowered dataflow alone, the collector
//! alone, and the whole engine without channel or second thread (the
//! single-threaded baseline). Together with the spans of the traced run
//! they say where a message's time goes.

use crate::catalog::{self, QueryDef, FAMILIES};
use crate::drive::build_engine;
use cedr_core::prelude::*;
use cedr_lang::{lower_with, optimize, LoweredPlan};
use cedr_streams::{Resequencer, RoundStatus};
use cedr_workload::scenario::ScenarioTrace;
use std::time::Instant;

/// How a family's plans are lowered for a replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lowering {
    pub fuse: bool,
    pub compile: bool,
}

impl Lowering {
    pub const COMPILED: Lowering = Lowering {
        fuse: true,
        compile: true,
    };
    pub const INTERPRETED: Lowering = Lowering {
        fuse: true,
        compile: false,
    };
    pub const UNFUSED: Lowering = Lowering {
        fuse: false,
        compile: false,
    };
}

/// One family's queries replayed alone through `Dataflow::run_round`.
#[derive(Clone, Debug, Default)]
pub struct FamilyReplay {
    pub queries: usize,
    /// Wall time of every `run_round` call, lowering excluded.
    pub nanos: u64,
    /// Time to optimise and lower the family's plans.
    pub lower_nanos: u64,
    /// Data messages routed to the family's sources (a message two of its
    /// queries read counts twice).
    pub routed_msgs: u64,
    pub deltas: u64,
    pub state_peak: u64,
    pub group_refreshes: u64,
    /// Each query's output tape, in query order (kept for the collector
    /// replay).
    pub tapes: Vec<Vec<Message>>,
}

impl FamilyReplay {
    pub fn ns_per_msg(&self) -> f64 {
        ratio(self.nanos as f64, self.routed_msgs as f64)
    }

    pub fn deltas_per_event(&self) -> f64 {
        ratio(self.deltas as f64, self.routed_msgs as f64)
    }
}

/// `num / den`, or 0 when nothing was measured (a family the workload
/// does not register).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replay the `family` subset of `defs` over every round of `trace`.
pub fn replay_family(
    defs: &[QueryDef],
    family: &str,
    spec: ConsistencySpec,
    lowering: Lowering,
    trace: &ScenarioTrace,
    keep_tapes: bool,
) -> FamilyReplay {
    let lang = catalog::lang_catalog();
    let t0 = Instant::now();
    // Each plan with its producer → source-port map.
    let mut plans: Vec<(LoweredPlan, Vec<Option<usize>>)> = defs
        .iter()
        .filter(|d| d.family == family)
        .map(|d| {
            let plan = lower_with(
                &optimize(d.plan.clone()),
                &lang,
                spec,
                lowering.fuse,
                lowering.compile,
            )
            .unwrap_or_else(|e| panic!("lower {}: {e}", d.name));
            let ports = trace
                .scripts
                .iter()
                .map(|s| plan.source_index(s.event_type))
                .collect();
            (plan, ports)
        })
        .collect();
    let mut out = FamilyReplay {
        queries: plans.len(),
        lower_nanos: t0.elapsed().as_nanos() as u64,
        ..FamilyReplay::default()
    };
    if plans.is_empty() {
        return out;
    }
    let mut seal = MessageBatch::new();
    seal.push_cti(TimePoint::INFINITY);

    let t0 = Instant::now();
    for r in 0..trace.rounds() {
        for (plan, ports) in &mut plans {
            let round: Vec<(usize, &MessageBatch)> = trace
                .scripts
                .iter()
                .zip(ports.iter())
                .filter_map(|(script, port)| match (port, script.emissions.get(r)) {
                    (Some(port), Some(Some(batch))) => Some((*port, batch)),
                    _ => None,
                })
                .collect();
            if !round.is_empty() {
                plan.dataflow.run_round(round);
            }
        }
    }
    // What `Engine::seal` does: CTI(∞) on every input, one pass.
    for (plan, _) in &mut plans {
        let ports = 0..plan.source_types.len();
        plan.dataflow.run_round(ports.map(|p| (p, &seal)));
    }
    out.nanos = t0.elapsed().as_nanos() as u64;

    for (plan, ports) in &plans {
        for (script, port) in trace.scripts.iter().zip(ports) {
            if port.is_some() {
                out.routed_msgs += script
                    .emissions
                    .iter()
                    .flatten()
                    .map(|b| b.data_messages() as u64)
                    .sum::<u64>();
            }
        }
        let stats = plan.dataflow.total_stats();
        out.state_peak += stats.state_peak as u64;
        out.group_refreshes += stats.group_refreshes as u64;
        let collector = plan.dataflow.collector(plan.sink);
        out.deltas += collector.delta_log().len() as u64;
        if keep_tapes {
            out.tapes.push(
                collector
                    .stamped()
                    .iter()
                    .map(|s| s.message.clone())
                    .collect(),
            );
        }
    }
    out
}

/// Every family of `defs` at `spec`, compiled lowering, in [`FAMILIES`]
/// order.
pub fn replay_all_families(
    defs: &[QueryDef],
    spec: ConsistencySpec,
    trace: &ScenarioTrace,
    keep_tapes: bool,
) -> Vec<FamilyReplay> {
    FAMILIES
        .iter()
        .map(|family| replay_family(defs, family, spec, Lowering::COMPILED, trace, keep_tapes))
        .collect()
}

/// Each family's share of the summed replay time (sums to 1 when any
/// family ran).
pub fn shares(replays: &[FamilyReplay]) -> Vec<f64> {
    let total: u64 = replays.iter().map(|r| r.nanos).sum();
    replays
        .iter()
        .map(|r| ratio(r.nanos as f64, total as f64))
        .collect()
}

/// Nanoseconds per batch through `Resequencer::accept` / `next_round`,
/// feeding the trace's `(producer key, emission seq)` stamps in round
/// order. The pass is microseconds long, so it repeats until `min_nanos`
/// have been measured.
pub fn replay_resequencer(trace: &ScenarioTrace, min_nanos: u64) -> f64 {
    let (mut nanos, mut batches) = (0u64, 0u64);
    while nanos < min_nanos.max(1) {
        let mut reseq: Resequencer<usize> = Resequencer::new();
        let keys = 1..=trace.scripts.len() as u64;
        keys.clone().for_each(|k| reseq.register(k));
        let t0 = Instant::now();
        for r in 0..trace.rounds() {
            for (key, script) in keys.clone().zip(&trace.scripts) {
                if let Some(Some(batch)) = script.emissions.get(r) {
                    reseq.accept(key, r as u64, batch.len());
                    batches += 1;
                }
                if r + 1 == script.emissions.len() {
                    reseq.close(key, script.emissions.len() as u64);
                }
            }
            while let RoundStatus::Ready(round) = reseq.next_round() {
                std::hint::black_box(round);
            }
        }
        nanos += t0.elapsed().as_nanos() as u64;
        if batches == 0 {
            return 0.0;
        }
    }
    nanos as f64 / batches as f64
}

/// The single-threaded baseline: the same rounds through
/// `Engine::enqueue_batch` + `run_to_quiescence` + a poll sweep, with no
/// channel and no second thread. Returns `(nanos, data messages)`.
pub fn replay_serial_engine(
    defs: &[QueryDef],
    spec: ConsistencySpec,
    trace: &ScenarioTrace,
) -> (u64, u64) {
    let (mut engine, queries) = build_engine(defs, spec);
    let mut subs: Vec<Subscription> = queries
        .iter()
        .map(|&q| engine.subscribe(q).expect("query registered"))
        .collect();
    // Fresh batches, so no cached columnar view is shared with the trace.
    let rounds: Vec<Vec<(&'static str, MessageBatch)>> = (0..trace.rounds())
        .map(|r| {
            trace
                .scripts
                .iter()
                .filter_map(|s| match s.emissions.get(r) {
                    Some(Some(batch)) => Some((s.event_type, batch.iter().cloned().collect())),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let data_msgs = rounds
        .iter()
        .flatten()
        .map(|(_, b)| b.data_messages() as u64)
        .sum();
    let mut sweep = |engine: &mut Engine| {
        for sub in &mut subs {
            std::hint::black_box(sub.poll(engine));
        }
    };
    let t0 = Instant::now();
    for round in &rounds {
        for (ty, batch) in round {
            engine
                .enqueue_batch(ty, batch)
                .expect("scenario type registered");
        }
        engine.run_to_quiescence();
        sweep(&mut engine);
    }
    engine.seal();
    sweep(&mut engine);
    (t0.elapsed().as_nanos() as u64, data_msgs)
}

/// Each output tape into a fresh `Collector`. Returns `(nanos, deltas)`.
pub fn replay_collector(tapes: &[Vec<Message>]) -> (u64, u64) {
    let (mut nanos, mut deltas) = (0u64, 0u64);
    for tape in tapes {
        let mut collector = Collector::new();
        let t0 = Instant::now();
        for msg in tape {
            collector.push(msg.clone());
        }
        nanos += t0.elapsed().as_nanos() as u64;
        deltas += collector.delta_log().len() as u64;
        std::hint::black_box(&collector);
    }
    (nanos, deltas)
}
