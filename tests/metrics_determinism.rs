//! The counter half of the observability contract, pinned.
//!
//! [`Engine::metrics`] exposes three classes of data (see the
//! Observability section of `cedr_core::engine`):
//!
//! 1. **Semantic counters** ([`MetricsSnapshot::semantic`]) are
//!    bit-identical across `CEDR_THREADS` for the same logical workload.
//! 2. **Execution counters** (per-node operator stats, engine ingress,
//!    channel admission totals) are exact for a fixed configuration —
//!    here pinned identical across worker counts, where only the thread
//!    gauge may differ.
//! 3. **Timing histograms** sit behind the [`ObsClock`] seam and are
//!    excluded: a frozen [`ManualClock`] proves no counter reads the
//!    clock.
//!
//! The Prometheus exposition of every snapshot taken here must parse
//! under the text-format grammar ([`validate_exposition`]).

use cedr::core::prelude::*;
use cedr::core::{validate_exposition, ManualClock, MetricsSnapshot, SemanticCounters};
use cedr::temporal::time::{dur, t};
use std::sync::Arc;

/// Deterministic mixed tape for the plain source: inserts, retractions
/// and mid-stream CTIs in flushable chunks.
fn tape() -> Vec<MessageBatch> {
    let mut b = StreamBuilder::with_id_base(7);
    for i in 0..48u64 {
        let vs = i * 5 % 163;
        let e = b.insert(
            Interval::new(t(vs), t(vs + 25)),
            Payload::from_values(vec![Value::Int((i % 6) as i64), Value::Int(i as i64)]),
        );
        if i % 7 == 0 {
            b.retract(e.clone(), e.vs() + dur(3));
        }
    }
    let ordered = b.build_ordered(Some(dur(30)), true);
    ordered
        .chunks(11)
        .map(|c| c.iter().cloned().collect::<MessageBatch>())
        .collect()
}

/// One full workload at a given configuration, returning the final
/// snapshot. A frozen `ManualClock` (when `freeze_clock`) stands in for
/// wall time, so any counter that accidentally read the clock would
/// diverge from the real-clock runs.
fn run(threads: usize, freeze_clock: bool) -> MetricsSnapshot {
    let mut engine = Engine::with_config(EngineConfig::threaded(threads));
    if freeze_clock {
        engine.set_obs_clock(Arc::new(ManualClock::new()));
    }
    engine.register_event_type("E", vec![("Grp", FieldType::Int), ("Seq", FieldType::Int)]);
    engine.register_event_type("C", vec![("V", FieldType::Int)]);
    let filter = PlanBuilder::source("E")
        .select(Pred::cmp(Scalar::Field(0), CmpOp::Gt, Scalar::lit(2i64)))
        .project(vec![Scalar::Field(1)], vec!["Seq".into()])
        .into_plan();
    let agg = PlanBuilder::source("E")
        .window(dur(40))
        .group_aggregate(vec![Scalar::Field(0)], AggFunc::Count)
        .into_plan();
    let chan = PlanBuilder::source("C")
        .select(Pred::True)
        .project(vec![Scalar::Field(0)], vec!["V".into()])
        .into_plan();
    engine
        .register_plan("filter", filter, ConsistencySpec::strong())
        .unwrap();
    engine
        .register_plan("agg", agg, ConsistencySpec::middle())
        .unwrap();
    engine
        .register_plan("chan", chan, ConsistencySpec::middle())
        .unwrap();

    // Plain-source half: enqueue + drain per chunk.
    for chunk in tape() {
        engine.enqueue_batch("E", &chunk).unwrap();
        engine.run_to_quiescence();
    }

    // Channel half: two producers flushed in a fixed interleave from this
    // thread, so admission totals are deterministic by construction.
    let mut p1 = engine.channel_source("C").unwrap().manual_flush();
    let mut p2 = engine.channel_source("C").unwrap().manual_flush();
    for i in 0..12u64 {
        p1.insert(i * 2, vec![Value::Int(i as i64)]).unwrap();
        p1.flush();
        p2.insert(i * 2 + 1, vec![Value::Int(-(i as i64))]).unwrap();
        p2.flush();
        engine.pump().unwrap();
    }
    drop(p1);
    drop(p2);
    engine.run_pipelined().unwrap();

    // A durability boundary contributes checkpoint counters.
    let image = engine.checkpoint_to_vec().unwrap();
    assert!(!image.is_empty());
    engine.seal();
    engine.metrics()
}

/// Class 1: the semantic projection is bit-identical across worker
/// counts, clock frozen or not.
#[test]
fn semantic_counters_identical_across_threads_and_modes() {
    let baseline: SemanticCounters = run(1, false).counters.semantic();
    assert_eq!(baseline.queries.len(), 3);
    assert!(baseline.rounds_completed > 0);
    let ch = baseline.channel.as_ref().expect("channel block present");
    assert_eq!(ch.messages_admitted, 24);
    assert_eq!(baseline.checkpoints, 1);
    for threads in [1usize, 4] {
        for freeze in [false, true] {
            let got = run(threads, freeze).counters.semantic();
            assert_eq!(
                got, baseline,
                "semantic counters diverged at threads={threads} frozen_clock={freeze}"
            );
        }
    }
}

/// Class 2: with the clock frozen, the per-query counter snapshot —
/// per-node operator counters included — and the ingress counters are
/// identical across worker counts; only the thread gauge may differ.
#[test]
fn full_counters_identical_across_worker_counts_at_fixed_mode() {
    let one = run(1, true).counters;
    let four = run(4, true).counters;
    assert_eq!(
        one.queries, four.queries,
        "per-query/per-node counters diverged across threads"
    );
    assert_eq!(one.channel, four.channel);
    // Checkpoint *counts* are semantic; image bytes are pinned by
    // `tests/golden_images.rs`.
    assert_eq!(one.checkpoints.checkpoints, four.checkpoints.checkpoints);
    assert_eq!(one.checkpoints.restores, four.checkpoints.restores);
    assert_eq!(one.rounds_completed, four.rounds_completed);
    // One ingress queue, whatever the worker count: staging,
    // admission and backpressure count the same.
    assert_eq!(one.ingress_total, four.ingress_total);
}

/// Class 3 exclusion, from the other side: with a frozen manual clock
/// every histogram stays empty-of-time (all samples are zero-duration),
/// while the counters above already proved they don't care. Also pins
/// that the execution layout is visible in the snapshot: the thread
/// gauge reports the worker count, and a select → project chain runs as
/// one shell per operator.
#[test]
fn frozen_clock_empties_timings_and_modes_are_visible() {
    let frozen = run(1, true);
    assert!(frozen.timings.round_drain.count() > 0, "rounds were timed");
    assert_eq!(
        frozen.timings.round_drain.max(),
        0,
        "frozen clock: all zero"
    );
    assert_eq!(frozen.timings.checkpoint_write.max(), 0);

    assert_eq!(frozen.counters.threads, 1);
    assert_eq!(run(4, true).counters.threads, 4);
    let filter = &frozen.counters.queries[0];
    let nodes: Vec<&str> = filter.nodes.iter().map(|n| n.name.as_str()).collect();
    assert_eq!(nodes, ["0:select", "1:project"]);
    assert!(filter.nodes.iter().all(|n| n.stats.arrivals > 0));
}

/// Every snapshot's Prometheus rendering parses under the text-format
/// grammar, and the family/sample counts are themselves deterministic
/// across worker counts (labels come from query names, not execution
/// layout).
#[test]
fn prometheus_exposition_is_valid_and_stable() {
    let mut counts = std::collections::BTreeSet::new();
    for threads in [1usize, 2, 4] {
        let snap = run(threads, false);
        let summary =
            validate_exposition(&snap.render_prometheus()).expect("exposition must parse");
        assert!(summary.families > 20, "rich snapshot exports many families");
        counts.insert(summary.families);
    }
    assert_eq!(counts.len(), 1, "family count stable across worker counts");
}

/// Telemetry observes, it does not perturb: a run with the trace ring on
/// and a full snapshot scraped after every round produces the same delta
/// log, bit for bit, as a run with tracing off and no scrapes.
#[test]
fn tracing_and_scraping_do_not_perturb_the_tape() {
    let run = |trace_capacity: usize| {
        let mut engine =
            Engine::with_config(EngineConfig::serial().with_trace_capacity(trace_capacity));
        engine.register_event_type("E", vec![("Grp", FieldType::Int), ("Seq", FieldType::Int)]);
        let filter = PlanBuilder::source("E")
            .select(Pred::cmp(Scalar::Field(0), CmpOp::Gt, Scalar::lit(2i64)))
            .project(vec![Scalar::Field(1)], vec!["Seq".into()])
            .into_plan();
        let agg = PlanBuilder::source("E")
            .window(dur(40))
            .group_aggregate(vec![Scalar::Field(0)], AggFunc::Count)
            .into_plan();
        let qs = [
            engine
                .register_plan("filter", filter, ConsistencySpec::strong())
                .unwrap(),
            engine
                .register_plan("agg", agg, ConsistencySpec::middle())
                .unwrap(),
        ];
        assert_eq!(engine.query_count(), qs.len());
        for chunk in tape() {
            engine.enqueue_batch("E", &chunk).unwrap();
            engine.run_to_quiescence();
            if trace_capacity > 0 {
                assert_eq!(engine.metrics().counters.queries.len(), qs.len());
            }
        }
        engine.seal();
        (engine, qs)
    };
    let (off, qs_off) = run(0);
    let (traced, qs_traced) = run(4_096);
    assert!(!off.tracing() && off.trace_events().is_empty());
    assert!(traced.tracing() && traced.metrics().trace.recorded > 0);
    for (a, b) in qs_off.iter().zip(qs_traced.iter()) {
        assert!(!off.collector(*a).delta_log().is_empty());
        assert_eq!(
            off.collector(*a).delta_log(),
            traced.collector(*b).delta_log(),
            "telemetry perturbed the tape of {}",
            off.query_name(*a)
        );
    }
}
