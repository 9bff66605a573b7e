//! Observability tour: one engine, two standing queries, two concurrent
//! providers — then a single [`Engine::metrics`] snapshot rendered three
//! ways: the human operator report, the Prometheus text exposition, and
//! the tail of the structured trace ring.
//!
//! The snapshot unifies counters that previously lived behind separate
//! accessors (per-query collector stats, per-node operator stats, the
//! engine's ingress counters, channel pump state, checkpoint accounting)
//! with the latency histograms the engine records around rounds, drain
//! workers and channel sends. Tracing is opt-in: this example turns it on
//! with [`EngineConfig::with_trace_capacity`]; production code can use
//! `CEDR_TRACE=1` instead, and with it off the trace closures never run.
//!
//! Run with: `cargo run --example observability`

use cedr::core::prelude::*;
use cedr::core::validate_exposition;
use cedr::temporal::time::dur;
use std::thread;

fn main() {
    // Tracing on (512-slot ring); a small channel depth so the fast
    // producers actually exercise the backpressure accounting.
    let config = EngineConfig::from_env()
        .with_trace_capacity(512)
        .with_channel_depth(4);
    let mut engine = Engine::with_config(config);
    engine.register_event_type(
        "TICK",
        vec![("Symbol", FieldType::Int), ("Qty", FieldType::Int)],
    );

    // Two standing queries over the same stream, at different consistency.
    let spikes = PlanBuilder::source("TICK")
        .select(Pred::cmp(Scalar::Field(1), CmpOp::Gt, Scalar::lit(90i64)))
        .into_plan();
    let spikes = engine
        .register_plan("qty_spikes", spikes, ConsistencySpec::strong())
        .unwrap();
    let volume = PlanBuilder::source("TICK")
        .window(dur(50))
        .group_aggregate(vec![Scalar::Field(0)], AggFunc::Sum(Scalar::Field(1)))
        .into_plan();
    let volume = engine
        .register_plan("symbol_volume", volume, ConsistencySpec::middle())
        .unwrap();
    let mut spike_sub = engine.subscribe(spikes).unwrap();
    let volume_sub = engine.subscribe(volume).unwrap();

    // Two provider threads, each with its own producer key — the snapshot
    // attributes channel backpressure per key.
    let feeds: Vec<ChannelSource> = (0..2)
        .map(|_| engine.channel_source("TICK").unwrap().with_autoflush(4))
        .collect();
    let producers: Vec<_> = feeds
        .into_iter()
        .enumerate()
        .map(|(p, mut feed)| {
            thread::spawn(move || {
                for i in 0..200u64 {
                    let vs = p as u64 * 7 + i;
                    feed.insert(
                        vs,
                        vec![
                            Value::Int((i % 5) as i64),
                            Value::Int((vs * 13 % 101) as i64),
                        ],
                    )
                    .unwrap();
                }
                feed.seal(); // stages CTI(∞): "this producer is complete"
            })
        })
        .collect();
    engine.run_pipelined().unwrap();
    for p in producers {
        p.join().unwrap();
    }
    engine.seal();
    let spike_deltas = spike_sub.drain_ready(&engine).len();
    println!("consumed {spike_deltas} spike deltas; leaving the volume cursor lagging\n");

    // ----- one snapshot, three renderings --------------------------------
    let mut snap = engine.metrics();
    // Cursors live with consumers, so they opt in per subscription.
    spike_sub.observe(&mut snap, "spike_alerts");
    volume_sub.observe(&mut snap, "volume_dashboard");

    println!("========== operator report ==========");
    println!("{}", snap.render_report());

    let expo = snap.render_prometheus();
    let summary = validate_exposition(&expo).expect("exposition is well-formed");
    println!("========== prometheus exposition ==========");
    println!(
        "{} metric families, {} samples — first lines:",
        summary.families, summary.samples
    );
    for line in expo.lines().take(12) {
        println!("{line}");
    }
    println!("...\n");

    println!(
        "========== trace ring (last 8 of {}) ==========",
        snap.trace.recorded
    );
    let events = engine.trace_events();
    for ev in events.iter().rev().take(8).rev() {
        println!("{ev:?}");
    }

    // The counter classes behave as documented: semantic totals are
    // invariant across CEDR_THREADS worker counts, so this example
    // asserts on them regardless of environment.
    let sem = snap.semantic();
    assert_eq!(sem.queries.len(), 2);
    assert_eq!(
        sem.queries[1].inserts,
        engine.collector(volume).stats().inserts as u64
    );
    assert!(sem.rounds_completed > 0);
    println!(
        "\nsemantic counters check out: {} rounds, sealed={}",
        sem.rounds_completed, sem.sealed
    );
}
