//! Fan-out benchmark: a string-keyed session per event vs batched
//! ingestion vs one long-lived `SourceHandle`, with 8 standing queries
//! subscribed to one input stream.
//!
//! This is the workload the Arc-shared, batch-at-a-time core was built
//! for: every message fans out to every query, so the old clone-per-query
//! ingestion paid 8 payload deep-copies and 8 full cascades per event.
//! The batched path pays 8 refcount bumps and one amortised drain per
//! query per batch. The sessioned paths resolve the event type and shard
//! routing **once** per handle instead of once per push:
//! `handle_per_event` isolates that resolve-once saving at identical
//! (per-message) delivery semantics, while `handle_stream` adds staged
//! batching — the mode a continuous provider would actually run.
//!
//! Besides the criterion groups, the harness emits `BENCH_fanout.json` at
//! the repository root (uniform [`BenchSummary`] schema: the speedup
//! columns in `ratios` are gated by the CI `bench-regression` job) so
//! future PRs can track the trajectory.

use cedr_bench::summary::{summary_reps, BenchSummary};
use cedr_core::prelude::*;
use cedr_streams::MessageBatch;
use cedr_temporal::time::dur;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;

const N_EVENTS: u64 = 2_000;
const N_QUERIES: usize = 8;

/// An engine with `N_QUERIES` windowed-count queries over one stream.
fn engine() -> Engine {
    let mut e = Engine::new();
    e.register_event_type(
        "TICK",
        vec![("sym", FieldType::Int), ("px", FieldType::Int)],
    );
    for i in 0..N_QUERIES {
        let plan = PlanBuilder::source("TICK")
            .select(Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(0i64)))
            .window(dur(20 + i as u64))
            .group_aggregate(vec![Scalar::Field(0)], AggFunc::Count)
            .into_plan();
        e.register_plan(&format!("q{i}"), plan, ConsistencySpec::middle())
            .unwrap();
    }
    e
}

fn workload() -> Vec<Message> {
    let mut b = StreamBuilder::new();
    for i in 0..N_EVENTS {
        b.insert(
            Interval::new(t(i), t(i + 10)),
            Payload::from_values(vec![Value::Int((i % 16) as i64), Value::Int(i as i64)]),
        );
    }
    b.build_ordered(Some(dur(50)), true)
}

/// A throwaway session per message: catalog + routing lookups per push.
fn run_per_event(msgs: &[Message]) -> Engine {
    let mut e = engine();
    for m in msgs {
        e.source("TICK").unwrap().send(m.clone());
    }
    e
}

fn run_batched(msgs: &[Message]) -> Engine {
    let mut e = engine();
    let batch = MessageBatch::from(msgs.to_vec());
    let mut h = e.source("TICK").unwrap().manual_flush();
    h.stage_batch(&batch);
    drop(h);
    e.run_to_quiescence();
    e
}

/// Sessioned, per-message: resolve once, then `send` each message with
/// the same immediate-cascade semantics as `run_per_event`.
fn run_handle_per_event(msgs: &[Message]) -> Engine {
    let mut e = engine();
    let mut h = e.source("TICK").unwrap();
    for m in msgs {
        h.send(m.clone());
    }
    drop(h);
    e
}

/// Sessioned, streaming: resolve once, stage through the handle's local
/// batch, auto-flushing against the bounded ingress.
fn run_handle_stream(msgs: &[Message]) -> Engine {
    let mut e = engine();
    let mut h = e.source("TICK").unwrap();
    for m in msgs {
        h.stage(m.clone());
    }
    h.sync();
    drop(h);
    e
}

fn bench_fanout(c: &mut Criterion) {
    let msgs = workload();
    let mut g = c.benchmark_group("fanout_8_queries");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N_EVENTS));
    g.bench_function("push_per_event", |b| b.iter(|| run_per_event(&msgs)));
    g.bench_function("push_batch", |b| b.iter(|| run_batched(&msgs)));
    g.bench_function("handle_per_event", |b| {
        b.iter(|| run_handle_per_event(&msgs))
    });
    g.bench_function("handle_stream", |b| b.iter(|| run_handle_stream(&msgs)));
    g.finish();

    write_summary(&msgs);
}

/// Time every path explicitly and record a machine-readable summary.
/// Reps are interleaved round-robin across the paths so machine drift
/// (noisy neighbours on a shared core) biases every column equally
/// instead of whichever path happened to be measured last.
fn write_summary(msgs: &[Message]) {
    let reps = summary_reps(7);
    let paths: [fn(&[Message]) -> Engine; 4] = [
        run_per_event,
        run_batched,
        run_handle_per_event,
        run_handle_stream,
    ];
    let mut best = [f64::INFINITY; 4];
    for f in paths {
        f(msgs); // warm-up
    }
    for _ in 0..reps {
        for (slot, f) in paths.iter().enumerate() {
            let start = Instant::now();
            let e = f(msgs);
            let elapsed = start.elapsed().as_secs_f64();
            assert!(e.query_count() == N_QUERIES);
            best[slot] = best[slot].min(elapsed);
        }
    }
    let [per_event_s, batch_s, handle_event_s, handle_stream_s] = best;

    // Sanity: every path agrees on every query's net output, and the
    // handle path's subscription view matches its collector.
    let a = run_per_event(msgs);
    let b = run_batched(msgs);
    let h = run_handle_stream(msgs);
    for q in 0..N_QUERIES {
        let q = QueryId(q);
        assert!(
            a.collector(q)
                .net_table()
                .star_equal(&b.collector(q).net_table()),
            "fan-out paths diverged on {q:?}"
        );
        assert!(
            a.collector(q)
                .net_table()
                .star_equal(&h.collector(q).net_table()),
            "handle path diverged on {q:?}"
        );
        let mut sub = h.subscribe(q).unwrap();
        assert_eq!(
            sub.drain_ready(&h).len(),
            h.collector(q).delta_log().len(),
            "subscription must observe the whole change stream"
        );
    }
    let amortisation = h.stats(QueryId(0)).mean_batch_len();

    let mut s = BenchSummary::new("fanout", 0);
    s.ratio("push_batch_vs_per_event", per_event_s / batch_s)
        .ratio(
            "handle_per_event_vs_per_event",
            per_event_s / handle_event_s,
        )
        .ratio("handle_stream_vs_per_event", per_event_s / handle_stream_s);
    s.info("events", N_EVENTS as f64)
        .info("queries", N_QUERIES as f64)
        .info("per_event_seconds", per_event_s)
        .info("push_batch_seconds", batch_s)
        .info("handle_per_event_seconds", handle_event_s)
        .info("handle_stream_seconds", handle_stream_s)
        .info("mean_batch_len", amortisation);
    s.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fanout.json"
    ));
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
