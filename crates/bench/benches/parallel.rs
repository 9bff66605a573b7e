//! Parallel shard-drain benchmark: the 8-query fan-out workload of
//! `benches/fanout.rs` driven through [`EngineConfig::threaded`] at 1, 2
//! and 4 workers, against the PR 1 per-event serial ingestion baseline.
//!
//! Every query is an independent dataflow, so the engine's sharded
//! routing table spreads the 8 standing queries over the worker threads
//! and drains them concurrently; outputs are asserted bit-identical
//! across all thread counts before any number is reported.
//!
//! The harness emits `BENCH_parallel.json` at the repository root
//! (uniform [`BenchSummary`] schema) with per-thread-count timings, the
//! 4-vs-1-worker scaling, the speedup over the per-event baseline, and
//! the machine's core count — thread scaling is only meaningful where
//! `cores` is comfortably above 1 (single-core CI boxes run the workers
//! time-sliced, so expect ~1.0× there, not a regression; that column
//! therefore lives in ungated `info`, while the batched-vs-per-event
//! speedups are gated `ratios`).

use cedr_bench::summary::{summary_reps, BenchSummary};
use cedr_core::prelude::*;
use cedr_streams::{merge_by_sync, MessageBatch};
use cedr_temporal::time::dur;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;

const N_EVENTS: u64 = 4_000;
const N_QUERIES: usize = 8;
const N_PROVIDERS: u64 = 4;
const THREADS: [usize; 3] = [1, 2, 4];

/// An engine with `N_QUERIES` windowed-count queries over one stream.
fn engine(threads: usize) -> Engine {
    let mut e = Engine::with_config(EngineConfig::threaded(threads));
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

/// Build the tape as `N_PROVIDERS` per-provider streams merged by the
/// deterministic `(sync, provider, position)` rule.
fn workload() -> MessageBatch {
    let per = N_EVENTS / N_PROVIDERS;
    let providers: Vec<MessageBatch> = (0..N_PROVIDERS)
        .map(|p| {
            let mut b = StreamBuilder::with_id_base(1_000_000 * p);
            for i in 0..per {
                let vs = i * N_PROVIDERS + p;
                b.insert(
                    Interval::new(t(vs), t(vs + 10)),
                    Payload::from_values(vec![Value::Int((vs % 16) as i64), Value::Int(vs as i64)]),
                );
            }
            b.build_ordered(Some(dur(64)), false).into_iter().collect()
        })
        .collect();
    merge_by_sync(&providers)
}

/// Staged ingestion: the tape is cut into provider-delivery rounds with
/// `MessageBatch::chunks` (order-preserving, `Arc`-shared), each round is
/// staged on the sharded ingress, and one drain runs every query's
/// dataflow over the union.
fn run_threads(threads: usize, batch: &MessageBatch) -> Engine {
    let mut e = engine(threads);
    for round in batch.chunks(N_PROVIDERS as usize) {
        e.enqueue_batch("TICK", &round).unwrap();
    }
    e.run_to_quiescence();
    e.seal();
    e
}

/// The PR 1 per-event baseline — a throwaway string-keyed session per
/// message — so the trajectory stays comparable across PRs.
fn run_per_event(batch: &MessageBatch) -> Engine {
    let mut e = engine(1);
    for m in batch {
        e.source("TICK").unwrap().send(m.clone());
    }
    e.seal();
    e
}

fn bench_parallel(c: &mut Criterion) {
    let batch = workload();
    let mut g = c.benchmark_group("parallel_8_queries");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N_EVENTS));
    for threads in THREADS {
        g.bench_function(format!("workers_{threads}"), |b| {
            b.iter(|| run_threads(threads, &batch))
        });
    }
    g.finish();

    write_summary(&batch);
}

/// Time every mode explicitly and record a machine-readable summary.
fn write_summary(batch: &MessageBatch) {
    let reps = summary_reps(5);
    let best_of = |f: &dyn Fn() -> Engine| {
        let mut best = f64::INFINITY;
        f(); // warm-up
        for _ in 0..reps {
            let start = Instant::now();
            let e = f();
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(e.query_count(), N_QUERIES);
            best = best.min(elapsed);
        }
        best
    };

    // Sanity first: every worker count must be bit-identical to serial.
    let serial = run_threads(1, batch);
    for threads in [2usize, 4] {
        let par = run_threads(threads, batch);
        for q in 0..N_QUERIES {
            assert_eq!(
                serial.collector(QueryId(q)).delta_log(),
                par.collector(QueryId(q)).delta_log(),
                "parallel run diverged on q{q} at {threads} workers"
            );
        }
    }

    let per_event_s = best_of(&|| run_per_event(batch));
    let mut thread_secs = Vec::new();
    for threads in THREADS {
        thread_secs.push((threads, best_of(&|| run_threads(threads, batch))));
    }
    let s1 = thread_secs[0].1;
    let s4 = thread_secs.last().expect("non-empty").1;

    let mut s = BenchSummary::new("parallel", 0);
    s.ratio("batched_1w_vs_per_event", per_event_s / s1)
        .ratio("batched_4w_vs_per_event", per_event_s / s4);
    s.info("events", N_EVENTS as f64)
        .info("queries", N_QUERIES as f64)
        .info("per_event_seconds", per_event_s)
        // Worker scaling is machine-dependent (time-sliced on 1 core):
        // recorded, never gated.
        .info("scaling_4w_vs_1w", s1 / s4);
    for (t, secs) in &thread_secs {
        s.info(&format!("workers_{t}_seconds"), *secs);
    }
    s.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel.json"
    ));
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
