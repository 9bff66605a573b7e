//! Observability overhead: the telemetry layer must be (nearly) free.
//!
//! Workload: the fused fan-out steady state — 8 standing stateless
//! chains (fusion and compiled kernels on) consuming one canonical
//! ordered tape in fixed chunks. Two engines run it back to back:
//!
//! * **off** — tracing disabled (`trace_capacity = 0`, the shipped
//!   default), no snapshots taken. Trace closures are never run; the
//!   only telemetry cost is the clock reads around rounds.
//! * **instrumented** — a 4096-slot trace ring on plus a full
//!   [`Engine::metrics`] snapshot every fourth chunk, the cadence of a
//!   scraping exporter.
//!
//! The gated `instrumented_vs_off` column is `t_off / t_instrumented`:
//! ~1.0 when telemetry is free, below 1.0 by exactly the overhead
//! fraction. The harness enforces the contract's floor of 0.95 (≤ 5 %
//! overhead) directly, asserts both tapes bit-identical (telemetry must
//! observe, not perturb), and CI's `bench-regression` job additionally
//! gates the column against the committed `BENCH_obs.json`.

use cedr_bench::summary::{summary_reps, BenchSummary};
use cedr_core::prelude::*;
use cedr_streams::MessageBatch;
use cedr_temporal::time::dur;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;

const N_EVENTS: u64 = 4_000;
const N_QUERIES: usize = 8;
const CHUNK: usize = 256;
/// Take a full metrics snapshot every this many chunks (instrumented
/// side only) — roughly the cadence of an external scraper.
const SNAPSHOT_EVERY: usize = 4;
/// Contract floor for `instrumented_vs_off` (≤ 5 % overhead).
const FLOOR: f64 = 0.95;

/// The fused fan-out engine: 8 stateless chains, fusion + compiled
/// kernels on, tracing per `trace_capacity`.
fn engine(trace_capacity: usize) -> Engine {
    let mut e = Engine::with_config(
        EngineConfig::serial()
            .with_fuse(true)
            .with_compile_kernels(true)
            .with_trace_capacity(trace_capacity),
    );
    e.register_event_type(
        "TICK",
        vec![("sym", FieldType::Int), ("px", FieldType::Int)],
    );
    for i in 0..N_QUERIES {
        let b = PlanBuilder::source("TICK");
        let b = if i % 2 == 0 { b.window(dur(40)) } else { b };
        let plan = b
            .select(Pred::cmp(
                Scalar::Field(0),
                CmpOp::Ge,
                Scalar::lit((i % 4) as i64),
            ))
            .project(
                vec![Scalar::Field(0), Scalar::Field(1)],
                vec!["sym".into(), "px".into()],
            )
            .into_plan();
        e.register_plan(&format!("q{i}"), plan, ConsistencySpec::middle())
            .unwrap();
    }
    e
}

/// One canonical ordered tape with periodic CTIs and retractions, shared
/// by both engines.
fn workload() -> MessageBatch {
    let mut b = StreamBuilder::new();
    for i in 0..N_EVENTS {
        let e = b.insert(
            Interval::new(t(i), t(i + 12)),
            Payload::from_values(vec![Value::Int((i % 16) as i64), Value::Int(i as i64)]),
        );
        if i % 8 == 0 {
            b.retract(e.clone(), e.vs() + dur(6));
        }
    }
    MessageBatch::from(b.build_ordered(Some(dur(50)), true))
}

/// Run the tape chunked. `instrumented` turns the trace ring on and
/// scrapes a full snapshot every [`SNAPSHOT_EVERY`] chunks.
fn run(msgs: &MessageBatch, instrumented: bool) -> Engine {
    let mut e = engine(if instrumented { 4_096 } else { 0 });
    let mut scraped = 0u64;
    for (i, chunk) in msgs.chunks_of(CHUNK).into_iter().enumerate() {
        e.enqueue_batch("TICK", &chunk).unwrap();
        e.run_to_quiescence();
        if instrumented && i % SNAPSHOT_EVERY == 0 {
            scraped += e.metrics().counters.rounds_completed;
        }
    }
    e.seal();
    if instrumented {
        assert!(scraped > 0, "snapshots were taken");
        assert!(e.tracing() && !e.trace_events().is_empty());
    }
    e
}

fn bench_obs(c: &mut Criterion) {
    let msgs = workload();
    let mut g = c.benchmark_group("obs_fanout");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N_EVENTS));
    g.bench_function("off", |b| b.iter(|| run(&msgs, false)));
    g.bench_function("instrumented", |b| b.iter(|| run(&msgs, true)));
    g.finish();
    write_summary(&msgs);
}

/// Interleaved best-of reps (drift biases both columns equally), then
/// the observe-don't-perturb check before any number is reported.
fn write_summary(msgs: &MessageBatch) {
    let off = run(msgs, false);
    let instrumented = run(msgs, true);
    for q in 0..N_QUERIES {
        let q = QueryId(q);
        assert_eq!(
            off.collector(q).delta_log(),
            instrumented.collector(q).delta_log(),
            "telemetry perturbed the tape on {q:?}"
        );
    }
    let snap = instrumented.metrics();
    assert_eq!(snap.counters.queries.len(), N_QUERIES);
    assert!(snap.trace.recorded > 0);

    let reps = summary_reps(7);
    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps {
        for (slot, instrumented) in [false, true].into_iter().enumerate() {
            let start = Instant::now();
            let e = run(msgs, instrumented);
            let elapsed = start.elapsed().as_secs_f64();
            assert!(e.query_count() == N_QUERIES);
            best[slot] = best[slot].min(elapsed);
        }
    }
    let [off_s, instrumented_s] = best;
    let ratio = off_s / instrumented_s;
    assert!(
        ratio >= FLOOR,
        "telemetry overhead {:.1}% exceeds the 5% contract \
         (off {off_s:.4}s, instrumented {instrumented_s:.4}s)",
        (1.0 - ratio) * 100.0
    );

    let mut s = BenchSummary::new("obs", 0);
    s.ratio("instrumented_vs_off", ratio);
    s.info("events", N_EVENTS as f64)
        .info("queries", N_QUERIES as f64)
        .info("chunk", CHUNK as f64)
        .info("snapshot_every", SNAPSHOT_EVERY as f64)
        .info("off_seconds", off_s)
        .info("instrumented_seconds", instrumented_s)
        .info("floor", FLOOR);
    s.write(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json"));
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
