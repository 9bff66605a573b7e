//! Concurrent-ingestion benchmark: the 8-query fan-out workload driven by
//! {1, 2, 4} provider threads through `ChannelSource`s + `run_pipelined`,
//! against the single-threaded staged baseline (borrowed `SourceHandle`,
//! one flush per round, one drain per round — the same canonical schedule
//! the pump admits, so the modes are bit-identical and the comparison is
//! pure ingestion overhead).
//!
//! The harness emits `BENCH_ingest.json` at the repository root (uniform
//! [`BenchSummary`] schema) with per-provider-count timings, the
//! channel-vs-staged overhead/speedup (gated `ratios` — the concurrency
//! machinery must stay free), the pump's ingress counters, and the
//! machine's core count — provider scaling is only meaningful where
//! `cores` is comfortably above 1 (single-core CI boxes time-slice the
//! provider threads against the pump, so expect ~1.0× there; that column
//! is ungated `info`).

use cedr_bench::summary::{summary_reps, BenchSummary};
use cedr_core::prelude::*;
use cedr_streams::MessageBatch;
use cedr_temporal::time::dur;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;

const N_EVENTS: u64 = 4_000;
const N_QUERIES: usize = 8;
const PROVIDERS: [usize; 3] = [1, 2, 4];
/// Messages per flushed emission (the pump's unit of admission).
const EMISSION: usize = 256;

/// An engine with `N_QUERIES` windowed-count queries over one stream.
fn engine() -> Engine {
    let mut e = Engine::with_config(EngineConfig::serial());
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

/// Per-provider emission scripts: one sync-ordered tape cut into
/// `EMISSION`-sized chunks and dealt round-robin, so provider `p`'s
/// emission `r` is chunk `r·P + p`. The pump's canonical
/// `(round, producer)` admission then reconstructs the tape **in its
/// original order for every provider count** — a partitioned feed of one
/// ordered stream — which keeps the engine-side work constant and makes
/// the provider-count axis measure pure ingestion overhead rather than
/// disorder-repair traffic.
fn scripts(providers: usize) -> Vec<Vec<MessageBatch>> {
    let mut b = StreamBuilder::with_id_base(1_000_000);
    for vs in 0..N_EVENTS {
        b.insert(
            Interval::new(t(vs), t(vs + 10)),
            Payload::from_values(vec![Value::Int((vs % 16) as i64), Value::Int(vs as i64)]),
        );
    }
    let tape: MessageBatch = b.build_ordered(Some(dur(64)), false).into_iter().collect();
    let chunks = tape.chunks(tape.len().div_ceil(EMISSION));
    let mut out = vec![Vec::new(); providers];
    for (i, chunk) in chunks.into_iter().enumerate() {
        out[i % providers].push(chunk);
    }
    out
}

/// Single-threaded staged baseline: the canonical schedule spelled out
/// with borrowed handles — per round, one flush per provider in key
/// order, then one drain.
fn run_staged(scripts: &[Vec<MessageBatch>]) -> Engine {
    let mut e = engine();
    let rounds = scripts.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..rounds {
        for script in scripts {
            if let Some(batch) = script.get(r) {
                let mut h = e.source("TICK").unwrap().manual_flush();
                h.stage_batch(batch);
                h.flush();
            }
        }
        e.run_to_quiescence();
    }
    e.seal();
    e
}

/// Concurrent ingestion: one provider thread per script feeding a
/// `ChannelSource` while the engine pumps.
fn run_channel(scripts: &[Vec<MessageBatch>]) -> Engine {
    let mut e = engine();
    let sources: Vec<ChannelSource> = scripts
        .iter()
        .map(|_| e.channel_source("TICK").unwrap())
        .collect();
    std::thread::scope(|scope| {
        for (src, script) in sources.into_iter().zip(scripts.iter()) {
            scope.spawn(move || {
                let mut src = src.manual_flush();
                for batch in script {
                    src.stage_batch(batch);
                    src.flush();
                }
            });
        }
        e.run_pipelined().unwrap();
    });
    e.seal();
    e
}

fn bench_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest_8_queries");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N_EVENTS));
    g.bench_function("staged_baseline", |b| {
        let s = scripts(1);
        b.iter(|| run_staged(&s))
    });
    for providers in PROVIDERS {
        g.bench_function(format!("providers_{providers}"), |b| {
            let s = scripts(providers);
            b.iter(|| run_channel(&s))
        });
    }
    g.finish();

    write_summary();
}

/// Time every mode explicitly and record a machine-readable summary.
fn write_summary() {
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

    // Sanity first: every provider count is bit-identical to the staged
    // baseline over the same scripts (the subsystem's core guarantee).
    for providers in PROVIDERS {
        let s = scripts(providers);
        let staged = run_staged(&s);
        let channel = run_channel(&s);
        for q in 0..N_QUERIES {
            assert_eq!(
                staged.collector(QueryId(q)).delta_log(),
                channel.collector(QueryId(q)).delta_log(),
                "channel ingestion diverged on q{q} at {providers} providers"
            );
        }
    }

    let staged_s = {
        let s = scripts(1);
        best_of(&move || run_staged(&s))
    };
    let mut provider_secs = Vec::new();
    for providers in PROVIDERS {
        let s = scripts(providers);
        provider_secs.push((providers, best_of(&move || run_channel(&s))));
    }
    // Ingress counters from one instrumented run (stats are engine-side
    // and identical across reps).
    let probe = run_channel(&scripts(4));
    let ingress = probe.ingress_stats();

    let s1 = provider_secs[0].1;
    let s4 = provider_secs.last().expect("non-empty").1;
    let mut s = BenchSummary::new("ingest", 0);
    // The channel-vs-staged columns hover at ~1.0 by design (the
    // concurrency machinery is free, not faster): a percentage floor on
    // a near-1.0 ratio measured with quick-profile reps on a shared CI
    // runner is pure flake exposure, so they are recorded here, never
    // gated. The gated speedup columns live in the fanout/parallel/
    // stateful summaries.
    s.info("channel_1p_vs_staged", staged_s / s1)
        .info("channel_4p_vs_staged", staged_s / s4);
    s.info("events", N_EVENTS as f64)
        .info("queries", N_QUERIES as f64)
        .info("emission_messages", EMISSION as f64)
        .info("staged_baseline_seconds", staged_s)
        // Provider scaling is machine-dependent (time-sliced on 1 core):
        // recorded, never gated.
        .info("scaling_4p_vs_1p", s1 / s4)
        .info("ingress_staged_batches", ingress.staged_batches as f64)
        .info(
            "ingress_admitted_messages",
            ingress.admitted_messages as f64,
        );
    for (p, secs) in &provider_secs {
        s.info(&format!("providers_{p}_seconds"), *secs);
    }
    s.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_ingest.json"
    ));
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
