//! Stateful batch-native operator benchmark: per-message vs batch-native
//! delivery for the two hottest stateful families — **group-aggregate**
//! (one refresh per touched group per run vs one per state-changing
//! message) and **join** (memoised probe: one candidate lookup per
//! distinct key per run) — at 1 and 4 workers over the *same* canonical
//! schedule (the same sync-ordered tape, cut into 1-message vs
//! 256-message ingestion rounds).
//!
//! The workload is retraction-heavy and hammers few groups, so one
//! 256-message run touches the same group dozens of times — exactly what
//! the one-refresh-per-run collapse amortises. Net output is asserted
//! `star_equal` across modes (and bit-identical across worker counts)
//! before any number is reported.
//!
//! The harness emits `BENCH_stateful.json` at the repository root
//! (uniform [`BenchSummary`] schema): the batch-vs-per-message speedups
//! are gated `ratios` — the ISSUE-5 acceptance floor is ≥ 1.3× on
//! `agg_batch_vs_per_message_1w` — while wall-clock timings and refresh
//! counters live in ungated `info`.

use cedr_bench::summary::{summary_reps, BenchSummary};
use cedr_core::prelude::*;
use cedr_streams::MessageBatch;
use cedr_temporal::time::dur;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;

const N_EVENTS: u64 = 3_000;
const GROUPS: u64 = 8;
const KEYS: u64 = 64;
const RUN: usize = 256;
const SEED: u64 = 0x5EED5;
const WORKERS: [usize; 2] = [1, 4];

/// Group-aggregate engine: windowed per-group Sum over one stream.
fn agg_engine(threads: usize) -> Engine {
    let mut e = Engine::with_config(EngineConfig::threaded(threads));
    e.register_event_type(
        "TICK",
        vec![("sym", FieldType::Int), ("val", FieldType::Int)],
    );
    let plan = PlanBuilder::source("TICK")
        .window(dur(64))
        .group_aggregate(vec![Scalar::Field(0)], AggFunc::Sum(Scalar::Field(1)))
        .into_plan();
    e.register_plan("agg", plan, ConsistencySpec::middle())
        .unwrap();
    e
}

/// Join engine: hash equi-join of two streams on their first field.
fn join_engine(threads: usize) -> Engine {
    let mut e = Engine::with_config(EngineConfig::threaded(threads));
    for ty in ["L_T", "R_T"] {
        e.register_event_type(ty, vec![("k", FieldType::Int), ("val", FieldType::Int)]);
    }
    let plan = PlanBuilder::source("L_T")
        .join(
            PlanBuilder::source("R_T"),
            Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0)),
        )
        .into_plan();
    e.register_plan("join", plan, ConsistencySpec::middle())
        .unwrap();
    e
}

/// A sync-ordered, retraction-heavy tape over `keys` distinct key values:
/// four arrivals per tick with overlapping 16-tick lifetimes, every third
/// event retracted (half of those fully) — one 256-message run touches
/// the same group `RUN / keys / 1.5 ≈` dozens of times.
fn tape(id_base: u64, keys: u64) -> MessageBatch {
    let mut b = StreamBuilder::with_id_base(id_base);
    for i in 0..N_EVENTS {
        let vs = i / 4;
        let e = b.insert(
            Interval::new(t(vs), t(vs + 16)),
            Payload::from_values(vec![
                Value::Int(((i ^ SEED) % keys) as i64),
                Value::Int(i as i64),
            ]),
        );
        if i % 3 == 0 {
            let keep = if i % 6 == 0 { 0 } else { 8 };
            b.retract(e.clone(), e.vs() + dur(keep));
        }
    }
    b.build_ordered(Some(dur(128)), true).into_iter().collect()
}

/// Group-aggregate run at one (workers, run-length) point: every
/// `chunk`-message round is staged and drained, so `chunk` *is* the
/// delivery-run length the module sees (a drain concatenates everything
/// staged since the last one).
fn run_agg(threads: usize, chunk: usize, batch: &MessageBatch) -> Engine {
    let mut e = agg_engine(threads);
    for round in batch.chunks_of(chunk) {
        e.enqueue_batch("TICK", &round).unwrap();
        e.run_to_quiescence();
    }
    e.seal();
    e
}

/// Join run: left and right rounds interleaved, one drain per round, so
/// each port sees `chunk`-message delivery runs.
fn run_join(threads: usize, chunk: usize, l: &MessageBatch, r: &MessageBatch) -> Engine {
    let mut e = join_engine(threads);
    let (lc, rc) = (l.chunks_of(chunk), r.chunks_of(chunk));
    for i in 0..lc.len().max(rc.len()) {
        if let Some(c) = lc.get(i) {
            e.enqueue_batch("L_T", c).unwrap();
        }
        if let Some(c) = rc.get(i) {
            e.enqueue_batch("R_T", c).unwrap();
        }
        e.run_to_quiescence();
    }
    e.seal();
    e
}

fn bench_stateful(c: &mut Criterion) {
    let agg_tape = tape(1_000_000, GROUPS);
    let (l_tape, r_tape) = (tape(2_000_000, KEYS), tape(3_000_000, KEYS));
    let mut g = c.benchmark_group("stateful_batch_native");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N_EVENTS));
    for (mode, chunk) in [("per_message", 1usize), ("batch", RUN)] {
        g.bench_function(format!("agg_{mode}"), |b| {
            b.iter(|| run_agg(1, chunk, &agg_tape))
        });
        g.bench_function(format!("join_{mode}"), |b| {
            b.iter(|| run_join(1, chunk, &l_tape, &r_tape))
        });
    }
    g.finish();

    write_summary(&agg_tape, &l_tape, &r_tape);
}

/// Time every mode explicitly and record a machine-readable summary.
fn write_summary(agg_tape: &MessageBatch, l_tape: &MessageBatch, r_tape: &MessageBatch) {
    let reps = summary_reps(5);
    let best_of = |f: &dyn Fn() -> Engine| {
        let mut best = f64::INFINITY;
        f(); // warm-up
        for _ in 0..reps {
            let start = Instant::now();
            let e = f();
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(e.query_count(), 1);
            best = best.min(elapsed);
        }
        best
    };

    // Sanity first: per-message and batch-native modes agree on every
    // net table (the collapse is a physical optimisation), and each mode
    // is bit-identical across worker counts.
    let q = QueryId(0);
    for chunk in [1usize, RUN] {
        let (a1, j1) = (
            run_agg(1, chunk, agg_tape),
            run_join(1, chunk, l_tape, r_tape),
        );
        let (a4, j4) = (
            run_agg(4, chunk, agg_tape),
            run_join(4, chunk, l_tape, r_tape),
        );
        assert_eq!(
            a1.collector(q).delta_log(),
            a4.collector(q).delta_log(),
            "aggregate diverged across workers at chunk {chunk}"
        );
        assert_eq!(
            j1.collector(q).delta_log(),
            j4.collector(q).delta_log(),
            "join diverged across workers at chunk {chunk}"
        );
    }
    let agg_pm = run_agg(1, 1, agg_tape);
    let agg_bn = run_agg(1, RUN, agg_tape);
    assert!(
        agg_pm
            .collector(q)
            .net_table()
            .star_equal(&agg_bn.collector(q).net_table()),
        "collapse changed the aggregate's net content"
    );
    let join_pm = run_join(1, 1, l_tape, r_tape);
    let join_bn = run_join(1, RUN, l_tape, r_tape);
    assert!(
        join_pm
            .collector(q)
            .net_table()
            .star_equal(&join_bn.collector(q).net_table()),
        "probe memoisation changed the join's net content"
    );
    let refreshes =
        |e: &Engine| -> u64 { e.node_stats(q).iter().map(|(_, s)| s.group_refreshes).sum() };
    let (r_pm, r_bn) = (refreshes(&agg_pm), refreshes(&agg_bn));
    assert!(
        r_bn * 4 <= r_pm,
        "expected ≥4× refresh amortisation, got {r_pm} per-message vs {r_bn} batched"
    );

    let mut s = BenchSummary::new("stateful", SEED);
    let mut secs: Vec<(String, f64)> = Vec::new();
    for workers in WORKERS {
        let agg_pm_s = best_of(&|| run_agg(workers, 1, agg_tape));
        let agg_bn_s = best_of(&|| run_agg(workers, RUN, agg_tape));
        let join_pm_s = best_of(&|| run_join(workers, 1, l_tape, r_tape));
        let join_bn_s = best_of(&|| run_join(workers, RUN, l_tape, r_tape));
        s.ratio(
            &format!("agg_batch_vs_per_message_{workers}w"),
            agg_pm_s / agg_bn_s,
        );
        s.ratio(
            &format!("join_batch_vs_per_message_{workers}w"),
            join_pm_s / join_bn_s,
        );
        secs.push((format!("agg_per_message_{workers}w_seconds"), agg_pm_s));
        secs.push((format!("agg_batch_{workers}w_seconds"), agg_bn_s));
        secs.push((format!("join_per_message_{workers}w_seconds"), join_pm_s));
        secs.push((format!("join_batch_{workers}w_seconds"), join_bn_s));
    }
    s.info("events", N_EVENTS as f64)
        .info("groups", GROUPS as f64)
        .info("join_keys", KEYS as f64)
        .info("run_messages", RUN as f64)
        .info("group_refreshes_per_message", r_pm as f64)
        .info("group_refreshes_batch", r_bn as f64);
    for (k, v) in &secs {
        s.info(k, *v);
    }
    s.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_stateful.json"
    ));
}

criterion_group!(benches, bench_stateful);
criterion_main!(benches);
