//! Durable checkpoint/restore benchmark: what a round-boundary image
//! costs, and what it buys.
//!
//! The workload is the recovery suite's all-families engine (fused
//! stateless chain, group-aggregate, join, sequence + negation) fed a
//! retraction-bearing three-stream tape. Four measurements:
//!
//! * **straight** — the unfailed run, every round then seal;
//! * **recovered** — kill at the half-way boundary: checkpoint, fresh
//!   engine, restore, replay the second half, seal (the full recovery
//!   path end to end);
//! * **checkpoint** / **restore** — the image operations alone;
//! * **replay** — re-running the first half from scratch, i.e. what
//!   recovery would cost *without* the image.
//!
//! Outputs are asserted bit-identical (stamped tape and output CTI,
//! straight vs recovered) before any number is reported. The gated
//! ratios in `BENCH_durable.json`: `restore_vs_replay` (how much faster
//! restoring the image is than recomputing it — the reason the subsystem
//! exists) and `straight_vs_recovered` (end-to-end recovery overhead,
//! which must stay near 1).

use cedr_bench::summary::{summary_reps, BenchSummary};
use cedr_core::prelude::*;
use cedr_streams::MessageBatch;
use cedr_temporal::time::{dur, t};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

const N_EVENTS: u64 = 400; // per stream
const CHUNK: usize = 16;
const SEED: u64 = 0xD07A;
const TYPES: [&str; 3] = ["A_T", "B_T", "C_T"];

/// All five operator families, same shapes as `tests/recovery.rs`.
fn build_engine() -> (Engine, Vec<QueryId>) {
    let mut engine = Engine::with_config(EngineConfig::serial());
    for ty in TYPES {
        engine.register_event_type(ty, vec![("val", FieldType::Int)]);
    }
    let sel_win = PlanBuilder::source("A_T")
        .select(Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(1i64)))
        .window(dur(30))
        .into_plan();
    let sel_agg = PlanBuilder::source("A_T")
        .select(Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(0i64)))
        .window(dur(50))
        .group_aggregate(vec![Scalar::Field(0)], AggFunc::Count)
        .into_plan();
    let join = PlanBuilder::source("A_T")
        .join(
            PlanBuilder::source("B_T"),
            Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0)),
        )
        .into_plan();
    let seq_unless = PlanBuilder::sequence(
        vec![PlanBuilder::source("A_T"), PlanBuilder::source("B_T")],
        dur(40),
        Pred::True,
    )
    .unless(PlanBuilder::source("C_T"), dur(20), Pred::True)
    .into_plan();
    let spec = ConsistencySpec::middle();
    let qs = vec![
        engine.register_plan("sel_win", sel_win, spec).unwrap(),
        engine.register_plan("sel_agg", sel_agg, spec).unwrap(),
        engine.register_plan("join", join, spec).unwrap(),
        engine
            .register_plan("seq_unless", seq_unless, spec)
            .unwrap(),
    ];
    (engine, qs)
}

/// Pre-minted, retraction-bearing rounds per stream.
fn scripts() -> Vec<(&'static str, Vec<MessageBatch>)> {
    TYPES
        .iter()
        .enumerate()
        .map(|(p, &ty)| {
            let mut b = StreamBuilder::with_id_base(1_000_000 * (p as u64 + 1));
            for i in 0..N_EVENTS {
                let vs = (i * 7 + p as u64 * 5) % 900;
                let len = 5 + (i * 11 + p as u64) % 40;
                let e = b.insert(
                    Interval::new(t(vs), t(vs + len)),
                    Payload::from_values(vec![Value::Int(((i ^ SEED) % 5) as i64)]),
                );
                if i % 4 == p as u64 % 4 {
                    b.retract(e.clone(), e.vs() + dur(len / 2));
                }
            }
            let rounds = b
                .build_ordered(Some(dur(60)), true)
                .chunks(CHUNK)
                .map(|c| c.iter().cloned().collect::<MessageBatch>())
                .collect();
            (ty, rounds)
        })
        .collect()
}

fn total_rounds(scripts: &[(&'static str, Vec<MessageBatch>)]) -> usize {
    scripts.iter().map(|(_, b)| b.len()).max().unwrap_or(0)
}

fn feed(
    engine: &mut Engine,
    scripts: &[(&'static str, Vec<MessageBatch>)],
    rounds: std::ops::Range<usize>,
) {
    for r in rounds {
        for (ty, batches) in scripts {
            if let Some(batch) = batches.get(r) {
                engine.enqueue_batch(ty, batch).unwrap();
            }
        }
        engine.run_to_quiescence();
    }
}

fn run_straight(scripts: &[(&'static str, Vec<MessageBatch>)]) -> (Engine, Vec<QueryId>) {
    let (mut engine, qs) = build_engine();
    feed(&mut engine, scripts, 0..total_rounds(scripts));
    engine.seal();
    (engine, qs)
}

/// The full recovery path: run to the boundary, checkpoint, crash,
/// restore into a fresh engine, replay the rest, seal.
fn run_recovered(scripts: &[(&'static str, Vec<MessageBatch>)]) -> (Engine, Vec<QueryId>) {
    let total = total_rounds(scripts);
    let image = {
        let (mut engine, _) = build_engine();
        feed(&mut engine, scripts, 0..total / 2);
        engine.checkpoint_to_vec().unwrap()
    };
    let (mut engine, qs) = build_engine();
    engine.restore_from_slice(&image).unwrap();
    feed(&mut engine, scripts, total / 2..total);
    engine.seal();
    (engine, qs)
}

fn bench_durable(c: &mut Criterion) {
    let scripts = scripts();
    let total = total_rounds(&scripts);

    // Engine parked at the half-way boundary, plus its image.
    let (mut at_boundary, _) = build_engine();
    feed(&mut at_boundary, &scripts, 0..total / 2);
    let image = at_boundary.checkpoint_to_vec().unwrap();

    let mut g = c.benchmark_group("durable");
    g.sample_size(10);
    g.bench_function("checkpoint", |b| {
        b.iter(|| at_boundary.checkpoint_to_vec().unwrap())
    });
    g.bench_function("restore", |b| {
        let (mut engine, _) = build_engine();
        b.iter(|| engine.restore_from_slice(&image).unwrap())
    });
    g.bench_function("recovered_end_to_end", |b| {
        b.iter(|| run_recovered(&scripts))
    });
    g.finish();

    write_summary(&scripts, &mut at_boundary, &image);
}

fn write_summary(
    scripts: &[(&'static str, Vec<MessageBatch>)],
    at_boundary: &mut Engine,
    image: &[u8],
) {
    let total = total_rounds(scripts);
    let reps = summary_reps(5);
    let best_of = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        f(); // warm-up
        for _ in 0..reps {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };

    // Sanity first: recovery is invisible at the bit level, and the image
    // of the restored engine is byte-equal to the one it came from.
    let (straight, qs) = run_straight(scripts);
    let (recovered, qr) = run_recovered(scripts);
    for (qa, qb) in qs.iter().zip(qr.iter()) {
        assert_eq!(
            straight.collector(*qa).delta_log(),
            recovered.collector(*qb).delta_log(),
            "recovered tape diverged on {}",
            straight.query_name(*qa)
        );
        assert_eq!(
            straight.collector(*qa).max_cti(),
            recovered.collector(*qb).max_cti(),
            "recovered output guarantee diverged"
        );
    }
    {
        let (mut engine, _) = build_engine();
        engine.restore_from_slice(image).unwrap();
        assert_eq!(
            engine.checkpoint_to_vec().unwrap().as_slice(),
            image,
            "checkpoint → restore → checkpoint must be byte-equal"
        );
    }

    let straight_secs = best_of(&mut || {
        run_straight(scripts);
    });
    let recovered_secs = best_of(&mut || {
        run_recovered(scripts);
    });
    let checkpoint_secs = best_of(&mut || {
        at_boundary.checkpoint_to_vec().unwrap();
    });
    let restore_secs = {
        let (mut engine, _) = build_engine();
        best_of(&mut || engine.restore_from_slice(image).unwrap())
    };
    // What recovery costs without the image: recompute the first half.
    let replay_secs = best_of(&mut || {
        let (mut engine, _) = build_engine();
        feed(&mut engine, scripts, 0..total / 2);
    });

    let mut s = BenchSummary::new("durable", SEED);
    s.ratio("restore_vs_replay", replay_secs / restore_secs)
        .ratio("straight_vs_recovered", straight_secs / recovered_secs)
        .info("events_per_stream", N_EVENTS as f64)
        .info("rounds", total as f64)
        .info("image_bytes", image.len() as f64)
        .info("checkpoint_seconds", checkpoint_secs)
        .info("restore_seconds", restore_secs)
        .info("replay_half_seconds", replay_secs)
        .info("straight_seconds", straight_secs)
        .info("recovered_seconds", recovered_secs);
    s.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_durable.json"
    ));
}

criterion_group!(benches, bench_durable);
criterion_main!(benches);
