//! Fused-vs-unfused stateless pipelines: the perf claim behind the
//! plan-time fusion pass (`cedr_lang::physical`) and the columnar
//! `FusedStatelessOp` (`cedr_runtime::fused`).
//!
//! Workload: 8 standing queries over one input stream, each a stateless
//! chain of depth ≥ 3 (select → project → slice, half of them with a
//! window in front). Unfused, every operator is its own shell — one
//! queue hop, one stamp and one consistency-monitor admission per
//! message per stage. Fused, each chain is one shell evaluating the
//! composed stage IR in a single pass per run over the columnar batch
//! view. Both engines consume the **same canonical schedule** — the
//! identical ordered tape, in identical chunks — back to back, and the
//! harness asserts their stamped collector tapes are bit-identical
//! before it reports a single number.
//!
//! A second, **payload-heavy** workload measures the compiled-kernel
//! claim (`cedr_algebra::kernel`): wide 8-field events (ints, floats,
//! strings) screened by an 8-literal venue IN-list, a quantity band, an
//! arithmetic projection and a projected symbol gate. Interpreted
//! evaluation walks the predicate tree per row — one payload `Value`
//! clone (an `Arc` bump) per IN-list literal per row — while the
//! compiled chain builds the venue column once per run, sweeps it per
//! literal with later literals masked to undecided rows, and drops
//! non-survivors before they become per-message work at all. Compiled,
//! interpreted and unfused tapes are asserted bit-identical at every
//! consistency level (Strong, Middle, Weak) before any number is
//! reported.
//!
//! Emits `BENCH_fused.json` at the repository root; the
//! `fused_vs_unfused` and `compiled_vs_interpreted` speedup ratios are
//! gated by the CI `bench-regression` job against the committed baseline.

use cedr_bench::summary::{summary_reps, BenchSummary};
use cedr_core::prelude::*;
use cedr_streams::MessageBatch;
use cedr_temporal::time::dur;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;

const N_EVENTS: u64 = 4_000;
const N_QUERIES: usize = 8;
const CHUNK: usize = 256;

const N_WIDE_EVENTS: u64 = 8_000;
const N_WIDE_QUERIES: usize = 6;
const WIDE_CHUNK: usize = 2_048;

/// The venues events actually carry (uniform via a multiplicative hash).
const VENUE_POOL: [&str; 8] = [
    "XADF", "XARC", "XBAT", "XBOS", "XCHI", "XCIS", "NYSE", "NASD",
];
/// The whitelist every wide query screens against: mostly non-matching
/// MICs (the realistic shape of a venue whitelist) with the two live
/// venues last, so the interpreter's left-to-right short-circuit must
/// walk essentially the whole list on every row.
const VENUE_SCREEN: [&str; 8] = [
    "XNGS", "XNYS", "XASE", "XPHL", "XPSX", "XBYX", "NYSE", "NASD",
];

/// `field ∈ {lits}` as the algebra spells it: a left-associated chain of
/// `Or`-ed equality comparisons.
fn in_list(j: usize, lits: &[&str]) -> Pred {
    lits.iter()
        .map(|s| Pred::cmp(Scalar::Field(j), CmpOp::Eq, Scalar::lit(*s)))
        .reduce(|acc, p| Pred::Or(Box::new(acc), Box::new(p)))
        .expect("non-empty literal list")
}

/// An engine with `N_QUERIES` stateless-chain queries over one stream,
/// with the fusion pass on or off. Chains alternate between depth 3
/// (select → project → slice-valid) and depth 4 (window → select →
/// project → slice-occurrence) so both the identity-lifetime head and
/// the lifetime-mapping head are on the measured path.
fn engine(fuse: bool) -> Engine {
    let mut e = Engine::with_config(
        EngineConfig::serial()
            .with_fuse(fuse)
            .with_compile_kernels(true),
    );
    e.register_event_type(
        "TICK",
        vec![("sym", FieldType::Int), ("px", FieldType::Int)],
    );
    for i in 0..N_QUERIES {
        let b = PlanBuilder::source("TICK");
        let b = if i % 2 == 0 { b.window(dur(40)) } else { b };
        let b = b
            .select(Pred::cmp(
                Scalar::Field(0),
                CmpOp::Ge,
                Scalar::lit((i % 4) as i64),
            ))
            .project(
                vec![Scalar::Field(0), Scalar::Field(1)],
                vec!["sym".into(), "px".into()],
            );
        let plan = if i % 2 == 0 {
            b.slice_occurrence(t(0), t(N_EVENTS + 100)).into_plan()
        } else {
            b.slice_valid(t(5 + i as u64), t(N_EVENTS + 60)).into_plan()
        };
        e.register_plan(&format!("q{i}"), plan, ConsistencySpec::middle())
            .unwrap();
    }
    e
}

/// The canonical schedule both engines consume: an ordered tape with
/// periodic CTIs and a sprinkling of retractions, so the fused boundary
/// emulation (alignment, forgetting, CTI cascade) is on the clock too.
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

/// Run the whole tape in fixed chunks: several delivery rounds, one
/// quiescence pass each — the batched steady state.
fn run(msgs: &MessageBatch, fuse: bool) -> Engine {
    let mut e = engine(fuse);
    for chunk in msgs.chunks_of(CHUNK) {
        e.enqueue_batch("TICK", &chunk).unwrap();
        e.run_to_quiescence();
    }
    e.seal();
    e
}

/// An engine with `N_WIDE_QUERIES` payload-heavy chains over one wide
/// stream, at an explicit ⟨fuse, compile, spec⟩ point. Each chain is
/// select → project → select → slice over 8-field events: a venue
/// whitelist screen (the 8-literal IN-list above, ~25 % pass) conjoined
/// with a quantity band, an arithmetic projection, then a selective
/// symbol gate on the projected payload (~1 % survive overall).
/// Interpreted, every row re-reads the venue attribute — one payload
/// `Value` clone per IN-list literal per row — before it can be
/// rejected; compiled, the venue column is built once per run and swept
/// per literal, each literal masked to the rows the previous ones left
/// undecided, and the head's bitmap drops ~85 % of rows before they
/// become per-message work at all.
fn wide_engine(fuse: bool, compile: bool, spec: ConsistencySpec) -> Engine {
    let mut e = Engine::with_config(
        EngineConfig::serial()
            .with_fuse(fuse)
            .with_compile_kernels(compile),
    );
    e.register_event_type(
        "TICK_W",
        vec![
            ("sym", FieldType::Int),
            ("px", FieldType::Int),
            ("ratio", FieldType::Float),
            ("venue", FieldType::Str),
            ("qty", FieldType::Int),
            ("fee", FieldType::Float),
            ("seq", FieldType::Int),
            ("tag", FieldType::Str),
        ],
    );
    for i in 0..N_WIDE_QUERIES {
        let plan = PlanBuilder::source("TICK_W")
            .select(Pred::And(
                Box::new(in_list(3, &VENUE_SCREEN)),
                Box::new(Pred::cmp(Scalar::Field(4), CmpOp::Lt, Scalar::lit(60i64))),
            ))
            .project(
                vec![
                    Scalar::Field(0),
                    Scalar::Add(Box::new(Scalar::Field(1)), Box::new(Scalar::Field(6))),
                    Scalar::Mul(Box::new(Scalar::Field(2)), Box::new(Scalar::Field(5))),
                    Scalar::Field(3),
                ],
                vec!["sym".into(), "px_seq".into(), "cost".into(), "venue".into()],
            )
            .select(Pred::cmp(
                Scalar::Field(0),
                CmpOp::Eq,
                Scalar::lit((2 * i) as i64),
            ))
            .slice_valid(t(5), t(N_WIDE_EVENTS + 60))
            .into_plan();
        e.register_plan(&format!("w{i}"), plan, spec).unwrap();
    }
    e
}

/// The wide canonical schedule: 8-field payloads mixing ints, floats and
/// strings. Venues are drawn uniformly from [`VENUE_POOL`] through a
/// multiplicative hash so the screen's pass set is decorrelated from the
/// symbol gate; retractions and CTIs keep the boundary emulation on the
/// clock.
fn wide_workload() -> MessageBatch {
    let mut b = StreamBuilder::new();
    for i in 0..N_WIDE_EVENTS {
        let venue = VENUE_POOL[(i.wrapping_mul(2_654_435_761) >> 7) as usize % 8];
        let e = b.insert(
            Interval::new(t(i), t(i + 12)),
            Payload::from_values(vec![
                Value::Int((i % 16) as i64),
                Value::Int(i as i64),
                Value::Float(i as f64 * 0.25),
                Value::str(venue),
                Value::Int((i % 100) as i64),
                Value::Float((i % 7) as f64 * 1.5),
                Value::Int((i * 31 % 997) as i64),
                Value::str("lot"),
            ]),
        );
        if i % 32 == 0 {
            b.retract(e.clone(), e.vs() + dur(6));
        }
    }
    MessageBatch::from(b.build_ordered(Some(dur(500)), true))
}

fn run_wide(msgs: &MessageBatch, fuse: bool, compile: bool, spec: ConsistencySpec) -> Engine {
    let mut e = wide_engine(fuse, compile, spec);
    for chunk in msgs.chunks_of(WIDE_CHUNK) {
        e.enqueue_batch("TICK_W", &chunk).unwrap();
        e.run_to_quiescence();
    }
    e.seal();
    e
}

fn bench_fused(c: &mut Criterion) {
    let msgs = workload();
    let mut g = c.benchmark_group("fused_8_chains");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N_EVENTS));
    g.bench_function("unfused", |b| b.iter(|| run(&msgs, false)));
    g.bench_function("fused", |b| b.iter(|| run(&msgs, true)));
    g.finish();

    let wide = wide_workload();
    let mut g = c.benchmark_group("fused_wide_chains");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N_WIDE_EVENTS));
    let middle = ConsistencySpec::middle();
    g.bench_function("interpreted", |b| {
        b.iter(|| run_wide(&wide, true, false, middle))
    });
    g.bench_function("compiled", |b| {
        b.iter(|| run_wide(&wide, true, true, middle))
    });
    g.finish();

    write_summary(&msgs, &wide);
}

/// Best-of timing with fused/unfused reps interleaved, so machine drift
/// biases both columns equally; then the bit-identity check that makes
/// the ratio meaningful — a fused engine that produced a different tape
/// would be fast and wrong.
fn write_summary(msgs: &MessageBatch, wide: &MessageBatch) {
    let reps = summary_reps(7);
    let mut best = [f64::INFINITY; 2];
    for fuse in [false, true] {
        run(msgs, fuse); // warm-up
    }
    for _ in 0..reps {
        for (slot, fuse) in [false, true].into_iter().enumerate() {
            let start = Instant::now();
            let e = run(msgs, fuse);
            let elapsed = start.elapsed().as_secs_f64();
            assert!(e.query_count() == N_QUERIES);
            best[slot] = best[slot].min(elapsed);
        }
    }
    let [unfused_s, fused_s] = best;

    let unfused = run(msgs, false);
    let fused = run(msgs, true);
    let mut fused_stages = 0u64;
    for q in 0..N_QUERIES {
        let q = QueryId(q);
        assert_eq!(
            unfused.collector(q).delta_log(),
            fused.collector(q).delta_log(),
            "fused tape diverged on {q:?}"
        );
        assert!(fused.stats(q).fused_stages >= 3, "fusion did not engage");
        assert_eq!(unfused.stats(q).fused_stages, 0);
        fused_stages += fused.stats(q).fused_stages;
    }

    // Wide workload: the bit-identity check at every consistency level
    // first — a compiled chain that produced a different tape would be
    // fast and wrong — then interleaved best-of compiled vs interpreted.
    for (spec, level) in [
        (ConsistencySpec::strong(), "strong"),
        (ConsistencySpec::middle(), "middle"),
        (ConsistencySpec::weak(dur(100_000)), "weak"),
    ] {
        let reference = run_wide(wide, false, false, spec);
        let interp = run_wide(wide, true, false, spec);
        let compiled = run_wide(wide, true, true, spec);
        for q in 0..N_WIDE_QUERIES {
            let q = QueryId(q);
            let tape = reference.collector(q).delta_log();
            assert_eq!(
                tape,
                interp.collector(q).delta_log(),
                "{level}: interpreted wide tape diverged on {q:?}"
            );
            assert_eq!(
                tape,
                compiled.collector(q).delta_log(),
                "{level}: compiled wide tape diverged on {q:?}"
            );
            assert!(
                compiled.stats(q).compiled_kernel_runs > 0,
                "{level}: compiled kernels did not engage on {q:?}"
            );
            assert_eq!(interp.stats(q).compiled_kernel_runs, 0);
        }
    }
    let middle = ConsistencySpec::middle();
    let mut wide_best = [f64::INFINITY; 2];
    for compile in [false, true] {
        run_wide(wide, true, compile, middle); // warm-up
    }
    for _ in 0..reps {
        for (slot, compile) in [false, true].into_iter().enumerate() {
            let start = Instant::now();
            let e = run_wide(wide, true, compile, middle);
            let elapsed = start.elapsed().as_secs_f64();
            assert!(e.query_count() == N_WIDE_QUERIES);
            wide_best[slot] = wide_best[slot].min(elapsed);
        }
    }
    let [interpreted_s, compiled_s] = wide_best;

    let mut s = BenchSummary::new("fused", 0);
    s.ratio("fused_vs_unfused", unfused_s / fused_s);
    s.ratio("compiled_vs_interpreted", interpreted_s / compiled_s);
    s.info("events", N_EVENTS as f64)
        .info("queries", N_QUERIES as f64)
        .info("chunk", CHUNK as f64)
        .info("unfused_seconds", unfused_s)
        .info("fused_seconds", fused_s)
        .info("fused_stages_total", fused_stages as f64)
        .info("wide_events", N_WIDE_EVENTS as f64)
        .info("wide_queries", N_WIDE_QUERIES as f64)
        .info("interpreted_seconds", interpreted_s)
        .info("compiled_seconds", compiled_s);
    s.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fused.json"
    ));
}

criterion_group!(benches, bench_fused);
criterion_main!(benches);
