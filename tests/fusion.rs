//! Fused-vs-unfused (and compiled-vs-interpreted) collector bit-identity.
//!
//! The plan-time fusion pass (`cedr_lang::physical`) collapses maximal
//! chains of adjacent stateless operators into single `FusedStatelessOp`
//! nodes (`cedr_runtime::fused`). Fusion changes *graph shape* — interior
//! queues, stamps and monitor admissions disappear — so its contract is
//! the third, collector-level strength of the `cedr_runtime::operator`
//! module docs: the **collector output is bit-identical** — stamped tape,
//! subscription deltas and output CTI — at every ⟨M, B⟩ consistency point.
//!
//! Fused chains additionally **compile column kernels** at registration:
//! select/project trees become closures sweeping whole payload columns
//! per delivery run instead of interpreting the stage IR per message.
//! That changes *evaluation strategy*, so the same contract gains a third
//! axis: compiled, interpreted and unfused plans must all produce the
//! identical collector output.
//!
//! These tests drive identical scrambled, retraction-bearing,
//! mid-stream-CTI workloads through compiled, interpreted and unfused
//! engines (`EngineConfig::with_fuse` / `with_compile_kernels`, the
//! in-process forms of the `CEDR_FUSE=0` / `CEDR_COMPILE=0` escape
//! hatches) and compare exact tapes across seeds × {Strong, Middle, Weak,
//! biting-horizon Weak} × worker counts {1, 4}, over chains that exercise
//! every stage family — including **partial fusion**, a chain broken by a
//! stateful group-aggregate mid-pipeline that fuses on both sides of the
//! break, **type-confused runs**, where a union below a shared fused
//! chain mixes differently-shaped payload layouts in one delivery run,
//! and **wide payloads**, where a string IN-list screen, arithmetic
//! projections and a gate on the projected payload compose.

use cedr::algebra::{DeltaFn, VsFn};
use cedr::core::prelude::*;

/// A deterministic out-of-order single-stream workload: inserts with
/// varied payload keys and lifetimes, a third retracted (half of those
/// fully), periodic CTIs, then heavy scrambling.
fn tape(seed: u64) -> Vec<Message> {
    let mut b = StreamBuilder::with_id_base(7_000);
    for i in 0..48u64 {
        let vs = (i * 7 + 3) % 210;
        let len = 4 + (i * 11) % 36;
        let e = b.insert(
            Interval::new(t(vs), t(vs + len)),
            Payload::from_values(vec![Value::Int((i % 5) as i64)]),
        );
        if i % 3 == 0 {
            let keep = if i % 6 == 0 { 0 } else { len / 2 };
            b.retract(e.clone(), e.vs() + dur(keep));
        }
    }
    let ordered = b.build_ordered(Some(dur(15)), true);
    cedr::streams::scramble(&ordered, &DisorderConfig::heavy(seed, 35, 5))
}

/// Register the fusion-relevant plans. Chain depths ≥ 2 fuse; the
/// `partial` plan's stateless runs are broken by a stateful
/// group-aggregate, so it fuses on *both* sides of the break.
fn register_queries(engine: &mut Engine, spec: ConsistencySpec) -> Vec<QueryId> {
    engine.register_event_type("A_T", vec![("val", FieldType::Int)]);
    // select → project → slice-valid: all-identity-interval head.
    let chain3 = PlanBuilder::source("A_T")
        .select(Pred::cmp(Scalar::Field(0), CmpOp::Le, Scalar::lit(3i64)))
        .project(vec![Scalar::Field(0)], vec!["v".into()])
        .slice_valid(t(10), t(190))
        .into_plan();
    // window → select → project → slice-occurrence: lifetime mapping
    // first, so the columnar prefilter and the retract-split arms run.
    let chain4 = PlanBuilder::source("A_T")
        .window(dur(30))
        .select(Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(1i64)))
        .project(vec![Scalar::Field(0)], vec!["v".into()])
        .slice_occurrence(t(0), t(180))
        .into_plan();
    // Partial fusion: fused[2] → group-aggregate (stateful) → fused[2].
    let partial = PlanBuilder::source("A_T")
        .select(Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(0i64)))
        .window(dur(40))
        .group_aggregate(vec![Scalar::Field(0)], AggFunc::Count)
        .select(Pred::cmp(Scalar::Field(1), CmpOp::Ge, Scalar::lit(1i64)))
        .slice_valid(t(0), t(200))
        .into_plan();
    // Hopping window: the non-identity `map_cti` (HopVs) composes through
    // the fused CTI cascade.
    let hopping = PlanBuilder::source("A_T")
        .alter_lifetime(VsFn::HopVs { period: 20 }, DeltaFn::Const(dur(40)))
        .project(vec![Scalar::Field(0)], vec!["v".into()])
        .into_plan();
    vec![
        engine.register_plan("chain3", chain3, spec).unwrap(),
        engine.register_plan("chain4", chain4, spec).unwrap(),
        engine.register_plan("partial", partial, spec).unwrap(),
        engine.register_plan("hopping", hopping, spec).unwrap(),
    ]
}

/// Run the tape chunked (several delivery rounds, so mid-stream CTIs
/// cascade through live boundary state) on a fused-compiled,
/// fused-interpreted or unfused engine.
fn run(
    spec: ConsistencySpec,
    tape: &[Message],
    threads: usize,
    fuse: bool,
    compile: bool,
) -> (Engine, Vec<QueryId>) {
    let mut engine = Engine::with_config(
        EngineConfig::threaded(threads)
            .with_fuse(fuse)
            .with_compile_kernels(compile),
    );
    let qs = register_queries(&mut engine, spec);
    for chunk in tape.chunks(9) {
        engine
            .enqueue_batch("A_T", &MessageBatch::from(chunk.to_vec()))
            .unwrap();
        engine.run_to_quiescence();
    }
    engine.seal();
    (engine, qs)
}

type Level = (fn() -> ConsistencySpec, &'static str);

const LEVELS: [Level; 4] = [
    (ConsistencySpec::strong, "strong"),
    (ConsistencySpec::middle, "middle"),
    (|| ConsistencySpec::weak(dur(100_000)), "weak"),
    (|| ConsistencySpec::weak(dur(20)), "weak-biting"),
];

/// The pin: across seeds × levels × worker counts, every query's stamped
/// tape, subscription delta stream and output guarantee are identical
/// between the unfused, fused-interpreted and fused-compiled graphs — and
/// each execution mode genuinely engaged (no silent fallback).
#[test]
fn fused_matches_unfused_bit_for_bit_across_seeds_levels_workers() {
    for (spec, level) in LEVELS {
        for seed in [0xA11CE_u64, 0x5EED5] {
            let tape = tape(seed);
            for threads in [1usize, 4] {
                let (unfused, qs_u) = run(spec(), &tape, threads, false, false);
                let (interp, qs_i) = run(spec(), &tape, threads, true, false);
                let (compiled, qs_c) = run(spec(), &tape, threads, true, true);
                for ((a, b), c) in qs_u.iter().zip(qs_i.iter()).zip(qs_c.iter()) {
                    let name = unfused.query_name(*a);
                    let reference = unfused.collector(*a).delta_log();
                    assert_eq!(
                        reference,
                        interp.collector(*b).delta_log(),
                        "{level}/seed {seed:#x}/threads {threads}: {name} interpreted tape diverged",
                    );
                    assert_eq!(
                        reference,
                        compiled.collector(*c).delta_log(),
                        "{level}/seed {seed:#x}/threads {threads}: {name} compiled tape diverged",
                    );
                    assert_eq!(
                        unfused.collector(*a).max_cti(),
                        interp.collector(*b).max_cti(),
                        "{level}/seed {seed:#x}/threads {threads}: {name} guarantee diverged",
                    );
                    assert_eq!(
                        unfused.collector(*a).max_cti(),
                        compiled.collector(*c).max_cti(),
                        "{level}/seed {seed:#x}/threads {threads}: {name} compiled guarantee diverged",
                    );
                    let (mut su, mut si, mut sc) = (
                        unfused.subscribe(*a).unwrap(),
                        interp.subscribe(*b).unwrap(),
                        compiled.subscribe(*c).unwrap(),
                    );
                    let deltas = su.drain_ready(&unfused);
                    assert_eq!(
                        deltas,
                        si.drain_ready(&interp),
                        "{level}/seed {seed:#x}/threads {threads}: {name} deltas diverged",
                    );
                    assert_eq!(
                        deltas,
                        sc.drain_ready(&compiled),
                        "{level}/seed {seed:#x}/threads {threads}: {name} compiled deltas diverged",
                    );
                    // Fusion genuinely engaged (no silent fallback)…
                    assert!(
                        interp.stats(*b).fused_stages >= 2,
                        "{name}: fusion did not engage",
                    );
                    assert!(
                        compiled.stats(*c).fused_stages >= 2,
                        "{name}: fusion did not engage (compiled)",
                    );
                    // …the reference graph genuinely ran unfused…
                    assert_eq!(unfused.stats(*a).fused_stages, 0);
                    // …and the compiled fast path is live: select-bearing
                    // chains swept bitmaps, while the interpreted engine
                    // never compiled a kernel.
                    if name != "hopping" {
                        assert!(
                            compiled.stats(*c).compiled_kernel_runs > 0,
                            "{name}: compiled kernels did not engage",
                        );
                    }
                    assert_eq!(
                        interp.stats(*b).compiled_kernel_runs,
                        0,
                        "{name}: interpreted engine ran compiled kernels",
                    );
                }
            }
        }
    }
}

/// Partial fusion in detail: the `partial` plan keeps its stateful
/// group-aggregate as its own shell while both flanking stateless runs
/// collapse — 2 + 2 fused stages, and strictly fewer nodes than unfused.
#[test]
fn partial_fusion_fuses_both_sides_of_a_stateful_break() {
    let spec = ConsistencySpec::middle();
    let (fused, qs_f) = run(spec, &tape(0xA11CE), 1, true, true);
    let (unfused, qs_u) = run(spec, &tape(0xA11CE), 1, false, false);
    let q = qs_f[2]; // partial
    assert_eq!(fused.stats(q).fused_stages, 4, "2 + 2 flanking stages");
    let fused_nodes = fused.node_stats(q).len();
    let unfused_nodes = unfused.node_stats(qs_u[2]).len();
    assert!(
        fused_nodes < unfused_nodes,
        "fusion should shrink the graph: {fused_nodes} vs {unfused_nodes} nodes"
    );
    let names: Vec<&str> = fused.node_stats(q).iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names.iter().filter(|n| **n == "fused").count(),
        2,
        "one fused node per flank, got {names:?}"
    );
    assert!(
        names.contains(&"group_aggregate"),
        "the stateful break stays its own shell: {names:?}"
    );
}

/// The explain surface renders the fusion outcome: collapsed chains with
/// their lengths and execution mode on a fused engine, an explicit
/// `unfused` marker on the escape hatch.
#[test]
fn explain_renders_fused_chains_and_the_escape_hatch() {
    let spec = ConsistencySpec::middle();
    let mut fused = Engine::with_config(
        EngineConfig::serial()
            .with_fuse(true)
            .with_compile_kernels(true),
    );
    let qs = register_queries(&mut fused, spec);
    let e3 = fused.explain(qs[0]);
    assert!(
        e3.contains("fused[3] compiled: select→project→slice"),
        "chain3 explain missing the compiled fused chain:\n{e3}"
    );
    let ep = fused.explain(qs[2]);
    assert!(
        ep.contains("fused[2]"),
        "partial explain missing its fused flanks:\n{ep}"
    );
    // The interpreted escape hatch is visible per chain.
    let mut interp = Engine::with_config(
        EngineConfig::serial()
            .with_fuse(true)
            .with_compile_kernels(false),
    );
    let qs_i = register_queries(&mut interp, spec);
    assert!(
        interp
            .explain(qs_i[0])
            .contains("fused[3] interpreted: select→project→slice"),
        "interpreted explain missing its mode marker:\n{}",
        interp.explain(qs_i[0])
    );
    let mut unfused = Engine::with_config(EngineConfig::serial().with_fuse(false));
    let qs_u = register_queries(&mut unfused, spec);
    assert!(
        unfused.explain(qs_u[0]).contains("physical: unfused"),
        "escape hatch must be visible in the explain:\n{}",
        unfused.explain(qs_u[0])
    );
    // Text-compiled queries get the same physical section.
    let mut text = Engine::with_config(EngineConfig::serial().with_fuse(true));
    for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
        text.register_event_type(ty, vec![("Machine_Id", FieldType::Str)]);
    }
    let q = text
        .register_query(cedr::lang::parser::CIDR07_EXAMPLE, spec)
        .unwrap();
    assert!(
        text.explain(q).contains("physical:"),
        "text-path explain missing the physical section:\n{}",
        text.explain(q)
    );
}

/// Single-message ingestion drives the fused `on_batch` with runs of one
/// (a one-row columnar view and one-row kernel sweeps per message) — same
/// pin, per message, on both execution modes.
#[test]
fn fused_per_message_path_matches_unfused() {
    for (spec, level) in LEVELS {
        let tape = tape(0x5EED5);
        let drive = |fuse: bool, compile: bool| {
            let mut engine = Engine::with_config(
                EngineConfig::serial()
                    .with_fuse(fuse)
                    .with_compile_kernels(compile),
            );
            let qs = register_queries(&mut engine, spec());
            for m in &tape {
                engine.source("A_T").unwrap().send(m.clone());
            }
            engine.seal();
            (engine, qs)
        };
        let (unfused, qs_u) = drive(false, false);
        let (interp, qs_i) = drive(true, false);
        let (compiled, qs_c) = drive(true, true);
        for ((a, b), c) in qs_u.iter().zip(qs_i.iter()).zip(qs_c.iter()) {
            let reference = unfused.collector(*a).delta_log();
            assert_eq!(
                reference,
                interp.collector(*b).delta_log(),
                "{level}: {} per-message tape diverged",
                unfused.query_name(*a),
            );
            assert_eq!(
                reference,
                compiled.collector(*c).delta_log(),
                "{level}: {} per-message compiled tape diverged",
                unfused.query_name(*a),
            );
        }
    }
}

/// Type confusion through one shared chain: two event types with
/// different payload layouts (a lone Int vs Str/Float/Int) meet in a
/// union *below* a fused select→project chain, so single delivery runs
/// mix widths and types. The payload columns must degrade to the exact
/// per-value fallback — never promote across types — and the compiled
/// sweep must reproduce `eval_payload`'s tag-ordered comparison (Str
/// outranks every Int, so all B rows pass `Field(0) ≥ 2`) and
/// out-of-width nulls (A rows project `Field(1)` as Null) bit for bit.
#[test]
fn type_confused_union_runs_share_one_fused_chain() {
    let a_tape = tape(0xA11CE);
    let b_tape = {
        let mut b = StreamBuilder::with_id_base(90_000);
        for i in 0..32u64 {
            let vs = (i * 13 + 1) % 200;
            let e = b.insert(
                Interval::new(t(vs), t(vs + 25)),
                Payload::from_values(vec![
                    Value::str(if i % 4 == 0 { "alpha" } else { "beta" }),
                    Value::Float(i as f64 * 1.5 - 8.0),
                    Value::Int(i as i64 % 7 - 3),
                ]),
            );
            if i % 5 == 0 {
                b.retract(e.clone(), e.vs() + dur(5));
            }
        }
        let ordered = b.build_ordered(Some(dur(15)), true);
        cedr::streams::scramble(&ordered, &DisorderConfig::heavy(0xB0B, 30, 4))
    };
    for (spec, level) in LEVELS {
        for threads in [1usize, 4] {
            let drive = |fuse: bool, compile: bool| {
                let mut engine = Engine::with_config(
                    EngineConfig::threaded(threads)
                        .with_fuse(fuse)
                        .with_compile_kernels(compile),
                );
                engine.register_event_type("A_T", vec![("val", FieldType::Int)]);
                engine.register_event_type(
                    "B_T",
                    vec![
                        ("name", FieldType::Str),
                        ("score", FieldType::Float),
                        ("val", FieldType::Int),
                    ],
                );
                let plan = PlanBuilder::source("A_T")
                    .union(PlanBuilder::source("B_T"))
                    .select(Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(2i64)))
                    .project(
                        vec![Scalar::Field(0), Scalar::Field(1)],
                        vec!["k".into(), "x".into()],
                    )
                    .into_plan();
                let q = engine.register_plan("confused", plan, spec()).unwrap();
                // Interleave chunks from both providers so delivery runs
                // at the fused node mix the two layouts.
                let (ca, cb): (Vec<_>, Vec<_>) =
                    (a_tape.chunks(9).collect(), b_tape.chunks(7).collect());
                for i in 0..ca.len().max(cb.len()) {
                    if let Some(chunk) = ca.get(i) {
                        engine
                            .enqueue_batch("A_T", &MessageBatch::from(chunk.to_vec()))
                            .unwrap();
                    }
                    if let Some(chunk) = cb.get(i) {
                        engine
                            .enqueue_batch("B_T", &MessageBatch::from(chunk.to_vec()))
                            .unwrap();
                    }
                    engine.run_to_quiescence();
                }
                engine.seal();
                (engine, q)
            };
            let (unfused, q_u) = drive(false, false);
            let (interp, q_i) = drive(true, false);
            let (compiled, q_c) = drive(true, true);
            let reference = unfused.collector(q_u).delta_log();
            assert!(
                !reference.is_empty(),
                "{level}/threads {threads}: workload produced no output"
            );
            assert_eq!(
                reference,
                interp.collector(q_i).delta_log(),
                "{level}/threads {threads}: interpreted tape diverged"
            );
            assert_eq!(
                reference,
                compiled.collector(q_c).delta_log(),
                "{level}/threads {threads}: compiled tape diverged"
            );
            assert!(
                compiled.stats(q_c).fused_stages >= 2
                    && compiled.stats(q_c).compiled_kernel_runs > 0,
                "{level}/threads {threads}: compiled fused chain did not engage"
            );
        }
    }
}

/// Payload-heavy chains: 8-field events (ints, floats, strings) screened
/// by an 8-literal string IN-list (an `Or` chain whose later literals the
/// compiled sweep masks to still-undecided rows) conjoined with a
/// quantity band, projected through integer and float arithmetic, then
/// gated on the *projected* payload — so the second select's kernel is
/// composed through the projection. Compiled, interpreted and unfused
/// tapes must agree bit for bit at every level, with the kernels engaged.
#[test]
fn wide_payload_in_list_chains_match_across_modes() {
    const VENUE_POOL: [&str; 8] = [
        "XADF", "XARC", "XBAT", "XBOS", "XCHI", "XCIS", "NYSE", "NASD",
    ];
    // Mostly non-matching, live venues last: the whole list is walked.
    const VENUE_SCREEN: [&str; 8] = [
        "XNGS", "XNYS", "XASE", "XPHL", "XPSX", "XBYX", "NYSE", "NASD",
    ];
    let tape: MessageBatch = {
        let mut b = StreamBuilder::with_id_base(40_000);
        for i in 0..600u64 {
            let venue = VENUE_POOL[(i.wrapping_mul(2_654_435_761) >> 7) as usize % 8];
            let e = b.insert(
                Interval::new(t(i), t(i + 12)),
                Payload::from_values(vec![
                    Value::Int((i % 4) as i64),
                    Value::Int(i as i64),
                    Value::Float(i as f64 * 0.25),
                    Value::str(venue),
                    Value::Int((i % 100) as i64),
                    Value::Float((i % 7) as f64 * 1.5),
                    Value::Int((i * 31 % 997) as i64),
                    Value::str("lot"),
                ]),
            );
            if i % 16 == 0 {
                b.retract(e.clone(), e.vs() + dur(6));
            }
        }
        let ordered = b.build_ordered(Some(dur(50)), true);
        cedr::streams::scramble(&ordered, &DisorderConfig::heavy(0x1D3, 20, 8))
            .into_iter()
            .collect()
    };
    let screen = VENUE_SCREEN
        .iter()
        .map(|s| Pred::cmp(Scalar::Field(3), CmpOp::Eq, Scalar::lit(*s)))
        .reduce(|acc, p| Pred::Or(Box::new(acc), Box::new(p)))
        .unwrap();
    for (spec, level) in LEVELS {
        let drive = |fuse: bool, compile: bool| {
            let mut engine = Engine::with_config(
                EngineConfig::serial()
                    .with_fuse(fuse)
                    .with_compile_kernels(compile),
            );
            engine.register_event_type(
                "W_T",
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
            let plan = PlanBuilder::source("W_T")
                .select(Pred::And(
                    Box::new(screen.clone()),
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
                .select(Pred::cmp(Scalar::Field(0), CmpOp::Eq, Scalar::lit(2i64)))
                .slice_valid(t(5), t(660))
                .into_plan();
            let q = engine.register_plan("wide", plan, spec()).unwrap();
            for chunk in tape.as_slice().chunks(64) {
                engine
                    .enqueue_batch("W_T", &MessageBatch::from(chunk.to_vec()))
                    .unwrap();
                engine.run_to_quiescence();
            }
            engine.seal();
            (engine, q)
        };
        let (unfused, q_u) = drive(false, false);
        let (interp, q_i) = drive(true, false);
        let (compiled, q_c) = drive(true, true);
        let reference = unfused.collector(q_u).delta_log();
        assert!(
            !reference.is_empty(),
            "{level}: the gate let nothing through"
        );
        assert_eq!(
            reference,
            interp.collector(q_i).delta_log(),
            "{level}: interpreted wide tape diverged"
        );
        assert_eq!(
            reference,
            compiled.collector(q_c).delta_log(),
            "{level}: compiled wide tape diverged"
        );
        assert!(
            compiled.stats(q_c).compiled_kernel_runs > 0,
            "{level}: compiled kernels did not engage"
        );
        assert_eq!(interp.stats(q_i).compiled_kernel_runs, 0);
    }
}
