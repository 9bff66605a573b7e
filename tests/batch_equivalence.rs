//! Batch-vs-single-event equivalence of the execution core.
//!
//! The batch-at-a-time scheduler is a *physical* optimisation: cutting a
//! stream into batches must not change the logical (net) content of any
//! query's output at any consistency level. These tests drive the same
//! scrambled, retraction-bearing input through two engines — one fed one
//! message at a time, one fed whole per-type batches — across queries
//! covering all five operator families (stateless, aggregate, join,
//! sequence, negation), and assert the sealed outputs coincide at
//! Strong, Middle and Weak consistency.
//!
//! The **stateful batch-native paths** (group-aggregate's
//! one-refresh-per-run collapse, the join's memoised probe, the
//! recompute-and-diff sequencing modes) are pinned at three strengths,
//! matching what each is contractually allowed to change (see the
//! `cedr_runtime::operator` module docs):
//!
//! * join and the Each/Reuse sequence fast path are **bit-identical** to
//!   per-message execution (exact stamped tapes);
//! * the group-aggregate collapse is bit-identical wherever delivery runs
//!   coincide (Strong's alignment-driven releases) and net-equivalent
//!   with identical output guarantees under every batch split otherwise;
//! * for a *fixed* split, every path is bit-identical across worker
//!   counts {1, 2, 4} at all levels including biting-horizon Weak.

use cedr::core::prelude::*;
use cedr::streams::{scramble, Collector, DisorderConfig, MessageBatch};
use cedr::temporal::time::{dur, t};

/// Register the same three plans (five operator families) on an engine.
fn register_queries(engine: &mut Engine, spec: ConsistencySpec) -> Vec<QueryId> {
    for ty in ["A_T", "B_T", "C_T"] {
        engine.register_event_type(ty, vec![("val", FieldType::Int)]);
    }
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
    vec![
        engine.register_plan("sel_agg", sel_agg, spec).unwrap(),
        engine.register_plan("join", join, spec).unwrap(),
        engine
            .register_plan("seq_unless", seq_unless, spec)
            .unwrap(),
    ]
}

/// A deterministic out-of-order workload: per-type scrambled streams with
/// retractions, interleaved round-robin into one `(type, message)` tape.
fn workload(seed: u64) -> Vec<(&'static str, Message)> {
    let mut streams = Vec::new();
    for (ti, ty) in ["A_T", "B_T", "C_T"].iter().enumerate() {
        let mut b = StreamBuilder::with_id_base(10_000 * ti as u64);
        for i in 0..40u64 {
            // Deterministic but irregular placements per type.
            let vs = (i * 7 + ti as u64 * 3) % 200;
            let len = 5 + (i * 11 + ti as u64) % 30;
            let e = b.insert(
                Interval::new(t(vs), t(vs + len)),
                Payload::from_values(vec![Value::Int((i % 3) as i64)]),
            );
            if i % 4 == ti as u64 % 4 {
                // Retract a quarter of them, some fully.
                let keep = if i % 8 == ti as u64 % 8 { 0 } else { len / 2 };
                b.retract(e.clone(), e.vs() + dur(keep));
            }
        }
        let ordered = b.build_ordered(Some(dur(10)), true);
        let scrambled = scramble(&ordered, &DisorderConfig::heavy(seed ^ ti as u64, 35, 5));
        streams.push((*ty, scrambled));
    }
    // Round-robin interleave, preserving each type's (disordered) order.
    let mut tape = Vec::new();
    let mut idx = [0usize; 3];
    loop {
        let mut progressed = false;
        for (s, (ty, msgs)) in streams.iter().enumerate() {
            if idx[s] < msgs.len() {
                tape.push((*ty, msgs[idx[s]].clone()));
                idx[s] += 1;
                progressed = true;
            }
        }
        if !progressed {
            return tape;
        }
    }
}

/// Drive the tape one message at a time (one cascade per message).
fn run_single(spec: ConsistencySpec, tape: &[(&'static str, Message)]) -> (Engine, Vec<QueryId>) {
    let mut engine = Engine::new();
    let qs = register_queries(&mut engine, spec);
    for (ty, m) in tape {
        engine.source(ty).unwrap().send(m.clone());
    }
    engine.seal();
    (engine, qs)
}

/// Drive the tape as one staged batch per event type, drained in one go.
fn run_batched(spec: ConsistencySpec, tape: &[(&'static str, Message)]) -> (Engine, Vec<QueryId>) {
    run_batched_threads(spec, tape, Engine::new())
}

/// Same staging, explicit engine (worker-thread configurations).
fn run_batched_threads(
    spec: ConsistencySpec,
    tape: &[(&'static str, Message)],
    mut engine: Engine,
) -> (Engine, Vec<QueryId>) {
    let qs = register_queries(&mut engine, spec);
    for ty in ["A_T", "B_T", "C_T"] {
        let batch: MessageBatch = tape
            .iter()
            .filter(|(t, _)| *t == ty)
            .map(|(_, m)| m.clone())
            .collect();
        engine.enqueue_batch(ty, &batch).unwrap();
    }
    engine.run_to_quiescence();
    engine.seal();
    (engine, qs)
}

fn assert_equivalent(spec: ConsistencySpec, level: &str) {
    let tape = workload(0xBA7C4);
    let (single, qs_s) = run_single(spec, &tape);
    let (batched, qs_b) = run_batched(spec, &tape);
    for (qs, qb) in qs_s.iter().zip(qs_b.iter()) {
        let net_s = single.collector(*qs).net_table();
        let net_b = batched.collector(*qb).net_table();
        assert!(
            net_s.star_equal(&net_b),
            "{level}/{}: single {:?} != batched {:?}",
            single.query_name(*qs),
            net_s,
            net_b,
        );
        assert_eq!(
            single.collector(*qs).max_cti(),
            batched.collector(*qb).max_cti(),
            "{level}/{}: output guarantee diverged",
            single.query_name(*qs),
        );
    }
}

#[test]
fn batched_ingestion_matches_single_at_strong() {
    assert_equivalent(ConsistencySpec::strong(), "strong");
}

#[test]
fn batched_ingestion_matches_single_at_middle() {
    assert_equivalent(ConsistencySpec::middle(), "middle");
}

#[test]
fn batched_ingestion_matches_single_at_weak() {
    // A memory bound comfortably above the workload's span: weak behaves
    // like middle here, so equivalence is exact. (With a *biting* horizon,
    // weak is deliberately lossy and batch boundaries may legitimately
    // change which repairs are forgotten.)
    assert_equivalent(ConsistencySpec::weak(dur(100_000)), "weak");
}

#[test]
fn weak_with_biting_horizon_forgets_identically_at_the_monitor() {
    // Under a horizon that actually bites, *module*-level purge cadence
    // legitimately differs between batch boundaries and per-message
    // delivery (weak is lossy by contract). But the consistency monitor
    // admits messages one at a time in both modes, so with identical
    // per-stream admission order the monitor must forget exactly the same
    // messages. The single-source query isolates that order.
    let spec = ConsistencySpec::weak(dur(20));
    let tape = workload(0xD00F);
    let (single, qs_s) = run_single(spec, &tape);
    let (batched, qs_b) = run_batched(spec, &tape);
    let (fs, fb) = (
        single.stats(qs_s[0]).forgotten,
        batched.stats(qs_b[0]).forgotten,
    );
    assert!(fs > 0, "horizon must bite for this test to mean anything");
    assert_eq!(fs, fb, "monitor-level forgetting diverged between modes");
    assert!(!batched.collector(qs_b[0]).net_table().is_empty());
}

#[test]
fn batching_introduces_no_extra_repairs_at_strong() {
    // Provider retractions legitimately propagate as view updates even at
    // Strong; what batching must never add is *optimism* repairs. Equal
    // output-retraction counts against the per-message run prove the
    // batched shell never hands a module a watermark that overtakes an
    // undelivered negator or contributor.
    let tape = workload(0xF00D);
    let (single, qs_s) = run_single(ConsistencySpec::strong(), &tape);
    let (batched, qs_b) = run_batched(ConsistencySpec::strong(), &tape);
    for (qs, qb) in qs_s.iter().zip(qs_b.iter()) {
        assert_eq!(
            single.collector(*qs).stats().retractions,
            batched.collector(*qb).stats().retractions,
            "batching changed repair traffic of {} at strong",
            batched.query_name(*qb),
        );
    }
}

#[test]
fn batched_ingestion_actually_amortises() {
    let tape = workload(0xCAFE);
    let (batched, qs) = run_batched(ConsistencySpec::middle(), &tape);
    let (single, qs_single) = run_single(ConsistencySpec::middle(), &tape);
    let stats = batched.stats(qs[0]);
    assert!(
        stats.mean_batch_len() > 1.5,
        "expected multi-message delivery runs, got mean {} over {} batches",
        stats.mean_batch_len(),
        stats.batches,
    );
    // Per-message ingestion still groups *downstream* cascades into runs,
    // but staged batches must amortise strictly better end to end.
    let single_stats = single.stats(qs_single[0]);
    assert!(
        stats.mean_batch_len() > single_stats.mean_batch_len(),
        "batched mean run {} should exceed per-message mean run {}",
        stats.mean_batch_len(),
        single_stats.mean_batch_len(),
    );
}

/// Parallel≡serial: the multi-worker drain must be **bit-identical** to
/// single-threaded execution — not merely logically equivalent — for the
/// five operator families, at every consistency level, under every worker
/// count (8 workers leave some with no query at all). Property-style:
/// seeds × levels × thread counts, comparing the exact stamped output
/// streams, output guarantees, and plan statistics — and, under a tiny
/// ingress bound, the drain schedule and ingress counters too: workers
/// split only the drain, never the bounded ingress.
#[test]
fn parallel_workers_match_serial_bit_for_bit_at_all_levels() {
    let levels: [(ConsistencySpec, &str); 4] = [
        (ConsistencySpec::strong(), "strong"),
        (ConsistencySpec::middle(), "middle"),
        (ConsistencySpec::weak(dur(100_000)), "weak"),
        // A horizon that bites: forgetting is arrival-order-sensitive, and
        // the worker split preserves per-query arrival order, so even
        // lossy Weak must not diverge across thread counts.
        (ConsistencySpec::weak(dur(20)), "weak-biting"),
    ];
    for (spec, level) in levels {
        for seed in [0xA11CE_u64, 0x5EED5] {
            let tape = workload(seed);
            let (serial, qs) =
                run_batched_threads(spec, &tape, Engine::with_config(EngineConfig::threaded(1)));
            for threads in [2, 4, 8] {
                let (par, qp) = run_batched_threads(
                    spec,
                    &tape,
                    Engine::with_config(EngineConfig::threaded(threads)),
                );
                for (a, b) in qs.iter().zip(qp.iter()) {
                    assert_eq!(
                        serial.collector(*a).delta_log(),
                        par.collector(*b).delta_log(),
                        "{level}/seed {seed:#x}/threads {threads}: {} diverged",
                        serial.query_name(*a),
                    );
                    assert_eq!(
                        serial.collector(*a).max_cti(),
                        par.collector(*b).max_cti(),
                        "{level}/threads {threads}: guarantee diverged"
                    );
                    assert_eq!(
                        serial.stats(*a),
                        par.stats(*b),
                        "{level}/threads {threads}: plan stats diverged"
                    );
                }
            }
            // Every per-type batch overflows an 8-message ingress, so each
            // admission after the first forces a drain — at the same points
            // whatever the worker count.
            let tiny = |threads| {
                Engine::with_config(EngineConfig::threaded(threads).with_ingress_capacity(8))
            };
            let (one, q1) = run_batched_threads(spec, &tape, tiny(1));
            let (four, q4) = run_batched_threads(spec, &tape, tiny(4));
            for (a, b) in q1.iter().zip(q4.iter()) {
                assert_eq!(
                    one.collector(*a).delta_log(),
                    four.collector(*b).delta_log(),
                    "{level}/seed {seed:#x}/tiny ingress: {} diverged",
                    one.query_name(*a),
                );
                assert_eq!(one.stats(*a), four.stats(*b), "{level}/tiny ingress");
            }
            assert_eq!(one.rounds_completed(), four.rounds_completed());
            assert_eq!(one.ingress_stats(), four.ingress_stats());
            assert!(one.ingress_stats().backpressure_events > 0, "the bound bit");
        }
    }
}

/// A retraction-heavy variant of [`workload`] that hammers **two** groups:
/// 60 heavily-overlapping A_T events per run land on group keys {0, 1}, a
/// third of them retracted (half fully), so a single delivery run touches
/// the same group dozens of times — the workload the one-refresh-per-run
/// group-aggregate collapse exists for. B_T supplies join partners on the
/// same two keys and C_T supplies negators.
fn stateful_workload(seed: u64) -> Vec<(&'static str, Message)> {
    let mut streams = Vec::new();
    for (ti, ty) in ["A_T", "B_T", "C_T"].iter().enumerate() {
        let n = if ti == 0 { 60u64 } else { 30 };
        let mut b = StreamBuilder::with_id_base(50_000 * ti as u64);
        for i in 0..n {
            let vs = (i * 5 + ti as u64 * 2) % 160;
            let len = 10 + (i * 13 + ti as u64) % 40;
            let e = b.insert(
                Interval::new(t(vs), t(vs + len)),
                Payload::from_values(vec![Value::Int((i % 2) as i64)]),
            );
            if i % 3 == 0 {
                let keep = if i % 6 == 0 { 0 } else { len / 3 };
                b.retract(e.clone(), e.vs() + dur(keep));
            }
        }
        let ordered = b.build_ordered(Some(dur(25)), true);
        let scrambled = scramble(
            &ordered,
            &DisorderConfig::heavy(seed ^ (ti as u64) << 3, 30, 4),
        );
        streams.push((*ty, scrambled));
    }
    let mut tape = Vec::new();
    let mut idx = [0usize; 3];
    loop {
        let mut progressed = false;
        for (s, (ty, msgs)) in streams.iter().enumerate() {
            if idx[s] < msgs.len() {
                tape.push((*ty, msgs[idx[s]].clone()));
                idx[s] += 1;
                progressed = true;
            }
        }
        if !progressed {
            return tape;
        }
    }
}

/// Staged ingestion at an explicit chunk granularity and worker count:
/// each per-type batch is cut into `chunks` pieces and the pieces are fed
/// round-robin across types, **one quiescence drain per round** — so the
/// chunk granularity genuinely determines the delivery-run lengths the
/// modules see (a drain concatenates everything staged since the last
/// one into maximal same-port runs).
fn run_chunked(
    spec: ConsistencySpec,
    tape: &[(&'static str, Message)],
    threads: usize,
    chunks: usize,
) -> (Engine, Vec<QueryId>) {
    let mut engine = Engine::with_config(EngineConfig::threaded(threads));
    let qs = register_queries(&mut engine, spec);
    let per_type: Vec<Vec<MessageBatch>> = ["A_T", "B_T", "C_T"]
        .iter()
        .map(|ty| {
            let msgs: Vec<Message> = tape
                .iter()
                .filter(|(t, _)| t == ty)
                .map(|(_, m)| m.clone())
                .collect();
            // `chunks` contiguous, near-equal pieces, earlier ones larger.
            let (base, rem) = (msgs.len() / chunks, msgs.len() % chunks);
            let mut rest = msgs.as_slice();
            (0..chunks.min(msgs.len()))
                .map(|i| {
                    let (head, tail) = rest.split_at(base + usize::from(i < rem));
                    rest = tail;
                    MessageBatch::from(head.to_vec())
                })
                .collect()
        })
        .collect();
    let rounds = per_type.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..rounds {
        for (ti, ty) in ["A_T", "B_T", "C_T"].iter().enumerate() {
            if let Some(chunk) = per_type[ti].get(r) {
                engine.enqueue_batch(ty, chunk).unwrap();
            }
        }
        engine.run_to_quiescence();
    }
    engine.seal();
    (engine, qs)
}

/// The stateful `on_batch` paths are a physical optimisation: per-message
/// ingestion and batch-native ingestion at every split granularity agree
/// on the net content and the output guarantee of every query, at Strong,
/// Middle and Weak, under 1, 2 and 4 workers. (Biting-horizon Weak is
/// deliberately split-sensitive — see
/// `weak_with_biting_horizon_forgets_identically_at_the_monitor` — and is
/// pinned across *workers* at fixed splits below.)
#[test]
fn stateful_batch_native_net_equivalent_across_seeds_levels_workers_splits() {
    let levels: [(ConsistencySpec, &str); 3] = [
        (ConsistencySpec::strong(), "strong"),
        (ConsistencySpec::middle(), "middle"),
        (ConsistencySpec::weak(dur(100_000)), "weak"),
    ];
    for (spec, level) in levels {
        for seed in [0x57A7E_u64, 0xF00D5] {
            let tape = stateful_workload(seed);
            let (single, qs_s) = run_single(spec, &tape);
            for threads in [1usize, 2, 4] {
                for chunks in [1usize, 8, 64] {
                    let (batched, qs_b) = run_chunked(spec, &tape, threads, chunks);
                    for (qs, qb) in qs_s.iter().zip(qs_b.iter()) {
                        assert!(
                            single
                                .collector(*qs)
                                .net_table()
                                .star_equal(&batched.collector(*qb).net_table()),
                            "{level}/seed {seed:#x}/threads {threads}/chunks {chunks}: \
                             {} net content diverged",
                            single.query_name(*qs),
                        );
                        assert_eq!(
                            single.collector(*qs).max_cti(),
                            batched.collector(*qb).max_cti(),
                            "{level}/threads {threads}/chunks {chunks}: guarantee diverged",
                        );
                    }
                }
            }
        }
    }
}

/// Fixed split ⇒ bit-identical across worker counts, for the stateful
/// workload, at all four levels **including biting-horizon Weak** — the
/// batch-native stateful paths must not reintroduce any thread-count
/// sensitivity.
#[test]
fn stateful_heavy_parallel_workers_bit_identical_at_all_levels() {
    let levels: [(ConsistencySpec, &str); 4] = [
        (ConsistencySpec::strong(), "strong"),
        (ConsistencySpec::middle(), "middle"),
        (ConsistencySpec::weak(dur(100_000)), "weak"),
        (ConsistencySpec::weak(dur(20)), "weak-biting"),
    ];
    for (spec, level) in levels {
        for seed in [0xBA5E_u64, 0xFACE] {
            let tape = stateful_workload(seed);
            let (serial, qs) = run_chunked(spec, &tape, 1, 8);
            for threads in [2usize, 4] {
                let (par, qp) = run_chunked(spec, &tape, threads, 8);
                for (a, b) in qs.iter().zip(qp.iter()) {
                    assert_eq!(
                        serial.collector(*a).delta_log(),
                        par.collector(*b).delta_log(),
                        "{level}/seed {seed:#x}/threads {threads}: {} diverged",
                        serial.query_name(*a),
                    );
                    assert_eq!(serial.stats(*a), par.stats(*b));
                }
            }
        }
    }
}

/// Forwards every delivery to the wrapped module in **runs of one** —
/// classic per-message view maintenance, the semantic reference every
/// longer run is held to.
struct PerMessage<M>(M);

impl<M: cedr::runtime::OperatorModule> cedr::runtime::OperatorModule for PerMessage<M> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn arity(&self) -> usize {
        self.0.arity()
    }
    fn on_batch(&mut self, input: usize, msgs: &[Message], ctx: &mut cedr::runtime::OpContext) {
        for m in msgs {
            self.0.on_batch(input, std::slice::from_ref(m), ctx);
        }
    }
    fn on_advance(&mut self, ctx: &mut cedr::runtime::OpContext) {
        self.0.on_advance(ctx)
    }
    fn state_size(&self) -> usize {
        self.0.state_size()
    }
    fn cti_lag(&self) -> cedr::temporal::Duration {
        self.0.cti_lag()
    }
    fn map_cti(&self, watermark: cedr::temporal::TimePoint) -> cedr::temporal::TimePoint {
        self.0.map_cti(watermark)
    }
}

/// Cut the interleaved tape into per-port delivery batches (consecutive
/// same-port messages, capped at 9) for the given type → port mapping.
fn port_batches(
    tape: &[(&'static str, Message)],
    map: &[(&'static str, usize)],
) -> Vec<(usize, Vec<Message>)> {
    let mut out: Vec<(usize, Vec<Message>)> = Vec::new();
    for (ty, m) in tape {
        let Some(&(_, port)) = map.iter().find(|(t, _)| t == ty) else {
            continue;
        };
        match out.last_mut() {
            Some((p, chunk)) if *p == port && chunk.len() < 9 => chunk.push(m.clone()),
            _ => out.push((port, vec![m.clone()])),
        }
    }
    out
}

/// Drive identical delivery batches through a module's batch-native
/// override and through the runs-of-one reference; return both shells'
/// full output tapes.
fn override_vs_fallback<M: cedr::runtime::OperatorModule + 'static>(
    native: M,
    fallback: M,
    spec: ConsistencySpec,
    batches: &[(usize, Vec<Message>)],
) -> (Vec<Vec<Message>>, Vec<Vec<Message>>) {
    use cedr::runtime::OperatorShell;
    let mut a = OperatorShell::new(Box::new(native), spec);
    let mut b = OperatorShell::new(Box::new(PerMessage(fallback)), spec);
    let mut oa = Vec::new();
    let mut ob = Vec::new();
    for (now, (port, chunk)) in batches.iter().enumerate() {
        oa.push(a.push_batch(*port, chunk, now as u64));
        ob.push(b.push_batch(*port, chunk, now as u64));
    }
    (oa, ob)
}

/// The join's memoised batch probe, the Each/Reuse sequence fast path and
/// negation's batch-grained index admission must be **bit-identical** to
/// the runs-of-one reference on the same delivery runs — batch for batch,
/// byte for byte — at every level including biting-horizon Weak.
#[test]
fn join_sequence_negation_overrides_bit_identical_to_fallback() {
    use cedr::runtime::prelude::{JoinOp, NegationOp, SequenceOp};
    let levels: [(ConsistencySpec, &str); 4] = [
        (ConsistencySpec::strong(), "strong"),
        (ConsistencySpec::middle(), "middle"),
        (ConsistencySpec::weak(dur(100_000)), "weak"),
        (ConsistencySpec::weak(dur(20)), "weak-biting"),
    ];
    let equi = || {
        JoinOp::new(Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0)))
            .with_keys(Scalar::Field(0), Scalar::Field(0))
    };
    let seq = || SequenceOp::new(2, dur(40), Pred::True);
    let neg = || NegationOp::unless(dur(20), Pred::True);
    for (spec, level) in levels {
        for seed in [0xBA7C4_u64, 0x57A7E] {
            let tape = stateful_workload(seed);
            let ab = port_batches(&tape, &[("A_T", 0), ("B_T", 1)]);
            let ac = port_batches(&tape, &[("A_T", 0), ("C_T", 1)]);
            for (name, (oa, ob)) in [
                ("join", override_vs_fallback(equi(), equi(), spec, &ab)),
                ("sequence", override_vs_fallback(seq(), seq(), spec, &ab)),
                ("unless", override_vs_fallback(neg(), neg(), spec, &ac)),
            ] {
                assert_eq!(
                    oa, ob,
                    "{level}/seed {seed:#x}: {name} batch-native override \
                     diverged from the runs-of-one reference"
                );
            }
        }
    }
}

/// The group-aggregate override against the runs-of-one reference on the
/// same delivery runs: the collapsed tape publishes strictly less repair
/// churn, but net content per run boundary — and the final table — are
/// identical at every level including biting-horizon Weak.
#[test]
fn group_aggregate_override_net_equivalent_to_fallback() {
    use cedr::runtime::prelude::GroupAggregateOp;
    let levels: [(ConsistencySpec, &str); 4] = [
        (ConsistencySpec::strong(), "strong"),
        (ConsistencySpec::middle(), "middle"),
        (ConsistencySpec::weak(dur(100_000)), "weak"),
        (ConsistencySpec::weak(dur(20)), "weak-biting"),
    ];
    let agg = || GroupAggregateOp::new(vec![Scalar::Field(0)], AggFunc::Count);
    for (spec, level) in levels {
        for seed in [0xC0117_u64, 0xF00D5] {
            let tape = stateful_workload(seed);
            let batches = port_batches(&tape, &[("A_T", 0)]);
            let (oa, ob) = override_vs_fallback(agg(), agg(), spec, &batches);
            let collect = |outs: &[Vec<Message>]| {
                let mut c = Collector::new();
                c.push_all(outs.iter().flatten().cloned());
                c
            };
            let (ca, cb) = (collect(&oa), collect(&ob));
            assert!(
                ca.net_table().star_equal(&cb.net_table()),
                "{level}/seed {seed:#x}: collapse changed the aggregate's net content"
            );
            assert_eq!(ca.max_cti(), cb.max_cti(), "{level}: guarantee diverged");
            assert!(
                ca.stats().data_messages <= cb.stats().data_messages,
                "{level}: the collapse can only ever publish less churn"
            );
        }
    }
}

/// The retraction-heavy group workload, staged as one big batch: a single
/// delivery run touches each group dozens of times, and the collapse emits
/// **one refresh per touched group per run** — per-message execution pays
/// one refresh per state-changing message. Net content and guarantee are
/// identical; the batched tape publishes strictly less repair churn.
#[test]
fn group_aggregate_collapses_to_one_refresh_per_touched_group_per_run() {
    let tape = stateful_workload(0xC0117);
    let (single, qs_s) = run_single(ConsistencySpec::middle(), &tape);
    let (batched, qs_b) = run_batched(ConsistencySpec::middle(), &tape);
    let q_s = qs_s[0]; // sel_agg
    let q_b = qs_b[0];

    assert!(
        single
            .collector(q_s)
            .net_table()
            .star_equal(&batched.collector(q_b).net_table()),
        "collapse changed the net content"
    );
    assert_eq!(
        single.collector(q_s).max_cti(),
        batched.collector(q_b).max_cti()
    );

    let refreshes = |e: &Engine, q: QueryId| -> u64 {
        e.node_stats(q).iter().map(|(_, s)| s.group_refreshes).sum()
    };
    let (rs, rb) = (refreshes(&single, q_s), refreshes(&batched, q_b));
    assert!(
        rb * 2 <= rs,
        "expected ≥2× refresh amortisation from the collapse, got {rs} per-message vs {rb} batched"
    );
    // The join query in the same batched run exercised the memoised probe.
    let probe_batches: u64 = batched
        .node_stats(qs_b[1])
        .iter()
        .map(|(_, s)| s.probe_batches)
        .sum();
    assert!(
        probe_batches > 0,
        "join never took the batch-native probe path"
    );
    // Collapsed runs publish strictly fewer optimistic repairs…
    assert!(
        batched.collector(q_b).stats().retractions < single.collector(q_s).stats().retractions,
        "collapse should suppress intermediate repair churn"
    );
    // …and at Strong, where delivery runs are alignment-driven and thus
    // coincide between the two ingestion modes, the collapse reproduces
    // the per-message tape bit for bit.
    let (strong_single, qs1) = run_single(ConsistencySpec::strong(), &tape);
    let (strong_batched, qs2) = run_batched(ConsistencySpec::strong(), &tape);
    assert_eq!(
        strong_single.collector(qs1[0]).delta_log(),
        strong_batched.collector(qs2[0]).delta_log(),
        "strong-level group-aggregate tape must be bit-identical"
    );
}

#[test]
fn all_five_operator_families_deliver_through_on_batch() {
    let tape = workload(0xBEEF);
    let (batched, qs) = run_batched(ConsistencySpec::middle(), &tape);
    for q in qs {
        for (name, stats) in batched.node_stats(q) {
            if stats.released > 0 {
                assert!(
                    stats.batches > 0,
                    "operator {name} released {} messages outside on_batch",
                    stats.released,
                );
            }
        }
    }
}
