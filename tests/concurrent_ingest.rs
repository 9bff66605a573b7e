//! Concurrent ingestion end to end: the paper's order-insensitivity,
//! pinned at the tape level.
//!
//! N producer threads feed `ChannelSource`s while the engine pumps.
//! Whatever the thread interleaving, the canonical `(round, producer)`
//! admission order makes pumped execution **bit-identical to
//! single-threaded ingestion of the same logical emissions** — same
//! stamped tape, same subscription deltas, same output guarantee — at
//! Strong and Middle, across seeds × producer counts {1, 2, 4} × worker
//! counts {1, 4}. At Weak (even under a biting horizon) the pumped run
//! equals the canonical serial batch-splitting schedule — a particular
//! "some serial schedule", which is all lossy Weak promises.
//!
//! The single-threaded reference deliberately uses the **borrowed**
//! `SourceHandle` path (no channel, no pump), so the equality pins the
//! whole concurrent subsystem against the classic staged path rather
//! than against itself.

use cedr::core::prelude::*;
use cedr::streams::{scramble, MessageBatch};
use cedr::temporal::time::{dur, t};

/// Three plans covering all five operator families (stateless, aggregate,
/// join, sequence, negation).
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

const TYPES: [&str; 3] = ["A_T", "B_T", "C_T"];

/// One provider's logical stream: the event type it feeds and its
/// emissions (pre-minted, scrambled, retraction-bearing batches). The
/// emissions are the unit of determinism — *what* each producer flushes,
/// in *its own* order — while thread timing decides nothing.
fn producer_scripts(seed: u64, producers: usize) -> Vec<(&'static str, Vec<MessageBatch>)> {
    (0..producers)
        .map(|p| {
            let ty = TYPES[p % TYPES.len()];
            let mut b = StreamBuilder::with_id_base(1_000_000 * (p as u64 + 1));
            for i in 0..30u64 {
                let vs = (i * 7 + p as u64 * 5) % 160;
                let len = 5 + (i * 11 + p as u64) % 25;
                let e = b.insert(
                    Interval::new(t(vs), t(vs + len)),
                    Payload::from_values(vec![Value::Int((i % 3) as i64)]),
                );
                if i % 4 == p as u64 % 4 {
                    let keep = if i % 8 == p as u64 % 8 { 0 } else { len / 2 };
                    b.retract(e.clone(), e.vs() + dur(keep));
                }
            }
            let ordered = b.build_ordered(Some(dur(15)), true);
            let scrambled = scramble(&ordered, &DisorderConfig::heavy(seed ^ p as u64, 30, 5));
            let batches = scrambled
                .chunks(7)
                .map(|c| c.iter().cloned().collect::<MessageBatch>())
                .collect();
            (ty, batches)
        })
        .collect()
}

/// Single-threaded reference: the same emissions staged through borrowed
/// `SourceHandle`s — one flush per emission, producers visited in key
/// order, **one quiescence pass per round** (the pump's canonical
/// schedule, spelled out with no channel anywhere near it).
fn run_serial_reference(
    spec: ConsistencySpec,
    scripts: &[(&'static str, Vec<MessageBatch>)],
    threads: usize,
) -> (Engine, Vec<QueryId>) {
    let mut engine = Engine::with_config(EngineConfig::threaded(threads));
    let qs = register_queries(&mut engine, spec);
    let rounds = scripts.iter().map(|(_, b)| b.len()).max().unwrap_or(0);
    for r in 0..rounds {
        for (ty, batches) in scripts {
            if let Some(batch) = batches.get(r) {
                let mut h = engine.source(ty).unwrap().manual_flush();
                h.stage_batch(batch);
                h.flush();
                drop(h);
            }
        }
        engine.run_to_quiescence();
    }
    engine.seal();
    (engine, qs)
}

/// The concurrent run: one `ChannelSource` per producer, each on its own
/// thread with seed-dependent jitter, the engine pumping concurrently.
fn run_concurrent(
    spec: ConsistencySpec,
    scripts: &[(&'static str, Vec<MessageBatch>)],
    threads: usize,
    jitter_seed: u64,
) -> (Engine, Vec<QueryId>) {
    let mut engine = Engine::with_config(EngineConfig::threaded(threads));
    let qs = register_queries(&mut engine, spec);
    // Sources opened in producer order: keys 1..=N, deterministically.
    let sources: Vec<ChannelSource> = scripts
        .iter()
        .map(|(ty, _)| engine.channel_source(ty).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for (p, (src, (_, batches))) in sources.into_iter().zip(scripts.iter()).enumerate() {
            scope.spawn(move || {
                let mut src = src.manual_flush();
                for (i, batch) in batches.iter().enumerate() {
                    // Deterministic-per-config pseudo-jitter so different
                    // seeds exercise genuinely different interleavings.
                    let z = jitter_seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add((p as u64) << 32 | i as u64);
                    std::thread::sleep(std::time::Duration::from_micros(z % 200));
                    src.stage_batch(batch);
                    src.flush();
                }
                // Dropping `src` disconnects the producer.
            });
        }
        engine.run_pipelined().unwrap();
    });
    engine.seal();
    (engine, qs)
}

/// Bit-level comparison of two engines' query outputs: stamped tape,
/// freshly drained subscription deltas, and the output guarantee.
fn assert_bit_identical(
    label: &str,
    (a, qa): &(Engine, Vec<QueryId>),
    (b, qb): &(Engine, Vec<QueryId>),
) {
    for (qx, qy) in qa.iter().zip(qb.iter()) {
        assert_eq!(
            a.collector(*qx).delta_log(),
            b.collector(*qy).delta_log(),
            "{label}: stamped tape diverged on {}",
            a.query_name(*qx),
        );
        let (mut sa, mut sb) = (a.subscribe(*qx).unwrap(), b.subscribe(*qy).unwrap());
        assert_eq!(
            sa.drain_ready(a),
            sb.drain_ready(b),
            "{label}: subscription deltas diverged on {}",
            a.query_name(*qx),
        );
        assert_eq!(
            a.collector(*qx).max_cti(),
            b.collector(*qy).max_cti(),
            "{label}: output guarantee diverged"
        );
    }
}

#[test]
fn channel_source_is_send_and_clone() {
    fn assert_send_clone<T: Send + Clone>() {}
    assert_send_clone::<ChannelSource>();
    // The batches it carries cross threads with Arc-shared events.
    fn assert_send<T: Send>() {}
    assert_send::<MessageBatch>();
    assert_send::<Message>();
}

#[test]
fn multi_producer_runs_are_bit_identical_to_single_threaded_ingestion() {
    let levels: [(ConsistencySpec, &str); 2] = [
        (ConsistencySpec::strong(), "strong"),
        (ConsistencySpec::middle(), "middle"),
    ];
    for (spec, level) in levels {
        for seed in [0xC0FFEE_u64, 0x5EED] {
            for producers in [1usize, 2, 4] {
                let scripts = producer_scripts(seed, producers);
                for threads in [1usize, 4] {
                    let serial = run_serial_reference(spec, &scripts, threads);
                    let concurrent = run_concurrent(spec, &scripts, threads, seed ^ 0xA5);
                    assert_bit_identical(
                        &format!("{level}/seed {seed:#x}/{producers} producers/{threads} workers"),
                        &serial,
                        &concurrent,
                    );
                }
            }
        }
    }
}

#[test]
fn weak_with_biting_horizon_equals_the_canonical_serial_schedule() {
    // Weak forgets by arrival order, so all it promises under concurrency
    // is equivalence to *some* serial batch-splitting schedule. The pump
    // delivers a specific one — the canonical (round, producer) order —
    // and holds it regardless of interleaving.
    let spec = ConsistencySpec::weak(dur(25));
    for producers in [2usize, 4] {
        let scripts = producer_scripts(0xBAD5EED, producers);
        for threads in [1usize, 4] {
            let serial = run_serial_reference(spec, &scripts, threads);
            let concurrent = run_concurrent(spec, &scripts, threads, 0x77);
            // The horizon must actually bite for this to mean anything.
            let forgotten: u64 = serial.1.iter().map(|q| serial.0.stats(*q).forgotten).sum();
            assert!(forgotten > 0, "pick a tighter horizon");
            assert_bit_identical(
                &format!("weak-biting/{producers} producers/{threads} workers"),
                &serial,
                &concurrent,
            );
        }
    }
}

#[test]
fn typed_builders_mint_stable_ids_across_runs() {
    // With events minted *inside* the producer threads (insert builders),
    // IDs come from each producer's own key slice, so two concurrent runs
    // are bit-identical to each other — and to a run where the same
    // sources are driven from the main thread.
    let run = |concurrent: bool| {
        // The serial variant stages every producer's emissions from the
        // main thread *before* the pump runs, so it needs channel
        // headroom for all of them (3 producers × 6 emissions) — pin a
        // floor on top of the environment's depth (the CI stress leg
        // sets CEDR_CHANNEL_DEPTH=1, which would otherwise deadlock a
        // main-thread staging loop; backpressure itself is pinned by
        // `tiny_channel_depth_backpressures_without_changing_results`).
        let mut config = EngineConfig::from_env();
        config.channel_depth = config.channel_depth.max(32);
        let mut engine = Engine::with_config(config);
        let qs = register_queries(&mut engine, ConsistencySpec::middle());
        let sources: Vec<ChannelSource> = (0..3)
            .map(|p| engine.channel_source(TYPES[p]).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for (p, src) in sources.into_iter().enumerate() {
                let work = move |mut src: ChannelSource| {
                    for i in 0..40u64 {
                        let ev = src
                            .insert((i * 3 + p as u64) % 90, vec![Value::Int((i % 4) as i64)])
                            .unwrap();
                        if i % 5 == 0 {
                            src.retract(ev, t((i * 3 + p as u64) % 90));
                        }
                        if i % 8 == 7 {
                            src.flush();
                        }
                    }
                    src.seal();
                };
                if concurrent {
                    scope.spawn(move || work(src));
                } else {
                    work(src);
                }
            }
            engine.run_pipelined().unwrap();
        });
        engine.seal();
        (engine, qs)
    };
    let a = run(false);
    let b = run(true);
    let c = run(true);
    assert_bit_identical("typed/serial-vs-concurrent", &a, &b);
    assert_bit_identical("typed/concurrent-vs-concurrent", &b, &c);
}

#[test]
fn producers_feed_while_the_engine_drains() {
    // The pipelined topology the subsystem exists for: long streams, many
    // flushes, pump rounds interleaving with producer progress (not one
    // big batch at the end).
    let mut engine = Engine::new();
    let qs = register_queries(&mut engine, ConsistencySpec::middle());
    let sources: Vec<ChannelSource> = (0..3)
        .map(|p| engine.channel_source(TYPES[p]).unwrap())
        .collect();
    let progress = std::thread::scope(|scope| {
        for (p, src) in sources.into_iter().enumerate() {
            scope.spawn(move || {
                let mut src = src.with_autoflush(32);
                for i in 0..1_000u64 {
                    src.insert((i + p as u64) % 500, vec![Value::Int(i as i64)])
                        .unwrap();
                }
            });
        }
        engine.run_pipelined().unwrap()
    });
    assert_eq!(progress.messages, 3_000);
    assert!(
        progress.rounds > 10,
        "expected many interleaved pump rounds, got {}",
        progress.rounds
    );
    assert_eq!(progress.open_producers, 0);
    assert_eq!(progress.buffered_batches, 0);
    engine.seal();
    let inserts: usize = qs
        .iter()
        .map(|q| engine.collector(*q).stats().inserts)
        .sum();
    assert!(inserts > 0, "queries saw the traffic");
}

#[test]
fn tiny_channel_depth_backpressures_without_changing_results() {
    let scripts = producer_scripts(0xFADE, 3);
    let reference = run_serial_reference(ConsistencySpec::middle(), &scripts, 1);
    // Depth 1: every producer flush blocks until the pump takes the
    // previous emission — maximum contention, same bits.
    let mut engine = Engine::with_config(EngineConfig::serial().with_channel_depth(1));
    let qs = register_queries(&mut engine, ConsistencySpec::middle());
    let sources: Vec<ChannelSource> = scripts
        .iter()
        .map(|(ty, _)| engine.channel_source(ty).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for (src, (_, batches)) in sources.into_iter().zip(scripts.iter()) {
            scope.spawn(move || {
                let mut src = src.manual_flush();
                for batch in batches {
                    src.stage_batch(batch);
                    src.flush(); // blocks on the depth-1 channel
                }
            });
        }
        engine.run_pipelined().unwrap();
    });
    engine.seal();
    assert_bit_identical("depth-1 backpressure", &reference, &(engine, qs));
}

#[test]
fn ingress_stats_observe_staging_admission_and_backpressure() {
    let mut engine = Engine::with_config(EngineConfig::serial().with_ingress_capacity(8));
    let qs = register_queries(&mut engine, ConsistencySpec::middle());
    let mut src = engine.channel_source("A_T").unwrap();
    for i in 0..20u64 {
        src.insert(i, vec![Value::Int(i as i64)]).unwrap();
    }
    drop(src);
    engine.run_pipelined().unwrap();
    let total = engine.ingress_stats();
    assert_eq!(total.staged_batches, 1, "one emission staged");
    assert_eq!(total.staged_messages, 20);
    assert_eq!(
        (total.admitted_batches, total.admitted_messages),
        (total.staged_batches, total.staged_messages),
        "a drained engine admitted exactly what was staged"
    );
    // Backpressure counter: overflow the bounded engine ingress via the
    // try path.
    let mut big = MessageBatch::new();
    for i in 0..6u64 {
        big.push(Message::insert(
            500 + i,
            Interval::point(t(i)),
            Payload::from_values(vec![Value::Int(0)]),
        ));
    }
    engine.enqueue_batch("A_T", &big).unwrap();
    let before = engine.ingress_stats().backpressure_events;
    let err = engine.try_enqueue_batch("A_T", &big).unwrap_err();
    assert!(matches!(err, EngineError::IngressFull { .. }));
    assert_eq!(
        engine.ingress_stats().backpressure_events,
        before + 1,
        "the rejection was counted"
    );
    engine.run_to_quiescence();
    engine.seal();
    assert!(engine.collector(qs[0]).stats().inserts > 0);
}

// ---------------------------------------------------------------------
// SourceHandle drop-footgun regressions (the borrowed-handle sibling).
// ---------------------------------------------------------------------

#[test]
fn source_handle_into_inner_recovers_staged_without_flushing() {
    let mut engine = Engine::new();
    let qs = register_queries(&mut engine, ConsistencySpec::middle());
    let mut h = engine.source("A_T").unwrap().manual_flush();
    h.insert(1, vec![Value::Int(1)]).unwrap();
    h.insert(2, vec![Value::Int(2)]).unwrap();
    let staged = h.into_inner();
    assert_eq!(staged.len(), 2, "the staged batch is handed back");
    engine.run_to_quiescence();
    assert_eq!(
        engine.collector(qs[0]).stats().inserts,
        0,
        "into_inner must suppress the drop-flush"
    );
}

#[test]
fn source_handle_drop_during_unwind_does_not_double_panic() {
    // A panic while a handle holds staged messages must not run the
    // scheduler from Drop (a second panic there aborts the process). The
    // staged batch is abandoned; the unwind proceeds; the engine stays
    // usable.
    let mut engine = Engine::new();
    let qs = register_queries(&mut engine, ConsistencySpec::middle());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut h = engine.source("A_T").unwrap().manual_flush();
        h.insert(7, vec![Value::Int(7)]).unwrap();
        panic!("provider failed mid-session");
    }));
    assert!(result.is_err(), "the panic must propagate, not abort");
    engine.run_to_quiescence();
    assert_eq!(
        engine.collector(qs[0]).stats().inserts,
        0,
        "the unwound session's staged batch was abandoned, not half-flushed"
    );
    // The engine survives: a fresh session works.
    engine
        .source("A_T")
        .unwrap()
        .insert(9, vec![Value::Int(9)])
        .unwrap();
    engine.run_to_quiescence();
    assert_eq!(engine.collector(qs[0]).stats().inserts, 1);
}
