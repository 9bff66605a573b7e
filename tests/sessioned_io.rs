//! Sessioned I/O correctness: the `SourceHandle`/`Subscription` surface
//! must be a *view change*, not a semantics change.
//!
//! * A subscription's drained `OutputDelta` stream equals the collector's
//!   delta log **bit for bit** — same entries, same order, same CEDR
//!   times — across seeds × Strong/Middle/Weak (loose and biting horizon)
//!   × worker counts, including mid-stream cursor resume after partial
//!   drains.
//! * Handle staging is bit-identical to engine-level staging at matching
//!   granularity (`stage_batch`+`flush` ≡ `enqueue_batch`).

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

/// A deterministic out-of-order workload with retractions, as one
/// interleaved `(type, message)` tape.
fn workload(seed: u64) -> Vec<(&'static str, Message)> {
    let mut streams = Vec::new();
    for (ti, ty) in ["A_T", "B_T", "C_T"].iter().enumerate() {
        let mut b = StreamBuilder::with_id_base(10_000 * ti as u64);
        for i in 0..40u64 {
            let vs = (i * 7 + ti as u64 * 3) % 200;
            let len = 5 + (i * 11 + ti as u64) % 30;
            let e = b.insert(
                Interval::new(t(vs), t(vs + len)),
                Payload::from_values(vec![Value::Int((i % 3) as i64)]),
            );
            if i % 4 == ti as u64 % 4 {
                let keep = if i % 8 == ti as u64 % 8 { 0 } else { len / 2 };
                b.retract(e.clone(), e.vs() + dur(keep));
            }
        }
        let ordered = b.build_ordered(Some(dur(10)), true);
        let scrambled = scramble(&ordered, &DisorderConfig::heavy(seed ^ ti as u64, 35, 5));
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

type LevelSpec = fn() -> ConsistencySpec;

const LEVELS: [(LevelSpec, &str); 4] = [
    (ConsistencySpec::strong, "strong"),
    (ConsistencySpec::middle, "middle"),
    (|| ConsistencySpec::weak(dur(100_000)), "weak"),
    (|| ConsistencySpec::weak(dur(20)), "weak-biting"),
];

/// Subscriptions drained incrementally — partial `take` cuts of varying
/// width interleaved with chunked handle ingestion, cursor resume after
/// every cut — reconstruct exactly the collector's delta log, at every
/// level, seed, and worker count.
#[test]
fn subscription_deltas_match_the_log_bit_for_bit() {
    for (spec, level) in LEVELS {
        for seed in [0x5E55_u64, 0x10CA1] {
            for threads in [1usize, 4] {
                let mut engine = Engine::with_config(EngineConfig::threaded(threads));
                let qs = register_queries(&mut engine, spec());
                let mut subs: Vec<Subscription> =
                    qs.iter().map(|q| engine.subscribe(*q).unwrap()).collect();
                let mut collected: Vec<Vec<OutputDelta>> = vec![Vec::new(); qs.len()];

                let tape = workload(seed);
                // Vary both the ingestion chunking and the drain width
                // deterministically per round.
                let mut cut = (seed as usize % 5) + 1;
                for chunk in tape.chunks(16) {
                    for ty in ["A_T", "B_T", "C_T"] {
                        let batch: MessageBatch = chunk
                            .iter()
                            .filter(|(t, _)| *t == ty)
                            .map(|(_, m)| m.clone())
                            .collect();
                        if !batch.is_empty() {
                            engine.source(ty).unwrap().stage_batch(&batch);
                        }
                    }
                    engine.run_to_quiescence();
                    // Partial drains: consume at most `cut` deltas per
                    // query this round; the rest stays for later polls.
                    for (sub, got) in subs.iter_mut().zip(collected.iter_mut()) {
                        let before = sub.position();
                        let drained = sub.take(&engine, cut);
                        assert_eq!(sub.position(), before + drained.len());
                        got.extend(drained.iter().cloned());
                    }
                    cut = cut % 7 + 1;
                }
                engine.seal();
                for (sub, got) in subs.iter_mut().zip(collected.iter_mut()) {
                    got.extend(sub.poll(&mut engine).iter().cloned());
                    assert_eq!(sub.pending(&engine), 0, "poll must drain to the end");
                }

                for ((q, sub), got) in qs.iter().zip(&subs).zip(&collected) {
                    let want = engine.collector(*q).delta_log();
                    assert_eq!(
                        got,
                        want,
                        "{level}/seed {seed:#x}/threads {threads}: {} subscription \
                         diverged from the delta log",
                        engine.query_name(*q),
                    );
                    assert_eq!(sub.position(), want.len());
                }
            }
        }
    }
}

/// A consumer that subscribes mid-stream, skips history, and resumes
/// across further ingestion sees exactly the suffix of the change stream.
#[test]
fn mid_stream_subscription_resume() {
    let mut engine = Engine::new();
    let qs = register_queries(&mut engine, ConsistencySpec::middle());
    let q = qs[0];
    let tape = workload(0xACE);
    let (first, rest) = tape.split_at(tape.len() / 2);

    let feed = |engine: &mut Engine, part: &[(&'static str, Message)]| {
        for ty in ["A_T", "B_T", "C_T"] {
            let batch: MessageBatch = part
                .iter()
                .filter(|(t, _)| *t == ty)
                .map(|(_, m)| m.clone())
                .collect();
            if !batch.is_empty() {
                engine.source(ty).unwrap().stage_batch(&batch);
            }
        }
        engine.run_to_quiescence();
    };

    feed(&mut engine, first);
    // Late consumer: skip everything logged so far.
    let mut late = engine.subscribe(q).unwrap();
    let skipped = engine.collector(q).delta_log().len();
    late.skip_to_end(&engine);
    assert_eq!(late.position(), skipped);
    assert!(late.poll(&mut engine).is_empty());

    feed(&mut engine, rest);
    engine.seal();
    let suffix: Vec<OutputDelta> = late.poll(&mut engine).to_vec();
    assert_eq!(
        suffix.as_slice(),
        &engine.collector(q).delta_log()[skipped..],
        "resumed cursor must observe exactly the suffix"
    );

    // And a from-the-start subscription still sees everything, including
    // through the callback sink.
    let mut full = engine.subscribe(q).unwrap();
    let mut seen = 0usize;
    let n = full.for_each(&mut engine, |_| seen += 1);
    assert_eq!(n, seen);
    assert_eq!(n, engine.collector(q).delta_log().len());
}

/// A sink that panics mid-drain loses nothing: the cursor advances only
/// after each callback returns, so the failed delta (and everything
/// after it) is re-delivered on the next drain.
#[test]
fn for_each_redelivers_after_a_panicking_sink() {
    let mut engine = Engine::new();
    let qs = register_queries(&mut engine, ConsistencySpec::middle());
    let q = qs[0];
    for ty in ["A_T", "B_T", "C_T"] {
        let batch: MessageBatch = workload(0xD1E)
            .iter()
            .filter(|(t, _)| *t == ty)
            .map(|(_, m)| m.clone())
            .collect();
        engine.source(ty).unwrap().stage_batch(&batch);
    }
    engine.seal();
    let total = engine.collector(q).delta_log().len();
    assert!(
        total > 2,
        "need several deltas for the test to mean anything"
    );

    let mut sub = engine.subscribe(q).unwrap();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut n = 0;
        sub.for_each(&mut engine, |_| {
            n += 1;
            if n == 2 {
                panic!("sink failed");
            }
        });
    }));
    assert!(unwound.is_err());
    assert_eq!(sub.position(), 1, "cursor must stay at the failed delta");
    assert_eq!(
        sub.poll(&mut engine).len(),
        total - 1,
        "retry re-delivers the failed delta and the rest"
    );
}

/// `take` with a huge `max` after an earlier partial drain: `start + max`
/// must saturate, not overflow (debug panic; in release the wrapped end
/// moved the cursor backwards and panicked on the slice).
#[test]
fn take_usize_max_after_a_partial_take_returns_the_remainder() {
    let mut engine = Engine::new();
    let qs = register_queries(&mut engine, ConsistencySpec::middle());
    for (ty, m) in workload(0x7A4E) {
        engine.source(ty).unwrap().stage(m);
    }
    engine.seal();
    let q = qs[0];
    let total = engine.collector(q).delta_log().len();
    assert!(total > 3, "workload must produce output");

    let mut sub = engine.subscribe(q).unwrap();
    assert_eq!(sub.take(&engine, 3).len(), 3);
    let rest = sub.take(&engine, usize::MAX);
    assert_eq!(rest, &engine.collector(q).delta_log()[3..]);
    assert_eq!(sub.position(), total);
    assert!(sub.take(&engine, usize::MAX).is_empty());
}

/// Handle staging is bit-identical to engine-level staging at matching
/// granularity: chunked `stage_batch`+drain ≡ chunked `enqueue_batch`+drain.
#[test]
fn staged_handle_path_matches_enqueue_batch_bit_for_bit() {
    for (spec, level) in LEVELS {
        let tape = workload(0xB17);
        let feed_chunks = |engine: &mut Engine, staged: bool| {
            for chunk in tape.chunks(16) {
                for ty in ["A_T", "B_T", "C_T"] {
                    let batch: MessageBatch = chunk
                        .iter()
                        .filter(|(t, _)| *t == ty)
                        .map(|(_, m)| m.clone())
                        .collect();
                    if batch.is_empty() {
                        continue;
                    }
                    if staged {
                        engine.source(ty).unwrap().stage_batch(&batch);
                    } else {
                        engine.enqueue_batch(ty, &batch).unwrap();
                    }
                }
                engine.run_to_quiescence();
            }
            engine.seal();
        };
        let mut enq = Engine::new();
        let qs_enq = register_queries(&mut enq, spec());
        feed_chunks(&mut enq, false);
        let mut hnd = Engine::new();
        let qs_hnd = register_queries(&mut hnd, spec());
        feed_chunks(&mut hnd, true);
        for (a, b) in qs_enq.iter().zip(qs_hnd.iter()) {
            assert_eq!(
                enq.collector(*a).delta_log(),
                hnd.collector(*b).delta_log(),
                "{level}: staged handle path diverged from enqueue_batch"
            );
        }
    }
}

/// Backpressure integration: a tiny ingress bound forces blocking flushes
/// mid-stream, and the result is still bit-identical to an unbounded run.
#[test]
fn bounded_ingress_preserves_results() {
    let run = |capacity: usize| {
        let mut engine =
            Engine::with_config(EngineConfig::serial().with_ingress_capacity(capacity));
        let qs = register_queries(&mut engine, ConsistencySpec::middle());
        for chunk in workload(0xF10).chunks(16) {
            for ty in ["A_T", "B_T", "C_T"] {
                let batch: MessageBatch = chunk
                    .iter()
                    .filter(|(t, _)| *t == ty)
                    .map(|(_, m)| m.clone())
                    .collect();
                if !batch.is_empty() {
                    // Blocking flush: drains the engine whenever the tiny
                    // ingress fills, then admits.
                    engine.source(ty).unwrap().stage_batch(&batch);
                }
            }
            engine.run_to_quiescence();
        }
        engine.seal();
        (engine, qs)
    };
    let (tight, qs_t) = run(4);
    let (loose, qs_l) = run(1 << 20);
    for (a, b) in qs_t.iter().zip(qs_l.iter()) {
        assert!(
            tight
                .collector(*a)
                .net_table()
                .star_equal(&loose.collector(*b).net_table()),
            "backpressure drains changed the logical output"
        );
    }
}

#[test]
fn insert_at_the_infinity_tick_is_a_typed_error() {
    // `u64::MAX` is the tick reserved for ∞: every point-event builder
    // returns a typed error naming the type and the tick, stages nothing
    // and burns no event ID, instead of panicking.
    let mut engine = Engine::new();
    register_queries(&mut engine, ConsistencySpec::middle());
    let is_out_of_range = |r: Result<_, EngineError>| match r {
        Err(e @ EngineError::TimeOutOfRange { .. }) => {
            let msg = e.to_string();
            assert!(
                msg.contains("A_T") && msg.contains(&u64::MAX.to_string()),
                "{msg}"
            );
            true
        }
        _ => false,
    };
    assert!(is_out_of_range(
        engine.event("A_T", u64::MAX, vec![Value::Int(0)]).map(drop)
    ));
    let first = engine.event("A_T", 1, vec![Value::Int(1)]).unwrap();

    let mut handle = engine.source("A_T").unwrap();
    assert!(is_out_of_range(
        handle.insert(u64::MAX, vec![Value::Int(0)]).map(drop)
    ));
    assert_eq!(handle.staged_len(), 0);
    let next = handle.insert(2, vec![Value::Int(2)]).unwrap();
    assert_eq!(
        next.id.0,
        first.id.0 + 1,
        "the rejected insert minted no ID"
    );
    drop(handle);

    let mut channel = engine.channel_source("A_T").unwrap();
    assert!(is_out_of_range(
        channel.insert(u64::MAX, vec![Value::Int(0)]).map(drop)
    ));
    assert_eq!(channel.staged_len(), 0);
    channel.insert(3, vec![Value::Int(3)]).unwrap();
    drop(channel);
    engine.run_pipelined().unwrap();
    engine.run_to_quiescence();
    assert_eq!(
        engine.ingress_stats().admitted_messages,
        2,
        "only the two valid inserts reached the engine"
    );
}
