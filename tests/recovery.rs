//! Durable recovery end to end: the checkpoint/restore subsystem, pinned
//! at the bit level.
//!
//! A run is killed at an arbitrary quiescent round boundary, its image
//! restored into a fresh identically-registered engine, and the remaining
//! emissions replayed. The recovered tape — stamped output, subscription
//! deltas, output CTI — must be **bit-identical to the unfailed run**,
//! across seeds × Strong/Middle/Weak × worker counts {1, 4} × checkpoint
//! positions, with all five operator families (and a stateless chain)
//! live at the boundary. Recovery that changes even one bit is
//! observable; recovery that changes none is provably invisible.
//!
//! Alongside the headline equality the suite pins the image contract:
//! `checkpoint → restore → checkpoint` is byte-equal, checkpointing never
//! disturbs the running engine, corrupt/truncated/version-mismatched
//! images fail with a typed error naming the offending section and leave
//! the engine untouched, `seal` after restore equals `seal` on an engine
//! that never checkpointed, and channel producers reattach to their
//! resequencer lanes with buffered skew intact.

use cedr::core::prelude::*;
use cedr::streams::{scramble, MessageBatch};
use cedr::temporal::time::{dur, t};

/// Four plans covering all five operator families — plus a pure stateless
/// chain (`sel_win`: a select shell feeding a window shell) straight into
/// the sink, so the image carries both shells' live monitor state.
fn register_queries(engine: &mut Engine, spec: ConsistencySpec) -> Vec<QueryId> {
    for ty in ["A_T", "B_T", "C_T"] {
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
    vec![
        engine.register_plan("sel_win", sel_win, spec).unwrap(),
        engine.register_plan("sel_agg", sel_agg, spec).unwrap(),
        engine.register_plan("join", join, spec).unwrap(),
        engine
            .register_plan("seq_unless", seq_unless, spec)
            .unwrap(),
    ]
}

const TYPES: [&str; 3] = ["A_T", "B_T", "C_T"];

/// Per-producer emission scripts: pre-minted, scrambled, retraction-bearing
/// batches (same shape as `tests/concurrent_ingest.rs`). Pre-minted IDs are
/// what lets a replay after restore re-present the identical events.
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

fn total_rounds(scripts: &[(&'static str, Vec<MessageBatch>)]) -> usize {
    scripts.iter().map(|(_, b)| b.len()).max().unwrap_or(0)
}

fn fresh_engine(spec: ConsistencySpec, threads: usize) -> (Engine, Vec<QueryId>) {
    let mut engine = Engine::with_config(EngineConfig::threaded(threads));
    let qs = register_queries(&mut engine, spec);
    (engine, qs)
}

/// Stage round `r` of every script through borrowed `SourceHandle`s and
/// run one quiescence pass — the canonical serial schedule.
fn stage_round(engine: &mut Engine, scripts: &[(&'static str, Vec<MessageBatch>)], r: usize) {
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

/// The unfailed reference: every round, then seal.
fn run_straight(
    spec: ConsistencySpec,
    scripts: &[(&'static str, Vec<MessageBatch>)],
    threads: usize,
) -> (Engine, Vec<QueryId>) {
    let (mut engine, qs) = fresh_engine(spec, threads);
    for r in 0..total_rounds(scripts) {
        stage_round(&mut engine, scripts, r);
    }
    engine.seal();
    (engine, qs)
}

/// The failed-and-recovered run: `kill_at` rounds on `writer` drain
/// workers, checkpoint, drop the engine (the crash), restore into a fresh
/// identically-registered one on `reader` workers, replay the remaining
/// rounds, seal.
fn run_recovered(
    spec: ConsistencySpec,
    scripts: &[(&'static str, Vec<MessageBatch>)],
    (writer, reader): (usize, usize),
    kill_at: usize,
) -> (Engine, Vec<QueryId>) {
    let image = {
        let (mut engine, _) = fresh_engine(spec, writer);
        for r in 0..kill_at {
            stage_round(&mut engine, scripts, r);
        }
        engine.checkpoint_to_vec().unwrap()
        // `engine` dropped here: the crash.
    };
    let (mut engine, qs) = fresh_engine(spec, reader);
    engine.restore_from_slice(&image).unwrap();
    assert_eq!(
        engine.rounds_completed(),
        kill_at as u64,
        "the image's round counter survives the restore"
    );
    for r in kill_at..total_rounds(scripts) {
        stage_round(&mut engine, scripts, r);
    }
    engine.seal();
    (engine, qs)
}

/// Bit-level comparison: stamped tape, freshly drained subscription
/// deltas, and the output guarantee.
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

// ---------------------------------------------------------------------
// The headline: recovery is invisible at the bit level.
// ---------------------------------------------------------------------

#[test]
fn recovered_runs_are_bit_identical_to_unfailed_runs() {
    let levels: [(ConsistencySpec, &str); 3] = [
        (ConsistencySpec::strong(), "strong"),
        (ConsistencySpec::middle(), "middle"),
        (ConsistencySpec::weak(dur(25)), "weak"),
    ];
    for (spec, level) in levels {
        for seed in [0xC0FFEE_u64, 0x5EED] {
            let scripts = producer_scripts(seed, 3);
            let total = total_rounds(scripts.as_slice());
            for threads in [1usize, 4] {
                let straight = run_straight(spec, &scripts, threads);
                // An image restores at its own worker count and at the
                // other one: worker count is not part of an image.
                let other = 5 - threads;
                for kill_at in [1, total / 2, total - 1] {
                    for writer in [threads, other] {
                        let recovered = run_recovered(spec, &scripts, (writer, threads), kill_at);
                        assert_bit_identical(
                            &format!(
                                "{level}/seed {seed:#x}/{writer}→{threads} workers/\
                                 killed after round {kill_at}"
                            ),
                            &straight,
                            &recovered,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn stateful_operators_hold_live_state_at_the_checkpoint_boundary() {
    // The matrix above is only meaningful if the images actually carry
    // operator state: kill mid-run and check the engine had produced
    // output before the boundary *and* produces more after it, for every
    // query — so the boundary genuinely bisects live state.
    let scripts = producer_scripts(0xC0FFEE, 3);
    let total = total_rounds(&scripts);
    let (mut engine, qs) = fresh_engine(ConsistencySpec::middle(), 1);
    for r in 0..total / 2 {
        stage_round(&mut engine, &scripts, r);
    }
    let at_boundary: Vec<usize> = qs
        .iter()
        .map(|q| engine.collector(*q).delta_log().len())
        .collect();
    let image = engine.checkpoint_to_vec().unwrap();
    drop(engine);
    let (mut engine, qs) = fresh_engine(ConsistencySpec::middle(), 1);
    engine.restore_from_slice(&image).unwrap();
    for r in total / 2..total {
        stage_round(&mut engine, &scripts, r);
    }
    engine.seal();
    for (q, before) in qs.iter().zip(at_boundary) {
        assert!(
            before > 0,
            "{}: no output before the checkpoint — boundary too early to bite",
            engine.query_name(*q)
        );
        assert!(
            engine.collector(*q).delta_log().len() > before,
            "{}: no output after the restore — replay never exercised the state",
            engine.query_name(*q)
        );
    }
}

// ---------------------------------------------------------------------
// The image contract.
// ---------------------------------------------------------------------

#[test]
fn checkpoint_restore_checkpoint_is_byte_equal() {
    let scripts = producer_scripts(0xF00D, 3);
    for kill_at in [2usize, 5] {
        let (mut a, _) = fresh_engine(ConsistencySpec::middle(), 1);
        for r in 0..kill_at {
            stage_round(&mut a, &scripts, r);
        }
        let first = a.checkpoint_to_vec().unwrap();
        // Checkpointing is non-destructive: a second image of the same
        // engine is byte-equal...
        assert_eq!(first, a.checkpoint_to_vec().unwrap());
        // ...and so is the image of the engine restored from it.
        let (mut b, _) = fresh_engine(ConsistencySpec::middle(), 1);
        b.restore_from_slice(&first).unwrap();
        assert_eq!(
            first,
            b.checkpoint_to_vec().unwrap(),
            "checkpoint → restore → checkpoint must be byte-equal (kill_at {kill_at})"
        );
    }
}

#[test]
fn checkpointing_does_not_disturb_the_running_engine() {
    let scripts = producer_scripts(0xD00F, 3);
    let total = total_rounds(&scripts);
    let straight = run_straight(ConsistencySpec::middle(), &scripts, 1);
    let (mut engine, qs) = fresh_engine(ConsistencySpec::middle(), 1);
    for r in 0..total {
        stage_round(&mut engine, &scripts, r);
        // Checkpoint at *every* boundary; keep running on the same engine.
        engine.checkpoint_to_vec().unwrap();
    }
    engine.seal();
    assert_bit_identical("checkpoint-every-round", &straight, &(engine, qs));
}

#[test]
fn checkpoint_requires_a_quiescent_round_boundary() {
    let (mut engine, _) = fresh_engine(ConsistencySpec::middle(), 1);
    let mut batch = MessageBatch::new();
    batch.push(Message::insert(
        1,
        Interval::point(t(5)),
        Payload::from_values(vec![Value::Int(1)]),
    ));
    engine.enqueue_batch("A_T", &batch).unwrap();
    match engine.checkpoint_to_vec() {
        Err(EngineError::NotQuiescent { detail }) => {
            assert!(
                detail.contains("staged ingress"),
                "the error says what is pending: {detail}"
            );
        }
        other => panic!("expected NotQuiescent, got {other:?}"),
    }
    // Draining makes the same engine checkpointable.
    engine.run_to_quiescence();
    engine.checkpoint_to_vec().unwrap();
}

#[test]
fn corrupt_images_fail_typed_and_leave_the_engine_untouched() {
    let scripts = producer_scripts(0xD1CE, 3);
    let total = total_rounds(&scripts);
    let straight = run_straight(ConsistencySpec::middle(), &scripts, 1);

    let (mut engine, qs) = fresh_engine(ConsistencySpec::middle(), 1);
    for r in 0..total / 2 {
        stage_round(&mut engine, &scripts, r);
    }
    let image = engine.checkpoint_to_vec().unwrap();

    let expect_corrupt =
        |engine: &mut Engine, bytes: &[u8], want_section: &str, want: &str| match engine
            .restore_from_slice(bytes)
        {
            Err(EngineError::CheckpointCorrupt { section, detail }) => {
                assert_eq!(section, want_section, "wrong section attributed: {detail}");
                assert!(
                    detail.contains(want),
                    "detail should mention '{want}': {detail}"
                );
            }
            other => panic!("expected CheckpointCorrupt({want_section}), got {other:?}"),
        };

    // Bad magic: not a checkpoint at all.
    let mut bad = image.clone();
    bad[0] ^= 0xff;
    expect_corrupt(&mut engine, &bad, "header", "magic");

    // Format-version mismatch (version is the u32 after the 8-byte magic).
    let mut bad = image.clone();
    bad[8] = 0xfe;
    expect_corrupt(&mut engine, &bad, "header", "version");
    // In particular the previous layout (v1: collector history, stamped
    // tape and delta log all in the image) is refused, never half-read.
    let mut v1 = image.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    expect_corrupt(&mut engine, &v1, "header", "image is v1");
    // So is v2, whose engine section held one routing table and ingress
    // counter set per worker plus a query → worker map.
    let mut v2 = image.clone();
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    expect_corrupt(&mut engine, &v2, "header", "image is v2");
    // And v3, which could hold fused-chain node state the one-shell-per-
    // operator graph has no slot for, and two more counters per shell.
    let mut v3 = image.clone();
    v3[8..12].copy_from_slice(&3u32.to_le_bytes());
    expect_corrupt(&mut engine, &v3, "header", "image is v3");

    // Any flipped body bit fails the content checksum.
    let mut bad = image.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    expect_corrupt(&mut engine, &bad, "manifest", "checksum");

    // Truncation anywhere is typed, never a panic.
    for cut in [0, 7, 20, image.len() / 2, image.len() - 1] {
        match engine.restore_from_slice(&image[..cut]) {
            Err(EngineError::CheckpointCorrupt { .. }) => {}
            other => panic!("truncation at {cut}: expected CheckpointCorrupt, got {other:?}"),
        }
    }

    // An image from a differently-registered engine is refused up front.
    let mut other = Engine::with_config(EngineConfig::threaded(1));
    other.register_event_type("A_T", vec![("val", FieldType::Int)]);
    let lone = PlanBuilder::source("A_T").select(Pred::True).into_plan();
    other
        .register_plan("lone", lone, ConsistencySpec::middle())
        .unwrap();
    expect_corrupt(&mut other, &image, "manifest", "configuration hash");

    // None of those failures touched the engine: the intact image still
    // restores into it, and finishing the run matches the unfailed one.
    engine.restore_from_slice(&image).unwrap();
    for r in total / 2..total {
        stage_round(&mut engine, &scripts, r);
    }
    engine.seal();
    assert_bit_identical("after failed restores", &straight, &(engine, qs));
}

#[test]
fn seal_after_restore_matches_seal_without_a_checkpoint() {
    let scripts = producer_scripts(0xBEEF, 3);
    let total = total_rounds(&scripts);
    let straight = run_straight(ConsistencySpec::middle(), &scripts, 1);

    // Checkpoint after the last round but *before* seal; seal only the
    // restored engine. CTI(∞) propagation must behave exactly as if the
    // checkpoint never happened.
    let (mut a, _) = fresh_engine(ConsistencySpec::middle(), 1);
    for r in 0..total {
        stage_round(&mut a, &scripts, r);
    }
    let pre_seal = a.checkpoint_to_vec().unwrap();
    drop(a);
    let (mut b, qb) = fresh_engine(ConsistencySpec::middle(), 1);
    b.restore_from_slice(&pre_seal).unwrap();
    b.seal();
    let b = (b, qb);
    assert_bit_identical("seal after restore", &straight, &b);

    // Seal state itself is part of the image: checkpoint the sealed
    // engine, restore, and the result is sealed — same bits, no second
    // seal required.
    let (mut sealed, _) = b;
    let post_seal = sealed.checkpoint_to_vec().unwrap();
    let (mut c, qc) = fresh_engine(ConsistencySpec::middle(), 1);
    c.restore_from_slice(&post_seal).unwrap();
    assert!(c.is_sealed(), "the seal survives the image");
    assert_bit_identical("restored-from-sealed", &straight, &(c, qc));
}

// ---------------------------------------------------------------------
// The concurrent subsystem: resequencer lanes and producer reattachment.
// ---------------------------------------------------------------------

/// Environment config with enough channel headroom for main-thread
/// staging (the CI stress leg sets `CEDR_CHANNEL_DEPTH=1`, which would
/// deadlock a staging loop that never yields to the pump; backpressure
/// itself is pinned by `tests/concurrent_ingest.rs`).
fn floored_env_config() -> EngineConfig {
    let mut config = EngineConfig::from_env();
    config.channel_depth = config.channel_depth.max(32);
    config
}

#[test]
fn channel_producers_reattach_with_buffered_skew_intact() {
    let scripts = producer_scripts(0xACE, 2);
    let reference = {
        let mut engine = Engine::with_config(floored_env_config());
        let qs = register_queries(&mut engine, ConsistencySpec::middle());
        for r in 0..total_rounds(&scripts) {
            stage_round(&mut engine, &scripts, r);
        }
        engine.seal();
        (engine, qs)
    };

    // Phase 1: two pumped producers with skew — producer 2 runs a full
    // emission ahead, so at the kill the resequencer holds its buffered
    // round-1 emission while producer 1's lane cursor sits at 1.
    let (image, key1, key2) = {
        let mut engine = Engine::with_config(floored_env_config());
        register_queries(&mut engine, ConsistencySpec::middle());
        let mut s1 = engine.channel_source(scripts[0].0).unwrap().manual_flush();
        let mut s2 = engine.channel_source(scripts[1].0).unwrap().manual_flush();
        let keys = (s1.producer_key(), s2.producer_key());
        s1.stage_batch(&scripts[0].1[0]);
        s1.flush();
        s2.stage_batch(&scripts[1].1[0]);
        s2.flush();
        s2.stage_batch(&scripts[1].1[1]);
        s2.flush();
        let progress = engine.pump().unwrap();
        assert_eq!(progress.rounds, 1, "round 0 admitted, round 1 blocked");
        assert_eq!(
            progress.buffered_batches, 1,
            "producer 2's lead is buffered"
        );
        // The crash happens with both producers still attached.
        let image = engine.checkpoint_to_vec().unwrap();
        (image, keys.0, keys.1)
    };

    // Phase 2: restore, reattach in the original open order (lane
    // cursors and the buffered emission come back from the image), replay
    // each producer's remaining emissions, finish pumped.
    let mut engine = Engine::with_config(floored_env_config());
    let qs = register_queries(&mut engine, ConsistencySpec::middle());
    engine.restore_from_slice(&image).unwrap();
    let mut r1 = engine.channel_source(scripts[0].0).unwrap().manual_flush();
    let mut r2 = engine.channel_source(scripts[1].0).unwrap().manual_flush();
    assert_eq!(r1.producer_key(), key1, "first reattach resumes lane 1");
    assert_eq!(r2.producer_key(), key2, "second reattach resumes lane 2");
    for batch in &scripts[0].1[1..] {
        r1.stage_batch(batch);
        r1.flush();
    }
    for batch in &scripts[1].1[2..] {
        r2.stage_batch(batch);
        r2.flush();
    }
    drop(r1);
    drop(r2);
    engine.run_pipelined().unwrap();
    engine.seal();
    assert_bit_identical("channel reattach", &reference, &(engine, qs));
}

#[test]
fn pump_progress_names_the_awaited_producer_and_counts_stalled_rounds() {
    let mut engine = Engine::with_config(floored_env_config());
    register_queries(&mut engine, ConsistencySpec::middle());
    let mut fast = engine.channel_source("A_T").unwrap().manual_flush();
    let silent = engine.channel_source("B_T").unwrap();
    let silent_key = silent.producer_key();

    fast.insert(10, vec![Value::Int(1)]).unwrap();
    fast.flush();
    let p = engine.pump().unwrap();
    assert_eq!(p.rounds, 0, "round 0 is blocked on the silent producer");
    assert_eq!(p.waiting_on, Some(silent_key), "the stall names the lane");
    assert_eq!(p.rounds_stalled, 1);
    let p = engine.pump().unwrap();
    assert_eq!(p.waiting_on, Some(silent_key));
    assert_eq!(p.rounds_stalled, 2, "consecutive blocked pumps accumulate");

    // The silent producer speaks: the stall clears and the round runs.
    let mut silent = silent.manual_flush();
    silent.insert(20, vec![Value::Int(2)]).unwrap();
    silent.flush();
    let p = engine.pump().unwrap();
    assert_eq!(p.rounds, 1);
    assert_eq!(p.waiting_on, None);
    assert_eq!(p.rounds_stalled, 0);

    drop(fast);
    drop(silent);
    engine.run_pipelined().unwrap();
    engine.seal();
}
