//! Durable monitoring: checkpoint a standing query mid-stream, crash,
//! restore into a fresh engine, resume — and the subscription deltas line
//! up exactly where they left off.
//!
//! A sensor fleet feeds a windowed per-sensor load query. Halfway through
//! the feed the process "dies" right after taking a round-boundary
//! checkpoint ([`Engine::checkpoint_to_vec`]). A brand-new engine with the
//! same registrations restores the image, the consumer fast-forwards its
//! cursor past what it had already consumed, the remaining readings are
//! replayed, and the combined delta stream is compared against an unfailed
//! run: bit-identical, so the recovery was invisible.
//!
//! Run with: `cargo run --example durable_monitoring`

use cedr::core::prelude::*;
use cedr::temporal::time::{dur, t};

/// One registration sequence, used for every engine in this example — the
/// checkpoint's configuration hash ties an image to it.
fn build_engine() -> (Engine, QueryId) {
    let mut engine = Engine::new();
    engine.register_event_type("READING", vec![("Sensor_Id", FieldType::Int)]);
    let load = PlanBuilder::source("READING")
        .window(dur(60))
        .group_aggregate(vec![Scalar::Field(0)], AggFunc::Count)
        .into_plan();
    let q = engine
        .register_plan("per_sensor_load", load, ConsistencySpec::middle())
        .unwrap();
    (engine, q)
}

/// The fleet's feed: pre-minted readings in flushable rounds. Pre-minted
/// IDs are what let the provider re-present the identical events after a
/// restore.
fn reading_rounds() -> Vec<MessageBatch> {
    let mut b = StreamBuilder::with_id_base(1);
    for i in 0..60u64 {
        let vs = i * 3 % 170;
        let e = b.insert(
            Interval::new(t(vs), t(vs + 20)),
            Payload::from_values(vec![Value::Int((i % 4) as i64)]),
        );
        if i % 9 == 0 {
            // A reading withdrawn by its sensor: retraction mid-window.
            b.retract(e.clone(), e.vs() + dur(5));
        }
    }
    let ordered = b.build_ordered(Some(dur(25)), true);
    ordered
        .chunks(8)
        .map(|c| c.iter().cloned().collect::<MessageBatch>())
        .collect()
}

fn feed_round(engine: &mut Engine, round: &MessageBatch) {
    let mut h = engine.source("READING").unwrap().manual_flush();
    h.stage_batch(round);
    h.flush();
    drop(h);
    engine.run_to_quiescence();
}

fn main() {
    let rounds = reading_rounds();
    let half = rounds.len() / 2;

    // ----- the monitored process, until it dies --------------------------
    let (mut engine, q) = build_engine();
    let mut sub = engine.subscribe(q).unwrap();
    let mut consumed = 0usize;
    for round in &rounds[..half] {
        feed_round(&mut engine, round);
        consumed += sub.poll(&mut engine).len();
    }
    println!(
        "fed {half} rounds, consumed {consumed} deltas, checkpointing at round {}",
        engine.rounds_completed()
    );

    // The durable part: the image plus the consumer's cursor is all the
    // state that has to survive. (A real deployment writes both to disk;
    // `Engine::checkpoint` takes any `io::Write`.)
    let image = engine.checkpoint_to_vec().unwrap();
    let saved_cursor = sub.position();
    println!(
        "checkpoint: {} bytes, consumer cursor at {saved_cursor}",
        image.len()
    );
    // The unified snapshot at the durability boundary: checkpoint
    // counters, pump/resequencer state and the consumer's cursor lag in
    // one report (see `cargo run --example observability` for the tour).
    let mut at_checkpoint = engine.metrics();
    sub.observe(&mut at_checkpoint, "monitor");
    println!(
        "----- report at checkpoint -----\n{}",
        at_checkpoint.render_report()
    );
    drop(engine); // the crash — nothing of the process survives but the image

    // ----- the replacement process ---------------------------------------
    let (mut engine, q) = build_engine();
    engine
        .restore_from_slice(&image)
        .expect("the image validates end to end before anything is applied");
    println!(
        "restored at round {}, replaying the remaining {} rounds",
        engine.rounds_completed(),
        rounds.len() - half
    );
    println!(
        "----- report after restore -----\n{}",
        engine.metrics().render_report()
    );
    // The delta log is part of the image; a fresh subscription
    // fast-forwards past the prefix the dead process already consumed.
    let mut sub = engine.subscribe(q).unwrap();
    let skipped = sub.take(&engine, saved_cursor).len();
    assert_eq!(skipped, saved_cursor, "the restored log covers the cursor");
    for round in &rounds[half..] {
        feed_round(&mut engine, round);
        consumed += sub.poll(&mut engine).len();
    }
    engine.seal();
    consumed += sub.drain_ready(&engine).len();
    println!("resumed cleanly: {consumed} deltas consumed across the crash");

    // ----- proof: the crash was invisible --------------------------------
    let (mut unfailed, uq) = build_engine();
    let mut usub = unfailed.subscribe(uq).unwrap();
    let mut straight = 0usize;
    for round in &rounds {
        feed_round(&mut unfailed, round);
        straight += usub.poll(&mut unfailed).len();
    }
    unfailed.seal();
    straight += usub.drain_ready(&unfailed).len();

    assert_eq!(consumed, straight, "same number of deltas either way");
    assert_eq!(
        engine.collector(q).delta_log(),
        unfailed.collector(uq).delta_log(),
        "stamped tapes are bit-identical"
    );
    assert_eq!(
        engine.collector(q).max_cti(),
        unfailed.collector(uq).max_cti(),
        "output guarantee is bit-identical"
    );
    println!(
        "unfailed run agrees: {straight} deltas, stamped tape and output CTI bit-identical — \
         recovery was invisible"
    );
}
