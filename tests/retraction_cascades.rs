//! Retraction cascades through multi-operator plans: a provider retraction
//! at the source must propagate repairs through joins, windows and
//! aggregates so the final net content equals the denotational pipeline
//! applied to the final logical input — across delivery orders.

use cedr::algebra::expr::{CmpOp, Pred, Scalar};
use cedr::algebra::relational::AggFunc;
use cedr::core::prelude::*;
use cedr::workload::send_scrambled;

fn engine2() -> Engine {
    let mut e = Engine::new();
    e.register_event_type("L", vec![("k", FieldType::Int), ("v", FieldType::Int)]);
    e.register_event_type("R", vec![("k", FieldType::Int)]);
    e
}

/// join(L, R on k) → count grouped by k.
fn plan() -> cedr::lang::LogicalOp {
    PlanBuilder::source("L")
        .join(
            PlanBuilder::source("R"),
            Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0)),
        )
        .group_aggregate(vec![Scalar::Field(0)], AggFunc::Count)
        .into_plan()
}

fn denotational(l: &[Event], r: &[Event]) -> cedr::temporal::UniTemporalTable {
    let joined = cedr::algebra::join(
        l,
        r,
        &Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0)),
    );
    let agg = cedr::algebra::group_aggregate(&joined, &[Scalar::Field(0)], &AggFunc::Count);
    cedr::algebra::to_table(&agg)
}

#[test]
fn source_retraction_repairs_join_and_aggregate() {
    let mut e = engine2();
    let q = e
        .register_plan("cascade", plan(), ConsistencySpec::middle())
        .unwrap();
    // Two left events and one right event on key 1, overlapping.
    let l1 = e
        .event_with_interval("L", iv(0, 100), vec![Value::Int(1), Value::Int(10)])
        .unwrap();
    let l2 = e
        .event_with_interval("L", iv(20, 60), vec![Value::Int(1), Value::Int(20)])
        .unwrap();
    let r1 = e
        .event_with_interval("R", iv(10, 80), vec![Value::Int(1)])
        .unwrap();
    {
        let mut left = e.source("L").unwrap();
        left.insert_event(l1.clone()).unwrap();
        left.insert_event(l2.clone()).unwrap();
    }
    e.source("R").unwrap().insert_event(r1.clone()).unwrap();
    // Retract l1 down to [0, 30): the join outputs shrink, the counts
    // re-segment.
    e.source("L").unwrap().retract(l1.clone(), t(30));
    e.seal();

    let lf = vec![l1.shortened(t(30)), l2];
    let rf = vec![r1];
    let want = denotational(&lf, &rf);
    let got = e.collector(q).net_table();
    assert!(
        got.star_equal(&want),
        "cascade diverged:\n got {got:?}\nwant {want:?}"
    );
    assert!(
        e.stats(q).out_retractions > 0,
        "repairs must actually flow through the plan"
    );
}

fn iv(a: u64, b: u64) -> Interval {
    cedr::temporal::interval::iv(a, b)
}

#[test]
fn full_removal_erases_all_derived_state() {
    let mut e = engine2();
    let q = e
        .register_plan("cascade", plan(), ConsistencySpec::middle())
        .unwrap();
    let l1 = e
        .event_with_interval("L", iv(0, 50), vec![Value::Int(7), Value::Int(1)])
        .unwrap();
    let r1 = e
        .event_with_interval("R", iv(0, 50), vec![Value::Int(7)])
        .unwrap();
    e.source("L").unwrap().insert_event(l1.clone()).unwrap();
    e.source("R").unwrap().insert_event(r1).unwrap();
    e.run_to_quiescence();
    assert!(!e.collector(q).net_table().is_empty());
    // Remove the left event entirely: everything derived must vanish.
    e.source("L").unwrap().retract(l1, t(0));
    e.seal();
    assert!(
        e.collector(q).net_table().is_empty(),
        "derived state must be fully erased"
    );
}

#[test]
fn cascades_are_delivery_order_insensitive() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);

    // Build one logical input with retractions.
    let mut levents = Vec::new();
    let mut revents = Vec::new();
    let mut lstream = StreamBuilder::with_id_base(0);
    let mut rstream = StreamBuilder::with_id_base(10_000);
    for i in 0..25u64 {
        let k = rng.gen_range(0..3i64);
        let vs = rng.gen_range(0..120u64);
        let len = rng.gen_range(5..40u64);
        if i % 2 == 0 {
            let ev = lstream.insert(
                iv(vs, vs + len),
                Payload::from_values(vec![Value::Int(k), Value::Int(i as i64)]),
            );
            if rng.gen_bool(0.4) {
                let keep = rng.gen_range(0..=len);
                lstream.retract(ev.clone(), t(vs + keep));
                let ne = ev.shortened(t(vs + keep));
                if !ne.interval.is_empty() {
                    levents.push(ne);
                }
            } else {
                levents.push(ev);
            }
        } else {
            let ev = rstream.insert(iv(vs, vs + len), Payload::from_values(vec![Value::Int(k)]));
            revents.push(ev);
        }
    }
    let want = denotational(&levents, &revents);

    let streams = [
        ("L".to_string(), lstream.build_ordered(Some(dur(10)), true)),
        ("R".to_string(), rstream.build_ordered(Some(dur(10)), true)),
    ];
    for seed in [3u64, 17, 99] {
        let mut e = engine2();
        let q = e
            .register_plan("cascade", plan(), ConsistencySpec::middle())
            .unwrap();
        send_scrambled(&mut e, &streams, &DisorderConfig::heavy(seed, 70, 8)).unwrap();
        let got = e.collector(q).net_table();
        assert!(
            got.star_equal(&want),
            "seed {seed}: cascade diverged from denotational pipeline"
        );
    }
}
