//! Stateless chains against their definition.
//!
//! Every select, project, alter-lifetime and slice lowers to its own
//! operator shell, so a stateless query is a chain of plain shells. The
//! tests here drive two such chains through the engine and compare each
//! query's net output table with one written out by hand from the
//! operator definitions (Definitions 7 and 8, the `#` slice) — not with
//! another execution of the engine.
//!
//! Each trace is disordered, carries retractions (one racing ahead of its
//! own insert, one full removal) and mid-stream CTIs. At Strong and
//! Middle the net table is the definition applied to the net input. At
//! Weak the memory horizon is chosen to bite on exactly one late insert,
//! which the first shell forgets; the table is the same minus that row.

use cedr::core::prelude::*;
use std::sync::Arc;

/// An insert of event `id` with lifetime `[vs, ve)`.
fn ins(id: u64, vs: u64, ve: u64, payload: Vec<Value>) -> (Arc<Event>, Message) {
    let e = Arc::new(Event::primitive(
        EventId(id),
        Interval::new(t(vs), t(ve)),
        Payload::from_values(payload),
    ));
    (e.clone(), Message::Insert(e))
}

fn row(id: u64, vs: u64, ve: u64, payload: Vec<Value>) -> UniTemporalRow {
    UniTemporalRow::new(
        EventId(id),
        Interval::new(t(vs), t(ve)),
        Payload::from_values(payload),
    )
}

/// The query's net table with fully removed rows dropped, in row order.
fn net_rows(engine: &Engine, q: QueryId) -> Vec<UniTemporalRow> {
    let mut rows = engine.collector(q).net_table().without_empty().rows;
    rows.sort();
    rows
}

/// The three levels, each with the ids of the rows it must not produce.
/// Weak's horizon `m` is per test: wide enough to keep everything but the
/// one late insert the test plants.
fn levels(m: u64, forgotten: u64) -> [(&'static str, ConsistencySpec, Vec<u64>); 3] {
    [
        ("Strong", ConsistencySpec::strong(), vec![]),
        ("Middle", ConsistencySpec::middle(), vec![]),
        ("Weak", ConsistencySpec::weak(dur(m)), vec![forgotten]),
    ]
}

/// Enqueue each `(type, batch)` and drain it before the next, then seal.
fn drive(engine: &mut Engine, batches: &[(&str, Vec<Message>)]) {
    for (ty, batch) in batches {
        engine
            .enqueue_batch(ty, &MessageBatch::from(batch.clone()))
            .unwrap();
        engine.run_to_quiescence();
    }
    engine.seal();
}

/// Type confusion through one chain: a lone-`Int` type and a
/// `Str`/`Float`/`Int` type meet in a union *below* `σ[$.0 ≥ 2]` and
/// `π[$.0, $.1]`, so the select and project shells see both layouts in
/// one run. Values compare by type tag before value, so every `Str`
/// outranks every `Int` and all B rows pass the select; an A row has no
/// `$.1`, so the projection writes `Null` there.
#[test]
fn type_confused_union_runs_through_one_select_project_chain() {
    let int = |v: i64| vec![Value::Int(v)];
    let (_, a1) = ins(1, 10, 30, int(1));
    let (_, a2) = ins(2, 12, 40, int(2));
    let (a3, a3_ins) = ins(3, 20, 25, int(4));
    let (a4, a4_ins) = ins(4, 35, 60, int(3));
    let (_, a5) = ins(5, 19, 22, int(9));
    let b = |name: &str, score: f64, val: i64| {
        vec![Value::str(name), Value::Float(score), Value::Int(val)]
    };
    let (_, b1) = ins(101, 15, 50, b("alpha", 1.5, -3));
    let (b2, b2_ins) = ins(102, 40, 70, b("beta", -8.0, 2));
    let batches = vec![
        ("A_T", vec![a1, a2]),
        ("B_T", vec![b1]),
        // Inserted and fully removed under one CTI.
        (
            "A_T",
            vec![
                a3_ins,
                Message::retract_event(a3, t(20)),
                Message::Cti(t(18)),
            ],
        ),
        // The shortening of b2 races ahead of b2 itself.
        (
            "B_T",
            vec![
                Message::retract_event(b2, t(55)),
                b2_ins,
                Message::Cti(t(40)),
            ],
        ),
        // a5 is late: by now the union has seen sync 55, so under Weak's
        // 20-tick horizon (55 − 20 = 35) its sync 19 is forgotten.
        ("A_T", vec![a4_ins, a5, Message::retract_event(a4, t(45))]),
    ];
    let a = |v: i64| vec![Value::Int(v), Value::Null];
    let b = |name: &str, score: f64| vec![Value::str(name), Value::Float(score)];
    let definition = [
        row(2, 12, 40, a(2)),
        row(4, 35, 45, a(3)),
        row(5, 19, 22, a(9)),
        row(101, 15, 50, b("alpha", 1.5)),
        row(102, 40, 55, b("beta", -8.0)),
    ];
    for (level, spec, forgotten) in levels(20, 5) {
        let mut engine = Engine::with_config(EngineConfig::serial());
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
        let q = engine.register_plan("confused", plan, spec).unwrap();
        drive(&mut engine, &batches);
        let expected: Vec<UniTemporalRow> = definition
            .iter()
            .filter(|r| !forgotten.contains(&r.id.0))
            .cloned()
            .collect();
        assert_eq!(net_rows(&engine, q), expected, "{level}");
    }
}

/// A payload-heavy chain: 8-field events screened by an 8-literal string
/// IN-list conjoined with a quantity bound, projected through integer and
/// float arithmetic (which always yields `Float`), gated on the
/// *projected* payload, then clipped by a valid-time slice `#[5, 660)`.
#[test]
fn wide_payload_in_list_chain_matches_its_definition() {
    // (sym, px, ratio, venue, qty, fee, seq) → the 8-field payload.
    let w = |sym: i64, px: i64, ratio: f64, venue: &str, qty: i64, fee: f64, seq: i64| {
        vec![
            Value::Int(sym),
            Value::Int(px),
            Value::Float(ratio),
            Value::str(venue),
            Value::Int(qty),
            Value::Float(fee),
            Value::Int(seq),
            Value::str("lot"),
        ]
    };
    // Clipped to [5, 12) by the slice.
    let (_, w1) = ins(1, 0, 12, w(2, 100, 0.5, "NYSE", 10, 3.0, 7));
    // Venue not on the list.
    let (_, w2) = ins(2, 20, 32, w(2, 50, 0.25, "XADF", 5, 1.0, 1));
    // Passes the screen, fails the gate on the projected symbol.
    let (_, w3) = ins(3, 30, 42, w(1, 9, 1.0, "NASD", 20, 1.0, 1));
    // qty 60 is not below 60.
    let (_, w4) = ins(4, 40, 52, w(2, 9, 1.0, "NASD", 60, 1.0, 1));
    // Shortened to [50, 56).
    let (w5, w5_ins) = ins(5, 50, 62, w(2, 10, 1.5, "NASD", 59, 2.0, -4));
    // Clipped to [655, 660).
    let (_, w6) = ins(6, 655, 667, w(2, 1, 0.5, "NYSE", 0, 0.5, 1));
    // Starts at the slice's end: clipped to nothing.
    let (_, w7) = ins(7, 660, 670, w(2, 1, 0.5, "NYSE", 1, 0.5, 1));
    // Fully removed.
    let (w8, w8_ins) = ins(8, 100, 112, w(2, 1, 1.0, "NYSE", 30, 1.0, 1));
    // The IN-list's first literal.
    let (_, w9) = ins(9, 120, 130, w(2, 3, 2.0, "XNGS", 59, -1.0, 4));
    // Late: after sync 120, Weak's 40-tick horizon is 80.
    let (_, w10) = ins(10, 70, 80, w(2, 20, 1.0, "NYSE", 0, 4.0, 5));
    let batches = vec![
        ("W_T", vec![w2, w1, w3, w4]),
        (
            "W_T",
            vec![
                w5_ins,
                Message::retract_event(w5, t(56)),
                w8_ins,
                Message::Cti(t(20)),
            ],
        ),
        ("W_T", vec![w9, Message::retract_event(w8, t(100)), w10]),
        ("W_T", vec![w6, w7, Message::Cti(t(600))]),
    ];
    let out = |px_seq: f64, cost: f64, venue: &str| {
        vec![
            Value::Int(2),
            Value::Float(px_seq),
            Value::Float(cost),
            Value::str(venue),
        ]
    };
    let definition = [
        row(1, 5, 12, out(107.0, 1.5, "NYSE")),
        row(5, 50, 56, out(6.0, 3.0, "NASD")),
        row(6, 655, 660, out(2.0, 0.25, "NYSE")),
        row(9, 120, 130, out(7.0, -2.0, "XNGS")),
        row(10, 70, 80, out(25.0, 4.0, "NYSE")),
    ];
    const VENUE_SCREEN: [&str; 8] = [
        "XNGS", "XNYS", "XASE", "XPHL", "XPSX", "XBYX", "NYSE", "NASD",
    ];
    let screen = VENUE_SCREEN
        .iter()
        .map(|s| Pred::cmp(Scalar::Field(3), CmpOp::Eq, Scalar::lit(*s)))
        .reduce(|acc, p| Pred::Or(Box::new(acc), Box::new(p)))
        .unwrap();
    for (level, spec, forgotten) in levels(40, 10) {
        let mut engine = Engine::with_config(EngineConfig::serial());
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
        let q = engine.register_plan("wide", plan, spec).unwrap();
        drive(&mut engine, &batches);
        let expected: Vec<UniTemporalRow> = definition
            .iter()
            .filter(|r| !forgotten.contains(&r.id.0))
            .cloned()
            .collect();
        assert_eq!(net_rows(&engine, q), expected, "{level}");
        // One shell per operator: the chain is not collapsed.
        let names: Vec<&str> = engine.node_stats(q).iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["select", "project", "select", "slice"]);
    }
}
