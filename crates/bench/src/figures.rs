//! One regeneration function per paper artifact. Each returns the rendered
//! report; the `repro_all` binary prints all of them, or the named ones.

use crate::{high_orderliness, low_orderliness, machine_engine, machine_streams, run_cell};
use cedr_algebra::expr::{CmpOp, Pred, Scalar};
use cedr_algebra::pattern as pat;
use cedr_runtime::{ConsistencySpec, OperatorShell};
use cedr_streams::Message;
use cedr_temporal::time::{dur, t};
use cedr_temporal::{
    BiTemporalTable, Duration, Event, EventId, HistoryTable, Interval, Payload, TimePoint,
    UniTemporalTable,
};
use cedr_workload::machines::MachineWorkloadConfig;
use cedr_workload::report::{classify, Table};
use cedr_workload::{accuracy_f1, send_scrambled};
use std::fmt::Write as _;

fn pt_ev(id: u64, vs: u64) -> Event {
    Event::primitive(EventId(id), Interval::point(t(vs)), Payload::empty())
}

/// Figure 1: the conceptual bitemporal stream representation.
pub fn fig01() -> String {
    let tbl = BiTemporalTable::figure1();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1 — Conceptual stream representation");
    let _ = writeln!(out, "{tbl:?}");
    let _ = writeln!(
        out,
        "Continuous query \"tuples valid at t, as of occurrence time o\":"
    );
    for (tv, o) in [(100u64, 1u64), (7, 2), (4, 3), (7, 3)] {
        let rows = tbl.valid_at(t(tv), t(o));
        let ids: Vec<String> = rows.iter().map(|r| r.id.to_string()).collect();
        let _ = writeln!(
            out,
            "  valid at t={tv:<3} as of o={o}: {{{}}}",
            ids.join(", ")
        );
    }
    out
}

/// Figure 2: the tritemporal history table, its reduction and ideal form.
pub fn fig02() -> String {
    let tbl = HistoryTable::figure2();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 2 — Tritemporal history table");
    let _ = writeln!(out, "{}", tbl.render_occurrence_table());
    let _ = writeln!(out, "Reduced (net effect per chain K):");
    let _ = writeln!(out, "{}", tbl.reduce().render_occurrence_table());
    let _ = writeln!(
        out,
        "Narrative check: the stream ultimately describes an insert with\n\
         occurrence [1,3) and a modification from occurrence 3 on — the\n\
         valid-time change moved from occurrence time 5 to 3."
    );
    out
}

/// Figures 3–5: reduction, truncation and logical equivalence.
pub fn fig03_05() -> String {
    let left = HistoryTable::figure3_left();
    let right = HistoryTable::figure3_right();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3 — Two history tables");
    let _ = writeln!(out, "LEFT:\n{}", left.render_occurrence_table());
    let _ = writeln!(out, "RIGHT:\n{}", right.render_occurrence_table());
    let _ = writeln!(out, "Figure 4 — Reduced");
    let _ = writeln!(out, "LEFT:\n{}", left.reduce().render_occurrence_table());
    let _ = writeln!(out, "RIGHT:\n{}", right.reduce().render_occurrence_table());
    let _ = writeln!(out, "Figure 5 — Canonical to 3");
    let _ = writeln!(
        out,
        "LEFT:\n{}",
        left.canonical_to(t(3)).render_occurrence_table()
    );
    let _ = writeln!(
        out,
        "RIGHT:\n{}",
        right.canonical_to(t(3)).render_occurrence_table()
    );
    let opts = cedr_temporal::EquivalenceOptions::definition1();
    let _ = writeln!(
        out,
        "logically equivalent to 3: {}",
        cedr_temporal::logically_equivalent_to(&left, &right, t(3), opts)
    );
    let _ = writeln!(
        out,
        "logically equivalent at 3: {}",
        cedr_temporal::logically_equivalent_at(&left, &right, t(3), opts)
    );
    let _ = writeln!(
        out,
        "logically equivalent to 4: {} (they diverge beyond 3)",
        cedr_temporal::logically_equivalent_to(&left, &right, t(4), opts)
    );
    out
}

/// Figure 6: the annotated history table and its sync points.
pub fn fig06() -> String {
    let tbl = HistoryTable::figure6();
    let ann = tbl.annotate();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 6 — Annotated history table");
    let _ = writeln!(out, "K    Sync  Os   Oe   Cs   Ce");
    for r in &ann {
        let _ = writeln!(
            out,
            "{:<4} {:<5} {:<4} {:<4} {:<4} {:<4}",
            r.row.k.to_string(),
            r.sync.to_string(),
            r.row.occurrence.start.to_string(),
            r.row.occurrence.end.to_string(),
            r.row.cedr.start.to_string(),
            r.row.cedr.end.to_string(),
        );
    }
    let pts = cedr_temporal::sync_points(&ann);
    let _ = writeln!(out, "Sync points (to, T): {pts:?}");
    let _ = writeln!(
        out,
        "Totally ordered (sort-by-Cs == sort-by-⟨Sync,Cs⟩): {}",
        cedr_temporal::sync::is_totally_ordered(&ann)
    );
    out
}

/// Figure 7: the anatomy of a CEDR operator, demonstrated live.
pub fn fig07() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7 — Anatomy of a CEDR operator (consistency monitor +\n\
         alignment buffer + operational module), demonstrated on a\n\
         two-input SEQUENCE fed identical out-of-order input under\n\
         different monitor configurations:\n"
    );
    let mut table = Table::new(
        "operator anatomy in action",
        &[
            "spec",
            "held peak",
            "blocked msgs",
            "blocked ticks",
            "out inserts",
            "out retractions",
        ],
    );
    for (name, spec) in [
        ("Strong ⟨B=∞,M=∞⟩", ConsistencySpec::strong()),
        ("Middle ⟨B=0,M=∞⟩", ConsistencySpec::middle()),
        ("Weak ⟨B=0,M=40⟩", ConsistencySpec::weak(dur(40))),
    ] {
        let mut shell = OperatorShell::new(
            Box::new(cedr_runtime::sequence::SequenceOp::new(
                2,
                dur(30),
                Pred::True,
            )),
            spec,
        );
        // Out-of-order arrivals on both ports, then a closing guarantee.
        let deliveries: Vec<(usize, Message)> = vec![
            (0, Message::insert_event(pt_ev(1, 50))),
            (1, Message::insert_event(pt_ev(10, 60))),
            (0, Message::insert_event(pt_ev(2, 10))), // late
            (1, Message::insert_event(pt_ev(11, 20))), // late
            (0, Message::Cti(TimePoint::INFINITY)),
            (1, Message::Cti(TimePoint::INFINITY)),
        ];
        for (i, (port, m)) in deliveries.into_iter().enumerate() {
            let _ = shell.push(port, m, i as u64);
        }
        let s = shell.stats();
        table.row(vec![
            name.into(),
            s.held_peak.to_string(),
            s.blocked_messages.to_string(),
            s.blocked_ticks.to_string(),
            s.out_inserts.to_string(),
            s.out_retractions.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out
}

/// Figure 8: the consistency trade-off matrix, measured.
pub fn fig08() -> String {
    let cfg = MachineWorkloadConfig {
        machines: 12,
        episodes: 25,
        ..Default::default()
    };
    let (streams, expected) = machine_streams(&cfg, Duration::minutes(10));
    let data_events: usize = streams
        .iter()
        .map(|(_, s)| s.iter().filter(|m| m.is_data()).count())
        .sum();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8 — Consistency trade-offs, measured on the CIDR07_Example\n\
         machine-monitoring workload ({data_events} events, {expected} true alerts).\n\
         Orderliness: High = globally ordered delivery + per-message CTIs;\n\
         Low = delivery delays up to 2 days + CTIs every 50 messages.\n"
    );
    let specs = [
        ("Strong", ConsistencySpec::strong()),
        ("Middle", ConsistencySpec::middle()),
        ("Weak", ConsistencySpec::weak(crate::weak_memory())),
    ];

    let mut table = Table::new(
        "measured",
        &[
            "Consistency",
            "Orderliness",
            "Blocking(ticks)",
            "State(peak)",
            "Output(msgs)",
            "Retractions",
            "Forgotten",
            "Accuracy(F1)",
        ],
    );
    let mut qual = Table::new(
        "qualitative (paper vocabulary; units = the ordered Strong/Middle cells)",
        &[
            "Consistency",
            "Orderliness",
            "Blocking",
            "State Size",
            "Output Size",
        ],
    );
    // Yardsticks: Strong/High for blocking (and the accuracy reference),
    // Middle/High for state & output, mirroring the paper's own
    // calibration points.
    let (strong_hi, qs) = run_cell(ConsistencySpec::strong(), high_orderliness(3), &streams);
    let (middle_hi, qm) = run_cell(ConsistencySpec::middle(), high_orderliness(3), &streams);
    let reference = strong_hi.collector(qs).net_table();
    let unit_blocking = 1.0_f64.max(strong_hi.stats(qs).blocked_ticks as f64);
    let unit_state = 1.0_f64.max(middle_hi.stats(qm).state_peak as f64);
    let unit_output = 1.0_f64.max(middle_hi.collector(qm).stats().data_messages as f64);

    for (sname, spec) in specs {
        for (oname, disorder) in [("High", high_orderliness(3)), ("Low", low_orderliness(3))] {
            let (engine, q) = run_cell(spec, disorder, &streams);
            let (total, sink) = (engine.stats(q), engine.collector(q));
            let output = sink.stats();
            let f1 = accuracy_f1(&sink.net_table(), &reference);
            table.row(vec![
                sname.into(),
                oname.into(),
                total.blocked_ticks.to_string(),
                total.state_peak.to_string(),
                output.data_messages.to_string(),
                output.retractions.to_string(),
                total.forgotten.to_string(),
                format!("{f1:.3}"),
            ]);
            qual.row(vec![
                sname.into(),
                oname.into(),
                classify(total.blocked_ticks as f64, unit_blocking).into(),
                classify(total.state_peak as f64, unit_state).into(),
                classify(output.data_messages as f64, unit_output).into(),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&qual.render());
    let _ = writeln!(
        out,
        "\nPaper's Figure 8 for comparison (per consistency level,\n\
         ordered/out-of-order): Strong blocking Low/High, state Low/High,\n\
         output Minimal each; Middle blocking None, state Low/High, output\n\
         Low/High; Weak blocking None, state Low/Low-, output Low/Low-."
    );
    out.push('\n');
    out.push_str(&fig08b());
    out
}

/// Figure 8 companion: the same matrix on a *monotone* operator pipeline
/// (windowed per-machine count), where late arrivals rewrite previously
/// emitted aggregate segments — the regime in which the middle level's
/// output grows with disorder, exactly as the paper's table reads.
pub fn fig08b() -> String {
    use cedr_algebra::relational::AggFunc;
    use cedr_lang::LogicalOp;
    let cfg = MachineWorkloadConfig {
        machines: 12,
        episodes: 25,
        ..Default::default()
    };
    let trace = cedr_workload::machines::generate(&cfg);
    let streams = vec![(
        "INSTALL".to_string(),
        cedr_workload::finance::to_stream(&trace.installs, Some(Duration::minutes(10))),
    )];
    let plan = || LogicalOp::GroupAggregate {
        input: Box::new(LogicalOp::AlterLifetime {
            input: Box::new(LogicalOp::Source {
                event_type: "INSTALL".into(),
            }),
            fvs: cedr_algebra::alter_lifetime::VsFn::Vs,
            fdelta: cedr_algebra::alter_lifetime::DeltaFn::Const(Duration::hours(1)),
        }),
        key: Vec::new(), // global count: cross-machine windows overlap
        agg: AggFunc::Count,
    };
    let run = |spec: ConsistencySpec, disorder| {
        let mut engine = machine_engine();
        let q = engine
            .register_plan("fig08b", plan(), spec)
            .expect("registers");
        send_scrambled(&mut engine, &streams, &disorder).expect("INSTALL is registered");
        (engine, q)
    };
    let reference = {
        let (engine, q) = run(ConsistencySpec::strong(), high_orderliness(5));
        engine.collector(q).net_table()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8b — the same matrix on a monotone pipeline\n\
         (global 1-hour windowed count over INSTALL events, whose\n\
         overlapping windows make late arrivals rewrite emitted\n\
         segments):\n"
    );
    let mut table = Table::new(
        "measured",
        &[
            "Consistency",
            "Orderliness",
            "Blocking(ticks)",
            "State(peak)",
            "Output(msgs)",
            "Retractions",
            "Accuracy(F1)",
        ],
    );
    for (sname, spec) in [
        ("Strong", ConsistencySpec::strong()),
        ("Middle", ConsistencySpec::middle()),
        ("Weak", ConsistencySpec::weak(crate::weak_memory())),
    ] {
        for (oname, disorder) in [("High", high_orderliness(5)), ("Low", low_orderliness(5))] {
            let (engine, q) = run(spec, disorder);
            let (total, sink) = (engine.stats(q), engine.collector(q));
            let f1 = accuracy_f1(&sink.net_table(), &reference);
            table.row(vec![
                sname.into(),
                oname.into(),
                total.blocked_ticks.to_string(),
                total.state_peak.to_string(),
                sink.stats().data_messages.to_string(),
                sink.stats().retractions.to_string(),
                format!("{f1:.3}"),
            ]);
        }
    }
    out.push_str(&table.render());
    out
}

/// Figure 9: the ⟨M, B⟩ consistency spectrum, swept.
pub fn fig09() -> String {
    let cfg = MachineWorkloadConfig {
        machines: 8,
        episodes: 15,
        ..Default::default()
    };
    let (streams, _expected) = machine_streams(&cfg, Duration::minutes(10));
    let reference = {
        let (engine, q) = run_cell(ConsistencySpec::strong(), high_orderliness(9), &streams);
        engine.collector(q).net_table()
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 9 — The ⟨max-memory M, max-blocking B⟩ spectrum under low\n\
         orderliness. Only B ≤ M is meaningful; corners: ⟨0,0⟩ = weakest,\n\
         ⟨0,∞⟩ = middle, ⟨∞,∞⟩ = strong.\n"
    );
    let mut table = Table::new(
        "spectrum sweep",
        &[
            "M",
            "B",
            "Blocking(ticks)",
            "State(peak)",
            "Output(msgs)",
            "Forgotten",
            "Accuracy(F1)",
        ],
    );
    let axis = [
        Duration::ZERO,
        Duration::minutes(10),
        Duration::hours(2),
        Duration::hours(14),
        Duration::INFINITE,
    ];
    for m in axis {
        for b in axis {
            if b > m {
                continue; // the inert upper-left triangle
            }
            let spec = ConsistencySpec::custom(b, m);
            let (engine, q) = run_cell(spec, low_orderliness(9), &streams);
            let total = engine.stats(q);
            let f1 = accuracy_f1(&engine.collector(q).net_table(), &reference);
            table.row(vec![
                m.to_string(),
                b.to_string(),
                total.blocked_ticks.to_string(),
                total.state_peak.to_string(),
                total.output_size().to_string(),
                total.forgotten.to_string(),
                format!("{f1:.3}"),
            ]);
        }
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nExpected shape: accuracy and state grow along M; blocking grows\n\
         along B while retraction volume falls; ⟨∞,∞⟩ and ⟨0,∞⟩ agree on\n\
         accuracy 1.0."
    );
    out
}

/// Figure 10: the unitemporal ideal history table and coalescing.
pub fn fig10() -> String {
    let tbl = UniTemporalTable::figure10();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 10 — Unitemporal ideal history table");
    let _ = writeln!(out, "{tbl:?}");
    let _ = writeln!(
        out,
        "Snapshots: t=4 -> {} rows; t=8 -> {} rows",
        tbl.snapshot_at(t(4)).len(),
        tbl.snapshot_at(t(8)).len()
    );
    // Coalescing demo (Definition 10).
    let chopped: UniTemporalTable = vec![
        cedr_temporal::UniTemporalRow::new(
            EventId(0),
            cedr_temporal::interval::iv(1, 4),
            Payload::from_values(vec![cedr_temporal::Value::str("P")]),
        ),
        cedr_temporal::UniTemporalRow::new(
            EventId(1),
            cedr_temporal::interval::iv(4, 7),
            Payload::from_values(vec![cedr_temporal::Value::str("P")]),
        ),
    ]
    .into_iter()
    .collect();
    let _ = writeln!(
        out,
        "\nDefinition 10 — coalescing `*`:\n{:?}*(that) =\n{:?}",
        chopped,
        chopped.star()
    );
    out
}

/// §3.3.2 sequencing-operator table, evaluated on a shared fixture.
pub fn tab01() -> String {
    let e1 = vec![pt_ev(1, 1)];
    let e2 = vec![pt_ev(2, 3)];
    let e3 = vec![pt_ev(3, 5)];
    let slots = [e1, e2, e3];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§3.3.2 sequencing operators on E1@1, E2@3, E3@5 (w = 10):\n"
    );
    let mut table = Table::new("", &["operator", "outputs (Vs, Ve, |cbt|)"]);
    let fmt = |evs: &[Event]| {
        let mut v: Vec<String> = evs
            .iter()
            .map(|e| format!("({}, {}, {})", e.vs(), e.ve(), e.lineage.len()))
            .collect();
        v.sort();
        v.join(" ")
    };
    table.row(vec![
        "SEQUENCE(E1,E2,E3,10)".into(),
        fmt(&pat::sequence(&slots, dur(10), &Pred::True)),
    ]);
    table.row(vec![
        "ATLEAST(2,E1,E2,E3,10)".into(),
        fmt(&pat::atleast(2, &slots, dur(10), &Pred::True)),
    ]);
    table.row(vec![
        "ALL(E1,E2,E3,10)".into(),
        fmt(&pat::all(&slots, dur(10), &Pred::True)),
    ]);
    table.row(vec![
        "ANY(E1,E2,E3)".into(),
        fmt(&pat::any(&slots, &Pred::True)),
    ]);
    table.row(vec![
        "ATMOST(1,E1,E2,E3,10)".into(),
        fmt(&pat::atmost(1, &slots, dur(10))),
    ]);
    out.push_str(&table.render());
    out
}

/// §3.3.2 negation-operator table.
pub fn tab02() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "§3.3.2 negation operators:\n");
    let mut table = Table::new("", &["operator", "scenario", "outputs"]);
    let fmt = |evs: &[Event]| {
        let mut v: Vec<String> = evs
            .iter()
            .map(|e| format!("({}, {})", e.vs(), e.ve()))
            .collect();
        v.sort();
        if v.is_empty() {
            "(none)".to_string()
        } else {
            v.join(" ")
        }
    };
    let e1 = vec![pt_ev(1, 10)];
    table.row(vec![
        "UNLESS(E1,E2,5)".into(),
        "no E2 in (10,15)".into(),
        fmt(&pat::unless(&e1, &[pt_ev(2, 20)], dur(5), &Pred::True)),
    ]);
    table.row(vec![
        "UNLESS(E1,E2,5)".into(),
        "E2@12 ∈ (10,15)".into(),
        fmt(&pat::unless(&e1, &[pt_ev(2, 12)], dur(5), &Pred::True)),
    ]);
    // UNLESS′ anchored at the composite's first contributor.
    let c1 = pt_ev(100, 2);
    let c2 = pt_ev(101, 10);
    let comp = Event::composite(
        cedr_algebra::idgen(&[c1.id, c2.id]),
        Interval::new(t(10), t(20)),
        t(2),
        cedr_temporal::Lineage::of(vec![c1.id, c2.id]),
        Payload::empty(),
    );
    let pool = vec![c1, c2];
    table.row(vec![
        "UNLESS'(E1,E2,n=1,5)".into(),
        "scope (2,7); E2@8 outside".into(),
        fmt(&pat::unless_prime(
            std::slice::from_ref(&comp),
            &[pt_ev(5, 8)],
            1,
            dur(5),
            &Pred::True,
            &pool,
        )),
    ]);
    let seq_inputs = [vec![pt_ev(1, 1)], vec![pt_ev(2, 10)]];
    table.row(vec![
        "NOT(E,SEQ(E1,E2,20))".into(),
        "E@5 between contributors".into(),
        fmt(&pat::not_sequence(
            &[pt_ev(3, 5)],
            &seq_inputs,
            dur(20),
            &Pred::True,
            &Pred::True,
        )),
    ]);
    table.row(vec![
        "NOT(E,SEQ(E1,E2,20))".into(),
        "E@25 outside".into(),
        fmt(&pat::not_sequence(
            &[pt_ev(3, 25)],
            &seq_inputs,
            dur(20),
            &Pred::True,
            &Pred::True,
        )),
    ]);
    table.row(vec![
        "CANCEL-WHEN(E1,E2)".into(),
        "E2@5 ∈ (rt=2, Vs=10)".into(),
        fmt(&pat::cancel_when(
            std::slice::from_ref(&comp),
            &[pt_ev(4, 5)],
            &Pred::True,
        )),
    ]);
    table.row(vec![
        "CANCEL-WHEN(E1,E2)".into(),
        "E2@1 before rt".into(),
        fmt(&pat::cancel_when(&[comp], &[pt_ev(4, 1)], &Pred::True)),
    ]);
    out.push_str(&table.render());
    out
}

/// The full language pipeline on the paper's CIDR07_Example query.
pub fn tab03() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "CIDR07_Example — full pipeline\n\nQuery text:");
    let _ = writeln!(out, "{}\n", cedr_lang::parser::CIDR07_EXAMPLE);
    let cfg = MachineWorkloadConfig {
        machines: 6,
        episodes: 10,
        ..Default::default()
    };
    let (streams, expected) = machine_streams(&cfg, Duration::minutes(10));
    let (engine, q) = run_cell(ConsistencySpec::middle(), low_orderliness(4), &streams);
    let _ = writeln!(
        out,
        "Optimized logical plan (predicates injected):\n{}",
        engine.explain(q)
    );
    let sink = engine.collector(q);
    let detected = sink.net_table().len();
    let _ = writeln!(
        out,
        "Run on {expected} ground-truth alerts (disordered delivery):\n  \
         detected = {detected}, retractions emitted = {}, accuracy vs truth: exact = {}",
        sink.stats().retractions,
        detected == expected
    );
    out
}

/// Definitions 7–12: view-update compliance and the AlterLifetime family.
pub fn tab04() -> String {
    use cedr_algebra::compliance::{check_view_update_compliance, fixture_events};
    use cedr_algebra::{alter_lifetime as al, relational as rel};
    let mut out = String::new();
    let _ = writeln!(out, "Definitions 7–12 — view update compliance (Def 11):\n");
    let mut table = Table::new("", &["operator", "view-update compliant?"]);
    let events = fixture_events(24, 60, 6);
    let sel_pred = Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(2i64));
    table.row(vec![
        "σ (selection)".into(),
        check_view_update_compliance(|i| rel::select(i, &sel_pred), &events, 4).to_string(),
    ]);
    table.row(vec![
        "π (projection)".into(),
        check_view_update_compliance(|i| rel::project(i, &[Scalar::Field(0)]), &events, 4)
            .to_string(),
    ]);
    table.row(vec![
        "count aggregate".into(),
        check_view_update_compliance(
            |i| rel::group_aggregate(i, &[], &rel::AggFunc::Count),
            &events,
            4,
        )
        .to_string(),
    ]);
    let long = vec![Event::primitive(
        EventId(1),
        cedr_temporal::interval::iv(0, 30),
        Payload::empty(),
    )];
    table.row(vec![
        "W_5 (moving window)".into(),
        check_view_update_compliance(|i| al::moving_window(i, dur(5)), &long, 4).to_string(),
    ]);
    table.row(vec![
        "Inserts = Π(Vs,∞)".into(),
        check_view_update_compliance(al::inserts, &long, 4).to_string(),
    ]);
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nAs the paper states: the relational family is view-update\n\
         compliant; AlterLifetime-derived windows and the inserts/deletes\n\
         separation are NOT (yet all are well behaved, Def 6 — checked by\n\
         the property suite in tests/)."
    );
    let e = Event::primitive(
        EventId(9),
        cedr_temporal::interval::iv(2, 9),
        Payload::empty(),
    );
    let _ = writeln!(out, "\nAlterLifetime family on one event [2,9):");
    let _ = writeln!(
        out,
        "  W_3       -> {:?}",
        al::moving_window(std::slice::from_ref(&e), dur(3))[0].interval
    );
    let _ = writeln!(
        out,
        "  Inserts   -> {:?}",
        al::inserts(std::slice::from_ref(&e))[0].interval
    );
    let _ = writeln!(
        out,
        "  Deletes   -> {:?}",
        al::deletes(std::slice::from_ref(&e))[0].interval
    );
    let _ = writeln!(
        out,
        "  Hop(5,5)  -> {:?}",
        al::hopping_window(&[e], 5, dur(5))[0].interval
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_render_without_panicking() {
        for (name, s) in [
            ("fig01", fig01()),
            ("fig02", fig02()),
            ("fig03_05", fig03_05()),
            ("fig06", fig06()),
            ("fig07", fig07()),
            ("fig08", fig08()),
            ("fig09", fig09()),
            ("fig10", fig10()),
            ("tab01", tab01()),
            ("tab02", tab02()),
            ("tab03", tab03()),
            ("tab04", tab04()),
        ] {
            assert!(!s.is_empty(), "{name} produced no output");
        }
    }

    #[test]
    fn fig07_shows_the_monitor_difference() {
        let s = fig07();
        assert!(s.contains("Strong"));
        assert!(s.contains("Middle"));
        // Strong holds messages; the report must show nonzero held peak on
        // the strong row and zero on middle.
        let strong_line = s.lines().find(|l| l.contains("Strong")).unwrap();
        assert!(!strong_line.contains("  0  0  0"));
    }

    #[test]
    fn tab02_negation_scenarios_behave() {
        let s = tab02();
        assert!(s.contains("(none)"), "negated scenarios suppress output");
    }
}
