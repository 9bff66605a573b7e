//! The denotational measurement harness behind the paper-figure
//! regeneration (`cedr-bench`'s `fig08`/`fig09`/`tab03`) and
//! `tests/consistency_levels.rs`. It pushes messages straight into a
//! lowered plan's dataflow — no engine, no sessions, no channel; new
//! measurement code should prefer the engine-surface harness in
//! [`crate::matrix`], which pins bit-identity across worker counts
//! before measuring.
//!
//! [`run_experiment`] scrambles each input stream under a delivery
//! regime (a [`DisorderConfig`]), drives the plan — lowered at the
//! consistency spec under test — to quiescence, and reports the paper's
//! observables:
//!
//! * **Blocking** — total and mean alignment-buffer residency (CEDR ticks);
//! * **State size** — peak operator state across the plan;
//! * **Output size** — inserts + retractions emitted by all operators;
//! * **accuracy** — F1 of the sink's net content against a reference run
//!   (the weak level trades this away; strong/middle must score 1.0).

use cedr_lang::LoweredPlan;
use cedr_runtime::OpStats;
use cedr_streams::{merge_scramble, DisorderConfig, Message, StreamStats};
use cedr_temporal::UniTemporalTable;

/// Measured outcomes.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Plan-wide operator statistics.
    pub total: OpStats,
    /// Sink output stream statistics.
    pub output: StreamStats,
    /// Net logical content of the sink.
    pub sink_net: UniTemporalTable,
}

/// Run one experiment cell — `plan` under the `disorder` delivery regime
/// — on the merged global timeline.
pub fn run_experiment(
    mut plan: LoweredPlan,
    streams: &[(String, Vec<Message>)],
    disorder: &DisorderConfig,
) -> ExperimentResult {
    let routed: Vec<(usize, &[Message])> = streams
        .iter()
        .filter_map(|(ty, msgs)| plan.source_index(ty).map(|idx| (idx, msgs.as_slice())))
        .collect();
    let merged = merge_scramble(&routed, disorder);
    for (src, msg) in merged {
        plan.dataflow.push_source(src, msg);
    }
    let collector = plan.dataflow.collector(plan.sink);
    ExperimentResult {
        total: plan.dataflow.total_stats(),
        output: collector.stats().clone(),
        sink_net: collector.net_table(),
    }
}

/// Symmetric F1 overlap of two net tables on `(interval, payload)` rows.
pub fn accuracy_f1(a: &UniTemporalTable, b: &UniTemporalTable) -> f64 {
    use std::collections::HashMap;
    let key = |t: &UniTemporalTable| {
        let mut m: HashMap<(cedr_temporal::Interval, cedr_temporal::Payload), usize> =
            HashMap::new();
        for r in &t.without_empty().rows {
            *m.entry((r.interval, r.payload.clone())).or_insert(0) += 1;
        }
        m
    };
    let ma = key(a);
    let mb = key(b);
    let inter: usize = ma
        .iter()
        .map(|(k, ca)| mb.get(k).map_or(0, |cb| (*ca).min(*cb)))
        .sum();
    let na: usize = ma.values().sum();
    let nb: usize = mb.values().sum();
    if na + nb == 0 {
        return 1.0;
    }
    2.0 * inter as f64 / (na + nb) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_algebra::expr::Pred;
    use cedr_lang::{lower, Catalog, FieldType, LogicalOp};
    use cedr_runtime::ConsistencySpec;
    use cedr_temporal::time::dur;
    use cedr_temporal::{Duration, EventId, Interval, Payload, TimePoint, UniTemporalRow, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_type("A", vec![("v", FieldType::Int)]);
        c.register_type("B", vec![("v", FieldType::Int)]);
        c
    }

    fn seq_plan(spec: ConsistencySpec) -> LoweredPlan {
        let plan = LogicalOp::Sequence {
            inputs: vec![
                LogicalOp::Source {
                    event_type: "A".into(),
                },
                LogicalOp::Source {
                    event_type: "B".into(),
                },
            ],
            w: dur(50),
            pred: Pred::True,
            modes: vec![cedr_algebra::pattern::ScMode::EACH_REUSE; 2],
        };
        lower(&plan, &catalog(), spec).unwrap()
    }

    fn streams() -> Vec<(String, Vec<Message>)> {
        let mk = |base: u64, n: u64, gap: u64| {
            let mut b = cedr_streams::StreamBuilder::with_id_base(base);
            for i in 0..n {
                b.insert_at(
                    TimePoint::new(i * gap + base % 7),
                    Payload::from_values(vec![Value::Int(i as i64)]),
                );
            }
            b.build_ordered(Some(Duration(20)), true)
        };
        vec![
            ("A".to_string(), mk(0, 50, 13)),
            ("B".to_string(), mk(10_000, 50, 17)),
        ]
    }

    #[test]
    fn strong_and_middle_agree_on_net_content() {
        let disorder = DisorderConfig::heavy(99, 120, 10);
        let strong = run_experiment(seq_plan(ConsistencySpec::strong()), &streams(), &disorder);
        let middle = run_experiment(seq_plan(ConsistencySpec::middle()), &streams(), &disorder);
        assert!(
            (accuracy_f1(&strong.sink_net, &middle.sink_net) - 1.0).abs() < 1e-9,
            "strong and middle must converge to the same net output"
        );
        // And the trade-off shape: strong blocks, middle retracts.
        assert!(strong.total.blocked_ticks > 0);
        assert_eq!(middle.total.blocked_ticks, 0);
    }

    #[test]
    fn ordered_delivery_blocks_far_less_than_disordered() {
        // The Figure-8 shape on the strong row: blocking scales with
        // disorder. (Some blocking remains even when ordered: a binary
        // operator waits for the *other* input's guarantee.)
        let ordered = run_experiment(
            seq_plan(ConsistencySpec::strong()),
            &streams(),
            &DisorderConfig::ordered(1),
        );
        let disordered = run_experiment(
            seq_plan(ConsistencySpec::strong()),
            &streams(),
            &DisorderConfig::heavy(1, 300, 25),
        );
        assert!(
            disordered.total.mean_blocking() > 2.0 * ordered.total.mean_blocking(),
            "disordered {} vs ordered {}",
            disordered.total.mean_blocking(),
            ordered.total.mean_blocking()
        );
    }

    #[test]
    fn f1_accuracy_measures_overlap() {
        let row = |a: u64, b: u64, v: i64| {
            UniTemporalRow::new(
                EventId(a * 1000 + b),
                Interval::new(TimePoint::new(a), TimePoint::new(b)),
                Payload::from_values(vec![Value::Int(v)]),
            )
        };
        let t1: UniTemporalTable = vec![row(0, 5, 1), row(5, 9, 2)].into_iter().collect();
        let t2: UniTemporalTable = vec![row(0, 5, 1)].into_iter().collect();
        assert!((accuracy_f1(&t1, &t1) - 1.0).abs() < 1e-9);
        let f1 = accuracy_f1(&t1, &t2);
        assert!((f1 - (2.0 / 3.0)).abs() < 1e-9);
        let empty = UniTemporalTable::new();
        assert_eq!(accuracy_f1(&empty, &empty), 1.0);
    }
}
