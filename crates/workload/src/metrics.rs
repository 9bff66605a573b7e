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
use cedr_streams::{DisorderConfig, Message, StreamStats};
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

/// Scramble several per-type streams onto ONE global delivery timeline.
///
/// Every data message across all streams gets a delivery key
/// `sync + U[0, max_delay]` (seeded per stream); the merged timeline is
/// sorted by key, so cross-stream arrival order tracks application time
/// plus disorder — the realistic regime for multi-provider queries. Valid
/// per-stream CTIs are re-derived: after every `cti_period` deliveries of
/// stream `s`, a `CTI(t)` with the largest safe `t` for `s` is injected;
/// sealed streams end with `CTI(∞)`.
pub fn merge_scramble(
    streams: &[(usize, &[Message])],
    cfg: &DisorderConfig,
) -> Vec<(usize, Message)> {
    use cedr_temporal::{Duration, TimePoint};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    struct Item {
        key: TimePoint,
        seq: usize,
        source: usize,
        msg: Message,
    }
    let mut items: Vec<Item> = Vec::new();
    let mut remaining: Vec<BTreeMap<TimePoint, usize>> = Vec::new();
    let mut sealed: Vec<bool> = Vec::new();
    let mut seq = 0usize;
    for (src, msgs) in streams {
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ (*src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rem: BTreeMap<TimePoint, usize> = BTreeMap::new();
        sealed.push(matches!(msgs.last(), Some(Message::Cti(t)) if t.is_infinite()));
        for m in msgs.iter() {
            if !m.is_data() {
                continue;
            }
            let delay = if cfg.max_delay == 0 {
                0
            } else {
                rng.gen_range(0..=cfg.max_delay)
            };
            items.push(Item {
                key: m.sync() + Duration(delay),
                seq,
                source: *src,
                msg: m.clone(),
            });
            seq += 1;
            *rem.entry(m.sync()).or_insert(0) += 1;
        }
        remaining.push(rem);
    }
    items.sort_by_key(|i| (i.key, i.seq));

    let src_slot: Vec<usize> = streams.iter().map(|(s, _)| *s).collect();
    let slot_of = |src: usize| src_slot.iter().position(|s| *s == src).expect("known");

    let mut out: Vec<(usize, Message)> = Vec::with_capacity(items.len() + 16);
    let mut since_cti: Vec<usize> = vec![0; streams.len()];
    let mut last_cti: Vec<TimePoint> = vec![TimePoint::ZERO; streams.len()];
    for item in items {
        let slot = slot_of(item.source);
        let sync = item.msg.sync();
        if let Some(c) = remaining[slot].get_mut(&sync) {
            *c -= 1;
            if *c == 0 {
                remaining[slot].remove(&sync);
            }
        }
        out.push((item.source, item.msg));
        since_cti[slot] += 1;
        if let Some(period) = cfg.cti_period {
            if since_cti[slot] >= period {
                since_cti[slot] = 0;
                let safe = remaining[slot]
                    .keys()
                    .next()
                    .copied()
                    .unwrap_or(TimePoint::INFINITY);
                if safe > last_cti[slot] && safe.is_finite() {
                    out.push((item.source, Message::Cti(safe)));
                    last_cti[slot] = safe;
                }
            }
        }
    }
    for (slot, (src, _)) in streams.iter().enumerate() {
        if sealed[slot] {
            out.push((*src, Message::Cti(TimePoint::INFINITY)));
        }
    }
    out
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
