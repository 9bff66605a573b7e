//! Physical planning: lower a logical plan onto a `cedr-runtime` dataflow.
//!
//! Lowering is one-to-one: every logical operator becomes its own
//! `OperatorShell` node around the matching operational module, so every
//! operator runs its own consistency monitor (Figure 7). A stateless
//! chain (select, project, alter-lifetime, slice) is a chain of plain
//! shells; the only operators the lowering itself adds are the
//! union/window/count/select expansion of `ATMOST` and a pass-through
//! select when the plan's root is a bare source. Merging adjacent selects
//! and projects would be a logical rewrite, the optimizer's business, not
//! a second physical operator.

use crate::catalog::Catalog;
use crate::error::LangError;
use crate::logical::LogicalOp;
use cedr_algebra::expr::{CmpOp, Pred, Scalar};
use cedr_algebra::relational::AggFunc;
use cedr_runtime::aggregate::GroupAggregateOp;
use cedr_runtime::join::JoinOp;
use cedr_runtime::negation::NegationOp;
use cedr_runtime::sequence::{AtLeastOp, SequenceOp};
use cedr_runtime::stateless::{AlterLifetimeOp, ProjectOp, SelectOp, SliceOp, UnionOp};
use cedr_runtime::{ConsistencySpec, Dataflow, DataflowBuilder, NodeId, Port};
use cedr_temporal::Interval;

/// A lowered, executable query plan.
pub struct LoweredPlan {
    pub dataflow: Dataflow,
    /// The node whose output is the query result.
    pub sink: NodeId,
    /// Source index → event type name.
    pub source_types: Vec<String>,
}

impl LoweredPlan {
    /// Source index of an event type, if the plan consumes it.
    pub fn source_index(&self, event_type: &str) -> Option<usize> {
        self.source_types.iter().position(|t| t == event_type)
    }
}

/// Lower a logical plan. All operators run at the given consistency spec
/// (per-query consistency, as Section 1 proposes).
pub fn lower(
    root: &LogicalOp,
    _catalog: &Catalog,
    spec: ConsistencySpec,
) -> Result<LoweredPlan, LangError> {
    let source_types = root.sources();
    let mut b = DataflowBuilder::new(source_types.len());
    let port = build(root, &source_types, &mut b, spec)?;
    // The sink must be a node so it can be watched; wrap bare sources.
    let sink = match port {
        Port::Node(n) => n,
        src @ Port::Source(_) => b.add_node(Box::new(SelectOp::new(Pred::True)), spec, vec![src]),
    };
    let dataflow = b.build(&[sink]);
    Ok(LoweredPlan {
        dataflow,
        sink,
        source_types,
    })
}

/// [`lower`]. Both flags are ignored — there is one stateless path — and
/// kept only so existing callers of this signature still build.
pub fn lower_with(
    root: &LogicalOp,
    catalog: &Catalog,
    spec: ConsistencySpec,
    _fuse: bool,
    _compile: bool,
) -> Result<LoweredPlan, LangError> {
    lower(root, catalog, spec)
}

fn build(
    op: &LogicalOp,
    sources: &[String],
    b: &mut DataflowBuilder,
    spec: ConsistencySpec,
) -> Result<Port, LangError> {
    Ok(match op {
        LogicalOp::Source { event_type } => {
            let idx = sources
                .iter()
                .position(|t| t == event_type)
                .expect("source collected");
            Port::Source(idx)
        }
        LogicalOp::Select { input, pred } => {
            let p = build(input, sources, b, spec)?;
            Port::Node(b.add_node(Box::new(SelectOp::new(pred.clone())), spec, vec![p]))
        }
        LogicalOp::Project { input, exprs, .. } => {
            let p = build(input, sources, b, spec)?;
            Port::Node(b.add_node(Box::new(ProjectOp::new(exprs.clone())), spec, vec![p]))
        }
        LogicalOp::AlterLifetime { input, fvs, fdelta } => {
            let p = build(input, sources, b, spec)?;
            Port::Node(b.add_node(Box::new(AlterLifetimeOp::new(*fvs, *fdelta)), spec, vec![p]))
        }
        LogicalOp::GroupAggregate { input, key, agg } => {
            let p = build(input, sources, b, spec)?;
            Port::Node(b.add_node(
                Box::new(GroupAggregateOp::new(key.clone(), agg.clone())),
                spec,
                vec![p],
            ))
        }
        LogicalOp::Join {
            left,
            right,
            theta,
            equi_keys,
        } => {
            let l = build(left, sources, b, spec)?;
            let r = build(right, sources, b, spec)?;
            let mut join = JoinOp::new(theta.clone());
            if let Some((kl, kr)) = equi_keys {
                join = join.with_keys(kl.clone(), kr.clone());
            }
            Port::Node(b.add_node(Box::new(join), spec, vec![l, r]))
        }
        LogicalOp::Union { left, right } => {
            let l = build(left, sources, b, spec)?;
            let r = build(right, sources, b, spec)?;
            Port::Node(b.add_node(Box::new(UnionOp), spec, vec![l, r]))
        }
        LogicalOp::Sequence {
            inputs,
            w,
            pred,
            modes,
        } => {
            let ports = inputs
                .iter()
                .map(|i| build(i, sources, b, spec))
                .collect::<Result<Vec<_>, _>>()?;
            Port::Node(b.add_node(
                Box::new(SequenceOp::with_modes(
                    inputs.len(),
                    *w,
                    pred.clone(),
                    modes.clone(),
                )),
                spec,
                ports,
            ))
        }
        LogicalOp::AtLeast {
            n,
            inputs,
            w,
            pred,
            modes,
        } => {
            let ports = inputs
                .iter()
                .map(|i| build(i, sources, b, spec))
                .collect::<Result<Vec<_>, _>>()?;
            Port::Node(b.add_node(
                Box::new(AtLeastOp::with_modes(
                    *n,
                    inputs.len(),
                    *w,
                    pred.clone(),
                    modes.clone(),
                )),
                spec,
                ports,
            ))
        }
        LogicalOp::AtMost { n, inputs, w } => {
            // The paper's sugar: union the contributors, extend each
            // occurrence to a lifetime of w, count, keep count ≤ n.
            let mut ports = inputs
                .iter()
                .map(|i| build(i, sources, b, spec))
                .collect::<Result<Vec<_>, _>>()?;
            let mut acc = ports.remove(0);
            for p in ports {
                acc = Port::Node(b.add_node(Box::new(UnionOp), spec, vec![acc, p]));
            }
            let extended = b.add_node(
                Box::new(AlterLifetimeOp::new(
                    cedr_algebra::alter_lifetime::VsFn::Vs,
                    cedr_algebra::alter_lifetime::DeltaFn::Const(*w),
                )),
                spec,
                vec![acc],
            );
            let counted = b.add_node(
                Box::new(GroupAggregateOp::global(AggFunc::Count)),
                spec,
                vec![Port::Node(extended)],
            );
            let filtered = b.add_node(
                Box::new(SelectOp::new(Pred::Cmp(
                    Scalar::Field(0),
                    CmpOp::Le,
                    Scalar::lit(*n as i64),
                ))),
                spec,
                vec![Port::Node(counted)],
            );
            Port::Node(filtered)
        }
        LogicalOp::Unless { main, neg, w, pred } => {
            let m = build(main, sources, b, spec)?;
            let n = build(neg, sources, b, spec)?;
            Port::Node(b.add_node(
                Box::new(NegationOp::unless(*w, pred.clone())),
                spec,
                vec![m, n],
            ))
        }
        LogicalOp::NotSeq { main, neg, pred } => {
            // The sequence's scope bounds Vs − Rt of its outputs, so the
            // negation operator can purge its negator state.
            let seq_w = match main.as_ref() {
                LogicalOp::Sequence { w, .. } => Some(*w),
                _ => None,
            };
            let m = build(main, sources, b, spec)?;
            let n = build(neg, sources, b, spec)?;
            let mut op = NegationOp::history(pred.clone());
            if let Some(w) = seq_w {
                op = op.with_max_history(w);
            }
            Port::Node(b.add_node(Box::new(op), spec, vec![m, n]))
        }
        LogicalOp::CancelWhen { main, neg, pred } => {
            let m = build(main, sources, b, spec)?;
            let n = build(neg, sources, b, spec)?;
            Port::Node(b.add_node(
                Box::new(NegationOp::history(pred.clone())),
                spec,
                vec![m, n],
            ))
        }
        LogicalOp::SliceOcc { input, from, to } => {
            let p = build(input, sources, b, spec)?;
            Port::Node(b.add_node(
                Box::new(SliceOp::new(None, Some(Interval::new(*from, *to)))),
                spec,
                vec![p],
            ))
        }
        LogicalOp::SliceValid { input, from, to } => {
            let p = build(input, sources, b, spec)?;
            Port::Node(b.add_node(
                Box::new(SliceOp::new(Some(Interval::new(*from, *to)), None)),
                spec,
                vec![p],
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, FieldType};
    use crate::parser::{parse_query, CIDR07_EXAMPLE};
    use crate::{binder::bind, optimizer::optimize};
    use cedr_streams::{Message, StreamBuilder};
    use cedr_temporal::time::t;
    use cedr_temporal::{Payload, TimePoint, Value};

    fn machine_catalog() -> Catalog {
        let mut c = Catalog::new();
        for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
            c.register_type(ty, vec![("Machine_Id", FieldType::Str)]);
        }
        c
    }

    fn compile(text: &str, spec: ConsistencySpec) -> LoweredPlan {
        let cat = machine_catalog();
        let q = parse_query(text).unwrap();
        let b = bind(&q, &cat).unwrap();
        let o = optimize(b.root);
        lower(&o, &cat, spec).unwrap()
    }

    fn machine(m: &str) -> Payload {
        Payload::from_values(vec![Value::str(m)])
    }

    #[test]
    fn cidr07_example_end_to_end_no_restart_fires() {
        let mut plan = compile(CIDR07_EXAMPLE, ConsistencySpec::middle());
        let install = plan.source_index("INSTALL").unwrap();
        let shutdown = plan.source_index("SHUTDOWN").unwrap();
        let restart = plan.source_index("RESTART").unwrap();

        // INSTALL m1 at 100, SHUTDOWN m1 at 200 (within 12h), no RESTART.
        let mut sb = StreamBuilder::with_id_base(0);
        let e1 = sb.insert_at(t(100), machine("m1"));
        let mut sb2 = StreamBuilder::with_id_base(1000);
        let e2 = sb2.insert_at(t(200), machine("m1"));
        let _ = (e1, e2);
        plan.dataflow.push_source(
            install,
            Message::insert_event(sb.build_raw()[0].as_insert().unwrap().clone()),
        );
        plan.dataflow.push_source(
            shutdown,
            Message::insert_event(sb2.build_raw()[0].as_insert().unwrap().clone()),
        );
        // Seal all three inputs.
        for src in [install, shutdown, restart] {
            plan.dataflow
                .push_source(src, Message::Cti(TimePoint::INFINITY));
        }
        let out = plan.dataflow.collector(plan.sink);
        assert_eq!(out.stats().inserts, 1, "the UNLESS pattern fired once");
        assert_eq!(out.net_table().len(), 1);
    }

    #[test]
    fn cidr07_example_restart_within_5min_suppresses() {
        let mut plan = compile(CIDR07_EXAMPLE, ConsistencySpec::middle());
        let install = plan.source_index("INSTALL").unwrap();
        let shutdown = plan.source_index("SHUTDOWN").unwrap();
        let restart = plan.source_index("RESTART").unwrap();

        let mk = |id: u64, vs: u64, m: &str| {
            Message::insert_event(cedr_temporal::Event::primitive(
                cedr_temporal::EventId(id),
                cedr_temporal::Interval::point(t(vs)),
                machine(m),
            ))
        };
        plan.dataflow.push_source(install, mk(1, 100, "m1"));
        plan.dataflow.push_source(shutdown, mk(2, 200, "m1"));
        // RESTART on the same machine 100 s after the shutdown (< 5 min).
        plan.dataflow.push_source(restart, mk(3, 300, "m1"));
        for src in [install, shutdown, restart] {
            plan.dataflow
                .push_source(src, Message::Cti(TimePoint::INFINITY));
        }
        let out = plan.dataflow.collector(plan.sink);
        assert!(
            out.net_table().is_empty(),
            "restart within 5 minutes suppresses the alert"
        );
    }

    #[test]
    fn cidr07_example_restart_on_other_machine_does_not_suppress() {
        let mut plan = compile(CIDR07_EXAMPLE, ConsistencySpec::middle());
        let install = plan.source_index("INSTALL").unwrap();
        let shutdown = plan.source_index("SHUTDOWN").unwrap();
        let restart = plan.source_index("RESTART").unwrap();
        let mk = |id: u64, vs: u64, m: &str| {
            Message::insert_event(cedr_temporal::Event::primitive(
                cedr_temporal::EventId(id),
                cedr_temporal::Interval::point(t(vs)),
                machine(m),
            ))
        };
        plan.dataflow.push_source(install, mk(1, 100, "m1"));
        plan.dataflow.push_source(shutdown, mk(2, 200, "m1"));
        plan.dataflow.push_source(restart, mk(3, 300, "m2"));
        for src in [install, shutdown, restart] {
            plan.dataflow
                .push_source(src, Message::Cti(TimePoint::INFINITY));
        }
        let out = plan.dataflow.collector(plan.sink);
        assert_eq!(out.net_table().len(), 1, "other machine's restart ignored");
    }

    #[test]
    fn atmost_plan_counts() {
        let mut plan = compile(
            "EVENT q WHEN ATMOST(1, INSTALL a, SHUTDOWN b, 10 ticks)",
            ConsistencySpec::middle(),
        );
        let install = plan.source_index("INSTALL").unwrap();
        let shutdown = plan.source_index("SHUTDOWN").unwrap();
        let mk = |id: u64, vs: u64| {
            Message::insert_event(cedr_temporal::Event::primitive(
                cedr_temporal::EventId(id),
                cedr_temporal::Interval::point(t(vs)),
                machine("m"),
            ))
        };
        plan.dataflow.push_source(install, mk(1, 0));
        plan.dataflow.push_source(shutdown, mk(1000, 2));
        for src in [install, shutdown] {
            plan.dataflow
                .push_source(src, Message::Cti(TimePoint::INFINITY));
        }
        let net = plan.dataflow.collector(plan.sink).net_table();
        // Count ≤ 1 holds on [0,2) and [10,12).
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn slice_plan_filters_occurrences() {
        let mut plan = compile(
            "EVENT q WHEN SEQUENCE(INSTALL a, SHUTDOWN b, 100 ticks) @ [0, 150)",
            ConsistencySpec::middle(),
        );
        let install = plan.source_index("INSTALL").unwrap();
        let shutdown = plan.source_index("SHUTDOWN").unwrap();
        let mk = |id: u64, vs: u64| {
            Message::insert_event(cedr_temporal::Event::primitive(
                cedr_temporal::EventId(id),
                cedr_temporal::Interval::point(t(vs)),
                machine("m"),
            ))
        };
        // Match completing at 120 (inside slice) and one at 220 (outside).
        plan.dataflow.push_source(install, mk(1, 100));
        plan.dataflow.push_source(shutdown, mk(1000, 120));
        plan.dataflow.push_source(install, mk(2, 200));
        plan.dataflow.push_source(shutdown, mk(1001, 220));
        for src in [install, shutdown] {
            plan.dataflow
                .push_source(src, Message::Cti(TimePoint::INFINITY));
        }
        let net = plan.dataflow.collector(plan.sink).net_table();
        assert_eq!(net.len(), 1, "only the match occurring before 150 passes");
    }
}
