//! Programmatic plan construction.
//!
//! The CEDR query language (Section 3) is pattern-centric; the relational
//! view-update operators of Section 6 (windows, aggregates, joins — the
//! machinery behind the paper's portfolio-monitoring scenario) are reached
//! through this fluent builder instead. Register the built plan with
//! [`Engine::register_plan`](crate::Engine::register_plan) **before**
//! opening ingestion sessions on its source streams
//! ([`Engine::source`](crate::Engine::source) /
//! [`Engine::channel_source`](crate::Engine::channel_source)): handles
//! snapshot the `(query, port)` routing at open time.
//!
//! ```
//! use cedr_core::prelude::*;
//!
//! // A 1-hour moving average of tick prices per symbol.
//! let plan = PlanBuilder::source("TICK")
//!     .window(Duration::hours(1))
//!     .group_aggregate(vec![Scalar::Field(0)], AggFunc::Avg(Scalar::Field(1)))
//!     .into_plan();
//! # let _ = plan;
//! ```

use cedr_algebra::alter_lifetime::{DeltaFn, VsFn};
use cedr_algebra::expr::{Pred, Scalar};
use cedr_algebra::pattern::ScMode;
use cedr_algebra::relational::AggFunc;
use cedr_lang::LogicalOp;
use cedr_temporal::{Duration, TimePoint};

/// Fluent builder over [`LogicalOp`].
#[derive(Clone, Debug)]
pub struct PlanBuilder {
    op: LogicalOp,
}

impl PlanBuilder {
    /// A primitive event stream.
    pub fn source(event_type: &str) -> Self {
        PlanBuilder {
            op: LogicalOp::Source {
                event_type: event_type.to_string(),
            },
        }
    }

    /// σ — filter on a payload predicate.
    pub fn select(self, pred: Pred) -> Self {
        PlanBuilder {
            op: LogicalOp::Select {
                input: Box::new(self.op),
                pred,
            },
        }
    }

    /// π — project the payload.
    pub fn project(self, exprs: Vec<Scalar>, names: Vec<String>) -> Self {
        PlanBuilder {
            op: LogicalOp::Project {
                input: Box::new(self.op),
                exprs,
                names,
            },
        }
    }

    /// `W_wl` — the moving window (Definition 12 instance).
    pub fn window(self, wl: Duration) -> Self {
        PlanBuilder {
            op: LogicalOp::AlterLifetime {
                input: Box::new(self.op),
                fvs: VsFn::Vs,
                fdelta: DeltaFn::WindowClip { wl },
            },
        }
    }

    /// A hopping window.
    pub fn hopping_window(self, period: u64, size: Duration) -> Self {
        PlanBuilder {
            op: LogicalOp::AlterLifetime {
                input: Box::new(self.op),
                fvs: VsFn::HopVs { period },
                fdelta: DeltaFn::Const(size),
            },
        }
    }

    /// Π — AlterLifetime in full generality.
    pub fn alter_lifetime(self, fvs: VsFn, fdelta: DeltaFn) -> Self {
        PlanBuilder {
            op: LogicalOp::AlterLifetime {
                input: Box::new(self.op),
                fvs,
                fdelta,
            },
        }
    }

    /// `Inserts(S) = Π_{Vs, ∞}(S)`.
    pub fn inserts(self) -> Self {
        self.alter_lifetime(VsFn::Vs, DeltaFn::Infinite)
    }

    /// `Deletes(S) = Π_{Ve, ∞}(S)`.
    pub fn deletes(self) -> Self {
        self.alter_lifetime(VsFn::Ve, DeltaFn::Infinite)
    }

    /// Group-by + aggregate with view update semantics.
    pub fn group_aggregate(self, key: Vec<Scalar>, agg: AggFunc) -> Self {
        PlanBuilder {
            op: LogicalOp::GroupAggregate {
                input: Box::new(self.op),
                key,
                agg,
            },
        }
    }

    /// ⋈ — θ-join with another plan.
    pub fn join(self, other: PlanBuilder, theta: Pred) -> Self {
        PlanBuilder {
            op: LogicalOp::Join {
                left: Box::new(self.op),
                right: Box::new(other.op),
                theta,
                equi_keys: None,
            },
        }
    }

    /// ∪ — union with another plan.
    pub fn union(self, other: PlanBuilder) -> Self {
        PlanBuilder {
            op: LogicalOp::Union {
                left: Box::new(self.op),
                right: Box::new(other.op),
            },
        }
    }

    /// SEQUENCE over sub-plans.
    pub fn sequence(inputs: Vec<PlanBuilder>, w: Duration, pred: Pred) -> Self {
        let k = inputs.len();
        PlanBuilder {
            op: LogicalOp::Sequence {
                inputs: inputs.into_iter().map(|b| b.op).collect(),
                w,
                pred,
                modes: vec![ScMode::EACH_REUSE; k],
            },
        }
    }

    /// ATLEAST over sub-plans.
    pub fn atleast(n: usize, inputs: Vec<PlanBuilder>, w: Duration, pred: Pred) -> Self {
        let k = inputs.len();
        PlanBuilder {
            op: LogicalOp::AtLeast {
                n,
                inputs: inputs.into_iter().map(|b| b.op).collect(),
                w,
                pred,
                modes: vec![ScMode::EACH_REUSE; k],
            },
        }
    }

    /// UNLESS(self, neg, w) with an injected `[main, neg]` predicate.
    pub fn unless(self, neg: PlanBuilder, w: Duration, pred: Pred) -> Self {
        PlanBuilder {
            op: LogicalOp::Unless {
                main: Box::new(self.op),
                neg: Box::new(neg.op),
                w,
                pred,
            },
        }
    }

    /// CANCEL-WHEN(self, neg).
    pub fn cancel_when(self, neg: PlanBuilder, pred: Pred) -> Self {
        PlanBuilder {
            op: LogicalOp::CancelWhen {
                main: Box::new(self.op),
                neg: Box::new(neg.op),
                pred,
            },
        }
    }

    /// `@[from, to)` — occurrence slice.
    pub fn slice_occurrence(self, from: TimePoint, to: TimePoint) -> Self {
        PlanBuilder {
            op: LogicalOp::SliceOcc {
                input: Box::new(self.op),
                from,
                to,
            },
        }
    }

    /// `#[from, to)` — valid-time slice.
    pub fn slice_valid(self, from: TimePoint, to: TimePoint) -> Self {
        PlanBuilder {
            op: LogicalOp::SliceValid {
                input: Box::new(self.op),
                from,
                to,
            },
        }
    }

    /// Finish: the logical plan.
    pub fn into_plan(self) -> LogicalOp {
        self.op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use cedr_algebra::expr::CmpOp;
    use cedr_lang::catalog::FieldType;
    use cedr_runtime::ConsistencySpec;
    use cedr_temporal::time::{dur, t};
    use cedr_temporal::Value;

    fn tick_engine() -> Engine {
        let mut e = Engine::new();
        e.register_event_type(
            "TICK",
            vec![("sym", FieldType::Str), ("px", FieldType::Float)],
        );
        e
    }

    #[test]
    fn windowed_average_via_builder() {
        let mut e = tick_engine();
        // Point events are first extended to open lifetimes (`Inserts`),
        // then clipped by the window — the AlterLifetime idiom of §6.
        let plan = PlanBuilder::source("TICK")
            .inserts()
            .window(dur(10))
            .group_aggregate(vec![Scalar::Field(0)], AggFunc::Avg(Scalar::Field(1)))
            .into_plan();
        let q = e
            .register_plan("moving_avg", plan, ConsistencySpec::middle())
            .unwrap();
        let mut ticks = e.source("TICK").unwrap();
        for (i, px) in [10.0, 20.0, 30.0].iter().enumerate() {
            ticks
                .insert(i as u64, vec![Value::str("MSFT"), Value::Float(*px)])
                .unwrap();
        }
        drop(ticks);
        e.seal();
        let net = e.collector(q).net_table();
        // At time 2 all three ticks are in the 10-tick window: avg = 20.
        let snap = net.snapshot_at(t(2));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].payload.get(1), Some(&Value::Float(20.0)));
    }

    #[test]
    fn select_join_via_builder() {
        let mut e = tick_engine();
        e.register_event_type(
            "NEWS",
            vec![("sym", FieldType::Str), ("sentiment", FieldType::Int)],
        );
        let ticks = PlanBuilder::source("TICK").select(Pred::cmp(
            Scalar::Field(1),
            CmpOp::Gt,
            Scalar::lit(100.0),
        ));
        let news = PlanBuilder::source("NEWS");
        let plan = ticks
            .join(
                news,
                Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0)),
            )
            .into_plan();
        let q = e
            .register_plan("hot_news", plan, ConsistencySpec::middle())
            .unwrap();
        e.source("TICK")
            .unwrap()
            .insert_for(
                cedr_temporal::Interval::new(t(0), t(10)),
                vec![Value::str("MSFT"), Value::Float(150.0)],
            )
            .unwrap();
        e.source("NEWS")
            .unwrap()
            .insert_for(
                cedr_temporal::Interval::new(t(5), t(8)),
                vec![Value::str("MSFT"), Value::Int(1)],
            )
            .unwrap();
        e.seal();
        let net = e.collector(q).net_table();
        assert_eq!(net.len(), 1);
        assert_eq!(net.rows[0].interval, cedr_temporal::interval::iv(5, 8));
        // Equi-keys extracted by the optimizer.
        assert!(e.explain(q).contains("Join"));
    }

    #[test]
    fn pattern_via_builder_matches_language() {
        let mut e = tick_engine();
        let seq = PlanBuilder::sequence(
            vec![PlanBuilder::source("TICK"), PlanBuilder::source("TICK")],
            dur(5),
            Pred::True,
        )
        .into_plan();
        let q = e
            .register_plan("pairs", seq, ConsistencySpec::middle())
            .unwrap();
        let mut ticks = e.source("TICK").unwrap();
        for i in 0..3u64 {
            ticks
                .insert(i, vec![Value::str("A"), Value::Float(1.0)])
                .unwrap();
        }
        drop(ticks);
        e.seal();
        // Pairs with strictly increasing Vs within scope 5: (0,1), (0,2), (1,2).
        assert_eq!(e.collector(q).stats().inserts, 3);
    }

    #[test]
    fn inserts_deletes_separation() {
        let mut e = tick_engine();
        let q = e
            .register_plan(
                "deletes",
                PlanBuilder::source("TICK").deletes().into_plan(),
                ConsistencySpec::middle(),
            )
            .unwrap();
        e.source("TICK")
            .unwrap()
            .insert_for(
                cedr_temporal::Interval::new(t(2), t(9)),
                vec![Value::str("A"), Value::Float(1.0)],
            )
            .unwrap();
        e.seal();
        let net = e.collector(q).net_table();
        assert_eq!(net.rows[0].interval, cedr_temporal::interval::iv_inf(9));
    }
}
