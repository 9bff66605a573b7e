//! The standing-query catalogs the workloads register.
//!
//! The five-family catalog is plan-for-plan the one
//! `cedr_workload::matrix::register_families` registers (a self-test pins
//! the two by their `explain` text). It is rebuilt here as plain
//! [`LogicalOp`]s because the per-layer replay needs each family's plan on
//! its own, to lower it alone and time `Dataflow::run_round` without the
//! rest of the engine.

use cedr_core::prelude::*;
use cedr_lang::LogicalOp;
use cedr_workload::scenario::SCENARIO_TYPES;

/// The operator families, in catalog order. Per-layer `runtime.<family>`
/// metrics exist for each, and are zero for a family a workload omits.
pub const FAMILIES: [&str; 5] = ["stateless", "aggregate", "join", "sequence", "negation"];

#[derive(Clone, Debug)]
pub struct QueryDef {
    pub family: &'static str,
    pub name: String,
    pub plan: LogicalOp,
}

/// Which catalog a workload registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatalogKind {
    /// All five families, one query each, windows sized from `span`.
    FiveFamilies { span: u64 },
    /// The four stateful families only.
    Stateful { span: u64 },
    /// `chains` stateless select→project chains over `SCN_A`.
    Fanout { chains: usize },
}

impl CatalogKind {
    pub fn queries(self) -> Vec<QueryDef> {
        match self {
            CatalogKind::FiveFamilies { span } => five_families(span),
            CatalogKind::Stateful { span } => five_families(span)
                .into_iter()
                .filter(|q| q.family != "stateless")
                .collect(),
            CatalogKind::Fanout { chains } => fanout(chains),
        }
    }

    pub fn describe(self) -> String {
        match self {
            CatalogKind::FiveFamilies { span } => format!("five_families(span={span})"),
            CatalogKind::Stateful { span } => format!("stateful_families(span={span})"),
            CatalogKind::Fanout { chains } => format!("stateless_fanout(chains={chains})"),
        }
    }
}

pub fn event_fields() -> Vec<(&'static str, FieldType)> {
    vec![("key", FieldType::Int), ("seq", FieldType::Int)]
}

pub fn register_types(engine: &mut Engine) {
    for ty in SCENARIO_TYPES {
        engine.register_event_type(ty, event_fields());
    }
}

/// The same types in a bare language catalog, for lowering plans without
/// an engine.
pub fn lang_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for ty in SCENARIO_TYPES {
        catalog.register_type(ty, event_fields());
    }
    catalog
}

/// Windows are `span / 4` (aggregate, sequence) and `span / 8` (negation).
/// Callers pass a **fixed** span: sizing windows from a trace span that
/// grows with the event count makes the sequence family quadratic.
pub fn five_families(span: u64) -> Vec<QueryDef> {
    let w = dur((span / 4).max(1));
    let key_eq = || Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
    let stateless = PlanBuilder::source("SCN_A")
        .select(Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(0i64)))
        .project(
            vec![Scalar::Field(0), Scalar::Field(1)],
            vec!["key".into(), "seq".into()],
        );
    let aggregate = PlanBuilder::source("SCN_A")
        .window(w)
        .group_aggregate(vec![Scalar::Field(0)], AggFunc::Count);
    let join = PlanBuilder::source("SCN_A").join(PlanBuilder::source("SCN_B"), key_eq());
    let sequence = PlanBuilder::sequence(
        vec![PlanBuilder::source("SCN_A"), PlanBuilder::source("SCN_B")],
        w,
        key_eq(),
    );
    let negation = PlanBuilder::source("SCN_A").unless(
        PlanBuilder::source("SCN_C"),
        dur((span / 8).max(1)),
        Pred::True,
    );
    FAMILIES
        .into_iter()
        .zip([stateless, aggregate, join, sequence, negation])
        .map(|(family, plan)| QueryDef {
            family,
            name: family.to_string(),
            plan: plan.into_plan(),
        })
        .collect()
}

/// Key domain the fan-out predicates grade their selectivity over: chain
/// `k` keeps `key <= k`, so with uniform keys it passes `(k + 1) / chains`
/// of the stream.
pub fn fanout(chains: usize) -> Vec<QueryDef> {
    (0..chains)
        .map(|k| QueryDef {
            family: "stateless",
            name: format!("fan{k:02}"),
            plan: PlanBuilder::source("SCN_A")
                .select(Pred::cmp(
                    Scalar::Field(0),
                    CmpOp::Le,
                    Scalar::lit(k as i64),
                ))
                .project(
                    vec![
                        Scalar::Field(0),
                        Scalar::Add(Box::new(Scalar::Field(1)), Box::new(Scalar::lit(k as i64))),
                    ],
                    vec!["key".into(), "seq".into()],
                )
                .into_plan(),
        })
        .collect()
}

/// Register `defs` in order; panics on a plan the engine rejects, which
/// would be a bug in this file.
pub fn register(engine: &mut Engine, defs: &[QueryDef], spec: ConsistencySpec) -> Vec<QueryId> {
    defs.iter()
        .map(|d| {
            engine
                .register_plan(&d.name, d.plan.clone(), spec)
                .unwrap_or_else(|e| panic!("register {}: {e}", d.name))
        })
        .collect()
}
