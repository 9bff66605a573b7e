//! # cedr-lang
//!
//! The CEDR declarative query language (Section 3): a lexer and recursive-
//! descent parser for the `EVENT … WHEN … WHERE … OUTPUT …` syntax, an
//! event-type catalog, a binder that resolves aliases and performs
//! **predicate injection** (placing WHERE-clause predicates into the
//! denotation of the WHEN-clause operators, Section 3.2), a logical plan
//! with rewrite rules, and a physical planner that lowers plans onto
//! `cedr-runtime` dataflows.
//!
//! The full language pipeline is exercised end-to-end on the paper's own
//! CIDR07_Example query (machine monitoring with UNLESS/SEQUENCE and a
//! Machine_Id correlation key).

pub mod ast;
pub mod binder;
pub mod catalog;
pub mod error;
pub mod lexer;
pub mod logical;
pub mod optimizer;
pub mod parser;
pub mod physical;
pub mod token;

pub use ast::Query;
pub use binder::{bind, BoundQuery};
pub use catalog::{Catalog, EventTypeDef, FieldType};
pub use error::LangError;
pub use logical::{Layout, LogicalOp};
pub use optimizer::optimize;
pub use parser::parse_query;
pub use physical::{lower, lower_with, LoweredPlan};

/// A fully compiled query: the declared name, the optimized logical plan
/// rendered for `EXPLAIN`, and the lowered physical dataflow.
pub struct CompiledQuery {
    pub name: String,
    pub explain: String,
    pub plan: LoweredPlan,
}

/// Parse, bind, optimise and lower a query in one call.
pub fn compile(
    text: &str,
    catalog: &Catalog,
    spec: cedr_runtime::ConsistencySpec,
) -> Result<CompiledQuery, LangError> {
    let query = parse_query(text)?;
    let bound = bind(&query, catalog)?;
    let optimized = optimize(bound.root);
    let plan = lower(&optimized, catalog, spec)?;
    Ok(CompiledQuery {
        name: bound.name,
        explain: optimized.to_string(),
        plan,
    })
}
