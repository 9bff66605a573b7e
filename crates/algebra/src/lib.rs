//! # cedr-algebra
//!
//! The *denotational* operator semantics of CEDR, transcribed from the paper:
//!
//! * Definitions 7–12 (Section 6): SQL projection, selection, join, the
//!   relational view-update family (union, difference, group-by and
//!   aggregates), and the novel **AlterLifetime** operator from which
//!   windows and insert/delete separation are derived;
//! * the Section 3.3.2 tables: the sequencing operators (ATLEAST, ATMOST,
//!   ALL, ANY, SEQUENCE) and the negation operators (UNLESS, UNLESS′,
//!   NOT(·, SEQUENCE), CANCEL-WHEN), including contributor lineage `cbt[]`,
//!   root times and the `idgen` pairing function;
//! * predicate injection (Section 3.2): WHERE-clause predicates placed into
//!   the denotation of the WHEN-clause operators.
//!
//! Everything here computes on *complete* unitemporal ideal history tables
//! (Section 6): no arrival order, no retractions. These functions are the
//! ground truth that the incremental physical operators of `cedr-runtime`
//! are property-tested against (well-behavedness, Definition 6).

pub mod alter_lifetime;
pub mod compliance;
pub mod expr;
pub mod idgen;
pub mod pattern;
pub mod relational;

pub use alter_lifetime::{
    alter_lifetime, deletes, hopping_window, inserts, moving_window, DeltaFn, VsFn,
};
pub use expr::{CmpOp, Pred, Scalar, TuplePred};
pub use idgen::{idgen, idgen2};
pub use pattern::{
    all, any, atleast, atmost, cancel_when, not_sequence, sequence, unless, unless_prime,
};
pub use relational::{difference, group_aggregate, join, project, select, union, AggFunc};

use cedr_temporal::{Event, UniTemporalRow, UniTemporalTable};

/// A denotational stream value: the set of events in the unitemporal ideal
/// history table (Section 6, `E(S)`).
pub type EventSet = Vec<Event>;

/// View an event set as a unitemporal table (drops header fields the table
/// does not carry).
pub fn to_table(events: &[Event]) -> UniTemporalTable {
    events
        .iter()
        .map(|e| UniTemporalRow::new(e.id, e.interval, e.payload.clone()))
        .collect()
}

/// Lift unitemporal rows into (primitive) events.
pub fn from_table(table: &UniTemporalTable) -> EventSet {
    table
        .rows
        .iter()
        .map(|r| Event::primitive(r.id, r.interval, r.payload.clone()))
        .collect()
}
