//! # cedr-temporal
//!
//! The temporal foundation of CEDR ("Consistent Streaming Through Time",
//! Barga et al., CIDR 2007): the tritemporal stream model of Section 2, the
//! history-table machinery of Section 4 (reduction, truncation, canonical
//! forms, annotated tables, sync points, logical equivalence) and the
//! unitemporal regime of Section 6 (coalescing, the `*` operator, shredded
//! canonical form).
//!
//! CEDR separates three notions of time:
//!
//! * **valid time** (`Vs`, `Ve`) — when a fact holds, from the event
//!   provider's perspective;
//! * **occurrence time** (`Os`, `Oe`) — when the provider asserted or
//!   revised that fact (insertions and modifications);
//! * **CEDR time** (`Cs`, `Ce`) — when the CEDR server learned about it;
//!   this is the axis on which out-of-order delivery and retractions live.
//!
//! All intervals in this crate are half-open `[start, end)`, exactly as in
//! the paper.

pub mod bitemporal;
pub mod columns;
pub mod equivalence;
pub mod event;
pub mod history;
pub mod interval;
pub mod sync;
pub mod time;
pub mod unitemporal;
pub mod value;

pub use bitemporal::{BiTemporalRow, BiTemporalTable};
pub use columns::{Column, PayloadColumns};
pub use equivalence::{
    logically_equivalent, logically_equivalent_at, logically_equivalent_to, EquivalenceOptions,
};
pub use event::{ChainKey, Event, EventId, IdMap, IdSet, Lineage, Payload};
pub use history::{AnnotatedRow, HistoryRow, HistoryTable};
pub use interval::Interval;
pub use sync::{is_sync_point, sync_points, SyncPoint};
pub use time::{Duration, TimePoint};
pub use unitemporal::{UniTemporalRow, UniTemporalTable};
pub use value::Value;

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::bitemporal::{BiTemporalRow, BiTemporalTable};
    pub use crate::columns::{Column, PayloadColumns};
    pub use crate::equivalence::{
        logically_equivalent, logically_equivalent_at, logically_equivalent_to, EquivalenceOptions,
    };
    pub use crate::event::{ChainKey, Event, EventId, IdMap, IdSet, Lineage, Payload};
    pub use crate::history::{AnnotatedRow, HistoryRow, HistoryTable};
    pub use crate::interval::Interval;
    pub use crate::sync::{is_sync_point, sync_points, SyncPoint};
    pub use crate::time::{Duration, TimePoint};
    pub use crate::unitemporal::{UniTemporalRow, UniTemporalTable};
    pub use crate::value::Value;
}
