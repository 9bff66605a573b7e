//! # cedr-runtime
//!
//! The physical CEDR runtime: incremental streaming operators structured
//! exactly as Figure 7 of the paper prescribes —
//!
//! ```text
//!   guarantees on input time ─▶ ┌─────────────────────────────┐
//!   stream of input state       │  Consistency   Alignment    │
//!   updates ──────────────────▶ │  Monitor   ◀─▶ Buffer       │
//!                               │        │                    │
//!                               │        ▼                    │
//!                               │  Operational Module ── state│
//!                               └─────────────────────────────┘
//!                  stream of output state updates + consistency guarantees
//! ```
//!
//! Every operator is an [`operator::OperatorShell`] wrapping an
//! [`operator::OperatorModule`]. The shell implements the consistency
//! monitor and alignment buffer for any point of the ⟨max-memory M,
//! max-blocking B⟩ spectrum of Section 5 (Figure 9); the module implements
//! the operator's view-update/pattern semantics incrementally, emitting
//! optimistic output and compensating **retractions**.
//!
//! Correctness contract (checked by property tests against
//! `cedr-algebra`): for logically equivalent inputs, outputs at common sync
//! points are logically equivalent — well-behavedness, Definition 6 — and
//! Strong/Middle runs produce identical canonical output state at shared
//! sync points (the Section 5 switching claim).
//!
//! # Threading model
//!
//! The consistency spectrum is defined **per operator**, never per thread,
//! so execution may be parallelised freely as long as each operator shell
//! sees its input in the same order. A [`executor::Dataflow`] itself is
//! single-threaded — one quiescence pass is one serial ready-queue sweep —
//! and owns all of its state, so whole dataflows are the unit of
//! parallelism: `cedr-core` assigns each standing query to a drain worker
//! and runs the workers on scoped threads. Every dataflow still
//! sees its rounds in enqueue order, so threaded and serial engine drains
//! are indistinguishable at Strong, Middle *and* Weak consistency (only
//! caller-side batch splitting can move Weak's forgetting horizon — see
//! `executor`'s module docs).

pub mod aggregate;
pub mod consistency;
pub mod executor;
pub mod join;
pub mod negation;
pub mod operator;
pub mod sequence;
pub mod stateless;

/// Per-operator counters, defined once in `cedr-obs` (the bottom of the
/// crate graph) and filled by [`OperatorShell`].
pub use cedr_obs::OpStats;
pub use consistency::{ConsistencyLevel, ConsistencySpec};
pub use executor::{Dataflow, DataflowBuilder, NodeId, Port};
pub use operator::{OpContext, OperatorModule, OperatorShell, OutputBuffer};

/// Convenience prelude.
pub mod prelude {
    pub use crate::aggregate::GroupAggregateOp;
    pub use crate::consistency::{ConsistencyLevel, ConsistencySpec};
    pub use crate::executor::{Dataflow, DataflowBuilder, NodeId, Port};
    pub use crate::join::JoinOp;
    pub use crate::negation::{NegationOp, NegationScope};
    pub use crate::operator::{OpContext, OperatorModule, OperatorShell, OutputBuffer};
    pub use crate::sequence::{AtLeastOp, SequenceOp};
    pub use crate::stateless::{AlterLifetimeOp, ProjectOp, SelectOp, SliceOp, UnionOp};
    pub use crate::OpStats;
}
