//! # cedr-streams
//!
//! The physical stream substrate of the CEDR reproduction: the messages that
//! flow between operators (inserts, retractions, CTIs/occurrence-time
//! guarantees), the server clock, the unreliable-delivery simulator that
//! stands in for the paper's "unreliable (w.r.t. delivery order) network
//! connections", and collectors that fold a physical stream back into the
//! history tables of `cedr-temporal` so the paper's equivalence machinery
//! applies to runtime outputs.

pub mod batch;
pub mod clock;
pub mod collect;
pub mod delta;
pub mod disorder;
pub mod message;
pub mod resequence;
pub mod source;

pub use batch::{ColumnarView, MessageBatch, MessageKind};
pub use clock::CedrClock;
pub use collect::{Collector, StreamStats};
pub use delta::OutputDelta;
pub use disorder::{disorder_profile, merge_scramble, scramble, DisorderConfig};
pub use message::{Message, Retraction, Stamped};
pub use resequence::{LaneParts, Resequencer, ResequencerParts, RoundStatus};
pub use source::StreamBuilder;

/// Convenience prelude.
pub mod prelude {
    pub use crate::batch::MessageBatch;
    pub use crate::clock::CedrClock;
    pub use crate::collect::{Collector, StreamStats};
    pub use crate::delta::OutputDelta;
    pub use crate::disorder::{disorder_profile, merge_scramble, scramble, DisorderConfig};
    pub use crate::message::{Message, Retraction, Stamped};
    pub use crate::source::StreamBuilder;
}
