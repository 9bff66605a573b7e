//! Output deltas: the consumable changelog of a query's output stream.
//!
//! The paper's output model is not a table to poll but a *stream of state
//! updates*: inserts, retractions and CTIs, in CEDR-time order (Section 5).
//! [`OutputDelta`] is that model made consumable — each delta is one entry
//! of a [`Collector`](crate::Collector)'s append-only **delta log**, stamped
//! with the CEDR (arrival) time the sink observed it. The log is the
//! collector's only per-message store: history tables, the stamped tape
//! and the net table are folds over it. Subscriptions (see `cedr-core`)
//! hold cursors into the log and drain it incrementally, so a consumer
//! observes exactly the insert/retract/CTI change stream the query
//! emitted instead of re-reading whole output tables.
//!
//! Events are carried behind [`Arc`], so a delta is a refcount bump to
//! clone and logging one costs no payload copy.

use cedr_temporal::{Event, TimePoint};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One entry of a query's output changelog, stamped with the CEDR time at
/// which the sink observed it.
///
/// The variants mirror the three physical message kinds of
/// [`Message`](crate::Message): a delta is the message the sink received
/// plus its arrival stamp, so a drained delta stream carries exactly what
/// the query emitted, in order.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputDelta {
    /// A new output event with lifetime `[Vs, Ve)`.
    Insert {
        cedr_time: TimePoint,
        event: Arc<Event>,
    },
    /// A repair: `event`'s lifetime shrinks to `[Vs, new_end)`
    /// (`new_end == Vs` removes it entirely).
    Retract {
        cedr_time: TimePoint,
        event: Arc<Event>,
        new_end: TimePoint,
    },
    /// An output progress guarantee: every later delta has `Sync ≥ t`.
    Cti {
        cedr_time: TimePoint,
        guarantee: TimePoint,
    },
}

impl OutputDelta {
    /// The CEDR (arrival) time stamped on this delta.
    pub fn cedr_time(&self) -> TimePoint {
        match self {
            OutputDelta::Insert { cedr_time, .. }
            | OutputDelta::Retract { cedr_time, .. }
            | OutputDelta::Cti { cedr_time, .. } => *cedr_time,
        }
    }

    /// The Figure-6 `Sync` value: `Vs` for inserts, the new `Ve` for
    /// retractions, `t` for a CTI.
    pub fn sync(&self) -> TimePoint {
        match self {
            OutputDelta::Insert { event, .. } => event.interval.start,
            OutputDelta::Retract { new_end, .. } => *new_end,
            OutputDelta::Cti { guarantee, .. } => *guarantee,
        }
    }

    /// Is this a data delta (insert or retract)?
    pub fn is_data(&self) -> bool {
        !matches!(self, OutputDelta::Cti { .. })
    }

    /// The event this delta concerns, if it is a data delta.
    pub fn event(&self) -> Option<&Arc<Event>> {
        match self {
            OutputDelta::Insert { event, .. } | OutputDelta::Retract { event, .. } => Some(event),
            OutputDelta::Cti { .. } => None,
        }
    }
}

impl fmt::Debug for OutputDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputDelta::Insert { cedr_time, event } => {
                write!(f, "@{cedr_time} +insert {event:?}")
            }
            OutputDelta::Retract {
                cedr_time,
                event,
                new_end,
            } => write!(
                f,
                "@{cedr_time} -retract {} {} -> [{}, {})",
                event.id, event.interval, event.interval.start, new_end
            ),
            OutputDelta::Cti {
                cedr_time,
                guarantee,
            } => write!(f, "@{cedr_time} cti {guarantee}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::t;
    use cedr_temporal::{EventId, Payload};

    fn ev(id: u64, a: u64, b: u64) -> Arc<Event> {
        Arc::new(Event::primitive(EventId(id), iv(a, b), Payload::empty()))
    }

    #[test]
    fn sync_and_kind_accessors() {
        let i = OutputDelta::Insert {
            cedr_time: t(0),
            event: ev(1, 3, 9),
        };
        assert_eq!(i.sync(), t(3));
        assert!(i.is_data());
        assert!(i.event().is_some());

        let r = OutputDelta::Retract {
            cedr_time: t(1),
            event: ev(1, 3, 9),
            new_end: t(5),
        };
        assert_eq!(r.sync(), t(5));
        assert_eq!(r.cedr_time(), t(1));

        let c = OutputDelta::Cti {
            cedr_time: t(2),
            guarantee: t(7),
        };
        assert_eq!(c.sync(), t(7));
        assert!(!c.is_data());
        assert!(c.event().is_none());
    }

    #[test]
    fn deltas_share_events_on_clone() {
        let d = OutputDelta::Insert {
            cedr_time: t(0),
            event: ev(4, 1, 2),
        };
        let d2 = d.clone();
        let (Some(a), Some(b)) = (d.event(), d2.event()) else {
            panic!("data deltas expected");
        };
        assert!(Arc::ptr_eq(a, b), "clone must share, not deep-copy");
    }
}
