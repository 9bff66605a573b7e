//! Stream messages: the physical state updates of Section 5's "stream of
//! input state updates", in the unitemporal regime of Section 6.
//!
//! Three message kinds flow between operators:
//!
//! * `Insert(e)` — a new event with lifetime `[Vs, Ve)`;
//! * `Retract { e, new_end }` — shorten `e`'s lifetime to `[Vs, new_end)`
//!   (with `new_end == Vs` removing it entirely), the paper's retraction;
//! * `Cti(t)` — a *current time increment*: the "occurrence time guarantee
//!   on subsequent inputs" of Figure 7, promising that every future message
//!   has `Sync ≥ t`.
//!
//! The `Sync` attribute follows Figure 6: `Sync = Vs` for an insert and
//! `Sync = new_end` for a retraction (valid time playing the role of
//! occurrence time in the merged unitemporal regime).
//!
//! Events are carried behind [`Arc`] so that fanning a message out to many
//! standing queries or dataflow subscribers is a reference-count bump, not
//! a payload deep-copy. `Message::clone` is therefore O(1) and safe to use
//! on every edge of a dataflow graph.

use cedr_temporal::{Event, EventId, Interval, Payload, TimePoint};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A retraction: shorten `event`'s lifetime to `[Vs, new_end)`.
///
/// The full pre-retraction event is carried (shared) so that stateless
/// operators can transform retractions without consulting state.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Retraction {
    pub event: Arc<Event>,
    pub new_end: TimePoint,
}

impl Retraction {
    pub fn new(event: impl Into<Arc<Event>>, new_end: TimePoint) -> Self {
        let event = event.into();
        debug_assert!(
            new_end <= event.interval.end,
            "retractions may only shorten lifetimes"
        );
        debug_assert!(
            new_end >= event.interval.start,
            "retraction below Vs; use new_end == Vs for full removal"
        );
        Retraction { event, new_end }
    }

    /// Does this retraction remove the event entirely (`Oe := Os`)?
    pub fn is_full_removal(&self) -> bool {
        self.new_end <= self.event.interval.start
    }

    /// The event as it stands after this retraction is applied.
    pub fn retracted_event(&self) -> Event {
        self.event.shortened(self.new_end)
    }

    /// The Figure-6 `Sync` value of a retraction: its new `Oe`/`Ve`.
    pub fn sync(&self) -> TimePoint {
        self.new_end
    }
}

impl fmt::Debug for Retraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retract {} {} -> [{}, {})",
            self.event.id, self.event.interval, self.event.interval.start, self.new_end
        )
    }
}

/// A physical stream message. Data variants share their [`Event`] behind an
/// [`Arc`]: cloning a `Message` never copies the payload.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    Insert(Arc<Event>),
    Retract(Retraction),
    Cti(TimePoint),
}

impl Message {
    /// Build an insert message for a primitive event.
    pub fn insert(id: u64, interval: Interval, payload: Payload) -> Message {
        Message::Insert(Arc::new(Event::primitive(EventId(id), interval, payload)))
    }

    /// Wrap an event (owned or already shared) as an insert message.
    pub fn insert_event(event: impl Into<Arc<Event>>) -> Message {
        Message::Insert(event.into())
    }

    /// Build a retraction message shortening `event` to `[Vs, new_end)`.
    pub fn retract_event(event: impl Into<Arc<Event>>, new_end: TimePoint) -> Message {
        Message::Retract(Retraction::new(event, new_end))
    }

    /// The `Sync` value inducing the global out-of-order criterion
    /// (Section 4): `Vs` for inserts, new `Ve` for retractions, `t` for a
    /// CTI.
    pub fn sync(&self) -> TimePoint {
        match self {
            Message::Insert(e) => e.interval.start,
            Message::Retract(r) => r.sync(),
            Message::Cti(t) => *t,
        }
    }

    /// Is this a data message (insert or retract)?
    pub fn is_data(&self) -> bool {
        !matches!(self, Message::Cti(_))
    }

    pub fn as_insert(&self) -> Option<&Event> {
        match self {
            Message::Insert(e) => Some(e),
            _ => None,
        }
    }

    pub fn as_retract(&self) -> Option<&Retraction> {
        match self {
            Message::Retract(r) => Some(r),
            _ => None,
        }
    }

    pub fn as_cti(&self) -> Option<TimePoint> {
        match self {
            Message::Cti(t) => Some(*t),
            _ => None,
        }
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Insert(e) => write!(f, "insert {e:?}"),
            Message::Retract(r) => write!(f, "{r:?}"),
            Message::Cti(t) => write!(f, "cti {t}"),
        }
    }
}

/// A message stamped with its CEDR (arrival) time — the `Cs` column.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stamped {
    pub cedr_time: TimePoint,
    pub message: Message,
}

impl Stamped {
    pub fn new(cedr_time: TimePoint, message: Message) -> Self {
        Stamped { cedr_time, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::t;

    fn ev(id: u64, a: u64, b: u64) -> Event {
        Event::primitive(EventId(id), iv(a, b), Payload::empty())
    }

    #[test]
    fn sync_values_follow_figure6() {
        assert_eq!(Message::insert_event(ev(1, 3, 9)).sync(), t(3));
        let r = Retraction::new(ev(1, 3, 9), t(5));
        assert_eq!(Message::Retract(r).sync(), t(5));
        assert_eq!(Message::Cti(t(7)).sync(), t(7));
    }

    #[test]
    fn full_removal_detection() {
        let r = Retraction::new(ev(1, 3, 9), t(3));
        assert!(r.is_full_removal());
        assert!(r.retracted_event().interval.is_empty());
        let partial = Retraction::new(ev(1, 3, 9), t(6));
        assert!(!partial.is_full_removal());
        assert_eq!(partial.retracted_event().interval, iv(3, 6));
    }

    // The check is a `debug_assert!`: release builds compile it out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn lengthening_retractions_rejected_in_debug() {
        let _ = Retraction::new(ev(1, 3, 9), t(11));
    }

    #[test]
    fn accessors() {
        let m = Message::insert(4, iv(1, 2), Payload::empty());
        assert!(m.is_data());
        assert!(m.as_insert().is_some());
        assert!(m.as_retract().is_none());
        assert_eq!(Message::Cti(t(4)).as_cti(), Some(t(4)));
        assert!(!Message::Cti(t(4)).is_data());
    }

    #[test]
    fn cloning_a_message_shares_the_event() {
        let m = Message::insert_event(ev(1, 3, 9));
        let m2 = m.clone();
        let (Message::Insert(a), Message::Insert(b)) = (&m, &m2) else {
            panic!("inserts expected");
        };
        assert!(Arc::ptr_eq(a, b), "clone must share, not deep-copy");
    }
}
