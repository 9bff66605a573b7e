//! Events and their headers.
//!
//! Section 3.3.1 of the paper fixes the conceptual event representation
//! `(ID, Vs, Ve, Os, Oe, Rt, cbt[]; p)`: six header attributes (ID, the
//! valid and occurrence intervals, the root time `Rt` and the contributor
//! lineage `cbt[]`) followed by an opaque payload `p`.
//!
//! This module defines the shared pieces — identities, payloads, lineage —
//! and the *unitemporal runtime event* of Section 6, where occurrence and
//! valid time are merged into a single valid-time axis whose lifetime can
//! only be shortened by retractions.

use crate::interval::Interval;
use crate::time::TimePoint;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

/// An event identity.
///
/// Primitive events receive provider-assigned IDs; composite events receive
/// IDs from the `idgen` pairing function (see `cedr-algebra::idgen`), which
/// is injective-in-practice (64-bit mix); correctness-critical code relies on
/// the exact `cbt[]` lineage instead of hash uniqueness.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId(pub u64);

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{:x}", self.0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{:x}", self.0)
    }
}

/// A hash map keyed by [`EventId`], over [`IdHashBuilder`]. Iteration
/// order is arbitrary and differs from process to process: sort before
/// anything reaches an output or a checkpoint image.
pub type IdMap<V> = HashMap<EventId, V, IdHashBuilder>;

/// A hash set of [`EventId`]s; see [`IdMap`].
pub type IdSet = HashSet<EventId, IdHashBuilder>;

/// Builds [`IdHasher`]s, all keyed with the one secret drawn per process
/// from `std`'s `RandomState` — so a provider that chooses its own event
/// ids still cannot aim them at one bucket.
#[derive(Clone, Copy, Debug)]
pub struct IdHashBuilder {
    key: u64,
    mul: u64,
}

impl Default for IdHashBuilder {
    fn default() -> Self {
        static SECRET: OnceLock<(u64, u64)> = OnceLock::new();
        let (key, mul) = *SECRET.get_or_init(|| {
            let random = RandomState::new();
            (random.hash_one(0u64), random.hash_one(1u64) | 1)
        });
        IdHashBuilder { key, mul }
    }
}

impl BuildHasher for IdHashBuilder {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            key: self.key,
            mul: self.mul,
            hash: 0,
        }
    }
}

/// One folded 64×64→128 multiply per `u64` written — an [`EventId`] is
/// already a mixed 64-bit word, so SipHash's thirteen rounds buy nothing.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    key: u64,
    mul: u64,
    hash: u64,
}

impl Hasher for IdHasher {
    fn write_u64(&mut self, x: u64) {
        let wide = u128::from(x ^ self.hash ^ self.key) * u128::from(self.mul);
        self.hash = (wide as u64) ^ ((wide >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The `K` column of the tritemporal history table (Figure 2): one unique
/// value per initial insert *and all its associated retractions*.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChainKey(pub u64);

impl fmt::Debug for ChainKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

impl fmt::Display for ChainKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// An immutable, cheaply clonable payload: the event body `p`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Payload(pub Arc<[Value]>);

impl Payload {
    /// The empty payload (the paper's examples "ignore the content payload").
    pub fn empty() -> Payload {
        Payload(Arc::from(Vec::new()))
    }

    /// Build a payload from values.
    pub fn from_values(vals: Vec<Value>) -> Payload {
        Payload(Arc::from(vals))
    }

    /// Field access by position.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload has no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Concatenation, as used by join and the sequencing operators
    /// (`e1.p, e2.p, …, ek.p`). One allocation.
    pub fn concat(&self, other: &Payload) -> Payload {
        self.iter().chain(other.iter()).cloned().collect()
    }

    /// Concatenate many payloads in contributor order. One allocation: the
    /// parts are walked twice, once to size the result.
    pub fn concat_all<'a, I>(parts: I) -> Payload
    where
        I: IntoIterator<Item = &'a Payload>,
        I::IntoIter: Clone,
    {
        let parts = parts.into_iter();
        let len = parts.clone().map(Payload::len).sum();
        let mut values = parts.flat_map(Payload::iter);
        // A counted range keeps the exact length visible to `collect`.
        (0..len)
            .map(|_| values.next().expect("counted").clone())
            .collect()
    }

    /// Iterate over the attribute values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Payload {
    fn from(v: Vec<Value>) -> Self {
        Payload::from_values(v)
    }
}

/// Collects straight into the shared slice: one allocation when the
/// iterator's length is exact (a slice, a chain of slices, an array, a
/// counted range), instead of a `Vec` copied into an `Arc`.
impl FromIterator<Value> for Payload {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Payload(values.into_iter().collect())
    }
}

/// The contributor lineage `cbt[]`: an ordered sequence of references to the
/// events that formed a composite event. Empty (`NULL` in the paper) for
/// primitive events.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Lineage(pub Arc<[EventId]>);

impl Lineage {
    /// Lineage of a primitive event: one empty lineage shared by all.
    pub fn primitive() -> Lineage {
        static EMPTY: OnceLock<Lineage> = OnceLock::new();
        EMPTY.get_or_init(|| Lineage(Arc::from(Vec::new()))).clone()
    }

    /// Lineage `[e1, e2, …, ek]` of a composite event.
    pub fn of(ids: Vec<EventId>) -> Lineage {
        Lineage(Arc::from(ids))
    }

    /// `cbt[n]` with the paper's 1-based indexing (as in `e1.cbt[n].Vs`).
    pub fn nth(&self, n: usize) -> Option<EventId> {
        if n == 0 {
            return None;
        }
        self.0.get(n - 1).copied()
    }

    /// Number of contributors.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether this is a primitive event's (empty) lineage.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `id` contributed (directly) to this event.
    pub fn contains(&self, id: EventId) -> bool {
        self.0.contains(&id)
    }
}

/// Collects straight into the shared slice; see `Payload`'s `FromIterator`.
impl FromIterator<EventId> for Lineage {
    fn from_iter<I: IntoIterator<Item = EventId>>(ids: I) -> Self {
        Lineage(ids.into_iter().collect())
    }
}

impl fmt::Debug for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

/// A unitemporal runtime event (Section 6 regime): `(ID, Vs, Ve, Rt, cbt[]; p)`.
///
/// `interval` is the valid-time lifetime `[Vs, Ve)`; retractions may only
/// shorten it. `root_time` (`Rt`) is the minimum root time among
/// contributors (equal to `Vs` for primitive events) and drives
/// CANCEL-WHEN's scope.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    pub id: EventId,
    pub interval: Interval,
    pub root_time: TimePoint,
    pub lineage: Lineage,
    pub payload: Payload,
}

impl Event {
    /// A primitive event: `Rt = Vs`, empty lineage.
    pub fn primitive(id: EventId, interval: Interval, payload: Payload) -> Event {
        Event {
            id,
            interval,
            root_time: interval.start,
            lineage: Lineage::primitive(),
            payload,
        }
    }

    /// A composite event with explicit root time and lineage.
    pub fn composite(
        id: EventId,
        interval: Interval,
        root_time: TimePoint,
        lineage: Lineage,
        payload: Payload,
    ) -> Event {
        Event {
            id,
            interval,
            root_time,
            lineage,
            payload,
        }
    }

    /// Valid start time `Vs`.
    #[inline]
    pub fn vs(&self) -> TimePoint {
        self.interval.start
    }

    /// Valid end time `Ve`.
    #[inline]
    pub fn ve(&self) -> TimePoint {
        self.interval.end
    }

    /// A copy with the lifetime shortened to `[Vs, new_end)` — the effect of
    /// applying a retraction. `new_end == Vs` removes the event entirely.
    pub fn shortened(&self, new_end: TimePoint) -> Event {
        let mut e = self.clone();
        e.interval = Interval::new(self.interval.start, new_end);
        e
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} rt={} cbt={:?} p={}",
            self.id, self.interval, self.root_time, self.lineage, self.payload
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::iv;
    use crate::time::t;

    fn payload(vals: &[i64]) -> Payload {
        Payload::from_values(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn payload_concat_preserves_order() {
        let p = payload(&[1, 2]).concat(&payload(&[3]));
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(2), Some(&Value::Int(3)));
        let q = Payload::concat_all([&payload(&[1]), &payload(&[2]), &payload(&[3])]);
        assert_eq!(q, payload(&[1, 2, 3]));
    }

    #[test]
    fn lineage_is_one_indexed_like_the_paper() {
        let l = Lineage::of(vec![EventId(10), EventId(20)]);
        assert_eq!(l.nth(1), Some(EventId(10)));
        assert_eq!(l.nth(2), Some(EventId(20)));
        assert_eq!(l.nth(0), None);
        assert_eq!(l.nth(3), None);
        assert!(l.contains(EventId(20)));
        assert!(!l.contains(EventId(30)));
    }

    #[test]
    fn primitive_event_roots_at_vs() {
        let e = Event::primitive(EventId(1), iv(4, 9), Payload::empty());
        assert_eq!(e.root_time, t(4));
        assert!(e.lineage.is_empty());
        assert_eq!(e.vs(), t(4));
        assert_eq!(e.ve(), t(9));
    }

    #[test]
    fn shortening_models_retraction() {
        let e = Event::primitive(EventId(1), iv(4, 9), Payload::empty());
        let s = e.shortened(t(6));
        assert_eq!(s.interval, iv(4, 6));
        let gone = e.shortened(t(4));
        assert!(gone.interval.is_empty());
        assert_eq!(gone.id, e.id);
    }

    #[test]
    fn payload_equality_and_hash_are_structural() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(payload(&[1, 2]));
        assert!(s.contains(&payload(&[1, 2])));
        assert!(!s.contains(&payload(&[2, 1])));
    }

    #[test]
    fn display_formats() {
        assert_eq!(EventId(0xab).to_string(), "eab");
        assert_eq!(ChainKey(2).to_string(), "E2");
        assert_eq!(payload(&[7]).to_string(), "(7)");
    }
}
