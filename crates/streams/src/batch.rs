//! Message batches: the unit of work of the batch-at-a-time runtime.
//!
//! A [`MessageBatch`] is an ordered run of [`Message`]s from one logical
//! stream. Because messages carry their events behind `Arc`, a batch can be
//! handed to any number of consumers by cloning it — the events are shared,
//! never deep-copied. Batching exists purely at the physical layer: a batch
//! has no temporal meaning beyond the concatenation of its messages, so any
//! stream may be cut into batches at arbitrary points without changing the
//! logical (net) content of what flows through an operator graph.

use crate::message::Message;
use cedr_temporal::{PayloadColumns, TimePoint};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Discriminant of a message in a [`ColumnarView`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageKind {
    Insert,
    Retract,
    Cti,
}

/// A struct-of-arrays projection of a run of messages: the hot per-message
/// fields laid out as contiguous columns, so a tight loop (the fused
/// stateless pipeline, a merge, a stamp pass) can scan kinds and time
/// points without chasing one `Arc<Event>` per message. Column `i`
/// describes message `i` of the run it was built over:
///
/// * `kinds[i]` — insert / retract / CTI;
/// * `vs[i]` — the event's `Vs` (for a CTI: its `t`);
/// * `ve[i]` — the event's **original** `Ve` (for a retract this is the
///   pre-retraction end, not `new_end`; for a CTI: its `t`);
/// * `sync[i]` — the Figure-6 `Sync` value (`Vs` / `new_end` / `t`);
/// * `ids[i]` — the raw event id (0 for a CTI).
///
/// The view is a *projection*: payloads and lineage stay behind the
/// original `Arc`s, reachable through the message slice the view was
/// built from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColumnarView {
    pub kinds: Vec<MessageKind>,
    pub vs: Vec<TimePoint>,
    pub ve: Vec<TimePoint>,
    pub sync: Vec<TimePoint>,
    pub ids: Vec<u64>,
}

impl ColumnarView {
    /// Materialise the view over a run of messages (one linear pass).
    pub fn over(msgs: &[Message]) -> ColumnarView {
        let n = msgs.len();
        let mut view = ColumnarView {
            kinds: Vec::with_capacity(n),
            vs: Vec::with_capacity(n),
            ve: Vec::with_capacity(n),
            sync: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
        };
        for m in msgs {
            match m {
                Message::Insert(e) => {
                    view.kinds.push(MessageKind::Insert);
                    view.vs.push(e.interval.start);
                    view.ve.push(e.interval.end);
                    view.sync.push(e.interval.start);
                    view.ids.push(e.id.0);
                }
                Message::Retract(r) => {
                    view.kinds.push(MessageKind::Retract);
                    view.vs.push(r.event.interval.start);
                    view.ve.push(r.event.interval.end);
                    view.sync.push(r.new_end);
                    view.ids.push(r.event.id.0);
                }
                Message::Cti(t) => {
                    view.kinds.push(MessageKind::Cti);
                    view.vs.push(*t);
                    view.ve.push(*t);
                    view.sync.push(*t);
                    view.ids.push(0);
                }
            }
        }
        view
    }

    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }
}

/// Materialise typed payload value columns over a run of messages: the
/// payload-side counterpart of [`ColumnarView::over`]. Row `i` is message
/// `i`'s payload — an insert's event payload, a retraction's **pre-image**
/// payload (the payload the retracted event carried, which is what every
/// stateless stage evaluates on a retraction), and an all-null row for a
/// CTI (payload-less). Ragged and null cells follow the
/// [`PayloadColumns`] null-bitmap contract.
pub fn payload_columns_over(msgs: &[Message]) -> PayloadColumns {
    payload_columns_over_where(msgs, |_| true)
}

/// [`payload_columns_over`], materialising only the columns `j` with
/// `keep(j)` (see [`PayloadColumns::from_rows_where`]): a caller that
/// knows which attributes its kernels read skips scanning the rest.
pub fn payload_columns_over_where(
    msgs: &[Message],
    keep: impl Fn(usize) -> bool,
) -> PayloadColumns {
    PayloadColumns::from_rows_where(
        msgs.iter().map(|m| match m {
            Message::Insert(e) => Some(&e.payload),
            Message::Retract(r) => Some(&r.event.payload),
            Message::Cti(_) => None,
        }),
        keep,
    )
}

/// A lazily-built cell over a batch's messages (its [`ColumnarView`] or
/// its [`PayloadColumns`]). Cloning a batch shares the cell: the contents
/// are immutable once built, and clones hold identical message runs. Any
/// mutation of the batch resets the cell without touching a clone's view:
/// it is emptied in place when this batch holds the only reference (no
/// allocation on the staging hot path), and detached onto a fresh,
/// unbuilt cell when a clone shares it.
#[derive(Clone)]
struct Cache<T>(Arc<OnceLock<T>>);

impl<T> Default for Cache<T> {
    fn default() -> Self {
        Cache(Arc::default())
    }
}

impl<T> Cache<T> {
    fn get_or_build(&self, build: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(build)
    }

    fn reset(&mut self) {
        match Arc::get_mut(&mut self.0) {
            Some(cell) => {
                cell.take();
            }
            None => self.0 = Arc::default(),
        }
    }

    fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

impl<T> fmt::Debug for Cache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_built() {
            "Cache(built)"
        } else {
            "Cache(empty)"
        })
    }
}

/// An ordered run of messages, cheap to clone (events are `Arc`-shared).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MessageBatch {
    msgs: Vec<Message>,
    columnar: Cache<ColumnarView>,
    payloads: Cache<PayloadColumns>,
}

/// Equality is over the message run only; the columnar cache is a
/// materialisation detail.
impl PartialEq for MessageBatch {
    fn eq(&self, other: &Self) -> bool {
        self.msgs == other.msgs
    }
}

impl Eq for MessageBatch {}

impl MessageBatch {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        MessageBatch {
            msgs: Vec::with_capacity(n),
            columnar: Cache::default(),
            payloads: Cache::default(),
        }
    }

    pub fn push(&mut self, msg: Message) {
        self.columnar.reset();
        self.payloads.reset();
        self.msgs.push(msg);
    }

    pub fn extend(&mut self, msgs: impl IntoIterator<Item = Message>) {
        self.columnar.reset();
        self.payloads.reset();
        self.msgs.extend(msgs);
    }

    /// Append a sealing `CTI(t)` guarantee.
    pub fn push_cti(&mut self, t: TimePoint) {
        self.columnar.reset();
        self.payloads.reset();
        self.msgs.push(Message::Cti(t));
    }

    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Number of data (non-CTI) messages.
    pub fn data_messages(&self) -> usize {
        self.msgs.iter().filter(|m| m.is_data()).count()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Message> {
        self.msgs.iter()
    }

    pub fn as_slice(&self) -> &[Message] {
        &self.msgs
    }

    /// Highest `Sync` value in the batch, if any.
    pub fn max_sync(&self) -> Option<TimePoint> {
        self.msgs.iter().map(|m| m.sync()).max()
    }

    pub fn clear(&mut self) {
        self.columnar.reset();
        self.payloads.reset();
        self.msgs.clear();
    }

    /// The struct-of-arrays [`ColumnarView`] over this batch, built lazily
    /// on first access and cached. Clones of this batch share the cached
    /// view; any mutation (`push`, `extend`, `push_cti`, `clear`)
    /// invalidates this batch's cache without touching clones', and a
    /// batch built from another's messages starts with a fresh, unbuilt
    /// cache.
    pub fn columnar(&self) -> &ColumnarView {
        self.columnar
            .get_or_build(|| ColumnarView::over(&self.msgs))
    }

    /// Has the columnar view been materialised yet? Observability hook for
    /// tests asserting cache sharing and invalidation.
    pub fn columnar_is_materialized(&self) -> bool {
        self.columnar.is_built()
    }

    /// The typed [`PayloadColumns`] over this batch's messages, built
    /// lazily on first access and cached under the same contract as
    /// [`MessageBatch::columnar`]: clones share the built columns, any
    /// mutation invalidates this batch's cache without touching clones',
    /// and batches built from its messages start fresh and unbuilt.
    pub fn payload_columns(&self) -> &PayloadColumns {
        self.payloads
            .get_or_build(|| payload_columns_over(&self.msgs))
    }

    /// Have the payload columns been materialised yet?
    pub fn payload_columns_is_materialized(&self) -> bool {
        self.payloads.is_built()
    }

    pub fn into_messages(self) -> Vec<Message> {
        self.msgs
    }
}

impl From<Vec<Message>> for MessageBatch {
    fn from(msgs: Vec<Message>) -> Self {
        MessageBatch {
            msgs,
            columnar: Cache::default(),
            payloads: Cache::default(),
        }
    }
}

impl FromIterator<Message> for MessageBatch {
    fn from_iter<I: IntoIterator<Item = Message>>(iter: I) -> Self {
        MessageBatch::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl IntoIterator for MessageBatch {
    type Item = Message;
    type IntoIter = std::vec::IntoIter<Message>;

    fn into_iter(self) -> Self::IntoIter {
        self.msgs.into_iter()
    }
}

impl<'a> IntoIterator for &'a MessageBatch {
    type Item = &'a Message;
    type IntoIter = std::slice::Iter<'a, Message>;

    fn into_iter(self) -> Self::IntoIter {
        self.msgs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::t;
    use cedr_temporal::{Payload, Value};

    #[test]
    fn batch_accumulates_and_counts() {
        let mut b = MessageBatch::new();
        b.push(Message::insert(1, iv(0, 5), Payload::empty()));
        b.push(Message::insert(2, iv(3, 8), Payload::empty()));
        b.push_cti(t(3));
        assert_eq!(b.len(), 3);
        assert_eq!(b.data_messages(), 2);
        assert_eq!(b.max_sync(), Some(t(3)));
    }

    #[test]
    fn batch_round_trips_through_vec() {
        let msgs = vec![Message::Cti(t(1)), Message::Cti(t(2))];
        let b = MessageBatch::from(msgs.clone());
        assert_eq!(b.clone().into_messages(), msgs);
        assert_eq!(b.iter().count(), 2);
    }

    fn ten() -> MessageBatch {
        let mut b = MessageBatch::new();
        for i in 0..10u64 {
            b.push(Message::insert(i, iv(i, i + 1), Payload::empty()));
        }
        b
    }

    /// `[lo, hi)` of `b`'s messages as a new batch.
    fn slice(b: &MessageBatch, lo: usize, hi: usize) -> MessageBatch {
        MessageBatch::from(b.as_slice()[lo..hi].to_vec())
    }

    #[test]
    fn columnar_view_builds_lazily_and_mutation_invalidates() {
        let mut b = ten();
        assert!(!b.columnar_is_materialized(), "lazy until first access");
        assert_eq!(b.columnar().len(), 10);
        assert_eq!(b.columnar().kinds[0], MessageKind::Insert);
        assert!(b.columnar_is_materialized());
        b.push_cti(t(50));
        assert!(!b.columnar_is_materialized(), "push invalidates");
        assert_eq!(b.columnar().len(), 11);
        assert_eq!(b.columnar().kinds[10], MessageKind::Cti);
        b.clear();
        assert!(!b.columnar_is_materialized(), "clear invalidates");
        assert!(b.columnar().is_empty());
    }

    #[test]
    fn columnar_cache_shared_by_clones_fresh_on_split_products() {
        let b = ten();
        let clone = b.clone();
        let _ = b.columnar();
        assert!(
            clone.columnar_is_materialized(),
            "clones share the cached view"
        );
        // Batches cut from its messages describe different runs: fresh,
        // unbuilt caches.
        let (l, r) = (slice(&b, 0, 4), slice(&b, 4, 10));
        assert!(!l.columnar_is_materialized());
        assert!(!r.columnar_is_materialized());
        assert_eq!(l.columnar().len(), 4);
        assert_eq!(r.columnar().len(), 6);
        // Mutating one clone never poisons the other's built view.
        let mut m = b.clone();
        m.push_cti(t(9));
        assert!(b.columnar_is_materialized());
        assert_eq!(b.columnar().len(), 10);
        assert_eq!(m.columnar().len(), 11);
    }

    #[test]
    fn payload_columns_build_lazily_share_with_clones_fresh_on_splits() {
        let mut b = MessageBatch::new();
        for i in 0..6u64 {
            b.push(Message::insert(
                i,
                iv(i, i + 2),
                Payload::from_values(vec![Value::Int(i as i64)]),
            ));
        }
        assert!(!b.payload_columns_is_materialized(), "lazy until accessed");
        let clone = b.clone();
        assert_eq!(b.payload_columns().rows(), 6);
        assert!(
            clone.payload_columns_is_materialized(),
            "clones share the built columns"
        );
        // The two caches are independent: touching payload columns does
        // not materialise the temporal view, and vice versa.
        assert!(!b.columnar_is_materialized());
        let (l, r) = (slice(&b, 0, 2), slice(&b, 2, 6));
        assert!(!l.payload_columns_is_materialized());
        assert!(!r.payload_columns_is_materialized());
        assert_eq!(l.payload_columns().rows(), 2);
        assert_eq!(r.payload_columns().rows(), 4);
        // Mutation invalidates this batch only, never a clone's view.
        let mut m = b.clone();
        m.push_cti(t(9));
        assert!(!m.payload_columns_is_materialized(), "push invalidates");
        assert!(b.payload_columns_is_materialized());
        assert_eq!(m.payload_columns().rows(), 7);
        assert_eq!(b.payload_columns().rows(), 6);
        m.clear();
        assert!(!m.payload_columns_is_materialized(), "clear invalidates");
        assert_eq!(m.payload_columns().rows(), 0);
    }

    /// Satellite regression: ragged payloads — shorter than the widest row
    /// of the run, empty, or carrying explicit `Value::Null` — materialise
    /// as null-bitmap cells that read back exactly what
    /// `Scalar::eval_payload`'s `unwrap_or(Value::Null)` fallback yields.
    #[test]
    fn payload_columns_ragged_and_null_rows_match_eval_fallback() {
        let mut b = MessageBatch::new();
        let wide = Payload::from_values(vec![Value::Int(7), Value::str("row0"), Value::Float(1.5)]);
        let short = Payload::from_values(vec![Value::Int(8)]);
        let empty = Payload::empty();
        let with_null = Payload::from_values(vec![Value::Null, Value::str("row3")]);
        b.push(Message::insert(1, iv(0, 5), wide.clone()));
        b.push(Message::insert(2, iv(1, 6), short.clone()));
        b.push(Message::insert(3, iv(2, 7), empty.clone()));
        b.push(Message::insert(4, iv(3, 8), with_null.clone()));
        b.push_cti(t(4)); // payload-less row: all-null
        let cols = b.payload_columns();
        assert_eq!((cols.rows(), cols.width()), (5, 3));
        let payloads = [
            Some(&wide),
            Some(&short),
            Some(&empty),
            Some(&with_null),
            None,
        ];
        for (i, p) in payloads.iter().enumerate() {
            for j in 0..4 {
                let expect = p.and_then(|p| p.get(j)).cloned().unwrap_or(Value::Null);
                assert_eq!(cols.value_at(j, i), expect, "row {i} col {j}");
            }
        }
        // Explicit nulls and missing tails are indistinguishable reads.
        assert!(cols.col(0).unwrap().is_null(3), "explicit Value::Null");
        assert!(cols.col(1).unwrap().is_null(1), "short row tail");
        assert!(cols.col(0).unwrap().is_null(2), "empty payload");
    }

    /// Retract rows column the **pre-image** payload — what a stateless
    /// stage evaluates when it processes the retraction.
    #[test]
    fn payload_columns_retract_rows_use_preimage_payload() {
        let mut b = MessageBatch::new();
        let e = std::sync::Arc::new(cedr_temporal::Event::primitive(
            cedr_temporal::EventId(9),
            iv(2, 8),
            Payload::from_values(vec![Value::Int(42)]),
        ));
        b.push(Message::Retract(crate::message::Retraction {
            event: e,
            new_end: t(5),
        }));
        assert_eq!(b.payload_columns().value_at(0, 0), Value::Int(42));
    }

    #[test]
    fn columnar_view_retract_columns_keep_original_ve() {
        let mut b = MessageBatch::new();
        let e = std::sync::Arc::new(cedr_temporal::Event::primitive(
            cedr_temporal::EventId(9),
            iv(2, 8),
            Payload::empty(),
        ));
        b.push(Message::Retract(crate::message::Retraction {
            event: e,
            new_end: t(5),
        }));
        let v = b.columnar();
        assert_eq!(v.kinds[0], MessageKind::Retract);
        assert_eq!(v.vs[0], t(2));
        assert_eq!(v.ve[0], t(8), "pre-retraction end, not new_end");
        assert_eq!(v.sync[0], t(5), "sync is the retraction's new_end");
        assert_eq!(v.ids[0], 9);
    }
}
