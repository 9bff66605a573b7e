//! Sessioned I/O: typed ingestion handles and incremental output
//! subscriptions.
//!
//! The paper's CEDR vision is a *standing-query server*: providers feed
//! named streams continuously, consumers observe each query's consistent,
//! repairing output stream. This module is that surface:
//!
//! * [`Source`] — a provider session on one input stream. It resolves the
//!   event type and its subscribers **once** at open time, stages messages
//!   in a local [`MessageBatch`] through typed builders, and flushes with
//!   blocking ([`Source::flush`]) or backpressure-surfacing
//!   ([`Source::try_flush`]) semantics. Its target decides only how an
//!   event ID is minted and where a flush goes: [`SourceHandle`]
//!   ([`Engine::source`]) borrows the engine and flushes into its bounded
//!   ingress queue; [`ChannelSource`](crate::ChannelSource)
//!   ([`Engine::channel_source`]) is `Send + Clone` and flushes onto a
//!   bounded channel the engine pumps (see [`crate::ingest`]).
//! * [`Subscription`] — a consumer cursor over a query's append-only
//!   [`OutputDelta`] log. Opened with [`Engine::subscribe`], each
//!   [`Subscription::poll`] drains staged work and returns exactly the
//!   insert/retract/CTI deltas appended since the previous poll,
//!   bit-identical at every consistency level and thread count.

use crate::engine::{point_interval, validate_arity, Engine, EngineError, QueryId, SubscriberList};
use cedr_streams::{Message, MessageBatch, OutputDelta, Retraction};
use cedr_temporal::{Event, EventId, Interval, Payload, TimePoint, Value};
use std::fmt;
use std::sync::Arc;

/// Default number of staged messages at which a [`Source`] auto-flushes.
/// Small enough to bound session-local memory, large enough that shell
/// and scheduler overhead amortise across the run (see
/// `OpStats::mean_batch_len`).
pub const DEFAULT_AUTOFLUSH: usize = 512;

mod sealed {
    use super::*;

    /// Where a [`Source`]'s flushes go and how its builders mint event
    /// IDs. Implemented by [`EngineTarget`] and
    /// [`ChannelTarget`](crate::ingest::ChannelTarget) only.
    pub trait Target: fmt::Debug {
        /// A fresh event ID for the typed `insert` builders.
        fn mint(&mut self) -> EventId;

        /// Move `staged` to the target. `block` waits out a full target;
        /// otherwise a full target leaves `staged` with the caller and
        /// returns [`EngineError::IngressFull`]. On success `staged` is
        /// left empty.
        fn admit(
            &mut self,
            event_type: &Arc<str>,
            subs: &SubscriberList,
            staged: &mut MessageBatch,
            block: bool,
        ) -> Result<(), EngineError>;
    }
}

pub(crate) use sealed::Target;

/// A typed ingestion session on one named input stream.
///
/// Opened through one of its two targets: [`Engine::source`] gives a
/// [`SourceHandle`], [`Engine::channel_source`] a
/// [`ChannelSource`](crate::ChannelSource). Messages accumulate in a local
/// staging batch and move to the target on [`flush`](Source::flush)
/// (automatic every [`DEFAULT_AUTOFLUSH`] staged messages, on drop, or
/// manual).
///
/// The drop-flush is strictly best-effort and **never panics**: a drop
/// during a panic unwind abandons the staged batch rather than risk the
/// scheduler or a full channel (a second panic would abort the process),
/// and [`flush`](Source::flush) itself swallows rather than unwraps.
/// Callers who want staged-data errors surfaced use
/// [`try_flush`](Source::try_flush) / [`into_inner`](Source::into_inner)
/// before dropping.
pub struct Source<T: Target> {
    pub(crate) target: T,
    pub(crate) event_type: Arc<str>,
    /// Payload arity of the event type, resolved at open time.
    pub(crate) arity: usize,
    /// `(query, port)` subscribers, resolved at open time.
    pub(crate) subs: SubscriberList,
    pub(crate) staged: MessageBatch,
    pub(crate) autoflush: usize,
}

impl<T: Target> Source<T> {
    pub(crate) fn open(target: T, event_type: &str, arity: usize, subs: SubscriberList) -> Self {
        Source {
            target,
            event_type: Arc::from(event_type),
            arity,
            subs,
            staged: MessageBatch::new(),
            autoflush: DEFAULT_AUTOFLUSH,
        }
    }

    /// The event type this session feeds.
    pub fn event_type(&self) -> &str {
        &self.event_type
    }

    /// Number of `(query, port)` subscribers the resolved routing fans
    /// out to.
    pub fn subscriber_count(&self) -> usize {
        self.subs.len()
    }

    /// Messages currently staged locally (not yet flushed).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Auto-flush after `n` staged messages (clamped to at least 1).
    pub fn with_autoflush(mut self, n: usize) -> Self {
        self.autoflush = n.max(1);
        self
    }

    /// Disable auto-flush entirely: the batch grows until an explicit
    /// [`flush`](Source::flush)/[`try_flush`](Source::try_flush) or drop.
    pub fn manual_flush(mut self) -> Self {
        self.autoflush = usize::MAX;
        self
    }

    /// Mint and stage a point event `[vs, vs+1)` with a fresh ID,
    /// validating the payload against the resolved schema. Returns the
    /// (shared) event so the provider can retract it later. `vs ==
    /// u64::MAX` is [`EngineError::TimeOutOfRange`]: that tick is `∞`.
    pub fn insert(&mut self, vs: u64, fields: Vec<Value>) -> Result<Arc<Event>, EngineError> {
        self.insert_for(point_interval(&self.event_type, vs)?, fields)
    }

    /// Mint and stage an event with an explicit validity interval.
    ///
    /// A [`SourceHandle`] draws IDs from the engine's counter; a
    /// [`ChannelSource`](crate::ChannelSource) from its producer's own
    /// slice of the ID space (`key << 44 | n`), so concurrent providers
    /// never collide and a given provider mints the same IDs on every run.
    pub fn insert_for(
        &mut self,
        interval: Interval,
        fields: Vec<Value>,
    ) -> Result<Arc<Event>, EngineError> {
        validate_arity(&self.event_type, self.arity, fields.len())?;
        let id = self.target.mint();
        let event = Arc::new(Event::primitive(id, interval, Payload::from_values(fields)));
        self.stage(Message::Insert(event.clone()));
        Ok(event)
    }

    /// Stage a pre-minted event (e.g. from a workload generator),
    /// validating its payload arity against the resolved schema.
    pub fn insert_event(&mut self, event: impl Into<Arc<Event>>) -> Result<(), EngineError> {
        let event = event.into();
        validate_arity(&self.event_type, self.arity, event.payload.len())?;
        self.stage(Message::Insert(event));
        Ok(())
    }

    /// Stage a retraction shortening `event`'s lifetime to
    /// `[Vs, new_end)` (`new_end == Vs` removes it entirely). Accepts the
    /// shared event an [`insert`](Source::insert) returned (clone the
    /// `Arc` — a refcount bump) or an owned [`Event`].
    pub fn retract(&mut self, event: impl Into<Arc<Event>>, new_end: TimePoint) {
        self.stage(Message::Retract(Retraction::new(event, new_end)));
    }

    /// Stage a current-time increment: a promise that every future
    /// message on this stream has `Sync >= t`.
    pub fn cti(&mut self, t: TimePoint) {
        self.stage(Message::Cti(t));
    }

    /// Stage a raw physical message (tape replays, disorder harnesses).
    /// No schema validation is applied.
    pub fn stage(&mut self, msg: Message) {
        self.staged.push(msg);
        if self.staged.len() >= self.autoflush {
            self.flush();
        }
    }

    /// Stage a whole batch (an `Arc`-shared clone per message — payloads
    /// are never copied). The auto-flush bound holds mid-batch: local
    /// staging never grows past the threshold, however large the input.
    pub fn stage_batch(&mut self, batch: &MessageBatch) {
        for m in batch {
            self.stage(m.clone());
        }
    }

    /// Move the staged batch to the target, waiting out a full one: a
    /// [`SourceHandle`] drains the engine first when its bounded ingress
    /// lacks room (the staged work then runs at the next
    /// [`Engine::run_to_quiescence`] or [`Subscription::poll`]); a
    /// [`ChannelSource`](crate::ChannelSource) blocks until the engine
    /// thread pumps, and discards the batch if the engine is gone. Never
    /// fails; an empty staging batch is a no-op.
    pub fn flush(&mut self) {
        // Blocking admission cannot fail today; should a future error
        // path appear, swallowing it here keeps `flush` (and the drop
        // that routes through it) panic-free by construction.
        let _ = self.admit(true);
    }

    /// [`flush`](Source::flush) with backpressure surfaced: if the staged
    /// batch does not fit the target, nothing moves, the batch stays
    /// staged, and [`EngineError::IngressFull`] is returned — the caller
    /// decides whether to drain, retry, or shed load. Only
    /// [`Engine::run_to_quiescence`] makes room in the engine ingress,
    /// only [`Engine::pump`] / [`Engine::run_pipelined`] in a channel.
    pub fn try_flush(&mut self) -> Result<(), EngineError> {
        self.admit(false)
    }

    fn admit(&mut self, block: bool) -> Result<(), EngineError> {
        self.target
            .admit(&self.event_type, &self.subs, &mut self.staged, block)
    }

    /// End the session **without** the drop-flush, handing back whatever
    /// was staged (a channel source still disconnects). This is the
    /// explicit-error-handling escape hatch: a caller that wants to decide
    /// the batch's fate (retry elsewhere, log, shed) pairs
    /// [`try_flush`](Source::try_flush) with `into_inner` instead of
    /// trusting the implicit flush on drop.
    pub fn into_inner(mut self) -> MessageBatch {
        std::mem::take(&mut self.staged)
        // Drop sees an empty staging batch: a no-op flush.
    }
}

impl<T: Target> fmt::Debug for Source<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Source")
            .field("event_type", &self.event_type)
            .field("target", &self.target)
            .field("arity", &self.arity)
            .field("subscribers", &self.subscriber_count())
            .field("staged", &self.staged.len())
            .finish_non_exhaustive()
    }
}

impl<T: Target> Drop for Source<T> {
    /// Flush the staged batch, unless the thread is unwinding from a
    /// panic (see [`Source`]). The target drops afterwards; a channel
    /// target's last clone disconnects its producer there.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

/// The borrowed target: a session holding the engine exclusively.
///
/// The borrow is what makes "resolve once" sound — routing cannot change
/// and the engine cannot seal while a session is open. Flushes go to the
/// engine's bounded ingress queue
/// ([`EngineConfig::ingress_capacity`](crate::EngineConfig::ingress_capacity));
/// staged batches run at [`Engine::run_to_quiescence`], or when a full
/// ingress makes a blocking flush drain the engine.
pub struct EngineTarget<'e> {
    pub(crate) engine: &'e mut Engine,
}

impl fmt::Debug for EngineTarget<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineTarget").finish_non_exhaustive()
    }
}

impl sealed::Target for EngineTarget<'_> {
    fn mint(&mut self) -> EventId {
        self.engine.mint_id()
    }

    fn admit(
        &mut self,
        event_type: &Arc<str>,
        subs: &SubscriberList,
        staged: &mut MessageBatch,
        block: bool,
    ) -> Result<(), EngineError> {
        self.engine.admit_resolved(event_type, staged, subs, block)
    }
}

/// A typed ingestion session on one named input stream that borrows the
/// engine: a [`Source`] on the [`EngineTarget`].
///
/// ```
/// use cedr_core::prelude::*;
///
/// let mut engine = Engine::new();
/// engine.register_event_type("LOGIN", vec![("user", FieldType::Str)]);
/// let mut login = engine.source("LOGIN").unwrap();
/// let ev = login.insert(100, vec![Value::str("ada")]).unwrap();
/// login.retract(ev.clone(), t(100)); // never mind
/// login.cti(t(200));
/// drop(login); // flushes the staged batch
/// engine.run_to_quiescence();
/// ```
pub type SourceHandle<'e> = Source<EngineTarget<'e>>;

impl Source<EngineTarget<'_>> {
    /// Deliver one message immediately as a one-message round through
    /// the engine's ingress. Anything staged before it — through this
    /// handle or any other — is flushed and drained first, in its own
    /// round, so the message can never overtake earlier data; then the
    /// message is staged and [`sync`](Source::sync)ed. The round is
    /// counted like any other (ingress counters, round counter, latency
    /// histograms, trace). A message nobody subscribes to runs no round.
    /// This is the latency-first mode; prefer staging + flush when the
    /// caller holds a run of messages.
    pub fn send(&mut self, msg: Message) {
        self.flush();
        if !self.target.engine.ingress.is_empty() {
            self.target.engine.run_to_quiescence();
        }
        if self.subs.is_empty() {
            return;
        }
        self.staged.push(msg);
        self.sync();
    }

    /// Flush and run the engine to quiescence: everything staged through
    /// this handle (and any other staged ingress) is processed before
    /// this returns. Equivalent to dropping the handle and calling
    /// [`Engine::run_to_quiescence`], without ending the session.
    pub fn sync(&mut self) {
        self.flush();
        self.target.engine.run_to_quiescence();
    }
}

/// An incremental consumer cursor over one query's output change stream.
///
/// Obtained from [`Engine::subscribe`]. The subscription owns only a
/// position into the query collector's append-only delta log, so it can
/// outlive borrows of the engine, interleave freely with ingestion
/// sessions, and coexist with any number of other subscriptions on the
/// same query. Draining never re-reads state: each poll returns a slice
/// of the log — zero copies, `Arc`-shared events.
///
/// ```
/// use cedr_core::prelude::*;
///
/// let mut engine = Engine::new();
/// engine.register_event_type("TICK", vec![("v", FieldType::Int)]);
/// let plan = PlanBuilder::source("TICK").select(Pred::True).into_plan();
/// let q = engine
///     .register_plan("ticks", plan, ConsistencySpec::middle())
///     .unwrap();
/// let mut sub = engine.subscribe(q).unwrap();
/// let mut src = engine.source("TICK").unwrap();
/// src.insert(7, vec![Value::Int(1)]).unwrap();
/// drop(src);
/// for delta in sub.poll(&mut engine) {
///     println!("{delta:?}"); // @0 +insert ...
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Subscription {
    query: QueryId,
    cursor: usize,
}

impl Subscription {
    pub(crate) fn new(query: QueryId) -> Self {
        Subscription { query, cursor: 0 }
    }

    /// The query this subscription observes.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// The cursor position: number of deltas consumed so far.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Drain everything new: run the engine to quiescence (consumption
    /// drives the scheduler over any staged ingress), then return the
    /// deltas appended since the last drain and advance the cursor past
    /// them.
    pub fn poll<'e>(&mut self, engine: &'e mut Engine) -> &'e [OutputDelta] {
        engine.run_to_quiescence();
        self.drain_ready(engine)
    }

    /// Drain what is already computed, without scheduling — the read-only
    /// variant of [`poll`](Subscription::poll) for when the engine is
    /// shared or known to be quiescent.
    pub fn drain_ready<'e>(&mut self, engine: &'e Engine) -> &'e [OutputDelta] {
        let log = engine.collector(self.query).delta_log();
        let start = self.cursor.min(log.len());
        self.cursor = log.len();
        &log[start..]
    }

    /// Drain at most `max` ready deltas (read-only; pair with
    /// [`poll`](Subscription::poll) or [`Engine::run_to_quiescence`] to
    /// schedule first). Supports consuming a long repair log in slices
    /// and resuming mid-stream — the cursor advances exactly past what
    /// was returned.
    pub fn take<'e>(&mut self, engine: &'e Engine, max: usize) -> &'e [OutputDelta] {
        let log = engine.collector(self.query).delta_log();
        let start = self.cursor.min(log.len());
        let end = start.saturating_add(max).min(log.len());
        self.cursor = end;
        &log[start..end]
    }

    /// Attach this cursor to a [`MetricsSnapshot`](cedr_obs::MetricsSnapshot)
    /// under `label`, so [`render_report`](cedr_obs::MetricsSnapshot::render_report)
    /// and [`render_prometheus`](cedr_obs::MetricsSnapshot::render_prometheus)
    /// show its position and lag against the query's delta log. Cursors
    /// live with consumers, not the engine, so [`Engine::metrics`] cannot
    /// see them — observation is opt-in per subscription.
    pub fn observe(&self, snap: &mut cedr_obs::MetricsSnapshot, label: &str) {
        snap.record_subscription(self.query.0, label, self.cursor as u64);
    }

    /// Deltas ready to drain without scheduling.
    pub fn pending(&self, engine: &Engine) -> usize {
        engine
            .collector(self.query)
            .delta_log()
            .len()
            .saturating_sub(self.cursor)
    }

    /// Callback-sink drain: run to quiescence, hand every new delta to
    /// `f` in order, and return how many were consumed. The cursor
    /// advances past each delta only *after* its callback returns, so a
    /// panicking sink loses nothing: on unwind the cursor still points at
    /// the failed delta and a later drain re-delivers it (at-least-once).
    pub fn for_each<F: FnMut(&OutputDelta)>(&mut self, engine: &mut Engine, mut f: F) -> usize {
        engine.run_to_quiescence();
        let log = engine.collector(self.query).delta_log();
        let end = log.len();
        let mut consumed = 0;
        while self.cursor < end {
            f(&log[self.cursor]);
            self.cursor += 1;
            consumed += 1;
        }
        consumed
    }

    /// Skip past everything already logged without observing it: the next
    /// poll returns only deltas appended after this call.
    pub fn skip_to_end(&mut self, engine: &Engine) {
        self.cursor = engine.collector(self.query).delta_log().len();
    }
}
