//! The anatomy of a CEDR operator (Figure 7).
//!
//! [`OperatorShell`] is the generic harness every physical operator runs
//! in. It contains the two components the paper names:
//!
//! * the **consistency monitor** — "decides whether to block the input
//!   stream in an alignment buffer until output may be produced which
//!   upholds the desired level of consistency", parameterised by the
//!   ⟨M, B⟩ spectrum point; it also accepts occurrence-time guarantees
//!   (CTIs) on inputs and annotates the output with its own guarantees;
//! * the **operational module** — the actual incremental computation,
//!   implemented by the [`OperatorModule`] trait in the sibling modules
//!   (`stateless`, `join`, `aggregate`, `sequence`, `negation`).
//!
//! # Batch-native delivery and the one-refresh-per-run contract
//!
//! The shell delivers admitted messages to modules in **per-input runs**
//! through [`OperatorModule::on_batch`], the trait's only delivery method.
//! What each operator family is allowed to amortise over a run follows
//! from one rule — *the output of a run is a pure function of the
//! delivered run and the state before it*:
//!
//! * **Stateless** operators and **join** are *bit-identical* to delivery
//!   in runs of one: they emit exactly one output per qualifying input,
//!   in input order. Join's batch-native probe exploits the fact
//!   that a run arrives on one port, so the opposite side's index is
//!   frozen for the whole run: one candidate lookup per distinct key
//!   (`OpStats::probe_batches`), identical emissions.
//! * **Group-aggregate** (and the recompute-and-diff sequencing modes)
//!   follow the *one-refresh-per-run* contract instead: the whole run is
//!   folded into operator state first, then **one refresh — a
//!   retract+insert diff — is emitted per touched group per run**
//!   (`OpStats::group_refreshes`), rather than one per state-changing
//!   message. Intermediate states a finer batching would have published
//!   (and immediately repaired) are never emitted, so the *tape* emitted
//!   for a stream depends on how the stream was cut into delivery runs —
//!   but the **net content and the output guarantee never do**, and for a
//!   *fixed* run structure the tape is deterministic (which is what the
//!   engine's threaded ≡ serial pin needs). Per-message
//!   ingestion degenerates to runs of one message, where the contract
//!   coincides with classic per-message view maintenance.
//!
//! **Runs of one are the semantic reference.** There is no separate
//! per-message hook: classic per-message view maintenance *is* `on_batch`
//! called once per message ([`OperatorShell::push`] does exactly that),
//! and `tests/batch_equivalence.rs` uses it as the oracle. Whatever a
//! module amortises over a longer run must be indistinguishable from
//! runs-of-one delivery at the level of net content, output guarantees,
//! and (for the non-collapsing families) the exact message tape.
//!
//! Batching never outruns the consistency monitor: a run's
//! [`OpContext::watermark`] is capped by the sync of every message still
//! awaiting delivery (see [`OperatorShell::push_batch`]), so a collapsed
//! group refresh — emitted at the end of its run — can never leak a
//! guarantee past an undelivered negator or contributor.
//!
//! # What a module is handed, and what it may keep
//!
//! **Run boundaries** are the CTI-delimited segments of what the shell
//! was pushed (for a blocking or forgetful spec: the same-input runs the
//! alignment buffer releases). **Run memory** is borrowed: where the
//! reorder guard has nothing to park or replay, `msgs` is a sub-slice of
//! memory someone else owns. Where the spec neither blocks nor forgets
//! (Middle) that is the batch the shell's caller holds — possibly the
//! very `MessageBatch` a provider flushed, shared with every other
//! subscribing query; under Strong and Weak it is the shell's own pending
//! buffer, one contiguous vector the monitor refills at every release
//! and clears after every flush. A module therefore **clones what it
//! keeps** (an `Arc` bump per event) and must not assume the slice
//! outlives the call. The shell copies a run only when it edits it.
//!
//! **No map iteration order may reach an output or an image.** Every
//! `EventId`-keyed map in this crate is a
//! [`cedr_temporal::IdMap`]/[`IdSet`](cedr_temporal::IdSet) whose hash
//! key is drawn once per process, so the order differs from run to run
//! of the same binary: emission paths sort (by id, or by `(Vs, id)`),
//! encoders write sorted keys, and the pinned tapes and images in
//! `tests/` would move otherwise.

use crate::consistency::ConsistencySpec;
use crate::OpStats;
use cedr_streams::{Message, Retraction};
use cedr_temporal::{Duration, Event, IdMap, TimePoint};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Where operational modules put their output state updates.
#[derive(Debug, Default)]
pub struct OutputBuffer {
    msgs: Vec<Message>,
}

impl OutputBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit an insert. Accepts owned events or already-shared `Arc`s
    /// (pass-through operators forward their input at refcount cost).
    /// Events with empty lifetimes describe no state and are silently
    /// dropped (boundary pattern matches, fully-clipped slices).
    pub fn insert(&mut self, event: impl Into<Arc<Event>>) {
        let event = event.into();
        if event.interval.is_empty() {
            return;
        }
        self.msgs.push(Message::Insert(event));
    }

    /// Emit a retraction shortening `event` to `[Vs, new_end)`.
    pub fn retract_to(&mut self, event: impl Into<Arc<Event>>, new_end: TimePoint) {
        self.msgs
            .push(Message::Retract(Retraction::new(event, new_end)));
    }

    /// Emit a full removal (`Oe := Os` in the paper's terms).
    pub fn retract_full(&mut self, event: impl Into<Arc<Event>>) {
        let event = event.into();
        let vs = event.interval.start;
        self.msgs.push(Message::Retract(Retraction::new(event, vs)));
    }

    /// Emit a CTI (used by the shell; modules emit data only).
    pub(crate) fn cti(&mut self, t: TimePoint) {
        self.msgs.push(Message::Cti(t));
    }

    /// Pre-size the buffer for a batch-native module about to emit up to
    /// `n` more messages.
    pub fn reserve(&mut self, n: usize) {
        self.msgs.reserve(n);
    }

    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    pub(crate) fn drain(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.msgs)
    }
}

/// Remap a module-internal output ID to its current chain generation.
///
/// The paper's retraction model (Figure 2) requires a completely removed
/// event to be gone for good, so shells rewrite re-inserted IDs to fresh
/// per-generation identities.
fn generation_id(id: cedr_temporal::EventId, gen: u64) -> cedr_temporal::EventId {
    if gen == 0 {
        return id;
    }
    // SplitMix64 over (id, generation): deterministic fresh chain keys.
    let mut z = id.0.wrapping_add(gen.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    cedr_temporal::EventId(z ^ (z >> 31))
}

/// Amortisation work a module reports back to its shell; folded into
/// [`OpStats`] after every module call.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpEffort {
    /// Group refresh computations performed (group-aggregate).
    pub group_refreshes: u64,
    /// Delivery runs probed batch-natively (join).
    pub probe_batches: u64,
}

/// Execution context handed to operational modules.
pub struct OpContext<'a> {
    /// The consistency spec the shell enforces.
    pub spec: ConsistencySpec,
    /// The combined input occurrence-time guarantee: no future input
    /// message has `Sync` below this.
    pub watermark: TimePoint,
    /// High-water mark of observed input syncs (the optimist's clock).
    pub max_seen: TimePoint,
    /// Batch-native effort counters ([`OpStats::group_refreshes`],
    /// [`OpStats::probe_batches`]); modules bump these, the shell folds
    /// them into its stats.
    pub effort: OpEffort,
    /// Output buffer.
    pub out: &'a mut OutputBuffer,
}

impl OpContext<'_> {
    /// The memory horizon: state anchored below this may be forgotten.
    pub fn horizon(&self) -> TimePoint {
        self.spec.horizon(self.max_seen)
    }

    /// Consistency-monitor policy for *module-level* blocking (negation):
    /// may an output anchored at `anchor` be emitted before its
    /// confirmation time is covered by the watermark?
    ///
    /// * `B = 0` — yes, immediately (optimistic; middle/weak);
    /// * `B = ∞` — never (strong: wait for the guarantee);
    /// * finite `B` — once the stream has advanced `B` past the anchor.
    pub fn may_emit_optimistically(&self, anchor: TimePoint) -> bool {
        let b = self.spec.max_blocking;
        if b == Duration::ZERO {
            true
        } else if b.is_infinite() {
            false
        } else {
            self.max_seen >= anchor + b
        }
    }
}

/// An operational module: the pure-computation half of Figure 7.
///
/// Modules receive state updates *after* the consistency monitor has
/// applied alignment and forgetting, maintain operator state, and emit
/// output state updates — optimistically if the spec allows, repairing
/// themselves with retractions when late input contradicts earlier output.
pub trait OperatorModule: Send {
    /// Operator name (plans and stats).
    fn name(&self) -> &'static str;

    /// Number of input ports.
    fn arity(&self) -> usize {
        1
    }

    /// A run of data messages (inserts and retractions) arrived on
    /// `input`, already admitted by the consistency monitor and in
    /// delivery order. This is the only way a module receives input.
    ///
    /// `msgs` may be a slice of the producer's own batch (see the module
    /// docs): clone what must outlive the call.
    ///
    /// Contract: `msgs` holds no CTIs (the monitor consumes them), and
    /// `ctx.watermark` is honest for the run as a whole — every input
    /// message with `Sync` below it has either been delivered in an
    /// earlier call or is contained in `msgs` itself. A module may amortise
    /// per-call work over the run (index lookups, one refresh per touched
    /// group); see the module docs for what may be collapsed and what must
    /// match delivery in runs of one exactly.
    fn on_batch(&mut self, input: usize, msgs: &[Message], ctx: &mut OpContext);

    /// Called after every batch of deliveries and after watermark changes:
    /// confirm pending output, purge state.
    fn on_advance(&mut self, _ctx: &mut OpContext) {}

    /// Current state footprint, in retained entries (events, pending
    /// matches, group members…).
    fn state_size(&self) -> usize {
        0
    }

    /// How far the output guarantee trails the input guarantee. Most
    /// operators propagate the watermark unchanged; UNLESS lags by its
    /// negation scope `w`.
    fn cti_lag(&self) -> Duration {
        Duration::ZERO
    }

    /// Map an input watermark to the output guarantee the operator can
    /// legitimately declare. Override for non-monotone lifetime mappings
    /// (hopping windows, constant relocations).
    fn map_cti(&self, watermark: TimePoint) -> TimePoint {
        watermark - self.cti_lag()
    }

    /// Serialize the module's *runtime* state (checkpointing). Plan-time
    /// parameters (predicates, windows, key exprs) are not written — a
    /// restore target is built by re-registering the same plan, so only
    /// accumulated state travels through the image. The encoding must be
    /// deterministic: hash-map content goes out in sorted key order.
    /// Stateless modules keep this default no-op.
    fn state_snapshot(&self, _out: &mut Vec<u8>) {}

    /// Restore runtime state written by
    /// [`OperatorModule::state_snapshot`] into a freshly built module.
    /// Derived indexes are rebuilt here rather than persisted.
    fn state_restore(
        &mut self,
        _r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        Ok(())
    }
}

/// Figure 7: consistency monitor + alignment buffer wrapped around an
/// operational module.
pub struct OperatorShell {
    module: Box<dyn OperatorModule>,
    spec: ConsistencySpec,
    /// The spec neither blocks nor forgets (Middle): everything is
    /// admitted on arrival, so the alignment and pending buffers stay
    /// empty and segments are delivered as the caller's own slices.
    direct: bool,
    input_watermarks: Vec<TimePoint>,
    watermark: TimePoint,
    max_seen: TimePoint,
    /// Alignment buffer: a min-heap on (sync, arrival seq). Release is a
    /// threshold on sync, so what is due is always a prefix of that order.
    align: BinaryHeap<Reverse<Held>>,
    seq: u64,
    /// Reorder guard: disorder can deliver a retraction *before* its own
    /// insert (their syncs are independent). Retractions of unseen events
    /// are parked here per input and replayed right after the insert
    /// arrives; the watermark proves abandoned orphans dead (the insert's
    /// sync is ≤ the retraction's, so once the watermark passes it the
    /// insert can no longer arrive).
    seen_inserts: Vec<IdMap<TimePoint>>,
    orphans: Vec<IdMap<Vec<Retraction>>>,
    /// Messages the Strong/Weak monitor admitted but has not yet delivered
    /// to the module, in admission order; `flush_pending` hands each
    /// same-input run of it to the module as a sub-slice.
    pending: Vec<Message>,
    /// `(input, arrival tick)` of each `pending` entry.
    pending_from: Vec<(usize, u64)>,
    /// `flush_pending`'s scratch: `later[k]` is the lowest sync among
    /// `pending[k..]`.
    later: Vec<TimePoint>,
    out: OutputBuffer,
    stats: OpStats,
    last_cti: Option<TimePoint>,
    /// Output chain generations. The paper's retraction model (Figure 2)
    /// requires that a completely removed event is gone for good — a
    /// revival "must be … inserted" as "a new event" with a new chain key.
    /// Modules think in terms of their stable internal IDs; the shell
    /// rewrites re-inserted IDs to fresh per-generation identities so every
    /// downstream chain shrinks monotonically.
    out_generations: IdMap<u64>,
}

/// A message the alignment buffer holds: ordered by `(sync, seq)` only,
/// `seq` being unique per shell.
struct Held {
    sync: TimePoint,
    seq: u64,
    input: usize,
    msg: Message,
    arrived: u64,
}

impl Held {
    fn key(&self) -> (TimePoint, u64) {
        (self.sync, self.seq)
    }
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Held {}

impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Held {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl OperatorShell {
    pub fn new(module: Box<dyn OperatorModule>, spec: ConsistencySpec) -> Self {
        let arity = module.arity();
        OperatorShell {
            module,
            spec,
            direct: !spec.is_blocking() && !spec.is_forgetful(),
            input_watermarks: vec![TimePoint::ZERO; arity],
            watermark: TimePoint::ZERO,
            max_seen: TimePoint::ZERO,
            align: BinaryHeap::new(),
            seq: 0,
            seen_inserts: vec![Default::default(); arity],
            orphans: vec![Default::default(); arity],
            pending: Vec::new(),
            pending_from: Vec::new(),
            later: Vec::new(),
            out: OutputBuffer::new(),
            stats: OpStats::default(),
            last_cti: None,
            out_generations: Default::default(),
        }
    }

    pub fn name(&self) -> &'static str {
        self.module.name()
    }

    pub fn arity(&self) -> usize {
        self.input_watermarks.len()
    }

    pub fn spec(&self) -> ConsistencySpec {
        self.spec
    }

    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// The combined input guarantee currently in force.
    pub fn watermark(&self) -> TimePoint {
        self.watermark
    }

    /// Feed one message into input port `input` at CEDR tick `now`;
    /// returns the output state updates (with trailing output CTI if the
    /// guarantee advanced). Equivalent to a `push_batch` of one message.
    pub fn push(&mut self, input: usize, msg: Message, now: u64) -> Vec<Message> {
        self.push_batch(input, std::slice::from_ref(&msg), now)
    }

    /// Feed a run of messages into input port `input` at CEDR tick `now`;
    /// returns the output state updates (with trailing output CTI if the
    /// guarantee advanced).
    ///
    /// The batch is cut at its CTIs into **segments**. The consistency
    /// monitor admits a segment's messages one at a time (forgetting,
    /// alignment and watermark bookkeeping are per message), module
    /// delivery is per run (`deliver_run`), and
    /// `on_advance`/output-CTI handling run once per guarantee change and
    /// once at the end of the call. A spec that neither blocks nor forgets
    /// (Middle) admits everything on arrival, so its segments go to the
    /// module as sub-slices of `batch` itself; otherwise admitted messages
    /// pass through the alignment buffer and are delivered from there.
    pub fn push_batch(&mut self, input: usize, batch: &[Message], now: u64) -> Vec<Message> {
        assert!(input < self.arity(), "input port out of range");
        for segment in batch.split_inclusive(|m| matches!(m, Message::Cti(_))) {
            let (data, cti) = match segment.split_last() {
                Some((Message::Cti(t), data)) => (data, Some(*t)),
                _ => (segment, None),
            };
            if self.direct {
                self.deliver_segment(input, data);
            } else {
                for msg in data {
                    self.admit(input, msg, now);
                }
                // Deliver everything admitted under the current guarantee
                // before the guarantee moves.
                self.flush_pending(now);
            }
            if let Some(t) = cti {
                let before = self.watermark;
                self.observe_cti(input, t);
                if !self.direct {
                    self.release();
                    self.flush_pending(now);
                }
                // Give the module its watermark-change hook mid-batch and
                // forward the guarantee downstream *at its position in the
                // stream*: confirmation, state flushing and the output CTI
                // cadence must track the guarantee, not the batch boundary
                // — otherwise every consumer's state grows with the batch
                // instead of the live window.
                if self.watermark > before {
                    self.advance_module();
                    self.emit_cti();
                }
            }
        }
        self.advance_module();
        self.emit_cti();
        self.finish()
    }

    /// The Middle route: a CTI-free segment is admitted whole (nothing is
    /// forgotten, nothing waits) and delivered as the caller's own slice.
    fn deliver_segment(&mut self, input: usize, data: &[Message]) {
        if data.is_empty() {
            return;
        }
        self.stats.arrivals += data.len() as u64;
        for msg in data {
            self.max_seen = TimePoint::max_of(self.max_seen, msg.sync());
        }
        self.deliver_run(input, data, TimePoint::INFINITY);
        self.prune_guard();
    }

    /// Admit one data message through the consistency monitor: forget it,
    /// hold it in the alignment buffer, or queue it for delivery.
    fn admit(&mut self, input: usize, data: &Message, now: u64) {
        self.stats.arrivals += 1;
        let sync = data.sync();
        // Weak-consistency forgetting: below the memory horizon the
        // monitor drops the message outright.
        if self.spec.is_forgetful() && sync < self.spec.horizon(self.max_seen) {
            self.stats.forgotten += 1;
            return;
        }
        self.max_seen = TimePoint::max_of(self.max_seen, sync);
        if self.spec.is_blocking() && sync >= self.watermark {
            self.align.push(Reverse(Held {
                sync,
                seq: self.seq,
                input,
                msg: data.clone(),
                arrived: now,
            }));
            self.seq += 1;
            self.stats.held_peak = self.stats.held_peak.max(self.align.len() as u64);
        } else {
            self.pending.push(data.clone());
            self.pending_from.push((input, now));
        }
        // A data arrival can advance `max_seen` past a finite blocking
        // deadline (one peek when nothing is due).
        self.release();
    }

    /// Fold a CTI into the per-input watermarks and the combined guarantee.
    fn observe_cti(&mut self, input: usize, t: TimePoint) {
        let w = &mut self.input_watermarks[input];
        *w = TimePoint::max_of(*w, t);
        let combined = self
            .input_watermarks
            .iter()
            .copied()
            .fold(TimePoint::INFINITY, TimePoint::min_of);
        if combined > self.watermark {
            self.watermark = combined;
        }
        // CTIs also advance the optimist's clock.
        self.max_seen = TimePoint::max_of(self.max_seen, self.watermark);
    }

    /// Move alignment-buffer entries that are either covered by the
    /// watermark or have been blocked for the maximum blocking time into
    /// the pending delivery buffer, in `(sync, seq)` order.
    ///
    /// Both conditions are monotone in sync — a covered or timed-out entry
    /// makes every entry with a lower sync so too — so what is due is
    /// always the heap's top: release pops while the top is due and costs
    /// one peek when nothing is, never a scan of what stays held.
    fn release(&mut self) {
        while let Some(Reverse(top)) = self.align.peek() {
            let sync = top.sync;
            let covered = sync < self.watermark;
            let timed_out = !self.spec.max_blocking.is_infinite()
                && self
                    .max_seen
                    .since(sync)
                    .is_some_and(|held| held >= self.spec.max_blocking);
            if !covered && !timed_out {
                break;
            }
            let Reverse(held) = self.align.pop().expect("peeked");
            self.pending.push(held.msg);
            self.pending_from.push((held.input, held.arrived));
        }
    }

    /// The watermark as the *module* may use it: every input message with
    /// `Sync` below this has been delivered to the module. While the
    /// alignment buffer still holds messages, the declared guarantee has
    /// not yet been realised at the module boundary: it is capped by the
    /// lowest held sync, the heap's top.
    fn effective_watermark(&self) -> TimePoint {
        match self.align.peek() {
            Some(Reverse(top)) => TimePoint::min_of(self.watermark, top.sync),
            None => self.watermark,
        }
    }

    /// Deliver the pending buffer (the Strong/Weak route) to the module:
    /// maximal runs of consecutive same-input entries, in admission order,
    /// each through `deliver_run` as a borrowed sub-slice of the buffer.
    fn flush_pending(&mut self, now: u64) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        let mut from = std::mem::take(&mut self.pending_from);
        let mut later = std::mem::take(&mut self.later);
        later.clear();
        later.resize(pending.len() + 1, TimePoint::INFINITY);
        for (k, msg) in pending.iter().enumerate().rev() {
            later[k] = TimePoint::min_of(later[k + 1], msg.sync());
        }
        let mut start = 0;
        for (k, &(input, arrived)) in from.iter().enumerate() {
            let held = now.saturating_sub(arrived);
            self.stats.blocked_ticks += held;
            if held > 0 {
                self.stats.blocked_messages += 1;
            }
            if from.get(k + 1).is_none_or(|&(next, _)| next != input) {
                self.deliver_run(input, &pending[start..=k], later[k + 1]);
                start = k + 1;
            }
        }
        self.prune_guard();
        pending.clear();
        from.clear();
        self.pending = pending;
        self.pending_from = from;
        self.later = later;
    }

    /// The one delivery routine: reorder guard, then `on_batch`.
    ///
    /// `msgs` is a non-empty same-input run of admitted data messages and
    /// `later` the lowest sync among admitted messages queued behind it.
    /// The run's watermark is `min(effective watermark, later, sync of
    /// every message of the run after its first)` — capping by the run's
    /// *own* later messages as well as later runs, because modules that
    /// handle a run one message at a time must never show an early message
    /// a guarantee that overtakes an undelivered sibling (e.g. its own
    /// still-queued removal, which under Strong would turn a silent
    /// suppression into an emit-then-retract). This matches runs-of-one
    /// delivery exactly for the run's first message and is conservative
    /// for the rest; emissions a larger watermark would have confirmed
    /// mid-run surface at the next `on_advance`, which follows every
    /// delivery.
    ///
    /// The module is handed `msgs` itself — the producer's batch under
    /// Middle, the pending buffer under Strong/Weak; no copy — unless the
    /// guard edits the run: a retraction ahead of its insert is parked, a
    /// parked one is replayed directly after its insert. Only then is the
    /// run materialised.
    fn deliver_run(&mut self, input: usize, msgs: &[Message], later: TimePoint) {
        let mut watermark = TimePoint::min_of(self.effective_watermark(), later);
        let seen = &mut self.seen_inserts[input];
        let orphans = &mut self.orphans[input];
        let mut edited: Option<Vec<Message>> = None;
        for (k, msg) in msgs.iter().enumerate() {
            if k > 0 {
                watermark = TimePoint::min_of(watermark, msg.sync());
            }
            match msg {
                Message::Insert(e) => {
                    seen.insert(e.id, e.interval.end);
                    if let Some(run) = &mut edited {
                        run.push(msg.clone());
                    }
                    // Replay retractions that raced ahead of this insert,
                    // directly after it in the same run.
                    if let Some(mut parked) = orphans.remove(&e.id) {
                        parked.sort_by_key(|r| std::cmp::Reverse(r.new_end));
                        edited
                            .get_or_insert_with(|| msgs[..=k].to_vec())
                            .extend(parked.into_iter().map(Message::Retract));
                    }
                }
                Message::Retract(r) => {
                    if seen.contains_key(&r.event.id) {
                        if let Some(run) = &mut edited {
                            run.push(msg.clone());
                        }
                    } else {
                        edited.get_or_insert_with(|| msgs[..k].to_vec());
                        orphans.entry(r.event.id).or_default().push(r.clone());
                    }
                }
                Message::Cti(_) => unreachable!("CTIs are handled by the monitor"),
            }
        }
        self.stats.released += msgs.len() as u64;
        let run = edited.as_deref().unwrap_or(msgs);
        if run.is_empty() {
            return;
        }
        self.stats.batches += 1;
        self.stats.delivered += run.len() as u64;
        self.stats.batch_peak = self.stats.batch_peak.max(run.len() as u64);
        let mut ctx = OpContext {
            spec: self.spec,
            watermark,
            max_seen: self.max_seen,
            effort: OpEffort::default(),
            out: &mut self.out,
        };
        self.module.on_batch(input, run, &mut ctx);
        let effort = ctx.effort;
        self.absorb_effort(effort);
    }

    /// Guard bookkeeping dies with the watermark: an insert whose lifetime
    /// has ended cannot be retracted any more, and an orphan whose
    /// retraction sync is covered will never see its insert. Runs after
    /// every delivery (one segment, or one flush of the pending buffer).
    fn prune_guard(&mut self) {
        let watermark = self.effective_watermark();
        if watermark > TimePoint::ZERO {
            for input in 0..self.seen_inserts.len() {
                self.seen_inserts[input].retain(|_, ve| *ve > watermark);
                self.orphans[input].retain(|_, rs| rs.iter().any(|r| r.sync() >= watermark));
            }
        }
    }

    fn advance_module(&mut self) {
        let mut ctx = OpContext {
            spec: self.spec,
            watermark: self.effective_watermark(),
            max_seen: self.max_seen,
            effort: OpEffort::default(),
            out: &mut self.out,
        };
        self.module.on_advance(&mut ctx);
        let effort = ctx.effort;
        self.absorb_effort(effort);
    }

    fn absorb_effort(&mut self, effort: OpEffort) {
        self.stats.group_refreshes += effort.group_refreshes;
        self.stats.probe_batches += effort.probe_batches;
    }

    fn emit_cti(&mut self) {
        if self.watermark == TimePoint::ZERO {
            return;
        }
        let out_cti = self.module.map_cti(self.watermark);
        if out_cti > TimePoint::ZERO && self.last_cti.is_none_or(|c| out_cti > c) {
            self.out.cti(out_cti);
            self.last_cti = Some(out_cti);
        }
    }

    fn finish(&mut self) -> Vec<Message> {
        let orphan_count: usize = self.orphans.iter().map(|m| m.len()).sum();
        self.stats.state_peak = self
            .stats
            .state_peak
            .max((self.module.state_size() + self.align.len() + orphan_count) as u64);
        let mut msgs = self.out.drain();
        for m in &mut msgs {
            match m {
                Message::Insert(e) => {
                    self.stats.out_inserts += 1;
                    let gen = self.out_generations.get(&e.id).copied().unwrap_or(0);
                    if gen != 0 {
                        // Freshly-emitted events are unshared, so this
                        // `make_mut` never copies on the hot path.
                        let id = generation_id(e.id, gen);
                        Arc::make_mut(e).id = id;
                    }
                }
                Message::Retract(r) => {
                    self.stats.out_retractions += 1;
                    let orig = r.event.id;
                    let gen = self.out_generations.get(&orig).copied().unwrap_or(0);
                    if gen != 0 {
                        let id = generation_id(orig, gen);
                        Arc::make_mut(&mut r.event).id = id;
                    }
                    if r.is_full_removal() {
                        // This chain is dead; a future re-insert of the same
                        // module-internal ID starts a fresh chain.
                        *self.out_generations.entry(orig).or_insert(0) += 1;
                    }
                }
                Message::Cti(_) => self.stats.out_ctis += 1,
            }
        }
        msgs
    }

    /// Direct access to the wrapped module (tests, introspection).
    pub fn module(&self) -> &dyn OperatorModule {
        &*self.module
    }

    /// Serialize the shell's consistency-monitor state plus the wrapped
    /// module's state (length-prefixed so restore can bound the module's
    /// reads). Requires quiescence: admitted-but-undelivered messages and
    /// undrained output would not survive the plan rebuild a restore does,
    /// so their presence is an error rather than silent loss.
    pub fn state_snapshot(&self, out: &mut Vec<u8>) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        if !self.pending.is_empty() {
            return Err(cedr_durable::CodecError::new(format!(
                "operator `{}` has undelivered pending messages (not at a quiescent boundary)",
                self.name()
            )));
        }
        if !self.out.is_empty() {
            return Err(cedr_durable::CodecError::new(format!(
                "operator `{}` has undrained output (not at a quiescent boundary)",
                self.name()
            )));
        }
        self.input_watermarks.encode(out);
        self.watermark.encode(out);
        self.max_seen.encode(out);
        // Alignment buffer in (sync, seq) order: the heap's storage order
        // depends on its push history and must not reach the image.
        let mut held: Vec<&Held> = self.align.iter().map(|Reverse(h)| h).collect();
        held.sort_unstable();
        (held.len() as u64).encode(out);
        for h in held {
            h.sync.encode(out);
            h.seq.encode(out);
            h.input.encode(out);
            h.msg.encode(out);
            h.arrived.encode(out);
        }
        self.seq.encode(out);
        for per_input in &self.seen_inserts {
            let mut entries: Vec<(cedr_temporal::EventId, TimePoint)> =
                per_input.iter().map(|(&id, &ve)| (id, ve)).collect();
            entries.sort_unstable_by_key(|&(id, _)| id);
            entries.encode(out);
        }
        for per_input in &self.orphans {
            let mut keys: Vec<cedr_temporal::EventId> = per_input.keys().copied().collect();
            keys.sort_unstable();
            (keys.len() as u64).encode(out);
            for id in keys {
                id.encode(out);
                // Park order within a key is replay order: preserved as-is.
                per_input[&id].encode(out);
            }
        }
        self.stats.encode(out);
        self.last_cti.encode(out);
        let mut gens: Vec<(cedr_temporal::EventId, u64)> = self
            .out_generations
            .iter()
            .map(|(&id, &g)| (id, g))
            .collect();
        gens.sort_unstable_by_key(|&(id, _)| id);
        gens.encode(out);
        let mut module_blob = Vec::new();
        self.module.state_snapshot(&mut module_blob);
        (module_blob.len() as u64).encode(out);
        out.extend_from_slice(&module_blob);
        Ok(())
    }

    /// Restore state written by [`OperatorShell::state_snapshot`] into a
    /// freshly constructed shell wrapping the same plan.
    pub fn state_restore(
        &mut self,
        r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        let input_watermarks = Vec::<TimePoint>::decode(r)?;
        if input_watermarks.len() != self.arity() {
            return Err(cedr_durable::CodecError::new(format!(
                "operator `{}` arity mismatch: image has {} inputs, plan has {}",
                self.name(),
                input_watermarks.len(),
                self.arity()
            )));
        }
        self.input_watermarks = input_watermarks;
        self.watermark = TimePoint::decode(r)?;
        self.max_seen = TimePoint::decode(r)?;
        self.align.clear();
        for _ in 0..u64::decode(r)? {
            self.align.push(Reverse(Held {
                sync: TimePoint::decode(r)?,
                seq: u64::decode(r)?,
                input: usize::decode(r)?,
                msg: Message::decode(r)?,
                arrived: u64::decode(r)?,
            }));
        }
        self.seq = u64::decode(r)?;
        for per_input in &mut self.seen_inserts {
            *per_input = Vec::<(cedr_temporal::EventId, TimePoint)>::decode(r)?
                .into_iter()
                .collect();
        }
        for per_input in &mut self.orphans {
            per_input.clear();
            for _ in 0..u64::decode(r)? {
                let id = cedr_temporal::EventId::decode(r)?;
                per_input.insert(id, Vec::<Retraction>::decode(r)?);
            }
        }
        self.stats = OpStats::decode(r)?;
        self.last_cti = Option::<TimePoint>::decode(r)?;
        self.out_generations = Vec::<(cedr_temporal::EventId, u64)>::decode(r)?
            .into_iter()
            .collect();
        let mut module_reader = r.sub_reader()?;
        self.module.state_restore(&mut module_reader)?;
        module_reader.expect_exhausted().map_err(|e| {
            cedr_durable::CodecError::new(format!(
                "operator `{}` module state: {}",
                self.name(),
                e.detail
            ))
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::{dur, t};
    use cedr_temporal::{EventId, Payload};

    /// Echoes inserts/retracts; records delivery order of Vs values.
    struct Echo {
        delivered: Vec<TimePoint>,
    }

    impl OperatorModule for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn on_batch(&mut self, _input: usize, msgs: &[Message], ctx: &mut OpContext) {
            for m in msgs {
                match m {
                    Message::Insert(e) => {
                        self.delivered.push(e.vs());
                        ctx.out.insert(e.clone());
                    }
                    Message::Retract(r) => ctx.out.retract_to(r.event.clone(), r.new_end),
                    Message::Cti(_) => unreachable!("CTIs are consumed by the monitor"),
                }
            }
        }
    }

    fn echo_shell(spec: ConsistencySpec) -> OperatorShell {
        OperatorShell::new(
            Box::new(Echo {
                delivered: Vec::new(),
            }),
            spec,
        )
    }

    fn ins(id: u64, vs: u64) -> Message {
        Message::insert_event(Event::primitive(
            EventId(id),
            iv(vs, vs + 10),
            Payload::empty(),
        ))
    }

    #[test]
    fn strong_blocks_until_guarantee_and_restores_sync_order() {
        let mut s = echo_shell(ConsistencySpec::strong());
        // Out-of-order arrivals: 5 then 2.
        let out1 = s.push(0, ins(1, 5), 0);
        assert!(out1.is_empty(), "held in alignment buffer");
        let out2 = s.push(0, ins(2, 2), 1);
        assert!(out2.is_empty());
        // CTI(6) covers both: released in sync order, CTI forwarded.
        let out3 = s.push(0, Message::Cti(t(6)), 2);
        let syncs: Vec<TimePoint> = out3
            .iter()
            .filter_map(|m| m.as_insert().map(|e| e.vs()))
            .collect();
        assert_eq!(syncs, vec![t(2), t(5)]);
        assert_eq!(out3.last().unwrap().as_cti(), Some(t(6)));
        assert!(s.stats().blocked_ticks > 0);
        assert_eq!(s.stats().held_peak, 2);
    }

    #[test]
    fn middle_never_blocks() {
        let mut s = echo_shell(ConsistencySpec::middle());
        let out1 = s.push(0, ins(1, 5), 0);
        assert_eq!(out1.len(), 1, "delivered immediately");
        let out2 = s.push(0, ins(2, 2), 1);
        assert_eq!(out2.len(), 1, "late event also delivered immediately");
        assert_eq!(s.stats().blocked_ticks, 0);
        assert_eq!(s.stats().held_peak, 0);
    }

    #[test]
    fn weak_forgets_below_the_horizon() {
        let mut s = echo_shell(ConsistencySpec::weak(dur(10)));
        s.push(0, ins(1, 100), 0); // max_seen = 100, horizon = 90
        let out = s.push(0, ins(2, 50), 1);
        assert!(out.is_empty(), "below horizon: dropped");
        assert_eq!(s.stats().forgotten, 1);
        let out2 = s.push(0, ins(3, 95), 2);
        assert_eq!(out2.len(), 1, "inside horizon: processed");
    }

    #[test]
    fn finite_blocking_releases_on_deadline() {
        // B = 5: the event at 10 must be released once the stream reaches 15,
        // even without a CTI.
        let spec = ConsistencySpec::custom(dur(5), Duration::INFINITE);
        let mut s = echo_shell(spec);
        assert!(s.push(0, ins(1, 10), 0).is_empty(), "buffered");
        assert!(s.push(0, ins(2, 12), 1).is_empty(), "still within B");
        let out = s.push(0, ins(3, 15), 2);
        // 15 - 10 >= 5 releases the first event; 15-12=3 < 5 keeps the second.
        let released: Vec<TimePoint> = out
            .iter()
            .filter_map(|m| m.as_insert().map(|e| e.vs()))
            .collect();
        assert_eq!(released, vec![t(10)]);

        // Across two inputs: the arrival at 16 times out exactly the syncs
        // ≤ 11 — the prefix of (sync, arrival) order, ties in arrival
        // order — and the release is cut into same-input runs.
        let (mut s, runs) = probe_shell(spec);
        s.push(0, ins(1, 10), 0);
        s.push(1, ins(2, 11), 1);
        s.push(0, ins(3, 12), 2);
        s.push(1, ins(4, 10), 3);
        assert!(runs.lock().unwrap().is_empty(), "all within B");
        s.push(0, ins(5, 16), 4);
        let seen = |runs: &Runs| -> Vec<(usize, Vec<(u64, TimePoint)>)> {
            let runs = runs.lock().unwrap();
            runs.iter().map(|r| (r.input, r.msgs.clone())).collect()
        };
        assert_eq!(
            seen(&runs),
            vec![(0, vec![(1, t(10))]), (1, vec![(4, t(10)), (2, t(11))])]
        );
        // One tick further releases the sync-12 entry and nothing else.
        s.push(1, ins(6, 17), 5);
        assert_eq!(seen(&runs).len(), 3);
        assert_eq!(seen(&runs)[2], (0, vec![(3, t(12))]));
        assert_eq!(s.stats().held_peak, 5, "the sync-16 arrival is held first");
    }

    #[test]
    fn strong_releases_equal_syncs_across_inputs_in_arrival_order() {
        let (mut s, runs) = probe_shell(ConsistencySpec::strong());
        s.push(1, ins(1, 5), 0);
        s.push(0, ins(2, 5), 1);
        s.push(0, ins(3, 5), 2);
        s.push(1, ins(4, 5), 3);
        s.push(1, ins(5, 4), 4);
        s.push(0, Message::Cti(t(10)), 5);
        assert!(
            runs.lock().unwrap().is_empty(),
            "input 1 guarantees nothing"
        );
        s.push(1, Message::Cti(t(10)), 6);
        let seen: Vec<(usize, Vec<u64>)> = runs
            .lock()
            .unwrap()
            .iter()
            .map(|r| (r.input, r.msgs.iter().map(|&(id, _)| id).collect()))
            .collect();
        assert_eq!(
            seen,
            vec![(1, vec![5, 1]), (0, vec![2, 3]), (1, vec![4])],
            "sync 4 first, then the sync-5 ties as they arrived"
        );
    }

    #[test]
    fn a_shell_holding_messages_restores_and_resnapshots_to_identical_bytes() {
        use cedr_durable::Persist;
        for spec in [
            ConsistencySpec::strong(),
            ConsistencySpec::custom(dur(100), Duration::INFINITE),
        ] {
            let (mut live, live_runs) = probe_shell(spec);
            // Syncs out of order, so the heap's storage order is not the
            // (sync, seq) order an image must be written in.
            for (k, sync) in [9, 3, 7, 1, 8, 2, 5, 3].into_iter().enumerate() {
                live.push(k % 2, ins(k as u64 + 1, sync), k as u64);
            }
            live.push(0, Message::Cti(t(2)), 8);
            live.push(1, Message::Cti(t(2)), 9);
            assert_eq!(live_runs.lock().unwrap().len(), 1, "only sync 1 released");
            let mut image = Vec::new();
            live.state_snapshot(&mut image).unwrap();
            // The held entries are written in (sync, seq) order.
            let mut reader = cedr_durable::Reader::new(&image);
            Vec::<TimePoint>::decode(&mut reader).unwrap();
            TimePoint::decode(&mut reader).unwrap();
            TimePoint::decode(&mut reader).unwrap();
            let held: Vec<(TimePoint, u64)> = (0..u64::decode(&mut reader).unwrap())
                .map(|_| {
                    let key = (
                        TimePoint::decode(&mut reader).unwrap(),
                        u64::decode(&mut reader).unwrap(),
                    );
                    usize::decode(&mut reader).unwrap();
                    Message::decode(&mut reader).unwrap();
                    u64::decode(&mut reader).unwrap();
                    key
                })
                .collect();
            let syncs: Vec<u64> = held.iter().map(|&(sync, _)| sync.0).collect();
            assert_eq!(syncs, [2, 3, 3, 5, 7, 8, 9], "{spec:?}");
            assert!(held.is_sorted(), "{spec:?}: {held:?}");

            let (mut restored, restored_runs) = probe_shell(spec);
            let mut reader = cedr_durable::Reader::new(&image);
            restored.state_restore(&mut reader).unwrap();
            reader.expect_exhausted().unwrap();
            let mut again = Vec::new();
            restored.state_snapshot(&mut again).unwrap();
            assert_eq!(again, image, "{spec:?}: restore → snapshot is the identity");

            // And the restored shell releases what the live one does.
            live_runs.lock().unwrap().clear();
            for shell in [&mut live, &mut restored] {
                shell.push(0, Message::Cti(t(8)), 10);
                shell.push(1, Message::Cti(t(8)), 11);
            }
            // Runs as the module saw them, wherever the slices lived.
            let strip = |runs: &Runs| -> Vec<Run> {
                let runs = runs.lock().unwrap();
                runs.iter().map(|r| Run { at: 0, ..r.clone() }).collect()
            };
            assert_eq!(strip(&restored_runs), strip(&live_runs), "{spec:?}");
            assert_eq!(restored.stats(), live.stats(), "{spec:?}");
        }
    }

    #[test]
    fn binary_watermark_is_min_of_inputs() {
        struct Two;
        impl OperatorModule for Two {
            fn name(&self) -> &'static str {
                "two"
            }
            fn arity(&self) -> usize {
                2
            }
            fn on_batch(&mut self, _i: usize, _msgs: &[Message], _ctx: &mut OpContext) {}
        }
        let mut s = OperatorShell::new(Box::new(Two), ConsistencySpec::strong());
        s.push(0, Message::Cti(t(10)), 0);
        assert_eq!(s.watermark(), TimePoint::ZERO, "other input still at 0");
        let out = s.push(1, Message::Cti(t(4)), 1);
        assert_eq!(s.watermark(), t(4));
        assert_eq!(out.last().and_then(|m| m.as_cti()), Some(t(4)));
    }

    #[test]
    fn output_cti_is_monotone_and_deduplicated() {
        let mut s = echo_shell(ConsistencySpec::middle());
        let o1 = s.push(0, Message::Cti(t(5)), 0);
        assert_eq!(o1.len(), 1);
        let o2 = s.push(0, Message::Cti(t(5)), 1);
        assert!(o2.is_empty(), "same CTI not re-emitted");
        let o3 = s.push(0, Message::Cti(t(3)), 2);
        assert!(o3.is_empty(), "regressing CTI ignored");
        let o4 = s.push(0, Message::Cti(t(9)), 3);
        assert_eq!(o4.last().and_then(|m| m.as_cti()), Some(t(9)));
    }

    #[test]
    fn push_batch_groups_runs_and_counts_them() {
        let mut s = echo_shell(ConsistencySpec::middle());
        let batch = vec![ins(1, 1), ins(2, 2), Message::Cti(t(5)), ins(3, 6)];
        let out = s.push_batch(0, &batch, 0);
        assert_eq!(out.iter().filter(|m| m.is_data()).count(), 3);
        assert_eq!(s.stats().released, 3);
        assert_eq!(s.stats().batches, 2, "delivery run split at the CTI");
        assert_eq!(s.stats().batch_peak, 2);
        // The CTI is forwarded at its position in the stream: after the
        // data admitted under the old guarantee, before the sync-6 insert.
        assert_eq!(out[2].as_cti(), Some(t(5)));
        assert!(out[3].as_insert().is_some());
    }

    #[test]
    fn push_batch_restores_sync_order_under_strong() {
        let mut s = echo_shell(ConsistencySpec::strong());
        let out = s.push_batch(0, &[ins(1, 5), ins(2, 2), Message::Cti(t(6))], 0);
        let syncs: Vec<TimePoint> = out
            .iter()
            .filter_map(|m| m.as_insert().map(|e| e.vs()))
            .collect();
        assert_eq!(syncs, vec![t(2), t(5)], "alignment still applies in-batch");
        assert_eq!(out.last().unwrap().as_cti(), Some(t(6)));
    }

    /// One `on_batch` call as the module saw it: the port, each message as
    /// `(id, sync)` (an insert's sync is its `Vs`, a retraction's its new
    /// end), the run's watermark and the address the slice lives at.
    #[derive(Clone, Debug, PartialEq)]
    struct Run {
        input: usize,
        msgs: Vec<(u64, TimePoint)>,
        watermark: TimePoint,
        at: usize,
    }

    type Runs = Arc<std::sync::Mutex<Vec<Run>>>;

    /// Two-port module that records every delivery run and emits nothing.
    struct Probe(Runs);

    impl OperatorModule for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn arity(&self) -> usize {
            2
        }
        fn on_batch(&mut self, input: usize, msgs: &[Message], ctx: &mut OpContext) {
            let id = |m: &Message| match m {
                Message::Insert(e) => e.id.0,
                Message::Retract(r) => r.event.id.0,
                Message::Cti(_) => unreachable!("CTIs are consumed by the monitor"),
            };
            self.0.lock().unwrap().push(Run {
                input,
                msgs: msgs.iter().map(|m| (id(m), m.sync())).collect(),
                watermark: ctx.watermark,
                at: msgs.as_ptr() as usize,
            });
        }
    }

    fn probe_shell(spec: ConsistencySpec) -> (OperatorShell, Runs) {
        let runs = Runs::default();
        let shell = OperatorShell::new(Box::new(Probe(runs.clone())), spec);
        (shell, runs)
    }

    fn ret(id: u64, vs: u64, new_end: u64) -> Message {
        Message::retract_event(
            Event::primitive(EventId(id), iv(vs, vs + 10), Payload::empty()),
            t(new_end),
        )
    }

    /// Feed `calls` — `(tick, batch)` pairs on port 0 — once batch by batch
    /// and once message by message on the same ticks; both shells must
    /// show the module the same messages in the same order. Returns the
    /// batched shell's stats and runs, and the per-message shell's stats.
    fn batched_and_per_message(
        spec: ConsistencySpec,
        calls: &[(u64, &[Message])],
    ) -> (OpStats, Vec<Run>, OpStats) {
        let (mut batched, runs) = probe_shell(spec);
        let (mut single, single_runs) = probe_shell(spec);
        // Port 1 is sealed, so port 0 alone sets the guarantee.
        batched.push(1, Message::Cti(TimePoint::INFINITY), 0);
        single.push(1, Message::Cti(TimePoint::INFINITY), 0);
        for &(now, batch) in calls {
            batched.push_batch(0, batch, now);
            for m in batch {
                single.push(0, m.clone(), now);
            }
        }
        let flat = |runs: &Runs| -> Vec<(u64, TimePoint)> {
            let runs = runs.lock().unwrap();
            runs.iter().flat_map(|r| r.msgs.clone()).collect()
        };
        assert_eq!(flat(&runs), flat(&single_runs), "delivery order");
        let runs = runs.lock().unwrap().clone();
        (batched.stats().clone(), runs, single.stats().clone())
    }

    #[test]
    fn run_watermark_never_overtakes_undelivered_messages() {
        let (mut s, runs) = probe_shell(ConsistencySpec::strong());
        // Two aligned inserts on different ports; the guarantee then jumps
        // past both at once.
        s.push(0, ins(1, 5), 0);
        s.push(1, ins(2, 6), 1);
        s.push(0, Message::Cti(t(10)), 2);
        s.push(1, Message::Cti(t(10)), 3);
        let seen: Vec<(usize, TimePoint)> = runs
            .lock()
            .unwrap()
            .iter()
            .map(|r| (r.input, r.watermark))
            .collect();
        assert_eq!(
            seen,
            vec![(0, t(6)), (1, t(10))],
            "the first run's watermark must be capped by the undelivered \
             sync-6 message behind it"
        );
    }

    #[test]
    fn a_retraction_ahead_of_its_insert_is_replayed_inside_the_segment() {
        // Under CTI(50): the removal of event 1 arrives before event 1.
        let batch = [ret(1, 60, 64), ins(1, 60), ins(2, 70)];
        let (stats, runs, single) = batched_and_per_message(
            ConsistencySpec::middle(),
            &[(0, &[Message::Cti(t(50))]), (1, &batch)],
        );
        assert_eq!(runs.len(), 1, "one segment, one run");
        assert_eq!(
            runs[0].msgs,
            vec![(1, t(60)), (1, t(64)), (2, t(70))],
            "the parked retraction follows its insert"
        );
        assert_eq!(runs[0].watermark, t(50));
        assert_ne!(
            runs[0].at,
            batch.as_ptr() as usize,
            "an edited run is a copy"
        );
        assert_eq!((stats.batches, stats.batch_peak), (1, 3));
        assert_eq!((stats.released, stats.delivered), (3, 3));
        assert_eq!((single.released, single.delivered), (3, 3));
        assert_eq!(
            single.batches, 2,
            "per message: [ins 1, ret 1], then [ins 2]"
        );
    }

    #[test]
    fn a_parked_retraction_still_caps_the_run_watermark() {
        // Late data under CTI(50): the insert at 60 is followed by an
        // orphan retraction whose sync is 30. It is parked, not delivered,
        // and the run's guarantee must still not overtake it.
        let batch = [ins(1, 60), ret(9, 25, 30)];
        let (_, runs, _) = batched_and_per_message(
            ConsistencySpec::middle(),
            &[(0, &[Message::Cti(t(50))]), (1, &batch)],
        );
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].msgs, vec![(1, t(60))]);
        assert_eq!(runs[0].watermark, t(30));
    }

    #[test]
    fn orphans_parked_by_an_earlier_batch_replay_mid_segment_latest_end_first() {
        let early = [ret(2, 20, 23), ret(2, 20, 27)];
        let batch = [ins(1, 10), ins(2, 20), ins(3, 30)];
        let (stats, runs, single) =
            batched_and_per_message(ConsistencySpec::middle(), &[(0, &early), (1, &batch)]);
        assert_eq!(runs.len(), 1, "the all-parked batch reached no module");
        assert_eq!(
            runs[0].msgs,
            vec![(1, t(10)), (2, t(20)), (2, t(27)), (2, t(23)), (3, t(30))],
            "directly after the insert, in descending new end"
        );
        assert_eq!((stats.released, stats.delivered, stats.batches), (5, 5, 1));
        assert_eq!((single.released, single.delivered), (5, 5));
    }

    #[test]
    fn a_cti_mid_batch_splits_two_segments_and_clean_segments_are_not_copied() {
        let batch = [
            ins(1, 1),
            ins(2, 2),
            ret(1, 1, 6),
            Message::Cti(t(5)),
            ins(3, 6),
            ins(4, 4),
        ];
        let (stats, runs, _) = batched_and_per_message(ConsistencySpec::middle(), &[(0, &batch)]);
        assert_eq!(
            runs.len(),
            2,
            "delivery runs are the CTI-delimited segments"
        );
        assert_eq!(runs[0].msgs, vec![(1, t(1)), (2, t(2)), (1, t(6))]);
        assert_eq!(runs[1].msgs, vec![(3, t(6)), (4, t(4))]);
        // The guard neither parked nor replayed: the module was handed the
        // caller's own memory, twice.
        assert_eq!(runs[0].at, batch[..3].as_ptr() as usize);
        assert_eq!(runs[1].at, batch[4..].as_ptr() as usize);
        // Before the CTI nothing is guaranteed; after it the late sync-4
        // insert behind the segment's first message caps the guarantee.
        assert_eq!(runs[0].watermark, TimePoint::ZERO);
        assert_eq!(runs[1].watermark, t(4));
        assert_eq!((stats.batches, stats.batch_peak, stats.out_ctis), (2, 3, 1));
    }

    #[test]
    fn strong_still_aligns_and_weak_still_forgets_per_message() {
        // The same shapes as above, through the alignment buffer: held at
        // tick 0, released in sync order by the guarantee at tick 3.
        let batch = [ret(1, 60, 64), ins(1, 60), ins(2, 55), ins(3, 70)];
        let (stats, runs, single) = batched_and_per_message(
            ConsistencySpec::strong(),
            &[(0, &batch), (3, &[Message::Cti(t(100))])],
        );
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].msgs,
            vec![(2, t(55)), (1, t(60)), (1, t(64)), (3, t(70))]
        );
        assert_eq!(runs[0].watermark, t(60), "capped by the run's own tail");
        for s in [&stats, &single] {
            assert_eq!(
                (s.held_peak, s.blocked_messages, s.blocked_ticks),
                (4, 4, 12)
            );
            assert_eq!((s.released, s.delivered, s.forgotten), (4, 4, 0));
        }

        // Weak with M = 10: the sync-50 insert and the sync-64 retraction
        // fall below the horizon the sync-100 insert opened.
        let batch = [ins(1, 100), ins(2, 50), ret(3, 60, 64), ins(4, 95)];
        let (stats, runs, single) =
            batched_and_per_message(ConsistencySpec::weak(dur(10)), &[(0, &batch)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].msgs, vec![(1, t(100)), (4, t(95))]);
        assert_ne!(
            runs[0].at,
            batch.as_ptr() as usize,
            "forgetful specs deliver from the pending buffer"
        );
        for s in [&stats, &single] {
            assert_eq!((s.arrivals, s.forgotten, s.released), (4, 2, 2));
            assert_eq!(s.blocked_ticks, 0);
        }
    }

    #[test]
    fn stats_track_released_and_outputs() {
        let mut s = echo_shell(ConsistencySpec::middle());
        s.push(0, ins(1, 1), 0);
        s.push(0, ins(2, 2), 1);
        s.push(0, Message::Cti(t(10)), 2);
        assert_eq!(s.stats().arrivals, 2);
        assert_eq!(s.stats().released, 2);
        assert_eq!(s.stats().out_inserts, 2);
        assert_eq!(s.stats().out_ctis, 1);
    }
}
