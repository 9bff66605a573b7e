//! Concurrent ingestion: `Send + Clone` channel sources feeding a
//! pump-driven engine.
//!
//! A [`SourceHandle`](crate::SourceHandle) borrows the engine, which pins
//! every provider to the drain thread. This module is the escape:
//! [`Engine::channel_source`](crate::Engine::channel_source) returns a
//! [`ChannelSource`] — the same [`Source`] staging front end on a
//! [`ChannelTarget`], a **`Send + Clone` handle with no engine borrow**
//! that carries its pre-resolved `(query, port)` routing (the
//! `Arc`-shared copy-on-write subscriber slice of the routing table) and
//! feeds a **bounded mpsc ingress**. Provider threads flush whole batches
//! across the thread boundary (events stay `Arc`-shared — a hand-off is
//! refcount bumps, never payload copies), while the engine thread
//! interleaves channel drains with quiescence passes via
//! [`Engine::pump`](crate::Engine::pump) /
//! [`Engine::run_pipelined`](crate::Engine::run_pipelined).
//!
//! # Which handle do I want?
//!
//! Both handles are one type, [`Source`]: builders, accessors, auto-flush
//! (at [`DEFAULT_AUTOFLUSH`](crate::DEFAULT_AUTOFLUSH) = 512), `flush` /
//! `try_flush`, `into_inner` and the panic-safe drop-flush are shared.
//! The target decides the rest:
//!
//! | | [`SourceHandle`](crate::SourceHandle) = `Source<EngineTarget>` | [`ChannelSource`] = `Source<ChannelTarget>` |
//! |---|---|---|
//! | obtained from | [`Engine::source`](crate::Engine::source) | [`Engine::channel_source`](crate::Engine::channel_source) |
//! | engine borrow | exclusive, for the session's lifetime | **none** — `Send + Clone`, free-threaded |
//! | threads | provider == drain thread | providers on any threads, engine pumps |
//! | routing | resolved once, cannot go stale (borrow) | resolved once, snapshot at open/clone time |
//! | minted IDs | the engine's counter | the producer's slice, `key << 44 \| n` |
//! | flush target | the engine's bounded ingress queue ([`EngineConfig::ingress_capacity`](crate::EngineConfig::ingress_capacity)) | bounded mpsc channel ([`EngineConfig::channel_depth`](crate::EngineConfig::channel_depth)) |
//! | backpressure | `flush` drains the engine; `try_flush` → [`EngineError::IngressFull`] (drain with `run_to_quiescence`) | `flush` blocks on the channel; `try_flush` → [`EngineError::IngressFull`] (drain with `pump`) |
//! | per-message latency | [`send`](crate::SourceHandle::send) runs a one-message ingress round before it returns | none — batches run at the next pump round |
//! | drains the engine | yes (flush under pressure, `sync`, `send`) | never — the pump does |
//! | end of stream | drop the handle | drop (the last clone disconnects) or [`ChannelSource::seal`] |
//!
//! Rule of thumb: one borrowed handle per burst on the engine thread;
//! one channel source per provider *thread*. Clones of a channel source
//! share its origin (see [`ChannelSource::clone`]).
//!
//! # Order-insensitivity, end to end
//!
//! Every flush is stamped with its origin `(producer key, emission seq)`
//! and the pump releases admitted batches through a [`Resequencer`] in
//! canonical `(round, producer key)` order, one quiescence pass per
//! round.
//! Engine-side execution is therefore a pure function of the *logical*
//! per-producer streams: however the provider threads interleave, the
//! admission schedule — and with it every query's output delta log, at
//! every consistency level — is bit-identical to
//! single-threaded ingestion of the same emissions
//! (`tests/concurrent_ingest.rs` pins this across seeds × producer
//! counts × worker counts). That is the paper's order-insensitivity
//! claim, proven at the tape level rather than assumed.
//!
//! The cost is the watermark trade-off every streaming system makes: a
//! round is admitted only when each open producer has delivered its
//! emission for that round or disconnected, so one silent provider
//! stalls admission (buffered skew is reported via
//! [`PumpProgress::buffered_batches`]). Providers that flush at similar
//! cadence — or disconnect promptly — keep the pipeline moving.
//!
//! ```
//! use cedr_core::prelude::*;
//! use std::thread;
//!
//! let mut engine = Engine::new();
//! engine.register_event_type("TICK", vec![("v", FieldType::Int)]);
//! let plan = PlanBuilder::source("TICK").select(Pred::True).into_plan();
//! let q = engine
//!     .register_plan("ticks", plan, ConsistencySpec::middle())
//!     .unwrap();
//! let mut src = engine.channel_source("TICK").unwrap();
//!
//! let producer = thread::spawn(move || {
//!     for i in 0..100u64 {
//!         src.insert(i, vec![Value::Int(i as i64)]).unwrap();
//!     }
//! }); // dropping `src` flushes and disconnects
//!
//! engine.run_pipelined().unwrap(); // pump until every producer is done
//! producer.join().unwrap();
//! engine.seal();
//! assert_eq!(engine.collector(q).stats().inserts, 100);
//! ```

use crate::engine::{Engine, EngineError, SubscriberList};
use crate::session::{Source, Target};
use cedr_obs::{ObsHub, TraceEvent};
use cedr_streams::{MessageBatch, Resequencer};
use cedr_temporal::{EventId, TimePoint};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

/// Bit position splitting the [`EventId`] space: engine-minted IDs count
/// up from 1, channel sources mint `(producer key << 44) | n`. The two
/// ranges meet only after 2^44 engine-minted events.
const CHANNEL_ID_SHIFT: u32 = 44;

/// One flushed emission crossing the provider → engine channel.
#[derive(Clone)]
pub(crate) struct IngressBatch {
    pub(crate) key: u64,
    pub(crate) seq: u64,
    pub(crate) event_type: Arc<str>,
    pub(crate) subs: SubscriberList,
    pub(crate) batch: MessageBatch,
}

/// Lock-free-enough disconnect side-channel: posting never blocks on the
/// bounded data channel, so a producer can always retire — even from a
/// panicking thread with the channel full. Also carries the
/// producer-side backpressure counters (flushes that found the channel
/// full) — a total the engine folds into its [`IngressStats`], plus the
/// per-producer attribution surfaced by
/// [`Engine::metrics`](crate::Engine::metrics).
#[derive(Default)]
pub(crate) struct DisconnectBoard {
    posted: Mutex<Vec<(u64, u64)>>,
    pub(crate) backpressure: AtomicU64,
    by_producer: Mutex<BTreeMap<u64, u64>>,
}

impl DisconnectBoard {
    fn post(&self, key: u64, emitted: u64) {
        self.posted
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((key, emitted));
    }

    pub(crate) fn drain(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.posted.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Count one full-channel event against producer `key` (total + the
    /// per-producer attribution).
    pub(crate) fn note_backpressure(&self, key: u64) {
        self.backpressure.fetch_add(1, Ordering::Relaxed);
        *self
            .by_producer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert(0) += 1;
    }

    /// Per-producer full-channel counts, sorted by key.
    pub(crate) fn backpressure_by_producer(&self) -> Vec<(u64, u64)> {
        self.by_producer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Restore the counters from a checkpoint image.
    pub(crate) fn set_backpressure(&self, total: u64, by_producer: Vec<(u64, u64)>) {
        self.backpressure.store(total, Ordering::Relaxed);
        *self.by_producer.lock().unwrap_or_else(|e| e.into_inner()) =
            by_producer.into_iter().collect();
    }
}

/// The shared identity of one producer (and all clones of its handle).
struct ProducerCore {
    key: u64,
    /// Emission counter; the mutex makes `reserve seq → send` atomic so a
    /// failed `try_send` never burns a seq (a hole would stall the pump
    /// forever).
    emitted: Mutex<u64>,
    /// Event-ID allocator for the typed `insert` builders.
    minted: AtomicU64,
    /// Live handles sharing this producer; the last drop disconnects.
    live: AtomicU64,
    board: Arc<DisconnectBoard>,
}

/// Engine-side state of the channel ingress (created lazily by the first
/// [`Engine::channel_source`](crate::Engine::channel_source) call).
pub(crate) struct ChannelIngress {
    pub(crate) tx: SyncSender<IngressBatch>,
    pub(crate) rx: Receiver<IngressBatch>,
    pub(crate) board: Arc<DisconnectBoard>,
    pub(crate) reseq: Resequencer<IngressBatch>,
    pub(crate) next_key: u64,
    pub(crate) depth: usize,
    /// `(producer key, emission cursor)` of lanes a checkpoint restore
    /// left open, in ascending key order. The next
    /// [`Engine::channel_source`](crate::Engine::channel_source) calls
    /// reattach to these lanes (cursor intact) instead of minting fresh
    /// keys, so a restored topology resumes where the original left off.
    /// Transient: never part of a checkpoint image.
    pub(crate) resume_keys: std::collections::VecDeque<(u64, u64)>,
    /// Stall gauge feeding [`PumpProgress::waiting_on`] /
    /// [`PumpProgress::rounds_stalled`]: the producer the resequencer's
    /// canonical line was last blocked on, and for how many consecutive
    /// pump checks. Transient observability, never persisted.
    pub(crate) stalled_on: Option<u64>,
    pub(crate) stalled_rounds: u64,
}

impl ChannelIngress {
    pub(crate) fn new(depth: usize) -> Self {
        let (tx, rx) = std::sync::mpsc::sync_channel(depth);
        ChannelIngress {
            tx,
            rx,
            board: Arc::new(DisconnectBoard::default()),
            reseq: Resequencer::new(),
            next_key: 1,
            depth,
            resume_keys: std::collections::VecDeque::new(),
            stalled_on: None,
            stalled_rounds: 0,
        }
    }
}

/// Progress of one [`Engine::pump`](crate::Engine::pump) call (or the
/// accumulated total of
/// [`Engine::run_pipelined`](crate::Engine::run_pipelined)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PumpProgress {
    /// Canonical rounds admitted (each ran one quiescence pass).
    pub rounds: u64,
    /// Batches admitted across those rounds.
    pub batches: u64,
    /// Messages inside those batches.
    pub messages: u64,
    /// Producers still open (able to emit) when the call returned.
    pub open_producers: usize,
    /// Batches buffered ahead of their canonical turn (producer skew).
    pub buffered_batches: usize,
    /// When the resequencer's canonical line is blocked — other
    /// producers' emissions are buffered behind a producer that has not
    /// emitted — the key of the awaited producer (`None` when nothing is
    /// blocked; an idle channel with no skew buffered is not a stall).
    /// Pure observability — admission behavior is unchanged.
    pub waiting_on: Option<u64>,
    /// Consecutive pump checks the line has been blocked on
    /// [`PumpProgress::waiting_on`] without admitting a round; resets to
    /// zero whenever the awaited producer emits (or the stall moves to a
    /// different producer, which restarts the count at 1).
    pub rounds_stalled: u64,
}

/// Engine ingress counters, surfaced by
/// [`Engine::ingress_stats`](crate::Engine::ingress_stats): the engine
/// counts straight into the `cedr-obs` snapshot type.
pub use cedr_obs::IngressCounters as IngressStats;

/// The channel target: a sender onto the engine's bounded mpsc ingress
/// plus the producer origin (key, emission counter, ID allocator) shared
/// by every clone.
///
/// Cloning bumps the producer's live-handle count; dropping the last clone
/// posts the disconnect (through a side channel that never blocks, so a
/// crashing provider cannot hang the pump).
pub struct ChannelTarget {
    tx: SyncSender<IngressBatch>,
    core: Arc<ProducerCore>,
    /// Channel capacity in batches (for backpressure error reports).
    depth: usize,
    /// Engine observability hub: channel-block timing + backpressure
    /// traces from the provider side.
    obs: Arc<ObsHub>,
}

impl ChannelTarget {
    /// `emitted` is the starting emission cursor: 0 for a fresh producer,
    /// or the restored lane cursor when reattaching after
    /// [`Engine::restore`](crate::Engine::restore) (the next flush gets
    /// the seq the resequencer lane expects). The event-ID allocator
    /// always starts at 0 — a resumed producer replaying a tape should
    /// stage pre-minted events ([`Source::insert_event`] /
    /// [`Source::stage_batch`]) rather than re-minting.
    pub(crate) fn new(ch: &ChannelIngress, key: u64, emitted: u64, obs: Arc<ObsHub>) -> Self {
        debug_assert!(key < (1 << (64 - CHANNEL_ID_SHIFT)), "key space exhausted");
        ChannelTarget {
            tx: ch.tx.clone(),
            core: Arc::new(ProducerCore {
                key,
                emitted: Mutex::new(emitted),
                minted: AtomicU64::new(0),
                live: AtomicU64::new(1),
                board: Arc::clone(&ch.board),
            }),
            depth: ch.depth,
            obs,
        }
    }
}

impl Target for ChannelTarget {
    fn mint(&mut self) -> EventId {
        let n = self.core.minted.fetch_add(1, Ordering::Relaxed);
        EventId((self.core.key << CHANNEL_ID_SHIFT) | n)
    }

    /// Reserve the next emission seq under the `emitted` lock and send.
    ///
    /// The lock is held only across `try_send` (non-blocking), never
    /// across a blocking send: a rejected `try_send` must not burn a seq
    /// (a hole would stall the resequencer forever), while the blocking
    /// path reserves its seq eagerly and then waits *outside* the lock —
    /// so a sibling clone's `try_flush` stays non-blocking even while
    /// this flush is parked on a full channel. A reserved-but-in-flight
    /// seq is safe: the reserving handle is live until its send
    /// completes, so the disconnect (posted by the *last* handle) can
    /// never announce a seq that will not arrive.
    fn admit(
        &mut self,
        event_type: &Arc<str>,
        subs: &SubscriberList,
        staged: &mut MessageBatch,
        block: bool,
    ) -> Result<(), EngineError> {
        if staged.is_empty() {
            return Ok(());
        }
        let core = &*self.core;
        let mut emitted = core.emitted.lock().unwrap_or_else(|e| e.into_inner());
        let mut item = IngressBatch {
            key: core.key,
            seq: *emitted,
            event_type: event_type.clone(),
            subs: subs.clone(),
            batch: std::mem::take(staged),
        };
        // First attempt is non-blocking under the lock either way — it
        // is also how a blocking flush detects (and counts) backpressure.
        match self.tx.try_send(item) {
            Ok(()) => {
                *emitted += 1;
                return Ok(());
            }
            Err(TrySendError::Disconnected(_)) => return Ok(()), // engine gone: discard
            Err(TrySendError::Full(full)) => {
                core.board.note_backpressure(core.key);
                self.obs
                    .trace(|| TraceEvent::ChannelBackpressure { producer: core.key });
                if !block {
                    let len = full.batch.len();
                    *staged = full.batch;
                    return Err(EngineError::IngressFull {
                        event_type: event_type.to_string(),
                        capacity: self.depth,
                        staged: self.depth,
                        batch: len,
                    });
                }
                item = full;
            }
        }
        // Blocking path: commit the seq, release the lock, then wait,
        // timing how long the full channel parks this producer.
        *emitted += 1;
        drop(emitted);
        let t0 = self.obs.now();
        let _ = self.tx.send(item);
        let blocked = self.obs.now().saturating_sub(t0);
        self.obs.with_timings(|t| t.channel_block.record(blocked));
        Ok(())
    }
}

impl Clone for ChannelTarget {
    fn clone(&self) -> Self {
        self.core.live.fetch_add(1, Ordering::AcqRel);
        ChannelTarget {
            tx: self.tx.clone(),
            core: Arc::clone(&self.core),
            depth: self.depth,
            obs: Arc::clone(&self.obs),
        }
    }
}

impl Drop for ChannelTarget {
    /// Disconnect the producer if this was its last live handle. Runs
    /// after the owning [`Source`]'s drop-flush, so the posted emission
    /// count covers that flush.
    fn drop(&mut self) {
        if self.core.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            let emitted = *self.core.emitted.lock().unwrap_or_else(|e| e.into_inner());
            self.core.board.post(self.core.key, emitted);
        }
    }
}

impl std::fmt::Debug for ChannelTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTarget")
            .field("producer_key", &self.core.key)
            .finish_non_exhaustive()
    }
}

/// A `Send + Clone` ingestion handle on one named input stream, with no
/// engine borrow: a [`Source`] on the [`ChannelTarget`].
///
/// Obtained from [`Engine::channel_source`](crate::Engine::channel_source).
/// The handle owns an `Arc`-shared snapshot of the event type's resolved
/// `(query, port)` routing and a sender onto the engine's bounded mpsc
/// ingress, so it can move to any thread and outlive every engine borrow.
/// It stages through the same typed builders as the borrowed
/// [`SourceHandle`](crate::SourceHandle); flushed batches cross the
/// thread boundary and run when the engine thread pumps
/// ([`Engine::pump`](crate::Engine::pump) /
/// [`Engine::run_pipelined`](crate::Engine::run_pipelined)).
///
/// **Routing snapshot**: queries registered *after* the handle was opened
/// do not see its traffic (the copy-on-write routing table keeps the
/// handle's snapshot alive); open sources after registering queries.
///
/// **Shutdown**: dropping the handle flushes the staged batch and — once
/// the last clone is gone — disconnects the producer, letting
/// [`Engine::run_pipelined`](crate::Engine::run_pipelined) retire its
/// lane and return. [`ChannelSource::seal`] additionally stages `CTI(∞)`
/// first ("this stream is complete"). During a panic unwind the staged
/// batch is abandoned rather than risked against a full channel, but the
/// disconnect is still posted, so a crashing provider cannot hang the
/// pump.
pub type ChannelSource = Source<ChannelTarget>;

impl Source<ChannelTarget> {
    /// The origin key stamped on every emission of this producer (shared
    /// by clones). Keys are assigned in
    /// [`channel_source`](crate::Engine::channel_source) call order.
    pub fn producer_key(&self) -> u64 {
        self.target.core.key
    }

    /// End this stream cleanly: stage `CTI(∞)` ("no more data will ever
    /// arrive here") and drop the handle, which flushes and disconnects.
    /// The pump drains the remaining staged work; subscriptions keep
    /// cursoring afterwards.
    ///
    /// `CTI(∞)` is a promise about the whole *stream*, so seal only the
    /// **last** handle feeding it: a sibling clone — or another
    /// channel source on the same event type — that keeps emitting
    /// afterwards breaks the guarantee operators finalized state on,
    /// exactly as it would through the borrowed-handle surface.
    pub fn seal(mut self) {
        self.cti(TimePoint::INFINITY);
        // Drop flushes and disconnects.
    }
}

impl Clone for Source<ChannelTarget> {
    /// Clones **share the producer origin**: the same key, emission
    /// counter and event-ID allocator (seqs stay gap-free however the
    /// clones interleave, and the producer disconnects only when the last
    /// clone drops). A clone starts with an empty staging batch and the
    /// original's auto-flush bound. Emissions racing through sibling
    /// clones are admitted in whatever order they win the shared counter —
    /// deterministic only if the clones are externally synchronised. For
    /// the full order-insensitivity guarantee give each provider thread
    /// its own [`channel_source`](crate::Engine::channel_source).
    fn clone(&self) -> Self {
        Source {
            target: self.target.clone(),
            event_type: self.event_type.clone(),
            arity: self.arity,
            subs: self.subs.clone(),
            staged: MessageBatch::new(),
            autoflush: self.autoflush,
        }
    }
}

/// Pump half: lives in [`Engine`] but implemented here to keep the whole
/// subsystem in one module.
impl Engine {
    /// Drain whatever the channel ingress holds right now and run every
    /// admitted round: one non-blocking pump step.
    ///
    /// A *round* is the canonical unit of admission — one emission from
    /// every producer whose turn it is, released in `(round, producer
    /// key)` order by the resequencer (see the module docs) and executed
    /// with **one quiescence pass per round** (its drain serial or split
    /// per [`EngineConfig::threads`](crate::EngineConfig::threads)). Because
    /// both the admission order and the pass structure are pure functions
    /// of the logical emissions, pumped execution is bit-identical to
    /// single-threaded ingestion of the same emissions at every
    /// consistency level.
    ///
    /// Returns how much was admitted plus the open-producer and skew
    /// gauges; `Ok` with all-zero counters when no channel source exists
    /// or nothing was ready. Errors with
    /// [`EngineError::Sealed`] after
    /// [`Engine::seal`](crate::Engine::seal) — in-flight channel traffic
    /// is unreachable once every input carries `CTI(∞)` — and with
    /// [`EngineError::ResequencerFull`] when the skew buffer hits
    /// [`EngineConfig::resequencer_capacity`](crate::EngineConfig::resequencer_capacity)
    /// while the canonical line is stalled on a silent producer.
    pub fn pump(&mut self) -> Result<PumpProgress, EngineError> {
        self.pump_inner(false)
    }

    /// Pump until every producer has disconnected and all of their
    /// emissions have run: the engine side of a pipelined topology
    /// (providers on their threads, this call on the engine thread).
    ///
    /// Blocks while producers are open but idle — drop (or
    /// [`seal`](ChannelSource::seal)) every [`ChannelSource`] to let this
    /// return; holding one on the calling thread while `run_pipelined`
    /// waits is the classic self-deadlock, named here so it is a
    /// documentation bug instead of a surprise. Returns the accumulated
    /// [`PumpProgress`]; an engine with no channel sources returns
    /// immediately.
    pub fn run_pipelined(&mut self) -> Result<PumpProgress, EngineError> {
        self.pump_inner(true)
    }

    fn pump_inner(&mut self, until_disconnected: bool) -> Result<PumpProgress, EngineError> {
        use cedr_streams::RoundStatus;
        if self.is_sealed() {
            return Err(EngineError::Sealed);
        }
        let mut progress = PumpProgress::default();
        if self.channel.is_none() {
            return Ok(progress);
        }
        let cap = self.config().resequencer_capacity;
        loop {
            let pass_t0 = self.obs.now();
            // Fold in disconnects (side channel) and everything the data
            // channel holds, in arrival order; the resequencer restores
            // canonical order.
            {
                let ch = self.channel.as_mut().expect("checked above");
                for (key, emitted) in ch.board.drain() {
                    ch.reseq.close(key, emitted);
                }
                // The skew buffer is bounded: stop pulling once it holds
                // `resequencer_capacity` emissions. Providers then block
                // on the (also bounded) channel, so a silent producer
                // stalls the line under a fixed memory ceiling instead of
                // letting the fast producers grow the buffer forever.
                while ch.reseq.buffered() < cap {
                    match ch.rx.try_recv() {
                        Ok(item) => {
                            let (key, seq) = (item.key, item.seq);
                            ch.reseq.accept(key, seq, item);
                        }
                        Err(_) => break,
                    }
                }
            }
            // Admit every ready round, one quiescence pass each.
            let rounds_before = progress.rounds;
            let (batches_before, messages_before) = (progress.batches, progress.messages);
            loop {
                let round = {
                    let ch = self.channel.as_mut().expect("checked above");
                    match ch.reseq.next_round() {
                        RoundStatus::Ready(round) => round,
                        RoundStatus::Pending { .. } | RoundStatus::Idle => break,
                    }
                };
                progress.rounds += 1;
                for (_, item) in round {
                    progress.batches += 1;
                    progress.messages += item.batch.len() as u64;
                    let IngressBatch {
                        event_type,
                        subs,
                        mut batch,
                        ..
                    } = item;
                    // Blocking admission never fails; with the pump
                    // draining every round, the ingress is near empty
                    // anyway.
                    let _ = self.admit_resolved(&event_type, &mut batch, &subs, true);
                }
                self.run_to_quiescence();
            }
            // Cumulative pump totals (semantic counters — survive the
            // channel's teardown at seal and the error returns below) and
            // the pump_step histogram for passes that admitted something.
            self.channel_acct.rounds += progress.rounds - rounds_before;
            self.channel_acct.batches += progress.batches - batches_before;
            self.channel_acct.messages += progress.messages - messages_before;
            if progress.rounds > rounds_before {
                let nanos = self.obs.now().saturating_sub(pass_t0);
                self.obs.with_timings(|t| t.pump_step.record(nanos));
            }
            let (open, buffered, live) = {
                let ch = self.channel.as_ref().expect("checked above");
                (
                    ch.reseq.open_lanes(),
                    ch.reseq.buffered(),
                    ch.reseq.live_lanes(),
                )
            };
            progress.open_producers = open;
            progress.buffered_batches = buffered;
            // Stall observability: when the canonical line is blocked —
            // buffered skew is waiting behind a producer that has not
            // emitted — name that producer and count consecutive blocked
            // checks. `Pending` with nothing buffered is mere idleness,
            // not a stall. Re-polling `next_round` here is safe — the
            // admit loop above already drained every `Ready` round, so
            // the status can only be `Pending` or `Idle`.
            {
                let admitted_this_pass = progress.rounds > rounds_before;
                let ch = self.channel.as_mut().expect("checked above");
                match ch.reseq.next_round() {
                    RoundStatus::Pending { waiting_on } if ch.reseq.buffered() > 0 => {
                        if admitted_this_pass || ch.stalled_on != Some(waiting_on) {
                            ch.stalled_on = Some(waiting_on);
                            ch.stalled_rounds = 1;
                            // Trace once per stall episode, not per check.
                            let buffered = ch.reseq.buffered();
                            self.obs.trace(|| TraceEvent::ResequencerStall {
                                waiting_on,
                                buffered: buffered.min(u32::MAX as usize) as u32,
                            });
                        } else {
                            ch.stalled_rounds += 1;
                        }
                        progress.waiting_on = Some(waiting_on);
                        progress.rounds_stalled = ch.stalled_rounds;
                    }
                    _ => {
                        ch.stalled_on = None;
                        ch.stalled_rounds = 0;
                        progress.waiting_on = None;
                        progress.rounds_stalled = 0;
                    }
                }
            }
            // Every releasable round was admitted above, so a buffer still
            // at capacity means the line is stalled on a producer that has
            // not emitted — surface the bound as a typed error rather than
            // spinning (run_pipelined) or silently buffering on.
            if buffered >= cap {
                let ch = self.channel.as_mut().expect("checked above");
                if let RoundStatus::Pending { waiting_on } = ch.reseq.next_round() {
                    return Err(EngineError::ResequencerFull {
                        capacity: cap,
                        buffered,
                        waiting_on,
                    });
                }
            }
            if !until_disconnected || live == 0 {
                return Ok(progress);
            }
            // Block for more input. Data arrives on the channel; a
            // timeout falls through to re-poll the disconnect board
            // (which bypasses the channel so a retiring producer can
            // never be missed). The engine's own sender keeps the
            // channel alive, so a disconnect error is unreachable.
            let ch = self.channel.as_mut().expect("checked above");
            if let Ok(item) = ch.rx.recv_timeout(std::time::Duration::from_millis(5)) {
                let (key, seq) = (item.key, item.seq);
                ch.reseq.accept(key, seq, item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::engine::EngineConfig;
    use cedr_algebra::expr::Pred;
    use cedr_lang::catalog::FieldType;
    use cedr_runtime::ConsistencySpec;
    use cedr_temporal::Value;

    fn tick_engine(config: EngineConfig) -> (Engine, crate::QueryId) {
        let mut e = Engine::with_config(config);
        e.register_event_type("T", vec![("v", FieldType::Int)]);
        let plan = PlanBuilder::source("T").select(Pred::True).into_plan();
        let q = e
            .register_plan("q", plan, ConsistencySpec::middle())
            .unwrap();
        (e, q)
    }

    #[test]
    fn channel_source_feeds_a_pumping_engine() {
        let (mut e, q) = tick_engine(EngineConfig::serial());
        let mut src = e.channel_source("T").unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..50u64 {
                src.insert(i, vec![Value::Int(i as i64)]).unwrap();
            }
        });
        let progress = e.run_pipelined().unwrap();
        handle.join().unwrap();
        assert_eq!(progress.open_producers, 0);
        assert_eq!(progress.messages, 50);
        assert_eq!(e.collector(q).stats().inserts, 50);
    }

    #[test]
    fn channel_source_validates_schema_and_mints_keyed_ids() {
        let (mut e, _q) = tick_engine(EngineConfig::serial());
        let mut src = e.channel_source("T").unwrap();
        assert!(matches!(
            src.insert(0, vec![]),
            Err(EngineError::PayloadArity { .. })
        ));
        let ev = src.insert(3, vec![Value::Int(1)]).unwrap();
        assert_eq!(ev.id.0 >> CHANNEL_ID_SHIFT, src.producer_key());
        let ev2 = src.insert(4, vec![Value::Int(2)]).unwrap();
        assert_ne!(ev.id, ev2.id);
        drop(src);
        assert!(matches!(
            e.channel_source("NOPE"),
            Err(EngineError::UnknownEventType { .. })
        ));
    }

    #[test]
    fn seal_stages_cti_infinity() {
        let (mut e, q) = tick_engine(EngineConfig::serial());
        let mut src = e.channel_source("T").unwrap();
        src.insert(1, vec![Value::Int(1)]).unwrap();
        src.seal();
        e.run_pipelined().unwrap();
        assert_eq!(
            e.collector(q).max_cti(),
            Some(TimePoint::INFINITY),
            "seal() must carry CTI(∞) through the channel"
        );
    }

    #[test]
    fn sealed_engine_rejects_channel_ingestion_and_pump() {
        let (mut e, _q) = tick_engine(EngineConfig::serial());
        e.seal();
        assert!(matches!(e.channel_source("T"), Err(EngineError::Sealed)));
        assert!(matches!(e.pump(), Err(EngineError::Sealed)));
        assert!(matches!(e.run_pipelined(), Err(EngineError::Sealed)));
    }

    #[test]
    fn pump_without_channel_sources_is_a_cheap_no_op() {
        let (mut e, _q) = tick_engine(EngineConfig::serial());
        assert_eq!(e.pump().unwrap(), PumpProgress::default());
        assert_eq!(e.run_pipelined().unwrap(), PumpProgress::default());
    }

    #[test]
    fn try_flush_surfaces_channel_backpressure() {
        let (mut e, q) = tick_engine(EngineConfig::serial().with_channel_depth(2));
        let mut src = e.channel_source("T").unwrap().manual_flush();
        // Fill the channel: two emissions fit, the third is refused.
        for round in 0..3u64 {
            src.insert(round, vec![Value::Int(round as i64)]).unwrap();
            if round < 2 {
                src.try_flush().unwrap();
            }
        }
        let err = src.try_flush().unwrap_err();
        assert!(matches!(err, EngineError::IngressFull { .. }), "{err}");
        assert!(
            err.to_string().contains("pump"),
            "a full channel names the remedy that drains it: {err}"
        );
        assert_eq!(src.staged_len(), 1, "failed try_flush must not lose data");
        assert!(
            e.ingress_stats().backpressure_events >= 1,
            "channel backpressure must show up in the ingress counters"
        );
        // Pumping makes room; the retry succeeds.
        e.pump().unwrap();
        src.try_flush().unwrap();
        drop(src);
        e.run_pipelined().unwrap();
        assert_eq!(e.collector(q).stats().inserts, 3);
    }

    #[test]
    fn try_flush_stays_nonblocking_while_a_sibling_clone_blocks() {
        // The emission lock must never be held across a blocking send: a
        // clone parked on a full channel cannot turn a sibling's
        // try_flush into a blocking call (before the fix this test hung).
        let (mut e, q) = tick_engine(EngineConfig::serial().with_channel_depth(1));
        let src = e.channel_source("T").unwrap();
        let mut a = src.clone().manual_flush();
        let mut b = src.clone().manual_flush();
        drop(src);
        a.insert(0, vec![Value::Int(0)]).unwrap();
        a.try_flush().unwrap(); // channel now full
        let blocked = std::thread::spawn(move || {
            a.insert(1, vec![Value::Int(1)]).unwrap();
            a.flush(); // parks on the full channel until the pump drains
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.insert(2, vec![Value::Int(2)]).unwrap();
        let err = b.try_flush().unwrap_err(); // immediate, not parked
        assert!(matches!(err, EngineError::IngressFull { .. }), "{err}");
        // Recovering the batch consumes (and thereby disconnects) b
        // without the blocking drop-flush; drain the rest and make sure
        // nothing was lost or duplicated.
        let held = b.into_inner();
        assert_eq!(held.len(), 1);
        e.run_pipelined().unwrap();
        blocked.join().unwrap();
        assert_eq!(e.collector(q).stats().inserts, 2, "seqs 0 and 1 ran");
    }

    #[test]
    fn clones_share_the_origin_and_disconnect_once() {
        let (mut e, q) = tick_engine(EngineConfig::serial());
        let src = e.channel_source("T").unwrap();
        let key = src.producer_key();
        let handles: Vec<_> = (0..3)
            .map(|c| {
                let mut s = src.clone();
                assert_eq!(s.producer_key(), key);
                std::thread::spawn(move || {
                    for i in 0..10u64 {
                        s.insert(c * 100 + i, vec![Value::Int(i as i64)]).unwrap();
                        s.flush();
                    }
                })
            })
            .collect();
        drop(src);
        e.run_pipelined().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.collector(q).stats().inserts, 30);
    }

    #[test]
    fn into_inner_recovers_staged_messages_without_sending() {
        let (mut e, q) = tick_engine(EngineConfig::serial());
        let mut src = e.channel_source("T").unwrap().manual_flush();
        src.insert(1, vec![Value::Int(1)]).unwrap();
        src.insert(2, vec![Value::Int(2)]).unwrap();
        let staged = src.into_inner();
        assert_eq!(staged.len(), 2);
        e.run_pipelined().unwrap();
        assert_eq!(e.collector(q).stats().inserts, 0, "nothing was sent");
    }

    #[test]
    fn seal_unblocks_providers_stuck_on_a_full_channel() {
        // Shutdown liveness: a provider blocked in a blocking flush
        // against a full channel must unblock when the engine seals —
        // seal tears the channel down, turning the pending send (and all
        // later ones) into discards instead of stranding the thread.
        let (mut e, _q) = tick_engine(EngineConfig::serial().with_channel_depth(1));
        let mut src = e.channel_source("T").unwrap().manual_flush();
        // Fill the channel from this thread so the spawned flush blocks.
        src.insert(0, vec![Value::Int(0)]).unwrap();
        src.try_flush().unwrap();
        let handle = std::thread::spawn(move || {
            for i in 1..4u64 {
                src.insert(i, vec![Value::Int(i as i64)]).unwrap();
                src.flush(); // blocks on the depth-1 channel until seal
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        e.seal();
        handle
            .join()
            .expect("provider must not be stranded by seal");
    }

    #[test]
    fn silent_producer_trips_the_resequencer_bound() {
        // The skew buffer is bounded: a producer that opens a lane and
        // never emits stalls the canonical line, and once the fast
        // producers have buffered `resequencer_capacity` emissions the
        // pump must surface the typed error instead of buffering on.
        let (mut e, q) = tick_engine(EngineConfig::serial().with_resequencer_capacity(4));
        let silent = e.channel_source("T").unwrap();
        let mut fast = e.channel_source("T").unwrap();
        for i in 0..8u64 {
            fast.insert(i, vec![Value::Int(i as i64)]).unwrap();
            fast.flush();
        }
        let err = e.pump().unwrap_err();
        match err {
            EngineError::ResequencerFull {
                capacity,
                buffered,
                waiting_on,
            } => {
                assert_eq!(capacity, 4);
                assert_eq!(buffered, 4, "pull stops exactly at the bound");
                assert_eq!(waiting_on, silent.producer_key(), "names the stall");
            }
            other => panic!("expected ResequencerFull, got {other}"),
        }
        assert_eq!(e.collector(q).stats().inserts, 0, "line is stalled");
        // The error is a report, not a consumption: pumping again without
        // unblocking the line reproduces it losslessly.
        assert!(matches!(e.pump(), Err(EngineError::ResequencerFull { .. })));
        // Recovery: retiring the silent producer closes its lane, the
        // buffered rounds release, and the channel backlog drains — every
        // emission survives the stalled episode.
        drop(silent);
        drop(fast);
        e.run_pipelined().unwrap();
        assert_eq!(e.collector(q).stats().inserts, 8);
    }

    #[test]
    fn panicking_producer_still_disconnects() {
        let (mut e, q) = tick_engine(EngineConfig::serial());
        let mut src = e.channel_source("T").unwrap();
        let handle = std::thread::spawn(move || {
            src.insert(1, vec![Value::Int(1)]).unwrap();
            src.flush();
            src.insert(2, vec![Value::Int(2)]).unwrap();
            panic!("provider crashed");
        });
        assert!(handle.join().is_err());
        // The flushed emission ran; the staged one died with the thread;
        // and — the point — run_pipelined returns instead of hanging.
        e.run_pipelined().unwrap();
        assert_eq!(e.collector(q).stats().inserts, 1);
    }
}
