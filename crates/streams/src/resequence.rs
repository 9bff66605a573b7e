//! Deterministic resequencing of concurrently produced batches.
//!
//! Concurrent providers hand their batches to the engine over a channel,
//! and the channel interleaves them in whatever order the threads happen
//! to run. CEDR's order-insensitivity claim (the paper's Section 1
//! promise that speculative output with retractions makes query results
//! independent of arrival order) is proven *end to end* by restoring a
//! canonical order **before** execution: every emission carries an origin
//! stamp `(producer key, emission seq)` and a [`Resequencer`] releases
//! emissions in **canonical round order**:
//!
//! > round of an emission = the producer's *base round* (the round at
//! > which the producer was registered) + its emission seq; rounds are
//! > released in ascending order, ties broken by ascending producer key.
//!
//! This order is a pure function of the logical program (who produced
//! which emission, in which per-producer order), never of thread timing:
//! any interleaving of arrivals yields the same release sequence. The
//! price is a *watermark stall*: a round cannot be released until every
//! producer that owes it an emission has either delivered it or closed
//! ([`Resequencer::close`]), so one silent open producer holds back the
//! line — the classic watermark trade-off of streaming systems, made
//! explicit by [`RoundStatus::Pending`] naming the lane being waited on.
//!
//! The resequencer is payload-generic; `cedr-core` drives it with staged
//! [`MessageBatch`](crate::MessageBatch)es whose events stay `Arc`-shared
//! across the thread hand-off (a batch crossing threads is refcount
//! bumps, never a payload copy — see the `Send` assertions in the tests).

use std::collections::BTreeMap;

/// What [`Resequencer::next_round`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum RoundStatus<T> {
    /// The next canonical round, as `(producer key, emission)` pairs in
    /// ascending key order. A round holds one emission from every
    /// producer whose virtual round had come due.
    Ready(Vec<(u64, T)>),
    /// The next round is owed an emission by `waiting_on` (an open or
    /// draining lane whose emission has not arrived yet). Nothing can be
    /// released until it arrives or the lane closes.
    Pending { waiting_on: u64 },
    /// Every lane is closed and drained; no further emission can exist.
    Idle,
}

/// One producer's lane: its base round and the emissions buffered out of
/// arrival order.
#[derive(Debug)]
struct Lane<T> {
    base: u64,
    /// Next per-producer emission seq to release.
    next_seq: u64,
    /// Emissions that arrived ahead of their turn, keyed by seq.
    buffered: BTreeMap<u64, T>,
    /// Total emissions the producer will ever make, once known (set by
    /// [`Resequencer::close`]). `None` = still open.
    final_seq: Option<u64>,
}

impl<T> Lane<T> {
    /// A closed lane whose every emission has been released is dead.
    fn exhausted(&self) -> bool {
        self.final_seq.is_some_and(|f| self.next_seq >= f)
    }

    /// The virtual round of the lane's next emission.
    fn virtual_round(&self) -> u64 {
        self.base.saturating_add(self.next_seq)
    }
}

/// Restores the canonical `(round, producer key)` order over emissions
/// that arrive in arbitrary thread interleaving (see the module docs).
#[derive(Debug)]
pub struct Resequencer<T> {
    lanes: BTreeMap<u64, Lane<T>>,
    /// Base round assigned to the next registered lane: one past the last
    /// released round, so late-registered producers join the stream at
    /// the current position instead of owing history.
    frontier: u64,
    /// Emissions currently buffered across all lanes.
    buffered: usize,
}

impl<T> Default for Resequencer<T> {
    fn default() -> Self {
        Resequencer {
            lanes: BTreeMap::new(),
            frontier: 0,
            buffered: 0,
        }
    }
}

impl<T> Resequencer<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a lane for `key`. Its emissions join the canonical order at
    /// the current frontier (base round = one past the last released
    /// round). Keys must be unique; re-registering an existing key is a
    /// no-op so the caller cannot corrupt a live lane.
    pub fn register(&mut self, key: u64) {
        let base = self.frontier;
        self.lanes.entry(key).or_insert(Lane {
            base,
            next_seq: 0,
            buffered: BTreeMap::new(),
            final_seq: None,
        });
    }

    /// Accept emission `seq` of producer `key`, in whatever order it fell
    /// out of the channel. Unknown keys open a lane at the frontier (the
    /// deterministic path is to [`register`](Resequencer::register) keys
    /// up front; first-arrival registration makes the base round depend
    /// on arrival timing and is only as deterministic as the caller).
    pub fn accept(&mut self, key: u64, seq: u64, item: T) {
        self.register(key);
        let lane = self.lanes.get_mut(&key).expect("just registered");
        debug_assert!(
            seq >= lane.next_seq,
            "emission {seq} of producer {key} arrived twice"
        );
        if lane.buffered.insert(seq, item).is_none() {
            self.buffered += 1;
        }
    }

    /// Declare that producer `key` has finished after exactly `emitted`
    /// emissions (seqs `0..emitted`). Emissions still in flight are
    /// awaited; anything beyond is impossible. Closing an unknown key
    /// opens-and-closes an empty lane, so a producer that never emitted
    /// still retires cleanly.
    pub fn close(&mut self, key: u64, emitted: u64) {
        self.register(key);
        let lane = self.lanes.get_mut(&key).expect("just registered");
        debug_assert!(
            lane.final_seq.is_none_or(|f| f == emitted),
            "producer {key} closed twice with different emission counts"
        );
        debug_assert!(
            emitted >= lane.next_seq,
            "producer {key} closed below its released seq"
        );
        lane.final_seq = Some(emitted);
        if lane.exhausted() {
            self.lanes.remove(&key);
        }
    }

    /// Release the next canonical round if every emission it needs has
    /// arrived (see [`RoundStatus`]).
    pub fn next_round(&mut self) -> RoundStatus<T> {
        // The next round is the smallest virtual round any lane owes.
        let Some(round) = self.lanes.values().map(Lane::virtual_round).min() else {
            return RoundStatus::Idle;
        };
        // Every lane due this round must have its emission buffered; a
        // closed lane past its final seq was already removed, so any due
        // lane without a buffered emission is genuinely awaited.
        for (&key, lane) in &self.lanes {
            if lane.virtual_round() == round && !lane.buffered.contains_key(&lane.next_seq) {
                return RoundStatus::Pending { waiting_on: key };
            }
        }
        let due: Vec<u64> = self
            .lanes
            .iter()
            .filter(|(_, l)| l.virtual_round() == round)
            .map(|(&k, _)| k)
            .collect();
        let mut out = Vec::with_capacity(due.len());
        for key in due {
            let lane = self.lanes.get_mut(&key).expect("due lane exists");
            let item = lane.buffered.remove(&lane.next_seq).expect("checked above");
            self.buffered -= 1;
            lane.next_seq += 1;
            out.push((key, item));
            if lane.exhausted() {
                self.lanes.remove(&key);
            }
        }
        self.frontier = round.saturating_add(1);
        RoundStatus::Ready(out)
    }

    /// Lanes that have not closed yet (producers still able to emit).
    pub fn open_lanes(&self) -> usize {
        self.lanes
            .values()
            .filter(|l| l.final_seq.is_none())
            .count()
    }

    /// Lanes still alive: open, or closed with emissions not yet
    /// released. `0` means [`RoundStatus::Idle`].
    pub fn live_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Emissions buffered ahead of their canonical turn (the skew between
    /// fast and slow producers; bounded by the channel in steady state).
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Decompose into plain checkpointable parts. Lanes come out in
    /// ascending key order and buffered emissions in ascending seq order,
    /// so the decomposition is deterministic.
    pub fn to_parts(&self) -> ResequencerParts<T>
    where
        T: Clone,
    {
        ResequencerParts {
            frontier: self.frontier,
            lanes: self
                .lanes
                .iter()
                .map(|(&key, lane)| LaneParts {
                    key,
                    base: lane.base,
                    next_seq: lane.next_seq,
                    final_seq: lane.final_seq,
                    buffered: lane
                        .buffered
                        .iter()
                        .map(|(&seq, item)| (seq, item.clone()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Rebuild a resequencer from checkpointed parts. Inverse of
    /// [`Resequencer::to_parts`].
    pub fn from_parts(parts: ResequencerParts<T>) -> Self {
        let mut buffered = 0;
        let lanes = parts
            .lanes
            .into_iter()
            .map(|lp| {
                buffered += lp.buffered.len();
                (
                    lp.key,
                    Lane {
                        base: lp.base,
                        next_seq: lp.next_seq,
                        buffered: lp.buffered.into_iter().collect(),
                        final_seq: lp.final_seq,
                    },
                )
            })
            .collect();
        Resequencer {
            lanes,
            frontier: parts.frontier,
            buffered,
        }
    }
}

/// One producer lane of a [`Resequencer`], decomposed for checkpointing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneParts<T> {
    pub key: u64,
    pub base: u64,
    pub next_seq: u64,
    pub final_seq: Option<u64>,
    /// Out-of-turn emissions, `(seq, item)` in ascending seq order.
    pub buffered: Vec<(u64, T)>,
}

/// A [`Resequencer`] decomposed into plain data for checkpointing: the
/// frontier plus every lane (buffered emissions included) in ascending
/// producer-key order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResequencerParts<T> {
    pub frontier: u64,
    pub lanes: Vec<LaneParts<T>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(r: &mut Resequencer<&'static str>) -> Vec<Vec<(u64, &'static str)>> {
        let mut rounds = Vec::new();
        while let RoundStatus::Ready(round) = r.next_round() {
            rounds.push(round);
        }
        rounds
    }

    #[test]
    fn releases_rounds_in_key_order_regardless_of_arrival() {
        let mut r = Resequencer::new();
        r.register(1);
        r.register(2);
        // Arrival order scrambled across producers and seqs.
        r.accept(2, 1, "b1");
        r.accept(1, 0, "a0");
        r.accept(2, 0, "b0");
        r.accept(1, 1, "a1");
        r.close(1, 2);
        r.close(2, 2);
        assert_eq!(
            drain(&mut r),
            vec![vec![(1, "a0"), (2, "b0")], vec![(1, "a1"), (2, "b1")]],
        );
        assert_eq!(r.next_round(), RoundStatus::Idle);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn stalls_on_the_slowest_open_producer() {
        let mut r = Resequencer::new();
        r.register(1);
        r.register(2);
        r.accept(2, 0, "b0");
        r.accept(2, 1, "b1");
        // Producer 1 owes round 0: nothing may be released.
        assert_eq!(r.next_round(), RoundStatus::Pending { waiting_on: 1 });
        assert_eq!(r.buffered(), 2);
        r.accept(1, 0, "a0");
        assert_eq!(
            r.next_round(),
            RoundStatus::Ready(vec![(1, "a0"), (2, "b0")])
        );
        // Round 1: producer 1 again.
        assert_eq!(r.next_round(), RoundStatus::Pending { waiting_on: 1 });
        // Closing it releases the rest of producer 2's line.
        r.close(1, 1);
        assert_eq!(r.next_round(), RoundStatus::Ready(vec![(2, "b1")]));
        r.close(2, 2);
        assert_eq!(r.next_round(), RoundStatus::Idle);
    }

    #[test]
    fn close_with_in_flight_emissions_still_awaits_them() {
        let mut r = Resequencer::new();
        r.register(7);
        r.close(7, 2); // announced 2 emissions; none arrived yet
        assert_eq!(r.next_round(), RoundStatus::Pending { waiting_on: 7 });
        assert_eq!(r.open_lanes(), 0, "closed, but still live");
        assert_eq!(r.live_lanes(), 1);
        r.accept(7, 0, "x0");
        r.accept(7, 1, "x1");
        assert_eq!(r.next_round(), RoundStatus::Ready(vec![(7, "x0")]));
        assert_eq!(r.next_round(), RoundStatus::Ready(vec![(7, "x1")]));
        assert_eq!(r.next_round(), RoundStatus::Idle);
    }

    #[test]
    fn late_registration_joins_at_the_frontier() {
        let mut r = Resequencer::new();
        r.register(1);
        r.accept(1, 0, "a0");
        r.accept(1, 1, "a1");
        assert!(matches!(r.next_round(), RoundStatus::Ready(_)));
        // Producer 2 appears after round 0 was released: its seq 0 maps
        // to the current frontier (round 1), not to the past.
        r.register(2);
        r.accept(2, 0, "b0");
        assert_eq!(
            r.next_round(),
            RoundStatus::Ready(vec![(1, "a1"), (2, "b0")])
        );
        r.close(1, 2);
        r.close(2, 1);
        assert_eq!(r.next_round(), RoundStatus::Idle);
    }

    #[test]
    fn canonical_order_is_arrival_invariant() {
        // Two producers × 3 emissions, released under every arrival
        // permutation of the 6 emissions: the release sequence never
        // changes.
        let emissions: Vec<(u64, u64)> = vec![(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)];
        let mut reference: Option<Vec<Vec<u64>>> = None;
        // Deterministic permutation sampling (no rand in unit tests):
        // rotate + swap sweeps enough distinct orders to catch ordering
        // bugs without a factorial loop.
        for rot in 0..emissions.len() {
            for swap in 0..emissions.len() {
                let mut order = emissions.clone();
                order.rotate_left(rot);
                order.swap(0, swap);
                let mut r: Resequencer<u64> = Resequencer::new();
                r.register(1);
                r.register(2);
                for &(k, s) in &order {
                    r.accept(k, s, k * 100 + s);
                }
                r.close(1, 3);
                r.close(2, 3);
                let mut rounds = Vec::new();
                while let RoundStatus::Ready(round) = r.next_round() {
                    rounds.push(round.into_iter().map(|(_, v)| v).collect::<Vec<_>>());
                }
                match &reference {
                    None => reference = Some(rounds),
                    Some(want) => assert_eq!(&rounds, want, "order diverged for {order:?}"),
                }
            }
        }
    }

    #[test]
    fn never_emitting_producer_retires_cleanly() {
        let mut r: Resequencer<&str> = Resequencer::new();
        r.register(3);
        r.close(3, 0);
        assert_eq!(r.next_round(), RoundStatus::Idle);
    }
}
