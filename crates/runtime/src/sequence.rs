//! Physical sequencing operators: SEQUENCE and ATLEAST (with ALL/ANY as
//! planner-level sugar, per the paper's table).
//!
//! `SequenceOp` keeps per-slot event state in a `(Vs, id)`-ordered index.
//! Restrictive SC modes (First/MostRecent selection, Consume) use a
//! recompute-and-diff strategy against the denotational match set, because
//! selection and consumption are globally order-dependent.
//!
//! **The incremental fast path** (the default Each/Reuse SC mode)
//! enumerates exactly the *new* matches each arrival completes, at a cost
//! that follows the matches rather than the state. With the arrival fixed
//! in its slot, every other slot is *seeked* — `BTreeMap::range` from just
//! after the previous contributor's `Vs`, or, for the opening slot, from
//! `fixed.Vs − w` (nothing earlier can have the arrival within its scope)
//! — and left at the first entry past the scope or, before the fixed
//! slot, at the arrival's own `Vs`. The walk is over borrowed events; the
//! injected predicate is evaluated on the complete tuple *before* the
//! output is composed, so rejected tuples cost no allocation. The
//! invariant everything downstream relies on: **enumeration is
//! depth-first with each slot visited in ascending `(Vs, id)`**, so the
//! outputs of one arrival — and with them the emitted tape, the
//! `by_contrib` lists and the checkpoint bytes — are a pure function of
//! the slot contents, never of arrival or hash order.
//!
//! Out-of-order arrivals are handled structurally: a late contributor
//! simply completes matches when it arrives; a contributor's full removal
//! retracts every output it fed (`by_contrib` index, filled from each
//! output's lineage).
//!
//! **State and flushing.** A slot entry can only join a *new* match
//! together with a future arrival (`Vs ≥ watermark`), which the scope
//! bounds to `Vs ≥ watermark − w`; `on_advance` pops each slot's prefix
//! below that bound (or below the memory horizon under weak consistency).
//! An emitted match is forgotten when its last contributor — the one
//! with the greatest `Vs` — is purged: by then no contributor's removal
//! can arrive any more.
//!
//! **Batch-native delivery.** Under restrictive SC modes (and always for
//! [`AtLeastOp`]) a delivery run is admitted into the slot index whole and
//! recomputed **once per run** instead of once per message — the
//! one-refresh-per-run contract of the [`operator`](crate::operator)
//! module docs (intermediate selections a finer batching would have
//! published-and-repaired are never emitted; net content is unchanged).
//! The Each/Reuse fast path keeps exact per-message enumeration: each
//! arrival completes its own matches in arrival order, so a run of `n`
//! messages is bit-identical to `n` runs of one.

use crate::operator::{OpContext, OperatorModule};
use cedr_algebra::expr::Pred;
use cedr_algebra::idgen::idgen;
use cedr_algebra::pattern::{apply_sc_modes, atleast_matches, sequence_matches, ScMode};
use cedr_algebra::EventSet;
use cedr_streams::{Message, Retraction};
use cedr_temporal::{
    Duration, Event, EventId, IdMap, IdSet, Interval, Lineage, Payload, TimePoint,
};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

type SlotMap = BTreeMap<(TimePoint, EventId), Event>;

/// Admit one insert into a slot map; `true` iff it is fresh (not a
/// duplicate delivery, not an empty lifetime).
fn admit_insert(slot: &mut SlotMap, event: &Event) -> bool {
    if event.interval.is_empty() {
        return false;
    }
    let key = (event.vs(), event.id);
    if slot.contains_key(&key) {
        return false;
    }
    slot.insert(key, event.clone());
    true
}

/// Admit one retraction into a slot map. Partial retractions only shorten
/// the stored copy (occurrence is what sequencing consumes); `true` iff a
/// contributor was fully removed.
fn admit_retract(slot: &mut SlotMap, r: &Retraction) -> bool {
    let key = (r.event.interval.start, r.event.id);
    if !r.is_full_removal() {
        if let Some(stored) = slot.get_mut(&key) {
            let new_end = TimePoint::min_of(stored.interval.end, r.new_end);
            stored.interval = Interval::new(stored.interval.start, new_end);
        }
        return false;
    }
    slot.remove(&key).is_some()
}

/// Compose the output event for a Vs-ordered contributor tuple (the
/// paper's SEQUENCE/ATLEAST output schema).
fn compose(tuple: &[&Event], w: Duration) -> Event {
    let lineage: Lineage = tuple.iter().map(|e| e.id).collect();
    let first = tuple.first().expect("non-empty tuple");
    let last = tuple.last().expect("non-empty tuple");
    let rt = tuple.iter().map(|e| e.root_time).min().expect("non-empty");
    Event::composite(
        idgen(&lineage.0),
        Interval::new(last.vs(), first.vs() + w),
        rt,
        lineage,
        Payload::concat_all(tuple.iter().map(|e| &e.payload)),
    )
}

/// Pop a slot's prefix below `bound`, yielding the purged ids in `(Vs, id)`
/// order: one descent to the front per entry.
fn pop_below(slot: &mut SlotMap, bound: TimePoint) -> impl Iterator<Item = EventId> + '_ {
    std::iter::from_fn(move || {
        let (&(vs, _), _) = slot.first_key_value()?;
        if vs >= bound {
            return None;
        }
        slot.pop_first().map(|((_, id), _)| id)
    })
}

fn slots_as_sets(slots: &[SlotMap]) -> Vec<EventSet> {
    slots
        .iter()
        .map(|m| m.values().cloned().collect())
        .collect()
}

/// Emit the difference between the currently-emitted outputs and a desired
/// output set (keyed by deterministic output ID).
///
/// Emission order is deterministic — retractions in ascending output-ID
/// order, then inserts in enumeration order — never hash-iteration order:
/// operator output must be a pure function of delivered input.
fn diff_emitted(emitted: &mut IdMap<Arc<Event>>, desired: Vec<Event>, ctx: &mut OpContext) {
    let desired_ids: IdSet = desired.iter().map(|e| e.id).collect();
    let mut stale: Vec<Arc<Event>> = emitted
        .iter()
        .filter(|(id, _)| !desired_ids.contains(id))
        .map(|(_, e)| e.clone())
        .collect();
    stale.sort_by_key(|e| e.id);
    for e in stale {
        ctx.out.retract_full(e);
    }
    // A still-desired output keeps its `Arc` when the recompute rebuilt
    // it unchanged; only fresh events are allocated, and shared with the
    // message that inserts them.
    let mut next: IdMap<Arc<Event>> =
        IdMap::with_capacity_and_hasher(desired.len(), Default::default());
    for e in desired {
        let e = match emitted.get(&e.id) {
            Some(old) if **old == e => old.clone(),
            Some(_) => Arc::new(e),
            None => {
                let e = Arc::new(e);
                if !next.contains_key(&e.id) {
                    ctx.out.insert(e.clone());
                }
                e
            }
        };
        next.insert(e.id, e);
    }
    *emitted = next;
}

/// Physical SEQUENCE(E1, …, Ek, w).
pub struct SequenceOp {
    w: Duration,
    pred: Pred,
    modes: Vec<ScMode>,
    restrictive: bool,
    slots: Vec<SlotMap>,
    /// Emitted outputs, each shared with the message that inserted it.
    emitted: IdMap<Arc<Event>>,
    by_contrib: IdMap<Vec<EventId>>,
}

impl SequenceOp {
    pub fn new(k: usize, w: Duration, pred: Pred) -> Self {
        assert!(k >= 1, "SEQUENCE needs at least one contributor");
        Self::with_modes(k, w, pred, vec![ScMode::EACH_REUSE; k])
    }

    pub fn with_modes(k: usize, w: Duration, pred: Pred, modes: Vec<ScMode>) -> Self {
        assert_eq!(modes.len(), k, "one SC mode per input");
        let restrictive = modes.iter().any(|m| *m != ScMode::EACH_REUSE);
        SequenceOp {
            w,
            pred,
            modes,
            restrictive,
            slots: vec![SlotMap::new(); k],
            emitted: IdMap::default(),
            by_contrib: IdMap::default(),
        }
    }

    fn k(&self) -> usize {
        self.slots.len()
    }

    /// Fast path: the composed outputs of every slot-ordered tuple that
    /// includes `fixed` at slot `fixed_slot`, satisfies the strict-Vs-order
    /// and scope constraints, and passes the predicate — in depth-first
    /// order, each slot visited in ascending `(Vs, id)`.
    fn matches_with(&self, fixed_slot: usize, fixed: &Event) -> Vec<Event> {
        let mut out = Vec::new();
        let mut stack: Vec<&Event> = Vec::with_capacity(self.k());
        self.recurse(fixed_slot, fixed, &mut stack, &mut out);
        out
    }

    fn recurse<'a>(
        &'a self,
        fixed_slot: usize,
        fixed: &'a Event,
        stack: &mut Vec<&'a Event>,
        out: &mut Vec<Event>,
    ) {
        let depth = stack.len();
        if depth == self.k() {
            // Predicate injection: only qualifying tuples are composed.
            if self.pred.eval_tuple(stack) {
                out.push(compose(stack, self.w));
            }
            return;
        }
        let prev_vs = stack.last().map(|e| e.vs());
        let deadline = stack
            .first()
            .map_or(TimePoint::INFINITY, |first| first.vs() + self.w);
        if depth == fixed_slot {
            let v = fixed.vs();
            if prev_vs.is_some_and(|p| v <= p) || v > deadline {
                return;
            }
            stack.push(fixed);
            self.recurse(fixed_slot, fixed, stack, out);
            stack.pop();
            return;
        }
        // Seek instead of scanning from the front: strictly after the
        // previous contributor, or — for the opening slot, which the
        // still-ahead fixed contributor must fall within `w` of — from
        // `fixed.Vs − w`.
        let lower = match prev_vs {
            Some(p) => Bound::Excluded((p, EventId(u64::MAX))),
            None => Bound::Included((fixed.vs() - self.w, EventId(0))),
        };
        for (&(vs, _), e) in self.slots[depth].range((lower, Bound::Unbounded)) {
            // Within the scope and, while the fixed slot is still ahead,
            // strictly before it.
            if vs > deadline || (depth < fixed_slot && vs >= fixed.vs()) {
                break;
            }
            stack.push(e);
            self.recurse(fixed_slot, fixed, stack, out);
            stack.pop();
        }
    }

    fn recompute(&mut self, ctx: &mut OpContext) {
        let sets = slots_as_sets(&self.slots);
        let matches = sequence_matches(&sets, self.w, &self.pred);
        let selected = apply_sc_modes(matches, &self.modes);
        let desired: Vec<Event> = selected.into_iter().map(|m| m.output).collect();
        diff_emitted(&mut self.emitted, desired, ctx);
    }

    /// Each/Reuse arrival: emit exactly the new matches `event` completes.
    fn insert_each(&mut self, input: usize, event: &Event, ctx: &mut OpContext) {
        if !admit_insert(&mut self.slots[input], event) {
            return; // duplicate delivery or empty lifetime
        }
        for out in self.matches_with(input, event) {
            if self.emitted.contains_key(&out.id) {
                continue;
            }
            // The lineage is the contributor tuple, in slot order.
            for &c in out.lineage.0.iter() {
                self.by_contrib.entry(c).or_default().push(out.id);
            }
            let out = Arc::new(out);
            self.emitted.insert(out.id, out.clone());
            ctx.out.insert(out);
        }
    }

    /// Each/Reuse removal: retract every output the contributor fed.
    fn retract_each(&mut self, input: usize, r: &Retraction, ctx: &mut OpContext) {
        if !admit_retract(&mut self.slots[input], r) {
            return; // partial shortening, never seen, or already forgotten
        }
        for out_id in self.by_contrib.remove(&r.event.id).unwrap_or_default() {
            if let Some(out) = self.emitted.remove(&out_id) {
                ctx.out.retract_full(out);
            }
        }
    }
}

impl OperatorModule for SequenceOp {
    fn name(&self) -> &'static str {
        "sequence"
    }

    fn arity(&self) -> usize {
        self.k()
    }

    /// Batch-native delivery. Restrictive SC modes admit the whole run
    /// into the slot index and recompute-and-diff **once per run**; the
    /// Each/Reuse fast path handles one message at a time (its incremental
    /// enumeration is already exact and order-pinned).
    fn on_batch(&mut self, input: usize, msgs: &[Message], ctx: &mut OpContext) {
        let mut changed = false;
        for m in msgs {
            match m {
                Message::Insert(e) if self.restrictive => {
                    changed |= admit_insert(&mut self.slots[input], e)
                }
                Message::Retract(r) if self.restrictive => {
                    changed |= admit_retract(&mut self.slots[input], r)
                }
                Message::Insert(e) => self.insert_each(input, e, ctx),
                Message::Retract(r) => self.retract_each(input, r, ctx),
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
        if changed {
            self.recompute(ctx);
        }
    }

    fn on_advance(&mut self, ctx: &mut OpContext) {
        // An event can only participate in a *new* match together with some
        // future arrival (Vs ≥ watermark), which the scope bounds to
        // Vs ≥ watermark − w. The memory horizon forces earlier forgetting
        // under weak consistency.
        let bound = TimePoint::max_of(ctx.watermark - self.w, ctx.horizon());
        if bound == TimePoint::ZERO {
            return;
        }
        let mut purged: Vec<EventId> = Vec::new();
        for slot in &mut self.slots {
            purged.extend(pop_below(slot, bound));
        }
        if purged.is_empty() {
            return;
        }
        if self.restrictive {
            // Flush silently: matches involving purged contributors are
            // final (no retraction for them can arrive any more).
            let purged_set: IdSet = purged.iter().copied().collect();
            self.emitted
                .retain(|_, out| !out.lineage.0.iter().any(|c| purged_set.contains(c)));
            return;
        }
        for id in purged {
            for out_id in self.by_contrib.remove(&id).unwrap_or_default() {
                // Only the trigger (last contributor, max Vs) finalises the
                // record: when it purges, every contributor is immune.
                if let Some(out) = self.emitted.get(&out_id) {
                    if out.lineage.0.last() == Some(&id) {
                        self.emitted.remove(&out_id);
                    }
                }
            }
        }
    }

    fn state_size(&self) -> usize {
        self.slots.iter().map(|s| s.len()).sum::<usize>() + self.emitted.len()
    }

    fn state_snapshot(&self, out: &mut Vec<u8>) {
        use cedr_durable::Persist;
        encode_slots(&self.slots, out);
        encode_emitted(&self.emitted, out);
        let mut contribs: Vec<EventId> = self.by_contrib.keys().copied().collect();
        contribs.sort_unstable();
        (contribs.len() as u64).encode(out);
        for id in contribs {
            id.encode(out);
            // Output-ID order within a contributor is enumeration order:
            // preserved as-is.
            self.by_contrib[&id].encode(out);
        }
    }

    fn state_restore(
        &mut self,
        r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        decode_slots(&mut self.slots, r)?;
        self.emitted = decode_emitted(r)?;
        self.by_contrib.clear();
        for _ in 0..u64::decode(r)? {
            let id = EventId::decode(r)?;
            self.by_contrib.insert(id, Vec::<EventId>::decode(r)?);
        }
        Ok(())
    }
}

/// Serialize slot maps (BTreeMap order is already deterministic).
fn encode_slots(slots: &[SlotMap], out: &mut Vec<u8>) {
    use cedr_durable::Persist;
    for slot in slots {
        (slot.len() as u64).encode(out);
        for (&(vs, id), e) in slot {
            vs.encode(out);
            id.encode(out);
            e.encode(out);
        }
    }
}

/// Restore slot maps written by [`encode_slots`] (slot count is fixed by
/// the plan, so only entries travel).
fn decode_slots(
    slots: &mut [SlotMap],
    r: &mut cedr_durable::Reader<'_>,
) -> Result<(), cedr_durable::CodecError> {
    use cedr_durable::Persist;
    for slot in slots.iter_mut() {
        slot.clear();
        for _ in 0..u64::decode(r)? {
            let vs = TimePoint::decode(r)?;
            let id = EventId::decode(r)?;
            slot.insert((vs, id), Event::decode(r)?);
        }
    }
    Ok(())
}

fn encode_emitted(emitted: &IdMap<Arc<Event>>, out: &mut Vec<u8>) {
    use cedr_durable::Persist;
    let mut entries: Vec<(EventId, Arc<Event>)> =
        emitted.iter().map(|(&id, e)| (id, e.clone())).collect();
    entries.sort_unstable_by_key(|&(id, _)| id);
    entries.encode(out);
}

fn decode_emitted(
    r: &mut cedr_durable::Reader<'_>,
) -> Result<IdMap<Arc<Event>>, cedr_durable::CodecError> {
    use cedr_durable::Persist;
    Ok(Vec::<(EventId, Arc<Event>)>::decode(r)?
        .into_iter()
        .collect())
}

/// Physical ATLEAST(n, E1, …, Ek, w); ALL and ANY desugar onto this.
///
/// Always recompute-and-diff: subset choice makes per-arrival delta
/// enumeration subtle, and ATLEAST workloads are small in practice (the
/// fan-in `k` is a query constant).
pub struct AtLeastOp {
    n: usize,
    w: Duration,
    pred: Pred,
    modes: Vec<ScMode>,
    slots: Vec<SlotMap>,
    emitted: IdMap<Arc<Event>>,
}

impl AtLeastOp {
    pub fn new(n: usize, k: usize, w: Duration, pred: Pred) -> Self {
        Self::with_modes(n, k, w, pred, vec![ScMode::EACH_REUSE; k])
    }

    pub fn with_modes(n: usize, k: usize, w: Duration, pred: Pred, modes: Vec<ScMode>) -> Self {
        assert!(n >= 1 && n <= k, "need 1 ≤ n ≤ k");
        assert_eq!(modes.len(), k);
        AtLeastOp {
            n,
            w,
            pred,
            modes,
            slots: vec![SlotMap::new(); k],
            emitted: IdMap::default(),
        }
    }

    fn recompute(&mut self, ctx: &mut OpContext) {
        let sets = slots_as_sets(&self.slots);
        let matches = atleast_matches(self.n, &sets, self.w, &self.pred);
        let selected = apply_sc_modes(matches, &self.modes);
        let desired: Vec<Event> = selected.into_iter().map(|m| m.output).collect();
        diff_emitted(&mut self.emitted, desired, ctx);
    }
}

impl OperatorModule for AtLeastOp {
    fn name(&self) -> &'static str {
        "atleast"
    }

    fn arity(&self) -> usize {
        self.slots.len()
    }

    /// Batch-native delivery: ATLEAST is always recompute-and-diff, so a
    /// run is admitted whole and recomputed once (one-refresh-per-run).
    fn on_batch(&mut self, input: usize, msgs: &[Message], ctx: &mut OpContext) {
        let mut changed = false;
        for m in msgs {
            match m {
                Message::Insert(e) => changed |= admit_insert(&mut self.slots[input], e),
                Message::Retract(r) => changed |= admit_retract(&mut self.slots[input], r),
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
        if changed {
            self.recompute(ctx);
        }
    }

    fn on_advance(&mut self, ctx: &mut OpContext) {
        let bound = TimePoint::max_of(ctx.watermark - self.w, ctx.horizon());
        if bound == TimePoint::ZERO {
            return;
        }
        let mut purged = IdSet::default();
        for slot in &mut self.slots {
            purged.extend(pop_below(slot, bound));
        }
        if !purged.is_empty() {
            self.emitted
                .retain(|_, out| !out.lineage.0.iter().any(|c| purged.contains(c)));
        }
    }

    fn state_size(&self) -> usize {
        self.slots.iter().map(|s| s.len()).sum::<usize>() + self.emitted.len()
    }

    fn state_snapshot(&self, out: &mut Vec<u8>) {
        encode_slots(&self.slots, out);
        encode_emitted(&self.emitted, out);
    }

    fn state_restore(
        &mut self,
        r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        decode_slots(&mut self.slots, r)?;
        self.emitted = decode_emitted(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::ConsistencySpec;
    use crate::operator::OperatorShell;
    use cedr_algebra::expr::{CmpOp, Scalar};
    use cedr_algebra::pattern::{Consumption, Selection};
    use cedr_streams::Message;
    use cedr_temporal::time::{dur, t};
    use cedr_temporal::Value;

    fn pt(id: u64, vs: u64) -> Event {
        Event::primitive(EventId(id), Interval::point(t(vs)), Payload::empty())
    }

    fn ptp(id: u64, vs: u64, m: &str) -> Event {
        Event::primitive(
            EventId(id),
            Interval::point(t(vs)),
            Payload::from_values(vec![Value::str(m)]),
        )
    }

    #[test]
    fn in_order_pair_detection() {
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
        );
        assert!(s.push(0, Message::insert_event(pt(1, 5)), 0).is_empty());
        let out = s.push(1, Message::insert_event(pt(2, 8)), 1);
        assert_eq!(out.len(), 1);
        let m = out[0].as_insert().unwrap();
        assert_eq!(m.interval, Interval::new(t(8), t(15)));
        assert_eq!(m.root_time, t(5));
    }

    #[test]
    fn late_first_contributor_completes_match() {
        // E2 arrives before E1 (out of order); the late E1 completes it.
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
        );
        assert!(s.push(1, Message::insert_event(pt(2, 8)), 0).is_empty());
        let out = s.push(0, Message::insert_event(pt(1, 5)), 1);
        assert_eq!(out.len(), 1, "late arrival still yields the match");
    }

    #[test]
    fn scope_excludes_distant_pairs() {
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
        );
        s.push(0, Message::insert_event(pt(1, 5)), 0);
        let out = s.push(1, Message::insert_event(pt(2, 16)), 1);
        assert!(out.is_empty(), "16 − 5 > 10");
    }

    #[test]
    fn contributor_removal_retracts_outputs() {
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
        );
        let e1 = pt(1, 5);
        s.push(0, Message::insert_event(e1.clone()), 0);
        let out = s.push(1, Message::insert_event(pt(2, 8)), 1);
        let m = out[0].as_insert().unwrap().clone();
        let out2 = s.push(0, Message::Retract(Retraction::new(e1, t(5))), 2);
        let r = out2[0].as_retract().unwrap();
        assert_eq!(r.event.id, m.id);
        assert!(r.is_full_removal());
    }

    #[test]
    fn predicate_injection_correlates() {
        let pred = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(2, dur(100), pred)),
            ConsistencySpec::middle(),
        );
        s.push(0, Message::insert_event(ptp(1, 1, "m1")), 0);
        s.push(0, Message::insert_event(ptp(2, 2, "m2")), 1);
        let out = s.push(1, Message::insert_event(ptp(3, 5, "m1")), 2);
        assert_eq!(out.len(), 1, "only the m1 INSTALL correlates");
    }

    #[test]
    fn three_slot_sequences_with_middle_arrival_last() {
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(3, dur(100), Pred::True)),
            ConsistencySpec::middle(),
        );
        s.push(0, Message::insert_event(pt(1, 1)), 0);
        s.push(2, Message::insert_event(pt(3, 9)), 1);
        // The middle contributor arrives last and completes the triple.
        let out = s.push(1, Message::insert_event(pt(2, 4)), 2);
        assert_eq!(out.len(), 1);
        let m = out[0].as_insert().unwrap();
        assert_eq!(
            m.lineage.0.to_vec(),
            vec![EventId(1), EventId(2), EventId(3)]
        );
    }

    /// Contributor IDs of every inserted output, in emission order.
    fn lineages(out: &[Message]) -> Vec<Vec<u64>> {
        out.iter()
            .filter_map(|m| m.as_insert())
            .map(|e| e.lineage.0.iter().map(|id| id.0).collect())
            .collect()
    }

    #[test]
    fn late_middle_and_first_enumerate_depth_first_in_vs_id_order() {
        // Slot 0's key must equal slot 2's: the predicate rejects tuples
        // the order and scope constraints alone would admit.
        let pred = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(2, 0));
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(3, dur(100), pred.clone())),
            ConsistencySpec::middle(),
        );
        // Arrival order is deliberately not (Vs, id) order; 31 and 33
        // share a Vs, so only the ID orders them.
        let last = vec![ptp(33, 20, "a"), ptp(32, 22, "b"), ptp(31, 20, "a")];
        let mut first = vec![ptp(13, 3, "a"), ptp(11, 1, "a"), ptp(12, 2, "b")];
        let middle = vec![ptp(21, 10, "x"), ptp(22, 12, "x")];
        let mut now = 0;
        for (slot, events) in [(2, &last), (0, &first)] {
            for e in events {
                let out = s.push(slot, Message::insert_event(e.clone()), now);
                assert!(out.is_empty(), "no middle contributor yet");
                now += 1;
            }
        }
        let mut emitted = Vec::new();
        // The middle contributor arrives last.
        let out = s.push(1, Message::insert_event(middle[0].clone()), now);
        assert_eq!(
            lineages(&out),
            vec![
                vec![11, 21, 31],
                vec![11, 21, 33],
                vec![12, 21, 32],
                vec![13, 21, 31],
                vec![13, 21, 33],
            ]
        );
        emitted.extend(out);
        let out = s.push(1, Message::insert_event(middle[1].clone()), now + 1);
        assert_eq!(
            lineages(&out),
            vec![
                vec![11, 22, 31],
                vec![11, 22, 33],
                vec![12, 22, 32],
                vec![13, 22, 31],
                vec![13, 22, 33],
            ]
        );
        emitted.extend(out);
        // The first contributor arrives last: before every middle, then
        // between the two middles.
        for (late, want) in [
            (ptp(14, 0, "b"), vec![vec![14, 21, 32], vec![14, 22, 32]]),
            (ptp(15, 11, "a"), vec![vec![15, 22, 31], vec![15, 22, 33]]),
        ] {
            now += 2;
            let out = s.push(0, Message::insert_event(late.clone()), now);
            assert_eq!(lineages(&out), want);
            emitted.extend(out);
            first.push(late);
        }
        let expected = cedr_algebra::pattern::sequence(&[first, middle, last], dur(100), &pred);
        let got: IdSet = emitted
            .iter()
            .filter_map(|m| m.as_insert().map(|e| e.id))
            .collect();
        let want: IdSet = expected.iter().map(|e| e.id).collect();
        assert_eq!(got.len(), 14);
        assert_eq!(got, want);
    }

    #[test]
    fn order_is_strict_and_the_scope_closed_at_both_seek_boundaries() {
        // A middle candidate at exactly the previous contributor's Vs is
        // not "after" it.
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(3, dur(10), Pred::True)),
            ConsistencySpec::middle(),
        );
        s.push(0, Message::insert_event(pt(1, 5)), 0);
        s.push(1, Message::insert_event(pt(20, 5)), 1);
        s.push(1, Message::insert_event(pt(21, 6)), 2);
        let out = s.push(2, Message::insert_event(pt(30, 8)), 3);
        assert_eq!(lineages(&out), vec![vec![1, 21, 30]]);

        // `last.Vs − first.Vs = w` exactly is a match with a vacuous
        // lifetime `[last.Vs, first.Vs + w)`: recorded as operator state,
        // never inserted on the tape. One tick further is no match.
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
        );
        s.push(0, Message::insert_event(pt(1, 5)), 0);
        s.push(0, Message::insert_event(pt(2, 4)), 1);
        // Seeking the opening slot from `fixed.Vs − w` keeps 5, drops 4.
        let out = s.push(1, Message::insert_event(pt(3, 15)), 2);
        assert!(out.iter().all(|m| !m.is_data()));
        assert_eq!(s.module().state_size(), 3 + 1, "one boundary match");
        // The same boundary reached from a late first contributor.
        let out = s.push(0, Message::insert_event(pt(4, 5)), 3);
        assert!(out.iter().all(|m| !m.is_data()));
        assert_eq!(s.module().state_size(), 4 + 2);
        let out = s.push(1, Message::insert_event(pt(5, 16)), 4);
        assert!(out.iter().all(|m| !m.is_data()));
        assert_eq!(s.module().state_size(), 5 + 2, "16 − 5 > 10");
    }

    #[test]
    fn matches_agree_with_denotational_semantics() {
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(2, dur(7), Pred::True)),
            ConsistencySpec::middle(),
        );
        let e1s: Vec<Event> = vec![pt(1, 1), pt(2, 4), pt(3, 9)];
        let e2s: Vec<Event> = vec![pt(10, 2), pt(11, 6), pt(12, 14)];
        let mut emitted = Vec::new();
        for (i, e) in e1s.iter().enumerate() {
            emitted.extend(s.push(0, Message::insert_event(e.clone()), i as u64));
        }
        for (i, e) in e2s.iter().enumerate() {
            emitted.extend(s.push(1, Message::insert_event(e.clone()), (10 + i) as u64));
        }
        let expected = cedr_algebra::pattern::sequence(&[e1s, e2s], dur(7), &Pred::True);
        let got: IdSet = emitted
            .iter()
            .filter_map(|m| m.as_insert().map(|e| e.id))
            .collect();
        let want: IdSet = expected.iter().map(|e| e.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn watermark_purges_expired_slot_state() {
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
        );
        s.push(0, Message::insert_event(pt(1, 5)), 0);
        s.push(1, Message::insert_event(pt(2, 8)), 1);
        assert!(s.module().state_size() > 0);
        s.push(0, Message::Cti(t(100)), 2);
        s.push(1, Message::Cti(t(100)), 3);
        assert_eq!(s.module().state_size(), 0);
    }

    #[test]
    fn consume_mode_limits_reuse() {
        let modes = vec![
            ScMode::new(Selection::Each, Consumption::Consume),
            ScMode::EACH_REUSE,
        ];
        let mut s = OperatorShell::new(
            Box::new(SequenceOp::with_modes(2, dur(10), Pred::True, modes)),
            ConsistencySpec::middle(),
        );
        s.push(0, Message::insert_event(pt(1, 1)), 0);
        let o1 = s.push(1, Message::insert_event(pt(2, 3)), 1);
        assert_eq!(o1.iter().filter(|m| m.is_data()).count(), 1);
        // The second E2 cannot reuse the consumed E1.
        let o2 = s.push(1, Message::insert_event(pt(3, 5)), 2);
        assert_eq!(o2.iter().filter(|m| m.is_data()).count(), 0);
    }

    #[test]
    fn atleast_runtime_matches_denotational() {
        let mut s = OperatorShell::new(
            Box::new(AtLeastOp::new(2, 3, dur(10), Pred::True)),
            ConsistencySpec::middle(),
        );
        let events = [pt(1, 1), pt(2, 2), pt(3, 3)];
        let mut emitted = Vec::new();
        for (i, e) in events.iter().enumerate() {
            emitted.extend(s.push(i, Message::insert_event(e.clone()), i as u64));
        }
        let inserts: Vec<EventId> = emitted
            .iter()
            .filter_map(|m| m.as_insert().map(|e| e.id))
            .collect();
        let retracts: Vec<EventId> = emitted
            .iter()
            .filter_map(|m| m.as_retract().map(|r| r.event.id))
            .collect();
        let net: IdSet = inserts
            .into_iter()
            .filter(|id| !retracts.contains(id))
            .collect();
        let expected: IdSet = cedr_algebra::pattern::atleast(
            2,
            &[vec![pt(1, 1)], vec![pt(2, 2)], vec![pt(3, 3)]],
            dur(10),
            &Pred::True,
        )
        .iter()
        .map(|e| e.id)
        .collect();
        assert_eq!(net, expected);
        assert_eq!(net.len(), 3, "pairs (1,2), (1,3), (2,3)");
    }

    #[test]
    fn any_via_atleast_one() {
        let mut s = OperatorShell::new(
            Box::new(AtLeastOp::new(1, 2, dur(1), Pred::True)),
            ConsistencySpec::middle(),
        );
        let o1 = s.push(0, Message::insert_event(pt(1, 1)), 0);
        let o2 = s.push(1, Message::insert_event(pt(2, 5)), 1);
        assert_eq!(o1.iter().filter(|m| m.is_data()).count(), 1);
        assert_eq!(o2.iter().filter(|m| m.is_data()).count(), 1);
    }
}
