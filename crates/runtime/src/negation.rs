//! Physical negation: UNLESS, NOT(·, SEQUENCE) and CANCEL-WHEN.
//!
//! Negation is where the consistency spectrum bites (Section 5): an output
//! asserting *non-occurrence* within a scope can only be **confirmed** once
//! the input guarantee (CTI) covers the whole scope.
//!
//! * Strong (`B=∞`): hold the candidate until the watermark passes the
//!   scope end, then emit — blocking, but never repaired.
//! * Middle (`B=0`): emit the moment the candidate appears; if a negating
//!   event shows up later (late arrival or plain in-order occurrence), emit
//!   a **retraction** of the optimistic output. If the negating event is
//!   itself removed, the output is *revived*.
//! * Weak (`B=0`, finite `M`): as middle, but candidates and negators
//!   below the memory horizon are forgotten, so some repairs never happen.
//!
//! Two scopes cover the paper's three operators:
//! [`NegationScope::After`] — UNLESS's `(e1.Vs, e1.Vs + w)`; and
//! [`NegationScope::History`] — the lineage scope `(e1.Rt, e1.Vs)` shared by
//! CANCEL-WHEN and NOT(E, SEQUENCE(…)) (for sequences over primitive
//! contributors `cbt[1].Vs = Rt` exactly).
//!
//! **State and advance.** Candidates live in a `(Vs, id)`-ordered index;
//! those that are neither emitted nor killed are also in `pending`, a
//! derived set kept current at every transition (arrival, kill, revival,
//! removal, sealing, forgetting) and rebuilt on restore rather than
//! persisted. `on_advance` — called on every watermark move — costs what
//! it *releases and seals*, not what is live, and relies on two
//! invariants:
//!
//! * **Release is monotone in `Vs`.** A held candidate may be emitted once
//!   the watermark covers its scope end or, at finite `B`, once the stream
//!   has advanced `B` past its `Vs`; both the scope end (`Vs + w`, or `Vs`
//!   for History) and the deadline (`Vs + B`) grow with `Vs`. So the
//!   advance releases from the front of `pending` and stops at the first
//!   candidate that must still wait: exactly the candidates a scan of the
//!   whole index would release, in the same `(Vs, id)` order.
//! * **Sealing is monotone in `Vs`.** A candidate is final — no negator
//!   and no removal of it can still arrive — once the watermark covers its
//!   scope end and has passed its `Vs`, so the sealed candidates are a
//!   prefix of the index, as are those the memory horizon forgets.
//!
//! A negator is purged, together with its kill list, once the watermark
//! rules out both a new candidate it could kill and its own removal.

use crate::operator::{OpContext, OperatorModule};
use cedr_algebra::expr::Pred;
use cedr_streams::{Message, Retraction};
use cedr_temporal::{Duration, Event, EventId, IdMap, IdSet, Interval, TimePoint};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The negation scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegationScope {
    /// UNLESS(E1, E2, w): negated events in `(e1.Vs, e1.Vs + w)`.
    After { w: Duration },
    /// CANCEL-WHEN / NOT(·, SEQUENCE): negated events in `(e1.Rt, e1.Vs)`.
    History,
}

struct Entry {
    e1: Event,
    killers: IdSet,
    emitted: bool,
}

/// Physical negation operator. Input 0: candidates (E1); input 1: negators
/// (E2 / the NOT-scope events).
pub struct NegationOp {
    scope: NegationScope,
    /// Predicate over `[e1, e2]` (predicate injection for negation).
    neg_pred: Pred,
    entries: IdMap<Entry>,
    entries_by_vs: BTreeMap<(TimePoint, EventId), ()>,
    /// Candidates that are neither emitted nor killed — the only ones an
    /// advance can release. Derived from `entries` (rebuilt on restore,
    /// never persisted).
    pending: BTreeSet<(TimePoint, EventId)>,
    e2s: IdMap<Event>,
    e2s_by_vs: BTreeMap<(TimePoint, EventId), ()>,
    kill_index: IdMap<Vec<EventId>>,
    /// Purge hint for the History scope: an upper bound on `Vs − Rt` of
    /// future candidates, allowing negator state to be bounded. `None`
    /// keeps negators until the memory horizon claims them (the paper notes
    /// CANCEL-WHEN's scope "cannot in general be expressed by … window").
    max_history: Option<Duration>,
}

/// The time at which the watermark confirms non-occurrence for a candidate
/// occurring at `vs` — the end of its scope. Monotone in `vs` for both
/// scopes, which is what lets an advance work on prefixes.
fn scope_end(scope: NegationScope, vs: TimePoint) -> TimePoint {
    match scope {
        NegationScope::After { w } => vs + w,
        NegationScope::History => vs,
    }
}

/// May a clear candidate occurring at `vs` be emitted now — confirmed by
/// the watermark, or optimistically under the spec's blocking bound? Both
/// conditions are monotone in `vs`.
fn may_release(scope: NegationScope, vs: TimePoint, ctx: &OpContext) -> bool {
    ctx.watermark >= scope_end(scope, vs) || ctx.may_emit_optimistically(vs)
}

fn output_of(scope: NegationScope, e1: &Event) -> Event {
    match scope {
        NegationScope::After { w } => Event::composite(
            e1.id,
            Interval::new(e1.vs(), e1.vs() + w),
            e1.root_time,
            [e1.id].into_iter().collect(),
            e1.payload.clone(),
        ),
        NegationScope::History => e1.clone(),
    }
}

impl NegationOp {
    pub fn new(scope: NegationScope, neg_pred: Pred) -> Self {
        NegationOp {
            scope,
            neg_pred,
            entries: IdMap::default(),
            entries_by_vs: BTreeMap::new(),
            pending: BTreeSet::new(),
            e2s: IdMap::default(),
            e2s_by_vs: BTreeMap::new(),
            kill_index: IdMap::default(),
            max_history: None,
        }
    }

    /// UNLESS(E1, E2, w).
    pub fn unless(w: Duration, neg_pred: Pred) -> Self {
        Self::new(NegationScope::After { w }, neg_pred)
    }

    /// CANCEL-WHEN(E1, E2) / NOT(E, SEQUENCE(…)).
    pub fn history(neg_pred: Pred) -> Self {
        Self::new(NegationScope::History, neg_pred)
    }

    /// Bound the History scope for negator purging.
    pub fn with_max_history(mut self, d: Duration) -> Self {
        self.max_history = Some(d);
        self
    }

    fn scope_of(&self, e1: &Event) -> (TimePoint, TimePoint) {
        let start = match self.scope {
            NegationScope::After { .. } => e1.vs(),
            NegationScope::History => e1.root_time,
        };
        (start, scope_end(self.scope, e1.vs()))
    }

    fn negates(&self, e1: &Event, e2: &Event) -> bool {
        let (a, b) = self.scope_of(e1);
        a < e2.vs() && e2.vs() < b && self.neg_pred.eval_tuple(&[e1, e2])
    }

    /// Emit a clear (unkilled, unemitted) candidate if the monitor allows
    /// it now, else park it in `pending` for a later advance.
    fn release_or_hold(
        scope: NegationScope,
        pending: &mut BTreeSet<(TimePoint, EventId)>,
        entry: &mut Entry,
        ctx: &mut OpContext,
    ) {
        debug_assert!(!entry.emitted && entry.killers.is_empty());
        let vs = entry.e1.vs();
        if may_release(scope, vs, ctx) {
            Self::emit(scope, entry, ctx);
        } else {
            pending.insert((vs, entry.e1.id));
        }
    }

    fn emit(scope: NegationScope, entry: &mut Entry, ctx: &mut OpContext) {
        ctx.out.insert(output_of(scope, &entry.e1));
        entry.emitted = true;
    }

    /// Drop the leading candidates whose `Vs` satisfies `gone`, which must
    /// be monotone (once false for a `Vs`, false for every later one).
    fn drop_candidates_while(&mut self, gone: impl Fn(TimePoint) -> bool) {
        while let Some(entry) = self.entries_by_vs.first_entry() {
            let (vs, id) = *entry.key();
            if !gone(vs) {
                break;
            }
            entry.remove();
            self.entries.remove(&id);
            self.pending.remove(&(vs, id));
        }
    }

    /// Admit a negator into the `(vs, id)` index; `true` iff it is fresh
    /// (not a duplicate delivery).
    fn admit_negator(&mut self, event: &Event) -> bool {
        if self.e2s.contains_key(&event.id) {
            return false;
        }
        self.e2s.insert(event.id, event.clone());
        self.e2s_by_vs.insert((event.vs(), event.id), ());
        true
    }

    /// Kill every candidate an (already admitted) negator negates,
    /// repairing optimistic output. Reads only candidate state.
    fn negator_kill_sweep(&mut self, event: &Event, ctx: &mut OpContext) {
        // Which candidates does this negator kill?
        let affected: Vec<EventId> = match self.scope {
            NegationScope::After { w } => {
                // e1.Vs ∈ (e2.Vs − w, e2.Vs).
                let lo = event.vs() - w;
                self.entries_by_vs
                    .range((lo, EventId(0))..(event.vs() + Duration(1), EventId(0)))
                    .map(|((_, id), _)| *id)
                    .collect()
            }
            // (vs, id) index order, not hash order: the kill sweep's
            // emission order must be deterministic.
            NegationScope::History => self.entries_by_vs.keys().map(|&(_, id)| id).collect(),
        };
        for e1_id in affected {
            let Some(entry) = self.entries.get(&e1_id) else {
                continue;
            };
            if !self.negates(&entry.e1, event) {
                continue;
            }
            let entry = self.entries.get_mut(&e1_id).expect("present");
            let was_clear = entry.killers.is_empty();
            entry.killers.insert(event.id);
            self.kill_index.entry(event.id).or_default().push(e1_id);
            if !was_clear {
                continue;
            }
            if entry.emitted {
                // Repair the optimistic output.
                ctx.out.retract_full(output_of(self.scope, &entry.e1));
                entry.emitted = false;
            } else {
                self.pending.remove(&(entry.e1.vs(), e1_id));
            }
        }
    }

    /// One arrival: a candidate (input 0) or a negator (input 1).
    fn insert_one(&mut self, input: usize, event: &Event, ctx: &mut OpContext) {
        if event.interval.is_empty() {
            return;
        }
        if input == 0 {
            if self.entries.contains_key(&event.id) {
                return; // duplicate
            }
            let mut entry = Entry {
                e1: event.clone(),
                killers: IdSet::default(),
                emitted: false,
            };
            // Known negators already in scope?
            let (a, b) = self.scope_of(event);
            for ((vs, e2id), _) in self
                .e2s_by_vs
                .range((a, EventId(0))..(b + Duration(1), EventId(0)))
            {
                if *vs <= a || *vs >= b {
                    continue;
                }
                let e2 = &self.e2s[e2id];
                if self.neg_pred.eval_tuple(&[event, e2]) {
                    entry.killers.insert(*e2id);
                    self.kill_index.entry(*e2id).or_default().push(event.id);
                }
            }
            if entry.killers.is_empty() {
                Self::release_or_hold(self.scope, &mut self.pending, &mut entry, ctx);
            }
            self.entries_by_vs.insert((event.vs(), event.id), ());
            self.entries.insert(event.id, entry);
        } else if self.admit_negator(event) {
            self.negator_kill_sweep(event, ctx);
        }
    }

    /// One retraction, of a candidate (input 0) or a negator (input 1).
    fn retract_one(&mut self, input: usize, r: &Retraction, ctx: &mut OpContext) {
        if !r.is_full_removal() {
            // Lifetimes don't matter to negation; keep stored copies fresh.
            if input == 0 {
                if let Some(entry) = self.entries.get_mut(&r.event.id) {
                    let new_end = TimePoint::min_of(entry.e1.interval.end, r.new_end);
                    entry.e1.interval = Interval::new(entry.e1.interval.start, new_end);
                }
            } else if let Some(e2) = self.e2s.get_mut(&r.event.id) {
                let new_end = TimePoint::min_of(e2.interval.end, r.new_end);
                e2.interval = Interval::new(e2.interval.start, new_end);
            }
            return;
        }
        if input == 0 {
            let Some(entry) = self.entries.remove(&r.event.id) else {
                return;
            };
            let key = (entry.e1.vs(), entry.e1.id);
            self.entries_by_vs.remove(&key);
            self.pending.remove(&key);
            if entry.emitted {
                ctx.out.retract_full(output_of(self.scope, &entry.e1));
            }
        } else {
            if self.e2s.remove(&r.event.id).is_none() {
                return;
            }
            self.e2s_by_vs.remove(&(r.event.interval.start, r.event.id));
            // Revive candidates this negator was (solely) killing.
            for e1_id in self.kill_index.remove(&r.event.id).unwrap_or_default() {
                let Some(entry) = self.entries.get_mut(&e1_id) else {
                    continue;
                };
                entry.killers.remove(&r.event.id);
                if entry.killers.is_empty() && !entry.emitted {
                    Self::release_or_hold(self.scope, &mut self.pending, entry, ctx);
                }
            }
        }
    }
}

impl OperatorModule for NegationOp {
    fn name(&self) -> &'static str {
        match self.scope {
            NegationScope::After { .. } => "unless",
            NegationScope::History => "cancel_when",
        }
    }

    fn arity(&self) -> usize {
        2
    }

    /// Batch-grained admission for negator runs: a run of pure inserts on
    /// input 1 enters the `(vs, id)` index in one pass, then each negator
    /// runs its kill sweep in arrival order. The sweep reads only
    /// *candidate* state — which a negator run cannot change — so
    /// emissions are bit-identical to delivery in runs of one. Mixed or
    /// candidate runs are handled one message at a time (each candidate's
    /// processing is already independent of its run siblings).
    fn on_batch(&mut self, input: usize, msgs: &[Message], ctx: &mut OpContext) {
        if input == 1 && msgs.len() > 1 && msgs.iter().all(|m| matches!(m, Message::Insert(_))) {
            let mut fresh: Vec<Arc<Event>> = Vec::with_capacity(msgs.len());
            for m in msgs {
                if let Message::Insert(e) = m {
                    if !e.interval.is_empty() && self.admit_negator(e) {
                        fresh.push(e.clone());
                    }
                }
            }
            for e in fresh {
                self.negator_kill_sweep(&e, ctx);
            }
            return;
        }
        for m in msgs {
            match m {
                Message::Insert(e) => self.insert_one(input, e, ctx),
                Message::Retract(r) => self.retract_one(input, r, ctx),
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
    }

    fn on_advance(&mut self, ctx: &mut OpContext) {
        // 1. Release from the front of `pending`: the first candidate that
        //    is neither confirmed nor optimistically releasable ends the
        //    pass (both conditions are monotone in `Vs`), so the work is
        //    the number released, in `(Vs, id)` order.
        let scope = self.scope;
        while let Some(&(vs, id)) = self.pending.first() {
            if !may_release(scope, vs, ctx) {
                break;
            }
            self.pending.pop_first();
            let entry = self.entries.get_mut(&id).expect("pending ⊆ entries");
            Self::emit(scope, entry, ctx);
        }
        //    Seal the prefix whose scope the watermark covers — final: no
        //    future negator (sync ≥ watermark ≥ scope end) nor a removal
        //    of e1 (sync = e1.Vs < watermark) can arrive.
        let watermark = ctx.watermark;
        self.drop_candidates_while(|vs| watermark >= scope_end(scope, vs) && watermark > vs);
        // 2. Forget candidates below the memory horizon (weak consistency):
        //    emitted outputs stand unrepaired.
        let horizon = ctx.horizon();
        self.drop_candidates_while(|vs| vs < horizon);
        // 3. Purge negators that can no longer affect anything.
        let negator_bound = match self.scope {
            // Future candidates have Vs ≥ watermark; a negator with
            // Vs ≤ watermark can only kill candidates already present
            // (recorded in their killer sets), and its own removal (sync =
            // its Vs < watermark) can no longer arrive.
            NegationScope::After { .. } => ctx.watermark,
            // Future candidates can reach arbitrarily far back (Rt is
            // unbounded) unless the planner bounds the history.
            NegationScope::History => match self.max_history {
                Some(d) => TimePoint::max_of(ctx.watermark - d, horizon),
                None => horizon,
            },
        };
        let bound = TimePoint::max_of(negator_bound, horizon);
        if bound > TimePoint::ZERO {
            let dead: Vec<(TimePoint, EventId)> = self
                .e2s_by_vs
                .range(..(bound, EventId(0)))
                .map(|(&k, _)| k)
                .collect();
            for (vs, id) in dead {
                self.e2s_by_vs.remove(&(vs, id));
                self.e2s.remove(&id);
                // Only read when this negator's own removal arrives, which
                // the purge bound has just ruled out.
                self.kill_index.remove(&id);
            }
        }
    }

    fn state_size(&self) -> usize {
        self.entries.len() + self.e2s.len()
    }

    fn cti_lag(&self) -> Duration {
        match self.scope {
            NegationScope::After { w } => w,
            NegationScope::History => Duration::ZERO,
        }
    }

    fn state_snapshot(&self, out: &mut Vec<u8>) {
        use cedr_durable::Persist;
        // Entries sorted by candidate ID; the `*_by_vs` indexes and
        // `pending` are derived and rebuilt on restore.
        let mut ids: Vec<EventId> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        (ids.len() as u64).encode(out);
        for id in ids {
            let entry = &self.entries[&id];
            id.encode(out);
            entry.e1.encode(out);
            let mut killers: Vec<EventId> = entry.killers.iter().copied().collect();
            killers.sort_unstable();
            killers.encode(out);
            entry.emitted.encode(out);
        }
        let mut e2s: Vec<(EventId, Event)> =
            self.e2s.iter().map(|(&id, e)| (id, e.clone())).collect();
        e2s.sort_unstable_by_key(|&(id, _)| id);
        e2s.encode(out);
        let mut kills: Vec<EventId> = self.kill_index.keys().copied().collect();
        kills.sort_unstable();
        (kills.len() as u64).encode(out);
        for id in kills {
            id.encode(out);
            // Kill order is sweep order: preserved as-is.
            self.kill_index[&id].encode(out);
        }
    }

    fn state_restore(
        &mut self,
        r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        self.entries.clear();
        self.entries_by_vs.clear();
        self.pending.clear();
        for _ in 0..u64::decode(r)? {
            let id = EventId::decode(r)?;
            let e1 = Event::decode(r)?;
            let killers: IdSet = Vec::<EventId>::decode(r)?.into_iter().collect();
            let emitted = bool::decode(r)?;
            self.entries_by_vs.insert((e1.vs(), id), ());
            if !emitted && killers.is_empty() {
                self.pending.insert((e1.vs(), id));
            }
            self.entries.insert(
                id,
                Entry {
                    e1,
                    killers,
                    emitted,
                },
            );
        }
        self.e2s.clear();
        self.e2s_by_vs.clear();
        for (id, e) in Vec::<(EventId, Event)>::decode(r)? {
            self.e2s_by_vs.insert((e.vs(), id), ());
            self.e2s.insert(id, e);
        }
        self.kill_index.clear();
        for _ in 0..u64::decode(r)? {
            let id = EventId::decode(r)?;
            self.kill_index.insert(id, Vec::<EventId>::decode(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::ConsistencySpec;
    use crate::operator::OperatorShell;
    use cedr_algebra::expr::{CmpOp, Scalar};
    use cedr_streams::Message;
    use cedr_temporal::time::{dur, t};
    use cedr_temporal::{Lineage, Payload, Value};

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

    fn unless_shell(spec: ConsistencySpec) -> OperatorShell {
        OperatorShell::new(Box::new(NegationOp::unless(dur(10), Pred::True)), spec)
    }

    #[test]
    fn middle_emits_optimistically_then_retracts() {
        let mut s = unless_shell(ConsistencySpec::middle());
        let out = s.push(0, Message::insert_event(pt(1, 5)), 0);
        assert_eq!(
            out.iter().filter(|m| m.is_data()).count(),
            1,
            "optimistic UNLESS output at once"
        );
        // The negating event arrives: the output is repaired.
        let out2 = s.push(1, Message::insert_event(pt(2, 8)), 1);
        let r = out2[0].as_retract().unwrap();
        assert!(r.is_full_removal());
        assert_eq!(r.event.id, EventId(1));
    }

    #[test]
    fn strong_blocks_until_scope_confirmed() {
        let mut s = unless_shell(ConsistencySpec::strong());
        // Deliver candidate under a watermark that covers it but not its scope.
        s.push(0, Message::Cti(t(6)), 0);
        s.push(1, Message::Cti(t(6)), 1);
        let out = s.push(0, Message::insert_event(pt(1, 5)), 2);
        assert_eq!(
            out.iter().filter(|m| m.is_data()).count(),
            0,
            "no output before the scope (5,15) is confirmed"
        );
        // Advance the guarantee past the scope end.
        s.push(0, Message::Cti(t(20)), 3);
        let out2 = s.push(1, Message::Cti(t(20)), 4);
        assert_eq!(out2.iter().filter(|m| m.is_data()).count(), 1);
        assert_eq!(s.stats().out_retractions, 0, "strong never repairs");
    }

    #[test]
    fn strong_suppresses_negated_candidates_silently() {
        let mut s = unless_shell(ConsistencySpec::strong());
        s.push(0, Message::insert_event(pt(1, 5)), 0);
        s.push(1, Message::insert_event(pt(2, 8)), 1);
        let out1 = s.push(0, Message::Cti(t(30)), 2);
        let out2 = s.push(1, Message::Cti(t(30)), 3);
        let data: usize = [&out1, &out2]
            .iter()
            .map(|o| o.iter().filter(|m| m.is_data()).count())
            .sum();
        assert_eq!(data, 0, "negated: no output, no retraction");
    }

    #[test]
    fn negator_removal_revives_candidate() {
        let mut s = unless_shell(ConsistencySpec::middle());
        let e2 = pt(2, 8);
        s.push(1, Message::insert_event(e2.clone()), 0);
        let out = s.push(0, Message::insert_event(pt(1, 5)), 1);
        assert_eq!(
            out.iter().filter(|m| m.is_data()).count(),
            0,
            "killed on arrival by known negator"
        );
        // The negator is itself removed: the UNLESS output is revived.
        let out2 = s.push(1, Message::Retract(Retraction::new(e2, t(8))), 2);
        assert_eq!(out2.iter().filter(|m| m.is_data()).count(), 1);
        assert!(out2[0].as_insert().is_some());
    }

    #[test]
    fn unless_scope_bounds_are_strict() {
        let mut s = unless_shell(ConsistencySpec::middle());
        s.push(0, Message::insert_event(pt(1, 5)), 0);
        // Negators exactly at Vs and Vs+w do not kill.
        let o1 = s.push(1, Message::insert_event(pt(2, 5)), 1);
        let o2 = s.push(1, Message::insert_event(pt(3, 15)), 2);
        assert!(o1.iter().all(|m| !m.is_data()));
        assert!(o2.iter().all(|m| !m.is_data()));
    }

    #[test]
    fn predicate_injected_negation() {
        let pred = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        let mut s = OperatorShell::new(
            Box::new(NegationOp::unless(dur(10), pred)),
            ConsistencySpec::middle(),
        );
        s.push(0, Message::insert_event(ptp(1, 5, "m1")), 0);
        // Other machine's restart: no kill.
        let o = s.push(1, Message::insert_event(ptp(2, 8, "m2")), 1);
        assert!(o.iter().all(|m| !m.is_data()));
        // Same machine: kill.
        let o2 = s.push(1, Message::insert_event(ptp(3, 9, "m1")), 2);
        assert_eq!(o2.iter().filter(|m| m.is_data()).count(), 1);
        assert!(o2[0].as_retract().is_some());
    }

    #[test]
    fn unless_output_cti_lags_by_scope() {
        let mut s = unless_shell(ConsistencySpec::middle());
        let out = s.push(0, Message::Cti(t(25)), 0);
        // Need both inputs' guarantees.
        assert!(out.iter().all(|m| m.as_cti().is_none()));
        let out2 = s.push(1, Message::Cti(t(25)), 1);
        assert_eq!(out2.last().and_then(|m| m.as_cti()), Some(t(15)));
    }

    #[test]
    fn cancel_when_kills_on_pending_window() {
        // Candidate composite: rt=1, vs=10.
        let e1 = Event::composite(
            EventId(50),
            Interval::new(t(10), t(20)),
            t(1),
            Lineage::of(vec![EventId(1), EventId(2)]),
            Payload::empty(),
        );
        let mut s = OperatorShell::new(
            Box::new(NegationOp::history(Pred::True)),
            ConsistencySpec::middle(),
        );
        // Canceller at 5 ∈ (1,10), arrives first.
        s.push(1, Message::insert_event(pt(9, 5)), 0);
        let out = s.push(0, Message::insert_event(e1.clone()), 1);
        assert!(out.iter().all(|m| !m.is_data()), "cancelled");
        // A candidate with rt after the canceller survives.
        let e1b = Event::composite(
            EventId(51),
            Interval::new(t(10), t(20)),
            t(7),
            Lineage::of(vec![EventId(3), EventId(4)]),
            Payload::empty(),
        );
        let out2 = s.push(0, Message::insert_event(e1b), 2);
        assert_eq!(out2.iter().filter(|m| m.is_data()).count(), 1);
    }

    #[test]
    fn cancel_when_late_canceller_retracts() {
        let e1 = Event::composite(
            EventId(50),
            Interval::new(t(10), t(20)),
            t(1),
            Lineage::of(vec![EventId(1), EventId(2)]),
            Payload::empty(),
        );
        let mut s = OperatorShell::new(
            Box::new(NegationOp::history(Pred::True)),
            ConsistencySpec::middle(),
        );
        let out = s.push(0, Message::insert_event(e1), 0);
        assert_eq!(out.iter().filter(|m| m.is_data()).count(), 1, "optimistic");
        // Canceller arrives late (out of order): repair.
        let out2 = s.push(1, Message::insert_event(pt(9, 5)), 1);
        assert_eq!(out2.iter().filter(|m| m.is_data()).count(), 1);
        assert!(out2[0].as_retract().is_some());
    }

    #[test]
    fn strong_release_run_cannot_outrun_candidates_own_removal() {
        // Regression: a candidate and its own full removal (same sync)
        // align together and release in one same-port run. The run's
        // watermark must not overtake the still-undelivered removal, or
        // Strong would confirm the UNLESS output and then retract it —
        // the per-message path emits nothing here.
        let mut s = OperatorShell::new(
            Box::new(NegationOp::unless(dur(2), Pred::True)),
            ConsistencySpec::strong(),
        );
        let e1 = Event::primitive(EventId(1), Interval::new(t(5), t(30)), Payload::empty());
        s.push(0, Message::insert_event(e1.clone()), 0);
        s.push(0, Message::Retract(Retraction::new(e1, t(5))), 1);
        let mut out = s.push(0, Message::Cti(t(10)), 2);
        out.extend(s.push(1, Message::Cti(t(10)), 3));
        assert!(
            out.iter().all(|m| !m.is_data()),
            "removed candidate must be suppressed silently, got {out:?}"
        );
        assert_eq!(s.stats().out_retractions, 0, "strong never repairs");
    }

    fn keyed_unless_shell(spec: ConsistencySpec) -> OperatorShell {
        let same_key = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        OperatorShell::new(Box::new(NegationOp::unless(dur(10), same_key)), spec)
    }

    /// Advance both inputs' guarantee to `to`; the outputs of both pushes.
    fn cti_both(s: &mut OperatorShell, to: u64, now: u64) -> Vec<Message> {
        let mut out = s.push(0, Message::Cti(t(to)), now);
        out.extend(s.push(1, Message::Cti(t(to)), now));
        out
    }

    fn inserted_ids(out: &[Message]) -> Vec<u64> {
        out.iter()
            .filter_map(|m| m.as_insert())
            .map(|e| e.id.0)
            .collect()
    }

    enum Step {
        Data(usize, Message),
        /// Advance both inputs' guarantee.
        Cti(u64),
    }

    /// A Strong trace that leaves candidates held in the module across
    /// several guarantees. Candidate 3 is killed while held and revived by
    /// its negator's removal; candidate 5's negator stays.
    fn strong_held_trace() -> Vec<Step> {
        let candidate = |id, vs, key| Step::Data(0, Message::insert_event(ptp(id, vs, key)));
        let n12 = ptp(90, 12, "k");
        vec![
            candidate(2, 7, "b"),
            candidate(3, 7, "k"),
            candidate(1, 5, "a"),
            candidate(4, 9, "c"),
            candidate(5, 9, "z"),
            Step::Cti(10), // all five delivered, none confirmed
            Step::Data(1, Message::insert_event(ptp(91, 11, "z"))),
            Step::Data(1, Message::insert_event(n12.clone())),
            Step::Data(1, Message::Retract(Retraction::new(n12, t(12)))),
            Step::Cti(13), // negators (and the removal) delivered
            Step::Cti(15), // confirms candidate 1
            Step::Cti(17), // confirms 2 and the revived 3, in id order
            Step::Cti(18), // confirms nothing
            Step::Cti(30), // confirms 4; 5 stays negated
        ]
    }

    /// Play `steps`; the IDs each step inserted. Strong never retracts.
    fn play(s: &mut OperatorShell, steps: &[Step]) -> Vec<Vec<u64>> {
        steps
            .iter()
            .enumerate()
            .map(|(now, step)| {
                let out = match step {
                    Step::Data(input, m) => s.push(*input, m.clone(), now as u64),
                    Step::Cti(to) => cti_both(s, *to, now as u64),
                };
                assert!(out.iter().all(|m| m.as_retract().is_none()));
                inserted_ids(&out)
            })
            .collect()
    }

    #[test]
    fn strong_releases_held_candidates_in_vs_id_order_as_guarantees_arrive() {
        let mut s = keyed_unless_shell(ConsistencySpec::strong());
        let released: Vec<Vec<u64>> = play(&mut s, &strong_held_trace())
            .into_iter()
            .filter(|ids| !ids.is_empty())
            .collect();
        assert_eq!(released, vec![vec![1], vec![2, 3], vec![4]]);
        assert_eq!(s.stats().out_retractions, 0, "strong never repairs");
        assert_eq!(s.module().state_size(), 0, "everything sealed");
    }

    #[test]
    fn finite_blocking_releases_held_candidates_as_the_stream_advances() {
        // B = 4: a candidate delivered early (covered by a CTI) is held in
        // the module until the stream has advanced 4 past its Vs.
        let spec = ConsistencySpec::custom(dur(4), Duration::INFINITE);
        let mut s = keyed_unless_shell(spec);
        for (now, e) in [ptp(2, 7, "k"), ptp(3, 8, "c"), ptp(1, 6, "a")]
            .into_iter()
            .enumerate()
        {
            s.push(0, Message::insert_event(e), now as u64);
        }
        assert_eq!(inserted_ids(&cti_both(&mut s, 9, 3)), Vec::<u64>::new());
        // A negator arrival moves the optimist's clock to 10 = 6 + 4; the
        // negator itself is still aligned, so candidate 2 is not killed yet.
        let n = ptp(90, 10, "k");
        let out = s.push(1, Message::insert_event(n.clone()), 4);
        assert_eq!(inserted_ids(&out), vec![1]);
        assert!(s
            .push(1, Message::Retract(Retraction::new(n, t(10))), 5)
            .iter()
            .all(|m| !m.is_data()));
        // The clock reaches 11 = 7 + 4 as the negator and its removal are
        // delivered: candidate 2 is killed while held, then revived into an
        // immediate release.
        assert_eq!(inserted_ids(&cti_both(&mut s, 11, 6)), vec![2]);
        assert_eq!(inserted_ids(&cti_both(&mut s, 12, 7)), vec![3]);
        assert_eq!(s.stats().out_retractions, 0);
    }

    #[test]
    fn restore_while_candidates_are_held_continues_identically() {
        let trace = strong_held_trace();
        // Cut after the negators are delivered: 1–4 held, 5 killed.
        let (before, after) = trace.split_at(10);
        let mut unfailed = keyed_unless_shell(ConsistencySpec::strong());
        assert!(play(&mut unfailed, before).iter().all(|ids| ids.is_empty()));
        let mut image = Vec::new();
        unfailed.state_snapshot(&mut image).expect("quiescent");
        let mut restored = keyed_unless_shell(ConsistencySpec::strong());
        restored
            .state_restore(&mut cedr_durable::Reader::new(&image))
            .expect("restore");
        let want = play(&mut unfailed, after);
        assert_eq!(want, vec![vec![1], vec![2, 3], vec![], vec![4]]);
        assert_eq!(play(&mut restored, after), want);
        assert_eq!(restored.module().state_size(), 0);
    }

    #[test]
    fn purged_negators_leave_nothing_behind_in_the_image() {
        // In-order UNLESS rounds: candidate, its negator, then a guarantee
        // that seals the candidate and purges the negator. Live state is
        // constant, so the module image must be too.
        let image_len_after = |rounds: u64| {
            let mut s = unless_shell(ConsistencySpec::middle());
            for i in 0..rounds {
                let base = i * 20;
                s.push(0, Message::insert_event(pt(2 * i, base + 1)), i);
                s.push(1, Message::insert_event(pt(2 * i + 1, base + 5)), i);
                cti_both(&mut s, base + 20, i);
            }
            let mut image = Vec::new();
            s.module().state_snapshot(&mut image);
            (s.module().state_size(), image.len())
        };
        assert_eq!(image_len_after(1000), image_len_after(4000));
    }

    #[test]
    fn weak_forgets_and_leaves_output_unrepaired() {
        let spec = ConsistencySpec::weak(dur(5));
        let mut s = OperatorShell::new(Box::new(NegationOp::unless(dur(10), Pred::True)), spec);
        let out = s.push(0, Message::insert_event(pt(1, 5)), 0);
        assert_eq!(out.iter().filter(|m| m.is_data()).count(), 1);
        // Advance far ahead; the entry is forgotten.
        s.push(0, Message::insert_event(pt(2, 100)), 1);
        // The late negator (sync 8 < horizon 95) is dropped by the monitor:
        // the incorrect optimistic output stands (weak's documented bet).
        let out2 = s.push(1, Message::insert_event(pt(3, 8)), 2);
        assert!(out2.iter().all(|m| !m.is_data()));
        assert_eq!(s.stats().forgotten, 1);
    }

    #[test]
    fn state_purges_after_confirmation() {
        let mut s = unless_shell(ConsistencySpec::middle());
        s.push(0, Message::insert_event(pt(1, 5)), 0);
        s.push(1, Message::insert_event(pt(2, 8)), 1);
        assert!(s.module().state_size() > 0);
        s.push(0, Message::Cti(t(100)), 2);
        s.push(1, Message::Cti(t(100)), 3);
        assert_eq!(s.module().state_size(), 0);
    }
}
