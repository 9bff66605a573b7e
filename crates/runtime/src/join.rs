//! The physical symmetric join (Definition 9, incremental).
//!
//! State: the current version of every live event on each side, optionally
//! hash-partitioned by an equi-key extracted from the θ predicate. Inserts
//! probe the opposite side; retractions recompute the intersection of the
//! shortened event with every current partner and emit the difference —
//! the retraction-repair machinery of the middle consistency level.
//!
//! **Batch-native probing.** A delivery run arrives on one port, so the
//! *opposite* side's index is frozen for the whole run:
//! [`OperatorModule::on_batch`] memoises the sorted candidate list per
//! distinct key (one index lookup + sort per key per run instead of one
//! per message, counted in [`OpStats::probe_batches`](crate::OpStats)).
//! Candidates stay sorted by ID and every message still probes in arrival
//! order, so emissions are **bit-identical** to delivery in runs of one.

use crate::operator::{OpContext, OperatorModule};
use cedr_algebra::expr::{Pred, Scalar};
use cedr_algebra::idgen::idgen;
use cedr_streams::{Message, Retraction};
use cedr_temporal::{Event, EventId, IdMap, IdSet, TimePoint, Value};
use std::collections::HashMap;

#[derive(Default)]
struct SideState {
    events: IdMap<Event>,
    by_key: HashMap<Value, IdSet>,
}

impl SideState {
    fn key_of(key_expr: Option<&Scalar>, e: &Event) -> Value {
        key_expr.map_or(Value::Null, |k| k.eval_event(e))
    }

    fn remove(&mut self, key_expr: Option<&Scalar>, id: EventId) -> Option<Event> {
        let e = self.events.remove(&id)?;
        let key = Self::key_of(key_expr, &e);
        if let Some(set) = self.by_key.get_mut(&key) {
            set.remove(&id);
            if set.is_empty() {
                self.by_key.remove(&key);
            }
        }
        Some(e)
    }
}

/// Incremental θ-join over two retraction-bearing streams.
pub struct JoinOp {
    theta: Pred,
    /// Optional equi-key per side for hash partitioning (extracted from θ's
    /// top-level `left.col = right.col` conjuncts by the planner).
    keys: Option<(Scalar, Scalar)>,
    sides: [SideState; 2],
}

impl JoinOp {
    pub fn new(theta: Pred) -> Self {
        JoinOp {
            theta,
            keys: None,
            sides: [SideState::default(), SideState::default()],
        }
    }

    /// Enable hash partitioning: `left_key(e0) = right_key(e1)` must be
    /// implied by θ (the planner guarantees this; the θ predicate is still
    /// applied in full).
    pub fn with_keys(mut self, left: Scalar, right: Scalar) -> Self {
        self.keys = Some((left, right));
        self
    }

    fn key_expr(&self, side: usize) -> Option<&Scalar> {
        self.keys
            .as_ref()
            .map(|(l, r)| if side == 0 { l } else { r })
    }

    fn make_output(&self, left: &Event, right: &Event) -> Event {
        Event {
            id: idgen(&[left.id, right.id]),
            interval: left.interval.intersect(&right.interval),
            root_time: TimePoint::min_of(left.root_time, right.root_time),
            lineage: [left.id, right.id].into_iter().collect(),
            payload: left.payload.concat(&right.payload),
        }
    }

    /// Candidate partner IDs on `side` for an event with the given key, in
    /// ascending ID order. The probe's *emission order* follows this list,
    /// and every bit-identity pin (threaded ≡ serial, restored ≡ unfailed)
    /// relies on operator output being a pure function of delivered input
    /// — hash-iteration order must never leak out.
    fn candidates(&self, side: usize, key: &Value) -> Vec<EventId> {
        let mut ids: Vec<EventId> = if self.keys.is_some() {
            self.sides[side]
                .by_key
                .get(key)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()
        } else {
            self.sides[side].events.keys().copied().collect()
        };
        ids.sort_unstable();
        ids
    }

    fn oriented<'a>(&self, input: usize, e: &'a Event, p: &'a Event) -> (&'a Event, &'a Event) {
        if input == 0 {
            (e, p)
        } else {
            (p, e)
        }
    }

    /// Insert with a per-run probe memo. A run arrives on one port, so the
    /// opposite side is frozen for its duration and `memo` caches the
    /// sorted candidate list per distinct key — emissions are identical to
    /// an unmemoised probe.
    fn insert_with_memo(
        &mut self,
        input: usize,
        event: &Event,
        ctx: &mut OpContext,
        memo: &mut ProbeMemo,
    ) {
        if event.interval.is_empty() {
            return;
        }
        let other = 1 - input;
        let key = SideState::key_of(self.key_expr(input), event);

        // Store (idempotent: duplicate deliveries are ignored).
        let side = &mut self.sides[input];
        if side.events.contains_key(&event.id) {
            return;
        }
        side.events.insert(event.id, event.clone());
        side.by_key.entry(key.clone()).or_default().insert(event.id);

        let cands = memo
            .entry(key.clone())
            .or_insert_with(|| self.candidates(other, &key));
        for pid in cands.iter() {
            let Some(p) = self.sides[other].events.get(pid) else {
                continue;
            };
            let (l, r) = self.oriented(input, event, p);
            if !l.interval.overlaps(&r.interval) {
                continue;
            }
            if !self.theta.eval_tuple(&[l, r]) {
                continue;
            }
            ctx.out.insert(self.make_output(l, r));
        }
    }

    /// Retraction with the same per-run probe memo as
    /// [`JoinOp::insert_with_memo`] (own-side mutations never invalidate
    /// the memo: candidates live on the opposite, frozen side).
    fn retract_with_memo(
        &mut self,
        input: usize,
        r: &Retraction,
        ctx: &mut OpContext,
        memo: &mut ProbeMemo,
    ) {
        let other = 1 - input;
        let Some(old) = self.sides[input].events.get(&r.event.id).cloned() else {
            // Insert was forgotten (weak) or already purged: nothing to repair.
            return;
        };
        // Retractions may arrive out of order; only ever shrink.
        let new_end = TimePoint::min_of(old.interval.end, r.new_end);
        if new_end >= old.interval.end {
            return;
        }
        let shortened = old.shortened(new_end);
        let key = SideState::key_of(self.key_expr(input), &old);

        // Repair every derived output.
        let cands = memo
            .entry(key.clone())
            .or_insert_with(|| self.candidates(other, &key));
        for pid in cands.iter() {
            let Some(p) = self.sides[other].events.get(pid) else {
                continue;
            };
            let (l_old, r_old) = self.oriented(input, &old, p);
            let old_iv = l_old.interval.intersect(&r_old.interval);
            if old_iv.is_empty() {
                continue;
            }
            if !self.theta.eval_tuple(&[l_old, r_old]) {
                continue;
            }
            let (l_new, r_new) = self.oriented(input, &shortened, p);
            let new_iv = l_new.interval.intersect(&r_new.interval);
            let out_old = self.make_output(l_old, r_old);
            if new_iv.is_empty() {
                ctx.out.retract_full(out_old);
            } else if new_iv.end < old_iv.end {
                ctx.out.retract_to(out_old, new_iv.end);
            }
        }

        // Update state.
        if shortened.interval.is_empty() {
            let key_expr = self.key_expr(input).cloned();
            self.sides[input].remove(key_expr.as_ref(), old.id);
        } else {
            self.sides[input].events.insert(old.id, shortened);
        }
    }
}

/// Per-run candidate cache: key → sorted opposite-side candidate IDs.
type ProbeMemo = HashMap<Value, Vec<EventId>>;

impl OperatorModule for JoinOp {
    fn name(&self) -> &'static str {
        "join"
    }

    fn arity(&self) -> usize {
        2
    }

    /// Batch-native probe: one candidate lookup per distinct key for the
    /// whole run (the opposite side is frozen while a run is delivered),
    /// messages probed in arrival order — emissions are bit-identical to
    /// delivery in runs of one.
    fn on_batch(&mut self, input: usize, msgs: &[Message], ctx: &mut OpContext) {
        let mut memo = ProbeMemo::new();
        if msgs.len() > 1 {
            ctx.effort.probe_batches += 1;
        }
        for m in msgs {
            match m {
                Message::Insert(e) => self.insert_with_memo(input, e, ctx, &mut memo),
                Message::Retract(r) => self.retract_with_memo(input, r, ctx, &mut memo),
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
    }

    fn on_advance(&mut self, ctx: &mut OpContext) {
        // Events whose lifetime ends at or before the purge bound can no
        // longer join future inputs (their Vs ≥ watermark) nor be retracted
        // (a retraction's sync = new_end < Ve ≤ watermark cannot arrive).
        let bound = TimePoint::max_of(ctx.watermark, ctx.horizon());
        if bound == TimePoint::ZERO {
            return;
        }
        for side in 0..2 {
            let dead: Vec<EventId> = self.sides[side]
                .events
                .values()
                .filter(|e| e.interval.end <= bound)
                .map(|e| e.id)
                .collect();
            let key_expr = self.key_expr(side).cloned();
            for id in dead {
                self.sides[side].remove(key_expr.as_ref(), id);
            }
        }
    }

    fn state_size(&self) -> usize {
        self.sides[0].events.len() + self.sides[1].events.len()
    }

    fn state_snapshot(&self, out: &mut Vec<u8>) {
        use cedr_durable::Persist;
        // Only live events per side; `by_key` is derived and rebuilt.
        for side in &self.sides {
            let mut events: Vec<(EventId, Event)> =
                side.events.iter().map(|(&id, e)| (id, e.clone())).collect();
            events.sort_unstable_by_key(|&(id, _)| id);
            events.encode(out);
        }
    }

    fn state_restore(
        &mut self,
        r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        for input in 0..2 {
            let events = Vec::<(EventId, Event)>::decode(r)?;
            let key_expr = self.key_expr(input).cloned();
            let side = &mut self.sides[input];
            side.events.clear();
            side.by_key.clear();
            for (id, e) in events {
                let key = SideState::key_of(key_expr.as_ref(), &e);
                side.by_key.entry(key).or_default().insert(id);
                side.events.insert(id, e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::ConsistencySpec;
    use crate::operator::OperatorShell;
    use cedr_algebra::expr::CmpOp;
    use cedr_streams::Message;
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::t;
    use cedr_temporal::{Payload, Value};

    fn ev(id: u64, a: u64, b: u64, k: i64) -> Event {
        Event::primitive(
            EventId(id),
            iv(a, b),
            Payload::from_values(vec![Value::Int(k)]),
        )
    }

    fn equi_join() -> JoinOp {
        JoinOp::new(Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0)))
            .with_keys(Scalar::Field(0), Scalar::Field(0))
    }

    #[test]
    fn insert_probe_emits_intersection() {
        let mut s = OperatorShell::new(Box::new(equi_join()), ConsistencySpec::middle());
        assert!(s
            .push(0, Message::insert_event(ev(1, 0, 10, 7)), 0)
            .is_empty());
        let out = s.push(1, Message::insert_event(ev(2, 5, 20, 7)), 1);
        assert_eq!(out.len(), 1);
        let j = out[0].as_insert().unwrap();
        assert_eq!(j.interval, iv(5, 10));
        assert_eq!(j.payload.len(), 2);
    }

    #[test]
    fn key_mismatch_produces_nothing() {
        let mut s = OperatorShell::new(Box::new(equi_join()), ConsistencySpec::middle());
        s.push(0, Message::insert_event(ev(1, 0, 10, 7)), 0);
        let out = s.push(1, Message::insert_event(ev(2, 5, 20, 8)), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn retraction_shrinks_derived_output() {
        let mut s = OperatorShell::new(Box::new(equi_join()), ConsistencySpec::middle());
        let l = ev(1, 0, 10, 7);
        s.push(0, Message::insert_event(l.clone()), 0);
        let out = s.push(1, Message::insert_event(ev(2, 2, 20, 7)), 1);
        let joined = out[0].as_insert().unwrap().clone();
        assert_eq!(joined.interval, iv(2, 10));
        // Retract left to [0,5): output shrinks to [2,5).
        let out2 = s.push(0, Message::Retract(Retraction::new(l, t(5))), 2);
        let r = out2[0].as_retract().unwrap();
        assert_eq!(r.event.id, joined.id);
        assert_eq!(r.new_end, t(5));
    }

    #[test]
    fn retraction_below_partner_start_removes_output() {
        let mut s = OperatorShell::new(Box::new(equi_join()), ConsistencySpec::middle());
        let l = ev(1, 0, 10, 7);
        s.push(0, Message::insert_event(l.clone()), 0);
        s.push(1, Message::insert_event(ev(2, 6, 20, 7)), 1);
        // [0,10) → [0,3): intersection with [6,20) becomes empty.
        let out = s.push(0, Message::Retract(Retraction::new(l, t(3))), 2);
        let r = out[0].as_retract().unwrap();
        assert!(r.is_full_removal());
    }

    #[test]
    fn chained_retractions_from_both_sides() {
        let mut s = OperatorShell::new(Box::new(equi_join()), ConsistencySpec::middle());
        let l = ev(1, 0, 100, 7);
        let rr = ev(2, 0, 100, 7);
        s.push(0, Message::insert_event(l.clone()), 0);
        s.push(1, Message::insert_event(rr.clone()), 1);
        // Shrink right to [0,50): output [0,100) → [0,50).
        let o1 = s.push(1, Message::Retract(Retraction::new(rr, t(50))), 2);
        assert_eq!(o1[0].as_retract().unwrap().new_end, t(50));
        // Then shrink left to [0,20): the *current* output [0,50) → [0,20).
        let o2 = s.push(0, Message::Retract(Retraction::new(l, t(20))), 3);
        let r = o2[0].as_retract().unwrap();
        assert_eq!(r.event.interval, iv(0, 50), "repairs the current version");
        assert_eq!(r.new_end, t(20));
    }

    #[test]
    fn duplicate_inserts_are_idempotent() {
        let mut s = OperatorShell::new(Box::new(equi_join()), ConsistencySpec::middle());
        s.push(0, Message::insert_event(ev(1, 0, 10, 7)), 0);
        s.push(1, Message::insert_event(ev(2, 0, 10, 7)), 1);
        let out = s.push(1, Message::insert_event(ev(2, 0, 10, 7)), 2);
        assert!(out.is_empty(), "duplicate delivery produces no new output");
    }

    #[test]
    fn watermark_purges_dead_state() {
        let mut s = OperatorShell::new(Box::new(equi_join()), ConsistencySpec::middle());
        s.push(0, Message::insert_event(ev(1, 0, 10, 7)), 0);
        s.push(1, Message::insert_event(ev(2, 0, 10, 7)), 1);
        assert_eq!(s.module().state_size(), 2);
        s.push(0, Message::Cti(t(50)), 2);
        s.push(1, Message::Cti(t(50)), 3);
        assert_eq!(s.module().state_size(), 0, "both events ended before 50");
    }

    #[test]
    fn theta_join_without_keys_scans() {
        // Non-equi θ: left.value < right.value.
        let theta = Pred::cmp(Scalar::Of(0, 0), CmpOp::Lt, Scalar::Of(1, 0));
        let mut s = OperatorShell::new(Box::new(JoinOp::new(theta)), ConsistencySpec::middle());
        s.push(0, Message::insert_event(ev(1, 0, 10, 5)), 0);
        s.push(0, Message::insert_event(ev(2, 0, 10, 9)), 1);
        let out = s.push(1, Message::insert_event(ev(3, 0, 10, 7)), 2);
        assert_eq!(out.len(), 1, "only 5 < 7 qualifies");
    }

    #[test]
    fn retraction_of_forgotten_event_is_ignored() {
        let mut s = OperatorShell::new(Box::new(equi_join()), ConsistencySpec::middle());
        let ghost = ev(99, 0, 10, 7);
        let out = s.push(0, Message::Retract(Retraction::new(ghost, t(5))), 0);
        assert!(out.is_empty());
    }
}
