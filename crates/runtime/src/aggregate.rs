//! The physical group-by/aggregate with view-update semantics.
//!
//! Per group the operator maintains the live member events and the
//! currently-emitted step function of the aggregate (one output event per
//! maximal constant segment, exactly as the denotational
//! `cedr_algebra::group_aggregate`). Any state change triggers a
//! recompute-and-diff of the affected group: removed segments are fully
//! retracted, added segments inserted — so out-of-order arrivals and input
//! retractions repair optimistic output with retractions, the middle-level
//! behaviour of Section 5.
//!
//! **Flushing.** Output below the watermark is final. Each group tracks a
//! `floor`: the point up to which its step function has been flushed.
//! Events wholly below the floor are dropped and recomputation clips member
//! lifetimes to the floor, so state stays proportional to the *live* window
//! rather than the whole history. The floor only advances to a segment
//! boundary (never splits an emitted segment), which keeps emitted and
//! recomputed segments aligned.
//!
//! **Batch-native delivery.** [`OperatorModule::on_batch`] folds a whole
//! delivery run into group state first and then emits **one refresh per
//! touched group per run** (in first-touch order), instead of one refresh
//! per state-changing message: the intermediate step functions a finer
//! batching would have published-and-repaired are never emitted. Net
//! content, output guarantee and per-run determinism are unchanged; see
//! the one-refresh-per-run contract
//! in the [`operator`](crate::operator) module docs. Members are still
//! sorted before folding, so order-sensitive float aggregates (Sum/Avg)
//! stay pinned.

use crate::operator::{OpContext, OperatorModule};
use cedr_algebra::expr::Scalar;
use cedr_algebra::relational::AggFunc;
use cedr_streams::{Message, Retraction};
use cedr_temporal::{Event, EventId, IdMap, Interval, TimePoint, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

#[derive(Default)]
struct GroupState {
    members: IdMap<Event>,
    /// Currently-emitted segments, keyed by start (maximal constant
    /// segments never share a start).
    emitted: BTreeMap<TimePoint, Event>,
    /// Everything below this is flushed and immutable.
    floor: TimePoint,
}

/// Incremental group-by + aggregate.
pub struct GroupAggregateOp {
    key: Vec<Scalar>,
    agg: AggFunc,
    groups: HashMap<Vec<Value>, GroupState>,
}

impl GroupAggregateOp {
    pub fn new(key: Vec<Scalar>, agg: AggFunc) -> Self {
        GroupAggregateOp {
            key,
            agg,
            groups: HashMap::new(),
        }
    }

    /// A global (ungrouped) aggregate.
    pub fn global(agg: AggFunc) -> Self {
        Self::new(Vec::new(), agg)
    }

    fn group_key(&self, e: &Event) -> Vec<Value> {
        self.key.iter().map(|s| s.eval_event(e)).collect()
    }

    /// Recompute the group's segments above its floor and emit the diff
    /// (one *refresh*: the retract+insert pair-set of the step-function
    /// change, counted in [`OpStats::group_refreshes`](crate::OpStats)).
    fn refresh(key: &[Scalar], agg: &AggFunc, g: &mut GroupState, ctx: &mut OpContext) {
        ctx.effort.group_refreshes += 1;
        // Clip members to the floor; drop empties.
        let mut clipped: Vec<Event> = g
            .members
            .values()
            .filter_map(|e| {
                let iv =
                    Interval::new(TimePoint::max_of(e.interval.start, g.floor), e.interval.end);
                if iv.is_empty() {
                    None
                } else {
                    let mut c = e.clone();
                    c.interval = iv;
                    Some(c)
                }
            })
            .collect();
        // Deterministic member order before aggregation: float Sum/Avg are
        // order-sensitive, so hash-iteration order must not reach the
        // evaluator (output must be a pure function of delivered input).
        clipped.sort_unstable_by_key(|e| (e.interval.start, e.id));
        let fresh = cedr_algebra::relational::group_aggregate(&clipped, key, agg);
        let fresh_by_start: BTreeMap<TimePoint, Event> =
            fresh.into_iter().map(|e| (e.interval.start, e)).collect();

        // Diff: identical (interval, payload) pairs are kept; everything
        // else is retracted/inserted. IDs are deterministic in (payload,
        // interval), so identical segments have identical IDs.
        for (start, old) in g.emitted.iter() {
            match fresh_by_start.get(start) {
                Some(new) if new.interval == old.interval && new.payload == old.payload => {}
                _ => ctx.out.retract_full(old.clone()),
            }
        }
        for (start, new) in fresh_by_start.iter() {
            match g.emitted.get(start) {
                Some(old) if new.interval == old.interval && new.payload == old.payload => {}
                _ => ctx.out.insert(new.clone()),
            }
        }
        g.emitted = fresh_by_start;
    }

    /// Fold one insert into group state; `Some(key)` iff state changed.
    fn fold_insert(&mut self, event: &Event) -> Option<Vec<Value>> {
        if event.interval.is_empty() {
            return None;
        }
        let k = self.group_key(event);
        let g = self.groups.entry(k.clone()).or_default();
        if g.members.contains_key(&event.id) {
            return None; // duplicate delivery
        }
        g.members.insert(event.id, event.clone());
        Some(k)
    }

    /// Fold one retraction into group state; `Some(key)` iff state changed.
    fn fold_retract(&mut self, r: &Retraction) -> Option<Vec<Value>> {
        let k = self.group_key(&r.event);
        let g = self.groups.get_mut(&k)?; // group forgotten
        let current = g.members.get(&r.event.id)?; // member forgotten
        let new_end = TimePoint::min_of(current.interval.end, r.new_end);
        if new_end >= current.interval.end {
            return None;
        }
        let shortened = current.shortened(new_end);
        if shortened.interval.is_empty() {
            g.members.remove(&r.event.id);
        } else {
            g.members.insert(r.event.id, shortened);
        }
        Some(k)
    }
}

impl OperatorModule for GroupAggregateOp {
    fn name(&self) -> &'static str {
        "group_aggregate"
    }

    /// Batch-native delivery: fold the **whole run** into group state
    /// first, then emit one refresh per touched group, in first-touch
    /// order (deterministic in the run, never hash order). A run that
    /// hammers one group `n` times costs one recompute-and-diff instead
    /// of `n`, and the intermediate step functions are never published.
    fn on_batch(&mut self, _input: usize, msgs: &[Message], ctx: &mut OpContext) {
        let mut touched: Vec<Vec<Value>> = Vec::new();
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        for m in msgs {
            let changed = match m {
                Message::Insert(e) => self.fold_insert(e),
                Message::Retract(r) => self.fold_retract(r),
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor");
                    None
                }
            };
            // One clone per *distinct* group (for the dedup set), not per
            // state-changing message — this loop is the hot path the
            // collapse exists to amortise.
            if let Some(k) = changed {
                if !seen.contains(&k) {
                    seen.insert(k.clone());
                    touched.push(k);
                }
            }
        }
        for k in &touched {
            let g = self.groups.get_mut(k).expect("touched groups exist");
            Self::refresh(&self.key, &self.agg, g, ctx);
        }
    }

    fn on_advance(&mut self, ctx: &mut OpContext) {
        let bound = TimePoint::max_of(ctx.watermark, ctx.horizon());
        if bound == TimePoint::ZERO {
            return;
        }
        let mut dead_groups = Vec::new();
        for (k, g) in self.groups.iter_mut() {
            // Advance the floor to `bound`, but never into an emitted
            // segment (we cannot split a segment we already emitted).
            let mut new_floor = bound;
            for (start, seg) in g.emitted.iter() {
                if *start < new_floor && seg.interval.end > new_floor {
                    new_floor = *start;
                    break;
                }
            }
            if new_floor > g.floor {
                g.floor = new_floor;
                g.emitted.retain(|_, seg| seg.interval.end > new_floor);
                g.members.retain(|_, e| e.interval.end > new_floor);
            }
            if g.members.is_empty() && g.emitted.is_empty() {
                dead_groups.push(k.clone());
            }
        }
        for k in dead_groups {
            self.groups.remove(&k);
        }
    }

    fn state_size(&self) -> usize {
        self.groups
            .values()
            .map(|g| g.members.len() + g.emitted.len())
            .sum()
    }

    fn state_snapshot(&self, out: &mut Vec<u8>) {
        use cedr_durable::Persist;
        // Group keys sorted by their encoded bytes: Vec<Value> has no Ord,
        // but its deterministic encoding does.
        let mut keyed: Vec<(Vec<u8>, &Vec<Value>)> = self
            .groups
            .keys()
            .map(|k| (cedr_durable::to_bytes(k), k))
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        (keyed.len() as u64).encode(out);
        for (_, key) in keyed {
            let g = &self.groups[key];
            key.encode(out);
            let mut members: Vec<(EventId, Event)> =
                g.members.iter().map(|(&id, e)| (id, e.clone())).collect();
            members.sort_unstable_by_key(|&(id, _)| id);
            members.encode(out);
            // BTreeMap order is already deterministic.
            (g.emitted.len() as u64).encode(out);
            for (start, e) in &g.emitted {
                start.encode(out);
                e.encode(out);
            }
            g.floor.encode(out);
        }
    }

    fn state_restore(
        &mut self,
        r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        self.groups.clear();
        for _ in 0..u64::decode(r)? {
            let key = Vec::<Value>::decode(r)?;
            let members = Vec::<(EventId, Event)>::decode(r)?.into_iter().collect();
            let mut emitted = BTreeMap::new();
            for _ in 0..u64::decode(r)? {
                let start = TimePoint::decode(r)?;
                emitted.insert(start, Event::decode(r)?);
            }
            let floor = TimePoint::decode(r)?;
            self.groups.insert(
                key,
                GroupState {
                    members,
                    emitted,
                    floor,
                },
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::ConsistencySpec;
    use crate::operator::OperatorShell;
    use cedr_streams::{Collector, Message};
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::t;
    use cedr_temporal::Payload;

    fn ev(id: u64, a: u64, b: u64, group: &str, v: i64) -> Event {
        Event::primitive(
            EventId(id),
            iv(a, b),
            Payload::from_values(vec![Value::str(group), Value::Int(v)]),
        )
    }

    fn count_by_group() -> GroupAggregateOp {
        GroupAggregateOp::new(vec![Scalar::Field(0)], AggFunc::Count)
    }

    fn net(msgs: &[Message]) -> Vec<(Interval, Vec<Value>)> {
        let mut c = Collector::new();
        c.push_all(msgs.iter().cloned());
        let mut rows: Vec<(Interval, Vec<Value>)> = c
            .net_table()
            .rows
            .iter()
            .map(|r| (r.interval, r.payload.iter().cloned().collect()))
            .collect();
        rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        rows
    }

    #[test]
    fn count_steps_up_and_down() {
        let mut s = OperatorShell::new(Box::new(count_by_group()), ConsistencySpec::middle());
        let mut all = Vec::new();
        all.extend(s.push(0, Message::insert_event(ev(1, 0, 10, "g", 0)), 0));
        all.extend(s.push(0, Message::insert_event(ev(2, 4, 6, "g", 0)), 1));
        let rows = net(&all);
        assert_eq!(
            rows,
            vec![
                (iv(0, 4), vec![Value::str("g"), Value::Int(1)]),
                (iv(4, 6), vec![Value::str("g"), Value::Int(2)]),
                (iv(6, 10), vec![Value::str("g"), Value::Int(1)]),
            ]
        );
    }

    #[test]
    fn late_event_repairs_with_retractions() {
        let mut s = OperatorShell::new(Box::new(count_by_group()), ConsistencySpec::middle());
        let mut all = Vec::new();
        all.extend(s.push(0, Message::insert_event(ev(1, 0, 10, "g", 0)), 0));
        // Late overlapping event: previously-emitted [0,10)@1 is repaired.
        all.extend(s.push(0, Message::insert_event(ev(2, 2, 5, "g", 0)), 1));
        assert!(s.stats().out_retractions > 0, "optimistic output repaired");
        let rows = net(&all);
        assert_eq!(
            rows,
            vec![
                (iv(0, 2), vec![Value::str("g"), Value::Int(1)]),
                (iv(2, 5), vec![Value::str("g"), Value::Int(2)]),
                (iv(5, 10), vec![Value::str("g"), Value::Int(1)]),
            ]
        );
    }

    #[test]
    fn input_retraction_repairs_the_aggregate() {
        let mut s = OperatorShell::new(Box::new(count_by_group()), ConsistencySpec::middle());
        let e1 = ev(1, 0, 10, "g", 0);
        let mut all = Vec::new();
        all.extend(s.push(0, Message::insert_event(e1.clone()), 0));
        all.extend(s.push(0, Message::insert_event(ev(2, 0, 10, "g", 0)), 1));
        all.extend(s.push(0, Message::Retract(Retraction::new(e1, t(4))), 2));
        let rows = net(&all);
        assert_eq!(
            rows,
            vec![
                (iv(0, 4), vec![Value::str("g"), Value::Int(2)]),
                (iv(4, 10), vec![Value::str("g"), Value::Int(1)]),
            ]
        );
    }

    #[test]
    fn groups_are_independent() {
        let mut s = OperatorShell::new(Box::new(count_by_group()), ConsistencySpec::middle());
        let o1 = s.push(0, Message::insert_event(ev(1, 0, 10, "a", 0)), 0);
        let o2 = s.push(0, Message::insert_event(ev(2, 0, 10, "b", 0)), 1);
        // The second insert does not disturb group "a": no retraction.
        assert_eq!(o1.iter().filter(|m| m.is_data()).count(), 1);
        assert_eq!(o2.iter().filter(|m| m.is_data()).count(), 1);
    }

    #[test]
    fn watermark_flushes_and_frees_state() {
        let mut s = OperatorShell::new(Box::new(count_by_group()), ConsistencySpec::middle());
        s.push(0, Message::insert_event(ev(1, 0, 10, "g", 0)), 0);
        s.push(0, Message::insert_event(ev(2, 20, 30, "g", 0)), 1);
        let before = s.module().state_size();
        s.push(0, Message::Cti(t(15)), 2);
        let after = s.module().state_size();
        assert!(after < before, "flushed state below the watermark");
    }

    #[test]
    fn flush_then_continue_remains_consistent() {
        // Flushing must not perturb the still-live region.
        let mut s = OperatorShell::new(Box::new(count_by_group()), ConsistencySpec::middle());
        let mut all = Vec::new();
        all.extend(s.push(0, Message::insert_event(ev(1, 0, 8, "g", 0)), 0));
        all.extend(s.push(0, Message::insert_event(ev(2, 4, 20, "g", 0)), 1));
        all.extend(s.push(0, Message::Cti(t(6)), 2));
        all.extend(s.push(0, Message::insert_event(ev(3, 10, 12, "g", 0)), 3));
        all.extend(s.push(0, Message::Cti(TimePoint::INFINITY), 4));
        let rows = net(&all);
        // Denotational: count is 1 on [0,4), 2 on [4,8), 1 on [8,10),
        // 2 on [10,12), 1 on [12,20).
        let expected: Vec<(Interval, i64)> = vec![
            (iv(0, 4), 1),
            (iv(4, 8), 2),
            (iv(8, 10), 1),
            (iv(10, 12), 2),
            (iv(12, 20), 1),
        ];
        let got: Vec<(Interval, i64)> = rows
            .iter()
            .map(|(iv, p)| (*iv, p[1].as_i64().unwrap()))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn sum_and_avg_aggregate_values() {
        let mut s = OperatorShell::new(
            Box::new(GroupAggregateOp::new(
                vec![Scalar::Field(0)],
                AggFunc::Avg(Scalar::Field(1)),
            )),
            ConsistencySpec::middle(),
        );
        let mut all = Vec::new();
        all.extend(s.push(0, Message::insert_event(ev(1, 0, 10, "g", 10)), 0));
        all.extend(s.push(0, Message::insert_event(ev(2, 0, 10, "g", 20)), 1));
        let rows = net(&all);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[1], Value::Float(15.0));
    }
}
