//! The physical group-by/aggregate with view-update semantics.
//!
//! Per group the operator maintains the live member events and the
//! currently-emitted step function of the aggregate (one output event per
//! maximal constant segment, exactly as the denotational
//! `cedr_algebra::group_aggregate`). Any state change triggers a *refresh*
//! of the affected group: removed segments are fully retracted, added
//! segments inserted — so out-of-order arrivals and input retractions
//! repair optimistic output with retractions, the middle-level behaviour
//! of Section 5.
//!
//! **The sweep.** A refresh walks the group's segment edges once, with the
//! members sorted by `(clipped start, id)` and a live list kept in that
//! same order, so every segment's value is folded over the members in the
//! order the oracle folds them (float Sum/Avg are order-sensitive, and
//! hash-iteration order never reaches the evaluator). Each segment is
//! compared with the emitted segment at the same start without building an
//! event; only changed segments are built, through
//! [`cedr_algebra::relational::segment_event`] — the constructor the
//! oracle uses, so ids cannot drift — and the emitted map is edited in
//! place. Emitted segments are `Arc`s shared with the messages that
//! inserted them, so a retraction costs a refcount bump.
//! `cedr_algebra::relational::group_aggregate` over the clipped members
//! stays the oracle: a seeded test pins every refresh's emitted segments
//! to it bit for bit, and the emitted diff to retractions by start, then
//! inserts by start, of exactly the segments that changed.
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
//! in the [`operator`](crate::operator) module docs.

use crate::operator::{OpContext, OperatorModule};
use cedr_algebra::expr::Scalar;
use cedr_algebra::relational::{segment_event, AggFunc};
use cedr_streams::{Message, Retraction};
use cedr_temporal::{Event, EventId, IdMap, Interval, Payload, TimePoint, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Does `payload` read `key ++ [value]`, comparing values with `eq`?
fn spells(payload: &Payload, key: &[Value], value: &Value, eq: fn(&Value, &Value) -> bool) -> bool {
    payload.len() == key.len() + 1
        && payload
            .iter()
            .zip(key.iter().chain([value]))
            .all(|(a, b)| eq(a, b))
}

/// Value equality down to the float bits (`==` folds `-0.0` onto `0.0`
/// and every NaN onto one).
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[derive(Default)]
struct GroupState {
    members: IdMap<Event>,
    /// Currently-emitted segments, keyed by start (maximal constant
    /// segments never share a start), each shared with the message that
    /// emitted it: retracting one is a refcount bump.
    emitted: BTreeMap<TimePoint, Arc<Event>>,
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

    /// Sweep the group's step function above its floor and emit the diff
    /// against what is emitted (one *refresh*: the retract+insert pair-set
    /// of the step-function change, counted in
    /// [`OpStats::group_refreshes`](crate::OpStats)): retractions by start,
    /// then inserts by start.
    fn refresh(key: &[Scalar], agg: &AggFunc, g: &mut GroupState, ctx: &mut OpContext) {
        ctx.effort.group_refreshes += 1;
        let GroupState {
            members,
            emitted,
            floor,
        } = g;
        // Members clipped to the floor, in (clipped start, id) order — the
        // order the oracle folds them in, so float Sum/Avg add up in the
        // same order and hash-iteration order never reaches the evaluator.
        let mut clipped: Vec<(TimePoint, &Event)> = members
            .values()
            .filter_map(|e| {
                let start = TimePoint::max_of(e.interval.start, *floor);
                (start < e.interval.end).then_some((start, e))
            })
            .collect();
        clipped.sort_unstable_by_key(|&(start, e)| (start, e.id));
        let mut edges: Vec<TimePoint> = clipped
            .iter()
            .flat_map(|&(start, e)| [start, e.interval.end])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        // The oracle's payload key is its first member's.
        let kvals: Vec<Value> = match clipped.first() {
            Some(&(_, first)) => key.iter().map(|s| s.eval_event(first)).collect(),
            None => Vec::new(),
        };

        // One pass over the segments, merged with the emitted ones by
        // start. `live` keeps (clipped start, id) order: members join in
        // that order and leave without reordering the rest.
        let mut old = emitted.iter().peekable();
        let mut retract: Vec<TimePoint> = Vec::new();
        let mut insert: Vec<Arc<Event>> = Vec::new();
        let mut rebuilt: Vec<Arc<Event>> = Vec::new();
        let mut live: Vec<&Event> = Vec::new();
        let mut joining = clipped.iter().peekable();
        for w in edges.windows(2) {
            let seg = Interval::new(w[0], w[1]);
            while let Some(&(_, e)) = joining.next_if(|&&(start, _)| start <= seg.start) {
                live.push(e);
            }
            live.retain(|e| e.interval.end > seg.start);
            if live.is_empty() {
                continue;
            }
            let value = agg.eval(&live);
            while let Some((&start, _)) = old.next_if(|&(&start, _)| start < seg.start) {
                retract.push(start);
            }
            match old.next_if(|&(&start, _)| start == seg.start) {
                Some((_, e))
                    if e.interval == seg && spells(&e.payload, &kvals, &value, Value::eq) =>
                {
                    // Unchanged. `==` on values is IEEE-canonical; keep the
                    // exact bits the recompute would have (images and later
                    // retractions carry them) without emitting anything.
                    if !spells(&e.payload, &kvals, &value, same_bits) {
                        rebuilt.push(Arc::new(segment_event(&kvals, value, seg, agg)));
                    }
                }
                Some((&start, _)) => {
                    retract.push(start);
                    insert.push(Arc::new(segment_event(&kvals, value, seg, agg)));
                }
                None => insert.push(Arc::new(segment_event(&kvals, value, seg, agg))),
            }
        }
        retract.extend(old.map(|(&start, _)| start));

        for start in retract {
            ctx.out
                .retract_full(emitted.remove(&start).expect("emitted segment"));
        }
        for e in rebuilt {
            emitted.insert(e.interval.start, e);
        }
        for e in insert {
            emitted.insert(e.interval.start, e.clone());
            ctx.out.insert(e);
        }
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
                emitted.insert(start, Arc::<Event>::decode(r)?);
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
    use crate::operator::{OperatorShell, OutputBuffer};
    use cedr_streams::{Collector, Message};
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::{dur, t};

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

    /// SplitMix64: the seeded stream behind the oracle sweep.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// An event down to its float bits.
    fn bits(e: &Event) -> Vec<u8> {
        cedr_durable::to_bytes(e)
    }

    fn emitted_of(op: &GroupAggregateOp) -> BTreeMap<TimePoint, Arc<Event>> {
        let mut all = BTreeMap::new();
        for g in op.groups.values() {
            all.extend(g.emitted.iter().map(|(&start, e)| (start, e.clone())));
        }
        all
    }

    /// Every group's emitted segments are exactly the oracle's over its
    /// members clipped to its floor, in (clipped start, id) order.
    fn assert_matches_oracle(op: &GroupAggregateOp, context: &str) {
        for g in op.groups.values() {
            let mut clipped: Vec<Event> = g
                .members
                .values()
                .filter_map(|e| {
                    let iv = Interval::new(TimePoint::max_of(e.vs(), g.floor), e.ve());
                    let mut c = e.clone();
                    c.interval = iv;
                    (!iv.is_empty()).then_some(c)
                })
                .collect();
            clipped.sort_unstable_by_key(|e| (e.vs(), e.id));
            let want: Vec<Vec<u8>> =
                cedr_algebra::relational::group_aggregate(&clipped, &op.key, &op.agg)
                    .iter()
                    .map(bits)
                    .collect();
            let got: Vec<Vec<u8>> = g.emitted.values().map(|e| bits(e)).collect();
            assert_eq!(got, want, "{context}: emitted segments vs the oracle");
        }
    }

    #[test]
    fn sweep_refresh_matches_the_oracle_and_emits_the_minimal_diff() {
        // Order-sensitive values: float sums of 1e16, 1.0 and -1e16 depend
        // on the order they are added in, Min/Max keep the first/last of
        // `Int(1)` and `Float(1.0)`, and `-0.0 == 0.0` differ in their bits.
        let values = [
            Value::Float(1e16),
            Value::Float(1.0),
            Value::Float(-1e16),
            Value::Int(1),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(3),
            Value::Float(2.5),
        ];
        let aggs = [
            AggFunc::Count,
            AggFunc::Sum(Scalar::Field(1)),
            AggFunc::Min(Scalar::Field(1)),
            AggFunc::Max(Scalar::Field(1)),
            AggFunc::Avg(Scalar::Field(1)),
        ];
        let mut refreshes = 0;
        for agg in aggs {
            for seed in 0..40 {
                let context = format!("{agg:?} seed {seed}");
                let mut rng = Rng(seed);
                // One group whose key is `0.0` or `-0.0`: equal keys, so
                // the payload's key bits follow the oracle's first member.
                let mut op = GroupAggregateOp::new(vec![Scalar::Field(0)], agg.clone());
                let mut out = OutputBuffer::new();
                let mut watermark = TimePoint::ZERO;
                let mut sent: Vec<Event> = Vec::new();
                for _ in 0..30 {
                    let mut run = Vec::new();
                    for _ in 0..1 + rng.below(5) {
                        let pick = rng.below(6);
                        if pick < 3 || sent.is_empty() {
                            // A fresh member, at times below the floor.
                            let vs = (watermark.0 + rng.below(40)).saturating_sub(8);
                            let key = if rng.below(2) == 0 { 0.0 } else { -0.0 };
                            let value = values[rng.below(8) as usize].clone();
                            let e = Event::primitive(
                                EventId(sent.len() as u64 + 1),
                                iv(vs, vs + 1 + rng.below(20)),
                                Payload::from_values(vec![Value::Float(key), value]),
                            );
                            sent.push(e.clone());
                            run.push(Message::insert_event(e));
                        } else {
                            let e = sent[rng.below(sent.len() as u64) as usize].clone();
                            let (vs, ve) = (e.vs().0, e.ve().0);
                            match pick {
                                3 => run.push(Message::insert_event(e)), // duplicate
                                4 => run.push(Message::retract_event(e, t(vs))),
                                _ => {
                                    let new_end = vs + rng.below(ve - vs + 1);
                                    run.push(Message::retract_event(e, t(new_end)));
                                }
                            }
                        }
                    }
                    let before = emitted_of(&op);
                    let mut ctx = OpContext {
                        spec: ConsistencySpec::middle(),
                        watermark,
                        max_seen: watermark,
                        effort: Default::default(),
                        out: &mut out,
                    };
                    op.on_batch(0, &run, &mut ctx);
                    let refreshed = ctx.effort.group_refreshes > 0;
                    let after = emitted_of(&op);

                    // Retractions by start of what no longer stands, then
                    // inserts by start of what is new; equal segments stay.
                    let same =
                        |a: &Event, b: &Event| a.interval == b.interval && a.payload == b.payload;
                    let mut want: Vec<(bool, Vec<u8>)> = Vec::new();
                    for (start, old) in &before {
                        if !after.get(start).is_some_and(|new| same(old, new)) {
                            want.push((false, bits(old)));
                        }
                    }
                    for (start, new) in &after {
                        if !before.get(start).is_some_and(|old| same(old, new)) {
                            want.push((true, bits(new)));
                        }
                    }
                    let got: Vec<(bool, Vec<u8>)> = out
                        .drain()
                        .iter()
                        .map(|m| match m {
                            Message::Insert(e) => (true, bits(e)),
                            Message::Retract(r) => {
                                assert!(r.is_full_removal(), "{context}: segments go whole");
                                (false, bits(&r.event))
                            }
                            Message::Cti(_) => unreachable!("modules emit data only"),
                        })
                        .collect();
                    assert_eq!(got, want, "{context}: the refresh diff");
                    if refreshed {
                        refreshes += 1;
                        assert_matches_oracle(&op, &context);
                    }

                    if rng.below(3) == 0 {
                        watermark += dur(rng.below(10));
                        let mut ctx = OpContext {
                            spec: ConsistencySpec::middle(),
                            watermark,
                            max_seen: watermark,
                            effort: Default::default(),
                            out: &mut out,
                        };
                        op.on_advance(&mut ctx);
                        assert!(out.is_empty(), "{context}: flushing emits nothing");
                    }
                }
            }
        }
        assert!(refreshes > 2_000, "the sweep ran: {refreshes} refreshes");
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
