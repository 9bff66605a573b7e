//! The relational view-update operators (Definitions 7–9 and the family the
//! paper lists alongside them: union, difference, group-by, aggregates).
//!
//! All of these are **view update compliant** (Definition 11): they treat
//! the input streams as changing relations and are insensitive to how the
//! state changes are packaged into events; the property tests in
//! `compliance.rs` check this literally against the `*` operator.

use crate::expr::{Pred, Scalar};
use crate::idgen::{idgen, idgen2};
use crate::EventSet;
use cedr_temporal::{Event, Interval, Lineage, Payload, TimePoint, Value};
use std::collections::BTreeMap;

/// Definition 7 — SQL projection `π_f(S)`:
/// `{(e.Vs, e.Ve, f(e.Payload)) | e ∈ E(S)}`.
///
/// `f` is a list of scalar expressions producing the output payload; it
/// cannot affect the timestamp attributes (enforced by construction).
pub fn project(input: &[Event], exprs: &[Scalar]) -> EventSet {
    input
        .iter()
        .map(|e| {
            let payload = Payload::from_values(exprs.iter().map(|x| x.eval_event(e)).collect());
            Event {
                id: e.id,
                interval: e.interval,
                root_time: e.root_time,
                lineage: e.lineage.clone(),
                payload,
            }
        })
        .collect()
}

/// Definition 8 — Selection `σ_f(S)`:
/// `{(e.Vs, e.Ve, e.Payload) | e ∈ E(S) where f(e.Payload)}`.
pub fn select(input: &[Event], pred: &Pred) -> EventSet {
    input
        .iter()
        .filter(|e| pred.eval_event(e))
        .cloned()
        .collect()
}

/// Definition 9 — Join `⋈_θ(S1, S2)`: payload concatenation over the
/// intersection of valid intervals, for pairs satisfying `θ` (a tuple
/// predicate over both payloads: slot 0 = left, slot 1 = right).
pub fn join(left: &[Event], right: &[Event], theta: &Pred) -> EventSet {
    let mut out = Vec::new();
    for e1 in left {
        for e2 in right {
            let iv = e1.interval.intersect(&e2.interval);
            if iv.is_empty() {
                continue;
            }
            if !theta.eval_tuple(&[e1, e2]) {
                continue;
            }
            out.push(Event {
                id: idgen(&[e1.id, e2.id]),
                interval: iv,
                root_time: TimePoint::min_of(e1.root_time, e2.root_time),
                lineage: Lineage::of(vec![e1.id, e2.id]),
                payload: e1.payload.concat(&e2.payload),
            });
        }
    }
    out
}

/// Union: the bag union of the two changing relations.
pub fn union(left: &[Event], right: &[Event]) -> EventSet {
    left.iter().chain(right.iter()).cloned().collect()
}

/// Temporal difference `S1 − S2` under set semantics: for each payload, the
/// output covers exactly the times where the payload is in `S1`'s relation
/// but not in `S2`'s.
///
/// Output events are synthesised per maximal segment with
/// `idgen2`-derived IDs (they have no single contributor pair).
pub fn difference(left: &[Event], right: &[Event]) -> EventSet {
    // Coverage per payload on each side.
    let mut cover: BTreeMap<Payload, (Vec<Interval>, Vec<Interval>)> = BTreeMap::new();
    for e in left {
        if !e.interval.is_empty() {
            cover
                .entry(e.payload.clone())
                .or_default()
                .0
                .push(e.interval);
        }
    }
    for e in right {
        if !e.interval.is_empty() {
            cover
                .entry(e.payload.clone())
                .or_default()
                .1
                .push(e.interval);
        }
    }
    let mut out = Vec::new();
    for (payload, (l, r)) in cover {
        let pos = merge_cover(&l);
        let neg = merge_cover(&r);
        let segs = subtract_cover(&pos, &neg);
        for seg in segs {
            let id = idgen2(
                0xD1FF_0000 ^ hash_payload(&payload),
                seg.start.0 ^ seg.end.0.rotate_left(32),
            );
            out.push(Event::primitive(id, seg, payload.clone()));
        }
    }
    out
}

/// Aggregate functions over a payload column.
#[derive(Clone, Debug, PartialEq)]
pub enum AggFunc {
    Count,
    Sum(Scalar),
    Min(Scalar),
    Max(Scalar),
    Avg(Scalar),
}

impl AggFunc {
    /// Fold the aggregate over the payload snapshot of live events.
    pub fn eval(&self, live: &[&Event]) -> Value {
        match self {
            AggFunc::Count => Value::Int(live.len() as i64),
            AggFunc::Sum(s) => {
                Value::Float(live.iter().filter_map(|e| s.eval_event(e).as_f64()).sum())
            }
            AggFunc::Min(s) => live
                .iter()
                .map(|e| s.eval_event(e))
                .min_by(|a, b| a.compare(b))
                .unwrap_or(Value::Null),
            AggFunc::Max(s) => live
                .iter()
                .map(|e| s.eval_event(e))
                .max_by(|a, b| a.compare(b))
                .unwrap_or(Value::Null),
            AggFunc::Avg(s) => {
                let vals: Vec<f64> = live
                    .iter()
                    .filter_map(|e| s.eval_event(e).as_f64())
                    .collect();
                if vals.is_empty() {
                    Value::Null
                } else {
                    Value::Float(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            }
        }
    }

    /// Operator tag for synthesised IDs.
    fn tag(&self) -> u64 {
        match self {
            AggFunc::Count => 0xA660_0001,
            AggFunc::Sum(_) => 0xA660_0002,
            AggFunc::Min(_) => 0xA660_0003,
            AggFunc::Max(_) => 0xA660_0004,
            AggFunc::Avg(_) => 0xA660_0005,
        }
    }
}

/// Group-by + aggregate with view update semantics: the output describes,
/// per group, the changing value of the aggregate as a step function of
/// time. One output event per maximal constant segment, payload =
/// `group key values ++ [aggregate value]`.
///
/// Segments with no live input rows produce no output (the group is absent
/// from the relation there).
pub fn group_aggregate(input: &[Event], key: &[Scalar], agg: &AggFunc) -> EventSet {
    let mut groups: BTreeMap<Vec<Value>, Vec<&Event>> = BTreeMap::new();
    for e in input {
        if e.interval.is_empty() {
            continue;
        }
        let k: Vec<Value> = key.iter().map(|s| s.eval_event(e)).collect();
        groups.entry(k).or_default().push(e);
    }
    let mut out = Vec::new();
    for (kvals, members) in groups {
        // Edge points: all interval endpoints in the group.
        let mut edges: Vec<TimePoint> = Vec::with_capacity(members.len() * 2);
        for e in &members {
            edges.push(e.interval.start);
            edges.push(e.interval.end);
        }
        edges.sort_unstable();
        edges.dedup();
        for w in edges.windows(2) {
            let seg = Interval::new(w[0], w[1]);
            if seg.is_empty() {
                continue;
            }
            let live: Vec<&Event> = members
                .iter()
                .filter(|e| e.interval.contains(seg.start))
                .copied()
                .collect();
            if live.is_empty() {
                continue;
            }
            out.push(segment_event(&kvals, agg.eval(&live), seg, agg));
        }
    }
    // Adjacent segments with equal values are distinct events here; the `*`
    // operator (coalescing) identifies them, which is exactly why these
    // outputs are view-update compliant rather than syntactically canonical.
    out
}

/// The output event of one constant segment `seg` of a group's aggregate:
/// payload `key ++ [value]`, identity derived from that payload and the
/// segment, so equal segments get equal ids however they were computed.
/// The one constructor of [`group_aggregate`]'s events and of the runtime
/// operator's.
pub fn segment_event(key: &[Value], value: Value, seg: Interval, agg: &AggFunc) -> Event {
    let payload: Payload = key.iter().cloned().chain([value]).collect();
    let id = idgen2(
        agg.tag() ^ hash_payload(&payload),
        seg.start.0 ^ seg.end.0.rotate_left(32),
    );
    Event::primitive(id, seg, payload)
}

fn hash_payload(p: &Payload) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// Merge intervals into a minimal sorted disjoint cover (union of segments;
/// meeting or overlapping intervals fuse).
pub fn merge_cover(ivs: &[Interval]) -> Vec<Interval> {
    let mut sorted: Vec<Interval> = ivs.iter().filter(|i| !i.is_empty()).copied().collect();
    sorted.sort();
    let mut out: Vec<Interval> = Vec::with_capacity(sorted.len());
    for iv in sorted {
        match out.last_mut() {
            Some(last) if iv.start <= last.end => {
                last.end = TimePoint::max_of(last.end, iv.end);
            }
            _ => out.push(iv),
        }
    }
    out
}

/// Subtract a disjoint sorted cover from another: `pos − neg`.
pub fn subtract_cover(pos: &[Interval], neg: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    for p in pos {
        let mut cur = *p;
        for n in neg {
            if n.end <= cur.start {
                continue;
            }
            if n.start >= cur.end {
                break;
            }
            if n.start > cur.start {
                out.push(Interval::new(cur.start, n.start));
            }
            cur = Interval::new(TimePoint::max_of(cur.start, n.end), cur.end);
            if cur.is_empty() {
                break;
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::to_table;
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::t;
    use cedr_temporal::EventId;

    fn ev(id: u64, a: u64, b: u64, vals: Vec<Value>) -> Event {
        Event::primitive(EventId(id), iv(a, b), Payload::from_values(vals))
    }

    #[test]
    fn projection_rewrites_payload_only() {
        let input = vec![ev(1, 2, 9, vec![Value::Int(10), Value::Int(20)])];
        let out = project(&input, &[Scalar::Field(1), Scalar::lit(99i64)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].interval, iv(2, 9), "f cannot affect timestamps");
        assert_eq!(out[0].payload.get(0), Some(&Value::Int(20)));
        assert_eq!(out[0].payload.get(1), Some(&Value::Int(99)));
        assert_eq!(out[0].id, EventId(1), "projection keeps identity");
    }

    #[test]
    fn selection_filters_on_payload() {
        let input = vec![
            ev(1, 0, 5, vec![Value::Int(1)]),
            ev(2, 0, 5, vec![Value::Int(7)]),
        ];
        let out = select(
            &input,
            &Pred::cmp(Scalar::Field(0), CmpOp::Gt, Scalar::lit(3i64)),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, EventId(2));
    }

    #[test]
    fn join_intersects_lifetimes_and_concatenates() {
        // Figure 10's two rows joined on TRUE: intersection is [4,5).
        let l = vec![ev(1, 1, 5, vec![Value::str("P1")])];
        let r = vec![ev(2, 4, 9, vec![Value::str("P2")])];
        let out = join(&l, &r, &Pred::True);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].interval, iv(4, 5));
        assert_eq!(out[0].payload.len(), 2);
        assert_eq!(out[0].root_time, t(1), "rt = min of contributors");
        assert_eq!(out[0].lineage.len(), 2);
    }

    #[test]
    fn join_theta_and_disjoint_lifetimes() {
        let l = vec![ev(1, 1, 3, vec![Value::Int(5)])];
        let r = vec![ev(2, 5, 9, vec![Value::Int(5)])];
        // Disjoint: nothing, even with matching payloads.
        assert!(join(&l, &r, &Pred::True).is_empty());
        let r2 = vec![ev(3, 2, 9, vec![Value::Int(6)])];
        let theta = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        assert!(join(&l, &r2, &theta).is_empty());
        let r3 = vec![ev(4, 2, 9, vec![Value::Int(5)])];
        assert_eq!(join(&l, &r3, &theta).len(), 1);
    }

    #[test]
    fn union_is_bag_union() {
        let l = vec![ev(1, 0, 5, vec![Value::Int(1)])];
        let r = vec![ev(2, 3, 8, vec![Value::Int(2)])];
        assert_eq!(union(&l, &r).len(), 2);
    }

    #[test]
    fn difference_clips_by_right_side_coverage() {
        let p = vec![Value::str("P")];
        let l = vec![ev(1, 0, 10, p.clone())];
        let r = vec![ev(2, 3, 5, p.clone()), ev(3, 7, 8, p.clone())];
        let out = difference(&l, &r);
        let ivs: Vec<Interval> = {
            let mut v: Vec<Interval> = out.iter().map(|e| e.interval).collect();
            v.sort();
            v
        };
        assert_eq!(ivs, vec![iv(0, 3), iv(5, 7), iv(8, 10)]);
    }

    #[test]
    fn difference_ignores_unmatched_payloads() {
        let l = vec![ev(1, 0, 10, vec![Value::str("P")])];
        let r = vec![ev(2, 0, 10, vec![Value::str("Q")])];
        let out = difference(&l, &r);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].interval, iv(0, 10));
    }

    #[test]
    fn group_aggregate_count_steps_over_time() {
        // Two overlapping events in one group: count is 1,2,1 across edges.
        let g = vec![Value::str("g")];
        let input = vec![ev(1, 0, 10, g.clone()), ev(2, 4, 6, g.clone())];
        let out = group_aggregate(&input, &[Scalar::Field(0)], &AggFunc::Count);
        let mut segs: Vec<(Interval, Value)> = out
            .iter()
            .map(|e| (e.interval, e.payload.get(1).cloned().unwrap()))
            .collect();
        segs.sort_by_key(|(i, _)| *i);
        assert_eq!(
            segs,
            vec![
                (iv(0, 4), Value::Int(1)),
                (iv(4, 6), Value::Int(2)),
                (iv(6, 10), Value::Int(1)),
            ]
        );
    }

    #[test]
    fn group_aggregate_partitions_by_key() {
        let input = vec![
            ev(1, 0, 5, vec![Value::str("a"), Value::Int(10)]),
            ev(2, 0, 5, vec![Value::str("b"), Value::Int(20)]),
            ev(3, 0, 5, vec![Value::str("a"), Value::Int(30)]),
        ];
        let out = group_aggregate(&input, &[Scalar::Field(0)], &AggFunc::Sum(Scalar::Field(1)));
        assert_eq!(out.len(), 2);
        let mut by_key: Vec<(Value, Value)> = out
            .iter()
            .map(|e| {
                (
                    e.payload.get(0).cloned().unwrap(),
                    e.payload.get(1).cloned().unwrap(),
                )
            })
            .collect();
        by_key.sort_by(|a, b| a.0.compare(&b.0));
        assert_eq!(by_key[0], (Value::str("a"), Value::Float(40.0)));
        assert_eq!(by_key[1], (Value::str("b"), Value::Float(20.0)));
    }

    #[test]
    fn aggregates_min_max_avg() {
        let g = |v: i64| vec![Value::str("g"), Value::Int(v)];
        let input = vec![ev(1, 0, 4, g(10)), ev(2, 0, 4, g(2)), ev(3, 0, 4, g(6))];
        let key = [Scalar::Field(0)];
        let min = group_aggregate(&input, &key, &AggFunc::Min(Scalar::Field(1)));
        assert_eq!(min[0].payload.get(1), Some(&Value::Int(2)));
        let max = group_aggregate(&input, &key, &AggFunc::Max(Scalar::Field(1)));
        assert_eq!(max[0].payload.get(1), Some(&Value::Int(10)));
        let avg = group_aggregate(&input, &key, &AggFunc::Avg(Scalar::Field(1)));
        assert_eq!(avg[0].payload.get(1), Some(&Value::Float(6.0)));
    }

    #[test]
    fn empty_segments_produce_no_rows() {
        let g = vec![Value::str("g")];
        // Gap between [0,2) and [5,7).
        let input = vec![ev(1, 0, 2, g.clone()), ev(2, 5, 7, g.clone())];
        let out = group_aggregate(&input, &[Scalar::Field(0)], &AggFunc::Count);
        let covered: Vec<Interval> = out.iter().map(|e| e.interval).collect();
        assert!(covered.iter().all(|i| !i.overlaps(&iv(2, 5))));
    }

    #[test]
    fn cover_arithmetic() {
        assert_eq!(
            merge_cover(&[iv(0, 3), iv(2, 5), iv(7, 8)]),
            vec![iv(0, 5), iv(7, 8)]
        );
        assert_eq!(
            merge_cover(&[iv(0, 3), iv(3, 5)]),
            vec![iv(0, 5)],
            "meeting fuses"
        );
        assert_eq!(
            subtract_cover(&[iv(0, 10)], &[iv(2, 4), iv(6, 7)]),
            vec![iv(0, 2), iv(4, 6), iv(7, 10)]
        );
        assert_eq!(
            subtract_cover(&[iv(0, 5)], &[iv(0, 5)]),
            Vec::<Interval>::new()
        );
    }

    #[test]
    fn join_view_state_matches_relational_view() {
        // Sanity: snapshot of the join at t equals join of snapshots.
        let l = vec![
            ev(1, 0, 6, vec![Value::Int(1)]),
            ev(2, 3, 9, vec![Value::Int(2)]),
        ];
        let r = vec![ev(3, 2, 7, vec![Value::Int(1)])];
        let theta = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        let out = join(&l, &r, &theta);
        let out_table = to_table(&out);
        for probe in [0u64, 2, 4, 6, 8] {
            let live_l: Vec<&Event> = l.iter().filter(|e| e.interval.contains(t(probe))).collect();
            let live_r: Vec<&Event> = r.iter().filter(|e| e.interval.contains(t(probe))).collect();
            let mut expected = 0;
            for a in &live_l {
                for b in &live_r {
                    if theta.eval_tuple(&[a, b]) {
                        expected += 1;
                    }
                }
            }
            assert_eq!(
                out_table.snapshot_at(t(probe)).len(),
                expected,
                "probe {probe}"
            );
        }
    }
}
