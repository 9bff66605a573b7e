//! The WHEN-clause pattern operators (Section 3.3.2), with predicate
//! injection (Section 3.2) and instance selection/consumption (SC modes).
//!
//! Denotations are transcribed from the paper's two operator tables:
//!
//! ```text
//! ATLEAST(n, E1..Ek, w)  ≡ {(id, ein.Os, ein.Oe, ein.Vs, ei1.Vs+w, [ei1..ein]; p…)
//!                           | ei1.Vs<…<ein.Vs ∧ ein.Vs−ei1.Vs ≤ w ∧ slots distinct}
//! ALL(E1..Ek, w)         ≡ ATLEAST(k, E1..Ek, w)
//! ANY(E1..Ek)            ≡ ATLEAST(1, E1..Ek, 1)
//! SEQUENCE(E1..Ek, w)    ≡ {(id, ek.Os, ek.Oe, ek.Vs, e1.Vs+w, rt, [e1..ek]; p…)
//!                           | e1.Vs<…<ek.Vs ∧ ek.Vs−e1.Vs ≤ w}
//! UNLESS(E1, E2, w)      ≡ {(e1.ID, …, e1.Vs, e1.Vs+w, e1.rt, [e1]; e1.p)
//!                           | ¬∃e2: e1.Vs < e2.Vs < e1.Vs+w}
//! NOT(E, SEQUENCE(…,w))  ≡ {es ∈ SEQUENCE | ¬∃e: es.cbt[1].Vs < e.Vs < es.cbt[k].Vs}
//! CANCEL-WHEN(E1, E2)    ≡ {e1 | ¬∃e2: e1.rt < e2.Vs < e1.Vs}
//! ```
//!
//! Predicate injection: the WHERE clause's parameterized predicates are
//! placed *inside* these denotations — a tuple only matches (and an `e2`
//! only negates) if the predicate holds for it.

use crate::expr::Pred;
use crate::idgen::idgen;
use crate::EventSet;
use cedr_temporal::{Duration, Event, EventId, Interval, Lineage, Payload, TimePoint};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Instance selection policy for one operator input (Section 3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Selection {
    /// Every qualifying instance participates (no restriction).
    #[default]
    Each,
    /// Among matches completed by the same trigger event, prefer the
    /// *earliest* instance in this slot.
    First,
    /// Prefer the *most recent* instance in this slot.
    MostRecent,
}

/// Instance consumption policy for one operator input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Consumption {
    /// Instances may contribute to any number of future outputs.
    #[default]
    Reuse,
    /// Once an instance has produced output it is consumed and "will never
    /// be involved in producing future output".
    Consume,
}

/// The SC mode of one operator input parameter. Decoupled from operator
/// semantics and attached to inputs, per Section 3.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ScMode {
    pub selection: Selection,
    pub consumption: Consumption,
}

impl ScMode {
    pub const EACH_REUSE: ScMode = ScMode {
        selection: Selection::Each,
        consumption: Consumption::Reuse,
    };

    pub fn new(selection: Selection, consumption: Consumption) -> Self {
        ScMode {
            selection,
            consumption,
        }
    }
}

/// A candidate pattern match: the contributor tuple (in declared slot
/// order; `None` for slots an ATLEAST subset skipped) and the composite
/// output event.
#[derive(Clone, Debug)]
pub struct PatternMatch {
    pub contributors: Vec<Option<Event>>,
    pub output: Event,
}

/// Shared placeholder for unselected slots during predicate evaluation:
/// its payload is empty, so predicates touching it see `Null`.
fn placeholder() -> Event {
    Event::primitive(
        EventId(u64::MAX),
        Interval::empty_at(TimePoint::ZERO),
        Payload::empty(),
    )
}

fn eval_pred(pred: &Pred, contributors: &[Option<Event>]) -> bool {
    let ph = placeholder();
    let tuple: Vec<&Event> = contributors
        .iter()
        .map(|c| c.as_ref().unwrap_or(&ph))
        .collect();
    pred.eval_tuple(&tuple)
}

/// Matches whose composite lifetime `[ein.Vs, ei1.Vs + w)` is empty — the
/// exact-boundary case `ein.Vs − ei1.Vs = w` — describe no state in the
/// unitemporal model and are dropped by the enumeration functions.
fn compose_output(chosen: &[(usize, &Event)], w: Duration) -> Event {
    // `chosen` is in Vs order: first = ei1, last = ein.
    let lineage: Lineage = chosen.iter().map(|(_, e)| e.id).collect();
    let first = chosen.first().expect("non-empty match").1;
    let last = chosen.last().expect("non-empty match").1;
    let rt = chosen
        .iter()
        .map(|(_, e)| e.root_time)
        .min()
        .expect("non-empty match");
    Event::composite(
        idgen(&lineage.0),
        Interval::new(last.vs(), first.vs() + w),
        rt,
        lineage,
        Payload::concat_all(chosen.iter().map(|(_, e)| &e.payload)),
    )
}

/// SEQUENCE(E1, …, Ek, w) with predicate injection, returning full matches.
pub fn sequence_matches(inputs: &[EventSet], w: Duration, pred: &Pred) -> Vec<PatternMatch> {
    let k = inputs.len();
    if k == 0 {
        return Vec::new();
    }
    // Sort each slot by Vs for scope pruning.
    let mut slots: Vec<Vec<&Event>> = inputs
        .iter()
        .map(|s| {
            let mut v: Vec<&Event> = s.iter().collect();
            v.sort_by_key(|e| (e.vs(), e.id));
            v
        })
        .collect();
    for slot in &mut slots {
        slot.retain(|e| !e.interval.is_empty());
    }

    let mut out = Vec::new();
    let mut stack: Vec<&Event> = Vec::with_capacity(k);

    fn recurse<'a>(
        slots: &[Vec<&'a Event>],
        depth: usize,
        w: Duration,
        pred: &Pred,
        stack: &mut Vec<&'a Event>,
        out: &mut Vec<PatternMatch>,
    ) {
        if depth == slots.len() {
            let contributors: Vec<Option<Event>> =
                stack.iter().map(|e| Some((*e).clone())).collect();
            if !eval_pred(pred, &contributors) {
                return;
            }
            let chosen: Vec<(usize, &Event)> =
                stack.iter().enumerate().map(|(i, e)| (i, *e)).collect();
            let output = compose_output(&chosen, w);
            if output.interval.is_empty() {
                return; // boundary match: vacuous lifetime
            }
            out.push(PatternMatch {
                contributors,
                output,
            });
            return;
        }
        let min_vs = stack.last().map(|e| e.vs());
        let deadline = stack.first().map(|e| e.vs() + w);
        for e in &slots[depth] {
            if let Some(m) = min_vs {
                if e.vs() <= m {
                    continue;
                }
            }
            if let Some(d) = deadline {
                if e.vs() > d {
                    break;
                }
                // The constraint is ek.Vs − e1.Vs ≤ w, i.e. e.Vs ≤ e1.Vs + w.
            }
            stack.push(e);
            recurse(slots, depth + 1, w, pred, stack, out);
            stack.pop();
        }
    }

    recurse(&slots, 0, w, pred, &mut stack, &mut out);
    out
}

/// SEQUENCE(E1, …, Ek, w): the composite output events.
pub fn sequence(inputs: &[EventSet], w: Duration, pred: &Pred) -> EventSet {
    sequence_matches(inputs, w, pred)
        .into_iter()
        .map(|m| m.output)
        .collect()
}

/// ATLEAST(n, E1, …, Ek, w) with predicate injection, returning matches.
///
/// Chooses `n` distinct slots, one event per chosen slot, with strictly
/// increasing `Vs` (ties excluded per the denotation) and scope `w`.
/// Contributor tuples place each event at its *declared* slot; unchosen
/// slots are `None` (predicates over them see `Null`).
pub fn atleast_matches(
    n: usize,
    inputs: &[EventSet],
    w: Duration,
    pred: &Pred,
) -> Vec<PatternMatch> {
    let k = inputs.len();
    if n == 0 || n > k {
        return Vec::new();
    }
    let mut out = Vec::new();
    // Enumerate n-subsets of slots.
    let mut subset: Vec<usize> = Vec::with_capacity(n);

    #[allow(clippy::too_many_arguments)]
    fn choose_slots(
        k: usize,
        n: usize,
        start: usize,
        subset: &mut Vec<usize>,
        inputs: &[EventSet],
        w: Duration,
        pred: &Pred,
        out: &mut Vec<PatternMatch>,
    ) {
        if subset.len() == n {
            enumerate_events(subset, inputs, w, pred, out);
            return;
        }
        for s in start..k {
            subset.push(s);
            choose_slots(k, n, s + 1, subset, inputs, w, pred, out);
            subset.pop();
        }
    }

    fn enumerate_events(
        subset: &[usize],
        inputs: &[EventSet],
        w: Duration,
        pred: &Pred,
        out: &mut Vec<PatternMatch>,
    ) {
        // Cartesian product over the chosen slots.
        let mut picks: Vec<&Event> = Vec::with_capacity(subset.len());
        fn rec<'a>(
            subset: &[usize],
            inputs: &'a [EventSet],
            idx: usize,
            picks: &mut Vec<&'a Event>,
            w: Duration,
            pred: &Pred,
            out: &mut Vec<PatternMatch>,
        ) {
            if idx == subset.len() {
                // Order the picks by Vs; require strict increase and scope.
                let mut ordered: Vec<(usize, &Event)> =
                    subset.iter().copied().zip(picks.iter().copied()).collect();
                ordered.sort_by_key(|(_, e)| (e.vs(), e.id));
                for pair in ordered.windows(2) {
                    if pair[0].1.vs() >= pair[1].1.vs() {
                        return; // strict order violated
                    }
                }
                let first = ordered.first().unwrap().1;
                let last = ordered.last().unwrap().1;
                match last.vs().since(first.vs()) {
                    Some(d) if d <= w => {}
                    _ => return,
                }
                let mut contributors: Vec<Option<Event>> = vec![None; inputs.len()];
                for (slot, e) in &ordered {
                    contributors[*slot] = Some((*e).clone());
                }
                if !eval_pred(pred, &contributors) {
                    return;
                }
                let output = compose_output(&ordered, w);
                if output.interval.is_empty() {
                    return; // boundary match: vacuous lifetime
                }
                out.push(PatternMatch {
                    contributors,
                    output,
                });
                return;
            }
            for e in &inputs[subset[idx]] {
                if e.interval.is_empty() {
                    continue;
                }
                picks.push(e);
                rec(subset, inputs, idx + 1, picks, w, pred, out);
                picks.pop();
            }
        }
        rec(subset, inputs, 0, &mut picks, w, pred, out);
    }

    choose_slots(k, n, 0, &mut subset, inputs, w, pred, &mut out);
    out
}

/// ATLEAST(n, E1, …, Ek, w): the composite output events.
pub fn atleast(n: usize, inputs: &[EventSet], w: Duration, pred: &Pred) -> EventSet {
    atleast_matches(n, inputs, w, pred)
        .into_iter()
        .map(|m| m.output)
        .collect()
}

/// ALL(E1, …, Ek, w) ≡ ATLEAST(k, E1, …, Ek, w).
pub fn all(inputs: &[EventSet], w: Duration, pred: &Pred) -> EventSet {
    atleast(inputs.len(), inputs, w, pred)
}

/// ANY(E1, …, Ek) ≡ ATLEAST(1, E1, …, Ek, 1).
pub fn any(inputs: &[EventSet], pred: &Pred) -> EventSet {
    atleast(1, inputs, Duration(1), pred)
}

/// ATMOST(n, E1, …, Ek, w): "syntactic sugar, which can be expressed with
/// sliding window aggregate (count aggregate)".
///
/// Realisation: extend every contributor occurrence to a lifetime of `w`
/// (AlterLifetime), count the live occurrences over time, and report the
/// maximal segments where `1 ≤ count ≤ n` (an empty relation has no
/// segments). Payload: the count.
pub fn atmost(n: usize, inputs: &[EventSet], w: Duration) -> EventSet {
    use crate::alter_lifetime::{alter_lifetime, DeltaFn, VsFn};
    use crate::relational::{group_aggregate, AggFunc};
    let mut unioned: EventSet = Vec::new();
    for s in inputs {
        unioned.extend(s.iter().cloned());
    }
    let extended = alter_lifetime(&unioned, VsFn::Vs, DeltaFn::Const(w));
    let counted = group_aggregate(&extended, &[], &AggFunc::Count);
    counted
        .into_iter()
        .filter(|e| {
            matches!(e.payload.get(0), Some(cedr_temporal::Value::Int(c)) if (*c as usize) <= n)
        })
        .collect()
}

/// UNLESS(E1, E2, w) with predicate injection: `e1` produces output iff no
/// `e2` with `e1.Vs < e2.Vs < e1.Vs + w` satisfies `neg_pred` over the
/// tuple `[e1, e2]`.
pub fn unless(e1s: &[Event], e2s: &[Event], w: Duration, neg_pred: &Pred) -> EventSet {
    e1s.iter()
        .filter(|e1| !e1.interval.is_empty())
        .filter(|e1| {
            !e2s.iter().any(|e2| {
                !e2.interval.is_empty()
                    && e1.vs() < e2.vs()
                    && e2.vs() < e1.vs() + w
                    && neg_pred.eval_tuple(&[e1, e2])
            })
        })
        .map(|e1| {
            Event::composite(
                e1.id,
                Interval::new(e1.vs(), e1.vs() + w),
                e1.root_time,
                Lineage::of(vec![e1.id]),
                e1.payload.clone(),
            )
        })
        .collect()
}

/// UNLESS′(E1, E2, n, w): the negation scope starts at the `n`-th
/// contributor of the (composite) `e1`, resolved through `contributor_pool`.
/// Output `Vs = max(e1.cbt[n].Vs + w, e1.Vs)`, `Ve = e1.Vs + w`.
///
/// Events whose lineage is shorter than `n` are skipped (the language
/// binder rejects such queries at compile time; see `cedr-lang`).
pub fn unless_prime(
    e1s: &[Event],
    e2s: &[Event],
    n: usize,
    w: Duration,
    neg_pred: &Pred,
    contributor_pool: &[Event],
) -> EventSet {
    let by_id: HashMap<EventId, &Event> = contributor_pool.iter().map(|e| (e.id, e)).collect();
    let mut out = Vec::new();
    for e1 in e1s {
        let Some(cbt_n_id) = e1.lineage.nth(n) else {
            continue;
        };
        let Some(anchor) = by_id.get(&cbt_n_id) else {
            continue;
        };
        let scope_start = anchor.vs();
        let negated = e2s.iter().any(|e2| {
            !e2.interval.is_empty()
                && scope_start < e2.vs()
                && e2.vs() < scope_start + w
                && neg_pred.eval_tuple(&[e1, e2])
        });
        if negated {
            continue;
        }
        let vs_out = TimePoint::max_of(scope_start + w, e1.vs());
        out.push(Event::composite(
            e1.id,
            Interval::new(vs_out, e1.vs() + w),
            e1.root_time,
            Lineage::of(vec![e1.id]),
            e1.payload.clone(),
        ));
    }
    out
}

/// NOT(E, SEQUENCE(E1, …, Ek, w)): sequence outputs survive iff no negated
/// event `e` occurs strictly between the first and last contributor.
/// `neg_pred` is evaluated over the tuple `[e1, …, ek, e]`.
pub fn not_sequence(
    neg: &[Event],
    inputs: &[EventSet],
    w: Duration,
    seq_pred: &Pred,
    neg_pred: &Pred,
) -> EventSet {
    let matches = sequence_matches(inputs, w, seq_pred);
    let ph = placeholder();
    matches
        .into_iter()
        .filter(|m| {
            let first_vs = m
                .contributors
                .first()
                .and_then(|c| c.as_ref())
                .map(|e| e.vs())
                .unwrap_or(TimePoint::ZERO);
            let last_vs = m
                .contributors
                .last()
                .and_then(|c| c.as_ref())
                .map(|e| e.vs())
                .unwrap_or(TimePoint::ZERO);
            !neg.iter().any(|e| {
                if e.interval.is_empty() || e.vs() <= first_vs || e.vs() >= last_vs {
                    return false;
                }
                let mut tuple: Vec<&Event> = m
                    .contributors
                    .iter()
                    .map(|c| c.as_ref().unwrap_or(&ph))
                    .collect();
                tuple.push(e);
                neg_pred.eval_tuple(&tuple)
            })
        })
        .map(|m| m.output)
        .collect()
}

/// CANCEL-WHEN(E1, E2): `e1` survives iff no `e2` occurs strictly between
/// `e1`'s root time and its `Vs` (the window in which `e1`'s detection was
/// "pending"). `neg_pred` is evaluated over `[e1, e2]`.
pub fn cancel_when(e1s: &[Event], e2s: &[Event], neg_pred: &Pred) -> EventSet {
    e1s.iter()
        .filter(|e1| {
            !e2s.iter().any(|e2| {
                !e2.interval.is_empty()
                    && e1.root_time < e2.vs()
                    && e2.vs() < e1.vs()
                    && neg_pred.eval_tuple(&[e1, e2])
            })
        })
        .cloned()
        .collect()
}

/// Apply SC modes to a deterministic match list.
///
/// Matches are processed in detection order — by output `Vs` (the trigger
/// contributor's occurrence), tie-broken by lineage. Selection restricts
/// which matches sharing a trigger event survive; consumption removes used
/// contributor instances from later matches.
pub fn apply_sc_modes(matches: Vec<PatternMatch>, modes: &[ScMode]) -> Vec<PatternMatch> {
    use std::collections::HashSet;

    let all_each_reuse = modes
        .iter()
        .all(|m| m.selection == Selection::Each && m.consumption == Consumption::Reuse);
    if all_each_reuse {
        return matches;
    }

    // Detection order: by trigger (output Vs), then by contributor Vs.
    let mut ordered = matches;
    ordered.sort_by(|a, b| {
        let ka = (a.output.vs(), contributor_key(a));
        let kb = (b.output.vs(), contributor_key(b));
        ka.cmp(&kb)
    });

    // Group by trigger event (the contributor with the greatest Vs).
    let mut consumed: HashSet<EventId> = HashSet::new();
    let mut out: Vec<PatternMatch> = Vec::new();
    let mut i = 0;
    while i < ordered.len() {
        let trigger = trigger_id(&ordered[i]);
        let mut group_end = i + 1;
        while group_end < ordered.len() && trigger_id(&ordered[group_end]) == trigger {
            group_end += 1;
        }
        // Filter out matches using consumed instances.
        let mut group: Vec<&PatternMatch> = ordered[i..group_end]
            .iter()
            .filter(|m| {
                m.contributors
                    .iter()
                    .flatten()
                    .all(|e| !consumed.contains(&e.id))
            })
            .collect();
        // Selection: order the group per slot policy and keep the best if
        // any slot restricts selection.
        let restrictive = modes.iter().any(|m| m.selection != Selection::Each);
        if restrictive && group.len() > 1 {
            group.sort_by(|a, b| {
                for (slot, mode) in modes.iter().enumerate() {
                    let va = slot_vs(a, slot);
                    let vb = slot_vs(b, slot);
                    let ord = match mode.selection {
                        Selection::Each => continue,
                        Selection::First => va.cmp(&vb),
                        Selection::MostRecent => vb.cmp(&va),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            group.truncate(1);
        }
        for m in group {
            out.push(m.clone());
            for (slot, mode) in modes.iter().enumerate() {
                if mode.consumption == Consumption::Consume {
                    if let Some(Some(e)) = m.contributors.get(slot) {
                        consumed.insert(e.id);
                    }
                }
            }
        }
        i = group_end;
    }
    out
}

fn contributor_key(m: &PatternMatch) -> Vec<(TimePoint, u64)> {
    m.contributors
        .iter()
        .flatten()
        .map(|e| (e.vs(), e.id.0))
        .collect()
}

fn trigger_id(m: &PatternMatch) -> EventId {
    m.contributors
        .iter()
        .flatten()
        .max_by_key(|e| (e.vs(), e.id))
        .map(|e| e.id)
        .unwrap_or(EventId(u64::MAX))
}

fn slot_vs(m: &PatternMatch, slot: usize) -> TimePoint {
    m.contributors
        .get(slot)
        .and_then(|c| c.as_ref())
        .map(|e| e.vs())
        .unwrap_or(TimePoint::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Scalar};
    use cedr_temporal::time::{dur, t};
    use cedr_temporal::Value;

    fn pt(id: u64, vs: u64) -> Event {
        Event::primitive(EventId(id), Interval::point(t(vs)), Payload::empty())
    }

    fn ptp(id: u64, vs: u64, val: &str) -> Event {
        Event::primitive(
            EventId(id),
            Interval::point(t(vs)),
            Payload::from_values(vec![Value::str(val)]),
        )
    }

    #[test]
    fn sequence_matches_ordered_pairs_within_scope() {
        let e1s = vec![pt(1, 10), pt(2, 50)];
        let e2s = vec![pt(3, 15), pt(4, 100)];
        let out = sequence(&[e1s, e2s], dur(10), &Pred::True);
        // Only (e1@10, e3@15) is within scope; (e2@50, e4@100) exceeds w=10.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].interval, Interval::new(t(15), t(20)));
        assert_eq!(out[0].root_time, t(10));
        assert_eq!(out[0].lineage.len(), 2);
    }

    #[test]
    fn sequence_requires_strict_order() {
        let a = vec![pt(1, 10)];
        let b = vec![pt(2, 10)];
        assert!(sequence(&[a.clone(), b.clone()], dur(5), &Pred::True).is_empty());
        // And order matters: E2 before E1 is no match.
        let a2 = vec![pt(3, 20)];
        let b2 = vec![pt(4, 10)];
        assert!(sequence(&[a2, b2], dur(50), &Pred::True).is_empty());
    }

    #[test]
    fn sequence_three_way_with_lineage_order() {
        let out = sequence(
            &[vec![pt(1, 1)], vec![pt(2, 3)], vec![pt(3, 5)]],
            dur(10),
            &Pred::True,
        );
        assert_eq!(out.len(), 1);
        let ids: Vec<EventId> = out[0].lineage.0.to_vec();
        assert_eq!(ids, vec![EventId(1), EventId(2), EventId(3)]);
        assert_eq!(out[0].interval, Interval::new(t(5), t(11)));
    }

    #[test]
    fn sequence_predicate_injection() {
        let installs = vec![ptp(1, 1, "m1"), ptp(2, 2, "m2")];
        let shutdowns = vec![ptp(3, 5, "m1")];
        let key = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        let out = sequence(&[installs, shutdowns], dur(100), &key);
        assert_eq!(out.len(), 1, "only the m1 pair correlates");
        assert_eq!(out[0].lineage.nth(1), Some(EventId(1)));
    }

    #[test]
    fn atleast_chooses_subsets_of_distinct_slots() {
        // Three slots; n=2; events at 1, 2, 3.
        let out = atleast(
            2,
            &[vec![pt(1, 1)], vec![pt(2, 2)], vec![pt(3, 3)]],
            dur(10),
            &Pred::True,
        );
        // Pairs: (1,2), (1,3), (2,3).
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn atleast_orders_by_vs_not_slot() {
        // Slot 0's event occurs after slot 1's: ATLEAST doesn't care.
        let out = atleast(2, &[vec![pt(1, 9)], vec![pt(2, 4)]], dur(10), &Pred::True);
        assert_eq!(out.len(), 1);
        // ei1 = the earlier event (id 2), ein = id 1: interval [9, 4+10).
        assert_eq!(out[0].interval, Interval::new(t(9), t(14)));
        assert_eq!(out[0].lineage.0.to_vec(), vec![EventId(2), EventId(1)]);
    }

    #[test]
    fn all_requires_every_slot() {
        let slots = [vec![pt(1, 1)], vec![pt(2, 3)], vec![]];
        assert!(all(&slots, dur(10), &Pred::True).is_empty());
        let full = [vec![pt(1, 1)], vec![pt(2, 3)], vec![pt(3, 4)]];
        assert_eq!(all(&full, dur(10), &Pred::True).len(), 1);
    }

    #[test]
    fn any_fires_per_event() {
        let out = any(&[vec![pt(1, 1)], vec![pt(2, 5)]], &Pred::True);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn atmost_counts_live_occurrences() {
        // Events at 0 and 2 with w=5: count 1 on [0,2), 2 on [2,5), 1 on [5,7).
        let out = atmost(1, &[vec![pt(1, 0)], vec![pt(2, 2)]], dur(5));
        let mut ivs: Vec<Interval> = out.iter().map(|e| e.interval).collect();
        ivs.sort();
        assert_eq!(
            ivs,
            vec![Interval::new(t(0), t(2)), Interval::new(t(5), t(7))]
        );
        // With n=2 the whole span qualifies.
        let out2 = atmost(2, &[vec![pt(1, 0)], vec![pt(2, 2)]], dur(5));
        assert_eq!(out2.len(), 3);
    }

    #[test]
    fn unless_emits_on_non_occurrence() {
        let e1s = vec![pt(1, 10)];
        // No e2 in (10, 15): output.
        let out = unless(&e1s, &[pt(9, 9), pt(2, 15)], dur(5), &Pred::True);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].interval, Interval::new(t(10), t(15)));
        assert_eq!(out[0].id, EventId(1), "UNLESS keeps e1's identity");
        // An e2 strictly inside the scope suppresses it.
        let out2 = unless(&e1s, &[pt(3, 12)], dur(5), &Pred::True);
        assert!(out2.is_empty());
    }

    #[test]
    fn unless_scope_boundaries_are_strict() {
        let e1s = vec![pt(1, 10)];
        // e2 exactly at e1.Vs or at e1.Vs+w does NOT negate (strict <).
        assert_eq!(unless(&e1s, &[pt(2, 10)], dur(5), &Pred::True).len(), 1);
        assert_eq!(unless(&e1s, &[pt(2, 15)], dur(5), &Pred::True).len(), 1);
        assert_eq!(unless(&e1s, &[pt(2, 11)], dur(5), &Pred::True).len(), 0);
        assert_eq!(unless(&e1s, &[pt(2, 14)], dur(5), &Pred::True).len(), 0);
    }

    #[test]
    fn unless_predicate_injection_guards_negation() {
        // CIDR07_Example shape: the RESTART only negates if it's the same
        // machine.
        let seq_out = vec![ptp(1, 10, "m1")];
        let restarts = vec![ptp(2, 12, "m2")];
        let same_machine = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        let out = unless(&seq_out, &restarts, dur(5), &same_machine);
        assert_eq!(out.len(), 1, "other machine's restart must not negate");
        let restarts2 = vec![ptp(3, 12, "m1")];
        assert!(unless(&seq_out, &restarts2, dur(5), &same_machine).is_empty());
    }

    #[test]
    fn unless_prime_scopes_from_nth_contributor() {
        // Composite e1 with contributors at Vs 2 and 10.
        let c1 = pt(100, 2);
        let c2 = pt(101, 10);
        let e1 = Event::composite(
            idgen(&[c1.id, c2.id]),
            Interval::new(t(10), t(20)),
            t(2),
            Lineage::of(vec![c1.id, c2.id]),
            Payload::empty(),
        );
        let pool = vec![c1.clone(), c2.clone()];
        // Scope from cbt[1] (Vs=2), w=5: negation window (2,7).
        let out = unless_prime(
            std::slice::from_ref(&e1),
            &[pt(5, 5)],
            1,
            dur(5),
            &Pred::True,
            &pool,
        );
        assert!(out.is_empty(), "e2 at 5 ∈ (2,7) negates");
        let out2 = unless_prime(
            std::slice::from_ref(&e1),
            &[pt(5, 8)],
            1,
            dur(5),
            &Pred::True,
            &pool,
        );
        assert_eq!(out2.len(), 1);
        // Output Vs = max(cbt[1].Vs + w, e1.Vs) = max(7, 10) = 10.
        assert_eq!(out2[0].interval.start, t(10));
        assert_eq!(out2[0].interval.end, t(15));
        // Lineage shorter than n: skipped.
        let out3 = unless_prime(&[e1], &[], 3, dur(5), &Pred::True, &pool);
        assert!(out3.is_empty());
    }

    #[test]
    fn not_sequence_filters_on_interleaved_events() {
        let inputs = [vec![pt(1, 1)], vec![pt(2, 10)]];
        // Negated event at 5 ∈ (1,10): kills the match.
        let out = not_sequence(&[pt(3, 5)], &inputs, dur(20), &Pred::True, &Pred::True);
        assert!(out.is_empty());
        // At the boundary (Vs=1 or Vs=10): survives (strict inequalities).
        let out2 = not_sequence(
            &[pt(3, 1), pt(4, 10)],
            &inputs,
            dur(20),
            &Pred::True,
            &Pred::True,
        );
        assert_eq!(out2.len(), 1);
    }

    #[test]
    fn not_sequence_neg_predicate_sees_tuple_and_negated_event() {
        let inputs = [vec![ptp(1, 1, "m1")], vec![ptp(2, 10, "m1")]];
        // Negated event on another machine doesn't kill the match when the
        // predicate requires equality with slot 0 (slot index 2 = negated).
        let np = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(2, 0));
        let out = not_sequence(&[ptp(3, 5, "m2")], &inputs, dur(20), &Pred::True, &np);
        assert_eq!(out.len(), 1);
        let out2 = not_sequence(&[ptp(3, 5, "m1")], &inputs, dur(20), &Pred::True, &np);
        assert!(out2.is_empty());
    }

    #[test]
    fn cancel_when_cancels_pending_detection() {
        // Composite whose detection spans (rt=1, Vs=10).
        let e1 = Event::composite(
            EventId(50),
            Interval::new(t(10), t(20)),
            t(1),
            Lineage::of(vec![EventId(1), EventId(2)]),
            Payload::empty(),
        );
        assert!(cancel_when(std::slice::from_ref(&e1), &[pt(9, 5)], &Pred::True).is_empty());
        // Outside (rt, Vs): survives.
        assert_eq!(
            cancel_when(std::slice::from_ref(&e1), &[pt(9, 1)], &Pred::True).len(),
            1
        );
        assert_eq!(
            cancel_when(std::slice::from_ref(&e1), &[pt(9, 10)], &Pred::True).len(),
            1
        );
        assert_eq!(cancel_when(&[e1], &[pt(9, 30)], &Pred::True).len(), 1);
    }

    #[test]
    fn sc_consume_prevents_reuse() {
        // One E1 at 1; two E2s at 3 and 5. With Consume on slot 0 the first
        // pair consumes e1 and the (1,5) match dies.
        let matches = sequence_matches(
            &[vec![pt(1, 1)], vec![pt(2, 3), pt(3, 5)]],
            dur(10),
            &Pred::True,
        );
        assert_eq!(matches.len(), 2);
        let modes = [
            ScMode::new(Selection::Each, Consumption::Consume),
            ScMode::EACH_REUSE,
        ];
        let kept = apply_sc_modes(matches, &modes);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].contributors[1].as_ref().unwrap().id, EventId(2));
    }

    #[test]
    fn sc_first_selects_earliest_partner() {
        // Two E1s at 1 and 2, one E2 at 5: both pairs share trigger e2.
        let matches = sequence_matches(
            &[vec![pt(1, 1), pt(2, 2)], vec![pt(3, 5)]],
            dur(10),
            &Pred::True,
        );
        assert_eq!(matches.len(), 2);
        let first = apply_sc_modes(
            matches.clone(),
            &[
                ScMode::new(Selection::First, Consumption::Reuse),
                ScMode::EACH_REUSE,
            ],
        );
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].contributors[0].as_ref().unwrap().id, EventId(1));
        let recent = apply_sc_modes(
            matches,
            &[
                ScMode::new(Selection::MostRecent, Consumption::Reuse),
                ScMode::EACH_REUSE,
            ],
        );
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].contributors[0].as_ref().unwrap().id, EventId(2));
    }

    #[test]
    fn sc_each_reuse_is_identity() {
        let matches = sequence_matches(
            &[vec![pt(1, 1), pt(2, 2)], vec![pt(3, 5)]],
            dur(10),
            &Pred::True,
        );
        let kept = apply_sc_modes(matches.clone(), &[ScMode::EACH_REUSE, ScMode::EACH_REUSE]);
        assert_eq!(kept.len(), matches.len());
    }
}
