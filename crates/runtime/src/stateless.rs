//! Stateless operational modules: selection, projection, AlterLifetime and
//! union.
//!
//! These operators are pure per-event functions, so retraction handling is
//! mechanical: transform the retracted event the same way as the original
//! insert and emit the difference. They hold no state at any consistency
//! level (the "Minimal"/"Low" state rows of Figure 8 for simple plans).
//!
//! Each [`OperatorModule::on_batch`] is one loop over the delivery run
//! that handles every message exactly once, so a run of `n` messages and
//! `n` runs of one produce the same output by construction. The
//! filter/map/pass-through operators (select, project, union) emit at
//! most one output per input and pre-size the output buffer for the run.

use crate::operator::{OpContext, OperatorModule, OutputBuffer};
use cedr_algebra::alter_lifetime::{DeltaFn, VsFn};
use cedr_algebra::expr::{Pred, Scalar};
use cedr_streams::{Message, Retraction};
use cedr_temporal::{Event, Interval, Payload, TimePoint};

/// Physical selection σ_f (Definition 8).
pub struct SelectOp {
    pred: Pred,
}

impl SelectOp {
    pub fn new(pred: Pred) -> Self {
        SelectOp { pred }
    }
}

impl OperatorModule for SelectOp {
    fn name(&self) -> &'static str {
        "select"
    }

    /// Batch-native filtering: evaluate the predicate across the run and
    /// emit the survivors (`Arc` clones) into one output buffer.
    fn on_batch(&mut self, _input: usize, msgs: &[Message], ctx: &mut OpContext) {
        ctx.out.reserve(msgs.len());
        for m in msgs {
            match m {
                Message::Insert(e) => {
                    if self.pred.eval_event(e) {
                        ctx.out.insert(e.clone());
                    }
                }
                Message::Retract(r) => {
                    // The payload is unchanged by retraction, so the event
                    // passed the filter iff its retraction does.
                    if self.pred.eval_event(&r.event) {
                        ctx.out.retract_to(r.event.clone(), r.new_end);
                    }
                }
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
    }
}

/// Physical SQL projection π_f (Definition 7).
pub struct ProjectOp {
    exprs: Vec<Scalar>,
}

impl ProjectOp {
    pub fn new(exprs: Vec<Scalar>) -> Self {
        ProjectOp { exprs }
    }

    fn transform(&self, e: &Event) -> Event {
        let payload: Payload = self.exprs.iter().map(|x| x.eval_event(e)).collect();
        Event {
            id: e.id,
            interval: e.interval,
            root_time: e.root_time,
            lineage: e.lineage.clone(),
            payload,
        }
    }
}

impl OperatorModule for ProjectOp {
    fn name(&self) -> &'static str {
        "project"
    }

    /// Batch-native mapping: transform the run in one pass into one
    /// pre-sized output buffer (projection is total, so the output length
    /// is known up front).
    fn on_batch(&mut self, _input: usize, msgs: &[Message], ctx: &mut OpContext) {
        ctx.out.reserve(msgs.len());
        for m in msgs {
            match m {
                Message::Insert(e) => ctx.out.insert(self.transform(e)),
                Message::Retract(r) => ctx.out.retract_to(self.transform(&r.event), r.new_end),
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
    }
}

/// Physical AlterLifetime Π_{fVs, f∆} (Definition 12).
///
/// Stateless: the output for an event is a pure function of the event, so a
/// retraction of the input is handled by recomputing the mapping for the
/// shortened event and emitting the difference. Lifetime mappings whose
/// start depends on `Ve` (the `Deletes` separation) turn an input
/// retraction into a full removal plus a fresh insert.
pub struct AlterLifetimeOp {
    fvs: VsFn,
    fdelta: DeltaFn,
}

impl AlterLifetimeOp {
    pub fn new(fvs: VsFn, fdelta: DeltaFn) -> Self {
        AlterLifetimeOp { fvs, fdelta }
    }

    /// `W_wl`: the moving window.
    pub fn window(wl: cedr_temporal::Duration) -> Self {
        Self::new(VsFn::Vs, DeltaFn::WindowClip { wl })
    }

    /// `Inserts(S) = Π_{Vs, ∞}`.
    pub fn inserts() -> Self {
        Self::new(VsFn::Vs, DeltaFn::Infinite)
    }

    /// `Deletes(S) = Π_{Ve, ∞}`.
    pub fn deletes() -> Self {
        Self::new(VsFn::Ve, DeltaFn::Infinite)
    }

    /// A hopping window with the given period and size.
    pub fn hopping(period: u64, size: cedr_temporal::Duration) -> Self {
        Self::new(VsFn::HopVs { period }, DeltaFn::Const(size))
    }

    fn map(&self, e: &Event) -> Event {
        let vs = self.fvs.eval(e);
        let ve = vs + self.fdelta.eval(e);
        Event {
            id: e.id,
            interval: Interval::new(vs, ve),
            root_time: e.root_time,
            lineage: e.lineage.clone(),
            payload: e.payload.clone(),
        }
    }

    /// Emit the difference between the mapped original and the mapped
    /// shortening.
    fn retract(&self, r: &Retraction, out: &mut OutputBuffer) {
        let old_out = self.map(&r.event);
        let shortened = r.retracted_event();
        let new_out = if shortened.interval.is_empty() {
            None
        } else {
            Some(self.map(&shortened)).filter(|e| !e.interval.is_empty())
        };
        match (old_out.interval.is_empty(), new_out) {
            (true, None) => {}
            (true, Some(n)) => out.insert(n),
            (false, None) => out.retract_full(old_out),
            (false, Some(n)) => {
                if n.interval == old_out.interval {
                    // e.g. a window whose clipped lifetime is unaffected.
                } else if n.interval.start == old_out.interval.start
                    && n.interval.end < old_out.interval.end
                {
                    out.retract_to(old_out, n.interval.end);
                } else {
                    // The start moved (Ve-anchored mappings) or the lifetime
                    // grew (impossible for pure shortenings, kept for
                    // robustness): remove and re-insert.
                    out.retract_full(old_out);
                    out.insert(n);
                }
            }
        }
    }
}

impl OperatorModule for AlterLifetimeOp {
    fn name(&self) -> &'static str {
        "alter_lifetime"
    }

    fn on_batch(&mut self, _input: usize, msgs: &[Message], ctx: &mut OpContext) {
        for m in msgs {
            match m {
                Message::Insert(e) => ctx.out.insert(self.map(e)),
                Message::Retract(r) => self.retract(r, ctx.out),
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
    }

    fn map_cti(&self, watermark: TimePoint) -> TimePoint {
        if watermark.is_infinite() {
            return watermark;
        }
        match self.fvs {
            // Future inputs (sync ≥ watermark) map to outputs with
            // Vs ≥ watermark for both Vs- and Ve-anchored lifetimes
            // (retractions can only land at new_end ≥ watermark).
            VsFn::Vs | VsFn::Ve => watermark,
            // A future input can snap down to its hop boundary.
            VsFn::HopVs { period } => {
                let p = period.max(1);
                TimePoint::new(watermark.0 / p * p)
            }
            // Outputs keep appearing at the constant anchor until the input
            // is exhausted.
            VsFn::Const(t) => TimePoint::min_of(watermark, t),
        }
    }
}

/// Physical temporal slicing (the `@` / `#` operators of Section 3.2).
///
/// `#[tv1, tv2)` clips output validity intervals; `@[to1, to2)` filters on
/// occurrence time, which in the merged unitemporal regime of Section 6 is
/// the event's `Vs`. Stateless: retractions are re-sliced the same way.
pub struct SliceOp {
    /// `#` — clip valid time to this window.
    valid: Option<Interval>,
    /// `@` — keep only events whose occurrence (`Vs`) falls in this window.
    occurrence: Option<Interval>,
}

impl SliceOp {
    pub fn new(valid: Option<Interval>, occurrence: Option<Interval>) -> Self {
        SliceOp { valid, occurrence }
    }

    fn slice(&self, e: &Event) -> Option<Event> {
        if let Some(occ) = &self.occurrence {
            if !occ.contains(e.vs()) {
                return None;
            }
        }
        let iv = match &self.valid {
            Some(v) => e.interval.intersect(v),
            None => e.interval,
        };
        if iv.is_empty() {
            return None;
        }
        let mut out = e.clone();
        out.interval = iv;
        Some(out)
    }
}

impl OperatorModule for SliceOp {
    fn name(&self) -> &'static str {
        "slice"
    }

    fn on_batch(&mut self, _input: usize, msgs: &[Message], ctx: &mut OpContext) {
        for m in msgs {
            match m {
                Message::Insert(e) => {
                    if let Some(out) = self.slice(e) {
                        ctx.out.insert(out);
                    }
                }
                Message::Retract(r) => {
                    let Some(old_out) = self.slice(&r.event) else {
                        continue;
                    };
                    match self.slice(&r.retracted_event()) {
                        Some(new_out) if new_out.interval == old_out.interval => {}
                        Some(new_out) => ctx.out.retract_to(old_out, new_out.interval.end),
                        None => ctx.out.retract_full(old_out),
                    }
                }
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
    }
}

/// Physical union: pass-through of both inputs (bag semantics; input IDs
/// are assumed disjoint, which the planner guarantees).
pub struct UnionOp;

impl OperatorModule for UnionOp {
    fn name(&self) -> &'static str {
        "union"
    }

    fn arity(&self) -> usize {
        2
    }

    /// Batch-native pass-through: the whole run is forwarded as `Arc`
    /// clones in one pre-sized append.
    fn on_batch(&mut self, _input: usize, msgs: &[Message], ctx: &mut OpContext) {
        ctx.out.reserve(msgs.len());
        for m in msgs {
            match m {
                Message::Insert(e) => ctx.out.insert(e.clone()),
                Message::Retract(r) => ctx.out.retract_to(r.event.clone(), r.new_end),
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::ConsistencySpec;
    use crate::operator::OperatorShell;
    use cedr_algebra::expr::CmpOp;
    use cedr_streams::Message;
    use cedr_temporal::interval::{iv, iv_inf};
    use cedr_temporal::time::{dur, t};
    use cedr_temporal::{EventId, Value};

    fn ev(id: u64, a: u64, b: u64, v: i64) -> Event {
        Event::primitive(
            EventId(id),
            iv(a, b),
            Payload::from_values(vec![Value::Int(v)]),
        )
    }

    fn run(shell: &mut OperatorShell, msgs: Vec<Message>) -> Vec<Message> {
        let mut out = Vec::new();
        for (i, m) in msgs.into_iter().enumerate() {
            out.extend(shell.push(0, m, i as u64));
        }
        out
    }

    #[test]
    fn select_forwards_matching_inserts_and_retractions() {
        let pred = Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(5i64));
        let mut s = OperatorShell::new(Box::new(SelectOp::new(pred)), ConsistencySpec::middle());
        let keep = ev(1, 0, 10, 7);
        let drop = ev(2, 0, 10, 3);
        let out = run(
            &mut s,
            vec![
                Message::insert_event(keep.clone()),
                Message::insert_event(drop.clone()),
                Message::Retract(Retraction::new(keep, t(4))),
                Message::Retract(Retraction::new(drop, t(4))),
            ],
        );
        let data: Vec<&Message> = out.iter().filter(|m| m.is_data()).collect();
        assert_eq!(data.len(), 2, "one insert + one retraction pass");
        assert!(data[0].as_insert().is_some());
        assert_eq!(data[1].as_retract().unwrap().new_end, t(4));
    }

    #[test]
    fn project_transforms_insert_and_retraction_alike() {
        let mut s = OperatorShell::new(
            Box::new(ProjectOp::new(vec![Scalar::Mul(
                Box::new(Scalar::Field(0)),
                Box::new(Scalar::lit(2i64)),
            )])),
            ConsistencySpec::middle(),
        );
        let e = ev(1, 0, 10, 21);
        let out = run(
            &mut s,
            vec![
                Message::insert_event(e.clone()),
                Message::Retract(Retraction::new(e, t(5))),
            ],
        );
        let ins = out[0].as_insert().unwrap();
        assert_eq!(ins.payload.get(0), Some(&Value::Float(42.0)));
        let r = out[1].as_retract().unwrap();
        assert_eq!(r.event.payload.get(0), Some(&Value::Float(42.0)));
        assert_eq!(r.event.id, ins.id, "retraction identifies the same output");
    }

    #[test]
    fn window_clips_and_shortens_consistently() {
        let mut s = OperatorShell::new(
            Box::new(AlterLifetimeOp::window(dur(5))),
            ConsistencySpec::middle(),
        );
        let e = ev(1, 0, 100, 0);
        let out = run(
            &mut s,
            vec![
                Message::insert_event(e.clone()),
                // Retract to [0,3): the windowed output [0,5) shortens to [0,3).
                Message::Retract(Retraction::new(e, t(3))),
            ],
        );
        assert_eq!(out[0].as_insert().unwrap().interval, iv(0, 5));
        let r = out[1].as_retract().unwrap();
        assert_eq!(r.new_end, t(3));
    }

    #[test]
    fn window_absorbs_retractions_beyond_the_clip() {
        let mut s = OperatorShell::new(
            Box::new(AlterLifetimeOp::window(dur(5))),
            ConsistencySpec::middle(),
        );
        let e = ev(1, 0, 100, 0);
        let out = run(
            &mut s,
            vec![
                Message::insert_event(e.clone()),
                // [0,100) → [0,50): the window output [0,5) is unaffected.
                Message::Retract(Retraction::new(e, t(50))),
            ],
        );
        assert_eq!(out.iter().filter(|m| m.is_data()).count(), 1);
    }

    #[test]
    fn deletes_turns_retraction_into_move() {
        let mut s = OperatorShell::new(
            Box::new(AlterLifetimeOp::deletes()),
            ConsistencySpec::middle(),
        );
        let e = ev(1, 2, 9, 0);
        let out = run(
            &mut s,
            vec![
                Message::insert_event(e.clone()),
                Message::Retract(Retraction::new(e, t(6))),
            ],
        );
        // Insert produced [9,∞); retraction moves the delete point to 6.
        assert_eq!(out[0].as_insert().unwrap().interval, iv_inf(9));
        let r = out[1].as_retract().unwrap();
        assert!(r.is_full_removal());
        assert_eq!(out[2].as_insert().unwrap().interval, iv_inf(6));
    }

    #[test]
    fn full_removal_removes_output_entirely() {
        let mut s = OperatorShell::new(
            Box::new(AlterLifetimeOp::inserts()),
            ConsistencySpec::middle(),
        );
        let e = ev(1, 2, 9, 0);
        let out = run(
            &mut s,
            vec![
                Message::insert_event(e.clone()),
                Message::Retract(Retraction::new(e, t(2))),
            ],
        );
        assert_eq!(out[0].as_insert().unwrap().interval, iv_inf(2));
        assert!(out[1].as_retract().unwrap().is_full_removal());
    }

    #[test]
    fn hopping_cti_snaps_down() {
        let op = AlterLifetimeOp::hopping(10, dur(10));
        assert_eq!(op.map_cti(t(37)), t(30));
        assert_eq!(op.map_cti(TimePoint::INFINITY), TimePoint::INFINITY);
        let window = AlterLifetimeOp::window(dur(5));
        assert_eq!(window.map_cti(t(37)), t(37));
    }

    #[test]
    fn union_merges_two_ports() {
        let mut s = OperatorShell::new(Box::new(UnionOp), ConsistencySpec::middle());
        let o1 = s.push(0, Message::insert_event(ev(1, 0, 5, 1)), 0);
        let o2 = s.push(1, Message::insert_event(ev(2, 3, 8, 2)), 1);
        assert_eq!(o1.len(), 1);
        assert_eq!(o2.len(), 1);
    }
}
