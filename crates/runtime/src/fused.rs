//! Fused stateless pipelines: one pass per run instead of one queue hop
//! per operator.
//!
//! The plan-time fusion pass collapses every maximal chain of adjacent
//! single-input stateless operators (select, project, alter-lifetime,
//! slice) into one [`FusedStatelessOp`]. The fused node evaluates the
//! composed [`FusedStage`] IR in a single tight loop per delivery run:
//! no intermediate `MessageBatch` is built, no queue hop, stamp sort or
//! shell admission happens between fused stages, and intermediate events
//! are never materialised — an internal working record (`WorkEv`)
//! carries the evolving (id, interval, payload) triple next to the
//! original `Arc<Event>`, and
//! a gather step rebuilds an `Arc`-shared message only at the fused
//! node's output edge.
//!
//! # The collector-level bit-identity contract
//!
//! Fusion changes graph shape, so per-edge tapes for the collapsed
//! interior no longer exist; what must be preserved exactly is the
//! *collector output* — stamped tape, subscription deltas, output CTIs —
//! at every ⟨M, B⟩ consistency point (see the third contract strength in
//! [`crate::operator`]'s module docs). The interior shells the fused node
//! replaces were not pass-through plumbing: each ran a consistency
//! monitor. An internal `Boundary` therefore emulates, per fused seam,
//! everything
//! an interior [`crate::OperatorShell`] does that is observable
//! downstream:
//!
//! * **chain generations** — the upstream shell's `finish` remap of
//!   re-inserted IDs to fresh per-generation identities;
//! * **forgetting** — weak-consistency drops below the memory horizon,
//!   checked before the `max_seen` bump exactly like the shell;
//! * **alignment** — blocking specs buffer uncovered messages in
//!   `(sync, seq)` order and release them on coverage or timeout;
//! * **the reorder guard** — retractions whose inserts were never
//!   delivered (or were evicted by a flush cleanup) are swallowed. At an
//!   interior seam the shell's orphan parking can never replay (interior
//!   IDs are unique per chain generation and an insert always precedes
//!   its retractions), so parking degenerates to swallowing. For
//!   non-forgetful specs the guard needs no ID registry at all: an
//!   insert is evicted iff its lifetime ended at or below the watermark
//!   of the last flush cleanup, so one comparison against
//!   `evict_watermark` plus a (normally empty) `recent` set of
//!   late-delivered short-lived inserts decides retraction liveness.
//!   Forgetful specs keep the exact `seen` map instead;
//! * **CTI cadence** — watermarks advance only through the per-stage
//!   `map_cti` composition, with the shell's strict-increase emission
//!   dedup, and releases triggered by a guarantee flow through the
//!   remaining stages *at their position in the stream*;
//! * **flush-time cleanup** — guard eviction runs where the interior
//!   shell would have flushed: before observing a CTI (old watermark),
//!   after a releasing CTI (new watermark), and at end of round
//!   ([`crate::OperatorModule::on_round_end`]).
//!
//! The first stage reads the run through the struct-of-arrays
//! [`ColumnarView`], so inserts and retractions a leading slice or
//! alter-lifetime stage would drop are rejected from contiguous interval
//! columns without ever touching the per-message `Arc<Event>`.
//!
//! # Compiled payload kernels
//!
//! By default the payload side of the chain is **compiled at register
//! time** instead of interpreted per message (`CEDR_COMPILE=0` /
//! [`EngineConfig { compile_kernels }`] falls back to the interpreted
//! stage IR above). Every select predicate is composed through the
//! projections upstream of it ([`Pred::compose_after_project`]), so all
//! compiled kernels read the *chain-original* payload: each delivery run
//! builds typed [`PayloadColumns`] once — restricted to the attributes
//! the select sweeps actually read — every select becomes one
//! [`PredKernel`] selection-bitmap sweep over those columns (counted in
//! [`OpStats::compiled_kernel_runs`]), with each later select swept only
//! over the rows the previous one kept, project stages become no-ops in
//! flight, and the full composed projection is evaluated by
//! [`ScalarKernel`]s only at the output edge — once per message that
//! survives the whole chain, against the payload it still holds. A chain
//! with no project stage never materialises a payload at all, so the
//! gather still forwards the original `Arc<Event>` whenever id and
//! interval survive. Work messages carry
//! their run-row index; a message that leaves its run (parked in a
//! boundary's alignment buffer for a later release) is detached from the
//! columns and falls back to the composed kernels' interpreted form,
//! which is bit-identical by construction (see `cedr_algebra::kernel`).
//! Compilation changes evaluation strategy only — admissions, boundary
//! bookkeeping and emission order are untouched — so the contract stays
//! the same collector-level bit-identity, now at every
//! ⟨consistency, workers, compiled?⟩ point.
//!
//! [`EngineConfig { compile_kernels }`]: FusedStatelessOp::new
//! [`OpStats::compiled_kernel_runs`]: crate::OpStats::compiled_kernel_runs
//! [`Pred::compose_after_project`]: cedr_algebra::Pred::compose_after_project

use crate::consistency::ConsistencySpec;
use crate::operator::{generation_id, OpContext, OperatorModule, OutputBuffer};
use cedr_algebra::{DeltaFn, Pred, PredKernel, Scalar, ScalarKernel, VsFn};
use cedr_streams::batch::{payload_columns_over_where, ColumnarView, MessageKind};
use cedr_streams::Message;
use cedr_temporal::{Event, EventId, IdMap, IdSet, Interval, Payload, PayloadColumns, TimePoint};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One stage of a fused pipeline: the IR the planner lowers the four
/// stateless operator families into.
#[derive(Clone, Debug)]
pub enum FusedStage {
    /// `σ_p` — payload predicate filter.
    Select(Pred),
    /// `π` — payload transformation.
    Project(Vec<Scalar>),
    /// `Π_{fVs, f∆}` — lifetime mapping (Definition 12).
    AlterLifetime { fvs: VsFn, fdelta: DeltaFn },
    /// `#`/`@` — valid-time clip and occurrence-time filter.
    Slice {
        valid: Option<Interval>,
        occurrence: Option<Interval>,
    },
}

impl FusedStage {
    /// Stage name as it appears in plan explains.
    pub fn name(&self) -> &'static str {
        match self {
            FusedStage::Select(_) => "select",
            FusedStage::Project(_) => "project",
            FusedStage::AlterLifetime { .. } => "alter_lifetime",
            FusedStage::Slice { .. } => "slice",
        }
    }

    /// Mirror of the stage operator's shell-level `map_cti`.
    fn map_cti(&self, watermark: TimePoint) -> TimePoint {
        match self {
            FusedStage::AlterLifetime { fvs, .. } => {
                if watermark.is_infinite() {
                    return watermark;
                }
                match fvs {
                    VsFn::Vs | VsFn::Ve => watermark,
                    VsFn::HopVs { period } => {
                        let p = (*period).max(1);
                        TimePoint::new(watermark.0 / p * p)
                    }
                    VsFn::Const(t) => TimePoint::min_of(watermark, *t),
                }
            }
            _ => watermark,
        }
    }

    /// Apply the stage kernel to one work message, appending outputs (at
    /// most two: a retraction split) to `out`. Mirrors the corresponding
    /// `OperatorModule` in `stateless` exactly, including the output
    /// buffer's empty-lifetime drop for inserts. `kctx` is `Some` on the
    /// compiled path: selects read their stage's precomputed selection
    /// bitmap (or the composed kernel's interpreted form for rows without
    /// column backing) and projects defer payload materialisation to the
    /// output gather — both verdict- and value-identical to the
    /// interpreted arms.
    fn apply(&self, si: usize, kctx: Option<&KernelCtx<'_>>, msg: WorkMsg, out: &mut Vec<WorkMsg>) {
        match self {
            FusedStage::Select(pred) => {
                let keep = |ev: &WorkEv| match kctx {
                    // Compiled: the composed predicate over the original
                    // payload. `ev.payload()` *is* the original payload
                    // here — compiled projects never materialise.
                    Some(k) => {
                        let kernel = k.chain.selects[si]
                            .as_ref()
                            .expect("select stage compiles a kernel");
                        match (ev.row, k.cols) {
                            (Some(i), Some(cols)) if i < cols.rows() => k.bitmaps[si][i],
                            _ => kernel.eval_row(ev.payload()),
                        }
                    }
                    None => pred.eval_payload(ev.payload()),
                };
                match msg {
                    WorkMsg::Ins(ev) => {
                        if keep(&ev) {
                            push_insert(out, ev);
                        }
                    }
                    WorkMsg::Ret { ev, new_end } => {
                        // An empty-lifetime event's insert was dropped by the
                        // output buffer on the unfused edge, so its retraction
                        // parks there as an orphan that can never replay —
                        // swallowing it here is collector-identical.
                        if !ev.interval.is_empty() && keep(&ev) {
                            out.push(WorkMsg::Ret { ev, new_end });
                        }
                    }
                }
            }
            FusedStage::Project(exprs) => {
                let (mut ev, ret) = match msg {
                    WorkMsg::Ins(ev) => (ev, None),
                    WorkMsg::Ret { ev, new_end } => {
                        if ev.interval.is_empty() {
                            // Same dead-orphan reasoning as the select arm.
                            return;
                        }
                        (ev, Some(new_end))
                    }
                };
                if kctx.is_none() {
                    // Interpreted: materialise the stage's payload now.
                    // Compiled chains evaluate the *composed* projection at
                    // the output edge instead, only for survivors.
                    let payload = Payload::from_values(
                        exprs.iter().map(|x| x.eval_payload(ev.payload())).collect(),
                    );
                    ev.payload = Some(payload);
                }
                match ret {
                    None => push_insert(out, ev),
                    Some(new_end) => out.push(WorkMsg::Ret { ev, new_end }),
                }
            }
            FusedStage::AlterLifetime { fvs, fdelta } => {
                let map = |iv: Interval| {
                    let vs = fvs.eval_interval(iv);
                    Interval::new(vs, vs + fdelta.eval_interval(iv))
                };
                match msg {
                    WorkMsg::Ins(mut ev) => {
                        ev.interval = map(ev.interval);
                        push_insert(out, ev);
                    }
                    WorkMsg::Ret { ev, new_end } => {
                        let old_iv = map(ev.interval);
                        let shortened = Interval::new(ev.interval.start, new_end);
                        let new_iv = if shortened.is_empty() {
                            None
                        } else {
                            Some(map(shortened)).filter(|i| !i.is_empty())
                        };
                        match (old_iv.is_empty(), new_iv) {
                            (true, None) => {}
                            (true, Some(n)) => {
                                let mut ev = ev;
                                ev.interval = n;
                                push_insert(out, ev);
                            }
                            (false, None) => {
                                let mut ev = ev;
                                ev.interval = old_iv;
                                out.push(WorkMsg::Ret {
                                    ev,
                                    new_end: old_iv.start,
                                });
                            }
                            (false, Some(n)) => {
                                if n == old_iv {
                                    // e.g. a window whose clipped lifetime
                                    // is unaffected.
                                } else if n.start == old_iv.start && n.end < old_iv.end {
                                    let mut ev = ev;
                                    ev.interval = old_iv;
                                    out.push(WorkMsg::Ret { ev, new_end: n.end });
                                } else {
                                    // Start moved (Ve-anchored mappings):
                                    // remove and re-insert under the same
                                    // internal ID — the boundary's chain
                                    // generations split them, exactly like
                                    // the shell's finish remap.
                                    let mut rev = ev.clone();
                                    rev.interval = old_iv;
                                    out.push(WorkMsg::Ret {
                                        ev: rev,
                                        new_end: old_iv.start,
                                    });
                                    let mut iev = ev;
                                    iev.interval = n;
                                    push_insert(out, iev);
                                }
                            }
                        }
                    }
                }
            }
            FusedStage::Slice { valid, occurrence } => match msg {
                WorkMsg::Ins(mut ev) => {
                    if let Some(iv) = slice_interval(valid, occurrence, ev.interval) {
                        ev.interval = iv;
                        out.push(WorkMsg::Ins(ev));
                    }
                }
                WorkMsg::Ret { ev, new_end } => {
                    let Some(old_iv) = slice_interval(valid, occurrence, ev.interval) else {
                        return;
                    };
                    let shortened = Interval::new(ev.interval.start, new_end);
                    match slice_interval(valid, occurrence, shortened) {
                        Some(n) if n == old_iv => {}
                        Some(n) => {
                            let mut ev = ev;
                            ev.interval = old_iv;
                            out.push(WorkMsg::Ret { ev, new_end: n.end });
                        }
                        None => {
                            let mut ev = ev;
                            ev.interval = old_iv;
                            out.push(WorkMsg::Ret {
                                ev,
                                new_end: old_iv.start,
                            });
                        }
                    }
                }
            },
        }
    }
}

/// `SliceOp::slice` on bare intervals (occurrence is checked against the
/// interval start — the event's `Vs`).
fn slice_interval(
    valid: &Option<Interval>,
    occurrence: &Option<Interval>,
    iv: Interval,
) -> Option<Interval> {
    if let Some(occ) = occurrence {
        if !occ.contains(iv.start) {
            return None;
        }
    }
    let out = match valid {
        Some(v) => iv.intersect(v),
        None => iv,
    };
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// Append an insert, dropping empty lifetimes exactly like
/// [`OutputBuffer::insert`] does on every unfused edge.
fn push_insert(out: &mut Vec<WorkMsg>, ev: WorkEv) {
    if !ev.interval.is_empty() {
        out.push(WorkMsg::Ins(ev));
    }
}

/// The register-time kernel compile of one fused chain: every select
/// predicate composed through the projections upstream of it (so all
/// kernels read the chain-original payload), plus the full composed
/// projection for the output gather.
struct CompiledChain {
    /// `selects[si]` is the compiled, composed predicate of stage `si`
    /// iff that stage is a select.
    selects: Vec<Option<PredKernel>>,
    /// The whole chain's composed projection; `None` iff the chain has no
    /// project stage — the payload passes through untouched and the
    /// gather can still forward the original `Arc<Event>`.
    project: Option<Vec<ScalarKernel>>,
    /// `used[j]` iff some select sweep reads original-payload column `j`:
    /// the per-run column build materialises exactly these columns and
    /// leaves the rest as all-null placeholders nothing will read
    /// (projection fields are evaluated row-wise at the gather and need
    /// no column backing).
    used: Vec<bool>,
}

impl CompiledChain {
    /// Does some select sweep read original-payload column `j`?
    fn uses(&self, j: usize) -> bool {
        self.used.get(j).copied().unwrap_or(false)
    }
}

fn compile_chain(stages: &[FusedStage]) -> CompiledChain {
    // The projection composed so far, as expressions over the original
    // payload (`None` = identity).
    let mut cur: Option<Vec<Scalar>> = None;
    let mut selects = Vec::with_capacity(stages.len());
    for stage in stages {
        match stage {
            FusedStage::Select(p) => {
                let composed = match &cur {
                    Some(proj) => p.compose_after_project(proj),
                    None => p.clone(),
                };
                selects.push(Some(PredKernel::compile(&composed)));
            }
            FusedStage::Project(exprs) => {
                let composed: Vec<Scalar> = match &cur {
                    Some(prev) => exprs
                        .iter()
                        .map(|x| x.compose_after_project(prev))
                        .collect(),
                    None => exprs.clone(),
                };
                cur = Some(composed);
                selects.push(None);
            }
            FusedStage::AlterLifetime { .. } | FusedStage::Slice { .. } => selects.push(None),
        }
    }
    let project: Option<Vec<ScalarKernel>> =
        cur.map(|exprs| exprs.iter().map(ScalarKernel::compile).collect());
    // Every column a *sweep* reads — all selects are composed over the
    // chain-original payload, so their field sets share one index space.
    // Projection fields stay out: the output gather evaluates the
    // composed projection row-wise against the original payload, so
    // project-only attributes never need column backing.
    let mut fields = Vec::new();
    for kernel in selects.iter().flatten() {
        kernel.pred().payload_fields(&mut fields);
    }
    let mut used = vec![false; fields.iter().map(|j| j + 1).max().unwrap_or(0)];
    for j in fields {
        used[j] = true;
    }
    CompiledChain {
        selects,
        project,
        used,
    }
}

/// The per-run compiled-execution context threaded through stage
/// application: the register-time kernels, the current run's payload
/// columns (absent between runs, when the CTI cascade releases parked
/// messages) and the per-select-stage selection bitmaps swept over them.
struct KernelCtx<'a> {
    chain: &'a CompiledChain,
    cols: Option<&'a PayloadColumns>,
    bitmaps: &'a [Vec<bool>],
}

/// An event travelling through the fused pipeline: the evolving
/// (id, interval, payload) triple next to the original shared event.
/// `payload: None` means "unchanged from `src`" — the common case for
/// select/slice/alter-lifetime chains, where the gather step can forward
/// the original `Arc` (interval and id permitting) without rebuilding.
#[derive(Clone, Debug)]
struct WorkEv {
    src: Arc<Event>,
    id: EventId,
    interval: Interval,
    payload: Option<Payload>,
    /// Index of this event's row in the current delivery run's payload
    /// columns (compiled path only). Valid only while that run is being
    /// processed: a message that leaves its run — parked in a boundary's
    /// alignment buffer — is detached and falls back to the composed
    /// kernels' interpreted form on `src.payload`.
    row: Option<usize>,
}

impl WorkEv {
    fn of(src: Arc<Event>) -> WorkEv {
        WorkEv {
            id: src.id,
            interval: src.interval,
            src,
            payload: None,
            row: None,
        }
    }

    fn with_row(mut self, row: Option<usize>) -> WorkEv {
        self.row = row;
        self
    }

    fn payload(&self) -> &Payload {
        self.payload.as_ref().unwrap_or(&self.src.payload)
    }

    /// The output-edge gather: rebuild an `Arc`-shared event, or forward
    /// the original untouched (refcount bump, no allocation).
    fn gather(self) -> Arc<Event> {
        if self.id == self.src.id && self.interval == self.src.interval && self.payload.is_none() {
            self.src
        } else {
            Arc::new(Event {
                id: self.id,
                interval: self.interval,
                root_time: self.src.root_time,
                lineage: self.src.lineage.clone(),
                payload: match self.payload {
                    Some(p) => p,
                    None => self.src.payload.clone(),
                },
            })
        }
    }
}

/// A data message between fused stages (CTIs travel separately, through
/// the boundary watermark cascade).
#[derive(Clone, Debug)]
enum WorkMsg {
    Ins(WorkEv),
    Ret { ev: WorkEv, new_end: TimePoint },
}

impl WorkMsg {
    /// Figure-6 `Sync`: `Vs` for inserts, `new_end` for retractions.
    fn sync(&self) -> TimePoint {
        match self {
            WorkMsg::Ins(ev) => ev.interval.start,
            WorkMsg::Ret { new_end, .. } => *new_end,
        }
    }

    /// Detach from the current run's payload columns: the message is
    /// about to outlive them (alignment parking), so compiled stages must
    /// fall back to the composed kernels' interpreted form.
    fn detach(&mut self) {
        match self {
            WorkMsg::Ins(ev) | WorkMsg::Ret { ev, .. } => ev.row = None,
        }
    }
}

/// The consistency-monitor emulation at one fused seam: everything the
/// interior shell between two fused stages does that is observable at the
/// collector. See the module docs for the correspondence argument.
struct Boundary {
    /// Declared watermark: max over CTIs received from the upstream stage.
    watermark: TimePoint,
    /// High-water mark of observed syncs (drives timeouts and forgetting).
    max_seen: TimePoint,
    /// Alignment buffer, ordered by (sync, arrival seq).
    align: BTreeMap<(TimePoint, u64), WorkMsg>,
    seq: u64,
    /// Upstream stage's CTI emission dedup (the shell's `last_cti`).
    last_cti: Option<TimePoint>,
    /// Watermark of the most recent guard cleanup. For non-forgetful
    /// specs, a delivered insert is evicted iff its lifetime end is ≤
    /// this, so retraction liveness is one comparison.
    evict_watermark: TimePoint,
    /// Late inserts delivered since the last cleanup whose lifetimes
    /// already ended at or below `evict_watermark` — still alive in the
    /// shell's guard until the next flush. Normally empty.
    recent: IdSet,
    /// Exact reorder-guard registry, kept only for forgetful specs where
    /// liveness is not derivable from the eviction watermark (an insert
    /// dropped at the horizon must swallow its later retraction even when
    /// that retraction's lifetime end clears `evict_watermark`).
    seen: Option<IdMap<TimePoint>>,
    /// Chain generations of the upstream stage's shell (`finish` remap).
    gens: IdMap<u64>,
    /// Deliveries since the last flush cleanup — the shell's "pending
    /// non-empty" condition deciding whether a flush runs cleanup.
    dirty: bool,
}

impl Boundary {
    fn new(forgetful: bool) -> Boundary {
        Boundary {
            watermark: TimePoint::ZERO,
            max_seen: TimePoint::ZERO,
            align: BTreeMap::new(),
            seq: 0,
            last_cti: None,
            evict_watermark: TimePoint::ZERO,
            recent: IdSet::default(),
            seen: forgetful.then(IdMap::default),
            gens: IdMap::default(),
            dirty: false,
        }
    }

    /// The upstream shell's `finish` remap: rewrite re-inserted IDs to
    /// fresh per-generation identities, bumping the generation on full
    /// removals.
    fn remap(&mut self, msg: &mut WorkMsg) {
        match msg {
            WorkMsg::Ins(ev) => {
                let gen = self.gens.get(&ev.id).copied().unwrap_or(0);
                if gen != 0 {
                    ev.id = generation_id(ev.id, gen);
                }
            }
            WorkMsg::Ret { ev, new_end } => {
                let orig = ev.id;
                let gen = self.gens.get(&orig).copied().unwrap_or(0);
                if gen != 0 {
                    ev.id = generation_id(orig, gen);
                }
                if *new_end <= ev.interval.start {
                    *self.gens.entry(orig).or_insert(0) += 1;
                }
            }
        }
    }

    /// Admit one upstream-stage output: remap, forget, align or deliver,
    /// then release anything due (a data arrival can advance `max_seen`
    /// past a finite blocking deadline). Messages that reach the
    /// downstream stage are appended to `delivered` in delivery order.
    fn admit(&mut self, spec: &ConsistencySpec, mut msg: WorkMsg, delivered: &mut Vec<WorkMsg>) {
        self.remap(&mut msg);
        let sync = msg.sync();
        if spec.is_forgetful() && sync < spec.horizon(self.max_seen) {
            return; // forgotten before the max_seen bump, like the shell
        }
        self.max_seen = TimePoint::max_of(self.max_seen, sync);
        if spec.is_blocking() && sync >= self.watermark {
            // The message may be released rounds later, when its run's
            // payload columns are gone — detach its row reference.
            msg.detach();
            self.align.insert((sync, self.seq), msg);
            self.seq += 1;
        } else {
            self.deliver(msg, delivered);
        }
        self.release(spec, delivered);
    }

    /// Hand a message past the reorder guard to the downstream stage.
    fn deliver(&mut self, msg: WorkMsg, delivered: &mut Vec<WorkMsg>) {
        self.dirty = true;
        match &msg {
            WorkMsg::Ins(ev) => {
                if let Some(seen) = &mut self.seen {
                    seen.insert(ev.id, ev.interval.end);
                } else if ev.interval.end <= self.evict_watermark {
                    self.recent.insert(ev.id);
                }
                delivered.push(msg);
            }
            WorkMsg::Ret { ev, .. } => {
                let alive = match &self.seen {
                    Some(seen) => seen.contains_key(&ev.id),
                    None => ev.interval.end > self.evict_watermark || self.recent.contains(&ev.id),
                };
                // A dead retraction is what the shell would park as an
                // orphan that can never replay — swallow it.
                if alive {
                    delivered.push(msg);
                }
            }
        }
    }

    /// Release aligned messages that are covered by the watermark or have
    /// exceeded a finite blocking budget, in (sync, seq) order.
    fn release(&mut self, spec: &ConsistencySpec, delivered: &mut Vec<WorkMsg>) {
        while let Some((&(sync, seq), _)) = self.align.iter().next() {
            let covered = sync < self.watermark;
            let timed_out = !spec.max_blocking.is_infinite()
                && self
                    .max_seen
                    .since(sync)
                    .is_some_and(|held| held >= spec.max_blocking);
            if !covered && !timed_out {
                break;
            }
            let msg = self.align.remove(&(sync, seq)).expect("front entry");
            self.deliver(msg, delivered);
        }
    }

    /// The shell's flush-time guard cleanup: bookkeeping dies with the
    /// watermark. Runs only where the interior shell would have flushed a
    /// non-empty pending run.
    fn cleanup(&mut self) {
        self.dirty = false;
        if self.watermark > TimePoint::ZERO {
            let w = self.watermark;
            self.evict_watermark = w;
            self.recent.clear();
            if let Some(seen) = &mut self.seen {
                seen.retain(|_, ve| *ve > w);
            }
        }
    }

    fn state_size(&self) -> usize {
        self.align.len()
            + self.recent.len()
            + self.seen.as_ref().map_or(0, IdMap::len)
            + self.gens.len()
    }
}

/// A maximal chain of adjacent stateless operators collapsed into one
/// operator node. See the module docs for the execution model and the
/// bit-identity contract.
pub struct FusedStatelessOp {
    stages: Vec<FusedStage>,
    /// The register-time kernel compile of the chain; `None` on the
    /// interpreted escape hatch (`CEDR_COMPILE=0`).
    compiled: Option<CompiledChain>,
    /// The current delivery run's payload columns (compiled path only;
    /// dropped at the end of every run).
    cols: Option<PayloadColumns>,
    /// `bitmaps[si]`: stage `si`'s selection bitmap over `cols` (empty
    /// for non-select stages).
    bitmaps: Vec<Vec<bool>>,
    /// One consistency-monitor emulation per interior seam
    /// (`boundaries[i]` sits between `stages[i]` and `stages[i + 1]`).
    boundaries: Vec<Boundary>,
    /// Reusable scratch for the per-message cascade.
    stack: Vec<(usize, WorkMsg)>,
    tmp: Vec<WorkMsg>,
    delivered: Vec<WorkMsg>,
}

impl FusedStatelessOp {
    /// Build a fused node from the stage chain, innermost (closest to the
    /// source) first. `spec` is the plan-wide consistency point the
    /// replaced interior shells would have run at; `compile` lifts the
    /// payload side of the chain into column kernels at register time
    /// (the `EngineConfig { compile_kernels }` / `CEDR_COMPILE` switch).
    pub fn new(stages: Vec<FusedStage>, spec: ConsistencySpec, compile: bool) -> FusedStatelessOp {
        assert!(
            stages.len() >= 2,
            "fusion collapses chains of at least two stages"
        );
        let boundaries = (0..stages.len() - 1)
            .map(|_| Boundary::new(spec.is_forgetful()))
            .collect();
        let compiled = compile.then(|| compile_chain(&stages));
        let bitmaps = vec![Vec::new(); stages.len()];
        FusedStatelessOp {
            stages,
            compiled,
            cols: None,
            bitmaps,
            boundaries,
            stack: Vec::new(),
            tmp: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Chain description for plan explains: `select→project→slice`.
    pub fn describe(&self) -> String {
        self.stages
            .iter()
            .map(FusedStage::name)
            .collect::<Vec<_>>()
            .join("→")
    }

    /// The compiled-execution context over this node's current state.
    fn kctx(&self) -> Option<KernelCtx<'_>> {
        self.compiled.as_ref().map(|chain| KernelCtx {
            chain,
            cols: self.cols.as_ref(),
            bitmaps: &self.bitmaps,
        })
    }

    /// Run one admitted input message through the whole chain,
    /// depth-first: each message delivered at a seam is fully propagated
    /// through the remaining stages before its successor, which
    /// reproduces the unfused concatenation order of every interior run.
    fn process(&mut self, msg: WorkMsg, spec: &ConsistencySpec, out: &mut OutputBuffer) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.push((0, msg));
        self.drain(&mut stack, spec, out);
        self.stack = stack;
    }

    /// Propagate released work from boundary `level - 1` onwards (used by
    /// the CTI cascade, which releases into the middle of the chain).
    fn process_from(
        &mut self,
        level: usize,
        inputs: &mut Vec<WorkMsg>,
        spec: &ConsistencySpec,
        out: &mut OutputBuffer,
    ) {
        let mut stack = std::mem::take(&mut self.stack);
        while let Some(m) = inputs.pop() {
            stack.push((level, m));
        }
        self.drain(&mut stack, spec, out);
        self.stack = stack;
    }

    /// The depth-first cascade shared by [`FusedStatelessOp::process`]
    /// and [`FusedStatelessOp::process_from`].
    fn drain(
        &mut self,
        stack: &mut Vec<(usize, WorkMsg)>,
        spec: &ConsistencySpec,
        out: &mut OutputBuffer,
    ) {
        let mut tmp = std::mem::take(&mut self.tmp);
        let mut delivered = std::mem::take(&mut self.delivered);
        while let Some((si, m)) = stack.pop() {
            if si == self.stages.len() {
                emit(m, self.kctx().as_ref(), out);
                continue;
            }
            tmp.clear();
            let kctx = self.kctx();
            self.stages[si].apply(si, kctx.as_ref(), m, &mut tmp);
            if si + 1 == self.stages.len() {
                // Last stage: straight to the output edge; the fused
                // shell's own monitor and finish remap take over.
                while let Some(m) = tmp.pop() {
                    stack.push((si + 1, m));
                }
            } else {
                delivered.clear();
                for m in tmp.drain(..) {
                    self.boundaries[si].admit(spec, m, &mut delivered);
                }
                while let Some(m) = delivered.pop() {
                    stack.push((si + 1, m));
                }
            }
        }
        self.tmp = tmp;
        self.delivered = delivered;
    }
}

/// The output-edge gather: one `Arc<Event>` construction (or forward) per
/// surviving message, into the fused shell's output buffer. On the
/// compiled path this is also where the chain's composed projection is
/// finally evaluated — once, for survivors only, against the original
/// payload the message still holds (`ev.payload()` is chain-original
/// here: compiled projects never materialise in flight). Evaluating the
/// composed kernels row-wise keeps project-only attributes out of the
/// per-run column build — survivors are the minority, and every
/// non-survivor would otherwise pay for columns only this gather reads.
fn emit(m: WorkMsg, kctx: Option<&KernelCtx<'_>>, out: &mut OutputBuffer) {
    let (mut ev, ret) = match m {
        WorkMsg::Ins(ev) => (ev, None),
        WorkMsg::Ret { ev, new_end } => (ev, Some(new_end)),
    };
    if let Some(k) = kctx {
        if let Some(project) = &k.chain.project {
            debug_assert!(ev.payload.is_none(), "compiled stages defer the payload");
            let payload = ev.payload();
            let values = project.iter().map(|x| x.eval_row(payload)).collect();
            ev.payload = Some(Payload::from_values(values));
        }
    }
    match ret {
        None => out.insert(ev.gather()),
        Some(new_end) => out.retract_to(ev.gather(), new_end),
    }
}

impl OperatorModule for FusedStatelessOp {
    fn name(&self) -> &'static str {
        "fused"
    }

    /// The fused hot loop: one pass over the run. The leading stage's
    /// interval tests run against the columnar view, so messages a slice
    /// or alter-lifetime head would drop never touch their `Arc<Event>`;
    /// on the compiled path the run's payload columns are built once and
    /// every select stage's selection bitmap is swept up front, so a
    /// leading select prefilters from its bitmap the same way.
    fn on_batch(&mut self, _input: usize, msgs: &[Message], ctx: &mut OpContext) {
        let spec = ctx.spec;
        let view = ColumnarView::over(msgs);
        if let Some(chain) = &self.compiled {
            let cols = payload_columns_over_where(msgs, |j| chain.uses(j));
            // Later selects sweep under the previous select's bitmap as a
            // row mask: a row only reaches stage `si` having passed every
            // earlier select, so masked-out rows are never read there and
            // the expensive sweep shapes skip them outright.
            let mut prev: Option<usize> = None;
            for (si, select) in chain.selects.iter().enumerate() {
                if let Some(kernel) = select {
                    let (done, rest) = self.bitmaps.split_at_mut(si);
                    let mask = prev.map(|p| done[p].as_slice());
                    kernel.sweep_where(&cols, mask, &mut rest[0]);
                    ctx.effort.compiled_kernel_runs += 1;
                    prev = Some(si);
                }
            }
            self.cols = Some(cols);
        }
        ctx.out.reserve(msgs.len());
        for (i, m) in msgs.iter().enumerate() {
            // Columnar pre-filter: decide stage-0 drops from contiguous
            // columns. Interval drops (slice / alter-lifetime heads) come
            // from the temporal view; a compiled leading select drops
            // straight from its selection bitmap. Only stage-0 drops are
            // safe here — a message dropped at a deeper stage still bumps
            // the interior boundaries' bookkeeping on the way.
            let dropped = match &self.stages[0] {
                FusedStage::Select(_) if self.compiled.is_some() => match view.kinds[i] {
                    // A pred-false insert produces nothing; a pred-false
                    // retraction is swallowed (its pre-image evaluates the
                    // same payload row).
                    MessageKind::Insert | MessageKind::Retract => !self.bitmaps[0][i],
                    MessageKind::Cti => false,
                },
                FusedStage::Slice { valid, occurrence } => match view.kinds[i] {
                    // An insert (or a retraction's pre-image) outside the
                    // slice produces nothing downstream.
                    MessageKind::Insert | MessageKind::Retract => {
                        slice_interval(valid, occurrence, Interval::new(view.vs[i], view.ve[i]))
                            .is_none()
                    }
                    MessageKind::Cti => false,
                },
                FusedStage::AlterLifetime { fvs, fdelta } => match view.kinds[i] {
                    MessageKind::Insert => {
                        let iv = Interval::new(view.vs[i], view.ve[i]);
                        let vs = fvs.eval_interval(iv);
                        Interval::new(vs, vs + fdelta.eval_interval(iv)).is_empty()
                    }
                    _ => false,
                },
                _ => false,
            };
            if dropped {
                continue;
            }
            let row = self.compiled.is_some().then_some(i);
            match m {
                Message::Insert(e) => self.process(
                    WorkMsg::Ins(WorkEv::of(e.clone()).with_row(row)),
                    &spec,
                    ctx.out,
                ),
                Message::Retract(r) => self.process(
                    WorkMsg::Ret {
                        ev: WorkEv::of(r.event.clone()).with_row(row),
                        new_end: r.new_end,
                    },
                    &spec,
                    ctx.out,
                ),
                Message::Cti(_) => {
                    debug_assert!(false, "CTIs are consumed by the consistency monitor")
                }
            }
        }
        // The run is drained (anything still in-flight sits detached in
        // an alignment buffer); its columns die with it.
        self.cols = None;
    }

    /// The CTI cascade: the fused shell's watermark advanced (or the
    /// round is closing). Each stage's `map_cti` output is offered to the
    /// next boundary under the shell's strict-increase emission dedup;
    /// an accepted guarantee flushes, observes, releases covered/timed-out
    /// aligned work through the remaining stages, and cleans the guard —
    /// in exactly the order the interior shell would.
    fn on_advance(&mut self, ctx: &mut OpContext) {
        let spec = ctx.spec;
        let mut w = ctx.watermark;
        for i in 0..self.boundaries.len() {
            if w == TimePoint::ZERO {
                // A shell with a zero watermark emits no guarantee, so
                // nothing downstream can change either.
                return;
            }
            let out_cti = self.stages[i].map_cti(w);
            let emitted = out_cti > TimePoint::ZERO
                && self.boundaries[i].last_cti.is_none_or(|c| out_cti > c);
            if emitted {
                let b = &mut self.boundaries[i];
                b.last_cti = Some(out_cti);
                // Pre-observe flush: deliveries since the last flush get
                // their guard cleanup under the old watermark first.
                if b.dirty {
                    b.cleanup();
                }
                if out_cti > b.watermark {
                    b.watermark = out_cti;
                }
                b.max_seen = TimePoint::max_of(b.max_seen, b.watermark);
                let mut delivered = std::mem::take(&mut self.delivered);
                self.boundaries[i].release(&spec, &mut delivered);
                self.delivered = Vec::new();
                let mut released = delivered;
                self.process_from(i + 1, &mut released, &spec, ctx.out);
                released.clear();
                self.delivered = released;
                // Post-release flush: released deliveries clean under the
                // new watermark.
                if self.boundaries[i].dirty {
                    self.boundaries[i].cleanup();
                }
            }
            w = self.boundaries[i].watermark;
        }
    }

    /// End of the shell round: each interior shell would run its
    /// end-of-batch flush now; dirty boundaries get their guard cleanup.
    fn on_round_end(&mut self) {
        for b in &mut self.boundaries {
            if b.dirty {
                b.cleanup();
            }
        }
    }

    fn state_size(&self) -> usize {
        self.boundaries.iter().map(Boundary::state_size).sum()
    }

    /// Composition of the per-stage guarantees: what the last shell of
    /// the unfused chain would declare for an input guarantee `watermark`.
    fn map_cti(&self, watermark: TimePoint) -> TimePoint {
        self.stages.iter().fold(watermark, |w, s| s.map_cti(w))
    }

    fn fused_stages(&self) -> usize {
        self.stages.len()
    }

    fn state_snapshot(&self, out: &mut Vec<u8>) {
        use cedr_durable::Persist;
        // Only the interior boundaries carry cross-round state: `cols`,
        // `bitmaps` and the scratch vectors are per-delivery-run and dead
        // at any quiescent boundary.
        (self.boundaries.len() as u64).encode(out);
        for b in &self.boundaries {
            b.watermark.encode(out);
            b.max_seen.encode(out);
            (b.align.len() as u64).encode(out);
            for (&(sync, seq), msg) in &b.align {
                sync.encode(out);
                seq.encode(out);
                encode_work_msg(msg, out);
            }
            b.seq.encode(out);
            b.last_cti.encode(out);
            b.evict_watermark.encode(out);
            let mut recent: Vec<EventId> = b.recent.iter().copied().collect();
            recent.sort_unstable();
            recent.encode(out);
            match &b.seen {
                None => 0u8.encode(out),
                Some(seen) => {
                    1u8.encode(out);
                    let mut rows: Vec<(EventId, TimePoint)> =
                        seen.iter().map(|(&id, &ve)| (id, ve)).collect();
                    rows.sort_unstable_by_key(|&(id, _)| id);
                    rows.encode(out);
                }
            }
            let mut gens: Vec<(EventId, u64)> = b.gens.iter().map(|(&id, &g)| (id, g)).collect();
            gens.sort_unstable_by_key(|&(id, _)| id);
            gens.encode(out);
            b.dirty.encode(out);
        }
    }

    fn state_restore(
        &mut self,
        r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        let n = u64::decode(r)? as usize;
        if n != self.boundaries.len() {
            return Err(cedr_durable::CodecError::new(format!(
                "fused chain has {} boundaries, image has {}",
                self.boundaries.len(),
                n
            )));
        }
        for b in &mut self.boundaries {
            b.watermark = TimePoint::decode(r)?;
            b.max_seen = TimePoint::decode(r)?;
            b.align.clear();
            for _ in 0..u64::decode(r)? {
                let sync = TimePoint::decode(r)?;
                let seq = u64::decode(r)?;
                b.align.insert((sync, seq), decode_work_msg(r)?);
            }
            b.seq = u64::decode(r)?;
            b.last_cti = Option::<TimePoint>::decode(r)?;
            b.evict_watermark = TimePoint::decode(r)?;
            b.recent = Vec::<EventId>::decode(r)?.into_iter().collect();
            b.seen = match u8::decode(r)? {
                0 => None,
                1 => Some(
                    Vec::<(EventId, TimePoint)>::decode(r)?
                        .into_iter()
                        .collect(),
                ),
                t => {
                    return Err(cedr_durable::CodecError::new(format!(
                        "bad seen-map tag {t}"
                    )))
                }
            };
            b.gens = Vec::<(EventId, u64)>::decode(r)?.into_iter().collect();
            b.dirty = bool::decode(r)?;
        }
        Ok(())
    }
}

/// Serialize one parked work message. Parked messages are always
/// detached from their run's payload columns (`row: None`), so only the
/// evolving (id, interval, payload) triple and the source event persist.
fn encode_work_msg(msg: &WorkMsg, out: &mut Vec<u8>) {
    use cedr_durable::Persist;
    let (tag, ev, new_end) = match msg {
        WorkMsg::Ins(ev) => (0u8, ev, None),
        WorkMsg::Ret { ev, new_end } => (1u8, ev, Some(*new_end)),
    };
    tag.encode(out);
    ev.src.encode(out);
    ev.id.encode(out);
    ev.interval.encode(out);
    ev.payload.encode(out);
    if let Some(new_end) = new_end {
        new_end.encode(out);
    }
}

fn decode_work_msg(r: &mut cedr_durable::Reader<'_>) -> Result<WorkMsg, cedr_durable::CodecError> {
    use cedr_durable::Persist;
    let tag = u8::decode(r)?;
    let ev = WorkEv {
        src: Arc::<Event>::decode(r)?,
        id: EventId::decode(r)?,
        interval: Interval::decode(r)?,
        payload: Option::<Payload>::decode(r)?,
        row: None,
    };
    match tag {
        0 => Ok(WorkMsg::Ins(ev)),
        1 => Ok(WorkMsg::Ret {
            ev,
            new_end: TimePoint::decode(r)?,
        }),
        t => Err(cedr_durable::CodecError::new(format!(
            "bad work-message tag {t}"
        ))),
    }
}
