//! The consistency matrix harness: scenario × level × operator family.
//!
//! For every [`ScenarioConfig`] and
//! every consistency level (Strong, Middle, Weak-with-a-biting-horizon),
//! the harness drives **five operator families at once** — stateless
//! chain, windowed group-aggregate, join, sequence, negation — through
//! the modern engine surface: one
//! [`ChannelSource`] per producer, the engine
//! [pumping](cedr_core::engine::Engine::pump) between rounds, results
//! drained through collectors and
//! [`Subscription`]s.
//!
//! Before anything is *measured*, every cell is *pinned*: the same
//! scenario runs on two engine legs — 1 worker (canonical) and 4
//! workers — and the stamped output tape, subscription deltas and output
//! CTI must be bit-identical across both legs for every query. Only then are the paper's observables read
//! from the canonical leg's [`Engine::metrics`]
//! (cedr_core::engine::Engine::metrics): blocking (application-time
//! alignment ticks — deterministic), repair churn (output retractions,
//! full removals, delta-log volume), state/held peaks, forgotten events
//! under Weak, and accuracy-versus-Strong F1 of the net output table.
//!
//! Everything in [`MatrixReport`] except the explicitly wall-clock
//! fields is deterministic per seed, which is what lets CI regenerate
//! `docs/CONSISTENCY.md` and diff it byte-for-byte.

use crate::scenario::{ScenarioConfig, ScenarioProfile, ScenarioTrace, SCENARIO_TYPES};
use cedr_core::prelude::*;
use cedr_lang::LogicalOp;
use cedr_streams::merge_scramble;
use cedr_temporal::UniTemporalTable;
use std::collections::HashMap;

/// The consistency levels of the matrix. Weak gets a horizon of
/// `span / 6` ticks — tight enough to bite (forget live state) on every
/// gallery scenario, which is the regime where Weak is interesting.
pub fn levels(span: u64) -> Vec<(&'static str, ConsistencySpec)> {
    vec![
        ("Strong", ConsistencySpec::strong()),
        ("Middle", ConsistencySpec::middle()),
        ("Weak", ConsistencySpec::weak(dur((span / 6).max(1)))),
    ]
}

/// The five operator families every cell runs.
pub const FAMILIES: [&str; 5] = ["stateless", "aggregate", "join", "sequence", "negation"];

/// The engine legs of the bit-identity pin: `(label, workers)`. Leg 0
/// is canonical — the one measurements are taken from.
pub const LEGS: [(&str, usize); 2] = [("1 worker", 1), ("4 workers", 4)];

/// The five-family query catalog as logical plans, in [`FAMILIES`] order:
/// windows are `span / 4` (aggregate, sequence) and `span / 8`
/// (negation).
pub fn family_plans(span: u64) -> Vec<(&'static str, LogicalOp)> {
    let w = dur((span / 4).max(1));
    let key_eq = || Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
    let stateless = PlanBuilder::source("SCN_A")
        .select(Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(0i64)))
        .project(
            vec![Scalar::Field(0), Scalar::Field(1)],
            vec!["key".into(), "seq".into()],
        )
        .into_plan();
    let aggregate = PlanBuilder::source("SCN_A")
        .window(w)
        .group_aggregate(vec![Scalar::Field(0)], AggFunc::Count)
        .into_plan();
    let join = PlanBuilder::source("SCN_A")
        .join(PlanBuilder::source("SCN_B"), key_eq())
        .into_plan();
    let sequence = PlanBuilder::sequence(
        vec![PlanBuilder::source("SCN_A"), PlanBuilder::source("SCN_B")],
        w,
        key_eq(),
    )
    .into_plan();
    let negation = PlanBuilder::source("SCN_A")
        .unless(
            PlanBuilder::source("SCN_C"),
            dur((span / 8).max(1)),
            Pred::True,
        )
        .into_plan();
    vec![
        ("stateless", stateless),
        ("aggregate", aggregate),
        ("join", join),
        ("sequence", sequence),
        ("negation", negation),
    ]
}

/// Register the five-family query catalog against a fresh engine.
pub fn register_families(
    engine: &mut Engine,
    spec: ConsistencySpec,
    span: u64,
) -> Vec<(&'static str, QueryId)> {
    for ty in SCENARIO_TYPES {
        engine.register_event_type(ty, vec![("key", FieldType::Int), ("seq", FieldType::Int)]);
    }
    family_plans(span)
        .into_iter()
        .map(|(name, plan)| {
            let q = engine
                .register_plan(name, plan, spec)
                .unwrap_or_else(|e| panic!("register {name}: {e}"));
            (name, q)
        })
        .collect()
}

/// One finished engine leg, plus the stall observations the harness made
/// while pumping.
pub struct LegRun {
    pub engine: Engine,
    pub queries: Vec<(&'static str, QueryId)>,
    /// Peak consecutive stalled pump checks (nonzero when a producer went
    /// silent while others kept flushing).
    pub stall_rounds_peak: u64,
    /// Producer keys the pump reported waiting on, in first-seen order.
    pub waited_on: Vec<u64>,
}

/// Drive one scenario through one engine leg: flush each producer's
/// round-`r` emission (silent rounds flush nothing), pump twice per
/// round recording stalls, then disconnect, drain and seal. The driving
/// schedule is a pure function of the trace, so every leg sees the same
/// canonical `(round, producer)` admission order.
pub fn drive_leg(trace: &ScenarioTrace, spec: ConsistencySpec, threads: usize) -> LegRun {
    let depth = (trace.config.producers * 4).max(64);
    let mut engine = Engine::with_config(EngineConfig::threaded(threads).with_channel_depth(depth));
    let queries = register_families(&mut engine, spec, trace.config.span);
    let mut sources: Vec<ChannelSource> = trace
        .scripts
        .iter()
        .map(|s| {
            engine
                .channel_source(s.event_type)
                .expect("scenario type registered")
                .manual_flush()
        })
        .collect();
    let mut stall_rounds_peak = 0u64;
    let mut waited_on: Vec<u64> = Vec::new();
    for r in 0..trace.rounds() {
        for (p, script) in trace.scripts.iter().enumerate() {
            if let Some(Some(batch)) = script.emissions.get(r) {
                sources[p].stage_batch(batch);
                sources[p].flush();
            }
        }
        // Two pump steps per harness round: the first admits whatever
        // rounds are aligned, the second observes a stall if some lane
        // is behind (e.g. a silent producer).
        for _ in 0..2 {
            let progress = engine.pump().expect("pump");
            stall_rounds_peak = stall_rounds_peak.max(progress.rounds_stalled);
            if let Some(key) = progress.waiting_on {
                if !waited_on.contains(&key) {
                    waited_on.push(key);
                }
            }
        }
    }
    drop(sources);
    engine.run_pipelined().expect("drain");
    engine.seal();
    LegRun {
        engine,
        queries,
        stall_rounds_peak,
        waited_on,
    }
}

/// Assert the bit-identity pin between two finished legs: delta log,
/// freshly drained subscription deltas and output CTI, per query.
/// Returns the number of per-query comparisons performed.
pub fn assert_legs_identical(label: &str, a: &LegRun, b: &LegRun) -> usize {
    let mut checks = 0usize;
    for ((name, qa), (_, qb)) in a.queries.iter().zip(b.queries.iter()) {
        assert_eq!(
            a.engine.collector(*qa).delta_log(),
            b.engine.collector(*qb).delta_log(),
            "{label}: stamped tape diverged on {name}"
        );
        let (mut sa, mut sb) = (
            a.engine.subscribe(*qa).expect("subscribe"),
            b.engine.subscribe(*qb).expect("subscribe"),
        );
        assert_eq!(
            sa.drain_ready(&a.engine),
            sb.drain_ready(&b.engine),
            "{label}: subscription deltas diverged on {name}"
        );
        assert_eq!(
            a.engine.collector(*qa).max_cti(),
            b.engine.collector(*qb).max_cti(),
            "{label}: output guarantee diverged on {name}"
        );
        checks += 1;
    }
    checks
}

/// Scramble `streams` (event type, sync-ordered messages) onto one
/// delivery timeline with [`merge_scramble`], labelling each stream by
/// its position, and [`send`](SourceHandle::send) every message to its
/// type in delivery order — one counted ingress round per message.
///
/// Errors: [`EngineError::UnknownEventType`] for an unregistered type,
/// [`EngineError::Sealed`] on a sealed engine.
pub fn send_scrambled(
    engine: &mut Engine,
    streams: &[(String, Vec<Message>)],
    disorder: &DisorderConfig,
) -> Result<(), EngineError> {
    let routed: Vec<(usize, &[Message])> = streams
        .iter()
        .enumerate()
        .map(|(i, (_, msgs))| (i, msgs.as_slice()))
        .collect();
    for (slot, m) in merge_scramble(&routed, disorder) {
        engine.source(&streams[slot].0)?.send(m);
    }
    Ok(())
}

/// Symmetric F1 overlap of two net tables on `(interval, payload)` rows.
pub fn accuracy_f1(a: &UniTemporalTable, b: &UniTemporalTable) -> f64 {
    let key = |t: &UniTemporalTable| {
        let mut m: HashMap<(Interval, Payload), usize> = HashMap::new();
        for r in &t.without_empty().rows {
            *m.entry((r.interval, r.payload.clone())).or_insert(0) += 1;
        }
        m
    };
    let ma = key(a);
    let mb = key(b);
    let inter: usize = ma
        .iter()
        .map(|(k, ca)| mb.get(k).map_or(0, |cb| (*ca).min(*cb)))
        .sum();
    let na: usize = ma.values().sum();
    let nb: usize = mb.values().sum();
    if na + nb == 0 {
        return 1.0;
    }
    2.0 * inter as f64 / (na + nb) as f64
}

/// Deterministic observables for one (scenario, level, family) cell,
/// read from the canonical leg after the identity pin passed.
#[derive(Clone, Debug)]
pub struct FamilyCell {
    pub family: &'static str,
    /// Collector tape: net inserts / retraction repairs / full removals.
    pub inserts: u64,
    pub retractions: u64,
    pub full_removals: u64,
    /// Delta-log volume (consumer-visible churn).
    pub deltas: u64,
    /// Plan-wide blocking: application-time alignment ticks and messages
    /// held back waiting for a guarantee.
    pub blocked_ticks: u64,
    pub blocked_messages: u64,
    /// Plan-wide peaks and Weak-mode forgetting.
    pub state_peak: u64,
    pub held_peak: u64,
    pub forgotten: u64,
    /// Output guarantee reached (None = no CTI emitted).
    pub output_cti: Option<u64>,
    /// F1 of the net output table against the Strong cell of the same
    /// scenario and family (Strong row is 1.0 by construction).
    pub accuracy_vs_strong: f64,
}

/// One (scenario, level) run: the five family cells plus channel-level
/// observations. `wall_*` fields are the only nondeterministic ones —
/// they are for stdout, never for the committed report.
#[derive(Clone, Debug)]
pub struct LevelRun {
    pub level: &'static str,
    pub cells: Vec<FamilyCell>,
    pub stall_rounds_peak: u64,
    pub waited_on: Vec<u64>,
    pub rounds_admitted: u64,
    pub messages_admitted: u64,
    pub identity_checks: usize,
    /// Wall-clock ingest→delta latency (count, mean µs, max µs) from the
    /// canonical leg. **Nondeterministic** — excluded from rendered
    /// markdown.
    pub wall_ingest_to_delta: (u64, f64, f64),
}

/// One scenario's full row of the matrix.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    pub name: String,
    pub characterization: String,
    pub profile: ScenarioProfile,
    pub levels: Vec<LevelRun>,
}

/// The whole matrix: every scenario × level × family, pinned then
/// measured.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    pub seed: u64,
    pub scenarios: Vec<ScenarioResult>,
    /// Total bit-identity comparisons that passed across the run.
    pub identity_checks: usize,
}

/// Run the full matrix over `configs`. Panics (with a labelled message)
/// if any bit-identity pin fails — measurement never proceeds past a
/// divergent cell.
pub fn run_matrix(seed: u64, configs: &[ScenarioConfig]) -> MatrixReport {
    let mut scenarios = Vec::with_capacity(configs.len());
    let mut identity_checks = 0usize;
    for cfg in configs {
        let trace = cfg.generate();
        let mut level_runs = Vec::new();
        let mut strong_nets: Vec<UniTemporalTable> = Vec::new();
        for (level, spec) in levels(cfg.span) {
            let (canon_label, canon_threads) = LEGS[0];
            let canonical = drive_leg(&trace, spec, canon_threads);
            let mut checks = 0usize;
            for (leg_label, threads) in LEGS.iter().skip(1) {
                let other = drive_leg(&trace, spec, *threads);
                checks += assert_legs_identical(
                    &format!("{}/{level}/{canon_label} vs {leg_label}", cfg.name),
                    &canonical,
                    &other,
                );
            }
            identity_checks += checks;
            let nets: Vec<UniTemporalTable> = canonical
                .queries
                .iter()
                .map(|(_, q)| canonical.engine.collector(*q).net_table())
                .collect();
            if level == "Strong" {
                strong_nets = nets.clone();
            }
            let snap = canonical.engine.metrics();
            let cells = canonical
                .queries
                .iter()
                .enumerate()
                .map(|(i, (family, _))| {
                    let qc = &snap.counters.queries[i];
                    FamilyCell {
                        family,
                        inserts: qc.inserts,
                        retractions: qc.retractions,
                        full_removals: qc.full_removals,
                        deltas: qc.deltas_logged,
                        blocked_ticks: qc.total.blocked_ticks,
                        blocked_messages: qc.total.blocked_messages,
                        state_peak: qc.total.state_peak,
                        held_peak: qc.total.held_peak,
                        forgotten: qc.total.forgotten,
                        output_cti: qc.output_cti,
                        accuracy_vs_strong: accuracy_f1(&nets[i], &strong_nets[i]),
                    }
                })
                .collect();
            let channel = snap.counters.channel.as_ref();
            let lat = &snap.timings.ingest_to_delta;
            level_runs.push(LevelRun {
                level,
                cells,
                stall_rounds_peak: canonical.stall_rounds_peak,
                waited_on: canonical.waited_on.clone(),
                rounds_admitted: channel.map_or(0, |c| c.rounds_admitted),
                messages_admitted: channel.map_or(0, |c| c.messages_admitted),
                identity_checks: checks,
                wall_ingest_to_delta: (
                    lat.count(),
                    lat.mean() as f64 / 1_000.0,
                    lat.max() as f64 / 1_000.0,
                ),
            });
        }
        scenarios.push(ScenarioResult {
            name: cfg.name.clone(),
            characterization: trace.characterize(),
            profile: trace.profile(),
            levels: level_runs,
        });
    }
    MatrixReport {
        seed,
        scenarios,
        identity_checks,
    }
}

/// Per-level aggregates across every scenario and family (the spectrum
/// summary table).
#[derive(Clone, Debug, Default)]
pub struct LevelAggregate {
    pub blocked_ticks: u64,
    pub blocked_messages: u64,
    pub retractions: u64,
    pub full_removals: u64,
    pub deltas: u64,
    pub state_peak_sum: u64,
    pub forgotten: u64,
    pub f1_sum: f64,
    pub cells: usize,
}

impl MatrixReport {
    /// Aggregate each level across all scenarios and families.
    pub fn level_aggregates(&self) -> Vec<(&'static str, LevelAggregate)> {
        let mut out: Vec<(&'static str, LevelAggregate)> = Vec::new();
        for scenario in &self.scenarios {
            for run in &scenario.levels {
                let slot = match out.iter_mut().find(|(l, _)| *l == run.level) {
                    Some((_, agg)) => agg,
                    None => {
                        out.push((run.level, LevelAggregate::default()));
                        &mut out.last_mut().expect("just pushed").1
                    }
                };
                for cell in &run.cells {
                    slot.blocked_ticks += cell.blocked_ticks;
                    slot.blocked_messages += cell.blocked_messages;
                    slot.retractions += cell.retractions;
                    slot.full_removals += cell.full_removals;
                    slot.deltas += cell.deltas;
                    slot.state_peak_sum += cell.state_peak;
                    slot.forgotten += cell.forgotten;
                    slot.f1_sum += cell.accuracy_vs_strong;
                    slot.cells += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Silence;

    /// `SEQUENCE(A, B, 50)` standing at `spec`, fed [`streams`] under
    /// `disorder` through the engine's ingress.
    fn run_seq(spec: ConsistencySpec, disorder: &DisorderConfig) -> (Engine, QueryId) {
        let mut engine = Engine::new();
        for ty in ["A", "B"] {
            engine.register_event_type(ty, vec![("v", FieldType::Int)]);
        }
        let plan = LogicalOp::Sequence {
            inputs: vec![
                LogicalOp::Source {
                    event_type: "A".into(),
                },
                LogicalOp::Source {
                    event_type: "B".into(),
                },
            ],
            w: dur(50),
            pred: Pred::True,
            modes: vec![ScMode::EACH_REUSE; 2],
        };
        let q = engine.register_plan("seq", plan, spec).unwrap();
        send_scrambled(&mut engine, &streams(), disorder).unwrap();
        (engine, q)
    }

    fn streams() -> Vec<(String, Vec<Message>)> {
        let mk = |base: u64, n: u64, gap: u64| {
            let mut b = StreamBuilder::with_id_base(base);
            for i in 0..n {
                b.insert_at(
                    TimePoint::new(i * gap + base % 7),
                    Payload::from_values(vec![Value::Int(i as i64)]),
                );
            }
            b.build_ordered(Some(Duration(20)), true)
        };
        vec![
            ("A".to_string(), mk(0, 50, 13)),
            ("B".to_string(), mk(10_000, 50, 17)),
        ]
    }

    #[test]
    fn strong_and_middle_agree_on_net_content() {
        let disorder = DisorderConfig::heavy(99, 120, 10);
        let (strong, qs) = run_seq(ConsistencySpec::strong(), &disorder);
        let (middle, qm) = run_seq(ConsistencySpec::middle(), &disorder);
        assert!(
            (accuracy_f1(
                &strong.collector(qs).net_table(),
                &middle.collector(qm).net_table()
            ) - 1.0)
                .abs()
                < 1e-9,
            "strong and middle must converge to the same net output"
        );
        // And the trade-off shape: strong blocks, middle retracts.
        assert!(strong.stats(qs).blocked_ticks > 0);
        assert_eq!(middle.stats(qm).blocked_ticks, 0);
    }

    #[test]
    fn ordered_delivery_blocks_far_less_than_disordered() {
        // The Figure-8 shape on the strong row: blocking scales with
        // disorder. (Some blocking remains even when ordered: a binary
        // operator waits for the *other* input's guarantee.)
        let (ordered, qo) = run_seq(ConsistencySpec::strong(), &DisorderConfig::ordered(1));
        let (disordered, qd) = run_seq(
            ConsistencySpec::strong(),
            &DisorderConfig::heavy(1, 300, 25),
        );
        let (ordered, disordered) = (ordered.stats(qo), disordered.stats(qd));
        assert!(
            disordered.mean_blocking() > 2.0 * ordered.mean_blocking(),
            "disordered {} vs ordered {}",
            disordered.mean_blocking(),
            ordered.mean_blocking()
        );
    }

    #[test]
    fn f1_accuracy_measures_overlap() {
        let row = |a: u64, b: u64, v: i64| {
            UniTemporalRow::new(
                EventId(a * 1000 + b),
                Interval::new(TimePoint::new(a), TimePoint::new(b)),
                Payload::from_values(vec![Value::Int(v)]),
            )
        };
        let t1: UniTemporalTable = vec![row(0, 5, 1), row(5, 9, 2)].into_iter().collect();
        let t2: UniTemporalTable = vec![row(0, 5, 1)].into_iter().collect();
        assert!((accuracy_f1(&t1, &t1) - 1.0).abs() < 1e-9);
        let f1 = accuracy_f1(&t1, &t2);
        assert!((f1 - (2.0 / 3.0)).abs() < 1e-9);
        let empty = UniTemporalTable::new();
        assert_eq!(accuracy_f1(&empty, &empty), 1.0);
    }

    /// A small scenario so the debug-profile test stays quick.
    fn small(name: &str) -> ScenarioConfig {
        ScenarioConfig {
            events_per_producer: 20,
            disorder: 12,
            retraction_rate: 0.2,
            ..ScenarioConfig::tame(name, 0x7E57)
        }
    }

    #[test]
    fn matrix_cell_pins_then_measures() {
        let report = run_matrix(0x7E57, &[small("smoke")]);
        assert_eq!(report.scenarios.len(), 1);
        let s = &report.scenarios[0];
        assert_eq!(s.levels.len(), 3);
        // 3 levels × 1 non-canonical leg × 5 families.
        assert_eq!(report.identity_checks, 15);
        for run in &s.levels {
            assert_eq!(run.cells.len(), FAMILIES.len());
            assert!(run.messages_admitted > 0);
        }
        let strong = &s.levels[0];
        let middle = &s.levels[1];
        let weak = &s.levels[2];
        // The paper's trade-off shape, measured: Strong blocks and stays
        // repair-free at the tape; Middle repairs instead of blocking;
        // both agree on net content (F1 = 1), Weak forgets.
        assert!(strong.cells.iter().any(|c| c.blocked_ticks > 0));
        assert!(middle.cells.iter().all(|c| c.blocked_ticks == 0));
        assert!(middle.cells.iter().any(|c| c.retractions > 0));
        for cell in middle.cells.iter() {
            assert!(
                (cell.accuracy_vs_strong - 1.0).abs() < 1e-9,
                "middle diverged from strong on {}",
                cell.family
            );
        }
        assert!(weak.cells.iter().map(|c| c.forgotten).sum::<u64>() > 0);
    }

    #[test]
    fn silence_is_observed_by_the_pump() {
        let cfg = ScenarioConfig {
            silence: Some(Silence {
                producer: 1,
                from_round: 2,
                rounds: 5,
            }),
            events_per_producer: 24,
            ..ScenarioConfig::tame("quiet", 0xAB)
        };
        let run = drive_leg(&cfg.generate(), ConsistencySpec::middle(), 1);
        assert!(
            run.stall_rounds_peak > 0,
            "expected the pump to report stalled rounds"
        );
        assert!(
            !run.waited_on.is_empty(),
            "expected waiting_on to name the silent producer"
        );
    }
}
