//! `Dataflow::run_round` against the staging pair it replaces.
//!
//! A round handed to `run_round` reaches each node as borrowed slices of
//! the caller's batches; `enqueue_source_batch` per batch followed by
//! `run_to_quiescence` copies the same round into the node queues first.
//! The two must be one execution: same delta log, same operator
//! statistics, same image bytes — for every operator family, at every
//! consistency level, on the gallery's most disordered trace, both as
//! generated (three producers: every batch is a run of its own) and with
//! a fourth producer (two `SCN_A` batches per round, which a node must
//! see merged into one run).

use cedr::core::prelude::*;
use cedr::lang::{lower, optimize, LoweredPlan};
use cedr::workload::matrix::{family_plans, levels};
use cedr::workload::scenario::{gallery, ScenarioConfig, SCENARIO_TYPES};

const SEED: u64 = 0xC1D7;

fn image(plan: &LoweredPlan) -> Vec<u8> {
    let mut out = Vec::new();
    plan.dataflow.state_snapshot(&mut out).unwrap();
    out
}

/// The same round into both plans: as one `run_round`, and staged batch
/// by batch ahead of one quiescence pass.
fn both(
    by_round: &mut LoweredPlan,
    by_staging: &mut LoweredPlan,
    round: Vec<(usize, &MessageBatch)>,
) {
    for &(port, batch) in &round {
        by_staging.dataflow.enqueue_source_batch(port, batch);
    }
    by_staging.dataflow.run_to_quiescence();
    by_round.dataflow.run_round(round);
}

fn assert_round_equals_staging(cfg: &ScenarioConfig) {
    let trace = cfg.generate();
    let mut catalog = Catalog::new();
    for ty in SCENARIO_TYPES {
        catalog.register_type(ty, vec![("key", FieldType::Int), ("seq", FieldType::Int)]);
    }
    let mut seal = MessageBatch::new();
    seal.push_cti(TimePoint::INFINITY);
    for (level, spec) in levels(cfg.span) {
        for (family, plan) in family_plans(cfg.span) {
            let label = format!("{}/{level}/{family}", cfg.name);
            let lowered = || lower(&optimize(plan.clone()), &catalog, spec).unwrap();
            let (mut by_round, mut by_staging) = (lowered(), lowered());
            for r in 0..trace.rounds() {
                let round = trace.scripts.iter().filter_map(|script| {
                    let port = by_round.source_index(script.event_type)?;
                    Some((port, script.emissions.get(r)?.as_ref()?))
                });
                let round: Vec<_> = round.collect();
                both(&mut by_round, &mut by_staging, round);
                if r % 8 == 0 {
                    assert_eq!(image(&by_round), image(&by_staging), "{label}: round {r}");
                }
            }
            let ports = 0..by_round.source_types.len();
            let round = ports.map(|p| (p, &seal)).collect();
            both(&mut by_round, &mut by_staging, round);

            let (a, b) = (&by_round.dataflow, &by_staging.dataflow);
            let log = a.collector(by_round.sink).delta_log();
            assert!(!log.is_empty(), "{label}: empty tape");
            assert_eq!(log, b.collector(by_staging.sink).delta_log(), "{label}");
            assert_eq!(a.total_stats(), b.total_stats(), "{label}");
            assert_eq!(a.now(), b.now(), "{label}: tick");
            assert_eq!(image(&by_round), image(&by_staging), "{label}: sealed");
        }
    }
}

#[test]
fn run_round_equals_staging_then_quiescence_on_late_storm() {
    let late_storm = gallery(SEED)
        .into_iter()
        .find(|cfg| cfg.name == "late_storm")
        .expect("gallery scenario");
    assert_round_equals_staging(&late_storm);
    assert_round_equals_staging(&ScenarioConfig {
        producers: 4,
        ..late_storm
    });
}
