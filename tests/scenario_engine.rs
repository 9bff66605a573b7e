//! Tier-1 coverage for the adversarial scenario engine and the
//! consistency matrix harness (`cedr-workload`): generation determinism,
//! dial monotonicity, silence observability through the pump, and one
//! full matrix cell (pin-then-measure) end to end.

use cedr::core::prelude::*;
use cedr::workload::matrix::{drive_leg, run_matrix, FAMILIES, LEGS};
use cedr::workload::scenario::{gallery, ScenarioConfig, Silence};

/// Same config ⇒ byte-equal trace: structural equality, equal
/// fingerprints, and byte-equal debug rendering (the strongest form —
/// what the committed report's regeneration rests on).
#[test]
fn scenario_generation_is_byte_deterministic() {
    for cfg in gallery(0xD0_0D) {
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b, "{} diverged structurally", cfg.name);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            format!("{:?}", a.scripts),
            format!("{:?}", b.scripts),
            "{} diverged at the byte level",
            cfg.name
        );
        assert_eq!(a.characterize(), b.characterize());
    }
}

/// Turning the disorder dial must *measurably* deepen disorder — the
/// characterization reports what the trace is, not what was asked for.
#[test]
fn disorder_dial_is_monotone_in_measured_disorder() {
    let at = |max_delay: u64| {
        ScenarioConfig {
            disorder: max_delay,
            ..ScenarioConfig::tame("dial", 0x5EED)
        }
        .generate()
        .profile()
    };
    let (calm, mid, storm) = (at(0), at(12), at(48));
    assert_eq!(calm.inversion_frac, 0.0);
    assert!(
        mid.inversion_frac > calm.inversion_frac,
        "mid {:?} !> calm {:?}",
        mid.inversion_frac,
        calm.inversion_frac
    );
    assert!(
        storm.inversion_frac > mid.inversion_frac,
        "storm {:?} !> mid {:?}",
        storm.inversion_frac,
        mid.inversion_frac
    );
    assert!(storm.max_jump > mid.max_jump);
}

/// A silent producer must be *observable* through the pump: nonzero
/// `rounds_stalled` and a `waiting_on` key while the other lanes run
/// ahead — and the stall must clear once the producer resumes (the run
/// drains and seals).
#[test]
fn producer_silence_is_observed_as_pump_stalls() {
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
    assert!(run.stall_rounds_peak > 0, "no stall observed");
    assert!(!run.waited_on.is_empty(), "waiting_on never reported");
    let snap = run.engine.metrics();
    let channel = snap.counters.channel.expect("channel metrics");
    assert!(channel.rounds_admitted > 0, "the stall must clear");
    assert_eq!(channel.waiting_on, None, "sealed run still waiting");
}

/// One matrix cell end to end: the bit-identity pin across all four
/// engine legs passes, and the measured spectrum has the paper's shape.
#[test]
fn matrix_cell_smoke() {
    let cfg = ScenarioConfig {
        events_per_producer: 20,
        disorder: 12,
        retraction_rate: 0.2,
        ..ScenarioConfig::tame("smoke", 0x51_0E)
    };
    let report = run_matrix(0x51_0E, &[cfg]);
    // 3 levels × (LEGS - canonical) × 5 families.
    assert_eq!(
        report.identity_checks,
        3 * (LEGS.len() - 1) * FAMILIES.len()
    );
    let s = &report.scenarios[0];
    let strong = &s.levels[0];
    let middle = &s.levels[1];
    let weak = &s.levels[2];
    assert!(strong.cells.iter().any(|c| c.blocked_ticks > 0));
    assert!(middle.cells.iter().all(|c| c.blocked_ticks == 0));
    assert!(middle.cells.iter().any(|c| c.retractions > 0));
    assert!(middle
        .cells
        .iter()
        .all(|c| (c.accuracy_vs_strong - 1.0).abs() < 1e-9));
    assert!(weak.cells.iter().map(|c| c.forgotten).sum::<u64>() > 0);
    assert!(weak.cells.iter().any(|c| c.accuracy_vs_strong < 1.0));
}
