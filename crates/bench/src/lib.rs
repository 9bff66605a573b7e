//! Paper-artifact regeneration: [`figures`] holds one function per
//! figure/table of the paper and the `repro_all` binary prints them.
//! This module is the CIDR07_Example engine fixture the measured ones
//! (`fig08`, `fig09`, `tab03`) share. A measured cell is an [`Engine`]
//! with one standing query, fed through the engine's one ingress by
//! [`send_scrambled`] and read through the engine's own observables:
//! [`Engine::stats`], `collector(q).stats()` and
//! `collector(q).net_table()`. The `scenario_matrix` binary generates
//! `docs/CONSISTENCY.md`. Performance is measured by the separate
//! `benchmark/` package, not here.

use cedr_core::prelude::*;
use cedr_lang::parser::CIDR07_EXAMPLE;
use cedr_workload::machines::{self, MachineWorkloadConfig};
use cedr_workload::send_scrambled;

/// A fresh engine with the machine-monitoring event types registered.
pub fn machine_engine() -> Engine {
    let mut engine = Engine::new();
    for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
        engine.register_event_type(ty, vec![("Machine_Id", FieldType::Str)]);
    }
    engine
}

/// The standard machine workload for consistency experiments.
pub fn machine_streams(
    cfg: &MachineWorkloadConfig,
    cti_every: Duration,
) -> (Vec<(String, Vec<Message>)>, usize) {
    let trace = machines::generate(cfg);
    let expected = trace.expected_alerts;
    (trace.to_streams(Some(cti_every)), expected)
}

/// Orderliness regimes of Figure 8.
pub fn high_orderliness(seed: u64) -> DisorderConfig {
    DisorderConfig::ordered(seed)
}

/// Low orderliness: delivery delays up to two days of application time —
/// well beyond the query's inherent 12-hour cross-stream skew — and sparse
/// application-declared sync points.
pub fn low_orderliness(seed: u64) -> DisorderConfig {
    DisorderConfig::heavy(seed, 2 * 86_400, 50)
}

/// The weak level's memory bound used in the figures: four hours — enough
/// for prompt shutdowns, too little for the full 12-hour scope, so weak
/// trades measurable accuracy for state.
pub fn weak_memory() -> Duration {
    Duration::hours(4)
}

/// Run one (spec × orderliness) cell of the Figure-8 matrix: the paper's
/// CIDR07_Example query standing at `spec`, fed `streams` under
/// `disorder`.
pub fn run_cell(
    spec: ConsistencySpec,
    disorder: DisorderConfig,
    streams: &[(String, Vec<Message>)],
) -> (Engine, QueryId) {
    let mut engine = machine_engine();
    let q = engine
        .register_query(CIDR07_EXAMPLE, spec)
        .expect("CIDR07_Example compiles");
    send_scrambled(&mut engine, streams, &disorder).expect("machine types are registered");
    (engine, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_workload::accuracy_f1;

    #[test]
    fn figure8_shape_holds_on_a_small_workload() {
        let cfg = MachineWorkloadConfig {
            machines: 4,
            episodes: 6,
            ..Default::default()
        };
        let (streams, expected) = machine_streams(&cfg, Duration::minutes(10));

        let (strong_lo, qs) = run_cell(ConsistencySpec::strong(), low_orderliness(5), &streams);
        let (middle_lo, qm) = run_cell(ConsistencySpec::middle(), low_orderliness(5), &streams);
        let (strong_out, middle_out) = (strong_lo.collector(qs), middle_lo.collector(qm));
        let (strong_net, middle_net) = (strong_out.net_table(), middle_out.net_table());

        // Both converge to the ground truth…
        assert_eq!(strong_net.len(), expected);
        assert_eq!(middle_net.len(), expected);
        assert!((accuracy_f1(&strong_net, &middle_net) - 1.0).abs() < 1e-9);
        // …but by opposite means: strong blocks, middle repairs.
        let (strong_total, middle_total) = (strong_lo.stats(qs), middle_lo.stats(qm));
        assert!(strong_total.blocked_ticks > 0);
        assert_eq!(middle_total.blocked_ticks, 0);
        assert!(middle_out.stats().retractions > 0 || middle_total.out_retractions > 0);
        assert_eq!(strong_out.stats().retractions, 0, "strong output is final");
    }
}

pub mod figures;
