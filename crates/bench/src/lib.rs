//! Paper-artifact regeneration: [`figures`] holds one function per
//! figure/table of the paper and the `repro_all` binary prints them;
//! this module is the CIDR07_Example fixture the runtime-driven ones
//! (`fig08`, `fig09`, `tab03`) share. The `scenario_matrix` binary
//! generates `docs/CONSISTENCY.md`. Performance is measured by the
//! separate `benchmark/` package, not here.

use cedr_lang::{bind, lower, optimize, Catalog, FieldType, LoweredPlan};
use cedr_runtime::ConsistencySpec;
use cedr_streams::{DisorderConfig, Message};
use cedr_temporal::Duration;
use cedr_workload::machines::{self, MachineWorkloadConfig};
use cedr_workload::metrics::{run_experiment, ExperimentResult};

/// The machine-monitoring catalog used across experiments.
pub fn machine_catalog() -> Catalog {
    let mut c = Catalog::new();
    for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
        c.register_type(ty, vec![("Machine_Id", FieldType::Str)]);
    }
    c
}

/// Compile the paper's CIDR07_Example query at a given consistency spec.
pub fn cidr07_plan(spec: ConsistencySpec) -> LoweredPlan {
    let cat = machine_catalog();
    let q = cedr_lang::parse_query(cedr_lang::parser::CIDR07_EXAMPLE).expect("parses");
    let b = bind(&q, &cat).expect("binds");
    lower(&optimize(b.root), &cat, spec).expect("lowers")
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

/// Run one (spec × orderliness) cell of the Figure-8 matrix on the
/// CIDR07_Example workload.
pub fn run_cell(
    spec: ConsistencySpec,
    disorder: DisorderConfig,
    streams: &[(String, Vec<Message>)],
) -> ExperimentResult {
    run_experiment(cidr07_plan(spec), streams, &disorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_workload::metrics::accuracy_f1;

    #[test]
    fn figure8_shape_holds_on_a_small_workload() {
        let cfg = MachineWorkloadConfig {
            machines: 4,
            episodes: 6,
            ..Default::default()
        };
        let (streams, expected) = machine_streams(&cfg, Duration::minutes(10));

        let strong_lo = run_cell(ConsistencySpec::strong(), low_orderliness(5), &streams);
        let middle_lo = run_cell(ConsistencySpec::middle(), low_orderliness(5), &streams);

        // Both converge to the ground truth…
        assert_eq!(strong_lo.sink_net.len(), expected);
        assert_eq!(middle_lo.sink_net.len(), expected);
        assert!((accuracy_f1(&strong_lo.sink_net, &middle_lo.sink_net) - 1.0).abs() < 1e-9);
        // …but by opposite means: strong blocks, middle repairs.
        assert!(strong_lo.total.blocked_ticks > 0);
        assert_eq!(middle_lo.total.blocked_ticks, 0);
        assert!(middle_lo.output.retractions > 0 || middle_lo.total.out_retractions > 0);
        assert_eq!(strong_lo.output.retractions, 0, "strong output is final");
    }
}
pub mod figures;
