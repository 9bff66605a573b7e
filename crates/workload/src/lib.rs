//! # cedr-workload
//!
//! Adversarial, *characterized* workloads for the CEDR reproduction, and
//! the harness that turns them into the paper's measured consistency
//! spectrum.
//!
//! * [`scenario`] — the scenario engine: a seeded [`ScenarioConfig`]
//!   with one dial per hostility dimension (burstiness, disorder depth,
//!   retraction rate, key skew, producer skew, producer silence). Every
//!   generated trace renders a one-line characterization combining the
//!   dials with *measured* trace properties, and the curated
//!   [`scenario::gallery`] covers one dial per scenario.
//! * [`matrix`] — the consistency matrix harness: every scenario ×
//!   consistency level × operator family driven through the modern
//!   engine surface (`ChannelSource` + pump + `Subscription`), pinned
//!   bit-identical across its 1- and 4-worker legs **before** measuring
//!   blocking, repair churn, state peaks and accuracy from [`Engine::metrics`](cedr_core::engine::Engine::metrics).
//!   The committed `docs/CONSISTENCY.md` is this harness's rendered
//!   output (regenerate with the `scenario_matrix` binary in
//!   `cedr-bench`). Beside it live the two pieces every other
//!   measurement shares: [`send_scrambled`], which delivers disordered
//!   streams to an engine one counted ingress round per message (the
//!   driver behind `cedr-bench`'s Figures 8/9), and [`accuracy_f1`],
//!   the net-table overlap score.
//! * [`finance`] / [`machines`] — the paper's motivating domains
//!   (Section 1's financial-services triple, Section 3.1's machine
//!   monitoring) as seeded generators, used by the examples and the
//!   paper-figure regeneration in `cedr-bench`.
//! * [`report`] — ASCII/markdown table rendering and the Figure-8
//!   qualitative classifier.
//!
//! Everything is seeded and deterministic: the same configuration always
//! produces the same trace, delivery order and measurements (see
//! `ScenarioTrace::fingerprint`).

pub mod finance;
pub mod machines;
pub mod matrix;
pub mod report;
pub mod scenario;

pub use finance::{MarketConfig, NewsConfig, PortfolioConfig};
pub use machines::{MachineTrace, MachineWorkloadConfig};
pub use matrix::{
    accuracy_f1, run_matrix, send_scrambled, FamilyCell, LevelRun, MatrixReport, ScenarioResult,
};
pub use report::Table;
pub use scenario::{gallery, ProducerScript, ScenarioConfig, ScenarioProfile, ScenarioTrace};
