//! `cedr-benchmark`: absolute end-to-end and per-layer numbers for the
//! CEDR engine, measured from outside the program through public API only
//! (`Engine::{channel_source, pump, subscribe, checkpoint_to_vec,
//! restore_from_slice, metrics}`, `Subscription::poll`,
//! `cedr_lang::lower_with`, `Dataflow::run_round`, `Resequencer`,
//! `Collector`, `cedr_workload::scenario`). See `README.md`.

pub mod catalog;
pub mod cli;
pub mod compare;
pub mod drive;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod verify;
pub mod workloads;
