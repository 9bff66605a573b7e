//! Golden images: checkpoint bytes pinned against **history**.
//!
//! `tests/recovery.rs` shows that an image restores into the build that
//! wrote it; `tests/golden_tapes.rs` shows that this build's tapes are an
//! earlier build's. This file closes the triangle: the image the
//! five-family catalog holds half-way through a gallery scenario is
//! fingerprinted and compared with pinned constants — so an image an
//! older build wrote *is* the image this build writes, byte for byte, and
//! restoring one is restoring the other. Each image is then restored into
//! a fresh engine and run to the seal; the finished tapes must equal the
//! older build's too.
//!
//! The tape fingerprints (last column) date from the commit before
//! borrowed-run delivery. The image columns were re-captured at
//! `FORMAT_VERSION` 3, when the engine section lost its per-worker
//! routing split (every image exactly 56 bytes shorter), and again at
//! `FORMAT_VERSION` 4, when stateless chains stopped being fused: the
//! catalog's select → project chain is now two shells, each with its
//! own monitor state, every shell's counters lost two `u64`s and the
//! configuration hash two flags. The image fingerprints moved once more
//! at `FORMAT_VERSION` 5, when the drain worker count left the
//! configuration hash so an image restores at any worker count: only
//! the header's version and hash bytes changed, and every image kept its
//! size. Every time, every tape fingerprint stayed put.
//!
//! Every operator map is keyed by a per-process hash seed, so a leaked
//! iteration order shows up here as a fingerprint that changes from one
//! run of this test to the next (CI runs it in a loop).
//!
//! A legitimate format change bumps `FORMAT_VERSION`, updates `GOLDEN` in
//! the same commit and says so: the failure message prints the whole
//! table in paste-able form.

use cedr::core::prelude::*;
use cedr::durable::fnv1a;
use cedr::workload::matrix::{levels, register_families};
use cedr::workload::scenario::{gallery, ScenarioTrace};

const SEED: u64 = 0xC1D7;

const SCENARIOS: [&str; 4] = ["baseline", "late_storm", "retraction_churn", "hot_keys"];

/// `(scenario, level, image bytes, image fingerprint, fingerprint of the
/// five finished tapes after restore)`, in gallery order.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, usize, u64, u64)] = &[
    ("baseline", "Strong", 30506, 0x132992a233b93741, 0x1a3251780ab5f455),
    ("baseline", "Middle", 38068, 0xe9e7eda5252dc96c, 0x354b8ce1edc44fac),
    ("baseline", "Weak", 33741, 0xf847c0361c4173ca, 0xb6ef9a17446f51a9),
    ("late_storm", "Strong", 27964, 0xcb9e65ee8c5e32b7, 0x0285dd507e534244),
    ("late_storm", "Middle", 39145, 0xa23a9f64d35a004a, 0xc32b124672188606),
    ("late_storm", "Weak", 28981, 0x1a51f45c6c04e9bb, 0xd1334b2a3b884bbf),
    ("retraction_churn", "Strong", 37452, 0x4eb662e63ab420b9, 0xabf2fef8ded895a3),
    ("retraction_churn", "Middle", 43870, 0x23b0b6d8b2169d90, 0x0c35b32431a92291),
    ("retraction_churn", "Weak", 39089, 0xc89f9826d2f88b9d, 0xc1893370d7098bef),
    ("hot_keys", "Strong", 57544, 0x03d2de74ad15fd7a, 0x50749e6b570a2f80),
    ("hot_keys", "Middle", 68061, 0x679ea3c5ad90ff4c, 0xd6c980cc559368c0),
    ("hot_keys", "Weak", 53002, 0x605d188e764c726e, 0x8982e96c980a5855),
];

/// Explicit configuration: the image's configuration hash must not
/// follow the `CEDR_*` environment of the CI leg running the test.
fn fresh_engine(spec: ConsistencySpec, span: u64) -> (Engine, Vec<(&'static str, QueryId)>) {
    let config = EngineConfig::threaded(1).with_trace_capacity(0);
    let mut engine = Engine::with_config(config);
    let queries = register_families(&mut engine, spec, span);
    (engine, queries)
}

/// Stage round `r` of every producer through borrowed handles and run one
/// quiescence pass (the serial schedule of `tests/recovery.rs`).
fn stage_round(engine: &mut Engine, trace: &ScenarioTrace, r: usize) {
    for script in &trace.scripts {
        if let Some(Some(batch)) = script.emissions.get(r) {
            let mut h = engine.source(script.event_type).unwrap().manual_flush();
            h.stage_batch(batch);
            h.flush();
        }
    }
    engine.run_to_quiescence();
}

#[test]
fn mid_trace_images_match_the_bytes_captured_before_borrowed_delivery() {
    let mut actual: Vec<(String, &'static str, usize, u64, u64)> = Vec::new();
    for cfg in gallery(SEED) {
        if !SCENARIOS.contains(&cfg.name.as_str()) {
            continue;
        }
        let trace = cfg.generate();
        let kill_at = trace.rounds() / 2;
        for (level, spec) in levels(cfg.span) {
            let image = {
                let (mut engine, _) = fresh_engine(spec, cfg.span);
                for r in 0..kill_at {
                    stage_round(&mut engine, &trace, r);
                }
                engine.checkpoint_to_vec().unwrap()
            };
            let (mut engine, queries) = fresh_engine(spec, cfg.span);
            engine.restore_from_slice(&image).unwrap();
            assert_eq!(
                engine.checkpoint_to_vec().unwrap(),
                image,
                "{}/{level}: restore → checkpoint is not byte-equal",
                cfg.name
            );
            for r in kill_at..trace.rounds() {
                stage_round(&mut engine, &trace, r);
            }
            engine.seal();
            let tapes: Vec<_> = queries
                .iter()
                .map(|(_, q)| engine.collector(*q).delta_log())
                .collect();
            assert!(tapes.iter().all(|t| !t.is_empty()), "{}/{level}", cfg.name);
            actual.push((
                cfg.name.clone(),
                level,
                image.len(),
                fnv1a(&image),
                fnv1a(format!("{tapes:?}").as_bytes()),
            ));
        }
    }
    let table = actual
        .iter()
        .map(|(s, l, n, i, t)| format!("    ({s:?}, {l:?}, {n}, {i:#018x}, {t:#018x}),"))
        .collect::<Vec<_>>()
        .join("\n");
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN.iter())
            .all(|((s, l, n, i, t), g)| (s.as_str(), *l, *n, *i, *t) == *g);
    assert!(matches, "images diverged from GOLDEN; actual:\n{table}");
}
