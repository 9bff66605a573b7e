//! `Dataflow::run_round` pinned against the staging route it replaced.
//!
//! A dataflow once had a second way in: stage each batch of a round into
//! the node queues, then drain them in a separate quiescence pass. That
//! route was deleted once `run_round` — which hands each node borrowed
//! slices of the caller's batches — was shown to be the same execution.
//! `GOLDEN` is what the staging route produced (per message: the old
//! `push_source`, a staged message and a pass), captured before it went:
//! for every operator family, at every consistency level, on the
//! gallery's most disordered trace, the final tick and fingerprints of
//! the sink's delta log, of the plan-wide statistics and of the images
//! taken every eighth round and after the seal.
//!
//! Three ways of feeding the trace are pinned:
//! * `as_generated` — three producers, so every batch is a run of its own;
//! * `four_producers` — two `SCN_A` batches per round, which a node must
//!   see merged into one run;
//! * `per_message` — every message of every round through
//!   `Dataflow::push_source`, one tick and one pass each.
//!
//! On a mismatch the failure message prints the whole table in
//! paste-able form; a legitimate change updates `GOLDEN` in the same
//! commit and says why.

use cedr::core::prelude::*;
use cedr::durable::fnv1a;
use cedr::lang::{lower, optimize, LoweredPlan};
use cedr::workload::matrix::{family_plans, levels};
use cedr::workload::scenario::{gallery, ScenarioConfig, SCENARIO_TYPES};

const SEED: u64 = 0xC1D7;

/// `(variant, level, family, final tick, delta-log fingerprint,
/// statistics fingerprint, image fingerprint)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str, u64, u64, u64, u64)] = &[
    ("as_generated", "Strong", "stateless", 10, 0xb617380d2c4df072, 0xe2646915cc444614, 0x2a6382e8a59f23aa),
    ("as_generated", "Strong", "aggregate", 10, 0x9f99ebf264a6d1bc, 0xc9f732d803bd74c6, 0x4ea7b77afc8e972e),
    ("as_generated", "Strong", "join", 20, 0xd5e56e9be4b95b1a, 0xb525fa8d7b90a286, 0xf3c5c252f66bff8f),
    ("as_generated", "Strong", "sequence", 20, 0xe62886e6405bb571, 0x92da23656676ac94, 0x43218698785d00b5),
    ("as_generated", "Strong", "negation", 20, 0x13bffe2004d4199d, 0xf97826742b2222bd, 0x158c86bbe27c6500),
    ("as_generated", "Middle", "stateless", 10, 0xaeb08e37a4a083ae, 0x998d332272397899, 0x90cc0130961ec971),
    ("as_generated", "Middle", "aggregate", 10, 0xa5e4884a8f958b76, 0xedc02f5a1e195e74, 0x75906acc396f2d58),
    ("as_generated", "Middle", "join", 20, 0x85ff3187f8d5e43e, 0x1772b5050008cc80, 0x0ed5d2b4977c4267),
    ("as_generated", "Middle", "sequence", 20, 0x1d9797c63e50d06b, 0xce9298c8b6697fca, 0x5175ce863fb23436),
    ("as_generated", "Middle", "negation", 20, 0x81fb19e9396d9a93, 0xd885ab85d26d3f0f, 0x1e63852defa362aa),
    ("as_generated", "Weak", "stateless", 10, 0x22ff657b03a89ba4, 0x7c1798ded19db067, 0x32ea45df10d74fcf),
    ("as_generated", "Weak", "aggregate", 10, 0x6dcbbcfb88fc9d7c, 0x316cfd8eb41671ca, 0xce03b98c56c89d1e),
    ("as_generated", "Weak", "join", 20, 0x36a00be73c73fe11, 0xe054cb45e9ddf5fe, 0x51616203c75c1960),
    ("as_generated", "Weak", "sequence", 20, 0x6ac5878e89c27ac5, 0x3bad7ce21d6b090c, 0xdf81616b87006a45),
    ("as_generated", "Weak", "negation", 20, 0x2d5708f9f4ffb1ff, 0x1cb5e00e9fb41182, 0x76a4551ca4cb390a),
    ("four_producers", "Strong", "stateless", 19, 0x575e7299c320d7a3, 0xec21f8719007f643, 0xdfdb71f7e6433ffc),
    ("four_producers", "Strong", "aggregate", 19, 0xaec224d6a7534273, 0x8a202010cec0b9b8, 0xab2d61120fb64f12),
    ("four_producers", "Strong", "join", 29, 0xda993f68ce39043a, 0x66cd91dce169694e, 0x01e7cd678a4669b7),
    ("four_producers", "Strong", "sequence", 29, 0x4c3ffd3822702a02, 0x669704b0beb9c90b, 0xac6c1e5ee083d8a3),
    ("four_producers", "Strong", "negation", 29, 0x56f0994f4050e369, 0x73619d36c5c5c4a5, 0x9b01e72566950016),
    ("four_producers", "Middle", "stateless", 19, 0x4bc6368a3f5ddaa7, 0x66b31b66403e5d45, 0xc4cadc4667222075),
    ("four_producers", "Middle", "aggregate", 19, 0x1aca3f8b92df59d5, 0xd91078d40542f6d7, 0xda11d87a0393ecbc),
    ("four_producers", "Middle", "join", 29, 0xa48a55093643918c, 0x5404e16fc72ac7f5, 0xc89068b9af868b52),
    ("four_producers", "Middle", "sequence", 29, 0x3ce026c96542a566, 0xd19c0b67e3596eba, 0x7a5c8c177e5a71e6),
    ("four_producers", "Middle", "negation", 29, 0x40164516d58ae241, 0x8239b2895270a66e, 0x730e18eb99dc13c3),
    ("four_producers", "Weak", "stateless", 19, 0x96ee5f333cba7141, 0x7a162c4b01cd91fe, 0x809b66a6be3baddb),
    ("four_producers", "Weak", "aggregate", 19, 0xc12153830d49f994, 0xfe73526f0de9ff95, 0x0100b5863f70393a),
    ("four_producers", "Weak", "join", 29, 0x1a94ba40bbfcb918, 0xf711a33f6b3d83d0, 0xd4c0036948e9f6ec),
    ("four_producers", "Weak", "sequence", 29, 0xeb1a1e4736d24ac9, 0xbb3ed4e599042f5a, 0x049f9800f0affa1f),
    ("four_producers", "Weak", "negation", 29, 0x95ea96dc581d26f1, 0x2871fdfba3a249ea, 0xbc40ab6a879fba71),
    ("per_message", "Strong", "stateless", 68, 0xb617380d2c4df072, 0xf70e89fa022f9a6c, 0xc750e342cdbb5c35),
    ("per_message", "Strong", "aggregate", 68, 0x9f99ebf264a6d1bc, 0x55c6969c4d0e8e68, 0xda5c619e135b50bb),
    ("per_message", "Strong", "join", 136, 0xd5e56e9be4b95b1a, 0x44e41b60b9bde572, 0x0b0acb3bd02e5e6b),
    ("per_message", "Strong", "sequence", 136, 0xe62886e6405bb571, 0x4170f5353aecef2c, 0x6572cfb551b3f4bf),
    ("per_message", "Strong", "negation", 135, 0x13bffe2004d4199d, 0x38ef5e1a460c180a, 0x5eab3860154cbaf4),
    ("per_message", "Middle", "stateless", 68, 0xaeb08e37a4a083ae, 0x2116d6b278fa9709, 0x0d21af5feffe1c74),
    ("per_message", "Middle", "aggregate", 68, 0x807b8b964f502969, 0x20ef94220a3b97c4, 0x8cf320a4cdce6cfe),
    ("per_message", "Middle", "join", 136, 0x85ff3187f8d5e43e, 0x6dd0b883c7fb5bb9, 0xc5fe68064c21c3bc),
    ("per_message", "Middle", "sequence", 136, 0x1d9797c63e50d06b, 0x986f8776a9e87e03, 0x9dadc0b79a92e597),
    ("per_message", "Middle", "negation", 135, 0x81fb19e9396d9a93, 0x71a2e6159cf7a307, 0x61c83b9e1867b4db),
    ("per_message", "Weak", "stateless", 68, 0x22ff657b03a89ba4, 0x9a0a87e27665eb66, 0xf5aef6ecbf5b812e),
    ("per_message", "Weak", "aggregate", 68, 0xe2d22d02e929dece, 0xe88894b21c2d98d4, 0xd7660a9d2e11434c),
    ("per_message", "Weak", "join", 136, 0x36a00be73c73fe11, 0x60d9d7ead80ab0af, 0x3816483a8420cb37),
    ("per_message", "Weak", "sequence", 136, 0x9e881c1b88fcc61d, 0x932461012a5949f1, 0xe8db72defcd250e6),
    ("per_message", "Weak", "negation", 135, 0x2d5708f9f4ffb1ff, 0xf45afd180ddc2312, 0xbeaa1394e7e16a40),
];

fn image(plan: &LoweredPlan, out: &mut Vec<u8>) {
    plan.dataflow.state_snapshot(out).unwrap();
}

/// Hand one round to the plan: whole, or message by message.
fn feed(plan: &mut LoweredPlan, round: &[(usize, &MessageBatch)], per_message: bool) {
    if per_message {
        for &(port, batch) in round {
            for m in batch.as_slice() {
                plan.dataflow.push_source(port, m.clone());
            }
        }
    } else {
        plan.dataflow.run_round(round.iter().copied());
    }
}

type Row = (&'static str, &'static str, &'static str, u64, u64, u64, u64);

fn rows(variant: &'static str, cfg: &ScenarioConfig, per_message: bool) -> Vec<Row> {
    let trace = cfg.generate();
    let mut catalog = Catalog::new();
    for ty in SCENARIO_TYPES {
        catalog.register_type(ty, vec![("key", FieldType::Int), ("seq", FieldType::Int)]);
    }
    let mut seal = MessageBatch::new();
    seal.push_cti(TimePoint::INFINITY);
    let mut rows = Vec::new();
    for (level, spec) in levels(cfg.span) {
        for (family, plan) in family_plans(cfg.span) {
            let mut plan = lower(&optimize(plan), &catalog, spec).unwrap();
            let mut images = Vec::new();
            for r in 0..trace.rounds() {
                let round = trace.scripts.iter().filter_map(|script| {
                    let port = plan.source_index(script.event_type)?;
                    Some((port, script.emissions.get(r)?.as_ref()?))
                });
                let round: Vec<_> = round.collect();
                feed(&mut plan, &round, per_message);
                if r % 8 == 0 {
                    image(&plan, &mut images);
                }
            }
            let round: Vec<_> = (0..plan.source_types.len()).map(|p| (p, &seal)).collect();
            feed(&mut plan, &round, per_message);
            image(&plan, &mut images);

            let df = &plan.dataflow;
            let log = df.collector(plan.sink).delta_log();
            assert!(!log.is_empty(), "{variant}/{level}/{family}: empty tape");
            rows.push((
                variant,
                level,
                family,
                df.now(),
                fnv1a(format!("{log:?}").as_bytes()),
                fnv1a(format!("{:?}", df.total_stats()).as_bytes()),
                fnv1a(&images),
            ));
        }
    }
    rows
}

#[test]
fn run_round_equals_staging_then_quiescence_on_late_storm() {
    let late_storm = gallery(SEED)
        .into_iter()
        .find(|cfg| cfg.name == "late_storm")
        .expect("gallery scenario");
    let four_producers = ScenarioConfig {
        producers: 4,
        ..late_storm.clone()
    };
    let mut actual = rows("as_generated", &late_storm, false);
    actual.extend(rows("four_producers", &four_producers, false));
    actual.extend(rows("per_message", &late_storm, true));
    let table = actual
        .iter()
        .map(|(v, l, f, tick, log, stats, img)| {
            format!("    ({v:?}, {l:?}, {f:?}, {tick}, {log:#018x}, {stats:#018x}, {img:#018x}),")
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        actual == GOLDEN,
        "run_round diverged from the staging route's GOLDEN; actual:\n{table}"
    );
}
