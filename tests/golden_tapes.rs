//! Golden tapes: the per-query delta log of the five-family catalog,
//! pinned against **history** rather than against another mode of the
//! same build.
//!
//! Every other identity pin in this repo (`batch_equivalence`, `fusion`,
//! `recovery`, the matrix legs) compares two executions of one build, so
//! a change that shifts *all* of them the same way passes. This file
//! fingerprints the byte rendering of each query's
//! [`delta_log`](cedr::streams::Collector::delta_log) and compares it
//! with constants captured at the commit before the pattern operators
//! were rewritten — an operator PR that claims "bit-identical" has to
//! reproduce them.
//!
//! A legitimate tape change (a new emission order, a different repair
//! policy) must update `GOLDEN` in the same commit and say so: the
//! failure message prints the whole table in paste-able form.

use cedr::durable::fnv1a;
use cedr::workload::matrix::{drive_leg, levels};
use cedr::workload::scenario::gallery;

const SEED: u64 = 0xC1D7;

/// The gallery scenarios that between them stress order (`late_storm`),
/// key collisions (`hot_keys`) and repairs (`retraction_churn`), plus the
/// tame `baseline`.
const SCENARIOS: [&str; 4] = ["baseline", "late_storm", "retraction_churn", "hot_keys"];

/// `(scenario, level, [stateless, aggregate, join, sequence, negation])`,
/// in gallery order.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, [u64; 5]); 12] = [
    ("baseline", "Strong", [0xfa35c699f05aab4b, 0xdc487f28b84513f0, 0x535d6edb94051f80, 0x0b6047c634df35f4, 0x0b1f5a9bead4c9a8]),
    ("baseline", "Middle", [0xffcec37f7e1ec465, 0xef899be4f7b57429, 0x1f7b1fe54fb160fe, 0x06fed0ded5d07676, 0xb00b0ee616283426]),
    ("baseline", "Weak", [0xffcec37f7e1ec465, 0xef899be4f7b57429, 0x1f7b1fe54fb160fe, 0x2bf67df285b5d7b1, 0xb00b0ee616283426]),
    ("late_storm", "Strong", [0xb617380d2c4df072, 0x9f99ebf264a6d1bc, 0xd5e56e9be4b95b1a, 0xe62886e6405bb571, 0x13bffe2004d4199d]),
    ("late_storm", "Middle", [0xaeb08e37a4a083ae, 0xa5e4884a8f958b76, 0x85ff3187f8d5e43e, 0x1d9797c63e50d06b, 0x81fb19e9396d9a93]),
    ("late_storm", "Weak", [0x22ff657b03a89ba4, 0x6dcbbcfb88fc9d7c, 0x36a00be73c73fe11, 0x6ac5878e89c27ac5, 0x2d5708f9f4ffb1ff]),
    ("retraction_churn", "Strong", [0x253491c094ac09c4, 0xda220f243b8d141c, 0x83e502c198d588e6, 0xeea0956b43240dbb, 0x0f7deade66987b50]),
    ("retraction_churn", "Middle", [0x8f42a72113cd0b00, 0xcab8a777aff59719, 0xcc1167a6bcdbc7de, 0xfe033ed3f001f6bc, 0x696771727402d3d2]),
    ("retraction_churn", "Weak", [0x8f42a72113cd0b00, 0xcab8a777aff59719, 0xcc1167a6bcdbc7de, 0xb06b1774d7cd047c, 0x696771727402d3d2]),
    ("hot_keys", "Strong", [0x199594dee32f490b, 0x5be86ee726d713f7, 0xfcd33e51bf9e0bd6, 0x370b136ad149f1b5, 0xaf832f13eb9f645b]),
    ("hot_keys", "Middle", [0x3367b44c64626021, 0xd4030152be376d9e, 0x01a65a48b1f7d032, 0xd76e2656e7a9658b, 0x16736dcf9742eb10]),
    ("hot_keys", "Weak", [0x3367b44c64626021, 0xd4030152be376d9e, 0x01a65a48b1f7d032, 0xd307e00d1ffe7662, 0x16736dcf9742eb10]),
];

#[test]
fn delta_logs_match_the_tapes_captured_before_the_operator_rewrite() {
    let mut actual: Vec<(String, &'static str, [u64; 5])> = Vec::new();
    for cfg in gallery(SEED) {
        if !SCENARIOS.contains(&cfg.name.as_str()) {
            continue;
        }
        let trace = cfg.generate();
        for (level, spec) in levels(cfg.span) {
            let run = drive_leg(&trace, spec, 1);
            let mut prints = [0u64; 5];
            for (slot, (_, q)) in prints.iter_mut().zip(&run.queries) {
                let log = run.engine.collector(*q).delta_log();
                assert!(!log.is_empty(), "{}/{level}: empty tape", cfg.name);
                // FNV-1a over the debug rendering, which prints every field
                // of every delta (stamp, id, lifetime, root time, lineage,
                // payload).
                *slot = fnv1a(format!("{log:?}").as_bytes());
            }
            actual.push((cfg.name.clone(), level, prints));
        }
    }
    let table = actual
        .iter()
        .map(|(s, l, p)| {
            let prints: Vec<String> = p.iter().map(|h| format!("{h:#018x}")).collect();
            format!("    ({s:?}, {l:?}, [{}]),", prints.join(", "))
        })
        .collect::<Vec<_>>()
        .join("\n");
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN.iter())
            .all(|((s, l, p), (gs, gl, gp))| s == gs && l == gl && p == gp);
    assert!(matches, "delta logs diverged from GOLDEN; actual:\n{table}");
}
