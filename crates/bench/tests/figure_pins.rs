//! The measured paper figures, pinned byte for byte.
//!
//! `fig08` (with its `fig08b` companion), `fig09` and `tab03` are the
//! artifacts whose numbers come out of a running engine. Each rendered
//! string is fingerprinted (FNV-1a 64) and compared with the capture
//! taken when these figures were still measured on bare lowered
//! dataflows, before they moved onto the engine's one ingress. Every
//! number in them is a deterministic counter, so any change in what the
//! engine does to the figure workloads moves a fingerprint.
//!
//! A legitimate change to a figure updates `PINS` in the same commit and
//! says why; the failure message prints the whole table in paste-able
//! form.

use cedr_bench::figures;
use cedr_durable::fnv1a;

/// `(artifact, rendered bytes, FNV-1a 64 of the rendered string)`.
const PINS: [(&str, usize, u64); 3] = [
    ("fig08", 2778, 0xe1e32cb388823c4f),
    ("fig09", 1668, 0x16bda2cfbab7d2e0),
    ("tab03", 532, 0xfca57de0b8341f5a),
];

#[test]
fn measured_figures_match_their_pinned_fingerprints() {
    let actual: Vec<(&str, usize, u64)> = [
        ("fig08", figures::fig08()),
        ("fig09", figures::fig09()),
        ("tab03", figures::tab03()),
    ]
    .into_iter()
    .map(|(name, text)| (name, text.len(), fnv1a(text.as_bytes())))
    .collect();
    let table = actual
        .iter()
        .map(|(name, len, fp)| format!("    ({name:?}, {len}, {fp:#018x}),"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(actual, PINS, "measured figures moved; actual:\n{table}");
}
