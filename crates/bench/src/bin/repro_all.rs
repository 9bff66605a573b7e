//! Regenerates the paper's figures and tables (see `cedr_bench::figures`).
//!
//! With no arguments every artifact is printed; positional names select a
//! subset (printed in paper order): `repro_all fig07 tab02`.
use cedr_bench::figures;
use std::process::ExitCode;

/// (selector, title, renderer).
type Artifact = (&'static str, &'static str, fn() -> String);

/// Every artifact, in paper order.
const ARTIFACTS: [Artifact; 12] = [
    ("fig01", "Figure 1", figures::fig01),
    ("fig02", "Figure 2", figures::fig02),
    ("fig03_05", "Figures 3-5", figures::fig03_05),
    ("fig06", "Figure 6", figures::fig06),
    ("fig07", "Figure 7", figures::fig07),
    ("fig08", "Figure 8", figures::fig08),
    ("fig09", "Figure 9", figures::fig09),
    ("fig10", "Figure 10", figures::fig10),
    ("tab01", "Table: sequencing ops", figures::tab01),
    ("tab02", "Table: negation ops", figures::tab02),
    ("tab03", "CIDR07_Example pipeline", figures::tab03),
    ("tab04", "Defs 7-12 / view update", figures::tab04),
];

fn main() -> ExitCode {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(name) = wanted
        .iter()
        .find(|name| !ARTIFACTS.iter().any(|(key, ..)| key == *name))
    {
        let known: Vec<&str> = ARTIFACTS.iter().map(|(key, ..)| *key).collect();
        eprintln!("unknown artifact `{name}`; known: {}", known.join(" "));
        return ExitCode::FAILURE;
    }
    for (key, title, render) in ARTIFACTS {
        if wanted.is_empty() || wanted.iter().any(|name| name == key) {
            println!("{}", "=".repeat(72));
            println!("{title}");
            println!("{}", "=".repeat(72));
            println!("{}", render());
        }
    }
    ExitCode::SUCCESS
}
