//! `scenario_matrix` — regenerate (or verify) `docs/CONSISTENCY.md`.
//!
//! Runs the full adversarial scenario gallery through the consistency
//! matrix harness (`cedr_workload::matrix`) and renders the measured
//! spectrum as markdown. The committed report contains **only
//! deterministic fields** (application-time ticks, message counts,
//! F1 scores — never wall-clock), so regeneration is byte-identical on
//! any machine and CI can gate drift with a plain diff:
//!
//! ```text
//! cargo run --release -p cedr-bench --bin scenario_matrix            # rewrite
//! cargo run --release -p cedr-bench --bin scenario_matrix -- --check # verify (CI)
//! ```
//!
//! Wall-clock ingest→delta latency summaries and pump-stall
//! observations are printed to stdout only.

use cedr_workload::matrix::{run_matrix, LevelRun, MatrixReport};
use cedr_workload::report::Table;
use cedr_workload::scenario::gallery;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The committed seed: the whole report is a pure function of it.
const SEED: u64 = 0xC1D7;

fn default_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/CONSISTENCY.md")
}

fn fmt_cti(cti: Option<u64>) -> String {
    match cti {
        None => "-".to_string(),
        Some(u64::MAX) => "inf".to_string(),
        Some(t) => t.to_string(),
    }
}

fn level_table(run: &LevelRun) -> Vec<Vec<String>> {
    run.cells
        .iter()
        .map(|c| {
            vec![
                run.level.to_string(),
                c.family.to_string(),
                c.blocked_ticks.to_string(),
                c.blocked_messages.to_string(),
                c.state_peak.to_string(),
                c.held_peak.to_string(),
                c.retractions.to_string(),
                c.full_removals.to_string(),
                c.forgotten.to_string(),
                c.deltas.to_string(),
                fmt_cti(c.output_cti),
                format!("{:.3}", c.accuracy_vs_strong),
            ]
        })
        .collect()
}

/// Render the deterministic markdown report.
fn render(report: &MatrixReport) -> String {
    let mut out = String::new();
    let w = |out: &mut String, s: &str| {
        out.push_str(s);
        out.push('\n');
    };
    w(&mut out, "# The consistency spectrum, measured");
    w(&mut out, "");
    w(
        &mut out,
        "<!-- GENERATED FILE - do not edit by hand.\n     \
         Regenerate: cargo run --release -p cedr-bench --bin scenario_matrix\n     \
         Verify:     cargo run --release -p cedr-bench --bin scenario_matrix -- --check -->",
    );
    w(&mut out, "");
    let _ = writeln!(
        out,
        "The paper's central claim is a *spectrum* of consistency guarantees: \
         **Strong** blocks output until input-time guarantees (CTIs) arrive and \
         should never revise what it emitted - every family keeps that except \
         the group aggregate, whose Strong rows below still show repairs: its \
         refresh retracts whole emitted segments below the output CTI it \
         already promised (the output-CTI break, ROADMAP item 2); **Middle** \
         emits speculatively and repairs through retractions; **Weak** bounds \
         operator memory with a forgetting horizon and pays for it in \
         accuracy. This report measures \
         that trade-off instead of asserting it: seed `{:#x}` drives \
         {} adversarial scenarios x {{Strong, Middle, Weak}} x 5 operator \
         families through the engine's concurrent ingestion surface \
         (`ChannelSource` + pump + `Subscription`).",
        report.seed,
        report.scenarios.len()
    );
    w(&mut out, "");
    let _ = writeln!(
        out,
        "Before any cell is measured, it is **pinned**: each scenario x level \
         runs on two engine legs - 1 worker (canonical) and 4 workers - and \
         the stamped output tape, subscription deltas and output CTI must be \
         bit-identical across both legs. \
         {} per-query identity checks passed while generating this report. \
         Every number below is deterministic (application-time ticks, message \
         counts, F1 scores - never wall-clock), so CI regenerates this file \
         and fails on any byte of drift.",
        report.identity_checks
    );
    w(&mut out, "");
    w(&mut out, "## Reading the columns");
    w(&mut out, "");
    for line in [
        "- **blocked ticks / msgs** - alignment blocking: application-time ticks \
         (and messages held) spent waiting for an input guarantee before emitting. \
         The price of Strong.",
        "- **repairs / removals** - output retractions (lifetime revisions / full \
         removals) at the sink: the churn Middle pays instead of blocking.",
        "- **forgotten** - state evicted by Weak's memory horizon before it could \
         be matched; the source of Weak's accuracy loss.",
        "- **state / held peak** - peak operator state and peak alignment-buffer \
         residency across the plan.",
        "- **deltas** - consumer-visible delta-log volume (what a `Subscription` \
         drains).",
        "- **out CTI** - the output guarantee's high-water mark (`inf` = sealed).",
        "- **F1 vs Strong** - net-content accuracy against the Strong cell of the \
         same scenario and family. Middle must score 1.000 (eventual agreement); \
         Weak scores what its horizon left it.",
    ] {
        w(&mut out, line);
    }
    w(&mut out, "");
    w(&mut out, "## Scenarios");
    for scenario in &report.scenarios {
        w(&mut out, "");
        let _ = writeln!(out, "### `{}`", scenario.name);
        w(&mut out, "");
        let _ = writeln!(out, "> `{}`", scenario.characterization);
        w(&mut out, "");
        let mut t = Table::new(
            "",
            &[
                "level",
                "family",
                "blocked ticks",
                "blocked msgs",
                "state peak",
                "held peak",
                "repairs",
                "removals",
                "forgotten",
                "deltas",
                "out CTI",
                "F1 vs Strong",
            ],
        );
        for run in &scenario.levels {
            for row in level_table(run) {
                t.row(row);
            }
        }
        out.push_str(&t.to_markdown());
        // Deterministic stall observations (pump-vs-schedule, not wall
        // time): present only when a producer actually fell behind.
        let stalls: Vec<String> = scenario
            .levels
            .iter()
            .filter(|r| r.stall_rounds_peak > 0)
            .map(|r| {
                format!(
                    "{}: peak {} stalled pump checks, waiting on producer key(s) {:?}",
                    r.level, r.stall_rounds_peak, r.waited_on
                )
            })
            .collect();
        if !stalls.is_empty() {
            w(&mut out, "");
            let _ = writeln!(
                out,
                "Pump stalls while a producer was silent - {}.",
                stalls.join("; ")
            );
        }
    }
    w(&mut out, "");
    w(&mut out, "## Spectrum summary");
    w(&mut out, "");
    w(
        &mut out,
        "Aggregated over every scenario and operator family:",
    );
    w(&mut out, "");
    let mut t = Table::new(
        "",
        &[
            "level",
            "blocked ticks",
            "blocked msgs",
            "repairs",
            "removals",
            "forgotten",
            "state peak (sum)",
            "deltas",
            "mean F1 vs Strong",
        ],
    );
    for (level, agg) in report.level_aggregates() {
        t.row(vec![
            level.to_string(),
            agg.blocked_ticks.to_string(),
            agg.blocked_messages.to_string(),
            agg.retractions.to_string(),
            agg.full_removals.to_string(),
            agg.forgotten.to_string(),
            agg.state_peak_sum.to_string(),
            agg.deltas.to_string(),
            format!("{:.3}", agg.f1_sum / agg.cells.max(1) as f64),
        ]);
    }
    out.push_str(&t.to_markdown());
    w(&mut out, "");
    w(
        &mut out,
        "The shape is the paper's: Strong pays its whole cost in blocking and \
         none in repairs; Middle never blocks, converging to the same net \
         content through retraction churn; Weak caps state by forgetting and \
         surrenders accuracy for it. Latency (wall-clock ingest-to-delta \
         histograms) is intentionally not in this file - run the generator to \
         see it on stdout, or the `benchmark/` package for the measured \
         Strong-vs-Middle cost (`runtime.shell.strong_over_middle`).",
    );
    out
}

/// Nondeterministic observations - stdout only.
fn print_wallclock(report: &MatrixReport) {
    let mut t = Table::new(
        "wall-clock ingest->delta latency (stdout only, never committed)",
        &["scenario", "level", "deltas", "mean us", "max us"],
    );
    for scenario in &report.scenarios {
        for run in &scenario.levels {
            let (count, mean_us, max_us) = run.wall_ingest_to_delta;
            t.row(vec![
                scenario.name.clone(),
                run.level.to_string(),
                count.to_string(),
                format!("{mean_us:.1}"),
                format!("{max_us:.1}"),
            ]);
        }
    }
    println!("{}", t.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_path);

    let report = run_matrix(SEED, &gallery(SEED));
    let rendered = render(&report);
    print_wallclock(&report);

    if check {
        let committed = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if committed == rendered {
            println!(
                "OK: {} is byte-identical to the regenerated report",
                path.display()
            );
            ExitCode::SUCCESS
        } else {
            let diverged = committed
                .lines()
                .zip(rendered.lines())
                .position(|(a, b)| a != b)
                .map_or_else(
                    || committed.lines().count().min(rendered.lines().count()) + 1,
                    |i| i + 1,
                );
            eprintln!(
                "FAIL: {} drifted from the regenerated report (first difference \
                 at line {diverged}). Rerun without --check and commit the result.",
                path.display()
            );
            ExitCode::FAILURE
        }
    } else {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create docs dir");
        }
        std::fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {} ({} bytes)", path.display(), rendered.len());
        ExitCode::SUCCESS
    }
}
