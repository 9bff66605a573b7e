//! Command line: the contract's single-run form plus `all`, `trace`,
//! `compare` and `list`.

use crate::compare;
use crate::json::Json;
use crate::metrics;
use crate::run::{self, RunArgs, SETUP_REPS};
use crate::spans;
use crate::stats;
use crate::workloads::{self, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

pub const USAGE: &str = "\
cedr-benchmark — absolute end-to-end and per-layer numbers for the CEDR engine

  --workload <w> --seed <n> --seconds <s> --trace <0|1> [--quick]
        one run of one workload; the last stdout line is the result object
        (--trace 0: end-to-end metrics; --trace 1: per-layer metrics)
  all   [--seed <n>] [--reps <n>] [--seconds <s>] [--out <file>]
        [--append <file>] [--quick]
        every workload, each repetition a fresh process on the same seed;
        prints one result set (medians, quartiles, every run, manifests)
        as JSON; --append adds the runs to the set already in <file>
  trace --workload <w> [--seed <n>] [--seconds <s>] [--quick]
        the traced run: per-layer metrics, spans written to
        benchmark/out/trace-<w>.json
  compare <base.json> <change.json>
        judge two result sets by the bounds in BENCHMARK.json
  list  workload names and why each exists
";

/// `--quick`: a run sized for the self-tests (every workload well under
/// two seconds), not for numbers anyone should quote.
const QUICK_SECONDS: f64 = 0.25;
const QUICK_SETUP_REPS: usize = 5;

struct Flags {
    values: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => flags.quick = true,
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.values.push((name.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read '{v}'"))
            })
            .transpose()
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .values
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

/// The benchmark package's own directory: where `out/` lives and next to
/// which `BENCHMARK.json` sits. `cargo run` exports it at run time; the
/// compile-time value covers a binary started by hand.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The repo's `BENCHMARK.json`: in the current directory (the driver runs
/// from the root of a checkout), else beside the package.
fn benchmark_json() -> Result<Json, String> {
    read_json(Path::new("BENCHMARK.json"))
        .or_else(|_| read_json(&package_dir().join("../BENCHMARK.json")))
}

fn run_args(flags: &Flags, trace: bool) -> Result<RunArgs, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", names.join(", "))
    })?;
    let seconds = match (flags.number::<f64>("seconds")?, flags.quick) {
        (Some(s), _) => s,
        (None, true) => QUICK_SECONDS,
        (None, false) => benchmark_json()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };
    let seed = flags.number::<u64>("seed")?.unwrap_or(DEFAULT_SEED);
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        setup_reps: if flags.quick {
            QUICK_SETUP_REPS
        } else {
            SETUP_REPS
        },
    })
}

/// One run; prints the manifest line, then the result line (last).
fn cmd_run(flags: &Flags, trace: bool) -> Result<i32, String> {
    let args = run_args(flags, trace)?;
    let report = run::run(&args)?;
    for problem in &report.problems {
        eprintln!("FAILED {problem}");
    }
    eprintln!("{}:{}", args.workload.name, report.timing);
    if args.trace {
        let dir = package_dir().join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", args.workload.name));
        let doc = Json::obj([
            ("manifest", report.manifest.clone()),
            ("spans", spans::to_json(&report.spans)),
        ]);
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", report.spans.len(), path.display());
    }
    let line = Json::obj([("manifest", report.manifest), ("samples", report.samples)]);
    println!("{}", line.render());
    println!("{}", report.result.render());
    Ok(0)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every workload, `reps` fresh processes each (so `peak_rss_mb` is clean),
/// all on the one seed: the spread of a set is then run-to-run noise, and
/// seeds are paired only across the two sets `compare` judges.
fn cmd_all(flags: &Flags) -> Result<i32, String> {
    flags.only(&["seed", "reps", "seconds", "out", "append"])?;
    // `--append <file>`: start from the runs already in the file and write
    // the merged set back — how alternating parent/change pairs accumulate.
    let prior = match flags.get("append").map(Path::new) {
        Some(path) if path.exists() => Some(read_json(path)?),
        _ => None,
    };
    let prior_runs = |workload: &str| -> Vec<Json> {
        prior
            .as_ref()
            .and_then(|p| p.get("workloads")?.as_array())
            .and_then(|ws| {
                ws.iter()
                    .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
            })
            .and_then(|w| w.get("runs")?.as_array())
            .map_or_else(Vec::new, <[Json]>::to_vec)
    };
    let reps: u64 = flags.number("reps")?.unwrap_or(5).max(1);
    let seed = flags.number::<u64>("seed")?.unwrap_or(DEFAULT_SEED);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let gated = metrics::end_to_end();
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for w in &WORKLOADS {
        let mut runs = prior_runs(w.name);
        let mut manifest = Json::Null;
        for rep in 0..reps {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &seed.to_string()]);
            if let Some(s) = flags.get("seconds") {
                cmd.args(["--seconds", s]);
            }
            if flags.quick {
                cmd.arg("--quick");
            }
            eprintln!("{} rep {}/{reps} (seed {seed})", w.name, rep + 1);
            let output = cmd
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            if !output.status.success() {
                return Err(format!(
                    "{} rep {rep}: exited with {}",
                    w.name, output.status
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let result = Json::parse(lines.next().ok_or("run printed nothing")?)?;
            let mut samples = Json::Null;
            if let Some(m) = lines.next().and_then(|l| Json::parse(l).ok()) {
                manifest = m.get("manifest").cloned().unwrap_or(Json::Null);
                samples = m.get("samples").cloned().unwrap_or(Json::Null);
            }
            let mut fields = vec![("seed".to_string(), Json::str(seed.to_string()))];
            fields.extend(
                result
                    .as_object()
                    .ok_or("result is not an object")?
                    .iter()
                    .cloned(),
            );
            fields.push(("samples".to_string(), samples));
            runs.push(Json::Obj(fields));
        }
        all_correct &= runs
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        let summary = gated
            .iter()
            .map(|d| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.get("metrics")?.get(&d.name)?.get("value")?.as_f64())
                    .collect();
                let [q1, median, q3] = stats::quartiles(&values);
                (
                    d.name.clone(),
                    Json::obj([
                        ("median", Json::Num(median)),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        ("unit", Json::str(d.unit)),
                        ("n", Json::Num(values.len() as f64)),
                    ]),
                )
            })
            .collect();
        workloads_json.push(Json::obj([
            ("name", Json::str(w.name)),
            ("why", Json::str(w.why)),
            ("manifest", manifest),
            ("summary", Json::Obj(summary)),
            ("runs", Json::Arr(runs)),
        ]));
    }
    let doc = Json::obj([
        (
            "manifest",
            Json::obj([
                ("seed", Json::str(seed.to_string())),
                ("held_out_seed", Json::str(HELD_OUT_SEED.to_string())),
                ("reps_this_invocation", Json::Num(reps as f64)),
                ("git_commit", Json::str(git_commit())),
                ("nproc", Json::Num(stats::nproc() as f64)),
                ("quick", Json::Bool(flags.quick)),
            ]),
        ),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Arr(workloads_json)),
    ]);
    let text = doc.render_pretty();
    for path in [flags.get("out"), flags.get("append")]
        .into_iter()
        .flatten()
    {
        std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
    }
    print!("{text}");
    Ok(if all_correct { 0 } else { 1 })
}

fn cmd_compare(flags: &Flags) -> Result<i32, String> {
    flags.only(&[])?;
    let [base, change] = flags.positional.as_slice() else {
        return Err("compare needs two result files".to_string());
    };
    let cmp = compare::compare(
        &benchmark_json()?,
        &read_json(Path::new(base))?,
        &read_json(Path::new(change))?,
    )?;
    print!("{}", cmp.table);
    Ok(if cmp.regressed + cmp.unresolved > 0 {
        1
    } else {
        0
    })
}

/// Dispatch; returns the process exit code.
pub fn main(args: &[String]) -> Result<i32, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("all" | "trace" | "compare" | "list")) => (c, &args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            return Ok(0);
        }
        // The contract's form: flags only, no subcommand.
        Some(_) => ("run", args),
    };
    let flags = Flags::parse(rest)?;
    match command {
        "trace" => {
            flags.only(&["workload", "seed", "seconds"])?;
            cmd_run(&flags, true)
        }
        "all" => cmd_all(&flags),
        "compare" => cmd_compare(&flags),
        "list" => {
            for w in &WORKLOADS {
                println!("{:<18} {}", w.name, w.why);
            }
            Ok(0)
        }
        _ => {
            flags.only(&["workload", "seed", "seconds", "trace"])?;
            let trace = match flags.get("trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
            };
            cmd_run(&flags, trace)
        }
    }
}
