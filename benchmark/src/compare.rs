//! `compare <a> <b>`: judge two result sets (files written by `all`) row
//! by row — one row per (end-to-end metric, workload) — using only the
//! bounds fixed in `BENCHMARK.json`. Failures come first: a workload on
//! which the change fails more operations than the base, or has a run that
//! is not `correct`, regresses on every row whatever its timings say.

use crate::json::Json;
use crate::stats;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread wider than the bound: the data cannot say.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A gated metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn gates(benchmark: &Json) -> Result<Vec<Gate>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks '{k}'"));
            Ok(Gate {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .to_string(),
                higher_is_better: match field("better")?.as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("better must be higher or lower, got {other:?}")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Judge `change` against `base` for one row.
///
/// The row is *unresolved* when either side's interquartile range, as a
/// share of its median, exceeds the bound — never "unchanged". Otherwise
/// the change's median is compared with the base's: worse by more than
/// the bound regresses, better by more than the bound improves.
pub fn judge(gate: &Gate, base: &[f64], change: &[f64]) -> (Verdict, f64) {
    let (mb, mc) = (stats::median(base), stats::median(change));
    let delta = if mb == 0.0 { 0.0 } else { (mc - mb) / mb };
    let gain = if gate.higher_is_better { delta } else { -delta };
    let verdict = if stats::spread(base).max(stats::spread(change)) > gate.bound {
        Verdict::Unresolved
    } else if gain < -gate.bound {
        Verdict::Regressed
    } else if gain > gate.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, delta)
}

/// The runs of `workload` in a result set.
fn runs_of<'a>(set: &'a Json, workload: &str) -> Option<&'a [Json]> {
    set.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("runs")?
        .as_array()
}

/// The values of `metric` across `runs`.
fn values_of(runs: &[Json], metric: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect();
    (!values.is_empty()).then_some(values)
}

/// Failure accounting over the runs of one workload on one side.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Failures {
    pub failed: f64,
    pub attempted: f64,
    /// Runs whose `correct` is anything but `true`.
    pub incorrect_runs: usize,
}

impl Failures {
    pub fn of(runs: &[Json]) -> Failures {
        let sum = |key: &str| -> f64 {
            runs.iter()
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        };
        Failures {
            failed: sum("failed"),
            attempted: sum("attempted"),
            incorrect_runs: runs
                .iter()
                .filter(|r| r.get("correct").and_then(Json::as_bool) != Some(true))
                .count(),
        }
    }

    pub fn frac(&self) -> f64 {
        if self.attempted == 0.0 {
            0.0
        } else {
            self.failed / self.attempted
        }
    }
}

/// Any increase regresses: the change fails a larger share of what it
/// attempted than the base, or has a run that is not `correct`.
pub fn fails_more(base: &Failures, change: &Failures) -> bool {
    change.incorrect_runs > 0 || change.frac() > base.frac()
}

/// `v` to five significant digits: the table holds 250 000 events/s and
/// 0.000012 s of set-up side by side.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

pub struct Comparison {
    pub table: String,
    pub regressed: usize,
    pub unresolved: usize,
    pub rows: usize,
}

pub fn compare(benchmark: &Json, base: &Json, change: &Json) -> Result<Comparison, String> {
    let gates = gates(benchmark)?;
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let mut out = Comparison {
        table: String::new(),
        regressed: 0,
        unresolved: 0,
        rows: 0,
    };
    let _ =
        writeln!(
        out.table,
        "{:<18} {:<22} {:>6} | {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8} {:>5}  verdict",
        "workload", "metric", "unit", "base q1", "base median", "base q3", "change q1",
        "change med", "change q3", "delta", "bound"
    );
    for workload in workloads {
        let (Some(base_runs), Some(change_runs)) =
            (runs_of(base, workload), runs_of(change, workload))
        else {
            return Err(format!("{workload}: missing from one of the result sets"));
        };
        let (fa, fb) = (Failures::of(base_runs), Failures::of(change_runs));
        let failing = fails_more(&fa, &fb);
        let _ = writeln!(
            out.table,
            "{:<18} failed/attempted: base {}/{} change {}/{}, {} change run(s) not correct{}",
            workload,
            fa.failed,
            fa.attempted,
            fb.failed,
            fb.attempted,
            fb.incorrect_runs,
            if failing {
                "  => every row regressed"
            } else {
                ""
            }
        );
        for gate in &gates {
            let (Some(a), Some(b)) = (
                values_of(base_runs, &gate.name),
                values_of(change_runs, &gate.name),
            ) else {
                return Err(format!(
                    "{workload}/{}: missing from one of the result sets",
                    gate.name
                ));
            };
            let (verdict, delta) = judge(gate, &a, &b);
            let verdict = if failing { Verdict::Regressed } else { verdict };
            let (qa, qb) = (stats::quartiles(&a), stats::quartiles(&b));
            let _ = writeln!(
                out.table,
                "{:<18} {:<22} {:>6} | {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>+7.2}% {:>4.0}%  {} (n={}/{}, base {})",
                workload, gate.name, gate.unit, sig(qa[0]), sig(qa[1]), sig(qa[2]), sig(qb[0]),
                sig(qb[1]), sig(qb[2]), delta * 100.0, gate.bound * 100.0, verdict.name(), a.len(),
                b.len(), sig(qa[1])
            );
            out.rows += 1;
            match verdict {
                Verdict::Regressed => out.regressed += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Improved | Verdict::Unchanged => {}
            }
        }
    }
    let _ = writeln!(
        out.table,
        "{} rows: {} regressed, {} unresolved",
        out.rows, out.regressed, out.unresolved
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool) -> Gate {
        Gate {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let down: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let near: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&gate(true), &base, &up).0, Verdict::Improved);
        assert_eq!(judge(&gate(true), &base, &down).0, Verdict::Regressed);
        assert_eq!(judge(&gate(false), &base, &up).0, Verdict::Regressed);
        assert_eq!(judge(&gate(false), &base, &down).0, Verdict::Improved);
        assert_eq!(judge(&gate(true), &base, &near).0, Verdict::Unchanged);
        // A noisy side makes the row unresolved even when medians agree.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&gate(true), &base, &noisy).0, Verdict::Unresolved);
        assert_eq!(judge(&gate(true), &noisy, &base).0, Verdict::Unresolved);
    }

    fn result_set(failed: u32, correct: bool) -> Json {
        let text = format!(
            r#"{{"workloads":[{{"name":"w","runs":[
                {{"correct":true,"attempted":100,"failed":0,"metrics":{{"m":{{"value":10.0,"unit":"u"}}}}}},
                {{"correct":{correct},"attempted":100,"failed":{failed},"metrics":{{"m":{{"value":10.1,"unit":"u"}}}}}}
            ]}}]}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn a_change_that_fails_more_regresses_whatever_its_timings() {
        let bench = Json::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"m","unit":"u","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let clean = result_set(0, true);
        let same = compare(&bench, &clean, &clean).unwrap();
        assert_eq!((same.rows, same.regressed, same.unresolved), (1, 0, 0));
        // One more failed operation than the base: regressed.
        let failing = compare(&bench, &clean, &result_set(1, false)).unwrap();
        assert_eq!(failing.regressed, 1, "{}", failing.table);
        // A run marked incorrect regresses even with no failure counted.
        let incorrect = compare(&bench, &clean, &result_set(0, false)).unwrap();
        assert_eq!(incorrect.regressed, 1);
        // Failing as much as the base did is not an increase.
        let both = compare(&bench, &result_set(1, true), &result_set(1, true)).unwrap();
        assert_eq!(both.regressed, 0);
        // Failing less is fine.
        let fewer = compare(&bench, &result_set(2, true), &result_set(1, true)).unwrap();
        assert_eq!(fewer.regressed, 0);
    }
}
