//! Self-tests of the benchmark, on the `--quick` profile.
//!
//! Run with `cargo test --release --offline --manifest-path
//! benchmark/Cargo.toml`. A debug build passes too: slower, and with the
//! paced phase reported as unsustained, which it then is.

use cedr_benchmark::catalog::{self, FAMILIES};
use cedr_benchmark::drive::Pace;
use cedr_benchmark::json::Json;
use cedr_benchmark::metrics::{self, MetricDef};
use cedr_benchmark::run::{latency, run, RunArgs, SLICE_ROUNDS};
use cedr_benchmark::stats;
use cedr_benchmark::verify::{self, Checks, Measured};
use cedr_benchmark::workloads::{self, Phase, WORKLOADS};
use cedr_core::prelude::*;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const QUICK_SECONDS: f64 = 0.25;

/// Tests that measure take this lock: the box has two cores, one for the
/// generator and one for the engine, and a paced run sharing them with
/// another test's run is (rightly) reported as unsustained.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

/// An unoptimised engine cannot keep the paced phase's fixed rate, and the
/// benchmark says so; in a debug build that one report is expected.
fn unexpected(problems: &[String]) -> Vec<&String> {
    problems
        .iter()
        .filter(|p| !(cfg!(debug_assertions) && p.contains("not sustained")))
        .collect()
}

fn quick(workload: &str, trace: bool) -> RunArgs {
    RunArgs {
        workload: workloads::by_name(workload).expect("known workload"),
        seed: 42,
        seconds: QUICK_SECONDS,
        trace,
        setup_reps: 5,
    }
}

/// Every declared metric is present, finite and unit-tagged, and nothing
/// else is printed.
fn assert_metrics(result: &Json, defs: &[MetricDef], nonzero: bool) {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, declared);
    for (d, (_, m)) in defs.iter().zip(metrics) {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{} = {value}", d.name);
        // `VmHWM` is the process's peak: a run that shares this test
        // process with earlier, larger runs may not raise it. The
        // benchmark proper starts a process per run.
        let shared_peak = d.name == "peak_rss_mb" && value == 0.0;
        assert!(
            !nonzero || value > 0.0 || shared_peak,
            "{} = {value}",
            d.name
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_verifies() {
    let _alone = measuring();
    for w in &WORKLOADS {
        let t0 = Instant::now();
        let report = run(&quick(w.name, false)).expect("quick run");
        let elapsed = t0.elapsed();
        let problems = unexpected(&report.problems);
        assert!(problems.is_empty(), "{}: {problems:?}", w.name);
        let clean = Json::Bool(report.problems.is_empty());
        assert_eq!(report.result.get("correct"), Some(&clean));
        assert!(report.result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
        assert_metrics(&report.result, &metrics::end_to_end(), true);
        // Every median and percentile states its sample count.
        for key in [
            "setup_reps",
            "closed_reps",
            "latency_rounds",
            "latency_slices_on_schedule",
            "checkpoint_calls",
            "restores",
        ] {
            let n = report.samples.get(key).and_then(Json::as_f64);
            assert!(n.is_some(), "{}: samples lack {key}", w.name);
        }
        // The manifest makes the row reproducible.
        let manifest = report.manifest.render();
        for key in [
            "seed",
            "dials",
            "trace_fingerprint",
            "profile",
            "engine_config",
            "nproc",
        ] {
            assert!(manifest.contains(key), "{}: manifest lacks {key}", w.name);
        }
        if !cfg!(debug_assertions) {
            assert!(
                elapsed < Duration::from_secs(2),
                "{} took {elapsed:?}",
                w.name
            );
        }
    }
}

#[test]
fn traced_run_reports_every_layer_metric_and_shares_sum_to_one() {
    let _alone = measuring();
    let report = run(&quick("steady_mixed", true)).expect("quick traced run");
    assert!(
        unexpected(&report.problems).is_empty(),
        "{:?}",
        report.problems
    );
    let defs = metrics::per_layer();
    assert_eq!(defs.len(), 53);
    assert_metrics(&report.result, &defs, false);
    let value = |name: String| {
        report
            .result
            .get("metrics")
            .unwrap()
            .get(&name)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    let shares: f64 = FAMILIES
        .iter()
        .map(|f| value(format!("runtime.{f}.share")))
        .sum();
    assert!(
        (shares - 1.0).abs() <= 0.01,
        "family shares sum to {shares}"
    );
    for name in [
        "gen.loop",
        "engine.loop",
        "core.ingest.flush",
        "core.ingest.pump",
        "core.session.poll",
        "core.checkpoint",
    ] {
        assert!(
            report.spans.iter().any(|s| s.name == name),
            "no {name} span"
        );
    }
    // Children point at a span that encloses them.
    for span in report
        .spans
        .iter()
        .filter(|s| s.parent != cedr_benchmark::spans::NO_PARENT)
    {
        let parent = &report.spans[span.parent as usize];
        assert!(
            parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
            "{span:?} outside {parent:?}"
        );
    }

    // A workload without a family reports zeros for it, and its shares
    // still sum to one.
    let report = run(&quick("stateless_fanout", true)).expect("quick traced run");
    assert!(
        unexpected(&report.problems).is_empty(),
        "{:?}",
        report.problems
    );
    let value = |name: &str| {
        report
            .result
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    assert_eq!(value("runtime.join.share"), 0.0);
    assert_eq!(value("runtime.stateless.share"), 1.0);
}

#[test]
fn benchmark_json_declares_what_the_code_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let keys: Vec<&str> = bench
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let listed = |key: &str| -> Vec<(String, String, String)> {
        bench
            .get(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let declared = |defs: Vec<MetricDef>| -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.name().to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), declared(metrics::end_to_end()));
    assert_eq!(listed("per_layer"), declared(metrics::per_layer()));
    let workloads: Vec<(String, String)> = bench
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| {
            let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("why"))
        })
        .collect();
    let known: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, known);
    for m in bench.get("end_to_end").unwrap().as_array().unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
}

#[test]
fn command_line_prints_the_result_object_last_and_writes_the_span_file() {
    let _alone = measuring();
    let exe = env!("CARGO_BIN_EXE_cedr-benchmark");
    let out = Command::new(exe)
        .args([
            "--workload",
            "paced_mixed",
            "--seed",
            "7",
            "--seconds",
            "0.25",
            "--trace",
            "1",
            "--quick",
        ])
        .output()
        .expect("spawn benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    if !cfg!(debug_assertions) {
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    }
    let spans = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-paced_mixed.json");
    let doc = Json::parse(&std::fs::read_to_string(spans).expect("span file")).unwrap();
    let first = &doc.get("spans").unwrap().as_array().unwrap()[0];
    for key in ["name", "start_ns", "end_ns", "parent", "round"] {
        assert!(first.get(key).is_some(), "span lacks {key}");
    }

    // Bad arguments fail without a result line.
    let out = Command::new(exe)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn a_corrupted_delta_fails_verification() {
    let w = workloads::by_name("steady_mixed").unwrap();
    let trace = w.generate(Phase::Closed, 9, 2_000);
    let defs = w.catalog.queries();
    let (engine, queries) = verify::reference_engine(&defs, w.level.spec(), &trace);
    let reference = verify::produced(&engine, &queries);
    let faithful = Measured::of(&engine, &queries, &reference.deltas_logged);

    let mut clean = Checks::default();
    clean.compare("same", &faithful, &reference);
    assert!(clean.mismatches.is_empty() && clean.checks > 0);

    // Shorten one retraction by a tick (or, failing one, drop a delta).
    let mut log = engine.collector(queries[1]).delta_log().to_vec();
    assert_eq!(verify::fingerprint(&log), reference.fingerprints[1]);
    match log
        .iter_mut()
        .find(|d| matches!(d, OutputDelta::Retract { .. }))
    {
        Some(OutputDelta::Retract { new_end, .. }) => *new_end = TimePoint::new(new_end.0 + 1),
        _ => drop(log.pop()),
    }
    let mut corrupted = faithful.clone();
    corrupted.produced.fingerprints[1] = verify::fingerprint(&log);
    let mut checks = Checks::default();
    checks.compare("corrupted", &corrupted, &reference);
    assert_eq!(checks.mismatches.len(), 1, "{:?}", checks.mismatches);
    assert!(checks.mismatches[0].contains("aggregate"));

    // A consumer that missed a delta is a failure too.
    let mut lagging = faithful.clone();
    lagging.polled[0] -= 1;
    let mut checks = Checks::default();
    checks.compare("lagging", &lagging, &reference);
    assert_eq!(checks.mismatches.len(), 1);
}

#[test]
fn net_content_comparison_ignores_row_fragmentation_only() {
    let row = |s: u64, e: u64, k: i64| {
        UniTemporalRow::new(
            EventId(1),
            Interval::new(TimePoint::new(s), TimePoint::new(e)),
            Payload::from_values(vec![Value::Int(k)]),
        )
    };
    let whole: UniTemporalTable = [row(3, 9, 1)].into_iter().collect();
    let split: UniTemporalTable = [row(3, 5, 1), row(5, 9, 1)].into_iter().collect();
    let shorter: UniTemporalTable = [row(3, 8, 1)].into_iter().collect();
    let other_key: UniTemporalTable = [row(3, 9, 2)].into_iter().collect();
    assert_eq!(verify::snapshots(&whole), verify::snapshots(&split));
    assert_ne!(verify::snapshots(&whole), verify::snapshots(&shorter));
    assert_ne!(verify::snapshots(&whole), verify::snapshots(&other_key));
}

#[test]
fn five_family_catalog_is_the_matrix_catalog() {
    let spec = ConsistencySpec::middle();
    let mut ours = Engine::with_config(cedr_benchmark::drive::engine_config());
    catalog::register_types(&mut ours);
    let our_queries = catalog::register(&mut ours, &catalog::five_families(180), spec);
    let mut theirs = Engine::with_config(cedr_benchmark::drive::engine_config());
    let their_queries = cedr_workload::matrix::register_families(&mut theirs, spec, 180);
    assert_eq!(our_queries.len(), their_queries.len());
    for (q, (family, tq)) in our_queries.iter().zip(&their_queries) {
        assert_eq!(ours.query_name(*q), *family);
        assert_eq!(ours.explain(*q), theirs.explain(*tq), "{family}");
    }
}

#[test]
fn aligned_rounds_keep_every_message_in_order_and_every_lane_in_step() {
    for name in ["steady_mixed", "disorder_strong", "stateless_fanout"] {
        let w = workloads::by_name(name).unwrap();
        let config = w.scenario(Phase::Paced, 5, 6_000);
        let raw = config.generate();
        let aligned = w.generate(Phase::Paced, 5, 6_000);
        assert_eq!(
            aligned,
            w.generate(Phase::Paced, 5, 6_000),
            "same seed, same trace"
        );
        assert_ne!(
            aligned.fingerprint(),
            w.generate(Phase::Paced, 6, 6_000).fingerprint()
        );
        let mut lengths = Vec::new();
        for (before, after) in raw.scripts.iter().zip(&aligned.scripts) {
            assert!(after
                .emissions
                .iter()
                .all(|e| e.as_ref().is_some_and(|b| !b.is_empty())));
            // Dropping heartbeats (a CTI repeating the previous guarantee)
            // gives back the original delivery sequence.
            let mut guarantee = TimePoint::ZERO;
            let mut kept = Vec::new();
            for batch in after.emissions.iter().flatten() {
                for msg in batch.iter() {
                    let heartbeat = batch.len() == 1 && *msg == Message::Cti(guarantee);
                    if let Message::Cti(t) = msg {
                        guarantee = *t;
                    }
                    if !heartbeat {
                        kept.push(msg.clone());
                    }
                }
            }
            assert_eq!(kept, before.delivered(), "{name}");
            lengths.push(after.emissions.len());
        }
        let (min, max) = (lengths.iter().min().unwrap(), lengths.iter().max().unwrap());
        assert!(max - min <= 2, "{name}: lanes end at rounds {lengths:?}");
    }
}

#[test]
fn percentile_helper_interpolates_and_matches_python_quartiles() {
    let v = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_eq!(stats::percentile(&v, 0.5), 3.0);
    assert!((stats::percentile(&v, 0.95) - 4.8).abs() < 1e-12);
    assert_eq!(stats::percentile(&[7.0], 0.99), 7.0);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&ten), [2.75, 5.5, 8.25]);
}

#[test]
fn gated_latency_is_the_median_slice_of_the_slices_that_ran_on_schedule() {
    let n = SLICE_ROUNDS;
    // Three slices: quiet; frozen, the generator 5 ms late in it; slower.
    let mut ms = vec![1.0; n];
    ms.extend(vec![50.0; n]);
    ms.extend(vec![3.0; n]);
    let mut late = vec![0u64; 3 * n];
    late[n + 7] = 5_000_000;
    let lat = latency(&ms, &late);
    assert_eq!(
        (lat.slices, lat.slices_kept, lat.rounds_kept),
        (3, 2, 2 * n)
    );
    assert_eq!((lat.p50_ms, lat.p95_ms), (2.0, 2.0));
    // Nothing on schedule: what was measured is still reported.
    let lat = latency(&ms, &vec![2_000_000; 3 * n]);
    assert_eq!((lat.slices_kept, lat.rounds_kept), (0, 3 * n));
    assert_eq!((lat.p50_ms, lat.p95_ms), (3.0, 3.0));
    // A stall the engine adds to one round in sixteen of most windows is
    // not selected away: it moves the gated p95 (and leaves the median).
    let stalled: Vec<f64> = (0..10 * n)
        .map(|i| if i % 16 == 0 && i < 7 * n { 20.0 } else { 1.0 })
        .collect();
    let lat = latency(&stalled, &vec![0; 10 * n]);
    assert_eq!((lat.p50_ms, lat.p95_ms), (1.0, 20.0));
}

#[test]
fn open_loop_scheduler_keeps_a_fixed_grid_and_reports_lateness() {
    let pace = Pace::for_rate(60_000.0, 48.0);
    assert_eq!(pace.period, Duration::from_micros(800));
    let start = Instant::now();
    assert_eq!(pace.due(start, 1_250), start + Duration::from_secs(1));
    let due = Instant::now() + Duration::from_millis(3);
    let late = Pace::wait_until(due);
    assert!(Instant::now() >= due, "never early");
    assert!(late < Duration::from_millis(50), "woke {late:?} late");
    // The schedule does not slip: a late round leaves the next due time
    // where it was, and the lateness is reported, not absorbed.
    let past = Instant::now() - Duration::from_millis(5);
    assert!(Pace::wait_until(past) >= Duration::from_millis(5));
}
