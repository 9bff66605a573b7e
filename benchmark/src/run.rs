//! One benchmark run of one workload: generate the traces, measure the
//! three phases, verify the outputs, and report either the end-to-end
//! metrics (untraced) or the per-layer metrics (traced).

use crate::catalog::{self, QueryDef, FAMILIES};
use crate::drive::{self, build_engine, drive, setup, CheckpointTaken, DriveOpts, Outcome, Pace};
use crate::json::Json;
use crate::layers::{self, ratio, FamilyReplay, Lowering};
use crate::metrics::{self, Values};
use crate::spans::{self, Span};
use crate::stats;
use crate::verify::{self, Checks, Measured, Produced};
use crate::workloads::{Level, Phase, Workload};
use cedr_core::prelude::*;
use cedr_workload::scenario::{ScenarioProfile, ScenarioTrace};
use std::ops::Range;
use std::time::{Duration, Instant};

/// `--seconds` the workload sizes in [`crate::workloads`] are stated for.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// Share of `--seconds` spent repeating the closed-loop phase, and the
/// share the paced phase lasts: the same on every workload, because every
/// workload reports every metric. The durable phase, sized in messages,
/// takes most of the rest.
pub const CLOSED_SHARE: f64 = 0.4;
pub const PACED_SHARE: f64 = 0.4;

/// Fresh-engine set-ups timed for `setup_s` (odd, so the median is one of
/// the samples). A set-up takes tens of microseconds, so a thousand cost
/// nothing and the median repeats.
pub const SETUP_REPS: usize = 1001;

/// Checkpoints taken, evenly spaced, in the durable phase.
pub const CHECKPOINTS: u64 = 8;

/// Times the last image is restored into a fresh engine.
pub const RESTORES: usize = 7;

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_reps: usize,
}

pub struct Report {
    /// Everything needed to reproduce the row: seed, dials, trace
    /// fingerprints and measured profiles, engine configuration.
    pub manifest: Json,
    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub result: Json,
    /// How many samples stand behind each reported median or percentile.
    pub samples: Json,
    /// Verification mismatches and run errors, for stderr.
    pub problems: Vec<String>,
    /// Where the run's wall time went, for stderr.
    pub timing: String,
    pub spans: Vec<Span>,
}

/// Failure accounting across phases: operations attempted (emissions and
/// verification checks) and the ones that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Count a finished drive over `rounds` of `trace`: every emission in
    /// them was attempted; a run cut short by an error, or rounds that
    /// never reached `poll`, are failures.
    fn drive(&mut self, what: &str, trace: &ScenarioTrace, rounds: Range<usize>, out: &Outcome) {
        let (emissions, rounds) = expected(trace, rounds);
        self.attempted += emissions;
        if let Some(e) = &out.error {
            self.failed += emissions;
            self.problems.push(format!("{what}: {e}"));
        } else if out.emissions != emissions || out.rounds_admitted != rounds {
            self.failed += emissions.saturating_sub(out.emissions).max(1);
            self.problems.push(format!(
                "{what}: flushed {} of {emissions} emissions, polled {} of {rounds} rounds",
                out.emissions, out.rounds_admitted
            ));
        }
    }

    fn checks(&mut self, checks: Checks) {
        self.attempted += checks.checks;
        self.failed += checks.mismatches.len() as u64;
        self.problems.extend(checks.mismatches);
    }
}

/// Wall time of the benchmark's own steps, for the stderr note: where a
/// run's seconds went, including the untimed ones.
struct Laps {
    last: Instant,
    text: String,
}

impl Laps {
    fn new() -> Self {
        Laps {
            last: Instant::now(),
            text: String::new(),
        }
    }

    fn lap(&mut self, what: &str) {
        let now = Instant::now();
        self.text
            .push_str(&format!(" {what} {:.2}s", (now - self.last).as_secs_f64()));
        self.last = now;
    }
}

/// `(emissions, rounds)` a drive over `rounds` of `trace` must deliver.
fn expected(trace: &ScenarioTrace, rounds: Range<usize>) -> (u64, u64) {
    let emissions = trace
        .scripts
        .iter()
        .map(|s| {
            let end = rounds.end.min(s.emissions.len());
            s.emissions[rounds.start.min(end)..end]
                .iter()
                .flatten()
                .count() as u64
        })
        .sum();
    let last = rounds.end.min(trace.rounds());
    (emissions, last.saturating_sub(rounds.start) as u64)
}

/// One phase's generated trace with its measured profile.
struct PhaseTrace {
    trace: ScenarioTrace,
    profile: ScenarioProfile,
}

struct Traces {
    closed: PhaseTrace,
    paced: PhaseTrace,
    durable: PhaseTrace,
    gen_s: f64,
    manifest: Json,
}

fn profile_json(p: &ScenarioProfile) -> Json {
    Json::obj([
        ("events", Json::Num(p.events as f64)),
        ("inserts", Json::Num(p.inserts as f64)),
        ("retractions", Json::Num(p.retractions as f64)),
        ("rounds", Json::Num(p.rounds as f64)),
        ("inversion_frac", Json::Num(p.inversion_frac)),
        ("max_jump", Json::Num(p.max_jump as f64)),
        ("top_key_share", Json::Num(p.top_key_share)),
        ("distinct_keys", Json::Num(p.distinct_keys as f64)),
        ("top_producer_share", Json::Num(p.top_producer_share)),
        ("burst_peak_ratio", Json::Num(p.burst_peak_ratio)),
    ])
}

fn generate(args: &RunArgs) -> Traces {
    let w = args.workload;
    let scale = args.seconds / NOMINAL_SECONDS;
    let t0 = Instant::now();
    let sized = |msgs: f64| (msgs * scale).ceil() as usize;
    let paced_msgs = w.paced_rate * PACED_SHARE * args.seconds;
    let mut phases = Vec::new();
    let mut make = |phase: Phase, msgs: usize| {
        let trace = w.generate(phase, args.seed, msgs);
        let profile = trace.profile();
        let c = &trace.config;
        phases.push((
            phase.name().to_string(),
            Json::obj([
                ("scenario_seed", Json::str(format!("{:#018x}", c.seed))),
                (
                    "events_per_producer",
                    Json::Num(c.events_per_producer as f64),
                ),
                ("span", Json::Num(c.span as f64)),
                ("emission_size", Json::Num(c.emission_size as f64)),
                (
                    "trace_fingerprint",
                    Json::str(format!("{:#018x}", trace.fingerprint())),
                ),
                ("profile", profile_json(&profile)),
            ]),
        ));
        PhaseTrace { trace, profile }
    };
    let closed = make(Phase::Closed, sized(w.closed_msgs as f64));
    let paced = make(Phase::Paced, paced_msgs.ceil() as usize);
    let durable = make(Phase::Durable, sized(w.durable_msgs as f64));
    let gen_s = t0.elapsed().as_secs_f64();
    let cfg = drive::engine_config();
    let manifest = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::str(args.seed.to_string())),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        (
            "dials",
            Json::obj([
                ("catalog", Json::str(w.catalog.describe())),
                ("consistency", Json::str(w.level.name())),
                ("producers", Json::Num(w.producers as f64)),
                ("disorder", Json::Num(w.disorder as f64)),
                ("cti_period", Json::Num(w.cti_period as f64)),
                ("retraction_rate", Json::Num(w.retraction_rate)),
                ("burstiness", Json::Num(w.burstiness)),
                ("keys", Json::Num(w.keys as f64)),
                ("key_skew", Json::Num(w.key_skew)),
                ("emission", Json::Num(w.emission as f64)),
                ("paced_rate_msgs_per_s", Json::Num(w.paced_rate)),
            ]),
        ),
        ("phases", Json::Obj(phases)),
        (
            "engine_config",
            Json::obj([
                ("threads", Json::Num(cfg.threads as f64)),
                ("ingress_capacity", Json::Num(cfg.ingress_capacity as f64)),
                ("channel_depth", Json::Num(cfg.channel_depth as f64)),
                (
                    "resequencer_capacity",
                    Json::Num(cfg.resequencer_capacity as f64),
                ),
                ("fuse", Json::Bool(cfg.fuse)),
                ("compile_kernels", Json::Bool(cfg.compile_kernels)),
                ("trace_capacity", Json::Num(cfg.trace_capacity as f64)),
            ]),
        ),
        ("nproc", Json::Num(stats::nproc() as f64)),
        (
            "sharded_drain_parallelism",
            Json::str("unmeasured: one engine worker, one generator thread"),
        ),
    ]);
    Traces {
        closed,
        paced,
        durable,
        gen_s,
        manifest,
    }
}

struct Ctx<'a> {
    w: &'static Workload,
    defs: &'a [QueryDef],
    spec: ConsistencySpec,
}

impl Ctx<'_> {
    /// One closed-loop repetition of `trace` on a fresh engine.
    fn closed_rep(&self, trace: &ScenarioTrace, traced: bool, tally: &mut Tally) -> Outcome {
        let h = setup(self.defs, self.spec, trace);
        let out = drive(
            h,
            trace,
            &DriveOpts {
                trace: traced,
                seal: true,
                ..DriveOpts::default()
            },
        );
        tally.drive("closed", trace, 0..trace.rounds(), &out);
        out
    }
}

/// Rounds per slice of the paced run. A slice is the unit a disturbance is
/// discarded by and the window the 95th percentile is taken over: 80
/// rounds (40–130 ms at the workloads' rates) leave four beyond it.
pub const SLICE_ROUNDS: usize = 80;

/// A slice in which the generator woke later than this for some round did
/// not deliver the workload's schedule — its wake-up ran late, or the engine
/// fell a full channel behind — and is discarded, not measured.
pub const LATE_LIMIT: Duration = Duration::from_millis(1);

struct PacedResult {
    /// Due → poll-return latency of every round, in round order, ms.
    ms: Vec<f64>,
    out: Outcome,
}

/// The gated latency figures of one paced run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Median over every round of the kept slices.
    pub p50_ms: f64,
    /// The median slice's 95th percentile.
    pub p95_ms: f64,
    pub rounds_kept: usize,
    pub slices_kept: usize,
    pub slices: usize,
}

/// Cut the run into slices of [`SLICE_ROUNDS`], discard the slices in which
/// the generator ran more than [`LATE_LIMIT`] late, and report the median
/// over the rounds that remain and the median, over the slices that remain,
/// of the slice's 95th percentile.
///
/// The whole-run p95 is not gated because on this (virtualised) box it sits
/// at a knee: stalls of 1–25 ms (the generator's wake-up running late, the
/// engine's own log growth, the cores slowing for a while) put 3–7 % of all
/// rounds at 10–100 times the typical latency, so it reads 0.4 ms on one run
/// and 1.3 ms on the next (spread 30–54 % over ten seeds, against 4–10 % for
/// the median slice). A stall the engine itself adds to more than half of
/// all 80-round windows does move the median slice; rarer ones show in the
/// whole-run p99 and maximum, which the traced run reports per layer,
/// ungated.
pub fn latency(ms: &[f64], gen_late_ns: &[u64]) -> Latency {
    let limit = LATE_LIMIT.as_nanos() as u64;
    let slices: Vec<&[f64]> = ms.chunks(SLICE_ROUNDS).collect();
    let mut kept: Vec<&[f64]> = slices
        .iter()
        .zip(gen_late_ns.chunks(SLICE_ROUNDS))
        .filter(|(_, late)| late.iter().all(|&ns| ns <= limit))
        .map(|(slice, _)| *slice)
        .collect();
    let slices_kept = kept.len();
    if kept.is_empty() {
        // Nothing ran on schedule (a run of a slice or two, frozen): the
        // disturbed figure is still the only one there is.
        kept.clone_from(&slices);
    }
    let pooled: Vec<f64> = kept.iter().flat_map(|s| s.iter().copied()).collect();
    let p95s: Vec<f64> = kept
        .iter()
        .map(|s| stats::percentile(&stats::sorted(s), 0.95))
        .collect();
    Latency {
        p50_ms: stats::median(&pooled),
        p95_ms: stats::median(&p95s),
        rounds_kept: pooled.len(),
        slices_kept,
        slices: slices.len(),
    }
}

/// The open-loop phase: every round is flushed when it is due at the
/// workload's fixed rate, however the engine keeps up.
fn paced_phase(
    ctx: &Ctx,
    paced: &PhaseTrace,
    traced: bool,
    tally: &mut Tally,
) -> Result<PacedResult, String> {
    let trace = &paced.trace;
    let per_round = paced.profile.events as f64 / trace.rounds().max(1) as f64;
    let pace = Pace::for_rate(ctx.w.paced_rate, per_round);
    let h = setup(ctx.defs, ctx.spec, trace);
    let out = drive(
        h,
        trace,
        &DriveOpts {
            pace: Some(pace),
            trace: traced,
            seal: true,
            ..DriveOpts::default()
        },
    );
    tally.drive("paced", trace, 0..trace.rounds(), &out);
    let ms: Vec<f64> = out.latencies_ns.iter().map(|&n| n as f64 / 1e6).collect();
    if ms.is_empty() {
        return Err("paced phase measured no rounds".to_string());
    }
    // A growing backlog shows as latency that keeps rising: the run is
    // unsustained when the second half's median is more than twice the
    // first half's (under a rate the engine cannot hold latency grows
    // linearly and the halves differ threefold). Halves, not the first and
    // last tenth, because this box stalls for a hundred milliseconds now
    // and then, and a stall in the last tenth is not a backlog; ten periods
    // is the floor below which a doubling is jitter, not a queue. An
    // unsustained run has no latency worth reporting; all its rounds count
    // as failed. (With a single round both halves are that round.)
    let mid = ms.len() / 2;
    let (head, tail) = (stats::median(&ms[..mid.max(1)]), stats::median(&ms[mid..]));
    let sustained = tail <= 2.0 * head || tail <= 10.0 * pace.period.as_secs_f64() * 1e3;
    if !sustained {
        tally.failed += out.rounds_admitted;
        tally.problems.push(format!(
            "paced: {} msgs/s not sustained (latency grew from {head:.3} ms in the first half \
             of the run to {tail:.3} ms in the second)",
            ctx.w.paced_rate
        ));
    }
    Ok(PacedResult { ms, out })
}

struct DurableResult {
    checkpoints: Vec<CheckpointTaken>,
    restore_s: f64,
    /// `restore_from_slice` alone.
    restore_call_ns: u64,
    image_bytes: usize,
    /// The restored engine's output and what its consumers polled.
    measured: Measured,
    spans: Vec<Span>,
}

/// Run to the last checkpoint, drop the engine (the crash), restore the
/// last image into a fresh engine and drain the remaining emissions.
fn durable_phase(
    ctx: &Ctx,
    trace: &ScenarioTrace,
    traced: bool,
    tally: &mut Tally,
) -> Result<DurableResult, String> {
    let shortest = trace
        .scripts
        .iter()
        .map(|s| s.emissions.len())
        .min()
        .unwrap_or(0) as u64;
    // Boundaries every producer still reaches, so every lane is open (and
    // reattaches) at every image.
    let step = (shortest / (CHECKPOINTS + 1)).max(1);
    let checkpoints: Vec<u64> = (1..=CHECKPOINTS)
        .map(|k| k * step)
        .filter(|&c| c < shortest)
        .collect();
    let last = *checkpoints
        .last()
        .ok_or_else(|| format!("durable trace too short to checkpoint ({shortest} rounds)"))?
        as usize;

    let h = setup(ctx.defs, ctx.spec, trace);
    let first = drive(
        h,
        trace,
        &DriveOpts {
            checkpoints: checkpoints.clone(),
            end_round: Some(last),
            trace: traced,
            ..DriveOpts::default()
        },
    );
    tally.drive("durable", trace, 0..last, &first);
    // The crash: the first engine goes, its images stay.
    let Outcome {
        engine: crashed,
        checkpoints: taken,
        last_image,
        spans: first_spans,
        error,
        ..
    } = first;
    drop(crashed);
    let image = match (last_image, error) {
        (Some(image), None) if taken.len() == checkpoints.len() => image,
        (_, e) => return Err(format!("durable run took no usable image ({e:?})")),
    };

    // Restore several times into fresh engines and keep the last; the
    // median is what `restore_s` reports.
    let (mut restores, mut restore_calls) = (Vec::new(), Vec::new());
    let mut restored = None;
    for _ in 0..RESTORES {
        drop(restored.take());
        let t0 = Instant::now();
        let (mut engine, queries) = build_engine(ctx.defs, ctx.spec);
        let r0 = Instant::now();
        engine
            .restore_from_slice(&image)
            .map_err(|e| format!("restore: {e}"))?;
        restore_calls.push(r0.elapsed().as_nanos() as f64);
        let mut h = drive::attach(engine, queries, trace);
        h.engine
            .pump()
            .map_err(|e| format!("first pump after restore: {e}"))?;
        restores.push(t0.elapsed().as_secs_f64());
        restored = Some(h);
    }
    let h = restored.expect("at least one restore");
    let restore_s = stats::median(&restores);
    let restore_call_ns = stats::median(&restore_calls) as u64;

    let resumed = drive(
        h,
        trace,
        &DriveOpts {
            start_round: last,
            trace: traced,
            seal: true,
            ..DriveOpts::default()
        },
    );
    tally.drive("restored", trace, last..trace.rounds(), &resumed);
    Ok(DurableResult {
        checkpoints: taken,
        restore_s,
        restore_call_ns,
        image_bytes: image.len(),
        measured: Measured::of(&resumed.engine, &resumed.queries, &resumed.polled),
        spans: spans::merge(first_spans, resumed.spans),
    })
}

/// The pause one `checkpoint_to_vec` call imposes at the run's median
/// image size. Images grow with the run, so the calls are compared per
/// byte — the median over every call at every boundary — and scaled to the
/// median boundary's image.
fn checkpoint_pause_ms(taken: &[CheckpointTaken]) -> f64 {
    let per_byte: Vec<f64> = taken
        .iter()
        .flat_map(|c| {
            c.calls_ns
                .iter()
                .map(|&ns| ns as f64 / c.bytes.max(1) as f64)
        })
        .collect();
    let bytes: Vec<f64> = taken.iter().map(|c| c.bytes as f64).collect();
    stats::median(&per_byte) * stats::median(&bytes) / 1e6
}

/// Median seconds of `reps` fresh-engine set-ups.
fn setup_phase(ctx: &Ctx, trace: &ScenarioTrace, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let h = setup(ctx.defs, ctx.spec, trace);
            let dt = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(h));
            dt
        })
        .collect();
    stats::median(&samples)
}

/// The state one run threads through its phases.
struct Run<'a> {
    ctx: Ctx<'a>,
    args: &'a RunArgs,
    traces: &'a Traces,
    tally: Tally,
    values: Values,
    samples: Vec<(String, Json)>,
    laps: Laps,
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let w = args.workload;
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    let defs = w.catalog.queries();
    let mut laps = Laps::new();
    let traces = generate(args);
    laps.lap("generate");
    let mut run = Run {
        ctx: Ctx {
            w,
            defs: &defs,
            spec: w.level.spec(),
        },
        args,
        traces: &traces,
        tally: Tally::default(),
        values: Values::default(),
        samples: vec![("setup_reps".to_string(), Json::Num(args.setup_reps as f64))],
        laps,
    };

    let setup_s = setup_phase(&run.ctx, &traces.closed.trace, args.setup_reps);
    run.laps.lap("setup");

    let (spans, defs) = if args.trace {
        let spans = run.traced()?;
        run.values.set("gen_s", traces.gen_s);
        (spans, metrics::per_layer())
    } else {
        run.untraced()?;
        run.values.set("setup_s", setup_s);
        (Vec::new(), metrics::end_to_end())
    };
    let Run {
        tally,
        values,
        samples,
        laps,
        ..
    } = run;
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", values.render(&defs)?),
    ]);
    Ok(Report {
        manifest: traces.manifest.clone(),
        result,
        samples: Json::Obj(samples),
        problems: tally.problems,
        timing: laps.text,
        spans,
    })
}

impl Run<'_> {
    /// The end-to-end metrics: closed-loop repetitions, the paced phase, the
    /// durable phase, then (untimed) verification of all three.
    fn untraced(&mut self) -> Result<(), String> {
        let Run {
            ctx,
            args,
            traces,
            tally,
            values,
            samples,
            laps,
        } = self;
        let w = ctx.w;
        let mut sample =
            |name: &str, n: usize| samples.push((name.to_string(), Json::Num(n as f64)));
        let closed_trace = &traces.closed.trace;
        // Closed loop: the same trace on fresh engines. The first
        // repetition is not timed: it faults the heap in, is the one whose
        // output is verified, and — starting from the resident set the
        // generated traces left — is where memory growth is read.
        let rss_base = stats::rss_now_mb();
        let out = ctx.closed_rep(closed_trace, false, tally);
        values.set("peak_rss_mb", stats::rss_peak_mb() - rss_base);
        let closed = Measured::of(&out.engine, &out.queries, &out.polled);
        drop(out);
        laps.lap("closed warm-up");
        // Then repeat until the phase's share of the run is spent. The
        // rate is the median repetition's; CPU is summed over all of them,
        // because the kernel counts it in 10 ms ticks.
        let budget = Duration::from_secs_f64(CLOSED_SHARE * args.seconds);
        let mut rates = Vec::new();
        let (mut spent, mut cpu_s, mut msgs) = (Duration::ZERO, 0.0, 0u64);
        while spent < budget || rates.is_empty() {
            let out = ctx.closed_rep(closed_trace, false, tally);
            spent += out.wall;
            cpu_s += out.cpu_s;
            msgs += out.data_msgs;
            rates.push(out.data_msgs as f64 / out.wall.as_secs_f64());
        }
        values.set("events_per_s", stats::median(&rates));
        values.set("cpu_us_per_event", cpu_s * 1e6 / msgs.max(1) as f64);
        sample("closed_reps", rates.len());
        let kilo: Vec<String> = rates.iter().map(|r| format!("{:.1}", r / 1e3)).collect();
        laps.lap(&format!("closed [{}]k/s", kilo.join(" ")));

        let run = paced_phase(ctx, &traces.paced, false, tally)?;
        let lat = latency(&run.ms, &run.out.gen_late_ns);
        values.set("delta_latency_p50_ms", lat.p50_ms);
        values.set("delta_latency_p95_ms", lat.p95_ms);
        sample("latency_rounds", lat.rounds_kept);
        sample("latency_slices", lat.slices);
        sample("latency_slices_on_schedule", lat.slices_kept);
        let paced = Measured::of(&run.out.engine, &run.out.queries, &run.out.polled);
        drop(run);
        laps.lap("paced");

        let durable = durable_phase(ctx, &traces.durable.trace, false, tally)?;
        laps.lap("durable");
        values.set(
            "checkpoint_pause_ms",
            checkpoint_pause_ms(&durable.checkpoints),
        );
        values.set("restore_s", durable.restore_s);
        let calls = durable.checkpoints.iter().map(|c| c.calls_ns.len()).sum();
        sample("checkpoint_calls", calls);
        sample("restores", RESTORES);

        let mut checks = Checks::default();
        let across_levels = w.verify_across_levels.then_some(&mut checks);
        let reference = reference_of(ctx, closed_trace, across_levels);
        checks.compare("closed", &closed, &reference);
        let reference = reference_of(ctx, &traces.paced.trace, None);
        checks.compare("paced", &paced, &reference);
        let reference = reference_of(ctx, &traces.durable.trace, None);
        checks.compare("restored", &durable.measured, &reference);
        tally.checks(checks);
        laps.lap("verify");
        Ok(())
    }

    /// The per-layer metrics: traced repetitions of every phase, counters
    /// from `Engine::metrics()`, then each layer replayed alone.
    fn traced(&mut self) -> Result<Vec<Span>, String> {
        let Run {
            ctx,
            traces,
            tally,
            values,
            laps,
            ..
        } = self;
        let closed_trace = &traces.closed.trace;
        let mut checks = Checks::default();

        // lang: catalog registration (optimise, lower, fuse, compile
        // kernels) on fresh engines, per query.
        let compile: Vec<f64> = (0..31)
            .map(|_| {
                let mut engine = Engine::with_config(drive::engine_config());
                catalog::register_types(&mut engine);
                let t0 = Instant::now();
                let queries = catalog::register(&mut engine, ctx.defs, ctx.spec);
                t0.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64
            })
            .collect();
        values.set("lang.compile_us_per_query", stats::median(&compile));

        // A warm-up, then two untraced and two traced repetitions,
        // alternating; the wall difference is what recording spans costs.
        drop(ctx.closed_rep(closed_trace, false, tally));
        let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
        let mut closed = None;
        for _ in 0..2 {
            // One engine alive at a time: the previous traced one goes first.
            drop(closed.take());
            plain_walls.push(
                ctx.closed_rep(closed_trace, false, tally)
                    .wall
                    .as_secs_f64(),
            );
            let out = ctx.closed_rep(closed_trace, true, tally);
            traced_walls.push(out.wall.as_secs_f64());
            closed = Some(out);
        }
        let closed = closed.expect("two traced repetitions ran");
        let plain_wall = stats::median(&plain_walls);
        values.set(
            "obs.trace_overhead_frac",
            (stats::median(&traced_walls) - plain_wall) / plain_wall,
        );
        let pipelined_rate = closed.data_msgs as f64 / plain_wall;
        closed_layer_metrics(values, &closed);
        let measured = Measured::of(&closed.engine, &closed.queries, &closed.polled);
        checks.polled_all("closed-traced", &measured);
        let engine_logged: u64 = measured.produced.deltas_logged.iter().sum();
        let closed_spans = closed.spans;
        drop(closed.engine);
        laps.lap("closed x5");

        let paced = paced_phase(ctx, &traces.paced, true, tally)?;
        // The tail over the whole phase, freezes included: ungated.
        let sorted_ms = stats::sorted(&paced.ms);
        values.set(
            "core.session.delta_latency_p99_ms",
            stats::percentile(&sorted_ms, 0.99),
        );
        values.set(
            "core.session.delta_latency_max_ms",
            stats::percentile(&sorted_ms, 1.0),
        );
        values.set(
            "gen_late_max_ms",
            paced
                .out
                .gen_late_ns
                .iter()
                .max()
                .map_or(0.0, |&n| n as f64 / 1e6),
        );
        let out = paced.out;
        checks.polled_all(
            "paced",
            &Measured::of(&out.engine, &out.queries, &out.polled),
        );
        let paced_spans = out.spans;
        drop(out.engine);
        laps.lap("paced");

        let durable = durable_phase(ctx, &traces.durable.trace, true, tally)?;
        laps.lap("durable");
        checkpoint_layer_metrics(values, &durable);
        let reference = reference_of(ctx, &traces.durable.trace, None);
        checks.compare("restored", &durable.measured, &reference);

        let replayed = replay_layer_metrics(ctx, &traces.closed, pipelined_rate, values);
        // The replayed dataflows must have produced what the engine did.
        checks.check(replayed == engine_logged, || {
            format!("family replays logged {replayed} deltas, the engine {engine_logged}")
        });
        tally.checks(checks);
        laps.lap("replays");
        Ok(spans::merge(
            spans::merge(closed_spans, paced_spans),
            durable.spans,
        ))
    }
}

/// `core.ingest`, `core.session`, `runtime.shell` and `obs.snapshot_us`:
/// the spans and counters of the traced closed-loop repetition.
fn closed_layer_metrics(values: &mut Values, closed: &Outcome) {
    let wall_ns = closed.wall.as_nanos() as f64;
    let flushes: Vec<f64> = closed.flush_ns.iter().map(|&n| n as f64).collect();
    let flush_median = stats::median(&flushes);
    let blocked: f64 = flushes.iter().filter(|&&f| f > 10.0 * flush_median).sum();
    values.set(
        "core.ingest.flush_us_per_emission",
        flushes.iter().sum::<f64>() / flushes.len() as f64 / 1e3,
    );
    values.set(
        "core.ingest.channel_block_frac",
        ratio(blocked, closed.gen_wall.as_nanos() as f64),
    );
    values.set(
        "core.ingest.pump_busy_frac",
        closed.pump_busy_ns as f64 / wall_ns,
    );
    values.set(
        "core.ingest.pump_idle_frac",
        closed.pump_idle_ns as f64 / wall_ns,
    );
    values.set(
        "core.ingest.buffered_batches_peak",
        closed.buffered_batches_peak as f64,
    );
    let polled: u64 = closed.polled.iter().sum();
    values.set(
        "core.session.poll_ns_per_delta",
        ratio(closed.poll_ns as f64, polled as f64),
    );
    values.set(
        "core.session.poll_busy_frac",
        closed.poll_ns as f64 / wall_ns,
    );
    values.set("core.session.lag_peak", closed.lag_peak as f64);

    let snapshot_us: Vec<f64> = (0..11)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(closed.engine.metrics());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.set("obs.snapshot_us", stats::median(&snapshot_us));
    let counters = closed.engine.metrics().counters;
    let channel = counters.channel.unwrap_or_default();
    values.set(
        "core.ingest.backpressure_events",
        counters.ingress_total.backpressure_events as f64,
    );
    values.set(
        "core.ingest.msgs_per_round",
        ratio(
            channel.messages_admitted as f64,
            channel.rounds_admitted as f64,
        ),
    );
    let queries = &counters.queries;
    values.set(
        "runtime.shell.blocked_messages",
        queries
            .iter()
            .map(|q| q.total.blocked_messages)
            .sum::<u64>() as f64,
    );
    values.set(
        "runtime.shell.held_peak",
        queries.iter().map(|q| q.total.held_peak).sum::<u64>() as f64,
    );
    values.set(
        "runtime.shell.repair_retractions",
        queries.iter().map(|q| q.retractions).sum::<u64>() as f64,
    );
}

/// `core.checkpoint`: image size and codec speed over the durable phase.
fn checkpoint_layer_metrics(values: &mut Values, durable: &DurableResult) {
    let (first, last) = (
        durable.checkpoints.first().expect("checkpoints taken"),
        durable.checkpoints.last().expect("checkpoints taken"),
    );
    values.set(
        "core.checkpoint.image_bytes_per_event",
        ratio(last.bytes as f64, last.messages_admitted as f64),
    );
    values.set(
        "core.checkpoint.image_growth",
        ratio(last.bytes as f64, first.bytes as f64),
    );
    let (bytes, nanos) = durable.checkpoints.iter().fold((0.0, 0.0), |(b, n), c| {
        (b + c.bytes as f64, n + c.median_ns())
    });
    let mb_per_s = |bytes: f64, nanos: f64| ratio(bytes / (1024.0 * 1024.0), nanos / 1e9);
    values.set("core.checkpoint.encode_mb_per_s", mb_per_s(bytes, nanos));
    values.set(
        "core.checkpoint.restore_mb_per_s",
        mb_per_s(durable.image_bytes as f64, durable.restore_call_ns as f64),
    );
}

/// `streams.resequence`, `core.engine`, `runtime.<family>`,
/// `runtime.shell.strong_over_middle` and `streams.collect`: each layer
/// alone over the closed-loop rounds. Returns the deltas the family
/// replays logged.
fn replay_layer_metrics(
    ctx: &Ctx,
    closed: &PhaseTrace,
    pipelined_rate: f64,
    values: &mut Values,
) -> u64 {
    let trace = &closed.trace;
    values.set(
        "streams.resequence.ns_per_batch",
        layers::replay_resequencer(trace, 20_000_000),
    );
    let (serial_ns, serial_msgs) = layers::replay_serial_engine(ctx.defs, ctx.spec, trace);
    let serial_rate = ratio(serial_msgs as f64, serial_ns as f64 / 1e9);
    values.set("core.engine.serial_events_per_s", serial_rate);
    values.set(
        "core.engine.pipelined_over_serial",
        ratio(pipelined_rate, serial_rate),
    );

    let own = layers::replay_all_families(ctx.defs, ctx.spec, trace, true);
    let shares = layers::shares(&own);
    for ((family, replay), share) in FAMILIES.iter().zip(&own).zip(&shares) {
        values.set(format!("runtime.{family}.ns_per_msg"), replay.ns_per_msg());
        values.set(format!("runtime.{family}.share"), *share);
        values.set(
            format!("runtime.{family}.deltas_per_event"),
            replay.deltas_per_event(),
        );
        values.set(
            format!("runtime.{family}.state_peak"),
            replay.state_peak as f64,
        );
        if *family == "aggregate" {
            values.set(
                "runtime.aggregate.group_refreshes",
                replay.group_refreshes as f64,
            );
        }
    }
    for (lowering, name) in [
        (Lowering::INTERPRETED, "runtime.stateless.interp_ns_per_msg"),
        (Lowering::UNFUSED, "runtime.stateless.unfused_ns_per_msg"),
    ] {
        let replay = layers::replay_family(ctx.defs, "stateless", ctx.spec, lowering, trace, false);
        values.set(name, replay.ns_per_msg());
    }
    let level = ctx.w.level;
    let other = layers::replay_all_families(ctx.defs, level.other().spec(), trace, false);
    let total = |replays: &[FamilyReplay]| replays.iter().map(|r| r.nanos).sum::<u64>() as f64;
    let (strong, middle) = match level {
        Level::Strong => (total(&own), total(&other)),
        Level::Middle => (total(&other), total(&own)),
    };
    values.set("runtime.shell.strong_over_middle", ratio(strong, middle));

    let replayed = own.iter().map(|r| r.deltas).sum();
    let tapes: Vec<Vec<Message>> = own.into_iter().flat_map(|r| r.tapes).collect();
    let (collect_ns, collect_deltas) = layers::replay_collector(&tapes);
    values.set(
        "streams.collect.ns_per_delta",
        ratio(collect_ns as f64, collect_deltas as f64),
    );
    values.set(
        "streams.collect.deltas_per_event",
        ratio(collect_deltas as f64, closed.profile.events as f64),
    );
    replayed
}

/// Run the serial reference over `trace`. With `across_levels`, also run
/// the other consistency level and require equal net content: Strong
/// blocks, Middle repairs, and both must converge to the same table.
fn reference_of(ctx: &Ctx, trace: &ScenarioTrace, across_levels: Option<&mut Checks>) -> Produced {
    let level = ctx.w.level;
    let (engine, queries) = verify::reference_engine(ctx.defs, level.spec(), trace);
    let produced = verify::produced(&engine, &queries);
    if let Some(checks) = across_levels {
        let nets = verify::net_tables(&engine, &queries);
        drop(engine);
        let (other, other_queries) =
            verify::reference_engine(ctx.defs, level.other().spec(), trace);
        let other_nets = verify::net_tables(&other, &other_queries);
        checks.compare_net("strong-vs-middle", &produced.names, &nets, &other_nets);
    }
    produced
}
