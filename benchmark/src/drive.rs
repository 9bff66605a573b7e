//! The load shape every phase shares: one generator thread that owns every
//! `ChannelSource` and flushes a pre-generated trace round by round, and
//! the engine on the calling thread looping `pump` → `poll` over every
//! subscription.
//!
//! The engine always runs on the *calling* (main) thread so that every
//! repetition's allocations land in the same malloc arena and the peak
//! resident set repeats.

use crate::catalog::{self, QueryDef};
use crate::spans::{self, Recorder, Span};
use cedr_core::prelude::*;
use cedr_core::DEFAULT_INGRESS_CAPACITY;
use cedr_workload::scenario::ScenarioTrace;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Bounded channel between generator and pump, in emissions. Small enough
/// that a closed-loop generator is held to the engine's pace (so the
/// engine, not the generator, is what is measured), large enough that the
/// pump never starves.
pub const CHANNEL_DEPTH: usize = 64;

/// How close to a due time the generator stops sleeping and spins.
pub const SPIN_WITHIN: Duration = Duration::from_micros(150);

/// `checkpoint_to_vec` calls per checkpoint boundary.
pub const CHECKPOINT_CALLS: usize = 3;

/// Resequencer skew bound, in emissions (the engine default).
pub const RESEQUENCER_CAPACITY: usize = 16_384;

/// The engine configuration every measured run uses, spelled out field by
/// field so no `CEDR_*` environment variable can perturb a run. One
/// worker: this box has two cores, one for the generator and one for the
/// engine; sharded-drain parallelism is recorded as unmeasured.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: 1,
        ingress_capacity: DEFAULT_INGRESS_CAPACITY,
        channel_depth: CHANNEL_DEPTH,
        resequencer_capacity: RESEQUENCER_CAPACITY,
        fuse: true,
        compile_kernels: true,
        trace_capacity: 0,
    }
}

/// A fresh engine with the event types and the catalog registered.
pub fn build_engine(defs: &[QueryDef], spec: ConsistencySpec) -> (Engine, Vec<QueryId>) {
    let mut engine = Engine::with_config(engine_config());
    catalog::register_types(&mut engine);
    let queries = catalog::register(&mut engine, defs, spec);
    (engine, queries)
}

/// An engine with its producers and consumers attached, ready to drive.
pub struct Harness {
    pub engine: Engine,
    pub queries: Vec<QueryId>,
    pub sources: Vec<ChannelSource>,
    pub subs: Vec<Subscription>,
}

/// Open one manual-flush channel source per producer script (in script
/// order, which fixes the producer keys) and one subscription per query.
pub fn attach(engine: Engine, queries: Vec<QueryId>, trace: &ScenarioTrace) -> Harness {
    let mut engine = engine;
    let sources = trace
        .scripts
        .iter()
        .map(|s| {
            engine
                .channel_source(s.event_type)
                .expect("scenario type registered")
                .manual_flush()
        })
        .collect();
    let subs = queries
        .iter()
        .map(|&q| engine.subscribe(q).expect("query registered"))
        .collect();
    Harness {
        engine,
        queries,
        sources,
        subs,
    }
}

/// Everything `setup_s` times: engine, types, catalog, sources,
/// subscriptions.
pub fn setup(defs: &[QueryDef], spec: ConsistencySpec, trace: &ScenarioTrace) -> Harness {
    let (engine, queries) = build_engine(defs, spec);
    attach(engine, queries, trace)
}

/// The open-loop schedule: round `k` is due `k` periods after the start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pace {
    pub period: Duration,
}

impl Pace {
    /// The period that delivers `rate` messages per second when a round
    /// carries `msgs_per_round` messages.
    pub fn for_rate(rate: f64, msgs_per_round: f64) -> Pace {
        Pace {
            period: Duration::from_secs_f64(msgs_per_round / rate),
        }
    }

    pub fn due(&self, start: Instant, round: u64) -> Instant {
        start + self.period.mul_f64(round as f64)
    }

    /// Sleep, then spin, until `due`; returns how late the wake-up was.
    ///
    /// The sleep stops [`SPIN_WITHIN`] short of the due time so the spin,
    /// not the scheduler's wake-up slack, sets the precision. Spinning the
    /// whole period was tried and is worse: with the engine thread polling
    /// on the other core there is then no idle core left for the kernel's
    /// own threads, which preempt one of the two for a time slice and put
    /// milliseconds into the p95 (run-to-run spread 26–52 % against
    /// 7–20 % with the sleep).
    pub fn wait_until(due: Instant) -> Duration {
        loop {
            let now = Instant::now();
            if now >= due {
                return now - due;
            }
            let left = due - now;
            if left > SPIN_WITHIN {
                std::thread::sleep(left - SPIN_WITHIN);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[derive(Clone, Debug, Default)]
pub struct DriveOpts {
    /// `None`: closed loop, flush as fast as the bounded channel accepts.
    pub pace: Option<Pace>,
    /// First round to flush (a restored run resumes mid-trace).
    pub start_round: usize,
    /// Stop (and disconnect every producer) before this round: the crash
    /// point of a run that is restored later.
    pub end_round: Option<usize>,
    /// Round boundaries (counts of completed rounds, ascending) at which
    /// the generator pauses and the engine thread checkpoints.
    pub checkpoints: Vec<u64>,
    /// Record spans around each public call.
    pub trace: bool,
    /// Seal the engine after the last round and poll once more, so held
    /// output (Strong) is released and counted.
    pub seal: bool,
}

/// One checkpoint taken mid-run.
#[derive(Clone, Debug)]
pub struct CheckpointTaken {
    /// Wall time of each `checkpoint_to_vec` call on this state.
    pub calls_ns: Vec<u64>,
    pub bytes: usize,
    /// Input messages the engine had admitted when the image was taken.
    pub messages_admitted: u64,
}

impl CheckpointTaken {
    pub fn median_ns(&self) -> f64 {
        let calls: Vec<f64> = self.calls_ns.iter().map(|&n| n as f64).collect();
        crate::stats::median(&calls)
    }
}

pub struct Outcome {
    pub engine: Engine,
    pub queries: Vec<QueryId>,
    /// First flush due → return of the poll after the last round.
    pub wall: Duration,
    /// Process user+sys CPU over the same window.
    pub cpu_s: f64,
    /// Data messages (inserts + retractions) flushed.
    pub data_msgs: u64,
    pub emissions: u64,
    pub rounds_admitted: u64,
    /// Deltas returned by `poll`, per query.
    pub polled: Vec<u64>,
    /// Paced runs: due → poll-return latency of every round, in order.
    pub latencies_ns: Vec<u64>,
    /// Paced runs: how late the generator woke for each round, in order.
    pub gen_late_ns: Vec<u64>,
    /// Largest number of deltas one poll sweep found waiting (the sweep
    /// after the seal excluded).
    pub lag_peak: u64,
    pub buffered_batches_peak: usize,
    pub pump_busy_ns: u64,
    pub pump_idle_ns: u64,
    pub poll_ns: u64,
    /// Generator time inside `stage_batch` + `flush`, per emission.
    pub flush_ns: Vec<u64>,
    pub gen_wall: Duration,
    pub checkpoints: Vec<CheckpointTaken>,
    pub last_image: Option<Vec<u8>>,
    /// A `pump` or checkpoint error: the run was cut short.
    pub error: Option<String>,
    pub spans: Vec<Span>,
}

#[derive(Default)]
struct GenReport {
    emissions: u64,
    data_msgs: u64,
    late_ns: Vec<u64>,
    flush_ns: Vec<u64>,
    wall: Duration,
    spans: Vec<Span>,
}

/// The generator thread: flush rounds `opts.start_round..rounds` of `trace`
/// — as fast as the channel accepts, or each when it is due — parking at
/// every checkpoint boundary until the engine thread signals `resume`.
fn generate_load(
    sources: Vec<ChannelSource>,
    trace: &ScenarioTrace,
    rounds: usize,
    start: Instant,
    opts: &DriveOpts,
    resume: &mpsc::Receiver<()>,
) -> GenReport {
    let mut sources: Vec<Option<ChannelSource>> = sources.into_iter().map(Some).collect();
    let mut rec = Recorder::new(opts.trace, start);
    let mut report = GenReport::default();
    Pace::wait_until(start);
    let root = rec.open("gen.loop", start);
    for r in opts.start_round..rounds {
        if let Some(p) = opts.pace {
            let late = Pace::wait_until(p.due(start, (r - opts.start_round) as u64));
            report.late_ns.push(late.as_nanos() as u64);
        }
        for (p, script) in trace.scripts.iter().enumerate() {
            if let (Some(Some(batch)), Some(src)) = (script.emissions.get(r), sources[p].as_mut()) {
                let t0 = Instant::now();
                src.stage_batch(batch);
                src.flush();
                let t1 = Instant::now();
                report.flush_ns.push((t1 - t0).as_nanos() as u64);
                rec.record("core.ingest.flush", t0, t1, root, r as u64);
                report.emissions += 1;
                report.data_msgs += batch.data_messages() as u64;
            }
            // Disconnect a producer with its last emission, so the rounds
            // only longer scripts reach are not held back.
            if r + 1 >= script.emissions.len() {
                sources[p] = None;
            }
        }
        // The engine thread checkpoints while nothing is in flight; a
        // closed channel means it gave up.
        if opts.checkpoints.contains(&(r as u64 + 1)) && resume.recv().is_err() {
            break;
        }
    }
    drop(sources);
    let end = Instant::now();
    rec.close(root, end);
    report.wall = end.saturating_duration_since(start);
    report.spans = rec.spans;
    report
}

/// Drive `trace` through the harness. Returns when every producer has
/// disconnected and every admitted round has been polled.
pub fn drive(h: Harness, trace: &ScenarioTrace, opts: &DriveOpts) -> Outcome {
    let Harness {
        mut engine,
        queries,
        sources,
        mut subs,
    } = h;
    let rounds = trace.rounds().min(opts.end_round.unwrap_or(usize::MAX));
    // Both threads start the clock at the same instant, slightly in the
    // future so the generator thread is up before round 0 is due.
    let start = Instant::now() + Duration::from_millis(2);
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let pace = opts.pace;
    let start_round = opts.start_round;

    let mut rec = Recorder::new(opts.trace, start);
    let mut polled = vec![0u64; subs.len()];
    let mut latencies_ns = Vec::new();
    let mut covered = start_round as u64;
    let mut next_ckpt = 0usize;
    let mut out_ckpts = Vec::new();
    let mut last_image = None;
    let mut error = None;
    let (mut lag_peak, mut buffered_peak) = (0u64, 0usize);
    let (mut busy_ns, mut idle_ns, mut poll_ns) = (0u64, 0u64, 0u64);

    let (gen, wall, cpu_s) = std::thread::scope(|scope| {
        let generator =
            scope.spawn(move || generate_load(sources, trace, rounds, start, opts, &resume_rx));

        Pace::wait_until(start);
        let cpu0 = crate::stats::process_cpu_seconds();
        let root = rec.open("engine.loop", start);
        loop {
            let t0 = Instant::now();
            let progress = engine.pump();
            let t1 = Instant::now();
            let progress = match progress {
                Ok(p) => p,
                Err(e) => {
                    error = Some(format!("pump: {e}"));
                    break;
                }
            };
            buffered_peak = buffered_peak.max(progress.buffered_batches);
            if progress.rounds == 0 {
                idle_ns += (t1 - t0).as_nanos() as u64;
                if progress.open_producers == 0 {
                    break;
                }
                std::thread::yield_now();
                continue;
            }
            busy_ns += (t1 - t0).as_nanos() as u64;
            let first = covered;
            covered += progress.rounds;
            rec.record("core.ingest.pump", t0, t1, root, covered - 1);
            let swept = poll_sweep(&mut engine, &mut subs, &mut polled);
            let t2 = Instant::now();
            poll_ns += (t2 - t1).as_nanos() as u64;
            rec.record("core.session.poll", t1, t2, root, covered - 1);
            lag_peak = lag_peak.max(swept);
            if let Some(p) = pace {
                for k in first..covered {
                    let due = p.due(start, k - start_round as u64);
                    latencies_ns.push(t2.saturating_duration_since(due).as_nanos() as u64);
                }
            }
            if opts.checkpoints.get(next_ckpt) == Some(&covered) {
                next_ckpt += 1;
                // Nothing is in flight and the generator is parked, so the
                // same state is imaged several times; the boundary's pause
                // is the median call.
                let mut calls = Vec::with_capacity(CHECKPOINT_CALLS);
                let mut image = Vec::new();
                for _ in 0..CHECKPOINT_CALLS {
                    let c0 = Instant::now();
                    match engine.checkpoint_to_vec() {
                        Ok(bytes) => image = bytes,
                        Err(e) => {
                            error = Some(format!("checkpoint at round {covered}: {e}"));
                            break;
                        }
                    }
                    let c1 = Instant::now();
                    rec.record("core.checkpoint", c0, c1, root, covered - 1);
                    calls.push((c1 - c0).as_nanos() as u64);
                }
                if error.is_some() {
                    break;
                }
                let admitted = engine
                    .metrics()
                    .counters
                    .channel
                    .map_or(0, |c| c.messages_admitted);
                out_ckpts.push(CheckpointTaken {
                    calls_ns: calls,
                    bytes: image.len(),
                    messages_admitted: admitted,
                });
                last_image = Some(image);
                let _ = resume_tx.send(());
            }
        }
        if error.is_some() {
            // Sealing tears the channel down, so a generator parked on a
            // full channel (or on the resume signal) cannot hang the join.
            drop(resume_tx);
            engine.seal();
        } else if opts.seal {
            let t0 = Instant::now();
            engine.seal();
            // What the seal releases was not waiting on the consumer, so
            // this sweep does not count towards `lag_peak`.
            poll_sweep(&mut engine, &mut subs, &mut polled);
            let t1 = Instant::now();
            poll_ns += (t1 - t0).as_nanos() as u64;
            rec.record("core.session.poll", t0, t1, root, covered.saturating_sub(1));
        }
        let end = Instant::now();
        let cpu_s = crate::stats::process_cpu_seconds() - cpu0;
        rec.close(root, end);
        let gen = generator.join().expect("generator thread panicked");
        (gen, end.saturating_duration_since(start), cpu_s)
    });

    Outcome {
        engine,
        queries,
        wall,
        cpu_s,
        data_msgs: gen.data_msgs,
        emissions: gen.emissions,
        rounds_admitted: covered - start_round as u64,
        polled,
        latencies_ns,
        gen_late_ns: gen.late_ns,
        lag_peak,
        buffered_batches_peak: buffered_peak,
        pump_busy_ns: busy_ns,
        pump_idle_ns: idle_ns,
        poll_ns,
        flush_ns: gen.flush_ns,
        gen_wall: gen.wall,
        checkpoints: out_ckpts,
        last_image,
        error,
        spans: spans::merge(rec.spans, gen.spans),
    }
}

/// Poll every subscription once; returns the deltas found.
fn poll_sweep(engine: &mut Engine, subs: &mut [Subscription], polled: &mut [u64]) -> u64 {
    let mut swept = 0u64;
    for (sub, count) in subs.iter_mut().zip(polled.iter_mut()) {
        let deltas = std::hint::black_box(sub.poll(engine));
        *count += deltas.len() as u64;
        swept += deltas.len() as u64;
    }
    swept
}
