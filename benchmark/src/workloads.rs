//! The seven workloads: which traffic, which catalog, which consistency
//! level, and how much of it one run measures.
//!
//! The driver's contract prints every end-to-end metric on every workload,
//! so every workload runs the same three measured phases — closed-loop
//! throughput, open-loop paced, checkpoint/restore — each for the same
//! share of the run. The workloads differ only in traffic and catalog:
//! which layer does the work, at which input rate, over how much state.

use crate::catalog::CatalogKind;
use cedr_core::prelude::{ConsistencySpec, Message, MessageBatch, TimePoint};
use cedr_workload::scenario::{ProducerScript, ScenarioConfig, ScenarioTrace};

/// Messages per emission in the paced phase of every workload: small
/// rounds, so a few seconds yield thousands of latency samples and the
/// per-round fixed costs (channel, resequencer, pump, `run_round`, poll)
/// are what is timed.
pub const PACED_EMISSION: usize = 16;

/// Density of generated events on the application-time axis: the trace
/// span is this many ticks per event per producer (the tame gallery's 60
/// events over 180 ticks), so window occupancy — and with it join/sequence
/// amplification — does not change with the event count.
pub const TICKS_PER_EVENT: u64 = 3;

/// The seed `all` and `trace` use when none is given: the one the README's
/// tables were measured on.
pub const DEFAULT_SEED: u64 = 20_070_107;

/// Never used while a change is being written: a claimed gain must also
/// hold on `all --seed <HELD_OUT_SEED>`.
pub const HELD_OUT_SEED: u64 = 7_102_007;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    Strong,
    Middle,
}

impl Level {
    pub fn spec(self) -> ConsistencySpec {
        match self {
            Level::Strong => ConsistencySpec::strong(),
            Level::Middle => ConsistencySpec::middle(),
        }
    }

    pub fn other(self) -> Level {
        match self {
            Level::Strong => Level::Middle,
            Level::Middle => Level::Strong,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Level::Strong => "strong",
            Level::Middle => "middle",
        }
    }
}

/// The three measured phases of a run; each generates its own trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Closed,
    Paced,
    Durable,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Closed => "closed",
            Phase::Paced => "paced",
            Phase::Durable => "durable",
        }
    }

    fn seed_salt(self) -> u64 {
        match self {
            Phase::Closed => 0,
            Phase::Paced => 0x5EED_0000_0000_0001,
            Phase::Durable => 0x5EED_0000_0000_0002,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub catalog: CatalogKind,
    pub level: Level,
    // Scenario dials (everything else stays at `ScenarioConfig::tame`).
    pub producers: usize,
    pub disorder: u64,
    pub cti_period: usize,
    pub retraction_rate: f64,
    pub burstiness: f64,
    pub keys: usize,
    pub key_skew: f64,
    /// Messages per emission in the closed-loop and durable phases.
    pub emission: usize,
    /// Input messages of one closed-loop repetition at `--seconds 10`.
    pub closed_msgs: usize,
    /// Fixed open-loop rate of the paced phase, messages per second: a
    /// quarter to a half of the workload's small-round capacity on the box
    /// the benchmark was sized on (see the README's sizing section).
    pub paced_rate: f64,
    /// Input messages of the durable phase at `--seconds 10`: the state
    /// the last checkpoint images.
    pub durable_msgs: usize,
    /// Also verify that the other consistency level converges to the same
    /// net content (costs two more reference runs).
    pub verify_across_levels: bool,
}

const MIXED: Workload = Workload {
    name: "steady_mixed",
    why: "reference mix in 768-message rounds, paced at 45k msgs/s: every layer works moderately. The contract prints every metric on every workload, so each runs closed, paced and durable phases",
    catalog: CatalogKind::FiveFamilies { span: 180 },
    level: Level::Middle,
    producers: 3,
    disorder: 8,
    cti_period: 5,
    retraction_rate: 0.05,
    burstiness: 0.0,
    keys: 8,
    key_skew: 0.0,
    emission: 256,
    closed_msgs: 160_000,
    paced_rate: 45_000.0,
    durable_msgs: 30_000,
    verify_across_levels: false,
};

const DISORDER: Workload = Workload {
    disorder: 40,
    cti_period: 9,
    retraction_rate: 0.35,
    burstiness: 0.5,
    closed_msgs: 200_000,
    paced_rate: 45_000.0,
    durable_msgs: 30_000,
    verify_across_levels: true,
    ..MIXED
};

pub const WORKLOADS: [Workload; 7] = [
    MIXED,
    Workload {
        name: "stateless_fanout",
        why: "16 select-project chains on one ordered stream: fused kernels, Arc fan-out, collector and 16 poll cursors work; stateful families idle",
        catalog: CatalogKind::Fanout { chains: 16 },
        producers: 1,
        disorder: 0,
        retraction_rate: 0.0,
        keys: 16,
        emission: 512,
        closed_msgs: 100_000,
        paced_rate: 30_000.0,
        durable_msgs: 14_000,
        ..MIXED
    },
    Workload {
        name: "stateful_hot_keys",
        why: "aggregate, join, sequence, negation on 16 skewed keys with doubled windows: operator state passes dominate; stateless kernels idle",
        catalog: CatalogKind::Stateful { span: 360 },
        retraction_rate: 0.0,
        keys: 16,
        key_skew: 1.5,
        closed_msgs: 100_000,
        paced_rate: 40_000.0,
        durable_msgs: 20_000,
        ..MIXED
    },
    Workload {
        name: "disorder_strong",
        why: "late, retraction-heavy, bursty trace at Strong: the consistency monitor holds and releases; shares its trace with disorder_middle",
        level: Level::Strong,
        ..DISORDER
    },
    Workload {
        name: "disorder_middle",
        why: "the same trace at Middle: the same layer speculates and repairs; a gain for one level that costs the other shows here",
        ..DISORDER
    },
    Workload {
        name: "paced_mixed",
        why: "steady_mixed traffic cut into 16-message emissions in every phase, paced at 60k msgs/s: per-round fixed costs (channel, resequencer, pump, run_round, poll) dominate; the latency workload",
        emission: PACED_EMISSION,
        closed_msgs: 120_000,
        paced_rate: 60_000.0,
        ..MIXED
    },
    Workload {
        name: "durable_mixed",
        why: "steady_mixed traffic held twice as long before each checkpoint (twice the logs and state in every image), paced at 30k msgs/s: checkpoint codec and restore dominate",
        closed_msgs: 200_000,
        paced_rate: 30_000.0,
        durable_msgs: 60_000,
        ..MIXED
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The scenario for one phase: `msgs` input messages in emissions of
    /// `emission`. Seeds depend on the run seed and the phase only, so
    /// workloads with equal dials (the disorder pair) share their traces.
    pub fn scenario(&self, phase: Phase, seed: u64, msgs: usize) -> ScenarioConfig {
        let emission = match phase {
            Phase::Paced => PACED_EMISSION,
            Phase::Closed | Phase::Durable => self.emission,
        };
        let per_producer = msgs as f64 / self.producers as f64 / (1.0 + self.retraction_rate);
        let events_per_producer = (per_producer.ceil() as usize).max(emission);
        ScenarioConfig {
            producers: self.producers,
            events_per_producer,
            span: (events_per_producer as u64 * TICKS_PER_EVENT).max(180),
            disorder: self.disorder,
            cti_period: self.cti_period,
            retraction_rate: self.retraction_rate,
            burstiness: self.burstiness,
            keys: self.keys,
            key_skew: self.key_skew,
            emission_size: emission,
            ..ScenarioConfig::tame(
                &format!("{}/{}", self.name, phase.name()),
                seed ^ phase.seed_salt(),
            )
        }
    }

    /// Generate one phase's trace and cut it into time-aligned rounds.
    pub fn generate(&self, phase: Phase, seed: u64, msgs: usize) -> ScenarioTrace {
        let config = self.scenario(phase, seed, msgs);
        // Messages (data + CTIs) a producer delivers per tick of
        // application time, hence the ticks that carry one emission.
        let per_tick = (1.0 + self.retraction_rate) * (1.0 + 1.0 / self.cti_period as f64)
            / TICKS_PER_EVENT as f64;
        let ticks_per_round = (config.emission_size as f64 / per_tick).round().max(1.0) as u64;
        align_rounds(config.generate(), ticks_per_round)
    }
}

/// Re-cut every producer's delivery sequence into emissions by
/// *application time*: round `k` carries what the producer delivers while
/// its clock (the highest sync time it has shown so far) is in
/// `[k, k + 1) * ticks_per_round`.
///
/// The scenario generator cuts emissions by message count. Producers draw
/// their arrival times independently, so at equal message counts their
/// clocks drift apart like a random walk — hundreds of ticks over a
/// million messages, many times the catalog's windows, and differently for
/// every seed (measured: 100 k vs 175 k events/s on the same dials). How
/// much the negation and join families speculate and repair depends on
/// exactly that skew, so count-cut rounds make throughput a property of
/// the seed. Cutting by time bounds the skew at one round for every seed,
/// the way producers that flush on a timer behave.
///
/// A producer with nothing due in a round re-asserts its last guarantee
/// (a heartbeat CTI), so every lane emits in every round and the rounds
/// stay aligned through the resequencer.
pub fn align_rounds(trace: ScenarioTrace, ticks_per_round: u64) -> ScenarioTrace {
    let ticks = ticks_per_round.max(1);
    let scripts = trace
        .scripts
        .iter()
        .map(|script| {
            let mut rounds: Vec<MessageBatch> = Vec::new();
            let (mut clock, mut guarantee) = (0u64, TimePoint::ZERO);
            for msg in script.delivered() {
                let sync = msg.sync();
                if sync.is_finite() {
                    clock = clock.max(sync.0);
                }
                let round = (clock / ticks) as usize;
                while rounds.len() <= round {
                    rounds.push(MessageBatch::new());
                }
                // Rounds the clock jumped over get the heartbeat.
                for skipped in rounds.iter_mut().rev().skip(1) {
                    if !skipped.is_empty() {
                        break;
                    }
                    skipped.push_cti(guarantee);
                }
                if let Message::Cti(t) = msg {
                    if t.is_finite() {
                        guarantee = t;
                    }
                }
                rounds[round].push(msg);
            }
            ProducerScript {
                event_type: script.event_type,
                emissions: rounds.into_iter().map(Some).collect(),
            }
        })
        .collect();
    ScenarioTrace {
        config: trace.config,
        scripts,
    }
}
