//! Output verification: the measured, pipelined run must produce exactly
//! the deltas a serial reference engine produces from the same emissions.
//!
//! The reference is as different from the measured configuration as the
//! engine's own bit-identity contract allows: borrowed `SourceHandle`s
//! instead of channel sources, no pump or resequencer, one thread, fusion
//! off. Equal per-query delta-log fingerprints therefore check the channel
//! hand-off, the fused/compiled kernels and (for the durable phase)
//! checkpoint/restore in one comparison.

use crate::catalog::{self, QueryDef};
use crate::drive::engine_config;
use cedr_core::prelude::*;
use cedr_workload::scenario::ScenarioTrace;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// FNV-1a as a `Hasher`, so fingerprints are stable across runs and
/// processes (the default hasher is randomly keyed).
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Order-sensitive fingerprint of a delta log: kind, CEDR time, the whole
/// event (id, lifetime, root time, lineage, payload) and the retraction's
/// new end or the CTI's guarantee.
pub fn fingerprint(deltas: &[OutputDelta]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let time = |h: &mut Fnv, t: TimePoint| h.write_u64(t.0);
    for d in deltas {
        match d {
            OutputDelta::Insert { cedr_time, event } => {
                h.write_u8(0);
                time(&mut h, *cedr_time);
                event.hash(&mut h);
            }
            OutputDelta::Retract {
                cedr_time,
                event,
                new_end,
            } => {
                h.write_u8(1);
                time(&mut h, *cedr_time);
                event.hash(&mut h);
                time(&mut h, *new_end);
            }
            OutputDelta::Cti {
                cedr_time,
                guarantee,
            } => {
                h.write_u8(2);
                time(&mut h, *cedr_time);
                time(&mut h, *guarantee);
            }
        }
    }
    h.finish()
}

/// What one finished engine produced, per query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Produced {
    pub names: Vec<String>,
    pub fingerprints: Vec<u64>,
    pub deltas_logged: Vec<u64>,
}

pub fn produced(engine: &Engine, queries: &[QueryId]) -> Produced {
    Produced {
        names: queries
            .iter()
            .map(|&q| engine.query_name(q).to_string())
            .collect(),
        fingerprints: queries
            .iter()
            .map(|&q| fingerprint(engine.collector(q).delta_log()))
            .collect(),
        deltas_logged: queries
            .iter()
            .map(|&q| engine.collector(q).delta_log().len() as u64)
            .collect(),
    }
}

/// A measured run's output: what its engine logged and how many deltas
/// `poll` handed its consumers, per query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Measured {
    pub produced: Produced,
    pub polled: Vec<u64>,
}

impl Measured {
    pub fn of(engine: &Engine, queries: &[QueryId], polled: &[u64]) -> Measured {
        Measured {
            produced: produced(engine, queries),
            polled: polled.to_vec(),
        }
    }
}

/// The serial reference run: every round staged through borrowed handles,
/// one quiescence pass per round, then sealed.
pub fn reference_engine(
    defs: &[QueryDef],
    spec: ConsistencySpec,
    trace: &ScenarioTrace,
) -> (Engine, Vec<QueryId>) {
    let mut engine = Engine::with_config(engine_config().with_fuse(false));
    catalog::register_types(&mut engine);
    let queries = catalog::register(&mut engine, defs, spec);
    for r in 0..trace.rounds() {
        for script in &trace.scripts {
            if let Some(Some(batch)) = script.emissions.get(r) {
                let mut handle = engine
                    .source(script.event_type)
                    .expect("scenario type registered")
                    .manual_flush();
                handle.stage_batch(batch);
                handle.flush();
            }
        }
        engine.run_to_quiescence();
    }
    engine.seal();
    (engine, queries)
}

/// Tally of verification checks; mismatches carry a label for the report.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub checks: u64,
    pub mismatches: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, label: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches.push(label());
        }
    }

    /// `poll` handed the consumer every delta that was logged.
    pub fn polled_all(&mut self, what: &str, measured: &Measured) {
        let produced = &measured.produced;
        for (i, name) in produced.names.iter().enumerate() {
            let logged = produced.deltas_logged[i];
            self.check(measured.polled.get(i) == Some(&logged), || {
                format!(
                    "{what}/{name}: polled {:?} deltas, {logged} logged",
                    measured.polled.get(i)
                )
            });
        }
    }

    /// The measured run's delta logs equal the reference's, query by
    /// query, and its consumers saw all of them.
    pub fn compare(&mut self, what: &str, measured: &Measured, reference: &Produced) {
        let produced = &measured.produced;
        self.check(produced.names == reference.names, || {
            format!("{what}: query catalogs differ")
        });
        for (i, name) in produced.names.iter().enumerate() {
            self.check(
                reference.fingerprints.get(i) == Some(&produced.fingerprints[i]),
                || format!("{what}/{name}: delta log differs from the serial reference"),
            );
        }
        self.polled_all(what, measured);
    }

    /// Two consistency levels agree on net content (the paper's claim that
    /// Middle converges to what Strong would have said).
    pub fn compare_net(
        &mut self,
        what: &str,
        names: &[String],
        a: &[UniTemporalTable],
        b: &[UniTemporalTable],
    ) {
        for (i, name) in names.iter().enumerate() {
            self.check(snapshots(&a[i]) == snapshots(&b[i]), || {
                format!("{what}/{name}: Middle's net content differs from Strong's")
            });
        }
    }
}

/// The snapshot image of a net table: per payload, the steps (`+n` at a
/// lifetime's start, `-n` at its end) of how many rows are valid at each
/// instant. Two tables with equal images show the same content at every
/// point in time, however their rows are fragmented — a repaired
/// step function (`[3,5)` + `[5,9)`) equals the unrepaired one (`[3,9)`).
pub fn snapshots(table: &UniTemporalTable) -> HashMap<Payload, BTreeMap<u64, i64>> {
    let mut image: HashMap<Payload, BTreeMap<u64, i64>> = HashMap::new();
    for row in &table.rows {
        if row.interval.start < row.interval.end {
            let steps = image.entry(row.payload.clone()).or_default();
            *steps.entry(row.interval.start.0).or_default() += 1;
            *steps.entry(row.interval.end.0).or_default() -= 1;
        }
    }
    for steps in image.values_mut() {
        steps.retain(|_, step| *step != 0);
    }
    image.retain(|_, steps| !steps.is_empty());
    image
}

pub fn net_tables(engine: &Engine, queries: &[QueryId]) -> Vec<UniTemporalTable> {
    queries
        .iter()
        .map(|&q| engine.collector(q).net_table())
        .collect()
}
