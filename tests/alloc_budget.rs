//! Allocation budget of the dataflow's hot path.
//!
//! A counting global allocator counts the heap allocations (`alloc`,
//! `alloc_zeroed`, `realloc`) made on the test's own thread while
//! `Dataflow::run_round` drains a trace — operator shells, modules, the
//! executor and the sink's delta log, nothing of trace generation or plan
//! lowering. The five-family catalog runs over the gallery's most
//! disordered trace, lengthened tenfold, at Strong and at Middle, and every
//! cell's allocations per input message must stay under its `CEILING`:
//! the count measured when the ceiling was set, plus 10 %.
//!
//! The counts repeat to within 1 % from run to run (when a hash map
//! grows can depend on where its per-process hash key left deleted
//! slots) and otherwise change only with the code or the standard
//! library. A change that adds an allocation per message fails here; one
//! that removes allocations lowers the ceilings in the same commit. On a failure the message
//! prints the measured table in paste-able form.
//!
//! A second test pins the output constructors behind those counts to one
//! allocation per shared slice: payload concatenation, composite
//! lineages, aggregate segments, and none for a primitive lineage.
//!
//! A third pins the ingestion front end in the same "measured + 10 %"
//! style: allocations per message staged through `stage_batch` + `flush`
//! and per handle opened, for both the borrowed `SourceHandle` and the
//! `ChannelSource`.

use cedr::algebra::relational::segment_event;
use cedr::core::prelude::*;
use cedr::lang::{lower, optimize};
use cedr::workload::matrix::{family_plans, levels};
use cedr::workload::scenario::{gallery, ScenarioConfig, SCENARIO_TYPES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread-locals without destructors, so
// touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return the allocations it made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = COUNT.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    COUNT.with(Cell::get) - before
}

const SEED: u64 = 0xC1D7;

/// `(level, family, allocations per input message)`: the ceilings.
#[rustfmt::skip]
const CEILING: &[(&str, &str, f64)] = &[
    ("Strong", "stateless", 3.06),
    ("Strong", "aggregate", 13.14),
    ("Strong", "join", 5.12),
    ("Strong", "sequence", 5.86),
    ("Strong", "negation", 4.06),
    ("Middle", "stateless", 3.07),
    ("Middle", "aggregate", 15.05),
    ("Middle", "join", 4.76),
    ("Middle", "sequence", 5.90),
    ("Middle", "negation", 3.81),
];

#[test]
fn output_constructors_allocate_once() {
    let payload = |vals: &[i64]| -> Payload { vals.iter().map(|&v| Value::Int(v)).collect() };
    let (a, b, c) = (payload(&[1, 2]), payload(&[3]), payload(&[4, 5]));
    let mut built = None;
    assert_eq!(allocations(|| built = Some(a.concat(&b))), 1, "concat");
    assert_eq!(built, Some(payload(&[1, 2, 3])));
    let parts = [&a, &b, &c];
    assert_eq!(
        allocations(|| built = Some(Payload::concat_all(parts))),
        1,
        "concat_all"
    );
    assert_eq!(built, Some(payload(&[1, 2, 3, 4, 5])));
    let mut lineage = None;
    assert_eq!(
        allocations(|| lineage = Some([EventId(1), EventId(2)].into_iter().collect::<Lineage>())),
        1,
        "composite lineage"
    );
    assert_eq!(lineage, Some(Lineage::of(vec![EventId(1), EventId(2)])));
    Lineage::primitive();
    assert_eq!(
        allocations(|| lineage = Some(Lineage::primitive())),
        0,
        "primitive lineage"
    );
    let mut segment = None;
    let key = [Value::str("k")];
    let seg = Interval::new(TimePoint(3), TimePoint(7));
    assert_eq!(
        allocations(|| segment = Some(segment_event(&key, Value::Int(2), seg, &AggFunc::Count))),
        1,
        "aggregate segment"
    );
    assert_eq!(
        segment.map(|e| e.payload),
        Some(Payload::from_values(vec![Value::str("k"), Value::Int(2)]))
    );
}

#[test]
fn run_round_stays_within_its_allocation_budget() {
    let late_storm = gallery(SEED)
        .into_iter()
        .find(|cfg| cfg.name == "late_storm")
        .expect("gallery scenario");
    // Ten times the events over ten times the span: the same density and
    // disorder, long enough that set-up allocations do not dominate. The
    // catalog keeps the gallery's span, so windows stay the same size.
    let cfg = ScenarioConfig {
        events_per_producer: late_storm.events_per_producer * 10,
        span: late_storm.span * 10,
        ..late_storm.clone()
    };
    let trace = cfg.generate();
    let mut catalog = Catalog::new();
    for ty in SCENARIO_TYPES {
        catalog.register_type(ty, vec![("key", FieldType::Int), ("seq", FieldType::Int)]);
    }
    let mut seal = MessageBatch::new();
    seal.push_cti(TimePoint::INFINITY);

    let mut measured: Vec<(&str, &str, f64)> = Vec::new();
    for (level, spec) in levels(late_storm.span) {
        if level == "Weak" {
            continue;
        }
        for (family, plan) in family_plans(late_storm.span) {
            let mut plan = lower(&optimize(plan), &catalog, spec).unwrap();
            let mut messages = 0;
            let mut allocated = 0;
            for r in 0..trace.rounds() {
                let round: Vec<(usize, &MessageBatch)> = trace
                    .scripts
                    .iter()
                    .filter_map(|script| {
                        let port = plan.source_index(script.event_type)?;
                        Some((port, script.emissions.get(r)?.as_ref()?))
                    })
                    .collect();
                messages += round.iter().map(|(_, b)| b.len()).sum::<usize>();
                allocated += allocations(|| plan.dataflow.run_round(round.iter().copied()));
            }
            let round: Vec<_> = (0..plan.source_types.len()).map(|p| (p, &seal)).collect();
            allocated += allocations(|| plan.dataflow.run_round(round.iter().copied()));
            assert!(
                !plan.dataflow.collector(plan.sink).delta_log().is_empty(),
                "{level}/{family}: empty tape"
            );
            measured.push((level, family, allocated as f64 / messages as f64));
        }
    }

    let table = measured
        .iter()
        .map(|(level, family, per)| format!("    ({level:?}, {family:?}, {per:.2}),"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(measured.len(), CEILING.len(), "measured:\n{table}");
    for (&(level, family, per), &(l, f, ceiling)) in measured.iter().zip(CEILING) {
        assert_eq!((level, family), (l, f), "measured:\n{table}");
        assert!(
            per <= ceiling,
            "{level}/{family}: {per:.2} allocations per input message, ceiling {ceiling:.2}; \
             measured:\n{table}"
        );
    }
}

/// `(handle, allocations per staged message, allocations per handle
/// opened)`: the ingestion front end's ceilings.
#[rustfmt::skip]
const STAGING_CEILING: &[(&str, f64, f64)] = &[
    ("SourceHandle", 0.0035, 3.30),
    ("ChannelSource", 0.0035, 4.55),
];

#[test]
fn staging_and_opening_stay_within_their_allocation_budget() {
    const MESSAGES: u64 = 4096;
    const OPENS: usize = 64;
    // Explicit capacities: a tiny ingress or channel from the environment
    // would make the flush drain or block, which is not staging.
    let mut engine = Engine::with_config(EngineConfig::serial().with_trace_capacity(0));
    engine.register_event_type("T", vec![("v", FieldType::Int)]);
    let plan = PlanBuilder::source("T").select(Pred::True).into_plan();
    engine
        .register_plan("q", plan, ConsistencySpec::middle())
        .unwrap();
    let batch: MessageBatch = (0..MESSAGES)
        .map(|i| {
            let ev = engine.event("T", i, vec![Value::Int(i as i64)]).unwrap();
            Message::insert_event(ev)
        })
        .collect();

    let mut handle = engine.source("T").unwrap().manual_flush();
    let handle_staged = allocations(|| {
        handle.stage_batch(&batch);
        handle.flush();
    });
    drop(handle);
    let handle_opened = allocations(|| {
        for _ in 0..OPENS {
            drop(engine.source("T").unwrap());
        }
    });
    engine.run_to_quiescence();

    let mut channel = engine.channel_source("T").unwrap().manual_flush();
    let channel_staged = allocations(|| {
        channel.stage_batch(&batch);
        channel.flush();
    });
    let mut held = Vec::with_capacity(OPENS);
    let channel_opened = allocations(|| {
        for _ in 0..OPENS {
            held.push(engine.channel_source("T").unwrap());
        }
    });
    drop(held);
    drop(channel);
    engine.run_pipelined().unwrap();
    assert_eq!(engine.ingress_stats().admitted_messages, 2 * MESSAGES);

    let measured = [
        ("SourceHandle", handle_staged, handle_opened),
        ("ChannelSource", channel_staged, channel_opened),
    ]
    .map(|(name, staged, opened)| {
        (
            name,
            staged as f64 / MESSAGES as f64,
            opened as f64 / OPENS as f64,
        )
    });
    let table = measured
        .iter()
        .map(|(name, staged, opened)| format!("    ({name:?}, {staged:.4}, {opened:.2}),"))
        .collect::<Vec<_>>()
        .join("\n");
    for (&(name, staged, opened), &(n, staged_ceiling, opened_ceiling)) in
        measured.iter().zip(STAGING_CEILING)
    {
        assert_eq!(name, n, "measured:\n{table}");
        assert!(
            staged <= staged_ceiling,
            "{name}: {staged:.4} allocations per staged message, ceiling \
             {staged_ceiling:.4}; measured:\n{table}"
        );
        assert!(
            opened <= opened_ceiling,
            "{name}: {opened:.2} allocations per handle opened, ceiling \
             {opened_ceiling:.2}; measured:\n{table}"
        );
    }
}
