//! Design-choice ablations: alignment-buffer overhead (Figure 7),
//! retraction repair vs recompute in the join, and SC-mode cost in
//! SEQUENCE.

use cedr_algebra::expr::{CmpOp, Pred, Scalar};
use cedr_algebra::pattern::{Consumption, ScMode, Selection};
use cedr_runtime::join::JoinOp;
use cedr_runtime::sequence::SequenceOp;
use cedr_runtime::{ConsistencySpec, OperatorShell};
use cedr_streams::{Message, Retraction};
use cedr_temporal::time::{dur, t};
use cedr_temporal::{Event, EventId, Interval, Payload, TimePoint, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn point_events(n: u64, kinds: u64) -> Vec<Event> {
    (0..n)
        .map(|i| {
            Event::primitive(
                EventId(i),
                Interval::new(t(i), t(i + 15)),
                Payload::from_values(vec![Value::Int((i % kinds) as i64)]),
            )
        })
        .collect()
}

/// Figure-7 ablation: the cost of the alignment buffer. The same ordered
/// stream (with per-message CTIs) through a strong shell (every message
/// transits the buffer) vs a middle shell (buffer bypassed).
fn bench_alignment_overhead(c: &mut Criterion) {
    let events = point_events(4_000, 8);
    let mut msgs = Vec::with_capacity(events.len() * 2);
    for e in &events {
        msgs.push(Message::insert_event(e.clone()));
        msgs.push(Message::Cti(e.vs()));
    }
    msgs.push(Message::Cti(TimePoint::INFINITY));

    let mut g = c.benchmark_group("alignment_overhead");
    g.sample_size(10);
    for (name, spec) in [
        ("strong_buffered", ConsistencySpec::strong()),
        ("middle_bypass", ConsistencySpec::middle()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut shell = OperatorShell::new(
                    Box::new(cedr_runtime::stateless::SelectOp::new(Pred::True)),
                    spec,
                );
                let mut n = 0;
                for (i, m) in msgs.iter().enumerate() {
                    n += shell.push(0, m.clone(), i as u64).len();
                }
                n
            })
        });
    }
    g.finish();
}

/// Retraction-cascade cost in the join: fraction of inputs later retracted.
fn bench_join_retraction(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_retraction");
    g.sample_size(10);
    for pct in [0u64, 10, 30] {
        let events = point_events(2_000, 8);
        g.bench_with_input(BenchmarkId::from_parameter(pct), &pct, |b, &pct| {
            b.iter(|| {
                let mut shell = OperatorShell::new(
                    Box::new(
                        JoinOp::new(Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0)))
                            .with_keys(Scalar::Field(0), Scalar::Field(0)),
                    ),
                    ConsistencySpec::middle(),
                );
                let mut n = 0;
                for (i, e) in events.iter().enumerate() {
                    let port = i % 2;
                    n += shell
                        .push(port, Message::insert_event(e.clone()), i as u64)
                        .len();
                    if pct > 0 && (i as u64).is_multiple_of(100 / pct) {
                        let r = Retraction::new(e.clone(), e.vs() + cedr_temporal::Duration(5));
                        n += shell.push(port, Message::Retract(r), i as u64).len();
                    }
                }
                n
            })
        });
    }
    g.finish();
}

/// SC-mode ablation: the Each/Reuse incremental fast path vs the
/// recompute-and-diff path that restrictive modes force.
fn bench_sc_modes(c: &mut Criterion) {
    let events = point_events(600, 4);
    let mut g = c.benchmark_group("sc_modes");
    g.sample_size(10);
    let modes: [(&str, [ScMode; 2]); 3] = [
        ("each_reuse", [ScMode::EACH_REUSE; 2]),
        (
            "first_reuse",
            [
                ScMode::new(Selection::First, Consumption::Reuse),
                ScMode::EACH_REUSE,
            ],
        ),
        (
            "each_consume",
            [
                ScMode::new(Selection::Each, Consumption::Consume),
                ScMode::EACH_REUSE,
            ],
        ),
    ];
    for (name, m) in modes {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut shell = OperatorShell::new(
                    Box::new(SequenceOp::with_modes(2, dur(20), Pred::True, m.to_vec())),
                    ConsistencySpec::middle(),
                );
                let mut n = 0;
                for (i, e) in events.iter().enumerate() {
                    n += shell
                        .push(i % 2, Message::insert_event(e.clone()), i as u64)
                        .len();
                }
                n
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_alignment_overhead,
    bench_join_retraction,
    bench_sc_modes
);
criterion_main!(benches);
