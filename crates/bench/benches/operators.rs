//! Operator micro-benchmarks: throughput of each physical operator on
//! fixed synthetic workloads (events/sec shapes, not absolute testbed
//! numbers).

use cedr_algebra::expr::{CmpOp, Pred, Scalar};
use cedr_algebra::relational::AggFunc;
use cedr_runtime::aggregate::GroupAggregateOp;
use cedr_runtime::join::JoinOp;
use cedr_runtime::negation::NegationOp;
use cedr_runtime::sequence::SequenceOp;
use cedr_runtime::stateless::{AlterLifetimeOp, SelectOp};
use cedr_runtime::{ConsistencySpec, OperatorModule, OperatorShell};
use cedr_streams::Message;
use cedr_temporal::time::{dur, t};
use cedr_temporal::{Event, EventId, Interval, Payload, TimePoint, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn events(n: u64, kinds: u64) -> Vec<Message> {
    (0..n)
        .map(|i| {
            Message::insert_event(Event::primitive(
                EventId(i),
                Interval::new(t(i), t(i + 20)),
                Payload::from_values(vec![Value::Int((i % kinds) as i64), Value::Int(i as i64)]),
            ))
        })
        .collect()
}

fn drive(module: impl Fn() -> Box<dyn OperatorModule>, msgs: &[Message], two_ports: bool) -> usize {
    let mut shell = OperatorShell::new(module(), ConsistencySpec::middle());
    let mut out = 0;
    for (i, m) in msgs.iter().enumerate() {
        let port = if two_ports { i % 2 } else { 0 };
        out += shell.push(port, m.clone(), i as u64).len();
    }
    out += shell
        .push(0, Message::Cti(TimePoint::INFINITY), msgs.len() as u64)
        .len();
    if two_ports {
        out += shell
            .push(1, Message::Cti(TimePoint::INFINITY), msgs.len() as u64 + 1)
            .len();
    }
    out
}

fn bench_operators(c: &mut Criterion) {
    let n = 4_000u64;
    let msgs = events(n, 16);
    let mut g = c.benchmark_group("operators");
    g.throughput(Throughput::Elements(n));
    g.sample_size(10);

    g.bench_function("select", |b| {
        b.iter(|| {
            drive(
                || {
                    Box::new(SelectOp::new(Pred::cmp(
                        Scalar::Field(1),
                        CmpOp::Ge,
                        Scalar::lit(0i64),
                    )))
                },
                &msgs,
                false,
            )
        })
    });

    g.bench_function("window", |b| {
        b.iter(|| drive(|| Box::new(AlterLifetimeOp::window(dur(10))), &msgs, false))
    });

    g.bench_function("group_count", |b| {
        b.iter(|| {
            drive(
                || {
                    Box::new(GroupAggregateOp::new(
                        vec![Scalar::Field(0)],
                        AggFunc::Count,
                    ))
                },
                &msgs,
                false,
            )
        })
    });

    g.bench_function("equi_join", |b| {
        b.iter(|| {
            drive(
                || {
                    Box::new(
                        JoinOp::new(Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0)))
                            .with_keys(Scalar::Field(0), Scalar::Field(0)),
                    )
                },
                &msgs,
                true,
            )
        })
    });

    g.bench_function("sequence_w20", |b| {
        b.iter(|| {
            drive(
                || Box::new(SequenceOp::new(2, dur(20), Pred::True)),
                &msgs,
                true,
            )
        })
    });

    g.bench_function("unless_w20", |b| {
        b.iter(|| {
            drive(
                || Box::new(NegationOp::unless(dur(20), Pred::True)),
                &msgs,
                true,
            )
        })
    });
    g.finish();
}

fn bench_sequence_scope(c: &mut Criterion) {
    // Ablation: pattern state and match volume vs scope w.
    let msgs = events(2_000, 16);
    let mut g = c.benchmark_group("sequence_scope");
    g.sample_size(10);
    for w in [5u64, 20, 80, 320] {
        g.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            b.iter(|| {
                drive(
                    || Box::new(SequenceOp::new(2, dur(w), Pred::True)),
                    &msgs,
                    true,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_operators, bench_sequence_scope);
criterion_main!(benches);
