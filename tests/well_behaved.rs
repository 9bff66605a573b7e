//! The central correctness property of the reproduction — Definition 6,
//! **well-behavedness**: "for all (combinations of) inputs to O which are
//! logically equivalent to infinity, O's outputs are also logically
//! equivalent to infinity."
//!
//! Strategy: generate a random logical input (events + provider
//! retractions), deliver it through the simulated unreliable network under
//! several seeds/delays (all deliveries are logically equivalent by
//! construction), run each physical operator at middle consistency, and
//! assert the collected net output always equals the denotational operator
//! applied to the final logical input.

use cedr::algebra::expr::{CmpOp, Pred, Scalar};
use cedr::algebra::relational::AggFunc;
use cedr::runtime::prelude::*;
use cedr::streams::{scramble, Collector, DisorderConfig, Message, StreamBuilder};
use cedr::temporal::time::{dur, t};
use cedr::temporal::{Duration, Event, EventId, Interval, Payload, Value};
use proptest::prelude::*;

/// A randomly generated logical stream: events plus optional retractions.
#[derive(Clone, Debug)]
struct LogicalStream {
    /// (vs, len, payload kind, retract_to_fraction)
    items: Vec<(u64, u64, i64, Option<u8>)>,
    id_base: u64,
}

impl LogicalStream {
    fn events(&self) -> Vec<Event> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, (vs, len, kind, _))| {
                Event::primitive(
                    EventId(self.id_base + i as u64),
                    Interval::new(t(*vs), t(vs + len)),
                    Payload::from_values(vec![Value::Int(*kind)]),
                )
            })
            .collect()
    }

    /// The final logical content after provider retractions.
    fn final_events(&self) -> Vec<Event> {
        self.events()
            .into_iter()
            .zip(self.items.iter())
            .filter_map(|(e, (_, len, _, retract))| match retract {
                None => Some(e),
                Some(frac) => {
                    let keep = *len * (*frac as u64) / 100;
                    let ne = e.shortened(e.vs() + Duration(keep));
                    if ne.interval.is_empty() {
                        None
                    } else {
                        Some(ne)
                    }
                }
            })
            .collect()
    }
}

/// Build the ordered message stream: inserts in sync order, retractions at
/// their sync position, periodic CTIs, sealed.
fn stream_of(ls: &LogicalStream) -> Vec<Message> {
    let mut b = StreamBuilder::new();
    for (e, (_, len, _, retract)) in ls.events().into_iter().zip(ls.items.iter()) {
        b.insert_event(e.clone());
        if let Some(frac) = retract {
            let keep = *len * (*frac as u64) / 100;
            b.retract(e.clone(), e.vs() + Duration(keep));
        }
    }
    b.build_ordered(Some(dur(7)), true)
}

fn arb_stream(id_base: u64, max_n: usize) -> impl Strategy<Value = LogicalStream> {
    prop::collection::vec(
        (0u64..200, 1u64..40, 0i64..4, prop::option::of(0u8..100)),
        1..max_n,
    )
    .prop_map(move |items| LogicalStream { items, id_base })
}

/// Drive a unary module over a scrambled delivery; collect net output.
fn run_unary(
    module: Box<dyn OperatorModule>,
    stream: &[Message],
    seed: u64,
    max_delay: u64,
) -> Collector {
    let mut shell = OperatorShell::new(module, ConsistencySpec::middle());
    let scrambled = scramble(
        stream,
        &DisorderConfig {
            seed,
            max_delay,
            cti_period: Some(5),
            dup_probability: 0.0,
        },
    );
    let mut c = Collector::new();
    for (i, m) in scrambled.into_iter().enumerate() {
        c.push_all(shell.push(0, m, i as u64));
    }
    c
}

/// Drive a binary module with two scrambled streams (alternating).
fn run_binary(
    module: Box<dyn OperatorModule>,
    s0: &[Message],
    s1: &[Message],
    seed: u64,
    max_delay: u64,
) -> Collector {
    let mut shell = OperatorShell::new(module, ConsistencySpec::middle());
    let cfg = |s| DisorderConfig {
        seed: s,
        max_delay,
        cti_period: Some(5),
        dup_probability: 0.0,
    };
    let a = scramble(s0, &cfg(seed));
    let b = scramble(s1, &cfg(seed ^ 0xABCD));
    let mut c = Collector::new();
    let mut tick = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        if i < a.len() {
            c.push_all(shell.push(0, a[i].clone(), tick));
            i += 1;
            tick += 1;
        }
        if j < b.len() {
            c.push_all(shell.push(1, b[j].clone(), tick));
            j += 1;
            tick += 1;
        }
    }
    c
}

fn net_matches_denotational(collector: &Collector, expected: &[Event]) -> bool {
    let got = collector.net_table();
    let want = cedr::algebra::to_table(expected);
    got.star_equal(&want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn select_is_well_behaved(ls in arb_stream(0, 24), seed in 0u64..1000) {
        let pred = Pred::cmp(Scalar::Field(0), CmpOp::Ge, Scalar::lit(2i64));
        let c = run_unary(Box::new(SelectOp::new(pred.clone())), &stream_of(&ls), seed, 60);
        let expected = cedr::algebra::select(&ls.final_events(), &pred);
        prop_assert!(net_matches_denotational(&c, &expected));
    }

    #[test]
    fn window_is_well_behaved(ls in arb_stream(0, 24), seed in 0u64..1000) {
        let c = run_unary(Box::new(AlterLifetimeOp::window(dur(9))), &stream_of(&ls), seed, 60);
        let expected = cedr::algebra::moving_window(&ls.final_events(), dur(9));
        prop_assert!(net_matches_denotational(&c, &expected));
    }

    #[test]
    fn deletes_separation_is_well_behaved(ls in arb_stream(0, 20), seed in 0u64..1000) {
        let c = run_unary(Box::new(AlterLifetimeOp::deletes()), &stream_of(&ls), seed, 60);
        let expected = cedr::algebra::deletes(&ls.final_events());
        prop_assert!(net_matches_denotational(&c, &expected));
    }

    #[test]
    fn count_aggregate_is_well_behaved(ls in arb_stream(0, 20), seed in 0u64..1000) {
        let c = run_unary(
            Box::new(GroupAggregateOp::new(vec![Scalar::Field(0)], AggFunc::Count)),
            &stream_of(&ls),
            seed,
            60,
        );
        let expected = cedr::algebra::group_aggregate(
            &ls.final_events(),
            &[Scalar::Field(0)],
            &AggFunc::Count,
        );
        prop_assert!(net_matches_denotational(&c, &expected));
    }

    #[test]
    fn join_is_well_behaved(
        l in arb_stream(0, 14),
        r in arb_stream(100_000, 14),
        seed in 0u64..1000,
    ) {
        let theta = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        let module = JoinOp::new(theta.clone()).with_keys(Scalar::Field(0), Scalar::Field(0));
        let c = run_binary(Box::new(module), &stream_of(&l), &stream_of(&r), seed, 60);
        let expected = cedr::algebra::join(&l.final_events(), &r.final_events(), &theta);
        prop_assert!(net_matches_denotational(&c, &expected));
    }

    #[test]
    fn sequence_is_well_behaved(
        l in arb_stream(0, 12),
        r in arb_stream(100_000, 12),
        seed in 0u64..1000,
    ) {
        let c = run_binary(
            Box::new(SequenceOp::new(2, dur(25), Pred::True)),
            &stream_of(&l),
            &stream_of(&r),
            seed,
            60,
        );
        // Sequencing consumes occurrences: full removals drop contributors,
        // partial shortenings do not affect Vs.
        let li = l.final_events();
        let ri = r.final_events();
        let expected = cedr::algebra::sequence(&[li, ri], dur(25), &Pred::True);
        let got = c.net_table();
        let want = cedr::algebra::to_table(&expected);
        prop_assert!(got.star_equal(&want), "got {:?} want {:?}", got, want);
    }

    #[test]
    fn unless_is_well_behaved(
        l in arb_stream(0, 12),
        r in arb_stream(100_000, 12),
        seed in 0u64..1000,
    ) {
        let c = run_binary(
            Box::new(NegationOp::unless(dur(15), Pred::True)),
            &stream_of(&l),
            &stream_of(&r),
            seed,
            60,
        );
        let expected = cedr::algebra::unless(
            &l.final_events(),
            &r.final_events(),
            dur(15),
            &Pred::True,
        );
        let got = c.net_table();
        let want = cedr::algebra::to_table(&expected);
        prop_assert!(got.star_equal(&want), "got {:?} want {:?}", got, want);
    }

    #[test]
    fn delivery_order_never_changes_net_input(ls in arb_stream(0, 24), s1 in 0u64..500, s2 in 500u64..1000) {
        // Sanity for the harness itself: two deliveries of the same logical
        // stream are logically equivalent (Definition 1).
        let stream = stream_of(&ls);
        let d1 = scramble(&stream, &DisorderConfig::heavy(s1, 80, 6));
        let d2 = scramble(&stream, &DisorderConfig::heavy(s2, 80, 6));
        let mut c1 = Collector::new();
        c1.push_all(d1);
        let mut c2 = Collector::new();
        c2.push_all(d2);
        prop_assert!(cedr::temporal::logically_equivalent(
            &c1.history(),
            &c2.history(),
            cedr::temporal::EquivalenceOptions::definition1(),
        ));
    }
}
