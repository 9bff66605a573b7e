//! Integration tests that re-assert every worked example in the paper
//! through the public API (the crate-level unit tests assert them at the
//! module level; here we go through the `cedr` umbrella).

use cedr::temporal::interval::{iv, iv_inf};
use cedr::temporal::time::t;
use cedr::temporal::{
    logically_equivalent_at, logically_equivalent_to, BiTemporalTable, EquivalenceOptions,
    HistoryTable, TimePoint, UniTemporalTable,
};

#[test]
fn figure1_bitemporal_stream() {
    let tbl = BiTemporalTable::figure1();
    assert_eq!(tbl.len(), 4);
    // "at time 2, e0's validity interval is modified to [1, 10)"
    let mods = tbl.modification_events(cedr::temporal::EventId(0));
    assert_eq!(mods[0].valid, iv(1, 10));
    // "at time 3 … e1 is inserted with validity interval [4, 9)"
    let ins = tbl.insert_event(cedr::temporal::EventId(1)).unwrap();
    assert_eq!(ins.valid, iv(4, 9));
    assert_eq!(ins.occurrence, iv_inf(3));
}

#[test]
fn figure2_retraction_and_modification_narrative() {
    let tbl = HistoryTable::figure2();
    // "at CEDR time 3, the stream … contains two events, an insert and a
    // modification that changes the valid time at occurrence time 5."
    // "At CEDR time 7, the stream describes the same valid time change,
    // except at occurrence time 3 instead of 5."
    let final_state = tbl.ideal();
    assert_eq!(final_state.len(), 2);
    assert_eq!(final_state.rows[0].occurrence, iv(1, 3));
    assert_eq!(final_state.rows[1].occurrence, iv_inf(3));
    assert_eq!(final_state.rows[1].valid, iv(1, 10));
}

#[test]
fn figures_3_to_5_canonicalisation_chain() {
    let left = HistoryTable::figure3_left();
    let right = HistoryTable::figure3_right();
    // Figure 4: reduction.
    assert_eq!(left.reduce().rows[0].occurrence, iv(1, 3));
    assert_eq!(right.reduce().rows[0].occurrence, iv(1, 5));
    // Figure 5: canonical to 3 — equal tables.
    let cl = left.canonical_to(t(3));
    let cr = right.canonical_to(t(3));
    assert_eq!(cl.rows[0].occurrence, cr.rows[0].occurrence);
    // "the two streams … are logically equivalent to 3 and at 3."
    let opts = EquivalenceOptions::definition1();
    assert!(logically_equivalent_to(&left, &right, t(3), opts));
    assert!(logically_equivalent_at(&left, &right, t(3), opts));
    assert!(!logically_equivalent_to(
        &left,
        &right,
        TimePoint::INFINITY,
        opts
    ));
}

#[test]
fn figure6_sync_points() {
    let ann = HistoryTable::figure6().annotate();
    assert_eq!(ann[0].sync, t(1));
    assert_eq!(ann[1].sync, t(5));
    let pts = cedr::temporal::sync_points(&ann);
    assert!(pts.contains(&cedr::temporal::SyncPoint {
        occurrence: t(5),
        cedr: t(7)
    }));
}

#[test]
fn figure10_unitemporal_table() {
    let tbl = UniTemporalTable::figure10();
    assert_eq!(tbl.rows[0].interval, iv(1, 5));
    assert_eq!(tbl.rows[1].interval, iv(4, 9));
    // Join of the two rows overlaps on [4,5) — Definition 9's worked shape.
    let joined = cedr::algebra::join(
        &cedr::algebra::from_table(&tbl)[0..1],
        &cedr::algebra::from_table(&tbl)[1..2],
        &cedr::algebra::Pred::True,
    );
    assert_eq!(joined.len(), 1);
    assert_eq!(joined[0].interval, iv(4, 5));
}
