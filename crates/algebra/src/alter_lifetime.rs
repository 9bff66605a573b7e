//! AlterLifetime (Definition 12) and its derived window operators.
//!
//! `Π_{fVs, f∆}(S) = {(|fVs(e)|, |fVs(e)| + |f∆(e)|, e.Payload) | e ∈ E(S)}`
//!
//! AlterLifetime maps events from one valid-time domain to another: the new
//! `Vs` comes from `fVs`, the new lifetime duration from `f∆`. It is the
//! paper's one **non view-update compliant** (but still well-behaved)
//! operator; from it the paper derives:
//!
//! * moving windows `W_wl(S) = Π_{Vs, min(Ve−Vs, wl)}(S)`;
//! * hopping windows via integer division;
//! * `Inserts(S) = Π_{Vs, ∞}(S)` and `Deletes(S) = Π_{Ve, ∞}(S)`.

use crate::EventSet;
use cedr_temporal::{Duration, Event, Interval, TimePoint};
use serde::{Deserialize, Serialize};

/// The `fVs` function: where the new lifetime starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum VsFn {
    /// Keep `Vs` (windows).
    Vs,
    /// Use `Ve` (the `Deletes` separation).
    Ve,
    /// Snap `Vs` down to a multiple of the period (hopping windows).
    HopVs { period: u64 },
    /// A constant time point.
    Const(TimePoint),
}

impl VsFn {
    pub fn eval(&self, e: &Event) -> TimePoint {
        self.eval_interval(e.interval)
    }

    /// `fVs` only ever reads the validity interval, so it can be evaluated
    /// without an event in hand.
    pub fn eval_interval(&self, interval: Interval) -> TimePoint {
        match self {
            VsFn::Vs => interval.start,
            VsFn::Ve => interval.end,
            VsFn::HopVs { period } => {
                let p = (*period).max(1);
                if interval.start.is_infinite() {
                    interval.start
                } else {
                    TimePoint::new(interval.start.0 / p * p)
                }
            }
            VsFn::Const(t) => *t,
        }
    }
}

/// The `f∆` function: the new lifetime duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaFn {
    /// A constant duration.
    Const(Duration),
    /// Unbounded (`∞`): the inserts/deletes separation.
    Infinite,
    /// `min(Ve − Vs, wl)`: the moving-window clip.
    WindowClip { wl: Duration },
    /// Keep the original duration (`Ve − Vs`): the identity lifetime.
    Original,
}

impl DeltaFn {
    pub fn eval(&self, e: &Event) -> Duration {
        self.eval_interval(e.interval)
    }

    /// Interval-only form of [`DeltaFn::eval`]; see [`VsFn::eval_interval`].
    pub fn eval_interval(&self, interval: Interval) -> Duration {
        match self {
            DeltaFn::Const(d) => *d,
            DeltaFn::Infinite => Duration::INFINITE,
            DeltaFn::WindowClip { wl } => {
                let orig = interval.duration();
                if orig <= *wl {
                    orig
                } else {
                    *wl
                }
            }
            DeltaFn::Original => interval.duration(),
        }
    }
}

/// Definition 12: `Π_{fVs, f∆}(S)`.
///
/// Identity, root time and lineage pass through unchanged — AlterLifetime is
/// "a constrained form of project on the temporal fields".
pub fn alter_lifetime(input: &[Event], fvs: VsFn, fdelta: DeltaFn) -> EventSet {
    input
        .iter()
        .map(|e| {
            let vs = fvs.eval(e);
            let ve = vs + fdelta.eval(e);
            Event {
                id: e.id,
                interval: Interval::new(vs, ve),
                root_time: e.root_time,
                lineage: e.lineage.clone(),
                payload: e.payload.clone(),
            }
        })
        .collect()
}

/// The moving window `W_wl(S) = Π_{Vs, min(Ve−Vs, wl)}(S)`: clips each
/// validity interval to at most `wl`.
pub fn moving_window(input: &[Event], wl: Duration) -> EventSet {
    alter_lifetime(input, VsFn::Vs, DeltaFn::WindowClip { wl })
}

/// A hopping window: lifetimes snap to hop boundaries of `period` ticks and
/// extend for `size` ticks ("one can similarly define hopping windows using
/// integer division").
pub fn hopping_window(input: &[Event], period: u64, size: Duration) -> EventSet {
    alter_lifetime(input, VsFn::HopVs { period }, DeltaFn::Const(size))
}

/// `Inserts(S) = Π_{Vs, ∞}(S)`.
pub fn inserts(input: &[Event]) -> EventSet {
    alter_lifetime(input, VsFn::Vs, DeltaFn::Infinite)
}

/// `Deletes(S) = Π_{Ve, ∞}(S)`.
pub fn deletes(input: &[Event]) -> EventSet {
    alter_lifetime(input, VsFn::Ve, DeltaFn::Infinite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_temporal::interval::{iv, iv_inf};
    use cedr_temporal::time::{dur, t};
    use cedr_temporal::{EventId, Payload};

    fn ev(id: u64, a: u64, b: u64) -> Event {
        Event::primitive(EventId(id), iv(a, b), Payload::empty())
    }

    #[test]
    fn window_clips_long_lifetimes_only() {
        let input = vec![ev(1, 0, 100), ev(2, 10, 12)];
        let out = moving_window(&input, dur(5));
        assert_eq!(out[0].interval, iv(0, 5));
        assert_eq!(out[1].interval, iv(10, 12), "short lifetimes unchanged");
    }

    #[test]
    fn window_of_infinite_lifetime() {
        let e = Event::primitive(EventId(1), iv_inf(3), Payload::empty());
        let out = moving_window(&[e], dur(10));
        assert_eq!(out[0].interval, iv(3, 13));
    }

    #[test]
    fn inserts_extends_to_infinity_from_vs() {
        let out = inserts(&[ev(1, 4, 9)]);
        assert_eq!(out[0].interval, iv_inf(4));
    }

    #[test]
    fn deletes_extends_to_infinity_from_ve() {
        let out = deletes(&[ev(1, 4, 9)]);
        assert_eq!(out[0].interval, iv_inf(9));
    }

    #[test]
    fn hopping_window_snaps_to_boundaries() {
        let input = vec![ev(1, 13, 14), ev(2, 19, 20), ev(3, 20, 21)];
        let out = hopping_window(&input, 10, dur(10));
        assert_eq!(out[0].interval, iv(10, 20));
        assert_eq!(out[1].interval, iv(10, 20));
        assert_eq!(out[2].interval, iv(20, 30));
    }

    #[test]
    fn identity_and_lineage_pass_through() {
        let mut e = ev(7, 1, 5);
        e.root_time = t(0);
        let out = alter_lifetime(&[e.clone()], VsFn::Vs, DeltaFn::Original);
        assert_eq!(out[0].id, e.id);
        assert_eq!(out[0].root_time, t(0));
        assert_eq!(out[0].interval, e.interval);
    }

    #[test]
    fn const_vs_relocates_events() {
        let out = alter_lifetime(&[ev(1, 5, 9)], VsFn::Const(t(100)), DeltaFn::Const(dur(2)));
        assert_eq!(out[0].interval, iv(100, 102));
    }

    #[test]
    fn alter_lifetime_is_not_view_update_compliant() {
        // The Definition 11 counterexample: one event [0,10) vs the same
        // payload chopped into [0,5)+[5,10). Equal after `*`, but W_3
        // produces [0,3) vs [0,3)+[5,8): different coalesced states.
        use crate::to_table;
        let whole = vec![ev(1, 0, 10)];
        let chopped = vec![ev(2, 0, 5), ev(3, 5, 10)];
        assert!(to_table(&whole).star_equal(&to_table(&chopped)));
        let w1 = moving_window(&whole, dur(3));
        let w2 = moving_window(&chopped, dur(3));
        assert!(!to_table(&w1).star_equal(&to_table(&w2)));
    }
}
