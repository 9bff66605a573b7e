//! Clocks.
//!
//! Section 2: "valid time and occurrence time are assigned by the same
//! logical clock of the event provider"; CEDR time is "the clock of the
//! stream processing server". The reproduction substitutes a deterministic
//! arrival counter for the server's wall clock: CEDR time only needs to
//! order arrivals and anchor sync points, which a counter does while
//! keeping every run replayable.

use cedr_temporal::{Duration, TimePoint};

/// An event provider's logical clock: monotone, manually advanced.
#[derive(Clone, Debug)]
pub struct LogicalClock {
    now: TimePoint,
}

impl LogicalClock {
    pub fn starting_at(now: TimePoint) -> Self {
        LogicalClock { now }
    }

    pub fn new() -> Self {
        Self::starting_at(TimePoint::ZERO)
    }

    /// Current provider time.
    pub fn now(&self) -> TimePoint {
        self.now
    }

    /// Advance by `d`, returning the new time.
    pub fn advance(&mut self, d: Duration) -> TimePoint {
        self.now += d;
        self.now
    }

    /// Jump forward to `t`; panics on attempts to move backwards.
    pub fn advance_to(&mut self, t: TimePoint) -> TimePoint {
        assert!(t >= self.now, "logical clocks are monotone");
        self.now = t;
        self.now
    }
}

impl Default for LogicalClock {
    fn default() -> Self {
        Self::new()
    }
}

/// The CEDR server clock: one tick per delivered message.
#[derive(Clone, Debug, Default)]
pub struct CedrClock {
    ticks: u64,
}

impl CedrClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamp the next arrival, advancing the clock.
    pub fn stamp(&mut self) -> TimePoint {
        let t = TimePoint::new(self.ticks);
        self.ticks += 1;
        t
    }

    /// The time the next arrival would be stamped with.
    pub fn peek(&self) -> TimePoint {
        TimePoint::new(self.ticks)
    }

    /// A clock that has already stamped `ticks` arrivals (a collector
    /// rebuilt from its log resumes stamping where the log ends).
    pub fn from_ticks(ticks: u64) -> Self {
        CedrClock { ticks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_temporal::time::{dur, t};

    #[test]
    fn logical_clock_is_monotone() {
        let mut c = LogicalClock::new();
        assert_eq!(c.now(), t(0));
        assert_eq!(c.advance(dur(5)), t(5));
        assert_eq!(c.advance_to(t(9)), t(9));
    }

    #[test]
    #[should_panic]
    fn logical_clock_rejects_backwards_jumps() {
        let mut c = LogicalClock::starting_at(t(10));
        c.advance_to(t(5));
    }

    #[test]
    fn cedr_clock_counts_arrivals() {
        let mut c = CedrClock::new();
        assert_eq!(c.peek(), t(0));
        assert_eq!(c.stamp(), t(0));
        assert_eq!(c.stamp(), t(1));
        assert_eq!(c.peek(), t(2));
    }
}
