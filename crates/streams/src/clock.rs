//! The CEDR server clock.
//!
//! Section 2: CEDR time is "the clock of the stream processing server".
//! The reproduction substitutes a deterministic arrival counter for the
//! server's wall clock: CEDR time only needs to order arrivals and anchor
//! sync points, which a counter does while keeping every run replayable.

use cedr_temporal::TimePoint;

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
    use cedr_temporal::time::t;

    #[test]
    fn cedr_clock_counts_arrivals() {
        let mut c = CedrClock::new();
        assert_eq!(c.peek(), t(0));
        assert_eq!(c.stamp(), t(0));
        assert_eq!(c.stamp(), t(1));
        assert_eq!(c.peek(), t(2));
    }
}
