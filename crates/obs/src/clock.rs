//! The clock seam: all wall-clock reads go through [`ObsClock`].
//!
//! Timing-class metrics are inherently non-deterministic, so the engine
//! never reads `Instant::now()` directly — it asks the hub's clock.
//! Production uses [`MonotonicClock`]; determinism tests swap in a
//! [`ManualClock`] to prove that counter-class metrics are unaffected by
//! what the clock returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source. Implementations must be cheap and
/// thread-safe: the engine reads it from drain workers and channel
/// producer threads.
pub trait ObsClock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin. Must be
    /// monotone non-decreasing per clock instance.
    fn now_nanos(&self) -> u64;
}

/// The production clock: nanoseconds since the clock was created,
/// measured with [`Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsClock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // Saturate rather than wrap: u64 nanoseconds cover ~584 years.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked clock for tests: returns exactly what it was told,
/// advancing only via [`ManualClock::set`] / [`ManualClock::advance`].
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin the clock to an absolute reading. Readings are clamped to be
    /// monotone: setting the clock backwards is ignored.
    pub fn set(&self, nanos: u64) {
        self.nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Advance the clock by `delta` nanoseconds.
    pub fn advance(&self, delta: u64) {
        self.nanos.fetch_add(delta, Ordering::Relaxed);
    }
}

impl ObsClock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_obeys_set_and_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.set(100);
        assert_eq!(c.now_nanos(), 100);
        c.advance(50);
        assert_eq!(c.now_nanos(), 150);
        c.set(10); // backwards: ignored
        assert_eq!(c.now_nanos(), 150);
    }
}
