//! [`ObsHub`] — the shared observability handle.
//!
//! One hub is created per engine and threaded (as an `Arc`) into every
//! place that measures: the engine round loop and its drain workers,
//! the ingest pump and the channel producer handles. It owns the clock
//! seam, the eight latency histograms and the optional trace ring.
//!
//! Hooks are designed so the disabled configuration stays out of the hot
//! path: tracing with the ring off is a single `Option` check, and
//! timing records happen at round/worker granularity, never per message.

use crate::clock::{MonotonicClock, ObsClock};
use crate::hist::Histogram;
use crate::snapshot::TraceStats;
use crate::trace::{TraceEvent, TraceRing};
use std::sync::{Arc, Mutex};

/// All latency histograms, in nanoseconds. Cloned wholesale into
/// [`crate::snapshot::MetricsSnapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timings {
    /// One `run_to_quiescence` drain, end to end.
    pub round_drain: Histogram,
    /// One drain worker's sweep within a parallel round.
    pub shard_drain: Histogram,
    /// First staged admission of a round → that round's output deltas
    /// appended (the ingestion→subscription-visible latency).
    pub ingest_to_delta: Histogram,
    /// Synchronous drain forced by a full ingress on a blocking flush.
    pub flush_block: Histogram,
    /// Channel producer blocked in `send` on the full ingress channel.
    pub channel_block: Histogram,
    /// One pump pass that admitted at least one resequenced round.
    pub pump_step: Histogram,
    /// Checkpoint image serialisation.
    pub checkpoint_write: Histogram,
    /// Checkpoint image restore (validate + rebuild).
    pub checkpoint_restore: Histogram,
}

/// Shared observability state: clock seam + histograms + optional trace
/// ring. Thread-safe; cheap to clone via `Arc`.
pub struct ObsHub {
    clock: Mutex<Arc<dyn ObsClock>>,
    trace: Option<Mutex<TraceRing>>,
    timings: Mutex<Timings>,
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub")
            .field("tracing", &self.tracing())
            .finish_non_exhaustive()
    }
}

impl ObsHub {
    /// A hub with a [`MonotonicClock`] and a trace ring of
    /// `trace_capacity` events (0 disables tracing entirely).
    pub fn new(trace_capacity: usize) -> Self {
        ObsHub {
            clock: Mutex::new(Arc::new(MonotonicClock::new())),
            trace: (trace_capacity > 0).then(|| Mutex::new(TraceRing::new(trace_capacity))),
            timings: Mutex::new(Timings::default()),
        }
    }

    /// Current clock reading in nanoseconds.
    pub fn now(&self) -> u64 {
        self.clock.lock().unwrap().now_nanos()
    }

    /// Swap the clock (tests inject [`crate::ManualClock`] here). Takes
    /// effect for all subsequent readings; histograms already recorded
    /// are untouched.
    pub fn set_clock(&self, clock: Arc<dyn ObsClock>) {
        *self.clock.lock().unwrap() = clock;
    }

    /// Is the trace ring enabled?
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Record a trace event. The closure is only evaluated when tracing
    /// is on, so hooks cost one branch when the ring is disabled.
    pub fn trace(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = &self.trace {
            ring.lock().unwrap().push(make());
        }
    }

    /// Mutate the histograms under the lock.
    pub fn with_timings(&self, f: impl FnOnce(&mut Timings)) {
        f(&mut self.timings.lock().unwrap());
    }

    /// Snapshot (clone) the histograms.
    pub fn timings(&self) -> Timings {
        self.timings.lock().unwrap().clone()
    }

    /// Drain-free view of the trace ring, oldest event first. Empty when
    /// tracing is off.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        match &self.trace {
            Some(ring) => ring.lock().unwrap().events(),
            None => Vec::new(),
        }
    }

    /// Ring occupancy counters for the snapshot.
    pub fn trace_stats(&self) -> TraceStats {
        match &self.trace {
            Some(ring) => {
                let ring = ring.lock().unwrap();
                TraceStats {
                    capacity: ring.capacity() as u64,
                    recorded: ring.recorded(),
                    dropped: ring.dropped(),
                    buffered: ring.len() as u64,
                }
            }
            None => TraceStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn hub_without_tracing_records_nothing_and_skips_closures() {
        let hub = ObsHub::new(0);
        assert!(!hub.tracing());
        hub.trace(|| panic!("must not be evaluated when tracing is off"));
        assert!(hub.trace_events().is_empty());
        assert_eq!(hub.trace_stats(), TraceStats::default());
    }

    #[test]
    fn hub_records_timings_and_traces() {
        let hub = ObsHub::new(4);
        hub.with_timings(|t| t.round_drain.record(500));
        hub.trace(|| TraceEvent::Seal { round: 3 });
        assert_eq!(hub.timings().round_drain.count(), 1);
        assert_eq!(hub.trace_events(), vec![TraceEvent::Seal { round: 3 }]);
        assert_eq!(hub.trace_stats().recorded, 1);
    }

    #[test]
    fn clock_seam_swaps_live() {
        let hub = ObsHub::new(0);
        let manual = Arc::new(ManualClock::new());
        manual.set(42);
        hub.set_clock(manual.clone());
        assert_eq!(hub.now(), 42);
        manual.advance(8);
        assert_eq!(hub.now(), 50);
    }
}
