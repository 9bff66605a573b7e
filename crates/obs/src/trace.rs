//! Structured trace ring buffer.
//!
//! [`TraceEvent`] is a small `Copy` enum — recording one is a couple of
//! stores into a preallocated ring, cheap enough to leave on in
//! production. The ring is bounded: when full it overwrites the oldest
//! event and counts the overwrite in `dropped`, so a long run keeps the
//! most recent window instead of growing without bound.

/// One structured engine event. All payloads are plain integers so the
/// event is `Copy` and recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// `run_to_quiescence` began with this many staged batches.
    RoundStart { round: u64, staged_batches: u32 },
    /// `run_to_quiescence` finished; `nanos` is the drain duration.
    RoundEnd { round: u64, nanos: u64 },
    /// One drain worker ran its queries' rounds: `shard` is the worker
    /// index, `batches`/`messages` the staged input reaching its queries
    /// (parallel path: per worker; serial path: one event for the whole
    /// sweep with worker 0).
    ShardDrain {
        shard: u16,
        batches: u32,
        messages: u32,
        nanos: u64,
    },
    /// An operator consumed one input run of `batch_len` messages.
    OperatorRun {
        query: u16,
        node: u16,
        batch_len: u32,
    },
    /// Ingress admission hit the full engine ingress and drained (or
    /// errored).
    Backpressure,
    /// A channel producer hit the full ingress channel.
    ChannelBackpressure { producer: u64 },
    /// The pump is holding buffered rounds waiting for a slow producer.
    ResequencerStall { waiting_on: u64, buffered: u32 },
    /// A checkpoint image was written.
    Checkpoint { bytes: u64, nanos: u64 },
    /// An image was restored into this engine.
    Restore { bytes: u64, nanos: u64 },
    /// The engine sealed (broadcast CTI(∞)) after this many rounds.
    Seal { round: u64 },
}

/// Bounded ring of [`TraceEvent`]s. Not thread-safe by itself — the hub
/// wraps it in a mutex.
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    recorded: u64,
    dropped: u64,
    capacity: usize,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (`capacity` must be > 0;
    /// a capacity of 0 is represented by not constructing a ring at all).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TraceRing capacity must be > 0");
        TraceRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Append an event, overwriting the oldest when full.
    pub fn push(&mut self, event: TraceEvent) {
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events in arrival order, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Total events ever pushed.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(round: u64) -> TraceEvent {
        TraceEvent::RoundEnd { round, nanos: 0 }
    }

    #[test]
    fn ring_keeps_most_recent_window() {
        let mut r = TraceRing::new(3);
        for i in 0..5 {
            r.push(round(i));
        }
        assert_eq!(r.events(), vec![round(2), round(3), round(4)]);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ring_below_capacity_preserves_order() {
        let mut r = TraceRing::new(8);
        r.push(round(1));
        r.push(round(2));
        assert_eq!(r.events(), vec![round(1), round(2)]);
        assert_eq!(r.dropped(), 0);
    }
}
