//! Per-operator runtime metrics.
//!
//! These are the observables of Figure 8: **blocking** (alignment-buffer
//! residency), **state size** (operational-module + buffer footprint) and
//! **output size** (inserts + retractions emitted). CEDR time is measured
//! in arrival ticks (one per delivered message).
//!
//! [`OpStats`] is defined here, at the bottom of the crate graph, so the
//! shell that counts (`cedr-runtime`), the checkpoint that persists
//! (`cedr-durable`) and the snapshot that reports ([`crate::snapshot`])
//! all name one struct.

/// Counters and high-water marks for one operator shell.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Data messages that arrived at the shell.
    pub arrivals: u64,
    /// Data messages released to the operational module.
    pub released: u64,
    /// Messages dropped because they fell below the memory horizon
    /// (weak-consistency forgetting).
    pub forgotten: u64,
    /// Peak number of messages simultaneously held in the alignment buffer.
    pub held_peak: u64,
    /// Total blocking: Σ over released messages of (release − arrival)
    /// in CEDR ticks.
    pub blocked_ticks: u64,
    /// Number of messages that were held at all (blocked ≥ 1 tick).
    pub blocked_messages: u64,
    /// Peak operational-module state size (events/entries retained).
    pub state_peak: u64,
    /// Module delivery runs (`on_batch` invocations with ≥ 1 message).
    pub batches: u64,
    /// Messages handed to the module inside delivery runs (includes
    /// replayed orphan retractions; excludes parked ones — `released`
    /// counts monitor admissions instead, a different population).
    pub delivered: u64,
    /// Largest single delivery run handed to the module.
    pub batch_peak: u64,
    /// Group-aggregate refresh computations (recompute-and-diff of one
    /// group's step function). The batch-native group-aggregate performs
    /// one refresh per *touched group per run*, so this divided by
    /// `batches` is the stateful amortisation factor — per-message
    /// delivery pays one refresh per state-changing message instead.
    pub group_refreshes: u64,
    /// Join delivery runs probed batch-natively (≥ 2 messages sharing one
    /// frozen candidate-index snapshot: one lookup per distinct key per
    /// run instead of one per message).
    pub probe_batches: u64,
    /// Output inserts emitted.
    pub out_inserts: u64,
    /// Output retractions emitted.
    pub out_retractions: u64,
    /// Output CTIs emitted.
    pub out_ctis: u64,
}

impl OpStats {
    /// Figure 8's "Output Size": inserts + retractions.
    pub fn output_size(&self) -> u64 {
        self.out_inserts + self.out_retractions
    }

    /// Mean blocking per released message, in CEDR ticks.
    pub fn mean_blocking(&self) -> f64 {
        if self.released == 0 {
            0.0
        } else {
            self.blocked_ticks as f64 / self.released as f64
        }
    }

    /// Mean messages per module delivery run — the amortisation factor of
    /// the batch scheduler (1.0 ⇔ strictly per-message delivery).
    pub fn mean_batch_len(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.delivered as f64 / self.batches as f64
        }
    }

    /// Fold another operator's stats into this one (plan-level totals).
    pub fn absorb(&mut self, other: &OpStats) {
        self.arrivals += other.arrivals;
        self.released += other.released;
        self.forgotten += other.forgotten;
        self.held_peak = self.held_peak.max(other.held_peak);
        self.blocked_ticks += other.blocked_ticks;
        self.blocked_messages += other.blocked_messages;
        self.state_peak = self.state_peak.max(other.state_peak);
        self.batches += other.batches;
        self.delivered += other.delivered;
        self.batch_peak = self.batch_peak.max(other.batch_peak);
        self.group_refreshes += other.group_refreshes;
        self.probe_batches += other.probe_batches;
        self.out_inserts += other.out_inserts;
        self.out_retractions += other.out_retractions;
        self.out_ctis += other.out_ctis;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_sums_inserts_and_retractions() {
        let s = OpStats {
            out_inserts: 7,
            out_retractions: 3,
            ..OpStats::default()
        };
        assert_eq!(s.output_size(), 10);
    }

    #[test]
    fn mean_blocking_handles_zero() {
        assert_eq!(OpStats::default().mean_blocking(), 0.0);
        let s = OpStats {
            released: 4,
            blocked_ticks: 10,
            ..OpStats::default()
        };
        assert_eq!(s.mean_blocking(), 2.5);
    }

    #[test]
    fn absorb_takes_maxima_and_sums() {
        let mut a = OpStats {
            state_peak: 5,
            out_inserts: 1,
            ..OpStats::default()
        };
        let b = OpStats {
            state_peak: 9,
            out_inserts: 2,
            blocked_ticks: 4,
            ..OpStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.state_peak, 9);
        assert_eq!(a.out_inserts, 3);
        assert_eq!(a.blocked_ticks, 4);
    }
}
