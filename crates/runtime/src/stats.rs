//! Per-operator runtime metrics.
//!
//! These are the observables of Figure 8: **blocking** (alignment-buffer
//! residency), **state size** (operational-module + buffer footprint) and
//! **output size** (inserts + retractions emitted). CEDR time is measured
//! in arrival ticks (one per delivered message).

use serde::{Deserialize, Serialize};

/// Counters and high-water marks for one operator shell.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OpStats {
    /// Data messages that arrived at the shell.
    pub arrivals: usize,
    /// Data messages released to the operational module.
    pub released: usize,
    /// Messages dropped because they fell below the memory horizon
    /// (weak-consistency forgetting).
    pub forgotten: usize,
    /// Peak number of messages simultaneously held in the alignment buffer.
    pub held_peak: usize,
    /// Total blocking: Σ over released messages of (release − arrival)
    /// in CEDR ticks.
    pub blocked_ticks: u64,
    /// Number of messages that were held at all (blocked ≥ 1 tick).
    pub blocked_messages: usize,
    /// Peak operational-module state size (events/entries retained).
    pub state_peak: usize,
    /// Module delivery runs (`on_batch` invocations with ≥ 1 message).
    pub batches: usize,
    /// Messages handed to the module inside delivery runs (includes
    /// replayed orphan retractions; excludes parked ones — `released`
    /// counts monitor admissions instead, a different population).
    pub delivered: usize,
    /// Largest single delivery run handed to the module.
    pub batch_peak: usize,
    /// Group-aggregate refresh computations (recompute-and-diff of one
    /// group's step function). The batch-native group-aggregate performs
    /// one refresh per *touched group per run*, so this divided by
    /// `batches` is the stateful amortisation factor — per-message
    /// delivery pays one refresh per state-changing message instead.
    pub group_refreshes: usize,
    /// Join delivery runs probed batch-natively (≥ 2 messages sharing one
    /// frozen candidate-index snapshot: one lookup per distinct key per
    /// run instead of one per message).
    pub probe_batches: usize,
    /// Stateless stages collapsed into this operator by the plan-time
    /// fusion pass (0 for an ordinary, unfused operator; ≥ 2 for a
    /// `FusedStatelessOp`). Summed by [`OpStats::absorb`], so a positive
    /// plan total proves fusion actually engaged rather than silently
    /// falling back to the unfused graph.
    pub fused_stages: usize,
    /// Compiled-kernel sweeps run by a fused node: one per select stage
    /// per delivery run whose selection bitmap was computed over payload
    /// columns (plus the sweeps of the projection gather, counted at the
    /// run that swept them). Summed by [`OpStats::absorb`] like
    /// `fused_stages`, so a positive plan total proves the compiled fast
    /// path is live rather than silently interpreting.
    pub compiled_kernel_runs: usize,
    /// Output inserts emitted.
    pub out_inserts: usize,
    /// Output retractions emitted.
    pub out_retractions: usize,
    /// Output CTIs emitted.
    pub out_ctis: usize,
}

impl cedr_durable::Persist for OpStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.arrivals.encode(out);
        self.released.encode(out);
        self.forgotten.encode(out);
        self.held_peak.encode(out);
        self.blocked_ticks.encode(out);
        self.blocked_messages.encode(out);
        self.state_peak.encode(out);
        self.batches.encode(out);
        self.delivered.encode(out);
        self.batch_peak.encode(out);
        self.group_refreshes.encode(out);
        self.probe_batches.encode(out);
        self.fused_stages.encode(out);
        self.compiled_kernel_runs.encode(out);
        self.out_inserts.encode(out);
        self.out_retractions.encode(out);
        self.out_ctis.encode(out);
    }
    fn decode(r: &mut cedr_durable::Reader<'_>) -> Result<Self, cedr_durable::CodecError> {
        Ok(OpStats {
            arrivals: usize::decode(r)?,
            released: usize::decode(r)?,
            forgotten: usize::decode(r)?,
            held_peak: usize::decode(r)?,
            blocked_ticks: u64::decode(r)?,
            blocked_messages: usize::decode(r)?,
            state_peak: usize::decode(r)?,
            batches: usize::decode(r)?,
            delivered: usize::decode(r)?,
            batch_peak: usize::decode(r)?,
            group_refreshes: usize::decode(r)?,
            probe_batches: usize::decode(r)?,
            fused_stages: usize::decode(r)?,
            compiled_kernel_runs: usize::decode(r)?,
            out_inserts: usize::decode(r)?,
            out_retractions: usize::decode(r)?,
            out_ctis: usize::decode(r)?,
        })
    }
}

impl OpStats {
    /// Figure 8's "Output Size": inserts + retractions.
    pub fn output_size(&self) -> usize {
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
        self.fused_stages += other.fused_stages;
        self.compiled_kernel_runs += other.compiled_kernel_runs;
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
