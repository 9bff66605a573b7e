//! The unreliable-delivery substrate.
//!
//! The paper attributes out-of-order delivery to "unreliable network
//! protocols, system crash recovery, and other anomalies in the physical
//! world" (Section 2). We do not have the authors' enterprise network, so
//! this module simulates one: a seeded, parameterised scrambler that perturbs a sync-ordered stream into
//! a logically equivalent, physically disordered one, re-issuing *valid*
//! CTIs at a configurable frequency.
//!
//! The two knobs map directly onto Figure 8's "Orderliness" axis:
//! `max_delay` controls how far events stray from sync order, and
//! `cti_period` controls "the frequency of application declared sync
//! points".

use crate::message::Message;
use cedr_temporal::{Duration, TimePoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the simulated unreliable channel.
#[derive(Clone, Debug)]
pub struct DisorderConfig {
    /// RNG seed; equal seeds reproduce identical deliveries.
    pub seed: u64,
    /// Maximum delivery delay, in application-time ticks. `0` = in-order.
    pub max_delay: u64,
    /// Emit a CTI after every `cti_period` delivered data messages
    /// (`None` = no CTIs at all).
    pub cti_period: Option<usize>,
    /// Probability that a data message is duplicated (at-least-once
    /// delivery). Duplicates are benign for well-behaved operators that
    /// deduplicate by event identity; default 0.
    pub dup_probability: f64,
}

impl DisorderConfig {
    /// Perfectly ordered delivery with per-message CTIs: the "high
    /// orderliness" end of Figure 8.
    pub fn ordered(seed: u64) -> Self {
        DisorderConfig {
            seed,
            max_delay: 0,
            cti_period: Some(1),
            dup_probability: 0.0,
        }
    }

    /// Heavy disorder with sparse CTIs: the "low orderliness" end.
    pub fn heavy(seed: u64, max_delay: u64, cti_period: usize) -> Self {
        DisorderConfig {
            seed,
            max_delay,
            cti_period: Some(cti_period),
            dup_probability: 0.0,
        }
    }
}

/// Scramble a **sync-ordered** stream into a delayed delivery order.
///
/// Each data message is assigned a delivery key `sync + U[0, max_delay]`;
/// messages are stably sorted by that key. Source CTIs are discarded and
/// fresh ones are re-derived from what has actually been delivered: after
/// every `cti_period` data messages a `CTI(t)` is emitted with the largest
/// `t` such that every undelivered message has `Sync ≥ t` — exactly the
/// "guarantees on input time" an upstream provider could legitimately
/// declare. A final `CTI(∞)` seals the stream if the source was sealed.
pub fn scramble(source: &[Message], cfg: &DisorderConfig) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sealed = matches!(source.last(), Some(Message::Cti(t)) if t.is_infinite());

    // Assign delivery keys to data messages only.
    let mut keyed: Vec<(TimePoint, usize, Message)> = Vec::with_capacity(source.len());
    for (i, m) in source.iter().enumerate() {
        if !m.is_data() {
            continue;
        }
        let delay = if cfg.max_delay == 0 {
            0
        } else {
            rng.gen_range(0..=cfg.max_delay)
        };
        let key = m.sync() + Duration(delay);
        keyed.push((key, i, m.clone()));
        if cfg.dup_probability > 0.0 && rng.gen_bool(cfg.dup_probability) {
            let extra = if cfg.max_delay == 0 {
                0
            } else {
                rng.gen_range(0..=cfg.max_delay)
            };
            keyed.push((m.sync() + Duration(extra), i, m.clone()));
        }
    }
    keyed.sort_by_key(|(key, i, _)| (*key, *i));

    // Counting multiset of undelivered syncs: bounds the CTIs we may emit.
    let mut remaining: std::collections::BTreeMap<TimePoint, usize> =
        std::collections::BTreeMap::new();
    for (_, _, m) in &keyed {
        *remaining.entry(m.sync()).or_insert(0) += 1;
    }

    let mut out = Vec::with_capacity(
        keyed.len() + keyed.len() / cfg.cti_period.unwrap_or(usize::MAX).max(1) + 2,
    );
    let mut since_cti = 0usize;
    let mut last_cti = TimePoint::ZERO;
    for (_, _, m) in keyed {
        let sync = m.sync();
        if let Some(count) = remaining.get_mut(&sync) {
            *count -= 1;
            if *count == 0 {
                remaining.remove(&sync);
            }
        }
        out.push(m);
        since_cti += 1;
        if let Some(period) = cfg.cti_period {
            if since_cti >= period {
                since_cti = 0;
                // Safe CTI: no undelivered message has a smaller sync.
                let safe = remaining
                    .keys()
                    .next()
                    .copied()
                    .unwrap_or(TimePoint::INFINITY);
                if safe > last_cti && safe.is_finite() {
                    out.push(Message::Cti(safe));
                    last_cti = safe;
                }
            }
        }
    }
    if sealed {
        out.push(Message::Cti(TimePoint::INFINITY));
    }
    out
}

/// Measure disorder of a delivered stream: the fraction of adjacent data
/// pairs that are out of sync order, and the maximum backwards jump.
pub fn disorder_profile(stream: &[Message]) -> (f64, u64) {
    let syncs: Vec<TimePoint> = stream
        .iter()
        .filter(|m| m.is_data())
        .map(|m| m.sync())
        .collect();
    if syncs.len() < 2 {
        return (0.0, 0);
    }
    let mut inversions = 0usize;
    let mut max_jump = 0u64;
    let mut running_max = syncs[0];
    for w in syncs.windows(2) {
        if w[1] < w[0] {
            inversions += 1;
        }
        if w[1] < running_max {
            if let Some(d) = running_max.since(w[1]) {
                if !d.is_infinite() {
                    max_jump = max_jump.max(d.0);
                }
            }
        }
        running_max = TimePoint::max_of(running_max, w[1]);
    }
    (inversions as f64 / (syncs.len() - 1) as f64, max_jump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::StreamBuilder;
    use cedr_temporal::time::t;
    use cedr_temporal::Payload;

    fn ordered_stream(n: u64) -> Vec<Message> {
        let mut b = StreamBuilder::new();
        for i in 0..n {
            b.insert_at(t(i), Payload::empty());
        }
        b.build_ordered(None, true)
    }

    fn assert_ctis_legal(stream: &[Message]) {
        for (i, m) in stream.iter().enumerate() {
            if let Message::Cti(c) = m {
                for later in &stream[i + 1..] {
                    if later.is_data() {
                        assert!(later.sync() >= *c, "CTI {c} violated by later {later:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_delay_preserves_order() {
        let src = ordered_stream(50);
        let out = scramble(&src, &DisorderConfig::ordered(1));
        let (frac, jump) = disorder_profile(&out);
        assert_eq!(frac, 0.0);
        assert_eq!(jump, 0);
        assert_ctis_legal(&out);
    }

    #[test]
    fn delay_produces_bounded_disorder() {
        let src = ordered_stream(200);
        let cfg = DisorderConfig::heavy(7, 20, 10);
        let out = scramble(&src, &cfg);
        let (frac, jump) = disorder_profile(&out);
        assert!(frac > 0.0, "expected some inversions");
        assert!(jump <= 20, "jump {jump} exceeds max_delay");
        assert_ctis_legal(&out);
    }

    #[test]
    fn scrambling_is_deterministic_per_seed() {
        let src = ordered_stream(100);
        let cfg = DisorderConfig::heavy(42, 15, 5);
        assert_eq!(scramble(&src, &cfg), scramble(&src, &cfg));
        let other = DisorderConfig::heavy(43, 15, 5);
        assert_ne!(scramble(&src, &cfg), scramble(&src, &other));
    }

    #[test]
    fn data_is_preserved_as_a_multiset() {
        let src = ordered_stream(80);
        let cfg = DisorderConfig::heavy(3, 30, 7);
        let out = scramble(&src, &cfg);
        let mut a: Vec<String> = src
            .iter()
            .filter(|m| m.is_data())
            .map(|m| format!("{m:?}"))
            .collect();
        let mut b: Vec<String> = out
            .iter()
            .filter(|m| m.is_data())
            .map(|m| format!("{m:?}"))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn sealed_streams_stay_sealed() {
        let src = ordered_stream(10);
        let out = scramble(&src, &DisorderConfig::heavy(5, 10, 3));
        assert_eq!(out.last(), Some(&Message::Cti(TimePoint::INFINITY)));
    }

    #[test]
    fn duplicates_can_be_injected() {
        let src = ordered_stream(100);
        let cfg = DisorderConfig {
            seed: 11,
            max_delay: 5,
            cti_period: Some(10),
            dup_probability: 0.5,
        };
        let out = scramble(&src, &cfg);
        let data = out.iter().filter(|m| m.is_data()).count();
        assert!(data > 100, "expected duplicated deliveries, got {data}");
        assert_ctis_legal(&out);
    }
}
