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
use std::collections::BTreeMap;

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

/// Scramble a **sync-ordered** stream into a delayed delivery order: the
/// one-stream case of [`merge_scramble`].
pub fn scramble(source: &[Message], cfg: &DisorderConfig) -> Vec<Message> {
    let merged = merge_scramble(&[(0, source)], cfg);
    merged.into_iter().map(|(_, m)| m).collect()
}

/// Scramble several **sync-ordered** streams onto ONE delivery timeline;
/// each delivered message is tagged with its stream's label.
///
/// Each data message is assigned a delivery key `sync + U[0, max_delay]`
/// (the RNG seeded per stream from `cfg.seed` and the label, so label 0
/// draws from `cfg.seed` itself); with probability `dup_probability` it
/// is delivered a second time under a key of its own. The timeline is
/// stably sorted by key, so cross-stream arrival order tracks
/// application time plus disorder — the realistic regime for
/// multi-provider queries. Source CTIs are discarded and fresh ones are
/// re-derived per stream from what has actually been delivered: after
/// every `cti_period` data messages of a stream, a `CTI(t)` with the
/// largest `t` such that every undelivered message of that stream has
/// `Sync ≥ t` — exactly the "guarantees on input time" an upstream
/// provider could legitimately declare. A stream that was sealed ends
/// with `CTI(∞)`.
pub fn merge_scramble(
    streams: &[(usize, &[Message])],
    cfg: &DisorderConfig,
) -> Vec<(usize, Message)> {
    fn delay(rng: &mut StdRng, max_delay: u64) -> Duration {
        Duration(if max_delay == 0 {
            0
        } else {
            rng.gen_range(0..=max_delay)
        })
    }
    // `(key, tie-break, slot, message)`: a duplicate shares its
    // original's tie-break, so the stable sort keeps the original first.
    let mut keyed: Vec<(TimePoint, usize, usize, Message)> = Vec::new();
    // Per stream: counting multiset of undelivered syncs, which bounds
    // the CTIs the stream may emit.
    let mut remaining: Vec<BTreeMap<TimePoint, usize>> = vec![BTreeMap::new(); streams.len()];
    let mut seq = 0usize;
    for (slot, &(label, msgs)) in streams.iter().enumerate() {
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ (label as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for m in msgs.iter().filter(|m| m.is_data()) {
            let mut deliver = |key| {
                keyed.push((key, seq, slot, m.clone()));
                *remaining[slot].entry(m.sync()).or_insert(0) += 1;
            };
            deliver(m.sync() + delay(&mut rng, cfg.max_delay));
            if cfg.dup_probability > 0.0 && rng.gen_bool(cfg.dup_probability) {
                deliver(m.sync() + delay(&mut rng, cfg.max_delay));
            }
            seq += 1;
        }
    }
    keyed.sort_by_key(|&(key, seq, ..)| (key, seq));

    let mut out = Vec::with_capacity(keyed.len() + streams.len());
    let mut since_cti = vec![0usize; streams.len()];
    let mut last_cti = vec![TimePoint::ZERO; streams.len()];
    for (_, _, slot, m) in keyed {
        let label = streams[slot].0;
        let sync = m.sync();
        let rem = &mut remaining[slot];
        if let Some(count) = rem.get_mut(&sync) {
            *count -= 1;
            if *count == 0 {
                rem.remove(&sync);
            }
        }
        out.push((label, m));
        since_cti[slot] += 1;
        if cfg
            .cti_period
            .is_some_and(|period| since_cti[slot] >= period)
        {
            since_cti[slot] = 0;
            // Safe CTI: no undelivered message of the stream has a
            // smaller sync.
            let safe = rem.keys().next().copied().unwrap_or(TimePoint::INFINITY);
            if safe > last_cti[slot] && safe.is_finite() {
                out.push((label, Message::Cti(safe)));
                last_cti[slot] = safe;
            }
        }
    }
    for &(label, msgs) in streams {
        if matches!(msgs.last(), Some(Message::Cti(t)) if t.is_infinite()) {
            out.push((label, Message::Cti(TimePoint::INFINITY)));
        }
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

    #[test]
    fn merged_streams_carry_duplicates_too() {
        let (a, b) = (ordered_stream(100), ordered_stream(60));
        let cfg = DisorderConfig {
            seed: 11,
            max_delay: 5,
            cti_period: Some(10),
            dup_probability: 0.5,
        };
        let out = merge_scramble(&[(3, &a), (7, &b)], &cfg);
        for (label, originals) in [(3, 100), (7, 60)] {
            let stream: Vec<Message> = out
                .iter()
                .filter(|(l, _)| *l == label)
                .map(|(_, m)| m.clone())
                .collect();
            let data = stream.iter().filter(|m| m.is_data()).count();
            assert!(data > originals, "stream {label}: {data} deliveries");
            assert_ctis_legal(&stream);
            assert_eq!(stream.last(), Some(&Message::Cti(TimePoint::INFINITY)));
        }
    }
}
