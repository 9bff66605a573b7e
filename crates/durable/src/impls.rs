//! [`Persist`] implementations for the temporal and stream substrate types
//! (and the per-operator [`OpStats`] counters) that appear inside engine
//! checkpoints.
//!
//! Two invariants govern every impl here:
//!
//! * **Determinism** — the encoding of a value is a pure function of the
//!   value. Collections that reach this layer are already in a canonical
//!   order (the engine sorts hash-map content before encoding; see
//!   `ResequencerParts` in `cedr-streams`).
//! * **Bit-identity** — decode(encode(x)) == x at the bit level: floats go
//!   through raw IEEE bits, time points through their raw `u64` (tuple
//!   construction, because `TimePoint::new` rejects the `u64::MAX` infinity
//!   sentinel that legitimately appears in open lifetimes).

use crate::codec::{CodecError, Persist, Reader};
use cedr_obs::OpStats;
use cedr_streams::batch::MessageBatch;
use cedr_streams::delta::OutputDelta;
use cedr_streams::message::{Message, Retraction};
use cedr_streams::resequence::{LaneParts, ResequencerParts};
use cedr_temporal::{Duration, Event, EventId, Interval, Lineage, Payload, TimePoint, Value};
use std::sync::Arc;

impl Persist for TimePoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Tuple construction: `TimePoint::new` panics on the infinity
        // sentinel, which is a perfectly valid persisted value.
        Ok(TimePoint(u64::decode(r)?))
    }
}

impl Persist for Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Duration(u64::decode(r)?))
    }
}

impl Persist for Interval {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.end.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let start = TimePoint::decode(r)?;
        let end = TimePoint::decode(r)?;
        Ok(Interval { start, end })
    }
}

impl Persist for EventId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EventId(u64::decode(r)?))
    }
}

impl Persist for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                b.encode(out);
            }
            Value::Int(i) => {
                out.push(2);
                i.encode(out);
            }
            Value::Float(f) => {
                out.push(3);
                f.encode(out);
            }
            Value::Str(s) => {
                out.push(4);
                s.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(bool::decode(r)?)),
            2 => Ok(Value::Int(i64::decode(r)?)),
            3 => Ok(Value::Float(f64::decode(r)?)),
            4 => Ok(Value::Str(Arc::<str>::decode(r)?)),
            b => Err(CodecError::new(format!("invalid Value tag {b:#04x}"))),
        }
    }
}

impl Persist for Payload {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0.len() as u64).encode(out);
        for v in self.0.iter() {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Payload::from_values(Vec::<Value>::decode(r)?))
    }
}

impl Persist for Lineage {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0.len() as u64).encode(out);
        for id in self.0.iter() {
            id.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Lineage::of(Vec::<EventId>::decode(r)?))
    }
}

impl Persist for Event {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.interval.encode(out);
        self.root_time.encode(out);
        self.lineage.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Event {
            id: EventId::decode(r)?,
            interval: Interval::decode(r)?,
            root_time: TimePoint::decode(r)?,
            lineage: Lineage::decode(r)?,
            payload: Payload::decode(r)?,
        })
    }
}

impl Persist for Retraction {
    fn encode(&self, out: &mut Vec<u8>) {
        self.event.encode(out);
        self.new_end.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Direct construction: `Retraction::new` debug-asserts lifetime
        // bounds that are already guaranteed by a well-formed image.
        Ok(Retraction {
            event: Arc::<Event>::decode(r)?,
            new_end: TimePoint::decode(r)?,
        })
    }
}

impl Persist for Message {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Message::Insert(e) => {
                out.push(0);
                e.encode(out);
            }
            Message::Retract(rt) => {
                out.push(1);
                rt.encode(out);
            }
            Message::Cti(t) => {
                out.push(2);
                t.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(Message::Insert(Arc::<Event>::decode(r)?)),
            1 => Ok(Message::Retract(Retraction::decode(r)?)),
            2 => Ok(Message::Cti(TimePoint::decode(r)?)),
            b => Err(CodecError::new(format!("invalid Message tag {b:#04x}"))),
        }
    }
}

impl Persist for OutputDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OutputDelta::Insert { cedr_time, event } => {
                out.push(0);
                cedr_time.encode(out);
                event.encode(out);
            }
            OutputDelta::Retract {
                cedr_time,
                event,
                new_end,
            } => {
                out.push(1);
                cedr_time.encode(out);
                event.encode(out);
                new_end.encode(out);
            }
            OutputDelta::Cti {
                cedr_time,
                guarantee,
            } => {
                out.push(2);
                cedr_time.encode(out);
                guarantee.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(OutputDelta::Insert {
                cedr_time: TimePoint::decode(r)?,
                event: Arc::<Event>::decode(r)?,
            }),
            1 => Ok(OutputDelta::Retract {
                cedr_time: TimePoint::decode(r)?,
                event: Arc::<Event>::decode(r)?,
                new_end: TimePoint::decode(r)?,
            }),
            2 => Ok(OutputDelta::Cti {
                cedr_time: TimePoint::decode(r)?,
                guarantee: TimePoint::decode(r)?,
            }),
            b => Err(CodecError::new(format!("invalid OutputDelta tag {b:#04x}"))),
        }
    }
}

impl Persist for MessageBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for m in self.as_slice() {
            m.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Columnar caches rebuild lazily on first use; only messages are
        // persisted.
        Ok(MessageBatch::from(Vec::<Message>::decode(r)?))
    }
}

impl<T: Persist> Persist for LaneParts<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.base.encode(out);
        self.next_seq.encode(out);
        self.final_seq.encode(out);
        self.buffered.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(LaneParts {
            key: u64::decode(r)?,
            base: u64::decode(r)?,
            next_seq: u64::decode(r)?,
            final_seq: Option::<u64>::decode(r)?,
            buffered: Vec::<(u64, T)>::decode(r)?,
        })
    }
}

impl<T: Persist> Persist for ResequencerParts<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.frontier.encode(out);
        self.lanes.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ResequencerParts {
            frontier: u64::decode(r)?,
            lanes: Vec::<LaneParts<T>>::decode(r)?,
        })
    }
}

/// 15 little-endian `u64`s in declaration order.
impl Persist for OpStats {
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
        self.out_inserts.encode(out);
        self.out_retractions.encode(out);
        self.out_ctis.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(OpStats {
            arrivals: u64::decode(r)?,
            released: u64::decode(r)?,
            forgotten: u64::decode(r)?,
            held_peak: u64::decode(r)?,
            blocked_ticks: u64::decode(r)?,
            blocked_messages: u64::decode(r)?,
            state_peak: u64::decode(r)?,
            batches: u64::decode(r)?,
            delivered: u64::decode(r)?,
            batch_peak: u64::decode(r)?,
            group_refreshes: u64::decode(r)?,
            probe_batches: u64::decode(r)?,
            out_inserts: u64::decode(r)?,
            out_retractions: u64::decode(r)?,
            out_ctis: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};
    use cedr_streams::Resequencer;
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::t;
    use std::fmt;

    fn round_trip<T: Persist + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), v);
    }

    fn sample_event(id: u64) -> Event {
        Event {
            id: EventId(id),
            interval: iv(3, 9),
            root_time: t(3),
            lineage: Lineage::of(vec![EventId(1), EventId(2)]),
            payload: Payload::from_values(vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-5),
                Value::Float(2.75),
                Value::str("cedr"),
            ]),
        }
    }

    #[test]
    fn temporal_types_round_trip() {
        round_trip(TimePoint::INFINITY);
        round_trip(t(42));
        round_trip(Duration(0));
        round_trip(Interval {
            start: t(1),
            end: TimePoint::INFINITY,
        });
        round_trip(EventId(u64::MAX));
        round_trip(sample_event(11));
    }

    #[test]
    fn infinity_survives_decode() {
        // TimePoint::new panics on the sentinel; the codec must not.
        let inf = from_bytes::<TimePoint>(&to_bytes(&TimePoint::INFINITY)).unwrap();
        assert!(!inf.is_finite());
    }

    #[test]
    fn stream_messages_round_trip() {
        let e = Arc::new(sample_event(5));
        round_trip(Message::Insert(e.clone()));
        round_trip(Message::Retract(Retraction {
            event: e.clone(),
            new_end: t(5),
        }));
        round_trip(Message::Cti(t(9)));
        round_trip(OutputDelta::Insert {
            cedr_time: t(0),
            event: e.clone(),
        });
        round_trip(OutputDelta::Retract {
            cedr_time: t(1),
            event: e,
            new_end: t(4),
        });
        round_trip(OutputDelta::Cti {
            cedr_time: t(2),
            guarantee: t(8),
        });
    }

    #[test]
    fn batches_round_trip_by_content() {
        let mut b = MessageBatch::new();
        b.push(Message::insert_event(sample_event(1)));
        b.push_cti(t(4));
        let got = from_bytes::<MessageBatch>(&to_bytes(&b)).unwrap();
        assert_eq!(got.as_slice(), b.as_slice());
    }

    #[test]
    fn resequencer_parts_round_trip_with_buffered_skew() {
        let mut rs: Resequencer<u64> = Resequencer::new();
        rs.register(1);
        rs.register(2);
        rs.accept(2, 0, 20);
        rs.accept(2, 1, 21); // producer 2 ahead; producer 1 owes round 0
        let parts = rs.to_parts();
        let decoded = from_bytes::<ResequencerParts<u64>>(&to_bytes(&parts)).unwrap();
        assert_eq!(decoded, parts);
        let mut rebuilt = Resequencer::from_parts(decoded);
        assert_eq!(rebuilt.buffered(), rs.buffered());
        assert_eq!(rebuilt.open_lanes(), rs.open_lanes());
        // The rebuilt resequencer resumes the exact same canonical order.
        rebuilt.accept(1, 0, 10);
        rebuilt.close(1, 1);
        rebuilt.close(2, 2);
        use cedr_streams::RoundStatus;
        assert_eq!(
            rebuilt.next_round(),
            RoundStatus::Ready(vec![(1, 10), (2, 20)])
        );
        assert_eq!(rebuilt.next_round(), RoundStatus::Ready(vec![(2, 21)]));
        assert_eq!(rebuilt.next_round(), RoundStatus::Idle);
    }

    #[test]
    fn op_stats_wire_layout_is_15_le_u64s_in_field_order() {
        // Checkpoint images embed this layout; a reorder, a resize or a
        // new field must bump `FORMAT_VERSION` instead of landing silently.
        let s = OpStats {
            arrivals: 1,
            released: 2,
            forgotten: 3,
            held_peak: 4,
            blocked_ticks: 5,
            blocked_messages: 6,
            state_peak: 7,
            batches: 8,
            delivered: 9,
            batch_peak: 10,
            group_refreshes: 11,
            probe_batches: 12,
            out_inserts: 13,
            out_retractions: 14,
            out_ctis: 15,
        };
        let expected: Vec<u8> = (1..=15u64).flat_map(u64::to_le_bytes).collect();
        assert_eq!(to_bytes(&s), expected);
        round_trip(s);
    }

    #[test]
    fn identical_values_encode_identically() {
        assert_eq!(to_bytes(&sample_event(3)), to_bytes(&sample_event(3)));
    }
}
