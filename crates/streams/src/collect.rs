//! Collecting a physical stream into its output changelog.
//!
//! The collector stamps every message with CEDR time and appends it to one
//! append-only **delta log** — the paper's output model, a stream of state
//! updates (Section 5). The tritemporal history table of Section 4 is that
//! stream's denotation, not a second store: [`Collector::history`] folds it
//! from the log on demand (valid time doubling as occurrence time in the
//! merged unitemporal regime), so the paper's canonicalisation, equivalence
//! and sync-point machinery applies verbatim to runtime outputs.

use crate::delta::OutputDelta;
use crate::message::{Message, Retraction, Stamped};
use cedr_temporal::{
    ChainKey, HistoryRow, HistoryTable, Interval, TimePoint, UniTemporalRow, UniTemporalTable,
};

/// Aggregate statistics of a collected stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    pub inserts: usize,
    pub retractions: usize,
    pub full_removals: usize,
    pub ctis: usize,
    /// Total output size in the Figure-8 sense: inserts + retractions.
    pub data_messages: usize,
}

/// Folds messages into the **delta log** — the consumable changelog
/// cursored by subscriptions and the collector's only per-message store —
/// plus running statistics. Every other view ([`Collector::history`],
/// [`Collector::stamped`], [`Collector::net_table`]) is derived from the
/// log on demand.
#[derive(Clone, Debug, Default)]
pub struct Collector {
    /// One [`OutputDelta`] per ingested message, in arrival order. Events
    /// are `Arc`-shared with the messages they arrived in, so the log
    /// costs no payload copies.
    deltas: Vec<OutputDelta>,
    stats: StreamStats,
    clock: crate::clock::CedrClock,
    max_cti: Option<TimePoint>,
}

impl Collector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a collector from a previously logged changelog (a restored
    /// checkpoint image): statistics, the highest CTI and the CEDR clock
    /// are re-derived from the log, so the result is indistinguishable
    /// from the collector that logged it.
    pub fn from_deltas(deltas: Vec<OutputDelta>) -> Collector {
        let mut c = Collector {
            clock: crate::clock::CedrClock::from_ticks(deltas.len() as u64),
            ..Collector::default()
        };
        for d in &deltas {
            c.count(d);
        }
        c.deltas = deltas;
        c
    }

    /// Ingest one message.
    pub fn push(&mut self, msg: Message) {
        let cedr_time = self.clock.stamp();
        let delta = match msg {
            Message::Insert(event) => OutputDelta::Insert { cedr_time, event },
            Message::Retract(Retraction { event, new_end }) => OutputDelta::Retract {
                cedr_time,
                event,
                new_end,
            },
            Message::Cti(guarantee) => OutputDelta::Cti {
                cedr_time,
                guarantee,
            },
        };
        self.count(&delta);
        self.deltas.push(delta);
    }

    /// Fold one delta into the running statistics and `max_cti`.
    fn count(&mut self, delta: &OutputDelta) {
        match delta {
            OutputDelta::Insert { .. } => {
                self.stats.inserts += 1;
                self.stats.data_messages += 1;
            }
            OutputDelta::Retract { event, new_end, .. } => {
                self.stats.retractions += 1;
                self.stats.data_messages += 1;
                if *new_end <= event.interval.start {
                    self.stats.full_removals += 1;
                }
            }
            OutputDelta::Cti { guarantee, .. } => {
                self.stats.ctis += 1;
                self.max_cti = Some(
                    self.max_cti
                        .map_or(*guarantee, |m| TimePoint::max_of(m, *guarantee)),
                );
            }
        }
    }

    /// Ingest a whole stream.
    pub fn push_all(&mut self, msgs: impl IntoIterator<Item = Message>) {
        for m in msgs {
            self.push(m);
        }
    }

    /// The tritemporal history table of the stream so far, folded from the
    /// delta log: one row per data delta (an insert's lifetime, a
    /// retraction's shortened lifetime), stamped with its CEDR time.
    pub fn history(&self) -> HistoryTable {
        let mut table = HistoryTable::new();
        for d in &self.deltas {
            let (cedr_time, event, lifetime) = match d {
                OutputDelta::Insert { cedr_time, event } => (cedr_time, event, event.interval),
                OutputDelta::Retract {
                    cedr_time,
                    event,
                    new_end,
                } => (
                    cedr_time,
                    event,
                    Interval::new(event.interval.start, *new_end),
                ),
                OutputDelta::Cti { .. } => continue,
            };
            table.push(HistoryRow {
                id: event.id,
                valid: lifetime,
                occurrence: lifetime,
                cedr: Interval::from(*cedr_time),
                k: ChainKey(event.id.0),
                payload: event.payload.clone(),
            });
        }
        table
    }

    /// The net logical content: the reduced table as a unitemporal table
    /// (each chain collapsed to its final lifetime, removals dropped).
    pub fn net_table(&self) -> UniTemporalTable {
        self.history()
            .reduce()
            .rows
            .into_iter()
            .map(|r| UniTemporalRow::new(r.id, r.occurrence, r.payload))
            .collect()
    }

    /// All messages in arrival order, each stamped with its CEDR time —
    /// the delta log read back as [`Message`]s (an `Arc` bump per entry).
    /// Prefer [`Collector::delta_log`] when comparing two outputs.
    pub fn stamped(&self) -> Vec<Stamped> {
        self.deltas
            .iter()
            .map(|d| {
                let message = match d {
                    OutputDelta::Insert { event, .. } => Message::Insert(event.clone()),
                    OutputDelta::Retract { event, new_end, .. } => Message::Retract(Retraction {
                        event: event.clone(),
                        new_end: *new_end,
                    }),
                    OutputDelta::Cti { guarantee, .. } => Message::Cti(*guarantee),
                };
                Stamped::new(d.cedr_time(), message)
            })
            .collect()
    }

    /// The append-only output changelog, in arrival order — one
    /// [`OutputDelta`] per message ever pushed. Subscriptions cursor into
    /// this slice; see [`Collector::deltas_from`].
    pub fn delta_log(&self) -> &[OutputDelta] {
        &self.deltas
    }

    /// The changelog suffix starting at `cursor` (clamped to the log
    /// length): everything appended since a consumer last read up to
    /// `cursor`. Incremental consumption is `deltas_from(cursor)` + advance
    /// the cursor by the returned length — no state is re-read and nothing
    /// is copied.
    pub fn deltas_from(&self, cursor: usize) -> &[OutputDelta] {
        &self.deltas[cursor.min(self.deltas.len())..]
    }

    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The highest CTI observed (output progress guarantee).
    pub fn max_cti(&self) -> Option<TimePoint> {
        self.max_cti
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::StreamBuilder;
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::t;
    use cedr_temporal::{EquivalenceOptions, Event, EventId, Payload, Value};
    use std::sync::Arc;

    #[test]
    fn collects_inserts_and_retractions_into_chains() {
        let mut b = StreamBuilder::new();
        let e = b.insert(iv(1, 10), Payload::empty());
        b.retract(e, t(4));
        let mut c = Collector::new();
        c.push_all(b.build_ordered(None, true));
        assert_eq!(c.stats().inserts, 1);
        assert_eq!(c.stats().retractions, 1);
        assert_eq!(c.stats().ctis, 1);
        let net = c.net_table();
        assert_eq!(net.len(), 1);
        assert_eq!(net.rows[0].interval, iv(1, 4));
    }

    #[test]
    fn full_removals_vanish_from_net_content() {
        let mut c = Collector::new();
        let e = Event::primitive(EventId(9), iv(2, 8), Payload::empty());
        c.push(Message::insert_event(e.clone()));
        c.push(Message::Retract(Retraction::new(e, t(2))));
        assert_eq!(c.stats().full_removals, 1);
        assert!(c.net_table().is_empty());
    }

    #[test]
    fn scrambled_and_ordered_streams_are_logically_equivalent() {
        use crate::disorder::{scramble, DisorderConfig};
        let mut b = StreamBuilder::new();
        for i in 0..40 {
            let e = b.insert(iv(i, i + 10), Payload::empty());
            if i % 4 == 0 {
                b.retract(e, t(i + 5));
            }
        }
        let ordered = b.build_ordered(Some(cedr_temporal::time::dur(4)), true);
        let scrambled = scramble(&ordered, &DisorderConfig::heavy(13, 25, 6));

        let mut c1 = Collector::new();
        c1.push_all(ordered);
        let mut c2 = Collector::new();
        c2.push_all(scrambled);

        assert!(cedr_temporal::logically_equivalent(
            &c1.history(),
            &c2.history(),
            EquivalenceOptions::definition1(),
        ));
    }

    /// insert a, insert b, shorten a, remove b, CTI — the sequence every
    /// derived view below is folded from.
    fn hand_written() -> (Collector, Arc<Event>, Arc<Event>) {
        let a = Arc::new(Event::primitive(
            EventId(1),
            iv(1, 10),
            Payload::from_values(vec![Value::Int(7)]),
        ));
        let b = Arc::new(Event::primitive(EventId(2), iv(3, 8), Payload::empty()));
        let mut c = Collector::new();
        c.push(Message::Insert(a.clone()));
        c.push(Message::Insert(b.clone()));
        c.push(Message::retract_event(a.clone(), t(4)));
        c.push(Message::retract_event(b.clone(), t(3)));
        c.push(Message::Cti(t(12)));
        (c, a, b)
    }

    #[test]
    fn every_view_is_a_fold_of_the_one_log() {
        let (c, a, b) = hand_written();
        assert_eq!(c.delta_log().len(), 5);
        assert_eq!(
            *c.stats(),
            StreamStats {
                inserts: 2,
                retractions: 2,
                full_removals: 1,
                ctis: 1,
                data_messages: 4,
            }
        );
        assert_eq!(c.max_cti(), Some(t(12)));

        // History: one row per data delta, lifetime as of that delta,
        // stamped with its arrival tick; the CTI contributes no row.
        let row = |e: &Event, lifetime, cs: u64| HistoryRow {
            id: e.id,
            valid: lifetime,
            occurrence: lifetime,
            cedr: Interval::from(t(cs)),
            k: ChainKey(e.id.0),
            payload: e.payload.clone(),
        };
        assert_eq!(
            c.history().rows,
            vec![
                row(&a, iv(1, 10), 0),
                row(&b, iv(3, 8), 1),
                row(&a, iv(1, 4), 2),
                row(&b, iv(3, 3), 3),
            ]
        );

        // Stamped tape: the same five messages, in order.
        assert_eq!(
            c.stamped(),
            vec![
                Stamped::new(t(0), Message::Insert(a.clone())),
                Stamped::new(t(1), Message::Insert(b.clone())),
                Stamped::new(t(2), Message::retract_event(a.clone(), t(4))),
                Stamped::new(t(3), Message::retract_event(b.clone(), t(3))),
                Stamped::new(t(4), Message::Cti(t(12))),
            ]
        );

        // Net content: a shortened to [1, 4), b removed.
        let net = c.net_table();
        assert_eq!(net.len(), 1);
        assert_eq!(net.rows[0].id, a.id);
        assert_eq!(net.rows[0].interval, iv(1, 4));
        assert_eq!(net.rows[0].payload, a.payload);
    }

    #[test]
    fn from_deltas_rebuilds_an_indistinguishable_collector() {
        let (mut c, a, _) = hand_written();
        let mut rebuilt = Collector::from_deltas(c.delta_log().to_vec());
        assert_eq!(rebuilt.delta_log(), c.delta_log());
        assert_eq!(rebuilt.stats(), c.stats());
        assert_eq!(rebuilt.max_cti(), c.max_cti());
        // The clock resumes where the log ends: the next arrival gets the
        // same stamp in both.
        for col in [&mut c, &mut rebuilt] {
            col.push(Message::retract_event(a.clone(), t(2)));
        }
        assert_eq!(rebuilt.delta_log().last(), c.delta_log().last());
        assert_eq!(c.delta_log()[5].cedr_time(), t(5));
    }

    #[test]
    fn deltas_from_reads_the_suffix_past_a_cursor() {
        let (c, _, _) = hand_written();
        assert_eq!(c.deltas_from(2), &c.delta_log()[2..]);
        assert!(c.deltas_from(c.delta_log().len() + 10).is_empty());
    }

    #[test]
    fn cedr_time_stamps_are_sequential() {
        let mut c = Collector::new();
        c.push(Message::Cti(t(1)));
        c.push(Message::Cti(t(2)));
        assert_eq!(c.stamped()[0].cedr_time, t(0));
        assert_eq!(c.stamped()[1].cedr_time, t(1));
        assert_eq!(c.max_cti(), Some(t(2)));
    }
}
