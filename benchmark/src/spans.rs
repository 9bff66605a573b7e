//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from outside the program — around `stage_batch` +
//! `flush`, `pump`, the `poll` sweep and the checkpoint calls — kept in
//! memory while the run is measured and written out when it ends. Spans of
//! one ingestion round share `round`; `parent` is the index of the causing
//! span in the written array.

use crate::json::Json;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. A disabled recorder records nothing, so the
/// untraced run pays one branch per call site.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index (for use as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        round: u64,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            round,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is not known yet (a thread's root span).
    pub fn open(&mut self, name: &'static str, start: Instant) -> u32 {
        self.record(name, start, start, NO_PARENT, 0)
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }
}

/// Append `other`'s spans after `base`'s, re-pointing parents at the new
/// indices.
pub fn merge(mut base: Vec<Span>, other: Vec<Span>) -> Vec<Span> {
    let offset = base.len() as u32;
    base.extend(other.into_iter().map(|mut s| {
        if s.parent != NO_PARENT {
            s.parent += offset;
        }
        s
    }));
    base
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(s.parent as f64)
                        },
                    ),
                    ("round", Json::Num(s.round as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn merge_repoints_parents_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut a = Recorder::new(true, epoch);
        let root = a.open("engine.loop", epoch);
        a.record(
            "core.pump",
            epoch,
            epoch + Duration::from_nanos(50),
            root,
            3,
        );
        a.close(root, epoch + Duration::from_nanos(90));
        let mut b = Recorder::new(true, epoch);
        let groot = b.open("gen.loop", epoch);
        b.record(
            "core.flush",
            epoch,
            epoch + Duration::from_nanos(20),
            groot,
            3,
        );
        let merged = merge(a.spans, b.spans);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[0].nanos(), 90);
        assert_eq!(
            merged[3].parent, 2,
            "generator child points at the moved root"
        );
        assert_eq!(merged[2].parent, NO_PARENT);
        assert_eq!(merged[3].nanos(), 20);
        assert!(to_json(&merged).render().contains("\"round\":3"));

        let mut off = Recorder::new(false, epoch);
        assert_eq!(off.record("x", epoch, epoch, NO_PARENT, 0), NO_PARENT);
        assert!(off.spans.is_empty());
    }
}
