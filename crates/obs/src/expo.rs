//! Text exposition: Prometheus text format 0.0.4 and a human dashboard.
//!
//! [`MetricsSnapshot::render_prometheus`] emits the classic
//! `# HELP` / `# TYPE` / sample line format (counters, gauges and
//! histograms with a log2 `le` ladder); [`validate_exposition`] is the
//! strict parser the test suite runs over that output. The human
//! [`MetricsSnapshot::render_report`] renders the same snapshot as a
//! fixed-width dashboard for examples and debugging sessions.

use crate::hist::{bucket_bound, Histogram};
use crate::snapshot::MetricsSnapshot;
use crate::stats::OpStats;
use std::fmt::Write as _;

/// One operator metric column: exposition name suffix, whether the value
/// is a monotone counter (vs a gauge/peak), and the accessor.
type NodeColumn = (&'static str, bool, fn(&OpStats) -> u64);

/// Per-node operator metric columns.
const NODE_COLUMNS: &[NodeColumn] = &[
    ("arrivals", true, |s| s.arrivals),
    ("released", true, |s| s.released),
    ("forgotten", true, |s| s.forgotten),
    ("held_peak", false, |s| s.held_peak),
    ("blocked_ticks", true, |s| s.blocked_ticks),
    ("blocked_messages", true, |s| s.blocked_messages),
    ("state_peak", false, |s| s.state_peak),
    ("batches", true, |s| s.batches),
    ("delivered", true, |s| s.delivered),
    ("batch_peak", false, |s| s.batch_peak),
    ("group_refreshes", true, |s| s.group_refreshes),
    ("probe_batches", true, |s| s.probe_batches),
    ("out_inserts", true, |s| s.out_inserts),
    ("out_retractions", true, |s| s.out_retractions),
    ("out_ctis", true, |s| s.out_ctis),
];

/// Escape a label value per the text format: backslash, double-quote and
/// newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Incremental text-format writer.
struct Expo {
    out: String,
}

impl Expo {
    fn new() -> Self {
        Expo { out: String::new() }
    }

    /// Start a metric family: `# HELP` + `# TYPE`.
    fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One sample line. `labels` may be empty.
    fn sample(&mut self, name: &str, labels: &[(&str, String)], value: u64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// A whole histogram family with a log2 `le` ladder truncated at the
    /// highest non-empty bucket.
    fn histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        self.family(name, "histogram", help);
        let mut cumulative = 0u64;
        if let Some(top) = h.highest_bucket() {
            for (i, &b) in h.buckets().iter().enumerate().take(top + 1) {
                cumulative += b;
                self.sample(
                    &format!("{name}_bucket"),
                    &[("le", bucket_bound(i).to_string())],
                    cumulative,
                );
            }
        }
        self.sample(
            &format!("{name}_bucket"),
            &[("le", "+Inf".into())],
            h.count(),
        );
        self.sample(&format!("{name}_sum"), &[], h.sum());
        self.sample(&format!("{name}_count"), &[], h.count());
    }
}

impl MetricsSnapshot {
    /// Render the snapshot in Prometheus text exposition format 0.0.4.
    /// Counter-class fields become `counter`/`gauge` families; the
    /// timing histograms become `histogram` families in nanoseconds.
    /// The output round-trips through [`validate_exposition`].
    pub fn render_prometheus(&self) -> String {
        let mut e = Expo::new();
        let c = &self.counters;

        e.family(
            "cedr_rounds_completed_total",
            "counter",
            "Completed run_to_quiescence rounds",
        );
        e.sample("cedr_rounds_completed_total", &[], c.rounds_completed);
        e.family("cedr_sealed", "gauge", "1 once the engine has sealed");
        e.sample("cedr_sealed", &[], u64::from(c.sealed));
        e.family("cedr_engine_threads", "gauge", "Configured worker threads");
        e.sample("cedr_engine_threads", &[], c.threads);

        // Per-query collector output (the semantic class).
        for (name, kind, help, get) in [
            (
                "cedr_query_output_inserts_total",
                "counter",
                "Insert messages emitted by the query",
                (|q| q.inserts) as fn(&crate::snapshot::QueryCounters) -> u64,
            ),
            (
                "cedr_query_output_retractions_total",
                "counter",
                "Retraction messages emitted by the query",
                |q| q.retractions,
            ),
            (
                "cedr_query_output_full_removals_total",
                "counter",
                "Full-removal retractions emitted by the query",
                |q| q.full_removals,
            ),
            (
                "cedr_query_output_ctis_total",
                "counter",
                "CTI punctuations emitted by the query",
                |q| q.ctis,
            ),
            (
                "cedr_query_output_messages_total",
                "counter",
                "Data messages (inserts + retractions) emitted by the query",
                |q| q.data_messages,
            ),
            (
                "cedr_query_deltas_logged_total",
                "counter",
                "Output delta-log length (subscription-visible changelog)",
                |q| q.deltas_logged,
            ),
        ] {
            e.family(name, kind, help);
            for q in &c.queries {
                e.sample(name, &[("query", q.name.clone())], get(q));
            }
        }
        e.family(
            "cedr_query_output_cti",
            "gauge",
            "Highest CTI observed on the query output",
        );
        for q in &c.queries {
            if let Some(cti) = q.output_cti {
                e.sample("cedr_query_output_cti", &[("query", q.name.clone())], cti);
            }
        }
        e.family(
            "cedr_subscription_lag",
            "gauge",
            "Deltas logged but not yet taken by the subscription cursor",
        );
        for q in &c.queries {
            for s in &q.subscriptions {
                e.sample(
                    "cedr_subscription_lag",
                    &[("query", q.name.clone()), ("subscriber", s.label.clone())],
                    s.lag,
                );
            }
        }

        // Per-node operator counters (the execution class).
        for (suffix, is_counter, get) in NODE_COLUMNS {
            let (name, kind) = if *is_counter {
                (format!("cedr_node_{suffix}_total"), "counter")
            } else {
                (format!("cedr_node_{suffix}"), "gauge")
            };
            e.family(&name, kind, "Per-node operator counter; see OpStats");
            for q in &c.queries {
                for n in &q.nodes {
                    e.sample(
                        &name,
                        &[("query", q.name.clone()), ("node", n.name.clone())],
                        get(&n.stats),
                    );
                }
            }
        }

        // Engine ingress counters.
        let ingress = &c.ingress_total;
        for (name, help, value) in [
            (
                "cedr_ingress_staged_batches_total",
                "Batches staged into the engine ingress",
                ingress.staged_batches,
            ),
            (
                "cedr_ingress_staged_messages_total",
                "Messages staged into the engine ingress",
                ingress.staged_messages,
            ),
            (
                "cedr_ingress_admitted_batches_total",
                "Batches admitted from the ingress into a round",
                ingress.admitted_batches,
            ),
            (
                "cedr_ingress_admitted_messages_total",
                "Messages admitted from the ingress into a round",
                ingress.admitted_messages,
            ),
            (
                "cedr_ingress_backpressure_events_total",
                "Admissions that hit a full ingress or channel",
                ingress.backpressure_events,
            ),
        ] {
            e.family(name, "counter", help);
            e.sample(name, &[], value);
        }

        if let Some(ch) = &c.channel {
            e.family(
                "cedr_channel_open_producers",
                "gauge",
                "Channel producer handles currently alive",
            );
            e.sample("cedr_channel_open_producers", &[], ch.open_producers);
            e.family(
                "cedr_channel_buffered_batches",
                "gauge",
                "Rounds buffered in the resequencer",
            );
            e.sample("cedr_channel_buffered_batches", &[], ch.buffered_batches);
            e.family(
                "cedr_channel_rounds_stalled",
                "gauge",
                "Consecutive pump passes stalled on one producer",
            );
            e.sample("cedr_channel_rounds_stalled", &[], ch.rounds_stalled);
            e.family(
                "cedr_channel_waiting_on",
                "gauge",
                "Producer key blocking resequenced admission",
            );
            if let Some(k) = ch.waiting_on {
                e.sample("cedr_channel_waiting_on", &[], k);
            }
            e.family(
                "cedr_channel_rounds_admitted_total",
                "counter",
                "Rounds admitted through the pump",
            );
            e.sample(
                "cedr_channel_rounds_admitted_total",
                &[],
                ch.rounds_admitted,
            );
            e.family(
                "cedr_channel_batches_admitted_total",
                "counter",
                "Batches admitted through the pump",
            );
            e.sample(
                "cedr_channel_batches_admitted_total",
                &[],
                ch.batches_admitted,
            );
            e.family(
                "cedr_channel_messages_admitted_total",
                "counter",
                "Messages admitted through the pump",
            );
            e.sample(
                "cedr_channel_messages_admitted_total",
                &[],
                ch.messages_admitted,
            );
            e.family(
                "cedr_channel_backpressure_total",
                "counter",
                "Full-channel events, attributed per producer key",
            );
            for &(key, n) in &ch.backpressure_by_producer {
                e.sample(
                    "cedr_channel_backpressure_total",
                    &[("producer", key.to_string())],
                    n,
                );
            }
            let attributed: u64 = ch.backpressure_by_producer.iter().map(|&(_, n)| n).sum();
            if ch.backpressure_total > attributed {
                // Restored from an image predating per-producer attribution.
                e.sample(
                    "cedr_channel_backpressure_total",
                    &[("producer", "unattributed".into())],
                    ch.backpressure_total - attributed,
                );
            }
        }

        e.family(
            "cedr_checkpoints_total",
            "counter",
            "Checkpoint images written",
        );
        e.sample("cedr_checkpoints_total", &[], c.checkpoints.checkpoints);
        e.family(
            "cedr_checkpoint_bytes_total",
            "counter",
            "Checkpoint bytes written",
        );
        e.sample(
            "cedr_checkpoint_bytes_total",
            &[],
            c.checkpoints.checkpoint_bytes,
        );
        e.family("cedr_restores_total", "counter", "Images restored");
        e.sample("cedr_restores_total", &[], c.checkpoints.restores);
        e.family(
            "cedr_restore_bytes_total",
            "counter",
            "Checkpoint bytes restored",
        );
        e.sample("cedr_restore_bytes_total", &[], c.checkpoints.restore_bytes);

        e.family(
            "cedr_trace_recorded_total",
            "counter",
            "Trace events ever recorded",
        );
        e.sample("cedr_trace_recorded_total", &[], self.trace.recorded);
        e.family(
            "cedr_trace_dropped_total",
            "counter",
            "Trace events overwritten by the bounded ring",
        );
        e.sample("cedr_trace_dropped_total", &[], self.trace.dropped);
        e.family("cedr_trace_buffered", "gauge", "Trace events in the ring");
        e.sample("cedr_trace_buffered", &[], self.trace.buffered);
        e.family("cedr_trace_capacity", "gauge", "Trace ring capacity");
        e.sample("cedr_trace_capacity", &[], self.trace.capacity);

        let t = &self.timings;
        for (name, help, h) in [
            (
                "cedr_round_drain_nanos",
                "run_to_quiescence drain duration",
                &t.round_drain,
            ),
            (
                "cedr_shard_drain_nanos",
                "Drain worker sweep duration within a parallel round",
                &t.shard_drain,
            ),
            (
                "cedr_ingest_to_delta_nanos",
                "First staged admission to output deltas appended",
                &t.ingest_to_delta,
            ),
            (
                "cedr_flush_block_nanos",
                "Synchronous drain forced by a full ingress on blocking flush",
                &t.flush_block,
            ),
            (
                "cedr_channel_block_nanos",
                "Producer blocked on the full ingress channel",
                &t.channel_block,
            ),
            (
                "cedr_pump_step_nanos",
                "Pump pass that admitted at least one round",
                &t.pump_step,
            ),
            (
                "cedr_checkpoint_write_nanos",
                "Checkpoint image serialisation",
                &t.checkpoint_write,
            ),
            (
                "cedr_checkpoint_restore_nanos",
                "Checkpoint image restore",
                &t.checkpoint_restore,
            ),
        ] {
            e.histogram(name, help, h);
        }

        e.out
    }

    /// Render a fixed-width human dashboard of the same snapshot.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let c = &self.counters;
        let _ = writeln!(out, "== CEDR engine report ==");
        let _ = writeln!(
            out,
            "rounds completed {:>8}   sealed {}   threads {}",
            c.rounds_completed,
            if c.sealed { "yes" } else { "no " },
            c.threads
        );

        let _ = writeln!(out, "-- queries --");
        for q in &c.queries {
            let cti = match q.output_cti {
                Some(t) if t == u64::MAX => "cti @inf".to_string(),
                Some(t) => format!("cti @{t}"),
                None => "no cti".to_string(),
            };
            let _ = writeln!(
                out,
                "  [{}] {} ({})  inserts {}  retractions {}  ctis {}  deltas {}  {}",
                q.index,
                q.name,
                q.consistency,
                q.inserts,
                q.retractions,
                q.ctis,
                q.deltas_logged,
                cti
            );
            let _ = writeln!(
                out,
                "      ops: arrivals {}  released {}  blocked {}msg/{}t  state peak {}",
                q.total.arrivals,
                q.total.released,
                q.total.blocked_messages,
                q.total.blocked_ticks,
                q.total.state_peak
            );
            for s in &q.subscriptions {
                let _ = writeln!(
                    out,
                    "      subscription {}: position {}  lag {}",
                    s.label, s.position, s.lag
                );
            }
        }

        let _ = writeln!(out, "-- ingress --");
        let t = &c.ingress_total;
        let _ = writeln!(
            out,
            "  staged {}/{}msg  admitted {}/{}msg  backpressure {}",
            t.staged_batches,
            t.staged_messages,
            t.admitted_batches,
            t.admitted_messages,
            t.backpressure_events
        );

        if let Some(ch) = &c.channel {
            let _ = writeln!(out, "-- channel pump --");
            let stall = match ch.waiting_on {
                Some(k) => format!(
                    "waiting on producer {k} ({} pump passes stalled)",
                    ch.rounds_stalled
                ),
                None => "not stalled".to_string(),
            };
            let _ = writeln!(
                out,
                "  open producers {}  buffered rounds {}  {}",
                ch.open_producers, ch.buffered_batches, stall
            );
            let _ = writeln!(
                out,
                "  admitted: {} rounds / {} batches / {} messages",
                ch.rounds_admitted, ch.batches_admitted, ch.messages_admitted
            );
            if ch.backpressure_total > 0 {
                let by = ch
                    .backpressure_by_producer
                    .iter()
                    .map(|(k, n)| format!("p{k}:{n}"))
                    .collect::<Vec<_>>()
                    .join("  ");
                let _ = writeln!(
                    out,
                    "  backpressure {} total  [{}]",
                    ch.backpressure_total, by
                );
            }
        }

        let ck = &c.checkpoints;
        if ck.checkpoints > 0 || ck.restores > 0 {
            let _ = writeln!(out, "-- durability --");
            let _ = writeln!(
                out,
                "  {} checkpoints ({} bytes)  {} restores ({} bytes)",
                ck.checkpoints, ck.checkpoint_bytes, ck.restores, ck.restore_bytes
            );
        }

        let _ = writeln!(out, "-- timings --");
        for (label, h) in [
            ("round drain    ", &self.timings.round_drain),
            ("drain worker   ", &self.timings.shard_drain),
            ("ingest→delta   ", &self.timings.ingest_to_delta),
            ("flush block    ", &self.timings.flush_block),
            ("channel block  ", &self.timings.channel_block),
            ("pump step      ", &self.timings.pump_step),
            ("checkpoint     ", &self.timings.checkpoint_write),
            ("restore        ", &self.timings.checkpoint_restore),
        ] {
            if h.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "  {label} n={:<6} mean {:>9}  p50 ≈{:>9}  p99 ≈{:>9}  max {:>9}",
                h.count(),
                fmt_nanos(h.mean()),
                fmt_nanos(h.approx_quantile(0.5)),
                fmt_nanos(h.approx_quantile(0.99)),
                fmt_nanos(h.max())
            );
        }

        if self.trace.capacity > 0 {
            let _ = writeln!(
                out,
                "-- trace --\n  {} recorded  {} buffered  {} dropped  (capacity {})",
                self.trace.recorded, self.trace.buffered, self.trace.dropped, self.trace.capacity
            );
        }
        out
    }
}

/// Human-format a nanosecond quantity.
pub fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// What [`validate_exposition`] measured.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// `# TYPE`-declared metric families.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A parsed sample line: metric name, label pairs, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Parse one sample line into `(name, labels, value)`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unclosed label set: {line}"))?;
            (
                &line[..brace],
                Some((&line[brace + 1..close], &line[close + 1..])),
            )
        }
        None => {
            let sp = line
                .find([' ', '\t'])
                .ok_or_else(|| format!("no value: {line}"))?;
            (&line[..sp], None::<(&str, &str)>)
        }
    };
    if !valid_metric_name(name_part) {
        return Err(format!("bad metric name: {name_part}"));
    }
    let (labels, value_part) = match rest {
        Some((label_str, tail)) => {
            let mut labels = Vec::new();
            let mut src = label_str;
            while !src.is_empty() {
                let eq = src
                    .find('=')
                    .ok_or_else(|| format!("label without '=': {src}"))?;
                let key = &src[..eq];
                if !valid_label_name(key) {
                    return Err(format!("bad label name: {key}"));
                }
                let after = &src[eq + 1..];
                if !after.starts_with('"') {
                    return Err(format!("unquoted label value: {src}"));
                }
                // Scan the quoted value honouring backslash escapes.
                let mut val = String::new();
                let mut it = after[1..].char_indices();
                let mut end = None;
                while let Some((i, c)) = it.next() {
                    match c {
                        '\\' => match it.next() {
                            Some((_, 'n')) => val.push('\n'),
                            Some((_, e)) => val.push(e),
                            None => return Err(format!("dangling escape: {src}")),
                        },
                        '"' => {
                            end = Some(i);
                            break;
                        }
                        _ => val.push(c),
                    }
                }
                let end = end.ok_or_else(|| format!("unterminated label value: {src}"))?;
                labels.push((key.to_string(), val));
                src = &after[1 + end + 1..];
                src = src.strip_prefix(',').unwrap_or(src);
            }
            (labels, tail.trim())
        }
        None => {
            let sp = line.find([' ', '\t']).unwrap();
            (Vec::new(), line[sp..].trim())
        }
    };
    // Value (and optional timestamp, which we reject for simplicity —
    // our renderer never emits one).
    let value = match value_part {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|e| format!("bad sample value {v:?}: {e}"))?,
    };
    Ok((name_part.to_string(), labels, value))
}

/// Family name a sample belongs to: histogram samples report under their
/// base name.
fn family_of(sample_name: &str, histogram_families: &[String]) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            if histogram_families.iter().any(|f| f == base) {
                return base.to_string();
            }
        }
    }
    sample_name.to_string()
}

/// Strictly validate Prometheus text exposition format 0.0.4 as emitted
/// by [`MetricsSnapshot::render_prometheus`]: every sample must belong to
/// a previously `# TYPE`-declared family, histogram `le` ladders must be
/// increasing with non-decreasing cumulative counts, and the `+Inf`
/// bucket must equal `_count`.
pub fn validate_exposition(text: &str) -> Result<ExpositionSummary, String> {
    const KINDS: &[&str] = &["counter", "gauge", "histogram", "summary", "untyped"];
    let mut types: Vec<(String, String)> = Vec::new(); // (family, kind)
    let mut histograms: Vec<String> = Vec::new();
    // Per histogram family: bucket ladder (le, cumulative), sum, count.
    #[derive(Default)]
    struct HistState {
        ladder: Vec<(f64, f64)>,
        count: Option<f64>,
    }
    let mut hist_state: Vec<(String, HistState)> = Vec::new();
    let mut summary = ExpositionSummary::default();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let ctx = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or_default();
                let kind = parts.next().unwrap_or_default();
                if !valid_metric_name(name) {
                    return Err(ctx(format!("bad family name {name:?}")));
                }
                if !KINDS.contains(&kind) {
                    return Err(ctx(format!("bad metric kind {kind:?}")));
                }
                if types.iter().any(|(n, _)| n == name) {
                    return Err(ctx(format!("duplicate TYPE for {name}")));
                }
                types.push((name.to_string(), kind.to_string()));
                if kind == "histogram" {
                    histograms.push(name.to_string());
                    hist_state.push((name.to_string(), HistState::default()));
                }
                summary.families += 1;
            } else if comment.strip_prefix("HELP ").is_none() {
                return Err(ctx(format!("unknown comment: {line}")));
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line).map_err(ctx)?;
        let family = family_of(&name, &histograms);
        let Some((_, kind)) = types.iter().find(|(n, _)| *n == family) else {
            return Err(ctx(format!("sample {name} has no TYPE declaration")));
        };
        if kind == "counter" && value < 0.0 {
            return Err(ctx(format!("negative counter {name} = {value}")));
        }
        if kind == "histogram" {
            let state = &mut hist_state.iter_mut().find(|(n, _)| *n == family).unwrap().1;
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .ok_or_else(|| ctx(format!("bucket without le label: {line}")))?;
                let bound = if le.1 == "+Inf" {
                    f64::INFINITY
                } else {
                    le.1.parse::<f64>()
                        .map_err(|e| ctx(format!("bad le {:?}: {e}", le.1)))?
                };
                if let Some(&(prev_bound, prev_cum)) = state.ladder.last() {
                    if bound <= prev_bound {
                        return Err(ctx(format!("le ladder not increasing in {family}")));
                    }
                    if value < prev_cum {
                        return Err(ctx(format!("cumulative count decreased in {family}")));
                    }
                }
                state.ladder.push((bound, value));
            } else if name.ends_with("_count") {
                state.count = Some(value);
            }
        }
        summary.samples += 1;
    }

    for (family, state) in &hist_state {
        let Some(&(last_bound, last_cum)) = state.ladder.last() else {
            return Err(format!("histogram {family} has no buckets"));
        };
        if last_bound != f64::INFINITY {
            return Err(format!("histogram {family} missing +Inf bucket"));
        }
        match state.count {
            Some(count) if count == last_cum => {}
            Some(count) => {
                return Err(format!(
                    "histogram {family}: +Inf bucket {last_cum} != count {count}"
                ))
            }
            None => return Err(format!("histogram {family} missing _count")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ChannelCounters, NodeCounters, QueryCounters};

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.rounds_completed = 12;
        snap.counters.threads = 4;
        snap.counters.ingress_total.staged_messages = 30;
        let mut q = QueryCounters {
            index: 0,
            name: "load\"avg\"".into(), // exercises label escaping
            consistency: "Strong".into(),
            inserts: 100,
            retractions: 3,
            ctis: 9,
            deltas_logged: 112,
            output_cti: Some(47),
            ..Default::default()
        };
        q.nodes.push(NodeCounters {
            name: "0:Select".into(),
            ..Default::default()
        });
        q.subscriptions.push(crate::snapshot::SubscriptionLag {
            label: "dash".into(),
            position: 100,
            lag: 12,
        });
        snap.counters.queries.push(q);
        snap.counters.channel = Some(ChannelCounters {
            open_producers: 2,
            backpressure_total: 5,
            backpressure_by_producer: vec![(1, 2), (7, 3)],
            ..Default::default()
        });
        snap.timings.round_drain.record(1_000);
        snap.timings.round_drain.record(9_000);
        snap.trace.capacity = 64;
        snap.trace.recorded = 10;
        snap.trace.buffered = 10;
        snap
    }

    #[test]
    fn rendered_prometheus_validates() {
        let text = sample_snapshot().render_prometheus();
        let summary = validate_exposition(&text).expect("output must parse");
        assert!(summary.families > 20, "families = {}", summary.families);
        assert!(summary.samples > 30, "samples = {}", summary.samples);
        assert!(text.contains("cedr_rounds_completed_total 12"));
        assert!(text.contains("\ncedr_ingress_staged_messages_total 30\n"));
        assert!(text.contains("producer=\"7\"} 3"));
        assert!(text.contains("query=\"load\\\"avg\\\"\""));
    }

    #[test]
    fn validator_rejects_malformed_exposition() {
        for bad in [
            "cedr_x 1",                                              // no TYPE
            "# TYPE cedr_x counter\ncedr_x{le=\"a} 1",               // unterminated label
            "# TYPE cedr_x counter\ncedr_x oops",                    // bad value
            "# TYPE cedr_x histogram\ncedr_x_sum 0\ncedr_x_count 0", // no buckets
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted: {bad:?}");
        }
        // Histogram with a decreasing ladder.
        let bad = "# TYPE h histogram\nh_bucket{le=\"4\"} 2\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3";
        assert!(validate_exposition(bad).is_err());
    }

    #[test]
    fn report_mentions_every_section() {
        let text = sample_snapshot().render_report();
        for needle in [
            "CEDR engine report",
            "queries",
            "ingress",
            "channel pump",
            "timings",
            "trace",
            "subscription dash",
            "waiting on",
        ] {
            // `waiting on` appears as `not stalled` when None — accept either.
            if needle == "waiting on" {
                assert!(
                    text.contains("not stalled") || text.contains("waiting on"),
                    "missing stall line in:\n{text}"
                );
            } else {
                assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
            }
        }
    }

    #[test]
    fn fmt_nanos_scales_units() {
        assert_eq!(fmt_nanos(5), "5ns");
        assert_eq!(fmt_nanos(1_500), "1.50µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
