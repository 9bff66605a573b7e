//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` lists the same names (a self-test keeps the two in
//! step); the regression bounds live only there.

use crate::catalog::FAMILIES;
use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// What a user of the engine sees; printed by an untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("events_per_s", "1/s", Higher),
        def("cpu_us_per_event", "us", Lower),
        def("delta_latency_p50_ms", "ms", Lower),
        def("delta_latency_p95_ms", "ms", Lower),
        def("peak_rss_mb", "MB", Lower),
        def("checkpoint_pause_ms", "ms", Lower),
        def("restore_s", "s", Lower),
        def("setup_s", "s", Lower),
    ]
}

/// Single-layer numbers; printed by a traced run.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut m = vec![
        def("core.ingest.flush_us_per_emission", "us", Lower),
        def("core.ingest.channel_block_frac", "frac", Lower),
        def("core.ingest.backpressure_events", "count", Lower),
        def("core.ingest.pump_busy_frac", "frac", Lower),
        def("core.ingest.pump_idle_frac", "frac", Lower),
        def("core.ingest.msgs_per_round", "count", Higher),
        def("core.ingest.buffered_batches_peak", "count", Lower),
        def("streams.resequence.ns_per_batch", "ns", Lower),
        def("core.engine.serial_events_per_s", "1/s", Higher),
        def("core.engine.pipelined_over_serial", "ratio", Higher),
    ];
    for family in FAMILIES {
        m.push(def(format!("runtime.{family}.ns_per_msg"), "ns", Lower));
        m.push(def(format!("runtime.{family}.share"), "frac", Lower));
        m.push(def(
            format!("runtime.{family}.deltas_per_event"),
            "ratio",
            Lower,
        ));
        m.push(def(format!("runtime.{family}.state_peak"), "count", Lower));
    }
    m.extend([
        def("runtime.aggregate.group_refreshes", "count", Lower),
        def("runtime.stateless.interp_ns_per_msg", "ns", Lower),
        def("runtime.stateless.unfused_ns_per_msg", "ns", Lower),
        def("runtime.shell.blocked_messages", "count", Lower),
        def("runtime.shell.held_peak", "count", Lower),
        def("runtime.shell.repair_retractions", "count", Lower),
        def("runtime.shell.strong_over_middle", "ratio", Lower),
        def("streams.collect.ns_per_delta", "ns", Lower),
        def("streams.collect.deltas_per_event", "ratio", Lower),
        def("core.session.poll_ns_per_delta", "ns", Lower),
        def("core.session.poll_busy_frac", "frac", Lower),
        def("core.session.lag_peak", "count", Lower),
        def("core.session.delta_latency_p99_ms", "ms", Lower),
        def("core.session.delta_latency_max_ms", "ms", Lower),
        def("core.checkpoint.image_bytes_per_event", "B", Lower),
        def("core.checkpoint.image_growth", "ratio", Lower),
        def("core.checkpoint.encode_mb_per_s", "MB/s", Higher),
        def("core.checkpoint.restore_mb_per_s", "MB/s", Higher),
        def("lang.compile_us_per_query", "us", Lower),
        def("obs.snapshot_us", "us", Lower),
        def("obs.trace_overhead_frac", "frac", Lower),
        def("gen_s", "s", Lower),
        def("gen_late_max_ms", "ms", Lower),
    ]);
    m
}

/// Measured values keyed by metric name, rendered in declaration order.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for exactly `defs`, in
    /// order. A metric that was never set, or is not finite, is a bug in
    /// the benchmark and is reported as such.
    pub fn render(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(&d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            fields.push((
                d.name.clone(),
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            ));
        }
        Ok(Json::Obj(fields))
    }
}
