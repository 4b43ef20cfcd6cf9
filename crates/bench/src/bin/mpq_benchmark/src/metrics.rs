//! The metric registry: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. The
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! below keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `--compare` calls it regressed. `None`: reported only.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off, defined and non-zero on every workload:
/// `BENCHMARK.json`'s `end_to_end`, which the pipeline gates on.
pub const END_TO_END: [MetricDef; 6] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("ops_per_s", "1/s", Higher, 0.25),
    gated("latency_p50_ms", "ms", Lower, 0.25),
    gated("latency_p99_ms", "ms", Lower, 0.25),
    gated("cpu_ms_per_op", "ms", Lower, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.15),
];

/// End-to-end by nature, but zero or undefined on some workload, which
/// the pipeline's `end_to_end` list does not allow: listed under
/// `per_layer` in `BENCHMARK.json` and printed by the traced run there,
/// while a full run still prints them with the end-to-end set and
/// `--compare` still applies these bounds (README, "Demoted metrics").
pub const DEMOTED: [MetricDef; 5] = [
    // Any increase from 0 is a regression; `compare` special-cases it.
    gated("failed_frac", "ratio", Lower, 0.0),
    gated("writes_per_s", "1/s", Higher, 0.25),
    gated("write_latency_p50_ms", "ms", Lower, 0.25),
    gated("write_latency_p99_ms", "ms", Lower, 0.25),
    gated("stored_bytes_per_user_byte", "ratio", Lower, 0.02),
];

/// One entry per layer measurement of the traced run; layer = module.
pub const PER_LAYER: [MetricDef; 59] = [
    layer("protocol.request_encode_us", "us", Lower),
    layer("protocol.request_decode_us", "us", Lower),
    layer("protocol.response_encode_us", "us", Lower),
    layer("protocol.response_decode_us", "us", Lower),
    layer("protocol.response_bytes", "bytes", Lower),
    layer("server.transport_us", "us", Lower),
    layer("server.client_scaling", "ratio", Higher),
    layer("server.refused", "count", Lower),
    layer("client.roundtrip_us", "us", Lower),
    layer("sql.parse_us", "us", Lower),
    layer("rewrite.rewrite_us", "us", Lower),
    layer("optimizer.plan_us", "us", Lower),
    layer("optimizer.plan_changed_frac", "ratio", Higher),
    layer("engine.query_cold_us", "us", Lower),
    layer("engine.query_warm_us", "us", Lower),
    layer("engine.overhead_us", "us", Lower),
    layer("engine.plan_cache_hit_frac", "ratio", Higher),
    layer("display.plan_text_us", "us", Lower),
    layer("exec.execute_us", "us", Lower),
    layer("exec.execute_dop1_us", "us", Lower),
    layer("exec.parallel_speedup", "ratio", Higher),
    layer("exec.heap_pages_read", "count", Lower),
    layer("exec.index_pages_read", "count", Lower),
    layer("exec.pages_skipped", "count", Higher),
    layer("exec.rows_examined", "count", Lower),
    layer("exec.output_rows", "count", Higher),
    layer("exec.rows_examined_per_output_row", "ratio", Lower),
    layer("vectorized.compile_us", "us", Lower),
    layer("vectorized.memo_hits", "count", Higher),
    layer("vectorized.cascade_accepts", "count", Higher),
    layer("vectorized.cascade_rejects", "count", Higher),
    layer("vectorized.band_rows", "count", Lower),
    layer("vectorized.clauses_reordered", "count", Higher),
    layer("vectorized.factor_hits", "count", Higher),
    layer("vectorized.reference_ratio", "ratio", Higher),
    layer("models.scorer_us", "us", Lower),
    layer("models.invocations", "count", Lower),
    layer("models.predict_ns_per_row", "ns", Lower),
    layer("catalog.table_load_s", "s", Lower),
    layer("catalog.index_build_s", "s", Lower),
    layer("catalog.train_s", "s", Lower),
    layer("catalog.derive_envelopes_s", "s", Lower),
    layer("persist.insert_memory_us", "us", Lower),
    layer("persist.insert_durable_us", "us", Lower),
    layer("persist.wal_cost_us", "us", Lower),
    layer("persist.wal_bytes_per_insert", "bytes", Lower),
    layer("persist.checkpoint_s", "s", Lower),
    layer("persist.snapshot_bytes", "bytes", Lower),
    layer("persist.recovery_us_per_record", "us", Lower),
    layer("subscribe.match_cost_us", "us", Lower),
    layer("subscribe.subs_matched", "count", Higher),
    layer("subscribe.subs_index_pruned", "count", Higher),
    layer("subscribe.pruned_frac", "ratio", Higher),
    layer("notify.delivered", "count", Higher),
    layer("notify.gaps", "count", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.statements", "count", Higher),
    layer("trace.spans", "count", Higher),
    layer("trace.replay_s", "s", Lower),
];

/// Everything a full run prints as end to end, in print order.
pub fn user_visible() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(&DEMOTED)
}

/// Everything the traced run prints: `BENCHMARK.json`'s `per_layer`.
pub fn traced() -> impl Iterator<Item = &'static MetricDef> {
    DEMOTED.iter().chain(&PER_LAYER)
}

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(&DEMOTED)
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::{self, Value};

    pub(crate) fn benchmark_json() -> Value {
        // The file the pipeline reads, at the repository root.
        json::parse(include_str!("../../../../../../BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn registry_and_benchmark_json_list_the_same_metrics() {
        let doc = benchmark_json();
        let as_listed = |defs: &mut dyn Iterator<Item = &'static MetricDef>, with_bound: bool| {
            defs.map(|d| {
                let bound = if with_bound { d.bound } else { None };
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    bound,
                )
            })
            .collect::<Vec<_>>()
        };
        assert_eq!(
            listed(&doc, "end_to_end"),
            as_listed(&mut END_TO_END.iter(), true)
        );
        assert_eq!(listed(&doc, "per_layer"), as_listed(&mut traced(), false));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&DEMOTED)
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for m in END_TO_END.iter().chain(&DEMOTED).chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
