//! What the benchmark prints and writes: the pipeline's one-line result,
//! the human-readable tables, the result file, and `--compare`.

use crate::e2e::EndToEnd;
use crate::json::Value;
use crate::metrics::{self, Better, MetricDef};
use crate::stats::{median, relative_spread};
use crate::trace::Traced;
use std::fmt::Write as _;

/// The last line of standard output in pipeline mode: exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`, and under `metrics`
/// exactly the names `values` lists.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: impl Iterator<Item = (&'a MetricDef, f64)>,
) -> Value {
    let metrics = values.map(|(d, value)| {
        (
            d.name,
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(d.unit))]),
        )
    });
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "n/a".to_string(),
        Some(0.0) => "0".to_string(),
        Some(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
        Some(v) if v.abs() >= 10.0 => format!("{v:.2}"),
        Some(v) => format!("{v:.4}"),
    }
}

/// The end-to-end block of one run, one metric per line with its unit,
/// and the sample count beside every percentile.
pub fn print_end_to_end(out: &mut String, r: &EndToEnd) {
    let w = &r.window;
    writeln!(
        out,
        "{} (seed {}, inputs {:016x}): {} statements in {:.2} s, {} failed{}",
        r.workload,
        r.seed,
        r.inputs_hash,
        w.attempted(),
        w.elapsed_s,
        w.failed(),
        if r.correct() { "" } else { "  ** INCORRECT **" }
    )
    .expect("String");
    for def in metrics::user_visible() {
        let samples = match def.name {
            "latency_p50_ms" | "latency_p99_ms" => {
                format!("  (n = {})", w.queries.completed())
            }
            "write_latency_p50_ms" | "write_latency_p99_ms" if w.writes.attempted > 0 => {
                format!("  (n = {})", w.writes.completed())
            }
            "setup_s" => format!("  (of {} set-ups)", r.setup_runs_s.len()),
            _ => String::new(),
        };
        writeln!(
            out,
            "  {:<28} {:>12} {}{samples}",
            def.name,
            fmt_value(r.metric(def.name)),
            def.unit
        )
        .expect("String");
    }
    let st = &r.setup;
    writeln!(
        out,
        "  last set-up: tables {:.3} s, indexes {:.3} s, models {:.3} s, server/subscriptions \
         {:.3} s; correctness gate {:.3} s",
        st.table_load_s, st.index_build_s, st.models_s, st.serve_s, r.gate_s
    )
    .expect("String");
    if let Some(rec) = &r.recovery {
        writeln!(
            out,
            "  reopened without checkpoint in {:.3} s: {} WAL records replayed, {} rows, every \
             acknowledged insert present",
            rec.open_s, rec.records_replayed, rec.rows
        )
        .expect("String");
    }
    if w.ledger.acked_inserts > 0 {
        let l = &w.ledger;
        writeln!(
            out,
            "  notifications: {} matched = {} delivered + {} in {} gap markers",
            l.matched, l.delivered, l.gap_dropped, l.gaps
        )
        .expect("String");
    }
    for v in &r.violations {
        writeln!(out, "  VIOLATION: {v}").expect("String");
    }
}

pub fn print_layers(out: &mut String, workload: &str, values: &[(&'static str, f64)]) {
    writeln!(out, "{workload} — per-layer (traced run)").expect("String");
    for (name, v) in values {
        let unit = metrics::find(name).map_or("", |d| d.unit);
        writeln!(out, "  {name:<36} {:>14} {unit}", fmt_value(Some(*v))).expect("String");
    }
}

/// One run's entry in a result file.
pub fn run_entry(r: &EndToEnd) -> Value {
    Value::obj([
        ("workload", Value::str(r.workload)),
        ("seed", Value::Num(r.seed as f64)),
        ("inputs_hash", Value::str(format!("{:016x}", r.inputs_hash))),
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::Num(r.window.attempted() as f64)),
        ("failed", Value::Num(r.window.failed() as f64)),
        (
            "query_samples",
            Value::Num(r.window.queries.completed() as f64),
        ),
        (
            "write_samples",
            Value::Num(r.window.writes.completed() as f64),
        ),
        ("window_s", Value::Num(r.window.elapsed_s)),
        (
            "metrics",
            Value::obj(
                r.metrics
                    .iter()
                    .map(|(n, v)| (*n, v.map_or(Value::Null, Value::num))),
            ),
        ),
    ])
}

/// One traced run's entry in a result file.
pub fn trace_entry(t: &Traced) -> Value {
    Value::obj([
        ("workload", Value::str(t.workload)),
        (
            "metrics",
            Value::obj(t.values.iter().map(|(n, v)| (*n, Value::num(*v)))),
        ),
    ])
}

/// Values of every (workload, metric) pair of a result file, in file
/// order; `null` metrics are left out.
type Series = Vec<((String, String), Vec<f64>)>;

pub fn series_of(doc: &Value) -> Result<Series, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("result file has no \"runs\"")?;
    let mut series: Series = Vec::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("run without metrics")?;
        for (name, value) in metrics {
            let Some(v) = value.as_f64() else { continue };
            let key = (workload.to_string(), name.clone());
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(v),
                None => series.push((key, vec![v])),
            }
        }
    }
    Ok(series)
}

/// min / median / max and relative spread per (workload, metric).
pub fn print_repeat_summary(out: &mut String, series: &Series) {
    writeln!(
        out,
        "{:<14} {:<28} {:>3} {:>12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "n", "min", "median", "max", "spread", "bound"
    )
    .expect("String");
    for ((workload, name), values) in series {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = relative_spread(values);
        let bound = metrics::find(name).and_then(|d| d.bound);
        writeln!(
            out,
            "{workload:<14} {name:<28} {:>3} {:>12} {:>12} {:>12} {:>9} {:>7}",
            values.len(),
            fmt_value(Some(min)),
            fmt_value(Some(median(values))),
            fmt_value(Some(max)),
            spread.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        )
        .expect("String");
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread wider than the bound: the comparison cannot
    /// tell a change of that size from noise (choosing-metrics §6.5).
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub base_median: f64,
    pub new_median: f64,
    /// Share of the base median by which the new median is worse
    /// (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn judge(def: &MetricDef, base: &[f64], new: &[f64]) -> Option<Comparison> {
    let bound = def.bound?;
    let (base_median, new_median) = (median(base), median(new));
    let diff = match def.better {
        Better::Lower => new_median - base_median,
        Better::Higher => base_median - new_median,
    };
    let worse_by = if base_median != 0.0 {
        diff / base_median.abs()
    } else if diff > 0.0 {
        // From zero, any worsening is unbounded (failed_frac).
        f64::INFINITY
    } else {
        0.0
    };
    let spread = [base, new]
        .into_iter()
        .filter_map(relative_spread)
        .fold(0.0, f64::max);
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound && bound > 0.0 {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some(Comparison {
        workload: String::new(),
        metric: def.name.to_string(),
        base_median,
        new_median,
        worse_by,
        spread,
        bound,
        verdict,
    })
}

/// One row per (workload, user-visible metric) both files have.
pub fn compare(base: &Value, new: &Value) -> Result<Vec<Comparison>, String> {
    let (base, new) = (series_of(base)?, series_of(new)?);
    let mut rows = Vec::new();
    for ((workload, name), base_values) in &base {
        let Some(def) = metrics::user_visible().find(|d| d.name == name) else {
            continue;
        };
        let Some((_, new_values)) = new.iter().find(|((w, n), _)| w == workload && n == name)
        else {
            return Err(format!("{workload}/{name} is missing from the second file"));
        };
        if let Some(mut row) = judge(def, base_values, new_values) {
            row.workload = workload.clone();
            rows.push(row);
        }
    }
    Ok(rows)
}

pub fn print_comparison(out: &mut String, rows: &[Comparison]) {
    writeln!(
        out,
        "{:<14} {:<28} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "worse by", "spread", "bound"
    )
    .expect("String");
    for r in rows {
        writeln!(
            out,
            "{:<14} {:<28} {:>12} {:>12} {:>8.2}% {:>7.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            fmt_value(Some(r.base_median)),
            fmt_value(Some(r.new_median)),
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        )
        .expect("String");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::{tests::benchmark_json, END_TO_END};

    fn names_under(line: &Value) -> Vec<String> {
        line.get("metrics")
            .and_then(Value::as_object)
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn listed(key: &str) -> Vec<String> {
        benchmark_json()
            .get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn result_line_has_exactly_the_listed_metrics() {
        let line = result_line(true, 10, 0, END_TO_END.iter().map(|d| (d, 1.5)));
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(names_under(&line), listed("end_to_end"));
        let traced = result_line(true, 10, 0, metrics::traced().map(|d| (d, 0.0)));
        assert_eq!(names_under(&traced), listed("per_layer"));
        // Reads back as JSON, on one line, with units attached.
        let text = line.to_line();
        assert!(!text.contains('\n'));
        let back = json::parse(&text).unwrap();
        let setup = back.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.5));
    }

    #[test]
    fn benchmark_json_names_the_four_workloads() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::system::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // ops_per_s: higher is better, bound 25%.
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.70).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 1.30).collect();
        assert_eq!(
            judge(def("ops_per_s"), &steady, &steady).unwrap().verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(def("ops_per_s"), &steady, &slower).unwrap().verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(def("ops_per_s"), &steady, &faster).unwrap().verdict,
            Verdict::Ok
        );
        // latency: lower is better.
        assert_eq!(
            judge(def("latency_p50_ms"), &steady, &faster)
                .unwrap()
                .verdict,
            Verdict::Regressed
        );
        // Noise wider than the bound cannot be called unchanged.
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(def("ops_per_s"), &noisy, &noisy).unwrap().verdict,
            Verdict::Unresolved
        );
        // failed_frac: any increase from zero regresses, zero stays ok.
        let zero = [0.0; 5];
        assert_eq!(
            judge(def("failed_frac"), &zero, &zero).unwrap().verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(def("failed_frac"), &zero, &[0.0, 0.0, 0.001, 0.002, 0.001])
                .unwrap()
                .verdict,
            Verdict::Regressed
        );
        // Per-layer metrics carry no bound and are not judged.
        assert!(judge(def("exec.execute_us"), &steady, &slower).is_none());
    }

    #[test]
    fn compare_reads_result_files() {
        let file = |ops: [f64; 3]| {
            Value::obj([(
                "runs",
                Value::Arr(
                    ops.iter()
                        .map(|&v| {
                            Value::obj([
                                ("workload", Value::str("wire_point")),
                                (
                                    "metrics",
                                    Value::obj([
                                        ("ops_per_s", Value::Num(v)),
                                        ("writes_per_s", Value::Null),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )])
        };
        let rows = compare(&file([1000.0, 1010.0, 990.0]), &file([700.0, 705.0, 695.0])).unwrap();
        assert_eq!(rows.len(), 1, "null metrics are not compared");
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!((rows[0].worse_by - 0.30).abs() < 1e-9);
        assert!(compare(&file([1.0; 3]), &Value::obj([("runs", Value::Arr(vec![]))])).is_err());
    }
}
