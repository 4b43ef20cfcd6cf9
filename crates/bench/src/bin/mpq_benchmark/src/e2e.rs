//! One end-to-end run of one workload: set-up (three times),
//! correctness gate, warm-up, measured window with tracing
//! off, post-window checks, and the user-visible metrics.

use crate::env;
use crate::gate;
use crate::gen::{self, Inputs, Scale};
use crate::stats::{median, percentile, samples_needed};
use crate::system::{self, SetupTimes, Spec, System};
use crate::window::{self, Sample, Window};
use mpq_engine::Engine;
use std::time::{Duration, Instant};

/// How a run is sized; the same for every workload of a set.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub window: Duration,
    pub scale: Scale,
}

/// Set-up is repeated this often in a run and `setup_s` is the median:
/// a single set-up of 20 ms is at the mercy of one scheduling hiccup.
pub const SETUPS: usize = 3;

/// What re-opening the data directory after the window found.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub open_s: f64,
    pub records_replayed: u64,
    pub rows: usize,
}

#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub workload: &'static str,
    pub seed: u64,
    pub inputs_hash: u64,
    pub setup_runs_s: Vec<f64>,
    pub setup: SetupTimes,
    pub gate_s: f64,
    pub window: Window,
    pub recovery: Option<Recovery>,
    /// Every user-visible metric by name; `None` where the workload
    /// does not define it (write metrics without a writer) or the
    /// window held too few samples for the percentile.
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// Post-window checks that failed (empty when the run is correct).
    pub violations: Vec<String>,
}

impl EndToEnd {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.window.failed() == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }
}

fn percentile_ms(sample: &Sample, p: f64) -> Option<f64> {
    percentile(&sample.latencies_ns, p).map(|ns| f64::from(ns) / 1e6)
}

/// The user-visible metrics of one window, each over the whole window:
/// statements completed ÷ elapsed time, process CPU ÷ statements
/// completed, and percentiles over every sample — of the query
/// statements for `latency_*` (the reader's on `mixed_rw`), of the
/// INSERTs for `write_latency_*`. A percentile is `None` unless at least
/// ten samples lie beyond it.
pub fn metrics_of(setup_s: f64, w: &Window) -> Vec<(&'static str, Option<f64>)> {
    let has_writer = w.writes.attempted > 0;
    let user_bytes = w.ledger.acked_inserts * gen::ROWS_PER_INSERT as u64 * gen::mixed_row_bytes();
    let per_s = |n: u64| (w.elapsed_s > 0.0).then(|| n as f64 / w.elapsed_s);
    let writes = |v: Option<f64>| if has_writer { v } else { None };
    vec![
        ("setup_s", Some(setup_s)),
        ("ops_per_s", per_s(w.completed())),
        ("latency_p50_ms", percentile_ms(&w.queries, 50.0)),
        ("latency_p99_ms", percentile_ms(&w.queries, 99.0)),
        (
            "cpu_ms_per_op",
            (w.completed() > 0).then(|| w.cpu_ms / w.completed() as f64),
        ),
        ("peak_rss_mb", Some(w.peak_rss_mb)),
        (
            "failed_frac",
            (w.attempted() > 0).then(|| w.failed() as f64 / w.attempted() as f64),
        ),
        ("writes_per_s", writes(per_s(w.writes.completed()))),
        (
            "write_latency_p50_ms",
            writes(percentile_ms(&w.writes, 50.0)),
        ),
        (
            "write_latency_p99_ms",
            writes(percentile_ms(&w.writes, 99.0)),
        ),
        (
            "stored_bytes_per_user_byte",
            writes((user_bytes > 0).then(|| w.stored_bytes as f64 / user_bytes as f64)),
        ),
    ]
}

/// Re-opens a copy of the data directory as it stands — no checkpoint,
/// no clean-shutdown marker: what a crash at this instant would leave —
/// and counts the rows of the workload's table.
pub fn recover_copy(system: &System, inputs: &Inputs) -> Result<Recovery, String> {
    let dir = system
        .dir()
        .ok_or("recovery check on an in-memory engine")?;
    let copy = dir.with_extension("crash");
    env::copy_dir(dir, &copy).map_err(|e| format!("copy {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let reopened = Engine::open(&copy).map_err(|e| format!("reopen: {e}"))?;
    let open_s = t0.elapsed().as_secs_f64();
    let report = reopened
        .recovery_report()
        .ok_or("reopened engine has no recovery report")?;
    let rows = {
        let catalog = reopened.catalog();
        let id = catalog
            .table_by_name(inputs.table.name)
            .ok_or("recovered table missing")?;
        catalog.table(id).table.n_rows()
    };
    // Dropping a durable engine appends a clean-shutdown marker to the
    // copy; the copy is deleted either way.
    drop(reopened);
    let _ = std::fs::remove_dir_all(&copy);
    if report.records_dropped > 0 || report.corruption.is_some() {
        return Err(format!("recovery dropped records: {report}"));
    }
    Ok(Recovery {
        open_s,
        records_replayed: report.wal_records_replayed,
        rows,
    })
}

/// Checks that only make sense once the window is over.
pub fn post_window_checks(
    spec: &Spec,
    initial_rows: usize,
    w: &Window,
    recovery: Option<&Recovery>,
    smoke: bool,
) -> Vec<String> {
    let mut violations = Vec::new();
    if let Some(why) = w.first_failure() {
        violations.push(format!(
            "{} of {} statements failed, first: {why}",
            w.failed(),
            w.attempted()
        ));
    }
    if let Err(e) = w.ledger.check() {
        violations.push(e);
    }
    if let Some(r) = recovery {
        let want = initial_rows + gen::ROWS_PER_INSERT * w.ledger.acked_inserts as usize;
        if r.rows != want {
            violations.push(format!(
                "recovered {} rows, expected {initial_rows} + {} x {} acknowledged inserts = {want}",
                r.rows,
                gen::ROWS_PER_INSERT,
                w.ledger.acked_inserts
            ));
        }
    }
    // A smoke window is allowed to be too short for a p99.
    if !smoke {
        let mut need = vec![("query", w.queries.completed())];
        if w.writes.attempted > 0 {
            need.push(("write", w.writes.completed()));
        }
        for (kind, n) in need {
            if (n as usize) < samples_needed(99.0) {
                violations.push(format!(
                    "{}: {n} {kind} samples in the window; p99 needs {} (ten beyond it)",
                    spec.name,
                    samples_needed(99.0)
                ));
            }
        }
    }
    violations
}

pub fn run(spec: &Spec, cfg: &Config) -> Result<EndToEnd, String> {
    let inputs = (spec.generate)(cfg.seed, cfg.scale);
    let inputs_hash = inputs.hash();

    // The last system built is the one measured.
    let mut setup_runs_s: Vec<f64> = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        // The previous system goes before the next is built: two at
        // once would double the peak memory being measured.
        drop(built.take());
        let (system, times) = system::build(spec, &inputs)?;
        setup_runs_s.push(times.total_s);
        built = Some((system, times));
    }
    let (mut system, setup) = built.expect("at least one set-up");

    let t_gate = Instant::now();
    let expected = gate::run(&system, spec, &inputs)?;
    let gate_s = t_gate.elapsed().as_secs_f64();

    let initial_rows = system.table_rows(&inputs);
    let w = window::run(
        &mut system,
        spec,
        &inputs,
        &expected,
        spec.connections,
        cfg.window,
    )?;
    let recovery = match spec.durable {
        true => Some(recover_copy(&system, &inputs)?),
        false => None,
    };
    drop(system);

    let metrics = metrics_of(median(&setup_runs_s), &w);
    let violations = post_window_checks(
        spec,
        initial_rows,
        &w,
        recovery.as_ref(),
        cfg.scale == Scale::Smoke,
    );
    Ok(EndToEnd {
        workload: spec.name,
        seed: cfg.seed,
        inputs_hash,
        setup_runs_s,
        setup,
        gate_s,
        window: w,
        recovery,
        metrics,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::workload;

    /// A real (smoke-sized) system, a real window — and one expected
    /// row count that is off by one: the run must come out incorrect.
    #[test]
    fn a_perturbed_expected_row_count_trips_the_run() {
        let spec = workload("wire_point").unwrap();
        let inputs = (spec.generate)(9, Scale::Smoke);
        let (mut system, _) = system::build(spec, &inputs).unwrap();
        let mut expected = gate::run(&system, spec, &inputs).unwrap();
        let honest = window::run(
            &mut system,
            spec,
            &inputs,
            &expected,
            1,
            Duration::from_millis(200),
        )
        .unwrap();
        assert_eq!(honest.failed(), 0, "{:?}", honest.first_failure());
        assert!(post_window_checks(spec, 0, &honest, None, true).is_empty());

        expected[0] += 1;
        // The perturbed statement already fails its warm-up run.
        let tripped = window::run(
            &mut system,
            spec,
            &inputs,
            &expected,
            1,
            Duration::from_millis(200),
        );
        assert!(tripped.is_err_and(|e| e.contains("expected")));
    }

    #[test]
    fn failures_and_ledger_gaps_make_a_run_incorrect() {
        let spec = workload("mixed_rw").unwrap();
        let mut w = Window::default();
        assert!(post_window_checks(spec, 10, &w, None, true).is_empty());
        w.ledger.matched = 5;
        w.ledger.delivered = 3;
        assert_eq!(post_window_checks(spec, 10, &w, None, true).len(), 1);
        w.ledger.gap_dropped = 2;
        w.ledger.acked_inserts = 2;
        let short = Recovery {
            open_s: 0.1,
            records_replayed: 3,
            rows: 10 + 8,
        };
        let whole = Recovery {
            rows: 10 + 16,
            ..short
        };
        assert_eq!(
            post_window_checks(spec, 10, &w, Some(&short), true).len(),
            1
        );
        assert!(post_window_checks(spec, 10, &w, Some(&whole), true).is_empty());
        // A full-size run also insists on enough samples for a p99.
        assert!(!post_window_checks(spec, 10, &w, Some(&whole), false).is_empty());
    }

    #[test]
    fn metrics_are_whole_window_values() {
        // 1,900 queries in 10 s with latencies 1..=1900 us, 40 s of CPU.
        let mut w = Window {
            elapsed_s: 10.0,
            cpu_ms: 38_000.0,
            peak_rss_mb: 12.5,
            ..Window::default()
        };
        w.queries.latencies_ns = (1..=1900u32).map(|k| k * 1000).collect();
        w.queries.attempted = 1900;
        let get =
            |m: &[(&str, Option<f64>)], name: &str| m.iter().find(|(n, _)| *n == name).unwrap().1;
        let m = metrics_of(1.5, &w);
        assert_eq!(get(&m, "setup_s"), Some(1.5));
        assert_eq!(get(&m, "ops_per_s"), Some(190.0));
        assert_eq!(get(&m, "latency_p50_ms"), Some(0.95));
        assert_eq!(get(&m, "latency_p99_ms"), Some(1.881));
        assert_eq!(get(&m, "cpu_ms_per_op"), Some(20.0));
        assert_eq!(get(&m, "peak_rss_mb"), Some(12.5));
        assert_eq!(get(&m, "failed_frac"), Some(0.0));
        // No writer: the write metrics are undefined, not zero.
        assert_eq!(get(&m, "writes_per_s"), None);
        assert_eq!(get(&m, "write_latency_p99_ms"), None);
        assert_eq!(get(&m, "stored_bytes_per_user_byte"), None);
        let names: Vec<_> = m.iter().map(|(n, _)| *n).collect();
        let registry: Vec<_> = crate::metrics::user_visible().map(|d| d.name).collect();
        assert_eq!(names, registry);

        // A writer's INSERTs count in the rates and in CPU per statement
        // but not in `latency_*`, which stay the reader's; and 100
        // samples are too few for a p99.
        w.writes.latencies_ns = vec![5_000_000; 100];
        w.writes.attempted = 101;
        w.writes.failed = 1;
        let m = metrics_of(1.5, &w);
        assert_eq!(get(&m, "ops_per_s"), Some(200.0));
        assert_eq!(get(&m, "cpu_ms_per_op"), Some(19.0));
        assert_eq!(get(&m, "latency_p50_ms"), Some(0.95));
        assert_eq!(get(&m, "writes_per_s"), Some(10.0));
        assert_eq!(get(&m, "write_latency_p50_ms"), Some(5.0));
        assert_eq!(get(&m, "write_latency_p99_ms"), None);
        assert_eq!(get(&m, "failed_frac"), Some(1.0 / 2001.0));
    }
}
