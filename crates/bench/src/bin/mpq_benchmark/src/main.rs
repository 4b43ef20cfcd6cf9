//! `mpq_benchmark`: four workloads, the end-to-end metrics a user of the
//! system sees, and an outside-in per-layer trace. See README.md.
//!
//! Two ways to run it, from the root of a checkout:
//!
//! * the whole set — `cargo run --release --manifest-path
//!   crates/bench/src/bin/mpq_benchmark/Cargo.toml -- --seed 1
//!   [--seconds 30] [--trace] [--repeat N] [--smoke] [--out file.json]`
//!   — prints every metric by name with its unit and writes a result
//!   file; `--compare a.json b.json` judges two result files;
//! * one workload, as the pipeline does — `... -- --workload <name>
//!   --seed <n> --seconds <s> --trace <0|1>` — whose last line of
//!   standard output is one JSON object.
//!
//! The whole set is made of the second kind: it starts one process per
//! workload and pass, so that each run has a heap, a peak resident set
//! and a thread placement of its own, exactly as under the pipeline.

mod e2e;
mod env;
mod gate;
mod gen;
mod json;
mod metrics;
mod report;
mod stats;
mod system;
mod trace;
mod window;

use e2e::Config;
use gen::Scale;
use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "\
usage: mpq_benchmark [--seed N] [--seconds S] [--trace [0|1]] [--repeat N] [--smoke]
                     [--out FILE] [--workload NAME [--entry FILE]]
       mpq_benchmark --compare BASE.json NEW.json";

#[derive(Debug)]
struct Args {
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    smoke: bool,
    out: Option<PathBuf>,
    workload: Option<String>,
    /// Where a one-workload run also writes its result-file entry: how
    /// the whole set collects its runs from the processes it starts.
    entry: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        smoke: false,
        out: None,
        workload: None,
        entry: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, s: String) -> Result<T, String> {
            s.parse()
                .map_err(|_| format!("{flag}: {s:?} is not a number"))
        }
        match flag.as_str() {
            "--seed" => args.seed = number(flag, value("a number")?)?,
            "--seconds" => args.seconds = Some(number(flag, value("a number")?)?),
            "--repeat" => args.repeat = number(flag, value("a count")?)?,
            "--out" => args.out = Some(value("a path")?.into()),
            "--workload" => args.workload = Some(value("a name")?),
            "--entry" => args.entry = Some(value("a path")?.into()),
            "--smoke" => args.smoke = true,
            "--trace" => {
                // Bare `--trace` means on; the pipeline passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let seconds_ok = args
        .seconds
        .is_none_or(|s| s.is_finite() && s > 0.0 && s <= 3600.0);
    if !seconds_ok || args.repeat == 0 {
        return Err(format!("--seconds and --repeat must be positive\n{USAGE}"));
    }
    Ok(args)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let rows = report::compare(&read_json(base)?, &read_json(new)?)?;
    let mut out = String::new();
    report::print_comparison(&mut out, &rows);
    print!("{out}");
    let all_ok = rows.iter().all(|r| r.verdict == report::Verdict::Ok);
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The work directory is the benchmark's alone: emptied before a run
/// (a killed run may have left data behind) and removed after.
fn clean_work_dir() {
    let _ = std::fs::remove_dir_all(env::work_dir());
}

fn config(args: &Args) -> Config {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let seconds = args.seconds.unwrap_or(if args.smoke { 2.0 } else { 30.0 });
    Config {
        seed: args.seed,
        window: Duration::from_secs_f64(seconds),
        scale,
    }
}

/// Pipeline mode: one workload, one JSON object as the last line.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let spec = system::workload(name).ok_or_else(|| {
        let names: Vec<_> = system::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let cfg = config(args);
    let mut text = String::new();
    let (line, entry, correct) = if args.trace {
        let t = trace::run(spec, &cfg)?;
        report::print_layers(&mut text, t.workload, &t.values);
        eprintln!("{text}  spans: {}", t.trace_file.display());
        let correct = t.failed == 0;
        // A layer the workload does not exercise did no work and took
        // no time: 0.
        let values = metrics::traced().map(|d| (d, t.value(d.name).unwrap_or(0.0)));
        let line = report::result_line(correct, t.attempted, t.failed, values);
        (Some(line), report::trace_entry(&t), correct)
    } else {
        let r = e2e::run(spec, &cfg)?;
        report::print_end_to_end(&mut text, &r);
        eprint!("{text}");
        // An end-to-end metric is never made up: without it (a window
        // too short for the percentile) there is no result line.
        let values = metrics::END_TO_END
            .iter()
            .map(|d| {
                let v = r.metric(d.name).filter(|v| v.is_finite());
                v.map(|v| (d, v))
                    .ok_or_else(|| format!("{}: no {} from this window", spec.name, d.name))
            })
            .collect::<Result<Vec<_>, _>>();
        let line = match values {
            Ok(values) => Some(report::result_line(
                r.correct(),
                r.window.attempted(),
                r.window.failed(),
                values.into_iter(),
            )),
            // A smoke window is allowed to be too short for a p99: it
            // checks and reports, but has no result line.
            Err(_) if args.smoke => None,
            Err(why) => return Err(why),
        };
        (line, report::run_entry(&r), r.correct())
    };
    if let Some(path) = &args.entry {
        std::fs::write(path, entry.to_line()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(line) = line {
        println!("{}", line.to_line());
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Starts this program once more for one workload, passes its report on
/// and returns the result-file entry it wrote and whether it was correct.
fn run_in_child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let entry = Path::new(env::OUT_DIR).join(format!("entry-{}.json", std::process::id()));
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload, "--entry"])
        .arg(&entry)
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        child.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        child.arg("--smoke");
    }
    let out = child
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    print!("\n{}", String::from_utf8_lossy(&out.stderr));
    let written = read_json(&entry);
    let _ = std::fs::remove_file(&entry);
    match written {
        Ok(entry) => Ok((entry, out.status.success())),
        Err(_) => Err(format!(
            "{workload} (seed {seed}) ended with {}",
            out.status
        )),
    }
}

fn workloads_record() -> Value {
    Value::obj(system::WORKLOADS.iter().map(|w| {
        (
            w.name,
            Value::obj([
                ("why", Value::str(w.why)),
                ("loop", Value::str("closed")),
                ("dop", Value::Num(w.dop as f64)),
                ("connections", Value::Num(w.connections as f64)),
                (
                    "transport",
                    Value::str(if w.over_wire {
                        "tcp loopback"
                    } else {
                        "in-process"
                    }),
                ),
                (
                    "engine",
                    Value::str(if w.durable {
                        "durable (Engine::open)"
                    } else {
                        "in-memory"
                    }),
                ),
            ]),
        )
    }))
}

/// The whole set: every workload, `repeat` times, then (with `--trace`)
/// the traced runs; everything printed and written to a result file.
fn run_set(args: &Args) -> Result<ExitCode, String> {
    let cfg = config(args);
    std::fs::create_dir_all(env::work_dir()).map_err(|e| format!("{}: {e}", env::OUT_DIR))?;
    let environment = env::record();
    // Asked now: the processes started below each remove the directory.
    let work_dir_filesystem = env::filesystem_of(&env::work_dir());
    println!(
        "mpq_benchmark: seed {}, {:.1} s windows, {} scale",
        cfg.seed,
        cfg.window.as_secs_f64(),
        if args.smoke { "smoke" } else { "full" }
    );
    println!("environment: {}", environment.to_line());
    println!("server: {}", system::server_policy().to_line());
    println!(
        "work directory: {} ({work_dir_filesystem})",
        env::work_dir().display()
    );
    for w in &system::WORKLOADS {
        println!(
            "workload {}: closed loop, {} connection(s), dop {}, {} — {}",
            w.name,
            w.connections,
            w.dop,
            if w.over_wire { "TCP" } else { "in-process" },
            w.why
        );
    }

    let mut runs = Vec::new();
    let mut all_correct = true;
    for repeat in 0..args.repeat {
        // Another seed each time round, as the pipeline varies it: the
        // spread this prints is the spread its bounds are judged by.
        for spec in &system::WORKLOADS {
            let (entry, correct) = run_in_child(args, spec.name, cfg.seed + repeat as u64, false)?;
            all_correct &= correct;
            runs.push(entry);
        }
    }

    let mut traces = Vec::new();
    if args.trace {
        for spec in &system::WORKLOADS {
            let (entry, correct) = run_in_child(args, spec.name, cfg.seed, true)?;
            all_correct &= correct;
            traces.push(entry);
        }
    }

    let doc = Value::obj([
        ("benchmark", Value::str("mpq_benchmark")),
        ("environment", environment),
        ("server", system::server_policy()),
        ("work_dir_filesystem", Value::str(work_dir_filesystem)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("window_seconds", Value::Num(cfg.window.as_secs_f64())),
        (
            "scale",
            Value::str(if args.smoke { "smoke" } else { "full" }),
        ),
        ("setups_per_run", Value::Num(e2e::SETUPS as f64)),
        ("repeat", Value::Num(args.repeat as f64)),
        ("workloads", workloads_record()),
        ("runs", Value::Arr(runs)),
        ("traces", Value::Arr(traces)),
    ]);
    if args.repeat > 1 {
        let mut text = String::new();
        report::print_repeat_summary(&mut text, &report::series_of(&doc)?);
        println!("\n{text}");
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(env::OUT_DIR).join(format!("result-seed{}.json", cfg.seed)));
    std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    if !all_correct {
        println!("INCORRECT: at least one run failed a check; its metrics are not valid");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((base, new)) = &args.compare {
        compare(base, new)
    } else if cfg!(debug_assertions) {
        Err("refusing to measure a build with debug assertions; use --release".to_string())
    } else {
        clean_work_dir();
        let result = match &args.workload {
            Some(name) => run_one(&args, name),
            None => run_set(&args),
        };
        clean_work_dir();
        result
    };
    result.unwrap_or_else(|msg| {
        eprintln!("mpq_benchmark: {msg}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn pipeline_command_line_parses() {
        let a = args(&[
            "--workload",
            "wire_wide",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("wire_wide"), 7, Some(10.0), false)
        );
        let a = args(&["--trace", "1", "--seed", "3"]).unwrap();
        assert!(a.trace && a.seed == 3);
        let a = args(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--repeat", "0"],
            &["--frobnicate"],
            &["--compare", "a.json"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
