//! `mpq-repl`: a line-oriented client for `mpq-serverd`.
//!
//! ```text
//! mpq-repl (--connect HOST:PORT | --port-file FILE)
//! ```
//!
//! Reads statements from stdin, one per line, and prints each outcome.
//! Lines starting with `.` are meta commands:
//!
//! * `.health`            — print the engine health report
//! * `.subscribe <query>` — register a standing query (`SUBSCRIBE ...`)
//! * `.unsubscribe <id>`  — drop a standing query (`UNSUBSCRIBE <id>`)
//! * `.poll [ms]`         — print pending notifications; with `ms`,
//!   wait up to that long for the first one to arrive
//! * `.shutdown`          — ask the server to drain and exit
//! * `.quit`              — close this session (EOF does the same)
//!
//! Everything else is sent as SQL. Server-push `Notify` frames (matches
//! against this session's subscriptions) are drained and printed after
//! each executed line — between commands, never mid-line — so piped
//! use stays deterministic and interactive editing is never corrupted.
//! Suitable both interactively and piped (`printf '...\n' | mpq-repl
//! --port-file p`), which is how the CI smoke tests drive it.

use mpq_client::{Client, ClientError, Notification};
use mpq_engine::StatementOutcome;
use std::io::BufRead;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn parse_addr() -> Result<String, String> {
    let mut addr: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => {
                addr = Some(it.next().ok_or("--connect requires HOST:PORT")?);
            }
            "--port-file" => {
                let path = it.next().ok_or("--port-file requires a path")?;
                let contents = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {path}: {e}"))?;
                addr = Some(contents.trim().to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    addr.ok_or_else(|| "need --connect HOST:PORT or --port-file FILE".to_string())
}

fn print_outcome(outcome: &StatementOutcome) {
    match outcome {
        StatementOutcome::Query(q) => {
            println!(
                "{} rows ({} examined, {} heap + {} index pages, {} model calls, {:?}){}",
                q.rows.len(),
                q.metrics.rows_examined,
                q.metrics.heap_pages_read,
                q.metrics.index_pages_read,
                q.metrics.model_invocations,
                q.metrics.elapsed,
                if q.cached_plan { " [cached plan]" } else { "" },
            );
            if q.rows.is_empty() && !q.plan.is_empty() && q.metrics.rows_examined == 0 {
                // EXPLAIN returns no rows and zero metrics: show the plan.
                println!("{}", q.plan);
            }
        }
        StatementOutcome::ModelCreated { name, n_classes, degraded, .. } => {
            match degraded {
                Some(reason) => println!(
                    "model {name} created ({n_classes} classes; DEGRADED: {reason})"
                ),
                None => println!("model {name} created ({n_classes} classes)"),
            }
        }
        StatementOutcome::Inserted { table, rows_inserted, subs_matched, subs_index_pruned } => {
            if *subs_matched > 0 || *subs_index_pruned > 0 {
                println!(
                    "{rows_inserted} rows inserted into {table} \
                     ({subs_matched} subscription matches, {subs_index_pruned} index-pruned)"
                );
            } else {
                println!("{rows_inserted} rows inserted into {table}");
            }
        }
        StatementOutcome::Subscribed { id } => {
            println!("subscription {id} registered");
        }
        StatementOutcome::Unsubscribed { id } => {
            println!("subscription {id} dropped");
        }
        StatementOutcome::ParallelismSet { dop } => {
            println!("session parallelism set to {dop}");
        }
        StatementOutcome::GuardSet { guard } => {
            println!("session guard set: {guard:?}");
        }
    }
}

fn print_notification(n: &Notification) {
    match n {
        Notification::Match { subscription, table, row_id, row, metrics } => {
            let members: Vec<String> = row.iter().map(|m| m.to_string()).collect();
            println!(
                "notify: subscription {subscription} matched {table} row {row_id} \
                 [{}] (index-pruned {}, residual {}, scorer-banded {})",
                members.join(", "),
                metrics.index_pruned,
                metrics.residual_evaluated,
                metrics.scorer_banded,
            );
        }
        Notification::Gap { dropped } => {
            println!("notify: GAP — {dropped} notifications dropped (slow consumer)");
        }
    }
}

/// Prints every notification already queued or readable right now.
/// Returns how many were printed, or the connection-fatal error.
fn drain_notifications(client: &mut Client) -> Result<usize, ClientError> {
    let mut n = 0;
    while let Some(notif) = client.poll_notification()? {
        print_notification(&notif);
        n += 1;
    }
    Ok(n)
}

/// `.poll [ms]`: drain immediately; with a deadline, keep re-polling
/// until at least one notification has printed or the time is up.
fn poll_until(client: &mut Client, wait: Option<Duration>) -> Result<(), ClientError> {
    let mut printed = drain_notifications(client)?;
    if let Some(wait) = wait {
        let deadline = Instant::now() + wait;
        while printed == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            printed += drain_notifications(client)?;
        }
    }
    if printed == 0 {
        println!("no notifications pending");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let addr = parse_addr()?;
    let mut client =
        Client::connect_named(&addr, "mpq-repl").map_err(|e| format!("connect {addr}: {e}"))?;
    eprintln!("connected to {addr} (session {})", client.session_id());

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            ".quit" => break,
            ".subscribe" if !rest.is_empty() => {
                match client.statement(&format!("SUBSCRIBE {rest}")) {
                    Ok(outcome) => print_outcome(&outcome),
                    Err(ClientError::Remote(e)) => println!("error: {e}"),
                    Err(e) => return Err(format!("connection failed: {e}")),
                }
            }
            ".unsubscribe" if !rest.is_empty() => {
                match client.statement(&format!("UNSUBSCRIBE {rest}")) {
                    Ok(outcome) => print_outcome(&outcome),
                    Err(ClientError::Remote(e)) => println!("error: {e}"),
                    Err(e) => return Err(format!("connection failed: {e}")),
                }
            }
            ".poll" => {
                let wait = match rest.parse::<u64>() {
                    Ok(ms) => Some(Duration::from_millis(ms)),
                    Err(_) if rest.is_empty() => None,
                    Err(_) => {
                        println!("error: .poll takes an optional wait in milliseconds");
                        continue;
                    }
                };
                if let Err(e) = poll_until(&mut client, wait) {
                    return Err(format!("connection failed: {e}"));
                }
            }
            ".health" => match client.health() {
                Ok(h) => {
                    println!(
                        "health: {} tables, {} models, {} cached plans, {} subscriptions",
                        h.tables,
                        h.models.len(),
                        h.cached_plans,
                        h.subscriptions
                    );
                    if let Some(note) = &h.sub_index_note {
                        println!("  subscription matcher: {note}");
                    }
                    // Only a primary with synchronous replication on
                    // measures lag; other nodes report none.
                    println!("  role: {}, epoch: {}", h.role, h.epoch);
                    if let (Some(records), Some(bytes)) =
                        (h.replica_lag_records, h.replica_lag_bytes)
                    {
                        println!("  replica lag: {records} records ({bytes} bytes)");
                    }
                    for m in &h.models {
                        println!(
                            "  model {} v{} ({}/{} exact envelopes){}",
                            m.name,
                            m.version,
                            m.exact_envelopes,
                            m.n_envelopes,
                            match &m.degraded {
                                Some(r) => format!(" DEGRADED: {r}"),
                                None => String::new(),
                            }
                        );
                    }
                    if let Some(rec) = &h.recovery {
                        println!(
                            "  recovery: clean_shutdown={} replayed={} dropped={}",
                            rec.clean_shutdown, rec.wal_records_replayed, rec.records_dropped
                        );
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            ".shutdown" => {
                match client.shutdown_server() {
                    Ok(()) => println!("server shutting down"),
                    Err(e) => println!("error: {e}"),
                }
                break;
            }
            _ => match client.statement(line) {
                Ok(outcome) => print_outcome(&outcome),
                // Typed remote errors keep the session alive; anything
                // else (disconnect, torn frame) ends it.
                Err(ClientError::Remote(e)) => println!("error: {e}"),
                Err(e) => return Err(format!("connection failed: {e}")),
            },
        }
        // Safe point between commands: surface any pushes that arrived
        // while the line above executed.
        if let Err(e) = drain_notifications(&mut client) {
            return Err(format!("connection failed: {e}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mpq-repl: error: {e}");
            ExitCode::FAILURE
        }
    }
}
