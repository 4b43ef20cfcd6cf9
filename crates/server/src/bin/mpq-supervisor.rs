//! `mpq-supervisor`: failure detection and supervised failover for a
//! primary/standby pair.
//!
//! ```text
//! mpq-supervisor --primary HOST:PORT --standby HOST:PORT
//!                --peer-file FILE [--primary-file FILE]
//!                [--check-interval-ms N] [--fail-threshold N]
//! ```
//!
//! The supervisor probes the primary once per interval (a `ReplState`
//! round trip). After `--fail-threshold` consecutive
//! failures it promotes the standby (epoch bump + fence, see DESIGN.md
//! §12), publishes the new primary's address to `--primary-file`
//! (write-then-rename, so watchers and writers never read a torn
//! line), and clears `--peer-file` — the promoted node ships to the
//! next standby that registers there.
//!
//! The in-process variant of this loop is
//! `mpq_server::supervisor::start_supervisor`; this binary is the
//! same loop for deployments where the supervisor outlives the server
//! processes it watches.

use mpq_server::supervisor::{start_supervisor, write_peer_file, SupervisorConfig};
use std::process::ExitCode;
use std::sync::{Arc, RwLock};
use std::time::Duration;

struct Args {
    primary: String,
    standby: String,
    peer_file: String,
    primary_file: Option<String>,
    check_interval_ms: u64,
    fail_threshold: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut primary = None;
    let mut standby = None;
    let mut peer_file = None;
    let mut primary_file = None;
    let mut check_interval_ms = 50u64;
    let mut fail_threshold = 3u32;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--primary" => primary = Some(value("--primary")?),
            "--standby" => standby = Some(value("--standby")?),
            "--peer-file" => peer_file = Some(value("--peer-file")?),
            "--primary-file" => primary_file = Some(value("--primary-file")?),
            "--check-interval-ms" => {
                check_interval_ms =
                    value("--check-interval-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--fail-threshold" => {
                fail_threshold =
                    value("--fail-threshold")?.parse().map_err(|e| format!("{e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        primary: primary.ok_or("--primary is required")?,
        standby: standby.ok_or("--standby is required")?,
        peer_file: peer_file.ok_or("--peer-file is required")?,
        primary_file,
        check_interval_ms,
        fail_threshold,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let primary = Arc::new(RwLock::new(args.primary.clone()));
    let standby = Arc::new(RwLock::new(args.standby.clone()));
    // Point the primary's shipper at the standby before supervision
    // starts, so replication is flowing by the time a failover could
    // be needed.
    write_peer_file(args.peer_file.as_ref(), &args.standby)
        .map_err(|e| format!("{}: {e}", args.peer_file))?;
    let cfg = SupervisorConfig {
        check_interval: Duration::from_millis(args.check_interval_ms),
        fail_threshold: args.fail_threshold.max(1),
        peer_file: args.peer_file.clone().into(),
        ..SupervisorConfig::default()
    };
    println!(
        "mpq-supervisor: watching primary {} (standby {}, threshold {})",
        args.primary, args.standby, args.fail_threshold
    );
    let handle = start_supervisor(Arc::clone(&primary), Arc::clone(&standby), cfg);
    // Surface promotions as they happen; the handle's thread does the
    // actual work.
    let mut seen = 0u64;
    loop {
        std::thread::sleep(Duration::from_millis(args.check_interval_ms));
        let n = handle.promotions();
        if n > seen {
            seen = n;
            let new_primary = primary.read().unwrap_or_else(|p| p.into_inner()).clone();
            eprintln!("mpq-supervisor: FAILOVER #{seen}: promoted {new_primary}");
            if let Some(path) = &args.primary_file {
                write_peer_file(path.as_ref(), &new_primary)
                    .map_err(|e| format!("{path}: {e}"))?;
            }
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mpq-supervisor: error: {e}");
            ExitCode::FAILURE
        }
    }
}
