//! The TCP server: accept loop, per-connection sessions, graceful
//! shutdown.
//!
//! One thread accepts connections; each connection gets its own thread,
//! its own [`SessionState`] (so `SET PARALLELISM` / `SET GUARD` scope
//! to that connection) and runs the stop-and-wait request/response
//! protocol from [`crate::protocol`]. Statements pass through the
//! [`AdmissionController`] before touching the engine.
//!
//! Shutdown is graceful by construction: a `Shutdown` request (or
//! [`ServerHandle::shutdown`]) flips a flag; the accept loop stops
//! taking connections, idle connections close with a `Goodbye`,
//! in-flight statements run to completion and their responses are
//! written, then the engine is checkpointed. The [`DrainReport`] says
//! exactly what happened.
//!
//! Fault injection (via the engine's [`FaultInjector`]) can sever a
//! connection mid-response or corrupt one response frame — the hooks
//! the oracle tests use to prove clients fail *typed* and the server
//! stays up.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionError};
use crate::notify::{NotifyQueue, SubRegistry, DEFAULT_NOTIFY_QUEUE_CAP};
use crate::protocol::{
    consume_frame, decode_frame, read_into, FrameError, Request, Response, ServerError,
    DEFAULT_MAX_FRAME_LEN, PROTO_VERSION,
};
use mpq_engine::{Engine, FaultInjector, SessionState, StatementId, StatementOutcome};
use std::io::{self, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Use port 0 to let the OS pick (the bound address
    /// is reported by [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Admission limits for statement execution.
    pub admission: AdmissionConfig,
    /// Once the first byte of a request has arrived, the whole frame
    /// must arrive within this budget — the slow-loris defence. Idle
    /// connections (no partial frame) may sit forever, with one
    /// exception: the `Hello` handshake must complete within this
    /// budget from the moment the connection is accepted, so a client
    /// that connects and stalls cannot pin an accept slot.
    pub request_read_timeout: Duration,
    /// Ceiling on one frame's payload length, both directions.
    pub max_frame_len: u32,
    /// Free-form name sent in the handshake.
    pub server_name: String,
    /// Statically refuse mutating statements with a typed
    /// [`ServerError::ReadOnly`] before they reach the engine
    /// (`--read-only`). Standbys need no flag: the same refusal is
    /// applied whenever the engine's live role is `Standby`, and lifts
    /// by itself at promotion.
    pub read_only: bool,
    /// Bound on each session's pending-notification queue (standing
    /// subscriptions, DESIGN.md §14). A subscriber that lags beyond it
    /// loses matches to a gap marker instead of stalling writers.
    pub notify_queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            admission: AdmissionConfig::default(),
            request_read_timeout: Duration::from_secs(2),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            server_name: "mpq-server".to_string(),
            read_only: false,
            notify_queue_cap: DEFAULT_NOTIFY_QUEUE_CAP,
        }
    }
}

/// What the server did over its lifetime, reported after the drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Statements executed to completion (including typed errors).
    pub queries_served: u64,
    /// Statements refused because the admission queue was full.
    pub rejected_busy: u64,
    /// Statements refused after waiting out the admission queue.
    pub rejected_timeout: u64,
    /// LSN of the shutdown checkpoint; `None` for in-memory engines.
    pub checkpoint_lsn: Option<u64>,
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drained: {} connections, {} queries served, {} busy, {} queue-timeout, checkpoint {}",
            self.connections,
            self.queries_served,
            self.rejected_busy,
            self.rejected_timeout,
            match self.checkpoint_lsn {
                Some(lsn) => format!("lsn={lsn}"),
                None => "skipped (in-memory)".to_string(),
            }
        )
    }
}

/// Shared server state, visible to the accept loop and every
/// connection thread.
struct Shared {
    engine: Arc<Engine>,
    cfg: ServerConfig,
    admission: AdmissionController,
    shutting_down: AtomicBool,
    shutdown_signal: Mutex<bool>,
    shutdown_cv: Condvar,
    connections: AtomicU64,
    queries_served: AtomicU64,
    next_session_id: AtomicU64,
    /// Routes engine subscription matches to the owning sessions'
    /// bounded push queues.
    subs: Arc<SubRegistry>,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let mut flagged = self.shutdown_signal.lock().unwrap_or_else(|p| p.into_inner());
        *flagged = true;
        drop(flagged);
        self.shutdown_cv.notify_all();
    }

    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

/// A running server. Dropping the handle without calling
/// [`Server::shutdown`] aborts the accept loop without draining —
/// always shut down explicitly in production paths.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds and starts serving `engine` per `cfg`. Returns once the
    /// listener is live; serving happens on background threads.
    pub fn start(engine: Arc<Engine>, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let admission = AdmissionController::new(cfg.admission.clone());
        let subs = Arc::new(SubRegistry::default());
        // Install the engine's notify sink: every match a committed
        // INSERT produces lands in its owner session's bounded queue,
        // on the *writer's* thread, without ever blocking it.
        let sink_subs = Arc::clone(&subs);
        let sink_faults = engine.fault_injector();
        engine.set_notify_sink(Some(Arc::new(move |ev| {
            sink_subs.deliver(ev, &sink_faults);
        })));
        let shared = Arc::new(Shared {
            engine,
            cfg,
            admission,
            shutting_down: AtomicBool::new(false),
            shutdown_signal: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            connections: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            next_session_id: AtomicU64::new(1),
            subs,
        });
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = thread::Builder::new()
            .name("mpq-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared, accept_conns))?;
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True once shutdown has been requested (by a client `Shutdown`
    /// request or by [`ServerHandle::shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Blocks until a shutdown is requested from any source.
    pub fn wait_shutdown_requested(&self) {
        let mut flagged =
            self.shared.shutdown_signal.lock().unwrap_or_else(|p| p.into_inner());
        while !*flagged {
            flagged = self
                .shared
                .shutdown_cv
                .wait(flagged)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stops accepting, drains in-flight statements (their responses
    /// are still written), closes every connection, checkpoints the
    /// engine, and reports what happened.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.request_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Connection threads observe the flag at their next poll tick
        // (idle) or after finishing their in-flight statement.
        let handles: Vec<_> = {
            let mut guard =
                self.conn_threads.lock().unwrap_or_else(|p| p.into_inner());
            guard.drain(..).collect()
        };
        for t in handles {
            let _ = t.join();
        }
        // The sessions are gone; stop producing notifications for them.
        self.shared.engine.set_notify_sink(None);
        let checkpoint_lsn = self.shared.engine.checkpoint().ok();
        let stats = self.shared.admission.stats();
        DrainReport {
            connections: self.shared.connections.load(Ordering::Relaxed),
            queries_served: self.shared.queries_served.load(Ordering::Relaxed),
            rejected_busy: stats.rejected_busy,
            rejected_timeout: stats.rejected_timeout,
            checkpoint_lsn,
        }
    }
}

const POLL_INTERVAL: Duration = Duration::from_millis(5);

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("mpq-conn".to_string())
                    .spawn(move || {
                        // A connection thread must never take the
                        // server down; errors just close the socket.
                        let _ = serve_connection(stream, conn_shared);
                    });
                if let Ok(handle) = spawned {
                    conn_threads.lock().unwrap_or_else(|p| p.into_inner()).push(handle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Why the connection loop stopped (internal; the socket closes either
/// way).
enum ConnExit {
    /// Peer said goodbye, disconnected, or shutdown drained it.
    Clean,
    /// Protocol violation or I/O failure; already reported to the peer
    /// when possible.
    Abrupt,
}

fn serve_connection(mut stream: TcpStream, shared: Arc<Shared>) -> ConnExit {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let faults = shared.engine.fault_injector();

    // Handshake: the first frame must be a version-matched Hello, and
    // it must arrive within the read-timeout budget — a pre-Hello
    // connection holds server resources while having proven nothing.
    let mut buf: Vec<u8> = Vec::new();
    let hello = match read_request(&mut stream, &mut buf, &shared, true, None) {
        Ok(Some(req)) => req,
        Ok(None) => return ConnExit::Clean,
        Err(exit) => return exit,
    };
    // One protocol version: any other hello is refused and the
    // connection closed.
    let refusal = match hello {
        Request::Hello { proto_version: PROTO_VERSION, .. } => None,
        Request::Hello { proto_version, .. } => Some(format!(
            "protocol version {proto_version} not supported (server speaks {PROTO_VERSION})"
        )),
        _ => Some("first request must be Hello".to_string()),
    };
    if let Some(detail) = refusal {
        return refuse(&mut stream, detail, &faults);
    }
    let session_id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
    let resp = Response::Hello {
        proto_version: PROTO_VERSION,
        session_id,
        server: shared.cfg.server_name.clone(),
    };
    if send_response(&mut stream, &resp, &faults).is_err() {
        return ConnExit::Abrupt;
    }

    // Every session gets a push queue, so any session may SUBSCRIBE.
    let notify = shared.subs.register_session(session_id, shared.cfg.notify_queue_cap);
    let exit = session_loop(&mut stream, &mut buf, &shared, session_id, &notify);
    // Whatever way the connection ended, the session's queue and its
    // claim on subscriptions go with it (the subscriptions themselves
    // are durable engine state and survive).
    shared.subs.drop_session(session_id);
    exit
}

fn session_loop(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shared: &Arc<Shared>,
    session_id: u64,
    notify: &NotifyQueue,
) -> ConnExit {
    let faults = shared.engine.fault_injector();
    // Session scope: SET statements on this connection land here, not
    // on the engine-wide defaults.
    let mut session = SessionState::new();

    loop {
        let req = match read_request(stream, buf, shared, false, Some(notify)) {
            Ok(Some(req)) => req,
            Ok(None) => return ConnExit::Clean,
            Err(exit) => return exit,
        };
        let resp = match req {
            Request::Hello { .. } => Response::Error(ServerError::Protocol {
                detail: "duplicate Hello".to_string(),
            }),
            Request::Statement { sql, stmt_id } => {
                let resp = handle_statement(shared, &mut session, &sql, stmt_id);
                // Ownership bookkeeping *before* the ack goes out: once
                // the client sees `Subscribed`, matches from any later
                // acked INSERT are guaranteed a queue to land in.
                if let Response::Outcome(outcome) = &resp {
                    match outcome {
                        StatementOutcome::Subscribed { id } => {
                            shared.subs.claim(*id, session_id);
                        }
                        StatementOutcome::Unsubscribed { id } => shared.subs.release(*id),
                        _ => {}
                    }
                }
                resp
            }
            Request::Health => Response::Health(shared.engine.health()),
            Request::Shutdown => {
                shared.request_shutdown();
                Response::ShutdownStarted
            }
            Request::Goodbye => {
                let _ = send_response(stream, &Response::Goodbye, &faults);
                let _ = stream.shutdown(SockShutdown::Both);
                return ConnExit::Clean;
            }
            // Replication traffic bypasses admission control: a stalled
            // admission queue must not be able to stall the standby
            // (which would stall every synchronous commit).
            Request::ReplState => Response::ReplState {
                role: shared.engine.role(),
                epoch: shared.engine.epoch(),
                next_lsn: shared.engine.last_lsn() + 1,
            },
            Request::ReplAppend { epoch, frames } => {
                match shared.engine.apply_replicated_frames(epoch, &frames) {
                    Ok(next_lsn) => {
                        Response::ReplAck { next_lsn, epoch: shared.engine.epoch() }
                    }
                    Err(e) => Response::Error(ServerError::Engine(e)),
                }
            }
            Request::ReplSnapshot { snapshot } => {
                match shared.engine.install_replica_snapshot(&snapshot) {
                    Ok(next_lsn) => {
                        Response::ReplAck { next_lsn, epoch: shared.engine.epoch() }
                    }
                    Err(e) => Response::Error(ServerError::Engine(e)),
                }
            }
            Request::Promote => match shared.engine.promote() {
                Ok(_) => Response::ReplState {
                    role: shared.engine.role(),
                    epoch: shared.engine.epoch(),
                    next_lsn: shared.engine.last_lsn() + 1,
                },
                Err(e) => Response::Error(ServerError::Engine(e)),
            },
        };
        let failed = send_response(stream, &resp, &faults).is_err();
        if failed || matches!(resp, Response::Error(ServerError::Protocol { .. })) {
            let _ = stream.shutdown(SockShutdown::Both);
            return ConnExit::Abrupt;
        }
        // Flush pushes eagerly after each response: the common case is
        // a session whose own INSERT just matched its own subscription
        // — the Notify lands right behind the Inserted ack.
        if flush_notifications(stream, notify, &faults).is_err() {
            let _ = stream.shutdown(SockShutdown::Both);
            return ConnExit::Abrupt;
        }
    }
}

/// Writes every queued notification (matches first, then any gap
/// marker in stream position) as `Notify` frames.
fn flush_notifications(
    stream: &mut TcpStream,
    queue: &NotifyQueue,
    faults: &FaultInjector,
) -> io::Result<()> {
    while let Some(n) = queue.pop() {
        send_response(stream, &Response::Notify(n), faults)?;
    }
    Ok(())
}

fn handle_statement(
    shared: &Shared,
    session: &mut SessionState,
    sql: &str,
    stmt_id: Option<StatementId>,
) -> Response {
    if shared.is_shutting_down() {
        return Response::Error(ServerError::ShuttingDown);
    }
    // Two refusal sources: a statically read-only server (`--read-only`)
    // and the engine's *live* role — a standby refuses mutations until
    // the moment it is promoted, then accepts them on the very next
    // statement with no restart.
    if (shared.cfg.read_only || shared.engine.role() == mpq_engine::ReplRole::Standby)
        && is_mutation_sql(sql)
    {
        return Response::Error(ServerError::ReadOnly {
            detail: "this server only accepts reads (standby or --read-only)".to_string(),
        });
    }
    let permit = match shared.admission.admit() {
        Ok(p) => p,
        Err(AdmissionError::Busy { in_flight, queued }) => {
            return Response::Error(ServerError::Busy { in_flight, queued });
        }
        Err(AdmissionError::Timeout { waited_ms }) => {
            return Response::Error(ServerError::QueueTimeout { waited_ms });
        }
    };
    // A stamped statement goes through the exactly-once path: if the
    // same id already applied (live or replayed from the WAL after a
    // crash), the original outcome comes back instead of a re-apply.
    let result = match stmt_id {
        Some(id) => shared.engine.execute_sql_stamped(sql, session, id),
        None => shared.engine.execute_sql_in(sql, session),
    };
    drop(permit);
    shared.queries_served.fetch_add(1, Ordering::Relaxed);
    match result {
        Ok(outcome) => Response::Outcome(outcome),
        Err(e) => Response::Error(ServerError::Engine(e)),
    }
}

/// True when the statement's leading keyword marks a mutation. The
/// grammar's only mutating statements are `INSERT`, `CREATE ...`
/// (model/index), and `SUBSCRIBE`/`UNSUBSCRIBE` (the subscription
/// catalog is durable, WAL-logged state), so a keyword test is exact —
/// and it must not parse, because a read-only server refuses mutations
/// even for tables it does not know about yet.
fn is_mutation_sql(sql: &str) -> bool {
    let first = sql.split_whitespace().next().unwrap_or("");
    ["insert", "create", "subscribe", "unsubscribe"]
        .iter()
        .any(|kw| first.eq_ignore_ascii_case(kw))
}

/// Reads one request frame. `Ok(None)` means the connection ended
/// cleanly (EOF while idle, or server shutdown while idle — the latter
/// after a best-effort `Goodbye`). The slow-loris budget starts ticking
/// once a partial frame exists — or immediately when `timebox_idle` is
/// set (the handshake read: a pre-Hello connection may not idle).
///
/// With a `notify` queue, pending subscription pushes are flushed as
/// `Notify` frames on every poll tick (the 25 ms read timeout), so a
/// subscriber sitting idle between requests still receives matches
/// promptly.
fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shared: &Shared,
    timebox_idle: bool,
    notify: Option<&NotifyQueue>,
) -> Result<Option<Request>, ConnExit> {
    let faults = shared.engine.fault_injector();
    let mut partial_since: Option<Instant> =
        if timebox_idle { Some(Instant::now()) } else { None };
    loop {
        if let Some(q) = notify {
            if flush_notifications(stream, q, &faults).is_err() {
                let _ = stream.shutdown(SockShutdown::Both);
                return Err(ConnExit::Abrupt);
            }
        }
        // Try to parse a complete frame off the front of the buffer.
        let needed = match decode_frame(buf, shared.cfg.max_frame_len) {
            Ok((payload, consumed)) => {
                let decoded = Request::decode(&payload);
                consume_frame(buf, consumed);
                return match decoded {
                    Ok(req) => Ok(Some(req)),
                    Err(e) => Err(refuse(stream, format!("undecodable request: {e}"), &faults)),
                };
            }
            Err(FrameError::Incomplete { needed }) => needed,
            Err(e) => {
                // TooLong / BadCrc: the stream cannot be resynchronized.
                return Err(refuse(stream, format!("bad frame: {e}"), &faults));
            }
        };

        if buf.is_empty() {
            if !timebox_idle {
                partial_since = None;
            }
            if shared.is_shutting_down() {
                // Idle at shutdown: wave goodbye and drain out.
                let _ = send_response(stream, &Response::Goodbye, &faults);
                let _ = stream.shutdown(SockShutdown::Both);
                return Ok(None);
            }
        }
        if let Some(started) = (!buf.is_empty() || timebox_idle)
            .then(|| *partial_since.get_or_insert_with(Instant::now))
        {
            if started.elapsed() > shared.cfg.request_read_timeout {
                // Slow-loris: a partial frame (or an unfinished
                // handshake) has been dribbling in for longer than any
                // honest client needs.
                let detail =
                    if timebox_idle { "handshake timed out" } else { "request read timed out" };
                return Err(refuse(stream, detail.to_string(), &faults));
            }
        }

        match read_into(stream, buf, needed) {
            Ok(0) => {
                // EOF. Mid-frame it is abrupt, idle it is clean.
                return if buf.is_empty() { Ok(None) } else { Err(ConnExit::Abrupt) };
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(ConnExit::Abrupt),
        }
    }
}

/// Answers a protocol violation with a typed [`ServerError::Protocol`]
/// and severs the connection.
fn refuse(stream: &mut TcpStream, detail: String, faults: &FaultInjector) -> ConnExit {
    let _ = send_response(stream, &Response::Error(ServerError::Protocol { detail }), faults);
    let _ = stream.shutdown(SockShutdown::Both);
    ConnExit::Abrupt
}

/// Writes one response frame, honouring armed connection faults:
/// `conn_torn_frame` flips a payload byte (CRC now fails on the
/// client), `conn_drop_mid_response` writes half the frame and severs
/// the socket.
fn send_response(stream: &mut TcpStream, resp: &Response, faults: &FaultInjector) -> io::Result<()> {
    let mut frame = resp.to_frame();
    if faults.take_conn_torn_frame() {
        // Corrupt one payload byte *after* the CRC was computed.
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
    }
    if faults.take_conn_drop_mid_response() {
        let half = frame.len() / 2;
        stream.write_all(&frame[..half])?;
        stream.flush()?;
        let _ = stream.shutdown(SockShutdown::Both);
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "fault injection: connection dropped mid-response",
        ));
    }
    stream.write_all(&frame)?;
    stream.flush()
}
