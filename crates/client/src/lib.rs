//! # mpq-client
//!
//! A blocking TCP client for the mining-predicates wire protocol (see
//! the `mpq-server` crate and DESIGN.md §9).
//!
//! [`Client::connect`] performs the versioned handshake and returns a
//! connected session; [`Client::statement`] runs one SQL statement and
//! returns the engine's own [`StatementOutcome`], reconstructed from
//! the wire — so results compare `==` against in-process execution,
//! which is exactly what the differential oracle tests do.
//!
//! Failures are total and typed ([`ClientError`]): a server-side
//! refusal arrives as [`ClientError::Remote`] with the exact
//! [`ServerError`]; a torn or corrupted frame is [`ClientError::Frame`]
//! (never a panic, never a half-decoded value); a severed connection is
//! [`ClientError::Disconnected`].
//!
//! For tests, [`Client::connect_with`] takes a [`FaultInjector`]: with
//! `conn_slow_loris` armed the client dribbles its next request one
//! byte at a time — the misbehaving peer the server's request-read
//! timeout exists to defend against.
//!
//! For production-shaped callers there is [`ReliableClient`]: it stamps
//! every statement with an exactly-once id (session nonce + sequence),
//! retries retryable failures under a [`RetryPolicy`] (exponential
//! backoff with deterministic jitter, per-attempt timeout, total
//! budget), reconnects automatically, and replays the session's `SET`
//! statements on the fresh connection. Because mutations are stamped,
//! a blind retry after a dropped connection can never double-apply: the
//! server deduplicates and answers with the original outcome.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mpq_engine::{
    EngineError, EngineHealth, FaultInjector, QueryOutcome, StatementId, StatementOutcome,
};
use mpq_server::protocol::{
    consume_frame, decode_frame, read_into, FrameError, Request, Response, ServerError,
    DEFAULT_MAX_FRAME_LEN, PROTO_VERSION,
};
pub use mpq_server::protocol::Notification;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// A socket-level failure.
    Io(String),
    /// The server closed the connection (EOF mid-exchange).
    Disconnected,
    /// A frame arrived torn, corrupted, or undecodable.
    Frame(String),
    /// The server answered with a typed error.
    Remote(ServerError),
    /// The server answered with a message that makes no sense for the
    /// request (protocol bug, not an I/O accident).
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Frame(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected(e) => write!(f, "unexpected response: {e}"),
        }
    }
}

impl ClientError {
    /// Whether a retry can possibly succeed — and, for stamped
    /// statements, is guaranteed not to double-apply.
    ///
    /// Retryable: socket failures, disconnects, torn frames (the
    /// response was lost, not the statement's validity), admission
    /// refusals (`Busy`, `QueueTimeout`), a draining server
    /// (`ShuttingDown` — it may restart), transient engine I/O errors
    /// (disk full, or a synchronous-replication ack that timed out),
    /// and failover transients: a read-only refusal (the supervisor is
    /// about to repoint us at the new primary) and a stale-epoch
    /// refusal (we raced a promotion; the retry goes to the winner).
    /// Everything else — SQL errors, budget violations, internal
    /// errors, protocol violations — is fatal: the same statement
    /// would fail the same way again.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Disconnected
                | ClientError::Frame(_)
                | ClientError::Remote(ServerError::Busy { .. })
                | ClientError::Remote(ServerError::QueueTimeout { .. })
                | ClientError::Remote(ServerError::ShuttingDown)
                | ClientError::Remote(ServerError::ReadOnly { .. })
                | ClientError::Remote(ServerError::Engine(EngineError::Io { .. }))
                | ClientError::Remote(ServerError::Engine(EngineError::ReadOnly { .. }))
                | ClientError::Remote(ServerError::Engine(EngineError::StaleEpoch { .. }))
        )
    }

    /// Whether the failure invalidated the connection itself (reconnect
    /// before retrying) rather than just the request. Read-only and
    /// stale-epoch refusals sever on purpose: the node we are talking
    /// to is the wrong one, and the reconnect re-reads the shared
    /// address handle the supervisor repoints at the new primary.
    fn severs_connection(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Disconnected
                | ClientError::Frame(_)
                | ClientError::Remote(ServerError::ShuttingDown)
                | ClientError::Remote(ServerError::ReadOnly { .. })
                | ClientError::Remote(ServerError::Engine(EngineError::ReadOnly { .. }))
                | ClientError::Remote(ServerError::Engine(EngineError::StaleEpoch { .. }))
        )
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e.to_string())
    }
}

/// A connected, handshaken session with an `mpq-server`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    session_id: u64,
    faults: Option<Arc<FaultInjector>>,
    /// Server-push [`Notification`]s that arrived interleaved with (or
    /// between) request/response exchanges, in delivery order, waiting
    /// for the application to [`Client::poll_notification`] them.
    notifications: VecDeque<Notification>,
}

impl Client {
    /// Connects to `addr` and performs the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_named(addr, "mpq-client")
    }

    /// Like [`Client::connect`] with a caller-chosen client name (shown
    /// in server-side diagnostics).
    pub fn connect_named(
        addr: impl ToSocketAddrs,
        name: &str,
    ) -> Result<Client, ClientError> {
        Client::open(addr, name, None, None)
    }

    /// Test hook: a client that honours connection-level fault
    /// injection (currently `conn_slow_loris`, which dribbles the next
    /// request one byte at a time to provoke the server's read
    /// timeout).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        faults: Arc<FaultInjector>,
    ) -> Result<Client, ClientError> {
        Client::open(addr, "mpq-client-faulty", Some(faults), None)
    }

    /// Like [`Client::connect_named`], additionally arming a read
    /// deadline that covers the handshake and every later exchange — a
    /// hung server surfaces as a typed [`ClientError::Io`] instead of a
    /// client that blocks forever.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        name: &str,
        read_timeout: Duration,
    ) -> Result<Client, ClientError> {
        Client::open(addr, name, None, Some(read_timeout))
    }

    /// Connects and performs the handshake at [`PROTO_VERSION`].
    fn open(
        addr: impl ToSocketAddrs,
        name: &str,
        faults: Option<Arc<FaultInjector>>,
        read_timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        let mut client = Client {
            stream,
            buf: Vec::new(),
            session_id: 0,
            faults,
            notifications: VecDeque::new(),
        };
        let resp = client.exchange(&Request::Hello {
            proto_version: PROTO_VERSION,
            client: name.to_string(),
        })?;
        match resp {
            Response::Hello { session_id, .. } => {
                client.session_id = session_id;
                Ok(client)
            }
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Unexpected(format!("{other:?} to Hello"))),
        }
    }

    /// The session id the server assigned at handshake.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Executes one SQL statement (query, DDL, INSERT, or session
    /// `SET`) without an exactly-once stamp.
    pub fn statement(&mut self, sql: &str) -> Result<StatementOutcome, ClientError> {
        self.statement_inner(sql, None)
    }

    /// Executes one SQL statement stamped with an exactly-once id: if a
    /// statement with the same id already applied on the server, the
    /// mutation is not re-applied and the original outcome comes back.
    /// This is the safe way to retry an INSERT or DDL whose response
    /// was lost. [`ReliableClient`] manages the ids automatically.
    pub fn statement_stamped(
        &mut self,
        sql: &str,
        id: StatementId,
    ) -> Result<StatementOutcome, ClientError> {
        self.statement_inner(sql, Some(id))
    }

    fn statement_inner(
        &mut self,
        sql: &str,
        stmt_id: Option<StatementId>,
    ) -> Result<StatementOutcome, ClientError> {
        let resp = self.exchange(&Request::Statement { sql: sql.to_string(), stmt_id })?;
        match resp {
            Response::Outcome(o) => Ok(o),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Unexpected(format!("{other:?} to Statement"))),
        }
    }

    /// Executes a statement that must be a SELECT; returns its
    /// [`QueryOutcome`].
    pub fn query(&mut self, sql: &str) -> Result<QueryOutcome, ClientError> {
        match self.statement(sql)? {
            StatementOutcome::Query(q) => Ok(q),
            other => Err(ClientError::Unexpected(format!("{other:?} to a SELECT"))),
        }
    }

    /// Fetches the engine's health report (models, envelope state,
    /// recovery report).
    pub fn health(&mut self) -> Result<EngineHealth, ClientError> {
        let resp = self.exchange(&Request::Health)?;
        match resp {
            Response::Health(h) => Ok(h),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Unexpected(format!("{other:?} to Health"))),
        }
    }

    /// Asks the server to begin its graceful shutdown (drain, then
    /// checkpoint). Returns once the server acknowledges.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let resp = self.exchange(&Request::Shutdown)?;
        match resp {
            Response::ShutdownStarted => Ok(()),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Unexpected(format!("{other:?} to Shutdown"))),
        }
    }

    /// Closes the session politely.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        let resp = self.exchange(&Request::Goodbye)?;
        match resp {
            Response::Goodbye => Ok(()),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Unexpected(format!("{other:?} to Goodbye"))),
        }
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let frame = req.to_frame();
        let slow = self
            .faults
            .as_ref()
            .is_some_and(|f| f.conn_slow_loris_armed());
        if slow {
            // One byte at a time with a pause between: the slow-loris
            // shape the server's request-read deadline cuts off.
            for &b in &frame {
                if self.stream.write_all(&[b]).is_err() {
                    // The server gave up on us — exactly what the fault
                    // is meant to provoke; surface it on the next recv.
                    return Ok(());
                }
                let _ = self.stream.flush();
                std::thread::sleep(Duration::from_millis(10));
            }
            return Ok(());
        }
        self.stream.write_all(&frame)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Returns the next server-push [`Notification`] if one is ready,
    /// without blocking. Drains whatever bytes the socket already holds
    /// (Notify frames pushed after acked inserts), then answers from
    /// the queue. `Ok(None)` means nothing is pending right now.
    ///
    /// Only meaningful after a `SUBSCRIBE` statement registered a
    /// standing query on this session; other sessions' clients never
    /// receive pushes.
    pub fn poll_notification(&mut self) -> Result<Option<Notification>, ClientError> {
        if let Some(n) = self.notifications.pop_front() {
            return Ok(Some(n));
        }
        // Drain without blocking: flip the socket to non-blocking for
        // the duration of the read loop, restore before returning.
        self.stream.set_nonblocking(true)?;
        let drained = self.drain_ready();
        self.stream.set_nonblocking(false)?;
        drained?;
        Ok(self.notifications.pop_front())
    }

    /// Reads every byte the kernel already buffered (non-blocking mode
    /// must be set by the caller) and files complete Notify frames into
    /// the queue. A non-Notify frame here is a protocol violation — no
    /// request is outstanding.
    fn drain_ready(&mut self) -> Result<(), ClientError> {
        loop {
            let needed = loop {
                match decode_frame(&self.buf, DEFAULT_MAX_FRAME_LEN) {
                    Ok((payload, consumed)) => {
                        let decoded = Response::decode(&payload);
                        consume_frame(&mut self.buf, consumed);
                        match decoded.map_err(|e| ClientError::Frame(e.to_string()))? {
                            Response::Notify(n) => self.notifications.push_back(n),
                            other => {
                                return Err(ClientError::Unexpected(format!(
                                    "{other:?} with no request outstanding"
                                )))
                            }
                        }
                    }
                    Err(FrameError::Incomplete { needed }) => break needed,
                    Err(e) => return Err(ClientError::Frame(e.to_string())),
                }
            };
            match read_into(&mut self.stream, &mut self.buf, needed) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e.to_string())),
            }
        }
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        loop {
            let needed = match decode_frame(&self.buf, DEFAULT_MAX_FRAME_LEN) {
                Ok((payload, consumed)) => {
                    let decoded = Response::decode(&payload);
                    consume_frame(&mut self.buf, consumed);
                    let resp = decoded.map_err(|e| ClientError::Frame(e.to_string()))?;
                    // A push frame racing our request/response exchange:
                    // queue it and keep waiting for the real answer.
                    if let Response::Notify(n) = resp {
                        self.notifications.push_back(n);
                        continue;
                    }
                    return Ok(resp);
                }
                Err(FrameError::Incomplete { needed }) => needed,
                Err(e) => return Err(ClientError::Frame(e.to_string())),
            };
            match read_into(&mut self.stream, &mut self.buf, needed) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e.to_string())),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Retrying client
// ---------------------------------------------------------------------

/// Retry tuning for [`ReliableClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per statement, first try included.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles on each retry.
    pub initial_backoff: Duration,
    /// Ceiling on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Total wall-clock budget per statement across attempts and
    /// backoffs; when the next backoff would overrun it, the last error
    /// is returned instead.
    pub total_budget: Duration,
    /// Read deadline per attempt (covers the handshake too): a hung
    /// server becomes a failed — retryable — attempt, not a hung
    /// client.
    pub attempt_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            total_budget: Duration::from_secs(30),
            attempt_timeout: Duration::from_secs(10),
        }
    }
}

/// A client with exactly-once retries and automatic reconnection.
///
/// Every statement is stamped with `StatementId { nonce, seq }` — the
/// nonce names this client's logical session across reconnects, the
/// sequence increments per statement. On a retryable failure
/// ([`ClientError::is_retryable`]) the statement is re-sent *with the
/// same id*: the server (and its WAL, across crashes) deduplicates, so
/// an INSERT whose response was lost applies exactly once. On
/// reconnect, the session's accumulated `SET PARALLELISM` / `SET
/// GUARD` statements are replayed first, so session scope survives the
/// server restarting underneath us.
#[derive(Debug)]
pub struct ReliableClient {
    /// Where to (re)connect. Shared so a supervisor that restarts the
    /// server on a fresh port can repoint every writer mid-retry: each
    /// attempt re-reads the current address.
    addr: Arc<RwLock<String>>,
    name: String,
    policy: RetryPolicy,
    client: Option<Client>,
    nonce: u64,
    next_seq: u64,
    rng: u64,
    /// Successful `SET` statements, keyed for supersession, replayed in
    /// order on every reconnect.
    session_sets: Vec<(String, String)>,
    /// Reconnects performed over this client's lifetime (observability
    /// for tests and chaos oracles).
    reconnects: u64,
}

impl ReliableClient {
    /// Creates a client for `addr` with a process-entropy nonce. No
    /// connection is made until the first statement.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> ReliableClient {
        ReliableClient::with_nonce(addr, policy, entropy_nonce())
    }

    /// Like [`ReliableClient::new`] with a caller-chosen session nonce
    /// — deterministic tests and chaos writers pass distinct fixed
    /// nonces so runs are reproducible.
    pub fn with_nonce(
        addr: impl Into<String>,
        policy: RetryPolicy,
        nonce: u64,
    ) -> ReliableClient {
        ReliableClient::with_addr_handle(Arc::new(RwLock::new(addr.into())), policy, nonce)
    }

    /// Like [`ReliableClient::with_nonce`], but connecting to whatever
    /// address the shared handle currently holds. A chaos supervisor
    /// that kills and restarts the server (on a fresh port) writes the
    /// new address into the handle; every writer's in-flight retry loop
    /// picks it up on its next attempt, so a restart looks like one
    /// more retryable failure.
    pub fn with_addr_handle(
        addr: Arc<RwLock<String>>,
        policy: RetryPolicy,
        nonce: u64,
    ) -> ReliableClient {
        ReliableClient {
            addr,
            name: format!("mpq-reliable-{nonce:016x}"),
            policy,
            client: None,
            nonce,
            next_seq: 0,
            rng: nonce | 1,
            session_sets: Vec::new(),
            reconnects: 0,
        }
    }

    /// The session nonce stamped into every statement id.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// How many times this client has (re)connected.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Executes one statement with exactly-once retries. The statement
    /// gets a fresh id; every retry reuses it, so the server applies
    /// the mutation at most once no matter how many attempts it takes.
    pub fn statement(&mut self, sql: &str) -> Result<StatementOutcome, ClientError> {
        let id = StatementId { nonce: self.nonce, seq: self.next_seq };
        self.next_seq += 1;
        let started = Instant::now();
        let mut backoff = self.policy.initial_backoff;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = match self.ensure_connected() {
                Ok(c) => c.statement_stamped(sql, id),
                Err(e) => Err(e),
            };
            match result {
                Ok(outcome) => {
                    self.note_set(sql);
                    return Ok(outcome);
                }
                Err(e) => {
                    if e.severs_connection() {
                        self.client = None;
                    }
                    let sleep = self.jittered(backoff);
                    if !e.is_retryable()
                        || attempt >= self.policy.max_attempts
                        || started.elapsed() + sleep > self.policy.total_budget
                    {
                        return Err(e);
                    }
                    std::thread::sleep(sleep);
                    backoff = (backoff * 2).min(self.policy.max_backoff);
                }
            }
        }
    }

    /// Executes a statement that must be a SELECT; returns its
    /// [`QueryOutcome`].
    pub fn query(&mut self, sql: &str) -> Result<QueryOutcome, ClientError> {
        match self.statement(sql)? {
            StatementOutcome::Query(q) => Ok(q),
            other => Err(ClientError::Unexpected(format!("{other:?} to a SELECT"))),
        }
    }

    /// Closes the connection politely, if one is open.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.client.take() {
            Some(c) => c.goodbye(),
            None => Ok(()),
        }
    }

    fn ensure_connected(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            let addr =
                self.addr.read().unwrap_or_else(|e| e.into_inner()).clone();
            let mut c = Client::connect_with_timeout(
                addr.as_str(),
                &self.name,
                self.policy.attempt_timeout,
            )?;
            // Session resumption: the server's session died with the
            // old connection, so re-establish its SET state before the
            // caller's statement runs under it.
            for (_, sql) in &self.session_sets {
                c.statement(sql)?;
            }
            self.reconnects += 1;
            self.client = Some(c);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// Records a successful `SET` for replay on reconnect. Later
    /// statements supersede the earlier ones they fully overwrite
    /// (same knob, or any guard once `SET GUARD OFF` lands), keeping
    /// the replay list bounded by the number of distinct knobs.
    fn note_set(&mut self, sql: &str) {
        let up: Vec<String> =
            sql.split_whitespace().map(|t| t.to_ascii_uppercase()).collect();
        if up.first().map(String::as_str) != Some("SET") || up.len() < 2 {
            return;
        }
        let key = match up[1].as_str() {
            "PARALLELISM" => "PARALLELISM".to_string(),
            "GUARD" => match up.get(2).map(String::as_str) {
                Some("OFF") => {
                    // OFF wipes every budget: earlier guard entries are
                    // fully superseded.
                    self.session_sets.retain(|(k, _)| !k.starts_with("GUARD"));
                    "GUARD OFF".to_string()
                }
                Some(resource) => format!("GUARD {resource}"),
                None => return,
            },
            _ => return,
        };
        self.session_sets.retain(|(k, _)| *k != key);
        self.session_sets.push((key, sql.to_string()));
    }

    /// xorshift64: deterministic per-nonce jitter, so a fixed-seed
    /// chaos run replays the same backoff schedule.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Half the backoff fixed, half uniformly random — decorrelates
    /// competing retriers without ever sleeping longer than `d`.
    fn jittered(&mut self, d: Duration) -> Duration {
        let half = d / 2;
        let span = half.as_nanos().max(1) as u64;
        half + Duration::from_nanos(self.next_rand() % span)
    }
}

/// A nonce unlikely to collide across processes and restarts: wall
/// clock, pid, and a process-local counter, scrambled splitmix64-style.
fn entropy_nonce() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64;
    let mix = t
        ^ ((std::process::id() as u64) << 32)
        ^ COUNTER.fetch_add(1, Ordering::Relaxed).rotate_left(17);
    let mut z = mix.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_split_matches_the_taxonomy() {
        // Retryable: the response (or the server) was lost, or the
        // refusal is load-shaped.
        for e in [
            ClientError::Io("broken pipe".into()),
            ClientError::Disconnected,
            ClientError::Frame("crc".into()),
            ClientError::Remote(ServerError::Busy { in_flight: 8, queued: 64 }),
            ClientError::Remote(ServerError::QueueTimeout { waited_ms: 100 }),
            ClientError::Remote(ServerError::ShuttingDown),
            ClientError::Remote(ServerError::Engine(EngineError::Io {
                detail: "no space left on device".into(),
            })),
        ] {
            assert!(e.is_retryable(), "{e:?}");
        }
        // Fatal: the statement itself is the problem.
        for e in [
            ClientError::Remote(ServerError::Engine(EngineError::Parse {
                at: 0,
                detail: "nope".into(),
            })),
            ClientError::Remote(ServerError::Engine(EngineError::Internal {
                detail: "dedup outcome evicted".into(),
            })),
            ClientError::Remote(ServerError::Engine(EngineError::BudgetExceeded {
                resource: mpq_engine::GuardResource::RowsExamined,
                spent: 2,
                limit: 1,
            })),
            ClientError::Remote(ServerError::Protocol { detail: "bad hello".into() }),
            ClientError::Unexpected("goodbye to a SELECT".into()),
        ] {
            assert!(!e.is_retryable(), "{e:?}");
        }
    }

    #[test]
    fn set_replay_list_is_bounded_and_ordered() {
        let mut rc = ReliableClient::with_nonce("127.0.0.1:1", RetryPolicy::default(), 7);
        rc.note_set("SET PARALLELISM 2");
        rc.note_set("SET PARALLELISM 4");
        rc.note_set("SET GUARD ROWS 100");
        rc.note_set("SET GUARD PAGES 50");
        rc.note_set("SET GUARD ROWS 200");
        // Same-knob statements supersede; different knobs coexist.
        let sqls: Vec<&str> =
            rc.session_sets.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(
            sqls,
            ["SET PARALLELISM 4", "SET GUARD PAGES 50", "SET GUARD ROWS 200"]
        );
        // OFF wipes every guard entry and stands alone.
        rc.note_set("SET GUARD OFF");
        let sqls: Vec<&str> =
            rc.session_sets.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(sqls, ["SET PARALLELISM 4", "SET GUARD OFF"]);
        // A guard set after OFF replays after it.
        rc.note_set("SET GUARD TIME_MS 1000");
        let sqls: Vec<&str> =
            rc.session_sets.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(sqls, ["SET PARALLELISM 4", "SET GUARD OFF", "SET GUARD TIME_MS 1000"]);
        // Non-SET statements are ignored.
        rc.note_set("SELECT * FROM t");
        assert_eq!(rc.session_sets.len(), 3);
    }

    #[test]
    fn statement_ids_are_unique_and_monotonic() {
        let mut rc = ReliableClient::with_nonce("127.0.0.1:1", RetryPolicy::default(), 42);
        // The address points nowhere: every attempt fails with a
        // retryable connect error, consuming the budget, but each
        // statement still burns exactly one sequence number.
        let fast = RetryPolicy {
            max_attempts: 2,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            total_budget: Duration::from_millis(50),
            attempt_timeout: Duration::from_millis(50),
        };
        rc.policy = fast;
        assert!(rc.statement("SELECT 1").is_err());
        assert!(rc.statement("SELECT 2").is_err());
        assert_eq!(rc.next_seq, 2);
        assert_eq!(rc.nonce(), 42);
    }

    #[test]
    fn jitter_is_deterministic_per_nonce() {
        let p = RetryPolicy::default();
        let mut a = ReliableClient::with_nonce("x:1", p.clone(), 99);
        let mut b = ReliableClient::with_nonce("x:1", p, 99);
        let d = Duration::from_millis(100);
        for _ in 0..8 {
            assert_eq!(a.jittered(d), b.jittered(d));
        }
        // And bounded: in [d/2, d).
        for _ in 0..64 {
            let j = a.jittered(d);
            assert!(j >= d / 2 && j < d, "{j:?}");
        }
    }
}
