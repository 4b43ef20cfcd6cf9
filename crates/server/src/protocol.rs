//! The wire protocol: CRC-framed request/response messages.
//!
//! Framing reuses the discipline of the engine's WAL (`persist/wal.rs`):
//! every message travels as one frame
//!
//! ```text
//! +---------+-----------+-------------+
//! | len u32 | crc32 u32 | payload ... |
//! +---------+-----------+-------------+
//! ```
//!
//! little-endian, with the CRC-32 (same polynomial as the WAL) covering
//! the whole payload. The payload is one tag byte followed by the
//! message body, encoded through the same validated
//! [`WireWriter`]/[`WireReader`] primitives durability uses — so a torn,
//! truncated or bit-flipped frame decodes to a typed [`FrameError`] /
//! [`mpq_types::wire::WireError`], never a panic and never a
//! half-trusted value.
//!
//! Framing invariants, relied on by both ends and by every test that
//! throws hostile bytes at them:
//!
//! * the length prefix is checked against the receiver's ceiling
//!   *before* anything is allocated or read for it ([`FrameError::TooLong`]),
//!   and a receiver's buffer grows with the bytes that actually arrive,
//!   never with the bytes a header claims;
//! * the CRC is verified over the whole payload before any byte of it
//!   reaches a message decoder ([`FrameError::BadCrc`]; the stream
//!   cannot be resynchronized, so the connection is severed);
//! * inside a payload every element count is checked against the bytes
//!   remaining before anything is allocated for it;
//! * a message has exactly one encoding, and every byte of a payload
//!   must be consumed.
//!
//! A frame lives in one buffer on each side: [`Request::to_frame`] /
//! [`Response::to_frame`] encode the message behind eight reserved
//! header bytes and patch `len | crc` in afterwards, and
//! [`decode_frame`] hands the message decoder a slice of the
//! connection's own read buffer.
//!
//! A connection opens with `Hello`/`Hello` (versioned), then runs any
//! number of request/response exchanges — exactly one response per
//! request, always on the connection the request arrived on. There is
//! no pipelining; the protocol is deliberately stop-and-wait, which
//! makes "drain in-flight queries" well-defined at shutdown.
//!
//! Message vocabulary (tag bytes in parentheses):
//!
//! | direction | message | body |
//! |---|---|---|
//! | C→S | `Hello` (1) | proto version `u32`, client name |
//! | C→S | `Statement` (2) | SQL text, optional statement id (nonce `u64`, seq `u64`) |
//! | C→S | `Health` (3) | — |
//! | C→S | `Shutdown` (4) | — |
//! | C→S | `Goodbye` (5) | — |
//! | C→S | `ReplState` (6) | — (asks role/epoch/next LSN) |
//! | C→S | `ReplAppend` (7) | epoch `u64`, concatenated WAL frames |
//! | C→S | `ReplSnapshot` (8) | checksummed snapshot bytes |
//! | C→S | `Promote` (9) | — (standby → primary) |
//! | S→C | `Hello` (128) | proto version `u32`, session id `u64`, server name |
//! | S→C | `Outcome` (129) | a [`StatementOutcome`]: rows + metrics + plan, model-created, parallelism-set, guard-set |
//! | S→C | `Health` (130) | an [`EngineHealth`], recovery report included |
//! | S→C | `ShutdownStarted` (131) | — |
//! | S→C | `Goodbye` (132) | — |
//! | S→C | `Error` (133) | a [`ServerError`] |
//! | S→C | `ReplState` (134) | role `u8`, epoch `u64`, next LSN `u64` |
//! | S→C | `ReplAck` (135) | next LSN `u64`, epoch `u64` |
//! | S→C | `Notify` (136) | a subscription push: match (sub id, row id, row, match metrics) or gap marker |
//!
//! Version compatibility: there is one version, [`PROTO_VERSION`]. The
//! server refuses a hello naming any other with a typed
//! [`ServerError::Protocol`] and closes the connection; decoders read
//! exactly the shapes this file writes. How the format got here is in
//! DESIGN.md §9.
//!
//! Every engine type crossing the wire ([`QueryOutcome`],
//! [`ExecMetrics`], [`EngineHealth`], [`RecoveryReport`],
//! [`EngineError`], …) is encoded field-by-field and rebuilt on the
//! other side as the *same* Rust type, so the differential oracle can
//! compare wire results against in-process results with plain `==`.

use mpq_engine::{
    EngineError, EngineHealth, ExecMetrics, GuardHeadroom, GuardResource, MatchMetrics,
    ModelHealth, QueryGuard, QueryOutcome, RecoveryReport, ReplRole, RowId, StatementId,
    StatementOutcome,
};
use mpq_types::Member;
use mpq_types::wire::{crc32, WireError, WireReader, WireWriter};
use std::borrow::Cow;
use std::time::Duration;

/// The protocol version spoken by this build — the only one the
/// server's handshake accepts and the one every client dials.
pub const PROTO_VERSION: u32 = 7;

/// Default ceiling on one frame's payload length. Large enough for a
/// multi-million-row result (row ids are 4 bytes), small enough that a
/// hostile length prefix cannot make either side allocate the moon.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 64 << 20;

/// Frame header bytes: length + CRC.
pub const FRAME_HEADER_LEN: usize = 8;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Why a byte sequence does not (yet) parse as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// More bytes are needed. `needed` is the total frame length once
    /// known (i.e. once the 8-byte header has arrived).
    Incomplete {
        /// Total bytes of the frame, when the header has been read.
        needed: Option<usize>,
    },
    /// The length prefix exceeds the configured ceiling: the peer is
    /// broken or hostile; the connection cannot be resynchronized.
    TooLong {
        /// Claimed payload length.
        len: u64,
        /// The ceiling it exceeded.
        max: u64,
    },
    /// The payload failed its CRC: a torn or corrupted frame.
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Incomplete { needed: Some(n) } => {
                write!(f, "incomplete frame (need {n} bytes)")
            }
            FrameError::Incomplete { needed: None } => write!(f, "incomplete frame header"),
            FrameError::TooLong { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            FrameError::BadCrc => write!(f, "frame payload failed its CRC"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Turns a buffer holding [`FRAME_HEADER_LEN`] reserved bytes followed
/// by a payload into that payload's frame, by writing the length and
/// the CRC into the reserved bytes.
fn seal_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    frame
}

/// A writer for one frame: the header bytes are reserved up front, the
/// message is encoded behind them, [`seal_frame`] finishes it.
/// `payload_hint` sizes the buffer; it need not be exact.
fn frame_writer(payload_hint: usize) -> WireWriter {
    let mut w = WireWriter::with_capacity(FRAME_HEADER_LEN + payload_hint);
    w.put_u64(0);
    w
}

/// Wraps a payload in its frame (length + CRC header). For callers
/// that already hold a payload; [`Request::to_frame`] and
/// [`Response::to_frame`] encode a message straight into its frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    frame.extend_from_slice(payload);
    seal_frame(frame)
}

/// Attempts to parse one frame from the front of `buf`.
///
/// Returns the payload, CRC already verified, and the number of bytes
/// consumed. The payload is always [`Cow::Borrowed`] — a slice of
/// `buf`, never a copy; it is typed as a `Cow` rather than a bare slice
/// so that callers written against the owned payload this function
/// used to return (`Response::decode(&payload)`) compile unchanged.
/// Total: every possible input returns `Ok` or a typed [`FrameError`]
/// — torn prefixes are `Incomplete`, oversized length prefixes are
/// `TooLong` (checked *before* any allocation), corrupted payloads are
/// `BadCrc`.
pub fn decode_frame(buf: &[u8], max_len: u32) -> Result<(Cow<'_, [u8]>, usize), FrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Incomplete { needed: None });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > max_len {
        return Err(FrameError::TooLong { len: len as u64, max: max_len as u64 });
    }
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let total = FRAME_HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(FrameError::Incomplete { needed: Some(total) });
    }
    let payload = &buf[FRAME_HEADER_LEN..total];
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok((Cow::Borrowed(payload), total))
}

// ---------------------------------------------------------------------
// Connection buffers
// ---------------------------------------------------------------------

/// Most bytes one read asks the socket for, and so the most a
/// connection buffer grows ahead of the bytes that have arrived.
const READ_STEP_MAX: usize = 64 << 10;

/// Bytes one read asks for when less than that is known to be missing
/// (no header yet, or the frame is nearly complete): enough for a run
/// of small frames in one system call.
const READ_STEP_MIN: usize = 4 << 10;

/// Capacity an empty connection buffer may keep. One reply of a
/// million rows would otherwise pin four megabytes for the rest of the
/// connection's life.
const IDLE_BUF_CAPACITY: usize = 256 << 10;

/// Reads once from `stream` onto the end of the connection buffer —
/// no intermediate chunk. `needed` is the total length of the frame at
/// the front of `buf` when its header has arrived (what
/// [`FrameError::Incomplete`] reports): the read then asks for the
/// missing bytes, at most [`READ_STEP_MAX`] at a time, so a length
/// prefix alone never makes the buffer grow — only received bytes do,
/// and capacity stays within `max(2 x received, received + step)`.
/// Server connections, the replication peer and the client all read
/// this way.
pub fn read_into(
    stream: &mut impl std::io::Read,
    buf: &mut Vec<u8>,
    needed: Option<usize>,
) -> std::io::Result<usize> {
    let missing = needed.map_or(0, |total| total.saturating_sub(buf.len()));
    let filled = buf.len();
    buf.resize(filled + missing.clamp(READ_STEP_MIN, READ_STEP_MAX), 0);
    let read = stream.read(&mut buf[filled..]);
    buf.truncate(filled + *read.as_ref().unwrap_or(&0));
    read
}

/// Drops a decoded frame's `consumed` bytes from the front of the
/// connection buffer, and gives back the capacity a large frame left
/// behind once the buffer is empty.
pub fn consume_frame(buf: &mut Vec<u8>, consumed: usize) {
    buf.drain(..consumed);
    if buf.is_empty() && buf.capacity() > IDLE_BUF_CAPACITY {
        *buf = Vec::new();
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

const REQ_HELLO: u8 = 1;
const REQ_STATEMENT: u8 = 2;
const REQ_HEALTH: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_GOODBYE: u8 = 5;
const REQ_REPL_STATE: u8 = 6;
const REQ_REPL_APPEND: u8 = 7;
const REQ_REPL_SNAPSHOT: u8 = 8;
const REQ_PROMOTE: u8 = 9;

const RESP_HELLO: u8 = 128;
const RESP_OUTCOME: u8 = 129;
const RESP_HEALTH: u8 = 130;
const RESP_SHUTDOWN_STARTED: u8 = 131;
const RESP_GOODBYE: u8 = 132;
const RESP_ERROR: u8 = 133;
const RESP_REPL_STATE: u8 = 134;
const RESP_REPL_ACK: u8 = 135;
const RESP_NOTIFY: u8 = 136;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the connection; must be the first frame sent.
    Hello {
        /// The client's protocol version (must equal [`PROTO_VERSION`]).
        proto_version: u32,
        /// Free-form client identification (shown in server logs).
        client: String,
    },
    /// One SQL statement (query, DDL, a session `SET`, or an INSERT).
    Statement {
        /// The SQL text.
        sql: String,
        /// Client-generated exactly-once id (session nonce + per-nonce
        /// sequence). When present, a retried mutation with the same id
        /// is deduplicated — the server replies with the original
        /// outcome instead of applying it twice. `None` means the
        /// client takes its chances on retry.
        stmt_id: Option<StatementId>,
    },
    /// Asks for the engine's health report.
    Health,
    /// Asks the server to begin a graceful shutdown.
    Shutdown,
    /// Announces the client is closing the connection.
    Goodbye,
    /// Asks for the node's replication state — the shipper's first
    /// message after connecting, to learn where the standby left off.
    ReplState,
    /// Ships a batch of WAL frames to a standby, stamped with the
    /// sender's epoch. A stale epoch is refused — that is the fence.
    ReplAppend {
        /// The sending primary's replication epoch.
        epoch: u64,
        /// Concatenated on-disk-format WAL frames.
        frames: Vec<u8>,
    },
    /// Ships a full checksummed snapshot for standby bootstrap
    /// (the snapshot payload carries the epoch internally).
    ReplSnapshot {
        /// Serialized snapshot bytes (`MPQSNAP1`-framed).
        snapshot: Vec<u8>,
    },
    /// Promotes a standby to primary, durably bumping the epoch.
    Promote,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Accepts the connection.
    Hello {
        /// The server's protocol version.
        proto_version: u32,
        /// Identifier of the session created for this connection.
        session_id: u64,
        /// Free-form server identification.
        server: String,
    },
    /// A statement executed; its outcome verbatim.
    Outcome(StatementOutcome),
    /// The health report.
    Health(EngineHealth),
    /// Graceful shutdown has begun; in-flight work drains, new queries
    /// are refused.
    ShutdownStarted,
    /// Acknowledges a client `Goodbye` (or an idle connection closed by
    /// server shutdown).
    Goodbye,
    /// The request failed with a typed error; the connection stays
    /// usable unless the error says otherwise.
    Error(ServerError),
    /// The node's replication state.
    ReplState {
        /// The node's role.
        role: ReplRole,
        /// The node's replication epoch.
        epoch: u64,
        /// The next LSN the node will log — a shipper resumes from
        /// `next_lsn - 1`.
        next_lsn: u64,
    },
    /// A replication batch or snapshot was applied.
    ReplAck {
        /// The standby's next LSN after applying.
        next_lsn: u64,
        /// The standby's epoch (lets a shipper detect it was deposed
        /// even on the success path).
        epoch: u64,
    },
    /// A server push on a subscriber's connection: an inserted row
    /// matched one of the session's standing subscriptions, or matches
    /// were dropped because the session's notification queue
    /// overflowed. Delivered between request/response exchanges, never
    /// splitting one.
    Notify(Notification),
}

/// The body of a `Notify` push frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notification {
    /// An inserted row matched a standing subscription.
    Match {
        /// The subscription that matched.
        subscription: u64,
        /// Name of the table the row landed in.
        table: String,
        /// Row id of the inserted row.
        row_id: RowId,
        /// The matched row (encoded members, schema order).
        row: Vec<Member>,
        /// How the matcher found it for the row that produced this
        /// match: candidacies the inverted index pruned, candidates
        /// whose rewritten predicate was evaluated, and rows the proxy
        /// cascade handed to the real scorer.
        metrics: MatchMetrics,
    },
    /// The session's bounded notification queue overflowed: `dropped`
    /// matches were discarded rather than blocking the write path. The
    /// subscriber knows its view has a hole and can re-run the standing
    /// query to resynchronize.
    Gap {
        /// Number of matches dropped since the last delivered frame.
        dropped: u64,
    },
}

/// A typed failure crossing the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The engine rejected or aborted the statement — the exact
    /// [`EngineError`], reconstructed on the client.
    Engine(EngineError),
    /// Admission control refused the query outright: the in-flight
    /// limit is reached and the wait queue is full. Retryable.
    Busy {
        /// Queries executing when the request was refused.
        in_flight: u64,
        /// Requests already waiting in the admission queue.
        queued: u64,
    },
    /// The query waited in the admission queue past the configured
    /// timeout without a slot opening. Retryable.
    QueueTimeout {
        /// How long the request waited, in milliseconds.
        waited_ms: u64,
    },
    /// The server is draining for shutdown; no new queries.
    ShuttingDown,
    /// The peer violated the protocol (bad handshake, undecodable
    /// frame, request timeout). The connection is closed after this.
    Protocol {
        /// Explanation.
        detail: String,
    },
    /// The server is serving read-only (a standby, or started with
    /// `--read-only`): mutations are refused. Retryable — a retrying
    /// client reconnects and may land on the new primary.
    ReadOnly {
        /// Explanation.
        detail: String,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Engine(e) => write!(f, "{e}"),
            ServerError::Busy { in_flight, queued } => write!(
                f,
                "server busy: {in_flight} queries in flight, {queued} queued"
            ),
            ServerError::QueueTimeout { waited_ms } => {
                write!(f, "queued past the admission timeout ({waited_ms} ms)")
            }
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            ServerError::ReadOnly { detail } => {
                write!(f, "server is read-only: {detail}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

fn put_opt_u64(w: &mut WireWriter, v: Option<u64>) {
    match v {
        Some(x) => {
            w.put_bool(true);
            w.put_u64(x);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_u64(r: &mut WireReader<'_>) -> Result<Option<u64>, WireError> {
    Ok(if r.get_bool()? { Some(r.get_u64()?) } else { None })
}

fn put_opt_str(w: &mut WireWriter, v: Option<&str>) {
    match v {
        Some(s) => {
            w.put_bool(true);
            w.put_str(s);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_str(r: &mut WireReader<'_>) -> Result<Option<String>, WireError> {
    Ok(if r.get_bool()? { Some(r.get_str()?) } else { None })
}

fn put_guard_resource(w: &mut WireWriter, g: GuardResource) {
    w.put_u8(match g {
        GuardResource::WallClock => 0,
        GuardResource::RowsExamined => 1,
        GuardResource::PagesRead => 2,
        GuardResource::ModelInvocations => 3,
    });
}

fn get_guard_resource(r: &mut WireReader<'_>) -> Result<GuardResource, WireError> {
    Ok(match r.get_u8()? {
        0 => GuardResource::WallClock,
        1 => GuardResource::RowsExamined,
        2 => GuardResource::PagesRead,
        3 => GuardResource::ModelInvocations,
        other => {
            return Err(WireError::Invalid { detail: format!("guard resource tag {other}") })
        }
    })
}

fn put_guard(w: &mut WireWriter, g: &QueryGuard) {
    put_opt_u64(w, g.deadline.map(|d| d.as_millis() as u64));
    put_opt_u64(w, g.max_rows_examined);
    put_opt_u64(w, g.max_pages);
    put_opt_u64(w, g.max_model_invocations);
}

fn get_guard(r: &mut WireReader<'_>) -> Result<QueryGuard, WireError> {
    Ok(QueryGuard {
        deadline: get_opt_u64(r)?.map(Duration::from_millis),
        max_rows_examined: get_opt_u64(r)?,
        max_pages: get_opt_u64(r)?,
        max_model_invocations: get_opt_u64(r)?,
    })
}

fn put_metrics(w: &mut WireWriter, m: &ExecMetrics) {
    w.put_u64(m.heap_pages_read);
    w.put_u64(m.index_pages_read);
    w.put_u64(m.pages_skipped);
    w.put_u64(m.rows_examined);
    w.put_u64(m.model_invocations);
    w.put_u64(m.memo_hits);
    w.put_u64(m.output_rows);
    w.put_u64(m.elapsed.as_nanos().min(u64::MAX as u128) as u64);
    put_opt_u64(w, m.guard.rows_remaining);
    put_opt_u64(w, m.guard.pages_remaining);
    put_opt_u64(w, m.guard.model_invocations_remaining);
    put_opt_u64(w, m.guard.time_remaining_ms);
    w.put_bool(m.index_fallback);
}

fn get_metrics(r: &mut WireReader<'_>) -> Result<ExecMetrics, WireError> {
    Ok(ExecMetrics {
        heap_pages_read: r.get_u64()?,
        index_pages_read: r.get_u64()?,
        pages_skipped: r.get_u64()?,
        rows_examined: r.get_u64()?,
        model_invocations: r.get_u64()?,
        memo_hits: r.get_u64()?,
        output_rows: r.get_u64()?,
        elapsed: Duration::from_nanos(r.get_u64()?),
        guard: GuardHeadroom {
            rows_remaining: get_opt_u64(r)?,
            pages_remaining: get_opt_u64(r)?,
            model_invocations_remaining: get_opt_u64(r)?,
            time_remaining_ms: get_opt_u64(r)?,
        },
        index_fallback: r.get_bool()?,
        // The remaining counters travel after the query outcome's
        // `cached_plan` (see `put_query_outcome`).
        ..ExecMetrics::default()
    })
}

/// Encodes a query outcome. The counters [`put_metrics`] leaves out
/// follow `cached_plan`: cascade, then subscription, then feedback.
fn put_query_outcome(w: &mut WireWriter, q: &QueryOutcome) {
    w.put_u32s(&q.rows);
    put_metrics(w, &q.metrics);
    w.put_str(&q.plan);
    w.put_bool(q.plan_changed);
    w.put_bool(q.cached_plan);
    w.put_u64(q.metrics.cascade_accepts);
    w.put_u64(q.metrics.cascade_rejects);
    w.put_u64(q.metrics.band_rows);
    w.put_u64(q.metrics.scorer_ns);
    w.put_u64(q.metrics.subs_matched);
    w.put_u64(q.metrics.subs_index_pruned);
    w.put_u64(q.metrics.clauses_reordered);
    w.put_u64(q.metrics.factor_hits);
    w.put_u64(q.metrics.feedback_entries);
}

fn get_query_outcome(r: &mut WireReader<'_>) -> Result<QueryOutcome, WireError> {
    let mut out = QueryOutcome {
        rows: r.get_u32s()?,
        metrics: get_metrics(r)?,
        plan: r.get_str()?,
        plan_changed: r.get_bool()?,
        cached_plan: r.get_bool()?,
    };
    let m = &mut out.metrics;
    m.cascade_accepts = r.get_u64()?;
    m.cascade_rejects = r.get_u64()?;
    m.band_rows = r.get_u64()?;
    m.scorer_ns = r.get_u64()?;
    m.subs_matched = r.get_u64()?;
    m.subs_index_pruned = r.get_u64()?;
    m.clauses_reordered = r.get_u64()?;
    m.factor_hits = r.get_u64()?;
    m.feedback_entries = r.get_u64()?;
    Ok(out)
}

fn put_match_metrics(w: &mut WireWriter, m: &MatchMetrics) {
    w.put_u64(m.index_pruned);
    w.put_u64(m.residual_evaluated);
    w.put_u64(m.scorer_banded);
}

fn get_match_metrics(r: &mut WireReader<'_>) -> Result<MatchMetrics, WireError> {
    Ok(MatchMetrics {
        index_pruned: r.get_u64()?,
        residual_evaluated: r.get_u64()?,
        scorer_banded: r.get_u64()?,
    })
}

const NOTIFY_MATCH: u8 = 0;
const NOTIFY_GAP: u8 = 1;

fn put_notification(w: &mut WireWriter, n: &Notification) {
    match n {
        Notification::Match { subscription, table, row_id, row, metrics } => {
            w.put_u8(NOTIFY_MATCH);
            w.put_u64(*subscription);
            w.put_str(table);
            w.put_u32(*row_id);
            w.put_u16s(row);
            put_match_metrics(w, metrics);
        }
        Notification::Gap { dropped } => {
            w.put_u8(NOTIFY_GAP);
            w.put_u64(*dropped);
        }
    }
}

fn get_notification(r: &mut WireReader<'_>) -> Result<Notification, WireError> {
    Ok(match r.get_u8()? {
        NOTIFY_MATCH => {
            let subscription = r.get_u64()?;
            let table = r.get_str()?;
            let row_id = r.get_u32()?;
            let row = r.get_u16s()?;
            Notification::Match {
                subscription,
                table,
                row_id,
                row,
                metrics: get_match_metrics(r)?,
            }
        }
        NOTIFY_GAP => Notification::Gap { dropped: r.get_u64()? },
        other => {
            return Err(WireError::Invalid { detail: format!("notification tag {other}") })
        }
    })
}

fn put_recovery_report(w: &mut WireWriter, rep: &RecoveryReport) {
    w.put_u64(rep.snapshot_lsn);
    w.put_u64(rep.snapshots_skipped as u64);
    w.put_u64(rep.wal_records_replayed);
    w.put_u64(rep.records_dropped);
    w.put_u64(rep.bytes_dropped);
    put_opt_str(w, rep.corruption.as_deref());
    w.put_bool(rep.clean_shutdown);
}

fn get_recovery_report(r: &mut WireReader<'_>) -> Result<RecoveryReport, WireError> {
    Ok(RecoveryReport {
        snapshot_lsn: r.get_u64()?,
        snapshots_skipped: r.get_u64()? as usize,
        wal_records_replayed: r.get_u64()?,
        records_dropped: r.get_u64()?,
        bytes_dropped: r.get_u64()?,
        corruption: get_opt_str(r)?,
        clean_shutdown: r.get_bool()?,
    })
}

fn put_role(w: &mut WireWriter, role: ReplRole) {
    w.put_u8(match role {
        ReplRole::Primary => 0,
        ReplRole::Standby => 1,
    });
}

fn get_role(r: &mut WireReader<'_>) -> Result<ReplRole, WireError> {
    Ok(match r.get_u8()? {
        0 => ReplRole::Primary,
        1 => ReplRole::Standby,
        other => {
            return Err(WireError::Invalid { detail: format!("replication role tag {other}") })
        }
    })
}

/// Encodes a health report: the per-model fields, table and plan
/// counts and the recovery report, then replication role, epoch and
/// lag, one `cascade_note` per model, and the subscription fields.
fn put_health(w: &mut WireWriter, h: &EngineHealth) {
    w.put_u32(h.models.len() as u32);
    for m in &h.models {
        w.put_str(&m.name);
        w.put_u64(m.version);
        put_opt_str(w, m.degraded.as_deref());
        w.put_u64(m.n_envelopes as u64);
        w.put_u64(m.exact_envelopes as u64);
    }
    w.put_u64(h.tables as u64);
    w.put_u64(h.cached_plans as u64);
    match &h.recovery {
        Some(rep) => {
            w.put_bool(true);
            put_recovery_report(w, rep);
        }
        None => w.put_bool(false),
    }
    put_role(w, h.role);
    w.put_u64(h.epoch);
    put_opt_u64(w, h.replica_lag_records);
    put_opt_u64(w, h.replica_lag_bytes);
    for m in &h.models {
        put_opt_str(w, m.cascade_note.as_deref());
    }
    w.put_u64(h.subscriptions as u64);
    put_opt_str(w, h.sub_index_note.as_deref());
}

fn get_health(r: &mut WireReader<'_>) -> Result<EngineHealth, WireError> {
    let n = r.get_u32()? as usize;
    if n > r.remaining() {
        return Err(WireError::Truncated { at: r.position() });
    }
    let mut models = (0..n)
        .map(|_| {
            Ok(ModelHealth {
                name: r.get_str()?,
                version: r.get_u64()?,
                degraded: get_opt_str(r)?,
                n_envelopes: r.get_u64()? as usize,
                exact_envelopes: r.get_u64()? as usize,
                cascade_note: None,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let tables = r.get_u64()? as usize;
    let cached_plans = r.get_u64()? as usize;
    let recovery = if r.get_bool()? { Some(get_recovery_report(r)?) } else { None };
    let role = get_role(r)?;
    let epoch = r.get_u64()?;
    let replica_lag_records = get_opt_u64(r)?;
    let replica_lag_bytes = get_opt_u64(r)?;
    for m in &mut models {
        m.cascade_note = get_opt_str(r)?;
    }
    Ok(EngineHealth {
        models,
        tables,
        cached_plans,
        recovery,
        role,
        epoch,
        replica_lag_records,
        replica_lag_bytes,
        subscriptions: r.get_u64()? as usize,
        sub_index_note: get_opt_str(r)?,
    })
}

const ENGERR_UNKNOWN_TABLE: u8 = 0;
const ENGERR_UNKNOWN_MODEL: u8 = 1;
const ENGERR_UNKNOWN_COLUMN: u8 = 2;
const ENGERR_UNKNOWN_CLASS: u8 = 3;
const ENGERR_SCHEMA_MISMATCH: u8 = 4;
const ENGERR_PARSE: u8 = 5;
const ENGERR_BAD_VALUE: u8 = 6;
const ENGERR_DUPLICATE: u8 = 7;
const ENGERR_BUDGET: u8 = 8;
const ENGERR_INTERNAL: u8 = 9;
const ENGERR_IO: u8 = 10;
const ENGERR_CORRUPT: u8 = 11;
const ENGERR_READ_ONLY: u8 = 12;
const ENGERR_STALE_EPOCH: u8 = 13;
const ENGERR_UNKNOWN_SUBSCRIPTION: u8 = 14;

fn put_engine_error(w: &mut WireWriter, e: &EngineError) {
    match e {
        EngineError::UnknownTable(s) => {
            w.put_u8(ENGERR_UNKNOWN_TABLE);
            w.put_str(s);
        }
        EngineError::UnknownModel(s) => {
            w.put_u8(ENGERR_UNKNOWN_MODEL);
            w.put_str(s);
        }
        EngineError::UnknownColumn(s) => {
            w.put_u8(ENGERR_UNKNOWN_COLUMN);
            w.put_str(s);
        }
        EngineError::UnknownClass { model, label } => {
            w.put_u8(ENGERR_UNKNOWN_CLASS);
            w.put_str(model);
            w.put_str(label);
        }
        EngineError::SchemaMismatch { detail } => {
            w.put_u8(ENGERR_SCHEMA_MISMATCH);
            w.put_str(detail);
        }
        EngineError::Parse { at, detail } => {
            w.put_u8(ENGERR_PARSE);
            w.put_u64(*at as u64);
            w.put_str(detail);
        }
        EngineError::BadValue(s) => {
            w.put_u8(ENGERR_BAD_VALUE);
            w.put_str(s);
        }
        EngineError::Duplicate(s) => {
            w.put_u8(ENGERR_DUPLICATE);
            w.put_str(s);
        }
        EngineError::BudgetExceeded { resource, spent, limit } => {
            w.put_u8(ENGERR_BUDGET);
            put_guard_resource(w, *resource);
            w.put_u64(*spent);
            w.put_u64(*limit);
        }
        EngineError::Internal { detail } => {
            w.put_u8(ENGERR_INTERNAL);
            w.put_str(detail);
        }
        EngineError::Io { detail } => {
            w.put_u8(ENGERR_IO);
            w.put_str(detail);
        }
        EngineError::Corrupt { detail } => {
            w.put_u8(ENGERR_CORRUPT);
            w.put_str(detail);
        }
        EngineError::ReadOnly { detail } => {
            w.put_u8(ENGERR_READ_ONLY);
            w.put_str(detail);
        }
        EngineError::StaleEpoch { sent, have } => {
            w.put_u8(ENGERR_STALE_EPOCH);
            w.put_u64(*sent);
            w.put_u64(*have);
        }
        EngineError::UnknownSubscription(id) => {
            w.put_u8(ENGERR_UNKNOWN_SUBSCRIPTION);
            w.put_u64(*id);
        }
    }
}

fn get_engine_error(r: &mut WireReader<'_>) -> Result<EngineError, WireError> {
    Ok(match r.get_u8()? {
        ENGERR_UNKNOWN_TABLE => EngineError::UnknownTable(r.get_str()?),
        ENGERR_UNKNOWN_MODEL => EngineError::UnknownModel(r.get_str()?),
        ENGERR_UNKNOWN_COLUMN => EngineError::UnknownColumn(r.get_str()?),
        ENGERR_UNKNOWN_CLASS => {
            EngineError::UnknownClass { model: r.get_str()?, label: r.get_str()? }
        }
        ENGERR_SCHEMA_MISMATCH => EngineError::SchemaMismatch { detail: r.get_str()? },
        ENGERR_PARSE => {
            EngineError::Parse { at: r.get_u64()? as usize, detail: r.get_str()? }
        }
        ENGERR_BAD_VALUE => EngineError::BadValue(r.get_str()?),
        ENGERR_DUPLICATE => EngineError::Duplicate(r.get_str()?),
        ENGERR_BUDGET => EngineError::BudgetExceeded {
            resource: get_guard_resource(r)?,
            spent: r.get_u64()?,
            limit: r.get_u64()?,
        },
        ENGERR_INTERNAL => EngineError::Internal { detail: r.get_str()? },
        ENGERR_IO => EngineError::Io { detail: r.get_str()? },
        ENGERR_CORRUPT => EngineError::Corrupt { detail: r.get_str()? },
        ENGERR_READ_ONLY => EngineError::ReadOnly { detail: r.get_str()? },
        ENGERR_STALE_EPOCH => {
            EngineError::StaleEpoch { sent: r.get_u64()?, have: r.get_u64()? }
        }
        ENGERR_UNKNOWN_SUBSCRIPTION => EngineError::UnknownSubscription(r.get_u64()?),
        other => {
            return Err(WireError::Invalid { detail: format!("engine error tag {other}") })
        }
    })
}

const SRVERR_ENGINE: u8 = 0;
const SRVERR_BUSY: u8 = 1;
const SRVERR_QUEUE_TIMEOUT: u8 = 2;
const SRVERR_SHUTTING_DOWN: u8 = 3;
const SRVERR_PROTOCOL: u8 = 4;
const SRVERR_READ_ONLY: u8 = 5;

fn put_server_error(w: &mut WireWriter, e: &ServerError) {
    match e {
        ServerError::Engine(inner) => {
            w.put_u8(SRVERR_ENGINE);
            put_engine_error(w, inner);
        }
        ServerError::Busy { in_flight, queued } => {
            w.put_u8(SRVERR_BUSY);
            w.put_u64(*in_flight);
            w.put_u64(*queued);
        }
        ServerError::QueueTimeout { waited_ms } => {
            w.put_u8(SRVERR_QUEUE_TIMEOUT);
            w.put_u64(*waited_ms);
        }
        ServerError::ShuttingDown => w.put_u8(SRVERR_SHUTTING_DOWN),
        ServerError::Protocol { detail } => {
            w.put_u8(SRVERR_PROTOCOL);
            w.put_str(detail);
        }
        ServerError::ReadOnly { detail } => {
            w.put_u8(SRVERR_READ_ONLY);
            w.put_str(detail);
        }
    }
}

fn get_server_error(r: &mut WireReader<'_>) -> Result<ServerError, WireError> {
    Ok(match r.get_u8()? {
        SRVERR_ENGINE => ServerError::Engine(get_engine_error(r)?),
        SRVERR_BUSY => ServerError::Busy { in_flight: r.get_u64()?, queued: r.get_u64()? },
        SRVERR_QUEUE_TIMEOUT => ServerError::QueueTimeout { waited_ms: r.get_u64()? },
        SRVERR_SHUTTING_DOWN => ServerError::ShuttingDown,
        SRVERR_PROTOCOL => ServerError::Protocol { detail: r.get_str()? },
        SRVERR_READ_ONLY => ServerError::ReadOnly { detail: r.get_str()? },
        other => {
            return Err(WireError::Invalid { detail: format!("server error tag {other}") })
        }
    })
}

const OUTCOME_QUERY: u8 = 0;
const OUTCOME_MODEL_CREATED: u8 = 1;
const OUTCOME_PARALLELISM_SET: u8 = 2;
const OUTCOME_GUARD_SET: u8 = 3;
const OUTCOME_INSERTED: u8 = 4;
const OUTCOME_SUBSCRIBED: u8 = 5;
const OUTCOME_UNSUBSCRIBED: u8 = 6;

fn put_outcome(w: &mut WireWriter, o: &StatementOutcome) {
    match o {
        StatementOutcome::Query(q) => {
            w.put_u8(OUTCOME_QUERY);
            put_query_outcome(w, q);
        }
        StatementOutcome::ModelCreated { name, model, n_classes, degraded } => {
            w.put_u8(OUTCOME_MODEL_CREATED);
            w.put_str(name);
            w.put_u64(*model as u64);
            w.put_u64(*n_classes as u64);
            put_opt_str(w, degraded.as_deref());
        }
        StatementOutcome::ParallelismSet { dop } => {
            w.put_u8(OUTCOME_PARALLELISM_SET);
            w.put_u64(*dop as u64);
        }
        StatementOutcome::GuardSet { guard } => {
            w.put_u8(OUTCOME_GUARD_SET);
            put_guard(w, guard);
        }
        StatementOutcome::Inserted { table, rows_inserted, subs_matched, subs_index_pruned } => {
            w.put_u8(OUTCOME_INSERTED);
            w.put_str(table);
            w.put_u64(*rows_inserted);
            w.put_u64(*subs_matched);
            w.put_u64(*subs_index_pruned);
        }
        StatementOutcome::Subscribed { id } => {
            w.put_u8(OUTCOME_SUBSCRIBED);
            w.put_u64(*id);
        }
        StatementOutcome::Unsubscribed { id } => {
            w.put_u8(OUTCOME_UNSUBSCRIBED);
            w.put_u64(*id);
        }
    }
}

fn get_outcome(r: &mut WireReader<'_>) -> Result<StatementOutcome, WireError> {
    Ok(match r.get_u8()? {
        OUTCOME_QUERY => StatementOutcome::Query(get_query_outcome(r)?),
        OUTCOME_MODEL_CREATED => StatementOutcome::ModelCreated {
            name: r.get_str()?,
            model: r.get_u64()? as usize,
            n_classes: r.get_u64()? as usize,
            degraded: get_opt_str(r)?,
        },
        OUTCOME_PARALLELISM_SET => {
            StatementOutcome::ParallelismSet { dop: r.get_u64()? as usize }
        }
        OUTCOME_GUARD_SET => StatementOutcome::GuardSet { guard: get_guard(r)? },
        OUTCOME_INSERTED => StatementOutcome::Inserted {
            table: r.get_str()?,
            rows_inserted: r.get_u64()?,
            subs_matched: r.get_u64()?,
            subs_index_pruned: r.get_u64()?,
        },
        OUTCOME_SUBSCRIBED => StatementOutcome::Subscribed { id: r.get_u64()? },
        OUTCOME_UNSUBSCRIBED => StatementOutcome::Unsubscribed { id: r.get_u64()? },
        other => {
            return Err(WireError::Invalid { detail: format!("outcome tag {other}") })
        }
    })
}

// ---------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------

impl Request {
    /// Serializes this request to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.payload_hint());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Serializes this request straight into its frame: one buffer,
    /// the same bytes as `encode_frame(&self.encode())`.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut w = frame_writer(self.payload_hint());
        self.encode_into(&mut w);
        seal_frame(w.into_bytes())
    }

    /// An upper bound on the payload's length, so encoding allocates
    /// once.
    fn payload_hint(&self) -> usize {
        32 + match self {
            Request::Hello { client, .. } => client.len(),
            Request::Statement { sql, .. } => sql.len(),
            Request::ReplAppend { frames, .. } => frames.len(),
            Request::ReplSnapshot { snapshot } => snapshot.len(),
            _ => 0,
        }
    }

    fn encode_into(&self, w: &mut WireWriter) {
        match self {
            Request::Hello { proto_version, client } => {
                w.put_u8(REQ_HELLO);
                w.put_u32(*proto_version);
                w.put_str(client);
            }
            Request::Statement { sql, stmt_id } => {
                w.put_u8(REQ_STATEMENT);
                w.put_str(sql);
                match stmt_id {
                    Some(id) => {
                        w.put_bool(true);
                        w.put_u64(id.nonce);
                        w.put_u64(id.seq);
                    }
                    None => w.put_bool(false),
                }
            }
            Request::Health => w.put_u8(REQ_HEALTH),
            Request::Shutdown => w.put_u8(REQ_SHUTDOWN),
            Request::Goodbye => w.put_u8(REQ_GOODBYE),
            Request::ReplState => w.put_u8(REQ_REPL_STATE),
            Request::ReplAppend { epoch, frames } => {
                w.put_u8(REQ_REPL_APPEND);
                w.put_u64(*epoch);
                w.put_bytes(frames);
            }
            Request::ReplSnapshot { snapshot } => {
                w.put_u8(REQ_REPL_SNAPSHOT);
                w.put_bytes(snapshot);
            }
            Request::Promote => w.put_u8(REQ_PROMOTE),
        }
    }

    /// Decodes a frame payload; every byte must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = WireReader::new(payload);
        let req = match r.get_u8()? {
            REQ_HELLO => {
                Request::Hello { proto_version: r.get_u32()?, client: r.get_str()? }
            }
            REQ_STATEMENT => Request::Statement {
                sql: r.get_str()?,
                stmt_id: if r.get_bool()? {
                    Some(StatementId { nonce: r.get_u64()?, seq: r.get_u64()? })
                } else {
                    None
                },
            },
            REQ_HEALTH => Request::Health,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_GOODBYE => Request::Goodbye,
            REQ_REPL_STATE => Request::ReplState,
            REQ_REPL_APPEND => Request::ReplAppend {
                epoch: r.get_u64()?,
                frames: r.get_bytes()?.to_vec(),
            },
            REQ_REPL_SNAPSHOT => Request::ReplSnapshot { snapshot: r.get_bytes()?.to_vec() },
            REQ_PROMOTE => Request::Promote,
            other => {
                return Err(WireError::Invalid { detail: format!("request tag {other}") })
            }
        };
        if !r.is_exhausted() {
            return Err(WireError::Invalid {
                detail: format!("{} trailing bytes after request", r.remaining()),
            });
        }
        Ok(req)
    }
}

impl Response {
    /// Serializes this response to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.payload_hint());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// The same bytes as [`Response::encode`]. The argument is ignored:
    /// there is one protocol version. Kept for callers that still pass
    /// one.
    pub fn encode_versioned(&self, _proto_version: u32) -> Vec<u8> {
        self.encode()
    }

    /// Serializes this response straight into its frame: one buffer,
    /// the same bytes as `encode_frame(&self.encode())`.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut w = frame_writer(self.payload_hint());
        self.encode_into(&mut w);
        seal_frame(w.into_bytes())
    }

    /// An upper bound on the payload's length for the one response that
    /// gets large — a query outcome is its row ids, its plan text and
    /// under 200 bytes of counters — so that frame is allocated once;
    /// a starting size for the rest.
    fn payload_hint(&self) -> usize {
        match self {
            Response::Outcome(StatementOutcome::Query(q)) => {
                256 + 4 * q.rows.len() + q.plan.len()
            }
            _ => 128,
        }
    }

    fn encode_into(&self, w: &mut WireWriter) {
        match self {
            Response::Hello { proto_version, session_id, server } => {
                w.put_u8(RESP_HELLO);
                w.put_u32(*proto_version);
                w.put_u64(*session_id);
                w.put_str(server);
            }
            Response::Outcome(o) => {
                w.put_u8(RESP_OUTCOME);
                put_outcome(w, o);
            }
            Response::Health(h) => {
                w.put_u8(RESP_HEALTH);
                put_health(w, h);
            }
            Response::ShutdownStarted => w.put_u8(RESP_SHUTDOWN_STARTED),
            Response::Goodbye => w.put_u8(RESP_GOODBYE),
            Response::Error(e) => {
                w.put_u8(RESP_ERROR);
                put_server_error(w, e);
            }
            Response::ReplState { role, epoch, next_lsn } => {
                w.put_u8(RESP_REPL_STATE);
                put_role(w, *role);
                w.put_u64(*epoch);
                w.put_u64(*next_lsn);
            }
            Response::ReplAck { next_lsn, epoch } => {
                w.put_u8(RESP_REPL_ACK);
                w.put_u64(*next_lsn);
                w.put_u64(*epoch);
            }
            Response::Notify(n) => {
                w.put_u8(RESP_NOTIFY);
                put_notification(w, n);
            }
        }
    }

    /// Decodes a frame payload; every byte must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = WireReader::new(payload);
        let resp = match r.get_u8()? {
            RESP_HELLO => Response::Hello {
                proto_version: r.get_u32()?,
                session_id: r.get_u64()?,
                server: r.get_str()?,
            },
            RESP_OUTCOME => Response::Outcome(get_outcome(&mut r)?),
            RESP_HEALTH => Response::Health(get_health(&mut r)?),
            RESP_SHUTDOWN_STARTED => Response::ShutdownStarted,
            RESP_GOODBYE => Response::Goodbye,
            RESP_ERROR => Response::Error(get_server_error(&mut r)?),
            RESP_REPL_STATE => Response::ReplState {
                role: get_role(&mut r)?,
                epoch: r.get_u64()?,
                next_lsn: r.get_u64()?,
            },
            RESP_REPL_ACK => Response::ReplAck { next_lsn: r.get_u64()?, epoch: r.get_u64()? },
            RESP_NOTIFY => Response::Notify(get_notification(&mut r)?),
            other => {
                return Err(WireError::Invalid { detail: format!("response tag {other}") })
            }
        };
        if !r.is_exhausted() {
            return Err(WireError::Invalid {
                detail: format!("{} trailing bytes after response", r.remaining()),
            });
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_boundaries() {
        let payload = b"hello, frames".to_vec();
        let frame = encode_frame(&payload);
        let (back, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, payload);
        assert_eq!(consumed, frame.len());
        // Every strict prefix is Incomplete, never an error of another
        // kind and never a panic.
        for cut in 0..frame.len() {
            assert!(matches!(
                decode_frame(&frame[..cut], DEFAULT_MAX_FRAME_LEN),
                Err(FrameError::Incomplete { .. })
            ));
        }
        // A flipped payload byte fails the CRC.
        let mut torn = frame.clone();
        *torn.last_mut().unwrap() ^= 0x01;
        assert_eq!(decode_frame(&torn, DEFAULT_MAX_FRAME_LEN), Err(FrameError::BadCrc));
        // A hostile length prefix is refused before any allocation.
        let mut hostile = frame;
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&hostile, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::TooLong { .. })
        ));
    }

    /// Drives a connection buffer the way `read_request` and the
    /// replication peer do: decode what is there, read what is missing.
    /// Returns the payload lengths seen and the largest capacity the
    /// buffer reached *ahead of* the bytes it held.
    fn pump(mut stream: &[u8], buf: &mut Vec<u8>) -> (Vec<usize>, usize) {
        let (mut lens, mut max_ahead) = (Vec::new(), 0);
        loop {
            let needed = match decode_frame(buf, DEFAULT_MAX_FRAME_LEN) {
                Ok((payload, consumed)) => {
                    lens.push(payload.len());
                    consume_frame(buf, consumed);
                    continue;
                }
                Err(FrameError::Incomplete { needed }) => needed,
                Err(e) => panic!("{e}"),
            };
            if read_into(&mut stream, buf, needed).unwrap() == 0 {
                return (lens, max_ahead);
            }
            max_ahead = max_ahead.max(buf.capacity() - buf.len());
        }
    }

    #[test]
    fn connection_buffer_releases_a_large_frames_capacity() {
        // A 4 MB request (a shipped snapshot) between small ones.
        let big = Request::ReplSnapshot { snapshot: vec![7; 4 << 20] }.to_frame();
        let small = Request::Health.to_frame();
        let stream = [small.clone(), big.clone(), small.clone()].concat();
        let mut buf = Vec::new();
        let (lens, max_ahead) = pump(&stream, &mut buf);
        assert_eq!(lens, [1, big.len() - FRAME_HEADER_LEN, 1]);
        assert!(buf.is_empty());
        assert!(buf.capacity() <= IDLE_BUF_CAPACITY, "kept {} bytes", buf.capacity());
        // Growth followed the bytes received, never the header's claim:
        // amortized doubling at most, so never more ahead than was held.
        assert!(max_ahead <= (4 << 20) + READ_STEP_MAX, "{max_ahead} bytes ahead of the data");

        // A hostile header claiming the ceiling, followed by nothing,
        // reserves one read step — not 64 MiB.
        let mut hostile = vec![0u8; FRAME_HEADER_LEN];
        hostile[..4].copy_from_slice(&DEFAULT_MAX_FRAME_LEN.to_le_bytes());
        let mut buf = Vec::new();
        let (lens, _) = pump(&hostile, &mut buf);
        assert!(lens.is_empty());
        assert!(buf.capacity() <= 2 * READ_STEP_MAX, "reserved {} bytes", buf.capacity());
    }

    #[test]
    fn a_stream_of_small_frames_never_reallocates() {
        let frame = Request::Statement { sql: "SELECT * FROM t WHERE a = 'a1'".into(), stmt_id: None }
            .to_frame();
        let stream = frame.repeat(10_000);
        let mut buf = Vec::new();
        // The first reads size the buffer (one step plus the torn frame
        // a read can end in); nothing after them may.
        let warm = 100 * frame.len() + 7;
        let (warm_lens, _) = pump(&stream[..warm], &mut buf);
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        let (lens, _) = pump(&stream[warm..], &mut buf);
        assert_eq!(warm_lens.len() + lens.len(), 10_000);
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
        assert!(cap <= 2 * READ_STEP_MIN, "{cap}");
    }

    /// Captured from the tree before the byte path was rebuilt (PR 22,
    /// bytewise CRC, per-element row loop): a v7 `Outcome` frame. A peer
    /// from before that change must read our frames and we theirs.
    const GOLDEN_OUTCOME_FRAME: &[u8] = b"\xcf\x00\x00\x00+\x04*m\x81\x00\x05\x00\x00\x00\x01\x00\x00\x00\x05\x00\x00\x00\x09\x00\x00\x00\xe8\x03\x00\x00p\x11\x01\x00\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00(\x00\x00\x00\x00\x00\x00\x00\x0c\x00\x00\x00\x00\x00\x00\x00\x1c\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00P\xd4\x12\x00\x00\x00\x00\x00\x01<\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x01\x11\x00\x00\x00\x00\x00\x00\x00\x01\x0a\x00\x00\x00index seek\x01\x00\x09\x00\x00\x00\x00\x00\x00\x00\x0d\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00h\x10\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00";

    #[test]
    fn outcome_frame_bytes_are_unchanged() {
        let resp = Response::Outcome(StatementOutcome::Query(QueryOutcome {
            rows: vec![1, 5, 9, 1000, 70_000],
            metrics: ExecMetrics {
                heap_pages_read: 3,
                index_pages_read: 2,
                pages_skipped: 7,
                rows_examined: 40,
                model_invocations: 12,
                memo_hits: 28,
                cascade_accepts: 9,
                cascade_rejects: 13,
                band_rows: 3,
                scorer_ns: 4_200,
                output_rows: 5,
                elapsed: Duration::from_micros(1234),
                guard: GuardHeadroom {
                    rows_remaining: Some(60),
                    pages_remaining: None,
                    model_invocations_remaining: Some(0),
                    time_remaining_ms: Some(17),
                },
                index_fallback: true,
                subs_matched: 1,
                subs_index_pruned: 2,
                clauses_reordered: 2,
                factor_hits: 6,
                feedback_entries: 1,
            },
            plan: "index seek".into(),
            plan_changed: true,
            cached_plan: false,
        }));
        assert_eq!(resp.to_frame(), GOLDEN_OUTCOME_FRAME);
        assert_eq!(encode_frame(&resp.encode()), GOLDEN_OUTCOME_FRAME);
        assert_eq!(encode_frame(&resp.encode_versioned(PROTO_VERSION)), GOLDEN_OUTCOME_FRAME);
        let (payload, consumed) =
            decode_frame(GOLDEN_OUTCOME_FRAME, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(consumed, GOLDEN_OUTCOME_FRAME.len());
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Hello { proto_version: PROTO_VERSION, client: "repl".into() },
            Request::Statement {
                sql: "SELECT * FROM t WHERE PREDICT(m) = 'c1'".into(),
                stmt_id: None,
            },
            Request::Statement {
                sql: "INSERT INTO t VALUES ('a0', 'b1')".into(),
                stmt_id: Some(StatementId { nonce: 0xfeed_f00d, seq: 7 }),
            },
            Request::Health,
            Request::Shutdown,
            Request::Goodbye,
            Request::ReplState,
            Request::ReplAppend { epoch: 2, frames: vec![0xde, 0xad, 0xbe, 0xef] },
            Request::ReplAppend { epoch: 0, frames: Vec::new() },
            Request::ReplSnapshot { snapshot: vec![7; 64] },
            Request::Promote,
        ];
        for req in &reqs {
            assert_eq!(&Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip_including_rich_outcomes() {
        let outcome = StatementOutcome::Query(QueryOutcome {
            rows: vec![1, 5, 9, 1000],
            metrics: ExecMetrics {
                heap_pages_read: 3,
                index_pages_read: 2,
                pages_skipped: 7,
                rows_examined: 40,
                model_invocations: 12,
                memo_hits: 28,
                cascade_accepts: 9,
                cascade_rejects: 13,
                band_rows: 3,
                scorer_ns: 4_200,
                output_rows: 4,
                elapsed: Duration::from_micros(1234),
                guard: GuardHeadroom {
                    rows_remaining: Some(60),
                    pages_remaining: None,
                    model_invocations_remaining: Some(0),
                    time_remaining_ms: Some(17),
                },
                index_fallback: true,
                subs_matched: 0,
                subs_index_pruned: 0,
                clauses_reordered: 2,
                factor_hits: 6,
                feedback_entries: 1,
            },
            plan: "index seek ...".into(),
            plan_changed: true,
            cached_plan: false,
        });
        let health = EngineHealth {
            models: vec![ModelHealth {
                name: "m".into(),
                version: 3,
                degraded: Some("derivation timeout".into()),
                n_envelopes: 4,
                exact_envelopes: 2,
                cascade_note: Some("cascade disabled for model 'm': stored proxy table failed verification".into()),
            }],
            tables: 2,
            cached_plans: 5,
            recovery: Some(RecoveryReport {
                snapshot_lsn: 17,
                snapshots_skipped: 1,
                wal_records_replayed: 4,
                records_dropped: 2,
                bytes_dropped: 99,
                corruption: Some("crc mismatch at byte 123".into()),
                clean_shutdown: false,
            }),
            role: ReplRole::Primary,
            epoch: 2,
            replica_lag_records: Some(3),
            replica_lag_bytes: Some(412),
            subscriptions: 4,
            sub_index_note: Some("matching naively (corruption fault armed)".into()),
        };
        let resps = [
            Response::Hello { proto_version: 1, session_id: 42, server: "mpq".into() },
            Response::Outcome(outcome),
            Response::Outcome(StatementOutcome::ModelCreated {
                name: "m2".into(),
                model: 1,
                n_classes: 3,
                degraded: None,
            }),
            Response::Outcome(StatementOutcome::Inserted {
                table: "t".into(),
                rows_inserted: 3,
                subs_matched: 7,
                subs_index_pruned: 1893,
            }),
            Response::Outcome(StatementOutcome::Subscribed { id: 12 }),
            Response::Outcome(StatementOutcome::Unsubscribed { id: 12 }),
            Response::Notify(Notification::Match {
                subscription: 12,
                table: "t".into(),
                row_id: 41,
                row: vec![0, 3, 1],
                metrics: MatchMetrics {
                    index_pruned: 98,
                    residual_evaluated: 2,
                    scorer_banded: 1,
                },
            }),
            Response::Notify(Notification::Gap { dropped: 17 }),
            Response::Outcome(StatementOutcome::ParallelismSet { dop: 8 }),
            Response::Outcome(StatementOutcome::GuardSet {
                guard: QueryGuard::default()
                    .with_deadline(Duration::from_millis(250))
                    .with_max_pages(100),
            }),
            Response::Health(health),
            Response::ShutdownStarted,
            Response::Goodbye,
            Response::Error(ServerError::Engine(EngineError::BudgetExceeded {
                resource: GuardResource::PagesRead,
                spent: 11,
                limit: 10,
            })),
            Response::Error(ServerError::Busy { in_flight: 8, queued: 64 }),
            Response::Error(ServerError::QueueTimeout { waited_ms: 2000 }),
            Response::Error(ServerError::ShuttingDown),
            Response::Error(ServerError::Protocol { detail: "bad hello".into() }),
            Response::Error(ServerError::ReadOnly { detail: "standby".into() }),
            Response::Error(ServerError::Engine(EngineError::ReadOnly {
                detail: "standby refuses mutations".into(),
            })),
            Response::Error(ServerError::Engine(EngineError::StaleEpoch {
                sent: 1,
                have: 2,
            })),
            Response::Error(ServerError::Engine(EngineError::UnknownSubscription(99))),
            Response::ReplState { role: ReplRole::Standby, epoch: 4, next_lsn: 99 },
            Response::ReplAck { next_lsn: 100, epoch: 4 },
        ];
        for resp in &resps {
            assert_eq!(&Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// There is one shape per message, so every strict prefix of a
    /// payload is a truncation and fails typed — the fixed tails of a
    /// query outcome, an `Inserted` outcome and a health report with
    /// models included.
    #[test]
    fn truncated_payloads_fail_cleanly() {
        let resps = [
            Response::Outcome(StatementOutcome::Query(QueryOutcome {
                rows: vec![3, 4, 5],
                metrics: ExecMetrics::default(),
                plan: "full scan".into(),
                plan_changed: false,
                cached_plan: true,
            })),
            Response::Outcome(StatementOutcome::Inserted {
                table: "t".into(),
                rows_inserted: 2,
                subs_matched: 5,
                subs_index_pruned: 40,
            }),
            Response::Health(EngineHealth {
                models: vec![ModelHealth {
                    name: "m".into(),
                    version: 1,
                    degraded: None,
                    n_envelopes: 2,
                    exact_envelopes: 2,
                    cascade_note: Some("disabled".into()),
                }],
                tables: 1,
                cached_plans: 0,
                recovery: None,
                role: ReplRole::Standby,
                epoch: 3,
                replica_lag_records: None,
                replica_lag_bytes: None,
                subscriptions: 2,
                sub_index_note: None,
            }),
            Response::Notify(Notification::Match {
                subscription: 3,
                table: "t".into(),
                row_id: 9,
                row: vec![1, 2],
                metrics: MatchMetrics::default(),
            }),
        ];
        for resp in &resps {
            let payload = resp.encode();
            assert_eq!(&Response::decode(&payload).unwrap(), resp);
            for cut in 0..payload.len() {
                assert!(Response::decode(&payload[..cut]).is_err(), "{resp:?} cut at {cut}");
            }
        }
    }
}
