//! The WAL shipper: the server half of primary→standby replication.
//!
//! The engine owns the data plane (reading committed frames, strict
//! stream decoding, LSN-deduplicated replay — see the engine's
//! `persist::replicate`); this module owns the control plane: a
//! background thread on the primary that tails the WAL and pushes
//! batches to the standby over the protocol's replication requests,
//! plus [`ReplPeer`], the minimal blocking protocol client it (and the
//! supervisor) speaks through.
//!
//! The shipping loop is pull-free and stateless across reconnects: on
//! every (re)connect it asks the standby for its next LSN
//! (`ReplState`) and ships from there, so a dropped stream, a standby
//! restart, or a duplicated batch all converge by the standby's own
//! LSN arithmetic. When the on-disk log no longer covers the standby's
//! position (a checkpoint pruned it, or the standby is fresh), the
//! shipper falls back to a full snapshot and resumes incrementally
//! after it.
//!
//! Fencing rides the same channel: every ack carries the standby's
//! epoch. The moment the shipper sees an epoch above its own — a
//! `StaleEpoch` refusal or a higher epoch in an ack — it knows this
//! node was deposed while it wasn't looking, and it fences the local
//! engine so in-flight and future mutations fail typed instead of
//! diverging.
//!
//! The standby's address lives in a *peer file*, re-read on every
//! reconnect and idle poll: a supervisor repoints replication by
//! atomically rewriting one file, with no channel to the shipper
//! thread needed.

use crate::protocol::{
    consume_frame, decode_frame, read_into, FrameError, Request, Response, ServerError,
    DEFAULT_MAX_FRAME_LEN, PROTO_VERSION,
};
use mpq_engine::{Engine, EngineError, EngineHealth, ReplRole};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Why a peer exchange failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerError {
    /// Socket-level failure (connect, read, write, EOF).
    Io(String),
    /// A frame arrived torn or undecodable.
    Frame(String),
    /// The peer answered with a typed error.
    Remote(ServerError),
    /// The peer answered with a message that makes no sense for the
    /// request.
    Unexpected(String),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Io(e) => write!(f, "peer i/o error: {e}"),
            PeerError::Frame(e) => write!(f, "bad frame from peer: {e}"),
            PeerError::Remote(e) => write!(f, "peer error: {e}"),
            PeerError::Unexpected(e) => write!(f, "unexpected peer response: {e}"),
        }
    }
}

impl std::error::Error for PeerError {}

impl From<std::io::Error> for PeerError {
    fn from(e: std::io::Error) -> PeerError {
        PeerError::Io(e.to_string())
    }
}

/// What a peer reported about its replication position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerState {
    /// The peer's role.
    pub role: ReplRole,
    /// The peer's replication epoch.
    pub epoch: u64,
    /// The next LSN the peer expects.
    pub next_lsn: u64,
}

/// A minimal blocking protocol session, used by the shipper and the
/// supervisor (which live in this crate and therefore cannot use the
/// full `mpq-client`).
pub struct ReplPeer {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ReplPeer {
    /// Connects, arms `timeout` on connect and every read, and
    /// performs the handshake.
    pub fn connect(addr: &str, timeout: Duration) -> Result<ReplPeer, PeerError> {
        let sock_addr = addr
            .parse()
            .map_err(|e| PeerError::Io(format!("bad peer address {addr:?}: {e}")))?;
        let stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        let mut peer = ReplPeer { stream, buf: Vec::new() };
        let resp = peer.exchange(&Request::Hello {
            proto_version: PROTO_VERSION,
            client: "mpq-repl-shipper".to_string(),
        })?;
        match resp {
            Response::Hello { .. } => Ok(peer),
            Response::Error(e) => Err(PeerError::Remote(e)),
            other => Err(PeerError::Unexpected(format!("{other:?} to Hello"))),
        }
    }

    /// One stop-and-wait request/response round trip.
    pub fn exchange(&mut self, req: &Request) -> Result<Response, PeerError> {
        self.stream.write_all(&req.to_frame())?;
        self.stream.flush()?;
        loop {
            let needed = match decode_frame(&self.buf, DEFAULT_MAX_FRAME_LEN) {
                Ok((payload, consumed)) => {
                    let decoded = Response::decode(&payload);
                    consume_frame(&mut self.buf, consumed);
                    return decoded.map_err(|e| PeerError::Frame(e.to_string()));
                }
                Err(FrameError::Incomplete { needed }) => needed,
                Err(e) => return Err(PeerError::Frame(e.to_string())),
            };
            match read_into(&mut self.stream, &mut self.buf, needed) {
                Ok(0) => return Err(PeerError::Io("peer closed the connection".into())),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(PeerError::Io(e.to_string())),
            }
        }
    }

    /// Asks the peer for its role, epoch, and next expected LSN.
    pub fn repl_state(&mut self) -> Result<PeerState, PeerError> {
        match self.exchange(&Request::ReplState)? {
            Response::ReplState { role, epoch, next_lsn } => {
                Ok(PeerState { role, epoch, next_lsn })
            }
            Response::Error(e) => Err(PeerError::Remote(e)),
            other => Err(PeerError::Unexpected(format!("{other:?} to ReplState"))),
        }
    }

    /// Ships one batch of WAL frames; returns the peer's post-apply
    /// state (next LSN and epoch).
    pub fn append(&mut self, epoch: u64, frames: Vec<u8>) -> Result<(u64, u64), PeerError> {
        match self.exchange(&Request::ReplAppend { epoch, frames })? {
            Response::ReplAck { next_lsn, epoch } => Ok((next_lsn, epoch)),
            Response::Error(e) => Err(PeerError::Remote(e)),
            other => Err(PeerError::Unexpected(format!("{other:?} to ReplAppend"))),
        }
    }

    /// Ships a full snapshot for standby bootstrap.
    pub fn snapshot(&mut self, snapshot: Vec<u8>) -> Result<(u64, u64), PeerError> {
        match self.exchange(&Request::ReplSnapshot { snapshot })? {
            Response::ReplAck { next_lsn, epoch } => Ok((next_lsn, epoch)),
            Response::Error(e) => Err(PeerError::Remote(e)),
            other => Err(PeerError::Unexpected(format!("{other:?} to ReplSnapshot"))),
        }
    }

    /// Asks the peer to promote itself to primary; returns its state
    /// after the epoch bump.
    pub fn promote(&mut self) -> Result<PeerState, PeerError> {
        match self.exchange(&Request::Promote)? {
            Response::ReplState { role, epoch, next_lsn } => {
                Ok(PeerState { role, epoch, next_lsn })
            }
            Response::Error(e) => Err(PeerError::Remote(e)),
            other => Err(PeerError::Unexpected(format!("{other:?} to Promote"))),
        }
    }

    /// Fetches the peer's health report.
    pub fn health(&mut self) -> Result<EngineHealth, PeerError> {
        match self.exchange(&Request::Health)? {
            Response::Health(h) => Ok(h),
            Response::Error(e) => Err(PeerError::Remote(e)),
            other => Err(PeerError::Unexpected(format!("{other:?} to Health"))),
        }
    }
}

/// Shipper tuning.
#[derive(Debug, Clone)]
pub struct ShipperConfig {
    /// File holding the standby's address (one line). Re-read on every
    /// reconnect and idle poll, so a supervisor repoints replication by
    /// rewriting it atomically. An absent or empty file means "no
    /// standby yet" — the shipper idles.
    pub peer_file: PathBuf,
    /// How often to poll for new WAL when caught up, and how long to
    /// back off after a failure.
    pub poll_interval: Duration,
    /// Connect and per-read deadline for the replication channel.
    pub io_timeout: Duration,
}

impl Default for ShipperConfig {
    fn default() -> ShipperConfig {
        ShipperConfig {
            peer_file: PathBuf::from("standby.addr"),
            poll_interval: Duration::from_millis(20),
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// A running shipper thread. Stop it explicitly; dropping without
/// [`ShipperHandle::stop`] detaches the thread (it exits on its next
/// poll once the process tears the engine down).
pub struct ShipperHandle {
    stop: Arc<AtomicBool>,
    snapshots_shipped: Arc<AtomicU64>,
    batches_shipped: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl ShipperHandle {
    /// Signals the thread and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Snapshot bootstraps performed (observability for tests).
    pub fn snapshots_shipped(&self) -> u64 {
        self.snapshots_shipped.load(Ordering::Relaxed)
    }

    /// Non-empty frame batches acknowledged (observability for tests).
    pub fn batches_shipped(&self) -> u64 {
        self.batches_shipped.load(Ordering::Relaxed)
    }
}

/// Starts the WAL-shipping thread for `engine`. The thread idles while
/// the engine is not a primary (so it is safe to start on every node;
/// a promoted standby's shipper wakes up on its own) and exits when
/// the handle is stopped.
pub fn start_shipper(engine: Arc<Engine>, cfg: ShipperConfig) -> ShipperHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let snapshots = Arc::new(AtomicU64::new(0));
    let batches = Arc::new(AtomicU64::new(0));
    let t_stop = Arc::clone(&stop);
    let t_snapshots = Arc::clone(&snapshots);
    let t_batches = Arc::clone(&batches);
    let thread = thread::Builder::new()
        .name("mpq-shipper".to_string())
        .spawn(move || ship_loop(&engine, &cfg, &t_stop, &t_snapshots, &t_batches))
        .expect("spawn shipper thread");
    ShipperHandle {
        stop,
        snapshots_shipped: snapshots,
        batches_shipped: batches,
        thread: Some(thread),
    }
}

fn read_peer_file(cfg: &ShipperConfig) -> Option<String> {
    let text = std::fs::read_to_string(&cfg.peer_file).ok()?;
    let addr = text.trim();
    (!addr.is_empty()).then(|| addr.to_string())
}

fn ship_loop(
    engine: &Engine,
    cfg: &ShipperConfig,
    stop: &AtomicBool,
    snapshots: &AtomicU64,
    batches: &AtomicU64,
) {
    let faults = engine.fault_injector();
    while !stop.load(Ordering::SeqCst) {
        if engine.role() != ReplRole::Primary || faults.repl_stall_armed() {
            thread::sleep(cfg.poll_interval);
            continue;
        }
        let Some(addr) = read_peer_file(cfg) else {
            thread::sleep(cfg.poll_interval);
            continue;
        };
        let Ok(mut peer) = ReplPeer::connect(&addr, cfg.io_timeout) else {
            thread::sleep(cfg.poll_interval);
            continue;
        };
        let state = match peer.repl_state() {
            Ok(s) => s,
            Err(_) => {
                thread::sleep(cfg.poll_interval);
                continue;
            }
        };
        if state.epoch > engine.epoch() {
            // The "standby" has lived through a promotion we missed:
            // this node is the deposed side of a failover. Fence.
            engine.mark_fenced(engine.epoch(), state.epoch);
            thread::sleep(cfg.poll_interval);
            continue;
        }
        if state.role != ReplRole::Standby {
            // Not a standby (mis-pointed peer file, or the new primary
            // after a failover). Never ship into a primary.
            thread::sleep(cfg.poll_interval);
            continue;
        }
        ship_session(engine, cfg, stop, snapshots, batches, &mut peer, state.next_lsn);
    }
}

/// Ships over one connection until it fails, the peer file changes,
/// this node stops being primary, or the handle stops.
#[allow(clippy::too_many_arguments)]
fn ship_session(
    engine: &Engine,
    cfg: &ShipperConfig,
    stop: &AtomicBool,
    snapshots: &AtomicU64,
    batches: &AtomicU64,
    peer: &mut ReplPeer,
    mut standby_next: u64,
) {
    let faults = engine.fault_injector();
    let session_addr = read_peer_file(cfg);
    while !stop.load(Ordering::SeqCst) && engine.role() == ReplRole::Primary {
        if faults.repl_stall_armed() {
            thread::sleep(cfg.poll_interval);
            continue;
        }
        let from = standby_next.saturating_sub(1);
        let batch = match engine.replication_frames_after(from) {
            Ok(Some(b)) => b,
            Ok(None) => {
                // Coverage gap: the log no longer reaches back to the
                // standby's position. Bootstrap it from a snapshot and
                // resume incrementally after.
                let Ok((bytes, _last_lsn)) = engine.snapshot_for_replication() else {
                    return;
                };
                match peer.snapshot(bytes) {
                    Ok((next_lsn, peer_epoch)) => {
                        if peer_epoch > engine.epoch() {
                            engine.mark_fenced(engine.epoch(), peer_epoch);
                            return;
                        }
                        snapshots.fetch_add(1, Ordering::Relaxed);
                        // A snapshot carries everything up to its LSN:
                        // clear the byte lag wholesale (record lag
                        // clears through the acked LSN).
                        let stale_bytes =
                            engine.replication_status().lag_bytes.unwrap_or(0);
                        engine.replica_acked(next_lsn.saturating_sub(1), stale_bytes);
                        standby_next = next_lsn;
                        continue;
                    }
                    Err(e) => return fence_on_stale(engine, &e),
                }
            }
            Err(_) => return,
        };
        if batch.records == 0 {
            // Caught up. Idle one poll; bail out if the supervisor
            // repointed the peer file so the outer loop reconnects.
            thread::sleep(cfg.poll_interval);
            if read_peer_file(cfg) != session_addr {
                return;
            }
            continue;
        }
        if faults.take_repl_drop_stream() {
            // Fault: sever the stream mid-segment, after the standby
            // may have read part of the batch. At-least-once delivery
            // plus LSN dedup makes the retry safe.
            let _ = peer.stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        let sends = if faults.take_repl_duplicate() { 2 } else { 1 };
        let batch_len = batch.bytes.len() as u64;
        let mut acked = None;
        for _ in 0..sends {
            match peer.append(engine.epoch(), batch.bytes.clone()) {
                Ok(ack) => acked = Some(ack),
                Err(e) => return fence_on_stale(engine, &e),
            }
        }
        if let Some((next_lsn, peer_epoch)) = acked {
            if peer_epoch > engine.epoch() {
                engine.mark_fenced(engine.epoch(), peer_epoch);
                return;
            }
            batches.fetch_add(1, Ordering::Relaxed);
            engine.replica_acked(next_lsn.saturating_sub(1), batch_len);
            standby_next = next_lsn;
        }
    }
}

/// On a `StaleEpoch` refusal from the peer, fence the local engine —
/// this node was deposed and must stop accepting writes. Other errors
/// just end the session (the outer loop reconnects).
fn fence_on_stale(engine: &Engine, e: &PeerError) {
    if let PeerError::Remote(ServerError::Engine(EngineError::StaleEpoch { sent, have })) = e
    {
        engine.mark_fenced(*sent, *have);
    }
}
