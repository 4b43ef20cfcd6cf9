//! # mpq-server
//!
//! A multi-client TCP server for the mining-predicates engine.
//!
//! The engine crate executes SQL with mining predicates in-process;
//! this crate puts it on a socket. Three pieces:
//!
//! * [`protocol`] — the framed wire protocol: `len | crc32 | payload`
//!   frames (the WAL's framing discipline, applied to a socket),
//!   typed [`protocol::Request`]/[`protocol::Response`] messages, and
//!   codecs that rebuild the engine's own result/error types on the
//!   far side so wire results compare `==` against in-process ones.
//! * [`admission`] — a permit-based admission controller bounding
//!   concurrent query execution and queue depth, with typed
//!   `Busy`/`QueueTimeout` refusals.
//! * [`server`] — the accept loop, one thread + one
//!   [`mpq_engine::SessionState`] per connection (session-scoped `SET
//!   PARALLELISM` / `SET GUARD`), and a graceful shutdown that drains
//!   in-flight statements and checkpoints the engine.
//! * [`replication`] — the primary's WAL-shipping thread and the
//!   minimal peer client it speaks through; the engine replays the
//!   shipped frames on the standby.
//! * [`supervisor`] — failure detection and promotion: health-checks
//!   the primary, promotes the standby on sustained failure (the epoch
//!   fence makes a false positive safe), and repoints writers through
//!   their shared address handle.
//!
//! See `DESIGN.md` §9 for the protocol specification and the
//! admission state machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod notify;
pub mod protocol;
pub mod replication;
pub mod server;
pub mod supervisor;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionError, AdmissionStats};
pub use notify::{NotifyQueue, SubRegistry, DEFAULT_NOTIFY_QUEUE_CAP};
pub use protocol::{
    decode_frame, encode_frame, FrameError, Notification, Request, Response, ServerError,
    DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN, PROTO_VERSION,
};
pub use replication::{start_shipper, PeerError, PeerState, ReplPeer, ShipperConfig, ShipperHandle};
pub use server::{DrainReport, Server, ServerConfig};
pub use supervisor::{start_supervisor, write_peer_file, SupervisorConfig, SupervisorHandle};
