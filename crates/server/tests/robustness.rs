//! Wire-level robustness: the handshake timebox (a stalled client
//! cannot pin an accept slot), the one-version handshake (any other
//! hello is refused, typed), exactly-once retries over real sockets
//! (a response lost mid-flight must not double-apply the INSERT), and
//! the bounded dedup cache's refusal to silently re-apply an evicted
//! statement.

use mpq_client::{Client, ClientError, ReliableClient, RetryPolicy};
use mpq_engine::{Catalog, Engine, EngineError, StatementId, StatementOutcome, Table};
use mpq_server::protocol::{decode_frame, Request, Response, DEFAULT_MAX_FRAME_LEN, PROTO_VERSION};
use mpq_server::{Server, ServerConfig, ServerError};
use mpq_types::{AttrDomain, Attribute, Dataset, Schema};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "mpq-robust-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn demo_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("a", AttrDomain::categorical(["a0", "a1", "a2"])),
        Attribute::new("label", AttrDomain::categorical(["neg", "pos"])),
    ])
    .unwrap()
}

fn demo_table(name: &str) -> Table {
    let mut ds = Dataset::new(demo_schema());
    for i in 0..9u16 {
        ds.push_encoded(&[i % 3, u16::from(i % 3 == 2)]).unwrap();
    }
    Table::from_dataset(name, &ds)
}

fn rows_in(e: &Engine) -> usize {
    e.catalog().table(0).table.n_rows()
}

/// Satellite: a client that connects and then stalls — zero bytes, or
/// a dribble that never completes the `Hello` — is cut off within the
/// request-read budget. The accept slot frees, other clients are
/// unaffected, and the drain doesn't wait on the staller.
#[test]
fn stalled_handshake_cannot_pin_an_accept_slot() {
    let engine = Arc::new(Engine::new(Catalog::new()));
    let cfg = ServerConfig {
        request_read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), cfg).unwrap();
    let addr = server.local_addr();

    // Two stallers: one totally silent, one dribbling a single byte.
    let silent = TcpStream::connect(addr).expect("silent staller connects");
    let mut dribble = TcpStream::connect(addr).expect("dribbling staller connects");
    dribble.write_all(&[0x01]).expect("one lonely byte");

    // Both must be severed within the budget (plus scheduling slack):
    // the server replies with a Protocol error frame and closes, so a
    // blocking read drains a few bytes and then hits EOF.
    let started = Instant::now();
    for (mut stream, tag) in [(silent, "silent"), (dribble, "dribble")] {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set deadline");
        let mut sink = Vec::new();
        stream.read_to_end(&mut sink).expect(tag);
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "stalled handshakes must be cut in ~200ms, took {:?}",
        started.elapsed()
    );

    // A well-behaved client is completely unaffected before and after.
    let mut ok = Client::connect(addr).expect("healthy client connects");
    ok.statement("SET PARALLELISM 2").expect("healthy client executes");
    drop(ok);

    // The drain must not hang on a phantom connection.
    let report = server.shutdown();
    assert_eq!(report.connections, 3, "both stallers were counted and released");
}

/// There is one protocol version. A hello naming any other — older,
/// newer, or nonsense — gets a typed `Protocol` refusal that names both
/// versions, and then the server closes the connection. A current
/// client is unaffected.
#[test]
fn only_the_current_protocol_version_may_shake_hands() {
    let engine = Arc::new(Engine::new(Catalog::new()));
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    for version in [0, 3, 6, PROTO_VERSION + 1] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("set deadline");
        let hello = Request::Hello { proto_version: version, client: "old".into() };
        stream.write_all(&hello.to_frame()).expect("send hello");
        // The refusal, then EOF: `read_to_end` returns only once the
        // server has closed its side.
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("the server closes after refusing");
        let (payload, consumed) = decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).expect("one frame");
        assert_eq!(consumed, bytes.len(), "v{version}: nothing follows the refusal");
        match Response::decode(&payload).expect("decodes") {
            Response::Error(ServerError::Protocol { detail }) => {
                assert!(detail.contains(&format!("version {version} ")), "{detail}");
                assert!(detail.contains(&format!("speaks {PROTO_VERSION}")), "{detail}");
            }
            other => panic!("v{version} hello answered with {other:?}"),
        }
    }

    let mut ok = Client::connect(addr).expect("a current client connects");
    ok.statement("SET PARALLELISM 2").expect("and executes");
    drop(ok);
    server.shutdown();
}

/// The acceptance-criterion retry, over real sockets: the server
/// applies the INSERT, then the connection drops before the response
/// arrives. The client cannot tell "lost request" from "lost reply" —
/// it retries with the same statement id, and the mutation must apply
/// exactly once.
#[test]
fn retried_insert_after_dropped_response_applies_exactly_once() {
    let dir = temp_dir("dropped");
    let engine = Arc::new(Engine::open(&dir).expect("durable engine"));
    engine.create_table(demo_table("t")).unwrap();
    let before = rows_in(&engine);

    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let policy = RetryPolicy {
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        ..RetryPolicy::default()
    };
    let mut client = ReliableClient::with_nonce(addr.to_string(), policy, 7);

    // Session state set before the fault: the reconnect must replay it.
    client.statement("SET PARALLELISM 2").expect("set parallelism");

    engine.fault_injector().set_conn_drop_mid_response(true);
    let out = client
        .statement("INSERT INTO t VALUES ('a1', 'pos')")
        .expect("the retry succeeds after the drop");
    assert!(
        matches!(&out, StatementOutcome::Inserted { table, rows_inserted: 1, .. } if table == "t"),
        "got {out:?}"
    );
    assert_eq!(rows_in(&engine), before + 1, "exactly once, not twice");
    assert_eq!(client.reconnects(), 2, "initial connect + one recovery reconnect");

    // The write survives a crash without duplicating: the WAL holds one
    // stamped record, and replay records (not re-applies) its outcome.
    drop(client);
    server.shutdown();
    Arc::try_unwrap(engine).ok().expect("last handle").simulate_crash();
    let reopened = Engine::open(&dir).expect("reopen");
    assert_eq!(rows_in(&reopened), before + 1, "recovery preserves exactly-once");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the per-session dedup window is bounded (256 outcomes).
/// A retry that arrives after its outcome was evicted gets a typed
/// refusal over the wire — never a silent second application.
#[test]
fn evicted_dedup_outcome_is_refused_over_the_wire() {
    let mut cat = Catalog::new();
    cat.add_table(demo_table("t")).unwrap();
    let engine = Arc::new(Engine::new(cat));
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let id = |seq: u64| StatementId { nonce: 42, seq };
    let first = client
        .statement_stamped("INSERT INTO t VALUES ('a0', 'neg')", id(0))
        .expect("seq 0 applies");

    // An immediate retry is a replay of the original outcome.
    let replay = client
        .statement_stamped("INSERT INTO t VALUES ('a0', 'neg')", id(0))
        .expect("fresh retry replays");
    assert_eq!(replay, first);

    // Push seq 0 out of the bounded window...
    for seq in 1..=256u64 {
        client
            .statement_stamped("INSERT INTO t VALUES ('a0', 'neg')", id(seq))
            .expect("fill the window");
    }
    let rows = rows_in(&engine);

    // ...and the late retry is refused, typed, with nothing applied.
    match client.statement_stamped("INSERT INTO t VALUES ('a0', 'neg')", id(0)) {
        Err(ClientError::Remote(ServerError::Engine(EngineError::Internal { detail }))) => {
            assert!(detail.contains("evicted"), "detail: {detail}");
        }
        other => panic!("expected typed eviction refusal, got {other:?}"),
    }
    assert_eq!(rows_in(&engine), rows, "the refused retry applied nothing");

    // The connection survives its refusal.
    client.statement("SET PARALLELISM 2").expect("session still usable");
    server.shutdown();
}
