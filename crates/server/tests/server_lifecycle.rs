//! Lifecycle tests: graceful shutdown over a durable engine (drain →
//! checkpoint → clean recovery on reopen), and admission control's
//! typed `Busy` / `QueueTimeout` refusals observed over the wire.

use mpq_client::{Client, ClientError};
use mpq_core::{DeriveOptions, Envelope, EnvelopeProvider};
use mpq_engine::{Catalog, Engine, Table};
use mpq_models::Classifier;
use mpq_server::{AdmissionConfig, Server, ServerConfig, ServerError};
use mpq_types::{AttrDomain, AttrId, Attribute, ClassId, Dataset, Row, Schema};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "mpq-server-lifecycle-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // A fresh name each call; recreate from scratch so reruns are clean.
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn demo_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("a", AttrDomain::categorical(["a0", "a1", "a2", "a3"])),
        Attribute::new("b", AttrDomain::categorical(["b0", "b1", "b2"])),
        Attribute::new("label", AttrDomain::categorical(["neg", "pos"])),
    ])
    .unwrap()
}

fn seed_demo(engine: &Engine) {
    let mut ds = Dataset::new(demo_schema());
    for i in 0..600u16 {
        let (a, b) = (i % 4, (i / 4) % 3);
        let label = u16::from(a >= 2 && b != 1);
        ds.push_encoded(&[a, b, label]).unwrap();
    }
    engine.create_table(Table::with_page_bytes("t", &ds, 512)).unwrap();
    engine.create_index("t", &[AttrId(0)]).unwrap();
    engine
        .execute_sql("CREATE MINING MODEL m_tree ON t PREDICT label USING decision_tree")
        .unwrap();
}

const QUERY: &str = "SELECT * FROM t WHERE PREDICT(m_tree) = 'pos'";

/// The graceful-shutdown guarantee: clients hammering the server while
/// it shuts down see only typed shutdown-shaped failures, the drain
/// checkpoints the durable catalog, and a reopened engine reports a
/// clean recovery and serves identical results.
#[test]
fn graceful_shutdown_drains_checkpoints_and_recovers_clean() {
    let dir = temp_dir();
    let engine = Arc::new(Engine::open(&dir).expect("open durable engine"));
    seed_demo(&engine);
    let baseline = engine.query(QUERY).expect("baseline").rows;
    assert!(!baseline.is_empty(), "demo concept must select something");

    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Four clients issue statements in a loop until shutdown cuts them
    // off. Anything other than a success or a typed shutdown-shaped
    // failure is a bug.
    let workers: Vec<_> = (0..4)
        .map(|tid| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut successes = 0u64;
                for i in 0..200 {
                    match client.statement(QUERY) {
                        Ok(_) => successes += 1,
                        Err(ClientError::Remote(ServerError::ShuttingDown))
                        | Err(ClientError::Disconnected)
                        | Err(ClientError::Io(_)) => break,
                        // The drain may answer a just-sent statement
                        // with its idle-connection Goodbye.
                        Err(ClientError::Unexpected(d)) if d.contains("Goodbye") => break,
                        Err(e) => panic!("client {tid} iteration {i}: {e}"),
                    }
                }
                successes
            })
        })
        .collect();

    // Let the workers get queries genuinely in flight, then ask for
    // shutdown over the wire like an operator would.
    std::thread::sleep(Duration::from_millis(50));
    let mut admin = Client::connect(addr).expect("admin connect");
    admin.shutdown_server().expect("shutdown acknowledged");

    server.wait_shutdown_requested();
    let report = server.shutdown();
    let served: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    assert!(served > 0, "workers must have completed some statements");
    assert_eq!(report.connections, 5);
    assert!(report.queries_served >= served, "report: {report}");
    assert!(
        report.checkpoint_lsn.is_some(),
        "durable engine must checkpoint at drain: {report}"
    );

    // Release the last engine handle (writes the clean-shutdown marker),
    // then reopen: recovery must be pristine and results identical.
    drop(admin);
    drop(engine);
    let reopened = Engine::open(&dir).expect("reopen");
    let recovery = reopened.health().recovery.expect("durable engine has a report");
    assert!(recovery.clean_shutdown, "recovery: {recovery:?}");
    assert_eq!(recovery.records_dropped, 0, "recovery: {recovery:?}");
    assert!(recovery.corruption.is_none(), "recovery: {recovery:?}");
    assert_eq!(reopened.query(QUERY).expect("reopened query").rows, baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A classifier that sleeps per prediction: the deterministic "long
/// query" the admission tests hold a slot with.
struct SlowModel {
    schema: Schema,
    per_row: Duration,
}

impl Classifier for SlowModel {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn n_classes(&self) -> usize {
        2
    }
    fn class_name(&self, c: ClassId) -> &str {
        if c.0 == 0 {
            "even"
        } else {
            "odd"
        }
    }
    fn predict(&self, row: &Row) -> ClassId {
        std::thread::sleep(self.per_row);
        ClassId((row[0] + row[1]) % 2)
    }
}

impl EnvelopeProvider for SlowModel {
    fn envelope(&self, class: ClassId, _opts: &DeriveOptions) -> Envelope {
        Envelope::trivial(class, &self.schema)
    }
}

/// Overload answers: with one execution slot and a one-deep queue, a
/// held slot turns the next request into `QueueTimeout` (after its
/// bounded wait) and the one after into an immediate `Busy`; both are
/// typed, both leave the connection usable, and the drain report counts
/// them.
#[test]
fn admission_refusals_are_typed_busy_and_queue_timeout() {
    // 120 rows, each scored once (the slow model has no proxy cascade),
    // so 120 × 5 ms ≈ 600 ms per query at parallelism 1 — a
    // deterministic slot-holder.
    let mut ds = Dataset::new(demo_schema());
    for i in 0..120u16 {
        ds.push_encoded(&[i % 4, (i / 4) % 3, i % 2]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::with_page_bytes("t", &ds, 512)).unwrap();
    let engine = Arc::new(Engine::new(cat));
    engine.set_parallelism(1);
    engine.set_use_envelopes(false); // force full scan: every row scored
    engine
        .register_model(
            "slow",
            Arc::new(SlowModel { schema: demo_schema(), per_row: Duration::from_millis(5) }),
            DeriveOptions::default(),
        )
        .unwrap();

    let cfg = ServerConfig {
        admission: AdmissionConfig {
            max_in_flight: 1,
            max_queue: 1,
            queue_timeout: Duration::from_millis(120),
        },
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), cfg).unwrap();
    let addr = server.local_addr();
    let slow_sql = "SELECT * FROM t WHERE PREDICT(slow) = 'even'";

    // A holds the only slot for ~600 ms.
    let holder = std::thread::spawn(move || {
        let mut a = Client::connect(addr).expect("connect A");
        a.statement(slow_sql).expect("the slot-holder itself succeeds")
    });
    std::thread::sleep(Duration::from_millis(100)); // A is definitely executing

    // B queues (fills the one queue slot) and times out after ~120 ms.
    let queued = std::thread::spawn(move || {
        let mut b = Client::connect(addr).expect("connect B");
        b.statement(slow_sql)
    });
    std::thread::sleep(Duration::from_millis(30)); // B is definitely queued

    // C finds slot and queue both full: immediate Busy.
    let mut c = Client::connect(addr).expect("connect C");
    match c.statement(slow_sql) {
        Err(ClientError::Remote(ServerError::Busy { in_flight, queued })) => {
            assert_eq!((in_flight, queued), (1, 1));
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    match queued.join().expect("thread B") {
        Err(ClientError::Remote(ServerError::QueueTimeout { waited_ms })) => {
            assert!(waited_ms >= 120, "waited the configured timeout, got {waited_ms}");
        }
        other => panic!("expected QueueTimeout, got {other:?}"),
    }
    holder.join().expect("thread A");

    // C's connection survived its refusal: a cheap statement succeeds
    // once the slot frees up.
    c.statement("EXPLAIN SELECT * FROM t WHERE PREDICT(slow) = 'even'")
        .expect("refused connection stays usable");

    let report = server.shutdown();
    assert_eq!(report.rejected_busy, 1, "report: {report}");
    assert_eq!(report.rejected_timeout, 1, "report: {report}");
}
