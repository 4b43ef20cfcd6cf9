//! Wire-level replication tests: a read-only server's typed refusals,
//! the primary→standby shipping pipeline end to end (including the
//! divergence oracle across all five model algorithms), replication
//! fault injection, supervised promotion, and epoch fencing of a
//! zombie primary.

use mpq_client::{Client, ClientError};
use mpq_engine::{Catalog, Engine, EngineError, ReplRole, StatementOutcome, Table};
use mpq_server::{
    start_shipper, start_supervisor, write_peer_file, ReplPeer, Server, ServerConfig,
    ServerError, ShipperConfig, SupervisorConfig,
};
use mpq_types::{AttrDomain, Attribute, Dataset, Schema};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "mpq-srvrepl-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn demo_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("x", AttrDomain::binned(vec![2.0, 4.0]).unwrap()),
        Attribute::new("y", AttrDomain::binned(vec![2.0, 4.0]).unwrap()),
        Attribute::new("grade", AttrDomain::categorical(["lo", "hi"])),
    ])
    .unwrap()
}

fn demo_table(name: &str) -> Table {
    let mut ds = Dataset::new(demo_schema());
    for i in 0..24u16 {
        let x = i % 3;
        let y = (i / 3) % 3;
        ds.push_encoded(&[x, y, u16::from(x == 2 && y >= 1)]).unwrap();
    }
    Table::from_dataset(name, &ds)
}

/// All-ordered companion table: the clustering algorithms refuse
/// categorical attributes, so kmeans/gmm train here.
fn demo_points(name: &str) -> Table {
    let schema = Schema::new(vec![
        Attribute::new("px", AttrDomain::binned(vec![1.0, 2.0]).unwrap()),
        Attribute::new("py", AttrDomain::binned(vec![1.0]).unwrap()),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for i in 0..24u16 {
        ds.push_encoded(&[i % 3, (i / 3) % 2]).unwrap();
    }
    Table::from_dataset(name, &ds)
}

/// One durable node with a server in front of it. Standbys rely on the
/// server's role-based mutation refusal (not static `read_only`), so
/// promotion makes them writable with no restart.
fn start_node(dir: &Path, standby: bool) -> (Arc<Engine>, Server) {
    let engine = Arc::new(Engine::open(dir).expect("open node dir"));
    if standby {
        engine.set_standby();
    }
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).expect("bind node");
    (engine, server)
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Satellite: a `--read-only` server refuses every mutation with the
/// typed server-level error before the engine sees it, while reads and
/// session statements work normally.
#[test]
fn read_only_server_refuses_mutations_with_a_typed_error() {
    let engine = Arc::new(Engine::new(Catalog::new()));
    engine.create_table(demo_table("t")).unwrap();
    let cfg = ServerConfig { read_only: true, ..ServerConfig::default() };
    let server = Server::start(Arc::clone(&engine), cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for sql in [
        "INSERT INTO t VALUES (1, 1, 'lo')",
        "CREATE MINING MODEL m ON t PREDICT grade USING decision_tree",
        "create mining model m2 on t with 2 clusters using kmeans",
    ] {
        let err = client.statement(sql).expect_err("mutation on read-only server");
        assert!(
            matches!(err, ClientError::Remote(ServerError::ReadOnly { .. })),
            "{sql}: got {err:?}"
        );
        // The refusal is retryable: after a failover promotes this
        // node, the same statement becomes valid.
        assert!(err.is_retryable(), "{sql}: ReadOnly must be retryable");
    }
    // Reads and session SETs are unaffected.
    assert!(!client.query("SELECT * FROM t WHERE x <= 2").unwrap().rows.is_empty());
    assert!(matches!(
        client.statement("SET PARALLELISM 2").unwrap(),
        StatementOutcome::ParallelismSet { dop: 2 }
    ));
    // Nothing reached the engine.
    assert_eq!(engine.catalog().table(0).table.n_rows(), 24);
    server.shutdown();
}

/// The tentpole divergence oracle: a primary serving live SQL ships its
/// WAL to a standby; after every statement has acknowledged, both nodes
/// answer every probe query — covering all five model algorithms —
/// with byte-identical rows over the wire. Health reports the roles and
/// a drained lag.
#[test]
fn divergence_oracle_standby_matches_primary_across_all_five_algorithms() {
    let (da, db) = (temp_path("div-a"), temp_path("div-b"));
    let (primary, server_a) = start_node(&da, false);
    let (standby, server_b) = start_node(&db, true);
    let peer_file = temp_path("div-peer");
    write_peer_file(&peer_file, &server_b.local_addr().to_string()).unwrap();

    primary.enable_sync_replication();
    let shipper = start_shipper(
        Arc::clone(&primary),
        ShipperConfig { peer_file: peer_file.clone(), ..ShipperConfig::default() },
    );

    // Table DDL through the engine API (tables carry their data set),
    // everything else as live SQL through the wire.
    primary.create_table(demo_table("t")).unwrap();
    primary.create_table(demo_points("pts")).unwrap();
    let mut client_a = Client::connect(server_a.local_addr()).expect("connect primary");
    for sql in [
        "INSERT INTO t VALUES (1, 1, 'lo'), (5, 5, 'hi')",
        "INSERT INTO t VALUES (3, 1, 'hi')",
        "INSERT INTO pts VALUES (0, 0), (5, 5)",
        "CREATE MINING MODEL m_tree ON t PREDICT grade USING decision_tree",
        "CREATE MINING MODEL m_bayes ON t PREDICT grade USING bayes",
        "CREATE MINING MODEL m_rules ON t PREDICT grade USING rules",
        "CREATE MINING MODEL m_km ON pts WITH 2 CLUSTERS USING kmeans",
        "CREATE MINING MODEL m_gm ON pts WITH 2 CLUSTERS USING gmm",
    ] {
        // Synchronous acks: success here *means* the standby has it.
        client_a.statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    wait_until("standby to catch up", Duration::from_secs(10), || {
        standby.last_lsn() == primary.last_lsn()
    });

    let mut client_b = Client::connect(server_b.local_addr()).expect("connect standby");
    for q in [
        "SELECT * FROM t WHERE PREDICT(m_tree) = 'hi'",
        "SELECT * FROM t WHERE PREDICT(m_bayes) = 'lo'",
        "SELECT * FROM t WHERE PREDICT(m_rules) = 'hi'",
        "SELECT * FROM pts WHERE PREDICT(m_km) = 'cluster_0'",
        "SELECT * FROM pts WHERE PREDICT(m_gm) = 'cluster_1'",
        "SELECT * FROM t WHERE x <= 2 AND y > 2",
        "SELECT * FROM t WHERE grade = 'hi'",
    ] {
        let on_primary = client_a.query(q).unwrap_or_else(|e| panic!("primary {q}: {e}"));
        let on_standby = client_b.query(q).unwrap_or_else(|e| panic!("standby {q}: {e}"));
        assert_eq!(on_primary.rows, on_standby.rows, "divergent rows for {q}");
    }

    // Health over the wire: roles, epochs, and a drained lag.
    let ha = client_a.health().unwrap();
    assert_eq!(ha.role, ReplRole::Primary);
    assert_eq!(ha.replica_lag_records, Some(0), "primary lag after full ack");
    let hb = client_b.health().unwrap();
    assert_eq!(hb.role, ReplRole::Standby);
    assert_eq!(hb.replica_lag_records, None, "a standby measures no shipping lag");

    // And the standby still refuses wire mutations.
    let err = client_b.statement("INSERT INTO t VALUES (1, 1, 'lo')").expect_err("standby");
    assert!(matches!(err, ClientError::Remote(ServerError::ReadOnly { .. })), "{err:?}");

    shipper.stop();
    server_a.shutdown();
    server_b.shutdown();
}

/// Satellite: replication faults — a stream severed mid-session, a
/// duplicated batch delivery, and a stalled shipper — all converge to
/// the same standby state; the stall is visible as reported lag while
/// it lasts.
#[test]
fn replication_faults_converge_and_stall_surfaces_as_lag() {
    let (da, db) = (temp_path("fault-a"), temp_path("fault-b"));
    let (primary, server_a) = start_node(&da, false);
    let (standby, server_b) = start_node(&db, true);
    let peer_file = temp_path("fault-peer");
    write_peer_file(&peer_file, &server_b.local_addr().to_string()).unwrap();
    let faults = primary.fault_injector();

    primary.enable_sync_replication();
    let shipper = start_shipper(
        Arc::clone(&primary),
        ShipperConfig { peer_file: peer_file.clone(), ..ShipperConfig::default() },
    );
    primary.create_table(demo_table("t")).unwrap();
    let mut client_a = Client::connect(server_a.local_addr()).expect("connect primary");

    // Severed stream: the shipper drops the connection instead of
    // shipping, reconnects, re-asks the standby's position, and the
    // write still acknowledges within its timeout.
    faults.set_repl_drop_stream(true);
    client_a.statement("INSERT INTO t VALUES (1, 1, 'lo')").expect("write across a drop");

    // Duplicate delivery: the same batch is shipped twice; the standby
    // deduplicates by LSN, so the ack (and the state) are unchanged.
    faults.set_repl_duplicate(true);
    client_a.statement("INSERT INTO t VALUES (5, 5, 'hi')").expect("write across a dup");
    wait_until("standby to catch up", Duration::from_secs(10), || {
        standby.last_lsn() == primary.last_lsn()
    });
    assert_eq!(
        primary.query("SELECT COUNT(*) FROM t WHERE x <= 2").unwrap().rows,
        standby.query("SELECT COUNT(*) FROM t WHERE x <= 2").unwrap().rows,
        "divergence after injected faults"
    );

    // Stall: shipping pauses, so an unshipped append shows up as lag on
    // the primary's health report while a writer is blocked on the ack.
    faults.set_repl_stall(true);
    let writer = std::thread::spawn({
        let addr = server_a.local_addr();
        move || {
            let mut c = Client::connect(addr).expect("stalled writer connects");
            c.statement("INSERT INTO t VALUES (3, 3, 'lo')")
        }
    });
    wait_until("lag to surface", Duration::from_secs(3), || {
        primary.health().replica_lag_records.unwrap_or(0) > 0
    });
    faults.set_repl_stall(false);
    writer.join().unwrap().expect("stalled write completes after the stall lifts");
    wait_until("lag to drain", Duration::from_secs(5), || {
        primary.health().replica_lag_records == Some(0)
    });

    shipper.stop();
    server_a.shutdown();
    server_b.shutdown();
}

/// Supervised failover in-process: the supervisor's probes fail once
/// the primary's server is gone, the standby is promoted (epoch bump),
/// and the writers' shared address handle now points at it.
#[test]
fn supervisor_promotes_the_standby_when_the_primary_dies() {
    let (da, db) = (temp_path("sup-a"), temp_path("sup-b"));
    let (primary, server_a) = start_node(&da, false);
    let (standby, server_b) = start_node(&db, true);
    let peer_file = temp_path("sup-peer");
    write_peer_file(&peer_file, &server_b.local_addr().to_string()).unwrap();

    primary.enable_sync_replication();
    let shipper = start_shipper(
        Arc::clone(&primary),
        ShipperConfig { peer_file: peer_file.clone(), ..ShipperConfig::default() },
    );
    primary.create_table(demo_table("t")).unwrap();
    let mut client_a = Client::connect(server_a.local_addr()).expect("connect primary");
    client_a.statement("INSERT INTO t VALUES (1, 1, 'lo')").unwrap();

    let primary_handle = Arc::new(RwLock::new(server_a.local_addr().to_string()));
    let standby_handle = Arc::new(RwLock::new(server_b.local_addr().to_string()));
    let sup = start_supervisor(
        Arc::clone(&primary_handle),
        Arc::clone(&standby_handle),
        SupervisorConfig {
            check_interval: Duration::from_millis(20),
            fail_threshold: 3,
            io_timeout: Duration::from_millis(200),
            peer_file: peer_file.clone(),
        },
    );
    // Healthy primary: no promotion however long we watch.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(sup.promotions(), 0, "no failover while the primary answers");

    // Kill the primary's server (the engine object stays alive, but
    // nothing answers probes any more).
    server_a.shutdown();
    wait_until("supervised promotion", Duration::from_secs(10), || sup.promotions() == 1);
    assert_eq!(standby.role(), ReplRole::Primary, "standby was promoted");
    assert_eq!(standby.epoch(), 1, "promotion bumped the epoch");
    assert_eq!(
        *primary_handle.read().unwrap(),
        server_b.local_addr().to_string(),
        "writers were repointed at the new primary"
    );
    // The role-based refusal lifted with the promotion: the same server
    // that refused mutations as a standby now accepts them, no restart.
    let mut client_b = Client::connect(server_b.local_addr()).expect("connect new primary");
    client_b
        .statement("INSERT INTO t VALUES (5, 5, 'hi')")
        .expect("promoted node accepts writes over the wire");

    sup.stop();
    shipper.stop();
    server_b.shutdown();
}

/// The acceptance bar: a fenced zombie's writes are provably rejected.
/// A is deposed while it still thinks it is primary; the moment its
/// shipper talks to anything from the new epoch it is fenced, and both
/// its replication stream and its client writes fail typed.
#[test]
fn zombie_primary_is_fenced_and_its_writes_are_rejected() {
    let (da, db, dc) = (temp_path("fence-a"), temp_path("fence-b"), temp_path("fence-c"));
    let (node_a, server_a) = start_node(&da, false);
    let (node_b, server_b) = start_node(&db, true);
    let peer_a = temp_path("fence-peer-a");
    write_peer_file(&peer_a, &server_b.local_addr().to_string()).unwrap();

    node_a.enable_sync_replication();
    let shipper_a = start_shipper(
        Arc::clone(&node_a),
        ShipperConfig { peer_file: peer_a.clone(), ..ShipperConfig::default() },
    );
    node_a.create_table(demo_table("t")).unwrap();
    let mut client_a = Client::connect(server_a.local_addr()).expect("connect A");
    client_a.statement("INSERT INTO t VALUES (1, 1, 'lo')").unwrap();
    wait_until("B to catch up", Duration::from_secs(10), || {
        node_b.last_lsn() == node_a.last_lsn()
    });

    // Failover: B is promoted (epoch 0 → 1). A is *not* told — it is
    // the zombie half of a partition.
    let mut to_b = ReplPeer::connect(&server_b.local_addr().to_string(), Duration::from_secs(2))
        .expect("reach B");
    let promoted = to_b.promote().expect("promote B");
    assert_eq!(promoted.role, ReplRole::Primary);
    assert_eq!(promoted.epoch, 1);

    // B replicates onward to a fresh standby C (snapshot bootstrap
    // carries the epoch-1 history).
    let (node_c, server_c) = start_node(&dc, true);
    let peer_b = temp_path("fence-peer-b");
    write_peer_file(&peer_b, &server_c.local_addr().to_string()).unwrap();
    let shipper_b = start_shipper(
        Arc::clone(&node_b),
        ShipperConfig { peer_file: peer_b.clone(), ..ShipperConfig::default() },
    );
    wait_until("C to bootstrap from B", Duration::from_secs(10), || {
        node_c.last_lsn() == node_b.last_lsn() && node_c.epoch() == 1
    });

    // Direct wire proof: an epoch-0 stream is refused typed by C.
    let frames = node_a.replication_frames_after(0).unwrap().expect("A's log");
    let mut zombie_stream =
        ReplPeer::connect(&server_c.local_addr().to_string(), Duration::from_secs(2))
            .expect("reach C");
    match zombie_stream.append(0, frames.bytes) {
        Err(mpq_server::PeerError::Remote(ServerError::Engine(
            EngineError::StaleEpoch { sent: 0, have: 1 },
        ))) => {}
        other => panic!("zombie stream must be StaleEpoch-refused, got {other:?}"),
    }

    // Repoint A's shipper at C: its next batch is refused, and the
    // refusal fences A itself.
    write_peer_file(&peer_a, &server_c.local_addr().to_string()).unwrap();
    let zombie_write = client_a.statement("INSERT INTO t VALUES (5, 5, 'hi')");
    match zombie_write {
        Err(ClientError::Remote(ServerError::Engine(
            EngineError::StaleEpoch { .. } | EngineError::Io { .. },
        ))) => {}
        other => panic!("zombie write must fail typed, got {other:?}"),
    }
    wait_until("A to fence itself", Duration::from_secs(10), || {
        node_a.execute_sql("INSERT INTO t VALUES (3, 3, 'lo')").is_err()
            && matches!(
                node_a.execute_sql("INSERT INTO t VALUES (3, 3, 'lo')"),
                Err(EngineError::StaleEpoch { sent: 0, have: 1 })
            )
    });
    // No ghost rows: the fenced writes never landed on the new
    // lineage's nodes.
    assert_eq!(
        node_b.query("SELECT COUNT(*) FROM t WHERE x <= 5").unwrap().rows,
        node_c.query("SELECT COUNT(*) FROM t WHERE x <= 5").unwrap().rows,
    );

    shipper_a.stop();
    shipper_b.stop();
    server_a.shutdown();
    server_b.shutdown();
    server_c.shutdown();
}
