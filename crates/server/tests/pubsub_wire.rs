//! Wire-level tests for standing subscriptions: `SUBSCRIBE` over the
//! protocol, server-push `Notify` frames to the subscribing session,
//! the lagging-subscriber gap marker, and the one-shot overflow-pulse
//! fault.

use mpq_client::{Client, ClientError, Notification};
use mpq_engine::{Catalog, Engine, EngineError, StatementOutcome, Table};
use mpq_server::{Server, ServerConfig, ServerError};
use mpq_types::{AttrDomain, Attribute, Dataset, Schema};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn demo_engine() -> Arc<Engine> {
    let schema = Schema::new(vec![
        Attribute::new("x", AttrDomain::binned(vec![2.0, 4.0]).unwrap()),
        Attribute::new("f", AttrDomain::categorical(["a", "b"])),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for i in 0..60u16 {
        ds.push_encoded(&[i % 3, i % 2]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("t", &ds)).unwrap();
    Arc::new(Engine::new(cat))
}

fn start_with_cap(engine: Arc<Engine>, cap: usize) -> Server {
    let cfg = ServerConfig { notify_queue_cap: cap, ..ServerConfig::default() };
    Server::start(engine, cfg).expect("bind loopback")
}

/// Polls until the stream of notifications has been quiet for a while.
fn collect_notifications(client: &mut Client, quiet: Duration) -> Vec<Notification> {
    let mut out = Vec::new();
    let mut last = Instant::now();
    while last.elapsed() < quiet {
        match client.poll_notification().expect("poll") {
            Some(n) => {
                out.push(n);
                last = Instant::now();
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    out
}

/// The happy path over the wire: subscribe, have *another* session
/// insert, and receive exactly the matching rows as push frames — with
/// the insert's own ack carrying the subscription counters.
#[test]
fn subscriber_receives_matches_pushed_after_acked_inserts() {
    let engine = demo_engine();
    let server = start_with_cap(engine, 256);
    let addr = server.local_addr();

    let mut subscriber = Client::connect_named(addr, "sub").unwrap();
    let sub_id = match subscriber.statement("SUBSCRIBE SELECT * FROM t WHERE x > 4").unwrap() {
        StatementOutcome::Subscribed { id } => id,
        other => panic!("{other:?}"),
    };

    let mut writer = Client::connect_named(addr, "writer").unwrap();
    let out = writer
        .statement("INSERT INTO t VALUES (5, 'a'), (1, 'b'), (5, 'b')")
        .unwrap();
    let StatementOutcome::Inserted { rows_inserted, subs_matched, .. } = out else {
        panic!("{out:?}");
    };
    assert_eq!(rows_inserted, 3);
    assert_eq!(subs_matched, 2, "two of the three inserted rows have x > 4");

    let delivered = collect_notifications(&mut subscriber, Duration::from_millis(200));
    let rows: Vec<(u64, u32, Vec<u16>)> = delivered
        .iter()
        .map(|n| match n {
            Notification::Match { subscription, row_id, row, table, .. } => {
                assert_eq!(table, "t");
                (*subscription, *row_id, row.clone())
            }
            g => panic!("unexpected {g:?}"),
        })
        .collect();
    // Members: x=5 encodes to 2, f 'a'/'b' to 0/1; seed table had 60
    // rows, so the inserted rows are 60, 61, 62.
    assert_eq!(rows, vec![(sub_id, 60, vec![2, 0]), (sub_id, 62, vec![2, 1])]);

    // Unsubscribe: later inserts push nothing.
    assert_eq!(
        subscriber.statement(&format!("UNSUBSCRIBE {sub_id}")).unwrap(),
        StatementOutcome::Unsubscribed { id: sub_id }
    );
    writer.statement("INSERT INTO t VALUES (5, 'a')").unwrap();
    assert!(collect_notifications(&mut subscriber, Duration::from_millis(120)).is_empty());

    // Unknown ids refuse with the typed engine error, over the wire.
    match subscriber.statement("UNSUBSCRIBE 9999") {
        Err(ClientError::Remote(ServerError::Engine(EngineError::UnknownSubscription(
            9999,
        )))) => {}
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

/// A subscriber that lags behind a bounded queue loses matches to a
/// single gap marker — and everything it *does* receive is in true
/// insert order. The writers never block.
#[test]
fn lagging_subscriber_gets_gap_marker_not_backpressure() {
    let engine = demo_engine();
    let server = start_with_cap(engine, 2);
    let addr = server.local_addr();

    let mut subscriber = Client::connect_named(addr, "laggard").unwrap();
    subscriber.statement("SUBSCRIBE SELECT * FROM t").unwrap();

    // One statement, ten matching rows: the engine hands all ten to the
    // sink back-to-back, far faster than the subscriber's 25 ms flush
    // tick, so the 2-slot queue must overflow.
    let mut writer = Client::connect_named(addr, "writer").unwrap();
    let values: Vec<String> = (0..10).map(|i| format!("({}, 'a')", [1, 3, 5][i % 3])).collect();
    writer.statement(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();

    let delivered = collect_notifications(&mut subscriber, Duration::from_millis(300));
    let (mut matches, mut dropped) = (0u64, 0u64);
    let mut row_ids = Vec::new();
    for n in &delivered {
        match n {
            Notification::Match { row_id, .. } => {
                matches += 1;
                row_ids.push(*row_id);
            }
            Notification::Gap { dropped: d } => dropped += d,
        }
    }
    assert_eq!(matches + dropped, 10, "every match is accounted for: {delivered:?}");
    assert!(dropped > 0, "a 2-slot queue cannot hold 10 matches: {delivered:?}");
    let mut sorted = row_ids.clone();
    sorted.sort_unstable();
    assert_eq!(row_ids, sorted, "survivors arrive in insert order");
    server.shutdown();
}

/// The injected overflow pulse drops exactly one notification and
/// surfaces as a gap marker on the wire — the degraded shape clients
/// must handle, produced on demand.
#[test]
fn overflow_pulse_fault_surfaces_as_wire_gap() {
    let engine = demo_engine();
    let faults = engine.fault_injector();
    let server = start_with_cap(Arc::clone(&engine), 256);
    let addr = server.local_addr();

    let mut subscriber = Client::connect_named(addr, "sub").unwrap();
    subscriber.statement("SUBSCRIBE SELECT * FROM t WHERE x > 4").unwrap();

    faults.set_notify_overflow_pulse(true);
    let mut writer = Client::connect_named(addr, "writer").unwrap();
    writer.statement("INSERT INTO t VALUES (5, 'a'), (5, 'b')").unwrap();

    let delivered = collect_notifications(&mut subscriber, Duration::from_millis(200));
    assert_eq!(delivered.len(), 2, "{delivered:?}");
    assert_eq!(delivered[0], Notification::Gap { dropped: 1 });
    assert!(
        matches!(&delivered[1], Notification::Match { row_id: 61, .. }),
        "{delivered:?}"
    );
    assert!(!faults.notify_overflow_pulse_armed(), "the pulse is one-shot");
    server.shutdown();
}
