//! Durability integration tests: WAL round-trips, checkpoints, clean
//! shutdown, snapshot fallback, and recovery under injected WAL faults.

use mpq_core::DeriveOptions;
use mpq_engine::{Catalog, Engine, EngineError, FaultInjector, StatementOutcome, Table};
use mpq_types::{AttrDomain, Attribute, Dataset, Schema};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "mpq-persist-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // A stale directory from a killed earlier run would corrupt the test.
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

/// Builds a populated durable engine: table, rows, index, and a trained
/// decision-tree model created through SQL DDL.
fn seed_engine(dir: &PathBuf) -> Engine {
    let e = Engine::open(dir).expect("open fresh dir");
    e.create_table(demo_table("t")).unwrap();
    e.insert_rows("t", vec![vec![0, 0, 0], vec![2, 2, 1]]).unwrap();
    e.create_index("t", &[mpq_types::AttrId(0)]).unwrap();
    let out = e
        .execute_sql("CREATE MINING MODEL m ON t PREDICT grade USING decision_tree")
        .unwrap();
    assert!(matches!(out, StatementOutcome::ModelCreated { n_classes: 2, .. }));
    e
}

const QUERY: &str = "SELECT * FROM t WHERE PREDICT(m) = 'hi'";

#[test]
fn state_survives_crash_via_wal_replay() {
    let dir = temp_dir("replay");
    let e = seed_engine(&dir);
    let before = e.query(QUERY).unwrap().rows;
    assert!(!before.is_empty());
    e.simulate_crash();

    let e = Engine::open(&dir).unwrap();
    let report = e.recovery_report().unwrap().clone();
    assert_eq!(report.snapshot_lsn, 0, "no checkpoint was taken");
    assert_eq!(report.wal_records_replayed, 4, "table, insert, index, model");
    assert_eq!(report.records_dropped, 0);
    assert!(report.corruption.is_none());
    assert!(!report.clean_shutdown, "simulated crash skips the marker");
    assert_eq!(e.catalog().n_tables(), 1);
    assert_eq!(e.catalog().n_models(), 1);
    assert_eq!(e.catalog().table(0).table.n_rows(), 26);
    assert!(e.catalog().table(0).index_on(mpq_types::AttrId(0)).is_some());
    assert_eq!(e.query(QUERY).unwrap().rows, before);
}

#[test]
fn created_table_equals_a_build_from_its_parts() {
    // `create_table` moves the caller's columns into the log record and
    // on into the catalog; live apply, in memory and durable, and WAL
    // replay must all hold the table `from_encoded_parts` builds.
    let mut ds = Dataset::new(demo_schema());
    for i in 0..40u16 {
        ds.push_encoded(&[i % 3, (i / 7) % 3, u16::from(i % 5 == 0)]).unwrap();
    }
    let table = Table::with_page_bytes("t", &ds, 256);
    assert!(table.n_pages() > 1);
    let (name, schema, columns, rows_per_page) = table.clone().into_parts();
    let expected = Table::from_encoded_parts(name, schema, columns, rows_per_page).unwrap();
    assert_eq!(expected, table);

    let dir = temp_dir("parts");
    let durable = Engine::open(&dir).unwrap();
    for e in [&durable, &Engine::new(Catalog::new())] {
        e.create_table(table.clone()).unwrap();
        assert_eq!(e.catalog().table(0).table, expected);
    }
    durable.simulate_crash();
    let replayed = Engine::open(&dir).unwrap();
    assert_eq!(replayed.recovery_report().unwrap().wal_records_replayed, 1);
    assert_eq!(replayed.catalog().table(0).table, expected);
    drop(replayed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_shutdown_skips_replay_after_checkpoint() {
    let dir = temp_dir("clean");
    let e = seed_engine(&dir);
    let before = e.query(QUERY).unwrap().rows;
    e.checkpoint().unwrap();
    drop(e); // graceful: writes the clean-shutdown marker

    let e = Engine::open(&dir).unwrap();
    let report = e.recovery_report().unwrap().clone();
    assert!(report.clean_shutdown, "graceful exit must be visible");
    assert_eq!(report.wal_records_replayed, 0, "checkpoint absorbed everything");
    assert_eq!(report.records_dropped, 0);
    assert!(report.corruption.is_none());
    assert!(report.snapshot_lsn > 0);
    assert_eq!(e.query(QUERY).unwrap().rows, before);

    // Reopen once more without any mutation in between: still clean.
    drop(e);
    let e = Engine::open(&dir).unwrap();
    assert!(e.recovery_report().unwrap().clean_shutdown);
}

#[test]
fn checkpoint_plus_tail_replay() {
    let dir = temp_dir("tail");
    let e = seed_engine(&dir);
    e.checkpoint().unwrap();
    e.insert_rows("t", vec![vec![1, 1, 0]]).unwrap();
    e.drop_index("t", &[mpq_types::AttrId(0)]).unwrap();
    let before = e.query(QUERY).unwrap().rows;
    e.simulate_crash();

    let e = Engine::open(&dir).unwrap();
    let report = e.recovery_report().unwrap().clone();
    assert!(report.snapshot_lsn > 0);
    assert_eq!(report.wal_records_replayed, 2, "only the post-checkpoint tail");
    assert_eq!(e.catalog().table(0).table.n_rows(), 27);
    assert!(e.catalog().table(0).index_on(mpq_types::AttrId(0)).is_none());
    assert_eq!(e.query(QUERY).unwrap().rows, before);
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_older() {
    let dir = temp_dir("snapfall");
    let e = seed_engine(&dir);
    e.checkpoint().unwrap();
    e.insert_rows("t", vec![vec![1, 0, 0]]).unwrap();
    let second = e.checkpoint().unwrap();
    let before = e.query(QUERY).unwrap().rows;
    e.simulate_crash();

    // Flip one payload byte in the newest snapshot: its CRC must reject it.
    let snap = dir.join(format!("snap-{second:020}.snap"));
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = 16 + (bytes.len() - 16) / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, bytes).unwrap();

    let e = Engine::open(&dir).unwrap();
    let report = e.recovery_report().unwrap().clone();
    assert_eq!(report.snapshots_skipped, 1);
    assert!(report.corruption.is_some());
    assert!(report.snapshot_lsn < second, "recovered from the older generation");
    // The WAL suffix after the older snapshot still exists, so nothing
    // is lost: the insert is replayed instead of loaded.
    assert_eq!(e.catalog().table(0).table.n_rows(), 27);
    assert_eq!(e.query(QUERY).unwrap().rows, before);
}

#[test]
fn torn_write_rejects_mutation_and_keeps_memory_consistent() {
    let dir = temp_dir("torn");
    let e = seed_engine(&dir);
    let rows_before = e.catalog().table(0).table.n_rows();
    e.fault_injector().set_wal_torn_write(true);
    let err = e.insert_rows("t", vec![vec![0, 1, 0]]).unwrap_err();
    assert!(matches!(err, EngineError::Io { .. }));
    assert_eq!(
        e.catalog().table(0).table.n_rows(),
        rows_before,
        "failed append must not mutate memory"
    );
    // The writer is poisoned — the torn tail on disk can't be appended to.
    assert!(matches!(
        e.insert_rows("t", vec![vec![0, 1, 0]]),
        Err(EngineError::Io { .. })
    ));
    e.simulate_crash();

    let e = Engine::open(&dir).unwrap();
    let report = e.recovery_report().unwrap().clone();
    assert!(report.corruption.is_some(), "torn frame detected");
    assert!(report.bytes_dropped > 0);
    assert_eq!(report.wal_records_replayed, 4, "prefix before the tear survives");
    assert_eq!(e.catalog().table(0).table.n_rows(), rows_before);
}

#[test]
fn silent_bit_flip_caught_at_next_open() {
    let dir = temp_dir("flip");
    let e = seed_engine(&dir);
    e.fault_injector().set_wal_bit_flip(true);
    // The damaged append *succeeds* — the flip happened after the CRC.
    e.insert_rows("t", vec![vec![0, 1, 0]]).unwrap();
    e.insert_rows("t", vec![vec![1, 1, 0]]).unwrap();
    e.simulate_crash();

    let e = Engine::open(&dir).unwrap();
    let report = e.recovery_report().unwrap().clone();
    assert!(
        report.corruption.as_deref().unwrap_or("").contains("crc mismatch"),
        "report: {report}"
    );
    // Both the flipped record and the intact one after it are dropped:
    // nothing past the first bad byte is trusted.
    assert_eq!(report.records_dropped, 2);
    assert_eq!(report.wal_records_replayed, 4);
    assert_eq!(e.catalog().table(0).table.n_rows(), 26);
}

#[test]
fn short_reads_shrink_the_recovered_prefix() {
    let dir = temp_dir("short");
    let e = seed_engine(&dir);
    e.simulate_crash();

    let faults = Arc::new(FaultInjector::new());
    faults.set_wal_short_read(true);
    let e = Engine::open_with_faults(&dir, Arc::clone(&faults)).unwrap();
    let report = e.recovery_report().unwrap().clone();
    assert!(report.corruption.is_some(), "truncated tail detected");
    assert_eq!(report.wal_records_replayed, 3, "last record lost to the short read");
    assert_eq!(e.catalog().n_tables(), 1);
    assert_eq!(e.catalog().n_models(), 0, "model record was the casualty");
}

#[test]
fn transient_models_do_not_survive() {
    let dir = temp_dir("transient");
    let e = Engine::open(&dir).unwrap();
    e.create_table(demo_table("t")).unwrap();
    e.register_model("ephemeral", Arc::new(mpq_core::paper_table1_model()), DeriveOptions::default())
        .unwrap();
    assert_eq!(e.catalog().n_models(), 1);
    e.checkpoint().unwrap();
    drop(e);

    let e = Engine::open(&dir).unwrap();
    assert_eq!(e.catalog().n_tables(), 1);
    assert_eq!(e.catalog().n_models(), 0, "bare trait objects are transient");
}

#[test]
fn durable_model_registration_and_retrain_survive() {
    let dir = temp_dir("retrain");
    let e = seed_engine(&dir);
    // Reuse the DDL-trained model's serialized form as shipped PMML.
    let stored = e.catalog().model(0).stored.clone().unwrap();
    e.register_durable_model("m2", stored.clone(), DeriveOptions::default()).unwrap();
    e.retrain_durable_model("m", stored, DeriveOptions::default()).unwrap();
    assert_eq!(e.catalog().model(0).version, 2);
    e.simulate_crash();

    let e = Engine::open(&dir).unwrap();
    assert_eq!(e.catalog().n_models(), 2);
    assert!(e.catalog().model_by_name("m2").is_some());
    // The replayed retrain bumps the version just like the live one did.
    assert_eq!(e.catalog().model(0).version, 2);

    // A checkpoint collapses that history: snapshot-loaded models start
    // back at version 1 (plan caches never outlive a process anyway).
    let e = e;
    e.checkpoint().unwrap();
    drop(e);
    let e = Engine::open(&dir).unwrap();
    assert_eq!(e.catalog().model(0).version, 1);
    assert_eq!(e.catalog().n_models(), 2);
}

#[test]
fn health_and_explain_surface_recovery_status() {
    let dir = temp_dir("health");
    let e = seed_engine(&dir);
    e.simulate_crash();

    let e = Engine::open(&dir).unwrap();
    let health = e.health();
    let rec = health.recovery.as_ref().expect("durable engine reports recovery");
    assert_eq!(rec.wal_records_replayed, 4);
    let text = health.to_string();
    assert!(text.contains("recovery:"), "health text: {text}");
    assert!(text.contains("replayed=4"), "health text: {text}");

    let explain = e.query(&format!("EXPLAIN {QUERY}")).unwrap();
    assert!(explain.plan.contains("recovery:"), "explain text: {}", explain.plan);
    assert!(explain.plan.contains("snapshot lsn=0"), "explain text: {}", explain.plan);

    // In-memory engines have no recovery section.
    let mem = Engine::new(mpq_engine::Catalog::new());
    assert!(mem.health().recovery.is_none());
}

#[test]
fn checkpoint_prunes_old_generations() {
    let dir = temp_dir("prune");
    let e = seed_engine(&dir);
    for round in 0..4u16 {
        e.insert_rows("t", vec![vec![round % 3, 0, 0]]).unwrap();
        e.checkpoint().unwrap();
    }
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let snaps = names.iter().filter(|n| n.ends_with(".snap")).count();
    let wals = names.iter().filter(|n| n.ends_with(".wal")).count();
    assert_eq!(snaps, 2, "two generations retained: {names:?}");
    assert!(wals <= 2, "covered segments pruned: {names:?}");
    drop(e);
    let e = Engine::open(&dir).unwrap();
    assert_eq!(e.catalog().table(0).table.n_rows(), 30);
    assert!(e.recovery_report().unwrap().clean_shutdown);
}

#[test]
fn open_on_garbage_directory_degrades_not_panics() {
    let dir = temp_dir("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal-00000000000000000001.wal"), b"not a wal at all").unwrap();
    std::fs::write(dir.join("snap-00000000000000000009.snap"), b"junk").unwrap();
    std::fs::write(dir.join("snap-00000000000000000009.snap.tmp"), b"leftover").unwrap();

    let e = Engine::open(&dir).unwrap();
    let report = e.recovery_report().unwrap().clone();
    assert_eq!(report.snapshots_skipped, 1);
    assert!(report.corruption.is_some());
    assert_eq!(e.catalog().n_tables(), 0);
    // The directory is usable again after the wreckage is cleared.
    e.create_table(demo_table("t")).unwrap();
    e.simulate_crash();
    let e = Engine::open(&dir).unwrap();
    assert_eq!(e.catalog().n_tables(), 1);
}

/// Satellite stress test: eight reader threads run mixed queries (point,
/// mining, COUNT, EXPLAIN — at parallelism 2, so worker pools spin up
/// under contention) against one shared engine while a writer thread
/// interleaves durable inserts with checkpoints. Nothing may deadlock,
/// no read may tear, and a crash afterwards must replay every write.
#[test]
fn concurrent_readers_and_durable_writer_stay_consistent() {
    let dir = temp_dir("stress");
    let e = seed_engine(&dir);
    e.checkpoint().unwrap();
    e.set_parallelism(2);

    const READERS: usize = 8;
    const ROUNDS: usize = 30;
    let before = e.catalog().table(0).table.n_rows();

    std::thread::scope(|s| {
        for r in 0..READERS {
            let e = &e;
            s.spawn(move || {
                let queries = [
                    QUERY,
                    "SELECT * FROM t WHERE x <= 2",
                    "SELECT COUNT(*) FROM t WHERE PREDICT(m) = 'lo' OR y > 4",
                    "EXPLAIN SELECT * FROM t WHERE PREDICT(m) = 'hi'",
                ];
                for i in 0..ROUNDS {
                    let sql = queries[(r + i) % queries.len()];
                    // Concurrent inserts legally change the row set;
                    // what must hold is that every read sees *some*
                    // consistent snapshot and never errors or hangs.
                    e.query(sql).expect(sql);
                }
            });
        }
        let e = &e;
        s.spawn(move || {
            for i in 0..ROUNDS {
                let row = vec![(i % 3) as u16, ((i / 3) % 3) as u16, (i % 2) as u16];
                e.insert_rows("t", vec![row]).expect("durable insert");
                if i % 5 == 4 {
                    e.checkpoint().expect("checkpoint under read load");
                }
            }
        });
    });

    // Every write landed, and recovery replays to the identical state.
    let total = e.catalog().table(0).table.n_rows();
    assert_eq!(total, before + ROUNDS);
    let healthy = e.query(QUERY).unwrap().rows;
    e.simulate_crash();
    let r = Engine::open(&dir).expect("reopen after crash");
    assert_eq!(r.catalog().table(0).table.n_rows(), total);
    assert_eq!(r.query(QUERY).unwrap().rows, healthy);
    std::fs::remove_dir_all(&dir).ok();
}
