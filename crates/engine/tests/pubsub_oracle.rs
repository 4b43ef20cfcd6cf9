//! Differential oracle for standing subscriptions (predicate pub/sub).
//!
//! The invariant under test: the notifications delivered through the
//! engine's notify sink are **exactly** what you would get by re-running
//! every registered query from scratch after each insert and keeping
//! the newly-inserted matches. Because subscription matching evaluates
//! the same rewritten per-row predicate a SELECT does (the inverted
//! envelope index is only a necessary-condition pruner), the expected
//! set can be computed after the fact: a row's verdict under a fixed
//! model catalog never changes, so `matches(q) ∩ rows-inserted-while-q-
//! was-live` is the ground truth regardless of when it is evaluated.
//!
//! Covered here, per the acceptance criteria:
//! * random insert / subscribe / unsubscribe interleavings (proptest)
//!   against the from-scratch re-scan and against the truth — each
//!   inserted row evaluated on the unrewritten predicate with every
//!   model's own `predict` — across all five model algorithms and
//!   session parallelism 1/2/4/8;
//! * crash recovery mid-sequence: durable subscriptions survive a
//!   simulated crash and keep matching identically afterwards;
//! * degraded mode: with the `sub_index_corrupt` fault armed the index
//!   is distrusted and every subscription fully evaluated — delivery
//!   must be oracle-identical, and health must carry the typed note.

use mpq_engine::{Engine, MatchEvent, SessionState, StatementOutcome, Table};
use mpq_types::{AttrDomain, Attribute, Dataset, Schema};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "mpq-pubsub-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Table `t` (index 0): a binned measure, a categorical flag, and the
/// label the classifiers train on. The label pattern (`hi` iff large x
/// on flag `b`) is learnable, so the trees/rules come out non-trivial.
fn seed_table_t() -> Table {
    let schema = Schema::new(vec![
        Attribute::new("x", AttrDomain::binned(vec![2.0, 4.0]).unwrap()),
        Attribute::new("f", AttrDomain::categorical(["a", "b"])),
        Attribute::new("label", AttrDomain::categorical(["lo", "hi"])),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for i in 0..120u16 {
        let x = i % 3;
        let f = (i / 3) % 2;
        let y = u16::from(x == 2 && f == 1);
        ds.push_encoded(&[x, f, y]).unwrap();
    }
    Table::from_dataset("t", &ds)
}

/// Table `u` (index 1): all-ordered, as the clustering trainers
/// require — the k-means/GMM subscriptions live here, which also
/// exercises per-table routing in the inverted index.
fn seed_table_u() -> Table {
    let schema = Schema::new(vec![
        Attribute::new("a", AttrDomain::binned(vec![2.0, 4.0]).unwrap()),
        Attribute::new("b", AttrDomain::binned(vec![3.0]).unwrap()),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for i in 0..120u16 {
        ds.push_encoded(&[i % 3, (i / 3) % 2]).unwrap();
    }
    Table::from_dataset("u", &ds)
}

/// One model per algorithm the engine supports.
const MODELS: &[&str] = &[
    "CREATE MINING MODEL dt ON t PREDICT label USING decision_tree",
    "CREATE MINING MODEL nb ON t PREDICT label USING naive_bayes",
    "CREATE MINING MODEL ru ON t PREDICT label USING rules",
    "CREATE MINING MODEL km ON u WITH 2 CLUSTERS USING kmeans",
    "CREATE MINING MODEL gm ON u WITH 2 CLUSTERS USING gmm",
];

/// The pool interleavings subscribe from, paired with the table index
/// each query scans: every algorithm appears, plus plain column
/// predicates, a conjunction, and the match-everything subscription.
const QUERIES: &[(&str, usize)] = &[
    ("SELECT * FROM t WHERE PREDICT(dt) = 'hi'", 0),
    ("SELECT * FROM t WHERE PREDICT(nb) = 'lo'", 0),
    ("SELECT * FROM t WHERE PREDICT(ru) = 'hi'", 0),
    ("SELECT * FROM u WHERE PREDICT(km) = 'cluster_0'", 1),
    ("SELECT * FROM u WHERE PREDICT(gm) = 'cluster_1'", 1),
    ("SELECT * FROM t WHERE x > 4", 0),
    ("SELECT * FROM t WHERE PREDICT(dt) = 'hi' AND f = 'a'", 0),
    ("SELECT * FROM t", 0),
];

fn build_engine(dir: Option<&PathBuf>) -> Engine {
    let e = match dir {
        Some(d) => {
            let e = Engine::open(d).unwrap();
            e.create_table(seed_table_t()).unwrap();
            e.create_table(seed_table_u()).unwrap();
            e
        }
        None => {
            let mut cat = mpq_engine::Catalog::new();
            cat.add_table(seed_table_t()).unwrap();
            cat.add_table(seed_table_u()).unwrap();
            Engine::new(cat)
        }
    };
    for sql in MODELS {
        e.execute_sql(sql).unwrap();
    }
    e
}

/// Hooks the notify sink up to a shared log of (subscription, row_id).
fn install_sink(e: &Engine) -> Arc<Mutex<Vec<(u64, u32)>>> {
    let log: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let c = Arc::clone(&log);
    e.set_notify_sink(Some(Arc::new(move |ev: MatchEvent| {
        c.lock().unwrap().push((ev.subscription, ev.row_id));
    })));
    log
}

/// Raw-value INSERT into table `tbl % 2`, members shaped by the choice
/// bytes: `t` gets (a%3, b%2, c%2), `u` gets (a%3, b%2).
fn insert_sql(tbl: u8, a: u8, b: u8, c: u8) -> String {
    if tbl.is_multiple_of(2) {
        let x = [1, 3, 5][(a % 3) as usize];
        let f = ["a", "b"][(b % 2) as usize];
        let label = ["lo", "hi"][(c % 2) as usize];
        format!("INSERT INTO t VALUES ({x}, '{f}', '{label}')")
    } else {
        let av = [1, 3, 5][(a % 3) as usize];
        let bv = [2, 4][(b % 2) as usize];
        format!("INSERT INTO u VALUES ({av}, {bv})")
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert one row into table `tbl % 2`, shaped by the choice bytes.
    Insert(u8, u8, u8, u8),
    /// Subscribe to `QUERIES[q % len]`.
    Subscribe(u8),
    /// Unsubscribe the `k % live`-th live subscription (no-op when none
    /// are live).
    Unsubscribe(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Insert twice to bias the interleavings toward matching work (the
    // vendored proptest's `prop_oneof` is unweighted).
    let ins = || {
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(t, a, b, c)| Op::Insert(t, a, b, c))
    };
    prop_oneof![
        ins(),
        ins(),
        any::<u8>().prop_map(Op::Subscribe),
        any::<u8>().prop_map(Op::Unsubscribe),
    ]
}

/// Runs one interleaving at the given parallelism and checks delivered
/// notifications against the from-scratch oracle. Returns the engine so
/// callers can make further assertions.
fn run_scenario(e: &Engine, ops: &[Op], dop: usize) {
    let log = install_sink(e);
    let mut session = SessionState::new();
    e.execute_sql_in(&format!("SET PARALLELISM {dop}"), &mut session).unwrap();

    // Live subscriptions and, per insert, (table, new-row range, live
    // ids at that moment).
    let mut live: Vec<(u64, usize)> = Vec::new();
    let mut subscribed_query: Vec<(u64, usize)> = Vec::new();
    let mut inserts: Vec<(usize, std::ops::Range<u32>, Vec<u64>)> = Vec::new();

    for op in ops {
        match op {
            Op::Insert(tbl, a, b, c) => {
                let ti = (*tbl % 2) as usize;
                let first = e.catalog().table(ti).table.n_rows() as u32;
                let out =
                    e.execute_sql_in(&insert_sql(*tbl, *a, *b, *c), &mut session).unwrap();
                let StatementOutcome::Inserted { rows_inserted, .. } = out else {
                    panic!("INSERT produced {out:?}");
                };
                let range = first..first + rows_inserted as u32;
                inserts.push((ti, range, live.iter().map(|(id, _)| *id).collect()));
            }
            Op::Subscribe(q) => {
                let qi = (*q as usize) % QUERIES.len();
                let out = e
                    .execute_sql_in(&format!("SUBSCRIBE {}", QUERIES[qi].0), &mut session)
                    .unwrap();
                let StatementOutcome::Subscribed { id } = out else {
                    panic!("SUBSCRIBE produced {out:?}");
                };
                live.push((id, qi));
                subscribed_query.push((id, qi));
            }
            Op::Unsubscribe(k) => {
                if live.is_empty() {
                    continue;
                }
                let (id, _) = live.remove((*k as usize) % live.len());
                let out = e
                    .execute_sql_in(&format!("UNSUBSCRIBE {id}"), &mut session)
                    .unwrap();
                assert_eq!(out, StatementOutcome::Unsubscribed { id });
            }
        }
    }

    // The from-scratch oracle: each subscription's query, re-run now.
    // Per-row verdicts are stable under a fixed model catalog, so the
    // final result restricted to an insert's row range equals what the
    // query would have returned for those rows at insert time.
    let mut expected: Vec<(u64, u32)> = Vec::new();
    for (id, qi) in &subscribed_query {
        let (sql, sub_table) = QUERIES[*qi];
        let matched = match e.execute_sql_in(sql, &mut session).unwrap() {
            StatementOutcome::Query(q) => q.rows,
            other => panic!("SELECT produced {other:?}"),
        };
        for (ti, range, live_then) in &inserts {
            if *ti == sub_table && live_then.contains(id) {
                expected
                    .extend(matched.iter().filter(|r| range.contains(r)).map(|r| (*id, *r)));
            }
        }
    }

    // The truth leg: each inserted row against the unrewritten
    // predicate, every model asked through its own `predict`. The
    // re-scan shares the rewrite, the envelopes, the box kernel and the
    // cascades with the matcher; this shares none of them.
    let mut truth: Vec<(u64, u32)> = Vec::new();
    let catalog = e.catalog();
    for (id, qi) in &subscribed_query {
        let (sql, sub_table) = QUERIES[*qi];
        let predicate = mpq_engine::parse(sql, &catalog).unwrap().predicate;
        let t = &catalog.table(sub_table).table;
        for (ti, range, live_then) in &inserts {
            if *ti == sub_table && live_then.contains(id) {
                let hits = range.clone().filter(|&r| predicate.eval(&t.row(r), &*catalog, &mut 0));
                truth.extend(hits.map(|r| (*id, r)));
            }
        }
    }

    let mut delivered = log.lock().unwrap().clone();
    delivered.sort_unstable();
    expected.sort_unstable();
    truth.sort_unstable();
    assert_eq!(
        delivered, expected,
        "delivered notifications diverge from the from-scratch re-scan (dop {dop})"
    );
    assert_eq!(delivered, truth, "delivered notifications diverge from the models (dop {dop})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings, in memory, across all four parallelism
    /// levels — the sink must deliver exactly the from-scratch set.
    #[test]
    fn notifications_equal_from_scratch_rescan(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        dop_pick in 0usize..4,
    ) {
        let dop = [1, 2, 4, 8][dop_pick];
        let e = build_engine(None);
        run_scenario(&e, &ops, dop);
    }

    /// The same interleavings with the inverted index distrusted: the
    /// naive full-evaluation fallback must be oracle-identical, and the
    /// engine must say so in its health note.
    #[test]
    fn degraded_index_mode_is_oracle_identical(
        ops in proptest::collection::vec(op_strategy(), 1..16),
        dop_pick in 0usize..4,
    ) {
        let dop = [1, 2, 4, 8][dop_pick];
        let e = build_engine(None);
        e.fault_injector().set_sub_index_corrupt(true);
        run_scenario(&e, &ops, dop);
        // Force one matched insert so degraded matching definitely ran
        // (the random ops may never have inserted under a live sub),
        // then require the typed health note.
        let mut s = SessionState::new();
        e.execute_sql_in("SUBSCRIBE SELECT * FROM t", &mut s).unwrap();
        e.execute_sql_in(&insert_sql(0, 0, 0, 0), &mut s).unwrap();
        let note = e.health().sub_index_note;
        prop_assert!(
            note.as_deref().is_some_and(|n| n.contains("distrusted")),
            "degraded matching must surface a typed health note, got {note:?}"
        );
    }
}

/// Crash mid-sequence: the subscription catalog is WAL-durable, so a
/// recovered engine keeps matching for subscriptions registered before
/// the crash — and stays silent for ones unsubscribed before it.
#[test]
fn subscriptions_survive_crash_recovery_mid_sequence() {
    let dir = temp_dir("crash");
    let e = build_engine(Some(&dir));
    let mut session = SessionState::new();

    let sub_keep = match e
        .execute_sql_in(&format!("SUBSCRIBE {}", QUERIES[5].0), &mut session)
        .unwrap()
    {
        StatementOutcome::Subscribed { id } => id,
        other => panic!("{other:?}"),
    };
    let sub_gone = match e
        .execute_sql_in("SUBSCRIBE SELECT * FROM t", &mut session)
        .unwrap()
    {
        StatementOutcome::Subscribed { id } => id,
        other => panic!("{other:?}"),
    };
    e.execute_sql_in(&format!("UNSUBSCRIBE {sub_gone}"), &mut session).unwrap();

    // One insert before the crash, sink attached: x=5 matches `x > 4`.
    let log_before = install_sink(&e);
    e.execute_sql_in(&insert_sql(0, 2, 0, 0), &mut session).unwrap();
    assert_eq!(log_before.lock().unwrap().len(), 1);
    e.simulate_crash();

    // Recovery: the catalog still knows exactly one subscription...
    let e = Engine::open(&dir).unwrap();
    assert_eq!(e.health().subscriptions, 1, "durable subscription survives the crash");
    let log = install_sink(&e);
    let mut session = SessionState::new();

    // ...and it keeps matching. x=5 rows match, x=1 rows do not, and
    // the unsubscribed id never fires again.
    let first = e.catalog().table(0).table.n_rows() as u32;
    e.execute_sql_in(&insert_sql(0, 2, 1, 1), &mut session).unwrap();
    e.execute_sql_in(&insert_sql(0, 0, 0, 0), &mut session).unwrap();
    let delivered = log.lock().unwrap().clone();
    assert_eq!(delivered, vec![(sub_keep, first)]);
}

/// The `Inserted` outcome's subscription counters are deterministic
/// across session parallelism: identical engines, identical inserts,
/// any dop — identical `subs_matched` / `subs_index_pruned`.
#[test]
fn subscription_counters_deterministic_across_parallelism() {
    let mut baseline: Option<(u64, u64)> = None;
    for dop in [1usize, 2, 4, 8] {
        let e = build_engine(None);
        let mut session = SessionState::new();
        e.execute_sql_in(&format!("SET PARALLELISM {dop}"), &mut session).unwrap();
        for (q, _) in QUERIES {
            e.execute_sql_in(&format!("SUBSCRIBE {q}"), &mut session).unwrap();
        }
        let out = e
            .execute_sql_in("INSERT INTO t VALUES (5, 'b', 'hi'), (1, 'a', 'lo')", &mut session)
            .unwrap();
        let StatementOutcome::Inserted { subs_matched, subs_index_pruned, .. } = out else {
            panic!("{out:?}");
        };
        assert!(subs_matched > 0, "the catch-all subscription matches every insert");
        match baseline {
            None => baseline = Some((subs_matched, subs_index_pruned)),
            Some(b) => assert_eq!(
                (subs_matched, subs_index_pruned),
                b,
                "counters must not depend on parallelism (dop {dop})"
            ),
        }
    }
}

/// The overflow-pulse fault lives server-side (it drops one queued
/// notification); at the engine boundary it must leave matching and
/// delivery untouched — the sink sees every match regardless.
#[test]
fn engine_delivery_ignores_notify_overflow_pulse() {
    let e = build_engine(None);
    e.fault_injector().set_notify_overflow_pulse(true);
    let log = install_sink(&e);
    let mut session = SessionState::new();
    e.execute_sql_in("SUBSCRIBE SELECT * FROM t", &mut session).unwrap();
    e.execute_sql_in(&insert_sql(0, 0, 0, 0), &mut session).unwrap();
    assert_eq!(log.lock().unwrap().len(), 1, "the pulse is consumed downstream, not here");
    assert!(e.fault_injector().notify_overflow_pulse_armed(), "engine must not consume it");
}
