//! SQL-surface integration: a corpus of queries is parsed, planned and
//! executed, and each result is verified against brute-force filtering.

use mpq_core::DeriveOptions;
use mpq_engine::{Catalog, Engine, Table};
use mpq_models::NaiveBayes;
use mpq_types::{AttrDomain, Attribute, ClassId, Dataset, LabeledDataset, Schema};
use std::sync::Arc;

fn build_engine() -> Engine {
    let schema = Schema::new(vec![
        Attribute::new("age", AttrDomain::binned(vec![30.0, 50.0, 70.0]).unwrap()),
        Attribute::new("city", AttrDomain::categorical(["oslo", "lima", "pune"])),
        Attribute::new("spend", AttrDomain::binned(vec![100.0, 500.0]).unwrap()),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema.clone());
    let mut labels = Vec::new();
    for i in 0..5000u32 {
        let age = (i % 4) as u16;
        let city = (i % 3) as u16;
        let spend = ((i / 3) % 3) as u16;
        ds.push_encoded(&[age, city, spend]).unwrap();
        // "premium" iff high spend and not the youngest bracket.
        labels.push(ClassId(u16::from(spend == 2 && age >= 1)));
    }
    let train =
        LabeledDataset::new(ds.clone(), labels, vec!["basic".into(), "premium".into()]).unwrap();
    let nb = NaiveBayes::train(&train).unwrap();
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("customers", &ds)).unwrap();
    cat.add_model("tier", Arc::new(nb), DeriveOptions::default()).unwrap();
    Engine::new(cat)
}

/// Brute-force evaluation of the same SQL semantics.
fn brute_force(engine: &Engine, pred: impl Fn(&[u16], &dyn Fn(&[u16]) -> ClassId) -> bool) -> Vec<u32> {
    let catalog = engine.catalog();
    let table = &catalog.table(0).table;
    let model = &catalog.model(0).model;
    let predict = |row: &[u16]| model.predict(row);
    (0..table.n_rows() as u32)
        .filter(|&r| pred(&table.row(r), &predict))
        .collect()
}

#[test]
fn column_only_queries_match_brute_force() {
    let e = build_engine();
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, Box<dyn Fn(&[u16], &dyn Fn(&[u16]) -> ClassId) -> bool>)> = vec![
        ("SELECT * FROM customers WHERE age <= 30", Box::new(|r, _| r[0] == 0)),
        ("SELECT * FROM customers WHERE age > 50", Box::new(|r, _| r[0] >= 2)),
        ("SELECT * FROM customers WHERE city = 'lima'", Box::new(|r, _| r[1] == 1)),
        (
            "SELECT * FROM customers WHERE city IN ('oslo', 'pune') AND spend > 500",
            Box::new(|r, _| (r[1] == 0 || r[1] == 2) && r[2] == 2),
        ),
        (
            "SELECT * FROM customers WHERE NOT (age BETWEEN 30 AND 50) OR spend <= 100",
            Box::new(|r, _| r[0] != 1 && r[0] != 0 || r[2] == 0),
        ),
        (
            "SELECT * FROM customers WHERE age <> 30 AND city <> 'pune'",
            Box::new(|r, _| r[0] != 0 && r[1] != 2),
        ),
    ];
    for (sql, pred) in cases {
        let out = e.query(sql).expect(sql);
        assert_eq!(out.rows, brute_force(&e, pred), "mismatch for {sql}");
    }
}

#[test]
fn mining_queries_match_brute_force() {
    let e = build_engine();
    let out = e.query("SELECT * FROM customers WHERE PREDICT(tier) = 'premium'").unwrap();
    let expected = brute_force(&e, |r, predict| predict(r) == ClassId(1));
    assert_eq!(out.rows, expected);

    let out = e
        .query("SELECT * FROM customers WHERE PREDICT(tier) = 'premium' AND city = 'oslo'")
        .unwrap();
    let expected = brute_force(&e, |r, predict| predict(r) == ClassId(1) && r[1] == 0);
    assert_eq!(out.rows, expected);

    let out = e
        .query("SELECT COUNT(*) FROM customers WHERE PREDICT(tier) IN ('basic') OR spend > 500")
        .unwrap();
    let expected = brute_force(&e, |r, predict| predict(r) == ClassId(0) || r[2] == 2);
    assert_eq!(out.metrics.output_rows as usize, expected.len());
}

#[test]
fn between_boundary_semantics() {
    // BETWEEN's low end snaps inclusively into the bin containing the
    // constant; exact cut points keep envelope round-trips lossless.
    let e = build_engine();
    let a = e.query("SELECT COUNT(*) FROM customers WHERE age BETWEEN 30 AND 70").unwrap();
    let b = e.query("SELECT COUNT(*) FROM customers WHERE age <= 70").unwrap();
    // (member 0 contains values <= 30, so the inclusive-low snap makes
    // these identical in member space.)
    assert_eq!(a.metrics.output_rows, b.metrics.output_rows);
}

#[test]
fn residual_orders_model_invocations_last() {
    // Predicate migration: the mining predicate must be evaluated only
    // on rows surviving the cheap predicates, regardless of the order
    // the query wrote them in.
    let e = build_engine();
    let a = e
        .query("SELECT * FROM customers WHERE PREDICT(tier) = 'premium' AND city = 'oslo'")
        .unwrap();
    let b = e
        .query("SELECT * FROM customers WHERE city = 'oslo' AND PREDICT(tier) = 'premium'")
        .unwrap();
    assert_eq!(a.rows, b.rows);
    // city = 'oslo' holds on 1/3 of rows (plus envelope pruning): the
    // model must be invoked on at most that many.
    let third = e.catalog().table(0).table.n_rows() as u64 / 3;
    assert!(
        a.metrics.model_invocations <= third && b.metrics.model_invocations <= third,
        "invocations {} / {} exceed the cheap-predicate bound {third}",
        a.metrics.model_invocations,
        b.metrics.model_invocations
    );
}

#[test]
fn create_mining_model_via_sql() {
    // §2.2's flow, end to end in SQL: the label column lives in the
    // table; CREATE MINING MODEL trains on it; the model is immediately
    // queryable with PREDICT (the label column is ignored at prediction).
    let schema = Schema::new(vec![
        Attribute::new("x", AttrDomain::binned(vec![5.0]).unwrap()),
        Attribute::new("f", AttrDomain::categorical(["a", "b"])),
        Attribute::new("outcome", AttrDomain::categorical(["lo", "hi"])),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for i in 0..400u16 {
        let x = i % 2;
        let f = (i / 2) % 2;
        let y = u16::from(x == 1 && f == 1);
        ds.push_encoded(&[x, f, y]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("t", &ds)).unwrap();
    let e = Engine::new(cat);

    let out = e
        .execute_sql("CREATE MINING MODEL risk ON t PREDICT outcome USING decision_tree")
        .unwrap();
    let mpq_engine::StatementOutcome::ModelCreated { name, n_classes, .. } = out else {
        panic!("expected ModelCreated")
    };
    assert_eq!(name, "risk");
    assert_eq!(n_classes, 2);

    // The model predicts; the envelope prunes; results are exact (the
    // concept is deterministic, so PREDICT agrees with the stored label).
    let q = e.query("SELECT * FROM t WHERE PREDICT(risk) = 'hi'").unwrap();
    let stored = e.query("SELECT * FROM t WHERE outcome = 'hi'").unwrap();
    assert_eq!(q.rows, stored.rows);

    // Clustering DDL: k-prototypes handles the mixed schema.
    let out = e.execute_sql("CREATE MINING MODEL seg ON t WITH 3 CLUSTERS USING kmeans").unwrap();
    let mpq_engine::StatementOutcome::ModelCreated { n_classes, .. } = out else {
        panic!("expected ModelCreated")
    };
    assert_eq!(n_classes, 3);
    let q = e.query("SELECT COUNT(*) FROM t WHERE PREDICT(seg) = 'cluster_0'").unwrap();
    assert!(q.metrics.output_rows > 0);
}

/// A model trained by `CREATE MINING MODEL` whose two classes score the
/// same real number at cell `(a0 = v0, a1 = v1)`: priors 7/14 each, and
/// conditionals `0.1 · 0.4` for `c0` against `0.2 · 0.2` for `c1`. The
/// scorer's two rounded log sums give the cell to `c1`. A bound that
/// rounds the difference otherwise once proved the cell `c0`'s, and the
/// exact envelopes then compiled the model away: `c0`'s query returned
/// the row and `c1`'s lost it. The training rows come from a seeded
/// search over small trained models.
#[test]
fn trained_naive_bayes_near_tie_matches_brute_force() {
    let members = || AttrDomain::categorical(["v0", "v1", "v2", "v3"]);
    let schema = Schema::new(vec![
        Attribute::new("a0", members()),
        Attribute::new("a1", members()),
        Attribute::new("label", AttrDomain::categorical(["c0", "c1"])),
    ])
    .unwrap();
    const TRAIN: [[u16; 3]; 12] = [
        [1, 0, 1],
        [1, 1, 1],
        [0, 3, 1],
        [1, 3, 0],
        [2, 1, 0],
        [3, 0, 0],
        [1, 2, 1],
        [2, 2, 0],
        [2, 1, 0],
        [1, 0, 1],
        [3, 1, 0],
        [2, 2, 1],
    ];
    let mut ds = Dataset::new(schema);
    for row in TRAIN {
        ds.push_encoded(&row).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("t", &ds)).unwrap();
    let e = Engine::new(cat);
    e.execute_sql("CREATE MINING MODEL m ON t PREDICT label USING naive_bayes").unwrap();
    // Then every cell of the feature grid once.
    let grid = (0..4).flat_map(|a0| (0..4).map(move |a1| vec![a0, a1, 0])).collect();
    e.insert_rows("t", grid).unwrap();
    for (k, class) in ["c0", "c1"].into_iter().enumerate() {
        let out = e.query(&format!("SELECT * FROM t WHERE PREDICT(m) = '{class}'")).unwrap();
        let expected = brute_force(&e, |r, predict| predict(r) == ClassId(k as u16));
        assert_eq!(out.rows, expected, "PREDICT(m) = '{class}'");
    }
}

#[test]
fn ddl_parse_errors_are_specific() {
    let e = build_engine();
    assert!(e.execute_sql("CREATE MINING MODEL m ON ghost PREDICT x USING tree").is_err());
    assert!(e
        .execute_sql("CREATE MINING MODEL m ON customers PREDICT ghost USING tree")
        .is_err());
    assert!(e
        .execute_sql("CREATE MINING MODEL m ON customers PREDICT city USING kmeans")
        .is_err(), "clustering must not take PREDICT");
    assert!(e
        .execute_sql("CREATE MINING MODEL m ON customers WITH 3 CLUSTERS USING tree")
        .is_err(), "classification must not take CLUSTERS");
    // Numeric label columns are rejected.
    assert!(e
        .execute_sql("CREATE MINING MODEL m ON customers PREDICT age USING bayes")
        .is_err());
}

#[test]
fn explain_never_executes() {
    let e = build_engine();
    let out = e.query("EXPLAIN SELECT * FROM customers WHERE PREDICT(tier) = 'premium'").unwrap();
    assert_eq!(out.metrics.rows_examined, 0);
    assert!(out.plan.contains("customers"));
}
