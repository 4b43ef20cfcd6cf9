//! End-to-end integration: the full §5 pipeline on real (synthetic)
//! datasets — generate, train, derive, tune, optimize, execute — with
//! the optimized path checked row-for-row against the black-box
//! baseline, across all model families and all §4.1 predicate shapes.

use mining_predicates::prelude::*;
use mpq_bench::{run_dataset_experiment, ModelKind, Scale};
use mpq_datagen::{generate_test, generate_train, table2};
use std::sync::Arc;

/// Builds an engine over a dataset with both a tree and an NB model.
fn engine_for(dataset: &str, scale: f64) -> (Engine, usize) {
    let spec = table2().into_iter().find(|s| s.name == dataset).expect("known dataset");
    let train = generate_train(&spec, 7);
    let test = generate_test(&spec, 7, scale);
    let n_rows = test.len();
    let tree = DecisionTree::train(&train, mpq_models::TreeParams::default()).expect("data");
    let nb = NaiveBayes::train(&train).expect("data");
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("t", &test)).expect("fresh");
    cat.add_model("tree", Arc::new(tree), DeriveOptions::default()).expect("fresh");
    cat.add_model("nb", Arc::new(nb), DeriveOptions::default()).expect("fresh");
    (Engine::new(cat), n_rows)
}

/// Runs `sql` optimized and baseline; asserts identical rows; returns
/// the optimized outcome.
fn check(engine: &mut Engine, sql: &str) -> mpq_engine::QueryOutcome {
    let optimized = engine.query(sql).expect("valid SQL");
    engine.set_use_envelopes(false);
    let baseline = engine.query(sql).expect("valid SQL");
    engine.set_use_envelopes(true);
    assert_eq!(optimized.rows, baseline.rows, "result mismatch for {sql}");
    optimized
}

#[test]
fn all_predicate_shapes_agree_with_baseline() {
    let (mut engine, _) = engine_for("Diabetes", 0.002);
    let queries = [
        "SELECT * FROM t WHERE PREDICT(tree) = 'k0'",
        "SELECT * FROM t WHERE PREDICT(nb) = 'k1'",
        "SELECT * FROM t WHERE PREDICT(nb) IN ('k0', 'k1')",
        "SELECT * FROM t WHERE PREDICT(tree) = PREDICT(nb)",
        "SELECT * FROM t WHERE PREDICT(nb) <> 'k0'",
        "SELECT * FROM t WHERE PREDICT(nb) = 'k1' AND x0 <= 3",
        "SELECT * FROM t WHERE PREDICT(tree) = 'k1' OR x1 > 6",
        "SELECT * FROM t WHERE NOT (PREDICT(nb) = 'k0' AND x2 BETWEEN 2 AND 5)",
    ];
    for sql in queries {
        check(&mut engine, sql);
    }
}

/// `PREDICT(m1) = PREDICT(m2)` compares the predicted *labels*: two
/// naive Bayes models of Diabetes, the second trained with its labels
/// stored in reverse order (every label under the other id), agree on
/// the rows where their predictions name the same label — nearly all of
/// them — with envelopes on and off, through the batch cascade and the
/// row walk alike.
#[test]
fn models_agree_compares_labels_not_class_ids() {
    let spec = table2().into_iter().find(|s| s.name == "Diabetes").expect("known dataset");
    let train = generate_train(&spec, 7);
    let top = train.n_classes() as u16 - 1;
    let reversed = LabeledDataset::new(
        train.data.clone(),
        train.labels.iter().map(|c| ClassId(top - c.0)).collect(),
        train.class_names.iter().rev().cloned().collect(),
    )
    .expect("aligned labels");
    let nb = Arc::new(NaiveBayes::train(&train).expect("data"));
    let nb2 = Arc::new(NaiveBayes::train(&reversed).expect("data"));
    assert_eq!(nb2.class_name(ClassId(0)), nb.class_name(ClassId(top)), "ids permuted");
    let test = generate_test(&spec, 7, 0.003);
    let rows: Vec<Vec<u16>> = test.rows().take(4_096).map(<[u16]>::to_vec).collect();
    assert_eq!(rows.len(), 4_096);
    let agree: Vec<u32> = (0..rows.len() as u32)
        .filter(|&r| {
            let row = &rows[r as usize];
            nb.class_name(nb.predict(row)) == nb2.class_name(nb2.predict(row))
        })
        .collect();
    assert!(agree.len() > 4_000, "the two models are one model: {}", agree.len());

    let mut cat = Catalog::new();
    let table = Dataset::from_rows(test.schema().clone(), rows).expect("rows");
    cat.add_table(Table::from_dataset("t", &table)).expect("fresh");
    cat.add_model("nb", nb, DeriveOptions::default()).expect("fresh");
    cat.add_model("nb2", nb2, DeriveOptions::default()).expect("fresh");
    let engine = Engine::new(cat);
    // Compilation off leaves the models uncascaded: the row walk decides.
    for (envelopes, compile) in [(true, true), (false, true), (true, false), (false, false)] {
        engine.set_use_envelopes(envelopes);
        engine.set_compile_models(compile);
        let out = engine.query("SELECT * FROM t WHERE PREDICT(nb) = PREDICT(nb2)").expect("valid");
        assert_eq!(out.rows, agree, "envelopes {envelopes}, compile {compile}");
    }
}

#[test]
fn mixed_schema_dataset_works_end_to_end() {
    let (mut engine, n_rows) = engine_for("Anneal-U", 0.002);
    let out = check(&mut engine, "SELECT COUNT(*) FROM t WHERE PREDICT(tree) IN ('k0', 'k2')");
    assert!(out.metrics.output_rows > 0);
    assert!((out.metrics.output_rows as usize) < n_rows);
    // Categorical + binned predicates together.
    check(&mut engine, "SELECT * FROM t WHERE PREDICT(nb) = 'k3' AND c0 = 'v1' AND x4 > 2");
}

#[test]
fn experiment_pipeline_produces_consistent_rows() {
    let spec = table2().into_iter().find(|s| s.name == "Shuttle").expect("known");
    for kind in [ModelKind::Tree, ModelKind::NaiveBayes, ModelKind::Clustering] {
        let (setup, rows) =
            run_dataset_experiment(&spec, kind, Scale(0.002), 7, &DeriveOptions::default());
        assert_eq!(rows.len(), setup.n_classes);
        let sel_sum: f64 = rows.iter().map(|r| r.orig_selectivity).sum();
        assert!((sel_sum - 1.0).abs() < 1e-9, "{kind:?} selectivities sum to {sel_sum}");
        for r in &rows {
            assert!(r.env_selectivity >= r.orig_selectivity - 1e-12, "{kind:?} soundness");
            assert!(r.env_time.as_nanos() > 0);
        }
        // Skewed Shuttle: exact tree envelopes must benefit at least one
        // class (NB/clustering envelopes are approximate and their plan
        // changes depend on table scale, so only trees are asserted).
        if kind == ModelKind::Tree {
            assert!(
                rows.iter().any(|r| r.plan_changed),
                "{kind:?}: no plan changed on a 7-class skewed dataset"
            );
        }
    }
}

#[test]
fn never_predicted_class_is_answered_without_data_access() {
    // Train a model where one registered class label never wins, then
    // query it: the §4.2 machinery should produce a constant scan.
    let schema = Schema::new(vec![Attribute::new(
        "x",
        AttrDomain::categorical(["a", "b"]),
    )])
    .expect("valid");
    let nb = NaiveBayes::from_probabilities(
        schema.clone(),
        vec!["always".into(), "never".into()],
        &[0.95, 0.05],
        &[vec![vec![0.6, 0.5], vec![0.4, 0.5]]],
    )
    .expect("valid parameters");
    let ds = Dataset::from_rows(schema, (0..1000).map(|i| vec![(i % 2) as u16])).expect("rows");
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("t", &ds)).expect("fresh");
    cat.add_model("m", Arc::new(nb), DeriveOptions::default()).expect("fresh");
    let engine = Engine::new(cat);
    let out = engine.query("SELECT * FROM t WHERE PREDICT(m) = 'never'").expect("valid");
    assert_eq!(out.metrics.output_rows, 0);
    assert_eq!(out.metrics.total_pages(), 0, "constant scan expected: {}", out.plan);
    assert_eq!(out.metrics.model_invocations, 0);
    assert!(out.plan_changed);
}

#[test]
fn retraining_invalidates_plans_but_keeps_correctness() {
    let (engine, _) = engine_for("Diabetes", 0.001);
    let sql = "SELECT * FROM t WHERE PREDICT(nb) = 'k1'";
    let before = engine.query(sql).expect("valid");
    // Retrain NB on a different seed: predictions (and envelopes) shift.
    let spec = table2().into_iter().find(|s| s.name == "Diabetes").expect("known");
    let train2 = generate_train(&spec, 99);
    let nb2 = NaiveBayes::train(&train2).expect("data");
    engine.retrain_model(1, Arc::new(nb2)).expect("model exists");
    let after = engine.query(sql).expect("valid");
    assert!(!after.cached_plan, "retraining must invalidate the cached plan");
    // And the new results still agree with the black-box baseline.
    engine.set_use_envelopes(false);
    let baseline = engine.query(sql).expect("valid");
    assert_eq!(after.rows, baseline.rows);
    let _ = before;
}

#[test]
fn parity_is_the_designed_worst_case() {
    // Parity is not axis-separable, so no model predicts it well and —
    // crucially for the paper's framework — both classes keep ~50%
    // selectivity, above the indexing crossover: envelopes (exact or
    // not) cannot change any plan. This mirrors the paper's Figures 3–5,
    // where Parity5+5 shows the lowest plan-change rates.
    let spec = table2().into_iter().find(|s| s.name == "Parity5+5").expect("known");
    let train = generate_train(&spec, 7);
    let tree = DecisionTree::train(&train, mpq_models::TreeParams::default()).expect("data");
    // The exact tree envelope of the majority class covers ~half the
    // grid: correct but useless for access paths.
    let (_, rows) = run_dataset_experiment(
        &spec,
        ModelKind::Tree,
        Scale(0.002),
        7,
        &DeriveOptions::default(),
    );
    for r in &rows {
        assert!(
            !r.plan_changed || r.orig_selectivity < 0.05,
            "no index plan should pay off at ~50% selectivity (class {} sel {})",
            r.class,
            r.orig_selectivity
        );
    }
    let _ = tree;
}
