//! Cascade soundness oracle: the tabulated proxy score for the additive
//! models (naive Bayes, k-means, GMM) must agree with the real scorer on
//! every row — exact score ties included, which the proxy breaks by the
//! model's own rule — so a cascaded mining predicate never reaches the
//! scorer. Execution through the cascade must be row-identical to the
//! cascade-free reference at every degree of parallelism.

use mining_predicates::prelude::*;
use mpq_engine::{
    execute_opts, Atom, AtomPred, ExecOptions, ModelOracle, StatementOutcome, ASSUMED_COLUMN_BYTES,
};
use mpq_core::ProxyScore;
use proptest::prelude::*;

const DOPS: [usize; 4] = [1, 2, 4, 8];

fn reference_opts() -> ExecOptions {
    ExecOptions { parallelism: 1, vectorized: false, ..ExecOptions::default() }
}

/// Two categorical feature columns plus a label for the Bayes model.
fn schema() -> Schema {
    Schema::new(vec![
        Attribute::new("a", AttrDomain::categorical(["a0", "a1", "a2", "a3"])),
        Attribute::new("b", AttrDomain::categorical(["b0", "b1", "b2"])),
        Attribute::new("label", AttrDomain::categorical(["neg", "pos"])),
    ])
    .unwrap()
}

/// All-ordered companion schema for the Gaussian-mixture model.
fn numeric_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("x", AttrDomain::binned(vec![1.0, 2.0, 3.0]).unwrap()),
        Attribute::new("y", AttrDomain::binned(vec![1.0, 2.0]).unwrap()),
    ])
    .unwrap()
}

/// Trains one model per additive-score algorithm over the generated
/// rows: naive Bayes (model 0) and k-means (model 1) on `t`, a Gaussian
/// mixture (model 2) on `tn`. Returns the engine; every model carries a
/// stored proxy table built at registration.
fn engine_with_models(extra: &[(u16, u16)]) -> Engine {
    let mut ds = Dataset::new(schema());
    let mut dsn = Dataset::new(numeric_schema());
    for a in 0..4u16 {
        for b in 0..3u16 {
            for label in 0..2u16 {
                ds.push_encoded(&[a, b, label]).unwrap();
            }
            dsn.push_encoded(&[a, b]).unwrap();
        }
    }
    for &(a, b) in extra {
        let label = u16::from(a >= 2 && b != 1);
        ds.push_encoded(&[a, b, label]).unwrap();
        dsn.push_encoded(&[a, b]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::with_page_bytes("t", &ds, 256)).unwrap();
    cat.add_table(Table::with_page_bytes("tn", &dsn, 256)).unwrap();
    let e = Engine::new(cat);
    for ddl in [
        "CREATE MINING MODEL m_bayes ON t PREDICT label USING bayes",
        "CREATE MINING MODEL m_km ON t WITH 2 CLUSTERS USING kmeans",
        "CREATE MINING MODEL m_gmm ON tn WITH 2 CLUSTERS USING gmm",
    ] {
        let out = e.execute_sql(ddl).expect(ddl);
        assert!(matches!(out, StatementOutcome::ModelCreated { .. }), "{ddl}");
    }
    e
}

/// (model id, table id) pairs for the three cascaded models.
const MODELS: [(usize, usize); 3] = [(0, 0), (1, 0), (2, 1)];

/// Two Bayes models over the *same* class vocabulary for the agreement
/// predicate: `label` and `label2` encode different concepts, so the
/// models learn different surfaces and `MODELS AGREE` has a non-trivial
/// answer. Each model sees the other's label column as an ordinary
/// feature — the projected-model proxy lift must neutralize its own.
fn engine_with_agreeing_models(extra: &[(u16, u16)]) -> Engine {
    let schema = Schema::new(vec![
        Attribute::new("a", AttrDomain::categorical(["a0", "a1", "a2", "a3"])),
        Attribute::new("b", AttrDomain::categorical(["b0", "b1", "b2"])),
        Attribute::new("label", AttrDomain::categorical(["neg", "pos"])),
        Attribute::new("label2", AttrDomain::categorical(["neg", "pos"])),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for &(a, b) in extra {
        let label = u16::from(a >= 2);
        let label2 = u16::from(b == 1);
        ds.push_encoded(&[a, b, label, label2]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::with_page_bytes("t", &ds, 256)).unwrap();
    let e = Engine::new(cat);
    for ddl in [
        "CREATE MINING MODEL m1 ON t PREDICT label USING bayes",
        "CREATE MINING MODEL m2 ON t PREDICT label2 USING bayes",
    ] {
        let out = e.execute_sql(ddl).expect(ddl);
        assert!(matches!(out, StatementOutcome::ModelCreated { .. }), "{ddl}");
    }
    e
}

/// The model's proxy table, rebuilt fresh from the model itself.
fn fresh_proxy(e: &Engine, model: usize) -> ProxyScore {
    e.catalog().model(model).model.proxy().expect("additive model must tabulate a proxy")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The heart of the soundness claim, checked directly against the
    /// scorer: on every row of the table, the proxy's decision names
    /// exactly the class the real model predicts.
    #[test]
    fn proxy_decisions_agree_with_the_real_scorer(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 40..120),
    ) {
        let e = engine_with_models(&extra);
        let catalog = e.catalog();
        for (model, table) in MODELS {
            let proxy = fresh_proxy(&e, model);
            let t = &catalog.table(table).table;
            for r in 0..t.n_rows() as u32 {
                let row = t.row(r);
                prop_assert_eq!(
                    proxy.decide(&row),
                    catalog.predict(model, &row),
                    "proxy and scorer diverged on model {} row {:?}", model, row
                );
            }
        }
    }

    /// End to end through the executors: a cascaded plan returns the
    /// same rows as the cascade-free reference at every dop, which calls
    /// the scorer once per row; every scored row is accounted as exactly
    /// one of accept or reject, and the real scorer never runs.
    #[test]
    fn cascade_execution_is_sound_and_never_calls_the_scorer(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 40..120),
    ) {
        let e = engine_with_models(&extra);
        e.set_use_envelopes(false); // full scan: every row reaches the predicate
        for (model, table) in MODELS {
            for class in 0..2u16 {
                let expr = Expr::Mining(MiningPred::ClassEq { model, class: ClassId(class) });
                e.set_compile_models(false);
                let plan_ref = e.plan_predicate(table, expr.clone());
                e.set_compile_models(true);
                let plan_casc = e.plan_predicate(table, expr.clone());
                let catalog = e.catalog();
                let reference =
                    execute_opts(&plan_ref, &catalog, QueryGuard::unlimited(), &reference_opts())
                        .expect("reference run cannot fail");
                let r = &reference.metrics;
                prop_assert_eq!(r.model_invocations, r.rows_examined, "one call per row");
                prop_assert_eq!(r.cascade_accepts + r.cascade_rejects, 0, "reference cascaded");

                let mut serial_counters = None;
                for dop in DOPS {
                    let got = execute_opts(
                        &plan_casc,
                        &catalog,
                        QueryGuard::unlimited(),
                        &ExecOptions::with_parallelism(dop),
                    )
                    .expect("cascaded run cannot fail");
                    prop_assert_eq!(
                        &got.rows, &reference.rows,
                        "cascade changed the row set: model {}, class {}, dop {}",
                        model, class, dop
                    );
                    let m = &got.metrics;
                    prop_assert_eq!(
                        m.cascade_accepts + m.cascade_rejects,
                        m.rows_examined,
                        "every scored row is accept or reject: model {}", model
                    );
                    prop_assert_eq!(
                        (m.model_invocations, m.band_rows, m.memo_hits),
                        (0, 0, 0),
                        "a cascaded model never reaches the scorer: model {}", model
                    );
                    // Cascade decisions are deterministic: identical at
                    // every dop.
                    let counters = (m.cascade_accepts, m.cascade_rejects);
                    match serial_counters {
                        None => serial_counters = Some(counters),
                        Some(expected) => prop_assert_eq!(
                            counters, expected,
                            "cascade counters diverged at dop {}", dop
                        ),
                    }
                }
            }
        }
    }

    /// `MODELS AGREE` is never compiled away, so its *direct* predictions
    /// must ride the cascade's predict path: the proxy's decision is the
    /// prediction, on both models, and the real scorer never runs — where
    /// the cascade-free reference calls it twice per row.
    #[test]
    fn models_agree_rides_the_predict_path_cascade(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 60..140),
    ) {
        let e = engine_with_agreeing_models(&extra);
        e.set_use_envelopes(false); // full scan: every row reaches eval
        let expr = Expr::Mining(MiningPred::ModelsAgree { m1: 0, m2: 1 });
        e.set_compile_models(false);
        let plan_ref = e.plan_predicate(0, expr.clone());
        e.set_compile_models(true);
        let plan_casc = e.plan_predicate(0, expr);
        let catalog = e.catalog();
        let reference =
            execute_opts(&plan_ref, &catalog, QueryGuard::unlimited(), &reference_opts())
                .expect("reference run cannot fail");
        let r = &reference.metrics;
        prop_assert_eq!(r.model_invocations, 2 * r.rows_examined, "two calls per row");

        for dop in DOPS {
            let got = execute_opts(
                &plan_casc,
                &catalog,
                QueryGuard::unlimited(),
                &ExecOptions::with_parallelism(dop),
            )
            .expect("cascaded run cannot fail");
            prop_assert_eq!(
                &got.rows, &reference.rows,
                "cascade changed the agreement row set at dop {}", dop
            );
            prop_assert_eq!((got.metrics.model_invocations, got.metrics.band_rows), (0, 0));
        }
    }
}

// -- Batches of many pages -------------------------------------------

/// Rows a scan hands the compiled predicate at once (`exec.rs`,
/// `SCAN_BATCH_ROWS`).
const BATCH_ROWS: usize = 2048;
/// An odd page size, so that a batch (55 whole pages, 2,035 rows) does
/// not end at the 2,048 rows a scan asks for.
const ROWS_PER_PAGE: usize = 37;
/// The one page of the big table holding only `a = a0`.
const SKIPPED_PAGE: usize = 70;

/// A 9,000-row table `t` (id 1) of 37-row pages and two models trained
/// on the small table `train` (id 0) of the same schema: a naive Bayes
/// whose classes `c1` and `c2` have identical training rows — they
/// score bit-equal, so wherever they beat `c0` (every `a >= a2` cell)
/// they tie, and the lower id, `c1`, wins — and a k-means.
fn engine_with_big_table() -> Engine {
    let schema = Schema::new(vec![
        Attribute::new("a", AttrDomain::categorical(["a0", "a1", "a2", "a3"])),
        Attribute::new("b", AttrDomain::categorical(["b0", "b1", "b2"])),
        Attribute::new("label", AttrDomain::categorical(["c0", "c1", "c2"])),
    ])
    .unwrap();
    let mut train = Dataset::new(schema.clone());
    for a in 0..4u16 {
        for b in 0..3u16 {
            for label in [1, 2] {
                train.push_encoded(&[a, b, label]).unwrap();
            }
            for _ in 0..3 * u16::from(a < 2) {
                train.push_encoded(&[a, b, 0]).unwrap();
            }
        }
    }
    let rows = (0..9_000usize).map(|i| {
        let a = if i / ROWS_PER_PAGE == SKIPPED_PAGE { 0 } else { i % 4 };
        vec![a as u16, (i / 4 % 3) as u16, (i / 12 % 3) as u16]
    });
    let big = Dataset::from_rows(schema, rows).unwrap();
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("train", &train)).unwrap();
    let page_bytes = ROWS_PER_PAGE * 3 * ASSUMED_COLUMN_BYTES;
    cat.add_table(Table::with_page_bytes("t", &big, page_bytes)).unwrap();
    let e = Engine::new(cat);
    for ddl in [
        "CREATE MINING MODEL m_tied ON train PREDICT label USING bayes",
        "CREATE MINING MODEL m_km ON train WITH 2 CLUSTERS USING kmeans",
    ] {
        let out = e.execute_sql(ddl).expect(ddl);
        assert!(matches!(out, StatementOutcome::ModelCreated { .. }), "{ddl}");
    }
    e
}

/// The column-at-a-time cascade over multi-page batches against the
/// per-row cascade of the reference interpreter and the cascade-free
/// scorer path, on a scan of five batches whose batch and page
/// boundaries differ and whose second batch is cut short by a
/// zone-skipped page: the tied naive Bayes returns the scorer's rows
/// with no scorer call and no band row at every dop, with the
/// reference's accept/reject split. With the cascade off, every
/// invocation budget across the first batch boundary breaches as the
/// reference does.
#[test]
fn batched_cascade_equals_the_per_row_cascade_across_every_boundary() {
    let e = engine_with_big_table();
    e.set_use_envelopes(false); // every `a != a0` row reaches the mining predicate
    let catalog = e.catalog();
    let t = &catalog.table(1).table;
    assert_eq!(t.rows_per_page(), ROWS_PER_PAGE);
    let batch_end = BATCH_ROWS / ROWS_PER_PAGE * ROWS_PER_PAGE;
    assert!(t.n_rows() >= 3 * BATCH_ROWS);
    assert!(batch_end != BATCH_ROWS);
    assert!(batch_end < SKIPPED_PAGE * ROWS_PER_PAGE && SKIPPED_PAGE * ROWS_PER_PAGE < 2 * batch_end);
    // The tie is real: `c1` and `c2` lead together on thousands of rows,
    // and the tie-break always names `c1`.
    let predicted = |c: u16| {
        (0..t.n_rows() as u32).filter(|&r| catalog.predict(0, &t.row(r)) == ClassId(c)).count()
    };
    assert!(predicted(1) > 1_000 && predicted(2) == 0);

    let not_a0 = || Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 1, hi: 3 } });
    let preds = [
        MiningPred::ClassEq { model: 0, class: ClassId(1) },
        MiningPred::ClassIn { model: 0, classes: vec![ClassId(0), ClassId(2)] },
        MiningPred::ClassEq { model: 1, class: ClassId(0) },
    ];
    let plan = |pred: &MiningPred, compile: bool| {
        e.set_compile_models(compile);
        e.plan_predicate(1, Expr::And(vec![not_a0(), Expr::Mining(pred.clone())]))
    };
    // Every `a != a0` row reaches the mining predicate once.
    let reached = (0..t.n_rows() as u32).filter(|&r| t.cell(r, 0) != 0).count() as u64;
    for pred in &preds {
        let unlimited = QueryGuard::unlimited();
        let scored = execute_opts(&plan(pred, false), &catalog, unlimited, &reference_opts())
            .expect("scorer run cannot fail");
        assert_eq!(scored.metrics.model_invocations, reached, "{pred:?}");
        let plan = plan(pred, true);
        let reference = execute_opts(&plan, &catalog, unlimited, &reference_opts())
            .expect("reference run cannot fail");
        let r = &reference.metrics;
        assert_eq!(reference.rows, scored.rows, "{pred:?}");
        assert_eq!(r.pages_skipped, 1, "{pred:?}");
        assert_eq!(r.cascade_accepts + r.cascade_rejects, reached, "{pred:?}");
        assert_eq!((r.model_invocations, r.band_rows), (0, 0), "{pred:?}");
        for dop in DOPS {
            let got = execute_opts(
                &plan,
                &catalog,
                QueryGuard::unlimited(),
                &ExecOptions::with_parallelism(dop),
            )
            .expect("batched run cannot fail");
            let ctx = format!("{pred:?}, dop {dop}");
            assert_eq!(got.rows, reference.rows, "{ctx}");
            let m = &got.metrics;
            assert_eq!(
                (m.cascade_accepts, m.cascade_rejects, m.band_rows),
                (r.cascade_accepts, r.cascade_rejects, r.band_rows),
                "{ctx}"
            );
            assert_eq!(
                (m.model_invocations, m.memo_hits, m.rows_examined, m.heap_pages_read),
                (r.model_invocations, r.memo_hits, r.rows_examined, r.heap_pages_read),
                "{ctx}"
            );
            assert_eq!(m.pages_skipped, 1, "{ctx}");
        }
    }

    // With the cascade off, invocation budgets that trip just before, on
    // and just after the last scorer call of the first batch.
    let calls_in_first_batch = (0..batch_end as u32).filter(|&r| t.cell(r, 0) != 0).count() as u64;
    let plan = plan(&preds[0], false);
    for limit in calls_in_first_batch - 3..=calls_in_first_batch + 3 {
        let guard = QueryGuard::default().with_max_model_invocations(limit);
        let reference = execute_opts(&plan, &catalog, guard, &reference_opts())
            .expect_err("the table holds thousands of scored rows");
        let EngineError::BudgetExceeded { resource, spent, .. } = &reference else {
            panic!("limit {limit}: {reference:?}");
        };
        assert_eq!((*resource, *spent), (GuardResource::ModelInvocations, limit + 1));
        for dop in DOPS {
            let got = execute_opts(&plan, &catalog, guard, &ExecOptions::with_parallelism(dop))
                .expect_err("the pipeline must breach where the reference does");
            if dop == 1 {
                assert_eq!(got, reference, "limit {limit}");
            } else {
                match got {
                    EngineError::BudgetExceeded { resource, limit: l, spent } => {
                        assert_eq!((resource, l), (GuardResource::ModelInvocations, limit));
                        assert!(spent > limit, "limit {limit}, dop {dop}");
                    }
                    other => panic!("limit {limit}, dop {dop}: {other:?}"),
                }
            }
        }
    }
}

// -- The fused model-agreement and label-column kernels ------------------

/// [`engine_with_big_table`] plus a second training table `train2`
/// (id 2) whose classes `c1` and `c2` also train alike but lose to `c0`
/// on `b < 2` instead of `a < 2`, and two models of it: `m_alt` (id 2),
/// by DDL, whose class ids are `m_tied`'s, and `m_perm` (id 3), the same
/// model trained on labels stored in reverse order — every label under
/// another id.
fn engine_with_agreeing_models_on_big_table() -> Engine {
    let e = engine_with_big_table();
    let schema = e.catalog().table(0).table.schema().clone();
    let mut train2 = Dataset::new(schema.clone());
    for a in 0..4u16 {
        for b in 0..3u16 {
            for label in [1, 2] {
                train2.push_encoded(&[a, b, label]).unwrap();
            }
            for _ in 0..3 * u16::from(b < 2) {
                train2.push_encoded(&[a, b, 0]).unwrap();
            }
        }
    }
    e.create_table(Table::from_dataset("train2", &train2)).unwrap();
    let out =
        e.execute_sql("CREATE MINING MODEL m_alt ON train2 PREDICT label USING bayes").unwrap();
    assert!(matches!(out, StatementOutcome::ModelCreated { .. }));
    let view = mpq_engine::labeled_view(&e.catalog(), 2, AttrId(2)).unwrap();
    let n_classes = view.class_names.len() as u16;
    let labels = view.labels.iter().map(|c| ClassId(n_classes - 1 - c.0)).collect();
    let names = view.class_names.iter().rev().cloned().collect();
    let permuted = LabeledDataset::new(view.data, labels, names).unwrap();
    let nb = NaiveBayes::train(&permuted).unwrap();
    let model = mpq_engine::ProjectedModel::new(schema, AttrId(2), std::sync::Arc::new(nb));
    e.register_model("m_perm", std::sync::Arc::new(model), DeriveOptions::default()).unwrap();
    e
}

/// `PREDICT(m1) = PREDICT(m2)` over models sharing class ids and over
/// models storing the same labels under other ids, and `PREDICT(m) =
/// label` for both id layouts, alone and behind a `Col` leaf, on the
/// 9,000-row table of five batches: every dop returns the rows of the
/// cascade-free scorer path and every deterministic counter of the
/// reference, with no scorer call. With the cascade off, every
/// invocation budget across the first batch boundary trips the pipeline
/// with the reference's exact error at dop 1 (its resource and limit
/// elsewhere).
#[test]
fn fused_agreement_and_label_column_kernels_equal_the_reference() {
    let e = engine_with_agreeing_models_on_big_table();
    e.set_use_envelopes(false); // every reached row meets the mining predicate
    let catalog = e.catalog();
    let t = &catalog.table(1).table;
    assert_eq!(catalog.model(3).model.class_name(ClassId(0)), "c2", "ids permuted");
    let batch_end = (BATCH_ROWS / ROWS_PER_PAGE * ROWS_PER_PAGE) as u32;
    let not_a0 = || Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 1, hi: 3 } });
    let preds = [
        MiningPred::ModelsAgree { m1: 0, m2: 2 },
        MiningPred::ModelsAgree { m1: 0, m2: 3 },
        MiningPred::ModelsAgree { m1: 3, m2: 2 },
        MiningPred::ClassEqColumn { model: 0, column: AttrId(2) },
        MiningPred::ClassEqColumn { model: 3, column: AttrId(2) },
    ];
    for pred in &preds {
        for behind_col in [false, true] {
            let expr = if behind_col {
                Expr::And(vec![not_a0(), Expr::Mining(pred.clone())])
            } else {
                Expr::Mining(pred.clone())
            };
            e.set_compile_models(false);
            let plan_off = e.plan_predicate(1, expr.clone());
            e.set_compile_models(true);
            let plan = e.plan_predicate(1, expr);
            assert_eq!(plan.cascades.len(), pred.models().len(), "{pred:?}");
            let unlimited = QueryGuard::unlimited();
            let scored = execute_opts(&plan_off, &catalog, unlimited, &reference_opts())
                .expect("scorer run cannot fail");
            let reference = execute_opts(&plan, &catalog, unlimited, &reference_opts())
                .expect("reference run cannot fail");
            assert_eq!(reference.rows, scored.rows, "{pred:?}");
            let r = &reference.metrics;
            assert_eq!((r.model_invocations, r.band_rows), (0, 0), "{pred:?}");
            assert_eq!(r.pages_skipped, u64::from(behind_col));
            for dop in DOPS {
                let got = execute_opts(
                    &plan,
                    &catalog,
                    QueryGuard::unlimited(),
                    &ExecOptions::with_parallelism(dop),
                )
                .expect("pipeline run cannot fail");
                let ctx = format!("{pred:?}, behind col {behind_col}, dop {dop}");
                assert_eq!(got.rows, reference.rows, "{ctx}");
                let m = &got.metrics;
                assert_eq!(
                    (m.cascade_accepts, m.cascade_rejects, m.band_rows),
                    (r.cascade_accepts, r.cascade_rejects, r.band_rows),
                    "{ctx}"
                );
                assert_eq!(
                    (m.model_invocations, m.memo_hits, m.rows_examined, m.output_rows),
                    (r.model_invocations, r.memo_hits, r.rows_examined, r.output_rows),
                    "{ctx}"
                );
                assert_eq!(
                    (m.heap_pages_read, m.pages_skipped),
                    (r.heap_pages_read, r.pages_skipped)
                );
            }

            // Cascade off: one scorer call per reached row and model.
            let reached = (0..batch_end).filter(|&r| !behind_col || t.cell(r, 0) != 0).count();
            let calls = (reached * pred.models().len()) as u64;
            for limit in calls - 3..=calls + 3 {
                let guard = QueryGuard::default().with_max_model_invocations(limit);
                let reference = execute_opts(&plan_off, &catalog, guard, &reference_opts())
                    .expect_err("the table holds thousands of scored rows");
                let EngineError::BudgetExceeded { resource, spent, .. } = &reference else {
                    panic!("limit {limit}: {reference:?}");
                };
                assert_eq!(*resource, GuardResource::ModelInvocations);
                assert!(*spent > limit && *spent <= limit + pred.models().len() as u64);
                for dop in DOPS {
                    let got = execute_opts(
                        &plan_off,
                        &catalog,
                        guard,
                        &ExecOptions::with_parallelism(dop),
                    )
                    .expect_err("the pipeline must breach where the reference does");
                    if dop == 1 {
                        assert_eq!(got, reference, "{pred:?}, limit {limit}");
                        continue;
                    }
                    match got {
                        EngineError::BudgetExceeded { resource, limit: l, spent } => {
                            assert_eq!((resource, l), (GuardResource::ModelInvocations, limit));
                            assert!(spent > limit, "limit {limit}, dop {dop}");
                        }
                        other => panic!("{pred:?}, limit {limit}, dop {dop}: {other:?}"),
                    }
                }
            }
        }
    }
    // Agreement is by label: a row agrees exactly when the two models'
    // predicted labels are equal. `m_perm` names the label `m_alt` does
    // wherever `c0` leads; where `c1` and `c2` tie, each model's
    // tie-break takes its own lower id, which names `c1` in `m_alt` and
    // `c2` in `m_perm`.
    let rows_of = |pred: &MiningPred| {
        let plan = e.plan_predicate(1, Expr::Mining(pred.clone()));
        execute_opts(&plan, &catalog, QueryGuard::unlimited(), &reference_opts()).unwrap().rows
    };
    let (same_ids, permuted, pair) = (rows_of(&preds[0]), rows_of(&preds[1]), rows_of(&preds[2]));
    let label = |m: usize, row: &[u16]| catalog.model(m).model.class_name(catalog.predict(m, row));
    for r in 0..t.n_rows() as u32 {
        let row = t.row(r);
        let (tied, alt, perm) = (label(0, &row), label(2, &row), label(3, &row));
        let has = |rows: &[u32]| rows.binary_search(&r).is_ok();
        assert_eq!(has(&same_ids), tied == alt, "row {r}");
        assert_eq!(has(&permuted), tied == perm, "row {r}");
        assert_eq!(has(&pair), perm == alt, "row {r}");
    }
    assert!(!same_ids.is_empty() && same_ids.len() < t.n_rows());
    assert!(!pair.is_empty() && pair.len() < t.n_rows(), "the tie-breaks name other labels");
}
