//! Cascade soundness oracle: the tabulated proxy score for the additive
//! models (naive Bayes, k-means, GMM) must agree with the real scorer on
//! every decided row — a `Unique` decision *is* the model's prediction —
//! and the uncertainty band must be exactly the set of rows the
//! executor falls back to the real scorer for. Execution through the
//! cascade must be row-identical to the cascade-free reference at every
//! degree of parallelism, with the memo cache on and off.

use mining_predicates::prelude::*;
use mpq_engine::{
    execute_opts, Atom, AtomPred, ExecOptions, ModelOracle, StatementOutcome, ASSUMED_COLUMN_BYTES,
};
use mpq_core::{ProxyDecision, ProxyScore};
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
    /// scorer: on every row of the table, a `Unique` proxy decision
    /// names exactly the class the real model predicts. (Band rows make
    /// no claim — they are the fallback set by definition.)
    #[test]
    fn unique_decisions_agree_with_the_real_scorer(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 40..120),
    ) {
        let e = engine_with_models(&extra);
        let catalog = e.catalog();
        for (model, table) in MODELS {
            let proxy = fresh_proxy(&e, model);
            let t = &catalog.table(table).table;
            let mut decided = 0u64;
            for r in 0..t.n_rows() as u32 {
                let row = t.row(r);
                match proxy.decide(&row) {
                    ProxyDecision::Unique(c) => {
                        decided += 1;
                        prop_assert_eq!(
                            c,
                            catalog.predict(model, &row),
                            "proxy and scorer diverged on model {} row {:?}", model, row
                        );
                    }
                    ProxyDecision::Band => {}
                }
            }
            // The cascade must actually decide something on these grids,
            // or the test proves nothing.
            prop_assert!(decided > 0, "model {} decided no rows at all", model);
        }
    }

    /// End to end through the executors: a cascaded plan returns the
    /// same rows as the cascade-free reference at every dop; every
    /// scored row is accounted as exactly one of accept, reject or
    /// band; and with the memo disabled the real scorer runs exactly
    /// once per band row — the band *is* the fallback-scorer set.
    #[test]
    fn cascade_execution_is_sound_and_band_equals_fallback_set(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 40..120),
    ) {
        let e = engine_with_models(&extra);
        e.set_use_envelopes(false); // full scan: every row reaches the scorer
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
                prop_assert_eq!(
                    reference.metrics.band_rows, 0,
                    "cascade-free reference must not report band rows"
                );

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
                        m.cascade_accepts + m.cascade_rejects + m.band_rows,
                        m.rows_examined,
                        "every scored row is accept, reject or band: model {}", model
                    );
                    // Cascade decisions are deterministic: identical at
                    // every dop.
                    let counters = (m.cascade_accepts, m.cascade_rejects, m.band_rows);
                    match serial_counters {
                        None => serial_counters = Some(counters),
                        Some(expected) => prop_assert_eq!(
                            counters, expected,
                            "cascade counters diverged at dop {}", dop
                        ),
                    }
                }

                // Memo off: the real scorer runs exactly once per band
                // row — nothing more (Unique rows never invoke), nothing
                // less (every band row falls back).
                let no_memo = execute_opts(
                    &plan_casc,
                    &catalog,
                    QueryGuard::unlimited(),
                    &ExecOptions { memo_capacity: 0, ..ExecOptions::default() },
                )
                .expect("memo-free cascaded run cannot fail");
                prop_assert_eq!(&no_memo.rows, &reference.rows, "memo off changed rows");
                prop_assert_eq!(
                    no_memo.metrics.model_invocations,
                    no_memo.metrics.band_rows,
                    "band rows must equal the fallback-scorer set exactly: model {}", model
                );
                prop_assert_eq!(no_memo.metrics.memo_hits, 0, "disabled memo reported hits");

                // Memo on: decisions (and thus counters) are unchanged;
                // the memo can only absorb band-row scorer calls.
                let memo = execute_opts(
                    &plan_casc,
                    &catalog,
                    QueryGuard::unlimited(),
                    &reference_opts(),
                )
                .expect("memoized cascaded run cannot fail");
                prop_assert_eq!(&memo.rows, &reference.rows, "memo on changed rows");
                prop_assert_eq!(
                    (memo.metrics.cascade_accepts, memo.metrics.cascade_rejects,
                     memo.metrics.band_rows),
                    serial_counters.expect("dop sweep ran"),
                    "memo must not change cascade decisions"
                );
                prop_assert!(
                    memo.metrics.model_invocations <= memo.metrics.band_rows,
                    "memoized scorer calls cannot exceed the band: {} > {}",
                    memo.metrics.model_invocations, memo.metrics.band_rows
                );
            }
        }
    }

    /// `MODELS AGREE` is never compiled away (agreement is decided on
    /// raw class ids at prediction time), so its *direct* predictions
    /// must ride the cascade's predict path: a unique proxy argmax is
    /// the prediction, and with the memo off the real scorer runs
    /// exactly once per banded predict call — across both models.
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
        prop_assert_eq!(reference.metrics.band_rows, 0, "reference must not cascade");

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
        }

        // Memo off: each row makes two predict calls; every one either
        // decides uniquely (no scorer) or lands in the band and invokes
        // the scorer exactly once.
        let no_memo = execute_opts(
            &plan_casc,
            &catalog,
            QueryGuard::unlimited(),
            &ExecOptions { memo_capacity: 0, ..ExecOptions::default() },
        )
        .expect("memo-free cascaded run cannot fail");
        prop_assert_eq!(&no_memo.rows, &reference.rows, "memo off changed rows");
        prop_assert_eq!(
            no_memo.metrics.model_invocations,
            no_memo.metrics.band_rows,
            "banded predict calls must equal the fallback-scorer set exactly"
        );
        prop_assert!(
            no_memo.metrics.band_rows <= 2 * no_memo.metrics.rows_examined,
            "at most two predict calls per examined row"
        );
        prop_assert_eq!(no_memo.metrics.memo_hits, 0, "disabled memo reported hits");
    }
}

// -- Batches of many pages -------------------------------------------

/// Rows a scan hands the compiled predicate at once (`exec.rs`,
/// `SCAN_BATCH_ROWS`).
const BATCH_ROWS: usize = 2048;
/// An odd page size, so that neither a batch (55 pages, 2,035 rows)
/// nor the 4,096-row calibration window ends where a page or the other
/// does.
const ROWS_PER_PAGE: usize = 37;
/// The one page of the big table holding only `a = a0`.
const SKIPPED_PAGE: usize = 70;

/// A 9,000-row table `t` (id 1) of 37-row pages and two models trained
/// on the small table `train` (id 0) of the same schema: a naive Bayes
/// whose classes `c1` and `c2` have identical training rows — they
/// score bit-equal, so wherever they beat `c0` (every `a >= a2` cell)
/// the proxy ties and the row is band — and a k-means.
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
/// per-row cascade of the reference interpreter, on a scan of five
/// batches whose batch, page and calibration boundaries all differ and
/// whose second batch is cut short by a zone-skipped page: same rows,
/// same accept/reject/band split, same scorer calls — and, with the
/// memo off, the same invocation-budget breach for every limit across
/// the first batch boundary.
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
    assert!(!4096usize.is_multiple_of(ROWS_PER_PAGE) && !4096usize.is_multiple_of(batch_end));
    assert!(batch_end < SKIPPED_PAGE * ROWS_PER_PAGE && SKIPPED_PAGE * ROWS_PER_PAGE < 2 * batch_end);

    let not_a0 = || Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 1, hi: 3 } });
    let no_memo = |dop: usize| ExecOptions { memo_capacity: 0, ..ExecOptions::with_parallelism(dop) };
    let preds = [
        MiningPred::ClassEq { model: 0, class: ClassId(1) },
        MiningPred::ClassIn { model: 0, classes: vec![ClassId(0), ClassId(2)] },
        MiningPred::ClassEq { model: 1, class: ClassId(0) },
    ];
    for pred in &preds {
        let plan = e.plan_predicate(1, Expr::And(vec![not_a0(), Expr::Mining(pred.clone())]));
        for memo_capacity in [ExecOptions::default().memo_capacity, 0] {
            let reference = execute_opts(
                &plan,
                &catalog,
                QueryGuard::unlimited(),
                &ExecOptions { memo_capacity, ..reference_opts() },
            )
            .expect("reference run cannot fail");
            let r = &reference.metrics;
            assert_eq!(r.pages_skipped, 1, "{pred:?}");
            assert!(r.cascade_accepts + r.cascade_rejects > 0, "the cascade must be on: {pred:?}");
            if memo_capacity == 0 {
                assert_eq!(r.model_invocations, r.band_rows, "{pred:?}");
            }
            for dop in DOPS {
                let got = execute_opts(
                    &plan,
                    &catalog,
                    QueryGuard::unlimited(),
                    &ExecOptions { memo_capacity, ..ExecOptions::with_parallelism(dop) },
                )
                .expect("batched run cannot fail");
                let ctx = format!("{pred:?}, memo {memo_capacity}, dop {dop}");
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
    }

    // Invocation budgets that trip just before, on and just after the
    // last band row of the first batch.
    let proxy = fresh_proxy(&e, 0);
    let band_in_first_batch = (0..batch_end as u32)
        .map(|r| t.row(r))
        .filter(|row| row[0] != 0 && proxy.decide(row) == ProxyDecision::Band)
        .count() as u64;
    assert!(band_in_first_batch > 100, "tied classes must put rows in the band");
    let plan = e.plan_predicate(1, Expr::And(vec![not_a0(), Expr::Mining(preds[0].clone())]));
    for limit in band_in_first_batch - 3..=band_in_first_batch + 3 {
        let guard = QueryGuard::default().with_max_model_invocations(limit);
        let reference = execute_opts(
            &plan,
            &catalog,
            guard,
            &ExecOptions { memo_capacity: 0, ..reference_opts() },
        )
        .expect_err("the table holds thousands of band rows");
        let EngineError::BudgetExceeded { resource, spent, .. } = &reference else {
            panic!("limit {limit}: {reference:?}");
        };
        assert_eq!((*resource, *spent), (GuardResource::ModelInvocations, limit + 1));
        for dop in DOPS {
            let got = execute_opts(&plan, &catalog, guard, &no_memo(dop))
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
