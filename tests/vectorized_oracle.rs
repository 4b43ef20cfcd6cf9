//! Differential oracle for the vectorized executor: for
//! proptest-generated tables, models (all five algorithms) and query
//! predicates, the vectorized column-at-a-time path must agree with the
//! scalar row-at-a-time reference interpreter on row sets, rows
//! examined, page totals (heap reads plus zone-map skips), scorer-call
//! counts, and guard-breach classification — serially
//! and at every degree of parallelism.

use mining_predicates::prelude::*;
use mpq_engine::{
    choose_plan, execute_opts, Atom, AtomPred, ExecMetrics, ExecOptions, ExecResult,
    StatementOutcome, ASSUMED_COLUMN_BYTES,
};
use mpq_types::MemberSet;
use proptest::prelude::*;

const DOPS: [usize; 4] = [1, 2, 4, 8];

/// The scalar reference interpreter: serial, tree-walking `Expr::eval`
/// per row, through the same proxy cascades (a cascade's decision is the
/// model's prediction, not a vectorized-only optimization).
fn reference_opts() -> ExecOptions {
    ExecOptions { parallelism: 1, vectorized: false, ..ExecOptions::default() }
}

/// Three-attribute schema: two feature columns plus a label column the
/// classification models train on.
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

/// Builds an engine over the generated rows with tiny (256-byte) pages
/// — so even small tables span many pages and zone maps have something
/// to prune — plus single-column indexes, and trains one model per
/// algorithm (tree / bayes / rules / k-means on `t`, GMM on `tn`).
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
    let t = cat.add_table(Table::with_page_bytes("t", &ds, 256)).unwrap();
    cat.create_index(t, &[AttrId(0)]);
    cat.create_index(t, &[AttrId(1)]);
    let tn = cat.add_table(Table::with_page_bytes("tn", &dsn, 256)).unwrap();
    cat.create_index(tn, &[AttrId(0)]);
    let e = Engine::new(cat);

    for ddl in [
        "CREATE MINING MODEL m_tree ON t PREDICT label USING decision_tree",
        "CREATE MINING MODEL m_bayes ON t PREDICT label USING bayes",
        "CREATE MINING MODEL m_rules ON t PREDICT label USING rules",
        "CREATE MINING MODEL m_km ON t WITH 2 CLUSTERS USING kmeans",
        "CREATE MINING MODEL m_gmm ON tn WITH 2 CLUSTERS USING gmm",
    ] {
        let out = e.execute_sql(ddl).expect(ddl);
        assert!(matches!(out, StatementOutcome::ModelCreated { .. }), "{ddl}");
    }
    e
}

/// The query corpus: for each of the five models, mining predicates
/// alone and mixed with column atoms — exercising constant scans,
/// zone-pruned full scans, index seeks, index unions, disjunctions with
/// scalar residual legs, and pure column predicates.
fn query_corpus() -> Vec<(usize, Expr)> {
    let mut exprs = Vec::new();
    for model in 0..5usize {
        let table = usize::from(model == 4);
        for class in 0..2u16 {
            exprs.push((table, Expr::Mining(MiningPred::ClassEq { model, class: ClassId(class) })));
        }
        exprs.push((
            table,
            Expr::And(vec![
                Expr::Mining(MiningPred::ClassEq { model, class: ClassId(1) }),
                Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(2) }),
            ]),
        ));
        exprs.push((
            table,
            Expr::Or(vec![
                Expr::Mining(MiningPred::ClassEq { model, class: ClassId(0) }),
                Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(1) }),
            ]),
        ));
    }
    exprs.push((0, Expr::Const(true)));
    exprs.push((0, Expr::Const(false)));
    exprs.push((0, Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 1, hi: 2 } })));
    exprs.push((
        0,
        Expr::Or(vec![
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) }),
            Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::In(MemberSet::of(3, [0, 2])) }),
        ]),
    ));
    exprs.push((0, Expr::Not(Box::new(Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(3) })))));
    exprs
}

/// Asserts the vectorized result is indistinguishable from the scalar
/// reference: identical rows and identical deterministic metrics —
/// including the zone-map skip count and the scorer-call count, which
/// both paths must agree on page for page and row for row.
fn assert_matches_reference(
    reference: &mpq_engine::ExecResult,
    vectorized: &mpq_engine::ExecResult,
    ctx: &str,
) {
    assert_eq!(vectorized.rows, reference.rows, "row set diverged: {ctx}");
    let (s, v): (&ExecMetrics, &ExecMetrics) = (&reference.metrics, &vectorized.metrics);
    assert_eq!(v.heap_pages_read, s.heap_pages_read, "heap pages: {ctx}");
    assert_eq!(v.index_pages_read, s.index_pages_read, "index pages: {ctx}");
    assert_eq!(v.pages_skipped, s.pages_skipped, "zone skips: {ctx}");
    assert_eq!(v.rows_examined, s.rows_examined, "rows examined: {ctx}");
    assert_eq!(v.model_invocations, s.model_invocations, "invocations: {ctx}");
    assert_eq!(v.memo_hits, s.memo_hits, "memo hits: {ctx}");
    assert_eq!(v.cascade_accepts, s.cascade_accepts, "cascade accepts: {ctx}");
    assert_eq!(v.cascade_rejects, s.cascade_rejects, "cascade rejects: {ctx}");
    assert_eq!(v.band_rows, s.band_rows, "band rows: {ctx}");
    assert_eq!(v.output_rows, s.output_rows, "output rows: {ctx}");
    assert_eq!(v.index_fallback, s.index_fallback, "fallback flag: {ctx}");
    assert_eq!(v.guard.rows_remaining, s.guard.rows_remaining, "rows headroom: {ctx}");
    assert_eq!(v.guard.pages_remaining, s.guard.pages_remaining, "pages headroom: {ctx}");
    assert_eq!(
        v.guard.model_invocations_remaining, s.guard.model_invocations_remaining,
        "invocation headroom: {ctx}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole guarantee: every query in the corpus, over all five
    /// model algorithms, returns the same rows and metrics under the
    /// vectorized executor at parallelism 1, 2, 4 and 8 as the scalar
    /// row-at-a-time reference — with envelope optimization both on and
    /// off.
    #[test]
    fn vectorized_execution_matches_scalar_reference(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 40..120),
    ) {
        let e = engine_with_models(&extra);
        for use_envelopes in [true, false] {
            e.set_use_envelopes(use_envelopes);
            for (table, expr) in query_corpus() {
                let plan = e.plan_predicate(table, expr.clone());
                let catalog = e.catalog();
                let reference =
                    execute_opts(&plan, &catalog, QueryGuard::unlimited(), &reference_opts())
                        .expect("unlimited reference run cannot fail");
                for dop in DOPS {
                    let vec = execute_opts(
                        &plan,
                        &catalog,
                        QueryGuard::unlimited(),
                        &ExecOptions::with_parallelism(dop),
                    )
                    .expect("unlimited vectorized run cannot fail");
                    assert_matches_reference(
                        &reference,
                        &vec,
                        &format!("dop {dop}, envelopes {use_envelopes}, expr {expr:?}"),
                    );
                }
            }
        }
    }

    /// Guard parity under a generated single-resource budget: at dop 1
    /// the pipeline must breach with the same resource, limit *and*
    /// spent as the scalar reference (a batch charge reports the
    /// per-row trip point); at dop > 1 the classification and limit
    /// still match and spent may only overshoot.
    #[test]
    fn guard_breach_classification_matches_reference(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 40..100),
        rows_limit in 1u64..200,
        inv_limit in 1u64..200,
        pages_limit in 0u64..80,
    ) {
        let e = engine_with_models(&extra);
        // Full scan + black-box residual: no envelope, no cascade.
        e.set_use_envelopes(false);
        e.set_compile_models(false);
        let expr = Expr::Mining(MiningPred::ClassEq { model: 1, class: ClassId(1) });
        let plan = e.plan_predicate(0, expr);
        let catalog = e.catalog();

        let guards = [
            QueryGuard::default().with_max_rows_examined(rows_limit),
            QueryGuard::default().with_max_model_invocations(inv_limit),
            QueryGuard::default().with_max_pages(pages_limit),
        ];
        for guard in guards {
            let reference = execute_opts(&plan, &catalog, guard, &reference_opts());
            for dop in DOPS {
                let vec = execute_opts(
                    &plan,
                    &catalog,
                    guard,
                    &ExecOptions::with_parallelism(dop),
                );
                match (&reference, &vec) {
                    (Ok(s), Ok(v)) => assert_matches_reference(s, v, &format!("dop {dop}")),
                    (
                        Err(EngineError::BudgetExceeded { resource: rs, limit: ls, spent: ss }),
                        Err(EngineError::BudgetExceeded { resource: rv, limit: lv, spent: sv }),
                    ) => {
                        prop_assert_eq!(rv, rs, "breach resource diverged at dop {}", dop);
                        prop_assert_eq!(lv, ls, "breach limit diverged at dop {}", dop);
                        if dop == 1 {
                            prop_assert_eq!(
                                sv, ss,
                                "serial vectorized breach must report the reference trip point"
                            );
                        } else {
                            prop_assert!(
                                sv > lv,
                                "breach must report spent {} > limit {}", sv, lv
                            );
                        }
                    }
                    (s, v) => {
                        return Err(TestCaseError::fail(format!(
                            "outcome diverged at dop {dop}: reference {s:?} vs vectorized {v:?}"
                        )));
                    }
                }
            }
        }
    }
}

/// Pages-budget parity on an index union: the index pages of each seek
/// and the union's heap pages are charged by the coordinator phase the
/// pipeline shares with the reference, so every limit — tripping after
/// the first seek, after the second, on the heap fetch, or not at all —
/// must classify *and* report `spent` identically at every dop.
#[test]
fn index_union_page_breach_matches_reference() {
    let schema = Schema::new(vec![
        Attribute::new("a", AttrDomain::categorical(["rare", "common"])),
        Attribute::new("b", AttrDomain::categorical(["rare", "common"])),
    ])
    .unwrap();
    // Both rare members are clustered at the head of a 20k-row heap, so
    // two index seeks beat a scan decisively.
    let rows = (0..20_000u32).map(|i| vec![u16::from(i >= 100), u16::from(!(50..200).contains(&i))]);
    let ds = Dataset::from_rows(schema.clone(), rows).unwrap();
    let mut cat = Catalog::new();
    let t = cat.add_table(Table::with_page_bytes("t", &ds, 256)).unwrap();
    cat.create_index(t, &[AttrId(0)]);
    cat.create_index(t, &[AttrId(1)]);
    let rare = |attr| Expr::Atom(Atom { attr: AttrId(attr), pred: AtomPred::Eq(0) });
    let no_zone = OptimizerOptions { use_zone_maps: false, ..OptimizerOptions::default() };
    let plan = choose_plan(Expr::Or(vec![rare(0), rare(1)]), t, &schema, &cat, &no_zone);
    assert!(matches!(plan.access, AccessPath::IndexUnion(_)), "plan: {:?}", plan.access);

    let unlimited =
        execute_opts(&plan, &cat, QueryGuard::unlimited(), &reference_opts()).unwrap();
    let total = unlimited.metrics.total_pages();
    assert!(unlimited.metrics.index_pages_read >= 2 && unlimited.metrics.heap_pages_read > 2);
    let mut breaches = std::collections::BTreeSet::new();
    for limit in 0..=total {
        let guard = QueryGuard::default().with_max_pages(limit);
        let reference = execute_opts(&plan, &cat, guard, &reference_opts());
        for dop in DOPS {
            let vec = execute_opts(&plan, &cat, guard, &ExecOptions::with_parallelism(dop));
            match (&reference, &vec) {
                (Ok(s), Ok(v)) => {
                    assert_eq!(limit, total, "only the full budget succeeds");
                    assert_matches_reference(s, v, &format!("dop {dop}, limit {limit}"));
                }
                (Err(s), Err(v)) => {
                    assert_eq!(v, s, "dop {dop}, limit {limit}");
                    if let EngineError::BudgetExceeded { resource, spent, .. } = s {
                        assert_eq!(*resource, GuardResource::PagesRead);
                        breaches.insert(*spent);
                    }
                }
                (s, v) => panic!("limit {limit}, dop {dop}: reference {s:?} vs pipeline {v:?}"),
            }
        }
    }
    assert!(breaches.len() >= 3, "each seek and the heap fetch trip: {breaches:?}");
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

/// A 9,000-row table `t` (id 1) of 37-row pages, whose page 70 every
/// query below proves empty from its zone map, and a tree and a Bayes
/// model trained on the small table `train` (id 0) of the same schema.
fn engine_with_big_table() -> Engine {
    let mut train = Dataset::new(schema());
    for i in 0..96u16 {
        let (a, b) = (i % 4, i / 4 % 3);
        train.push_encoded(&[a, b, u16::from(a >= 2 && b != 1)]).unwrap();
    }
    let rows = (0..9_000usize).map(|i| {
        let a = if i / ROWS_PER_PAGE == SKIPPED_PAGE { 0 } else { i % 4 };
        vec![a as u16, (i / 4 % 3) as u16, (i / 12 % 2) as u16]
    });
    let big = Dataset::from_rows(schema(), rows).unwrap();
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("train", &train)).unwrap();
    let page_bytes = ROWS_PER_PAGE * 3 * ASSUMED_COLUMN_BYTES;
    cat.add_table(Table::with_page_bytes("t", &big, page_bytes)).unwrap();
    let e = Engine::new(cat);
    for ddl in [
        "CREATE MINING MODEL m_tree ON train PREDICT label USING decision_tree",
        "CREATE MINING MODEL m_bayes ON train PREDICT label USING bayes",
    ] {
        let out = e.execute_sql(ddl).expect(ddl);
        assert!(matches!(out, StatementOutcome::ModelCreated { .. }), "{ddl}");
    }
    e
}

/// The pipeline's outcome against the reference's under one guard:
/// equal results, or the same breach — the same error outright at dop 1
/// and for a rows breach (`spent` is the per-row trip point at every
/// dop), the same resource and limit otherwise.
fn assert_same_outcome(
    reference: &Result<ExecResult, EngineError>,
    got: &Result<ExecResult, EngineError>,
    dop: usize,
    ctx: &str,
) {
    match (reference, got) {
        (Ok(s), Ok(v)) => assert_matches_reference(s, v, ctx),
        (
            Err(EngineError::BudgetExceeded { resource: rs, limit: ls, spent: ss }),
            Err(EngineError::BudgetExceeded { resource: rv, limit: lv, spent: sv }),
        ) => {
            assert_eq!((rv, lv), (rs, ls), "breach diverged: {ctx}");
            if dop == 1 || *rs == GuardResource::RowsExamined {
                assert_eq!(sv, ss, "trip point diverged: {ctx}");
            } else {
                assert!(sv > lv, "breach must report spent {sv} > limit {lv}: {ctx}");
            }
        }
        (s, v) => panic!("outcome diverged, {ctx}: reference {s:?} vs pipeline {v:?}"),
    }
}

/// Scans of five batches whose batch and page boundaries differ and
/// whose second batch is cut short by a zone-skipped
/// page — through a lone `Col` leaf, a root `Boxes` leaf, a `Col` in
/// front of a `Boxes`, a compiled-out tree, an envelope in front of a
/// cascaded mining residual, a generic `Or` with a mining child, and a
/// black-box residual scored row by row — agree with the reference on
/// rows and every counter the two share, agree with each other at every
/// dop on the zeroed reorder counters, and breach every rows, pages
/// and invocations limit across the first batch boundary exactly as the
/// reference does. The batches enter the compiled program as row
/// ranges; nothing here can tell.
#[test]
fn multi_page_batches_match_reference_across_every_boundary() {
    let e = engine_with_big_table();
    let batch_end = BATCH_ROWS / ROWS_PER_PAGE * ROWS_PER_PAGE;
    assert!(batch_end != BATCH_ROWS);
    assert!(batch_end < SKIPPED_PAGE * ROWS_PER_PAGE && SKIPPED_PAGE * ROWS_PER_PAGE < 2 * batch_end);

    let atom = |attr, pred| Expr::Atom(Atom { attr: AttrId(attr), pred });
    let not_a0 = || atom(0, AtomPred::Range { lo: 1, hi: 3 });
    let predict = |model| Expr::Mining(MiningPred::ClassEq { model, class: ClassId(1) });
    let boxes = Expr::Or(vec![
        Expr::And(vec![atom(0, AtomPred::Eq(1)), atom(1, AtomPred::Eq(0))]),
        Expr::And(vec![atom(0, AtomPred::Eq(2)), atom(1, AtomPred::Range { lo: 1, hi: 2 })]),
        atom(0, AtomPred::Eq(3)),
    ]);
    // (envelopes and compilation, predicate)
    let cases = [
        (true, not_a0()),
        (true, Expr::And(vec![not_a0(), boxes.clone()])),
        (true, Expr::And(vec![
            not_a0(),
            Expr::Or(vec![atom(1, AtomPred::Eq(2)), predict(1)]),
        ])),
        (true, boxes),
        (true, Expr::And(vec![not_a0(), predict(0)])),
        (true, Expr::And(vec![not_a0(), predict(1)])),
        (false, Expr::And(vec![not_a0(), predict(1)])),
    ];
    for (optimized, expr) in cases {
        e.set_use_envelopes(optimized);
        e.set_compile_models(optimized);
        let plan = e.plan_predicate(1, expr.clone());
        assert!(matches!(plan.access, AccessPath::FullScan), "plan: {:?}", plan.access);
        let catalog = e.catalog();
        let t = &catalog.table(1).table;
        assert_eq!(t.rows_per_page(), ROWS_PER_PAGE);
        assert!(t.n_rows() >= 3 * BATCH_ROWS);
        let run = |guard: QueryGuard, dop: Option<usize>| {
            let opts = match dop {
                None => reference_opts(),
                Some(dop) => ExecOptions::with_parallelism(dop),
            };
            execute_opts(&plan, &catalog, guard, &opts)
        };
        let check = |guard: QueryGuard, what: &str| {
            let reference = run(guard, None);
            let mut serial: Option<ExecResult> = None;
            for dop in DOPS {
                let ctx = format!("{what}, dop {dop}, optimized {optimized}, expr {expr:?}");
                let got = run(guard, Some(dop));
                assert_same_outcome(&reference, &got, dop, &ctx);
                // What only the pipeline has is equal at every dop.
                let Ok(got) = got else { continue };
                let first = serial.get_or_insert_with(|| got.clone());
                assert_eq!(got.metrics.clauses_reordered, first.metrics.clauses_reordered, "{ctx}");
                assert_eq!(got.metrics.factor_hits, first.metrics.factor_hits, "{ctx}");
            }
            reference
        };

        let unlimited = check(QueryGuard::unlimited(), "unlimited").expect("cannot breach");
        assert_eq!(unlimited.metrics.pages_skipped, 1, "{expr:?}");

        // One page either side of the first batch boundary, row by row.
        for limit in (batch_end - ROWS_PER_PAGE - 1..=batch_end + ROWS_PER_PAGE + 1).map(|l| l as u64) {
            let breach = check(QueryGuard::default().with_max_rows_examined(limit), "rows");
            assert!(matches!(
                breach,
                Err(EngineError::BudgetExceeded { resource: GuardResource::RowsExamined, spent, .. })
                    if spent == limit + 1
            ));
        }
        let boundary_page = (batch_end / ROWS_PER_PAGE) as u64;
        for limit in boundary_page - 2..=boundary_page + 2 {
            let breach = check(QueryGuard::default().with_max_pages(limit), "pages");
            assert!(breach.is_err(), "{limit} pages cannot cover the scan");
        }
        if !optimized {
            // No cascade: one scorer call per row reaching the mining
            // predicate.
            let scored_in_first_batch =
                (0..batch_end as u32).filter(|&r| t.cell(r, 0) != 0).count() as u64;
            for limit in scored_in_first_batch - 3..=scored_in_first_batch + 3 {
                let breach = check(QueryGuard::default().with_max_model_invocations(limit), "calls");
                assert!(matches!(
                    breach,
                    Err(EngineError::BudgetExceeded {
                        resource: GuardResource::ModelInvocations, spent, ..
                    }) if spent == limit + 1
                ));
            }
        }
    }
}

/// The fused kernels for `PREDICT(m1) = PREDICT(m2)` and `PREDICT(m) =
/// label` on the five-batch table, alone and behind a `Col` leaf, with
/// envelopes off so every reached row meets the mining predicate: model
/// agreement between the Bayes model and `m_perm` — the same model
/// trained on labels stored in reverse order, every label under another
/// id — and between the uncascaded tree and the Bayes model, which share
/// ids; the label column against both Bayes models. With the cascade on
/// and off, every dop agrees with the reference on rows and every
/// counter, and breaches every rows, pages and invocations limit across
/// the first batch boundary as the reference does.
#[test]
fn fused_agreement_and_label_column_batches_match_reference() {
    let e = engine_with_big_table();
    let schema = schema();
    let view = mpq_engine::labeled_view(&e.catalog(), 0, AttrId(2)).unwrap();
    let labels = view.labels.iter().map(|c| ClassId(1 - c.0)).collect();
    let names = view.class_names.iter().rev().cloned().collect();
    let nb = NaiveBayes::train(&LabeledDataset::new(view.data, labels, names).unwrap()).unwrap();
    let model = mpq_engine::ProjectedModel::new(schema, AttrId(2), std::sync::Arc::new(nb));
    e.register_model("m_perm", std::sync::Arc::new(model), DeriveOptions::default()).unwrap();
    e.set_use_envelopes(false);
    let batch_end = BATCH_ROWS / ROWS_PER_PAGE * ROWS_PER_PAGE;

    let not_a0 = || Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 1, hi: 3 } });
    let preds = [
        MiningPred::ModelsAgree { m1: 1, m2: 2 },
        MiningPred::ModelsAgree { m1: 0, m2: 1 },
        MiningPred::ClassEqColumn { model: 1, column: AttrId(2) },
        MiningPred::ClassEqColumn { model: 2, column: AttrId(2) },
    ];
    for compile in [true, false] {
        e.set_compile_models(compile);
        for pred in &preds {
            for behind_col in [false, true] {
                let expr = if behind_col {
                    Expr::And(vec![not_a0(), Expr::Mining(pred.clone())])
                } else {
                    Expr::Mining(pred.clone())
                };
                let plan = e.plan_predicate(1, expr.clone());
                assert!(matches!(plan.access, AccessPath::FullScan), "plan: {:?}", plan.access);
                let catalog = e.catalog();
                let models = pred.models();
                let uncascaded = models.iter().filter(|m| !plan.cascades.contains(m)).count();
                let want = if compile { usize::from(models == [0, 1]) } else { models.len() };
                assert_eq!(uncascaded, want, "{expr:?}");
                let run = |guard: QueryGuard, dop: Option<usize>| {
                    let opts = dop.map_or_else(reference_opts, ExecOptions::with_parallelism);
                    execute_opts(&plan, &catalog, guard, &opts)
                };
                let check = |guard: QueryGuard, what: &str| {
                    let reference = run(guard, None);
                    for dop in DOPS {
                        let ctx = format!("{what}, compile {compile}, dop {dop}, expr {expr:?}");
                        assert_same_outcome(&reference, &run(guard, Some(dop)), dop, &ctx);
                    }
                    reference
                };
                let unlimited = check(QueryGuard::unlimited(), "unlimited").expect("cannot breach");
                assert_eq!(unlimited.metrics.pages_skipped, u64::from(behind_col), "{expr:?}");
                for limit in [batch_end - 1, batch_end, batch_end + 1].map(|l| l as u64) {
                    assert!(
                        check(QueryGuard::default().with_max_rows_examined(limit), "rows").is_err()
                    );
                }
                let boundary_page = (batch_end / ROWS_PER_PAGE) as u64;
                for limit in boundary_page - 1..=boundary_page + 1 {
                    assert!(check(QueryGuard::default().with_max_pages(limit), "pages").is_err());
                }
                // One scorer call per reached row and uncascaded model; a
                // cascaded model calls none.
                let t = &catalog.table(1).table;
                let reached =
                    (0..batch_end as u32).filter(|&r| !behind_col || t.cell(r, 0) != 0).count();
                let calls = (reached * uncascaded) as u64;
                if calls == 0 {
                    assert_eq!(unlimited.metrics.model_invocations, 0, "{expr:?}");
                    continue;
                }
                for limit in calls - 3..=calls + 3 {
                    let breach =
                        check(QueryGuard::default().with_max_model_invocations(limit), "calls");
                    assert!(matches!(
                        breach,
                        Err(EngineError::BudgetExceeded {
                            resource: GuardResource::ModelInvocations, spent, ..
                        }) if spent > limit
                    ));
                }
            }
        }
    }
}
