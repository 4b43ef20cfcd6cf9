//! Differential oracle for partition-parallel execution: for
//! proptest-generated tables, models (all five algorithms) and query
//! predicates, the pipeline on scoped workers must agree with the same
//! pipeline run inline at dop 1 on row sets, deterministic metric
//! totals, guard headroom, and guard-breach classification — at every
//! degree of parallelism, and also under injected scorer panics and
//! index faults.

use mining_predicates::prelude::*;
use mpq_engine::{execute_opts, Atom, AtomPred, ExecMetrics, ExecOptions, StatementOutcome};
use mpq_types::MemberSet;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DOPS: [usize; 4] = [1, 2, 4, 8];

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

/// All-ordered companion schema: Gaussian-mixture clustering requires
/// every attribute binned, which a categorical label column forbids —
/// so the GMM trains on its own numeric table.
fn numeric_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("x", AttrDomain::binned(vec![1.0, 2.0, 3.0]).unwrap()),
        Attribute::new("y", AttrDomain::binned(vec![1.0, 2.0]).unwrap()),
    ])
    .unwrap()
}

/// Builds an engine over the generated rows with tiny (256-byte) pages
/// — so even small tables span many pages and split into many morsels —
/// plus single-column indexes, and trains one model per algorithm:
/// tree / bayes / rules / k-means on table 0 (`t`, categorical with a
/// label column), GMM on table 1 (`tn`, all binned).
///
/// A deterministic prefix covers the full attribute cross product so
/// every training set contains both labels and every member, whatever
/// proptest generates.
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
        // Deterministic concept so classifiers learn something real.
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
/// alone and mixed with column atoms — exercising constant scans, index
/// seeks, index unions and full scans with black-box residuals.
fn query_corpus() -> Vec<(usize, Expr)> {
    let mut exprs = Vec::new();
    // Models 0..4 (tree, bayes, rules, k-means) live on table 0; the
    // GMM (model 4) lives on the all-binned table 1.
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

/// Asserts the parallel result is indistinguishable from the serial
/// one: identical rows and identical deterministic metrics. Wall-clock
/// fields (`elapsed`, `guard.time_remaining_ms`) are the only fields
/// allowed to differ, so the comparison is field-by-field.
fn assert_matches_serial(serial: &mpq_engine::ExecResult, parallel: &mpq_engine::ExecResult, ctx: &str) {
    assert_eq!(parallel.rows, serial.rows, "row set diverged: {ctx}");
    let (s, p): (&ExecMetrics, &ExecMetrics) = (&serial.metrics, &parallel.metrics);
    assert_eq!(p.heap_pages_read, s.heap_pages_read, "heap pages: {ctx}");
    assert_eq!(p.index_pages_read, s.index_pages_read, "index pages: {ctx}");
    assert_eq!(p.pages_skipped, s.pages_skipped, "zone skips: {ctx}");
    assert_eq!(p.rows_examined, s.rows_examined, "rows examined: {ctx}");
    assert_eq!(p.model_invocations, s.model_invocations, "invocations: {ctx}");
    assert_eq!(p.memo_hits, s.memo_hits, "memo hits: {ctx}");
    assert_eq!(p.cascade_accepts, s.cascade_accepts, "cascade accepts: {ctx}");
    assert_eq!(p.cascade_rejects, s.cascade_rejects, "cascade rejects: {ctx}");
    assert_eq!(p.band_rows, s.band_rows, "band rows: {ctx}");
    assert_eq!(p.clauses_reordered, s.clauses_reordered, "clauses reordered: {ctx}");
    assert_eq!(p.factor_hits, s.factor_hits, "factor hits: {ctx}");
    assert_eq!(p.output_rows, s.output_rows, "output rows: {ctx}");
    assert_eq!(p.index_fallback, s.index_fallback, "fallback flag: {ctx}");
    assert_eq!(p.guard.rows_remaining, s.guard.rows_remaining, "rows headroom: {ctx}");
    assert_eq!(p.guard.pages_remaining, s.guard.pages_remaining, "pages headroom: {ctx}");
    assert_eq!(
        p.guard.model_invocations_remaining, s.guard.model_invocations_remaining,
        "invocation headroom: {ctx}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole guarantee: every query in the corpus, over all five
    /// model algorithms, returns the same rows and metrics at
    /// parallelism 1, 2, 4 and 8 as the serial reference executor —
    /// with envelope optimization both on and off.
    #[test]
    fn parallel_execution_matches_serial(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 40..120),
    ) {
        let e = engine_with_models(&extra);
        for use_envelopes in [true, false] {
            e.set_use_envelopes(use_envelopes);
            for (table, expr) in query_corpus() {
                let plan = e.plan_predicate(table, expr.clone());
                let catalog = e.catalog();
                let serial = execute_guarded(&plan, &catalog, QueryGuard::unlimited())
                    .expect("unlimited serial run cannot fail");
                for dop in DOPS {
                    let par = execute_opts(
                        &plan,
                        &catalog,
                        QueryGuard::unlimited(),
                        &ExecOptions::with_parallelism(dop),
                    )
                    .expect("unlimited parallel run cannot fail");
                    assert_matches_serial(
                        &serial,
                        &par,
                        &format!("dop {dop}, envelopes {use_envelopes}, expr {expr:?}"),
                    );
                }
            }
        }
    }

    /// Guard parity under a generated single-resource budget: when the
    /// serial executor breaches, every parallel degree breaches with
    /// the *same* resource classification; when the serial executor
    /// succeeds, the parallel executors succeed with identical
    /// headroom. (Budgets are single-resource because two resources
    /// crossing their limits on the same row are classified in check
    /// order serially but in charge order in parallel.)
    #[test]
    fn guard_breach_classification_matches_serial(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 40..100),
        rows_limit in 1u64..200,
        inv_limit in 1u64..200,
        pages_limit in 0u64..80,
    ) {
        let e = engine_with_models(&extra);
        e.set_use_envelopes(false); // full scan + black-box residual
        let expr = Expr::Mining(MiningPred::ClassEq { model: 1, class: ClassId(1) });
        let plan = e.plan_predicate(0, expr);
        let catalog = e.catalog();

        let guards = [
            QueryGuard::default().with_max_rows_examined(rows_limit),
            QueryGuard::default().with_max_model_invocations(inv_limit),
            QueryGuard::default().with_max_pages(pages_limit),
        ];
        for guard in guards {
            let serial = execute_guarded(&plan, &catalog, guard);
            for dop in DOPS {
                let par = execute_opts(
                    &plan,
                    &catalog,
                    guard,
                    &ExecOptions::with_parallelism(dop),
                );
                match (&serial, &par) {
                    (Ok(s), Ok(p)) => assert_matches_serial(s, p, &format!("dop {dop}")),
                    (
                        Err(EngineError::BudgetExceeded { resource: rs, limit: ls, .. }),
                        Err(EngineError::BudgetExceeded { resource: rp, limit: lp, spent }),
                    ) => {
                        prop_assert_eq!(rp, rs, "breach resource diverged at dop {}", dop);
                        prop_assert_eq!(lp, ls, "breach limit diverged at dop {}", dop);
                        if *rp == GuardResource::RowsExamined {
                            // One charging rule: a batch charge reports
                            // the first row past the limit, whatever
                            // the batch size or worker interleaving.
                            prop_assert_eq!(*spent, lp + 1, "rows breach at dop {}", dop);
                        } else {
                            // Page and invocation charging may overshoot
                            // the limit by in-flight work, but never
                            // under-reports.
                            prop_assert!(*spent > *lp, "breach must report spent {} > limit {}", spent, lp);
                        }
                    }
                    (s, p) => {
                        return Err(TestCaseError::fail(format!(
                            "outcome diverged at dop {dop}: serial {s:?} vs parallel {p:?}"
                        )));
                    }
                }
            }
        }
    }

    /// Fault parity: with a scorer panic armed, both executors surface
    /// a typed internal error; with an index-probe fault armed, both
    /// fall back to the identical full-scan row set. The engine stays
    /// usable after each fault clears.
    #[test]
    fn fault_injection_parity(
        extra in proptest::collection::vec((0u16..4, 0u16..3), 30..80),
        dop in 2usize..9,
    ) {
        let e = engine_with_models(&extra);
        let sql = "SELECT * FROM t WHERE PREDICT(m_bayes) = 'pos'";
        let healthy = e.query(sql).expect("healthy query").rows;

        // Scorer panic: typed Internal from both executors.
        e.fault_injector().set_scorer_panic(true);
        for p in [1, dop] {
            e.set_parallelism(p);
            match e.query(sql) {
                Err(EngineError::Internal { detail }) => {
                    prop_assert!(detail.contains("scorer panicked"), "dop {}: {}", p, detail);
                }
                other => return Err(TestCaseError::fail(format!(
                    "dop {p}: expected Internal, got {other:?}"
                ))),
            }
        }
        e.fault_injector().reset();

        // Index fault: identical fallback row set from both executors.
        e.fault_injector().set_index_probe_failure(true);
        let mut fallback_rows = Vec::new();
        for p in [1, dop] {
            e.set_parallelism(p);
            let out = e.query(sql).expect("fallback must not error");
            fallback_rows.push(out.rows);
        }
        prop_assert_eq!(&fallback_rows[0], &fallback_rows[1], "fallback row sets diverged");
        e.fault_injector().reset();

        e.set_parallelism(dop);
        prop_assert_eq!(e.query(sql).expect("usable after faults").rows, healthy);
    }
}

/// A deterministic classifier that counts every `predict` call — the
/// probe for the no-stray-work guarantee.
struct CountingModel {
    schema: Schema,
    calls: AtomicU64,
}

impl Classifier for CountingModel {
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
    fn predict(&self, row: &mpq_types::Row) -> ClassId {
        self.calls.fetch_add(1, Ordering::Relaxed);
        ClassId((row[0] + row[1]) % 2)
    }
}

impl EnvelopeProvider for CountingModel {
    fn envelope(&self, class: ClassId, _opts: &DeriveOptions) -> Envelope {
        Envelope::trivial(class, &self.schema)
    }
}

/// Satellite: a mid-scan invocation-budget breach must cancel the
/// remaining morsels promptly. The model counts its invocations; after
/// `BudgetExceeded` the count may exceed the limit only by in-flight
/// work bounded by the worker count — not by the rest of the table.
#[test]
fn breach_cancels_remaining_morsels_without_stray_work() {
    let extra: Vec<(u16, u16)> = (0..400u16).map(|i| (i % 4, (i / 4) % 3)).collect();
    let e = engine_with_models(&extra);
    let counter = Arc::new(CountingModel { schema: schema(), calls: AtomicU64::new(0) });
    e.register_model("counter", counter.clone(), DeriveOptions::default()).unwrap();
    e.set_use_envelopes(false); // every examined row invokes the model

    let n_rows = e.catalog().table(0).table.n_rows() as u64;
    let limit = 8u64;
    let dop = 4usize;
    assert!(n_rows > 4 * limit, "table must dwarf the budget for the test to bite");

    let plan = e.plan_predicate(0, Expr::Mining(MiningPred::ClassEq { model: 5, class: ClassId(0) }));
    let catalog = e.catalog();
    counter.calls.store(0, Ordering::Relaxed);
    let err = execute_opts(
        &plan,
        &catalog,
        QueryGuard::default().with_max_model_invocations(limit),
        &ExecOptions::with_parallelism(dop),
    )
    .expect_err("budget must trip");
    match err {
        EngineError::BudgetExceeded { resource, spent, .. } => {
            assert_eq!(resource, GuardResource::ModelInvocations);
            assert!(spent > limit);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    let calls = counter.calls.load(Ordering::Relaxed);
    // Each worker can have at most one evaluation in flight past the
    // breach, plus one racing the cancellation flag.
    let slack = 2 * dop as u64;
    assert!(
        calls <= limit + slack,
        "stray work after breach: {calls} invocations for a budget of {limit} (slack {slack}); \
         cancellation must stop the remaining morsels"
    );
    assert!(calls > 0, "the scan must have started");

    // Identical accounting on success: serial and parallel agree on
    // the headroom a generous budget leaves.
    let generous = QueryGuard::default()
        .with_max_rows_examined(10 * n_rows)
        .with_max_model_invocations(10 * n_rows)
        .with_max_pages(100_000);
    let serial = execute_guarded(&plan, &catalog, generous).unwrap();
    let par = execute_opts(&plan, &catalog, generous, &ExecOptions::with_parallelism(dop)).unwrap();
    assert_matches_serial(&serial, &par, "counting-model headroom");
}
