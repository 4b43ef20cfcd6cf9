//! Differential oracle for adaptive predicate evaluation.
//!
//! The fixed-order scalar interpreter (`vectorized: false`) is the
//! reference semantics. For random DNF shapes over all five model
//! algorithms, the adaptive vectorized path must reproduce, at every
//! degree of parallelism:
//!
//! * the exact row set,
//! * the exact `model_invocations` count with the memo disabled
//!   (reordering only permutes scalar-free runs, so the same rows reach
//!   every model scorer in the same order),
//! * the guard-breach classification when a budget trips, and
//! * dop-independent values for the new `clauses_reordered` /
//!   `factor_hits` counters and the calibration feedback observations.
//!
//! A separate test drives the feedback loop end to end: a query whose
//! observed conjunction selectivity contradicts the independence
//! assumption must evict its cached plan, flip from full scan to index
//! seek on the next run, and surface the fed-back costing in EXPLAIN.
//!
//! A third pins what adaptation still applies to now that a flat column
//! DNF is one order-free `Boxes` leaf: three adversarially written
//! shapes over a 50k-row table, each against the scalar reference.

use mpq_engine::{
    execute_opts, parse, Atom, AtomPred, Catalog, Engine, EngineError, ExecOptions, Expr,
    GuardResource, QueryGuard, StatementOutcome, Table,
};
use mpq_types::{AttrDomain, Attribute, AttrId, Dataset, MemberSet, Schema};
use proptest::prelude::*;

const DOPS: [usize; 4] = [1, 2, 4, 8];

// Classification trains on the mixed-schema table `t`; clustering needs
// an all-ordered schema, so it trains on the numeric table `pts`.
const ALGORITHMS: [(&str, &str, &str); 5] = [
    ("dt", "t", "PREDICT outcome USING decision_tree"),
    ("nb", "t", "PREDICT outcome USING naive_bayes"),
    ("rl", "t", "PREDICT outcome USING rules"),
    ("km", "pts", "WITH 2 CLUSTERS USING kmeans"),
    ("gm", "pts", "WITH 2 CLUSTERS USING gmm"),
];

/// Atom pool for DNF generation over `t`: cheap scalar-free atoms mixed
/// with mining predicates over every classification algorithm.
const T_ATOMS: [&str; 12] = [
    "x <= 1",
    "x > 1",
    "f = 'a'",
    "f = 'b'",
    "outcome = 'lo'",
    "outcome = 'hi'",
    "PREDICT(dt) = 'lo'",
    "PREDICT(dt) = 'hi'",
    "PREDICT(nb) = 'lo'",
    "PREDICT(nb) = 'hi'",
    "PREDICT(rl) = 'lo'",
    "PREDICT(rl) = 'hi'",
];

/// Atom pool over `pts`, covering both clustering algorithms.
const PTS_ATOMS: [&str; 8] = [
    "px <= 1",
    "px > 1",
    "py <= 1",
    "py > 1",
    "PREDICT(km) = 'cluster_0'",
    "PREDICT(km) = 'cluster_1'",
    "PREDICT(gm) = 'cluster_0'",
    "PREDICT(gm) = 'cluster_1'",
];

/// Engine over `t` (x, f, outcome) and `pts` (px, py) with all five
/// models trained healthy. The deterministic base grid guarantees every
/// class has training examples; `extra` adds the proptest-random bulk.
fn engine_with_rows(extra: &[(u16, u16, u16)]) -> Engine {
    let schema = Schema::new(vec![
        Attribute::new("x", AttrDomain::binned(vec![1.0, 2.0]).unwrap()),
        Attribute::new("f", AttrDomain::categorical(["a", "b"])),
        Attribute::new("outcome", AttrDomain::categorical(["lo", "hi"])),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for x in 0..3u16 {
        for f in 0..2u16 {
            for y in 0..2u16 {
                ds.push_encoded(&[x, f, y]).unwrap();
            }
        }
    }
    for &(x, f, y) in extra {
        ds.push_encoded(&[x, f, y]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("t", &ds)).unwrap();

    let pts_schema = Schema::new(vec![
        Attribute::new("px", AttrDomain::binned(vec![1.0, 2.0]).unwrap()),
        Attribute::new("py", AttrDomain::binned(vec![1.0]).unwrap()),
    ])
    .unwrap();
    let mut pts = Dataset::new(pts_schema);
    for x in 0..3u16 {
        for f in 0..2u16 {
            pts.push_encoded(&[x, f]).unwrap();
        }
    }
    for &(x, f, _) in extra {
        pts.push_encoded(&[x, f]).unwrap();
    }
    cat.add_table(Table::from_dataset("pts", &pts)).unwrap();
    let e = Engine::new(cat);
    for (name, table, clause) in ALGORITHMS {
        let ddl = format!("CREATE MINING MODEL {name} ON {table} {clause}");
        match e.execute_sql(&ddl).expect("training must succeed") {
            StatementOutcome::ModelCreated { degraded, .. } => {
                assert!(degraded.is_none(), "model {name} must train healthy")
            }
            other => panic!("expected ModelCreated, got {other:?}"),
        }
    }
    e
}

/// Renders DNF atom indices as a WHERE clause: `(a AND b) OR (c)`.
fn dnf_sql(atoms: &[&str], shape: &[Vec<usize>]) -> String {
    shape
        .iter()
        .map(|conj| {
            let parts: Vec<&str> = conj.iter().map(|&i| atoms[i % atoms.len()]).collect();
            format!("({})", parts.join(" AND "))
        })
        .collect::<Vec<_>>()
        .join(" OR ")
}

/// The oracle proper: reference (scalar, fixed order) vs the fixed-order
/// vectorized leg and the adaptive leg at every dop, memo off so model
/// invocation counts are raw.
fn check_query(e: &Engine, table: &str, where_sql: &str) -> Result<(), TestCaseError> {
    let sql = format!("SELECT * FROM {table} WHERE {where_sql}");
    let parsed = {
        let catalog = e.catalog();
        parse(&sql, &catalog).expect("generated SQL must parse")
    };
    let plan = e.plan_predicate(parsed.table, parsed.predicate);
    let catalog = e.catalog();
    let no_memo = |adaptive: bool, dop: usize| ExecOptions {
        parallelism: dop,
        memo_capacity: 0,
        adaptive,
        ..ExecOptions::default()
    };
    let reference = execute_opts(
        &plan,
        &catalog,
        QueryGuard::unlimited(),
        &ExecOptions { vectorized: false, ..no_memo(false, 1) },
    )
    .expect("reference must run");
    // Fixed-order vectorized (what SET ADAPTIVE OFF executes).
    let fixed = execute_opts(&plan, &catalog, QueryGuard::unlimited(), &no_memo(false, 1))
        .expect("fixed-order must run");
    prop_assert_eq!(&fixed.rows, &reference.rows, "fixed-order rows: {}", sql);
    prop_assert_eq!(
        fixed.metrics.model_invocations,
        reference.metrics.model_invocations,
        "fixed-order invocations: {}",
        sql
    );
    prop_assert_eq!(fixed.metrics.clauses_reordered, 0);
    prop_assert_eq!(fixed.metrics.factor_hits, 0);
    prop_assert!(fixed.feedback.is_empty(), "fixed order reports no feedback");

    let mut baseline: Option<(u64, u64, Vec<mpq_engine::FeedbackObservation>)> = None;
    for dop in DOPS {
        let adaptive =
            execute_opts(&plan, &catalog, QueryGuard::unlimited(), &no_memo(true, dop))
                .expect("adaptive must run");
        prop_assert_eq!(&adaptive.rows, &reference.rows, "rows at dop {}: {}", dop, sql);
        prop_assert_eq!(
            adaptive.metrics.model_invocations,
            reference.metrics.model_invocations,
            "invocations at dop {}: {}",
            dop,
            sql
        );
        let counters = (
            adaptive.metrics.clauses_reordered,
            adaptive.metrics.factor_hits,
            adaptive.feedback.clone(),
        );
        match &baseline {
            None => baseline = Some(counters),
            Some((reord, hits, fb)) => {
                prop_assert_eq!(
                    counters.0, *reord,
                    "clauses_reordered must be dop-deterministic: {}", sql
                );
                prop_assert_eq!(
                    counters.1, *hits,
                    "factor_hits must be dop-deterministic: {}", sql
                );
                prop_assert_eq!(
                    &counters.2, fb,
                    "feedback must be dop-deterministic: {}", sql
                );
            }
        }
    }

    // Guard-breach classification: halve a budget the query actually
    // consumed and demand the same typed breach from every leg.
    let (guard, resource) = if reference.metrics.model_invocations >= 2 {
        (
            QueryGuard::unlimited()
                .with_max_model_invocations(reference.metrics.model_invocations / 2),
            GuardResource::ModelInvocations,
        )
    } else if reference.metrics.rows_examined >= 2 {
        (
            QueryGuard::unlimited()
                .with_max_rows_examined(reference.metrics.rows_examined / 2),
            GuardResource::RowsExamined,
        )
    } else {
        return Ok(());
    };
    let classify = |r: Result<mpq_engine::ExecResult, EngineError>| match r {
        Err(EngineError::BudgetExceeded { resource, .. }) => Some(resource),
        _ => None,
    };
    let want = classify(execute_opts(
        &plan,
        &catalog,
        guard,
        &ExecOptions { vectorized: false, ..no_memo(false, 1) },
    ));
    prop_assert_eq!(want, Some(resource), "reference must breach: {}", sql);
    for dop in DOPS {
        let got = classify(execute_opts(&plan, &catalog, guard, &no_memo(true, dop)));
        prop_assert_eq!(
            got,
            want,
            "breach classification at dop {}: {}",
            dop,
            sql
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn adaptive_matches_fixed_order_scalar_reference(
        extra in proptest::collection::vec((0u16..3, 0u16..2, 0u16..2), 60..120),
        shapes in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0usize..64, 1..4), 1..4),
            2..5,
        ),
    ) {
        let e = engine_with_rows(&extra);
        for (i, shape) in shapes.iter().enumerate() {
            // Alternate between the classification table and the
            // clustering table so all five algorithms get exercised.
            let (table, atoms): (&str, &[&str]) =
                if i % 2 == 0 { ("t", &T_ATOMS) } else { ("pts", &PTS_ATOMS) };
            check_query(&e, table, &dnf_sql(atoms, shape))?;
        }
    }
}

/// Feedback convergence: a conjunction whose observed selectivity is
/// ~100x below the independence estimate must re-cost on the second
/// run — evicting the cached full-scan plan, flipping to an index
/// seek, and surfacing the fed-back costing in EXPLAIN — with the row
/// set unchanged throughout.
#[test]
fn feedback_convergence_flips_plan_and_shows_in_explain() {
    let schema = Schema::new(vec![
        Attribute::new("a", AttrDomain::categorical(["a0", "a1"])),
        Attribute::new("b", AttrDomain::categorical(["b0", "b1"])),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    // a and b are ~50/50 marginally but strongly anti-correlated: the
    // pair (a0, b0) appears once every 800 rows. Interleaving defeats
    // zone pruning, so the scan-vs-seek choice is purely cost.
    for i in 0..40_000u32 {
        let row: [u16; 2] = if i % 800 == 0 {
            [0, 0]
        } else if i % 800 == 400 {
            [1, 1]
        } else if i % 2 == 0 {
            [0, 1]
        } else {
            [1, 0]
        };
        ds.push_encoded(&row).unwrap();
    }
    let mut cat = Catalog::new();
    let t = cat.add_table(Table::from_dataset("t", &ds)).unwrap();
    cat.create_index(t, &[AttrId(0)]);
    let e = Engine::new(cat);
    let sql = "SELECT * FROM t WHERE a = 'a0' AND b = 'b0'";

    // First run: independence says ~25% selective, so the optimizer
    // full-scans; calibration observes the true ~0.125%.
    let first = e.query(sql).unwrap();
    assert!(first.plan.contains("Full Scan"), "first plan: {}", first.plan);
    assert!(first.metrics.feedback_entries > 0, "feedback must be recorded");
    assert_eq!(first.rows.len(), 50);

    // Second run: the fed-back selectivity flipped the cheapest access
    // path, so the cached plan was evicted and re-planning picks the
    // seek. Same rows either way.
    let second = e.query(sql).unwrap();
    assert!(!second.cached_plan, "feedback flip must evict the cached plan");
    assert!(second.plan.contains("Index Seek"), "second plan: {}", second.plan);
    assert_eq!(second.rows, first.rows);

    // Third run: the re-costed plan is stable and cache-hits.
    let third = e.query(sql).unwrap();
    assert!(third.cached_plan, "re-costed plan must be cacheable");
    assert_eq!(third.rows, first.rows);

    // EXPLAIN (a fresh plan under its own cache key) reflects both the
    // adaptive knob and the fed-back costing.
    let ex = e.query("EXPLAIN SELECT * FROM t WHERE a = 'a0' AND b = 'b0'").unwrap();
    assert!(ex.plan.contains("adaptive: on"), "plan: {}", ex.plan);
    assert!(ex.plan.contains("feedback:"), "plan: {}", ex.plan);
    assert!(ex.plan.contains("Index Seek"), "plan: {}", ex.plan);

    // SET ADAPTIVE OFF restores fixed-order execution with identical
    // rows (the fed-back plan stays, feedback just stops flowing).
    e.execute_sql("SET ADAPTIVE OFF").unwrap();
    let off = e.query(sql).unwrap();
    assert_eq!(off.rows, first.rows);
    assert_eq!(off.metrics.clauses_reordered, 0);
    assert_eq!(off.metrics.factor_hits, 0);
}

/// Three predicates whose source order is pessimal, over twelve
/// interleaved 128-member columns (odd strides mod a power of two, so
/// zone maps prune nothing and only evaluation order is at stake):
///
/// * `expensive_first` — a two-disjunct flat column DNF, a nine-atom
///   conjunction accepting ~4% before a one-atom disjunct accepting
///   87.5%. It compiles to a single `Boxes` leaf, which has no order:
///   nothing to reorder, nothing to factor, adaptive on or off.
/// * `shared_subexpr` — eight disjuncts `(S AND u_i)` sharing the
///   eight-way inner disjunction `S`. `S` is a `Boxes` leaf under a
///   generic `Or`, which still factors it: evaluated once per selection
///   vector instead of once per disjunct.
/// * `correlated` — a conjunction over two correlated columns written
///   broad-clause-first. Calibration sees the true pass rates and moves
///   the rare clause to the front of the root `And`.
///
/// On each, the scalar reference, the fixed-order leg and the adaptive
/// leg return one row set, and the fixed leg reports no adaptive work.
#[test]
fn adaptation_applies_above_boxes_leaves_and_never_changes_rows() {
    const N_ROWS: usize = 50_000;
    const CARD: u16 = 128;
    const PRIMES: [usize; 8] = [3, 5, 7, 11, 13, 17, 19, 23];
    // Columns 0..8 (`h0`..`h7`) feed the expensive conjunction and the
    // shared inner disjunction, `u` partitions the disjuncts, `cheap`
    // is the broad one-atom disjunct, `ca`/`cb` are the correlated pair.
    const U: usize = 8;
    const CHEAP: usize = 9;
    const CA: usize = 10;
    const CB: usize = 11;
    let domain = || AttrDomain::binned((1..CARD as usize).map(|b| b as f64).collect()).unwrap();
    let names = ["h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7", "u", "cheap", "ca", "cb"];
    let schema =
        Schema::new(names.iter().map(|n| Attribute::new(*n, domain())).collect()).unwrap();
    let mut ds = Dataset::new(schema);
    for i in 0..N_ROWS {
        let mut row = [0u16; 12];
        for (k, p) in PRIMES.iter().enumerate() {
            row[k] = ((i * p + k * 37) % CARD as usize) as u16;
        }
        row[U] = ((i * 31 + 5) % CARD as usize) as u16;
        row[CHEAP] = ((i * 45 + 17) % CARD as usize) as u16;
        row[CA] = ((i * 9 + 2) % CARD as usize) as u16;
        // Derived from `ca`, not drawn independently: per-clause pass
        // rates are honest, the joint distribution is what static
        // independence costing gets wrong.
        row[CB] = ((row[CA] as usize * 37 + i) % CARD as usize) as u16;
        ds.push_encoded(&row).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("events", &ds)).unwrap();
    let engine = Engine::new(cat);

    let atom = |col: usize, members: std::ops::Range<u16>| {
        Expr::Atom(Atom {
            attr: AttrId(col as u16),
            pred: AtomPred::In(MemberSet::of(CARD, members)),
        })
    };
    let shared = || Expr::Or((0..8).map(|k| atom(k, 0..8)).collect());
    let shapes = [
        (
            "expensive_first",
            Expr::Or(vec![
                Expr::And((0..8).map(|k| atom(k, 0..121)).chain([atom(U, 0..8)]).collect()),
                atom(CHEAP, 0..112),
            ]),
        ),
        (
            "shared_subexpr",
            Expr::Or(
                (0..8)
                    .map(|d| Expr::And(vec![shared(), atom(U, d * 16..(d + 1) * 16)]))
                    .collect(),
            ),
        ),
        ("correlated", Expr::And(vec![atom(CA, 0..116), atom(CB, 0..8)])),
    ];
    let catalog = engine.catalog();
    for (name, expr) in shapes {
        let plan = engine.plan_predicate(0, expr);
        let run = |opts: ExecOptions| {
            execute_opts(&plan, &catalog, QueryGuard::unlimited(), &opts).expect("unlimited scan")
        };
        let scalar = run(ExecOptions { vectorized: false, ..ExecOptions::default() });
        let fixed = run(ExecOptions { adaptive: false, ..ExecOptions::default() });
        let adaptive = run(ExecOptions::default());
        assert!(!scalar.rows.is_empty() && scalar.rows.len() < N_ROWS, "{name}");
        assert_eq!(fixed.rows, scalar.rows, "{name}: fixed-order row set diverged");
        assert_eq!(adaptive.rows, scalar.rows, "{name}: adaptive row set diverged");
        assert_eq!(fixed.metrics.clauses_reordered, 0, "{name}: fixed leg reordered");
        assert_eq!(fixed.metrics.factor_hits, 0, "{name}: fixed leg factored");
        let m = &adaptive.metrics;
        match name {
            "expensive_first" => {
                assert_eq!((m.clauses_reordered, m.factor_hits), (0, 0), "{name}: one leaf")
            }
            "shared_subexpr" => assert!(m.factor_hits > 0, "{name}: factoring never fired"),
            _ => assert!(m.clauses_reordered > 0, "{name}: reordering never fired"),
        }
    }
}
