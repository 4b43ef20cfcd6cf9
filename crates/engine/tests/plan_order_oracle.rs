//! Differential oracle for the plan-time conjunct order, and checks
//! that a plan depends on the statement and the catalog alone.
//!
//! The row-at-a-time interpreter (`vectorized: false`) is the reference
//! semantics; both it and the pipeline evaluate the plan's residual in
//! the order the optimizer chose. For random DNF shapes over all five
//! model algorithms, the pipeline must reproduce, at every degree of
//! parallelism:
//!
//! * the exact row set,
//! * the exact `model_invocations` count (the optimizer only permutes
//!   mining-free runs of conjuncts, so the same rows reach every model
//!   scorer in the same order),
//! * the guard-breach classification when a budget trips, and
//! * `clauses_reordered` and `factor_hits` at 0.
//!
//! Two tests run one statement repeatedly through the engine: an
//! anti-correlated conjunction stays a cached full scan, and a
//! composite-index seek stays a cached seek. Executing a statement
//! never changes the plan of its next run.
//!
//! A third plans three adversarially written shapes over a 50k-row
//! table: the correlated conjunction comes out rare-first, and every
//! shape returns the scalar reference's rows.
//!
//! A fourth pins a zone-pruned scan whose matching pages all lie past
//! the first 4,096 rows: it skips pages and returns the same 156 rows
//! at every dop.

use mpq_engine::{
    choose_plan, execute_opts, parse, Atom, AtomPred, Catalog, Engine, EngineError, ExecOptions,
    Expr, GuardResource, OptimizerOptions, QueryGuard, StatementOutcome, Table,
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

/// The oracle proper: the reference interpreter against the pipeline at
/// every dop.
fn check_query(e: &Engine, table: &str, where_sql: &str) -> Result<(), TestCaseError> {
    let sql = format!("SELECT * FROM {table} WHERE {where_sql}");
    let parsed = {
        let catalog = e.catalog();
        parse(&sql, &catalog).expect("generated SQL must parse")
    };
    let plan = e.plan_predicate(parsed.table, parsed.predicate);
    let catalog = e.catalog();
    let reference_opts = ExecOptions { vectorized: false, ..ExecOptions::default() };
    let reference = execute_opts(&plan, &catalog, QueryGuard::unlimited(), &reference_opts)
        .expect("reference must run");

    for dop in DOPS {
        let opts = ExecOptions::with_parallelism(dop);
        let got = execute_opts(&plan, &catalog, QueryGuard::unlimited(), &opts)
            .expect("pipeline must run");
        prop_assert_eq!(&got.rows, &reference.rows, "rows at dop {}: {}", dop, sql);
        prop_assert_eq!(
            got.metrics.model_invocations,
            reference.metrics.model_invocations,
            "invocations at dop {}: {}",
            dop,
            sql
        );
        prop_assert_eq!(got.metrics.clauses_reordered, 0);
        prop_assert_eq!(got.metrics.factor_hits, 0);
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
    let want = classify(execute_opts(&plan, &catalog, guard, &reference_opts));
    prop_assert_eq!(want, Some(resource), "reference must breach: {}", sql);
    for dop in DOPS {
        let opts = ExecOptions::with_parallelism(dop);
        let got = classify(execute_opts(&plan, &catalog, guard, &opts));
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
    fn plan_order_matches_scalar_reference_at_every_dop(
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

/// A conjunction ~200x rarer than independence predicts, over a
/// single-column index that holds half the table: the seek would fetch
/// ~20,000 rows whatever `b` is, so the full scan is the right plan. It
/// is the plan of the first run and, from the cache, of every later
/// one, and EXPLAIN reports nothing learned from the runs.
#[test]
fn an_anti_correlated_conjunction_stays_a_cached_full_scan() {
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

    for run in 1..=3 {
        let out = e.query(sql).unwrap();
        assert!(out.plan.contains("Full Scan"), "run {run}: {}", out.plan);
        assert_eq!(out.cached_plan, run > 1, "run {run}");
        assert_eq!(out.rows.len(), 50, "run {run}");
        assert_eq!(out.metrics.feedback_entries, 0, "run {run}");
    }

    let ex = e.query(&format!("EXPLAIN {sql}")).unwrap();
    assert!(ex.plan.contains("Full Scan"), "plan: {}", ex.plan);
    assert!(!ex.plan.contains("feedback:"), "plan: {}", ex.plan);
}

/// A composite-index seek whose key pins every returned row: `k16`
/// rows all have `flag = 'no'`, so the residual passes every fetched
/// row. The seek is the plan of the first run and, from the cache, of
/// every later one.
#[test]
fn a_composite_index_seek_stays_a_cached_seek() {
    let schema = Schema::new(vec![
        Attribute::new("key", AttrDomain::categorical((0..1_000).map(|m| format!("k{m}")))),
        Attribute::new("flag", AttrDomain::categorical(["no", "yes"])),
    ])
    .unwrap();
    // 20 rows per key, keys interleaved so zone maps prune nothing; an
    // even key's rows are all `no`, an odd key's all `yes`.
    let rows = (0..20_000u32).map(|i| vec![(i % 1_000) as u16, (i % 2) as u16]);
    let mut cat = Catalog::new();
    let t = cat
        .add_table(Table::from_dataset("t", &Dataset::from_rows(schema, rows).unwrap()))
        .unwrap();
    cat.create_index(t, &[AttrId(0), AttrId(1)]);
    let e = Engine::new(cat);
    let sql = "SELECT * FROM t WHERE key = 'k16' AND flag = 'no'";
    for run in 1..=4 {
        let out = e.query(sql).unwrap();
        assert!(out.plan.contains("Index Seek"), "run {run}: {}", out.plan);
        assert_eq!(out.cached_plan, run > 1, "run {run}");
        assert_eq!(out.rows.len(), 20, "run {run}");
    }
}

/// Three predicates whose source order is pessimal, over twelve
/// interleaved 128-member columns (odd strides mod a power of two, so
/// zone maps prune nothing and only evaluation order is at stake):
///
/// * `expensive_first` — a two-disjunct flat column DNF, a nine-atom
///   conjunction accepting ~4% before a one-atom disjunct accepting
///   87.5%. It compiles to a single `Boxes` leaf, which has no order.
/// * `shared_subexpr` — eight disjuncts `(S AND u_i)` sharing the
///   eight-way inner disjunction `S`, a `Boxes` leaf under a generic
///   `Or`, evaluated once per disjunct.
/// * `correlated` — a conjunction over two correlated columns written
///   broad-clause-first. The first plan already puts the rare clause
///   first: its marginal is exact.
///
/// On each, the pipeline returns the scalar reference's rows.
#[test]
fn plan_time_order_puts_the_rare_conjunct_first_and_never_changes_rows() {
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
        if name == "correlated" {
            let Expr::And(conjuncts) = &plan.residual else { panic!("{:?}", plan.residual) };
            let attrs: Vec<AttrId> = conjuncts
                .iter()
                .map(|c| match c {
                    Expr::Atom(a) => a.attr,
                    other => panic!("{other:?}"),
                })
                .collect();
            assert_eq!(attrs, [AttrId(CB as u16), AttrId(CA as u16)], "rare clause first");
        }
        let run = |opts: ExecOptions| {
            execute_opts(&plan, &catalog, QueryGuard::unlimited(), &opts).expect("unlimited scan")
        };
        let scalar = run(ExecOptions { vectorized: false, ..ExecOptions::default() });
        let got = run(ExecOptions::default());
        assert!(!scalar.rows.is_empty() && scalar.rows.len() < N_ROWS, "{name}");
        assert_eq!(got.rows, scalar.rows, "{name}: row set diverged");
    }
}

/// A zone-pruned scan whose matching pages all lie past the first 4,096
/// rows skips pages and returns the same 156 rows at every dop.
#[test]
fn a_zone_pruned_scan_whose_matches_start_past_row_4096_agrees_at_every_dop() {
    let schema = Schema::new(vec![
        Attribute::new("k", AttrDomain::categorical((0..64).map(|m| format!("k{m}")))),
        Attribute::new("g", AttrDomain::categorical(["g0", "g1", "g2", "g3"])),
    ])
    .unwrap();
    // `k` is clustered in runs of 625 rows, so `k = 40` lives on rows
    // 25,000..25,625 and zone maps skip every other page.
    let rows = (0..40_000u32).map(|i| vec![(i / 625) as u16, (i % 4) as u16]);
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("t", &Dataset::from_rows(schema.clone(), rows).unwrap()))
        .unwrap();
    let e = Expr::And(vec![
        Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(1) }),
        Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(40) }),
    ]);
    let plan = choose_plan(e, 0, &schema, &cat, &OptimizerOptions::default());
    let mut first = None;
    for dop in DOPS {
        let opts = ExecOptions::with_parallelism(dop);
        let r = execute_opts(&plan, &cat, QueryGuard::unlimited(), &opts).expect("unlimited scan");
        let m = &r.metrics;
        assert!(m.pages_skipped > 0 && m.rows_examined < 40_000, "dop {dop}: {m:?}");
        assert_eq!(m.output_rows, 156, "dop {dop}");
        let first = first.get_or_insert_with(|| r.clone());
        assert_eq!(r.rows, first.rows, "dop {dop}");
        assert_eq!(m.pages_skipped, first.metrics.pages_skipped, "dop {dop}");
    }
}
