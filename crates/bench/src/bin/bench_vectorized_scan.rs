//! Vectorized-scan benchmark: selection queries over a 1M-row table
//! executed by the scalar row-at-a-time reference interpreter and the
//! vectorized column-at-a-time executor, writing
//! `BENCH_vectorized_scan.json`.
//!
//! Vectorization is a CPU optimization, so the honest comparison is raw
//! in-memory wall time at parallelism 1. The buckets sweep selectivity
//! (a ~0.8% point lookup, a 12.5% and a 50% IN-set on an interleaved
//! 128-member column), a DNF envelope shape (OR of ANDs mixing both
//! columns), a clustered predicate whose page bitmaps prove most pages
//! empty, and two mining predicates: a decision tree the rewrite
//! compiles out entirely (`mining_memo`, a name kept from when a scorer
//! memo served it, so the checked-in JSON still compares) and a
//! two-model agreement
//! predicate — never compilable, since agreement is decided on raw
//! class ids at prediction time — served through the proxy cascade
//! (`mining_cascade`).
//!
//! The scalar leg plans with model compilation *off* — the classic
//! envelope+residual interpreter — while the vectorized leg runs the
//! compiled/cascaded plan, so the two legs double as a
//! compiled-vs-reference parity oracle: the run aborts if any bucket's
//! row sets diverge. Per-bucket `scorer_ms` attributes each leg's wall
//! time spent inside the real model scorer.
//!
//! Usage: `bench_vectorized_scan [out.json] [n_rows]` (defaults:
//! `BENCH_vectorized_scan.json`, 1,000,000 — CI smoke passes a small
//! row count).

use mpq_engine::{
    execute_opts, Catalog, Engine, ExecOptions, Expr, MiningPred, QueryGuard, StatementOutcome,
    Table,
};
use mpq_engine::{Atom, AtomPred};
use mpq_types::{AttrDomain, AttrId, Attribute, ClassId, Dataset, MemberSet, Schema};
use std::time::Instant;

const RUNS: usize = 5;
const BAND_CARD: u16 = 128;

fn band_set(members: impl IntoIterator<Item = u16>) -> AtomPred {
    AtomPred::In(MemberSet::of(BAND_CARD, members))
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_vectorized_scan.json".into());
    let n_rows: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("n_rows must be a number"))
        .unwrap_or(1_000_000);

    eprintln!("building {n_rows}-row table ...");
    let region_labels: Vec<String> = (0..8).map(|r| format!("r{r}")).collect();
    let band_domain =
        || AttrDomain::binned((1..BAND_CARD as usize).map(|b| b as f64).collect()).unwrap();
    let schema = Schema::new(vec![
        Attribute::new(
            "region",
            AttrDomain::categorical(region_labels.iter().map(String::as_str)),
        ),
        Attribute::new("band", band_domain()),
        Attribute::new("c1", band_domain()),
        Attribute::new("c2", band_domain()),
        Attribute::new("label", AttrDomain::categorical(["neg", "pos"])),
        Attribute::new("label2", AttrDomain::categorical(["neg", "pos"])),
    ])
    .expect("schema");
    let mut ds = Dataset::new(schema);
    for i in 0..n_rows {
        // `region` is clustered (contiguous eighths of the heap) so the
        // page bitmaps have something to prove; `band` is interleaved so
        // per-band selections touch every page and measure pure
        // predicate-evaluation speed; `label` follows a deterministic
        // concept over `band`/`region` the tree model learns exactly —
        // its predicate compiles away completely (the `mining_memo`
        // bucket).
        // `label2` is the same band concept with ~10% label noise, so
        // the two Bayes models `mb` (on label2) and `mb2` (on label)
        // learn *different* surfaces and their agreement predicate
        // (`mining_cascade`) has a non-trivial answer; `c1`/`c2` are
        // high-cardinality noise columns.
        let region = (i * 8 / n_rows) as u16;
        let band = ((i * 37 + i / 11) % BAND_CARD as usize) as u16;
        let label = u16::from(band < 32 && region != 3);
        let c1 = ((i * 13 + 5) % BAND_CARD as usize) as u16;
        let c2 = ((i * 7 + i / 13) % BAND_CARD as usize) as u16;
        let flip = (i.wrapping_mul(2654435761) >> 7) % 10 == 0;
        let label2 = u16::from((band < 32) ^ flip);
        ds.push_encoded(&[region, band, c1, c2, label, label2]).expect("row");
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("events", &ds)).expect("table");
    let engine = Engine::new(cat);
    for ddl in [
        "CREATE MINING MODEL m ON events PREDICT label USING decision_tree",
        "CREATE MINING MODEL mb ON events PREDICT label2 USING bayes",
        "CREATE MINING MODEL mb2 ON events PREDICT label USING bayes",
    ] {
        let out = engine.execute_sql(ddl).expect("train model");
        assert!(matches!(out, StatementOutcome::ModelCreated { .. }));
    }

    let buckets: Vec<(&str, Expr)> = vec![
        (
            "band_point",
            Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(7) }),
        ),
        (
            "band_in_16",
            Expr::Atom(Atom { attr: AttrId(1), pred: band_set(0..16) }),
        ),
        (
            "band_in_64",
            Expr::Atom(Atom { attr: AttrId(1), pred: band_set(0..64) }),
        ),
        (
            "dnf_envelope",
            Expr::Or(vec![
                Expr::And(vec![
                    Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(2) }),
                    Expr::Atom(Atom { attr: AttrId(1), pred: band_set(0..16) }),
                ]),
                Expr::And(vec![
                    Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(5) }),
                    Expr::Atom(Atom { attr: AttrId(1), pred: band_set(64..80) }),
                ]),
            ]),
        ),
        (
            "zone_clustered",
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(3) }),
        ),
        (
            "mining_memo",
            Expr::Mining(MiningPred::ClassEq { model: 0, class: ClassId(1) }),
        ),
        (
            "mining_cascade",
            Expr::Mining(MiningPred::ModelsAgree { m1: 1, m2: 2 }),
        ),
    ];

    let catalog = engine.catalog();
    let scalar_opts = ExecOptions { vectorized: false, ..ExecOptions::default() };
    let vector_opts = ExecOptions::default();
    let mut results = Vec::new();
    for (name, expr) in buckets {
        let has_mining = !expr.mining_preds().is_empty();
        // The scalar leg is the classic envelope+residual interpreter:
        // plan with model compilation off. The vectorized leg runs the
        // compiled (tree/rules) or cascaded (NB) form of the same query.
        engine.set_compile_models(false);
        let plan_ref = engine.plan_predicate(0, expr.clone());
        engine.set_compile_models(true);
        let plan = engine.plan_predicate(0, expr);

        let median = |plan: &mpq_engine::Plan, opts: &ExecOptions| {
            let mut times_ms = Vec::with_capacity(RUNS);
            let mut last = None;
            for _ in 0..RUNS {
                let t0 = Instant::now();
                let res = execute_opts(plan, &catalog, QueryGuard::unlimited(), opts)
                    .expect("unlimited scan");
                times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                last = Some(res);
            }
            times_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            (times_ms[times_ms.len() / 2], last.expect("ran"))
        };
        let (scalar_ms, scalar) = median(&plan_ref, &scalar_opts);
        let (vector_ms, vector) = median(&plan, &vector_opts);

        // The benchmark doubles as a compiled-vs-reference parity
        // oracle: both legs must return the same rows, and when no
        // mining predicate is involved the plans are identical so every
        // deterministic metric must match too.
        assert_eq!(scalar.rows, vector.rows, "{name}: row sets diverged");
        if !has_mining {
            assert_eq!(
                scalar.metrics.pages_skipped, vector.metrics.pages_skipped,
                "{name}: zone accounting diverged"
            );
            assert_eq!(
                scalar.metrics.model_invocations, vector.metrics.model_invocations,
                "{name}: scorer accounting diverged"
            );
        }

        let m = &vector.metrics;
        // Every row the cascade decides is accounted as accept or reject
        // (envelope pushdown may reject rows before the mining residual,
        // so `<=`), and a cascaded scan never calls the scorer.
        if m.cascade_accepts + m.cascade_rejects > 0 {
            assert!(
                m.cascade_accepts + m.cascade_rejects <= m.rows_examined,
                "{name}: cascade decided more rows than were examined"
            );
            assert_eq!(m.model_invocations, 0, "{name}: a cascaded scan called the scorer");
        }
        let scalar_scorer_ms = scalar.metrics.scorer_ns as f64 / 1e6;
        let scorer_ms = m.scorer_ns as f64 / 1e6;
        let selectivity = vector.rows.len() as f64 / n_rows as f64;
        let speedup = scalar_ms / vector_ms;
        eprintln!(
            "{name}: sel {:.4} scalar {scalar_ms:.1} ms (scorer {scalar_scorer_ms:.1} ms), \
             vectorized {vector_ms:.1} ms (scorer {scorer_ms:.1} ms) ({speedup:.2}x), \
             heap {} pages, {} skipped, {} scorer calls",
            selectivity, m.heap_pages_read, m.pages_skipped, m.model_invocations
        );
        results.push(format!(
            "    {{\"bucket\": \"{name}\", \"selectivity\": {selectivity:.4}, \
             \"scalar_ms\": {scalar_ms:.3}, \"scalar_scorer_ms\": {scalar_scorer_ms:.3}, \
             \"vectorized_ms\": {vector_ms:.3}, \"scorer_ms\": {scorer_ms:.3}, \
             \"speedup\": {speedup:.3}, \"heap_pages_read\": {}, \"pages_skipped\": {}, \
             \"model_invocations\": {}, \"memo_hits\": {}, \"band_rows\": {}}}",
            m.heap_pages_read, m.pages_skipped, m.model_invocations, m.memo_hits, m.band_rows
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"vectorized_scan\",\n  \"table_rows\": {n_rows},\n  \
         \"heap_pages\": {},\n  \"parallelism\": 1,\n  \"runs_per_bucket\": {RUNS},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        catalog.table(0).table.n_pages(),
        results.join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path}");
}
