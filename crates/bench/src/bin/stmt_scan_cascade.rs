//! Per-statement timings of the benchmark's `scan_cascade` statements,
//! in-process: where `mpq_benchmark`'s `exec.execute_us` layer goes, one
//! statement and one model at a time.
//!
//! The tables, models and statement pool are the benchmark's own — its
//! generator is compiled in from `mpq_benchmark/src/gen.rs`, unedited,
//! and the models are trained and registered as its set-up does — so a
//! row here is one of the sixteen statements a `scan_cascade` window
//! issues. Per statement: the median wall time of `execute_opts` at
//! dop 1 and dop 2; the same plan at dop 1 with its mining predicates
//! replaced by `TRUE` (what the envelope and the column predicates
//! cost); the reference interpreter on the plan (row sets asserted
//! equal); the per-execution compile; and the cascade's counters. Per
//! model: a proxy-table rebuild, and `decide_batch` over the table in
//! 2,048-row batches against `decide` row by row, per row. Timings are
//! this machine's; compare two checkouts by alternating runs of each.
//!
//! Usage: `stmt_scan_cascade [seed] [runs]` (defaults: 7, 100).

#[allow(dead_code)]
#[path = "mpq_benchmark/src/gen.rs"]
mod gen;

use mpq_core::{DeriveOptions, EnvelopeProvider, ProxyDecision};
use mpq_engine::{
    execute_opts, labeled_view, parse, Catalog, CompiledPredicate, Engine, ExecOptions, Expr, Plan,
    ProjectedModel, QueryGuard,
};
use mpq_models::{KMeans, KMeansParams, NaiveBayes};
use mpq_types::{AttrId, Dataset, Member};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median microseconds of `runs` calls of `f`.
fn time_us(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&mut times)
}

/// Trains and registers a model as the benchmark's set-up does.
fn register(engine: &Engine, inputs: &gen::Inputs, spec: &gen::ModelSpec) {
    let train_schema = inputs.train.schema.clone();
    let (name, model, max_disjuncts): (&str, Arc<dyn EnvelopeProvider + Send + Sync>, usize) =
        match spec {
            gen::ModelSpec::NaiveBayes { name, label, max_disjuncts } => {
                let label = AttrId(*label);
                let view = {
                    let catalog = engine.catalog();
                    let train = catalog.table_by_name(inputs.train.name).expect("created");
                    labeled_view(&catalog, train, label).expect("categorical label")
                };
                let nb = NaiveBayes::train(&view).expect("trainable");
                (
                    name,
                    Arc::new(ProjectedModel::new(train_schema, label, Arc::new(nb))),
                    *max_disjuncts,
                )
            }
            gen::ModelSpec::KMeans { name, k, max_disjuncts } => {
                let mut data = Dataset::new(train_schema);
                let t = &inputs.train;
                for r in 0..t.n_rows() {
                    let row: Vec<Member> = t.columns.iter().map(|c| c[r]).collect();
                    data.push_encoded(&row).expect("generated members");
                }
                let params = KMeansParams { k: *k, ..Default::default() };
                (
                    name,
                    Arc::new(KMeans::train_encoded(&data, params).expect("trainable")),
                    *max_disjuncts,
                )
            }
            gen::ModelSpec::Sql(_) => panic!("scan_cascade registers no model by DDL"),
        };
    let opts = DeriveOptions { max_disjuncts, ..Default::default() };
    engine.register_model(name, model, opts).expect("registers");
}

/// `e` with every mining predicate (and `NOT` over one) replaced by
/// `TRUE`, normalized so the constant folds away.
fn without_mining(e: &Expr) -> Expr {
    match e {
        Expr::Mining(_) => Expr::Const(true),
        Expr::Not(inner) if inner.has_mining() => Expr::Const(true),
        Expr::And(ps) => Expr::And(ps.iter().map(without_mining).collect()),
        Expr::Or(ps) => Expr::Or(ps.iter().map(without_mining).collect()),
        other => other.clone(),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |default: u64| args.next().map_or(default, |s| s.parse().expect("a number"));
    let (seed, runs) = (arg(7), arg(100) as usize);
    let inputs = gen::scan_cascade(seed, gen::Scale::Full);
    let engine = Engine::new(Catalog::new());
    for t in [&inputs.train, &inputs.table] {
        engine.create_table(t.to_table()).expect("generated tables load");
    }
    for m in &inputs.models {
        register(&engine, &inputs, m);
    }
    let catalog = engine.catalog();
    let table_id = catalog.table_by_name(inputs.table.name).expect("created");
    let table = &catalog.table(table_id).table;
    let n = table.n_rows();

    println!("model  classes  rebuild_us  decide_batch_ns/row  decide_ns/row  band");
    let rows: Vec<Vec<Member>> = (0..n as u32).map(|r| table.row(r)).collect();
    for id in 0..catalog.n_models() {
        let entry = catalog.model(id);
        let proxy = entry.proxy.as_ref().expect("every scan_cascade model cascades");
        let rebuild_us = time_us(runs.min(50), || {
            black_box(entry.model.proxy());
        });
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        let batch_ns = time_us(runs.min(30), || {
            for start in (0..n).step_by(2048) {
                let len = 2048.min(n - start);
                proxy.decide_batch(
                    len,
                    |d, i| table.cell((start + i) as u32, d),
                    &mut scratch,
                    &mut out,
                );
                black_box(&out);
            }
        }) * 1e3
            / n as f64;
        let row_ns = time_us(runs.min(30), || {
            for row in &rows {
                black_box(proxy.decide(row));
            }
        }) * 1e3
            / n as f64;
        let band = rows.iter().filter(|r| proxy.decide(r) == ProxyDecision::Band).count();
        println!(
            "{:5}  {:7}  {rebuild_us:10.1}  {batch_ns:19.2}  {row_ns:13.2}  {band:5}",
            entry.name,
            proxy.n_classes(),
        );
    }

    println!(
        "stmt  dop1_us  dop2_us  true_us    ref_us  compile_us  examined    out   band  invoked  hits  sql"
    );
    let dop1 = ExecOptions::default();
    let dop2 = ExecOptions::with_parallelism(2);
    let scalar = ExecOptions { vectorized: false, ..ExecOptions::default() };
    for (i, sql) in inputs.pool.iter().enumerate() {
        let parsed = parse(sql, &catalog).expect("generated statements parse");
        let plan = engine.plan_predicate(parsed.table, parsed.predicate);
        let run = |plan: &Plan, opts: &ExecOptions| {
            execute_opts(plan, &catalog, QueryGuard::unlimited(), opts)
                .expect("an unlimited execution cannot fail")
        };
        let result = run(&plan, &dop1);
        let stripped = Plan {
            residual: without_mining(&plan.residual).normalize(table.schema()),
            ..plan.clone()
        };
        // Interleaved, so a burst of load on the machine lands on all
        // three alike and the dop 1 / dop 2 / no-mining comparison holds.
        let mut times = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..runs {
            for (t, (plan, opts)) in
                times.iter_mut().zip([(&plan, &dop1), (&plan, &dop2), (&stripped, &dop1)])
            {
                t.push(time_us(1, || {
                    black_box(run(plan, opts));
                }));
            }
        }
        let [dop1_us, dop2_us, true_us] = times.map(|mut t| median(&mut t));
        let reference = run(&plan, &scalar);
        assert_eq!(reference.rows, result.rows, "statement {i}");
        assert_eq!(run(&plan, &dop2).rows, result.rows, "statement {i} at dop 2");
        let ref_us = time_us((runs / 10).max(5), || {
            black_box(run(&plan, &scalar));
        });
        let compile_us = time_us(runs, || {
            black_box(CompiledPredicate::compile(&plan.residual, table.schema(), true));
        });
        let m = &result.metrics;
        println!(
            "{i:4}  {dop1_us:7.0}  {dop2_us:7.0}  {true_us:7.0}  {ref_us:8.0}  {compile_us:10.1}  {:8}  {:5}  {:5}  {:7}  {:4}  {}",
            m.rows_examined,
            m.output_rows,
            m.band_rows,
            m.model_invocations,
            m.memo_hits,
            &sql[..sql.len().min(72)],
        );
    }
}
