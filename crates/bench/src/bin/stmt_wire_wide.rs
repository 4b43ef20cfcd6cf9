//! Per-statement timings of the benchmark's `wire_wide` or `wire_point`
//! statements, in-process at dop 1: where `mpq_benchmark`'s
//! `exec.execute_us` layer goes, one statement at a time.
//!
//! The table, model and statement pools are the benchmark's own — its
//! generator is compiled in from `mpq_benchmark/src/gen.rs`, unedited —
//! so a row here is one of the eight statements a `wire_wide` window
//! issues, or one of `wire_point`'s 64 (the same table and model). Per
//! statement: the median wall time of `execute_opts` at dop 1 (and per
//! examined row), the reference interpreter on the same plan (row sets
//! asserted equal), the candidate-page computation alone
//! (`candidate_pages`, once per statement) and the per-execution
//! compile alone. Timings are this machine's; compare two checkouts by
//! alternating runs of each.
//!
//! Usage: `stmt_wire_wide [wide|point] [seed] [runs]` (defaults: wide,
//! 7, 300).

#[allow(dead_code)]
#[path = "mpq_benchmark/src/gen.rs"]
mod gen;

use mpq_engine::{
    execute_opts, parse, Catalog, CompiledPredicate, Engine, ExecOptions, QueryGuard,
};
use mpq_types::AttrId;
use std::time::Instant;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let pool = match args.next().as_deref() {
        None | Some("wide") => gen::wire_wide,
        Some("point") => gen::wire_point,
        Some(other) => panic!("pool `{other}`: expected `wide` or `point`"),
    };
    let mut arg = |default: u64| args.next().map_or(default, |s| s.parse().expect("a number"));
    let (seed, runs) = (arg(7), arg(300) as usize);
    let inputs = pool(seed, gen::Scale::Full);
    let engine = Engine::new(Catalog::new());
    for t in [&inputs.train, &inputs.table] {
        engine.create_table(t.to_table()).expect("generated tables load");
    }
    for cols in &inputs.indexes {
        let cols: Vec<AttrId> = cols.iter().map(|&c| AttrId(c)).collect();
        engine.create_index(inputs.table.name, &cols).expect("generated indexes build");
    }
    for m in &inputs.models {
        let gen::ModelSpec::Sql(ddl) = m else { panic!("the wire pools register models by DDL") };
        engine.execute_sql(ddl).expect("generated DDL runs");
    }
    println!(
        "stmt  exec_us  ns/row  examined  pages  skipped    out  cand_us  compile_us    ref_us  sql"
    );
    for (i, sql) in inputs.pool.iter().enumerate() {
        let catalog = engine.catalog();
        let parsed = parse(sql, &catalog).expect("generated statements parse");
        let table = &catalog.table(parsed.table).table;
        let plan = engine.plan_predicate(parsed.table, parsed.predicate);
        let time = |opts: &ExecOptions, runs: usize| {
            let mut times = Vec::with_capacity(runs);
            let mut last = None;
            for _ in 0..runs {
                let t0 = Instant::now();
                let r = execute_opts(&plan, &catalog, QueryGuard::unlimited(), opts);
                times.push(t0.elapsed().as_nanos() as f64 / 1e3);
                last = Some(r.expect("an unlimited execution cannot fail"));
            }
            (median(&mut times), last.expect("at least one run"))
        };
        let (exec_us, result) = time(&ExecOptions::default(), runs);
        let scalar = ExecOptions { vectorized: false, ..ExecOptions::default() };
        let (ref_us, reference) = time(&scalar, (runs / 10).max(5));
        assert_eq!(reference.rows, result.rows, "statement {i}");
        let (mut candidates, mut compile) = (Vec::with_capacity(runs), Vec::with_capacity(runs));
        for _ in 0..runs {
            let t0 = Instant::now();
            let compiled = CompiledPredicate::compile(&plan.residual, table.schema(), true);
            compile.push(t0.elapsed().as_nanos() as f64 / 1e3);
            let t0 = Instant::now();
            let pages = compiled.candidate_pages(table);
            candidates.push(t0.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(pages);
        }
        let m = &result.metrics;
        println!(
            "{i:4}  {exec_us:7.1}  {:6.2}  {:8}  {:5}  {:7}  {:5}  {:7.2}  {:10.2}  {ref_us:8.1}  {}",
            exec_us * 1e3 / m.rows_examined.max(1) as f64,
            m.rows_examined,
            m.heap_pages_read,
            m.pages_skipped,
            m.output_rows,
            median(&mut candidates),
            median(&mut compile),
            &sql[..sql.len().min(72)],
        );
    }
}
