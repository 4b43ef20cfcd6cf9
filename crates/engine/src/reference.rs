//! The row-at-a-time reference interpreter — the baseline every
//! optimized path is differentially tested against.
//!
//! Selected by [`ExecOptions::vectorized`]` = false`. It is serial by
//! construction (it ignores [`ExecOptions::parallelism`]) and walks the
//! plan's residual in its written order, as the pipeline does. It
//! shares the pipeline's coordinator phase — access-path resolution,
//! index probes and their page accounting — its zone-map pruning and
//! its scorer, whose proxy cascades return the models' own predictions.
//! Everything after that is the plainest thing that can be right:
//! materialize the row, walk the [`Expr`] tree, count, and check every
//! budget after every row.
//!
//! Unlike the pipeline it does not catch panics: a scorer panic
//! unwinds to the caller.
//!
//! [`ExecOptions::vectorized`]: crate::ExecOptions::vectorized
//! [`ExecOptions::parallelism`]: crate::ExecOptions::parallelism

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::exec::{
    coordinate, fire_page_fault, page_rows, scorer_for_plan, sync_model_metrics, ExecMetrics,
    ExecResult, Job,
};
use crate::expr::Expr;
use crate::guard::{GuardState, QueryGuard};
use crate::optimizer::Plan;
use crate::table::{RowId, Table};
use crate::vectorized::{CompiledPredicate, Scorer};
use mpq_types::Member;
use std::time::Instant;

/// Interpreter state for one execution.
struct Interp<'a> {
    table: &'a Table,
    scorer: &'a Scorer<'a>,
    gs: &'a GuardState,
    m: ExecMetrics,
    out: Vec<RowId>,
    row_buf: Vec<Member>,
}

impl Interp<'_> {
    /// Materializes `row`, evaluates `pred` on it and checks every
    /// budget.
    fn eval_row(&mut self, row: RowId, pred: &Expr) -> Result<(), EngineError> {
        for (d, cell) in self.row_buf.iter_mut().enumerate() {
            *cell = self.table.cell(row, d);
        }
        self.m.rows_examined += 1;
        let mut tree_inv = 0u64;
        if pred.eval(&self.row_buf, self.scorer, &mut tree_inv) {
            self.out.push(row);
        }
        sync_model_metrics(self.scorer, &mut self.m);
        self.gs.check(&self.m)
    }
}

pub(crate) fn execute(
    plan: &Plan,
    catalog: &Catalog,
    guard: QueryGuard,
) -> Result<ExecResult, EngineError> {
    let start = Instant::now();
    let gs = GuardState::new(guard);
    let table = &catalog.table(plan.table).table;
    let scorer = scorer_for_plan(plan, catalog);
    // Compiled for its zone-map test only; no row is evaluated with it.
    let zones = CompiledPredicate::compile(&plan.residual, table.schema(), false);
    let co = coordinate(plan, catalog, &gs, 1)?;
    let mut it = Interp {
        table,
        scorer: &scorer,
        gs: &gs,
        m: co.metrics,
        out: Vec::new(),
        row_buf: vec![0; table.schema().len()],
    };

    for job in &co.jobs {
        match job {
            Job::Scan(range) => {
                for page in table.page_of(range.start)..=table.page_of(range.end - 1) {
                    if !zones.page_may_match(table.page_zones(page)) {
                        it.m.pages_skipped += 1;
                        continue;
                    }
                    fire_page_fault(catalog.faults(), page);
                    it.m.heap_pages_read += 1;
                    gs.check(&it.m)?;
                    for row in page_rows(table, page) {
                        it.eval_row(row, &plan.residual)?;
                    }
                }
            }
            Job::Fetch(range) => {
                for &(row, use_skip) in &co.fetched[range.clone()] {
                    // `use_skip` is only ever set when the plan carries
                    // a `skip_or` residual (see the union merge).
                    let pred = match &plan.skip_or {
                        Some(skip) if use_skip => skip,
                        _ => &plan.residual,
                    };
                    it.eval_row(row, pred)?;
                }
            }
        }
    }

    // Covers paths that examined nothing (constant scans past the
    // deadline, fully zone-pruned scans).
    let Interp { mut m, out, .. } = it;
    sync_model_metrics(&scorer, &mut m);
    gs.check(&m)?;
    m.output_rows = out.len() as u64;
    m.elapsed = start.elapsed();
    m.guard = gs.headroom(&m);
    Ok(ExecResult { rows: out, metrics: m })
}
