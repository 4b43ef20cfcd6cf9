//! The row-at-a-time reference interpreter — the baseline every
//! optimized path is differentially tested against.
//!
//! Selected by [`ExecOptions::vectorized`]` = false`. It is serial by
//! construction (it ignores [`ExecOptions::parallelism`]) and walks the
//! plan's residual in its written order, as the pipeline does. It
//! shares the pipeline's coordinator phase — access-path resolution,
//! index probes and their page accounting — and its scorer, whose proxy
//! cascades return the models' own predictions. Everything after that
//! is the plainest thing that can be right: summarize each page from
//! its own rows and test the predicate against that summary
//! ([`page_may_match`]), materialize the row, walk the [`Expr`] tree,
//! count, and check every budget after every row.
//!
//! The page test is the definition the pipeline's candidate pages
//! ([`crate::CompiledPredicate::candidate_pages`], computed from the
//! table's page bitmaps) must equal, so the two executors'
//! `pages_skipped` agreeing checks the bitmaps against a computation
//! that never reads them.
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
use crate::vectorized::{box_atoms, is_box_dnf, Scorer};
use mpq_types::{Member, MemberSet};
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
    let co = coordinate(plan, catalog, &gs, 1)?;
    // The page test reads the zones of the residual's atom columns only.
    let mut zones: Vec<MemberSet> =
        table.schema().attrs().iter().map(|a| MemberSet::empty(a.domain.cardinality())).collect();
    let mut cols: Vec<usize> = Vec::new();
    plan.residual.walk(&mut |e| {
        if let Expr::Atom(a) = e {
            cols.push(a.attr.index());
        }
    });
    cols.sort_unstable();
    cols.dedup();
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
                    page_members(table, page, &cols, &mut zones);
                    if !page_may_match(&plan.residual, &zones) {
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
    // deadline, scans that skipped every page).
    let Interp { mut m, out, .. } = it;
    sync_model_metrics(&scorer, &mut m);
    gs.check(&m)?;
    m.output_rows = out.len() as u64;
    m.elapsed = start.elapsed();
    m.guard = gs.headroom(&m);
    Ok(ExecResult { rows: out, metrics: m })
}

/// Writes into `zones[d]`, for each column `d` of `cols`, the members
/// present on `page`, read off its rows.
pub(crate) fn page_members(table: &Table, page: usize, cols: &[usize], zones: &mut [MemberSet]) {
    for &d in cols {
        let zone = &mut zones[d];
        zone.clear();
        for r in page_rows(table, page) {
            zone.insert(table.cell(r, d));
        }
    }
}

/// Whether a page whose columns hold the members `zones` may hold a row
/// satisfying `e`; `false` proves it holds none. An atom may match iff
/// it admits a member the page holds in its column; a conjunction needs
/// every child, a disjunction one. A disjunction that compiles to one
/// `Boxes` leaf needs a disjunct with, on every column it constrains, a
/// member the page holds that all its atoms on that column admit: two
/// atoms on one column may each admit a member of the page while no
/// member satisfies both. Anything else (a mining predicate, `NOT`) may
/// match.
pub(crate) fn page_may_match(e: &Expr, zones: &[MemberSet]) -> bool {
    match e {
        Expr::Const(b) => *b,
        Expr::Atom(a) => zones[a.attr.index()].iter().any(|m| a.pred.matches(m)),
        Expr::And(ps) => ps.iter().all(|p| page_may_match(p, zones)),
        Expr::Or(ps) if is_box_dnf(ps) => ps.iter().any(|d| {
            let atoms = box_atoms(d).expect("a box DNF's disjuncts are boxes");
            let on = |attr, m| {
                atoms.iter().all(|x| match x {
                    Expr::Atom(a) => a.attr != attr || a.pred.matches(m),
                    _ => unreachable!("a box holds atoms"),
                })
            };
            atoms.iter().all(|x| match x {
                Expr::Atom(a) => zones[a.attr.index()].iter().any(|m| on(a.attr, m)),
                _ => unreachable!("a box holds atoms"),
            })
        }),
        Expr::Or(ps) => ps.iter().any(|p| page_may_match(p, zones)),
        _ => true,
    }
}
