//! Plan execution with honest cost accounting.
//!
//! Every plan runs through one morsel pipeline ([`execute_opts`]):
//!
//! 1. **prologue** — compile the residual once into a
//!    [`CompiledPredicate`](crate::CompiledPredicate) and build the
//!    execution's [`Scorer`]: the verified proxy cascades in front of
//!    the models, so `model_invocations` counts real scorer calls;
//! 2. **coordinator** (`coordinate`, serial, on the calling thread) —
//!    resolve the access path, run the index probes, merge a union's
//!    postings, charge index pages and index-path heap pages against
//!    the guard, and cut the work into jobs: page-aligned heap morsels
//!    or contiguous chunks of the fetch list. A scan also gets its
//!    candidate pages, computed once from the table's page bitmaps in
//!    the compiled predicate's shape
//!    ([`CompiledPredicate::candidate_pages`]);
//! 3. **workers** (`run_worker`) — pull jobs off an atomic dispatcher,
//!    read only the job's candidate pages
//!    ([`ExecMetrics::pages_skipped`] counts the rest, which are *not*
//!    charged to page budgets), and filter each run of candidate pages
//!    (up to `SCAN_BATCH_ROWS` rows) or fetch run through the compiled
//!    predicate. A scan run goes in as the row range `start..end` — no
//!    id list is written before a leaf has narrowed it — and survivors
//!    are appended straight to the job's hit list, which is reserved
//!    once from the job's share of the plan's estimated selectivity.
//!    [`ExecOptions::parallelism`]` = 1`
//!    runs the loop inline on the calling thread — no thread is
//!    spawned; higher degrees run the same loop on
//!    [`std::thread::scope`] workers;
//! 4. **epilogue** — reassemble hit segments by job index (ascending
//!    row order), fold the shared counters into [`ExecMetrics`], and
//!    run the final guard check.
//!
//! **One charging rule.** `SharedProgress` is the only budget
//! accounting: heap pages are charged one at a time on top of the
//! coordinator's pre-charged pages; rows are charged a page (or fetch
//! run) at a time, before the batch the page joins is evaluated, and a
//! rows-budget breach reports `spent = limit + 1` — the first row past
//! the limit, where a per-row count trips — at every degree of
//! parallelism; the invocation budget, the deadline and the
//! cancellation flag are checked after every row a `Scalar` (mining)
//! leaf hands to the scorer or evaluates row by row, and once per batch
//! the cascade decides column-at-a-time. The first error cancels the
//! remaining jobs. A panic inside the worker loop (model code or an
//! injected scorer fault) is caught in one place and surfaces as
//! [`EngineError::Internal`], at dop 1 as at any other.
//!
//! On success every degree of parallelism reports byte-identical row
//! sets and identical `rows_examined` / page / `model_invocations`
//! totals (and therefore identical [`GuardHeadroom`]); wall-clock
//! fields are the only legitimate divergence. The same holds against
//! the serial row-at-a-time interpreter in `reference.rs`
//! ([`ExecOptions::vectorized`]` = false`), which shares the
//! coordinator phase and exists as the differential-testing baseline.
//! `tests/parallel_oracle.rs` and `tests/vectorized_oracle.rs` hold the
//! property tests backing both claims. The only documented divergence
//! from the reference is *classification* when two distinct budgets
//! would both trip inside one batch (the reference trips whichever its
//! per-row check order hits first).

use crate::catalog::Catalog;
use crate::error::{panic_message, EngineError, GuardResource};
use crate::fault::FaultInjector;
use crate::guard::{GuardHeadroom, GuardState, QueryGuard};
use crate::optimizer::{AccessPath, Plan};
use crate::table::{RowId, Table};
use crate::vectorized::{BatchCtx, CompiledPredicate, Scorer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Metrics observed while executing a plan — the quantities the paper's
/// experiments compare (pages touched drive the running-time reductions;
/// model invocations measure the black-box "extract and mine" overhead).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecMetrics {
    /// Heap pages read.
    pub heap_pages_read: u64,
    /// Index pages read (postings traffic).
    pub index_pages_read: u64,
    /// Heap pages proven empty by the table's page bitmaps and skipped
    /// without being read. Never counted against page budgets.
    pub pages_skipped: u64,
    /// Rows fetched and tested against the residual predicate.
    pub rows_examined: u64,
    /// Black-box model applications performed: every real scorer call.
    pub model_invocations: u64,
    /// Always 0: no prediction is memoized. Kept for the wire format
    /// and existing readers.
    pub memo_hits: u64,
    /// Mining-predicate rows decided `true` by a proxy cascade, without
    /// invoking the model.
    pub cascade_accepts: u64,
    /// Mining-predicate rows decided `false` by a proxy cascade, without
    /// invoking the model.
    pub cascade_rejects: u64,
    /// Always 0: a proxy cascade decides every row, breaking ties by
    /// the model's own rule, so no row is left to the scorer. Kept for
    /// the wire format and existing readers.
    pub band_rows: u64,
    /// Wall-clock nanoseconds spent inside real model scoring calls.
    /// Excluded from determinism oracles.
    pub scorer_ns: u64,
    /// Rows in the result.
    pub output_rows: u64,
    /// Wall-clock execution time.
    pub elapsed: std::time::Duration,
    /// Budget headroom left when execution finished (all `None` when
    /// the query ran with an unlimited [`QueryGuard`]).
    pub guard: GuardHeadroom,
    /// True when an index fault forced the executor to abandon the
    /// chosen index path and fall back to a full scan with the complete
    /// residual predicate (same row set, more pages).
    pub index_fallback: bool,
    /// (Subscription, row) matches produced while this statement's
    /// inserted rows were tested against standing subscriptions. Always
    /// zero for SELECTs — queries do not match subscriptions.
    pub subs_matched: u64,
    /// (Subscription, row) candidacies the subscriptions' guard
    /// pruned without evaluating the rewritten predicate. Always zero
    /// for SELECTs.
    pub subs_index_pruned: u64,
    /// Always 0: clause order is chosen at plan time, never changed
    /// during a scan. Kept for the wire format and existing readers.
    pub clauses_reordered: u64,
    /// Always 0: no subexpression is factored out. Kept for the wire
    /// format and existing readers.
    pub factor_hits: u64,
    /// Always 0: plans come from the statistics alone, and no execution
    /// is recorded for later plannings. Kept for the wire format and
    /// existing readers.
    pub feedback_entries: u64,
}

impl ExecMetrics {
    /// Total pages of any kind.
    pub fn total_pages(&self) -> u64 {
        self.heap_pages_read + self.index_pages_read
    }
}

/// Result of executing a plan: matching row ids plus metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Row ids satisfying the predicate, ascending.
    pub rows: Vec<RowId>,
    /// Observed metrics.
    pub metrics: ExecMetrics,
}

/// Tuning knobs for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads. `1` (the default) runs the pipeline inline on
    /// the calling thread; higher values split the work into
    /// page-aligned morsels over a scoped worker pool. Clamped to
    /// `1..=256` by [`execute_opts`].
    pub parallelism: usize,
    /// `true` (the default) runs the production pipeline, which
    /// evaluates residuals through the compiled column-at-a-time
    /// program. `false` selects the row-at-a-time reference
    /// interpreter, which is serial — it ignores `parallelism`. Both
    /// evaluate the plan's residual in its written order, skip the same
    /// provably empty pages and use the proxy cascades, so on success
    /// their metrics are identical — the reference exists as the
    /// differential-testing baseline.
    pub vectorized: bool,
    /// Ignored. The clause order is the plan's, chosen by the optimizer,
    /// and nothing about an execution is recorded; the field stays so
    /// existing callers compile.
    pub adaptive: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            parallelism: 1,
            vectorized: true,
            adaptive: true,
        }
    }
}

impl ExecOptions {
    /// Options running `n` workers (clamped to `1..=256`).
    pub fn with_parallelism(n: usize) -> ExecOptions {
        ExecOptions { parallelism: n.clamp(1, 256), ..ExecOptions::default() }
    }
}

/// Executes `plan` against the catalog with no resource limits.
///
/// Equivalent to [`execute_guarded`] with [`QueryGuard::unlimited`]; an
/// unlimited guard can never trip, so this panics only if model code
/// does.
pub fn execute(plan: &Plan, catalog: &Catalog) -> ExecResult {
    execute_guarded(plan, catalog, QueryGuard::unlimited())
        .expect("unlimited guard cannot trip")
}

/// Executes `plan` against the catalog under `guard` with the default
/// [`ExecOptions`] (dop 1, on the calling thread).
pub fn execute_guarded(
    plan: &Plan,
    catalog: &Catalog,
    guard: QueryGuard,
) -> Result<ExecResult, EngineError> {
    execute_opts(plan, catalog, guard, &ExecOptions::default())
}

/// Executes `plan` under `guard` with explicit [`ExecOptions`].
///
/// The guard is checked cooperatively: per page scanned and per scalar
/// (mining) row evaluated. A breach aborts with
/// [`EngineError::BudgetExceeded`] carrying the same tripped resource
/// at every degree of parallelism; no partial row set is returned. A
/// panic inside the scan (model code or an injected scorer fault)
/// cancels the remaining work and surfaces as
/// [`EngineError::Internal`] — it never aborts the process or poisons
/// engine state.
///
/// If the catalog's [`crate::FaultInjector`] has index-probe failure
/// armed, index plans degrade to a full scan evaluating the complete
/// residual predicate — the row set is identical (the residual is the
/// whole predicate; index seeks only pre-filter), only the page counts
/// grow. The fallback is flagged in [`ExecMetrics::index_fallback`].
pub fn execute_opts(
    plan: &Plan,
    catalog: &Catalog,
    guard: QueryGuard,
    opts: &ExecOptions,
) -> Result<ExecResult, EngineError> {
    if !opts.vectorized {
        return crate::reference::execute(plan, catalog, guard);
    }
    let start = Instant::now();
    let dop = opts.parallelism.clamp(1, 256);
    let gs = GuardState::new(guard);
    let table = &catalog.table(plan.table).table;
    let scorer = scorer_for_plan(plan, catalog);
    let schema = table.schema();
    let compiled = CompiledPredicate::compile(&plan.residual, schema, false);
    let compiled_skip = plan.skip_or.as_ref().map(|e| CompiledPredicate::compile(e, schema, false));

    let Coordinated { fetched, jobs, positions, metrics: mut m } =
        coordinate(plan, catalog, &gs, dop)?;
    let pages = match jobs.first() {
        Some(Job::Scan(_)) => compiled.candidate_pages(table),
        _ => Vec::new(),
    };

    // The coordinator's pages are pre-charged so scan-phase page
    // breaches see the true total.
    let shared = SharedProgress::new(guard, m.total_pages());
    let est_rows = plan.est_selectivity.clamp(0.0, 1.0) * table.n_rows() as f64;
    let wctx = WorkerCtx {
        jobs: &jobs,
        fetched: &fetched,
        pages: &pages,
        table,
        scorer: &scorer,
        compiled: &compiled,
        compiled_skip: compiled_skip.as_ref(),
        shared: &shared,
        gs: &gs,
        faults: catalog.faults(),
        est_hits_per_position: est_rows / positions.max(1) as f64,
    };
    // The one place a worker panic is caught, whichever thread runs it.
    let run = || {
        catch_unwind(AssertUnwindSafe(|| run_worker(&wctx))).unwrap_or_else(|payload| {
            shared.fail(EngineError::Internal { detail: panic_message(&*payload) });
            Vec::new()
        })
    };
    let workers = dop.min(jobs.len());
    let mut segments = if workers <= 1 {
        run()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("`run` catches worker panics"))
                .collect()
        })
    };
    if let Some(err) = shared.failure.lock().unwrap_or_else(|e| e.into_inner()).take() {
        return Err(err);
    }

    // Jobs are row-ordered and each job's hits are ascending, so
    // concatenating segments by job index yields ascending row order.
    segments.sort_unstable_by_key(|(i, _)| *i);
    let rest: usize = segments.iter().skip(1).map(|(_, hits)| hits.len()).sum();
    let mut segments = segments.into_iter();
    let mut out = segments.next().map_or_else(Vec::new, |(_, hits)| hits);
    out.reserve(rest);
    for (_, mut hits) in segments {
        out.append(&mut hits);
    }

    m.rows_examined = shared.rows.load(Ordering::Relaxed);
    m.pages_skipped = shared.skipped.load(Ordering::Relaxed);
    m.heap_pages_read = shared.pages.load(Ordering::Relaxed) - m.index_pages_read;
    sync_model_metrics(&scorer, &mut m);
    // Covers paths that examined nothing (constant scans past the
    // deadline, scans with no candidate page).
    gs.check(&m)?;
    m.output_rows = out.len() as u64;
    m.elapsed = start.elapsed();
    m.guard = gs.headroom(&m);
    Ok(ExecResult { rows: out, metrics: m })
}

/// Copies the scorer's counters into the metrics the guard checks.
pub(crate) fn sync_model_metrics(scorer: &Scorer<'_>, m: &mut ExecMetrics) {
    m.model_invocations = scorer.invocations();
    m.cascade_accepts = scorer.cascade_accepts();
    m.cascade_rejects = scorer.cascade_rejects();
    m.scorer_ns = scorer.scorer_ns();
}

/// The scorer for one execution of `plan`: cascade tables are checked
/// (against the verified ones) from the plan's cascade annotations, and
/// the label pairings its mining predicates compare are built.
pub(crate) fn scorer_for_plan<'a>(plan: &Plan, catalog: &'a Catalog) -> Scorer<'a> {
    let cascades = crate::compile::build_cascades(catalog, &plan.cascades);
    Scorer::with_cascades(catalog, cascades)
        .with_label_maps(std::iter::once(&plan.residual).chain(&plan.skip_or))
}

/// The row ids stored on heap page `page`.
pub(crate) fn page_rows(table: &Table, page: usize) -> Range<RowId> {
    let rpp = table.rows_per_page();
    (page * rpp) as RowId..(page * rpp + rpp).min(table.n_rows()) as RowId
}

/// Injected fault: a scorer blowing up while `page`'s rows are being
/// evaluated.
pub(crate) fn fire_page_fault(faults: &FaultInjector, page: usize) {
    if faults.scorer_panic_page() == Some(page) {
        panic!("injected fault: scorer panicked on heap page {page}");
    }
}

// ---------------------------------------------------------------------
// Coordinator phase
// ---------------------------------------------------------------------

/// One unit of dispatchable work.
pub(crate) enum Job {
    /// A page-aligned heap range (full scan).
    Scan(Range<RowId>),
    /// A range of positions in the coordinator's fetch list (index
    /// paths).
    Fetch(Range<usize>),
}

/// What the coordinator phase hands to the workers (and to the serial
/// reference interpreter, which walks the same jobs in order).
pub(crate) struct Coordinated {
    /// The index paths' fetch list: ascending, deduplicated
    /// `(row, use_skip)`; the flag selects the `skip_or` residual
    /// (exact-seek fast path) over the full one. Empty on scans.
    pub fetched: Vec<(RowId, bool)>,
    /// The work, in ascending row order.
    pub jobs: Vec<Job>,
    /// Scan positions the jobs cover: row ids on a full scan,
    /// fetch-list indexes on index paths.
    pub positions: u64,
    /// Pages charged so far — index pages and index-path heap pages —
    /// plus [`ExecMetrics::index_fallback`]; everything else zero.
    pub metrics: ExecMetrics,
}

/// Resolves the access path and does its serial part: index probes,
/// union merge and page accounting for index paths (checked against
/// the guard as they accrue, so page-budget breaches classify and
/// report identically everywhere), then cuts the work into jobs for
/// `dop` workers — `4 × dop` of them so the dispatcher can rebalance
/// skewed per-job costs, except that a lone worker has nobody to
/// rebalance with and gets a single job.
pub(crate) fn coordinate(
    plan: &Plan,
    catalog: &Catalog,
    gs: &GuardState,
    dop: usize,
) -> Result<Coordinated, EngineError> {
    let entry = catalog.table(plan.table);
    let table = &entry.table;
    let rpp = table.rows_per_page();
    // Injected index failures degrade index plans to a full scan with
    // the complete residual — sound because `plan.residual` is the
    // whole predicate.
    let index_fallback = catalog.faults().index_probe_failure_armed()
        && matches!(plan.access, AccessPath::IndexSeek(_) | AccessPath::IndexUnion(_));
    let access = if index_fallback { &AccessPath::FullScan } else { &plan.access };
    let mut m = ExecMetrics { index_fallback, ..ExecMetrics::default() };

    let mut fetched: Vec<(RowId, bool)> = Vec::new();
    match access {
        AccessPath::ConstantScan => {}
        AccessPath::FullScan => {
            let n = table.n_rows() as RowId;
            let jobs = if dop == 1 && n > 0 {
                vec![Job::Scan(0..n)]
            } else {
                table.morsels(dop).into_iter().map(Job::Scan).collect()
            };
            return Ok(Coordinated { fetched, jobs, positions: n as u64, metrics: m });
        }
        AccessPath::IndexSeek(seek) => {
            let rows = entry.indexes[seek.index].probe(&seek.preds);
            m.index_pages_read = index_pages(rows.len(), rpp);
            fetched.extend(rows.into_iter().map(|r| (r, false)));
        }
        AccessPath::IndexUnion(seeks) => {
            // Tag each fetched row with whether *some* exact seek
            // produced it: those rows already satisfy the union's OR and
            // only need the `skip_or` residual (other conjuncts) — the
            // covering-index fast path that makes big-DNF envelopes
            // cheap to verify.
            let mut lists: Vec<(Vec<RowId>, bool)> = Vec::with_capacity(seeks.len());
            for seek in seeks {
                let rows = entry.indexes[seek.index].probe(&seek.preds);
                m.index_pages_read += index_pages(rows.len(), rpp);
                gs.check(&m)?;
                lists.push((rows, seek.exact));
            }
            fetched = merge_union(&lists, plan.skip_or.is_some());
        }
    }
    m.heap_pages_read = distinct_pages(fetched.iter().map(|(r, _)| *r), table);
    gs.check(&m)?;

    let len = fetched.len();
    let chunk = if dop == 1 { len } else { len.div_ceil(dop * 4) };
    let jobs = (0..len)
        .step_by(chunk.max(1))
        .map(|s| Job::Fetch(s..(s + chunk).min(len)))
        .collect();
    Ok(Coordinated { fetched, jobs, positions: len as u64, metrics: m })
}

fn index_pages(postings: usize, rows_per_page: usize) -> u64 {
    // Postings are dense u32s; a page holds ~4x as many entries as rows.
    (postings.div_ceil((rows_per_page * 4).max(1)).max(1)) as u64
}

/// K-way merges the (ascending) posting lists of a union's seeks into
/// one ascending, deduplicated `(row, use_skip)` list. Among duplicates
/// the exact-seek copy wins (its rows may take the `skip_or` fast path);
/// the flag is pre-resolved to `exact && has_skip` so evaluation picks
/// residuals by the flag alone.
fn merge_union(lists: &[(Vec<RowId>, bool)], has_skip: bool) -> Vec<(RowId, bool)> {
    let total: usize = lists.iter().map(|(rows, _)| rows.len()).sum();
    // Heap entries order by (row, !exact): the exact copy of a row pops
    // first, so dedup keeps it.
    let mut heap: BinaryHeap<Reverse<(RowId, bool, usize, usize)>> =
        BinaryHeap::with_capacity(lists.len());
    for (li, (rows, exact)) in lists.iter().enumerate() {
        debug_assert!(rows.windows(2).all(|p| p[0] <= p[1]), "probe lists are sorted");
        if let Some(&r) = rows.first() {
            heap.push(Reverse((r, !exact, li, 0)));
        }
    }
    let mut out: Vec<(RowId, bool)> = Vec::with_capacity(total);
    while let Some(Reverse((row, inexact, li, idx))) = heap.pop() {
        if out.last().map(|&(r, _)| r) != Some(row) {
            out.push((row, !inexact && has_skip));
        }
        let (rows, exact) = &lists[li];
        if idx + 1 < rows.len() {
            heap.push(Reverse((rows[idx + 1], !exact, li, idx + 1)));
        }
    }
    out
}

/// Distinct heap pages among ascending row ids: count page transitions
/// in one pass instead of hashing every row.
fn distinct_pages(rows: impl Iterator<Item = RowId>, table: &Table) -> u64 {
    let mut n = 0u64;
    let mut last = usize::MAX;
    let mut prev_row = 0 as RowId;
    for r in rows {
        debug_assert!(n == 0 || r >= prev_row, "rows must be sorted");
        prev_row = r;
        let p = table.page_of(r);
        if p != last {
            n += 1;
            last = p;
        }
    }
    n
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

/// Budget and cancellation state shared by all workers of one query —
/// the only charging discipline, at dop 1 as at any other.
struct SharedProgress {
    guard: QueryGuard,
    /// Next job index to dispatch.
    next: AtomicUsize,
    rows: AtomicU64,
    /// Total pages charged so far (pre-charged by the coordinator; heap
    /// pages charged progressively by scan jobs).
    pages: AtomicU64,
    /// Heap pages proven empty by the page bitmaps and skipped.
    skipped: AtomicU64,
    /// Cooperative stop: set after a breach or panic; workers poll it
    /// per page read / per scored row, so no worker does more than one
    /// batch's work past a breach — a batch being up to
    /// [`SCAN_BATCH_ROWS`] rows of column lookups, of which only an
    /// uncascaded model's rows reach a model, each polling the flag.
    cancel: AtomicBool,
    /// First error wins; later ones are dropped.
    failure: Mutex<Option<EngineError>>,
}

impl SharedProgress {
    fn new(guard: QueryGuard, pre_charged_pages: u64) -> SharedProgress {
        SharedProgress {
            guard,
            next: AtomicUsize::new(0),
            rows: AtomicU64::new(0),
            pages: AtomicU64::new(pre_charged_pages),
            skipped: AtomicU64::new(0),
            cancel: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// Records an error (first one wins) and cancels remaining work.
    fn fail(&self, err: EngineError) {
        let mut slot = self.failure.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(err);
        }
        self.cancel.store(true, Ordering::Relaxed);
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Charges a batch of `n` rows. A breach reports the point a
    /// per-row count would trip — the first row past the limit — so
    /// `spent` does not depend on batch size or worker interleaving.
    fn charge_rows(&self, n: u64) -> Result<(), EngineError> {
        let spent = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        match self.guard.max_rows_examined {
            Some(limit) if spent > limit => Err(EngineError::BudgetExceeded {
                resource: GuardResource::RowsExamined,
                spent: limit + 1,
                limit,
            }),
            _ => Ok(()),
        }
    }

    fn charge_pages(&self, n: u64) -> Result<(), EngineError> {
        let spent = self.pages.fetch_add(n, Ordering::Relaxed) + n;
        match self.guard.max_pages {
            Some(limit) if spent > limit => Err(EngineError::BudgetExceeded {
                resource: GuardResource::PagesRead,
                spent,
                limit,
            }),
            _ => Ok(()),
        }
    }

    /// Checks the scorer's invocation total against the budget.
    fn check_invocations(&self, spent: u64) -> Result<(), EngineError> {
        match self.guard.max_model_invocations {
            Some(limit) if spent > limit => Err(EngineError::BudgetExceeded {
                resource: GuardResource::ModelInvocations,
                spent,
                limit,
            }),
            _ => Ok(()),
        }
    }
}

/// Everything a worker needs, bundled so job helpers stay readable.
struct WorkerCtx<'a> {
    jobs: &'a [Job],
    fetched: &'a [(RowId, bool)],
    /// A scan's candidate pages, one bit per page; empty on index paths.
    pages: &'a [u64],
    table: &'a Table,
    scorer: &'a Scorer<'a>,
    compiled: &'a CompiledPredicate,
    compiled_skip: Option<&'a CompiledPredicate>,
    shared: &'a SharedProgress,
    gs: &'a GuardState,
    faults: &'a FaultInjector,
    /// The plan's estimated output rows per scan position (row of a
    /// scan, entry of a fetch list).
    est_hits_per_position: f64,
}

/// The most row ids a job's hit list is given before the job has found
/// any (1 MB): an estimate is a guess — a correlated conjunction or an
/// `Or` under the independence model — and at dop 1 one job is the
/// whole table, so a wrong one must not cost memory in proportion to
/// the table. Past this the list doubles.
const MAX_HITS_RESERVED: usize = 1 << 18;

impl WorkerCtx<'_> {
    /// Capacity to give a job's hit list up front: its share of the
    /// plan's estimated output plus a sixteenth, so that an estimate
    /// that is right — a histogram-exact column predicate — costs one
    /// allocation instead of a dozen doublings, and one that is low
    /// falls back to doubling from there. Never more than the job's
    /// positions or [`MAX_HITS_RESERVED`].
    fn expected_hits(&self, job: &Job) -> usize {
        let positions = match job {
            Job::Scan(range) => range.len(),
            Job::Fetch(range) => range.len(),
        };
        let share = self.est_hits_per_position * positions as f64;
        // A NaN estimate casts to 0.
        ((share * 1.0625) as usize + 16).min(positions).min(MAX_HITS_RESERVED)
    }
}

/// Sentinel error a worker returns when it observes cooperative
/// cancellation mid-batch. It never surfaces: `fail` keeps the first
/// error, and cancellation is only ever set after a real failure (or
/// this same sentinel racing it) was recorded.
fn cancelled_sentinel() -> EngineError {
    EngineError::Internal { detail: "query cancelled".into() }
}

/// One worker: pulls jobs off the shared dispatcher until the list is
/// drained or the query is cancelled, and hands back its `(job index,
/// hits)` segments. Budget breaches are recorded in `shared` and stop
/// every worker; panics are caught by the caller.
fn run_worker(w: &WorkerCtx<'_>) -> Vec<(usize, Vec<RowId>)> {
    let mut segments = Vec::new();
    // Scored rows hook the invocation budget, the deadline and the
    // cancellation flag — the per-row cadence at which the reference
    // interpreter's check can first observe the invocation budget trip.
    let mut after_scalar = || -> Result<(), EngineError> {
        if w.shared.cancelled() {
            return Err(cancelled_sentinel());
        }
        w.shared.check_invocations(w.scorer.invocations())?;
        w.gs.check_deadline()
    };
    let mut ctx = BatchCtx::new(w.table, w.scorer, &mut after_scalar);
    let mut sel: Vec<RowId> = Vec::with_capacity(SCAN_BATCH_ROWS);

    loop {
        if w.shared.cancelled() {
            break;
        }
        let i = w.shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= w.jobs.len() {
            break;
        }
        if let Err(e) = w.gs.check_deadline() {
            w.shared.fail(e);
            break;
        }
        if w.faults.scorer_panic_morsel() == Some(i) {
            // Injected fault: a scorer blowing up inside this worker,
            // converted to `EngineError::Internal` like any real model
            // panic.
            panic!("injected fault: scorer panicked in worker on morsel {i}");
        }

        let mut hits: Vec<RowId> = Vec::with_capacity(w.expected_hits(&w.jobs[i]));
        let result = match &w.jobs[i] {
            Job::Scan(range) => scan_job(w, range.clone(), &mut ctx, &mut sel, &mut hits),
            Job::Fetch(range) => fetch_job(w, range.clone(), &mut ctx, &mut sel, &mut hits),
        };
        match result {
            Ok(()) => segments.push((i, hits)),
            Err(e) => {
                // Harmless for the cancellation sentinel: the slot
                // already holds the error that caused the cancel.
                w.shared.fail(e);
                break;
            }
        }
    }
    segments
}

/// Most rows a scan hands the compiled predicate at once: a run of
/// consecutive surviving pages is cut here. Long enough that per-batch
/// costs (the tree walk, the cascade's buffers, one counter add per
/// node) vanish against per-row work, short enough that a batch's
/// selection vector, scores and decisions stay cache-resident. Measured
/// on `scan_cascade` (`exec.execute_dop1_us`): 1,024, 2,048 and 4,096
/// are within noise of each other, one 42-row page per batch costs
/// 10–15% more.
const SCAN_BATCH_ROWS: usize = 2048;

/// Scans the candidate pages of one page-aligned morsel. Candidate
/// pages are fault-fired, cancel-polled and charged one at a time, in
/// order; what is batched is only the predicate's evaluation, over runs
/// of consecutive candidate pages of up to [`SCAN_BATCH_ROWS`] rows
/// (one page alone, if a page holds more). A run ends at a skipped
/// page, at the batch limit and at the job's end, so a batch is always
/// the exact rows `start..end`, and it is handed to the predicate as
/// that range.
fn scan_job(
    w: &WorkerCtx<'_>,
    range: Range<RowId>,
    ctx: &mut BatchCtx<'_>,
    sel: &mut Vec<RowId>,
    hits: &mut Vec<RowId>,
) -> Result<(), EngineError> {
    let table = w.table;
    debug_assert!(
        !range.is_empty() && (range.start as usize).is_multiple_of(table.rows_per_page())
    );
    // Filters rows `start..end` — the pending run: charged, not yet
    // evaluated — into `hits`.
    let mut flush = |start: RowId, end: RowId| -> Result<(), EngineError> {
        if start == end {
            return Ok(());
        }
        w.compiled.filter_range(start..end, sel, ctx, hits)?;
        w.gs.check_deadline()
    };
    let pages = table.page_of(range.start)..table.page_of(range.end - 1) + 1;
    // Skipped pages touch no shared state: their count is flushed once
    // per job (it only matters to a query that succeeds).
    let mut read = 0u64;
    // The pending run; `end` is always the next page's first row.
    let (mut start, mut end) = (range.start, range.start);
    for page in set_bits(w.pages, pages.clone()) {
        let rows = page_rows(table, page);
        if rows.start != end {
            flush(start, end)?;
            (start, end) = (rows.start, rows.start);
        }
        if w.shared.cancelled() {
            return Err(cancelled_sentinel());
        }
        fire_page_fault(w.faults, page);
        w.shared.charge_pages(1)?;
        w.shared.charge_rows(rows.len() as u64)?;
        if (end - start) as usize + rows.len() > SCAN_BATCH_ROWS {
            flush(start, end)?;
            start = end;
        }
        end = rows.end;
        read += 1;
    }
    flush(start, end)?;
    w.shared.skipped.fetch_add(pages.len() as u64 - read, Ordering::Relaxed);
    Ok(())
}

/// The set bits of the bitmap `bits` within `range`, ascending.
fn set_bits(bits: &[u64], range: Range<usize>) -> impl Iterator<Item = usize> + '_ {
    (range.start / 64..range.end.div_ceil(64)).flat_map(move |w| {
        let below_end = match range.end - w * 64 {
            left if left >= 64 => u64::MAX,
            left => u64::MAX >> (64 - left),
        };
        let from_start = u64::MAX << range.start.saturating_sub(w * 64);
        let mut word = bits[w] & below_end & from_start;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

/// Evaluates one chunk of the fetch list. Maximal runs of rows sharing
/// a residual choice batch together; runs stay ascending, so output
/// order holds.
fn fetch_job(
    w: &WorkerCtx<'_>,
    range: Range<usize>,
    ctx: &mut BatchCtx<'_>,
    sel: &mut Vec<RowId>,
    hits: &mut Vec<RowId>,
) -> Result<(), EngineError> {
    let slice = &w.fetched[range.clone()];
    let mut i = 0;
    while i < slice.len() {
        if w.shared.cancelled() {
            return Err(cancelled_sentinel());
        }
        let flag = slice[i].1;
        let mut j = i + 1;
        while j < slice.len() && slice[j].1 == flag {
            j += 1;
        }
        w.shared.charge_rows((j - i) as u64)?;
        sel.clear();
        sel.extend(slice[i..j].iter().map(|(r, _)| *r));
        let pred = match (flag, w.compiled_skip) {
            (true, Some(skip)) => skip,
            _ => w.compiled,
        };
        pred.filter_batch(sel, ctx, hits)?;
        w.gs.check_deadline()?;
        i = j;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Atom, AtomPred, Expr};
    use crate::optimizer::{choose_plan, OptimizerOptions};
    use crate::table::Table;
    use mpq_types::{AttrDomain, AttrId, Attribute, Dataset, Schema};

    /// 100k rows; the rare member (0.1%) occupies the first 100 rows so
    /// its heap pages are genuinely few.
    fn catalog() -> Catalog {
        let schema = Schema::new(vec![Attribute::new(
            "a",
            AttrDomain::categorical(["rare", "common"]),
        )])
        .unwrap();
        let rows = (0..100_000).map(|i| vec![u16::from(i >= 100)]);
        let ds = Dataset::from_rows(schema, rows).unwrap();
        let mut cat = Catalog::new();
        let t = cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        cat.create_index(t, &[AttrId(0)]);
        cat
    }

    fn run(e: Expr, cat: &Catalog) -> ExecResult {
        let schema = cat.table(0).table.schema().clone();
        let plan = choose_plan(e, 0, &schema, cat, &OptimizerOptions::default());
        execute(&plan, cat)
    }

    /// Plans with zone-map costing off — the rare-member predicates here
    /// otherwise cost so few covered pages that a pruned scan beats any
    /// index path, and these tests exist to exercise the index paths.
    fn plan_no_zone(e: Expr, cat: &Catalog) -> Plan {
        let schema = cat.table(0).table.schema().clone();
        let opts = OptimizerOptions { use_zone_maps: false, ..OptimizerOptions::default() };
        choose_plan(e, 0, &schema, cat, &opts)
    }

    #[test]
    fn full_scan_reads_all_pages_and_filters() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) }); // 99%
        let r = run(e, &cat);
        assert_eq!(r.rows.len(), 99_900);
        assert_eq!(r.metrics.rows_examined, 100_000);
        // Member 1 appears on every page, so nothing is prunable.
        assert_eq!(r.metrics.pages_skipped, 0);
        assert_eq!(r.metrics.heap_pages_read, cat.table(0).table.n_pages() as u64);
    }

    #[test]
    fn page_bitmaps_prune_clustered_scan() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) }); // 0.1%, clustered
        let plan = Plan { access: AccessPath::FullScan, ..plan_no_zone(e, &cat) };
        let n_pages = cat.table(0).table.n_pages() as u64;
        let vectorized = execute(&plan, &cat);
        assert_eq!(vectorized.rows.len(), 100);
        assert_eq!(vectorized.metrics.heap_pages_read, 1, "only page 0 holds member 0");
        assert_eq!(vectorized.metrics.pages_skipped, n_pages - 1);
        // The reference interpreter prunes identically — metrics match
        // field-for-field apart from wall clock.
        let reference = execute_opts(
            &plan,
            &cat,
            QueryGuard::unlimited(),
            &ExecOptions { vectorized: false, ..ExecOptions::default() },
        )
        .unwrap();
        assert_eq!(vectorized.rows, reference.rows);
        assert_eq!(vectorized.metrics.heap_pages_read, reference.metrics.heap_pages_read);
        assert_eq!(vectorized.metrics.pages_skipped, reference.metrics.pages_skipped);
        assert_eq!(vectorized.metrics.rows_examined, reference.metrics.rows_examined);
    }

    #[test]
    fn index_seek_touches_few_pages() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) }); // 1%
        let plan = plan_no_zone(e, &cat);
        let r = execute(&plan, &cat);
        assert_eq!(r.rows.len(), 100);
        assert_eq!(r.metrics.rows_examined, 100, "only matched rows fetched");
        assert!(
            r.metrics.heap_pages_read < cat.table(0).table.n_pages() as u64,
            "index fetch must touch fewer pages than a scan"
        );
        assert!(r.metrics.index_pages_read >= 1);
    }

    #[test]
    fn constant_scan_touches_nothing() {
        let cat = catalog();
        let r = run(Expr::Const(false), &cat);
        assert!(r.rows.is_empty());
        assert_eq!(r.metrics.total_pages(), 0);
        assert_eq!(r.metrics.rows_examined, 0);
    }

    #[test]
    fn index_union_dedupes_rows() {
        let cat = catalog();
        // a = rare OR a = rare (duplicate seeks) must not double-count.
        let e = Expr::Or(vec![
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) }),
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) }),
        ]);
        // Bypass normalize-dedup on purpose: hand the raw OR to the
        // optimizer.
        let plan = plan_no_zone(e, &cat);
        let r = execute(&plan, &cat);
        assert_eq!(r.rows.len(), 100);
        assert!(r.rows.windows(2).all(|w| w[0] < w[1]), "sorted, deduped row ids");
    }

    #[test]
    fn merge_union_keeps_exact_copy() {
        let cat = catalog();
        let t = &cat.table(0).table;
        let lists = vec![
            (vec![1, 4, 7, 9], false),
            (vec![0, 4, 9, 12], true),
            (vec![], true),
        ];
        let merged = merge_union(&lists, true);
        assert_eq!(
            merged,
            vec![(0, true), (1, false), (4, true), (7, false), (9, true), (12, true)]
        );
        // Without a skip_or residual the flag is always false.
        assert!(merge_union(&lists, false).iter().all(|&(_, f)| !f));
        // Distinct-page counting over the sorted merge agrees with a
        // brute-force count.
        let pages = distinct_pages(merged.iter().map(|&(r, _)| r), t);
        let brute: std::collections::BTreeSet<usize> =
            merged.iter().map(|&(r, _)| t.page_of(r)).collect();
        assert_eq!(pages, brute.len() as u64);
    }

    #[test]
    fn guard_trips_row_budget_without_partial_result() {
        use crate::error::GuardResource;
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) });
        let schema = cat.table(0).table.schema().clone();
        let plan = choose_plan(e, 0, &schema, &cat, &OptimizerOptions::default());
        let plan = Plan { access: AccessPath::FullScan, ..plan };
        let guard = QueryGuard::default().with_max_rows_examined(10);
        match execute_guarded(&plan, &cat, guard) {
            Err(crate::EngineError::BudgetExceeded { resource, spent, limit }) => {
                assert_eq!(resource, GuardResource::RowsExamined);
                assert_eq!(limit, 10);
                assert_eq!(spent, 11, "detected on the first row past the limit");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn guard_headroom_recorded_on_success() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) });
        let plan = plan_no_zone(e, &cat);
        let guard = QueryGuard::default().with_max_rows_examined(1_000);
        let r = execute_guarded(&plan, &cat, guard).unwrap();
        assert_eq!(r.rows.len(), 100);
        assert_eq!(r.metrics.guard.rows_remaining, Some(900));
        assert_eq!(r.metrics.guard.pages_remaining, None, "pages unlimited");
    }

    #[test]
    fn index_fault_falls_back_to_scan_with_identical_rows() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) });
        let plan = plan_no_zone(e, &cat);
        assert!(
            matches!(plan.access, AccessPath::IndexSeek(_) | AccessPath::IndexUnion(_)),
            "selective predicate should choose an index path"
        );
        let healthy = execute(&plan, &cat);
        cat.faults().set_index_probe_failure(true);
        let degraded = execute(&plan, &cat);
        cat.faults().reset();
        assert_eq!(healthy.rows, degraded.rows, "fallback must not change the row set");
        assert!(degraded.metrics.index_fallback);
        assert!(!healthy.metrics.index_fallback);
        // The fallback scans the heap, but the page bitmaps prove most
        // pages empty for this clustered member — skipped + read covers it.
        let n_pages = cat.table(0).table.n_pages() as u64;
        assert_eq!(
            degraded.metrics.heap_pages_read + degraded.metrics.pages_skipped,
            n_pages
        );
        assert!(degraded.metrics.pages_skipped > 0, "the page bitmaps prune the fallback");
        assert_eq!(degraded.metrics.index_pages_read, 0);
    }

    #[test]
    fn results_identical_across_access_paths() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) });
        let seek_plan = plan_no_zone(e, &cat);
        // Force a scan by disallowing union + pretending no indexes:
        let scan_plan = Plan {
            access: AccessPath::FullScan,
            ..seek_plan.clone()
        };
        assert_eq!(execute(&seek_plan, &cat).rows, execute(&scan_plan, &cat).rows);
    }

    // -- dop > 1 unit tests (the heavyweight differential oracles live
    //    in tests/parallel_oracle.rs and tests/vectorized_oracle.rs) ----

    /// Asserts a run matched the dop-1 run of the same pipeline on
    /// everything that must be deterministic (all metrics except the
    /// wall-clock fields).
    fn assert_matches_serial(serial: &ExecResult, parallel: &ExecResult) {
        assert_eq!(serial.rows, parallel.rows, "row sets (and order) must match");
        let (s, p) = (&serial.metrics, &parallel.metrics);
        assert_eq!(s.rows_examined, p.rows_examined);
        assert_eq!(s.heap_pages_read, p.heap_pages_read);
        assert_eq!(s.index_pages_read, p.index_pages_read);
        assert_eq!(s.pages_skipped, p.pages_skipped);
        assert_eq!(s.model_invocations, p.model_invocations);
        assert_eq!(s.memo_hits, p.memo_hits);
        assert_eq!(s.cascade_accepts, p.cascade_accepts);
        assert_eq!(s.cascade_rejects, p.cascade_rejects);
        assert_eq!(s.band_rows, p.band_rows);
        assert_eq!(s.output_rows, p.output_rows);
        assert_eq!(s.index_fallback, p.index_fallback);
        assert_eq!(s.subs_matched, p.subs_matched);
        assert_eq!(s.subs_index_pruned, p.subs_index_pruned);
        assert_eq!(s.clauses_reordered, p.clauses_reordered);
        assert_eq!(s.factor_hits, p.factor_hits);
        assert_eq!(s.guard.rows_remaining, p.guard.rows_remaining);
        assert_eq!(s.guard.pages_remaining, p.guard.pages_remaining);
        assert_eq!(
            s.guard.model_invocations_remaining,
            p.guard.model_invocations_remaining
        );
    }

    #[test]
    fn parallel_full_scan_matches_serial() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) });
        let schema = cat.table(0).table.schema().clone();
        let plan = choose_plan(e, 0, &schema, &cat, &OptimizerOptions::default());
        let plan = Plan { access: AccessPath::FullScan, ..plan };
        let guard = QueryGuard::default().with_max_rows_examined(200_000);
        let serial = execute_guarded(&plan, &cat, guard).unwrap();
        for dop in [2usize, 4, 8] {
            let par =
                execute_opts(&plan, &cat, guard, &ExecOptions::with_parallelism(dop))
                    .unwrap();
            assert_matches_serial(&serial, &par);
        }
    }

    #[test]
    fn parallel_pruned_scan_matches_serial() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) });
        let plan = Plan { access: AccessPath::FullScan, ..plan_no_zone(e, &cat) };
        let serial = execute(&plan, &cat);
        assert!(serial.metrics.pages_skipped > 0);
        for dop in [2usize, 8] {
            let par = execute_opts(
                &plan,
                &cat,
                QueryGuard::unlimited(),
                &ExecOptions::with_parallelism(dop),
            )
            .unwrap();
            assert_matches_serial(&serial, &par);
        }
    }

    #[test]
    fn parallel_index_paths_match_serial() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) });
        let plan = plan_no_zone(e, &cat);
        let serial = execute(&plan, &cat);
        for dop in [2usize, 8] {
            let par = execute_opts(
                &plan,
                &cat,
                QueryGuard::unlimited(),
                &ExecOptions::with_parallelism(dop),
            )
            .unwrap();
            assert_matches_serial(&serial, &par);
        }
    }

    #[test]
    fn parallel_breach_classifies_like_serial() {
        use crate::error::GuardResource;
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) });
        let schema = cat.table(0).table.schema().clone();
        let plan = choose_plan(e, 0, &schema, &cat, &OptimizerOptions::default());
        let plan = Plan { access: AccessPath::FullScan, ..plan };
        let guard = QueryGuard::default().with_max_rows_examined(1_000);
        for dop in [2usize, 4] {
            match execute_opts(&plan, &cat, guard, &ExecOptions::with_parallelism(dop)) {
                Err(crate::EngineError::BudgetExceeded { resource, spent, limit }) => {
                    assert_eq!(resource, GuardResource::RowsExamined);
                    assert_eq!(limit, 1_000);
                    assert_eq!(spent, limit + 1, "the first row past the limit, at any dop");
                }
                other => panic!("expected BudgetExceeded at dop {dop}, got {other:?}"),
            }
        }
    }

    #[test]
    fn parallel_worker_panic_surfaces_as_internal_error() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) });
        let schema = cat.table(0).table.schema().clone();
        let plan = choose_plan(e, 0, &schema, &cat, &OptimizerOptions::default());
        let plan = Plan { access: AccessPath::FullScan, ..plan };
        cat.faults().set_scorer_panic_on_morsel(Some(1));
        let res = execute_opts(
            &plan,
            &cat,
            QueryGuard::unlimited(),
            &ExecOptions::with_parallelism(4),
        );
        cat.faults().reset();
        match res {
            Err(EngineError::Internal { detail }) => {
                assert!(detail.contains("morsel 1"), "detail: {detail}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The catalog is untouched and immediately usable again.
        let ok = execute_opts(
            &plan,
            &cat,
            QueryGuard::unlimited(),
            &ExecOptions::with_parallelism(4),
        )
        .unwrap();
        assert_eq!(ok.rows.len(), 99_900);
    }

    #[test]
    fn scorer_panic_on_page_is_typed_at_every_dop_and_raw_in_the_reference() {
        let cat = catalog();
        let e = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) });
        let schema = cat.table(0).table.schema().clone();
        let plan = choose_plan(e, 0, &schema, &cat, &OptimizerOptions::default());
        let plan = Plan { access: AccessPath::FullScan, ..plan };
        cat.faults().set_scorer_panic_on_page(Some(2));
        let reference = ExecOptions { vectorized: false, ..ExecOptions::default() };
        let raw = catch_unwind(AssertUnwindSafe(|| {
            execute_opts(&plan, &cat, QueryGuard::unlimited(), &reference)
        }));
        assert!(raw.is_err(), "the reference interpreter hits the page fault raw");
        for dop in [1usize, 4] {
            let res = execute_opts(
                &plan,
                &cat,
                QueryGuard::unlimited(),
                &ExecOptions::with_parallelism(dop),
            );
            match res {
                Err(EngineError::Internal { detail }) => {
                    assert!(detail.contains("heap page 2"), "dop {dop}: {detail}");
                }
                other => panic!("dop {dop}: expected Internal, got {other:?}"),
            }
        }
        cat.faults().reset();
    }

    /// `parallelism` is a public field: values outside `1..=256` are
    /// clamped at the top of `execute_opts` and never reach the job
    /// splitter's `4 × workers` arithmetic.
    #[test]
    fn unclamped_parallelism_matches_dop_one() {
        let cat = catalog();
        let rare = || Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) });
        let scan = Plan {
            access: AccessPath::FullScan,
            ..plan_no_zone(Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) }), &cat)
        };
        let union = plan_no_zone(Expr::Or(vec![rare(), rare()]), &cat);
        assert!(matches!(union.access, AccessPath::IndexUnion(_)));
        for plan in [&scan, &union] {
            let serial = execute(plan, &cat);
            for parallelism in [0, 1 << 62, usize::MAX] {
                let opts = ExecOptions { parallelism, ..ExecOptions::default() };
                let res = execute_opts(plan, &cat, QueryGuard::unlimited(), &opts).unwrap();
                assert_matches_serial(&serial, &res);
            }
        }
    }

    #[test]
    fn parallel_empty_table_and_constant_scan() {
        let schema = Schema::new(vec![Attribute::new(
            "a",
            AttrDomain::categorical(["x", "y"]),
        )])
        .unwrap();
        let ds = Dataset::new(schema.clone());
        let mut cat = Catalog::new();
        cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        let plan = choose_plan(
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) }),
            0,
            &schema,
            &cat,
            &OptimizerOptions::default(),
        );
        let par = execute_opts(
            &plan,
            &cat,
            QueryGuard::unlimited(),
            &ExecOptions::with_parallelism(8),
        )
        .unwrap();
        assert!(par.rows.is_empty());
        let constant = choose_plan(
            Expr::Const(false),
            0,
            &schema,
            &cat,
            &OptimizerOptions::default(),
        );
        let par = execute_opts(
            &constant,
            &cat,
            QueryGuard::unlimited(),
            &ExecOptions::with_parallelism(8),
        )
        .unwrap();
        assert_eq!(par.metrics.total_pages(), 0);
    }
}
