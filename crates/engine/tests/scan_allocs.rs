//! A deterministic work gate on the scan's inner loop: how many times,
//! and for how many bytes, `execute_opts` goes to the allocator for a
//! full scan. Timings drift with the machine; these counts do not.
//!
//! The contract: a scan batch enters the compiled predicate as a row
//! range, so nothing is allocated per batch — the selection vector, the
//! `Boxes` kernel's accumulator and the cascade's buffers are per-worker
//! scratch that reaches its size on the first batch — the hit list is
//! reserved once from the plan's estimated selectivity, and the scan's
//! candidate pages are one bitmap computed once per execution, with the
//! scratch its computation needs in the same allocation. Before this
//! gate existed every batch wrote its row ids out before the first leaf
//! read them back, and the hit list grew by doubling from empty (14
//! reallocations and twice the result's bytes for 12k rows).
//!
//! The counting allocator is this binary's `#[global_allocator]`, which
//! is why the gate is a test binary of its own (the pattern of
//! `crates/server/tests/reply_allocs.rs`). Counters are per thread, and
//! a dop-1 execution runs inline on the calling thread, so the test
//! harness's other threads cannot disturb them.

use mpq_engine::{
    choose_plan, execute_opts, AccessPath, Atom, AtomPred, Catalog, ExecOptions, ExecResult, Expr,
    OptimizerOptions, QueryGuard, Table, ASSUMED_COLUMN_BYTES, DEFAULT_PAGE_BYTES,
};
use mpq_types::{AttrDomain, AttrId, Attribute, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// (allocator calls that returned new memory, bytes they asked for)
    /// on this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = ALLOCATED.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees are this
// allocator's; the only addition is a thread-local counter update, which
// neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocator calls and bytes
/// it made on this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls0, bytes0) = ALLOCATED.with(Cell::get);
    let out = f();
    let (calls1, bytes1) = ALLOCATED.with(Cell::get);
    (out, calls1 - calls0, bytes1 - bytes0)
}

fn schema() -> Schema {
    let members = |prefix: &str, n: usize| {
        AttrDomain::categorical((0..n).map(|m| format!("{prefix}{m}")))
    };
    Schema::new(vec![
        Attribute::new("a", members("a", 4)),
        Attribute::new("b", members("b", 3)),
        Attribute::new("c", members("c", 5)),
    ])
    .unwrap()
}

/// `n` rows (a multiple of 60) cycling through the 4×3×5 grid, so the
/// columns are exactly independent, every histogram estimate is exact
/// and every page holds every member: no zone map prunes anything.
/// Pages hold 85 rows, so a batch is 24 pages (2,040 rows).
fn catalog(n: usize) -> Catalog {
    assert_eq!(n % 60, 0);
    let column = |cell: fn(usize) -> usize| (0..n).map(|i| cell(i) as u16).collect::<Vec<_>>();
    let columns = vec![column(|i| i % 4), column(|i| i / 4 % 3), column(|i| i / 12 % 5)];
    let rows_per_page = DEFAULT_PAGE_BYTES / (columns.len() * ASSUMED_COLUMN_BYTES);
    let mut cat = Catalog::new();
    cat.add_table(Table::from_encoded_parts("t", schema(), columns, rows_per_page).unwrap()).unwrap();
    cat
}

/// Plans `e` (a full scan: the table has no index) and executes it at
/// dop 1, counting what `execute_opts` alone allocates.
fn scan(cat: &Catalog, e: Expr) -> (ExecResult, u64, u64) {
    scan_estimating(cat, e, None)
}

/// [`scan`], with the plan's estimated selectivity overwritten when
/// `est_selectivity` is given.
fn scan_estimating(cat: &Catalog, e: Expr, est_selectivity: Option<f64>) -> (ExecResult, u64, u64) {
    let mut plan = choose_plan(e, 0, &schema(), cat, &OptimizerOptions::default());
    assert!(matches!(plan.access, AccessPath::FullScan), "plan: {:?}", plan.access);
    if let Some(est) = est_selectivity {
        plan.est_selectivity = est;
    }
    let (result, calls, bytes) = counting(|| {
        execute_opts(&plan, cat, QueryGuard::unlimited(), &ExecOptions::default())
    });
    let result = result.expect("an unlimited scan cannot fail");
    assert_eq!(result.metrics.rows_examined as usize, cat.table(0).table.n_rows());
    assert_eq!(result.metrics.pages_skipped, 0);
    (result, calls, bytes)
}

fn atom(col: u16, pred: AtomPred) -> Expr {
    Expr::Atom(Atom { attr: AttrId(col), pred })
}

/// 48k rows through one `Col` leaf, a quarter of them returned: the
/// allocator is called the same number of times as for half the table —
/// the hit list once, the selection vector once, the candidate-page
/// bitmap once, the rest compile-time and per-execution state — and for
/// less than 1.5x the result's bytes.
#[test]
fn a_col_leaf_scan_allocates_a_constant_number_of_times() {
    /// The compiled leaf's mask, the job list, the candidate-page
    /// bitmap, the worker's row buffer, selection vector and segment
    /// list, and the hit list.
    const ALLOCATIONS: u64 = 7;
    let mut seen = Vec::new();
    for n in [24_000, 48_000] {
        let (result, calls, bytes) = scan(&catalog(n), atom(0, AtomPred::Eq(1)));
        assert_eq!(result.rows.len(), n / 4);
        assert_eq!(calls, ALLOCATIONS, "allocator calls for a {n}-row scan");
        let result_bytes = 4 * result.rows.len() as u64;
        assert!(
            2 * bytes < 3 * result_bytes,
            "{bytes} bytes allocated to return {result_bytes} bytes of row ids"
        );
        seen.push(calls);
    }
    assert_eq!(seen[0], seen[1], "twice the batches, the same allocations");
}

/// The same scan through a root `Boxes` leaf over all three columns: the
/// kernel's per-row accumulator is allocated on the first batch and no
/// batch after it allocates anything — no per-batch list of column
/// slices, no per-batch id list. The whole count is a `Col` leaf's
/// scan less its mask (six, the candidate-page bitmap and the `Boxes`
/// walk's two scratch bitmaps in one of them), the leaf's column list
/// and its three columns' disjunct tables and constrained-disjunct sets
/// (seven), the accumulator, and one doubling of the hit list, which
/// the independence estimate (24.5% against 26.7%) sizes short.
#[test]
fn a_three_column_boxes_scan_allocates_nothing_per_batch() {
    let boxes = || {
        Expr::Or(vec![
            Expr::And(vec![atom(0, AtomPred::Eq(0)), atom(1, AtomPred::Eq(0))]),
            Expr::And(vec![atom(1, AtomPred::Eq(1)), atom(2, AtomPred::Range { lo: 0, hi: 1 })]),
            Expr::And(vec![atom(0, AtomPred::Eq(3)), atom(2, AtomPred::Eq(4))]),
        ])
    };
    let (half, half_calls, _) = scan(&catalog(24_000), boxes());
    let (full, full_calls, _) = scan(&catalog(48_000), boxes());
    assert_eq!(full.rows.len(), 2 * half.rows.len());
    assert!(full.rows.len() > 10_000);
    assert_eq!(full_calls, half_calls, "12 more batches, no more allocations");
    assert_eq!(full_calls, 15, "allocator calls for a 48,000-row scan");
}

/// An estimate is a guess. A plan that expects every row of a 600k-row
/// table and finds one in sixty must not reserve the table's worth of
/// row ids (2.4 MB) on its word: the up-front reservation stops at 1 MB,
/// whatever the estimate, and a plan that expects nothing still returns
/// everything by doubling.
#[test]
fn a_wrong_estimate_reserves_a_bounded_hit_list() {
    const N: usize = 600_000;
    let cat = catalog(N);
    let one_cell = || {
        Expr::And(vec![atom(0, AtomPred::Eq(1)), atom(1, AtomPred::Eq(1)), atom(2, AtomPred::Eq(1))])
    };
    let (high, _, bytes) = scan_estimating(&cat, one_cell(), Some(1.0));
    assert_eq!(high.rows.len(), N / 60);
    assert!(bytes < 3 << 19, "{bytes} bytes allocated on an estimate of every row");
    for est in [0.0, f64::NAN] {
        let (low, _, _) = scan_estimating(&cat, one_cell(), Some(est));
        assert_eq!(low.rows, high.rows);
    }
}

/// A naive Bayes over the test schema with classes `x` and `y` whose
/// scores never tie on the grid; `shift` moves its decision surface.
fn bayes(shift: usize) -> mpq_models::NaiveBayes {
    let tables: Vec<Vec<Vec<f64>>> = [4usize, 3, 5]
        .iter()
        .enumerate()
        .map(|(d, &card)| {
            let weights = |k: usize| -> Vec<f64> {
                let w: Vec<f64> =
                    (0..card).map(|m| 1.0 + ((m + d + k * shift) % card) as f64 * 0.37).collect();
                let total: f64 = w.iter().sum();
                w.into_iter().map(|v| v / total).collect()
            };
            let (x, y) = (weights(0), weights(1));
            (0..card).map(|m| vec![x[m], y[m]]).collect()
        })
        .collect();
    mpq_models::NaiveBayes::from_probabilities(
        schema(),
        vec!["x".into(), "y".into()],
        &[0.45, 0.55],
        &tables,
    )
    .unwrap()
}

/// Cascaded scans never reach the scorer: a lone `PREDICT(m) = c` and
/// the fused `PREDICT(m1) = PREDICT(m2)` leaf allocate nothing per batch,
/// so twice the batches cost the same allocations.
#[test]
fn a_cascaded_scan_that_never_scores_allocates_nothing_per_batch() {
    use mpq_engine::MiningPred;
    let preds = [
        MiningPred::ClassEq { model: 0, class: mpq_types::ClassId(1) },
        MiningPred::ModelsAgree { m1: 0, m2: 1 },
    ];
    let opts = OptimizerOptions { use_envelopes: false, ..OptimizerOptions::default() };
    for pred in preds {
        let mut seen = Vec::new();
        for n in [24_000, 48_000] {
            let mut cat = catalog(n);
            for (name, shift) in [("m", 1), ("m2", 2)] {
                let model = std::sync::Arc::new(bayes(shift));
                cat.add_model(name, model, mpq_core::DeriveOptions::default()).unwrap();
            }
            let plan = choose_plan(Expr::Mining(pred.clone()), 0, &schema(), &cat, &opts);
            assert_eq!(plan.cascades.len(), pred.models().len(), "{pred:?}");
            let (result, calls, _) = counting(|| {
                execute_opts(&plan, &cat, QueryGuard::unlimited(), &ExecOptions::default())
            });
            let m = result.expect("an unlimited scan cannot fail").metrics;
            assert_eq!((m.rows_examined, m.band_rows, m.model_invocations), (n as u64, 0, 0));
            assert!(m.output_rows > 0 && m.output_rows < n as u64, "{pred:?}");
            seen.push(calls);
        }
        assert_eq!(seen[0], seen[1], "{pred:?}: twice the batches, the same allocations");
    }
}
