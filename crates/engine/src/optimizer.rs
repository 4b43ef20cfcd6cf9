//! Cost-based access-path selection.
//!
//! The decision the paper's experiments exercise: given a (possibly
//! envelope-augmented) predicate, choose between a **full scan**, a
//! **single index seek** on a sargable conjunct, a **multi-index union**
//! over a disjunctive conjunct (Mohan et al.'s single-table multi-index
//! access), or a **constant scan** when the predicate is unsatisfiable.
//! Selectivities come from exact member histograms; unclustered fetches
//! are costed with the Cardenas distinct-page estimate, which is what
//! makes low-selectivity envelope predicates win and high-selectivity
//! ones lose (Figure 6's shape).
//!
//! The plan also fixes the residual's evaluation order
//! (`order_conjuncts`): the executor runs conjuncts as written.

use crate::catalog::Catalog;
use crate::expr::{Atom, AtomPred, Expr, MiningPred, ModelId};
use crate::stats::TableStats;
use mpq_types::{AttrId, Schema};

/// Tunable cost constants, in units of one sequential page read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU cost of evaluating the residual predicate on one row.
    pub cpu_row: f64,
    /// Cost of one black-box model invocation (applying the mining model
    /// to a row). The paper notes reductions would grow if this is high.
    pub model_invoke: f64,
    /// Fixed cost of opening an index (root-to-leaf traversal).
    pub index_seek: f64,
    /// Random-fetch penalty multiplier for unclustered heap page reads.
    pub random_page: f64,
    /// Pretended row width in bytes for page accounting. The stored
    /// representation is dictionary-compressed members (2 bytes/column);
    /// the paper's tables hold the original values (strings, floats,
    /// ~tens of bytes per column), and it is that width that makes scans
    /// page-bound. 32 bytes/column places the scan-vs-seek crossover
    /// near 10% selectivity — where Figure 6 observes it.
    pub assumed_row_bytes_per_column: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_row: 0.002,
            model_invoke: 0.01,
            index_seek: 1.5,
            random_page: 1.2,
            assumed_row_bytes_per_column: crate::table::ASSUMED_COLUMN_BYTES,
        }
    }
}

/// Optimizer behavior switches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerOptions {
    /// Whether mining predicates are rewritten with upper envelopes at
    /// all — the experiment's treatment/control switch.
    pub use_envelopes: bool,
    /// Maximum disjuncts a conjunct-OR may have before the optimizer
    /// refuses index union (the paper's "complex AND/OR expressions
    /// degenerate to sequential scan" behavior, made explicit).
    pub max_union_disjuncts: usize,
    /// Whether full-scan costing credits zone-map pruning: pages no
    /// member of the predicate can appear on are proven empty by the
    /// executor and never read, which makes scans over clustered
    /// selective members competitive with index seeks.
    pub use_zone_maps: bool,
    /// Whether models may be compiled out of the query: exact envelopes
    /// replace their mining predicate outright, and additive-score
    /// models get a proxy cascade, which decides their predicates
    /// without the real scorer. Off = the classic envelope+residual
    /// reference path.
    pub compile_models: bool,
    /// Cost constants.
    pub cost: CostModel,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            use_envelopes: true,
            max_union_disjuncts: 640,
            use_zone_maps: true,
            compile_models: true,
            cost: CostModel::default(),
        }
    }
}

/// One index probe: which index of the table entry, and the per-column
/// sargable predicates pushed into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Seek {
    /// Position within [`crate::TableEntry`]'s index list.
    pub index: usize,
    /// Predicates pushed into the index, one per constrained column.
    pub preds: Vec<(AttrId, AtomPred)>,
    /// True when the pushed predicates imply the *entire* disjunct this
    /// seek serves: fetched rows then already satisfy the disjunction and
    /// only the plan's `skip_or` residual (other conjuncts) needs
    /// evaluation — the covering-index fast path.
    pub exact: bool,
}

/// The chosen access path.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Read every heap page.
    FullScan,
    /// The predicate is unsatisfiable; produce zero rows without touching
    /// the table.
    ConstantScan,
    /// Probe one (possibly composite) secondary index.
    IndexSeek(Seek),
    /// Probe several indexes and union the row ids (one seek per
    /// disjunct of a conjunct-OR — Mohan et al.'s multi-index access).
    IndexUnion(Vec<Seek>),
}

impl AccessPath {
    /// Whether this is something other than the default full scan — the
    /// paper's "plan changed" criterion (index chosen or constant scan).
    pub fn changed_from_scan(&self) -> bool {
        !matches!(self, AccessPath::FullScan)
    }
}

/// A finished physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Table scanned/probed.
    pub table: usize,
    /// The access path.
    pub access: AccessPath,
    /// Predicate evaluated on every fetched row (always the full,
    /// semantics-preserving predicate).
    pub residual: Expr,
    /// For [`AccessPath::IndexUnion`]: the residual with the union's OR
    /// conjunct removed — sufficient for rows fetched by an *exact* seek
    /// (their disjunct already holds).
    pub skip_or: Option<Expr>,
    /// Estimated total cost (page units).
    pub est_cost: f64,
    /// Estimated output selectivity.
    pub est_selectivity: f64,
    /// For [`AccessPath::FullScan`]: heap pages (actual table pages,
    /// not cost-model units) the executor is expected to prove empty
    /// via zone maps and skip. Zero for other paths or when zone-map
    /// costing is off. Surfaced in EXPLAIN.
    pub est_pages_skipped: u64,
    /// Model versions this plan depended on (cache invalidation).
    pub model_versions: Vec<(ModelId, u64)>,
    /// Referenced models whose envelopes are degraded to trivial `TRUE`
    /// (derivation failed or timed out): the plan is still correct but
    /// could not use envelope-driven access paths for them. Surfaced in
    /// EXPLAIN.
    pub degraded_models: Vec<ModelId>,
    /// Models the rewrite compiled out of the query entirely (exact
    /// envelopes): the executor never invokes them. Filled in by the
    /// engine, which sees the pre-rewrite expression. Surfaced in
    /// EXPLAIN as `compiled: exact`.
    pub compiled_exact: Vec<ModelId>,
    /// Residual mining models with a verified proxy cascade: their
    /// predicates never reach the real scorer. Surfaced in EXPLAIN as
    /// `cascade: model 'm'`.
    pub cascades: Vec<ModelId>,
}

/// Estimates the selectivity of `expr` under attribute independence.
pub fn estimate_selectivity(expr: &Expr, stats: &TableStats, catalog: &Catalog) -> f64 {
    match expr {
        Expr::Const(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Expr::Atom(a) => atom_selectivity(a, stats),
        Expr::And(ps) => ps.iter().map(|p| estimate_selectivity(p, stats, catalog)).product(),
        Expr::Or(ps) => {
            1.0 - ps
                .iter()
                .map(|p| 1.0 - estimate_selectivity(p, stats, catalog))
                .product::<f64>()
        }
        Expr::Not(p) => 1.0 - estimate_selectivity(p, stats, catalog),
        Expr::Mining(mp) => mining_selectivity(mp, catalog),
    }
}

fn atom_selectivity(a: &Atom, stats: &TableStats) -> f64 {
    let col = stats.column(a.attr.index());
    match &a.pred {
        AtomPred::Eq(m) => col.eq_selectivity(*m),
        AtomPred::Range { lo, hi } => col.range_selectivity(*lo, *hi),
        AtomPred::In(s) => col.set_selectivity(s.iter()),
    }
}

/// Without a histogram on predictions, assume classes are uniform — the
/// envelope conjunct usually dominates the estimate anyway.
fn mining_selectivity(mp: &MiningPred, catalog: &Catalog) -> f64 {
    match mp {
        MiningPred::ClassEq { model, .. } => 1.0 / catalog.model(*model).model.n_classes() as f64,
        MiningPred::ClassIn { model, classes } => {
            (classes.len() as f64 / catalog.model(*model).model.n_classes() as f64).min(1.0)
        }
        MiningPred::ModelsAgree { m1, .. } => {
            1.0 / catalog.model(*m1).model.n_classes() as f64
        }
        MiningPred::ClassEqColumn { model, .. } => {
            1.0 / catalog.model(*model).model.n_classes() as f64
        }
    }
}

/// Orders every `And` of `expr` for evaluation: each maximal run of
/// mining-free conjuncts is stable-sorted by Kim/Ileri/Madden's rank,
/// cost ÷ (1 − selectivity), with cost the distinct columns a conjunct
/// reads (a lookup per column per row) and selectivity its exact
/// column marginals ([`estimate_selectivity`]). A conjunct that bears
/// a mining predicate never moves and no other crosses one, so every
/// model sees the rows, in the order, that the written order gives it.
/// A disjunction that compiles to one `Boxes` leaf has no order and is
/// left as it is. Ordering an ordered expression changes nothing.
fn order_conjuncts(expr: Expr, stats: &TableStats, catalog: &Catalog) -> Expr {
    let rank = |e: &Expr| {
        let mut cols = Vec::new();
        e.walk(&mut |n| {
            if let Expr::Atom(a) = n {
                cols.push(a.attr);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        let rejected = 1.0 - estimate_selectivity(e, stats, catalog);
        if rejected > 0.0 {
            cols.len() as f64 / rejected
        } else {
            f64::INFINITY
        }
    };
    match expr {
        Expr::And(ps) => {
            let mut ps: Vec<Expr> =
                ps.into_iter().map(|p| order_conjuncts(p, stats, catalog)).collect();
            for run in ps.split_mut(Expr::has_mining) {
                // Ranks are never negative or NaN, and such floats order
                // as their bits do. The sort is stable.
                run.sort_by_cached_key(|p| rank(p).to_bits());
            }
            Expr::And(ps)
        }
        Expr::Or(ps) if !crate::vectorized::is_box_dnf(&ps) => {
            Expr::Or(ps.into_iter().map(|p| order_conjuncts(p, stats, catalog)).collect())
        }
        other => other,
    }
}

/// Chooses the cheapest access path for `expr` against `table_id`.
/// `expr` must already be normalized (and envelope-rewritten if enabled).
/// The plan's residual is `expr` with its conjuncts in evaluation order
/// (`order_conjuncts`).
pub fn choose_plan(
    expr: Expr,
    table_id: usize,
    schema: &Schema,
    catalog: &Catalog,
    opts: &OptimizerOptions,
) -> Plan {
    let entry = catalog.table(table_id);
    let stats = &entry.stats;
    let expr = order_conjuncts(expr, stats, catalog);
    let n_rows = entry.table.n_rows() as f64;
    let cost = &opts.cost;
    // Page accounting uses an assumed on-disk row width.
    let rows_per_page = (crate::table::DEFAULT_PAGE_BYTES
        / (cost.assumed_row_bytes_per_column * schema.len()).max(1))
    .max(1) as f64;
    let heap_pages = (n_rows / rows_per_page).ceil().max(1.0);

    let model_versions: Vec<(ModelId, u64)> = {
        let mut v: Vec<ModelId> =
            expr.mining_preds().iter().flat_map(|mp| mp.models()).collect();
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(|m| (m, catalog.model(m).version)).collect()
    };
    let degraded_models: Vec<ModelId> = model_versions
        .iter()
        .map(|(m, _)| *m)
        .filter(|m| catalog.model(*m).degraded.is_some())
        .collect();

    let sel = estimate_selectivity(&expr, stats, catalog);
    // Residual mining models with a proxy table cascade never pay the
    // real scorer.
    let cascades: Vec<ModelId> = if opts.compile_models {
        model_versions
            .iter()
            .map(|(m, _)| *m)
            .filter(|m| catalog.model(*m).proxy.is_some())
            .collect()
    } else {
        Vec::new()
    };
    let expected_invokes = expr
        .mining_preds()
        .iter()
        .flat_map(|mp| mp.models())
        .filter(|m| !cascades.contains(m))
        .count() as f64;
    let per_row_residual = cost.cpu_row + expected_invokes * cost.model_invoke;

    // Every candidate is this plan with its own access path and costs.
    // An unsatisfiable predicate reads no model, so it is the plan.
    let base = Plan {
        table: table_id,
        access: AccessPath::ConstantScan,
        residual: expr,
        skip_or: None,
        est_cost: 0.0,
        est_selectivity: sel,
        est_pages_skipped: 0,
        model_versions,
        degraded_models,
        compiled_exact: Vec::new(),
        cascades,
    };
    let expr = &base.residual;
    if *expr == Expr::Const(false) {
        return base;
    }

    // Candidate: full scan, credited with zone-map pruning: only pages
    // some predicate member can appear on are read (and only their rows
    // evaluated). `covered_pages` works in actual table pages; the cost
    // keeps the assumed-width page units via the covered *fraction*.
    let n_pages_actual = entry.table.n_pages() as u64;
    let (covered_frac, est_pages_skipped) = if opts.use_zone_maps && n_pages_actual > 0 {
        let covered = covered_pages(expr, stats, schema, n_pages_actual);
        (covered as f64 / n_pages_actual as f64, n_pages_actual - covered)
    } else {
        (1.0, 0)
    };
    let scan_cost = heap_pages * covered_frac + n_rows * covered_frac * per_row_residual;
    let mut best = Plan {
        access: AccessPath::FullScan,
        est_cost: scan_cost,
        est_pages_skipped,
        ..base.clone()
    };

    // Fetch cost of `k` expected rows through an unclustered index:
    // traversal + postings traffic + Cardenas distinct heap pages +
    // residual evaluation on the fetched rows.
    let fetch_cost = |k: f64| {
        let p = heap_pages;
        let distinct = p * (1.0 - (1.0 - 1.0 / p).powf(k));
        let posting_pages = k / (rows_per_page * 4.0).max(1.0);
        cost.index_seek + posting_pages + distinct * cost.random_page + k * per_row_residual
    };

    // Candidate: single index seek over the top-level sargable conjuncts
    // (composite indexes absorb several atoms at once).
    if let Some((seek, s)) = best_seek(&sargable_conjuncts(expr), entry) {
        let c = fetch_cost(s * n_rows);
        if c < best.est_cost {
            best = Plan { access: AccessPath::IndexSeek(seek), est_cost: c, ..base.clone() };
        }
    }

    // Candidate: index union over a disjunctive conjunct. Seeks that
    // reuse an already-opened index are nearly free (its upper levels are
    // cached): charge the full traversal once per distinct index and a
    // tenth for repeats.
    if let Some((seeks, k_total, skip_or)) = union_candidate(expr, entry, opts, n_rows) {
        let distinct_indexes = {
            let mut ids: Vec<usize> = seeks.iter().map(|s| s.index).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() as f64
        };
        let seek_cost = distinct_indexes * cost.index_seek
            + (seeks.len() as f64 - distinct_indexes) * cost.index_seek * 0.1;
        let c = seek_cost + fetch_cost(k_total.min(n_rows)) - cost.index_seek; // fetch_cost charges one seek
        if c < best.est_cost {
            best = Plan {
                access: AccessPath::IndexUnion(seeks),
                skip_or: Some(skip_or),
                est_cost: c,
                ..base
            };
        }
    }

    best
}

/// Upper bound on the heap pages a zone-pruned scan must read: pages
/// that *may* hold a row satisfying `expr`, estimated from the
/// per-member page counts in the statistics. Mirrors the executor's
/// candidate-page computation at estimation time: an atom covers at most
/// the pages its members appear on, a conjunction at most its tightest
/// conjunct, a disjunction at most the sum, and mining predicates (or
/// anything else non-columnar) prove nothing.
fn covered_pages(expr: &Expr, stats: &TableStats, schema: &Schema, n_pages: u64) -> u64 {
    match expr {
        Expr::Const(false) => 0,
        Expr::Atom(a) => {
            let card = schema.attr(a.attr).domain.cardinality();
            let col = stats.column(a.attr.index());
            let sum: u64 = a.pred.member_set(card).iter().map(|m| col.pages_with(m)).sum();
            sum.min(n_pages)
        }
        Expr::And(ps) => ps
            .iter()
            .map(|p| covered_pages(p, stats, schema, n_pages))
            .min()
            .unwrap_or(n_pages),
        Expr::Or(ps) => ps
            .iter()
            .map(|p| covered_pages(p, stats, schema, n_pages))
            .sum::<u64>()
            .min(n_pages),
        _ => n_pages,
    }
}

/// The most selective available index probe for a set of conjunct atoms:
/// for every index whose columns intersect the atom columns, push the
/// covered atoms in and score by their product selectivity.
fn best_seek(
    atoms: &[(AttrId, AtomPred)],
    entry: &crate::catalog::TableEntry,
) -> Option<(Seek, f64)> {
    let mut best: Option<(Seek, f64)> = None;
    for (i, ix) in entry.indexes.iter().enumerate() {
        let covered: Vec<(AttrId, AtomPred)> = atoms
            .iter()
            .filter(|(a, _)| ix.columns().contains(a))
            .cloned()
            .collect();
        if covered.is_empty() {
            continue;
        }
        let s: f64 = covered
            .iter()
            .map(|(a, p)| atom_selectivity(&Atom { attr: *a, pred: p.clone() }, &entry.stats))
            .product();
        // Exact iff every atom was pushed into the index (the caller
        // additionally checks the group consists only of atoms).
        let exact = covered.len() == atoms.len();
        if best.as_ref().is_none_or(|(_, bs)| s < *bs) {
            best = Some((Seek { index: i, preds: covered, exact }, s));
        }
    }
    best
}

/// Top-level sargable atoms: the expression itself if it is an atom, or
/// atom conjuncts of a top-level AND. For each column, the most selective
/// single atom is enough — they all qualify as seek keys.
fn sargable_conjuncts(expr: &Expr) -> Vec<(AttrId, AtomPred)> {
    let mut out = Vec::new();
    let mut push = |a: &Atom| out.push((a.attr, a.pred.clone()));
    match expr {
        Expr::Atom(a) => push(a),
        Expr::And(ps) => {
            for p in ps {
                if let Expr::Atom(a) = p {
                    push(a);
                }
            }
        }
        _ => {}
    }
    out
}

/// A conjunct that is an OR whose every disjunct yields one index probe
/// → a multi-index union candidate. Returns the seeks, the expected
/// total fetched rows, and the residual with the served OR removed (for
/// rows fetched by exact seeks).
fn union_candidate(
    expr: &Expr,
    entry: &crate::catalog::TableEntry,
    opts: &OptimizerOptions,
    n_rows: f64,
) -> Option<(Vec<Seek>, f64, Expr)> {
    let conjuncts: Vec<&Expr> = match expr {
        Expr::And(ps) => ps.iter().collect(),
        Expr::Or(_) => vec![expr],
        _ => return None,
    };
    for (ci, c) in conjuncts.iter().enumerate() {
        let Expr::Or(disjuncts) = c else { continue };
        if disjuncts.len() > opts.max_union_disjuncts {
            // The paper's §4.2 concern: overly complex OR defeats the
            // optimizer. We model it honestly instead of pretending.
            continue;
        }
        let mut seeks = Vec::with_capacity(disjuncts.len());
        let mut k_total = 0.0;
        let mut ok = true;
        for d in disjuncts {
            let atoms = sargable_conjuncts(d);
            // A disjunct is fully sargable when it consists of atoms
            // only; a seek covering all of them is exact.
            let pure_atoms = match d {
                Expr::Atom(_) => true,
                Expr::And(ps) => ps.iter().all(|p| matches!(p, Expr::Atom(_))),
                _ => false,
            };
            match best_seek(&atoms, entry) {
                Some((mut seek, s)) => {
                    seek.exact &= pure_atoms;
                    k_total += s * n_rows;
                    seeks.push(seek);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && !seeks.is_empty() {
            // Residual for exact-seek rows: every conjunct except the
            // served OR.
            let skip_or = Expr::and(
                conjuncts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ci)
                    .map(|(_, e)| (*e).clone())
                    .collect(),
            );
            return Some((seeks, k_total, skip_or));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use mpq_types::{AttrDomain, Attribute, ClassId, Dataset, MemberSet};

    /// 100k rows; column a: member 0 at 0.5%, member 1 at 1%, member 2
    /// at 28.5%, member 3 at 70%; column b cycles through its members.
    fn catalog() -> Catalog {
        catalog_with(|i, _| (i % 4) as u16)
    }

    /// [`catalog`]'s column a, with row `i`'s b given by `b(i, a)`.
    fn catalog_with(b: impl Fn(u32, u16) -> u16) -> Catalog {
        let schema = Schema::new(vec![
            Attribute::new("a", AttrDomain::categorical(["rare", "uncommon", "big", "huge"])),
            Attribute::new("b", AttrDomain::binned(vec![1.0, 2.0, 3.0]).unwrap()),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..100_000u32 {
            let a = match i % 1000 {
                0..=4 => 0u16,     // 0.5%
                5..=14 => 1,       // 1%
                15..=299 => 2,     // 28.5%
                _ => 3,            // 70%
            };
            rows.push(vec![a, b(i, a)]);
        }
        let ds = Dataset::from_rows(schema, rows).unwrap();
        let mut cat = Catalog::new();
        let t = cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        cat.create_index(t, &[AttrId(0)]);
        cat.create_index(t, &[AttrId(1)]);
        cat
    }

    fn atom(attr: u16, pred: AtomPred) -> Expr {
        Expr::Atom(Atom { attr: AttrId(attr), pred })
    }

    /// Options with zone-map costing off, for tests that exercise the
    /// index paths (the striped fixture clusters its rare members well
    /// enough that a pruned scan otherwise wins).
    fn no_zone() -> OptimizerOptions {
        OptimizerOptions { use_zone_maps: false, ..OptimizerOptions::default() }
    }

    #[test]
    fn selective_predicate_picks_index_seek() {
        let cat = catalog();
        let schema = cat.table(0).table.schema().clone();
        let plan = choose_plan(atom(0, AtomPred::Eq(0)), 0, &schema, &cat, &no_zone());
        assert!(matches!(plan.access, AccessPath::IndexSeek(_)), "{plan:?}");
        assert!(plan.access.changed_from_scan());
        assert!((plan.est_selectivity - 0.005).abs() < 1e-9);
        assert_eq!(plan.est_pages_skipped, 0, "no zone credit when costing is off");
    }

    #[test]
    fn zone_maps_prefer_pruned_scan_for_clustered_member() {
        // Member 0 fills the first 500 rows only: its zone footprint is
        // 2 of 391 pages, so a pruned scan beats any unclustered fetch.
        let schema = Schema::new(vec![Attribute::new(
            "a",
            AttrDomain::categorical(["rare", "common"]),
        )])
        .unwrap();
        let rows = (0..100_000u32).map(|i| vec![u16::from(i >= 500)]);
        let ds = Dataset::from_rows(schema.clone(), rows).unwrap();
        let mut cat = Catalog::new();
        let t = cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        cat.create_index(t, &[AttrId(0)]);
        let e = atom(0, AtomPred::Eq(0));
        let pruned = choose_plan(e.clone(), 0, &schema, &cat, &OptimizerOptions::default());
        assert_eq!(pruned.access, AccessPath::FullScan, "{pruned:?}");
        let n_pages = cat.table(0).table.n_pages() as u64;
        assert_eq!(pruned.est_pages_skipped, n_pages - 2);
        let blind = choose_plan(e, 0, &schema, &cat, &no_zone());
        assert!(matches!(blind.access, AccessPath::IndexSeek(_)), "{blind:?}");
        assert!(pruned.est_cost < blind.est_cost);
    }

    #[test]
    fn unselective_predicate_stays_full_scan() {
        let cat = catalog();
        let schema = cat.table(0).table.schema().clone();
        let plan = choose_plan(
            atom(0, AtomPred::Eq(3)), // 60%
            0,
            &schema,
            &cat,
            &OptimizerOptions::default(),
        );
        assert_eq!(plan.access, AccessPath::FullScan);
        assert!(!plan.access.changed_from_scan());
    }

    #[test]
    fn false_predicate_is_constant_scan() {
        let cat = catalog();
        let schema = cat.table(0).table.schema().clone();
        let plan =
            choose_plan(Expr::Const(false), 0, &schema, &cat, &OptimizerOptions::default());
        assert_eq!(plan.access, AccessPath::ConstantScan);
        assert_eq!(plan.est_cost, 0.0);
    }

    #[test]
    fn disjunction_of_selective_atoms_uses_index_union() {
        let cat = catalog();
        let schema = cat.table(0).table.schema().clone();
        let e = Expr::or(vec![atom(0, AtomPred::Eq(0)), atom(0, AtomPred::Eq(1))]);
        let plan = choose_plan(e, 0, &schema, &cat, &no_zone());
        assert!(matches!(&plan.access, AccessPath::IndexUnion(seeks) if seeks.len() == 2), "{plan:?}");
    }

    #[test]
    fn union_refused_beyond_disjunct_threshold() {
        let cat = catalog();
        let schema = cat.table(0).table.schema().clone();
        let e = Expr::or(vec![atom(0, AtomPred::Eq(0)), atom(0, AtomPred::Eq(1))]);
        let opts = OptimizerOptions { max_union_disjuncts: 1, ..Default::default() };
        let plan = choose_plan(e, 0, &schema, &cat, &opts);
        assert_eq!(plan.access, AccessPath::FullScan, "degenerates to scan as §4.2 warns");
    }

    #[test]
    fn unindexed_column_cannot_seek() {
        let schema = Schema::new(vec![Attribute::new("x", AttrDomain::categorical(["a", "b"]))]).unwrap();
        let ds = Dataset::from_rows(schema.clone(), (0..100).map(|i| vec![(i % 2) as u16])).unwrap();
        let mut cat = Catalog::new();
        cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        // No index created.
        let plan = choose_plan(
            atom(0, AtomPred::Eq(0)),
            0,
            &schema,
            &cat,
            &OptimizerOptions::default(),
        );
        assert_eq!(plan.access, AccessPath::FullScan);
    }

    #[test]
    fn estimate_combines_and_or_not() {
        let cat = catalog();
        let stats = &cat.table(0).stats;
        let a = atom(0, AtomPred::Eq(0)); // 0.005
        let b = atom(1, AtomPred::Range { lo: 0, hi: 1 }); // 0.5
        let and = Expr::and(vec![a.clone(), b.clone()]);
        let or = Expr::or(vec![a.clone(), b.clone()]);
        let not = Expr::Not(Box::new(a.clone()));
        assert!((estimate_selectivity(&and, stats, &cat) - 0.0025).abs() < 1e-9);
        assert!((estimate_selectivity(&or, stats, &cat) - (1.0 - 0.995 * 0.5)).abs() < 1e-9);
        assert!((estimate_selectivity(&not, stats, &cat) - 0.995).abs() < 1e-9);
        let in_pred = atom(0, AtomPred::In(MemberSet::of(4, [0, 1])));
        assert!((estimate_selectivity(&in_pred, stats, &cat) - 0.015).abs() < 1e-9);
    }

    #[test]
    fn mining_selectivity_defaults_to_uniform_classes() {
        let mut cat = catalog();
        let nb = mpq_core::paper_table1_model();
        let id = cat
            .add_model("m", std::sync::Arc::new(nb), mpq_core::DeriveOptions::default())
            .unwrap();
        let stats = &cat.table(0).stats;
        let e = Expr::Mining(MiningPred::ClassEq { model: id, class: ClassId(0) });
        assert!((estimate_selectivity(&e, stats, &cat) - 1.0 / 3.0).abs() < 1e-9);
        let e = Expr::Mining(MiningPred::ClassIn {
            model: id,
            classes: vec![ClassId(0), ClassId(1)],
        });
        assert!((estimate_selectivity(&e, stats, &cat) - 2.0 / 3.0).abs() < 1e-9);
    }

    /// `a = 2` holds 28.5% of the rows, and almost none of them have
    /// `b <= 1`: the conjunction returns 100 rows, 0.1%. Independence
    /// estimates 10.2%, and a full scan is the right plan anyway: a
    /// seek on either single-column index fetches its own atom's rows
    /// (28.5% or 35.9%) whatever the other column holds. Running the
    /// conjunction changes neither the statistics nor the plan.
    #[test]
    fn anti_correlated_conjunction_plans_full_scan_before_and_after_execution() {
        let cat = catalog_with(|i, a| match (a, i % 1000) {
            (2, 15) => 0,
            (2, _) => 2 + (i % 2) as u16,
            _ => (i % 4) as u16,
        });
        let schema = cat.table(0).table.schema().clone();
        let e = Expr::and(vec![
            atom(0, AtomPred::Eq(2)),
            atom(1, AtomPred::Range { lo: 0, hi: 1 }),
        ]);
        let before = choose_plan(e.clone(), 0, &schema, &cat, &no_zone());
        assert_eq!(before.access, AccessPath::FullScan, "{before:?}");
        assert!((before.est_selectivity - 0.285 * 0.359).abs() < 1e-9);
        let stats = cat.table(0).stats.clone();
        assert_eq!(crate::exec::execute(&before, &cat).rows.len(), 100);
        assert_eq!(cat.table(0).stats, stats);
        assert_eq!(choose_plan(e, 0, &schema, &cat, &no_zone()), before);
    }

    // -- Plan-time conjunct order ---------------------------------------

    fn mining(model: ModelId) -> Expr {
        Expr::Mining(MiningPred::ClassEq { model, class: ClassId(0) })
    }

    fn ordered(e: Expr, cat: &Catalog) -> Expr {
        order_conjuncts(e, &cat.table(0).stats, cat)
    }

    /// Mining conjuncts keep their positions and split the `And` into
    /// runs; each run is sorted by columns ÷ rejected fraction on its
    /// own, so nothing crosses a mining conjunct.
    #[test]
    fn order_sorts_each_mining_free_run_in_place() {
        let cat = catalog();
        let [a0, a2, a3] = [0, 2, 3].map(|m| atom(0, AtomPred::Eq(m)));
        let b_wide = atom(1, AtomPred::Range { lo: 0, hi: 2 }); // 75%: rank 4
        let b1 = atom(1, AtomPred::Eq(1)); // 25%: rank 1.33
        // a = 3 (70%) ranks 3.33, a = 0 (0.5%) 1.005, a = 2 (28.5%) 1.40.
        let e = Expr::And(vec![
            b_wide.clone(),
            a3.clone(),
            mining(0),
            b1.clone(),
            a0.clone(),
            mining(1),
            a2.clone(),
        ]);
        let want = Expr::And(vec![a3, b_wide, mining(0), a0, b1, mining(1), a2]);
        assert_eq!(ordered(e, &cat), want);
        // A mining conjunct at either end pins the run beside it too.
        let e = Expr::And(vec![mining(0), atom(1, AtomPred::Eq(2)), atom(0, AtomPred::Eq(1))]);
        let want = Expr::And(vec![mining(0), atom(0, AtomPred::Eq(1)), atom(1, AtomPred::Eq(2))]);
        assert_eq!(ordered(e, &cat), want);
        // The `And`s under a disjunction with a mining disjunct are
        // ordered; a column DNF compiles to one order-free leaf and is
        // left as written.
        let (b_wide, a0) = (atom(1, AtomPred::Range { lo: 0, hi: 2 }), atom(0, AtomPred::Eq(0)));
        let broad_first = || Expr::And(vec![b_wide.clone(), a0.clone()]);
        let narrow_first = Expr::And(vec![a0.clone(), b_wide.clone()]);
        let generic = Expr::Or(vec![broad_first(), mining(0)]);
        assert_eq!(ordered(generic, &cat), Expr::Or(vec![narrow_first, mining(0)]));
        let dnf = Expr::Or(vec![broad_first(), atom(1, AtomPred::Eq(3))]);
        assert_eq!(ordered(dnf.clone(), &cat), dnf);
    }

    #[test]
    fn order_keeps_source_order_among_ties() {
        let cat = catalog();
        // One column each at 25%: equal ranks.
        for (x, y) in [(0, 2), (2, 0)] {
            let e = Expr::And(vec![atom(1, AtomPred::Eq(x)), atom(1, AtomPred::Eq(y))]);
            assert_eq!(ordered(e.clone(), &cat), e);
        }
        // Conjuncts that reject nothing rank last, in source order.
        let all_a = atom(0, AtomPred::Range { lo: 0, hi: 3 });
        let all_b = atom(1, AtomPred::Range { lo: 0, hi: 3 });
        let e = Expr::And(vec![all_b.clone(), all_a.clone(), atom(1, AtomPred::Eq(1))]);
        assert_eq!(ordered(e, &cat), Expr::And(vec![atom(1, AtomPred::Eq(1)), all_b, all_a]));
    }

    /// Planning a plan's own residual returns it unchanged, so a cached
    /// plan and its re-plan carry the same order.
    #[test]
    fn order_is_idempotent_through_choose_plan() {
        let mut cat = catalog();
        let nb = mpq_core::paper_table1_model();
        let id = cat
            .add_model("m", std::sync::Arc::new(nb), mpq_core::DeriveOptions::default())
            .unwrap();
        let schema = cat.table(0).table.schema().clone();
        let e = Expr::And(vec![
            atom(1, AtomPred::Range { lo: 0, hi: 2 }),
            atom(0, AtomPred::Eq(3)),
            mining(id),
            Expr::or(vec![
                Expr::and(vec![atom(1, AtomPred::Eq(3)), atom(0, AtomPred::Eq(2))]),
                atom(0, AtomPred::Eq(0)),
            ]),
            atom(1, AtomPred::Eq(1)),
        ]);
        let plan = choose_plan(e.clone(), 0, &schema, &cat, &no_zone());
        assert_ne!(plan.residual, e, "the source order is not the plan's");
        let again = choose_plan(plan.residual.clone(), 0, &schema, &cat, &no_zone());
        assert_eq!(again.residual, plan.residual);
        assert_eq!(ordered(plan.residual.clone(), &cat), plan.residual);
    }

    #[test]
    fn a_broad_first_pair_of_columns_comes_out_narrow_first() {
        let cat = catalog();
        let broad = atom(1, AtomPred::Range { lo: 0, hi: 2 }); // 75%
        let narrow = atom(0, AtomPred::Eq(1)); // 1%
        let schema = cat.table(0).table.schema().clone();
        let e = Expr::And(vec![broad.clone(), narrow.clone()]);
        let plan = choose_plan(e, 0, &schema, &cat, &OptimizerOptions::default());
        assert_eq!(plan.residual, Expr::And(vec![narrow, broad]));
    }

    /// `scan_cascade`'s shape: a 50% range on one column, a box DNF over
    /// four others and the mining predicate. One column at 50% ranks 2;
    /// four columns rank at least 4 whatever the DNF rejects, so the
    /// range stays first, or comes first when written second.
    #[test]
    fn a_range_column_stays_ahead_of_a_four_column_box_dnf() {
        let schema = Schema::new(
            ["r", "c0", "c1", "c2", "c3"]
                .iter()
                .enumerate()
                .map(|(k, name)| {
                    let card = if k == 0 { 8 } else { 4 };
                    let members = (0..card).map(|m| format!("m{m}"));
                    Attribute::new(*name, AttrDomain::categorical(members))
                })
                .collect(),
        )
        .unwrap();
        // Every (r, c0..c3) cell twice: the columns are independent.
        let rows = (0..4096u16).map(|i| {
            let cell = i % 2048;
            vec![cell % 8, cell / 8 % 4, cell / 32 % 4, cell / 128 % 4, cell / 512]
        });
        let mut cat = Catalog::new();
        let ds = Dataset::from_rows(schema, rows).unwrap();
        cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        let range = atom(0, AtomPred::Range { lo: 2, hi: 5 });
        let boxes = Expr::Or(vec![
            Expr::And(vec![atom(1, AtomPred::Eq(0)), atom(2, AtomPred::Eq(0))]),
            Expr::And(vec![atom(3, AtomPred::Eq(0)), atom(4, AtomPred::Eq(0))]),
        ]);
        let want = Expr::And(vec![range.clone(), boxes.clone(), mining(0)]);
        assert_eq!(ordered(want.clone(), &cat), want);
        assert_eq!(ordered(Expr::And(vec![boxes, range, mining(0)]), &cat), want);
    }

    #[test]
    fn plan_records_model_versions() {
        let mut cat = catalog();
        let nb = mpq_core::paper_table1_model();
        let id = cat
            .add_model("m", std::sync::Arc::new(nb), mpq_core::DeriveOptions::default())
            .unwrap();
        let schema = cat.table(0).table.schema().clone();
        let e = Expr::Mining(MiningPred::ClassEq { model: id, class: ClassId(0) });
        let plan = choose_plan(e, 0, &schema, &cat, &OptimizerOptions::default());
        assert_eq!(plan.model_versions, vec![(id, 1)]);
    }
}
