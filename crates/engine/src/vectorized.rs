//! Vectorized predicate evaluation: compiled column programs, the
//! box-DNF kernel, adaptive reordering, shared-subexpression factoring,
//! zone-map pruning, the column-at-a-time cascade and the scorer memo
//! cache.
//!
//! The paper's §4.2 rewrite turns opaque mining predicates into
//! data-column predicates; this module exploits that form one layer
//! deeper than access-path selection. Instead of walking the [`Expr`]
//! tree per row, the executor compiles the residual once into a
//! [`CompiledPredicate`] — a flat program whose leaves are per-column
//! member bitsets — and evaluates it MonetDB/X100-style over selection
//! vectors, one column at a time. Mining predicates (and `NOT` over
//! them) stay as [`NodeKind::Scalar`] escape hatches, so the compiled
//! program is exact on every input.
//!
//! **The batch cascade.** A lone mining predicate over a model with a
//! verified proxy cascade — `PREDICT(m) = c`, `PREDICT(m) IN (..)`,
//! `PREDICT(m) = column`, and `PREDICT(m1) = PREDICT(m2)` when either
//! model has one — is decided for the whole selection vector by
//! [`ProxyScore::decide_batch`], one call per cascaded model, whose row
//! kernel keeps the class sums in registers. Only band rows (and, for an
//! agreement with one uncascaded model, that model's rows) go one at a
//! time, in ascending row order, to the memo/scorer path — the calls and
//! the order the reference's row walk makes, so `band_rows`,
//! `model_invocations` and `memo_hits` are the reference's. Agreement and
//! the label column compare *labels*, never class ids, through
//! [`ModelOracle::class_for_class`] and
//! [`ModelOracle::class_for_member`]: the memo answers both from
//! pairings built once per execution from the plan's predicates. Every
//! other scalar shape — `NOT`, an agreement of two uncascaded models —
//! walks the tree row-at-a-time.
//!
//! **Selections.** A node's incoming selection is an [`Ids`]: the dense
//! run `start..end` of a scan batch, of which nothing is written down,
//! or the selection vector itself. A scan batch enters the program as a
//! run ([`CompiledPredicate::filter_range_at`]); the first
//! column-reading leaf on the path — `Col`, `Boxes`, the cascade's
//! member accessor or the row-by-row `Scalar` walk — iterates it
//! directly and writes only its survivors, and every later node narrows
//! that list where it stands. Ids are written out up front only where a
//! node needs the list itself: the generic `Or`, a `FactorRef`, and
//! `Const(true)`. Index fetches and later conjuncts are lists from the
//! start and run the same kernels — each body is written once against
//! `Ids`. Narrowing is branch-free ([`Ids::try_compact`]): every id is
//! stored at the write cursor and the cursor advances by the test's
//! result, so a leaf at 25–40% selectivity pays a store per row rather
//! than a mispredicted branch every few rows.
//!
//! **The `Boxes` leaf.** An upper envelope is a disjunction of
//! axis-aligned regions, and so is every compiled-out tree or rule
//! predicate and every hand-written column DNF: an `Or` whose disjuncts
//! are `Col` leaves or conjunctions of them. Such an `Or` compiles to
//! one [`NodeKind::Boxes`] leaf holding, per referenced column, a table
//! from member to the bitset of disjuncts admitting it ([`BoxTable`]).
//! A row passes iff the AND of its members' bitsets is non-zero — one
//! lookup per column per row whatever the disjunct count, a column at a
//! time into a reused accumulator, after
//! Kim/Ileri/Madden's point that a disjunction over columns need not
//! re-touch them per disjunct. The kernel has no evaluation order, so
//! there is nothing inside it to reorder or factor and it runs
//! identically with adaptation on or off; as a node it still takes
//! part in its parent's rank ordering (one row-touch per row) and is
//! factorable when shared. The generic `Or` path below serves only
//! disjunctions with a `Scalar` or nested child.
//!
//! **Adaptive reordering** (Kim/Ileri/Madden-style rank ordering):
//! instead of trusting the rewriter's clause order, an adaptive
//! predicate instruments every node with observed `rows_in`/`rows_out`
//! counters over the first [`CALIBRATION_ROWS`] rows of the scan, then
//! re-plans mid-scan: within each maximal run of consecutive
//! *scalar-free* children, `And` children are sorted by ascending
//! `cost / (rows_in - rows_out)` and `Or` children by ascending
//! `cost / rows_out`, where `cost` is the total row-touch count of the
//! child's subtree during calibration. Dividing the rank's numerator
//! and denominator by `rows_in` recovers the textbook forms
//! `cost_per_row / (1 - selectivity)` and `cost_per_row / selectivity`;
//! keeping the raw totals makes every comparison exact integer
//! arithmetic, so the reordering decision — and the
//! `clauses_reordered` counter — is bit-deterministic at every degree
//! of parallelism (a wall-clock timer would not be). Scalar-bearing
//! children never move and pure filters never cross one, so the row
//! set *and order* reaching every `Scalar` leaf is unchanged — which
//! is what keeps `model_invocations`, memo, and cascade accounting
//! identical to the fixed-order reference and lets the differential
//! oracles pin the whole mechanism.
//!
//! **Shared-subexpression factoring**: at compile time, structurally
//! identical scalar-free subtrees appearing under one `Or` in two or
//! more disjuncts (directly, or as a conjunct of an `And` disjunct)
//! are assigned a *factor slot*. The `Or` evaluates each factor once
//! per selection vector; every occurrence becomes a [`NodeKind::FactorRef`]
//! that intersects with the cached pass set instead of re-evaluating
//! the subtree. `factor_hits` counts rows answered by the cache.
//!
//! The same compiled form doubles as a page-pruning test: a page whose
//! zone map ([`crate::Table::page_zones`]) is disjoint from a `Col`
//! leaf's mask, or on which no box of a `Boxes` leaf meets the zones of
//! all its columns, can be proven empty without reading it (`Scalar`
//! leaves are conservatively "maybe"). Both tests read the zone's
//! blocks: a `Col` leaf ANDs its mask against them, a `Boxes` column
//! ORs the table rows of the zone's members, found a set bit at a time,
//! until the disjuncts still alive are covered ([`BoxColumn::met`]).
//! The pipeline and the reference both consult
//! [`CompiledPredicate::page_may_match`] before touching a heap page.
//!
//! Finally, [`MemoScorer`] wraps the catalog's [`ModelOracle`] with a
//! bounded per-query memo keyed by the dictionary-encoded input tuple:
//! rows are small `u16` member vectors, so distinct tuples are few and
//! black-box residual checks collapse to hash lookups after the first
//! occurrence. `model_invocations` counts memo *misses* — actual model
//! applications — identically in the serial reference and the
//! pipeline at every dop, which is what keeps the differential oracles
//! exact. The memo is [`MEMO_SHARDS`] independently locked shards,
//! allocated on first use, so workers missing on different tuples score
//! in parallel. The proxy tables it applies were checked against a fresh
//! rebuild when the model version was registered
//! ([`crate::compile::verified_proxy`]); an execution only compares the
//! table it is about to use with that one.

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{Expr, MiningPred, ModelId, ModelOracle};
use crate::table::{RowId, Table};
use mpq_core::{ProxyDecision, ProxyScore};
use mpq_types::{AttrId, ClassId, Member, MemberSet, Row, Schema};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Default capacity (in cached `(model, tuple)` entries) of the scorer
/// memo. Tuples are a handful of `u16`s, so even the full cache is a
/// few megabytes; capacity `0` disables memoization entirely.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 16;

/// Rows observed before an adaptive predicate re-plans itself. Counted
/// by *global scan position* (row id on a full scan, fetch-list index
/// on index paths), so the calibration set — and every decision made
/// from it — is identical at every degree of parallelism.
pub(crate) const CALIBRATION_ROWS: u64 = 4096;

/// One node of a compiled predicate program, tagged with a tree-unique
/// id indexing its calibration counters.
#[derive(Clone)]
pub(crate) struct CompiledNode {
    /// Pre-order id, unique within one compiled predicate; indexes the
    /// `rows_in`/`rows_out` slots of [`AdaptiveState`].
    pub(crate) id: usize,
    /// What the node computes.
    pub(crate) kind: NodeKind,
}

/// The operator of a [`CompiledNode`].
#[derive(Clone)]
pub(crate) enum NodeKind {
    /// Constant truth value.
    Const(bool),
    /// Column leaf: row qualifies iff `mask` contains its member in
    /// column `col`. Compiled from [`crate::AtomPred`] via
    /// [`crate::AtomPred::member_set`].
    Col {
        /// Column index into the table's schema.
        col: usize,
        /// Matching members.
        mask: MemberSet,
    },
    /// A flat column DNF — every disjunct a `Col` or a conjunction of
    /// `Col`s — folded into one order-free leaf (see [`BoxTable`]).
    Boxes(BoxTable),
    /// Conjunction: children filter the selection in order, so the
    /// evaluated (model, tuple) set matches short-circuit `&&` exactly.
    And(Vec<CompiledNode>),
    /// Disjunction with a `Scalar` or nested child (a flat column DNF
    /// compiles to [`NodeKind::Boxes`] instead): children run over
    /// not-yet-matched rows only, which preserves short-circuit `||`
    /// semantics per row. `factors` are
    /// the shared subtrees hoisted out of this node's disjuncts; each
    /// is evaluated once on the incoming selection (before any child)
    /// and its pass set cached for the [`NodeKind::FactorRef`]
    /// occurrences below.
    Or {
        /// The disjuncts, in evaluation order.
        children: Vec<CompiledNode>,
        /// `(slot, representative subtree)` pairs, ascending by slot.
        factors: Vec<(usize, CompiledNode)>,
    },
    /// An occurrence of a factored shared subtree: intersects the
    /// selection with the pass set the owning `Or` cached under `slot`.
    /// `node` is the original subtree, kept as a fallback (and for
    /// zone-map pruning) but never evaluated on the factored path.
    FactorRef {
        /// Index into [`BatchCtx::factor_pass`].
        slot: usize,
        /// The original (scalar-free) subtree this reference replaced.
        node: Box<CompiledNode>,
    },
    /// Escape hatch for mining predicates and `NOT` over them: exact
    /// row-at-a-time tree evaluation through the oracle.
    Scalar(Expr),
}

/// A disjunction of axis-aligned boxes as per-column lookup tables.
///
/// For each referenced column, `table[m * words + w]` is word `w` of the
/// bitset of disjuncts that admit member `m` on that column: a disjunct
/// that does not constrain the column admits every member, and two atoms
/// of one disjunct on one column intersect. A row is in some box iff the
/// AND of its members' bitsets over the columns is non-zero — one lookup
/// and one AND per column per row, whatever the disjunct count. Bits at
/// or past the disjunct count are never set, and with no referenced
/// column every disjunct is the empty conjunction, so the AND may start
/// from all-ones.
///
/// The page test asks, per column, which disjuncts meet the page's zone
/// there, and ANDs the answers (see [`BoxTable::may_match`]).
#[derive(Clone)]
pub(crate) struct BoxTable {
    /// How many disjuncts there are.
    disjuncts: usize,
    /// Words per bitset: ⌈disjuncts / 64⌉, at least 1.
    words: usize,
    cols: Vec<BoxColumn>,
}

#[derive(Clone)]
struct BoxColumn {
    /// Column index into the table's schema.
    col: usize,
    /// Member-major disjunct bitsets, `cardinality × words`.
    table: Vec<u64>,
}

impl BoxColumn {
    /// Word `w` of the set of disjuncts that meet `zone` (the zone
    /// map's blocks for this column) here: those admitting at least one
    /// of its members, i.e. the OR of the table rows of the zone's
    /// members, which are read off the zone's blocks a set bit at a
    /// time. `alive` is the set still unrefuted by earlier columns; once
    /// it is covered the column can rule nothing out and the walk stops.
    fn met(&self, zone: &[u64], w: usize, words: usize, alive: u64) -> u64 {
        let mut met = 0;
        for (b, &block) in zone.iter().enumerate() {
            let mut members = block;
            while members != 0 {
                let m = b * 64 + members.trailing_zeros() as usize;
                members &= members - 1;
                met |= self.table[m * words + w];
                if met & alive == alive {
                    return met;
                }
            }
        }
        met
    }
}

impl BoxTable {
    /// The atoms of one box: `e` itself or the conjuncts of an `And`,
    /// when they are all column atoms.
    fn box_atoms(e: &Expr) -> Option<&[Expr]> {
        let atoms = match e {
            Expr::Atom(_) => std::slice::from_ref(e),
            Expr::And(ps) => ps,
            _ => return None,
        };
        atoms.iter().all(|a| matches!(a, Expr::Atom(_))).then_some(atoms)
    }

    /// The table of `disjuncts`, or `None` unless every one is a box
    /// (and there is at least one). Runs once per execution, so it
    /// touches only the members each atom names: a first atom sets its
    /// disjunct's bit under the members it matches, the rare second
    /// atom on the same column clears it under those it does not, and
    /// one last pass per column ORs in the disjuncts left unconstrained.
    fn build(disjuncts: &[Expr], schema: &Schema) -> Option<BoxTable> {
        if disjuncts.is_empty() || !disjuncts.iter().all(|d| Self::box_atoms(d).is_some()) {
            return None;
        }
        let words = disjuncts.len().div_ceil(64);
        let mut cols: Vec<BoxColumn> = Vec::new();
        // Per column (same index as `cols`), the disjuncts with an atom
        // on it.
        let mut constrained: Vec<Vec<u64>> = Vec::new();
        for (j, d) in disjuncts.iter().enumerate() {
            let (w, bit) = (j / 64, 1u64 << (j % 64));
            for atom in Self::box_atoms(d).expect("shape checked above") {
                let Expr::Atom(a) = atom else { unreachable!("shape checked above") };
                let card = schema.attr(a.attr).domain.cardinality();
                let col = a.attr.index();
                let ci = cols.iter().position(|c| c.col == col).unwrap_or_else(|| {
                    cols.push(BoxColumn { col, table: vec![0; card as usize * words] });
                    constrained.push(vec![0; words]);
                    cols.len() - 1
                });
                let table = &mut cols[ci].table;
                if constrained[ci][w] & bit == 0 {
                    constrained[ci][w] |= bit;
                    a.pred.for_each_member(card, |m| table[m as usize * words + w] |= bit);
                } else {
                    for m in (0..card).filter(|&m| !a.pred.matches(m)) {
                        table[m as usize * words + w] &= !bit;
                    }
                }
            }
        }
        for (c, constrained) in cols.iter_mut().zip(&constrained) {
            for (w, &seen) in constrained.iter().enumerate() {
                let in_word = (disjuncts.len() - w * 64).min(64);
                let free = (u64::MAX >> (64 - in_word)) & !seen;
                if free != 0 {
                    c.table.iter_mut().skip(w).step_by(words).for_each(|t| *t |= free);
                }
            }
        }
        Some(BoxTable { disjuncts: disjuncts.len(), words, cols })
    }

    /// Keeps the rows of `ids` that lie in some box, column at a time:
    /// `acc[i]` starts as the first column's bitset of row `i`, every
    /// further column ANDs its own in — each pass one column slice and
    /// one table, nothing else — and the last pass compacts on
    /// `acc[i] != 0`. No allocation once `acc` has grown to a batch, no
    /// evaluation order. Up to 64 disjuncts — every envelope under the
    /// benchmark's threshold, every compiled-out tree — the bitset is
    /// one word and the passes index it directly; the sliced form alone
    /// takes twice as long on the benchmark's two box statements
    /// (`stmt_wire_wide`: 203 → 415 and 317 → 840 µs).
    fn filter(&self, table: &Table, ids: Ids, sel: &mut Vec<RowId>, acc: &mut Vec<u64>) {
        let words = self.words;
        acc.clear();
        acc.resize(ids.count(sel) * words, u64::MAX);
        // Indexed through the vector, the passes re-read its pointer and
        // length every row, and their speed then hung on where the
        // compiler placed them (`stmt_wire_wide` statement 2: 99 or
        // 157 µs between two builds that differ elsewhere).
        let acc = &mut acc[..];
        for c in &self.cols {
            let (column, lookup) = (table.column(c.col), &c.table[..]);
            if words == 1 {
                ids.for_each(sel, |i, r| acc[i] &= lookup[column[r as usize] as usize]);
            } else {
                ids.for_each(sel, |i, r| {
                    let at = column[r as usize] as usize * words;
                    let row = acc[i * words..(i + 1) * words].iter_mut();
                    row.zip(&lookup[at..at + words]).for_each(|(a, t)| *a &= t);
                });
            }
        }
        if words == 1 {
            ids.compact(sel, |i, _| acc[i] != 0);
        } else {
            ids.compact(sel, |i, _| acc[i * words..(i + 1) * words].iter().any(|&a| a != 0));
        }
    }

    /// Whether some box meets the page's zones on every column:
    /// `⋀_col met_col ≠ 0`, where `met_col` is the set of disjuncts
    /// admitting some member of the column's zone — the per-disjunct
    /// walk's answer (some disjunct whose per-column intersected masks
    /// all meet their zones) computed for all disjuncts at once, a word
    /// at a time so it needs no buffer ([`BoxColumn::met`]).
    fn may_match(&self, zones: &[MemberSet]) -> bool {
        (0..self.words).any(|w| {
            // The word's disjuncts and no bit past them: a column's walk
            // stops when it has met everything alive, and no table row
            // ever sets the spare bits.
            let mut alive = u64::MAX >> (64 - (self.disjuncts - w * 64).min(64));
            for c in &self.cols {
                alive &= c.met(zones[c.col].blocks(), w, self.words, alive);
                if alive == 0 {
                    break;
                }
            }
            alive != 0
        })
    }
}

/// Per-node calibration counters plus the once-published re-planned
/// tree. Counters are `Relaxed` atomics: every add is commutative and
/// the publisher synchronizes with all writers through the
/// [`CalibClock`]'s release/acquire edge, so the published ordering is
/// a pure function of the calibration row set.
struct AdaptiveState {
    rows_in: Vec<AtomicU64>,
    rows_out: Vec<AtomicU64>,
    reordered: OnceLock<Reordered>,
}

/// The re-planned tree plus how many children changed position.
struct Reordered {
    root: CompiledNode,
    moved: u64,
}

/// One measured data point for the optimizer feedback loop: a clause's
/// observed input/output row counts over the calibration window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackObservation {
    /// Fingerprint of the normalized clause ([`Expr::fingerprint`]).
    pub fingerprint: u64,
    /// Calibration rows the clause was evaluated over. For the k-th
    /// child of an `And`/`Or` this is conditional on its siblings
    /// (rows surviving / not yet matched by earlier children), which
    /// is exactly the form the optimizer's chain-style combination
    /// multiplies back together.
    pub rows_in: u64,
    /// How many of those rows satisfied the clause.
    pub rows_out: u64,
}

/// Counts global scan positions processed so far, so every thread can
/// tell when the calibration window `[0, total)` has been fully
/// observed. `credit` uses `Release` and `complete` uses `Acquire`,
/// publishing all (relaxed) counter updates that preceded each credit
/// to whoever re-plans the tree.
pub(crate) struct CalibClock {
    total: u64,
    done: AtomicU64,
}

impl CalibClock {
    /// A clock over a calibration window of `total` scan positions.
    pub(crate) fn new(total: u64) -> CalibClock {
        CalibClock { total, done: AtomicU64::new(0) }
    }

    /// Marks `n` positions of the window observed (evaluated rows).
    pub(crate) fn credit(&self, n: u64) {
        if n > 0 {
            self.done.fetch_add(n, Ordering::Release);
        }
    }

    /// Credits the overlap of position range `[first, last)` with the
    /// calibration window — used when zone maps prune a whole page, so
    /// skipped positions don't stall re-planning.
    pub(crate) fn credit_range(&self, first: u64, last: u64) {
        let capped = last.min(self.total);
        if first < capped {
            self.credit(capped - first);
        }
    }

    fn complete(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.total
    }
}

/// A predicate compiled for vectorized evaluation and zone-map pruning,
/// optionally instrumented for adaptive mid-scan reordering.
pub struct CompiledPredicate {
    root: CompiledNode,
    n_nodes: usize,
    n_factor_slots: usize,
    /// `(fingerprint, node id)` for the root clause and each root-level
    /// child clause, in source order — the units the feedback loop
    /// reports on.
    clause_map: Vec<(u64, usize)>,
    adaptive: Option<AdaptiveState>,
}

impl CompiledPredicate {
    /// Compiles `expr` against `schema`. Total: every expression
    /// compiles; shapes with no columnar form become `Scalar` leaves,
    /// and every flat column DNF becomes one `Boxes` leaf, adaptive or
    /// not.
    ///
    /// With `adaptive` set, shared scalar-free subtrees across
    /// disjuncts are factored and the tree carries calibration
    /// counters so the executor can re-plan mid-scan.
    /// With it clear the program evaluates children exactly in the
    /// rewriter's order — the fixed-order shape the differential
    /// oracles (and `SET ADAPTIVE OFF`) pin against.
    pub fn compile(expr: &Expr, schema: &Schema, adaptive: bool) -> CompiledPredicate {
        let mut root = compile_node(expr, schema);
        let mut n_factor_slots = 0;
        if adaptive {
            factor_tree(&mut root, &mut n_factor_slots);
        }
        let mut next_id = 0;
        assign_ids(&mut root, &mut next_id);
        let n_nodes = count_nodes(&root);
        let clause_map = build_clause_map(expr, &root);
        let adaptive = adaptive.then(|| AdaptiveState {
            rows_in: (0..next_id).map(|_| AtomicU64::new(0)).collect(),
            rows_out: (0..next_id).map(|_| AtomicU64::new(0)).collect(),
            reordered: OnceLock::new(),
        });
        CompiledPredicate { root, n_nodes, n_factor_slots, clause_map, adaptive }
    }

    /// Number of nodes in the compiled program.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Number of factor slots this program caches per selection vector
    /// (0 unless compiled adaptive and shared subtrees were found).
    pub(crate) fn factor_slots(&self) -> usize {
        self.n_factor_slots
    }

    /// Whether any row of a page with zone summary `zones` *may*
    /// satisfy the predicate. `false` is a proof of emptiness (the page
    /// can be skipped); `true` is inconclusive. Sound because a `Col`
    /// leaf whose mask is disjoint from the column's zone set matches no
    /// row of the page, nor does a `Boxes` leaf none of whose boxes
    /// meets the zones of all its columns, conjunction needs every
    /// child possible, disjunction needs one, and `Scalar` leaves are
    /// always "maybe".
    pub fn page_may_match(&self, zones: &[MemberSet]) -> bool {
        may_match(&self.root, zones)
    }

    /// Appends to `out` the rows of the scan run `rows` that satisfy the
    /// predicate. The run enters the program as a range: its ids are
    /// written down only by the first node that emits survivors (or that
    /// needs the list), into the scratch vector `sel`. Scan positions
    /// are row ids, so the run's calibration position is its first row;
    /// otherwise as [`Self::filter_batch_at`].
    pub(crate) fn filter_range_at(
        &self,
        rows: Range<RowId>,
        sel: &mut Vec<RowId>,
        ctx: &mut BatchCtx<'_>,
        clock: &CalibClock,
        out: &mut Vec<RowId>,
    ) -> Result<(), EngineError> {
        debug_assert!(rows.start <= rows.end);
        let ids = Ids::Run { start: rows.start, end: rows.end };
        self.filter_ids_at(ids, sel, ctx, u64::from(rows.start), clock, out)
    }

    /// Appends to `out` the rows of `sel` (ascending row ids) that
    /// satisfy the predicate, evaluating column leaves over column
    /// slices and `Scalar` leaves through `ctx`; `sel` is consumed.
    ///
    /// `pos` is the global scan position of `sel[0]` (the fetch-list
    /// index on index paths) and `clock` tracks how much of the
    /// calibration window the whole execution has covered. A fixed-order
    /// program ignores both. An adaptive one runs batches inside the
    /// window instrumented in compile-time order; batches past it wait
    /// for the window to complete (workers holding later positions spin
    /// briefly — the window lives in the lowest-indexed morsels, whose
    /// owners never wait before finishing it) and then run the
    /// re-planned tree. A straddling batch is split at the boundary,
    /// which keeps the calibration row set exact and
    /// position-determined at every dop.
    pub(crate) fn filter_batch_at(
        &self,
        sel: &mut Vec<RowId>,
        ctx: &mut BatchCtx<'_>,
        pos: u64,
        clock: &CalibClock,
        out: &mut Vec<RowId>,
    ) -> Result<(), EngineError> {
        self.filter_ids_at(Ids::Listed, sel, ctx, pos, clock, out)
    }

    fn filter_ids_at(
        &self,
        ids: Ids,
        sel: &mut Vec<RowId>,
        ctx: &mut BatchCtx<'_>,
        pos: u64,
        clock: &CalibClock,
        out: &mut Vec<RowId>,
    ) -> Result<(), EngineError> {
        let cancel = ctx.cancel;
        let mut run = |root: &CompiledNode, ids: Ids, sel: &mut Vec<RowId>, stats| {
            filter(root, ids, sel, ctx, stats)?;
            out.extend_from_slice(sel);
            Ok(())
        };
        let Some(ad) = &self.adaptive else {
            return run(&self.root, ids, sel, None);
        };
        let n = ids.count(sel) as u64;
        if n == 0 {
            return Ok(());
        }
        let total = clock.total;
        if pos.saturating_add(n) <= total {
            run(&self.root, ids, sel, Some(ad))?;
            clock.credit(n);
            return Ok(());
        }
        if pos >= total {
            let planned = self.wait_replanned(ad, clock, cancel)?;
            return run(&planned.root, ids, sel, None);
        }
        // Straddling batch: the calibration window ends inside it. A
        // run splits into two runs over the one scratch vector; a
        // list's second half moves to a vector of its own.
        let in_window = (total - pos) as usize;
        let (head, rest, mut tail) = match ids {
            Ids::Run { start, end } => {
                let mid = start + in_window as RowId;
                (Ids::Run { start, end: mid }, Ids::Run { start: mid, end }, None)
            }
            Ids::Listed => (Ids::Listed, Ids::Listed, Some(sel.split_off(in_window))),
        };
        run(&self.root, head, sel, Some(ad))?;
        clock.credit(total - pos);
        let planned = self.wait_replanned(ad, clock, cancel)?;
        run(&planned.root, rest, tail.as_mut().unwrap_or(sel), None)
    }

    /// Blocks until the calibration window is fully credited, then
    /// returns the once-computed re-planned tree. A lone worker
    /// processes positions in ascending order, so the window is always
    /// complete by the time it gets here and the loop never spins.
    fn wait_replanned<'s>(
        &'s self,
        ad: &'s AdaptiveState,
        clock: &CalibClock,
        cancel: Option<&AtomicBool>,
    ) -> Result<&'s Reordered, EngineError> {
        while !clock.complete() {
            if let Some(c) = cancel {
                if c.load(Ordering::Relaxed) {
                    return Err(crate::exec::cancelled_sentinel());
                }
            }
            std::thread::yield_now();
        }
        Ok(ad.reordered.get_or_init(|| replan(&self.root, ad)))
    }

    /// Publishes (if not already) and returns how many children the
    /// adaptive re-plan moved. 0 for fixed-order programs and for
    /// calibration sets whose measured ranks keep the source order.
    pub(crate) fn reordered_clauses(&self) -> u64 {
        match &self.adaptive {
            Some(ad) => ad.reordered.get_or_init(|| replan(&self.root, ad)).moved,
            None => 0,
        }
    }

    /// The calibration window's per-clause observations (root clause
    /// plus each root-level child clause), for the optimizer feedback
    /// store. Empty when fixed-order or when nothing was observed.
    pub(crate) fn feedback(&self) -> Vec<FeedbackObservation> {
        let Some(ad) = &self.adaptive else {
            return Vec::new();
        };
        self.clause_map
            .iter()
            .map(|&(fingerprint, id)| FeedbackObservation {
                fingerprint,
                rows_in: ad.rows_in[id].load(Ordering::Relaxed),
                rows_out: ad.rows_out[id].load(Ordering::Relaxed),
            })
            .filter(|o| o.rows_in > 0)
            .collect()
    }
}

fn compile_node(expr: &Expr, schema: &Schema) -> CompiledNode {
    let kind = match expr {
        Expr::Const(b) => NodeKind::Const(*b),
        Expr::Atom(a) => {
            let card = schema.attr(a.attr).domain.cardinality();
            NodeKind::Col { col: a.attr.index(), mask: a.pred.member_set(card) }
        }
        Expr::And(ps) => NodeKind::And(ps.iter().map(|p| compile_node(p, schema)).collect()),
        Expr::Or(ps) => match BoxTable::build(ps, schema) {
            Some(boxes) => NodeKind::Boxes(boxes),
            None => NodeKind::Or {
                children: ps.iter().map(|p| compile_node(p, schema)).collect(),
                factors: Vec::new(),
            },
        },
        // Mining predicates and NOT (normalize pushes NOT down to atoms
        // except over mining predicates) stay scalar.
        other => NodeKind::Scalar(other.clone()),
    };
    CompiledNode { id: 0, kind }
}

fn has_scalar(node: &CompiledNode) -> bool {
    match &node.kind {
        NodeKind::Scalar(_) => true,
        NodeKind::And(ps) => ps.iter().any(has_scalar),
        NodeKind::Or { children, .. } => children.iter().any(has_scalar),
        // Factored subtrees are scalar-free by construction, and the
        // fallback is the same subtree.
        NodeKind::FactorRef { .. } => false,
        _ => false,
    }
}

fn count_nodes(node: &CompiledNode) -> usize {
    match &node.kind {
        NodeKind::And(ps) => 1 + ps.iter().map(count_nodes).sum::<usize>(),
        NodeKind::Or { children, .. } => {
            1 + children.iter().map(count_nodes).sum::<usize>()
        }
        NodeKind::FactorRef { node, .. } => count_nodes(node),
        _ => 1,
    }
}

fn may_match(node: &CompiledNode, zones: &[MemberSet]) -> bool {
    match &node.kind {
        NodeKind::Const(b) => *b,
        NodeKind::Col { col, mask } => !mask.is_disjoint(&zones[*col]),
        NodeKind::Boxes(boxes) => boxes.may_match(zones),
        NodeKind::And(ps) => ps.iter().all(|p| may_match(p, zones)),
        // Factors are cached computations, not extra disjuncts: the
        // node's value is the union of its children alone.
        NodeKind::Or { children, .. } => children.iter().any(|p| may_match(p, zones)),
        NodeKind::FactorRef { node, .. } => may_match(node, zones),
        NodeKind::Scalar(_) => true,
    }
}

// ---------------------------------------------------------------------
// Shared-subexpression factoring (compile time)
// ---------------------------------------------------------------------

/// A subtree is worth factoring when re-evaluating it beats an
/// intersection: scalar-free (the cache must never change which rows
/// reach a model) and either a `Boxes` leaf (a lookup per column per
/// row) or at least two nodes (a lone `Col` probe is as cheap as the
/// intersection that would replace it).
fn factorable(node: &CompiledNode) -> bool {
    !has_scalar(node) && (matches!(node.kind, NodeKind::Boxes(_)) || count_nodes(node) >= 2)
}

fn placeholder() -> CompiledNode {
    CompiledNode { id: 0, kind: NodeKind::Const(false) }
}

/// Replaces `target` with a `FactorRef` to `slot`, remembering the
/// first replaced subtree as the factor's representative.
fn replace_with_factor(target: &mut CompiledNode, slot: usize, rep: &mut Option<CompiledNode>) {
    if rep.is_none() {
        *rep = Some(target.clone());
    }
    let inner = std::mem::replace(target, placeholder());
    *target = CompiledNode { id: 0, kind: NodeKind::FactorRef { slot, node: Box::new(inner) } };
}

/// Top-down factoring: detect shared subtrees among this `Or`'s
/// disjuncts first (on pristine children), then recurse into the factor
/// representatives and remaining children so nested disjunctions factor
/// their own sharing. Slots are numbered globally in first-occurrence
/// order, which makes the factored shape — and `factor_hits` — a pure
/// function of the input expression.
fn factor_tree(node: &mut CompiledNode, next_slot: &mut usize) {
    match &mut node.kind {
        NodeKind::And(ps) => {
            for p in ps {
                factor_tree(p, next_slot);
            }
        }
        NodeKind::Or { children, factors } => {
            factor_or(children, factors, next_slot);
            for (_, rep) in factors.iter_mut() {
                factor_tree(rep, next_slot);
            }
            for p in children.iter_mut() {
                factor_tree(p, next_slot);
            }
        }
        // The fallback under a FactorRef is never evaluated; leave it
        // pristine.
        _ => {}
    }
}

/// Finds factor candidates among `children`: each disjunct itself, or
/// each conjunct of an `And` disjunct. A structural key appearing under
/// two or more *distinct* disjuncts gets a slot; every occurrence is
/// replaced by a `FactorRef`.
fn factor_or(
    children: &mut [CompiledNode],
    factors: &mut Vec<(usize, CompiledNode)>,
    next_slot: &mut usize,
) {
    // (disjunct index, Some(conjunct index) | None for the disjunct
    // itself) per structural key, in first-seen key order.
    let mut order: Vec<u64> = Vec::new();
    let mut occs: HashMap<u64, Vec<(usize, Option<usize>)>> = HashMap::new();
    for (di, d) in children.iter().enumerate() {
        let mut note = |key_node: &CompiledNode, at: Option<usize>| {
            if factorable(key_node) {
                let k = structural_key(key_node);
                occs.entry(k)
                    .or_insert_with(|| {
                        order.push(k);
                        Vec::new()
                    })
                    .push((di, at));
            }
        };
        match &d.kind {
            NodeKind::And(gs) => {
                for (gi, g) in gs.iter().enumerate() {
                    note(g, Some(gi));
                }
            }
            _ => note(d, None),
        }
    }
    for k in order {
        let list = &occs[&k];
        let mut disjuncts: Vec<usize> = list.iter().map(|&(di, _)| di).collect();
        disjuncts.dedup(); // pushed in ascending disjunct order
        if disjuncts.len() < 2 {
            continue;
        }
        let slot = *next_slot;
        *next_slot += 1;
        let mut rep = None;
        for &(di, gi) in list {
            match gi {
                Some(g) => {
                    let NodeKind::And(gs) = &mut children[di].kind else {
                        unreachable!("occurrence was collected from an And disjunct");
                    };
                    replace_with_factor(&mut gs[g], slot, &mut rep);
                }
                None => replace_with_factor(&mut children[di], slot, &mut rep),
            }
        }
        factors.push((slot, rep.expect("a factor has at least two occurrences")));
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Id-free structural fingerprint of a compiled subtree: two subtrees
/// share a key iff they compute the same function the same way.
fn structural_key(node: &CompiledNode) -> u64 {
    let mut h = FNV_OFFSET;
    key_node(node, &mut h);
    h
}

fn key_node(node: &CompiledNode, h: &mut u64) {
    match &node.kind {
        NodeKind::Const(b) => {
            fnv_u64(h, 1);
            fnv_u64(h, u64::from(*b));
        }
        NodeKind::Col { col, mask } => {
            fnv_u64(h, 2);
            fnv_u64(h, *col as u64);
            fnv_u64(h, u64::from(mask.domain()));
            for m in 0..mask.domain() {
                if mask.contains(m) {
                    fnv_u64(h, u64::from(m));
                }
            }
        }
        NodeKind::Boxes(boxes) => {
            fnv_u64(h, 7);
            fnv_u64(h, boxes.words as u64);
            for c in &boxes.cols {
                fnv_u64(h, c.col as u64);
                fnv_u64(h, c.table.len() as u64);
                for &t in &c.table {
                    fnv_u64(h, t);
                }
            }
        }
        NodeKind::And(ps) => {
            fnv_u64(h, 3);
            fnv_u64(h, ps.len() as u64);
            for p in ps {
                key_node(p, h);
            }
        }
        NodeKind::Or { children, .. } => {
            fnv_u64(h, 4);
            fnv_u64(h, children.len() as u64);
            for p in children {
                key_node(p, h);
            }
        }
        // Same slot ⇒ same factored subtree of the same owner.
        NodeKind::FactorRef { slot, .. } => {
            fnv_u64(h, 5);
            fnv_u64(h, *slot as u64);
        }
        NodeKind::Scalar(e) => {
            fnv_u64(h, 6);
            fnv_u64(h, e.fingerprint());
        }
    }
}

/// Pre-order id assignment over the complete tree — including factor
/// representatives and `FactorRef` fallbacks — so every counter slot is
/// distinct. Fallbacks are never evaluated and simply keep zero stats.
fn assign_ids(node: &mut CompiledNode, next: &mut usize) {
    node.id = *next;
    *next += 1;
    match &mut node.kind {
        NodeKind::And(ps) => {
            for p in ps {
                assign_ids(p, next);
            }
        }
        NodeKind::Or { children, factors } => {
            for (_, rep) in factors {
                assign_ids(rep, next);
            }
            for p in children {
                assign_ids(p, next);
            }
        }
        NodeKind::FactorRef { node, .. } => assign_ids(node, next),
        _ => {}
    }
}

/// `(fingerprint, node id)` for the root and each root-level child, in
/// source order. Root-level children line up positionally because
/// compilation maps them 1:1 and factoring replaces in place.
fn build_clause_map(expr: &Expr, root: &CompiledNode) -> Vec<(u64, usize)> {
    let mut map = vec![(expr.fingerprint(), root.id)];
    let kids: &[CompiledNode] = match &root.kind {
        NodeKind::And(ps) => ps,
        NodeKind::Or { children, .. } => children,
        _ => &[],
    };
    let subs: &[Expr] = match expr {
        Expr::And(ps) | Expr::Or(ps) => ps,
        _ => &[],
    };
    if kids.len() == subs.len() {
        for (e, k) in subs.iter().zip(kids) {
            map.push((e.fingerprint(), k.id));
        }
    }
    map
}

// ---------------------------------------------------------------------
// Mid-scan re-planning (rank ordering from calibration counters)
// ---------------------------------------------------------------------

/// A rank `cost / den` compared without division: exact u128
/// cross-multiplication, `den == 0` ⇒ infinite (orders after every
/// finite rank, ties keep source order under the stable sort).
#[derive(Clone, Copy)]
struct Rank {
    cost: u64,
    den: u64,
}

impl Rank {
    fn cmp(self, other: Rank) -> std::cmp::Ordering {
        match (self.den, other.den) {
            (0, 0) => std::cmp::Ordering::Equal,
            (0, _) => std::cmp::Ordering::Greater,
            (_, 0) => std::cmp::Ordering::Less,
            _ => (u128::from(self.cost) * u128::from(other.den))
                .cmp(&(u128::from(other.cost) * u128::from(self.den))),
        }
    }
}

/// Total row-touches of a subtree during calibration: the sum of every
/// node's `rows_in`, factors included. Proportional to the work the
/// subtree cost per incoming row — the `cost` numerator of its rank.
fn subtree_cost(node: &CompiledNode, ad: &AdaptiveState) -> u64 {
    let mut sum = ad.rows_in[node.id].load(Ordering::Relaxed);
    match &node.kind {
        NodeKind::And(ps) => {
            for p in ps {
                sum = sum.saturating_add(subtree_cost(p, ad));
            }
        }
        NodeKind::Or { children, factors } => {
            for (_, rep) in factors {
                sum = sum.saturating_add(subtree_cost(rep, ad));
            }
            for p in children {
                sum = sum.saturating_add(subtree_cost(p, ad));
            }
        }
        // The fallback never ran; the reference's own intersection work
        // is its `rows_in`, already counted above.
        NodeKind::FactorRef { .. } => {}
        _ => {}
    }
    sum
}

fn rank_of(node: &CompiledNode, conjunction: bool, ad: &AdaptiveState) -> Rank {
    let rows_in = ad.rows_in[node.id].load(Ordering::Relaxed);
    let rows_out = ad.rows_out[node.id].load(Ordering::Relaxed);
    let cost = subtree_cost(node, ad);
    // cost/(in−out) == (cost/in)/(1−out/in): per-row cost over
    // rejection rate. cost/out == (cost/in)/(out/in): per-row cost
    // over match rate.
    let den = if conjunction { rows_in.saturating_sub(rows_out) } else { rows_out };
    Rank { cost, den }
}

/// Clones the calibrated tree and sorts each maximal run of
/// consecutive scalar-free children by ascending rank. Scalar-bearing
/// children never move and pure filters never cross one, so the rows
/// routed to every `Scalar` leaf — set and order — are exactly the
/// fixed-order reference's.
fn replan(root: &CompiledNode, ad: &AdaptiveState) -> Reordered {
    let mut root = root.clone();
    let mut moved = 0;
    replan_node(&mut root, ad, &mut moved);
    Reordered { root, moved }
}

fn replan_node(node: &mut CompiledNode, ad: &AdaptiveState, moved: &mut u64) {
    match &mut node.kind {
        NodeKind::And(ps) => {
            for p in ps.iter_mut() {
                replan_node(p, ad, moved);
            }
            reorder_runs(ps, true, ad, moved);
        }
        NodeKind::Or { children, factors } => {
            for (_, rep) in factors.iter_mut() {
                replan_node(rep, ad, moved);
            }
            for p in children.iter_mut() {
                replan_node(p, ad, moved);
            }
            reorder_runs(children, false, ad, moved);
        }
        _ => {}
    }
}

fn reorder_runs(
    children: &mut [CompiledNode],
    conjunction: bool,
    ad: &AdaptiveState,
    moved: &mut u64,
) {
    let mut i = 0;
    while i < children.len() {
        if has_scalar(&children[i]) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < children.len() && !has_scalar(&children[j]) {
            j += 1;
        }
        if j - i > 1 {
            let run = &mut children[i..j];
            let ranks: Vec<Rank> = run.iter().map(|c| rank_of(c, conjunction, ad)).collect();
            let mut idx: Vec<usize> = (0..run.len()).collect();
            idx.sort_by(|&a, &b| ranks[a].cmp(ranks[b]));
            if idx.iter().enumerate().any(|(p, &s)| p != s) {
                let mut tmp: Vec<Option<CompiledNode>> = run
                    .iter_mut()
                    .map(|c| Some(std::mem::replace(c, placeholder())))
                    .collect();
                for (p, &s) in idx.iter().enumerate() {
                    run[p] = tmp[s].take().expect("each source index used exactly once");
                    if p != s {
                        *moved += 1;
                    }
                }
            }
        }
        i = j;
    }
}

// ---------------------------------------------------------------------
// Batch evaluation
// ---------------------------------------------------------------------

/// Per-execution state threaded through batch evaluation.
pub(crate) struct BatchCtx<'a> {
    /// Table being scanned (column access for `Col`/`Boxes` leaves and
    /// the cascade, row materialization for `Scalar` leaves).
    pub table: &'a Table,
    /// The execution's scorer: proxy cascades in front of the memo.
    pub oracle: &'a MemoScorer<'a>,
    /// Reused row buffer — filled only for the rows a `Scalar` leaf
    /// evaluates one at a time.
    row_buf: Vec<Member>,
    /// Called after each row a `Scalar` leaf hands to the memo/scorer
    /// path or evaluates row-at-a-time, and once per cascaded batch;
    /// the executors hook invocation-budget, deadline and cancellation
    /// checks here so breach classification matches the row-at-a-time
    /// reference.
    after_scalar_row: &'a mut dyn FnMut() -> Result<(), EngineError>,
    /// Per-slot factor pass sets. An owning `Or` always rewrites its
    /// slots on the current selection before any `FactorRef` below it
    /// reads them, so entries never need clearing between batches.
    factor_pass: Vec<Option<Vec<RowId>>>,
    /// Rows answered from a factor's cached pass set instead of
    /// re-evaluating the shared subtree. Summed per row, so the total
    /// is batching- and dop-independent.
    pub factor_hits: u64,
    /// Cooperative cancellation flag probed while waiting out the
    /// calibration window (`None` outside the executor).
    cancel: Option<&'a AtomicBool>,
    /// Selection vectors the generic `Or` path borrows (two per
    /// nesting level) and returns, so it allocates only until the pool
    /// has grown to the tree's depth.
    scratch: Vec<Vec<RowId>>,
    /// The `Boxes` kernel's per-row disjunct bitsets.
    acc: Vec<u64>,
    /// The cascade's scratch for class counts past 16, and its
    /// per-batch decisions: one buffer per model of the predicate.
    scores: Vec<f64>,
    decisions: [Vec<ProxyDecision>; 2],
}

impl<'a> BatchCtx<'a> {
    /// State for evaluating programs with up to `factor_slots` factor
    /// slots over `table`.
    pub(crate) fn new(
        table: &'a Table,
        oracle: &'a MemoScorer<'a>,
        after_scalar_row: &'a mut dyn FnMut() -> Result<(), EngineError>,
        factor_slots: usize,
        cancel: Option<&'a AtomicBool>,
    ) -> BatchCtx<'a> {
        BatchCtx {
            table,
            oracle,
            row_buf: vec![0; table.schema().len()],
            after_scalar_row,
            factor_pass: vec![None; factor_slots],
            factor_hits: 0,
            cancel,
            scratch: Vec::new(),
            acc: Vec::new(),
            scores: Vec::new(),
            decisions: [Vec::new(), Vec::new()],
        }
    }

    /// Materializes `row` into the reused row buffer.
    fn load_row(&mut self, row: RowId) {
        for (d, cell) in self.row_buf.iter_mut().enumerate() {
            *cell = self.table.cell(row, d);
        }
    }
}

/// Where a node's incoming selection lives. Row ids are ascending
/// either way; what differs is whether anything has written them down.
/// Every kernel body is written once against this type, so a scan batch
/// (a run) and an index fetch or a later conjunct (a list) run the same
/// code.
#[derive(Clone, Copy)]
enum Ids {
    /// The dense run `start..end` of a scan. The selection vector's
    /// contents are ignored; the node leaves its survivors there.
    Run { start: RowId, end: RowId },
    /// The selection vector itself, narrowed where it stands.
    Listed,
}

impl Ids {
    /// How many ids there are (`sel` is the selection vector).
    fn count(self, sel: &[RowId]) -> usize {
        match self {
            Ids::Run { start, end } => (end - start) as usize,
            Ids::Listed => sel.len(),
        }
    }

    /// The `i`-th id.
    fn id(self, sel: &[RowId], i: usize) -> RowId {
        match self {
            Ids::Run { start, .. } => start + i as RowId,
            Ids::Listed => sel[i],
        }
    }

    /// Writes the ids into `sel`, for a node that needs the list.
    fn materialize(self, sel: &mut Vec<RowId>) {
        if let Ids::Run { start, end } = self {
            sel.clear();
            sel.extend(start..end);
        }
    }

    /// Calls `f(i, id)` for every id in order, `i` its position.
    fn for_each(self, sel: &[RowId], mut f: impl FnMut(usize, RowId)) {
        match self {
            Ids::Run { start, end } => (start..end).enumerate().for_each(|(i, r)| f(i, r)),
            Ids::Listed => sel.iter().enumerate().for_each(|(i, &r)| f(i, r)),
        }
    }

    /// Leaves in `sel` the ids `keep(i, id)` passes, in order. The
    /// compaction is branch-free: every id is written at the cursor and
    /// the cursor advances by the test's result, so a leaf at 25–40%
    /// selectivity costs a store per row instead of a mispredicted
    /// branch every few rows. On error `sel` is garbage.
    fn try_compact<E>(
        self,
        sel: &mut Vec<RowId>,
        mut keep: impl FnMut(usize, RowId) -> Result<bool, E>,
    ) -> Result<(), E> {
        let mut k = 0;
        match self {
            Ids::Run { start, end } => {
                // Room for every id. The vector's length is the last
                // batch's survivor count, so this zero-fills the rest of
                // a batch each time (8 KB at most); writing survivors
                // through a stack buffer instead measured no different
                // on the one-leaf statements of `stmt_wire_wide`.
                sel.resize((end - start) as usize, 0);
                // A slice, as in `BoxTable::filter`: the loop keeps its
                // pointer and length in registers.
                let buf = &mut sel[..];
                for (i, r) in (start..end).enumerate() {
                    buf[k] = r;
                    k += usize::from(keep(i, r)?);
                }
            }
            Ids::Listed => {
                let buf = &mut sel[..];
                for i in 0..buf.len() {
                    let r = buf[i];
                    buf[k] = r;
                    k += usize::from(keep(i, r)?);
                }
            }
        }
        sel.truncate(k);
        Ok(())
    }

    /// [`Self::try_compact`] for a test that cannot fail.
    fn compact(self, sel: &mut Vec<RowId>, mut keep: impl FnMut(usize, RowId) -> bool) {
        let Ok(()) = self.try_compact(sel, |i, r| Ok::<_, std::convert::Infallible>(keep(i, r)));
    }
}

/// Narrows the selection `ids` to the rows satisfying `node`, leaving
/// them in `sel`. Column-reading leaves (`Col`, `Boxes`, the cascade)
/// and the row-by-row `Scalar` walk read a run directly; `Or`,
/// `FactorRef` and `Const(true)` need the list and write it down first.
fn filter(
    node: &CompiledNode,
    ids: Ids,
    sel: &mut Vec<RowId>,
    ctx: &mut BatchCtx<'_>,
    stats: Option<&AdaptiveState>,
) -> Result<(), EngineError> {
    let rows_in = ids.count(sel) as u64;
    match &node.kind {
        NodeKind::Const(true) => ids.materialize(sel),
        NodeKind::Const(false) => sel.clear(),
        NodeKind::Col { col, mask } => {
            let (column, blocks) = (ctx.table.column(*col), mask.blocks());
            ids.compact(sel, |_, r| {
                let m = column[r as usize] as usize;
                blocks.get(m / 64).is_some_and(|b| b >> (m % 64) & 1 != 0)
            });
        }
        NodeKind::Boxes(boxes) => boxes.filter(ctx.table, ids, sel, &mut ctx.acc),
        NodeKind::And(ps) => {
            // The first conjunct reads the incoming ids; what it leaves
            // in `sel` is what the others narrow.
            let mut ids = ids;
            for p in ps {
                if ids.count(sel) == 0 {
                    break;
                }
                filter(p, ids, sel, ctx, stats)?;
                ids = Ids::Listed;
            }
            // No conjunct ran: the result is the input.
            ids.materialize(sel);
        }
        NodeKind::Or { children, factors } => {
            ids.materialize(sel);
            or_filter(children, factors, sel, ctx, stats)?;
        }
        NodeKind::FactorRef { slot, node } => {
            if ctx.factor_pass[*slot].is_some() {
                ids.materialize(sel);
                ctx.factor_hits += rows_in;
                let pass = ctx.factor_pass[*slot].as_deref().expect("just checked");
                intersect_sorted(sel, pass);
            } else {
                // The slot was never primed (fixed-order evaluation of
                // a factored tree, e.g. tests driving `filter`
                // directly): fall back to the original subtree.
                filter(node, ids, sel, ctx, stats)?;
            }
        }
        NodeKind::Scalar(expr) => scalar_filter(expr, ids, sel, ctx)?,
    }
    if let Some(ad) = stats {
        ad.rows_in[node.id].fetch_add(rows_in, Ordering::Relaxed);
        ad.rows_out[node.id].fetch_add(sel.len() as u64, Ordering::Relaxed);
    }
    Ok(())
}

fn or_filter(
    children: &[CompiledNode],
    factors: &[(usize, CompiledNode)],
    sel: &mut Vec<RowId>,
    ctx: &mut BatchCtx<'_>,
    stats: Option<&AdaptiveState>,
) -> Result<(), EngineError> {
    // Prime every factor on the incoming selection: each shared
    // subtree is evaluated once per selection vector, and the
    // `FactorRef` occurrences below intersect with the cached result.
    // Factors are scalar-free, so this touches no model. The slot's
    // previous vector is refilled in place.
    for (slot, rep) in factors {
        let mut pass = ctx.factor_pass[*slot].take().unwrap_or_default();
        pass.clear();
        pass.extend_from_slice(sel);
        filter(rep, Ids::Listed, &mut pass, ctx, stats)?;
        ctx.factor_pass[*slot] = Some(pass);
    }
    // Each child sees only rows no earlier child matched — exactly the
    // rows short-circuit `||` would evaluate it on. `sel` becomes the
    // matched set; the two working vectors come from the pool and go
    // back to it (an error drops them with the execution).
    let mut remaining = std::mem::replace(sel, ctx.scratch.pop().unwrap_or_default());
    let mut pass = ctx.scratch.pop().unwrap_or_default();
    sel.clear();
    let mut contributors = 0;
    for p in children {
        if remaining.is_empty() {
            break;
        }
        pass.clear();
        pass.extend_from_slice(&remaining);
        filter(p, Ids::Listed, &mut pass, ctx, stats)?;
        if pass.is_empty() {
            continue;
        }
        subtract_sorted(&mut remaining, &pass);
        sel.extend_from_slice(&pass);
        contributors += 1;
    }
    // One child's rows are already ascending.
    if contributors > 1 {
        sel.sort_unstable();
    }
    ctx.scratch.push(remaining);
    ctx.scratch.push(pass);
    Ok(())
}

/// Evaluates a `Scalar` leaf. A lone mining predicate over a cascaded
/// model — `PREDICT(m) = c`, `PREDICT(m) IN (..)`, `PREDICT(m) =
/// column`, and `PREDICT(m1) = PREDICT(m2)` when either model is
/// cascaded — takes the column-at-a-time cascade; every other shape
/// walks the expression row by row.
fn scalar_filter(
    expr: &Expr,
    ids: Ids,
    sel: &mut Vec<RowId>,
    ctx: &mut BatchCtx<'_>,
) -> Result<(), EngineError> {
    let memo = ctx.oracle;
    if let Expr::Mining(mp) = expr {
        match mp {
            MiningPred::ClassEq { model, class } => {
                if let Some(proxy) = memo.cascade(*model) {
                    return cascade_filter(proxy, *model, |_, c| c == *class, ids, sel, ctx);
                }
            }
            MiningPred::ClassIn { model, classes } => {
                if let Some(proxy) = memo.cascade(*model) {
                    let accept = |_, c| classes.contains(&c);
                    return cascade_filter(proxy, *model, accept, ids, sel, ctx);
                }
            }
            MiningPred::ClassEqColumn { model, column } => {
                if let Some(proxy) = memo.cascade(*model) {
                    let values = ctx.table.column(column.index());
                    let accept = |row: RowId, c| {
                        memo.class_for_member(*model, *column, values[row as usize]) == Some(c)
                    };
                    return cascade_filter(proxy, *model, accept, ids, sel, ctx);
                }
            }
            MiningPred::ModelsAgree { m1, m2 } => {
                if memo.cascade(*m1).is_some() || memo.cascade(*m2).is_some() {
                    return agree_filter([*m1, *m2], ids, sel, ctx);
                }
            }
        }
    }
    ids.try_compact(sel, |_, row| {
        ctx.load_row(row);
        // Invocations are counted by the memo oracle (misses),
        // not by the tree walk — the counter here is discarded.
        let mut tree_inv = 0u64;
        let hit = expr.eval(&ctx.row_buf, memo, &mut tree_inv);
        (ctx.after_scalar_row)()?;
        Ok(hit)
    })
}

/// `accept(row, predict(model, row))` over a whole selection — the class
/// set of `PREDICT(m) = c` / `IN (..)`, or the class carrying the row's
/// label member for `PREDICT(m) = column`: the proxy decides every row
/// column-at-a-time, then band rows — and only they — go one by one, in
/// ascending row order, through the memo/scorer path, exactly the rows
/// and the order [`MemoScorer::predict_in`] sends there row by row. The
/// shared cascade counters take one add per batch.
fn cascade_filter(
    proxy: &ProxyScore,
    model: ModelId,
    accept: impl Fn(RowId, ClassId) -> bool,
    ids: Ids,
    sel: &mut Vec<RowId>,
    ctx: &mut BatchCtx<'_>,
) -> Result<(), EngineError> {
    let (table, memo) = (ctx.table, ctx.oracle);
    let n = ids.count(sel);
    let decisions = &mut ctx.decisions[0];
    proxy.decide_batch(n, |d, i| table.cell(ids.id(sel, i), d), &mut ctx.scores, decisions);
    let (mut accepts, mut band) = (0u64, 0u64);
    ids.try_compact(sel, |i, row| {
        Ok::<_, EngineError>(match ctx.decisions[0][i] {
            ProxyDecision::Unique(c) => {
                let hit = accept(row, c);
                accepts += u64::from(hit);
                hit
            }
            ProxyDecision::Band => {
                band += 1;
                ctx.load_row(row);
                let hit = accept(row, memo.predict_via_memo(model, &ctx.row_buf));
                (ctx.after_scalar_row)()?;
                hit
            }
        })
    })?;
    memo.cascade_accepts.fetch_add(accepts, Ordering::Relaxed);
    memo.cascade_rejects.fetch_add(n as u64 - accepts - band, Ordering::Relaxed);
    memo.band_rows.fetch_add(band, Ordering::Relaxed);
    (ctx.after_scalar_row)()
}

/// `PREDICT(m1) = PREDICT(m2)` over a whole selection, compared by
/// label: each cascaded model decides every row column-at-a-time, and a
/// row's class under a model is its unique decision or else — a band
/// row, or any row when that model has no cascade — the memo/scorer's
/// answer, asked `m1` before `m2` in ascending row order: exactly the
/// calls `Expr::eval` makes through [`MemoScorer::predict`] row by row,
/// counted the same way (`band_rows` per banded call, no accepts or
/// rejects). `after_scalar_row` runs after each row that reached the
/// memo/scorer path and once per batch.
fn agree_filter(
    models: [ModelId; 2],
    ids: Ids,
    sel: &mut Vec<RowId>,
    ctx: &mut BatchCtx<'_>,
) -> Result<(), EngineError> {
    let (table, memo) = (ctx.table, ctx.oracle);
    let n = ids.count(sel);
    let proxies = models.map(|m| memo.cascade(m));
    for (proxy, decisions) in proxies.iter().zip(&mut ctx.decisions) {
        if let Some(proxy) = proxy {
            proxy.decide_batch(n, |d, i| table.cell(ids.id(sel, i), d), &mut ctx.scores, decisions);
        }
    }
    let mut band = 0u64;
    let BatchCtx { row_buf, after_scalar_row, decisions, .. } = ctx;
    ids.try_compact(sel, |i, row| {
        let mut loaded = false;
        let mut class = |k: usize| match proxies[k].map(|_| decisions[k][i]) {
            Some(ProxyDecision::Unique(c)) => c,
            decided => {
                band += u64::from(decided.is_some());
                if !loaded {
                    for (d, cell) in row_buf.iter_mut().enumerate() {
                        *cell = table.cell(row, d);
                    }
                    loaded = true;
                }
                memo.predict_via_memo(models[k], row_buf)
            }
        };
        let (c1, c2) = (class(0), class(1));
        if loaded {
            after_scalar_row()?;
        }
        Ok::<_, EngineError>(memo.class_for_class(models[0], c1, models[1]) == Some(c2))
    })?;
    memo.band_rows.fetch_add(band, Ordering::Relaxed);
    (ctx.after_scalar_row)()
}

/// Removes the (sorted, subset) `pass` rows from the sorted `remaining`
/// vector in one merge pass.
fn subtract_sorted(remaining: &mut Vec<RowId>, pass: &[RowId]) {
    let mut pi = 0;
    let mut kept = 0;
    for i in 0..remaining.len() {
        let r = remaining[i];
        if pi < pass.len() && pass[pi] == r {
            pi += 1;
        } else {
            remaining[kept] = r;
            kept += 1;
        }
    }
    remaining.truncate(kept);
}

/// Keeps only the `sel` rows present in the sorted `pass` set, in one
/// merge pass. `sel` need not be a subset of `pass`, only sorted.
fn intersect_sorted(sel: &mut Vec<RowId>, pass: &[RowId]) {
    let mut pi = 0;
    let mut kept = 0;
    for i in 0..sel.len() {
        let r = sel[i];
        while pi < pass.len() && pass[pi] < r {
            pi += 1;
        }
        if pi < pass.len() && pass[pi] == r {
            sel[kept] = r;
            kept += 1;
        }
    }
    sel.truncate(kept);
}

// ---------------------------------------------------------------------
// Scorer memo cache
// ---------------------------------------------------------------------

/// Per-model memo table. `Box<[Member]>` keys let `&[Member]` rows
/// probe without allocating (via `Borrow`).
type ModelMemo = HashMap<Box<[Member]>, ClassId>;

/// One lock's share of the memo — a table per model id — on cache lines
/// of its own, so workers missing on different shards share none.
#[repr(align(128))]
struct MemoShard(RwLock<Vec<ModelMemo>>);

/// The counters lookups write, on cache lines of their own: apart from
/// the read-mostly fields every lookup reads, so workers missing at once
/// bounce one line between them rather than all of them.
#[derive(Default)]
#[repr(align(128))]
struct MemoCounters {
    /// Entries inserted (reserved) across all shards. `Relaxed` like the
    /// statistics beside it: it publishes nothing, since each entry is
    /// published by its shard's lock.
    len: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    scorer_ns: AtomicU64,
}

/// How many independently locked shards the memo splits into. Fixed:
/// enough that two or eight workers missing at once rarely meet on a
/// lock, few enough that a statement reaching the memo pays one small
/// allocation for them.
const MEMO_SHARDS: usize = 16;

/// The shard of key `(model, row)`: the top bits of a multiplicative
/// hash over the model id and the tuple's members.
fn memo_shard(model: ModelId, row: &Row) -> usize {
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    let h = row
        .iter()
        .fold((model as u64 + 1).wrapping_mul(MIX), |h, &m| (h ^ u64::from(m)).wrapping_mul(MIX));
    (h >> (64 - MEMO_SHARDS.trailing_zeros())) as usize
}

/// The label pairings one execution's label comparisons read, built
/// once from the plan's mining predicates: for each `PREDICT(m1) =
/// PREDICT(m2)`, `m1`'s class → `m2`'s class with its label, and for
/// each `PREDICT(m) = column`, the column's member → `m`'s class with its
/// label. A pairing not listed is looked up in the catalog.
#[derive(Default)]
struct LabelMaps {
    classes: LabelMap<(ModelId, ModelId)>,
    members: LabelMap<(ModelId, AttrId)>,
}

/// Per key, the class each index maps to — `None` where no class carries
/// that label.
type LabelMap<K> = Vec<(K, Vec<Option<ClassId>>)>;

impl LabelMaps {
    fn for_exprs<'e>(catalog: &Catalog, exprs: impl IntoIterator<Item = &'e Expr>) -> LabelMaps {
        let mut maps = LabelMaps::default();
        let mut add = |e: &Expr| match *e {
            Expr::Mining(MiningPred::ModelsAgree { m1, m2 })
                if maps.classes.iter().all(|(k, _)| *k != (m1, m2)) =>
            {
                let k1 = catalog.model(m1).model.n_classes();
                let map =
                    (0..k1).map(|c| catalog.class_for_class(m1, ClassId(c as u16), m2)).collect();
                maps.classes.push(((m1, m2), map));
            }
            Expr::Mining(MiningPred::ClassEqColumn { model, column })
                if maps.members.iter().all(|(k, _)| *k != (model, column)) =>
            {
                let schema = catalog.model(model).model.schema();
                let card = schema.attr(column).domain.cardinality();
                let map = (0..card).map(|m| catalog.class_for_member(model, column, m)).collect();
                maps.members.push(((model, column), map));
            }
            _ => {}
        };
        for e in exprs {
            e.walk(&mut add);
        }
        maps
    }
}

/// A bounded per-query memo over the catalog's [`ModelOracle`].
///
/// `predict` answers repeated `(model, tuple)` questions from the memo.
/// The memo is [`MEMO_SHARDS`] `RwLock`ed shards keyed by a hash of
/// `(model, tuple)`, allocated on the first lookup, so a statement that
/// never reaches the memo allocates none of it. A miss computes under
/// its shard's write lock (double-checked), so each distinct key is
/// scored exactly once no matter how many workers race on it — miss
/// counts are deterministic across degrees of parallelism — while
/// misses on other shards score in parallel. The capacity bound stops
/// *inserting* when full (no eviction): an insert first reserves a slot
/// with one atomic update that fails at `capacity`, so the memo never
/// holds more. The memo can only shrink `model_invocations`, and counts
/// stay identical across executors as long as the distinct-tuple count
/// fits. Injected scorer faults still fire: the miss path calls
/// straight into the catalog, and the memo never outlives one
/// execution.
pub(crate) struct MemoScorer<'a> {
    catalog: &'a Catalog,
    capacity: usize,
    shards: OnceLock<Box<[MemoShard]>>,
    counters: MemoCounters,
    /// Verified proxy cascades, indexed by model id (`None` = the plan
    /// enabled no cascade for this model, or verification rejected it).
    /// Living on the shared oracle means the scalar reference, the
    /// vectorized executor, and every parallel worker make identical
    /// cascade decisions — the differential oracles hold for free.
    cascades: Vec<Option<Arc<ProxyScore>>>,
    labels: LabelMaps,
    cascade_accepts: AtomicU64,
    cascade_rejects: AtomicU64,
    band_rows: AtomicU64,
}

impl<'a> MemoScorer<'a> {
    /// A memo scorer with proxy cascades enabled for the models carrying
    /// `Some` entries (index = model id). Callers build the vector via
    /// [`crate::compile::build_cascades`], which verifies each table.
    pub(crate) fn with_cascades(
        catalog: &'a Catalog,
        capacity: usize,
        cascades: Vec<Option<Arc<ProxyScore>>>,
    ) -> MemoScorer<'a> {
        MemoScorer {
            catalog,
            capacity,
            shards: OnceLock::new(),
            counters: MemoCounters::default(),
            cascades,
            labels: LabelMaps::default(),
            cascade_accepts: AtomicU64::new(0),
            cascade_rejects: AtomicU64::new(0),
            band_rows: AtomicU64::new(0),
        }
    }

    /// Builds the label pairings the mining predicates of `exprs`
    /// compare, once for the whole execution.
    pub(crate) fn with_label_maps<'e>(
        mut self,
        exprs: impl IntoIterator<Item = &'e Expr>,
    ) -> MemoScorer<'a> {
        self.labels = LabelMaps::for_exprs(self.catalog, exprs);
        self
    }

    /// Memo hits so far (predictions answered without the model).
    pub(crate) fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Memo misses so far = actual black-box model applications.
    pub(crate) fn invocations(&self) -> u64 {
        self.counters.misses.load(Ordering::Relaxed)
    }

    /// Rows whose mining predicate the cascade answered positively.
    pub(crate) fn cascade_accepts(&self) -> u64 {
        self.cascade_accepts.load(Ordering::Relaxed)
    }

    /// Rows whose mining predicate the cascade answered negatively.
    pub(crate) fn cascade_rejects(&self) -> u64 {
        self.cascade_rejects.load(Ordering::Relaxed)
    }

    /// Rows inside the proxy's uncertainty band (fell through to the
    /// memo/scorer path).
    pub(crate) fn band_rows(&self) -> u64 {
        self.band_rows.load(Ordering::Relaxed)
    }

    /// Wall nanoseconds spent inside the real scorer (memo misses only).
    pub(crate) fn scorer_ns(&self) -> u64 {
        self.counters.scorer_ns.load(Ordering::Relaxed)
    }

    /// The verified proxy cascade enabled for `model`, if any.
    fn cascade(&self, model: ModelId) -> Option<&ProxyScore> {
        self.cascades.get(model)?.as_deref()
    }

    /// The timed catalog scorer call shared by every miss path.
    fn scored_predict(&self, model: ModelId, row: &Row) -> ClassId {
        let t0 = Instant::now();
        let c = self.catalog.predict(model, row);
        self.counters.scorer_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c
    }
}

impl MemoScorer<'_> {
    /// The memo/scorer path without the cascade front end: called for
    /// band rows (already counted by the caller) and for models with no
    /// verified proxy.
    fn predict_via_memo(&self, model: ModelId, row: &Row) -> ClassId {
        if self.capacity == 0 {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return self.scored_predict(model, row);
        }
        let shards = self
            .shards
            .get_or_init(|| (0..MEMO_SHARDS).map(|_| MemoShard(RwLock::new(Vec::new()))).collect());
        let shard = &shards[memo_shard(model, row)].0;
        {
            let tables = shard.read().unwrap_or_else(|e| e.into_inner());
            if let Some(&c) = tables.get(model).and_then(|m| m.get(row)) {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return c;
            }
        }
        let mut tables = shard.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&c) = tables.get(model).and_then(|m| m.get(row)) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return c;
        }
        // Counted before the (possibly panicking) model runs, matching
        // the reference interpreter's increment-then-predict order.
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let c = self.scored_predict(model, row);
        let reserved = self
            .counters
            .len
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .is_ok();
        if reserved {
            if tables.len() <= model {
                tables.resize_with(model + 1, ModelMemo::new);
            }
            tables[model].insert(Box::from(row), c);
        }
        c
    }
}

impl ModelOracle for MemoScorer<'_> {
    fn predict(&self, model: ModelId, row: &Row) -> ClassId {
        // A unique proxy argmax IS the model's prediction (bit-identical
        // score tables), so direct predictions — the row walk's
        // `ModelsAgree` — ride the cascade too. Only tied rows — the
        // band — reach the memo/scorer path, and they are counted here
        // so `band_rows` equals the fallback-scorer set on every query
        // shape.
        if let Some(proxy) = self.cascade(model) {
            match proxy.decide(row) {
                ProxyDecision::Unique(c) => return c,
                ProxyDecision::Band => {
                    self.band_rows.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.predict_via_memo(model, row)
    }

    fn class_for_member(&self, model: ModelId, column: AttrId, m: Member) -> Option<ClassId> {
        // Pure metadata lookup — not an invocation; no memo needed.
        match self.labels.members.iter().find(|(k, _)| *k == (model, column)) {
            Some((_, map)) => map.get(usize::from(m)).copied().flatten(),
            None => self.catalog.class_for_member(model, column, m),
        }
    }

    fn class_for_class(&self, from: ModelId, class: ClassId, to: ModelId) -> Option<ClassId> {
        match self.labels.classes.iter().find(|(k, _)| *k == (from, to)) {
            Some((_, map)) => map.get(class.index()).copied().flatten(),
            None => self.catalog.class_for_class(from, class, to),
        }
    }

    fn predict_in(&self, model: ModelId, row: &Row, accept: &[ClassId]) -> bool {
        if let Some(proxy) = self.cascade(model) {
            match proxy.decide(row) {
                // A unique proxy argmax IS the model's prediction
                // (bit-identical score tables): answer membership
                // without scoring, memoizing, or counting an invocation.
                ProxyDecision::Unique(c) => {
                    let hit = accept.contains(&c);
                    if hit {
                        self.cascade_accepts.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.cascade_rejects.fetch_add(1, Ordering::Relaxed);
                    }
                    return hit;
                }
                // Tied scores: only the model's tie-break can decide.
                // Counted here, so the fallback must skip the cascade
                // front end (`predict` would count the band row twice).
                ProxyDecision::Band => {
                    self.band_rows.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        accept.contains(&self.predict_via_memo(model, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Atom, AtomPred};
    use crate::table::Table;
    use mpq_types::{AttrDomain, Attribute, Dataset};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("a", AttrDomain::categorical(["p", "q", "r", "s"])),
            Attribute::new("b", AttrDomain::categorical(["x", "y", "z"])),
        ])
        .unwrap()
    }

    fn table() -> Table {
        let rows = (0..64u16).map(|i| vec![i % 4, (i / 4) % 3]);
        Table::with_page_bytes("t", &Dataset::from_rows(schema(), rows).unwrap(), 256)
    }

    struct NoModels;
    impl ModelOracle for NoModels {
        fn predict(&self, _: ModelId, _: &Row) -> ClassId {
            unreachable!("no mining predicates here")
        }
        fn class_for_member(&self, _: ModelId, _: AttrId, _: Member) -> Option<ClassId> {
            None
        }
        fn class_for_class(&self, _: ModelId, _: ClassId, _: ModelId) -> Option<ClassId> {
            None
        }
    }

    fn run(pred: &CompiledPredicate, t: &Table) -> Vec<RowId> {
        run_counting(pred, t).0
    }

    /// Runs `f` with a batch context over `t` and an empty catalog.
    fn with_ctx<R>(pred: &CompiledPredicate, t: &Table, f: impl FnOnce(&mut BatchCtx<'_>) -> R) -> R {
        let cat = Catalog::new();
        let memo = MemoScorer::with_cascades(&cat, 0, Vec::new());
        let mut after = || Ok(());
        f(&mut BatchCtx::new(t, &memo, &mut after, pred.factor_slots(), None))
    }

    fn run_counting(pred: &CompiledPredicate, t: &Table) -> (Vec<RowId>, u64) {
        with_ctx(pred, t, |ctx| {
            let mut sel: Vec<RowId> = (0..t.n_rows() as RowId).collect();
            filter(&pred.root, Ids::Listed, &mut sel, ctx, None).unwrap();
            (sel, ctx.factor_hits)
        })
    }

    /// Drives the adaptive path end to end: calibration window of
    /// `calib` rows, one straddling batch over the whole table.
    fn run_adaptive(pred: &CompiledPredicate, t: &Table, calib: u64) -> (Vec<RowId>, u64) {
        with_ctx(pred, t, |ctx| {
            let clock = CalibClock::new(calib.min(t.n_rows() as u64));
            let mut sel: Vec<RowId> = (0..t.n_rows() as RowId).collect();
            let mut rows = Vec::new();
            pred.filter_batch_at(&mut sel, ctx, 0, &clock, &mut rows).unwrap();
            (rows, pred.reordered_clauses())
        })
    }

    fn reference(e: &Expr, t: &Table) -> Vec<RowId> {
        let mut inv = 0;
        (0..t.n_rows() as RowId)
            .filter(|&r| e.eval(&t.row(r), &NoModels, &mut inv))
            .collect()
    }

    #[test]
    fn compiled_filter_matches_tree_walk() {
        let s = schema();
        let t = table();
        let a = |attr, pred| Expr::Atom(Atom { attr: AttrId(attr), pred });
        let exprs = [
            Expr::Const(true),
            Expr::Const(false),
            a(0, AtomPred::Eq(2)),
            a(1, AtomPred::Range { lo: 1, hi: 2 }),
            Expr::and(vec![a(0, AtomPred::Eq(1)), a(1, AtomPred::Eq(0))]),
            Expr::or(vec![a(0, AtomPred::Eq(0)), a(1, AtomPred::Eq(2))]),
            Expr::and(vec![
                Expr::or(vec![a(0, AtomPred::Eq(0)), a(0, AtomPred::Eq(3))]),
                a(1, AtomPred::In(mpq_types::MemberSet::of(3, [0, 2]))),
            ]),
        ];
        for e in &exprs {
            let fixed = CompiledPredicate::compile(e, &s, false);
            let adaptive = CompiledPredicate::compile(e, &s, true);
            let want = reference(e, &t);
            assert_eq!(run(&fixed, &t), want, "fixed {e:?}");
            assert_eq!(run(&adaptive, &t), want, "adaptive fixed-path {e:?}");
            let (rows, _) = run_adaptive(&adaptive, &t, 16);
            assert_eq!(rows, want, "adaptive replanned {e:?}");
        }
    }

    #[test]
    fn adaptive_replans_and_stays_exact() {
        let s = schema();
        let t = table();
        let a = |attr, pred| Expr::Atom(Atom { attr: AttrId(attr), pred });
        // First conjunct keeps ~3/4 of rows, second ~1/4: rank ordering
        // must swap them once calibrated.
        let e = Expr::and(vec![
            a(0, AtomPred::In(mpq_types::MemberSet::of(4, [0, 1, 2]))),
            a(0, AtomPred::Eq(1)),
        ]);
        let pred = CompiledPredicate::compile(&e, &s, true);
        let (rows, moved) = run_adaptive(&pred, &t, 16);
        assert_eq!(rows, reference(&e, &t));
        assert_eq!(moved, 2, "both conjuncts change position");
        // Publishing is sticky and deterministic.
        assert_eq!(pred.reordered_clauses(), 2);
    }

    #[test]
    fn factoring_shares_subtrees_across_disjuncts() {
        let s = schema();
        let t = table();
        let a = |attr, pred| Expr::Atom(Atom { attr: AttrId(attr), pred });
        let shared = || {
            Expr::and(vec![
                a(0, AtomPred::In(mpq_types::MemberSet::of(4, [1, 2]))),
                a(1, AtomPred::Range { lo: 0, hi: 1 }),
            ])
        };
        // Or(And(shared, b=x), And(shared, b=z)) — the shared conjunct
        // appears in both disjuncts and must get one factor slot.
        let e = Expr::or(vec![
            Expr::and(vec![shared(), a(1, AtomPred::Eq(0))]),
            Expr::and(vec![shared(), a(1, AtomPred::Eq(2))]),
        ]);
        let pred = CompiledPredicate::compile(&e, &s, true);
        assert_eq!(pred.factor_slots(), 1);
        let (rows, hits) = run_counting(&pred, &t);
        assert_eq!(rows, reference(&e, &t));
        assert!(hits > 0, "factor cache must answer rows");
        // Fixed-order compile has no factors and agrees.
        let fixed = CompiledPredicate::compile(&e, &s, false);
        assert_eq!(fixed.factor_slots(), 0);
        assert_eq!(run(&fixed, &t), rows);
        // The adaptive replanned path agrees too.
        let (rows2, _) = run_adaptive(&pred, &t, 16);
        assert_eq!(rows2, rows);
    }

    #[test]
    fn feedback_reports_root_and_clauses() {
        let s = schema();
        let t = table();
        let a = |attr, pred| Expr::Atom(Atom { attr: AttrId(attr), pred });
        let e = Expr::and(vec![a(0, AtomPred::Eq(1)), a(1, AtomPred::Eq(0))]);
        let pred = CompiledPredicate::compile(&e, &s, true);
        let (_, _) = run_adaptive(&pred, &t, 64);
        let obs = pred.feedback();
        // Root + 2 conjuncts, all observed over the full table.
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].fingerprint, e.fingerprint());
        assert_eq!(obs[0].rows_in, 64);
        // a==1 matches 16 of 64; root matches those with b==0.
        assert_eq!(obs[1].rows_out, 16);
        assert_eq!(obs[2].rows_in, 16);
        assert_eq!(obs[0].rows_out, obs[2].rows_out);
    }

    #[test]
    fn zone_pruning_is_sound_and_effective() {
        let s = schema();
        let t = table(); // 4 rows/page: column a cycles fully per page
        let eq0 = CompiledPredicate::compile(
            &Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) }),
            &s,
            true,
        );
        // Every page holds member 0 of column a → nothing prunable.
        for page in 0..t.n_pages() {
            assert!(eq0.page_may_match(t.page_zones(page)));
        }
        // Column b is clustered in runs of 4 rows = 1 page.
        let b1 = CompiledPredicate::compile(
            &Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(1) }),
            &s,
            true,
        );
        let prunable: Vec<bool> =
            (0..t.n_pages()).map(|p| !b1.page_may_match(t.page_zones(p))).collect();
        assert!(prunable.iter().any(|&x| x), "clustered member must prune pages");
        // Soundness: no pruned page may contain a matching row.
        for (page, pruned) in prunable.iter().enumerate() {
            if *pruned {
                let start = page * t.rows_per_page();
                let end = (start + t.rows_per_page()).min(t.n_rows());
                assert!((start..end).all(|r| t.cell(r as RowId, 1) != 1));
            }
        }
        // Scalar leaves never prune.
        let mining = CompiledPredicate::compile(
            &Expr::Mining(MiningPred::ClassEq { model: 0, class: ClassId(0) }),
            &s,
            true,
        );
        assert!((0..t.n_pages()).all(|p| mining.page_may_match(t.page_zones(p))));
    }

    // -- Boxes kernel: exhaustive over small grids ---------------------

    /// Deterministic test-input generator (splitmix64).
    struct Gen(u64);
    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn grid_schema(cards: &[u16]) -> Schema {
        Schema::new(
            cards
                .iter()
                .enumerate()
                .map(|(d, &c)| {
                    let names: Vec<String> = (0..c).map(|m| format!("m{m}")).collect();
                    Attribute::new(format!("c{d}"), AttrDomain::categorical(names))
                })
                .collect(),
        )
        .unwrap()
    }

    /// A table holding every cell of the grid exactly once.
    fn grid_table(schema: &Schema) -> Table {
        let cards: Vec<u16> =
            schema.attrs().iter().map(|a| a.domain.cardinality()).collect();
        let n: usize = cards.iter().map(|&c| c as usize).product();
        let rows = (0..n).map(|mut i| {
            cards
                .iter()
                .map(|&c| {
                    let m = (i % c as usize) as u16;
                    i /= c as usize;
                    m
                })
                .collect::<Vec<u16>>()
        });
        Table::with_page_bytes("grid", &Dataset::from_rows(schema.clone(), rows).unwrap(), 256)
    }

    /// A random atom on column `col`: `Eq`, `Range` or `In`, the last
    /// with any mask including the empty one.
    fn gen_atom(g: &mut Gen, col: usize, card: u16) -> Expr {
        let pred = match g.below(3) {
            0 => AtomPred::Eq(g.below(card as u64) as u16),
            1 => {
                let lo = g.below(card as u64) as u16;
                AtomPred::Range { lo, hi: lo + g.below((card - lo) as u64) as u16 }
            }
            _ => {
                let bits = g.below(1 << card);
                AtomPred::In(MemberSet::of(card, (0..card).filter(|m| bits >> m & 1 == 1)))
            }
        };
        Expr::Atom(Atom { attr: AttrId(col as u16), pred })
    }

    /// A random flat column DNF of `n` disjuncts: one to three atoms
    /// each on random columns, so some disjuncts name a column twice
    /// and some are a bare atom.
    fn gen_dnf(g: &mut Gen, cards: &[u16], n: usize) -> Expr {
        Expr::Or(
            (0..n)
                .map(|_| {
                    let atoms: Vec<Expr> = (0..1 + g.below(3))
                        .map(|_| {
                            let col = g.below(cards.len() as u64) as usize;
                            gen_atom(g, col, cards[col])
                        })
                        .collect();
                    Expr::and(atoms)
                })
                .collect(),
        )
    }

    /// The per-disjunct zone walk the `Boxes` tables replace: some
    /// disjunct whose masks — intersected per column — all meet the
    /// page's zones.
    fn disjunct_walk(dnf: &Expr, schema: &Schema, zones: &[MemberSet]) -> bool {
        let Expr::Or(disjuncts) = dnf else { panic!("a DNF") };
        disjuncts.iter().any(|d| {
            let mut masks: Vec<MemberSet> = schema
                .attrs()
                .iter()
                .map(|a| MemberSet::full(a.domain.cardinality()))
                .collect();
            for atom in BoxTable::box_atoms(d).expect("a box") {
                let Expr::Atom(a) = atom else { unreachable!() };
                let card = schema.attr(a.attr).domain.cardinality();
                masks[a.attr.index()].intersect_with(&a.pred.member_set(card));
            }
            masks.iter().zip(zones).all(|(m, z)| !m.is_disjoint(z))
        })
    }

    fn is_boxes(pred: &CompiledPredicate) -> bool {
        matches!(pred.root.kind, NodeKind::Boxes(_))
    }

    /// The hand-written corner shapes plus generated DNFs of one to
    /// eight disjuncts and two multi-word ones.
    fn box_dnfs(g: &mut Gen, cards: &[u16]) -> Vec<Expr> {
        let a = |col: usize, pred| Expr::Atom(Atom { attr: AttrId(col as u16), pred });
        let empty = |col: usize| a(col, AtomPred::In(MemberSet::empty(cards[col])));
        let mut dnfs = vec![
            // Two atoms on one column in a disjunct: they intersect.
            Expr::Or(vec![
                Expr::And(vec![
                    a(0, AtomPred::Range { lo: 0, hi: 2 }),
                    a(0, AtomPred::Range { lo: 2, hi: 3 }),
                    a(1, AtomPred::Eq(1)),
                ]),
                Expr::And(vec![a(0, AtomPred::Eq(0)), a(0, AtomPred::Eq(1))]),
            ]),
            // An empty-mask atom kills its disjunct, alone or in company.
            Expr::Or(vec![empty(1), Expr::And(vec![a(0, AtomPred::Eq(1)), empty(2)])]),
            Expr::Or(vec![empty(0), a(2, AtomPred::Eq(2))]),
            // One-atom disjuncts, one disjunct, and the empty conjunction.
            Expr::Or(vec![a(0, AtomPred::Eq(3)), a(1, AtomPred::Eq(0))]),
            Expr::Or(vec![a(2, AtomPred::Eq(1))]),
            Expr::Or(vec![Expr::And(vec![]), a(0, AtomPred::Eq(0))]),
        ];
        for n in (1..=8).chain([65, 129]) {
            for _ in 0..4 {
                dnfs.push(gen_dnf(g, cards, n));
            }
        }
        dnfs
    }

    #[test]
    fn boxes_equal_tree_walk_on_every_cell() {
        let cards = [6u16, 5, 4, 3];
        let s = grid_schema(&cards);
        let t = grid_table(&s);
        assert_eq!(t.n_rows(), 360);
        let mut g = Gen(22);
        for e in box_dnfs(&mut g, &cards) {
            let want = reference(&e, &t);
            for adaptive in [false, true] {
                let pred = CompiledPredicate::compile(&e, &s, adaptive);
                assert!(is_boxes(&pred), "{e:?}");
                assert_eq!(pred.node_count(), 1);
                assert_eq!(run(&pred, &t), want, "adaptive={adaptive} {e:?}");
            }
            let pred = CompiledPredicate::compile(&e, &s, true);
            let (rows, moved) = run_adaptive(&pred, &t, 100);
            assert_eq!(rows, want, "replanned {e:?}");
            assert_eq!(moved, 0, "a Boxes leaf has no order to change");
        }
    }

    /// Every non-empty zone vector of the 4×3×4 grid, against the
    /// per-disjunct walk.
    #[test]
    fn boxes_zone_check_equals_the_per_disjunct_walk_on_every_zone_vector() {
        let cards = [4u16, 3, 4];
        let s = grid_schema(&cards);
        // A page's zone is never empty, so neither are these.
        let subsets = |card: u16| {
            (1..1u32 << card)
                .map(move |bits| MemberSet::of(card, (0..card).filter(|m| bits >> m & 1 == 1)))
                .collect::<Vec<_>>()
        };
        let (z0, z1, z2) = (subsets(4), subsets(3), subsets(4));
        let mut g = Gen(7);
        for e in box_dnfs(&mut g, &cards) {
            let pred = CompiledPredicate::compile(&e, &s, false);
            assert!(is_boxes(&pred));
            for a in &z0 {
                for b in &z1 {
                    for c in &z2 {
                        let zones = [a.clone(), b.clone(), c.clone()];
                        assert_eq!(
                            pred.page_may_match(&zones),
                            disjunct_walk(&e, &s, &zones),
                            "zones {zones:?} of {e:?}"
                        );
                    }
                }
            }
        }
    }

    // -- Range entry, list entry and tree walk are one function --------

    /// What one run of a batch leaves behind: the rows, and every
    /// node's calibration counters.
    type Observed = (Vec<RowId>, Vec<(u64, u64)>);

    fn counters(pred: &CompiledPredicate) -> Vec<(u64, u64)> {
        let Some(ad) = &pred.adaptive else { return Vec::new() };
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ad.rows_in.iter().zip(&ad.rows_out).map(|(i, o)| (load(i), load(o))).collect()
    }

    /// Compiles `e` afresh and runs one batch at scan position `pos`
    /// under a calibration window of `calib` positions, everything
    /// before the batch credited as a zone-skipped page credits it.
    fn run_batch(
        e: &Expr,
        s: &Schema,
        t: &Table,
        adaptive: bool,
        calib: u64,
        pos: RowId,
        batch: impl FnOnce(&CompiledPredicate, &mut BatchCtx<'_>, &CalibClock, &mut Vec<RowId>),
    ) -> Observed {
        let pred = CompiledPredicate::compile(e, s, adaptive);
        let clock = CalibClock::new(calib);
        clock.credit_range(0, u64::from(pos));
        let mut rows = Vec::new();
        with_ctx(&pred, t, |ctx| batch(&pred, ctx, &clock, &mut rows));
        (rows, counters(&pred))
    }

    #[test]
    fn range_entry_equals_list_entry_equals_tree_walk_on_every_range() {
        let cards = [6u16, 5, 4, 3];
        let s = grid_schema(&cards);
        let t = grid_table(&s);
        let (n, page) = (t.n_rows() as RowId, t.rows_per_page() as RowId);
        // The calibration window ends inside a page, as a batch boundary
        // would in a scan of bigger pages.
        let calib = 101u64;
        let mut points = vec![0, 1, page, 3 * page, 63, 64, 65, 100, 101, 102, n - page, n - 1, n];
        points.sort_unstable();
        points.dedup();

        let mut g = Gen(24);
        let mut exprs = Vec::new();
        for (col, &card) in cards.iter().enumerate() {
            for _ in 0..4 {
                exprs.push(gen_atom(&mut g, col, card));
            }
        }
        for width in [2, 3, 4] {
            for _ in 0..6 {
                let conjuncts = (0..width).map(|_| {
                    let col = g.below(cards.len() as u64) as usize;
                    gen_atom(&mut g, col, cards[col])
                });
                exprs.push(Expr::And(conjuncts.collect()));
            }
        }
        // An `And` of boxes and a column: the leaf after the first reads
        // a list whichever entry the batch came in by.
        let dnfs = box_dnfs(&mut g, &cards);
        exprs.push(Expr::And(vec![dnfs[10].clone(), gen_atom(&mut g, 0, cards[0])]));
        exprs.push(Expr::And(vec![gen_atom(&mut g, 1, cards[1]), dnfs[20].clone()]));
        exprs.extend(dnfs);
        exprs.extend([Expr::Const(true), Expr::Const(false), Expr::And(vec![])]);

        for e in &exprs {
            let mut inv = 0;
            let pass: Vec<bool> =
                (0..n).map(|r| e.eval(&t.row(r), &NoModels, &mut inv)).collect();
            for (i, &start) in points.iter().enumerate() {
                for &end in &points[i..] {
                    let want: Vec<RowId> = (start..end).filter(|&r| pass[r as usize]).collect();
                    // Every third row dropped: what an index fetch or an
                    // earlier conjunct hands on.
                    let sparse: Vec<RowId> = (start..end).filter(|r| r % 3 != 1).collect();
                    let want_sparse: Vec<RowId> =
                        sparse.iter().copied().filter(|&r| pass[r as usize]).collect();
                    for adaptive in [false, true] {
                        let what = format!("{start}..{end}, adaptive {adaptive}, {e:?}");
                        let by_range = run_batch(e, &s, &t, adaptive, calib, start, |p, ctx, clock, out| {
                            // Whatever the scratch vector held is ignored.
                            let mut sel = vec![7, 7, 7];
                            p.filter_range_at(start..end, &mut sel, ctx, clock, out).unwrap();
                        });
                        let by_list = run_batch(e, &s, &t, adaptive, calib, start, |p, ctx, clock, out| {
                            let mut sel: Vec<RowId> = (start..end).collect();
                            p.filter_batch_at(&mut sel, ctx, u64::from(start), clock, out).unwrap();
                        });
                        assert_eq!(by_range.0, want, "range entry, {what}");
                        assert_eq!(by_list, by_range, "list entry against range entry, {what}");
                        let by_sparse = run_batch(e, &s, &t, adaptive, calib, start, |p, ctx, clock, out| {
                            let mut sel = sparse.clone();
                            p.filter_batch_at(&mut sel, ctx, u64::from(start), clock, out).unwrap();
                        });
                        assert_eq!(by_sparse.0, want_sparse, "sparse list, {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_disjunction_with_a_scalar_or_nested_child_stays_generic() {
        let s = schema();
        let t = table();
        let a = |attr, pred| Expr::Atom(Atom { attr: AttrId(attr), pred });
        let mining = Expr::Mining(MiningPred::ClassEq { model: 0, class: ClassId(0) });
        let with_scalar = Expr::Or(vec![a(0, AtomPred::Eq(0)), a(1, AtomPred::Eq(1)), mining]);
        let pred = CompiledPredicate::compile(&with_scalar, &s, true);
        assert!(matches!(pred.root.kind, NodeKind::Or { .. }));
        assert_eq!(pred.node_count(), 4);
        // A nested disjunction is not a box either, but its flat inner
        // `Or` is — and the two evaluate together exactly.
        let nested = Expr::Or(vec![
            Expr::And(vec![
                a(1, AtomPred::Eq(2)),
                Expr::Or(vec![a(0, AtomPred::Eq(0)), a(0, AtomPred::Eq(3))]),
            ]),
            a(0, AtomPred::Eq(1)),
        ]);
        let pred = CompiledPredicate::compile(&nested, &s, true);
        let NodeKind::Or { children, .. } = &pred.root.kind else { panic!("generic Or") };
        let NodeKind::And(conj) = &children[0].kind else { panic!("And disjunct") };
        assert!(matches!(conj[1].kind, NodeKind::Boxes(_)));
        assert_eq!(run(&pred, &t), reference(&nested, &t));
        assert_eq!(run_adaptive(&pred, &t, 16).0, reference(&nested, &t));
    }

    /// The work gate: calibrating a 16-box envelope touches each row
    /// once, at the `Boxes` leaf — not once per disjunct and atom that
    /// the row reaches, which is what the generic `Or` walk costs.
    #[test]
    fn a_sixteen_box_envelope_calibrates_in_one_touch_per_row() {
        let cards = [6u16, 5, 4, 3];
        let s = grid_schema(&cards);
        let t = grid_table(&s);
        let mut g = Gen(16);
        let envelope = gen_dnf(&mut g, &cards, 16);
        let pred = CompiledPredicate::compile(&envelope, &s, true);
        let n = t.n_rows() as u64;
        let (rows, _) = run_adaptive(&pred, &t, n);
        assert_eq!(rows, reference(&envelope, &t));
        let ad = pred.adaptive.as_ref().expect("compiled adaptive");
        assert_eq!(subtree_cost(&pred.root, ad), n);
    }

    #[test]
    fn subtract_sorted_removes_subset() {
        let mut rem: Vec<RowId> = vec![1, 3, 5, 7, 9];
        subtract_sorted(&mut rem, &[3, 9]);
        assert_eq!(rem, vec![1, 5, 7]);
        subtract_sorted(&mut rem, &[]);
        assert_eq!(rem, vec![1, 5, 7]);
        subtract_sorted(&mut rem, &[1, 5, 7]);
        assert!(rem.is_empty());
    }

    #[test]
    fn intersect_sorted_keeps_common_rows() {
        let mut sel: Vec<RowId> = vec![1, 2, 5, 8, 9];
        intersect_sorted(&mut sel, &[0, 2, 3, 8, 11]);
        assert_eq!(sel, vec![2, 8]);
        intersect_sorted(&mut sel, &[]);
        assert!(sel.is_empty());
    }

    // -- The fused model-agreement leaf and the sharded memo ----------

    /// A naive Bayes over `schema` whose classes are `names`: class
    /// `names[k]` has prior `priors[k]` and, on every column, the
    /// conditional `cond(d, m, k)`.
    fn bayes(
        schema: &Schema,
        names: &[&str],
        priors: &[f64],
        cond: impl Fn(usize, u16, usize) -> f64,
    ) -> mpq_models::NaiveBayes {
        let tables: Vec<Vec<Vec<f64>>> = (0..schema.len())
            .map(|d| {
                (0..schema.attrs()[d].domain.cardinality())
                    .map(|m| (0..names.len()).map(|k| cond(d, m, k)).collect())
                    .collect()
            })
            .collect();
        let names = names.iter().map(|n| n.to_string()).collect();
        mpq_models::NaiveBayes::from_probabilities(schema.clone(), names, priors, &tables).unwrap()
    }

    /// Model 0 over the 4×3 grid has classes `y` and `z` trained alike,
    /// so every cell they win ties (band); model 1 is model 0 with its
    /// classes stored in reverse order — other ids, the same labels.
    fn agreeing_catalog(n_rows: usize) -> Catalog {
        let s = schema();
        let cond = |d: usize, m: u16, k: usize| match (d, k) {
            (0, 0) => [0.5, 0.3, 0.1, 0.1][m as usize],
            (0, _) => [0.1, 0.2, 0.3, 0.4][m as usize],
            (_, 0) => [0.2, 0.5, 0.3][m as usize],
            _ => [0.4, 0.3, 0.3][m as usize],
        };
        let m0 = bayes(&s, &["x", "y", "z"], &[0.4, 0.3, 0.3], cond);
        let m1 = bayes(&s, &["z", "y", "x"], &[0.3, 0.3, 0.4], |d, m, k| cond(d, m, 2 - k));
        let rows = (0..n_rows).map(|i| vec![(i % 4) as u16, (i / 4 % 3) as u16]);
        let mut cat = Catalog::new();
        cat.add_table(Table::with_page_bytes("t", &Dataset::from_rows(s, rows).unwrap(), 256))
            .unwrap();
        for (name, m) in [("m0", m0), ("m1", m1)] {
            cat.add_model(name, Arc::new(m), mpq_core::DeriveOptions::default()).unwrap();
        }
        cat
    }

    /// The fused `MODELS AGREE` leaf, over batches of 100 rows: the rows
    /// the label rule gives, one `band_rows` per banded decision, and
    /// the invocation hook called once per row that reached the scorer
    /// path — a band row under either model — plus once per batch.
    #[test]
    fn a_fused_models_agree_leaf_hooks_each_band_row_and_each_batch() {
        let cat = agreeing_catalog(1_000);
        let t = &cat.table(0).table;
        let expr = Expr::Mining(MiningPred::ModelsAgree { m1: 0, m2: 1 });
        let pred = CompiledPredicate::compile(&expr, t.schema(), true);
        let cascades = crate::compile::build_cascades(&cat, &[0, 1]);
        let proxies: Vec<Arc<ProxyScore>> = cascades.iter().flatten().cloned().collect();
        assert_eq!(proxies.len(), 2);
        let memo = MemoScorer::with_cascades(&cat, DEFAULT_MEMO_CAPACITY, cascades)
            .with_label_maps([&expr]);

        let (mut calls, mut rows) = (0u64, Vec::new());
        let batches = t.n_rows().div_ceil(100) as u64;
        {
            let mut after = || {
                calls += 1;
                Ok(())
            };
            let mut ctx = BatchCtx::new(t, &memo, &mut after, pred.factor_slots(), None);
            let clock = CalibClock::new(0);
            let mut sel = Vec::new();
            for start in (0..t.n_rows() as RowId).step_by(100) {
                let end = (start + 100).min(t.n_rows() as RowId);
                pred.filter_range_at(start..end, &mut sel, &mut ctx, &clock, &mut rows).unwrap();
            }
        }
        let banded = |row: &[Member]| {
            proxies.iter().filter(|p| p.decide(row) == ProxyDecision::Band).count() as u64
        };
        let band: u64 = (0..t.n_rows() as RowId).map(|r| banded(&t.row(r))).sum();
        let band_resolving = (0..t.n_rows() as RowId).filter(|&r| banded(&t.row(r)) > 0).count();
        assert!(band_resolving > 100 && band_resolving < t.n_rows(), "{band_resolving}");
        assert_eq!(calls, band_resolving as u64 + batches);
        assert_eq!(memo.band_rows(), band);
        assert_eq!((memo.cascade_accepts(), memo.cascade_rejects()), (0, 0));
        // The label rule, row by row through the catalog: the models
        // agree wherever the proxy decides, and on cells where `y` and
        // `z` tie at the top their tie-breaks (lowest id) name different
        // labels.
        let mut inv = 0;
        let want: Vec<RowId> =
            (0..t.n_rows() as RowId).filter(|&r| expr.eval(&t.row(r), &cat, &mut inv)).collect();
        assert_eq!(rows, want);
        let decided: Vec<RowId> =
            (0..t.n_rows() as RowId).filter(|&r| banded(&t.row(r)) == 0).collect();
        assert!(!decided.is_empty() && decided.iter().all(|r| rows.binary_search(r).is_ok()));
        assert!(rows.len() < t.n_rows());
    }

    /// Eight workers race over the same 600 distinct tuples in different
    /// orders: the memo never holds more than its capacity, and when
    /// every tuple fits, each is scored exactly once.
    #[test]
    fn the_sharded_memo_holds_its_capacity_under_racing_workers() {
        let s = grid_schema(&[10, 10, 6]);
        let model = bayes(&s, &["a", "b"], &[0.5, 0.5], |d, m, k| {
            (1 + (d + m as usize + k) % 3) as f64 / 10.0
        });
        let mut cat = Catalog::new();
        cat.add_model("m", Arc::new(model), mpq_core::DeriveOptions::default()).unwrap();
        let tuples: Vec<Vec<Member>> =
            (0..600u16).map(|i| vec![i % 10, i / 10 % 10, i / 100]).collect();
        for capacity in [0, 1, 37, 600, 10_000] {
            let memo = MemoScorer::with_cascades(&cat, capacity, Vec::new());
            std::thread::scope(|scope| {
                for w in 0..8usize {
                    let (memo, tuples, cat) = (&memo, &tuples, &cat);
                    scope.spawn(move || {
                        for i in 0..2 * tuples.len() {
                            let tuple = &tuples[(i * (2 * w + 1) + w * 75) % tuples.len()];
                            assert_eq!(memo.predict(0, tuple), cat.predict(0, tuple));
                        }
                    });
                }
            });
            let held: usize = memo.shards.get().map_or(0, |shards| {
                shards
                    .iter()
                    .map(|s| s.0.read().unwrap().iter().map(HashMap::len).sum::<usize>())
                    .sum()
            });
            assert_eq!(held, memo.counters.len.load(Ordering::Relaxed), "capacity {capacity}");
            assert!(held <= capacity, "{held} entries in a memo of {capacity}");
            let lookups = 8 * 2 * tuples.len() as u64;
            assert_eq!(memo.hits() + memo.invocations(), lookups);
            if capacity >= tuples.len() {
                assert_eq!(memo.invocations(), tuples.len() as u64, "capacity {capacity}");
            }
            if capacity == 0 {
                assert!(memo.shards.get().is_none(), "a disabled memo allocates no shard");
            }
        }
    }

    #[test]
    fn rank_orders_by_exact_cross_multiplication() {
        use std::cmp::Ordering as O;
        let r = |cost, den| Rank { cost, den };
        assert_eq!(r(1, 2).cmp(r(2, 4)), O::Equal);
        assert_eq!(r(1, 3).cmp(r(1, 2)), O::Less);
        assert_eq!(r(5, 1).cmp(r(1, 0)), O::Less, "finite beats infinite");
        assert_eq!(r(1, 0).cmp(r(2, 0)), O::Equal, "infinities tie (stable order)");
    }
}
