//! Vectorized predicate evaluation: compiled column programs, the
//! box-DNF kernel, candidate pages from the page bitmaps, the
//! column-at-a-time cascade and the execution's scorer.
//!
//! The paper's §4.2 rewrite turns opaque mining predicates into
//! data-column predicates; this module exploits that form one layer
//! deeper than access-path selection. Instead of walking the [`Expr`]
//! tree per row, the executor compiles the residual once into a
//! [`CompiledPredicate`] — a flat program whose leaves are per-column
//! member bitsets — and evaluates it MonetDB/X100-style over selection
//! vectors, one column at a time. Mining predicates (and `NOT` over
//! them) stay as [`CompiledNode::Scalar`] escape hatches, so the compiled
//! program is exact on every input.
//!
//! **The batch cascade.** A lone mining predicate over a model with a
//! verified proxy cascade — `PREDICT(m) = c`, `PREDICT(m) IN (..)`,
//! `PREDICT(m) = column`, and `PREDICT(m1) = PREDICT(m2)` when either
//! model has one — is decided for the whole selection vector by
//! [`ProxyScore::decide_batch`], one call per cascaded model, whose row
//! kernel keeps the class sums in registers and returns the model's
//! prediction on every row. Only an agreement with one uncascaded model
//! sends rows to the real scorer: that model's, one at a time, in
//! ascending row order — the calls and the order the reference's row
//! walk makes, so `model_invocations` is the reference's. Agreement and
//! the label column compare *labels*, never class ids, through
//! [`ModelOracle::class_for_class`] and
//! [`ModelOracle::class_for_member`]: the scorer answers both from
//! pairings built once per execution from the plan's predicates. Every
//! other scalar shape — `NOT`, an agreement of two uncascaded models —
//! walks the tree row-at-a-time.
//!
//! **Selections.** A node's incoming selection is an [`Ids`]: the dense
//! run `start..end` of a scan batch, of which nothing is written down,
//! or the selection vector itself. A scan batch enters the program as a
//! run ([`CompiledPredicate::filter_range`]); the first
//! column-reading leaf on the path — `Col`, `Boxes`, the cascade's
//! member accessor or the row-by-row `Scalar` walk — iterates it
//! directly and writes only its survivors, and every later node narrows
//! that list where it stands. Ids are written out up front only where a
//! node needs the list itself: the generic `Or` and `Const(true)`.
//! Index fetches and later conjuncts are lists from the start and run
//! the same kernels — each body is written once against `Ids`.
//! Narrowing is branch-free ([`Ids::try_compact`]): every id is
//! stored at the write cursor and the cursor advances by the test's
//! result, so a leaf at 25–40% selectivity pays a store per row rather
//! than a mispredicted branch every few rows.
//!
//! **The `Boxes` leaf.** An upper envelope is a disjunction of
//! axis-aligned regions, and so is every compiled-out tree or rule
//! predicate and every hand-written column DNF: an `Or` whose disjuncts
//! are `Col` leaves or conjunctions of them. Such an `Or` compiles to
//! one [`CompiledNode::Boxes`] leaf holding, per referenced column, a table
//! from member to the bitset of disjuncts admitting it ([`BoxTable`]).
//! A row passes iff the AND of its members' bitsets is non-zero — one
//! lookup per column per row whatever the disjunct count, a column at a
//! time into a reused accumulator, after
//! Kim/Ileri/Madden's point that a disjunction over columns need not
//! re-touch them per disjunct. The kernel has no evaluation order. The
//! generic `Or` path below serves only disjunctions with a `Scalar` or
//! nested child.
//!
//! **Evaluation order** is the expression's: children run exactly as
//! written, as in the reference interpreter. The order was chosen at
//! plan time — [`crate::choose_plan`] sorts each run of mining-free
//! conjuncts by exact column marginals — so the program has nothing to
//! decide while it runs.
//!
//! **Candidate pages.** The same compiled form decides which pages a
//! scan reads. The table keeps, per column and member, a bitmap of the
//! pages holding that member ([`crate::Table::member_pages`]), and
//! [`CompiledPredicate::candidate_pages`] combines them once per
//! statement in the program's shape: a `Col` leaf is the OR of its
//! mask's bitmaps; a `Boxes` leaf the OR over disjuncts of the AND over
//! the columns each constrains of the OR of the members it admits there
//! (a column a disjunct admits whole is skipped); `And`/`Or` AND/OR
//! their children; `Const(true)` and `Scalar` leaves keep every page —
//! after Kim/Ileri/Madden, who evaluate disjunctions over column
//! bitmaps the same way. A page off the bitmap holds no qualifying row.
//! The scan walks the runs of set bits and reads nothing else; the
//! reference interpreter decides the same pages from each page's own
//! rows (`reference::page_may_match`), and the differential oracles
//! compare the two through `pages_skipped`.
//!
//! Finally, [`Scorer`] is the execution's [`ModelOracle`]: the verified
//! proxy cascades in front of the catalog's models. A cascaded model's
//! prediction is its proxy's decision; any other model's is a call into
//! the catalog, counted in `model_invocations` identically in the serial
//! reference and the pipeline at every dop, which is what keeps the
//! differential oracles exact. The proxy tables it applies were checked
//! against a fresh rebuild when the model version was registered
//! ([`crate::compile::verified_proxy`]); an execution only compares the
//! table it is about to use with that one.

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{Expr, MiningPred, ModelId, ModelOracle};
use crate::table::{RowId, Table};
use mpq_core::ProxyScore;
use mpq_types::{AttrId, ClassId, Member, MemberSet, Row, Schema};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One node of a compiled predicate program.
pub(crate) enum CompiledNode {
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
    /// compiles to [`CompiledNode::Boxes`] instead): children run over
    /// not-yet-matched rows only, in order, which preserves
    /// short-circuit `||` semantics per row.
    Or(Vec<CompiledNode>),
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
/// The candidate-page walk reads the same tables: a disjunct's admitted
/// members on a column are the rows whose bitset has its bit (see
/// [`BoxTable::candidate_pages`]).
pub(crate) struct BoxTable {
    /// How many disjuncts there are.
    disjuncts: usize,
    /// Words per bitset: ⌈disjuncts / 64⌉, at least 1.
    words: usize,
    cols: Vec<BoxColumn>,
}

struct BoxColumn {
    /// Column index into the table's schema.
    col: usize,
    /// Member-major disjunct bitsets, `cardinality × words`.
    table: Vec<u64>,
    /// The disjuncts with an atom on this column (`words` words).
    constrained: Vec<u64>,
}

impl BoxTable {
    /// The table of `disjuncts`, or `None` unless every one is a box
    /// (and there is at least one). Runs once per execution, so it
    /// touches only the members each atom names: a first atom sets its
    /// disjunct's bit under the members it matches, the rare second
    /// atom on the same column clears it under those it does not, and
    /// one last pass per column ORs in the disjuncts left unconstrained.
    pub(crate) fn build(disjuncts: &[Expr], schema: &Schema) -> Option<BoxTable> {
        if !is_box_dnf(disjuncts) {
            return None;
        }
        let words = disjuncts.len().div_ceil(64);
        let mut cols: Vec<BoxColumn> = Vec::new();
        for (j, d) in disjuncts.iter().enumerate() {
            let (w, bit) = (j / 64, 1u64 << (j % 64));
            for atom in box_atoms(d).expect("shape checked above") {
                let Expr::Atom(a) = atom else { unreachable!("shape checked above") };
                let card = schema.attr(a.attr).domain.cardinality();
                let col = a.attr.index();
                let ci = cols.iter().position(|c| c.col == col).unwrap_or_else(|| {
                    cols.push(BoxColumn {
                        col,
                        table: vec![0; card as usize * words],
                        constrained: vec![0; words],
                    });
                    cols.len() - 1
                });
                let c = &mut cols[ci];
                if c.constrained[w] & bit == 0 {
                    c.constrained[w] |= bit;
                    a.pred.for_each_member(card, |m| c.table[m as usize * words + w] |= bit);
                } else {
                    for m in (0..card).filter(|&m| !a.pred.matches(m)) {
                        c.table[m as usize * words + w] &= !bit;
                    }
                }
            }
        }
        for c in &mut cols {
            for (w, &seen) in c.constrained.iter().enumerate() {
                let in_word = (disjuncts.len() - w * 64).min(64);
                let free = (u64::MAX >> (64 - in_word)) & !seen;
                if free != 0 {
                    c.table.iter_mut().skip(w).step_by(words).for_each(|t| *t |= free);
                }
            }
        }
        Some(BoxTable { disjuncts: disjuncts.len(), words, cols })
    }

    /// Keeps the rows of `ids` that lie in some box: [`Self::and_columns`],
    /// then one pass that compacts on `acc[i] != 0`.
    fn filter(&self, table: &Table, ids: Ids, sel: &mut Vec<RowId>, acc: &mut Vec<u64>) {
        let words = self.words;
        self.and_columns(table, ids, sel, acc);
        let acc = &acc[..];
        if words == 1 {
            ids.compact(sel, |i, _| acc[i] != 0);
        } else {
            ids.compact(sel, |i, _| acc[i * words..(i + 1) * words].iter().any(|&a| a != 0));
        }
    }

    /// Leaves in `acc` the disjunct bitset of each row of `ids`,
    /// ⌈disjuncts / 64⌉ words a row, column at a time: `acc[i]` starts
    /// all-ones, every column ANDs in its bitset of row `i` — each pass
    /// one column slice and one table, nothing else. No allocation once
    /// `acc` has grown to a batch, no evaluation order. Up to 64
    /// disjuncts — every envelope under the benchmark's threshold, every
    /// compiled-out tree — the bitset is one word and the passes index it
    /// directly; the sliced form alone takes twice as long on the
    /// benchmark's two box statements (`stmt_wire_wide`: 203 → 415 and
    /// 317 → 840 µs).
    pub(crate) fn and_columns(&self, table: &Table, ids: Ids, sel: &[RowId], acc: &mut Vec<u64>) {
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
    }

    /// Writes into `out` the pages of `live` on which some box may hold
    /// a row: the OR over disjuncts of the AND over the columns each one
    /// constrains of the pages holding a member it admits there. A
    /// column a disjunct admits whole is skipped (every page holds some
    /// member), a column's OR stops once it covers the pages the
    /// disjunct still has, a disjunct stops once it has none, and the
    /// outer OR stops once it covers `live`. `scratch` holds two
    /// bitmaps of `out`'s length.
    fn candidate_pages(&self, table: &Table, live: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let (alive, col_pages) = scratch.split_at_mut(out.len());
        out.fill(0);
        for j in 0..self.disjuncts {
            let (w, bit) = (j / 64, 1u64 << (j % 64));
            alive.copy_from_slice(live);
            for c in self.cols.iter().filter(|c| c.constrained[w] & bit != 0) {
                let card = c.table.len() / self.words;
                let admits = |m: &usize| c.table[m * self.words + w] & bit != 0;
                if (0..card).all(|m| admits(&m)) {
                    continue;
                }
                col_pages.fill(0);
                for m in (0..card).filter(admits) {
                    or_into(col_pages, table.member_pages(c.col, m as Member));
                    if covers(col_pages, alive) {
                        break;
                    }
                }
                alive.iter_mut().zip(&*col_pages).for_each(|(a, p)| *a &= p);
                if alive.iter().all(|&a| a == 0) {
                    break;
                }
            }
            out.iter_mut().zip(&*alive).for_each(|(o, a)| *o |= a);
            if covers(out, live) {
                break;
            }
        }
    }
}

/// The atoms of one box: `e` itself or the conjuncts of an `And`, when
/// they are all column atoms.
pub(crate) fn box_atoms(e: &Expr) -> Option<&[Expr]> {
    let atoms = match e {
        Expr::Atom(_) => std::slice::from_ref(e),
        Expr::And(ps) => ps,
        _ => return None,
    };
    atoms
        .iter()
        .all(|a| matches!(a, Expr::Atom(_)))
        .then_some(atoms)
}

/// Whether the disjunction of `disjuncts` compiles to one `Boxes` leaf:
/// there is at least one, and each is a column atom or a conjunction of
/// them. Such a disjunction has no evaluation order.
pub(crate) fn is_box_dnf(disjuncts: &[Expr]) -> bool {
    !disjuncts.is_empty() && disjuncts.iter().all(|d| box_atoms(d).is_some())
}

/// A predicate compiled for vectorized evaluation and page pruning.
pub struct CompiledPredicate {
    root: CompiledNode,
    n_nodes: usize,
}

impl CompiledPredicate {
    /// Compiles `expr` against `schema`. Total: every expression
    /// compiles; shapes with no columnar form become `Scalar` leaves,
    /// and every flat column DNF becomes one `Boxes` leaf. Children keep
    /// the expression's order. The `bool` is ignored; it is kept so that
    /// existing callers compile.
    pub fn compile(expr: &Expr, schema: &Schema, _adaptive: bool) -> CompiledPredicate {
        let root = compile_node(expr, schema);
        CompiledPredicate { n_nodes: count_nodes(&root), root }
    }

    /// Number of nodes in the compiled program.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// The pages of `table` on which some row *may* satisfy the
    /// predicate, as a bitmap of ⌈pages / 64⌉ words (bit `p % 64` of
    /// word `p / 64` for page `p`); a clear bit is a proof that the page
    /// holds no qualifying row. Computed from the table's page bitmaps
    /// in the program's shape: a `Col` leaf is the OR of its mask's
    /// member bitmaps, a `Boxes` leaf the OR over disjuncts of the AND
    /// over their columns (`BoxTable::candidate_pages`), `And`/`Or`
    /// intersect/unite their children, and `Const(true)` and `Scalar`
    /// leaves are every page. An `And` hands its running result to its
    /// next child as the pages still in play, so an OR below it stops
    /// once it covers them. One allocation: the result, the every-page
    /// bitmap the root starts from and the scratch the deepest path
    /// needs.
    pub fn candidate_pages(&self, table: &Table) -> Vec<u64> {
        let words = table.page_words();
        let mut buf = vec![0u64; words * (2 + scratch_bitmaps(&self.root))];
        let (out, rest) = buf.split_at_mut(words);
        let (every, scratch) = rest.split_at_mut(words);
        fill_all_pages(every, table.n_pages());
        candidates(&self.root, table, every, out, scratch);
        buf.truncate(words);
        buf
    }

    /// Appends to `out` the rows of the scan run `rows` that satisfy the
    /// predicate. The run enters the program as a range: its ids are
    /// written down only by the first node that emits survivors (or that
    /// needs the list), into the scratch vector `sel`. Otherwise as
    /// [`Self::filter_batch`].
    pub(crate) fn filter_range(
        &self,
        rows: Range<RowId>,
        sel: &mut Vec<RowId>,
        ctx: &mut BatchCtx<'_>,
        out: &mut Vec<RowId>,
    ) -> Result<(), EngineError> {
        debug_assert!(rows.start <= rows.end);
        filter(&self.root, Ids::Run { start: rows.start, end: rows.end }, sel, ctx)?;
        out.extend_from_slice(sel);
        Ok(())
    }

    /// Appends to `out` the rows of `sel` (ascending row ids) that
    /// satisfy the predicate, evaluating column leaves over column
    /// slices and `Scalar` leaves through `ctx`; `sel` is consumed.
    pub(crate) fn filter_batch(
        &self,
        sel: &mut Vec<RowId>,
        ctx: &mut BatchCtx<'_>,
        out: &mut Vec<RowId>,
    ) -> Result<(), EngineError> {
        filter(&self.root, Ids::Listed, sel, ctx)?;
        out.extend_from_slice(sel);
        Ok(())
    }
}

fn compile_node(expr: &Expr, schema: &Schema) -> CompiledNode {
    match expr {
        Expr::Const(b) => CompiledNode::Const(*b),
        Expr::Atom(a) => {
            let card = schema.attr(a.attr).domain.cardinality();
            CompiledNode::Col { col: a.attr.index(), mask: a.pred.member_set(card) }
        }
        Expr::And(ps) => CompiledNode::And(ps.iter().map(|p| compile_node(p, schema)).collect()),
        Expr::Or(ps) => match BoxTable::build(ps, schema) {
            Some(boxes) => CompiledNode::Boxes(boxes),
            None => CompiledNode::Or(ps.iter().map(|p| compile_node(p, schema)).collect()),
        },
        // Mining predicates and NOT (normalize pushes NOT down to atoms
        // except over mining predicates) stay scalar.
        other => CompiledNode::Scalar(other.clone()),
    }
}

fn count_nodes(node: &CompiledNode) -> usize {
    match node {
        CompiledNode::And(ps) | CompiledNode::Or(ps) => {
            1 + ps.iter().map(count_nodes).sum::<usize>()
        }
        _ => 1,
    }
}

/// Scratch bitmaps [`candidates`] needs below `node`: a `Boxes` leaf
/// two, an `And` or `Or` one per level for the child it combines in.
fn scratch_bitmaps(node: &CompiledNode) -> usize {
    match node {
        CompiledNode::Boxes(_) => 2,
        CompiledNode::And(ps) | CompiledNode::Or(ps) => {
            1 + ps.iter().map(scratch_bitmaps).max().unwrap_or(0)
        }
        _ => 0,
    }
}

/// Writes `node`'s candidate pages among `live` into `out` (see
/// [`CompiledPredicate::candidate_pages`]): exact on the pages of
/// `live`, clear on every other page. An `And` passes its running
/// result down as its next child's `live`, so an OR below it stops once
/// it covers the pages still in play. `scratch` holds
/// [`scratch_bitmaps`] more bitmaps of `out`'s length.
fn candidates(
    node: &CompiledNode,
    table: &Table,
    live: &[u64],
    out: &mut [u64],
    scratch: &mut [u64],
) {
    match node {
        CompiledNode::Const(false) => out.fill(0),
        CompiledNode::Const(true) | CompiledNode::Scalar(_) => out.copy_from_slice(live),
        CompiledNode::Col { col, mask } => {
            if mask.is_full() {
                return out.copy_from_slice(live);
            }
            out.fill(0);
            for m in mask.iter() {
                or_into(out, table.member_pages(*col, m));
                if covers(out, live) {
                    break;
                }
            }
            out.iter_mut().zip(live).for_each(|(o, l)| *o &= l);
        }
        CompiledNode::Boxes(boxes) => boxes.candidate_pages(table, live, out, scratch),
        CompiledNode::And(ps) => {
            out.copy_from_slice(live);
            let (child, scratch) = scratch.split_at_mut(out.len());
            for p in ps {
                candidates(p, table, out, child, scratch);
                out.copy_from_slice(child);
                if out.iter().all(|&o| o == 0) {
                    break;
                }
            }
        }
        CompiledNode::Or(ps) => {
            out.fill(0);
            let (child, scratch) = scratch.split_at_mut(out.len());
            for p in ps {
                if covers(out, live) {
                    break;
                }
                candidates(p, table, live, child, scratch);
                out.iter_mut().zip(&*child).for_each(|(o, c)| *o |= c);
            }
        }
    }
}

/// Word `w` of the bitmap of every one of `n_pages` pages.
fn all_pages_word(w: usize, n_pages: usize) -> u64 {
    match n_pages.saturating_sub(w * 64) {
        0 => 0,
        left if left >= 64 => u64::MAX,
        left => u64::MAX >> (64 - left),
    }
}

fn fill_all_pages(out: &mut [u64], n_pages: usize) {
    for (w, o) in out.iter_mut().enumerate() {
        *o = all_pages_word(w, n_pages);
    }
}

/// Whether `bits` holds every page of `of`.
fn covers(bits: &[u64], of: &[u64]) -> bool {
    bits.iter().zip(of).all(|(b, o)| o & !b == 0)
}

/// ORs a page bitmap, a word at a time ([`Table::member_pages`]), into
/// `out`.
fn or_into(out: &mut [u64], pages: impl Iterator<Item = u64>) {
    out.iter_mut().zip(pages).for_each(|(o, b)| *o |= b);
}

// ---------------------------------------------------------------------
// Batch evaluation
// ---------------------------------------------------------------------

/// Per-execution state threaded through batch evaluation.
pub(crate) struct BatchCtx<'a> {
    /// Table being scanned (column access for `Col`/`Boxes` leaves and
    /// the cascade, row materialization for `Scalar` leaves).
    pub table: &'a Table,
    /// The execution's scorer: proxy cascades in front of the models.
    pub oracle: &'a Scorer<'a>,
    /// Reused row buffer — filled only for the rows a `Scalar` leaf
    /// evaluates one at a time.
    row_buf: Vec<Member>,
    /// Called after each row a `Scalar` leaf hands to the scorer or
    /// evaluates row-at-a-time, and once per cascaded batch;
    /// the executors hook invocation-budget, deadline and cancellation
    /// checks here so breach classification matches the row-at-a-time
    /// reference.
    after_scalar_row: &'a mut dyn FnMut() -> Result<(), EngineError>,
    /// Selection vectors the generic `Or` path borrows (two per
    /// nesting level) and returns, so it allocates only until the pool
    /// has grown to the tree's depth.
    scratch: Vec<Vec<RowId>>,
    /// The `Boxes` kernel's per-row disjunct bitsets.
    acc: Vec<u64>,
    /// The cascade's scratch for class counts past 16, and its
    /// per-batch classes: one buffer per model of the predicate.
    scores: Vec<f64>,
    decisions: [Vec<ClassId>; 2],
}

impl<'a> BatchCtx<'a> {
    /// State for evaluating programs over `table`.
    pub(crate) fn new(
        table: &'a Table,
        oracle: &'a Scorer<'a>,
        after_scalar_row: &'a mut dyn FnMut() -> Result<(), EngineError>,
    ) -> BatchCtx<'a> {
        BatchCtx {
            table,
            oracle,
            row_buf: vec![0; table.schema().len()],
            after_scalar_row,
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
pub(crate) enum Ids {
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
/// and the row-by-row `Scalar` walk read a run directly; `Or` and
/// `Const(true)` need the list and write it down first.
fn filter(
    node: &CompiledNode,
    ids: Ids,
    sel: &mut Vec<RowId>,
    ctx: &mut BatchCtx<'_>,
) -> Result<(), EngineError> {
    match node {
        CompiledNode::Const(true) => ids.materialize(sel),
        CompiledNode::Const(false) => sel.clear(),
        CompiledNode::Col { col, mask } => {
            let (column, blocks) = (ctx.table.column(*col), mask.blocks());
            ids.compact(sel, |_, r| {
                let m = column[r as usize] as usize;
                blocks.get(m / 64).is_some_and(|b| b >> (m % 64) & 1 != 0)
            });
        }
        CompiledNode::Boxes(boxes) => boxes.filter(ctx.table, ids, sel, &mut ctx.acc),
        CompiledNode::And(ps) => {
            // The first conjunct reads the incoming ids; what it leaves
            // in `sel` is what the others narrow.
            let mut ids = ids;
            for p in ps {
                if ids.count(sel) == 0 {
                    break;
                }
                filter(p, ids, sel, ctx)?;
                ids = Ids::Listed;
            }
            // No conjunct ran: the result is the input.
            ids.materialize(sel);
        }
        CompiledNode::Or(ps) => {
            ids.materialize(sel);
            or_filter(ps, sel, ctx)?;
        }
        CompiledNode::Scalar(expr) => scalar_filter(expr, ids, sel, ctx)?,
    }
    Ok(())
}

fn or_filter(
    disjuncts: &[CompiledNode],
    sel: &mut Vec<RowId>,
    ctx: &mut BatchCtx<'_>,
) -> Result<(), EngineError> {
    // Each child sees only rows no earlier child matched — exactly the
    // rows short-circuit `||` would evaluate it on. `sel` becomes the
    // matched set; the two working vectors come from the pool and go
    // back to it (an error drops them with the execution).
    let mut remaining = std::mem::replace(sel, ctx.scratch.pop().unwrap_or_default());
    let mut pass = ctx.scratch.pop().unwrap_or_default();
    sel.clear();
    let mut contributors = 0;
    for p in disjuncts {
        if remaining.is_empty() {
            break;
        }
        pass.clear();
        pass.extend_from_slice(&remaining);
        filter(p, Ids::Listed, &mut pass, ctx)?;
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
    let scorer = ctx.oracle;
    if let Expr::Mining(mp) = expr {
        match mp {
            MiningPred::ClassEq { model, class } => {
                if let Some(proxy) = scorer.cascade(*model) {
                    return cascade_filter(proxy, |_, c| c == *class, ids, sel, ctx);
                }
            }
            MiningPred::ClassIn { model, classes } => {
                if let Some(proxy) = scorer.cascade(*model) {
                    return cascade_filter(proxy, |_, c| classes.contains(&c), ids, sel, ctx);
                }
            }
            MiningPred::ClassEqColumn { model, column } => {
                if let Some(proxy) = scorer.cascade(*model) {
                    let values = ctx.table.column(column.index());
                    let accept = |row: RowId, c| {
                        scorer.class_for_member(*model, *column, values[row as usize]) == Some(c)
                    };
                    return cascade_filter(proxy, accept, ids, sel, ctx);
                }
            }
            MiningPred::ModelsAgree { m1, m2 } => {
                if scorer.cascade(*m1).is_some() || scorer.cascade(*m2).is_some() {
                    return agree_filter([*m1, *m2], ids, sel, ctx);
                }
            }
        }
    }
    ids.try_compact(sel, |_, row| {
        ctx.load_row(row);
        // Invocations are counted by the scorer, not by the tree walk —
        // the counter here is discarded.
        let mut tree_inv = 0u64;
        let hit = expr.eval(&ctx.row_buf, scorer, &mut tree_inv);
        (ctx.after_scalar_row)()?;
        Ok(hit)
    })
}

/// `accept(row, predict(model, row))` over a whole selection — the class
/// set of `PREDICT(m) = c` / `IN (..)`, or the class carrying the row's
/// label member for `PREDICT(m) = column`: the proxy decides every row
/// column-at-a-time and the selection keeps the rows its class passes,
/// with no scorer call. The shared cascade counters take one add per
/// batch, and `after_scalar_row` runs once per batch.
fn cascade_filter(
    proxy: &ProxyScore,
    accept: impl Fn(RowId, ClassId) -> bool,
    ids: Ids,
    sel: &mut Vec<RowId>,
    ctx: &mut BatchCtx<'_>,
) -> Result<(), EngineError> {
    let (table, scorer) = (ctx.table, ctx.oracle);
    let n = ids.count(sel);
    let classes = &mut ctx.decisions[0];
    proxy.decide_batch(n, |d, i| table.cell(ids.id(sel, i), d), &mut ctx.scores, classes);
    ids.compact(sel, |i, row| accept(row, classes[i]));
    let accepts = sel.len() as u64;
    scorer.cascade_accepts.fetch_add(accepts, Ordering::Relaxed);
    scorer.cascade_rejects.fetch_add(n as u64 - accepts, Ordering::Relaxed);
    (ctx.after_scalar_row)()
}

/// `PREDICT(m1) = PREDICT(m2)` over a whole selection, compared by
/// label: each cascaded model decides every row column-at-a-time, and
/// an uncascaded one — at most one of the two — is asked row by row, in
/// ascending row order, through the scorer: exactly the calls
/// `Expr::eval` makes through [`Scorer::predict`] row by row, counted
/// the same way (no accepts or rejects). `after_scalar_row` runs after
/// each scorer call and once per batch.
fn agree_filter(
    models: [ModelId; 2],
    ids: Ids,
    sel: &mut Vec<RowId>,
    ctx: &mut BatchCtx<'_>,
) -> Result<(), EngineError> {
    let (table, scorer) = (ctx.table, ctx.oracle);
    let n = ids.count(sel);
    let proxies = models.map(|m| scorer.cascade(m));
    for (proxy, decisions) in proxies.iter().zip(&mut ctx.decisions) {
        if let Some(proxy) = proxy {
            proxy.decide_batch(n, |d, i| table.cell(ids.id(sel, i), d), &mut ctx.scores, decisions);
        }
    }
    let BatchCtx { row_buf, after_scalar_row, decisions, .. } = ctx;
    ids.try_compact(sel, |i, row| {
        let mut class = |k: usize| {
            if proxies[k].is_some() {
                return Ok(decisions[k][i]);
            }
            for (d, cell) in row_buf.iter_mut().enumerate() {
                *cell = table.cell(row, d);
            }
            let c = scorer.score(models[k], row_buf);
            after_scalar_row().map(|()| c)
        };
        let (c1, c2) = (class(0)?, class(1)?);
        Ok::<_, EngineError>(scorer.class_for_class(models[0], c1, models[1]) == Some(c2))
    })?;
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

// ---------------------------------------------------------------------
// The execution's scorer
// ---------------------------------------------------------------------

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

/// The execution's [`ModelOracle`]: verified proxy cascades in front
/// of the catalog's models, shared by the scalar reference, the
/// vectorized executor and every parallel worker, so all of them make
/// identical decisions and count identical scorer calls.
///
/// A cascaded model's prediction is its proxy's decision, which is the
/// model's on every row; any other model is scored through the catalog,
/// and every such call counts one invocation. Injected scorer faults
/// disable every cascade ([`crate::compile::build_cascades`]), so they
/// always reach a real scorer call.
pub(crate) struct Scorer<'a> {
    catalog: &'a Catalog,
    /// Verified proxy cascades, indexed by model id (`None` = the plan
    /// enabled no cascade for this model, or verification rejected it).
    cascades: Vec<Option<Arc<ProxyScore>>>,
    labels: LabelMaps,
    cascade_accepts: AtomicU64,
    cascade_rejects: AtomicU64,
    invocations: AtomicU64,
    scorer_ns: AtomicU64,
}

impl<'a> Scorer<'a> {
    /// A scorer with proxy cascades enabled for the models carrying
    /// `Some` entries (index = model id). Callers build the vector via
    /// [`crate::compile::build_cascades`], which verifies each table.
    pub(crate) fn with_cascades(
        catalog: &'a Catalog,
        cascades: Vec<Option<Arc<ProxyScore>>>,
    ) -> Scorer<'a> {
        Scorer {
            catalog,
            cascades,
            labels: LabelMaps::default(),
            cascade_accepts: AtomicU64::new(0),
            cascade_rejects: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
            scorer_ns: AtomicU64::new(0),
        }
    }

    /// Builds the label pairings the mining predicates of `exprs`
    /// compare, once for the whole execution.
    pub(crate) fn with_label_maps<'e>(
        mut self,
        exprs: impl IntoIterator<Item = &'e Expr>,
    ) -> Scorer<'a> {
        self.labels = LabelMaps::for_exprs(self.catalog, exprs);
        self
    }

    /// Real scorer calls so far — black-box model applications.
    pub(crate) fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Rows whose mining predicate the cascade answered positively.
    pub(crate) fn cascade_accepts(&self) -> u64 {
        self.cascade_accepts.load(Ordering::Relaxed)
    }

    /// Rows whose mining predicate the cascade answered negatively.
    pub(crate) fn cascade_rejects(&self) -> u64 {
        self.cascade_rejects.load(Ordering::Relaxed)
    }

    /// Wall nanoseconds spent inside the real scorer.
    pub(crate) fn scorer_ns(&self) -> u64 {
        self.scorer_ns.load(Ordering::Relaxed)
    }

    /// The verified proxy cascade enabled for `model`, if any.
    fn cascade(&self, model: ModelId) -> Option<&ProxyScore> {
        self.cascades.get(model)?.as_deref()
    }

    /// One real scorer call, counted and timed. Counted before the
    /// (possibly panicking) model runs, matching the reference
    /// interpreter's increment-then-predict order.
    fn score(&self, model: ModelId, row: &Row) -> ClassId {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let c = self.catalog.predict(model, row);
        self.scorer_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c
    }
}

impl ModelOracle for Scorer<'_> {
    fn predict(&self, model: ModelId, row: &Row) -> ClassId {
        // Direct predictions — the row walk's `ModelsAgree` — ride the
        // cascade too, without counting accepts or rejects.
        match self.cascade(model) {
            Some(proxy) => proxy.decide(row),
            None => self.score(model, row),
        }
    }

    fn class_for_member(&self, model: ModelId, column: AttrId, m: Member) -> Option<ClassId> {
        // Pure metadata lookup — not an invocation.
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
        let Some(proxy) = self.cascade(model) else {
            return accept.contains(&self.score(model, row));
        };
        let hit = accept.contains(&proxy.decide(row));
        let counter = if hit { &self.cascade_accepts } else { &self.cascade_rejects };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
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

    /// Runs `f` with a batch context over `t` and an empty catalog.
    fn with_ctx<R>(t: &Table, f: impl FnOnce(&mut BatchCtx<'_>) -> R) -> R {
        let cat = Catalog::new();
        let scorer = Scorer::with_cascades(&cat, Vec::new());
        let mut after = || Ok(());
        f(&mut BatchCtx::new(t, &scorer, &mut after))
    }

    /// The whole table as one batch.
    fn run(pred: &CompiledPredicate, t: &Table) -> Vec<RowId> {
        with_ctx(t, |ctx| {
            let (mut sel, mut rows) = (Vec::new(), Vec::new());
            pred.filter_range(0..t.n_rows() as RowId, &mut sel, ctx, &mut rows).unwrap();
            rows
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
            let pred = CompiledPredicate::compile(e, &s, false);
            assert_eq!(run(&pred, &t), reference(e, &t), "{e:?}");
        }
    }

    /// Page `p` is kept iff entry `p` is `true`.
    fn kept_pages(bits: &[u64], n_pages: usize) -> Vec<bool> {
        assert!(bits.len() * 64 >= n_pages && bits.len() == n_pages.div_ceil(64));
        (0..n_pages)
            .map(|p| bits[p / 64] >> (p % 64) & 1 == 1)
            .collect()
    }

    /// What the reference's per-page test keeps, from each page's rows.
    fn reference_pages(e: &Expr, t: &Table) -> Vec<bool> {
        let mut zones: Vec<MemberSet> =
            t.schema().attrs().iter().map(|a| MemberSet::empty(a.domain.cardinality())).collect();
        let cols: Vec<usize> = (0..zones.len()).collect();
        (0..t.n_pages())
            .map(|p| {
                crate::reference::page_members(t, p, &cols, &mut zones);
                crate::reference::page_may_match(e, &zones)
            })
            .collect()
    }

    #[test]
    fn candidate_pages_are_sound_and_effective() {
        let s = schema();
        let t = table(); // 4 rows/page: column a cycles fully per page
        let every = vec![true; t.n_pages()];
        let candidates = |e: &Expr| {
            kept_pages(
                &CompiledPredicate::compile(e, &s, false).candidate_pages(&t),
                t.n_pages(),
            )
        };
        // Every page holds member 0 of column a → nothing prunable.
        assert_eq!(
            candidates(&Expr::Atom(Atom {
                attr: AttrId(0),
                pred: AtomPred::Eq(0)
            })),
            every
        );
        // Column b is clustered in runs of 4 rows = 1 page: a one-leaf
        // predicate keeps exactly the pages holding its member.
        let kept = candidates(&Expr::Atom(Atom {
            attr: AttrId(1),
            pred: AtomPred::Eq(1),
        }));
        assert!(
            kept.iter().any(|&k| !k),
            "clustered member must prune pages"
        );
        for (page, &k) in kept.iter().enumerate() {
            let start = page * t.rows_per_page();
            let end = (start + t.rows_per_page()).min(t.n_rows());
            assert_eq!(
                k,
                (start..end).any(|r| t.cell(r as RowId, 1) == 1),
                "page {page}"
            );
        }
        // Scalar leaves never prune.
        let mining = Expr::Mining(MiningPred::ClassEq {
            model: 0,
            class: ClassId(0),
        });
        assert_eq!(candidates(&mining), every);
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

    fn is_boxes(pred: &CompiledPredicate) -> bool {
        matches!(pred.root, CompiledNode::Boxes(_))
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
            let pred = CompiledPredicate::compile(&e, &s, false);
            assert!(is_boxes(&pred), "{e:?}");
            assert_eq!(pred.node_count(), 1);
            assert_eq!(run(&pred, &t), reference(&e, &t), "{e:?}");
        }
    }

    /// A table of 4-row pages, one per non-empty member set per column
    /// of the grid `cards` (at most four members each): every zone
    /// vector a page can have, once.
    fn every_zone_table(schema: &Schema) -> Table {
        let subsets = |card: u16| -> Vec<Vec<u16>> {
            (1..1u32 << card)
                .map(|bits| (0..card).filter(|m| bits >> m & 1 == 1).collect())
                .collect()
        };
        let per_col: Vec<Vec<Vec<u16>>> = schema
            .attrs()
            .iter()
            .map(|a| subsets(a.domain.cardinality()))
            .collect();
        let n_pages: usize = per_col.iter().map(Vec::len).product();
        let mut columns = vec![Vec::new(); schema.len()];
        for mut page in 0..n_pages {
            for (col, sets) in columns.iter_mut().zip(&per_col) {
                let set = &sets[page % sets.len()];
                page /= sets.len();
                col.extend((0..4).map(|i| set[i.min(set.len() - 1)]));
            }
        }
        Table::from_encoded_parts("zones", schema.clone(), columns, 4).unwrap()
    }

    /// Every zone vector of the 4×3×4 grid, against the reference's
    /// per-disjunct walk.
    #[test]
    fn boxes_candidate_pages_equal_the_reference_on_every_zone_vector() {
        let cards = [4u16, 3, 4];
        let s = grid_schema(&cards);
        let t = every_zone_table(&s);
        assert_eq!(t.n_pages(), 15 * 7 * 15);
        let mut g = Gen(7);
        for e in box_dnfs(&mut g, &cards) {
            let pred = CompiledPredicate::compile(&e, &s, false);
            assert!(is_boxes(&pred));
            assert_eq!(
                kept_pages(&pred.candidate_pages(&t), t.n_pages()),
                reference_pages(&e, &t),
                "{e:?}"
            );
        }
    }

    /// A random predicate of every compiled shape: constants, atoms
    /// (empty and whole-domain masks among them), box DNFs with
    /// whole-domain and empty atoms, mining leaves, and `And`/`Or` over
    /// all of these — an `Or` with a nested or mining child stays
    /// generic.
    fn gen_pred(g: &mut Gen, cards: &[u16], depth: u32) -> Expr {
        let col = g.below(cards.len() as u64) as usize;
        let whole = |col: usize| {
            Expr::Atom(Atom {
                attr: AttrId(col as u16),
                pred: AtomPred::Range {
                    lo: 0,
                    hi: cards[col] - 1,
                },
            })
        };
        let empty = |col: usize| {
            Expr::Atom(Atom {
                attr: AttrId(col as u16),
                pred: AtomPred::In(MemberSet::empty(cards[col])),
            })
        };
        match g.below(if depth == 0 { 6 } else { 8 }) {
            0 => Expr::Const(g.below(2) == 1),
            1 => Expr::Mining(MiningPred::ClassEq {
                model: 0,
                class: ClassId(0),
            }),
            2 => match g.below(4) {
                0 => whole(col),
                1 => empty(col),
                _ => gen_atom(g, col, cards[col]),
            },
            3..=5 => {
                let n = 1 + g.below(5) as usize;
                let Expr::Or(mut disjuncts) = gen_dnf(g, cards, n) else {
                    unreachable!("gen_dnf makes an Or")
                };
                for d in &mut disjuncts {
                    let extra = match g.below(6) {
                        0 => whole(col),
                        1 => empty(col),
                        _ => continue,
                    };
                    *d = Expr::And(vec![d.clone(), extra]);
                }
                Expr::Or(disjuncts)
            }
            k => {
                let children = (0..g.below(4))
                    .map(|_| gen_pred(g, cards, depth - 1))
                    .collect();
                if k == 6 {
                    Expr::And(children)
                } else {
                    Expr::Or(children)
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random small tables — clustered, uniform and few-member
        /// columns, one to six rows a page, past one bitmap word — and
        /// random predicates: the candidate bitmap keeps exactly the
        /// pages the reference's per-page test keeps.
        #[test]
        fn candidate_pages_equal_the_reference_page_test(seed in proptest::prelude::any::<u64>()) {
            let mut g = Gen(seed);
            let cards: Vec<u16> = (0..1 + g.below(4)).map(|_| 1 + g.below(6) as u16).collect();
            let s = grid_schema(&cards);
            let n = g.below(400) as usize;
            let columns = cards
                .iter()
                .map(|&card| {
                    let mode = g.below(3);
                    (0..n)
                        .map(|r| match mode {
                            0 => (r * card as usize / n.max(1)) as u16,
                            1 => g.below(card as u64) as u16,
                            _ => g.below(card.min(2) as u64) as u16,
                        })
                        .collect()
                })
                .collect();
            let rows_per_page = 1 + g.below(6) as usize;
            let t = Table::from_encoded_parts("t", s.clone(), columns, rows_per_page).unwrap();
            for _ in 0..16 {
                let e = gen_pred(&mut g, &cards, 2);
                let pred = CompiledPredicate::compile(&e, &s, false);
                proptest::prop_assert_eq!(
                    kept_pages(&pred.candidate_pages(&t), t.n_pages()),
                    reference_pages(&e, &t),
                    "{:?} over {} rows, {} a page",
                    e,
                    n,
                    rows_per_page
                );
            }
        }
    }

    // -- Range entry, list entry and tree walk are one function --------

    /// The rows one batch leaves behind.
    fn run_batch(
        t: &Table,
        batch: impl FnOnce(&mut BatchCtx<'_>, &mut Vec<RowId>),
    ) -> Vec<RowId> {
        let mut rows = Vec::new();
        with_ctx(t, |ctx| batch(ctx, &mut rows));
        rows
    }

    #[test]
    fn range_entry_equals_list_entry_equals_tree_walk_on_every_range() {
        let cards = [6u16, 5, 4, 3];
        let s = grid_schema(&cards);
        let t = grid_table(&s);
        let (n, page) = (t.n_rows() as RowId, t.rows_per_page() as RowId);
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
            let pred = CompiledPredicate::compile(e, &s, false);
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
                    let what = format!("{start}..{end}, {e:?}");
                    let by_range = run_batch(&t, |ctx, out| {
                        // Whatever the scratch vector held is ignored.
                        let mut sel = vec![7, 7, 7];
                        pred.filter_range(start..end, &mut sel, ctx, out).unwrap();
                    });
                    let by_list = run_batch(&t, |ctx, out| {
                        let mut sel: Vec<RowId> = (start..end).collect();
                        pred.filter_batch(&mut sel, ctx, out).unwrap();
                    });
                    assert_eq!(by_range, want, "range entry, {what}");
                    assert_eq!(by_list, by_range, "list entry against range entry, {what}");
                    let by_sparse = run_batch(&t, |ctx, out| {
                        let mut sel = sparse.clone();
                        pred.filter_batch(&mut sel, ctx, out).unwrap();
                    });
                    assert_eq!(by_sparse, want_sparse, "sparse list, {what}");
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
        let pred = CompiledPredicate::compile(&with_scalar, &s, false);
        assert!(matches!(pred.root, CompiledNode::Or(_)));
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
        let pred = CompiledPredicate::compile(&nested, &s, false);
        let CompiledNode::Or(children) = &pred.root else { panic!("generic Or") };
        let CompiledNode::And(conj) = &children[0] else { panic!("And disjunct") };
        assert!(matches!(conj[1], CompiledNode::Boxes(_)));
        assert_eq!(run(&pred, &t), reference(&nested, &t));
    }

    /// A 16-box envelope is one leaf: one node.
    #[test]
    fn a_sixteen_box_envelope_is_one_leaf() {
        let cards = [6u16, 5, 4, 3];
        let s = grid_schema(&cards);
        let t = grid_table(&s);
        let mut g = Gen(16);
        let envelope = gen_dnf(&mut g, &cards, 16);
        let pred = CompiledPredicate::compile(&envelope, &s, false);
        assert_eq!(pred.node_count(), 1);
        assert_eq!(run(&pred, &t), reference(&envelope, &t));
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

    // -- The fused model-agreement leaf --------------------------------

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
    /// so every cell they win ties; model 1 is model 0 with its classes
    /// stored in reverse order — other ids, the same labels.
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

    /// The fused `MODELS AGREE` leaf, over batches of 100 rows, with both
    /// models cascaded and with model 1's cascade off: the rows the label
    /// rule gives — on the cells where `y` and `z` tie, each model's
    /// tie-break (the lower id) names a different label — one scorer
    /// call per row of the uncascaded model and none otherwise, and the
    /// invocation hook called after each scorer call and once per batch.
    #[test]
    fn a_fused_models_agree_leaf_scores_only_an_uncascaded_model() {
        let cat = agreeing_catalog(1_000);
        let t = &cat.table(0).table;
        let n = t.n_rows() as u64;
        let expr = Expr::Mining(MiningPred::ModelsAgree { m1: 0, m2: 1 });
        let pred = CompiledPredicate::compile(&expr, t.schema(), true);
        let mut inv = 0;
        let want: Vec<RowId> =
            (0..t.n_rows() as RowId).filter(|&r| expr.eval(&t.row(r), &cat, &mut inv)).collect();
        assert!(!want.is_empty() && want.len() < t.n_rows());
        let batches = n.div_ceil(100);
        for (cascaded, scorer_calls) in [(&[0, 1][..], 0), (&[0][..], n)] {
            let cascades = crate::compile::build_cascades(&cat, cascaded);
            assert_eq!(cascades.iter().flatten().count(), cascaded.len());
            let scorer = Scorer::with_cascades(&cat, cascades).with_label_maps([&expr]);
            let (mut calls, mut rows) = (0u64, Vec::new());
            {
                let mut after = || {
                    calls += 1;
                    Ok(())
                };
                let mut ctx = BatchCtx::new(t, &scorer, &mut after);
                let mut sel = Vec::new();
                for start in (0..t.n_rows() as RowId).step_by(100) {
                    let end = (start + 100).min(t.n_rows() as RowId);
                    pred.filter_range(start..end, &mut sel, &mut ctx, &mut rows).unwrap();
                }
            }
            assert_eq!(rows, want, "cascaded {cascaded:?}");
            assert_eq!(scorer.invocations(), scorer_calls);
            assert_eq!(calls, scorer_calls + batches);
            assert_eq!((scorer.cascade_accepts(), scorer.cascade_rejects()), (0, 0));
        }
    }
}
