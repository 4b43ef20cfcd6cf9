//! The inverted subscription index.
//!
//! Every registered subscription's predicate is rewritten against the
//! live catalog (envelopes + optional exact compilation, exactly the
//! pipeline queries go through) and then *over-approximated* as a
//! bounded DNF of member-set clauses — a disjunction of conjunctions of
//! `column ∈ mask` tests. Mining predicates that survive the rewrite
//! become TRUE in the guard (the guard is a necessary condition only),
//! so the guard never rules out a row the full predicate would accept.
//!
//! Clauses are deduplicated structurally across subscriptions — ten
//! thousand subscribers to `PREDICT(m) = 'churn'` share one clause
//! group — and each group is anchored on its most selective atom: the
//! group is posted under every member of that atom's mask, in a
//! per-(column, member) postings table. Matching a row probes one
//! postings list per column, verifies the few candidate groups' other
//! atoms, and only then evaluates the candidates' *full* rewritten
//! predicates through a shared memo scorer. Because candidates always
//! run the full predicate, the index is pure pruning: disabling it (the
//! `sub_index_corrupt` fault) changes cost, never the match set.

use std::collections::{BTreeSet, HashMap};

use mpq_types::{AttrId, Member, MemberSet, Row};

/// Structural identity of a guard clause — its atoms as sorted
/// `(column, members)` pairs — used to share clause groups across
/// subscriptions.
type ClauseKey = Vec<(u16, Vec<Member>)>;

use crate::catalog::Catalog;
use crate::expr::{Expr, ModelId};
use crate::rewrite::rewrite_mining_opts;
use crate::vectorized::MemoScorer;

/// Per-row match accounting, reported in `Notify` frames and summed
/// into the insert's `subs_*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchMetrics {
    /// Subscriptions on the row's table that the inverted index ruled
    /// out without evaluating their predicate at all.
    pub index_pruned: u64,
    /// Candidate subscriptions whose full rewritten predicate was
    /// evaluated against the row.
    pub residual_evaluated: u64,
    /// Proxy-score uncertainty-band hits during candidate evaluation —
    /// evaluations that had to fall through a cascade to the real
    /// scorer (or its memo).
    pub scorer_banded: u64,
}

/// Cap on the number of guard clauses one subscription may contribute.
/// Predicates whose DNF would blow past this collapse to an
/// always-check clause — still sound, just unindexed.
const CLAUSE_CAP: usize = 64;

/// One conjunction of member-set tests, atoms sorted by column.
#[derive(Debug, Clone)]
struct Clause {
    atoms: Vec<(AttrId, MemberSet)>,
}

impl Clause {
    fn always() -> Clause {
        Clause { atoms: Vec::new() }
    }

    /// Conjunction of two clauses: per-column mask intersection.
    /// `None` when some column's intersection is empty (the combined
    /// clause is unsatisfiable).
    fn intersect(&self, other: &Clause) -> Option<Clause> {
        let mut atoms = self.atoms.clone();
        for (attr, set) in &other.atoms {
            match atoms.binary_search_by_key(&attr.0, |(a, _)| a.0) {
                Ok(i) => {
                    atoms[i].1.intersect_with(set);
                    if atoms[i].1.is_empty() {
                        return None;
                    }
                }
                Err(i) => atoms.insert(i, (*attr, set.clone())),
            }
        }
        Some(Clause { atoms })
    }
}

/// Extracts a sound over-approximating guard DNF from a rewritten
/// predicate: `expr ⇒ OR(clauses)` over every storable row. An empty
/// result means `expr` is unsatisfiable over storable rows; a clause
/// with no atoms is TRUE (always a candidate).
fn guard_dnf(expr: &Expr, cards: &[u16]) -> Vec<Clause> {
    match expr {
        Expr::Const(true) => vec![Clause::always()],
        Expr::Const(false) => Vec::new(),
        // Residual mining predicates are opaque to the guard.
        Expr::Mining(_) => vec![Clause::always()],
        Expr::Not(inner) => match &**inner {
            Expr::Atom(a) => {
                let card = cards[a.attr.index()];
                atom_clause(a.attr, a.pred.member_set(card).complement())
            }
            _ => vec![Clause::always()],
        },
        Expr::Atom(a) => {
            let card = cards[a.attr.index()];
            atom_clause(a.attr, a.pred.member_set(card))
        }
        Expr::Or(parts) => {
            let mut out = Vec::new();
            for p in parts {
                out.extend(guard_dnf(p, cards));
                if out.len() > CLAUSE_CAP {
                    return vec![Clause::always()];
                }
            }
            out
        }
        Expr::And(parts) => {
            // Each conjunct's DNF over-approximates the whole
            // conjunction on its own, so the product may stop early
            // (keeping what it has) when it would blow past the cap.
            let mut children: Vec<Vec<Clause>> = Vec::with_capacity(parts.len());
            for p in parts {
                let d = guard_dnf(p, cards);
                if d.is_empty() {
                    return Vec::new();
                }
                children.push(d);
            }
            children.sort_by_key(Vec::len);
            let mut acc = vec![Clause::always()];
            for d in children {
                if acc.len().saturating_mul(d.len()) > CLAUSE_CAP {
                    break;
                }
                let mut next = Vec::new();
                for a in &acc {
                    for b in &d {
                        if let Some(c) = a.intersect(b) {
                            next.push(c);
                        }
                    }
                }
                if next.is_empty() {
                    // No pair of disjuncts is jointly satisfiable, so
                    // the conjunction itself is unsatisfiable.
                    return Vec::new();
                }
                acc = next;
            }
            acc
        }
    }
}

fn atom_clause(attr: AttrId, set: MemberSet) -> Vec<Clause> {
    if set.is_empty() {
        Vec::new()
    } else if set.is_full() {
        vec![Clause::always()]
    } else {
        vec![Clause { atoms: vec![(attr, set)] }]
    }
}

/// One subscription, compiled against the catalog state the index was
/// built from.
struct CompiledSub {
    id: u64,
    /// Full rewritten predicate — what candidates actually evaluate.
    rewritten: Expr,
    /// Static verification cost: surviving mining predicates dominate
    /// (each weighs as much as a thousand plain nodes), then expression
    /// size. Candidates verify cheapest-first so model-free
    /// subscriptions populate the shared memo's row state before any
    /// model-invoking one runs.
    cost: u64,
    /// No mining predicate survived the rewrite: evaluation never
    /// touches a model. (Read by test assertions; production code gets
    /// the same guarantee for free from `Expr::eval` on a model-free
    /// expression.)
    #[cfg_attr(not(test), allow(dead_code))]
    exact: bool,
}

/// A deduplicated guard clause shared by every subscription that
/// contributed it.
struct ClauseGroup {
    atoms: Vec<(AttrId, MemberSet)>,
    /// Index into `atoms` of the anchor (most selective) atom, or
    /// `None` for the TRUE clause.
    anchor: Option<usize>,
    /// Slots into [`TableSubs::subs`].
    subs: Vec<u32>,
}

impl ClauseGroup {
    fn matches(&self, row: &Row) -> bool {
        self.atoms.iter().all(|(attr, set)| set.contains(row[attr.index()]))
    }
}

#[derive(Default)]
struct TableSubs {
    subs: Vec<CompiledSub>,
    groups: Vec<ClauseGroup>,
    /// `postings[col][member]` → ids of groups anchored on `(col,
    /// mask)` with `member ∈ mask`.
    postings: Vec<Vec<Vec<u32>>>,
    /// Groups with no anchor: checked against every row.
    always: Vec<u32>,
    /// Every model referenced by any subscription on this table, for
    /// sizing the shared memo scorer's cascades.
    models: Vec<ModelId>,
}

/// Identity of the catalog state a [`SubIndex`] was compiled from. The
/// engine rebuilds the cached index whenever this key changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IndexKey {
    generation: u64,
    model_versions: Vec<u64>,
    compile: bool,
}

impl IndexKey {
    pub(crate) fn current(catalog: &Catalog, compile: bool) -> IndexKey {
        IndexKey {
            generation: catalog.subs_generation(),
            model_versions: (0..catalog.n_models()).map(|m| catalog.model(m).version).collect(),
            compile,
        }
    }
}

/// The inverted index over every registered subscription.
pub(crate) struct SubIndex {
    tables: Vec<TableSubs>,
    key: IndexKey,
}

impl SubIndex {
    /// Compiles every registered subscription against the live catalog.
    pub(crate) fn build(catalog: &Catalog, compile: bool) -> SubIndex {
        let key = IndexKey::current(catalog, compile);
        let mut tables: Vec<TableSubs> = Vec::new();
        tables.resize_with(catalog.n_tables(), TableSubs::default);
        let mut dedup: Vec<HashMap<ClauseKey, u32>> = vec![HashMap::new(); catalog.n_tables()];
        for sub in catalog.subscriptions() {
            let schema = catalog.table(sub.table).table.schema();
            let cards = schema.cardinalities();
            let rewritten = rewrite_mining_opts(sub.predicate.clone(), schema, catalog, compile);
            let exact = !rewritten.has_mining();
            let clauses = guard_dnf(&rewritten, &cards);
            let ts = &mut tables[sub.table];
            let slot = ts.subs.len() as u32;
            for mp in rewritten.mining_preds() {
                for m in mp.models() {
                    if !ts.models.contains(&m) {
                        ts.models.push(m);
                    }
                }
            }
            let mut nodes = 0u64;
            let mut mining = 0u64;
            rewritten.walk(&mut |e| {
                nodes += 1;
                if matches!(e, Expr::Mining(_)) {
                    mining += 1;
                }
            });
            let cost = mining * 1_000 + nodes;
            ts.subs.push(CompiledSub { id: sub.id, rewritten, cost, exact });
            for clause in clauses {
                let key: ClauseKey = clause
                    .atoms
                    .iter()
                    .map(|(a, s)| (a.0, s.iter().collect()))
                    .collect();
                match dedup[sub.table].get(&key) {
                    Some(&g) => {
                        let subs = &mut ts.groups[g as usize].subs;
                        if subs.last() != Some(&slot) {
                            subs.push(slot);
                        }
                    }
                    None => {
                        let g = ts.groups.len() as u32;
                        dedup[sub.table].insert(key, g);
                        let anchor = clause
                            .atoms
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, (_, s))| s.len())
                            .map(|(i, _)| i);
                        ts.groups.push(ClauseGroup {
                            atoms: clause.atoms,
                            anchor,
                            subs: vec![slot],
                        });
                    }
                }
            }
        }
        // Post every group under each member of its anchor mask.
        for (tid, ts) in tables.iter_mut().enumerate() {
            let cards = catalog.table(tid).table.schema().cardinalities();
            ts.postings = cards.iter().map(|&c| vec![Vec::new(); c as usize]).collect();
            for (g, group) in ts.groups.iter().enumerate() {
                match group.anchor {
                    Some(i) => {
                        let (attr, ref set) = group.atoms[i];
                        for m in set.iter() {
                            ts.postings[attr.index()][m as usize].push(g as u32);
                        }
                    }
                    None => ts.always.push(g as u32),
                }
            }
        }
        SubIndex { tables, key }
    }

    /// The catalog-state key this index was built from.
    pub(crate) fn key(&self) -> &IndexKey {
        &self.key
    }

    /// Number of registered subscriptions watching `table`.
    pub(crate) fn n_subs(&self, table: usize) -> usize {
        self.tables.get(table).map_or(0, |t| t.subs.len())
    }

    /// Every model any subscription on `table` references (for cascade
    /// construction).
    pub(crate) fn models(&self, table: usize) -> &[ModelId] {
        self.tables.get(table).map_or(&[], |t| &t.models)
    }

    /// True when some subscription on `table` evaluates without ever
    /// invoking a model (exactly compiled).
    #[cfg(test)]
    fn any_exact(&self, table: usize) -> bool {
        self.tables.get(table).is_some_and(|t| t.subs.iter().any(|s| s.exact))
    }

    /// Matches one inserted row against every subscription on its
    /// table. Returns the matching subscription ids (ascending slot
    /// order — registration order) plus per-row metrics. `naive`
    /// bypasses the index and evaluates every subscription's full
    /// predicate — the degraded path for the index-corruption fault,
    /// identical match set by construction.
    pub(crate) fn match_row(
        &self,
        table: usize,
        row: &Row,
        memo: &MemoScorer<'_>,
        naive: bool,
    ) -> (Vec<u64>, MatchMetrics) {
        let Some(ts) = self.tables.get(table) else {
            return (Vec::new(), MatchMetrics::default());
        };
        let n = ts.subs.len();
        if n == 0 {
            return (Vec::new(), MatchMetrics::default());
        }
        let mut candidates: BTreeSet<u32> = BTreeSet::new();
        if naive {
            candidates.extend(0..n as u32);
        } else {
            for &g in &ts.always {
                candidates.extend(ts.groups[g as usize].subs.iter().copied());
            }
            for (col, &m) in row.iter().enumerate() {
                let Some(per) = ts.postings.get(col) else { continue };
                let Some(list) = per.get(m as usize) else { continue };
                for &g in list {
                    let group = &ts.groups[g as usize];
                    if group.matches(row) {
                        candidates.extend(group.subs.iter().copied());
                    }
                }
            }
        }
        let banded0 = memo.band_rows();
        // Verify cheapest-first: model-free candidates run before any
        // model-invoking one, warming the shared memo's row entry at
        // the lowest possible price. The counters below only depend on
        // the candidate *set*, and the match list re-sorts, so the
        // order is pure cost — deterministic at any dop.
        let mut ordered: Vec<u32> = candidates.iter().copied().collect();
        ordered.sort_by_key(|&slot| (ts.subs[slot as usize].cost, slot));
        let mut matched = Vec::new();
        let mut invocations = 0u64;
        for &slot in &ordered {
            let sub = &ts.subs[slot as usize];
            if sub.rewritten.eval(row, memo, &mut invocations) {
                matched.push(sub.id);
            }
        }
        // Ids are assigned in registration (slot) order, so ascending
        // ids restores the documented registration-order contract.
        matched.sort_unstable();
        let metrics = MatchMetrics {
            index_pruned: n as u64 - candidates.len() as u64,
            residual_evaluated: candidates.len() as u64,
            scorer_banded: memo.band_rows().saturating_sub(banded0),
        };
        (matched, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::build_cascades;
    use crate::sql;
    use crate::table::Table;
    use mpq_types::{AttrDomain, Attribute, Schema};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Attribute::new("region", AttrDomain::categorical(["EU", "US", "APAC"])),
            Attribute::new("tier", AttrDomain::categorical(["free", "pro", "max"])),
            Attribute::new("active", AttrDomain::categorical(["no", "yes"])),
        ])
        .unwrap();
        let mut cat = Catalog::default();
        let data = mpq_types::Dataset::new(schema);
        cat.add_table(Table::from_dataset("people", &data)).unwrap();
        cat
    }

    fn subscribe(cat: &mut Catalog, sql_text: &str) -> u64 {
        let q = sql::parse(sql_text, cat).unwrap();
        let id = cat.next_subscription_id();
        cat.add_subscription(id, sql_text.to_string(), q).unwrap();
        id
    }

    fn all_rows() -> Vec<Vec<Member>> {
        let mut out = Vec::new();
        for a in 0..3u16 {
            for b in 0..3u16 {
                for c in 0..2u16 {
                    out.push(vec![a, b, c]);
                }
            }
        }
        out
    }

    #[test]
    fn index_and_naive_agree_on_every_row() {
        let mut cat = catalog();
        subscribe(&mut cat, "SELECT * FROM people WHERE region = 'EU'");
        subscribe(&mut cat, "SELECT * FROM people WHERE region = 'EU' AND tier = 'pro'");
        subscribe(&mut cat, "SELECT * FROM people WHERE tier = 'free' OR active = 'yes'");
        subscribe(&mut cat, "SELECT * FROM people WHERE NOT region = 'US'");
        subscribe(&mut cat, "SELECT * FROM people WHERE region IN ('US', 'APAC')");
        let idx = SubIndex::build(&cat, true);
        let memo = MemoScorer::with_cascades(&cat, 1024, build_cascades(&cat, &[]));
        for row in all_rows() {
            let (fast, fm) = idx.match_row(0, &row, &memo, false);
            let (slow, sm) = idx.match_row(0, &row, &memo, true);
            assert_eq!(fast, slow, "row {row:?}");
            assert_eq!(fm.index_pruned + fm.residual_evaluated, 5);
            assert_eq!(sm.index_pruned, 0);
            assert_eq!(sm.residual_evaluated, 5);
        }
    }

    #[test]
    fn index_prunes_non_candidates() {
        let mut cat = catalog();
        for _ in 0..10 {
            subscribe(&mut cat, "SELECT * FROM people WHERE region = 'EU'");
        }
        let idx = SubIndex::build(&cat, true);
        let memo = MemoScorer::with_cascades(&cat, 1024, build_cascades(&cat, &[]));
        // A US row is pruned by every group without any evaluation.
        let (matched, m) = idx.match_row(0, &[1, 0, 0], &memo, false);
        assert!(matched.is_empty());
        assert_eq!(m.index_pruned, 10);
        assert_eq!(m.residual_evaluated, 0);
        // Identical predicates share one clause group.
        assert_eq!(idx.tables[0].groups.len(), 1);
        assert_eq!(idx.tables[0].groups[0].subs.len(), 10);
        assert!(idx.any_exact(0));
    }

    #[test]
    fn unsatisfiable_and_always_clauses() {
        let mut cat = catalog();
        // Contradictory conjunction: no clause, never a candidate.
        subscribe(&mut cat, "SELECT * FROM people WHERE region = 'EU' AND region = 'US'");
        // Tautology-shaped: full-mask atom collapses to an always clause.
        subscribe(
            &mut cat,
            "SELECT * FROM people WHERE region IN ('EU', 'US', 'APAC')",
        );
        let idx = SubIndex::build(&cat, true);
        let memo = MemoScorer::with_cascades(&cat, 1024, build_cascades(&cat, &[]));
        for row in all_rows() {
            let (fast, _) = idx.match_row(0, &row, &memo, false);
            let (slow, _) = idx.match_row(0, &row, &memo, true);
            assert_eq!(fast, slow, "row {row:?}");
            assert_eq!(fast, vec![2], "only the tautology matches");
        }
    }

    #[test]
    fn guard_dnf_is_a_necessary_condition() {
        // Over every storable row, expr true ⇒ some guard clause true.
        let cat = catalog();
        let cards = vec![3u16, 3, 2];
        let texts = [
            "SELECT * FROM people WHERE region = 'EU' OR (tier = 'pro' AND active = 'yes')",
            "SELECT * FROM people WHERE NOT (region = 'EU' AND tier = 'free')",
            "SELECT * FROM people WHERE region IN ('EU', 'US') AND NOT tier = 'max'",
        ];
        struct NoModels;
        impl crate::expr::ModelOracle for NoModels {
            fn predict(&self, _: ModelId, _: &Row) -> mpq_types::ClassId {
                unreachable!("no mining predicates in these tests")
            }
            fn class_for_member(
                &self,
                _: ModelId,
                _: AttrId,
                _: Member,
            ) -> Option<mpq_types::ClassId> {
                None
            }
            fn class_for_class(
                &self,
                _: ModelId,
                _: mpq_types::ClassId,
                _: ModelId,
            ) -> Option<mpq_types::ClassId> {
                None
            }
        }
        for t in texts {
            let q = sql::parse(t, &cat).unwrap();
            let clauses = guard_dnf(&q.predicate, &cards);
            for row in all_rows() {
                let mut inv = 0;
                if q.predicate.eval(&row, &NoModels, &mut inv) {
                    assert!(
                        clauses.iter().any(|c| {
                            c.atoms.iter().all(|(a, s)| s.contains(row[a.index()]))
                        }),
                        "guard dropped a matching row: {t} / {row:?}"
                    );
                }
            }
        }
    }
}
