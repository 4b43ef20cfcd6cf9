//! The subscription matcher.
//!
//! Every registered subscription's predicate is rewritten against the
//! live catalog (envelopes + optional exact compilation, exactly the
//! pipeline queries go through) and then *over-approximated* as a
//! bounded DNF of member-set clauses — a disjunction of conjunctions of
//! `column ∈ mask` tests. Mining predicates that survive the rewrite
//! become TRUE in the guard (the guard is a necessary condition only),
//! so the guard never rules out a row the full predicate would accept.
//!
//! The guard runs through the query kernels. Every subscription's
//! clauses on a table, in registration order, form one [`BoxTable`],
//! with `owner[j]` the subscription clause `j` came from; an `INSERT`'s
//! rows take one column-at-a-time pass through it, and a row's
//! candidates are the owners of the set bits of its disjunct bitset.
//! Each candidate subscription's rewritten predicate, compiled once at
//! build into a [`CompiledPredicate`], then runs over its candidate rows
//! as one selection, cascades included, through the shared scorer.
//! Because candidates always run the full predicate, the guard is pure
//! pruning: disabling it (the `sub_index_corrupt` fault) changes cost,
//! never the match set.

use std::ops::Range;

use mpq_types::{AttrId, MemberSet};

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{Atom, AtomPred, Expr, ModelId};
use crate::rewrite::rewrite_mining_opts;
use crate::table::{RowId, Table};
use crate::vectorized::{BatchCtx, BoxTable, CompiledPredicate, Ids, Scorer};

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
    /// Always 0: a proxy cascade decides every row, so no evaluation
    /// falls through a cascade to the real scorer. Kept for the wire
    /// format and existing readers.
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
    /// The rewritten predicate — what candidates actually evaluate.
    program: CompiledPredicate,
}

#[derive(Default)]
struct TableSubs {
    subs: Vec<CompiledSub>,
    /// Every subscription's guard clauses as boxes, in registration
    /// order; `None` when no subscription has a clause.
    guard: Option<BoxTable>,
    /// `owner[j]`: the slot in `subs` whose guard contributed clause
    /// `j`. Ascending, so one subscription's clauses are contiguous.
    owner: Vec<u32>,
    /// Every model referenced by any subscription on this table, for
    /// sizing the shared scorer's cascades.
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

/// Every registered subscription, compiled: per table one guard box
/// table and one program per subscription.
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
        let mut boxes: Vec<Vec<Expr>> = vec![Vec::new(); catalog.n_tables()];
        for sub in catalog.subscriptions() {
            let schema = catalog.table(sub.table).table.schema();
            let rewritten = rewrite_mining_opts(sub.predicate.clone(), schema, catalog, compile);
            let ts = &mut tables[sub.table];
            let slot = ts.subs.len() as u32;
            for clause in guard_dnf(&rewritten, &schema.cardinalities()) {
                let atom = |(attr, set)| Expr::Atom(Atom { attr, pred: AtomPred::In(set) });
                boxes[sub.table].push(Expr::And(clause.atoms.into_iter().map(atom).collect()));
                ts.owner.push(slot);
            }
            for mp in rewritten.mining_preds() {
                for m in mp.models() {
                    if !ts.models.contains(&m) {
                        ts.models.push(m);
                    }
                }
            }
            let program = CompiledPredicate::compile(&rewritten, schema, false);
            ts.subs.push(CompiledSub { id: sub.id, program });
        }
        for (tid, (ts, boxes)) in tables.iter_mut().zip(&boxes).enumerate() {
            ts.guard = BoxTable::build(boxes, catalog.table(tid).table.schema());
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

    /// Matches the rows `rows` of `t`, catalog table `table`, against
    /// every subscription on it. Returns the `(row, subscription id)`
    /// hits in delivery order — by row, then by id, which is
    /// registration order — and each row's metrics. `naive` bypasses
    /// the guard and makes every subscription a candidate for every row
    /// — the degraded path for the index-corruption fault, identical
    /// match set by construction.
    pub(crate) fn match_rows(
        &self,
        table: usize,
        t: &Table,
        rows: Range<RowId>,
        scorer: &Scorer<'_>,
        naive: bool,
    ) -> (Vec<(RowId, u64)>, Vec<MatchMetrics>) {
        let Some(ts) = self.tables.get(table) else {
            return (Vec::new(), Vec::new());
        };
        let n = ts.subs.len() as u64;
        let mut per_row = vec![if naive { n } else { 0 }; rows.len()];
        // `(slot, row)` candidate pairs.
        let mut candidates: Vec<(u32, RowId)> = Vec::new();
        if naive {
            candidates.extend((0..n as u32).flat_map(|s| rows.clone().map(move |r| (s, r))));
        } else if let Some(guard) = &ts.guard {
            let mut acc = Vec::new();
            guard.and_columns(t, Ids::Run { start: rows.start, end: rows.end }, &[], &mut acc);
            for (i, bits) in acc.chunks_exact(ts.owner.len().div_ceil(64)).enumerate() {
                let mut last = None;
                for (w, &word) in bits.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let j = w * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        // Bits at and past the clause count are set only
                        // when no clause constrains a column.
                        let Some(&o) = ts.owner.get(j) else { break };
                        if last != Some(o) {
                            last = Some(o);
                            candidates.push((o, rows.start + i as RowId));
                            per_row[i] += 1;
                        }
                    }
                }
            }
            candidates.sort_unstable();
        }
        let mut no_hook = || Ok::<(), EngineError>(());
        let mut ctx = BatchCtx::new(t, scorer, &mut no_hook);
        let (mut sel, mut pass, mut hits) = (Vec::new(), Vec::new(), Vec::new());
        for group in candidates.chunk_by(|a, b| a.0 == b.0) {
            let sub = &ts.subs[group[0].0 as usize];
            sel.clear();
            sel.extend(group.iter().map(|&(_, r)| r));
            pass.clear();
            let filtered = sub.program.filter_batch(&mut sel, &mut ctx, &mut pass);
            filtered.expect("the no-op hook never fails");
            hits.extend(pass.iter().map(|&r| (r, sub.id)));
        }
        hits.sort_unstable();
        let metrics = per_row
            .into_iter()
            .map(|c| MatchMetrics { index_pruned: n - c, residual_evaluated: c, scorer_banded: 0 })
            .collect();
        (hits, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::build_cascades;
    use crate::sql::{self, ModelAlgorithm};
    use mpq_core::DeriveOptions;
    use mpq_types::{AttrDomain, Attribute, Member, Row, Schema};

    /// Table `people` (0) holds every storable row once, in
    /// [`all_rows`] order. A naive-Bayes model `nb` predicting `active`
    /// is trained on `people_train` (1), where `active` follows `tier`.
    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Attribute::new("region", AttrDomain::categorical(["EU", "US", "APAC"])),
            Attribute::new("tier", AttrDomain::categorical(["free", "pro", "max"])),
            Attribute::new("active", AttrDomain::categorical(["no", "yes"])),
        ])
        .unwrap();
        let train = (0..36u16).map(|i| vec![i % 3, i / 3 % 3, u16::from(i / 3 % 3 == 1 || i == 0)]);
        let mut cat = Catalog::default();
        for (name, rows) in [("people", all_rows()), ("people_train", train.collect())] {
            let data = mpq_types::Dataset::from_rows(schema.clone(), rows).unwrap();
            cat.add_table(Table::from_dataset(name, &data)).unwrap();
        }
        let (label, nb) = (Some(AttrId(2)), ModelAlgorithm::NaiveBayes);
        crate::ddl::create_model(&mut cat, "nb", 1, label, None, nb, DeriveOptions::default())
            .unwrap();
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

    /// Matches every row of `people` through the guard and naively,
    /// asserts that both legs deliver the same hits and that the naive
    /// one prunes nothing, and returns the guarded leg's hits and
    /// metrics and the rows the proxy cascades decided.
    fn match_people(cat: &Catalog, compile: bool) -> (Vec<(RowId, u64)>, Vec<MatchMetrics>, u64) {
        let idx = SubIndex::build(cat, compile);
        let scorer = Scorer::with_cascades(cat, build_cascades(cat, idx.models(0)));
        let t = &cat.table(0).table;
        let (hits, metrics) = idx.match_rows(0, t, 0..18, &scorer, false);
        let (naive_hits, naive_metrics) = idx.match_rows(0, t, 0..18, &scorer, true);
        assert_eq!(hits, naive_hits);
        let n = idx.n_subs(0) as u64;
        for (m, nm) in metrics.iter().zip(&naive_metrics) {
            assert_eq!(m.index_pruned + m.residual_evaluated, n);
            assert_eq!((nm.index_pruned, nm.residual_evaluated), (0, n));
        }
        (hits, metrics, scorer.cascade_accepts() + scorer.cascade_rejects())
    }

    #[test]
    fn index_and_naive_agree_on_every_row() {
        let q = |w: &str| format!("SELECT * FROM people{w}");
        let sets: Vec<Vec<String>> = vec![
            vec![
                q(" WHERE region = 'EU'"),
                q(" WHERE region = 'EU' AND tier = 'pro'"),
                q(" WHERE tier = 'free' OR active = 'yes'"),
                q(" WHERE NOT region = 'US'"),
                q(" WHERE region IN ('US', 'APAC')"),
            ],
            // Only always-clauses: no column is constrained, so the
            // disjunct bitsets stay all-ones past the clause count.
            vec![q(""), q(" WHERE region IN ('EU', 'US', 'APAC')"), q("")],
            // An unsatisfiable subscription contributes no clause.
            vec![q(" WHERE tier = 'max'"), q(" WHERE region = 'EU' AND region = 'US'"), q("")],
            // 80 clauses: two-word bitsets.
            (0..40)
                .map(|i| match i % 2 {
                    0 => q(" WHERE tier = 'free' OR active = 'yes'"),
                    _ => q(" WHERE region = 'US' OR tier = 'max'"),
                })
                .collect(),
            // A cascaded model: a `Scalar` leaf the proxy decides.
            vec![q(" WHERE PREDICT(nb) = 'yes'"), q(" WHERE region = 'EU' AND PREDICT(nb) = 'no'")],
        ];
        for (k, set) in sets.iter().enumerate() {
            let mut cat = catalog();
            for sql_text in set {
                subscribe(&mut cat, sql_text);
            }
            let schema = cat.table(0).table.schema();
            for compile in [false, true] {
                let (hits, metrics, cascaded) = match_people(&cat, compile);
                // Each row's candidates, straight from the clauses, and
                // its matches, from the unrewritten predicates.
                let subs: Vec<_> = cat.subscriptions().collect();
                let guards: Vec<Vec<Clause>> = subs
                    .iter()
                    .map(|s| {
                        let p = rewrite_mining_opts(s.predicate.clone(), schema, &cat, compile);
                        guard_dnf(&p, &schema.cardinalities())
                    })
                    .collect();
                let mut expected = Vec::new();
                for (r, row) in all_rows().iter().enumerate() {
                    let admits =
                        |c: &Clause| c.atoms.iter().all(|(a, s)| s.contains(row[a.index()]));
                    let n = guards.iter().filter(|g| g.iter().any(admits)).count() as u64;
                    assert_eq!(metrics[r].residual_evaluated, n, "set {k} row {r}");
                    for s in &subs {
                        if s.predicate.eval(row, &cat, &mut 0) {
                            expected.push((r as RowId, s.id));
                        }
                    }
                }
                assert_eq!(hits, expected, "set {k} compile {compile}");
                if k == sets.len() - 1 && !compile {
                    assert!(cascaded > 0, "the proxy cascade decided no row");
                }
            }
        }
    }

    #[test]
    fn index_prunes_non_candidates() {
        let mut cat = catalog();
        for _ in 0..10 {
            subscribe(&mut cat, "SELECT * FROM people WHERE region = 'EU'");
        }
        let (hits, metrics, _) = match_people(&cat, true);
        // A US row is pruned by every subscription without evaluation.
        let us = all_rows().iter().position(|r| r[0] == 1).unwrap();
        assert_eq!(metrics[us].index_pruned, 10);
        assert_eq!(metrics[us].residual_evaluated, 0);
        assert!(hits.iter().all(|&(r, _)| all_rows()[r as usize][0] == 0));
        // Identical predicates are not shared: one clause each.
        let idx = SubIndex::build(&cat, true);
        assert_eq!(idx.tables[0].owner, (0..10).collect::<Vec<u32>>());
        assert!(idx.tables[0].guard.is_some());
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
        let (hits, _, _) = match_people(&cat, true);
        let only_tautology: Vec<(RowId, u64)> = (0..18).map(|r| (r, 2)).collect();
        assert_eq!(hits, only_tautology, "only the tautology matches");
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
