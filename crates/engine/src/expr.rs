//! Predicate expressions, including mining predicates.
//!
//! Ordinary atoms live in *member space* (encoded values); mining
//! predicates reference catalog models and come in the four §4.1 shapes:
//! `PREDICT(M) = c`, `PREDICT(M) IN (...)`, `PREDICT(M1) = PREDICT(M2)`
//! and `PREDICT(M) = column`. The optimizer rewrites mining predicates by
//! ANDing in their upper envelopes; the executor evaluates whatever
//! mining predicates remain by invoking the model (black-box), counting
//! each invocation.

use mpq_types::{AttrId, ClassId, Member, MemberSet, Row, Schema};

/// Identifier of a mining model in the catalog.
pub type ModelId = usize;

/// Comparison of one column against constants, in member space.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomPred {
    /// `col = m`.
    Eq(Member),
    /// `lo <= col <= hi` (member order; meaningful on ordered domains).
    Range {
        /// Lowest matching member.
        lo: Member,
        /// Highest matching member.
        hi: Member,
    },
    /// `col IN (...)`.
    In(MemberSet),
}

impl AtomPred {
    /// Whether member `m` satisfies the predicate.
    #[inline]
    pub fn matches(&self, m: Member) -> bool {
        match self {
            AtomPred::Eq(v) => m == *v,
            AtomPred::Range { lo, hi } => *lo <= m && m <= *hi,
            AtomPred::In(s) => s.contains(m),
        }
    }

    /// The exact set of matching members over a domain of `card`
    /// members — the bitset form the vectorized executor tests
    /// column-at-a-time. Out-of-domain bounds clamp to the domain, so
    /// the set agrees with [`AtomPred::matches`] on every storable
    /// member.
    pub fn member_set(&self, card: u16) -> MemberSet {
        match self {
            AtomPred::In(s) => s.clone(),
            AtomPred::Eq(v) if *v < card => MemberSet::of(card, [*v]),
            AtomPred::Range { lo, hi } if *lo < card && lo <= hi => {
                MemberSet::range(card, *lo, (*hi).min(card - 1))
            }
            _ => MemberSet::empty(card),
        }
    }

    /// Calls `f` with each matching member below `card`, ascending —
    /// [`AtomPred::member_set`] without building the set.
    pub(crate) fn for_each_member(&self, card: u16, mut f: impl FnMut(Member)) {
        match self {
            AtomPred::Eq(v) => {
                if *v < card {
                    f(*v)
                }
            }
            AtomPred::Range { lo, hi } => {
                if card > 0 {
                    (*lo..=(*hi).min(card - 1)).for_each(f)
                }
            }
            AtomPred::In(s) => s.iter().take_while(|&m| m < card).for_each(f),
        }
    }
}

/// A column atom.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Column tested.
    pub attr: AttrId,
    /// The member-space predicate.
    pub pred: AtomPred,
}

/// The mining predicates of §4.1.
#[derive(Debug, Clone, PartialEq)]
pub enum MiningPred {
    /// `PREDICT(model) = class`.
    ClassEq {
        /// The model.
        model: ModelId,
        /// The class label.
        class: ClassId,
    },
    /// `PREDICT(model) IN (classes)`.
    ClassIn {
        /// The model.
        model: ModelId,
        /// Matching class labels.
        classes: Vec<ClassId>,
    },
    /// `PREDICT(m1) = PREDICT(m2)` — two models concur.
    ModelsAgree {
        /// First model.
        m1: ModelId,
        /// Second model.
        m2: ModelId,
    },
    /// `PREDICT(model) = column` — prediction matches a data column
    /// (cross-validation-style queries).
    ClassEqColumn {
        /// The model.
        model: ModelId,
        /// The data column compared against.
        column: AttrId,
    },
}

impl MiningPred {
    /// Models referenced by this predicate.
    pub fn models(&self) -> Vec<ModelId> {
        match self {
            MiningPred::ClassEq { model, .. }
            | MiningPred::ClassIn { model, .. }
            | MiningPred::ClassEqColumn { model, .. } => vec![*model],
            MiningPred::ModelsAgree { m1, m2 } => vec![*m1, *m2],
        }
    }
}

/// A boolean predicate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Constant truth value.
    Const(bool),
    /// A column atom.
    Atom(Atom),
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// A mining predicate.
    Mining(MiningPred),
}

/// How the executor resolves model predictions while evaluating an
/// expression. Implemented by the catalog.
pub trait ModelOracle {
    /// Predicts the class of `row` under `model`, counting an invocation.
    fn predict(&self, model: ModelId, row: &Row) -> ClassId;
    /// Maps member `m` of `column` to the model's class with the same
    /// label, if any (for `PREDICT(M) = column`).
    fn class_for_member(&self, model: ModelId, column: AttrId, m: Member) -> Option<ClassId>;
    /// Maps class `class` of model `from` to the class of model `to`
    /// with the same label, if any (for `PREDICT(M1) = PREDICT(M2)`:
    /// class ids are per-model, so labels are what must agree).
    fn class_for_class(&self, from: ModelId, class: ClassId, to: ModelId) -> Option<ClassId>;
    /// Evaluates `predict(model, row) ∈ accept`: set membership of the
    /// model's prediction. The default scores the row. The executor's
    /// oracle decides it with the model's `ProxyScore` cascade instead,
    /// where the model has one — the proxy's decision is the scorer's
    /// on every row, ties included — counting each row as a cascade
    /// accept or reject, and scores only models without a proxy. Every
    /// mining predicate routes through this set form.
    fn predict_in(&self, model: ModelId, row: &Row, accept: &[ClassId]) -> bool {
        accept.contains(&self.predict(model, row))
    }
}

impl Expr {
    /// Builds a conjunction, flattening trivial cases.
    pub fn and(mut parts: Vec<Expr>) -> Expr {
        match parts.len() {
            0 => Expr::Const(true),
            1 => parts.pop().expect("len checked"),
            _ => Expr::And(parts),
        }
    }

    /// Builds a disjunction, flattening trivial cases.
    pub fn or(mut parts: Vec<Expr>) -> Expr {
        match parts.len() {
            0 => Expr::Const(false),
            1 => parts.pop().expect("len checked"),
            _ => Expr::Or(parts),
        }
    }

    /// Evaluates the expression on an encoded row. `invocations` counts
    /// black-box model applications (the metric the paper's baseline
    /// "extract and mine" pays per row).
    pub fn eval(&self, row: &Row, oracle: &impl ModelOracle, invocations: &mut u64) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Atom(a) => a.pred.matches(row[a.attr.index()]),
            Expr::And(parts) => parts.iter().all(|p| p.eval(row, oracle, invocations)),
            Expr::Or(parts) => parts.iter().any(|p| p.eval(row, oracle, invocations)),
            Expr::Not(inner) => !inner.eval(row, oracle, invocations),
            Expr::Mining(mp) => match mp {
                MiningPred::ClassEq { model, class } => {
                    *invocations += 1;
                    oracle.predict_in(*model, row, std::slice::from_ref(class))
                }
                MiningPred::ClassIn { model, classes } => {
                    *invocations += 1;
                    oracle.predict_in(*model, row, classes)
                }
                MiningPred::ModelsAgree { m1, m2 } => {
                    *invocations += 2;
                    // Predicted *labels* must agree (class ids are
                    // per-model). Both models are always asked, `m1`
                    // first.
                    let c1 = oracle.predict(*m1, row);
                    let c2 = oracle.predict(*m2, row);
                    oracle.class_for_class(*m1, c1, *m2) == Some(c2)
                }
                MiningPred::ClassEqColumn { model, column } => {
                    *invocations += 1;
                    match oracle.class_for_member(*model, *column, row[column.index()]) {
                        Some(c) => oracle.predict_in(*model, row, std::slice::from_ref(&c)),
                        // No class carries this member's label: the
                        // equality cannot hold, but the row is still
                        // scored (an empty accept set) so invocation
                        // side effects don't silently vanish.
                        None => oracle.predict_in(*model, row, &[]),
                    }
                }
            },
        }
    }

    /// True if any mining predicate occurs in the expression.
    pub fn has_mining(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Atom(_) => false,
            Expr::And(ps) | Expr::Or(ps) => ps.iter().any(Expr::has_mining),
            Expr::Not(p) => p.has_mining(),
            Expr::Mining(_) => true,
        }
    }

    /// Collects every mining predicate (for envelope lookup and plan
    /// invalidation tracking).
    pub fn mining_preds(&self) -> Vec<&MiningPred> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Mining(mp) = e {
                out.push(mp);
            }
        });
        out
    }

    pub(crate) fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::And(ps) | Expr::Or(ps) => ps.iter().for_each(|p| p.walk(f)),
            Expr::Not(p) => p.walk(f),
            _ => {}
        }
    }

    /// Normalizes: flattens nested AND/OR, folds constants, pushes NOT
    /// down to atoms (complementing them in member space) and eliminates
    /// double negation. NOT over mining predicates is preserved (they are
    /// residual-evaluated).
    pub fn normalize(self, schema: &Schema) -> Expr {
        match self {
            Expr::Const(_) | Expr::Atom(_) | Expr::Mining(_) => self,
            Expr::And(parts) => {
                let mut out: Vec<Expr> = Vec::new();
                for p in parts {
                    match p.normalize(schema) {
                        Expr::Const(false) => return Expr::Const(false),
                        Expr::Const(true) => {}
                        Expr::And(inner) => {
                            for i in inner {
                                if !out.contains(&i) {
                                    out.push(i);
                                }
                            }
                        }
                        other => {
                            // Duplicate conjuncts arise from repeated
                            // envelope augmentation; keeping them once
                            // makes the §4.2 rewrite loop idempotent.
                            if !out.contains(&other) {
                                out.push(other);
                            }
                        }
                    }
                }
                // Expensive predicates last (predicate migration,
                // Hellerstein & Stonebraker — cited by the paper): under
                // short-circuit AND evaluation, cheap column predicates —
                // including derived envelopes — reject rows before any
                // model is invoked. Stable sort keeps relative order.
                out.sort_by_key(|e| usize::from(e.has_mining()));
                Expr::and(out)
            }
            Expr::Or(parts) => {
                let mut out: Vec<Expr> = Vec::new();
                for p in parts {
                    match p.normalize(schema) {
                        Expr::Const(true) => return Expr::Const(true),
                        Expr::Const(false) => {}
                        Expr::Or(inner) => {
                            for i in inner {
                                // Quadratic dedup is only worth it on
                                // small disjunctions; envelope ORs can
                                // carry thousands of (already distinct)
                                // disjuncts.
                                if out.len() > 128 || !out.contains(&i) {
                                    out.push(i);
                                }
                            }
                        }
                        other => {
                            if out.len() > 128 || !out.contains(&other) {
                                out.push(other);
                            }
                        }
                    }
                }
                Expr::or(out)
            }
            Expr::Not(inner) => match inner.normalize(schema) {
                Expr::Const(b) => Expr::Const(!b),
                Expr::Not(e) => *e,
                Expr::Atom(a) => complement_atom(schema, &a),
                Expr::And(ps) => {
                    Expr::or(ps.into_iter().map(|p| Expr::Not(Box::new(p)).normalize(schema)).collect())
                }
                Expr::Or(ps) => {
                    Expr::and(ps.into_iter().map(|p| Expr::Not(Box::new(p)).normalize(schema)).collect())
                }
                other @ Expr::Mining(_) => Expr::Not(Box::new(other)),
            },
        }
    }
}

/// The complement of an atom, in member space.
fn complement_atom(schema: &Schema, atom: &Atom) -> Expr {
    let card = schema.attr(atom.attr).domain.cardinality();
    match &atom.pred {
        AtomPred::Eq(m) => {
            let mut s = MemberSet::full(card);
            s.remove(*m);
            atom_or_const(atom.attr, s)
        }
        AtomPred::Range { lo, hi } => {
            let mut parts = Vec::new();
            if *lo > 0 {
                parts.push(Expr::Atom(Atom {
                    attr: atom.attr,
                    pred: AtomPred::Range { lo: 0, hi: lo - 1 },
                }));
            }
            if *hi + 1 < card {
                parts.push(Expr::Atom(Atom {
                    attr: atom.attr,
                    pred: AtomPred::Range { lo: hi + 1, hi: card - 1 },
                }));
            }
            Expr::or(parts)
        }
        AtomPred::In(s) => atom_or_const(atom.attr, s.complement()),
    }
}

fn atom_or_const(attr: AttrId, s: MemberSet) -> Expr {
    if s.is_empty() {
        Expr::Const(false)
    } else if s.is_full() {
        Expr::Const(true)
    } else if s.len() == 1 {
        // Canonical form: single members print and compare as equality,
        // which also makes double negation a syntactic identity.
        Expr::Atom(Atom { attr, pred: AtomPred::Eq(s.min().expect("nonempty")) })
    } else {
        Expr::Atom(Atom { attr, pred: AtomPred::In(s) })
    }
}

/// Converts an envelope region into a conjunction of atoms over the data
/// columns (the `u_f` of §4.2, in expression form).
pub fn region_to_expr(schema: &Schema, region: &mpq_core::Region) -> Expr {
    use mpq_core::DimSet;
    let mut conj = Vec::new();
    for (id, attr) in schema.iter() {
        let ds = region.dim(id.index());
        let card = attr.domain.cardinality();
        if ds.is_full(card) {
            continue;
        }
        let pred = match ds {
            DimSet::Range { lo, hi } => {
                if lo == hi {
                    AtomPred::Eq(*lo)
                } else {
                    AtomPred::Range { lo: *lo, hi: *hi }
                }
            }
            DimSet::Set(s) => {
                if s.len() == 1 {
                    AtomPred::Eq(s.min().expect("nonempty"))
                } else {
                    AtomPred::In(s.clone())
                }
            }
        };
        conj.push(Expr::Atom(Atom { attr: id, pred }));
    }
    Expr::and(conj)
}

/// Converts a whole envelope into a disjunction of region conjunctions.
pub fn envelope_to_expr(schema: &Schema, env: &mpq_core::Envelope) -> Expr {
    Expr::or(env.regions.iter().map(|r| region_to_expr(schema, r)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_types::{AttrDomain, Attribute};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("a", AttrDomain::binned(vec![1.0, 2.0, 3.0]).unwrap()), // 4 members
            Attribute::new("b", AttrDomain::categorical(["x", "y", "z"])),
        ])
        .unwrap()
    }

    struct NoModels;
    impl ModelOracle for NoModels {
        fn predict(&self, _: ModelId, _: &Row) -> ClassId {
            unreachable!("no mining predicates in these tests")
        }
        fn class_for_member(&self, _: ModelId, _: AttrId, _: Member) -> Option<ClassId> {
            None
        }
        fn class_for_class(&self, _: ModelId, _: ClassId, _: ModelId) -> Option<ClassId> {
            None
        }
    }

    fn eval(e: &Expr, row: &[Member]) -> bool {
        let mut inv = 0;
        e.eval(row, &NoModels, &mut inv)
    }

    #[test]
    fn atom_semantics() {
        assert!(AtomPred::Eq(2).matches(2) && !AtomPred::Eq(2).matches(1));
        assert!(AtomPred::Range { lo: 1, hi: 2 }.matches(2));
        assert!(!AtomPred::Range { lo: 1, hi: 2 }.matches(3));
        assert!(AtomPred::In(MemberSet::of(4, [0, 3])).matches(3));
    }

    #[test]
    fn member_set_agrees_with_matches() {
        let preds = [
            AtomPred::Eq(2),
            AtomPred::Eq(9), // out of domain
            AtomPred::Range { lo: 1, hi: 2 },
            AtomPred::Range { lo: 2, hi: 9 }, // clamped
            AtomPred::Range { lo: 5, hi: 9 }, // fully out of domain
            AtomPred::In(MemberSet::of(4, [0, 3])),
        ];
        for p in &preds {
            let s = p.member_set(4);
            for m in 0..4u16 {
                assert_eq!(s.contains(m), p.matches(m), "{p:?} member {m}");
            }
            let mut visited = Vec::new();
            p.for_each_member(4, |m| visited.push(m));
            assert_eq!(visited, s.iter().collect::<Vec<_>>(), "{p:?}");
        }
    }

    #[test]
    fn and_or_evaluation() {
        let e = Expr::and(vec![
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 1, hi: 3 } }),
            Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(0) }),
        ]);
        assert!(eval(&e, &[2, 0]));
        assert!(!eval(&e, &[0, 0]));
        assert!(!eval(&e, &[2, 1]));
        let o = Expr::or(vec![e, Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(2) })]);
        assert!(eval(&o, &[0, 2]));
    }

    #[test]
    fn normalize_folds_constants_and_flattens() {
        let s = schema();
        let e = Expr::And(vec![
            Expr::Const(true),
            Expr::And(vec![
                Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) }),
                Expr::Const(true),
            ]),
        ]);
        let n = e.normalize(&s);
        assert_eq!(n, Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) }));
        let f = Expr::And(vec![Expr::Const(false), Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) })]);
        assert_eq!(f.normalize(&s), Expr::Const(false));
        let t = Expr::Or(vec![Expr::Const(true), Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(1) })]);
        assert_eq!(t.normalize(&s), Expr::Const(true));
    }

    #[test]
    fn normalize_pushes_not_to_atoms() {
        let s = schema();
        // NOT (a in [1..2]) -> a in [0..0] OR a in [3..3]
        let e = Expr::Not(Box::new(Expr::Atom(Atom {
            attr: AttrId(0),
            pred: AtomPred::Range { lo: 1, hi: 2 },
        })))
        .normalize(&s);
        for m in 0..4u16 {
            assert_eq!(eval(&e, &[m, 0]), !(1..=2).contains(&m), "member {m}");
        }
        // NOT (b = 'y') -> b IN {x, z}
        let e = Expr::Not(Box::new(Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(1) })))
            .normalize(&s);
        assert_eq!(
            e,
            Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::In(MemberSet::of(3, [0, 2])) })
        );
    }

    #[test]
    fn normalize_de_morgan() {
        let s = schema();
        let a = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) });
        let b = Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(1) });
        let e = Expr::Not(Box::new(Expr::And(vec![a, b]))).normalize(&s);
        // Result is an OR of complements; verify semantics row-wise.
        for m0 in 0..4u16 {
            for m1 in 0..3u16 {
                assert_eq!(eval(&e, &[m0, m1]), !(m0 == 0 && m1 == 1));
            }
        }
    }

    #[test]
    fn double_negation_cancels() {
        let s = schema();
        let a = Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(2) });
        let e = Expr::Not(Box::new(Expr::Not(Box::new(a.clone())))).normalize(&s);
        assert_eq!(e, a);
    }

    #[test]
    fn mining_detection_and_collection() {
        let mp = MiningPred::ClassEq { model: 0, class: ClassId(1) };
        let e = Expr::and(vec![
            Expr::Mining(mp.clone()),
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) }),
        ]);
        assert!(e.has_mining());
        assert_eq!(e.mining_preds(), vec![&mp]);
        assert!(!Expr::Const(true).has_mining());
        assert_eq!(MiningPred::ModelsAgree { m1: 3, m2: 5 }.models(), vec![3, 5]);
    }

    #[test]
    fn envelope_conversion_produces_matching_expr() {
        let s = schema();
        let region = mpq_core::Region::full(&s)
            .with_dim(0, mpq_core::DimSet::Range { lo: 1, hi: 2 })
            .with_dim(1, mpq_core::DimSet::Set(MemberSet::of(3, [0, 2])));
        let env = mpq_core::Envelope {
            class: ClassId(0),
            regions: vec![region.clone()],
            exact: true,
            stats: mpq_core::DeriveStats::default(),
            trace: Vec::new(),
        };
        let e = envelope_to_expr(&s, &env);
        for m0 in 0..4u16 {
            for m1 in 0..3u16 {
                assert_eq!(eval(&e, &[m0, m1]), region.contains(&[m0, m1]));
            }
        }
        // Empty envelope -> FALSE.
        let never = mpq_core::Envelope::never(ClassId(0));
        assert_eq!(envelope_to_expr(&s, &never), Expr::Const(false));
    }
}
