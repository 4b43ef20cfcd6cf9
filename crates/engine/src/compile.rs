//! Model-to-predicate compilation: exact envelope compilation and proxy
//! cascade assembly.
//!
//! The paper derives *upper* envelopes — `predict = c ⇒ u_c` — so the
//! mining predicate must stay in the residual as the final filter. But
//! two situations let the engine go further and compile the model out of
//! the query entirely:
//!
//! 1. **Exact envelopes.** Tree and rule extraction (and often the
//!    top-down derivation on small grids) yields envelopes marked
//!    [`Envelope::exact`]: `u_c ⇔ predict = c`. An exact envelope *is*
//!    the mining predicate as a pure data-column DNF, so the rewrite can
//!    drop the mining conjunct — `model_invocations == 0` by
//!    construction ([`exactly_compiled`], consumed by
//!    `rewrite::augment`).
//! 2. **Proxy cascades.** Additive-score models (NB/k-means/GMM) carry
//!    a tabulated [`ProxyScore`] whose per-class sums reproduce the
//!    scorer bit-for-bit; a unique argmax decides the predicate without
//!    the scorer, and only tied rows (the *uncertainty band*) fall
//!    through ([`build_cascades`], consumed by the executors through
//!    `MemoScorer`).
//!
//! Both directions are verified defensively: exactness is a per-envelope
//! flag the derivation proves, and a cascade table is compared against a
//! fresh rebuild once per model version, when registration or retraining
//! builds it ([`verified_proxy`]); every execution then compares the
//! table it is about to trust with that verified one. A mismatch at
//! either point (e.g. the injected cascade-band fault) disables the
//! cascade for that model and records a typed health note, degrading to
//! the sound envelope+residual path instead of risking a wrong row set.

use crate::catalog::Catalog;
use crate::expr::{Expr, MiningPred, ModelId};
use crate::stats::TableStats;
use mpq_core::{EnvelopeProvider, ProxyDecision, ProxyScore};
use std::sync::Arc;

/// Whether `mp` can be compiled away entirely: every envelope the
/// rewrite would AND in is exact, so the envelope expression alone is
/// equivalent to the mining predicate.
///
/// `ModelsAgree` is never compiled: it always keeps the
/// envelope+residual form. Evaluation and envelope pair the two models'
/// classes the same way — by *label*, through
/// [`ModelOracle::class_for_class`](crate::ModelOracle::class_for_class)
/// and `rewrite::common_classes` — so a pairing whose envelopes are all
/// exact would be exact too; compiling that case is not done here.
pub(crate) fn exactly_compiled(mp: &MiningPred, catalog: &Catalog) -> bool {
    match mp {
        MiningPred::ClassEq { model, class } => {
            catalog.model(*model).envelopes[class.index()].exact
        }
        MiningPred::ClassIn { model, classes } => {
            let entry = catalog.model(*model);
            classes.iter().all(|c| entry.envelopes[c.index()].exact)
        }
        MiningPred::ModelsAgree { .. } => false,
        MiningPred::ClassEqColumn { model, column } => {
            // The rewrite expands `⋁_m (col = m ∧ u_class(m))` over the
            // column's members; members without a class label contribute
            // no arm and evaluate to FALSE either way. Exact iff every
            // *mapped* class envelope is exact.
            let entry = catalog.model(*model);
            let schema = entry.model.schema();
            let card = schema.attr(*column).domain.cardinality();
            (0..card).all(|m| {
                let label = schema.attr(*column).domain.member_label(m);
                match entry.model.class_by_name(&label) {
                    Some(c) => entry.envelopes[c.index()].exact,
                    None => true,
                }
            })
        }
    }
}

/// The mining models referenced by `before` that no longer appear in
/// `after` — i.e. the models the rewrite compiled out of the query.
/// Sorted and deduplicated for stable plan annotations.
pub(crate) fn compiled_out_models(before: &Expr, after: &Expr) -> Vec<ModelId> {
    let mut remaining: Vec<ModelId> =
        after.mining_preds().iter().flat_map(|mp| mp.models()).collect();
    remaining.sort_unstable();
    let mut out: Vec<ModelId> = before
        .mining_preds()
        .iter()
        .flat_map(|mp| mp.models())
        .filter(|m| remaining.binary_search(m).is_err())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The health note of a model whose proxy table failed verification.
fn failed_verification(name: &str) -> String {
    format!(
        "cascade disabled for model '{name}': stored proxy table failed \
         verification against a fresh rebuild; using the sound \
         envelope+residual scorer path"
    )
}

/// The proxy table registration (or retraining) stores for `model`,
/// checked once against a fresh rebuild: `(Some(table), None)` when the
/// two builds are equal, `(None, Some(note))` when they are not, and
/// `(None, None)` for a family without a proxy.
pub(crate) fn verified_proxy(
    model: &(dyn EnvelopeProvider + Send + Sync),
    name: &str,
) -> (Option<Arc<ProxyScore>>, Option<String>) {
    let Some(stored) = model.proxy() else { return (None, None) };
    if model.proxy().as_ref() == Some(&stored) {
        (Some(Arc::new(stored)), None)
    } else {
        (None, Some(failed_verification(name)))
    }
}

/// Builds the per-model cascade table for one execution: index = model
/// id, `Some(proxy)` = cascade verified and enabled.
///
/// Three gates apply, in order:
/// * **Scorer faults armed** → no cascades at all. An armed scorer
///   fault needs the real scorer path live to have a target, exactly
///   like index faults degrade to full scans.
/// * **Cascade-band fault armed** → the active table is a perturbed
///   copy of the stored one, modelling threshold drift.
/// * **Verification** — always on: the active table must be the
///   stored one, which [`verified_proxy`] checked against a fresh
///   rebuild when the model version was registered, or equal to it. A
///   mismatch disables the cascade for that model and records a health
///   note on the catalog entry; a pass clears the note. Nothing is
///   rebuilt per execution.
pub(crate) fn build_cascades(
    catalog: &Catalog,
    models: &[ModelId],
) -> Vec<Option<Arc<ProxyScore>>> {
    let mut out: Vec<Option<Arc<ProxyScore>>> = Vec::new();
    if catalog.faults().any_scorer_fault_armed() {
        return out;
    }
    for &model in models {
        let entry = catalog.model(model);
        let Some(verified) = entry.proxy.as_ref() else { continue };
        let active: Arc<ProxyScore> = if catalog.faults().cascade_band_perturb_armed() {
            let mut perturbed = (**verified).clone();
            perturbed.perturb_for_fault();
            Arc::new(perturbed)
        } else {
            Arc::clone(verified)
        };
        let mut note = entry.cascade_note.lock().unwrap_or_else(|e| e.into_inner());
        if Arc::ptr_eq(&active, verified) || *active == **verified {
            *note = None;
            if out.len() <= model {
                out.resize_with(model + 1, || None);
            }
            out[model] = Some(active);
        } else {
            *note = Some(failed_verification(&entry.name));
        }
    }
    out
}

/// Estimates the fraction of scanned rows that fall inside the proxy's
/// uncertainty band, by enumerating (or evenly striding, past 4096
/// cells) the attribute grid and weighting each cell by the per-column
/// member frequencies under the independence assumption the optimizer
/// already makes.
pub(crate) fn estimate_band_fraction(proxy: &ProxyScore, stats: &TableStats) -> f64 {
    const CELL_CAP: u128 = 4096;
    let dims: Vec<usize> = (0..proxy.n_dims()).map(|d| proxy.dim_cardinality(d)).collect();
    let total_cells = dims.iter().fold(1u128, |a, &c| a.saturating_mul(c as u128));
    if total_cells == 0 {
        return 0.0;
    }
    if total_cells > (1 << 40) {
        // A grid this size cannot be meaningfully strided; report the
        // conservative midpoint so costing does not assume a free ride.
        return 0.5;
    }
    let total_cells = total_cells as u64;
    let stride = total_cells.div_ceil(CELL_CAP as u64).max(1);
    let mut row = vec![0u16; dims.len()];
    let mut band_weight = 0.0f64;
    let mut total_weight = 0.0f64;
    let mut idx = 0u64;
    while idx < total_cells {
        let mut x = idx;
        for (d, &card) in dims.iter().enumerate() {
            row[d] = (x % card as u64) as u16;
            x /= card as u64;
        }
        let w: f64 =
            row.iter().enumerate().map(|(d, &m)| stats.column(d).eq_selectivity(m)).product();
        if w > 0.0 {
            total_weight += w;
            if proxy.decide(&row) == ProxyDecision::Band {
                band_weight += w;
            }
        }
        idx += stride;
    }
    if total_weight <= 0.0 {
        0.0
    } else {
        (band_weight / total_weight).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use mpq_core::{paper_table1_model, DeriveOptions};
    use mpq_models::Classifier as _;
    use mpq_types::{ClassId, Dataset};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup() -> (Catalog, ModelId) {
        let nb = paper_table1_model();
        let schema = nb.schema().clone();
        let mut cat = Catalog::new();
        let rows = (0..64u16).map(|i| vec![i % 4, (i / 4) % 3]);
        let ds = Dataset::from_rows(schema, rows).unwrap();
        cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        let id = cat.add_model("m", Arc::new(nb), DeriveOptions::default()).unwrap();
        (cat, id)
    }

    #[test]
    fn exactness_follows_the_envelope_flags() {
        let (cat, id) = setup();
        for k in 0..3u16 {
            let mp = MiningPred::ClassEq { model: id, class: ClassId(k) };
            assert_eq!(
                exactly_compiled(&mp, &cat),
                cat.model(id).envelopes[k as usize].exact,
                "class {k}"
            );
        }
        // ModelsAgree is never compiled.
        assert!(!exactly_compiled(&MiningPred::ModelsAgree { m1: id, m2: id }, &cat));
    }

    #[test]
    fn compiled_out_models_is_the_set_difference() {
        let before = Expr::and(vec![
            Expr::Mining(MiningPred::ClassEq { model: 0, class: ClassId(0) }),
            Expr::Mining(MiningPred::ClassEq { model: 1, class: ClassId(1) }),
        ]);
        let after = Expr::Mining(MiningPred::ClassEq { model: 1, class: ClassId(1) });
        assert_eq!(compiled_out_models(&before, &after), vec![0]);
        assert!(compiled_out_models(&before, &before).is_empty());
    }

    #[test]
    fn cascade_builds_and_verifies_for_additive_models() {
        let (cat, id) = setup();
        let cascades = build_cascades(&cat, &[id]);
        assert!(cascades.get(id).is_some_and(Option::is_some), "NB model must cascade");
        assert!(cat.model(id).cascade_note.lock().unwrap().is_none());
    }

    #[test]
    fn scorer_faults_disable_every_cascade() {
        let (cat, id) = setup();
        cat.faults().set_scorer_panic(true);
        assert!(build_cascades(&cat, &[id]).is_empty());
        cat.faults().reset();
    }

    #[test]
    fn perturbed_table_fails_verification_with_a_note() {
        let (cat, id) = setup();
        cat.faults().set_cascade_band_perturb(true);
        let cascades = build_cascades(&cat, &[id]);
        assert!(!cascades.get(id).is_some_and(Option::is_some), "perturbed cascade rejected");
        let note = cat.model(id).cascade_note.lock().unwrap().clone();
        assert!(note.is_some_and(|n| n.contains("failed")), "typed health note recorded");
        cat.faults().reset();
        // A clean rebuild re-enables the cascade and clears the note.
        let cascades = build_cascades(&cat, &[id]);
        assert!(cascades.get(id).is_some_and(Option::is_some));
        assert!(cat.model(id).cascade_note.lock().unwrap().is_none());
    }

    /// A naive Bayes counting its proxy-table builds; with `drift` set,
    /// every other build comes out different.
    struct Drifting {
        inner: mpq_models::NaiveBayes,
        drift: bool,
        builds: AtomicUsize,
    }

    impl Drifting {
        fn new(drift: bool) -> Arc<Drifting> {
            Arc::new(Drifting { inner: paper_table1_model(), drift, builds: AtomicUsize::new(0) })
        }

        fn builds(&self) -> usize {
            self.builds.load(Ordering::Relaxed)
        }
    }

    impl mpq_models::Classifier for Drifting {
        fn schema(&self) -> &mpq_types::Schema {
            self.inner.schema()
        }
        fn n_classes(&self) -> usize {
            self.inner.n_classes()
        }
        fn class_name(&self, c: ClassId) -> &str {
            self.inner.class_name(c)
        }
        fn predict(&self, row: &mpq_types::Row) -> ClassId {
            self.inner.predict(row)
        }
    }

    impl EnvelopeProvider for Drifting {
        fn envelope(&self, class: ClassId, opts: &DeriveOptions) -> mpq_core::Envelope {
            self.inner.envelope(class, opts)
        }
        fn proxy(&self) -> Option<ProxyScore> {
            let n = self.builds.fetch_add(1, Ordering::Relaxed);
            let mut table = ProxyScore::from_naive_bayes(&self.inner);
            if self.drift && n % 2 == 1 {
                table.perturb_for_fault();
            }
            Some(table)
        }
    }

    /// A table is built and checked against a rebuild when a model
    /// version is registered, and never rebuilt by an execution: a model
    /// whose two builds differ registers with no cascade and a note that
    /// executions leave in place; retrained with one whose builds agree,
    /// it cascades, and assembling its cascade any number of times builds
    /// nothing.
    #[test]
    fn verification_happens_once_per_model_version() {
        let (mut cat, _) = setup();
        let drifting = Drifting::new(true);
        let id =
            cat.add_model("drift", Arc::clone(&drifting) as _, DeriveOptions::default()).unwrap();
        assert_eq!(drifting.builds(), 2, "a build and a check at registration");
        assert!(cat.model(id).proxy.is_none());
        for _ in 0..3 {
            assert!(!build_cascades(&cat, &[id]).get(id).is_some_and(Option::is_some));
            let note = cat.model(id).cascade_note.lock().unwrap().clone();
            assert!(note.is_some_and(|n| n.contains("failed verification")));
        }
        assert_eq!(drifting.builds(), 2);

        let steady = Drifting::new(false);
        cat.retrain_model(id, Arc::clone(&steady) as _).unwrap();
        assert_eq!(steady.builds(), 2, "a build and a check at retrain");
        assert!(cat.model(id).cascade_note.lock().unwrap().is_none());
        for _ in 0..3 {
            assert!(build_cascades(&cat, &[id]).get(id).is_some_and(Option::is_some));
        }
        assert_eq!(steady.builds(), 2, "no execution rebuilds the table");
    }

    #[test]
    fn band_fraction_is_a_sane_probability() {
        let (cat, id) = setup();
        let proxy = cat.model(id).model.proxy().unwrap();
        let frac = estimate_band_fraction(&proxy, &cat.table(0).stats);
        assert!((0.0..=1.0).contains(&frac), "got {frac}");
    }
}
