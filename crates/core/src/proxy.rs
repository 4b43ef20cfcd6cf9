//! Proxy-score cascades for additive-score models.
//!
//! Naive Bayes, k-means and diagonal GMMs all assign a row to the class
//! maximizing a score of the form `prior_k + Σ_d f_k(d, x_d)` — a sum of
//! per-dimension contributions over the *discretized* row. Because every
//! dimension is a finite member domain, each contribution can be
//! tabulated once per `(dimension, member, class)` at model-registration
//! time. Evaluating the table reproduces the real scorer **bit-for-bit**
//! (the tables hold the exact `f64` terms the scorer computes, summed in
//! the same dimension order), so the proxy's argmax is *provably* the
//! scorer's prediction whenever the argmax is unique. Only score ties
//! (and NaN poisoning) are undecidable without the scorer's tie-break —
//! those rows form the *uncertainty band* and fall through to the real
//! scorer. That is the cascade: accept/reject decided by the proxy,
//! band rows by the model.

use mpq_models::{embed_member, Classifier, Gmm, KMeans, NaiveBayes};
use mpq_types::{ClassId, Member, Row, Schema};

/// Outcome of evaluating a [`ProxyScore`] on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyDecision {
    /// The proxy's argmax is unique: this *is* the model's prediction.
    Unique(ClassId),
    /// Tied (or NaN-poisoned) scores: the row is inside the uncertainty
    /// band and must be resolved by the real scorer.
    Band,
}

/// A tabulated argmax surrogate for one additive-score model: per-class
/// priors plus per-`(dimension, member, class)` score contributions.
/// Every model it is built from has at least one class.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyScore {
    /// Per-class constant term (`log Pr(k)`, `log τ_k`, or `0`).
    prior: Vec<f64>,
    /// Whether the scorer adds the prior before the dimension terms
    /// (naive Bayes) or after them (clusterers). Matching the scorer's
    /// accumulation order keeps the sums bit-identical.
    prior_first: bool,
    /// One flat `[member × class]` slice per dimension: the term of
    /// dimension `d`, member `m`, class `k` sits at index
    /// `m * n_classes + k` of dimension `d`'s slice, so the classes of
    /// one cell are adjacent and a column of members walks one
    /// allocation.
    contrib: Vec<Vec<f64>>,
}

/// Class counts up to this many score one row on the stack.
const STACK_CLASSES: usize = 16;

impl ProxyScore {
    /// Tabulates `term(d, m, k)` for every dimension of `schema`, every
    /// member of its domain and every class, in the flat layout.
    fn tabulate(
        schema: &Schema,
        prior: Vec<f64>,
        prior_first: bool,
        term: impl Fn(usize, Member, ClassId) -> f64,
    ) -> Self {
        let k_n = prior.len();
        let contrib = (0..schema.len())
            .map(|d| {
                (0..schema.attrs()[d].domain.cardinality())
                    .flat_map(|m| (0..k_n).map(move |k| (m, ClassId(k as u16))))
                    .map(|(m, k)| term(d, m, k))
                    .collect()
            })
            .collect();
        ProxyScore { prior, prior_first, contrib }
    }

    /// Tabulates the naive-Bayes log-posterior: `log_prior` first, then
    /// `log_cond[d][m][k]` in dimension order — exactly `log_score`.
    pub fn from_naive_bayes(nb: &NaiveBayes) -> Self {
        let prior = (0..nb.n_classes()).map(|k| nb.log_prior(ClassId(k as u16))).collect();
        Self::tabulate(Classifier::schema(nb), prior, true, |d, m, k| nb.log_cond(d, m, k))
    }

    /// Tabulates the k-means negated weighted distance through the same
    /// member embedding and per-dimension terms `predict` uses.
    pub fn from_kmeans(km: &KMeans) -> Self {
        let schema = Classifier::schema(km);
        Self::tabulate(schema, vec![0.0; km.n_classes()], false, |d, m, k| {
            km.dim_score(k, d, embed_member(schema, d, m))
        })
    }

    /// Tabulates the GMM log-likelihood terms; `log τ_k` is added after
    /// the dimension sum, exactly as `score_raw` does.
    pub fn from_gmm(g: &Gmm) -> Self {
        let schema = Classifier::schema(g);
        let prior = (0..g.n_classes()).map(|k| g.log_tau(ClassId(k as u16))).collect();
        Self::tabulate(schema, prior, false, |d, m, k| {
            g.dim_score(k, d, embed_member(schema, d, m))
        })
    }

    /// Number of classes the proxy scores.
    pub fn n_classes(&self) -> usize {
        self.prior.len()
    }

    /// Number of dimensions the proxy expects in a row.
    pub fn n_dims(&self) -> usize {
        self.contrib.len()
    }

    /// Member cardinality of dimension `d`.
    pub fn dim_cardinality(&self, d: usize) -> usize {
        self.contrib[d].len() / self.prior.len()
    }

    /// The one place the accumulation order is written. Fills `scores`
    /// (`n × n_classes`, row-major) with the score of every class of
    /// `n` rows, where `member(d, i)` is row `i`'s member in dimension
    /// `d`: dimension by dimension across all rows, so a batch reads
    /// each column once — and, per `(row, class)`, the prior and the
    /// dimension terms in exactly the scorer's order, so every sum is
    /// bit-identical to the scorer's whatever `n` is.
    fn accumulate(&self, scores: &mut [f64], member: impl Fn(usize, usize) -> Member) {
        let k_n = self.prior.len();
        for row in scores.chunks_exact_mut(k_n) {
            if self.prior_first {
                row.copy_from_slice(&self.prior);
            } else {
                row.fill(0.0);
            }
        }
        for (d, table) in self.contrib.iter().enumerate() {
            for (i, row) in scores.chunks_exact_mut(k_n).enumerate() {
                let at = member(d, i) as usize * k_n;
                for (s, term) in row.iter_mut().zip(&table[at..at + k_n]) {
                    *s += term;
                }
            }
        }
        if !self.prior_first {
            for row in scores.chunks_exact_mut(k_n) {
                for (s, p) in row.iter_mut().zip(&self.prior) {
                    *s += p;
                }
            }
        }
    }

    /// A unique argmax is the model's prediction; ties and NaNs go to
    /// the band. Sound by construction — the proxy never *guesses* on
    /// an ambiguous score.
    fn argmax(scores: &[f64]) -> ProxyDecision {
        if scores.iter().any(|s| s.is_nan()) {
            return ProxyDecision::Band;
        }
        let mut best = 0usize;
        let mut ties = 1u32;
        for (k, &s) in scores.iter().enumerate().skip(1) {
            if s > scores[best] {
                best = k;
                ties = 1;
            } else if s == scores[best] {
                ties += 1;
            }
        }
        if ties == 1 {
            ProxyDecision::Unique(ClassId(best as u16))
        } else {
            ProxyDecision::Band
        }
    }

    /// Evaluates the cascade on one encoded row.
    pub fn decide(&self, row: &Row) -> ProxyDecision {
        debug_assert_eq!(row.len(), self.contrib.len());
        let k_n = self.prior.len();
        let mut stack = [0.0f64; STACK_CLASSES];
        let mut heap = Vec::new();
        let scores = if k_n <= STACK_CLASSES {
            &mut stack[..k_n]
        } else {
            heap.resize(k_n, 0.0);
            &mut heap[..]
        };
        self.accumulate(scores, |d, _| row[d]);
        Self::argmax(scores)
    }

    /// Evaluates the cascade on `n` rows at once, column-at-a-time:
    /// `member(d, i)` is row `i`'s member in dimension `d`. Replaces the
    /// contents of `out` with one decision per row, each bit-for-bit the
    /// decision [`decide`] makes on that row; `scores` is the caller's
    /// reusable scratch.
    ///
    /// [`decide`]: ProxyScore::decide
    pub fn decide_batch(
        &self,
        n: usize,
        member: impl Fn(usize, usize) -> Member,
        scores: &mut Vec<f64>,
        out: &mut Vec<ProxyDecision>,
    ) {
        let k_n = self.prior.len();
        scores.resize(n * k_n, 0.0);
        self.accumulate(scores, member);
        out.clear();
        out.extend(scores.chunks_exact(k_n).map(Self::argmax));
    }

    /// Lifts the table into a schema with one extra dimension inserted
    /// at `at`, whose contribution is literal `0.0` for every member
    /// and class — the shape projected-model wrappers need: the ignored
    /// (label) column never affects the score. `s + 0.0` preserves the
    /// score's *value* at every accumulation step, and [`decide`]
    /// compares values, never bit patterns, so decisions on lifted rows
    /// equal the inner model's decisions on projected rows.
    ///
    /// [`decide`]: ProxyScore::decide
    pub fn with_zero_dim(&self, at: usize, cardinality: usize) -> ProxyScore {
        let mut contrib = self.contrib.clone();
        contrib.insert(at, vec![0.0; cardinality * self.n_classes()]);
        ProxyScore { prior: self.prior.clone(), prior_first: self.prior_first, contrib }
    }

    /// Fault-injection hook: deterministically corrupt one table entry
    /// so the stored proxy no longer matches a fresh rebuild. Used to
    /// prove the engine's cascade verification detects drift and falls
    /// back to the sound scorer path.
    pub fn perturb_for_fault(&mut self) {
        let first = self.contrib.iter_mut().find_map(|table| table.first_mut());
        if let Some(v) = first.or(self.prior.first_mut()) {
            *v = if *v == 0.25 { 0.5 } else { 0.25 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_types::{AttrDomain, Attribute};

    fn grid_schema(bins: usize) -> Schema {
        let cuts: Vec<f64> = (1..bins).map(|i| i as f64).collect();
        Schema::new(vec![
            Attribute::new("x", AttrDomain::binned(cuts.clone()).unwrap()),
            Attribute::new("y", AttrDomain::binned(cuts).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn naive_bayes_proxy_matches_predict_on_every_cell() {
        let nb = crate::paper_table1_model();
        let proxy = ProxyScore::from_naive_bayes(&nb);
        for m0 in 0..4u16 {
            for m1 in 0..3u16 {
                let row = [m0, m1];
                match proxy.decide(&row) {
                    ProxyDecision::Unique(c) => {
                        assert_eq!(c, nb.predict(&row), "cell {row:?}")
                    }
                    ProxyDecision::Band => {} // ties defer; always sound
                }
            }
        }
    }

    #[test]
    fn kmeans_proxy_matches_predict_on_every_cell() {
        let schema = grid_schema(6);
        let km = KMeans::from_parts(
            schema.clone(),
            vec![vec![1.0, 1.0], vec![5.0, 1.0], vec![3.0, 5.0]],
            vec![vec![1.0, 1.0]; 3],
        )
        .unwrap();
        let proxy = ProxyScore::from_kmeans(&km);
        let mut decided = 0;
        for m0 in 0..6u16 {
            for m1 in 0..6u16 {
                let row = [m0, m1];
                if let ProxyDecision::Unique(c) = proxy.decide(&row) {
                    assert_eq!(c, km.predict(&row), "cell {row:?}");
                    decided += 1;
                }
            }
        }
        assert!(decided > 30, "well-separated centroids must mostly decide");
    }

    #[test]
    fn gmm_proxy_matches_predict_on_every_cell() {
        let schema = grid_schema(5);
        let g = Gmm::from_parts(
            schema.clone(),
            vec![0.5, 0.5],
            vec![vec![1.0, 1.0], vec![4.0, 4.0]],
            vec![vec![0.8, 0.8], vec![1.2, 1.2]],
        )
        .unwrap();
        let proxy = ProxyScore::from_gmm(&g);
        for m0 in 0..5u16 {
            for m1 in 0..5u16 {
                let row = [m0, m1];
                if let ProxyDecision::Unique(c) = proxy.decide(&row) {
                    assert_eq!(c, g.predict(&row), "cell {row:?}");
                }
            }
        }
    }

    #[test]
    fn exact_score_ties_go_to_the_band() {
        // Two identical centroids tie on every cell: the proxy must
        // refuse to decide (the model's tie-break is its own business).
        let schema = grid_schema(4);
        let km = KMeans::from_parts(
            schema,
            vec![vec![2.0, 2.0], vec![2.0, 2.0]],
            vec![vec![1.0, 1.0]; 2],
        )
        .unwrap();
        let proxy = ProxyScore::from_kmeans(&km);
        for m0 in 0..4u16 {
            for m1 in 0..4u16 {
                assert_eq!(proxy.decide(&[m0, m1]), ProxyDecision::Band);
            }
        }
    }

    /// Every cell of the proxy's grid, in odometer order.
    fn all_cells(proxy: &ProxyScore) -> Vec<Vec<Member>> {
        let mut cells = vec![Vec::new()];
        for d in 0..proxy.n_dims() {
            cells = cells
                .into_iter()
                .flat_map(|c| {
                    (0..proxy.dim_cardinality(d) as Member).map(move |m| {
                        let mut c = c.clone();
                        c.push(m);
                        c
                    })
                })
                .collect();
        }
        cells
    }

    /// The batch entry point against `decide(row)` on every cell, as
    /// one batch and as ragged sub-batches over a reused scratch:
    /// decisions equal, and the scores behind them equal bit for bit.
    fn assert_batch_matches_decide(proxy: &ProxyScore) {
        let cells = all_cells(proxy);
        let k_n = proxy.n_classes();
        let want: Vec<ProxyDecision> = cells.iter().map(|c| proxy.decide(c)).collect();
        let (mut scores, mut got) = (Vec::new(), Vec::new());
        for batch in [cells.len(), 1, 7] {
            for (chunk, want) in cells.chunks(batch).zip(want.chunks(batch)) {
                proxy.decide_batch(chunk.len(), |d, i| chunk[i][d], &mut scores, &mut got);
                assert_eq!(got, want);
                for (cell, batch_scores) in chunk.iter().zip(scores.chunks_exact(k_n)) {
                    let mut one = vec![0.0; k_n];
                    proxy.accumulate(&mut one, |d, _| cell[d]);
                    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(batch_scores), bits(&one), "cell {cell:?}");
                }
            }
        }
        proxy.decide_batch(0, |_, _| unreachable!("no rows"), &mut scores, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn batch_decisions_equal_per_row_decisions_on_every_cell() {
        let nb = ProxyScore::from_naive_bayes(&crate::paper_table1_model());
        let km = ProxyScore::from_kmeans(
            &KMeans::from_parts(
                grid_schema(6),
                vec![vec![1.0, 1.0], vec![5.0, 1.0], vec![3.0, 5.0], vec![3.0, 5.0]],
                vec![vec![1.0, 1.0]; 4],
            )
            .unwrap(),
        );
        let gmm = ProxyScore::from_gmm(
            &Gmm::from_parts(
                grid_schema(5),
                vec![0.5, 0.5],
                vec![vec![1.0, 1.0], vec![4.0, 4.0]],
                vec![vec![0.8, 0.8], vec![1.2, 1.2]],
            )
            .unwrap(),
        );
        for proxy in [nb, km, gmm] {
            assert_batch_matches_decide(&proxy);
            // The projected-model shape: a zero dimension in front, in
            // the middle and at the end.
            for at in 0..=proxy.n_dims() {
                let lifted = proxy.with_zero_dim(at, 3);
                assert_eq!(lifted.n_dims(), proxy.n_dims() + 1);
                assert_eq!(lifted.dim_cardinality(at), 3);
                assert_batch_matches_decide(&lifted);
            }
            // One NaN term poisons exactly the cells that read it, in
            // both forms alike.
            let mut poisoned = proxy.clone();
            poisoned.contrib[1][proxy.n_classes()] = f64::NAN;
            assert_batch_matches_decide(&poisoned);
            let band: Vec<_> = all_cells(&poisoned)
                .into_iter()
                .filter(|c| c[1] == 1)
                .map(|c| poisoned.decide(&c))
                .collect();
            assert!(!band.is_empty() && band.iter().all(|d| *d == ProxyDecision::Band));
        }
    }

    #[test]
    fn perturbation_is_detectable_by_equality() {
        let nb = crate::paper_table1_model();
        let fresh = ProxyScore::from_naive_bayes(&nb);
        let mut stored = fresh.clone();
        assert_eq!(stored, fresh);
        stored.perturb_for_fault();
        assert_ne!(stored, fresh, "perturbation must be visible to verification");
    }
}
