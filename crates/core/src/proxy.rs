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
    /// The dimensions the sums read, ascending: all of them but those
    /// [`ProxyScore::with_zero_dim`] inserted, whose terms are `+0.0`.
    live: Vec<usize>,
}

/// Class counts past the monomorphised ones, up to this many, score a
/// row on the stack.
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
        ProxyScore { prior, prior_first, contrib, live: (0..schema.len()).collect() }
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

    /// The one place the accumulation order is written: leaves in
    /// `sums` (one per class) the scores of the row whose member in
    /// dimension `d` is `member(d)` — the prior and the dimension terms
    /// in exactly the scorer's order, so every sum is bit-identical to
    /// the scorer's. Both entry points inline it per row; given an
    /// array, the class count is a constant and the sums stay in
    /// registers.
    ///
    /// The dimensions [`with_zero_dim`] inserted are skipped, which is
    /// what the inner model's scorer does (it never sees them) and what
    /// adding their terms would do: adding `+0.0` to a sum that is
    /// never `−0.0` changes no bit, and a sum here never is — it starts
    /// at `+0.0` or at a log prior, and a round-to-nearest sum is `−0.0`
    /// only when both addends are.
    ///
    /// [`with_zero_dim`]: ProxyScore::with_zero_dim
    #[inline(always)]
    fn accumulate(&self, sums: &mut [f64], member: impl Fn(usize) -> Member) {
        let k_n = sums.len();
        if self.prior_first {
            sums.copy_from_slice(&self.prior);
        } else {
            sums.fill(0.0);
        }
        for &d in &self.live {
            let at = member(d) as usize * k_n;
            for (s, term) in sums.iter_mut().zip(&self.contrib[d][at..at + k_n]) {
                *s += term;
            }
        }
        if !self.prior_first {
            for (s, p) in sums.iter_mut().zip(&self.prior) {
                *s += p;
            }
        }
    }

    /// A unique argmax is the model's prediction; ties and NaNs go to
    /// the band. Sound by construction — the proxy never *guesses* on
    /// an ambiguous score. Branch-free: the running maximum, its class
    /// and its tie count are selected, not branched to, so a row costs
    /// the same whichever class wins.
    #[inline(always)]
    fn argmax(sums: &[f64]) -> ProxyDecision {
        let (mut top, mut best, mut ties) = (sums[0], 0usize, 1u32);
        let mut nan = top.is_nan();
        for (k, &s) in sums.iter().enumerate().skip(1) {
            nan |= s.is_nan();
            let above = s > top;
            ties = if above { 1 } else { ties + u32::from(s == top) };
            best = if above { k } else { best };
            top = if above { s } else { top };
        }
        if nan || ties != 1 {
            ProxyDecision::Band
        } else {
            ProxyDecision::Unique(ClassId(best as u16))
        }
    }

    /// The row kernel for a class count known at compile time: row
    /// `i`'s `K` sums live in registers while its members — one read
    /// per live dimension, `member(d, i)` — are added in.
    #[inline(always)]
    fn decide_rows<const K: usize>(
        &self,
        member: impl Fn(usize, usize) -> Member,
        out: &mut [ProxyDecision],
    ) {
        for (i, slot) in out.iter_mut().enumerate() {
            let mut sums = [0.0f64; K];
            self.accumulate(&mut sums, |d| member(d, i));
            *slot = Self::argmax(&sums);
        }
    }

    /// The row kernel for any other class count: the same sums in the
    /// caller's buffer of one slot per class.
    fn decide_rows_generic(
        &self,
        member: impl Fn(usize, usize) -> Member,
        sums: &mut [f64],
        out: &mut [ProxyDecision],
    ) {
        for (i, slot) in out.iter_mut().enumerate() {
            self.accumulate(sums, |d| member(d, i));
            *slot = Self::argmax(sums);
        }
    }

    /// Decides rows `0..out.len()` into `out`: monomorphised for one to
    /// eight classes, on the stack up to [`STACK_CLASSES`], in
    /// `scratch` past that.
    fn decide_into(
        &self,
        member: impl Fn(usize, usize) -> Member,
        scratch: &mut Vec<f64>,
        out: &mut [ProxyDecision],
    ) {
        match self.n_classes() {
            1 => self.decide_rows::<1>(member, out),
            2 => self.decide_rows::<2>(member, out),
            3 => self.decide_rows::<3>(member, out),
            4 => self.decide_rows::<4>(member, out),
            5 => self.decide_rows::<5>(member, out),
            6 => self.decide_rows::<6>(member, out),
            7 => self.decide_rows::<7>(member, out),
            8 => self.decide_rows::<8>(member, out),
            k_n => {
                let mut stack = [0.0f64; STACK_CLASSES];
                let sums = if k_n <= STACK_CLASSES {
                    &mut stack[..k_n]
                } else {
                    scratch.resize(k_n, 0.0);
                    &mut scratch[..]
                };
                self.decide_rows_generic(member, sums, out)
            }
        }
    }

    /// Evaluates the cascade on one encoded row.
    pub fn decide(&self, row: &Row) -> ProxyDecision {
        debug_assert_eq!(row.len(), self.contrib.len());
        let mut out = [ProxyDecision::Band];
        self.decide_into(|d, _| row[d], &mut Vec::new(), &mut out);
        out[0]
    }

    /// Evaluates the cascade on `n` rows at once: `member(d, i)` is row
    /// `i`'s member in dimension `d`, read once per row and live
    /// dimension. Replaces the contents of `out` with one decision per
    /// row, each bit-for-bit the decision [`decide`] makes on that row
    /// (both run one kernel); `scratch` holds the sums of class counts
    /// past 16, so a reused one makes the call allocation-free.
    ///
    /// [`decide`]: ProxyScore::decide
    pub fn decide_batch(
        &self,
        n: usize,
        member: impl Fn(usize, usize) -> Member,
        scratch: &mut Vec<f64>,
        out: &mut Vec<ProxyDecision>,
    ) {
        out.clear();
        out.resize(n, ProxyDecision::Band);
        self.decide_into(member, scratch, out);
    }

    /// Lifts the table into a schema with one extra dimension inserted
    /// at `at`, whose contribution is literal `0.0` for every member
    /// and class — the shape projected-model wrappers need: the ignored
    /// (label) column never affects the score. The sums skip the
    /// inserted dimension (see [`accumulate`]), so decisions on lifted
    /// rows are the inner model's decisions on projected rows, bit for
    /// bit.
    ///
    /// [`accumulate`]: ProxyScore::accumulate
    pub fn with_zero_dim(&self, at: usize, cardinality: usize) -> ProxyScore {
        let mut contrib = self.contrib.clone();
        contrib.insert(at, vec![0.0; cardinality * self.n_classes()]);
        let live = self.live.iter().map(|&d| if d < at { d } else { d + 1 }).collect();
        ProxyScore { prior: self.prior.clone(), prior_first: self.prior_first, contrib, live }
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

    /// Row `cell`'s scores with no kernel involved: per class, the
    /// prior and every dimension's term — zero dimensions included — in
    /// the scorer's order.
    fn reference_sums(proxy: &ProxyScore, cell: &[Member]) -> Vec<f64> {
        let k_n = proxy.n_classes();
        (0..k_n)
            .map(|k| {
                let mut s = if proxy.prior_first { proxy.prior[k] } else { 0.0 };
                for (d, table) in proxy.contrib.iter().enumerate() {
                    s += table[cell[d] as usize * k_n + k];
                }
                if !proxy.prior_first {
                    s += proxy.prior[k];
                }
                s
            })
            .collect()
    }

    /// The argmax rule written the plain way: any NaN is band, else the
    /// first maximum, band when another class equals it.
    fn reference_decision(sums: &[f64]) -> ProxyDecision {
        if sums.iter().any(|s| s.is_nan()) {
            return ProxyDecision::Band;
        }
        let top = sums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut winners = (0..sums.len()).filter(|&k| sums[k] == top);
        match (winners.next(), winners.next()) {
            (Some(k), None) => ProxyDecision::Unique(ClassId(k as u16)),
            _ => ProxyDecision::Band,
        }
    }

    /// Equal values, NaN equal to NaN.
    fn same_values(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y || (x.is_nan() && y.is_nan()))
    }

    /// The specialised kernel for `K` classes: its decisions on `cells`
    /// and the register sums behind them.
    fn fixed_kernel<const K: usize>(
        proxy: &ProxyScore,
        cells: &[Vec<Member>],
    ) -> (Vec<ProxyDecision>, Vec<Vec<f64>>) {
        let mut out = vec![ProxyDecision::Band; cells.len()];
        proxy.decide_rows::<K>(|d, i| cells[i][d], &mut out);
        let sums = cells
            .iter()
            .map(|c| {
                let mut sums = [0.0f64; K];
                proxy.accumulate(&mut sums, |d| c[d]);
                sums.to_vec()
            })
            .collect();
        (out, sums)
    }

    /// Both instantiations of the row kernel against the plain rule on
    /// every cell — decision and score value — and `decide_batch`
    /// against `decide` as one batch and as ragged sub-batches over a
    /// reused scratch.
    fn assert_kernels_match_reference(proxy: &ProxyScore) {
        let cells = all_cells(proxy);
        let k_n = proxy.n_classes();
        let want_sums: Vec<Vec<f64>> = cells.iter().map(|c| reference_sums(proxy, c)).collect();
        let want: Vec<ProxyDecision> = want_sums.iter().map(|s| reference_decision(s)).collect();

        let mut generic = vec![ProxyDecision::Band; cells.len()];
        proxy.decide_rows_generic(|d, i| cells[i][d], &mut vec![0.0; k_n], &mut generic);
        assert_eq!(generic, want, "generic kernel, {k_n} classes");
        for (cell, want_sums) in cells.iter().zip(&want_sums) {
            let mut sums = vec![0.0; k_n];
            proxy.accumulate(&mut sums, |d| cell[d]);
            assert!(same_values(&sums, want_sums), "generic sums, cell {cell:?}");
        }
        let fixed = match k_n {
            1 => Some(fixed_kernel::<1>(proxy, &cells)),
            2 => Some(fixed_kernel::<2>(proxy, &cells)),
            3 => Some(fixed_kernel::<3>(proxy, &cells)),
            4 => Some(fixed_kernel::<4>(proxy, &cells)),
            5 => Some(fixed_kernel::<5>(proxy, &cells)),
            8 => Some(fixed_kernel::<8>(proxy, &cells)),
            _ => None,
        };
        if let Some((decisions, sums)) = fixed {
            assert_eq!(decisions, want, "specialised kernel, {k_n} classes");
            for ((cell, got), want) in cells.iter().zip(&sums).zip(&want_sums) {
                assert!(same_values(got, want), "specialised sums, cell {cell:?}");
            }
        }

        let per_row: Vec<ProxyDecision> = cells.iter().map(|c| proxy.decide(c)).collect();
        assert_eq!(per_row, want, "decide, {k_n} classes");
        let (mut scratch, mut got) = (Vec::new(), Vec::new());
        for batch in [cells.len(), 1, 7] {
            for (chunk, want) in cells.chunks(batch).zip(want.chunks(batch)) {
                proxy.decide_batch(chunk.len(), |d, i| chunk[i][d], &mut scratch, &mut got);
                assert_eq!(got, want);
            }
        }
        proxy.decide_batch(0, |_, _| unreachable!("no rows"), &mut scratch, &mut got);
        assert!(got.is_empty());
    }

    /// A `k_n`-class proxy over a 4×3×5 grid whose terms are mostly
    /// small integers, so many cells tie (band) and many do not.
    fn synthetic(k_n: usize, prior_first: bool) -> ProxyScore {
        let cuts = |n: usize| AttrDomain::binned((1..n).map(|i| i as f64).collect()).unwrap();
        let schema = Schema::new(vec![
            Attribute::new("x", cuts(4)),
            Attribute::new("y", cuts(3)),
            Attribute::new("z", cuts(5)),
        ])
        .unwrap();
        // Never −0.0, like a log prior; the terms include −0.0.
        let prior = (0..k_n).map(|k| 0.5 - (k % 3) as f64).collect();
        ProxyScore::tabulate(&schema, prior, prior_first, |d, m, k| {
            let h = (d * 31 + m as usize * 7 + k.index() * 13) % 11;
            if h == 10 {
                -0.25
            } else {
                -((h % 4) as f64)
            }
        })
    }

    #[test]
    fn both_kernels_equal_the_plain_rule_on_every_cell() {
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
        let mut proxies = vec![nb, km, gmm];
        for k_n in [1, 2, 3, 4, 5, 8, 17] {
            for prior_first in [true, false] {
                let proxy = synthetic(k_n, prior_first);
                let cells = all_cells(&proxy);
                let band = cells.iter().filter(|c| proxy.decide(c) == ProxyDecision::Band).count();
                assert!(k_n == 1 || (band > 0 && band < cells.len()), "{k_n} classes: {band} band");
                proxies.push(proxy);
            }
        }
        for proxy in proxies {
            let k_n = proxy.n_classes();
            assert_kernels_match_reference(&proxy);
            // The projected-model shape: a zero dimension in front, in
            // the middle and at the end — skipped by the sums, which
            // still equal the ones that add its terms.
            for at in 0..=proxy.n_dims() {
                let lifted = proxy.with_zero_dim(at, 3);
                assert_eq!(lifted.n_dims(), proxy.n_dims() + 1);
                assert_eq!(lifted.dim_cardinality(at), 3);
                assert!(!lifted.live.contains(&at));
                assert_kernels_match_reference(&lifted);
            }
            // One NaN term poisons exactly the cells that read it, in
            // both forms alike.
            let mut poisoned = proxy.with_zero_dim(0, 2);
            poisoned.contrib[2][k_n] = f64::NAN;
            assert_kernels_match_reference(&poisoned);
            let band: Vec<_> = all_cells(&poisoned)
                .into_iter()
                .filter(|c| c[2] == 1)
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
