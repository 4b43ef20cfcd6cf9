//! Proxy-score cascades for additive-score models.
//!
//! Naive Bayes, k-means and diagonal GMMs all assign a row to the class
//! maximizing a score of the form `prior_k + Σ_d f_k(d, x_d)` — a sum of
//! per-dimension contributions over the *discretized* row. Because every
//! dimension is a finite member domain, each contribution can be
//! tabulated once per `(dimension, member, class)` at model-registration
//! time. Evaluating the table reproduces the real scorer **bit-for-bit**
//! (the tables hold the exact `f64` terms the scorer computes, summed in
//! the same dimension order), and the classes sit in the order of the
//! model's own tie-break, so the proxy's first maximum *is* the scorer's
//! prediction on every row, ties included. That is the cascade: every
//! mining predicate over such a model is decided without the scorer.

use mpq_models::{embed_member, Classifier, Gmm, KMeans, NaiveBayes};
use mpq_types::{ClassId, Member, Row, Schema};

/// A tabulated argmax surrogate for one additive-score model: per-class
/// priors plus per-`(dimension, member, class)` score contributions,
/// the classes laid out in the model's tie-break order. Every model it
/// is built from has at least one class, and no row's sums are NaN:
/// construction refuses a table that could produce one.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyScore {
    /// Per-position constant term (`log Pr(k)`, `log τ_k`, or `0`).
    prior: Vec<f64>,
    /// Whether the scorer adds the prior before the dimension terms
    /// (naive Bayes) or after them (clusterers). Matching the scorer's
    /// accumulation order keeps the sums bit-identical.
    prior_first: bool,
    /// One flat `[member × position]` slice per dimension: the term of
    /// dimension `d`, member `m`, position `p` sits at index
    /// `m * n_classes + p` of dimension `d`'s slice, so the classes of
    /// one cell are adjacent and a column of members walks one
    /// allocation.
    contrib: Vec<Vec<f64>>,
    /// The class at each position: the model's classes by ascending tie
    /// rank, so the first of equal sums is the class its tie-break
    /// picks.
    class_at: Vec<ClassId>,
    /// The dimensions the sums read, ascending: all of them but those
    /// [`ProxyScore::with_zero_dim`] inserted, whose terms are `+0.0`.
    live: Vec<usize>,
}

/// Ranks classes by descending prior (ties by class id): the paper's
/// naive-Bayes tie resolution.
fn tie_rank_by_prior(prior: &[f64]) -> Vec<u16> {
    let mut order: Vec<usize> = (0..prior.len()).collect();
    order.sort_by(|&a, &b| {
        prior[b].partial_cmp(&prior[a]).expect("finite priors").then(a.cmp(&b))
    });
    let mut rank = vec![0u16; prior.len()];
    for (r, &cls) in order.iter().enumerate() {
        rank[cls] = r as u16;
    }
    rank
}

/// Ranks classes by id: the clusterers' tie resolution (the first
/// cluster reaching the maximum score wins).
fn tie_rank_by_id(prior: &[f64]) -> Vec<u16> {
    (0..prior.len() as u16).collect()
}

/// Class counts past the monomorphised ones, up to this many, score a
/// row on the stack.
const STACK_CLASSES: usize = 16;

/// A term or prior that can make a sum NaN.
fn poisons(v: &f64) -> bool {
    v.is_nan() || *v == f64::INFINITY
}

impl ProxyScore {
    /// Tabulates `term(d, m, k)` for every dimension of `schema`, every
    /// member of its domain and every class, in the flat layout: the
    /// classes by ascending `rank(&prior)`, the model's tie-break order.
    ///
    /// `None` when some row's sum could be NaN. A sum of non-NaN terms
    /// is NaN only through `+∞ + −∞`, so the table is refused when a
    /// term or prior is NaN or `+∞`, or when the per-class maxima,
    /// summed in the scorer's order, reach `+∞` (or NaN): rounding is
    /// monotone, so no partial sum of any row exceeds the maxima's.
    fn tabulate(
        schema: &Schema,
        prior: Vec<f64>,
        prior_first: bool,
        rank: fn(&[f64]) -> Vec<u16>,
        term: impl Fn(usize, Member, ClassId) -> f64,
    ) -> Option<Self> {
        if prior.iter().any(poisons) {
            return None;
        }
        let mut class_at = vec![ClassId(0); prior.len()];
        for (k, r) in rank(&prior).into_iter().enumerate() {
            class_at[usize::from(r)] = ClassId(k as u16);
        }
        let term = &term;
        let contrib: Vec<Vec<f64>> = (0..schema.len())
            .map(|d| {
                (0..schema.attrs()[d].domain.cardinality())
                    .flat_map(|m| class_at.iter().map(move |&k| term(d, m, k)))
                    .collect()
            })
            .collect();
        if contrib.iter().flatten().any(poisons) {
            return None;
        }
        let prior = class_at.iter().map(|k| prior[k.index()]).collect();
        let proxy =
            ProxyScore { prior, prior_first, contrib, class_at, live: (0..schema.len()).collect() };
        (0..proxy.n_classes()).all(|p| proxy.max_sum(p) < f64::INFINITY).then_some(proxy)
    }

    /// The sum of position `p`'s largest terms, in the scorer's order:
    /// no row's sum for `p` exceeds it.
    fn max_sum(&self, p: usize) -> f64 {
        let k_n = self.n_classes();
        let mut s = if self.prior_first { self.prior[p] } else { 0.0 };
        for &d in &self.live {
            let terms = self.contrib[d][p..].iter().step_by(k_n).copied();
            s += terms.fold(f64::NEG_INFINITY, f64::max);
        }
        if !self.prior_first {
            s += self.prior[p];
        }
        s
    }

    /// Tabulates the naive-Bayes log-posterior: `log_prior` first, then
    /// `log_cond[d][m][k]` in dimension order — exactly `log_score` —
    /// with ties to the higher prior, then the lower id, as
    /// `NaiveBayes::predict` breaks them. `None` when a sum could be NaN
    /// (a NaN or `+∞` log probability, or an overflowing sum).
    pub fn from_naive_bayes(nb: &NaiveBayes) -> Option<Self> {
        let prior = (0..nb.n_classes()).map(|k| nb.log_prior(ClassId(k as u16))).collect();
        Self::tabulate(Classifier::schema(nb), prior, true, tie_rank_by_prior, |d, m, k| {
            nb.log_cond(d, m, k)
        })
    }

    /// Tabulates the k-means negated weighted distance through the same
    /// member embedding and per-dimension terms `predict` uses, ties to
    /// the lower id. `None` when a sum could be NaN (a NaN centroid).
    pub fn from_kmeans(km: &KMeans) -> Option<Self> {
        let schema = Classifier::schema(km);
        Self::tabulate(schema, vec![0.0; km.n_classes()], false, tie_rank_by_id, |d, m, k| {
            km.dim_score(k, d, embed_member(schema, d, m))
        })
    }

    /// Tabulates the GMM log-likelihood terms; `log τ_k` is added after
    /// the dimension sum, exactly as `score_raw` does, and ties go to
    /// the lower id. `None` when a sum could be NaN (a NaN mean, an
    /// infinite weight).
    pub fn from_gmm(g: &Gmm) -> Option<Self> {
        let schema = Classifier::schema(g);
        let prior = (0..g.n_classes()).map(|k| g.log_tau(ClassId(k as u16))).collect();
        Self::tabulate(schema, prior, false, tie_rank_by_id, |d, m, k| {
            g.dim_score(k, d, embed_member(schema, d, m))
        })
    }

    /// The table's parts, for the point `ScoreModel` over it: the
    /// per-position priors, whether the prior is added first, the
    /// per-dimension terms and the class at each position.
    pub(crate) fn parts(&self) -> (&[f64], bool, &[Vec<f64>], &[ClassId]) {
        (&self.prior, self.prior_first, &self.contrib, &self.class_at)
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
    /// `sums` (one per position) the scores of the row whose member in
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

    /// The class at the first maximum of `sums`: the highest score, and
    /// among equal ones the lowest tie rank — the model's prediction.
    /// No sum is NaN, so the strict `>` running maximum is a total
    /// order. Branch-free: the maximum and its position are selected,
    /// not branched to, so a row costs the same whichever class wins.
    #[inline(always)]
    fn argmax(&self, sums: &[f64]) -> ClassId {
        let (mut top, mut best) = (sums[0], 0usize);
        for (p, &s) in sums.iter().enumerate().skip(1) {
            let above = s > top;
            best = if above { p } else { best };
            top = if above { s } else { top };
        }
        self.class_at[best]
    }

    /// The row kernel for a class count known at compile time: row
    /// `i`'s `K` sums live in registers while its members — one read
    /// per live dimension, `member(d, i)` — are added in.
    #[inline(always)]
    fn decide_rows<const K: usize>(
        &self,
        member: impl Fn(usize, usize) -> Member,
        out: &mut [ClassId],
    ) {
        for (i, slot) in out.iter_mut().enumerate() {
            let mut sums = [0.0f64; K];
            self.accumulate(&mut sums, |d| member(d, i));
            *slot = self.argmax(&sums);
        }
    }

    /// The row kernel for any other class count: the same sums in the
    /// caller's buffer of one slot per class.
    fn decide_rows_generic(
        &self,
        member: impl Fn(usize, usize) -> Member,
        sums: &mut [f64],
        out: &mut [ClassId],
    ) {
        for (i, slot) in out.iter_mut().enumerate() {
            self.accumulate(sums, |d| member(d, i));
            *slot = self.argmax(sums);
        }
    }

    /// Decides rows `0..out.len()` into `out`: monomorphised for one to
    /// eight classes, on the stack up to [`STACK_CLASSES`], in
    /// `scratch` past that.
    fn decide_into(
        &self,
        member: impl Fn(usize, usize) -> Member,
        scratch: &mut Vec<f64>,
        out: &mut [ClassId],
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

    /// The model's prediction on one encoded row.
    pub fn decide(&self, row: &Row) -> ClassId {
        debug_assert_eq!(row.len(), self.contrib.len());
        let mut out = [ClassId(0)];
        self.decide_into(|d, _| row[d], &mut Vec::new(), &mut out);
        out[0]
    }

    /// The model's predictions on `n` rows at once: `member(d, i)` is
    /// row `i`'s member in dimension `d`, read once per row and live
    /// dimension. Replaces the contents of `out` with one class per
    /// row, each the class [`decide`] returns on that row (both run one
    /// kernel); `scratch` holds the sums of class counts past 16, so a
    /// reused one makes the call allocation-free.
    ///
    /// [`decide`]: ProxyScore::decide
    pub fn decide_batch(
        &self,
        n: usize,
        member: impl Fn(usize, usize) -> Member,
        scratch: &mut Vec<f64>,
        out: &mut Vec<ClassId>,
    ) {
        out.clear();
        out.resize(n, ClassId(0));
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
        ProxyScore { contrib, live, ..self.clone() }
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

    /// Row `cell`'s score per class with no kernel involved: the prior
    /// and every dimension's term — zero dimensions included — in the
    /// scorer's order.
    fn reference_sums(proxy: &ProxyScore, cell: &[Member]) -> Vec<f64> {
        let k_n = proxy.n_classes();
        let mut by_class = vec![0.0; k_n];
        for (p, k) in proxy.class_at.iter().enumerate() {
            let mut s = if proxy.prior_first { proxy.prior[p] } else { 0.0 };
            for (d, table) in proxy.contrib.iter().enumerate() {
                s += table[cell[d] as usize * k_n + p];
            }
            if !proxy.prior_first {
                s += proxy.prior[p];
            }
            by_class[k.index()] = s;
        }
        by_class
    }

    /// The argmax rule written the plain way: the highest score, and
    /// among equal ones the lowest `rank`.
    fn reference_decision(sums: &[f64], rank: &[u16]) -> ClassId {
        let best = (0..sums.len())
            .max_by(|&a, &b| sums[a].total_cmp(&sums[b]).then(rank[b].cmp(&rank[a])))
            .expect("at least one class");
        ClassId(best as u16)
    }

    /// Cells where two or more classes share the top score.
    fn tied_cells(proxy: &ProxyScore) -> usize {
        let top_ties = |sums: Vec<f64>| {
            let top = sums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            sums.iter().filter(|&&s| s == top).count() > 1
        };
        all_cells(proxy).iter().filter(|c| top_ties(reference_sums(proxy, c))).count()
    }

    /// `decide == predict` on every cell of `model`'s grid, and the
    /// number of those cells whose top score is tied.
    fn assert_decides_like(proxy: &ProxyScore, model: &dyn Classifier) -> usize {
        for cell in all_cells(proxy) {
            assert_eq!(proxy.decide(&cell), model.predict(&cell), "cell {cell:?}");
        }
        tied_cells(proxy)
    }

    #[test]
    fn naive_bayes_proxy_matches_predict_on_every_cell() {
        let nb = crate::paper_table1_model();
        assert_decides_like(&ProxyScore::from_naive_bayes(&nb).unwrap(), &nb);
    }

    #[test]
    fn kmeans_proxy_matches_predict_on_every_cell() {
        let km = KMeans::from_parts(
            grid_schema(6),
            vec![vec![1.0, 1.0], vec![5.0, 1.0], vec![3.0, 5.0]],
            vec![vec![1.0, 1.0]; 3],
        )
        .unwrap();
        assert_decides_like(&ProxyScore::from_kmeans(&km).unwrap(), &km);
    }

    #[test]
    fn gmm_proxy_matches_predict_on_every_cell() {
        let g = Gmm::from_parts(
            grid_schema(5),
            vec![0.5, 0.5],
            vec![vec![1.0, 1.0], vec![4.0, 4.0]],
            vec![vec![0.8, 0.8], vec![1.2, 1.2]],
        )
        .unwrap();
        assert_decides_like(&ProxyScore::from_gmm(&g).unwrap(), &g);
    }

    /// A three-class naive Bayes over a 2×3 grid: on member 0 of the
    /// first column every class scores `log ¼ + log ½` — `c1` as prior
    /// ½ times ¼, the others as prior ¼ times ½, summed in the other
    /// order, which is the same sum — and the second column adds the
    /// same term to every class.
    fn tied_bayes(priors: [f64; 3], first_col: [[f64; 3]; 2]) -> NaiveBayes {
        let schema = Schema::new(vec![
            Attribute::new("a", AttrDomain::categorical(["a0", "a1"])),
            Attribute::new("b", AttrDomain::categorical(["b0", "b1", "b2"])),
        ])
        .unwrap();
        let cond = vec![
            first_col.iter().map(|m| m.to_vec()).collect(),
            [0.2, 0.3, 0.5].iter().map(|&p| vec![p; 3]).collect(),
        ];
        let names = ["c0", "c1", "c2"].map(String::from).to_vec();
        NaiveBayes::from_probabilities(schema, names, &priors, &cond).unwrap()
    }

    /// Exact score ties are decided by the model's own tie-break: the
    /// higher prior, then the lower id, for naive Bayes; the lower id
    /// for k-means and GMM.
    #[test]
    fn exact_score_ties_go_to_the_models_tie_break() {
        // Unequal priors: the three-way tie goes to `c1`, the higher
        // prior, not to the lowest id.
        let nb = tied_bayes([0.25, 0.5, 0.25], [[0.5, 0.25, 0.5], [0.5, 0.75, 0.5]]);
        let proxy = ProxyScore::from_naive_bayes(&nb).unwrap();
        assert_eq!(assert_decides_like(&proxy, &nb), 3);
        assert!((0..3).all(|b| proxy.decide(&[0, b]) == ClassId(1)));
        // Equal priors and identical columns: `c1` and `c2` tie on every
        // cell, and the lower id wins wherever they lead.
        let nb = tied_bayes([0.25, 0.375, 0.375], [[0.5, 0.25, 0.25], [0.5, 0.75, 0.75]]);
        let proxy = ProxyScore::from_naive_bayes(&nb).unwrap();
        assert_eq!(assert_decides_like(&proxy, &nb), 3);
        assert!((0..3).all(|b| proxy.decide(&[1, b]) == ClassId(1)));
        // Identical centroids and identical components tie everywhere
        // their cluster leads; the lower id wins.
        let centroids = vec![vec![1.0, 1.0], vec![3.0, 3.0], vec![3.0, 3.0]];
        let km = KMeans::from_parts(grid_schema(4), centroids.clone(), vec![vec![1.0, 1.0]; 3])
            .unwrap();
        let proxy = ProxyScore::from_kmeans(&km).unwrap();
        assert!(assert_decides_like(&proxy, &km) > 0);
        assert_eq!(proxy.decide(&[3, 3]), ClassId(1));
        let taus = vec![0.4, 0.3, 0.3];
        let g = Gmm::from_parts(grid_schema(4), taus, centroids, vec![vec![1.0; 2]; 3]).unwrap();
        let proxy = ProxyScore::from_gmm(&g).unwrap();
        assert!(assert_decides_like(&proxy, &g) > 0);
        assert_eq!(proxy.decide(&[3, 3]), ClassId(1));
    }

    /// No table whose sums could be NaN is built: a NaN or `+∞` term or
    /// prior, or maxima whose sum overflows to `+∞`. A `−∞` term is
    /// allowed: it can only lose.
    #[test]
    fn construction_refuses_a_table_whose_sums_could_be_nan() {
        let schema = grid_schema(3);
        let gmm = |taus: Vec<f64>, means: Vec<Vec<f64>>| {
            Gmm::from_parts(schema.clone(), taus, means, vec![vec![1.0; 2]; 2]).unwrap()
        };
        let ok = vec![vec![0.0, 0.0], vec![2.0, 2.0]];
        assert!(ProxyScore::from_gmm(&gmm(vec![0.5, 0.5], ok.clone())).is_some());
        let nan_mean = vec![vec![0.0, f64::NAN], vec![2.0, 2.0]];
        assert!(ProxyScore::from_gmm(&gmm(vec![0.5, 0.5], nan_mean)).is_none(), "NaN term");
        assert!(ProxyScore::from_gmm(&gmm(vec![f64::INFINITY, 0.5], ok)).is_none(), "+∞ prior");
        let nan_centroid = vec![vec![f64::NAN, 0.0], vec![2.0, 2.0]];
        let km = KMeans::from_parts(schema.clone(), nan_centroid, vec![vec![1.0; 2]; 2]).unwrap();
        assert!(ProxyScore::from_kmeans(&km).is_none(), "NaN centroid");

        let table = |v: f64| {
            ProxyScore::tabulate(&schema, vec![0.0, 0.0], true, tie_rank_by_id, move |d, m, k| {
                if (d, m, k) == (1, 2, ClassId(1)) {
                    v
                } else {
                    -1.0
                }
            })
        };
        assert!(table(-2.0).is_some());
        assert!(table(f64::NAN).is_none());
        assert!(table(f64::INFINITY).is_none());
        let with_neg_inf = table(f64::NEG_INFINITY).expect("−∞ cannot make a NaN");
        assert_kernels_match_reference(&with_neg_inf, &[0, 1]);
        // Each term finite, their sum not.
        let huge = ProxyScore::tabulate(&schema, vec![0.0], false, tie_rank_by_id, |_, _, _| {
            f64::MAX
        });
        assert!(huge.is_none(), "overflowing maxima");
    }

    /// The specialised kernel for `K` classes: its decisions on `cells`
    /// and the register sums behind them, per position.
    fn fixed_kernel<const K: usize>(
        proxy: &ProxyScore,
        cells: &[Vec<Member>],
    ) -> (Vec<ClassId>, Vec<Vec<f64>>) {
        let mut out = vec![ClassId(0); cells.len()];
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

    /// Position sums relabelled by class.
    fn by_class(proxy: &ProxyScore, sums: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; sums.len()];
        for (k, s) in proxy.class_at.iter().zip(sums) {
            out[k.index()] = *s;
        }
        out
    }

    /// Both instantiations of the row kernel against the plain rule
    /// under tie rank `rank` on every cell — decision and score value —
    /// and `decide_batch` against `decide` as one batch and as ragged
    /// sub-batches over a reused scratch.
    fn assert_kernels_match_reference(proxy: &ProxyScore, rank: &[u16]) {
        for (p, k) in proxy.class_at.iter().enumerate() {
            assert_eq!(usize::from(rank[k.index()]), p, "classes in tie-rank order");
        }
        let cells = all_cells(proxy);
        let k_n = proxy.n_classes();
        let want_sums: Vec<Vec<f64>> = cells.iter().map(|c| reference_sums(proxy, c)).collect();
        let want: Vec<ClassId> = want_sums.iter().map(|s| reference_decision(s, rank)).collect();

        let mut generic = vec![ClassId(0); cells.len()];
        proxy.decide_rows_generic(|d, i| cells[i][d], &mut vec![0.0; k_n], &mut generic);
        assert_eq!(generic, want, "generic kernel, {k_n} classes");
        for (cell, want_sums) in cells.iter().zip(&want_sums) {
            let mut sums = vec![0.0; k_n];
            proxy.accumulate(&mut sums, |d| cell[d]);
            assert_eq!(&by_class(proxy, &sums), want_sums, "generic sums, cell {cell:?}");
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
                assert_eq!(&by_class(proxy, got), want, "specialised sums, cell {cell:?}");
            }
        }

        let per_row: Vec<ClassId> = cells.iter().map(|c| proxy.decide(c)).collect();
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
    /// small integers, so many cells tie and many do not; with the prior
    /// first its classes rank by prior, else by id.
    fn synthetic(k_n: usize, prior_first: bool) -> (ProxyScore, Vec<u16>) {
        let cuts = |n: usize| AttrDomain::binned((1..n).map(|i| i as f64).collect()).unwrap();
        let schema = Schema::new(vec![
            Attribute::new("x", cuts(4)),
            Attribute::new("y", cuts(3)),
            Attribute::new("z", cuts(5)),
        ])
        .unwrap();
        // Never −0.0, like a log prior; the terms include −0.0.
        let prior: Vec<f64> = (0..k_n).map(|k| 0.5 - (k % 3) as f64).collect();
        let rank_by = if prior_first { tie_rank_by_prior } else { tie_rank_by_id };
        let rank = rank_by(&prior);
        let proxy = ProxyScore::tabulate(&schema, prior, prior_first, rank_by, |d, m, k| {
            let h = (d * 31 + m as usize * 7 + k.index() * 13) % 11;
            if h == 10 {
                -0.25
            } else {
                -((h % 4) as f64)
            }
        });
        (proxy.expect("finite terms"), rank)
    }

    #[test]
    fn both_kernels_equal_the_plain_rule_on_every_cell() {
        let nb = crate::paper_table1_model();
        let km = KMeans::from_parts(
            grid_schema(6),
            vec![vec![1.0, 1.0], vec![5.0, 1.0], vec![3.0, 5.0], vec![3.0, 5.0]],
            vec![vec![1.0, 1.0]; 4],
        )
        .unwrap();
        let gmm = Gmm::from_parts(
            grid_schema(5),
            vec![0.5, 0.5],
            vec![vec![1.0, 1.0], vec![4.0, 4.0]],
            vec![vec![0.8, 0.8], vec![1.2, 1.2]],
        )
        .unwrap();
        let nb_rank = tie_rank_by_prior(&[0, 1, 2].map(|k| nb.log_prior(ClassId(k))));
        let mut proxies = vec![
            (ProxyScore::from_naive_bayes(&nb).unwrap(), nb_rank),
            (ProxyScore::from_kmeans(&km).unwrap(), tie_rank_by_id(&[0.0; 4])),
            (ProxyScore::from_gmm(&gmm).unwrap(), tie_rank_by_id(&[0.0; 2])),
        ];
        for k_n in [1, 2, 3, 4, 5, 8, 17] {
            for prior_first in [true, false] {
                let (proxy, rank) = synthetic(k_n, prior_first);
                let (tied, cells) = (tied_cells(&proxy), all_cells(&proxy).len());
                assert!(k_n == 1 || (tied > 0 && tied < cells), "{k_n} classes: {tied} tied");
                proxies.push((proxy, rank));
            }
        }
        for (proxy, rank) in proxies {
            assert_kernels_match_reference(&proxy, &rank);
            // The projected-model shape: a zero dimension in front, in
            // the middle and at the end — skipped by the sums, which
            // still equal the ones that add its terms.
            for at in 0..=proxy.n_dims() {
                let lifted = proxy.with_zero_dim(at, 3);
                assert_eq!(lifted.n_dims(), proxy.n_dims() + 1);
                assert_eq!(lifted.dim_cardinality(at), 3);
                assert!(!lifted.live.contains(&at));
                assert_kernels_match_reference(&lifted, &rank);
            }
        }
    }

    #[test]
    fn tie_rank_orders_by_prior() {
        assert_eq!(tie_rank_by_prior(&[0.2, 0.5, 0.3]), vec![2, 0, 1]);
        // Equal priors: lower class id wins.
        assert_eq!(tie_rank_by_prior(&[0.5, 0.5]), vec![0, 1]);
    }

    #[test]
    fn perturbation_is_detectable_by_equality() {
        let nb = crate::paper_table1_model();
        let fresh = ProxyScore::from_naive_bayes(&nb).unwrap();
        let mut stored = fresh.clone();
        assert_eq!(stored, fresh);
        stored.perturb_for_fault();
        assert_ne!(stored, fresh, "perturbation must be visible to verification");
    }
}
