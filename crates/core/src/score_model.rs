//! Additive score models: the shared abstraction the top-down derivation
//! bounds over.
//!
//! Naive Bayes (Eq. 2), centroid-based clustering and diagonal-Gaussian
//! model-based clustering all score a point as
//! `score_k(x) = prior_k + Σ_d contrib_{dk}(x_d)` and predict the argmax
//! class — §3.3 of the paper makes exactly this observation to reuse the
//! naive-Bayes algorithm for clustering. A [`ScoreModel`] stores, for
//! every (dimension, member, class), an **interval** `[lo, hi]` bounding
//! the per-dimension contribution over that member:
//!
//! * discrete naive Bayes: `lo == hi == log Pr(m | c_k)` (a point);
//! * k-means / GMM: the min and max of the per-dimension quadratic over
//!   the member's bin, so every *raw* point of the bin is bounded, not
//!   just its representative.
//!
//! All values live in the log domain; f64 addition is monotone, so
//! summing per-dimension bounds in fixed order yields sound region
//! bounds under rounding.

use crate::region::Region;
use mpq_types::{ClassId, Member, Row};
use mpq_models::{Gmm, KMeans, NaiveBayes};

/// Which bounding scheme the derivation uses on ambiguous regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundMode {
    /// Lemma 3.1: independent per-class min/max of the score.
    Basic,
    /// Generalized Lemma 3.2: bound the *difference* `score_k − score_j`
    /// per rival class `j`. Exact for `K = 2`; strictly tighter than
    /// [`BoundMode::Basic`] for `K > 2`.
    #[default]
    PairwiseRatio,
}

/// Region status with respect to the target class (paper §3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionStatus {
    /// Every point of the region is predicted as the target class.
    MustWin,
    /// No point of the region is predicted as the target class.
    MustLose,
    /// Undetermined; shrink and split further.
    Ambiguous,
}

/// Per-dimension score table: `lo/hi[m * K + k]` bound the contribution
/// of member `m` to class `k`'s score.
#[derive(Debug, Clone, PartialEq)]
pub struct DimTable {
    k: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl DimTable {
    /// Lower bound of member `m`'s contribution to class `k`.
    #[inline]
    pub fn lo(&self, m: Member, k: usize) -> f64 {
        self.lo[m as usize * self.k + k]
    }

    /// Upper bound of member `m`'s contribution to class `k`.
    #[inline]
    pub fn hi(&self, m: Member, k: usize) -> f64 {
        self.hi[m as usize * self.k + k]
    }

    /// Number of members in this dimension.
    pub fn n_members(&self) -> u16 {
        (self.lo.len() / self.k) as u16
    }
}

/// A per-dimension, per-class quadratic score contribution
/// `contrib(x) = k0 − w·(x − c)²` — the shape shared by weighted-
/// Euclidean k-means terms and diagonal-Gaussian log densities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadTerm {
    /// Additive constant.
    pub k0: f64,
    /// Non-negative curvature weight.
    pub w: f64,
    /// Center (centroid coordinate / mean).
    pub c: f64,
}

impl QuadTerm {
    /// Evaluates the contribution at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.k0 - self.w * (x - self.c) * (x - self.c)
    }
}

/// Quadratic description of one dimension: the per-class terms plus each
/// member's numeric bin interval. Present only for quadratic models
/// (k-means, GMM); enables the *exact* pairwise difference bound that
/// interval subtraction cannot provide (notably on unbounded end bins,
/// where independent intervals are `[-inf, hi]` and can never decide).
#[derive(Debug, Clone, PartialEq)]
pub struct QuadDim {
    /// One term per class.
    pub terms: Vec<QuadTerm>,
    /// `(lo, hi]` numeric interval per member; end bins may be infinite.
    pub bins: Vec<(f64, f64)>,
}

impl QuadDim {
    /// Range of `terms[k](x) − terms[j](x)` over member `m`'s bin.
    /// The difference of two quadratics is one quadratic, so its extrema
    /// over an interval are at the endpoints or the vertex.
    pub fn diff_range(&self, m: Member, k: usize, j: usize) -> (f64, f64) {
        let (tk, tj) = (self.terms[k], self.terms[j]);
        // g(x) = αx² + βx + γ
        let alpha = tj.w - tk.w;
        let beta = 2.0 * (tk.w * tk.c - tj.w * tj.c);
        let gamma = (tk.k0 - tj.k0) - tk.w * tk.c * tk.c + tj.w * tj.c * tj.c;
        let (lo, hi) = self.bins[m as usize];
        quad_range(alpha, beta, gamma, lo, hi)
    }
}

/// Min and max of `αx² + βx + γ` over `[lo, hi]`, where either endpoint
/// may be infinite.
fn quad_range(alpha: f64, beta: f64, gamma: f64, lo: f64, hi: f64) -> (f64, f64) {
    let eval = |x: f64| alpha * x * x + beta * x + gamma;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut consider = |v: f64| {
        min = min.min(v);
        max = max.max(v);
    };
    for &end in &[lo, hi] {
        if end.is_finite() {
            consider(eval(end));
        } else if alpha != 0.0 {
            consider(if alpha > 0.0 { f64::INFINITY } else { f64::NEG_INFINITY });
        } else if beta != 0.0 {
            // Linear: x → −inf gives −sign(β)·inf, x → +inf gives +sign(β)·inf.
            let toward_pos_inf = end == f64::INFINITY;
            let v = if (beta > 0.0) == toward_pos_inf { f64::INFINITY } else { f64::NEG_INFINITY };
            consider(v);
        } else {
            consider(gamma);
        }
    }
    if alpha != 0.0 {
        let vertex = -beta / (2.0 * alpha);
        if vertex > lo && vertex <= hi {
            consider(eval(vertex));
        }
    }
    (min, max)
}

/// An additive interval score model over the discretized grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreModel {
    n_classes: usize,
    /// Additive per-class constant (log prior / log τ / 0 for k-means).
    prior: Vec<f64>,
    /// Tie-break rank per class; smaller rank wins ties. For naive Bayes
    /// this encodes "higher prior wins"; clustering uses the cluster id.
    tie_rank: Vec<u16>,
    dims: Vec<DimTable>,
    /// Exact quadratic description per dimension, where the model has
    /// one (ordered k-means/GMM dimensions). Used by the pairwise bound;
    /// dimensions without a quadratic (discrete NB, categorical k-means
    /// mismatch terms) fall back to the interval tables, which are exact
    /// points there anyway. Empty when no dimension is quadratic.
    quads: Vec<Option<QuadDim>>,
    /// True when every interval is a point (`lo == hi`), i.e. the model's
    /// prediction is fully determined by the cell — naive Bayes.
    point_model: bool,
}

impl ScoreModel {
    /// Builds a score model from raw parts (used by tests and ablations).
    pub fn from_parts(prior: Vec<f64>, tie_rank: Vec<u16>, dims: Vec<DimTable>) -> ScoreModel {
        let n_classes = prior.len();
        debug_assert_eq!(tie_rank.len(), n_classes);
        let point_model = dims.iter().all(|t| t.lo == t.hi);
        ScoreModel { n_classes, prior, tie_rank, dims, quads: Vec::new(), point_model }
    }

    /// The exact log tables of a discrete naive Bayes model: every
    /// interval is a point, so region statuses computed here agree with
    /// `NaiveBayes::predict` bit-for-bit.
    pub fn from_naive_bayes(nb: &NaiveBayes) -> ScoreModel {
        use mpq_models::Classifier as _;
        let k = nb.n_classes();
        let prior: Vec<f64> = (0..k).map(|c| nb.log_prior(ClassId(c as u16))).collect();
        let tie_rank = tie_rank_by_prior(&prior);
        let dims = nb
            .schema()
            .iter()
            .map(|(d, a)| {
                let card = a.domain.cardinality();
                let mut lo = Vec::with_capacity(card as usize * k);
                for m in 0..card {
                    for c in 0..k {
                        lo.push(nb.log_cond(d.index(), m, ClassId(c as u16)));
                    }
                }
                DimTable { k, hi: lo.clone(), lo }
            })
            .collect();
        ScoreModel { n_classes: k, prior, tie_rank, dims, quads: Vec::new(), point_model: true }
    }

    /// Interval tables for centroid-based clustering: on ordered
    /// dimensions the contribution of bin `m` to cluster `k` is
    /// `−w (x − c)²` for `x` in the bin, whose extrema over the interval
    /// are attained at the closest / farthest endpoint from the centroid;
    /// on categorical dimensions the k-prototypes mismatch term
    /// contributes the *point* value `0` (member equals the cluster's
    /// mode) or `−w`.
    pub fn from_kmeans(km: &KMeans) -> ScoreModel {
        use mpq_models::Classifier as _;
        let k = km.n_classes();
        let prior = vec![0.0; k];
        let tie_rank = tie_rank_by_id(&prior);
        let mut quads = Vec::with_capacity(km.schema().len());
        let mut point_model = true;
        let dims = km
            .schema()
            .iter()
            .map(|(d, a)| {
                let card = a.domain.cardinality();
                let mut lo = Vec::with_capacity(card as usize * k);
                let mut hi = Vec::with_capacity(card as usize * k);
                if km.is_categorical_dim(d.index()) {
                    for m in 0..card {
                        for c in 0..k {
                            let mode = km.centroids()[c][d.index()];
                            let w = km.weights()[c][d.index()];
                            let v = if (m as f64) == mode { 0.0 } else { -w };
                            lo.push(v);
                            hi.push(v);
                        }
                    }
                    quads.push(None);
                } else {
                    point_model = false;
                    let mut bins = Vec::with_capacity(card as usize);
                    for m in 0..card {
                        let (a_lo, a_hi) = a.domain.bin_interval(m).expect("ordered attr");
                        bins.push((a_lo, a_hi));
                        for c in 0..k {
                            let center = km.centroids()[c][d.index()];
                            let w = km.weights()[c][d.index()];
                            let (qlo, qhi) = neg_quad_extrema(a_lo, a_hi, center, w);
                            lo.push(qlo);
                            hi.push(qhi);
                        }
                    }
                    let terms = (0..k)
                        .map(|c| QuadTerm {
                            k0: 0.0,
                            w: km.weights()[c][d.index()],
                            c: km.centroids()[c][d.index()],
                        })
                        .collect();
                    quads.push(Some(QuadDim { terms, bins }));
                }
                DimTable { k, lo, hi }
            })
            .collect();
        ScoreModel { n_classes: k, prior, tie_rank, dims, quads, point_model }
    }

    /// Point tables for centroid clustering **at the discretized
    /// inputs**: member `m`'s contribution is the score at the bin
    /// representative (what applying the model to an encoded row
    /// computes — §3.3's "expressed exactly as naive Bayes"). Exact for
    /// encoded-row prediction; not a bound over raw in-bin points (use
    /// [`ScoreModel::from_kmeans`] for that).
    pub fn from_kmeans_discretized(km: &KMeans) -> ScoreModel {
        use mpq_models::Classifier as _;
        let k = km.n_classes();
        let prior = vec![0.0; k];
        let tie_rank = tie_rank_by_id(&prior);
        let dims = km
            .schema()
            .iter()
            .map(|(d, a)| {
                let card = a.domain.cardinality();
                let mut lo = Vec::with_capacity(card as usize * k);
                for m in 0..card {
                    let x = if km.is_categorical_dim(d.index()) {
                        m as f64
                    } else {
                        a.domain.bin_representative(m).expect("ordered attr")
                    };
                    for c in 0..k {
                        let center = km.centroids()[c][d.index()];
                        let w = km.weights()[c][d.index()];
                        let v = if km.is_categorical_dim(d.index()) {
                            if x == center {
                                0.0
                            } else {
                                -w
                            }
                        } else {
                            -w * (x - center) * (x - center)
                        };
                        lo.push(v);
                    }
                }
                DimTable { k, hi: lo.clone(), lo }
            })
            .collect();
        ScoreModel { n_classes: k, prior, tie_rank, dims, quads: Vec::new(), point_model: true }
    }

    /// Point tables for a diagonal Gaussian mixture at the discretized
    /// inputs (see [`ScoreModel::from_kmeans_discretized`]).
    pub fn from_gmm_discretized(gmm: &Gmm) -> ScoreModel {
        use mpq_models::Classifier as _;
        const LOG_2PI: f64 = 1.8378770664093453;
        let k = gmm.n_classes();
        let prior: Vec<f64> = (0..k).map(|c| gmm.log_tau(ClassId(c as u16))).collect();
        let tie_rank = tie_rank_by_id(&prior);
        let dims = gmm
            .schema()
            .iter()
            .map(|(d, a)| {
                let card = a.domain.cardinality();
                let mut lo = Vec::with_capacity(card as usize * k);
                for m in 0..card {
                    let x = a.domain.bin_representative(m).expect("ordered attr");
                    for c in 0..k {
                        let mu = gmm.means()[c][d.index()];
                        let var = gmm.vars()[c][d.index()];
                        lo.push(
                            -0.5 * (LOG_2PI + var.ln()) - (x - mu) * (x - mu) / (2.0 * var),
                        );
                    }
                }
                DimTable { k, hi: lo.clone(), lo }
            })
            .collect();
        ScoreModel { n_classes: k, prior, tie_rank, dims, quads: Vec::new(), point_model: true }
    }

    /// Interval tables for a diagonal-covariance Gaussian mixture: the
    /// per-dimension log density `−½ln(2πσ²) − (x−μ)²/2σ²` is again a
    /// negated quadratic over each bin.
    pub fn from_gmm(gmm: &Gmm) -> ScoreModel {
        use mpq_models::Classifier as _;
        const LOG_2PI: f64 = 1.8378770664093453;
        let k = gmm.n_classes();
        let prior: Vec<f64> = (0..k).map(|c| gmm.log_tau(ClassId(c as u16))).collect();
        let tie_rank = tie_rank_by_id(&prior);
        let mut quads = Vec::with_capacity(gmm.schema().len());
        let dims = gmm
            .schema()
            .iter()
            .map(|(d, a)| {
                let card = a.domain.cardinality();
                let mut lo = Vec::with_capacity(card as usize * k);
                let mut hi = Vec::with_capacity(card as usize * k);
                let mut bins = Vec::with_capacity(card as usize);
                for m in 0..card {
                    let (a_lo, a_hi) = a.domain.bin_interval(m).expect("ordered attr");
                    bins.push((a_lo, a_hi));
                    for c in 0..k {
                        let mu = gmm.means()[c][d.index()];
                        let var = gmm.vars()[c][d.index()];
                        let constant = -0.5 * (LOG_2PI + var.ln());
                        let (qlo, qhi) = neg_quad_extrema(a_lo, a_hi, mu, 1.0 / (2.0 * var));
                        lo.push(constant + qlo);
                        hi.push(constant + qhi);
                    }
                }
                let terms = (0..k)
                    .map(|c| {
                        let var = gmm.vars()[c][d.index()];
                        QuadTerm {
                            k0: -0.5 * (LOG_2PI + var.ln()),
                            w: 1.0 / (2.0 * var),
                            c: gmm.means()[c][d.index()],
                        }
                    })
                    .collect();
                quads.push(QuadDim { terms, bins });
                DimTable { k, lo, hi }
            })
            .collect();
        ScoreModel { n_classes: k, prior, tie_rank, dims, quads: quads.into_iter().map(Some).collect(), point_model: false }
    }

    /// Number of classes `K`.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// The per-dimension table for dimension `d`.
    pub fn dim(&self, d: usize) -> &DimTable {
        &self.dims[d]
    }

    /// The additive per-class constant.
    pub fn prior(&self, k: usize) -> f64 {
        self.prior[k]
    }

    /// True when all intervals are points (naive Bayes).
    pub fn is_point_model(&self) -> bool {
        self.point_model
    }

    /// True if class `a` beats class `b` on a tied score.
    #[inline]
    pub fn tie_beats(&self, a: usize, b: usize) -> bool {
        self.tie_rank[a] < self.tie_rank[b]
    }

    /// Exact winner of a cell — only meaningful for point models, where
    /// the score of each class at the cell is a single number.
    pub fn cell_winner(&self, cell: &Row) -> ClassId {
        debug_assert!(self.point_model);
        let mut best = 0usize;
        let mut best_score = self.cell_score_lo(cell, 0);
        for k in 1..self.n_classes {
            let s = self.cell_score_lo(cell, k);
            if s > best_score || (s == best_score && self.tie_beats(k, best)) {
                best = k;
                best_score = s;
            }
        }
        ClassId(best as u16)
    }

    /// Lower bound of class `k`'s score at `cell` (exact for point
    /// models). Summed in fixed dimension order, prior first — the same
    /// order the model predictors use.
    pub fn cell_score_lo(&self, cell: &Row, k: usize) -> f64 {
        let mut s = self.prior[k];
        for (d, &m) in cell.iter().enumerate() {
            s += self.dims[d].lo(m, k);
        }
        s
    }

    /// Upper bound of class `k`'s score at `cell`.
    pub fn cell_score_hi(&self, cell: &Row, k: usize) -> f64 {
        let mut s = self.prior[k];
        for (d, &m) in cell.iter().enumerate() {
            s += self.dims[d].hi(m, k);
        }
        s
    }

    // ------------------------------------------------------------------
    // Region bounds (paper §3.2.2 / §3.2.3)
    // ------------------------------------------------------------------

    /// `minProb`-style lower bound of class `k`'s score over `region`
    /// (log domain).
    pub fn region_score_min(&self, region: &Region, k: usize) -> f64 {
        let mut s = self.prior[k];
        for (d, table) in self.dims.iter().enumerate() {
            s += region
                .dim(d)
                .iter()
                .map(|m| table.lo(m, k))
                .fold(f64::INFINITY, f64::min);
        }
        s
    }

    /// `maxProb`-style upper bound of class `k`'s score over `region`.
    pub fn region_score_max(&self, region: &Region, k: usize) -> f64 {
        let mut s = self.prior[k];
        for (d, table) in self.dims.iter().enumerate() {
            s += region
                .dim(d)
                .iter()
                .map(|m| table.hi(m, k))
                .fold(f64::NEG_INFINITY, f64::max);
        }
        s
    }

    /// Range of the per-member difference `contrib_k(m) − contrib_j(m)`
    /// on dimension `d`: exact for point models and quadratic models,
    /// the independent-interval bound otherwise.
    #[inline]
    fn member_diff_range(&self, d: usize, m: Member, k: usize, j: usize) -> (f64, f64) {
        if let Some(qd) = self.quads.get(d).and_then(|q| q.as_ref()) {
            return qd.diff_range(m, k, j);
        }
        let table = &self.dims[d];
        (table.lo(m, k) - table.hi(m, j), table.hi(m, k) - table.lo(m, j))
    }

    /// Public access to the per-member difference bounds (used by the
    /// rival-targeted split heuristic and ablation benches).
    pub fn member_diff_bounds(&self, d: usize, m: Member, k: usize, j: usize) -> (f64, f64) {
        self.member_diff_range(d, m, k, j)
    }

    /// Lower bound on `score_k − score_j` over the region, decomposed per
    /// dimension (the Lemma 3.2 ratio bound, in the log domain and
    /// generalized to any pair). Exact per pair for point models (naive
    /// Bayes) *and* for quadratic models (k-means, GMM), where the
    /// per-dimension difference of two quadratics is minimized
    /// analytically over each bin.
    pub fn region_diff_min(&self, region: &Region, k: usize, j: usize) -> f64 {
        let mut s = self.prior[k] - self.prior[j];
        for d in 0..self.dims.len() {
            s += region
                .dim(d)
                .iter()
                .map(|m| self.member_diff_range(d, m, k, j).0)
                .fold(f64::INFINITY, f64::min);
        }
        s
    }

    /// Upper bound on `score_k − score_j` over the region.
    pub fn region_diff_max(&self, region: &Region, k: usize, j: usize) -> f64 {
        let mut s = self.prior[k] - self.prior[j];
        for d in 0..self.dims.len() {
            s += region
                .dim(d)
                .iter()
                .map(|m| self.member_diff_range(d, m, k, j).1)
                .fold(f64::NEG_INFINITY, f64::max);
        }
        s
    }

    /// Classifies `region` with respect to target class `k`.
    ///
    /// Soundness contract: `MustLose` is returned only when **no** point
    /// of the region can be predicted `k` (ties included); `MustWin` only
    /// when **every** point is. `Ambiguous` is always safe.
    pub fn region_status(&self, region: &Region, k: usize, mode: BoundMode) -> RegionStatus {
        match mode {
            BoundMode::Basic => self.status_basic(region, k),
            BoundMode::PairwiseRatio => self.status_pairwise(region, k),
        }
    }

    fn status_basic(&self, region: &Region, k: usize) -> RegionStatus {
        let min_k = self.region_score_min(region, k);
        let max_k = self.region_score_max(region, k);
        let mut win = true;
        for j in 0..self.n_classes {
            if j == k {
                continue;
            }
            let min_j = self.region_score_min(region, j);
            let max_j = self.region_score_max(region, j);
            // MUST-LOSE: j's floor beats k's ceiling everywhere.
            if min_j > max_k || (min_j == max_k && self.tie_beats(j, k)) {
                return RegionStatus::MustLose;
            }
            // Win against j requires k's floor to beat j's ceiling.
            if !(min_k > max_j || (min_k == max_j && self.tie_beats(k, j))) {
                win = false;
            }
        }
        if win {
            RegionStatus::MustWin
        } else {
            RegionStatus::Ambiguous
        }
    }

    fn status_pairwise(&self, region: &Region, k: usize) -> RegionStatus {
        let mut win = true;
        for j in 0..self.n_classes {
            if j == k {
                continue;
            }
            let dmax = self.region_diff_max(region, k, j);
            if dmax < 0.0 || (dmax == 0.0 && self.tie_beats(j, k)) {
                return RegionStatus::MustLose;
            }
            let dmin = self.region_diff_min(region, k, j);
            if !(dmin > 0.0 || (dmin == 0.0 && self.tie_beats(k, j))) {
                win = false;
            }
        }
        if win {
            RegionStatus::MustWin
        } else {
            RegionStatus::Ambiguous
        }
    }

    /// Whether member `m` of dimension `d` can be removed from `region`
    /// when deriving class `k`'s envelope: the paper's *shrink* test —
    /// MUST-LOSE of the pinned slice `region ∩ (dim d = m)` using
    /// per-member revised bounds.
    pub fn pinned_must_lose(
        &self,
        region: &Region,
        k: usize,
        d: usize,
        m: Member,
        mode: BoundMode,
    ) -> bool {
        match mode {
            BoundMode::Basic => {
                // maxProb(c_k, d, m) vs minProb(c_j, d, m), paper §3.2.2.
                let max_k = self.pinned_score_max(region, k, d, m);
                for j in 0..self.n_classes {
                    if j == k {
                        continue;
                    }
                    let min_j = self.pinned_score_min(region, j, d, m);
                    if min_j > max_k || (min_j == max_k && self.tie_beats(j, k)) {
                        return true;
                    }
                }
                false
            }
            BoundMode::PairwiseRatio => {
                for j in 0..self.n_classes {
                    if j == k {
                        continue;
                    }
                    let mut dmax = self.prior[k] - self.prior[j];
                    for e in 0..self.dims.len() {
                        if e == d {
                            dmax += self.member_diff_range(e, m, k, j).1;
                        } else {
                            dmax += region
                                .dim(e)
                                .iter()
                                .map(|mm| self.member_diff_range(e, mm, k, j).1)
                                .fold(f64::NEG_INFINITY, f64::max);
                        }
                    }
                    if dmax < 0.0 || (dmax == 0.0 && self.tie_beats(j, k)) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Batched shrink (the paper's shrink step, computed with per-pass
    /// precomputed bounds): repeatedly removes members whose pinned slice
    /// must lose — arbitrary members on unordered dimensions, end members
    /// only on ordered ones — until a fixpoint. Returns the shrunk region
    /// (`None` when it empties) and the removed `(dim, member)` pairs.
    ///
    /// A small epsilon guards the strict comparisons: the per-member
    /// bound is formed as `sum − dim_contribution + member_value`, whose
    /// rounding could otherwise dip below the directly-summed bound.
    pub fn shrink_region(
        &self,
        region: &Region,
        k: usize,
        mode: BoundMode,
    ) -> (Option<Region>, Vec<(usize, Member)>) {
        const EPS: f64 = 1e-9;
        let kk = self.n_classes;
        let n = self.dims.len();
        let mut region = region.clone();
        let mut removed = Vec::new();
        loop {
            // Precompute per-(class-or-rival, dim) aggregates.
            // For Basic: per class, max of hi and min of lo per dim.
            // For Pairwise: per rival, max of member diff-hi per dim.
            let mut changed = false;
            // Infinity discipline: per-dimension maxima (of hi / of the
            // pairwise diff-hi) are finite or +inf (unbounded end bins of
            // quadratic models); per-dimension minima (of lo) are finite
            // or −inf. Sums therefore carry a finite part plus a count of
            // infinite dims, and "sum excluding dim d" stays well-defined
            // (a plain `sum − v + x` would produce inf − inf = NaN and
            // silently disable shrinking).
            let removable: Vec<Vec<Member>> = match mode {
                BoundMode::Basic => {
                    let mut dim_hi = vec![vec![f64::NEG_INFINITY; n]; kk];
                    let mut dim_lo = vec![vec![f64::INFINITY; n]; kk];
                    for d in 0..n {
                        for m in region.dim(d).iter() {
                            for j in 0..kk {
                                dim_hi[j][d] = dim_hi[j][d].max(self.dims[d].hi(m, j));
                                dim_lo[j][d] = dim_lo[j][d].min(self.dims[d].lo(m, j));
                            }
                        }
                    }
                    // (finite part, count of +inf dims) / (finite, −inf).
                    let agg = |per_dim: &[f64]| -> (f64, u32) {
                        let mut finite = 0.0;
                        let mut infs = 0;
                        for &v in per_dim {
                            if v.is_infinite() {
                                infs += 1;
                            } else {
                                finite += v;
                            }
                        }
                        (finite, infs)
                    };
                    let sum_hi: Vec<(f64, u32)> = (0..kk).map(|j| agg(&dim_hi[j])).collect();
                    let sum_lo: Vec<(f64, u32)> = (0..kk).map(|j| agg(&dim_lo[j])).collect();
                    let excl = |(finite, infs): (f64, u32), v: f64, sign: f64| -> f64 {
                        let rem = infs - u32::from(v.is_infinite());
                        if rem > 0 {
                            sign * f64::INFINITY
                        } else if v.is_infinite() {
                            finite
                        } else {
                            finite - v
                        }
                    };
                    (0..n)
                        .map(|d| {
                            region
                                .dim(d)
                                .iter()
                                .filter(|&m| {
                                    let max_k = self.prior[k]
                                        + excl(sum_hi[k], dim_hi[k][d], 1.0)
                                        + self.dims[d].hi(m, k);
                                    (0..kk).any(|j| {
                                        j != k
                                            && self.prior[j]
                                                + excl(sum_lo[j], dim_lo[j][d], -1.0)
                                                + self.dims[d].lo(m, j)
                                                > max_k + EPS
                                    })
                                })
                                .collect()
                        })
                        .collect()
                }
                BoundMode::PairwiseRatio => {
                    let mut dim_dmax = vec![vec![f64::NEG_INFINITY; n]; kk];
                    for (j, row) in dim_dmax.iter_mut().enumerate() {
                        if j == k {
                            continue;
                        }
                        for (d, cell) in row.iter_mut().enumerate() {
                            for m in region.dim(d).iter() {
                                *cell = cell.max(self.member_diff_range(d, m, k, j).1);
                            }
                        }
                    }
                    // (finite part, +inf dim count) per rival.
                    let sums: Vec<(f64, u32)> = (0..kk)
                        .map(|j| {
                            let mut finite = self.prior[k] - self.prior[j];
                            let mut infs = 0;
                            for &v in &dim_dmax[j] {
                                if v == f64::INFINITY {
                                    infs += 1;
                                } else {
                                    finite += v;
                                }
                            }
                            (finite, infs)
                        })
                        .collect();
                    (0..n)
                        .map(|d| {
                            region
                                .dim(d)
                                .iter()
                                .filter(|&m| {
                                    (0..kk).any(|j| {
                                        if j == k {
                                            return false;
                                        }
                                        let (finite, infs) = sums[j];
                                        let v = dim_dmax[j][d];
                                        let rem = infs - u32::from(v == f64::INFINITY);
                                        if rem > 0 {
                                            return false; // dmax = +inf
                                        }
                                        let base =
                                            if v == f64::INFINITY { finite } else { finite - v };
                                        base + self.member_diff_range(d, m, k, j).1 < -EPS
                                    })
                                })
                                .collect()
                        })
                        .collect()
                }
            };
            // Apply removals, respecting ordered-dim contiguity.
            for (d, mems) in removable.into_iter().enumerate() {
                if mems.is_empty() {
                    continue;
                }
                match region.dim(d).clone() {
                    crate::region::DimSet::Range { mut lo, mut hi } => {
                        let gone: std::collections::HashSet<Member> =
                            mems.iter().copied().collect();
                        while lo <= hi && gone.contains(&lo) {
                            removed.push((d, lo));
                            changed = true;
                            if lo == hi {
                                return (None, removed);
                            }
                            lo += 1;
                        }
                        while hi >= lo && gone.contains(&hi) {
                            removed.push((d, hi));
                            changed = true;
                            if hi == lo {
                                return (None, removed);
                            }
                            hi -= 1;
                        }
                        region = region
                            .with_dim(d, crate::region::DimSet::Range { lo, hi });
                    }
                    crate::region::DimSet::Set(mut s) => {
                        for m in mems {
                            s.remove(m);
                            removed.push((d, m));
                            changed = true;
                        }
                        if s.is_empty() {
                            return (None, removed);
                        }
                        region = region.with_dim(d, crate::region::DimSet::Set(s));
                    }
                }
            }
            if !changed {
                return (Some(region), removed);
            }
        }
    }

    fn pinned_score_min(&self, region: &Region, k: usize, d: usize, m: Member) -> f64 {
        let mut s = self.prior[k];
        for (e, table) in self.dims.iter().enumerate() {
            if e == d {
                s += table.lo(m, k);
            } else {
                s += region.dim(e).iter().map(|mm| table.lo(mm, k)).fold(f64::INFINITY, f64::min);
            }
        }
        s
    }

    fn pinned_score_max(&self, region: &Region, k: usize, d: usize, m: Member) -> f64 {
        let mut s = self.prior[k];
        for (e, table) in self.dims.iter().enumerate() {
            if e == d {
                s += table.hi(m, k);
            } else {
                s += region
                    .dim(e)
                    .iter()
                    .map(|mm| table.hi(mm, k))
                    .fold(f64::NEG_INFINITY, f64::max);
            }
        }
        s
    }
}

/// Ranks classes by descending prior (ties by class id): the paper's
/// naive-Bayes tie resolution. The proxy cascade orders its classes by
/// the same rank.
pub(crate) fn tie_rank_by_prior(prior: &[f64]) -> Vec<u16> {
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
pub(crate) fn tie_rank_by_id(prior: &[f64]) -> Vec<u16> {
    (0..prior.len() as u16).collect()
}

/// Extrema of `−w (x − c)²` over the interval `(lo, hi]`, allowing
/// infinite endpoints. Returns `(min, max)`.
fn neg_quad_extrema(lo: f64, hi: f64, c: f64, w: f64) -> (f64, f64) {
    // Max is at the point of the interval closest to c.
    let closest = c.clamp(lo, hi);
    let max = if closest.is_finite() { -w * (closest - c) * (closest - c) } else { 0.0 };
    // Min is at the farther endpoint; an infinite endpoint gives −inf
    // (the bin is unbounded, so the score is unboundedly negative).
    let d_lo = if lo.is_finite() { (lo - c).abs() } else { f64::INFINITY };
    let d_hi = if hi.is_finite() { (hi - c).abs() } else { f64::INFINITY };
    let far = d_lo.max(d_hi);
    let min = if far.is_finite() { -w * far * far } else { f64::NEG_INFINITY };
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{DimSet, Region};
    use mpq_types::{AttrDomain, Attribute, Schema};
    use mpq_models::Classifier as _;

    /// The paper's Table 1 naive Bayes model.
    fn table1() -> NaiveBayes {
        let schema = Schema::new(vec![
            Attribute::new("d0", AttrDomain::categorical(["m0", "m1", "m2", "m3"])),
            Attribute::new("d1", AttrDomain::categorical(["m0", "m1", "m2"])),
        ])
        .unwrap();
        let d0 = vec![
            vec![0.4, 0.1, 0.05],
            vec![0.4, 0.1, 0.05],
            vec![0.05, 0.4, 0.4],
            vec![0.05, 0.4, 0.4],
        ];
        // m21's c2 value is .01 (the paper prints .1, contradicted by its
        // own internal cells and Figure 2 bounds).
        let d1 = vec![
            vec![0.01, 0.7, 0.05],
            vec![0.5, 0.29, 0.05],
            vec![0.49, 0.01, 0.9],
        ];
        NaiveBayes::from_probabilities(
            schema,
            vec!["c1".into(), "c2".into(), "c3".into()],
            &[0.33, 0.5, 0.17],
            &[d0, d1],
        )
        .unwrap()
    }

    #[test]
    fn figure2a_bounds_match_paper() {
        // Starting region [0..3],[0..2]: the paper's Figure 2(a) prints
        // MinProb (.0002, .0005, .0005) and MaxProb (.07, .1, .07),
        // rounded to one significant digit.
        let nb = table1();
        let sm = ScoreModel::from_naive_bayes(&nb);
        let schema = nb.schema();
        let r = Region::full(schema);
        let min: Vec<f64> = (0..3).map(|k| sm.region_score_min(&r, k).exp()).collect();
        let max: Vec<f64> = (0..3).map(|k| sm.region_score_max(&r, k).exp()).collect();
        let expect_min = [0.33 * 0.05 * 0.01, 0.5 * 0.1 * 0.01, 0.17 * 0.05 * 0.05];
        let expect_max = [0.33 * 0.4 * 0.5, 0.5 * 0.4 * 0.7, 0.17 * 0.4 * 0.9];
        for k in 0..3 {
            assert!((min[k] - expect_min[k]).abs() < 1e-12, "min[{k}] = {}", min[k]);
            assert!((max[k] - expect_max[k]).abs() < 1e-12, "max[{k}] = {}", max[k]);
        }
        // Paper: status for c1 on the starting region is AMBIGUOUS.
        assert_eq!(sm.region_status(&r, 0, BoundMode::Basic), RegionStatus::Ambiguous);
    }

    #[test]
    fn figure2b_pinned_bounds_flag_d1_m0_as_must_lose() {
        // Figure 2(b): pinning d1 to its first member gives c1 revised
        // bounds max = .33·.4·.01 ≈ .0014 while c2's floor is
        // .5·.1·.7 = .035 ≈ .03 — MUST-LOSE, so shrink drops the member.
        let nb = table1();
        let sm = ScoreModel::from_naive_bayes(&nb);
        let r = Region::full(nb.schema());
        let max_c1 = sm.pinned_score_max(&r, 0, 1, 0).exp();
        let min_c2 = sm.pinned_score_min(&r, 1, 1, 0).exp();
        assert!((max_c1 - 0.33 * 0.4 * 0.01).abs() < 1e-12);
        assert!((min_c2 - 0.5 * 0.1 * 0.7).abs() < 1e-12);
        assert!(sm.pinned_must_lose(&r, 0, 1, 0, BoundMode::Basic));
        // The other two members of d1 host winning cells for c1 and must
        // survive the shrink test.
        assert!(!sm.pinned_must_lose(&r, 0, 1, 1, BoundMode::Basic));
        assert!(!sm.pinned_must_lose(&r, 0, 1, 2, BoundMode::Basic));
    }

    #[test]
    fn figure2c_shrunk_region_is_ambiguous() {
        // Figure 2(c): after dropping d1's first member the region
        // [0..3] × {m1, m2} has c1 bounds (.009, .07) vs c2 (.0005, .06):
        // still AMBIGUOUS.
        let nb = table1();
        let sm = ScoreModel::from_naive_bayes(&nb);
        let r = Region::full(nb.schema()).with_dim(1, DimSet::Set(mpq_types::MemberSet::of(3, [1, 2])));
        assert!((sm.region_score_min(&r, 0).exp() - 0.33 * 0.05 * 0.49).abs() < 1e-12);
        assert!((sm.region_score_max(&r, 1).exp() - 0.5 * 0.4 * 0.29).abs() < 1e-12);
        assert_eq!(sm.region_status(&r, 0, BoundMode::Basic), RegionStatus::Ambiguous);
    }

    #[test]
    fn figure2d_first_child_is_must_win() {
        // Figure 2(d): splitting d0 into [0..1] / [2..3], the first child
        // {m0,m1} × {m1,m2} is MUST-WIN for c1: its floor .33·.4·.49 ≈ .065
        // beats c2's ceiling .5·.1·.29 ≈ .015 and c3's .17·.05·.9 ≈ .008.
        let nb = table1();
        let sm = ScoreModel::from_naive_bayes(&nb);
        let r = Region::full(nb.schema())
            .with_dim(0, DimSet::Set(mpq_types::MemberSet::of(4, [0, 1])))
            .with_dim(1, DimSet::Set(mpq_types::MemberSet::of(3, [1, 2])));
        assert!((sm.region_score_min(&r, 0).exp() - 0.33 * 0.4 * 0.49).abs() < 1e-12);
        assert!((sm.region_score_max(&r, 1).exp() - 0.5 * 0.1 * 0.29).abs() < 1e-12);
        assert_eq!(sm.region_status(&r, 0, BoundMode::Basic), RegionStatus::MustWin);
    }

    #[test]
    fn figure2e_second_child_is_ambiguous_then_shrinks_empty() {
        // Figure 2(e): the second child {m2,m3} × {m1,m2} is AMBIGUOUS,
        // and a second shrink pass along d1 empties it (no c1 cells).
        let nb = table1();
        let sm = ScoreModel::from_naive_bayes(&nb);
        let r = Region::full(nb.schema())
            .with_dim(0, DimSet::Set(mpq_types::MemberSet::of(4, [2, 3])))
            .with_dim(1, DimSet::Set(mpq_types::MemberSet::of(3, [1, 2])));
        assert_eq!(sm.region_status(&r, 0, BoundMode::Basic), RegionStatus::Ambiguous);
        // Both remaining members of d1 fail for c1 in this region.
        assert!(sm.pinned_must_lose(&r, 0, 1, 1, BoundMode::Basic));
        assert!(sm.pinned_must_lose(&r, 0, 1, 2, BoundMode::Basic));
    }

    #[test]
    fn shrink_test_is_sound_everywhere() {
        // No member whose slice contains a winning cell for the target
        // class may ever be reported MUST-LOSE, under either bound mode.
        let nb = table1();
        let sm = ScoreModel::from_naive_bayes(&nb);
        let r = Region::full(nb.schema());
        for k in 0..3usize {
            for d in 0..2usize {
                let card = if d == 0 { 4u16 } else { 3u16 };
                for m in 0..card {
                    let slice_has_win = r
                        .cells()
                        .filter(|cell| cell[d] == m)
                        .any(|cell| sm.cell_winner(&cell) == ClassId(k as u16));
                    for mode in [BoundMode::Basic, BoundMode::PairwiseRatio] {
                        if sm.pinned_must_lose(&r, k, d, m, mode) {
                            assert!(
                                !slice_has_win,
                                "unsound shrink: class {k} dim {d} member {m} under {mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cell_winner_matches_predictor_on_every_cell() {
        let nb = table1();
        let sm = ScoreModel::from_naive_bayes(&nb);
        for m0 in 0..4u16 {
            for m1 in 0..3u16 {
                assert_eq!(sm.cell_winner(&[m0, m1]), nb.predict(&[m0, m1]), "cell ({m0},{m1})");
            }
        }
    }

    #[test]
    fn single_cell_region_status_is_decided_for_point_models() {
        let nb = table1();
        let sm = ScoreModel::from_naive_bayes(&nb);
        let schema = nb.schema();
        for m0 in 0..4u16 {
            for m1 in 0..3u16 {
                let cell = [m0, m1];
                let r = Region::cell(schema, &cell);
                let winner = sm.cell_winner(&cell);
                for k in 0..3usize {
                    // Pairwise bounds are exact per pair on point cells,
                    // so the status must be fully decided.
                    let st = sm.region_status(&r, k, BoundMode::PairwiseRatio);
                    if winner.index() == k {
                        assert_eq!(st, RegionStatus::MustWin, "cell {cell:?} class {k}");
                    } else {
                        assert_eq!(st, RegionStatus::MustLose, "cell {cell:?} class {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_is_at_least_as_decisive_as_basic() {
        let nb = table1();
        let sm = ScoreModel::from_naive_bayes(&nb);
        let schema = nb.schema();
        // Over a sample of subregions, whenever Basic decides, Pairwise
        // must agree (both are sound, Pairwise is tighter).
        let sets0 = [vec![0u16, 1], vec![2, 3], vec![0, 1, 2, 3], vec![1, 2]];
        let sets1 = [vec![0u16], vec![0, 1], vec![2], vec![0, 1, 2]];
        for s0 in &sets0 {
            for s1 in &sets1 {
                let r = Region::full(schema)
                    .with_dim(0, DimSet::Set(mpq_types::MemberSet::of(4, s0.iter().copied())))
                    .with_dim(1, DimSet::Set(mpq_types::MemberSet::of(3, s1.iter().copied())));
                for k in 0..3usize {
                    let b = sm.region_status(&r, k, BoundMode::Basic);
                    let p = sm.region_status(&r, k, BoundMode::PairwiseRatio);
                    match b {
                        RegionStatus::MustWin => assert_eq!(p, RegionStatus::MustWin),
                        RegionStatus::MustLose => assert_eq!(p, RegionStatus::MustLose),
                        RegionStatus::Ambiguous => {} // pairwise may decide
                    }
                }
            }
        }
    }

    #[test]
    fn kmeans_intervals_bound_raw_scores() {
        let schema = Schema::new(vec![
            Attribute::new("x", AttrDomain::binned(vec![2.0, 4.0]).unwrap()),
            Attribute::new("y", AttrDomain::binned(vec![3.0]).unwrap()),
        ])
        .unwrap();
        let km = KMeans::from_parts(
            schema,
            vec![vec![1.0, 1.0], vec![5.0, 4.0]],
            vec![vec![1.0, 0.5], vec![2.0, 1.0]],
        )
        .unwrap();
        let sm = ScoreModel::from_kmeans(&km);
        // Sample raw points in the *bounded* bins and check the cell
        // interval brackets the true score.
        for &x in &[2.5, 3.0, 3.9] {
            for &y in &[0.0, 1.5, 2.9] {
                let cell = [1u16, 0u16]; // x in (2,4], y in (-inf,3]
                // y bin is unbounded below; lo bound must be -inf.
                for k in 0..2usize {
                    let truth = km.score_raw(&[x, y], ClassId(k as u16));
                    let lo = sm.cell_score_lo(&cell, k);
                    let hi = sm.cell_score_hi(&cell, k);
                    assert!(lo <= truth && truth <= hi, "k={k} x={x} y={y}: {lo} <= {truth} <= {hi}");
                }
            }
        }
    }

    #[test]
    fn unbounded_bins_get_infinite_lower_bounds() {
        let (lo, hi) = neg_quad_extrema(f64::NEG_INFINITY, 5.0, 3.0, 1.0);
        assert_eq!(lo, f64::NEG_INFINITY);
        assert_eq!(hi, 0.0, "centroid inside interval: max contribution 0");
        let (lo2, hi2) = neg_quad_extrema(6.0, 8.0, 3.0, 2.0);
        assert!((hi2 - (-2.0 * 9.0)).abs() < 1e-12, "closest endpoint 6");
        assert!((lo2 - (-2.0 * 25.0)).abs() < 1e-12, "farthest endpoint 8");
    }

    #[test]
    fn tie_rank_orders_by_prior() {
        assert_eq!(tie_rank_by_prior(&[0.2, 0.5, 0.3]), vec![2, 0, 1]);
        // Equal priors: lower class id wins.
        assert_eq!(tie_rank_by_prior(&[0.5, 0.5]), vec![0, 1]);
    }

    #[test]
    fn quad_range_handles_all_shapes() {
        // Upward parabola x² on [-1, 2]: min 0 at vertex, max 4 at x=2.
        assert_eq!(quad_range(1.0, 0.0, 0.0, -1.0, 2.0), (0.0, 4.0));
        // Downward parabola −x² on [1, 3]: vertex outside, max at 1.
        assert_eq!(quad_range(-1.0, 0.0, 0.0, 1.0, 3.0), (-9.0, -1.0));
        // Linear 2x + 1 on (−inf, 5]: min −inf, max 11.
        assert_eq!(quad_range(0.0, 2.0, 1.0, f64::NEG_INFINITY, 5.0), (f64::NEG_INFINITY, 11.0));
        // Linear −x on (−inf, 0]: min 0... no: −x at 0 is 0, at −inf is +inf.
        assert_eq!(quad_range(0.0, -1.0, 0.0, f64::NEG_INFINITY, 0.0), (0.0, f64::INFINITY));
        // Constant on an unbounded interval.
        assert_eq!(quad_range(0.0, 0.0, 3.0, f64::NEG_INFINITY, f64::INFINITY), (3.0, 3.0));
        // Upward parabola on (−inf, +inf): min at vertex, max +inf.
        let (lo, hi) = quad_range(1.0, -2.0, 0.0, f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(hi, f64::INFINITY);
        assert_eq!(lo, -1.0, "vertex at x=1 gives 1-2=-1");
    }

    #[test]
    fn quad_diff_range_brackets_sampled_differences() {
        // Two k-means-style terms on a bin; sample densely and check the
        // analytic range brackets every sample and is attained.
        let qd = QuadDim {
            terms: vec![
                QuadTerm { k0: 0.0, w: 1.0, c: 1.0 },
                QuadTerm { k0: 0.5, w: 2.0, c: 4.0 },
            ],
            bins: vec![(0.0, 3.0)],
        };
        let (lo, hi) = qd.diff_range(0, 0, 1);
        let f = |x: f64| qd.terms[0].eval(x) - qd.terms[1].eval(x);
        let mut seen_lo = f64::INFINITY;
        let mut seen_hi = f64::NEG_INFINITY;
        for i in 0..=300 {
            let x = 0.0 + 3.0 * i as f64 / 300.0;
            let v = f(x);
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "sample {v} outside [{lo}, {hi}]");
            seen_lo = seen_lo.min(v);
            seen_hi = seen_hi.max(v);
        }
        assert!((seen_lo - lo).abs() < 1e-2 && (seen_hi - hi).abs() < 1e-2, "range is tight");
    }

    #[test]
    fn kmeans_pairwise_bound_decides_unbounded_bins() {
        // With equal weights the score difference is linear, so even the
        // unbounded end bins are decidable — the independent-interval
        // bound could never do this.
        let schema = Schema::new(vec![
            Attribute::new("x", AttrDomain::binned(vec![2.0, 4.0, 6.0]).unwrap()),
        ])
        .unwrap();
        let km = KMeans::from_parts(
            schema.clone(),
            vec![vec![1.0], vec![7.0]],
            vec![vec![1.0], vec![1.0]],
        )
        .unwrap();
        let sm = ScoreModel::from_kmeans(&km);
        // Bin 0 = (-inf, 2]: every point is closer to centroid 1.0.
        let r = Region::full(&schema).with_dim(0, DimSet::Range { lo: 0, hi: 0 });
        assert_eq!(sm.region_status(&r, 0, BoundMode::PairwiseRatio), RegionStatus::MustWin);
        assert_eq!(sm.region_status(&r, 1, BoundMode::PairwiseRatio), RegionStatus::MustLose);
        // Bin 3 = (6, inf): cluster 1 wins.
        let r = Region::full(&schema).with_dim(0, DimSet::Range { lo: 3, hi: 3 });
        assert_eq!(sm.region_status(&r, 1, BoundMode::PairwiseRatio), RegionStatus::MustWin);
        assert_eq!(sm.region_status(&r, 0, BoundMode::PairwiseRatio), RegionStatus::MustLose);
    }

    #[test]
    fn gmm_intervals_bound_raw_scores() {
        let schema = Schema::new(vec![Attribute::new(
            "x",
            AttrDomain::binned(vec![0.0, 2.0, 4.0]).unwrap(),
        )])
        .unwrap();
        let gmm = Gmm::from_parts(
            schema,
            vec![0.6, 0.4],
            vec![vec![1.0], vec![3.0]],
            vec![vec![0.5], vec![2.0]],
        )
        .unwrap();
        let sm = ScoreModel::from_gmm(&gmm);
        for &x in &[0.5, 1.0, 1.99] {
            let cell = [1u16]; // (0, 2]
            for k in 0..2usize {
                let truth = gmm.score_raw(&[x], ClassId(k as u16));
                assert!(sm.cell_score_lo(&cell, k) <= truth);
                assert!(truth <= sm.cell_score_hi(&cell, k));
            }
        }
    }
}
