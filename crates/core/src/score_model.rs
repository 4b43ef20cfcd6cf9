//! Additive score models: the table Algorithm 1 bounds over.
//!
//! Naive Bayes (Eq. 2), centroid-based clustering and diagonal-Gaussian
//! model-based clustering all score a point as
//! `score_k(x) = prior_k + Σ_d contrib_{dk}(x_d)` and predict the argmax
//! class — §3.3 of the paper makes exactly this observation to reuse the
//! naive-Bayes algorithm for clustering. A [`ScoreModel`] stores, for
//! every (dimension, member, class position), an **interval** `[lo, hi]`
//! bounding the per-dimension contribution over that member:
//!
//! * at the discretized inputs (the default, and the only form naive
//!   Bayes has): `lo == hi`, the very terms of the model's
//!   [`ProxyScore`] — the kernel that decides every row — in its class
//!   positions, so a tie goes to the lower position;
//! * raw-sound k-means / GMM: the min and max of the per-dimension
//!   quadratic over the member's bin, so every *raw* point of the bin is
//!   bounded, not just its representative.
//!
//! All values live in the log domain. How each decision stands up to
//! rounding:
//!
//! * every per-class sum (a cell's, a region's floor or ceiling, a
//!   pinned slice's) adds its terms as the kernel adds a row's, prior
//!   where the kernel adds it; rounding is monotone, so a floor never
//!   exceeds, and a ceiling never falls below, the kernel's sum at any
//!   cell under it, and [`BoundMode::Basic`] compares them exactly;
//! * the pairwise bound and the shrink test sum differences, which
//!   round otherwise than the kernel's two separate sums, so they decide
//!   only beyond the table's rounding margin (see [`ScoreModel`]);
//! * a single cell of a point table is decided by the kernel itself.

use crate::proxy::ProxyScore;
use crate::region::Region;
use mpq_types::{ClassId, Member, Row};
use mpq_models::{Gmm, KMeans};

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

/// Per-dimension score table: `lo/hi[m * K + p]` bound the contribution
/// of member `m` to the score of the class at position `p`.
#[derive(Debug, Clone, PartialEq)]
pub struct DimTable {
    k: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl DimTable {
    /// Lower bound of member `m`'s contribution to position `p`.
    #[inline]
    pub fn lo(&self, m: Member, p: usize) -> f64 {
        self.lo[m as usize * self.k + p]
    }

    /// Upper bound of member `m`'s contribution to position `p`.
    #[inline]
    pub fn hi(&self, m: Member, p: usize) -> f64 {
        self.hi[m as usize * self.k + p]
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

/// An additive interval score model over the discretized grid, in the
/// class positions of the kernel it bounds: position `p` holds class
/// [`ScoreModel::class_at`]`(p)`, and of equal scores the lower position
/// wins.
///
/// **Rounding margin.** The pairwise bound and the shrink test decide
/// only when their computed difference clears
/// `margin = 4·(n+2)·ε·M`, where `n` is the number of dimensions, `ε`
/// is `f64::EPSILON` and `M = max_p (|prior_p| + Σ_d max_m |term|)` over
/// the table's finite terms. The kernel computes `S_k(x)` by `n` rounded
/// additions of values whose partial sums stay within `M`, so `S_k(x)`
/// is within `n·(ε/2)·M` of its exact value (first order; the slack
/// below absorbs the rest), and so is `S_j(x)`. A difference bound is
/// at most `2n + 4` rounded operations on values within `2M` — the prior
/// difference, one rounded difference and one addition per dimension,
/// and for shrink's "sum without dimension `d`, plus member `m`" two
/// more — so it is within `(2n+4)·ε·M` of the exact bound, and Basic
/// shrink's floors and ceilings (`n + 2` operations within `M`) within
/// `(n+2)·(ε/2)·M` each. Every case totals at most `(3n+4)·ε·M`, below
/// the margin: a difference bound beyond it has the sign of
/// `S_k(x) − S_j(x)` at every cell it bounds, ties included. For the
/// raw-sound table's quadratic dimensions the margin is a floor of the
/// same order, not a proof: that table bounds raw in-bin points, which
/// the model scores from raw coordinates, not from tabulated terms.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreModel {
    /// Additive per-position constant (log prior / log τ / 0 for k-means).
    prior: Vec<f64>,
    /// Whether the kernel adds the prior before the dimension terms
    /// (naive Bayes) or after them (clusterers).
    prior_first: bool,
    dims: Vec<DimTable>,
    /// Exact quadratic description per dimension, where the model has
    /// one (the raw-sound table's ordered k-means/GMM dimensions). Used
    /// by the pairwise bound; dimensions without a quadratic fall back to
    /// the interval tables, which are exact points there anyway. Empty
    /// when no dimension is quadratic.
    quads: Vec<Option<QuadDim>>,
    /// The class at each position.
    class_at: Vec<ClassId>,
    /// The kernel whose terms a point table holds: it decides single
    /// cells. `None` for the raw-sound interval table.
    kernel: Option<ProxyScore>,
    /// See the type's documentation.
    margin: f64,
}

impl ScoreModel {
    fn new(
        prior: Vec<f64>,
        prior_first: bool,
        dims: Vec<DimTable>,
        quads: Vec<Option<QuadDim>>,
        class_at: Vec<ClassId>,
        kernel: Option<ProxyScore>,
    ) -> ScoreModel {
        let size = |v: &f64| if v.is_finite() { v.abs() } else { 0.0 };
        let largest = |p: usize| {
            let term = |t: &DimTable| {
                t.lo.iter().chain(&t.hi).skip(p).step_by(t.k).map(size).fold(0.0, f64::max)
            };
            size(&prior[p]) + dims.iter().map(term).sum::<f64>()
        };
        let scale = (0..prior.len()).map(largest).fold(0.0, f64::max);
        let margin = 4.0 * (dims.len() + 2) as f64 * f64::EPSILON * scale;
        ScoreModel { prior, prior_first, dims, quads, class_at, kernel, margin }
    }

    /// The point table of `proxy`: the kernel's own terms, prior order
    /// and class positions, so every bound is over the sums
    /// `decide_batch` computes and a single cell is decided by the
    /// kernel itself.
    pub fn from_proxy(proxy: &ProxyScore) -> ScoreModel {
        let (prior, prior_first, contrib, class_at) = proxy.parts();
        let k = prior.len();
        let dims = contrib.iter().map(|t| DimTable { k, lo: t.clone(), hi: t.clone() });
        let kernel = Some(proxy.clone());
        let (prior, class_at) = (prior.to_vec(), class_at.to_vec());
        ScoreModel::new(prior, prior_first, dims.collect(), Vec::new(), class_at, kernel)
    }

    /// Raw-sound interval tables for centroid-based clustering: on
    /// ordered dimensions the contribution of bin `m` to cluster `k` is
    /// `−w (x − c)²` for `x` in the bin, whose extrema over the interval
    /// are attained at the closest / farthest endpoint from the centroid;
    /// on categorical dimensions the k-prototypes mismatch term
    /// contributes the *point* value `0` (member equals the cluster's
    /// mode) or `−w`. Positions are cluster ids, the prior (`0`) last.
    pub fn from_kmeans(km: &KMeans) -> ScoreModel {
        use mpq_models::Classifier as _;
        let k = km.n_classes();
        let mut quads = Vec::with_capacity(km.schema().len());
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
        ScoreModel::new(vec![0.0; k], false, dims, quads, by_id(k), None)
    }

    /// Raw-sound interval tables for a diagonal-covariance Gaussian
    /// mixture: the per-dimension log density `−½ln(2πσ²) − (x−μ)²/2σ²`
    /// is again a negated quadratic over each bin. Positions are
    /// component ids, `log τ` added last, as `Gmm::score_raw` adds it.
    pub fn from_gmm(gmm: &Gmm) -> ScoreModel {
        use mpq_models::Classifier as _;
        const LOG_2PI: f64 = 1.8378770664093453;
        let k = gmm.n_classes();
        let prior: Vec<f64> = (0..k).map(|c| gmm.log_tau(ClassId(c as u16))).collect();
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
                quads.push(Some(QuadDim { terms, bins }));
                DimTable { k, lo, hi }
            })
            .collect();
        ScoreModel::new(prior, false, dims, quads, by_id(k), None)
    }

    /// Number of classes `K`.
    pub fn n_classes(&self) -> usize {
        self.prior.len()
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// The per-dimension table for dimension `d`, by position.
    pub fn dim(&self, d: usize) -> &DimTable {
        &self.dims[d]
    }

    /// The additive constant of position `p`.
    pub fn prior(&self, p: usize) -> f64 {
        self.prior[p]
    }

    /// The class at position `p`.
    pub fn class_at(&self, p: usize) -> ClassId {
        self.class_at[p]
    }

    /// The position of `class`.
    pub fn position(&self, class: ClassId) -> usize {
        self.class_at.iter().position(|&c| c == class).expect("a class of this model")
    }

    /// True when all intervals are points: the prediction is fully
    /// determined by the cell, and the kernel decides it.
    pub fn is_point_model(&self) -> bool {
        self.kernel.is_some()
    }

    /// The kernel's class at `cell` — the model's prediction — for a
    /// point table; `None` for the raw-sound interval table.
    pub fn cell_winner(&self, cell: &Row) -> Option<ClassId> {
        self.kernel.as_ref().map(|kernel| kernel.decide(cell))
    }

    /// Position `p`'s score from one term per dimension, in dimension
    /// order, the prior added where the kernel adds it: the one order
    /// every per-class sum here uses.
    #[inline]
    fn sum(&self, p: usize, terms: impl Iterator<Item = f64>) -> f64 {
        let start = if self.prior_first { self.prior[p] } else { 0.0 };
        let s = terms.fold(start, |s, t| s + t);
        if self.prior_first {
            s
        } else {
            s + self.prior[p]
        }
    }

    /// Lower bound of position `p`'s score at `cell` (exact for point
    /// tables).
    pub fn cell_score_lo(&self, cell: &Row, p: usize) -> f64 {
        self.sum(p, cell.iter().zip(&self.dims).map(|(&m, t)| t.lo(m, p)))
    }

    /// Upper bound of position `p`'s score at `cell`.
    pub fn cell_score_hi(&self, cell: &Row, p: usize) -> f64 {
        self.sum(p, cell.iter().zip(&self.dims).map(|(&m, t)| t.hi(m, p)))
    }

    // ------------------------------------------------------------------
    // Region bounds (paper §3.2.2 / §3.2.3)
    // ------------------------------------------------------------------

    /// `minProb`-style lower bound of position `p`'s score over `region`
    /// (log domain).
    pub fn region_score_min(&self, region: &Region, p: usize) -> f64 {
        self.sum(p, self.dims.iter().enumerate().map(|(d, t)| region_lo(t, region, d, p)))
    }

    /// `maxProb`-style upper bound of position `p`'s score over `region`.
    pub fn region_score_max(&self, region: &Region, p: usize) -> f64 {
        self.sum(p, self.dims.iter().enumerate().map(|(d, t)| region_hi(t, region, d, p)))
    }

    /// Range of the per-member difference `contrib_k(m) − contrib_j(m)`
    /// on dimension `d`: exact for point tables and quadratic dimensions,
    /// the independent-interval bound otherwise.
    #[inline]
    pub(crate) fn member_diff_range(&self, d: usize, m: Member, k: usize, j: usize) -> (f64, f64) {
        if let Some(qd) = self.quads.get(d).and_then(|q| q.as_ref()) {
            return qd.diff_range(m, k, j);
        }
        let table = &self.dims[d];
        (table.lo(m, k) - table.hi(m, j), table.hi(m, k) - table.lo(m, j))
    }

    /// Lower bound on `score_k − score_j` over the region, decomposed per
    /// dimension (the Lemma 3.2 ratio bound, in the log domain and
    /// generalized to any pair of positions). Exact per pair, up to
    /// rounding, for point tables (naive Bayes) *and* for quadratic
    /// dimensions (k-means, GMM), where the per-dimension difference of
    /// two quadratics is minimized analytically over each bin.
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

    /// Classifies `region` with respect to position `k`.
    ///
    /// Soundness contract: `MustLose` is returned only when the kernel
    /// predicts `k` at **no** cell of the region (ties included);
    /// `MustWin` only when it predicts `k` at **every** cell. `Ambiguous`
    /// is always safe.
    pub fn region_status(&self, region: &Region, k: usize, mode: BoundMode) -> RegionStatus {
        if region.is_cell() {
            let cell = region.cells().next().expect("a cell");
            if let Some(winner) = self.cell_winner(&cell) {
                return if winner == self.class_at[k] {
                    RegionStatus::MustWin
                } else {
                    RegionStatus::MustLose
                };
            }
        }
        match mode {
            BoundMode::Basic => self.status_basic(region, k),
            BoundMode::PairwiseRatio => self.status_pairwise(region, k),
        }
    }

    fn status_basic(&self, region: &Region, k: usize) -> RegionStatus {
        let min_k = self.region_score_min(region, k);
        let max_k = self.region_score_max(region, k);
        let mut win = true;
        for j in 0..self.n_classes() {
            if j == k {
                continue;
            }
            let min_j = self.region_score_min(region, j);
            let max_j = self.region_score_max(region, j);
            // MUST-LOSE: j's floor beats k's ceiling everywhere.
            if min_j > max_k || (min_j == max_k && j < k) {
                return RegionStatus::MustLose;
            }
            // Win against j requires k's floor to beat j's ceiling.
            if !(min_k > max_j || (min_k == max_j && k < j)) {
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
        for j in 0..self.n_classes() {
            if j == k {
                continue;
            }
            if self.region_diff_max(region, k, j) < -self.margin {
                return RegionStatus::MustLose;
            }
            // Once one rival can tie or win, no floor can make k win.
            if win && self.region_diff_min(region, k, j) <= self.margin {
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
    /// when deriving position `k`'s envelope: the paper's *shrink* test —
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
        let mut rivals = (0..self.n_classes()).filter(|&j| j != k);
        match mode {
            BoundMode::Basic => {
                // maxProb(c_k, d, m) vs minProb(c_j, d, m), paper §3.2.2.
                let max_k = self.pinned_score_max(region, k, d, m);
                rivals.any(|j| {
                    let min_j = self.pinned_score_min(region, j, d, m);
                    min_j > max_k || (min_j == max_k && j < k)
                })
            }
            BoundMode::PairwiseRatio => rivals.any(|j| {
                let mut dmax = self.prior[k] - self.prior[j];
                for e in 0..self.dims.len() {
                    dmax += if e == d {
                        self.member_diff_range(e, m, k, j).1
                    } else {
                        region
                            .dim(e)
                            .iter()
                            .map(|mm| self.member_diff_range(e, mm, k, j).1)
                            .fold(f64::NEG_INFINITY, f64::max)
                    };
                }
                dmax < -self.margin
            }),
        }
    }

    /// Batched shrink (the paper's shrink step, computed with per-pass
    /// precomputed bounds): repeatedly removes members whose pinned slice
    /// must lose — arbitrary members on unordered dimensions, end members
    /// only on ordered ones — until a fixpoint. Returns the shrunk region
    /// (`None` when it empties) and the removed `(dim, member)` pairs.
    ///
    /// The per-member bound is formed as `sum − dim_contribution +
    /// member_value`, which rounds otherwise than the kernel's sums, so
    /// both modes remove a member only beyond the rounding margin.
    pub fn shrink_region(
        &self,
        region: &Region,
        k: usize,
        mode: BoundMode,
    ) -> (Option<Region>, Vec<(usize, Member)>) {
        let kk = self.n_classes();
        let n = self.dims.len();
        let margin = self.margin;
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
                                                > max_k + margin
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
                                        base + self.member_diff_range(d, m, k, j).1 < -margin
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

    fn pinned_score_min(&self, region: &Region, p: usize, d: usize, m: Member) -> f64 {
        let terms = self.dims.iter().enumerate();
        self.sum(p, terms.map(|(e, t)| if e == d { t.lo(m, p) } else { region_lo(t, region, e, p) }))
    }

    fn pinned_score_max(&self, region: &Region, p: usize, d: usize, m: Member) -> f64 {
        let terms = self.dims.iter().enumerate();
        self.sum(p, terms.map(|(e, t)| if e == d { t.hi(m, p) } else { region_hi(t, region, e, p) }))
    }
}

/// The smallest lower bound of position `p`'s term over `region`'s
/// members of dimension `d`.
fn region_lo(t: &DimTable, region: &Region, d: usize, p: usize) -> f64 {
    region.dim(d).iter().map(|m| t.lo(m, p)).fold(f64::INFINITY, f64::min)
}

/// The largest upper bound of position `p`'s term over `region`'s
/// members of dimension `d`.
fn region_hi(t: &DimTable, region: &Region, d: usize, p: usize) -> f64 {
    region.dim(d).iter().map(|m| t.hi(m, p)).fold(f64::NEG_INFINITY, f64::max)
}

/// Positions by class id: the clusterers' tie resolution (the first
/// cluster reaching the maximum score wins).
fn by_id(k: usize) -> Vec<ClassId> {
    (0..k as u16).map(ClassId).collect()
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
    use mpq_models::{Classifier as _, NaiveBayes};
    use mpq_types::{AttrDomain, Attribute, Schema};

    /// The point table of the paper's Table 1 naive Bayes model, and
    /// the position of each class in it.
    fn table1() -> (NaiveBayes, ScoreModel, impl Fn(u16) -> usize) {
        let nb = crate::paper_table1_model();
        let sm = ScoreModel::from_proxy(&ProxyScore::from_naive_bayes(&nb).unwrap());
        let position = {
            let sm = sm.clone();
            move |c| sm.position(ClassId(c))
        };
        (nb, sm, position)
    }

    #[test]
    fn figure2a_bounds_match_paper() {
        // Starting region [0..3],[0..2]: the paper's Figure 2(a) prints
        // MinProb (.0002, .0005, .0005) and MaxProb (.07, .1, .07),
        // rounded to one significant digit.
        let (nb, sm, p) = table1();
        let r = Region::full(nb.schema());
        let min: Vec<f64> = (0..3).map(|c| sm.region_score_min(&r, p(c)).exp()).collect();
        let max: Vec<f64> = (0..3).map(|c| sm.region_score_max(&r, p(c)).exp()).collect();
        let expect_min = [0.33 * 0.05 * 0.01, 0.5 * 0.1 * 0.01, 0.17 * 0.05 * 0.05];
        let expect_max = [0.33 * 0.4 * 0.5, 0.5 * 0.4 * 0.7, 0.17 * 0.4 * 0.9];
        for k in 0..3 {
            assert!((min[k] - expect_min[k]).abs() < 1e-12, "min[{k}] = {}", min[k]);
            assert!((max[k] - expect_max[k]).abs() < 1e-12, "max[{k}] = {}", max[k]);
        }
        // Paper: status for c1 on the starting region is AMBIGUOUS.
        assert_eq!(sm.region_status(&r, p(0), BoundMode::Basic), RegionStatus::Ambiguous);
    }

    #[test]
    fn positions_follow_the_kernels_tie_rank() {
        // Naive Bayes ties go to the higher prior: c2 (.5), c1 (.33), c3.
        let (_, sm, p) = table1();
        assert_eq!([p(0), p(1), p(2)], [1, 0, 2]);
        assert_eq!(sm.class_at(0), ClassId(1));
        assert!(sm.is_point_model());
    }

    #[test]
    fn figure2b_pinned_bounds_flag_d1_m0_as_must_lose() {
        // Figure 2(b): pinning d1 to its first member gives c1 revised
        // bounds max = .33·.4·.01 ≈ .0014 while c2's floor is
        // .5·.1·.7 = .035 ≈ .03 — MUST-LOSE, so shrink drops the member.
        let (nb, sm, p) = table1();
        let r = Region::full(nb.schema());
        let max_c1 = sm.pinned_score_max(&r, p(0), 1, 0).exp();
        let min_c2 = sm.pinned_score_min(&r, p(1), 1, 0).exp();
        assert!((max_c1 - 0.33 * 0.4 * 0.01).abs() < 1e-12);
        assert!((min_c2 - 0.5 * 0.1 * 0.7).abs() < 1e-12);
        assert!(sm.pinned_must_lose(&r, p(0), 1, 0, BoundMode::Basic));
        // The other two members of d1 host winning cells for c1 and must
        // survive the shrink test.
        assert!(!sm.pinned_must_lose(&r, p(0), 1, 1, BoundMode::Basic));
        assert!(!sm.pinned_must_lose(&r, p(0), 1, 2, BoundMode::Basic));
    }

    #[test]
    fn figure2c_shrunk_region_is_ambiguous() {
        // Figure 2(c): after dropping d1's first member the region
        // [0..3] × {m1, m2} has c1 bounds (.009, .07) vs c2 (.0005, .06):
        // still AMBIGUOUS.
        let (nb, sm, p) = table1();
        let r = Region::full(nb.schema()).with_dim(1, DimSet::Set(mpq_types::MemberSet::of(3, [1, 2])));
        assert!((sm.region_score_min(&r, p(0)).exp() - 0.33 * 0.05 * 0.49).abs() < 1e-12);
        assert!((sm.region_score_max(&r, p(1)).exp() - 0.5 * 0.4 * 0.29).abs() < 1e-12);
        assert_eq!(sm.region_status(&r, p(0), BoundMode::Basic), RegionStatus::Ambiguous);
    }

    #[test]
    fn figure2d_first_child_is_must_win() {
        // Figure 2(d): splitting d0 into [0..1] / [2..3], the first child
        // {m0,m1} × {m1,m2} is MUST-WIN for c1: its floor .33·.4·.49 ≈ .065
        // beats c2's ceiling .5·.1·.29 ≈ .015 and c3's .17·.05·.9 ≈ .008.
        let (nb, sm, p) = table1();
        let r = Region::full(nb.schema())
            .with_dim(0, DimSet::Set(mpq_types::MemberSet::of(4, [0, 1])))
            .with_dim(1, DimSet::Set(mpq_types::MemberSet::of(3, [1, 2])));
        assert!((sm.region_score_min(&r, p(0)).exp() - 0.33 * 0.4 * 0.49).abs() < 1e-12);
        assert!((sm.region_score_max(&r, p(1)).exp() - 0.5 * 0.1 * 0.29).abs() < 1e-12);
        assert_eq!(sm.region_status(&r, p(0), BoundMode::Basic), RegionStatus::MustWin);
    }

    #[test]
    fn figure2e_second_child_is_ambiguous_then_shrinks_empty() {
        // Figure 2(e): the second child {m2,m3} × {m1,m2} is AMBIGUOUS,
        // and a second shrink pass along d1 empties it (no c1 cells).
        let (nb, sm, p) = table1();
        let r = Region::full(nb.schema())
            .with_dim(0, DimSet::Set(mpq_types::MemberSet::of(4, [2, 3])))
            .with_dim(1, DimSet::Set(mpq_types::MemberSet::of(3, [1, 2])));
        assert_eq!(sm.region_status(&r, p(0), BoundMode::Basic), RegionStatus::Ambiguous);
        // Both remaining members of d1 fail for c1 in this region.
        assert!(sm.pinned_must_lose(&r, p(0), 1, 1, BoundMode::Basic));
        assert!(sm.pinned_must_lose(&r, p(0), 1, 2, BoundMode::Basic));
    }

    #[test]
    fn shrink_test_is_sound_everywhere() {
        // No member whose slice contains a winning cell for the target
        // class may ever be reported MUST-LOSE, under either bound mode.
        let (nb, sm, _) = table1();
        let r = Region::full(nb.schema());
        for k in 0..3usize {
            for d in 0..2usize {
                let card = if d == 0 { 4u16 } else { 3u16 };
                for m in 0..card {
                    let slice_has_win = r
                        .cells()
                        .filter(|cell| cell[d] == m)
                        .any(|cell| sm.cell_winner(&cell) == Some(sm.class_at(k)));
                    for mode in [BoundMode::Basic, BoundMode::PairwiseRatio] {
                        if sm.pinned_must_lose(&r, k, d, m, mode) {
                            assert!(
                                !slice_has_win,
                                "unsound shrink: position {k} dim {d} member {m} under {mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cell_winner_matches_predictor_on_every_cell() {
        let (nb, sm, _) = table1();
        for m0 in 0..4u16 {
            for m1 in 0..3u16 {
                let want = Some(nb.predict(&[m0, m1]));
                assert_eq!(sm.cell_winner(&[m0, m1]), want, "cell ({m0},{m1})");
            }
        }
    }

    #[test]
    fn single_cell_region_status_is_decided_for_point_models() {
        let (nb, sm, p) = table1();
        let schema = nb.schema();
        for m0 in 0..4u16 {
            for m1 in 0..3u16 {
                let cell = [m0, m1];
                let r = Region::cell(schema, &cell);
                let winner = nb.predict(&cell);
                for c in 0..3u16 {
                    // The kernel decides a single cell of a point table.
                    for mode in [BoundMode::Basic, BoundMode::PairwiseRatio] {
                        let st = sm.region_status(&r, p(c), mode);
                        let want = if winner == ClassId(c) {
                            RegionStatus::MustWin
                        } else {
                            RegionStatus::MustLose
                        };
                        assert_eq!(st, want, "cell {cell:?} class {c} {mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_is_at_least_as_decisive_as_basic() {
        let (nb, sm, _) = table1();
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

    /// Two classes whose scores are one real number, `½ · 0.1 · 0.4`
    /// against `½ · 0.2 · 0.2`, on both cells of a two-cell region. The
    /// kernel's two rounded log sums give it to `c1`; the difference
    /// summed term by term, `(ln .1 − ln .2) + (ln .4 − ln .2)`, rounds
    /// to the other side of zero. Within the rounding margin the pairwise
    /// bound decides neither way, and the derivation ends on the kernel's
    /// single-cell decisions.
    #[test]
    fn pairwise_leaves_a_near_tie_to_the_kernel() {
        let schema = Schema::new(vec![
            Attribute::new("x", AttrDomain::categorical(["u", "v"])),
            Attribute::new("y", AttrDomain::categorical(["w"])),
        ])
        .unwrap();
        let cond = [vec![vec![0.1, 0.2]; 2], vec![vec![0.4, 0.2]]];
        let names = vec!["c0".into(), "c1".into()];
        let nb = NaiveBayes::from_probabilities(schema.clone(), names, &[0.5, 0.5], &cond).unwrap();
        let sm = ScoreModel::from_proxy(&ProxyScore::from_naive_bayes(&nb).unwrap());
        let (c0, c1) = (sm.position(ClassId(0)), sm.position(ClassId(1)));
        assert!(sm.cell_score_lo(&[0, 0], c1) > sm.cell_score_lo(&[0, 0], c0));
        assert!(sm.region_diff_min(&Region::full(&schema), c0, c1) > 0.0, "the rounding hole");
        let full = Region::full(&schema);
        assert_eq!(sm.region_status(&full, c0, BoundMode::PairwiseRatio), RegionStatus::Ambiguous);
        assert_eq!(sm.region_status(&full, c1, BoundMode::PairwiseRatio), RegionStatus::Ambiguous);
        assert!(!sm.pinned_must_lose(&full, c1, 0, 0, BoundMode::PairwiseRatio));
        for (class, cells) in [(ClassId(0), 0), (ClassId(1), 2)] {
            let env = crate::derive_topdown(&sm, &schema, class, &Default::default());
            assert!(env.exact);
            assert_eq!(env.covered_cells(), cells, "{class:?}");
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
