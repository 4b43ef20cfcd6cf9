//! Envelope derivation for clustering models (§3.3) and the unified
//! [`EnvelopeProvider`] surface over every model family.

use crate::covering::cover_cells;
use crate::envelope::{DeriveOptions, DeriveStats, Envelope};
use crate::error::CoreError;
use crate::proxy::ProxyScore;
use crate::score_model::ScoreModel;
use crate::topdown::{merge_regions, try_derive_topdown};
use crate::tree_envelope::{ruleset_envelope, tree_envelope};
use mpq_models::{BoundaryClustering, Classifier, DecisionTree, Gmm, KMeans, NaiveBayes, RuleSet};
use mpq_types::{ClassId, Schema};

/// A model that can derive an upper envelope per output class. This is
/// the single entry point the engine's rewriter uses: *"for every class c
/// that the model M predicts, derive M_c(x)"*.
pub trait EnvelopeProvider: Classifier {
    /// Derives the upper envelope of one class.
    fn envelope(&self, class: ClassId, opts: &DeriveOptions) -> Envelope;

    /// Derives envelopes for all classes (the training-time
    /// precomputation of §4.2).
    fn envelopes(&self, opts: &DeriveOptions) -> Vec<Envelope> {
        (0..self.n_classes()).map(|k| self.envelope(ClassId(k as u16), opts)).collect()
    }

    /// Fallible derivation of one class's envelope, honoring
    /// `opts.time_budget` and other resource limits. The default
    /// delegates to the infallible path — appropriate for exact
    /// extractions (trees, rules, boundary clusters) whose cost is
    /// linear in model size and cannot meaningfully time out.
    fn try_envelope(&self, class: ClassId, opts: &DeriveOptions) -> Result<Envelope, CoreError> {
        Ok(self.envelope(class, opts))
    }

    /// Fallible derivation for all classes; the first failure aborts.
    /// Engines use this at model registration so a timeout can degrade
    /// the model to trivial envelopes instead of failing the statement.
    fn try_envelopes(&self, opts: &DeriveOptions) -> Result<Vec<Envelope>, CoreError> {
        (0..self.n_classes()).map(|k| self.try_envelope(ClassId(k as u16), opts)).collect()
    }

    /// A tabulated proxy score reproducing this model's prediction
    /// bit-for-bit on every row (see [`ProxyScore`]), or `None` for
    /// model families without an additive-score form (or whose table
    /// could sum to NaN). Engines use it to cascade: the proxy decides
    /// the model's mining predicates without the scorer.
    fn proxy(&self) -> Option<ProxyScore> {
        None
    }
}

impl EnvelopeProvider for DecisionTree {
    fn envelope(&self, class: ClassId, opts: &DeriveOptions) -> Envelope {
        let mut env = tree_envelope(self, class);
        // §4.2: threshold the number of disjuncts so the optimizer can
        // actually exploit the envelope (trees with many leaves per
        // class would otherwise emit unwieldy ORs).
        env.cap_disjuncts(opts.max_disjuncts, self.schema());
        env
    }
}

impl EnvelopeProvider for RuleSet {
    fn envelope(&self, class: ClassId, opts: &DeriveOptions) -> Envelope {
        let mut env = ruleset_envelope(self, class);
        env.cap_disjuncts(opts.max_disjuncts, self.schema());
        env
    }
}

/// The table Algorithm 1 derives an additive model's envelopes over,
/// built once per call: the raw-sound interval table when
/// `opts.cluster_raw_sound` asks for one and the model has one, else the
/// kernel's own table from [`EnvelopeProvider::proxy`]. `None` when the
/// proxy refuses the model (a row's sum could be NaN).
fn additive_table<M: EnvelopeProvider>(
    model: &M,
    raw_sound: Option<fn(&M) -> ScoreModel>,
    opts: &DeriveOptions,
) -> Option<ScoreModel> {
    match raw_sound {
        Some(interval) if opts.cluster_raw_sound => Some(interval(model)),
        _ => model.proxy().map(|proxy| ScoreModel::from_proxy(&proxy)),
    }
}

/// Class `class`'s envelope over `table`. A model without one derives
/// the trivial `TRUE` envelope, the degradation a timeout takes.
fn try_derive(
    table: Option<&ScoreModel>,
    schema: &Schema,
    class: ClassId,
    opts: &DeriveOptions,
) -> Result<Envelope, CoreError> {
    match table {
        Some(table) => try_derive_topdown(table, schema, class, opts),
        None => Ok(Envelope::trivial(class, schema)),
    }
}

/// Naive Bayes, k-means and GMM: Algorithm 1 over the model's own
/// score table (see [`additive_table`]), and the kernel it came from as
/// the cascade's proxy. `$raw_sound` builds the raw-sound interval table
/// of the families that have one.
macro_rules! additive_provider {
    ($model:ty, $proxy:path, $raw_sound:expr) => {
        impl EnvelopeProvider for $model {
            fn envelope(&self, class: ClassId, opts: &DeriveOptions) -> Envelope {
                self.try_envelope(class, opts)
                    .unwrap_or_else(|_| Envelope::trivial(class, self.schema()))
            }

            fn envelopes(&self, opts: &DeriveOptions) -> Vec<Envelope> {
                let table = additive_table(self, $raw_sound, opts);
                (0..self.n_classes() as u16)
                    .map(|k| {
                        try_derive(table.as_ref(), self.schema(), ClassId(k), opts)
                            .unwrap_or_else(|_| Envelope::trivial(ClassId(k), self.schema()))
                    })
                    .collect()
            }

            fn try_envelope(
                &self,
                class: ClassId,
                opts: &DeriveOptions,
            ) -> Result<Envelope, CoreError> {
                let table = additive_table(self, $raw_sound, opts);
                try_derive(table.as_ref(), self.schema(), class, opts)
            }

            fn try_envelopes(&self, opts: &DeriveOptions) -> Result<Vec<Envelope>, CoreError> {
                let table = additive_table(self, $raw_sound, opts);
                (0..self.n_classes() as u16)
                    .map(|k| try_derive(table.as_ref(), self.schema(), ClassId(k), opts))
                    .collect()
            }

            fn proxy(&self) -> Option<ProxyScore> {
                $proxy(self)
            }
        }
    };
}

additive_provider!(NaiveBayes, ProxyScore::from_naive_bayes, None);
additive_provider!(KMeans, ProxyScore::from_kmeans, Some(ScoreModel::from_kmeans));
additive_provider!(Gmm, ProxyScore::from_gmm, Some(ScoreModel::from_gmm));

impl EnvelopeProvider for BoundaryClustering {
    fn envelope(&self, class: ClassId, opts: &DeriveOptions) -> Envelope {
        // Boundary clusters are explicit cell sets: cover with rectangles.
        // The noise class is the complement of every dense cell — derived
        // by subtraction so it stays an upper envelope, not a scan.
        let schema = self.schema();
        if class == self.noise_class() {
            let mut regions = vec![crate::region::Region::full(schema)];
            for k in 0..self.n_classes() {
                let c = ClassId(k as u16);
                if c == self.noise_class() {
                    continue;
                }
                let cells: Vec<Vec<u16>> = self.cells_of(c).map(|s| s.to_vec()).collect();
                for dense in cover_cells(schema, &cells) {
                    regions = regions.into_iter().flat_map(|r| r.subtract(&dense)).collect();
                }
            }
            let mut stats = DeriveStats::default();
            merge_regions(&mut regions, &mut stats);
            let mut env = Envelope { class, regions, exact: true, stats, trace: Vec::new() };
            env.cap_disjuncts(opts.max_disjuncts, schema);
            env
        } else {
            let cells: Vec<Vec<u16>> = self.cells_of(class).map(|s| s.to_vec()).collect();
            let mut regions = cover_cells(schema, &cells);
            let mut stats = DeriveStats::default();
            merge_regions(&mut regions, &mut stats);
            let mut env = Envelope { class, regions, exact: true, stats, trace: Vec::new() };
            env.cap_disjuncts(opts.max_disjuncts, schema);
            env
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;
    use mpq_types::{AttrDomain, Attribute, Dataset};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn grid_schema(bins: usize) -> Schema {
        let cuts: Vec<f64> = (1..bins).map(|i| i as f64).collect();
        Schema::new(vec![
            Attribute::new("x", AttrDomain::binned(cuts.clone()).unwrap()),
            Attribute::new("y", AttrDomain::binned(cuts).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn kmeans_envelope_covers_raw_assignments() {
        // Soundness over *raw* points: sample random points, assign with
        // the model, encode, and check the envelope of the assigned
        // cluster admits the cell.
        let schema = grid_schema(6);
        let km = KMeans::from_parts(
            schema.clone(),
            vec![vec![1.0, 1.0], vec![5.0, 1.0], vec![3.0, 5.0]],
            vec![vec![1.0, 1.0]; 3],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let opts = DeriveOptions { cluster_raw_sound: true, ..Default::default() };
        let envs = km.envelopes(&opts);
        for _ in 0..500 {
            let x = rng.random_range(-1.0..7.0);
            let y = rng.random_range(-1.0..7.0);
            let cluster = km.assign_raw(&[x, y]);
            let cell = schema
                .encode_row(&[mpq_types::Value::Num(x), mpq_types::Value::Num(y)])
                .unwrap();
            assert!(
                envs[cluster.index()].matches(&cell),
                "raw point ({x},{y}) in cell {cell:?} assigned {cluster} but not covered"
            );
        }
    }

    #[test]
    fn discretized_kmeans_envelopes_cover_encoded_predictions() {
        // The default (paper §3.3) mode derives against the discretized
        // point model — envelopes must cover exactly what predict() does
        // on encoded rows, and the derivation must be decidable (tight).
        let schema = grid_schema(6);
        let km = KMeans::from_parts(
            schema.clone(),
            vec![vec![1.0, 1.0], vec![5.0, 1.0], vec![3.0, 5.0]],
            vec![vec![1.0, 1.0]; 3],
        )
        .unwrap();
        let envs = km.envelopes(&DeriveOptions::default());
        let mut total_covered = 0u64;
        for cell in Region::full(&schema).cells() {
            let predicted = km.predict(&cell);
            assert!(
                envs[predicted.index()].matches(&cell),
                "cell {cell:?} predicted {predicted} but not covered"
            );
        }
        for env in &envs {
            total_covered += env.covered_cells();
        }
        // Decidable point model → near-partition of the 36-cell grid.
        assert!(
            total_covered <= 40,
            "discretized envelopes should be tight, covered {total_covered} of 36 cells"
        );
    }

    #[test]
    fn gmm_envelope_covers_raw_assignments() {
        let schema = grid_schema(5);
        let gmm = Gmm::from_parts(
            schema.clone(),
            vec![0.5, 0.5],
            vec![vec![1.0, 1.0], vec![4.0, 4.0]],
            vec![vec![0.8, 0.8], vec![1.2, 1.2]],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let opts = DeriveOptions { cluster_raw_sound: true, ..Default::default() };
        let envs = gmm.envelopes(&opts);
        for _ in 0..500 {
            let x = rng.random_range(-1.0..6.0);
            let y = rng.random_range(-1.0..6.0);
            let cluster = gmm.assign_raw(&[x, y]);
            let cell = schema
                .encode_row(&[mpq_types::Value::Num(x), mpq_types::Value::Num(y)])
                .unwrap();
            assert!(envs[cluster.index()].matches(&cell), "({x},{y}) cluster {cluster}");
        }
    }

    #[test]
    fn two_class_kmeans_envelopes_partition_tightly() {
        // With K = 2 the pairwise bound is exact, so the two envelopes
        // should overlap only on genuinely ambiguous boundary cells.
        let schema = grid_schema(8);
        let km = KMeans::from_parts(
            schema.clone(),
            vec![vec![1.0, 1.0], vec![7.0, 7.0]],
            vec![vec![1.0, 1.0]; 2],
        )
        .unwrap();
        let envs = km.envelopes(&DeriveOptions::default());
        // Far corners are unambiguous.
        assert!(envs[0].matches(&[0, 0]) && !envs[1].matches(&[0, 0]));
        assert!(envs[1].matches(&[7, 7]) && !envs[0].matches(&[7, 7]));
    }

    #[test]
    fn boundary_cluster_envelopes_are_exact_cell_covers() {
        let schema = grid_schema(5);
        let mut ds = Dataset::new(schema.clone());
        for _ in 0..5 {
            ds.push_encoded(&[0, 0]).unwrap();
            ds.push_encoded(&[0, 1]).unwrap();
            ds.push_encoded(&[4, 4]).unwrap();
        }
        ds.push_encoded(&[2, 2]).unwrap(); // sparse
        let bc = BoundaryClustering::train(&ds, 3).unwrap();
        let envs = bc.envelopes(&DeriveOptions::default());
        for cell in Region::full(&schema).cells() {
            let predicted = bc.predict(&cell);
            for (k, env) in envs.iter().enumerate() {
                assert_eq!(
                    env.matches(&cell),
                    predicted.index() == k,
                    "cell {cell:?} class {k}"
                );
            }
        }
    }

    #[test]
    fn naive_bayes_provider_matches_direct_derivation() {
        let schema = Schema::new(vec![
            Attribute::new("a", AttrDomain::categorical(["x", "y"])),
            Attribute::new("b", AttrDomain::categorical(["u", "v", "w"])),
        ])
        .unwrap();
        let nb = NaiveBayes::from_probabilities(
            schema,
            vec!["p".into(), "q".into()],
            &[0.6, 0.4],
            &[
                vec![vec![0.7, 0.2], vec![0.3, 0.8]],
                vec![vec![0.5, 0.2], vec![0.3, 0.3], vec![0.2, 0.5]],
            ],
        )
        .unwrap();
        let opts = DeriveOptions::default();
        let via_provider = nb.envelope(ClassId(0), &opts);
        let sm = ScoreModel::from_proxy(&nb.proxy().unwrap());
        let direct = crate::derive_topdown(&sm, nb.schema(), ClassId(0), &opts);
        assert_eq!(via_provider.regions, direct.regions);
    }
}
