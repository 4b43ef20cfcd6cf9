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
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

/// Threads a model's classes are derived on: one per available core,
/// never more than there are classes.
fn derive_workers(n_classes: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(n_classes).max(1)
}

/// Derives classes `0..n_classes` with `derive` on `workers` threads
/// (the calling thread is one of them, so one worker spawns nothing),
/// each pulling the next class id from a shared cursor. Classes are
/// independent, so the envelopes equal a sequential loop's and come
/// back in class order. As in that loop, the first failure in class
/// order wins: the lowest failing class's error is returned, and a
/// panic in `derive` re-raises with its own payload. Once any class
/// fails, no worker starts another one; every class below it was
/// already claimed, and runs to its end.
fn derive_classes<E: Send>(
    n_classes: usize,
    workers: usize,
    derive: impl Fn(ClassId) -> Result<Envelope, E> + Sync,
) -> Result<Vec<Envelope>, E> {
    // Neither atomic publishes data (outcomes come back through the
    // joins), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= n_classes {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| derive(ClassId(k as u16))));
            if !matches!(outcome, Ok(Ok(_))) {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((k, outcome));
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("`work` catches derivation panics"));
        }
        done
    });
    done.sort_unstable_by_key(|(k, _)| *k);
    let mut envelopes = Vec::with_capacity(n_classes);
    for (_, outcome) in done {
        match outcome {
            Ok(envelope) => envelopes.push(envelope?),
            Err(payload) => resume_unwind(payload),
        }
    }
    Ok(envelopes)
}

/// Every class's envelope over the model's score table (see
/// [`additive_table`]), built once and shared by `workers` threads.
fn try_derive_all<M: EnvelopeProvider>(
    model: &M,
    raw_sound: Option<fn(&M) -> ScoreModel>,
    opts: &DeriveOptions,
    workers: usize,
) -> Result<Vec<Envelope>, CoreError> {
    let (table, schema) = (additive_table(model, raw_sound, opts), model.schema());
    derive_classes(model.n_classes(), workers, |class| {
        try_derive(table.as_ref(), schema, class, opts)
    })
}

/// Naive Bayes, k-means and GMM: Algorithm 1 over the model's own
/// score table (see [`additive_table`]), and the kernel it came from as
/// the cascade's proxy. `$raw_sound` builds the raw-sound interval table
/// of the families that have one. All classes derive concurrently, one
/// worker per core ([`derive_classes`]).
macro_rules! additive_provider {
    ($model:ty, $proxy:path, $raw_sound:expr) => {
        impl EnvelopeProvider for $model {
            fn envelope(&self, class: ClassId, opts: &DeriveOptions) -> Envelope {
                self.try_envelope(class, opts)
                    .unwrap_or_else(|_| Envelope::trivial(class, self.schema()))
            }

            fn envelopes(&self, opts: &DeriveOptions) -> Vec<Envelope> {
                let table = additive_table(self, $raw_sound, opts);
                let schema = self.schema();
                let workers = derive_workers(self.n_classes());
                let Ok(envelopes) = derive_classes(self.n_classes(), workers, |class| {
                    Ok::<_, Infallible>(
                        try_derive(table.as_ref(), schema, class, opts)
                            .unwrap_or_else(|_| Envelope::trivial(class, schema)),
                    )
                });
                envelopes
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
                try_derive_all(self, $raw_sound, opts, derive_workers(self.n_classes()))
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

    /// Classes derived on one worker and on several give equal
    /// envelopes, field for field. The worker count is the only thing
    /// the parallel derivation may change, so every test here compares
    /// the one-worker derivation (which spawns nothing) with 2, 3 and 8.
    mod determinism {
        use super::*;
        use std::time::Duration;

        const WORKERS: [usize; 3] = [2, 3, 8];

        fn schema3() -> Schema {
            Schema::new(vec![
                Attribute::new("a", AttrDomain::categorical(["a0", "a1", "a2", "a3"])),
                Attribute::new("b", AttrDomain::binned(vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap()),
                Attribute::new("c", AttrDomain::categorical(["c0", "c1", "c2"])),
            ])
            .unwrap()
        }

        /// Nine naive-Bayes classes with seeded probabilities; class 8
        /// is a bit-equal copy of class 3, so the two tie on every cell.
        fn naive_bayes() -> NaiveBayes {
            let schema = schema3();
            let k = 9;
            let mut rng = StdRng::seed_from_u64(41);
            let mut priors: Vec<f64> = (0..k).map(|_| rng.random_range(0.2..1.0)).collect();
            priors[3] = 1.2;
            priors[8] = priors[3];
            let cond: Vec<Vec<Vec<f64>>> = schema
                .attrs()
                .iter()
                .map(|a| {
                    let card = a.domain.cardinality() as usize;
                    let mut per_class: Vec<Vec<f64>> = (0..k)
                        .map(|_| {
                            let raw: Vec<f64> =
                                (0..card).map(|_| rng.random_range(0.05..1.0)).collect();
                            let total: f64 = raw.iter().sum();
                            raw.iter().map(|p| p / total).collect()
                        })
                        .collect();
                    per_class[8] = per_class[3].clone();
                    (0..card).map(|m| per_class.iter().map(|c| c[m]).collect()).collect()
                })
                .collect();
            let names = (0..k).map(|c| format!("k{c}")).collect();
            NaiveBayes::from_probabilities(schema, names, &priors, &cond).unwrap()
        }

        fn kmeans() -> KMeans {
            let centroids = (0..6).map(|c| vec![c as f64 * 1.3, (c * 5 % 7) as f64]).collect();
            KMeans::from_parts(grid_schema(8), centroids, vec![vec![1.0, 0.7]; 6]).unwrap()
        }

        fn gmm() -> Gmm {
            Gmm::from_parts(
                grid_schema(7),
                vec![0.3, 0.2, 0.25, 0.25],
                vec![vec![1.0, 1.0], vec![5.0, 2.0], vec![2.0, 5.5], vec![4.0, 4.0]],
                vec![vec![0.8, 1.1], vec![1.2, 0.6], vec![1.0, 1.0], vec![2.0, 1.5]],
            )
            .unwrap()
        }

        /// Derives `model` on one worker and on each of [`WORKERS`],
        /// asserts the results equal, and returns the one-worker result.
        fn agree<M: EnvelopeProvider>(
            model: &M,
            raw_sound: Option<fn(&M) -> ScoreModel>,
            opts: &DeriveOptions,
        ) -> Result<Vec<Envelope>, CoreError> {
            let one = try_derive_all(model, raw_sound, opts, 1);
            for workers in WORKERS {
                let many = try_derive_all(model, raw_sound, opts, workers);
                assert_eq!(many, one, "{workers} workers");
            }
            one
        }

        #[test]
        fn determinism_naive_bayes_with_tied_classes() {
            let nb = naive_bayes();
            for opts in [
                DeriveOptions::default(),
                DeriveOptions { max_expansions: 3, ..Default::default() },
                DeriveOptions { max_disjuncts: 2, ..Default::default() },
            ] {
                let envs = agree(&nb, None, &opts).unwrap();
                assert_eq!(envs.len(), 9);
                if envs[8].exact {
                    // Class 8 ties class 3 on every cell, and the tie
                    // order gives each one to class 3: Algorithm 1 had to
                    // split its way through the tied regions to prove it.
                    assert!(!envs[3].regions.is_empty() && envs[8].regions.is_empty());
                    assert!(envs[8].stats.expansions > 1);
                }
                // The batch path equals the per-class one.
                let each: Vec<Envelope> =
                    (0..9).map(|k| nb.try_envelope(ClassId(k), &opts).unwrap()).collect();
                assert_eq!(envs, each);
                assert_eq!(nb.try_envelopes(&opts).unwrap(), each);
                assert_eq!(nb.envelopes(&opts), each);
            }
        }

        #[test]
        fn determinism_covers_exact_and_budget_limited_envelopes() {
            let nb = naive_bayes();
            let exact = agree(&nb, None, &DeriveOptions::default()).unwrap();
            assert!(exact.iter().any(|e| e.exact), "some class derives exactly");
            let capped = DeriveOptions { max_expansions: 2, ..Default::default() };
            let capped = agree(&nb, None, &capped).unwrap();
            assert!(capped.iter().any(|e| e.stats.thresholded_regions > 0 && !e.exact));
        }

        #[test]
        fn determinism_clusterers_point_and_raw_sound_tables() {
            for raw in [false, true] {
                let opts = DeriveOptions { cluster_raw_sound: raw, ..Default::default() };
                let km = kmeans();
                let envs = agree(&km, Some(ScoreModel::from_kmeans), &opts).unwrap();
                assert_eq!(envs, km.envelopes(&opts), "k-means, raw-sound {raw}");
                let g = gmm();
                let envs = agree(&g, Some(ScoreModel::from_gmm), &opts).unwrap();
                assert_eq!(envs, g.envelopes(&opts), "GMM, raw-sound {raw}");
            }
        }

        #[test]
        fn determinism_timeout_returns_the_same_error() {
            let opts = DeriveOptions { time_budget: Some(Duration::ZERO), ..Default::default() };
            let err = agree(&naive_bayes(), None, &opts).unwrap_err();
            assert_eq!(err, CoreError::DeriveTimeout { budget: Duration::ZERO });
            // The infallible path degrades each class to `TRUE` alike.
            let envs = naive_bayes().envelopes(&opts);
            assert!(envs.iter().all(|e| e.regions == vec![Region::full(&schema3())]));
        }

        #[test]
        fn determinism_lowest_failing_class_wins() {
            let schema = schema3();
            for workers in [1, 2, 3, 8] {
                let out = derive_classes(9, workers, |class| match class.0 {
                    3 | 5 => Err(CoreError::UnknownClass { class: class.0, n_classes: 9 }),
                    _ => Ok(Envelope::trivial(class, &schema)),
                });
                assert_eq!(out, Err(CoreError::UnknownClass { class: 3, n_classes: 9 }));
            }
        }

        #[test]
        fn determinism_worker_panic_surfaces_its_own_message() {
            let schema = schema3();
            for workers in [1, 2, 3, 8] {
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    derive_classes(9, workers, |class| {
                        if class == ClassId(1) {
                            panic!("class 1 cannot be derived");
                        }
                        Ok::<_, CoreError>(Envelope::trivial(class, &schema))
                    })
                }))
                .expect_err("the panic re-raises");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"class 1 cannot be derived"),
                    "{workers} workers"
                );
            }
        }
    }
}
