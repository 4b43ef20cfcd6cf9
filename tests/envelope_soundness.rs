//! Property-based soundness tests: for *any* model, the derived upper
//! envelope of class `c` must admit every point the model predicts as
//! `c` — the defining contract of the paper (`predict(x)=c ⇒ M_c(x)`),
//! under every bound mode and expansion budget.

use mining_predicates::prelude::*;
use mpq_core::{derive_enumerate, DEFAULT_CELL_LIMIT};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Strategy: a random small schema (2–4 dims, 2–5 members each, mixed
/// ordered/categorical).
fn arb_schema() -> impl Strategy<Value = Schema> {
    proptest::collection::vec((2u16..=5, any::<bool>()), 2..=4).prop_map(|dims| {
        let attrs = dims
            .into_iter()
            .enumerate()
            .map(|(i, (card, ordered))| {
                let domain = if ordered {
                    AttrDomain::binned((1..card).map(|c| c as f64).collect()).expect("increasing")
                } else {
                    AttrDomain::categorical((0..card).map(|m| format!("v{m}")))
                };
                Attribute::new(format!("a{i}"), domain)
            })
            .collect();
        Schema::new(attrs).expect("unique names")
    })
}

/// Strategy: a naive Bayes model with random positive probabilities over
/// a random schema.
fn arb_nb() -> impl Strategy<Value = NaiveBayes> {
    (arb_schema(), 2usize..=4).prop_flat_map(|(schema, k)| {
        let total_members: usize =
            schema.attrs().iter().map(|a| a.domain.cardinality() as usize).sum();
        (
            Just(schema),
            proptest::collection::vec(0.05f64..1.0, k),
            proptest::collection::vec(0.01f64..1.0, total_members * k),
        )
            .prop_map(move |(schema, priors, conds)| {
                let mut it = conds.into_iter();
                let cond: Vec<Vec<Vec<f64>>> = schema
                    .attrs()
                    .iter()
                    .map(|a| {
                        (0..a.domain.cardinality())
                            .map(|_| (0..k).map(|_| it.next().expect("sized")).collect())
                            .collect()
                    })
                    .collect();
                let names = (0..k).map(|i| format!("c{i}")).collect();
                NaiveBayes::from_probabilities(schema, names, &priors, &cond)
                    .expect("positive parameters")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topdown_envelopes_cover_all_predictions(nb in arb_nb(), budget in 0usize..64) {
        let schema = Classifier::schema(&nb).clone();
        for mode in [BoundMode::Basic, BoundMode::PairwiseRatio] {
            let opts = DeriveOptions { bound_mode: mode, max_expansions: budget, ..Default::default() };
            for k in 0..Classifier::n_classes(&nb) {
                let class = ClassId(k as u16);
                let env = nb.envelope(class, &opts);
                for cell in Region::full(&schema).cells() {
                    if Classifier::predict(&nb, &cell) == class {
                        prop_assert!(
                            env.matches(&cell),
                            "unsound: {mode:?} budget {budget} class {k} cell {cell:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_claims_are_honest(nb in arb_nb()) {
        // When the derivation claims exactness, the envelope must admit
        // *only* the class's cells.
        let schema = Classifier::schema(&nb).clone();
        for k in 0..Classifier::n_classes(&nb) {
            let class = ClassId(k as u16);
            let env = nb.envelope(class, &DeriveOptions::default());
            if !env.exact {
                continue;
            }
            for cell in Region::full(&schema).cells() {
                prop_assert_eq!(
                    env.matches(&cell),
                    Classifier::predict(&nb, &cell) == class,
                    "exact envelope wrong at {:?}", cell
                );
            }
        }
    }

    #[test]
    fn enumeration_oracle_agrees(nb in arb_nb()) {
        // Enumeration is exact for naive Bayes; the top-down result must
        // be a superset of it.
        let schema = Classifier::schema(&nb).clone();
        let sm = ScoreModel::from_proxy(&nb.proxy().expect("finite table"));
        for k in 0..Classifier::n_classes(&nb) {
            let class = ClassId(k as u16);
            let oracle = derive_enumerate(&sm, &schema, class, DEFAULT_CELL_LIMIT)
                .expect("small grid");
            let td = derive_topdown(&sm, &schema, class, &DeriveOptions::default());
            for cell in Region::full(&schema).cells() {
                prop_assert_eq!(
                    oracle.matches(&cell),
                    Classifier::predict(&nb, &cell) == class,
                    "oracle must be exact at {:?}", cell
                );
                if oracle.matches(&cell) {
                    prop_assert!(td.matches(&cell), "top-down misses {:?}", cell);
                }
            }
        }
    }
}

/// Strategy: a k-means model over an all-ordered schema.
fn arb_kmeans() -> impl Strategy<Value = KMeans> {
    (
        2usize..=3,  // dims
        2usize..=4,  // clusters
        proptest::collection::vec(-2.0f64..8.0, 12),
        proptest::collection::vec(0.2f64..3.0, 12),
    )
        .prop_map(|(n, k, coords, weights)| {
            let attrs = (0..n)
                .map(|i| {
                    Attribute::new(
                        format!("x{i}"),
                        AttrDomain::binned(vec![1.0, 3.0, 5.0]).expect("increasing"),
                    )
                })
                .collect();
            let schema = Schema::new(attrs).expect("unique");
            let centroids: Vec<Vec<f64>> =
                (0..k).map(|c| (0..n).map(|d| coords[c * n + d]).collect()).collect();
            let w: Vec<Vec<f64>> =
                (0..k).map(|c| (0..n).map(|d| weights[c * n + d]).collect()).collect();
            KMeans::from_parts(schema, centroids, w).expect("valid parts")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_envelopes_cover_raw_space(km in arb_kmeans(), points in proptest::collection::vec((-4.0f64..10.0, -4.0f64..10.0, -4.0f64..10.0), 60)) {
        let schema = Classifier::schema(&km).clone();
        let n = schema.len();
        // Raw-space coverage requires the interval (raw-sound) mode; the
        // default derives against the discretized point model.
        let opts = DeriveOptions { cluster_raw_sound: true, ..Default::default() };
        let envs = km.envelopes(&opts);
        for p in points {
            let raw = [p.0, p.1, p.2];
            let raw = &raw[..n];
            let cluster = km.assign_raw(raw);
            let cell: Vec<u16> = raw
                .iter()
                .enumerate()
                .map(|(d, &x)| schema.attrs()[d].domain.encode(&Value::Num(x)).expect("numeric"))
                .collect();
            prop_assert!(
                envs[cluster.index()].matches(&cell),
                "raw point {raw:?} (cell {cell:?}) assigned {cluster} but not covered"
            );
        }
    }
}

/// A draw from a small fixed set of values. Sums over lattice terms
/// coincide — exactly, or to the last bit after rounding — far more
/// often than sums over uniform draws, so the argmax's ties and near
/// ties, where a bound that rounds otherwise than the kernel goes
/// wrong, actually occur.
#[derive(Clone, Copy)]
struct Lattice(&'static [f64]);

impl Strategy for Lattice {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.0[rng.index(self.0.len())]
    }
}

/// Strategy: a naive Bayes model over a random schema whose priors and
/// conditionals come from a lattice of probabilities.
fn lattice_nb() -> impl Strategy<Value = NaiveBayes> {
    const PROBS: Lattice = Lattice(&[0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.8]);
    (arb_schema(), 2usize..=4).prop_flat_map(|(schema, k)| {
        let total_members: usize =
            schema.attrs().iter().map(|a| a.domain.cardinality() as usize).sum();
        (
            Just(schema),
            proptest::collection::vec(PROBS, k),
            proptest::collection::vec(PROBS, total_members * k),
        )
            .prop_map(move |(schema, priors, conds)| {
                let mut it = conds.into_iter();
                let cond: Vec<Vec<Vec<f64>>> = schema
                    .attrs()
                    .iter()
                    .map(|a| {
                        (0..a.domain.cardinality())
                            .map(|_| (0..k).map(|_| it.next().expect("sized")).collect())
                            .collect()
                    })
                    .collect();
                let names = (0..k).map(|i| format!("c{i}")).collect();
                NaiveBayes::from_probabilities(schema, names, &priors, &cond)
                    .expect("positive parameters")
            })
    })
}

/// Strategy: a k-means model over a random mixed schema: lattice
/// centroids (a member index on categorical dimensions) and weights.
fn lattice_kmeans() -> impl Strategy<Value = KMeans> {
    const COORDS: Lattice = Lattice(&[0.0, 1.0, 1.5, 2.0, 3.0, 4.0]);
    const WEIGHTS: Lattice = Lattice(&[0.3, 0.5, 0.7, 1.0, 1.5]);
    (arb_schema(), 2usize..=4).prop_flat_map(|(schema, k)| {
        let n = schema.len();
        (Just(schema), proptest::collection::vec((COORDS, WEIGHTS), n * k)).prop_map(
            move |(schema, parts)| {
                let (mut centroids, mut weights) = (vec![vec![0.0; n]; k], vec![vec![0.0; n]; k]);
                for (i, (c, w)) in parts.into_iter().enumerate() {
                    let (cluster, d) = (i / n, i % n);
                    let domain = &schema.attrs()[d].domain;
                    centroids[cluster][d] = if domain.is_ordered() {
                        c
                    } else {
                        (c as u16 % domain.cardinality()) as f64
                    };
                    weights[cluster][d] = w;
                }
                KMeans::from_parts(schema, centroids, weights).expect("valid parts")
            },
        )
    })
}

/// Strategy: a diagonal GMM over 2–3 ordered dimensions with lattice
/// mixing weights, means and variances.
fn lattice_gmm() -> impl Strategy<Value = Gmm> {
    const TAUS: Lattice = Lattice(&[0.2, 0.3, 0.5]);
    const MEANS: Lattice = Lattice(&[0.0, 1.0, 2.0, 3.0, 4.0]);
    const VARS: Lattice = Lattice(&[0.5, 1.5]);
    (2usize..=3, 2usize..=4).prop_flat_map(|(n, k)| {
        (
            proptest::collection::vec(TAUS, k),
            proptest::collection::vec((MEANS, VARS), n * k),
        )
            .prop_map(move |(taus, parts)| {
                let cuts = AttrDomain::binned(vec![0.5, 1.5, 2.5, 3.5]).expect("increasing");
                let attrs = (0..n).map(|i| Attribute::new(format!("x{i}"), cuts.clone())).collect();
                let schema = Schema::new(attrs).expect("unique");
                let (means, vars) = parts.chunks(n).map(|c| c.iter().copied().unzip()).unzip();
                Gmm::from_parts(schema, taus, means, vars).expect("valid parts")
            })
    })
}

/// Checks `model` on every cell of its grid: the score table's cell
/// winner is `predict`, and under both bound modes at expansion budget
/// `budget` every class's envelope admits each cell predicted as it
/// (and, when it claims exactness, only those). Returns the number of
/// cells whose two best scores are equal or one rounding apart.
fn check_at_ties<M: EnvelopeProvider>(model: &M, budget: usize) -> Result<usize, String> {
    let cells: Vec<Vec<u16>> = Region::full(model.schema()).cells().collect();
    let table = ScoreModel::from_proxy(&model.proxy().expect("a finite table"));
    let mut ties = 0;
    for cell in &cells {
        let (winner, want) = (table.cell_winner(cell), model.predict(cell));
        if winner != Some(want) {
            return Err(format!("cell {cell:?}: table says {winner:?}, predict {want:?}"));
        }
        let mut sums: Vec<f64> =
            (0..table.n_classes()).map(|p| table.cell_score_lo(cell, p)).collect();
        sums.sort_by(|a, b| b.total_cmp(a));
        if sums[1] >= sums[0].next_down() {
            ties += 1;
        }
    }
    for mode in [BoundMode::Basic, BoundMode::PairwiseRatio] {
        let opts = DeriveOptions { bound_mode: mode, max_expansions: budget, ..Default::default() };
        for env in model.envelopes(&opts) {
            for cell in &cells {
                let predicted = model.predict(cell) == env.class;
                if predicted && !env.matches(cell) {
                    return Err(format!("{mode:?} budget {budget}: {} misses {cell:?}", env.class));
                }
                if env.exact && env.matches(cell) != predicted {
                    return Err(format!("{mode:?}: exact {} wrong at {cell:?}", env.class));
                }
            }
        }
    }
    Ok(ties)
}

/// Runs [`check_at_ties`] on `cases` draws of `models` (each with a
/// random budget) and asserts the draws really reached ties.
fn assert_sound_at_ties<M: EnvelopeProvider>(
    name: &str,
    models: impl Strategy<Value = M>,
    cases: usize,
) {
    let mut rng = TestRng::deterministic(name);
    let mut ties = 0;
    for case in 0..cases {
        let (model, budget) = (models.generate(&mut rng), (0usize..64).generate(&mut rng));
        match check_at_ties(&model, budget) {
            Ok(found) => ties += found,
            Err(e) => panic!("{name}, case {case}: {e}"),
        }
    }
    assert!(ties > 0, "{name}: no tied or near-tied cell in {cases} draws");
}

#[test]
fn lattice_naive_bayes_is_sound_at_ties() {
    assert_sound_at_ties("naive Bayes", lattice_nb(), 300);
}

#[test]
fn lattice_kmeans_is_sound_at_ties() {
    assert_sound_at_ties("k-means", lattice_kmeans(), 200);
}

#[test]
fn lattice_gmm_is_sound_at_ties() {
    assert_sound_at_ties("GMM", lattice_gmm(), 200);
}
