//! Derivation micro-benchmarks and the DESIGN.md ablations:
//!
//! * top-down (Algorithm 1) vs the naive full-enumeration baseline — the
//!   paper's §3.2.2 motivation (the enumeration "took more than 24 hours"
//!   on a medium data set; here the gap shows up as orders of magnitude);
//! * `Basic` (Lemma 3.1) vs `PairwiseRatio` (generalized Lemma 3.2)
//!   bound modes;
//! * the expansion-budget (threshold) sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpq_core::{
    derive_enumerate, derive_topdown, paper_table1_model, BoundMode, DeriveOptions, ProxyScore,
    ScoreModel, DEFAULT_CELL_LIMIT,
};
use mpq_datagen::{generate_train, table2};
use mpq_models::{Classifier as _, NaiveBayes};
use mpq_types::ClassId;
use std::hint::black_box;

fn trained_nb(name: &str) -> NaiveBayes {
    let spec = table2().into_iter().find(|s| s.name == name).expect("known dataset");
    NaiveBayes::train(&generate_train(&spec, 7)).expect("nonempty")
}

/// The point table Algorithm 1 derives `nb`'s envelopes over.
fn table(nb: &NaiveBayes) -> ScoreModel {
    ScoreModel::from_proxy(&ProxyScore::from_naive_bayes(nb).expect("finite table"))
}

fn bench_topdown_vs_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("derive/table1");
    let nb = paper_table1_model();
    let sm = table(&nb);
    let schema = nb.schema().clone();
    g.bench_function("topdown", |b| {
        b.iter(|| {
            black_box(derive_topdown(&sm, &schema, ClassId(0), &DeriveOptions::default()))
        })
    });
    g.bench_function("enumeration", |b| {
        b.iter(|| {
            black_box(derive_enumerate(&sm, &schema, ClassId(0), DEFAULT_CELL_LIMIT).unwrap())
        })
    });
    g.finish();

    // A medium model (Diabetes: 8 dims x 8 members = 16.7M cells):
    // enumeration is already painful, top-down is not — measure both on
    // a reduced cell budget so the bench terminates.
    let mut g = c.benchmark_group("derive/diabetes");
    g.sample_size(10);
    let nb = trained_nb("Diabetes");
    let sm = table(&nb);
    let schema = nb.schema().clone();
    g.bench_function("topdown", |b| {
        b.iter(|| {
            black_box(derive_topdown(&sm, &schema, ClassId(1), &DeriveOptions::default()))
        })
    });
    g.bench_function("enumeration", |b| {
        b.iter(|| {
            black_box(derive_enumerate(&sm, &schema, ClassId(1), u64::MAX).unwrap())
        })
    });
    g.finish();
}

fn bench_bound_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("derive/bound_mode");
    g.sample_size(10);
    let nb = trained_nb("Shuttle");
    let sm = table(&nb);
    let schema = nb.schema().clone();
    for (mode, label) in [(BoundMode::Basic, "basic"), (BoundMode::PairwiseRatio, "pairwise")] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let opts = DeriveOptions { bound_mode: mode, ..Default::default() };
                black_box(derive_topdown(&sm, &schema, ClassId(2), &opts))
            })
        });
    }
    g.finish();
}

fn bench_budget_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("derive/budget");
    g.sample_size(10);
    let nb = trained_nb("Vehicle");
    let sm = table(&nb);
    let schema = nb.schema().clone();
    for budget in [64usize, 512, 2048] {
        g.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &budget| {
            b.iter(|| {
                let opts = DeriveOptions { max_expansions: budget, ..Default::default() };
                black_box(derive_topdown(&sm, &schema, ClassId(0), &opts))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_topdown_vs_enumeration, bench_bound_modes, bench_budget_sweep);
criterion_main!(benches);
