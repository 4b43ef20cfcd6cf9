//! Envelope derivation of the benchmark's `scan_cascade` models: where
//! `mpq_benchmark`'s `scan_cascade` `setup_s` goes, one model at a time.
//!
//! The tables and model specs are the benchmark's own — its generator
//! is compiled in from `mpq_benchmark/src/gen.rs`, unedited — and the
//! models are trained and wrapped as its set-up does. Per model: the
//! class count, each class derived alone through `try_envelope` (the
//! score table rebuilt per class, one core), their sum, and the whole
//! model through `try_envelopes` (one score table, the classes on every
//! core), each the median of `runs`. The two paths' envelopes are
//! asserted equal, field for field. Timings are wall time on this
//! machine's cores (printed first); compare two checkouts by
//! alternating runs of each.
//!
//! Usage: `stmt_derive [seed] [runs]` (defaults: 7, 3).

#[allow(dead_code)]
#[path = "mpq_benchmark/src/gen.rs"]
mod gen;

use mpq_core::{DeriveOptions, Envelope, EnvelopeProvider};
use mpq_engine::{labeled_view, Catalog, Engine, ProjectedModel};
use mpq_models::{KMeans, KMeansParams, NaiveBayes};
use mpq_types::{AttrId, ClassId, Dataset, Member};
use std::sync::Arc;
use std::time::Instant;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Milliseconds `f` took, and its result.
fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// Trains a model as the benchmark's set-up does, with the derivation
/// options it registers the model with.
fn train(
    engine: &Engine,
    inputs: &gen::Inputs,
    spec: &gen::ModelSpec,
) -> (&'static str, Arc<dyn EnvelopeProvider + Send + Sync>, DeriveOptions) {
    let train_schema = inputs.train.schema.clone();
    let (name, model, max_disjuncts): (_, Arc<dyn EnvelopeProvider + Send + Sync>, _) = match spec {
        gen::ModelSpec::NaiveBayes { name, label, max_disjuncts } => {
            let label = AttrId(*label);
            let view = {
                let catalog = engine.catalog();
                let train = catalog.table_by_name(inputs.train.name).expect("created");
                labeled_view(&catalog, train, label).expect("categorical label")
            };
            let nb = NaiveBayes::train(&view).expect("trainable");
            let model = ProjectedModel::new(train_schema, label, Arc::new(nb));
            (*name, Arc::new(model), *max_disjuncts)
        }
        gen::ModelSpec::KMeans { name, k, max_disjuncts } => {
            let mut data = Dataset::new(train_schema);
            let t = &inputs.train;
            for r in 0..t.n_rows() {
                let row: Vec<Member> = t.columns.iter().map(|c| c[r]).collect();
                data.push_encoded(&row).expect("generated members");
            }
            let params = KMeansParams { k: *k, ..Default::default() };
            let model = KMeans::train_encoded(&data, params).expect("trainable");
            (*name, Arc::new(model), *max_disjuncts)
        }
        gen::ModelSpec::Sql(_) => panic!("scan_cascade registers no model by DDL"),
    };
    (name, model, DeriveOptions { max_disjuncts, ..Default::default() })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |default: u64| args.next().map_or(default, |s| s.parse().expect("a number"));
    let (seed, runs) = (arg(7), arg(3).max(1) as usize);
    let inputs = gen::scan_cascade(seed, gen::Scale::Full);
    let engine = Engine::new(Catalog::new());
    engine.create_table(inputs.train.to_table()).expect("generated tables load");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available_parallelism {cores}");
    println!("model  classes  per_class_ms  sequential_ms  concurrent_ms");
    for spec in &inputs.models {
        let (name, model, opts) = train(&engine, &inputs, spec);
        let n = model.n_classes();
        let (mut per_class, mut sequential, mut concurrent) =
            (vec![Vec::new(); n], Vec::new(), Vec::new());
        for _ in 0..runs {
            let mut each: Vec<Envelope> = Vec::with_capacity(n);
            for (k, times) in per_class.iter_mut().enumerate() {
                let (ms, env) = time_ms(|| model.try_envelope(ClassId(k as u16), &opts));
                times.push(ms);
                each.push(env.expect("no time budget is set"));
            }
            sequential.push(per_class.iter().map(|t| t[t.len() - 1]).sum());
            let (ms, all) = time_ms(|| model.try_envelopes(&opts));
            concurrent.push(ms);
            assert_eq!(all.expect("no time budget is set"), each, "model {name}");
        }
        let per_class: Vec<String> =
            per_class.iter_mut().map(|t| format!("{:.0}", median(t))).collect();
        println!(
            "{name:5}  {n:7}  {:>12}  {:13.0}  {:13.0}",
            per_class.join("/"),
            median(&mut sequential),
            median(&mut concurrent),
        );
    }
}
