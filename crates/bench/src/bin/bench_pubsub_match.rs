//! Pub/sub matching benchmark: N standing subscriptions (default
//! 10,000) registered against one table, then identical insert batches
//! matched twice — once through the box-table guard that picks each
//! row's candidate subscriptions, once with the guard distrusted (the
//! `sub_index_corrupt` degraded path, which makes every subscription a
//! candidate for every row). Either way each candidate subscription's
//! compiled predicate runs over its candidate rows as one selection.
//! Writes `BENCH_pubsub_match.json`.
//!
//! The run doubles as a differential oracle: both legs log every
//! delivered (subscription, row) pair through the notify sink and the
//! run aborts if the sets differ — the index is a pure pruner, so
//! disabling it may change cost but never the match set.
//!
//! Every subscription here is *exactly compiled*: the mining
//! predicates reference a decision tree whose envelopes are exact, so
//! the rewrite replaces `PREDICT(watch) = ...` with its envelope
//! expression and matching never touches the model. The model is
//! registered through a counting wrapper to prove it: the benchmark
//! asserts **zero** scorer calls across both legs' entire matching
//! phase.
//!
//! Usage: `bench_pubsub_match [out.json] [n_subs]` (defaults:
//! `BENCH_pubsub_match.json`, 10,000). CI smoke passes a small
//! subscription count; the ≥10x speedup assertion only arms at the
//! full 10k scale — timings from small runs are dominated by fixed
//! per-insert costs, not matching.

use mpq_core::{DeriveOptions, Envelope, EnvelopeProvider};
use mpq_engine::{Catalog, Engine, MatchEvent, SessionState, StatementOutcome, Table};
use mpq_models::{Classifier, DecisionTree, TreeParams};
use mpq_types::{
    AttrDomain, Attribute, ClassId, Dataset, LabeledDataset, Row, Schema,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const RUNS: usize = 5;
const SEGMENTS: usize = 64;
const BANDS: usize = 128;
/// Insert statements per timed run, rows per statement.
const STMTS_PER_RUN: usize = 16;
const ROWS_PER_STMT: usize = 8;

/// Delegates to a trained tree, counting every `predict` call. The
/// envelopes delegate too — a tree's envelopes are exact, so every
/// subscription referencing this model compiles the model away and the
/// counter must stay at zero throughout matching.
struct CountingModel {
    inner: DecisionTree,
    predictions: AtomicU64,
}

impl Classifier for CountingModel {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }
    fn class_name(&self, c: ClassId) -> &str {
        self.inner.class_name(c)
    }
    fn predict(&self, row: &Row) -> ClassId {
        self.predictions.fetch_add(1, Ordering::Relaxed);
        self.inner.predict(row)
    }
}

impl EnvelopeProvider for CountingModel {
    fn envelope(&self, class: ClassId, opts: &DeriveOptions) -> Envelope {
        self.inner.envelope(class, opts)
    }
}

fn schema() -> Schema {
    let seg_labels: Vec<String> = (0..SEGMENTS).map(|s| format!("s{s}")).collect();
    // Band cuts at 10, 20, ..., so integer raw values `10*m + 5` land
    // unambiguously in member `m`.
    let cuts: Vec<f64> = (1..BANDS).map(|b| (b * 10) as f64).collect();
    Schema::new(vec![
        Attribute::new("seg", AttrDomain::categorical(seg_labels.iter().map(String::as_str))),
        Attribute::new("band", AttrDomain::binned(cuts).unwrap()),
        Attribute::new("flag", AttrDomain::categorical(["no", "yes"])),
    ])
    .unwrap()
}

/// Deterministic seed/training rows sweeping the member space; the
/// label is an exactly learnable concept over `band` and `seg`.
fn seed_rows(n: usize) -> Vec<Vec<u16>> {
    (0..n)
        .map(|i| {
            let seg = ((i * 7 + i / 31) % SEGMENTS) as u16;
            let band = ((i * 37 + 3) % BANDS) as u16;
            let flag = (i % 2) as u16;
            vec![seg, band, flag]
        })
        .collect()
}

fn label_of(row: &[u16]) -> u16 {
    u16::from(row[1] < 32 && row[0] != 7)
}

fn build_engine(watch: Arc<CountingModel>) -> Engine {
    let mut ds = Dataset::new(schema());
    for row in seed_rows(4096) {
        ds.push_encoded(&row).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("events", &ds)).unwrap();
    let engine = Engine::new(cat);
    engine.register_model("watch", watch, DeriveOptions::default()).unwrap();
    engine
}

/// The subscription pool: every predicate carries a one-member `seg`
/// anchor (so the inverted index has something selective to post
/// under), combined with plain band ranges and compiled-out mining
/// predicates in equal measure.
fn subscription_sql(i: usize) -> String {
    let seg = i % SEGMENTS;
    match i % 4 {
        0 => format!(
            "SUBSCRIBE SELECT * FROM events WHERE seg = 's{seg}' AND band > {}",
            ((i / 4) % 100) * 10 + 100
        ),
        1 => format!("SUBSCRIBE SELECT * FROM events WHERE seg = 's{seg}' AND PREDICT(watch) = 'pos'"),
        2 => format!(
            "SUBSCRIBE SELECT * FROM events WHERE seg = 's{seg}' \
             AND PREDICT(watch) = 'neg' AND flag = 'yes'"
        ),
        _ => format!(
            "SUBSCRIBE SELECT * FROM events WHERE seg = 's{seg}' AND band > {} \
             AND PREDICT(watch) = 'pos'",
            ((i / 4) % 20) * 10
        ),
    }
}

/// One multi-row INSERT; rows sweep segments and bands so every
/// postings list gets probed across a run.
fn insert_sql(stmt: usize, salt: usize) -> String {
    let values: Vec<String> = (0..ROWS_PER_STMT)
        .map(|r| {
            let i = salt * STMTS_PER_RUN * ROWS_PER_STMT + stmt * ROWS_PER_STMT + r;
            let seg = (i * 11 + 5) % SEGMENTS;
            let band = (i * 29 + 1) % BANDS;
            let flag = ["no", "yes"][i % 2];
            format!("('s{seg}', {}, '{flag}')", band * 10 + 5)
        })
        .collect();
    format!("INSERT INTO events VALUES {}", values.join(", "))
}

struct LegResult {
    median_ms: f64,
    per_row_us: f64,
    subs_matched: u64,
    subs_index_pruned: u64,
    delivered: Vec<(u64, u32)>,
}

/// Runs the full timed insert sequence against one engine and collects
/// timings, counters, and the delivered match log.
fn run_leg(engine: &Engine, name: &str) -> LegResult {
    let log: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_log = Arc::clone(&log);
    engine.set_notify_sink(Some(Arc::new(move |ev: MatchEvent| {
        sink_log.lock().unwrap().push((ev.subscription, ev.row_id));
    })));
    let mut session = SessionState::new();

    // Warmup: the first insert after registration pays the one-time
    // index (re)build; keep that out of the timed runs. Both legs do
    // the identical warmup, so the match logs stay comparable.
    engine.execute_sql_in("INSERT INTO events VALUES ('s0', 5, 'no')", &mut session).unwrap();

    let rows_per_run = (STMTS_PER_RUN * ROWS_PER_STMT) as f64;
    let mut times_ms = Vec::with_capacity(RUNS);
    let (mut subs_matched, mut subs_index_pruned) = (0u64, 0u64);
    for run in 0..RUNS {
        let t0 = Instant::now();
        for stmt in 0..STMTS_PER_RUN {
            let out = engine.execute_sql_in(&insert_sql(stmt, run), &mut session).unwrap();
            let StatementOutcome::Inserted { subs_matched: m, subs_index_pruned: p, .. } = out
            else {
                panic!("INSERT produced {out:?}");
            };
            subs_matched += m;
            subs_index_pruned += p;
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        eprintln!("  {name} run {run}: {ms:.1} ms ({:.1} us/row)", ms * 1e3 / rows_per_run);
        times_ms.push(ms);
    }
    engine.set_notify_sink(None);
    times_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median_ms = times_ms[times_ms.len() / 2];
    let mut delivered = log.lock().unwrap().clone();
    delivered.sort_unstable();
    LegResult {
        median_ms,
        per_row_us: median_ms * 1e3 / rows_per_run,
        subs_matched,
        subs_index_pruned,
        delivered,
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_pubsub_match.json".into());
    let n_subs: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("n_subs must be a number"))
        .unwrap_or(10_000);

    // Train the watched tree on the seed concept; wrap it counting.
    eprintln!("training the watched decision tree ...");
    let mut train = Dataset::new(schema());
    let rows = seed_rows(4096);
    let labels: Vec<ClassId> = rows.iter().map(|r| ClassId(label_of(r))).collect();
    for row in &rows {
        train.push_encoded(row).unwrap();
    }
    let lds =
        LabeledDataset::new(train, labels, vec!["neg".into(), "pos".into()]).unwrap();
    let tree = DecisionTree::train(&lds, TreeParams::default()).unwrap();
    let watch = Arc::new(CountingModel { inner: tree, predictions: AtomicU64::new(0) });

    // Two identical engines sharing the counting model: one matches
    // through the inverted index, the other with the index distrusted.
    let indexed = build_engine(Arc::clone(&watch) as Arc<CountingModel>);
    let naive = build_engine(Arc::clone(&watch));
    naive.fault_injector().set_sub_index_corrupt(true);

    eprintln!("registering {n_subs} subscriptions on each engine ...");
    let mut session = SessionState::new();
    for i in 0..n_subs {
        let sql = subscription_sql(i);
        for e in [&indexed, &naive] {
            let out = e.execute_sql_in(&sql, &mut session).unwrap();
            assert!(matches!(out, StatementOutcome::Subscribed { .. }));
        }
    }

    // Everything from here on is the matching phase: registration and
    // envelope derivation are allowed to touch the model, matching is
    // not.
    let scorer_calls_before = watch.predictions.load(Ordering::Relaxed);

    eprintln!("matching through the inverted index ...");
    let fast = run_leg(&indexed, "indexed");
    eprintln!("matching with the index distrusted (naive full evaluation) ...");
    let slow = run_leg(&naive, "naive");

    // Differential oracle: the index is a pure pruner — identical
    // delivered matches, identical match counters, or the run aborts.
    assert_eq!(
        fast.delivered, slow.delivered,
        "indexed and naive legs delivered different match sets"
    );
    assert_eq!(fast.subs_matched, slow.subs_matched, "match counters diverged");
    assert_eq!(slow.subs_index_pruned, 0, "the naive leg must not prune");
    assert!(
        naive.health().sub_index_note.is_some_and(|n| n.contains("distrusted")),
        "the degraded leg must carry the typed health note"
    );

    // Every subscription compiled its model away: matching made zero
    // scorer calls, on both legs, across every inserted row.
    let scorer_calls = watch.predictions.load(Ordering::Relaxed) - scorer_calls_before;
    assert_eq!(
        scorer_calls, 0,
        "exactly-compiled subscriptions must never invoke the model during matching"
    );

    let speedup = slow.median_ms / fast.median_ms;
    eprintln!(
        "indexed {:.1} ms ({:.1} us/row), naive {:.1} ms ({:.1} us/row): {speedup:.1}x, \
         {} matches, {} pruned, {scorer_calls} scorer calls",
        fast.median_ms, fast.per_row_us, slow.median_ms, slow.per_row_us, fast.subs_matched,
        fast.subs_index_pruned
    );
    if n_subs >= 10_000 {
        assert!(
            speedup >= 10.0,
            "inverted index must beat naive matching by >= 10x at {n_subs} subscriptions, \
             got {speedup:.1}x"
        );
    } else {
        eprintln!(
            "note: {n_subs} subscriptions is below the 10k reference scale; \
             the >= 10x speedup assertion is not armed"
        );
    }

    let leg_json = |l: &LegResult| {
        format!(
            "{{\"median_ms\": {:.3}, \"per_row_us\": {:.3}, \"subs_matched\": {}, \
             \"subs_index_pruned\": {}}}",
            l.median_ms, l.per_row_us, l.subs_matched, l.subs_index_pruned
        )
    };
    let json = format!(
        "{{\n  \"benchmark\": \"pubsub_match\",\n  \"n_subscriptions\": {n_subs},\n  \
         \"rows_per_run\": {},\n  \"runs\": {RUNS},\n  \"indexed\": {},\n  \"naive\": {},\n  \
         \"speedup\": {speedup:.3},\n  \"matching_scorer_calls\": {scorer_calls}\n}}\n",
        STMTS_PER_RUN * ROWS_PER_STMT,
        leg_json(&fast),
        leg_json(&slow),
    );
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path}");
}
