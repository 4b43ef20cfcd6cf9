//! The catalog: tables, secondary indexes, and mining models as
//! first-class objects (§2.2's `CREATE MINING MODEL` world).
//!
//! Models are registered *trained*; registration precomputes the "atomic"
//! upper envelopes for every class (§4.2's training-time step) so that
//! query optimization only performs cheap lookups. Each model carries a
//! version; cached plans remember the versions they read and are
//! invalidated when a model is retrained (§4.2's correctness note).

use crate::dedup::StatementDedup;
use crate::expr::{ModelId, ModelOracle};
use crate::fault::FaultInjector;
use crate::index::SecondaryIndex;
use crate::sql::ParsedQuery;
use crate::stats::{default_stats_workers, TableStats};
use crate::subscribe::Subscription;
use crate::table::Table;
use crate::EngineError;
use mpq_core::{CoreError, DeriveOptions, Envelope, EnvelopeProvider, ProxyScore};
use mpq_types::{AttrId, ClassId, Member, Row};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A registered mining model with its precomputed envelopes.
pub struct ModelEntry {
    /// Model name (catalog key).
    pub name: String,
    /// The trained model.
    pub model: Arc<dyn EnvelopeProvider + Send + Sync>,
    /// Per-class upper envelopes, precomputed at registration.
    pub envelopes: Vec<Envelope>,
    /// Bumped on retraining; plans record the versions they depended on.
    pub version: u64,
    /// Derivation options the envelopes were computed with.
    pub derive_opts: DeriveOptions,
    /// `Some(reason)` when envelope derivation failed and the trivial
    /// `TRUE` envelopes were installed instead. Degraded models still
    /// answer queries correctly (the mining predicate remains as the
    /// residual filter) but without access-path benefits. Cleared by a
    /// successful retrain.
    pub degraded: Option<String>,
    /// Serialized form for durability. `None` marks a *transient* model
    /// (registered as a bare trait object with no serializable
    /// counterpart): it is skipped by checkpoints and does not survive
    /// recovery. Models created through SQL DDL or
    /// [`crate::Engine::register_durable_model`] always carry one.
    pub stored: Option<crate::persist::StoredModel>,
    /// The tabulated proxy score for cascade evaluation, built at
    /// registration (and retrain) for additive-score families
    /// (NB/k-means/GMM) and verified there, once per model version,
    /// against a fresh rebuild; `None` for families without one (their
    /// envelopes are exact anyway), for a model whose table could sum to
    /// NaN, and for a table that failed that check. Each execution compares the table it is about to trust
    /// with this one — see [`ModelEntry::cascade_note`].
    pub proxy: Option<Arc<ProxyScore>>,
    /// `Some(reason)` when a proxy table failed verification — at
    /// registration, or before an execution (e.g. under the injected
    /// cascade-table fault) — and the executor fell back to the sound
    /// scorer path for this model. An execution's failure is cleared by
    /// the next successful cascade build. Interior-mutable because
    /// executors only hold a shared catalog borrow.
    pub cascade_note: Mutex<Option<String>>,
}

/// A registered table with statistics and any secondary indexes.
pub struct TableEntry {
    /// The table data.
    pub table: Table,
    /// Per-column statistics.
    pub stats: TableStats,
    /// Secondary indexes, keyed by column.
    pub indexes: Vec<SecondaryIndex>,
}

impl TableEntry {
    /// The single-column index on `attr`, if one exists.
    pub fn index_on(&self, attr: AttrId) -> Option<&SecondaryIndex> {
        self.indexes.iter().find(|ix| ix.is_over(&[attr]))
    }

    /// Position of the index over exactly the given (sorted) column set.
    pub fn index_over(&self, cols: &[AttrId]) -> Option<usize> {
        self.indexes.iter().position(|ix| ix.is_over(cols))
    }
}

/// The engine catalog.
#[derive(Default)]
pub struct Catalog {
    tables: Vec<TableEntry>,
    models: Vec<ModelEntry>,
    faults: Arc<FaultInjector>,
    /// Applied statement ids and their outcomes, for exactly-once
    /// retries. Mutated only under the catalog write lock, so it stays
    /// crash-consistent with the state it guards.
    dedup: StatementDedup,
    /// Replication epoch: bumped durably on every standby promotion.
    /// A replication stream stamped with an older epoch is rejected,
    /// which fences a deposed (zombie) primary.
    epoch: u64,
    /// Standing subscriptions, keyed by stable id. Mutated only under
    /// the catalog write lock (the same WAL-backed path as tables and
    /// models), so registrations survive crash recovery.
    subs: BTreeMap<u64, Subscription>,
    /// Next id to hand out (never reused, even after UNSUBSCRIBE).
    next_sub_id: u64,
    /// Bumped on every subscribe/unsubscribe; the engine's cached
    /// inverted index is invalidated when this moves.
    subs_generation: u64,
    /// `Some(note)` while the subscription matcher is running in
    /// degraded per-subscription full-evaluation mode (index-corruption
    /// fault armed). Interior-mutable: the matcher only holds a shared
    /// borrow.
    sub_index_note: Mutex<Option<String>>,
}

/// Derives per-class envelopes, absorbing every failure mode this layer
/// can see: injected faults, derivation timeouts
/// ([`mpq_core::CoreError::DeriveTimeout`]), and panics inside model
/// code. On `Err` the caller degrades to trivial envelopes.
fn derive_envelopes(
    model: &Arc<dyn EnvelopeProvider + Send + Sync>,
    opts: &DeriveOptions,
    faults: &FaultInjector,
) -> Result<Vec<Envelope>, String> {
    if faults.derive_timeout_armed() {
        let budget = opts.time_budget.unwrap_or(Duration::ZERO);
        return Err(CoreError::DeriveTimeout { budget }.to_string());
    }
    if faults.derive_grid_too_large_armed() {
        return Err("attribute grid too large for top-down derivation (injected)".to_string());
    }
    let model = Arc::clone(model);
    let opts = *opts;
    match catch_unwind(AssertUnwindSafe(move || model.try_envelopes(&opts))) {
        Ok(Ok(envs)) => Ok(envs),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!(
            "panic during envelope derivation: {}",
            crate::error::panic_message(&*payload)
        )),
    }
}

/// One trivial (`TRUE`) envelope per class: sound because the mining
/// predicate itself stays in the residual, so queries fall back to
/// scan-plus-filter semantics.
fn trivial_envelopes(model: &Arc<dyn EnvelopeProvider + Send + Sync>) -> Vec<Envelope> {
    let schema = model.schema();
    (0..model.n_classes()).map(|k| Envelope::trivial(ClassId(k as u16), schema)).collect()
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Creates an empty catalog sharing an existing fault injector —
    /// recovery uses this so faults armed before [`crate::Engine::open`]
    /// apply to the replayed state too.
    pub fn with_faults(faults: Arc<FaultInjector>) -> Catalog {
        Catalog { faults, ..Catalog::default() }
    }

    /// The shared fault injector (every fault off unless a test armed it).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// A cloneable handle to the fault injector, for arming faults while
    /// the catalog is borrowed elsewhere.
    pub fn fault_injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.faults)
    }

    /// The statement-outcome dedup store (exactly-once retries).
    pub fn dedup(&self) -> &StatementDedup {
        &self.dedup
    }

    /// Mutable dedup store — callers hold the catalog write lock, which
    /// keeps dedup state and applied state in lockstep.
    pub fn dedup_mut(&mut self) -> &mut StatementDedup {
        &mut self.dedup
    }

    /// Replaces the dedup store wholesale (snapshot recovery).
    pub(crate) fn set_dedup(&mut self, dedup: StatementDedup) {
        self.dedup = dedup;
    }

    /// Current replication epoch (0 until a promotion ever happened).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the replication epoch (recovery replay and promotion).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Registers a standing subscription under a caller-chosen id (the
    /// id is allocated *before* WAL logging so replay reproduces it
    /// exactly). The query must already be validated against this
    /// catalog.
    pub fn add_subscription(
        &mut self,
        id: u64,
        sql: String,
        query: ParsedQuery,
    ) -> Result<(), EngineError> {
        if self.subs.contains_key(&id) {
            return Err(EngineError::Duplicate(format!("subscription {id}")));
        }
        self.subs.insert(
            id,
            Subscription { id, table: query.table, sql, predicate: query.predicate },
        );
        self.next_sub_id = self.next_sub_id.max(id + 1);
        self.subs_generation += 1;
        Ok(())
    }

    /// Removes a standing subscription.
    pub fn remove_subscription(&mut self, id: u64) -> Result<(), EngineError> {
        if self.subs.remove(&id).is_none() {
            return Err(EngineError::UnknownSubscription(id));
        }
        self.subs_generation += 1;
        Ok(())
    }

    /// The id `SUBSCRIBE` will assign next (ids start at 1 and are
    /// never reused).
    pub fn next_subscription_id(&self) -> u64 {
        self.next_sub_id.max(1)
    }

    /// Raises the next-id floor (snapshot recovery): ids stay unique
    /// even when every subscription present at snapshot time has since
    /// been removed.
    pub(crate) fn clamp_next_subscription_id(&mut self, floor: u64) {
        self.next_sub_id = self.next_sub_id.max(floor);
    }

    /// Every registered subscription, in ascending id order.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subs.values()
    }

    /// Looks up one subscription by id.
    pub fn subscription(&self, id: u64) -> Option<&Subscription> {
        self.subs.get(&id)
    }

    /// Number of registered subscriptions.
    pub fn n_subscriptions(&self) -> usize {
        self.subs.len()
    }

    /// Subscription-set generation (bumped on every change), for index
    /// invalidation.
    pub(crate) fn subs_generation(&self) -> u64 {
        self.subs_generation
    }

    /// The degraded-matcher health note, if the last insert matched in
    /// per-subscription full-evaluation mode.
    pub fn sub_index_note(&self) -> Option<String> {
        self.sub_index_note.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Records (or clears) the degraded-matcher health note.
    pub(crate) fn set_sub_index_note(&self, note: Option<String>) {
        *self.sub_index_note.lock().unwrap_or_else(|e| e.into_inner()) = note;
    }

    /// Registers a table, building statistics.
    pub fn add_table(&mut self, table: Table) -> Result<usize, EngineError> {
        if self.table_by_name(table.name()).is_some() {
            return Err(EngineError::Duplicate(table.name().to_string()));
        }
        let stats = TableStats::build_parallel(&table, default_stats_workers());
        self.tables.push(TableEntry { table, stats, indexes: Vec::new() });
        Ok(self.tables.len() - 1)
    }

    /// Registers a trained model under `name`, precomputing the per-class
    /// envelopes (§4.2 training-time step).
    ///
    /// Derivation failures (timeout over
    /// [`DeriveOptions::time_budget`], panics, injected faults) do NOT
    /// fail the registration: the model is installed with trivial
    /// `TRUE` envelopes and marked [`ModelEntry::degraded`]. Queries
    /// against it remain correct — only unoptimized.
    pub fn add_model(
        &mut self,
        name: impl Into<String>,
        model: Arc<dyn EnvelopeProvider + Send + Sync>,
        opts: DeriveOptions,
    ) -> Result<ModelId, EngineError> {
        self.add_model_stored(name, model, opts, None)
    }

    /// Like [`Catalog::add_model`], also attaching the model's durable
    /// serialized form (see [`ModelEntry::stored`]).
    pub fn add_model_stored(
        &mut self,
        name: impl Into<String>,
        model: Arc<dyn EnvelopeProvider + Send + Sync>,
        opts: DeriveOptions,
        stored: Option<crate::persist::StoredModel>,
    ) -> Result<ModelId, EngineError> {
        let name = name.into();
        if self.model_by_name(&name).is_some() {
            return Err(EngineError::Duplicate(name));
        }
        let (envelopes, degraded) = match derive_envelopes(&model, &opts, &self.faults) {
            Ok(envs) => (envs, None),
            Err(reason) => (trivial_envelopes(&model), Some(reason)),
        };
        let (proxy, note) = crate::compile::verified_proxy(&*model, &name);
        self.models.push(ModelEntry {
            name,
            model,
            envelopes,
            version: 1,
            derive_opts: opts,
            degraded,
            stored,
            proxy,
            cascade_note: Mutex::new(note),
        });
        Ok(self.models.len() - 1)
    }

    /// Replaces a model's contents (retraining): envelopes are recomputed
    /// and the version bumped, invalidating dependent cached plans.
    /// Reuses the options supplied at registration (or the last
    /// [`Catalog::retrain_model_with`]).
    pub fn retrain_model(
        &mut self,
        id: ModelId,
        model: Arc<dyn EnvelopeProvider + Send + Sync>,
    ) -> Result<(), EngineError> {
        let opts = self
            .models
            .get(id)
            .ok_or_else(|| EngineError::UnknownModel(format!("#{id}")))?
            .derive_opts;
        self.retrain_model_with(id, model, opts)
    }

    /// Retrains with fresh derivation options — the retry path for a
    /// degraded model: supply a larger (or no) time budget and a
    /// successful derivation clears [`ModelEntry::degraded`].
    pub fn retrain_model_with(
        &mut self,
        id: ModelId,
        model: Arc<dyn EnvelopeProvider + Send + Sync>,
        opts: DeriveOptions,
    ) -> Result<(), EngineError> {
        // A plain retrain replaces the model *content*; whatever durable
        // form the entry had no longer describes it.
        self.retrain_model_stored(id, model, opts, None)
    }

    /// Like [`Catalog::retrain_model_with`], also replacing the entry's
    /// durable serialized form.
    pub fn retrain_model_stored(
        &mut self,
        id: ModelId,
        model: Arc<dyn EnvelopeProvider + Send + Sync>,
        opts: DeriveOptions,
        stored: Option<crate::persist::StoredModel>,
    ) -> Result<(), EngineError> {
        if id >= self.models.len() {
            return Err(EngineError::UnknownModel(format!("#{id}")));
        }
        let (envelopes, degraded) = match derive_envelopes(&model, &opts, &self.faults) {
            Ok(envs) => (envs, None),
            Err(reason) => (trivial_envelopes(&model), Some(reason)),
        };
        let entry = &mut self.models[id];
        let (proxy, note) = crate::compile::verified_proxy(&*model, &entry.name);
        entry.envelopes = envelopes;
        entry.proxy = proxy;
        entry.model = model;
        entry.version += 1;
        entry.derive_opts = opts;
        entry.degraded = degraded;
        entry.stored = stored;
        entry.cascade_note = Mutex::new(note);
        Ok(())
    }

    /// Appends validated rows to a table, rebuilding its statistics and,
    /// each into its own buffers, its secondary indexes. All-or-nothing:
    /// every row is validated against the schema before the first one is
    /// applied.
    pub fn insert_rows(&mut self, table_id: usize, rows: &[Vec<Member>]) -> Result<(), EngineError> {
        if table_id >= self.tables.len() {
            return Err(EngineError::UnknownTable(format!("#{table_id}")));
        }
        let entry = &mut self.tables[table_id];
        let schema = entry.table.schema();
        for row in rows {
            if row.len() != schema.len() {
                return Err(EngineError::SchemaMismatch {
                    detail: format!(
                        "row has {} values, table {} has {} columns",
                        row.len(),
                        entry.table.name(),
                        schema.len()
                    ),
                });
            }
            for (d, &m) in row.iter().enumerate() {
                if m >= schema.attrs()[d].domain.cardinality() {
                    return Err(EngineError::BadValue(format!(
                        "member {m} out of range for column {}",
                        schema.attrs()[d].name
                    )));
                }
            }
        }
        for row in rows {
            // Infallible after the validation pass above.
            entry.table.push_row(row)?;
        }
        entry.stats = TableStats::build_parallel(&entry.table, default_stats_workers());
        for ix in &mut entry.indexes {
            ix.rebuild(&entry.table);
        }
        Ok(())
    }

    /// Looks up a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.table.name().eq_ignore_ascii_case(name))
    }

    /// Looks up a model by name.
    pub fn model_by_name(&self, name: &str) -> Option<ModelId> {
        self.models.iter().position(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// The table entry at `id`.
    pub fn table(&self, id: usize) -> &TableEntry {
        &self.tables[id]
    }

    /// Mutable table entry (index creation).
    pub fn table_mut(&mut self, id: usize) -> &mut TableEntry {
        &mut self.tables[id]
    }

    /// The model entry at `id`.
    pub fn model(&self, id: ModelId) -> &ModelEntry {
        &self.models[id]
    }

    /// Number of registered models.
    pub fn n_models(&self) -> usize {
        self.models.len()
    }

    /// Number of registered tables.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Resolves a class label of a model.
    pub fn resolve_class(&self, model: ModelId, label: &str) -> Result<ClassId, EngineError> {
        let entry = self.model(model);
        entry.model.class_by_name(label).ok_or_else(|| EngineError::UnknownClass {
            model: entry.name.clone(),
            label: label.to_string(),
        })
    }

    /// Creates a secondary (possibly composite) index over `columns` of
    /// `table_id` if an identical one does not already exist. An empty
    /// column set is a no-op (an index over nothing is meaningless, and
    /// `SecondaryIndex::build` asserts non-emptiness).
    pub fn create_index(&mut self, table_id: usize, columns: &[AttrId]) {
        let mut cols = columns.to_vec();
        cols.sort_unstable();
        cols.dedup();
        if cols.is_empty() {
            return;
        }
        let entry = &mut self.tables[table_id];
        if entry.index_over(&cols).is_none() {
            let ix = SecondaryIndex::build(&entry.table, &cols);
            entry.indexes.push(ix);
        }
    }

    /// Drops the index over exactly `columns`, if present.
    pub fn drop_index(&mut self, table_id: usize, columns: &[AttrId]) {
        let mut cols = columns.to_vec();
        cols.sort_unstable();
        cols.dedup();
        let entry = &mut self.tables[table_id];
        if let Some(i) = entry.index_over(&cols) {
            entry.indexes.remove(i);
        }
    }
}

impl ModelOracle for Catalog {
    fn predict(&self, model: ModelId, row: &Row) -> ClassId {
        let entry = &self.models[model];
        // Injected scorer faults surface as panics because `predict`
        // returns a bare ClassId; the engine's catch_unwind entry points
        // convert them to `EngineError::Internal`.
        if self.faults.scorer_panic_armed() {
            panic!("injected fault: scorer panicked on model '{}'", entry.name);
        }
        if self.faults.scorer_nan_armed() {
            panic!("injected fault: scorer produced NaN for model '{}'", entry.name);
        }
        entry.model.predict(row)
    }

    fn class_for_member(&self, model: ModelId, column: AttrId, m: Member) -> Option<ClassId> {
        // Match by label: the column member's name against the model's
        // class names. Only meaningful for categorical columns.
        let entry = &self.models[model];
        let schema = entry.model.schema();
        let label = schema.attr(column).domain.member_label(m);
        entry.model.class_by_name(&label)
    }

    fn class_for_class(&self, from: ModelId, class: ClassId, to: ModelId) -> Option<ClassId> {
        // The pairing `rewrite::common_classes` gives the envelope.
        self.models[to].model.class_by_name(self.models[from].model.class_name(class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_core::paper_table1_model;
    use mpq_types::{Dataset, Value};

    fn catalog_with_model() -> (Catalog, ModelId) {
        let mut cat = Catalog::new();
        let nb = paper_table1_model();
        use mpq_models::Classifier as _;
        let schema = nb.schema().clone();
        let mut ds = Dataset::new(schema);
        ds.push_raw(&[Value::from("m0"), Value::from("m1")]).unwrap();
        cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        let id = cat.add_model("risk", Arc::new(nb), DeriveOptions::default()).unwrap();
        (cat, id)
    }

    #[test]
    fn registration_precomputes_envelopes() {
        let (cat, id) = catalog_with_model();
        let entry = cat.model(id);
        assert_eq!(entry.envelopes.len(), 3, "one envelope per class");
        assert_eq!(entry.version, 1);
        assert_eq!(cat.model_by_name("RISK"), Some(id), "case-insensitive lookup");
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut cat, _) = catalog_with_model();
        let nb = paper_table1_model();
        assert!(matches!(
            cat.add_model("risk", Arc::new(nb), DeriveOptions::default()),
            Err(EngineError::Duplicate(_))
        ));
        use mpq_models::Classifier as _;
        let ds = Dataset::new(paper_table1_model().schema().clone());
        assert!(matches!(
            cat.add_table(Table::from_dataset("T", &ds)),
            Err(EngineError::Duplicate(_))
        ));
    }

    #[test]
    fn retrain_bumps_version_and_recomputes() {
        let (mut cat, id) = catalog_with_model();
        let before = cat.model(id).envelopes.len();
        cat.retrain_model(id, Arc::new(paper_table1_model())).unwrap();
        assert_eq!(cat.model(id).version, 2);
        assert_eq!(cat.model(id).envelopes.len(), before);
        assert!(cat.retrain_model(99, Arc::new(paper_table1_model())).is_err());
    }

    #[test]
    fn derive_fault_degrades_instead_of_failing() {
        let mut cat = Catalog::new();
        cat.faults().set_derive_timeout(true);
        let id = cat
            .add_model("risk", Arc::new(paper_table1_model()), DeriveOptions::default())
            .expect("registration must survive derivation failure");
        let entry = cat.model(id);
        let schema = entry.model.schema().clone();
        assert!(entry.degraded.is_some(), "derivation failure recorded");
        assert_eq!(entry.envelopes.len(), 3);
        assert!(
            entry.envelopes.iter().all(|e| e.is_tautology(&schema) && !e.exact),
            "degraded envelopes are trivial TRUE"
        );
        // Retraining with the fault cleared recovers real envelopes.
        cat.faults().reset();
        cat.retrain_model(id, Arc::new(paper_table1_model())).unwrap();
        let entry = cat.model(id);
        assert!(entry.degraded.is_none());
        assert!(entry.envelopes.iter().any(|e| !e.is_tautology(&schema)));
        assert_eq!(entry.version, 2);
    }

    #[test]
    fn retrain_with_updates_options() {
        let (mut cat, id) = catalog_with_model();
        let opts = DeriveOptions {
            time_budget: Some(std::time::Duration::from_secs(60)),
            ..DeriveOptions::default()
        };
        cat.retrain_model_with(id, Arc::new(paper_table1_model()), opts).unwrap();
        assert_eq!(cat.model(id).derive_opts.time_budget, opts.time_budget);
        assert!(cat.model(id).degraded.is_none());
        assert!(cat
            .retrain_model_with(99, Arc::new(paper_table1_model()), opts)
            .is_err());
    }

    #[test]
    fn class_resolution() {
        let (cat, id) = catalog_with_model();
        assert_eq!(cat.resolve_class(id, "c2").unwrap(), ClassId(1));
        assert!(cat.resolve_class(id, "nope").is_err());
    }

    #[test]
    fn oracle_predicts_and_maps_members() {
        let (cat, id) = catalog_with_model();
        // Table 1: cell (m0, m1) belongs to c1.
        assert_eq!(cat.predict(id, &[0, 1]), ClassId(0));
        // d0's members are named m0..m3; none matches a class name.
        assert_eq!(cat.class_for_member(id, AttrId(0), 0), None);
    }

    #[test]
    fn index_creation_is_idempotent() {
        let (mut cat, _) = catalog_with_model();
        cat.create_index(0, &[AttrId(0)]);
        cat.create_index(0, &[AttrId(0)]);
        assert_eq!(cat.table(0).indexes.len(), 1);
        assert!(cat.table(0).index_on(AttrId(0)).is_some());
        assert!(cat.table(0).index_on(AttrId(1)).is_none());
        // Composite indexes are distinct objects from their singletons.
        cat.create_index(0, &[AttrId(1), AttrId(0)]);
        assert_eq!(cat.table(0).indexes.len(), 2);
        assert!(cat.table(0).index_over(&[AttrId(0), AttrId(1)]).is_some());
        cat.drop_index(0, &[AttrId(0), AttrId(1)]);
        assert_eq!(cat.table(0).indexes.len(), 1);
        cat.drop_index(0, &[AttrId(0)]);
        assert!(cat.table(0).indexes.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// After any sequence of `push_row`s, or of `insert_rows`
        /// statements, the table's page bitmaps, its statistics and every
        /// index — rebuilt into its own buffers — equal a from-scratch
        /// build, every probe equals a naive filter over the rows, and a
        /// scan of a column DNF skips the pages the reference skips.
        /// The indexes cover both build paths: key domains no larger
        /// than the row count (counting sort) and larger ones (tuple
        /// sort), one of them past 2^32 keys.
        #[test]
        fn maintained_access_paths_equal_a_fresh_build(seed in proptest::prelude::any::<u64>()) {
            use crate::expr::{Atom, AtomPred, Expr};
            use crate::optimizer::{choose_plan, AccessPath, OptimizerOptions, Plan};
            use crate::{execute_opts, ExecOptions, QueryGuard, RowId};
            let mut state = seed;
            let mut below = |n: u64| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let cards = [1 + below(5) as u16, 1 + below(5) as u16, 300, 300, 300, 300];
            let schema = mpq_types::Schema::new(
                cards
                    .iter()
                    .enumerate()
                    .map(|(d, &card)| {
                        let names: Vec<String> = (0..card).map(|m| format!("m{m}")).collect();
                        mpq_types::Attribute::new(
                            format!("c{d}"),
                            mpq_types::AttrDomain::categorical(names),
                        )
                    })
                    .collect(),
            )
            .unwrap();
            let row = |below: &mut dyn FnMut(u64) -> u64| -> Vec<Member> {
                // Column 2 is clustered by a slow drift; the rest are
                // uniform, but 300-member ones use few members.
                cards.iter().enumerate().map(|(d, &c)| match d {
                    0 | 1 => below(u64::from(c)) as Member,
                    _ => (below(8) * 37 % u64::from(c)) as Member,
                }).collect()
            };
            let rows_per_page = 1 + below(8) as usize;
            let initial: Vec<Vec<Member>> = (0..below(60)).map(|_| row(&mut below)).collect();
            let mut batches: Vec<Vec<Vec<Member>>> = Vec::new();
            for _ in 0..1 + below(6) {
                batches.push((0..below(40)).map(|_| row(&mut below)).collect());
            }
            let table_of = |rows: &[Vec<Member>]| {
                let columns =
                    (0..cards.len()).map(|d| rows.iter().map(|r| r[d]).collect()).collect();
                Table::from_encoded_parts("t", schema.clone(), columns, rows_per_page).unwrap()
            };
            let indexes: [&[u16]; 5] = [&[0], &[1, 0], &[2, 3], &[0, 2, 3, 4], &[2, 3, 4, 5]];

            let mut cat = Catalog::new();
            cat.add_table(table_of(&initial)).unwrap();
            for cols in indexes {
                cat.create_index(0, &cols.iter().map(|&c| AttrId(c)).collect::<Vec<_>>());
            }
            let mut pushed = table_of(&initial);
            let mut all = initial.clone();
            for batch in &batches {
                cat.insert_rows(0, batch).unwrap();
                for r in batch {
                    pushed.push_row(r).unwrap();
                }
                all.extend(batch.iter().cloned());
                let fresh = table_of(&all);
                let entry = cat.table(0);
                proptest::prop_assert_eq!(&entry.table, &fresh);
                proptest::prop_assert_eq!(&pushed, &fresh);
                proptest::prop_assert_eq!(&entry.stats, &TableStats::build(&fresh));
                for ix in &entry.indexes {
                    proptest::prop_assert_eq!(ix, &SecondaryIndex::build(&fresh, ix.columns()));
                    proptest::prop_assert_eq!(ix.n_rows(), all.len());
                    // Probes: each column pinned to a member, left free
                    // or ranged, against a filter over the rows.
                    for _ in 0..8 {
                        let preds: Vec<(AttrId, AtomPred)> = ix
                            .columns()
                            .iter()
                            .filter_map(|&c| {
                                let card = cards[c.index()];
                                let m = below(u64::from(card)) as Member;
                                let hi = m.saturating_add(40).min(card - 1);
                                match below(3) {
                                    0 => None,
                                    1 => Some((c, AtomPred::Eq(m))),
                                    _ => Some((c, AtomPred::Range { lo: m, hi })),
                                }
                            })
                            .collect();
                        let naive: Vec<RowId> = (0..all.len() as RowId)
                            .filter(|&r| {
                                let row = &all[r as usize];
                                preds.iter().all(|(c, p)| p.matches(row[c.index()]))
                            })
                            .collect();
                        proptest::prop_assert_eq!(ix.probe(&preds), naive.clone(), "{:?}", preds);
                        proptest::prop_assert_eq!(ix.probe_count(&preds), naive.len());
                    }
                }
                // Scans over the maintained bitmaps skip exactly the
                // pages the reference proves empty from their rows.
                for _ in 0..4 {
                    let disjuncts = (0..1 + below(4))
                        .map(|_| {
                            let atoms = (0..1 + below(2))
                                .map(|_| {
                                    let c = below(3) as usize;
                                    let lo = below(u64::from(cards[c])) as Member;
                                    let width = below(40) as Member;
                                    let hi = lo.saturating_add(width).min(cards[c] - 1);
                                    Expr::Atom(Atom {
                                        attr: AttrId(c as u16),
                                        pred: AtomPred::Range { lo, hi },
                                    })
                                })
                                .collect();
                            Expr::And(atoms)
                        })
                        .collect();
                    let plan = Plan {
                        access: AccessPath::FullScan,
                        ..choose_plan(
                            Expr::Or(disjuncts),
                            0,
                            &schema,
                            &cat,
                            &OptimizerOptions::default(),
                        )
                    };
                    let run = |vectorized| {
                        let opts = ExecOptions { vectorized, ..ExecOptions::default() };
                        execute_opts(&plan, &cat, QueryGuard::unlimited(), &opts).unwrap()
                    };
                    let (pipeline, reference) = (run(true), run(false));
                    proptest::prop_assert_eq!(&pipeline.rows, &reference.rows);
                    proptest::prop_assert_eq!(
                        pipeline.metrics.pages_skipped,
                        reference.metrics.pages_skipped
                    );
                }
            }
        }
    }
}
