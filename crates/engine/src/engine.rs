//! The engine facade: SQL in, rows + metrics out, with a plan cache that
//! is invalidated when a referenced mining model is retrained (§4.2's
//! correctness requirement for content-dependent plans).
//!
//! The engine is concurrently readable: every method takes `&self`, so
//! one `Engine` (or an `Arc<Engine>`) can serve many client threads at
//! once. Queries share a catalog read lock; DDL, inserts, and
//! checkpoints take it exclusively. Lock acquisition order is fixed —
//! catalog → optimizer options → plan cache → persist state — and every
//! lock recovers from poisoning (a panicking query cannot wedge the
//! engine; see DESIGN.md §8).

use crate::catalog::Catalog;
use crate::dedup::{DedupCheck, DedupOutcome};
use crate::display::plan_to_string;
use crate::error::panic_message;
use crate::exec::{execute_opts, ExecMetrics, ExecOptions};
use crate::expr::{Expr, ModelId};
use crate::fault::FaultInjector;
use crate::guard::QueryGuard;
use crate::optimizer::{choose_plan, OptimizerOptions, Plan};
use crate::persist::recovery::{self, Recovered};
use crate::persist::replicate::{self, ReplBatch, ReplRole, ReplStatus};
use crate::persist::wal::WalWriter;
use crate::persist::{snapshot, LogOp, RecoveryReport, StatementId, StoredModel};
use crate::rewrite::rewrite_mining_opts;
use crate::session::SessionState;
use crate::sql::{parse, parse_statement, ParsedQuery, Statement};
use crate::subscribe::{MatchEvent, SubIndex};
use crate::table::{RowId, Table};
use crate::vectorized::Scorer;
use crate::EngineError;
use mpq_core::{DeriveOptions, EnvelopeProvider};
use mpq_types::{AttrId, Member};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// How long a synchronously-replicated mutation waits for the standby's
/// acknowledgement before failing with a retryable I/O error. The
/// mutation is already durable locally when the wait starts, so a
/// timed-out (and retried) statement deduplicates instead of
/// re-applying.
const REPL_ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// Durability state of an engine opened from a directory.
struct PersistState {
    dir: PathBuf,
    wal: WalWriter,
    /// LSN the next logged mutation takes.
    next_lsn: u64,
    /// What recovery found when this engine was opened.
    report: RecoveryReport,
    /// Set by [`Engine::simulate_crash`]: suppresses the clean-shutdown
    /// marker so the next open exercises real recovery.
    crashed: bool,
}

/// Live replication state. Everything here is transient — the one
/// durable piece of replication state, the epoch, lives in the catalog
/// (bumped via [`LogOp::EpochBump`], so it replays and snapshots like
/// any other mutation).
struct ReplState {
    role: ReplRole,
    /// True when mutation acknowledgements gate on the standby having
    /// applied the record (synchronous replication).
    sync: bool,
    /// Set once a higher epoch was observed on the wire: `(our epoch
    /// when fenced, the higher epoch)`. A fenced node was deposed by a
    /// promotion and refuses all further mutations.
    fenced: Option<(u64, u64)>,
    /// Highest LSN the standby has acknowledged applying.
    acked_lsn: u64,
    /// Stream bytes of records appended locally (lag accounting).
    appended_bytes: u64,
    /// Stream bytes the standby has acknowledged.
    acked_bytes: u64,
}

impl Default for ReplState {
    fn default() -> ReplState {
        ReplState {
            role: ReplRole::Primary,
            sync: false,
            fenced: None,
            acked_lsn: 0,
            appended_bytes: 0,
            acked_bytes: 0,
        }
    }
}

/// Result of running one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Matching row ids (empty for EXPLAIN).
    pub rows: Vec<RowId>,
    /// Execution metrics (zeroed for EXPLAIN).
    pub metrics: ExecMetrics,
    /// EXPLAIN text of the executed (or explained) plan.
    pub plan: String,
    /// Whether the physical plan differs from a plain full scan — the
    /// paper's "plan changed" criterion.
    pub plan_changed: bool,
    /// Whether the plan came from the cache.
    pub cached_plan: bool,
}

/// Result of [`Engine::execute_sql`].
///
/// `Query` dwarfs the ack variants; statements are infrequent enough
/// that boxing it isn't worth the ergonomic cost at every call site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum StatementOutcome {
    /// A SELECT ran (or was explained).
    Query(QueryOutcome),
    /// A mining model was trained and registered.
    ModelCreated {
        /// The model's catalog name.
        name: String,
        /// Its catalog id.
        model: ModelId,
        /// Number of output classes/clusters.
        n_classes: usize,
        /// `Some(reason)` when envelope derivation failed and the model
        /// was installed with trivial `TRUE` envelopes (degraded but
        /// correct; see [`crate::ModelEntry::degraded`]).
        degraded: Option<String>,
    },
    /// Rows were appended by an `INSERT`.
    Inserted {
        /// Target table name.
        table: String,
        /// Number of rows appended.
        rows_inserted: u64,
        /// Total (subscription, row) matches the insert produced across
        /// every standing subscription on the target table.
        subs_matched: u64,
        /// Total (subscription, row) candidacies the subscriptions' guard
        /// pruned without evaluating the rewritten predicate.
        subs_index_pruned: u64,
    },
    /// A standing subscription was registered by `SUBSCRIBE`.
    Subscribed {
        /// The durable subscription id (stable across crash recovery).
        id: u64,
    },
    /// A standing subscription was removed by `UNSUBSCRIBE`.
    Unsubscribed {
        /// The id that was removed.
        id: u64,
    },
    /// `SET PARALLELISM n` changed the session's degree of parallelism.
    ParallelismSet {
        /// The degree now in effect (after clamping).
        dop: usize,
    },
    /// `SET GUARD ...` changed the session's query guard.
    GuardSet {
        /// The complete guard now in effect for the session.
        guard: QueryGuard,
    },
}

/// Health snapshot of one registered model (see [`Engine::health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelHealth {
    /// Catalog name.
    pub name: String,
    /// Current version (bumped by retraining).
    pub version: u64,
    /// Degradation reason, if envelope derivation failed.
    pub degraded: Option<String>,
    /// Number of per-class envelopes installed.
    pub n_envelopes: usize,
    /// How many of those are exact (tight) envelopes.
    pub exact_envelopes: usize,
    /// `Some(note)` when the model's proxy cascade was disabled because
    /// its stored table failed verification against a fresh rebuild
    /// (e.g. under the injected cascade-table fault); queries still run
    /// on the sound envelope+residual scorer path.
    pub cascade_note: Option<String>,
}

/// Engine-wide health report: per-model envelope status plus catalog
/// and cache counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineHealth {
    /// One entry per registered model.
    pub models: Vec<ModelHealth>,
    /// Number of registered tables.
    pub tables: usize,
    /// Number of cached plans.
    pub cached_plans: usize,
    /// What recovery found when the engine was opened from a durability
    /// directory; `None` for purely in-memory engines.
    pub recovery: Option<RecoveryReport>,
    /// This node's replication role (every engine is a primary unless
    /// it was explicitly made a standby).
    pub role: ReplRole,
    /// This node's replication epoch (0 until a promotion happened
    /// anywhere in the replica set's history).
    pub epoch: u64,
    /// Records appended but not yet acknowledged by the standby; `None`
    /// unless this node is a primary with synchronous replication on.
    pub replica_lag_records: Option<u64>,
    /// Bytes appended but not yet acknowledged by the standby.
    pub replica_lag_bytes: Option<u64>,
    /// Number of registered standing subscriptions.
    pub subscriptions: usize,
    /// `Some(note)` when the last insert matched subscriptions in the
    /// degraded per-subscription full-evaluation mode (index-corruption
    /// fault armed); matches stay oracle-identical, only slower.
    pub sub_index_note: Option<String>,
}

impl EngineHealth {
    /// True when no model is degraded.
    pub fn all_healthy(&self) -> bool {
        self.models.iter().all(|m| m.degraded.is_none())
    }
}

impl std::fmt::Display for EngineHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "tables: {}, cached plans: {}, subscriptions: {}",
            self.tables, self.cached_plans, self.subscriptions
        )?;
        if let Some(note) = &self.sub_index_note {
            writeln!(f, "subscription matcher: {note}")?;
        }
        match (self.replica_lag_records, self.replica_lag_bytes) {
            (Some(records), Some(bytes)) => writeln!(
                f,
                "role: {}, epoch: {}, replica lag: {records} records ({bytes} bytes)",
                self.role, self.epoch
            )?,
            _ => writeln!(f, "role: {}, epoch: {}", self.role, self.epoch)?,
        }
        if let Some(r) = &self.recovery {
            writeln!(f, "{r}")?;
        }
        for m in &self.models {
            match &m.degraded {
                Some(reason) => writeln!(
                    f,
                    "model '{}' v{}: DEGRADED ({reason}); {} trivial envelopes",
                    m.name, m.version, m.n_envelopes
                )?,
                None => writeln!(
                    f,
                    "model '{}' v{}: healthy; {} envelopes ({} exact)",
                    m.name, m.version, m.n_envelopes, m.exact_envelopes
                )?,
            }
            if let Some(note) = &m.cascade_note {
                writeln!(f, "  {note}")?;
            }
        }
        Ok(())
    }
}

/// A SQL-facing engine over a [`Catalog`], safe to share across threads
/// (`Engine: Send + Sync`) — queries run under a shared catalog read
/// lock, mutations under an exclusive one.
///
/// Guard-returning accessors ([`Engine::catalog`],
/// [`Engine::catalog_mut`]) hold that lock until dropped: never keep
/// one across a call to a mutating method on the same engine from the
/// same thread, or the write lock will wait on your own read guard.
pub struct Engine {
    catalog: RwLock<Catalog>,
    opts: RwLock<OptimizerOptions>,
    plan_cache: Mutex<HashMap<String, Plan>>,
    guard: RwLock<QueryGuard>,
    /// Degree of parallelism for query execution (`SET PARALLELISM n`).
    parallelism: AtomicUsize,
    /// `Some` when the engine was opened from a durability directory.
    persist: Mutex<Option<PersistState>>,
    /// Replication role, fence, and standby-acknowledgement progress.
    repl: Mutex<ReplState>,
    /// Signalled on every standby acknowledgement (and on fencing), so
    /// synchronous mutations can wait without spinning.
    repl_cv: Condvar,
    /// Cached compiled index over the standing subscriptions,
    /// rebuilt when its key (subscription generation, model versions,
    /// compile flag) no longer matches the catalog.
    sub_index: Mutex<Option<Arc<SubIndex>>>,
    /// Where subscription match events go (installed by the server;
    /// `None` drops them). Called *after* the insert's catalog lock is
    /// released and replication has acknowledged, so a slow sink can
    /// never block the write path.
    notify_sink: RwLock<Option<NotifySink>>,
}

/// Callback receiving every subscription match event.
pub type NotifySink = Arc<dyn Fn(MatchEvent) + Send + Sync>;

/// Compile-time proof that the engine can be shared across threads.
#[allow(dead_code)]
fn engine_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
}

/// Default degree of parallelism: the cores this process may use.
fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 256)
}

impl Engine {
    /// Wraps a catalog with default optimizer options and an unlimited
    /// query guard. Purely in-memory: nothing survives the process (use
    /// [`Engine::open`] for durability).
    pub fn new(catalog: Catalog) -> Engine {
        Engine {
            catalog: RwLock::new(catalog),
            opts: RwLock::new(OptimizerOptions::default()),
            plan_cache: Mutex::new(HashMap::new()),
            guard: RwLock::new(QueryGuard::unlimited()),
            parallelism: AtomicUsize::new(default_parallelism()),
            persist: Mutex::new(None),
            repl: Mutex::new(ReplState::default()),
            repl_cv: Condvar::new(),
            sub_index: Mutex::new(None),
            notify_sink: RwLock::new(None),
        }
    }

    /// Opens (or creates) a durable engine backed by directory `dir`.
    ///
    /// Recovery runs here: the newest checksum-valid snapshot is loaded,
    /// the WAL prefix up to the first torn/corrupt record is replayed,
    /// and the log is truncated to that verified prefix. What was found
    /// — including anything dropped — is reported by
    /// [`Engine::recovery_report`], [`Engine::health`], and `EXPLAIN`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Engine, EngineError> {
        Engine::open_with_faults(dir, Arc::new(FaultInjector::new()))
    }

    /// Like [`Engine::open`], sharing a pre-armed fault injector so
    /// tests can make recovery itself misbehave (short reads).
    pub fn open_with_faults(
        dir: impl AsRef<Path>,
        faults: Arc<FaultInjector>,
    ) -> Result<Engine, EngineError> {
        let dir = dir.as_ref().to_path_buf();
        let Recovered { catalog, wal, next_lsn, report } =
            recovery::recover(&dir, faults)?;
        Ok(Engine {
            catalog: RwLock::new(catalog),
            opts: RwLock::new(OptimizerOptions::default()),
            plan_cache: Mutex::new(HashMap::new()),
            guard: RwLock::new(QueryGuard::unlimited()),
            parallelism: AtomicUsize::new(default_parallelism()),
            persist: Mutex::new(Some(PersistState {
                dir,
                wal,
                next_lsn,
                report,
                crashed: false,
            })),
            repl: Mutex::new(ReplState::default()),
            repl_cv: Condvar::new(),
            sub_index: Mutex::new(None),
            notify_sink: RwLock::new(None),
        })
    }

    // -- poison-recovering lock helpers (a panicking writer must not
    //    wedge every later caller; state under a recovered lock is
    //    consistent because mutations validate before they apply) ------

    fn read_catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_catalog(&self) -> RwLockWriteGuard<'_, Catalog> {
        self.catalog.write().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_cache(&self) -> MutexGuard<'_, HashMap<String, Plan>> {
        self.plan_cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_persist(&self) -> MutexGuard<'_, Option<PersistState>> {
        self.persist.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_repl(&self) -> MutexGuard<'_, ReplState> {
        self.repl.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// What recovery found when this engine was opened from a
    /// durability directory (`None` for in-memory engines).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.lock_persist().as_ref().map(|p| p.report.clone())
    }

    /// Logs a validated mutation (WAL append + fsync, when durable) and
    /// then applies it through the same code replay uses, so the live
    /// state and the recovered state can never disagree. The caller
    /// holds the catalog write lock, which serializes WAL order with
    /// apply order.
    ///
    /// Callers must pre-validate: once the record is on disk it WILL be
    /// replayed, so an op that fails to apply here would poison every
    /// future open. An `Io` error means the append failed and the
    /// mutation was *not* applied.
    ///
    /// A standby refuses with [`EngineError::ReadOnly`] (its mutations
    /// arrive only through [`Engine::apply_replicated_frames`]); a
    /// fenced ex-primary refuses with [`EngineError::StaleEpoch`].
    ///
    /// Returns the LSN the record was logged at (0 for in-memory
    /// engines, whose LSNs start at 1).
    fn apply_durable_locked(
        &self,
        catalog: &mut Catalog,
        mut op: LogOp,
    ) -> Result<u64, EngineError> {
        {
            let repl = self.lock_repl();
            if repl.role == ReplRole::Standby {
                return Err(EngineError::ReadOnly {
                    detail: "mutations reach a standby only via the replication stream"
                        .to_string(),
                });
            }
            if let Some((sent, have)) = repl.fenced {
                return Err(EngineError::StaleEpoch { sent, have });
            }
        }
        self.lock_cache().clear();
        let mut lsn = 0;
        {
            let mut persist = self.lock_persist();
            if let Some(p) = persist.as_mut() {
                lsn = p.next_lsn;
                let frame_bytes = p.wal.append(p.next_lsn, &op)?;
                p.next_lsn += 1;
                self.lock_repl().appended_bytes += frame_bytes;
            }
        }
        recovery::apply_op(catalog, &mut op)?;
        Ok(lsn)
    }

    /// Registers a table durably (logged before it is applied when the
    /// engine was opened from a directory).
    pub fn create_table(&self, table: Table) -> Result<usize, EngineError> {
        let mut catalog = self.write_catalog();
        if catalog.table_by_name(table.name()).is_some() {
            return Err(EngineError::Duplicate(table.name().to_string()));
        }
        // The columns move from `table` into the op and on into the
        // catalog's table: no copy of the data is made.
        let (name, schema, columns, rows_per_page) = table.into_parts();
        let op = LogOp::CreateTable { name, schema, rows_per_page: rows_per_page as u64, columns };
        self.apply_durable_locked(&mut catalog, op)?;
        Ok(catalog.n_tables() - 1)
    }

    /// Appends rows to a table durably. All-or-nothing: every row is
    /// validated against the schema before anything is logged.
    pub fn insert_rows(
        &self,
        table: &str,
        rows: Vec<Vec<Member>>,
    ) -> Result<(), EngineError> {
        let mut catalog = self.write_catalog();
        let id = catalog
            .table_by_name(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        let t = &catalog.table(id).table;
        validate_rows(t, &rows)?;
        let name = t.name().to_string();
        self.apply_durable_locked(&mut catalog, LogOp::Insert { table: name, rows })?;
        Ok(())
    }

    /// Creates a secondary index durably.
    pub fn create_index(&self, table: &str, columns: &[AttrId]) -> Result<(), EngineError> {
        let mut catalog = self.write_catalog();
        let (name, cols) = checked_index_target(&catalog, table, columns)?;
        self.apply_durable_locked(
            &mut catalog,
            LogOp::CreateIndex { table: name, columns: cols },
        )?;
        Ok(())
    }

    /// Drops a secondary index durably (a no-op if none matches).
    pub fn drop_index(&self, table: &str, columns: &[AttrId]) -> Result<(), EngineError> {
        let mut catalog = self.write_catalog();
        let (name, cols) = checked_index_target(&catalog, table, columns)?;
        self.apply_durable_locked(
            &mut catalog,
            LogOp::DropIndex { table: name, columns: cols },
        )?;
        Ok(())
    }

    /// Replaces a model's content durably from its serialized form. The
    /// form is instantiated (and thereby fully validated) *before* it is
    /// logged, so a bad document can never reach the WAL.
    pub fn retrain_durable_model(
        &self,
        name: &str,
        stored: StoredModel,
        opts: DeriveOptions,
    ) -> Result<(), EngineError> {
        let mut catalog = self.write_catalog();
        if catalog.model_by_name(name).is_none() {
            return Err(EngineError::UnknownModel(name.to_string()));
        }
        stored.instantiate()?;
        self.apply_durable_locked(
            &mut catalog,
            LogOp::Retrain { name: name.to_string(), stored, opts },
        )?;
        Ok(())
    }

    /// Registers a model durably from its serialized form (the
    /// programmatic twin of `CREATE MINING MODEL`, for models trained
    /// elsewhere and shipped as PMML).
    pub fn register_durable_model(
        &self,
        name: &str,
        stored: StoredModel,
        opts: DeriveOptions,
    ) -> Result<ModelId, EngineError> {
        let mut catalog = self.write_catalog();
        if catalog.model_by_name(name).is_some() {
            return Err(EngineError::Duplicate(name.to_string()));
        }
        stored.instantiate()?;
        self.apply_durable_locked(
            &mut catalog,
            LogOp::CreateModel { name: name.to_string(), stored, opts },
        )?;
        Ok(catalog.n_models() - 1)
    }

    /// Writes a checkpoint: the whole durable catalog as one atomically
    /// installed, checksummed snapshot, after which the WAL is rotated
    /// and segments older generations no longer need are deleted. The
    /// two newest snapshots are retained so a corrupt newest snapshot
    /// still leaves a recoverable older generation (with its WAL).
    ///
    /// Holds the catalog read lock for the duration, so the snapshot is
    /// a consistent cut: concurrent queries proceed, concurrent DDL
    /// waits.
    ///
    /// Returns the LSN the snapshot covers. Errors if the engine is
    /// in-memory ([`Engine::new`]).
    pub fn checkpoint(&self) -> Result<u64, EngineError> {
        let catalog = self.read_catalog();
        let mut persist = self.lock_persist();
        let p = persist.as_mut().ok_or_else(|| EngineError::Io {
            detail: "checkpoint on an in-memory engine (use Engine::open)".to_string(),
        })?;
        let last_lsn = p.next_lsn - 1;
        snapshot::write_snapshot(&p.dir, &catalog, last_lsn)?;
        // Rotate the log unless the current segment is still empty (a
        // repeated checkpoint with no mutations in between).
        if p.wal.start_lsn() != p.next_lsn {
            p.wal = WalWriter::create(&p.dir, p.next_lsn, catalog.fault_injector())?;
        }
        // Retain the two newest snapshots; drop older ones and every
        // segment the *older* retained snapshot no longer needs (so the
        // fallback generation keeps a complete log suffix).
        let snapshots = recovery::list_snapshots(&p.dir)?;
        for (_, path) in snapshots.iter().skip(2) {
            std::fs::remove_file(path)?;
        }
        if let Some((fallback_lsn, _)) = snapshots.get(1) {
            let segments = recovery::list_segments(&p.dir)?;
            for w in segments.windows(2) {
                let (_, ref path) = w[0];
                let (next_start, _) = w[1];
                if next_start <= fallback_lsn + 1 && path != p.wal.path() {
                    std::fs::remove_file(path)?;
                }
            }
        }
        Ok(last_lsn)
    }

    /// Drops the engine *without* writing the clean-shutdown marker,
    /// exactly as a crash would — the next [`Engine::open`] replays the
    /// log for real. Test hook for crash-safety tests.
    pub fn simulate_crash(self) {
        if let Some(p) = self.lock_persist().as_mut() {
            p.crashed = true;
        }
    }

    /// The guard applied to every query.
    pub fn guard(&self) -> QueryGuard {
        *self.guard.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets the resource guard applied to every subsequent query.
    pub fn set_guard(&self, guard: QueryGuard) {
        *self.guard.write().unwrap_or_else(|e| e.into_inner()) = guard;
    }

    /// Degree of parallelism applied to query execution.
    pub fn parallelism(&self) -> usize {
        self.parallelism.load(Ordering::Relaxed)
    }

    /// Sets the degree of parallelism (clamped to `1..=256`); `1` runs
    /// the pipeline inline on the calling thread. Also reachable as
    /// `SET PARALLELISM n`.
    pub fn set_parallelism(&self, dop: usize) {
        self.parallelism.store(dop.clamp(1, 256), Ordering::Relaxed);
    }

    /// The catalog's fault injector (test hook; all faults off by
    /// default).
    pub fn fault_injector(&self) -> Arc<FaultInjector> {
        self.read_catalog().fault_injector()
    }

    // ---- standing subscriptions (predicate pub/sub) ------------------

    /// Installs (or clears) the callback that receives subscription
    /// match events. The server installs one sink per process and fans
    /// events out to subscriber sessions; embedded users can install a
    /// channel sender. Events are delivered on the inserting thread,
    /// after the insert is durable, replicated, and unlocked.
    pub fn set_notify_sink(&self, sink: Option<NotifySink>) {
        *self.notify_sink.write().unwrap_or_else(|e| e.into_inner()) = sink;
    }

    /// The compiled subscription index for the current subscription set,
    /// reusing the cached build when its key still matches (same
    /// subscription generation, same model versions, same compile
    /// setting).
    fn sub_index_for(&self, catalog: &Catalog, compile: bool) -> Arc<SubIndex> {
        let mut cached = self.sub_index.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(idx) = cached.as_ref() {
            if *idx.key() == crate::subscribe::IndexKey::current(catalog, compile) {
                return Arc::clone(idx);
            }
        }
        let idx = Arc::new(SubIndex::build(catalog, compile));
        *cached = Some(Arc::clone(&idx));
        idx
    }

    /// Matches the rows appended at `first_row..` against every
    /// standing subscription on `table`. Runs under the catalog write
    /// lock, immediately after the insert applied, so the match set is
    /// exactly what re-running each subscription's query from scratch
    /// over the post-insert table would add — the differential oracle's
    /// definition of correct delivery.
    ///
    /// Returns the events plus the statement-level counters
    /// (`subs_matched`, `subs_index_pruned`).
    fn match_subscriptions(
        &self,
        catalog: &Catalog,
        table: usize,
        first_row: RowId,
    ) -> (Vec<MatchEvent>, u64, u64) {
        if catalog.n_subscriptions() == 0 {
            return (Vec::new(), 0, 0);
        }
        let opts = self.options();
        let compile = opts.compile_models && !catalog.faults().any_scorer_fault_armed();
        let idx = self.sub_index_for(catalog, compile);
        if idx.n_subs(table) == 0 {
            return (Vec::new(), 0, 0);
        }
        // Degraded mode: with the index-corruption fault armed the
        // matcher evaluates every subscription in full. Identical
        // matches by construction (the index is only ever a
        // necessary-condition filter), recorded as a health note.
        let naive = catalog.faults().sub_index_corrupt_armed();
        catalog.set_sub_index_note(naive.then(|| {
            "inverted subscription index distrusted (corruption fault armed); \
             every subscription evaluated in full against each inserted row"
                .to_string()
        }));
        let cascades = crate::compile::build_cascades(catalog, idx.models(table));
        let scorer = Scorer::with_cascades(catalog, cascades);
        let t = &catalog.table(table).table;
        let (hits, metrics) =
            idx.match_rows(table, t, first_row..t.n_rows() as RowId, &scorer, naive);
        let name = t.name().to_string();
        let matched = hits.len() as u64;
        let pruned = metrics.iter().map(|m| m.index_pruned).sum();
        let events = hits
            .into_iter()
            .map(|(row_id, subscription)| MatchEvent {
                subscription,
                table: name.clone(),
                row_id,
                row: t.row(row_id),
                metrics: metrics[(row_id - first_row) as usize],
            })
            .collect();
        (events, matched, pruned)
    }

    /// Hands match events to the installed notify sink, if any.
    fn deliver_matches(&self, events: Vec<MatchEvent>) {
        if events.is_empty() {
            return;
        }
        let sink = self.notify_sink.read().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(sink) = sink {
            for event in events {
                sink(event);
            }
        }
    }

    // ---- replication -------------------------------------------------

    /// This node's replication role.
    pub fn role(&self) -> ReplRole {
        self.lock_repl().role
    }

    /// This node's replication epoch (durable, catalog-resident).
    pub fn epoch(&self) -> u64 {
        self.read_catalog().epoch()
    }

    /// Makes this engine a read-only standby: every local mutation is
    /// refused with [`EngineError::ReadOnly`] until [`Engine::promote`].
    pub fn set_standby(&self) {
        self.lock_repl().role = ReplRole::Standby;
        self.repl_cv.notify_all();
    }

    /// Turns on synchronous replication: mutation acknowledgements gate
    /// on the standby confirming the record (via
    /// [`Engine::replica_acked`]).
    pub fn enable_sync_replication(&self) {
        self.lock_repl().sync = true;
    }

    /// Promotes a standby to primary: flips the role, clears any fence,
    /// and durably bumps the epoch so the deposed primary's stream (and
    /// any zombie writes it attempts) is rejected everywhere. Returns
    /// the new epoch. Safe to call on a node that is already primary —
    /// the bump still fences the peer.
    pub fn promote(&self) -> Result<u64, EngineError> {
        let mut catalog = self.write_catalog();
        let prior = {
            let mut repl = self.lock_repl();
            let prior = (repl.role, repl.fenced);
            repl.role = ReplRole::Primary;
            repl.fenced = None;
            prior
        };
        let epoch = catalog.epoch() + 1;
        match self.apply_durable_locked(&mut catalog, LogOp::EpochBump { epoch }) {
            Ok(_) => Ok(epoch),
            Err(e) => {
                // The bump never became durable: restore the prior role
                // so a failed promotion doesn't leave a writable node
                // with an unfenced twin.
                let mut repl = self.lock_repl();
                (repl.role, repl.fenced) = prior;
                Err(e)
            }
        }
    }

    /// Records a standby acknowledgement up to `lsn` (`bytes` is the
    /// stream size acknowledged, for lag accounting) and wakes waiting
    /// mutations. Called by the shipping layer.
    pub fn replica_acked(&self, lsn: u64, bytes: u64) {
        {
            let mut repl = self.lock_repl();
            repl.acked_lsn = repl.acked_lsn.max(lsn);
            repl.acked_bytes = repl.acked_bytes.saturating_add(bytes);
        }
        self.repl_cv.notify_all();
    }

    /// Marks this node fenced: a replication peer reported a higher
    /// epoch (`have`) than the one this node sent (`sent`). Every
    /// mutation — and every waiter in [`Engine::wait_replicated`] —
    /// fails with [`EngineError::StaleEpoch`] from now on.
    pub fn mark_fenced(&self, sent: u64, have: u64) {
        self.lock_repl().fenced = Some((sent, have));
        self.repl_cv.notify_all();
    }

    /// Blocks until the standby has acknowledged `lsn`, the node is
    /// fenced (typed error), or `timeout` elapses (retryable `Io`
    /// error). Immediate `Ok` when synchronous replication is off.
    /// Call *after* dropping the catalog write lock: the record is
    /// already durable locally, and holding the lock here would stall
    /// readers for the full network round-trip.
    pub fn wait_replicated(&self, lsn: u64, timeout: Duration) -> Result<(), EngineError> {
        let deadline = Instant::now() + timeout;
        let mut repl = self.lock_repl();
        loop {
            if !repl.sync || repl.role == ReplRole::Standby {
                return Ok(());
            }
            if let Some((sent, have)) = repl.fenced {
                return Err(EngineError::StaleEpoch { sent, have });
            }
            if repl.acked_lsn >= lsn {
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(EngineError::Io {
                    detail: format!(
                        "replication ack timeout: standby at lsn {}, waiting for {lsn}",
                        repl.acked_lsn
                    ),
                });
            }
            let (guard, _) = self
                .repl_cv
                .wait_timeout(repl, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            repl = guard;
        }
    }

    /// Point-in-time replication status (role, epoch, and — on a
    /// synchronous primary — how far behind the standby is).
    pub fn replication_status(&self) -> ReplStatus {
        let epoch = self.read_catalog().epoch();
        let last = self.last_lsn();
        let repl = self.lock_repl();
        let (lag_records, lag_bytes) = if repl.sync && repl.role == ReplRole::Primary {
            (
                Some(last.saturating_sub(repl.acked_lsn)),
                Some(repl.appended_bytes.saturating_sub(repl.acked_bytes)),
            )
        } else {
            (None, None)
        };
        ReplStatus { role: repl.role, epoch, lag_records, lag_bytes }
    }

    /// LSN of the most recently logged record (0 when nothing was ever
    /// logged, including for in-memory engines).
    pub fn last_lsn(&self) -> u64 {
        self.lock_persist().as_ref().map_or(0, |p| p.next_lsn - 1)
    }

    /// Reads committed WAL frames after `from_lsn` for shipping; see
    /// [`replicate::read_frames_after`] for the `None` (snapshot
    /// needed) contract. Errors on in-memory engines.
    pub fn replication_frames_after(
        &self,
        from_lsn: u64,
    ) -> Result<Option<ReplBatch>, EngineError> {
        let dir = self
            .lock_persist()
            .as_ref()
            .map(|p| p.dir.clone())
            .ok_or_else(|| EngineError::Io {
                detail: "replication requires a durable engine (use Engine::open)".to_string(),
            })?;
        replicate::read_frames_after(&dir, from_lsn, &self.fault_injector())
    }

    /// Serializes the whole catalog for standby bootstrap, returning
    /// the checksummed snapshot bytes and the LSN they cover. Taken
    /// under the catalog read lock, so it is a consistent cut.
    pub fn snapshot_for_replication(&self) -> Result<(Vec<u8>, u64), EngineError> {
        let catalog = self.read_catalog();
        let last_lsn = self.last_lsn();
        Ok((snapshot::serialize_catalog(&catalog, last_lsn), last_lsn))
    }

    /// Standby side of shipping: decodes a stream batch (strictly; any
    /// corrupt byte fails the whole batch) and replays each record
    /// through the recovery apply path, appending it to this node's own
    /// WAL first so the standby is itself crash-safe. Records below the
    /// standby's next LSN are skipped (at-least-once delivery), records
    /// above it are a typed gap error. A batch stamped with an epoch
    /// below this node's is refused — that sender was deposed.
    ///
    /// Returns this node's next LSN after the batch (the ack value).
    pub fn apply_replicated_frames(
        &self,
        epoch: u64,
        bytes: &[u8],
    ) -> Result<u64, EngineError> {
        let mut catalog = self.write_catalog();
        if self.lock_repl().role != ReplRole::Standby {
            return Err(EngineError::Internal {
                detail: "replication stream applied to a non-standby node".to_string(),
            });
        }
        if epoch < catalog.epoch() {
            return Err(EngineError::StaleEpoch { sent: epoch, have: catalog.epoch() });
        }
        let records = replicate::decode_stream(bytes)?;
        self.lock_cache().clear();
        let mut persist = self.lock_persist();
        let p = persist.as_mut().ok_or_else(|| EngineError::Io {
            detail: "standby replay requires a durable engine (use Engine::open)".to_string(),
        })?;
        for (lsn, mut op) in records {
            if lsn < p.next_lsn {
                continue; // duplicate delivery — already applied
            }
            if lsn > p.next_lsn {
                return Err(EngineError::Corrupt {
                    detail: format!(
                        "replication gap: received lsn {lsn}, expected {}",
                        p.next_lsn
                    ),
                });
            }
            p.wal.append(lsn, &op)?;
            p.next_lsn += 1;
            recovery::apply_op(&mut catalog, &mut op)?;
        }
        Ok(p.next_lsn)
    }

    /// Standby bootstrap: installs a primary-shipped snapshot as this
    /// node's entire durable state, replacing the catalog and starting
    /// a fresh WAL at the snapshot's LSN + 1. The pre-bootstrap log and
    /// snapshots describe a different history and are deleted.
    ///
    /// Returns this node's next LSN (the ack value).
    pub fn install_replica_snapshot(&self, bytes: &[u8]) -> Result<u64, EngineError> {
        let state = snapshot::decode_snapshot(bytes)?;
        let mut catalog = self.write_catalog();
        if self.lock_repl().role != ReplRole::Standby {
            return Err(EngineError::Internal {
                detail: "replication snapshot installed on a non-standby node".to_string(),
            });
        }
        if state.epoch < catalog.epoch() {
            return Err(EngineError::StaleEpoch { sent: state.epoch, have: catalog.epoch() });
        }
        let faults = catalog.fault_injector();
        let (new_catalog, last_lsn) = recovery::build_catalog(state, faults.clone())?;
        self.lock_cache().clear();
        let mut persist = self.lock_persist();
        let p = persist.as_mut().ok_or_else(|| EngineError::Io {
            detail: "standby bootstrap requires a durable engine (use Engine::open)".to_string(),
        })?;
        snapshot::write_snapshot(&p.dir, &new_catalog, last_lsn)?;
        for (lsn, path) in recovery::list_snapshots(&p.dir)? {
            if lsn != last_lsn {
                std::fs::remove_file(&path)?;
            }
        }
        // Delete every old segment *including* the one the current
        // writer holds open (its name could collide with the fresh
        // segment's); the held fd keeps pointing at the unlinked file
        // until the writer is replaced on the next line.
        for (_, path) in recovery::list_segments(&p.dir)? {
            std::fs::remove_file(&path)?;
        }
        p.wal = WalWriter::create(&p.dir, last_lsn + 1, faults)?;
        p.next_lsn = last_lsn + 1;
        *catalog = new_catalog;
        Ok(p.next_lsn)
    }

    /// Reports per-model envelope health plus catalog/cache counts —
    /// the operational view of degraded models.
    pub fn health(&self) -> EngineHealth {
        let catalog = self.read_catalog();
        let models = (0..catalog.n_models())
            .map(|id| {
                let e = catalog.model(id);
                ModelHealth {
                    name: e.name.clone(),
                    version: e.version,
                    degraded: e.degraded.clone(),
                    n_envelopes: e.envelopes.len(),
                    exact_envelopes: e.envelopes.iter().filter(|env| env.exact).count(),
                    cascade_note: e
                        .cascade_note
                        .lock()
                        .unwrap_or_else(|err| err.into_inner())
                        .clone(),
                }
            })
            .collect();
        let last = self.lock_persist().as_ref().map_or(0, |p| p.next_lsn - 1);
        let (role, lag_records, lag_bytes) = {
            let repl = self.lock_repl();
            if repl.sync && repl.role == ReplRole::Primary {
                (
                    repl.role,
                    Some(last.saturating_sub(repl.acked_lsn)),
                    Some(repl.appended_bytes.saturating_sub(repl.acked_bytes)),
                )
            } else {
                (repl.role, None, None)
            }
        };
        EngineHealth {
            models,
            tables: catalog.n_tables(),
            cached_plans: self.lock_cache().len(),
            recovery: self.lock_persist().as_ref().map(|p| p.report.clone()),
            role,
            epoch: catalog.epoch(),
            replica_lag_records: lag_records,
            replica_lag_bytes: lag_bytes,
            subscriptions: catalog.n_subscriptions(),
            sub_index_note: catalog.sub_index_note(),
        }
    }

    /// Read access to the catalog. The returned guard holds a shared
    /// lock: any number of readers (and running queries) coexist, but
    /// DDL waits until every guard is dropped — don't hold one across a
    /// mutating call on the same engine from the same thread.
    pub fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.read_catalog()
    }

    /// Mutable access to the catalog (table/model registration, index
    /// creation). Takes the exclusive lock and clears the plan cache —
    /// DDL invalidates plans.
    pub fn catalog_mut(&self) -> RwLockWriteGuard<'_, Catalog> {
        let catalog = self.write_catalog();
        self.lock_cache().clear();
        catalog
    }

    /// Current optimizer options.
    pub fn options(&self) -> OptimizerOptions {
        *self.opts.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Replaces optimizer options (clears the plan cache).
    pub fn set_options(&self, opts: OptimizerOptions) {
        *self.opts.write().unwrap_or_else(|e| e.into_inner()) = opts;
        self.lock_cache().clear();
    }

    /// Enables/disables envelope rewriting — the experiments' switch
    /// between the optimized path and the black-box baseline.
    pub fn set_use_envelopes(&self, on: bool) {
        self.opts.write().unwrap_or_else(|e| e.into_inner()).use_envelopes = on;
        self.lock_cache().clear();
    }

    /// Enables/disables model compilation (exact-envelope predicate
    /// substitution and proxy cascades). Off = the envelope+residual
    /// reference path every compiled plan is differentially tested
    /// against.
    pub fn set_compile_models(&self, on: bool) {
        self.opts.write().unwrap_or_else(|e| e.into_inner()).compile_models = on;
        self.lock_cache().clear();
    }

    /// Registers a trained model (training-time envelope precomputation
    /// happens inside the catalog). The model is *transient*: a bare
    /// trait object has no serialized form, so it is skipped by
    /// checkpoints and does not survive recovery — use
    /// [`Engine::register_durable_model`] or SQL DDL for durability.
    pub fn register_model(
        &self,
        name: impl Into<String>,
        model: Arc<dyn EnvelopeProvider + Send + Sync>,
        opts: DeriveOptions,
    ) -> Result<ModelId, EngineError> {
        let mut catalog = self.write_catalog();
        self.lock_cache().clear();
        catalog.add_model(name, model, opts)
    }

    /// Retrains a model in place; dependent cached plans become invalid
    /// via the version check. If the previous registration was degraded,
    /// a successful derivation here clears the flag.
    pub fn retrain_model(
        &self,
        id: ModelId,
        model: Arc<dyn EnvelopeProvider + Send + Sync>,
    ) -> Result<(), EngineError> {
        self.write_catalog().retrain_model(id, model)
    }

    /// Retrains with fresh derivation options — the recovery path for a
    /// degraded model (e.g. retry with a larger time budget).
    pub fn retrain_model_with(
        &self,
        id: ModelId,
        model: Arc<dyn EnvelopeProvider + Send + Sync>,
        opts: DeriveOptions,
    ) -> Result<(), EngineError> {
        self.write_catalog().retrain_model_with(id, model, opts)
    }

    /// Plans a predicate for a table (parse-free entry point used by the
    /// benchmark harness).
    pub fn plan_predicate(&self, table: usize, predicate: Expr) -> Plan {
        let catalog = self.read_catalog();
        let opts = self.options();
        plan_with(&catalog, &opts, table, predicate)
    }

    /// Runs (or explains) one SQL query with the engine-wide
    /// parallelism and guard (a session with no overrides).
    ///
    /// No panic escapes this entry point: the executor reports panics
    /// from model code (or injected scorer faults) as
    /// [`EngineError::Internal`] itself, at every degree of parallelism,
    /// and leaves the plan cache alone — the plan was fully built and
    /// cached before execution started. A panic while parsing,
    /// rewriting or planning is caught here, reported the same way, and
    /// clears the plan cache. The engine remains usable afterwards.
    pub fn query(&self, sql: &str) -> Result<QueryOutcome, EngineError> {
        self.query_in(sql, &SessionState::new())
    }

    /// Runs (or explains) one SQL query under `session`'s overrides
    /// (parallelism and guard); unset overrides fall through to the
    /// engine-wide defaults. Panic containment as in [`Engine::query`].
    pub fn query_in(
        &self,
        sql: &str,
        session: &SessionState,
    ) -> Result<QueryOutcome, EngineError> {
        catch_unwind(AssertUnwindSafe(|| self.query_inner(sql, session))).unwrap_or_else(
            |payload| {
                // Conservative: a panic while planning may have left a
                // half-built plan cached.
                self.lock_cache().clear();
                Err(EngineError::Internal { detail: panic_message(&*payload) })
            },
        )
    }

    fn query_inner(
        &self,
        sql: &str,
        session: &SessionState,
    ) -> Result<QueryOutcome, EngineError> {
        // Held for the whole query: readers share it, so queries run
        // concurrently; DDL takes it exclusively, so no query ever sees
        // a half-applied mutation.
        let catalog = self.read_catalog();
        let parsed = parse(sql, &catalog)?;
        self.run_query(&catalog, sql, parsed, session)
    }

    /// Plans (through the plan cache) and runs or explains `parsed`,
    /// the parse of `sql` under the same catalog guard: a parse made
    /// under a guard since dropped could predate a retrain.
    fn run_query(
        &self,
        catalog: &Catalog,
        sql: &str,
        parsed: ParsedQuery,
        session: &SessionState,
    ) -> Result<QueryOutcome, EngineError> {
        let opts = self.options();
        // The effective compile flag is part of the key: arming a scorer
        // fault must not reuse a plan whose models were compiled away.
        // (The cascade-perturbation fault needs no key bit: it is applied
        // and caught by verification at *execution* time, so a cached
        // plan's cascade annotations stay correct either way.)
        let compile = opts.compile_models && !catalog.faults().any_scorer_fault_armed();
        let cache_key =
            format!("{}|env={}|cmp={}", sql.trim(), opts.use_envelopes, compile);
        let (plan, cached) = {
            // The cache mutex is held while planning: cheap, and it
            // guarantees a stale plan can never be inserted over a
            // fresher one (inserts only happen under the catalog lock).
            let mut cache = self.lock_cache();
            match cache.get(&cache_key) {
                Some(p) if plan_is_valid(p, catalog) => (p.clone(), true),
                _ => {
                    let plan = plan_with(catalog, &opts, parsed.table, parsed.predicate);
                    cache.insert(cache_key, plan.clone());
                    (plan, false)
                }
            }
        };
        let schema = catalog.table(parsed.table).table.schema().clone();
        let plan_text = plan_to_string(&plan, &schema, catalog);
        let plan_changed = plan.access.changed_from_scan();
        let dop = session.parallelism().unwrap_or_else(|| self.parallelism());
        if parsed.explain {
            // EXPLAIN doubles as the operational status surface: the
            // effective degree of parallelism, plus (for durable engines)
            // what recovery found at open time.
            let mut plan_text = plan_text;
            plan_text.push_str(&format!("\nparallelism: {dop}"));
            if let Some(p) = self.lock_persist().as_ref() {
                plan_text.push_str(&format!("\n{}", p.report));
            }
            return Ok(QueryOutcome {
                rows: Vec::new(),
                metrics: ExecMetrics::default(),
                plan: plan_text,
                plan_changed,
                cached_plan: cached,
            });
        }
        let result = execute_opts(
            &plan,
            catalog,
            session.guard().unwrap_or_else(|| self.guard()),
            &ExecOptions::with_parallelism(dop),
        )?;
        Ok(QueryOutcome {
            rows: result.rows,
            metrics: result.metrics,
            plan: plan_text,
            plan_changed,
            cached_plan: cached,
        })
    }

    /// Runs one statement: a query, DDL like `CREATE MINING MODEL m ON
    /// t PREDICT label USING decision_tree`, or a session knob like
    /// `SET PARALLELISM 4`. Training happens here; envelope
    /// precomputation happens at registration (§4.2).
    ///
    /// Like [`Engine::query`], panics are caught and surfaced as
    /// [`EngineError::Internal`]. Envelope-derivation failures do not
    /// fail a `CREATE MINING MODEL`: the model lands degraded (trivial
    /// envelopes) and the outcome's `degraded` field carries the reason.
    pub fn execute_sql(&self, sql: &str) -> Result<StatementOutcome, EngineError> {
        self.execute_sql_dispatch(sql, None, None)
    }

    /// Like [`Engine::execute_sql`], but scoped to `session`: `SET
    /// PARALLELISM` and `SET GUARD` update the session's overrides
    /// instead of the engine-wide defaults, and queries run under them.
    /// This is the entry point one network connection (or any other
    /// client wanting isolation from its neighbours) should use.
    pub fn execute_sql_in(
        &self,
        sql: &str,
        session: &mut SessionState,
    ) -> Result<StatementOutcome, EngineError> {
        self.execute_sql_dispatch(sql, Some(session), None)
    }

    /// Like [`Engine::execute_sql_in`], with an exactly-once stamp: if a
    /// statement carrying the same id already applied — whether observed
    /// live or replayed from the WAL after a crash — the mutation is NOT
    /// re-applied and the original outcome is reconstructed instead.
    /// This is what makes blind client retries safe: a response lost to
    /// a connection drop (or a crash after the WAL append) cannot turn
    /// into a double INSERT.
    ///
    /// Only mutating statements (INSERT, CREATE MINING MODEL) consult
    /// the stamp; queries and SET are idempotent and simply re-execute.
    /// A retry whose outcome was evicted from the dedup cache fails with
    /// [`EngineError::Internal`] rather than re-applying.
    pub fn execute_sql_stamped(
        &self,
        sql: &str,
        session: &mut SessionState,
        id: StatementId,
    ) -> Result<StatementOutcome, EngineError> {
        self.execute_sql_dispatch(sql, Some(session), Some(id))
    }

    fn execute_sql_dispatch(
        &self,
        sql: &str,
        session: Option<&mut SessionState>,
        stamp: Option<StatementId>,
    ) -> Result<StatementOutcome, EngineError> {
        catch_unwind(AssertUnwindSafe(|| self.execute_sql_inner(sql, session, stamp)))
            .unwrap_or_else(|payload| {
                self.lock_cache().clear();
                Err(EngineError::Internal { detail: panic_message(&*payload) })
            })
    }

    /// Checks a statement stamp against the dedup store (caller holds
    /// the catalog write lock). `Ok(Some(..))` means the statement
    /// already applied: hand its reconstructed outcome back instead of
    /// re-executing.
    fn check_stamp(
        &self,
        catalog: &Catalog,
        stamp: Option<StatementId>,
    ) -> Result<Option<StatementOutcome>, EngineError> {
        let Some(id) = stamp else { return Ok(None) };
        match catalog.dedup().check(id) {
            DedupCheck::New => Ok(None),
            DedupCheck::Replay(outcome) => {
                Ok(Some(reconstruct_outcome(catalog, &outcome)?))
            }
            DedupCheck::Evicted => Err(EngineError::Internal {
                detail: format!(
                    "statement {id} already applied but its outcome was evicted \
                     from the dedup cache; refusing to re-apply"
                ),
            }),
        }
    }

    fn execute_sql_inner(
        &self,
        sql: &str,
        mut session: Option<&mut SessionState>,
        stamp: Option<StatementId>,
    ) -> Result<StatementOutcome, EngineError> {
        let statement = {
            let catalog = self.read_catalog();
            match parse_statement(sql, &catalog)? {
                // Planned and run under the guard it was parsed under.
                Statement::Select(parsed) => {
                    let no_overrides = SessionState::new();
                    let s = session.as_deref().unwrap_or(&no_overrides);
                    return Ok(StatementOutcome::Query(self.run_query(&catalog, sql, parsed, s)?));
                }
                other => other,
            }
        };
        match statement {
            Statement::Select(_) => unreachable!("a SELECT returned above"),
            Statement::SetParallelism(dop) => {
                // With a session, the override is session-local; without
                // one, the statement keeps its historical meaning and
                // re-tunes the engine-wide default.
                let dop = match session.as_mut() {
                    Some(s) => s.set_parallelism(dop),
                    None => {
                        self.set_parallelism(dop);
                        self.parallelism()
                    }
                };
                Ok(StatementOutcome::ParallelismSet { dop })
            }
            Statement::SetGuard { resource, limit } => {
                let guard = match session.as_mut() {
                    Some(s) => {
                        let g = s.guard().unwrap_or_else(|| self.guard());
                        let g = g.with_limit(resource, limit);
                        s.set_guard(g);
                        g
                    }
                    None => {
                        let g = self.guard().with_limit(resource, limit);
                        self.set_guard(g);
                        g
                    }
                };
                Ok(StatementOutcome::GuardSet { guard })
            }
            Statement::SetGuardOff => {
                let guard = QueryGuard::unlimited();
                match session.as_mut() {
                    Some(s) => s.set_guard(guard),
                    None => self.set_guard(guard),
                }
                Ok(StatementOutcome::GuardSet { guard })
            }
            Statement::Insert { table, rows } => {
                let (outcome, lsn, events) = {
                    let mut catalog = self.write_catalog();
                    // Stamp check first: a retried INSERT whose response
                    // was lost must come back with the original outcome,
                    // not apply again. The replayed ack still gates on
                    // replication of the *last* local record — the
                    // original apply may not have shipped yet. No events
                    // either: the original apply already delivered them.
                    if let Some(replayed) = self.check_stamp(&catalog, stamp)? {
                        (replayed, self.last_lsn(), Vec::new())
                    } else {
                        let t = &catalog.table(table).table;
                        // Re-validated under the exclusive lock: a logged
                        // op MUST replay, so nothing invalid may reach
                        // the WAL.
                        validate_rows(t, &rows)?;
                        let name = t.name().to_string();
                        let rows_inserted = rows.len() as u64;
                        let first_row = t.n_rows() as RowId;
                        let mut op = LogOp::Insert { table: name.clone(), rows };
                        if let Some(id) = stamp {
                            op = LogOp::Stamped { id, inner: Box::new(op) };
                        }
                        let lsn = self.apply_durable_locked(&mut catalog, op)?;
                        // Match the new rows against standing
                        // subscriptions while still holding the write
                        // lock: the match set is exactly the delta a
                        // from-scratch re-run of each subscription would
                        // see at this point in the insert order.
                        let (events, subs_matched, subs_index_pruned) =
                            self.match_subscriptions(&catalog, table, first_row);
                        if let Some(id) = stamp {
                            // Overwrite the outcome recovery recorded so
                            // a deduplicated retry reports the original
                            // match counters.
                            catalog.dedup_mut().record(
                                id,
                                DedupOutcome::Inserted {
                                    table: name.clone(),
                                    rows_inserted,
                                    subs_matched,
                                    subs_index_pruned,
                                },
                            );
                        }
                        (
                            StatementOutcome::Inserted {
                                table: name,
                                rows_inserted,
                                subs_matched,
                                subs_index_pruned,
                            },
                            lsn,
                            events,
                        )
                    }
                };
                // Catalog lock dropped: the mutation is durable locally,
                // but with synchronous replication on, success is only
                // reported once the standby has it too (zero lost acks
                // across a failover).
                self.wait_replicated(lsn, REPL_ACK_TIMEOUT)?;
                // Notifications go out last — after durability and
                // replication — so a subscriber can never observe a
                // match the writer was not yet acknowledged for.
                self.deliver_matches(events);
                Ok(outcome)
            }
            Statement::Subscribe { query, sql: inner_sql } => {
                let (outcome, lsn) = {
                    let mut catalog = self.write_catalog();
                    if let Some(replayed) = self.check_stamp(&catalog, stamp)? {
                        (replayed, self.last_lsn())
                    } else {
                        let id = catalog.next_subscription_id();
                        // Pre-validate exactly what replay will do: the
                        // logged text must re-parse, or it may not reach
                        // the WAL. (It just parsed above, but against a
                        // borrowed statement — this is cheap insurance
                        // that text and parse stay in lockstep.)
                        let _ = query;
                        crate::sql::parse(&inner_sql, &catalog)?;
                        let mut op = LogOp::Subscribe { id, sql: inner_sql };
                        if let Some(sid) = stamp {
                            op = LogOp::Stamped { id: sid, inner: Box::new(op) };
                        }
                        let lsn = self.apply_durable_locked(&mut catalog, op)?;
                        (StatementOutcome::Subscribed { id }, lsn)
                    }
                };
                self.wait_replicated(lsn, REPL_ACK_TIMEOUT)?;
                Ok(outcome)
            }
            Statement::Unsubscribe { id } => {
                let (outcome, lsn) = {
                    let mut catalog = self.write_catalog();
                    if let Some(replayed) = self.check_stamp(&catalog, stamp)? {
                        (replayed, self.last_lsn())
                    } else {
                        // Pre-validate: an UNSUBSCRIBE of an unknown id
                        // must fail typed here, not poison replay.
                        if catalog.subscription(id).is_none() {
                            return Err(EngineError::UnknownSubscription(id));
                        }
                        let mut op = LogOp::Unsubscribe { id };
                        if let Some(sid) = stamp {
                            op = LogOp::Stamped { id: sid, inner: Box::new(op) };
                        }
                        let lsn = self.apply_durable_locked(&mut catalog, op)?;
                        (StatementOutcome::Unsubscribed { id }, lsn)
                    }
                };
                self.wait_replicated(lsn, REPL_ACK_TIMEOUT)?;
                Ok(outcome)
            }
            Statement::CreateModel { name, table, label, clusters, algorithm } => {
                let (outcome, lsn) = {
                    let mut catalog = self.write_catalog();
                    // Stamp check before the duplicate check: a retried
                    // CREATE of the same name is a replay, not a conflict.
                    if let Some(replayed) = self.check_stamp(&catalog, stamp)? {
                        (replayed, self.last_lsn())
                    } else {
                        // Re-checked under the exclusive lock: another
                        // client may have registered the name since
                        // parsing.
                        if catalog.model_by_name(&name).is_some() {
                            return Err(EngineError::Duplicate(name));
                        }
                        // Train first (fallible, nothing logged yet),
                        // then log the *trained* model — replay
                        // re-registers identical content without
                        // retraining.
                        let (_, stored, n_classes) = crate::ddl::train_model_stored(
                            &catalog,
                            table,
                            label,
                            clusters,
                            algorithm,
                        )?;
                        let mut op = LogOp::CreateModel {
                            name: name.clone(),
                            stored,
                            opts: DeriveOptions::default(),
                        };
                        if let Some(id) = stamp {
                            op = LogOp::Stamped { id, inner: Box::new(op) };
                        }
                        let lsn = self.apply_durable_locked(&mut catalog, op)?;
                        let model = catalog.model_by_name(&name).ok_or_else(|| {
                            EngineError::Internal { detail: "created model missing".to_string() }
                        })?;
                        let degraded = catalog.model(model).degraded.clone();
                        (
                            StatementOutcome::ModelCreated { name, model, n_classes, degraded },
                            lsn,
                        )
                    }
                };
                self.wait_replicated(lsn, REPL_ACK_TIMEOUT)?;
                Ok(outcome)
            }
        }
    }
}

/// Rebuilds the statement-level outcome a deduplicated retry should
/// see from the recorded [`DedupOutcome`]. `ModelCreated` re-resolves
/// the model id by name, because ids are assigned at apply time.
fn reconstruct_outcome(
    catalog: &Catalog,
    o: &DedupOutcome,
) -> Result<StatementOutcome, EngineError> {
    match o {
        DedupOutcome::Inserted { table, rows_inserted, subs_matched, subs_index_pruned } => {
            Ok(StatementOutcome::Inserted {
                table: table.clone(),
                rows_inserted: *rows_inserted,
                subs_matched: *subs_matched,
                subs_index_pruned: *subs_index_pruned,
            })
        }
        DedupOutcome::Subscribed { id } => Ok(StatementOutcome::Subscribed { id: *id }),
        DedupOutcome::Unsubscribed { id } => Ok(StatementOutcome::Unsubscribed { id: *id }),
        DedupOutcome::ModelCreated { name, n_classes, degraded } => {
            let model = catalog.model_by_name(name).ok_or_else(|| EngineError::Internal {
                detail: format!("deduplicated CREATE of model '{name}' but it is missing"),
            })?;
            Ok(StatementOutcome::ModelCreated {
                name: name.clone(),
                model,
                n_classes: *n_classes as usize,
                degraded: degraded.clone(),
            })
        }
        // Statement-level stamps only cover statements that record a
        // shaped outcome.
        DedupOutcome::Applied => Err(EngineError::Internal {
            detail: "recorded dedup outcome has no statement-level shape".to_string(),
        }),
    }
}

/// Validates rows against a table's schema before anything is logged:
/// arity must match and every member must fit its column's domain.
fn validate_rows(t: &Table, rows: &[Vec<Member>]) -> Result<(), EngineError> {
    let schema = t.schema();
    for row in rows {
        if row.len() != schema.len() {
            return Err(EngineError::SchemaMismatch {
                detail: format!(
                    "row has {} values, table {} has {} columns",
                    row.len(),
                    t.name(),
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
    Ok(())
}

/// Validates an index DDL target, resolving the table name and column
/// list (free function: callers already hold the catalog lock).
fn checked_index_target(
    catalog: &Catalog,
    table: &str,
    columns: &[AttrId],
) -> Result<(String, Vec<u16>), EngineError> {
    let id = catalog
        .table_by_name(table)
        .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
    let t = &catalog.table(id).table;
    let n = t.schema().len();
    for a in columns {
        if a.index() >= n {
            return Err(EngineError::UnknownColumn(format!(
                "attribute #{} of table {}",
                a.index(),
                t.name()
            )));
        }
    }
    Ok((t.name().to_string(), columns.iter().map(|a| a.0).collect()))
}

/// Rewrites and plans a predicate against an already-locked catalog
/// (keeping planning lock-free avoids re-entrant catalog acquisition).
///
/// Model compilation is gated twice: by the optimizer option, and by
/// armed scorer faults — a fault targeting the scorer needs the scorer
/// path live, so compilation (which would remove or bypass the scorer)
/// is suspended while one is armed.
fn plan_with(
    catalog: &Catalog,
    opts: &OptimizerOptions,
    table: usize,
    predicate: Expr,
) -> Plan {
    let schema = catalog.table(table).table.schema().clone();
    let compile = opts.compile_models && !catalog.faults().any_scorer_fault_armed();
    let (rewritten, compiled_exact) = if opts.use_envelopes {
        let normalized = predicate.normalize(&schema);
        let rewritten = rewrite_mining_opts(normalized.clone(), &schema, catalog, compile);
        let compiled_exact = if compile {
            crate::compile::compiled_out_models(&normalized, &rewritten)
        } else {
            Vec::new()
        };
        (rewritten, compiled_exact)
    } else {
        (predicate.normalize(&schema), Vec::new())
    };
    let eff = OptimizerOptions { compile_models: compile, ..*opts };
    let mut plan = choose_plan(rewritten, table, &schema, catalog, &eff);
    // Compiled-out models leave no mining predicate behind, but the
    // compiled atoms were derived from the model: its version must still
    // invalidate the cached plan on retrain.
    for m in &compiled_exact {
        if !plan.model_versions.iter().any(|(pm, _)| pm == m) {
            plan.model_versions.push((*m, catalog.model(*m).version));
        }
    }
    plan.compiled_exact = compiled_exact;
    plan
}

fn plan_is_valid(plan: &Plan, catalog: &Catalog) -> bool {
    plan.model_versions
        .iter()
        .all(|(m, v)| catalog.model(*m).version == *v)
}

impl Drop for Engine {
    /// A graceful exit stamps the log with a clean-shutdown marker
    /// (fsync'd like any record), so the next open reports
    /// `clean_shutdown` and never has to drop anything. Failures are
    /// swallowed — the marker is an optimization hint, not a
    /// correctness requirement, and recovery handles its absence.
    fn drop(&mut self) {
        let persist = self.persist.get_mut().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = persist {
            if !p.crashed {
                let _ = p.wal.append(p.next_lsn, &LogOp::CleanShutdown);
                p.next_lsn += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use mpq_core::paper_table1_model;
    use mpq_models::Classifier as _;
    use mpq_types::{AttrId, Dataset};

    /// Engine with the Table-1 model applied to a table whose rows are
    /// the 12 grid cells, each duplicated a skewed number of times.
    fn engine() -> Engine {
        let nb = paper_table1_model();
        let schema = nb.schema().clone();
        let mut ds = Dataset::new(schema);
        for m0 in 0..4u16 {
            for m1 in 0..3u16 {
                let copies = 1 + (m0 as usize * 3 + m1 as usize) * 7;
                for _ in 0..copies {
                    ds.push_encoded(&[m0, m1]).unwrap();
                }
            }
        }
        let mut cat = Catalog::new();
        let t = cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        cat.create_index(t, &[AttrId(0)]);
        cat.create_index(t, &[AttrId(1)]);
        cat.add_model("m", Arc::new(nb), mpq_core::DeriveOptions::default()).unwrap();
        Engine::new(cat)
    }

    #[test]
    fn mining_query_matches_black_box_baseline() {
        let e = engine();
        for label in ["c1", "c2", "c3"] {
            let sql = format!("SELECT * FROM t WHERE PREDICT(m) = '{label}'");
            let optimized = e.query(&sql).unwrap();
            e.set_use_envelopes(false);
            let baseline = e.query(&sql).unwrap();
            e.set_use_envelopes(true);
            assert_eq!(optimized.rows, baseline.rows, "row sets must agree for {label}");
            assert!(
                optimized.metrics.model_invocations <= baseline.metrics.model_invocations,
                "envelopes must not increase model invocations"
            );
        }
    }

    #[test]
    fn explain_produces_plan_without_execution() {
        let e = engine();
        let out = e.query("EXPLAIN SELECT * FROM t WHERE PREDICT(m) = 'c1'").unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(out.metrics.rows_examined, 0);
        assert!(out.plan.contains("residual"), "plan text: {}", out.plan);
        assert!(
            out.plan.contains(&format!("parallelism: {}", e.parallelism())),
            "EXPLAIN surfaces the dop: {}",
            out.plan
        );
    }

    #[test]
    fn plan_cache_hits_and_invalidates_on_retrain() {
        let e = engine();
        let sql = "SELECT COUNT(*) FROM t WHERE PREDICT(m) = 'c1'";
        let first = e.query(sql).unwrap();
        assert!(!first.cached_plan);
        let second = e.query(sql).unwrap();
        assert!(second.cached_plan, "same SQL should hit the plan cache");
        // Retrain: version bump must invalidate.
        e.retrain_model(0, Arc::new(paper_table1_model())).unwrap();
        let third = e.query(sql).unwrap();
        assert!(!third.cached_plan, "retrained model must invalidate the cached plan");
        assert_eq!(first.rows, third.rows);
    }

    #[test]
    fn envelope_toggle_changes_plan_not_results() {
        let e = engine();
        let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c3'";
        let on = e.query(sql).unwrap();
        e.set_use_envelopes(false);
        let off = e.query(sql).unwrap();
        assert_eq!(on.rows, off.rows);
        // Without envelopes, a bare mining predicate can only full-scan.
        assert!(!off.plan_changed);
    }

    #[test]
    fn count_queries_work() {
        let e = engine();
        let out = e.query("SELECT COUNT(*) FROM t WHERE d0 = 'm0'").unwrap();
        let expected: u64 = (0..3).map(|m1| 1 + (m1 as u64) * 7).sum();
        assert_eq!(out.metrics.output_rows, expected);
    }

    #[test]
    fn ddl_clears_plan_cache() {
        let e = engine();
        let sql = "SELECT * FROM t WHERE d0 = 'm0'";
        e.query(sql).unwrap();
        drop(e.catalog_mut()); // any DDL touch
        let out = e.query(sql).unwrap();
        assert!(!out.cached_plan);
    }

    #[test]
    fn set_parallelism_statement_round_trips() {
        let e = engine();
        match e.execute_sql("SET PARALLELISM 4").unwrap() {
            StatementOutcome::ParallelismSet { dop } => assert_eq!(dop, 4),
            other => panic!("expected ParallelismSet, got {other:?}"),
        }
        assert_eq!(e.parallelism(), 4);
        // Queries still agree with the serial answer at dop 4.
        let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c2'";
        let parallel = e.query(sql).unwrap();
        e.set_parallelism(1);
        let serial = e.query(sql).unwrap();
        assert_eq!(parallel.rows, serial.rows);
        assert_eq!(parallel.metrics.rows_examined, serial.metrics.rows_examined);
        // Out-of-range values clamp instead of erroring.
        e.set_parallelism(0);
        assert_eq!(e.parallelism(), 1);
        e.set_parallelism(100_000);
        assert_eq!(e.parallelism(), 256);
        // And the knob is visible in EXPLAIN.
        e.set_parallelism(8);
        let out = e.query("EXPLAIN SELECT * FROM t WHERE d0 = 'm0'").unwrap();
        assert!(out.plan.contains("parallelism: 8"), "plan: {}", out.plan);
    }

    #[test]
    fn execution_leaves_table_stats_and_the_plan_unchanged() {
        let e = engine();
        let sql = "SELECT * FROM t WHERE d0 = 'm0' AND d1 = 'm1'";
        let plan = || {
            let parsed = parse(sql, &e.catalog()).unwrap();
            e.plan_predicate(parsed.table, parsed.predicate)
        };
        let (stats, before) = (e.catalog().table(0).stats.clone(), plan());
        for _ in 0..3 {
            assert_eq!(e.query(sql).unwrap().metrics.feedback_entries, 0);
        }
        assert_eq!(e.catalog().table(0).stats, stats);
        assert_eq!(plan(), before);
    }

    #[test]
    fn session_scoped_set_does_not_leak_across_sessions() {
        let e = engine();
        let global_dop = e.parallelism();
        let mut s1 = SessionState::new();
        let mut s2 = SessionState::new();
        match e.execute_sql_in("SET PARALLELISM 2", &mut s1).unwrap() {
            StatementOutcome::ParallelismSet { dop } => assert_eq!(dop, 2),
            other => panic!("expected ParallelismSet, got {other:?}"),
        }
        assert_eq!(e.parallelism(), global_dop, "engine default untouched");
        assert_eq!(s2.parallelism(), None, "other session untouched");
        // Session 1 throttles itself to one examined row; session 2 and
        // the session-less path stay unlimited.
        match e.execute_sql_in("SET GUARD ROWS 1", &mut s1).unwrap() {
            StatementOutcome::GuardSet { guard } => {
                assert_eq!(guard.max_rows_examined, Some(1))
            }
            other => panic!("expected GuardSet, got {other:?}"),
        }
        let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c1'";
        assert!(matches!(
            e.execute_sql_in(sql, &mut s1),
            Err(EngineError::BudgetExceeded { .. })
        ));
        assert!(e.execute_sql_in(sql, &mut s2).is_ok());
        assert!(e.query(sql).is_ok());
        // `SET GUARD ROWS 0` lifts the budget; OFF clears everything.
        e.execute_sql_in("SET GUARD ROWS 0", &mut s1).unwrap();
        assert!(e.execute_sql_in(sql, &mut s1).is_ok());
        e.execute_sql_in("SET GUARD TIME_MS 5000", &mut s1).unwrap();
        match e.execute_sql_in("SET GUARD OFF", &mut s1).unwrap() {
            StatementOutcome::GuardSet { guard } => assert!(guard.is_unlimited()),
            other => panic!("expected GuardSet, got {other:?}"),
        }
        // Session EXPLAIN reports the session's effective parallelism.
        let out = e
            .query_in("EXPLAIN SELECT * FROM t WHERE d0 = 'm0'", &s1)
            .unwrap();
        assert!(out.plan.contains("parallelism: 2"), "plan: {}", out.plan);
        // Session-less SET keeps its historical engine-global meaning.
        e.execute_sql("SET PARALLELISM 3").unwrap();
        assert_eq!(e.parallelism(), 3);
    }

    #[test]
    fn engine_is_shareable_across_scoped_threads() {
        let e = engine();
        let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c1'";
        let expected = e.query(sql).unwrap().rows;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let out = e.query(sql).unwrap();
                    assert_eq!(out.rows, expected);
                });
            }
        });
    }
}
