//! Workload definitions and set-up: from generated inputs to a running
//! engine and server, through the program's public API only.

use crate::env;
use crate::gen::{self, Inputs, ModelSpec, Scale};
use mpq_client::Client;
use mpq_core::{DeriveOptions, EnvelopeProvider};
use mpq_engine::{labeled_view, Catalog, Engine, ProjectedModel, StatementOutcome};
use mpq_models::{KMeans, KMeansParams, NaiveBayes};
use mpq_server::{Server, ServerConfig};
use mpq_types::{AttrId, ClassId, Dataset};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One workload: its name, why it exists, and its load shape. Every
/// workload is a closed loop — this system's callers (an analyst's
/// session, an application's writer) each wait for their reply.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Query parallelism, pinned per session (`SET PARALLELISM`).
    pub dop: usize,
    /// Load-generating threads, each with its own session/connection.
    pub connections: usize,
    /// Statements go through `Client::statement` over TCP (else
    /// `Engine::query_in`).
    pub over_wire: bool,
    /// `Engine::open` on a fresh directory (else `Engine::new`).
    pub durable: bool,
    pub generate: fn(u64, Scale) -> Inputs,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "scan_cascade",
        why: "in-process scans whose mining predicates stay in the plan: exec, vectorized, \
              cascade and scorer do the work, parse/plan/wire do none",
        dop: 2,
        connections: 1,
        over_wire: false,
        durable: false,
        generate: gen::scan_cascade,
    },
    Spec {
        name: "wire_point",
        why: "selective statements over TCP returning <= 64 rows: execution is microseconds, \
              so per-statement overhead (frames, parse, plan cache, locks, plan text) is the cost",
        dop: 1,
        connections: 2,
        over_wire: true,
        durable: false,
        generate: gen::wire_point,
    },
    Spec {
        name: "wire_wide",
        why: "same table and server as wire_point, 10-50% of the rows per response: few huge \
              frames, so encode, socket, decode and allocation dominate",
        dop: 1,
        connections: 2,
        over_wire: true,
        durable: false,
        generate: gen::wire_wide,
    },
    Spec {
        name: "mixed_rw",
        why:
            "durable engine, one INSERT writer and one reader owning 1000 subscriptions: the only \
              user of the write lock, WAL fsync, subscription matching, Notify push and plan \
              invalidation",
        dop: 1,
        connections: 2,
        over_wire: true,
        durable: true,
        generate: gen::mixed_rw,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub table_load_s: f64,
    pub index_build_s: f64,
    /// Training plus envelope derivation plus registration.
    pub models_s: f64,
    /// Server start, connection and (mixed_rw) the SUBSCRIBE statements.
    pub serve_s: f64,
    pub total_s: f64,
}

/// A set-up system: engine, in-process server, and for `mixed_rw` the
/// reader's connection, which owns the subscriptions. Dropping it stops
/// the server (joining its threads), drops the engine and deletes the
/// data directory, in that order — fields drop in declaration order
/// after [`Drop::drop`] has run. `Server::shutdown` checkpoints a durable
/// engine; anything that needs the un-checkpointed directory must copy
/// it first.
pub struct System {
    pub engine: Arc<Engine>,
    server: Option<Server>,
    pub addr: SocketAddr,
    pub reader: Option<Client>,
    dir: Option<WorkDir>,
}

/// A data directory that is deleted when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Drop for System {
    fn drop(&mut self) {
        if let Some(reader) = self.reader.take() {
            let _ = reader.goodbye();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Connects and pins the session's parallelism, as every connection of
/// a workload does.
pub fn connect(addr: SocketAddr, dop: usize) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    match client.statement(&format!("SET PARALLELISM {dop}")) {
        Ok(StatementOutcome::ParallelismSet { dop: got }) if got == dop => Ok(client),
        other => Err(format!("SET PARALLELISM {dop}: {other:?}")),
    }
}

/// The derivation options a model is registered with.
fn derive_options(spec: &ModelSpec) -> DeriveOptions {
    match spec {
        ModelSpec::Sql(_) => DeriveOptions::default(),
        ModelSpec::NaiveBayes { max_disjuncts, .. } | ModelSpec::KMeans { max_disjuncts, .. } => {
            DeriveOptions {
                max_disjuncts: *max_disjuncts,
                ..Default::default()
            }
        }
    }
}

fn register_model(engine: &Engine, inputs: &Inputs, spec: &ModelSpec) -> Result<(), String> {
    let train_schema = inputs.train.schema.clone();
    let err = |e: &dyn std::fmt::Display| format!("model {spec:?}: {e}");
    let (name, model): (&str, Arc<dyn EnvelopeProvider + Send + Sync>) = match spec {
        ModelSpec::Sql(ddl) => {
            return match engine.execute_sql(ddl) {
                Ok(StatementOutcome::ModelCreated { degraded: None, .. }) => Ok(()),
                other => Err(format!("{ddl}: {other:?}")),
            }
        }
        ModelSpec::NaiveBayes { name, label, .. } => {
            let label = AttrId(*label);
            let view = {
                let catalog = engine.catalog();
                let train = catalog
                    .table_by_name(inputs.train.name)
                    .expect("created above");
                labeled_view(&catalog, train, label).map_err(|e| err(&e))?
            };
            let nb = NaiveBayes::train(&view).map_err(|e| err(&e))?;
            (
                name,
                Arc::new(ProjectedModel::new(train_schema, label, Arc::new(nb))),
            )
        }
        ModelSpec::KMeans { name, k, .. } => {
            let mut data = Dataset::new(train_schema);
            let t = &inputs.train;
            let mut row = vec![0; t.columns.len()];
            for r in 0..t.n_rows() {
                for (cell, col) in row.iter_mut().zip(&t.columns) {
                    *cell = col[r];
                }
                data.push_encoded(&row).map_err(|e| err(&e))?;
            }
            let params = KMeansParams {
                k: *k,
                ..Default::default()
            };
            (
                name,
                Arc::new(KMeans::train_encoded(&data, params).map_err(|e| err(&e))?),
            )
        }
    };
    engine
        .register_model(name, model, derive_options(spec))
        .map(drop)
        .map_err(|e| err(&e))
}

/// Sets the workload up from scratch and times each stage.
pub fn build(spec: &Spec, inputs: &Inputs) -> Result<(System, SetupTimes), String> {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let dir = spec.durable.then(|| {
        WorkDir(env::work_dir().join(format!(
            "{}-{}-{}",
            spec.name,
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        )))
    });
    let engine = match &dir {
        Some(WorkDir(dir)) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Engine::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?
        }
        None => Engine::new(Catalog::new()),
    };

    let ((), load_s) = timed(|| {
        for t in [&inputs.train, &inputs.table] {
            engine
                .create_table(t.to_table())
                .expect("fresh catalog, valid table");
        }
    });
    times.table_load_s = load_s;

    let (result, index_s) = timed(|| {
        inputs.indexes.iter().try_for_each(|cols| {
            let cols: Vec<AttrId> = cols.iter().map(|&c| AttrId(c)).collect();
            engine
                .create_index(inputs.table.name, &cols)
                .map_err(|e| format!("index: {e}"))
        })
    });
    result?;
    times.index_build_s = index_s;

    let (result, models_s) = timed(|| {
        inputs
            .models
            .iter()
            .try_for_each(|m| register_model(&engine, inputs, m))
    });
    result?;
    times.models_s = models_s;

    let t_serve = Instant::now();
    let engine = Arc::new(engine);
    // The server as shipped: default admission and frame limits.
    let server = Server::start(Arc::clone(&engine), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    // From here on an error drops the system, which stops the server.
    let mut system = System {
        engine,
        server: Some(server),
        addr,
        reader: None,
        dir,
    };
    if !inputs.subscriptions.is_empty() {
        let mut reader = connect(addr, spec.dop)?;
        for sql in &inputs.subscriptions {
            match reader.statement(sql) {
                Ok(StatementOutcome::Subscribed { .. }) => {}
                other => return Err(format!("{sql}: {other:?}")),
            }
        }
        system.reader = Some(reader);
    }
    times.serve_s = t_serve.elapsed().as_secs_f64();
    times.total_s = t0.elapsed().as_secs_f64();
    Ok((system, times))
}

impl System {
    /// The durable engine's data directory, if it has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_ref().map(|d| d.0.as_path())
    }

    /// Rows currently in the workload's queried table.
    pub fn table_rows(&self, inputs: &Inputs) -> usize {
        let catalog = self.engine.catalog();
        let id = catalog
            .table_by_name(inputs.table.name)
            .expect("created at set-up");
        catalog.table(id).table.n_rows()
    }

    /// Seconds one more envelope derivation of every registered model
    /// takes, from outside: `catalog.derive_envelopes_s`.
    pub fn rederive_envelopes_s(&self, inputs: &Inputs) -> f64 {
        let catalog = self.engine.catalog();
        let ((), secs) = timed(|| {
            for (id, spec) in inputs.models.iter().enumerate() {
                let opts = derive_options(spec);
                let model = &catalog.model(id).model;
                for k in 0..model.n_classes() {
                    std::hint::black_box(model.envelope(ClassId(k as u16), &opts));
                }
            }
        });
        secs
    }
}

/// Admission limits and durability policy of the server as run, for
/// the report.
pub fn server_policy() -> crate::json::Value {
    use crate::json::Value;
    let cfg = ServerConfig::default();
    Value::obj([
        (
            "admission_max_in_flight",
            Value::Num(cfg.admission.max_in_flight as f64),
        ),
        (
            "admission_max_queue",
            Value::Num(cfg.admission.max_queue as f64),
        ),
        (
            "admission_queue_timeout_ms",
            Value::Num(cfg.admission.queue_timeout.as_millis() as f64),
        ),
        ("notify_queue_cap", Value::Num(cfg.notify_queue_cap as f64)),
        (
            "fsync",
            Value::str("one per mutation (the engine's only policy)"),
        ),
    ])
}
