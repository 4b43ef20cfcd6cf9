//! The traced run: per-layer numbers, measured from outside.
//!
//! Nothing inside the program records a span yet, so the benchmark does:
//! it replays the head of a workload's seeded statement order on one
//! thread and, for each statement, makes the plain call a client makes
//! and then walks the same statement step by step through the layers'
//! public entry points — frame encode/decode, parse, rewrite, plan,
//! plan text, predicate compile, execute, response encode/decode —
//! timing every call as a span. Layers that cannot be called alone
//! (socket and session-thread wake-up, catalog lock and plan-cache
//! mutex) are residuals, defined per statement by differencing, so the
//! parts sum to the whole by construction.
//!
//! Times are medians per statement in microseconds; counts are means
//! per statement from the public `ExecMetrics`/`QueryOutcome` fields.

use crate::e2e::{self, Config};
use crate::env;
use crate::gate;
use crate::gen::{self, Inputs};
use crate::stats::{median, median_u64};
use crate::system::{self, Spec};
use crate::window;
use mpq_client::Client;
use mpq_engine::{
    execute_opts, parse, plan_to_string, rewrite_mining_opts, Catalog, CompiledPredicate, Engine,
    ExecOptions, QueryGuard, QueryOutcome, SessionState, StatementOutcome,
};
use mpq_server::protocol::{
    decode_frame, encode_frame, Request, Response, DEFAULT_MAX_FRAME_LEN, PROTO_VERSION,
};
use mpq_types::AttrId;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Statements of the seeded order the replay covers, unless the time
/// budget (the window length) runs out first.
const REPLAY_STATEMENTS: usize = 2_000;
/// Every n-th statement also runs at dop 1 and through the reference
/// interpreter (for `exec.parallel_speedup`, `vectorized.reference_ratio`).
const ALTERNATE_EVERY: usize = 8;
const PERSIST_INSERTS: usize = 200;
const PREDICT_ROWS: usize = 20_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    statement_id: u32,
}

/// Spans kept in memory until the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(REPLAY_STATEMENTS * 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open until [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: Option<u32>, statement_id: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            statement_id,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent`; returns its result and
    /// duration in nanoseconds.
    fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let statement_id = self.spans[parent as usize].statement_id;
        let id = self.open(name, Some(parent), statement_id);
        let out = f();
        self.close(id);
        let s = &self.spans[id as usize];
        (out, s.end_ns - s.start_ns)
    }

    /// A span's self time: its duration minus what its children cover.
    #[cfg(test)]
    fn self_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"statement_id\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.statement_id
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Per-statement durations (ns) of every step, and the counters.
#[derive(Default)]
struct Steps {
    roundtrip: Vec<u64>,
    request_encode: Vec<u64>,
    request_decode: Vec<u64>,
    response_encode: Vec<u64>,
    response_decode: Vec<u64>,
    response_bytes: Vec<u64>,
    /// roundtrip - warm - the four protocol spans, per statement.
    transport: Vec<f64>,
    warm: Vec<u64>,
    parse: Vec<u64>,
    rewrite: Vec<u64>,
    /// plan_predicate - rewrite, per statement.
    plan: Vec<f64>,
    plan_text: Vec<u64>,
    compile: Vec<u64>,
    execute: Vec<u64>,
    /// warm - parse - execute - plan text, per statement.
    overhead: Vec<f64>,
    execute_dop1: Vec<u64>,
    speedup: Vec<f64>,
    reference_ratio: Vec<f64>,
    /// The client's call with no span around it (`trace.overhead_frac`).
    untraced: Vec<u64>,
    cached_plans: u64,
    plans_changed: u64,
    failed: u64,
    counters: Counters,
}

#[derive(Default)]
struct Counters {
    heap_pages_read: u64,
    index_pages_read: u64,
    pages_skipped: u64,
    rows_examined: u64,
    output_rows: u64,
    memo_hits: u64,
    cascade_accepts: u64,
    cascade_rejects: u64,
    band_rows: u64,
    clauses_reordered: u64,
    factor_hits: u64,
    model_invocations: u64,
    scorer_ns: u64,
}

impl Counters {
    fn add(&mut self, q: &QueryOutcome) {
        let m = &q.metrics;
        self.heap_pages_read += m.heap_pages_read;
        self.index_pages_read += m.index_pages_read;
        self.pages_skipped += m.pages_skipped;
        self.rows_examined += m.rows_examined;
        self.output_rows += m.output_rows;
        self.memo_hits += m.memo_hits;
        self.cascade_accepts += m.cascade_accepts;
        self.cascade_rejects += m.cascade_rejects;
        self.band_rows += m.band_rows;
        self.clauses_reordered += m.clauses_reordered;
        self.factor_hits += m.factor_hits;
        self.model_invocations += m.model_invocations;
        self.scorer_ns += m.scorer_ns;
    }
}

/// The warm in-process call a statement makes: what the server calls
/// for a connection (`execute_sql_in`), or `query_in` for the workload
/// that is in-process to begin with.
fn warm_call(
    engine: &Engine,
    sql: &str,
    session: &mut SessionState,
    over_wire: bool,
) -> Result<QueryOutcome, String> {
    if over_wire {
        match engine.execute_sql_in(sql, session) {
            Ok(StatementOutcome::Query(q)) => Ok(q),
            other => Err(format!("{sql}: {other:?}")),
        }
    } else {
        engine
            .query_in(sql, session)
            .map_err(|e| format!("{sql}: {e}"))
    }
}

fn exec_timed(
    plan: &mpq_engine::Plan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> Result<u64, String> {
    let t0 = Instant::now();
    let result = execute_opts(plan, catalog, QueryGuard::unlimited(), opts);
    let ns = t0.elapsed().as_nanos() as u64;
    result
        .map(|r| {
            std::hint::black_box(r.rows.len());
            ns
        })
        .map_err(|e| e.to_string())
}

/// Replays statement `i` of the seeded order: the plain call, then the
/// same statement step by step.
#[allow(clippy::too_many_arguments)]
fn replay_statement(
    tracer: &mut Tracer,
    steps: &mut Steps,
    engine: &Engine,
    client: Option<&mut Client>,
    session: &mut SessionState,
    spec: &Spec,
    sql: &str,
    expected_rows: usize,
    i: usize,
) -> Result<(), String> {
    let root = tracer.open("statement", None, i as u32);
    let mut protocol_ns = 0;

    // The plain calls: over the wire as a client makes them, and the
    // warm in-process call underneath.
    let roundtrip = match client {
        Some(client) => {
            let (result, ns) = tracer.span("client.roundtrip", root, || client.query(sql));
            let rows = result.map_err(|e| format!("{sql}: {e}"))?.rows.len();
            if rows != expected_rows {
                steps.failed += 1;
            }
            steps.roundtrip.push(ns);
            Some(ns)
        }
        None => None,
    };
    let (outcome, warm_ns) = tracer.span("engine.query_warm", root, || {
        warm_call(engine, sql, session, spec.over_wire)
    });
    let outcome = outcome?;
    if outcome.rows.len() != expected_rows {
        steps.failed += 1;
    }
    steps.warm.push(warm_ns);
    steps.cached_plans += u64::from(outcome.cached_plan);
    steps.plans_changed += u64::from(outcome.plan_changed);
    steps.counters.add(&outcome);

    // Step by step. Protocol first (wire workloads only).
    if spec.over_wire {
        let (frame, ns) = tracer.span("protocol.request_encode", root, || {
            encode_frame(
                &Request::Statement {
                    sql: sql.to_string(),
                    stmt_id: None,
                }
                .encode(),
            )
        });
        steps.request_encode.push(ns);
        protocol_ns += ns;
        let (decoded, ns) = tracer.span("protocol.request_decode", root, || {
            decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
                .map_err(|e| e.to_string())
                .and_then(|(payload, _)| Request::decode(&payload).map_err(|e| e.to_string()))
        });
        decoded?;
        steps.request_decode.push(ns);
        protocol_ns += ns;
        let response = Response::Outcome(StatementOutcome::Query(outcome));
        let (frame, ns) = tracer.span("protocol.response_encode", root, || {
            encode_frame(&response.encode_versioned(PROTO_VERSION))
        });
        steps.response_encode.push(ns);
        steps.response_bytes.push(frame.len() as u64);
        protocol_ns += ns;
        let (decoded, ns) = tracer.span("protocol.response_decode", root, || {
            decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
                .map_err(|e| e.to_string())
                .and_then(|(payload, _)| Response::decode(&payload).map_err(|e| e.to_string()))
        });
        decoded?;
        steps.response_decode.push(ns);
        protocol_ns += ns;
    }

    // The engine's own steps, under one catalog read guard like a query.
    let catalog = engine.catalog();
    let (parsed, parse_ns) = tracer.span("sql.parse", root, || parse(sql, &catalog));
    let parsed = parsed.map_err(|e| format!("{sql}: {e}"))?;
    steps.parse.push(parse_ns);
    let schema = catalog.table(parsed.table).table.schema().clone();
    let compile_models = engine.options().compile_models;
    let predicate = parsed.predicate.clone();
    let (_, rewrite_ns) = tracer.span("rewrite.rewrite", root, || {
        std::hint::black_box(rewrite_mining_opts(
            predicate,
            &schema,
            &catalog,
            compile_models,
        ))
    });
    steps.rewrite.push(rewrite_ns);
    // `plan_predicate` takes its own read lock; readers share it.
    let (plan, plan_total_ns) = tracer.span("optimizer.plan", root, || {
        engine.plan_predicate(parsed.table, parsed.predicate)
    });
    steps.plan.push(plan_total_ns as f64 - rewrite_ns as f64);
    let (text, text_ns) = tracer.span("display.plan_text", root, || {
        plan_to_string(&plan, &schema, &catalog)
    });
    std::hint::black_box(text.len());
    steps.plan_text.push(text_ns);
    let (compiled, compile_ns) = tracer.span("vectorized.compile", root, || {
        CompiledPredicate::compile(&plan.residual, &schema, true)
    });
    std::hint::black_box(compiled.node_count());
    steps.compile.push(compile_ns);
    let at_dop = ExecOptions::with_parallelism(spec.dop);
    let (exec, exec_ns) = tracer.span("exec.execute", root, || {
        exec_timed(&plan, &catalog, &at_dop)
    });
    exec?;
    steps.execute.push(exec_ns);
    steps
        .overhead
        .push(warm_ns as f64 - (parse_ns + exec_ns + text_ns) as f64);
    if let Some(roundtrip) = roundtrip {
        steps
            .transport
            .push(roundtrip as f64 - (warm_ns + protocol_ns) as f64);
    }

    if i.is_multiple_of(ALTERNATE_EVERY) {
        let serial = ExecOptions::default();
        let (dop1, dop1_ns) = tracer.span("exec.execute_dop1", root, || {
            exec_timed(&plan, &catalog, &serial)
        });
        dop1?;
        steps.execute_dop1.push(dop1_ns);
        steps.speedup.push(dop1_ns as f64 / exec_ns.max(1) as f64);
        let scalar = ExecOptions {
            vectorized: false,
            ..ExecOptions::default()
        };
        let (reference, reference_ns) = tracer.span("exec.reference", root, || {
            exec_timed(&plan, &catalog, &scalar)
        });
        reference?;
        steps
            .reference_ratio
            .push(reference_ns as f64 / dop1_ns.max(1) as f64);
    }
    drop(catalog);
    tracer.close(root);
    Ok(())
}

/// The call a client of the workload makes, timed with no span.
fn untraced_call(
    steps: &mut Steps,
    engine: &Engine,
    client: Option<&mut Client>,
    session: &mut SessionState,
    sql: &str,
) -> Result<(), String> {
    let t0 = Instant::now();
    let rows = match client {
        Some(client) => client
            .query(sql)
            .map_err(|e| format!("{sql}: {e}"))?
            .rows
            .len(),
        None => warm_call(engine, sql, session, false)?.rows.len(),
    };
    steps.untraced.push(t0.elapsed().as_nanos() as u64);
    std::hint::black_box(rows);
    Ok(())
}

fn us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        median_u64(ns) / 1e3
    }
}

fn us_f(ns: &[f64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        median(ns) / 1e3
    }
}

/// What planning adds to a call, for `engine.query_cold_us`: every
/// distinct statement once with the plan cache emptied first and once
/// more at once, the median of the differences. Measured as a difference
/// between neighbours because a tight loop over the pool runs warmer
/// than the replay's calls, so a cold time from here cannot be set
/// beside a warm time from there.
fn planning_us(
    engine: &Engine,
    inputs: &Inputs,
    spec: &Spec,
    session: &mut SessionState,
) -> Result<f64, String> {
    let mut added = Vec::with_capacity(inputs.pool.len());
    for sql in &inputs.pool {
        // Re-setting the options is the public way to clear the cache.
        engine.set_options(engine.options());
        let t0 = Instant::now();
        let out = warm_call(engine, sql, session, spec.over_wire)?;
        let cold_ns = t0.elapsed().as_nanos() as f64;
        if out.cached_plan {
            return Err(format!("plan cache survived a clear: {sql}"));
        }
        let t0 = Instant::now();
        warm_call(engine, sql, session, spec.over_wire)?;
        added.push(cold_ns - t0.elapsed().as_nanos() as f64);
    }
    Ok(us_f(&added))
}

/// `models.predict_ns_per_row`: a direct `Classifier::predict` loop per
/// registered model over the head of the queried table, averaged over
/// the models.
fn predict_ns_per_row(engine: &Engine, inputs: &Inputs) -> f64 {
    let catalog = engine.catalog();
    let table = &catalog
        .table(catalog.table_by_name(inputs.table.name).expect("set up"))
        .table;
    let rows: Vec<Vec<u16>> = (0..table.n_rows().min(PREDICT_ROWS) as u32)
        .map(|r| table.row(r))
        .collect();
    let per_model: Vec<f64> = (0..catalog.n_models())
        .map(|id| {
            let model = &catalog.model(id).model;
            let t0 = Instant::now();
            let mut sink = 0u64;
            for row in &rows {
                sink += u64::from(model.predict(std::hint::black_box(row)).0);
            }
            std::hint::black_box(sink);
            t0.elapsed().as_nanos() as f64 / rows.len().max(1) as f64
        })
        .collect();
    if per_model.is_empty() {
        0.0
    } else {
        per_model.iter().sum::<f64>() / per_model.len() as f64
    }
}

/// An engine like the workload's but bare: tables, indexes and models,
/// no server, no subscriptions.
fn bare_engine(inputs: &Inputs, dir: Option<&Path>) -> Result<Engine, String> {
    let engine = match dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            Engine::open(dir).map_err(|e| e.to_string())?
        }
        None => Engine::new(Catalog::new()),
    };
    for t in [&inputs.train, &inputs.table] {
        engine
            .create_table(t.to_table())
            .map_err(|e| e.to_string())?;
    }
    for cols in &inputs.indexes {
        let cols: Vec<AttrId> = cols.iter().map(|&c| AttrId(c)).collect();
        engine
            .create_index(inputs.table.name, &cols)
            .map_err(|e| e.to_string())?;
    }
    for m in &inputs.models {
        let gen::ModelSpec::Sql(ddl) = m else {
            return Err("write path expects SQL models".into());
        };
        engine.execute_sql(ddl).map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// The write path's layers, by running the same INSERT statements on
/// three bare engines — in memory, durable, and in memory with the
/// subscriptions — and differencing.
fn write_path_layers(inputs: &Inputs, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let dir = env::work_dir().join(format!("persist-{}", std::process::id()));
    let memory = bare_engine(inputs, None)?;
    let durable = bare_engine(inputs, Some(&dir))?;
    let subscribed = bare_engine(inputs, None)?;
    for sql in &inputs.subscriptions {
        subscribed
            .execute_sql(sql)
            .map_err(|e| format!("{sql}: {e}"))?;
    }
    let insert = |engine: &Engine, sql: &str| -> Result<(u64, u64, u64), String> {
        let t0 = Instant::now();
        let out = engine.execute_sql(sql);
        let ns = t0.elapsed().as_nanos() as u64;
        match out {
            Ok(StatementOutcome::Inserted {
                subs_matched,
                subs_index_pruned,
                ..
            }) => Ok((ns, subs_matched, subs_index_pruned)),
            other => Err(format!("{sql}: {other:?}")),
        }
    };
    // One untimed insert each: the first one after SUBSCRIBE builds the
    // inverted index, and every engine should be equally warm.
    for engine in [&memory, &durable, &subscribed] {
        insert(engine, &inputs.inserts[0])?;
    }
    let wal_before = env::dir_bytes(&dir);
    let (mut mem, mut dur, mut wal_cost, mut match_cost) = (vec![], vec![], vec![], vec![]);
    let (mut matched, mut pruned) = (0u64, 0u64);
    for sql in inputs.inserts.iter().skip(1).take(PERSIST_INSERTS) {
        let (m_ns, ..) = insert(&memory, sql)?;
        let (d_ns, ..) = insert(&durable, sql)?;
        let (s_ns, s_matched, s_pruned) = insert(&subscribed, sql)?;
        mem.push(m_ns);
        dur.push(d_ns);
        wal_cost.push(d_ns as f64 - m_ns as f64);
        match_cost.push(s_ns as f64 - m_ns as f64);
        matched += s_matched;
        pruned += s_pruned;
    }
    let n = mem.len().max(1) as f64;
    let wal_bytes = env::dir_bytes(&dir).saturating_sub(wal_before);

    // Recovery from the log alone, then a checkpoint and its snapshot.
    let copy = dir.with_extension("crash");
    env::copy_dir(&dir, &copy).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let reopened = Engine::open(&copy).map_err(|e| format!("reopen: {e}"))?;
    let recovery_ns = t0.elapsed().as_nanos() as f64;
    let replayed = reopened
        .recovery_report()
        .map_or(0, |r| r.wal_records_replayed);
    drop(reopened);
    let t0 = Instant::now();
    durable
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_s = t0.elapsed().as_secs_f64();
    let snapshot_bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);

    let candidacies = n * (gen::ROWS_PER_INSERT * inputs.subscriptions.len()) as f64;
    out.extend([
        ("persist.insert_memory_us", us(&mem)),
        ("persist.insert_durable_us", us(&dur)),
        ("persist.wal_cost_us", us_f(&wal_cost)),
        ("persist.wal_bytes_per_insert", wal_bytes as f64 / n),
        ("persist.checkpoint_s", checkpoint_s),
        ("persist.snapshot_bytes", snapshot_bytes as f64),
        (
            "persist.recovery_us_per_record",
            recovery_ns / 1e3 / replayed.max(1) as f64,
        ),
        ("subscribe.match_cost_us", us_f(&match_cost)),
        ("subscribe.subs_matched", matched as f64 / n),
        ("subscribe.subs_index_pruned", pruned as f64 / n),
        (
            "subscribe.pruned_frac",
            if candidacies > 0.0 {
                pruned as f64 / candidacies
            } else {
                0.0
            },
        ),
    ]);
    Ok(())
}

/// What a traced run produced: every per-layer metric by name, and how
/// many statements it checked.
pub struct Traced {
    pub workload: &'static str,
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub trace_file: std::path::PathBuf,
}

impl Traced {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

pub fn run(spec: &Spec, cfg: &Config) -> Result<Traced, String> {
    let inputs = (spec.generate)(cfg.seed, cfg.scale);
    let (mut system, setup) = system::build(spec, &inputs)?;
    let derive_s = system.rederive_envelopes_s(&inputs);
    let expected = gate::run(&system, spec, &inputs)?;
    let mut values: Vec<(&'static str, f64)> = vec![
        ("catalog.table_load_s", setup.table_load_s),
        ("catalog.index_build_s", setup.index_build_s),
        ("catalog.train_s", (setup.models_s - derive_s).max(0.0)),
        ("catalog.derive_envelopes_s", derive_s),
    ];
    let (mut attempted, mut failed, mut refused) = (0u64, 0u64, 0u64);

    // Closed-loop legs first, while the set-up system is untouched:
    // the mixed workload's own window (for the write-side numbers that
    // cannot be end-to-end metrics), or the 1-vs-2 connection legs.
    let mut user_visible = Vec::new();
    let mut scaling = 0.0;
    let mut ledger = window::Ledger::default();
    if !inputs.inserts.is_empty() {
        let initial_rows = system.table_rows(&inputs);
        let w = window::run(
            &mut system,
            spec,
            &inputs,
            &expected,
            spec.connections,
            cfg.window,
        )?;
        let recovered = e2e::recover_copy(&system, &inputs)?;
        let violations = e2e::post_window_checks(spec, initial_rows, &w, Some(&recovered), true);
        if !violations.is_empty() {
            return Err(violations.join("; "));
        }
        attempted += w.attempted();
        failed += w.failed();
        refused += w.queries.refused + w.writes.refused;
        ledger = w.ledger;
        user_visible = e2e::metrics_of(setup.total_s, &w);
    } else if spec.over_wire && spec.connections > 1 {
        let leg = cfg.window / 4;
        let mut rates = Vec::new();
        for connections in [1, spec.connections] {
            let w = window::run(&mut system, spec, &inputs, &expected, connections, leg)?;
            attempted += w.attempted();
            failed += w.failed();
            refused += w.queries.refused;
            rates.push(w.completed() as f64 / w.elapsed_s.max(1e-9));
        }
        scaling = rates[1] / rates[0].max(1e-9);
    }

    // The replay: one thread, plain call then step by step.
    let mut tracer = Tracer::new();
    let mut steps = Steps::default();
    let mut session = SessionState::new();
    session.set_parallelism(spec.dop);
    let mut client = match spec.over_wire {
        true => Some(system::connect(system.addr, spec.dop)?),
        false => None,
    };
    let t_replay = Instant::now();
    // Twice through the pool untimed, as every connection warms up.
    for sql in inputs.pool.iter().chain(&inputs.pool) {
        warm_call(&system.engine, sql, &mut session, spec.over_wire)?;
    }
    let mut replayed = 0usize;
    while replayed < REPLAY_STATEMENTS.min(inputs.sequence.len()) && t_replay.elapsed() < cfg.window
    {
        let idx = inputs.sequence[replayed] as usize;
        let sql = &inputs.pool[idx];
        // The client's call once more with no span around it, before
        // and after the traced statement by turns.
        let untraced_first = replayed.is_multiple_of(2);
        if untraced_first {
            untraced_call(
                &mut steps,
                &system.engine,
                client.as_mut(),
                &mut session,
                sql,
            )?;
        }
        replay_statement(
            &mut tracer,
            &mut steps,
            &system.engine,
            client.as_mut(),
            &mut session,
            spec,
            sql,
            expected[idx],
            replayed,
        )?;
        if !untraced_first {
            untraced_call(
                &mut steps,
                &system.engine,
                client.as_mut(),
                &mut session,
                sql,
            )?;
        }
        replayed += 1;
    }
    let replay_s = t_replay.elapsed().as_secs_f64();
    if let Some(client) = client.take() {
        let _ = client.goodbye();
    }
    attempted += replayed as u64;
    failed += steps.failed;

    let planning_us = planning_us(&system.engine, &inputs, spec, &mut session)?;
    let predict_ns = predict_ns_per_row(&system.engine, &inputs);
    drop(system);

    let n = replayed.max(1) as f64;
    // What a span around the client's call, in the middle of the replay,
    // does to the time that call takes.
    let traced_us = us(if spec.over_wire {
        &steps.roundtrip
    } else {
        &steps.warm
    });
    let untraced_us = us(&steps.untraced).max(1e-3);
    let c = &steps.counters;
    let per = |x: u64| x as f64 / n;
    let speedup = if spec.dop > 1 {
        median(&steps.speedup)
    } else {
        1.0
    };
    values.extend([
        ("protocol.request_encode_us", us(&steps.request_encode)),
        ("protocol.request_decode_us", us(&steps.request_decode)),
        ("protocol.response_encode_us", us(&steps.response_encode)),
        ("protocol.response_decode_us", us(&steps.response_decode)),
        (
            "protocol.response_bytes",
            if steps.response_bytes.is_empty() {
                0.0
            } else {
                median_u64(&steps.response_bytes)
            },
        ),
        ("server.transport_us", us_f(&steps.transport)),
        ("server.client_scaling", scaling),
        ("server.refused", refused as f64),
        ("client.roundtrip_us", us(&steps.roundtrip)),
        ("sql.parse_us", us(&steps.parse)),
        ("rewrite.rewrite_us", us(&steps.rewrite)),
        ("optimizer.plan_us", us_f(&steps.plan)),
        ("optimizer.plan_changed_frac", per(steps.plans_changed)),
        ("engine.query_cold_us", us(&steps.warm) + planning_us),
        ("engine.query_warm_us", us(&steps.warm)),
        ("engine.overhead_us", us_f(&steps.overhead)),
        ("engine.plan_cache_hit_frac", per(steps.cached_plans)),
        ("display.plan_text_us", us(&steps.plan_text)),
        ("exec.execute_us", us(&steps.execute)),
        ("exec.execute_dop1_us", us(&steps.execute_dop1)),
        ("exec.parallel_speedup", speedup),
        ("exec.heap_pages_read", per(c.heap_pages_read)),
        ("exec.index_pages_read", per(c.index_pages_read)),
        ("exec.pages_skipped", per(c.pages_skipped)),
        ("exec.rows_examined", per(c.rows_examined)),
        ("exec.output_rows", per(c.output_rows)),
        (
            "exec.rows_examined_per_output_row",
            if c.output_rows > 0 {
                c.rows_examined as f64 / c.output_rows as f64
            } else {
                0.0
            },
        ),
        ("vectorized.compile_us", us(&steps.compile)),
        ("vectorized.memo_hits", per(c.memo_hits)),
        ("vectorized.cascade_accepts", per(c.cascade_accepts)),
        ("vectorized.cascade_rejects", per(c.cascade_rejects)),
        ("vectorized.band_rows", per(c.band_rows)),
        ("vectorized.clauses_reordered", per(c.clauses_reordered)),
        ("vectorized.factor_hits", per(c.factor_hits)),
        ("vectorized.reference_ratio", median(&steps.reference_ratio)),
        ("models.scorer_us", per(c.scorer_ns) / 1e3),
        ("models.invocations", per(c.model_invocations)),
        ("models.predict_ns_per_row", predict_ns),
        ("notify.delivered", ledger.delivered as f64),
        ("notify.gaps", ledger.gaps as f64),
        (
            "trace.overhead_frac",
            (traced_us - untraced_us) / untraced_us,
        ),
        ("trace.statements", replayed as f64),
        ("trace.spans", tracer.spans.len() as f64),
        ("trace.replay_s", replay_s),
    ]);
    if !inputs.inserts.is_empty() {
        write_path_layers(&inputs, &mut values)?;
    }
    // Models compile out of every wire statement: nothing may have
    // reached a scorer there.
    if spec.over_wire && c.model_invocations != 0 {
        return Err(format!(
            "{}: {} model invocations on a workload whose models compile out",
            spec.name, c.model_invocations
        ));
    }
    // The user-visible metrics that cannot be gated end to end ride along.
    for def in &crate::metrics::DEMOTED {
        let v = if def.name == "failed_frac" {
            Some(failed as f64 / attempted.max(1) as f64)
        } else {
            user_visible
                .iter()
                .find(|(n, _)| *n == def.name)
                .and_then(|(_, v)| *v)
        };
        values.push((def.name, v.unwrap_or(0.0)));
    }

    let trace_file = Path::new(env::OUT_DIR).join(format!("trace-{}.json", spec.name));
    tracer
        .write(&trace_file, spec.name, cfg.seed)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    Ok(Traced {
        workload: spec.name,
        values,
        attempted,
        failed,
        trace_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.open("statement", None, 7);
        let ((), a) = t.span("a", root, || std::thread::sleep(Duration::from_millis(2)));
        let ((), b) = t.span("b", root, || std::thread::sleep(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(1));
        t.close(root);
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(t.self_ns(root), total - a - b);
        assert!(
            t.self_ns(root) >= 1_000_000,
            "the unspanned sleep is the root's own"
        );
        assert!(t.spans.iter().all(|s| s.statement_id == 7));
        assert_eq!(t.spans[1].parent, Some(root));
    }

    #[test]
    fn trace_file_is_valid_json_with_every_span() {
        let mut t = Tracer::new();
        let root = t.open("statement", None, 0);
        t.span("sql.parse", root, || ());
        t.close(root);
        let path = Path::new(env::OUT_DIR).join(format!("test-trace-{}.json", std::process::id()));
        t.write(&path, "wire_point", 3).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = doc
            .get("spans")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("parent").and_then(crate::json::Value::as_f64),
            Some(0.0)
        );
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Value::Null));
    }
}
