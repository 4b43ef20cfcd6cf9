//! # mpq-engine
//!
//! A compact relational engine purpose-built to reproduce the evaluation
//! of *"Efficient Evaluation of Queries with Mining Predicates"* (ICDE
//! 2002): paged column storage, exact member histograms, secondary
//! indexes, a cost-based access-path optimizer (full scan / index seek /
//! multi-index union / constant scan), an executor that counts pages,
//! rows and black-box model invocations, the §4.2 mining-predicate
//! rewriter, a SQL surface with a `PREDICT(model)` pseudo-function, an
//! index-tuning-wizard-lite, and a version-checked plan cache.
//!
//! The intended flow mirrors the paper:
//!
//! 1. register tables ([`Table`], [`Catalog::add_table`]);
//! 2. register trained models — envelopes are precomputed per class at
//!    registration ([`Engine::register_model`]);
//! 3. optionally run the tuner over a workload ([`tune_indexes`]);
//! 4. issue queries with mining predicates ([`Engine::query`]); the
//!    optimizer ANDs in upper envelopes and picks an access path, while
//!    the executor keeps the original mining predicate as an exact
//!    residual filter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod compile;
mod ddl;
mod dedup;
mod display;
mod engine;
mod error;
mod exec;
mod expr;
mod fault;
mod guard;
mod index;
mod optimizer;
mod persist;
mod reference;
mod rewrite;
mod session;
mod sql;
mod stats;
mod subscribe;
mod table;
mod tuner;
mod vectorized;

pub use catalog::{Catalog, ModelEntry, TableEntry};
pub use dedup::{DedupCheck, DedupLimits, DedupOutcome, StatementDedup};
pub use display::{expr_to_sql, plan_to_string};
pub use ddl::{create_model, labeled_view, ProjectedModel};
pub use engine::{Engine, EngineHealth, ModelHealth, NotifySink, QueryOutcome, StatementOutcome};
pub use error::{EngineError, GuardResource};
pub use exec::{execute, execute_guarded, execute_opts, ExecMetrics, ExecOptions, ExecResult};
pub use fault::FaultInjector;
pub use guard::{GuardHeadroom, QueryGuard};
pub use expr::{envelope_to_expr, region_to_expr, Atom, AtomPred, Expr, MiningPred, ModelId, ModelOracle};
pub use index::SecondaryIndex;
pub use optimizer::{
    choose_plan, estimate_selectivity, AccessPath, CostModel, OptimizerOptions, Plan,
};
pub use persist::replicate::{decode_stream, encode_stream, ReplBatch, ReplRole, ReplStatus};
pub use persist::{LogOp, RecoveryReport, StatementId, StoredModel};
pub use rewrite::{envelope_expr_for, rewrite_mining, rewrite_mining_opts};
pub use session::SessionState;
pub use sql::{parse, parse_statement, ModelAlgorithm, ParsedQuery, Statement};
pub use stats::{ColumnStats, TableStats};
pub use subscribe::{MatchEvent, MatchMetrics, Subscription};
pub use table::{RowId, Table, ASSUMED_COLUMN_BYTES, DEFAULT_PAGE_BYTES};
pub use tuner::{tune_indexes, TuningReport};
pub use vectorized::CompiledPredicate;
