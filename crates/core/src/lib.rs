//! # mpq-core
//!
//! The primary contribution of *"Efficient Evaluation of Queries with
//! Mining Predicates"* (Chaudhuri, Narasayya, Sarawagi; ICDE 2002):
//! deriving **upper envelopes** — propositional predicates over data
//! columns — from the internal structure of mining models, so that
//! queries with mining predicates can use ordinary access-path selection.
//!
//! For every class `c` a model `M` can predict, the upper envelope
//! `M_c(x)` satisfies `predict(M, x) = c ⇒ M_c(x)`: adding it to a query
//! with the mining predicate `M.class = c` is a semantics-preserving
//! rewrite that exposes indexable predicates.
//!
//! ## What lives here
//!
//! * [`Region`]/[`DimSet`] — hyper-rectangle algebra over the discretized
//!   attribute grid (intersect, subtract, merge, enumerate);
//! * [`ScoreModel`] — the unified additive interval-score view of naive
//!   Bayes, k-means and diagonal GMMs (§3.3's reduction), by default the
//!   very table of the executor's [`ProxyScore`];
//! * [`derive_topdown`] — Algorithm 1: bound / shrink / split / merge,
//!   with [`BoundMode::Basic`] (Lemma 3.1) and
//!   [`BoundMode::PairwiseRatio`] (generalized Lemma 3.2) bounds;
//! * [`derive_enumerate`] — the exponential enumeration baseline and
//!   correctness oracle;
//! * [`tree_envelope`] / [`ruleset_envelope`] — exact extraction for
//!   decision trees, disjunction-of-bodies for rule sets (§3.1);
//! * [`cover_cells`] — greedy rectangle covering for boundary-based
//!   clusters;
//! * [`EnvelopeProvider`] — the uniform per-model entry point the query
//!   engine's rewriter consumes;
//! * [`envelope_to_sql`] — rendering envelopes as SQL `WHERE` fragments.
//!
//! ## Quick example
//!
//! ```
//! use mpq_core::{DeriveOptions, EnvelopeProvider, envelope_to_sql, paper_table1_model};
//! use mpq_types::ClassId;
//!
//! let nb = paper_table1_model();
//! let env = nb.envelope(ClassId(0), &DeriveOptions::default());
//! // c1's region is exactly d0 ∈ {m0,m1} ∧ d1 ∈ {m1,m2}:
//! assert!(env.exact);
//! let sql = envelope_to_sql(mpq_models::Classifier::schema(&nb), &env);
//! assert_eq!(sql, "d0 IN ('m0', 'm1') AND d1 IN ('m1', 'm2')");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster_envelope;
mod covering;
mod enumerate;
mod envelope;
mod error;
mod nb_example;
mod proxy;
mod region;
mod score_model;
mod sql;
mod topdown;
mod tree_envelope;

pub use cluster_envelope::EnvelopeProvider;
pub use covering::cover_cells;
pub use enumerate::{derive_enumerate, DEFAULT_CELL_LIMIT};
pub use envelope::{DeriveOptions, DeriveStats, Envelope, SplitHeuristic, TraceStep};
pub use error::CoreError;
pub use nb_example::{paper_table1_model, paper_table1_winners};
pub use proxy::ProxyScore;
pub use region::{range_region, DimSet, Region};
pub use score_model::{BoundMode, DimTable, QuadDim, QuadTerm, RegionStatus, ScoreModel};
pub use sql::{envelope_to_sql, region_to_sql};
pub use topdown::{derive_topdown, format_region, merge_regions, try_derive_topdown};
pub use tree_envelope::{ruleset_envelope, tree_envelope};
