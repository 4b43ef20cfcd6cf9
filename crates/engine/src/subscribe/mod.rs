//! Standing mining-predicate subscriptions (predicate pub/sub).
//!
//! The paper's envelope rewrite turns an opaque `PREDICT(m) = c` into a
//! sound attribute-space predicate. That move inverts cleanly: instead
//! of one query scanning many rows, many *standing* queries can be
//! matched against one arriving row by indexing the registered
//! envelopes themselves. A client runs `SUBSCRIBE SELECT * FROM t WHERE
//! ...`, the engine registers the query durably (the WAL logs the
//! verbatim SQL and re-parses it at replay), and every subsequently
//! inserted row that satisfies the predicate is pushed back as a
//! [`MatchEvent`].
//!
//! The matcher ([`index::SubIndex`]) runs on the query kernels. Every
//! subscription's envelope DNF clauses on a table form one
//! [`crate::vectorized::BoxTable`]; one column-at-a-time pass over an
//! insert's rows picks each row's candidate subscriptions, and each
//! candidate's rewritten predicate, compiled once into a
//! [`crate::CompiledPredicate`], runs over its candidate rows as one
//! selection through a shared [`crate::vectorized`] scorer, whose proxy
//! cascades decide additive models' predicates without a scorer call —
//! and exactly-compiled subscriptions pay zero by construction.

mod index;

pub use index::MatchMetrics;
pub(crate) use index::{IndexKey, SubIndex};

use crate::expr::Expr;
use crate::table::RowId;
use mpq_types::Member;

/// A registered standing subscription.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Stable id assigned at registration (monotone per catalog).
    pub id: u64,
    /// The table the standing query watches.
    pub table: usize,
    /// The inner query's verbatim SQL text. Durable registration logs
    /// this text and re-parses it at recovery, so a replayed catalog
    /// sees exactly the predicate the subscriber registered.
    pub sql: String,
    /// The parsed predicate (as registered, before envelope rewriting —
    /// the matcher rewrites against the live catalog so retrained
    /// models take effect).
    pub(crate) predicate: Expr,
}

/// One pushed match: an inserted row satisfied a standing subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchEvent {
    /// The subscription that matched.
    pub subscription: u64,
    /// Name of the table the row landed in.
    pub table: String,
    /// Row id of the inserted row.
    pub row_id: RowId,
    /// The matched row (encoded members, schema order).
    pub row: Vec<Member>,
    /// How the row that produced it was matched: how many
    /// subscriptions the guard pruned and how many were evaluated
    /// (`scorer_banded` reads 0).
    pub metrics: MatchMetrics,
}
