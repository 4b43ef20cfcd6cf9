//! Per-session execution settings.
//!
//! PR 3 made the engine shareable across threads, but `SET PARALLELISM`
//! (and the query guard) remained engine-global: one client tuning its
//! own knob re-tuned everyone's. A [`SessionState`] scopes both to one
//! client: each field is an *override* that, while unset, falls through
//! to the engine-wide default — so the engine-global values keep their
//! role as defaults, and a session never observes another session's
//! `SET` statements.
//!
//! The server crate (`mpq-server`) creates one `SessionState` per
//! connection; in-process embedders can do the same via
//! [`Engine::query_in`](crate::Engine::query_in) /
//! [`Engine::execute_sql_in`](crate::Engine::execute_sql_in). The
//! session-less entry points ([`Engine::query`](crate::Engine::query),
//! [`Engine::execute_sql`](crate::Engine::execute_sql)) behave like a
//! session with no overrides; `SET` through the session-less
//! `execute_sql` mutates the engine-wide default, preserving the old
//! semantics for embedders that never deal in sessions.

use crate::guard::QueryGuard;

/// Maximum degree of parallelism a session (or the engine) accepts —
/// mirrors [`crate::ExecOptions`]'s clamp.
pub(crate) const MAX_DOP: usize = 256;

/// Session-scoped execution overrides: degree of parallelism and query
/// guard. Unset fields fall through to the engine-wide defaults.
///
/// ```
/// use mpq_engine::{QueryGuard, SessionState};
///
/// let mut s = SessionState::new();
/// assert_eq!(s.parallelism(), None, "defaults to the engine-wide value");
/// s.set_parallelism(4);
/// assert_eq!(s.parallelism(), Some(4));
/// s.set_guard(QueryGuard::default().with_max_rows_examined(100));
/// assert_eq!(s.guard().unwrap().max_rows_examined, Some(100));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionState {
    parallelism: Option<usize>,
    guard: Option<QueryGuard>,
}

impl SessionState {
    /// A session with no overrides: queries run with the engine-wide
    /// parallelism and guard.
    pub fn new() -> SessionState {
        SessionState::default()
    }

    /// This session's parallelism override, if set.
    pub fn parallelism(&self) -> Option<usize> {
        self.parallelism
    }

    /// Overrides the degree of parallelism for this session only
    /// (clamped to `1..=256`, like the engine-wide knob).
    pub fn set_parallelism(&mut self, dop: usize) -> usize {
        let dop = dop.clamp(1, MAX_DOP);
        self.parallelism = Some(dop);
        dop
    }

    /// Removes the parallelism override; queries fall back to the
    /// engine-wide value.
    pub fn clear_parallelism(&mut self) {
        self.parallelism = None;
    }

    /// This session's guard override, if set.
    pub fn guard(&self) -> Option<QueryGuard> {
        self.guard
    }

    /// Overrides the query guard for this session only.
    pub fn set_guard(&mut self, guard: QueryGuard) {
        self.guard = Some(guard);
    }

    /// Removes the guard override; queries fall back to the engine-wide
    /// guard.
    pub fn clear_guard(&mut self) {
        self.guard = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_start_unset_and_clamp() {
        let mut s = SessionState::new();
        assert_eq!(s.parallelism(), None);
        assert_eq!(s.guard(), None);
        assert_eq!(s.set_parallelism(0), 1, "clamped up");
        assert_eq!(s.set_parallelism(100_000), MAX_DOP, "clamped down");
        s.clear_parallelism();
        assert_eq!(s.parallelism(), None);
        s.set_guard(QueryGuard::default().with_max_pages(7));
        assert_eq!(s.guard().unwrap().max_pages, Some(7));
        s.clear_guard();
        assert_eq!(s.guard(), None);
    }
}
