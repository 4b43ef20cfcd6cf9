//! Cooperative query-execution guards.
//!
//! A [`QueryGuard`] bounds how much work a single query may perform:
//! wall-clock time, rows examined, pages read, and black-box model
//! invocations. The executor checks the guard cooperatively at row and
//! page granularity; a breach aborts the query with
//! [`crate::EngineError::BudgetExceeded`] — the engine never returns a
//! silently truncated row set.
//!
//! The guard exists because envelope-based plans can mis-estimate badly
//! when an envelope is loose (or degraded to `TRUE`): the optimizer may
//! pick an index union that touches far more pages than estimated. A
//! guard converts "runaway query" into a typed, retryable error.

use std::time::{Duration, Instant};

use crate::error::{EngineError, GuardResource};
use crate::exec::ExecMetrics;

/// Resource budgets for one query execution. `None` means unlimited.
///
/// ```
/// use mpq_engine::QueryGuard;
/// use std::time::Duration;
///
/// let guard = QueryGuard::default()
///     .with_deadline(Duration::from_millis(50))
///     .with_max_rows_examined(10_000)
///     .with_max_pages(1_000)
///     .with_max_model_invocations(10_000);
/// assert_eq!(guard.max_pages, Some(1_000));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryGuard {
    /// Wall-clock budget for the whole execution.
    pub deadline: Option<Duration>,
    /// Maximum rows fetched and tested against the residual predicate.
    pub max_rows_examined: Option<u64>,
    /// Maximum heap + index pages read.
    pub max_pages: Option<u64>,
    /// Maximum black-box model applications.
    pub max_model_invocations: Option<u64>,
}

impl QueryGuard {
    /// A guard with every budget unlimited (same as `Default`).
    pub fn unlimited() -> QueryGuard {
        QueryGuard::default()
    }

    /// Sets the wall-clock budget.
    pub fn with_deadline(mut self, deadline: Duration) -> QueryGuard {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the examined-rows budget.
    pub fn with_max_rows_examined(mut self, rows: u64) -> QueryGuard {
        self.max_rows_examined = Some(rows);
        self
    }

    /// Sets the pages-read budget (heap + index).
    pub fn with_max_pages(mut self, pages: u64) -> QueryGuard {
        self.max_pages = Some(pages);
        self
    }

    /// Sets the model-invocation budget.
    pub fn with_max_model_invocations(mut self, n: u64) -> QueryGuard {
        self.max_model_invocations = Some(n);
        self
    }

    /// True when no budget is configured at all.
    pub fn is_unlimited(&self) -> bool {
        *self == QueryGuard::default()
    }

    /// Returns a copy with the budget for `resource` replaced by
    /// `limit` (`None` = unlimited; wall-clock limits are in
    /// milliseconds). This is how `SET GUARD <resource> <n>` updates
    /// one budget of a session's guard without disturbing the rest.
    pub fn with_limit(
        mut self,
        resource: crate::error::GuardResource,
        limit: Option<u64>,
    ) -> QueryGuard {
        use crate::error::GuardResource;
        match resource {
            GuardResource::WallClock => self.deadline = limit.map(Duration::from_millis),
            GuardResource::RowsExamined => self.max_rows_examined = limit,
            GuardResource::PagesRead => self.max_pages = limit,
            GuardResource::ModelInvocations => self.max_model_invocations = limit,
        }
        self
    }
}

/// How much budget was left when a query finished; recorded in
/// [`ExecMetrics::guard`]. `None` means the corresponding budget was
/// unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardHeadroom {
    /// Rows-examined budget remaining.
    pub rows_remaining: Option<u64>,
    /// Pages budget remaining.
    pub pages_remaining: Option<u64>,
    /// Model-invocation budget remaining.
    pub model_invocations_remaining: Option<u64>,
    /// Wall-clock budget remaining, in milliseconds.
    pub time_remaining_ms: Option<u64>,
}

/// Time source for deadline checks: the wall clock anchored at guard
/// creation, or (in tests) a virtual nanosecond counter advanced
/// explicitly — so deadline tests are deterministic under arbitrary CI
/// load instead of sleeping real time.
#[derive(Debug, Clone)]
enum Clock {
    /// Wall clock anchored at guard creation.
    Real(Instant),
    /// Virtual elapsed nanoseconds, advanced explicitly by tests.
    #[cfg(test)]
    Virtual(std::sync::Arc<std::sync::atomic::AtomicU64>),
}

impl Clock {
    fn elapsed(&self) -> Duration {
        match self {
            Clock::Real(t0) => t0.elapsed(),
            #[cfg(test)]
            Clock::Virtual(ns) => {
                Duration::from_nanos(ns.load(std::sync::atomic::Ordering::Relaxed))
            }
        }
    }
}

/// Live guard state for one execution: the configured budgets plus the
/// clock for deadline checks. Shared by reference across the
/// executor's workers (budget counters live elsewhere, not here).
#[derive(Debug, Clone)]
pub(crate) struct GuardState {
    guard: QueryGuard,
    clock: Clock,
}

impl GuardState {
    pub(crate) fn new(guard: QueryGuard) -> GuardState {
        GuardState { guard, clock: Clock::Real(Instant::now()) }
    }

    /// A guard state reading elapsed time from `ns` (virtual
    /// nanoseconds) instead of the wall clock. Test-only: lets deadline
    /// tests advance time deterministically.
    #[cfg(test)]
    fn with_virtual_clock(
        guard: QueryGuard,
        ns: std::sync::Arc<std::sync::atomic::AtomicU64>,
    ) -> GuardState {
        GuardState { guard, clock: Clock::Virtual(ns) }
    }

    /// Elapsed time according to this guard's clock.
    pub(crate) fn elapsed(&self) -> Duration {
        self.clock.elapsed()
    }

    /// Checks only the wall-clock budget. The pipeline's workers use
    /// this between the exact atomic budget charges — a deadline probe
    /// needs no counters, just the clock.
    pub(crate) fn check_deadline(&self) -> Result<(), EngineError> {
        if let Some(budget) = self.guard.deadline {
            let elapsed = self.elapsed();
            if elapsed > budget {
                return Err(EngineError::BudgetExceeded {
                    resource: GuardResource::WallClock,
                    spent: elapsed.as_millis() as u64,
                    limit: budget.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Checks every configured budget against the metrics so far.
    pub(crate) fn check(&self, m: &ExecMetrics) -> Result<(), EngineError> {
        let g = &self.guard;
        if let Some(limit) = g.max_rows_examined {
            if m.rows_examined > limit {
                return Err(EngineError::BudgetExceeded {
                    resource: GuardResource::RowsExamined,
                    spent: m.rows_examined,
                    limit,
                });
            }
        }
        if let Some(limit) = g.max_pages {
            let spent = m.heap_pages_read + m.index_pages_read;
            if spent > limit {
                return Err(EngineError::BudgetExceeded {
                    resource: GuardResource::PagesRead,
                    spent,
                    limit,
                });
            }
        }
        if let Some(limit) = g.max_model_invocations {
            if m.model_invocations > limit {
                return Err(EngineError::BudgetExceeded {
                    resource: GuardResource::ModelInvocations,
                    spent: m.model_invocations,
                    limit,
                });
            }
        }
        self.check_deadline()
    }

    /// Headroom left at end of execution.
    pub(crate) fn headroom(&self, m: &ExecMetrics) -> GuardHeadroom {
        let g = &self.guard;
        GuardHeadroom {
            rows_remaining: g
                .max_rows_examined
                .map(|l| l.saturating_sub(m.rows_examined)),
            pages_remaining: g
                .max_pages
                .map(|l| l.saturating_sub(m.heap_pages_read + m.index_pages_read)),
            model_invocations_remaining: g
                .max_model_invocations
                .map(|l| l.saturating_sub(m.model_invocations)),
            time_remaining_ms: g.deadline.map(|d| {
                d.saturating_sub(self.elapsed()).as_millis() as u64
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let st = GuardState::new(QueryGuard::unlimited());
        let m = ExecMetrics {
            rows_examined: u64::MAX,
            heap_pages_read: u64::MAX / 2,
            index_pages_read: 17,
            model_invocations: u64::MAX,
            ..ExecMetrics::default()
        };
        assert!(st.check(&m).is_ok());
        assert_eq!(st.headroom(&m), GuardHeadroom::default());
    }

    #[test]
    fn row_budget_trips_with_spent_and_limit() {
        let st = GuardState::new(QueryGuard::default().with_max_rows_examined(10));
        let mut m = ExecMetrics { rows_examined: 10, ..ExecMetrics::default() };
        assert!(st.check(&m).is_ok(), "at the limit is still fine");
        m.rows_examined = 11;
        match st.check(&m) {
            Err(EngineError::BudgetExceeded { resource, spent, limit }) => {
                assert_eq!(resource, GuardResource::RowsExamined);
                assert_eq!((spent, limit), (11, 10));
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn page_budget_counts_heap_plus_index() {
        let st = GuardState::new(QueryGuard::default().with_max_pages(5));
        let m = ExecMetrics {
            heap_pages_read: 3,
            index_pages_read: 3,
            ..ExecMetrics::default()
        };
        match st.check(&m) {
            Err(EngineError::BudgetExceeded { resource, spent, limit }) => {
                assert_eq!(resource, GuardResource::PagesRead);
                assert_eq!((spent, limit), (6, 5));
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_trips() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        // Virtual clock: no sleeping, no dependence on scheduler load.
        let ns = Arc::new(AtomicU64::new(0));
        let st = GuardState::with_virtual_clock(
            QueryGuard::default().with_deadline(Duration::ZERO),
            Arc::clone(&ns),
        );
        let m = ExecMetrics::default();
        assert!(st.check(&m).is_ok(), "nothing elapsed yet");
        ns.store(1_000_000, Ordering::Relaxed); // advance 1ms
        match st.check(&m) {
            Err(EngineError::BudgetExceeded { resource, spent, limit }) => {
                assert_eq!(resource, GuardResource::WallClock);
                assert_eq!((spent, limit), (1, 0), "exactly the virtual 1ms");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn deadline_headroom_is_exact_under_virtual_clock() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let ns = Arc::new(AtomicU64::new(0));
        let st = GuardState::with_virtual_clock(
            QueryGuard::default().with_deadline(Duration::from_millis(100)),
            Arc::clone(&ns),
        );
        let m = ExecMetrics::default();
        ns.store(40_000_000, Ordering::Relaxed); // 40ms of virtual work
        assert!(st.check(&m).is_ok());
        assert_eq!(st.headroom(&m).time_remaining_ms, Some(60));
        ns.store(101_000_000, Ordering::Relaxed); // past the budget
        assert!(st.check(&m).is_err());
        assert_eq!(st.headroom(&m).time_remaining_ms, Some(0), "saturates at zero");
    }

    #[test]
    fn headroom_reports_remaining() {
        let st = GuardState::new(
            QueryGuard::default().with_max_rows_examined(100).with_max_pages(50),
        );
        let m = ExecMetrics {
            rows_examined: 40,
            heap_pages_read: 10,
            index_pages_read: 5,
            ..ExecMetrics::default()
        };
        let h = st.headroom(&m);
        assert_eq!(h.rows_remaining, Some(60));
        assert_eq!(h.pages_remaining, Some(35));
        assert_eq!(h.model_invocations_remaining, None);
    }
}
