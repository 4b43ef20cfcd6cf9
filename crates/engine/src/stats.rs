//! Column statistics for selectivity estimation.
//!
//! Domains are discretized and small, so the engine keeps an *exact*
//! per-member frequency histogram per column — the best case of the
//! equi-depth histograms a commercial optimizer would maintain. AND/OR
//! selectivities combine under the usual independence assumption.

use crate::table::Table;

/// Exact per-member histogram of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// `counts[m]` = rows with member `m`.
    counts: Vec<u64>,
    /// `page_counts[m]` = heap pages holding at least one row with
    /// member `m` — the optimizer's view of the table's zone maps, used
    /// to estimate how many pages a zone-pruned scan must read.
    page_counts: Vec<u64>,
    total: u64,
}

impl ColumnStats {
    /// Builds the histogram of column `d` of `table`.
    pub fn build(table: &Table, d: usize) -> ColumnStats {
        Self::build_range(table, d, 0..table.n_rows())
    }

    /// Builds the histogram of column `d` over the row range `rows` —
    /// the per-morsel unit of the parallel statistics build. `rows` must
    /// start on a page boundary (morsels do), so every page is counted
    /// by exactly one range and page counts merge exactly.
    fn build_range(table: &Table, d: usize, rows: std::ops::Range<usize>) -> ColumnStats {
        let card = table.schema().attrs()[d].domain.cardinality() as usize;
        let mut counts = vec![0u64; card];
        let mut page_counts = vec![0u64; card];
        let total = rows.len() as u64;
        for &m in &table.column(d)[rows.clone()] {
            counts[m as usize] += 1;
        }
        let rpp = table.rows_per_page();
        debug_assert!(rows.start.is_multiple_of(rpp), "stats ranges must be page-aligned");
        if !rows.is_empty() {
            for page in (rows.start / rpp)..=((rows.end - 1) / rpp) {
                for m in table.page_zones(page)[d].iter() {
                    page_counts[m as usize] += 1;
                }
            }
        }
        ColumnStats { counts, page_counts, total }
    }

    /// Folds another partial histogram of the same column into this
    /// one. Exact counts merge exactly, so any partition of the heap
    /// rebuilds the serial histogram bit for bit.
    fn merge(&mut self, other: &ColumnStats) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.page_counts.iter_mut().zip(&other.page_counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Total rows sampled.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rows holding member `m`.
    pub fn count(&self, m: u16) -> u64 {
        self.counts.get(m as usize).copied().unwrap_or(0)
    }

    /// Selectivity of `member = m`.
    pub fn eq_selectivity(&self, m: u16) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(m) as f64 / self.total as f64
        }
    }

    /// Selectivity of `lo <= member <= hi`.
    pub fn range_selectivity(&self, lo: u16, hi: u16) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = (lo..=hi.min(self.counts.len().saturating_sub(1) as u16))
            .map(|m| self.count(m))
            .sum();
        sum as f64 / self.total as f64
    }

    /// Selectivity of `member ∈ set`.
    pub fn set_selectivity(&self, members: impl Iterator<Item = u16>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = members.map(|m| self.count(m)).sum();
        sum as f64 / self.total as f64
    }

    /// Heap pages holding at least one row with member `m`.
    pub fn pages_with(&self, m: u16) -> u64 {
        self.page_counts.get(m as usize).copied().unwrap_or(0)
    }

    /// Number of distinct members actually present.
    pub fn distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

/// Statistics for every column of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    columns: Vec<ColumnStats>,
}

/// Below this row count a parallel build costs more in thread setup
/// than it saves in counting.
const PARALLEL_BUILD_MIN_ROWS: usize = 1 << 16;

/// Worker count the catalog uses when (re)building statistics: one per
/// available core, like the executor's default degree of parallelism.
pub(crate) fn default_stats_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 256)
}

impl TableStats {
    /// Builds statistics for all columns.
    pub fn build(table: &Table) -> TableStats {
        Self::build_parallel(table, 1)
    }

    /// Builds statistics with up to `workers` threads, partitioning
    /// the heap on the same page-aligned morsels the parallel executor
    /// scans. Per-morsel histograms merge exactly, so the result is
    /// identical to the serial build for every worker count — the same
    /// differential guarantee the executor gives (and small tables
    /// skip the pool entirely).
    pub fn build_parallel(table: &Table, workers: usize) -> TableStats {
        let workers = workers.clamp(1, 256);
        if workers == 1 || table.n_rows() < PARALLEL_BUILD_MIN_ROWS {
            let columns =
                (0..table.schema().len()).map(|d| ColumnStats::build(table, d)).collect();
            return TableStats { columns };
        }
        let morsels = table.morsels(workers);
        let partials: Vec<Vec<ColumnStats>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let morsels = &morsels;
                    // Static stride assignment: counting work is
                    // uniform per row, so no dispatcher is needed.
                    s.spawn(move || {
                        let mut cols: Vec<Option<ColumnStats>> =
                            vec![None; table.schema().len()];
                        for r in morsels.iter().skip(w).step_by(workers) {
                            let rows = r.start as usize..r.end as usize;
                            for (d, slot) in cols.iter_mut().enumerate() {
                                let part = ColumnStats::build_range(table, d, rows.clone());
                                match slot {
                                    Some(acc) => acc.merge(&part),
                                    None => *slot = Some(part),
                                }
                            }
                        }
                        cols.into_iter().flatten().collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("stats worker panicked")).collect()
        });
        let mut columns: Vec<ColumnStats> = (0..table.schema().len())
            .map(|d| {
                let card = table.schema().attrs()[d].domain.cardinality() as usize;
                ColumnStats { counts: vec![0; card], page_counts: vec![0; card], total: 0 }
            })
            .collect();
        for worker_cols in &partials {
            if worker_cols.is_empty() {
                continue; // worker drew no morsels
            }
            for (acc, part) in columns.iter_mut().zip(worker_cols) {
                acc.merge(part);
            }
        }
        TableStats { columns }
    }

    /// Stats of column `d`.
    pub fn column(&self, d: usize) -> &ColumnStats {
        &self.columns[d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_types::{AttrDomain, Attribute, Dataset, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![Attribute::new(
            "c",
            AttrDomain::categorical(["a", "b", "c", "d"]),
        )])
        .unwrap();
        // 40 a, 30 b, 20 c, 10 d.
        let rows = std::iter::repeat_n(vec![0u16], 40)
            .chain(std::iter::repeat_n(vec![1u16], 30))
            .chain(std::iter::repeat_n(vec![2u16], 20))
            .chain(std::iter::repeat_n(vec![3u16], 10));
        Table::from_dataset("t", &Dataset::from_rows(schema, rows).unwrap())
    }

    #[test]
    fn histogram_is_exact() {
        let s = TableStats::build(&table());
        let c = s.column(0);
        assert_eq!(c.total(), 100);
        assert_eq!(c.count(0), 40);
        assert_eq!(c.eq_selectivity(3), 0.1);
        assert_eq!(c.distinct(), 4);
    }

    #[test]
    fn range_and_set_selectivity() {
        let s = TableStats::build(&table());
        let c = s.column(0);
        assert_eq!(c.range_selectivity(1, 2), 0.5);
        assert_eq!(c.range_selectivity(0, 3), 1.0);
        assert_eq!(c.range_selectivity(2, 9), 0.3, "clamped to domain");
        assert_eq!(c.set_selectivity([0u16, 3].into_iter()), 0.5);
    }

    #[test]
    fn parallel_build_matches_serial_exactly() {
        // Differential oracle for the statistics build: the merged
        // per-morsel histograms must equal the serial ones bit for bit,
        // above and below the parallel threshold.
        let small = table();
        let schema = Schema::new(vec![
            Attribute::new("c", AttrDomain::categorical(["a", "b", "c", "d"])),
            Attribute::new("e", AttrDomain::categorical(["u", "v"])),
        ])
        .unwrap();
        let rows = (0..super::PARALLEL_BUILD_MIN_ROWS + 999)
            .map(|i| vec![(i % 4) as u16, (i % 7 == 0) as u16]);
        let big = Table::from_dataset("big", &Dataset::from_rows(schema, rows).unwrap());
        for t in [&small, &big] {
            let serial = TableStats::build_parallel(t, 1);
            for workers in [2, 4, 8] {
                assert_eq!(
                    TableStats::build_parallel(t, workers),
                    serial,
                    "stats diverged at {workers} workers on {} rows",
                    t.n_rows()
                );
            }
        }
    }

    #[test]
    fn page_counts_track_clustering() {
        let schema = Schema::new(vec![Attribute::new(
            "c",
            AttrDomain::categorical(["a", "b", "c", "d"]),
        )])
        .unwrap();
        let rows = std::iter::repeat_n(vec![0u16], 40)
            .chain(std::iter::repeat_n(vec![1u16], 30))
            .chain(std::iter::repeat_n(vec![2u16], 20))
            .chain(std::iter::repeat_n(vec![3u16], 10));
        // 256-byte pages → 8 rows per page → 13 pages over 100 rows.
        let t = Table::with_page_bytes("t", &Dataset::from_rows(schema, rows).unwrap(), 256);
        assert_eq!(t.rows_per_page(), 8);
        let s = TableStats::build(&t);
        let c = s.column(0);
        assert_eq!(c.pages_with(0), 5, "rows 0..40 fill pages 0..5");
        assert_eq!(c.pages_with(1), 4, "rows 40..70 touch pages 5..9");
        assert_eq!(c.pages_with(2), 4, "rows 70..90 touch pages 8..12");
        assert_eq!(c.pages_with(3), 2, "rows 90..100 touch pages 11..13");
        assert_eq!(c.pages_with(9), 0, "out-of-domain member is nowhere");
    }

    #[test]
    fn empty_table_yields_zero_selectivity() {
        let schema = Schema::new(vec![Attribute::new("c", AttrDomain::categorical(["a"]))]).unwrap();
        let t = Table::from_dataset("t", &Dataset::new(schema));
        let s = TableStats::build(&t);
        assert_eq!(s.column(0).eq_selectivity(0), 0.0);
        assert_eq!(s.column(0).range_selectivity(0, 0), 0.0);
    }
}
