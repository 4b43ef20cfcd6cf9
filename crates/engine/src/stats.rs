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
    /// member `m` — the popcount of the table's page bitmap for `m`,
    /// used to estimate how many pages a pruned scan must read.
    page_counts: Vec<u64>,
    total: u64,
}

impl ColumnStats {
    /// Builds the histogram of column `d` of `table`.
    pub fn build(table: &Table, d: usize) -> ColumnStats {
        let card = table.schema().attrs()[d].domain.cardinality() as usize;
        let mut counts = vec![0u64; card];
        count_members(table.column(d), &mut counts);
        Self::with_counts(table, d, counts)
    }

    /// The stats of column `d` from its member counts; the page counts
    /// are the popcounts of the table's page bitmaps.
    fn with_counts(table: &Table, d: usize, counts: Vec<u64>) -> ColumnStats {
        let page_counts = (0..counts.len() as u16)
            .map(|m| table.member_pages(d, m).map(|w| u64::from(w.count_ones())).sum())
            .collect();
        ColumnStats { counts, page_counts, total: table.n_rows() as u64 }
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

/// Adds one to `counts[m]` for every member `m` of `column`.
fn count_members(column: &[u16], counts: &mut [u64]) {
    for &m in column {
        counts[m as usize] += 1;
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

    /// Builds statistics with up to `workers` threads, counting members
    /// over the same page-aligned morsels the parallel executor scans.
    /// Counts add exactly, so the result is identical to the serial
    /// build for every worker count — the same differential guarantee
    /// the executor gives (and small tables skip the pool entirely).
    /// Page counts come from the table's page bitmaps either way.
    pub fn build_parallel(table: &Table, workers: usize) -> TableStats {
        let workers = workers.clamp(1, 256);
        if workers == 1 || table.n_rows() < PARALLEL_BUILD_MIN_ROWS {
            let columns =
                (0..table.schema().len()).map(|d| ColumnStats::build(table, d)).collect();
            return TableStats { columns };
        }
        let cards: Vec<usize> =
            table.schema().attrs().iter().map(|a| a.domain.cardinality() as usize).collect();
        let morsels = table.morsels(workers);
        let partials: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (morsels, cards) = (&morsels, &cards);
                    // Static stride assignment: counting work is
                    // uniform per row, so no dispatcher is needed.
                    s.spawn(move || {
                        let mut counts: Vec<Vec<u64>> =
                            cards.iter().map(|&card| vec![0; card]).collect();
                        for r in morsels.iter().skip(w).step_by(workers) {
                            let rows = r.start as usize..r.end as usize;
                            for (d, counts) in counts.iter_mut().enumerate() {
                                count_members(&table.column(d)[rows.clone()], counts);
                            }
                        }
                        counts
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("stats worker panicked")).collect()
        });
        let columns = cards
            .iter()
            .enumerate()
            .map(|(d, &card)| {
                let mut counts = vec![0u64; card];
                for part in &partials {
                    for (a, b) in counts.iter_mut().zip(&part[d]) {
                        *a += b;
                    }
                }
                ColumnStats::with_counts(table, d, counts)
            })
            .collect();
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
