//! Paged, column-major table storage.
//!
//! Tables hold encoded member indexes (`u16`) in column-major layout. A
//! simple page model drives the cost accounting the paper's experiments
//! rely on: a full scan reads every page; an unclustered index fetch
//! touches one page per *distinct* page among the matched row ids, which
//! is what makes low-selectivity index plans cheap and high-selectivity
//! ones pointless — the effect Figure 6 documents.

use crate::EngineError;
use mpq_types::{Dataset, Member, MemberSet, Schema};

/// Identifier of a row within a table.
pub type RowId = u32;

/// Default number of bytes per page.
pub const DEFAULT_PAGE_BYTES: usize = 8192;

/// Simulated on-disk bytes per column. Storage here is dictionary-
/// compressed 2-byte members, but the paper's tables held the original
/// values (strings, floats — tens of bytes per column); page accounting
/// uses this width so scans cost what they did in the paper's I/O-bound
/// setting. The optimizer's `CostModel` uses the same default.
pub const ASSUMED_COLUMN_BYTES: usize = 32;

/// A stored table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Column-major cells: `columns[d][row]`.
    columns: Vec<Vec<Member>>,
    n_rows: usize,
    /// Rows per page, derived from the page byte budget and row width.
    rows_per_page: usize,
    /// Zone maps: `zones[page][d]` is the set of members present in
    /// column `d` on `page` — Moerkotte's small materialized aggregates,
    /// specialized to member-presence bitsets. A scan can skip a page
    /// whenever its compiled predicate is provably false on every
    /// member combination the zone admits.
    zones: Vec<Vec<MemberSet>>,
}

impl Table {
    /// Creates a table from an encoded dataset.
    pub fn from_dataset(name: impl Into<String>, data: &Dataset) -> Table {
        Self::with_page_bytes(name, data, DEFAULT_PAGE_BYTES)
    }

    /// Creates a table with an explicit page size in bytes.
    pub fn with_page_bytes(name: impl Into<String>, data: &Dataset, page_bytes: usize) -> Table {
        let schema = data.schema().clone();
        let n = schema.len();
        let mut columns = vec![Vec::with_capacity(data.len()); n];
        for row in data.rows() {
            for (d, &m) in row.iter().enumerate() {
                columns[d].push(m);
            }
        }
        let row_bytes = (n * ASSUMED_COLUMN_BYTES).max(1);
        let rows_per_page = (page_bytes / row_bytes).max(1);
        let n_rows = data.len();
        let zones = build_zones(&schema, &columns, n_rows, rows_per_page);
        Table { name: name.into(), schema, columns, n_rows, rows_per_page, zones }
    }

    /// Reassembles a table from its serialized parts (crash recovery).
    ///
    /// Everything is validated — the parts come straight off disk, so a
    /// corrupt (but checksum-colliding) input must surface as `Err`, not
    /// index out of bounds later: columns must be one per attribute, all
    /// the same length, and every member within its domain cardinality.
    pub fn from_encoded_parts(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Vec<Member>>,
        rows_per_page: usize,
    ) -> Result<Table, EngineError> {
        let name = name.into();
        if columns.len() != schema.len() {
            return Err(EngineError::Corrupt {
                detail: format!(
                    "table {name:?}: {} columns for {} attributes",
                    columns.len(),
                    schema.len()
                ),
            });
        }
        let n_rows = columns.first().map_or(0, Vec::len);
        if columns.iter().any(|c| c.len() != n_rows) {
            return Err(EngineError::Corrupt {
                detail: format!("table {name:?}: ragged columns"),
            });
        }
        for (d, col) in columns.iter().enumerate() {
            let card = schema.attrs()[d].domain.cardinality();
            if col.iter().any(|&m| m >= card) {
                return Err(EngineError::Corrupt {
                    detail: format!("table {name:?}: member out of range in column {d}"),
                });
            }
        }
        if rows_per_page == 0 {
            return Err(EngineError::Corrupt {
                detail: format!("table {name:?}: zero rows per page"),
            });
        }
        let zones = build_zones(&schema, &columns, n_rows, rows_per_page);
        Ok(Table { name, schema, columns, n_rows, rows_per_page, zones })
    }

    /// Appends one encoded row, validating arity and member ranges.
    /// Used by `INSERT` replay and the durable insert path; rejecting
    /// here keeps every stored cell within its domain, which the rest of
    /// the engine relies on.
    pub fn push_row(&mut self, row: &[Member]) -> Result<(), EngineError> {
        if row.len() != self.schema.len() {
            return Err(EngineError::SchemaMismatch {
                detail: format!(
                    "row has {} values, table {} has {} columns",
                    row.len(),
                    self.name,
                    self.schema.len()
                ),
            });
        }
        for (d, &m) in row.iter().enumerate() {
            if m >= self.schema.attrs()[d].domain.cardinality() {
                return Err(EngineError::BadValue(format!(
                    "member {m} out of range for column {}",
                    self.schema.attrs()[d].name
                )));
            }
        }
        let page = self.n_rows / self.rows_per_page;
        if page == self.zones.len() {
            self.zones.push(empty_zone_row(&self.schema));
        }
        for (d, &m) in row.iter().enumerate() {
            self.columns[d].push(m);
            self.zones[page][d].insert(m);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of pages the heap occupies.
    pub fn n_pages(&self) -> usize {
        self.n_rows.div_ceil(self.rows_per_page)
    }

    /// Rows stored per page.
    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page
    }

    /// The page a row lives on.
    #[inline]
    pub fn page_of(&self, row: RowId) -> usize {
        row as usize / self.rows_per_page
    }

    /// Splits the heap into page-aligned morsels for parallel scans.
    ///
    /// Every range starts on a page boundary and covers whole pages
    /// (the tail may be short), so per-worker progressive page
    /// accounting sums to exactly [`Table::n_pages`] — no page is
    /// shared between two morsels. Sizing targets at least `4 ×
    /// workers` morsels when the heap has that many pages, so the
    /// executor's atomic dispatcher can rebalance skewed per-morsel
    /// costs; smaller heaps fall back to one-page morsels.
    pub fn morsels(&self, workers: usize) -> Vec<std::ops::Range<RowId>> {
        let n = self.n_rows as RowId;
        if n == 0 {
            return Vec::new();
        }
        let workers = workers.max(1);
        let target_rows = (self.n_rows / workers.saturating_mul(4)).max(1);
        let pages = (target_rows / self.rows_per_page).max(1);
        let step = pages * self.rows_per_page;
        (0..self.n_rows)
            .step_by(step)
            .map(|s| s as RowId..((s + step) as RowId).min(n))
            .collect()
    }

    /// Value of column `d` at `row`.
    #[inline]
    pub fn cell(&self, row: RowId, d: usize) -> Member {
        self.columns[d][row as usize]
    }

    /// Materializes a full row (allocates; used at result boundaries).
    pub fn row(&self, row: RowId) -> Vec<Member> {
        (0..self.schema.len()).map(|d| self.cell(row, d)).collect()
    }

    /// A whole column.
    pub fn column(&self, d: usize) -> &[Member] {
        &self.columns[d]
    }

    /// The zone map of `page`: one member-presence set per column.
    /// Never empty for a page that holds at least one row.
    pub fn page_zones(&self, page: usize) -> &[MemberSet] {
        &self.zones[page]
    }

    /// Checks that a model schema matches this table's schema (§2.2's
    /// prediction-join column mapping, simplified to name/domain
    /// equality).
    pub fn check_model_schema(&self, model_schema: &Schema) -> Result<(), EngineError> {
        if model_schema != &self.schema {
            return Err(EngineError::SchemaMismatch {
                detail: format!(
                    "model schema does not match table {} (columns differ)",
                    self.name
                ),
            });
        }
        Ok(())
    }
}

/// One empty zone entry per column of `schema`.
fn empty_zone_row(schema: &Schema) -> Vec<MemberSet> {
    schema.attrs().iter().map(|a| MemberSet::empty(a.domain.cardinality())).collect()
}

/// Builds every page's zone map from the stored columns.
fn build_zones(
    schema: &Schema,
    columns: &[Vec<Member>],
    n_rows: usize,
    rows_per_page: usize,
) -> Vec<Vec<MemberSet>> {
    let n_pages = n_rows.div_ceil(rows_per_page);
    let mut zones = Vec::with_capacity(n_pages);
    for page in 0..n_pages {
        let start = page * rows_per_page;
        let end = (start + rows_per_page).min(n_rows);
        let mut row = empty_zone_row(schema);
        for (d, zone) in row.iter_mut().enumerate() {
            for &m in &columns[d][start..end] {
                zone.insert(m);
            }
        }
        zones.push(row);
    }
    zones
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_types::{AttrDomain, Attribute};

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::new("a", AttrDomain::categorical(["x", "y"])),
            Attribute::new("b", AttrDomain::binned(vec![1.0]).unwrap()),
        ])
        .unwrap();
        Dataset::from_rows(schema, (0..100).map(|i| vec![(i % 2) as u16, ((i / 2) % 2) as u16]))
            .unwrap()
    }

    #[test]
    fn column_major_roundtrip() {
        let t = Table::from_dataset("t", &dataset());
        assert_eq!(t.n_rows(), 100);
        assert_eq!(t.row(3), vec![1, 1]);
        assert_eq!(t.cell(4, 0), 0);
        assert_eq!(t.column(0).len(), 100);
    }

    #[test]
    fn paging_math() {
        // 2 columns x 32 assumed bytes = 64 bytes/row -> 4 rows per
        // 256-byte page.
        let t = Table::with_page_bytes("t", &dataset(), 256);
        assert_eq!(t.rows_per_page(), 4);
        assert_eq!(t.n_pages(), 25);
        assert_eq!(t.page_of(0), 0);
        assert_eq!(t.page_of(3), 0);
        assert_eq!(t.page_of(4), 1);
        assert_eq!(t.page_of(99), 24);
    }

    #[test]
    fn morsels_partition_rows_on_page_boundaries() {
        // 4 rows/page over 100 rows = 25 pages.
        let t = Table::with_page_bytes("t", &dataset(), 256);
        for workers in [1usize, 2, 4, 8, 64] {
            let ms = t.morsels(workers);
            // A disjoint cover of 0..n_rows, in order.
            let mut next = 0;
            for m in &ms {
                assert_eq!(m.start, next, "contiguous at {workers} workers");
                assert!(m.end > m.start);
                assert_eq!(m.start as usize % t.rows_per_page(), 0, "page-aligned start");
                next = m.end;
            }
            assert_eq!(next, 100);
            if (workers * 4) <= t.n_pages() {
                assert!(ms.len() >= workers * 4, "{workers} workers got {} morsels", ms.len());
            }
        }
        // Degenerate sizes.
        let empty = Table::from_dataset("e", &Dataset::new(dataset().schema().clone()));
        assert!(empty.morsels(4).is_empty());
        assert_eq!(Table::with_page_bytes("t", &dataset(), 1 << 20).morsels(8).len(), 1);
    }

    #[test]
    fn tiny_pages_never_zero_rows() {
        let t = Table::with_page_bytes("t", &dataset(), 1);
        assert_eq!(t.rows_per_page(), 1);
        assert_eq!(t.n_pages(), 100);
    }

    #[test]
    fn zone_maps_record_page_membership() {
        // Column a alternates 0/1 per row; column b alternates per pair —
        // with 4 rows/page every page sees both members of both columns
        // except when the data is clustered, which we force below.
        let t = Table::with_page_bytes("t", &dataset(), 256);
        for page in 0..t.n_pages() {
            let z = t.page_zones(page);
            assert!(z[0].contains(0) && z[0].contains(1));
        }
        // Clustered column: zones distinguish the halves.
        let schema =
            Schema::new(vec![Attribute::new("a", AttrDomain::categorical(["x", "y"]))]).unwrap();
        let ds = Dataset::from_rows(schema, (0..100).map(|i| vec![u16::from(i >= 50)])).unwrap();
        let t = Table::with_page_bytes("t", &ds, 256); // 8 rows/page
        assert!(t.page_zones(0).iter().all(|z| z.contains(0) && !z.contains(1)));
        let last = t.n_pages() - 1;
        assert!(t.page_zones(last).iter().all(|z| z.contains(1) && !z.contains(0)));
    }

    #[test]
    fn push_row_maintains_zones() {
        let schema =
            Schema::new(vec![Attribute::new("a", AttrDomain::categorical(["x", "y", "z"]))])
                .unwrap();
        let mut t =
            Table::with_page_bytes("t", &Dataset::new(schema.clone()), ASSUMED_COLUMN_BYTES * 2);
        assert_eq!(t.rows_per_page(), 2);
        for m in [0u16, 1, 2, 2, 1] {
            t.push_row(&[m]).unwrap();
        }
        // Incrementally-maintained zones must equal a from-scratch build.
        let rebuilt = Table::from_encoded_parts(
            "t",
            schema,
            vec![t.column(0).to_vec()],
            t.rows_per_page(),
        )
        .unwrap();
        assert_eq!(t.n_pages(), 3);
        for page in 0..t.n_pages() {
            assert_eq!(t.page_zones(page), rebuilt.page_zones(page), "page {page}");
        }
        assert!(t.page_zones(0).iter().all(|z| z.contains(0) && z.contains(1) && !z.contains(2)));
        assert!(t.page_zones(2).iter().all(|z| z.contains(1) && !z.contains(0)));
    }

    #[test]
    fn model_schema_check() {
        let t = Table::from_dataset("t", &dataset());
        assert!(t.check_model_schema(t.schema()).is_ok());
        let other = Schema::new(vec![Attribute::new("z", AttrDomain::categorical(["q"]))]).unwrap();
        assert!(t.check_model_schema(&other).is_err());
    }
}
