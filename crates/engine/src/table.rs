//! Paged, column-major table storage.
//!
//! Tables hold encoded member indexes (`u16`) in column-major layout. A
//! simple page model drives the cost accounting the paper's experiments
//! rely on: a full scan reads every page; an unclustered index fetch
//! touches one page per *distinct* page among the matched row ids, which
//! is what makes low-selectivity index plans cheap and high-selectivity
//! ones pointless — the effect Figure 6 documents.
//!
//! Each column also keeps one page bitmap per member: the pages holding
//! at least one row with that member. A scan ANDs and ORs them in its
//! compiled predicate's shape to find the pages it must read
//! ([`crate::CompiledPredicate::candidate_pages`]); the optimizer's
//! `ColumnStats::pages_with` is their popcount.

use crate::EngineError;
use mpq_types::{Dataset, Member, Schema};

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
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Column-major cells: `columns[d][row]`.
    columns: Vec<Vec<Member>>,
    n_rows: usize,
    /// Rows per page, derived from the page byte budget and row width.
    rows_per_page: usize,
    /// Page bitmaps, word-major per column: bit `p % 64` of
    /// `page_bits[d][(p / 64) * card_d + m]` is set iff page `p` holds a
    /// row with member `m` in column `d`. Word-major so that a table
    /// growing past a multiple of 64 pages appends `card_d` zero words
    /// and moves nothing.
    page_bits: Vec<Vec<u64>>,
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
        let page_bits = build_page_bits(&schema, &columns, rows_per_page);
        Table { name: name.into(), schema, columns, n_rows, rows_per_page, page_bits }
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
        let page_bits = build_page_bits(&schema, &columns, rows_per_page);
        Ok(Table { name, schema, columns, n_rows, rows_per_page, page_bits })
    }

    /// The parts [`Table::from_encoded_parts`] takes, moved out: name,
    /// schema, columns and rows per page.
    pub fn into_parts(self) -> (String, Schema, Vec<Vec<Member>>, usize) {
        (self.name, self.schema, self.columns, self.rows_per_page)
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
        let (word, bit) = (page / 64, 1u64 << (page % 64));
        for (d, &m) in row.iter().enumerate() {
            self.columns[d].push(m);
            let card = self.schema.attrs()[d].domain.cardinality() as usize;
            let bits = &mut self.page_bits[d];
            if bits.len() == word * card {
                bits.resize((word + 1) * card, 0);
            }
            bits[word * card + m as usize] |= bit;
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

    /// Words in one page bitmap: ⌈pages / 64⌉.
    pub(crate) fn page_words(&self) -> usize {
        self.n_pages().div_ceil(64)
    }

    /// The page bitmap of member `m` in column `d`, a word at a time:
    /// [`Table::page_words`] words, no bit set past the last page.
    pub(crate) fn member_pages(&self, d: usize, m: Member) -> impl Iterator<Item = u64> + '_ {
        let card = self.schema.attrs()[d].domain.cardinality() as usize;
        self.page_bits[d].iter().skip(m as usize).step_by(card.max(1)).copied()
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

/// Builds every column's page bitmaps from the stored columns.
fn build_page_bits(
    schema: &Schema,
    columns: &[Vec<Member>],
    rows_per_page: usize,
) -> Vec<Vec<u64>> {
    columns
        .iter()
        .zip(schema.attrs())
        .map(|(column, attr)| {
            let card = attr.domain.cardinality() as usize;
            let words = column.len().div_ceil(rows_per_page).div_ceil(64);
            let mut bits = vec![0u64; words * card];
            for (page, rows) in column.chunks(rows_per_page).enumerate() {
                let (word, bit) = (page / 64, 1u64 << (page % 64));
                for &m in rows {
                    bits[word * card + m as usize] |= bit;
                }
            }
            bits
        })
        .collect()
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

    /// The pages whose bitmap bit is set for member `m` of column `d`.
    fn pages_with(t: &Table, d: usize, m: Member) -> Vec<usize> {
        let mut pages = Vec::new();
        for (w, word) in t.member_pages(d, m).enumerate() {
            pages.extend((0..64).filter(|b| word >> b & 1 == 1).map(|b| w * 64 + b));
        }
        pages
    }

    #[test]
    fn page_bitmaps_record_page_membership() {
        // Column a alternates 0/1 per row: with 4 rows/page every page
        // holds both members.
        let t = Table::with_page_bytes("t", &dataset(), 256);
        let every: Vec<usize> = (0..t.n_pages()).collect();
        assert_eq!(t.page_words(), 1);
        assert_eq!(pages_with(&t, 0, 0), every);
        assert_eq!(pages_with(&t, 0, 1), every);
        // Clustered column: the bitmaps split the halves.
        let schema = Schema::new(vec![Attribute::new(
            "a",
            AttrDomain::categorical(["x", "y"]),
        )])
        .unwrap();
        let ds = Dataset::from_rows(schema, (0..100).map(|i| vec![u16::from(i >= 50)])).unwrap();
        let t = Table::with_page_bytes("t", &ds, 256); // 8 rows/page, 13 pages
        assert_eq!(pages_with(&t, 0, 0), (0..7).collect::<Vec<_>>());
        assert_eq!(pages_with(&t, 0, 1), (6..13).collect::<Vec<_>>());
    }

    #[test]
    fn push_row_maintains_page_bitmaps() {
        let schema = Schema::new(vec![Attribute::new(
            "a",
            AttrDomain::categorical(["x", "y", "z"]),
        )])
        .unwrap();
        let mut t =
            Table::with_page_bytes("t", &Dataset::new(schema.clone()), ASSUMED_COLUMN_BYTES * 2);
        assert_eq!(t.rows_per_page(), 2);
        // 70 pages: the bitmaps grow a second word on the way.
        let rows: Vec<u16> = (0..140u16)
            .map(|i| [0, 1, 2, 2, 1][i as usize % 5])
            .collect();
        for &m in &rows {
            t.push_row(&[m]).unwrap();
        }
        // Incrementally maintained bitmaps equal a from-scratch build.
        let rebuilt =
            Table::from_encoded_parts("t", schema, vec![rows], t.rows_per_page()).unwrap();
        assert_eq!(t.n_pages(), 70);
        assert_eq!(t.page_words(), 2);
        assert_eq!(t, rebuilt);
        assert_eq!(&pages_with(&t, 0, 0)[..3], [0, 2, 5]);
        assert_eq!(pages_with(&t, 0, 1).len(), 56);
    }

    #[test]
    fn model_schema_check() {
        let t = Table::from_dataset("t", &dataset());
        assert!(t.check_model_schema(t.schema()).is_ok());
        let other = Schema::new(vec![Attribute::new("z", AttrDomain::categorical(["q"]))]).unwrap();
        assert!(t.check_model_schema(&other).is_err());
    }
}
