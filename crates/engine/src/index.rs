//! Secondary indexes, single- or multi-column (composite).
//!
//! A composite index keys rows by a tuple of member values over its
//! column list. Domains are small dictionary-encoded member spaces, so
//! the index is three flat arrays: the distinct keys in sorted order
//! (`n_keys × width` members), CSR offsets into one row-id array, and
//! that array, whose stretch per key is the key's ascending posting
//! list. Probes filter keys by per-column atom predicates (equality,
//! range or set — any subset of the index's columns may be
//! constrained) and concatenate the matching posting lists. The
//! executor charges index pages proportional to postings read, and heap
//! pages by distinct pages among fetched row ids.
//!
//! Multi-column support matters for reproducing the paper: upper
//! envelopes are conjunctions of moderately selective atoms (often on
//! binary attributes), and only a composite key turns their *product*
//! selectivity into an index seek — which is exactly the kind of index
//! the Index Tuning Wizard recommends for such workloads.

use crate::expr::AtomPred;
use crate::table::{RowId, Table};
use mpq_types::{AttrId, Member};
use std::ops::Range;

/// A secondary index over one or more columns.
#[derive(Debug, Clone, PartialEq)]
pub struct SecondaryIndex {
    /// Indexed columns, ascending by attribute id (key order).
    columns: Vec<AttrId>,
    /// Distinct keys, ascending, `columns.len()` members each.
    keys: Vec<Member>,
    /// CSR offsets, one more than there are keys: key `i`'s postings
    /// are `rows[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Every row id, grouped by key, ascending within a key.
    rows: Vec<RowId>,
}

impl SecondaryIndex {
    /// Builds an index over `columns` of `table`. Columns are stored in
    /// ascending attribute order; duplicates are removed.
    pub fn build(table: &Table, columns: &[AttrId]) -> SecondaryIndex {
        let mut cols = columns.to_vec();
        cols.sort_unstable();
        cols.dedup();
        assert!(!cols.is_empty(), "an index needs at least one column");
        let mut ix = SecondaryIndex {
            columns: cols,
            keys: Vec::new(),
            offsets: Vec::new(),
            rows: Vec::new(),
        };
        ix.rebuild(table);
        ix
    }

    /// Rebuilds the index over every row of `table` into its own
    /// buffers, which keep their capacity: a table that grew by a few
    /// rows reallocates nothing, and nothing is allocated per row.
    ///
    /// When the key domain holds no more keys than the table has rows,
    /// a row's key is its members packed mixed-radix in column order
    /// (packed order is key order) and the rows are placed by a
    /// two-pass counting sort whose counters live in the offsets
    /// buffer, so that buffer never outgrows the row-id array. A larger
    /// domain sorts the row ids by their key tuples in place.
    pub(crate) fn rebuild(&mut self, table: &Table) {
        let n = table.n_rows();
        assert!(n <= u32::MAX as usize, "row ids are u32");
        let columns: Vec<&[Member]> = self
            .columns
            .iter()
            .map(|c| table.column(c.index()))
            .collect();
        let cards: Vec<u64> = self
            .columns
            .iter()
            .map(|c| u64::from(table.schema().attr(*c).domain.cardinality()))
            .collect();
        let domain = cards.iter().try_fold(1u64, |acc, &c| acc.checked_mul(c));
        let packed = |r: usize| {
            columns
                .iter()
                .zip(&cards)
                .fold(0u64, |k, (col, &card)| k * card + u64::from(col[r]))
        };
        self.keys.clear();
        self.offsets.clear();
        self.rows.clear();
        match domain {
            Some(d) if d <= n as u64 => {
                let d = d as usize;
                // Pass 1: counts, then their exclusive prefix sums — the
                // first slot of each key.
                self.offsets.resize(d + 1, 0);
                for r in 0..n {
                    self.offsets[packed(r) as usize + 1] += 1;
                }
                for k in 0..d {
                    self.offsets[k + 1] += self.offsets[k];
                }
                // Pass 2: rows in ascending order, each to its key's next
                // slot; afterwards `offsets[k]` is the end of key `k`.
                self.rows.resize(n, 0);
                for r in 0..n {
                    let slot = &mut self.offsets[packed(r) as usize];
                    self.rows[*slot as usize] = r as RowId;
                    *slot += 1;
                }
                // Keep the keys that hold rows, compacting their ends in
                // place: the `i`-th kept end lands at `i <= k`, already
                // read. The key array is sized first, exactly.
                let mut start = 0;
                let n_keys = self.offsets[..d]
                    .iter()
                    .filter(|&&end| std::mem::replace(&mut start, end) < end)
                    .count();
                self.keys.reserve_exact(n_keys * cards.len());
                let (mut kept, mut start) = (0, 0);
                for k in 0..d {
                    let end = self.offsets[k];
                    if end > start {
                        self.push_key(k as u64, &cards);
                        self.offsets[kept] = end;
                        kept += 1;
                    }
                    start = end;
                }
                self.offsets.truncate(kept);
                self.offsets.insert(0, 0);
            }
            _ => {
                let key = |r: RowId| columns.iter().map(move |col| col[r as usize]);
                self.rows.extend(0..n as RowId);
                self.rows
                    .sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
                self.offsets.push(0);
                for i in 0..n {
                    let r = self.rows[i];
                    if i + 1 == n || !key(r).eq(key(self.rows[i + 1])) {
                        self.keys.extend(key(r));
                        self.offsets.push(i as u32 + 1);
                    }
                }
            }
        }
    }

    /// Appends the members of packed key `k` to the key array.
    fn push_key(&mut self, mut k: u64, cards: &[u64]) {
        let at = self.keys.len();
        self.keys.resize(at + cards.len(), 0);
        for (slot, &card) in self.keys[at..].iter_mut().zip(cards).rev() {
            *slot = (k % card) as Member;
            k /= card;
        }
    }

    /// The indexed columns (ascending).
    pub fn columns(&self) -> &[AttrId] {
        &self.columns
    }

    /// Convenience for single-column indexes.
    pub fn column(&self) -> AttrId {
        self.columns[0]
    }

    /// True if this index is exactly over the given (sorted) column set.
    pub fn is_over(&self, cols: &[AttrId]) -> bool {
        self.columns == cols
    }

    /// Number of rows indexed.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct keys.
    pub fn n_keys(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Key `i`'s members.
    fn key(&self, i: usize) -> &[Member] {
        let w = self.columns.len();
        &self.keys[i * w..(i + 1) * w]
    }

    /// Key `i`'s posting list.
    fn postings(&self, i: usize) -> &[RowId] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Rows matching the per-column predicates, ascending by row id.
    /// `preds` may constrain any subset of the index's columns;
    /// unconstrained columns match everything. Predicates on columns not
    /// in the index are ignored (the caller keeps them as residual).
    pub fn probe(&self, preds: &[(AttrId, AtomPred)]) -> Vec<RowId> {
        let filters = self.align(preds);
        let mut out: Vec<RowId> = Vec::new();
        self.for_matching(&filters, |postings| out.extend_from_slice(postings));
        out.sort_unstable();
        out
    }

    /// Number of postings a probe would read, without materializing.
    pub fn probe_count(&self, preds: &[(AttrId, AtomPred)]) -> usize {
        let filters = self.align(preds);
        let mut n = 0;
        self.for_matching(&filters, |postings| n += postings.len());
        n
    }

    /// Visits the posting lists of all matching keys. Keys are sorted,
    /// so a constraint on the leading column narrows the scan to its
    /// contiguous key ranges (the B-tree seek); remaining columns filter
    /// within.
    fn for_matching(&self, filters: &[Option<&AtomPred>], mut f: impl FnMut(&[RowId])) {
        let mut scan = |range: Range<usize>| {
            for i in range {
                if key_matches(self.key(i), filters) {
                    f(self.postings(i));
                }
            }
        };
        match filters.first().copied().flatten() {
            Some(AtomPred::Eq(m)) => scan(self.first_col_range(*m, *m)),
            Some(AtomPred::Range { lo, hi }) => scan(self.first_col_range(*lo, *hi)),
            Some(AtomPred::In(s)) => {
                // Visit each member's contiguous key range.
                for m in s.iter() {
                    scan(self.first_col_range(m, m));
                }
            }
            None => scan(0..self.n_keys()),
        }
    }

    /// Index range of keys whose first column lies in `lo..=hi`.
    fn first_col_range(&self, lo: Member, hi: Member) -> Range<usize> {
        self.partition_point(|m| m < lo)..self.partition_point(|m| m <= hi)
    }

    /// The first key whose first column fails `before` (or `n_keys`);
    /// `before` must hold for a prefix of the sorted keys.
    fn partition_point(&self, before: impl Fn(Member) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.n_keys());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if before(self.key(mid)[0]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Aligns caller predicates with key positions.
    fn align<'p>(&self, preds: &'p [(AttrId, AtomPred)]) -> Vec<Option<&'p AtomPred>> {
        self.columns
            .iter()
            .map(|c| preds.iter().find(|(a, _)| a == c).map(|(_, p)| p))
            .collect()
    }
}

fn key_matches(key: &[Member], filters: &[Option<&AtomPred>]) -> bool {
    key.iter()
        .zip(filters)
        .all(|(&m, f)| f.is_none_or(|p| p.matches(m)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_types::{AttrDomain, Attribute, Dataset, MemberSet, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("a", AttrDomain::binned(vec![1.0, 2.0, 3.0]).unwrap()),
            Attribute::new("b", AttrDomain::categorical(["x", "y"])),
        ])
        .unwrap();
        let rows = (0..40).map(|i| vec![(i % 4) as u16, ((i / 4) % 2) as u16]);
        Table::from_dataset("t", &Dataset::from_rows(schema, rows).unwrap())
    }

    #[test]
    fn single_column_probe() {
        let t = table();
        let ix = SecondaryIndex::build(&t, &[AttrId(0)]);
        assert_eq!(ix.columns(), &[AttrId(0)]);
        let rows = ix.probe(&[(AttrId(0), AtomPred::Eq(2))]);
        assert_eq!(rows.len(), 10);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        for &r in &rows {
            assert_eq!(t.cell(r, 0), 2);
        }
        assert_eq!(ix.probe_count(&[(AttrId(0), AtomPred::Eq(2))]), 10);
    }

    #[test]
    fn composite_probe_conjunction() {
        let t = table();
        let ix = SecondaryIndex::build(&t, &[AttrId(1), AttrId(0)]); // stored sorted: a, b
        assert_eq!(ix.columns(), &[AttrId(0), AttrId(1)]);
        assert_eq!(ix.n_keys(), 8);
        let rows = ix.probe(&[
            (AttrId(0), AtomPred::Range { lo: 1, hi: 2 }),
            (AttrId(1), AtomPred::Eq(1)),
        ]);
        assert_eq!(rows.len(), 10);
        for &r in &rows {
            assert!((1..=2).contains(&t.cell(r, 0)));
            assert_eq!(t.cell(r, 1), 1);
        }
    }

    #[test]
    fn partial_constraint_matches_everything_else() {
        let t = table();
        let ix = SecondaryIndex::build(&t, &[AttrId(0), AttrId(1)]);
        // Constrain only b; a is unconstrained.
        let rows = ix.probe(&[(AttrId(1), AtomPred::Eq(0))]);
        assert_eq!(rows.len(), 20);
        // Predicates on non-indexed columns are ignored.
        let rows2 = ix.probe(&[(AttrId(1), AtomPred::Eq(0)), (AttrId(9), AtomPred::Eq(0))]);
        assert_eq!(rows, rows2);
    }

    #[test]
    fn in_predicates_on_keys() {
        let t = table();
        let ix = SecondaryIndex::build(&t, &[AttrId(0)]);
        let rows = ix.probe(&[(AttrId(0), AtomPred::In(MemberSet::of(4, [0, 3])))]);
        assert_eq!(rows.len(), 20);
    }

    #[test]
    fn empty_probe_returns_nothing() {
        let t = table();
        let ix = SecondaryIndex::build(&t, &[AttrId(1)]);
        assert!(ix.probe(&[(AttrId(1), AtomPred::Eq(9))]).is_empty());
        assert_eq!(ix.probe_count(&[(AttrId(1), AtomPred::Eq(9))]), 0);
    }

    #[test]
    fn duplicate_columns_are_collapsed() {
        let t = table();
        let ix = SecondaryIndex::build(&t, &[AttrId(0), AttrId(0)]);
        assert_eq!(ix.columns(), &[AttrId(0)]);
        assert!(ix.is_over(&[AttrId(0)]));
    }
}
