//! Checksummed, atomically-installed catalog snapshots.
//!
//! A snapshot file (`snap-<lsn>.snap`) is the whole durable catalog at
//! one log position: magic, then a single CRC-framed record holding the
//! LSN it covers, every table (schema, page geometry, cells, index
//! column sets), and every durable model (its [`StoredModel`] plus
//! derivation options). Installation is crash-atomic: write to a `.tmp`
//! sibling, fsync, rename over the final name, fsync the directory —
//! a reader either sees the complete new file or none at all.

use super::{get_derive_opts, put_derive_opts, StoredModel};
use crate::catalog::Catalog;
use crate::dedup::StatementDedup;
use crate::EngineError;
use mpq_core::DeriveOptions;
use mpq_types::wire::{crc32, get_schema, put_schema, WireReader, WireWriter};
use mpq_types::{Member, Schema};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"MPQSNAP1";

/// File name for the snapshot covering the log up to `lsn`.
pub(crate) fn snapshot_file_name(lsn: u64) -> String {
    format!("snap-{lsn:020}.snap")
}

/// Parses a snapshot file name back to its covered LSN.
pub(crate) fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    if rest.len() != 20 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// One table as serialized in a snapshot.
#[derive(Debug)]
pub(crate) struct TableState {
    pub name: String,
    pub schema: Schema,
    pub rows_per_page: u64,
    /// Column-major cells.
    pub columns: Vec<Vec<Member>>,
    /// Column-id sets of the table's secondary indexes.
    pub indexes: Vec<Vec<u16>>,
}

/// One durable model as serialized in a snapshot.
#[derive(Debug)]
pub(crate) struct ModelState {
    pub name: String,
    pub stored: StoredModel,
    pub opts: DeriveOptions,
}

/// A decoded snapshot: the durable catalog at `last_lsn`.
#[derive(Debug)]
pub(crate) struct SnapshotState {
    /// Every record with LSN <= this is covered by the snapshot.
    pub last_lsn: u64,
    pub tables: Vec<TableState>,
    pub models: Vec<ModelState>,
    /// Statement-outcome dedup state as of `last_lsn` (empty when the
    /// snapshot predates the exactly-once format extension).
    pub dedup: StatementDedup,
    /// Replication epoch as of `last_lsn` (0 when the snapshot predates
    /// the replication format extension).
    pub epoch: u64,
    /// Standing subscriptions as of `last_lsn` — (id, verbatim query
    /// text) pairs, re-parsed against the rebuilt catalog (empty when
    /// the snapshot predates the pub/sub format extension).
    pub subscriptions: Vec<(u64, String)>,
    /// Next subscription id to assign (0 in pre-pub/sub snapshots; the
    /// catalog clamps upward so ids are never reused).
    pub next_sub_id: u64,
}

/// Serializes the durable parts of a catalog into snapshot file bytes.
/// Transient models (no [`StoredModel`]) are skipped by design.
pub(crate) fn serialize_catalog(catalog: &Catalog, last_lsn: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(last_lsn);
    w.put_u32(catalog.n_tables() as u32);
    for t in 0..catalog.n_tables() {
        let entry = catalog.table(t);
        let table = &entry.table;
        w.put_str(table.name());
        put_schema(&mut w, table.schema());
        w.put_u64(table.rows_per_page() as u64);
        w.put_u32(table.schema().len() as u32);
        for d in 0..table.schema().len() {
            w.put_u16s(table.column(d));
        }
        w.put_u32(entry.indexes.len() as u32);
        for ix in &entry.indexes {
            let cols: Vec<u16> = ix.columns().iter().map(|a| a.0).collect();
            w.put_u16s(&cols);
        }
    }
    let durable: Vec<(usize, &crate::persist::StoredModel)> = (0..catalog.n_models())
        .filter_map(|m| catalog.model(m).stored.as_ref().map(|s| (m, s)))
        .collect();
    w.put_u32(durable.len() as u32);
    for (m, stored) in durable {
        w.put_str(&catalog.model(m).name);
        stored.encode(&mut w);
        put_derive_opts(&mut w, &catalog.model(m).derive_opts);
    }
    catalog.dedup().encode(&mut w);
    w.put_u64(catalog.epoch());
    w.put_u32(catalog.n_subscriptions() as u32);
    for sub in catalog.subscriptions() {
        w.put_u64(sub.id);
        w.put_str(&sub.sql);
    }
    w.put_u64(catalog.next_subscription_id());
    let payload = w.into_bytes();
    let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 8 + payload.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// Decodes snapshot file bytes, verifying magic, length, and CRC.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotState, EngineError> {
    let header = if bytes.get(..8).is_some_and(|m| m == SNAPSHOT_MAGIC) {
        crate::persist::wal::le_u32(bytes, 8).zip(crate::persist::wal::le_u32(bytes, 12))
    } else {
        None
    };
    let Some((len, crc)) = header else {
        return Err(EngineError::Corrupt { detail: "bad snapshot header".to_string() });
    };
    let len = len as usize;
    let payload = bytes
        .get(16..16 + len)
        .ok_or_else(|| EngineError::Corrupt { detail: "truncated snapshot".to_string() })?;
    if bytes.len() != 16 + len {
        return Err(EngineError::Corrupt {
            detail: "trailing bytes after snapshot record".to_string(),
        });
    }
    if crc32(payload) != crc {
        return Err(EngineError::Corrupt { detail: "snapshot crc mismatch".to_string() });
    }
    let mut r = WireReader::new(payload);
    let last_lsn = r.get_u64()?;
    let n_tables = r.get_u32()? as usize;
    if n_tables > r.remaining() {
        return Err(EngineError::Corrupt { detail: "table count exceeds snapshot".into() });
    }
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = r.get_str()?;
        let schema = get_schema(&mut r)?;
        let rows_per_page = r.get_u64()?;
        let n_cols = r.get_u32()? as usize;
        if n_cols > r.remaining() {
            return Err(EngineError::Corrupt { detail: "column count exceeds snapshot".into() });
        }
        let columns: Vec<Vec<Member>> =
            (0..n_cols).map(|_| Ok(r.get_u16s()?)).collect::<Result<_, EngineError>>()?;
        let n_ix = r.get_u32()? as usize;
        if n_ix > r.remaining() {
            return Err(EngineError::Corrupt { detail: "index count exceeds snapshot".into() });
        }
        let indexes: Vec<Vec<u16>> =
            (0..n_ix).map(|_| Ok(r.get_u16s()?)).collect::<Result<_, EngineError>>()?;
        tables.push(TableState { name, schema, rows_per_page, columns, indexes });
    }
    let n_models = r.get_u32()? as usize;
    if n_models > r.remaining() {
        return Err(EngineError::Corrupt { detail: "model count exceeds snapshot".into() });
    }
    let mut models = Vec::with_capacity(n_models);
    for _ in 0..n_models {
        let name = r.get_str()?;
        let stored = StoredModel::decode(&mut r)?;
        let opts = get_derive_opts(&mut r)?;
        models.push(ModelState { name, stored, opts });
    }
    // The dedup section was appended to the format later; a payload
    // ending right after the models decodes as an empty store.
    let dedup =
        if r.is_exhausted() { StatementDedup::default() } else { StatementDedup::decode(&mut r)? };
    // The epoch tail was appended later still; absent means epoch 0.
    let epoch = if r.is_exhausted() { 0 } else { r.get_u64()? };
    // The subscriptions tail is the newest extension; absent means no
    // standing subscriptions.
    let (subscriptions, next_sub_id) = if r.is_exhausted() {
        (Vec::new(), 0)
    } else {
        let n = r.get_u32()? as usize;
        if n > r.remaining() {
            return Err(EngineError::Corrupt {
                detail: "subscription count exceeds snapshot".into(),
            });
        }
        let subs: Vec<(u64, String)> = (0..n)
            .map(|_| Ok((r.get_u64()?, r.get_str()?)))
            .collect::<Result<_, EngineError>>()?;
        (subs, r.get_u64()?)
    };
    if !r.is_exhausted() {
        return Err(EngineError::Corrupt {
            detail: "trailing bytes inside snapshot payload".to_string(),
        });
    }
    Ok(SnapshotState { last_lsn, tables, models, dedup, epoch, subscriptions, next_sub_id })
}

/// Writes a snapshot of `catalog` covering the log through `last_lsn`,
/// installing it atomically (`.tmp` + fsync + rename + directory fsync).
pub(crate) fn write_snapshot(
    dir: &Path,
    catalog: &Catalog,
    last_lsn: u64,
) -> Result<PathBuf, EngineError> {
    let bytes = serialize_catalog(catalog, last_lsn);
    let final_path = dir.join(snapshot_file_name(last_lsn));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(last_lsn)));
    let mut f = File::create(&tmp_path)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp_path, &final_path)?;
    File::open(dir)?.sync_all()?;
    Ok(final_path)
}

/// Reads and decodes one snapshot file. I/O failures and content
/// corruption both surface as `Err` — the caller falls back to an older
/// generation either way.
pub(crate) fn load_snapshot(path: &Path) -> Result<SnapshotState, EngineError> {
    decode_snapshot(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use mpq_types::{AttrDomain, Attribute, Dataset};

    fn demo_catalog() -> Catalog {
        let schema = Schema::new(vec![
            Attribute::new("a", AttrDomain::categorical(["x", "y"])),
            Attribute::new("b", AttrDomain::binned(vec![1.0, 2.0]).unwrap()),
        ])
        .unwrap();
        let ds = Dataset::from_rows(
            schema,
            (0..10).map(|i| vec![(i % 2) as u16, (i % 3) as u16]),
        )
        .unwrap();
        let mut cat = Catalog::new();
        let t = cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        cat.create_index(t, &[mpq_types::AttrId(0)]);
        cat
    }

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(parse_snapshot_file_name(&snapshot_file_name(7)), Some(7));
        assert_eq!(parse_snapshot_file_name("snap-7.snap"), None);
        assert_eq!(parse_snapshot_file_name("wal-00000000000000000007.wal"), None);
    }

    #[test]
    fn serialize_decode_roundtrip() {
        let cat = demo_catalog();
        let bytes = serialize_catalog(&cat, 42);
        let state = decode_snapshot(&bytes).unwrap();
        assert_eq!(state.last_lsn, 42);
        assert_eq!(state.tables.len(), 1);
        assert_eq!(state.tables[0].name, "t");
        assert_eq!(state.tables[0].columns.len(), 2);
        assert_eq!(state.tables[0].columns[0].len(), 10);
        assert_eq!(state.tables[0].indexes, vec![vec![0u16]]);
        assert!(state.models.is_empty());
    }

    /// Captured from the tree before the shared byte kernels were
    /// rebuilt (PR 22: bytewise CRC, per-element `put_u16s`): the
    /// snapshot of `demo_catalog()` at LSN 42. A checkpoint written
    /// then must open now, and the reverse.
    const GOLDEN_SNAPSHOT: &[u8] = b"MPQSNAP1\xa7\x00\x00\x00\xa7\xaf/\xd9*\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00t\x02\x00\x01\x00\x00\x00a\x00\x02\x00\x00\x00\x01\x00\x00\x00x\x01\x00\x00\x00y\x01\x00\x00\x00b\x01\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00@\x80\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x0a\x00\x00\x00\x00\x00\x01\x00\x02\x00\x00\x00\x01\x00\x02\x00\x00\x00\x01\x00\x02\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00";

    #[test]
    fn snapshot_bytes_are_unchanged() {
        assert_eq!(serialize_catalog(&demo_catalog(), 42), GOLDEN_SNAPSHOT);
        let state = decode_snapshot(GOLDEN_SNAPSHOT).unwrap();
        assert_eq!(state.last_lsn, 42);
        assert_eq!(state.tables[0].columns[0], [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
        assert_eq!(state.tables[0].columns[1], [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(state.tables[0].indexes, vec![vec![0u16]]);
    }

    #[test]
    fn subscriptions_ride_the_snapshot() {
        let mut cat = demo_catalog();
        let sql = "SELECT * FROM t WHERE a = 'x'";
        let q = crate::sql::parse(sql, &cat).unwrap();
        cat.add_subscription(3, sql.to_string(), q).unwrap();
        // A removed subscription still pins the next-id floor.
        let q = crate::sql::parse(sql, &cat).unwrap();
        cat.add_subscription(7, sql.to_string(), q).unwrap();
        cat.remove_subscription(7).unwrap();
        let bytes = serialize_catalog(&cat, 9);
        let state = decode_snapshot(&bytes).unwrap();
        assert_eq!(state.subscriptions, vec![(3, sql.to_string())]);
        assert_eq!(state.next_sub_id, 8);
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_truncation_is_corrupt_not_panic() {
        let bytes = serialize_catalog(&demo_catalog(), 1);
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn flipped_byte_fails_crc() {
        let mut bytes = serialize_catalog(&demo_catalog(), 1);
        let mid = 16 + (bytes.len() - 16) / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(decode_snapshot(&bytes), Err(EngineError::Corrupt { .. })));
    }

    #[test]
    fn atomic_install_leaves_no_tmp() {
        let dir = std::env::temp_dir()
            .join(format!("mpq-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cat = demo_catalog();
        let path = write_snapshot(&dir, &cat, 5).unwrap();
        assert!(path.ends_with(snapshot_file_name(5)));
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().all(|n| !n.ends_with(".tmp")));
        let state = load_snapshot(&path).unwrap();
        assert_eq!(state.last_lsn, 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
