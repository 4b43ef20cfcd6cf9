//! Recovery: load the newest valid snapshot, replay the clean WAL
//! prefix, and leave the directory ready for appends.
//!
//! Guarantees, in order of priority:
//!
//! 1. **No panic, ever.** Every byte read from disk is validated before
//!    use; anything that fails validation surfaces as a typed error or a
//!    degraded-but-consistent state.
//! 2. **Prefix consistency.** The recovered catalog equals some prefix
//!    of the committed mutation history: the snapshot plus all WAL
//!    records up to (not through) the first torn, corrupt, or
//!    out-of-sequence record. Nothing after a bad byte is trusted, even
//!    if it checksums cleanly — a tear means the writer died mid-stream.
//! 3. **Nothing silent.** Skipped snapshots, dropped records, and
//!    dropped bytes are all counted in the [`RecoveryReport`].
//!
//! After replay the log is physically truncated to the kept prefix and
//! later segments are deleted, so the next append extends a verified
//! tail rather than interleaving with garbage.

use super::snapshot::{self, SnapshotState};
use super::wal::{self, SegmentData, WalWriter, HEADER_LEN};
use super::{LogOp, RecoveryReport};
use crate::catalog::Catalog;
use crate::dedup::{DedupCheck, DedupOutcome};
use crate::fault::FaultInjector;
use crate::table::Table;
use crate::EngineError;
use mpq_types::AttrId;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Result of recovering a durability directory.
pub(crate) struct Recovered {
    pub catalog: Catalog,
    pub wal: WalWriter,
    /// LSN the next logged mutation will take.
    pub next_lsn: u64,
    pub report: RecoveryReport,
}

/// Snapshot files in `dir`, newest (highest LSN) first.
pub(crate) fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, EngineError> {
    let mut out = list_by(dir, snapshot::parse_snapshot_file_name)?;
    out.sort_by_key(|(lsn, _)| std::cmp::Reverse(*lsn));
    Ok(out)
}

/// WAL segment files in `dir`, oldest (lowest start LSN) first.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, EngineError> {
    let mut out = list_by(dir, wal::parse_segment_file_name)?;
    out.sort_by_key(|(lsn, _)| *lsn);
    Ok(out)
}

fn list_by(
    dir: &Path,
    parse: impl Fn(&str) -> Option<u64>,
) -> Result<Vec<(u64, PathBuf)>, EngineError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(lsn) = parse(name) {
            out.push((lsn, entry.path()));
        }
    }
    Ok(out)
}

/// Deletes leftover `.tmp` files from a checkpoint that died before its
/// rename — they were never part of the durable state.
fn remove_stale_tmp(dir: &Path) -> Result<(), EngineError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".tmp") {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Validates and applies one logged mutation to the catalog. Shared by
/// replay and the live durable-mutation path, so both stay in lockstep;
/// every reachable failure is a typed error, never a panic. A
/// `CreateTable`'s columns move into the catalog's table, leaving the
/// op's empty: every caller has logged the op before applying it, and
/// reads no more than its kind afterwards.
pub(crate) fn apply_op(catalog: &mut Catalog, op: &mut LogOp) -> Result<(), EngineError> {
    match op {
        LogOp::CreateTable { name, schema, rows_per_page, columns } => {
            let rpp = usize::try_from(*rows_per_page)
                .map_err(|_| EngineError::Corrupt { detail: "absurd page geometry".into() })?;
            let table = Table::from_encoded_parts(
                name.clone(),
                schema.clone(),
                std::mem::take(columns),
                rpp,
            )?;
            catalog.add_table(table)?;
            Ok(())
        }
        LogOp::Insert { table, rows } => {
            let id = catalog
                .table_by_name(table)
                .ok_or_else(|| EngineError::UnknownTable(table.clone()))?;
            catalog.insert_rows(id, rows)
        }
        LogOp::CreateIndex { table, columns } => {
            let id = catalog
                .table_by_name(table)
                .ok_or_else(|| EngineError::UnknownTable(table.clone()))?;
            let cols = checked_attr_ids(catalog, id, columns)?;
            catalog.create_index(id, &cols);
            Ok(())
        }
        LogOp::DropIndex { table, columns } => {
            let id = catalog
                .table_by_name(table)
                .ok_or_else(|| EngineError::UnknownTable(table.clone()))?;
            let cols = checked_attr_ids(catalog, id, columns)?;
            catalog.drop_index(id, &cols);
            Ok(())
        }
        LogOp::CreateModel { name, stored, opts } => {
            let model = stored.instantiate()?;
            catalog.add_model_stored(name.clone(), model, *opts, Some(stored.clone()))?;
            Ok(())
        }
        LogOp::Retrain { name, stored, opts } => {
            let id = catalog
                .model_by_name(name)
                .ok_or_else(|| EngineError::UnknownModel(name.clone()))?;
            let model = stored.instantiate()?;
            catalog.retrain_model_stored(id, model, *opts, Some(stored.clone()))
        }
        LogOp::CleanShutdown => Ok(()),
        LogOp::Subscribe { id, sql } => {
            // Re-parse the verbatim query text against the replayed
            // catalog — the tables and models it references were logged
            // before it, so a clean prefix always resolves.
            let query = crate::sql::parse(sql, catalog)?;
            catalog.add_subscription(*id, sql.clone(), query)
        }
        LogOp::Unsubscribe { id } => catalog.remove_subscription(*id),
        LogOp::EpochBump { epoch } => {
            if *epoch <= catalog.epoch() {
                return Err(EngineError::Corrupt {
                    detail: format!(
                        "epoch bump to {epoch} does not exceed current epoch {}",
                        catalog.epoch()
                    ),
                });
            }
            catalog.set_epoch(*epoch);
            Ok(())
        }
        LogOp::Stamped { id, inner } => {
            match catalog.dedup().check(*id) {
                // Already applied (a retry raced a crash and both the
                // original and the retried record landed in the log, or
                // the snapshot already covers it): skip, exactly-once.
                DedupCheck::Replay(_) | DedupCheck::Evicted => Ok(()),
                DedupCheck::New => {
                    apply_op(catalog, inner)?;
                    let outcome = summarize_applied(catalog, inner);
                    catalog.dedup_mut().record(*id, outcome);
                    Ok(())
                }
            }
        }
    }
}

/// Builds the compact outcome summary recorded for a stamped mutation,
/// from the catalog state right after the inner op applied.
fn summarize_applied(catalog: &Catalog, inner: &LogOp) -> DedupOutcome {
    match inner {
        LogOp::Insert { table, rows } => DedupOutcome::Inserted {
            table: table.clone(),
            rows_inserted: rows.len() as u64,
            // Replay cannot re-derive (or re-deliver) subscription
            // matches; the live insert path overwrites these after
            // matching. A replayed ack reports zero counters, which is
            // truthful: the retry delivered nothing.
            subs_matched: 0,
            subs_index_pruned: 0,
        },
        LogOp::Subscribe { id, .. } => DedupOutcome::Subscribed { id: *id },
        LogOp::Unsubscribe { id } => DedupOutcome::Unsubscribed { id: *id },
        LogOp::CreateModel { name, .. } => {
            let (n_classes, degraded) = match catalog.model_by_name(name) {
                Some(id) => {
                    let e = catalog.model(id);
                    (e.model.n_classes() as u64, e.degraded.clone())
                }
                None => (0, None),
            };
            DedupOutcome::ModelCreated { name: name.clone(), n_classes, degraded }
        }
        _ => DedupOutcome::Applied,
    }
}

/// Bounds-checks logged column ids against the table schema — an
/// out-of-range id would panic inside `SecondaryIndex::build`.
fn checked_attr_ids(
    catalog: &Catalog,
    table_id: usize,
    columns: &[u16],
) -> Result<Vec<AttrId>, EngineError> {
    let n = catalog.table(table_id).table.schema().len();
    for &c in columns {
        if usize::from(c) >= n {
            return Err(EngineError::Corrupt {
                detail: format!("index column {c} out of range for {n} attributes"),
            });
        }
    }
    Ok(columns.iter().map(|&c| AttrId(c)).collect())
}

/// Rebuilds a catalog from a decoded snapshot, revalidating everything
/// (the decode only proved framing; this proves semantics).
pub(crate) fn build_catalog(
    state: SnapshotState,
    faults: Arc<FaultInjector>,
) -> Result<(Catalog, u64), EngineError> {
    let mut catalog = Catalog::with_faults(faults);
    for t in state.tables {
        let rpp = usize::try_from(t.rows_per_page)
            .map_err(|_| EngineError::Corrupt { detail: "absurd page geometry".into() })?;
        let table = Table::from_encoded_parts(t.name, t.schema, t.columns, rpp)?;
        let id = catalog.add_table(table)?;
        for ix in &t.indexes {
            let cols = checked_attr_ids(&catalog, id, ix)?;
            if cols.is_empty() {
                return Err(EngineError::Corrupt { detail: "empty index column set".into() });
            }
            catalog.create_index(id, &cols);
        }
    }
    for m in state.models {
        let model = m.stored.instantiate()?;
        catalog.add_model_stored(m.name, model, m.opts, Some(m.stored))?;
    }
    catalog.set_dedup(state.dedup);
    catalog.set_epoch(state.epoch);
    for (id, sql) in state.subscriptions {
        let query = crate::sql::parse(&sql, &catalog)?;
        catalog.add_subscription(id, sql, query)?;
    }
    catalog.clamp_next_subscription_id(state.next_sub_id);
    Ok((catalog, state.last_lsn))
}

/// Content of a segment that is being discarded wholesale.
fn whole_segment_drop(seg: &SegmentData) -> (u64, u64) {
    let frames = seg.records.len() as u64 + seg.dropped_frames;
    let bytes = seg.valid_len.saturating_sub(HEADER_LEN as u64) + seg.dropped_bytes;
    (frames, bytes)
}

/// Recovers the durability directory `dir`: returns the reconstructed
/// catalog, an open WAL writer positioned after the last kept record,
/// and a report of everything found along the way.
pub(crate) fn recover(
    dir: &Path,
    faults: Arc<FaultInjector>,
) -> Result<Recovered, EngineError> {
    std::fs::create_dir_all(dir)?;
    remove_stale_tmp(dir)?;
    let snapshots = list_snapshots(dir)?;
    let segments = list_segments(dir)?;
    let fresh = snapshots.is_empty() && segments.is_empty();

    let mut report = RecoveryReport::default();
    let note_corruption = |report: &mut RecoveryReport, detail: String| {
        if report.corruption.is_none() {
            report.corruption = Some(detail);
        }
    };

    // Newest snapshot that both checksums and rebuilds cleanly wins;
    // anything newer that fails is counted and skipped.
    let mut catalog: Option<Catalog> = None;
    let mut snap_lsn = 0u64;
    for (_, path) in &snapshots {
        match snapshot::load_snapshot(path).and_then(|s| build_catalog(s, Arc::clone(&faults))) {
            Ok((cat, lsn)) => {
                catalog = Some(cat);
                snap_lsn = lsn;
                break;
            }
            Err(e) => {
                report.snapshots_skipped += 1;
                note_corruption(&mut report, format!("snapshot {}: {e}", path.display()));
            }
        }
    }
    let mut catalog = catalog.unwrap_or_else(|| Catalog::with_faults(Arc::clone(&faults)));
    report.snapshot_lsn = snap_lsn;

    // The replay window starts at the last segment that can contain
    // record snap_lsn + 1; earlier segments are fully covered.
    let replay_from = segments.iter().rposition(|(lsn, _)| *lsn <= snap_lsn + 1);
    let mut halted = replay_from.is_none() && !segments.is_empty();
    if halted {
        note_corruption(
            &mut report,
            format!(
                "wal begins at lsn {} but snapshot covers only lsn {snap_lsn}",
                segments[0].0
            ),
        );
    }

    let mut last_applied = snap_lsn;
    let mut clean_tail = fresh;
    // Where the writer resumes: an existing segment truncated to its
    // kept prefix, or a brand-new segment when none survives.
    let mut writer_at: Option<(PathBuf, u64, u64)> = None; // (path, start_lsn, keep_len)

    for (i, (seg_start, path)) in segments.iter().enumerate() {
        if !halted && i < replay_from.unwrap_or(0) {
            continue; // fully covered by the snapshot
        }
        let mut seg = wal::read_segment(path, &faults)?;
        if halted {
            let (frames, bytes) = whole_segment_drop(&seg);
            report.records_dropped += frames;
            report.bytes_dropped += bytes;
            std::fs::remove_file(path)?;
            continue;
        }
        if !seg.header_valid || seg.start_lsn != *seg_start {
            note_corruption(
                &mut report,
                seg.corruption
                    .clone()
                    .unwrap_or_else(|| format!("segment header/name mismatch in {}", path.display())),
            );
            let (frames, bytes) = whole_segment_drop(&seg);
            report.records_dropped += frames;
            report.bytes_dropped += bytes;
            halted = true;
            std::fs::remove_file(path)?;
            continue;
        }
        if *seg_start > last_applied + 1 {
            note_corruption(
                &mut report,
                format!("lsn gap: segment starts at {seg_start}, expected {}", last_applied + 1),
            );
            let (frames, bytes) = whole_segment_drop(&seg);
            report.records_dropped += frames;
            report.bytes_dropped += bytes;
            halted = true;
            std::fs::remove_file(path)?;
            continue;
        }
        let mut keep_len = HEADER_LEN as u64;
        let mut stopped_at: Option<usize> = None;
        for (j, (lsn, op)) in seg.records.iter_mut().enumerate() {
            if *lsn <= last_applied {
                // Physically present but covered by the snapshot; keep
                // the bytes, skip the application.
                keep_len = seg.ends[j];
                clean_tail = matches!(op, LogOp::CleanShutdown);
                continue;
            }
            if *lsn != last_applied + 1 {
                note_corruption(
                    &mut report,
                    format!("lsn gap inside segment: record {lsn}, expected {}", last_applied + 1),
                );
                stopped_at = Some(j);
                break;
            }
            match apply_op(&mut catalog, op) {
                Ok(()) => {
                    last_applied = *lsn;
                    keep_len = seg.ends[j];
                    if matches!(op, LogOp::CleanShutdown) {
                        clean_tail = true;
                    } else {
                        clean_tail = false;
                        report.wal_records_replayed += 1;
                    }
                }
                Err(e) => {
                    note_corruption(
                        &mut report,
                        format!("record lsn {lsn} failed to apply: {e}"),
                    );
                    stopped_at = Some(j);
                    break;
                }
            }
        }
        if let Some(j) = stopped_at {
            report.records_dropped += (seg.records.len() - j) as u64 + seg.dropped_frames;
            report.bytes_dropped += seg.valid_len.saturating_sub(keep_len) + seg.dropped_bytes;
            halted = true;
        } else if let Some(c) = &seg.corruption {
            note_corruption(&mut report, c.clone());
            report.records_dropped += seg.dropped_frames;
            report.bytes_dropped += seg.dropped_bytes;
            halted = true;
        }
        writer_at = Some((path.clone(), *seg_start, keep_len));
    }

    let next_lsn = last_applied + 1;
    let wal = match writer_at {
        Some((path, start, keep_len)) => {
            WalWriter::open_append(&path, start, keep_len, Arc::clone(&faults))?
        }
        None => WalWriter::create(dir, next_lsn, Arc::clone(&faults))?,
    };
    report.clean_shutdown = clean_tail;
    Ok(Recovered { catalog, wal, next_lsn, report })
}
