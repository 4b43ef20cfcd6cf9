//! Write-ahead log segments: CRC-framed records, fsync'd appends, and
//! torn-tail-tolerant reads.
//!
//! On-disk layout of a segment file (`wal-<startlsn>.wal`):
//!
//! ```text
//! +----------------+-----------------+
//! | magic MPQWAL1\n | start LSN (u64) |   16-byte header
//! +----------------+-----------------+
//! | len u32 | crc32 u32 | payload ... |   repeated frames
//! +---------+-----------+-------------+
//! ```
//!
//! The payload of every frame is `LSN (u64)` followed by a [`LogOp`]
//! body; the CRC covers the whole payload. A reader accepts the longest
//! prefix of frames that parse and checksum cleanly — anything after the
//! first bad byte is untrusted, reported, and (by recovery) truncated
//! away before the segment is reused for appends.

use super::LogOp;
use crate::fault::FaultInjector;
use crate::EngineError;
use mpq_types::wire::{crc32, WireReader, WireWriter};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every WAL segment.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"MPQWAL1\n";
/// Segment header length: magic plus the starting LSN.
pub(crate) const HEADER_LEN: usize = 16;
/// Bytes an armed short-read fault shaves off the end of a segment.
const SHORT_READ_BYTES: usize = 5;

/// File name for the segment whose first record has `start_lsn`.
pub(crate) fn segment_file_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:020}.wal")
}

/// Parses a segment file name back to its starting LSN.
pub(crate) fn parse_segment_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".wal")?;
    if rest.len() != 20 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Serializes one record into its on-disk frame.
pub(crate) fn encode_frame(lsn: u64, op: &LogOp) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(lsn);
    op.encode(&mut w);
    let payload = w.into_bytes();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// An open WAL segment accepting appends.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    start_lsn: u64,
    /// Set after an append failed mid-frame; the tail is no longer known
    /// to be well-formed, so further appends are refused (a real disk
    /// that tore a write is not trusted either).
    dead: bool,
    faults: Arc<FaultInjector>,
}

impl WalWriter {
    /// Creates a fresh segment in `dir` starting at `start_lsn`, with
    /// its header written and fsync'd (file and directory).
    pub(crate) fn create(
        dir: &Path,
        start_lsn: u64,
        faults: Arc<FaultInjector>,
    ) -> Result<WalWriter, EngineError> {
        let path = dir.join(segment_file_name(start_lsn));
        let mut file = OpenOptions::new().write(true).create_new(true).open(&path)?;
        file.write_all(SEGMENT_MAGIC)?;
        file.write_all(&start_lsn.to_le_bytes())?;
        file.sync_all()?;
        File::open(dir)?.sync_all()?;
        Ok(WalWriter { file, path, start_lsn, dead: false, faults })
    }

    /// Reopens an existing segment for appends after recovery truncated
    /// it to `valid_len` bytes of verified content.
    pub(crate) fn open_append(
        path: &Path,
        start_lsn: u64,
        valid_len: u64,
        faults: Arc<FaultInjector>,
    ) -> Result<WalWriter, EngineError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_all()?;
        let mut file = file;
        use std::io::Seek as _;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(WalWriter { file, path: path.to_path_buf(), start_lsn, dead: false, faults })
    }

    /// First LSN of this segment.
    pub(crate) fn start_lsn(&self) -> u64 {
        self.start_lsn
    }

    /// Path of the segment file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs before returning success. Returns
    /// the byte length of the appended frame (the unit replication lag
    /// is accounted in).
    ///
    /// Honours armed WAL faults: a torn write persists only part of the
    /// frame, fails, and poisons the writer; a bit flip damages the
    /// payload after the CRC was computed and *succeeds* — the damage
    /// surfaces only at the next recovery.
    pub(crate) fn append(&mut self, lsn: u64, op: &LogOp) -> Result<u64, EngineError> {
        if self.dead {
            return Err(EngineError::Io {
                detail: "wal writer poisoned by an earlier failed append".to_string(),
            });
        }
        if self.faults.wal_enospc_armed() {
            // The disk refused the write before any byte landed: the
            // on-disk tail is exactly what it was, so the writer stays
            // trustworthy and later appends may succeed once space is
            // freed (the fault is disarmed).
            return Err(EngineError::Io {
                detail: "injected ENOSPC: no space left on device".to_string(),
            });
        }
        let mut frame = encode_frame(lsn, op);
        if self.faults.take_wal_fsync_fail() {
            // The frame was written but fsync reported failure. The
            // kernel may have already dropped the dirty pages (fsync
            // gate), so nothing about the tail can be trusted.
            self.file.write_all(&frame)?;
            self.dead = true;
            return Err(EngineError::Io { detail: "injected fsync failure".to_string() });
        }
        if self.faults.take_wal_torn_write() {
            let cut = (frame.len() / 2).max(1);
            self.file.write_all(&frame[..cut])?;
            self.file.sync_data()?;
            self.dead = true;
            return Err(EngineError::Io { detail: "injected torn wal write".to_string() });
        }
        if self.faults.take_wal_bit_flip() {
            let idx = 8 + (frame.len() - 8) / 2;
            frame[idx] ^= 0x04;
        }
        match self.file.write_all(&frame).and_then(|()| self.file.sync_data()) {
            Ok(()) => Ok(frame.len() as u64),
            Err(e) => {
                // How much of the frame reached disk is unknown.
                self.dead = true;
                Err(e.into())
            }
        }
    }
}

/// Everything a read pass learned about one segment.
#[derive(Debug)]
pub(crate) struct SegmentData {
    /// Starting LSN from the header (0 when the header itself was bad).
    pub start_lsn: u64,
    /// Records of the longest clean prefix, in log order.
    pub records: Vec<(u64, LogOp)>,
    /// Byte offset just past each record in `records` — `ends[i]` is a
    /// valid truncation point keeping records `0..=i`.
    pub ends: Vec<u64>,
    /// Byte length of that clean prefix (header included). The file can
    /// be truncated to this length and safely appended to.
    pub valid_len: u64,
    /// Description of the first corruption, if the segment has one.
    pub corruption: Option<String>,
    /// Frames discarded after the corruption point (best-effort count by
    /// walking length fields; a mangled length field ends the walk).
    pub dropped_frames: u64,
    /// Bytes discarded after the clean prefix.
    pub dropped_bytes: u64,
    /// False when the 16-byte header was missing or had a bad magic.
    pub header_valid: bool,
}

/// Total little-endian read: `None` instead of panicking on a short
/// slice. The recovery path must be panic-free by construction, not by
/// bounds-check arguments at each call site.
pub(crate) fn le_u32(bytes: &[u8], pos: usize) -> Option<u32> {
    bytes.get(pos..pos.checked_add(4)?).and_then(|s| s.try_into().ok()).map(u32::from_le_bytes)
}

/// Total little-endian read of a `u64`; see [`le_u32`].
pub(crate) fn le_u64(bytes: &[u8], pos: usize) -> Option<u64> {
    bytes.get(pos..pos.checked_add(8)?).and_then(|s| s.try_into().ok()).map(u64::from_le_bytes)
}

/// Walks frames from `pos` counting how many *look* framed (length
/// fields chain within bounds). A torn or garbage region stops the walk
/// and still counts once — something was there.
fn count_dropped_frames(bytes: &[u8], mut pos: usize) -> u64 {
    let mut frames = 0;
    while pos < bytes.len() {
        frames += 1;
        let Some(len) = le_u32(bytes, pos) else { break };
        match pos.checked_add(8 + len as usize) {
            Some(next) if next <= bytes.len() => pos = next,
            _ => break,
        }
    }
    frames
}

/// Reads a segment, accepting the longest clean prefix of frames.
///
/// I/O errors (the file vanishing mid-read) surface as `Err`; *content*
/// problems — bad magic, torn tail, CRC mismatch, undecodable record —
/// are not errors but facts about the segment, reported in the returned
/// [`SegmentData`].
pub(crate) fn read_segment(
    path: &Path,
    faults: &FaultInjector,
) -> Result<SegmentData, EngineError> {
    let mut bytes = std::fs::read(path)?;
    if faults.wal_short_read_armed() {
        let cut = bytes.len().saturating_sub(SHORT_READ_BYTES);
        bytes.truncate(cut);
    }
    let total = bytes.len() as u64;
    let header_lsn = if bytes.get(..8).is_some_and(|m| m == SEGMENT_MAGIC) {
        le_u64(&bytes, 8)
    } else {
        None
    };
    let Some(start_lsn) = header_lsn else {
        return Ok(SegmentData {
            start_lsn: 0,
            records: Vec::new(),
            ends: Vec::new(),
            valid_len: 0,
            corruption: Some(format!("bad segment header in {}", path.display())),
            dropped_frames: if bytes.len() > HEADER_LEN {
                count_dropped_frames(&bytes, HEADER_LEN)
            } else {
                0
            },
            dropped_bytes: total,
            header_valid: false,
        });
    };
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut pos = HEADER_LEN;
    let mut corruption = None;
    while pos < bytes.len() {
        let (Some(len), Some(crc)) = (le_u32(&bytes, pos), le_u32(&bytes, pos + 4)) else {
            corruption = Some(format!("torn frame header at byte {pos}"));
            break;
        };
        let len = len as usize;
        let Some(end) = pos.checked_add(8 + len) else {
            corruption = Some(format!("absurd frame length at byte {pos}"));
            break;
        };
        if end > bytes.len() {
            corruption = Some(format!("torn frame payload at byte {pos}"));
            break;
        }
        let payload = &bytes[pos + 8..end];
        if crc32(payload) != crc {
            corruption = Some(format!("crc mismatch at byte {pos}"));
            break;
        }
        let mut r = WireReader::new(payload);
        let parsed = (|| -> Result<(u64, LogOp), EngineError> {
            let lsn = r.get_u64()?;
            let op = LogOp::decode(&mut r)?;
            Ok((lsn, op))
        })();
        match parsed {
            Ok(rec) if r.is_exhausted() => {
                records.push(rec);
                ends.push(end as u64);
            }
            Ok(_) => {
                corruption = Some(format!("trailing bytes inside record at byte {pos}"));
                break;
            }
            Err(e) => {
                corruption = Some(format!("undecodable record at byte {pos}: {e}"));
                break;
            }
        }
        pos = end;
    }
    let valid_len = pos as u64;
    let dropped_frames =
        if corruption.is_some() { count_dropped_frames(&bytes, pos) } else { 0 };
    Ok(SegmentData {
        start_lsn,
        records,
        ends,
        valid_len,
        corruption,
        dropped_frames,
        dropped_bytes: total - valid_len,
        header_valid: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "mpq-wal-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).expect("create temp dir");
        d
    }

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(parse_segment_file_name(&segment_file_name(0)), Some(0));
        assert_eq!(parse_segment_file_name(&segment_file_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_segment_file_name("wal-12.wal"), None);
        assert_eq!(parse_segment_file_name("snap-00000000000000000001.snap"), None);
    }

    /// Captured from the tree before the shared byte kernels were
    /// rebuilt (PR 22: bytewise CRC, per-element `put_u16s`): one
    /// `Insert` record's on-disk frame. A log written then must replay
    /// now, and the reverse.
    const GOLDEN_INSERT_FRAME: &[u8] = b"*\x00\x00\x00\xbd\xb4\xdf5\x07\x00\x00\x00\x00\x00\x00\x00\x02\x01\x00\x00\x00t\x03\x00\x00\x00\x02\x00\x00\x00\x00\x00\x01\x00\x02\x00\x00\x00\x01\x00\x02\x00\x02\x00\x00\x00\xff\xff\x00\x00";

    #[test]
    fn insert_frame_bytes_are_unchanged() {
        let op = LogOp::Insert {
            table: "t".into(),
            rows: vec![vec![0, 1], vec![1, 2], vec![65535, 0]],
        };
        assert_eq!(encode_frame(7, &op), GOLDEN_INSERT_FRAME);
        // And a segment holding the old bytes reads back as the record.
        let dir = temp_dir();
        let path = dir.join(segment_file_name(7));
        let mut segment = SEGMENT_MAGIC.to_vec();
        segment.extend_from_slice(&7u64.to_le_bytes());
        segment.extend_from_slice(GOLDEN_INSERT_FRAME);
        std::fs::write(&path, &segment).unwrap();
        let seg = read_segment(&path, &FaultInjector::new()).unwrap();
        assert!(seg.corruption.is_none(), "{:?}", seg.corruption);
        assert_eq!(seg.records, vec![(7, op)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_and_read_back() {
        let dir = temp_dir();
        let faults = Arc::new(FaultInjector::new());
        let mut w = WalWriter::create(&dir, 1, Arc::clone(&faults)).unwrap();
        w.append(1, &LogOp::CreateIndex { table: "t".into(), columns: vec![0] }).unwrap();
        w.append(2, &LogOp::CleanShutdown).unwrap();
        let seg = read_segment(w.path(), &faults).unwrap();
        assert_eq!(seg.start_lsn, 1);
        assert_eq!(seg.records.len(), 2);
        assert_eq!(seg.records[1], (2, LogOp::CleanShutdown));
        assert!(seg.corruption.is_none());
        assert_eq!(seg.dropped_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_poisons_writer_and_reader_keeps_prefix() {
        let dir = temp_dir();
        let faults = Arc::new(FaultInjector::new());
        let mut w = WalWriter::create(&dir, 1, Arc::clone(&faults)).unwrap();
        w.append(1, &LogOp::CreateIndex { table: "t".into(), columns: vec![0] }).unwrap();
        faults.set_wal_torn_write(true);
        let err = w.append(2, &LogOp::CleanShutdown).unwrap_err();
        assert!(matches!(err, EngineError::Io { .. }));
        // Fault is one-shot but the writer stays dead.
        assert!(!faults.wal_torn_write_armed());
        assert!(matches!(
            w.append(3, &LogOp::CleanShutdown),
            Err(EngineError::Io { .. })
        ));
        let seg = read_segment(w.path(), &faults).unwrap();
        assert_eq!(seg.records.len(), 1);
        assert!(seg.corruption.is_some());
        assert!(seg.dropped_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_fails_typed_and_writer_survives() {
        let dir = temp_dir();
        let faults = Arc::new(FaultInjector::new());
        let mut w = WalWriter::create(&dir, 1, Arc::clone(&faults)).unwrap();
        w.append(1, &LogOp::CleanShutdown).unwrap();
        faults.set_wal_enospc(true);
        for lsn in [2, 3] {
            let err = w.append(lsn, &LogOp::CleanShutdown).unwrap_err();
            assert!(err.to_string().contains("no space left"), "got {err}");
        }
        // Space freed: the writer was never poisoned, appends resume.
        faults.set_wal_enospc(false);
        w.append(2, &LogOp::CleanShutdown).unwrap();
        let seg = read_segment(w.path(), &faults).unwrap();
        assert_eq!(seg.records.len(), 2);
        assert!(seg.corruption.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_failure_poisons_writer() {
        let dir = temp_dir();
        let faults = Arc::new(FaultInjector::new());
        let mut w = WalWriter::create(&dir, 1, Arc::clone(&faults)).unwrap();
        w.append(1, &LogOp::CleanShutdown).unwrap();
        faults.set_wal_fsync_fail(true);
        let err = w.append(2, &LogOp::CleanShutdown).unwrap_err();
        assert!(matches!(err, EngineError::Io { .. }));
        assert!(!faults.wal_fsync_fail_armed(), "one-shot consumed");
        // The unsynced tail is untrusted: the writer is dead.
        assert!(matches!(w.append(3, &LogOp::CleanShutdown), Err(EngineError::Io { .. })));
        // The record before the failed fsync is still readable.
        let seg = read_segment(w.path(), &faults).unwrap();
        assert_eq!(seg.records[0], (1, LogOp::CleanShutdown));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_succeeds_then_fails_crc_on_read() {
        let dir = temp_dir();
        let faults = Arc::new(FaultInjector::new());
        let mut w = WalWriter::create(&dir, 1, Arc::clone(&faults)).unwrap();
        faults.set_wal_bit_flip(true);
        w.append(1, &LogOp::CreateIndex { table: "t".into(), columns: vec![0] }).unwrap();
        w.append(2, &LogOp::CleanShutdown).unwrap();
        let seg = read_segment(w.path(), &faults).unwrap();
        assert!(seg.records.is_empty());
        assert!(seg.corruption.as_deref().unwrap_or("").contains("crc mismatch"));
        // The intact record after the flipped one is counted as dropped.
        assert_eq!(seg.dropped_frames, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_read_truncates_tail() {
        let dir = temp_dir();
        let faults = Arc::new(FaultInjector::new());
        let mut w = WalWriter::create(&dir, 1, Arc::clone(&faults)).unwrap();
        w.append(1, &LogOp::CleanShutdown).unwrap();
        faults.set_wal_short_read(true);
        let seg = read_segment(w.path(), &faults).unwrap();
        assert!(seg.records.is_empty());
        assert!(seg.corruption.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_file_reports_bad_header() {
        let dir = temp_dir();
        let path = dir.join(segment_file_name(1));
        std::fs::write(&path, b"definitely not a wal segment").unwrap();
        let seg = read_segment(&path, &FaultInjector::new()).unwrap();
        assert!(!seg.header_valid);
        assert!(seg.records.is_empty());
        assert_eq!(seg.valid_len, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
