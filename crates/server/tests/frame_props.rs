//! Property tests for the wire framing: encode→decode is the identity
//! for arbitrary payloads, and every mangled input — truncated at any
//! byte, bit-flipped anywhere, or carrying a hostile length prefix —
//! fails with a *typed* error, never a panic and never a wrong payload.
//! The same discipline is checked for the replication layer: the
//! replication messages and the shipped WAL-frame stream they carry —
//! and, deterministically rather than sampled, for the two messages
//! that go through the bulk slice codecs: a query outcome's row ids
//! (up to a million) and a `Notify` match's row — and for the two
//! other messages with fixed counter tails, an `Inserted` outcome and
//! a health report.

use mpq_engine::{
    decode_stream, encode_stream, EngineHealth, ExecMetrics, LogOp, MatchMetrics, ModelHealth,
    QueryOutcome, ReplRole, StatementOutcome,
};
use mpq_server::protocol::{
    decode_frame, encode_frame, FrameError, Notification, Request, Response, ServerError,
    DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN,
};
use mpq_types::wire::WireError;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: any payload (including empty and multi-kilobyte)
    /// encodes to a frame that decodes back to exactly that payload,
    /// consuming exactly the frame's bytes — even with trailing garbage
    /// after it in the buffer.
    #[test]
    fn frame_roundtrip_identity(
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        trailing in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let frame = encode_frame(&payload);
        prop_assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());

        let (decoded, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
            .expect("intact frame decodes");
        prop_assert_eq!(&decoded, &payload);
        prop_assert_eq!(consumed, frame.len());

        // Trailing bytes (the start of the next frame) are untouched.
        let mut stream = frame.clone();
        stream.extend_from_slice(&trailing);
        let (decoded2, consumed2) = decode_frame(&stream, DEFAULT_MAX_FRAME_LEN)
            .expect("frame with trailing bytes decodes");
        prop_assert_eq!(&decoded2, &payload);
        prop_assert_eq!(consumed2, frame.len());
    }

    /// Every strict prefix of a frame is `Incomplete` — the incremental
    /// reader keeps waiting, it never misparses a torn frame.
    #[test]
    fn truncation_at_every_cut_is_incomplete(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let frame = encode_frame(&payload);
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut], DEFAULT_MAX_FRAME_LEN) {
                Err(FrameError::Incomplete { .. }) => {}
                other => prop_assert!(false, "cut at {}: got {:?}", cut, other),
            }
        }
    }

    /// A single flipped bit anywhere in the frame is detected: either
    /// the CRC catches it (`BadCrc`), or the flip landed in the length
    /// prefix, where it reads as a longer/shorter frame (`Incomplete`,
    /// a length refusal, or — if shorter — a CRC failure). Never `Ok`
    /// with the original payload's length but different bytes.
    #[test]
    fn bit_flips_never_yield_wrong_payloads(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = encode_frame(&payload);
        let mut mangled = frame.clone();
        let idx = (byte_pick % mangled.len() as u64) as usize;
        mangled[idx] ^= 1 << bit;

        match decode_frame(&mangled, DEFAULT_MAX_FRAME_LEN) {
            // A length-prefix flip could in principle carve out a
            // shorter frame that still CRCs (astronomically unlikely
            // for CRC-32); even then the decode must be internally
            // consistent, never a silent corruption of the original.
            Ok((decoded, _)) => {
                prop_assert_ne!(&decoded, &payload,
                    "flip at byte {} decoded as if nothing happened", idx);
                prop_assert_eq!(
                    mpq_types::wire::crc32(&decoded).to_le_bytes(),
                    [mangled[4], mangled[5], mangled[6], mangled[7]],
                );
            }
            Err(
                FrameError::BadCrc
                | FrameError::Incomplete { .. }
                | FrameError::TooLong { .. },
            ) => {}
        }
    }

    /// Hostile length prefixes are refused by the ceiling before any
    /// allocation happens.
    #[test]
    fn hostile_lengths_are_refused(claimed in (DEFAULT_MAX_FRAME_LEN as u64 + 1)..=u32::MAX as u64) {
        let mut frame = vec![0u8; FRAME_HEADER_LEN];
        frame[..4].copy_from_slice(&(claimed as u32).to_le_bytes());
        match decode_frame(&frame, DEFAULT_MAX_FRAME_LEN) {
            Err(FrameError::TooLong { len, max }) => {
                prop_assert_eq!(len, claimed);
                prop_assert_eq!(max, DEFAULT_MAX_FRAME_LEN as u64);
            }
            other => prop_assert!(false, "expected TooLong, got {:?}", other),
        }
    }

    /// Messages survive the full frame pipeline: request/response →
    /// payload → frame → bytes → frame → payload → message, identically.
    #[test]
    fn messages_roundtrip_through_frames(
        sql_bytes in proptest::collection::vec(0x20u8..0x7f, 0..200),
        session_id in any::<u64>(),
        stamped in any::<bool>(),
        nonce in any::<u64>(),
        seq in any::<u64>(),
    ) {
        let sql: String = sql_bytes.iter().map(|&b| b as char).collect();
        let req = Request::Statement {
            sql: sql.clone(),
            stmt_id: stamped.then_some(mpq_engine::StatementId { nonce, seq }),
        };
        // The one-buffer encoder emits the bytes of the two-step one.
        let frame = req.to_frame();
        prop_assert_eq!(&frame, &encode_frame(&req.encode()));
        let (payload, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(consumed, FRAME_HEADER_LEN + payload.len());
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);

        let resp = Response::Hello {
            proto_version: 1,
            session_id,
            server: sql,
        };
        let frame = resp.to_frame();
        prop_assert_eq!(&frame, &encode_frame(&resp.encode()));
        let (payload, _) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    /// Arbitrary bytes thrown at the message decoders produce typed
    /// errors or a legitimate message — never a panic. (The server
    /// feeds CRC-validated payloads to these; this checks the decoders
    /// are total anyway.)
    #[test]
    fn decoders_are_total(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&junk);
        let _ = Response::decode(&junk);
    }

    /// Replication messages survive the frame pipeline: `ReplAppend`
    /// carries its frame bytes verbatim (the standby CRC-checks each
    /// inner WAL frame itself), acks and state reports round-trip.
    #[test]
    fn replication_messages_roundtrip(
        epoch in any::<u64>(),
        frames in proptest::collection::vec(any::<u8>(), 0..2048),
        next_lsn in any::<u64>(),
        standby in any::<bool>(),
    ) {
        let role = if standby { ReplRole::Standby } else { ReplRole::Primary };
        for req in [
            Request::ReplState,
            Request::ReplAppend { epoch, frames: frames.clone() },
            Request::ReplSnapshot { snapshot: frames.clone() },
            Request::Promote,
        ] {
            let frame = req.to_frame();
            prop_assert_eq!(&frame, &encode_frame(&req.encode()));
            let (payload, _) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
            prop_assert_eq!(Request::decode(&payload).unwrap(), req);
        }
        for resp in [
            Response::ReplState { role, epoch, next_lsn },
            Response::ReplAck { next_lsn, epoch },
        ] {
            let frame = resp.to_frame();
            let (payload, _) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
            prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
        }
    }

    /// The replication *stream* (concatenated WAL frames inside a
    /// `ReplAppend`) decodes strictly: any single bit flip anywhere in
    /// an encoded stream is a typed `Corrupt` error — never a panic,
    /// never silently different records.
    #[test]
    fn replication_stream_bit_flips_fail_typed(
        lsns in proptest::collection::vec(1u64..1_000_000, 1..5),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let records: Vec<(u64, LogOp)> = lsns
            .iter()
            .map(|&lsn| (lsn, LogOp::CreateIndex { table: format!("t{lsn}"), columns: vec![0] }))
            .collect();
        let bytes = encode_stream(&records);
        prop_assert_eq!(decode_stream(&bytes).unwrap(), records.clone());
        let mut evil = bytes.clone();
        let idx = (byte_pick % evil.len() as u64) as usize;
        evil[idx] ^= 1 << bit;
        match decode_stream(&evil) {
            Err(mpq_engine::EngineError::Corrupt { .. }) => {}
            other => prop_assert!(false, "flip at byte {}: got {:?}", idx, other),
        }
    }

    /// Truncating the stream mid-frame is `Corrupt`; truncating exactly
    /// at a frame boundary is a legal shorter stream that decodes to
    /// that prefix of the records (the stream has no record count — a
    /// shipper may legitimately send fewer frames).
    #[test]
    fn replication_stream_truncation_is_typed_or_a_clean_prefix(
        lsns in proptest::collection::vec(1u64..1_000_000, 1..4),
        cut_pick in any::<u64>(),
    ) {
        let records: Vec<(u64, LogOp)> = lsns
            .iter()
            .map(|&lsn| (lsn, LogOp::CreateIndex { table: "t".into(), columns: vec![0, 1] }))
            .collect();
        let bytes = encode_stream(&records);
        let mut boundaries = vec![0usize];
        for r in &records {
            let end = boundaries.last().unwrap() + encode_stream(std::slice::from_ref(r)).len();
            boundaries.push(end);
        }
        let cut = (cut_pick % bytes.len() as u64) as usize;
        match decode_stream(&bytes[..cut]) {
            Ok(prefix) => {
                let i = boundaries.iter().position(|&b| b == cut);
                prop_assert_eq!(Some(prefix.len()), i, "cut {} is not a boundary", cut);
                prop_assert_eq!(&prefix[..], &records[..prefix.len()]);
            }
            Err(mpq_engine::EngineError::Corrupt { .. }) => {
                prop_assert!(!boundaries.contains(&cut), "clean prefix at {} rejected", cut);
            }
            Err(e) => prop_assert!(false, "cut {}: wrong error {:?}", cut, e),
        }
    }

    /// A hostile length prefix inside the stream is refused before any
    /// allocation or out-of-bounds read.
    #[test]
    fn replication_stream_hostile_length_fails_typed(
        lsn in 1u64..1_000_000,
        hostile in (1u32 << 24)..=u32::MAX,
    ) {
        let mut bytes = encode_stream(&[(lsn, LogOp::EpochBump { epoch: 1 })]);
        bytes[0..4].copy_from_slice(&hostile.to_le_bytes());
        prop_assert!(matches!(
            decode_stream(&bytes),
            Err(mpq_engine::EngineError::Corrupt { .. })
        ));
    }
}

/// A truncated *payload* (valid frame around garbage-cut message bytes)
/// is a typed decode error on both message types, at every cut.
#[test]
fn truncated_messages_fail_typed() {
    let req = Request::Hello { proto_version: 1, client: "c".into() };
    let resp = Response::Error(ServerError::Protocol { detail: "x".into() });
    let (req_bytes, resp_bytes) = (req.encode(), resp.encode());
    for cut in 0..req_bytes.len() {
        assert!(Request::decode(&req_bytes[..cut]).is_err(), "request cut {cut}");
    }
    for cut in 0..resp_bytes.len() {
        assert!(Response::decode(&resp_bytes[..cut]).is_err(), "response cut {cut}");
    }
}

// ---------------------------------------------------------------------
// The bulk-codec messages: wide query outcomes and Notify rows
// ---------------------------------------------------------------------

fn outcome(n_rows: u32) -> Response {
    Response::Outcome(StatementOutcome::Query(QueryOutcome {
        // Not a run: every byte of a row id takes part somewhere.
        rows: (0..n_rows).map(|i| i.wrapping_mul(2_654_435_761)).collect(),
        metrics: ExecMetrics { rows_examined: 3 * n_rows as u64, ..ExecMetrics::default() },
        plan: "full scan of t".into(),
        plan_changed: false,
        cached_plan: true,
    }))
}

fn notify_match() -> Response {
    Response::Notify(Notification::Match {
        subscription: 12,
        table: "t".into(),
        row_id: 41,
        row: vec![0, 3, 1, 65_535, 7, 200],
        metrics: MatchMetrics { index_pruned: 98, residual_evaluated: 2, scorer_banded: 1 },
    })
}

#[test]
fn outcomes_roundtrip_from_no_rows_to_a_million() {
    for n_rows in [0, 1, 14_000, 1_000_000] {
        let resp = outcome(n_rows);
        let frame = resp.to_frame();
        assert_eq!(frame, encode_frame(&resp.encode()), "{n_rows} rows: one encoding");
        let (payload, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(Response::decode(&payload).unwrap(), resp, "{n_rows} rows");
    }
}

/// Every strict prefix of the frame is `Incomplete`; every strict
/// prefix of the payload inside an intact frame is a typed `WireError`.
fn assert_prefixes_fail_typed(resp: &Response) {
    let frame = resp.to_frame();
    for cut in 0..frame.len() {
        match decode_frame(&frame[..cut], DEFAULT_MAX_FRAME_LEN) {
            Err(FrameError::Incomplete { needed }) => {
                assert_eq!(needed, (cut >= FRAME_HEADER_LEN).then_some(frame.len()), "cut {cut}");
            }
            other => panic!("frame cut at {cut}: {other:?}"),
        }
    }
    let payload = &frame[FRAME_HEADER_LEN..];
    for cut in 0..payload.len() {
        match Response::decode(&payload[..cut]) {
            Ok(_) => panic!("payload cut at {cut} decoded"),
            Err(WireError::Truncated { .. } | WireError::Invalid { .. }) => {}
        }
    }
}

#[test]
fn every_prefix_of_a_wide_outcome_fails_typed() {
    assert_prefixes_fail_typed(&outcome(14_000));
}

#[test]
fn every_prefix_of_a_notify_match_fails_typed() {
    assert_prefixes_fail_typed(&notify_match());
}

/// The counter tails of an `Inserted` outcome and of a health report
/// are part of the one shape: a payload cut where an older protocol
/// version's message ended is a truncation like any other.
#[test]
fn every_prefix_of_an_insert_and_a_health_report_fails_typed() {
    assert_prefixes_fail_typed(&Response::Outcome(StatementOutcome::Inserted {
        table: "t".into(),
        rows_inserted: 3,
        subs_matched: 7,
        subs_index_pruned: 1_893,
    }));
    let model = |name: &str, cascade_note: Option<&str>| ModelHealth {
        name: name.into(),
        version: 2,
        degraded: None,
        n_envelopes: 4,
        exact_envelopes: 3,
        cascade_note: cascade_note.map(Into::into),
    };
    assert_prefixes_fail_typed(&Response::Health(EngineHealth {
        models: vec![model("m1", Some("cascade disabled")), model("m2", None)],
        tables: 2,
        cached_plans: 5,
        recovery: None,
        role: ReplRole::Standby,
        epoch: 3,
        replica_lag_records: Some(4),
        replica_lag_bytes: None,
        subscriptions: 6,
        sub_index_note: None,
    }));
}

/// Flipping `bit` of `frame[idx]` must never decode: a flip in the CRC
/// or the payload is `BadCrc`; a flip in the length prefix reads as a
/// longer frame (`Incomplete`, `TooLong`) or a shorter one whose CRC
/// then fails.
fn assert_flip_is_caught(frame: &mut [u8], idx: usize, bit: usize) {
    frame[idx] ^= 1 << bit;
    match decode_frame(frame, DEFAULT_MAX_FRAME_LEN) {
        Err(FrameError::BadCrc) => {}
        Err(FrameError::Incomplete { .. } | FrameError::TooLong { .. }) if idx < 4 => {}
        other => panic!("flip of bit {bit} in byte {idx}: {:?}", other.map(|(p, n)| (p.len(), n))),
    }
    frame[idx] ^= 1 << bit;
}

#[test]
fn any_single_bit_flip_is_caught_by_the_crc() {
    // Exhaustively on frames short enough to afford it ...
    for mut frame in [outcome(100).to_frame(), notify_match().to_frame()]
    {
        for idx in 0..frame.len() {
            for bit in 0..8 {
                assert_flip_is_caught(&mut frame, idx, bit);
            }
        }
    }
    // ... and on the wide frame: all of the header, both ends of the
    // payload, and a stride through the row ids that visits every
    // position within a sixteen-byte CRC block (977 = 61 x 16 + 1).
    let mut frame = outcome(14_000).to_frame();
    let ends = (0..32).chain(frame.len() - 32..frame.len());
    for idx in ends.chain((32..frame.len() - 32).step_by(977)) {
        for bit in 0..8 {
            assert_flip_is_caught(&mut frame, idx, bit);
        }
    }
}

/// A count that the payload cannot hold is refused by the length check
/// — `Truncated`, with nothing allocated for the count (a 16 GiB
/// allocation would not survive to report anything; `reply_allocs.rs`
/// counts the allocations: none).
#[test]
fn hostile_element_counts_fail_before_allocation() {
    // Outcome: message tag, outcome tag, then the row count.
    let mut payload = outcome(14_000).encode();
    let honest = u32::from_le_bytes(payload[2..6].try_into().unwrap());
    assert_eq!(honest, 14_000);
    for claimed in [honest + 100, 1 << 30, u32::MAX] {
        payload[2..6].copy_from_slice(&claimed.to_le_bytes());
        // Inside a frame whose CRC is *right*: the frame layer cannot
        // help, the message decoder must refuse on its own.
        let frame = encode_frame(&payload);
        let (intact, _) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(Response::decode(&intact), Err(WireError::Truncated { at: 6 }), "x{claimed}");
    }
    // Notify: message tag, kind, subscription, table, row id, then the
    // row's member count.
    let mut payload = notify_match().encode();
    let at = 1 + 1 + 8 + (4 + 1) + 4;
    assert_eq!(u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()), 6);
    for claimed in [19u32, 1 << 31, u32::MAX] {
        payload[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::Truncated { at: at + 4 }),
            "x{claimed}"
        );
    }
}
