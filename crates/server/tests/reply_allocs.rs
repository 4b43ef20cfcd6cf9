//! A deterministic regression gate on the wide-reply byte path: how many
//! allocations, and how many bytes, it takes to turn a query outcome of
//! 14k row ids into a frame and back. Timings drift with the machine;
//! these counts do not.
//!
//! The contract: a frame is built in *one* buffer (header reserved,
//! message encoded behind it, `len | crc` patched in) sized from the
//! outcome before anything is written, and decoding borrows the frame —
//! it allocates what the decoded value owns (the row-id `Vec`, the plan
//! `String`) and nothing else. Before this gate existed the payload
//! `Vec` grew by doubling from empty (13 reallocations for 56 KB) and
//! the finished payload was copied whole into a second `Vec` on each
//! side.
//!
//! The counting allocator is this binary's `#[global_allocator]`, which
//! is why the gate is a test binary of its own. Counters are per thread,
//! so the test harness's other threads cannot disturb them.

use mpq_engine::{ExecMetrics, MatchMetrics, QueryOutcome, StatementOutcome};
use mpq_server::protocol::{decode_frame, Notification, Response, DEFAULT_MAX_FRAME_LEN};
use mpq_types::wire::WireError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// (allocator calls that returned new memory, bytes they asked for)
    /// on this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = ALLOCATED.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees are this
// allocator's; the only addition is a thread-local counter update, which
// neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocator calls and bytes
/// it made on this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls0, bytes0) = ALLOCATED.with(Cell::get);
    let out = f();
    let (calls1, bytes1) = ALLOCATED.with(Cell::get);
    (out, calls1 - calls0, bytes1 - bytes0)
}

const ROWS: u32 = 14_000;
const PLAN: &str = "full scan of t: 916 pages, filter k1 IN (..) AND day BETWEEN 3 AND 9";

fn wide_outcome() -> Response {
    Response::Outcome(StatementOutcome::Query(QueryOutcome {
        rows: (0..ROWS).map(|i| 3 * i + 1).collect(),
        metrics: ExecMetrics { output_rows: ROWS as u64, ..ExecMetrics::default() },
        plan: PLAN.into(),
        plan_changed: false,
        cached_plan: true,
    }))
}

/// Building the frame: one allocation — the frame — of at most a few
/// hundred bytes more than the frame's length.
#[test]
fn a_wide_reply_is_framed_in_one_allocation() {
    const FRAME_ALLOCATIONS: u64 = 1;
    let resp = wide_outcome();
    let (frame, calls, bytes) = counting(|| resp.to_frame());
    assert!(frame.len() > 4 * ROWS as usize);
    assert_eq!(calls, FRAME_ALLOCATIONS, "allocator calls to build a {}-byte frame", frame.len());
    assert!(
        (bytes as f64) < 1.25 * frame.len() as f64,
        "{bytes} bytes allocated for a {}-byte frame",
        frame.len()
    );
}

/// Decoding it: the rows and the plan text, byte for byte; nothing the
/// size of the frame besides.
#[test]
fn a_wide_reply_decodes_into_its_rows_and_plan_only() {
    let resp = wide_outcome();
    let frame = resp.to_frame();
    let (decoded, calls, bytes) = counting(|| {
        let (payload, _) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).expect("intact frame");
        Response::decode(&payload).expect("intact payload")
    });
    assert_eq!(decoded, resp);
    assert_eq!(calls, 2, "one Vec of row ids, one String of plan text");
    assert_eq!(bytes, 4 * ROWS as u64 + PLAN.len() as u64);
}

/// A count the payload cannot hold is refused before anything is
/// allocated for it, in both bulk decoders.
#[test]
fn hostile_element_counts_allocate_nothing() {
    let mut payload = wide_outcome().encode();
    // Message tag, outcome tag, then the row count.
    payload[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
    let (got, calls, _) = counting(|| Response::decode(&payload));
    assert_eq!(got, Err(WireError::Truncated { at: 6 }));
    assert_eq!(calls, 0, "allocator calls for a refused row count");

    let mut payload = Response::Notify(Notification::Match {
        subscription: 1,
        table: String::new(),
        row_id: 2,
        row: vec![1, 2, 3],
        metrics: MatchMetrics::default(),
    })
    .encode();
    // Message tag, kind, subscription, empty table name, row id, then
    // the row's member count.
    let at = 1 + 1 + 8 + 4 + 4;
    payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let (got, calls, _) = counting(|| Response::decode(&payload));
    assert_eq!(got, Err(WireError::Truncated { at: at + 4 }));
    assert_eq!(calls, 0, "allocator calls for a refused member count");
}
