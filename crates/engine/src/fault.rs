//! Fault injection for robustness testing.
//!
//! A [`FaultInjector`] lets tests force the failure modes the engine is
//! supposed to absorb: index probes erroring out, scorers returning NaN
//! or panicking, and envelope derivation timing out or blowing the grid
//! limit. Every flag is off by default, so production paths pay one
//! relaxed atomic load per site and behave identically with the injector
//! left untouched.
//!
//! The injector is shared via `Arc` between the [`crate::Engine`], its
//! catalog, and the test harness, so tests can arm faults mid-session.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Sentinel for "no morsel targeted" in [`FaultInjector::scorer_panic_morsel`].
const NO_MORSEL: usize = usize::MAX;

/// Sentinel for "no page targeted" in [`FaultInjector::scorer_panic_page`].
const NO_PAGE: usize = usize::MAX;

/// Switchboard of injectable faults. All flags default to off.
///
/// Intended for tests; arming faults in production turns healthy queries
/// into fallbacks and typed errors.
#[derive(Debug)]
pub struct FaultInjector {
    index_probe_failure: AtomicBool,
    scorer_nan: AtomicBool,
    scorer_panic: AtomicBool,
    /// Morsel index whose worker should panic mid-scan; `NO_MORSEL`
    /// when disarmed.
    scorer_panic_morsel: AtomicUsize,
    /// Heap page whose scan should panic (pipeline at any degree of
    /// parallelism, and the reference); `NO_PAGE` when disarmed.
    scorer_panic_page: AtomicUsize,
    cascade_table_perturb: AtomicBool,
    derive_timeout: AtomicBool,
    derive_grid_too_large: AtomicBool,
    wal_torn_write: AtomicBool,
    wal_bit_flip: AtomicBool,
    wal_short_read: AtomicBool,
    wal_enospc: AtomicBool,
    wal_fsync_fail: AtomicBool,
    conn_drop_mid_response: AtomicBool,
    conn_torn_frame: AtomicBool,
    conn_slow_loris: AtomicBool,
    repl_drop_stream: AtomicBool,
    repl_stall: AtomicBool,
    repl_duplicate: AtomicBool,
    notify_overflow_pulse: AtomicBool,
    sub_index_corrupt: AtomicBool,
}

impl Default for FaultInjector {
    fn default() -> FaultInjector {
        FaultInjector {
            index_probe_failure: AtomicBool::new(false),
            scorer_nan: AtomicBool::new(false),
            scorer_panic: AtomicBool::new(false),
            scorer_panic_morsel: AtomicUsize::new(NO_MORSEL),
            scorer_panic_page: AtomicUsize::new(NO_PAGE),
            cascade_table_perturb: AtomicBool::new(false),
            derive_timeout: AtomicBool::new(false),
            derive_grid_too_large: AtomicBool::new(false),
            wal_torn_write: AtomicBool::new(false),
            wal_bit_flip: AtomicBool::new(false),
            wal_short_read: AtomicBool::new(false),
            wal_enospc: AtomicBool::new(false),
            wal_fsync_fail: AtomicBool::new(false),
            conn_drop_mid_response: AtomicBool::new(false),
            conn_torn_frame: AtomicBool::new(false),
            conn_slow_loris: AtomicBool::new(false),
            repl_drop_stream: AtomicBool::new(false),
            repl_stall: AtomicBool::new(false),
            repl_duplicate: AtomicBool::new(false),
            notify_overflow_pulse: AtomicBool::new(false),
            sub_index_corrupt: AtomicBool::new(false),
        }
    }
}

impl FaultInjector {
    /// A new injector with every fault disarmed.
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Arm/disarm failing index probes. Armed, every index lookup
    /// reports failure and the executor falls back to a full scan with
    /// the full residual predicate (sound: identical row set).
    pub fn set_index_probe_failure(&self, on: bool) {
        self.index_probe_failure.store(on, Ordering::Relaxed);
    }

    /// True when index probes should fail.
    pub fn index_probe_failure_armed(&self) -> bool {
        self.index_probe_failure.load(Ordering::Relaxed)
    }

    /// Arm/disarm scorers producing NaN. Armed, model application
    /// panics with a recognizable message, which the engine's
    /// `catch_unwind` entry point converts to
    /// [`crate::EngineError::Internal`].
    pub fn set_scorer_nan(&self, on: bool) {
        self.scorer_nan.store(on, Ordering::Relaxed);
    }

    /// True when scorers should produce NaN.
    pub fn scorer_nan_armed(&self) -> bool {
        self.scorer_nan.load(Ordering::Relaxed)
    }

    /// Arm/disarm scorer panics (distinct from NaN so tests can tell
    /// the two payloads apart).
    pub fn set_scorer_panic(&self, on: bool) {
        self.scorer_panic.store(on, Ordering::Relaxed);
    }

    /// True when scorers should panic.
    pub fn scorer_panic_armed(&self) -> bool {
        self.scorer_panic.load(Ordering::Relaxed)
    }

    /// Arm a scorer panic inside the worker that picks up morsel
    /// `morsel` of the next execution (`None` disarms). Unlike
    /// [`FaultInjector::set_scorer_panic`], which fails the first model
    /// invocation anywhere, this targets one specific partition so tests
    /// can prove a panic on a worker thread — not the coordinating
    /// thread — surfaces as a typed error. A dop-1 execution is a single
    /// morsel (index 0); the reference interpreter ignores this fault.
    pub fn set_scorer_panic_on_morsel(&self, morsel: Option<usize>) {
        self.scorer_panic_morsel.store(morsel.unwrap_or(NO_MORSEL), Ordering::Relaxed);
    }

    /// The morsel index armed to panic, if any.
    pub fn scorer_panic_morsel(&self) -> Option<usize> {
        let m = self.scorer_panic_morsel.load(Ordering::Relaxed);
        (m != NO_MORSEL).then_some(m)
    }

    /// Arm a scorer panic while scanning heap page `page` of the next
    /// execution (`None` disarms). Unlike the morsel-targeted fault —
    /// whose unit depends on the degree of parallelism — pages are the
    /// shared scan unit, so this fault fires on the same page under the
    /// pipeline at every dop and under the reference interpreter;
    /// fault-parity tests use it to prove they all name that page.
    pub fn set_scorer_panic_on_page(&self, page: Option<usize>) {
        self.scorer_panic_page.store(page.unwrap_or(NO_PAGE), Ordering::Relaxed);
    }

    /// The heap page armed to panic, if any.
    pub fn scorer_panic_page(&self) -> Option<usize> {
        let p = self.scorer_panic_page.load(Ordering::Relaxed);
        (p != NO_PAGE).then_some(p)
    }

    /// Arm/disarm proxy-table perturbation: when a query's cascade is
    /// set up, the stored proxy table is corrupted first (simulating a
    /// stale or bit-rotted table whose thresholds no longer match the
    /// model). The executor's pre-trust verification must detect the
    /// drift, skip the cascade for that model (sound scorer path), and
    /// record a typed health note — never return a wrong row set.
    /// Level-triggered: stays armed until disarmed.
    pub fn set_cascade_table_perturb(&self, on: bool) {
        self.cascade_table_perturb.store(on, Ordering::Relaxed);
    }

    /// True when cascade setup should perturb the stored proxy.
    pub fn cascade_table_perturb_armed(&self) -> bool {
        self.cascade_table_perturb.load(Ordering::Relaxed)
    }

    /// True when any fault that fires inside the model scorer is armed.
    /// Executors keep the real scorer path live in that case (no
    /// cascade short-circuit) so the armed fault has a target — the
    /// same reasoning that makes index faults fall back to full scans.
    pub fn any_scorer_fault_armed(&self) -> bool {
        self.scorer_nan_armed()
            || self.scorer_panic_armed()
            || self.scorer_panic_morsel().is_some()
            || self.scorer_panic_page().is_some()
    }

    /// Arm/disarm forced derivation timeouts. Armed, envelope
    /// derivation fails as if [`mpq_core::DeriveOptions::time_budget`]
    /// had elapsed; the catalog installs degraded `TRUE` envelopes.
    pub fn set_derive_timeout(&self, on: bool) {
        self.derive_timeout.store(on, Ordering::Relaxed);
    }

    /// True when derivation should time out.
    pub fn derive_timeout_armed(&self) -> bool {
        self.derive_timeout.load(Ordering::Relaxed)
    }

    /// Arm/disarm the grid-too-large derivation failure (the
    /// discretized attribute grid exceeding what top-down derivation
    /// will enumerate).
    pub fn set_derive_grid_too_large(&self, on: bool) {
        self.derive_grid_too_large.store(on, Ordering::Relaxed);
    }

    /// True when derivation should report a grid-too-large failure.
    pub fn derive_grid_too_large_armed(&self) -> bool {
        self.derive_grid_too_large.load(Ordering::Relaxed)
    }

    /// Arm a torn WAL write: the *next* WAL append persists only a
    /// prefix of the record's frame (simulating power loss mid-write),
    /// reports [`crate::EngineError::Io`], and poisons the writer —
    /// later appends fail too, as they would on a dead disk. One-shot:
    /// consumed by the append that honours it.
    pub fn set_wal_torn_write(&self, on: bool) {
        self.wal_torn_write.store(on, Ordering::Relaxed);
    }

    /// Consumes the torn-write arm (one-shot), returning whether it was
    /// set.
    pub fn take_wal_torn_write(&self) -> bool {
        self.wal_torn_write.swap(false, Ordering::Relaxed)
    }

    /// True when a torn write is armed (not yet consumed).
    pub fn wal_torn_write_armed(&self) -> bool {
        self.wal_torn_write.load(Ordering::Relaxed)
    }

    /// Arm a silent WAL bit flip: the *next* WAL append flips one bit of
    /// the record payload after the checksum is computed, writes the
    /// full frame, and reports success — the damage is only detectable
    /// by CRC at the next recovery. One-shot.
    pub fn set_wal_bit_flip(&self, on: bool) {
        self.wal_bit_flip.store(on, Ordering::Relaxed);
    }

    /// Consumes the bit-flip arm (one-shot), returning whether it was
    /// set.
    pub fn take_wal_bit_flip(&self) -> bool {
        self.wal_bit_flip.swap(false, Ordering::Relaxed)
    }

    /// True when a bit flip is armed (not yet consumed).
    pub fn wal_bit_flip_armed(&self) -> bool {
        self.wal_bit_flip.load(Ordering::Relaxed)
    }

    /// Arm/disarm short reads during recovery: every WAL segment reads
    /// back a few bytes shorter than its true length, as if the final
    /// write never fully reached the platter. Stays armed until
    /// disarmed (it models a property of the file, not of one access).
    pub fn set_wal_short_read(&self, on: bool) {
        self.wal_short_read.store(on, Ordering::Relaxed);
    }

    /// True when recovery reads should come up short.
    pub fn wal_short_read_armed(&self) -> bool {
        self.wal_short_read.load(Ordering::Relaxed)
    }

    /// Arm/disarm disk-full WAL appends: appends fail with a typed
    /// ENOSPC-style [`crate::EngineError::Io`] *before* any byte
    /// reaches the file, so the writer stays trustworthy — once the
    /// fault clears (space freed), appends succeed again. Level-
    /// triggered: it models a property of the disk, not of one write.
    pub fn set_wal_enospc(&self, on: bool) {
        self.wal_enospc.store(on, Ordering::Relaxed);
    }

    /// True when appends should fail as if the disk were full.
    pub fn wal_enospc_armed(&self) -> bool {
        self.wal_enospc.load(Ordering::Relaxed)
    }

    /// Arm an fsync failure: the *next* WAL append writes its frame but
    /// the following `fsync` reports an error. Per fsync-gate
    /// semantics, the kernel may have dropped the dirty pages — the
    /// tail is untrusted, so the writer goes dead (read-only-degraded)
    /// and every later append fails typed. One-shot: consumed by the
    /// append that honours it.
    pub fn set_wal_fsync_fail(&self, on: bool) {
        self.wal_fsync_fail.store(on, Ordering::Relaxed);
    }

    /// Consumes the fsync-failure arm (one-shot), returning whether it
    /// was set.
    pub fn take_wal_fsync_fail(&self) -> bool {
        self.wal_fsync_fail.swap(false, Ordering::Relaxed)
    }

    /// True when an fsync failure is armed (not yet consumed).
    pub fn wal_fsync_fail_armed(&self) -> bool {
        self.wal_fsync_fail.load(Ordering::Relaxed)
    }

    // -- connection-level faults (honoured by the wire-protocol server
    //    and client in the `mpq-server`/`mpq-client` crates) ----------

    /// Arm a mid-response connection drop: the server writes only a
    /// prefix of the *next* response frame, then severs the connection
    /// — as a crashed server or cut cable would. The client must see a
    /// typed transport error, never a panic or a half-parsed reply.
    /// One-shot: consumed by the response that honours it.
    pub fn set_conn_drop_mid_response(&self, on: bool) {
        self.conn_drop_mid_response.store(on, Ordering::Relaxed);
    }

    /// Consumes the mid-response-drop arm (one-shot), returning whether
    /// it was set.
    pub fn take_conn_drop_mid_response(&self) -> bool {
        self.conn_drop_mid_response.swap(false, Ordering::Relaxed)
    }

    /// True when a mid-response drop is armed (not yet consumed).
    pub fn conn_drop_mid_response_armed(&self) -> bool {
        self.conn_drop_mid_response.load(Ordering::Relaxed)
    }

    /// Arm a torn response frame: the server flips one payload byte of
    /// the *next* response after its CRC was computed and sends the
    /// full frame — the client's CRC check must reject it with a typed
    /// frame error. One-shot.
    pub fn set_conn_torn_frame(&self, on: bool) {
        self.conn_torn_frame.store(on, Ordering::Relaxed);
    }

    /// Consumes the torn-frame arm (one-shot), returning whether it was
    /// set.
    pub fn take_conn_torn_frame(&self) -> bool {
        self.conn_torn_frame.swap(false, Ordering::Relaxed)
    }

    /// True when a torn response frame is armed (not yet consumed).
    pub fn conn_torn_frame_armed(&self) -> bool {
        self.conn_torn_frame.load(Ordering::Relaxed)
    }

    /// Arm/disarm slow-loris request writes: an armed client trickles
    /// its request bytes one at a time with pauses, exercising the
    /// server's request read deadline (which must cut the connection
    /// with a typed protocol error instead of pinning a thread
    /// forever). Level-triggered: stays armed until disarmed.
    pub fn set_conn_slow_loris(&self, on: bool) {
        self.conn_slow_loris.store(on, Ordering::Relaxed);
    }

    /// True when clients should trickle their request bytes.
    pub fn conn_slow_loris_armed(&self) -> bool {
        self.conn_slow_loris.load(Ordering::Relaxed)
    }

    // -- replication faults (honoured by the WAL shipper in
    //    `mpq-server` and by replication tests) ----------------------

    /// Arm a replication-stream drop: the shipper severs its standby
    /// connection mid-segment, *after* sending a batch but *before*
    /// reading the ack — so on reconnect the same records are shipped
    /// again and the standby must deduplicate by LSN. One-shot:
    /// consumed by the send that honours it.
    pub fn set_repl_drop_stream(&self, on: bool) {
        self.repl_drop_stream.store(on, Ordering::Relaxed);
    }

    /// Consumes the stream-drop arm (one-shot), returning whether it
    /// was set.
    pub fn take_repl_drop_stream(&self) -> bool {
        self.repl_drop_stream.swap(false, Ordering::Relaxed)
    }

    /// True when a stream drop is armed (not yet consumed).
    pub fn repl_drop_stream_armed(&self) -> bool {
        self.repl_drop_stream.load(Ordering::Relaxed)
    }

    /// Arm/disarm a stalled standby: the shipper pauses each cycle
    /// instead of shipping, so replication lag grows while the primary
    /// keeps appending. Level-triggered: it models a slow or wedged
    /// peer, not one lost message.
    pub fn set_repl_stall(&self, on: bool) {
        self.repl_stall.store(on, Ordering::Relaxed);
    }

    /// True when the shipper should stall.
    pub fn repl_stall_armed(&self) -> bool {
        self.repl_stall.load(Ordering::Relaxed)
    }

    /// Arm a duplicate segment delivery: the shipper sends the *next*
    /// batch twice back-to-back; the standby must apply it exactly once
    /// (LSN-based replay idempotence). One-shot.
    pub fn set_repl_duplicate(&self, on: bool) {
        self.repl_duplicate.store(on, Ordering::Relaxed);
    }

    /// Consumes the duplicate-delivery arm (one-shot), returning
    /// whether it was set.
    pub fn take_repl_duplicate(&self) -> bool {
        self.repl_duplicate.swap(false, Ordering::Relaxed)
    }

    /// True when a duplicate delivery is armed (not yet consumed).
    pub fn repl_duplicate_armed(&self) -> bool {
        self.repl_duplicate.load(Ordering::Relaxed)
    }

    // -- subscription (pub/sub) faults --------------------------------

    /// Arm a notification-queue overflow pulse: the *next* time a
    /// session enqueues a push notification, the server treats its
    /// queue as full — the notification is dropped and a gap marker is
    /// recorded, exactly as a genuinely lagging subscriber would see.
    /// The write path is never blocked. One-shot: consumed by the
    /// enqueue that honours it.
    pub fn set_notify_overflow_pulse(&self, on: bool) {
        self.notify_overflow_pulse.store(on, Ordering::Relaxed);
    }

    /// Consumes the overflow-pulse arm (one-shot), returning whether it
    /// was set.
    pub fn take_notify_overflow_pulse(&self) -> bool {
        self.notify_overflow_pulse.swap(false, Ordering::Relaxed)
    }

    /// True when an overflow pulse is armed (not yet consumed).
    pub fn notify_overflow_pulse_armed(&self) -> bool {
        self.notify_overflow_pulse.load(Ordering::Relaxed)
    }

    /// Arm/disarm subscription-index corruption: the matcher distrusts
    /// its box-table guard and falls back to evaluating every
    /// registered subscription in full against each inserted row,
    /// recording a typed health note. Sound by construction — the index
    /// is only ever a necessary-condition filter, so the fallback
    /// delivers the identical notification set (just slower).
    /// Level-triggered: it models a corrupted structure, not one probe.
    pub fn set_sub_index_corrupt(&self, on: bool) {
        self.sub_index_corrupt.store(on, Ordering::Relaxed);
    }

    /// True when the subscription matcher should distrust its index.
    pub fn sub_index_corrupt_armed(&self) -> bool {
        self.sub_index_corrupt.load(Ordering::Relaxed)
    }

    /// Disarms every fault.
    pub fn reset(&self) {
        self.set_index_probe_failure(false);
        self.set_scorer_nan(false);
        self.set_scorer_panic(false);
        self.set_scorer_panic_on_morsel(None);
        self.set_scorer_panic_on_page(None);
        self.set_cascade_table_perturb(false);
        self.set_derive_timeout(false);
        self.set_derive_grid_too_large(false);
        self.set_wal_torn_write(false);
        self.set_wal_bit_flip(false);
        self.set_wal_short_read(false);
        self.set_wal_enospc(false);
        self.set_wal_fsync_fail(false);
        self.set_conn_drop_mid_response(false);
        self.set_conn_torn_frame(false);
        self.set_conn_slow_loris(false);
        self.set_repl_drop_stream(false);
        self.set_repl_stall(false);
        self.set_repl_duplicate(false);
        self.set_notify_overflow_pulse(false);
        self.set_sub_index_corrupt(false);
    }

    /// True when any fault is armed.
    pub fn any_armed(&self) -> bool {
        self.index_probe_failure_armed()
            || self.scorer_nan_armed()
            || self.scorer_panic_armed()
            || self.scorer_panic_morsel().is_some()
            || self.scorer_panic_page().is_some()
            || self.cascade_table_perturb_armed()
            || self.derive_timeout_armed()
            || self.derive_grid_too_large_armed()
            || self.wal_torn_write_armed()
            || self.wal_bit_flip_armed()
            || self.wal_short_read_armed()
            || self.wal_enospc_armed()
            || self.wal_fsync_fail_armed()
            || self.conn_drop_mid_response_armed()
            || self.conn_torn_frame_armed()
            || self.conn_slow_loris_armed()
            || self.repl_drop_stream_armed()
            || self.repl_stall_armed()
            || self.repl_duplicate_armed()
            || self.notify_overflow_pulse_armed()
            || self.sub_index_corrupt_armed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_off_and_reset_clears() {
        let f = FaultInjector::new();
        assert!(!f.any_armed());
        f.set_scorer_panic(true);
        f.set_derive_timeout(true);
        assert!(f.any_armed());
        assert!(f.scorer_panic_armed());
        assert!(f.derive_timeout_armed());
        assert!(!f.scorer_nan_armed());
        f.reset();
        assert!(!f.any_armed());
    }

    #[test]
    fn connection_faults_round_trip_and_one_shots_consume() {
        let f = FaultInjector::new();
        f.set_conn_drop_mid_response(true);
        f.set_conn_torn_frame(true);
        f.set_conn_slow_loris(true);
        assert!(f.any_armed());
        // One-shots consume; the level-triggered loris stays armed.
        assert!(f.take_conn_drop_mid_response());
        assert!(!f.take_conn_drop_mid_response());
        assert!(f.take_conn_torn_frame());
        assert!(!f.conn_torn_frame_armed());
        assert!(f.conn_slow_loris_armed());
        f.reset();
        assert!(!f.any_armed());
    }

    #[test]
    fn wal_disk_faults_round_trip() {
        let f = FaultInjector::new();
        f.set_wal_enospc(true);
        f.set_wal_fsync_fail(true);
        assert!(f.any_armed());
        // ENOSPC is level-triggered; fsync failure is one-shot.
        assert!(f.wal_enospc_armed());
        assert!(f.wal_enospc_armed());
        assert!(f.take_wal_fsync_fail());
        assert!(!f.take_wal_fsync_fail());
        f.reset();
        assert!(!f.any_armed());
    }

    #[test]
    fn replication_faults_round_trip_and_one_shots_consume() {
        let f = FaultInjector::new();
        f.set_repl_drop_stream(true);
        f.set_repl_stall(true);
        f.set_repl_duplicate(true);
        assert!(f.any_armed());
        // Drop and duplicate are one-shot; the stall is level-triggered.
        assert!(f.take_repl_drop_stream());
        assert!(!f.take_repl_drop_stream());
        assert!(f.take_repl_duplicate());
        assert!(!f.repl_duplicate_armed());
        assert!(f.repl_stall_armed());
        f.reset();
        assert!(!f.any_armed());
    }

    #[test]
    fn subscription_faults_round_trip_and_pulse_consumes() {
        let f = FaultInjector::new();
        f.set_notify_overflow_pulse(true);
        f.set_sub_index_corrupt(true);
        assert!(f.any_armed());
        // The overflow pulse is one-shot; index corruption is
        // level-triggered.
        assert!(f.take_notify_overflow_pulse());
        assert!(!f.take_notify_overflow_pulse());
        assert!(f.sub_index_corrupt_armed());
        assert!(f.sub_index_corrupt_armed());
        f.reset();
        assert!(!f.any_armed());
    }

    #[test]
    fn morsel_targeted_panic_round_trips() {
        let f = FaultInjector::new();
        assert_eq!(f.scorer_panic_morsel(), None);
        f.set_scorer_panic_on_morsel(Some(3));
        assert_eq!(f.scorer_panic_morsel(), Some(3));
        assert!(f.any_armed());
        f.set_scorer_panic_on_morsel(None);
        assert_eq!(f.scorer_panic_morsel(), None);
        f.set_scorer_panic_on_morsel(Some(0));
        f.reset();
        assert_eq!(f.scorer_panic_morsel(), None);
        assert!(!f.any_armed());
    }

    #[test]
    fn page_targeted_panic_round_trips() {
        let f = FaultInjector::new();
        assert_eq!(f.scorer_panic_page(), None);
        f.set_scorer_panic_on_page(Some(2));
        assert_eq!(f.scorer_panic_page(), Some(2));
        assert!(f.any_armed());
        f.set_scorer_panic_on_page(Some(0));
        assert_eq!(f.scorer_panic_page(), Some(0));
        f.reset();
        assert_eq!(f.scorer_panic_page(), None);
        assert!(!f.any_armed());
    }
}
