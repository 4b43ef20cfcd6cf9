//! The measured window: closed loops, tracing off. Each load-generating
//! thread owns one session (in-process) or one connection (TCP), warms
//! up by running every distinct statement twice and then its closed loop
//! for a tenth of the window's length, waits at a barrier, then issues
//! statements back-to-back until the window ends, timing each and
//! checking its row count against the gate's.

use crate::env;
use crate::gen::{self, Inputs};
use crate::system::{self, Spec, System};
use mpq_client::{Client, ClientError, Notification};
use mpq_engine::{Engine, SessionState, StatementOutcome};
use mpq_server::ServerError;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Share of the window's length every thread spends in its closed loop
/// before timing starts: a process that has just been started, or has
/// just sat in set-up, runs at about half speed for a second here.
const WARM_UP_SHARE: u32 = 10;

/// Outcomes of one kind of statement over one window.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    /// Latency (ns, saturating at 4.29 s) of every statement that
    /// succeeded with the right row count; ascending once the window
    /// is over. Four bytes a sample: the benchmark's own buffers must
    /// stay small next to the `peak_rss_mb` they are measured in.
    pub latencies_ns: Vec<u32>,
    pub attempted: u64,
    /// Errors, refusals and wrong row counts.
    pub failed: u64,
    /// The part of `failed` that admission control refused.
    pub refused: u64,
    pub first_failure: Option<String>,
}

impl Sample {
    pub fn completed(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    fn succeed(&mut self, latency: Duration) {
        self.latencies_ns
            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    fn absorb(&mut self, other: Sample) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Subscription traffic since the subscriptions were registered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// INSERT statements acknowledged.
    pub acked_inserts: u64,
    /// Sum of `subs_matched` over their outcomes.
    pub matched: u64,
    /// `Notify` match frames the reader received.
    pub delivered: u64,
    /// Gap markers received, and the matches they stand for.
    pub gaps: u64,
    pub gap_dropped: u64,
}

impl Ledger {
    /// Every match an acknowledged INSERT produced must reach the
    /// subscriber as a frame or be covered by a gap marker.
    pub fn check(&self) -> Result<(), String> {
        if self.matched == self.delivered + self.gap_dropped {
            Ok(())
        } else {
            Err(format!(
                "notification ledger: inserts reported {} matches, reader received {} + {} \
                 covered by {} gap markers",
                self.matched, self.delivered, self.gap_dropped, self.gaps
            ))
        }
    }
}

#[derive(Debug)]
enum Failure {
    Refused(String),
    Error(String),
}

fn classify(e: ClientError) -> Failure {
    match e {
        ClientError::Remote(ServerError::Busy { .. } | ServerError::QueueTimeout { .. }) => {
            Failure::Refused(e.to_string())
        }
        e => Failure::Error(e.to_string()),
    }
}

/// Where a load-generating thread sends its statements.
pub enum Channel<'e> {
    InProcess {
        engine: &'e Engine,
        session: SessionState,
    },
    Wire(Client),
}

impl<'e> Channel<'e> {
    pub fn open(system: &'e System, spec: &Spec) -> Result<Channel<'e>, String> {
        if spec.over_wire {
            system::connect(system.addr, spec.dop).map(Channel::Wire)
        } else {
            let mut session = SessionState::new();
            session.set_parallelism(spec.dop);
            Ok(Channel::InProcess {
                engine: &system.engine,
                session,
            })
        }
    }

    /// Runs a query and returns how many rows came back.
    fn query_rows(&mut self, sql: &str) -> Result<usize, Failure> {
        match self {
            Channel::InProcess { engine, session } => engine
                .query_in(sql, session)
                .map(|out| out.rows.len())
                .map_err(|e| Failure::Error(e.to_string())),
            Channel::Wire(client) => client
                .query(sql)
                .map(|out| out.rows.len())
                .map_err(classify),
        }
    }

    /// Files every notification already pushed to this connection.
    fn drain_notifications(&mut self, ledger: &mut Ledger) -> Result<(), String> {
        let Channel::Wire(client) = self else {
            return Ok(());
        };
        while let Some(n) = client
            .poll_notification()
            .map_err(|e| format!("poll: {e}"))?
        {
            match n {
                Notification::Match { .. } => ledger.delivered += 1,
                Notification::Gap { dropped } => {
                    ledger.gaps += 1;
                    ledger.gap_dropped += dropped;
                }
            }
        }
        Ok(())
    }

    pub fn close(self) {
        if let Channel::Wire(client) = self {
            let _ = client.goodbye();
        }
    }
}

/// Times one query and files it: a success must also return the row
/// count the gate established.
fn run_query(ch: &mut Channel, sql: &str, expected_rows: usize, sample: &mut Sample) {
    sample.attempted += 1;
    let t0 = Instant::now();
    let result = ch.query_rows(sql);
    let latency = t0.elapsed();
    match result {
        Ok(rows) if rows == expected_rows => sample.succeed(latency),
        Ok(rows) => sample.fail(format!("{rows} rows, expected {expected_rows}: {sql}")),
        Err(Failure::Refused(why)) => {
            sample.refused += 1;
            sample.fail(why);
        }
        Err(Failure::Error(why)) => sample.fail(format!("{why}: {sql}")),
    }
}

struct QueryThread<'e> {
    channel: Channel<'e>,
    sample: Sample,
    ledger: Ledger,
    end: Instant,
}

/// One query thread: warm-up, barrier, then the closed loop. `start`
/// is where in the seeded order this thread begins, so two connections
/// do not issue the same statement at the same time.
fn query_thread<'e>(
    mut channel: Channel<'e>,
    inputs: &Inputs,
    expected: &[usize],
    start: usize,
    barrier: &Barrier,
    window: Duration,
) -> Result<QueryThread<'e>, String> {
    let mut ledger = Ledger::default();
    let mut warm = Sample::default();
    let warm_until = Instant::now() + window / WARM_UP_SHARE;
    for _ in 0..2 {
        for (sql, &rows) in inputs.pool.iter().zip(expected) {
            run_query(&mut channel, sql, rows, &mut warm);
        }
    }
    // The closed loop: on through the seeded order until `until`.
    let mut i = start;
    let mut closed_loop = |until: Instant, sample: &mut Sample, ledger: &mut Ledger| {
        while Instant::now() < until {
            let idx = inputs.sequence[i % inputs.sequence.len()] as usize;
            run_query(&mut channel, &inputs.pool[idx], expected[idx], sample);
            channel.drain_notifications(ledger)?;
            i += 1;
        }
        Ok::<(), String>(())
    };
    let warmed = closed_loop(warm_until, &mut warm, &mut ledger);

    // Reached even after a failed warm-up: the other threads and the
    // coordinator are waiting here.
    barrier.wait();
    if let Some(why) = warm.first_failure {
        return Err(format!("warm-up: {why}"));
    }
    warmed?;
    let mut sample = Sample::default();
    closed_loop(Instant::now() + window, &mut sample, &mut ledger)?;
    Ok(QueryThread {
        channel,
        sample,
        ledger,
        end: Instant::now(),
    })
}

struct WriteThread {
    client: Client,
    sample: Sample,
    ledger: Ledger,
    end: Instant,
}

fn run_insert(client: &mut Client, sql: &str, sample: &mut Sample, ledger: &mut Ledger) {
    sample.attempted += 1;
    let t0 = Instant::now();
    let result = client.statement(sql);
    let latency = t0.elapsed();
    match result {
        Ok(StatementOutcome::Inserted {
            rows_inserted,
            subs_matched,
            ..
        }) => {
            // Acknowledged: the rows are in whatever the count says.
            ledger.acked_inserts += 1;
            ledger.matched += subs_matched;
            if rows_inserted == gen::ROWS_PER_INSERT as u64 {
                sample.succeed(latency);
            } else {
                sample.fail(format!("INSERT acknowledged {rows_inserted} rows"));
            }
        }
        Ok(other) => sample.fail(format!("INSERT answered {other:?}")),
        Err(e) => match classify(e) {
            Failure::Refused(why) => {
                sample.refused += 1;
                sample.fail(why);
            }
            Failure::Error(why) => sample.fail(why),
        },
    }
}

fn write_thread(
    mut client: Client,
    inputs: &Inputs,
    barrier: &Barrier,
    window: Duration,
) -> Result<WriteThread, String> {
    let mut ledger = Ledger::default();
    let mut warm = Sample::default();
    // The first insert after the subscriptions were registered builds
    // the inverted index.
    let warm_until = Instant::now() + window / WARM_UP_SHARE;
    let mut i = 0;
    while (i == 0 || Instant::now() < warm_until) && warm.failed == 0 {
        let sql = &inputs.inserts[i % inputs.inserts.len()];
        run_insert(&mut client, sql, &mut warm, &mut ledger);
        i += 1;
    }
    let mut sample = Sample::default();
    barrier.wait();
    if let Some(why) = warm.first_failure {
        return Err(format!("warm-up: {why}"));
    }
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let sql = &inputs.inserts[i % inputs.inserts.len()];
        run_insert(&mut client, sql, &mut sample, &mut ledger);
        i += 1;
    }
    Ok(WriteThread {
        client,
        sample,
        ledger,
        end: Instant::now(),
    })
}

/// What one window measured.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Barrier release to the last thread's last statement.
    pub elapsed_s: f64,
    pub queries: Sample,
    pub writes: Sample,
    pub ledger: Ledger,
    /// Growth of the data directory over the window (durable only).
    pub stored_bytes: u64,
    /// Process CPU (user + system: engine, server threads and load
    /// generator alike, as they share a process) over `elapsed_s`.
    pub cpu_ms: f64,
    /// `VmHWM` when the last thread finished, before any of the
    /// benchmark's own post-processing allocates.
    pub peak_rss_mb: f64,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.queries.attempted + self.writes.attempted
    }

    pub fn failed(&self) -> u64 {
        self.queries.failed + self.writes.failed
    }

    pub fn completed(&self) -> u64 {
        self.queries.completed() + self.writes.completed()
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.queries
            .first_failure
            .as_deref()
            .or(self.writes.first_failure.as_deref())
    }
}

/// Runs warm-up and one measured window with `connections` of the
/// workload's connections (its own count, except in the scaling legs of
/// the traced run). On `mixed_rw` the first connection is the reader
/// that set-up subscribed and the second is the writer.
pub fn run(
    system: &mut System,
    spec: &Spec,
    inputs: &Inputs,
    expected: &[usize],
    connections: usize,
    window: Duration,
) -> Result<Window, String> {
    if env::nproc() < connections {
        return Err(format!(
            "{}: needs {connections} load-generating threads, this machine has {} cores",
            spec.name,
            env::nproc()
        ));
    }
    let has_writer = !inputs.inserts.is_empty();
    let reader = system.reader.take();
    let system = &*system;
    let n_query_threads = if has_writer { 1 } else { connections };
    let barrier = Barrier::new(connections + 1);
    let offset_step = inputs.sequence.len() / connections.max(1);

    let mut channels = Vec::with_capacity(n_query_threads);
    match reader {
        Some(reader) => channels.push(Channel::Wire(reader)),
        None => {
            for _ in 0..n_query_threads {
                channels.push(Channel::open(system, spec)?);
            }
        }
    }
    let writer = if has_writer {
        Some(system::connect(system.addr, spec.dop)?)
    } else {
        None
    };
    let dir_before = system.dir().map(env::dir_bytes);

    let (start, cpu_ms, query_results, write_result) = std::thread::scope(|scope| {
        let barrier = &barrier;
        let query_handles: Vec<_> = channels
            .into_iter()
            .enumerate()
            .map(|(t, channel)| {
                scope.spawn(move || {
                    query_thread(channel, inputs, expected, t * offset_step, barrier, window)
                })
            })
            .collect();
        let write_handle =
            writer.map(|client| scope.spawn(move || write_thread(client, inputs, barrier, window)));
        // Released together with the workers, once all have warmed up.
        barrier.wait();
        let start = Instant::now();
        let cpu_before = env::process_cpu_ms();
        let join = |what: &str| format!("{what} thread panicked");
        let query_results: Vec<Result<QueryThread, String>> = query_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(join("query"))))
            .collect();
        let write_result = write_handle.map(|h| h.join().unwrap_or_else(|_| Err(join("write"))));
        // Joined: the last statement in flight at the deadline is done.
        let cpu_ms = env::process_cpu_ms() - cpu_before;
        (start, cpu_ms, query_results, write_result)
    });

    let peak_rss_mb = env::peak_rss_mb();
    let mut out = Window {
        cpu_ms,
        peak_rss_mb,
        ..Window::default()
    };
    let mut end = start;
    let mut open_channels = Vec::new();
    for result in query_results {
        let t = result?;
        end = end.max(t.end);
        out.queries.absorb(t.sample);
        out.ledger.delivered += t.ledger.delivered;
        out.ledger.gaps += t.ledger.gaps;
        out.ledger.gap_dropped += t.ledger.gap_dropped;
        open_channels.push(t.channel);
    }
    if let Some(result) = write_result {
        let t = result?;
        end = end.max(t.end);
        out.writes = t.sample;
        out.ledger.acked_inserts = t.ledger.acked_inserts;
        out.ledger.matched = t.ledger.matched;
        let _ = t.client.goodbye();
    }
    out.elapsed_s = (end - start).as_secs_f64();
    out.queries.latencies_ns.sort_unstable();
    out.writes.latencies_ns.sort_unstable();
    if let Some(before) = dir_before {
        out.stored_bytes = system
            .dir()
            .map_or(0, env::dir_bytes)
            .saturating_sub(before);
    }

    // The writer has stopped; what its last inserts matched may still
    // be on its way. The server flushes a session's queue on every poll
    // tick (25 ms), so several quiet ticks in a row mean it is empty.
    if has_writer {
        for ch in &mut open_channels {
            let mut quiet = 0;
            while quiet < 4 {
                let before = out.ledger;
                ch.drain_notifications(&mut out.ledger)?;
                if out.ledger == before {
                    quiet += 1;
                    std::thread::sleep(Duration::from_millis(30));
                } else {
                    quiet = 0;
                }
            }
        }
    }
    for ch in open_channels {
        ch.close();
    }
    Ok(out)
}
