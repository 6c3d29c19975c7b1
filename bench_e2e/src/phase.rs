//! The timed phases, driven over TCP against a spawned `serve`.
//!
//! Each phase runs on its own server process and reads `STATS` where its
//! timed window begins and after its last slice, so the server's counters
//! diff cleanly and its cumulative histograms describe the phase. A phase is
//! driven in slices ([`FreshLoop::slice`], [`MixedLoop::slice`]) that the
//! caller alternates between the two phases' servers, so both phases sample
//! the host over the whole run; a server is idle between its slices. With
//! `traced` set, the client also parses every reply (`Response::parse`)
//! inside the loop — the instrumentation whose cost the tracing overhead
//! reports.

use crate::oracle::split_report;
use crate::server::{clip, own_cpu_seconds, Conn, ServerProcess};
use crate::stats::Exposition;
use ecfd_serve::protocol::Response;
use std::time::{Duration, Instant};

/// Untimed ramp before the first slice of the mixed phase. Until the writer
/// publishes its first timed epoch every read is served from the cache,
/// which would mix two populations into the first second of samples.
pub const RAMP: Duration = Duration::from_secs(1);

/// Failures are counted; the first few are kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: `ERR`, dropped connection, timeout or a
    /// disagreement with the oracle.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall-clock length of the timed slices, seconds. The phase's timeline
    /// is these seconds laid end to end.
    pub secs: f64,
    /// Client-observed `DETECT` (fresh phase: `DETECT FRESH`) latencies, ms.
    pub detect_ms: Vec<f64>,
    /// Completion times of the mixed phase's `DETECT`s on its timeline,
    /// seconds.
    pub detect_done: Vec<f64>,
    /// Reply sizes of those requests, bytes including the newline.
    pub detect_bytes: Vec<f64>,
    /// Client-observed `APPLY` + `SYNC` latencies, ms.
    pub apply_sync_ms: Vec<f64>,
    /// Completion times of those pairs on the phase's timeline, seconds.
    pub apply_done: Vec<f64>,
    /// Indices (into the delta pool) of ACKed deltas, in ACK order.
    pub acked: Vec<usize>,
    /// Tuple ops in the ACKed deltas whose `SYNC` succeeded.
    pub applied_ops: usize,
    /// Seconds from the writer's first timed send to its last completion,
    /// summed over slices.
    pub write_secs: f64,
    /// Seconds from the reader's first timed send to its last completion,
    /// summed over slices.
    pub read_secs: f64,
    /// The untimed warm-up `APPLY` + `SYNC` (the server builds its
    /// incremental state on the first delta), ms.
    pub warmup_apply_sync_ms: f64,
    /// Client-side `Response::parse` times of the `DETECT` replies (traced
    /// rounds only), ms.
    pub parse_ms: Vec<f64>,
    /// `STATS` right before the timed window (after warm-up and ramp).
    pub before: Exposition,
    /// `STATS` right after the last slice.
    pub after: Exposition,
    /// Server CPU seconds spent during the timed slices.
    pub server_cpu_s: f64,
    /// Client (this process) CPU seconds spent during the timed slices.
    pub client_cpu_s: f64,
    /// The server's `VmHWM` at the end of the phase, MiB.
    pub rss_mb: f64,
    /// The last `REPORT` line of the phase's verification, if any.
    pub final_report: Option<String>,
    /// Operation counts and failures, verification included.
    pub tally: Tally,
}

/// Reads and decodes `STATS`.
pub fn read_stats(conn: &mut Conn) -> Result<Exposition, String> {
    let line = conn.call("STATS")?;
    match Response::parse(line) {
        Ok(Response::Metrics { text }) => Ok(Exposition::parse(&text)),
        _ => Err(format!("STATS answered `{}`", clip(line))),
    }
}

/// Where a slice's timed window begins on the phase's own timeline: the
/// timed seconds of every earlier slice come first.
#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    offset: f64,
}

impl Clock {
    /// Seconds on the phase's timeline at `t` (not before `start`).
    fn at(&self, t: Instant) -> f64 {
        self.offset + t.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// The fresh phase, driven in slices: one connection loops `DETECT FRESH`;
/// every report must equal the oracle's byte for byte and epochs must never
/// go backwards.
pub struct FreshLoop<'a> {
    server: &'a ServerProcess,
    conn: Conn,
    expected_tail: &'a str,
    traced: bool,
    last_epoch: u64,
    phase: Phase,
}

impl<'a> FreshLoop<'a> {
    /// Connects, sends one untimed request (so page faults of the first
    /// scan stay out) and reads `STATS` where the timed window begins.
    pub fn start(
        server: &'a ServerProcess,
        expected_tail: &'a str,
        traced: bool,
    ) -> Result<FreshLoop<'a>, String> {
        let mut conn = server.connect()?;
        let mut phase = Phase::default();
        phase.tally.attempt();
        let line = conn.call("DETECT FRESH")?;
        if split_report(line).is_none_or(|(_, tail)| tail != expected_tail) {
            phase
                .tally
                .fail(format!("warm-up DETECT FRESH answered `{}`", clip(line)));
        }
        phase.before = read_stats(&mut conn)?;
        Ok(FreshLoop {
            server,
            conn,
            expected_tail,
            traced,
            last_epoch: 0,
            phase,
        })
    }

    /// Loops `DETECT FRESH` for `duration`.
    pub fn slice(&mut self, duration: Duration) -> Result<(), String> {
        let server_cpu = self.server.cpu_seconds().unwrap_or(0.0);
        let client_cpu = own_cpu_seconds().unwrap_or(0.0);
        let phase = &mut self.phase;
        let start = Instant::now();
        while start.elapsed() < duration {
            phase.tally.attempt();
            let sent = Instant::now();
            let line = match self.conn.call("DETECT FRESH") {
                Ok(line) => line,
                Err(e) => {
                    phase.tally.fail(e);
                    self.conn = self.server.connect()?;
                    continue;
                }
            };
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            if self.traced {
                parse_timed(line, &mut phase.parse_ms);
            }
            match split_report(line) {
                Some((epoch, tail)) if tail == self.expected_tail && epoch >= self.last_epoch => {
                    self.last_epoch = epoch;
                    phase.detect_ms.push(ms);
                    phase.detect_bytes.push(line.len() as f64 + 1.0);
                }
                Some((epoch, tail)) if tail == self.expected_tail => phase.tally.fail(format!(
                    "DETECT FRESH epoch went back from {} to {epoch}",
                    self.last_epoch
                )),
                Some(_) => phase
                    .tally
                    .fail("DETECT FRESH report differs from the oracle".to_string()),
                None => phase
                    .tally
                    .fail(format!("DETECT FRESH answered `{}`", clip(line))),
            }
        }
        phase.secs += start.elapsed().as_secs_f64();
        phase.server_cpu_s += self.server.cpu_seconds().unwrap_or(0.0) - server_cpu;
        phase.client_cpu_s += own_cpu_seconds().unwrap_or(0.0) - client_cpu;
        Ok(())
    }

    /// Reads `STATS` and the server's peak RSS after the last slice.
    pub fn finish(mut self) -> Result<Phase, String> {
        self.phase.after = read_stats(&mut self.conn)?;
        self.phase.rss_mb = self.server.peak_rss_mb().unwrap_or(0.0);
        Ok(self.phase)
    }
}

/// What the writer connection of the mixed phase saw, across slices.
#[derive(Default)]
struct WriterSide {
    last_ticket: u64,
    last_epoch: u64,
    latencies: Vec<f64>,
    done: Vec<f64>,
    acked: Vec<usize>,
    applied_ops: usize,
    /// Timeline seconds of this slice's first timed send and last completion.
    span: Span,
    tally: Tally,
}

/// What the reader connection of the mixed phase saw, across slices.
#[derive(Default)]
struct ReaderSide {
    /// `STATS` read on this connection right before the first timed request.
    before: Option<Exposition>,
    /// Server and client CPU seconds where this slice's timed window began.
    cpu_at_start: Option<(f64, f64)>,
    last_epoch: u64,
    latencies: Vec<f64>,
    done: Vec<f64>,
    bytes: Vec<f64>,
    parse_ms: Vec<f64>,
    span: Span,
    tally: Tally,
}

/// The first timed send and the last completion of one slice, in timeline
/// seconds; their distance is the connection's busy time in the slice.
#[derive(Default, Clone, Copy)]
struct Span {
    first: Option<f64>,
    last: f64,
}

impl Span {
    fn record(&mut self, sent: f64, done: f64) {
        self.first.get_or_insert(sent);
        self.last = done;
    }

    /// The busy seconds of the slice; resets for the next one.
    fn take(&mut self) -> f64 {
        let busy = self.first.map_or(0.0, |first| self.last - first);
        *self = Span::default();
        busy
    }
}

/// The mixed phase, driven in slices: connection A loops `APPLY` + `SYNC`
/// over the delta pool (each `(line, op count)`), connection B loops cached
/// `DETECT`, one client thread each. [`MixedLoop::finish`] syncs, reads the
/// final `DETECT` (kept in [`Phase::final_report`]) and runs `CHECK`, which
/// must answer `CONSISTENT true`. Comparing the final report with the oracle
/// is the caller's job: it needs [`Phase::acked`].
pub struct MixedLoop<'a> {
    server: &'a ServerProcess,
    writer_conn: Conn,
    reader_conn: Conn,
    deltas: &'a [(&'a str, usize)],
    /// Index of the next delta to send; delta 0 is the warm-up.
    next: usize,
    traced: bool,
    writer: WriterSide,
    reader: ReaderSide,
    phase: Phase,
}

impl<'a> MixedLoop<'a> {
    /// Connects both clients and sends the untimed warm-up: the first delta
    /// (on which the server builds its incremental state) and one read.
    pub fn start(
        server: &'a ServerProcess,
        deltas: &'a [(&'a str, usize)],
        traced: bool,
    ) -> Result<MixedLoop<'a>, String> {
        let mut writer_conn = server.connect()?;
        let mut reader_conn = server.connect()?;
        let first = deltas.first().ok_or("no deltas to send")?;
        let mut writer = WriterSide::default();
        let warmup = Instant::now();
        if !apply_sync(&mut writer_conn, first, 0, &mut writer, None) {
            return Err(format!("warm-up APPLY failed: {:?}", writer.tally.messages));
        }
        let phase = Phase {
            warmup_apply_sync_ms: warmup.elapsed().as_secs_f64() * 1e3,
            ..Phase::default()
        };
        reader_conn.call("DETECT")?;
        Ok(MixedLoop {
            server,
            writer_conn,
            reader_conn,
            deltas,
            next: 1,
            traced,
            writer,
            reader: ReaderSide::default(),
            phase,
        })
    }

    /// Runs both loops for `duration` after an untimed `ramp`.
    pub fn slice(&mut self, ramp: Duration, duration: Duration) {
        let clock = Clock {
            start: Instant::now() + ramp,
            offset: self.phase.secs,
        };
        let until = clock.start + duration;
        let Self {
            server,
            writer_conn,
            reader_conn,
            deltas,
            next,
            traced,
            writer,
            reader,
            ..
        } = self;
        // The reader loop runs on this thread, so the phase uses two client
        // threads for its two connections.
        std::thread::scope(|scope| {
            let writing =
                scope.spawn(|| write_loop(writer_conn, deltas, next, writer, clock, until));
            read_loop(reader_conn, server, reader, clock, until, *traced);
            writing.join().expect("writer loop panicked");
        });
        let phase = &mut self.phase;
        phase.secs += clock.start.elapsed().as_secs_f64();
        if let Some((server_cpu, client_cpu)) = self.reader.cpu_at_start.take() {
            phase.server_cpu_s += self.server.cpu_seconds().unwrap_or(0.0) - server_cpu;
            phase.client_cpu_s += own_cpu_seconds().unwrap_or(0.0) - client_cpu;
        }
        phase.write_secs += self.writer.span.take();
        phase.read_secs += self.reader.span.take();
    }

    /// Reads `STATS` after the last slice, then verifies: one more barrier,
    /// the published report and `CHECK`.
    pub fn finish(self) -> Result<Phase, String> {
        let MixedLoop {
            server,
            mut writer_conn,
            mut reader_conn,
            writer,
            reader,
            mut phase,
            ..
        } = self;
        phase.after = read_stats(&mut reader_conn)?;
        phase.before = reader
            .before
            .ok_or("the reader never reached the timed window")?;
        let tally = &mut phase.tally;
        let last_synced = writer.last_epoch;
        tally.absorb(writer.tally);
        tally.absorb(reader.tally);
        tally.attempt();
        match writer_conn.call("SYNC") {
            Ok(line) => match Response::parse(line) {
                Ok(Response::Synced { epoch }) if epoch >= last_synced => {}
                _ => tally.fail(format!("final SYNC answered `{}`", clip(line))),
            },
            Err(e) => tally.fail(e),
        }
        tally.attempt();
        phase.final_report = match reader_conn.call("DETECT") {
            Ok(line) => match split_report(line) {
                Some((epoch, _)) if epoch >= last_synced => Some(line.to_string()),
                _ => {
                    tally.fail(format!("final DETECT answered `{}`", clip(line)));
                    None
                }
            },
            Err(e) => {
                tally.fail(e);
                None
            }
        };
        tally.attempt();
        match reader_conn.call("CHECK") {
            Ok(line) => match Response::parse(line) {
                Ok(Response::Checked {
                    consistent: true, ..
                }) => {}
                _ => tally.fail(format!("CHECK answered `{}`", clip(line))),
            },
            Err(e) => tally.fail(e),
        }
        phase.detect_ms = reader.latencies;
        phase.detect_done = reader.done;
        phase.detect_bytes = reader.bytes;
        phase.parse_ms = reader.parse_ms;
        phase.apply_sync_ms = writer.latencies;
        phase.apply_done = writer.done;
        phase.acked = writer.acked;
        phase.applied_ops = writer.applied_ops;
        phase.rss_mb = server.peak_rss_mb().unwrap_or(0.0);
        Ok(phase)
    }
}

fn write_loop(
    conn: &mut Conn,
    deltas: &[(&str, usize)],
    next: &mut usize,
    side: &mut WriterSide,
    clock: Clock,
    until: Instant,
) {
    while let Some(delta) = deltas.get(*next) {
        if Instant::now() >= until {
            break;
        }
        let index = *next;
        *next += 1;
        if !apply_sync(conn, delta, index, side, Some(clock)) {
            break;
        }
    }
}

/// Sends one `APPLY` and its `SYNC`, recording the pair's latency when it
/// was sent inside `clock`'s timed window (`None`: untimed). Returns `false`
/// when the connection is gone.
fn apply_sync(
    conn: &mut Conn,
    &(line, ops): &(&str, usize),
    index: usize,
    side: &mut WriterSide,
    clock: Option<Clock>,
) -> bool {
    side.tally.attempt();
    let sent = Instant::now();
    let ack = match conn.call(line) {
        Ok(reply) => Response::parse(reply).map_err(|_| clip(reply)),
        Err(e) => {
            side.tally.fail(e);
            return false;
        }
    };
    match ack {
        Ok(Response::Ack { ticket, epoch })
            if ticket > side.last_ticket && epoch >= side.last_epoch =>
        {
            side.last_ticket = ticket;
            side.last_epoch = epoch;
            side.acked.push(index);
        }
        other => {
            side.tally.fail(format!("APPLY answered {other:?}"));
            return true;
        }
    }
    match conn.call("SYNC") {
        Ok(reply) => match Response::parse(reply) {
            Ok(Response::Synced { epoch }) if epoch >= side.last_epoch => {
                side.last_epoch = epoch;
                if let Some(clock) = clock.filter(|c| sent >= c.start) {
                    let now = Instant::now();
                    side.latencies.push((now - sent).as_secs_f64() * 1e3);
                    side.done.push(clock.at(now));
                    side.span.record(clock.at(sent), clock.at(now));
                    side.applied_ops += ops;
                }
            }
            _ => side.tally.fail(format!("SYNC answered `{}`", clip(reply))),
        },
        Err(e) => {
            side.tally.fail(e);
            return false;
        }
    }
    true
}

fn read_loop(
    conn: &mut Conn,
    server: &ServerProcess,
    side: &mut ReaderSide,
    clock: Clock,
    until: Instant,
    traced: bool,
) {
    while Instant::now() < until {
        // The server's counters and both CPU clocks are read where the timed
        // window begins, so their diffs cover exactly the timed `DETECT`s.
        if side.cpu_at_start.is_none() && Instant::now() >= clock.start {
            if side.before.is_none() {
                match read_stats(conn) {
                    Ok(stats) => side.before = Some(stats),
                    Err(e) => {
                        side.tally.fail(e);
                        break;
                    }
                }
            }
            side.cpu_at_start = Some((
                server.cpu_seconds().unwrap_or(0.0),
                own_cpu_seconds().unwrap_or(0.0),
            ));
        }
        side.tally.attempt();
        let sent = Instant::now();
        let line = match conn.call("DETECT") {
            Ok(line) => line,
            Err(e) => {
                side.tally.fail(e);
                break;
            }
        };
        let now = Instant::now();
        if traced {
            parse_timed(line, &mut side.parse_ms);
        }
        match split_report(line) {
            Some((epoch, _)) if epoch >= side.last_epoch => {
                side.last_epoch = epoch;
                if sent >= clock.start {
                    side.latencies.push((now - sent).as_secs_f64() * 1e3);
                    side.done.push(clock.at(now));
                    side.span.record(clock.at(sent), clock.at(now));
                    side.bytes.push(line.len() as f64 + 1.0);
                }
            }
            Some((epoch, _)) => side.tally.fail(format!(
                "DETECT epoch went back from {} to {epoch}",
                side.last_epoch
            )),
            None => side.tally.fail(format!("DETECT answered `{}`", clip(line))),
        }
    }
}

fn parse_timed(line: &str, out: &mut Vec<f64>) {
    let started = Instant::now();
    let parsed = Response::parse(line);
    out.push(started.elapsed().as_secs_f64() * 1e3);
    drop(parsed);
}
