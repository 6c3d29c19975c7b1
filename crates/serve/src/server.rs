//! The TCP front end: a listener plus scoped per-connection workers over a
//! [`ShardedHub`] — one shard unless configured otherwise.

use crate::durable::RecoveryReport;
use crate::hub::Hub;
use crate::ingest::Ticket;
use crate::protocol::{
    delta_to_ops, MvLine, ReplayRecord, Request, Response, MAX_REQUEST_LINE_BYTES, VERBS,
};
use crate::sharded::{ShardedConfig, ShardedHub};
use crate::writer::Writer;
use crate::Result;
use ecfd_detect::EvidenceReport;
use ecfd_obs::{Counter, Histogram};
use ecfd_repair::RepairOptions;
use ecfd_session::Session;
use ecfd_wal::WalRecord;
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Hard upper bound on records per `REPLAY` response, whatever the client
/// asked for — bounds response-line length.
const REPLAY_MAX_CLAMP: usize = 1024;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port — the default,
    /// so tests and examples never collide).
    pub addr: String,
    /// Capacity of each shard's ingest queue (backpressure threshold).
    pub queue_capacity: usize,
    /// Maximum number of queued deltas a shard's writer applies (in ticket
    /// order) per published epoch.
    pub batch_max: usize,
    /// How long a `SYNC` request waits before reporting a timeout.
    pub sync_timeout: Duration,
    /// Socket read timeout; doubles as the shutdown-poll interval of idle
    /// connections.
    pub read_timeout: Duration,
    /// Accept-loop poll interval while no connection is pending.
    pub poll_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 64,
            batch_max: 32,
            sync_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_millis(100),
            poll_interval: Duration::from_millis(2),
        }
    }
}

/// A bound-but-not-yet-running server: the TCP face of a [`ShardedHub`] and
/// its per-shard [`Writer`]s. Reader verbs answer from
/// [`ShardedHub::view`], `APPLY` goes through the router, and `SYNC`
/// barriers on the connection's per-shard ACK high-water marks.
/// [`Server::run`] blocks the calling thread; grab a [`ServerHandle`] first
/// to shut it down from elsewhere.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    hub: Arc<ShardedHub>,
    writers: Vec<Writer>,
    config: ServeConfig,
}

/// A cheap, cloneable remote control for a running [`Server`]: request
/// shutdown, reach the hub for in-process reads.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    hub: Arc<ShardedHub>,
}

impl ServerHandle {
    /// Requests shutdown: the queues close, pending deltas drain, connection
    /// workers and the accept loop exit, and [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.hub.shutdown();
    }

    /// The shared hub, for in-process readers living next to the server.
    pub fn hub(&self) -> &Arc<ShardedHub> {
        &self.hub
    }
}

impl Server {
    /// Binds the listener and bootstraps one writer per shard from a
    /// prepared session (data loaded, constraints registered) — see
    /// [`ShardedHub::bootstrap`]; [`ShardedConfig::default`] serves it
    /// unsharded. The queue capacity and batch cap come from `config`.
    pub fn bind(session: Session, config: ServeConfig, sharding: &ShardedConfig) -> Result<Server> {
        let (writers, hub) = ShardedHub::bootstrap(session, &with_queue(&config, sharding))?;
        Server::listen(config, writers, hub)
    }

    /// Like [`Server::bind`], but durable: every shard's WAL under `wal_dir`
    /// is opened (created if missing) and replayed over its session before
    /// serving, and every accepted delta is logged + fsynced before its ACK
    /// — see [`ShardedHub::bootstrap_durable`]. Returns the per-shard
    /// recovery reports.
    pub fn bind_durable(
        session: Session,
        config: ServeConfig,
        sharding: &ShardedConfig,
        wal_dir: &Path,
    ) -> Result<(Server, Vec<RecoveryReport>)> {
        let (writers, hub, recoveries) =
            ShardedHub::bootstrap_durable(session, &with_queue(&config, sharding), wal_dir)?;
        Ok((Server::listen(config, writers, hub)?, recoveries))
    }

    fn listen(config: ServeConfig, writers: Vec<Writer>, hub: Arc<ShardedHub>) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            hub,
            writers,
            config,
        })
    }

    /// The bound address (resolves the ephemeral port of `127.0.0.1:0`).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            hub: self.hub.clone(),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] is called: one writer thread
    /// per shard and one worker per accepted connection all run as
    /// [`std::thread::scope`] threads, so this call owns every serving
    /// thread and returns only after all of them are done. A dead shard
    /// writer trips the shutdown flag, so the accept loop exits rather than
    /// serving a deployment that can no longer apply writes. Returns the
    /// per-shard sessions in their final states.
    pub fn run(self) -> Result<Vec<Session>> {
        let Server {
            listener,
            hub,
            writers,
            config,
        } = self;
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| -> Result<Vec<Session>> {
            let writer_threads: Vec<_> = writers
                .into_iter()
                .zip(hub.shard_hubs())
                .map(|(writer, shard_hub)| scope.spawn(move || writer.run(shard_hub)))
                .collect();
            loop {
                if hub.is_shutdown() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let hub = &hub;
                        let config = &config;
                        scope.spawn(move || {
                            let _ = handle_connection(stream, hub, config);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(config.poll_interval);
                    }
                    Err(_) => break,
                }
            }
            // Make sure the writers drain and exit even if the accept loop
            // stopped for a reason other than an explicit shutdown.
            hub.shutdown();
            writer_threads
                .into_iter()
                .map(|thread| thread.join().expect("writer thread panicked"))
                .collect()
        })
    }
}

/// `sharding` with the per-shard queue capacity and batch cap of `config`.
fn with_queue(config: &ServeConfig, sharding: &ShardedConfig) -> ShardedConfig {
    ShardedConfig {
        queue_capacity: config.queue_capacity,
        batch_max: config.batch_max,
        ..sharding.clone()
    }
}

/// Serves one connection: read a line, answer a line, until `QUIT`, EOF or
/// shutdown.
fn handle_connection(
    stream: TcpStream,
    hub: &ShardedHub,
    config: &ServeConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = LineBuffer::default();
    // Per-shard tickets most recently ACKed on *this* connection (0 =
    // nothing submitted to that shard yet): SYNC barriers on exactly these,
    // so one client's barrier is never hostage to another's backlog.
    let mut last: Vec<Ticket> = vec![0; hub.num_shards()];
    loop {
        if hub.is_shutdown() {
            return Ok(());
        }
        let response = match line.next_line(&mut reader) {
            Ok(None) => return Ok(()), // client closed
            Ok(Some(line)) => respond(line, |request| dispatch(request, hub, config, &mut last)),
            // Timeout mid-wait: partial bytes (if any) stay buffered; loop
            // to poll the shutdown flag and keep accumulating.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        let quit = matches!(response, Response::Bye);
        writer.write_all(response.render().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if quit {
            return Ok(());
        }
    }
}

/// One request line, accumulated across read timeouts and capped at
/// [`MAX_REQUEST_LINE_BYTES`]: past the cap the rest of the line is dropped
/// as it arrives, so a client cannot grow the buffer without bound.
#[derive(Default)]
struct LineBuffer {
    bytes: Vec<u8>,
    too_long: bool,
}

impl LineBuffer {
    /// Reads until a whole line is in. `Ok(None)` means the client closed
    /// the stream; a read timeout surfaces as the I/O error, keeping the
    /// partial line. An over-cap or non-UTF-8 line comes back as `Err`
    /// carrying the `ERR` message.
    fn next_line(
        &mut self,
        reader: &mut impl BufRead,
    ) -> std::io::Result<Option<std::result::Result<String, String>>> {
        loop {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                // End of stream: a trailing unterminated line still counts.
                let pending = !self.bytes.is_empty() || self.too_long;
                return Ok(pending.then(|| self.take()));
            }
            let (chunk, complete) = match available.iter().position(|&b| b == b'\n') {
                Some(end) => (&available[..=end], true),
                None => (available, false),
            };
            let used = chunk.len();
            if !self.too_long {
                self.bytes.extend_from_slice(chunk);
                if self.bytes.len() > MAX_REQUEST_LINE_BYTES {
                    self.bytes = Vec::new();
                    self.too_long = true;
                }
            }
            reader.consume(used);
            if complete {
                return Ok(Some(self.take()));
            }
        }
    }

    fn take(&mut self) -> std::result::Result<String, String> {
        let bytes = std::mem::take(&mut self.bytes);
        if std::mem::take(&mut self.too_long) {
            return Err(format!(
                "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
            ));
        }
        String::from_utf8(bytes).map_err(|_| "request line is not UTF-8".to_string())
    }
}

/// One verb's `serve.requests{verb}` / `serve.request.ns{verb}` handles.
struct VerbMetrics {
    requests: Counter,
    latency: Histogram,
}

/// The metric handles of `request`'s verb, resolved in the registry on the
/// verb's first request only — later requests neither format a key nor take
/// the registry lock, and verbs never used add no series.
fn verb_metrics(request: &Request) -> &'static VerbMetrics {
    static SLOTS: [OnceLock<VerbMetrics>; VERBS.len()] = [const { OnceLock::new() }; VERBS.len()];
    let index = request.verb_index();
    SLOTS[index].get_or_init(|| {
        let registry = ecfd_obs::registry();
        let labels = [("verb", VERBS[index])];
        VerbMetrics {
            requests: registry.counter_with("serve.requests", &labels),
            latency: registry.histogram_with("serve.request.ns", &labels),
        }
    })
}

/// Parses one request line and runs it through `dispatch`. Never panics on
/// client input — malformed lines come back as `ERR`.
///
/// Every parsed request is counted and timed under its wire verb
/// (`serve.requests{verb=…}` / `serve.request.ns{verb=…}`); unparseable
/// lines are counted under the pseudo-verb `INVALID`.
fn respond(
    line: std::result::Result<String, String>,
    dispatch: impl FnOnce(Request) -> Response,
) -> Response {
    match line.and_then(|line| Request::parse(&line)) {
        Ok(request) => {
            let metrics = verb_metrics(&request);
            metrics.requests.inc();
            metrics.latency.time(|| dispatch(request))
        }
        Err(message) => {
            static INVALID: OnceLock<Counter> = OnceLock::new();
            INVALID
                .get_or_init(|| {
                    ecfd_obs::registry().counter_with("serve.requests", &[("verb", "INVALID")])
                })
                .inc();
            Response::Err { message }
        }
    }
}

/// The verb dispatch behind [`respond`], separated so the caller can time
/// it. A serving-layer failure becomes the wire's `ERR` answer.
fn dispatch(
    request: Request,
    hub: &ShardedHub,
    config: &ServeConfig,
    last: &mut [Ticket],
) -> Response {
    try_dispatch(request, hub, config, last).unwrap_or_else(|e| Response::Err {
        message: e.to_string(),
    })
}

fn try_dispatch(
    request: Request,
    hub: &ShardedHub,
    config: &ServeConfig,
    last: &mut [Ticket],
) -> Result<Response> {
    Ok(match request {
        Request::Ping => Response::Pong,
        Request::Quit => Response::Bye,
        Request::Epoch => {
            let view = hub.view()?;
            let stats = hub.stats();
            Response::Epoch {
                epoch: view.epoch(),
                rows: view.report().total_rows,
                sv: view.report().num_sv(),
                mv: view.report().num_mv(),
                queued: stats.queued,
                errors: stats.write_errors,
            }
        }
        Request::Detect { fresh: false } => {
            let view = hub.view()?;
            report_response(view.epoch(), view.report())
        }
        Request::Detect { fresh: true } => {
            let (epoch, report) = hub.detect_fresh()?;
            report_response(epoch, &report)
        }
        Request::Check => {
            let view = hub.view()?;
            let fresh = view.detect_oracle()?;
            Response::Checked {
                epoch: view.epoch(),
                total: fresh.total_rows,
                sv: fresh.num_sv(),
                mv: fresh.num_mv(),
                consistent: &fresh == view.report(),
            }
        }
        Request::Explain => {
            let view = hub.view()?;
            evidence_response(view.epoch(), view.evidence())
        }
        Request::ExplainPlan => {
            // Every shard registers the same constraint set; compile the
            // plan from shard 0's published snapshot.
            let snap = hub.shard_hubs()[0].snapshot();
            match ecfd_plan::Plan::compile(snap.constraints()) {
                Ok(plan) => Response::PlanText {
                    text: plan.render(),
                },
                Err(e) => Response::Err {
                    message: e.to_string(),
                },
            }
        }
        Request::Apply { ops } => {
            let delta = match Request::ops_to_delta(&ops, hub.schema()) {
                Ok(delta) => delta,
                Err(message) => return Ok(Response::Err { message }),
            };
            let epoch = hub.epoch();
            let receipt = hub.submit(delta)?;
            for &(s, ticket) in &receipt.shard_tickets {
                last[s] = last[s].max(ticket);
            }
            Response::Ack {
                ticket: receipt.global,
                epoch,
            }
        }
        Request::Sync => Response::Synced {
            epoch: hub.sync_tickets(last, config.sync_timeout)?,
        },
        Request::RepairPlan => {
            let single = hub.compose()?;
            let plan = single.repair_plan(RepairOptions::default())?;
            Response::Plan {
                epoch: single.epoch(),
                deletions: plan.num_deletions(),
                modifications: plan.num_modifications(),
                cost: plan.total_cost(),
            }
        }
        Request::Replay { cursor, max } => match hub.shard_hubs() {
            [only] => replay_response(only, cursor, max),
            _ => Response::Err {
                message: "REPLAY is not available on a sharded server".into(),
            },
        },
        Request::Stats { prefix } => Response::Metrics {
            text: match prefix {
                Some(prefix) => hub.metrics().render_prefix(&prefix),
                None => hub.metrics().render(),
            },
        },
        Request::Info => Response::Info {
            version: env!("CARGO_PKG_VERSION").to_string(),
            epoch: hub.epoch(),
            accepted: hub.accepted_global(),
            applied: hub.applied_global(),
            wal: hub.wal_mode().to_string(),
            follower: hub.is_follower(),
        },
    })
}

fn report_response(epoch: u64, report: &ecfd_detect::DetectionReport) -> Response {
    Response::Report {
        epoch,
        total: report.total_rows,
        sv: report.sv_rows.iter().map(|r| r.as_u64()).collect(),
        mv: report.mv_rows.iter().map(|r| r.as_u64()).collect(),
    }
}

/// Serves one `REPLAY` page straight from the WAL file. Everything in the
/// log's valid prefix is durable and (eventually) applied, so the whole
/// prefix is streamable; a torn tail from an append racing this read simply
/// ends the page early — the next poll picks it up. Cursors are record
/// positions in the file, so checkpoint records occupy positions too and a
/// page boundary can never silently skip one.
fn replay_response(hub: &Hub, cursor: u64, max: usize) -> Response {
    let Some(path) = hub.wal_path() else {
        return Response::Err {
            message: "REPLAY requires a durable server (start with --wal-dir)".into(),
        };
    };
    let records = match ecfd_wal::read_records(path) {
        Ok(records) => records,
        Err(e) => {
            return Response::Err {
                message: e.to_string(),
            }
        }
    };
    let start = (cursor as usize).min(records.len());
    let end = (start + max.clamp(1, REPLAY_MAX_CLAMP)).min(records.len());
    let page = records[start..end]
        .iter()
        .map(|record| match record {
            WalRecord::Delta { ticket, delta } => ReplayRecord::Delta {
                ticket: *ticket,
                ops: delta_to_ops(delta),
            },
            // Records with pre-assigned ids stream the same way; the ids
            // are an apply-time detail the wire replay format does not carry.
            WalRecord::ScheduledDelta { ticket, delta, .. } => ReplayRecord::Delta {
                ticket: *ticket,
                ops: delta_to_ops(delta),
            },
            WalRecord::Checkpoint {
                epoch,
                last_ticket,
                report_hash,
            } => ReplayRecord::Checkpoint {
                epoch: *epoch,
                last_ticket: *last_ticket,
                report_hash: *report_hash,
            },
        })
        .collect();
    Response::Replayed {
        records: page,
        next: end as u64,
    }
}

fn evidence_response(epoch: u64, evidence: &EvidenceReport) -> Response {
    Response::Evidence {
        epoch,
        total: evidence.total_rows,
        sv: evidence
            .sv
            .iter()
            .map(|e| (e.row.as_u64(), e.source.constraint, e.source.pattern))
            .collect(),
        mv: evidence
            .mv_groups
            .iter()
            .map(|g| MvLine {
                constraint: g.source.constraint,
                pattern: g.source.pattern,
                key: g.group_key.iter().map(|v| v.to_string()).collect(),
                rows: g.rows.iter().map(|r| r.as_u64()).collect(),
            })
            .collect(),
    }
}
