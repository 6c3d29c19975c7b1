//! The one-shard rules of the single serving path: a plain server is a
//! one-shard [`ShardedHub`](ecfd_serve::ShardedHub), and at one shard every
//! router and merge rule short-circuits to the shard itself — cached reads
//! scan nothing, the WAL keeps its flat layout, logs of plain `Delta`
//! records recover with unchanged tickets and row ids — while `REPLAY`
//! stays refused on several shards. Also the wire edge: an over-cap request
//! line is answered with `ERR` and the connection stays usable.
//!
//! The metrics registry is process-wide, so the tests in this file run one
//! at a time.

use ecfd_relation::{DataType, Delta, Relation, Schema, Tuple};
use ecfd_serve::protocol::{TupleOp, MAX_REQUEST_LINE_BYTES};
use ecfd_serve::{
    Client, Request, Response, ServeConfig, ServeError, Server, ServerHandle, ShardedConfig,
    StepOutcome, Writer,
};
use ecfd_session::Session;
use ecfd_wal::WalRecord;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn ready_session() -> Session {
    let schema = Schema::builder("cust")
        .attr("CT", DataType::Str)
        .attr("AC", DataType::Str)
        .build();
    let data = Relation::with_tuples(
        schema,
        [
            Tuple::from_iter(["Albany", "718"]),
            Tuple::from_iter(["NYC", "212"]),
            Tuple::from_iter(["Troy", "518"]),
        ],
    )
    .unwrap();
    let mut session = Session::new();
    session.load(data).unwrap();
    session
        .register_text(
            "cust: [CT] -> [AC] | [], { {Albany, Troy} || {518} }\n\
             cust: [AC] -> [CT] | [], { {_} || {_} }",
        )
        .unwrap();
    session
}

/// Round `k`'s rows: an Albany row with a wrong area code (an SV flag, so
/// its row id shows up in reports) plus a Troy row sharing area code 518
/// with other cities (an MV flag).
fn op(round: usize) -> Vec<TupleOp> {
    vec![
        TupleOp::insert(["Albany", &format!("6{round:02}")]),
        TupleOp::insert([&format!("Town{round}"), "518"]),
    ]
}

fn delta(round: usize, schema: &Schema) -> Delta {
    Request::ops_to_delta(&op(round), schema).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecfd-one-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(server: Server) -> (SocketAddr, ServerHandle, JoinHandle<Vec<Session>>) {
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, thread)
}

#[test]
fn over_cap_request_line_answers_err_and_the_connection_stays_usable() {
    let _serial = serial();
    let server = Server::bind(
        ready_session(),
        ServeConfig::default(),
        &ShardedConfig::default(),
    )
    .unwrap();
    let (addr, handle, thread) = start(server);

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // A valid request padded past the cap: only the cap refuses it.
    let mut line = b"PING".to_vec();
    line.resize(MAX_REQUEST_LINE_BYTES + 1, b' ');
    line.push(b'\n');
    writer.write_all(&line).unwrap();
    writer.write_all(b"PING\n").unwrap();

    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with("ERR "),
        "an over-cap line is refused, got `{}`",
        reply.chars().take(80).collect::<String>()
    );
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "PONG\n", "the same connection still answers");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn cached_detect_scans_no_rows_at_one_shard() {
    let _serial = serial();
    let server = Server::bind(
        ready_session(),
        ServeConfig::default(),
        &ShardedConfig::new(1, "CT"),
    )
    .unwrap();
    let (addr, handle, thread) = start(server);
    let mut client = Client::connect(addr).unwrap();
    client.apply(op(0)).unwrap();
    client.sync().unwrap();

    let scanned = handle.hub().metrics().counter("detect.rows.scanned");
    let before = scanned.get();
    for _ in 0..5 {
        let report = client.detect(false).unwrap();
        assert!(matches!(report, Response::Report { total: 5, .. }));
    }
    assert_eq!(scanned.get(), before, "cached DETECT must not rescan");

    client.quit().unwrap();
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn durable_one_shard_keeps_the_flat_wal_layout() {
    let _serial = serial();
    let dir = temp_dir("layout");
    let (server, recoveries) = Server::bind_durable(
        ready_session(),
        ServeConfig::default(),
        &ShardedConfig::new(1, "CT"),
        &dir,
    )
    .unwrap();
    assert_eq!(recoveries.len(), 1);
    let (addr, handle, thread) = start(server);
    let mut client = Client::connect(addr).unwrap();
    client.apply(op(0)).unwrap();
    client.sync().unwrap();
    client.detect(false).unwrap();
    client.epoch().unwrap();
    client.quit().unwrap();
    handle.shutdown();
    thread.join().unwrap();

    assert!(dir.join(ecfd_wal::WAL_FILE_NAME).is_file());
    assert!(!dir.join("shard-0").exists(), "no per-shard directory");
    assert!(!dir.join("merged.ckpt").exists(), "no merged checkpoint");
    let records = ecfd_wal::read_records(&dir.join(ecfd_wal::WAL_FILE_NAME)).unwrap();
    assert!(records
        .iter()
        .any(|r| matches!(r, WalRecord::Delta { ticket: 1, .. })));
    assert!(!records
        .iter()
        .any(|r| matches!(r, WalRecord::ScheduledDelta { .. })));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A log written by the plain writer (plain `Delta` records, no shard
/// directory) recovers through the server: later ACK tickets continue the
/// log and inserted rows get the ids an unrestarted server hands out.
#[test]
fn plain_writer_log_recovers_through_the_server() {
    let _serial = serial();
    const LOGGED: usize = 3;
    const LATER: usize = 2;
    let dir = temp_dir("plain-log");
    let schema = ready_session().snapshot().unwrap().schema().clone();
    {
        let (mut writer, hub, _) = Writer::bootstrap_durable(ready_session(), 8, 4, &dir).unwrap();
        for round in 0..LOGGED {
            hub.submit(delta(round, &schema)).unwrap();
        }
        while !hub.queue().is_applied(LOGGED as u64) {
            let outcome = writer.step(&hub, Duration::from_millis(10)).unwrap();
            assert_ne!(outcome, StepOutcome::Drained);
        }
    }

    let (server, recoveries) = Server::bind_durable(
        ready_session(),
        ServeConfig::default(),
        &ShardedConfig::default(),
        &dir,
    )
    .unwrap();
    assert_eq!(recoveries[0].deltas_applied, LOGGED);
    let (addr, handle, thread) = start(server);
    let mut recovered = Client::connect(addr).unwrap();

    let oracle_server = Server::bind(
        ready_session(),
        ServeConfig::default(),
        &ShardedConfig::default(),
    )
    .unwrap();
    let (oracle_addr, oracle_handle, oracle_thread) = start(oracle_server);
    let mut oracle = Client::connect(oracle_addr).unwrap();
    for round in 0..LOGGED {
        oracle.apply(op(round)).unwrap();
    }

    for round in LOGGED..LOGGED + LATER {
        let ticket = recovered.apply(op(round)).unwrap();
        assert_eq!(ticket, oracle.apply(op(round)).unwrap());
        assert_eq!(ticket, round as u64 + 1, "tickets continue the log");
    }
    recovered.sync().unwrap();
    oracle.sync().unwrap();
    assert_eq!(
        recovered.detect(false).unwrap(),
        oracle.detect(false).unwrap(),
        "same row ids, same flags, same epoch"
    );
    assert_eq!(recovered.explain().unwrap(), oracle.explain().unwrap());
    let (_, consistent) = recovered.check().unwrap();
    assert!(consistent);

    recovered.quit().unwrap();
    oracle.quit().unwrap();
    handle.shutdown();
    oracle_handle.shutdown();
    thread.join().unwrap();
    oracle_thread.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_is_refused_on_two_shards() {
    let _serial = serial();
    let server = Server::bind(
        ready_session(),
        ServeConfig::default(),
        &ShardedConfig::new(2, "CT"),
    )
    .unwrap();
    let (addr, handle, thread) = start(server);
    let mut client = Client::connect(addr).unwrap();
    let answer = client
        .request(&Request::Replay { cursor: 0, max: 16 })
        .unwrap();
    assert!(
        matches!(&answer, Response::Err { message } if message.contains("REPLAY")),
        "expected ERR, got {answer:?}"
    );
    assert!(matches!(client.replay(0, 16), Err(ServeError::Protocol(_))));
    client.ping().unwrap();

    client.quit().unwrap();
    handle.shutdown();
    thread.join().unwrap();
}
