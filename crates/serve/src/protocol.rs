//! The line-delimited request/response protocol of the `serve` binary.
//!
//! One request line in, one response line out, UTF-8, `\n`-terminated.
//! Tokens are separated by single spaces; free-form payloads (tuple fields,
//! group-key values, error messages) are percent-escaped so they can never
//! collide with the separators. Both directions have a full
//! `parse(render(x)) == x` round trip, asserted by this module's tests and
//! the workspace protocol test.
//!
//! ## Requests
//!
//! | line                  | meaning                                            |
//! |-----------------------|----------------------------------------------------|
//! | `PING`                | liveness check                                     |
//! | `EPOCH`               | current epoch + queue/error counters               |
//! | `DETECT`              | the published report at the current epoch          |
//! | `DETECT FRESH`        | re-detect from scratch over the current snapshot   |
//! | `CHECK`               | run both on *one* snapshot, report equality        |
//! | `EXPLAIN`             | the evidence behind the published report           |
//! | `EXPLAIN PLAN`        | the compiled detection plan for the served constraints |
//! | `APPLY <op> [<op>…]`  | enqueue a delta; `+f1,f2,…` inserts, `-f1,f2,…` deletes |
//! | `SYNC`                | block until every prior `APPLY` *on this connection* is applied + published |
//! | `REPAIR-PLAN`         | plan (not apply) a repair of the current violations |
//! | `REPLAY <cursor> [<max>]` | stream up to `max` applied WAL records starting at log position `cursor` (durable servers only) |
//! | `STATS [<prefix>]`    | metrics exposition text (optionally filtered to names starting with `prefix`) |
//! | `INFO`                | cheap liveness probe: version, epoch, tickets, WAL mode, follower status |
//! | `QUIT`                | close the connection                               |
//!
//! Tuple fields in `APPLY` are percent-escaped and comma-separated; they are
//! parsed against the served relation's base schema (`Int` / `Bool` columns
//! parse typed, the literal `NULL` is the null value).
//!
//! ## Responses
//!
//! | first token | shape                                                        |
//! |-------------|--------------------------------------------------------------|
//! | `PONG`      | `PONG`                                                       |
//! | `EPOCH`     | `EPOCH <e> ROWS <n> SV <n> MV <n> QUEUED <n> ERRORS <n>`     |
//! | `REPORT`    | `REPORT EPOCH <e> TOTAL <n> SV <ids> MV <ids>`               |
//! | `CHECKED`   | `CHECKED EPOCH <e> TOTAL <n> SV <n> MV <n> CONSISTENT <bool>`|
//! | `EVIDENCE`  | `EVIDENCE EPOCH <e> TOTAL <n> SV <sv-list> MV <mv-list>`     |
//! | `ACK`       | `ACK TICKET <t> EPOCH <e>`                                   |
//! | `SYNCED`    | `SYNCED EPOCH <e>`                                           |
//! | `PLAN`      | `PLAN EPOCH <e> DELETIONS <n> MODIFICATIONS <n> COST <f>`    |
//! | `REPLAYED`  | `REPLAYED RECORDS <n> <records> NEXT <cursor>`               |
//! | `METRICS`   | `METRICS LINES <n> <escaped exposition text>`                |
//! | `PLANTEXT`  | `PLANTEXT LINES <n> <escaped plan text>`                     |
//! | `INFO`      | `INFO VERSION <v> EPOCH <e> ACCEPTED <t> APPLIED <t> WAL <mode> FOLLOWER <bool>` |
//! | `BYE`       | `BYE`                                                        |
//! | `ERR`       | `ERR <escaped message>`                                      |
//!
//! A `METRICS` payload is the whole multi-line exposition of
//! `ecfd_obs::Registry::render` percent-escaped into one token; `LINES` is
//! its line count (0 with the `%e` empty payload when nothing matched the
//! prefix). An `INFO` `WAL` mode is `off`, `durable`, or `recovered`. A
//! `PLANTEXT` payload is [`ecfd_plan`]'s deterministic `Plan::render` text,
//! carried exactly like `METRICS`: the whole multi-line rendering
//! percent-escaped into one token, with `LINES` as its line count.
//!
//! A `REPLAYED` record list is `;`-joined (`-` when empty); each record is
//! `D@<ticket>@<op>|<op>|…` for a delta (ops rendered exactly like `APPLY`)
//! or `C@<epoch>@<last-ticket>@<report-hash>` for a checkpoint. `NEXT` is the
//! log position to pass as the next `REPLAY` cursor — positions count
//! records in the leader's WAL file, so checkpoints occupy positions too.
//!
//! Row-id lists render as comma-joined numbers, `-` when empty. An SV
//! evidence list is `row:constraint.pattern` items comma-joined; an MV list
//! is `constraint.pattern:key1,key2:row1|row2` items semicolon-joined, with
//! keys percent-escaped.

use ecfd_relation::{DataType, Delta, Schema, Tuple, Value};

/// Characters that collide with the protocol's separators and are therefore
/// percent-escaped inside free-form payload fields.
const RESERVED: &[char] = &[
    '%', ' ', ',', ':', ';', '|', '@', '+', '-', '\n', '\r', '\t',
];

/// Marker token for the empty string (an escape of nothing would render as
/// an empty token and vanish between separators). `%e` is never produced by
/// [`escape`], which only emits two-hex-digit sequences.
const EMPTY_FIELD: &str = "%e";

/// Percent-escapes the reserved characters of a payload value.
pub fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        if RESERVED.contains(&c) {
            let mut buf = [0u8; 4];
            for byte in c.encode_utf8(&mut buf).as_bytes() {
                out.push_str(&format!("%{byte:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Reverses [`escape`]. Fails on malformed percent sequences.
pub fn unescape(token: &str) -> Result<String, String> {
    let mut bytes = Vec::with_capacity(token.len());
    let mut chars = token.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '%' {
            let mut buf = [0u8; 4];
            bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            continue;
        }
        let hex = token.get(i + 1..i + 3).ok_or("truncated % escape")?;
        let byte = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape `%{hex}`"))?;
        bytes.push(byte);
        chars.next();
        chars.next();
    }
    String::from_utf8(bytes).map_err(|_| "escape decodes to invalid UTF-8".to_string())
}

/// Encodes one payload field (escaping, with an explicit empty marker).
pub fn encode_field(raw: &str) -> String {
    if raw.is_empty() {
        EMPTY_FIELD.to_string()
    } else {
        escape(raw)
    }
}

/// Decodes one payload field.
pub fn decode_field(token: &str) -> Result<String, String> {
    if token == EMPTY_FIELD {
        Ok(String::new())
    } else {
        unescape(token)
    }
}

/// One tuple operation inside an `APPLY` request: an insertion (`+`) or a
/// deletion (`-`) carrying raw (schema-untyped) field strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleOp {
    /// `true` for an insertion, `false` for a deletion.
    pub insert: bool,
    /// The tuple's fields, in attribute order, untyped.
    pub values: Vec<String>,
}

impl TupleOp {
    /// An insertion op.
    pub fn insert<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Self {
        TupleOp {
            insert: true,
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// A deletion op.
    pub fn delete<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Self {
        TupleOp {
            insert: false,
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    fn render(&self) -> String {
        let sign = if self.insert { '+' } else { '-' };
        let fields: Vec<String> = self.values.iter().map(|v| encode_field(v)).collect();
        format!("{sign}{}", fields.join(","))
    }

    fn parse(token: &str) -> Result<TupleOp, String> {
        let insert = match token.chars().next() {
            Some('+') => true,
            Some('-') => false,
            _ => return Err(format!("tuple op `{token}` must start with + or -")),
        };
        let values = token[1..]
            .split(',')
            .map(decode_field)
            .collect::<Result<Vec<String>, String>>()?;
        Ok(TupleOp { insert, values })
    }
}

/// A parsed request line. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `PING`
    Ping,
    /// `EPOCH`
    Epoch,
    /// `DETECT` (`fresh = false`) or `DETECT FRESH` (`fresh = true`).
    Detect {
        /// Re-run detection over the snapshot instead of serving the cache.
        fresh: bool,
    },
    /// `CHECK`: cached vs fresh report on one snapshot.
    Check,
    /// `EXPLAIN`
    Explain,
    /// `EXPLAIN PLAN`: the compiled detection plan for the served
    /// constraint set, rendered.
    ExplainPlan,
    /// `APPLY <op>…`
    Apply {
        /// The insertions and deletions to enqueue, in order.
        ops: Vec<TupleOp>,
    },
    /// `SYNC`
    Sync,
    /// `REPAIR-PLAN`
    RepairPlan,
    /// `REPLAY <cursor> [<max>]`: stream applied WAL records.
    Replay {
        /// Log position (record index in the leader's WAL) to start from.
        cursor: u64,
        /// Maximum records to return (the server may clamp it further).
        max: usize,
    },
    /// `STATS [<prefix>]`: the metrics exposition, optionally filtered to
    /// metric names starting with `prefix`.
    Stats {
        /// Metric-name prefix filter (`None` = everything).
        prefix: Option<String>,
    },
    /// `INFO`: the cheap liveness probe.
    Info,
    /// `QUIT`
    Quit,
}

/// Default `max` when a `REPLAY` request omits it.
pub const REPLAY_DEFAULT_MAX: usize = 256;

/// The longest request line a server reads, newline included. A longer
/// line is dropped as it arrives and answered with `ERR`; the connection
/// stays usable.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Every wire verb, in [`Request::verb_index`] order — the label values of
/// the server's `serve.requests{verb=…}` / `serve.request.ns{verb=…}`
/// metrics.
pub const VERBS: [&str; 13] = [
    "PING",
    "EPOCH",
    "DETECT",
    "CHECK",
    "EXPLAIN",
    "EXPLAIN-PLAN",
    "APPLY",
    "SYNC",
    "REPAIR-PLAN",
    "REPLAY",
    "STATS",
    "INFO",
    "QUIT",
];

impl Request {
    /// Renders the request as one protocol line (without the newline).
    pub fn render(&self) -> String {
        match self {
            Request::Ping => "PING".into(),
            Request::Epoch => "EPOCH".into(),
            Request::Detect { fresh: false } => "DETECT".into(),
            Request::Detect { fresh: true } => "DETECT FRESH".into(),
            Request::Check => "CHECK".into(),
            Request::Explain => "EXPLAIN".into(),
            Request::ExplainPlan => "EXPLAIN PLAN".into(),
            Request::Apply { ops } => {
                let mut out = String::from("APPLY");
                for op in ops {
                    out.push(' ');
                    out.push_str(&op.render());
                }
                out
            }
            Request::Sync => "SYNC".into(),
            Request::RepairPlan => "REPAIR-PLAN".into(),
            Request::Replay { cursor, max } => format!("REPLAY {cursor} {max}"),
            Request::Stats { prefix: None } => "STATS".into(),
            Request::Stats {
                prefix: Some(prefix),
            } => format!("STATS {}", encode_field(prefix)),
            Request::Info => "INFO".into(),
            Request::Quit => "QUIT".into(),
        }
    }

    /// The wire verb of this request — the label value of the server's
    /// `serve.requests{verb=…}` / `serve.request.ns{verb=…}` metrics.
    pub fn verb(&self) -> &'static str {
        VERBS[self.verb_index()]
    }

    /// Position of this request's verb in [`VERBS`].
    pub fn verb_index(&self) -> usize {
        match self {
            Request::Ping => 0,
            Request::Epoch => 1,
            Request::Detect { .. } => 2,
            Request::Check => 3,
            Request::Explain => 4,
            Request::ExplainPlan => 5,
            Request::Apply { .. } => 6,
            Request::Sync => 7,
            Request::RepairPlan => 8,
            Request::Replay { .. } => 9,
            Request::Stats { .. } => 10,
            Request::Info => 11,
            Request::Quit => 12,
        }
    }

    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut tokens = line.split_whitespace();
        let verb = tokens.next().ok_or("empty request")?;
        let req = match verb {
            "PING" => Request::Ping,
            "EPOCH" => Request::Epoch,
            "DETECT" => match tokens.next() {
                None => Request::Detect { fresh: false },
                Some("FRESH") => Request::Detect { fresh: true },
                Some(other) => return Err(format!("unknown DETECT mode `{other}`")),
            },
            "CHECK" => Request::Check,
            "EXPLAIN" => match tokens.next() {
                None => Request::Explain,
                Some("PLAN") => Request::ExplainPlan,
                Some(other) => return Err(format!("unknown EXPLAIN mode `{other}`")),
            },
            "APPLY" => {
                let ops = tokens
                    .by_ref()
                    .map(TupleOp::parse)
                    .collect::<Result<Vec<TupleOp>, String>>()?;
                if ops.is_empty() {
                    return Err("APPLY needs at least one +tuple or -tuple".into());
                }
                return Ok(Request::Apply { ops });
            }
            "SYNC" => Request::Sync,
            "REPAIR-PLAN" => Request::RepairPlan,
            "REPLAY" => {
                let cursor = parse_num(&mut tokens, "replay cursor")?;
                let max = match tokens.next() {
                    Some(token) => token
                        .parse::<usize>()
                        .map_err(|_| format!("bad replay max `{token}`"))?,
                    None => REPLAY_DEFAULT_MAX,
                };
                Request::Replay { cursor, max }
            }
            "STATS" => Request::Stats {
                prefix: tokens.next().map(decode_field).transpose()?,
            },
            "INFO" => Request::Info,
            "QUIT" => Request::Quit,
            other => return Err(format!("unknown verb `{other}`")),
        };
        if let Some(extra) = tokens.next() {
            return Err(format!("unexpected trailing token `{extra}`"));
        }
        Ok(req)
    }

    /// Converts an `APPLY` request's raw fields into a typed [`Delta`]
    /// against the served base schema, rejecting wrong arities and untypable
    /// fields before anything reaches the ingest queue.
    pub fn ops_to_delta(ops: &[TupleOp], schema: &Schema) -> Result<Delta, String> {
        let mut delta = Delta::new();
        for op in ops {
            if op.values.len() != schema.arity() {
                return Err(format!(
                    "tuple has {} fields, schema `{}` has {}",
                    op.values.len(),
                    schema.name(),
                    schema.arity()
                ));
            }
            let values = schema
                .attributes()
                .iter()
                .zip(&op.values)
                .map(|(attr, field)| parse_typed(field, attr.data_type(), &attr.name))
                .collect::<Result<Vec<Value>, String>>()?;
            let tuple = Tuple::new(values);
            if op.insert {
                delta.insertions.push(tuple);
            } else {
                delta.deletions.push(tuple);
            }
        }
        Ok(delta)
    }
}

/// Parses one field against a declared column type (the CSV loader's rules:
/// `NULL` is null, `Int` / `Bool` columns parse typed, `Str` takes the field
/// verbatim).
pub fn parse_typed(field: &str, ty: DataType, attribute: &str) -> Result<Value, String> {
    if field.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    match ty {
        DataType::Str => Ok(Value::Str(field.to_string())),
        DataType::Int => field
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("`{field}` is not an integer (attribute {attribute})")),
        DataType::Bool => match field.to_ascii_lowercase().as_str() {
            "true" | "1" => Ok(Value::Bool(true)),
            "false" | "0" => Ok(Value::Bool(false)),
            _ => Err(format!(
                "`{field}` is not a boolean (attribute {attribute})"
            )),
        },
    }
}

/// Renders a typed value as an `APPLY`/`REPLAY` field string, inverse of
/// [`parse_typed`] for values that came out of a schema-checked tuple. The
/// one lossy corner: a `Str` whose content spells `NULL` re-parses as the
/// null value — the checkpoint report-hash comparison catches any divergence
/// such a value could cause downstream.
pub fn render_value(value: &Value) -> String {
    match value {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => s.clone(),
    }
}

/// Renders a delta's tuples as `REPLAY`/`APPLY` tuple ops (insertions first,
/// then deletions — the order [`Request::ops_to_delta`] reassembles).
pub fn delta_to_ops(delta: &Delta) -> Vec<TupleOp> {
    let render = |tuple: &Tuple| tuple.values().iter().map(render_value).collect::<Vec<_>>();
    delta
        .insertions
        .iter()
        .map(|t| TupleOp::insert(render(t)))
        .chain(delta.deletions.iter().map(|t| TupleOp::delete(render(t))))
        .collect()
}

/// One WAL record inside a `REPLAYED` response: the leader's log, re-encoded
/// for the wire. Deltas carry their ticket and the same tuple-op syntax as
/// `APPLY`; checkpoints carry the epoch/ticket/hash triple a follower
/// verifies against its own state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayRecord {
    /// `D@<ticket>@<op>|<op>|…` — an applied delta.
    Delta {
        /// The leader-side ingest ticket.
        ticket: u64,
        /// The delta's tuple operations, `APPLY` syntax.
        ops: Vec<TupleOp>,
    },
    /// `C@<epoch>@<last-ticket>@<report-hash>` — an epoch boundary.
    Checkpoint {
        /// Epoch the leader published.
        epoch: u64,
        /// Highest ticket that snapshot covers.
        last_ticket: u64,
        /// Canonical hash of the leader's detection report at that epoch.
        report_hash: u64,
    },
}

impl ReplayRecord {
    fn render(&self) -> String {
        match self {
            ReplayRecord::Delta { ticket, ops } => {
                if ops.is_empty() {
                    format!("D@{ticket}")
                } else {
                    let ops: Vec<String> = ops.iter().map(TupleOp::render).collect();
                    format!("D@{ticket}@{}", ops.join("|"))
                }
            }
            ReplayRecord::Checkpoint {
                epoch,
                last_ticket,
                report_hash,
            } => format!("C@{epoch}@{last_ticket}@{report_hash}"),
        }
    }

    fn parse(token: &str) -> Result<ReplayRecord, String> {
        let parts: Vec<&str> = token.split('@').collect();
        let num = |t: &str, label: &str| {
            t.parse::<u64>()
                .map_err(|_| format!("bad replay {label} `{t}`"))
        };
        match parts.as_slice() {
            ["D", ticket] => Ok(ReplayRecord::Delta {
                ticket: num(ticket, "ticket")?,
                ops: Vec::new(),
            }),
            ["D", ticket, ops] => Ok(ReplayRecord::Delta {
                ticket: num(ticket, "ticket")?,
                ops: ops
                    .split('|')
                    .map(TupleOp::parse)
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            ["C", epoch, last_ticket, report_hash] => Ok(ReplayRecord::Checkpoint {
                epoch: num(epoch, "epoch")?,
                last_ticket: num(last_ticket, "last ticket")?,
                report_hash: num(report_hash, "report hash")?,
            }),
            _ => Err(format!("malformed replay record `{token}`")),
        }
    }
}

/// One violating-group record inside an `EVIDENCE` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MvLine {
    /// Index of the violated constraint, as registered.
    pub constraint: usize,
    /// Index of the violated pattern tuple within that constraint.
    pub pattern: usize,
    /// The shared `t[X]` group key, rendered as display strings.
    pub key: Vec<String>,
    /// Member rows of the violating group.
    pub rows: Vec<u64>,
}

/// A parsed response line. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `PONG`
    Pong,
    /// `EPOCH …`: the current epoch and hub counters.
    Epoch {
        /// Epoch of the published snapshot.
        epoch: u64,
        /// Rows in the snapshot.
        rows: usize,
        /// Single-tuple violations in the published report.
        sv: usize,
        /// Multi-tuple violations in the published report.
        mv: usize,
        /// Deltas pending in the ingest queue.
        queued: usize,
        /// Writer-side apply errors so far.
        errors: u64,
    },
    /// `REPORT …`: a full detection report.
    Report {
        /// Epoch the report describes.
        epoch: u64,
        /// Rows inspected.
        total: usize,
        /// Rows with `SV = 1`.
        sv: Vec<u64>,
        /// Rows with `MV = 1`.
        mv: Vec<u64>,
    },
    /// `CHECKED …`: cached-vs-fresh comparison on one snapshot.
    Checked {
        /// Epoch both reports describe.
        epoch: u64,
        /// Rows inspected.
        total: usize,
        /// `SV` count of the fresh report.
        sv: usize,
        /// `MV` count of the fresh report.
        mv: usize,
        /// Whether the fresh report was byte-identical to the published one.
        consistent: bool,
    },
    /// `EVIDENCE …`: the evidence behind the published report.
    Evidence {
        /// Epoch the evidence describes.
        epoch: u64,
        /// Rows inspected.
        total: usize,
        /// `(row, constraint, pattern)` single-tuple records.
        sv: Vec<(u64, usize, usize)>,
        /// Violating-group records.
        mv: Vec<MvLine>,
    },
    /// `ACK …`: an `APPLY` was accepted into the queue.
    Ack {
        /// Ticket to `SYNC` on.
        ticket: u64,
        /// Epoch at acceptance time (the delta is *not* applied yet).
        epoch: u64,
    },
    /// `SYNCED …`: every prior `APPLY` on this connection is published.
    Synced {
        /// Epoch after the sync barrier.
        epoch: u64,
    },
    /// `PLAN …`: a repair plan summary.
    Plan {
        /// Epoch the plan was computed against.
        epoch: u64,
        /// Planned tuple deletions.
        deletions: usize,
        /// Planned value modifications.
        modifications: usize,
        /// Total plan cost under the engine's cost model.
        cost: f64,
    },
    /// `REPLAYED …`: a page of the durable leader's WAL.
    Replayed {
        /// The records, in log order.
        records: Vec<ReplayRecord>,
        /// Log position to pass as the next `REPLAY` cursor.
        next: u64,
    },
    /// `METRICS …`: the metrics exposition a `STATS` request asked for.
    Metrics {
        /// The exposition text (`name value` lines, sorted, trailing
        /// newline; empty when a prefix matched nothing). Carried on the
        /// wire as one percent-escaped token.
        text: String,
    },
    /// `PLANTEXT …`: the rendered detection plan an `EXPLAIN PLAN` request
    /// asked for.
    PlanText {
        /// The deterministic `Plan::render` text (one header line plus one
        /// line per scan and flag operator, trailing newline). Carried on
        /// the wire as one percent-escaped token.
        text: String,
    },
    /// `INFO …`: the liveness probe.
    Info {
        /// Server crate version.
        version: String,
        /// Epoch of the published snapshot.
        epoch: u64,
        /// Highest ticket accepted into the ingest queue.
        accepted: u64,
        /// Highest ticket applied and published by the writer.
        applied: u64,
        /// WAL mode: `off`, `durable`, or `recovered`.
        wal: String,
        /// Whether a follower replays a leader's WAL into this server.
        follower: bool,
    },
    /// `BYE`
    Bye,
    /// `ERR …`: the request failed; the connection stays usable.
    Err {
        /// Human-readable reason.
        message: String,
    },
}

fn render_ids(ids: &[u64]) -> String {
    if ids.is_empty() {
        "-".to_string()
    } else {
        ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
    }
}

fn parse_ids(token: &str) -> Result<Vec<u64>, String> {
    if token == "-" {
        return Ok(Vec::new());
    }
    token
        .split(',')
        .map(|t| t.parse::<u64>().map_err(|_| format!("bad row id `{t}`")))
        .collect()
}

fn parse_num<T: std::str::FromStr>(
    tokens: &mut std::str::SplitWhitespace<'_>,
    label: &str,
) -> Result<T, String> {
    let token = tokens.next().ok_or_else(|| format!("missing {label}"))?;
    token
        .parse::<T>()
        .map_err(|_| format!("bad {label} `{token}`"))
}

fn expect_tag(tokens: &mut std::str::SplitWhitespace<'_>, tag: &str) -> Result<(), String> {
    match tokens.next() {
        Some(t) if t == tag => Ok(()),
        Some(t) => Err(format!("expected `{tag}`, found `{t}`")),
        None => Err(format!("expected `{tag}`, found end of line")),
    }
}

impl Response {
    /// Renders the response as one protocol line (without the newline).
    pub fn render(&self) -> String {
        match self {
            Response::Pong => "PONG".into(),
            Response::Epoch {
                epoch,
                rows,
                sv,
                mv,
                queued,
                errors,
            } => {
                format!("EPOCH {epoch} ROWS {rows} SV {sv} MV {mv} QUEUED {queued} ERRORS {errors}")
            }
            Response::Report {
                epoch,
                total,
                sv,
                mv,
            } => format!(
                "REPORT EPOCH {epoch} TOTAL {total} SV {} MV {}",
                render_ids(sv),
                render_ids(mv)
            ),
            Response::Checked {
                epoch,
                total,
                sv,
                mv,
                consistent,
            } => format!(
                "CHECKED EPOCH {epoch} TOTAL {total} SV {sv} MV {mv} CONSISTENT {consistent}"
            ),
            Response::Evidence {
                epoch,
                total,
                sv,
                mv,
            } => {
                let sv_list = if sv.is_empty() {
                    "-".to_string()
                } else {
                    sv.iter()
                        .map(|(row, c, p)| format!("{row}:{c}.{p}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let mv_list = if mv.is_empty() {
                    "-".to_string()
                } else {
                    mv.iter()
                        .map(|g| {
                            let key = g
                                .key
                                .iter()
                                .map(|k| encode_field(k))
                                .collect::<Vec<_>>()
                                .join(",");
                            let rows = g
                                .rows
                                .iter()
                                .map(u64::to_string)
                                .collect::<Vec<_>>()
                                .join("|");
                            format!("{}.{}:{key}:{rows}", g.constraint, g.pattern)
                        })
                        .collect::<Vec<_>>()
                        .join(";")
                };
                format!("EVIDENCE EPOCH {epoch} TOTAL {total} SV {sv_list} MV {mv_list}")
            }
            Response::Ack { ticket, epoch } => format!("ACK TICKET {ticket} EPOCH {epoch}"),
            Response::Synced { epoch } => format!("SYNCED EPOCH {epoch}"),
            Response::Plan {
                epoch,
                deletions,
                modifications,
                cost,
            } => format!(
                "PLAN EPOCH {epoch} DELETIONS {deletions} MODIFICATIONS {modifications} COST {cost}"
            ),
            Response::Replayed { records, next } => {
                let list = if records.is_empty() {
                    "-".to_string()
                } else {
                    records
                        .iter()
                        .map(ReplayRecord::render)
                        .collect::<Vec<_>>()
                        .join(";")
                };
                format!("REPLAYED RECORDS {} {list} NEXT {next}", records.len())
            }
            Response::Metrics { text } => {
                format!(
                    "METRICS LINES {} {}",
                    text.lines().count(),
                    encode_field(text)
                )
            }
            Response::PlanText { text } => {
                format!(
                    "PLANTEXT LINES {} {}",
                    text.lines().count(),
                    encode_field(text)
                )
            }
            Response::Info {
                version,
                epoch,
                accepted,
                applied,
                wal,
                follower,
            } => format!(
                "INFO VERSION {} EPOCH {epoch} ACCEPTED {accepted} APPLIED {applied} \
                 WAL {} FOLLOWER {follower}",
                encode_field(version),
                encode_field(wal)
            ),
            Response::Bye => "BYE".into(),
            Response::Err { message } => format!("ERR {}", encode_field(message)),
        }
    }

    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let mut tokens = line.split_whitespace();
        let verb = tokens.next().ok_or("empty response")?;
        let response = match verb {
            "PONG" => Response::Pong,
            "EPOCH" => {
                let epoch = parse_num(&mut tokens, "epoch")?;
                expect_tag(&mut tokens, "ROWS")?;
                let rows = parse_num(&mut tokens, "rows")?;
                expect_tag(&mut tokens, "SV")?;
                let sv = parse_num(&mut tokens, "sv count")?;
                expect_tag(&mut tokens, "MV")?;
                let mv = parse_num(&mut tokens, "mv count")?;
                expect_tag(&mut tokens, "QUEUED")?;
                let queued = parse_num(&mut tokens, "queued")?;
                expect_tag(&mut tokens, "ERRORS")?;
                let errors = parse_num(&mut tokens, "errors")?;
                Response::Epoch {
                    epoch,
                    rows,
                    sv,
                    mv,
                    queued,
                    errors,
                }
            }
            "REPORT" => {
                expect_tag(&mut tokens, "EPOCH")?;
                let epoch = parse_num(&mut tokens, "epoch")?;
                expect_tag(&mut tokens, "TOTAL")?;
                let total = parse_num(&mut tokens, "total")?;
                expect_tag(&mut tokens, "SV")?;
                let sv = parse_ids(tokens.next().ok_or("missing SV ids")?)?;
                expect_tag(&mut tokens, "MV")?;
                let mv = parse_ids(tokens.next().ok_or("missing MV ids")?)?;
                Response::Report {
                    epoch,
                    total,
                    sv,
                    mv,
                }
            }
            "CHECKED" => {
                expect_tag(&mut tokens, "EPOCH")?;
                let epoch = parse_num(&mut tokens, "epoch")?;
                expect_tag(&mut tokens, "TOTAL")?;
                let total = parse_num(&mut tokens, "total")?;
                expect_tag(&mut tokens, "SV")?;
                let sv = parse_num(&mut tokens, "sv count")?;
                expect_tag(&mut tokens, "MV")?;
                let mv = parse_num(&mut tokens, "mv count")?;
                expect_tag(&mut tokens, "CONSISTENT")?;
                let consistent = match tokens.next() {
                    Some("true") => true,
                    Some("false") => false,
                    other => return Err(format!("bad consistency flag {other:?}")),
                };
                Response::Checked {
                    epoch,
                    total,
                    sv,
                    mv,
                    consistent,
                }
            }
            "EVIDENCE" => {
                expect_tag(&mut tokens, "EPOCH")?;
                let epoch = parse_num(&mut tokens, "epoch")?;
                expect_tag(&mut tokens, "TOTAL")?;
                let total = parse_num(&mut tokens, "total")?;
                expect_tag(&mut tokens, "SV")?;
                let sv_token = tokens.next().ok_or("missing SV evidence")?;
                let sv = if sv_token == "-" {
                    Vec::new()
                } else {
                    sv_token
                        .split(',')
                        .map(|item| {
                            let (row, source) =
                                item.split_once(':').ok_or("SV item needs row:c.p")?;
                            let (c, p) = source.split_once('.').ok_or("SV source needs c.p")?;
                            Ok((
                                row.parse().map_err(|_| format!("bad row `{row}`"))?,
                                c.parse().map_err(|_| format!("bad constraint `{c}`"))?,
                                p.parse().map_err(|_| format!("bad pattern `{p}`"))?,
                            ))
                        })
                        .collect::<Result<Vec<_>, String>>()?
                };
                expect_tag(&mut tokens, "MV")?;
                let mv_token = tokens.next().ok_or("missing MV evidence")?;
                let mv = if mv_token == "-" {
                    Vec::new()
                } else {
                    mv_token
                        .split(';')
                        .map(parse_mv_line)
                        .collect::<Result<Vec<_>, String>>()?
                };
                Response::Evidence {
                    epoch,
                    total,
                    sv,
                    mv,
                }
            }
            "ACK" => {
                expect_tag(&mut tokens, "TICKET")?;
                let ticket = parse_num(&mut tokens, "ticket")?;
                expect_tag(&mut tokens, "EPOCH")?;
                let epoch = parse_num(&mut tokens, "epoch")?;
                Response::Ack { ticket, epoch }
            }
            "SYNCED" => {
                expect_tag(&mut tokens, "EPOCH")?;
                let epoch = parse_num(&mut tokens, "epoch")?;
                Response::Synced { epoch }
            }
            "PLAN" => {
                expect_tag(&mut tokens, "EPOCH")?;
                let epoch = parse_num(&mut tokens, "epoch")?;
                expect_tag(&mut tokens, "DELETIONS")?;
                let deletions = parse_num(&mut tokens, "deletions")?;
                expect_tag(&mut tokens, "MODIFICATIONS")?;
                let modifications = parse_num(&mut tokens, "modifications")?;
                expect_tag(&mut tokens, "COST")?;
                let cost = parse_num(&mut tokens, "cost")?;
                Response::Plan {
                    epoch,
                    deletions,
                    modifications,
                    cost,
                }
            }
            "REPLAYED" => {
                expect_tag(&mut tokens, "RECORDS")?;
                let count: usize = parse_num(&mut tokens, "record count")?;
                let list = tokens.next().ok_or("missing replay records")?;
                let records = if list == "-" {
                    Vec::new()
                } else {
                    list.split(';')
                        .map(ReplayRecord::parse)
                        .collect::<Result<Vec<_>, String>>()?
                };
                if records.len() != count {
                    return Err(format!(
                        "REPLAYED claims {count} records but carries {}",
                        records.len()
                    ));
                }
                expect_tag(&mut tokens, "NEXT")?;
                let next = parse_num(&mut tokens, "next cursor")?;
                Response::Replayed { records, next }
            }
            "METRICS" => {
                expect_tag(&mut tokens, "LINES")?;
                let count: usize = parse_num(&mut tokens, "line count")?;
                let text = decode_field(tokens.next().ok_or("missing metrics payload")?)?;
                if text.lines().count() != count {
                    return Err(format!(
                        "METRICS claims {count} lines but carries {}",
                        text.lines().count()
                    ));
                }
                Response::Metrics { text }
            }
            "PLANTEXT" => {
                expect_tag(&mut tokens, "LINES")?;
                let count: usize = parse_num(&mut tokens, "line count")?;
                let text = decode_field(tokens.next().ok_or("missing plan payload")?)?;
                if text.lines().count() != count {
                    return Err(format!(
                        "PLANTEXT claims {count} lines but carries {}",
                        text.lines().count()
                    ));
                }
                Response::PlanText { text }
            }
            "INFO" => {
                expect_tag(&mut tokens, "VERSION")?;
                let version = decode_field(tokens.next().ok_or("missing version")?)?;
                expect_tag(&mut tokens, "EPOCH")?;
                let epoch = parse_num(&mut tokens, "epoch")?;
                expect_tag(&mut tokens, "ACCEPTED")?;
                let accepted = parse_num(&mut tokens, "accepted ticket")?;
                expect_tag(&mut tokens, "APPLIED")?;
                let applied = parse_num(&mut tokens, "applied ticket")?;
                expect_tag(&mut tokens, "WAL")?;
                let wal = decode_field(tokens.next().ok_or("missing wal mode")?)?;
                expect_tag(&mut tokens, "FOLLOWER")?;
                let follower = match tokens.next() {
                    Some("true") => true,
                    Some("false") => false,
                    other => return Err(format!("bad follower flag {other:?}")),
                };
                Response::Info {
                    version,
                    epoch,
                    accepted,
                    applied,
                    wal,
                    follower,
                }
            }
            "BYE" => Response::Bye,
            "ERR" => {
                let message = decode_field(tokens.next().unwrap_or(EMPTY_FIELD))?;
                return Ok(Response::Err { message });
            }
            other => return Err(format!("unknown response verb `{other}`")),
        };
        if let Some(extra) = tokens.next() {
            return Err(format!("unexpected trailing token `{extra}`"));
        }
        Ok(response)
    }
}

fn parse_mv_line(item: &str) -> Result<MvLine, String> {
    let mut parts = item.splitn(3, ':');
    let source = parts.next().ok_or("MV item needs c.p:key:rows")?;
    let key_part = parts.next().ok_or("MV item needs a key section")?;
    let rows_part = parts.next().ok_or("MV item needs a rows section")?;
    let (c, p) = source.split_once('.').ok_or("MV source needs c.p")?;
    let key = if key_part.is_empty() {
        Vec::new()
    } else {
        key_part
            .split(',')
            .map(decode_field)
            .collect::<Result<Vec<_>, String>>()?
    };
    let rows = rows_part
        .split('|')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<u64>().map_err(|_| format!("bad row `{t}`")))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(MvLine {
        constraint: c.parse().map_err(|_| format!("bad constraint `{c}`"))?,
        pattern: p.parse().map_err(|_| format!("bad pattern `{p}`"))?,
        key,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::Schema;

    #[test]
    fn escaping_round_trips_hostile_values() {
        for raw in [
            "",
            "plain",
            "Tree Ave.",
            "a,b;c:d|e@f",
            "+leading",
            "-leading",
            "100% done",
            "newline\nand\ttab",
            "Zürich 東京",
            "%e",
        ] {
            let encoded = encode_field(raw);
            assert!(!encoded.contains(' '), "`{encoded}` must be one token");
            assert_eq!(decode_field(&encoded).unwrap(), raw, "field `{raw}`");
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Ping,
            Request::Epoch,
            Request::Detect { fresh: false },
            Request::Detect { fresh: true },
            Request::Check,
            Request::Explain,
            Request::ExplainPlan,
            Request::Apply {
                ops: vec![
                    TupleOp::insert(["Albany", "518"]),
                    TupleOp::delete(["New York City", ""]),
                ],
            },
            Request::Sync,
            Request::RepairPlan,
            Request::Replay {
                cursor: 0,
                max: 256,
            },
            Request::Replay {
                cursor: 917,
                max: 16,
            },
            Request::Stats { prefix: None },
            Request::Stats {
                prefix: Some("wal.".into()),
            },
            Request::Info,
            Request::Quit,
        ];
        for request in requests {
            let line = request.render();
            assert_eq!(Request::parse(&line), Ok(request), "line `{line}`");
        }
        assert_eq!(
            Request::parse("REPLAY 5"),
            Ok(Request::Replay {
                cursor: 5,
                max: REPLAY_DEFAULT_MAX
            }),
            "max is optional"
        );
        assert!(Request::parse("NOPE").is_err());
        assert!(Request::parse("APPLY").is_err());
        assert!(Request::parse("DETECT SIDEWAYS").is_err());
        assert!(Request::parse("EXPLAIN SIDEWAYS").is_err());
        assert!(Request::parse("EXPLAIN PLAN EXTRA").is_err());
        assert!(Request::parse("PING PONG").is_err());
        assert!(Request::parse("REPLAY").is_err());
        assert!(Request::parse("REPLAY x").is_err());
        assert!(Request::parse("STATS wal. extra").is_err());
        assert!(Request::parse("INFO extra").is_err());
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Pong,
            Response::Epoch {
                epoch: 7,
                rows: 42,
                sv: 2,
                mv: 4,
                queued: 1,
                errors: 0,
            },
            Response::Report {
                epoch: 7,
                total: 42,
                sv: vec![1, 5],
                mv: vec![],
            },
            Response::Checked {
                epoch: 7,
                total: 42,
                sv: 2,
                mv: 0,
                consistent: true,
            },
            Response::Evidence {
                epoch: 7,
                total: 42,
                sv: vec![(3, 0, 1), (9, 1, 0)],
                mv: vec![
                    MvLine {
                        constraint: 0,
                        pattern: 0,
                        key: vec!["Albany".into(), "".into()],
                        rows: vec![0, 6],
                    },
                    MvLine {
                        constraint: 2,
                        pattern: 1,
                        key: vec!["New York City".into()],
                        rows: vec![4],
                    },
                ],
            },
            Response::Evidence {
                epoch: 1,
                total: 0,
                sv: vec![],
                mv: vec![],
            },
            Response::Ack {
                ticket: 12,
                epoch: 7,
            },
            Response::Synced { epoch: 9 },
            Response::Plan {
                epoch: 7,
                deletions: 2,
                modifications: 1,
                cost: 3.5,
            },
            Response::Replayed {
                records: vec![
                    ReplayRecord::Checkpoint {
                        epoch: 2,
                        last_ticket: 0,
                        report_hash: u64::MAX,
                    },
                    ReplayRecord::Delta {
                        ticket: 1,
                        ops: vec![
                            TupleOp::insert(["Tree Ave.", ""]),
                            TupleOp::delete(["a@b|c;d", "518"]),
                        ],
                    },
                    ReplayRecord::Delta {
                        ticket: 2,
                        ops: vec![],
                    },
                ],
                next: 3,
            },
            Response::Replayed {
                records: vec![],
                next: 0,
            },
            Response::Metrics {
                text: "ingest.accepted 3\nserve.requests{verb=\"APPLY\"} 3\n".into(),
            },
            Response::Metrics {
                text: String::new(),
            },
            Response::PlanText {
                text: "plan table=cust mode=fused singles=3 scans=1\nscan[0] x=[CT]\n  flag c0.p0 check=[AC] group=[AC]\n".into(),
            },
            Response::PlanText {
                text: String::new(),
            },
            Response::Info {
                version: "0.1.0".into(),
                epoch: 9,
                accepted: 12,
                applied: 12,
                wal: "recovered".into(),
                follower: false,
            },
            Response::Bye,
            Response::Err {
                message: "tuple has 1 fields, schema `cust` has 2".into(),
            },
        ];
        for response in responses {
            let line = response.render();
            assert_eq!(Response::parse(&line), Ok(response), "line `{line}`");
        }
        assert!(Response::parse("REPORT EPOCH x").is_err());
        assert!(Response::parse("PONG PONG").is_err());
        assert!(
            Response::parse("REPLAYED RECORDS 2 D@1 NEXT 2").is_err(),
            "record count must match the list"
        );
        assert!(
            Response::parse("METRICS LINES 2 a%201").is_err(),
            "line count must match the payload"
        );
        assert!(
            Response::parse("PLANTEXT LINES 3 one%0Aline%0A").is_err(),
            "plan line count must match the payload"
        );
    }

    #[test]
    fn replayed_deltas_reassemble_through_ops_to_delta() {
        let schema = Schema::builder("t")
            .attr("CT", ecfd_relation::DataType::Str)
            .attr("N", ecfd_relation::DataType::Int)
            .build();
        let delta = Delta {
            insertions: vec![Tuple::new(vec![
                Value::str("Tree Ave., #2"),
                Value::Int(-7),
            ])],
            deletions: vec![Tuple::new(vec![Value::Null, Value::Int(0)])],
        };
        let ops = delta_to_ops(&delta);
        // Over the wire and back.
        let line = Response::Replayed {
            records: vec![ReplayRecord::Delta { ticket: 9, ops }],
            next: 1,
        }
        .render();
        let Ok(Response::Replayed { records, .. }) = Response::parse(&line) else {
            panic!("round trip failed for `{line}`");
        };
        let ReplayRecord::Delta { ticket, ops } = &records[0] else {
            panic!("wrong record kind");
        };
        assert_eq!(*ticket, 9);
        let rebuilt = Request::ops_to_delta(ops, &schema).unwrap();
        assert_eq!(rebuilt, delta, "typed delta survives the wire");
    }

    #[test]
    fn ops_become_typed_deltas_against_the_schema() {
        let schema = Schema::builder("t")
            .attr("CT", ecfd_relation::DataType::Str)
            .attr("N", ecfd_relation::DataType::Int)
            .attr("OK", ecfd_relation::DataType::Bool)
            .build();
        let ops = vec![
            TupleOp::insert(["Albany", "7", "true"]),
            TupleOp::delete(["NYC", "NULL", "false"]),
        ];
        let delta = Request::ops_to_delta(&ops, &schema).unwrap();
        assert_eq!(delta.insertions.len(), 1);
        assert_eq!(delta.deletions.len(), 1);
        assert_eq!(delta.insertions[0].values()[1], Value::Int(7));
        assert_eq!(delta.deletions[0].values()[1], Value::Null);
        assert_eq!(delta.deletions[0].values()[2], Value::Bool(false));

        let wrong_arity = vec![TupleOp::insert(["x"])];
        assert!(Request::ops_to_delta(&wrong_arity, &schema)
            .unwrap_err()
            .contains("fields"));
        let wrong_type = vec![TupleOp::insert(["x", "seven", "true"])];
        assert!(Request::ops_to_delta(&wrong_type, &schema)
            .unwrap_err()
            .contains("integer"));
    }
}
