//! The `serve` child process and the line client that talks to it.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single reply may take before the run counts it as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// `/proc/<pid>/stat` times are in `USER_HZ` ticks, which Linux fixes at 100.
const TICKS_PER_SEC: f64 = 100.0;

/// A running `serve` process. Dropping it kills the process and waits for it.
pub struct ServerProcess {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address, read from the `serving on …` banner.
    pub addr: String,
    /// Spawn → first `PONG`.
    pub setup: Duration,
}

impl ServerProcess {
    /// Spawns `bin` with `args` on an ephemeral port and waits until it
    /// answers `PING`.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServerProcess, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve exited before printing its address".to_string());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let mut server = ServerProcess {
            child,
            _stdout: stdout,
            addr,
            setup: Duration::ZERO,
        };
        let mut conn = server.connect()?;
        match conn.call("PING")? {
            "PONG" => {}
            other => return Err(format!("PING answered `{}`", clip(other))),
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    /// Opens a protocol connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// CPU seconds (user + system) the server has used so far.
    pub fn cpu_seconds(&self) -> Option<f64> {
        cpu_seconds_of(&format!("/proc/{}/stat", self.child.id()))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU seconds (user + system) this process has used so far.
pub fn own_cpu_seconds() -> Option<f64> {
    cpu_seconds_of("/proc/self/stat")
}

fn cpu_seconds_of(path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// One protocol connection: a request line out, a reply line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("configuring socket: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 20, stream),
            writer,
            reply: String::new(),
        })
    }

    /// Sends `request` and returns the reply line without its newline. A
    /// closed connection or a timeout is an error.
    pub fn call(&mut self, request: &str) -> Result<&str, String> {
        let mut line = Vec::with_capacity(request.len() + 1);
        line.extend_from_slice(request.as_bytes());
        line.push(b'\n');
        self.writer
            .write_all(&line)
            .map_err(|e| format!("sending `{}`: {e}", clip(request)))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end_matches(['\n', '\r'])),
            Err(e) => Err(format!("reading reply to `{}`: {e}", clip(request))),
        }
    }
}

/// The first 80 characters of a protocol line, for error messages.
pub fn clip(line: &str) -> String {
    line.chars().take(80).collect()
}
