//! The load generator: the server under test in its own process, and a
//! closed loop over [`CONNS`] connections in which each caller waits for
//! its reply before sending the next request, as `Client` does.

use crate::gen::{Kind, Stream, CONNS};
use portnum_serve::framing::{read_frame, write_frame};
use portnum_serve::{Response, ServeConfig, Server, ServerStats};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::io::{self, BufRead, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The server under test.
pub enum Backend {
    /// The `portnum-serve` binary with its default configuration.
    Process { child: Child, addr: SocketAddr },
    /// The library server in this process (smoke tests only).
    InProcess(Server),
}

impl Backend {
    /// Starts `bin` with no `PORTNUM_SERVE_*` knobs set, so it serves
    /// with the default `ServeConfig`, and reads back its address.
    pub fn spawn(bin: &Path) -> io::Result<Backend> {
        let mut cmd = Command::new(bin);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("PORTNUM_SERVE_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().rsplit(' ').next()?.parse().ok());
        match addr {
            Some(addr) => Ok(Backend::Process { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server printed no address: {line:?}"
                )))
            }
        }
    }

    /// Starts the library server with the default configuration.
    pub fn in_process() -> io::Result<Backend> {
        Server::start(ServeConfig::default()).map(Backend::InProcess)
    }

    /// The address to dial.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Backend::Process { addr, .. } => *addr,
            Backend::InProcess(server) => server.addr(),
        }
    }

    /// Peak resident set (VmHWM) of the serving process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match self {
            Backend::Process { child, .. } => vm_hwm_mb(&format!("/proc/{}/status", child.id())),
            Backend::InProcess(_) => vm_hwm_mb("/proc/self/status"),
        }
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        if let Backend::Process { child, .. } = self {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One connection, framed like `Client`, with `TCP_NODELAY` on the
/// client side as `Client::connect` sets it.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one frame and returns the raw response frame.
    pub fn call(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.writer, body)?;
        match read_frame(&mut self.reader) {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            )),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Sends one frame and fails unless the answer decodes and is no
    /// error frame.
    pub fn call_ok(&mut self, body: &[u8]) -> io::Result<Response> {
        let resp =
            Response::decode(&self.call(body)?).map_err(|e| io::Error::other(e.to_string()))?;
        match resp {
            Response::Error(e) => Err(io::Error::other(format!("error frame: {e}"))),
            ok => Ok(ok),
        }
    }

    /// The server's aggregated counters.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        match self.call_ok(&portnum_serve::Request::Stats.encode())? {
            Response::Stats(s) => Ok(s),
            other => Err(io::Error::other(format!("expected stats, got {other:?}"))),
        }
    }
}

/// The hash a response frame is compared by.
pub fn frame_hash(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(body);
    h.finish()
}

/// Everything one connection sent and received in the timed loop.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub sent: Vec<Vec<u8>>,
    pub kinds: Vec<Kind>,
    /// Send of the request to decode of its response.
    pub latency_ns: Vec<u64>,
    /// Completion time since the loop started.
    pub done_ns: Vec<u64>,
    pub resp_hash: Vec<u64>,
    /// Whether the response decoded and was no error frame.
    pub resp_ok: Vec<bool>,
    /// The request whose transport failed (the loop stops there).
    pub transport_failure: Option<String>,
}

/// One connection and its stream, as a closed-loop caller drives them.
struct Caller {
    conn: Conn,
    stream: Stream,
    log: ConnLog,
}

impl Caller {
    /// Sends the stream's next request and waits for its reply; false
    /// once the transport has failed.
    fn step(&mut self, start: Instant) -> bool {
        let out = self.stream.next_request();
        let sent = Instant::now();
        let result = self.conn.call(&out.body).map(|frame| {
            let decoded = Response::decode(&frame);
            (frame, decoded)
        });
        let done = Instant::now();
        let log = &mut self.log;
        log.sent.push(out.body);
        log.kinds.push(out.kind);
        log.latency_ns.push((done - sent).as_nanos() as u64);
        log.done_ns.push((done - start).as_nanos() as u64);
        match result {
            Ok((frame, decoded)) => {
                log.resp_ok
                    .push(matches!(decoded, Ok(r) if !matches!(r, Response::Error(_))));
                log.resp_hash.push(frame_hash(&frame));
                true
            }
            Err(e) => {
                log.resp_ok.push(false);
                log.resp_hash.push(0);
                log.transport_failure = Some(e.to_string());
                false
            }
        }
    }
}

/// How the closed loop drives the connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callers {
    /// One caller per connection, all in flight at once.
    Concurrent,
    /// One caller taking the connections in turn, one request in flight.
    InTurn,
}

/// Runs each connection's stream for `seconds`; every caller waits for
/// its reply before sending the next request.
pub fn closed_loop(
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    seconds: f64,
    callers: Callers,
) -> Vec<ConnLog> {
    assert_eq!(conns.len(), CONNS);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut all: Vec<Caller> = conns
        .into_iter()
        .zip(streams)
        .map(|(conn, stream)| Caller {
            conn,
            stream,
            log: ConnLog::default(),
        })
        .collect();
    match callers {
        Callers::Concurrent => std::thread::scope(|scope| {
            for caller in &mut all {
                scope.spawn(move || while Instant::now() < until && caller.step(start) {});
            }
        }),
        Callers::InTurn => {
            'turns: while Instant::now() < until {
                for caller in &mut all {
                    if !caller.step(start) {
                        break 'turns;
                    }
                }
            }
        }
    }
    all.into_iter().map(|c| c.log).collect()
}
