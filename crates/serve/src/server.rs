//! The server: a `TcpListener` accept loop, one connection thread per
//! client, and the shard fan-out.
//!
//! Connection threads walk frames, route model-keyed requests to the
//! owning shard over a *bounded* queue (full queue = `Overloaded`
//! error frame, the shedding half of admission control), answer
//! `Ping`/`Stats` in place, and write the reply frame. A Check frame
//! travels to its shard as its body, with the formula texts unparsed
//! (see [`crate::protocol`]). A malformed frame body is answered with a
//! `Protocol` error frame and the connection continues — the frame
//! boundary is intact. Every `Protocol` error frame counts in
//! `protocol_errors`, including the `BadFormula` frames shards answer.
//! An oversized length prefix is answered and then the connection
//! closes: past a corrupt prefix there is no boundary left to trust.
//!
//! Accepted sockets set `TCP_NODELAY`. Replies go through a
//! `BufWriter` of 8 KiB, so a body of 8 KiB or more is written as two
//! segments: the 4-byte length prefix flushed on its own, then the
//! body. With Nagle's algorithm on, the body waits for the ACK of the
//! prefix, and the client delays that ACK (about 40 ms on Linux), so
//! every large answer would stall for that long.

use crate::config::ServeConfig;
use crate::framing::{read_frame, write_frame, FrameError};
use crate::protocol::{ErrorCode, Request, Response, ServerStats, WireRequest};
use crate::shard::{self, ShardCmd, ShardStats};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Counters owned by the connection layer (shards keep their own).
#[derive(Debug, Default)]
struct ServerCounters {
    protocol_errors: AtomicU64,
    queue_shed: AtomicU64,
}

/// A running server. Dropping it (or calling
/// [`shutdown`](Server::shutdown)) stops the accept loop; shard and
/// connection threads drain and exit once their queues close.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, spawns the shards and the accept loop, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let cfg = Arc::new(cfg);
        let shards: Arc<[SyncSender<ShardCmd>]> = (0..cfg.shards)
            .map(|i| {
                let (tx, rx) = mpsc::sync_channel(cfg.queue_cap);
                let cfg = Arc::clone(&cfg);
                thread::Builder::new()
                    .name(format!("serve-shard-{i}"))
                    .spawn(move || shard::run(rx, cfg))
                    .expect("spawning a shard worker");
                tx
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServerCounters::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let cfg = Arc::clone(&cfg);
            thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let shards = Arc::clone(&shards);
                        let counters = Arc::clone(&counters);
                        let cfg = Arc::clone(&cfg);
                        let _ = thread::Builder::new().name("serve-conn".to_string()).spawn(
                            move || {
                                let _ = serve_connection(stream, &shards, &counters, &cfg);
                            },
                        );
                    }
                })
                .expect("spawning the accept loop")
        };
        Ok(Server { addr, stop, accept: Some(accept) })
    }

    /// The bound address (read this back when binding port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Idempotent. Established
    /// connections keep being served until the clients hang up.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.accept.take() else { return };
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's read-decode-route-reply loop.
fn serve_connection(
    stream: TcpStream,
    shards: &[SyncSender<ShardCmd>],
    counters: &ServerCounters,
    cfg: &ServeConfig,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let body = match read_frame(&mut reader) {
            Ok(Some(body)) => body,
            // Clean close, or the transport died: nothing to answer.
            Ok(None) | Err(FrameError::Io(_)) => return Ok(()),
            Err(FrameError::Protocol(e)) => {
                // Oversized prefix: report, then close — the stream
                // has no trustworthy frame boundary anymore.
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::error(ErrorCode::Protocol, e.to_string());
                let _ = write_frame(&mut writer, &resp.encode());
                return Ok(());
            }
        };
        let resp = match WireRequest::decode(body) {
            Ok(req) => route(req, shards, counters, cfg),
            // The body was malformed but fully framed: answer and keep
            // going, the next frame is still addressable.
            Err(e) => Response::error(ErrorCode::Protocol, e.to_string()),
        };
        if matches!(&resp, Response::Error(e) if e.code == ErrorCode::Protocol) {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
        if write_frame(&mut writer, &resp.encode()).is_err() {
            return Ok(());
        }
    }
}

fn route(
    req: WireRequest,
    shards: &[SyncSender<ShardCmd>],
    counters: &ServerCounters,
    cfg: &ServeConfig,
) -> Response {
    let model = match &req {
        WireRequest::Other(Request::Ping) => return Response::Pong,
        WireRequest::Other(Request::Stats) => return aggregate_stats(shards, counters, cfg),
        WireRequest::Check { model, .. }
        | WireRequest::Other(
            Request::Load { model, .. }
            | Request::Evict { model }
            | Request::Check { model, .. }
            | Request::Delta { model, .. },
        ) => *model,
    };
    let shard = &shards[(model % shards.len() as u64) as usize];
    let (tx, rx) = mpsc::channel();
    let (cmd, resp) = match shard.try_send(ShardCmd::Op { req, reply: tx }) {
        Ok(()) => {
            return rx.recv().unwrap_or_else(|_| {
                Response::error(ErrorCode::Internal, "shard worker terminated")
            })
        }
        Err(TrySendError::Full(cmd)) => {
            counters.queue_shed.fetch_add(1, Ordering::Relaxed);
            (
                cmd,
                Response::error(
                    ErrorCode::Overloaded,
                    format!("shard queue full ({} requests deep)", cfg.queue_cap),
                ),
            )
        }
        Err(TrySendError::Disconnected(cmd)) => {
            (cmd, Response::error(ErrorCode::Internal, "shard worker terminated"))
        }
    };
    // A formula text that does not parse is the frame's own fault, and
    // it is answered before the server's.
    let bad_text = match &cmd {
        ShardCmd::Op { req, .. } => req.bad_text(),
        ShardCmd::Stats { .. } => None,
    };
    bad_text.map_or(resp, |e| Response::error(ErrorCode::Protocol, e.to_string()))
}

fn aggregate_stats(
    shards: &[SyncSender<ShardCmd>],
    counters: &ServerCounters,
    cfg: &ServeConfig,
) -> Response {
    let mut total = ServerStats {
        shards: shards.len() as u64,
        mem_budget: cfg.mem_budget as u64,
        shed: counters.queue_shed.load(Ordering::Relaxed),
        protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
        ..ServerStats::default()
    };
    for shard in shards {
        let (tx, rx) = mpsc::channel();
        if shard.send(ShardCmd::Stats { reply: tx }).is_err() {
            continue;
        }
        let Ok(s) = rx.recv() else { continue };
        let ShardStats {
            models,
            mem_bytes,
            loads,
            evictions,
            cache_trims,
            checks,
            formulas_checked,
            deltas,
            shed,
            interrupted,
            internal_errors,
        } = s;
        total.models += models;
        total.mem_bytes += mem_bytes;
        total.loads += loads;
        total.evictions += evictions;
        total.cache_trims += cache_trims;
        total.checks += checks;
        total.formulas_checked += formulas_checked;
        total.deltas += deltas;
        total.shed += shed;
        total.interrupted += interrupted;
        total.internal_errors += internal_errors;
    }
    let pool = portnum_graph::pool::WorkerPool::global().stats();
    total.pool_workers = pool.workers as u64;
    total.pool_dispatch_cost_ns = pool.dispatch_cost_ns;
    total.pool_respawns = pool.respawn_count as u64;
    Response::Stats(total)
}
