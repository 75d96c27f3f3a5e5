//! `bips-serve`: the sharded engine behind a real socket.
//!
//! Serves a [`ShardedService`] over loopback TCP or a Unix-domain
//! socket using the exact `lan::rpc` frame format the simulated
//! deployment speaks, length-delimited for the byte stream by
//! `lan::stream` (`[len u32 LE][rpc frame]`). The design is
//! thread-per-connection over blocking std sockets — no event-loop
//! dependency exists in this workspace and none is added:
//!
//! * **Incremental reframing.** Each connection owns a
//!   [`StreamReframer`]; reads land in a fixed 64 KiB buffer and frames
//!   are cut zero-copy ([`RpcCodec::decode_ref_bytes`] borrows straight
//!   from the reframer's buffer). Partial reads, coalesced frames, and
//!   frames straddling reads all reassemble identically — the stream
//!   proptests pin this down.
//! * **Coalesced writes.** All responses produced by one read batch are
//!   encoded back-to-back into one write buffer (in place:
//!   [`begin_stream_frame`] / [`RpcCodec::append_response_header`] /
//!   [`ShardedService::serve_payload`] / [`end_stream_frame`], no
//!   per-response allocation) and flushed with a single `write_all`.
//! * **Bounded backpressure.** The server reads at most 64 KiB before
//!   serving and responding, and flushes the write buffer whenever it
//!   crosses the coalesce limit (256 KiB) mid-batch. A client that
//!   pipelines faster than the engine serves is throttled by the
//!   socket's own flow control; per-connection memory stays bounded by
//!   the reframer cap plus the coalesce limit.
//! * **Graceful shutdown.** A [`Request::Shutdown`] frame acks, stops
//!   the acceptor, and drains: every live connection keeps being served
//!   until its peer closes or stays silent for 100 ms, and the acceptor
//!   joins them all before [`Server::serve`] returns. Each accepted
//!   connection gets that read timeout once, so an idle peer cannot
//!   hold up the drain and no read costs an extra syscall.
//!
//! Protocol errors — bytes that do not deframe, frames that are not
//! RPC requests, payloads outside the serving subset — drop that
//! connection (counted in `serve.dropped`) without disturbing others.
//!
//! [`Request::Shutdown`]: bips_core::protocol::Request::Shutdown

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bips_core::service::{Served, ShardedService};
use bips_lan::network::HostId;
use bips_lan::rpc::{RpcCodec, RpcFrame};
use bips_lan::stream::{begin_stream_frame, end_stream_frame, StreamReframer};
use desim::metrics::MetricSet;

/// Read buffer size per connection; also the most the server ingests
/// from one peer before serving what it has.
const READ_BUF: usize = 64 * 1024;

/// Flush the coalesced write buffer once it grows past this, bounding
/// per-connection memory under deep client pipelining.
const WRITE_COALESCE_LIMIT: usize = 256 * 1024;

/// The read timeout of every accepted connection: how often a silent
/// connection's thread wakes to see whether a drain has begun, and so
/// the longest an idle peer delays [`Server::serve`]'s return.
const DRAIN_POLL: Duration = Duration::from_millis(100);

/// Where a server listens and its clients connect: loopback TCP or a
/// Unix-domain socket path.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP on the given address, e.g. `127.0.0.1:0` for an ephemeral
    /// port.
    Tcp(String),
    /// Unix-domain socket at the given path (unlinked on bind).
    Uds(PathBuf),
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener, PathBuf),
}

/// One connected stream of either kind: accepted by the server or
/// dialled by the socket client.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Conn {
    /// Connects to `bind`. TCP sets nodelay: a closed-loop client must
    /// never have Nagle hold a request back.
    pub(crate) fn dial(bind: &Bind) -> io::Result<Conn> {
        Ok(match bind {
            Bind::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Conn::Tcp(s)
            }
            Bind::Uds(path) => Conn::Uds(UnixStream::connect(path)?),
        })
    }

    /// Sets the socket's read timeout.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            Conn::Uds(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Uds(s) => s.flush(),
        }
    }
}

/// Lifetime counters for one [`Server::serve`] run, shared across connection
/// threads.
#[derive(Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub conns: AtomicU64,
    /// Request frames served.
    pub frames: AtomicU64,
    /// Bytes read off sockets.
    pub bytes_in: AtomicU64,
    /// Bytes written to sockets.
    pub bytes_out: AtomicU64,
    /// Connections dropped on protocol errors (bad frame, non-request,
    /// unserveable payload), or closed by the drain with part of a
    /// request unread.
    pub dropped: AtomicU64,
}

impl ServeStats {
    /// Exports the counters as `serve.*` metrics (catalogued in
    /// `docs/OBSERVABILITY.md`).
    pub fn export_metrics(&self, metrics: &mut MetricSet) {
        metrics.set_counter("serve.conns", self.conns.load(Ordering::Relaxed));
        metrics.set_counter("serve.frames", self.frames.load(Ordering::Relaxed));
        metrics.set_counter("serve.bytes_in", self.bytes_in.load(Ordering::Relaxed));
        metrics.set_counter("serve.bytes_out", self.bytes_out.load(Ordering::Relaxed));
        metrics.set_counter("serve.dropped", self.dropped.load(Ordering::Relaxed));
    }
}

/// A bound, not-yet-serving server: split from [`Server::serve`] so callers
/// can learn the actual address (ephemeral ports) before the first
/// client connects.
pub struct Server {
    listener: Listener,
    svc: Arc<ShardedService>,
    flush_jobs: usize,
}

impl Server {
    /// Binds the listener. For [`Bind::Uds`], a stale socket file at
    /// the path is unlinked first.
    pub fn bind(bind: &Bind, svc: Arc<ShardedService>, flush_jobs: usize) -> io::Result<Server> {
        let listener = match bind {
            Bind::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
            Bind::Uds(path) => {
                let _ = std::fs::remove_file(path);
                Listener::Uds(UnixListener::bind(path)?, path.clone())
            }
        };
        Ok(Server {
            listener,
            svc,
            flush_jobs,
        })
    }

    /// The bound TCP address, if TCP.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Uds(..) => None,
        }
    }

    /// Human-readable listen address for the `LISTENING` stdout line.
    pub fn addr_string(&self) -> String {
        match &self.listener {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|e| format!("<tcp addr error: {e}>")),
            Listener::Uds(_, path) => path.display().to_string(),
        }
    }

    /// Accepts and serves connections until a client sends
    /// [`Request::Shutdown`](bips_core::protocol::Request::Shutdown),
    /// then drains every live connection and returns the run's
    /// counters.
    pub fn serve(self) -> ServeStats {
        let stats = Arc::new(ServeStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let mut next_host: usize = 1;
        loop {
            let conn = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                Listener::Uds(l, _) => l.accept().map(|(s, _)| Conn::Uds(s)),
            };
            if shutdown.load(Ordering::SeqCst) {
                break; // the accept above was the shutdown wake-up
            }
            let conn = match conn {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("accept error: {e}");
                    continue;
                }
            };
            stats.conns.fetch_add(1, Ordering::Relaxed);
            let svc = Arc::clone(&self.svc);
            let stats_c = Arc::clone(&stats);
            let shutdown_c = Arc::clone(&shutdown);
            let wake = self.wake_target();
            let host = HostId::new(next_host);
            next_host += 1;
            let jobs = self.flush_jobs;
            let handle = std::thread::Builder::new()
                .name(format!("bips-serve-conn-{next_host}"))
                .spawn(move || {
                    if let Err(e) = serve_conn(conn, host, &svc, jobs, &stats_c, &shutdown_c, &wake)
                    {
                        // Peer resets mid-write are business as usual
                        // for a drain; anything else is worth a line.
                        if e.kind() != io::ErrorKind::ConnectionReset
                            && e.kind() != io::ErrorKind::BrokenPipe
                        {
                            eprintln!("connection error: {e}");
                        }
                    }
                });
            match handle {
                Ok(h) => workers.push(h),
                Err(e) => eprintln!("spawn error: {e}"),
            }
        }
        // Drain: serve every live connection to its close.
        for h in workers {
            let _ = h.join();
        }
        if let Listener::Uds(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        match Arc::try_unwrap(stats) {
            Ok(s) => s,
            Err(arc) => ServeStats {
                conns: AtomicU64::new(arc.conns.load(Ordering::Relaxed)),
                frames: AtomicU64::new(arc.frames.load(Ordering::Relaxed)),
                bytes_in: AtomicU64::new(arc.bytes_in.load(Ordering::Relaxed)),
                bytes_out: AtomicU64::new(arc.bytes_out.load(Ordering::Relaxed)),
                dropped: AtomicU64::new(arc.dropped.load(Ordering::Relaxed)),
            },
        }
    }

    /// The address a shutdown handler dials to unblock `accept`.
    fn wake_target(&self) -> Bind {
        match &self.listener {
            Listener::Tcp(l) => Bind::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| String::new()),
            ),
            Listener::Uds(_, path) => Bind::Uds(path.clone()),
        }
    }
}

/// Dials the listener once so a blocked `accept` returns and observes
/// the shutdown flag.
fn wake_acceptor(bind: &Bind) {
    drop(Conn::dial(bind));
}

/// Serves one connection to EOF, protocol error, or shutdown: its own
/// `Shutdown` request, or a read that times out once a drain has begun.
fn serve_conn(
    mut conn: Conn,
    host: HostId,
    svc: &ShardedService,
    flush_jobs: usize,
    stats: &ServeStats,
    shutdown: &AtomicBool,
    wake: &Bind,
) -> io::Result<()> {
    let mut reframer = StreamReframer::new();
    let mut rbuf = vec![0u8; READ_BUF];
    let mut wbuf: Vec<u8> = Vec::with_capacity(4096);
    let mut path_scratch = Vec::new();
    conn.set_read_timeout(Some(DRAIN_POLL))?;
    'conn: loop {
        let n = match conn.read(&mut rbuf) {
            Ok(0) => break 'conn,
            Ok(n) => n,
            Err(e) => match e.kind() {
                io::ErrorKind::Interrupted => continue,
                // The read timed out: the peer has been silent for
                // `DRAIN_POLL`. Close it once a drain has begun, and
                // count it dropped if part of a request is left unserved:
                // waiting for the rest would let one byte hold the drain.
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                    if shutdown.load(Ordering::SeqCst) {
                        if reframer.pending() > 0 {
                            stats.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                        break 'conn;
                    }
                    continue;
                }
                _ => return Err(e),
            },
        };
        stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        reframer.extend(&rbuf[..n]);
        // Cut and serve every complete frame this read delivered,
        // coalescing the responses into one write.
        wbuf.clear();
        loop {
            let frame = match reframer.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    stats.dropped.fetch_add(1, Ordering::Relaxed);
                    flush_out(&mut conn, &mut wbuf, stats)?;
                    break 'conn; // oversized prefix: drop conn
                }
            };
            let Some(RpcFrame::Request { corr, payload, .. }) =
                RpcCodec::decode_ref_bytes(host, frame)
            else {
                stats.dropped.fetch_add(1, Ordering::Relaxed);
                flush_out(&mut conn, &mut wbuf, stats)?;
                break 'conn; // not an rpc request: drop conn
            };
            // Encode the response in place: [len][dir corr][payload].
            let frame_at = begin_stream_frame(&mut wbuf);
            RpcCodec::append_response_header(&mut wbuf, corr);
            match svc.serve_payload(payload, flush_jobs, &mut path_scratch, &mut wbuf) {
                Served::Reply => {
                    end_stream_frame(&mut wbuf, frame_at);
                    stats.frames.fetch_add(1, Ordering::Relaxed);
                }
                Served::Shutdown => {
                    end_stream_frame(&mut wbuf, frame_at);
                    stats.frames.fetch_add(1, Ordering::Relaxed);
                    flush_out(&mut conn, &mut wbuf, stats)?;
                    if !shutdown.swap(true, Ordering::SeqCst) {
                        wake_acceptor(wake);
                    }
                    break 'conn;
                }
                Served::Malformed(_) | Served::Unsupported => {
                    wbuf.truncate(frame_at);
                    stats.dropped.fetch_add(1, Ordering::Relaxed);
                    flush_out(&mut conn, &mut wbuf, stats)?;
                    break 'conn;
                }
            }
            if wbuf.len() >= WRITE_COALESCE_LIMIT {
                flush_out(&mut conn, &mut wbuf, stats)?;
            }
        }
        flush_out(&mut conn, &mut wbuf, stats)?;
    }
    Ok(())
}

/// Writes and clears the coalesced response buffer.
fn flush_out(conn: &mut Conn, wbuf: &mut Vec<u8>, stats: &ServeStats) -> io::Result<()> {
    if wbuf.is_empty() {
        return Ok(());
    }
    conn.write_all(wbuf)?;
    stats
        .bytes_out
        .fetch_add(wbuf.len() as u64, Ordering::Relaxed);
    wbuf.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{build_service, Workload};
    use bips_core::protocol::{Request, Response};
    use bips_lan::stream::encode_stream_frame;

    /// Sends `rpc` as one stream frame on a fresh connection and reads
    /// until the server closes it.
    fn send(bind: &Bind, rpc: &[u8]) -> Vec<u8> {
        let mut conn = Conn::dial(bind).expect("dial");
        let mut wire = Vec::new();
        encode_stream_frame(&mut wire, rpc);
        conn.write_all(&wire).expect("write");
        let mut back = Vec::new();
        conn.read_to_end(&mut back).expect("read");
        back
    }

    #[test]
    fn frames_with_another_first_byte_drop_their_connection() {
        let svc = Arc::new(build_service(&Workload::tiny()));
        let server = Server::bind(&Bind::Tcp("127.0.0.1:0".to_string()), svc, 1).expect("bind");
        let bind = Bind::Tcp(server.tcp_addr().expect("tcp address").to_string());
        let serving = std::thread::spawn(move || server.serve());
        let shutdown = Request::Shutdown.encode();
        // A well-formed 17-byte header (correlation id 42, then a
        // nonzero word) before a `Shutdown` payload: not a frame for
        // these first bytes. Were one served, the ack would close its
        // connection too, so every read below ends.
        for dir in [2u8, 3, 4, 255] {
            let mut rpc = vec![dir];
            rpc.extend_from_slice(&42u64.to_le_bytes());
            rpc.extend_from_slice(&7u64.to_le_bytes());
            rpc.extend_from_slice(&shutdown);
            assert!(send(&bind, &rpc).is_empty(), "first byte {dir} was served");
        }
        let (corr, request) = RpcCodec::new().encode_request(&shutdown);
        let back = send(&bind, &request);
        let mut reframer = StreamReframer::new();
        reframer.extend(&back);
        let frame = reframer
            .next_frame()
            .expect("stream frame")
            .expect("one frame");
        let Some(RpcFrame::Response {
            corr: c, payload, ..
        }) = RpcCodec::decode_ref_bytes(HostId::new(0), frame)
        else {
            panic!("not a response: {back:?}");
        };
        assert_eq!(c, corr);
        assert_eq!(Response::decode(payload), Ok(Response::ShutdownAck));
        let stats = serving.join().expect("server thread");
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 4);
        assert_eq!(stats.frames.load(Ordering::Relaxed), 1);
    }

    /// Silent connections do not hold up the drain: once another
    /// connection's `Shutdown` is acked, `serve` returns while they are
    /// still open. The one that sent half a frame counts as dropped.
    #[test]
    fn an_idle_connection_does_not_block_the_drain() {
        let svc = Arc::new(build_service(&Workload::tiny()));
        let server = Server::bind(&Bind::Tcp("127.0.0.1:0".to_string()), svc, 1).expect("bind");
        let bind = Bind::Tcp(server.tcp_addr().expect("tcp address").to_string());
        let (done, served) = std::sync::mpsc::channel();
        let serving = std::thread::spawn(move || {
            let stats = server.serve();
            // The receiver is gone only if the test already failed.
            let _ = done.send((
                stats.conns.load(Ordering::Relaxed),
                stats.dropped.load(Ordering::Relaxed),
            ));
        });
        // Accepted first: the listener's backlog is served in order.
        let idle = Conn::dial(&bind).expect("dial");
        let (_, shutdown) = RpcCodec::new().encode_request(&Request::Shutdown.encode());
        let mut wire = Vec::new();
        encode_stream_frame(&mut wire, &shutdown);
        let mut half = Conn::dial(&bind).expect("dial");
        half.write_all(&wire[..wire.len() / 2]).expect("write");
        assert!(!send(&bind, &shutdown).is_empty(), "no ShutdownAck");
        let (conns, dropped) = served
            .recv_timeout(Duration::from_secs(5))
            .expect("serve was still draining 5 s after Shutdown");
        assert_eq!(
            conns, 3,
            "two silent connections and the one that shut down"
        );
        assert_eq!(dropped, 1, "the half-sent frame");
        drop((idle, half));
        serving.join().expect("server thread");
    }
}
