//! TCP and unix-socket transport for the serve wire protocol.
//!
//! The transport carries exactly the frames documented in `PROTOCOL.md`
//! (and in the [`proto`](crate::proto) module docs) — promoting the
//! stdin/stdout session to a listener changes *where* bytes come from,
//! never what they mean. Three pieces:
//!
//! * [`pump_frames`] — the transport-agnostic session loop: `handlers`
//!   threads, the session's own among them, take turns reading frames,
//!   and each answers the frame it read. A thread keeps the reader
//!   through a request that does not wait, and hands it on for a
//!   pipelined burst or before a wait (so pipelined requests run side by
//!   side and complete out of order). The CLI's stdin/stdout mode is
//!   this function over standard streams — the degenerate 1-connection
//!   transport.
//! * [`NetServer`] / [`listen`] — a background acceptor over a TCP or
//!   unix-socket address; every connection gets its own [`pump_frames`]
//!   session over the shared [`Server`].
//! * [`Client`] — the matching blocking client: [`Client::call`] for
//!   lock-step request/response, [`Client::send`]/[`Client::recv`] for
//!   pipelining.
//!
//! Addresses are `host:port` for TCP (port 0 picks a free port —
//! [`NetServer::local_addr`] reports the bound one) or `unix:PATH` for a
//! unix socket.
//!
//! A connection dies on its first malformed frame (torn frame, bad
//! header, non-UTF-8 payload): framing errors are not recoverable
//! in-stream, so the socket is closed and the client must reconnect.
//! In-flight requests of a dropped connection still run to completion
//! server-side (their responses go nowhere); acknowledged writes are
//! never undone. Other connections and the listener are unaffected.
//!
//! Every socket carries deadlines: clients dial with [`ClientOptions`]
//! (connect/read/write timeouts, sane defaults), accepted sessions run
//! under [`SessionOptions`] (idle reaping + write deadline). A stalled
//! peer can therefore never wedge a thread forever — it times out, and
//! its session or connection winds down cleanly. [`listen_with`] serves
//! any [`FrameHandler`] (a local [`Server`] or a
//! [`Fleet`](crate::fleet::Fleet) front-end) with explicit deadlines.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::proto::{handle, handle_passing, read_frame, write_frame};
use crate::server::Server;

/// Anything that can answer one protocol request payload with one
/// response payload — the seam that lets [`pump_frames`] and
/// [`listen_with`] serve either a local [`Server`] (via
/// [`handle`]) or a fleet front-end
/// ([`crate::fleet::Fleet`]) routing to downstream shard servers.
pub trait FrameHandler: Send + Sync {
    /// Executes one request payload, returning the response payload
    /// (errors are in-band — this never fails at the transport level).
    fn handle_frame(&self, payload: &str) -> String;

    /// [`FrameHandler::handle_frame`] inside a [`pump_frames`] session,
    /// whose thread still holds the connection's reader. `pass` hands
    /// the reader to another of the session's threads, so the next frame
    /// is read and answered while this one waits. Call it before
    /// anything that may wait (a forward permit, a writer lock, an
    /// fsync, a downstream server); calling it again does nothing. A
    /// frame answered without calling it keeps the reader, so the next
    /// frame of a lock-step client is read on this thread and wakes
    /// nobody. The default never passes.
    fn handle_session_frame(&self, payload: &str, pass: &dyn Fn()) -> String {
        let _ = pass;
        self.handle_frame(payload)
    }
}

impl FrameHandler for Server {
    fn handle_frame(&self, payload: &str) -> String {
        handle(self, payload)
    }

    fn handle_session_frame(&self, payload: &str, pass: &dyn Fn()) -> String {
        handle_passing(self, payload, pass)
    }
}

/// Client-side I/O deadlines for [`Client::connect_with`].
///
/// `None` disables the corresponding deadline (the pre-deadline
/// behaviour: block forever). The defaults are deliberately generous —
/// they exist so a dead peer can never wedge a thread *forever*, not to
/// win failover races; latency-sensitive callers (the fleet router)
/// tighten them to their own budgets.
#[derive(Clone, Copy, Debug)]
pub struct ClientOptions {
    /// TCP connection-establishment deadline (unix sockets connect
    /// locally and ignore it). Default 5 s.
    pub connect_timeout: Option<Duration>,
    /// Deadline for each blocking read ([`Client::recv`] /
    /// [`Client::call`] response waits). Default 30 s.
    pub read_timeout: Option<Duration>,
    /// Deadline for each blocking write (a peer that stops draining its
    /// socket eventually fills the kernel buffer). Default 30 s.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Server-side per-session deadlines for [`listen`] / [`listen_with`].
///
/// `None` disables the corresponding deadline. Defaults come from
/// [`SessionOptions::default`]; `trajcl serve` surfaces them through
/// `ServeConfig` / `--idle-timeout-ms`.
#[derive(Clone, Copy, Debug)]
pub struct SessionOptions {
    /// A session that has not delivered a complete frame for this long
    /// is reaped: the socket is shut down cleanly and its threads wind
    /// down, so leaked clients don't accumulate session threads. Also
    /// bounds a peer that stalls *mid-frame*. Default 15 min.
    pub idle_timeout: Option<Duration>,
    /// Deadline for each blocking response write (a client that stops
    /// reading eventually fills the kernel buffer; past the deadline its
    /// session is dropped instead of wedging a handler). Default 30 s.
    pub write_timeout: Option<Duration>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            idle_timeout: Some(Duration::from_secs(900)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// True for the error kinds a timed-out socket read/write surfaces
/// (`SO_RCVTIMEO`/`SO_SNDTIMEO` report `WouldBlock` on most unixes,
/// `TimedOut` elsewhere).
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Whether a transport error says the peer had closed or reset the connection.
pub(crate) fn peer_closed(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected
    )
}

/// One accepted or dialled connection, TCP or unix (a unified handle so
/// every transport path is written once).
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    // `SO_RCVTIMEO`/`SO_SNDTIMEO` live on the underlying socket, so one
    // call here covers every `try_clone` duplicate of the fd.
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(dur),
            Stream::Unix(s) => s.set_write_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Pumps protocol frames between `input` and `out` until end-of-stream
/// or a framing error. `handlers` threads take turns holding the reader,
/// the calling thread among them (so `handlers = 1` spawns none). The
/// thread that reads a frame answers it and writes the response, then
/// reads the next frame itself: a lock-step client is served by one
/// thread that wakes nobody. It hands the reader to a follower only
/// when the next frame's bytes are already buffered (a pipelined burst)
/// or when the handler passes it before a wait
/// ([`FrameHandler::handle_session_frame`]). So pipelined frames run
/// side by side, up to `handlers` at once, and a request that waits
/// never holds up the frames behind it. Frames are read in order and
/// responses go out as they finish (out of order — the protocol's `req`
/// echo matches them up, see `PROTOCOL.md`).
///
/// This is the whole per-connection (and stdin/stdout) session loop;
/// both the CLI's `serve` subcommand and [`listen`]'s connection threads
/// run it verbatim. `handler` is the local [`Server`] in shard mode or a
/// [`crate::fleet::Fleet`] front-end in fleet mode.
///
/// When the input stream carries a read deadline (sessions accepted
/// under [`SessionOptions::idle_timeout`]), a timed-out read ends the
/// session cleanly (`Ok`) — that is the idle reaper, not an error. A
/// framing error is returned once the frames read before it are answered.
pub fn pump_frames<H: FrameHandler + ?Sized>(
    handler: &H,
    input: &mut BufReader<impl Read + Send>,
    out: &mut (impl Write + Send),
    handlers: usize,
) -> std::io::Result<()> {
    // The reader, and how the session ended once some turn saw it end.
    let reader = Mutex::new((input, None::<std::io::Result<()>>));
    let out = Mutex::new(out);
    let take_turns = || {
        // The reader while this thread keeps it from one frame to the next.
        let mut kept = None;
        loop {
            let mut turn = kept
                .take()
                .unwrap_or_else(|| reader.lock().unwrap_or_else(|p| p.into_inner()));
            let (input, ended) = &mut *turn;
            if ended.is_some() {
                return;
            }
            let payload = match read_frame(&mut **input) {
                Ok(Some(payload)) => payload,
                Err(e) if !is_timeout(&e) => return *ended = Some(Err(e)),
                // End of stream, or the idle deadline elapsed (the reaper).
                _ => return *ended = Some(Ok(())),
            };
            // A burst: the next frame is already here, so a follower
            // reads it while this thread answers.
            let burst = !input.buffer().is_empty();
            let turn = RefCell::new((!burst).then_some(turn));
            let pass = || drop(turn.borrow_mut().take());
            let response = handler.handle_session_frame(&payload, &pass);
            let mut out = out.lock().unwrap_or_else(|p| p.into_inner());
            // A vanished peer is this connection's problem only; the next
            // read hits the same condition and ends the session.
            let _ = write_frame(&mut **out, &response);
            kept = turn.into_inner();
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..handlers {
            scope.spawn(take_turns);
        }
        take_turns();
    });
    let (_, ended) = reader.into_inner().unwrap_or_else(|p| p.into_inner());
    ended.unwrap_or(Ok(()))
}

/// The acceptor's registry of live sessions: each entry keeps a handle
/// on the connection's stream (so shutdown can sever it) and its
/// session thread (so shutdown can join it). Each accept drops the
/// entries of sessions that have ended.
type ConnRegistry = Arc<Mutex<Vec<(Stream, JoinHandle<()>)>>>;

/// How long the acceptor waits after a failed `accept` before retrying.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// A running listener created by [`listen`]: accepts connections in a
/// background thread until [`NetServer::shutdown`].
pub struct NetServer {
    local_addr: String,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: ConnRegistry,
}

/// Serves `server` on `addr` (`host:port`, or `unix:PATH`) in background
/// threads: one acceptor plus, per connection, one [`pump_frames`]
/// session of `handlers` threads, which answers up to that many
/// pipelined requests at once. A lock-step client is answered on one of
/// them whatever `handlers` is, so more costs a lock-step connection
/// only the parked threads.
///
/// TCP port 0 binds a free port; read it back from
/// [`NetServer::local_addr`]. A pre-existing socket file at a unix PATH
/// is removed first (the standard daemon convention).
///
/// # Errors
/// Address parse and bind failures surface as [`std::io::Error`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
/// use trajcl_engine::Engine;
/// use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
/// use trajcl_serve::net::{listen, Client};
/// use trajcl_serve::{ServeConfig, Server};
/// use trajcl_tensor::{Shape, Tensor};
///
/// // A tiny engine over 4 synthetic trajectories.
/// let mut rng = StdRng::seed_from_u64(0);
/// let cfg = TrajClConfig::test_default();
/// let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
/// let grid = Grid::new(region, 100.0);
/// let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
/// let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
/// let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
/// let db: Vec<Trajectory> = (0..4)
///     .map(|i| (0..5).map(|t| Point::new(t as f64 * 90.0, i as f64 * 150.0)).collect())
///     .collect();
/// let engine = Engine::builder().trajcl(model, feat).database(db).build().unwrap();
/// let server = Arc::new(Server::new(Arc::new(engine), ServeConfig::default()).unwrap());
///
/// // Serve on a free TCP port, dial it, round-trip one stats request.
/// let net = listen(Arc::clone(&server), "127.0.0.1:0", 1).unwrap();
/// let mut client = Client::connect(net.local_addr()).unwrap();
/// let reply = client.call(r#"{"op":"stats"}"#).unwrap();
/// assert!(reply.contains("\"ok\":true") && reply.contains("\"size\":4"));
/// net.shutdown();
/// server.shutdown();
/// ```
pub fn listen(server: Arc<Server>, addr: &str, handlers: usize) -> std::io::Result<NetServer> {
    let opts = server.session_options();
    listen_with(server, addr, handlers, opts)
}

/// [`listen`] over any [`FrameHandler`] with explicit per-session
/// deadlines — the entry point the fleet front-end uses to serve
/// [`crate::fleet::Fleet`] on the wire; [`listen`] is this function
/// specialised to a local [`Server`] and its configured
/// [`SessionOptions`]. `handlers` is [`listen`]'s: the most requests a
/// connection runs at once, which only a pipelining client reaches.
///
/// # Errors
/// Address parse and bind failures surface as [`std::io::Error`].
pub fn listen_with<H: FrameHandler + 'static>(
    handler: Arc<H>,
    addr: &str,
    handlers: usize,
    opts: SessionOptions,
) -> std::io::Result<NetServer> {
    let stop = Arc::new(AtomicBool::new(false));
    let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));
    let (local_addr, accept) = if let Some(path) = addr.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let thread = spawn_acceptor(
            handler,
            Arc::clone(&stop),
            Arc::clone(&conns),
            handlers,
            opts,
            move || listener.accept().map(|(s, _)| Stream::Unix(s)),
        );
        (format!("unix:{path}"), thread)
    } else {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?.to_string();
        let thread = spawn_acceptor(
            handler,
            Arc::clone(&stop),
            Arc::clone(&conns),
            handlers,
            opts,
            move || {
                listener.accept().map(|(s, _)| {
                    // A peer that splits its frames into small writes
                    // would, without TCP_NODELAY, stall every lock-step
                    // round trip ~40ms on Nagle + delayed ACK.
                    let _ = s.set_nodelay(true);
                    Stream::Tcp(s)
                })
            },
        );
        (local, thread)
    };
    Ok(NetServer {
        local_addr,
        stop,
        accept: Some(accept),
        conns,
    })
}

/// The shared accept loop: take connections until the stop flag flips
/// (the shutdown path wakes a blocked `accept` with a throwaway
/// self-connection), spawning one session thread per connection.
fn spawn_acceptor<H: FrameHandler + 'static>(
    handler: Arc<H>,
    stop: Arc<AtomicBool>,
    conns: ConnRegistry,
    handlers: usize,
    opts: SessionOptions,
    accept: impl FnMut() -> std::io::Result<Stream> + Send + 'static,
) -> JoinHandle<()> {
    let mut accept = accept;
    std::thread::spawn(move || loop {
        let Ok(stream) = accept() else {
            if stop.load(Ordering::Acquire) {
                return;
            }
            // Out of fds (`EMFILE`) fails every accept at once: back off.
            std::thread::sleep(ACCEPT_RETRY);
            continue;
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        // The deadlines live on the socket itself, so they cover the
        // session's reader and writer clones alike. A session whose
        // reads go quiet past the idle deadline winds down cleanly in
        // `pump_frames`; a peer that stops draining responses trips the
        // write deadline and is dropped.
        let _ = stream.set_read_timeout(opts.idle_timeout);
        let _ = stream.set_write_timeout(opts.write_timeout);
        let Ok(reader_half) = stream.try_clone() else {
            continue;
        };
        let handler = Arc::clone(&handler);
        let session = std::thread::spawn(move || {
            let mut input = BufReader::new(reader_half);
            let Ok(mut output) = input.get_ref().try_clone() else {
                return;
            };
            // Framing errors and disconnects end this session only.
            let _ = pump_frames(&*handler, &mut input, &mut output, handlers);
            // Sever the socket now: the acceptor keeps its own duplicate
            // of the fd until a later accept prunes it, so without this
            // the peer of a dead session would not see EOF.
            input.get_ref().shutdown();
        });
        let mut conns = conns.lock().unwrap_or_else(|p| p.into_inner());
        conns.retain(|(_, session)| !session.is_finished());
        conns.push((stream, session));
    })
}

impl NetServer {
    /// The bound address, in the same syntax [`listen`] accepts — for
    /// TCP with port 0 this is where the actual port shows up.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Stops accepting, severs every open connection, and joins all
    /// transport threads. The [`Server`] itself keeps running (shut it
    /// down separately — it may be shared with other listeners).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // A blocked accept() only wakes on a connection: dial ourselves.
        if let Some(path) = self.local_addr.strip_prefix("unix:") {
            let _ = UnixStream::connect(path);
        } else {
            let _ = TcpStream::connect(&self.local_addr);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|p| p.into_inner()));
        for (stream, session) in conns {
            stream.shutdown();
            let _ = session.join();
        }
        if let Some(path) = self.local_addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A blocking protocol client over TCP or a unix socket (same address
/// syntax as [`listen`]).
///
/// One request in flight: [`Client::call`]. Pipelining: issue several
/// [`Client::send`]s tagged with distinct `"req"` values, then drain
/// [`Client::recv`] and match responses by their echoed `req`
/// (responses may arrive in any order — `PROTOCOL.md` has the rules).
pub struct Client {
    input: BufReader<Stream>,
    output: Stream,
}

impl Client {
    /// Dials `addr` (`host:port` or `unix:PATH`) with the default
    /// [`ClientOptions`] deadlines.
    ///
    /// # Errors
    /// Connection failures (including a blown connect deadline) surface
    /// as [`std::io::Error`].
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::connect_with(addr, &ClientOptions::default())
    }

    /// Dials `addr` with explicit connect/read/write deadlines.
    ///
    /// # Errors
    /// Connection failures surface as [`std::io::Error`]; a blown
    /// connect deadline reads as [`std::io::ErrorKind::TimedOut`].
    pub fn connect_with(addr: &str, opts: &ClientOptions) -> std::io::Result<Client> {
        let stream = if let Some(path) = addr.strip_prefix("unix:") {
            // Local connects complete (or fail) immediately; the connect
            // deadline only matters for TCP.
            Stream::Unix(UnixStream::connect(path)?)
        } else {
            let s = match opts.connect_timeout {
                Some(deadline) => {
                    // `connect_timeout` wants a resolved SocketAddr; try
                    // each resolution until one answers.
                    let mut last_err = None;
                    let mut connected = None;
                    for sock_addr in addr.to_socket_addrs()? {
                        match TcpStream::connect_timeout(&sock_addr, deadline) {
                            Ok(s) => {
                                connected = Some(s);
                                break;
                            }
                            Err(e) => last_err = Some(e),
                        }
                    }
                    connected.ok_or_else(|| {
                        last_err.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to no endpoints",
                            )
                        })
                    })?
                }
                None => TcpStream::connect(addr)?,
            };
            // See `listen`: lock-step framing needs TCP_NODELAY.
            let _ = s.set_nodelay(true);
            Stream::Tcp(s)
        };
        stream.set_read_timeout(opts.read_timeout)?;
        stream.set_write_timeout(opts.write_timeout)?;
        let output = stream.try_clone()?;
        Ok(Client {
            input: BufReader::new(stream),
            output,
        })
    }

    /// Re-arms the read deadline on the live connection (the fleet
    /// router tightens it per call to fit its remaining deadline
    /// budget). `None` disables it.
    ///
    /// # Errors
    /// Socket option failures surface as [`std::io::Error`].
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.input.get_ref().set_read_timeout(dur)
    }

    /// Sends one request frame without waiting for the response.
    ///
    /// # Errors
    /// Transport failures surface as [`std::io::Error`].
    pub fn send(&mut self, payload: &str) -> std::io::Result<()> {
        write_frame(&mut self.output, payload)
    }

    /// Receives the next response frame; `Ok(None)` when the server
    /// closed the connection.
    ///
    /// # Errors
    /// Transport and framing failures surface as [`std::io::Error`].
    pub fn recv(&mut self) -> std::io::Result<Option<String>> {
        read_frame(&mut self.input)
    }

    /// One lock-step request/response round trip.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::UnexpectedEof`] when the server closes the
    /// connection instead of answering; transport failures pass through.
    pub fn call(&mut self, payload: &str) -> std::io::Result<String> {
        self.send(payload)?;
        self.reply()
    }

    /// [`Client::send`] of a frame already encoded (`proto::encode_frame`).
    pub(crate) fn send_encoded(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.output.write_all(frame)
    }

    /// [`Client::reply`], except that a connection found closed before the
    /// reply's first byte (end-of-stream or a reset, see [`peer_closed`]) is
    /// `Ok(None)`: the fleet tells a shard that reaped an idle connection
    /// apart from one that failed a request.
    pub(crate) fn reply_unless_closed(&mut self) -> std::io::Result<Option<String>> {
        // Lock-step: nothing is buffered yet, so this is the reply's first read.
        match self.input.fill_buf() {
            Ok([]) => return Ok(None),
            Err(e) if peer_closed(&e) => return Ok(None),
            Err(e) => return Err(e),
            Ok(_) => {}
        }
        self.reply().map(Some)
    }

    /// [`Client::recv`] of a reply that is owed: a closed connection is an error.
    pub(crate) fn reply(&mut self) -> std::io::Result<String> {
        self.recv()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )
        })
    }
}
