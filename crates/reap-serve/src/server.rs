//! The TCP daemon: bounded thread-per-connection serving over the
//! sharded resident state.
//!
//! [`Server::bind`] takes any address (tests bind `127.0.0.1:0` and read
//! the kernel-assigned port back with [`Server::local_addr`] — no
//! hardcoded ports anywhere); [`Server::serve`] then accepts until a
//! [`ServerHandle::shutdown`] or an in-band `Shutdown` request. Each
//! connection runs on its own thread, admitted through a
//! `Mutex + Condvar` gate that caps concurrent connections; excess
//! accepts wait for a slot rather than being dropped.
//!
//! Degradation under hostile load: every connection carries a *frame
//! deadline* — a peer that starts a frame and stalls mid-line past
//! [`ServerConfig::frame_deadline`] is evicted with an
//! [`ErrorCode::Evicted`] frame (idle connections between frames are
//! never evicted); writes run under
//! [`ServerConfig::write_deadline`], so a peer that stops reading
//! cannot pin a handler thread; and past
//! [`ServerConfig::overload_shed_at`] concurrent connections the server
//! sheds `Observe` with [`ErrorCode::Overloaded`] while keeping `Decide`
//! live — decisions are read-only table walks and stay cheap, while
//! observes mutate state and can be replayed later by a sequence-number
//! retrying client. All three show up in [`ServerMetrics`].
//!
//! Fault injection: the server is generic over [`IoLayer`]. Production
//! uses the zero-sized [`NoFaults`] (identity wrap — the monomorphized
//! code is the raw `TcpStream` path); chaos tests pass an
//! `Arc<FaultPlan>` via [`Server::bind_with_layer`] and every connection
//! then runs through a seeded [`crate::fault::ChaosStream`] schedule.
//!
//! Graceful shutdown: the flag flips, a dummy self-connection wakes the
//! blocking accept, and in-flight connections drain — every connection
//! reads with a short timeout, notices the flag at the next boundary,
//! and closes after finishing the request in hand. Once every handler
//! has joined, a final ring checkpoint is written if a
//! [`ServerConfig::checkpoint_ring`] is configured, then the exit
//! checkpoint if [`ServerConfig::checkpoint_on_exit`] is set, and
//! `serve` returns. All checkpoint writes are crash-safe
//! ([`snapshot::write_atomic`]: temp + fsync + rename + directory
//! fsync).

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fault::{IoLayer, NoFaults};
use crate::locks::{rank, OrderedLock};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    ErrorCode, ProtocolError, Request, Response, WireShare, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::snapshot::{self, SnapshotRing};
use crate::state::FleetState;

/// How long a connection read blocks before re-checking the shutdown
/// flag; the upper bound on drain latency for an idle connection.
const READ_POLL: Duration = Duration::from_millis(250);

/// Default [`ServerConfig::frame_deadline`]: generous for real clients
/// (frames are tens of bytes), fatal for slow-loris ones.
const DEFAULT_FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// Default [`ServerConfig::write_deadline`].
const DEFAULT_WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Polling cadence of the periodic ring-checkpoint thread.
const RING_POLL: Duration = Duration::from_millis(20);

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Maximum concurrent connections; further accepts wait for a slot.
    /// `0` means the default (64).
    pub max_connections: usize,
    /// Write a final snapshot here during graceful shutdown.
    pub checkpoint_on_exit: Option<PathBuf>,
    /// Directory for the retained snapshot ring; checkpoints land here
    /// periodically (see [`ServerConfig::checkpoint_every`]) and once on
    /// graceful shutdown. `None` disables the ring.
    pub checkpoint_ring: Option<PathBuf>,
    /// Snapshots retained in the ring; `0` means the default (4).
    pub ring_keep: usize,
    /// Cadence of periodic ring checkpoints while serving; `None` means
    /// ring checkpoints happen only at graceful shutdown.
    pub checkpoint_every: Option<Duration>,
    /// How long a connection may stall *mid-frame* before being evicted
    /// (idle connections between frames are exempt). `None` means the
    /// default (5 s).
    pub frame_deadline: Option<Duration>,
    /// Socket write timeout; a peer that stops reading long enough to
    /// block a response write this long is dropped (and counted
    /// evicted). `None` means the default (5 s).
    pub write_deadline: Option<Duration>,
    /// Concurrent-connection count above which `Observe` requests are
    /// shed with [`ErrorCode::Overloaded`] (`Decide`/`Stats` stay live).
    /// `0` disables shedding.
    pub overload_shed_at: usize,
}

/// Everything connection handlers share.
struct Shared<L: IoLayer> {
    state: FleetState,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    addr: SocketAddr,
    layer: L,
    /// Live connection count (mirrors the admission gate, readable
    /// without its lock) — the overload-shed signal.
    active: AtomicUsize,
    frame_deadline: Duration,
    write_deadline: Duration,
    overload_shed_at: usize,
}

/// A bound, not-yet-serving daemon. Grab [`Server::local_addr`] and a
/// [`ServerHandle`] before calling [`Server::serve`] (which blocks until
/// shutdown).
pub struct Server<L: IoLayer = NoFaults> {
    listener: TcpListener,
    shared: Arc<Shared<L>>,
    max_connections: usize,
    checkpoint_on_exit: Option<PathBuf>,
    checkpoint_ring: Option<PathBuf>,
    ring_keep: usize,
    checkpoint_every: Option<Duration>,
}

/// A cheap clonable handle that can stop a running [`Server`] from any
/// thread (or signal handler watcher).
pub struct ServerHandle<L: IoLayer = NoFaults> {
    shared: Arc<Shared<L>>,
}

impl<L: IoLayer> Clone for ServerHandle<L> {
    fn clone(&self) -> Self {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<L: IoLayer> ServerHandle<L> {
    /// Requests graceful shutdown: stop accepting, drain in-flight
    /// connections, write the exit checkpoint if configured. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // A blocking `accept` only notices the flag on its next return;
        // poke it with a throwaway connection.
        let _ = TcpStream::connect(self.shared.addr);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Server<NoFaults> {
    /// Binds the daemon to `addr` over `state`. Bind port 0 to let the
    /// kernel pick a free port (read it back with
    /// [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        state: FleetState,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_with_layer(addr, state, config, NoFaults)
    }
}

impl<L: IoLayer> Server<L> {
    /// [`Server::bind`] with an explicit [`IoLayer`] — the chaos tests'
    /// entry point (`Arc<FaultPlan>` wraps every connection in a seeded
    /// fault schedule and arms the snapshot writer's crash hook).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with_layer(
        addr: impl ToSocketAddrs,
        state: FleetState,
        config: ServerConfig,
        layer: L,
    ) -> io::Result<Server<L>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state,
                metrics: ServerMetrics::new(),
                shutdown: AtomicBool::new(false),
                addr,
                layer,
                active: AtomicUsize::new(0),
                frame_deadline: config.frame_deadline.unwrap_or(DEFAULT_FRAME_DEADLINE),
                write_deadline: config.write_deadline.unwrap_or(DEFAULT_WRITE_DEADLINE),
                overload_shed_at: config.overload_shed_at,
            }),
            max_connections: if config.max_connections == 0 {
                64
            } else {
                config.max_connections
            },
            checkpoint_on_exit: config.checkpoint_on_exit,
            checkpoint_ring: config.checkpoint_ring,
            ring_keep: if config.ring_keep == 0 {
                4
            } else {
                config.ring_keep
            },
            checkpoint_every: config.checkpoint_every,
        })
    }

    /// The address actually bound — with port 0, the kernel-assigned
    /// port appears here.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle that can stop this server from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle<L> {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Accepts and serves connections until shutdown, then drains
    /// in-flight connections, writes a final ring checkpoint (if a ring
    /// is configured) and the exit checkpoint (if configured). Returns
    /// once the last connection has closed.
    ///
    /// # Errors
    ///
    /// Propagates exit-checkpoint write failures; accept errors on
    /// individual connections are skipped, not fatal, and periodic ring
    /// checkpoint failures are logged to stderr rather than killing the
    /// daemon.
    pub fn serve(self) -> io::Result<()> {
        let ring = match &self.checkpoint_ring {
            Some(dir) => Some(SnapshotRing::create(dir, self.ring_keep)?),
            None => None,
        };

        // Periodic ring checkpoints run off the request path: a helper
        // thread snapshots the fleet (crash-safely) every
        // `checkpoint_every` until shutdown.
        let ring_thread: Option<JoinHandle<()>> = match (&ring, self.checkpoint_every) {
            (Some(ring), Some(every)) => {
                let ring = ring.clone();
                let shared = Arc::clone(&self.shared);
                Some(std::thread::spawn(move || {
                    let mut last = Instant::now();
                    while !shared.shutdown.load(Ordering::SeqCst) {
                        std::thread::sleep(RING_POLL.min(every));
                        if last.elapsed() >= every {
                            match ring.write_with(&shared.state, &shared.layer) {
                                Ok(Some(_)) => {
                                    shared.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(None) => {} // injected crash: a real one wouldn't log either
                                Err(e) => eprintln!("reap-serve: ring checkpoint failed: {e}"),
                            }
                            last = Instant::now();
                        }
                    }
                }))
            }
            _ => None,
        };

        let gate = Arc::new((
            OrderedLock::new("admission", rank::ADMISSION, 0, 0usize),
            Condvar::new(),
        ));
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();

        for incoming in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else { continue };
            // The shutdown self-connect lands here: re-check before
            // admitting it as a real session.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            handlers.retain(|h| !h.is_finished());
            {
                let (count, cv) = &*gate;
                // reap-lint: acquires(admission)
                let active = count.lock();
                let max = self.max_connections;
                let mut active = count.wait_while(active, cv, |n| *n >= max);
                *active += 1;
            }
            self.shared.active.fetch_add(1, Ordering::SeqCst);
            self.shared
                .metrics
                .connections
                .fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            let gate = Arc::clone(&gate);
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &shared);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                let (count, cv) = &*gate;
                // reap-lint: acquires(admission)
                let mut active = count.lock();
                *active -= 1;
                cv.notify_one();
            }));
        }

        // Drain: every handler notices the flag within one read-poll.
        for h in handlers {
            let _ = h.join();
        }
        if let Some(h) = ring_thread {
            let _ = h.join();
        }
        if let Some(ring) = &ring {
            // One last durable cut of the drained state.
            match ring.write_with(&self.shared.state, &self.shared.layer) {
                Ok(Some(_)) => {
                    self.shared
                        .metrics
                        .checkpoints
                        .fetch_add(1, Ordering::Relaxed);
                }
                Ok(None) => {}
                Err(e) => eprintln!("reap-serve: final ring checkpoint failed: {e}"),
            }
        }
        if let Some(path) = &self.checkpoint_on_exit {
            snapshot::write_atomic(path, &snapshot::snapshot(&self.shared.state))?;
        }
        Ok(())
    }
}

/// What one attempt to pull a line off the socket produced.
enum ReadOutcome<'a> {
    /// A complete line, without its newline (or `\r\n`), borrowed from
    /// the reader's buffer until the next read.
    Line(&'a [u8]),
    Eof,
    TimedOut,
    Oversized,
    /// The peer stalled mid-frame past the frame deadline.
    Stalled,
    Failed,
}

/// Incremental line framing over a read-timeout socket: bytes accumulate
/// across timeouts, lines split off as newlines arrive. A frame that
/// stays incomplete past `frame_deadline` reports [`ReadOutcome::Stalled`]
/// (the slow-loris defense); an idle socket with no partial frame can
/// wait forever. Lines are handed out as slices of the reader's own
/// buffer, so framing allocates nothing per line.
struct LineReader<S> {
    stream: S,
    pending: Vec<u8>,
    /// Length of the line last handed out, newline included: it stays
    /// at the front of `pending` until the next read drops it.
    consumed: usize,
    /// Socket read buffer, zeroed once per connection rather than per
    /// read.
    chunk: [u8; 4096],
    frame_deadline: Duration,
    frame_start: Option<Instant>,
}

impl<S: Read> LineReader<S> {
    fn new(stream: S, frame_deadline: Duration) -> LineReader<S> {
        LineReader {
            stream,
            pending: Vec::new(),
            consumed: 0,
            chunk: [0; 4096],
            frame_deadline,
            frame_start: None,
        }
    }

    fn next_line(&mut self) -> ReadOutcome<'_> {
        self.pending.drain(..self.consumed);
        self.consumed = 0;
        loop {
            if let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
                // A complete line that still busts the cap is just as
                // oversized as one with no newline in sight — without
                // this check a single big read chunk could smuggle an
                // arbitrarily long line past the cap.
                if nl >= MAX_LINE_BYTES {
                    return ReadOutcome::Oversized;
                }
                self.consumed = nl + 1;
                self.frame_start = None;
                let line = self.pending.get(..nl).unwrap_or_default();
                return ReadOutcome::Line(line.strip_suffix(b"\r").unwrap_or(line));
            }
            if self.pending.len() >= MAX_LINE_BYTES {
                return ReadOutcome::Oversized;
            }
            if self.pending.is_empty() {
                self.frame_start = None;
            } else if self.frame_start.is_none() {
                self.frame_start = Some(Instant::now());
            }
            if let Some(t0) = self.frame_start {
                if t0.elapsed() >= self.frame_deadline {
                    return ReadOutcome::Stalled;
                }
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => self
                    .pending
                    .extend_from_slice(self.chunk.get(..n).unwrap_or_default()),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadOutcome::TimedOut;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Failed,
            }
        }
    }

    /// Discards buffered and in-flight input before a server-initiated
    /// close. Closing with unread bytes in the receive buffer makes the
    /// kernel send RST, which can destroy the error frame we just queued;
    /// draining (bounded, so a firehosing peer can't pin the thread)
    /// lets the close go out as a clean FIN after the frame.
    fn drain_before_close(&mut self) {
        self.pending.clear();
        self.consumed = 0;
        for _ in 0..256 {
            match self.stream.read(&mut self.chunk) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    }
}

/// Frames `response` into `out` (cleared first; one buffer reused for
/// every reply on a connection) and writes it with one `write_all`.
fn send<L: IoLayer>(
    stream: &mut L::Stream,
    shared: &Shared<L>,
    response: &Response,
    out: &mut String,
) -> io::Result<()> {
    out.clear();
    response.encode_into(out);
    out.push('\n');
    let written = stream.write_all(out.as_bytes());
    if let Err(e) = &written {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            // The peer stopped reading long enough to blow the write
            // deadline: this connection is being dropped, count it.
            shared.metrics.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }
    written
}

fn send_error<L: IoLayer>(
    stream: &mut L::Stream,
    shared: &Shared<L>,
    err: ProtocolError,
    out: &mut String,
) -> io::Result<()> {
    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
    send(stream, shared, &Response::from(err), out)
}

/// Runs one session: handshake, then one response frame per request
/// until EOF, a fatal framing error, eviction, or shutdown.
fn handle_connection<L: IoLayer>(stream: TcpStream, shared: &Shared<L>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(shared.write_deadline));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(shared.layer.wrap(read_half), shared.frame_deadline);
    let mut stream = shared.layer.wrap(stream);
    let mut out = String::new();

    let mut greeted = false;
    loop {
        let line = match reader.next_line() {
            ReadOutcome::Line(line) => line,
            ReadOutcome::Eof | ReadOutcome::Failed => return,
            ReadOutcome::TimedOut => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return; // drained
                }
                continue;
            }
            ReadOutcome::Stalled => {
                // Slow-loris eviction: a typed frame (best-effort — the
                // peer may not be reading), then close.
                shared.metrics.evicted.fetch_add(1, Ordering::Relaxed);
                let _ = send_error(
                    &mut stream,
                    shared,
                    ProtocolError::new(
                        ErrorCode::Evicted,
                        format!(
                            "frame not completed within {:?}; connection evicted",
                            shared.frame_deadline
                        ),
                    ),
                    &mut out,
                );
                reader.drain_before_close();
                return;
            }
            ReadOutcome::Oversized => {
                // The frame boundary is gone (or the frame is absurd);
                // report and close.
                let _ = send_error(
                    &mut stream,
                    shared,
                    ProtocolError::new(
                        ErrorCode::Oversized,
                        format!("line exceeds {MAX_LINE_BYTES} bytes"),
                    ),
                    &mut out,
                );
                reader.drain_before_close();
                return;
            }
        };
        let Ok(text) = std::str::from_utf8(line) else {
            if send_error(
                &mut stream,
                shared,
                ProtocolError::new(ErrorCode::Malformed, "frame is not UTF-8"),
                &mut out,
            )
            .is_err()
            {
                return;
            }
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        let request = match Request::decode(text) {
            Ok(r) => r,
            Err(e) => {
                if send_error(&mut stream, shared, e, &mut out).is_err() {
                    return;
                }
                continue;
            }
        };

        if !greeted {
            match request {
                Request::Hello { version } if version == PROTOCOL_VERSION => {
                    greeted = true;
                    if send(
                        &mut stream,
                        shared,
                        &Response::Welcome {
                            version: PROTOCOL_VERSION,
                            users: shared.state.users(),
                        },
                        &mut out,
                    )
                    .is_err()
                    {
                        return;
                    }
                    continue;
                }
                Request::Hello { version } => {
                    // Version-mismatch refusal: error frame, then close.
                    let _ = send_error(
                        &mut stream,
                        shared,
                        ProtocolError::new(
                            ErrorCode::Version,
                            format!("client speaks v{version}, server v{PROTOCOL_VERSION}"),
                        ),
                        &mut out,
                    );
                    return;
                }
                _ => {
                    let _ = send_error(
                        &mut stream,
                        shared,
                        ProtocolError::new(ErrorCode::Handshake, "first frame must be a hello"),
                        &mut out,
                    );
                    return;
                }
            }
        }

        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let mut close_after = false;
        let response = match request {
            Request::Hello { .. } => Response::from(ProtocolError::new(
                ErrorCode::Handshake,
                "session already greeted",
            )),
            Request::Observe {
                user,
                hour,
                harvest_j,
                activity,
                seq,
            } => {
                if shared.overload_shed_at != 0
                    && shared.active.load(Ordering::SeqCst) > shared.overload_shed_at
                {
                    // Overload mode: shed the mutating request class,
                    // keep decisions live. A seq-carrying client replays
                    // the observe after backoff with no double-count.
                    shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                    Response::from(ProtocolError::new(
                        ErrorCode::Overloaded,
                        "shedding observes under overload; retry after backoff",
                    ))
                } else {
                    let t0 = Instant::now();
                    let outcome = shared
                        .state
                        .observe_seq(user, hour, harvest_j, activity, seq);
                    shared.metrics.observe_latency.record(t0.elapsed());
                    shared.metrics.observes.fetch_add(1, Ordering::Relaxed);
                    match outcome {
                        Ok(budget_j) => Response::Observed {
                            user,
                            hour: hour % 24,
                            budget_j,
                        },
                        Err(e) => Response::from(e),
                    }
                }
            }
            Request::Decide { user } => {
                let t0 = Instant::now();
                let outcome = shared.state.decide(user);
                shared.metrics.decide_latency.record(t0.elapsed());
                shared.metrics.decides.fetch_add(1, Ordering::Relaxed);
                match outcome {
                    Ok(out) => Response::Decision {
                        user,
                        budget_j: out.budget_j,
                        accuracy: out.decision.eval.accuracy,
                        active_s: out.decision.eval.active_s,
                        energy_j: out.decision.eval.energy_j,
                        off_s: out.decision.off_s,
                        shares: out
                            .decision
                            .shares()
                            .iter()
                            .map(|s| WireShare {
                                id: s.id,
                                seconds: s.seconds,
                            })
                            .collect(),
                    },
                    Err(e) => Response::from(e),
                }
            }
            Request::Stats => Response::Stats {
                fleet: shared.state.fleet_stats(),
                server: shared.metrics.server_stats(),
            },
            Request::Checkpoint { path } => {
                shared.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
                let bytes = snapshot::snapshot(&shared.state);
                match snapshot::write_atomic_with(
                    std::path::Path::new(&path),
                    &bytes,
                    &shared.layer,
                ) {
                    Ok(true) => Response::CheckpointDone {
                        path,
                        bytes: bytes.len() as u64,
                    },
                    Ok(false) => Response::from(ProtocolError::new(
                        ErrorCode::Snapshot,
                        format!("writing {path:?}: checkpoint writer crashed (injected)"),
                    )),
                    Err(e) => Response::from(ProtocolError::new(
                        ErrorCode::Snapshot,
                        format!("writing {path:?}: {e}"),
                    )),
                }
            }
            Request::Restore { path } => {
                shared.metrics.restores.fetch_add(1, Ordering::Relaxed);
                match std::fs::read(&path) {
                    Ok(bytes) => match snapshot::restore(&shared.state, &bytes) {
                        Ok(users) => Response::RestoreDone { path, users },
                        Err(e) => Response::from(e),
                    },
                    Err(e) => Response::from(ProtocolError::new(
                        ErrorCode::Snapshot,
                        format!("reading {path:?}: {e}"),
                    )),
                }
            }
            Request::Shutdown => {
                close_after = true;
                Response::ShuttingDown
            }
        };
        let is_error = matches!(response, Response::Error { .. });
        if is_error {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        if send(&mut stream, shared, &response, &mut out).is_err() {
            return;
        }
        if close_after {
            // Flip the flag only after the acknowledgement is on the
            // wire, then poke the blocking accept awake.
            shared.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(shared.addr);
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}
