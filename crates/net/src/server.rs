//! The discovery server: a thread-per-connection TCP front end over a
//! shared [`HiddenDb`].
//!
//! An acceptor (the caller's thread) hands sockets to a fixed pool of
//! worker threads; each worker serves one connection at a time with its own
//! database [`Session`](skyweb_hidden_db::Session), so per-connection query
//! accounting is exact while the store, rate limit and access log are
//! shared — the same tenancy model [`DiscoveryService`](skyweb_core::DiscoveryService)
//! uses in-process, with the tenant now on the far side of a socket.
//!
//! The connection protocol (see `docs/wire-protocol.md`): the client opens
//! with a hello frame, the server always answers with a welcome carrying
//! its wire-protocol version and database metadata, then plan frames are
//! answered with response frames (or error-reply frames when a
//! [`QueryError`](skyweb_hidden_db::QueryError) cut the plan short). Any
//! malformed, oversized or out-of-state frame closes the connection — a
//! corrupt peer gets no diagnosis to probe, and the codec guarantees the
//! rejection happens without unbounded allocation. The socket read timeout
//! bounds how long a worker can be held by a stalled (slowloris) peer.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use skyweb_core::{
    decode_hello, decode_plan, encode_error_reply, encode_responses, encode_welcome, Welcome,
    KIND_HELLO, KIND_PLAN, WIRE_PROTOCOL,
};
use skyweb_hidden_db::envelope::u64_of;
use skyweb_hidden_db::{HiddenDb, PlanOracle};

use crate::wire::{self, NetError, MAX_FRAME_LEN, MAX_HANDSHAKE_FRAME_LEN};

/// Locks a mutex, recovering the guard from a poisoned lock (a worker that
/// panicked mid-push cannot take the whole server down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The worker-pool size when none is configured: `SKYWEB_JOBS` if set (the
/// same knob the bench pool honors), else the machine's parallelism.
fn worker_budget() -> usize {
    if let Ok(v) = std::env::var("SKYWEB_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How a [`Server`] runs. Every incoming frame is capped before allocation:
/// the handshake at [`MAX_HANDSHAKE_FRAME_LEN`], plan frames at
/// [`MAX_FRAME_LEN`], the cap [`RemoteOracle`](crate::RemoteOracle) reads
/// replies under too.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads (each serves one connection at a time, ≥ 1).
    pub workers: usize,
    /// Socket read timeout: the longest a worker blocks on a stalled peer
    /// before dropping the connection (the slowloris bound), and therefore
    /// also the longest an idle connection survives. `None` blocks forever.
    pub read_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: worker_budget(),
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ServerConfig {
    /// The default config: `SKYWEB_JOBS` workers and a 30 s read timeout.
    pub fn new() -> Self {
        ServerConfig::default()
    }

    /// Sets the worker-pool size (builder style, clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the socket read timeout (builder style).
    pub fn with_read_timeout(mut self, read_timeout: Option<Duration>) -> Self {
        self.read_timeout = read_timeout;
        self
    }
}

/// Per-connection accounting of one cleanly finished connection.
#[derive(Debug, Clone)]
pub struct ConnectionReport {
    /// The label the client announced in its hello frame.
    pub label: String,
    /// Plan frames answered.
    pub plans: u64,
    /// Queries answered across all plans.
    pub queries: u64,
    /// Plans that ended in an error reply (answered prefix + error).
    pub error_replies: u64,
}

/// What a [`Server::serve`] loop did before it was shut down.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Connections accepted and handed to a worker.
    pub connections: u64,
    /// Connections dropped on a protocol violation, corrupt frame,
    /// timeout, or mid-frame disconnect.
    pub rejected: u64,
    /// Accounting of every cleanly finished connection, in completion
    /// order.
    pub finished: Vec<ConnectionReport>,
}

/// A bound listener, ready to [`serve`](Server::serve) a database.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

/// A handle that can stop a running [`Server::serve`] loop from another
/// thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Asks the serve loop to stop: no further connections are accepted;
    /// workers finish their current connection and exit. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept with a throwaway
        // connection; if that fails the next real connection (or accept
        // error) delivers the flag instead.
        let _ = TcpStream::connect(self.addr);
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Server {
    /// Binds a listener. Use an `:0` port to let the OS pick one (the bound
    /// address is available through [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address this server is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A shutdown handle, clonable and sendable to other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// Serves `db` until the [`ServerHandle`] asks for shutdown: the
    /// calling thread accepts connections, `config.workers` scoped threads
    /// answer them. Every connection gets its own [`HiddenDb`] session;
    /// global accounting (queries issued, rate limit, access log) is shared
    /// through the database exactly as for in-process tenants.
    pub fn serve(self, db: &HiddenDb, config: &ServerConfig) -> ServeReport {
        let queue: Mutex<VecDeque<TcpStream>> = Mutex::new(VecDeque::new());
        let ready = Condvar::new();
        let accepting = AtomicBool::new(true);
        let connections = AtomicU64::new(0);
        let rejected = AtomicU64::new(0);
        let finished: Mutex<Vec<ConnectionReport>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..config.workers.max(1) {
                scope.spawn(|| loop {
                    let stream = {
                        let mut q = lock(&queue);
                        loop {
                            if let Some(s) = q.pop_front() {
                                break Some(s);
                            }
                            if !accepting.load(Ordering::SeqCst) {
                                break None;
                            }
                            q = match ready.wait(q) {
                                Ok(guard) => guard,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                        }
                    };
                    let Some(stream) = stream else {
                        break;
                    };
                    connections.fetch_add(1, Ordering::Relaxed);
                    match handle_connection(stream, db, config) {
                        Ok(report) => lock(&finished).push(report),
                        Err(_) => {
                            // A corrupt, stalled or out-of-state peer: the
                            // connection is already closed; serve the next.
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            // The caller's thread is the acceptor.
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.stop.load(Ordering::SeqCst) {
                            // The shutdown wake-up (or a too-late client).
                            drop(stream);
                            break;
                        }
                        lock(&queue).push_back(stream);
                        ready.notify_one();
                    }
                    Err(_) => {
                        if self.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // Transient accept failure (EMFILE, aborted
                        // connection): keep accepting.
                    }
                }
            }
            accepting.store(false, Ordering::SeqCst);
            ready.notify_all();
        });

        ServeReport {
            connections: connections.load(Ordering::Relaxed),
            rejected: rejected.load(Ordering::Relaxed),
            finished: match finished.into_inner() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            },
        }
    }
}

/// Serves one connection to completion: handshake, then plan frames until
/// the client hangs up cleanly (Ok) or violates the protocol (Err — the
/// connection is simply dropped, with no error frame a hostile peer could
/// probe).
fn handle_connection(
    mut stream: TcpStream,
    db: &HiddenDb,
    config: &ServerConfig,
) -> Result<ConnectionReport, NetError> {
    stream.set_read_timeout(config.read_timeout)?;
    let hello = {
        let Some((kind, frame)) = wire::read_frame(&mut stream, MAX_HANDSHAKE_FRAME_LEN)? else {
            // Connected, said nothing, hung up: nothing was served.
            return Err(NetError::Disconnected);
        };
        if kind != KIND_HELLO {
            return Err(NetError::UnexpectedKind { found: kind });
        }
        decode_hello(&frame)?
    };
    // The welcome always goes out — also on a version mismatch, so an older
    // or newer client learns *why* the connection is about to close.
    let welcome = Welcome {
        protocol: WIRE_PROTOCOL,
        ranker: db.ranker_name().to_string(),
        k: u64_of(db.k()),
        tuple_count: u64_of(db.n()),
        schema: db.schema().clone(),
    };
    wire::write_frame(&mut stream, &encode_welcome(&welcome))?;
    if hello.protocol != WIRE_PROTOCOL {
        return Err(NetError::ProtocolMismatch {
            ours: WIRE_PROTOCOL,
            theirs: hello.protocol,
        });
    }
    let mut session = db.session();
    let mut report = ConnectionReport {
        label: hello.label,
        plans: 0,
        queries: 0,
        error_replies: 0,
    };
    loop {
        let Some((kind, frame)) = wire::read_frame(&mut stream, MAX_FRAME_LEN)? else {
            // Clean hang-up at a frame boundary: the connection is done.
            return Ok(report);
        };
        if kind != KIND_PLAN {
            return Err(NetError::UnexpectedKind { found: kind });
        }
        let plan = decode_plan(&frame)?;
        report.plans += 1;
        let (responses, err) = session.run_plan_grouped(plan.queries(), plan.groups());
        report.queries += u64_of(responses.len());
        let reply = match err {
            None => encode_responses(&responses),
            Some(e) => {
                report.error_replies += 1;
                encode_error_reply(&responses, &e)
            }
        };
        wire::write_frame(&mut stream, &reply)?;
    }
}

/// Binds `addr` and serves `db` with the default [`ServerConfig`] until the
/// process is killed — the one-liner deployment shape. For a controllable
/// server (tests, benches), use [`Server::bind`] + [`Server::serve`] and
/// keep a [`ServerHandle`].
pub fn serve(db: &HiddenDb, addr: impl ToSocketAddrs) -> Result<ServeReport, NetError> {
    Ok(Server::bind(addr)?.serve(db, &ServerConfig::default()))
}
