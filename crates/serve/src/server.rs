//! The TCP daemon: admission, backpressure, isolation, drain.
//!
//! Robustness layers, outermost first:
//!
//! 1. **Admission + backpressure** — one accepted connection = one job
//!    offered to a bounded [`WorkerPool`]; when every per-worker queue
//!    is full the connection is answered `BUSY retry-after-ms=<n>` and
//!    closed instead of queueing without bound. Queue depth and shed
//!    counts are visible through `STATS`.
//! 2. **Per-query deadlines** — each request gets a time budget; long
//!    scans poll it mid-stream and reply `DEADLINE <epoch>` instead of
//!    holding a worker hostage. Socket read timeouts bound slow-loris
//!    writers the same way.
//! 3. **Isolation** — query execution runs under `catch_unwind`: a
//!    poisoned query degrades to an `ERR` reply plus a health-counter
//!    bump, never a process death.
//! 4. **Graceful drain** — `SHUTDOWN` (or
//!    [`ServerHandle::shutdown`]) stops the accept loop, lets every
//!    in-flight request finish its current frame, runs already-queued
//!    connections, then joins all workers.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use webdeps_model::{PoolBusy, PoolProbe, WorkerPool};

use crate::engine::{Engine, Outcome};
use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::proto::{parse_request, Request};
use crate::stats::{QueryKind, ServerStats};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (one connection handled per worker at a time).
    pub workers: usize,
    /// Pending connections per worker before shedding.
    pub queue_cap: usize,
    /// Frame payload cap in bytes.
    pub max_frame: usize,
    /// Per-query deadline budget in milliseconds.
    pub deadline_ms: u64,
    /// Socket read timeout in milliseconds (slow-loris bound).
    pub read_timeout_ms: u64,
    /// Hint carried in `BUSY` replies.
    pub retry_after_ms: u64,
    /// Cross-check every churn patch against freshly built sets.
    pub verify_patches: bool,
    /// Honor `POISON` queries (torture/smoke only).
    pub allow_poison: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 8,
            max_frame: DEFAULT_MAX_FRAME,
            deadline_ms: 250,
            read_timeout_ms: 1_000,
            retry_after_ms: 25,
            verify_patches: false,
            allow_poison: false,
        }
    }
}

/// Running server: the accept loop and pool live on a background
/// thread; the handle observes and shuts down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    probe: PoolProbe,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared health counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Worker-pool observer.
    pub fn probe(&self) -> PoolProbe {
        self.probe.clone()
    }

    /// Signals shutdown without waiting.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested (by the handle or by a
    /// client's `SHUTDOWN` query).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Signals shutdown and waits for the accept loop to drain the
    /// pool and exit.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(handle) = self.accept_thread.take() {
            match handle.join() {
                Ok(()) => {}
                Err(_) => ServerStats::bump(&self.stats.contained_panics),
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        if let Some(handle) = self.accept_thread.take() {
            match handle.join() {
                Ok(()) => {}
                Err(_) => ServerStats::bump(&self.stats.contained_panics),
            }
        }
    }
}

/// Binds, spawns the accept loop, and returns the handle. The engine
/// must already be built — the daemon never blocks a client on world
/// generation.
#[must_use]
pub fn spawn(engine: Arc<Engine>, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::new());
    let pool = WorkerPool::new(cfg.workers, cfg.queue_cap);
    let probe = pool.probe();
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_stats = Arc::clone(&stats);
    let accept_probe = probe.clone();
    let accept_thread = thread::spawn(move || {
        accept_loop(
            listener,
            pool,
            engine,
            accept_stats,
            accept_shutdown,
            accept_probe,
            cfg,
        );
    });
    Ok(ServerHandle {
        addr,
        shutdown,
        stats,
        probe,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: TcpListener,
    pool: WorkerPool,
    engine: Arc<Engine>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    probe: PoolProbe,
    cfg: ServerConfig,
) {
    while !shutdown.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
                continue;
            }
            Err(_) => {
                // Transient accept errors (e.g. aborted handshakes):
                // back off briefly and keep serving.
                thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        // The stream rides into the job through a slot so that, on
        // rejection, the accept loop gets it back to send an explicit
        // BUSY instead of a silent close.
        let slot = Arc::new(Mutex::new(Some(stream)));
        let job_slot = Arc::clone(&slot);
        let job_engine = Arc::clone(&engine);
        let job_stats = Arc::clone(&stats);
        let job_shutdown = Arc::clone(&shutdown);
        let job_probe = probe.clone();
        let job_cfg = cfg.clone();
        let submitted = pool.try_submit(move || {
            let taken = job_slot
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .take();
            if let Some(stream) = taken {
                handle_connection(
                    stream,
                    &job_engine,
                    &job_stats,
                    &job_shutdown,
                    &job_probe,
                    &job_cfg,
                );
            }
        });
        match submitted {
            Ok(_worker) => ServerStats::bump(&stats.accepted),
            Err(PoolBusy(job)) => {
                drop(job);
                ServerStats::bump(&stats.sheds);
                let taken = slot
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .take();
                if let Some(mut stream) = taken {
                    shed_connection(&mut stream, cfg.retry_after_ms);
                }
            }
        }
    }
    drop(listener);
    // Drain: every queued connection still runs (each observes the
    // shutdown flag and closes after at most one frame), in-flight
    // handlers finish, then workers join.
    pool.drain();
}

/// Best-effort `BUSY` reply on the accept thread; the peer may already
/// be gone, which is fine — shedding must never block the loop.
fn shed_connection(stream: &mut TcpStream, retry_after_ms: u64) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    if stream
        .set_write_timeout(Some(Duration::from_millis(20)))
        .is_err()
    {
        return;
    }
    let reply = format!("BUSY retry-after-ms={retry_after_ms}");
    if write_frame(stream, reply.as_bytes()).is_err() {
        // Peer vanished before the shed reply; nothing left to do.
    }
}

fn handle_connection(
    mut stream: TcpStream,
    engine: &Engine,
    stats: &ServerStats,
    shutdown: &AtomicBool,
    probe: &PoolProbe,
    cfg: &ServerConfig,
) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    if stream.set_nodelay(true).is_err() {
        // Replies still arrive, just slower; not worth dropping the
        // connection over.
    }
    if stream
        .set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)))
        .is_err()
    {
        return;
    }
    if stream
        .set_write_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)))
        .is_err()
    {
        return;
    }
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Drain semantics: finish what was read, take nothing new.
            return;
        }
        let payload = match read_frame(&mut stream, cfg.max_frame) {
            Ok(p) => p,
            Err(FrameError::Closed) => return,
            Err(FrameError::Timeout) => {
                // Slow-loris or idle: shed the connection explicitly.
                ServerStats::bump(&stats.sheds);
                send_reply(&mut stream, "ERR read timeout (shed)");
                return;
            }
            Err(FrameError::Oversize { declared, cap }) => {
                send_reply(
                    &mut stream,
                    &format!("ERR oversize frame: {declared} > cap {cap}"),
                );
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let started = Instant::now();
        let request = parse_request(&payload);
        let kind = request.as_ref().ok().and_then(QueryKind::of);
        let reply = answer(request, engine, stats, shutdown, probe, cfg);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        stats.record_latency(kind, micros);
        if write_frame(&mut stream, reply.as_bytes()).is_err() {
            return;
        }
    }
}

fn send_reply(stream: &mut TcpStream, text: &str) {
    if write_frame(stream, text.as_bytes()).is_err() {
        // Peer gone; the connection is being dropped anyway.
    }
}

/// Executes one parsed frame, returning the reply text. Never panics:
/// execution runs under `catch_unwind` and a contained panic becomes an
/// `ERR` reply plus a counter bump.
fn answer(
    request: Result<Request, String>,
    engine: &Engine,
    stats: &ServerStats,
    shutdown: &AtomicBool,
    probe: &PoolProbe,
    cfg: &ServerConfig,
) -> String {
    let req = match request {
        Ok(req) => req,
        Err(e) => {
            ServerStats::bump(&stats.parse_errors);
            return format!("ERR {e}");
        }
    };
    match req {
        Request::Ping => {
            ServerStats::bump(&stats.ok_replies);
            format!("OK {} PONG", engine.current_epoch())
        }
        Request::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            ServerStats::bump(&stats.ok_replies);
            format!("OK {} SHUTDOWN draining", engine.current_epoch())
        }
        Request::Health => {
            ServerStats::bump(&stats.ok_replies);
            let panics = ServerStats::read(&stats.contained_panics);
            let status = if panics == 0 { "up" } else { "degraded" };
            format!(
                "OK {} HEALTH {status} contained_panics={panics} sheds={}",
                engine.current_epoch(),
                ServerStats::read(&stats.sheds),
            )
        }
        Request::Stats => {
            ServerStats::bump(&stats.ok_replies);
            let (patched, rebuilt) = engine.recompute_counters();
            let depths = probe
                .queue_depths()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let by_kind: String = QueryKind::ALL
                .iter()
                .map(|&kind| {
                    let h = stats.kind_latency(kind);
                    format!(
                        " {k}_p50us={} {k}_p99us={}",
                        h.quantile_micros(0.50),
                        h.quantile_micros(0.99),
                        k = kind.token()
                    )
                })
                .collect();
            format!(
                "OK {} STATS ok={} sheds={} deadlines={} contained_panics={} parse_errors={} \
                 churn_patched={patched} churn_rebuilt={rebuilt} queues=[{depths}] \
                 p50us={} p99us={}{by_kind}",
                engine.current_epoch(),
                ServerStats::read(&stats.ok_replies),
                ServerStats::read(&stats.sheds),
                ServerStats::read(&stats.deadlines),
                ServerStats::read(&stats.contained_panics),
                ServerStats::read(&stats.parse_errors),
                stats.latency.quantile_micros(0.50),
                stats.latency.quantile_micros(0.99),
            )
        }
        query => {
            let deadline = Instant::now() + Duration::from_millis(cfg.deadline_ms);
            let outcome =
                catch_unwind(AssertUnwindSafe(|| engine.execute(&query, deadline, stats)));
            match outcome {
                Ok(Outcome::Ok(reply)) => {
                    ServerStats::bump(&stats.ok_replies);
                    reply
                }
                Ok(Outcome::Deadline(epoch)) => {
                    ServerStats::bump(&stats.deadlines);
                    format!("DEADLINE {epoch}")
                }
                Ok(Outcome::Error(e)) => format!("ERR {e}"),
                Err(_) => {
                    ServerStats::bump(&stats.contained_panics);
                    "ERR query panicked (contained)".to_string()
                }
            }
        }
    }
}

/// Blocking client helper: sends one request frame and reads one reply
/// frame. Used by the torture client, the CLI, and the bench driver.
#[must_use]
pub fn roundtrip(
    stream: &mut TcpStream,
    request: &str,
    max_frame: usize,
) -> Result<Vec<u8>, FrameError> {
    write_frame(stream, request.as_bytes()).map_err(|e| FrameError::Io(e.kind()))?;
    read_frame(stream, max_frame)
}

/// Connects with the standard client-side timeouts.
#[must_use]
pub fn connect(addr: SocketAddr, timeout_ms: u64) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(timeout_ms.max(1)))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(timeout_ms.max(1))))?;
    stream.set_write_timeout(Some(Duration::from_millis(timeout_ms.max(1))))?;
    let mut s = stream;
    flush_nothing(&mut s);
    Ok(s)
}

/// No-op kept separate so `connect` reads as one statement per step.
fn flush_nothing(stream: &mut TcpStream) {
    let _ = stream.flush();
}
