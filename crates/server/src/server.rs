//! The server proper: listener → bounded queue → worker pool, with
//! per-request isolation and graceful drain.
//!
//! Fault containment is layered. A panic while serving a request is caught
//! around that request alone: the client gets [`Status::Internal`], the
//! worker discards its possibly-inconsistent [`PipelineCx`] and re-forks a
//! fresh one, and the pool keeps running. A panic that escapes even that
//! (e.g. in the response path) trips the worker's own supervisor loop,
//! which respawns the worker state and counts the event. Admission control
//! is the bounded queue: `try_push` never blocks, so a full queue is an
//! immediate [`Status::Overloaded`] instead of unbounded tail latency.
//!
//! Shutdown (SIGTERM in the binary, [`ServerHandle::shutdown`] here) flips
//! one flag and closes the queue. Both listeners block in `accept`, so one
//! loopback connect to each wakes it to see the flag. The listener stops
//! accepting, connection threads answer further frames with
//! [`Status::ShuttingDown`], workers drain what was already admitted, and
//! every in-flight request still gets its response — the response socket is
//! shared by `Arc`, so a connection thread exiting early never tears it
//! down under a worker.

use crate::config::ServerConfig;
use crate::metrics::ServerMetrics;
use crate::queue::{BoundedQueue, PushError};
use crate::wire::{
    self, format_allocation, format_program_digest, parse_allocate_payload, parse_program_payload,
    AllocateRequest, ProgramRequest, RequestKind, Status, WireError,
};
use lemra_core::{allocate_program_with, AllocationReport, CoreError, PipelineCx};
use lemra_netflow::{NetflowError, SolveBudget};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a connection's peek loop re-checks the shutdown flag, and how
/// long a listener backs off after a failed `accept`.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Patience for the loopback connect that wakes a listener at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Patience for the rest of a frame once its first byte has arrived.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The response half of a connection, shared between the connection thread
/// and whichever worker serves its requests. Cloning the `Arc` (not the
/// socket) means the stream lives until the last response is written, even
/// if the reading side already hit EOF.
pub(crate) struct ConnShared {
    stream: Mutex<TcpStream>,
}

impl ConnShared {
    fn new(stream: TcpStream) -> Self {
        ConnShared {
            stream: Mutex::new(stream),
        }
    }

    /// Writes one response frame; a vanished client is not an error worth
    /// propagating, so I/O failures are swallowed after shutting the
    /// socket.
    fn send(&self, status: Status, id: u64, payload: &[u8]) {
        let mut stream = self.stream.lock().expect("connection lock poisoned");
        if wire::write_frame(&mut *stream, status.as_u16(), id, payload).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Tears the connection down mid-response — the `conn@<id>` fault.
    #[cfg(feature = "fault-inject")]
    fn kill(&self) {
        let stream = self.stream.lock().expect("connection lock poisoned");
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// A parsed request travelling the queue. The allocate body is boxed to
/// keep queue slots small (an [`AllocateRequest`] carries the parsed
/// problem inline).
pub(crate) enum ParsedRequest {
    Allocate(Box<AllocateRequest>),
    Program(ProgramRequest),
}

/// One admitted unit of work.
pub(crate) struct Job {
    request_id: u64,
    request: ParsedRequest,
    accepted: Instant,
    deadline: Instant,
    conn: Arc<ConnShared>,
}

/// State shared by every thread of one server instance.
struct Shared {
    cfg: ServerConfig,
    queue: BoundedQueue<Job>,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`shutdown`](Self::shutdown) and [`join`](Self::join).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    admin_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds both listeners, spawns the worker pool and starts accepting.
    /// Bind addresses with port 0 get OS-assigned ports; read them back
    /// from [`addr`](Self::addr) / [`admin_addr`](Self::admin_addr).
    ///
    /// # Errors
    ///
    /// I/O errors binding either listener.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        #[cfg(feature = "fault-inject")]
        lemra_netflow::ensure_env_plan()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;

        let listener = TcpListener::bind(&cfg.listen)?;
        let admin_listener = TcpListener::bind(&cfg.admin)?;
        let addr = listener.local_addr()?;
        let admin_addr = admin_listener.local_addr()?;

        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_depth),
            metrics: ServerMetrics::default(),
            shutdown: AtomicBool::new(false),
            cfg,
        });

        let mut threads = Vec::with_capacity(workers + 2);
        // The workers fork one parent context so they all inherit the same
        // backend.
        let parent = PipelineCx::new();
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let cx = parent.fork();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("lemra-worker-{i}"))
                    .spawn(move || supervised_worker(&shared, cx))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("lemra-listener".to_owned())
                    .spawn(move || listener_loop(&shared, &listener))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("lemra-admin".to_owned())
                    .spawn(move || admin_loop(&shared, &admin_listener))?,
            );
        }

        Ok(Server {
            shared,
            addr,
            admin_addr,
            threads,
        })
    }

    /// The request listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin endpoint's bound address.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin_addr
    }

    /// The server's live counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Begins a graceful drain: stop accepting, refuse new frames with
    /// [`Status::ShuttingDown`], let the workers finish every admitted
    /// request. Idempotent; returns immediately.
    pub fn shutdown(&self) {
        if !self.shared.shutdown.swap(true, Ordering::AcqRel) {
            wake(self.addr);
            wake(self.admin_addr);
        }
        self.shared.queue.close();
    }

    /// [`shutdown`](Self::shutdown) and wait for every thread to exit —
    /// when this returns, all in-flight responses have been written and
    /// [`metrics`](Self::metrics) is final. Idempotent.
    pub fn join(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Connects to a listener blocked in `accept` so it returns and sees the
/// shutdown flag; the connection is dropped unserved. A listener bound to
/// the unspecified address is reached over loopback.
fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    // A failed connect is harmless when the listener's backlog is full:
    // those pending connections wake it instead.
    let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
}

fn listener_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut conn_threads = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutting_down() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                ServerMetrics::bump(&shared.metrics.conns_opened);
                // Responses are small request/reply frames: send each at
                // once instead of letting Nagle wait for the client's ACK.
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                reap_finished(&mut conn_threads);
                conn_threads.push(std::thread::spawn(move || conn_loop(&shared, stream)));
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    for t in conn_threads {
        let _ = t.join();
    }
}

/// Drops the handles of connection threads that have already exited, so
/// the listener holds one handle per live connection rather than one per
/// connection ever accepted. Nothing is lost by not joining them: shutdown
/// discards connection-thread results too.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    handles.retain(|h| !h.is_finished());
}

fn conn_loop(shared: &Shared, stream: TcpStream) {
    let conn = Arc::new(ConnShared::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    }));
    let mut reader = stream;
    let _ = reader.set_read_timeout(Some(POLL_INTERVAL));

    loop {
        // Peek (non-consuming) with a short timeout so the loop stays
        // responsive to shutdown without ever leaving a frame half-read.
        let mut probe = [0u8; 1];
        match reader.peek(&mut probe) {
            Ok(0) => break, // client closed
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }

        let _ = reader.set_read_timeout(Some(FRAME_READ_TIMEOUT));
        let frame = wire::read_request(&mut reader, shared.cfg.max_payload);
        let _ = reader.set_read_timeout(Some(POLL_INTERVAL));

        match frame {
            Ok(None) => break,
            Ok(Some((kind, frame))) => {
                if !handle_frame(shared, &conn, kind, frame) {
                    break;
                }
            }
            Err(WireError::TooLarge { id, len, max }) => {
                ServerMetrics::bump(&shared.metrics.too_large);
                let reason = format!("payload of {len} bytes exceeds cap {max}");
                conn.send(Status::TooLarge, id, reason.as_bytes());
                // The unread payload would desync framing; drop the
                // connection rather than resynchronise.
                break;
            }
            Err(_) => {
                ServerMetrics::bump(&shared.metrics.bad_frames);
                break;
            }
        }
    }
}

/// Serves one decoded frame inline or enqueues it; `false` closes the
/// connection.
fn handle_frame(
    shared: &Shared,
    conn: &Arc<ConnShared>,
    kind: RequestKind,
    frame: wire::Frame,
) -> bool {
    let id = frame.id;
    if kind == RequestKind::Ping {
        ServerMetrics::bump(&shared.metrics.pings);
        conn.send(Status::Ok, id, b"pong");
        return true;
    }
    ServerMetrics::bump(&shared.metrics.received);
    if shared.shutting_down() {
        ServerMetrics::bump(&shared.metrics.shutting_down);
        conn.send(Status::ShuttingDown, id, b"server is draining");
        return true;
    }
    let accepted = Instant::now();
    let (request, timeout_ms) = match kind {
        RequestKind::Ping => unreachable!("handled above"),
        RequestKind::Allocate => match parse_allocate_payload(&frame.payload) {
            Ok(req) => {
                let t = req.timeout_ms;
                (ParsedRequest::Allocate(Box::new(req)), t)
            }
            Err(e) => {
                ServerMetrics::bump(&shared.metrics.bad_request);
                conn.send(Status::BadRequest, id, e.to_string().as_bytes());
                return true;
            }
        },
        RequestKind::Program => match parse_program_payload(&frame.payload) {
            Ok(req) => {
                let t = req.timeout_ms;
                (ParsedRequest::Program(req), t)
            }
            Err(e) => {
                ServerMetrics::bump(&shared.metrics.bad_request);
                conn.send(Status::BadRequest, id, e.to_string().as_bytes());
                return true;
            }
        },
    };
    let timeout = Duration::from_millis(timeout_ms.unwrap_or(shared.cfg.default_timeout_ms));
    let job = Job {
        request_id: id,
        request,
        accepted,
        deadline: accepted + timeout,
        conn: Arc::clone(conn),
    };
    match shared.queue.try_push(job) {
        Ok(()) => true,
        Err((job, PushError::Full)) => {
            ServerMetrics::bump(&shared.metrics.shed);
            job.conn
                .send(Status::Overloaded, id, b"queue full, retry with backoff");
            true
        }
        Err((job, PushError::Closed)) => {
            ServerMetrics::bump(&shared.metrics.shutting_down);
            job.conn
                .send(Status::ShuttingDown, id, b"server is draining");
            true
        }
    }
}

/// The worker's outer supervisor: if anything escapes the per-request
/// containment in `worker_loop`, respawn the worker state (fresh
/// [`PipelineCx`]) and keep consuming until the queue drains.
fn supervised_worker(shared: &Shared, cx: PipelineCx) {
    let template = cx.fork();
    let mut cx = cx;
    loop {
        let exited = catch_unwind(AssertUnwindSafe(|| worker_loop(shared, &mut cx)));
        match exited {
            Ok(()) => break, // queue closed and drained
            Err(_) => {
                ServerMetrics::bump(&shared.metrics.worker_respawns);
                cx = template.fork();
            }
        }
    }
}

fn worker_loop(shared: &Shared, cx: &mut PipelineCx) {
    while let Some(job) = shared.queue.pop() {
        serve_job(shared, cx, job);
    }
}

fn serve_job(shared: &Shared, cx: &mut PipelineCx, job: Job) {
    let id = job.request_id;
    if Instant::now() >= job.deadline {
        // Expired while queued: answering a stale solve would only add
        // more latency behind it.
        ServerMetrics::bump(&shared.metrics.deadline);
        job.conn
            .send(Status::DeadlineExceeded, id, b"deadline expired in queue");
        shared.metrics.record_latency(job.accepted.elapsed());
        return;
    }

    let incidents_before = cx.incident_count();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_request(cx, &job)));
    let (status, payload) = match outcome {
        Ok(result) => result,
        Err(_) => {
            // The context may hold half-updated solver state; discard it.
            *cx = cx.fork();
            ServerMetrics::bump(&shared.metrics.internal);
            (
                Status::Internal,
                "panic contained while serving request".to_owned(),
            )
        }
    };
    let absorbed = cx.incident_count().saturating_sub(incidents_before);
    if absorbed > 0 {
        ServerMetrics::add(&shared.metrics.incidents, absorbed);
    }
    match status {
        Status::Ok => ServerMetrics::bump(&shared.metrics.ok),
        Status::DeadlineExceeded => ServerMetrics::bump(&shared.metrics.deadline),
        Status::AllocFailed => ServerMetrics::bump(&shared.metrics.alloc_failed),
        _ => {}
    }

    #[cfg(feature = "fault-inject")]
    if lemra_netflow::maybe_inject_conn(id) {
        ServerMetrics::bump(&shared.metrics.conn_killed);
        job.conn.kill();
        shared.metrics.record_latency(job.accepted.elapsed());
        return;
    }

    job.conn.send(status, id, payload.as_bytes());
    shared.metrics.record_latency(job.accepted.elapsed());
}

/// Runs the solve under the request's scope and budget. Panics propagate
/// to `serve_job`'s containment.
fn run_request(cx: &mut PipelineCx, job: &Job) -> (Status, String) {
    #[cfg(feature = "fault-inject")]
    let _scope = lemra_netflow::RequestScope::enter(job.request_id);

    let budget = SolveBudget::default().with_deadline(job.deadline);
    let prev_budget = cx.set_solve_budget(budget);
    let result = match &job.request {
        ParsedRequest::Allocate(req) => cx.allocate(&req.problem).map(|allocation| {
            let report = AllocationReport::new(&req.problem, &allocation);
            format_allocation(req, &allocation, &report)
        }),
        ParsedRequest::Program(req) => {
            // The worker's context retains one network, the last block's, so
            // a program repeating that topology starts warm; the unique
            // optimum keeps every digest independent of earlier requests.
            allocate_program_with(cx, &req.chain).map(|program| format_program_digest(&program))
        }
    };
    cx.set_solve_budget(prev_budget);
    match result {
        Ok(payload) => (Status::Ok, payload),
        Err(CoreError::Flow(NetflowError::BudgetExceeded { .. })) => (
            Status::DeadlineExceeded,
            "deadline expired mid-solve".to_owned(),
        ),
        Err(e) => (Status::AllocFailed, e.to_string()),
    }
}

fn admin_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.shutting_down() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = serve_admin(shared, stream);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// The admin line protocol: `stats` → `STAT …` lines + `END`; `ping` →
/// `PONG`; `quit` or EOF closes. One connection at a time — this is an
/// operator surface, not a data plane.
fn serve_admin(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        match line.trim() {
            "stats" => {
                let text = shared
                    .metrics
                    .render_stats(shared.queue.len(), shared.cfg.workers.max(1));
                writer.write_all(text.as_bytes())?;
                writer.flush()?;
            }
            "ping" => {
                writer.write_all(b"PONG\n")?;
                writer.flush()?;
            }
            "quit" | "" => break,
            other => {
                writer.write_all(format!("ERR unknown command `{other}`\n").as_bytes())?;
                writer.flush()?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn fresh_connections_are_accepted_without_a_poll_sleep() {
        // Each connection below arrives while its listener waits for the
        // next one. A listener that polled `accept` and slept between polls
        // would make it wait out the sleep: 25 ms a connection.
        let mut server = Server::start(ServerConfig {
            listen: "127.0.0.1:0".into(),
            admin: "127.0.0.1:0".into(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let t0 = Instant::now();
        for _ in 0..200 {
            let mut client = crate::Client::connect(server.addr()).unwrap();
            assert_eq!(client.ping().unwrap().status, Status::Ok);
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "200 pings took {elapsed:?}"
        );
        let t0 = Instant::now();
        for _ in 0..100 {
            let mut admin = TcpStream::connect(server.admin_addr()).unwrap();
            admin.write_all(b"ping\nquit\n").unwrap();
            let mut reply = String::new();
            BufReader::new(admin).read_line(&mut reply).unwrap();
            assert_eq!(reply, "PONG\n");
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "100 admin pings took {elapsed:?}"
        );
        // Shutdown wakes both blocked listeners at once.
        let t0 = Instant::now();
        server.shutdown();
        server.join();
        let elapsed = t0.elapsed();
        assert!(elapsed < Duration::from_millis(20), "join took {elapsed:?}");
    }

    #[test]
    fn reaping_drops_only_finished_connection_threads() {
        let (release, held) = mpsc::channel::<()>();
        let live = std::thread::spawn(move || {
            let _ = held.recv();
        });
        let done = std::thread::spawn(|| {});
        while !done.is_finished() {
            std::thread::yield_now();
        }
        let mut handles = vec![done, live];
        reap_finished(&mut handles);
        assert_eq!(handles.len(), 1, "the exited thread's handle is dropped");
        assert!(
            !handles[0].is_finished(),
            "the live thread's handle is kept"
        );
        release.send(()).unwrap();
        for h in handles {
            h.join().unwrap();
        }
    }
}
