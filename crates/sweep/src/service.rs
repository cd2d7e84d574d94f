//! The long-running sweep service: `st serve`.
//!
//! A daemon that wraps one shared [`SweepEngine`] behind a socket so many
//! clients (and many hosts) can reuse one warm result store: the engine
//! opens the store's index at startup, reads a stored report the first
//! time a submission asks for it, and holds every report it simulated,
//! relabelled or read for the daemon's lifetime. The wire
//! protocol is deliberately thin — hand-rolled HTTP/1.1 over
//! [`std::net::TcpListener`] carrying the same self-describing encodings
//! the rest of the crate already speaks:
//!
//! * **`POST /submit`** — the body is a sweep spec, byte-for-byte what
//!   `st run` reads from a file (TOML or JSON, parsed by
//!   [`SweepSpec::parse`]). The server expands the grid through the axis
//!   registry, runs it as one batch of the shared engine in stream
//!   order ([`SweepEngine::run_each`]), cache-first, and streams back
//!   newline-delimited JSON: exactly the tagged `report` + `comparison`
//!   records of [`crate::emit::sweep_jsonl`], in canonical grid order,
//!   flushed one record at a time as points complete. Piping the
//!   response to a file yields output **byte-identical** to a local
//!   `st run` of the same spec.
//! * **`GET /audit`** — the body is a sweep spec (same bytes as
//!   `/submit`); the reply is one `audit` summary line plus the
//!   deterministic findings of [`crate::audit`] over the (cache-first)
//!   sweep — byte-identical to a local `st audit` of the same spec.
//! * **`GET /status`** — one JSON object of live counters: cache size,
//!   in-flight points, active/total submissions, audit requests, served,
//!   simulated and aliased point counts.
//! * **`POST /shutdown`** — graceful shutdown: the server stops
//!   accepting, finishes every active connection, then exits `run`.
//!   SIGINT (via [`install_sigint_handler`]) takes the same path.
//!
//! Malformed requests get structured JSON error replies
//! (`{"kind":"error","error":"…"}`) with conventional status codes, so a
//! misbehaving client can never wedge the daemon.
//!
//! The engine is the only executor. Two overlapping submissions are two
//! concurrent engine batches, so they never simulate one machine twice:
//! the first batch to reach a machine simulates it, and any other waits
//! for that run and takes its report, relabelled for a point of another
//! fingerprint (C1 while A5 runs). The engine's permits bound the
//! simulations of every connection together to `--threads`.
//!
//! ```
//! use std::sync::Arc;
//! use st_sweep::service::{Server, ServiceConfig};
//!
//! let config = ServiceConfig { no_cache: true, ..ServiceConfig::default() };
//! let server = Arc::new(Server::bind("127.0.0.1:0", &config)?);
//! let addr = server.local_addr().to_string();
//! let handle = {
//!     let server = Arc::clone(&server);
//!     std::thread::spawn(move || server.run())
//! };
//!
//! let spec = "name = \"doc\"\nworkloads = [\"go\"]\nbaseline = false\n\
//!             axis.instructions = [400]\n";
//! let mut out = Vec::new();
//! st_sweep::client::submit(&addr, spec, &mut out)?;
//! assert!(String::from_utf8(out)?.starts_with("{\"kind\":\"report\""));
//!
//! st_sweep::client::shutdown(&addr)?;
//! handle.join().expect("server thread")?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use st_core::SimReport;

use crate::emit;
use crate::engine::{Schedule, SweepEngine};
use crate::job::JobSpec;
use crate::spec::{SweepPoint, SweepSpec};

/// Largest request body the server will read, in bytes. Sweep specs are
/// a few hundred bytes; anything near this limit is a confused client.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Extra budget for the request line + headers on top of the body cap;
/// the whole request head is read through a [`Read::take`] of
/// `MAX_BODY_BYTES + MAX_HEAD_BYTES`, so a client streaming bytes with
/// no newline cannot grow server memory without bound.
const MAX_HEAD_BYTES: usize = 64 << 10;

/// How often the accept loop re-checks the shutdown flags while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// How long a connection may sit idle before its reads give up. Bounds
/// how long a silent client (e.g. a bare `nc` connection) can delay the
/// graceful-shutdown drain.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-write timeout towards the client. A live consumer drains its
/// TCP buffer far faster than this; a vanished one stops blocking the
/// stream (and the shutdown drain) after at most one timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(60);

/// Process-global flag set by the SIGINT handler (see
/// [`install_sigint_handler`]); every [`Server::run`] loop honours it.
static SIGINT_RECEIVED: AtomicBool = AtomicBool::new(false);

/// Installs a SIGINT handler that requests graceful shutdown of every
/// [`Server`] in this process: the accept loop stops, active connections
/// finish streaming, then [`Server::run`] returns normally.
///
/// The handler only stores to an atomic flag (async-signal-safe). On
/// non-Unix platforms this is a no-op and Ctrl-C keeps its default
/// process-killing behaviour.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_sigint(_signum: i32) {
            SIGINT_RECEIVED.store(true, Ordering::SeqCst);
        }
        const SIGINT: i32 = 2;
        // SAFETY: `signal` is called with a valid signal number and a
        // handler that only stores to an atomic, which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

/// Restores SIGPIPE's default action, which Rust replaces with "ignore"
/// at startup, so a write to a pipe whose reader has gone ends the
/// process quietly instead of failing with `EPIPE`. For commands that
/// write only to stdout and files; a server must keep SIGPIPE ignored.
/// A no-op on non-Unix platforms.
pub fn restore_default_sigpipe() {
    #[cfg(unix)]
    {
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: `signal` is called with a valid signal number and
        // `SIG_DFL`, which installs no handler of ours.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(unix)]
extern "C" {
    /// libc's `signal`; `handler` is `SIG_DFL` (0) or a function
    /// pointer.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// How a [`Server`] builds its engine: where the shared result store
/// lives and how many simulations may run concurrently.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Output directory; the result store sits under `<out>/.store`,
    /// shared with `st run`/`st repro`.
    pub out: PathBuf,
    /// The engine's worker count (`0` = auto-detect the hardware
    /// parallelism). Bounds concurrent simulations *across all
    /// connections* — the service's backpressure.
    pub threads: usize,
    /// Skip the on-disk result store (results are still memoised in
    /// memory for the server's lifetime).
    pub no_cache: bool,
    /// Size budget for the result store (`st serve --max-bytes`):
    /// after each submission the service evicts least-recently-used
    /// entries until the store fits. Entries of in-flight submissions
    /// are pinned and never evicted.
    pub max_store_bytes: Option<u64>,
}

impl Default for ServiceConfig {
    /// The `st serve` defaults: store under `results/.store`, worker
    /// pool sized to the hardware, no size budget.
    fn default() -> ServiceConfig {
        ServiceConfig {
            out: PathBuf::from("results"),
            threads: 0,
            no_cache: false,
            max_store_bytes: None,
        }
    }
}

/// The sharable core of the daemon: the engine and the serving
/// counters. [`Server`] adds the socket; tests can drive a
/// `SweepService` directly without any networking.
#[derive(Debug)]
pub struct SweepService {
    engine: SweepEngine,
    submissions: AtomicU64,
    active_submissions: AtomicU64,
    points_served: AtomicU64,
    range_requests: AtomicU64,
    audit_requests: AtomicU64,
    max_store_bytes: Option<u64>,
}

impl SweepService {
    /// A service configured per `config` (the engine is built here, so
    /// construction opens the index of `<out>/.store`, and enforces the
    /// size budget once up front).
    #[must_use]
    pub fn new(config: &ServiceConfig) -> SweepService {
        let engine = if config.no_cache {
            SweepEngine::new(config.threads)
        } else {
            SweepEngine::with_result_store(config.threads, &config.out)
        };
        let service = SweepService {
            engine,
            submissions: AtomicU64::new(0),
            active_submissions: AtomicU64::new(0),
            points_served: AtomicU64::new(0),
            range_requests: AtomicU64::new(0),
            audit_requests: AtomicU64::new(0),
            max_store_bytes: config.max_store_bytes,
        };
        if service.max_store_bytes.is_some() {
            if service.engine.result_store().is_some() {
                service.enforce_store_budget();
            } else {
                eprintln!("st serve: --max-bytes has no effect with --no-cache");
            }
        }
        service
    }

    /// Evicts down to the configured byte budget (pinned in-flight
    /// entries are exempt, so the store may run over budget transiently
    /// while submissions stream).
    fn enforce_store_budget(&self) {
        let Some(max) = self.max_store_bytes else { return };
        if let Some(store) = self.engine.result_store() {
            if let Err(e) = store.evict_to_budget(max) {
                eprintln!("st serve: store eviction failed: {e}");
            }
        }
    }

    /// The engine every submission is served from.
    #[must_use]
    pub fn engine(&self) -> &SweepEngine {
        &self.engine
    }

    /// The engine's worker count: at most this many simulations run at
    /// once.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.engine.threads()
    }

    /// Serves one expanded grid into `sink` as the canonical sweep JSONL
    /// stream: every `report` record in grid order (each flushed as soon
    /// as its prefix of the grid is complete — points simulate out of
    /// order across the pool, bytes never do), then every `comparison`
    /// record. The concatenated bytes equal
    /// [`crate::emit::sweep_jsonl_with_pairing`] for the same points and
    /// [`crate::emit::baseline_pairing`] exactly.
    ///
    /// # Errors
    ///
    /// Returns any `sink` write error (a disconnected client, typically);
    /// simulation itself cannot fail.
    pub fn stream(
        &self,
        points: &[SweepPoint],
        pairing: &[Option<usize>],
        sink: &mut dyn Write,
    ) -> std::io::Result<()> {
        self.submissions.fetch_add(1, Ordering::Relaxed);
        let jobs: Vec<&JobSpec> = points.iter().map(|p| &p.job).collect();
        let reports = self.serve(&jobs, sink, |i, report| emit::report_line(&points[i], report))?;
        sink.write_all(emit::comparison_lines(points, &reports, pairing).as_bytes())?;
        sink.flush()
    }

    /// Serves a fingerprint sub-range of an expanded grid into `sink` as
    /// shard `point` records ([`crate::shard::point_record`]): one line
    /// per grid member whose job fingerprint falls in `[lo, hi]`, in
    /// `(fingerprint, seq)` order — exactly
    /// [`crate::shard::ShardPlan::members_in_range`] order, which is why
    /// a prefix of this stream always corresponds to a well-defined
    /// *remaining* sub-range a fleet coordinator can resubmit elsewhere
    /// after a mid-stream death. Computation is cache-first, parallel
    /// and de-duplicated exactly like a full submission; bytes are
    /// emitted strictly in order, each record flushed as its prefix
    /// completes.
    ///
    /// `members` are grid indices (`seq` values), as returned by
    /// [`crate::shard::ShardPlan::members_in_range`].
    ///
    /// # Errors
    ///
    /// Returns any `sink` write error (a disconnected client, typically).
    pub fn stream_points(
        &self,
        points: &[SweepPoint],
        members: &[usize],
        sink: &mut dyn Write,
    ) -> std::io::Result<()> {
        self.range_requests.fetch_add(1, Ordering::Relaxed);
        let jobs: Vec<&JobSpec> = members.iter().map(|&seq| &points[seq].job).collect();
        self.serve(&jobs, sink, |slot, report| {
            let seq = members[slot];
            crate::shard::point_record(seq, &points[seq], report)
        })?;
        Ok(())
    }

    /// Runs `jobs` as one engine batch in stream order and writes
    /// `record(i, report)` for each job in index order, each flushed as
    /// soon as it and every job before it have their reports; returns
    /// the reports. A failed write (a client that hung up) stops the
    /// batch: none of its simulations not yet under way starts. The
    /// batch's store entries are pinned against eviction while it
    /// streams and count as recently used afterwards; then the store
    /// budget applies.
    fn serve(
        &self,
        jobs: &[&JobSpec],
        sink: &mut dyn Write,
        record: impl Fn(usize, &SimReport) -> String,
    ) -> std::io::Result<Vec<Arc<SimReport>>> {
        self.active_submissions.fetch_add(1, Ordering::Relaxed);
        let fingerprints: Vec<u64> = jobs.iter().map(|job| job.fingerprint()).collect();
        let pins = self.engine.result_store().map(|s| s.pin(&fingerprints));
        let mut reports: Vec<Option<Arc<SimReport>>> = vec![None; jobs.len()];
        let written = std::thread::scope(|scope| -> std::io::Result<()> {
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(move || {
                self.engine
                    .run_each(jobs, Schedule::AsGiven, |i, report| tx.send((i, report)).is_ok());
            });
            // The loop owns the receiver, so a write error drops it before
            // the scope joins the batch, and the batch's next send fails.
            let mut next = 0;
            for (i, report) in rx {
                reports[i] = Some(report);
                while let Some(Some(report)) = reports.get(next) {
                    sink.write_all(record(next, report).as_bytes())?;
                    sink.flush()?;
                    self.points_served.fetch_add(1, Ordering::Relaxed);
                    next += 1;
                }
            }
            Ok(())
        });
        drop(pins);
        if let Some(store) = self.engine.result_store() {
            // The whole working set counts as recently used, so LRU
            // eviction prefers entries no submission asked for lately.
            store.touch_all(&fingerprints);
        }
        self.active_submissions.fetch_sub(1, Ordering::Relaxed);
        self.enforce_store_budget();
        written?;
        Ok(reports.into_iter().map(|report| report.expect("every job reported")).collect())
    }

    /// Audits a submitted grid: the points run as one engine batch,
    /// cache-first (sharing the engine's machines and result store with
    /// `/submit`), the canonical records are re-derived with
    /// [`crate::emit::sweep_jsonl`], and the findings engine judges them
    /// against the expanded grid. Backs `GET /audit` and bumps the
    /// `audit_requests` status counter.
    ///
    /// # Panics
    ///
    /// Panics if the canonical emitter produces records the audit
    /// parser rejects — a crate bug, not an input condition.
    #[must_use]
    pub fn audit_findings(&self, points: &[SweepPoint]) -> Vec<crate::audit::Finding> {
        self.audit_requests.fetch_add(1, Ordering::Relaxed);
        let jobs: Vec<JobSpec> = points.iter().map(|p| p.job.clone()).collect();
        let reports = self.engine.run(&jobs);
        let jsonl = emit::sweep_jsonl(points, &reports);
        let records =
            crate::audit::parse_records(&jsonl).expect("emitted sweep records always parse");
        crate::audit::audit_with_grid(&records, points)
    }

    /// The `GET /status` payload: one line of JSON over the live
    /// counters (engine cache + service totals + result-store
    /// accounting, including eviction/compaction totals).
    #[must_use]
    pub fn status_json(&self) -> String {
        let stats = self.engine.stats();
        let (cache_dir, store) = match self.engine.result_store() {
            Some(result_store) => {
                let s = result_store.stats();
                let dir =
                    format!("\"{}\"", emit::json_escape(&result_store.dir().display().to_string()));
                let store = format!(
                    "{{\"entries\":{},\"live_bytes\":{},\"dead_bytes\":{},\"file_bytes\":{},\"segments\":{},\"skipped_corrupt\":{},\"evictions\":{},\"compactions\":{}}}",
                    s.entries,
                    s.live_bytes,
                    s.dead_bytes,
                    s.file_bytes,
                    s.segments,
                    s.skipped_corrupt,
                    s.evictions,
                    s.compactions,
                );
                (dir, store)
            }
            None => ("null".to_string(), "null".to_string()),
        };
        format!(
            "{{\"kind\":\"status\",\"workers\":{},\"submissions\":{},\"active_submissions\":{},\"range_requests\":{},\"audit_requests\":{},\"in_flight_points\":{},\"points_served\":{},\"points_simulated\":{},\"points_aliased\":{},\"cache_entries\":{},\"cache_loaded\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_dir\":{},\"store\":{}}}",
            self.workers(),
            self.submissions.load(Ordering::Relaxed),
            self.active_submissions.load(Ordering::Relaxed),
            self.range_requests.load(Ordering::Relaxed),
            self.audit_requests.load(Ordering::Relaxed),
            self.engine.simulations_in_flight(),
            self.points_served.load(Ordering::Relaxed),
            stats.simulated,
            stats.aliased,
            stats.cache.entries,
            stats.loaded,
            stats.cache.hits,
            stats.cache.misses,
            cache_dir,
            store,
        )
    }
}

/// The daemon: a bound listener plus a shared [`SweepService`].
///
/// [`Server::bind`] binds (port `0` picks an ephemeral port — see
/// [`Server::local_addr`]); [`Server::run`] accepts until `POST
/// /shutdown` or SIGINT, then drains active connections and returns.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    service: Arc<SweepService>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7077`) and builds the service —
    /// including the result store's index, so a warm store is ready
    /// before the first connection.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, bad address).
    pub fn bind(addr: &str, config: &ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // The accept loop polls so it can observe shutdown requests and
        // SIGINT between (non-blocking) accepts.
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            addr,
            service: Arc::new(SweepService::new(config)),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually bound address (resolves port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service, for in-process inspection in tests.
    #[must_use]
    pub fn service(&self) -> &SweepService {
        &self.service
    }

    /// Accepts and serves connections until a shutdown request (`POST
    /// /shutdown`) or SIGINT arrives, then waits for every active
    /// connection to finish before returning — no stream is ever cut
    /// mid-record.
    ///
    /// # Errors
    ///
    /// The `Result` is reserved for fatal listener failures; today every
    /// per-connection I/O error is answered with a structured reply (or
    /// dropped if the peer is gone) and every transient accept error
    /// (fd exhaustion, aborted handshakes) is logged and retried, so
    /// none of them stop the server.
    pub fn run(&self) -> std::io::Result<()> {
        serve_connections(&self.listener, &self.shutdown, &|stream| {
            handle_connection(stream, &self.service, &self.shutdown);
        })
    }
}

/// The accept-poll-drain loop shared by [`Server`] and the fleet
/// coordinator ([`crate::fleet::FleetServer`]): accepts until `shutdown`
/// (or SIGINT) is raised, hands each connection to `handle` on its own
/// scoped thread, then waits for every handler to finish before
/// returning — the graceful drain. A panicking handler (a simulator bug
/// surfacing mid-stream) is caught and logged, never fatal.
pub(crate) fn serve_connections(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    handle: &(dyn Fn(TcpStream) + Sync),
) -> std::io::Result<()> {
    std::thread::scope(|scope| {
        while !shutdown.load(Ordering::SeqCst) && !SIGINT_RECEIVED.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // The listener is non-blocking for the poll loop;
                    // connection I/O itself must block normally — but
                    // with timeouts, so no silent or vanished client
                    // can hold the graceful-shutdown drain hostage. A
                    // socket that rejects its options is dropped, never
                    // fatal.
                    if stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
                        .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
                        .is_err()
                    {
                        continue;
                    }
                    scope.spawn(move || {
                        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            handle(stream);
                        }))
                        .is_err()
                        {
                            eprintln!("sweep service: connection handler panicked (bug)");
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient accept failures (EMFILE under connection
                    // pressure, ECONNABORTED, …) must not kill a daemon
                    // with live streams; log, back off, keep serving.
                    eprintln!("sweep service: accept failed (retrying): {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
        // Scope exit joins every connection thread: no stream is ever
        // cut mid-record by shutdown.
        Ok(())
    })
}

// ---------------------------------------------------------------------
// The wire protocol: minimal HTTP/1.1 + newline-delimited JSON.
// ---------------------------------------------------------------------

/// One parsed request: method, query-stripped path, raw query string
/// (empty when absent) and the (Content-Length-delimited) body. Shared
/// with the fleet coordinator, which speaks the same wire protocol.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) query: String,
    pub(crate) body: String,
}

/// Reads one HTTP/1.1 request. Errors are `(status code, message)`
/// pairs ready for [`respond_error`].
pub(crate) fn read_request(stream: &TcpStream) -> Result<Request, (u16, String)> {
    let bad = |msg: &str| (400, msg.to_string());
    // The whole request — head *and* body — reads through a hard byte
    // cap, so `read_line` can never grow unboundedly on newline-free
    // garbage; an over-long head simply hits apparent EOF and fails.
    let limited = stream
        .try_clone()
        .map_err(|e| (500, format!("cannot clone connection: {e}")))?
        .take((MAX_BODY_BYTES + MAX_HEAD_BYTES) as u64);
    let mut reader = BufReader::new(limited);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| bad(&format!("cannot read request line: {e}")))?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(bad("malformed request line (expected `METHOD /path HTTP/1.1`)"));
    };
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (path.to_string(), String::new()),
    };
    let method = method.to_string();

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(|e| bad(&format!("cannot read headers: {e}")))?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(&format!("unparseable Content-Length `{}`", value.trim())))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err((
            413,
            format!("request body of {content_length} bytes exceeds {MAX_BODY_BYTES}"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| bad(&format!("truncated request body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| bad("request body is not valid UTF-8"))?;
    Ok(Request { method, path, query, body })
}

/// The reason phrase for the handful of status codes the server emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete (Content-Length-delimited) JSON reply.
pub(crate) fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    )
}

/// Writes a structured error reply: `{"kind":"error","error":"…"}`.
pub(crate) fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    message: &str,
) -> std::io::Result<()> {
    let body = format!("{{\"kind\":\"error\",\"error\":\"{}\"}}", emit::json_escape(message));
    respond_json(stream, status, &body)
}

/// Serves one connection: parse, dispatch, reply. All errors are
/// answered on the wire; a peer that vanished mid-reply is simply
/// dropped.
fn handle_connection(mut stream: TcpStream, service: &SweepService, shutdown: &AtomicBool) {
    let request = match read_request(&stream) {
        Ok(r) => r,
        Err((status, message)) => {
            let _ = respond_error(&mut stream, status, &message);
            return;
        }
    };
    let outcome = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/submit") => handle_submit(&mut stream, service, &request.body),
        // GET-with-body is unconventional but unambiguous under our
        // Content-Length framing; POST is accepted too so strict
        // clients have a conventional spelling.
        ("GET" | "POST", "/points") => {
            handle_points(&mut stream, service, &request.query, &request.body)
        }
        // Same GET-with-body convention as /points: the body is a spec.
        ("GET" | "POST", "/audit") => handle_audit(&mut stream, service, &request.body),
        ("GET", "/status") => respond_json(&mut stream, 200, &service.status_json()),
        ("POST", "/shutdown") => {
            shutdown.store(true, Ordering::SeqCst);
            respond_json(&mut stream, 200, "{\"kind\":\"ok\",\"shutting_down\":true}")
        }
        (method, path @ ("/submit" | "/status" | "/shutdown")) => {
            respond_error(&mut stream, 405, &format!("method {method} not allowed for {path}"))
        }
        (_, path) => respond_error(
            &mut stream,
            404,
            &format!(
                "no endpoint {path} (try POST /submit, GET /points?range=lo-hi, GET /audit, \
                 GET /status, POST /shutdown)"
            ),
        ),
    };
    // The peer hanging up mid-stream is its own problem, not ours.
    let _ = outcome;
}

/// Reads a submitted spec into its expanded grid: the one place
/// `/submit`, `/points`, `/audit` and the fleet's `/submit` read a body.
/// A spec that does not parse or expand is answered here with a 400,
/// and `None` returned.
pub(crate) fn read_grid(
    stream: &mut TcpStream,
    body: &str,
) -> std::io::Result<Option<(SweepSpec, Vec<SweepPoint>)>> {
    match SweepSpec::parse(body).and_then(|spec| spec.points().map(|points| (spec, points))) {
        Ok(grid) => Ok(Some(grid)),
        Err(e) => respond_error(stream, 400, &e.to_string()).map(|()| None),
    }
}

/// Writes the head of a record stream (`/submit`, `/points` and the
/// fleet's `/submit`). The body must stay pure JSONL to keep the
/// byte-identity contract, so the exact number of records it will hold
/// travels here, before anything simulates, and the client can tell a
/// stream cut short.
pub(crate) fn write_stream_head(
    stream: &mut TcpStream,
    spec: &SweepSpec,
    points: usize,
    records: usize,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nX-Sweep-Name: {}\r\nX-Sweep-Points: {points}\r\nX-Sweep-Records: {records}\r\nConnection: close\r\n\r\n",
        spec.name.replace(['\r', '\n'], " "),
    )
}

/// `POST /submit`: read the grid, then stream the sweep.
fn handle_submit(
    stream: &mut TcpStream,
    service: &SweepService,
    body: &str,
) -> std::io::Result<()> {
    let Some((spec, points)) = read_grid(stream, body)? else { return Ok(()) };
    let pairing = emit::baseline_pairing(&points);
    write_stream_head(stream, &spec, points.len(), emit::record_count(&pairing))?;
    let mut sink = BufWriter::new(stream);
    service.stream(&points, &pairing, &mut sink)?;
    sink.flush()
}

/// `GET /points?range=<lo>-<hi>`: the body is a sweep spec (same bytes
/// as `/submit`); the reply streams shard `point` records for every grid
/// member whose job fingerprint falls in the inclusive hex range, in
/// `(fingerprint, seq)` order. `X-Sweep-Records` announces the exact
/// member count so the requester can detect a truncated stream; the
/// fleet coordinator's failover depends on it.
fn handle_points(
    stream: &mut TcpStream,
    service: &SweepService,
    query: &str,
    body: &str,
) -> std::io::Result<()> {
    let Some(range) = query.split('&').find_map(|kv| kv.strip_prefix("range=")) else {
        return respond_error(
            stream,
            400,
            "missing `range=<lo>-<hi>` query parameter (two 16-hex-digit fingerprints)",
        );
    };
    let (lo, hi) = match crate::shard::parse_fp_range(range) {
        Ok(r) => r,
        Err(e) => return respond_error(stream, 400, &e.to_string()),
    };
    let Some((spec, points)) = read_grid(stream, body)? else { return Ok(()) };
    let fingerprints: Vec<u64> = points.iter().map(|p| p.job.fingerprint()).collect();
    let members = crate::shard::ShardPlan::members_in_range(&fingerprints, lo, hi);
    write_stream_head(stream, &spec, points.len(), members.len())?;
    let mut sink = BufWriter::new(stream);
    service.stream_points(&points, &members, &mut sink)?;
    sink.flush()
}

/// `GET /audit`: the body is a sweep spec (same bytes as `/submit`);
/// the reply is one `audit` summary line followed by the deterministic
/// finding records — exactly [`crate::audit::findings_jsonl`] of an
/// `st audit` over the same spec. The sweep itself is served
/// cache-first, so auditing a warm grid simulates nothing.
fn handle_audit(stream: &mut TcpStream, service: &SweepService, body: &str) -> std::io::Result<()> {
    let Some((spec, points)) = read_grid(stream, body)? else { return Ok(()) };
    let findings = service.audit_findings(&points);
    let mut payload = format!(
        "{{\"kind\":\"audit\",\"sweep\":\"{}\",\"points\":{},\"findings\":{}}}\n",
        emit::json_escape(&spec.name),
        points.len(),
        findings.len(),
    );
    payload.push_str(&crate::audit::findings_jsonl(&findings));
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    /// 2 window sizes x 1 workload x (baseline + C2) = 4 points.
    const TINY_SPEC: &str = "name = \"svc-test\"\nworkloads = [\"go\"]\n\
                             [axis]\nruu_size = [16, 32]\ninstructions = 400\n";

    fn start(
        config: &ServiceConfig,
    ) -> (Arc<Server>, String, std::thread::JoinHandle<std::io::Result<()>>) {
        let server = Arc::new(Server::bind("127.0.0.1:0", config).expect("bind"));
        let addr = server.local_addr().to_string();
        let handle = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        (server, addr, handle)
    }

    fn canonical_jsonl(spec_text: &str) -> String {
        let spec = SweepSpec::parse(spec_text).expect("spec");
        let points = spec.points().expect("points");
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let reports = SweepEngine::new(1).run(&jobs);
        emit::sweep_jsonl(&points, &reports)
    }

    #[test]
    fn submit_streams_bytes_identical_to_a_local_run() {
        let config = ServiceConfig { no_cache: true, threads: 2, ..ServiceConfig::default() };
        let (server, addr, handle) = start(&config);

        let mut first = Vec::new();
        client::submit(&addr, TINY_SPEC, &mut first).expect("first submit");
        let first = String::from_utf8(first).expect("utf8");
        assert_eq!(first, canonical_jsonl(TINY_SPEC), "wire bytes == local st run bytes");

        // A second submission is served entirely from the warm cache.
        let mut second = Vec::new();
        client::submit(&addr, TINY_SPEC, &mut second).expect("second submit");
        assert_eq!(String::from_utf8(second).expect("utf8"), first);
        let stats = server.service().engine().stats();
        assert_eq!(stats.simulated, 4, "4 distinct points simulated once");
        assert_eq!(stats.cache.hits, 4, "second submission hit 4/4");

        // Status counters reflect both submissions.
        let status = client::status(&addr).expect("status");
        assert!(status.contains("\"kind\":\"status\""), "{status}");
        assert!(status.contains("\"submissions\":2"), "{status}");
        assert!(status.contains("\"points_served\":8"), "{status}");
        assert!(status.contains("\"points_simulated\":4"), "{status}");
        assert!(status.contains("\"in_flight_points\":0"), "{status}");

        let reply = client::shutdown(&addr).expect("shutdown");
        assert!(reply.contains("shutting_down"), "{reply}");
        handle.join().expect("server thread").expect("clean shutdown");
    }

    /// Races two submissions of `spec` against a fresh two-worker
    /// service, requires both streams to be the canonical bytes, and
    /// returns the engine's counters and the final status line.
    fn race_two_submissions(spec: &str) -> (crate::engine::EngineStats, String) {
        let config = ServiceConfig { no_cache: true, threads: 2, ..ServiceConfig::default() };
        let (server, addr, handle) = start(&config);
        let canonical = canonical_jsonl(spec);
        let streams: Vec<String> = std::thread::scope(|scope| {
            let submit = |_: usize| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    client::submit(&addr, spec, &mut out).expect("submit");
                    String::from_utf8(out).expect("utf8")
                })
            };
            let handles: Vec<_> = (0..2).map(submit).collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for out in &streams {
            assert_eq!(*out, canonical, "every client gets the canonical bytes");
        }
        let stats = server.service().engine().stats();
        let status = client::status(&addr).expect("status");
        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean shutdown");
        (stats, status)
    }

    #[test]
    fn overlapping_submissions_of_one_spec_share_work() {
        // Two clients race the same spec; the machine table must keep
        // the engine from simulating any point twice.
        let (stats, _) = race_two_submissions(TINY_SPEC);
        assert_eq!(stats.simulated, 4, "overlap did not duplicate any simulation");
    }

    #[test]
    fn overlapping_submissions_simulate_each_machine_once() {
        // 2 window sizes x (baseline + A5 + C1) = 6 points on 4 machines:
        // C1 runs A5's policy under another id.
        let (stats, status) = race_two_submissions(
            "name = \"svc-alias\"\nworkloads = [\"go\"]\nexperiments = [\"A5\", \"C1\"]\n\
             [axis]\nruu_size = [16, 32]\ninstructions = 400\n",
        );
        assert_eq!(stats.simulated, 4, "each machine simulated once");
        // Each A5/C1 pair is one simulation and at least one alias; two
        // requests for one alias that both miss the cache alias twice.
        assert!(stats.aliased >= 2, "{stats:?}");
        assert_eq!(stats.simulated + stats.aliased, stats.cache.misses, "{stats:?}");
        assert!(status.contains("\"points_simulated\":4,\"points_aliased\":"), "{status}");
    }

    #[test]
    fn racing_submissions_write_each_fingerprint_once() {
        // The spec of the test above at a longer budget, raced on a
        // store-backed service: every point reaches the store once.
        let out = std::env::temp_dir().join(format!("st-service-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let config = ServiceConfig { out: out.clone(), threads: 2, ..ServiceConfig::default() };
        let (server, addr, handle) = start(&config);
        let spec = "name = \"svc-race\"\nworkloads = [\"go\"]\nexperiments = [\"A5\", \"C1\"]\n\
                    [axis]\nruu_size = [16, 32]\ninstructions = 4000\n";
        let canonical = canonical_jsonl(spec);
        std::thread::scope(|scope| {
            let submit = || {
                let mut out = Vec::new();
                client::submit(&addr, spec, &mut out).expect("submit");
                assert_eq!(String::from_utf8(out).expect("utf8"), canonical);
            };
            scope.spawn(submit);
            scope.spawn(submit);
        });
        let stats = server.service().engine().result_store().expect("store").stats();
        assert_eq!(stats.entries, 6, "{stats:?}");
        assert_eq!(stats.dead_bytes, 0, "no fingerprint was written twice: {stats:?}");
        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean shutdown");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn a_one_worker_service_generates_a_workloads_program_once() {
        // Four points of one workload are one engine batch, so one
        // worker generates their program once, not once per point.
        use st_core::experiments::{a5, b3, baseline, c2};
        let service = SweepService::new(&ServiceConfig {
            no_cache: true,
            threads: 1,
            ..ServiceConfig::default()
        });
        let workload =
            st_isa::WorkloadSpec::builder("svc-program-reuse").seed(27).blocks(64).build();
        let points: Vec<SweepPoint> = [baseline(), c2(), a5(), b3()]
            .map(|e| SweepPoint {
                job: JobSpec::new(workload.clone(), 1_000).with_experiment(e),
                bindings: Vec::new(),
            })
            .to_vec();
        let mut sink = Vec::new();
        service.stream(&points, &emit::baseline_pairing(&points), &mut sink).expect("stream");
        let reports: Vec<Arc<SimReport>> = points.iter().map(|p| Arc::new(p.job.run())).collect();
        assert_eq!(String::from_utf8(sink).expect("utf8"), emit::sweep_jsonl(&points, &reports));
        assert_eq!(crate::engine::tests::generations_of(&workload), 1, "one program, 4 points");
    }

    #[test]
    fn write_through_persists_under_the_out_dir() {
        let out = std::env::temp_dir().join(format!("st-service-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let config = ServiceConfig { out: out.clone(), threads: 2, ..ServiceConfig::default() };
        let (_, addr, handle) = start(&config);
        let mut buf = Vec::new();
        client::submit(&addr, TINY_SPEC, &mut buf).expect("submit");
        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean shutdown");

        // Every simulated point was written through; a fresh engine (a
        // restarted server, conceptually) finds all four.
        let reloaded = SweepEngine::with_result_store(1, &out);
        assert_eq!(reloaded.stats().loaded, 4, "all points persisted");
        assert!(!out.join(".cache").exists(), "nothing written to a legacy JSON directory");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn store_budget_is_enforced_after_submissions_but_never_mid_stream() {
        let out = std::env::temp_dir().join(format!("st-service-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        // A fresh output directory, served with a budget far below one
        // submission's working set.
        let config = ServiceConfig {
            out: out.clone(),
            threads: 2,
            max_store_bytes: Some(1024),
            ..ServiceConfig::default()
        };
        let service = SweepService::new(&config);
        let spec = SweepSpec::parse(TINY_SPEC).expect("spec");
        let points = spec.points().expect("points");
        let canonical = canonical_jsonl(TINY_SPEC);

        // Mid-stream the just-written entries are pinned, so the bytes
        // that reach the client are the canonical ones even though the
        // store is over budget the whole time.
        let mut sink = Vec::new();
        service.stream(&points, &emit::baseline_pairing(&points), &mut sink).expect("stream");
        assert_eq!(String::from_utf8(sink).expect("utf8"), canonical);

        // After the submission the budget applies: the store was evicted
        // and compacted down to (at most) the configured size.
        let stats = service.engine().result_store().expect("store").stats();
        assert!(stats.file_bytes <= 1024, "budget enforced: {stats:?}");
        assert!(stats.evictions > 0, "eviction actually ran: {stats:?}");
        assert!(stats.compactions > 0, "compaction actually ran: {stats:?}");
        let status = service.status_json();
        assert!(status.contains("\"store\":{\"entries\":"), "{status}");
        assert!(status.contains("\"evictions\":"), "{status}");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn points_endpoint_streams_the_requested_fingerprint_range() {
        let config = ServiceConfig { no_cache: true, threads: 2, ..ServiceConfig::default() };
        let (_, addr, handle) = start(&config);

        let spec = SweepSpec::parse(TINY_SPEC).expect("spec");
        let points = spec.points().expect("points");
        let fps: Vec<u64> = points.iter().map(|p| p.job.fingerprint()).collect();
        // Ask for the lower half of the fingerprint space: a strict
        // subset of the grid.
        let mut sorted = fps.clone();
        sorted.sort_unstable();
        let (lo, hi) = (sorted[0], sorted[1]);
        let members = crate::shard::ShardPlan::members_in_range(&fps, lo, hi);
        assert_eq!(members.len(), 2, "half the 4-point grid");

        let request = format!(
            "GET /points?range={} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            crate::shard::format_fp_range(lo, hi),
            TINY_SPEC.len(),
            TINY_SPEC,
        );
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("read");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("X-Sweep-Records: 2"), "{reply}");
        let body = reply.split("\r\n\r\n").nth(1).expect("body");

        // The body is exactly the shard point records of the two
        // members, in (fingerprint, seq) order.
        let engine = SweepEngine::new(1);
        let expected: String = members
            .iter()
            .map(|&seq| {
                crate::shard::point_record(seq, &points[seq], &engine.run_one(&points[seq].job))
            })
            .collect();
        assert_eq!(body, expected, "range stream == locally rendered point records");

        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean shutdown");
    }

    #[test]
    fn audit_endpoint_returns_deterministic_findings_and_counts_requests() {
        let config = ServiceConfig { no_cache: true, threads: 2, ..ServiceConfig::default() };
        let (server, addr, handle) = start(&config);
        let raw = |body: &str| -> String {
            let request =
                format!("GET /audit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream.write_all(request.as_bytes()).expect("write");
            let mut reply = String::new();
            stream.read_to_string(&mut reply).expect("read");
            reply
        };

        let reply = raw(TINY_SPEC);
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        let body = reply.split("\r\n\r\n").nth(1).expect("body");
        let (summary, findings_doc) = body.split_once('\n').expect("summary line");
        assert!(summary.contains("\"kind\":\"audit\""), "{summary}");
        assert!(summary.contains("\"sweep\":\"svc-test\""), "{summary}");
        assert!(summary.contains("\"points\":4"), "{summary}");

        // The findings are exactly what a local audit of the canonical
        // records produces, and a warm re-request is byte-identical.
        let spec = SweepSpec::parse(TINY_SPEC).expect("spec");
        let points = spec.points().expect("points");
        let records = crate::audit::parse_records(&canonical_jsonl(TINY_SPEC)).expect("records");
        let expected =
            crate::audit::findings_jsonl(&crate::audit::audit_with_grid(&records, &points));
        assert_eq!(findings_doc, expected, "wire findings == local audit findings");
        let again = raw(TINY_SPEC);
        assert_eq!(again, reply, "warm audit is byte-identical");

        // Audits count in /status without inflating the submission or
        // served-point counters.
        let status = client::status(&addr).expect("status");
        assert!(status.contains("\"audit_requests\":2"), "{status}");
        assert!(status.contains("\"submissions\":0"), "{status}");
        let stats = server.service().engine().stats();
        assert_eq!(stats.simulated, 4, "second audit was served from cache");

        // A bogus spec gets the structured 400, like every endpoint.
        let reply = raw("bogus = 1");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("\"kind\":\"error\""), "{reply}");

        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean shutdown");
    }

    #[test]
    fn points_endpoint_rejects_bad_ranges() {
        let config = ServiceConfig { no_cache: true, ..ServiceConfig::default() };
        let (_, addr, handle) = start(&config);
        let raw = |request: String| -> String {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream.write_all(request.as_bytes()).expect("write");
            let mut reply = String::new();
            stream.read_to_string(&mut reply).expect("read");
            reply
        };
        let body = TINY_SPEC;
        let with_query = |query: &str| {
            format!("GET /points{query} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        };

        let reply = raw(with_query(""));
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("missing `range="), "{reply}");
        let reply = raw(with_query("?range=zz-ff"));
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let reply = raw(with_query("?range=ffffffffffffffff-0000000000000000"));
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        // A valid range with a bogus spec still gets a structured 400.
        let reply = raw("GET /points?range=0000000000000000-ffffffffffffffff HTTP/1.1\r\n\
             Content-Length: 9\r\n\r\nbogus = 1"
            .to_string());
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("\"kind\":\"error\""), "{reply}");

        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean shutdown");
    }

    #[test]
    fn oversized_grids_get_a_400_and_the_service_keeps_serving() {
        let config = ServiceConfig { no_cache: true, ..ServiceConfig::default() };
        let (_, addr, handle) = start(&config);

        let huge = "workloads = [\"go\"]\nexperiments = [\"C2\"]\n[axis]\n\
                    ruu_size = \"2..4096\"\nlsq_size = \"2..2048\"\nfetch_width = \"1..16\"\n";
        let e = client::submit(&addr, huge, &mut Vec::new()).expect_err("oversized grid");
        assert!(e.0.contains("400"), "{e}");
        assert!(e.0.contains("251289720 points"), "{e}");
        let status = client::status(&addr).expect("the service still answers");
        assert!(status.contains("\"kind\":\"status\""), "{status}");

        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean shutdown");
    }

    #[test]
    fn bad_requests_get_structured_errors() {
        let config = ServiceConfig { no_cache: true, ..ServiceConfig::default() };
        let (_, addr, handle) = start(&config);

        let e = client::submit(&addr, "bogus = 1", &mut Vec::new()).expect_err("bad spec");
        assert!(e.0.contains("unknown key"), "{e}");
        assert!(e.0.contains("400"), "{e}");
        let e = client::submit(&addr, "workloads = [\"nope\"]", &mut Vec::new())
            .expect_err("unknown workload");
        assert!(e.0.contains("unknown workload"), "{e}");

        // Unknown endpoints and wrong methods get structured replies too.
        let raw = |request: &str| -> String {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream.write_all(request.as_bytes()).expect("write");
            let mut reply = String::new();
            stream.read_to_string(&mut reply).expect("read");
            reply
        };
        let reply = raw("GET /nope HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
        assert!(reply.contains("\"kind\":\"error\""), "{reply}");
        let reply = raw("GET /submit HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 405"), "{reply}");
        let reply = raw("garbage\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let reply = raw("POST /submit HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");

        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean shutdown");
    }
}

/// `read_request` over arbitrary bytes: whatever a client sends, the
/// parser answers `Ok` or a structured `Err` and never panics.
#[cfg(test)]
mod read_request_props {
    use std::io::Write;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::time::Duration;

    use proptest::prelude::*;

    use super::{read_request, MAX_BODY_BYTES};

    /// A well-formed request head and body the mutations start from.
    const VALID: &[u8] = b"POST /submit?range=0-ff HTTP/1.1\r\nHost: 127.0.0.1\r\n\
                           Content-Type: text/plain\r\nContent-Length: 11\r\n\r\nname = \"x\"\n";

    /// Writes `bytes` to a loopback connection, closes its write half and
    /// parses what arrives.
    fn parse(bytes: &[u8]) -> Result<(), (u16, String)> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        client.write_all(bytes).expect("write request");
        client.shutdown(Shutdown::Write).expect("close write half");
        let (server, _) = listener.accept().expect("accept");
        // A parser that waited for bytes that never come would fail
        // here, not hang the suite.
        server.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        read_request(&server).map(|request| {
            assert!(request.body.len() <= MAX_BODY_BYTES, "body over the cap");
        })
    }

    /// Arbitrary bytes, or the valid request with one byte replaced.
    fn requests() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..512),
            (0..VALID.len(), any::<u8>()).prop_map(|(at, byte)| {
                let mut bytes = VALID.to_vec();
                bytes[at] = byte;
                bytes
            }),
        ]
    }

    #[test]
    fn the_valid_request_parses() {
        assert_eq!(parse(VALID), Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn any_bytes_parse_or_fail_without_panicking(bytes in requests()) {
            if let Err((status, message)) = parse(&bytes) {
                prop_assert!([400, 413].contains(&status), "status {} ({})", status, message);
            }
        }
    }
}
