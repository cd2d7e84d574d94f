//! The fleet coordinator: `st serve --fleet`.
//!
//! A front daemon that federates many remote `st serve` workers behind
//! one `/submit` endpoint. Where [`crate::service`] answers a submission
//! from its own engine, the coordinator owns **no simulator at all** —
//! it expands the submitted spec once, through the same axis registry,
//! partitions the grid by the deterministic fingerprint-range
//! [`ShardPlan`], and dispatches each range to a worker's
//! `GET /points?range=lo-hi` endpoint over the wire protocol in
//! [`crate::client`]. Each returned shard `point` record is verified
//! ([`shard::parse_record`]: placement by fingerprint, tamper by
//! content hash) and decoded once, at ingest, and placed in the
//! submission's `Collector`, the collector `st merge` uses, which
//! holds the overlap and coverage rules. The coordinator then renders
//! the decoded reports with [`crate::emit`], so piping `st submit`
//! through a fleet is **byte-identical** to a local `st run`, the same
//! contract every other distribution layer in this crate honours.
//!
//! Robustness model:
//!
//! * **Failover.** Workers stream a range in `(fingerprint, seq)` order,
//!   so whatever arrives before a worker dies is a *prefix* of its
//!   range; the unfinished remainder `[first-missing-fp, hi]` is a
//!   well-formed range that gets requeued for a surviving worker.
//!   Workers serve cache-first, so a range that failed over near its
//!   end costs almost nothing to finish — completed points are never
//!   re-simulated. A worker that fails is marked dead and never
//!   dispatched to again; when the last worker dies, in-flight and
//!   later submissions fail fast (clients see a truncated stream, a
//!   hard error) instead of hanging.
//! * **Admission control.** At most `max_inflight` submissions stream
//!   concurrently; excess submissions get a structured `429` reply the
//!   client surfaces verbatim, so backpressure is visible instead of
//!   silent queueing collapse.
//! * **Priorities.** `POST /submit?priority=N` (higher = sooner) orders
//!   the dispatch queue; the spec body stays byte-for-byte what
//!   `st run` reads, so priority never perturbs the output.
//!
//! The coordinator speaks the same `GET /status` / `POST /shutdown`
//! surface as a plain server, with fleet-shaped counters (per-worker
//! liveness, queue depth, failovers, rejections).

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::client;
use crate::emit;
use crate::service::{
    read_grid, read_request, respond_error, respond_json, serve_connections, write_stream_head,
};
use crate::shard::{self, Collector, ShardPlan};
use crate::spec::SweepPoint;

/// How a [`FleetServer`] coordinates: which workers it federates and how
/// much concurrency it admits.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker addresses (`host:port`), each a running `st serve`.
    pub workers: Vec<String>,
    /// Maximum concurrently streaming submissions; submission number
    /// `max_inflight + 1` gets a structured `429` reply.
    pub max_inflight: usize,
    /// Longest wait tolerated for the connect, for the response head and
    /// between two records of one range stream before the worker is
    /// declared dead and its unfinished range failed over. Gaps are
    /// bounded by one point's simulation time on a loaded worker, not the
    /// whole range.
    pub worker_timeout: Duration,
}

impl Default for FleetConfig {
    /// Defaults chosen for interactive fleets: 8 concurrent
    /// submissions, 120 s of per-record patience.
    fn default() -> FleetConfig {
        FleetConfig {
            workers: Vec::new(),
            max_inflight: 8,
            worker_timeout: Duration::from_secs(120),
        }
    }
}

/// One federated worker, as the coordinator tracks it. Death is
/// permanent for the coordinator's lifetime: a worker that failed once
/// (connection refused, timeout, bad record) is never dispatched to
/// again — restarting workers means restarting the coordinator.
#[derive(Debug)]
struct Worker {
    addr: String,
    alive: AtomicBool,
    ranges_served: AtomicU64,
}

/// One submission mid-flight through the fleet: the verbatim spec text
/// (forwarded to workers byte-for-byte), the expanded grid, and the
/// records placed so far.
#[derive(Debug)]
struct Submission {
    spec_text: String,
    points: Vec<SweepPoint>,
    fingerprints: Vec<u64>,
    state: Mutex<SubmissionState>,
    done: Condvar,
}

#[derive(Debug)]
struct SubmissionState {
    /// The verified records the workers have streamed, placed by grid
    /// seq.
    collector: Collector,
    /// Dispatched-but-unfinished range count; `0` with no failure means
    /// the grid is fully covered.
    outstanding: usize,
    /// First fatal error; set once, ends the submission.
    failed: Option<String>,
}

impl Submission {
    fn finish_one(&self) {
        let mut state = self.state.lock().expect("submission state poisoned");
        state.outstanding -= 1;
        if state.outstanding == 0 {
            self.done.notify_all();
        }
    }

    fn fail(&self, message: String) {
        let mut state = self.state.lock().expect("submission state poisoned");
        if state.failed.is_none() {
            state.failed = Some(message);
        }
        self.done.notify_all();
    }
}

/// One queued unit of work: dispatch the `[lo, hi]` fingerprint range
/// of `submission` to some worker.
#[derive(Debug)]
struct Assignment {
    submission: Arc<Submission>,
    lo: u64,
    hi: u64,
    priority: u32,
    /// Admission order, for FIFO within a priority class.
    seq: u64,
}

/// Picks the next assignment to dispatch: highest `priority` first,
/// FIFO (`seq`) within a class. Separated out so the policy is unit
/// testable without sockets.
fn pop_best(queue: &mut Vec<Assignment>) -> Option<Assignment> {
    let best = queue
        .iter()
        .enumerate()
        .max_by_key(|(_, a)| (a.priority, std::cmp::Reverse(a.seq)))
        .map(|(i, _)| i)?;
    Some(queue.swap_remove(best))
}

/// The sharable coordinator core: workers, the priority dispatch queue,
/// admission accounting and counters. [`FleetServer`] adds the socket.
#[derive(Debug)]
pub struct Fleet {
    workers: Vec<Worker>,
    max_inflight: usize,
    worker_timeout: Duration,
    queue: Mutex<Vec<Assignment>>,
    queue_ready: Condvar,
    stop: AtomicBool,
    active: Mutex<usize>,
    next_assignment: AtomicU64,
    submissions: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failovers: AtomicU64,
}

impl Fleet {
    /// A coordinator over `config`'s workers. Purely in-memory; nothing
    /// connects until the first dispatch.
    #[must_use]
    pub fn new(config: &FleetConfig) -> Fleet {
        Fleet {
            workers: config
                .workers
                .iter()
                .map(|addr| Worker {
                    addr: addr.clone(),
                    alive: AtomicBool::new(true),
                    ranges_served: AtomicU64::new(0),
                })
                .collect(),
            max_inflight: config.max_inflight,
            worker_timeout: config.worker_timeout,
            queue: Mutex::new(Vec::new()),
            queue_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            active: Mutex::new(0),
            next_assignment: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        }
    }

    fn alive_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive.load(Ordering::SeqCst)).count()
    }

    /// Ends every dispatcher loop (called once the accept loop has
    /// drained, so no submission can still be waiting on them).
    fn stop_dispatchers(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue_ready.notify_all();
    }

    /// The dispatcher loop for worker `w`: pop the best-priority
    /// assignment, stream its range from the worker, repeat. Exits when
    /// the fleet stops or the worker dies.
    fn dispatch_loop(&self, w: usize) {
        while !self.stop.load(Ordering::SeqCst) && self.workers[w].alive.load(Ordering::SeqCst) {
            let assignment = {
                let mut queue = self.queue.lock().expect("dispatch queue poisoned");
                match pop_best(&mut queue) {
                    Some(a) => a,
                    None => {
                        // Condvar wait with a timeout: `stop` and worker
                        // death must be observable even with no traffic.
                        let _unused = self
                            .queue_ready
                            .wait_timeout(queue, Duration::from_millis(50))
                            .expect("dispatch queue poisoned");
                        continue;
                    }
                }
            };
            self.run_assignment(w, assignment);
        }
    }

    /// Streams one range from worker `w` into its submission, verifying
    /// every record at ingest ([`shard::parse_record`]: position,
    /// fingerprint, content hash, outside the submission lock) and
    /// placing it in the submission's `Collector`. Any failure —
    /// connect, timeout, truncation, a record that fails verification
    /// or differs from another worker's copy — kills the worker and
    /// fails the unfinished remainder over to the survivors.
    fn run_assignment(&self, w: usize, assignment: Assignment) {
        let submission = Arc::clone(&assignment.submission);
        {
            let state = submission.state.lock().expect("submission state poisoned");
            if state.failed.is_some() {
                drop(state);
                submission.finish_one();
                return;
            }
        }
        let worker = &self.workers[w];
        let result = client::fetch_points(
            &worker.addr,
            &submission.spec_text,
            (assignment.lo, assignment.hi),
            Some(self.worker_timeout),
            &mut |line| {
                let record =
                    shard::parse_record(line, &submission.points, &submission.fingerprints)
                        .map_err(|e| e.0)?;
                let mut state = submission.state.lock().expect("submission state poisoned");
                state.collector.place(record).map(drop).map_err(|e| e.0)
            },
        );
        match result {
            Ok(_) => {
                worker.ranges_served.fetch_add(1, Ordering::Relaxed);
                submission.finish_one();
            }
            Err(e) => {
                worker.alive.store(false, Ordering::SeqCst);
                eprintln!(
                    "st serve --fleet: worker {} failed on range {}: {e}",
                    worker.addr,
                    shard::format_fp_range(assignment.lo, assignment.hi),
                );
                self.fail_over(assignment);
            }
        }
    }

    /// Requeues the unfinished remainder of a dead worker's range. The
    /// worker streamed in `(fingerprint, seq)` order, so the received
    /// part is a prefix: the remainder starts at the first missing
    /// member's fingerprint. The caller marked the worker dead first, so
    /// with no survivors left [`Fleet::enqueue`] fails the submission
    /// instead of letting it hang.
    fn fail_over(&self, assignment: Assignment) {
        let submission = &assignment.submission;
        let members =
            ShardPlan::members_in_range(&submission.fingerprints, assignment.lo, assignment.hi);
        let first_missing = {
            let state = submission.state.lock().expect("submission state poisoned");
            members.iter().copied().find(|&seq| !state.collector.has(seq))
        };
        let Some(first_missing) = first_missing else {
            // Every member arrived before the connection died (the
            // failure hit after the last record): the range is done.
            submission.finish_one();
            return;
        };
        let remainder = Assignment {
            lo: submission.fingerprints[first_missing],
            hi: assignment.hi,
            seq: self.next_assignment.fetch_add(1, Ordering::Relaxed),
            ..assignment
        };
        if self.enqueue(vec![remainder]) {
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Queues `assignments` for the dispatchers and returns `true`, or,
    /// when no worker is alive, fails their submissions and every
    /// queued one and returns `false`. The live-worker check and the
    /// queue change happen under one lock, and a worker is marked dead
    /// before its dispatcher calls this, so no assignment is ever left
    /// in a queue that no dispatcher will pop.
    fn enqueue(&self, assignments: Vec<Assignment>) -> bool {
        let mut queue = self.queue.lock().expect("dispatch queue poisoned");
        if self.alive_workers() == 0 {
            let orphans = std::mem::take(&mut *queue);
            drop(queue);
            for orphan in assignments.iter().chain(&orphans) {
                orphan.submission.fail("every fleet worker is dead".to_string());
            }
            return false;
        }
        queue.extend(assignments);
        drop(queue);
        self.queue_ready.notify_all();
        true
    }

    /// Runs one submission end-to-end: partition the grid, whose points'
    /// fingerprints are `fingerprints`, over the currently-alive
    /// workers, enqueue every non-empty range at `priority`, block until
    /// the grid is covered (failovers included) or the submission fails,
    /// then return the canonical JSONL, rendered from the reports
    /// decoded at ingest with `pairing`.
    ///
    /// # Errors
    ///
    /// A fleet-wide failure (every worker dead) or a coverage gap — both
    /// mean the client must not receive a full-looking stream.
    fn run_submission(
        &self,
        spec_text: &str,
        points: Vec<SweepPoint>,
        fingerprints: Vec<u64>,
        pairing: &[Option<usize>],
        priority: u32,
    ) -> Result<String, String> {
        self.submissions.fetch_add(1, Ordering::Relaxed);
        let alive = self.alive_workers().max(1);
        let plan = ShardPlan::new(&fingerprints, alive).map_err(|e| e.0)?;
        let ranges: Vec<(u64, u64)> = (0..plan.of()).filter_map(|s| plan.range(s)).collect();
        let submission = Arc::new(Submission {
            spec_text: spec_text.to_string(),
            fingerprints,
            state: Mutex::new(SubmissionState {
                collector: Collector::new(points.len()),
                outstanding: ranges.len(),
                failed: None,
            }),
            done: Condvar::new(),
            points,
        });
        self.enqueue(
            ranges
                .into_iter()
                .map(|(lo, hi)| Assignment {
                    submission: Arc::clone(&submission),
                    lo,
                    hi,
                    priority,
                    seq: self.next_assignment.fetch_add(1, Ordering::Relaxed),
                })
                .collect(),
        );

        let mut state = submission.state.lock().expect("submission state poisoned");
        while state.failed.is_none() && state.outstanding > 0 {
            state = submission.done.wait(state).expect("submission state poisoned");
        }
        if let Some(failure) = &state.failed {
            return Err(failure.clone());
        }
        let reports = std::mem::take(&mut state.collector).finish().map_err(|e| e.0)?;
        drop(state);
        self.completed.fetch_add(1, Ordering::Relaxed);
        Ok(emit::sweep_jsonl_with_pairing(&submission.points, &reports, pairing))
    }

    /// The coordinator's `GET /status` payload: fleet-shaped counters
    /// plus one entry per worker.
    #[must_use]
    pub fn status_json(&self) -> String {
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"addr\":\"{}\",\"alive\":{},\"ranges_served\":{}}}",
                    emit::json_escape(&w.addr),
                    w.alive.load(Ordering::SeqCst),
                    w.ranges_served.load(Ordering::Relaxed),
                )
            })
            .collect();
        format!(
            "{{\"kind\":\"fleet-status\",\"workers\":[{}],\"alive_workers\":{},\"queue_depth\":{},\"active_submissions\":{},\"max_inflight\":{},\"submissions\":{},\"completed\":{},\"rejected\":{},\"failovers\":{}}}",
            workers.join(","),
            self.alive_workers(),
            self.queue.lock().expect("dispatch queue poisoned").len(),
            *self.active.lock().expect("admission counter poisoned"),
            self.max_inflight,
            self.submissions.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
        )
    }
}

/// Releases one admission slot when a submission's connection handler
/// finishes, however it finishes.
struct AdmissionSlot<'a> {
    fleet: &'a Fleet,
}

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        *self.fleet.active.lock().expect("admission counter poisoned") -= 1;
    }
}

/// The coordinator daemon: a bound listener, the shared [`Fleet`], and
/// one dispatcher thread per worker.
#[derive(Debug)]
pub struct FleetServer {
    listener: TcpListener,
    addr: SocketAddr,
    fleet: Arc<Fleet>,
    shutdown: Arc<AtomicBool>,
}

impl FleetServer {
    /// Binds `addr` (port `0` picks an ephemeral port) as a fleet
    /// coordinator over `config`'s workers.
    ///
    /// # Errors
    ///
    /// The bind error (address in use, permission, bad address).
    pub fn bind(addr: &str, config: &FleetConfig) -> std::io::Result<FleetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(FleetServer {
            listener,
            addr,
            fleet: Arc::new(Fleet::new(config)),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually bound address (resolves port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared coordinator core, for in-process inspection in tests.
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Accepts and coordinates until `POST /shutdown` or SIGINT, then
    /// drains active submissions before returning. Workers are separate
    /// processes and are *not* shut down — only the coordinator exits.
    ///
    /// # Errors
    ///
    /// Reserved for fatal listener failures, exactly like
    /// [`crate::service::Server::run`].
    pub fn run(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            for w in 0..self.fleet.workers.len() {
                let fleet = Arc::clone(&self.fleet);
                scope.spawn(move || fleet.dispatch_loop(w));
            }
            let result = serve_connections(&self.listener, &self.shutdown, &|stream| {
                self.handle_connection(stream);
            });
            // The accept loop has drained: every submission finished, so
            // the dispatchers are idle and can stop.
            self.fleet.stop_dispatchers();
            result
        })
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        let request = match read_request(&stream) {
            Ok(r) => r,
            Err((status, message)) => {
                let _ = respond_error(&mut stream, status, &message);
                return;
            }
        };
        let outcome = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/submit") => self.handle_submit(&mut stream, &request.query, &request.body),
            ("GET", "/status") => respond_json(&mut stream, 200, &self.fleet.status_json()),
            ("POST", "/shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                respond_json(&mut stream, 200, "{\"kind\":\"ok\",\"shutting_down\":true}")
            }
            (method, path @ ("/submit" | "/status" | "/shutdown")) => {
                respond_error(&mut stream, 405, &format!("method {method} not allowed for {path}"))
            }
            (_, path) => respond_error(
                &mut stream,
                404,
                &format!(
                    "no fleet endpoint {path} (try POST /submit, GET /status, POST /shutdown)"
                ),
            ),
        };
        let _ = outcome;
    }

    /// `POST /submit[?priority=N]` on the coordinator: admit (or 429),
    /// expand, announce the head, fan the ranges out, merge, stream.
    fn handle_submit(
        &self,
        stream: &mut TcpStream,
        query: &str,
        body: &str,
    ) -> std::io::Result<()> {
        let fleet = &*self.fleet;
        let priority = match query.split('&').find_map(|kv| kv.strip_prefix("priority=")) {
            None => 0u32,
            Some(raw) => match raw.parse() {
                Ok(p) => p,
                Err(_) => {
                    return respond_error(
                        stream,
                        400,
                        &format!("unparseable priority `{raw}` (expected an unsigned integer)"),
                    );
                }
            },
        };
        // Admission first: a saturated coordinator must shed load
        // before doing any per-submission work at all.
        let _slot = {
            let mut active = fleet.active.lock().expect("admission counter poisoned");
            if *active >= fleet.max_inflight {
                let in_flight = *active;
                drop(active);
                fleet.rejected.fetch_add(1, Ordering::Relaxed);
                return respond_error(
                    stream,
                    429,
                    &format!(
                        "fleet at capacity: {in_flight} submissions in flight (limit {}); \
                         retry later",
                        fleet.max_inflight
                    ),
                );
            }
            *active += 1;
            AdmissionSlot { fleet }
        };
        if fleet.alive_workers() == 0 {
            return respond_error(stream, 503, "every fleet worker is dead; restart the fleet");
        }
        let Some((spec, points)) = read_grid(stream, body)? else { return Ok(()) };
        // Same head as a plain server, sent before any worker is
        // contacted, so the client's truncation check guards fleet
        // failures too.
        let fingerprints = crate::spec::fingerprints(&points);
        let pairing = emit::baseline_pairing(&points, &fingerprints);
        write_stream_head(stream, &spec, points.len(), emit::record_count(&pairing))?;
        match fleet.run_submission(body, points, fingerprints, &pairing, priority) {
            Ok(jsonl) => stream.write_all(jsonl.as_bytes()),
            Err(e) => {
                // The head is already on the wire; closing short makes
                // the client's record-count check fire as a hard error.
                eprintln!("st serve --fleet: submission failed: {e}");
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepEngine;
    use crate::service::{Server, ServiceConfig};
    use crate::spec::SweepSpec;

    /// 2 window sizes x 1 workload x (baseline + C2) = 4 points,
    /// 6 records (4 reports + 2 comparisons).
    const TINY_SPEC: &str = "name = \"fleet-test\"\nworkloads = [\"go\"]\n\
                             [axis]\nruu_size = [16, 32]\ninstructions = 400\n";

    fn canonical_jsonl(spec_text: &str) -> String {
        let spec = SweepSpec::parse(spec_text).expect("spec");
        let points = spec.points().expect("points");
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let reports = SweepEngine::new(1).run(&jobs);
        emit::sweep_jsonl(&points, &reports)
    }

    fn start_worker() -> (String, Arc<Server>, std::thread::JoinHandle<std::io::Result<()>>) {
        let config = ServiceConfig { no_cache: true, threads: 2, ..ServiceConfig::default() };
        let server = Arc::new(Server::bind("127.0.0.1:0", &config).expect("bind worker"));
        let addr = server.local_addr().to_string();
        let handle = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        (addr, server, handle)
    }

    fn start_fleet(
        config: &FleetConfig,
    ) -> (Arc<FleetServer>, String, std::thread::JoinHandle<std::io::Result<()>>) {
        let server = Arc::new(FleetServer::bind("127.0.0.1:0", config).expect("bind fleet"));
        let addr = server.local_addr().to_string();
        let handle = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        (server, addr, handle)
    }

    #[test]
    fn fleet_submission_is_byte_identical_to_a_local_run() {
        let (w1, s1, h1) = start_worker();
        let (w2, s2, h2) = start_worker();
        let config = FleetConfig { workers: vec![w1.clone(), w2.clone()], ..Default::default() };
        let (fleet, addr, handle) = start_fleet(&config);

        let mut out = Vec::new();
        client::submit(&addr, TINY_SPEC, &mut out).expect("fleet submit");
        assert_eq!(
            String::from_utf8(out).expect("utf8"),
            canonical_jsonl(TINY_SPEC),
            "fleet bytes == local st run bytes"
        );
        // Both workers actually contributed (2 shards over 2 workers).
        let simulated: u64 =
            [&s1, &s2].iter().map(|s| s.service().engine().stats().simulated).sum();
        assert_eq!(simulated, 4, "the grid was split across the fleet, no duplication");
        let status = client::status(&addr).expect("status");
        assert!(status.contains("\"kind\":\"fleet-status\""), "{status}");
        assert!(status.contains("\"alive_workers\":2"), "{status}");
        assert!(status.contains("\"completed\":1"), "{status}");
        assert!(status.contains("\"failovers\":0"), "{status}");

        client::shutdown(&addr).expect("stop fleet");
        handle.join().expect("fleet thread").expect("clean fleet shutdown");
        assert_eq!(fleet.fleet().alive_workers(), 2);
        for (w, h) in [(w1, h1), (w2, h2)] {
            client::shutdown(&w).expect("stop worker");
            h.join().expect("worker thread").expect("clean worker shutdown");
        }
    }

    /// A stand-in worker that answers `/points` with the *correct* head
    /// (true record count) and then streams `body` of the range's
    /// genuine records, one newline-terminated line each, in stream
    /// order — a deterministic stand-in for a worker that misbehaves
    /// mid-range.
    fn start_stand_in_worker(body: fn(Vec<String>) -> String) -> (String, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stand-in worker");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        listener.set_nonblocking(true).expect("nonblocking");
        std::thread::spawn(move || {
            let engine = SweepEngine::new(1);
            while !thread_stop.load(Ordering::SeqCst) {
                let Ok((mut stream, _)) = listener.accept() else {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                };
                stream.set_nonblocking(false).expect("blocking stream");
                let request = read_request(&stream).expect("request");
                assert_eq!(request.path, "/points", "coordinator only dispatches ranges");
                let range = request
                    .query
                    .split('&')
                    .find_map(|kv| kv.strip_prefix("range="))
                    .expect("range param");
                let (lo, hi) = shard::parse_fp_range(range).expect("range");
                let spec = SweepSpec::parse(&request.body).expect("spec");
                let points = spec.points().expect("points");
                let fps = crate::spec::fingerprints(&points);
                let members = ShardPlan::members_in_range(&fps, lo, hi);
                write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nX-Sweep-Records: {}\r\nConnection: close\r\n\r\n",
                    members.len(),
                )
                .expect("head");
                let records = members
                    .iter()
                    .map(|&seq| {
                        let report = engine.run_one(&points[seq].job);
                        shard::point_record(seq, fps[seq], &report)
                    })
                    .collect();
                stream.write_all(body(records).as_bytes()).expect("body");
            }
        });
        (addr, stop)
    }

    /// A worker that streams only the first record of its range before
    /// dropping the connection: whatever it serves before "dying" must
    /// survive into the merged output bit-identically.
    fn start_dying_worker() -> (String, Arc<AtomicBool>) {
        start_stand_in_worker(|records| records.into_iter().take(1).collect())
    }

    #[test]
    fn worker_death_mid_range_fails_over_byte_identically() {
        let (dying, dying_stop) = start_dying_worker();
        let (survivor, _s, sh) = start_worker();
        let config = FleetConfig {
            workers: vec![dying.clone(), survivor.clone()],
            worker_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let (fleet, addr, handle) = start_fleet(&config);

        let mut out = Vec::new();
        client::submit(&addr, TINY_SPEC, &mut out).expect("fleet submit survives the death");
        assert_eq!(
            String::from_utf8(out).expect("utf8"),
            canonical_jsonl(TINY_SPEC),
            "failover kept the output byte-identical"
        );
        assert!(
            fleet.fleet().failovers.load(Ordering::Relaxed) >= 1,
            "the dying worker's range actually failed over"
        );
        assert_eq!(fleet.fleet().alive_workers(), 1, "the dying worker was declared dead");
        let status = client::status(&addr).expect("status");
        assert!(status.contains("\"alive\":false"), "{status}");
        assert!(status.contains("\"completed\":1"), "{status}");

        client::shutdown(&addr).expect("stop fleet");
        handle.join().expect("fleet thread").expect("clean fleet shutdown");
        dying_stop.store(true, Ordering::SeqCst);
        client::shutdown(&survivor).expect("stop worker");
        sh.join().expect("worker thread").expect("clean worker shutdown");
    }

    #[test]
    fn a_worker_whose_record_fails_verification_is_dropped_and_its_range_fails_over() {
        // The whole range, with one report byte changed after hashing.
        let (tampering, tampering_stop) = start_stand_in_worker(|mut records| {
            let field = "\"energy_cycles\":";
            let at = records[0].find(field).expect("energy_cycles field") + field.len();
            let digit = if &records[0][at..=at] == "9" { "8" } else { "9" };
            records[0].replace_range(at..=at, digit);
            records.concat()
        });
        let (survivor, _s, sh) = start_worker();
        let config = FleetConfig {
            workers: vec![tampering, survivor.clone()],
            worker_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let fleet = Fleet::new(&config);
        let points = SweepSpec::parse(TINY_SPEC).expect("spec").points().expect("points");
        let fps = crate::spec::fingerprints(&points);
        let pairing = emit::baseline_pairing(&points, &fps);
        let (jsonl, tampering_died) = std::thread::scope(|scope| {
            let submission = scope.spawn(|| {
                fleet.run_submission(TINY_SPEC, points.clone(), fps.clone(), &pairing, 0)
            });
            // The stand-in takes the first of the two ranges before any
            // dispatcher runs; only then does the survivor start.
            let first = {
                let mut queue = fleet.queue.lock().expect("dispatch queue poisoned");
                loop {
                    if let Some(assignment) = pop_best(&mut queue) {
                        break assignment;
                    }
                    queue = fleet.queue_ready.wait(queue).expect("dispatch queue poisoned");
                }
            };
            fleet.run_assignment(0, first);
            let tampering_died = !fleet.workers[0].alive.load(Ordering::SeqCst);
            scope.spawn(|| fleet.dispatch_loop(1));
            let jsonl = submission.join().expect("submission thread");
            fleet.stop_dispatchers();
            (jsonl, tampering_died)
        });
        assert!(tampering_died, "a worker whose record fails verification is dropped");
        assert_eq!(
            jsonl.expect("the submission survives the tampering"),
            canonical_jsonl(TINY_SPEC),
            "the tampered record never reached the output"
        );
        assert_eq!(fleet.failovers.load(Ordering::Relaxed), 1, "its range moved");
        assert_eq!(fleet.workers[1].ranges_served.load(Ordering::Relaxed), 2, "both ranges");

        tampering_stop.store(true, Ordering::SeqCst);
        client::shutdown(&survivor).expect("stop worker");
        sh.join().expect("worker thread").expect("clean worker shutdown");
    }

    #[test]
    fn a_submission_after_the_last_worker_died_fails_at_once() {
        // An address nothing listens on: the first dispatch kills the
        // only worker, and its dispatcher exits.
        let nobody = TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
        let config = FleetConfig { workers: vec![nobody.to_string()], ..Default::default() };
        let fleet = Arc::new(Fleet::new(&config));
        let dispatcher = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || fleet.dispatch_loop(0))
        };
        let points = SweepSpec::parse(TINY_SPEC).expect("spec").points().expect("points");
        let fps = crate::spec::fingerprints(&points);
        let pairing = emit::baseline_pairing(&points, &fps);
        let dead = Err("every fleet worker is dead".to_string());
        assert_eq!(fleet.run_submission(TINY_SPEC, points.clone(), fps.clone(), &pairing, 0), dead);
        dispatcher.join().expect("the dead worker's dispatcher exits");

        // Nothing will pop the queue again, so a later submission must
        // fail instead of waiting forever.
        let (tx, rx) = std::sync::mpsc::channel();
        let second = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                let _ = tx.send(fleet.run_submission(TINY_SPEC, points, fps, &pairing, 0));
            })
        };
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).expect("returns within 5 s"), dead);
        second.join().expect("second submission thread");
        assert_eq!(fleet.queue.lock().expect("queue").len(), 0, "nothing left queued");
    }

    #[test]
    fn a_worker_that_never_answers_is_dropped_after_the_worker_timeout() {
        // A listener that never accepts: the kernel completes the
        // connect, the request lands in its buffer, and no head comes.
        let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
        let config = FleetConfig {
            workers: vec![silent.local_addr().expect("addr").to_string()],
            worker_timeout: Duration::from_secs(1),
            ..Default::default()
        };
        let fleet = Arc::new(Fleet::new(&config));
        let dispatcher = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || fleet.dispatch_loop(0))
        };
        let points = SweepSpec::parse(TINY_SPEC).expect("spec").points().expect("points");
        let fps = crate::spec::fingerprints(&points);
        let pairing = emit::baseline_pairing(&points, &fps);
        let (tx, rx) = std::sync::mpsc::channel();
        let submission = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                let _ = tx.send(fleet.run_submission(TINY_SPEC, points, fps, &pairing, 0));
            })
        };
        let verdict = rx.recv_timeout(Duration::from_secs(5)).expect("fails within 5 s");
        assert_eq!(verdict, Err("every fleet worker is dead".to_string()));
        submission.join().expect("submission thread");
        dispatcher.join().expect("the dead worker's dispatcher exits");
        assert_eq!(fleet.alive_workers(), 0);
        drop(silent);
    }

    #[test]
    fn admission_control_rejects_over_limit_submissions_with_429() {
        let (worker, _s, wh) = start_worker();
        let config =
            FleetConfig { workers: vec![worker.clone()], max_inflight: 0, ..Default::default() };
        let (_fleet, addr, handle) = start_fleet(&config);

        let e = client::submit(&addr, TINY_SPEC, &mut Vec::new()).expect_err("backpressure");
        assert!(e.0.contains("replied 429"), "{e}");
        assert!(e.0.contains("fleet at capacity"), "{e}");
        let status = client::status(&addr).expect("status");
        assert!(status.contains("\"rejected\":1"), "{status}");

        client::shutdown(&addr).expect("stop fleet");
        handle.join().expect("fleet thread").expect("clean fleet shutdown");
        client::shutdown(&worker).expect("stop worker");
        wh.join().expect("worker thread").expect("clean worker shutdown");
    }

    #[test]
    fn dispatch_queue_orders_by_priority_then_fifo() {
        let submission = Arc::new(Submission {
            spec_text: String::new(),
            points: Vec::new(),
            fingerprints: Vec::new(),
            state: Mutex::new(SubmissionState {
                collector: Collector::default(),
                outstanding: 0,
                failed: None,
            }),
            done: Condvar::new(),
        });
        let assignment = |priority: u32, seq: u64| Assignment {
            submission: Arc::clone(&submission),
            lo: 0,
            hi: u64::MAX,
            priority,
            seq,
        };
        let mut queue =
            vec![assignment(0, 0), assignment(5, 1), assignment(5, 2), assignment(1, 3)];
        let order: Vec<(u32, u64)> =
            std::iter::from_fn(|| pop_best(&mut queue)).map(|a| (a.priority, a.seq)).collect();
        assert_eq!(
            order,
            vec![(5, 1), (5, 2), (1, 3), (0, 0)],
            "highest priority first, FIFO within a class"
        );
    }
}
