//! The fleet coordinator: `st serve --fleet`.
//!
//! A front daemon that federates many remote `st serve` workers behind
//! one `/submit` endpoint. Where [`crate::service`] answers a submission
//! from its own engine, the coordinator owns **no simulator at all** —
//! it expands the submitted spec once, through the same axis registry,
//! partitions the grid over the live workers by the deterministic
//! fingerprint-range [`ShardPlan`], and streams each range from a
//! worker's `GET /points?range=lo-hi` endpoint over the wire protocol in
//! [`crate::client`], one scoped thread per range. Each returned shard
//! `point` record is verified ([`shard::parse_record`]: placement by
//! fingerprint, tamper by content hash) and decoded once, at ingest, and
//! placed in the submission's `Collector`, the collector `st merge`
//! uses, which holds the overlap and coverage rules. The coordinator
//! then renders the decoded reports with [`crate::emit`], so piping
//! `st submit` through a fleet is **byte-identical** to a local
//! `st run`, the same contract every other distribution layer in this
//! crate honours.
//!
//! The coordinator schedules nothing itself: a worker may stream ranges
//! of several submissions at once, and its engine's permits bound its
//! simulations while its machine table shares their machines.
//!
//! Robustness model:
//!
//! * **Failover in place.** Workers stream a range in
//!   `(fingerprint, seq)` order, so whatever arrives before a worker
//!   dies is a *prefix* of its range; the range's thread streams the
//!   unfinished remainder `[first-missing-fp, hi]` from the next live
//!   worker. Workers serve cache-first, so a range that failed over near
//!   its end costs almost nothing to finish — completed points are never
//!   re-simulated. A worker that fails is marked dead and never
//!   contacted again; when the last worker dies, in-flight and later
//!   submissions fail fast (clients see a truncated stream, a hard
//!   error) instead of hanging.
//! * **Admission control.** At most `max_inflight` submissions stream
//!   concurrently; excess submissions get a structured `429` reply the
//!   client surfaces verbatim, so backpressure is visible instead of
//!   silent queueing collapse.
//!
//! The coordinator speaks the same `GET /status` / `POST /shutdown`
//! surface as a plain server, with fleet-shaped counters (per-worker
//! liveness, failovers, rejections).

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
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
    /// declared dead and its unfinished range failed over. A worker may
    /// serve several ranges at once, so on a loaded worker a gap can
    /// last a few points' simulation time, but never the whole range.
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

/// Why a submission fails once no worker is left to stream its ranges.
const EVERY_WORKER_DEAD: &str = "every fleet worker is dead";

/// One federated worker, as the coordinator tracks it. Death is
/// permanent for the coordinator's lifetime: a worker that failed once
/// (connection refused, timeout, bad record) is never contacted
/// again — restarting workers means restarting the coordinator.
#[derive(Debug)]
struct Worker {
    addr: String,
    alive: AtomicBool,
    ranges_served: AtomicU64,
}

/// The coordinator core: workers, admission accounting and counters.
/// [`FleetServer`] adds the socket.
#[derive(Debug)]
pub struct Fleet {
    workers: Vec<Worker>,
    max_inflight: usize,
    worker_timeout: Duration,
    active: Mutex<usize>,
    submissions: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failovers: AtomicU64,
}

impl Fleet {
    /// A coordinator over `config`'s workers. Purely in-memory; nothing
    /// connects until the first submission.
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
            active: Mutex::new(0),
            submissions: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        }
    }

    fn is_alive(&self, w: usize) -> bool {
        self.workers[w].alive.load(Ordering::SeqCst)
    }

    /// The live workers' indices, in configuration order.
    fn live_workers(&self) -> Vec<usize> {
        (0..self.workers.len()).filter(|&w| self.is_alive(w)).collect()
    }

    /// Runs one submission end-to-end: partition the grid, whose points'
    /// fingerprints are `fingerprints`, over the live workers, stream
    /// every non-empty range on a scoped thread of its own, starting
    /// with the shard's worker ([`Fleet::stream_range`]), then return
    /// the canonical JSONL, rendered from the reports decoded at ingest
    /// with `pairing`.
    ///
    /// # Errors
    ///
    /// A fleet-wide failure (every worker dead) or a coverage gap — both
    /// mean the client must not receive a full-looking stream.
    fn run_submission(
        &self,
        spec_text: &str,
        points: &[SweepPoint],
        fingerprints: &[u64],
        pairing: &[Option<usize>],
    ) -> Result<String, String> {
        self.submissions.fetch_add(1, Ordering::Relaxed);
        let live = self.live_workers();
        if live.is_empty() {
            return Err(EVERY_WORKER_DEAD.to_string());
        }
        let plan = ShardPlan::new(fingerprints, live.len()).map_err(|e| e.0)?;
        let collector = Mutex::new(Collector::new(points.len()));
        std::thread::scope(|scope| {
            let ranges: Vec<_> = (0..plan.of())
                .filter_map(|s| plan.range(s).map(|range| (live[s], range)))
                .map(|(w, range)| {
                    let collector = &collector;
                    scope.spawn(move || {
                        self.stream_range(w, range, spec_text, points, fingerprints, collector)
                    })
                })
                .collect();
            ranges.into_iter().try_for_each(|r| r.join().expect("a range thread panicked"))
        })?;
        let reports =
            collector.into_inner().expect("collector poisoned").finish().map_err(|e| e.0)?;
        self.completed.fetch_add(1, Ordering::Relaxed);
        Ok(emit::sweep_jsonl_with_pairing(points, &reports, pairing))
    }

    /// Streams the `[lo, hi]` fingerprint range from worker `w`,
    /// verifying every record at ingest ([`shard::parse_record`]:
    /// position, fingerprint, content hash, outside the collector lock)
    /// and placing it in `collector`. Any failure — connect, timeout,
    /// truncation, a record that fails verification or differs from
    /// another worker's copy — marks the worker dead, and the thread
    /// streams the unfinished remainder from the next live worker.
    ///
    /// # Errors
    ///
    /// [`EVERY_WORKER_DEAD`] once no live worker is left to take the
    /// remainder.
    fn stream_range(
        &self,
        mut w: usize,
        (mut lo, hi): (u64, u64),
        spec_text: &str,
        points: &[SweepPoint],
        fingerprints: &[u64],
        collector: &Mutex<Collector>,
    ) -> Result<(), String> {
        loop {
            let worker = &self.workers[w];
            let streamed = client::fetch_points(
                &worker.addr,
                spec_text,
                (lo, hi),
                Some(self.worker_timeout),
                &mut |line| {
                    let record =
                        shard::parse_record(line, points, fingerprints).map_err(|e| e.0)?;
                    let mut collector = collector.lock().expect("collector poisoned");
                    collector.place(record).map(drop).map_err(|e| e.0)
                },
            );
            let Err(e) = streamed else {
                worker.ranges_served.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            };
            worker.alive.store(false, Ordering::SeqCst);
            eprintln!(
                "st serve --fleet: worker {} failed on range {}: {e}",
                worker.addr,
                shard::format_fp_range(lo, hi),
            );
            // The worker streamed in `(fingerprint, seq)` order, so the
            // received part is a prefix: the remainder starts at the
            // first missing member's fingerprint.
            let members = ShardPlan::members_in_range(fingerprints, lo, hi);
            let first_missing = {
                let collector = collector.lock().expect("collector poisoned");
                members.into_iter().find(|&seq| !collector.has(seq))
            };
            // Every member arrived before the connection died (the
            // failure hit after the last record): the range is done.
            let Some(first_missing) = first_missing else { return Ok(()) };
            lo = fingerprints[first_missing];
            let n = self.workers.len();
            w = (1..n)
                .map(|i| (w + i) % n)
                .find(|&next| self.is_alive(next))
                .ok_or_else(|| EVERY_WORKER_DEAD.to_string())?;
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
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
            "{{\"kind\":\"fleet-status\",\"workers\":[{}],\"alive_workers\":{},\"active_submissions\":{},\"max_inflight\":{},\"submissions\":{},\"completed\":{},\"rejected\":{},\"failovers\":{}}}",
            workers.join(","),
            self.live_workers().len(),
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

/// The coordinator daemon: a bound listener and the [`Fleet`] it
/// serves.
#[derive(Debug)]
pub struct FleetServer {
    listener: TcpListener,
    addr: SocketAddr,
    fleet: Fleet,
    shutdown: AtomicBool,
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
            fleet: Fleet::new(config),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The actually bound address (resolves port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator core, for in-process inspection in tests.
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
        serve_connections(&self.listener, &self.shutdown, &|stream| self.handle_connection(stream))
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
            ("POST", "/submit") => self.handle_submit(&mut stream, &request.body),
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

    /// `POST /submit` on the coordinator: admit (or 429), expand,
    /// announce the head, stream the ranges from the workers, merge,
    /// stream.
    fn handle_submit(&self, stream: &mut TcpStream, body: &str) -> std::io::Result<()> {
        let fleet = &self.fleet;
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
        if fleet.live_workers().is_empty() {
            return respond_error(stream, 503, "every fleet worker is dead; restart the fleet");
        }
        let Some((spec, points)) = read_grid(stream, body)? else { return Ok(()) };
        // Same head as a plain server, sent before any worker is
        // contacted, so the client's truncation check guards fleet
        // failures too.
        let fingerprints = crate::spec::fingerprints(&points);
        let pairing = emit::baseline_pairing(&points, &fingerprints);
        write_stream_head(stream, &spec, points.len(), emit::record_count(&pairing))?;
        match fleet.run_submission(body, &points, &fingerprints, &pairing) {
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
    use std::sync::Arc;

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

    /// `TINY_SPEC`'s grid, fingerprints and baseline pairing, as
    /// `handle_submit` hands them to [`Fleet::run_submission`].
    fn tiny_grid() -> (Vec<SweepPoint>, Vec<u64>, Vec<Option<usize>>) {
        let points = SweepSpec::parse(TINY_SPEC).expect("spec").points().expect("points");
        let fingerprints = crate::spec::fingerprints(&points);
        let pairing = emit::baseline_pairing(&points, &fingerprints);
        (points, fingerprints, pairing)
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
        assert_eq!(fleet.fleet().live_workers().len(), 2);
        for (w, h) in [(w1, h1), (w2, h2)] {
            client::shutdown(&w).expect("stop worker");
            h.join().expect("worker thread").expect("clean worker shutdown");
        }
    }

    #[test]
    fn concurrent_submissions_share_the_workers_and_simulate_each_machine_once() {
        let (w1, s1, h1) = start_worker();
        let (w2, s2, h2) = start_worker();
        let config = FleetConfig { workers: vec![w1.clone(), w2.clone()], ..Default::default() };
        let (_fleet, addr, handle) = start_fleet(&config);

        // Both submissions plan the same ranges onto the same workers,
        // whose machine tables share each machine between them.
        let canonical = canonical_jsonl(TINY_SPEC);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let submit = || {
                start.wait();
                let mut out = Vec::new();
                client::submit(&addr, TINY_SPEC, &mut out).expect("fleet submit");
                assert_eq!(String::from_utf8(out).expect("utf8"), canonical);
            };
            scope.spawn(submit);
            scope.spawn(submit);
        });
        let simulated: u64 =
            [&s1, &s2].iter().map(|s| s.service().engine().stats().simulated).sum();
        assert_eq!(simulated, 4, "each machine simulated once across both submissions");
        let status = client::status(&addr).expect("status");
        assert!(status.contains("\"completed\":2"), "{status}");

        client::shutdown(&addr).expect("stop fleet");
        handle.join().expect("fleet thread").expect("clean fleet shutdown");
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
                assert_eq!(request.path, "/points", "coordinator only streams ranges");
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
        assert_eq!(fleet.fleet().live_workers(), vec![1], "the dying worker was declared dead");
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
        let (points, fps, pairing) = tiny_grid();
        // The plan gives the first of the two ranges to the first worker,
        // the stand-in, and the second to the survivor.
        let jsonl = fleet.run_submission(TINY_SPEC, &points, &fps, &pairing);
        assert!(!fleet.is_alive(0), "a worker whose record fails verification is dropped");
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
        // An address nothing listens on: the first submission kills the
        // only worker.
        let nobody = TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
        let config = FleetConfig { workers: vec![nobody.to_string()], ..Default::default() };
        let fleet = Arc::new(Fleet::new(&config));
        let (points, fps, pairing) = tiny_grid();
        let dead = Err(EVERY_WORKER_DEAD.to_string());
        assert_eq!(fleet.run_submission(TINY_SPEC, &points, &fps, &pairing), dead);
        assert!(fleet.live_workers().is_empty(), "the refused worker was declared dead");

        // No worker is left to stream a range, so a later submission
        // must fail instead of waiting forever.
        let (tx, rx) = std::sync::mpsc::channel();
        let second = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                let _ = tx.send(fleet.run_submission(TINY_SPEC, &points, &fps, &pairing));
            })
        };
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).expect("returns within 5 s"), dead);
        second.join().expect("second submission thread");
        assert_eq!(fleet.failovers.load(Ordering::Relaxed), 0, "no live worker took a range");
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
        let (points, fps, pairing) = tiny_grid();
        let (tx, rx) = std::sync::mpsc::channel();
        let submission = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                let _ = tx.send(fleet.run_submission(TINY_SPEC, &points, &fps, &pairing));
            })
        };
        let verdict = rx.recv_timeout(Duration::from_secs(5)).expect("fails within 5 s");
        assert_eq!(verdict, Err(EVERY_WORKER_DEAD.to_string()));
        submission.join().expect("submission thread");
        assert!(fleet.live_workers().is_empty());
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
}
