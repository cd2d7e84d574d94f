//! The service phase of a traced `gen-population` run: `st serve`
//! restarted, again and again, over a results directory that holds many
//! more entries than any submission reads; after each start two client
//! connections replay its share of fixed-profile, small-budget
//! submissions in a closed loop. Every share has the same make-up: one
//! submission carries fresh points, the rest are fully cached, and a few
//! of those are submitted by both clients at once. A start is the store
//! open and preload; a submission is parse, expand, fingerprint, lookup
//! and stream, with almost no simulation. The phase supplies the
//! `service.*` per-layer metrics and checks every stream. Its wall time
//! follows the host's load too closely to hold an end-to-end bound on a
//! shared 2-core host, so it is not a workload of its own (see
//! `README.md` beside this crate).
//!
//! The store is written by the program itself (engine write-through),
//! so it is in whichever format the commit under test writes. The
//! service runs in a child process — this binary re-executed in its
//! `serve-child` role, which binds and runs `st_sweep::service::Server`
//! as `st serve` does — so its memory is its own.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use st_core::SimReport;
use st_sweep::service::{Server, ServiceConfig};
use st_sweep::{client, emit, SweepEngine, SweepSpec};

use crate::metrics::{Outcome, Values};
use crate::sim::{self, Point};
use crate::stats::{median, samples_needed, tail_percentile};
use crate::trace::Tracer;
use crate::{host, mix64, THREADS};

/// First argument that selects the child role.
pub const CHILD_ROLE: &str = "serve-child";

/// Experiments in the store besides BASE.
const EXPERIMENTS: [&str; 6] = ["A5", "A7", "B3", "B7", "C2", "C7"];

/// Instruction budgets in the store: `BUDGET_LO + BUDGET_STEP * k`.
const BUDGETS: u64 = 70;
const BUDGET_LO: u64 = 300;
const BUDGET_STEP: u64 = 10;

/// Budgets per submission, and distinct cached submissions. Each start
/// also sends one submission of its own with a budget the store does
/// not hold.
const SUBMIT_BUDGETS: u64 = 24;
const CACHED_SPECS: u64 = 24;

/// Cached submissions per start, every [`OVERLAP_EVERY`]-th of them sent
/// twice in a row so that both clients run it at once.
const CACHED_PER_START: usize = 21;
const OVERLAP_EVERY: usize = 8;

/// Submissions per start.
const SHARE: usize = 1 + CACHED_PER_START + CACHED_PER_START.div_ceil(OVERLAP_EVERY);

fn budget(k: u64) -> u64 {
    BUDGET_LO + BUDGET_STEP * k
}

/// A submission spec in `st run`'s TOML form.
fn spec_text(name: &str, experiments: &[&str], budgets: &[u64]) -> String {
    let exps: Vec<String> = experiments.iter().map(|e| format!("\"{e}\"")).collect();
    let budgets: Vec<String> = budgets.iter().map(u64::to_string).collect();
    format!(
        "name = \"{name}\"\nexperiments = [{}]\n\n[axis]\ninstructions = [{}]\n",
        exps.join(", "),
        budgets.join(", ")
    )
}

/// The distinct submissions: cached ones read a window of the stored
/// budgets; the `fresh` others add one budget halfway between two stored
/// ones.
fn submission_specs(fresh: u64) -> Vec<String> {
    let mut specs = Vec::new();
    for k in 0..CACHED_SPECS + fresh {
        let e = k as usize % EXPERIMENTS.len();
        let exps = [EXPERIMENTS[e], EXPERIMENTS[(e + 1) % EXPERIMENTS.len()]];
        let first = (k * 7) % (BUDGETS - SUBMIT_BUDGETS);
        let mut budgets: Vec<u64> = (first..first + SUBMIT_BUDGETS).map(budget).collect();
        if k >= CACHED_SPECS {
            budgets[0] += BUDGET_STEP / 2;
        }
        specs.push(spec_text(&format!("submit-{k}"), &exps, &budgets));
    }
    specs
}

/// Each start's submissions, as indices into [`submission_specs`]:
/// its own fresh spec and [`CACHED_PER_START`] cached ones, every
/// [`OVERLAP_EVERY`]-th doubled. The cached specs go round-robin over
/// the run; `seed` shuffles which start gets which, and the order within
/// each start, keeping a doubled pair together.
fn submission_order(starts: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut state = seed;
    let mut shuffle = |groups: &mut Vec<Vec<usize>>| {
        for j in (1..groups.len()).rev() {
            state = mix64(state);
            groups.swap(j, (state % (j as u64 + 1)) as usize);
        }
    };
    let mut cached: Vec<Vec<usize>> =
        (0..starts * CACHED_PER_START).map(|i| vec![i % CACHED_SPECS as usize]).collect();
    shuffle(&mut cached);
    let mut cached = cached.into_iter();
    (0..starts)
        .map(|start| {
            let mut groups = vec![vec![CACHED_SPECS as usize + start]];
            for (j, group) in cached.by_ref().take(CACHED_PER_START).enumerate() {
                groups.push(if j % OVERLAP_EVERY == 0 { vec![group[0]; 2] } else { group });
            }
            shuffle(&mut groups);
            groups.concat()
        })
        .collect()
}

/// The `serve-child` role: `st serve` over `<dir>` on an ephemeral port,
/// printing the bound address first. Exits when its stdin closes, so it
/// never outlives the benchmark.
pub fn serve_child(args: &[String]) -> i32 {
    let [dir] = args else {
        eprintln!("perfbench {CHILD_ROLE}: expected one results directory");
        return 2;
    };
    std::thread::spawn(|| {
        let mut buf = [0u8; 64];
        while let Ok(n) = std::io::stdin().read(&mut buf) {
            if n == 0 {
                break;
            }
        }
        std::process::exit(3);
    });
    let config =
        ServiceConfig { out: PathBuf::from(dir), threads: THREADS, ..ServiceConfig::default() };
    let server = match Server::bind("127.0.0.1:0", &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench {CHILD_ROLE}: cannot bind: {e}");
            return 1;
        }
    };
    println!("{}", server.local_addr());
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench {CHILD_ROLE}: {e}");
            1
        }
    }
}

/// A running service child; killed and reaped on drop if still alive.
struct Service {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Starts the service over `dir` and waits for its first `GET
    /// /status` answer; returns it, that answer, and the time it took.
    fn start(dir: &Path, tracer: &Tracer) -> Result<(Service, String, f64), String> {
        let (service, secs) = tracer.span("service.start", None, None, |_| {
            let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
            let mut child = Command::new(exe)
                .arg(CHILD_ROLE)
                .arg(dir)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cannot start the service: {e}"))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            let (tx, rx) = mpsc::channel();
            // Forward the address line, then drain until the child exits.
            let drain = std::thread::spawn(move || {
                let mut lines = BufReader::new(stdout).lines();
                let _ = tx.send(lines.next());
                for _ in lines {}
            });
            let mut service = Service { child, addr: String::new(), drain: Some(drain) };
            match rx.recv_timeout(Duration::from_secs(120)) {
                Ok(Some(Ok(addr))) => service.addr = addr,
                _ => return Err("the service printed no address".to_string()),
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match client::status(&service.addr) {
                    Ok(status) => return Ok((service, status)),
                    Err(e) if Instant::now() > deadline => return Err(format!("status: {e}")),
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        });
        let (service, status) = service?;
        Ok((service, status, secs))
    }

    fn status(&self) -> Result<String, String> {
        client::status(&self.addr).map_err(|e| format!("status: {e}"))
    }

    /// Graceful shutdown, then reap.
    fn stop(mut self) -> Result<(), String> {
        client::shutdown(&self.addr).map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("service exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("service did not stop".to_string()),
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        Ok(())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A `GET /status` counter.
fn status_number(status: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\":");
    let at = status.find(&pat).ok_or(format!("status has no {key}"))? + pat.len();
    let digits: String = status[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().map_err(|_| format!("status {key} is not a count"))
}

/// A sink that keeps the streamed bytes and when the first arrived.
struct TimedSink {
    start: Instant,
    first: Option<f64>,
    bytes: Vec<u8>,
}

impl Write for TimedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.first.is_none() && !buf.is_empty() {
            self.first = Some(self.start.elapsed().as_secs_f64());
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One submission's measurements.
struct Submission {
    latency_s: f64,
    first_s: Option<f64>,
    error: Option<String>,
}

/// One distinct submission: its text and expected stream.
struct Expected {
    text: String,
    jsonl: String,
}

/// The phase: builds the store, then starts the service over it again
/// and again, each start serving its share of the submissions, which
/// `seed` orders. Fills the `service.*` per-layer metrics and counts its
/// output checks into `out`: every stream byte-identical to the local
/// run's, every distinct point's invariants, and a solo re-run sample.
pub fn phase(
    seed: u64,
    scratch: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
    layer: &mut Values,
) -> Result<(), String> {
    let results = scratch.join("service-results");

    // The store: every fixed profile x BASE + EXPERIMENTS x BUDGETS
    // budgets, written through by the engine; kept in memory as the
    // local run the streams are checked against.
    let budgets: Vec<u64> = (0..BUDGETS).map(budget).collect();
    let fixture = SweepSpec::parse(&spec_text("fixture", &EXPERIMENTS, &budgets))
        .and_then(|s| s.jobs())
        .map_err(|e| format!("fixture spec: {e}"))?;
    let local: HashMap<u64, Arc<SimReport>> = {
        let engine = SweepEngine::with_result_store(THREADS, &results).with_lanes(8);
        let reports = engine.run(&fixture);
        fixture.iter().map(|j| j.fingerprint()).zip(reports).collect()
    };

    // Expected streams, from the same grid run locally.
    let fresh_engine = SweepEngine::new(THREADS);
    let mut expected = Vec::new();
    let mut distinct: BTreeMap<u64, Point> = BTreeMap::new();
    let starts = samples_needed(0.9).div_ceil(SHARE);
    for text in submission_specs(starts as u64) {
        let spec = SweepSpec::parse(&text).map_err(|e| format!("submission spec: {e}"))?;
        let grid = spec.points().map_err(|e| format!("submission spec: {e}"))?;
        let mut reports = Vec::with_capacity(grid.len());
        for p in &grid {
            let fp = p.job.fingerprint();
            let report = match local.get(&fp) {
                Some(r) => Arc::clone(r),
                None => fresh_engine.run_one(&p.job),
            };
            distinct.entry(fp).or_insert_with(|| (p.job.clone(), Arc::clone(&report)));
            reports.push(report);
        }
        let jsonl = emit::sweep_jsonl(&grid, &reports);
        expected.push(Expected { text, jsonl });
    }

    // Restarts: each start is timed to its first `GET /status` answer,
    // then serves its share of the submissions over two connections.
    let shares = submission_order(starts, seed);
    let done: Mutex<Vec<(usize, Submission)>> = Mutex::new(Vec::with_capacity(starts * SHARE));
    let (mut ready, mut ready_rss) = (Vec::new(), Vec::new());
    let mut counters: BTreeMap<&str, f64> = BTreeMap::new();
    let mut first_id = 0;
    for share in &shares {
        let (service, before, secs) = Service::start(&results, tracer)?;
        ready.push(secs);
        ready_rss.push(host::peak_rss_mib(Some(service.child.id()))?);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&k) = share.get(i) else { break };
                    let want = &expected[k];
                    let mut sink =
                        TimedSink { start: Instant::now(), first: None, bytes: Vec::new() };
                    let id = Some((first_id + i) as u64);
                    let (sent, latency_s) = tracer.span("service.submit", None, id, |_| {
                        client::submit(&service.addr, &want.text, &mut sink)
                    });
                    let error = match sent {
                        Err(e) => Some(e.to_string()),
                        Ok(_) if sink.bytes != want.jsonl.as_bytes() => {
                            Some("stream differs from the local run".to_string())
                        }
                        Ok(_) => None,
                    };
                    let sub = Submission { latency_s, first_s: sink.first, error };
                    done.lock().expect("submission list poisoned").push((k, sub));
                });
            }
        });
        let after = service.status()?;
        service.stop()?;
        for key in ["cache_hits", "points_served", "points_simulated"] {
            *counters.entry(key).or_default() +=
                status_number(&after, key)? - status_number(&before, key)?;
        }
        first_id += share.len();
    }

    let done = done.into_inner().expect("submission list poisoned");
    for (i, (k, sub)) in done.iter().enumerate() {
        out.check(sub.error.is_none(), || {
            format!("submission {i} (spec {k}): {}", sub.error.as_deref().unwrap_or(""))
        });
    }
    let points: Vec<Point> = distinct.into_values().collect();
    sim::check_invariants(&points, out);
    let sample = sim::pick_sample(&points, 4, seed);
    sim::solo_check(&sample, THREADS, &Tracer::new(false), None, out, &mut Values::new());

    let ms = |f: &dyn Fn(&Submission) -> Option<f64>| -> Vec<f64> {
        done.iter().filter_map(|(_, s)| f(s)).map(|v| v * 1e3).collect()
    };
    let latency = ms(&|s| Some(s.latency_s));
    let ttfr = ms(&|s| s.first_s);
    let stream = ms(&|s| s.first_s.map(|f| s.latency_s - f));
    let p90 = tail_percentile(&latency, 0.9).ok_or("too few submissions for a p90")?;
    layer.insert("service.ready_s", median(&ready).expect("the service started"));
    layer.insert("service.submissions", done.len() as f64);
    layer.insert("service.submit_ms_p50", median(&latency).unwrap_or(0.0));
    layer.insert("service.submit_ms_p90", p90);
    layer.insert("service.ttfr_ms_p50", median(&ttfr).unwrap_or(0.0));
    layer.insert("service.stream_ms_p50", median(&stream).unwrap_or(0.0));
    layer.insert("service.points_served", counters["points_served"]);
    layer.insert("service.points_simulated", counters["points_simulated"]);
    layer.insert("service.cache_hits", counters["cache_hits"]);
    layer.insert("service.ready_rss_mib", median(&ready_rss).expect("the service started"));
    Ok(())
}
