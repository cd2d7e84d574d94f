//! The measured-load harness: `st loadgen`.
//!
//! Replays many concurrent submissions of one spec against a running
//! `st serve` or `st serve --fleet` endpoint and measures what the
//! ROADMAP calls the "heavy traffic" story: sustained submission
//! throughput and per-submission latency percentiles (p50/p90/p99).
//! With `--bench-json PATH` the results land in a `BENCH_service.json`
//! file via [`update_service`], so CI tracks service capacity as a
//! number, not a claim.
//!
//! The harness is deliberately honest about what it measures: every
//! client thread drives complete `/submit` round trips through the real
//! [`crate::client`] (head parse, record streaming, truncation check),
//! and a submission only counts as successful if its full record stream
//! arrived. Backpressure (`429`) and failures are counted, never
//! silently retried — if admission control sheds load, the artifact
//! shows it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::client;
use crate::emit::{json_num, write_text};

/// One load-generation run: who to hammer, how hard.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Service or fleet address (`host:port`).
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total submissions across all clients.
    pub submissions: usize,
}

impl Default for LoadgenConfig {
    /// The `st loadgen` defaults: 8 clients x 32 submissions.
    fn default() -> LoadgenConfig {
        LoadgenConfig { addr: String::from("127.0.0.1:7077"), clients: 8, submissions: 32 }
    }
}

/// The measured outcome of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenResult {
    /// Concurrent client threads used.
    pub clients: u64,
    /// Submissions that completed with a full record stream.
    pub submissions: u64,
    /// Submissions that failed (backpressure, connection errors,
    /// truncated streams).
    pub failures: u64,
    /// Records per successful submission (identical across submissions
    /// of one spec by construction).
    pub records_per_submission: u64,
    /// Wall-clock seconds for the whole run.
    pub total_seconds: f64,
    /// Per-submission latencies in milliseconds, sorted ascending
    /// (successes only).
    pub latencies_ms: Vec<f64>,
}

impl LoadgenResult {
    /// The latency at quantile `q` in `[0, 1]`, via the nearest-rank
    /// method over the sorted successful latencies (`0.0` when nothing
    /// succeeded).
    #[must_use]
    pub fn percentile_ms(&self, q: f64) -> f64 {
        percentile(&self.latencies_ms, q)
    }

    /// Successful submissions per second.
    #[must_use]
    pub fn submissions_per_sec(&self) -> f64 {
        self.submissions as f64 / self.total_seconds.max(1e-9)
    }

    /// Renders the run as the `BENCH_service.json` section.
    #[must_use]
    pub fn to_section(&self, unix_time: u64) -> ServiceBenchSection {
        let mean = if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
        };
        ServiceBenchSection {
            unix_time,
            clients: self.clients,
            submissions: self.submissions,
            failures: self.failures,
            records_per_submission: self.records_per_submission,
            total_seconds: self.total_seconds,
            submissions_per_sec: self.submissions_per_sec(),
            records_per_sec: self.submissions_per_sec() * self.records_per_submission as f64,
            p50_ms: self.percentile_ms(0.50),
            p90_ms: self.percentile_ms(0.90),
            p99_ms: self.percentile_ms(0.99),
            mean_ms: mean,
            min_ms: self.latencies_ms.first().copied().unwrap_or(0.0),
            max_ms: self.latencies_ms.last().copied().unwrap_or(0.0),
        }
    }
}

/// The `st loadgen` section of `BENCH_service.json`: measured service
/// throughput and latency percentiles under concurrent submission load
/// — the CI-tracked "heavy traffic" number.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceBenchSection {
    /// Unix time the load run finished.
    pub unix_time: u64,
    /// Concurrent client threads.
    pub clients: u64,
    /// Submissions completed successfully.
    pub submissions: u64,
    /// Submissions that failed (backpressure, dead fleet, …).
    pub failures: u64,
    /// Records streamed per successful submission.
    pub records_per_submission: u64,
    /// Wall-clock seconds for the whole run.
    pub total_seconds: f64,
    /// Successful submissions per second.
    pub submissions_per_sec: f64,
    /// Records per second across all successful submissions.
    pub records_per_sec: f64,
    /// Median submission latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile submission latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile submission latency, milliseconds.
    pub p99_ms: f64,
    /// Mean submission latency, milliseconds.
    pub mean_ms: f64,
    /// Fastest submission, milliseconds.
    pub min_ms: f64,
    /// Slowest submission, milliseconds.
    pub max_ms: f64,
}

/// Writes the `st loadgen` artifact (`BENCH_service.json`): a `bench`
/// discriminator and the `service_bench` section.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written.
pub fn update_service(path: &Path, service: &ServiceBenchSection) -> std::io::Result<()> {
    let s = service;
    write_text(
        path,
        &format!(
            "{{\n  \"bench\": \"st_service\",\n  \"service_bench\": {{\n    \"unix_time\": {},\n    \"clients\": {},\n    \"submissions\": {},\n    \"failures\": {},\n    \"records_per_submission\": {},\n    \"total_seconds\": {},\n    \"submissions_per_sec\": {},\n    \"records_per_sec\": {},\n    \"p50_ms\": {},\n    \"p90_ms\": {},\n    \"p99_ms\": {},\n    \"mean_ms\": {},\n    \"min_ms\": {},\n    \"max_ms\": {}\n  }}\n}}\n",
            s.unix_time,
            s.clients,
            s.submissions,
            s.failures,
            s.records_per_submission,
            json_num(s.total_seconds),
            json_num(s.submissions_per_sec),
            json_num(s.records_per_sec),
            json_num(s.p50_ms),
            json_num(s.p90_ms),
            json_num(s.p99_ms),
            json_num(s.mean_ms),
            json_num(s.min_ms),
            json_num(s.max_ms),
        ),
    )
}

/// Nearest-rank percentile over an ascending-sorted slice: element
/// `ceil(q * n) - 1`, the smallest value such that at least `q * n`
/// observations are `<=` it.
#[must_use]
pub fn percentile(sorted_ascending: &[f64], q: f64) -> f64 {
    let n = sorted_ascending.len();
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).ceil() as usize;
    sorted_ascending[rank.clamp(1, n) - 1]
}

/// Runs the load: `config.clients` threads race through
/// `config.submissions` submissions of `spec_text` against
/// `config.addr`, each a complete verified `/submit` round trip.
/// Failures are reported to `diag` (one line each) and counted, never
/// fatal — the run always produces a result.
///
/// # Errors
///
/// Only configuration errors (zero clients or submissions); a fully
/// failing service still measures as `submissions: 0, failures: N`.
pub fn run(
    config: &LoadgenConfig,
    spec_text: &str,
    diag: &mut dyn std::io::Write,
) -> Result<LoadgenResult, String> {
    if config.clients == 0 || config.submissions == 0 {
        return Err("loadgen needs at least one client and one submission".to_string());
    }
    let next = AtomicUsize::new(0);
    let failures = AtomicU64::new(0);
    let records_per_submission = AtomicU64::new(0);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(config.submissions));
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.clients.min(config.submissions) {
            scope.spawn(|| loop {
                if next.fetch_add(1, Ordering::Relaxed) >= config.submissions {
                    break;
                }
                let begin = Instant::now();
                // Loadgen measures delivery: it counts the records and
                // keeps none of them.
                match client::submit_each(&config.addr, spec_text, &mut |_| Ok(())) {
                    Ok(records) => {
                        let ms = begin.elapsed().as_secs_f64() * 1e3;
                        latencies.lock().expect("latencies poisoned").push(ms);
                        records_per_submission.store(records, Ordering::Relaxed);
                    }
                    Err(e) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                        errors.lock().expect("errors poisoned").push(e.0);
                    }
                }
            });
        }
    });
    let total_seconds = started.elapsed().as_secs_f64();

    for error in errors.into_inner().expect("errors poisoned") {
        let _ = writeln!(diag, "st loadgen: submission failed: {error}");
    }
    let mut latencies_ms = latencies.into_inner().expect("latencies poisoned");
    latencies_ms.sort_by(f64::total_cmp);
    Ok(LoadgenResult {
        clients: config.clients as u64,
        submissions: latencies_ms.len() as u64,
        failures: failures.into_inner(),
        records_per_submission: records_per_submission.into_inner(),
        total_seconds,
        latencies_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::service::{Server, ServiceConfig};
    use std::sync::Arc;

    /// Reads a `BENCH_service.json` back into its section (`None` if the
    /// file is missing or malformed).
    fn read_service(path: &Path) -> Option<ServiceBenchSection> {
        let json = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
        let s = json.get("service_bench")?;
        Some(ServiceBenchSection {
            unix_time: s.get("unix_time")?.as_u64().ok()?,
            clients: s.get("clients")?.as_u64().ok()?,
            submissions: s.get("submissions")?.as_u64().ok()?,
            failures: s.get("failures")?.as_u64().ok()?,
            records_per_submission: s.get("records_per_submission")?.as_u64().ok()?,
            total_seconds: s.get("total_seconds")?.as_f64().ok()?,
            submissions_per_sec: s.get("submissions_per_sec")?.as_f64().ok()?,
            records_per_sec: s.get("records_per_sec")?.as_f64().ok()?,
            p50_ms: s.get("p50_ms")?.as_f64().ok()?,
            p90_ms: s.get("p90_ms")?.as_f64().ok()?,
            p99_ms: s.get("p99_ms")?.as_f64().ok()?,
            mean_ms: s.get("mean_ms")?.as_f64().ok()?,
            min_ms: s.get("min_ms")?.as_f64().ok()?,
            max_ms: s.get("max_ms")?.as_f64().ok()?,
        })
    }

    #[test]
    fn percentiles_follow_the_nearest_rank_method() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.90), 90.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[7.5], 0.5), 7.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Tiny samples clamp to real observations, never interpolate.
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.01), 1.0);
    }

    #[test]
    fn loadgen_measures_a_live_service_and_writes_the_artifact() {
        let spec = "name = \"lg\"\nworkloads = [\"go\"]\n\
                    [axis]\nruu_size = [16, 32]\ninstructions = 400\n";
        let service_config =
            ServiceConfig { no_cache: true, threads: 2, ..ServiceConfig::default() };
        let server = Arc::new(Server::bind("127.0.0.1:0", &service_config).expect("bind"));
        let addr = server.local_addr().to_string();
        let handle = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };

        let config = LoadgenConfig { addr: addr.clone(), clients: 2, submissions: 4 };
        let mut diag = Vec::new();
        let result = run(&config, spec, &mut diag).expect("load run");
        assert!(diag.is_empty(), "{}", String::from_utf8_lossy(&diag));
        assert_eq!(result.submissions, 4);
        assert_eq!(result.failures, 0);
        assert_eq!(result.records_per_submission, 6, "4 reports + 2 comparisons");
        assert_eq!(result.latencies_ms.len(), 4);
        assert!(result.percentile_ms(0.5) <= result.percentile_ms(0.9));
        assert!(result.percentile_ms(0.9) <= result.percentile_ms(0.99));
        assert!(result.total_seconds > 0.0);

        // The section lands in (and reads back from) BENCH_service.json.
        let dir = std::env::temp_dir().join(format!("st-loadgen-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_service.json");
        update_service(&path, &result.to_section(42)).expect("write artifact");
        let section = read_service(&path).expect("read back");
        assert_eq!(section.submissions, 4);
        assert_eq!(section.p50_ms, result.percentile_ms(0.5));
        assert_eq!(section.p99_ms, result.percentile_ms(0.99));
        assert!(section.submissions_per_sec > 0.0);
        let _ = std::fs::remove_dir_all(&dir);

        crate::client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean shutdown");
    }

    #[test]
    fn service_section_round_trips_through_its_own_file() {
        let dir = std::env::temp_dir().join(format!("st-loadgen-service-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_service.json");
        let section = ServiceBenchSection {
            unix_time: 45,
            clients: 8,
            submissions: 32,
            failures: 0,
            records_per_submission: 24,
            total_seconds: 2.5,
            submissions_per_sec: 12.8,
            records_per_sec: 307.2,
            p50_ms: 40.0,
            p90_ms: 55.5,
            p99_ms: 61.25,
            mean_ms: 42.0,
            min_ms: 30.0,
            max_ms: 62.0,
        };
        update_service(&path, &section).expect("write service bench");
        assert_eq!(read_service(&path), Some(section), "bit-exact round trip");
        assert!(read_service(&dir.join("nope.json")).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_dead_endpoint_counts_failures_instead_of_erroring() {
        // Bind-then-drop: nothing listens at this address.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let config = LoadgenConfig { addr, clients: 2, submissions: 3 };
        let mut diag = Vec::new();
        let result = run(&config, "name = \"x\"", &mut diag).expect("run completes");
        assert_eq!(result.submissions, 0);
        assert_eq!(result.failures, 3);
        assert_eq!(result.latencies_ms, Vec::<f64>::new());
        assert_eq!(result.to_section(1).p99_ms, 0.0);
        assert!(!diag.is_empty(), "failures were diagnosed");

        let e = run(&LoadgenConfig { clients: 0, ..config }, "name = \"x\"", &mut Vec::new())
            .expect_err("zero clients rejected");
        assert!(e.contains("at least one client"), "{e}");
    }
}
