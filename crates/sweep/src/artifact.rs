//! The `BENCH_sweep.json` perf artifact.
//!
//! One JSON file tracks the repository's performance trajectory across
//! three instruments: the **repro** section (`st repro` wall-clock per
//! figure plus cache effectiveness — the end-to-end number), the
//! **core_bench** section (`st bench` steady-state simulated
//! instructions/sec — the hot-loop number) and the **store_bench**
//! section (`st bench --store` bulk-append and cold-load timings of the
//! segment-log result store). Each tool updates its own section *in
//! place* and preserves the others', so CI can run them in any order
//! and upload one artifact. Every bench section also records the worker
//! threads and host core count it ran with, so throughput trends stay
//! comparable across machines. The tools write the file only when
//! given `--bench-json PATH`.
//!
//! The top-level layout keeps the original `st repro` schema (`bench`,
//! `total_seconds`, `figures`, …) so existing consumers keep parsing,
//! with `core_bench` as an additional member.

use std::path::Path;

use crate::bench::{BenchPoint, BenchResult, StoreBenchResult};
use crate::emit::{json_escape, json_num, write_text};
use crate::json::Json;

/// Host logical core count as seen by this process (`0` when unknown).
///
/// Recorded in every bench section so artifact consumers can normalise
/// throughput numbers across machines.
#[must_use]
pub fn host_cores() -> u64 {
    std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0)
}

/// The `st repro` section: wall-clock and cache effectiveness of one
/// full-paper reproduction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReproSection {
    /// Unix time the repro finished.
    pub unix_time: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Dynamic instruction budget per point.
    pub instructions_per_point: u64,
    /// Workload count.
    pub workloads: u64,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Per-figure `(name, seconds)` timings.
    pub figures: Vec<(String, f64)>,
    /// Distinct points simulated (cache misses).
    pub simulated_points: u64,
    /// Cache hits (incl. batch dedup).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// In-memory cache entries at the end of the run.
    pub cache_entries: u64,
    /// Entries preloaded from the result store.
    pub cache_loaded: u64,
    /// Hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
}

/// The `st bench` section: steady-state hot-loop throughput.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoreBenchSection {
    /// Unix time the bench finished.
    pub unix_time: u64,
    /// Worker threads (the hot-loop bench is single-threaded: 1).
    pub threads: u64,
    /// Host logical core count when the bench ran (0 = unknown).
    pub host_cores: u64,
    /// Geometric-mean simulated instructions/sec across points.
    pub geomean_instr_per_sec: f64,
    /// Whether the determinism probe passed.
    pub deterministic: bool,
    /// Per-point measurements.
    pub points: Vec<BenchPoint>,
}

impl CoreBenchSection {
    /// Builds the section from a bench run.
    #[must_use]
    pub fn from_result(result: &BenchResult, unix_time: u64) -> CoreBenchSection {
        CoreBenchSection {
            unix_time,
            threads: 1,
            host_cores: host_cores(),
            geomean_instr_per_sec: result.geomean_instr_per_sec,
            deterministic: result.deterministic,
            points: result.points.clone(),
        }
    }
}

/// The `st bench --store` section: segment-log result-store timings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreBenchSection {
    /// Unix time the bench finished.
    pub unix_time: u64,
    /// Worker threads (the store bench is single-threaded: 1).
    pub threads: u64,
    /// Host logical core count when the bench ran (0 = unknown).
    pub host_cores: u64,
    /// Synthetic entries written and reloaded.
    pub entries: u64,
    /// On-disk bytes after the bulk append.
    pub file_bytes: u64,
    /// Segment files after the bulk append.
    pub segments: u64,
    /// Seconds to append every entry (write-through path).
    pub write_seconds: f64,
    /// Seconds for the cold reopen (one sequential pass).
    pub load_seconds: f64,
    /// Entries decoded per second during the cold load.
    pub load_entries_per_sec: f64,
}

impl StoreBenchSection {
    /// Builds the section from a store-bench run.
    #[must_use]
    pub fn from_result(result: &StoreBenchResult, unix_time: u64) -> StoreBenchSection {
        StoreBenchSection {
            unix_time,
            threads: 1,
            host_cores: host_cores(),
            entries: result.entries,
            file_bytes: result.file_bytes,
            segments: result.segments,
            write_seconds: result.write_seconds,
            load_seconds: result.load_seconds,
            load_entries_per_sec: result.entries as f64 / result.load_seconds.max(1e-9),
        }
    }
}

/// The `st loadgen` section, written to its own `BENCH_service.json`:
/// measured service throughput and latency percentiles under concurrent
/// submission load — the CI-tracked "heavy traffic" number.
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

/// Writes the `st loadgen` artifact (`BENCH_service.json`). The file
/// holds exactly one section today, but it renders through the same
/// schema conventions as `BENCH_sweep.json` (a `bench` discriminator +
/// one object per instrument) so future sections can merge in the same
/// way.
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

/// Reads a `BENCH_service.json` back into its section (`None` if the
/// file is missing or malformed) — the round-trip proof for tests and
/// trend tooling.
#[must_use]
pub fn read_service(path: &Path) -> Option<ServiceBenchSection> {
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

/// Updates `path`, replacing the given section(s) and preserving the
/// others from the existing file (if readable).
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written.
pub fn update(
    path: &Path,
    repro: Option<&ReproSection>,
    core: Option<&CoreBenchSection>,
    store: Option<&StoreBenchSection>,
) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).ok().and_then(|t| Json::parse(&t).ok());
    let preserved_repro;
    let repro = match repro {
        Some(r) => Some(r),
        None => {
            preserved_repro = existing.as_ref().and_then(parse_repro);
            preserved_repro.as_ref()
        }
    };
    let preserved_core;
    let core = match core {
        Some(c) => Some(c),
        None => {
            preserved_core = existing.as_ref().and_then(parse_core);
            preserved_core.as_ref()
        }
    };
    let preserved_store;
    let store = match store {
        Some(s) => Some(s),
        None => {
            preserved_store = existing.as_ref().and_then(parse_store);
            preserved_store.as_ref()
        }
    };
    write_text(path, &render(repro, core, store))
}

fn render(
    repro: Option<&ReproSection>,
    core: Option<&CoreBenchSection>,
    store: Option<&StoreBenchSection>,
) -> String {
    let mut out = String::from("{\n  \"bench\": \"st_repro\"");
    if let Some(r) = repro {
        let figures: Vec<String> = r
            .figures
            .iter()
            .map(|(name, secs)| {
                format!("{{\"name\":\"{}\",\"seconds\":{}}}", json_escape(name), json_num(*secs))
            })
            .collect();
        out.push_str(&format!(
            ",\n  \"unix_time\": {},\n  \"threads\": {},\n  \"instructions_per_point\": {},\n  \"workloads\": {},\n  \"total_seconds\": {},\n  \"figures\": [{}],\n  \"simulated_points\": {},\n  \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"loaded\": {}, \"hit_rate\": {}}}",
            r.unix_time,
            r.threads,
            r.instructions_per_point,
            r.workloads,
            json_num(r.total_seconds),
            figures.join(","),
            r.simulated_points,
            r.cache_hits,
            r.cache_misses,
            r.cache_entries,
            r.cache_loaded,
            json_num(r.cache_hit_rate),
        ));
    }
    if let Some(c) = core {
        let points: Vec<String> = c
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"workload\":\"{}\",\"experiment\":\"{}\",\"instructions\":{},\"seconds\":{},\"instr_per_sec\":{},\"cycles_per_sec\":{},\"ipc\":{}}}",
                    json_escape(&p.workload),
                    json_escape(&p.experiment),
                    p.instructions,
                    json_num(p.seconds),
                    json_num(p.instr_per_sec),
                    json_num(p.cycles_per_sec),
                    json_num(p.ipc),
                )
            })
            .collect();
        out.push_str(&format!(
            ",\n  \"core_bench\": {{\n    \"unix_time\": {},\n    \"threads\": {},\n    \"host_cores\": {},\n    \"geomean_instr_per_sec\": {},\n    \"deterministic\": {},\n    \"points\": [{}]\n  }}",
            c.unix_time,
            c.threads,
            c.host_cores,
            json_num(c.geomean_instr_per_sec),
            c.deterministic,
            points.join(","),
        ));
    }
    if let Some(s) = store {
        out.push_str(&format!(
            ",\n  \"store_bench\": {{\n    \"unix_time\": {},\n    \"threads\": {},\n    \"host_cores\": {},\n    \"entries\": {},\n    \"file_bytes\": {},\n    \"segments\": {},\n    \"write_seconds\": {},\n    \"load_seconds\": {},\n    \"load_entries_per_sec\": {}\n  }}",
            s.unix_time,
            s.threads,
            s.host_cores,
            s.entries,
            s.file_bytes,
            s.segments,
            json_num(s.write_seconds),
            json_num(s.load_seconds),
            json_num(s.load_entries_per_sec),
        ));
    }
    out.push_str("\n}\n");
    out
}

fn parse_repro(json: &Json) -> Option<ReproSection> {
    // A repro section is present when the legacy top-level fields are.
    let total_seconds = json.get("total_seconds")?.as_f64().ok()?;
    let cache = json.get("cache")?;
    let figures = match json.get("figures")? {
        Json::Arr(items) => items
            .iter()
            .map(|f| {
                Some((f.get("name")?.as_str().ok()?.to_string(), f.get("seconds")?.as_f64().ok()?))
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(ReproSection {
        unix_time: json.get("unix_time")?.as_u64().ok()?,
        threads: json.get("threads")?.as_u64().ok()?,
        instructions_per_point: json.get("instructions_per_point")?.as_u64().ok()?,
        workloads: json.get("workloads")?.as_u64().ok()?,
        total_seconds,
        figures,
        simulated_points: json.get("simulated_points")?.as_u64().ok()?,
        cache_hits: cache.get("hits")?.as_u64().ok()?,
        cache_misses: cache.get("misses")?.as_u64().ok()?,
        cache_entries: cache.get("entries")?.as_u64().ok()?,
        cache_loaded: cache.get("loaded").and_then(|v| v.as_u64().ok()).unwrap_or(0),
        cache_hit_rate: cache.get("hit_rate")?.as_f64().ok()?,
    })
}

fn parse_core(json: &Json) -> Option<CoreBenchSection> {
    let c = json.get("core_bench")?;
    let points = match c.get("points")? {
        Json::Arr(items) => items
            .iter()
            .map(|p| {
                Some(BenchPoint {
                    workload: p.get("workload")?.as_str().ok()?.to_string(),
                    experiment: p.get("experiment")?.as_str().ok()?.to_string(),
                    instructions: p.get("instructions")?.as_u64().ok()?,
                    seconds: p.get("seconds")?.as_f64().ok()?,
                    instr_per_sec: p.get("instr_per_sec")?.as_f64().ok()?,
                    cycles_per_sec: p.get("cycles_per_sec")?.as_f64().ok()?,
                    ipc: p.get("ipc")?.as_f64().ok()?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(CoreBenchSection {
        unix_time: c.get("unix_time")?.as_u64().ok()?,
        threads: env_u64(c, "threads"),
        host_cores: env_u64(c, "host_cores"),
        geomean_instr_per_sec: c.get("geomean_instr_per_sec")?.as_f64().ok()?,
        deterministic: c.get("deterministic")?.as_f64().ok()? != 0.0,
        points,
    })
}

fn parse_store(json: &Json) -> Option<StoreBenchSection> {
    let s = json.get("store_bench")?;
    Some(StoreBenchSection {
        unix_time: s.get("unix_time")?.as_u64().ok()?,
        threads: env_u64(s, "threads"),
        host_cores: env_u64(s, "host_cores"),
        entries: s.get("entries")?.as_u64().ok()?,
        file_bytes: s.get("file_bytes")?.as_u64().ok()?,
        segments: s.get("segments")?.as_u64().ok()?,
        write_seconds: s.get("write_seconds")?.as_f64().ok()?,
        load_seconds: s.get("load_seconds")?.as_f64().ok()?,
        load_entries_per_sec: s.get("load_entries_per_sec")?.as_f64().ok()?,
    })
}

/// Reads an environment-shaped `u64` field leniently: sections written
/// before the env fields existed simply report `0` (= unknown).
fn env_u64(section: &Json, key: &str) -> u64 {
    section.get(key).and_then(|v| v.as_u64().ok()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repro() -> ReproSection {
        ReproSection {
            unix_time: 42,
            threads: 2,
            instructions_per_point: 1000,
            workloads: 8,
            total_seconds: 1.5,
            figures: vec![("table1".into(), 0.5), ("fig3_fetch".into(), 1.0)],
            simulated_points: 10,
            cache_hits: 3,
            cache_misses: 10,
            cache_entries: 10,
            cache_loaded: 0,
            cache_hit_rate: 3.0 / 13.0,
        }
    }

    fn core() -> CoreBenchSection {
        CoreBenchSection {
            unix_time: 43,
            threads: 1,
            host_cores: 8,
            geomean_instr_per_sec: 5e5,
            deterministic: true,
            points: vec![BenchPoint {
                workload: "go".into(),
                experiment: "BASE".into(),
                instructions: 20_000,
                seconds: 0.04,
                instr_per_sec: 5e5,
                cycles_per_sec: 3.3e5,
                ipc: 1.5,
            }],
        }
    }

    fn store() -> StoreBenchSection {
        StoreBenchSection {
            unix_time: 44,
            threads: 1,
            host_cores: 8,
            entries: 20_000,
            file_bytes: 9_000_000,
            segments: 2,
            write_seconds: 0.8,
            load_seconds: 0.2,
            load_entries_per_sec: 100_000.0,
        }
    }

    #[test]
    fn sections_survive_alternating_updates() {
        let dir = std::env::temp_dir().join(format!("st-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");

        // Repro first, then the two benches: all three sections present
        // afterwards.
        update(&path, Some(&repro()), None, None).expect("write repro");
        update(&path, None, Some(&core()), None).expect("write core");
        update(&path, None, None, Some(&store())).expect("write store");
        let text = std::fs::read_to_string(&path).unwrap();
        let json = Json::parse(&text).expect("valid json");
        let r = parse_repro(&json).expect("repro preserved");
        assert_eq!(r, repro());
        let c = parse_core(&json).expect("core preserved");
        assert_eq!(c, core());
        let s = parse_store(&json).expect("store written");
        assert_eq!(s, store());

        // A later repro refresh keeps the other sections.
        let mut r2 = repro();
        r2.total_seconds = 9.0;
        update(&path, Some(&r2), None, None).expect("update repro");
        let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parse_repro(&json).unwrap().total_seconds, 9.0);
        assert_eq!(parse_core(&json).unwrap(), core(), "core section preserved");
        assert_eq!(parse_store(&json).unwrap(), store(), "store section preserved");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_fields_default_to_zero_on_old_sections() {
        // A core_bench written before threads/host_cores existed still
        // parses; the env fields report 0 (= unknown).
        let old = r#"{
  "bench": "st_repro",
  "core_bench": {
    "unix_time": 43,
    "geomean_instr_per_sec": 500000,
    "deterministic": true,
    "points": []
  }
}"#;
        let json = Json::parse(old).expect("old artifact parses");
        let c = parse_core(&json).expect("core section");
        assert_eq!((c.threads, c.host_cores), (0, 0));
        assert_eq!(c.geomean_instr_per_sec, 500000.0);
    }

    #[test]
    fn reads_legacy_repro_only_files() {
        // The pre-core_bench schema (what seed `st repro` wrote) parses as
        // a repro section with `loaded` defaulting sensibly.
        let legacy = r#"{
  "bench": "st_repro", "unix_time": 1, "threads": 1,
  "instructions_per_point": 200000, "workloads": 8,
  "total_seconds": 132.7,
  "figures": [{"name":"table1","seconds":4.97}],
  "simulated_points": 448,
  "cache": {"hits": 88, "misses": 448, "entries": 448, "hit_rate": 0.164}
}"#;
        let json = Json::parse(legacy).expect("legacy parses");
        let r = parse_repro(&json).expect("repro section");
        assert_eq!(r.simulated_points, 448);
        assert_eq!(r.cache_loaded, 0, "missing `loaded` defaults to 0");
        assert!(parse_core(&json).is_none());
        assert!(parse_store(&json).is_none());
    }

    #[test]
    fn service_section_round_trips_through_its_own_file() {
        let dir = std::env::temp_dir().join(format!("st-artifact-service-{}", std::process::id()));
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
    fn missing_file_is_fine() {
        let dir = std::env::temp_dir().join(format!("st-artifact-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BENCH_sweep.json");
        update(&path, None, Some(&core()), None).expect("write into fresh dir");
        let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(parse_repro(&json).is_none());
        assert!(parse_store(&json).is_none());
        assert_eq!(parse_core(&json).unwrap(), core());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
