//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload from the current directory (the repository root),
//! checks the program's outputs, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. An untraced
//! run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) opens a span around every call the benchmark makes into
//! a layer and reports the per-layer metrics. Every file a run writes
//! lives under `.bench_build/` and the run's scratch directory is
//! removed when it ends.
//!
//! Workloads: `paper-repro` and `gen-population` (see `README.md` beside
//! this crate for why each exists); a traced `gen-population` run also
//! runs the service phase.

mod host;
mod metrics;
mod paper;
mod population;
mod service;
mod sim;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use metrics::{result_line, Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Engine worker threads, as `st` uses on a 2-core host.
pub const THREADS: usize = 2;

/// Where every file of a run goes, relative to the repository root.
const WORK_DIR: &str = ".bench_build";

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 20, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number `{value}`"));
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// SplitMix64's output function: a well-mixed 64-bit hash of `x`.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A run's scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Result<Scratch, String> {
        let dir = Path::new(WORK_DIR)
            .join("perfbench-tmp")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let scratch = Scratch::new(&args.workload)?;
    let tracer = Tracer::new(args.trace);
    let mut outcome: Outcome = match args.workload.as_str() {
        "paper-repro" => paper::run(args, &scratch.0, &tracer)?,
        "gen-population" => population::run(args, &scratch.0, &tracer)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if tracer.enabled() {
        let path = Path::new(WORK_DIR)
            .join("perfbench-traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let layer = &mut outcome.per_layer;
    layer.insert("trace.total_s", outcome.end_to_end.get("total_s").copied().unwrap_or(0.0));
    layer.insert("trace.spans", tracer.spans().len() as f64);
    layer.insert(
        "host.threads",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get) as f64,
    );
    // A layer the workload does not exercise reports 0.
    for (name, _) in PER_LAYER {
        layer.entry(name).or_insert(0.0);
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let (table, values) = if args.trace {
        (&PER_LAYER[..], &outcome.per_layer)
    } else {
        (&END_TO_END[..], &outcome.end_to_end)
    };
    result_line(outcome.failed == 0, outcome.attempted, outcome.failed, table, values)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(service::CHILD_ROLE) {
        std::process::exit(service::serve_child(&argv[1..]));
    }
    let code = match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// `job.*`: times `JobSpec::fingerprint` over `jobs` (traced runs only).
pub fn fingerprint_metrics<'a>(
    jobs: impl Iterator<Item = &'a st_sweep::JobSpec>,
    tracer: &Tracer,
    layer: &mut metrics::Values,
) {
    let mut us = Vec::new();
    if tracer.enabled() {
        for job in jobs {
            let (fp, secs) = tracer.span("job.fingerprint", None, None, |_| job.fingerprint());
            std::hint::black_box(fp);
            us.push(secs * 1e6);
        }
    }
    layer.insert("job.fingerprint_us_p50", stats::median(&us).unwrap_or(0.0));
    layer.insert("job.fingerprints", us.len() as f64);
}

/// `store.*` after a run: sizes the stores under `dirs` (every one
/// started empty, so all of it was written by the run) and, traced,
/// reopens each as the next command over it would, timing the open.
pub fn store_metrics(dirs: &[PathBuf], tracer: &Tracer, layer: &mut metrics::Values) {
    let bytes: u64 = dirs.iter().map(|d| host::store_bytes(d)).sum();
    let (mut entries, mut open_s) = (0u64, 0.0);
    if tracer.enabled() {
        for dir in dirs {
            let (engine, secs) = tracer.span("store.open", None, None, |_| {
                st_sweep::SweepEngine::with_result_store(THREADS, dir)
            });
            entries += engine.stats().loaded;
            open_s += secs;
        }
    }
    layer.insert("store.open_s", open_s);
    layer.insert("store.entries", entries as f64);
    layer.insert("store.bytes", bytes as f64);
    layer.insert("store.bytes_written", bytes as f64);
}
