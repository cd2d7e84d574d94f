//! `st` — the unified sweep CLI.
//!
//! ```text
//! st repro [--threads N] [--instr N] [--out DIR] [--no-cache]
//!     Regenerates every paper figure/table: the union of their grids
//!     runs as one parallel, cached engine batch, then each figure
//!     prints its tables and writes its CSVs from its slice of the
//!     results.
//!
//! st run <spec.toml|spec.json> [--threads N] [--instr N] [--out DIR]
//!        [--set axis=v1,v2]... [--no-cache] [--shard I/N]
//!     Executes a declarative sweep grid; emits JSONL + CSV results
//!     (tagged with each point's axis bindings) and baseline comparisons.
//!     With --shard I/N it executes only shard I of a deterministic
//!     N-way fingerprint partition on --threads worker threads and
//!     writes a self-describing <out>/<name>.shard-I.jsonl for
//!     `st merge` (the mode external launchers like xargs or SLURM
//!     array jobs invoke, one process per shard).
//!
//! st merge <shard.jsonl>... [--out DIR]
//!     Unions shard files back into the canonical sweep JSONL + CSV —
//!     byte-identical to a single-process `st run` — verifying coverage
//!     (no gaps), bit-identical overlaps and per-record integrity.
//!
//! st serve [--addr HOST:PORT] [--out DIR] [--threads N] [--no-cache]
//!          [--max-bytes N]
//! st serve --fleet W1:PORT,W2:PORT,... [--addr HOST:PORT]
//!          [--max-inflight N] [--worker-timeout SECS]
//! st serve stop [--addr HOST:PORT]
//!     Runs the long-lived sweep service: accepts specs over POST
//!     /submit, serves every point cache-first from one shared engine
//!     (result-store write-through), and streams back the canonical
//!     tagged JSONL records. With --max-bytes N the service evicts
//!     least-recently-used entries after each submission to keep the
//!     store under N bytes. With --fleet it is a *coordinator* instead:
//!     each submission is partitioned by fingerprint range across the
//!     listed remote `st serve` workers, the returned streams are
//!     verified and merged byte-identically to a local run, dead
//!     workers' unfinished ranges fail over to survivors, and
//!     --max-inflight submissions stream concurrently
//!     (the next one gets a structured 429). `st serve stop` asks a
//!     running service or coordinator to shut down gracefully (SIGINT
//!     does the same in-process).
//!
//! st submit <spec.toml|spec.json> [--addr HOST:PORT] [--priority N]
//!     Submits a spec file to a running service and pipes the streamed
//!     JSONL to stdout — byte-identical to a local `st run` of the same
//!     spec (diagnostics go to stderr, so redirection stays clean).
//!     --priority orders the fleet coordinator's dispatch queue (higher
//!     first, FIFO within a class; plain servers ignore it).
//!
//! st loadgen <spec.toml|spec.json> [--addr HOST:PORT] [--clients N]
//!            [--submissions M] [--priority N] [--smoke]
//!            [--bench-json PATH]
//!     Replays M concurrent submissions of the spec through N client
//!     threads against a running service or fleet and reports throughput
//!     and p50/p90/p99 latency; --bench-json PATH records them in a
//!     BENCH_service.json-format file.
//!     Failures (backpressure, truncation) are counted, never retried.
//!
//! st status [--addr HOST:PORT]
//!     Prints the service's GET /status counters (cache size, in-flight
//!     points, served/simulated totals) as one line of JSON.
//!
//! st bench [--smoke] [--instr N] [--store]
//!     Measures steady-state simulated instructions/sec of the core hot
//!     loop per workload × experiment and verifies determinism (fresh
//!     rerun + result-store round-trip). Exits non-zero if determinism
//!     breaks. With --store it instead times the segment-log result
//!     store (bulk append + cold load of 1M synthetic entries; 20k with
//!     --smoke).
//!
//! st plot <jsonl> --x <key> --y <metric>
//!     Renders a cached sweep JSONL as ASCII bar charts (one per
//!     experiment), e.g. --x axis.ruu_size --y ipc.
//!
//! st audit <jsonl|spec.toml|spec.json> [--min-confidence L]
//!          [--format table|jsonl] [--allow FILE]
//!     Runs the deterministic findings engine over a sweep: IPC cliffs
//!     along any bound axis, energy-delay regressions vs the BASE
//!     experiment, non-monotonic axis responses, implausible metrics
//!     and stale-baseline drift. Given a spec it (re)runs the grid
//!     cache-first and cross-checks every record against the expanded
//!     grid; given a JSONL it audits the records as-is. Findings are
//!     byte-deterministic; known ones are suppressed by fingerprint via
//!     --allow. Exits 0 when nothing (unsuppressed) is found, 4 when
//!     findings remain — the CI gate.
//!
//! st calibrate [--seeds N] [--family NAME] [--csv PATH]
//!     Probes every generative workload family (gen:<family>:<seed>)
//!     across a seed range and reports each derived member's realized
//!     gshare miss rate against the family target. Exits 4 when any
//!     member lands outside its family tolerance — the generative
//!     suite's CI gate; --csv writes the table for the CI artifact.
//!
//! st list [workloads|experiments|figures|axes]
//!     Shows what the other subcommands can reference.
//!
//! st cache [show|stats|compact|clear] [--out DIR]
//! st cache evict --max-bytes N [--out DIR]
//!     Manages the result store (<out>/.store). `show` (the default)
//!     lists what is warm; `stats` prints live/dead byte counters;
//!     `compact` rewrites the segment log dropping dead bytes; `evict`
//!     drops least-recently-used entries until the store fits
//!     --max-bytes; `clear` removes every stored result.
//! ```
//!
//! `repro` and `run` keep a persistent result store under the output
//! directory by default: the append-only segment log at `<out>/.store`.
//! Entries load on start and every fresh simulation writes through as
//! soon as it finishes, so repeated invocations, CI runs and reruns of
//! a killed run reuse points across processes.
//! `--no-cache` opts a run out entirely. Only `st loadgen` writes a
//! timing file, and only when given `--bench-json PATH`.

use std::io::{self, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use st_sweep::bench::BenchConfig;
use st_sweep::emit::{sweep_jsonl_with_pairing, sweep_table, write_text};
use st_sweep::figures::{self, FigureCtx, FIGURES};
use st_sweep::fleet::{FleetConfig, FleetServer};
use st_sweep::loadgen::{self, LoadgenConfig};
use st_sweep::service::{self, ServiceConfig};
use st_sweep::{
    all_experiments, audit, axes, client, shard, AxisValue, LogStore, SweepEngine, SweepSpec,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("repro") => cmd_repro(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("plot") => cmd_plot(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("calibrate") => to_stdout(|out| cmd_calibrate(&args[1..], out)),
        Some("list") => to_stdout(|out| cmd_list(&args[1..], out)),
        Some("cache") => cmd_cache(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            to_stdout(|out| out.write_all(USAGE.as_bytes()).map(|()| 0))
        }
        Some(other) => {
            eprintln!("st: unknown subcommand `{other}`\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs a command that writes its report to `out`, stdout. A reader that
/// closes the pipe early (`st list | head -2`) ends the command quietly
/// with exit 0. SIGPIPE stays ignored, as Rust starts every program, so
/// `serve`, `submit`, `status`, `loadgen` and the fleet get `EPIPE` from a
/// peer that hangs up instead of being killed.
fn to_stdout(cmd: impl FnOnce(&mut dyn Write) -> io::Result<i32>) -> i32 {
    let mut out = io::stdout();
    match cmd(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("st: writing to stdout: {e}");
            1
        }
    }
}

const USAGE: &str = "\
st — parallel, cache-aware sweeps over the Selective Throttling simulator

USAGE:
    st repro [--threads N] [--instr N] [--out DIR] [--no-cache]
    st run <spec.toml|spec.json> [--threads N] [--instr N] [--out DIR]
           [--set axis=v1,v2]... [--no-cache] [--shard I/N]
    st merge <shard.jsonl>... [--out DIR]
    st serve [stop] [--addr HOST:PORT] [--out DIR] [--threads N] [--no-cache]
             [--max-bytes N]
    st serve --fleet W1:P,W2:P,... [--addr HOST:PORT] [--max-inflight N]
             [--worker-timeout SECS]
    st submit <spec.toml|spec.json> [--addr HOST:PORT] [--priority N]
    st status [--addr HOST:PORT]
    st loadgen <spec.toml|spec.json> [--addr HOST:PORT] [--clients N]
             [--submissions M] [--priority N] [--smoke] [--bench-json PATH]
    st bench [--smoke] [--instr N] [--store]
    st plot <jsonl> --x <key> --y <metric>
    st audit <jsonl|spec.toml|spec.json> [--threads N] [--out DIR] [--no-cache]
             [--min-confidence low|medium|high] [--format table|jsonl]
             [--allow FILE]
    st calibrate [--seeds N] [--family NAME] [--csv PATH]
    st list [workloads|experiments|figures|axes]
    st cache [show|stats|compact|clear] [--out DIR]
    st cache evict --max-bytes N [--out DIR]

OPTIONS:
    --threads N      worker threads (default: all hardware threads;
                     results are bit-identical for any value)
    --instr N        instructions per simulation point: `repro` (default
                     200000); `run` (shorthand for --set instructions=N);
                     `bench` (measured instructions per point, 200000;
                     20000 with --smoke)
    --set a=v1,v2    bind sweep axis `a` to the given values (repeatable;
                     overrides the spec — see `st list axes`)
    --out DIR        output directory (default: results/)
    --no-cache       skip the persistent result store under <out>
    --max-bytes N    `cache evict`/`serve`: keep the result store under
                     N bytes by evicting least-recently-used entries
                     (underscores allowed, e.g. 64_000_000)
    --shard I/N      `run`: execute only shard I (0-based) of an N-way
                     fingerprint partition, writing <out>/<name>.shard-I.jsonl
                     for `st merge` instead of the normal outputs
    --addr H:P       `serve`/`submit`/`status`/`loadgen`: the sweep
                     service address (default 127.0.0.1:7077; `serve
                     --addr H:0` binds an ephemeral port and prints it)
    --fleet W,...    `serve`: coordinate the listed remote `st serve`
                     workers instead of simulating locally (engine flags
                     like --threads/--out do not apply)
    --max-inflight N `serve --fleet`: concurrently streaming submissions
                     admitted before replying 429 (default 8)
    --worker-timeout SECS
                     `serve --fleet`: per-record patience before a
                     silent worker is declared dead and its unfinished
                     range fails over (default 120)
    --priority N     `submit`/`loadgen`: dispatch priority on a fleet
                     coordinator (higher first; plain servers ignore it)
    --clients N      `loadgen`: concurrent client threads (default 8;
                     2 with --smoke)
    --submissions M  `loadgen`: total submissions across all clients
                     (default 32; 4 with --smoke)
    --bench-json P   `loadgen`: record throughput and latency in file P,
                     in the BENCH_service.json format; without it no
                     timing file is written
    --smoke          `bench`/`loadgen`: small budgets for CI (`bench`
                     still runs the determinism probe)
    --store          `bench`: time the segment-log result store (bulk
                     append + cold load) instead of the core hot loop
    --x KEY          `plot`: x-axis record key (e.g. axis.ruu_size)
    --y KEY          `plot`: y-axis metric (e.g. ipc, speedup, energy_j)
    --min-confidence L
                     `audit`: drop findings below Low|Medium|High
                     (default low: everything)
    --format F       `audit`: findings as a table (default) or as JSONL
                     on stdout (the byte-deterministic document)
    --allow FILE     `audit`: suppress findings whose 16-hex-digit
                     fingerprint is listed (one per line, # comments)
    --seeds N        `calibrate`: seeds probed per generative family
                     (default 8; families x seeds is capped like a
                     spec's grid)
    --family NAME    `calibrate`: probe only the named family
    --csv PATH       `calibrate`: also write the table as CSV (the CI
                     calibration artifact)

`st audit` exits 0 when no unsuppressed finding remains, 4 when findings
remain (the CI gate), 1 on errors and 2 on usage mistakes. `st calibrate`
exits 0 when every probed member lands within its family's declared
miss-rate tolerance and 4 otherwise.
";

/// Options shared by `repro`, `run` and `cache`.
struct CommonOpts {
    threads: usize,
    instr: Option<u64>,
    out: Option<PathBuf>,
    /// `--bench-json`: only `loadgen` accepts it.
    bench_json: Option<PathBuf>,
    /// `--set axis=v1,v2` overrides, in order; only `run` accepts them.
    sets: Vec<String>,
    /// `--no-cache`: skip the persistent result cache.
    no_cache: bool,
    /// `--shard i/n`: only `run` accepts it.
    shard: Option<(usize, usize)>,
    /// `--smoke`: only `bench` accepts it.
    smoke: bool,
    /// `--addr`: only `serve`/`submit`/`status` accept it.
    addr: Option<String>,
    /// `--x` / `--y`: only `plot` accepts them.
    x: Option<String>,
    y: Option<String>,
    /// `--max-bytes`: only `cache evict` and `serve` accept it.
    max_bytes: Option<u64>,
    /// `--store`: only `bench` accepts it.
    store: bool,
    /// `--fleet w1,w2,...`: only `serve` accepts it.
    fleet: Option<String>,
    /// `--max-inflight`: only `serve --fleet` accepts it.
    max_inflight: Option<usize>,
    /// `--worker-timeout` seconds: only `serve --fleet` accepts it.
    worker_timeout: Option<u64>,
    /// `--priority`: only `submit` and `loadgen` accept it.
    priority: Option<u32>,
    /// `--clients`: only `loadgen` accepts it.
    clients: Option<usize>,
    /// `--submissions`: only `loadgen` accepts it.
    submissions: Option<usize>,
    /// `--min-confidence`: only `audit` accepts it.
    min_confidence: Option<String>,
    /// `--format`: only `audit` accepts it.
    format: Option<String>,
    /// `--allow`: only `audit` accepts it.
    allow: Option<PathBuf>,
    /// Non-flag positionals, in order.
    positional: Vec<String>,
}

impl CommonOpts {
    /// The output directory (default `results/`).
    fn out_dir(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(|| PathBuf::from("results"))
    }

    /// An engine honouring `--threads` and `--no-cache`, over the result
    /// store under the output directory.
    fn engine(&self) -> SweepEngine {
        if self.no_cache {
            SweepEngine::new(self.threads)
        } else {
            SweepEngine::with_result_store(self.threads, self.out_dir())
        }
    }

    /// The sweep-service address (default `127.0.0.1:7077`).
    fn service_addr(&self) -> String {
        self.addr.clone().unwrap_or_else(|| "127.0.0.1:7077".to_string())
    }

    /// Whether any fleet flag (`--fleet`, `--max-inflight`,
    /// `--worker-timeout`) was given; only `serve` accepts them.
    fn fleet_flags(&self) -> bool {
        self.fleet.is_some() || self.max_inflight.is_some() || self.worker_timeout.is_some()
    }

    /// Whether any flag owned by the service tier (`serve --fleet`,
    /// `submit --priority`, `loadgen`) was given; every offline
    /// subcommand rejects them in one breath.
    fn service_tier_flags(&self) -> bool {
        self.fleet_flags()
            || self.priority.is_some()
            || self.clients.is_some()
            || self.submissions.is_some()
    }

    /// Whether any audit flag (`--min-confidence`, `--format`,
    /// `--allow`) was given; only `audit` accepts them.
    fn audit_flags(&self) -> bool {
        self.min_confidence.is_some() || self.format.is_some() || self.allow.is_some()
    }
}

fn parse_common(args: &[String]) -> Result<CommonOpts, String> {
    let mut opts = CommonOpts {
        threads: 0,
        instr: None,
        out: None,
        bench_json: None,
        sets: Vec::new(),
        no_cache: false,
        shard: None,
        smoke: false,
        addr: None,
        x: None,
        y: None,
        max_bytes: None,
        store: false,
        fleet: None,
        max_inflight: None,
        worker_timeout: None,
        priority: None,
        clients: None,
        submissions: None,
        min_confidence: None,
        format: None,
        allow: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--threads" => {
                opts.threads = value_for("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects an integer".to_string())?;
            }
            "--instr" => {
                opts.instr = Some(
                    value_for("--instr")?
                        .replace('_', "")
                        .parse()
                        .map_err(|_| "--instr expects an integer".to_string())?,
                );
            }
            "--set" => opts.sets.push(value_for("--set")?),
            "--out" => opts.out = Some(PathBuf::from(value_for("--out")?)),
            "--no-cache" => opts.no_cache = true,
            "--shard" => {
                opts.shard = Some(shard::parse_shard_arg(&value_for("--shard")?).map_err(|e| e.0)?);
            }
            "--smoke" => opts.smoke = true,
            "--addr" => opts.addr = Some(value_for("--addr")?),
            "--x" => opts.x = Some(value_for("--x")?),
            "--y" => opts.y = Some(value_for("--y")?),
            "--max-bytes" => {
                opts.max_bytes = Some(
                    value_for("--max-bytes")?
                        .replace('_', "")
                        .parse()
                        .map_err(|_| "--max-bytes expects an integer".to_string())?,
                );
            }
            "--store" => opts.store = true,
            "--fleet" => opts.fleet = Some(value_for("--fleet")?),
            "--max-inflight" => {
                opts.max_inflight = Some(
                    value_for("--max-inflight")?
                        .parse()
                        .map_err(|_| "--max-inflight expects an integer".to_string())?,
                );
            }
            "--worker-timeout" => {
                opts.worker_timeout = Some(
                    value_for("--worker-timeout")?
                        .parse()
                        .map_err(|_| "--worker-timeout expects whole seconds".to_string())?,
                );
            }
            "--priority" => {
                opts.priority = Some(
                    value_for("--priority")?
                        .parse()
                        .map_err(|_| "--priority expects an unsigned integer".to_string())?,
                );
            }
            "--clients" => {
                opts.clients = Some(
                    value_for("--clients")?
                        .parse()
                        .map_err(|_| "--clients expects an integer".to_string())?,
                );
            }
            "--submissions" => {
                opts.submissions = Some(
                    value_for("--submissions")?
                        .parse()
                        .map_err(|_| "--submissions expects an integer".to_string())?,
                );
            }
            "--min-confidence" => opts.min_confidence = Some(value_for("--min-confidence")?),
            "--format" => opts.format = Some(value_for("--format")?),
            "--allow" => opts.allow = Some(PathBuf::from(value_for("--allow")?)),
            "--bench-json" => opts.bench_json = Some(PathBuf::from(value_for("--bench-json")?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            positional => opts.positional.push(positional.to_string()),
        }
    }
    Ok(opts)
}

/// Parses one `--set axis=v1,v2` override into a typed binding.
fn parse_set(arg: &str) -> Result<(String, Vec<AxisValue>), String> {
    let Some((name, values)) = arg.split_once('=') else {
        return Err(format!("--set expects `axis=v1,v2`, got `{arg}`"));
    };
    let name = name.trim();
    let axis = axes::axis(name).ok_or_else(|| axes::unknown_axis_error(name).to_string())?;
    let mut out: Vec<AxisValue> = Vec::new();
    for token in values.split(',') {
        // Each comma-separated token is a number or, on integer axes, a
        // `lo..hi` / `lo..=hi` range (`--set workload_seed=0..1000`).
        out.extend(axis.values_from_token(token).map_err(|e| format!("--set {e}"))?);
    }
    Ok((name.to_string(), out))
}

/// Checks the `--instr N` budget `st repro` or `st bench` will run at
/// against the `instructions` axis domain, the rule `st run` applies
/// through its spec, before any work starts. The error names the value
/// and the domain.
fn check_instr_budget(instr: Option<u64>) -> Result<(), String> {
    let axis = axes::axis("instructions").expect("instructions is a registered axis");
    match instr {
        Some(n) if axis.validate(&AxisValue::Int(n)).is_err() => {
            Err(format!("--instr={n} is not in the instructions domain {}", axis.domain.describe()))
        }
        _ => Ok(()),
    }
}

fn cmd_repro(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st repro: {e}\n{USAGE}");
            return 2;
        }
    };
    if let [unexpected, ..] = opts.positional.as_slice() {
        eprintln!("st repro: unexpected argument `{unexpected}`\n{USAGE}");
        return 2;
    }
    if !opts.sets.is_empty() {
        eprintln!("st repro: --set only applies to `st run`\n{USAGE}");
        return 2;
    }
    if opts.bench_json.is_some() {
        eprintln!("st repro: --bench-json only applies to `st loadgen`\n{USAGE}");
        return 2;
    }
    if opts.smoke
        || opts.x.is_some()
        || opts.y.is_some()
        || opts.shard.is_some()
        || opts.addr.is_some()
        || opts.max_bytes.is_some()
        || opts.store
        || opts.service_tier_flags()
        || opts.audit_flags()
    {
        eprintln!(
            "st repro: --smoke/--x/--y/--shard/--store and the service/fleet/audit flags apply \
             elsewhere\n{USAGE}"
        );
        return 2;
    }
    if let Err(e) = check_instr_budget(opts.instr) {
        eprintln!("st repro: {e}\n{USAGE}");
        return 2;
    }
    let engine = opts.engine();
    let mut ctx = FigureCtx::from_env(&engine);
    ctx.out_dir = opts.out_dir();
    if let Some(n) = opts.instr {
        ctx.instructions = n;
    }
    println!(
        "st repro: {} figures, {} workloads x {} instructions, {} worker threads",
        FIGURES.len(),
        ctx.workloads.len(),
        ctx.instructions,
        engine.threads()
    );
    match engine.result_store() {
        Some(store) => println!(
            "st repro: result store at {} ({} entries loaded)\n",
            store.dir().display(),
            engine.stats().loaded
        ),
        None => println!("st repro: result store disabled (--no-cache)\n"),
    }

    let start = Instant::now();
    figures::run_all(&ctx);
    let total = start.elapsed().as_secs_f64();

    let stats = engine.stats();
    println!("==================================================================");
    println!("st repro complete in {total:.2}s; CSVs in {}/", ctx.out_dir.display());
    println!(
        "  cache: {} distinct points simulated, {} loaded from disk, {} hits / {} misses ({:.1}% hit rate)",
        stats.simulated,
        stats.loaded,
        stats.cache.hits,
        stats.cache.misses,
        100.0 * stats.cache.hit_rate()
    );
    0
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn cmd_bench(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st bench: {e}\n{USAGE}");
            return 2;
        }
    };
    if let [unexpected, ..] = opts.positional.as_slice() {
        eprintln!("st bench: unexpected argument `{unexpected}`\n{USAGE}");
        return 2;
    }
    if opts.bench_json.is_some() {
        eprintln!("st bench: --bench-json only applies to `st loadgen`\n{USAGE}");
        return 2;
    }
    if !opts.sets.is_empty()
        || opts.x.is_some()
        || opts.y.is_some()
        || opts.threads != 0
        || opts.out.is_some()
        || opts.no_cache
        || opts.shard.is_some()
        || opts.addr.is_some()
        || opts.max_bytes.is_some()
        || opts.service_tier_flags()
        || opts.audit_flags()
    {
        eprintln!("st bench: only --smoke, --instr and --store apply\n{USAGE}");
        return 2;
    }
    if opts.store {
        if opts.instr.is_some() {
            eprintln!("st bench: --instr does not apply to `st bench --store`\n{USAGE}");
            return 2;
        }
        return cmd_bench_store(opts.smoke);
    }
    if let Err(e) = check_instr_budget(opts.instr) {
        eprintln!("st bench: {e}\n{USAGE}");
        return 2;
    }
    let mut config = if opts.smoke { BenchConfig::smoke() } else { BenchConfig::full() };
    if let Some(n) = opts.instr {
        config = config.with_measure(n);
    }
    println!(
        "st bench: {} workloads x {} experiments, {} + {} instructions (warm-up + measured)",
        config.workloads.len(),
        config.experiments.len(),
        config.warmup,
        config.measure
    );
    let result = match st_sweep::bench::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("st bench: {e}");
            return 1;
        }
    };
    let mut table = st_report::Table::new(vec![
        "workload".to_string(),
        "experiment".to_string(),
        "instr/s".to_string(),
        "cycles/s".to_string(),
        "ipc".to_string(),
        "seconds".to_string(),
    ])
    .with_title("steady-state core throughput");
    for p in &result.points {
        table.row(vec![
            p.workload.clone(),
            p.experiment.clone(),
            format!("{:.0}", p.instr_per_sec),
            format!("{:.0}", p.cycles_per_sec),
            format!("{:.3}", p.ipc),
            format!("{:.3}", p.seconds),
        ]);
    }
    println!("{}", table.render());
    println!(
        "st bench: geomean {:.0} simulated instructions/s over {} points ({:.2}s measured)",
        result.geomean_instr_per_sec,
        result.points.len(),
        result.total_seconds
    );
    if let Some(err) = &result.determinism_error {
        eprintln!("st bench: DETERMINISM FAILURE: {err}");
        return 1;
    }
    println!("st bench: determinism probe passed (fresh rerun + cache round-trip bit-identical)");
    0
}

/// `st bench --store`: times the segment-log result store itself — bulk
/// append of N synthetic entries (20k with `--smoke`, else 1M) followed
/// by a cold reopen (the one sequential startup pass).
fn cmd_bench_store(smoke: bool) -> i32 {
    let entries: u64 = if smoke { 20_000 } else { 1_000_000 };
    println!(
        "st bench --store: {entries} synthetic entries (bulk append, then one cold \
         sequential load)"
    );
    let result = match st_sweep::bench::run_store_bench(entries) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("st bench: {e}");
            return 1;
        }
    };
    println!(
        "st bench --store: appended {} entries ({} MiB across {} segments) in {:.2}s \
         ({:.0} entries/s)",
        result.entries,
        result.file_bytes / (1024 * 1024),
        result.segments,
        result.write_seconds,
        result.entries as f64 / result.write_seconds.max(1e-9)
    );
    println!(
        "st bench --store: cold load (one sequential pass) in {:.2}s ({:.0} entries/s)",
        result.load_seconds,
        result.entries as f64 / result.load_seconds.max(1e-9)
    );
    0
}

fn cmd_plot(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st plot: {e}\n{USAGE}");
            return 2;
        }
    };
    if !opts.sets.is_empty()
        || opts.threads != 0
        || opts.instr.is_some()
        || opts.out.is_some()
        || opts.no_cache
        || opts.smoke
        || opts.bench_json.is_some()
        || opts.shard.is_some()
        || opts.addr.is_some()
        || opts.max_bytes.is_some()
        || opts.store
        || opts.service_tier_flags()
        || opts.audit_flags()
    {
        eprintln!("st plot: only --x and --y apply\n{USAGE}");
        return 2;
    }
    let [path] = opts.positional.as_slice() else {
        eprintln!("st plot: expected exactly one JSONL file\n{USAGE}");
        return 2;
    };
    let (Some(x), Some(y)) = (&opts.x, &opts.y) else {
        eprintln!("st plot: --x and --y are required (e.g. --x axis.ruu_size --y ipc)\n{USAGE}");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("st plot: cannot read {path}: {e}");
            return 1;
        }
    };
    match st_sweep::plot::render(&text, x, y) {
        Ok(charts) => {
            print!("{charts}");
            0
        }
        Err(e) => {
            eprintln!("st plot: {e}");
            1
        }
    }
}

/// `st audit`: the deterministic findings engine. Accepts either a
/// sweep JSONL (audits the records as-is) or a spec file ((re)runs the
/// grid cache-first — identical to `st run` — and adds the grid
/// cross-checks). Findings go to stdout; diagnostics and the summary go
/// to stderr; the exit code is the CI gate (0 clean, 4 findings remain).
fn cmd_audit(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st audit: {e}\n{USAGE}");
            return 2;
        }
    };
    if !opts.sets.is_empty()
        || opts.instr.is_some()
        || opts.smoke
        || opts.bench_json.is_some()
        || opts.x.is_some()
        || opts.y.is_some()
        || opts.shard.is_some()
        || opts.addr.is_some()
        || opts.max_bytes.is_some()
        || opts.store
        || opts.service_tier_flags()
    {
        eprintln!(
            "st audit: only --threads, --out, --no-cache, --min-confidence, --format and \
             --allow apply\n{USAGE}"
        );
        return 2;
    }
    let [path] = opts.positional.as_slice() else {
        eprintln!("st audit: expected exactly one sweep JSONL or spec file\n{USAGE}");
        return 2;
    };
    let min_confidence = match opts.min_confidence.as_deref().map(audit::Confidence::parse) {
        None => audit::Confidence::Low,
        Some(Ok(c)) => c,
        Some(Err(e)) => {
            eprintln!("st audit: --min-confidence: {e}\n{USAGE}");
            return 2;
        }
    };
    let jsonl_format = match opts.format.as_deref() {
        None | Some("table") => false,
        Some("jsonl") => true,
        Some(other) => {
            eprintln!("st audit: --format expects `table` or `jsonl`, got `{other}`\n{USAGE}");
            return 2;
        }
    };
    let allow = match &opts.allow {
        None => audit::Allowlist::default(),
        Some(allow_path) => {
            let text = match std::fs::read_to_string(allow_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("st audit: cannot read {}: {e}", allow_path.display());
                    return 1;
                }
            };
            match audit::Allowlist::parse(&text) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("st audit: {}: {e}", allow_path.display());
                    return 1;
                }
            }
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("st audit: cannot read {path}: {e}");
            return 1;
        }
    };

    let (records, findings) = if audit::looks_like_records(&text) {
        // JSONL mode: audit the records exactly as the sweep left them.
        let records = match audit::parse_records(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("st audit: {path}: {e}");
                return 1;
            }
        };
        let findings = audit::audit(&records);
        (records, findings)
    } else {
        // Spec mode: (re)run the grid cache-first — byte-identical to
        // `st run` — then audit the emitted records against the grid.
        let spec = match SweepSpec::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("st audit: {e}");
                return 1;
            }
        };
        let points = match spec.points() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("st audit: {e}");
                return 1;
            }
        };
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let engine = opts.engine();
        eprintln!(
            "st audit: sweep `{}`, {} points, {} worker threads",
            spec.name,
            points.len(),
            engine.threads()
        );
        let reports = engine.run(&jobs);
        let jsonl = st_sweep::emit::sweep_jsonl(&points, &reports);
        let records = match audit::parse_records(&jsonl) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("st audit: internal: emitted sweep does not parse: {e}");
                return 1;
            }
        };
        let findings = audit::audit_with_grid(&records, &points);
        (records, findings)
    };

    let total = findings.len();
    let outcome = audit::apply_filters(findings, min_confidence, &allow);
    if jsonl_format {
        print!("{}", audit::findings_jsonl(&outcome.kept));
    } else if !outcome.kept.is_empty() {
        println!("{}", audit::findings_table(&outcome.kept).render());
    }
    eprintln!(
        "st audit: {} records, {} finding(s): {} kept, {} suppressed by allow file, \
         {} below --min-confidence",
        records.len(),
        total,
        outcome.kept.len(),
        outcome.suppressed,
        outcome.below_threshold,
    );
    if outcome.kept.is_empty() {
        0
    } else {
        4
    }
}

/// Loads the spec file named by the single positional argument and
/// applies the `--instr` and `--set` overrides. Errors are printed; the
/// returned code is the process exit code.
fn load_spec(cmd: &str, opts: &CommonOpts) -> Result<SweepSpec, i32> {
    let [path] = opts.positional.as_slice() else {
        eprintln!("st {cmd}: expected exactly one spec file\n{USAGE}");
        return Err(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("st {cmd}: cannot read {path}: {e}");
            return Err(1);
        }
    };
    let fail = |e: &dyn std::fmt::Display| {
        eprintln!("st {cmd}: {e}");
        Err(1)
    };
    let mut spec = match SweepSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    if let Some(n) = opts.instr {
        if let Err(e) = spec.set_axis("instructions", vec![AxisValue::Int(n)]) {
            return fail(&e);
        }
    }
    for set in &opts.sets {
        let (name, values) = match parse_set(set) {
            Ok(parsed) => parsed,
            Err(e) => return fail(&e),
        };
        if let Err(e) = spec.set_axis(&name, values) {
            return fail(&e);
        }
    }
    Ok(spec)
}

fn cmd_run(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st run: {e}\n{USAGE}");
            return 2;
        }
    };
    if opts.bench_json.is_some() {
        eprintln!("st run: --bench-json only applies to `st loadgen`\n{USAGE}");
        return 2;
    }
    if opts.smoke
        || opts.x.is_some()
        || opts.y.is_some()
        || opts.addr.is_some()
        || opts.max_bytes.is_some()
        || opts.store
        || opts.service_tier_flags()
        || opts.audit_flags()
    {
        eprintln!(
            "st run: --smoke/--x/--y/--store and the service/fleet/audit flags apply to `st \
             bench`/`st plot`/`st serve`/`st cache`/`st loadgen`/`st audit`\n{USAGE}"
        );
        return 2;
    }
    let spec = match load_spec("run", &opts) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let points = match spec.points() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("st run: {e}");
            return 1;
        }
    };
    if let Some((index, of)) = opts.shard {
        return run_one_shard(&opts, &spec, &points, index, of);
    }
    let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
    let engine = opts.engine();
    let bound: Vec<String> = points
        .first()
        .map(|p| p.bindings.iter().map(|(n, _)| (*n).to_string()).collect())
        .unwrap_or_default();
    println!(
        "st run: sweep `{}`, {} points x {} instructions, {} worker threads{}",
        spec.name,
        points.len(),
        spec.instructions_label(),
        engine.threads(),
        if bound.is_empty() {
            String::new()
        } else {
            format!("\nst run: axes {}", bound.join(" x "))
        }
    );
    let start = Instant::now();
    let reports = engine.run(&jobs);
    let stats = engine.stats();
    println!(
        "st run: complete in {:.2}s ({} simulated, {} loaded from disk, {:.1}% cache hit rate)\n",
        start.elapsed().as_secs_f64(),
        stats.simulated,
        stats.loaded,
        100.0 * stats.cache.hit_rate()
    );

    // Emit raw results, tagged with each point's axis bindings; the JSONL
    // document (reports + baseline comparisons) comes from the shared
    // builder the golden tests fingerprint.
    let out_dir = opts.out_dir();
    let pairing = st_sweep::emit::baseline_pairing(&points);
    let jsonl = sweep_jsonl_with_pairing(&points, &reports, &pairing);
    let table = sweep_table(&spec.name, &points, &reports);
    println!("{}", table.render());

    // Pair every variant with its same-configuration baseline (the same
    // pairing the JSONL emitter used — one recipe, one source of truth).
    let mut cmp_headers = vec!["workload".to_string(), "experiment".to_string()];
    cmp_headers.extend(bound.iter().map(|n| format!("axis.{n}")));
    cmp_headers.extend(["speedup", "power %", "energy %", "E-D %"].map(String::from));
    let mut cmp_table =
        st_report::Table::new(cmp_headers).with_title(format!("sweep `{}` vs baseline", spec.name));
    for ((point, report), baseline) in points.iter().zip(&reports).zip(&pairing) {
        let Some(bi) = *baseline else { continue };
        let cmp = st_core::compare(&reports[bi], report);
        let mut cells = vec![report.workload.clone(), report.experiment.clone()];
        cells.extend(point.bindings.iter().map(|(_, v)| v.canonical()));
        cells.extend([
            format!("{:.3}", cmp.speedup),
            format!("{:+.1}", cmp.power_savings_pct),
            format!("{:+.1}", cmp.energy_savings_pct),
            format!("{:+.1}", cmp.ed_improvement_pct),
        ]);
        cmp_table.row(cells);
    }
    if !cmp_table.is_empty() {
        println!("{}", cmp_table.render());
    }

    let jsonl_path = out_dir.join(format!("{}.jsonl", spec.name));
    let csv_path = out_dir.join(format!("{}.csv", spec.name));
    if let Err(e) = write_text(&jsonl_path, &jsonl) {
        eprintln!("st run: could not write {}: {e}", jsonl_path.display());
        return 1;
    }
    if let Err(e) = st_report::write_csv(&table, &csv_path) {
        eprintln!("st run: could not write {}: {e}", csv_path.display());
        return 1;
    }
    println!("  [jsonl] {}", jsonl_path.display());
    println!("  [csv]   {}", csv_path.display());
    0
}

/// `st run --shard I/N`: execute one shard of the grid on the engine's
/// worker pool and write the shard document for a later `st merge`.
fn run_one_shard(
    opts: &CommonOpts,
    spec: &SweepSpec,
    points: &[st_sweep::SweepPoint],
    index: usize,
    of: usize,
) -> i32 {
    let plan = match shard::ShardPlan::for_points(points, of) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("st run: {e}");
            return 1;
        }
    };
    let engine = opts.engine();
    println!(
        "st run: shard {index}/{of} of sweep `{}`: {} of {} points in range, {} worker threads",
        spec.name,
        plan.members(index).len(),
        plan.points(),
        engine.threads()
    );
    let start = Instant::now();
    let document = shard::run_shard(spec, points, &plan, index, &engine);
    let stats = engine.stats();
    println!(
        "st run: shard {index}/{of} complete in {:.2}s ({} simulated, {} loaded from disk)",
        start.elapsed().as_secs_f64(),
        stats.simulated,
        stats.loaded,
    );
    let path = shard::shard_path(&opts.out_dir(), &spec.name, index);
    if let Err(e) = write_text(&path, &document) {
        eprintln!("st run: could not write {}: {e}", path.display());
        return 1;
    }
    println!("  [shard] {}", path.display());
    0
}

fn cmd_merge(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st merge: {e}\n{USAGE}");
            return 2;
        }
    };
    if opts.threads != 0
        || opts.instr.is_some()
        || !opts.sets.is_empty()
        || opts.no_cache
        || opts.bench_json.is_some()
        || opts.smoke
        || opts.x.is_some()
        || opts.y.is_some()
        || opts.shard.is_some()
        || opts.addr.is_some()
        || opts.max_bytes.is_some()
        || opts.store
        || opts.service_tier_flags()
        || opts.audit_flags()
    {
        eprintln!("st merge: only --out applies to `st merge`\n{USAGE}");
        return 2;
    }
    if opts.positional.is_empty() {
        eprintln!("st merge: expected at least one shard file\n{USAGE}");
        return 2;
    }
    let mut documents = Vec::with_capacity(opts.positional.len());
    for path in &opts.positional {
        match std::fs::read_to_string(path) {
            Ok(text) => documents.push(text),
            Err(e) => {
                eprintln!("st merge: cannot read {path}: {e}");
                return 1;
            }
        }
    }
    let merged = match shard::merge(&documents) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("st merge: {e}");
            return 1;
        }
    };

    // Per-shard diagnostics: who contributed what.
    let mut diag = st_report::Table::new(vec![
        "shard".to_string(),
        "file".to_string(),
        "records".to_string(),
        "duplicates".to_string(),
    ])
    .with_title(format!("merge `{}` diagnostics", merged.spec.name));
    for (c, path) in merged.contributions.iter().zip(&opts.positional) {
        diag.row(vec![
            c.shard.to_string(),
            path.clone(),
            c.records.to_string(),
            c.duplicates.to_string(),
        ]);
    }
    println!("{}", diag.render());
    println!(
        "st merge: {} points reassembled from {} shard files ({} records, {} duplicate)",
        merged.stats.points, merged.stats.shards, merged.stats.records, merged.stats.duplicates,
    );

    let out_dir = opts.out_dir();
    let jsonl_path = out_dir.join(format!("{}.jsonl", merged.spec.name));
    let csv_path = out_dir.join(format!("{}.csv", merged.spec.name));
    if let Err(e) = write_text(&jsonl_path, &merged.jsonl) {
        eprintln!("st merge: could not write {}: {e}", jsonl_path.display());
        return 1;
    }
    let table = sweep_table(&merged.spec.name, &merged.points, &merged.reports);
    if let Err(e) = st_report::write_csv(&table, &csv_path) {
        eprintln!("st merge: could not write {}: {e}", csv_path.display());
        return 1;
    }
    println!("  [jsonl] {}", jsonl_path.display());
    println!("  [csv]   {}", csv_path.display());
    0
}

/// Rejects every flag the service subcommands don't take; they share
/// one narrow surface (`--addr`, plus `--out`/`--threads`/`--no-cache`/
/// `--max-bytes` and the fleet flags for `serve` itself, plus
/// `--priority` for `submit`).
fn reject_non_service_flags(
    cmd: &str,
    opts: &CommonOpts,
    allow_engine_flags: bool,
    allow_priority: bool,
) -> bool {
    let engine_flags_misused = !allow_engine_flags
        && (opts.out.is_some()
            || opts.threads != 0
            || opts.no_cache
            || opts.max_bytes.is_some()
            || opts.fleet_flags());
    let priority_misused = !allow_priority && opts.priority.is_some();
    if !opts.sets.is_empty()
        || opts.instr.is_some()
        || opts.bench_json.is_some()
        || opts.smoke
        || opts.x.is_some()
        || opts.y.is_some()
        || opts.shard.is_some()
        || opts.store
        || opts.clients.is_some()
        || opts.submissions.is_some()
        || opts.audit_flags()
        || engine_flags_misused
        || priority_misused
    {
        let allowed = if allow_engine_flags {
            "--addr, --out, --threads, --no-cache, --max-bytes, --fleet, --max-inflight and \
             --worker-timeout"
        } else if allow_priority {
            "--addr and --priority"
        } else {
            "--addr"
        };
        eprintln!("st {cmd}: only {allowed} apply\n{USAGE}");
        return true;
    }
    false
}

fn cmd_serve(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st serve: {e}\n{USAGE}");
            return 2;
        }
    };
    if reject_non_service_flags("serve", &opts, true, false) {
        return 2;
    }
    match opts.positional.as_slice() {
        [] => {}
        [action] if action == "stop" => {
            // `stop` is a pure client action: the engine and fleet
            // flags configure a server being started, not one being
            // stopped.
            if opts.out.is_some()
                || opts.threads != 0
                || opts.no_cache
                || opts.max_bytes.is_some()
                || opts.fleet_flags()
            {
                eprintln!("st serve stop: only --addr applies\n{USAGE}");
                return 2;
            }
            let addr = opts.service_addr();
            return match client::shutdown(&addr) {
                Ok(_) => {
                    println!("st serve: service at {addr} is shutting down");
                    0
                }
                Err(e) => {
                    eprintln!("st serve: {e}");
                    1
                }
            };
        }
        [unexpected, ..] => {
            eprintln!(
                "st serve: unexpected argument `{unexpected}` (try `st serve stop`)\n{USAGE}"
            );
            return 2;
        }
    }
    if opts.fleet.is_some() {
        return serve_fleet(&opts);
    }
    if opts.max_inflight.is_some() || opts.worker_timeout.is_some() {
        eprintln!(
            "st serve: --max-inflight/--worker-timeout require --fleet (a plain server's \
             backpressure is its simulation worker pool)\n{USAGE}"
        );
        return 2;
    }
    let addr = opts.service_addr();
    let config = ServiceConfig {
        out: opts.out_dir(),
        threads: opts.threads,
        no_cache: opts.no_cache,
        max_store_bytes: opts.max_bytes,
    };
    let server = match service::Server::bind(&addr, &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("st serve: cannot bind {addr}: {e}");
            return 1;
        }
    };
    service::install_sigint_handler();
    // The listening line goes first and flushed: scripts (and the CI
    // gate) read the actual port from it when binding port 0.
    println!("st serve: listening on http://{}", server.local_addr());
    let engine = server.service().engine();
    match engine.result_store() {
        Some(store) => println!(
            "st serve: result store at {} ({} entries loaded), {} simulation workers",
            store.dir().display(),
            engine.stats().loaded,
            server.service().workers()
        ),
        None => println!(
            "st serve: result store disabled (--no-cache), {} simulation workers",
            server.service().workers()
        ),
    }
    println!("st serve: POST /submit streams sweeps; GET /status reports; POST /shutdown stops");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("st serve: server failed: {e}");
        return 1;
    }
    let stats = server.service().engine().stats();
    println!(
        "st serve: shut down gracefully ({} points simulated this run, {} cache entries warm)",
        stats.simulated, stats.cache.entries
    );
    0
}

/// `st serve --fleet`: run the coordinator tier — partition, dispatch,
/// merge — instead of a local simulation service.
fn serve_fleet(opts: &CommonOpts) -> i32 {
    // The coordinator never simulates, so the engine flags have nothing
    // to configure; they belong on the workers.
    if opts.out.is_some() || opts.threads != 0 || opts.no_cache || opts.max_bytes.is_some() {
        eprintln!(
            "st serve --fleet: --out/--threads/--no-cache/--max-bytes configure a simulating \
             server; set them on the workers instead\n{USAGE}"
        );
        return 2;
    }
    let workers: Vec<String> = opts
        .fleet
        .as_deref()
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect();
    if workers.is_empty() {
        eprintln!(
            "st serve --fleet: expected a comma-separated worker list (w1:port,w2:port)\n{USAGE}"
        );
        return 2;
    }
    let defaults = FleetConfig::default();
    let config = FleetConfig {
        workers,
        max_inflight: opts.max_inflight.unwrap_or(defaults.max_inflight),
        worker_timeout: opts.worker_timeout.map_or(defaults.worker_timeout, Duration::from_secs),
    };
    if config.max_inflight == 0 {
        eprintln!(
            "st serve --fleet: --max-inflight must be at least 1 (0 admits nothing)\n{USAGE}"
        );
        return 2;
    }
    let addr = opts.service_addr();
    let server = match FleetServer::bind(&addr, &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("st serve: cannot bind {addr}: {e}");
            return 1;
        }
    };
    service::install_sigint_handler();
    // Same first-line contract as a plain server: scripts (and the CI
    // gate) read the actual port from it when binding port 0.
    println!("st serve: listening on http://{}", server.local_addr());
    println!(
        "st serve: fleet coordinator over {} worker(s): {}; {} submissions in flight max, \
         {}s worker timeout",
        config.workers.len(),
        config.workers.join(", "),
        config.max_inflight,
        config.worker_timeout.as_secs()
    );
    println!("st serve: POST /submit streams sweeps; GET /status reports; POST /shutdown stops");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("st serve: coordinator failed: {e}");
        return 1;
    }
    println!("st serve: fleet shut down gracefully: {}", server.fleet().status_json());
    0
}

/// `st loadgen`: measured concurrent load against a running service or
/// fleet, recorded into a `BENCH_service.json`-format file when given
/// `--bench-json`.
fn cmd_loadgen(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st loadgen: {e}\n{USAGE}");
            return 2;
        }
    };
    if !opts.sets.is_empty()
        || opts.instr.is_some()
        || opts.threads != 0
        || opts.out.is_some()
        || opts.no_cache
        || opts.x.is_some()
        || opts.y.is_some()
        || opts.shard.is_some()
        || opts.max_bytes.is_some()
        || opts.store
        || opts.fleet_flags()
        || opts.audit_flags()
    {
        eprintln!(
            "st loadgen: only --addr, --clients, --submissions, --priority, --smoke and \
             --bench-json apply\n{USAGE}"
        );
        return 2;
    }
    let [path] = opts.positional.as_slice() else {
        eprintln!("st loadgen: expected exactly one spec file\n{USAGE}");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("st loadgen: cannot read {path}: {e}");
            return 1;
        }
    };
    // Parse locally first, like `st submit`: a bad spec fails fast
    // instead of counting as N server-side failures.
    let spec = match SweepSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("st loadgen: {e}");
            return 1;
        }
    };
    let config = LoadgenConfig {
        addr: opts.service_addr(),
        clients: opts.clients.unwrap_or(if opts.smoke { 2 } else { 8 }),
        submissions: opts.submissions.unwrap_or(if opts.smoke { 4 } else { 32 }),
        priority: opts.priority,
    };
    println!(
        "st loadgen: sweep `{}`: {} submissions over {} clients against {}{}",
        spec.name,
        config.submissions,
        config.clients,
        config.addr,
        match config.priority {
            Some(p) => format!(", priority {p}"),
            None => String::new(),
        }
    );
    let result = match loadgen::run(&config, &text, &mut std::io::stderr()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("st loadgen: {e}");
            return 2;
        }
    };
    println!(
        "st loadgen: {} ok, {} failed in {:.2}s ({:.2} submissions/s, {:.0} records/s)",
        result.submissions,
        result.failures,
        result.total_seconds,
        result.submissions_per_sec(),
        result.submissions_per_sec() * result.records_per_submission as f64
    );
    println!(
        "st loadgen: latency p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms",
        result.percentile_ms(0.50),
        result.percentile_ms(0.90),
        result.percentile_ms(0.99)
    );
    if let Some(path) = &opts.bench_json {
        if let Err(e) = loadgen::update_service(path, &result.to_section(unix_now())) {
            eprintln!("st loadgen: could not write {}: {e}", path.display());
            return 1;
        }
        println!("  [perf] {}", path.display());
    }
    if result.submissions == 0 {
        eprintln!("st loadgen: every submission failed");
        return 1;
    }
    0
}

fn cmd_submit(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st submit: {e}\n{USAGE}");
            return 2;
        }
    };
    if reject_non_service_flags("submit", &opts, false, true) {
        return 2;
    }
    let [path] = opts.positional.as_slice() else {
        eprintln!("st submit: expected exactly one spec file\n{USAGE}");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("st submit: cannot read {path}: {e}");
            return 1;
        }
    };
    // Parse locally first: a bad spec fails fast with the usual
    // diagnostics, without a server round-trip (the server re-parses the
    // same bytes authoritatively).
    let spec = match SweepSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("st submit: {e}");
            return 1;
        }
    };
    let addr = opts.service_addr();
    // Records go to stdout (pipe to a file for the canonical JSONL);
    // everything human-facing goes to stderr.
    let mut stdout = std::io::stdout().lock();
    match client::submit_with_priority(&addr, &text, opts.priority, &mut stdout) {
        Ok(bytes) => {
            eprintln!(
                "st submit: sweep `{}` streamed from {addr} ({bytes} bytes of JSONL)",
                spec.name
            );
            0
        }
        Err(e) => {
            eprintln!("st submit: {e}");
            1
        }
    }
}

fn cmd_status(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st status: {e}\n{USAGE}");
            return 2;
        }
    };
    if reject_non_service_flags("status", &opts, false, false) {
        return 2;
    }
    if let [unexpected, ..] = opts.positional.as_slice() {
        eprintln!("st status: unexpected argument `{unexpected}`\n{USAGE}");
        return 2;
    }
    match client::status(&opts.service_addr()) {
        Ok(body) => {
            println!("{body}");
            0
        }
        Err(e) => {
            eprintln!("st status: {e}");
            1
        }
    }
}

fn cmd_cache(args: &[String]) -> i32 {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("st cache: {e}\n{USAGE}");
            return 2;
        }
    };
    // Everything except --out (and --max-bytes for `evict`) is
    // meaningless here; reject it rather than silently accepting flags
    // that do nothing.
    if opts.threads != 0
        || opts.instr.is_some()
        || !opts.sets.is_empty()
        || opts.no_cache
        || opts.bench_json.is_some()
        || opts.smoke
        || opts.x.is_some()
        || opts.y.is_some()
        || opts.shard.is_some()
        || opts.addr.is_some()
        || opts.store
        || opts.service_tier_flags()
        || opts.audit_flags()
    {
        eprintln!("st cache: only --out (and --max-bytes for `evict`) apply\n{USAGE}");
        return 2;
    }
    let action = opts.positional.first().map(String::as_str);
    if opts.max_bytes.is_some() && action != Some("evict") {
        eprintln!("st cache: --max-bytes only applies to `st cache evict`\n{USAGE}");
        return 2;
    }
    let store_dir = LogStore::dir_under(&opts.out_dir());
    match action {
        None | Some("show") => {
            // One sequential pass: entries for the breakdown, counters
            // for the header.
            let (store, entries) = LogStore::open_loading(&store_dir);
            let s = store.stats();
            println!(
                "result store at {}: {} entries ({} KiB live), {} skipped corrupt",
                store.dir().display(),
                s.entries,
                s.live_bytes / 1024,
                store.load_stats().skipped_corrupt
            );
            // Per-experiment breakdown: what kinds of points are warm.
            let mut by_experiment: std::collections::BTreeMap<String, u64> =
                std::collections::BTreeMap::new();
            for (_, report) in entries {
                *by_experiment.entry(report.experiment).or_default() += 1;
            }
            if !by_experiment.is_empty() {
                let parts: Vec<String> =
                    by_experiment.iter().map(|(e, n)| format!("{e} {n}")).collect();
                println!("  by experiment: {}", parts.join(", "));
            }
            println!(
                "  (per-run hit rates are printed by `st run` / `st repro` and recorded by \
                 `st repro --bench-json`)"
            );
            0
        }
        Some("stats") => {
            let store = LogStore::open(&store_dir);
            let s = store.stats();
            println!("result store at {}:", store.dir().display());
            println!("  entries          {}", s.entries);
            println!("  live bytes       {}", s.live_bytes);
            println!("  dead bytes       {}", s.dead_bytes);
            println!("  file bytes       {}", s.file_bytes);
            println!("  segments         {}", s.segments);
            println!("  live ratio       {:.3}", s.live_ratio());
            println!("  skipped corrupt  {}", s.skipped_corrupt);
            println!("  torn tail bytes  {}", s.torn_tail_bytes);
            println!("  evictions        {}", s.evictions);
            println!("  compactions      {}", s.compactions);
            0
        }
        Some("compact") => match LogStore::open(&store_dir).compact() {
            Ok(c) => {
                println!(
                    "st cache compact: {} live records rewritten, {} -> {} bytes \
                     ({} corrupt frames dropped)",
                    c.live_records, c.before_bytes, c.after_bytes, c.dropped_corrupt
                );
                0
            }
            Err(e) => {
                eprintln!("st cache: {e}");
                1
            }
        },
        Some("evict") => {
            let Some(max) = opts.max_bytes else {
                eprintln!("st cache evict: --max-bytes N is required\n{USAGE}");
                return 2;
            };
            match LogStore::open(&store_dir).evict_to_budget(max) {
                Ok(ev) => {
                    println!(
                        "st cache evict: {} entries ({} bytes) evicted; store is {} bytes \
                         (budget {max})",
                        ev.evicted, ev.evicted_bytes, ev.file_bytes
                    );
                    0
                }
                Err(e) => {
                    eprintln!("st cache: {e}");
                    1
                }
            }
        }
        Some("clear") => {
            let removed = LogStore::open(&store_dir).stats().entries;
            match std::fs::remove_dir_all(&store_dir) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    eprintln!("st cache: could not clear {}: {e}", store_dir.display());
                    return 1;
                }
            }
            println!("result store at {}: removed {removed} entries", store_dir.display());
            0
        }
        Some(other) => {
            eprintln!(
                "st cache: unknown action `{other}` (try `show`, `stats`, `compact`, `evict` or \
                 `clear`)"
            );
            2
        }
    }
}

/// `st calibrate`: probe the generative workload families across a seed
/// range and report how far each derived member's realized gshare
/// miss rate lands from its family target. Exits 4 when any probed
/// member falls outside its family tolerance — the CI gate for the
/// generative suite — and writes the table as CSV for the workflow
/// artifact when `--csv` is given.
fn cmd_calibrate(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    let mut seeds: u64 = 8;
    let mut family_filter: Option<String> = None;
    let mut csv: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--seeds" => {
                    seeds = value_for("--seeds")?
                        .replace('_', "")
                        .parse()
                        .map_err(|_| "--seeds expects an integer".to_string())?;
                    if seeds == 0 {
                        return Err("--seeds must be at least 1".to_string());
                    }
                }
                "--family" => family_filter = Some(value_for("--family")?),
                "--csv" => csv = Some(PathBuf::from(value_for("--csv")?)),
                other => return Err(format!("unexpected argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("st calibrate: {e}\n{USAGE}");
            return Ok(2);
        }
    }
    let families: Vec<&st_workloads::Family> = st_workloads::families()
        .iter()
        .filter(|f| family_filter.as_deref().is_none_or(|want| want == f.name))
        .collect();
    if families.is_empty() {
        let known: Vec<&str> = st_workloads::families().iter().map(|f| f.name).collect();
        eprintln!(
            "st calibrate: unknown family `{}` (known: {})",
            family_filter.unwrap_or_default(),
            known.join(", ")
        );
        return Ok(2);
    }
    // Bound the member list before building it, as a spec's grid is.
    let count = families.len() as u128 * u128::from(seeds);
    if count > axes::MAX_GRID_POINTS as u128 {
        eprintln!(
            "st calibrate: --seeds {seeds} over {} famil{} is {count} members (limit {})\n{USAGE}",
            families.len(),
            if families.len() == 1 { "y" } else { "ies" },
            axes::MAX_GRID_POINTS
        );
        return Ok(2);
    }

    writeln!(
        out,
        "st calibrate: {} famil{} x {seeds} seeds (gshare miss-rate targets)",
        families.len(),
        if families.len() == 1 { "y" } else { "ies" }
    )?;
    writeln!(
        out,
        "  {:<22} {:>7} {:>9} {:>10} {:>10} {:>7}  status",
        "workload", "target", "achieved", "deviation", "tolerance", "spread"
    )?;
    let mut csv_text =
        String::from("family,seed,target,achieved,deviation,tolerance,spread,within\n");
    let mut out_of_tolerance = 0u64;
    let members: Vec<_> =
        families.iter().flat_map(|&family| (0..seeds).map(move |seed| (family, seed))).collect();
    st_workloads::generate::resolve_members(&members);
    for &family in &families {
        let mut worst = 0.0f64;
        for seed in 0..seeds {
            let (_, cal) = st_workloads::generate::resolve_member(family, seed);
            let deviation = (cal.achieved - family.target_miss).abs();
            let within = deviation <= family.tolerance;
            if !within {
                out_of_tolerance += 1;
            }
            worst = worst.max(deviation);
            writeln!(
                out,
                "  {:<22} {:>7.4} {:>9.4} {:>10.4} {:>10.4} {:>7.4}  {}",
                st_workloads::generate::member_name(family, seed),
                family.target_miss,
                cal.achieved,
                deviation,
                family.tolerance,
                cal.spread,
                if within { "ok" } else { "OUT" }
            )?;
            csv_text.push_str(&format!(
                "{},{seed},{:.6},{:.6},{:.6},{:.6},{:.6},{within}\n",
                family.name,
                family.target_miss,
                cal.achieved,
                deviation,
                family.tolerance,
                cal.spread
            ));
        }
        writeln!(
            out,
            "  {:<22} worst deviation {:.4} of tolerance {:.4}",
            format!("gen:{}:*", family.name),
            worst,
            family.tolerance
        )?;
    }
    if let Some(path) = csv {
        if let Err(e) = std::fs::write(&path, csv_text) {
            eprintln!("st calibrate: writing {}: {e}", path.display());
            return Ok(1);
        }
        writeln!(out, "st calibrate: wrote {}", path.display())?;
    }
    if out_of_tolerance > 0 {
        eprintln!("st calibrate: {out_of_tolerance} member(s) outside family tolerance");
        return Ok(4);
    }
    writeln!(out, "st calibrate: all probed members within tolerance")?;
    Ok(0)
}

fn cmd_list(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    let what = args.first().map(String::as_str).unwrap_or("all");
    let mut shown = false;
    if matches!(what, "all" | "workloads") {
        writeln!(out, "workloads (paper Table 2 stand-ins):")?;
        for info in st_workloads::all() {
            writeln!(
                out,
                "  {:<10} {:<12} gshare-8KB miss {:>5.1}%",
                info.spec.name,
                info.suite,
                100.0 * info.paper_miss_rate
            )?;
        }
        writeln!(out)?;
        writeln!(
            out,
            "generative families (members `gen:<family>:<seed>`; reseed via axis.workload_seed):"
        )?;
        for f in st_workloads::families() {
            writeln!(
                out,
                "  gen:{:<10} target miss {:>4.1}% +/-{:>3.1}pp  {}",
                format!("{}:*", f.name),
                100.0 * f.target_miss,
                100.0 * f.tolerance,
                f.summary
            )?;
        }
        writeln!(out)?;
        shown = true;
    }
    if matches!(what, "all" | "experiments") {
        writeln!(out, "experiments:")?;
        for e in all_experiments() {
            writeln!(out, "  {:<5} {}", e.id, e.label)?;
        }
        writeln!(out)?;
        shown = true;
    }
    if matches!(what, "all" | "axes") {
        writeln!(out, "sweep axes (bind via `axis.<name>` spec keys or `st run --set`):")?;
        let header = ["axis", "domain", "default", "paper", "controls"];
        writeln!(
            out,
            "  {:<17} {:<12} {:>8}  {:<16} {}",
            header[0], header[1], header[2], header[3], header[4]
        )?;
        for a in axes::registry() {
            writeln!(
                out,
                "  {:<17} {:<12} {:>8}  {:<16} {}",
                a.name,
                a.domain.describe(),
                a.default.canonical(),
                a.paper,
                a.summary
            )?;
        }
        writeln!(out)?;
        shown = true;
    }
    if matches!(what, "all" | "figures") {
        writeln!(out, "figures/tables (`st repro` regenerates all of these):")?;
        for figure in FIGURES {
            writeln!(out, "  {}", figure.name)?;
        }
        shown = true;
    }
    if !shown {
        eprintln!("st list: unknown category `{what}` (try workloads|experiments|figures|axes)");
        return Ok(2);
    }
    Ok(0)
}
