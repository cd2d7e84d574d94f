//! `st` — the unified sweep CLI. `st --help` prints `USAGE`, the
//! reference for every subcommand and flag; `FLAGS` is the one table
//! each subcommand's command line is read against.
//!
//! `repro` and `run` keep a persistent result store under the output
//! directory by default: the append-only segment log at `<out>/.store`.
//! Its index is built on start, each stored entry is read the first
//! time a point asks for it, and every fresh simulation writes through
//! as soon as it finishes, so repeated invocations, CI runs and reruns
//! of a killed run reuse points across processes.
//! `--no-cache` opts a run out entirely. Only `st loadgen` writes a
//! timing file, and only when given `--bench-json PATH`.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

use st_sweep::bench::BenchConfig;
use st_sweep::emit::{sweep_jsonl_with_pairing, sweep_table, write_text};
use st_sweep::figures::{self, FigureCtx, FIGURES};
use st_sweep::fleet::{FleetConfig, FleetServer};
use st_sweep::loadgen::{self, LoadgenConfig};
use st_sweep::service::{self, ServiceConfig};
use st_sweep::{
    all_experiments, audit, axes, client, shard, AxisValue, ClientError, LogStore, SweepEngine,
    SweepSpec,
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("list") => to_stdout(|out| cmd_list(&argv[1..], out)),
        Some("--help" | "-h" | "help") | None => {
            to_stdout(|out| out.write_all(USAGE.as_bytes()).map(|()| 0))
        }
        Some(other) => match SUBCOMMANDS.iter().find(|(sub, _)| *sub == other) {
            Some(&(sub, cmd)) => {
                if ENDED_BY_SIGPIPE.contains(&sub) {
                    service::restore_default_sigpipe();
                }
                dispatch(sub, &argv[1..], cmd)
            }
            None => {
                eprintln!("st: unknown subcommand `{other}`\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// A subcommand's body: `Ok` carries the exit code, `Err` the message
/// of a usage error.
type Command = fn(&Args) -> Result<i32, String>;

/// The subcommands whose command lines are read against [`FLAGS`].
const SUBCOMMANDS: [(&str, Command); 12] = [
    ("repro", cmd_repro),
    ("run", cmd_run),
    ("merge", cmd_merge),
    ("serve", cmd_serve),
    ("submit", cmd_submit),
    ("status", cmd_status),
    ("loadgen", cmd_loadgen),
    ("bench", cmd_bench),
    ("plot", cmd_plot),
    ("audit", cmd_audit),
    ("calibrate", cmd_calibrate),
    ("cache", cmd_cache),
];

/// The subcommands that write only to stdout and to files. A reader
/// that hangs up ends them quietly, by SIGPIPE's default action. The
/// others keep SIGPIPE ignored and end through [`to_stdout`]: `serve`,
/// `submit`, `status` and `loadgen` must see `EPIPE` from a peer.
const ENDED_BY_SIGPIPE: [&str; 7] = ["repro", "run", "merge", "audit", "plot", "cache", "bench"];

/// Reads `argv`, the arguments after `st <sub>`, and runs `cmd` on
/// them. A usage error prints its message, then USAGE, and exits 2; a
/// command's message gets `st <mode>: ` in front.
fn dispatch(sub: &'static str, argv: &[String], cmd: Command) -> i32 {
    let outcome = Args::parse(sub, argv)
        .and_then(|args| cmd(&args).map_err(|e| format!("st {}: {e}", args.mode)));
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        2
    })
}

/// Runs a command that writes its report to `out`, stdout. A reader that
/// closes the pipe early (`st list | head -2`, `st submit … | head -1`)
/// ends the command quietly with exit 0. SIGPIPE stays ignored here, as
/// Rust starts every program, so `serve`, `submit`, `status`, `loadgen`
/// and the fleet get `EPIPE` from a peer that hangs up instead of being
/// killed.
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
                     append, cold open, read-back) instead of the core
                     hot loop
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

/// What follows a flag on the command line.
#[derive(PartialEq)]
enum Takes {
    Nothing,
    Text,
    /// A non-negative integer, read by [`read_int`].
    Int,
}

/// A row of [`FLAGS`]: a flag, what follows it, and the modes that take
/// it. A mode is a subcommand or one of `serve stop`, `serve --fleet`,
/// `bench --store` and `cache evict`.
struct Flag {
    name: &'static str,
    takes: Takes,
    modes: &'static [&'static str],
}

/// Every flag `st` reads, in the order USAGE's OPTIONS section lists
/// them.
const FLAGS: [Flag; 25] = [
    Flag { name: "--threads", takes: Takes::Int, modes: &["repro", "run", "serve", "audit"] },
    Flag { name: "--instr", takes: Takes::Int, modes: &["repro", "run", "bench"] },
    Flag { name: "--set", takes: Takes::Text, modes: &["run"] },
    Flag {
        name: "--out",
        takes: Takes::Text,
        modes: &["repro", "run", "merge", "serve", "audit", "cache", "cache evict"],
    },
    Flag { name: "--no-cache", takes: Takes::Nothing, modes: &["repro", "run", "serve", "audit"] },
    Flag { name: "--max-bytes", takes: Takes::Int, modes: &["serve", "cache evict"] },
    Flag { name: "--shard", takes: Takes::Text, modes: &["run"] },
    Flag {
        name: "--addr",
        takes: Takes::Text,
        modes: &["serve", "serve stop", "serve --fleet", "submit", "status", "loadgen"],
    },
    Flag { name: "--fleet", takes: Takes::Text, modes: &["serve --fleet"] },
    Flag { name: "--max-inflight", takes: Takes::Int, modes: &["serve --fleet"] },
    Flag { name: "--worker-timeout", takes: Takes::Int, modes: &["serve --fleet"] },
    Flag { name: "--priority", takes: Takes::Int, modes: &["submit", "loadgen"] },
    Flag { name: "--clients", takes: Takes::Int, modes: &["loadgen"] },
    Flag { name: "--submissions", takes: Takes::Int, modes: &["loadgen"] },
    Flag { name: "--bench-json", takes: Takes::Text, modes: &["loadgen"] },
    Flag { name: "--smoke", takes: Takes::Nothing, modes: &["bench", "bench --store", "loadgen"] },
    Flag { name: "--store", takes: Takes::Nothing, modes: &["bench --store"] },
    Flag { name: "--x", takes: Takes::Text, modes: &["plot"] },
    Flag { name: "--y", takes: Takes::Text, modes: &["plot"] },
    Flag { name: "--min-confidence", takes: Takes::Text, modes: &["audit"] },
    Flag { name: "--format", takes: Takes::Text, modes: &["audit"] },
    Flag { name: "--allow", takes: Takes::Text, modes: &["audit"] },
    Flag { name: "--seeds", takes: Takes::Int, modes: &["calibrate"] },
    Flag { name: "--family", takes: Takes::Text, modes: &["calibrate"] },
    Flag { name: "--csv", takes: Takes::Text, modes: &["calibrate"] },
];

/// A command line read against [`FLAGS`].
struct Args {
    /// The mode the command line selects.
    mode: &'static str,
    /// The flags given, each with its value (empty for a switch), in
    /// order.
    flags: Vec<(&'static Flag, String)>,
    /// The other arguments, in order.
    positional: Vec<String>,
}

impl Args {
    /// Reads `argv`, the arguments after `st <sub>`. It refuses an
    /// unknown flag, a flag missing its value and a malformed integer,
    /// then picks the mode and refuses any flag the mode does not take.
    /// The mode is picked after reading, so `st serve --addr stop`
    /// names an address, and a positional word (`stop`, `evict`) wins
    /// over a flag (`--fleet`, `--store`). A flag that is given counts,
    /// whatever its value.
    fn parse(sub: &'static str, argv: &[String]) -> Result<Args, String> {
        let mut args = Args { mode: sub, flags: Vec::new(), positional: Vec::new() };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                args.positional.push(arg.clone());
                continue;
            }
            let flag = FLAGS
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("st {sub}: unknown flag `{arg}`"))?;
            let value = match flag.takes {
                Takes::Nothing => String::new(),
                Takes::Text | Takes::Int => {
                    it.next().cloned().ok_or_else(|| format!("st {sub}: {arg} needs a value"))?
                }
            };
            if flag.takes == Takes::Int {
                read_int::<u64>(arg, &value).map_err(|e| format!("st {sub}: {e}"))?;
            }
            args.flags.push((flag, value));
        }
        args.mode = match (sub, args.positional.first().map(String::as_str)) {
            ("serve", Some("stop")) => "serve stop",
            ("serve", _) if args.has("--fleet") => "serve --fleet",
            ("bench", _) if args.has("--store") => "bench --store",
            ("cache", Some("evict")) => "cache evict",
            _ => sub,
        };
        match args.flags.iter().find(|(flag, _)| !flag.modes.contains(&args.mode)) {
            Some((refused, _)) => Err(refusal(args.mode, refused)),
            None => Ok(args),
        }
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &'static str) -> bool {
        self.flags.iter().any(|(f, _)| f.name == flag)
    }

    /// Every value given for `flag`, in order.
    fn values(&self, flag: &'static str) -> impl Iterator<Item = &str> {
        self.flags.iter().filter(move |(f, _)| f.name == flag).map(|(_, v)| v.as_str())
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &'static str) -> Option<&str> {
        self.values(flag).last()
    }

    /// The last value given for the integer flag `flag`; every value
    /// given must be a `T`.
    fn int<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, String> {
        self.values(flag).try_fold(None, |_, v| read_int(flag, v).map(Some))
    }

    /// The output directory (default `results/`).
    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.value("--out").unwrap_or("results"))
    }

    /// An engine honouring `--threads` and `--no-cache`, over the result
    /// store under the output directory.
    fn engine(&self) -> Result<SweepEngine, String> {
        let threads = self.int("--threads")?.unwrap_or(0);
        Ok(if self.has("--no-cache") {
            SweepEngine::new(threads)
        } else {
            SweepEngine::with_result_store(threads, self.out_dir())
        })
    }

    /// The sweep-service address (default `127.0.0.1:7077`).
    fn service_addr(&self) -> String {
        self.value("--addr").unwrap_or("127.0.0.1:7077").to_string()
    }

    /// The one positional argument, a `what`.
    fn one_positional(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [only] => Ok(only),
            _ => Err(format!("expected exactly one {what}")),
        }
    }

    /// Refuses any positional argument.
    fn no_positional(&self) -> Result<(), String> {
        match self.positional.first() {
            Some(unexpected) => Err(format!("unexpected argument `{unexpected}`")),
            None => Ok(()),
        }
    }
}

/// The one integer reader of every numeric flag: underscores may
/// separate digits (`64_000_000`).
fn read_int<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .replace('_', "")
        .parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got `{value}`"))
}

/// The one refusal of a flag the mode does not take: `st <mode>: only
/// <the flags it takes> apply (<flag> is for st <the modes that take
/// it>)`.
fn refusal(mode: &str, flag: &Flag) -> String {
    let takes: Vec<String> =
        FLAGS.iter().filter(|f| f.modes.contains(&mode)).map(|f| f.name.to_string()).collect();
    let owners: Vec<String> = flag.modes.iter().map(|m| format!("st {m}")).collect();
    format!(
        "st {mode}: only {} apply ({} is for {})",
        and_list(&takes),
        flag.name,
        and_list(&owners)
    )
}

/// `a`, `a and b`, `a, b and c`.
fn and_list(items: &[String]) -> String {
    match items {
        [init @ .., last] if !init.is_empty() => format!("{} and {last}", init.join(", ")),
        _ => items.join(""),
    }
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

fn cmd_repro(args: &Args) -> Result<i32, String> {
    args.no_positional()?;
    let instr = args.int("--instr")?;
    check_instr_budget(instr)?;
    let engine = args.engine()?;
    let mut ctx = FigureCtx::from_env(&engine);
    ctx.out_dir = args.out_dir();
    if let Some(n) = instr {
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
        "  cache: {} simulated, {} aliased, {} loaded from disk, {} hits / {} misses ({:.1}% hit rate)",
        stats.simulated,
        stats.aliased,
        stats.loaded,
        stats.cache.hits,
        stats.cache.misses,
        100.0 * stats.cache.hit_rate()
    );
    Ok(0)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn cmd_bench(args: &Args) -> Result<i32, String> {
    args.no_positional()?;
    if args.mode == "bench --store" {
        return Ok(cmd_bench_store(args.has("--smoke")));
    }
    let instr = args.int("--instr")?;
    check_instr_budget(instr)?;
    let mut config = if args.has("--smoke") { BenchConfig::smoke() } else { BenchConfig::full() };
    if let Some(n) = instr {
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
            return Ok(1);
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
        return Ok(1);
    }
    println!("st bench: determinism probe passed (fresh rerun + cache round-trip bit-identical)");
    Ok(0)
}

/// `st bench --store`: times the segment-log result store itself — bulk
/// append of N synthetic entries (20k with `--smoke`, else 1M), a cold
/// reopen (the one sequential index pass of startup), then a read-back
/// of every entry that fails on any difference.
fn cmd_bench_store(smoke: bool) -> i32 {
    let entries: u64 = if smoke { 20_000 } else { 1_000_000 };
    println!(
        "st bench --store: {entries} synthetic entries (bulk append, cold open, then \
         every entry read back)"
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
        "st bench --store: cold open (one sequential index pass) in {:.2}s ({:.0} entries/s)",
        result.open_seconds,
        result.entries as f64 / result.open_seconds
    );
    println!(
        "st bench --store: read back every entry, each equal to its write, in {:.2}s \
         ({:.0} entries/s)",
        result.read_seconds,
        result.entries as f64 / result.read_seconds
    );
    0
}

fn cmd_plot(args: &Args) -> Result<i32, String> {
    let path = args.one_positional("JSONL file")?;
    let (Some(x), Some(y)) = (args.value("--x"), args.value("--y")) else {
        return Err("--x and --y are required (e.g. --x axis.ruu_size --y ipc)".to_string());
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("st plot: cannot read {path}: {e}");
            return Ok(1);
        }
    };
    Ok(match st_sweep::plot::render(&text, x, y) {
        Ok(charts) => {
            print!("{charts}");
            0
        }
        Err(e) => {
            eprintln!("st plot: {e}");
            1
        }
    })
}

/// `st audit`: the deterministic findings engine. Accepts either a
/// sweep JSONL (audits the records as-is) or a spec file ((re)runs the
/// grid cache-first — identical to `st run` — and adds the grid
/// cross-checks). Findings go to stdout; diagnostics and the summary go
/// to stderr; the exit code is the CI gate (0 clean, 4 findings remain).
fn cmd_audit(args: &Args) -> Result<i32, String> {
    let path = args.one_positional("sweep JSONL or spec file")?;
    let min_confidence = match args.value("--min-confidence").map(audit::Confidence::parse) {
        None => audit::Confidence::Low,
        Some(parsed) => parsed.map_err(|e| format!("--min-confidence: {e}"))?,
    };
    let jsonl_format = match args.value("--format") {
        None | Some("table") => false,
        Some("jsonl") => true,
        Some(other) => return Err(format!("--format expects `table` or `jsonl`, got `{other}`")),
    };
    let allow = match args.value("--allow") {
        None => audit::Allowlist::default(),
        Some(allow_path) => {
            let text = match std::fs::read_to_string(allow_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("st audit: cannot read {allow_path}: {e}");
                    return Ok(1);
                }
            };
            match audit::Allowlist::parse(&text) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("st audit: {allow_path}: {e}");
                    return Ok(1);
                }
            }
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("st audit: cannot read {path}: {e}");
            return Ok(1);
        }
    };

    let (records, findings) = if audit::looks_like_records(&text) {
        // JSONL mode: audit the records exactly as the sweep left them.
        let records = match audit::parse_records(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("st audit: {path}: {e}");
                return Ok(1);
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
                return Ok(1);
            }
        };
        let points = match spec.points() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("st audit: {e}");
                return Ok(1);
            }
        };
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let engine = args.engine()?;
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
                return Ok(1);
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
    Ok(if outcome.kept.is_empty() { 0 } else { 4 })
}

/// Loads the spec file at `path` and applies the `--instr` and `--set`
/// overrides. The error is the diagnostic to print.
fn load_spec<'a>(
    path: &str,
    instr: Option<u64>,
    sets: impl Iterator<Item = &'a str>,
) -> Result<SweepSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
    if let Some(n) = instr {
        spec.set_axis("instructions", vec![AxisValue::Int(n)]).map_err(|e| e.to_string())?;
    }
    for set in sets {
        let (name, values) = parse_set(set)?;
        spec.set_axis(&name, values).map_err(|e| e.to_string())?;
    }
    Ok(spec)
}

fn cmd_run(args: &Args) -> Result<i32, String> {
    let path = args.one_positional("spec file")?;
    let one_shard = args
        .values("--shard")
        .try_fold(None, |_, v| shard::parse_shard_arg(v).map(Some))
        .map_err(|e| e.0)?;
    let spec = match load_spec(path, args.int("--instr")?, args.values("--set")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("st run: {e}");
            return Ok(1);
        }
    };
    let points = match spec.points() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("st run: {e}");
            return Ok(1);
        }
    };
    if let Some((index, of)) = one_shard {
        return run_one_shard(args, &spec, &points, index, of);
    }
    let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
    let engine = args.engine()?;
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
        "st run: complete in {:.2}s ({} simulated, {} loaded from disk, {} aliased, {:.1}% cache hit rate)\n",
        start.elapsed().as_secs_f64(),
        stats.simulated,
        stats.loaded,
        stats.aliased,
        100.0 * stats.cache.hit_rate()
    );

    // Emit raw results, tagged with each point's axis bindings; the JSONL
    // document (reports + baseline comparisons) comes from the shared
    // builder the golden tests fingerprint.
    let out_dir = args.out_dir();
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
        return Ok(1);
    }
    if let Err(e) = st_report::write_csv(&table, &csv_path) {
        eprintln!("st run: could not write {}: {e}", csv_path.display());
        return Ok(1);
    }
    println!("  [jsonl] {}", jsonl_path.display());
    println!("  [csv]   {}", csv_path.display());
    Ok(0)
}

/// `st run --shard I/N`: execute one shard of the grid on the engine's
/// worker pool and write the shard document for a later `st merge`.
fn run_one_shard(
    args: &Args,
    spec: &SweepSpec,
    points: &[st_sweep::SweepPoint],
    index: usize,
    of: usize,
) -> Result<i32, String> {
    let plan = match shard::ShardPlan::for_points(points, of) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("st run: {e}");
            return Ok(1);
        }
    };
    let engine = args.engine()?;
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
        "st run: shard {index}/{of} complete in {:.2}s ({} simulated, {} loaded from disk, {} aliased)",
        start.elapsed().as_secs_f64(),
        stats.simulated,
        stats.loaded,
        stats.aliased,
    );
    let path = shard::shard_path(&args.out_dir(), &spec.name, index);
    if let Err(e) = write_text(&path, &document) {
        eprintln!("st run: could not write {}: {e}", path.display());
        return Ok(1);
    }
    println!("  [shard] {}", path.display());
    Ok(0)
}

fn cmd_merge(args: &Args) -> Result<i32, String> {
    if args.positional.is_empty() {
        return Err("expected at least one shard file".to_string());
    }
    let mut documents = Vec::with_capacity(args.positional.len());
    for path in &args.positional {
        match std::fs::read_to_string(path) {
            Ok(text) => documents.push(text),
            Err(e) => {
                eprintln!("st merge: cannot read {path}: {e}");
                return Ok(1);
            }
        }
    }
    let merged = match shard::merge(&documents) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("st merge: {e}");
            return Ok(1);
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
    for (c, path) in merged.contributions.iter().zip(&args.positional) {
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

    let out_dir = args.out_dir();
    let jsonl_path = out_dir.join(format!("{}.jsonl", merged.spec.name));
    let csv_path = out_dir.join(format!("{}.csv", merged.spec.name));
    if let Err(e) = write_text(&jsonl_path, &merged.jsonl) {
        eprintln!("st merge: could not write {}: {e}", jsonl_path.display());
        return Ok(1);
    }
    let table = sweep_table(&merged.spec.name, &merged.points, &merged.reports);
    if let Err(e) = st_report::write_csv(&table, &csv_path) {
        eprintln!("st merge: could not write {}: {e}", csv_path.display());
        return Ok(1);
    }
    println!("  [jsonl] {}", jsonl_path.display());
    println!("  [csv]   {}", csv_path.display());
    Ok(0)
}

fn cmd_serve(args: &Args) -> Result<i32, String> {
    // `stop` is the one word `serve` takes.
    let stop = args.mode == "serve stop";
    if let Some(unexpected) = args.positional.get(usize::from(stop)) {
        return Err(format!("unexpected argument `{unexpected}` (try `st serve stop`)"));
    }
    if stop {
        let addr = args.service_addr();
        return Ok(to_stdout(|out| match client::shutdown(&addr) {
            Ok(_) => writeln!(out, "st serve: service at {addr} is shutting down").map(|()| 0),
            Err(e) => {
                eprintln!("st serve: {e}");
                Ok(1)
            }
        }));
    }
    if args.mode == "serve --fleet" {
        return serve_fleet(args);
    }
    let addr = args.service_addr();
    let config = ServiceConfig {
        out: args.out_dir(),
        threads: args.int("--threads")?.unwrap_or(0),
        no_cache: args.has("--no-cache"),
        max_store_bytes: args.int("--max-bytes")?,
    };
    let server = match service::Server::bind(&addr, &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("st serve: cannot bind {addr}: {e}");
            return Ok(1);
        }
    };
    service::install_sigint_handler();
    let engine = server.service().engine();
    let store = match engine.result_store() {
        Some(store) => format!(
            "result store at {} ({} entries loaded)",
            store.dir().display(),
            engine.stats().loaded
        ),
        None => "result store disabled (--no-cache)".to_string(),
    };
    let details = format!("{store}, {} simulation workers", server.service().workers());
    Ok(to_stdout(|out| {
        serve_banner(out, server.local_addr(), &details);
        if let Err(e) = server.run() {
            eprintln!("st serve: server failed: {e}");
            return Ok(1);
        }
        let stats = server.service().engine().stats();
        writeln!(
            out,
            "st serve: shut down gracefully ({} points simulated this run, {} aliased, {} cache entries warm)",
            stats.simulated, stats.aliased, stats.cache.entries
        )
        .map(|()| 0)
    }))
}

/// Writes a server's banner: its `listening on` line first, which
/// scripts (and the CI gate) read the actual port from when binding
/// port 0, then `details` and the endpoint summary. A reader that
/// leaves after the first line must not stop the server, so write
/// errors are ignored here; the server's last line reports them.
fn serve_banner(out: &mut dyn Write, listening: std::net::SocketAddr, details: &str) {
    let _ = write!(
        out,
        "st serve: listening on http://{listening}\nst serve: {details}\n\
         st serve: POST /submit streams sweeps; GET /status reports; POST /shutdown stops\n"
    );
    let _ = out.flush();
}

/// `st serve --fleet`: run the coordinator tier — partition, dispatch,
/// merge — instead of a local simulation service.
fn serve_fleet(args: &Args) -> Result<i32, String> {
    let workers: Vec<String> = args
        .value("--fleet")
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect();
    if workers.is_empty() {
        return Err("expected a comma-separated worker list (w1:port,w2:port)".to_string());
    }
    let defaults = FleetConfig::default();
    let config = FleetConfig {
        workers,
        max_inflight: args.int("--max-inflight")?.unwrap_or(defaults.max_inflight),
        worker_timeout: args
            .int("--worker-timeout")?
            .map_or(defaults.worker_timeout, Duration::from_secs),
    };
    if config.max_inflight == 0 {
        return Err("--max-inflight must be at least 1 (0 admits nothing)".to_string());
    }
    let addr = args.service_addr();
    let server = match FleetServer::bind(&addr, &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("st serve: cannot bind {addr}: {e}");
            return Ok(1);
        }
    };
    service::install_sigint_handler();
    let details = format!(
        "fleet coordinator over {} worker(s): {}; {} submissions in flight max, \
         {}s worker timeout",
        config.workers.len(),
        config.workers.join(", "),
        config.max_inflight,
        config.worker_timeout.as_secs()
    );
    Ok(to_stdout(|out| {
        serve_banner(out, server.local_addr(), &details);
        if let Err(e) = server.run() {
            eprintln!("st serve: coordinator failed: {e}");
            return Ok(1);
        }
        writeln!(out, "st serve: fleet shut down gracefully: {}", server.fleet().status_json())
            .map(|()| 0)
    }))
}

/// `st loadgen`: measured concurrent load against a running service or
/// fleet, recorded into a `BENCH_service.json`-format file when given
/// `--bench-json`.
fn cmd_loadgen(args: &Args) -> Result<i32, String> {
    let path = args.one_positional("spec file")?;
    let smoke = args.has("--smoke");
    let config = LoadgenConfig {
        addr: args.service_addr(),
        clients: args.int("--clients")?.unwrap_or(if smoke { 2 } else { 8 }),
        submissions: args.int("--submissions")?.unwrap_or(if smoke { 4 } else { 32 }),
        priority: args.int("--priority")?,
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("st loadgen: cannot read {path}: {e}");
            return Ok(1);
        }
    };
    // Parse locally first, like `st submit`: a bad spec fails fast
    // instead of counting as N server-side failures.
    let spec = match SweepSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("st loadgen: {e}");
            return Ok(1);
        }
    };
    Ok(to_stdout(|out| {
        writeln!(
            out,
            "st loadgen: sweep `{}`: {} submissions over {} clients against {}{}",
            spec.name,
            config.submissions,
            config.clients,
            config.addr,
            match config.priority {
                Some(p) => format!(", priority {p}"),
                None => String::new(),
            }
        )?;
        let result = match loadgen::run(&config, &text, &mut std::io::stderr()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("st loadgen: {e}");
                return Ok(2);
            }
        };
        writeln!(
            out,
            "st loadgen: {} ok, {} failed in {:.2}s ({:.2} submissions/s, {:.0} records/s)",
            result.submissions,
            result.failures,
            result.total_seconds,
            result.submissions_per_sec(),
            result.submissions_per_sec() * result.records_per_submission as f64
        )?;
        writeln!(
            out,
            "st loadgen: latency p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms",
            result.percentile_ms(0.50),
            result.percentile_ms(0.90),
            result.percentile_ms(0.99)
        )?;
        if let Some(path) = args.value("--bench-json") {
            if let Err(e) = loadgen::update_service(Path::new(path), &result.to_section(unix_now()))
            {
                eprintln!("st loadgen: could not write {path}: {e}");
                return Ok(1);
            }
            writeln!(out, "  [perf] {path}")?;
        }
        if result.submissions == 0 {
            eprintln!("st loadgen: every submission failed");
            return Ok(1);
        }
        Ok(0)
    }))
}

fn cmd_submit(args: &Args) -> Result<i32, String> {
    let path = args.one_positional("spec file")?;
    let priority = args.int("--priority")?;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("st submit: cannot read {path}: {e}");
            return Ok(1);
        }
    };
    // Parse locally first: a bad spec fails fast with the usual
    // diagnostics, without a server round-trip (the server re-parses the
    // same bytes authoritatively).
    let spec = match SweepSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("st submit: {e}");
            return Ok(1);
        }
    };
    let addr = args.service_addr();
    // Records go to stdout (pipe to a file for the canonical JSONL);
    // everything human-facing goes to stderr. A failed write to stdout
    // ends the stream and goes to `to_stdout`, which ends quietly when
    // the reader hung up.
    Ok(to_stdout(|out| {
        let (mut bytes, mut stdout_error) = (0, None);
        let streamed = client::submit_with_priority(&addr, &text, priority, &mut |record| {
            bytes += record.len() + 1;
            writeln!(out, "{record}").map_err(|e| ClientError(stdout_error.insert(e).to_string()))
        });
        match (stdout_error, streamed) {
            (Some(e), _) => Err(e),
            (None, Ok(_)) => {
                eprintln!(
                    "st submit: sweep `{}` streamed from {addr} ({bytes} bytes of JSONL)",
                    spec.name
                );
                Ok(0)
            }
            (None, Err(e)) => {
                eprintln!("st submit: {e}");
                Ok(1)
            }
        }
    }))
}

fn cmd_status(args: &Args) -> Result<i32, String> {
    args.no_positional()?;
    Ok(to_stdout(|out| match client::status(&args.service_addr()) {
        Ok(body) => writeln!(out, "{body}").map(|()| 0),
        Err(e) => {
            eprintln!("st status: {e}");
            Ok(1)
        }
    }))
}

fn cmd_cache(args: &Args) -> Result<i32, String> {
    let store_dir = LogStore::dir_under(&args.out_dir());
    Ok(match args.positional.first().map(String::as_str) {
        None | Some("show") => {
            // Every entry is read for the per-experiment breakdown (what
            // kinds of points are warm); one that does not read counts
            // as skipped, like the damage the open found.
            let store = LogStore::open(&store_dir);
            let mut by_experiment: std::collections::BTreeMap<String, u64> =
                std::collections::BTreeMap::new();
            let mut unreadable = 0;
            for fp in store.fingerprints() {
                match store.load(fp) {
                    Some(report) => *by_experiment.entry(report.experiment).or_default() += 1,
                    None => unreadable += 1,
                }
            }
            let s = store.stats();
            println!(
                "result store at {}: {} entries ({} KiB live), {} skipped corrupt",
                store.dir().display(),
                s.entries,
                s.live_bytes / 1024,
                s.skipped_corrupt + unreadable
            );
            if !by_experiment.is_empty() {
                let parts: Vec<String> =
                    by_experiment.iter().map(|(e, n)| format!("{e} {n}")).collect();
                println!("  by experiment: {}", parts.join(", "));
            }
            println!("  (per-run hit rates are printed by `st run` / `st repro`)");
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
            let max = args.int("--max-bytes")?.ok_or("--max-bytes N is required")?;
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
                    return Ok(1);
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
    })
}

/// `st calibrate`: probe the generative workload families across a seed
/// range and report how far each derived member's realized gshare
/// miss rate lands from its family target. Exits 4 when any probed
/// member falls outside its family tolerance — the CI gate for the
/// generative suite — and writes the table as CSV for the workflow
/// artifact when `--csv` is given.
fn cmd_calibrate(args: &Args) -> Result<i32, String> {
    args.no_positional()?;
    let seeds: u64 = args.int("--seeds")?.unwrap_or(8);
    if seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    let family_filter = args.value("--family");
    let families: Vec<&st_workloads::Family> = st_workloads::families()
        .iter()
        .filter(|f| family_filter.is_none_or(|want| want == f.name))
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
        return Err(format!(
            "--seeds {seeds} over {} famil{} is {count} members (limit {})",
            families.len(),
            if families.len() == 1 { "y" } else { "ies" },
            axes::MAX_GRID_POINTS
        ));
    }
    let csv = args.value("--csv").map(Path::new);
    Ok(to_stdout(|out| write_calibration(&families, seeds, csv, out)))
}

/// Prints the calibration table of `seeds` members of each family, and
/// writes it to `csv` when given; 4 when a member misses its family's
/// tolerance.
fn write_calibration(
    families: &[&'static st_workloads::Family],
    seeds: u64,
    csv: Option<&Path>,
    out: &mut dyn Write,
) -> io::Result<i32> {
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
    for &family in families {
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
        if let Err(e) = std::fs::write(path, csv_text) {
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::{Args, Takes, FLAGS, SUBCOMMANDS, USAGE};

    /// Every mode: the subcommands that read flags, and the four that a
    /// positional word or a flag picks.
    const MODES: [&str; 16] = [
        "repro",
        "run",
        "merge",
        "serve",
        "serve stop",
        "serve --fleet",
        "submit",
        "status",
        "loadgen",
        "bench",
        "bench --store",
        "plot",
        "audit",
        "calibrate",
        "cache",
        "cache evict",
    ];

    /// Parses `st <mode> <given>...`, giving every flag that takes a
    /// value the value `0`: a flag given as `0` is still given.
    fn parse(mode: &str, given: &[&str]) -> Result<Args, String> {
        let mut words = mode.split(' ');
        let first = words.next().expect("a mode starts with its subcommand");
        let (sub, _) = SUBCOMMANDS.iter().find(|(sub, _)| *sub == first).expect("a subcommand");
        let mut argv = Vec::new();
        for word in words.chain(given.iter().copied()) {
            argv.push(word.to_string());
            if FLAGS.iter().any(|f| f.name == word && f.takes != Takes::Nothing) {
                argv.push("0".to_string());
            }
        }
        Args::parse(sub, &argv)
    }

    #[test]
    fn each_mode_takes_its_flags_and_refuses_every_other_in_one_message() {
        for mode in MODES {
            let takes: Vec<&str> =
                FLAGS.iter().filter(|f| f.modes.contains(&mode)).map(|f| f.name).collect();
            assert!(!takes.is_empty(), "{mode} takes no flag");
            let args = parse(mode, &takes).unwrap_or_else(|e| panic!("{mode} {takes:?}: {e}"));
            assert_eq!(args.mode, mode);
            for flag in FLAGS.iter().filter(|f| !f.modes.contains(&mode)) {
                match parse(mode, &[flag.name]) {
                    Ok(args) => assert!(
                        matches!(
                            (mode, flag.name, args.mode),
                            ("serve", "--fleet", "serve --fleet")
                                | ("bench", "--store", "bench --store")
                        ),
                        "st {mode} took {}",
                        flag.name
                    ),
                    Err(e) => {
                        assert!(e.starts_with(&format!("st {mode}: only ")), "{e}");
                        assert!(e.contains(&format!(" apply ({} is for st ", flag.name)), "{e}");
                        for owner in flag.modes {
                            assert!(e.contains(&format!("st {owner}")), "{e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn refusals_read_like_usage() {
        let cases = [
            (
                "status",
                "--threads",
                "st status: only --addr apply (--threads is for st repro, st run, st serve and \
                 st audit)",
            ),
            (
                "plot",
                "--out",
                "st plot: only --x and --y apply (--out is for st repro, st run, \
                 st merge, st serve, st audit, st cache and st cache evict)",
            ),
            (
                "serve stop",
                "--fleet",
                "st serve stop: only --addr apply (--fleet is for st serve --fleet)",
            ),
            (
                "repro",
                "--bench-json",
                "st repro: only --threads, --instr, --out and --no-cache apply (--bench-json is \
                 for st loadgen)",
            ),
        ];
        for (mode, flag, message) in cases {
            assert_eq!(parse(mode, &[flag]).err().as_deref(), Some(message));
        }
    }

    #[test]
    fn the_table_lists_exactly_the_flags_usage_documents() {
        let options = USAGE.split("OPTIONS:\n").nth(1).expect("USAGE has an OPTIONS section");
        let documented: Vec<&str> = options
            .lines()
            .take_while(|line| !line.is_empty())
            .filter(|line| line.starts_with("    --"))
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        let table: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        assert_eq!(documented, table);
        assert_eq!(table.len(), 25);
        let mut modes: Vec<&str> = FLAGS.iter().flat_map(|f| f.modes.iter().copied()).collect();
        modes.sort_unstable();
        modes.dedup();
        let mut expected = MODES.to_vec();
        expected.sort_unstable();
        assert_eq!(modes, expected);
        assert!(SUBCOMMANDS.iter().all(|(sub, _)| MODES.contains(sub)));
    }

    #[test]
    fn integers_take_underscores_and_nothing_else() {
        let argv = |v: &str| ["--max-bytes".to_string(), v.to_string()];
        let args = Args::parse("serve", &argv("64_000_000")).expect("underscores separate digits");
        assert_eq!(args.int::<u64>("--max-bytes"), Ok(Some(64_000_000)));
        for bad in ["", "x", "-1", "1.5", "1e3"] {
            let e = Args::parse("serve", &argv(bad)).err().expect("refused");
            assert!(e.starts_with("st serve: --max-bytes expects "), "{e}");
        }
        let priority = ["--priority".to_string(), "4294967296".to_string()];
        let args = Args::parse("submit", &priority).expect("a u64");
        assert!(args.int::<u32>("--priority").is_err(), "over u32::MAX");
    }

    /// Words a command line is drawn from besides the flags: mode
    /// words, positionals, numbers and near-flags.
    const WORDS: [&str; 12] =
        ["stop", "evict", "show", "spec.toml", "-", "--", "-1", "0", "1_000", "0/2", "a=1,2", ""];

    fn word() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..FLAGS.len()).prop_map(|i| FLAGS[i].name.to_string()),
            (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
            any::<u64>().prop_map(|n| n.to_string()),
            prop::collection::vec(any::<u8>(), 0..6)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn any_command_line_parses_or_is_refused_without_panicking(
            sub in 0..SUBCOMMANDS.len(),
            argv in prop::collection::vec(word(), 0..8),
        ) {
            let (sub, _) = SUBCOMMANDS[sub];
            match Args::parse(sub, &argv) {
                Ok(args) => {
                    prop_assert!(args.mode.starts_with(sub), "{} for {}", args.mode, sub);
                    for (flag, _) in &args.flags {
                        prop_assert!(flag.modes.contains(&args.mode), "{} took {}", args.mode, flag.name);
                        if flag.takes == Takes::Int {
                            let _ = args.int::<u32>(flag.name);
                        }
                    }
                }
                Err(e) => prop_assert!(e.starts_with(&format!("st {sub}")), "{}", e),
            }
        }
    }
}
