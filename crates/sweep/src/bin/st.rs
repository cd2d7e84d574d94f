//! `st` — the unified sweep CLI. `st --help` prints `USAGE`, the
//! reference for every subcommand and flag; `FLAGS` is the one table
//! each subcommand's command line is read against, and `dispatch` the
//! one place a failure becomes a message and an exit code.
//!
//! `repro` and `run` keep a persistent result store under the output
//! directory by default: the append-only segment log at `<out>/.store`.
//! Its index is built on start, each stored entry is read the first
//! time a point asks for it, and every fresh simulation writes through
//! as soon as it finishes, so repeated invocations, CI runs and reruns
//! of a killed run reuse points across processes.
//! `--no-cache` opts a run out entirely. Only `st loadgen` writes a
//! timing file, and only when given `--bench-json PATH`.

use std::fmt::Display;
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
        Some("--help" | "-h" | "help") | None => {
            let mut out = io::stdout();
            out.write_all(USAGE.as_bytes())
                .and_then(|()| out.flush())
                .map_or_else(|e| stdout_failed(&e), |()| 0)
        }
        Some(other) => match SUBCOMMANDS.iter().find(|(sub, ..)| *sub == other) {
            Some(&(sub, cmd, hang_up)) => {
                if hang_up == HangUp::Signal {
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

/// A subcommand's body. It writes its report to `out`, stdout, and
/// returns its exit code (0, or 4 when findings remain) or its
/// [`Failure`].
type Command = fn(&Args, &mut dyn Write) -> Result<i32, Failure>;

/// What ends a subcommand whose stdout reader hangs up.
#[derive(Clone, Copy, PartialEq)]
enum HangUp {
    /// SIGPIPE's default action, restored for a command that writes
    /// only to stdout and to files.
    Signal,
    /// The `EPIPE` its next write to stdout gets, which ends it with
    /// exit 0 ([`stdout_failed`]). SIGPIPE stays ignored, as Rust starts
    /// every program, so `serve`, `submit`, `status`, `loadgen` and the
    /// fleet see a peer that hangs up as `EPIPE` instead of being killed.
    Epipe,
}

/// Every subcommand: its name, its body, and what ends it when its
/// stdout reader hangs up. Each command line is read against [`FLAGS`].
const SUBCOMMANDS: [(&str, Command, HangUp); 13] = [
    ("repro", cmd_repro, HangUp::Signal),
    ("run", cmd_run, HangUp::Signal),
    ("merge", cmd_merge, HangUp::Signal),
    ("serve", cmd_serve, HangUp::Epipe),
    ("submit", cmd_submit, HangUp::Epipe),
    ("status", cmd_status, HangUp::Epipe),
    ("loadgen", cmd_loadgen, HangUp::Epipe),
    ("bench", cmd_bench, HangUp::Signal),
    ("plot", cmd_plot, HangUp::Signal),
    ("audit", cmd_audit, HangUp::Signal),
    ("calibrate", cmd_calibrate, HangUp::Epipe),
    ("list", cmd_list, HangUp::Epipe),
    ("cache", cmd_cache, HangUp::Signal),
];

/// Why a command failed. A command only says which kind of failure it
/// met and what went wrong; [`dispatch`] reports it.
#[derive(Debug)]
enum Failure {
    /// A usage mistake: exit 2, with USAGE after the message.
    Usage(String),
    /// A failure at run time: exit 1.
    Runtime(String),
    /// A failed write to stdout, ended by [`stdout_failed`].
    Stdout(io::Error),
}

impl Failure {
    /// The runtime failure `e`.
    fn runtime(e: impl Display) -> Failure {
        Failure::Runtime(e.to_string())
    }
}

/// `?` on a command's write to `out`, its stdout. Every other I/O error
/// is turned into a [`Failure::Runtime`] that names its file.
impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Stdout(e)
    }
}

/// Reads `argv`, the arguments after `st <sub>`, and runs `cmd` on them
/// with stdout as its writer. A failure is reported here and nowhere
/// else: `st <mode>: <message>` on stderr, then USAGE and exit 2 for a
/// usage mistake, or exit 1 for a failure at run time.
fn dispatch(sub: &'static str, argv: &[String], cmd: Command) -> i32 {
    let mut mode = sub;
    let mut out = io::stdout();
    let outcome = Args::parse(sub, argv).and_then(|args| {
        mode = args.mode;
        args.refuse_flags_of_other_modes()?;
        let code = cmd(&args, &mut out)?;
        out.flush()?;
        Ok(code)
    });
    match outcome {
        Ok(code) => code,
        Err(Failure::Usage(message)) => {
            eprintln!("st {mode}: {message}\n{USAGE}");
            2
        }
        Err(Failure::Runtime(message)) => {
            eprintln!("st {mode}: {message}");
            1
        }
        Err(Failure::Stdout(e)) => stdout_failed(&e),
    }
}

/// The exit code of a command whose write to stdout failed with `e`: 0
/// when the reader hung up (`st list | head -2`, `st submit … | head
/// -1`), else 1.
fn stdout_failed(e: &io::Error) -> i32 {
    if e.kind() == io::ErrorKind::BrokenPipe {
        return 0;
    }
    eprintln!("st: writing to stdout: {e}");
    1
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
    st submit <spec.toml|spec.json> [--addr HOST:PORT]
    st status [--addr HOST:PORT]
    st loadgen <spec.toml|spec.json> [--addr HOST:PORT] [--clients N]
             [--submissions M] [--smoke] [--bench-json PATH]
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

Every subcommand exits 0 on success, 1 on a failure and 2 on a usage
mistake, whose message is followed by this text. `st audit` exits 4 when
unsuppressed findings remain (the CI gate), and `st calibrate` exits 4
when a probed member lands outside its family's declared miss-rate
tolerance.
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
/// them. `st list` takes none.
const FLAGS: [Flag; 24] = [
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
    /// then picks the mode. The mode is picked after reading, so
    /// `st serve --addr stop` names an address, and a positional word
    /// (`stop`, `evict`) wins over a flag (`--fleet`, `--store`).
    fn parse(sub: &'static str, argv: &[String]) -> Result<Args, Failure> {
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
                .ok_or_else(|| Failure::Usage(format!("unknown flag `{arg}`")))?;
            let value = match flag.takes {
                Takes::Nothing => String::new(),
                Takes::Text | Takes::Int => it
                    .next()
                    .cloned()
                    .ok_or_else(|| Failure::Usage(format!("{arg} needs a value")))?,
            };
            if flag.takes == Takes::Int {
                read_int::<u64>(arg, &value)?;
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
        Ok(args)
    }

    /// Refuses the first flag given that the mode does not take. A flag
    /// that is given counts, whatever its value.
    fn refuse_flags_of_other_modes(&self) -> Result<(), Failure> {
        match self.flags.iter().find(|(flag, _)| !flag.modes.contains(&self.mode)) {
            Some((refused, _)) => Err(refusal(self.mode, refused)),
            None => Ok(()),
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
    fn int<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, Failure> {
        self.values(flag).try_fold(None, |_, v| read_int(flag, v).map(Some))
    }

    /// The output directory (default `results/`).
    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.value("--out").unwrap_or("results"))
    }

    /// An engine honouring `--threads` and `--no-cache`, over the result
    /// store under the output directory.
    fn engine(&self) -> Result<SweepEngine, Failure> {
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
    fn one_positional(&self, what: &str) -> Result<&str, Failure> {
        match self.positional.as_slice() {
            [only] => Ok(only),
            _ => Err(Failure::Usage(format!("expected exactly one {what}"))),
        }
    }

    /// Refuses the positional arguments from the `allowed`-th on.
    fn at_most_positional(&self, allowed: usize) -> Result<(), Failure> {
        match self.positional.get(allowed) {
            Some(unexpected) => Err(Failure::Usage(format!("unexpected argument `{unexpected}`"))),
            None => Ok(()),
        }
    }
}

/// The one integer reader of every numeric flag: underscores may
/// separate digits (`64_000_000`).
fn read_int<T: FromStr>(flag: &str, value: &str) -> Result<T, Failure> {
    value.replace('_', "").parse().map_err(|_| {
        Failure::Usage(format!("{flag} expects a non-negative integer, got `{value}`"))
    })
}

/// The one refusal of a flag the mode does not take: `only <the flags
/// it takes> apply (<flag> is for st <the modes that take it>)`, or
/// `takes no flags (…)` for `st list`.
fn refusal(mode: &str, flag: &Flag) -> Failure {
    let takes: Vec<String> =
        FLAGS.iter().filter(|f| f.modes.contains(&mode)).map(|f| f.name.to_string()).collect();
    let owners: Vec<String> = flag.modes.iter().map(|m| format!("st {m}")).collect();
    let takes = match takes.as_slice() {
        [] => "takes no flags".to_string(),
        _ => format!("only {} apply", and_list(&takes)),
    };
    Failure::Usage(format!("{takes} ({} is for {})", flag.name, and_list(&owners)))
}

/// `a`, `a and b`, `a, b and c`.
fn and_list(items: &[String]) -> String {
    match items {
        [init @ .., last] if !init.is_empty() => format!("{} and {last}", init.join(", ")),
        _ => items.join(""),
    }
}

/// Reads the input file at `path`.
fn read_input(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| Failure::Runtime(format!("cannot read {path}: {e}")))
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

/// Reads the spec in `text` and applies `st run`'s `--instr` and `--set`
/// overrides (the other modes refuse both flags). Every error is a
/// failure at run time.
fn load_spec(text: &str, args: &Args) -> Result<SweepSpec, Failure> {
    let mut spec = SweepSpec::parse(text).map_err(Failure::runtime)?;
    if let Some(n) = args.int("--instr")? {
        spec.set_axis("instructions", vec![AxisValue::Int(n)]).map_err(Failure::runtime)?;
    }
    for set in args.values("--set") {
        let (name, values) = parse_set(set).map_err(Failure::runtime)?;
        spec.set_axis(&name, values).map_err(Failure::runtime)?;
    }
    Ok(spec)
}

/// Checks the `--instr N` budget `st repro` or `st bench` will run at
/// against the `instructions` axis domain, the rule `st run` applies
/// through its spec, before any work starts. The error names the value
/// and the domain.
fn check_instr_budget(instr: Option<u64>) -> Result<(), Failure> {
    let axis = axes::axis("instructions").expect("instructions is a registered axis");
    match instr {
        Some(n) if axis.validate(&AxisValue::Int(n)).is_err() => Err(Failure::Usage(format!(
            "--instr={n} is not in the instructions domain {}",
            axis.domain.describe()
        ))),
        _ => Ok(()),
    }
}

fn cmd_repro(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    args.at_most_positional(0)?;
    let instr = args.int("--instr")?;
    check_instr_budget(instr)?;
    let engine = args.engine()?;
    let mut ctx = FigureCtx::from_env(&engine);
    ctx.out_dir = args.out_dir();
    if let Some(n) = instr {
        ctx.instructions = n;
    }
    writeln!(
        out,
        "st repro: {} figures, {} workloads x {} instructions, {} worker threads",
        FIGURES.len(),
        ctx.workloads.len(),
        ctx.instructions,
        engine.threads()
    )?;
    match engine.result_store() {
        Some(store) => writeln!(
            out,
            "st repro: result store at {} ({} entries loaded)\n",
            store.dir().display(),
            engine.stats().loaded
        )?,
        None => writeln!(out, "st repro: result store disabled (--no-cache)\n")?,
    }

    let start = Instant::now();
    figures::run_all(&ctx);
    let total = start.elapsed().as_secs_f64();

    let stats = engine.stats();
    writeln!(out, "==================================================================")?;
    writeln!(out, "st repro complete in {total:.2}s; CSVs in {}/", ctx.out_dir.display())?;
    writeln!(
        out,
        "  cache: {} simulated, {} aliased, {} loaded from disk, {} hits / {} misses ({:.1}% hit rate)",
        stats.simulated,
        stats.aliased,
        stats.loaded,
        stats.cache.hits,
        stats.cache.misses,
        100.0 * stats.cache.hit_rate()
    )?;
    Ok(0)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn cmd_bench(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    args.at_most_positional(0)?;
    if args.mode == "bench --store" {
        return bench_store(args.has("--smoke"), out);
    }
    let instr = args.int("--instr")?;
    check_instr_budget(instr)?;
    let mut config = if args.has("--smoke") { BenchConfig::smoke() } else { BenchConfig::full() };
    if let Some(n) = instr {
        config = config.with_measure(n);
    }
    writeln!(
        out,
        "st bench: {} workloads x {} experiments, {} + {} instructions (warm-up + measured)",
        config.workloads.len(),
        config.experiments.len(),
        config.warmup,
        config.measure
    )?;
    let result = st_sweep::bench::run(&config).map_err(Failure::runtime)?;
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
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "st bench: geomean {:.0} simulated instructions/s over {} points ({:.2}s measured)",
        result.geomean_instr_per_sec,
        result.points.len(),
        result.total_seconds
    )?;
    if let Some(err) = &result.determinism_error {
        return Err(Failure::Runtime(format!("DETERMINISM FAILURE: {err}")));
    }
    writeln!(
        out,
        "st bench: determinism probe passed (fresh rerun + cache round-trip bit-identical)"
    )?;
    Ok(0)
}

/// `st bench --store`: times the segment-log result store itself — bulk
/// append of N synthetic entries (20k with `--smoke`, else 1M), a cold
/// reopen (the one sequential index pass of startup), then a read-back
/// of every entry that fails on any difference.
fn bench_store(smoke: bool, out: &mut dyn Write) -> Result<i32, Failure> {
    let entries: u64 = if smoke { 20_000 } else { 1_000_000 };
    writeln!(
        out,
        "st bench --store: {entries} synthetic entries (bulk append, cold open, then \
         every entry read back)"
    )?;
    let result = st_sweep::bench::run_store_bench(entries).map_err(Failure::runtime)?;
    writeln!(
        out,
        "st bench --store: appended {} entries ({} MiB across {} segments) in {:.2}s \
         ({:.0} entries/s)",
        result.entries,
        result.file_bytes / (1024 * 1024),
        result.segments,
        result.write_seconds,
        result.entries as f64 / result.write_seconds.max(1e-9)
    )?;
    writeln!(
        out,
        "st bench --store: cold open (one sequential index pass) in {:.2}s ({:.0} entries/s)",
        result.open_seconds,
        result.entries as f64 / result.open_seconds
    )?;
    writeln!(
        out,
        "st bench --store: read back every entry, each equal to its write, in {:.2}s \
         ({:.0} entries/s)",
        result.read_seconds,
        result.entries as f64 / result.read_seconds
    )?;
    Ok(0)
}

fn cmd_plot(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let path = args.one_positional("JSONL file")?;
    let (Some(x), Some(y)) = (args.value("--x"), args.value("--y")) else {
        return Err(Failure::Usage(
            "--x and --y are required (e.g. --x axis.ruu_size --y ipc)".to_string(),
        ));
    };
    let charts = st_sweep::plot::render(&read_input(path)?, x, y).map_err(Failure::runtime)?;
    write!(out, "{charts}")?;
    Ok(0)
}

/// `st audit`: the deterministic findings engine. Accepts either a
/// sweep JSONL (audits the records as-is) or a spec file ((re)runs the
/// grid cache-first — identical to `st run` — and adds the grid
/// cross-checks). Findings go to stdout; diagnostics and the summary go
/// to stderr; the exit code is the CI gate (0 clean, 4 findings remain).
fn cmd_audit(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let path = args.one_positional("sweep JSONL or spec file")?;
    let min_confidence = match args.value("--min-confidence").map(audit::Confidence::parse) {
        None => audit::Confidence::Low,
        Some(parsed) => parsed.map_err(|e| Failure::Usage(format!("--min-confidence: {e}")))?,
    };
    let jsonl_format = match args.value("--format") {
        None | Some("table") => false,
        Some("jsonl") => true,
        Some(other) => {
            return Err(Failure::Usage(format!(
                "--format expects `table` or `jsonl`, got `{other}`"
            )))
        }
    };
    let allow = match args.value("--allow") {
        None => audit::Allowlist::default(),
        Some(allow_path) => audit::Allowlist::parse(&read_input(allow_path)?)
            .map_err(|e| Failure::Runtime(format!("{allow_path}: {e}")))?,
    };
    let text = read_input(path)?;

    let (records, findings) = if audit::looks_like_records(&text) {
        // JSONL mode: audit the records exactly as the sweep left them.
        let records =
            audit::parse_records(&text).map_err(|e| Failure::Runtime(format!("{path}: {e}")))?;
        let findings = audit::audit(&records);
        (records, findings)
    } else {
        // Spec mode: (re)run the grid cache-first — byte-identical to
        // `st run` — then audit the emitted records against the grid.
        let spec = load_spec(&text, args)?;
        let points = spec.points().map_err(Failure::runtime)?;
        let engine = args.engine()?;
        eprintln!(
            "st audit: sweep `{}`, {} points, {} worker threads",
            spec.name,
            points.len(),
            engine.threads()
        );
        let (reports, pairing) = engine.run_grid(&points);
        let jsonl = sweep_jsonl_with_pairing(&points, &reports, &pairing);
        let records = audit::parse_records(&jsonl).map_err(|e| {
            Failure::Runtime(format!("internal: emitted sweep does not parse: {e}"))
        })?;
        let findings = audit::audit_with_grid(&records, &points);
        (records, findings)
    };

    let total = findings.len();
    let outcome = audit::apply_filters(findings, min_confidence, &allow);
    if jsonl_format {
        write!(out, "{}", audit::findings_jsonl(&outcome.kept))?;
    } else if !outcome.kept.is_empty() {
        writeln!(out, "{}", audit::findings_table(&outcome.kept).render())?;
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

fn cmd_run(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let path = args.one_positional("spec file")?;
    let one_shard = args
        .values("--shard")
        .try_fold(None, |_, v| shard::parse_shard_arg(v).map(Some))
        .map_err(|e| Failure::Usage(e.0))?;
    let spec = load_spec(&read_input(path)?, args)?;
    let points = spec.points().map_err(Failure::runtime)?;
    if let Some(one_shard) = one_shard {
        return run_one_shard(args, &spec, &points, one_shard, out);
    }
    let engine = args.engine()?;
    let bound: Vec<String> = points
        .first()
        .map(|p| p.bindings.iter().map(|(n, _)| (*n).to_string()).collect())
        .unwrap_or_default();
    writeln!(
        out,
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
    )?;
    let start = Instant::now();
    let (reports, pairing) = engine.run_grid(&points);
    let stats = engine.stats();
    writeln!(
        out,
        "st run: complete in {:.2}s ({} simulated, {} loaded from disk, {} aliased, {:.1}% cache hit rate)\n",
        start.elapsed().as_secs_f64(),
        stats.simulated,
        stats.loaded,
        stats.aliased,
        100.0 * stats.cache.hit_rate()
    )?;

    // Emit raw results, tagged with each point's axis bindings; the JSONL
    // document (reports + baseline comparisons) comes from the shared
    // builder the golden tests fingerprint.
    let jsonl = sweep_jsonl_with_pairing(&points, &reports, &pairing);
    let table = sweep_table(&spec.name, &points, &reports);
    writeln!(out, "{}", table.render())?;

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
        writeln!(out, "{}", cmp_table.render())?;
    }
    write_sweep(&args.out_dir(), &spec.name, &jsonl, &table, out)
}

/// Writes a sweep's JSONL document and its table as CSV to
/// `<out_dir>/<name>.jsonl` and `.csv`, and names both on `out`.
fn write_sweep(
    out_dir: &Path,
    name: &str,
    jsonl: &str,
    table: &st_report::Table,
    out: &mut dyn Write,
) -> Result<i32, Failure> {
    let jsonl_path = out_dir.join(format!("{name}.jsonl"));
    let csv_path = out_dir.join(format!("{name}.csv"));
    write_text(&jsonl_path, jsonl).map_err(|e| cannot_write(&jsonl_path, e))?;
    st_report::write_csv(table, &csv_path).map_err(|e| cannot_write(&csv_path, e))?;
    writeln!(out, "  [jsonl] {}", jsonl_path.display())?;
    writeln!(out, "  [csv]   {}", csv_path.display())?;
    Ok(0)
}

/// The failure to write the output file `path`.
fn cannot_write(path: &Path, e: io::Error) -> Failure {
    Failure::Runtime(format!("could not write {}: {e}", path.display()))
}

/// `st run --shard I/N`: execute one shard of the grid on the engine's
/// worker pool and write the shard document for a later `st merge`.
fn run_one_shard(
    args: &Args,
    spec: &SweepSpec,
    points: &[st_sweep::SweepPoint],
    (index, of): (usize, usize),
    out: &mut dyn Write,
) -> Result<i32, Failure> {
    let plan = shard::ShardPlan::for_points(points, of).map_err(Failure::runtime)?;
    let engine = args.engine()?;
    writeln!(
        out,
        "st run: shard {index}/{of} of sweep `{}`: {} of {} points in range, {} worker threads",
        spec.name,
        plan.members(index).len(),
        plan.points(),
        engine.threads()
    )?;
    let start = Instant::now();
    let document = shard::run_shard(spec, points, &plan, index, &engine);
    let stats = engine.stats();
    writeln!(
        out,
        "st run: shard {index}/{of} complete in {:.2}s ({} simulated, {} loaded from disk, {} aliased)",
        start.elapsed().as_secs_f64(),
        stats.simulated,
        stats.loaded,
        stats.aliased,
    )?;
    let path = shard::shard_path(&args.out_dir(), &spec.name, index);
    write_text(&path, &document).map_err(|e| cannot_write(&path, e))?;
    writeln!(out, "  [shard] {}", path.display())?;
    Ok(0)
}

fn cmd_merge(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    if args.positional.is_empty() {
        return Err(Failure::Usage("expected at least one shard file".to_string()));
    }
    let documents: Vec<String> =
        args.positional.iter().map(|path| read_input(path)).collect::<Result<_, _>>()?;
    let merged = shard::merge(&documents).map_err(Failure::runtime)?;

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
    writeln!(out, "{}", diag.render())?;
    writeln!(
        out,
        "st merge: {} points reassembled from {} shard files ({} records, {} duplicate)",
        merged.stats.points, merged.stats.shards, merged.stats.records, merged.stats.duplicates,
    )?;
    let table = sweep_table(&merged.spec.name, &merged.points, &merged.reports);
    write_sweep(&args.out_dir(), &merged.spec.name, &merged.jsonl, &table, out)
}

fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    // `stop` is the one word `serve` takes.
    let stop = args.mode == "serve stop";
    if let Some(unexpected) = args.positional.get(usize::from(stop)) {
        return Err(Failure::Usage(format!(
            "unexpected argument `{unexpected}` (try `st serve stop`)"
        )));
    }
    let addr = args.service_addr();
    if stop {
        client::shutdown(&addr).map_err(Failure::runtime)?;
        writeln!(out, "st serve: service at {addr} is shutting down")?;
        return Ok(0);
    }
    if args.mode == "serve --fleet" {
        return serve_fleet(args, &addr, out);
    }
    let config = ServiceConfig {
        out: args.out_dir(),
        threads: args.int("--threads")?.unwrap_or(0),
        no_cache: args.has("--no-cache"),
        max_store_bytes: args.int("--max-bytes")?,
    };
    let server = service::Server::bind(&addr, &config)
        .map_err(|e| Failure::Runtime(format!("cannot bind {addr}: {e}")))?;
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
    serve_banner(out, server.local_addr(), &details);
    server.run().map_err(|e| Failure::Runtime(format!("server failed: {e}")))?;
    let stats = server.service().engine().stats();
    writeln!(
        out,
        "st serve: shut down gracefully ({} points simulated this run, {} aliased, {} cache entries warm)",
        stats.simulated, stats.aliased, stats.cache.entries
    )?;
    Ok(0)
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

/// `st serve --fleet`: run the coordinator tier — partition, stream,
/// merge — at `addr` instead of a local simulation service.
fn serve_fleet(args: &Args, addr: &str, out: &mut dyn Write) -> Result<i32, Failure> {
    let workers: Vec<String> = args
        .value("--fleet")
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect();
    if workers.is_empty() {
        return Err(Failure::Usage(
            "expected a comma-separated worker list (w1:port,w2:port)".to_string(),
        ));
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
        return Err(Failure::Usage("--max-inflight must be at least 1 (0 admits nothing)".into()));
    }
    let server = FleetServer::bind(addr, &config)
        .map_err(|e| Failure::Runtime(format!("cannot bind {addr}: {e}")))?;
    service::install_sigint_handler();
    let details = format!(
        "fleet coordinator over {} worker(s): {}; {} submissions in flight max, \
         {}s worker timeout",
        config.workers.len(),
        config.workers.join(", "),
        config.max_inflight,
        config.worker_timeout.as_secs()
    );
    serve_banner(out, server.local_addr(), &details);
    server.run().map_err(|e| Failure::Runtime(format!("coordinator failed: {e}")))?;
    writeln!(out, "st serve: fleet shut down gracefully: {}", server.fleet().status_json())?;
    Ok(0)
}

/// `st loadgen`: measured concurrent load against a running service or
/// fleet, recorded into a `BENCH_service.json`-format file when given
/// `--bench-json`.
fn cmd_loadgen(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let path = args.one_positional("spec file")?;
    let smoke = args.has("--smoke");
    let config = LoadgenConfig {
        addr: args.service_addr(),
        clients: args.int("--clients")?.unwrap_or(if smoke { 2 } else { 8 }),
        submissions: args.int("--submissions")?.unwrap_or(if smoke { 4 } else { 32 }),
    };
    // Parse locally first, like `st submit`: a bad spec fails fast
    // instead of counting as N server-side failures.
    let text = read_input(path)?;
    let spec = load_spec(&text, args)?;
    writeln!(
        out,
        "st loadgen: sweep `{}`: {} submissions over {} clients against {}",
        spec.name, config.submissions, config.clients, config.addr,
    )?;
    let result = loadgen::run(&config, &text, &mut io::stderr()).map_err(Failure::Usage)?;
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
    if let Some(path) = args.value("--bench-json").map(Path::new) {
        loadgen::update_service(path, &result.to_section(unix_now()))
            .map_err(|e| cannot_write(path, e))?;
        writeln!(out, "  [perf] {}", path.display())?;
    }
    if result.submissions == 0 {
        return Err(Failure::Runtime("every submission failed".to_string()));
    }
    Ok(0)
}

fn cmd_submit(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let path = args.one_positional("spec file")?;
    // Parse locally first: a bad spec fails fast with the usual
    // diagnostics, without a server round-trip (the server re-parses the
    // same bytes authoritatively).
    let text = read_input(path)?;
    let spec = load_spec(&text, args)?;
    let addr = args.service_addr();
    // Records go to stdout (pipe to a file for the canonical JSONL);
    // everything human-facing goes to stderr. A failed write to stdout
    // ends the stream and the command, quietly when the reader hung up.
    let (mut bytes, mut stdout_error) = (0, None);
    let streamed = client::submit_each(&addr, &text, &mut |record| {
        bytes += record.len() + 1;
        writeln!(out, "{record}").map_err(|e| ClientError(stdout_error.insert(e).to_string()))
    });
    if let Some(e) = stdout_error {
        return Err(Failure::Stdout(e));
    }
    streamed.map_err(Failure::runtime)?;
    eprintln!("st submit: sweep `{}` streamed from {addr} ({bytes} bytes of JSONL)", spec.name);
    Ok(0)
}

fn cmd_status(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    args.at_most_positional(0)?;
    let body = client::status(&args.service_addr()).map_err(Failure::runtime)?;
    writeln!(out, "{body}")?;
    Ok(0)
}

fn cmd_cache(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    args.at_most_positional(1)?;
    let store_dir = LogStore::dir_under(&args.out_dir());
    match args.positional.first().map(String::as_str) {
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
            writeln!(
                out,
                "result store at {}: {} entries ({} KiB live), {} skipped corrupt",
                store.dir().display(),
                s.entries,
                s.live_bytes / 1024,
                s.skipped_corrupt + unreadable
            )?;
            if !by_experiment.is_empty() {
                let parts: Vec<String> =
                    by_experiment.iter().map(|(e, n)| format!("{e} {n}")).collect();
                writeln!(out, "  by experiment: {}", parts.join(", "))?;
            }
            writeln!(out, "  (per-run hit rates are printed by `st run` / `st repro`)")?;
        }
        Some("stats") => {
            let store = LogStore::open(&store_dir);
            let s = store.stats();
            writeln!(out, "result store at {}:", store.dir().display())?;
            writeln!(out, "  entries          {}", s.entries)?;
            writeln!(out, "  live bytes       {}", s.live_bytes)?;
            writeln!(out, "  dead bytes       {}", s.dead_bytes)?;
            writeln!(out, "  file bytes       {}", s.file_bytes)?;
            writeln!(out, "  segments         {}", s.segments)?;
            writeln!(out, "  live ratio       {:.3}", s.live_ratio())?;
            writeln!(out, "  skipped corrupt  {}", s.skipped_corrupt)?;
            writeln!(out, "  torn tail bytes  {}", s.torn_tail_bytes)?;
            writeln!(out, "  evictions        {}", s.evictions)?;
            writeln!(out, "  compactions      {}", s.compactions)?;
        }
        Some("compact") => {
            let c = LogStore::open(&store_dir).compact().map_err(Failure::runtime)?;
            writeln!(
                out,
                "st cache compact: {} live records rewritten, {} -> {} bytes \
                 ({} corrupt frames dropped)",
                c.live_records, c.before_bytes, c.after_bytes, c.dropped_corrupt
            )?;
        }
        Some("evict") => {
            let max = args
                .int("--max-bytes")?
                .ok_or_else(|| Failure::Usage("--max-bytes N is required".to_string()))?;
            let ev = LogStore::open(&store_dir).evict_to_budget(max).map_err(Failure::runtime)?;
            writeln!(
                out,
                "st cache evict: {} entries ({} bytes) evicted; store is {} bytes \
                 (budget {max})",
                ev.evicted, ev.evicted_bytes, ev.file_bytes
            )?;
        }
        Some("clear") => {
            let removed = LogStore::open(&store_dir).stats().entries;
            match std::fs::remove_dir_all(&store_dir) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => {
                    let dir = store_dir.display();
                    return Err(Failure::Runtime(format!("could not clear {dir}: {e}")));
                }
                _ => {}
            }
            writeln!(out, "result store at {}: removed {removed} entries", store_dir.display())?;
        }
        Some(other) => {
            return Err(Failure::Usage(format!(
                "unknown action `{other}` (try `show`, `stats`, `compact`, `evict` or `clear`)"
            )))
        }
    }
    Ok(0)
}

/// `st calibrate`: probe the generative workload families across a seed
/// range and report how far each derived member's realized gshare
/// miss rate lands from its family target. Exits 4 when any probed
/// member falls outside its family tolerance — the CI gate for the
/// generative suite — and writes the table as CSV for the workflow
/// artifact when `--csv` is given.
fn cmd_calibrate(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    args.at_most_positional(0)?;
    let seeds: u64 = args.int("--seeds")?.unwrap_or(8);
    if seeds == 0 {
        return Err(Failure::Usage("--seeds must be at least 1".to_string()));
    }
    let family_filter = args.value("--family");
    let families: Vec<&st_workloads::Family> = st_workloads::families()
        .iter()
        .filter(|f| family_filter.is_none_or(|want| want == f.name))
        .collect();
    if families.is_empty() {
        let known: Vec<&str> = st_workloads::families().iter().map(|f| f.name).collect();
        return Err(Failure::Usage(format!(
            "unknown family `{}` (known: {})",
            family_filter.unwrap_or_default(),
            known.join(", ")
        )));
    }
    // Bound the member list before building it, as a spec's grid is.
    let count = families.len() as u128 * u128::from(seeds);
    let families_named = format!("famil{}", if families.len() == 1 { "y" } else { "ies" });
    if count > axes::MAX_GRID_POINTS as u128 {
        return Err(Failure::Usage(format!(
            "--seeds {seeds} over {} {families_named} is {count} members (limit {})",
            families.len(),
            axes::MAX_GRID_POINTS
        )));
    }

    writeln!(
        out,
        "st calibrate: {} {families_named} x {seeds} seeds (gshare miss-rate targets)",
        families.len()
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
    if let Some(path) = args.value("--csv") {
        std::fs::write(path, csv_text)
            .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))?;
        writeln!(out, "st calibrate: wrote {path}")?;
    }
    if out_of_tolerance > 0 {
        eprintln!("st calibrate: {out_of_tolerance} member(s) outside family tolerance");
        return Ok(4);
    }
    writeln!(out, "st calibrate: all probed members within tolerance")?;
    Ok(0)
}

fn cmd_list(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let what = args.positional.first().map_or("all", String::as_str);
    if !["all", "workloads", "experiments", "axes", "figures"].contains(&what) {
        return Err(Failure::Usage(format!(
            "unknown category `{what}` (try workloads|experiments|figures|axes)"
        )));
    }
    args.at_most_positional(1)?;
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
    }
    if matches!(what, "all" | "experiments") {
        writeln!(out, "experiments:")?;
        for e in all_experiments() {
            writeln!(out, "  {:<5} {}", e.id, e.label)?;
        }
        writeln!(out)?;
    }
    if matches!(what, "all" | "axes") {
        writeln!(out, "sweep axes (bind via `axis.<name>` spec keys or `st run --set`):")?;
        // Each column as wide as its widest cell, header included.
        let rows: Vec<[String; 5]> =
            std::iter::once(["axis", "domain", "default", "paper", "controls"].map(String::from))
                .chain(axes::registry().iter().map(|a| {
                    [a.name, &a.domain.describe(), &a.default.canonical(), a.paper, a.summary]
                        .map(String::from)
                }))
                .collect();
        let [w0, w1, w2, w3] =
            [0, 1, 2, 3].map(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0));
        for [name, domain, default, paper, controls] in &rows {
            writeln!(out, "  {name:<w0$} {domain:<w1$} {default:>w2$}  {paper:<w3$} {controls}")?;
        }
        writeln!(out)?;
    }
    if matches!(what, "all" | "figures") {
        writeln!(out, "figures/tables (`st repro` regenerates all of these):")?;
        for figure in FIGURES {
            writeln!(out, "  {}", figure.name)?;
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::{Args, Failure, Takes, FLAGS, SUBCOMMANDS, USAGE};

    /// Every mode: the subcommands, and the four that a positional word
    /// or a flag picks.
    const MODES: [&str; 17] = [
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
        "list",
        "cache",
        "cache evict",
    ];

    /// The message of a usage mistake.
    fn usage(failure: Failure) -> String {
        match failure {
            Failure::Usage(message) => message,
            other => panic!("not a usage mistake: {other:?}"),
        }
    }

    /// Reads `argv` as `st <sub>` does before running it: the message of
    /// a usage mistake, or the command line.
    fn read(sub: &'static str, argv: &[String]) -> Result<Args, String> {
        let args = Args::parse(sub, argv).map_err(usage)?;
        args.refuse_flags_of_other_modes().map_err(usage)?;
        Ok(args)
    }

    /// Reads `st <mode> <given>...`, giving every flag that takes a
    /// value the value `0`: a flag given as `0` is still given.
    fn parse(mode: &str, given: &[&str]) -> Result<Args, String> {
        let mut words = mode.split(' ');
        let first = words.next().expect("a mode starts with its subcommand");
        let (sub, ..) = SUBCOMMANDS.iter().find(|(sub, ..)| *sub == first).expect("a subcommand");
        let mut argv = Vec::new();
        for word in words.chain(given.iter().copied()) {
            argv.push(word.to_string());
            if FLAGS.iter().any(|f| f.name == word && f.takes != Takes::Nothing) {
                argv.push("0".to_string());
            }
        }
        read(sub, &argv)
    }

    #[test]
    fn each_mode_takes_its_flags_and_refuses_every_other_in_one_message() {
        for mode in MODES {
            let takes: Vec<&str> =
                FLAGS.iter().filter(|f| f.modes.contains(&mode)).map(|f| f.name).collect();
            assert_eq!(takes.is_empty(), mode == "list", "{mode} takes {takes:?}");
            let refusal = if takes.is_empty() { "takes no flags (" } else { "only " };
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
                        assert!(e.starts_with(refusal), "{e}");
                        assert!(e.contains(&format!("({} is for st ", flag.name)), "{e}");
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
                "only --addr apply (--threads is for st repro, st run, st serve and st audit)",
            ),
            (
                "plot",
                "--out",
                "only --x and --y apply (--out is for st repro, st run, st merge, st serve, \
                 st audit, st cache and st cache evict)",
            ),
            ("serve stop", "--fleet", "only --addr apply (--fleet is for st serve --fleet)"),
            (
                "repro",
                "--bench-json",
                "only --threads, --instr, --out and --no-cache apply (--bench-json is for \
                 st loadgen)",
            ),
            ("list", "--seeds", "takes no flags (--seeds is for st calibrate)"),
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
        assert_eq!(table.len(), 24);
        let mut modes: Vec<&str> = FLAGS.iter().flat_map(|f| f.modes.iter().copied()).collect();
        modes.sort_unstable();
        modes.dedup();
        let mut expected: Vec<&str> = MODES.into_iter().filter(|&m| m != "list").collect();
        expected.sort_unstable();
        assert_eq!(modes, expected);
        assert!(SUBCOMMANDS.iter().all(|(sub, ..)| MODES.contains(sub)));
    }

    #[test]
    fn integers_take_underscores_and_nothing_else() {
        let argv = |v: &str| ["--max-bytes".to_string(), v.to_string()];
        let args = read("serve", &argv("64_000_000")).expect("underscores separate digits");
        assert_eq!(args.int::<u64>("--max-bytes").map_err(usage), Ok(Some(64_000_000)));
        for bad in ["", "x", "-1", "1.5", "1e3", "18446744073709551616"] {
            let e = read("serve", &argv(bad)).err().expect("refused");
            assert!(e.starts_with("--max-bytes expects "), "{e}");
        }
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
            let (sub, ..) = SUBCOMMANDS[sub];
            match read(sub, &argv) {
                Ok(args) => {
                    prop_assert!(args.mode.starts_with(sub), "{} for {}", args.mode, sub);
                    for (flag, _) in &args.flags {
                        prop_assert!(flag.modes.contains(&args.mode), "{} took {}", args.mode, flag.name);
                        if flag.takes == Takes::Int {
                            let _ = args.int::<u32>(flag.name);
                        }
                    }
                }
                Err(e) => prop_assert!(!e.is_empty(), "an empty message for st {}", sub),
            }
        }
    }
}
