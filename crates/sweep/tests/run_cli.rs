//! CLI contracts of the sweep-running subcommands through the real `st`
//! binary: an oversized grid or seed range is a one-line error, not an
//! allocation abort, a table size the simulator cannot build is a spec
//! error before anything runs, a plain `st repro` writes only under
//! `--out` and its CSVs and printed figures keep their pinned bytes, a
//! killed `st run` keeps every point it finished, a reader that hangs
//! up early ends `st list`, `st calibrate` and `st repro` quietly, every
//! failure is reported once, under its mode, with the exit code of its
//! kind, and `st list axes` prints its columns in line.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use st_sweep::job::fnv1a64;

fn st() -> Command {
    Command::new(env!("CARGO_BIN_EXE_st"))
}

/// A fresh, empty directory unique to this test process and `name`.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("st-run-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create an empty dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

/// Runs `cmd` to completion; fails the test, killing the child, if it
/// runs longer than `limit`.
fn output_within(cmd: &mut Command, limit: Duration) -> Output {
    let start = Instant::now();
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("spawns");
    while child.try_wait().expect("polls the child").is_none() {
        if start.elapsed() > limit {
            let _ = child.kill();
            panic!("{cmd:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().expect("collects output")
}

#[test]
fn an_oversized_seed_range_is_a_usage_error_naming_count_and_limit() {
    let limit = format!("(limit {})", st_sweep::axes::MAX_GRID_POINTS);
    let mut widest = st();
    widest.args(["calibrate", "--seeds", "18446744073709551615"]);
    // Under a 4 GB address-space cap, where building the member list
    // used to abort.
    let mut capped = Command::new("sh");
    capped.args(["-c", "ulimit -v 4000000 && exec \"$0\" calibrate --seeds 10000000"]);
    capped.arg(env!("CARGO_BIN_EXE_st"));
    for (mut cmd, count) in
        [(widest, "is 73786976294838206460 members"), (capped, "is 40000000 members")]
    {
        let out = output_within(&mut cmd, Duration::from_secs(1));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{cmd:?}: {err}");
        assert!(err.starts_with("st calibrate: --seeds "), "{err}");
        assert!(err.contains(count) && err.contains(&limit), "{err}");
    }
    let out = st().args(["calibrate", "--seeds", "2"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn a_reader_that_hangs_up_ends_list_and_calibrate_quietly() {
    for args in [&["list"][..], &["calibrate", "--seeds", "2"]] {
        // Hang up after one line, and before reading anything.
        for read_a_line in [true, false] {
            let mut child = st()
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawns");
            let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
            if read_a_line {
                let mut line = String::new();
                reader.read_line(&mut line).expect("reads a line");
                assert!(line.ends_with('\n'), "st {args:?} printed {line:?}");
            }
            drop(reader);
            let out = child.wait_with_output().expect("waits");
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(0), "st {args:?}: {err}");
            assert!(!err.contains("panicked"), "st {args:?}: {err}");
        }
    }
}

#[test]
fn a_reader_that_hangs_up_ends_repro_quietly() {
    let out_dir = empty_dir("repro-hangup");
    let mut child = st()
        .args(["repro", "--instr", "2000", "--no-cache", "--threads", "1", "--out"])
        .arg(&out_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("reads a line");
    assert!(line.starts_with("st repro: "), "{line:?}");
    // The figures are printed after the batch, so the pipe is closed by
    // the time they are written.
    drop(reader);
    let out = child.wait_with_output().expect("waits");
    let err = stderr(&out);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn an_oversized_grid_is_a_runtime_error_naming_count_and_limit() {
    let dir = empty_dir("oversized");
    let spec = dir.join("huge.toml");
    std::fs::write(
        &spec,
        "name = \"huge\"\n\
         workloads = [\"go\"]\n\
         experiments = [\"C2\"]\n\
         \n\
         [axis]\n\
         ruu_size = \"2..4096\"\n\
         lsq_size = \"2..2048\"\n\
         fetch_width = \"1..16\"\n",
    )
    .expect("write spec");
    let out = st().arg("run").arg(&spec).arg("--out").arg(dir.join("out")).output().expect("runs");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("st run: sweep spec error"), "{err}");
    assert!(err.contains("251289720 points"), "{err}");
    assert!(err.contains(&format!("limit {}", st_sweep::axes::MAX_GRID_POINTS)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_non_power_of_two_table_size_is_a_spec_error_not_a_panic() {
    let dir = empty_dir("kb");
    let spec = dir.join("kb.toml");
    std::fs::write(
        &spec,
        "name = \"kb\"\nworkloads = [\"go\"]\nexperiments = [\"C2\"]\n\n[axis]\n\
         instructions = 2000\n",
    )
    .expect("write spec");
    for axis in ["predictor_kb", "estimator_kb"] {
        let out = output_within(
            st().arg("run")
                .arg(&spec)
                .args(["--set", &format!("{axis}=3"), "--no-cache", "--threads", "1", "--out"])
                .arg(dir.join("out")),
            Duration::from_secs(10),
        );
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{axis}: {err}");
        assert!(!err.contains("panicked"), "{axis}: {err}");
        assert!(err.contains(&format!("axis `{axis}` value 3 outside its domain")), "{err}");
        assert!(!dir.join("out").exists(), "{axis}: refused before anything ran");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_instruction_budget_outside_the_axis_domain_is_a_usage_error() {
    let domain = "is not in the instructions domain 1..=10000000000";
    let bench_json = "(--bench-json is for st loadgen)";
    let cases: [(&[&str], String); 5] = [
        (&["repro", "--instr", "0"], format!("st repro: --instr=0 {domain}")),
        (&["repro", "--instr", "20000000000"], format!("st repro: --instr=20000000000 {domain}")),
        (&["bench", "--smoke", "--instr", "0"], format!("st bench: --instr=0 {domain}")),
        (&["repro", "--bench-json", "b.json"], "st repro: only".to_string()),
        (&["bench", "--bench-json", "b.json"], "st bench: only".to_string()),
    ];
    let dir = empty_dir("bad-budget");
    for (args, prefix) in cases {
        let out = output_within(st().args(args).current_dir(&dir), Duration::from_secs(1));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.starts_with(&prefix), "{args:?}: {err}");
        assert!(!args.contains(&"--bench-json") || err.contains(bench_json), "{args:?}: {err}");
    }
    // Nothing ran, so nothing was written; `st repro --instr 2000`
    // still runs (a_plain_repro_writes_nothing_outside_its_out_dir).
    assert_eq!(std::fs::read_dir(&dir).expect("list dir").count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fnv1a64` over every CSV `st repro --instr 2000` writes (22 files:
/// each file name, a NUL, then its bytes, in file-name order). The CSVs
/// do not depend on the thread count.
const REPRO_CSVS_FNV: u64 = 8290212466170060542;

/// `fnv1a64` over the figures' printed output of `st repro --instr 2000`:
/// stdout after the `st repro:` header lines and before the
/// `st repro complete` line, with the out-dir path masked as `<out>`.
const REPRO_STDOUT_FNV: u64 = 17017926170950584882;

#[test]
fn a_plain_repro_writes_nothing_outside_its_out_dir() {
    let cwd = empty_dir("repro-cwd");
    let out_dir = cwd.join("out");
    let out = st()
        .args(["repro", "--instr", "2000", "--threads", "1", "--out"])
        .arg(&out_dir)
        .current_dir(&cwd)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", stderr(&out));
    let mut left: Vec<String> = std::fs::read_dir(&cwd)
        .expect("list cwd")
        .map(|e| e.expect("entry").file_name().to_string_lossy().to_string())
        .collect();
    left.sort();
    assert_eq!(left, vec!["out".to_string()], "no timing file outside --out");

    // The bytes the paper's figures come to: every CSV and every printed
    // table.
    let mut csvs: Vec<String> = std::fs::read_dir(&out_dir)
        .expect("list out")
        .map(|e| e.expect("entry").file_name().to_string_lossy().to_string())
        .filter(|name| name.ends_with(".csv"))
        .collect();
    csvs.sort();
    assert_eq!(csvs.len(), 22, "{csvs:?}");
    let mut bytes = Vec::new();
    for name in &csvs {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend(std::fs::read(out_dir.join(name)).expect("read csv"));
    }
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    // 536 requests over 440 distinct points, in one batch: 384 machines
    // simulated, and 56 points served as another point's machine.
    let cache = "384 simulated, 56 aliased, 0 loaded from disk, 96 hits / 440 misses";
    assert!(stdout.contains(cache), "{stdout}");
    let figures: String = stdout
        .lines()
        .skip_while(|line| line.starts_with("st repro: "))
        .take_while(|line| !line.starts_with("st repro complete"))
        .map(|line| format!("{line}\n"))
        .collect();
    let figures = figures.replace(out_dir.to_str().expect("utf-8 path"), "<out>");
    let got = (fnv1a64(&bytes), fnv1a64(figures.as_bytes()));
    assert_eq!(
        got,
        (REPRO_CSVS_FNV, REPRO_STDOUT_FNV),
        "st repro's CSVs or printed figures moved; stdout:\n{figures}"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn a_killed_run_keeps_its_finished_points_in_the_store() {
    let dir = empty_dir("killed");
    let spec = dir.join("kill.toml");
    // At one thread the short point runs first; the second would run for
    // hours, so the run is always killed inside it.
    std::fs::write(
        &spec,
        "name = \"kill\"\nworkloads = [\"go\"]\nbaseline = false\n\n\
         [axis]\ninstructions = [2_000, 10_000_000_000]\n",
    )
    .expect("write spec");
    let out = dir.join("out");
    let mut child = st()
        .arg("run")
        .arg(&spec)
        .args(["--threads", "1", "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn st run");

    // Poll a copy of the segment log (opening the live one could race
    // the child's appends) until it holds the short point.
    let segment = st_sweep::LogStore::dir_under(&out).join("seg-0.log");
    let probe = dir.join("probe");
    let deadline = Instant::now() + Duration::from_secs(120);
    let seen = loop {
        if let Some(status) = child.try_wait().expect("poll st run") {
            break Err(format!("st run exited ({status}) inside a point of 10^10 instructions"));
        }
        if Instant::now() > deadline {
            break Err("the finished point never reached the store".to_string());
        }
        let _ = std::fs::remove_dir_all(&probe);
        std::fs::create_dir_all(&probe).expect("probe dir");
        if std::fs::copy(&segment, probe.join("seg-0.log")).is_ok()
            && st_sweep::LogStore::open(&probe).stats().entries == 1
        {
            break Ok(());
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let _ = child.kill();
    let _ = child.wait();
    seen.expect("the short point is stored while the run is still going");

    // Resume with the endless point swapped for another short one: the
    // rerun loads the stored point, simulates only the new one, and
    // writes what a fresh run writes.
    let resumed = ["--set", "instructions=2_000,6_000", "--threads", "1", "--out"];
    let rerun = st().arg("run").arg(&spec).args(resumed).arg(&out).output().expect("rerun runs");
    let reference = dir.join("reference");
    let fresh = st().arg("run").arg(&spec).args(resumed).arg(&reference).arg("--no-cache").output();
    assert!(fresh.expect("reference runs").status.success());
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(rerun.status.success(), "{}", stderr(&rerun));
    assert!(stdout.contains("(1 simulated, 1 loaded from disk"), "{stdout}");
    for file in ["kill.jsonl", "kill.csv"] {
        let read = |d: &PathBuf| std::fs::read(d.join(file)).expect("output written");
        assert_eq!(read(&out), read(&reference), "{file} must match a fresh run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The failure contract of every subcommand: the first stderr line is
/// `st <mode>: <message>`, a usage mistake exits 2 with USAGE after its
/// message, and any other failure exits 1 without it.
#[test]
fn every_failure_is_reported_under_its_mode_with_the_exit_code_of_its_kind() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let dir = empty_dir("contract");
    // A store of one entry whose compaction cannot create its temporary
    // segment, because a directory holds the name.
    let one = dir.join("one.toml");
    std::fs::write(
        &one,
        "name = \"one\"\nworkloads = [\"go\"]\nbaseline = false\n\n[axis]\ninstructions = 2000\n",
    )
    .expect("write spec");
    let store = dir.join("store");
    let out = st().arg("run").arg(&one).args(["--threads", "1", "--out"]).arg(&store).output();
    assert!(out.expect("st run runs").status.success());
    std::fs::create_dir(st_sweep::LogStore::dir_under(&store).join("seg-1.log.tmp"))
        .expect("block the compaction's temporary segment");
    let store = store.to_str().expect("utf-8 path");
    let dead = "127.0.0.1:1";
    let cases: [(&[&str], i32, &str); 20] = [
        (&["cache", "bogus"], 2, "st cache: unknown action"),
        (&["cache", "clear", "everything", "--out", store], 2, "st cache: unexpected argument"),
        (&["cache", "evict", "--max-bytes", "1", "--out", store], 1, "st cache evict: "),
        (&["list", "nope"], 2, "st list: unknown category"),
        (&["list", "experiments", "bogus"], 2, "st list: unexpected argument `bogus`"),
        (&["list", "--out", "x"], 2, "st list: takes no flags (--out is for st repro"),
        (&["calibrate", "--family", "nope"], 2, "st calibrate: unknown family"),
        (&["loadgen", spec, "--clients", "0"], 2, "st loadgen: loadgen needs at least one"),
        (&["serve", "stop", "--addr", dead], 1, "st serve stop: cannot connect"),
        (&["serve", "--fleet", dead, "--addr", "256.0.0.1:0"], 1, "st serve --fleet: cannot bind"),
        (&["serve", "--no-cache", "--addr", "256.0.0.1:0"], 1, "st serve: cannot bind"),
        (&["submit", "/nonexistent.toml"], 1, "st submit: cannot read"),
        (&["status", "--addr", dead], 1, "st status: cannot connect"),
        (&["run", "/nonexistent.toml"], 1, "st run: cannot read"),
        (&["repro", "--instr", "0"], 2, "st repro: --instr=0 is not in"),
        (&["bench", "--store", "--instr", "5"], 2, "st bench --store: only --smoke and --store"),
        (&["merge", "/nonexistent.jsonl"], 1, "st merge: cannot read"),
        (&["plot", "/nonexistent.jsonl", "--x", "a", "--y", "b"], 1, "st plot: cannot read"),
        (&["audit", "/nonexistent.jsonl"], 1, "st audit: cannot read"),
        (&["bogus"], 2, "st: unknown subcommand `bogus`"),
    ];
    for (args, code, prefix) in cases {
        let out = output_within(st().args(args).current_dir(&dir), Duration::from_secs(10));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(code), "st {args:?}: {err}");
        let first = err.lines().next().unwrap_or_default();
        assert!(first.starts_with(prefix), "st {args:?}: {err}");
        let usage = err.lines().skip(1).any(|line| line == "USAGE:");
        assert_eq!(usage, code == 2, "st {args:?}: USAGE after the message: {err}");
        assert!(!err.contains("panicked"), "st {args:?}: {err}");
    }
    let segment = st_sweep::LogStore::dir_under(Path::new(store)).join("seg-0.log");
    assert!(segment.is_file(), "a refused `st cache clear` keeps the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_axes_prints_every_column_in_line() {
    let out = st().args(["list", "axes"]).output().expect("runs");
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let rows: Vec<&str> = stdout.lines().skip(1).take_while(|line| !line.is_empty()).collect();
    let registry = st_sweep::axes::registry();
    assert_eq!(rows.len(), registry.len() + 1, "{stdout}");
    let header = ["default", "paper", "controls"].map(String::from);
    let cells = std::iter::once(header)
        .chain(registry.iter().map(|a| [a.default.canonical(), a.paper.into(), a.summary.into()]));
    // Character columns, not bytes: some `paper` cells hold `§`.
    let column = |row: &str, byte: usize| row[..byte].chars().count();
    let mut columns = Vec::new();
    for (row, [default, paper, controls]) in rows.iter().zip(cells) {
        assert!(row.ends_with(&controls), "{row}");
        let controls_start = row.len() - controls.len();
        let default_start =
            row[..controls_start].find(&format!("{default}  {paper}")).expect("default cell");
        columns.push((column(row, default_start + default.len()), column(row, controls_start)));
    }
    assert!(columns.iter().all(|&c| c == columns[0]), "{columns:?}\n{stdout}");
}
