//! End-to-end test of the sweep service through the real `st` binary:
//! a background `st serve` process, `st submit` streaming to stdout,
//! `st status` counters, graceful `st serve stop` — and the acceptance
//! bar that the streamed JSONL is byte-identical to a single-process
//! `st run --no-cache` of the same spec. Also audits the CLI exit-code
//! contract: every user error prints a one-line diagnostic to stderr
//! and exits non-zero (1 for runtime errors, 2 for usage errors).

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

fn st() -> Command {
    Command::new(env!("CARGO_BIN_EXE_st"))
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("st binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "`{cmd:?}` failed with {}:\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Asserts a user error: the given exit code, plus a one-line
/// diagnostic on stderr prefixed with the subcommand's name.
fn assert_user_error(cmd: &mut Command, code: i32, prefix: &str) -> String {
    let out = cmd.output().expect("st binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(code), "`{cmd:?}`:\n{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with(prefix),
        "`{cmd:?}` diagnostic should start with `{prefix}`, got:\n{stderr}"
    );
    stderr
}

#[test]
fn serve_submit_status_round_trip_is_byte_identical_and_cache_warm() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let tmp = std::env::temp_dir().join(format!("st-service-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let single = tmp.join("single");
    let served = tmp.join("served");

    // Reference: one process, no cache.
    run_ok(st().args(["run", spec, "--no-cache", "--threads", "1", "--out"]).arg(&single));
    let reference = read(&single.join("axes-demo.jsonl"));

    // The daemon on an ephemeral port; the first stdout line names it.
    let mut server = st()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--out"])
        .arg(&served)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("st serve spawns");
    let mut lines = BufReader::new(server.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    lines.read_line(&mut banner).expect("server banner");
    let addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .unwrap_or_else(|| panic!("no address in banner `{banner}`"))
        .to_string();

    // First submission simulates all 12 points and streams the exact
    // bytes `st run` writes.
    let first = run_ok(st().args(["submit", spec, "--addr", &addr]));
    assert_eq!(first, reference, "streamed JSONL must be byte-identical to `st run --no-cache`");

    // Second submission of the same spec: 100% warm cache, same bytes.
    let second = run_ok(st().args(["submit", spec, "--addr", &addr]));
    assert_eq!(second, first, "warm-cache stream must not drift");

    // The 12-point grid holds 8 distinct fingerprints (gating_threshold
    // only reshapes the A7 configuration), so the engine simulates 8 and
    // serves 24 records across the two submissions.
    let status = run_ok(st().args(["status", "--addr", &addr]));
    assert!(status.contains("\"kind\":\"status\""), "{status}");
    assert!(status.contains("\"submissions\":2"), "{status}");
    assert!(status.contains("\"points_simulated\":8"), "each distinct point once: {status}");
    assert!(status.contains("\"points_served\":24"), "served twice: {status}");
    assert!(status.contains("\"cache_entries\":8"), "{status}");

    // The service's write-through cache serves a plain `st run` too.
    let stdout = run_ok(st().args(["run", spec, "--threads", "1", "--out"]).arg(&served));
    assert!(stdout.contains("0 simulated"), "service cache should serve every point:\n{stdout}");

    // Graceful shutdown: the daemon drains and exits 0.
    run_ok(st().args(["serve", "stop", "--addr", &addr]));
    let status = server.wait().expect("server exits");
    assert!(status.success(), "graceful shutdown must exit 0, got {status}");

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn user_errors_exit_nonzero_with_one_line_diagnostics() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    // Port 1 is never a sweep service: connection refused, exit 1.
    let dead = "127.0.0.1:1";

    assert_user_error(st().args(["status", "--addr", dead]), 1, "st status: cannot connect");
    assert_user_error(st().args(["submit", spec, "--addr", dead]), 1, "st submit: cannot connect");
    assert_user_error(
        st().args(["serve", "stop", "--addr", dead]),
        1,
        "st serve stop: cannot connect",
    );

    // Unreadable or unparseable specs fail before any connection.
    assert_user_error(st().args(["submit", "/nonexistent.toml"]), 1, "st submit: cannot read");
    let tmp = std::env::temp_dir().join(format!("st-bad-spec-{}.toml", std::process::id()));
    std::fs::write(&tmp, "bogus = 1\n").expect("write bad spec");
    let stderr = assert_user_error(
        st().args(["submit", tmp.to_str().expect("utf8 path")]),
        1,
        "st submit: sweep spec error",
    );
    assert!(stderr.contains("unknown key"), "{stderr}");
    let _ = std::fs::remove_file(&tmp);

    // An unbindable address is a runtime error, not a panic.
    assert_user_error(st().args(["serve", "--addr", "256.0.0.1:0"]), 1, "st serve: cannot bind");

    // Usage errors exit 2.
    assert_user_error(st().args(["submit"]), 2, "st submit: expected exactly one spec file");
    assert_user_error(st().args(["submit", spec, "extra"]), 2, "st submit: expected exactly one");
    assert_user_error(st().args(["status", "stop"]), 2, "st status: unexpected argument");
    assert_user_error(st().args(["serve", "nonsense"]), 2, "st serve: unexpected argument");
    assert_user_error(st().args(["serve", "--smoke"]), 2, "st serve: only");
    assert_user_error(st().args(["serve", "stop", "--threads", "4"]), 2, "st serve stop: only");
    assert_user_error(st().args(["status", "--out", "/tmp"]), 2, "st status: only --addr");
    // A flag that is given counts as given, even as `--threads 0`.
    let store = std::env::temp_dir().join(format!("st-threads-0-{}", std::process::id()));
    assert_user_error(
        st().args(["status", "--threads", "0", "--addr", dead]),
        2,
        "st status: only --addr",
    );
    assert_user_error(
        st().args(["cache", "stats", "--threads", "0", "--out"]).arg(&store),
        2,
        "st cache: only --out",
    );
    assert!(!store.exists(), "a refused `st cache` opens no store");
    assert_user_error(
        st().args(["merge", "/nonexistent", "--threads", "0"]),
        2,
        "st merge: only --out",
    );
    assert_user_error(st().args(["run", spec, "--addr", dead]), 2, "st run:");
}

/// A stdout whose reader has already hung up: a pipe with its read end
/// closed, so the first write fails with `EPIPE`.
fn hung_up_stdout() -> Stdio {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Stdio::from(writer)
}

#[test]
fn a_reader_that_hangs_up_ends_the_socket_commands_quietly() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let mut server = st()
        .args(["serve", "--addr", "127.0.0.1:0", "--no-cache"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("st serve spawns");
    let mut banner = String::new();
    BufReader::new(server.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("server banner");
    // The reader of the banner has left.
    let addr = banner.trim().rsplit("http://").next().expect("address").to_string();

    for args in [
        &["status", "--addr", &addr][..],
        &["submit", spec, "--addr", &addr],
        &["loadgen", spec, "--addr", &addr, "--smoke"],
    ] {
        let out = st().args(args).stdout(hung_up_stdout()).output().expect("st runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "st {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "st {args:?}: {stderr}");
    }
    // The server kept serving after its banner's reader left.
    let status = run_ok(st().args(["status", "--addr", &addr]));
    assert!(status.contains("\"kind\":\"status\""), "{status}");

    run_ok(st().args(["serve", "stop", "--addr", &addr]));
    let out = server.wait_with_output().expect("server exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "st serve: {stderr}");
    assert!(!stderr.contains("panicked"), "st serve: {stderr}");
}
