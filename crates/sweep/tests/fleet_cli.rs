//! End-to-end test of the fleet tier through the real `st` binary: two
//! background `st serve` workers, an `st serve --fleet` coordinator,
//! `st submit` streaming to stdout, fleet `st status`, and
//! `st loadgen` writing the BENCH_service.json artifact — with the
//! acceptance bar that the merged stream is byte-identical to a
//! single-process `st run --no-cache`. Also audits the new CLI usage
//! errors (exit 2, one-line diagnostics).

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

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

/// Spawns `st serve` with the given extra args on an ephemeral port and
/// reads the actual address back from the banner line.
fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut child = st()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("st serve spawns");
    let mut banner = String::new();
    BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("server banner");
    let addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .unwrap_or_else(|| panic!("no address in banner `{banner}`"))
        .to_string();
    (child, addr)
}

fn stop(addr: &str, mut child: Child, who: &str) {
    run_ok(st().args(["serve", "stop", "--addr", addr]));
    let status = child.wait().expect("server exits");
    assert!(status.success(), "{who} must shut down gracefully, got {status}");
}

#[test]
fn fleet_round_trip_is_byte_identical_and_loadgen_records_the_artifact() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let tmp = std::env::temp_dir().join(format!("st-fleet-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let single = tmp.join("single");

    // Reference: one process, no cache.
    run_ok(st().args(["run", spec, "--no-cache", "--threads", "1", "--out"]).arg(&single));
    let reference = std::fs::read_to_string(single.join("axes-demo.jsonl")).expect("reference");

    // Two simulating workers, then the coordinator federating them.
    let (w1, addr1) = spawn_serve(&["--threads", "2", "--no-cache"]);
    let (w2, addr2) = spawn_serve(&["--threads", "2", "--no-cache"]);
    let (coord, fleet_addr) =
        spawn_serve(&["--fleet", &format!("{addr1},{addr2}"), "--max-inflight", "4"]);

    // A submission through the coordinator streams the exact bytes
    // `st run` writes, reassembled from both workers.
    let merged = run_ok(st().args(["submit", spec, "--addr", &fleet_addr]));
    assert_eq!(merged, reference, "fleet stream must be byte-identical to `st run --no-cache`");

    let status = run_ok(st().args(["status", "--addr", &fleet_addr]));
    assert!(status.contains("\"kind\":\"fleet-status\""), "{status}");
    assert!(status.contains("\"alive_workers\":2"), "{status}");
    assert!(status.contains("\"completed\":1"), "{status}");

    // Measured load through the coordinator lands in the artifact.
    let bench = tmp.join("BENCH_service.json");
    let stdout = run_ok(
        st().args(["loadgen", spec, "--addr", &fleet_addr, "--clients", "2"])
            .args(["--submissions", "3", "--bench-json"])
            .arg(&bench),
    );
    assert!(stdout.contains("3 ok, 0 failed"), "{stdout}");
    assert!(stdout.contains("latency p50"), "{stdout}");
    let artifact = std::fs::read_to_string(&bench).expect("artifact written");
    assert!(artifact.contains("\"bench\": \"st_service\""), "{artifact}");
    assert!(artifact.contains("\"p99_ms\""), "{artifact}");

    stop(&fleet_addr, coord, "coordinator");
    stop(&addr1, w1, "worker 1");
    stop(&addr2, w2, "worker 2");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn fleet_and_loadgen_usage_errors_exit_two_with_diagnostics() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let check = |cmd: &mut Command, code: i32, prefix: &str| {
        let out = cmd.output().expect("st binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(code), "`{cmd:?}`:\n{stderr}");
        let first = stderr.lines().next().unwrap_or_default().to_string();
        assert!(
            first.starts_with(prefix),
            "`{cmd:?}` diagnostic should start with `{prefix}`, got:\n{stderr}"
        );
        first
    };

    // An empty worker list never binds anything.
    check(st().args(["serve", "--fleet", ",", "--addr", "127.0.0.1:0"]), 2, "st serve --fleet:");
    // Engine flags belong on the workers, not the coordinator.
    check(st().args(["serve", "--fleet", "127.0.0.1:1", "--threads", "2"]), 2, "st serve --fleet:");
    check(
        st().args(["serve", "--fleet", "127.0.0.1:1", "--max-inflight", "0"]),
        2,
        "st serve --fleet: --max-inflight must be at least 1",
    );
    // Fleet knobs without --fleet have nothing to configure.
    let first = check(st().args(["serve", "--max-inflight", "4"]), 2, "st serve: only");
    assert!(first.contains("(--max-inflight is for st serve --fleet)"), "{first}");
    check(st().args(["serve", "stop", "--fleet", "w:1"]), 2, "st serve stop: only --addr");
    // No command takes a scheduling flag: the workers' engines are the
    // one scheduler.
    check(
        st().args(["submit", spec, "--priority", "1"]),
        2,
        "st submit: unknown flag `--priority`",
    );
    check(st().args(["loadgen", spec, "--priority", "1"]), 2, "st loadgen: unknown flag");
    // loadgen validates its own surface.
    check(st().args(["loadgen"]), 2, "st loadgen: expected exactly one spec file");
    check(st().args(["loadgen", spec, "--threads", "2"]), 2, "st loadgen: only");
    check(
        st().args(["loadgen", spec, "--clients", "0", "--addr", "127.0.0.1:1"]),
        2,
        "st loadgen: loadgen needs at least one client",
    );
}

#[test]
fn loadgen_against_a_dead_endpoint_exits_one_after_counting_failures() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let tmp = std::env::temp_dir().join(format!("st-fleet-dead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("mkdir");
    let bench = tmp.join("BENCH_service.json");
    let out = st()
        .args(["loadgen", spec, "--addr", "127.0.0.1:1", "--clients", "1"])
        .args(["--submissions", "2", "--bench-json"])
        .arg(&bench)
        .output()
        .expect("st binary runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("every submission failed"), "{stderr}");
    // The artifact still records the (all-failing) run honestly.
    let artifact = std::fs::read_to_string(&bench).expect("artifact written");
    assert!(artifact.contains("\"failures\": 2"), "{artifact}");
    let _ = std::fs::remove_dir_all(&tmp);
}
