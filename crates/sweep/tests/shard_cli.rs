//! End-to-end test of the acceptance pipeline through the real `st`
//! binary: two concurrent `st run --shard i/2` worker processes over one
//! `--out` followed by `st merge` must produce JSONL (and CSV)
//! byte-identical to a single-process `st run --no-cache` of the same
//! spec, whatever thread count each worker uses.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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

#[test]
fn two_shard_workers_plus_st_merge_reproduce_st_run_byte_for_byte() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let tmp = std::env::temp_dir().join(format!("st-shard-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let single = tmp.join("single");
    let sharded = tmp.join("sharded");
    let merged = tmp.join("merged");

    // Reference: one process, no cache, fixed thread count.
    run_ok(st().args(["run", spec, "--no-cache", "--threads", "1", "--out"]).arg(&single));

    // Two concurrent worker processes sharing one output directory (and
    // so one result store), at different thread counts.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            st().args(["run", spec, "--shard", &format!("{i}/2"), "--threads"])
                .arg((i + 1).to_string())
                .arg("--out")
                .arg(&sharded)
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn a shard worker")
        })
        .collect();
    for (i, mut worker) in workers.into_iter().enumerate() {
        let status = worker.wait().expect("worker exits");
        assert!(status.success(), "worker {i} failed with {status}");
    }
    let shard_paths: Vec<PathBuf> =
        (0..2).map(|i| sharded.join(format!("axes-demo.shard-{i}.jsonl"))).collect();

    let stdout = run_ok(st().args(["merge"]).args(&shard_paths).args(["--out"]).arg(&merged));
    assert!(stdout.contains("12 points reassembled"), "{stdout}");

    assert_eq!(
        read(&single.join("axes-demo.jsonl")),
        read(&merged.join("axes-demo.jsonl")),
        "merged JSONL must be byte-identical to the single-process run"
    );
    assert_eq!(
        read(&single.join("axes-demo.csv")),
        read(&merged.join("axes-demo.csv")),
        "merged CSV must be byte-identical to the single-process run"
    );

    // Both workers wrote the same result store, so a plain `st run` over
    // the same output dir is served from disk.
    let stdout = run_ok(st().args(["run", spec, "--threads", "1", "--out"]).arg(&sharded));
    assert!(stdout.contains("0 simulated"), "cache should serve every point:\n{stdout}");

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn st_run_shard_mode_covers_exactly_its_range_without_stealing() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let tmp = std::env::temp_dir().join(format!("st-shard-split-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);

    // External-launcher mode: each shard invoked separately. `--threads`
    // runs a shard on a worker pool without changing a byte.
    let docs_at = |threads: &str| -> Vec<String> {
        let out = tmp.join(format!("threads-{threads}"));
        (0..2)
            .map(|i| {
                run_ok(
                    st().args(["run", spec, "--no-cache", "--shard", &format!("{i}/2")])
                        .args(["--threads", threads, "--out"])
                        .arg(&out),
                );
                read(&out.join(format!("axes-demo.shard-{i}.jsonl")))
            })
            .collect()
    };
    let docs = docs_at("1");
    assert_eq!(docs_at("2"), docs, "shard documents must not depend on --threads");
    // 12 points split 6/6, one header line each.
    assert_eq!(docs[0].lines().count(), 7, "{}", docs[0]);
    assert_eq!(docs[1].lines().count(), 7, "{}", docs[1]);
    let merged = st_sweep::shard::merge(&docs).expect("library merge of CLI output");
    assert_eq!(merged.stats.points, 12);
    assert_eq!(merged.stats.duplicates, 0);

    // Usage errors exit with code 2.
    let bad = st().args(["run", spec, "--shard", "2/2"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2), "out-of-range shard index is a usage error");
    let bad = st().args(["run", spec, "-x"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2), "an unknown short flag is a usage error");

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn a_huge_shard_count_plans_in_o_points_memory() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let tmp = std::env::temp_dir().join(format!("st-shard-huge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let start = Instant::now();
    run_ok(st().args(["run", spec, "--no-cache", "--shard", "0/1000000000000", "--out"]).arg(&tmp));
    // Planning per shard would take minutes (or abort allocating);
    // planning per point takes milliseconds.
    assert!(start.elapsed() < Duration::from_secs(10), "took {:?}", start.elapsed());
    let doc = read(&tmp.join("axes-demo.shard-0.jsonl"));
    assert!(doc.starts_with("{\"kind\":\"shard\""), "{doc}");
    assert!(doc.lines().count() <= 2, "at most one point record:\n{doc}");
    let _ = std::fs::remove_dir_all(&tmp);
}
