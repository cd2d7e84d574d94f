//! End-to-end test of the acceptance pipeline through the real `st`
//! binary: `st shard <spec> -j 2` followed by `st merge` must produce
//! JSONL (and CSV) byte-identical to a single-process `st run
//! --no-cache` of the same spec — multiple worker *processes*, claim
//! files and all.

use std::path::{Path, PathBuf};
use std::process::Command;

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
fn st_shard_plus_st_merge_reproduce_st_run_byte_for_byte() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let tmp = std::env::temp_dir().join(format!("st-shard-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let single = tmp.join("single");
    let sharded = tmp.join("sharded");
    let merged = tmp.join("merged");

    // Reference: one process, no cache, fixed thread count.
    run_ok(st().args(["run", spec, "--no-cache", "--threads", "1", "--out"]).arg(&single));

    // Two worker processes with work stealing over a shared claim dir.
    run_ok(st().args(["shard", spec, "-j", "2", "--out"]).arg(&sharded));
    let shard_paths: Vec<PathBuf> =
        (0..2).map(|i| sharded.join(format!("axes-demo.shard-{i}.jsonl"))).collect();
    for p in &shard_paths {
        assert!(p.exists(), "worker output {} missing", p.display());
    }

    // Merge re-canonicalises whatever the workers interleaved.
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

    // The sharded run's persistent cache is shared between workers, so a
    // plain `st run` over the same output dir is served from disk.
    let stdout = run_ok(st().args(["run", spec, "--threads", "1", "--out"]).arg(&sharded));
    assert!(stdout.contains("0 simulated"), "cache should serve every point:\n{stdout}");

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn st_run_shard_mode_covers_exactly_its_range_without_stealing() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let tmp = std::env::temp_dir().join(format!("st-shard-split-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);

    // External-launcher mode: each shard invoked separately, no claims.
    for i in 0..2 {
        run_ok(
            st().args(["run", spec, "--no-cache", "--shard", &format!("{i}/2"), "--out"]).arg(&tmp),
        );
    }
    let docs: Vec<String> =
        (0..2).map(|i| read(&tmp.join(format!("axes-demo.shard-{i}.jsonl")))).collect();
    // 12 points split 6/6, one header line each.
    assert_eq!(docs[0].lines().count(), 7, "{}", docs[0]);
    assert_eq!(docs[1].lines().count(), 7, "{}", docs[1]);
    let merged = st_sweep::shard::merge(&docs).expect("library merge of CLI output");
    assert_eq!(merged.stats.points, 12);
    assert_eq!(merged.stats.stolen, 0);

    // Usage errors exit with code 2.
    let bad = st().args(["run", spec, "--shard", "2/2"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2), "out-of-range shard index is a usage error");
    let bad = st().args(["run", spec, "--steal"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2), "--steal without --shard is a usage error");
    // Shard workers run one point at a time; --threads would be a lie.
    let bad = st().args(["run", spec, "--shard", "0/2", "--threads", "4"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2), "--threads in shard mode is a usage error");
    let bad = st().args(["shard", spec, "-j", "2", "--threads", "4"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2), "--threads on st shard is a usage error");

    // A crashed --steal fleet leaves stale claims behind; clear-claims
    // drops exactly them (results untouched) so a re-run can make
    // progress again.
    run_ok(st().args(["run", spec, "--shard", "0/2", "--steal", "--out"]).arg(&tmp));
    let claims_root = tmp.join(".cache").join("claims");
    assert!(claims_root.exists(), "steal mode leaves claim files");
    run_ok(st().args(["cache", "clear-claims", "--out"]).arg(&tmp));
    assert!(!claims_root.exists(), "clear-claims removes the claim tree");
    assert!(tmp.join(".store").join("seg-0.log").is_file(), "stored results survive clear-claims");

    let _ = std::fs::remove_dir_all(&tmp);
}
