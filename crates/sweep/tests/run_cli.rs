//! CLI contracts of the sweep-running subcommands through the real `st`
//! binary: an oversized grid is a one-line runtime error, not an
//! allocation abort, and a plain `st repro` writes only under `--out`.

use std::path::PathBuf;
use std::process::{Command, Output};

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
fn a_plain_repro_writes_nothing_outside_its_out_dir() {
    let cwd = empty_dir("repro-cwd");
    let out = st()
        .args(["repro", "--instr", "2000", "--threads", "1", "--out"])
        .arg(cwd.join("out"))
        .current_dir(&cwd)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", stderr(&out));
    let mut left: Vec<String> = std::fs::read_dir(&cwd)
        .expect("list cwd")
        .map(|e| e.expect("entry").file_name().to_string_lossy().to_string())
        .collect();
    left.sort();
    assert_eq!(left, vec!["out".to_string()], "no timing file without --bench-json");
    let _ = std::fs::remove_dir_all(&cwd);
}
