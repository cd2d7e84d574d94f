//! Host-side process accounting read from `/proc` (Linux).

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User + system CPU seconds this process has consumed so far, exited
/// threads included.
pub fn cpu_seconds() -> Result<f64, String> {
    let path = proc_path(None, "stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 of the rest.
    let rest = text.rsplit_once(')').map(|(_, r)| r).ok_or(format!("{path}: no command"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        let v = fields.get(i).ok_or(format!("{path}: short line"))?;
        v.parse::<u64>().map(|t| t as f64 / USER_HZ).map_err(|e| format!("{path}: {e}"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:")).ok_or(format!("{path}: no VmHWM"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or(format!("{path}: bad VmHWM"))?;
    Ok(kib / 1024.0)
}

/// Total size in bytes of the regular files under `dir` (0 if absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Bytes of the result store under `out_dir`: its hidden subdirectories
/// (`.cache/` or `.store/`, whichever format the program writes).
pub fn store_bytes(out_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(out_dir) else { return 0 };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with('.'))
        .map(|e| dir_bytes(&e.path()))
        .sum()
}
