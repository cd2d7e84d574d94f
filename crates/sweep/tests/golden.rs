//! Golden determinism tests: the observable output of the simulator is
//! pinned to fingerprints captured from the pre-refactor (seed) core.
//!
//! Two layers:
//!
//! 1. **Per-report goldens** — every paper workload runs through the
//!    baseline, selective-throttling (C2), pipeline-gating (A7) and
//!    oracle-fetch (OF) experiments at a fixed budget; the bit-exact
//!    JSON encoding of each [`SimReport`] (the same encoding the
//!    persistent cache round-trips) is FNV-hashed and compared against
//!    checked-in constants. Any core change that drifts a single counter
//!    or energy bit fails loudly here.
//! 2. **Sweep JSONL golden** — the full `examples/axes-demo.toml` sweep
//!    renders through the same JSONL builder `st run` uses, and the
//!    whole document's hash is pinned.
//! 3. **Off-paper goldens** — a corner grid of the machine-shape axes
//!    and a few reports under cc0 power, pinned the same two ways.
//!
//! If a change is *supposed* to alter simulation results, regenerate the
//! constants with:
//!
//! ```text
//! cargo test -p st-sweep --test golden -- --nocapture print_goldens --ignored
//! ```

use st_core::SimReport;
use st_sweep::job::fnv1a64;
use st_sweep::persist::report_to_json;
use st_sweep::{JobSpec, SweepEngine, SweepSpec};

/// Instruction budget for the per-report goldens: small enough to keep
/// the suite fast, large enough to exercise squashes, gating and both
/// cache levels on every workload.
const GOLDEN_INSTRUCTIONS: u64 = 20_000;

/// Experiments covered by the per-report goldens.
const GOLDEN_EXPERIMENTS: [&str; 4] = ["BASE", "C2", "A7", "OF"];

/// `(workload, experiment, fnv1a64(report_to_json(report)))` captured
/// from the seed implementation (PR 2, commit 1e47c70).
const GOLDEN_REPORT_HASHES: [(&str, &str, u64); 32] = [
    ("compress", "BASE", 0xb2af95371e3f1896),
    ("compress", "C2", 0x38d3c3870289cf12),
    ("compress", "A7", 0x1c6be76cf7e5c4bb),
    ("compress", "OF", 0x0ada2b1d99611030),
    ("gcc", "BASE", 0xc4374409a3c9d247),
    ("gcc", "C2", 0xc8690a7d0d197622),
    ("gcc", "A7", 0x925aedbb018589a1),
    ("gcc", "OF", 0x9a6e2d9088199fe0),
    ("go", "BASE", 0x7f9139b1847b72d9),
    ("go", "C2", 0xb3fffbbfb8e8277c),
    ("go", "A7", 0x882913cc722473a4),
    ("go", "OF", 0x41dac949d6993add),
    ("bzip2", "BASE", 0x4b9336318943aec5),
    ("bzip2", "C2", 0x1b8d79b78b10756f),
    ("bzip2", "A7", 0x48ad02a4ff07d436),
    ("bzip2", "OF", 0xc5a213c4e2bf6f79),
    ("crafty", "BASE", 0x4bffaf5574e0438a),
    ("crafty", "C2", 0x170984acafb6d7e9),
    ("crafty", "A7", 0x566eb820cae1c6af),
    ("crafty", "OF", 0x535dc46edf6b9959),
    ("gzip", "BASE", 0xf96d33fffaeb39aa),
    ("gzip", "C2", 0xca0fc1b32ee1829b),
    ("gzip", "A7", 0x2999d2aca6cc0b4e),
    ("gzip", "OF", 0xce8259204b04d7d0),
    ("parser", "BASE", 0xc1744739d7c6c24a),
    ("parser", "C2", 0xe4431651b6aaf2a1),
    ("parser", "A7", 0xacaf32779be6f66d),
    ("parser", "OF", 0x9303ca3fba34368f),
    ("twolf", "BASE", 0x1a9e1c2c14290c0f),
    ("twolf", "C2", 0xb0b58f88d2ca7278),
    ("twolf", "A7", 0xfb2dfc98dfdfb693),
    ("twolf", "OF", 0x391f87144f5b6da5),
];

fn golden_job(workload: &str, experiment: &str) -> JobSpec {
    let spec =
        st_workloads::by_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}"));
    let experiment = st_sweep::experiment_by_id(experiment)
        .unwrap_or_else(|| panic!("unknown experiment {experiment}"));
    JobSpec::new(spec, GOLDEN_INSTRUCTIONS).with_experiment(experiment)
}

fn golden_report(workload: &str, experiment: &str) -> SimReport {
    golden_job(workload, experiment).run()
}

fn report_hash(r: &SimReport) -> u64 {
    fnv1a64(report_to_json(r).as_bytes())
}

#[test]
fn per_report_goldens_match_seed_implementation() {
    let mut failures = Vec::new();
    for (workload, experiment, expected) in GOLDEN_REPORT_HASHES {
        let got = report_hash(&golden_report(workload, experiment));
        if got != expected {
            failures.push(format!(
                "  ({workload:?}, {experiment:?}, 0x{got:016x}), // was 0x{expected:016x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "SimReport drifted from the seed implementation for {} point(s).\n\
         If the change is intentional, update GOLDEN_REPORT_HASHES to:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The per-report goldens again, but all 32 points submitted as one
/// two-thread engine batch: the engine orders the batch by workload and
/// each worker reuses its last generated program, and every report must
/// still hash to the seed constants. Program reuse is a scheduling
/// change, not a semantic one.
#[test]
fn per_report_goldens_match_as_one_engine_batch() {
    let jobs: Vec<JobSpec> =
        GOLDEN_REPORT_HASHES.iter().map(|(w, e, _)| golden_job(w, e)).collect();
    let reports = SweepEngine::new(2).run(&jobs);
    let mut failures = Vec::new();
    for ((workload, experiment, expected), report) in GOLDEN_REPORT_HASHES.iter().zip(&reports) {
        let got = report_hash(report);
        if got != *expected {
            failures.push(format!(
                "  ({workload:?}, {experiment:?}, 0x{got:016x}), // was 0x{expected:016x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "engine-batch reports drifted from the seed goldens for {} point(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// FNV-1a hash of the byte-for-byte `st run examples/axes-demo.toml`
/// JSONL document, captured from the seed implementation.
const GOLDEN_AXES_DEMO_JSONL_HASH: u64 = 0x39e2fd25c2ed3b85;

fn axes_demo_jsonl_at_threads(threads: usize) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let text = std::fs::read_to_string(path).expect("read examples/axes-demo.toml");
    let spec = SweepSpec::parse(&text).expect("parse axes-demo spec");
    let points = spec.points().expect("resolve points");
    let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
    let reports = SweepEngine::new(threads).run(&jobs);
    st_sweep::emit::sweep_jsonl(&points, &reports)
}

fn axes_demo_jsonl() -> String {
    axes_demo_jsonl_at_threads(1)
}

#[test]
fn axes_demo_jsonl_matches_checked_in_hash() {
    let jsonl = axes_demo_jsonl();
    let got = fnv1a64(jsonl.as_bytes());
    assert_eq!(
        got, GOLDEN_AXES_DEMO_JSONL_HASH,
        "examples/axes-demo.toml JSONL drifted (got 0x{got:016x}); if intentional, \
         update GOLDEN_AXES_DEMO_JSONL_HASH"
    );
}

#[test]
fn axes_demo_jsonl_matches_golden_at_4_threads() {
    // Four workers splitting the workload-ordered batch, each reusing
    // its own programs, must reproduce the one-thread golden bytes.
    let got = fnv1a64(axes_demo_jsonl_at_threads(4).as_bytes());
    assert_eq!(
        got, GOLDEN_AXES_DEMO_JSONL_HASH,
        "4-thread axes-demo JSONL diverged from the golden (got 0x{got:016x})"
    );
}

#[test]
fn two_way_sharded_axes_demo_merges_to_the_same_golden_bytes() {
    // The sharded path must reproduce the exact same JSONL the golden
    // above pins: split the demo sweep into 2 shard documents, merge
    // them, and hash the reassembled output.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let text = std::fs::read_to_string(path).expect("read examples/axes-demo.toml");
    let spec = SweepSpec::parse(&text).expect("parse axes-demo spec");
    let points = spec.points().expect("resolve points");
    let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
    let reports = SweepEngine::new(1).run(&jobs);
    let plan = st_sweep::ShardPlan::for_points(&points, 2).expect("plan");
    let docs: Vec<String> = (0..2)
        .map(|s| st_sweep::shard::shard_document(&spec, &points, &reports, &plan, s))
        .collect();
    let merged = st_sweep::shard::merge(&docs).expect("merge");
    let got = fnv1a64(merged.jsonl.as_bytes());
    assert_eq!(
        got, GOLDEN_AXES_DEMO_JSONL_HASH,
        "sharded+merged axes-demo JSONL diverged from the single-process golden \
         (got 0x{got:016x})"
    );
}

// ---------------------------------------------------------------------
// Generative-sweep golden: a seeded `axis.workload_seed` grid over two
// generative families is pinned end-to-end — derivation (knob draw +
// hardness calibration), grid expansion, simulation and JSONL encoding
// all sit under this one hash. The full-size gate (1000+ seeds) runs in
// CI over examples/gen-demo.toml; this is the fast in-tree anchor.
// ---------------------------------------------------------------------

/// A miniature generative sweep: two families × three seeds × two
/// experiments (12 points, 6 derived workloads).
const GOLDEN_GEN_SPEC: &str = "name = \"golden-gen\"\n\
workloads = [\"gen:jit:0\", \"gen:mix:0\"]\n\
experiments = [\"BASE\", \"C2\"]\n\
\n\
[axis]\n\
instructions = 20000\n\
workload_seed = [0, 1, 2]\n";

/// FNV-1a hash of the generative sweep's JSONL document, captured when
/// the generative suite landed. Drifts if family knob ranges, the
/// calibration loop, grid expansion order or report encoding change.
const GOLDEN_GEN_JSONL_HASH: u64 = 0x7fb45a60cdc35bcd;

/// The JSONL document `st run` writes for the spec `text`, simulated on
/// `threads` engine threads.
fn spec_jsonl(text: &str, threads: usize) -> String {
    let spec = SweepSpec::parse(text).expect("parse golden spec");
    let points = spec.points().expect("resolve golden points");
    let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
    let reports = SweepEngine::new(threads).run(&jobs);
    st_sweep::emit::sweep_jsonl(&points, &reports)
}

fn gen_sweep_jsonl_at_threads(threads: usize) -> String {
    spec_jsonl(GOLDEN_GEN_SPEC, threads)
}

#[test]
fn gen_sweep_jsonl_matches_checked_in_hash() {
    let got = fnv1a64(gen_sweep_jsonl_at_threads(1).as_bytes());
    assert_eq!(
        got, GOLDEN_GEN_JSONL_HASH,
        "generative sweep JSONL drifted (got 0x{got:016x}); if the derivation or \
         calibration change is intentional, update GOLDEN_GEN_JSONL_HASH"
    );
}

#[test]
fn gen_sweep_jsonl_matches_golden_at_4_threads() {
    let got = fnv1a64(gen_sweep_jsonl_at_threads(4).as_bytes());
    assert_eq!(
        got, GOLDEN_GEN_JSONL_HASH,
        "4-thread generative sweep JSONL diverged from the golden (got 0x{got:016x})"
    );
}

#[test]
fn two_way_sharded_gen_sweep_merges_to_the_same_golden_bytes() {
    let spec = SweepSpec::parse(GOLDEN_GEN_SPEC).expect("parse golden gen spec");
    let points = spec.points().expect("resolve gen points");
    let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
    let reports = SweepEngine::new(1).run(&jobs);
    let plan = st_sweep::ShardPlan::for_points(&points, 2).expect("plan");
    let docs: Vec<String> = (0..2)
        .map(|s| st_sweep::shard::shard_document(&spec, &points, &reports, &plan, s))
        .collect();
    let merged = st_sweep::shard::merge(&docs).expect("merge");
    let got = fnv1a64(merged.jsonl.as_bytes());
    assert_eq!(
        got, GOLDEN_GEN_JSONL_HASH,
        "sharded+merged generative sweep JSONL diverged from the single-process golden \
         (got 0x{got:016x})"
    );
}

// ---------------------------------------------------------------------
// Off-paper goldens: the goldens above cover only the paper machine.
// These pin the simulator at the corners of the machine-shape axes and
// under the cc0 power model, so a hot-path change that is exact on the
// paper configuration but not at a tiny or huge window, a one-wide or
// sixteen-wide front end, or ungated power fails here.
// ---------------------------------------------------------------------

/// The corner grid: smallest and largest window, LSQ, fetch width and
/// depth (16 machines) × a fixed and a generative workload × BASE plus
/// selective throttling, gating and the three oracles, at 3k
/// instructions. 192 reports and 160 comparisons. It covers oracle
/// decode, oracle select and no-select tagging, and its largest window
/// raises hundreds of window events in one cycle.
const GOLDEN_CORNER_SPEC: &str = "name = \"golden-corner\"\n\
workloads = [\"go\", \"gen:server:3\"]\n\
experiments = [\"C2\", \"A7\", \"OF\", \"OD\", \"OS\"]\n\
baseline = true\n\
\n\
[axis]\n\
instructions = 3000\n\
ruu_size = [2, 4096]\n\
lsq_size = [2, 2048]\n\
fetch_width = [1, 16]\n\
depth = [6, 64]\n";

/// FNV-1a hash of the corner grid's JSONL document.
const GOLDEN_CORNER_JSONL_HASH: u64 = 0x8a2b70c16278ea67;

#[test]
fn corner_grid_jsonl_matches_checked_in_hash() {
    let jsonl = spec_jsonl(GOLDEN_CORNER_SPEC, 2);
    assert_eq!(jsonl.lines().count(), 352, "192 reports + 160 comparisons");
    let got = fnv1a64(jsonl.as_bytes());
    assert_eq!(
        got, GOLDEN_CORNER_JSONL_HASH,
        "corner-grid JSONL drifted (got 0x{got:016x}); if intentional, update \
         GOLDEN_CORNER_JSONL_HASH"
    );
}

/// `(workload, experiment, fnv1a64(report_to_json(report)))` under cc0
/// (`ClockGating::None`: every unit at peak power every cycle) at the
/// per-report golden budget.
const GOLDEN_CC0_REPORT_HASHES: [(&str, &str, u64); 4] = [
    ("go", "BASE", 0xebc009e0a061f928),
    ("go", "C2", 0xdef0a432dac9e6da),
    ("twolf", "BASE", 0x0be806d30b0f5a5f),
    ("twolf", "C2", 0x9858da77da2f0999),
];

fn cc0_report(workload: &str, experiment: &str) -> SimReport {
    let cc0 = st_power::PowerConfig {
        gating: st_power::ClockGating::None,
        ..st_power::PowerConfig::paper_default()
    };
    golden_job(workload, experiment).with_power(cc0).run()
}

#[test]
fn cc0_report_goldens_match_checked_in_hashes() {
    let mut failures = Vec::new();
    for (workload, experiment, expected) in GOLDEN_CC0_REPORT_HASHES {
        let got = report_hash(&cc0_report(workload, experiment));
        if got != expected {
            failures.push(format!(
                "  ({workload:?}, {experiment:?}, 0x{got:016x}), // was 0x{expected:016x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "cc0 reports drifted for {} point(s); if intentional, update \
         GOLDEN_CC0_REPORT_HASHES to:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

// ---------------------------------------------------------------------
// Audit findings goldens: the audit engine's JSONL output over pinned
// sweeps is itself pinned, so a rule or threshold change (or a simulator
// drift that flips a finding) fails here exactly like a report drift.
// ---------------------------------------------------------------------

/// FNV-1a hash of `st audit examples/axes-demo.toml --format jsonl`
/// output (grid-aware audit over the demo sweep).
const GOLDEN_AXES_DEMO_AUDIT_HASH: u64 = 0x7503fb45b2715067;

/// The repro-shaped grid the audit golden runs over: every paper
/// workload through the four golden experiments at the golden budget,
/// with BASE comparisons — the same coverage `st repro` emits.
const GOLDEN_REPRO_AUDIT_SPEC: &str = "name = \"golden-repro-audit\"\n\
workloads = [\"compress\", \"gcc\", \"go\", \"bzip2\", \"crafty\", \"gzip\", \"parser\", \"twolf\"]\n\
experiments = [\"BASE\", \"C2\", \"A7\", \"OF\"]\n\
baseline = true\n\
\n\
[axis]\n\
instructions = 20000\n";

/// FNV-1a hash of the audit findings JSONL over the repro-shaped grid.
/// This is the hash of the empty document: the repro grid audits clean,
/// and this constant pins that it stays clean.
const GOLDEN_REPRO_AUDIT_HASH: u64 = 0xcbf29ce484222325;

fn audit_jsonl_for_spec(text: &str) -> String {
    let spec = SweepSpec::parse(text).expect("parse audit golden spec");
    let points = spec.points().expect("resolve points");
    let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
    let reports = SweepEngine::new(2).run(&jobs);
    let jsonl = st_sweep::emit::sweep_jsonl(&points, &reports);
    let records = st_sweep::audit::parse_records(&jsonl).expect("parse emitted sweep");
    st_sweep::audit::findings_jsonl(&st_sweep::audit::audit_with_grid(&records, &points))
}

fn axes_demo_audit_jsonl() -> String {
    let jsonl = axes_demo_jsonl();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/axes-demo.toml");
    let text = std::fs::read_to_string(path).expect("read examples/axes-demo.toml");
    let points =
        SweepSpec::parse(&text).expect("parse axes-demo spec").points().expect("resolve points");
    let records = st_sweep::audit::parse_records(&jsonl).expect("parse emitted sweep");
    st_sweep::audit::findings_jsonl(&st_sweep::audit::audit_with_grid(&records, &points))
}

#[test]
fn axes_demo_audit_findings_match_checked_in_hash() {
    let got = fnv1a64(axes_demo_audit_jsonl().as_bytes());
    assert_eq!(
        got, GOLDEN_AXES_DEMO_AUDIT_HASH,
        "audit findings over examples/axes-demo.toml drifted (got 0x{got:016x}); if the \
         rule/threshold change is intentional, update GOLDEN_AXES_DEMO_AUDIT_HASH and \
         regenerate audit.allow"
    );
}

#[test]
fn repro_grid_audit_findings_match_checked_in_hash() {
    let got = fnv1a64(audit_jsonl_for_spec(GOLDEN_REPRO_AUDIT_SPEC).as_bytes());
    assert_eq!(
        got, GOLDEN_REPRO_AUDIT_HASH,
        "audit findings over the repro-shaped grid drifted (got 0x{got:016x}); if \
         intentional, update GOLDEN_REPRO_AUDIT_HASH"
    );
}

/// Regeneration helper: prints the golden tables in source form.
#[test]
#[ignore = "generator: prints constants for the tables above"]
fn print_goldens() {
    println!("const GOLDEN_REPORT_HASHES: [(&str, &str, u64); 32] = [");
    for info in st_workloads::all() {
        for experiment in GOLDEN_EXPERIMENTS {
            let hash = report_hash(&golden_report(&info.spec.name, experiment));
            println!("    (\"{}\", \"{experiment}\", 0x{hash:016x}),", info.spec.name);
        }
    }
    println!("];");
    let hash = fnv1a64(axes_demo_jsonl().as_bytes());
    println!("const GOLDEN_AXES_DEMO_JSONL_HASH: u64 = 0x{hash:016x};");
    let hash = fnv1a64(gen_sweep_jsonl_at_threads(1).as_bytes());
    println!("const GOLDEN_GEN_JSONL_HASH: u64 = 0x{hash:016x};");
    let hash = fnv1a64(axes_demo_audit_jsonl().as_bytes());
    println!("const GOLDEN_AXES_DEMO_AUDIT_HASH: u64 = 0x{hash:016x};");
    let hash = fnv1a64(audit_jsonl_for_spec(GOLDEN_REPRO_AUDIT_SPEC).as_bytes());
    println!("const GOLDEN_REPRO_AUDIT_HASH: u64 = 0x{hash:016x};");
    let hash = fnv1a64(spec_jsonl(GOLDEN_CORNER_SPEC, 2).as_bytes());
    println!("const GOLDEN_CORNER_JSONL_HASH: u64 = 0x{hash:016x};");
    println!("const GOLDEN_CC0_REPORT_HASHES: [(&str, &str, u64); 4] = [");
    for (workload, experiment, _) in GOLDEN_CC0_REPORT_HASHES {
        let hash = report_hash(&cc0_report(workload, experiment));
        println!("    (\"{workload}\", \"{experiment}\", 0x{hash:016x}),");
    }
    println!("];");
}
