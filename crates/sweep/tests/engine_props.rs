//! Property test for the sweep engine: for a *random* sweep spec (random
//! workload subset, experiment list, window sizes, gating threshold and
//! instruction budget) the engine's JSONL output at 1 and 3 threads is
//! byte-identical to the JSONL built from running every point on its own
//! through [`JobSpec::run`].
//!
//! This is the contract of the engine's scheduling — workload ordering,
//! per-worker program reuse, batch dedup, aliasing and thread count
//! change how points run, never what they compute — probed over the
//! spec space rather than at a handful of pinned points like the
//! goldens. The experiment draw includes alias groups, experiments that
//! run one machine under several ids: Pipeline Gating as A7, B9 and C7,
//! and A5's policy as C1.

use std::sync::Arc;

use proptest::prelude::*;
use st_sweep::{JobSpec, SweepEngine, SweepSpec};

/// Workload pool the mask draws from (a subset keeps cases fast; the
/// goldens already cover every paper workload).
const WORKLOADS: [&str; 4] = ["go", "gcc", "compress", "twolf"];

/// The experiment lists the draw picks from: C2 alone, or beside one or
/// both alias groups.
const EXPERIMENTS: [&str; 4] = [
    "\"C2\"",
    "\"C2\", \"A7\", \"B9\", \"C7\"",
    "\"C2\", \"A5\", \"C1\"",
    "\"A7\", \"C1\", \"C2\", \"B9\", \"A5\", \"C7\"",
];

/// Renders one random sweep spec as TOML.
fn spec_toml(wmask: u8, experiments: &str, ruu: u64, gate: u64, instructions: u64) -> String {
    let picked: Vec<String> = WORKLOADS
        .iter()
        .enumerate()
        .filter(|(i, _)| wmask & (1 << i) != 0)
        .map(|(_, w)| format!("\"{w}\""))
        .collect();
    let workloads = if picked.is_empty() { "\"go\"".to_string() } else { picked.join(", ") };
    format!(
        "name = \"engine-props\"\nworkloads = [{workloads}]\nexperiments = [{experiments}]\n\n\
         [axis]\nruu_size = [{ruu}, {}]\ngating_threshold = [{gate}]\ninstructions = {instructions}\n",
        ruu * 2,
    )
}

/// Renders the same JSONL document `st run` emits for the spec, with the
/// reports from the engine at `threads` workers, or, at `None`, from
/// running each point on its own.
fn jsonl(toml: &str, threads: Option<usize>) -> String {
    let spec = SweepSpec::parse(toml).expect("random spec parses");
    let points = spec.points().expect("points resolve");
    let jobs: Vec<JobSpec> = points.iter().map(|p| p.job.clone()).collect();
    let reports = match threads {
        Some(n) => SweepEngine::new(n).run(&jobs),
        None => jobs.iter().map(|j| Arc::new(j.run())).collect(),
    };
    st_sweep::emit::sweep_jsonl(&points, &reports)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn every_thread_count_emits_the_per_point_jsonl_bytes(
        wmask in 1u8..16,
        experiments in 0usize..EXPERIMENTS.len(),
        ruu_pick in 0usize..3,
        gate in 1u64..=3,
        instructions in 500u64..=2_000,
    ) {
        let ruu = [16u64, 32, 64][ruu_pick];
        let toml = spec_toml(wmask, EXPERIMENTS[experiments], ruu, gate, instructions);
        let per_point = jsonl(&toml, None);
        for threads in [1usize, 3] {
            prop_assert_eq!(
                &jsonl(&toml, Some(threads)),
                &per_point,
                "{} threads diverged from per-point runs for spec:\n{}",
                threads,
                toml
            );
        }
    }
}
