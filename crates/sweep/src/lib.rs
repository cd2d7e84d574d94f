//! # st-sweep — parallel, cache-aware experiment sweeps
//!
//! The seed reproduction ran every figure as its own single-threaded
//! binary, re-simulating overlapping configurations from scratch. This
//! crate turns full-paper reproduction (and arbitrary what-if studies)
//! into one fast, declarative operation:
//!
//! * **[`axes`]** — the typed sweep-axis registry: every sweepable
//!   machine knob (depth, window/queue sizes, budgets, gating threshold,
//!   power knobs) as a first-class [`Axis`] with a domain, default and a
//!   generic apply, so a simulation point is "baseline + bindings";
//! * **[`JobSpec`]** — one fully-specified simulation point (workload ×
//!   experiment × pipeline/power config × estimator × budget) with a
//!   content-hash [`JobSpec::fingerprint`];
//! * **[`SweepEngine`]** — a deterministic parallel executor: jobs shard
//!   across a worker pool in workload order, each worker reusing the
//!   last program it generated, results assemble in submission order,
//!   and one fingerprint-keyed map of the reports it simulated,
//!   relabelled or read makes each distinct point run at most once per
//!   engine lifetime. Thread count cannot influence any result bit;
//! * **[`logstore`]** — the on-disk result store, an append-only
//!   segment log (`<out>/.store/seg-<n>.log`) with crash-safe recovery,
//!   compaction and LRU size-budget eviction; reports are kept in the
//!   exact JSON codec of **[`persist`]**.
//!   [`SweepEngine::with_result_store`] opens its index, reads a
//!   stored report the first time a job asks for it, and writes each
//!   fresh point through as soon as it finishes, so repeated (or
//!   killed and restarted) invocations reuse work across processes;
//! * **[`SweepSpec`]** — a declarative workload × experiment × axis grid
//!   (`axis.<name>` keys with legacy aliases), buildable in code or
//!   parsed from a small TOML/JSON document;
//! * **[`emit`]** — JSON-lines, CSV and `st-report` table emitters, with
//!   per-point axis tagging;
//! * **[`figures`]** — every paper figure/table as data: the grid of
//!   points it needs plus a render step, so `st repro` runs the union
//!   of all ten grids as one engine batch;
//! * **[`bench`](mod@bench)** — steady-state hot-loop microbenchmarks
//!   (simulated instructions/sec) with a built-in determinism probe;
//! * **[`shard`](mod@shard)** — sharded multi-process sweeps: a
//!   deterministic fingerprint-range [`ShardPlan`], the shard worker
//!   ([`shard::run_shard`], one engine batch per shard) that external
//!   launchers start once per shard, and [`shard::merge`], which unions
//!   shard documents back into output byte-identical to a
//!   single-process run;
//! * **[`service`](mod@service)** — the long-running sweep daemon
//!   behind `st serve`: a hand-rolled HTTP/1.1 + JSONL wire protocol on
//!   `std::net` that accepts submitted specs, serves every point
//!   cache-first from one shared engine (with cross-request in-flight
//!   de-duplication), and streams back records byte-identical to a
//!   local `st run`;
//! * **[`client`](mod@client)** — the matching dependency-free client
//!   (`st submit` / `st status`), which reads every record stream —
//!   whole sweeps and partial grids (`GET /points?range=lo-hi`) —
//!   through one line reader that checks completeness against the
//!   announced record count (or a locally derived one);
//! * **[`fleet`](mod@fleet)** — the coordinator tier behind
//!   `st serve --fleet`: partitions each submission by fingerprint-range
//!   [`ShardPlan`] across remote `st serve` workers, verifies each
//!   returned record at ingest and places it in `st merge`'s
//!   `shard::Collector`, renders the result with the same emitter as
//!   a local run (byte-identical to it), fails dead workers' unfinished
//!   ranges over to survivors, and applies admission control
//!   (structured `429` backpressure) plus per-request priorities;
//! * **[`loadgen`](mod@loadgen)** — the measured-load harness behind
//!   `st loadgen`: concurrent submission replay with throughput and
//!   p50/p90/p99 latency, recorded into `BENCH_service.json` when asked;
//! * **[`plot`]** — ASCII charts over cached sweep JSONL;
//! * **[`audit`](mod@audit)** — the deterministic findings engine behind
//!   `st audit`: pure rules over canonically-ordered sweep records
//!   (IPC cliffs, energy-delay regressions, non-monotonic axis
//!   responses, implausible metrics, stale-baseline drift), each
//!   [`Finding`] confidence-tagged and fingerprinted so a checked-in
//!   `audit.allow` file can suppress known findings and CI can gate on
//!   the rest;
//! * the **`st`** binary — `st repro` regenerates the whole paper as one
//!   parallel engine batch, `st run spec.toml` executes ad-hoc sweeps
//!   (`--set` overrides any axis, `--shard i/n` runs one shard), `st merge`
//!   reassembles shard outputs, `st serve` runs the long-lived sweep
//!   service (`--fleet` turns it into a coordinator over remote
//!   workers), `st submit`/`st status` talk to it, `st loadgen` measures
//!   it under concurrent load, `st bench` measures the hot loop and
//!   gates determinism, `st plot` charts cached JSONL,
//!   `st audit` turns a sweep (JSONL or spec) into gateable findings,
//!   `st list` shows what is available and `st cache` inspects,
//!   compacts and size-bounds the result store.
//!
//! ## Example
//!
//! ```
//! use st_sweep::{JobSpec, SweepEngine};
//!
//! let engine = SweepEngine::new(2);
//! let go = st_workloads::by_name("go").expect("known workload");
//! let jobs: Vec<JobSpec> = [st_core::experiments::baseline(), st_core::experiments::c2()]
//!     .into_iter()
//!     .map(|e| JobSpec::new(go.clone(), 5_000).with_experiment(e))
//!     .collect();
//! let reports = engine.run(&jobs);
//! let cmp = st_core::compare(&reports[0], &reports[1]);
//! assert!(cmp.energy_savings_pct > -100.0);
//! // Running the same grid again is served entirely from the cache.
//! let again = engine.run(&jobs);
//! assert_eq!(reports, again);
//! assert_eq!(engine.stats().simulated, 2);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod axes;
pub mod bench;
pub mod client;
pub mod emit;
pub mod engine;
pub mod figures;
pub mod fleet;
pub mod job;
pub mod json;
pub mod loadgen;
pub mod logstore;
pub mod persist;
pub mod plot;
pub mod service;
pub mod shard;
pub mod spec;

pub use audit::{Allowlist, Confidence, Finding, Rule, SweepRecord};
pub use axes::{Axis, AxisBinding, AxisDomain, AxisValue};
pub use client::ClientError;
pub use engine::{CacheStats, EngineStats, SweepEngine};
pub use fleet::{Fleet, FleetConfig, FleetServer};
pub use job::{EstimatorChoice, JobSpec};
pub use loadgen::{LoadgenConfig, LoadgenResult};
pub use logstore::{LoadStats, LogStore, StoreStats};
pub use service::{Server, ServiceConfig, SweepService};
pub use shard::{ShardError, ShardPlan};
pub use spec::{all_experiments, experiment_by_id, SpecError, SweepPoint, SweepSpec};

#[cfg(test)]
mod tests {
    //! The figure-panel path `st repro` takes, at a two-workload,
    //! 2 000-instruction budget.

    use st_pipeline::PipelineConfig;

    use crate::figures::{panel_jobs, panel_rows, panel_table, FigureCtx};
    use crate::SweepEngine;

    fn tiny_ctx(engine: &SweepEngine) -> FigureCtx<'_> {
        let mut ctx = FigureCtx::from_env(engine);
        ctx.instructions = 2_000;
        ctx.workloads.truncate(2);
        ctx
    }

    #[test]
    fn panel_runs_on_tiny_budget() {
        let engine = SweepEngine::new(2);
        let ctx = tiny_ctx(&engine);
        let cfg = PipelineConfig::paper_default();
        let a5 = [st_core::experiments::a5()];
        let reports = engine.run(&panel_jobs(&ctx, &cfg, &a5));
        assert_eq!(reports.len(), 4, "two baselines, then two A5 points");
        let rows = panel_rows(&a5, &reports);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].per_workload.len(), 2);
        let t = panel_table("t", &rows, |c| c.energy_savings_pct, 1, "%");
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("A5"));
    }

    #[test]
    fn rerunning_baselines_hits_the_cache() {
        let engine = SweepEngine::new(2);
        let ctx = tiny_ctx(&engine);
        let cfg = PipelineConfig::paper_default();
        let a = engine.run(&ctx.baselines(&cfg));
        assert_eq!(a.len(), 2);
        let simulated = engine.stats().simulated;
        let b = engine.run(&ctx.baselines(&cfg));
        assert_eq!(a, b);
        assert_eq!(engine.stats().simulated, simulated, "no re-simulation");
    }
}

#[cfg(test)]
mod parser_props {
    //! The hand-rolled readers of outside input survive it: 256 cases
    //! each of arbitrary text and of single-character mutations of real
    //! inputs come back `Ok` or `Err`, never a panic. So does expanding
    //! a spec read from one to three mutated characters.

    use proptest::prelude::*;

    use crate::audit::Allowlist;
    use crate::json::Json;
    use crate::SweepSpec;

    const AXES_DEMO: &str = include_str!("../../../examples/axes-demo.toml");
    const DEPTH_TOML: &str = include_str!("../../../examples/sweeps/depth.toml");
    const SIZE_JSON: &str = include_str!("../../../examples/sweeps/size.json");
    const ALLOW: &str = include_str!("../../../audit.allow");
    /// The first line `st run examples/sweeps/size.json --instr 2000`
    /// writes to its JSONL.
    const RECORD: &str = "{\"kind\":\"report\",\"workload\":\"compress\",\"experiment\":\"BASE\",\
        \"label\":\"no throttling\",\"cycles\":1875,\"committed\":2000,\
        \"ipc\":1.0666666666666667,\"fetched\":7275,\"wrong_path_fetched\":5067,\
        \"branches_committed\":178,\"mispredicts_committed\":35,\
        \"mispredict_rate\":0.19662921348314608,\"fetch_gated_cycles\":0,\
        \"decode_gated_cycles\":0,\"selection_blocked\":0,\"energy_j\":0.00003224920642965194,\
        \"avg_power_w\":20.63949211497724,\"energy_delay\":0.000000000050389385046331155,\
        \"wasted_frac\":0.4532753211309223,\"conf_spec\":0.4,\"conf_pvn\":0.25,\
        \"l1i_miss_rate\":0.009036144578313253,\"l1d_miss_rate\":0.4185022026431718,\
        \"axis.predictor_kb\":4,\"axis.estimator_kb\":4,\"axis.instructions\":2000}";

    /// One of `seeds` with `edits` characters in turn replaced, deleted or
    /// inserted.
    fn mutations(
        seeds: &'static [&'static str],
        edits: std::ops::RangeInclusive<usize>,
    ) -> impl Strategy<Value = String> {
        (0..seeds.len(), prop::collection::vec((any::<usize>(), 0..3u8, any::<u8>()), edits))
            .prop_map(move |(seed, edits)| {
                let mut chars: Vec<char> = seeds[seed].chars().collect();
                for (at, edit, byte) in edits {
                    let at = at % (chars.len() + 1);
                    match edit {
                        0 if at < chars.len() => chars[at] = char::from(byte),
                        1 if at < chars.len() => {
                            chars.remove(at);
                        }
                        _ => chars.insert(at, char::from(byte)),
                    }
                }
                chars.into_iter().collect()
            })
    }

    /// Arbitrary text, or one of `seeds` with one character replaced,
    /// deleted or inserted.
    fn inputs(seeds: &'static [&'static str]) -> impl Strategy<Value = String> {
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..256)
                .prop_map(|bytes| bytes.into_iter().map(char::from).collect()),
            mutations(seeds, 1..=1),
        ]
    }

    #[test]
    fn the_seeds_parse() {
        assert!(SweepSpec::parse(AXES_DEMO).is_ok());
        assert!(SweepSpec::parse(DEPTH_TOML).is_ok());
        assert!(SweepSpec::parse(SIZE_JSON).is_ok());
        assert!(Json::parse(SIZE_JSON).is_ok());
        assert!(Json::parse(RECORD).is_ok());
        assert!(Allowlist::parse(ALLOW).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn any_spec_text_parses_or_fails_without_panicking(text in inputs(&[AXES_DEMO, SIZE_JSON])) {
            let _ = SweepSpec::parse(&text);
        }

        #[test]
        fn any_parsed_spec_expands_or_fails_without_panicking(
            text in mutations(&[AXES_DEMO, DEPTH_TOML, SIZE_JSON], 1..=3)
        ) {
            // A mutated seed range could derive thousands of generative
            // members, so specs naming a `gen:` workload are not expanded.
            if let Ok(spec) = SweepSpec::parse(&text) {
                if !spec.workloads.iter().any(|w| w.starts_with(st_workloads::GEN_PREFIX)) {
                    let _ = spec.points();
                }
            }
        }

        #[test]
        fn any_json_text_parses_or_fails_without_panicking(text in inputs(&[SIZE_JSON, RECORD])) {
            let _ = Json::parse(&text);
        }

        #[test]
        fn any_allow_file_parses_or_fails_without_panicking(text in inputs(&[ALLOW])) {
            let _ = Allowlist::parse(&text);
        }
    }
}
