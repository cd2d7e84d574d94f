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
//!   across a worker pool, results assemble in submission order, and a
//!   fingerprint-keyed [`ResultCache`] simulates each distinct point
//!   exactly once per engine lifetime. Thread count cannot influence any
//!   result bit;
//! * **[`logstore`]** — the on-disk result store, an append-only
//!   segment log (`<out>/.store/seg-<n>.log`) with crash-safe recovery,
//!   compaction and LRU size-budget eviction; reports are kept in the
//!   exact JSON codec of **[`persist`]**.
//!   [`SweepEngine::with_result_store`] preloads it and writes fresh
//!   points through, so repeated invocations reuse work across
//!   processes;
//! * **[`SweepSpec`]** — a declarative workload × experiment × axis grid
//!   (`axis.<name>` keys with legacy aliases), buildable in code or
//!   parsed from a small TOML/JSON document;
//! * **[`emit`]** — JSON-lines, CSV and `st-report` table emitters, with
//!   per-point axis tagging;
//! * **[`figures`]** — every paper figure/table expressed as a grid
//!   submitted to a shared engine;
//! * **[`bench`](mod@bench)** — steady-state hot-loop microbenchmarks
//!   (simulated instructions/sec) with a built-in determinism probe;
//! * **[`shard`](mod@shard)** — sharded multi-process sweeps: a
//!   deterministic fingerprint-range [`ShardPlan`], a streaming shard
//!   worker with file-lock work stealing over the shared cache
//!   directory, and [`shard::merge`], which unions shard documents back
//!   into output byte-identical to a single-process run;
//! * **[`service`](mod@service)** — the long-running sweep daemon
//!   behind `st serve`: a hand-rolled HTTP/1.1 + JSONL wire protocol on
//!   `std::net` that accepts submitted specs, serves every point
//!   cache-first from one shared engine (with cross-request in-flight
//!   de-duplication), and streams back records byte-identical to a
//!   local `st run`;
//! * **[`client`](mod@client)** — the matching dependency-free client
//!   (`st submit` / `st status`), which pipes the streamed records to
//!   any sink, verifies stream completeness against the announced
//!   record count (or a locally derived one), and fetches partial grids
//!   (`GET /points?range=lo-hi`);
//! * **[`fleet`](mod@fleet)** — the coordinator tier behind
//!   `st serve --fleet`: partitions each submission by fingerprint-range
//!   [`ShardPlan`] across remote `st serve` workers, verifies and merges
//!   the returned streams through [`shard::merge`] (byte-identical to a
//!   local run), fails dead workers' unfinished ranges over to
//!   survivors, and applies admission control (structured `429`
//!   backpressure) plus per-request priorities;
//! * **[`loadgen`](mod@loadgen)** — the measured-load harness behind
//!   `st loadgen`: concurrent submission replay with throughput and
//!   p50/p90/p99 latency recorded into `BENCH_service.json`;
//! * **[`plot`]** — ASCII charts over cached sweep JSONL;
//! * **[`audit`](mod@audit)** — the deterministic findings engine behind
//!   `st audit`: pure rules over canonically-ordered sweep records
//!   (IPC cliffs, energy-delay regressions, non-monotonic axis
//!   responses, implausible metrics, stale-baseline drift), each
//!   [`Finding`] confidence-tagged and fingerprinted so a checked-in
//!   `audit.allow` file can suppress known findings and CI can gate on
//!   the rest;
//! * **[`artifact`]** — the `BENCH_sweep.json` writer (repro +
//!   core_bench sections, updated independently);
//! * the **`st`** binary — `st repro` regenerates the whole paper in one
//!   parallel pass, `st run spec.toml` executes ad-hoc sweeps (`--set`
//!   overrides any axis, `--shard i/n` runs one shard), `st shard`
//!   spawns a local work-stealing worker fleet, `st merge` reassembles
//!   shard outputs, `st serve` runs the long-lived sweep service
//!   (`--fleet` turns it into a coordinator over remote workers),
//!   `st submit`/`st status` talk to it, `st loadgen` measures it under
//!   concurrent load, `st bench` measures the hot
//!   loop and gates determinism, `st plot` charts cached JSONL,
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

pub mod artifact;
pub mod audit;
pub mod axes;
pub mod bench;
pub mod cache;
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
pub use cache::{CacheStats, ResultCache};
pub use client::ClientError;
pub use engine::{EngineStats, SweepEngine};
pub use fleet::{Fleet, FleetConfig, FleetServer};
pub use job::{EstimatorChoice, JobSpec};
pub use loadgen::{LoadgenConfig, LoadgenResult};
pub use logstore::{LoadStats, LogStore, StoreStats};
pub use service::{Server, ServiceConfig, SweepService};
pub use shard::{ClaimDir, ShardError, ShardPlan};
pub use spec::{all_experiments, experiment_by_id, SpecError, SweepPoint, SweepSpec};
