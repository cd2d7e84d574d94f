//! `gen-population`: `examples/gen-demo.toml`'s shape — the four
//! generative families over a `workload_seed` range, BASE + C2 at 6k
//! instructions — run as `st run` runs a spec, from an empty results
//! directory. Member derivation and calibration, program generation,
//! per-point overheads, one store write per point and a large JSONL emit
//! dominate; the simulations are short and cold.
//!
//! The benchmark seed picks the `workload_seed` range, far above the
//! seeds the families were validated on (`0..1000`), so every member is
//! held out from calibration. A run is many equal rounds, each a fresh
//! range into its own empty results directory, after one warm-up round
//! that is checked but not timed; the host-time metrics are the median
//! round's (see [`round_metrics`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use st_sweep::{emit, SweepEngine, SweepSpec};

use crate::metrics::{round_metrics, Outcome, Round, Values};
use crate::sim::{self, Point};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::{host, Args, THREADS};

const INSTRUCTIONS: u64 = 6_000;
const FAMILIES: [&str; 4] = ["spec2006", "server", "jit", "mix"];

/// `workload_seed`s of each family per round.
const ROUND_SEEDS: u64 = 12;

/// Rounds before the timed ones.
const WARM_UP: u64 = 1;

/// Members derived per second of `--seconds`, sized so a run measures
/// about that long on a 2-core host.
const MEMBERS_PER_SECOND: u64 = 36;

/// Points re-run solo: a few untraced, enough for a p90 traced.
const SOLO_CHECKED: usize = 4;
const SOLO_TIMED: usize = 100;

/// The spec a user would write for one round (`st run` input).
fn spec_text(lo: u64, hi: u64) -> String {
    let workloads: Vec<String> = FAMILIES.iter().map(|f| format!("\"gen:{f}:{lo}\"")).collect();
    format!(
        "name = \"gen-population\"\nworkloads = [{}]\nexperiments = [\"C2\"]\n\n[axis]\n\
         workload_seed = \"{lo}..{hi}\"\ninstructions = {INSTRUCTIONS}\n",
        workloads.join(", ")
    )
}

#[derive(Default)]
struct Totals {
    run_s: f64,
    run_cpu_s: f64,
    simulated: u64,
    hits: u64,
    delivered: u64,
    expand_s: f64,
    emit_s: f64,
    emit_records: u64,
    emit_bytes: u64,
}

pub fn run(args: &Args, scratch: &Path, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut e2e, mut layer) = (Values::new(), Values::new());
    let timed = (MEMBERS_PER_SECOND * args.seconds / (FAMILIES.len() as u64 * ROUND_SEEDS)).max(3);
    let all_rounds = WARM_UP + timed;
    let first_seed = 1_000_000 + (args.seed % 1_000_000) * all_rounds * ROUND_SEEDS;

    let mut t = Totals::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut points: Vec<Point> = Vec::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    for round in 0..all_rounds {
        let lo = first_seed + round * ROUND_SEEDS;
        let results = scratch.join(format!("round-{round}"));
        let cpu0 = host::cpu_seconds()?;
        let start = Instant::now();
        let (parsed, _) = tracer
            .span("spec.parse", None, None, |_| SweepSpec::parse(&spec_text(lo, lo + ROUND_SEEDS)));
        let spec = parsed.map_err(|e| format!("gen-population spec: {e}"))?;
        if tracer.enabled() {
            // Derive every member up front, one span each, so that
            // expansion below times only the grid itself.
            for family in FAMILIES {
                for seed in lo..lo + ROUND_SEEDS {
                    let (member, _) = tracer.span("workloads.derive", None, None, |_| {
                        st_workloads::by_name(&format!("gen:{family}:{seed}"))
                    });
                    std::hint::black_box(member);
                }
            }
        }
        let (expanded, expand_s) = tracer.span("spec.expand", None, None, |_| spec.points());
        let grid = expanded.map_err(|e| format!("gen-population spec: {e}"))?;
        let (engine, _) = tracer.span("store.open_empty", None, None, |_| {
            SweepEngine::with_result_store(THREADS, &results).with_lanes(1)
        });
        let setup_s = start.elapsed().as_secs_f64();

        let jobs: Vec<_> = grid.iter().map(|p| p.job.clone()).collect();
        let run_cpu0 = host::cpu_seconds()?;
        let (reports, run_s) = tracer.span("engine.run", None, None, |_| engine.run(&jobs));
        t.run_cpu_s += host::cpu_seconds()? - run_cpu0;
        let (jsonl, emit_s) =
            tracer.span("emit.jsonl", None, None, |_| emit::sweep_jsonl(&grid, &reports));
        let path = results.join("gen-population.jsonl");
        emit::write_text(&path, &jsonl).map_err(|e| format!("{}: {e}", path.display()))?;
        if round >= WARM_UP {
            rounds.push(Round {
                wall_s: start.elapsed().as_secs_f64(),
                setup_s,
                cpu_s: host::cpu_seconds()? - cpu0,
                points: reports.len() as u64,
            });
        }

        let stats = engine.stats();
        t.run_s += run_s;
        t.expand_s += expand_s;
        t.emit_s += emit_s;
        t.emit_records += jsonl.lines().count() as u64;
        t.emit_bytes += jsonl.len() as u64;
        t.simulated += stats.simulated;
        t.hits += stats.cache.hits;
        t.delivered += reports.len() as u64;
        // One report per point and one C2-vs-BASE comparison per member.
        let members = FAMILIES.len() * ROUND_SEEDS as usize;
        let kind = |k: &str| jsonl.lines().filter(|l| l.starts_with(k)).count();
        let counts = (
            grid.len(),
            kind("{\"kind\":\"report\","),
            kind("{\"kind\":\"comparison\","),
            jsonl.lines().count(),
        );
        out.check(counts == (2 * members, 2 * members, members, 3 * members), || {
            format!(
                "round {round}: (points, reports, comparisons, records) = {counts:?} for {members} members"
            )
        });
        points.extend(jobs.into_iter().zip(reports.iter().map(Arc::clone)));
        dirs.push(results);
    }
    let rss = host::peak_rss_mib(None)?;

    round_metrics(&rounds, &mut e2e);
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    eprintln!("perfbench: gen-population: round wall times {walls:.2?} s");
    e2e.insert("peak_rss_mib", rss);
    sim::check_invariants(&points, &mut out);
    sim::simulated_metrics(&points, &mut e2e, &mut layer);

    // Calibration residual of every member the run derived.
    let mut gaps = Vec::new();
    for round in 0..all_rounds {
        let lo = first_seed + round * ROUND_SEEDS;
        for name in FAMILIES {
            let family = st_workloads::generate::family(name).expect("registered family");
            for seed in lo..lo + ROUND_SEEDS {
                let (_, cal) = st_workloads::generate::resolve_member(family, seed);
                gaps.push(100.0 * (cal.achieved - family.target_miss).abs());
            }
        }
    }
    e2e.insert("calib_gap_pp", gaps.iter().sum::<f64>() / gaps.len() as f64);

    let n = if tracer.enabled() { SOLO_TIMED } else { SOLO_CHECKED };
    let sample = sim::pick_sample(&points, n, args.seed);
    tracer.span("solo", None, None, |id| {
        sim::solo_check(&sample, THREADS, tracer, id, &mut out, &mut layer);
    });
    if tracer.enabled() {
        crate::service::phase(args.seed, scratch, tracer, &mut out, &mut layer)?;
    }

    let derive_ms: Vec<f64> =
        tracer.durations("workloads.derive").iter().map(|s| s * 1e3).collect();
    layer.insert("workloads.derive_s", derive_ms.iter().sum::<f64>() / 1e3);
    layer.insert("workloads.derive_ms_p50", median(&derive_ms).unwrap_or(0.0));
    layer.insert("workloads.derive_ms_p90", tail_percentile(&derive_ms, 0.9).unwrap_or(0.0));
    layer.insert("workloads.members", derive_ms.len() as f64);
    layer.insert("spec.expand_s", t.expand_s);
    layer.insert("spec.points", t.delivered as f64);
    layer.insert("engine.run_s", t.run_s);
    layer.insert("engine.idle_frac", 1.0 - t.run_cpu_s / (THREADS as f64 * t.run_s));
    layer.insert("engine.simulated", t.simulated as f64);
    layer.insert("engine.cache_hits", t.hits as f64);
    layer.insert("store.hit_rate", t.hits as f64 / t.delivered.max(1) as f64);
    layer.insert("emit.jsonl_s", t.emit_s);
    layer.insert("emit.records", t.emit_records as f64);
    layer.insert("emit.bytes", t.emit_bytes as f64);
    crate::fingerprint_metrics(points.iter().map(|(job, _)| job), tracer, &mut layer);
    crate::store_metrics(&dirs, tracer, &mut layer);
    out.end_to_end = e2e;
    out.per_layer = layer;
    Ok(out)
}
