//! The metric tables `BENCHMARK.json` declares, and a run's outcome.
//!
//! Every workload reports every metric: an untraced run the end-to-end
//! table, a traced run the per-layer table. A layer a workload does not
//! exercise reports 0 for its per-layer metrics.

use std::collections::BTreeMap;

use crate::stats::{median, valid_name, valid_unit};

/// `(name, unit)` of each end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_ipc", "instr/cycle"),
    ("c2_energy_savings_pct", "%"),
    ("c2_ed_improvement_pct", "%"),
    ("paper_gap_pp", "pp"),
    ("calib_gap_pp", "pp"),
];

/// `(name, unit)` of each per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("workloads.derive_s", "s"),
    ("workloads.derive_ms_p50", "ms"),
    ("workloads.derive_ms_p90", "ms"),
    ("workloads.members", "count"),
    ("spec.expand_s", "s"),
    ("spec.points", "count"),
    ("isa.generate_ms_p50", "ms"),
    ("isa.generate_ms_p90", "ms"),
    ("isa.programs", "count"),
    ("core.build_ms_p50", "ms"),
    ("core.run_ms_p50", "ms"),
    ("core.run_ms_p90", "ms"),
    ("core.samples", "count"),
    ("core.minstr_per_s", "Minstr/s"),
    ("core.mcycles_per_s", "Mcycles/s"),
    ("engine.run_s", "s"),
    ("engine.idle_frac", "ratio"),
    ("engine.simulated", "count"),
    ("engine.cache_hits", "count"),
    ("job.fingerprint_us_p50", "us"),
    ("job.fingerprints", "count"),
    ("store.open_s", "s"),
    ("store.entries", "count"),
    ("store.bytes", "bytes"),
    ("store.bytes_written", "bytes"),
    ("store.hit_rate", "ratio"),
    ("emit.jsonl_s", "s"),
    ("emit.records", "count"),
    ("emit.bytes", "bytes"),
    ("service.ready_s", "s"),
    ("service.submissions", "count"),
    ("service.submit_ms_p50", "ms"),
    ("service.submit_ms_p90", "ms"),
    ("service.ttfr_ms_p50", "ms"),
    ("service.stream_ms_p50", "ms"),
    ("service.points_served", "count"),
    ("service.points_simulated", "count"),
    ("service.cache_hits", "count"),
    ("service.ready_rss_mib", "MiB"),
    ("bpred.mispredict_rate", "ratio"),
    ("bpred.conf_spec", "ratio"),
    ("bpred.conf_pvn", "ratio"),
    ("pipeline.wrong_path_fetch_frac", "ratio"),
    ("pipeline.fetch_gated_frac", "ratio"),
    ("pipeline.decode_gated_frac", "ratio"),
    ("pipeline.selection_blocked_per_kinstr", "1/kinstr"),
    ("mem.l1i_miss_rate", "ratio"),
    ("mem.l1d_miss_rate", "ratio"),
    ("mem.l2_miss_rate", "ratio"),
    ("power.wasted_frac", "ratio"),
    ("power.avg_w", "W"),
    ("trace.total_s", "s"),
    ("trace.spans", "count"),
    ("host.threads", "count"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks made (reports compared, invariants, submissions).
    pub attempted: u64,
    /// Checks that failed: a mismatch, an error record, a refused or
    /// truncated submission.
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    pub end_to_end: Values,
    pub per_layer: Values,
}

impl Outcome {
    /// Counts one check; a failure is kept with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// One measured repetition of a workload's operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Round {
    /// Wall time of the whole round, set-up included.
    pub wall_s: f64,
    /// Wall time of its set-up.
    pub setup_s: f64,
    /// CPU time of the process doing the work.
    pub cpu_s: f64,
    /// Points delivered.
    pub points: u64,
}

/// The host-time end-to-end metrics of a run made of equal rounds, each
/// taken from the median round and scaled to the whole run, so that a
/// few rounds slowed by a burst of host load move none of them:
///
/// * `total_s`: rounds × the median round's wall time;
/// * `setup_s`: the median round's set-up;
/// * `points_per_s`: the points of every round per second of `total_s`;
/// * `cpu_s`: rounds × the median round's CPU time.
pub fn round_metrics(rounds: &[Round], e2e: &mut Values) {
    let n = rounds.len() as f64;
    let med = |f: fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).expect("rounds ran")
    };
    let total_s = n * med(|r| r.wall_s);
    let points: u64 = rounds.iter().map(|r| r.points).sum();
    e2e.insert("total_s", total_s);
    e2e.insert("setup_s", med(|r| r.setup_s));
    e2e.insert("points_per_s", points as f64 / total_s);
    e2e.insert("cpu_s", n * med(|r| r.cpu_s));
}

/// Renders the result line: every metric of `table`, in order. Fails if
/// a metric is missing or not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!("metric {name} [{unit}] breaks the name or unit grammar"));
        }
        let v = values.get(name).ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        metrics.push(format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_follow_the_name_and_unit_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
    }

    /// The tables must match what `BENCHMARK.json` declares, name, unit
    /// and order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = st_sweep::json::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let Some(st_sweep::json::Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is not an array")
            };
            let declared: Vec<(String, String)> = items
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(|v| v.as_str().ok()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn round_metrics_ignore_a_slow_minority() {
        let round = |wall_s| Round { wall_s, setup_s: wall_s / 4.0, cpu_s: 1.5, points: 10 };
        let steady: Vec<Round> = [1.0, 1.1, 0.9, 1.0, 1.0].map(round).to_vec();
        let mut slowed = steady.clone();
        slowed[1] = round(3.0);
        slowed[3] = round(2.5);
        let (mut a, mut b) = (Values::new(), Values::new());
        round_metrics(&steady, &mut a);
        round_metrics(&slowed, &mut b);
        assert_eq!(a, b);
        assert_eq!(a["total_s"], 5.0);
        assert_eq!(a["setup_s"], 0.25);
        assert_eq!(a["points_per_s"], 10.0);
        assert_eq!(a["cpu_s"], 7.5);
    }

    #[test]
    fn result_line_prints_every_digit() {
        let values: Values = [("a", 0.1 + 0.2), ("b", 3.0)].into_iter().collect();
        let line = result_line(true, 5, 0, &[("a", "s"), ("b", "count")], &values).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"a\":{\"value\":0.30000000000000004,\"unit\":\"s\"},\"b\":{\"value\":3.0,\"unit\":\"count\"}}}"
        );
        assert!(result_line(true, 1, 0, &[("c", "s")], &values).is_err());
        let nan: Values = [("a", f64::NAN)].into_iter().collect();
        assert!(result_line(true, 1, 0, &[("a", "s")], &nan).is_err());
    }
}
