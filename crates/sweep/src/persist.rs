//! The exact [`SimReport`] JSON codec.
//!
//! [`report_to_json`] serialises a report as one line of JSON and
//! [`report_from_json`] parses it back. The result store
//! ([`crate::logstore`]) keeps these lines as its frame payloads, and
//! shard documents ([`crate::shard`]) carry them per record.
//!
//! Round-trips are **exact**: floats are written with Rust's shortest
//! round-trip formatting and parsed back bit-identically, so a report
//! served from disk is indistinguishable from a fresh simulation — the
//! CI determinism check diffs JSONL output across cached and uncached
//! runs. A version-skewed or garbled line is an `Err`, which the store
//! counts and treats as a miss.

use st_bpred::{ConfidenceStats, PredictorStats};
use st_core::SimReport;
use st_pipeline::{MemSummary, PerfStats};
use st_power::{EnergyReport, UNIT_COUNT};

use crate::emit::json_escape;
use crate::json::Json;

/// Format version; bump when the encoding changes so stale store
/// entries degrade to misses instead of mis-parses.
const VERSION: u64 = 1;

/// Exact float encoding: Rust's shortest round-trip representation
/// (non-finite values render as `NaN`/`inf`, which [`report_from_json`]
/// accepts — this is a private store format, not interchange JSON).
fn num(v: f64) -> String {
    format!("{v}")
}

fn num_array(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(","))
}

fn int_array(vs: &[u64]) -> String {
    let items: Vec<String> = vs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Serialises a report as one line of JSON.
#[must_use]
pub fn report_to_json(r: &SimReport) -> String {
    let p = &r.perf;
    let perf = [
        p.cycles,
        p.committed,
        p.fetched,
        p.wrong_path_fetched,
        p.dispatched,
        p.wrong_path_dispatched,
        p.issued,
        p.wrong_path_issued,
        p.squashed,
        p.branches_committed,
        p.mispredicts_committed,
        p.recoveries,
        p.fetch_gated_cycles,
        p.decode_gated_cycles,
        p.selection_blocked,
    ];
    let conf: Vec<u64> = r.conf.counts.iter().flatten().copied().collect();
    let mem = [r.mem.l1i_miss_rate, r.mem.l1d_miss_rate, r.mem.l2_miss_rate, r.mem.tlb_miss_rate];
    format!(
        "{{\"v\":{VERSION},\"workload\":\"{}\",\"experiment\":\"{}\",\"label\":\"{}\",\"perf\":{},\"energy_cycles\":{},\"energy_committed\":{},\"frequency_hz\":{},\"energy\":{},\"per_unit\":{},\"wasted_per_unit\":{},\"bpred\":{},\"conf\":{},\"mem\":{}}}\n",
        json_escape(&r.workload),
        json_escape(&r.experiment),
        json_escape(&r.label),
        int_array(&perf),
        r.energy.cycles,
        r.energy.committed,
        num(r.energy.frequency_hz),
        num(r.energy.energy),
        num_array(&r.energy.per_unit),
        num_array(&r.energy.wasted_per_unit),
        int_array(&[r.bpred.predictions, r.bpred.mispredictions]),
        int_array(&conf),
        num_array(&mem),
    )
}

/// Parses a report serialised by [`report_to_json`].
pub fn report_from_json(text: &str) -> Result<SimReport, String> {
    let json = Json::parse(text)?;
    let obj = json.as_obj()?;
    if get(obj, "v")?.as_u64()? != VERSION {
        return Err("unsupported cache entry version".to_string());
    }
    let perf_raw = get(obj, "perf")?.as_u64_vec()?;
    let [cycles, committed, fetched, wrong_path_fetched, dispatched, wrong_path_dispatched, issued, wrong_path_issued, squashed, branches_committed, mispredicts_committed, recoveries, fetch_gated_cycles, decode_gated_cycles, selection_blocked] =
        perf_raw.as_slice()
    else {
        return Err(format!("perf expects 15 counters, got {}", perf_raw.len()));
    };
    let perf = PerfStats {
        cycles: *cycles,
        committed: *committed,
        fetched: *fetched,
        wrong_path_fetched: *wrong_path_fetched,
        dispatched: *dispatched,
        wrong_path_dispatched: *wrong_path_dispatched,
        issued: *issued,
        wrong_path_issued: *wrong_path_issued,
        squashed: *squashed,
        branches_committed: *branches_committed,
        mispredicts_committed: *mispredicts_committed,
        recoveries: *recoveries,
        fetch_gated_cycles: *fetch_gated_cycles,
        decode_gated_cycles: *decode_gated_cycles,
        selection_blocked: *selection_blocked,
    };
    let energy = EnergyReport {
        cycles: get(obj, "energy_cycles")?.as_u64()?,
        committed: get(obj, "energy_committed")?.as_u64()?,
        frequency_hz: get(obj, "frequency_hz")?.as_f64()?,
        energy: get(obj, "energy")?.as_f64()?,
        per_unit: unit_array(get(obj, "per_unit")?)?,
        wasted_per_unit: unit_array(get(obj, "wasted_per_unit")?)?,
    };
    let bpred_raw = get(obj, "bpred")?.as_u64_vec()?;
    let [predictions, mispredictions] = bpred_raw.as_slice() else {
        return Err("bpred expects 2 counters".to_string());
    };
    let conf_raw = get(obj, "conf")?.as_u64_vec()?;
    if conf_raw.len() != 8 {
        return Err("conf expects 8 counters".to_string());
    }
    let mut conf = ConfidenceStats::default();
    for (i, v) in conf_raw.iter().enumerate() {
        conf.counts[i / 2][i % 2] = *v;
    }
    let mem_raw = get(obj, "mem")?.as_f64_vec()?;
    let [l1i, l1d, l2, tlb] = mem_raw.as_slice() else {
        return Err("mem expects 4 rates".to_string());
    };
    Ok(SimReport {
        workload: get(obj, "workload")?.as_str()?.to_string(),
        experiment: get(obj, "experiment")?.as_str()?.to_string(),
        label: get(obj, "label")?.as_str()?.to_string(),
        perf,
        energy,
        bpred: PredictorStats { predictions: *predictions, mispredictions: *mispredictions },
        conf,
        mem: MemSummary {
            l1i_miss_rate: *l1i,
            l1d_miss_rate: *l1d,
            l2_miss_rate: *l2,
            tlb_miss_rate: *tlb,
        },
    })
}

fn unit_array(json: &Json) -> Result<[f64; UNIT_COUNT], String> {
    let v = json.as_f64_vec()?;
    let arr: [f64; UNIT_COUNT] =
        v.try_into().map_err(|_| format!("expected {UNIT_COUNT} per-unit values"))?;
    Ok(arr)
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v).ok_or_else(|| format!("missing `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobSpec;
    use st_isa::WorkloadSpec;

    fn report(seed: u64) -> SimReport {
        JobSpec::new(WorkloadSpec::builder("persist-test").seed(seed).blocks(64).build(), 1_500)
            .with_experiment(st_core::experiments::c2())
            .run()
    }

    #[test]
    fn report_round_trips_exactly() {
        let r = report(1);
        let json = report_to_json(&r);
        let back = report_from_json(&json).expect("parse");
        // PartialEq covers every counter and float bit-for-bit.
        assert_eq!(r, back);
    }

    #[test]
    fn non_finite_floats_survive() {
        let mut r = report(2);
        r.mem.l2_miss_rate = f64::NAN;
        r.mem.tlb_miss_rate = f64::INFINITY;
        let back = report_from_json(&report_to_json(&r)).expect("parse");
        assert!(back.mem.l2_miss_rate.is_nan());
        assert_eq!(back.mem.tlb_miss_rate, f64::INFINITY);
    }

    #[test]
    fn escaped_strings_survive() {
        let mut r = report(3);
        r.label = "quote\" slash\\ newline\n tab\t".to_string();
        let back = report_from_json(&report_to_json(&r)).expect("parse");
        assert_eq!(back.label, r.label);
    }

    #[test]
    fn rejects_version_skew_and_garbage() {
        let r = report(4);
        let json = report_to_json(&r).replace("\"v\":1", "\"v\":999");
        assert!(report_from_json(&json).is_err());
        assert!(report_from_json("not json").is_err());
        assert!(report_from_json("{}").is_err());
        assert!(report_from_json("{\"v\":1}").is_err());
    }
}
