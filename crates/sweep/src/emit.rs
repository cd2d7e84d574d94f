//! Structured result emitters: JSON lines, CSV and `st-report` tables.
//!
//! Everything renders to `String` first (tests assert on output), with
//! thin `write_*` helpers for persistence. No serde in the vendored
//! environment, so JSON is emitted by hand from a flat key/value model.

use std::io::Write as _;
use std::path::Path;

use st_core::{Comparison, SimReport};
use st_report::Table;

/// Escapes a string for inclusion in a JSON document.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Inf; they map to null).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The flat metric set emitted per simulation point.
///
/// Field order is the emission order of both the JSONL object keys and
/// the CSV columns, so downstream tooling sees one stable schema.
#[must_use]
pub fn report_fields(r: &SimReport) -> Vec<(&'static str, String)> {
    vec![
        ("workload", format!("\"{}\"", json_escape(&r.workload))),
        ("experiment", format!("\"{}\"", json_escape(&r.experiment))),
        ("label", format!("\"{}\"", json_escape(&r.label))),
        ("cycles", r.perf.cycles.to_string()),
        ("committed", r.perf.committed.to_string()),
        ("ipc", json_num(r.ipc())),
        ("fetched", r.perf.fetched.to_string()),
        ("wrong_path_fetched", r.perf.wrong_path_fetched.to_string()),
        ("branches_committed", r.perf.branches_committed.to_string()),
        ("mispredicts_committed", r.perf.mispredicts_committed.to_string()),
        ("mispredict_rate", json_num(r.perf.mispredict_rate())),
        ("fetch_gated_cycles", r.perf.fetch_gated_cycles.to_string()),
        ("decode_gated_cycles", r.perf.decode_gated_cycles.to_string()),
        ("selection_blocked", r.perf.selection_blocked.to_string()),
        ("energy_j", json_num(r.energy.energy)),
        ("avg_power_w", json_num(r.energy.avg_power())),
        ("energy_delay", json_num(r.energy.energy_delay())),
        ("wasted_frac", json_num(r.energy.wasted_frac())),
        ("conf_spec", json_num(r.conf.spec())),
        ("conf_pvn", json_num(r.conf.pvn())),
        ("l1i_miss_rate", json_num(r.mem.l1i_miss_rate)),
        ("l1d_miss_rate", json_num(r.mem.l1d_miss_rate)),
    ]
}

/// Per-point tags appended to emitted records: `(key, raw JSON value)`
/// pairs — `st run` uses them to echo each point's axis bindings
/// (`axis.depth`, `axis.ruu_size`, …) so downstream tools can group
/// results by axis without re-deriving the grid.
pub type Tags = [(String, String)];

fn tag_members(tags: &Tags) -> String {
    tags.iter().map(|(k, v)| format!(",\"{}\":{}", json_escape(k), v)).collect()
}

/// One JSON-lines record for a simulation point (`"kind":"report"`),
/// with `tags` appended as extra members.
///
/// `st run` writes report and comparison records into one JSONL stream;
/// the leading `kind` field is the discriminator consumers switch on.
#[must_use]
pub fn report_jsonl_tagged(r: &SimReport, tags: &Tags) -> String {
    let fields: Vec<String> =
        report_fields(r).into_iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{\"kind\":\"report\",{}{}}}", fields.join(","), tag_members(tags))
}

/// One JSON-lines record for a baseline-vs-variant comparison
/// (`"kind":"comparison"`; see [`report_jsonl_tagged`] on the
/// discriminator), with `tags` appended as extra members.
#[must_use]
pub fn comparison_jsonl_tagged(
    workload: &str,
    experiment: &str,
    c: &Comparison,
    tags: &Tags,
) -> String {
    format!(
        "{{\"kind\":\"comparison\",\"workload\":\"{}\",\"experiment\":\"{}\",\"speedup\":{},\"power_savings_pct\":{},\"energy_savings_pct\":{},\"ed_improvement_pct\":{},\"ed2_improvement_pct\":{}{}}}",
        json_escape(workload),
        json_escape(experiment),
        json_num(c.speedup),
        json_num(c.power_savings_pct),
        json_num(c.energy_savings_pct),
        json_num(c.ed_improvement_pct),
        json_num(c.ed2_improvement_pct),
        tag_members(tags),
    )
}

/// Renders a batch of reports as a CSV-able [`Table`] (same schema as the
/// JSONL emitter; string quoting stripped), with per-report tag columns
/// appended (every report must carry the same tag keys — one sweep binds
/// one axis set).
#[must_use]
pub fn reports_to_table_tagged(
    title: &str,
    reports: &[impl std::borrow::Borrow<SimReport>],
    tags: &[Vec<(String, String)>],
) -> Table {
    debug_assert_eq!(reports.len(), tags.len(), "one tag set per report");
    let mut headers: Vec<String> = match reports.first() {
        Some(first) => {
            report_fields(first.borrow()).iter().map(|(k, _)| (*k).to_string()).collect()
        }
        None => vec!["workload".to_string()],
    };
    if let Some(first_tags) = tags.first() {
        headers.extend(first_tags.iter().map(|(k, _)| k.clone()));
    }
    let mut t = Table::new(headers).with_title(title.to_string());
    for (r, row_tags) in reports.iter().zip(tags) {
        t.row(
            report_fields(r.borrow())
                .into_iter()
                .map(|(_, v)| v.trim_matches('"').to_string())
                .chain(row_tags.iter().map(|(_, v)| v.trim_matches('"').to_string()))
                .collect(),
        );
    }
    t
}

/// JSON/CSV tags for one point's axis bindings (`axis.<name>` keys).
#[must_use]
pub fn binding_tags(point: &crate::spec::SweepPoint) -> Vec<(String, String)> {
    point.bindings.iter().map(|(name, value)| (format!("axis.{name}"), value.canonical())).collect()
}

/// For each point, the index (within `points`) of its same-configuration
/// baseline — the `BASE` point sharing every other job input — or `None`
/// for baseline points themselves and sweeps run without baselines.
///
/// The single source of the pairing recipe: both the JSONL emitter below
/// and `st run`'s printed comparison table consume it, so they cannot
/// drift.
#[must_use]
pub fn baseline_pairing(points: &[crate::spec::SweepPoint]) -> Vec<Option<usize>> {
    let baseline_index: std::collections::HashMap<u64, usize> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.job.experiment.id == "BASE")
        .map(|(i, p)| (p.job.fingerprint(), i))
        .collect();
    points
        .iter()
        .map(|point| {
            if point.job.experiment.id == "BASE" {
                return None;
            }
            let base_fp = point
                .job
                .clone()
                .with_experiment(st_core::experiments::baseline())
                .with_estimator(crate::job::EstimatorChoice::Experiment)
                .fingerprint();
            baseline_index.get(&base_fp).copied()
        })
        .collect()
}

/// The full JSONL document of one executed sweep, exactly as `st run`
/// writes it: one tagged `report` record per point, followed by a tagged
/// `comparison` record for every non-baseline point whose
/// same-configuration baseline is part of the sweep.
///
/// Shared by the CLI and the golden determinism tests, so the fingerprint
/// the tests pin covers the byte-for-byte output of a real `st run`.
#[must_use]
pub fn sweep_jsonl(
    points: &[crate::spec::SweepPoint],
    reports: &[impl std::borrow::Borrow<SimReport>],
) -> String {
    sweep_jsonl_with_pairing(points, reports, &baseline_pairing(points))
}

/// [`sweep_jsonl`] with a precomputed [`baseline_pairing`], for callers
/// (like `st run`) that also consume the pairing elsewhere and should
/// not recompute the per-point fingerprints.
#[must_use]
pub fn sweep_jsonl_with_pairing(
    points: &[crate::spec::SweepPoint],
    reports: &[impl std::borrow::Borrow<SimReport>],
    pairing: &[Option<usize>],
) -> String {
    debug_assert_eq!(points.len(), reports.len(), "one report per point");
    let report_lines: String = points
        .iter()
        .zip(reports)
        .map(|(point, report)| report_line(point, report.borrow()))
        .collect();
    report_lines + &comparison_lines(points, reports, pairing)
}

/// The `report` record of one point, newline-terminated: the line a
/// sweep's JSONL holds for it, whether written at once or streamed as
/// the point completes.
#[must_use]
pub fn report_line(point: &crate::spec::SweepPoint, report: &SimReport) -> String {
    let mut line = report_jsonl_tagged(report, &binding_tags(point));
    line.push('\n');
    line
}

/// The `comparison` records of a sweep, each newline-terminated, in grid
/// order. They need the whole grid, since a variant's baseline may sit
/// anywhere, so they follow every `report` record.
#[must_use]
pub fn comparison_lines(
    points: &[crate::spec::SweepPoint],
    reports: &[impl std::borrow::Borrow<SimReport>],
    pairing: &[Option<usize>],
) -> String {
    debug_assert_eq!(points.len(), pairing.len(), "one pairing entry per point");
    let mut lines = String::new();
    for ((point, report), baseline) in points.iter().zip(reports).zip(pairing) {
        let report = report.borrow();
        let Some(bi) = *baseline else { continue };
        let cmp = st_core::compare(reports[bi].borrow(), report);
        lines.push_str(&comparison_jsonl_tagged(
            &report.workload,
            &report.experiment,
            &cmp,
            &binding_tags(point),
        ));
        lines.push('\n');
    }
    lines
}

/// The number of records in a sweep's JSONL: one `report` per point and
/// one `comparison` per point with a baseline. A stream announces it
/// before its first record, so a reader can tell a stream cut short.
#[must_use]
pub fn record_count(pairing: &[Option<usize>]) -> usize {
    pairing.len() + pairing.iter().flatten().count()
}

/// The result table of one executed sweep, exactly as `st run` prints
/// and CSVs it: the flat report schema plus one `axis.<name>` column per
/// bound axis. Shared by `st run` and `st merge` so a merged sweep's CSV
/// cannot drift from the single-process one.
#[must_use]
pub fn sweep_table(
    name: &str,
    points: &[crate::spec::SweepPoint],
    reports: &[impl std::borrow::Borrow<SimReport>],
) -> Table {
    let tags: Vec<Vec<(String, String)>> = points.iter().map(binding_tags).collect();
    reports_to_table_tagged(&format!("sweep `{name}` results"), reports, &tags)
}

/// Writes text to a file, creating parent directories.
pub fn write_text(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobSpec;
    use st_isa::WorkloadSpec;

    fn report() -> SimReport {
        JobSpec::new(WorkloadSpec::builder("emit-test").seed(9).blocks(64).build(), 1_000).run()
    }

    #[test]
    fn jsonl_is_one_parseable_flat_object() {
        let r = report();
        let line = report_jsonl_tagged(&r, &[]);
        assert!(line.starts_with("{\"kind\":\"report\",") && line.ends_with('}'));
        assert!(line.contains("\"workload\":\"emit-test\""));
        assert!(line.contains("\"experiment\":\"BASE\""));
        assert!(line.contains("\"ipc\":"));
        assert!(!line.contains('\n'));
        let members = crate::json::Json::parse(&line).expect("one JSON object");
        assert_eq!(
            members.as_obj().unwrap().len(),
            1 + report_fields(&r).len(),
            "no tags, no extras"
        );
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.5), "1.5");
    }

    #[test]
    fn tagged_emitters_append_axis_members() {
        let r = report();
        let tags = vec![
            ("axis.depth".to_string(), "14".to_string()),
            ("axis.idle_frac".into(), "0.1".into()),
        ];
        let line = report_jsonl_tagged(&r, &tags);
        assert!(line.ends_with(",\"axis.depth\":14,\"axis.idle_frac\":0.1}"), "{line}");
        assert!(line.starts_with("{\"kind\":\"report\","));
        let cmp = st_core::compare(&r, &r);
        let cline = comparison_jsonl_tagged("w", "C2", &cmp, &tags);
        assert!(cline.contains("\"kind\":\"comparison\""));
        assert!(cline.ends_with(",\"axis.idle_frac\":0.1}"), "{cline}");
        let t = reports_to_table_tagged("t", &[&r], &[tags]);
        let csv = t.to_csv();
        assert!(csv.lines().next().unwrap().ends_with("axis.depth,axis.idle_frac"), "{csv}");
        assert!(csv.lines().nth(1).unwrap().ends_with("14,0.1"), "{csv}");
    }

    #[test]
    fn table_mirrors_jsonl_schema() {
        let r = report();
        let t = reports_to_table_tagged("t", &[&r], &[Vec::new()]);
        let csv = t.to_csv();
        assert!(csv.contains("workload"));
        assert!(csv.contains("emit-test"));
        assert_eq!(csv.lines().count(), 2);
    }
}
