//! `st audit` — a deterministic findings engine over sweep records.
//!
//! The pipeline is **records → rules → findings → suppress → gate**:
//!
//! 1. **Records** — the tagged JSONL a sweep leaves behind (`report` and
//!    `comparison` lines, each carrying its `axis.<name>` bindings)
//!    parses into flat [`SweepRecord`]s and is *canonicalised*: sorted
//!    by coordinates and exact duplicates collapsed. Canonical order is
//!    what makes every downstream byte deterministic — shuffling the
//!    input lines, or reassembling them from shard documents, cannot
//!    change a single finding.
//! 2. **Rules** — pure functions `&[SweepRecord] -> Vec<Finding>`
//!    (see [`ruleset`]): IPC cliffs along any bound axis, energy-delay
//!    regressions against the unthrottled `BASE` experiment,
//!    non-monotonic axis responses, implausible metric ranges, and
//!    stale-baseline drift between merged result epochs.
//! 3. **Findings** — each [`Finding`] carries a rule id, a
//!    [`Confidence`], the implicated (workload, experiment, bindings)
//!    coordinates and a stable content [`Finding::fingerprint`].
//! 4. **Suppress** — a checked-in allow file ([`Allowlist`]) of known
//!    fingerprints and a `--min-confidence` floor filter the list.
//! 5. **Gate** — whatever survives fails CI (`st audit` exits 4), the
//!    same way the byte-identity goldens do.
//!
//! Rules never look at the outside world, so `audit(records)` is a pure
//! function of the canonicalised record set; the golden test suite pins
//! its byte-for-byte JSONL output.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use st_report::Table;

use crate::emit::{json_escape, json_num};
use crate::job::fnv1a64;
use crate::json::Json;
use crate::spec::SweepPoint;

/// How sure a rule is that a finding is a real anomaly rather than an
/// expected artefact of the configuration under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// Worth a look; small effects can be legitimate trade-offs.
    Low,
    /// Unlikely to be intentional; investigate before shipping.
    Medium,
    /// Either the data is corrupt or the simulator regressed.
    High,
}

impl Confidence {
    /// Canonical label (`Low`/`Medium`/`High`), used by the JSONL and
    /// table emitters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Confidence::Low => "Low",
            Confidence::Medium => "Medium",
            Confidence::High => "High",
        }
    }

    /// Parses a `--min-confidence` spelling (case-insensitive; accepts
    /// `low`/`medium`/`high` and the initials `l`/`m`/`h`).
    ///
    /// # Errors
    ///
    /// Returns a one-line description for any other spelling.
    pub fn parse(text: &str) -> Result<Confidence, String> {
        match text.to_ascii_lowercase().as_str() {
            "low" | "l" => Ok(Confidence::Low),
            "medium" | "med" | "m" => Ok(Confidence::Medium),
            "high" | "h" => Ok(Confidence::High),
            other => Err(format!("unknown confidence `{other}` (expected low, medium or high)")),
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which JSONL record family a [`SweepRecord`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecordKind {
    /// A `"kind":"report"` line: one simulated point's metrics.
    Report,
    /// A `"kind":"comparison"` line: a variant vs its same-configuration
    /// `BASE` baseline.
    Comparison,
}

impl RecordKind {
    /// The JSONL discriminator spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::Report => "report",
            RecordKind::Comparison => "comparison",
        }
    }
}

/// One parsed sweep record: the flat numeric metric set plus the
/// `(workload, experiment, axis bindings)` coordinates that locate it in
/// the grid. Bindings and metrics are kept name-sorted so two spellings
/// of the same record compare equal regardless of member order.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    /// Report or comparison.
    pub kind: RecordKind,
    /// Workload name (e.g. `go`).
    pub workload: String,
    /// Experiment id (e.g. `BASE`, `C2`, `A7`).
    pub experiment: String,
    /// `axis.<name>` tags, name-sorted; values as emitted (NaN for
    /// JSON `null`).
    pub bindings: Vec<(String, f64)>,
    /// Every other numeric member, name-sorted (NaN for JSON `null`).
    pub metrics: Vec<(String, f64)>,
}

impl SweepRecord {
    /// The named metric, if the record carries it.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The named axis binding, if the record carries it.
    #[must_use]
    pub fn binding(&self, axis: &str) -> Option<f64> {
        self.bindings.iter().find(|(n, _)| n == axis).map(|&(_, v)| v)
    }

    /// Canonical identity key: everything but the metrics. Two records
    /// with equal keys claim the same grid coordinates.
    fn identity(&self) -> String {
        coordinate_key(&[self.kind.label(), &self.workload, &self.experiment], &self.bindings, None)
    }
}

/// The one spelling of a coordinate key: the `leading` parts, then each
/// binding but `skip` as `name=<its f64 bits in hex>`, all joined by the
/// unit separator, so two keys are equal exactly when every part and
/// every bound value is bit-identical.
fn coordinate_key(leading: &[&str], bindings: &[(String, f64)], skip: Option<&str>) -> String {
    let mut key = leading.join("\u{1f}");
    for (name, value) in bindings.iter().filter(|(name, _)| Some(name.as_str()) != skip) {
        key.push_str(&format!("\u{1f}{name}={:016x}", value.to_bits()));
    }
    key
}

/// Lexicographic comparison of name-sorted `(name, f64)` slices using
/// total ordering (NaN participates deterministically).
fn cmp_pairs(a: &[(String, f64)], b: &[(String, f64)]) -> Ordering {
    for ((an, av), (bn, bv)) in a.iter().zip(b.iter()) {
        let ord = an.cmp(bn).then_with(|| av.total_cmp(bv));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// The canonical record order: kind, workload, experiment, bindings,
/// then metrics — a total order, so sorting any permutation of the same
/// multiset produces identical bytes downstream.
fn canon_cmp(a: &SweepRecord, b: &SweepRecord) -> Ordering {
    a.kind
        .cmp(&b.kind)
        .then_with(|| a.workload.cmp(&b.workload))
        .then_with(|| a.experiment.cmp(&b.experiment))
        .then_with(|| cmp_pairs(&a.bindings, &b.bindings))
        .then_with(|| cmp_pairs(&a.metrics, &b.metrics))
}

/// Sorts records into canonical order and collapses exact duplicates
/// (identical coordinates *and* metrics — e.g. overlapping shard
/// contributions). Conflicting duplicates (same coordinates, different
/// metrics) survive for the stale-baseline rule to flag.
pub fn canonicalize(records: &mut Vec<SweepRecord>) {
    records.sort_by(canon_cmp);
    records.dedup_by(|a, b| canon_cmp(a, b) == Ordering::Equal);
}

/// Parses one sweep JSONL line into a [`SweepRecord`].
///
/// # Errors
///
/// Rejects records that are not JSON objects, lack the
/// `kind`/`workload`/`experiment` members, or carry a `kind` other than
/// `report`/`comparison` (shard documents must go through `st merge`
/// first).
pub fn parse_record(line: &str) -> Result<SweepRecord, String> {
    let json = Json::parse(line)?;
    let obj = json.as_obj()?;
    let mut kind = None;
    let mut workload = None;
    let mut experiment = None;
    let mut bindings = Vec::new();
    let mut metrics = Vec::new();
    for (key, value) in obj {
        match key.as_str() {
            "kind" => {
                kind = Some(match value.as_str()? {
                    "report" => RecordKind::Report,
                    "comparison" => RecordKind::Comparison,
                    other => {
                        return Err(format!(
                            "record kind `{other}` is not auditable (expected report or \
                             comparison; run shard files through `st merge` first)"
                        ))
                    }
                });
            }
            "workload" => workload = Some(value.as_str()?.to_string()),
            "experiment" => experiment = Some(value.as_str()?.to_string()),
            "label" => {} // informational; the experiment id is the identity
            key if key.starts_with("axis.") => {
                let name = key["axis.".len()..].to_string();
                bindings.push((name, value.as_f64()?));
            }
            other => {
                // Unknown non-numeric members are tolerated.
                if let Ok(v) = value.as_f64() {
                    metrics.push((other.to_string(), v));
                }
            }
        }
    }
    let kind = kind.ok_or_else(|| "record has no `kind` member".to_string())?;
    let workload = workload.ok_or_else(|| "record has no `workload` member".to_string())?;
    let experiment = experiment.ok_or_else(|| "record has no `experiment` member".to_string())?;
    bindings.sort_by(|(a, _), (b, _)| a.cmp(b));
    metrics.sort_by(|(a, _), (b, _)| a.cmp(b));
    Ok(SweepRecord { kind, workload, experiment, bindings, metrics })
}

/// Parses a whole sweep JSONL document (blank lines skipped). Records
/// come back in file order; [`audit`] canonicalises before judging.
///
/// # Errors
///
/// Reports the first malformed line with its 1-based line number.
pub fn parse_records(jsonl: &str) -> Result<Vec<SweepRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(parse_record(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(records)
}

/// Whether `text` looks like a records document (first non-blank line is
/// a JSON object with a `kind` member) rather than a sweep spec. `st
/// audit` uses this to accept either input without a mode flag.
#[must_use]
pub fn looks_like_records(text: &str) -> bool {
    text.lines()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| Json::parse(l).ok())
        .is_some_and(|json| json.get("kind").is_some())
}

/// One anomaly a rule found, located at (workload, experiment, bindings)
/// coordinates that name a canonical record.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that produced it (see [`ruleset`]).
    pub rule: &'static str,
    /// How sure the rule is.
    pub confidence: Confidence,
    /// Implicated workload.
    pub workload: String,
    /// Implicated experiment.
    pub experiment: String,
    /// Implicated axis bindings, name-sorted.
    pub bindings: Vec<(String, f64)>,
    /// What the rule saw, with the numbers that triggered it.
    pub message: String,
}

impl Finding {
    /// Stable content fingerprint: FNV-1a over the canonical encoding of
    /// rule, confidence, coordinates and message. This is the token an
    /// `audit.allow` file suppresses — it survives re-runs, re-orderings
    /// and shard recomposition because every input is canonical.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut enc = format!(
            "rule={}\u{1f}confidence={}\u{1f}workload={}\u{1f}experiment={}",
            self.rule, self.confidence, self.workload, self.experiment
        );
        for (name, value) in &self.bindings {
            enc.push_str(&format!("\u{1f}axis.{name}={}", json_num(*value)));
        }
        enc.push_str(&format!("\u{1f}message={}", self.message));
        fnv1a64(enc.as_bytes())
    }

    /// [`Finding::fingerprint`] as 16 lowercase hex digits — the allow
    /// file spelling.
    #[must_use]
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// The bindings as `name=value` pairs (or `-` when the record bound
    /// no axes), for table cells and messages.
    #[must_use]
    pub fn bindings_text(&self) -> String {
        if self.bindings.is_empty() {
            return "-".to_string();
        }
        let parts: Vec<String> =
            self.bindings.iter().map(|(n, v)| format!("{n}={}", json_num(*v))).collect();
        parts.join(" ")
    }

    /// One `"kind":"finding"` JSONL line, with the bindings echoed as
    /// `axis.<name>` members like every other sweep record.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut line = format!(
            "{{\"kind\":\"finding\",\"rule\":\"{}\",\"confidence\":\"{}\",\"fingerprint\":\"{}\",\"workload\":\"{}\",\"experiment\":\"{}\",\"message\":\"{}\"",
            json_escape(self.rule),
            self.confidence,
            self.fingerprint_hex(),
            json_escape(&self.workload),
            json_escape(&self.experiment),
            json_escape(&self.message),
        );
        for (name, value) in &self.bindings {
            line.push_str(&format!(",\"axis.{}\":{}", json_escape(name), json_num(*value)));
        }
        line.push('}');
        line
    }
}

/// Sorts findings into emission order (highest confidence first, then
/// rule, coordinates and message) and drops duplicates by fingerprint.
pub fn sort_findings(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        b.confidence
            .cmp(&a.confidence)
            .then_with(|| a.rule.cmp(b.rule))
            .then_with(|| a.workload.cmp(&b.workload))
            .then_with(|| a.experiment.cmp(&b.experiment))
            .then_with(|| cmp_pairs(&a.bindings, &b.bindings))
            .then_with(|| a.message.cmp(&b.message))
    });
    findings.dedup_by(|a, b| a.fingerprint() == b.fingerprint());
}

/// One pure audit rule: an id, a one-line summary and the function
/// itself. Rules receive *canonicalised* records (sorted, exact
/// duplicates collapsed) and must not consult anything else.
#[derive(Debug)]
pub struct Rule {
    /// Stable identifier carried by every finding (and usable in
    /// messages, docs and allow-file comments).
    pub id: &'static str,
    /// What the rule looks for.
    pub summary: &'static str,
    /// The rule body.
    pub run: fn(&[SweepRecord]) -> Vec<Finding>,
}

static RULES: [Rule; 5] = [
    Rule {
        id: "ipc-cliff",
        summary: "largest relative IPC drop between adjacent grid points along any bound axis",
        run: rule_ipc_cliff,
    },
    Rule {
        id: "edp-regression",
        summary: "energy-delay product above the unthrottled BASE run at the same coordinates",
        run: rule_edp_regression,
    },
    Rule {
        id: "non-monotonic",
        summary: "a metric moving against its expected direction as an axis grows",
        run: rule_non_monotonic,
    },
    Rule {
        id: "suspect-record",
        summary: "metric values no healthy simulation can produce",
        run: rule_suspect_record,
    },
    Rule {
        id: "stale-baseline",
        summary: "conflicting duplicate records or comparisons that disagree with their reports",
        run: rule_stale_baseline,
    },
];

/// The built-in ruleset, in evaluation order.
#[must_use]
pub fn ruleset() -> &'static [Rule] {
    &RULES
}

/// Runs every rule over the canonicalised records and returns the
/// findings in emission order. Pure: equal record multisets (in any
/// order, through any shard recomposition) produce byte-identical
/// findings.
#[must_use]
pub fn audit(records: &[SweepRecord]) -> Vec<Finding> {
    let mut canon = records.to_vec();
    canonicalize(&mut canon);
    let mut findings = Vec::new();
    for rule in ruleset() {
        findings.extend((rule.run)(&canon));
    }
    sort_findings(&mut findings);
    findings
}

/// [`audit`] plus the grid cross-checks that need the expanded spec:
/// every report record must re-derive to a grid point (same coordinates
/// some [`SweepPoint`]'s job would emit), and every grid point must have
/// a record. `st audit <spec>` uses this; a plain JSONL audit cannot.
#[must_use]
pub fn audit_with_grid(records: &[SweepRecord], points: &[SweepPoint]) -> Vec<Finding> {
    let mut canon = records.to_vec();
    canonicalize(&mut canon);
    let mut findings = audit(&canon);
    findings.extend(grid_findings(&canon, points));
    sort_findings(&mut findings);
    findings
}

/// The spec-mode cross-checks behind [`audit_with_grid`], exposed for
/// tests: phantom records (coordinates no grid point produces — a
/// poisoned cache entry or foreign line) and missing grid points.
#[must_use]
pub fn grid_findings(records: &[SweepRecord], points: &[SweepPoint]) -> Vec<Finding> {
    // A grid point's emitted coordinates: workload name, experiment id,
    // and its bindings in name-sorted (f64) form.
    let point_key = |p: &SweepPoint| {
        let mut bindings: Vec<(String, f64)> =
            p.bindings.iter().map(|(n, v)| ((*n).to_string(), v.as_f64())).collect();
        bindings.sort_by(|(a, _), (b, _)| a.cmp(b));
        (coordinate_key(&[&p.job.workload.name, p.job.experiment.id], &bindings, None), bindings)
    };
    let mut grid: BTreeMap<String, (usize, Vec<(String, f64)>)> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        let (key, bindings) = point_key(p);
        grid.entry(key).or_insert((i, bindings));
    }
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut findings = Vec::new();
    for r in records.iter().filter(|r| r.kind == RecordKind::Report) {
        let key = coordinate_key(&[&r.workload, &r.experiment], &r.bindings, None);
        if grid.contains_key(&key) {
            seen.insert(key);
        } else {
            findings.push(Finding {
                rule: "suspect-record",
                confidence: Confidence::High,
                workload: r.workload.clone(),
                experiment: r.experiment.clone(),
                bindings: r.bindings.clone(),
                message: "record does not re-derive to any grid point of the audited spec \
                          (poisoned cache entry or foreign record)"
                    .to_string(),
            });
        }
    }
    for (key, (index, bindings)) in &grid {
        if !seen.contains(key) {
            let p = &points[*index];
            findings.push(Finding {
                rule: "suspect-record",
                confidence: Confidence::Medium,
                workload: p.job.workload.name.clone(),
                experiment: p.job.experiment.id.to_string(),
                bindings: bindings.clone(),
                message: "grid point has no report record in the audited sweep (incomplete \
                          results)"
                    .to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule bodies
// ---------------------------------------------------------------------

/// Every axis name bound by at least one report record.
fn bound_axes(records: &[SweepRecord]) -> BTreeSet<String> {
    records
        .iter()
        .filter(|r| r.kind == RecordKind::Report)
        .flat_map(|r| r.bindings.iter().map(|(n, _)| n.clone()))
        .collect()
}

/// Groups report records that bind `axis` by (workload, experiment, all
/// other bindings), each series sorted by the axis value. Group order is
/// canonical (`BTreeMap` key order), so rule output is deterministic.
fn axis_series<'a>(records: &'a [SweepRecord], axis: &str) -> Vec<Vec<(&'a SweepRecord, f64)>> {
    let mut groups: BTreeMap<String, Vec<(&SweepRecord, f64)>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.kind == RecordKind::Report) {
        let Some(value) = r.binding(axis) else { continue };
        let key = coordinate_key(&[&r.workload, &r.experiment], &r.bindings, Some(axis));
        groups.entry(key).or_default().push((r, value));
    }
    let mut series: Vec<Vec<(&SweepRecord, f64)>> = groups.into_values().collect();
    for s in &mut series {
        s.sort_by(|a, b| a.1.total_cmp(&b.1));
    }
    series
}

fn cliff_confidence(drop: f64) -> Option<Confidence> {
    if drop >= 0.50 {
        Some(Confidence::High)
    } else if drop >= 0.25 {
        Some(Confidence::Medium)
    } else if drop >= 0.10 {
        Some(Confidence::Low)
    } else {
        None
    }
}

/// `ipc-cliff`: for every bound axis and every (workload, experiment,
/// other-bindings) series along it, the largest relative IPC change
/// between adjacent grid points. One finding per series at most, located
/// at the low-IPC side of the cliff.
fn rule_ipc_cliff(records: &[SweepRecord]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for axis in bound_axes(records) {
        for series in axis_series(records, &axis) {
            // (drop, low-side record, high axis value, low axis value, hi ipc, lo ipc)
            let mut worst: Option<(f64, &SweepRecord, f64, f64, f64, f64)> = None;
            for pair in series.windows(2) {
                let ((ra, va), (rb, vb)) = (&pair[0], &pair[1]);
                if va == vb {
                    continue;
                }
                let (Some(ia), Some(ib)) = (ra.metric("ipc"), rb.metric("ipc")) else { continue };
                if !(ia.is_finite() && ib.is_finite()) || ia <= 0.0 || ib <= 0.0 {
                    continue;
                }
                let (hi, lo) = if ia >= ib { (ia, ib) } else { (ib, ia) };
                let drop = (hi - lo) / hi;
                if worst.is_none_or(|(d, ..)| drop > d) {
                    let (low_record, hi_v, lo_v) =
                        if ia >= ib { (*rb, *va, *vb) } else { (*ra, *vb, *va) };
                    worst = Some((drop, low_record, hi_v, lo_v, hi, lo));
                }
            }
            let Some((drop, record, hi_v, lo_v, hi_ipc, lo_ipc)) = worst else { continue };
            let Some(confidence) = cliff_confidence(drop) else { continue };
            findings.push(Finding {
                rule: "ipc-cliff",
                confidence,
                workload: record.workload.clone(),
                experiment: record.experiment.clone(),
                bindings: record.bindings.clone(),
                message: format!(
                    "ipc drops {:.1}% between adjacent points axis.{axis}={} and {} \
                     ({hi_ipc:.4} -> {lo_ipc:.4})",
                    100.0 * drop,
                    json_num(hi_v),
                    json_num(lo_v),
                ),
            });
        }
    }
    findings
}

fn edp_confidence(ratio: f64) -> Option<Confidence> {
    if ratio >= 2.0 {
        Some(Confidence::High)
    } else if ratio >= 1.25 {
        Some(Confidence::Medium)
    } else if ratio > 1.05 {
        Some(Confidence::Low)
    } else {
        None
    }
}

/// `edp-regression`: a throttled/gated variant whose energy-delay
/// product exceeds its unthrottled `BASE` run at identical coordinates —
/// the paper's whole premise inverted, so worth flagging even at small
/// magnitudes.
fn rule_edp_regression(records: &[SweepRecord]) -> Vec<Finding> {
    let reports: Vec<&SweepRecord> =
        records.iter().filter(|r| r.kind == RecordKind::Report).collect();
    let coords = |r: &SweepRecord| coordinate_key(&[&r.workload], &r.bindings, None);
    let baselines: HashMap<String, &SweepRecord> =
        reports.iter().filter(|r| r.experiment == "BASE").map(|r| (coords(r), *r)).collect();
    let mut findings = Vec::new();
    for r in reports.iter().filter(|r| r.experiment != "BASE") {
        let Some(base) = baselines.get(&coords(r)) else { continue };
        let (Some(ed), Some(base_ed)) = (r.metric("energy_delay"), base.metric("energy_delay"))
        else {
            continue;
        };
        if !(ed.is_finite() && base_ed.is_finite()) || base_ed <= 0.0 {
            continue;
        }
        let ratio = ed / base_ed;
        let Some(confidence) = edp_confidence(ratio) else { continue };
        findings.push(Finding {
            rule: "edp-regression",
            confidence,
            workload: r.workload.clone(),
            experiment: r.experiment.clone(),
            bindings: r.bindings.clone(),
            message: format!(
                "energy-delay is {ratio:.3}x the unthrottled BASE run at the same \
                 coordinates ({ed:.4e} vs {base_ed:.4e})"
            ),
        });
    }
    findings
}

/// Which way a metric is expected to move as an axis grows.
#[derive(Clone, Copy)]
enum Expected {
    /// The metric should not fall as the axis grows (beyond tolerance).
    NonDecreasing,
    /// The metric should not rise as the axis grows (beyond tolerance).
    NonIncreasing,
}

/// Expected monotone responses: more capacity should not hurt.
const MONOTONE_EXPECTATIONS: [(&str, &str, Expected, &str); 3] = [
    (
        "predictor_kb",
        "mispredict_rate",
        Expected::NonIncreasing,
        "a larger predictor should not mispredict more",
    ),
    ("ruu_size", "ipc", Expected::NonDecreasing, "a larger instruction window should not lose IPC"),
    ("fetch_width", "ipc", Expected::NonDecreasing, "a wider fetch should not lose IPC"),
];

fn monotone_confidence(violation: f64) -> Option<Confidence> {
    if violation > 0.20 {
        Some(Confidence::High)
    } else if violation > 0.10 {
        Some(Confidence::Medium)
    } else if violation > 0.02 {
        Some(Confidence::Low)
    } else {
        None
    }
}

/// `non-monotonic`: a metric moving against its expected direction as an
/// axis grows (e.g. miss rate rising with a bigger predictor). One
/// finding per series at most, at the worst adjacent violation.
fn rule_non_monotonic(records: &[SweepRecord]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (axis, metric, expected, blurb) in MONOTONE_EXPECTATIONS {
        for series in axis_series(records, axis) {
            // (violation, violating record, from axis value, to axis value, from, to)
            let mut worst: Option<(f64, &SweepRecord, f64, f64, f64, f64)> = None;
            for pair in series.windows(2) {
                let ((ra, va), (rb, vb)) = (&pair[0], &pair[1]);
                if va == vb {
                    continue;
                }
                let (Some(ma), Some(mb)) = (ra.metric(metric), rb.metric(metric)) else { continue };
                if !(ma.is_finite() && mb.is_finite()) || ma <= 1e-12 {
                    continue;
                }
                let violation = match expected {
                    Expected::NonIncreasing => (mb - ma) / ma,
                    Expected::NonDecreasing => (ma - mb) / ma,
                };
                if violation > 0.0 && worst.is_none_or(|(w, ..)| violation > w) {
                    worst = Some((violation, *rb, *va, *vb, ma, mb));
                }
            }
            let Some((violation, record, from_v, to_v, from, to)) = worst else { continue };
            let Some(confidence) = monotone_confidence(violation) else { continue };
            let direction = match expected {
                Expected::NonIncreasing => "rises",
                Expected::NonDecreasing => "falls",
            };
            findings.push(Finding {
                rule: "non-monotonic",
                confidence,
                workload: record.workload.clone(),
                experiment: record.experiment.clone(),
                bindings: record.bindings.clone(),
                message: format!(
                    "{metric} {direction} {:.1}% from axis.{axis}={} to {} \
                     ({from:.4} -> {to:.4}); {blurb}",
                    100.0 * violation,
                    json_num(from_v),
                    json_num(to_v),
                ),
            });
        }
    }
    findings
}

/// Metrics that must sit in `[0, 1]` when present and finite.
const UNIT_INTERVAL_METRICS: [&str; 6] =
    ["mispredict_rate", "l1i_miss_rate", "l1d_miss_rate", "wasted_frac", "conf_spec", "conf_pvn"];

/// `suspect-record`: per-record plausibility. Zero cycles, non-finite
/// IPC/energy, rates outside `[0, 1]`, negative energy and impossible
/// comparison metrics all point at a corrupt cache entry or a broken
/// merge, not at an interesting configuration.
fn rule_suspect_record(records: &[SweepRecord]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for r in records {
        let mut problems: Vec<(Confidence, String)> = Vec::new();
        match r.kind {
            RecordKind::Report => {
                for counter in ["cycles", "committed"] {
                    if r.metric(counter) == Some(0.0) {
                        problems.push((
                            Confidence::High,
                            format!("{counter}=0 (the point cannot have simulated)"),
                        ));
                    }
                }
                if let Some(ipc) = r.metric("ipc") {
                    if !ipc.is_finite() {
                        problems.push((Confidence::High, "ipc is not finite".to_string()));
                    } else if ipc <= 0.0 && r.metric("committed").is_some_and(|c| c > 0.0) {
                        problems.push((
                            Confidence::High,
                            format!("ipc={} with committed work", json_num(ipc)),
                        ));
                    } else if ipc > 16.0 {
                        problems.push((
                            Confidence::Medium,
                            format!("ipc={} exceeds any plausible fetch width", json_num(ipc)),
                        ));
                    }
                }
                for rate in UNIT_INTERVAL_METRICS {
                    if let Some(v) = r.metric(rate) {
                        if v.is_finite() && !(0.0..=1.0).contains(&v) {
                            problems.push((
                                Confidence::High,
                                format!("{rate}={} outside [0, 1]", json_num(v)),
                            ));
                        }
                    }
                }
                for energy in ["energy_j", "avg_power_w", "energy_delay"] {
                    if let Some(v) = r.metric(energy) {
                        if !v.is_finite() {
                            problems.push((Confidence::High, format!("{energy} is not finite")));
                        } else if v < 0.0 {
                            problems.push((
                                Confidence::High,
                                format!("{energy}={} is negative", json_num(v)),
                            ));
                        }
                    }
                }
            }
            RecordKind::Comparison => {
                if let Some(speedup) = r.metric("speedup") {
                    if !speedup.is_finite() || speedup <= 0.0 {
                        problems.push((
                            Confidence::High,
                            format!("speedup={} is not a positive ratio", json_num(speedup)),
                        ));
                    }
                }
                for pct in ["power_savings_pct", "energy_savings_pct", "ed_improvement_pct"] {
                    if let Some(v) = r.metric(pct) {
                        if v.is_finite() && v > 100.0 {
                            problems.push((
                                Confidence::High,
                                format!("{pct}={} saves more than everything", json_num(v)),
                            ));
                        }
                    }
                }
            }
        }
        if problems.is_empty() {
            continue;
        }
        let confidence = problems.iter().map(|&(c, _)| c).max().unwrap_or(Confidence::Medium);
        let details: Vec<String> = problems.into_iter().map(|(_, m)| m).collect();
        findings.push(Finding {
            rule: "suspect-record",
            confidence,
            workload: r.workload.clone(),
            experiment: r.experiment.clone(),
            bindings: r.bindings.clone(),
            message: format!("{} record is implausible: {}", r.kind.label(), details.join("; ")),
        });
    }
    findings
}

/// The exact saving formula comparisons were emitted with
/// (`st_power::savings_pct`), re-derived locally so the rule stays a
/// pure function of the records.
fn savings_pct(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (1.0 - new / baseline) * 100.0
    }
}

/// `stale-baseline`: drift between result epochs. Two shapes:
/// conflicting records claiming the same coordinates with different
/// metrics (merged outputs of different simulator builds), and
/// comparison records that disagree with the report records sitting next
/// to them (computed against a baseline that is no longer in the file).
fn rule_stale_baseline(records: &[SweepRecord]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // (a) Conflicting duplicates. Exact duplicates were collapsed by
    // canonicalisation, so any identity shared by >1 record is a
    // conflict.
    let mut by_identity: BTreeMap<String, Vec<&SweepRecord>> = BTreeMap::new();
    for r in records {
        by_identity.entry(r.identity()).or_default().push(r);
    }
    let mut conflicted: BTreeSet<String> = BTreeSet::new();
    for (identity, group) in &by_identity {
        if group.len() < 2 {
            continue;
        }
        conflicted.insert(identity.clone());
        let first = group[0];
        findings.push(Finding {
            rule: "stale-baseline",
            confidence: Confidence::High,
            workload: first.workload.clone(),
            experiment: first.experiment.clone(),
            bindings: first.bindings.clone(),
            message: format!(
                "{} {} records claim these coordinates with different metrics (results \
                 merged from different epochs)",
                group.len(),
                first.kind.label(),
            ),
        });
    }

    // (b) Comparisons that no longer match their reports. Skip
    // coordinates already flagged as conflicting — recomputation is
    // ambiguous there.
    let report_at = |workload: &str, experiment: &str, bindings: &[(String, f64)]| {
        let key =
            coordinate_key(&[RecordKind::Report.label(), workload, experiment], bindings, None);
        if conflicted.contains(&key) {
            return None;
        }
        by_identity.get(&key).and_then(|g| g.first().copied())
    };
    for c in records.iter().filter(|r| r.kind == RecordKind::Comparison) {
        if conflicted.contains(&c.identity()) {
            continue;
        }
        let Some(variant) = report_at(&c.workload, &c.experiment, &c.bindings) else {
            findings.push(Finding {
                rule: "stale-baseline",
                confidence: Confidence::Medium,
                workload: c.workload.clone(),
                experiment: c.experiment.clone(),
                bindings: c.bindings.clone(),
                message: "comparison has no report record at the same coordinates".to_string(),
            });
            continue;
        };
        let Some(base) = report_at(&c.workload, "BASE", &c.bindings) else {
            findings.push(Finding {
                rule: "stale-baseline",
                confidence: Confidence::Medium,
                workload: c.workload.clone(),
                experiment: c.experiment.clone(),
                bindings: c.bindings.clone(),
                message: "comparison has no BASE report at the same coordinates".to_string(),
            });
            continue;
        };
        let recomputed: [(&str, Option<f64>); 4] = [
            (
                "speedup",
                match (base.metric("cycles"), variant.metric("cycles")) {
                    (Some(b), Some(v)) => Some(b / v.max(1.0)),
                    _ => None,
                },
            ),
            (
                "power_savings_pct",
                match (base.metric("avg_power_w"), variant.metric("avg_power_w")) {
                    (Some(b), Some(v)) => Some(savings_pct(b, v)),
                    _ => None,
                },
            ),
            (
                "energy_savings_pct",
                match (base.metric("energy_j"), variant.metric("energy_j")) {
                    (Some(b), Some(v)) => Some(savings_pct(b, v)),
                    _ => None,
                },
            ),
            (
                "ed_improvement_pct",
                match (base.metric("energy_delay"), variant.metric("energy_delay")) {
                    (Some(b), Some(v)) => Some(savings_pct(b, v)),
                    _ => None,
                },
            ),
        ];
        for (name, expected) in recomputed {
            let (Some(expected), Some(recorded)) = (expected, c.metric(name)) else { continue };
            if !(expected.is_finite() && recorded.is_finite()) {
                continue;
            }
            let scale = expected.abs().max(1.0);
            if (expected - recorded).abs() / scale > 1e-9 {
                findings.push(Finding {
                    rule: "stale-baseline",
                    confidence: Confidence::High,
                    workload: c.workload.clone(),
                    experiment: c.experiment.clone(),
                    bindings: c.bindings.clone(),
                    message: format!(
                        "comparison {name}={} disagrees with the reports beside it \
                         (recomputed {}); it was derived from a baseline not in this sweep",
                        json_num(recorded),
                        json_num(expected),
                    ),
                });
                break; // one drift finding per comparison is enough
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Suppression, filtering and emission
// ---------------------------------------------------------------------

/// A checked-in suppression list: one 16-hex-digit finding fingerprint
/// per line, `#` comments and blank lines ignored.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    entries: BTreeSet<u64>,
}

impl Allowlist {
    /// Parses an allow file.
    ///
    /// # Errors
    ///
    /// Reports the first malformed line (anything that is not a 16-digit
    /// hex fingerprint after comment stripping) with its line number.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = BTreeSet::new();
        for (i, line) in text.lines().enumerate() {
            let token = line.split('#').next().unwrap_or("").trim();
            if token.is_empty() {
                continue;
            }
            if token.len() != 16 {
                return Err(format!(
                    "line {}: `{token}` is not a 16-hex-digit finding fingerprint",
                    i + 1
                ));
            }
            let fp = u64::from_str_radix(token, 16).map_err(|_| {
                format!("line {}: `{token}` is not a 16-hex-digit finding fingerprint", i + 1)
            })?;
            entries.insert(fp);
        }
        Ok(Allowlist { entries })
    }

    /// Whether the fingerprint is suppressed.
    #[must_use]
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.entries.contains(&fingerprint)
    }

    /// Number of suppressed fingerprints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list suppresses nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// What [`apply_filters`] kept and why the rest was dropped.
#[derive(Debug)]
pub struct FilterOutcome {
    /// Findings that survive the confidence floor and the allow file,
    /// still in emission order.
    pub kept: Vec<Finding>,
    /// Findings suppressed by fingerprint.
    pub suppressed: usize,
    /// Findings below the confidence floor.
    pub below_threshold: usize,
}

/// Applies the `--min-confidence` floor and the allow file.
#[must_use]
pub fn apply_filters(
    findings: Vec<Finding>,
    min_confidence: Confidence,
    allow: &Allowlist,
) -> FilterOutcome {
    let mut outcome = FilterOutcome { kept: Vec::new(), suppressed: 0, below_threshold: 0 };
    for finding in findings {
        if finding.confidence < min_confidence {
            outcome.below_threshold += 1;
        } else if allow.contains(finding.fingerprint()) {
            outcome.suppressed += 1;
        } else {
            outcome.kept.push(finding);
        }
    }
    outcome
}

/// The findings as one JSONL document (one [`Finding::jsonl`] line
/// each) — the byte-deterministic artefact the golden tests pin.
#[must_use]
pub fn findings_jsonl(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.jsonl());
        out.push('\n');
    }
    out
}

/// The findings as an `st-report` table (the `--format table` view).
#[must_use]
pub fn findings_table(findings: &[Finding]) -> Table {
    let mut t = Table::new(
        ["rule", "confidence", "workload", "experiment", "bindings", "fingerprint", "message"]
            .map(String::from)
            .to_vec(),
    )
    .with_title("audit findings".to_string());
    for f in findings {
        t.row(vec![
            f.rule.to_string(),
            f.confidence.to_string(),
            f.workload.clone(),
            f.experiment.clone(),
            f.bindings_text(),
            f.fingerprint_hex(),
            f.message.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy report record at the given coordinates.
    fn report(workload: &str, experiment: &str, bindings: &[(&str, f64)]) -> SweepRecord {
        let mut r = SweepRecord {
            kind: RecordKind::Report,
            workload: workload.to_string(),
            experiment: experiment.to_string(),
            bindings: bindings.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            metrics: vec![
                ("avg_power_w".to_string(), 40.0),
                ("committed".to_string(), 10_000.0),
                ("cycles".to_string(), 8_000.0),
                ("energy_delay".to_string(), 9.6e-4),
                ("energy_j".to_string(), 1.2e-4),
                ("ipc".to_string(), 1.25),
                ("l1d_miss_rate".to_string(), 0.04),
                ("l1i_miss_rate".to_string(), 0.01),
                ("mispredict_rate".to_string(), 0.08),
                ("wasted_frac".to_string(), 0.2),
            ],
        };
        r.bindings.sort_by(|(a, _), (b, _)| a.cmp(b));
        r
    }

    fn with_metric(mut r: SweepRecord, name: &str, value: f64) -> SweepRecord {
        if let Some(slot) = r.metrics.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            r.metrics.push((name.to_string(), value));
            r.metrics.sort_by(|(a, _), (b, _)| a.cmp(b));
        }
        r
    }

    #[test]
    fn empty_sweep_yields_no_findings_from_any_rule() {
        for rule in ruleset() {
            assert!((rule.run)(&[]).is_empty(), "rule {} found something in nothing", rule.id);
        }
        assert!(audit(&[]).is_empty());
    }

    #[test]
    fn single_point_grid_is_clean_for_every_rule() {
        let records = vec![report("go", "BASE", &[])];
        for rule in ruleset() {
            assert!(
                (rule.run)(&records).is_empty(),
                "rule {} flagged a lone healthy point",
                rule.id
            );
        }
    }

    #[test]
    fn degenerate_one_value_axis_is_clean() {
        // One workload, one experiment, a single-valued axis: no
        // adjacent pair exists, so the axis rules must return cleanly.
        let records = vec![
            report("go", "BASE", &[("ruu_size", 64.0)]),
            report("go", "C2", &[("ruu_size", 64.0)]),
        ];
        let findings = audit(&records);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn ipc_cliff_fires_on_the_largest_adjacent_drop() {
        let mk = |ruu: f64, ipc: f64| {
            with_metric(report("go", "BASE", &[("ruu_size", ruu)]), "ipc", ipc)
        };
        let records = vec![mk(16.0, 1.0), mk(32.0, 0.95), mk(64.0, 0.40)];
        let findings = rule_ipc_cliff(&records);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "ipc-cliff");
        assert_eq!(f.confidence, Confidence::High, "58% drop: {}", f.message);
        assert_eq!(f.binding("ruu_size"), 64.0);
        assert!(f.message.contains("axis.ruu_size=32 and 64"), "{}", f.message);
    }

    impl Finding {
        fn binding(&self, axis: &str) -> f64 {
            self.bindings.iter().find(|(n, _)| n == axis).map(|&(_, v)| v).expect("bound axis")
        }
    }

    #[test]
    fn edp_regression_compares_against_base_at_identical_coordinates() {
        let base = report("go", "BASE", &[("ruu_size", 32.0)]);
        let bad =
            with_metric(report("go", "A7", &[("ruu_size", 32.0)]), "energy_delay", 9.6e-4 * 1.5);
        // A variant at *other* coordinates must not pair with this base.
        let elsewhere =
            with_metric(report("go", "A7", &[("ruu_size", 64.0)]), "energy_delay", 9.6e-4 * 9.0);
        let findings = rule_edp_regression(&[base, bad, elsewhere]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].confidence, Confidence::Medium);
        assert!(findings[0].message.contains("1.500x"), "{}", findings[0].message);
    }

    #[test]
    fn non_monotonic_flags_miss_rate_rising_with_predictor_size() {
        let mk = |kb: f64, rate: f64| {
            with_metric(report("go", "BASE", &[("predictor_kb", kb)]), "mispredict_rate", rate)
        };
        let records = vec![mk(2.0, 0.10), mk(8.0, 0.08), mk(32.0, 0.12)];
        let findings = rule_non_monotonic(&records);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "non-monotonic");
        assert_eq!(findings[0].confidence, Confidence::High, "{}", findings[0].message);
        assert!(findings[0].message.contains("mispredict_rate rises"), "{}", findings[0].message);
    }

    #[test]
    fn nan_and_zero_cycle_metrics_are_suspect_not_panics() {
        let nan_ipc = with_metric(report("go", "BASE", &[]), "ipc", f64::NAN);
        let dead =
            with_metric(with_metric(report("gcc", "BASE", &[]), "cycles", 0.0), "committed", 0.0);
        let wild_rate = with_metric(report("gzip", "C2", &[]), "mispredict_rate", 1.5);
        let findings = rule_suspect_record(&[nan_ipc, dead, wild_rate]);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.confidence == Confidence::High));
        // NaN metrics elsewhere never panic the axis rules either.
        let nan_series = vec![
            with_metric(report("go", "BASE", &[("ruu_size", 16.0)]), "ipc", f64::NAN),
            with_metric(report("go", "BASE", &[("ruu_size", 32.0)]), "ipc", f64::NAN),
        ];
        assert!(rule_ipc_cliff(&nan_series).is_empty());
        assert!(rule_non_monotonic(&nan_series).is_empty());
    }

    #[test]
    fn stale_baseline_flags_conflicting_duplicates_and_drifted_comparisons() {
        // Conflict: same coordinates, different cycles.
        let a = report("go", "BASE", &[]);
        let b = with_metric(report("go", "BASE", &[]), "cycles", 9_999.0);
        let findings = rule_stale_baseline(&[a.clone(), b]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("different metrics"), "{}", findings[0].message);

        // Drift: a comparison whose speedup does not follow from the
        // reports beside it.
        let base = report("go", "BASE", &[]);
        let variant = with_metric(report("go", "C2", &[]), "cycles", 10_000.0);
        let comparison = SweepRecord {
            kind: RecordKind::Comparison,
            workload: "go".to_string(),
            experiment: "C2".to_string(),
            bindings: vec![],
            metrics: vec![
                ("ed_improvement_pct".to_string(), 0.0),
                ("energy_savings_pct".to_string(), 0.0),
                ("power_savings_pct".to_string(), 0.0),
                ("speedup".to_string(), 1.75),
            ],
        };
        let findings = rule_stale_baseline(&[base, variant, comparison]);
        let drift: Vec<_> = findings.iter().filter(|f| f.message.contains("disagrees")).collect();
        assert_eq!(drift.len(), 1, "{findings:?}");
        assert_eq!(drift[0].confidence, Confidence::High);
    }

    #[test]
    fn all_suppressed_allow_file_gates_clean() {
        let records = vec![
            with_metric(report("go", "BASE", &[]), "ipc", f64::NAN),
            with_metric(report("gcc", "BASE", &[]), "mispredict_rate", 2.0),
        ];
        let findings = audit(&records);
        assert!(!findings.is_empty());
        let allow_text: String =
            findings.iter().map(|f| format!("{} # known\n", f.fingerprint_hex())).collect();
        let allow = Allowlist::parse(&allow_text).expect("allow file parses");
        assert_eq!(allow.len(), findings.len());
        let total = findings.len();
        let outcome = apply_filters(findings, Confidence::Low, &allow);
        assert!(outcome.kept.is_empty());
        assert_eq!(outcome.suppressed, total);
        assert_eq!(outcome.below_threshold, 0);
    }

    #[test]
    fn min_confidence_floor_filters_below() {
        // gating_threshold carries no monotone expectation, so only the
        // cliff rule sees this series.
        let mk = |gate: f64, ipc: f64| {
            with_metric(report("go", "C2", &[("gating_threshold", gate)]), "ipc", ipc)
        };
        // An 11% drop: a Low-confidence cliff.
        let findings = audit(&[mk(16.0, 1.00), mk(32.0, 0.89)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].confidence, Confidence::Low);
        let outcome = apply_filters(findings, Confidence::Medium, &Allowlist::default());
        assert!(outcome.kept.is_empty());
        assert_eq!(outcome.below_threshold, 1);
    }

    #[test]
    fn findings_are_invariant_under_record_permutation() {
        let records = vec![
            with_metric(report("go", "BASE", &[("ruu_size", 16.0)]), "ipc", 1.2),
            with_metric(report("go", "BASE", &[("ruu_size", 32.0)]), "ipc", 0.5),
            with_metric(report("gcc", "C2", &[]), "mispredict_rate", 7.0),
            report("twolf", "A7", &[]),
        ];
        let forward = findings_jsonl(&audit(&records));
        let mut reversed = records;
        reversed.reverse();
        let backward = findings_jsonl(&audit(&reversed));
        assert_eq!(forward, backward);
        assert!(!forward.is_empty());
    }

    #[test]
    fn fingerprints_are_stable_and_parseable() {
        let f = Finding {
            rule: "ipc-cliff",
            confidence: Confidence::High,
            workload: "go".to_string(),
            experiment: "C2".to_string(),
            bindings: vec![("ruu_size".to_string(), 32.0)],
            message: "test".to_string(),
        };
        assert_eq!(f.fingerprint(), f.clone().fingerprint());
        let hex = f.fingerprint_hex();
        assert_eq!(hex.len(), 16);
        let allow = Allowlist::parse(&format!("# comment\n\n{hex}\n")).expect("parses");
        assert!(allow.contains(f.fingerprint()));
        assert!(Allowlist::parse("not-hex\n").is_err());
        assert!(Allowlist::parse("123\n").is_err());
    }

    #[test]
    fn jsonl_round_trips_through_the_record_parser() {
        let f = Finding {
            rule: "suspect-record",
            confidence: Confidence::Medium,
            workload: "go".to_string(),
            experiment: "BASE".to_string(),
            bindings: vec![("ruu_size".to_string(), 32.0)],
            message: "quote \" and newline \n".to_string(),
        };
        let line = f.jsonl();
        let parsed = Json::parse(&line).expect("finding line is valid JSON");
        assert_eq!(parsed.get("kind").and_then(|k| k.as_str().ok()), Some("finding"));
        assert_eq!(parsed.get("confidence").and_then(|k| k.as_str().ok()), Some("Medium"));
        assert_eq!(parsed.get("axis.ruu_size").and_then(|v| v.as_f64().ok()), Some(32.0));
    }

    #[test]
    fn looks_like_records_distinguishes_jsonl_from_specs() {
        assert!(looks_like_records("\n{\"kind\":\"report\",\"workload\":\"go\"}\n"));
        assert!(!looks_like_records("name = \"sweep\"\nworkloads = [\"go\"]\n"));
        assert!(!looks_like_records("{ \"name\": \"sweep\" }"));
        assert!(!looks_like_records(""));
    }

    #[test]
    fn confidence_parses_and_orders() {
        assert_eq!(Confidence::parse("HIGH").unwrap(), Confidence::High);
        assert_eq!(Confidence::parse("m").unwrap(), Confidence::Medium);
        assert_eq!(Confidence::parse("low").unwrap(), Confidence::Low);
        assert!(Confidence::parse("shrug").is_err());
        assert!(Confidence::Low < Confidence::Medium && Confidence::Medium < Confidence::High);
    }
}
