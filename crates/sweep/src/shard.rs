//! Sharded multi-process sweeps: partition, execute, merge.
//!
//! This module splits an expanded sweep into `n` deterministic shards
//! that independent **processes** (or hosts) execute and a separate step
//! reassembles:
//!
//! * **[`ShardPlan`]** — partitions the expanded point list *by
//!   fingerprint range*: points sort by their content-hash
//!   [`JobSpec::fingerprint`](crate::JobSpec::fingerprint) and split
//!   into `n` near-equal contiguous ranges. The plan is a pure function
//!   of the spec, so every worker derives the same partition without
//!   coordination.
//! * **[`run_shard`]** — the worker behind `st run --shard i/n`: runs
//!   the shard's range as one [`SweepEngine::run`] batch and renders
//!   `results/<name>.shard-<i>.jsonl` (header first, then the points in
//!   fingerprint order). External launchers (xargs, SLURM array jobs)
//!   start one worker per shard; the engine writes each finished point
//!   through to the result store, so a killed worker's rerun resumes.
//! * **[`merge`]** — unions shard documents back into the canonical
//!   sweep output. Records carry the bit-exact result-store encoding
//!   of each report, so the merged JSONL/CSV is **byte-identical** to a
//!   single-process `st run` of the same spec — the golden and property
//!   tests pin this. Gaps, fingerprint mismatches, tampered records and
//!   non-identical overlaps are hard errors.
//! * **[`parse_record`] and `Collector`** — the one home of point
//!   records: `parse_record` verifies a record line against the grid,
//!   and the collector places verified records, keeps the first of each
//!   point, refuses a later one with other bytes, and names the points
//!   that never arrived. `merge` and the fleet coordinator both use
//!   them.
//!
//! ## Shard document format
//!
//! A shard file is JSON lines: a `shard` header followed by `point`
//! records (in fingerprint order; `merge` accepts any order):
//!
//! ```text
//! {"kind":"shard","v":1,"name":"axes-demo","shard":0,"of":2,"points":12,"spec":"{...}"}
//! {"kind":"point","seq":3,"fp":"<16 hex>","hash":"<16 hex>","report":{...}}
//! ```
//!
//! The header embeds the canonical [`SweepSpec::to_json`] spec, so a set
//! of shard files is self-contained: `st merge` re-expands the grid from
//! the header, needing neither the original spec file nor re-simulation.
//! `fp` is the point's job fingerprint (position check), `hash` the
//! FNV-1a of the `report` bytes (tamper check).

use std::path::{Path, PathBuf};

use st_core::SimReport;

use crate::emit::json_escape;
use crate::engine::SweepEngine;
use crate::job::fnv1a64;
use crate::json::Json;
use crate::persist::{report_from_json, report_to_json};
use crate::spec::{SpecError, SweepPoint, SweepSpec};

/// Shard-file format version; bump when the encoding changes so stale
/// shard files fail loudly instead of mis-merging.
const VERSION: u64 = 1;

/// Errors produced while planning, executing or merging shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError(pub String);

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard error: {}", self.0)
    }
}

impl std::error::Error for ShardError {}

impl From<SpecError> for ShardError {
    fn from(e: SpecError) -> ShardError {
        ShardError(e.to_string())
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, ShardError> {
    Err(ShardError(msg.into()))
}

/// A deterministic partition of a sweep's points into `n` shards by
/// fingerprint range.
///
/// Points sort by `(fingerprint, index)` and the sorted order splits
/// into `n` contiguous chunks whose sizes differ by at most one, so each
/// shard owns one contiguous fingerprint interval. Because fingerprints
/// are content hashes, the partition is a pure function of the spec:
/// every worker, on any host, derives the same plan. The plan holds
/// only the sorted order and computes each shard's chunk on demand, so
/// its size is O(points) for any shard count.
///
/// ```
/// use st_sweep::ShardPlan;
///
/// let plan = ShardPlan::new(&[0x30, 0x10, 0x40, 0x20], 2)?;
/// assert_eq!(plan.of(), 2);
/// // Contiguous fingerprint ranges: {0x10, 0x20} then {0x30, 0x40}.
/// assert_eq!(plan.members(0), &[1, 3]);
/// assert_eq!(plan.members(1), &[0, 2]);
/// # Ok::<(), st_sweep::ShardError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    of: usize,
    /// Per point (by index): its fingerprint.
    fingerprints: Vec<u64>,
    /// Every point index, ascending by `(fingerprint, index)`.
    order: Vec<usize>,
}

impl ShardPlan {
    /// Plans `of` shards over the given per-point fingerprints
    /// (`fingerprints[i]` belongs to point `i` of the expanded grid).
    ///
    /// `of` may exceed the point count — the surplus shards are simply
    /// empty — but must be non-zero.
    pub fn new(fingerprints: &[u64], of: usize) -> Result<ShardPlan, ShardError> {
        if of == 0 {
            return err("cannot partition into 0 shards");
        }
        let mut order: Vec<usize> = (0..fingerprints.len()).collect();
        order.sort_by_key(|&i| (fingerprints[i], i));
        Ok(ShardPlan { of, fingerprints: fingerprints.to_vec(), order })
    }

    /// A plan over an already-expanded point list.
    pub fn for_points(points: &[SweepPoint], of: usize) -> Result<ShardPlan, ShardError> {
        let fps: Vec<u64> = points.iter().map(|p| p.job.fingerprint()).collect();
        ShardPlan::new(&fps, of)
    }

    /// Number of shards.
    #[must_use]
    pub fn of(&self) -> usize {
        self.of
    }

    /// Total number of points across all shards.
    #[must_use]
    pub fn points(&self) -> usize {
        self.order.len()
    }

    /// The point indices shard `shard` owns, in fingerprint order: the
    /// `shard`-th of `of` contiguous chunks of the sorted order, the
    /// first `points % of` chunks one point longer than the rest.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= of`.
    #[must_use]
    pub fn members(&self, shard: usize) -> &[usize] {
        assert!(shard < self.of, "shard {shard} out of range for a {}-way plan", self.of);
        let (base, extra) = (self.points() / self.of, self.points() % self.of);
        // `shard * base` stays below the point count: a non-zero `base`
        // means `of <= points`.
        let start = shard * base + shard.min(extra);
        &self.order[start..start + base + usize::from(shard < extra)]
    }

    /// The inclusive `[lo, hi]` fingerprint interval shard `shard` owns,
    /// or `None` for a surplus shard with no points. Because shards are
    /// contiguous chunks of the fingerprint-sorted order, every owned
    /// point's fingerprint falls inside this interval — it is the range
    /// the fleet coordinator dispatches to a remote worker's `/points`
    /// endpoint.
    ///
    /// Note that two adjacent shards' intervals can share an endpoint
    /// when points with identical fingerprints straddle the chunk
    /// boundary; range-addressed execution then overlaps on those tied
    /// points, which is safe because identical fingerprints mean
    /// identical jobs and therefore bit-identical records (which
    /// [`merge`] tolerates).
    #[must_use]
    pub fn range(&self, shard: usize) -> Option<(u64, u64)> {
        let members = self.members(shard);
        let (first, last) = (members.first()?, members.last()?);
        Some((self.fingerprints[*first], self.fingerprints[*last]))
    }

    /// Every point index whose fingerprint falls inside the inclusive
    /// `[lo, hi]` interval, sorted by `(fingerprint, index)` — the exact
    /// order a `/points` range request streams them in. A pure function
    /// of the fingerprints, so the coordinator and a remote worker that
    /// expanded the same spec derive the same list independently.
    #[must_use]
    pub fn members_in_range(fingerprints: &[u64], lo: u64, hi: u64) -> Vec<usize> {
        let mut seqs: Vec<usize> =
            (0..fingerprints.len()).filter(|&i| (lo..=hi).contains(&fingerprints[i])).collect();
        seqs.sort_by_key(|&i| (fingerprints[i], i));
        seqs
    }
}

/// Formats an inclusive fingerprint interval as the wire form
/// `<lo hex16>-<hi hex16>` used by `/points?range=…`.
#[must_use]
pub fn format_fp_range(lo: u64, hi: u64) -> String {
    format!("{lo:016x}-{hi:016x}")
}

/// Parses the `/points?range=…` wire form back into `(lo, hi)`.
///
/// ```
/// use st_sweep::shard::{format_fp_range, parse_fp_range};
///
/// let (lo, hi) = parse_fp_range(&format_fp_range(7, 0xffee))?;
/// assert_eq!((lo, hi), (7, 0xffee));
/// # Ok::<(), st_sweep::ShardError>(())
/// ```
pub fn parse_fp_range(arg: &str) -> Result<(u64, u64), ShardError> {
    let parsed = arg.split_once('-').and_then(|(lo, hi)| {
        let lo = u64::from_str_radix(lo.trim(), 16).ok()?;
        let hi = u64::from_str_radix(hi.trim(), 16).ok()?;
        Some((lo, hi))
    });
    match parsed {
        Some((lo, hi)) if lo <= hi => Ok((lo, hi)),
        Some(_) => err(format!("fingerprint range `{arg}` is inverted (lo > hi)")),
        None => err(format!("expected a fingerprint range `<lo hex>-<hi hex>`, got `{arg}`")),
    }
}

/// Parses a `--shard i/n` argument: a 0-based shard index and the shard
/// count, e.g. `0/2` and `1/2` for a two-way split.
pub fn parse_shard_arg(arg: &str) -> Result<(usize, usize), ShardError> {
    let parsed = arg.split_once('/').and_then(|(i, n)| {
        let i: usize = i.trim().parse().ok()?;
        let n: usize = n.trim().parse().ok()?;
        Some((i, n))
    });
    match parsed {
        Some((i, n)) if n > 0 && i < n => Ok((i, n)),
        _ => err(format!("--shard expects `i/n` with 0 <= i < n, got `{arg}`")),
    }
}

/// The conventional shard-output path: `<out>/<name>.shard-<i>.jsonl`.
#[must_use]
pub fn shard_path(out_dir: &Path, name: &str, shard: usize) -> PathBuf {
    out_dir.join(format!("{name}.shard-{shard}.jsonl"))
}

/// The `shard` header line (newline-terminated).
#[must_use]
pub fn shard_header(spec: &SweepSpec, plan: &ShardPlan, shard: usize) -> String {
    format!(
        "{{\"kind\":\"shard\",\"v\":{VERSION},\"name\":\"{}\",\"shard\":{shard},\"of\":{},\"points\":{},\"spec\":\"{}\"}}\n",
        json_escape(&spec.name),
        plan.of(),
        plan.points(),
        json_escape(&spec.to_json()),
    )
}

/// One `point` record (newline-terminated): the point's grid position,
/// job fingerprint, report hash and the bit-exact result-store encoding
/// of the report itself.
#[must_use]
pub fn point_record(seq: usize, point: &SweepPoint, report: &SimReport) -> String {
    let report_json = report_to_json(report);
    let report_json = report_json.trim_end();
    format!(
        "{{\"kind\":\"point\",\"seq\":{seq},\"fp\":\"{}\",\"hash\":\"{:016x}\",\"report\":{report_json}}}\n",
        point.job.fingerprint_hex(),
        fnv1a64(report_json.as_bytes()),
    )
}

/// Renders one complete shard document without executing anything: the
/// header plus a record for every point the plan assigns to `shard`,
/// drawing reports from an already-executed full grid. Byte-identical to
/// what [`run_shard`] renders; tests and doctests use it to exercise
/// [`merge`] without spawning processes.
#[must_use]
pub fn shard_document(
    spec: &SweepSpec,
    points: &[SweepPoint],
    reports: &[impl std::borrow::Borrow<SimReport>],
    plan: &ShardPlan,
    shard: usize,
) -> String {
    debug_assert_eq!(points.len(), reports.len(), "one report per point");
    let members = plan.members(shard);
    render(spec, points, plan, shard, members.iter().map(|&seq| (seq, reports[seq].borrow())))
}

/// Executes one shard of a sweep — the points the plan assigns to
/// `shard`, as one [`SweepEngine::run`] batch — and renders its shard
/// document. `st run --shard i/n` writes the result to
/// [`shard_path`]; the engine has already written every finished point
/// through to its result store, so a killed worker's rerun resumes from
/// there.
#[must_use]
pub fn run_shard(
    spec: &SweepSpec,
    points: &[SweepPoint],
    plan: &ShardPlan,
    shard: usize,
    engine: &SweepEngine,
) -> String {
    assert_eq!(plan.points(), points.len(), "plan and point list disagree");
    let members = plan.members(shard);
    let jobs: Vec<_> = members.iter().map(|&seq| points[seq].job.clone()).collect();
    let reports = engine.run(&jobs);
    render(spec, points, plan, shard, members.iter().copied().zip(reports.iter().map(|r| &**r)))
}

/// The one shard-document renderer: the header, then a record per
/// `(seq, report)` pair in the order given.
fn render<'r>(
    spec: &SweepSpec,
    points: &[SweepPoint],
    plan: &ShardPlan,
    shard: usize,
    records: impl Iterator<Item = (usize, &'r SimReport)>,
) -> String {
    let mut out = shard_header(spec, plan, shard);
    for (seq, report) in records {
        out.push_str(&point_record(seq, &points[seq], report));
    }
    out
}

// ---------------------------------------------------------------------
// Merge.
// ---------------------------------------------------------------------

/// What one shard document contributed to a merge, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardContribution {
    /// The shard index the document's header declares.
    pub shard: usize,
    /// Point records the document carried.
    pub records: usize,
    /// Records that duplicated an already-merged point (bit-identical,
    /// or the merge would have failed).
    pub duplicates: usize,
}

/// Aggregate counters of a completed [`merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Shard documents merged.
    pub shards: usize,
    /// Total point records read.
    pub records: usize,
    /// Distinct points reassembled (always the full grid on success).
    pub points: usize,
    /// Bit-identical duplicate records tolerated.
    pub duplicates: usize,
}

/// A successfully merged sweep: the canonical outputs plus diagnostics.
#[derive(Debug)]
pub struct Merged {
    /// The spec re-parsed from the shard headers.
    pub spec: SweepSpec,
    /// The expanded grid, in canonical order.
    pub points: Vec<SweepPoint>,
    /// One report per point, bit-exact as simulated.
    pub reports: Vec<SimReport>,
    /// The canonical JSONL document — byte-identical to what a
    /// single-process `st run` of the same spec writes.
    pub jsonl: String,
    /// Aggregate counters.
    pub stats: MergeStats,
    /// Per-document contributions, in argument order.
    pub contributions: Vec<ShardContribution>,
}

/// Unions shard documents back into the canonical sweep output.
///
/// Verifies that every document describes the same sweep (same spec,
/// shard count and grid size), that every record sits at its claimed
/// grid position (fingerprint check) and hashes to its claimed bytes
/// (tamper check), that overlapping records are bit-identical, and that
/// the union covers the grid with no gaps. On success the reassembled
/// JSONL is byte-identical to a single-process `st run` because both
/// render through the same emitter over bit-exact reports.
///
/// ```
/// use st_sweep::{shard, SweepEngine, SweepSpec};
///
/// let spec = SweepSpec::parse("name = \"doc\"\nworkloads = [\"go\"]\naxis.instructions = [400]")?;
/// let points = spec.points()?;
/// let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
/// let reports = SweepEngine::new(1).run(&jobs);
///
/// let plan = shard::ShardPlan::for_points(&points, 2)?;
/// let docs: Vec<String> =
///     (0..2).map(|s| shard::shard_document(&spec, &points, &reports, &plan, s)).collect();
/// let merged = shard::merge(&docs)?;
/// assert_eq!(merged.jsonl, st_sweep::emit::sweep_jsonl(&points, &reports));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn merge(documents: &[impl AsRef<str>]) -> Result<Merged, ShardError> {
    if documents.is_empty() {
        return err("nothing to merge: no shard documents given");
    }

    // Pass 1: headers must all describe the same sweep.
    let mut headers = Vec::with_capacity(documents.len());
    for (d, doc) in documents.iter().enumerate() {
        let first = doc.as_ref().lines().next().unwrap_or("");
        headers.push(parse_header(first).map_err(|e| ShardError(format!("document {d}: {e}")))?);
    }
    let reference = &headers[0];
    for (d, h) in headers.iter().enumerate() {
        if h.spec != reference.spec || h.of != reference.of || h.points != reference.points {
            return err(format!(
                "document {d} (shard {}) describes a different sweep than document 0 \
                 (spec, shard count or grid size differ)",
                h.shard
            ));
        }
    }

    let spec = SweepSpec::parse(&reference.spec)
        .map_err(|e| ShardError(format!("embedded spec does not parse: {e}")))?;
    let points = spec.points()?;
    if points.len() != reference.points {
        return err(format!(
            "embedded spec expands to {} points but headers declare {}",
            points.len(),
            reference.points
        ));
    }
    // Pass 2: place every record; pass 3: coverage.
    let mut collector = Collector::new(points.len());
    let mut contributions = Vec::with_capacity(documents.len());
    for (d, (doc, header)) in documents.iter().zip(&headers).enumerate() {
        let mut contribution = ShardContribution { shard: header.shard, records: 0, duplicates: 0 };
        for (lineno, line) in doc.as_ref().lines().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let at =
                |e: ShardError| ShardError(format!("document {d}, line {}: {}", lineno + 1, e.0));
            let record = parse_record(line, &points).map_err(at)?;
            contribution.records += 1;
            contribution.duplicates += usize::from(collector.place(record).map_err(at)?);
        }
        contributions.push(contribution);
    }
    let reports = collector.finish()?;
    let stats = MergeStats {
        shards: documents.len(),
        records: contributions.iter().map(|c| c.records).sum(),
        points: points.len(),
        duplicates: contributions.iter().map(|c| c.duplicates).sum(),
    };
    let jsonl = crate::emit::sweep_jsonl(&points, &reports);
    Ok(Merged { spec, points, reports, jsonl, stats, contributions })
}

/// Places verified point records into their grid slots, and holds the
/// rules for records that arrive from several places: the first record
/// of a point wins, a later one must carry the same bytes, and every
/// point must arrive. `merge` places the records of every shard
/// document; the fleet coordinator places those its workers stream.
#[derive(Debug, Default)]
pub(crate) struct Collector {
    slots: Vec<Option<MergedRecord>>,
}

impl Collector {
    /// An empty collector for a grid of `points` points.
    #[must_use]
    pub fn new(points: usize) -> Collector {
        Collector { slots: (0..points).map(|_| None).collect() }
    }

    /// Places `record`, verified against this grid by [`parse_record`].
    /// Returns whether it duplicates a record already placed.
    ///
    /// # Errors
    ///
    /// A duplicate whose bytes differ from the first record of its point.
    pub fn place(&mut self, record: MergedRecord) -> Result<bool, ShardError> {
        let seq = record.seq;
        match &self.slots[seq] {
            None => {
                self.slots[seq] = Some(record);
                Ok(false)
            }
            Some(first) if first.report_json == record.report_json => Ok(true),
            Some(_) => err(format!(
                "point {seq} appears in multiple shards with different bytes \
                 (overlapping records must be bit-identical)"
            )),
        }
    }

    /// Whether point `seq` has a record.
    #[must_use]
    pub fn has(&self, seq: usize) -> bool {
        self.slots[seq].is_some()
    }

    /// Every point's report, in grid order.
    ///
    /// # Errors
    ///
    /// Points with no record, named by their `seq` ranges.
    pub fn finish(self) -> Result<Vec<SimReport>, ShardError> {
        let missing: Vec<usize> = (0..self.slots.len()).filter(|&seq| !self.has(seq)).collect();
        if !missing.is_empty() {
            return err(format!(
                "merged shards cover {}/{} points; missing seq {} — \
                 did a worker crash or a shard file go missing?",
                self.slots.len() - missing.len(),
                self.slots.len(),
                st_report::format_ranges(&missing)
            ));
        }
        Ok(self.slots.into_iter().flatten().map(|record| record.report).collect())
    }
}

/// A parsed shard header.
struct Header {
    shard: usize,
    of: usize,
    points: usize,
    spec: String,
}

fn parse_header(line: &str) -> Result<Header, ShardError> {
    let json = Json::parse(line).map_err(|e| ShardError(format!("header is not JSON: {e}")))?;
    let kind = json.get("kind").and_then(|k| k.as_str().ok().map(str::to_string));
    if kind.as_deref() != Some("shard") {
        return err("first line is not a shard header (expected \"kind\":\"shard\")");
    }
    let int = |key: &str| -> Result<usize, ShardError> {
        json.get(key)
            .ok_or_else(|| ShardError(format!("header missing `{key}`")))?
            .as_u64()
            .map(|n| n as usize)
            .map_err(ShardError)
    };
    if int("v")? as u64 != VERSION {
        return err(format!("unsupported shard format version (expected {VERSION})"));
    }
    let header = Header {
        shard: int("shard")?,
        of: int("of")?,
        points: int("points")?,
        spec: json
            .get("spec")
            .ok_or_else(|| ShardError("header missing `spec`".to_string()))?
            .as_str()
            .map_err(ShardError)?
            .to_string(),
    };
    if header.of == 0 || header.shard >= header.of {
        return err(format!("header shard {}/{} is out of range", header.shard, header.of));
    }
    Ok(header)
}

/// One verified point record: a `point` line that parsed, sits at its
/// claimed grid position (fingerprint check) and hashes to its claimed
/// bytes (tamper check).
#[derive(Debug)]
pub struct MergedRecord {
    /// The point's position in the canonical expanded grid.
    pub seq: usize,
    /// Raw report bytes, for bit-identity checks across overlaps.
    pub report_json: String,
    /// The decoded report.
    pub report: SimReport,
}

/// Parses and verifies one `point` record line against the expanded
/// grid: position, integrity hash, workload/experiment identity.
/// [`merge`] applies it to every line of a shard document, and the
/// fleet coordinator to every record a remote worker streams back, so a
/// confused or corrupted worker is caught at ingest.
pub fn parse_record(line: &str, points: &[SweepPoint]) -> Result<MergedRecord, ShardError> {
    // The raw report substring is the ground truth for hashing and
    // overlap comparison; the writer guarantees the `"report":` key is
    // unique in the line (everything before it is fixed-shape hex/ints).
    let Some((_, rest)) = line.split_once(",\"report\":") else {
        return err("record has no `report` member");
    };
    let Some(report_json) = rest.strip_suffix('}') else {
        return err("record does not end in `}`");
    };
    let json = Json::parse(line).map_err(|e| ShardError(format!("record is not JSON: {e}")))?;
    let kind = json.get("kind").and_then(|k| k.as_str().ok().map(str::to_string));
    if kind.as_deref() != Some("point") {
        return err("expected a \"kind\":\"point\" record");
    }
    let seq = json
        .get("seq")
        .ok_or_else(|| ShardError("record missing `seq`".to_string()))?
        .as_u64()
        .map_err(ShardError)? as usize;
    if seq >= points.len() {
        return err(format!("seq {seq} outside the {}-point grid", points.len()));
    }
    let fp = json
        .get("fp")
        .ok_or_else(|| ShardError("record missing `fp`".to_string()))?
        .as_str()
        .map_err(ShardError)?
        .to_string();
    if fp != points[seq].job.fingerprint_hex() {
        return err(format!(
            "point {seq} carries fingerprint {fp} but the spec expands it to {} — \
             shard files from a different sweep or spec revision?",
            points[seq].job.fingerprint_hex()
        ));
    }
    let declared_hash = json
        .get("hash")
        .ok_or_else(|| ShardError("record missing `hash`".to_string()))?
        .as_str()
        .map_err(ShardError)?
        .to_string();
    let actual_hash = format!("{:016x}", fnv1a64(report_json.as_bytes()));
    if declared_hash != actual_hash {
        return err(format!(
            "point {seq} report bytes hash to {actual_hash}, record claims {declared_hash} — \
             the shard file was modified after it was written"
        ));
    }
    let report = report_from_json(report_json)
        .map_err(|e| ShardError(format!("point {seq} report does not parse: {e}")))?;
    if report.workload != points[seq].job.workload.name
        || report.experiment != points[seq].job.experiment.id
    {
        return err(format!(
            "point {seq} report is for {}/{} but the grid position is {}/{}",
            report.workload,
            report.experiment,
            points[seq].job.workload.name,
            points[seq].job.experiment.id
        ));
    }
    Ok(MergedRecord { seq, report_json: report_json.to_string(), report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::parse(
            "name = \"shard-test\"\nworkloads = [\"go\"]\nexperiments = [\"C2\"]\n\n\
             [axis]\nruu_size = [16, 32]\ninstructions = 400\n",
        )
        .expect("spec parses")
    }

    fn executed(spec: &SweepSpec) -> (Vec<SweepPoint>, Vec<Arc<SimReport>>) {
        let points = spec.points().expect("points");
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let reports = SweepEngine::new(1).run(&jobs);
        (points, reports)
    }

    #[test]
    fn plan_partitions_by_contiguous_fingerprint_ranges() {
        let fps = [90u64, 10, 70, 30, 50];
        let plan = ShardPlan::new(&fps, 2).expect("plan");
        // Sorted fps: 10(1) 30(3) 50(4) | 70(2) 90(0); shard 0 gets the
        // extra point.
        assert_eq!(plan.members(0), &[1, 3, 4]);
        assert_eq!(plan.members(1), &[2, 0]);
        assert_eq!(plan.points(), 5);
        // Every point belongs to exactly one shard.
        let mut all: Vec<usize> = (0..plan.of()).flat_map(|s| plan.members(s).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn plan_handles_degenerate_shapes() {
        assert!(ShardPlan::new(&[1, 2], 0).is_err(), "0 shards is an error");
        let surplus = ShardPlan::new(&[5], 3).expect("more shards than points");
        assert_eq!(surplus.members(0), &[0]);
        assert!(surplus.members(1).is_empty());
        assert!(surplus.members(2).is_empty());
        let empty = ShardPlan::new(&[], 2).expect("empty grid");
        assert_eq!(empty.points(), 0);
        // Identical fingerprints stay deterministic via the seq tiebreak.
        let ties = ShardPlan::new(&[7, 7, 7, 7], 2).expect("ties");
        assert_eq!(ties.members(0), &[0, 1]);
        assert_eq!(ties.members(1), &[2, 3]);
    }

    #[test]
    fn plan_memory_does_not_grow_with_the_shard_count() {
        // Nothing is allocated per shard, so any count plans instantly:
        // the first `points` shards own one point each, in fingerprint
        // order, and every later one is empty.
        let plan = ShardPlan::new(&[30, 10, 20], usize::MAX).expect("plan");
        assert_eq!(plan.of(), usize::MAX);
        assert_eq!(
            (plan.members(0), plan.members(1), plan.members(2)),
            (&[1][..], &[2][..], &[0][..])
        );
        assert_eq!(plan.range(2), Some((30, 30)));
        assert!(plan.members(3).is_empty());
        assert!(plan.members(usize::MAX - 1).is_empty());
        assert_eq!(plan.range(usize::MAX - 1), None);
    }

    #[test]
    fn plan_ranges_cover_members_and_round_trip_the_wire_form() {
        let fps = [90u64, 10, 70, 30, 50];
        let plan = ShardPlan::new(&fps, 2).expect("plan");
        // Sorted fps: 10 30 50 | 70 90.
        assert_eq!(plan.range(0), Some((10, 50)));
        assert_eq!(plan.range(1), Some((70, 90)));
        let surplus = ShardPlan::new(&[5], 3).expect("surplus");
        assert_eq!(surplus.range(0), Some((5, 5)));
        assert_eq!(surplus.range(1), None, "empty shard has no range");

        // members_in_range reproduces the plan's member lists from the
        // range alone — what lets a remote worker derive the same work.
        for shard in 0..2 {
            let (lo, hi) = plan.range(shard).expect("non-empty");
            assert_eq!(ShardPlan::members_in_range(&fps, lo, hi), plan.members(shard));
        }
        // Tied fingerprints at a chunk boundary overlap both ranges.
        let ties = ShardPlan::new(&[7, 7, 7, 7], 2).expect("ties");
        let (lo0, hi0) = ties.range(0).expect("range 0");
        assert_eq!(ShardPlan::members_in_range(&[7, 7, 7, 7], lo0, hi0), &[0, 1, 2, 3]);

        let (lo, hi) = parse_fp_range(&format_fp_range(10, 50)).expect("round trip");
        assert_eq!((lo, hi), (10, 50));
        assert!(parse_fp_range("50-10").is_err(), "inverted range");
        assert!(parse_fp_range("nonsense").is_err());
        assert!(parse_fp_range("10").is_err(), "no dash");
    }

    #[test]
    fn parse_shard_arg_accepts_only_well_formed_splits() {
        assert_eq!(parse_shard_arg("0/2").unwrap(), (0, 2));
        assert_eq!(parse_shard_arg("1/2").unwrap(), (1, 2));
        assert!(parse_shard_arg("2/2").is_err(), "index out of range");
        assert!(parse_shard_arg("0/0").is_err(), "zero shards");
        assert!(parse_shard_arg("1").is_err(), "no slash");
        assert!(parse_shard_arg("a/b").is_err(), "not numbers");
    }

    #[test]
    fn merge_reassembles_the_canonical_document() {
        let spec = tiny_spec();
        let (points, reports) = executed(&spec);
        let canonical = crate::emit::sweep_jsonl(&points, &reports);
        for n in [1usize, 2, 3, 7] {
            let plan = ShardPlan::for_points(&points, n).expect("plan");
            let docs: Vec<String> =
                (0..n).map(|s| shard_document(&spec, &points, &reports, &plan, s)).collect();
            let merged = merge(&docs).expect("merge");
            assert_eq!(merged.jsonl, canonical, "n = {n}");
            assert_eq!(merged.stats.points, points.len());
            assert_eq!(merged.stats.records, points.len());
            assert_eq!(merged.stats.duplicates, 0);
        }
    }

    #[test]
    fn merge_survives_a_header_with_a_huge_shard_count() {
        // A lone shard 0 of 10^12 that carries every point is a complete,
        // consistent set: merging it must not plan (or allocate) per
        // shard.
        let spec = tiny_spec();
        let (points, reports) = executed(&spec);
        let plan = ShardPlan::for_points(&points, 1).expect("plan");
        let doc = shard_document(&spec, &points, &reports, &plan, 0);
        let huge = doc.replacen("\"of\":1,", "\"of\":1000000000000,", 1);
        assert_ne!(huge, doc);
        let merged = merge(&[huge]).expect("a consistent document set");
        assert_eq!(merged.jsonl, crate::emit::sweep_jsonl(&points, &reports));
    }

    #[test]
    fn merge_tolerates_bit_identical_overlap_and_counts_it() {
        let spec = tiny_spec();
        let (points, reports) = executed(&spec);
        let plan = ShardPlan::for_points(&points, 2).expect("plan");
        let full_plan = ShardPlan::for_points(&points, 1).expect("full");
        // A 2-way split plus a full single-shard run: every point of the
        // full run overlaps one of the split shards.
        let docs = vec![
            shard_document(&spec, &points, &reports, &plan, 0),
            shard_document(&spec, &points, &reports, &plan, 1),
            shard_document(&spec, &points, &reports, &full_plan, 0),
        ];
        let e = merge(&docs).expect_err("headers disagree on shard count");
        assert!(e.0.contains("different sweep"), "{e}");
        // Same split merged twice: pure duplicates, all identical.
        let docs = vec![
            shard_document(&spec, &points, &reports, &plan, 0),
            shard_document(&spec, &points, &reports, &plan, 1),
            shard_document(&spec, &points, &reports, &plan, 0),
        ];
        let merged = merge(&docs).expect("identical overlap is fine");
        assert_eq!(merged.stats.duplicates, plan.members(0).len());
        assert_eq!(merged.jsonl, crate::emit::sweep_jsonl(&points, &reports));
    }

    #[test]
    fn merge_rejects_gaps_tampering_and_divergent_overlaps() {
        let spec = tiny_spec();
        let (points, reports) = executed(&spec);
        let plan = ShardPlan::for_points(&points, 2).expect("plan");
        let doc0 = shard_document(&spec, &points, &reports, &plan, 0);
        let doc1 = shard_document(&spec, &points, &reports, &plan, 1);

        // A missing shard is a coverage gap naming the absent points.
        let e = merge(std::slice::from_ref(&doc0)).expect_err("half the grid is missing");
        assert!(e.0.contains("missing seq"), "{e}");

        // Tampering with report bytes trips the hash check.
        let line = doc1.lines().nth(1).expect("a point record").to_string();
        let field = "\"energy_cycles\":";
        let at = line.find(field).expect("energy_cycles field") + field.len();
        let mut tampered_line = line.clone();
        tampered_line.replace_range(at..=at, if &line[at..=at] == "9" { "8" } else { "9" });
        let tampered = doc1.replace(&line, &tampered_line);
        let e = merge(&[doc0.clone(), tampered]).expect_err("tampered shard");
        assert!(e.0.contains("modified after it was written"), "{e}");

        // A divergent overlap (same point, different bytes, hash
        // "fixed up") is still rejected by the bit-identity check.
        let seq_of = |l: &str| -> usize {
            let json = Json::parse(l).unwrap();
            json.get("seq").unwrap().as_u64().unwrap() as usize
        };
        let victim = doc1.lines().nth(1).unwrap();
        let seq = seq_of(victim);
        let mut other = reports[seq].as_ref().clone();
        other.perf.cycles += 1;
        let forged = point_record(seq, &points[seq], &other);
        let overlapping = format!("{doc0}{forged}");
        let e = merge(&[overlapping, doc1.clone()]).expect_err("divergent overlap");
        assert!(e.0.contains("different bytes"), "{e}");

        // Garbage headers and records fail loudly.
        assert!(merge(&["not json\n"]).is_err());
        assert!(merge(&[format!("{}garbage\n", shard_header(&spec, &plan, 0))]).is_err());
        let empty: &[&str] = &[];
        assert!(merge(empty).is_err());
    }

    #[test]
    fn run_shard_covers_exactly_its_range() {
        let spec = tiny_spec();
        let (points, reports) = executed(&spec);
        let plan = ShardPlan::for_points(&points, 2).expect("plan");
        for threads in [1, 2] {
            let engine = SweepEngine::new(threads);
            let docs: Vec<String> =
                (0..2).map(|shard| run_shard(&spec, &points, &plan, shard, &engine)).collect();
            for (shard, doc) in docs.iter().enumerate() {
                assert_eq!(doc, &shard_document(&spec, &points, &reports, &plan, shard));
            }
            assert_eq!(engine.stats().simulated, points.len() as u64, "each point ran once");
            let merged = merge(&docs).expect("merge");
            assert_eq!(merged.jsonl, crate::emit::sweep_jsonl(&points, &reports));
        }
    }
}
