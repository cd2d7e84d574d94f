//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names a grid: workloads × experiments × any set of
//! registered sweep axes (see [`crate::axes`]) — pipeline depth, window
//! and queue sizes, predictor/estimator budgets, the Pipeline-Gating
//! threshold, instruction budget and power-model knobs. It can be built
//! in code or parsed from a small TOML or JSON document (auto-detected):
//!
//! ```toml
//! name = "window-sweep"
//! workloads = ["go", "gcc"]
//! experiments = ["C2", "A7"]
//!
//! [axis]
//! ruu_size = [64, 128, 256]
//! gating_threshold = [1, 2, 4]
//! instructions = 50_000
//! ```
//!
//! ```json
//! { "name": "quick", "workloads": ["go"], "axis.depth": [6, 14, 28] }
//! ```
//!
//! Axes bind through `axis.<name>` keys (TOML `[axis]` sections or
//! dotted keys; flat dotted keys in JSON). The pre-registry spellings
//! `depths`, `predictor_kb`, `estimator_kb` and `instructions` are kept
//! as deprecated aliases and expand to identical grids.
//!
//! The vendored environment has no serde/toml. A JSON spec is one
//! object read by [`Json::parse`]; a TOML spec is `key = value` lines,
//! `[section]` headers and `#` comments, and each value is again read by
//! [`Json::parse`] (so numbers may contain `_` and one trailing comma
//! may close an array). A key given twice is an error.

use st_core::Experiment;

use crate::axes::{self, Axis, AxisBinding, AxisValue, MAX_GRID_POINTS};
use crate::job::JobSpec;
use crate::json::Json;

/// Errors produced while parsing or resolving a sweep spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// Non-axis spec keys, for unknown-key suggestions.
const TOP_KEYS: [&str; 4] = ["name", "workloads", "experiments", "baseline"];

/// Deprecated aliases: `spec key → axis name`.
const LEGACY_AXIS_KEYS: [(&str, &str); 4] = [
    ("depths", "depth"),
    ("predictor_kb", "predictor_kb"),
    ("estimator_kb", "estimator_kb"),
    ("instructions", "instructions"),
];

/// A declarative workload × experiment × axis grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (used for output file names).
    pub name: String,
    /// Workload names (empty = the paper's eight).
    pub workloads: Vec<String>,
    /// Experiment ids ("A5", "C2", "OF", …; empty = C2 only).
    pub experiments: Vec<String>,
    /// Bound sweep axes; anything unbound stays at the paper default.
    pub axes: Vec<AxisBinding>,
    /// Whether to add a baseline point per (workload, axis point) for
    /// speedup/energy comparisons.
    pub baseline: bool,
}

impl Default for SweepSpec {
    /// The documented defaults: named `sweep`, baselines enabled,
    /// nothing bound (every axis at its paper value).
    fn default() -> SweepSpec {
        SweepSpec::new("sweep")
    }
}

impl SweepSpec {
    /// An empty spec named `name` with baselines enabled.
    #[must_use]
    pub fn new(name: impl Into<String>) -> SweepSpec {
        SweepSpec {
            name: name.into(),
            workloads: Vec::new(),
            experiments: Vec::new(),
            axes: Vec::new(),
            baseline: true,
        }
    }

    /// Parses a spec from TOML (`key = value` lines, with `[axis]`
    /// sections and dotted keys supported) or JSON (flat object,
    /// `axis.<name>` keys), auto-detected from the first non-whitespace
    /// character. Every value is read by [`Json::parse`], and a key given
    /// twice is an error.
    ///
    /// ```
    /// use st_sweep::SweepSpec;
    ///
    /// let spec = SweepSpec::parse(
    ///     "name = \"demo\"\nworkloads = [\"go\"]\n\n[axis]\nruu_size = [32, 64]\n",
    /// )?;
    /// assert_eq!(spec.name, "demo");
    /// // 2 window sizes x 1 workload x (baseline + C2 default) = 4 points.
    /// assert_eq!(spec.points()?.len(), 4);
    /// # Ok::<(), st_sweep::SpecError>(())
    /// ```
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let pairs = if text.trim_start().starts_with('{') {
            match Json::parse(text) {
                Ok(Json::Obj(members)) => members,
                Ok(_) => return err("JSON spec must be a single object"),
                Err(e) => return err(format!("JSON spec: {e}")),
            }
        } else {
            parse_toml_lite(text)?
        };
        let mut spec = SweepSpec::new("sweep");
        let mut seen = std::collections::HashSet::new();
        for (key, value) in pairs {
            if !seen.insert(key.clone()) {
                return err(format!("`{key}` is given more than once"));
            }
            spec.apply(&key, value)?;
        }
        Ok(spec)
    }

    fn apply(&mut self, key: &str, value: Json) -> Result<(), SpecError> {
        if let Some((_, axis_name)) = LEGACY_AXIS_KEYS.iter().find(|(k, _)| *k == key) {
            return self.bind_axis_value(axis_name, key, value);
        }
        if let Some(axis_name) = key.strip_prefix("axis.") {
            return self.bind_axis_value(axis_name, key, value);
        }
        match key {
            "name" => self.name = string(value, key)?,
            "workloads" => self.workloads = strings(value, key)?,
            "experiments" => self.experiments = strings(value, key)?,
            "baseline" => match value {
                Json::Bool(b) => self.baseline = b,
                other => return err(format!("`{key}` expects a bool, got {other:?}")),
            },
            other => return err(unknown_key_message(other)),
        }
        Ok(())
    }

    /// Parses `value` for `axis_name` and appends the binding, rejecting
    /// double binds (e.g. a legacy key plus its `axis.*` spelling).
    fn bind_axis_value(
        &mut self,
        axis_name: &str,
        key: &str,
        value: Json,
    ) -> Result<(), SpecError> {
        let axis = axes::axis(axis_name).ok_or_else(|| axes::unknown_axis_error(axis_name))?;
        if self.axes.iter().any(|b| b.name == axis.name) {
            return err(format!(
                "axis `{}` bound more than once (key `{key}`; check for a legacy alias)",
                axis.name
            ));
        }
        let values = axis_values(value, axis, key)?;
        self.axes.push(AxisBinding::new(axis.name, values)?);
        Ok(())
    }

    /// The canonical single-line JSON form of the spec.
    ///
    /// [`SweepSpec::parse`] round-trips it to an equivalent spec (same
    /// name, workloads, experiments, baseline flag and axis values, with
    /// axes normalised to canonical registry order), so two processes
    /// handed the same serialised spec expand the exact same point list —
    /// this is what shard workers embed in their output headers so
    /// `st merge` can re-derive the grid without the original file.
    ///
    /// ```
    /// use st_sweep::SweepSpec;
    ///
    /// let mut spec = SweepSpec::new("window");
    /// spec.workloads = vec!["go".into()];
    /// spec.set_axis("ruu_size", vec![st_sweep::AxisValue::Int(32)])?;
    /// let back = SweepSpec::parse(&spec.to_json())?;
    /// assert_eq!(back.points()?, spec.points()?);
    /// # Ok::<(), st_sweep::SpecError>(())
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let quoted = |items: &[String]| {
            let q: Vec<String> =
                items.iter().map(|s| format!("\"{}\"", crate::emit::json_escape(s))).collect();
            format!("[{}]", q.join(","))
        };
        let mut out = format!(
            "{{\"name\":\"{}\",\"workloads\":{},\"experiments\":{},\"baseline\":{}",
            crate::emit::json_escape(&self.name),
            quoted(&self.workloads),
            quoted(&self.experiments),
            self.baseline
        );
        let mut bound = self.axes.clone();
        bound.sort_by_key(|b| b.axis().index());
        for binding in &bound {
            let values: Vec<String> = binding.values.iter().map(AxisValue::canonical).collect();
            out.push_str(&format!(",\"axis.{}\":[{}]", binding.name, values.join(",")));
        }
        out.push('}');
        out
    }

    /// Binds (or rebinds) an axis programmatically — the `--set` CLI
    /// override path. Replaces any existing binding for the same axis.
    pub fn set_axis(&mut self, name: &str, values: Vec<AxisValue>) -> Result<(), SpecError> {
        let binding = AxisBinding::new(name, values)?;
        self.axes.retain(|b| b.name != binding.name);
        self.axes.push(binding);
        Ok(())
    }

    /// The values an axis is bound to, if it is bound.
    #[must_use]
    pub fn axis_values(&self, name: &str) -> Option<&[AxisValue]> {
        self.axes.iter().find(|b| b.name == name).map(|b| b.values.as_slice())
    }

    /// Display form of the instruction budget: the bound value(s), or
    /// the registry default when unbound.
    #[must_use]
    pub fn instructions_label(&self) -> String {
        match self.axis_values("instructions") {
            Some(values) if values.len() == 1 => values[0].canonical(),
            Some(values) => {
                let list: Vec<String> = values.iter().map(AxisValue::canonical).collect();
                format!("{{{}}}", list.join(","))
            }
            None => axes::axis("instructions").expect("registered").default.canonical(),
        }
    }

    /// Expands the grid into concrete points: the cartesian product of
    /// all bound axes (canonical registry order, first axis varying
    /// slowest) × workloads × (baseline + experiments), with each
    /// point's axis bindings attached for downstream grouping. A grid of
    /// more than [`MAX_GRID_POINTS`] points is an error, reported before
    /// anything is derived or allocated.
    pub fn points(&self) -> Result<Vec<SweepPoint>, SpecError> {
        // `workload_seed` re-derives generative workloads and is a no-op
        // on fixed profiles; binding it without a single `gen:` workload
        // would silently sweep N identical points, so reject it up front.
        if self.axis_values("workload_seed").is_some()
            && !self.workloads.iter().any(|w| w.starts_with(st_workloads::GEN_PREFIX))
        {
            return err("axis `workload_seed` needs at least one generative workload \
                 (`gen:<family>:<seed>`); fixed profiles ignore the seed"
                .to_string());
        }
        match self.grid_size() {
            Some(n) if n <= MAX_GRID_POINTS => {}
            n => {
                let count =
                    n.map_or_else(|| format!("more than {}", usize::MAX), |n| n.to_string());
                return err(format!(
                    "the grid expands to {count} points (limit {MAX_GRID_POINTS}); bind fewer \
                     axis values"
                ));
            }
        }
        let members = self.generative_members()?;
        let experiments = self.resolve_experiments()?;
        let mut bound = self.axes.clone();
        bound.sort_by_key(|b| b.axis().index());
        for pair in bound.windows(2) {
            if pair[0].name == pair[1].name {
                return err(format!("axis `{}` bound more than once", pair[0].name));
            }
        }
        // The spec is valid: calibrate every generative member the grid
        // needs on every core, so the expansion below only reads the memo.
        st_workloads::generate::resolve_members(&members);
        let workloads = self.resolve_workloads()?;

        // Cartesian product over the bound axes.
        let mut combos: Vec<Vec<(&'static str, AxisValue)>> = vec![Vec::new()];
        for binding in &bound {
            let mut next = Vec::with_capacity(combos.len() * binding.values.len());
            for combo in &combos {
                for v in &binding.values {
                    let mut c = combo.clone();
                    c.push((binding.name, *v));
                    next.push(c);
                }
            }
            combos = next;
        }

        let mut points = Vec::with_capacity(combos.len() * workloads.len());
        for combo in &combos {
            for workload in &workloads {
                if self.baseline {
                    points.push(make_point(workload, None, combo)?);
                }
                for e in &experiments {
                    points.push(make_point(workload, Some(e), combo)?);
                }
            }
        }
        Ok(points)
    }

    /// How many points [`SweepSpec::points`] expands to: the bound axes'
    /// cardinalities × workloads (the paper's eight when unset) ×
    /// (baseline + experiments), or `None` when that overflows.
    fn grid_size(&self) -> Option<usize> {
        let workloads = if self.workloads.is_empty() {
            st_workloads::all().len()
        } else {
            self.workloads.len()
        };
        let per_workload = usize::from(self.baseline) + self.experiments.len().max(1);
        self.axes
            .iter()
            .try_fold(workloads.checked_mul(per_workload)?, |n, b| n.checked_mul(b.values.len()))
    }

    /// Expands the grid into bare jobs (see [`SweepSpec::points`] for the
    /// axis-tagged form).
    pub fn jobs(&self) -> Result<Vec<JobSpec>, SpecError> {
        Ok(self.points()?.into_iter().map(|p| p.job).collect())
    }

    /// Resolved workload specs (the paper's eight when unspecified).
    pub fn resolve_workloads(&self) -> Result<Vec<st_isa::WorkloadSpec>, SpecError> {
        if self.workloads.is_empty() {
            return Ok(st_workloads::all().into_iter().map(|i| i.spec).collect());
        }
        self.workloads
            .iter()
            .map(|name| {
                st_workloads::by_name(name).ok_or_else(|| SpecError(unknown_workload_message(name)))
            })
            .collect()
    }

    /// The distinct generative members the grid resolves: each `gen:`
    /// workload at its own seed and at every `workload_seed` value.
    /// Checks workload names as [`SweepSpec::resolve_workloads`] does,
    /// without deriving anything.
    fn generative_members(&self) -> Result<Vec<(&'static st_workloads::Family, u64)>, SpecError> {
        let axis_seeds = self.axis_values("workload_seed").unwrap_or_default();
        let mut seen = std::collections::HashSet::new();
        let mut members = Vec::new();
        for name in &self.workloads {
            let Some((family, own_seed)) = st_workloads::generate::parse_name(name) else {
                if st_workloads::by_name(name).is_none() {
                    return err(unknown_workload_message(name));
                }
                continue;
            };
            let seeds = axis_seeds.iter().filter_map(|v| match *v {
                AxisValue::Int(seed) => Some(seed),
                AxisValue::Float(_) => None,
            });
            for seed in std::iter::once(own_seed).chain(seeds) {
                if seen.insert((family.name, seed)) {
                    members.push((family, seed));
                }
            }
        }
        Ok(members)
    }

    /// Resolved experiments (C2 when unspecified).
    pub fn resolve_experiments(&self) -> Result<Vec<Experiment>, SpecError> {
        if self.experiments.is_empty() {
            return Ok(vec![st_core::experiments::c2()]);
        }
        self.experiments
            .iter()
            .map(|id| {
                experiment_by_id(id).ok_or_else(|| SpecError(format!("unknown experiment `{id}`")))
            })
            .collect()
    }
}

/// One expanded grid point: the concrete job plus the axis bindings that
/// produced it (canonical registry order), so emitters can tag results.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The fully-specified simulation point.
    pub job: JobSpec,
    /// `(axis name, value)` pairs this point binds, registry order.
    pub bindings: Vec<(&'static str, AxisValue)>,
}

/// Each point's [`JobSpec::fingerprint`], in grid order: what a command
/// computes once and hands to every step that identifies its points.
#[must_use]
pub fn fingerprints(points: &[SweepPoint]) -> Vec<u64> {
    points.iter().map(|p| p.job.fingerprint()).collect()
}

fn make_point(
    workload: &st_isa::WorkloadSpec,
    experiment: Option<&Experiment>,
    combo: &[(&'static str, AxisValue)],
) -> Result<SweepPoint, SpecError> {
    let default_instr = match axes::axis("instructions").expect("registered").default {
        AxisValue::Int(n) => n,
        AxisValue::Float(_) => unreachable!("instructions is an integer axis"),
    };
    let mut job = JobSpec::new(workload.clone(), default_instr);
    if let Some(e) = experiment {
        job = job.with_experiment(e.clone());
    }
    // `combo` is already in registry order, which is the canonical
    // application order.
    for (name, value) in combo {
        axes::axis(name).expect("combo names come from bindings").apply(&mut job, value)?;
    }
    Ok(SweepPoint { job, bindings: combo.to_vec() })
}

/// The "unknown workload" diagnostic: nearest-name suggestion over the
/// fixed profiles and generative family spellings, plus the name
/// grammar for generated members.
fn unknown_workload_message(name: &str) -> String {
    let mut msg = format!("unknown workload `{name}`");
    let mut candidates: Vec<String> =
        st_workloads::all().into_iter().map(|i| i.spec.name).collect();
    for f in st_workloads::families() {
        candidates.push(format!("gen:{}", f.name));
    }
    if let Some(best) = axes::nearest(name, candidates.iter().map(String::as_str)) {
        msg.push_str(&format!(" (did you mean `{best}`?)"));
    }
    let families: Vec<&str> = st_workloads::families().iter().map(|f| f.name).collect();
    msg.push_str(&format!(
        "; valid workloads: the eight fixed profiles (`st list workloads`) \
         or `gen:<family>:<seed>` with families {}",
        families.join(", ")
    ));
    msg
}

/// The "unknown spec key" diagnostic: nearest-name suggestion over
/// top-level keys, legacy aliases and `axis.*` spellings.
fn unknown_key_message(key: &str) -> String {
    let mut msg = format!("unknown key `{key}`");
    // A bare axis name is the most common slip: `ruu_size = [..]`
    // instead of `axis.ruu_size = [..]`.
    if axes::axis(key).is_some() {
        msg.push_str(&format!(" (did you mean `axis.{key}`?)"));
        return msg;
    }
    let mut candidates: Vec<String> = TOP_KEYS.iter().map(|k| (*k).to_string()).collect();
    candidates.extend(LEGACY_AXIS_KEYS.iter().map(|(k, _)| (*k).to_string()));
    candidates.extend(axes::registry().iter().map(|a| format!("axis.{}", a.name)));
    if let Some(best) = axes::nearest(key, candidates.iter().map(String::as_str)) {
        msg.push_str(&format!(" (did you mean `{best}`?)"));
    }
    let names: Vec<&str> = axes::registry().iter().map(|a| a.name).collect();
    msg.push_str(&format!("; valid axes: {}", names.join(", ")));
    msg
}

/// Looks up a paper experiment by id (case-insensitive): `BASE`, `A1`–`A7`,
/// `B1`–`B9`, `C1`–`C7`, `OF`, `OD`, `OS`.
#[must_use]
pub fn experiment_by_id(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

/// Every named experiment of the paper, baseline and oracles included.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    use st_core::experiments as ex;
    let mut all = vec![ex::baseline()];
    all.extend(ex::group_a());
    all.extend(ex::group_b());
    all.extend(ex::group_c());
    all.extend(ex::oracles());
    all
}

/// `value` as a string, or an error naming `key`.
fn string(value: Json, key: &str) -> Result<String, SpecError> {
    match value {
        Json::Str(s) => Ok(s),
        other => err(format!("`{key}` expects a string, got {other:?}")),
    }
}

/// A list of strings; a lone string is a list of one.
fn strings(value: Json, key: &str) -> Result<Vec<String>, SpecError> {
    match value {
        Json::Arr(items) => items.into_iter().map(|v| string(v, key)).collect(),
        Json::Str(s) => Ok(vec![s]),
        other => err(format!("`{key}` expects an array of strings, got {other:?}")),
    }
}

/// Typed axis values per the axis domain: integer axes require whole
/// non-negative numbers, float axes accept any finite number. String
/// values are range tokens — `"lo..hi"` / `"lo..=hi"` on integer axes
/// expand to consecutive values, so one spec line can bind a thousand
/// workload seeds. A lone number or range is a list of one.
fn axis_values(value: Json, axis: &Axis, key: &str) -> Result<Vec<AxisValue>, SpecError> {
    let items = match value {
        Json::Arr(items) => items,
        single @ (Json::Num(_) | Json::Str(_)) => vec![single],
        other => return err(format!("`{key}` expects an array of numbers, got {other:?}")),
    };
    let mut out = Vec::new();
    for v in items {
        match v {
            Json::Num(n) => out.push(axis.value_from_f64(n)?),
            Json::Str(s) => out.extend(axis.values_from_token(&s)?),
            other => return err(format!("`{key}` expects numbers or ranges, got {other:?}")),
        }
    }
    Ok(out)
}

/// Strips a `#` comment that starts outside of a string (escape-aware).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if std::mem::take(&mut escaped) {
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The `(key, value)` pairs of a TOML spec, in order: a `[section]`
/// header prefixes the keys after it, and each value is one JSON value.
fn parse_toml_lite(text: &str) -> Result<Vec<(String, Json)>, SpecError> {
    let mut pairs = Vec::new();
    let mut section = String::new();
    for raw in text.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            // A `[section]` header prefixes the keys that follow, so
            // `[axis]` + `depth = [..]` reads as `axis.depth = [..]`.
            section = header.trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return err(format!("expected `key = value`, got `{line}`"));
        };
        let key = key.trim();
        let full_key =
            if section.is_empty() { key.to_string() } else { format!("{section}.{key}") };
        let value = Json::parse(value).map_err(|e| SpecError(format!("`{full_key}`: {e}")))?;
        pairs.push((full_key, value));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_toml_lite_with_legacy_aliases() {
        let spec = SweepSpec::parse(
            r#"
            # depth sensitivity
            name = "depth-sweep"
            workloads = ["go", "gcc"]
            experiments = ["C2", "A7"]
            depths = [6, 14, 28]
            instructions = 50_000
            baseline = true
            "#,
        )
        .expect("parse");
        assert_eq!(spec.name, "depth-sweep");
        assert_eq!(spec.workloads, vec!["go", "gcc"]);
        assert_eq!(spec.experiments, vec!["C2", "A7"]);
        assert_eq!(
            spec.axis_values("depth"),
            Some(&[AxisValue::Int(6), AxisValue::Int(14), AxisValue::Int(28)][..])
        );
        assert_eq!(spec.axis_values("instructions"), Some(&[AxisValue::Int(50_000)][..]));
        assert_eq!(spec.instructions_label(), "50000");
        assert!(spec.baseline);
    }

    #[test]
    fn parses_axis_section_and_dotted_keys() {
        let toml = SweepSpec::parse(
            r#"
            name = "axes"
            axis.depth = [6, 14]

            [axis]
            ruu_size = [64, 128]
            idle_frac = [0.05, 0.1]
            "#,
        )
        .expect("parse");
        assert_eq!(toml.axis_values("depth"), Some(&[AxisValue::Int(6), AxisValue::Int(14)][..]));
        assert_eq!(
            toml.axis_values("ruu_size"),
            Some(&[AxisValue::Int(64), AxisValue::Int(128)][..])
        );
        assert_eq!(
            toml.axis_values("idle_frac"),
            Some(&[AxisValue::Float(0.05), AxisValue::Float(0.1)][..])
        );

        let json = SweepSpec::parse(
            r#"{ "name": "axes", "axis.gating_threshold": [1, 2, 4], "axis.total_watts": 28.2 }"#,
        )
        .expect("parse");
        assert_eq!(
            json.axis_values("gating_threshold"),
            Some(&[AxisValue::Int(1), AxisValue::Int(2), AxisValue::Int(4)][..])
        );
        assert_eq!(json.axis_values("total_watts"), Some(&[AxisValue::Float(28.2)][..]));
    }

    #[test]
    fn parses_json() {
        let spec = SweepSpec::parse(
            r#"{ "name": "quick", "workloads": ["go"], "experiments": ["C2", "OF"],
                 "predictor_kb": [8, 16], "baseline": false, "instructions": 9000 }"#,
        )
        .expect("parse");
        assert_eq!(spec.name, "quick");
        assert_eq!(spec.experiments, vec!["C2", "OF"]);
        assert_eq!(
            spec.axis_values("predictor_kb"),
            Some(&[AxisValue::Int(8), AxisValue::Int(16)][..])
        );
        assert!(!spec.baseline);
        assert_eq!(spec.instructions_label(), "9000");
    }

    #[test]
    fn legacy_and_axis_spellings_expand_identically() {
        let legacy = SweepSpec::parse(
            r#"
            name = "s"
            workloads = ["go"]
            experiments = ["C2"]
            depths = [6, 14]
            predictor_kb = [4, 8]
            estimator_kb = [4]
            instructions = 2_000
            "#,
        )
        .expect("legacy parse");
        let axes = SweepSpec::parse(
            r#"
            name = "s"
            workloads = ["go"]
            experiments = ["C2"]

            [axis]
            depth = [6, 14]
            predictor_kb = [4, 8]
            estimator_kb = [4]
            instructions = 2_000
            "#,
        )
        .expect("axis parse");
        assert_eq!(legacy.jobs().expect("legacy jobs"), axes.jobs().expect("axis jobs"));
    }

    #[test]
    fn rejects_unknown_keys_and_values() {
        assert!(SweepSpec::parse("bogus = 1").is_err());
        assert!(SweepSpec::parse("instructions = \"many\"").is_err());
        assert!(SweepSpec::parse(r#"{ "workloads": "go" "#).is_err());
    }

    #[test]
    fn string_escapes_decode_in_both_formats() {
        let toml = SweepSpec::parse(r#"name = "a \"quoted\" \\ name # not a comment""#)
            .expect("escaped TOML string parses");
        assert_eq!(toml.name, "a \"quoted\" \\ name # not a comment");
        let json = SweepSpec::parse(r#"{ "name": "tab\there, colon: done" }"#)
            .expect("escaped JSON string parses");
        assert_eq!(json.name, "tab\there, colon: done");
        assert!(SweepSpec::parse(r#"name = "dangling\""#).is_err(), "unterminated");
        assert!(SweepSpec::parse(r#"name = "bad \q escape""#).is_err(), "unknown escape");
        // Standard JSON encodes non-BMP characters as surrogate pairs.
        let emoji = SweepSpec::parse(r#"{ "name": "sweep \ud83d\ude00" }"#).expect("pair");
        assert_eq!(emoji.name, "sweep \u{1f600}");
        assert!(SweepSpec::parse(r#"{ "name": "lone \ud83d!" }"#).is_err(), "unpaired high");
        assert!(SweepSpec::parse(r#"{ "name": "bad \ud83dA" }"#).is_err(), "bad low");
    }

    /// What the reader accepts, as `(input, Ok(to_json) | Err(message part))`.
    const VERDICTS: &[(&str, Result<&str, &str>)] = &[
        // One trailing comma closes an array or an object.
        (
            "workloads = [\"go\", \"gcc\",]\naxis.depth = [6, 14,]",
            Ok(
                r#"{"name":"sweep","workloads":["go","gcc"],"experiments":[],"baseline":true,"axis.depth":[6,14]}"#,
            ),
        ),
        (
            r#"{"name": "x", "axis.depth": [6, 14,],}"#,
            Ok(
                r#"{"name":"x","workloads":[],"experiments":[],"baseline":true,"axis.depth":[6,14]}"#,
            ),
        ),
        // `_` groups digits in either format.
        (
            "instructions = 50_000",
            Ok(
                r#"{"name":"sweep","workloads":[],"experiments":[],"baseline":true,"axis.instructions":[50000]}"#,
            ),
        ),
        (
            r#"{"instructions": 50_000}"#,
            Ok(
                r#"{"name":"sweep","workloads":[],"experiments":[],"baseline":true,"axis.instructions":[50000]}"#,
            ),
        ),
        // Booleans are booleans, not the numbers 1 and 0.
        (
            "baseline = true",
            Ok(r#"{"name":"sweep","workloads":[],"experiments":[],"baseline":true}"#),
        ),
        (
            "baseline = false",
            Ok(r#"{"name":"sweep","workloads":[],"experiments":[],"baseline":false}"#),
        ),
        (
            r#"{"baseline": true}"#,
            Ok(r#"{"name":"sweep","workloads":[],"experiments":[],"baseline":true}"#),
        ),
        ("baseline = 1", Err("`baseline` expects a bool")),
        (r#"{"baseline": 0}"#, Err("`baseline` expects a bool")),
        (
            "axis.gating_threshold = true",
            Err("`axis.gating_threshold` expects an array of numbers"),
        ),
        (r#"{"axis.gating_threshold": [true]}"#, Err("expects numbers or ranges")),
        ("instructions = null", Err("expects a non-negative integer")),
        ("axis.depth = [[6]]", Err("expects numbers or ranges")),
        // A string ends at its first unescaped quote.
        (r#"name = "a"b""#, Err("`name`: trailing input")),
        (r#"{"name": "a" "b"}"#, Err("JSON spec")),
        (r#"workloads = ["go" "gcc"]"#, Err("`workloads`")),
        // An empty JSON member is refused.
        (r#"{"name": "x",, "baseline": false}"#, Err("JSON spec")),
        ("{,}", Err("JSON spec")),
        ("workloads = [\"go\",,]", Err("`workloads`")),
        // JSON keys decode their escapes.
        (
            r#"{"axis.\u0072uu_size": [32]}"#,
            Ok(
                r#"{"name":"sweep","workloads":[],"experiments":[],"baseline":true,"axis.ruu_size":[32]}"#,
            ),
        ),
        // A `\u` escape takes exactly four hex digits, no sign.
        (r#"name = "\u+041""#, Err("`name`: bad \\u escape `+041`")),
        (r#"{"name": "\u+041"}"#, Err("bad \\u escape `+041`")),
        // A key given twice is an error, whichever format.
        ("name = \"a\"\nname = \"b\"", Err("`name` is given more than once")),
        (
            "workloads = [\"go\"]\n[axis]\ndepth = [6]\n\n[axis]\ndepth = [14]",
            Err("`axis.depth` is given more than once"),
        ),
        (
            r#"{"workloads": ["go"], "workloads": ["gcc"]}"#,
            Err("`workloads` is given more than once"),
        ),
    ];

    #[test]
    fn the_reader_keeps_its_verdicts() {
        for (input, expected) in VERDICTS {
            match (SweepSpec::parse(input), expected) {
                (Ok(spec), Ok(json)) => assert_eq!(spec.to_json(), *json, "{input}"),
                (Err(e), Err(part)) => assert!(e.0.contains(part), "{input}: {e}"),
                (got, _) => panic!("{input}: expected {expected:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn every_example_spec_parses_and_round_trips() {
        let mut dirs =
            vec![std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples"))];
        let mut specs = 0;
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("examples/ is readable") {
                let path = entry.expect("entry").path();
                if path.is_dir() {
                    dirs.push(path);
                    continue;
                }
                if !path.extension().is_some_and(|e| e == "toml" || e == "json") {
                    continue;
                }
                let text = std::fs::read_to_string(&path).expect("spec is readable");
                let spec =
                    SweepSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                let back = SweepSpec::parse(&spec.to_json()).expect("to_json parses");
                assert_eq!(back.to_json(), spec.to_json(), "{}", path.display());
                specs += 1;
            }
        }
        assert!(specs >= 4, "axes-demo, gen-demo, sweeps/depth and sweeps/size; found {specs}");
    }

    #[test]
    fn unknown_keys_get_suggestions() {
        let e = SweepSpec::parse("ruu_size = [64]").unwrap_err();
        assert!(e.0.contains("did you mean `axis.ruu_size`?"), "{e}");
        let e = SweepSpec::parse("depts = [6]").unwrap_err();
        assert!(e.0.contains("did you mean `depths`?"), "{e}");
        let e = SweepSpec::parse("axis.dpeth = [6]").unwrap_err();
        assert!(e.0.contains("did you mean `depth`?"), "{e}");
        assert!(e.0.contains("valid axes:"), "{e}");
        let e = SweepSpec::parse("workload = [\"go\"]").unwrap_err();
        assert!(e.0.contains("did you mean `workloads`?"), "{e}");
    }

    #[test]
    fn double_binding_is_rejected() {
        let e = SweepSpec::parse("depths = [6]\naxis.depth = [14]").unwrap_err();
        assert!(e.0.contains("bound more than once"), "{e}");
    }

    #[test]
    fn grid_expansion_counts() {
        let mut spec = SweepSpec::new("grid");
        spec.workloads = vec!["go".into(), "gcc".into()];
        spec.experiments = vec!["C2".into(), "A5".into()];
        spec.set_axis("depth", vec![AxisValue::Int(6), AxisValue::Int(14)]).unwrap();
        spec.set_axis("instructions", vec![AxisValue::Int(1_000)]).unwrap();
        // 2 depths x 2 workloads x (1 baseline + 2 experiments) = 12
        let jobs = spec.jobs().expect("jobs");
        assert_eq!(jobs.len(), 12);
        assert!(jobs.iter().any(|j| j.config.depth == 6));
        assert!(jobs.iter().any(|j| j.experiment.id == "A5"));
        assert!(jobs.iter().all(|j| j.instructions == 1_000));
    }

    #[test]
    fn points_carry_their_bindings_in_registry_order() {
        let mut spec = SweepSpec::new("tagged");
        spec.workloads = vec!["go".into()];
        spec.experiments = vec!["A7".into()];
        // Bind out of registry order on purpose.
        spec.set_axis("gating_threshold", vec![AxisValue::Int(1), AxisValue::Int(3)]).unwrap();
        spec.set_axis("ruu_size", vec![AxisValue::Int(32)]).unwrap();
        let points = spec.points().expect("points");
        // 1 ruu x 2 thresholds x (baseline + A7) = 4
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(p.bindings[0].0, "ruu_size", "registry order");
            assert_eq!(p.bindings[1].0, "gating_threshold");
            assert_eq!(p.job.config.ruu_size, 32);
        }
        let a7 = points.iter().find(|p| p.job.experiment.id == "A7").expect("A7 point");
        assert_eq!(a7.job.experiment.gating_threshold(), Some(1));
    }

    #[test]
    fn bindings_apply_in_registry_order_whatever_the_declaration_order() {
        // depth rebuilds the config, so applying it after ruu_size would
        // clobber ruu_size.
        let points = |first: (&str, u64), second: (&str, u64)| {
            let mut spec = SweepSpec::new("order");
            spec.workloads = vec!["go".into()];
            spec.experiments = vec!["C2".into()];
            spec.baseline = false;
            for (name, value) in [first, second] {
                spec.set_axis(name, vec![AxisValue::Int(value)]).unwrap();
            }
            spec.points().expect("points")
        };
        let a = points(("ruu_size", 32), ("depth", 21));
        let b = points(("depth", 21), ("ruu_size", 32));
        assert_eq!(a[0].job, b[0].job);
        assert_eq!(a[0].job.config.depth, 21);
        assert_eq!(a[0].job.config.ruu_size, 32);
        assert_eq!(a[0].job.fingerprint(), b[0].job.fingerprint());
    }

    #[test]
    fn workload_seed_ranges_expand_generative_grids() {
        let spec = SweepSpec::parse(
            r#"
            name = "gen"
            workloads = ["gen:server:0"]
            experiments = ["C2"]
            baseline = false

            [axis]
            workload_seed = "0..=3"
            instructions = 1_000
            "#,
        )
        .expect("parse");
        assert_eq!(
            spec.axis_values("workload_seed"),
            Some(&[AxisValue::Int(0), AxisValue::Int(1), AxisValue::Int(2), AxisValue::Int(3)][..])
        );
        let points = spec.points().expect("points");
        assert_eq!(points.len(), 4, "4 seeds x 1 workload x C2");
        let names: Vec<&str> = points.iter().map(|p| p.job.workload.name.as_str()).collect();
        assert_eq!(names, vec!["gen:server:0", "gen:server:1", "gen:server:2", "gen:server:3"]);
        // Same grid again — resolution is deterministic, so the jobs match.
        assert_eq!(spec.points().expect("again"), points);
    }

    #[test]
    fn generative_members_list_each_grid_member_once() {
        let spec = SweepSpec::parse(
            "workloads = [\"go\", \"gen:jit:7\", \"gen:jit:1\", \"gen:mix:0\"]\n\
             axis.workload_seed = \"0..3\"\n",
        )
        .expect("parse");
        let members = spec.generative_members().expect("known workloads");
        let keys: Vec<(&str, u64)> = members.iter().map(|(f, seed)| (f.name, *seed)).collect();
        assert_eq!(
            keys,
            [("jit", 7), ("jit", 0), ("jit", 1), ("jit", 2), ("mix", 0), ("mix", 1), ("mix", 2)]
        );
        // Without the axis, each `gen:` workload needs only its own seed.
        let own = SweepSpec::parse("workloads = [\"gen:server:4\", \"gcc\"]\n").expect("parse");
        let members = own.generative_members().expect("known workloads");
        assert_eq!(
            members.iter().map(|(f, seed)| (f.name, *seed)).collect::<Vec<_>>(),
            [("server", 4)]
        );
        // Unknown names fail with resolution's own diagnostic, before any
        // member is derived.
        let typo = SweepSpec { workloads: vec!["gen:jitt:1".into(), "gen:jit:7".into()], ..own };
        assert_eq!(typo.generative_members().unwrap_err(), typo.resolve_workloads().unwrap_err());
    }

    #[test]
    fn workload_seed_without_a_generative_workload_is_rejected() {
        let fixed =
            SweepSpec::parse("workloads = [\"go\"]\naxis.workload_seed = [0, 1]\n").expect("parse");
        let e = fixed.points().unwrap_err();
        assert!(e.0.contains("generative workload"), "{e}");
        // The default workload set (the paper's eight) is fixed too.
        let defaulted = SweepSpec::parse("axis.workload_seed = [0, 1]\n").expect("parse");
        assert!(defaulted.points().is_err());
        // Mixed specs are fine: the axis reseeds the generative member
        // and leaves the fixed profile alone.
        let mixed = SweepSpec::parse(
            "workloads = [\"go\", \"gen:jit:0\"]\naxis.workload_seed = [5]\n\
             experiments = [\"C2\"]\nbaseline = false\naxis.instructions = 1000\n",
        )
        .expect("parse");
        let points = mixed.points().expect("points");
        let names: Vec<&str> = points.iter().map(|p| p.job.workload.name.as_str()).collect();
        assert_eq!(names, vec!["go", "gen:jit:5"]);
    }

    #[test]
    fn oversized_grids_are_rejected_before_expansion() {
        // 4094 x 2046 x 15 window/queue/width values x (baseline + C2):
        // expanding it would need ~3 GB for the axis combinations alone.
        let spec = SweepSpec::parse(
            "name = \"huge\"\n\
             workloads = [\"go\"]\n\
             experiments = [\"C2\"]\n\
             \n\
             [axis]\n\
             ruu_size = \"2..4096\"\n\
             lsq_size = \"2..2048\"\n\
             fetch_width = \"1..16\"\n",
        )
        .expect("parse");
        assert_eq!(spec.grid_size(), Some(251_289_720));
        let e = spec.points().unwrap_err();
        assert!(e.0.contains("251289720 points"), "{e}");
        assert!(e.0.contains(&format!("limit {MAX_GRID_POINTS}")), "{e}");

        // A product past usize::MAX is caught by the checked multiply.
        let mut overflowing = SweepSpec::new("overflow");
        for (name, range) in [
            ("depth", "6..=64"),
            ("fetch_width", "1..=16"),
            ("ruu_size", "2..4096"),
            ("lsq_size", "2..2048"),
            ("ifq_size", "16..4096"),
            ("gating_threshold", "1..=64"),
            ("instructions", "1..65537"),
        ] {
            let values = axes::axis(name).expect("registered").values_from_token(range);
            overflowing.set_axis(name, values.expect("in domain")).expect("bind");
        }
        assert_eq!(overflowing.grid_size(), None);
        let e = overflowing.points().unwrap_err();
        assert!(e.0.contains("more than"), "{e}");
    }

    #[test]
    fn unknown_workloads_suggest_families() {
        let typo = SweepSpec { workloads: vec!["gen:serverr".into()], ..SweepSpec::new("w") };
        let e = typo.jobs().unwrap_err();
        assert!(e.0.contains("did you mean `gen:server`?"), "{e}");
        let plain = SweepSpec { workloads: vec!["gen:nosuch:1".into()], ..SweepSpec::new("w") };
        let e = plain.jobs().unwrap_err();
        assert!(e.0.contains("gen:<family>:<seed>"), "{e}");
        assert!(e.0.contains("spec2006"), "{e}");
    }

    #[test]
    fn unknown_names_are_errors() {
        let bad_workload = SweepSpec { workloads: vec!["nope".into()], ..SweepSpec::new("w") };
        assert!(bad_workload.jobs().is_err());
        let bad_experiment = SweepSpec { experiments: vec!["Z9".into()], ..SweepSpec::new("e") };
        assert!(bad_experiment.jobs().is_err());
    }

    #[test]
    fn default_keeps_documented_defaults() {
        // Struct-update construction over Default must keep baselines on
        // and the conventional name, as the pre-axis SweepSpec did.
        let spec = SweepSpec { workloads: vec!["go".into()], ..SweepSpec::default() };
        assert!(spec.baseline);
        assert_eq!(spec.name, "sweep");
        assert_eq!(spec.jobs().expect("grid").len(), 2, "BASE + C2");
    }

    #[test]
    fn to_json_round_trips_specs() {
        // A spec exercising every field shape: explicit lists, a float
        // axis, an escaped name, baselines off, axes bound out of
        // registry order.
        let mut spec = SweepSpec::new("round \"trip\"");
        spec.workloads = vec!["go".into(), "gcc".into()];
        spec.experiments = vec!["C2".into(), "OF".into()];
        spec.baseline = false;
        spec.set_axis("idle_frac", vec![AxisValue::Float(0.05), AxisValue::Float(0.1)]).unwrap();
        spec.set_axis("depth", vec![AxisValue::Int(6), AxisValue::Int(14)]).unwrap();
        let back = SweepSpec::parse(&spec.to_json()).expect("canonical JSON parses");
        assert_eq!(back.name, spec.name);
        assert_eq!(back.workloads, spec.workloads);
        assert_eq!(back.experiments, spec.experiments);
        assert_eq!(back.baseline, spec.baseline);
        assert_eq!(back.points().expect("back"), spec.points().expect("spec"));
        // Serialising the round-tripped spec is a fixed point: axes are
        // already in canonical order.
        assert_eq!(back.to_json(), spec.to_json());

        // The empty spec round-trips too (defaults everywhere).
        let empty = SweepSpec::new("empty");
        let back = SweepSpec::parse(&empty.to_json()).expect("empty spec parses");
        assert_eq!(back.points().expect("back"), empty.points().expect("empty"));
    }

    #[test]
    fn experiment_registry_is_complete() {
        for id in ["BASE", "A1", "A7", "B9", "C2", "C7", "OF", "OD", "OS"] {
            assert!(experiment_by_id(id).is_some(), "{id} missing");
        }
        assert!(experiment_by_id("c2").is_some(), "lookup is case-insensitive");
        assert_eq!(all_experiments().len(), 1 + 7 + 9 + 7 + 3);
    }
}
