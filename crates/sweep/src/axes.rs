//! The typed sweep-axis registry: every machine knob a sweep can vary.
//!
//! An [`Axis`] describes one sweepable parameter — its name, typed
//! domain, default and how it applies to a [`JobSpec`] — and
//! [`registry`] enumerates all of them. A simulation point is then
//! "baseline + list of [`AxisBinding`]s" instead of a hand-threaded
//! struct field per knob: adding a knob here makes it sweepable from
//! TOML/JSON specs, `st run --set` overrides and the emitters without
//! touching spec parsing, job expansion or figure code.
//!
//! Bindings are applied in **registry order** regardless of how a spec
//! declares them, so any set of bindings has exactly one canonical
//! [`JobSpec`] — and therefore one [`JobSpec::fingerprint`] — no matter
//! the declaration order. `depth` is deliberately first: it rebuilds the
//! pipeline configuration wholesale (front-end latency, queue sizing,
//! cache latencies), and every later axis edits single fields on top.

use st_pipeline::PipelineConfig;

use crate::job::JobSpec;
use crate::spec::SpecError;

/// A typed axis value: every knob is either an integer or a real.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// An integer-valued knob (sizes, widths, counts, budgets).
    Int(u64),
    /// A real-valued knob (power-model fractions and budgets).
    Float(f64),
}

impl AxisValue {
    /// Canonical text form: what fingerprints, emitters and error
    /// messages print. `Int` renders as a plain integer; `Float` uses
    /// Rust's shortest round-trip formatting.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            AxisValue::Int(n) => n.to_string(),
            AxisValue::Float(v) => format!("{v}"),
        }
    }

    /// The value as an `f64` (exact for the integer magnitudes in use).
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        match *self {
            AxisValue::Int(n) => n as f64,
            AxisValue::Float(v) => v,
        }
    }

    fn as_int(&self, axis: &Axis) -> Result<u64, SpecError> {
        match *self {
            AxisValue::Int(n) => Ok(n),
            AxisValue::Float(v) => Err(SpecError(format!(
                "axis `{}` expects an integer, got {v} (domain {})",
                axis.name,
                axis.domain.describe()
            ))),
        }
    }
}

impl std::fmt::Display for AxisValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// The typed domain of an axis: what values are legal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisDomain {
    /// Integers in `min..=max`.
    Int {
        /// Smallest legal value.
        min: u64,
        /// Largest legal value.
        max: u64,
    },
    /// Powers of two in `min..=max` (table sizes: gshare, JRS and the
    /// BPRU-style table index with a mask, so they need power-of-two
    /// entry counts).
    PowersOfTwo {
        /// Smallest legal value.
        min: u64,
        /// Largest legal value.
        max: u64,
    },
    /// Reals in `min..=max`.
    Float {
        /// Smallest legal value.
        min: f64,
        /// Largest legal value.
        max: f64,
    },
}

impl AxisDomain {
    /// Human-readable domain, e.g. `6..=64`, `0..=1` or
    /// `powers of two in 1..=1024`.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            AxisDomain::Int { min, max } => format!("{min}..={max}"),
            AxisDomain::PowersOfTwo { min, max } => format!("powers of two in {min}..={max}"),
            AxisDomain::Float { min, max } => format!("{min}..={max}"),
        }
    }

    /// Whether the domain holds integers (every domain but `Float`).
    fn is_int(&self) -> bool {
        !matches!(self, AxisDomain::Float { .. })
    }

    /// Whether `value` is type- and range-compatible with this domain.
    fn check(&self, axis: &Axis, value: &AxisValue) -> Result<(), SpecError> {
        let out_of_range = |shown: &dyn std::fmt::Display| {
            SpecError(format!(
                "axis `{}` value {shown} outside its domain {}",
                axis.name,
                self.describe()
            ))
        };
        match (self, value) {
            (AxisDomain::Int { min, max }, v) => {
                let n = v.as_int(axis)?;
                if n < *min || n > *max {
                    return Err(out_of_range(&n));
                }
            }
            (AxisDomain::PowersOfTwo { min, max }, v) => {
                let n = v.as_int(axis)?;
                if n < *min || n > *max || !n.is_power_of_two() {
                    return Err(out_of_range(&n));
                }
            }
            (AxisDomain::Float { min, max }, v) => {
                let x = v.as_f64();
                if !x.is_finite() || x < *min || x > *max {
                    return Err(out_of_range(&x));
                }
            }
        }
        Ok(())
    }
}

/// One sweepable machine knob: name, typed domain, default, provenance
/// and the function that applies a value to a [`JobSpec`].
pub struct Axis {
    /// Registry name (`axis.<name>` in specs, `--set <name>=..` on the CLI).
    pub name: &'static str,
    /// Legal values.
    pub domain: AxisDomain,
    /// Value an unbound axis effectively takes (the paper's machine).
    pub default: AxisValue,
    /// One-line description of what the knob controls.
    pub summary: &'static str,
    /// Where the paper studies this knob.
    pub paper: &'static str,
    apply: fn(&mut JobSpec, &AxisValue),
}

impl std::fmt::Debug for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("domain", &self.domain)
            .field("default", &self.default)
            .finish_non_exhaustive()
    }
}

impl Axis {
    /// Validates `value` against the axis domain.
    pub fn validate(&self, value: &AxisValue) -> Result<(), SpecError> {
        self.domain.check(self, value)
    }

    /// Validates and applies `value` to `job`.
    pub fn apply(&self, job: &mut JobSpec, value: &AxisValue) -> Result<(), SpecError> {
        self.validate(value)?;
        (self.apply)(job, value);
        Ok(())
    }

    /// Converts a raw number (spec file or `--set` override) to this
    /// axis's typed value — integer axes require whole non-negative
    /// numbers — and validates the domain.
    pub fn value_from_f64(&self, n: f64) -> Result<AxisValue, SpecError> {
        let value = if self.domain.is_int() {
            if !n.is_finite() || n < 0.0 || n.fract() != 0.0 {
                return Err(SpecError(format!(
                    "axis `{}` expects a non-negative integer, got {n}",
                    self.name
                )));
            }
            AxisValue::Int(n as u64)
        } else {
            AxisValue::Float(n)
        };
        self.validate(&value)?;
        Ok(value)
    }

    /// Parses one spec/CLI value token into axis values: a plain number,
    /// or — for integer axes — a range `lo..hi` (half-open) or `lo..=hi`
    /// (inclusive) expanding to consecutive integers. Ranges are how one
    /// spec line binds thousands of values (`workload_seed = "0..1000"`);
    /// underscore digit grouping is accepted everywhere.
    pub fn values_from_token(&self, token: &str) -> Result<Vec<AxisValue>, SpecError> {
        let token = token.trim();
        if let Some((lo_text, inclusive, hi_text)) = split_range_token(token) {
            if !self.domain.is_int() {
                return Err(SpecError(format!(
                    "axis `{}` is real-valued; ranges like `{token}` only expand on integer axes",
                    self.name
                )));
            }
            let parse = |part: &str| -> Result<u64, SpecError> {
                part.trim().replace('_', "").parse::<u64>().map_err(|_| {
                    SpecError(format!(
                        "axis `{}`: cannot parse `{part}` in range `{token}` as an integer",
                        self.name
                    ))
                })
            };
            let lo = parse(lo_text)?;
            let hi_raw = parse(hi_text)?;
            let hi =
                if inclusive { hi_raw.checked_add(1) } else { Some(hi_raw) }.ok_or_else(|| {
                    SpecError(format!("axis `{}`: range `{token}` overflows", self.name))
                })?;
            if lo >= hi {
                return Err(SpecError(format!(
                    "axis `{}`: empty range `{token}` (lo must be below hi)",
                    self.name
                )));
            }
            if (hi - lo) as usize > MAX_RANGE_VALUES {
                return Err(SpecError(format!(
                    "axis `{}`: range `{token}` expands to {} values (limit {MAX_RANGE_VALUES})",
                    self.name,
                    hi - lo
                )));
            }
            return (lo..hi)
                .map(|n| {
                    let v = AxisValue::Int(n);
                    self.validate(&v).map(|()| v)
                })
                .collect();
        }
        let n: f64 = token.replace('_', "").parse().map_err(|_| {
            SpecError(format!("axis `{}`: cannot parse value `{token}`", self.name))
        })?;
        Ok(vec![self.value_from_f64(n)?])
    }

    /// Position in the registry: the canonical application order.
    #[must_use]
    pub fn index(&self) -> usize {
        REGISTRY.iter().position(|a| a.name == self.name).expect("axis comes from the registry")
    }
}

/// Upper bound on how many values one range token may expand to — a
/// guard against accidental `0..4_000_000_000` grids, far above any
/// intentional sweep (the CI generative gate uses 1000).
pub const MAX_RANGE_VALUES: usize = 65_536;

/// Upper bound on how many points one spec may expand to. Ranges within
/// [`MAX_RANGE_VALUES`] on several axes still multiply; an expanded
/// point takes about 1.2 KB, so this caps a grid near 300 MiB, far above
/// any intentional sweep (`examples/gen-demo.toml` is 2,000 points).
pub const MAX_GRID_POINTS: usize = 1 << 18;

/// Splits `lo..hi` / `lo..=hi` into `(lo, inclusive, hi)`; `None` when
/// the token is not a range.
fn split_range_token(token: &str) -> Option<(&str, bool, &str)> {
    let (lo, rest) = token.split_once("..")?;
    match rest.strip_prefix('=') {
        Some(hi) => Some((lo, true, hi)),
        None => Some((lo, false, rest)),
    }
}

fn int(v: &AxisValue) -> u64 {
    match *v {
        AxisValue::Int(n) => n,
        AxisValue::Float(_) => unreachable!("validated as integer"),
    }
}

/// Every sweepable knob, in canonical application order.
///
/// `depth` must stay first: it rebuilds the whole pipeline configuration
/// (see [`PipelineConfig::with_depth`]) and later axes override single
/// fields on top of that rebuild.
static REGISTRY: [Axis; 12] = [
    Axis {
        name: "depth",
        domain: AxisDomain::Int { min: 6, max: 64 },
        default: AxisValue::Int(14),
        summary: "pipeline depth in stages (rebuilds front-end latency and cache timing)",
        paper: "Fig. 6, \u{a7}5.3.1",
        apply: |job, v| {
            job.config = PipelineConfig::with_depth(int(v) as u32)
                .with_predictor_bytes(job.config.predictor_bytes)
                .with_estimator_bytes(job.config.estimator_bytes);
        },
    },
    Axis {
        name: "fetch_width",
        domain: AxisDomain::Int { min: 1, max: 16 },
        default: AxisValue::Int(8),
        summary: "instructions fetched per cycle",
        paper: "Table 3",
        apply: |job, v| {
            job.config = std::mem::take(&mut job.config).with_fetch_width(int(v) as u32);
        },
    },
    Axis {
        name: "ruu_size",
        domain: AxisDomain::Int { min: 2, max: 4096 },
        default: AxisValue::Int(128),
        summary: "instruction window / reorder buffer entries",
        paper: "Table 3",
        apply: |job, v| {
            job.config = std::mem::take(&mut job.config).with_ruu_size(int(v) as usize);
        },
    },
    Axis {
        name: "lsq_size",
        domain: AxisDomain::Int { min: 2, max: 2048 },
        default: AxisValue::Int(64),
        summary: "load/store queue entries",
        paper: "Table 3",
        apply: |job, v| {
            job.config = std::mem::take(&mut job.config).with_lsq_size(int(v) as usize);
        },
    },
    Axis {
        name: "ifq_size",
        domain: AxisDomain::Int { min: 16, max: 4096 },
        default: AxisValue::Int(80),
        summary: "fetch-queue capacity between fetch and rename",
        paper: "Table 3",
        apply: |job, v| {
            job.config = std::mem::take(&mut job.config).with_ifq_size(int(v) as usize);
        },
    },
    Axis {
        name: "predictor_kb",
        domain: AxisDomain::PowersOfTwo { min: 1, max: 1024 },
        default: AxisValue::Int(8),
        summary: "branch-predictor hardware budget in KB",
        paper: "Fig. 7",
        apply: |job, v| {
            job.config =
                std::mem::take(&mut job.config).with_predictor_bytes(int(v) as usize * 1024);
        },
    },
    Axis {
        name: "estimator_kb",
        domain: AxisDomain::PowersOfTwo { min: 1, max: 1024 },
        default: AxisValue::Int(8),
        summary: "confidence-estimator hardware budget in KB",
        paper: "Fig. 7, \u{a7}4.3",
        apply: |job, v| {
            job.config =
                std::mem::take(&mut job.config).with_estimator_bytes(int(v) as usize * 1024);
        },
    },
    Axis {
        name: "gating_threshold",
        domain: AxisDomain::Int { min: 1, max: 64 },
        default: AxisValue::Int(2),
        summary: "unresolved low-confidence branches before Pipeline Gating stalls fetch",
        paper: "\u{a7}2, gating ablation",
        apply: |job, v| {
            job.experiment = job.experiment.clone().with_gating_threshold(int(v) as u32);
        },
    },
    Axis {
        name: "instructions",
        domain: AxisDomain::Int { min: 1, max: 10_000_000_000 },
        default: AxisValue::Int(200_000),
        summary: "dynamic instruction budget per simulation point",
        paper: "\u{a7}5 methodology",
        apply: |job, v| job.instructions = int(v),
    },
    Axis {
        name: "idle_frac",
        domain: AxisDomain::Float { min: 0.0, max: 1.0 },
        default: AxisValue::Float(0.1),
        summary: "cc3 clock-gating idle floor (fraction of peak power)",
        paper: "\u{a7}5.1, Wattch cc3",
        apply: |job, v| {
            job.power = job.power.clone().with_idle_frac(v.as_f64());
        },
    },
    Axis {
        name: "total_watts",
        domain: AxisDomain::Float { min: 0.1, max: 1000.0 },
        default: AxisValue::Float(56.4),
        summary: "peak chip power budget in watts",
        paper: "Table 1",
        apply: |job, v| {
            job.power = job.power.clone().with_total_watts(v.as_f64());
        },
    },
    Axis {
        name: "workload_seed",
        domain: AxisDomain::Int { min: 0, max: 4_294_967_295 },
        default: AxisValue::Int(0),
        summary: "re-derives generative workloads (gen:<family>:<seed>) at this seed; fixed profiles ignore it",
        paper: "beyond the paper",
        apply: |job, v| {
            // Only generative workloads respond; `reseed` is `None` for
            // the paper's fixed profiles, which keeps the axis a no-op
            // there (the same pattern `gating_threshold` uses on
            // non-gating machines).
            if let Some(spec) = st_workloads::generate::reseed(&job.workload.name, int(v)) {
                job.workload = spec;
            }
        },
    },
];

/// The full axis registry, in canonical application order.
#[must_use]
pub fn registry() -> &'static [Axis] {
    &REGISTRY
}

/// Looks up an axis by name.
#[must_use]
pub fn axis(name: &str) -> Option<&'static Axis> {
    REGISTRY.iter().find(|a| a.name == name)
}

/// One axis bound to the values a sweep visits.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisBinding {
    /// Canonical axis name (always a registry entry).
    pub name: &'static str,
    /// Values the grid visits, in declaration order.
    pub values: Vec<AxisValue>,
}

impl AxisBinding {
    /// Binds `name` to `values`, validating the axis exists and every
    /// value is inside its domain. Unknown names get a nearest-name
    /// suggestion.
    pub fn new(name: &str, values: Vec<AxisValue>) -> Result<AxisBinding, SpecError> {
        let axis = axis(name).ok_or_else(|| unknown_axis_error(name))?;
        if values.is_empty() {
            return Err(SpecError(format!("axis `{name}` bound to an empty value list")));
        }
        for v in &values {
            axis.validate(v)?;
        }
        Ok(AxisBinding { name: axis.name, values })
    }

    /// Convenience integer binding.
    pub fn ints(
        name: &str,
        values: impl IntoIterator<Item = u64>,
    ) -> Result<AxisBinding, SpecError> {
        AxisBinding::new(name, values.into_iter().map(AxisValue::Int).collect())
    }

    /// The registry axis this binding refers to.
    #[must_use]
    pub fn axis(&self) -> &'static Axis {
        axis(self.name).expect("binding names are validated against the registry")
    }
}

/// Applies one `(axis, value)` pair to a job (validating the value).
pub fn apply(job: &mut JobSpec, name: &str, value: &AxisValue) -> Result<(), SpecError> {
    axis(name).ok_or_else(|| unknown_axis_error(name))?.apply(job, value)
}

/// The "unknown axis" diagnostic: nearest-name suggestion plus the full
/// list of valid axes.
#[must_use]
pub fn unknown_axis_error(name: &str) -> SpecError {
    let mut msg = format!("unknown axis `{name}`");
    if let Some(best) = nearest(name, REGISTRY.iter().map(|a| a.name)) {
        msg.push_str(&format!(" (did you mean `{best}`?)"));
    }
    msg.push_str("; valid axes: ");
    msg.push_str(&REGISTRY.iter().map(|a| a.name).collect::<Vec<_>>().join(", "));
    SpecError(msg)
}

/// The candidate closest to `name` by edit distance, if any is close
/// enough to plausibly be a typo (distance at most 1 + len/3).
pub fn nearest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    let budget = 1 + name.len() / 3;
    candidates
        .map(|c| (levenshtein(name, c), c))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

/// Classic dynamic-programming edit distance (insert/delete/substitute).
fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The README "Sweep axes" table, generated from the registry so docs
/// cannot drift from the code (a test compares this against README.md).
#[must_use]
pub fn markdown_table() -> String {
    let mut out =
        String::from("| axis | domain | default | controls | paper |\n|---|---|---|---|---|\n");
    for a in &REGISTRY {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            a.name,
            a.domain.describe(),
            a.default,
            a.summary,
            a.paper
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_isa::WorkloadSpec;

    fn job() -> JobSpec {
        JobSpec::new(WorkloadSpec::builder("axes-test").seed(1).blocks(64).build(), 1_000)
    }

    #[test]
    fn registry_names_are_unique_and_defaults_valid() {
        let mut names: Vec<_> = registry().iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len());
        for a in registry() {
            a.validate(&a.default).expect("default inside domain");
            assert_eq!(a.index(), registry().iter().position(|b| b.name == a.name).unwrap());
        }
        assert_eq!(registry()[0].name, "depth", "depth must apply first (config rebuild)");
    }

    #[test]
    fn every_axis_default_reproduces_the_paper_machine() {
        // Applying each axis at its default leaves the default job alone:
        // the registry defaults *are* the paper's Table 1/3 machine.
        let paper = |instr| {
            JobSpec::new(WorkloadSpec::builder("axes-test").seed(1).blocks(64).build(), instr)
        };
        let base = paper(200_000);
        for a in registry() {
            if a.name == "gating_threshold" {
                continue; // no-op on the BASE experiment either way
            }
            let mut j = paper(200_000);
            a.apply(&mut j, &a.default).expect("default applies");
            assert_eq!(j.fingerprint(), base.fingerprint(), "axis `{}` default drifted", a.name);
        }
    }

    #[test]
    fn apply_reaches_every_layer() {
        let mut j = job();
        apply(&mut j, "depth", &AxisValue::Int(28)).unwrap();
        apply(&mut j, "fetch_width", &AxisValue::Int(4)).unwrap();
        apply(&mut j, "ruu_size", &AxisValue::Int(64)).unwrap();
        apply(&mut j, "lsq_size", &AxisValue::Int(32)).unwrap();
        apply(&mut j, "ifq_size", &AxisValue::Int(96)).unwrap();
        apply(&mut j, "predictor_kb", &AxisValue::Int(16)).unwrap();
        apply(&mut j, "estimator_kb", &AxisValue::Int(4)).unwrap();
        apply(&mut j, "instructions", &AxisValue::Int(9_000)).unwrap();
        apply(&mut j, "idle_frac", &AxisValue::Float(0.25)).unwrap();
        apply(&mut j, "total_watts", &AxisValue::Float(28.2)).unwrap();
        assert_eq!(j.config.depth, 28);
        assert_eq!(j.config.fetch_width, 4);
        assert_eq!(j.config.ruu_size, 64);
        assert_eq!(j.config.lsq_size, 32);
        assert_eq!(j.config.ifq_size, 96);
        assert_eq!(j.config.predictor_bytes, 16 * 1024);
        assert_eq!(j.config.estimator_bytes, 4 * 1024);
        assert_eq!(j.instructions, 9_000);
        assert_eq!(j.power.gating, st_power::ClockGating::Cc3 { idle_frac: 0.25 });
        assert_eq!(j.power.total_watts, 28.2);
        j.config.validate();
    }

    #[test]
    fn gating_threshold_applies_through_the_experiment() {
        let mut j = job().with_experiment(st_core::experiments::a7());
        apply(&mut j, "gating_threshold", &AxisValue::Int(5)).unwrap();
        assert_eq!(j.experiment.gating_threshold(), Some(5));
        // A no-op on non-gating machines.
        let mut b = job();
        apply(&mut b, "gating_threshold", &AxisValue::Int(5)).unwrap();
        assert_eq!(b.experiment.gating_threshold(), None);
    }

    #[test]
    fn domains_reject_type_and_range_errors() {
        let mut j = job();
        assert!(apply(&mut j, "depth", &AxisValue::Int(5)).is_err(), "below minimum");
        assert!(apply(&mut j, "depth", &AxisValue::Float(14.5)).is_err(), "not an integer");
        assert!(apply(&mut j, "idle_frac", &AxisValue::Float(1.5)).is_err(), "above maximum");
        assert!(apply(&mut j, "idle_frac", &AxisValue::Float(f64::NAN)).is_err(), "non-finite");
        let err = apply(&mut j, "ruu_sizes", &AxisValue::Int(64)).unwrap_err();
        assert!(err.0.contains("did you mean `ruu_size`?"), "{err}");
        assert!(err.0.contains("valid axes:"), "{err}");
    }

    #[test]
    fn binding_construction_validates() {
        assert!(AxisBinding::ints("depth", [6, 14, 28]).is_ok());
        assert!(AxisBinding::ints("depth", []).is_err(), "empty values");
        assert!(AxisBinding::ints("depth", [4]).is_err(), "out of domain");
        assert!(AxisBinding::ints("detph", [14]).is_err(), "typo");
        let b = AxisBinding::new("idle_frac", vec![AxisValue::Float(0.2)]).unwrap();
        assert_eq!(b.axis().name, "idle_frac");
    }

    #[test]
    fn nearest_suggests_plausible_typos_only() {
        assert_eq!(nearest("dpeth", registry().iter().map(|a| a.name)), Some("depth"));
        assert_eq!(nearest("predictorkb", registry().iter().map(|a| a.name)), Some("predictor_kb"));
        assert_eq!(nearest("zzzzzz", registry().iter().map(|a| a.name)), None);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
    }

    #[test]
    fn workload_seed_reseeds_generative_workloads_only() {
        // On a fixed profile the axis is a no-op (default and non-default
        // values alike) — the same silent-pass pattern gating_threshold
        // uses on non-gating machines.
        let mut fixed = JobSpec::new(st_workloads::by_name("go").expect("profile"), 1_000);
        let before = fixed.fingerprint();
        apply(&mut fixed, "workload_seed", &AxisValue::Int(7)).unwrap();
        assert_eq!(fixed.fingerprint(), before, "fixed profiles ignore the seed");
        assert_eq!(fixed.workload.name, "go");

        // On a generative member it swaps in the member for the new seed.
        let mut job =
            JobSpec::new(st_workloads::by_name("gen:spec2006:0").expect("generative"), 1_000);
        apply(&mut job, "workload_seed", &AxisValue::Int(3)).unwrap();
        assert_eq!(job.workload.name, "gen:spec2006:3");
        let direct = st_workloads::by_name("gen:spec2006:3").expect("resolves");
        assert_eq!(job.workload, direct, "axis and by_name agree");
    }

    #[test]
    fn range_tokens_expand_on_integer_axes() {
        let depth = axis("depth").unwrap();
        assert_eq!(
            depth.values_from_token("6..9").unwrap(),
            vec![AxisValue::Int(6), AxisValue::Int(7), AxisValue::Int(8)]
        );
        assert_eq!(
            depth.values_from_token("6..=8").unwrap(),
            vec![AxisValue::Int(6), AxisValue::Int(7), AxisValue::Int(8)]
        );
        let seed = axis("workload_seed").unwrap();
        assert_eq!(seed.values_from_token("0..1_000").unwrap().len(), 1_000);
        assert_eq!(seed.values_from_token("42").unwrap(), vec![AxisValue::Int(42)]);

        // Errors: empty and overgrown ranges, domain violations inside
        // the expansion, ranges on real-valued axes.
        assert!(depth.values_from_token("9..9").is_err(), "empty");
        assert!(depth.values_from_token("9..6").is_err(), "backwards");
        assert!(seed.values_from_token("0..100_000_000").is_err(), "over the expansion cap");
        assert!(depth.values_from_token("1..8").is_err(), "1 is below depth's domain");
        assert!(axis("idle_frac").unwrap().values_from_token("0..1").is_err(), "float axis");
        assert!(seed.values_from_token("a..b").is_err(), "non-numeric endpoints");
    }

    #[test]
    fn markdown_table_covers_every_axis() {
        let table = markdown_table();
        for a in registry() {
            assert!(table.contains(&format!("| `{}` |", a.name)), "{} missing", a.name);
        }
    }

    #[test]
    fn readme_axes_table_matches_registry() {
        let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme_path).expect("README.md readable");
        let begin = readme.find("<!-- axes:begin -->").expect("axes:begin marker in README");
        let end = readme.find("<!-- axes:end -->").expect("axes:end marker in README");
        let published = readme[begin + "<!-- axes:begin -->".len()..end].trim();
        assert_eq!(
            published,
            markdown_table().trim(),
            "README 'Sweep axes' table drifted from axes::registry(); \
             paste the output of axes::markdown_table() between the markers"
        );
    }
}
