//! The generative workload suite: seeded, calibrated profile families.
//!
//! The paper's eight profiles ([`crate::profiles`]) are hand-written
//! constants. This module grows the suite *generatively*: a **family**
//! describes a class of workloads (SPECint2006-like codes, server-style
//! pointer chasing, JIT-like phase-changing behaviour, interference
//! mixes), and a **seed** draws one concrete member. Workload names of
//! the form `gen:<family>:<seed>` resolve through [`crate::by_name`]
//! exactly like `"go"` does, so sweeps, caches, shards and the fleet
//! treat generated members as ordinary workloads.
//!
//! The derivation pipeline is `family → seed → calibrate → fingerprint`:
//!
//! 1. the seed jitters the family's base knobs inside hand-chosen bands
//!    (a seeded [`rand::rngs::StdRng`]; no global state),
//! 2. [`calibrate_hardness`] bisects the one monotone hardness knob
//!    (`hard_bias_spread`) until the member's measured 8 KB-gshare miss
//!    rate lands on the family's `target_miss` (each family declares the
//!    tolerance it calibrates within),
//! 3. the finished [`WorkloadSpec`] feeds `JobSpec::fingerprint` like
//!    any other workload, so result caching and shard/fleet partitioning
//!    need no special cases.
//!
//! Every step is a pure function of `(family, seed)`: two processes that
//! resolve the same name always build byte-identical programs. A
//! process-wide memo table makes repeated resolution (grid expansion
//! visits each name many times) cost one calibration per member, and
//! [`resolve_members`] calibrates a whole list on every core.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_isa::{BranchMix, PhaseSpec, WorkloadSpec};

use crate::calibrate::{calibrate_hardness, Calibration};
use crate::profiles;

/// Prefix of generative workload names (`gen:<family>:<seed>`).
pub const GEN_PREFIX: &str = "gen:";

/// Instruction budget of the calibration measurement (half again is
/// spent warming the predictor; see
/// [`measure_gshare_miss_rate`](crate::measure_gshare_miss_rate)).
pub const CAL_INSTRUCTIONS: u64 = 36_000;

/// Bisection iterations per calibration; 9 narrow the spread interval
/// to ~0.002, well inside every family's tolerance.
pub const CAL_ITERATIONS: u32 = 9;

/// One generative workload family.
pub struct Family {
    /// Family name (the `<family>` part of `gen:<family>:<seed>`).
    pub name: &'static str,
    /// One-line description of the class of codes the family mimics.
    pub summary: &'static str,
    /// The 8 KB-gshare miss rate every member calibrates to.
    pub target_miss: f64,
    /// Declared calibration tolerance: every member's realized rate is
    /// within `target_miss ± tolerance` (enforced by tests and
    /// `st calibrate`).
    pub tolerance: f64,
    /// Builds the uncalibrated base spec for one seed.
    pub(crate) base: fn(u64) -> WorkloadSpec,
}

impl std::fmt::Debug for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Family")
            .field("name", &self.name)
            .field("target_miss", &self.target_miss)
            .field("tolerance", &self.tolerance)
            .finish_non_exhaustive()
    }
}

static FAMILIES: [Family; 4] = [
    Family {
        name: "spec2006",
        summary: "SPECint2006-like: branchy integer codes from the hard end of the suite",
        target_miss: 0.175,
        tolerance: 0.025,
        base: base_spec2006,
    },
    Family {
        name: "server",
        summary: "server-style pointer chasing: low locality, load-dependent branches",
        target_miss: 0.250,
        tolerance: 0.030,
        base: base_server,
    },
    Family {
        name: "jit",
        summary: "JIT-like phase changing: hard profiling phase, loopy compiled phase",
        target_miss: 0.135,
        tolerance: 0.030,
        base: base_jit,
    },
    Family {
        name: "mix",
        summary: "interference mix: two paper profiles interleaved in bands",
        target_miss: 0.180,
        tolerance: 0.040,
        base: base_mix,
    },
];

/// All generative families, in declaration order.
#[must_use]
pub fn families() -> &'static [Family] {
    &FAMILIES
}

/// Looks a family up by name.
#[must_use]
pub fn family(name: &str) -> Option<&'static Family> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// Parses a generative workload name: `gen:<family>` (seed 0) or
/// `gen:<family>:<seed>` with a decimal `u64` seed. Returns `None` for
/// non-generative names, unknown families or malformed seeds.
#[must_use]
pub fn parse_name(name: &str) -> Option<(&'static Family, u64)> {
    let rest = name.strip_prefix(GEN_PREFIX)?;
    let (fam, seed) = match rest.split_once(':') {
        Some((fam, seed)) => (fam, seed.parse::<u64>().ok()?),
        None => (rest, 0),
    };
    family(fam).map(|f| (f, seed))
}

/// The canonical name of one family member.
#[must_use]
pub fn member_name(family: &Family, seed: u64) -> String {
    format!("{GEN_PREFIX}{}:{seed}", family.name)
}

/// Upper bound on coarse share-correction rounds in [`derive()`](fn@derive). Most
/// seeds calibrate in zero rounds; only envelope outliers pay extra.
const CAL_SHARE_ROUNDS: u32 = 3;

/// Derives one calibrated member from scratch — **no memoisation**. Pure
/// in `(family, seed)`: repeated calls build byte-identical specs (the
/// determinism property tests call this twice and compare programs).
///
/// Calibration is two-stage. The fine knob is `hard_bias_spread`
/// (bisected by [`calibrate_hardness`]); when a seed's reachable
/// envelope misses the family target — the spread saturates with the
/// rate still off by more than half the tolerance — a coarse stage
/// rescales the *biased share* of the branch mix (how many hard
/// branches exist, rather than how hard each one is) and re-bisects.
/// Every probe is a deterministic measurement, so the correction is
/// still a pure function of `(family, seed)`.
#[must_use]
pub fn derive(family: &Family, seed: u64) -> (WorkloadSpec, Calibration) {
    let target = family.target_miss;
    let mut spec = (family.base)(seed);
    let mut cal = calibrate_hardness(&spec, target, CAL_INSTRUCTIONS, CAL_ITERATIONS);
    spec.hard_bias_spread = cal.spread;
    let mut best = (spec.clone(), cal);
    for _ in 0..CAL_SHARE_ROUNDS {
        if !cal.achieved.is_finite()
            || cal.achieved <= 0.0
            || (cal.achieved - target).abs() <= 0.4 * family.tolerance
        {
            break;
        }
        let scale = (target / cal.achieved).clamp(0.55, 1.8);
        spec.mix.biased = (spec.mix.biased * scale).clamp(0.02, 2.0);
        for phase in &mut spec.phases {
            phase.mix.biased = (phase.mix.biased * scale).clamp(0.02, 2.0);
        }
        cal = calibrate_hardness(&spec, target, CAL_INSTRUCTIONS, CAL_ITERATIONS);
        spec.hard_bias_spread = cal.spread;
        // The share → rate response is sub-linear, so a correction can
        // overshoot; keep the round only if it actually got closer.
        if (cal.achieved - target).abs() < (best.1.achieved - target).abs() {
            best = (spec.clone(), cal);
        } else {
            break;
        }
    }
    best
}

fn family_index(family: &Family) -> usize {
    FAMILIES.iter().position(|f| std::ptr::eq(f, family)).expect("registry family")
}

/// One memoised member: filled once, by whichever caller gets there first.
type MemberCell = Arc<OnceLock<(WorkloadSpec, Calibration)>>;

/// Process-wide derivation memo, keyed by (family index, seed). The map
/// lock only guards cell lookup; derivation runs outside it.
type MemberMemo = Mutex<HashMap<(usize, u64), MemberCell>>;

fn memo() -> &'static MemberMemo {
    static MEMO: OnceLock<MemberMemo> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The memo cell of one member; empty until its first resolution.
fn member_cell(family: &Family, seed: u64) -> MemberCell {
    let key = (family_index(family), seed);
    Arc::clone(memo().lock().expect("calibration memo poisoned").entry(key).or_default())
}

/// The member held by `cell`, deriving it first if no caller has yet.
fn fill<'a>(
    cell: &'a OnceLock<(WorkloadSpec, Calibration)>,
    family: &Family,
    seed: u64,
) -> &'a (WorkloadSpec, Calibration) {
    cell.get_or_init(|| {
        #[cfg(test)]
        tests::record_derivation(family_index(family), seed);
        derive(family, seed)
    })
}

/// Resolves one family member, memoised process-wide. Because
/// [`derive()`](fn@derive) is pure, memoisation is observationally invisible — it
/// only saves re-running the calibration when grid expansion, the
/// engine and emitters all resolve the same name. Distinct members
/// derive concurrently; concurrent callers of one member wait for a
/// single derivation.
#[must_use]
pub fn resolve_member(family: &'static Family, seed: u64) -> (WorkloadSpec, Calibration) {
    fill(&member_cell(family, seed), family, seed).clone()
}

/// Memoises every listed member, deriving the ones not yet memoised on
/// `available_parallelism()` scoped threads, so that later
/// [`resolve_member`] calls for them only read the memo. Derivation is
/// pure, so which thread derives a member never shows in the result.
pub fn resolve_members(members: &[(&'static Family, u64)]) {
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    resolve_members_on(members, threads);
}

/// [`resolve_members`] on at most `threads` threads, the caller's among
/// them: with one thread, or at most one member left to derive, nothing
/// is spawned.
fn resolve_members_on(members: &[(&'static Family, u64)], threads: usize) {
    let pending: Vec<(MemberCell, &Family, u64)> = members
        .iter()
        .map(|&(family, seed)| (member_cell(family, seed), family, seed))
        .filter(|(cell, _, _)| cell.get().is_none())
        .collect();
    // Only hands out indices; each cell's `OnceLock` publishes its member.
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some((cell, family, seed)) = pending.get(next.fetch_add(1, Relaxed)) {
            fill(cell, family, *seed);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(pending.len()) {
            scope.spawn(work);
        }
        work();
    });
}

/// Resolves a `gen:<family>:<seed>` name to its calibrated spec.
/// `None` for non-generative or malformed names (callers fall back to
/// the fixed profiles).
#[must_use]
pub fn resolve(name: &str) -> Option<WorkloadSpec> {
    let (family, seed) = parse_name(name)?;
    Some(resolve_member(family, seed).0)
}

/// Re-resolves a generative workload under a different seed: the
/// `axis.workload_seed` hook. `None` when `name` is not generative —
/// the axis is a no-op on fixed profiles.
#[must_use]
pub fn reseed(name: &str, seed: u64) -> Option<WorkloadSpec> {
    let (family, _) = parse_name(name)?;
    Some(resolve_member(family, seed).0)
}

/// The README "Workload families" table: the eight fixed profiles plus
/// the generative families, generated from the same registries the
/// resolver uses so docs cannot drift (a test compares this against
/// README.md).
#[must_use]
pub fn markdown_table() -> String {
    let mut out = String::from(
        "| workload | kind | 8 KB-gshare miss rate | derivation |\n|---|---|---|---|\n",
    );
    for info in profiles::all() {
        out.push_str(&format!(
            "| `{}` | {} | {:.1} % | hand-calibrated to Table 2 |\n",
            info.spec.name,
            info.suite,
            100.0 * info.paper_miss_rate,
        ));
    }
    for f in families() {
        out.push_str(&format!(
            "| `gen:{}:<seed>` | generative | {:.1} % ± {:.1} % | {} |\n",
            f.name,
            100.0 * f.target_miss,
            100.0 * f.tolerance,
            f.summary,
        ));
    }
    out
}

/// Splits a seed into an independent per-purpose RNG so adding a jitter
/// draw to one knob never shifts the draws of the others.
fn knob_rng(family_salt: u64, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(family_salt))
}

fn jitter(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    rng.gen_range(lo..=hi)
}

/// SPECint2006-like: bigger static code than the int95/2000 profiles,
/// a branchy mix with a moderate biased share, and the wider-footprint
/// memory behaviour of the 2006 suite.
fn base_spec2006(seed: u64) -> WorkloadSpec {
    let mut rng = knob_rng(0x5350_4543_3036, seed);
    // Rate-relevant knobs (mix weights, code size, branch density) jitter
    // inside narrow bands so every member's envelope brackets the family
    // target; workload diversity comes from the program structure itself
    // plus the wide bands on rate-neutral knobs (memory, ILP, locality).
    let blocks = rng.gen_range(400..=480u32);
    let biased = jitter(&mut rng, 0.22, 0.26);
    let program_seed = rng.gen::<u64>();
    WorkloadSpec::builder(member_name(&FAMILIES[0], seed))
        .seed(program_seed)
        .blocks(blocks)
        .mean_block_len(jitter(&mut rng, 4.6, 5.2))
        .branch_frac(jitter(&mut rng, 0.72, 0.76))
        .jump_frac(jitter(&mut rng, 0.06, 0.12))
        .mix(BranchMix {
            loops: jitter(&mut rng, 0.38, 0.42),
            patterns: jitter(&mut rng, 0.26, 0.30),
            biased,
            markov: jitter(&mut rng, 0.05, 0.06),
            alternating: 0.0,
        })
        .loop_trip((2, 5))
        .outer_trip((6, 12))
        .markov_stay((0.90, 0.97))
        .pattern_len((2, 6))
        .mem_frac(jitter(&mut rng, 0.26, 0.32))
        .locality_jump(jitter(&mut rng, 0.030, 0.055))
        .stream_footprint(32 * 1024)
        .build()
}

/// Server-style pointer chasing: most branches test just-loaded values,
/// memory streams jump across a large heap (low locality), and the
/// Markov share models the sticky request-type branches of servers.
fn base_server(seed: u64) -> WorkloadSpec {
    let mut rng = knob_rng(0x5345_5256_4552, seed);
    let blocks = rng.gen_range(380..=420u32);
    let program_seed = rng.gen::<u64>();
    WorkloadSpec::builder(member_name(&FAMILIES[1], seed))
        .seed(program_seed)
        .blocks(blocks)
        .mean_block_len(jitter(&mut rng, 4.5, 4.9))
        .branch_frac(jitter(&mut rng, 0.74, 0.78))
        .mix(BranchMix {
            loops: jitter(&mut rng, 0.18, 0.21),
            patterns: jitter(&mut rng, 0.10, 0.13),
            biased: jitter(&mut rng, 0.48, 0.52),
            markov: jitter(&mut rng, 0.11, 0.13),
            alternating: 0.0,
        })
        .loop_trip((2, 5))
        .outer_trip((6, 12))
        .markov_stay((0.90, 0.95))
        .pattern_len((2, 5))
        .mem_frac(jitter(&mut rng, 0.36, 0.42))
        .dep_near(jitter(&mut rng, 0.62, 0.72))
        .branch_on_load(jitter(&mut rng, 0.55, 0.75))
        .locality_jump(jitter(&mut rng, 0.18, 0.24))
        .region_size(64 << 20)
        .build()
}

/// JIT-like phase changing: a hard profiling/interpreter phase (biased
/// branches at full spread) alternating with a loopy, pattern-heavy
/// compiled phase — ≥ 2 distinct branch-behaviour phases per run, with
/// enough cycles that any measurement window crosses phase boundaries.
fn base_jit(seed: u64) -> WorkloadSpec {
    let mut rng = knob_rng(0x4A49_545F_5048, seed);
    let blocks = rng.gen_range(400..=480u32);
    let program_seed = rng.gen::<u64>();
    let interp_weight = jitter(&mut rng, 0.50, 0.54);
    let cycles = rng.gen_range(4..=6u32);
    let builder = WorkloadSpec::builder(member_name(&FAMILIES[2], seed))
        .seed(program_seed)
        .blocks(blocks)
        .mean_block_len(jitter(&mut rng, 4.6, 5.2))
        .branch_frac(jitter(&mut rng, 0.72, 0.76))
        .loop_trip((2, 5))
        .outer_trip((6, 12))
        .markov_stay((0.88, 0.96))
        .pattern_len((2, 6))
        .mem_frac(jitter(&mut rng, 0.28, 0.34))
        .locality_jump(jitter(&mut rng, 0.04, 0.08));
    let probe = builder.clone().build();
    // Interpreter/profiling phase: biased-dominated at full spread.
    let mut interp = PhaseSpec::of(&probe);
    interp.weight = interp_weight;
    interp.mix = BranchMix {
        loops: jitter(&mut rng, 0.13, 0.15),
        patterns: jitter(&mut rng, 0.07, 0.09),
        biased: jitter(&mut rng, 0.62, 0.66),
        markov: jitter(&mut rng, 0.07, 0.09),
        alternating: 0.0,
    };
    interp.spread_scale = 1.0;
    interp.loop_trip = (2, 3);
    // Compiled steady-state phase: loopy and patterned, easy biases.
    let mut compiled = PhaseSpec::of(&probe);
    compiled.weight = 1.0 - interp_weight;
    compiled.mix = BranchMix {
        loops: jitter(&mut rng, 0.50, 0.56),
        patterns: jitter(&mut rng, 0.24, 0.28),
        biased: jitter(&mut rng, 0.10, 0.12),
        markov: jitter(&mut rng, 0.05, 0.07),
        alternating: 0.0,
    };
    compiled.spread_scale = 1.6;
    compiled.loop_trip = (4, 12);
    builder.phases(vec![interp, compiled]).phase_cycles(cycles).build()
}

/// Interference mix: the seed picks two distinct paper profiles and
/// interleaves their branch behaviour in many alternating bands, the
/// way co-scheduled workloads interleave in a shared predictor. Each
/// phase carries its profile's knobs; `spread_scale` keeps the two
/// profiles' relative hardness while calibration moves both together.
fn base_mix(seed: u64) -> WorkloadSpec {
    let mut rng = knob_rng(0x4D49_585F_5F5F, seed);
    let infos = profiles::all();
    let a = rng.gen_range(0..infos.len());
    let b = (a + 1 + rng.gen_range(0..infos.len() - 1)) % infos.len();
    let (sa, sb) = (&infos[a].spec, &infos[b].spec);
    let program_seed = rng.gen::<u64>();
    let weight_a = jitter(&mut rng, 0.35, 0.65);
    let cycles = rng.gen_range(8..=16u32);
    let base_spread = 0.5 * (sa.hard_bias_spread + sb.hard_bias_spread);
    let blocks = ((sa.n_blocks + sb.n_blocks) / 2).clamp(380, 460);
    let phase_of = |spec: &WorkloadSpec, weight: f64| {
        let mut p = PhaseSpec::of(spec);
        p.weight = weight;
        p.spread_scale = 1.0;
        p.loop_trip = (2, 5);
        p.branch_frac = p.branch_frac.clamp(0.70, 0.78);
        p.markov_stay = (p.markov_stay.0.clamp(0.90, 0.95), p.markov_stay.1.clamp(0.90, 0.95));
        p.pattern_len = (2, 5);
        // Interference floor: co-scheduled workloads trash each other's
        // global history, so even predictable profiles contribute a hard
        // data-dependent component — and it gives `calibrate_hardness`
        // leverage on every pair (parser+crafty alone would have almost
        // no biased branches to tune).
        p.mix.loops = p.mix.loops.clamp(0.28, 0.36);
        p.mix.patterns = p.mix.patterns.clamp(0.12, 0.20);
        p.mix.markov = p.mix.markov.clamp(0.06, 0.10);
        p.mix.alternating = p.mix.alternating.min(0.04);
        p.mix.biased = p.mix.biased.clamp(0.28, 0.32);
        p.mem_frac = p.mem_frac.clamp(0.25, 0.40);
        p.locality_jump = p.locality_jump.clamp(0.05, 0.20);
        p
    };
    WorkloadSpec::builder(member_name(&FAMILIES[3], seed))
        .seed(program_seed)
        .blocks(blocks)
        .mean_block_len((0.5 * (sa.mean_block_len + sb.mean_block_len)).clamp(4.4, 5.2))
        .branch_frac((0.5 * (sa.branch_frac + sb.branch_frac)).clamp(0.70, 0.78))
        .jump_frac((0.5 * (sa.jump_frac + sb.jump_frac)).clamp(0.06, 0.10))
        .hard_bias_spread(base_spread)
        .loop_trip((2, 5))
        .outer_trip((6, 12))
        .markov_stay((0.90, 0.95))
        .pattern_len((2, 5))
        .mem_frac(0.5 * (sa.mem_frac + sb.mem_frac))
        .locality_jump(0.5 * (sa.locality_jump + sb.locality_jump))
        .phases(vec![phase_of(sa, weight_a), phase_of(sb, 1.0 - weight_a)])
        .phase_cycles(cycles)
        .build()
}

#[cfg(test)]
mod tests {
    use std::thread::ThreadId;

    use super::*;

    /// Every derivation the memo has run in this process: the (family
    /// index, seed) key and the thread that ran it.
    static DERIVATIONS: Mutex<Vec<((usize, u64), ThreadId)>> = Mutex::new(Vec::new());

    pub(super) fn record_derivation(idx: usize, seed: u64) {
        DERIVATIONS.lock().unwrap().push(((idx, seed), std::thread::current().id()));
    }

    /// The threads that derived `(family, seed)`, one entry per derivation.
    fn derivations_of(family: &Family, seed: u64) -> Vec<ThreadId> {
        let key = (family_index(family), seed);
        DERIVATIONS.lock().unwrap().iter().filter(|(k, _)| *k == key).map(|&(_, t)| t).collect()
    }

    #[test]
    fn racing_resolvers_derive_each_member_once() {
        // Seeds no other test resolves, so these keys' log entries are ours.
        let keys: Vec<(&'static Family, u64)> =
            families().iter().flat_map(|f| [(f, 910_001), (f, 910_002)]).collect();
        let (front, back) = (&keys[..6], &keys[2..]);
        let reversed: Vec<_> = keys.iter().rev().copied().collect();
        let resolved = |list: &[(&'static Family, u64)]| {
            list.iter().map(|&(f, seed)| ((f.name, seed), resolve_member(f, seed))).collect()
        };
        // All three resolvers start together, so they meet on shared keys.
        let start = std::sync::Barrier::new(3);
        let results: [Vec<_>; 3] = std::thread::scope(|scope| {
            let racers = [
                scope.spawn(|| {
                    start.wait();
                    resolve_members(front);
                    resolved(front)
                }),
                scope.spawn(|| {
                    start.wait();
                    resolve_members_on(back, 3);
                    resolved(back)
                }),
                scope.spawn(|| {
                    start.wait();
                    resolved(&reversed)
                }),
            ];
            racers.map(|r| r.join().expect("resolver thread"))
        });
        for &(f, seed) in &keys {
            let fresh = derive(f, seed);
            let seen: Vec<_> =
                results.iter().flatten().filter(|(k, _)| *k == (f.name, seed)).collect();
            assert!(seen.len() >= 2, "{}:{seed} raced by at least two resolvers", f.name);
            for (_, got) in seen {
                assert_eq!(got, &fresh, "{}:{seed}: resolved member differs from derive", f.name);
            }
            assert_eq!(derivations_of(f, seed).len(), 1, "{}:{seed} derived once", f.name);
        }
    }

    #[test]
    fn one_thread_resolves_on_the_callers_thread() {
        let keys = [(family("jit").unwrap(), 920_001), (family("mix").unwrap(), 920_002)];
        resolve_members_on(&keys, 1);
        for (f, seed) in keys {
            assert_eq!(derivations_of(f, seed), [std::thread::current().id()], "no thread spawned");
            assert_eq!(resolve_member(f, seed), derive(f, seed));
        }
    }

    #[test]
    fn name_grammar_round_trips() {
        for f in families() {
            let (pf, seed) = parse_name(&member_name(f, 42)).expect("member name parses");
            assert_eq!(pf.name, f.name);
            assert_eq!(seed, 42);
            // Bare family name means seed 0.
            let (pf, seed) = parse_name(&format!("gen:{}", f.name)).expect("bare name");
            assert_eq!(pf.name, f.name);
            assert_eq!(seed, 0);
        }
        assert!(parse_name("go").is_none(), "fixed profiles are not generative");
        assert!(parse_name("gen:bogus:1").is_none(), "unknown family");
        assert!(parse_name("gen:jit:ten").is_none(), "non-numeric seed");
        assert!(parse_name("gen:jit:-1").is_none(), "negative seed");
    }

    #[test]
    fn resolution_is_memoised_and_matches_derive() {
        let f = family("server").unwrap();
        let (cached, cal) = resolve_member(f, 7);
        let (fresh, fresh_cal) = derive(f, 7);
        assert_eq!(cached, fresh, "memoised and fresh derivations must agree");
        assert_eq!(cal, fresh_cal);
        assert_eq!(cached.name, "gen:server:7");
    }

    #[test]
    fn reseed_changes_the_member_and_ignores_fixed_profiles() {
        let a = reseed("gen:spec2006:1", 2).expect("generative names reseed");
        let b = resolve("gen:spec2006:2").expect("same member");
        assert_eq!(a, b);
        assert!(reseed("go", 2).is_none(), "fixed profiles never reseed");
    }

    #[test]
    fn jit_members_carry_two_distinct_phases() {
        let spec = resolve("gen:jit:3").unwrap();
        assert_eq!(spec.phases.len(), 2, "JIT members are two-phase");
        assert!(spec.phase_cycles >= 2, "measurement windows must cross phases");
        let (a, b) = (&spec.phases[0], &spec.phases[1]);
        assert!(
            a.mix.biased > b.mix.biased + 0.3,
            "profiling phase is biased-dominated: {} vs {}",
            a.mix.biased,
            b.mix.biased
        );
        assert!(b.mix.loops > a.mix.loops + 0.2, "compiled phase is loopy");
    }

    #[test]
    fn mix_members_blend_two_paper_profiles() {
        let spec = resolve("gen:mix:5").unwrap();
        assert_eq!(spec.phases.len(), 2);
        assert!(spec.phase_cycles >= 8, "mixes interleave in many bands");
        assert!(
            (spec.phases[0].mix.loops - spec.phases[1].mix.loops).abs() > 1e-9
                || (spec.phases[0].mix.biased - spec.phases[1].mix.biased).abs() > 1e-9,
            "the two source profiles must be distinct"
        );
    }

    #[test]
    fn markdown_table_covers_profiles_and_families() {
        let table = markdown_table();
        for info in profiles::all() {
            assert!(table.contains(&format!("| `{}` |", info.spec.name)));
        }
        for f in families() {
            assert!(table.contains(&format!("| `gen:{}:<seed>` |", f.name)));
        }
    }

    #[test]
    fn readme_workloads_table_matches_registries() {
        let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme_path).expect("README.md readable");
        let begin =
            readme.find("<!-- workloads:begin -->").expect("workloads:begin marker in README");
        let end = readme.find("<!-- workloads:end -->").expect("workloads:end marker in README");
        let published = readme[begin + "<!-- workloads:begin -->".len()..end].trim();
        assert_eq!(
            published,
            markdown_table().trim(),
            "README 'Workload families' table drifted from the workload registries; \
             paste the output of st_workloads::markdown_table() between the markers"
        );
    }
}
