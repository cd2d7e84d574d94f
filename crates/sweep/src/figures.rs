//! The paper's figures and tables as data.
//!
//! Each [`Figure`] is the grid it needs (`jobs`) plus the step that
//! prints its tables and writes its CSVs from that grid's reports
//! (`render`). [`run_all`] — what `st repro` runs — submits the union
//! of every figure's grid to one [`SweepEngine`] as a single batch, so
//! each distinct point is simulated once and the worker pool stays busy
//! to the end, then renders each figure from its slice of the results.
//! [`ALL_FIGURES`] runs one figure at a time instead, its grid as one
//! batch.

use std::path::PathBuf;
use std::sync::Arc;

use st_core::{average_comparison, compare, Comparison, Experiment, SimReport};
use st_pipeline::PipelineConfig;
use st_power::{ClockGating, PowerConfig, Unit};
use st_report::{BarChart, Table};
use st_workloads::WorkloadInfo;

use crate::engine::SweepEngine;
use crate::job::{EstimatorChoice, JobSpec};

/// Shared context for figure generation: the engine, the instruction
/// budget, the workloads and where the CSVs go.
#[derive(Debug)]
pub struct FigureCtx<'a> {
    /// The engine figures submit their grids to.
    pub engine: &'a SweepEngine,
    /// Dynamic instruction budget per simulation point.
    pub instructions: u64,
    /// Workloads to run (the paper's eight by default).
    pub workloads: Vec<WorkloadInfo>,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
}

impl<'a> FigureCtx<'a> {
    /// Builds the default context: the eight paper workloads, 200 000
    /// instructions per point, CSVs in `results/`. Nothing is read from
    /// the environment; the name is historical.
    #[must_use]
    pub fn from_env(engine: &'a SweepEngine) -> FigureCtx<'a> {
        FigureCtx {
            engine,
            instructions: 200_000,
            workloads: st_workloads::all(),
            out_dir: PathBuf::from("results"),
        }
    }

    /// One baseline job per workload at `config`, in workload order.
    pub(crate) fn baselines(&self, config: &PipelineConfig) -> Vec<JobSpec> {
        self.workloads
            .iter()
            .map(|info| {
                JobSpec::new(info.spec.clone(), self.instructions).with_config(config.clone())
            })
            .collect()
    }

    /// Writes a table to `<out_dir>/<name>.csv`, warning on I/O errors
    /// without failing the experiment.
    fn save_csv(&self, table: &Table, name: &str) {
        let path = self.out_dir.join(format!("{name}.csv"));
        if let Err(e) = st_report::write_csv(table, &path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("  [csv] {}", path.display());
        }
    }
}

/// One paper figure or table: the points it needs and how it turns
/// their reports into printed tables and CSVs.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Name (`st list figures`, the `st repro` banner).
    pub name: &'static str,
    /// The points the figure needs, in the order `render` reads them.
    pub jobs: fn(&FigureCtx<'_>) -> Vec<JobSpec>,
    /// Prints the figure and writes its CSVs from the reports of `jobs`,
    /// in the same order.
    pub render: fn(&FigureCtx<'_>, &[Arc<SimReport>]),
}

/// Every figure and table, in `st repro` order.
pub const FIGURES: [Figure; 10] = [
    Figure { name: "table1", jobs: table1_jobs, render: table1 },
    Figure { name: "fig1_oracle", jobs: fig1_jobs, render: fig1_oracle },
    Figure { name: "table2_workloads", jobs: no_jobs, render: table2_workloads },
    Figure { name: "conf_metrics", jobs: conf_metrics_jobs, render: conf_metrics },
    Figure { name: "fig3_fetch", jobs: fig3_jobs, render: fig3_fetch },
    Figure { name: "fig4_decode", jobs: fig4_jobs, render: fig4_decode },
    Figure { name: "fig5_select", jobs: fig5_jobs, render: fig5_select },
    Figure { name: "fig6_depth", jobs: fig6_jobs, render: fig6_depth },
    Figure { name: "fig7_size", jobs: fig7_jobs, render: fig7_size },
    Figure { name: "ablations", jobs: ablations_jobs, render: ablations },
];

/// Runs every figure's grid as **one** engine batch, then renders each
/// figure, under a banner, from its slice of the results in [`FIGURES`]
/// order. Points shared between figures (the baselines, C2, …) are
/// submitted once per figure and simulated once.
pub fn run_all(ctx: &FigureCtx<'_>) {
    let grids: Vec<Vec<JobSpec>> = FIGURES.iter().map(|f| (f.jobs)(ctx)).collect();
    let reports = ctx.engine.run(&grids.concat());
    let mut rest = reports.as_slice();
    for (figure, grid) in FIGURES.iter().zip(&grids) {
        let (own, tail) = rest.split_at(grid.len());
        rest = tail;
        println!("==================================================================");
        println!("== {}", figure.name);
        println!("==================================================================");
        (figure.render)(ctx, own);
    }
}

/// A figure/table generator: runs one figure's grid as one batch on the
/// context's engine and renders it.
pub type FigureFn = fn(&FigureCtx<'_>);

/// Runs figure `I` of [`FIGURES`] on its own.
fn run_one<const I: usize>(ctx: &FigureCtx<'_>) {
    let figure = &FIGURES[I];
    (figure.render)(ctx, &ctx.engine.run(&(figure.jobs)(ctx)));
}

/// Name → generator for every figure/table, one batch per figure.
pub const ALL_FIGURES: [(&str, FigureFn); 10] = [
    (FIGURES[0].name, run_one::<0>),
    (FIGURES[1].name, run_one::<1>),
    (FIGURES[2].name, run_one::<2>),
    (FIGURES[3].name, run_one::<3>),
    (FIGURES[4].name, run_one::<4>),
    (FIGURES[5].name, run_one::<5>),
    (FIGURES[6].name, run_one::<6>),
    (FIGURES[7].name, run_one::<7>),
    (FIGURES[8].name, run_one::<8>),
    (FIGURES[9].name, run_one::<9>),
];

/// The grid of a figure panel: the baselines at `config`, then the same
/// workloads under each experiment in turn.
pub(crate) fn panel_jobs(
    ctx: &FigureCtx<'_>,
    config: &PipelineConfig,
    experiments: &[Experiment],
) -> Vec<JobSpec> {
    let baselines = ctx.baselines(config);
    let mut jobs = baselines.clone();
    for e in experiments {
        jobs.extend(baselines.iter().map(|job| job.clone().with_experiment(e.clone())));
    }
    jobs
}

/// Average comparison of each report against the baseline beside it.
fn average_vs(baselines: &[Arc<SimReport>], reports: &[Arc<SimReport>]) -> Comparison {
    let cmps: Vec<Comparison> = baselines.iter().zip(reports).map(|(b, r)| compare(b, r)).collect();
    average_comparison(&cmps)
}

/// One experiment's per-benchmark comparisons plus the average (the
/// contents of one row of a Figure 3/4/5 panel).
#[derive(Debug)]
pub(crate) struct PanelRow {
    /// Experiment id (e.g. "A5").
    id: String,
    /// Figure legend label.
    label: String,
    /// Per-workload comparisons, in workload order.
    pub(crate) per_workload: Vec<(String, Comparison)>,
    /// Arithmetic-mean comparison (the paper's "Average" bars).
    average: Comparison,
}

/// The panel rows of a [`panel_jobs`] grid's reports.
pub(crate) fn panel_rows(experiments: &[Experiment], reports: &[Arc<SimReport>]) -> Vec<PanelRow> {
    let n = reports.len() / (experiments.len() + 1);
    let (baselines, variants) = reports.split_at(n);
    experiments
        .iter()
        .zip(variants.chunks(n))
        .map(|(e, reports)| {
            let per_workload: Vec<(String, Comparison)> = baselines
                .iter()
                .zip(reports)
                .map(|(b, r)| (b.workload.clone(), compare(b, r)))
                .collect();
            let average =
                average_comparison(&per_workload.iter().map(|(_, c)| *c).collect::<Vec<_>>());
            PanelRow { id: e.id.to_string(), label: e.label.to_string(), per_workload, average }
        })
        .collect()
}

/// Formats a figure panel (one metric across experiments × workloads) as
/// a table: rows = experiments, columns = workloads + Average.
pub(crate) fn panel_table(
    title: &str,
    rows: &[PanelRow],
    metric: impl Fn(&Comparison) -> f64,
    precision: usize,
    unit: &str,
) -> Table {
    let mut headers = vec!["exp".to_string(), "policy".to_string()];
    if let Some(first) = rows.first() {
        headers.extend(first.per_workload.iter().map(|(w, _)| w.clone()));
    }
    headers.push("Average".to_string());
    let mut t = Table::new(headers).with_title(format!("{title} ({unit})"));
    for row in rows {
        let mut cells = vec![row.id.clone(), row.label.clone()];
        cells.extend(row.per_workload.iter().map(|(_, c)| format!("{:.precision$}", metric(c))));
        cells.push(format!("{:.precision$}", metric(&row.average)));
        t.row(cells);
    }
    t
}

/// The four metric panels of a Figure 3/4/5-style figure, printed and
/// saved under the context's output directory.
fn emit_figure(ctx: &FigureCtx<'_>, fig: &str, rows: &[PanelRow]) {
    let speedup = panel_table(
        &format!("{fig}: speedup (relative performance, 1.0 = baseline)"),
        rows,
        |c| c.speedup,
        3,
        "x",
    );
    let power =
        panel_table(&format!("{fig}: power savings"), rows, |c| c.power_savings_pct, 1, "%");
    let energy =
        panel_table(&format!("{fig}: energy savings"), rows, |c| c.energy_savings_pct, 1, "%");
    let ed = panel_table(
        &format!("{fig}: energy-delay improvement"),
        rows,
        |c| c.ed_improvement_pct,
        1,
        "%",
    );
    for t in [&speedup, &power, &energy, &ed] {
        println!("{}", t.render());
    }
    ctx.save_csv(&speedup, &format!("{fig}_speedup"));
    ctx.save_csv(&power, &format!("{fig}_power"));
    ctx.save_csv(&energy, &format!("{fig}_energy"));
    ctx.save_csv(&ed, &format!("{fig}_ed"));
}

/// Paper-published average values for easy side-by-side printing.
#[derive(Debug, Clone, Copy)]
pub struct PaperAverage {
    /// Experiment id.
    pub id: &'static str,
    /// Energy savings (%).
    pub energy: f64,
    /// E-D improvement (%), where published.
    pub ed: Option<f64>,
}

/// Paper averages quoted in §5.2 for the experiments it calls out.
#[must_use]
pub fn paper_averages() -> std::collections::BTreeMap<&'static str, PaperAverage> {
    let entries = [
        PaperAverage { id: "A1", energy: 5.2, ed: None },
        PaperAverage { id: "A2", energy: 6.6, ed: None },
        PaperAverage { id: "A3", energy: 9.2, ed: None },
        PaperAverage { id: "A5", energy: 11.7, ed: Some(8.6) },
        PaperAverage { id: "A6", energy: 12.3, ed: Some(0.0) },
        PaperAverage { id: "A7", energy: 11.0, ed: Some(3.5) },
        PaperAverage { id: "B1", energy: 7.1, ed: None },
        PaperAverage { id: "B2", energy: 8.2, ed: None },
        PaperAverage { id: "B3", energy: 7.5, ed: Some(-5.0) },
        PaperAverage { id: "B7", energy: 11.9, ed: Some(7.8) },
        PaperAverage { id: "C2", energy: 13.5, ed: Some(8.5) },
        PaperAverage { id: "C7", energy: 11.0, ed: Some(3.5) },
    ];
    entries.into_iter().map(|p| (p.id, p)).collect()
}

/// Prints measured-vs-paper average lines for the experiments the paper
/// quotes explicitly.
fn print_paper_comparison(rows: &[PanelRow]) {
    let paper = paper_averages();
    println!("paper-vs-measured (average energy savings / E-D improvement, %):");
    for row in rows {
        if let Some(p) = paper.get(row.id.as_str()) {
            let ed = p.ed.map(|v| format!("{v:+.1}")).unwrap_or_else(|| "n/a".to_string());
            println!(
                "  {:<3} paper {:+.1} / {:>5}   measured {:+.1} / {:+.1}",
                row.id,
                p.energy,
                ed,
                row.average.energy_savings_pct,
                row.average.ed_improvement_pct
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------------
// The figures and tables themselves: each one's grid, then its render.
// ---------------------------------------------------------------------

fn table1_jobs(ctx: &FigureCtx<'_>) -> Vec<JobSpec> {
    ctx.baselines(&PipelineConfig::paper_default())
}

/// Table 1: power breakdown per unit and mis-speculation waste.
fn table1(ctx: &FigureCtx<'_>, reports: &[Arc<SimReport>]) {
    const PAPER: [(&str, f64, f64); 11] = [
        ("icache", 10.0, 6.4),
        ("bpred", 3.8, 1.4),
        ("regfile", 1.6, 0.2),
        ("rename", 1.1, 0.5),
        ("window", 18.2, 5.6),
        ("lsq", 1.9, 0.2),
        ("alu", 8.7, 1.0),
        ("dcache", 10.6, 1.1),
        ("dcache2", 0.7, 0.0),
        ("resultbus", 9.5, 1.9),
        ("clock", 33.8, 9.5),
    ];
    println!(
        "Table 1 reproduction: {} workloads x {} instructions, 14-stage pipeline, cc3\n",
        ctx.workloads.len(),
        ctx.instructions
    );
    let n = reports.len() as f64;
    let mut t = Table::new(vec![
        "unit",
        "share % (paper)",
        "share % (measured)",
        "wasted % of overall (paper)",
        "wasted % of overall (measured)",
    ])
    .with_title("Table 1: power breakdown and mis-speculation waste");
    let mut total_wasted = 0.0;
    for (unit, (name, p_share, p_waste)) in Unit::all().iter().zip(PAPER) {
        debug_assert_eq!(unit.name(), name);
        let share = 100.0 * reports.iter().map(|r| r.energy.unit_share(*unit)).sum::<f64>() / n;
        let waste =
            100.0 * reports.iter().map(|r| r.energy.unit_wasted_of_total(*unit)).sum::<f64>() / n;
        total_wasted += waste;
        t.row(vec![
            name.to_string(),
            format!("{p_share:.1}"),
            format!("{share:.1}"),
            format!("{p_waste:.1}"),
            format!("{waste:.1}"),
        ]);
    }
    let avg_power = reports.iter().map(|r| r.energy.avg_power()).sum::<f64>() / n;
    t.row(vec![
        "TOTAL".into(),
        "100.0".into(),
        format!("({avg_power:.1} W avg)"),
        "27.9".into(),
        format!("{total_wasted:.1}"),
    ]);
    println!("{}", t.render());
    ctx.save_csv(&t, "table1");

    let mut aux = Table::new(vec!["workload", "IPC", "mpr %", "wrong-path fetch %", "wasted %"])
        .with_title("per-workload baseline detail");
    for r in reports {
        aux.row(vec![
            r.workload.clone(),
            format!("{:.3}", r.ipc()),
            format!("{:.1}", 100.0 * r.perf.mispredict_rate()),
            format!("{:.1}", 100.0 * r.perf.wrong_path_fetch_frac()),
            format!("{:.1}", 100.0 * r.energy.wasted_frac()),
        ]);
    }
    println!("{}", aux.render());
    ctx.save_csv(&aux, "table1_detail");
}

fn fig1_jobs(ctx: &FigureCtx<'_>) -> Vec<JobSpec> {
    panel_jobs(ctx, &PipelineConfig::paper_default(), &st_core::experiments::oracles())
}

/// Figure 1: the oracle fetch / decode / select potential study.
fn fig1_oracle(ctx: &FigureCtx<'_>, reports: &[Arc<SimReport>]) {
    const PAPER: [(&str, f64, f64, f64, f64); 3] = [
        ("OF", 5.0, 21.0, 24.0, 28.0),
        ("OD", 3.0, 13.7, 16.0, 19.0),
        ("OS", 1.0, 8.7, 10.0, 11.0),
    ];
    println!("Figure 1 reproduction: oracle modes, {} instructions/workload\n", ctx.instructions);
    let rows = panel_rows(&st_core::experiments::oracles(), reports);

    let mut t = Table::new(vec![
        "oracle",
        "speedup % (paper~)",
        "speedup % (meas)",
        "power % (paper)",
        "power % (meas)",
        "energy % (paper~)",
        "energy % (meas)",
        "E-D % (paper~)",
        "E-D % (meas)",
    ])
    .with_title("Figure 1: oracle fetch/decode/select savings (averages)");
    let mut chart = BarChart::new("Figure 1: measured energy savings by oracle mode", "%");
    for (row, (id, p_sp, p_pw, p_en, p_ed)) in rows.iter().zip(PAPER) {
        debug_assert_eq!(row.id, id);
        let sp = (row.average.speedup - 1.0) * 100.0;
        t.row(vec![
            row.label.clone(),
            format!("{p_sp:.1}"),
            format!("{sp:.1}"),
            format!("{p_pw:.1}"),
            format!("{:.1}", row.average.power_savings_pct),
            format!("{p_en:.1}"),
            format!("{:.1}", row.average.energy_savings_pct),
            format!("{p_ed:.1}"),
            format!("{:.1}", row.average.ed_improvement_pct),
        ]);
        chart.bar(row.label.clone(), row.average.energy_savings_pct);
    }
    println!("{}", t.render());
    println!("{}", chart.render());
    ctx.save_csv(&t, "fig1_oracle");
}

/// Table 2 needs no simulation points.
fn no_jobs(_: &FigureCtx<'_>) -> Vec<JobSpec> {
    Vec::new()
}

/// Table 2: benchmark characteristics (no simulation jobs; measures the
/// calibrated gshare miss rates directly, one thread per workload).
fn table2_workloads(ctx: &FigureCtx<'_>, _: &[Arc<SimReport>]) {
    println!("Table 2 reproduction: workload characteristics\n");
    let mut t = Table::new(vec![
        "benchmark",
        "suite",
        "paper instr (M)",
        "paper cond.br (M)",
        "paper gshare-8KB miss %",
        "measured miss %",
        "static instrs",
        "branch/instr",
    ])
    .with_title("Table 2: benchmark characteristics (paper vs synthetic stand-in)");

    let measurements: Vec<(f64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ctx
            .workloads
            .iter()
            .map(|info| {
                scope.spawn(move || {
                    let program = info.spec.generate();
                    let measured = st_workloads::measure_gshare_miss_rate_warm(
                        &info.spec,
                        400_000,
                        800_000,
                        8 * 1024,
                    );
                    let mut walker = st_isa::Walker::new(&program);
                    let branches = walker.skip(&program, 200_000);
                    (measured, program.instr_count() as u64, branches)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("measurement thread panicked")).collect()
    });
    for (info, (measured, static_instrs, branches)) in ctx.workloads.iter().zip(measurements) {
        t.row(vec![
            info.spec.name.clone(),
            info.suite.to_string(),
            info.paper_instructions_m.to_string(),
            info.paper_branches_m.to_string(),
            format!("{:.1}", 100.0 * info.paper_miss_rate),
            format!("{:.1}", 100.0 * measured),
            static_instrs.to_string(),
            format!("{:.3}", branches as f64 / 200_000.0),
        ]);
    }
    println!("{}", t.render());
    ctx.save_csv(&t, "table2");
}

/// Per workload: the BPRU-style estimator, then JRS.
fn conf_metrics_jobs(ctx: &FigureCtx<'_>) -> Vec<JobSpec> {
    let config = PipelineConfig::paper_default();
    let bpru = EstimatorChoice::Saturating(st_bpred::SaturatingConfig {
        bytes: config.estimator_bytes,
        ..st_bpred::SaturatingConfig::paper_default()
    });
    let jrs = EstimatorChoice::Jrs { bytes: config.estimator_bytes };
    ctx.baselines(&config)
        .into_iter()
        .flat_map(|base| {
            [base.clone().with_estimator(bpru.clone()), base.with_estimator(jrs.clone())]
        })
        .collect()
}

/// §4.3 estimator quality: SPEC/PVN of BPRU-style vs JRS.
fn conf_metrics(ctx: &FigureCtx<'_>, reports: &[Arc<SimReport>]) {
    println!(
        "§4.3 estimator quality: SPEC/PVN over committed branches, {} instructions/workload\n",
        ctx.instructions
    );
    let mut t = Table::new(vec![
        "workload",
        "BPRU SPEC %",
        "BPRU PVN %",
        "BPRU low-label %",
        "JRS SPEC %",
        "JRS PVN %",
        "JRS low-label %",
    ])
    .with_title("confidence estimator quality (paper: BPRU 60/45, JRS 90/24)");
    let mut sums = [0.0f64; 6];
    for (info, pair) in ctx.workloads.iter().zip(reports.chunks(2)) {
        let (bpru, jrs) = (&pair[0], &pair[1]);
        let vals = [
            100.0 * bpru.conf.spec(),
            100.0 * bpru.conf.pvn(),
            100.0 * bpru.conf.low_labeled() as f64 / bpru.conf.total().max(1) as f64,
            100.0 * jrs.conf.spec(),
            100.0 * jrs.conf.pvn(),
            100.0 * jrs.conf.low_labeled() as f64 / jrs.conf.total().max(1) as f64,
        ];
        for (s, v) in sums.iter_mut().zip(vals) {
            *s += v;
        }
        t.row(
            std::iter::once(info.spec.name.clone())
                .chain(vals.iter().map(|v| format!("{v:.1}")))
                .collect(),
        );
    }
    let n = ctx.workloads.len() as f64;
    t.row(
        std::iter::once("Average".to_string())
            .chain(sums.iter().map(|s| format!("{:.1}", s / n)))
            .collect(),
    );
    println!("{}", t.render());
    println!("paper averages: BPRU-style SPEC 60.0 PVN 45.0 | JRS SPEC 90.0 PVN 24.0\n");
    ctx.save_csv(&t, "conf_metrics");
}

/// Figures 3–5: one panel per metric over the experiment group that
/// throttles `stage`, then the paper's quoted averages beside the
/// measured ones.
fn throttling_figure(
    ctx: &FigureCtx<'_>,
    reports: &[Arc<SimReport>],
    number: u32,
    stage: &str,
    group: &[Experiment],
) -> Vec<PanelRow> {
    println!(
        "Figure {number} reproduction: {stage} throttling, {} instructions/workload\n",
        ctx.instructions
    );
    let rows = panel_rows(group, reports);
    emit_figure(ctx, &format!("fig{number}"), &rows);
    print_paper_comparison(&rows);
    rows
}

fn fig3_jobs(ctx: &FigureCtx<'_>) -> Vec<JobSpec> {
    panel_jobs(ctx, &PipelineConfig::paper_default(), &st_core::experiments::group_a())
}

/// Figure 3: fetch throttling (A1–A7).
fn fig3_fetch(ctx: &FigureCtx<'_>, reports: &[Arc<SimReport>]) {
    let group = st_core::experiments::group_a();
    throttling_figure(ctx, reports, 3, "fetch", &group);
}

fn fig4_jobs(ctx: &FigureCtx<'_>) -> Vec<JobSpec> {
    panel_jobs(ctx, &PipelineConfig::paper_default(), &st_core::experiments::group_b())
}

/// Figure 4: decode throttling (B1–B9).
fn fig4_decode(ctx: &FigureCtx<'_>, reports: &[Arc<SimReport>]) {
    let group = st_core::experiments::group_b();
    throttling_figure(ctx, reports, 4, "decode", &group);
}

fn fig5_jobs(ctx: &FigureCtx<'_>) -> Vec<JobSpec> {
    panel_jobs(ctx, &PipelineConfig::paper_default(), &st_core::experiments::group_c())
}

/// Figure 5: selection throttling (C1–C7) plus the no-select ablation.
fn fig5_select(ctx: &FigureCtx<'_>, reports: &[Arc<SimReport>]) {
    let group = st_core::experiments::group_c();
    let rows = throttling_figure(ctx, reports, 5, "selection", &group);
    println!("selection-throttling ablation (energy savings %, average):");
    for (with, without) in [("C2", "C1"), ("C4", "C3"), ("C6", "C5")] {
        let w = rows.iter().find(|r| r.id == with).expect("row exists");
        let wo = rows.iter().find(|r| r.id == without).expect("row exists");
        println!(
            "  {without} {:.1} -> {with} {:.1} (no-select adds {:+.1}; paper: about +2)",
            wo.average.energy_savings_pct,
            w.average.energy_savings_pct,
            w.average.energy_savings_pct - wo.average.energy_savings_pct
        );
    }
    println!();
}

/// Figure 6's pipeline depths.
const DEPTHS: [u32; 6] = [6, 10, 14, 18, 22, 28];

/// Per depth: the baselines, then C2.
fn fig6_jobs(ctx: &FigureCtx<'_>) -> Vec<JobSpec> {
    DEPTHS
        .iter()
        .flat_map(|&depth| {
            panel_jobs(ctx, &PipelineConfig::with_depth(depth), &[st_core::experiments::c2()])
        })
        .collect()
}

/// Figure 6: pipeline-depth sensitivity of C2.
fn fig6_depth(ctx: &FigureCtx<'_>, reports: &[Arc<SimReport>]) {
    const PAPER: [(u32, f64, f64); 3] = [(6, 11.0, 5.4), (14, 13.5, 8.5), (28, 17.2, 12.0)];
    println!(
        "Figure 6 reproduction: pipeline depth sweep {:?}, {} instructions/workload\n",
        DEPTHS, ctx.instructions
    );
    let mut t = Table::new(vec![
        "depth",
        "speedup",
        "power savings %",
        "energy savings %",
        "E-D improv %",
        "baseline wasted %",
    ])
    .with_title("Figure 6: C2 vs baseline across pipeline depths (averages)");
    let n = ctx.workloads.len();
    for (depth, grid) in DEPTHS.iter().zip(reports.chunks(2 * n)) {
        let (baselines, c2s) = grid.split_at(n);
        let avg = average_vs(baselines, c2s);
        let wasted = 100.0 * baselines.iter().map(|b| b.energy.wasted_frac()).sum::<f64>()
            / baselines.len() as f64;
        t.row(vec![
            depth.to_string(),
            format!("{:.3}", avg.speedup),
            format!("{:.1}", avg.power_savings_pct),
            format!("{:.1}", avg.energy_savings_pct),
            format!("{:.1}", avg.ed_improvement_pct),
            format!("{:.1}", wasted),
        ]);
    }
    println!("{}", t.render());
    println!("paper anchors (depth, energy %, E-D %):");
    for (d, e, ed) in PAPER {
        println!("  {d:>2} stages: {e:.1} / {ed:.1}");
    }
    println!();
    ctx.save_csv(&t, "fig6_depth");
}

/// Figure 7's total predictor + estimator sizes.
const SIZES_KB: [usize; 4] = [8, 16, 32, 64];

/// Per size: the baselines with the whole budget on the predictor, then
/// C2 with half on each.
fn fig7_jobs(ctx: &FigureCtx<'_>) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for kb in SIZES_KB {
        let total = kb * 1024;
        let mut base_cfg = PipelineConfig::paper_default();
        base_cfg.predictor_bytes = total;
        base_cfg.estimator_bytes = total / 2; // present but unused by the null controller
        let mut st_cfg = PipelineConfig::paper_default();
        st_cfg.predictor_bytes = total / 2;
        st_cfg.estimator_bytes = total / 2;
        jobs.extend(ctx.baselines(&base_cfg));
        jobs.extend(
            ctx.baselines(&st_cfg)
                .into_iter()
                .map(|job| job.with_experiment(st_core::experiments::c2())),
        );
    }
    jobs
}

/// Figure 7: predictor + estimator size sensitivity of C2 at equal total
/// hardware (baseline: whole budget on the predictor; ST: half and half).
fn fig7_size(ctx: &FigureCtx<'_>, reports: &[Arc<SimReport>]) {
    println!(
        "Figure 7 reproduction: total predictor+estimator size sweep {:?} KB, {} instructions/workload\n",
        SIZES_KB, ctx.instructions
    );
    let mut t = Table::new(vec![
        "total size KB",
        "speedup",
        "power savings %",
        "energy savings %",
        "E-D improv %",
        "baseline mpr %",
        "C2 mpr %",
    ])
    .with_title("Figure 7: C2 vs equal-size baseline (averages)");
    let n = ctx.workloads.len();
    for (kb, grid) in SIZES_KB.iter().zip(reports.chunks(2 * n)) {
        let (baselines, c2s) = grid.split_at(n);
        let avg = average_vs(baselines, c2s);
        let nf = n as f64;
        let base_mpr: f64 = baselines.iter().map(|r| r.perf.mispredict_rate()).sum();
        let c2_mpr: f64 = c2s.iter().map(|r| r.perf.mispredict_rate()).sum();
        t.row(vec![
            kb.to_string(),
            format!("{:.3}", avg.speedup),
            format!("{:.1}", avg.power_savings_pct),
            format!("{:.1}", avg.energy_savings_pct),
            format!("{:.1}", avg.ed_improvement_pct),
            format!("{:.1}", 100.0 * base_mpr / nf),
            format!("{:.1}", 100.0 * c2_mpr / nf),
        ]);
    }
    println!("{}", t.render());
    println!("paper anchors: power 20.3 % (8 KB) -> 16.5 % (64 KB); energy 11-12 %; E-D 4-5 %\n");
    ctx.save_csv(&t, "fig7_size");
}

/// Ablation 1's clock-gating styles.
fn gatings() -> [(&'static str, ClockGating); 2] {
    [("cc3 (10% idle floor)", ClockGating::paper_default()), ("cc0 (no gating)", ClockGating::None)]
}

/// Ablation 2's estimator training variants.
fn estimator_configs() -> [(&'static str, st_bpred::SaturatingConfig); 4] {
    let paper = st_bpred::SaturatingConfig::paper_default();
    [
        ("inc2/dec1 (sticky labels)", st_bpred::SaturatingConfig { dec_on_correct: 1, ..paper }),
        ("inc2/dec2 (default)", paper),
        ("inc2/dec2 + weak merge", st_bpred::SaturatingConfig { merge_weak: true, ..paper }),
        ("inc2/dec2 + history index", st_bpred::SaturatingConfig { use_history: true, ..paper }),
    ]
}

/// Ablation 3's Pipeline Gating thresholds.
const THRESHOLDS: [u32; 4] = [1, 2, 3, 4];

/// The three ablations' grids, one after another:
/// 1. per gating style, the baselines then C2;
/// 2. the baselines, then C2 under each estimator variant;
/// 3. the baselines, then Pipeline Gating at each threshold.
fn ablations_jobs(ctx: &FigureCtx<'_>) -> Vec<JobSpec> {
    let config = PipelineConfig::paper_default();
    let c2 = st_core::experiments::c2();
    let mut jobs = Vec::new();
    for (_, gating) in gatings() {
        let power = PowerConfig { gating, ..PowerConfig::paper_default() };
        let baselines: Vec<JobSpec> =
            ctx.baselines(&config).into_iter().map(|job| job.with_power(power.clone())).collect();
        jobs.extend(baselines.iter().cloned());
        jobs.extend(baselines.into_iter().map(|job| job.with_experiment(c2.clone())));
    }
    let baselines = ctx.baselines(&config);
    jobs.extend(baselines.iter().cloned());
    for (_, est) in estimator_configs() {
        jobs.extend(baselines.iter().map(|job| {
            job.clone().with_experiment(c2.clone()).with_estimator(EstimatorChoice::Saturating(est))
        }));
    }
    let gating: Vec<Experiment> =
        THRESHOLDS.iter().map(|&t| st_core::experiments::gating(t)).collect();
    jobs.extend(panel_jobs(ctx, &config, &gating));
    jobs
}

/// Design-choice ablations: clock-gating style, estimator training and
/// the Pipeline Gating threshold.
fn ablations(ctx: &FigureCtx<'_>, reports: &[Arc<SimReport>]) {
    println!("design-choice ablations, {} instructions/workload\n", ctx.instructions);
    let n = ctx.workloads.len();
    let (by_gating, rest) = reports.split_at(2 * 2 * n);
    let (by_estimator, by_threshold) = rest.split_at(5 * n);

    // 1. Clock gating: cc3 vs cc0.
    let mut t = Table::new(vec!["power model", "C2 speedup", "C2 energy %", "C2 E-D %"])
        .with_title("ablation 1: clock-gating style (paper uses cc3)");
    for ((name, _), grid) in gatings().iter().zip(by_gating.chunks(2 * n)) {
        let (baselines, c2s) = grid.split_at(n);
        let avg = average_vs(baselines, c2s);
        t.row(vec![
            (*name).to_string(),
            format!("{:.3}", avg.speedup),
            format!("{:+.1}", avg.energy_savings_pct),
            format!("{:+.1}", avg.ed_improvement_pct),
        ]);
    }
    println!("{}", t.render());
    ctx.save_csv(&t, "ablation_gating");

    // 2. Estimator training asymmetry.
    let mut t = Table::new(vec![
        "estimator config",
        "C2 speedup",
        "C2 energy %",
        "C2 E-D %",
        "SPEC %",
        "PVN %",
    ])
    .with_title("ablation 2: confidence-estimator training (default: inc2/dec2, no merge)");
    let (baselines, variants) = by_estimator.split_at(n);
    for ((name, _), c2s) in estimator_configs().iter().zip(variants.chunks(n)) {
        let avg = average_vs(baselines, c2s);
        let nf = n as f64;
        let spec_sum: f64 = c2s.iter().map(|r| r.conf.spec()).sum();
        let pvn_sum: f64 = c2s.iter().map(|r| r.conf.pvn()).sum();
        t.row(vec![
            (*name).to_string(),
            format!("{:.3}", avg.speedup),
            format!("{:+.1}", avg.energy_savings_pct),
            format!("{:+.1}", avg.ed_improvement_pct),
            format!("{:.1}", 100.0 * spec_sum / nf),
            format!("{:.1}", 100.0 * pvn_sum / nf),
        ]);
    }
    println!("{}", t.render());
    ctx.save_csv(&t, "ablation_estimator");

    // 3. Pipeline Gating threshold sensitivity.
    let mut t = Table::new(vec!["gating threshold", "speedup", "energy %", "E-D %"])
        .with_title("ablation 3: Pipeline Gating threshold (paper: 2)");
    let (baselines, variants) = by_threshold.split_at(n);
    for (threshold, reports) in THRESHOLDS.iter().zip(variants.chunks(n)) {
        let avg = average_vs(baselines, reports);
        t.row(vec![
            threshold.to_string(),
            format!("{:.3}", avg.speedup),
            format!("{:+.1}", avg.energy_savings_pct),
            format!("{:+.1}", avg.ed_improvement_pct),
        ]);
    }
    println!("{}", t.render());
    ctx.save_csv(&t, "ablation_gating_threshold");
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::path::Path;

    use super::*;

    /// A context over the first two workloads at 2 000 instructions,
    /// writing CSVs under `out_dir`.
    fn tiny_ctx<'a>(engine: &'a SweepEngine, out_dir: &Path) -> FigureCtx<'a> {
        let mut ctx = FigureCtx::from_env(engine);
        ctx.instructions = 2_000;
        ctx.workloads.truncate(2);
        ctx.out_dir = out_dir.to_path_buf();
        ctx
    }

    /// Every CSV under `dir` as `(file name, bytes)`, in file-name order.
    fn csvs(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("list out dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "csv"))
            .map(|p| {
                let name = p.file_name().expect("file name").to_string_lossy().to_string();
                (name, std::fs::read(&p).expect("read csv"))
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn ctx_from_env_defaults() {
        let engine = SweepEngine::new(1);
        let ctx = FigureCtx::from_env(&engine);
        assert_eq!(ctx.workloads.len(), 8);
        assert_eq!(ctx.instructions, 200_000);
        assert_eq!(ctx.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn paper_averages_cover_headline_experiments() {
        let p = paper_averages();
        assert!(p.contains_key("C2"));
        assert!(p.contains_key("A5"));
        assert!((p["C2"].energy - 13.5).abs() < 1e-9);
        assert_eq!(p["C2"].ed, Some(8.5));
    }

    #[test]
    fn panel_runs_on_tiny_budget_and_caches_baselines() {
        let engine = SweepEngine::new(2);
        let ctx = tiny_ctx(&engine, Path::new("unused"));
        let cfg = PipelineConfig::paper_default();
        let a5 = [st_core::experiments::a5()];
        let reports = engine.run(&panel_jobs(&ctx, &cfg, &a5));
        assert_eq!(reports.len(), 4, "two baselines, then two A5 points");
        let rows = panel_rows(&a5, &reports);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].per_workload.len(), 2);
        // A second panel over the same config reuses all baselines.
        let before = engine.stats().simulated;
        let a6 = [st_core::experiments::a6()];
        let rows2 = panel_rows(&a6, &engine.run(&panel_jobs(&ctx, &cfg, &a6)));
        assert_eq!(rows2[0].id, "A6");
        assert_eq!(engine.stats().simulated, before + 2, "only the A6 points are new");
        let t = panel_table("t", &rows, |c| c.energy_savings_pct, 1, "%");
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("A5"));
    }

    #[test]
    fn one_batch_and_figure_at_a_time_write_the_same_csvs() {
        let dir = std::env::temp_dir().join(format!("st-figures-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (single, batch) = (dir.join("one-at-a-time"), dir.join("one-batch"));
        std::fs::create_dir_all(&single).expect("create out dir");
        std::fs::create_dir_all(&batch).expect("create out dir");

        let engine = SweepEngine::new(2);
        let ctx = tiny_ctx(&engine, &single);
        for (_, figure) in ALL_FIGURES {
            figure(&ctx);
        }

        let engine = SweepEngine::new(2);
        let ctx = tiny_ctx(&engine, &batch);
        run_all(&ctx);
        let union: Vec<JobSpec> = FIGURES.iter().flat_map(|f| (f.jobs)(&ctx)).collect();
        let distinct: HashSet<u64> = union.iter().map(JobSpec::fingerprint).collect();
        let stats = engine.stats();
        assert_eq!(stats.simulated, distinct.len() as u64, "each distinct point simulated once");
        assert_eq!(stats.cache.hits + stats.cache.misses, union.len() as u64, "one pass");

        let (a, b) = (csvs(&single), csvs(&batch));
        assert_eq!(a.len(), 22);
        assert_eq!(a, b, "the one-batch path must write the same CSVs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
