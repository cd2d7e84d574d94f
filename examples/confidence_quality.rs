//! Confidence-estimator quality inspection (§4.2–§4.3): per-level
//! misprediction rates must rise monotonically from VHC to VLC, and the
//! SPEC/PVN operating points of the BPRU-style and JRS estimators differ
//! exactly the way the paper exploits.
//!
//! Run with: `cargo run --release --example confidence_quality`

use selective_throttling::bpred::{Confidence, Estimator, JrsEstimator, SaturatingEstimator};
use selective_throttling::core::Simulator;
use selective_throttling::report::Table;
use selective_throttling::workloads;

fn main() {
    let instructions = 150_000;
    let workload = workloads::compress();
    println!("confidence quality on '{}' ({instructions} instructions)\n", workload.name);

    let bpru = Simulator::builder()
        .workload(workload.clone())
        .max_instructions(instructions)
        .build_with_estimator(Estimator::Saturating(SaturatingEstimator::with_table_bytes(
            8 * 1024,
        )))
        .run();
    let jrs = Simulator::builder()
        .workload(workload)
        .max_instructions(instructions)
        .build_with_estimator(Estimator::Jrs(JrsEstimator::with_table_bytes(8 * 1024)))
        .run();

    let mut t = Table::new(vec!["level", "label share %", "mispredict rate %"])
        .with_title("BPRU-style estimator: four-level categorisation (§4.2)");
    for level in Confidence::all() {
        t.row(vec![
            level.to_string(),
            format!("{:.1}", 100.0 * bpru.conf.label_frac(level)),
            format!("{:.1}", 100.0 * bpru.conf.miss_rate_at(level)),
        ]);
    }
    println!("{}", t.render());

    let mut t2 = Table::new(vec!["estimator", "SPEC %", "PVN %", "low-label %"])
        .with_title("estimator operating points (paper: BPRU 60/45, JRS 90/24)");
    for (name, r) in [("BPRU-style", &bpru), ("JRS (MDC 12)", &jrs)] {
        t2.row(vec![
            name.to_string(),
            format!("{:.1}", 100.0 * r.conf.spec()),
            format!("{:.1}", 100.0 * r.conf.pvn()),
            format!("{:.1}", 100.0 * r.conf.low_labeled() as f64 / r.conf.total().max(1) as f64),
        ]);
    }
    println!("{}", t2.render());
    println!("the point the paper builds on: JRS covers almost every misprediction (high");
    println!("SPEC) but cries wolf (low PVN) — fine for an all-or-nothing gate with a");
    println!("threshold, bad for always-on throttling. The four-level estimator trades");
    println!("coverage for precision, so aggressive actions can be reserved for VLC.");
}
