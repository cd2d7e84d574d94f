//! Calibration probe: warm per-category occurrence shares and miss rates.
use st_bpred::{GlobalHistory, Gshare};
use st_isa::{BranchBehavior, OpClass, Walker};
use st_workloads::all;

fn main() {
    for info in all() {
        let spec = &info.spec;
        let program = spec.generate();
        let mut walker = Walker::new(&program);
        let mut gshare = Gshare::with_table_bytes(8 * 1024);
        let mut history = GlobalHistory::new(gshare.history_bits());
        let mut occ = [0u64; 5];
        let mut miss = [0u64; 5];
        let warmup = 400_000u64;
        for i in 0..warmup + 800_000 {
            let arch = walker.next_instr(&program);
            if arch.instr.op != OpClass::Branch {
                continue;
            }
            let b = arch.branch.unwrap();
            let cat = match program.branch_model(b).behavior() {
                BranchBehavior::Loop { .. } => 0,
                BranchBehavior::Pattern { .. } => 1,
                BranchBehavior::Biased { .. } => 2,
                BranchBehavior::Markov { .. } => 3,
                BranchBehavior::Alternating => 4,
            };
            let taken = arch.taken.unwrap();
            let pred = gshare.predict(arch.pc, history.value());
            if i >= warmup {
                occ[cat] += 1;
                if pred.taken != taken {
                    miss[cat] += 1;
                }
            }
            gshare.update(arch.pc, history.value(), taken);
            history.push(taken);
        }
        let total: u64 = occ.iter().sum();
        let misses: u64 = miss.iter().sum();
        print!(
            "{:<9} target {:.3} rate {:.3} |",
            spec.name,
            info.paper_miss_rate,
            misses as f64 / total as f64
        );
        for (i, name) in ["loop", "pat", "bias", "mkv", "alt"].iter().enumerate() {
            if occ[i] > 0 {
                print!(
                    " {name}: {:.0}%occ {:.1}%miss",
                    100.0 * occ[i] as f64 / total as f64,
                    100.0 * miss[i] as f64 / occ[i] as f64
                );
            }
        }
        println!(" | br/instr {:.3}", total as f64 / 800_000.0);
    }
}
