//! Re-derive the aggregate-class weights from scratch on the eleven
//! training benchmarks (the paper's §7 training phase) and compare
//! them with the published Table 5 values — then evaluate both weight
//! sets on the held-out benchmarks.
//!
//! ```text
//! cargo run --release --example train_weights
//! ```

use delinquent_loads::heuristic::training::{train_weights, TrainingParams, TrainingRun};
use delinquent_loads::prelude::*;

fn main() {
    let pipeline = Pipeline::new().planned(&[]);
    let runs: Vec<_> = delinquent_loads::workloads::training_set()
        .into_iter()
        .map(|b| {
            let run = pipeline.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
            (b, run)
        })
        .collect();
    let views: Vec<TrainingRun<'_>> = runs
        .iter()
        .map(|(b, r)| TrainingRun {
            name: b.name,
            loads: &r.analysis().loads,
            exec_counts: &r.result.exec_counts,
            load_misses: &r.result.load_misses,
            total_load_misses: r.result.load_misses_total,
        })
        .collect();

    let trained = train_weights(&views, &TrainingParams::default());
    let paper = Weights::paper();
    println!(
        "{:<5} {:<28} {:>8} {:>8}",
        "class", "feature", "trained", "paper"
    );
    for c in AgClass::ALL {
        println!(
            "{:<5} {:<28} {:>+8.2} {:>+8.2}",
            c.name(),
            c.feature(),
            trained.get(c),
            paper.get(c)
        );
    }

    // Held-out evaluation with both weight tables.
    println!("\nheld-out benchmarks (π / ρ):");
    println!("{:<14} {:>15} {:>15}", "benchmark", "trained", "paper");
    for b in delinquent_loads::workloads::test_set() {
        let run = pipeline.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let mut cells = Vec::new();
        for w in [trained, paper] {
            let h = Heuristic::default().with_weights(w);
            let delta = h.classify(run.analysis(), &run.result.exec_counts);
            cells.push(format!(
                "{:5.1}% / {:4.1}%",
                100.0 * pi(delta.len(), run.lambda()),
                100.0 * rho(&run.result, &delta)
            ));
        }
        println!("{:<14} {:>15} {:>15}", b.name, cells[0], cells[1]);
    }
}
