//! Deep dive into one SPEC-like workload: run `181.mcf` end-to-end and
//! compare what the heuristic, OKN, and BDH each flag against the
//! measured per-load miss profile.
//!
//! ```text
//! cargo run --release --example benchmark_deep_dive [benchmark-name]
//! ```

use std::collections::BTreeSet;

use delinquent_loads::prelude::*;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "181.mcf".to_owned());
    let bench = delinquent_loads::workloads::by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`; see dl_workloads::all()"));
    println!("== {} — {}", bench.name, bench.description);

    let pipeline = Pipeline::new().planned(&[]);
    let run = pipeline.run(&bench, OptLevel::O0, 1, CacheConfig::paper_baseline());

    let heuristic = Heuristic::default();
    let ours: BTreeSet<usize> = heuristic.predict(run.ctx()).into_iter().collect();
    let okn: BTreeSet<usize> = Okn.predict(run.ctx()).into_iter().collect();
    let bdh: BTreeSet<usize> = Bdh.predict(run.ctx()).into_iter().collect();

    let lambda = run.lambda();
    for (label, set) in [("heuristic", &ours), ("OKN", &okn), ("BDH", &bdh)] {
        let indices: Vec<usize> = set.iter().copied().collect();
        println!(
            "{label:>9}: π = {:5.2}%  ρ = {:5.1}%  ({} loads)",
            100.0 * pi(set.len(), lambda),
            100.0 * rho(&run.result, &indices),
            set.len()
        );
    }

    // The ten loads with the most misses, and who caught them.
    let mut by_miss: Vec<&dl_analysis::extract::LoadInfo> = run.analysis().loads.iter().collect();
    by_miss.sort_by_key(|l| std::cmp::Reverse(run.result.load_misses[l.index]));
    println!(
        "\ntop-10 missing loads (total misses {}):",
        run.result.load_misses_total
    );
    println!(
        "{:>6} {:>9} {:>8} {:^9} {:^5} {:^5}  pattern",
        "inst", "misses", "execs", "heuristic", "OKN", "BDH"
    );
    for load in by_miss.iter().take(10) {
        let i = load.index;
        let yes = |s: &BTreeSet<usize>| if s.contains(&i) { "yes" } else { "-" };
        println!(
            "{:>6} {:>9} {:>8} {:^9} {:^5} {:^5}  {}",
            i,
            run.result.load_misses[i],
            run.result.exec_counts[i],
            yes(&ours),
            yes(&okn),
            yes(&bdh),
            load.patterns
                .first()
                .map_or_else(|| "?".to_owned(), ToString::to_string),
        );
    }
}
