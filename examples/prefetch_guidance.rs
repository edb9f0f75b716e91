//! The paper's motivating use case: drive a prefetching decision from
//! the static classification. This example combines basic-block
//! profiling with the heuristic (the §9 ε-scheme), then reports how
//! much of the program's miss traffic a prefetcher instrumenting only
//! those loads would see, versus instrumenting everything profiling
//! flags.
//!
//! ```text
//! cargo run --release --example prefetch_guidance [benchmark-name]
//! ```

use delinquent_loads::prelude::*;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "183.equake".to_owned());
    let bench = delinquent_loads::workloads::by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    println!("== prefetch site selection for {}", bench.name);

    let pipeline = Pipeline::new().planned(&[]);
    let run = pipeline.run(&bench, OptLevel::O0, 1, CacheConfig::paper_training());
    let lambda = run.lambda();

    let heuristic = Heuristic::default();
    let delta_h = heuristic.predict(run.ctx());
    let delta_p = profiling_set(run.program(), &run.result, 0.9);
    let scored = heuristic.score_all(run.analysis(), &run.result.exec_counts);

    println!(
        "\n{:<26} {:>7} {:>8} {:>8}",
        "site-selection policy", "sites", "π", "ρ"
    );
    let show = |label: &str, set: &[usize]| {
        println!(
            "{:<26} {:>7} {:>7.2}% {:>7.1}%",
            label,
            set.len(),
            100.0 * pi(set.len(), lambda),
            100.0 * rho(&run.result, set)
        );
    };
    show("all loads", &run.load_indices());
    show("hot blocks (profiling)", &delta_p);
    show("heuristic", &delta_h);
    for eps in [0.0, 0.1, 0.3] {
        let combined = combine_with_profiling(&delta_p, &scored, &delta_h, eps);
        show(&format!("profiling ∩ heuristic ε={eps}"), &combined);
    }

    println!(
        "\nA prefetcher instrumenting only the ε=0 set touches a fraction of \
         the sites while still seeing most of the miss traffic — the paper's \
         overhead-containment argument in one table."
    );
}
