//! The methodology the heuristic replaces: full memory profiling.
//!
//! The paper (§3) explains why static identification matters — the
//! off-line alternative is to trace a program's memory accesses and
//! push the trace through a cache simulator, which is "time and space
//! consuming". This example does exactly that for one workload:
//! execute it once, replay its recorded access stream into a sweep of
//! cache geometries, and compare the trace-derived delinquent sets
//! against what the *static* heuristic flagged without ever running
//! the program. The simulator strips the stream once through a
//! direct-mapped filter sized to the sweep's smallest set count, so
//! each geometry replays only the accesses that can change its state
//! (Puzak's trace stripping) — the classic answer to that cost.
//!
//! ```text
//! cargo run --release --example memory_profiling [benchmark-name]
//! ```

use std::time::Instant;

use delinquent_loads::prelude::*;
use delinquent_loads::sim::run_many;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "129.compress".to_owned());
    let bench = delinquent_loads::workloads::by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    println!("== memory profiling methodology on {}", bench.name);

    let program = bench.compile(OptLevel::O0).expect("compiles");
    let analysis = analyze_program(&program, &AnalysisConfig::default());
    let geometries = [
        CacheConfig::kb(4, 2),
        CacheConfig::kb(8, 4),
        CacheConfig::kb(16, 4),
        CacheConfig::kb(32, 4),
        CacheConfig::kb(64, 8),
    ];
    let configs: Vec<RunConfig> = geometries
        .iter()
        .map(|&cache| RunConfig {
            cache,
            input: bench.input1.clone(),
            ..RunConfig::default()
        })
        .collect();

    // One execution, its access stream replayed into every geometry.
    let t0 = Instant::now();
    let outputs = run_many(&program, &configs).expect("runs");
    let sweep_ms = t0.elapsed().as_millis();
    let result = &outputs[0].result;
    println!(
        "one execution of {} instructions, {} accesses, modeled at {} geometries in {sweep_ms} ms",
        result.instructions,
        result.dcache_accesses,
        geometries.len()
    );

    let heuristic = Heuristic::default();
    let static_set = heuristic.classify(&analysis, &result.exec_counts);
    println!(
        "\n{:>10} {:>10} {:>12} {:>14} {:>12}",
        "cache", "misses", "replay ms", "ideal-90 |Δ|", "static ρ"
    );
    for (geometry, out) in geometries.iter().zip(&outputs) {
        let stats = &out.result;
        let replay_ms = out.replay_secs * 1e3;
        // Trace-derived ideal set for 90% coverage at this geometry.
        let mut by_miss: Vec<usize> = (0..program.insts.len())
            .filter(|&i| stats.load_misses[i] > 0)
            .collect();
        by_miss.sort_by_key(|&i| std::cmp::Reverse(stats.load_misses[i]));
        let target = stats.load_misses_total * 9 / 10;
        let mut covered = 0;
        let mut ideal = 0;
        for &i in &by_miss {
            if covered >= target {
                break;
            }
            covered += stats.load_misses[i];
            ideal += 1;
        }
        // How much of this geometry's misses does the *static* set cover?
        let static_rho = if stats.load_misses_total == 0 {
            0.0
        } else {
            static_set
                .iter()
                .map(|&i| stats.load_misses[i])
                .sum::<u64>() as f64
                / stats.load_misses_total as f64
        };
        println!(
            "{:>10} {:>10} {:>12.1} {:>14} {:>11.1}%",
            geometry
                .to_string()
                .split_whitespace()
                .next()
                .unwrap_or("?"),
            stats.load_misses_total,
            replay_ms,
            ideal,
            100.0 * static_rho
        );
    }
    println!(
        "\nThe static set was computed once, from assembly; memory profiling \
         needs an execution, and a replay of its trace, for every new \
         configuration."
    );
}
