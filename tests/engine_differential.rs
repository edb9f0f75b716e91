//! Engine equivalence on the real workload suite: every bundled
//! benchmark, at both optimization levels, must produce a
//! byte-identical `RunResult` under the step and block engines — and
//! the three-Cs miss classification must survive the comparison on a
//! classified subset.

use delinquent_loads::prelude::*;
use delinquent_loads::workloads::Benchmark;
use dl_sim::{
    run_full, Engine, Inclusion, L2Config, MemoryConfig, ObserveConfig, Policy, Prefetch,
};

/// Reduced inputs so the whole suite runs in seconds even unoptimized
/// (mirrors `workloads_smoke.rs`).
fn small_inputs(b: &Benchmark) -> Vec<i32> {
    match b.name {
        "008.espresso" => vec![48, 24, 1],
        "022.li" => vec![400, 2, 5],
        "072.sc" => vec![12, 10, 2],
        "099.go" => vec![2, 2, 3],
        "101.tomcatv" => vec![16, 2],
        "124.m88ksim" => vec![2000, 7],
        "126.gcc" => vec![8, 6, 2],
        "129.compress" => vec![2000, 3],
        "132.ijpeg" => vec![3, 2],
        "147.vortex" => vec![128, 2],
        "164.gzip" => vec![2000, 3],
        "175.vpr" => vec![10, 500, 3],
        "179.art" => vec![8, 1000, 3],
        "181.mcf" => vec![64, 128, 2],
        "183.equake" => vec![64, 4, 2],
        "188.ammp" => vec![64, 4, 2],
        "197.parser" => vec![400, 3],
        "300.twolf" => vec![10, 500, 2],
        other => panic!("unknown benchmark {other}"),
    }
}

fn run_engine(program: &Program, input: &[i32], engine: Engine, classify: bool) -> RunResult {
    let config = RunConfig {
        input: input.to_vec(),
        max_steps: 200_000_000,
        engine,
        classify_misses: classify,
        ..RunConfig::default()
    };
    run(program, &config).expect("workload runs clean")
}

#[test]
fn all_workloads_identical_across_engines() {
    for b in delinquent_loads::workloads::all() {
        let input = small_inputs(&b);
        for opt in [OptLevel::O0, OptLevel::O1] {
            let program = b.compile(opt).expect("workload compiles");
            let step = run_engine(&program, &input, Engine::Step, false);
            let block = run_engine(&program, &input, Engine::Block, false);
            assert_eq!(step, block, "{} diverges across engines at {opt}", b.name);
        }
    }
}

/// Miss classification routes the block engine through its per-access
/// slow path; the three-Cs breakdown and per-set histograms must still
/// match the reference engine exactly.
#[test]
fn classified_workloads_identical_across_engines() {
    for b in delinquent_loads::workloads::all() {
        if !matches!(b.name, "129.compress" | "181.mcf" | "101.tomcatv") {
            continue;
        }
        let input = small_inputs(&b);
        let program = b.compile(OptLevel::O1).expect("workload compiles");
        let step = run_engine(&program, &input, Engine::Step, true);
        let block = run_engine(&program, &input, Engine::Block, true);
        assert_eq!(
            step, block,
            "{} classified run diverges across engines",
            b.name
        );
        let profile = block.cache_profile.as_ref().expect("profile collected");
        assert!(
            profile.classes.total() > 0,
            "{} classified no misses",
            b.name
        );
    }
}

/// A sample of the memory-system matrix ({policy} × {L1 only, +L2
/// inclusive, +L2 exclusive} × {prefetch off/on}) on the memory-bound
/// extension workloads: every configuration must produce a
/// byte-identical `RunResult` under both engines, and the per-level
/// counters must stay self-consistent.
#[test]
fn extension_workloads_identical_across_engines_under_memory_matrix() {
    let configs = [
        MemoryConfig::default(),
        MemoryConfig {
            policy: Policy::Plru,
            ..MemoryConfig::default()
        },
        MemoryConfig {
            policy: Policy::Random,
            l2: Some(L2Config::kb(64, 8, Inclusion::Inclusive)),
            ..MemoryConfig::default()
        },
        MemoryConfig {
            l2: Some(L2Config::kb(64, 8, Inclusion::Exclusive)),
            prefetch: Some(Prefetch::Stride(2)),
            ..MemoryConfig::default()
        },
        MemoryConfig {
            prefetch: Some(Prefetch::Stride(4)),
            ..MemoryConfig::default()
        },
    ];
    for b in delinquent_loads::workloads::extension_benchmarks() {
        let input: Vec<i32> = b.input2.iter().map(|v| (*v).clamp(1, 64)).collect();
        let program = b.compile(OptLevel::O1).expect("workload compiles");
        for memory in configs {
            let config = |engine| RunConfig {
                input: input.clone(),
                max_steps: 200_000_000,
                engine,
                memory,
                ..RunConfig::default()
            };
            let step = run(&program, &config(Engine::Step)).expect("workload runs clean");
            let block = run(&program, &config(Engine::Block)).expect("workload runs clean");
            assert_eq!(
                step, block,
                "{} diverges across engines under {memory}",
                b.name
            );
            block
                .check_consistency()
                .unwrap_or_else(|e| panic!("{} inconsistent under {memory}: {e}", b.name));
        }
    }
}

/// With a prefetcher configured, the observatory's hidden-miss ledger
/// (the `dlc top` "hidden" column) must reconcile with the simulator's
/// `prefetch_useful` counter under both engines: the ledger covers the
/// *load* hits on prefetched lines, so it is bounded by the counter
/// (stores that first-touch a prefetched line count as useful but have
/// no load site), and the per-site totals must be engine-invariant.
#[test]
fn hidden_miss_ledger_matches_prefetch_counters() {
    let memory = MemoryConfig {
        prefetch: Some(Prefetch::Stride(2)),
        ..MemoryConfig::default()
    };
    let mut hidden_somewhere = false;
    for b in delinquent_loads::workloads::extension_benchmarks() {
        let input: Vec<i32> = b.input2.iter().map(|v| (*v).clamp(1, 64)).collect();
        let program = b.compile(OptLevel::O1).expect("workload compiles");
        let observe = |engine| {
            let config = RunConfig {
                input: input.clone(),
                max_steps: 200_000_000,
                engine,
                memory,
                observe: Some(ObserveConfig { epoch_len: 1 << 12 }),
                ..RunConfig::default()
            };
            run_full(&program, &config).expect("workload runs clean")
        };
        let step = observe(Engine::Step);
        let block = observe(Engine::Block);
        assert_eq!(step.result, block.result, "{}: engines diverge", b.name);
        let step_obs = step.observatory.as_ref().expect("observe configured");
        let block_obs = block.observatory.as_ref().expect("observe configured");
        assert_eq!(
            step_obs.hidden_totals(),
            block_obs.hidden_totals(),
            "{}: hidden ledger diverges across engines",
            b.name
        );
        for out in [&step, &block] {
            let obs = out.observatory.as_ref().expect("observe configured");
            assert!(
                obs.total_hidden() <= out.result.prefetch_useful,
                "{}: hidden load ledger exceeds prefetch_useful",
                b.name
            );
        }
        hidden_somewhere |= block_obs.total_hidden() > 0;
    }
    assert!(
        hidden_somewhere,
        "no extension workload had a load hidden by prefetch"
    );
}
