//! Execute once, model many: one execution replayed into many memory
//! models gives every configuration exactly the output an independent
//! run of it gives — under both engines, for every memory system of
//! the matrix, every geometry of the 8–64 KiB × 2/4/8-way sweep, a
//! site-filtered next-line prefetcher, and each observer (reuse
//! measurement, miss classification, the observatory).

use dl_minic::OptLevel;
use dl_mips::parse::parse_asm;
use dl_mips::program::Program;
use dl_sim::{
    run_full, run_many, CacheConfig, Engine, Inclusion, L2Config, MemoryConfig, ObserveConfig,
    Policy, Prefetch, RunConfig, SimOutput,
};
use dl_testkit::{cases, progen};

/// Every memory system of the matrix — each policy, alone and behind
/// each L2 inclusion mode, with and without the stride prefetcher — at
/// the paper's baseline L1.
fn memory_matrix() -> Vec<MemoryConfig> {
    let mut configs = Vec::new();
    for policy in [Policy::Lru, Policy::Plru, Policy::Random] {
        for l2 in [
            None,
            Some(L2Config::kb(64, 8, Inclusion::Inclusive)),
            Some(L2Config::kb(64, 8, Inclusion::Exclusive)),
        ] {
            for prefetch in [None, Some(Prefetch::Stride(2))] {
                configs.push(MemoryConfig {
                    policy,
                    l2,
                    prefetch,
                });
            }
        }
    }
    configs
}

/// The configurations one execution of `program` is modeled under.
fn configs(program: &Program, base: &RunConfig) -> Vec<RunConfig> {
    let baseline = CacheConfig::paper_baseline();
    let mut v: Vec<RunConfig> = memory_matrix()
        .into_iter()
        .map(|memory| RunConfig {
            cache: baseline,
            memory,
            ..base.clone()
        })
        .collect();
    for kb in [8, 16, 32, 64] {
        for assoc in [2, 4, 8] {
            v.push(RunConfig {
                cache: CacheConfig::kb(kb, assoc),
                ..base.clone()
            });
        }
    }
    let every_other_load: Vec<usize> = (0..program.insts.len())
        .filter(|&i| program.insts[i].is_load())
        .step_by(2)
        .collect();
    let stride = MemoryConfig {
        prefetch: Some(Prefetch::Stride(2)),
        ..MemoryConfig::default()
    };
    v.extend([
        RunConfig {
            cache: baseline,
            memory: MemoryConfig {
                prefetch: Some(Prefetch::NextLine(1)),
                ..MemoryConfig::default()
            },
            prefetch_sites: Some(every_other_load),
            ..base.clone()
        },
        RunConfig {
            cache: baseline,
            reuse_profile: true,
            ..base.clone()
        },
        RunConfig {
            cache: CacheConfig::kb(8, 2),
            classify_misses: true,
            ..base.clone()
        },
        RunConfig {
            cache: baseline,
            memory: stride,
            classify_misses: true,
            observe: Some(ObserveConfig { epoch_len: 1 << 10 }),
            ..base.clone()
        },
        RunConfig {
            cache: baseline,
            observe: Some(ObserveConfig { epoch_len: 1 << 10 }),
            reuse_profile: true,
            ..base.clone()
        },
    ]);
    v
}

/// Everything deterministic two outputs of one configuration must
/// share: the measurement record and every observer's findings.
fn assert_same_output(shared: &SimOutput, alone: &SimOutput, what: &str) {
    assert_eq!(shared.result, alone.result, "{what}: result");
    assert_eq!(
        shared.observatory.as_ref().map(|o| o.epochs().to_vec()),
        alone.observatory.as_ref().map(|o| o.epochs().to_vec()),
        "{what}: observatory"
    );
    let histograms = |out: &SimOutput| {
        out.reuse.as_ref().map(|r| {
            r.sites()
                .iter()
                .map(|s| (s.cold, s.buckets))
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(histograms(shared), histograms(alone), "{what}: reuse");
}

/// Models `program` under every configuration from one execution per
/// engine and checks each output against an independent block-engine
/// run of that configuration alone — every configuration, or those
/// `checked` picks by index (the two shared executions still agree on
/// all of them).
fn assert_shared_equals_alone(
    program: &Program,
    base: &RunConfig,
    name: &str,
    checked: impl Fn(usize) -> bool,
) {
    let configs = configs(program, base);
    let shared: Vec<Vec<SimOutput>> = [Engine::Step, Engine::Block]
        .into_iter()
        .map(|engine| {
            let on_engine: Vec<RunConfig> = configs
                .iter()
                .map(|config| RunConfig {
                    engine,
                    ..config.clone()
                })
                .collect();
            run_many(program, &on_engine).expect("runs clean")
        })
        .collect();
    for (i, config) in configs.iter().enumerate() {
        let (step, block) = (&shared[0][i], &shared[1][i]);
        let what = format!("{name}, config {i}");
        assert_same_output(step, block, &format!("{what}, step vs block"));
        if checked(i) {
            let alone = run_full(program, config).expect("runs clean");
            assert_same_output(block, &alone, &format!("{what}, shared vs alone"));
            assert_eq!(block.block_stats, alone.block_stats, "{what}: block stats");
        }
    }
}

#[test]
fn generated_programs_model_every_configuration_from_one_execution() {
    cases(12, 0x5AA3_ED01, |rng| {
        let source = if rng.chance(0.5) {
            progen::arb_pattern_program(rng)
        } else {
            progen::arb_stack_heavy_program(rng)
        };
        let program = parse_asm(&source).expect("generated asm parses");
        let base = RunConfig {
            max_steps: 200_000,
            ..RunConfig::default()
        };
        // A generated program may hit the step limit; every config of
        // one execution must then trap alike, shared or alone.
        match run_full(&program, &base) {
            Ok(_) => assert_shared_equals_alone(&program, &base, "generated", |_| true),
            Err(trap) => assert_eq!(
                run_many(&program, &configs(&program, &base)).err(),
                Some(trap)
            ),
        }
    });
}

/// Checks the bundled workloads at smoke inputs whose position in the
/// suite is `half` modulo 2. Each checks a rotating sixth of the
/// configurations against independent runs, so the suite as a whole
/// checks every configuration several times over while staying
/// affordable in debug builds.
fn check_bundled_workloads(half: usize) {
    const SHARE: usize = 6;
    let benches = dl_workloads::all()
        .into_iter()
        .chain(dl_workloads::extension_benchmarks());
    for (w, bench) in benches.enumerate().filter(|(w, _)| w % 2 == half) {
        let bench = bench.smoke();
        let program = bench.compile(OptLevel::O0).expect("workload compiles");
        let base = RunConfig {
            input: bench.input1.clone(),
            ..RunConfig::default()
        };
        assert_shared_equals_alone(&program, &base, bench.name, |i| i % SHARE == w % SHARE);
    }
}

// The suite splits in two so the halves run in parallel.
#[test]
fn bundled_workloads_model_every_configuration_from_one_execution() {
    check_bundled_workloads(0);
}

#[test]
fn more_bundled_workloads_model_every_configuration_from_one_execution() {
    check_bundled_workloads(1);
}

#[test]
#[should_panic(expected = "share input, seed, step limit and engine")]
fn configs_of_different_executions_are_refused() {
    let program = parse_asm(&progen::strided_scan_program(8, 64)).unwrap();
    let other_input = RunConfig {
        input: vec![1],
        ..RunConfig::default()
    };
    let _ = run_many(&program, &[RunConfig::default(), other_input]);
}
