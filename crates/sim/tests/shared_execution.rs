//! Execute once, model many: one execution replayed into many memory
//! models gives every configuration exactly the output an independent
//! run of it gives — under both engines, for every memory system of
//! the matrix, every geometry of the 8–64 KiB × 2/4/8-way sweep, a
//! site-filtered next-line prefetcher, and each observer (reuse
//! measurement, miss classification, the observatory).
//!
//! The plain models replay the stream stripped by one shared
//! direct-mapped filter, so the list also holds the models that bound
//! it: a direct-mapped L1 behind a 32-set L2 under every policy and
//! both inclusions, and a plain geometry at another block size, which
//! must replay the full stream. A plain configuration run alone strips
//! too, so each one checked alone is also checked against the same
//! configuration measuring reuse, which is not plain and replays every
//! access: the unstripped oracle.

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
    v.extend(filter_bounds(base));
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

/// The plain models that bound the trace filter: an 8 KiB
/// direct-mapped L1 (256 sets) behind a 16 KiB 16-way L2 (32 sets),
/// inclusive under each policy and exclusive under LRU, and a 16 KiB
/// 4-way L1 with 64-byte blocks, at a block size the filter does not
/// run at.
fn filter_bounds(base: &RunConfig) -> Vec<RunConfig> {
    let direct_mapped = CacheConfig::kb(8, 1);
    let l2 = |inclusion| Some(L2Config::kb(16, 16, inclusion));
    let mut v: Vec<RunConfig> = [
        (Policy::Lru, Inclusion::Inclusive),
        (Policy::Plru, Inclusion::Inclusive),
        (Policy::Random, Inclusion::Inclusive),
        (Policy::Lru, Inclusion::Exclusive),
    ]
    .into_iter()
    .map(|(policy, inclusion)| RunConfig {
        cache: direct_mapped,
        memory: MemoryConfig {
            policy,
            l2: l2(inclusion),
            prefetch: None,
        },
        ..base.clone()
    })
    .collect();
    v.push(RunConfig {
        cache: CacheConfig::new(16 * 1024, 4, 64).expect("valid geometry"),
        ..base.clone()
    });
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

/// True when `config`'s model is plain — no prefetcher, classifier,
/// observatory or reuse measurement — and so replays the stripped
/// stream.
fn is_plain(config: &RunConfig) -> bool {
    config.memory.prefetch.is_none()
        && !config.classify_misses
        && config.observe.is_none()
        && !config.reuse_profile
}

/// Models `program` under every configuration of `configs` from one
/// execution per engine and checks each output against an independent
/// block-engine run of that configuration alone — every
/// configuration, or those `checked` picks by index (the two shared
/// executions still agree on all of them). A checked plain
/// configuration's alone result must also equal the result of the
/// same configuration measuring reuse, whose model sees the full
/// stream.
fn assert_shared_equals_alone(
    program: &Program,
    configs: &[RunConfig],
    name: &str,
    checked: impl Fn(usize) -> bool,
) {
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
            if is_plain(config) {
                let unstripped = RunConfig {
                    reuse_profile: true,
                    ..config.clone()
                };
                let oracle = run_full(program, &unstripped).expect("runs clean");
                assert_eq!(
                    alone.result, oracle.result,
                    "{what}: stripped vs unstripped"
                );
            }
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
        let modeled = configs(&program, &base);
        match run_full(&program, &base) {
            Ok(_) => assert_shared_equals_alone(&program, &modeled, "generated", |_| true),
            Err(trap) => assert_eq!(run_many(&program, &modeled).err(), Some(trap)),
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
        let modeled = configs(&program, &base);
        assert_shared_equals_alone(&program, &modeled, bench.name, |i| i % SHARE == w % SHARE);
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

/// Rounds of [`back_invalidation_program`].
const ROUNDS: u64 = 8;

/// Each round loads block A, then 24 blocks 1, 3, …, 47 KiB past it:
/// all in A's set of a 32-set L2, none in A's set of an 8 KiB
/// direct-mapped L1 or of any 64-set filter. An inclusive 16-way L2
/// evicts A and back-invalidates it from the L1 between two of its
/// accesses, so the next round's access to A misses, while a filter
/// finer than the L2 would see only A in its set and drop it.
fn back_invalidation_program() -> Program {
    parse_asm(&format!(
        "main:\n\
         \tlui $a0, 1\n\
         \tli $v0, 9\n\
         \tsyscall\n\
         \tmove $s0, $v0\n\
         \tli $t0, {ROUNDS}\n\
         .Lround:\n\
         \tlw $t1, 0($s0)\n\
         \tli $t2, 1024\n\
         \tli $t3, 24\n\
         .Lsweep:\n\
         \taddu $t4, $s0, $t2\n\
         \tlw $t1, 0($t4)\n\
         \taddiu $t2, $t2, 2048\n\
         \taddiu $t3, $t3, -1\n\
         \tbgtz $t3, .Lsweep\n\
         \taddiu $t0, $t0, -1\n\
         \tbgtz $t0, .Lround\n\
         \tli $v0, 10\n\
         \tli $a0, 0\n\
         \tsyscall\n"
    ))
    .expect("parses")
}

#[test]
fn back_invalidation_between_two_accesses_survives_stripping() {
    let program = back_invalidation_program();
    // Alone with a 64-set L1, the L2 models bound the filter: a
    // filter at the L1's 256 or 64 sets would drop A's accesses.
    let mut configs = vec![RunConfig {
        cache: CacheConfig::paper_baseline(),
        ..RunConfig::default()
    }];
    configs.extend(filter_bounds(&RunConfig::default()));
    assert_shared_equals_alone(&program, &configs, "back-invalidation", |_| true);
    let a = program
        .insts
        .iter()
        .position(|inst| inst.is_load())
        .expect("A's load");
    let out = run_full(&program, &configs[1]).expect("runs clean");
    assert_eq!(
        out.result.load_misses[a], ROUNDS,
        "the inclusive LRU L2 back-invalidates A every round"
    );
    let exclusive = run_full(&program, &configs[4]).expect("runs clean");
    assert_eq!(exclusive.result.load_misses[a], 1, "A stays in the L1");
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
