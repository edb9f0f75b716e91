//! Differential property tests: the block-cached engine must be
//! observationally identical to the reference `step()` interpreter on
//! arbitrary programs — same `RunResult` byte for byte (including
//! `exec_counts` and three-Cs classes), same trap at the same
//! instruction, same `TraceRecord` stream, under every configuration
//! (step limits, tracing, prefetch, miss classification).

use dl_mips::parse::parse_asm;
use dl_mips::program::Program;
use dl_sim::trace::capture_trace;
use dl_sim::{
    run, run_full, CacheConfig, Engine, Inclusion, L2Config, MemoryConfig, ObserveConfig, Policy,
    Prefetch, RunConfig, RunResult, Trap,
};
use dl_testkit::{cases, progen, Rng};

/// A random multi-function program rich in memory traffic and control
/// flow: stack reloads, register-based dereferences, global accesses,
/// pointer arithmetic, stores, division (trap potential), calls, and
/// arbitrary branch/jump structure — the input space over which the
/// two engines could plausibly diverge.
fn arb_program(rng: &mut Rng) -> Program {
    let nfuncs = 1 + rng.index(3);
    let mut s = String::new();
    for fi in 0..nfuncs {
        if fi == 0 {
            s.push_str("main:\n");
        } else {
            s.push_str(&format!("f{fi}:\n"));
        }
        let nblocks = 1 + rng.index(4);
        for b in 0..nblocks {
            s.push_str(&format!(".L{fi}_{b}:\n"));
            for _ in 0..1 + rng.index(6) {
                let (d, a, c) = (rng.index(8), rng.index(8), rng.index(8));
                match rng.index(10) {
                    0 => s.push_str(&format!("\tlw $t{d}, {}($sp)\n", 4 * rng.index(16))),
                    1 => s.push_str(&format!("\tlw $t{d}, {}($t{a})\n", 4 * rng.index(8))),
                    2 => s.push_str(&format!("\tlw $t{d}, {}($gp)\n", 4 * rng.index(16))),
                    3 => s.push_str(&format!(
                        "\taddiu $t{d}, $t{a}, {}\n",
                        rng.range_i32(-8, 64)
                    )),
                    4 => s.push_str(&format!("\tsll $t{d}, $t{a}, {}\n", 1 + rng.index(3))),
                    5 => s.push_str(&format!("\tli $t{d}, {}\n", rng.index(4096))),
                    6 => s.push_str(&format!("\tsw $t{d}, {}($sp)\n", 4 * rng.index(16))),
                    7 => s.push_str(&format!("\tslt $t{d}, $t{a}, $t{c}\n")),
                    8 => s.push_str(&format!("\tdiv $t{d}, $t{a}, $t{c}\n")),
                    _ => s.push_str(&format!("\taddu $t{d}, $t{a}, $t{c}\n")),
                }
            }
            let target = rng.index(nblocks);
            match rng.index(5) {
                0 => {}
                1 => s.push_str(&format!("\tj .L{fi}_{target}\n")),
                2 if nfuncs > 1 => s.push_str(&format!("\tjal f{}\n", 1 + rng.index(nfuncs - 1))),
                3 => s.push_str(&format!(
                    "\tslt $t{}, $t{}, $t{}\n\tbeq $t0, $zero, .L{fi}_{target}\n",
                    rng.index(2),
                    rng.index(8),
                    rng.index(8)
                )),
                _ => s.push_str(&format!(
                    "\tbne $t{}, $zero, .L{fi}_{target}\n",
                    rng.index(8)
                )),
            }
        }
        s.push_str("\tjr $ra\n");
    }
    parse_asm(&s).expect("generated asm parses")
}

/// Runs `program` under both engines with otherwise identical
/// configuration and asserts the outcomes are identical — the
/// `RunResult` on success (full structural equality: every counter,
/// every per-site table), the `Trap` on failure.
fn assert_engines_agree(program: &Program, base: &RunConfig) -> Result<RunResult, Trap> {
    let step = run(
        program,
        &RunConfig {
            engine: Engine::Step,
            ..base.clone()
        },
    );
    let block = run(
        program,
        &RunConfig {
            engine: Engine::Block,
            ..base.clone()
        },
    );
    assert_eq!(step, block, "engines diverge");
    block
}

#[test]
fn random_programs_agree_across_engines() {
    let mut trapped = 0u32;
    let mut completed = 0u32;
    cases(60, 0xB10C_D1FF, |rng| {
        let program = arb_program(rng);
        // Small random step limits exercise mid-block splitting; the
        // larger ones let short programs complete.
        let max_steps = match rng.index(3) {
            0 => 1 + rng.below(50),
            1 => 1 + rng.below(5_000),
            _ => 200_000,
        };
        let config = RunConfig {
            max_steps,
            input: vec![rng.range_i32(-4, 100); 4],
            ..RunConfig::default()
        };
        match assert_engines_agree(&program, &config) {
            Ok(_) => completed += 1,
            Err(_) => trapped += 1,
        }
    });
    // The generator must exercise both outcomes or the test is weaker
    // than it claims.
    assert!(completed > 0, "no random program ran to completion");
    assert!(trapped > 0, "no random program trapped");
}

#[test]
fn random_programs_agree_with_classification() {
    cases(20, 0x3C15, |rng| {
        let program = arb_program(rng);
        let config = RunConfig {
            max_steps: 100_000,
            classify_misses: true,
            cache: CacheConfig::kb(8, 2),
            ..RunConfig::default()
        };
        if let Ok(result) = assert_engines_agree(&program, &config) {
            // Classification must actually have run for the equality
            // to mean anything.
            assert!(result.cache_profile.is_some());
            assert!(result.load_miss_classes.is_some());
        }
    });
}

#[test]
fn random_programs_agree_with_prefetch() {
    cases(20, 0x9F37, |rng| {
        let program = arb_program(rng);
        let sites: Vec<usize> = (0..program.insts.len())
            .filter(|_| rng.index(4) == 0)
            .collect();
        let config = RunConfig {
            max_steps: 100_000,
            memory: MemoryConfig {
                prefetch: Some(Prefetch::NextLine(1)),
                ..MemoryConfig::default()
            },
            prefetch_sites: Some(sites),
            ..RunConfig::default()
        };
        let _ = assert_engines_agree(&program, &config);
    });
}

#[test]
fn random_programs_agree_on_traces() {
    cases(30, 0x7AACE, |rng| {
        let program = arb_program(rng);
        let mk = |engine| RunConfig {
            max_steps: 100_000,
            engine,
            ..RunConfig::default()
        };
        let step = capture_trace(&program, &mk(Engine::Step));
        let block = capture_trace(&program, &mk(Engine::Block));
        match (step, block) {
            (Ok((st, sr)), Ok((bt, br))) => {
                assert_eq!(st, bt, "trace streams diverge");
                assert_eq!(sr, br, "traced results diverge");
            }
            (Err(st), Err(bt)) => assert_eq!(st, bt, "traps diverge under tracing"),
            (s, b) => panic!("one engine trapped, the other did not: {s:?} vs {b:?}"),
        }
    });
}

/// Stack-slot-heavy programs — dense `$sp`-relative runs whose
/// accesses mostly hit the same line — agree with the step engine,
/// including when a small `max_steps` limit lands in the middle of a
/// decoded block. These programs raise no trap other than `StepLimit`
/// by construction, so any other divergence or fault is an engine bug.
#[test]
fn stack_heavy_programs_agree_including_mid_block_limits() {
    let mut completed = 0u32;
    let mut limited = 0u32;
    cases(40, 0x57AC_C0A1, |rng| {
        let program = parse_asm(&progen::arb_stack_heavy_program(rng)).unwrap();
        // Tiny limits land inside a run of slot accesses (forcing the
        // exact-step replay path); the large tier lets the loop finish
        // so whole blocks retire on the fast path.
        let max_steps = match rng.index(3) {
            0 => 1 + rng.below(40),
            1 => 1 + rng.below(400),
            _ => 200_000,
        };
        let config = RunConfig {
            max_steps,
            ..RunConfig::default()
        };
        match assert_engines_agree(&program, &config) {
            Ok(_) => completed += 1,
            Err(Trap::StepLimit { .. }) => limited += 1,
            Err(t) => panic!("stack-heavy program must only step-limit, got {t:?}"),
        }
    });
    assert!(completed > 0, "no stack-heavy program completed");
    assert!(limited > 0, "no limit landed mid-program");
}

/// `max_steps` is exact inside a run of same-line accesses: a limit
/// landing on each of four same-line `$sp` loads and a store must
/// report `StepLimit` at precisely that instruction count, agreeing
/// with the step engine.
#[test]
fn step_limit_is_exact_mid_same_line_run() {
    let program = parse_asm(
        "main:\n\tlw $t0, 0($sp)\n\tlw $t1, 4($sp)\n\tlw $t2, 8($sp)\n\tlw $t3, 12($sp)\n\tsw $t0, 0($sp)\n\tjr $ra\n",
    )
    .unwrap();
    // 6 instructions total (including jr).
    for limit in 1..=5 {
        let config = RunConfig {
            max_steps: limit,
            ..RunConfig::default()
        };
        assert_eq!(
            assert_engines_agree(&program, &config),
            Err(Trap::StepLimit { limit }),
            "limit {limit} not exact mid-run"
        );
    }
    let config = RunConfig {
        max_steps: 6,
        ..RunConfig::default()
    };
    assert_engines_agree(&program, &config).expect("exactly enough steps");
}

/// `max_steps` is exact under the block engine: a limit landing in the
/// middle of a decoded block must report `StepLimit` without running
/// past it, and a limit of exactly the program length must succeed.
#[test]
fn step_limit_is_exact_mid_block() {
    let program =
        parse_asm("main:\n\tli $t0, 1\n\tli $t1, 2\n\tli $t2, 3\n\tli $t3, 4\n\tjr $ra\n").unwrap();
    // 5 instructions total (including jr).
    for limit in 1..=4 {
        let config = RunConfig {
            max_steps: limit,
            engine: Engine::Block,
            ..RunConfig::default()
        };
        assert_eq!(
            run(&program, &config),
            Err(Trap::StepLimit { limit }),
            "limit {limit} not exact"
        );
    }
    let config = RunConfig {
        max_steps: 5,
        engine: Engine::Block,
        ..RunConfig::default()
    };
    run(&program, &config).expect("exactly enough steps");
}

/// Traps attribute to the precise instruction index under the block
/// engine, even when the faulting instruction sits mid-block after
/// fusable neighbours.
#[test]
fn traps_attribute_to_exact_instruction() {
    // Index 2 divides by zero ($t9 is never written).
    let program =
        parse_asm("main:\n\tli $t0, 7\n\tli $t1, 3\n\tdiv $t2, $t0, $t9\n\tjr $ra\n").unwrap();
    for engine in [Engine::Step, Engine::Block] {
        let config = RunConfig {
            engine,
            ..RunConfig::default()
        };
        assert_eq!(
            run(&program, &config),
            Err(Trap::DivByZero { at: 2 }),
            "wrong attribution under {engine}"
        );
    }

    // Index 1 loads from an unmapped address.
    let program = parse_asm("main:\n\tli $t0, 64\n\tlw $t1, 0($t0)\n\tjr $ra\n").unwrap();
    for engine in [Engine::Step, Engine::Block] {
        let config = RunConfig {
            engine,
            ..RunConfig::default()
        };
        match run(&program, &config) {
            Err(Trap::Mem { at: 1, .. }) => {}
            other => panic!("expected mem trap at 1 under {engine}, got {other:?}"),
        }
    }
}

/// Every memory-system configuration the matrix table sweeps: each
/// policy, alone and behind each L2 inclusion mode, with and without
/// the stride prefetcher.
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

/// Step ≡ block across the full policy × hierarchy × prefetch matrix,
/// on access patterns chosen to actually stress each dimension
/// (strided scans train the prefetcher and sweep PLRU sets, pointer
/// chases defeat it, random programs cover the rest).
#[test]
fn memory_matrix_agrees_across_engines() {
    let mut programs: Vec<Program> = vec![
        parse_asm(&progen::strided_scan_program(16, 600)).unwrap(),
        parse_asm(&progen::pointer_chase_program(48, 40, 4)).unwrap(),
    ];
    let mut rng = Rng::new(0x00AB_5E11);
    for _ in 0..2 {
        programs.push(arb_program(&mut rng));
    }
    // Dense same-line slot traffic must agree under every policy/
    // hierarchy/prefetch configuration, not just the default walk.
    programs.push(parse_asm(&progen::arb_stack_heavy_program(&mut rng)).unwrap());
    for memory in memory_matrix() {
        for (pi, program) in programs.iter().enumerate() {
            let config = RunConfig {
                max_steps: 100_000,
                cache: CacheConfig::kb(8, 4),
                memory,
                ..RunConfig::default()
            };
            // Random programs may legitimately trap; engine agreement
            // on the trap is already asserted inside the helper.
            if let Ok(result) = assert_engines_agree(program, &config) {
                if memory.l2.is_some() {
                    assert_eq!(
                        result.l2_hits + result.l2_misses,
                        result.dcache_misses + result.prefetch_fills,
                        "L2 sees every L1 fill ({memory}, program {pi})"
                    );
                }
                result
                    .check_consistency()
                    .unwrap_or_else(|e| panic!("{memory}, program {pi}: {e}"));
            }
        }
    }
}

/// Rich-config runs must not perturb the measurement record relative
/// to a plain run when observability is layered on: classification +
/// observatory + matrix config still equals the bare matrix run, and
/// the observatory's per-site epoch totals equal the bare run's
/// per-site misses. The stack-heavy inputs also run under the plain
/// L1, where the bare run takes the batched fast path and the
/// observed run the instrumented one.
#[test]
fn matrix_observability_is_zero_perturbation() {
    let rich_memories = [
        MemoryConfig {
            policy: Policy::Plru,
            l2: Some(L2Config::kb(64, 8, Inclusion::Exclusive)),
            prefetch: None,
        },
        MemoryConfig {
            policy: Policy::Random,
            l2: Some(L2Config::kb(64, 8, Inclusion::Inclusive)),
            prefetch: Some(Prefetch::Stride(2)),
        },
    ];
    let scan = parse_asm(&progen::strided_scan_program(8, 500)).unwrap();
    let mut inputs: Vec<(Program, CacheConfig, MemoryConfig)> = rich_memories
        .iter()
        .map(|&memory| (scan.clone(), CacheConfig::default(), memory))
        .collect();
    let mut rng = Rng::new(0x0B5E_EE01);
    for _ in 0..8 {
        let program = parse_asm(&progen::arb_stack_heavy_program(&mut rng)).unwrap();
        for memory in [MemoryConfig::default(), rich_memories[0], rich_memories[1]] {
            inputs.push((program.clone(), CacheConfig::kb(8, 2), memory));
        }
    }
    let mut stack_heavy_misses = false;
    for (i, (program, cache, memory)) in inputs.iter().enumerate() {
        let plain = RunConfig {
            max_steps: 100_000,
            cache: *cache,
            memory: *memory,
            ..RunConfig::default()
        };
        let bare = assert_engines_agree(program, &plain).expect("bare run completes");
        let observed = RunConfig {
            classify_misses: true,
            observe: Some(ObserveConfig::default()),
            ..plain.clone()
        };
        let rich = assert_engines_agree(program, &observed).expect("observed run completes");
        let at = format!("{memory}, input {i}");
        assert_eq!(rich.load_misses, bare.load_misses, "{at}");
        assert_eq!(rich.load_hits, bare.load_hits, "{at}");
        assert_eq!(rich.l2_hits, bare.l2_hits, "{at}");
        assert_eq!(rich.l2_misses, bare.l2_misses, "{at}");
        assert_eq!(rich.prefetch_fills, bare.prefetch_fills, "{at}");
        assert_eq!(rich.prefetch_useful, bare.prefetch_useful, "{at}");
        assert!(rich.cache_profile.is_some());
        let obs = run_full(program, &observed)
            .unwrap()
            .observatory
            .expect("observatory collected");
        assert_eq!(obs.site_totals(), bare.load_misses, "observatory, {at}");
        stack_heavy_misses |= i >= rich_memories.len() && bare.load_misses_total > 0;
    }
    assert!(
        stack_heavy_misses,
        "every stack-heavy program ran miss-free"
    );
}

/// A set-thrashing kernel: five loads per trip, four of them 4 KiB
/// apart, so they share one set of a small L1 and the first slot's
/// line is evicted and refetched every trip.
fn thrash_program() -> Program {
    parse_asm(
        "main:\n\
         \taddiu $sp, $sp, -16384\n\
         \tli $s0, 300\n\
         .Lthrash:\n\
         \tlw $t0, 0($sp)\n\
         \tlw $t1, 4096($sp)\n\
         \tlw $t2, 8192($sp)\n\
         \tlw $t3, 12288($sp)\n\
         \tlw $t4, 0($sp)\n\
         \taddiu $s0, $s0, -1\n\
         \tbgtz $s0, .Lthrash\n\
         \tli $v0, 10\n\
         \tli $a0, 0\n\
         \tsyscall\n",
    )
    .unwrap()
}

/// Step ≡ block on a kernel that evicts on every trip, under each
/// replacement policy at 8 KiB 2-way. (The memory matrix above runs
/// 4-way, where four lines 4 KiB apart fit in one set.)
#[test]
fn set_thrash_agrees_across_engines_under_every_policy() {
    let program = thrash_program();
    for policy in [Policy::Lru, Policy::Plru, Policy::Random] {
        let config = RunConfig {
            cache: CacheConfig::kb(8, 2),
            memory: MemoryConfig {
                policy,
                ..MemoryConfig::default()
            },
            ..RunConfig::default()
        };
        let result = assert_engines_agree(&program, &config).expect("thrash kernel completes");
        // The agreement is vacuous unless the kernel actually evicts:
        // the thrashed slot must re-miss on (nearly) every trip.
        assert!(
            result.load_misses_total >= 300,
            "kernel failed to thrash under {policy:?}: {} misses",
            result.load_misses_total
        );
    }
}

/// The stride prefetcher must demonstrably hide misses on a strided
/// scan (trained per-PC), and win nothing on a pointer chase whose
/// address stream carries no stride.
#[test]
fn stride_prefetcher_hides_streaming_misses_only() {
    let prefetch = MemoryConfig {
        prefetch: Some(Prefetch::Stride(2)),
        ..MemoryConfig::default()
    };
    let scan = parse_asm(&progen::strided_scan_program(32, 900)).unwrap();
    let base = run(&scan, &RunConfig::default()).unwrap();
    let pf = run(
        &scan,
        &RunConfig {
            memory: prefetch,
            ..RunConfig::default()
        },
    )
    .unwrap();
    assert!(base.load_misses_total > 500, "scan misses in the base run");
    assert!(
        pf.load_misses_total * 4 <= base.load_misses_total,
        "stride prefetch barely helped: {} vs {}",
        pf.load_misses_total,
        base.load_misses_total
    );
    assert!(pf.prefetch_useful > 0);

    let chase = parse_asm(&progen::pointer_chase_program(64, 400, 2)).unwrap();
    let base = run(&chase, &RunConfig::default()).unwrap();
    let pf = run(
        &chase,
        &RunConfig {
            memory: prefetch,
            ..RunConfig::default()
        },
    )
    .unwrap();
    // The chasing site's address stream is load-fed: misses on the
    // walk may not improve beyond what the (strided) build phase and
    // payload loads earn.
    assert!(
        pf.load_misses_total * 10 >= base.load_misses_total * 7,
        "pointer chase should not be prefetchable: {} vs {}",
        pf.load_misses_total,
        base.load_misses_total
    );
}

/// Random replacement is seeded from `RunConfig::seed`: identical
/// seeds agree byte-for-byte across engines (already swept above) and
/// across repeated runs; different seeds genuinely change evictions.
#[test]
fn random_policy_is_seed_deterministic() {
    let program = parse_asm(&progen::strided_scan_program(32, 800)).unwrap();
    let mk = |seed: u64, engine| RunConfig {
        seed,
        engine,
        cache: CacheConfig::kb(8, 4),
        memory: MemoryConfig {
            policy: Policy::Random,
            ..MemoryConfig::default()
        },
        ..RunConfig::default()
    };
    let a = run(&program, &mk(7, Engine::Block)).unwrap();
    let b = run(&program, &mk(7, Engine::Block)).unwrap();
    let c = run(&program, &mk(7, Engine::Step)).unwrap();
    assert_eq!(a, b, "same seed must reproduce");
    assert_eq!(a, c, "seeded randomness diverges across engines");
    // A footprint larger than the cache re-walked twice: eviction
    // order (hence misses) depends on the random victim stream.
    let wide = parse_asm(&progen::pointer_chase_program(32, 900, 3)).unwrap();
    let x = run(&wide, &mk(7, Engine::Block)).unwrap();
    let y = run(&wide, &mk(8, Engine::Block)).unwrap();
    assert_ne!(
        x.load_misses_total, y.load_misses_total,
        "different seeds should visibly change random evictions"
    );
}

#[test]
fn engine_parse_and_names() {
    assert_eq!("step".parse::<Engine>(), Ok(Engine::Step));
    assert_eq!("BLOCK".parse::<Engine>(), Ok(Engine::Block));
    assert!("jit".parse::<Engine>().is_err());
    assert_eq!(Engine::Step.name(), "step");
    assert_eq!(Engine::Block.name(), "block");
    assert_eq!(Engine::default(), Engine::Block);
    assert_eq!(Engine::Block.to_string(), "block");
}
