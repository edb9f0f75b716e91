//! `exec`: the 43 distinct (benchmark, opt, input) executions behind
//! the tables, each simulated once per pass under the paper-baseline
//! 8 KiB L1 and the default memory system, with no memo and no
//! observation — what one `dlc run` does. One configuration per
//! execution leaves nothing to share, so this is the bypass case for
//! any execute-once, model-many design.

use std::collections::HashSet;
use std::time::Instant;

use dl_experiments::schedule::union_specs;
use dl_experiments::tables::all_tables;
use dl_sim::{run_with_stats, BlockStats, CacheConfig, RunConfig};

use super::{
    compile_all, count_block, count_memory, count_programs, program_for, Execution, Programs, Timed,
};
use crate::golden::{self, run_digest, Golden};
use crate::metrics::{proc_status_mb, ratio};
use crate::trace::Tracer;
use crate::{guarded, order, Phase};

/// The distinct executions the 24 tables simulate, in the order the
/// tables first request them.
#[must_use]
pub fn executions() -> Vec<Execution> {
    let names: Vec<&str> = all_tables().iter().map(|(name, _)| *name).collect();
    let mut seen = HashSet::new();
    union_specs(names)
        .into_iter()
        .filter(|s| seen.insert((s.bench.name, s.opt, s.input_set)))
        .map(|s| Execution {
            bench: s.bench,
            opt: s.opt,
            input_set: s.input_set,
        })
        .collect()
}

/// The run configuration of one `exec` op.
#[must_use]
pub fn config(e: &Execution) -> RunConfig {
    RunConfig {
        cache: CacheConfig::paper_baseline(),
        input: e.bench.input(e.input_set).to_vec(),
        ..RunConfig::default()
    }
}

pub(super) fn prepare(seed: u64, passes: usize, tracer: &Tracer) -> Timed {
    let executions = executions();
    let order = order::passes(executions.len(), passes, seed);
    let programs = compile_all(&executions, tracer);
    Box::new(move |tracer| {
        let golden = Golden::parse(golden::EXEC);
        run(&executions, &order, &programs, &golden, tracer)
    })
}

/// Simulates `executions[i]` for each `i` in `order`, checking each
/// result against `golden`.
#[must_use]
pub fn run(
    executions: &[Execution],
    order: &[usize],
    programs: &Programs,
    golden: &Golden,
    tracer: &Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let mut block = BlockStats::default();
    let start = Instant::now();
    for (i, &k) in order.iter().enumerate() {
        let e = &executions[k];
        let key = e.key();
        let t = Instant::now();
        let outcome = guarded(|| {
            let program = program_for(programs, e)?;
            let config = config(e);
            tracer.span(
                || format!("exec/{i}:{key}/sim.plain"),
                || run_with_stats(program, &config).map_err(|trap| trap.to_string()),
            )
        });
        let secs = t.elapsed().as_secs_f64();
        phase.time(secs);
        let outcome = outcome.and_then(|(result, stats)| {
            if let Some(stats) = stats {
                block.merge(&stats);
            }
            phase.insts += result.instructions;
            phase.add("sim.plain.s", secs);
            count_memory(&mut phase, &result);
            golden.expect(&key, run_digest(&result))
        });
        phase.check(&key, outcome);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.add("rss.after_warm_mb", proc_status_mb("VmRSS"));
    count_programs(&mut phase, programs);
    count_block(&mut phase, &block);
    let sim_secs = phase.counter("sim.plain.s");
    phase.add("sim.plain.insts_per_s", ratio(phase.insts as f64, sim_secs));
    phase
}
