//! `observed`: the five memory-bound executions of
//! `extension-memmatrix` (O0, input 1), each simulated with the
//! per-site miss observatory and three-Cs classification attached —
//! the instrumented path behind `dlc top`, `dlc run --profile`, and
//! `repro --manifest/--profile`.
//!
//! Looking must not change what is measured: each op's counters must
//! equal the step-engine golden of the same execution, its classified
//! misses must total `dcache_misses`, and its observatory site totals
//! must equal the per-load miss counts.

use std::time::Instant;

use dl_experiments::tables::memmatrix_benches;
use dl_minic::OptLevel;
use dl_sim::{run_full, BlockStats, ObserveConfig, RunConfig, SimOutput};

use super::{
    compile_all, count_block, count_memory, count_programs, program_for, Execution, Programs, Timed,
};
use crate::golden::{self, run_digest, Golden};
use crate::metrics::{proc_status_mb, ratio};
use crate::trace::Tracer;
use crate::{guarded, order, Phase};

/// The memory-matrix executions.
///
/// # Panics
///
/// Panics if a memory-matrix benchmark is not a bundled workload.
#[must_use]
pub fn executions() -> Vec<Execution> {
    memmatrix_benches()
        .into_iter()
        .map(|name| Execution {
            bench: dl_workloads::by_name(name).expect("memory-matrix benchmark is bundled"),
            opt: OptLevel::O0,
            input_set: 1,
        })
        .collect()
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

/// Simulates `executions[i]` observed for each `i` in `order`.
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
            let config = RunConfig {
                classify_misses: true,
                observe: Some(ObserveConfig::default()),
                ..super::exec::config(e)
            };
            tracer.span(
                || format!("observed/{i}:{key}/sim.observed"),
                || run_full(program, &config).map_err(|trap| trap.to_string()),
            )
        });
        let secs = t.elapsed().as_secs_f64();
        phase.time(secs);
        let outcome = outcome.and_then(|out| {
            phase.insts += out.result.instructions;
            phase.add("sim.observed.s", secs);
            count_memory(&mut phase, &out.result);
            if let Some(stats) = &out.block_stats {
                block.merge(stats);
            }
            check(&mut phase, &out)?;
            golden.expect(&key, run_digest(&out.result))
        });
        phase.check(&key, outcome);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.add("rss.after_warm_mb", proc_status_mb("VmRSS"));
    count_programs(&mut phase, programs);
    count_block(&mut phase, &block);
    let sim_secs = phase.counter("sim.observed.s");
    phase.add(
        "sim.observed.insts_per_s",
        ratio(phase.insts as f64, sim_secs),
    );
    phase
}

/// The observers' own consistency: classification and observatory
/// account for exactly the misses the cache counted.
fn check(phase: &mut Phase, out: &SimOutput) -> Result<(), String> {
    let r = &out.result;
    let classes = &r
        .cache_profile
        .as_ref()
        .ok_or("classification missing")?
        .classes;
    let obs = out.observatory.as_ref().ok_or("observatory missing")?;
    phase.add("instr.classified_misses", classes.total() as f64);
    phase.add("instr.epochs", obs.epochs().len() as f64);
    if classes.total() != r.dcache_misses {
        return Err(format!(
            "classified {} misses, cache counted {}",
            classes.total(),
            r.dcache_misses
        ));
    }
    if obs.total_misses() != r.load_misses_total || obs.site_totals() != r.load_misses {
        return Err(format!(
            "observatory saw {} load misses, cache counted {}",
            obs.total_misses(),
            r.load_misses_total
        ));
    }
    Ok(())
}
