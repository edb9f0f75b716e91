//! `tables`: regenerate all 24 tables exactly as `repro --jobs 1 all`
//! does, once per pass, each time with a fresh `Pipeline`. The union
//! of every table's configurations (213 over 43 distinct executions)
//! is warmed at one worker in seeded order, one op per configuration;
//! then `experiments_doc` renders the document, one op per table, and
//! every section must match the committed `EXPERIMENTS.md` byte for
//! byte. Counters are summed over the passes.

use std::collections::BTreeMap;
use std::slice;
use std::sync::Arc;
use std::time::Instant;

use dl_analysis::ctx::CtxStats;
use dl_experiments::document::experiments_doc;
use dl_experiments::pipeline::Pipeline;
use dl_experiments::schedule::{prewarm_with_stats, union_specs, RunSpec};
use dl_experiments::tables::all_tables;
use dl_sim::{BlockStats, MemoryConfig, Policy};

use super::{count_block, count_memory, Timed};
use crate::golden::{self, document_mismatches};
use crate::metrics::{proc_status_mb, ratio};
use crate::trace::Tracer;
use crate::{guarded, order, Phase};

pub(super) fn prepare(seed: u64, passes: usize, tracer: &Tracer) -> Timed {
    let names: Vec<&str> = all_tables().iter().map(|(name, _)| *name).collect();
    let union = union_specs(names);
    let regenerations: Vec<(Pipeline, Vec<RunSpec>)> = (0..passes)
        .map(|pass| {
            let specs = order::permutation(union.len(), seed, pass as u64)
                .into_iter()
                .map(|i| union[i].clone())
                .collect();
            let pipeline = Pipeline::new();
            if let Some(spans) = tracer.spans() {
                pipeline.set_trace_spans(Arc::clone(spans));
            }
            (pipeline, specs)
        })
        .collect();
    Box::new(move |tracer| {
        let mut phase = Phase::default();
        let mut totals = Totals::default();
        let start = Instant::now();
        for (pipeline, specs) in regenerations {
            regenerate(
                &mut phase,
                &pipeline,
                &specs,
                golden::EXPERIMENTS_MD,
                tracer,
            );
            count_pipeline(&mut phase, &mut totals, &pipeline);
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        totals.finish(&mut phase);
        phase
    })
}

/// One regeneration: warms a fresh `pipeline` with `specs` in order,
/// renders the document, and checks each of its sections against
/// `want`, adding the ops to `phase`.
pub fn regenerate(
    phase: &mut Phase,
    pipeline: &Pipeline,
    specs: &[RunSpec],
    want: &str,
    tracer: &Tracer,
) {
    for (i, spec) in specs.iter().enumerate() {
        let key = format!(
            "{}@{}/in{}/{}/{}",
            spec.bench.name, spec.opt, spec.input_set, spec.cache, spec.memory
        );
        let t = Instant::now();
        let outcome = guarded(|| {
            tracer.span(
                || format!("tables/warm/{i}:{key}/pipeline.prewarm"),
                || prewarm_with_stats(pipeline, slice::from_ref(spec), 1),
            );
            Ok(String::new())
        });
        let secs = t.elapsed().as_secs_f64();
        phase.time(secs);
        phase.add("pipeline.warm.s", secs);
        phase.check(&key, outcome);
    }
    // The first regeneration's, taken before any other memo existed.
    phase
        .counters
        .entry("rss.after_warm_mb".to_owned())
        .or_insert_with(|| proc_status_mb("VmRSS"));
    let simulations = pipeline.simulations();
    let tables = all_tables();
    let t = Instant::now();
    let doc = guarded(|| {
        Ok(tracer.span(
            || "tables/render/render.document".to_owned(),
            || {
                experiments_doc(pipeline, &tables, |name, secs| {
                    tracer.record(|| format!("tables/render/render.{name}"), secs);
                    phase.time(secs);
                })
            },
        ))
    });
    phase.add("render.s", t.elapsed().as_secs_f64());
    phase.add(
        "render.new_simulations",
        pipeline.simulations().saturating_sub(simulations) as f64,
    );
    let names: Vec<&str> = tables.iter().map(|(name, _)| *name).collect();
    check_document(phase, &names, want, doc);
}

/// Checks a rendered document against `want`: one op per table in
/// `names`, plus one (`document`) for the preamble and summary, which
/// also fails on a section no table owns.
pub fn check_document(phase: &mut Phase, names: &[&str], want: &str, doc: Result<String, String>) {
    let mismatches = doc.map(|doc| document_mismatches(want, &doc));
    for &name in names.iter().chain(&["document"]) {
        let outcome = match &mismatches {
            Err(why) => Err(why.clone()),
            Ok(bad)
                if bad
                    .iter()
                    .any(|b| b == name || (name == "document" && !names.contains(&b.as_str()))) =>
            {
                Err("differs from the committed EXPERIMENTS.md".to_owned())
            }
            Ok(_) => Ok(String::new()),
        };
        phase.check(name, outcome);
    }
}

/// The memory regime a configuration's simulation time is charged to.
fn regime(memory: &MemoryConfig) -> &'static str {
    if memory.prefetch.is_some() {
        "sim.stride_pf.s"
    } else if memory.l2.is_some() {
        "sim.l2.s"
    } else if memory.policy != Policy::Lru {
        "sim.policy.s"
    } else {
        "sim.plain.s"
    }
}

/// Totals over the passes that ratios are taken from at the end.
#[derive(Default)]
struct Totals {
    block: BlockStats,
    analysis: CtxStats,
    plain_insts: u64,
}

impl Totals {
    /// Adds the ratios of the summed counters to `phase`.
    fn finish(&self, phase: &mut Phase) {
        count_block(phase, &self.block);
        phase.add("analysis.computed", self.analysis.misses() as f64);
        phase.add("analysis.hit_rate", self.analysis.hit_rate());
        let reexec = ratio(
            phase.counter("pipeline.sim_insts"),
            phase.counter("pipeline.exec_insts"),
        );
        phase.add("pipeline.reexec_ratio", reexec);
        let plain = ratio(self.plain_insts as f64, phase.counter("sim.plain.s"));
        phase.add("sim.plain.insts_per_s", plain);
    }
}

/// The pipeline's own counters: memo, compile cache, per-configuration
/// timings, analysis caches, and the memory counters of every run.
fn count_pipeline(phase: &mut Phase, totals: &mut Totals, pipeline: &Pipeline) {
    let memo = pipeline.stats();
    phase.insts += memo.sim_instructions;
    phase.add("pipeline.simulations", pipeline.simulations() as f64);
    phase.add("pipeline.sim_insts", memo.sim_instructions as f64);
    phase.add("pipeline.memo_hits", memo.hits as f64);
    phase.add("pipeline.memo_misses", memo.misses as f64);
    phase.add("pipeline.compile_misses", memo.compile_misses as f64);
    phase.add("minic.programs", memo.compile_misses as f64);
    totals.block.merge(&memo.block);
    totals.analysis.merge(&pipeline.analysis_stats());

    let mut executions: BTreeMap<String, u64> = BTreeMap::new();
    for t in pipeline.config_timings() {
        phase.add("pipeline.compile.s", t.compile_secs);
        phase.add("pipeline.sim.s", t.sim_secs);
        let regime = regime(&t.memory);
        phase.add(regime, t.sim_secs);
        if regime == "sim.plain.s" {
            totals.plain_insts += t.instructions;
        }
        executions.insert(
            format!("{}@{}/in{}", t.bench, t.opt, t.input_set),
            t.instructions,
        );
    }
    phase.add("pipeline.executions", executions.len() as f64);
    phase.add(
        "pipeline.exec_insts",
        executions.values().sum::<u64>() as f64,
    );

    // Runs of one (benchmark, opt) share one analysis context, so the
    // program's address identifies the compilation.
    let mut compiled = std::collections::HashSet::new();
    for run in pipeline.ready_runs() {
        count_memory(phase, &run.result);
        let program = run.program();
        if compiled.insert(std::ptr::from_ref(program) as usize) {
            phase.add("minic.insts_emitted", program.insts.len() as f64);
        }
    }
}
