//! `static`: the paper's proposed use, a compile-time pass. Each op
//! compiles one bundled program (all 21, at O0 and O1), builds its
//! analysis context, forces every pass, and runs every predictor at
//! the paper-baseline geometry — no simulation. Its flagged sets are
//! checked against `golden/static.txt`.

use std::sync::Arc;
use std::time::Instant;

use dl_analysis::ctx::{AnalysisCtx, CtxStats};
use dl_analysis::reuse::CacheGeometry;
use dl_baselines::{Bdh, Okn, ProfilePredictor, ReusePredictor};
use dl_core::combine::HybridMode;
use dl_core::{Heuristic, Hybrid, Predictor};
use dl_experiments::obs::SpanPassObserver;
use dl_minic::OptLevel;
use dl_sim::CacheConfig;
use dl_workloads::Benchmark;

use super::Timed;
use crate::golden::{self, set_digest, Golden};
use crate::metrics::{proc_status_mb, PREDICTORS};
use crate::trace::Tracer;
use crate::{guarded, order, Phase};

/// One program: a bundled benchmark at one optimization level.
pub type StaticOp = (Benchmark, OptLevel);

/// Every bundled program at O0 and O1.
#[must_use]
pub fn programs() -> Vec<StaticOp> {
    dl_workloads::all_with_extensions()
        .into_iter()
        .flat_map(|b| [(b.clone(), OptLevel::O0), (b, OptLevel::O1)])
        .collect()
}

/// The predictors, named as in [`PREDICTORS`], at the paper-baseline
/// geometry. The hybrids pair the heuristic with the reuse estimator,
/// as `extension-reuse` does.
#[must_use]
pub fn predictors() -> Vec<Box<dyn Predictor>> {
    let cache = CacheConfig::paper_baseline();
    let geometry = CacheGeometry::new(
        u64::from(cache.size_bytes()),
        u64::from(cache.block_bytes()),
        cache.assoc(),
    );
    let reuse = ReusePredictor::new(geometry);
    vec![
        Box::new(Heuristic::default()),
        Box::new(Okn),
        Box::new(Bdh),
        Box::new(reuse),
        Box::new(ProfilePredictor::new(geometry)),
        Box::new(Hybrid::new(
            Heuristic::default(),
            reuse,
            HybridMode::Intersect,
        )),
        Box::new(Hybrid::new(Heuristic::default(), reuse, HybridMode::Union)),
    ]
}

/// The golden-file key of a program, e.g. `181.mcf@O1`.
#[must_use]
pub fn key(op: &StaticOp) -> String {
    format!("{}@{}", op.0.name, op.1)
}

pub(super) fn prepare(seed: u64, passes: usize) -> Timed {
    let ops = programs();
    let order = order::passes(ops.len(), passes, seed);
    Box::new(move |tracer| {
        let golden = Golden::parse(golden::STATIC);
        run(&ops, &order, &golden, tracer)
    })
}

/// Compiles, analyzes, and predicts on `ops[i]` for each `i` in
/// `order`, checking the flagged sets against `golden`.
#[must_use]
pub fn run(ops: &[StaticOp], order: &[usize], golden: &Golden, tracer: &Tracer) -> Phase {
    let predictors = predictors();
    let mut phase = Phase::default();
    let mut analysis = CtxStats::default();
    let start = Instant::now();
    for (i, &k) in order.iter().enumerate() {
        let op = &ops[k];
        let key = key(op);
        let t = Instant::now();
        let outcome = guarded(|| analyze(i, op, &key, &predictors, tracer));
        phase.time(t.elapsed().as_secs_f64());
        let outcome = outcome.and_then(|done| {
            phase.insts += done.insts as u64;
            phase.add("minic.programs", 1.0);
            phase.add("minic.insts_emitted", done.insts as f64);
            analysis.merge(&done.stats);
            let mut digest = format!("insts={} loads={}", done.insts, done.loads);
            for (name, set) in PREDICTORS.iter().zip(&done.sets) {
                phase.add(&format!("predict.{name}.flagged"), set.len() as f64);
                digest.push_str(&format!(" {name}={}", set_digest(set)));
            }
            golden.expect(&key, digest)
        });
        phase.check(&key, outcome);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.add("rss.after_warm_mb", proc_status_mb("VmRSS"));
    phase.add("analysis.computed", analysis.misses() as f64);
    phase.add("analysis.hit_rate", analysis.hit_rate());
    phase
}

/// What one op produced.
struct Analyzed {
    insts: usize,
    loads: usize,
    stats: CtxStats,
    sets: Vec<Vec<usize>>,
}

/// One op: compile, build the context, force every pass accessor, run
/// every predictor, and free the context, one span per call.
fn analyze(
    i: usize,
    (bench, opt): &StaticOp,
    key: &str,
    predictors: &[Box<dyn Predictor>],
    tracer: &Tracer,
) -> Result<Analyzed, String> {
    let op_path = || format!("static/{i}:{key}");
    let program = tracer
        .span(
            || format!("{}/minic.compile", op_path()),
            || bench.compile(*opt),
        )
        .map_err(|e| e.to_string())?;
    let insts = program.insts.len();
    let ctx = tracer.span(
        || format!("{}/analysis.new", op_path()),
        || AnalysisCtx::new(program),
    );
    if let Some(spans) = tracer.spans() {
        ctx.set_pass_observer(Arc::new(SpanPassObserver::new(
            Arc::clone(spans),
            format!("analysis/{}/{opt}", bench.name),
        )));
    }
    tracer.span(
        || format!("{}/analysis.passes", op_path()),
        || {
            let _ = ctx.analysis();
            let _ = ctx.loops();
            let _ = ctx.load_classes();
            let _ = ctx.freq();
            let _ = ctx.callgraph();
            let _ = ctx.reuse_profiles();
        },
    );
    let sets = PREDICTORS
        .iter()
        .zip(predictors)
        .map(|(name, p)| {
            tracer.span(
                || format!("{}/predict.{name}", op_path()),
                || p.predict(&ctx),
            )
        })
        .collect();
    let done = Analyzed {
        insts,
        loads: ctx.analysis().loads.len(),
        stats: ctx.stats(),
        sets,
    };
    tracer.span(|| format!("{}/analysis.drop", op_path()), || drop(ctx));
    Ok(done)
}
