//! Pipeline-level benchmark: sequential vs. parallel memo-table
//! prewarming over a fixed table subset, plus raw simulator
//! throughput. Writes `BENCH_pipeline.json` in the current directory
//! (run from the repo root).
//!
//! ```text
//! bench [--jobs N] [--smoke] [--out PATH] [--best-of N]
//! ```
//!
//! `--smoke` shrinks the workload (one table, one throughput run) so
//! CI can validate the harness in seconds; the JSON shape is the same.
//! `--best-of N` (default 5) sets the timed-repetition count per
//! throughput measurement — CI smoke runs use 2, the committed
//! numbers use 16.

use std::time::Instant;

use dl_experiments::pipeline::Pipeline;
use dl_experiments::schedule::{default_jobs, prewarm, union_specs};
use dl_minic::{compile, OptLevel};
use dl_obs::Json;
use dl_sim::{
    run_with_stats, BlockStats, Engine, Inclusion, L2Config, MemoryConfig, Prefetch, RunConfig,
};

/// Tables whose union of configurations the full benchmark times.
/// Chosen to span opt levels, both input sets, and several cache
/// geometries while staying a few minutes of work.
const FULL_TABLES: &[&str] = &["table3", "table7", "table8", "table9"];
const SMOKE_TABLES: &[&str] = &["table3"];

struct Args {
    jobs: usize,
    smoke: bool,
    out: String,
    best_of: usize,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        jobs: default_jobs(),
        smoke: false,
        out: "BENCH_pipeline.json".into(),
        best_of: 5,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--jobs" => {
                i += 1;
                args.jobs = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--smoke" => args.smoke = true,
            "--out" => {
                i += 1;
                args.out = argv.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--best-of" => {
                i += 1;
                args.best_of = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    args.jobs = args.jobs.max(1);
    args.best_of = args.best_of.max(1);
    args
}

fn usage() -> ! {
    eprintln!("usage: bench [--jobs N] [--smoke] [--out PATH] [--best-of N]");
    std::process::exit(2);
}

/// Times one full prewarm of `tables` across `jobs` workers. Returns
/// the warmed pipeline so the caller can read its memo and
/// analysis-cache counters.
fn time_prewarm(tables: &[&str], jobs: usize) -> (f64, usize, Pipeline) {
    let pipeline = Pipeline::new();
    let specs = union_specs(tables.iter().copied());
    let start = Instant::now();
    let n = prewarm(&pipeline, &specs, jobs);
    (start.elapsed().as_secs_f64(), n, pipeline)
}

/// The cache-resident reduction kernel the throughput runs execute.
fn throughput_kernel(smoke: bool) -> dl_mips::program::Program {
    let reps = if smoke { 8 } else { 200 };
    let source = format!(
        "int a[4096];
         int main() {{
             int i; int t; int s;
             s = 0;
             for (t = 0; t < {reps}; t = t + 1) {{
                 for (i = 0; i < 4096; i = i + 1) {{ s = s + a[i]; }}
             }}
             print(s);
             return 0;
         }}"
    );
    compile(&source, OptLevel::O0).expect("kernel compiles")
}

/// One throughput measurement: instructions, best-trial seconds, and
/// the block-cache stats of the best trial.
struct SimMeasure {
    insts: u64,
    secs: f64,
    stats: Option<BlockStats>,
}

/// Raw simulator throughput of one engine on the shared kernel under
/// the given memory system.
fn sim_throughput(
    program: &dl_mips::program::Program,
    engine: Engine,
    memory: MemoryConfig,
    best_of: usize,
) -> SimMeasure {
    let config = RunConfig {
        engine,
        memory,
        ..RunConfig::default()
    };
    // Warmup.
    let _ = run_with_stats(program, &config).expect("kernel runs");
    // Best of N timed repetitions: the minimum is the least
    // scheduler-disturbed sample and the standard throughput estimate
    // on a shared box.
    let mut best: Option<SimMeasure> = None;
    for _ in 0..best_of {
        // Cool-down between trials: back-to-back runs on a shared or
        // frequency-managed host measure the sustained (throttled)
        // clock, not the code. A short idle gap lets each trial start
        // from the same clock state, which is what best-of-N minimum
        // is meant to isolate.
        std::thread::sleep(std::time::Duration::from_millis(75));
        let start = Instant::now();
        let (result, stats) = run_with_stats(program, &config).expect("kernel runs");
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|b| secs < b.secs) {
            best = Some(SimMeasure {
                insts: result.instructions,
                secs,
                stats,
            });
        }
    }
    best.expect("at least one timed repetition")
}

fn main() {
    let args = parse_args();
    let tables = if args.smoke {
        SMOKE_TABLES
    } else {
        FULL_TABLES
    };

    eprintln!(
        "[simulator throughput: step vs block, best of {}]",
        args.best_of
    );
    let kernel = throughput_kernel(args.smoke);
    let n = args.best_of;
    // Block before step: the step engine burns ~1s of sustained CPU,
    // and on a frequency- or quota-managed host that throttles
    // whatever is measured next. The fastest engine gets the freshest
    // clock; reporting order below is unchanged.
    let block = sim_throughput(&kernel, Engine::Block, MemoryConfig::default(), n);
    let step = sim_throughput(&kernel, Engine::Step, MemoryConfig::default(), n);
    let (insts, step_secs) = (step.insts, step.secs);
    let step_rate = insts as f64 / step_secs;
    eprintln!("  step:  {insts} instructions in {step_secs:.3}s = {step_rate:.0} insts/s");
    let sim_secs = block.secs;
    let insts_per_sec = insts as f64 / sim_secs;
    let engine_speedup = step_secs / sim_secs.max(1e-9);
    eprintln!("  block: {insts} instructions in {sim_secs:.3}s = {insts_per_sec:.0} insts/s");
    eprintln!("  engine speedup: {engine_speedup:.2}x");
    let block_stats = block.stats.unwrap_or_default();

    // The non-default memory systems: an L2 keeps the block engine's
    // fast path (L2 is touched only on L1 misses), a stride prefetcher
    // forces the slow path (it must observe every load). Tracking both
    // pins each regime's own regression baseline.
    let l2_mem = MemoryConfig {
        l2: Some(L2Config::kb(64, 8, Inclusion::Inclusive)),
        ..MemoryConfig::default()
    };
    let l2 = sim_throughput(&kernel, Engine::Block, l2_mem, n);
    let l2_secs = l2.secs;
    let l2_rate = insts as f64 / l2_secs;
    eprintln!("  block+l2: {insts} instructions in {l2_secs:.3}s = {l2_rate:.0} insts/s");
    let pf_mem = MemoryConfig {
        prefetch: Some(Prefetch::Stride(2)),
        ..MemoryConfig::default()
    };
    let pf = sim_throughput(&kernel, Engine::Block, pf_mem, n);
    let pf_secs = pf.secs;
    let pf_rate = insts as f64 / pf_secs;
    eprintln!("  block+pf: {insts} instructions in {pf_secs:.3}s = {pf_rate:.0} insts/s");

    eprintln!("[sequential prewarm: {}]", tables.join(", "));
    let (seq_secs, configs, _) = time_prewarm(tables, 1);
    eprintln!("  {configs} configurations in {seq_secs:.2}s");

    eprintln!("[parallel prewarm: {} jobs]", args.jobs);
    let (par_secs, _, pipeline) = time_prewarm(tables, args.jobs);
    eprintln!("  {configs} configurations in {par_secs:.2}s");
    let stats = pipeline.stats();
    let ctx_stats = pipeline.analysis_stats();
    let contexts = pipeline.analysis_contexts();

    let speedup = seq_secs / par_secs.max(1e-9);
    eprintln!("  speedup: {speedup:.2}x");
    eprintln!(
        "  memo: {} misses, {} in-flight waits; compile cache: {} hits / {} compiles",
        stats.misses, stats.waits, stats.compile_hits, stats.compile_misses
    );
    eprintln!(
        "  analysis: {} contexts, {} hits / {} misses ({:.1}% hit rate), {:.3}s compute",
        contexts,
        ctx_stats.hits(),
        ctx_stats.misses(),
        100.0 * ctx_stats.hit_rate(),
        ctx_stats.total_secs()
    );

    let json = Json::obj()
        .with("smoke", args.smoke.into())
        .with("jobs", args.jobs.into())
        .with("best_of", args.best_of.into())
        .with(
            "tables",
            Json::Arr(tables.iter().map(|t| (*t).into()).collect()),
        )
        .with("configurations", configs.into())
        .with("sequential_secs", seq_secs.into())
        .with("parallel_secs", par_secs.into())
        .with("speedup", speedup.into())
        .with(
            "memo",
            Json::obj()
                .with("hits", stats.hits.into())
                .with("misses", stats.misses.into())
                .with("waits", stats.waits.into())
                .with("compile_hits", stats.compile_hits.into())
                .with("compile_misses", stats.compile_misses.into()),
        )
        .with(
            "analysis",
            Json::obj()
                .with("contexts", contexts.into())
                .with("hits", ctx_stats.hits().into())
                .with("misses", ctx_stats.misses().into())
                .with("hit_rate", ctx_stats.hit_rate().into())
                .with("compute_secs", ctx_stats.total_secs().into()),
        )
        .with("sim_instructions", insts.into())
        .with("sim_engine", "block".into())
        .with("sim_secs", sim_secs.into())
        .with("sim_insts_per_sec", insts_per_sec.into())
        .with("sim_step_secs", step_secs.into())
        .with("sim_step_insts_per_sec", step_rate.into())
        .with("sim_l2_secs", l2_secs.into())
        .with("sim_l2_insts_per_sec", l2_rate.into())
        .with("sim_prefetch_secs", pf_secs.into())
        .with("sim_prefetch_insts_per_sec", pf_rate.into())
        .with("sim_engine_speedup", engine_speedup.into())
        .with(
            "block_cache",
            Json::obj()
                .with("blocks_decoded", block_stats.blocks_decoded.into())
                .with("insts_decoded", block_stats.insts_decoded.into())
                .with("mean_block_len", block_stats.mean_block_len().into())
                .with("dispatches", block_stats.dispatches.into())
                .with("dispatch_hits", block_stats.dispatch_hits.into())
                .with("insts_retired", block_stats.insts_retired.into()),
        );
    std::fs::write(&args.out, json.render()).expect("write benchmark JSON");
    eprintln!("wrote {}", args.out);
}
