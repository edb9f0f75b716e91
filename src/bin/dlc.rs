//! `dlc` — the delinquent-loads compiler driver.
//!
//! A small command-line front end over the whole pipeline:
//!
//! ```text
//! dlc build  prog.mc [-O1] [--emit asm|bin|words]   # compile, print assembly or binary
//! dlc run    prog.mc [-O1] [--input 1,2,3]          # compile and simulate
//! dlc analyze prog.mc [-O1] [--input 1,2,3] [--delta 0.1]
//!                                                   # flag possibly-delinquent loads
//! dlc top    prog.mc [--epoch N] [--limit K]        # miss observatory: rank load sites
//! dlc bench-diff old.json new.json [--threshold PCT]
//!                                                   # perf-regression gate over BENCH_e2e.json
//! ```
//!
//! `--engine step|block` (on `run` and `analyze`) selects the
//! simulator core: the reference per-instruction interpreter or the
//! block-cached engine (the default). The two are observationally
//! identical; `step` exists for differential debugging.
//!
//! `--policy lru|plru|random`, `--l2 KB[,ASSOC][,incl|excl]` (or
//! `none`), and `--prefetch DEGREE` (on `run`, `analyze`, and `top`)
//! select the memory system: L1 replacement policy, an optional
//! second cache level, and a PC-indexed stride prefetcher (degree 0
//! disables it). All default to the paper's single LRU L1.
//!
//! `--profile` (on `run` and `analyze`) turns on the simulator's
//! opt-in cache profiling: the miss-class breakdown (compulsory /
//! capacity / conflict, paper §3) and the hottest cache sets are
//! printed on stderr. Profiling never changes hit/miss counts, so
//! stdout is byte-identical with and without it.
//!
//! `analyze` runs the full paper pipeline: compile → simulate (for the
//! frequency classes and ground-truth misses) → address patterns →
//! heuristic, then prints each flagged load with its φ score, pattern,
//! and measured misses.
//!
//! `--reuse` (on `analyze`) additionally prints the static loop-nest
//! and reuse-distance report: every detected loop with its estimated
//! trip count, every in-loop load's address class and predicted miss
//! ratio next to the measured one, and the reuse and hybrid
//! delinquent sets scored with the same π/ρ metrics.
//!
//! `--trace-out PATH` (on `run`, `analyze`, and `top`) writes a Chrome
//! trace-event JSON timeline (loadable in Perfetto /
//! `chrome://tracing`) with compile, per-analysis-pass, and simulation
//! spans.
//!
//! `top` runs the simulator with the per-load-site miss observatory on:
//! misses are windowed into epochs of `--epoch` observed loads
//! (default 2^20) and the hottest `--limit` sites are ranked by total
//! misses, with each static predictor's verdict and the site's phase
//! behavior over epochs alongside.
//!
//! `bench-diff` is the perf-regression gate: it compares each
//! workload's `insts_per_s` in two files shaped like `BENCH_e2e.json`
//! (`{workload: {metric: value}}`) and fails if any dropped by more
//! than `--threshold` percent.

use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

use delinquent_loads::heuristic::combine::{combine_hybrid, HybridMode};
use delinquent_loads::heuristic::{Heuristic, Predictor};
use delinquent_loads::minic::{compile, OptLevel};
use delinquent_loads::mips::encode::encode_program;
use dl_analysis::{AnalysisCtx, CacheGeometry};
use dl_baselines::{Bdh, Okn, ProfilePredictor, ReusePredictor};
use dl_experiments::metrics::{pi, rho};
use dl_experiments::obs::SpanPassObserver;
use dl_obs::{chrome_trace, Json, Spans};
use dl_sim::{
    run, run_full, Engine, L2Config, MemoryConfig, ObserveConfig, Prefetch, RunConfig, RunResult,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, &mut io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed the pipe (`dlc top prog.mc | head -3`)
        // wants no more output: a quiet success.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("dlc: {message}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    path: String,
    opt: OptLevel,
    input: Vec<i32>,
    emit: String,
    delta: f64,
    profile: bool,
    reuse: bool,
    engine: Engine,
    memory: MemoryConfig,
    trace_out: Option<String>,
    epoch: u64,
    limit: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        path: String::new(),
        opt: OptLevel::O0,
        input: Vec::new(),
        emit: "asm".to_owned(),
        delta: 0.10,
        profile: false,
        reuse: false,
        engine: Engine::default(),
        memory: MemoryConfig::default(),
        trace_out: None,
        epoch: dl_sim::ObserveConfig::default().epoch_len,
        limit: 10,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-O0" => options.opt = OptLevel::O0,
            "-O1" | "-O" => options.opt = OptLevel::O1,
            "--emit" => {
                options.emit = it.next().ok_or("--emit requires asm|bin|words")?.clone();
            }
            "--input" => {
                let list = it.next().ok_or("--input requires a comma list")?;
                options.input = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse::<i32>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--delta" => {
                options.delta = it
                    .next()
                    .ok_or("--delta requires a number")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?;
                // A NaN threshold compares false against every load
                // and an infinite one flags all or none: both silently
                // change what `analyze` reports.
                if !options.delta.is_finite() {
                    return Err(format!("--delta must be finite, got {}", options.delta));
                }
            }
            "--profile" => options.profile = true,
            "--reuse" => options.reuse = true,
            "--engine" => {
                options.engine = it
                    .next()
                    .ok_or("--engine requires step|block")?
                    .parse::<Engine>()?;
            }
            "--policy" => {
                options.memory.policy = it
                    .next()
                    .ok_or("--policy requires lru|plru|random")?
                    .parse()?;
            }
            "--l2" => {
                let v = it
                    .next()
                    .ok_or("--l2 requires KB[,ASSOC][,incl|excl] or none")?;
                options.memory.l2 = if v == "none" {
                    None
                } else {
                    Some(v.parse::<L2Config>()?)
                };
            }
            "--prefetch" => {
                let degree = it
                    .next()
                    .ok_or("--prefetch requires a degree (0 disables)")?
                    .parse::<u32>()
                    .map_err(|e| e.to_string())?;
                options.memory.prefetch = (degree > 0).then_some(Prefetch::Stride(degree));
            }
            "--trace-out" => {
                options.trace_out = Some(it.next().ok_or("--trace-out requires a path")?.clone());
            }
            "--epoch" => {
                options.epoch = it
                    .next()
                    .ok_or("--epoch requires a load count")?
                    .parse::<u64>()
                    .map_err(|e| e.to_string())?;
                if options.epoch == 0 {
                    return Err("--epoch must be positive".into());
                }
            }
            "--limit" => {
                options.limit = it
                    .next()
                    .ok_or("--limit requires a site count")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => {
                if !options.path.is_empty() {
                    return Err("multiple input files given".into());
                }
                options.path = path.to_owned();
            }
        }
    }
    if options.path.is_empty() {
        return Err("no input file".into());
    }
    Ok(options)
}

fn load_program(options: &Options) -> Result<dl_mips::program::Program, String> {
    let source =
        std::fs::read_to_string(&options.path).map_err(|e| format!("{}: {e}", options.path))?;
    compile(&source, options.opt).map_err(|e| format!("{}: {e}", options.path))
}

fn dispatch(args: &[String], out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    let Some((command, rest)) = args.split_first() else {
        return Err(
            "usage: dlc <build|run|analyze|top> prog.mc [-O1] [--emit asm|bin|words] \
             [--input 1,2,3] [--delta 0.1] [--profile] [--reuse] [--engine step|block] \
             [--policy lru|plru|random] [--l2 KB[,ASSOC][,incl|excl]|none] [--prefetch N] \
             [--trace-out t.json] [--epoch N] [--limit K]\n       \
             dlc bench-diff old.json new.json [--threshold PCT]"
                .into(),
        );
    };
    if command == "bench-diff" {
        return bench_diff(rest, out);
    }
    let options = parse_options(rest)?;
    match command.as_str() {
        "build" => {
            let program = load_program(&options)?;
            match options.emit.as_str() {
                "asm" => write!(out, "{}", program.to_asm())?,
                "words" => {
                    let words = encode_program(&program).map_err(|e| e.to_string())?;
                    for (i, w) in words.iter().enumerate() {
                        writeln!(
                            out,
                            "{:#010x}: {w:#010x}  {}",
                            program.pc(i),
                            program.insts[i]
                        )?;
                    }
                }
                "bin" => {
                    let words = encode_program(&program).map_err(|e| e.to_string())?;
                    for w in words {
                        out.write_all(&w.to_le_bytes())?;
                    }
                }
                other => return Err(format!("unknown emit kind `{other}`").into()),
            }
            Ok(())
        }
        "run" => {
            let spans = Arc::new(Spans::default());
            let program = spans.time(&format!("compile/{}", options.path), || {
                load_program(&options)
            })?;
            let config = RunConfig {
                input: options.input.clone(),
                classify_misses: options.profile,
                engine: options.engine,
                memory: options.memory,
                ..RunConfig::default()
            };
            let start = std::time::Instant::now();
            let result = run(&program, &config).map_err(|e| e.to_string())?;
            let secs = start.elapsed().as_secs_f64();
            spans.record_at(&format!("sim/{}", options.path), start, secs);
            for v in &result.output {
                writeln!(out, "{v}")?;
            }
            eprintln!(
                "[{} instructions, {} loads, {} load misses, exit {}, {:.0}M insts/s]",
                result.instructions,
                result.loads,
                result.load_misses_total,
                result.exit_code,
                result.instructions as f64 / secs.max(1e-9) / 1e6
            );
            print_memory(&config, &result);
            print_profile(&result);
            write_trace(&options, &spans)
        }
        "top" => top(&options, out),
        "analyze" => {
            let spans = Arc::new(Spans::default());
            let program = spans.time(&format!("compile/{}", options.path), || {
                load_program(&options)
            })?;
            let config = RunConfig {
                input: options.input.clone(),
                classify_misses: options.profile,
                engine: options.engine,
                memory: options.memory,
                ..RunConfig::default()
            };
            let start = std::time::Instant::now();
            let result = run(&program, &config).map_err(|e| e.to_string())?;
            spans.record_at(
                &format!("sim/{}", options.path),
                start,
                start.elapsed().as_secs_f64(),
            );
            // One pass manager feeds the heuristic and the --reuse
            // report: patterns, loops, and load classes are each
            // computed at most once however many predictors run.
            let ctx = AnalysisCtx::new(program).with_profile(&result.exec_counts);
            if options.trace_out.is_some() {
                ctx.set_pass_observer(Arc::new(SpanPassObserver::new(
                    Arc::clone(&spans),
                    format!("analysis/{}", options.path),
                )));
            }
            let analysis = ctx.analysis();
            let heuristic = Heuristic::default().with_threshold(options.delta);
            let delinquent = heuristic.predict(&ctx);
            writeln!(
                out,
                "Λ = {}   |Δ| = {}   π = {:.2}%   ρ = {:.1}%   (δ = {})",
                analysis.loads.len(),
                delinquent.len(),
                100.0 * pi(delinquent.len(), analysis.loads.len()),
                100.0 * rho(&result, &delinquent),
                options.delta
            )?;
            writeln!(
                out,
                "{:>6} {:>8} {:>10} {:>9}  pattern",
                "inst", "phi", "execs", "misses"
            )?;
            for &idx in &delinquent {
                let load = analysis.load_at(idx).expect("flagged load exists");
                let phi = heuristic.score(load, result.exec_counts[idx]);
                writeln!(
                    out,
                    "{:>6} {:>8.2} {:>10} {:>9}  {}",
                    idx,
                    phi,
                    result.exec_counts[idx],
                    result.load_misses[idx],
                    load.patterns
                        .first()
                        .map_or_else(|| "?".to_owned(), ToString::to_string)
                )?;
            }
            if options.reuse {
                print_reuse(&ctx, &result, &config, &delinquent, options.delta, out)?;
            }
            if let Some(classes) = &result.load_miss_classes {
                eprintln!("[flagged-load miss classes: compulsory / capacity / conflict]");
                for &idx in &delinquent {
                    let [compulsory, capacity, conflict] = classes[idx];
                    eprintln!("  inst {idx:>5}: {compulsory} / {capacity} / {conflict}");
                }
            }
            print_memory(&config, &result);
            print_profile(&result);
            write_trace(&options, &spans)
        }
        other => Err(format!("unknown command `{other}`").into()),
    }
}

/// Writes the Chrome trace-event timeline if `--trace-out` was given.
fn write_trace(options: &Options, spans: &Spans) -> Result<(), Box<dyn Error>> {
    let Some(path) = &options.trace_out else {
        return Ok(());
    };
    std::fs::write(path, chrome_trace(spans).render()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("[trace written to {path}]");
    Ok(())
}

/// The `top` subcommand: simulate with the miss observatory on, rank
/// load sites by total misses, and print each static predictor's
/// verdict plus the site's phase behavior over epochs.
fn top(options: &Options, out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    let spans = Arc::new(Spans::default());
    let program = spans.time(&format!("compile/{}", options.path), || {
        load_program(options)
    })?;
    let config = RunConfig {
        input: options.input.clone(),
        engine: options.engine,
        memory: options.memory,
        observe: Some(ObserveConfig {
            epoch_len: options.epoch,
        }),
        ..RunConfig::default()
    };
    let start = std::time::Instant::now();
    let output = run_full(&program, &config).map_err(|e| e.to_string())?;
    spans.record_at(
        &format!("sim/{}", options.path),
        start,
        start.elapsed().as_secs_f64(),
    );
    let result = &output.result;
    let observatory = output.observatory.as_ref().expect("observe configured");

    // One shared pass manager: every predictor reuses the same cached
    // patterns, loops, and load classes.
    let ctx = AnalysisCtx::new(program).with_profile(&result.exec_counts);
    if options.trace_out.is_some() {
        ctx.set_pass_observer(Arc::new(SpanPassObserver::new(
            Arc::clone(&spans),
            format!("analysis/{}", options.path),
        )));
    }
    let cache = config.cache;
    let geometry = CacheGeometry::new(
        u64::from(cache.size_bytes()),
        u64::from(cache.block_bytes()),
        cache.assoc(),
    );
    let heuristic_set = Heuristic::default()
        .with_threshold(options.delta)
        .predict(&ctx);
    let reuse_set = ReusePredictor {
        geometry,
        threshold: options.delta,
    }
    .predict(&ctx);
    let profile_set = ProfilePredictor {
        geometry,
        threshold: options.delta,
    }
    .predict(&ctx);
    let sets = [
        ("heur", heuristic_set.clone()),
        ("okn", Okn.predict(&ctx)),
        ("bdh", Bdh.predict(&ctx)),
        ("reuse", reuse_set.clone()),
        ("prof", profile_set),
        (
            "∩",
            combine_hybrid(&heuristic_set, &reuse_set, HybridMode::Intersect),
        ),
        (
            "∪",
            combine_hybrid(&heuristic_set, &reuse_set, HybridMode::Union),
        ),
    ];

    let epochs = observatory.epochs();
    let missing: Vec<(usize, u64)> = result
        .load_misses
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, m)| m > 0)
        .collect();
    writeln!(
        out,
        "[{} of {} load sites missed; epoch = {} loads, {} epochs over {} observed loads]",
        missing.len(),
        ctx.analysis().loads.len(),
        observatory.epoch_len(),
        epochs.len(),
        observatory.total_loads(),
    )?;
    // With a stride prefetcher in play, show what it hid: demand hits
    // on prefetched lines are would-be misses the ranking no longer
    // sees, attributed per site by the observatory.
    let hidden = if config.memory.prefetch.is_some() {
        let totals = observatory.hidden_totals();
        writeln!(
            out,
            "[memory {}: {} would-be misses hidden by prefetch across {} sites]",
            config.memory,
            observatory.total_hidden(),
            totals.iter().filter(|&&n| n > 0).count(),
        )?;
        Some(totals)
    } else {
        None
    };
    if let Some(block) = &output.block_stats {
        writeln!(
            out,
            "[block cache: {} blocks decoded ({:.1} insts mean), {} dispatches ({} cached), {} insts retired]",
            block.blocks_decoded,
            block.mean_block_len(),
            block.dispatches,
            block.dispatch_hits,
            block.insts_retired,
        )?;
    }
    let mut ranked = missing;
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(options.limit);
    let header: String = sets
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(" ");
    let hidden_header = if hidden.is_some() {
        format!(" {:>9}", "hidden")
    } else {
        String::new()
    };
    writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>7}{hidden_header}  {header}  phases",
        "inst", "misses", "execs", "ratio"
    )?;
    for (idx, misses) in ranked {
        let execs = result.exec_counts[idx];
        #[allow(clippy::cast_precision_loss)]
        let ratio = if execs > 0 {
            misses as f64 / execs as f64
        } else {
            0.0
        };
        let verdicts: String = sets
            .iter()
            .map(|(name, set)| {
                let mark = if set.contains(&idx) { '+' } else { '.' };
                format!("{mark:>width$}", width = name.chars().count())
            })
            .collect::<Vec<_>>()
            .join(" ");
        let per_epoch: Vec<u64> = epochs
            .iter()
            .map(|e| {
                e.misses
                    .iter()
                    .find(|&&(at, _)| at as usize == idx)
                    .map_or(0, |&(_, n)| n)
            })
            .collect();
        let hidden_cell = hidden.as_ref().map_or_else(String::new, |totals| {
            format!(" {:>9}", totals.get(idx).copied().unwrap_or(0))
        });
        writeln!(
            out,
            "{idx:>6} {misses:>10} {execs:>10} {ratio:>7.3}{hidden_cell}  {verdicts}  {}",
            sparkline(&per_epoch, 32)
        )?;
    }
    write_trace(options, &spans)
}

/// Renders per-epoch counts as a fixed-height bar chart, summing
/// adjacent epochs down to at most `max_cols` columns.
fn sparkline(values: &[u64], max_cols: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let chunk = values.len().div_ceil(max_cols).max(1);
    let cols: Vec<u64> = values.chunks(chunk).map(|c| c.iter().sum()).collect();
    let max = cols.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return BARS[0].to_string().repeat(cols.len());
    }
    cols.iter()
        .map(|&v| BARS[usize::try_from(u128::from(v) * 7 / u128::from(max)).expect("0..=7")])
        .collect()
}

/// The `bench-diff` perf-regression gate: compares each workload's
/// [`GATED`] metric in two `BENCH_e2e.json`-shaped files and fails if
/// any dropped by more than `threshold` percent.
fn bench_diff(args: &[String], out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    let mut threshold = 10.0;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .ok_or("--threshold requires a percent")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`").into()),
            p => paths.push(p.to_owned()),
        }
    }
    if paths.len() != 2 {
        return Err("bench-diff needs exactly two JSON files: old new".into());
    }
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let old = load(&paths[0])?;
    let new = load(&paths[1])?;
    let diff = diff_metrics(&old, &new, threshold);
    writeln!(
        out,
        "{:<26} {:>16} {:>16} {:>9}",
        "metric", "old", "new", "delta"
    )?;
    for row in &diff.rows {
        writeln!(out, "{row}")?;
    }
    // One-sided metrics are reported, not gated: a freshly added
    // workload has no baseline to regress against, and a removed one
    // is loud here instead of silently vanishing from the comparison.
    for key in &diff.added {
        writeln!(
            out,
            "{key:<26} {:>16} {:>16}   (added in new)",
            "-", "present"
        )?;
    }
    for key in &diff.removed {
        writeln!(
            out,
            "{key:<26} {:>16} {:>16}   (removed in new)",
            "present", "-"
        )?;
    }
    if diff.compared == 0 {
        return Err("no comparable metrics found in the two files".into());
    }
    if diff.regressions.is_empty() {
        writeln!(
            out,
            "ok: {} metric(s) within {threshold}% of baseline",
            diff.compared
        )?;
        Ok(())
    } else {
        Err(format!(
            "{} metric(s) regressed more than {threshold}%: {}",
            diff.regressions.len(),
            diff.regressions.join(", ")
        )
        .into())
    }
}

/// The metric `bench-diff` gates: the benchmark's one higher-is-better
/// end-to-end metric, a rate that a short run measures on the same
/// scale as a long one. The other five are times and sizes, and
/// `wall_s` grows with run length.
const GATED: &str = "insts_per_s";

/// The outcome of one metric comparison pass: formatted rows for the
/// two-sided metrics, plus the bookkeeping `bench_diff` gates on.
/// Metrics are named `<workload>.insts_per_s`.
struct MetricsDiff {
    rows: Vec<String>,
    compared: u32,
    regressions: Vec<String>,
    /// Metrics present only in the new file.
    added: Vec<String>,
    /// Metrics present only in the old file.
    removed: Vec<String>,
}

/// Compares each workload's [`GATED`] metric (higher-is-better, gated
/// at `threshold`) in two `{workload: {metric: value}}` documents.
/// Members that are not objects (seeds, run length, commit) are not
/// workloads. A metric present in only one document is classified as
/// added or removed rather than silently skipped.
fn diff_metrics(old: &Json, new: &Json, threshold: f64) -> MetricsDiff {
    #[allow(clippy::cast_precision_loss)]
    let gated = |doc: &Json| -> Vec<(String, f64)> {
        let Json::Obj(members) = doc else {
            return Vec::new();
        };
        members
            .iter()
            .filter_map(|(workload, metrics)| {
                let value = match metrics.get(GATED)? {
                    Json::F64(v) => *v,
                    Json::U64(v) => *v as f64,
                    _ => return None,
                };
                Some((format!("{workload}.{GATED}"), value))
            })
            .collect()
    };
    let (old, new) = (gated(old), gated(new));
    let mut diff = MetricsDiff {
        rows: Vec::new(),
        compared: 0,
        regressions: Vec::new(),
        added: Vec::new(),
        removed: Vec::new(),
    };
    for (key, o) in &old {
        let Some((_, n)) = new.iter().find(|(k, _)| k == key) else {
            diff.removed.push(key.clone());
            continue;
        };
        if *o <= 0.0 {
            continue;
        }
        diff.compared += 1;
        let delta = 100.0 * (n - o) / o;
        let flag = if delta <= -threshold {
            diff.regressions.push(key.clone());
            "  REGRESSION"
        } else {
            ""
        };
        diff.rows.push(format!(
            "{key:<26} {o:>16.3} {n:>16.3} {delta:>+8.1}%{flag}"
        ));
    }
    diff.added = new
        .into_iter()
        .filter(|(key, _)| !old.iter().any(|(k, _)| k == key))
        .map(|(key, _)| key)
        .collect();
    diff
}

/// Prints the `--reuse` report on stdout: the loop-nest structure,
/// the static reuse predictions for every in-loop load next to the
/// measured miss ratio, and the reuse/hybrid delinquent sets scored
/// with the same π/ρ metrics as the heuristic.
fn print_reuse(
    ctx: &AnalysisCtx,
    result: &RunResult,
    config: &RunConfig,
    heuristic_set: &[usize],
    delta: f64,
    out: &mut impl Write,
) -> io::Result<()> {
    let cache = config.cache;
    let geometry = CacheGeometry::new(
        u64::from(cache.size_bytes()),
        u64::from(cache.block_bytes()),
        cache.assoc(),
    );
    writeln!(
        out,
        "== reuse analysis ({}B cache, {}-way, {}B lines) ==",
        geometry.capacity, geometry.assoc, geometry.line
    )?;
    // Cached in the ctx: the reuse predictions below reuse these same
    // loop nests instead of rebuilding them.
    let loops = ctx.loops();
    for f in &loops.funcs {
        for l in f.nest.loops() {
            let header_inst = f.cfg.blocks()[l.header].start;
            writeln!(
                out,
                "loop {}#{}: header inst {header_inst}, depth {}, {} blocks, trip {:.0} ({})",
                f.name,
                l.id,
                l.depth,
                l.blocks.len(),
                l.trip.iterations(),
                if l.trip.is_exact() {
                    "exact"
                } else {
                    "assumed"
                },
            )?;
        }
    }
    writeln!(
        out,
        "{:>6}  {:<16} {:>5} {:>10} {:>10} {:>10}",
        "inst", "class", "depth", "trip", "predicted", "measured"
    )?;
    for p in ctx.reuse_predictions(&geometry) {
        if p.loop_depth == 0 {
            continue;
        }
        let execs = result.exec_counts[p.index];
        let measured = if execs > 0 {
            result.load_misses[p.index] as f64 / execs as f64
        } else {
            0.0
        };
        writeln!(
            out,
            "{:>6}  {:<16} {:>5} {:>10.0} {:>10.3} {:>10.3}",
            p.index,
            p.class.to_string(),
            p.loop_depth,
            p.trip,
            p.miss_ratio,
            measured,
        )?;
    }
    // The reuse-profile engine: one static histogram per load, priced
    // at this geometry with no re-analysis.
    let profiles = ctx.reuse_profiles();
    writeln!(
        out,
        "== reuse profiles ({} loads, {} interprocedural) ==",
        profiles.loads.len(),
        profiles.interprocedural_count(),
    )?;
    writeln!(
        out,
        "{:>6}  {:<16} {:>10} {:>6} {:>10} {:>10}",
        "inst", "class", "trip", "xproc", "profile", "measured"
    )?;
    let cap_blocks = geometry.capacity / geometry.line;
    for l in &profiles.loads {
        if !l.in_loop {
            continue;
        }
        let execs = result.exec_counts[l.index];
        let measured = if execs > 0 {
            result.load_misses[l.index] as f64 / execs as f64
        } else {
            0.0
        };
        let ratio = if l.hist.abstain >= 0.5 {
            "   abstain".to_owned()
        } else {
            format!("{:>10.3}", l.hist.miss_ratio(cap_blocks))
        };
        writeln!(
            out,
            "{:>6}  {:<16} {:>10.0} {:>6} {ratio} {:>10.3}",
            l.index,
            l.class.to_string(),
            l.trip,
            if l.interprocedural { "yes" } else { "" },
            measured,
        )?;
    }
    let reuse_set = ReusePredictor {
        geometry,
        threshold: delta,
    }
    .predict(ctx);
    let profile_set = ProfilePredictor {
        geometry,
        threshold: delta,
    }
    .predict(ctx);
    let score = |set: &[usize]| {
        (
            100.0 * pi(set.len(), ctx.analysis().loads.len()),
            100.0 * rho(result, set),
        )
    };
    for (name, set) in [
        ("reuse", reuse_set.clone()),
        ("profile", profile_set),
        (
            "hybrid∩",
            combine_hybrid(heuristic_set, &reuse_set, HybridMode::Intersect),
        ),
        (
            "hybrid∪",
            combine_hybrid(heuristic_set, &reuse_set, HybridMode::Union),
        ),
    ] {
        let (p, r) = score(&set);
        writeln!(
            out,
            "{name}: |Δ| = {}   π = {p:.2}%   ρ = {r:.1}%",
            set.len()
        )?;
    }
    Ok(())
}

/// Prints the memory-system counters on stderr when a non-default
/// system (policy / L2 / prefetcher) is in play: per-level hit/miss
/// traffic and the prefetcher's fill accuracy.
fn print_memory(config: &RunConfig, result: &RunResult) {
    if config.memory.is_default() {
        return;
    }
    let mut line = format!("[memory {}", config.memory);
    if result.l2_hits + result.l2_misses > 0 {
        line.push_str(&format!(
            ": L2 {} hits / {} misses",
            result.l2_hits, result.l2_misses
        ));
    }
    if config.memory.prefetch.is_some() {
        line.push_str(&format!(
            "; prefetch {} fills, {} useful",
            result.prefetch_fills, result.prefetch_useful
        ));
    }
    line.push(']');
    eprintln!("{line}");
}

/// Prints the `--profile` cache breakdown on stderr: the three-Cs
/// miss-class split and the most conflicted cache sets.
fn print_profile(result: &dl_sim::RunResult) {
    let Some(profile) = &result.cache_profile else {
        return;
    };
    let c = &profile.classes;
    let total = c.total();
    let pct = |n: u64| 100.0 * n as f64 / total.max(1) as f64;
    eprintln!(
        "[miss classes: {} compulsory ({:.1}%), {} capacity ({:.1}%), {} conflict ({:.1}%)]",
        c.compulsory,
        pct(c.compulsory),
        c.capacity,
        pct(c.capacity),
        c.conflict,
        pct(c.conflict),
    );
    let mut sets: Vec<(usize, u64)> = profile
        .set_misses
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, misses)| misses > 0)
        .collect();
    sets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    if !sets.is_empty() {
        eprintln!("[hottest sets (misses / accesses)]");
        for (set, misses) in sets.into_iter().take(4) {
            eprintln!("  set {set:>4}: {misses} / {}", profile.set_accesses[set]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let o = opts(&["prog.mc"]).unwrap();
        assert_eq!(o.path, "prog.mc");
        assert_eq!(o.opt, OptLevel::O0);
        assert_eq!(o.emit, "asm");
        assert!(o.input.is_empty());
        assert!((o.delta - 0.10).abs() < 1e-12);
        assert!(!o.profile);
        assert!(!o.reuse);
        assert_eq!(o.engine, Engine::Block);
    }

    #[test]
    fn flags_parse() {
        let o = opts(&[
            "prog.mc",
            "-O1",
            "--emit",
            "words",
            "--input",
            "1,2, 3",
            "--delta",
            "0.25",
            "--profile",
            "--reuse",
            "--engine",
            "step",
        ])
        .unwrap();
        assert_eq!(o.opt, OptLevel::O1);
        assert_eq!(o.emit, "words");
        assert_eq!(o.input, vec![1, 2, 3]);
        assert!((o.delta - 0.25).abs() < 1e-12);
        assert!(o.profile);
        assert!(o.reuse);
        assert_eq!(o.engine, Engine::Step);
    }

    #[test]
    fn errors() {
        assert!(opts(&[]).is_err());
        assert!(opts(&["a.mc", "b.mc"]).is_err());
        assert!(opts(&["a.mc", "--bogus"]).is_err());
        assert!(opts(&["a.mc", "--input", "x"]).is_err());
        assert!(opts(&["a.mc", "--emit"]).is_err());
        assert!(opts(&["a.mc", "--engine"]).is_err());
        assert!(opts(&["a.mc", "--engine", "jit"]).is_err());
        assert!(opts(&["a.mc", "--trace-out"]).is_err());
        assert!(opts(&["a.mc", "--epoch", "0"]).is_err());
        assert!(opts(&["a.mc", "--limit", "-1"]).is_err());
        for delta in ["nan", "NaN", "inf", "-inf", "infinity"] {
            let err = opts(&["a.mc", "--delta", delta]).err();
            assert!(
                err.as_deref().is_some_and(|e| e.contains("finite")),
                "--delta {delta}: {err:?}"
            );
        }
    }

    #[test]
    fn memory_flags_parse() {
        use dl_sim::{Inclusion, Policy};
        let o = opts(&[
            "prog.mc",
            "--policy",
            "plru",
            "--l2",
            "64,8,excl",
            "--prefetch",
            "2",
        ])
        .unwrap();
        assert_eq!(o.memory.policy, Policy::Plru);
        let l2 = o.memory.l2.expect("l2 configured");
        assert_eq!(l2.inclusion, Inclusion::Exclusive);
        assert_eq!(o.memory.prefetch, Some(Prefetch::Stride(2)));
        assert_eq!(o.memory.to_string(), "plru+l2:64KB-8w-excl+pf2");
        // Degree 0 and `--l2 none` disable their subsystems.
        let off = opts(&["prog.mc", "--prefetch", "0", "--l2", "none"]).unwrap();
        assert!(off.memory.prefetch.is_none());
        assert!(off.memory.l2.is_none());
        assert!(opts(&["prog.mc", "--policy", "fifo"]).is_err());
        assert!(opts(&["prog.mc", "--l2", "potato"]).is_err());
        // Out-of-range L2 specs are errors: 2^27 ways (a set's bytes
        // wrap a u32 to zero), more ways than tree-PLRU packs, and a
        // size whose byte count wraps.
        assert!(opts(&["prog.mc", "--l2", "64,134217728"]).is_err());
        assert!(opts(&["prog.mc", "--policy", "plru", "--l2", "64,128"]).is_err());
        assert!(opts(&["prog.mc", "--l2", "4194304"]).is_err());
        assert!(opts(&["prog.mc", "--prefetch", "-1"]).is_err());
    }

    #[test]
    fn observatory_flags_parse() {
        let o = opts(&[
            "prog.mc",
            "--trace-out",
            "t.json",
            "--epoch",
            "4096",
            "--limit",
            "3",
        ])
        .unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.epoch, 4096);
        assert_eq!(o.limit, 3);
        // Defaults mirror the simulator's observatory config.
        let d = opts(&["prog.mc"]).unwrap();
        assert_eq!(d.epoch, ObserveConfig::default().epoch_len);
        assert_eq!(d.limit, 10);
        assert!(d.trace_out.is_none());
    }

    #[test]
    fn sparkline_downsamples_and_scales() {
        assert_eq!(sparkline(&[], 8), "");
        assert_eq!(sparkline(&[0, 0, 0], 8), "▁▁▁");
        let line = sparkline(&[0, 7, 3, 7], 8);
        assert_eq!(line.chars().count(), 4);
        assert!(line.starts_with('▁') && line.contains('█'));
        // 64 epochs fold into at most 8 columns.
        let folded = sparkline(&vec![1; 64], 8);
        assert_eq!(folded.chars().count(), 8);
    }

    #[test]
    fn bench_diff_gates_on_regression() {
        let dir = std::env::temp_dir();
        let old = dir.join("dlc_bench_diff_old.json");
        let new = dir.join("dlc_bench_diff_new.json");
        std::fs::write(
            &old,
            r#"{"seeds": [1, 2], "seconds": 20, "commit": "abc",
                "exec": {"wall_s": 10.0, "insts_per_s": 100.0},
                "tables": {"wall_s": 10.0, "insts_per_s": 2.0}}"#,
        )
        .unwrap();
        std::fs::write(
            &new,
            r#"{"seeds": [1], "seconds": 1, "commit": "def",
                "exec": {"wall_s": 0.5, "insts_per_s": 55.0},
                "tables": {"wall_s": 0.5, "insts_per_s": 2.1}}"#,
        )
        .unwrap();
        let args = |t: &str| {
            vec![
                old.display().to_string(),
                new.display().to_string(),
                "--threshold".to_owned(),
                t.to_owned(),
            ]
        };
        // A 45% drop fails a 10% gate but passes a 60% one.
        let err = bench_diff(&args("10"), &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("exec.insts_per_s"), "unexpected error: {err}");
        assert!(!err.contains("tables"), "unexpected error: {err}");
        assert!(bench_diff(&args("60"), &mut io::sink()).is_ok());
        // A workload that vanished from the new file is reported as
        // removed — it no longer gates, but it is not silently skipped.
        std::fs::write(&new, r#"{"tables": {"insts_per_s": 2.1}}"#).unwrap();
        assert!(bench_diff(&args("10"), &mut io::sink()).is_ok());
        // With nothing left to compare, the gate refuses to pass.
        std::fs::write(&new, r#"{"observed": {"insts_per_s": 1.0}}"#).unwrap();
        assert!(bench_diff(&args("10"), &mut io::sink()).is_err());
        assert!(bench_diff(&[old.display().to_string()], &mut io::sink()).is_err());
    }

    #[test]
    fn diff_metrics_reports_one_sided_keys_as_added_or_removed() {
        let old = Json::parse(
            r#"{"seeds": [1, 2, 3], "seconds": 20,
                "exec": {"insts_per_s": 100.0, "wall_s": 1.0},
                "tables": {"insts_per_s": 2.0}}"#,
        )
        .unwrap();
        let new = Json::parse(
            r#"{"seeds": [1], "seconds": 1,
                "exec": {"insts_per_s": 99.0, "wall_s": 9.0},
                "observed": {"insts_per_s": 80.0}}"#,
        )
        .unwrap();
        let d = diff_metrics(&old, &new, 10.0);
        // Only insts_per_s gates: a ninefold wall_s is no regression.
        assert_eq!(d.compared, 1);
        assert!(d.regressions.is_empty());
        assert_eq!(d.added, vec!["observed.insts_per_s"]);
        assert_eq!(d.removed, vec!["tables.insts_per_s"]);
        // Run metadata and ungated metrics appear nowhere.
        for key in ["seeds.insts_per_s", "exec.wall_s"] {
            assert!(!d.added.iter().any(|k| k == key));
            assert!(!d.removed.iter().any(|k| k == key));
        }
    }

    #[test]
    fn dispatch_reports_unknown_command() {
        let e = dispatch(&["frobnicate".into(), "x.mc".into()], &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn dispatch_reports_missing_file() {
        let e = dispatch(&["run".into(), "/nonexistent/x.mc".into()], &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(e.contains("x.mc"));
    }
}
