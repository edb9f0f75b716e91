//! Table regeneration CLI.
//!
//! ```text
//! repro all                    # print every table as markdown
//! repro table11 table12        # print specific tables
//! repro write-experiments PATH # emit the EXPERIMENTS.md document
//! repro list                   # list available targets
//! ```
//!
//! `--jobs N` sets the worker count used to pre-warm the simulation
//! memo table before tables are assembled; the default is the
//! machine's available parallelism. Output is byte-identical for every
//! worker count — table assembly is always sequential over the warmed
//! memo table.
//!
//! `--engine step|block` selects the simulator core for every
//! simulation, spelled as `dlc --engine`: the block-cached engine (the
//! default) or the reference per-instruction interpreter. Tables are
//! byte-identical under either, which is what makes `step` an oracle.
//!
//! Observability:
//!
//! - `--manifest PATH` writes a machine-readable `RUN_MANIFEST.json`
//!   (stage wall times, memo hit/miss/wait counters, per-worker
//!   utilisation, miss-class breakdown, the engine).
//! - `--profile` prints the same data as a human report on stderr.
//!   Tables on stdout are byte-identical with or without either.
//! - `--smoke` shrinks benchmark inputs so CI can exercise the whole
//!   pipeline (and validate the manifest) in seconds.
//! - `--trace-out PATH` writes a Chrome trace-event JSON timeline
//!   (loadable in Perfetto / `chrome://tracing`) with one span per
//!   compilation, per computed analysis pass, and per simulated
//!   configuration, plus the top-level run stages.

use std::fmt::Display;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use dl_experiments::document::experiments_doc;
use dl_experiments::obs::{profile_text, run_manifest, RunInfo};
use dl_experiments::pipeline::Pipeline;
use dl_experiments::schedule::{default_jobs, prewarm_with_stats, union_specs, PrewarmReport};
use dl_experiments::tables::all_tables;
use dl_obs::span::Spans;
use dl_sim::Engine;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--jobs N] [--engine step|block] [--smoke] [--profile] \
         [--manifest PATH] [--trace-out PATH] \
         <all | list | write-experiments [PATH] | TABLE...>\n       \
         (`repro list` prints every TABLE)"
    );
    std::process::exit(2);
}

/// Writes one line to stdout. A reader that closed the pipe (`repro
/// list | head -1`) wants no more output, so the run ends quietly
/// with exit 0; any other write failure ends it with exit 1.
fn emit(out: &mut impl Write, line: impl Display) {
    if let Err(e) = writeln!(out, "{line}") {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("repro: writing stdout: {e}");
        std::process::exit(1);
    }
}

/// Parses `--jobs N` out of the argument list (removing it), falling
/// back to available parallelism. `--jobs 0` runs one worker.
fn parse_jobs(args: &mut Vec<String>) -> usize {
    parse_value(args, "--jobs").map_or_else(default_jobs, |n| {
        n.parse::<usize>().unwrap_or_else(|_| usage()).max(1)
    })
}

/// Parses `--engine step|block` out of the argument list (removing
/// it), spelled as `dlc --engine`; the default is [`Engine::Block`].
fn parse_engine(args: &mut Vec<String>) -> Engine {
    parse_value(args, "--engine").map_or_else(Engine::default, |name| {
        name.parse().unwrap_or_else(|e: String| {
            eprintln!("repro: {e}");
            usage()
        })
    })
}

/// Removes a boolean flag from the argument list, reporting presence.
fn parse_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        return true;
    }
    false
}

/// Removes `<flag> VALUE` from the argument list.
fn parse_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        usage();
    }
    let value = args[i + 1].clone();
    args.drain(i..=i + 1);
    Some(value)
}

/// How the run is being observed, resolved from flags.
struct Obs {
    /// Write the JSON manifest here, if anywhere.
    manifest: Option<String>,
    /// Print the human profile report on stderr.
    profile: bool,
    /// Write the Chrome trace-event timeline here, if anywhere.
    trace: Option<String>,
}

impl Obs {
    fn resolve(args: &mut Vec<String>) -> Self {
        Self {
            manifest: parse_value(args, "--manifest"),
            profile: parse_flag(args, "--profile"),
            trace: parse_value(args, "--trace-out"),
        }
    }

    /// Whether any per-run collection (miss classification, manifest
    /// assembly) should be enabled at all. Tracing alone does not need
    /// classification — it only records timing spans.
    fn enabled(&self) -> bool {
        self.manifest.is_some() || self.profile
    }

    /// Emits the trace timeline, manifest file, and/or profile report.
    fn finish(
        &self,
        info: &RunInfo,
        pipeline: &Pipeline,
        report: Option<&PrewarmReport>,
        spans: &Spans,
    ) {
        if let Some(path) = &self.trace {
            std::fs::write(path, dl_obs::chrome_trace(spans).render()).expect("write trace");
            eprintln!("[trace written to {path}]");
        }
        if !self.enabled() {
            return;
        }
        let manifest = run_manifest(info, pipeline, report, spans);
        if let Some(path) = &self.manifest {
            std::fs::write(path, manifest.render()).expect("write manifest");
            eprintln!("[manifest written to {path}]");
        }
        if self.profile {
            eprint!("{}", profile_text(&manifest));
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = parse_jobs(&mut args);
    let engine = parse_engine(&mut args);
    let smoke = parse_flag(&mut args, "--smoke");
    let obs = Obs::resolve(&mut args);
    if args.is_empty() && smoke {
        // `repro --smoke` alone exercises the cheapest heuristic table
        // plus the reuse-predictor table: enough for CI to validate
        // the pipeline, the manifest contract, and both predictors.
        args.push("table3".into());
        args.push("extension-reuse".into());
    }
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        usage();
    }
    let tables = all_tables();
    let mut out = io::stdout().lock();
    if args[0] == "list" {
        for (name, _) in &tables {
            emit(&mut out, name);
        }
        return;
    }
    let spans = Arc::new(Spans::default());
    let total = Instant::now();
    if args[0] == "write-experiments" {
        let path = args.get(1).map_or("EXPERIMENTS.md", |s| s.as_str());
        let names: Vec<&str> = tables.iter().map(|(n, _)| *n).collect();
        let pipeline = pipeline(engine, &obs, &names, &spans);
        let report = warm(&pipeline, &names, jobs, smoke, &spans);
        let doc = spans.time("document", || {
            experiments_doc(&pipeline, &tables, |name, secs| {
                eprintln!("[{name} in {secs:.1}s]");
            })
        });
        std::fs::write(path, doc).expect("write EXPERIMENTS.md");
        eprintln!(
            "wrote {path} ({} simulations, {} jobs, {:.1}s total)",
            pipeline.simulations(),
            jobs,
            total.elapsed().as_secs_f64()
        );
        let info = run_info(jobs, smoke, &names);
        obs.finish(&info, &pipeline, report.as_ref(), &spans);
        return;
    }
    let wanted: Vec<&str> = if args[0] == "all" {
        tables.iter().map(|(n, _)| *n).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in &wanted {
        if !tables.iter().any(|(n, _)| n == name) {
            eprintln!("unknown target `{name}` (try `repro list`)");
            std::process::exit(2);
        }
    }
    let pipeline = pipeline(engine, &obs, &wanted, &spans);
    let report = warm(&pipeline, &wanted, jobs, smoke, &spans);
    for name in &wanted {
        let (_, f) = tables
            .iter()
            .find(|(n, _)| n == name)
            .expect("validated above");
        let start = Instant::now();
        let table = spans.time(&format!("tables/{name}"), || f(&pipeline));
        emit(&mut out, table);
        eprintln!("[{name} in {:.1}s]", start.elapsed().as_secs_f64());
    }
    eprintln!(
        "[{} table(s), {} simulations, {} jobs, {:.1}s total]",
        wanted.len(),
        pipeline.simulations(),
        jobs,
        total.elapsed().as_secs_f64()
    );
    let info = run_info(jobs, smoke, &wanted);
    obs.finish(&info, &pipeline, report.as_ref(), &spans);
}

/// The pipeline for rendering `tables`: it plans exactly their
/// configurations, so each execution they share runs once.
fn pipeline(engine: Engine, obs: &Obs, tables: &[&str], spans: &Arc<Spans>) -> Pipeline {
    let pipeline = Pipeline::with_config(engine, obs.enabled()).planned(tables);
    if obs.trace.is_some() {
        pipeline.set_trace_spans(Arc::clone(spans));
    }
    pipeline
}

fn run_info(jobs: usize, smoke: bool, tables: &[&str]) -> RunInfo {
    RunInfo {
        command: "repro".into(),
        jobs,
        smoke,
        tables: tables.iter().map(|t| (*t).to_owned()).collect(),
    }
}

/// Pre-warms the memo table for the requested tables across `jobs`
/// workers. With `smoke`, benchmark inputs are clamped small — the
/// memo key ignores input *values*, so the later table assembly hits
/// the shrunk entries and the whole run stays fast.
fn warm(
    pipeline: &Pipeline,
    tables: &[&str],
    jobs: usize,
    smoke: bool,
    spans: &Spans,
) -> Option<PrewarmReport> {
    let mut specs = union_specs(tables.iter().copied());
    if specs.is_empty() {
        return None;
    }
    if smoke {
        for spec in &mut specs {
            spec.bench = spec.bench.smoke();
        }
    }
    let report = spans.time("warm", || prewarm_with_stats(pipeline, &specs, jobs));
    eprintln!(
        "[warmed {} configurations on {jobs} worker(s) in {:.1}s]",
        report.processed, report.wall_secs
    );
    Some(report)
}
