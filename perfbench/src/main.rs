//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <tables|exec|static|observed> --seed <n>
//!           --seconds <n> --trace <0|1> [--trace-out <path>]
//! perfbench golden <dir>
//! ```
//!
//! A run prints an info line and then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed`, and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `golden` rewrites `<dir>/exec.txt` (from the step
//! interpreter) and `<dir>/static.txt`.

use std::process::ExitCode;

use dl_perfbench::golden::{run_digest, Golden};
use dl_perfbench::measure::{end_to_end, traced};
use dl_perfbench::metrics::result_line;
use dl_perfbench::trace::Tracer;
use dl_perfbench::workloads::{compile_all, exec, program_for, static_path, Workload};
use dl_sim::{run_with_stats, Engine, RunConfig};

const USAGE: &str = "usage: perfbench --workload <tables|exec|static|observed> --seed <n> \
                     --seconds <n> --trace <0|1> [--trace-out <path>]\n       \
                     perfbench golden <dir>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// The program reads `DL_*` variables for its engine, worker count,
/// observation, and memory system; a run with any of them set would
/// not measure the fixed configuration each workload names.
fn pinned_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DL_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn write_golden(dir: &str) -> Result<(), String> {
    let executions = exec::executions();
    let programs = compile_all(&executions, &Tracer::off());
    let mut text = String::from(
        "# RunResult digest per execution, from the step interpreter (perfbench golden).\n",
    );
    for e in &executions {
        let program = program_for(&programs, e)?;
        let config = RunConfig {
            engine: Engine::Step,
            ..exec::config(e)
        };
        let (result, _) = run_with_stats(program, &config).map_err(|t| t.to_string())?;
        text.push_str(&format!("{} {}\n", e.key(), run_digest(&result)));
    }
    std::fs::write(format!("{dir}/exec.txt"), text).map_err(|e| e.to_string())?;

    let ops = static_path::programs();
    let order: Vec<usize> = (0..ops.len()).collect();
    let phase = static_path::run(&ops, &order, &Golden::accept_all(), &Tracer::off());
    let mut text = String::from("# Flagged sets per program as count:hash (perfbench golden).\n");
    for op in &ops {
        let key = static_path::key(op);
        let digest = phase.outputs.get(&key).ok_or(format!("{key} failed"))?;
        text.push_str(&format!("{key} {digest}\n"));
    }
    std::fs::write(format!("{dir}/static.txt"), text).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(why) = pinned_environment() {
        eprintln!("perfbench: {why}");
        return ExitCode::from(2);
    }
    if args.first().map(String::as_str) == Some("golden") {
        let Some(dir) = args.get(1) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match write_golden(dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("perfbench: golden: {why}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} passes={} engine={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        w.passes(args.seconds),
        RunConfig::default().engine.name(),
        u8::from(args.trace)
    );
    let report = if args.trace {
        let (report, tracer) = traced(w, args.seed, args.seconds);
        if let (Some(path), Some(trace)) = (&args.trace_out, tracer.chrome_trace()) {
            if let Err(e) = std::fs::write(path, trace.render()) {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        report
    } else {
        end_to_end(w, args.seed, args.seconds)
    };
    println!("{}", report.info);
    println!(
        "{}",
        result_line(report.attempted, report.failed, &report.metrics)
    );
    ExitCode::SUCCESS
}
