//! The four workloads. Each is one thread running a closed loop with
//! one op in flight; the seed only permutes op order.
//!
//! A workload splits into set-up (`prepare`: the one-time work before
//! the first timed op) and a timed phase (the returned closure).

pub mod exec;
pub mod observed;
pub mod static_path;
pub mod tables;

use std::collections::BTreeMap;

use dl_minic::OptLevel;
use dl_mips::program::Program;
use dl_sim::{BlockStats, RunResult};
use dl_workloads::Benchmark;

use crate::metrics::ratio;
use crate::trace::Tracer;
use crate::Phase;

/// A timed phase, ready to run.
pub type Timed = Box<dyn FnOnce(&Tracer) -> Phase>;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Regenerate all 24 tables as `repro --jobs 1 all` does.
    Tables,
    /// Simulate each of the tables' 43 distinct executions once per
    /// pass, as `dlc run` does.
    Exec,
    /// Compile, analyze, and predict on every bundled program at O0
    /// and O1, with no simulation.
    Static,
    /// Simulate the memory-matrix executions with the per-site
    /// observatory and three-Cs classification attached.
    Observed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Tables,
        Workload::Exec,
        Workload::Static,
        Workload::Observed,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tables => "tables",
            Workload::Exec => "exec",
            Workload::Static => "static",
            Workload::Observed => "observed",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes over the workload's op list in a run of `seconds`. Fixed
    /// by `seconds` and a nominal pass cost, never by measured speed,
    /// so every run of a given length does the same work. `exec` and
    /// `static` keep at least 100 ops, so `op_p90_ms` has ten samples
    /// beyond it.
    #[must_use]
    pub fn passes(self, seconds: u64) -> usize {
        let (nominal_pass_secs, min_passes) = match self {
            Workload::Tables => (16.0, 1),
            Workload::Exec => (2.2, 3),
            Workload::Static => (0.24, 3),
            Workload::Observed => (3.0, 2),
        };
        ((seconds as f64 / nominal_pass_secs).round() as usize).max(min_passes)
    }

    /// Fresh set-ups timed before the timed phase, and again after it
    /// (see `measure::end_to_end`). Short set-ups repeat more, so each
    /// batch times at least ~25 ms of set-up.
    #[must_use]
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Tables => 101,
            Workload::Exec => 5,
            Workload::Static => 1001,
            Workload::Observed => 21,
        }
    }

    /// Does the one-time set-up for a run over `passes` passes and
    /// returns the timed phase.
    #[must_use]
    pub fn prepare(self, seed: u64, passes: usize, tracer: &Tracer) -> Timed {
        match self {
            Workload::Tables => tables::prepare(seed, passes, tracer),
            Workload::Exec => exec::prepare(seed, passes, tracer),
            Workload::Static => static_path::prepare(seed, passes),
            Workload::Observed => observed::prepare(seed, passes, tracer),
        }
    }
}

/// One simulated execution: a program, its optimization level, and
/// its input set.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The benchmark.
    pub bench: Benchmark,
    /// Optimization level.
    pub opt: OptLevel,
    /// Input set (1 or 2).
    pub input_set: u8,
}

impl Execution {
    /// The golden-file key, e.g. `181.mcf@O0/in1`.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}@{}/in{}", self.bench.name, self.opt, self.input_set)
    }

    fn program_key(&self) -> String {
        format!("{}@{}", self.bench.name, self.opt)
    }
}

/// Compiled programs by `name@opt`; a failed compile is kept as its
/// error so every op needing it fails.
pub type Programs = BTreeMap<String, Result<Program, String>>;

/// Compiles each distinct program `executions` need, one
/// `minic.compile` span each.
#[must_use]
pub fn compile_all(executions: &[Execution], tracer: &Tracer) -> Programs {
    let mut programs = Programs::new();
    for e in executions {
        let key = e.program_key();
        if programs.contains_key(&key) {
            continue;
        }
        let program = tracer.span(
            || format!("setup/{key}/minic.compile"),
            || e.bench.compile(e.opt).map_err(|err| err.to_string()),
        );
        programs.insert(key, program);
    }
    programs
}

/// The compiled program for `e`.
///
/// # Errors
///
/// The compile error, when it did not compile.
pub fn program_for<'p>(programs: &'p Programs, e: &Execution) -> Result<&'p Program, String> {
    match programs.get(&e.program_key()) {
        Some(Ok(p)) => Ok(p),
        Some(Err(err)) => Err(format!("compile failed: {err}")),
        None => Err("not compiled in set-up".to_owned()),
    }
}

/// Records the compiler counters for `programs` on `phase`.
pub fn count_programs(phase: &mut Phase, programs: &Programs) {
    for p in programs.values().flatten() {
        phase.add("minic.programs", 1.0);
        phase.add("minic.insts_emitted", p.insts.len() as f64);
    }
}

/// Adds one run's memory-system counters to `phase`.
pub fn count_memory(phase: &mut Phase, r: &RunResult) {
    phase.add("mem.dcache_accesses", r.dcache_accesses as f64);
    phase.add("mem.dcache_misses", r.dcache_misses as f64);
    phase.add("mem.l2_misses", r.l2_misses as f64);
    phase.add("mem.prefetch_fills", r.prefetch_fills as f64);
    phase.add("mem.prefetch_useful", r.prefetch_useful as f64);
}

/// Adds merged block-engine counters to `phase`.
pub fn count_block(phase: &mut Phase, b: &BlockStats) {
    phase.add("block.blocks_decoded", b.blocks_decoded as f64);
    phase.add("block.dispatches", b.dispatches as f64);
    phase.add(
        "block.dispatch_hit_ratio",
        ratio(b.dispatch_hits as f64, b.dispatches as f64),
    );
    phase.add("block.mean_block_len", b.mean_block_len());
}
