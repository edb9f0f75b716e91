//! The compile → simulate → analyze pipeline, memoized per
//! [`RunSpec`]: benchmark, optimization level, input set, cache
//! geometry, memory system, prefetch-site filter and reuse
//! measurement.
//!
//! The memo table is thread-safe: one `Mutex<HashMap>` maps each spec
//! to a shared `OnceLock` cell, and the lock is held only for that
//! lookup. A miss takes its execution's lock — one per `(benchmark,
//! opt, input set)` — so requests are deduplicated *in flight*: a
//! configuration is simulated exactly once no matter how many threads
//! race for it, and every other requester waits and then shares the
//! result. If a simulating thread panics, its entries stay empty and
//! a waiter simulates instead.
//!
//! Execute once, model many: a pipeline has a *plan*, the specs of the
//! tables it will render ([`Pipeline::planned`]), grouped by execution
//! on the first memo miss. A miss on a planned spec runs that
//! execution once and replays its access stream into every planned
//! configuration of it that is not ready yet
//! ([`dl_sim::run_many`]). Unplanned specs (runs derived at render
//! time, ad-hoc requests) simulate alone, or together with the other
//! specs of their execution requested in the same
//! [`Pipeline::run_specs`] call.
//!
//! Compilation and analysis are additionally memoized per
//! `(benchmark, opt)` — independent of input set and cache geometry —
//! so sweeping four cache sizes over one benchmark compiles it once.
//!
//! Every table-generation PR to come needs to see inside this machine,
//! so the pipeline self-reports: memo hit/miss/wait counters
//! ([`Pipeline::stats`]; a miss is one engine run), per-configuration
//! compile and simulation wall times ([`Pipeline::config_timings`]),
//! and — for a pipeline built by [`Pipeline::with_config`] with
//! classification on — the simulator's miss-class breakdown on every
//! run it computes.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use dl_analysis::ctx::{AnalysisCtx, CtxStats};
use dl_analysis::extract::ProgramAnalysis;
use dl_minic::OptLevel;
use dl_mips::program::Program;
use dl_obs::Spans;
use dl_sim::{
    run_many, BlockStats, CacheConfig, Engine, MemoryConfig, ReuseMeasurement, RunConfig, RunResult,
};
use dl_workloads::Benchmark;

use crate::obs::SpanPassObserver;
use crate::schedule::{union_specs, RunSpec};
use crate::tables::all_tables;

/// Everything produced by one end-to-end benchmark run.
#[derive(Debug)]
pub struct BenchRun {
    /// The configuration this run simulated, with the benchmark (and
    /// so the input values) it actually ran on.
    spec: RunSpec,
    /// The shared analysis context of the compiled program, with this
    /// run's execution counts attached as its profile. Clones of the
    /// pipeline's per-`(bench, opt)` ctx: every run of the same
    /// compilation shares one set of pass caches.
    ctx: AnalysisCtx,
    /// Simulation measurements.
    pub result: RunResult,
    /// Measured per-site reuse-distance histograms, when the spec
    /// asked for them ([`RunSpec::reuse`]).
    pub reuse: Option<ReuseMeasurement>,
}

impl BenchRun {
    /// The run's configuration. A run that must repeat this one under
    /// another configuration derives its spec from here, so it keeps
    /// this run's benchmark and input.
    #[must_use]
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The run's analysis context: every analysis of the compiled
    /// program, lazily computed and shared across runs, with this
    /// run's execution counts attached.
    #[must_use]
    pub fn ctx(&self) -> &AnalysisCtx {
        &self.ctx
    }

    /// The compiled program.
    #[must_use]
    pub fn program(&self) -> &Program {
        self.ctx.program()
    }

    /// Address-pattern analysis of every static load.
    #[must_use]
    pub fn analysis(&self) -> &ProgramAnalysis {
        self.ctx.analysis()
    }

    /// Λ — the number of static load instructions.
    #[must_use]
    pub fn lambda(&self) -> usize {
        self.analysis().loads.len()
    }

    /// Instruction indices of all static loads.
    #[must_use]
    pub fn load_indices(&self) -> Vec<usize> {
        self.analysis().loads.iter().map(|l| l.index).collect()
    }
}

/// One memo-table entry: empty while its simulation is in flight (or
/// after it panicked), then the finished run shared by every requester.
type Slot = Arc<OnceLock<Arc<BenchRun>>>;

/// Snapshot of the pipeline's memo-table counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Requests served from a ready memo entry, including entries a
    /// shared execution computed alongside another request's.
    pub hits: u64,
    /// Engine runs: requests that found their entry missing and ran
    /// its execution once, modeling it and any planned siblings.
    pub misses: u64,
    /// Requests that blocked on another thread's in-flight computation.
    pub waits: u64,
    /// Compile requests served from the compile cache.
    pub compile_hits: u64,
    /// Compilations actually performed.
    pub compile_misses: u64,
    /// Instructions summed over every computed configuration: an
    /// execution shared by `n` configurations counts `n` times.
    pub sim_instructions: u64,
    /// Block-cache counters merged over every execution (all zero when
    /// simulations ran under [`Engine::Step`]).
    pub block: BlockStats,
}

impl MemoStats {
    /// Fraction of run requests served without simulating, or 0 with
    /// no traffic.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Wall-clock record of one computed configuration.
#[derive(Debug, Clone)]
pub struct ConfigTiming {
    /// Benchmark name.
    pub bench: String,
    /// Optimization level.
    pub opt: OptLevel,
    /// Input set.
    pub input_set: u8,
    /// Cache geometry.
    pub cache: CacheConfig,
    /// Memory-system configuration (policy / L2 / prefetch).
    pub memory: MemoryConfig,
    /// How many load sites trigger the prefetcher, when the run
    /// filters them ([`RunSpec::prefetch_sites`]).
    pub sites: Option<usize>,
    /// Whether the run measured reuse distances ([`RunSpec::reuse`]).
    pub reuse: bool,
    /// Seconds spent compiling + analyzing (0 on a compile-cache hit,
    /// and for every configuration but the first of a shared
    /// execution).
    pub compile_secs: f64,
    /// Seconds spent simulating. A shared execution's wall time is
    /// split: each configuration is charged the time its own memory
    /// model spent replaying the access stream, plus an equal share of
    /// the rest (executing, recording, and stripping the stream for the
    /// plain models), so the shares sum to the execution's wall time.
    pub sim_secs: f64,
    /// Instructions the simulation executed.
    pub instructions: u64,
}

impl ConfigTiming {
    /// A compact human label, e.g. `181.mcf/O0/in1/8KB 4-way 32B-block`.
    /// A non-default memory system appends its own segment, e.g.
    /// `…/32B-block/plru+l2:64KB-8w-incl`, and so do a prefetch-site
    /// filter (`…/lru+nl1/12-sites`) and a reuse measurement
    /// (`…/reuse`); the paper configurations keep the bare label.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/in{}/{}",
            self.bench, self.opt, self.input_set, self.cache
        );
        if !self.memory.is_default() {
            let _ = write!(s, "/{}", self.memory);
        }
        if let Some(sites) = self.sites {
            let _ = write!(s, "/{sites}-sites");
        }
        if self.reuse {
            s.push_str("/reuse");
        }
        s
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    compile_hits: AtomicU64,
    compile_misses: AtomicU64,
    sim_instructions: AtomicU64,
}

/// One execution: benchmark name, optimization level, input set. The
/// configurations of one execution can share its access stream.
type ExecKey = (&'static str, OptLevel, u8);

fn execution_of(spec: &RunSpec) -> ExecKey {
    (spec.bench.name, spec.opt, spec.input_set)
}

/// Memoizing, thread-safe pipeline executor.
///
/// Compilation + analysis are shared across input sets and cache
/// geometries for the same `(benchmark, opt)`; simulation results are
/// cached per [`RunSpec`], so tables that share configurations do not
/// re-simulate, and the planned configurations of one execution are
/// computed by one engine run. Concurrent requests for the same spec
/// block until the single in-flight computation finishes and then
/// share its result.
#[derive(Debug)]
pub struct Pipeline {
    runs: Mutex<HashMap<RunSpec, Slot>>,
    /// The tables whose configurations this pipeline plans to compute.
    plan_tables: Vec<&'static str>,
    /// Their specs grouped by execution: built on the first memo miss,
    /// so constructing a pipeline costs nothing.
    plan: OnceLock<HashMap<ExecKey, Vec<RunSpec>>>,
    /// One lock per execution, held while a miss computes its pending
    /// configurations.
    execution_locks: Mutex<HashMap<ExecKey, Arc<Mutex<()>>>>,
    /// One analysis context per `(bench, opt)`: the 99-configuration
    /// sweep analyzes each of its programs exactly once, no matter how
    /// many input sets, cache geometries, or predictors consume them.
    compiled: Mutex<HashMap<(String, OptLevel), AnalysisCtx>>,
    counters: Counters,
    timings: Mutex<Vec<ConfigTiming>>,
    /// Fixed at construction, so every entry of the memo was computed
    /// under the same engine and classification setting.
    engine: Engine,
    classify: bool,
    /// Block-cache counters merged over every computed simulation
    /// (all zero under [`Engine::Step`]).
    block_stats: Mutex<BlockStats>,
    /// When set, every computed compile and simulation records a
    /// timestamped span here (and new analysis contexts forward their
    /// pass computations), so `--trace-out` can lay the whole pipeline
    /// out on one timeline. `None` (the default) records nothing.
    trace: Mutex<Option<Arc<Spans>>>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl Pipeline {
    /// An empty pipeline simulating under the default
    /// [`Engine::Block`], without miss classification, planning every
    /// table.
    #[must_use]
    pub fn new() -> Self {
        Pipeline::with_config(Engine::default(), false)
    }

    /// An empty pipeline whose every simulation runs under `engine`
    /// and, with `classify_misses`, classifies each miss
    /// (compulsory/capacity/conflict and per-set histograms). Both
    /// engines and both settings produce identical hit/miss counts,
    /// so table output is the same under all four. It plans every
    /// table; see [`Pipeline::planned`].
    #[must_use]
    pub fn with_config(engine: Engine, classify_misses: bool) -> Self {
        Pipeline {
            runs: Mutex::default(),
            plan_tables: all_tables().iter().map(|(name, _)| *name).collect(),
            plan: OnceLock::new(),
            execution_locks: Mutex::default(),
            compiled: Mutex::default(),
            counters: Counters::default(),
            timings: Mutex::default(),
            engine,
            classify: classify_misses,
            block_stats: Mutex::default(),
            trace: Mutex::default(),
        }
    }

    /// The same pipeline planning only `tables` (names unknown to
    /// [`all_tables`] plan nothing): a miss on one of their specs
    /// computes every configuration of its execution they ask for,
    /// and any other spec simulates alone. An empty plan simulates
    /// every spec alone.
    #[must_use]
    pub fn planned(mut self, tables: &[&str]) -> Self {
        self.plan_tables.retain(|name| tables.contains(name));
        self
    }

    /// The engine every simulation runs under.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Whether every simulation classifies its misses.
    #[must_use]
    pub(crate) fn classifies_misses(&self) -> bool {
        self.classify
    }

    /// Attaches a span collector that receives a timestamped span for
    /// every compile (`compile/<bench>/<opt>`), every analysis pass a
    /// new context computes (`analysis/<bench>/<opt>/<pass>`), and
    /// every simulation (`sim/<label>`) this pipeline computes *from
    /// now on*. Memoized entries recorded nothing retroactively.
    /// Spans arrive in completion order from whichever worker thread
    /// computed them — a timeline, not a deterministic artifact.
    ///
    /// # Panics
    ///
    /// Panics if the trace lock is poisoned.
    pub fn set_trace_spans(&self, spans: Arc<Spans>) {
        *self.trace.lock().expect("trace lock") = Some(spans);
    }

    fn trace_spans(&self) -> Option<Arc<Spans>> {
        self.trace.lock().expect("trace lock").clone()
    }

    /// Runs (or returns the memoized run of) one paper configuration:
    /// [`Pipeline::run_spec`] under the default memory system, with
    /// every load a prefetch trigger and no reuse measurement.
    ///
    /// # Panics
    ///
    /// As [`Pipeline::run_spec`].
    #[must_use]
    pub fn run(
        &self,
        bench: &Benchmark,
        opt: OptLevel,
        input_set: u8,
        cache: CacheConfig,
    ) -> Arc<BenchRun> {
        self.run_spec(&RunSpec::new(bench.clone(), opt, input_set, cache))
    }

    /// Runs (or returns the memoized run of) one configuration — the
    /// one way the experiments simulate, so every simulation the
    /// tables trigger shares the memo table, the compile cache and the
    /// counters: [`Pipeline::run_specs`] of one spec. A miss on a
    /// planned spec also computes every other planned configuration of
    /// its execution that is not ready yet, on this spec's benchmark
    /// (and so its input), in one engine run.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark fails to compile or traps during
    /// simulation — both indicate bugs in the bundled workloads and
    /// are covered by tests. A panic leaves the entries empty, so a
    /// concurrent waiter simulates them instead of deadlocking.
    #[must_use]
    pub fn run_spec(&self, spec: &RunSpec) -> Arc<BenchRun> {
        self.run_requested(spec, std::slice::from_ref(spec))
    }

    /// Runs (or returns the memoized runs of) `specs`, in order. A
    /// miss computes, in one engine run, every configuration of its
    /// execution that is still empty and either requested here or
    /// planned — the plan joins when a requested spec of that
    /// execution is planned — on the missed spec's benchmark (and so
    /// its input). Runs derived from one base run, such as
    /// `extension-prefetch`'s site-filtered ones, share an execution
    /// this way.
    ///
    /// # Panics
    ///
    /// As [`Pipeline::run_spec`].
    #[must_use]
    pub fn run_specs(&self, specs: &[RunSpec]) -> Vec<Arc<BenchRun>> {
        specs
            .iter()
            .map(|spec| self.run_requested(spec, specs))
            .collect()
    }

    /// The run of `spec`, one of `requested`: a memo hit, or the miss
    /// path shared by every request.
    fn run_requested(&self, spec: &RunSpec, requested: &[RunSpec]) -> Arc<BenchRun> {
        let slot = self.slot(spec);
        if let Some(run) = slot.get() {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(run);
        }
        let execution = execution_of(spec);
        let lock = Arc::clone(
            self.execution_locks
                .lock()
                .expect("execution lock table")
                .entry(execution)
                .or_default(),
        );
        // A thread that panicked mid-run poisons the lock and leaves
        // its entries empty; the next one simply computes them.
        let _running = lock.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(run) = slot.get() {
            self.counters.waits.fetch_add(1, Ordering::Relaxed);
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(run);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let requested: Vec<&RunSpec> = requested
            .iter()
            .filter(|other| execution_of(other) == execution)
            .collect();
        let planned = requested
            .iter()
            .find_map(|other| self.planned_execution(other))
            .unwrap_or_default();
        // Every candidate still empty, once, on this spec's benchmark.
        let mut specs: Vec<RunSpec> = Vec::new();
        let mut slots: Vec<Slot> = Vec::new();
        for candidate in planned.iter().chain(requested) {
            if specs.contains(candidate) {
                continue;
            }
            let slot = self.slot(candidate);
            if slot.get().is_none() {
                specs.push(RunSpec {
                    bench: spec.bench.clone(),
                    ..candidate.clone()
                });
                slots.push(slot);
            }
        }
        for (run, slot) in self.compute(&specs).into_iter().zip(slots) {
            // Entries of this execution fill only under its lock, so
            // each is still empty.
            let _ = slot.set(Arc::new(run));
        }
        Arc::clone(slot.get().expect("the requested spec was pending"))
    }

    /// The memo entry of `spec`, created empty if absent.
    fn slot(&self, spec: &RunSpec) -> Slot {
        Arc::clone(
            self.runs
                .lock()
                .expect("pipeline lock")
                .entry(spec.clone())
                .or_default(),
        )
    }

    /// The planned specs of `spec`'s execution, if `spec` is one of
    /// them. Groups the plan on first use.
    fn planned_execution(&self, spec: &RunSpec) -> Option<&[RunSpec]> {
        let plan = self.plan.get_or_init(|| {
            let mut plan: HashMap<ExecKey, Vec<RunSpec>> = HashMap::new();
            for planned in union_specs(self.plan_tables.iter().copied()) {
                plan.entry(execution_of(&planned))
                    .or_default()
                    .push(planned);
            }
            plan
        });
        let planned = plan.get(&execution_of(spec))?;
        planned.contains(spec).then_some(planned.as_slice())
    }

    /// Compiles and analyzes `bench` at `opt`, memoized per
    /// `(name, opt)`. Racing compiles of the same key may both do the
    /// work (compilation is pure and cheap next to simulation); the
    /// first insertion wins so every caller shares one ctx — and with
    /// it one set of pass caches.
    fn compiled_for(&self, bench: &Benchmark, opt: OptLevel) -> (AnalysisCtx, f64) {
        let key = (bench.name.to_owned(), opt);
        if let Some(hit) = self.compiled.lock().expect("compile lock").get(&key) {
            self.counters.compile_hits.fetch_add(1, Ordering::Relaxed);
            return (hit.clone(), 0.0);
        }
        let start = Instant::now();
        let program = bench
            .compile(opt)
            .unwrap_or_else(|e| panic!("{} does not compile at {opt}: {e}", bench.name));
        // Debug builds verify every compiled program before analysis;
        // a codegen bug should fail loudly here, not as mysterious
        // simulator output three layers down.
        #[cfg(debug_assertions)]
        if let Err(violations) = dl_mips::verify::verify_program(&program) {
            let detail: Vec<String> = violations.iter().map(ToString::to_string).collect();
            panic!(
                "{} at {opt} failed assembly verification: {}",
                bench.name,
                detail.join("; ")
            );
        }
        let ctx = AnalysisCtx::new(program);
        if let Some(spans) = self.trace_spans() {
            ctx.set_pass_observer(Arc::new(SpanPassObserver::new(
                spans,
                format!("analysis/{}/{opt}", bench.name),
            )));
        }
        // Force pattern extraction eagerly: prewarm worker threads
        // parallelize it here, and `compile_secs` keeps covering
        // compile + extraction. Loop nests, load classes, and
        // frequency estimates stay lazy — many runs never need them.
        let _ = ctx.analysis();
        let secs = start.elapsed().as_secs_f64();
        if let Some(spans) = self.trace_spans() {
            spans.record_at(&format!("compile/{}/{opt}", bench.name), start, secs);
        }
        self.counters.compile_misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.compiled.lock().expect("compile lock");
        let entry = map.entry(key).or_insert_with(|| ctx.clone());
        (entry.clone(), secs)
    }

    /// The uncached compile → analyze → simulate path, and the only
    /// place the experiments build a [`RunConfig`]: one engine run of
    /// the execution `specs` share (benchmark, opt, input set), one
    /// run per spec.
    fn compute(&self, specs: &[RunSpec]) -> Vec<BenchRun> {
        let first = specs.first().expect("at least one spec");
        let (bench, opt) = (&first.bench, first.opt);
        let (compiled, compile_secs) = self.compiled_for(bench, opt);
        let input = bench.input(first.input_set);
        let configs: Vec<RunConfig> = specs
            .iter()
            .map(|spec| RunConfig {
                cache: spec.cache,
                memory: spec.memory,
                input: input.to_vec(),
                prefetch_sites: spec.prefetch_sites.clone(),
                classify_misses: self.classify,
                reuse_profile: spec.reuse,
                engine: self.engine,
                ..RunConfig::default()
            })
            .collect();
        let sim_start = Instant::now();
        let outputs = run_many(compiled.program(), &configs)
            .unwrap_or_else(|e| panic!("{} trapped at {opt}: {e}", bench.name));
        let sim_secs = sim_start.elapsed().as_secs_f64();
        // Each configuration is charged its own model's replay time
        // plus an equal share of the rest: executing, recording and
        // stripping.
        let replay_secs: f64 = outputs.iter().map(|out| out.replay_secs).sum();
        let shared_secs = (sim_secs - replay_secs).max(0.0) / specs.len() as f64;
        let instructions = outputs[0].result.instructions;
        self.counters
            .sim_instructions
            .fetch_add(instructions * specs.len() as u64, Ordering::Relaxed);
        if let Some(stats) = &outputs[0].block_stats {
            self.block_stats
                .lock()
                .expect("block stats lock")
                .merge(stats);
        }
        let spans = self.trace_spans();
        let mut offset = 0.0;
        let mut timings = Vec::with_capacity(specs.len());
        let runs = specs
            .iter()
            .zip(outputs)
            .map(|(spec, out)| {
                let timing = ConfigTiming {
                    bench: spec.bench.name.to_owned(),
                    opt,
                    input_set: spec.input_set,
                    cache: spec.cache,
                    memory: spec.memory,
                    sites: spec.prefetch_sites.as_ref().map(Vec::len),
                    reuse: spec.reuse,
                    compile_secs: if timings.is_empty() {
                        compile_secs
                    } else {
                        0.0
                    },
                    sim_secs: shared_secs + out.replay_secs,
                    instructions,
                };
                // Shares laid end to end: one span per configuration,
                // together covering the execution.
                if let Some(spans) = &spans {
                    let start = sim_start + Duration::from_secs_f64(offset);
                    spans.record_at(&format!("sim/{}", timing.label()), start, timing.sim_secs);
                }
                offset += timing.sim_secs;
                timings.push(timing);
                BenchRun {
                    spec: spec.clone(),
                    ctx: compiled.with_profile(&out.result.exec_counts),
                    result: out.result,
                    reuse: out.reuse,
                }
            })
            .collect();
        self.timings
            .lock()
            .expect("timing lock")
            .append(&mut timings);
        runs
    }

    /// Number of distinct simulations completed so far.
    #[must_use]
    pub fn simulations(&self) -> usize {
        self.ready_runs().len()
    }

    /// Snapshot of the memo-table counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            waits: self.counters.waits.load(Ordering::Relaxed),
            compile_hits: self.counters.compile_hits.load(Ordering::Relaxed),
            compile_misses: self.counters.compile_misses.load(Ordering::Relaxed),
            sim_instructions: self.counters.sim_instructions.load(Ordering::Relaxed),
            block: *self.block_stats.lock().expect("block stats lock"),
        }
    }

    /// Per-configuration wall-clock records, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if the timing lock is poisoned.
    #[must_use]
    pub fn config_timings(&self) -> Vec<ConfigTiming> {
        self.timings.lock().expect("timing lock").clone()
    }

    /// Merged pass-cache counters over every analysis context in the
    /// compile cache: how often each analysis was requested, how often
    /// it was actually computed, and the wall time it cost. With the
    /// ctx in place, each `(bench, opt)` pair computes each pass at
    /// most once — everything above the `misses` line is sharing.
    ///
    /// # Panics
    ///
    /// Panics if the compile lock is poisoned.
    #[must_use]
    pub fn analysis_stats(&self) -> CtxStats {
        let mut merged = CtxStats::default();
        for ctx in self.compiled.lock().expect("compile lock").values() {
            merged.merge(&ctx.stats());
        }
        merged
    }

    /// Number of distinct `(bench, opt)` analysis contexts built so
    /// far — the number of programs analyzed, as opposed to the number
    /// of configurations simulated.
    ///
    /// # Panics
    ///
    /// Panics if the compile lock is poisoned.
    #[must_use]
    pub fn analysis_contexts(&self) -> usize {
        self.compiled.lock().expect("compile lock").len()
    }

    /// Every ready (completed) run currently in the memo table, in an
    /// unspecified order. Used to aggregate per-run measurements —
    /// e.g. the miss-class breakdown — without re-running anything.
    #[must_use]
    pub fn ready_runs(&self) -> Vec<Arc<BenchRun>> {
        self.runs
            .lock()
            .expect("pipeline lock")
            .values()
            .filter_map(|slot| slot.get().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_shares_runs() {
        let p = Pipeline::new().planned(&[]);
        // A small benchmark keeps the test fast.
        let mut b = dl_workloads::by_name("197.parser").expect("exists");
        b.input1 = vec![500, 2];
        let r1 = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let r2 = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        assert!(Arc::ptr_eq(&r1, &r2));
        assert_eq!(p.simulations(), 1);
        let r3 = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_baseline());
        assert!(!Arc::ptr_eq(&r1, &r3));
        assert_eq!(p.simulations(), 2);
    }

    #[test]
    fn stats_track_hits_misses_and_compile_sharing() {
        let p = Pipeline::new().planned(&[]);
        let mut b = dl_workloads::by_name("197.parser").expect("exists");
        b.input1 = vec![500, 2];
        let _ = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let _ = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let _ = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_baseline());
        let s = p.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        // Two distinct simulations share one compilation.
        assert_eq!(s.compile_misses, 1);
        assert_eq!(s.compile_hits, 1);
        assert!(s.sim_instructions > 0);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        let timings = p.config_timings();
        assert_eq!(timings.len(), 2);
        assert!(timings[0].label().contains("197.parser/O0/in1"));
        // The compile-cache hit reports zero compile seconds.
        assert_eq!(timings[1].compile_secs, 0.0);
        assert_eq!(p.ready_runs().len(), 2);
    }

    #[test]
    fn trace_spans_cover_compile_analysis_and_sim() {
        let p = Pipeline::new().planned(&[]);
        let spans = Arc::new(dl_obs::Spans::default());
        p.set_trace_spans(Arc::clone(&spans));
        let mut b = dl_workloads::by_name("197.parser").expect("exists");
        b.input1 = vec![500, 2];
        let _ = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let _ = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_baseline());
        let records = spans.records();
        let count = |prefix: &str| {
            records
                .iter()
                .filter(|r| r.path.starts_with(prefix))
                .count()
        };
        // One compilation shared by two simulated configurations.
        assert_eq!(count("compile/197.parser/O0"), 1);
        assert_eq!(count("sim/197.parser/O0/in1/"), 2);
        // The eager ctx.analysis() computes cfg/reaching/patterns at
        // minimum; every recorded pass rides the analysis/ prefix.
        assert!(count("analysis/197.parser/O0/") >= 3);
        assert!(records.iter().all(|r| r.secs >= 0.0 && r.start_secs >= 0.0));
    }

    #[test]
    fn classification_flows_into_results() {
        let p = Pipeline::with_config(Engine::default(), true);
        let mut b = dl_workloads::by_name("197.parser").expect("exists");
        b.input1 = vec![500, 2];
        let r = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let profile = r.result.cache_profile.as_ref().expect("profile recorded");
        assert_eq!(profile.classes.total(), r.result.dcache_misses);
        assert!(r.result.load_miss_classes.is_some());
    }

    #[test]
    fn run_produces_consistent_views() {
        let p = Pipeline::new();
        let mut b = dl_workloads::by_name("129.compress").expect("exists");
        b.input1 = vec![2000, 3];
        let r = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        assert_eq!(r.lambda(), r.program().static_load_count());
        assert_eq!(r.result.exec_counts.len(), r.program().insts.len());
        assert!(r.result.instructions > 0);
        // The run's ctx carries the simulation's counts as profile.
        assert_eq!(r.ctx().profile(), Some(r.result.exec_counts.as_slice()));
    }

    #[test]
    fn analysis_context_shared_across_configs() {
        let p = Pipeline::new();
        let mut b = dl_workloads::by_name("197.parser").expect("exists");
        b.input1 = vec![500, 2];
        let r1 = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let r2 = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_baseline());
        // Two configurations, one analyzed program.
        assert_eq!(p.analysis_contexts(), 1);
        let before = p.analysis_stats();
        assert_eq!(before.patterns.misses, 1);
        // Forcing the analysis through both runs only ever hits.
        let _ = r1.analysis();
        let _ = r2.analysis();
        let _ = r1.ctx().loops();
        let _ = r2.ctx().loops();
        let after = p.analysis_stats();
        assert_eq!(after.patterns.misses, 1);
        assert_eq!(after.loops.misses, 1);
        assert!(after.hits() > before.hits());
    }

    #[test]
    fn racing_threads_share_one_simulation() {
        let p = Pipeline::new().planned(&[]);
        let mut b = dl_workloads::by_name("197.parser").expect("exists");
        b.input1 = vec![500, 2];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let p = &p;
                    let b = &b;
                    scope.spawn(move || p.run(b, OptLevel::O0, 1, CacheConfig::paper_training()))
                })
                .collect();
            let runs: Vec<Arc<BenchRun>> = handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect();
            for pair in runs.windows(2) {
                assert!(Arc::ptr_eq(&pair[0], &pair[1]));
            }
        });
        assert_eq!(p.simulations(), 1);
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn memory_config_is_part_of_the_memo_key() {
        use dl_sim::{Policy, Prefetch};
        let p = Pipeline::new().planned(&[]);
        let mut b = dl_workloads::by_name("197.parser").expect("exists");
        b.input1 = vec![500, 2];
        let cache = CacheConfig::paper_training();
        let base = p.run(&b, OptLevel::O0, 1, cache);
        // run() is run_spec() under the default memory system, with no
        // site filter and no reuse measurement: the same entry.
        let same = p.run_spec(base.spec());
        assert!(Arc::ptr_eq(&base, &same));
        assert_eq!(p.simulations(), 1);
        // A different policy, prefetcher, site list or reuse setting is
        // a distinct simulation — but still the same compilation.
        let nl1 = MemoryConfig {
            prefetch: Some(Prefetch::NextLine(1)),
            ..MemoryConfig::default()
        };
        let sites = base.load_indices()[..2].to_vec();
        let variants = [
            RunSpec {
                memory: MemoryConfig {
                    policy: Policy::Plru,
                    ..MemoryConfig::default()
                },
                ..base.spec().clone()
            },
            RunSpec {
                memory: MemoryConfig {
                    prefetch: Some(Prefetch::Stride(2)),
                    ..MemoryConfig::default()
                },
                ..base.spec().clone()
            },
            RunSpec {
                memory: nl1,
                ..base.spec().clone()
            },
            RunSpec {
                memory: nl1,
                prefetch_sites: Some(sites.clone()),
                ..base.spec().clone()
            },
            RunSpec {
                memory: nl1,
                prefetch_sites: Some(sites[..1].to_vec()),
                ..base.spec().clone()
            },
            RunSpec {
                reuse: true,
                ..base.spec().clone()
            },
        ];
        for spec in &variants {
            let run = p.run_spec(spec);
            assert!(!Arc::ptr_eq(&base, &run), "{spec:?} hit the base entry");
            assert_eq!(run.spec(), spec);
        }
        assert_eq!(p.simulations(), 1 + variants.len());
        assert_eq!(p.stats().compile_misses, 1);
        // The same site list is the same entry.
        let filtered = RunSpec {
            memory: nl1,
            prefetch_sites: Some(sites),
            ..base.spec().clone()
        };
        let _ = p.run_spec(&filtered);
        assert_eq!(p.simulations(), 1 + variants.len());
        // Only the reuse run measured reuse distances.
        assert!(base.reuse.is_none());
        assert!(p.run_spec(&variants[5]).reuse.is_some());
        // Default-memory labels stay byte-identical to the pre-matrix
        // format; the others name what sets them apart.
        let labels: Vec<String> = p.config_timings().iter().map(ConfigTiming::label).collect();
        assert_eq!(labels[0], "197.parser/O0/in1/32KB 4-way 32B-block");
        for tail in [
            "/plru",
            "/lru+pf2",
            "/lru+nl1",
            "/lru+nl1/2-sites",
            "/lru+nl1/1-sites",
        ] {
            assert!(
                labels.iter().any(|l| l.ends_with(tail)),
                "no label ends {tail}"
            );
        }
        assert!(labels.contains(&format!("{}/reuse", labels[0])));
    }

    #[test]
    fn panic_releases_in_flight_claim() {
        let p = Pipeline::new().planned(&[]);
        // A benchmark guaranteed to fail: nonexistent source.
        let mut b = dl_workloads::by_name("197.parser").expect("exists");
        b.name = "bogus";
        b.source = "int main( {";
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        }));
        assert!(result.is_err());
        // The claim must be gone: a fresh (valid) run on the same key
        // shape must not deadlock, and the table holds no ready entry.
        assert_eq!(p.simulations(), 0);
        let good = dl_workloads::by_name("197.parser").expect("exists");
        let mut good = good;
        good.input1 = vec![500, 2];
        let _ = p.run(&good, OptLevel::O0, 1, CacheConfig::paper_training());
        assert_eq!(p.simulations(), 1);
    }

    /// Every planned spec of one execution, from the full plan.
    fn planned_siblings(name: &str, opt: OptLevel, input_set: u8) -> Vec<RunSpec> {
        union_specs(all_tables().iter().map(|(table, _)| *table))
            .into_iter()
            .filter(|spec| execution_of(spec) == (name, opt, input_set))
            .collect()
    }

    #[test]
    fn a_planned_miss_computes_its_whole_execution_once() {
        let p = Pipeline::new();
        let b = dl_workloads::by_name("181.mcf").expect("exists").smoke();
        let siblings = planned_siblings(b.name, OptLevel::O0, 1);
        assert!(siblings.len() > 10, "181.mcf@O0/in1 is widely shared");
        let first = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        assert_eq!(p.simulations(), siblings.len());
        for spec in &siblings {
            let _ = p.run_spec(spec);
        }
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, siblings.len() as u64);
        assert_eq!(
            s.sim_instructions,
            first.result.instructions * siblings.len() as u64
        );
        // One execution is charged its compile once, and its timings
        // split its wall time.
        let timings = p.config_timings();
        assert_eq!(timings.len(), siblings.len());
        assert_eq!(timings.iter().filter(|t| t.compile_secs > 0.0).count(), 1);
        assert!(timings.iter().all(|t| t.sim_secs >= 0.0));
        // An unplanned spec of the same execution runs alone.
        let sites = first.load_indices()[..1].to_vec();
        let _ = p.run_spec(&RunSpec {
            prefetch_sites: Some(sites),
            memory: MemoryConfig {
                prefetch: Some(dl_sim::Prefetch::NextLine(1)),
                ..MemoryConfig::default()
            },
            ..first.spec().clone()
        });
        assert_eq!(p.stats().misses, 2);
        assert_eq!(p.simulations(), siblings.len() + 1);
    }

    #[test]
    fn sixteen_threads_on_one_planned_spec_cause_one_execution() {
        let p = Pipeline::new();
        let b = dl_workloads::by_name("197.parser").expect("exists").smoke();
        let runs: Vec<Arc<BenchRun>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let (p, b) = (&p, &b);
                    scope.spawn(move || p.run(b, OptLevel::O0, 1, CacheConfig::paper_baseline()))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        for run in &runs {
            assert!(Arc::ptr_eq(run, &runs[0]));
        }
        let s = p.stats();
        assert_eq!((s.misses, s.hits), (1, 15));
        assert_eq!(
            p.simulations(),
            planned_siblings(b.name, OptLevel::O0, 1).len()
        );
    }

    #[test]
    fn grouped_runs_equal_runs_alone() {
        let b = dl_workloads::by_name("181.mcf").expect("exists").smoke();
        let siblings: Vec<RunSpec> = planned_siblings(b.name, OptLevel::O0, 1)
            .into_iter()
            .map(|spec| RunSpec {
                bench: b.clone(),
                ..spec
            })
            .collect();
        // Classification on, so every model's observers compare too.
        let grouped = Pipeline::with_config(Engine::default(), true);
        let alone = Pipeline::with_config(Engine::default(), true).planned(&[]);
        for spec in &siblings {
            let (g, a) = (grouped.run_spec(spec), alone.run_spec(spec));
            assert_eq!(g.spec(), a.spec());
            assert_eq!(g.result, a.result, "{spec:?}");
            assert_eq!(g.reuse.is_some(), a.reuse.is_some());
            if let (Some(g), Some(a)) = (&g.reuse, &a.reuse) {
                for (gs, as_) in g.sites().iter().zip(a.sites()) {
                    assert_eq!((gs.cold, gs.buckets), (as_.cold, as_.buckets));
                }
            }
        }
        assert_eq!(grouped.stats().misses, 1);
        assert_eq!(alone.stats().misses, siblings.len() as u64);
    }

    #[test]
    fn specs_requested_together_share_one_execution() {
        use dl_sim::{Policy, Prefetch};
        let b = dl_workloads::by_name("197.parser").expect("exists").smoke();
        let program = b.compile(OptLevel::O0).expect("compiles");
        let sites: Vec<usize> = (0..program.insts.len())
            .filter(|&i| program.insts[i].is_load())
            .step_by(2)
            .collect();
        let base = RunSpec::new(b, OptLevel::O0, 1, CacheConfig::paper_baseline());
        // A plain model, a site-filtered prefetcher and a reuse
        // measurement: none of them planned.
        let specs = [
            RunSpec {
                memory: MemoryConfig {
                    policy: Policy::Plru,
                    ..MemoryConfig::default()
                },
                ..base.clone()
            },
            RunSpec {
                memory: MemoryConfig {
                    prefetch: Some(Prefetch::NextLine(1)),
                    ..MemoryConfig::default()
                },
                prefetch_sites: Some(sites),
                ..base.clone()
            },
            RunSpec {
                reuse: true,
                ..base.clone()
            },
        ];
        let together = Pipeline::new();
        let runs = together.run_specs(&specs);
        let s = together.stats();
        assert_eq!((s.misses, s.hits), (1, 2));
        assert_eq!(together.simulations(), specs.len());
        let alone = Pipeline::new().planned(&[]);
        for (spec, run) in specs.iter().zip(&runs) {
            let solo = alone.run_spec(spec);
            assert_eq!(run.spec(), spec);
            assert_eq!(run.result, solo.result, "{spec:?}");
            assert_eq!(run.reuse.is_some(), solo.reuse.is_some(), "{spec:?}");
        }
        assert_eq!(alone.stats().misses, specs.len() as u64);
        // Asked again, the batch is served from the memo.
        let again = together.run_specs(&specs);
        assert!(again.iter().zip(&runs).all(|(a, r)| Arc::ptr_eq(a, r)));
        assert_eq!(together.stats().misses, 1);
    }

    #[test]
    fn siblings_of_a_smoke_request_record_its_benchmark() {
        let p = Pipeline::new();
        let smoke = dl_workloads::by_name("181.mcf").expect("exists").smoke();
        let _ = p.run(&smoke, OptLevel::O0, 1, CacheConfig::kb(64, 8));
        let runs = p.ready_runs();
        assert!(runs.len() > 1);
        for run in &runs {
            assert_eq!(run.spec().bench.input1, smoke.input1, "{:?}", run.spec());
        }
    }
}
