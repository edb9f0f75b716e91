//! The compile → simulate → analyze pipeline, memoized per
//! (benchmark, optimization level, input set, cache geometry).
//!
//! The memo table is thread-safe: one `Mutex<HashMap>` maps each key
//! to a shared `OnceLock` cell, and the lock is held only for that
//! lookup. Requests for the same key are deduplicated *in flight* —
//! the first thread to reach the cell runs the simulation while every
//! other thread requesting it blocks in `OnceLock::get_or_init` and
//! receives the shared result, so a configuration is simulated
//! exactly once no matter how many threads race for it. If the
//! simulating thread panics, the cell stays empty and a waiter
//! simulates instead.
//!
//! Compilation and analysis are additionally memoized per
//! `(benchmark, opt)` — independent of input set and cache geometry —
//! so sweeping four cache sizes over one benchmark compiles it once.
//!
//! Every table-generation PR to come needs to see inside this machine,
//! so the pipeline self-reports: memo hit/miss/wait counters
//! ([`Pipeline::stats`]), per-configuration compile and simulation
//! wall times ([`Pipeline::config_timings`]), and — when
//! [`Pipeline::set_classify_misses`] is enabled — the simulator's
//! miss-class breakdown on every run it computes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dl_analysis::ctx::{AnalysisCtx, CtxStats};
use dl_analysis::extract::ProgramAnalysis;
use dl_minic::OptLevel;
use dl_mips::program::Program;
use dl_obs::Spans;
use dl_sim::{run_with_stats, BlockStats, CacheConfig, Engine, MemoryConfig, RunConfig, RunResult};
use dl_workloads::Benchmark;

use crate::obs::SpanPassObserver;

/// Everything produced by one end-to-end benchmark run.
#[derive(Debug)]
pub struct BenchRun {
    /// Benchmark name.
    pub name: String,
    /// The shared analysis context of the compiled program, with this
    /// run's execution counts attached as its profile. Clones of the
    /// pipeline's per-`(bench, opt)` ctx: every run of the same
    /// compilation shares one set of pass caches.
    ctx: AnalysisCtx,
    /// The input the program ran on. The memo key names the input
    /// set, not its values, so a run that must repeat this one under
    /// another configuration takes its input from here.
    input: Vec<i32>,
    /// Simulation measurements.
    pub result: RunResult,
}

impl BenchRun {
    /// The run's analysis context: every analysis of the compiled
    /// program, lazily computed and shared across runs, with this
    /// run's execution counts attached.
    #[must_use]
    pub fn ctx(&self) -> &AnalysisCtx {
        &self.ctx
    }

    /// The input values the simulation read.
    #[must_use]
    pub fn input(&self) -> &[i32] {
        &self.input
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

type Key = (String, OptLevel, u8, CacheConfig, MemoryConfig);

/// One memo-table entry: empty while its simulation is in flight (or
/// after it panicked), then the finished run shared by every requester.
type Slot = Arc<OnceLock<Arc<BenchRun>>>;

/// Snapshot of the pipeline's memo-table counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Requests served from a ready memo entry.
    pub hits: u64,
    /// Requests that computed a new entry (distinct simulations).
    pub misses: u64,
    /// Requests that blocked on another thread's in-flight computation.
    pub waits: u64,
    /// Compile requests served from the compile cache.
    pub compile_hits: u64,
    /// Compilations actually performed.
    pub compile_misses: u64,
    /// Total instructions executed across all computed simulations.
    pub sim_instructions: u64,
    /// Block-cache counters merged over every computed simulation
    /// (all zero when simulations ran under [`Engine::Step`]).
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
    /// Seconds spent compiling + analyzing (0 on a compile-cache hit).
    pub compile_secs: f64,
    /// Seconds spent simulating.
    pub sim_secs: f64,
    /// Instructions the simulation executed.
    pub instructions: u64,
}

impl ConfigTiming {
    /// A compact human label, e.g. `181.mcf/O0/in1/8KB 4-way 32B-block`.
    /// A non-default memory system appends its own segment, e.g.
    /// `…/32B-block/plru+l2:64KB-8w-incl`, so the paper-reproduction
    /// labels stay byte-identical.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/in{}/{}",
            self.bench, self.opt, self.input_set, self.cache
        );
        if !self.memory.is_default() {
            s.push('/');
            s.push_str(&self.memory.to_string());
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

/// Memoizing, thread-safe pipeline executor.
///
/// Compilation + analysis are shared across input sets and cache
/// geometries for the same `(benchmark, opt)`; simulation results are
/// cached per full key, so tables that share configurations do not
/// re-simulate. Concurrent requests for the same key block until the
/// single in-flight computation finishes and then share its result.
#[derive(Debug)]
pub struct Pipeline {
    runs: Mutex<HashMap<Key, Slot>>,
    /// One analysis context per `(bench, opt)`: the 99-configuration
    /// sweep analyzes each of its programs exactly once, no matter how
    /// many input sets, cache geometries, or predictors consume them.
    compiled: Mutex<HashMap<(String, OptLevel), AnalysisCtx>>,
    counters: Counters,
    timings: Mutex<Vec<ConfigTiming>>,
    classify: AtomicBool,
    engine: Mutex<Engine>,
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
        Pipeline {
            runs: Mutex::default(),
            compiled: Mutex::default(),
            counters: Counters::default(),
            timings: Mutex::default(),
            classify: AtomicBool::new(false),
            engine: Mutex::default(),
            block_stats: Mutex::default(),
            trace: Mutex::new(None),
        }
    }
}

impl Pipeline {
    /// Creates an empty pipeline cache.
    #[must_use]
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Enables miss classification (compulsory/capacity/conflict and
    /// per-set histograms) on every simulation this pipeline computes
    /// *from now on*. Set it before the first [`Pipeline::run`]:
    /// memoized entries keep whatever setting they were computed
    /// under. Classification never changes hit/miss counts, so table
    /// output is identical either way.
    pub fn set_classify_misses(&self, on: bool) {
        self.classify.store(on, Ordering::Relaxed);
    }

    /// Selects the simulator engine for every simulation this pipeline
    /// computes *from now on* (memoized entries keep the engine they
    /// were computed under — both produce identical results, so mixing
    /// is safe). Defaults to [`Engine::Block`].
    ///
    /// # Panics
    ///
    /// Panics if the engine lock is poisoned.
    pub fn set_engine(&self, engine: Engine) {
        *self.engine.lock().expect("engine lock") = engine;
    }

    /// The engine new simulations run under.
    ///
    /// # Panics
    ///
    /// Panics if the engine lock is poisoned.
    #[must_use]
    pub fn engine(&self) -> Engine {
        *self.engine.lock().expect("engine lock")
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

    /// Runs (or returns the memoized run of) one configuration.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark fails to compile or traps during
    /// simulation — both indicate bugs in the bundled workloads and
    /// are covered by tests. A panic leaves the entry empty, so a
    /// concurrent waiter simulates it instead of deadlocking.
    #[must_use]
    pub fn run(
        &self,
        bench: &Benchmark,
        opt: OptLevel,
        input_set: u8,
        cache: CacheConfig,
    ) -> Arc<BenchRun> {
        self.run_mem(bench, opt, input_set, cache, MemoryConfig::default())
    }

    /// Runs (or returns the memoized run of) one configuration under an
    /// explicit memory system — replacement policy, optional L2, and
    /// stride prefetcher. [`Pipeline::run`] is this with the default
    /// (LRU, L1-only, no prefetch), so the memmatrix sweep shares the
    /// memo table — and the compile cache — with every other table.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark fails to compile or traps during
    /// simulation — both indicate bugs in the bundled workloads and
    /// are covered by tests. A panic leaves the entry empty, so a
    /// concurrent waiter simulates it instead of deadlocking.
    #[must_use]
    pub fn run_mem(
        &self,
        bench: &Benchmark,
        opt: OptLevel,
        input_set: u8,
        cache: CacheConfig,
        memory: MemoryConfig,
    ) -> Arc<BenchRun> {
        let key: Key = (bench.name.to_owned(), opt, input_set, cache, memory);
        let slot = Arc::clone(
            self.runs
                .lock()
                .expect("pipeline lock")
                .entry(key)
                .or_default(),
        );
        if let Some(run) = slot.get() {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(run);
        }
        // Either this thread simulates, or it blocks until the thread
        // that got there first finishes and then shares its run.
        let mut computed = false;
        let run = slot.get_or_init(|| {
            computed = true;
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            Arc::new(self.compute(bench, opt, input_set, cache, memory))
        });
        if !computed {
            self.counters.waits.fetch_add(1, Ordering::Relaxed);
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(run)
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

    /// The uncached compile → analyze → simulate path.
    fn compute(
        &self,
        bench: &Benchmark,
        opt: OptLevel,
        input_set: u8,
        cache: CacheConfig,
        memory: MemoryConfig,
    ) -> BenchRun {
        let (compiled, compile_secs) = self.compiled_for(bench, opt);
        let config = RunConfig {
            cache,
            memory,
            input: bench.input(input_set).to_vec(),
            classify_misses: self.classify.load(Ordering::Relaxed),
            engine: self.engine(),
            ..RunConfig::default()
        };
        let sim_start = Instant::now();
        let (result, block_stats) = run_with_stats(compiled.program(), &config)
            .unwrap_or_else(|e| panic!("{} trapped at {opt}: {e}", bench.name));
        let sim_secs = sim_start.elapsed().as_secs_f64();
        if let Some(spans) = self.trace_spans() {
            let mut label = format!("sim/{}/{opt}/in{input_set}/{cache}", bench.name);
            if !memory.is_default() {
                label.push('/');
                label.push_str(&memory.to_string());
            }
            spans.record_at(&label, sim_start, sim_secs);
        }
        if let Some(stats) = block_stats {
            self.block_stats
                .lock()
                .expect("block stats lock")
                .merge(&stats);
        }
        self.counters
            .sim_instructions
            .fetch_add(result.instructions, Ordering::Relaxed);
        self.timings
            .lock()
            .expect("timing lock")
            .push(ConfigTiming {
                bench: bench.name.to_owned(),
                opt,
                input_set,
                cache,
                memory,
                compile_secs,
                sim_secs,
                instructions: result.instructions,
            });
        BenchRun {
            name: bench.name.to_owned(),
            ctx: compiled.with_profile(&result.exec_counts),
            input: config.input,
            result,
        }
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
        let p = Pipeline::new();
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
        let p = Pipeline::new();
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
        let p = Pipeline::new();
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
        let p = Pipeline::new();
        p.set_classify_misses(true);
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
        let p = Pipeline::new();
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
        let p = Pipeline::new();
        let mut b = dl_workloads::by_name("197.parser").expect("exists");
        b.input1 = vec![500, 2];
        let cache = CacheConfig::paper_training();
        let base = p.run(&b, OptLevel::O0, 1, cache);
        // run() is run_mem() under the default memory system: same entry.
        let same = p.run_mem(&b, OptLevel::O0, 1, cache, MemoryConfig::default());
        assert!(Arc::ptr_eq(&base, &same));
        assert_eq!(p.simulations(), 1);
        // A different policy or prefetcher is a distinct simulation —
        // but still the same compilation.
        let plru = MemoryConfig {
            policy: Policy::Plru,
            ..MemoryConfig::default()
        };
        let pf = MemoryConfig {
            prefetch: Some(Prefetch::Stride(2)),
            ..MemoryConfig::default()
        };
        let r_plru = p.run_mem(&b, OptLevel::O0, 1, cache, plru);
        let r_pf = p.run_mem(&b, OptLevel::O0, 1, cache, pf);
        assert!(!Arc::ptr_eq(&base, &r_plru));
        assert!(!Arc::ptr_eq(&base, &r_pf));
        assert_eq!(p.simulations(), 3);
        assert_eq!(p.stats().compile_misses, 1);
        // Default-memory labels stay byte-identical to the pre-matrix
        // format; non-default ones grow a memory segment.
        let timings = p.config_timings();
        assert!(timings
            .iter()
            .any(|t| t.memory.is_default() && !t.label().contains("lru")));
        assert!(timings
            .iter()
            .any(|t| t.label().ends_with("/plru") || t.label().ends_with("/pf2")));
    }

    #[test]
    fn panic_releases_in_flight_claim() {
        let p = Pipeline::new();
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
}
