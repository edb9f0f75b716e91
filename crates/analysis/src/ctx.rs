//! The analysis pass manager: one [`AnalysisCtx`] per compiled
//! program, computing each analysis lazily on first request and
//! caching it — per function for the function-local passes (CFG,
//! dominators, reaching definitions) and per program for the
//! aggregated artifacts (address patterns, loop nests, induction
//! classes, frequency estimates).
//!
//! Before this existed every predictor rebuilt its own inputs:
//! `analyze_program` built a CFG and reaching definitions per
//! function, `ProgramLoops::build` rebuilt the same CFGs plus
//! dominators, `classify_loads` rebuilt reaching definitions again,
//! and `estimate_frequencies` rebuilt CFGs and dominators a third
//! time — O(predictors × passes) recomputation per program. The ctx
//! collapses that to one computation per pass per function, handing
//! out shared references, and counts its own hits, misses, and
//! per-pass wall time ([`AnalysisCtx::stats`]) so the observability
//! layer can prove the sharing actually happens.
//!
//! The ctx is two-layered so one immutable cache serves many dynamic
//! profiles: the pass caches live behind an `Arc` shared by every
//! clone, while [`AnalysisCtx::with_profile`] attaches a per-run
//! execution-count vector to a cheap copy. A pipeline memoizes the
//! profileless ctx per `(benchmark, opt)`; each simulated run holds a
//! profiled view of the same underlying caches.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dl_mips::program::{FuncSym, Program};

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dom::Dominators;
use crate::extract::{analyze_function, AnalysisConfig, ProgramAnalysis};
use crate::freq::{estimate_frequencies_with, FreqEstimate};
use crate::indvar::{classify_loads_with, LoadLoopClass};
use crate::loops::ProgramLoops;
use crate::profile::{self, ProfilePrediction, ReuseProfiles};
use crate::reaching::ReachingDefs;
use crate::reuse::{predict_from_classes, CacheGeometry, ReusePrediction};

/// A sink for pass-computation events, fired once per pass *miss*
/// (cache hits are silent). Implementors turn the events into
/// timeline spans; dl-analysis itself depends on nothing but `std`,
/// so the trait speaks `Instant`/`Duration` rather than any concrete
/// observability type.
pub trait PassObserver: Send + Sync + std::fmt::Debug {
    /// Pass `pass` was computed, starting at `start` and taking
    /// `duration`. Called from whichever thread won the computation
    /// race; implementations must be thread-safe.
    fn pass_computed(&self, pass: &'static str, start: Instant, duration: Duration);
}

thread_local! {
    /// Nanoseconds this thread has spent inside [`AnalysisCtx::pass`]
    /// calls nested in the computation it is running, so that
    /// computation can count only its own time.
    static NESTED_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// Hit/miss/time counters for one analysis pass.
#[derive(Debug, Default)]
struct PassCounter {
    hits: AtomicU64,
    misses: AtomicU64,
    nanos: AtomicU64,
}

impl PassCounter {
    fn snapshot(&self) -> PassStats {
        PassStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            secs: self.nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// Snapshot of one pass's cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that computed the pass.
    pub misses: u64,
    /// Wall time spent computing this pass itself (zero on pure
    /// hits). Passes it requested while computing count under their
    /// own names, not again here.
    pub secs: f64,
}

impl PassStats {
    fn merge(&mut self, other: &PassStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.secs += other.secs;
    }
}

/// Snapshot of every pass cache of one ctx (or, merged, of a whole
/// pipeline). Pass names follow the dependency graph in `DESIGN.md`:
/// `cfg → dom → loops → indvar → reuse` and `cfg → reaching →
/// patterns`, with `freq` reusing `cfg` + `dom` + `callgraph`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CtxStats {
    /// Control-flow graph construction (per function).
    pub cfg: PassStats,
    /// Dominator trees (per function).
    pub dom: PassStats,
    /// Reaching definitions (per function).
    pub reaching: PassStats,
    /// Address-pattern extraction (per program).
    pub patterns: PassStats,
    /// Loop-nest discovery + trip solving (per program).
    pub loops: PassStats,
    /// Induction-variable load classification (per program).
    pub indvar: PassStats,
    /// Static execution-frequency estimation (per program).
    pub freq: PassStats,
    /// Call-graph construction (per program).
    pub callgraph: PassStats,
    /// Static reuse-profile histograms (per program).
    pub profile: PassStats,
}

impl CtxStats {
    /// Every pass with its name, in dependency order.
    #[must_use]
    pub fn passes(&self) -> [(&'static str, PassStats); 9] {
        [
            ("cfg", self.cfg),
            ("dom", self.dom),
            ("reaching", self.reaching),
            ("patterns", self.patterns),
            ("loops", self.loops),
            ("indvar", self.indvar),
            ("freq", self.freq),
            ("callgraph", self.callgraph),
            ("profile", self.profile),
        ]
    }

    /// Accumulates another snapshot into this one.
    pub fn merge(&mut self, other: &CtxStats) {
        self.cfg.merge(&other.cfg);
        self.dom.merge(&other.dom);
        self.reaching.merge(&other.reaching);
        self.patterns.merge(&other.patterns);
        self.loops.merge(&other.loops);
        self.indvar.merge(&other.indvar);
        self.freq.merge(&other.freq);
        self.callgraph.merge(&other.callgraph);
        self.profile.merge(&other.profile);
    }

    /// Total cache hits over all passes.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.passes().iter().map(|(_, p)| p.hits).sum()
    }

    /// Total computations over all passes.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.passes().iter().map(|(_, p)| p.misses).sum()
    }

    /// Fraction of requests served from a cache, or 0 with no traffic.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Total wall time spent computing passes, each counted once.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.passes().iter().map(|(_, p)| p.secs).sum()
    }
}

/// The lazily cached passes of one non-empty function.
#[derive(Debug, Default)]
struct FuncPasses {
    cfg: OnceLock<Arc<Cfg>>,
    dom: OnceLock<Arc<Dominators>>,
    reaching: OnceLock<Arc<ReachingDefs>>,
}

/// The shared, immutable core of a ctx: the program, the single
/// analysis configuration every pass reads, and every pass cache.
#[derive(Debug)]
struct CtxInner {
    program: Program,
    config: AnalysisConfig,
    /// One entry per non-empty function, sorted by start index.
    funcs: Vec<(FuncSym, FuncPasses)>,
    analysis: OnceLock<ProgramAnalysis>,
    loops: OnceLock<ProgramLoops>,
    classes: OnceLock<Vec<LoadLoopClass>>,
    freq: OnceLock<FreqEstimate>,
    callgraph: OnceLock<CallGraph>,
    reuse_profiles: OnceLock<ReuseProfiles>,
    counters: Counters,
    /// Optional pass-event sink (set at most once, usually right after
    /// construction). `None` costs one `OnceLock::get` per miss.
    observer: OnceLock<Arc<dyn PassObserver>>,
}

#[derive(Debug, Default)]
struct Counters {
    cfg: PassCounter,
    dom: PassCounter,
    reaching: PassCounter,
    patterns: PassCounter,
    loops: PassCounter,
    indvar: PassCounter,
    freq: PassCounter,
    callgraph: PassCounter,
    profile: PassCounter,
}

/// The per-program pass manager. Cheap to clone: clones share one
/// underlying cache. See the [module docs](self) for the design.
///
/// # Example
///
/// ```
/// use dl_mips::parse::parse_asm;
/// use dl_analysis::ctx::AnalysisCtx;
///
/// let p = parse_asm(
///     "main:\n\
///      \tlw $t0, 16($sp)\n\
///      \tlw $t1, 8($t0)\n\
///      \tjr $ra\n",
/// ).unwrap();
/// let ctx = AnalysisCtx::new(p);
/// // First request computes the patterns; the second is a cache hit.
/// assert_eq!(ctx.analysis().loads.len(), 2);
/// assert_eq!(ctx.analysis().loads[1].patterns[0].to_string(), "(sp+16)+8");
/// assert_eq!(ctx.stats().patterns.misses, 1);
/// assert_eq!(ctx.stats().patterns.hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisCtx {
    inner: Arc<CtxInner>,
    /// Per-run dynamic execution counts, indexed by instruction. The
    /// static pass caches never depend on this, so attaching a profile
    /// invalidates nothing.
    profile: Option<Arc<Vec<u64>>>,
}

impl AnalysisCtx {
    /// A ctx over `program` with the default [`AnalysisConfig`].
    #[must_use]
    pub fn new(program: Program) -> AnalysisCtx {
        AnalysisCtx::with_config(program, AnalysisConfig::default())
    }

    /// A ctx over `program` with an explicit pattern-extraction
    /// config. This is the one place a config enters the analysis
    /// stack; every pass reads it from here.
    #[must_use]
    pub fn with_config(program: Program, config: AnalysisConfig) -> AnalysisCtx {
        let mut funcs: Vec<(FuncSym, FuncPasses)> = program
            .symbols
            .funcs()
            .iter()
            .filter(|f| f.start < f.end)
            .map(|f| (f.clone(), FuncPasses::default()))
            .collect();
        funcs.sort_by_key(|(f, _)| f.start);
        AnalysisCtx {
            inner: Arc::new(CtxInner {
                program,
                config,
                funcs,
                analysis: OnceLock::new(),
                loops: OnceLock::new(),
                classes: OnceLock::new(),
                freq: OnceLock::new(),
                callgraph: OnceLock::new(),
                reuse_profiles: OnceLock::new(),
                counters: Counters::default(),
                observer: OnceLock::new(),
            }),
            profile: None,
        }
    }

    /// Attaches a [`PassObserver`] that receives one event per pass
    /// computation. Shared by every clone and profiled view of this
    /// ctx. The first observer wins; later calls are ignored (the ctx
    /// is cached and shared, so racing owners must not fight over it).
    pub fn set_pass_observer(&self, observer: Arc<dyn PassObserver>) {
        let _ = self.inner.observer.set(observer);
    }

    /// The analyzed program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.inner.program
    }

    /// The pattern-extraction configuration every pass uses.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.inner.config
    }

    /// A view of the same ctx with per-run execution counts attached.
    /// Shares every pass cache with `self` (and with every other
    /// profiled view of the same program).
    #[must_use]
    pub fn with_profile(&self, exec_counts: &[u64]) -> AnalysisCtx {
        AnalysisCtx {
            inner: Arc::clone(&self.inner),
            profile: Some(Arc::new(exec_counts.to_vec())),
        }
    }

    /// The attached execution counts, if any.
    #[must_use]
    pub fn profile(&self) -> Option<&[u64]> {
        self.profile.as_deref().map(Vec::as_slice)
    }

    /// The execution count of instruction `index`. Without a profile
    /// (or beyond its length) loads are treated as hot — `u64::MAX` —
    /// matching the heuristic's long-standing convention.
    #[must_use]
    pub fn exec_count(&self, index: usize) -> u64 {
        self.profile()
            .and_then(|counts| counts.get(index).copied())
            .unwrap_or(u64::MAX)
    }

    /// Runs `compute` at most once per `slot`, counting hits, misses,
    /// and compute time. Concurrent first requests may race inside
    /// `OnceLock::get_or_init`; exactly one result is kept and only
    /// the kept computation counts as the miss. The counted time is
    /// the pass's own: time spent inside the passes `compute`
    /// requests (on this thread, computing or waiting) is theirs. The
    /// observer still sees the inclusive span, which nests on a
    /// timeline.
    fn pass<'a, T>(
        &'a self,
        name: &'static str,
        slot: &'a OnceLock<T>,
        counter: &PassCounter,
        compute: impl FnOnce() -> T,
    ) -> &'a T {
        if let Some(ready) = slot.get() {
            counter.hits.fetch_add(1, Ordering::Relaxed);
            return ready;
        }
        let start = Instant::now();
        let outer = NESTED_NANOS.replace(0);
        let mut computed = false;
        let value = slot.get_or_init(|| {
            computed = true;
            compute()
        });
        let elapsed = start.elapsed();
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        // All of this call is nested time of the enclosing pass.
        let nested = NESTED_NANOS.replace(outer.saturating_add(nanos));
        if computed {
            counter.misses.fetch_add(1, Ordering::Relaxed);
            counter
                .nanos
                .fetch_add(nanos.saturating_sub(nested), Ordering::Relaxed);
            if let Some(observer) = self.inner.observer.get() {
                observer.pass_computed(name, start, elapsed);
            }
        } else {
            counter.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// The CFG of the `i`-th non-empty function.
    fn cfg_at(&self, i: usize) -> &Arc<Cfg> {
        let (func, passes) = &self.inner.funcs[i];
        self.pass("cfg", &passes.cfg, &self.inner.counters.cfg, || {
            Arc::new(Cfg::build(&self.inner.program, func))
        })
    }

    /// The dominator tree of the `i`-th non-empty function.
    fn dom_at(&self, i: usize) -> &Arc<Dominators> {
        let cfg = Arc::clone(self.cfg_at(i));
        let (_, passes) = &self.inner.funcs[i];
        self.pass("dom", &passes.dom, &self.inner.counters.dom, || {
            Arc::new(Dominators::build(&cfg))
        })
    }

    /// The reaching definitions of the `i`-th non-empty function.
    fn reaching_at(&self, i: usize) -> &Arc<ReachingDefs> {
        let cfg = Arc::clone(self.cfg_at(i));
        let (func, passes) = &self.inner.funcs[i];
        self.pass(
            "reaching",
            &passes.reaching,
            &self.inner.counters.reaching,
            || Arc::new(ReachingDefs::build(&self.inner.program, func, &cfg)),
        )
    }

    /// Index into the per-function caches for the function starting at
    /// instruction `start`, if it is one of the non-empty functions.
    fn func_index(&self, start: usize) -> Option<usize> {
        self.inner
            .funcs
            .binary_search_by_key(&start, |(f, _)| f.start)
            .ok()
    }

    /// The address-pattern analysis of every load under the ctx's
    /// config: [`Self::analysis_with`], computed once per program.
    pub fn analysis(&self) -> &ProgramAnalysis {
        self.pass(
            "patterns",
            &self.inner.analysis,
            &self.inner.counters.patterns,
            || self.analysis_with(&self.inner.config),
        )
    }

    /// The address-pattern analysis of every load under `config`,
    /// extracted afresh (not cached) from the cached per-function
    /// CFGs and reaching definitions — the same result as
    /// [`analyze_program`](crate::extract::analyze_program), without
    /// rebuilding them. A sweep over extraction caps pays only for
    /// the extraction.
    #[must_use]
    pub fn analysis_with(&self, config: &AnalysisConfig) -> ProgramAnalysis {
        let mut loads = Vec::new();
        for i in 0..self.inner.funcs.len() {
            let rd = Arc::clone(self.reaching_at(i));
            let (func, _) = &self.inner.funcs[i];
            loads.extend(analyze_function(&self.inner.program, func, &rd, config));
        }
        loads.sort_by_key(|l| l.index);
        ProgramAnalysis { loads }
    }

    /// The loop nests of every function, computed once per program
    /// from the cached CFGs and dominator trees. The returned
    /// [`ProgramLoops`] shares the ctx's CFGs (`Arc`), so downstream
    /// passes never rebuild them.
    pub fn loops(&self) -> &ProgramLoops {
        self.pass(
            "loops",
            &self.inner.loops,
            &self.inner.counters.loops,
            || {
                ProgramLoops::build_with(&self.inner.program, |f| {
                    let i = self
                        .func_index(f.start)
                        .expect("ProgramLoops walks the ctx's own functions");
                    (Arc::clone(self.cfg_at(i)), Arc::clone(self.dom_at(i)))
                })
            },
        )
    }

    /// The per-load induction-variable classes, computed once per
    /// program from the cached patterns, loops, and reaching
    /// definitions.
    pub fn load_classes(&self) -> &[LoadLoopClass] {
        let classes: &Vec<LoadLoopClass> = self.pass(
            "indvar",
            &self.inner.classes,
            &self.inner.counters.indvar,
            || {
                let analysis = self.analysis();
                let loops = self.loops();
                classify_loads_with(&self.inner.program, analysis, loops, |fsym, _cfg| {
                    let i = self
                        .func_index(fsym.start)
                        .expect("classified loads live in ctx functions");
                    Arc::clone(self.reaching_at(i))
                })
            },
        );
        classes
    }

    /// The static execution-frequency estimate, computed once per
    /// program from the cached call graph, CFGs and dominator trees.
    pub fn freq(&self) -> &FreqEstimate {
        self.pass("freq", &self.inner.freq, &self.inner.counters.freq, || {
            estimate_frequencies_with(&self.inner.program, self.callgraph(), |f| {
                let i = self
                    .func_index(f.start)
                    .expect("frequency walks the ctx's own functions");
                (Arc::clone(self.cfg_at(i)), Arc::clone(self.dom_at(i)))
            })
        })
    }

    /// Reuse-distance predictions against `geometry`. The expensive,
    /// geometry-independent part ([`Self::load_classes`]) is cached;
    /// the per-geometry miss model is cheap arithmetic, so this
    /// returns a fresh vector each call.
    #[must_use]
    pub fn reuse_predictions(&self, geometry: &CacheGeometry) -> Vec<ReusePrediction> {
        predict_from_classes(self.load_classes(), geometry)
    }

    /// The interprocedural call graph, computed once per program.
    pub fn callgraph(&self) -> &CallGraph {
        self.pass(
            "callgraph",
            &self.inner.callgraph,
            &self.inner.counters.callgraph,
            || CallGraph::build(&self.inner.program),
        )
    }

    /// The static reuse-distance profiles of every load, computed
    /// once per program from the cached load classes, loop nests, and
    /// call graph. Geometry-free: price against any geometry with
    /// [`Self::profile_predictions`].
    pub fn reuse_profiles(&self) -> &ReuseProfiles {
        self.pass(
            "profile",
            &self.inner.reuse_profiles,
            &self.inner.counters.profile,
            || {
                let classes = self.load_classes();
                let loops = self.loops();
                let cg = self.callgraph();
                profile::build(classes, loops, cg)
            },
        )
    }

    /// Histogram-derived predictions against `geometry`. Like
    /// [`Self::reuse_predictions`], the geometry-independent artifact
    /// ([`Self::reuse_profiles`]) is cached and the per-geometry
    /// pricing is cheap arithmetic — a 9-geometry sweep runs the
    /// analysis once.
    #[must_use]
    pub fn profile_predictions(&self, geometry: &CacheGeometry) -> Vec<ProfilePrediction> {
        self.reuse_profiles().predict(geometry)
    }

    /// Snapshot of every pass cache's hit/miss/time counters.
    #[must_use]
    pub fn stats(&self) -> CtxStats {
        let c = &self.inner.counters;
        CtxStats {
            cfg: c.cfg.snapshot(),
            dom: c.dom.snapshot(),
            reaching: c.reaching.snapshot(),
            patterns: c.patterns.snapshot(),
            loops: c.loops.snapshot(),
            indvar: c.indvar.snapshot(),
            freq: c.freq.snapshot(),
            callgraph: c.callgraph.snapshot(),
            profile: c.profile.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_mips::parse::parse_asm;

    /// Two functions: a strided array walk and a helper with a
    /// pointer chase, exercising every pass.
    const TWO_FUNCS: &str = "main:\n\
         \tli $t0, 0\n\
         \tli $t1, 4096\n\
         .Lh:\n\
         \tlw $t2, 0($t0)\n\
         \taddiu $t0, $t0, 4\n\
         \tbne $t0, $t1, .Lh\n\
         \tjal chase\n\
         \tjr $ra\n\
         chase:\n\
         \tlw $a0, 0($a0)\n\
         \tbne $a0, $zero, chase\n\
         \tjr $ra\n";

    fn ctx() -> AnalysisCtx {
        AnalysisCtx::new(parse_asm(TWO_FUNCS).unwrap())
    }

    #[test]
    fn every_pass_computes_at_most_once_per_function() {
        let ctx = ctx();
        let n_funcs = 2;
        // Force every artifact twice, in an order that exercises the
        // shared per-function passes from multiple consumers.
        for _ in 0..2 {
            let _ = ctx.analysis();
            let _ = ctx.loops();
            let _ = ctx.load_classes();
            let _ = ctx.freq();
            let _ = ctx.callgraph();
            let _ = ctx.reuse_profiles();
        }
        let s = ctx.stats();
        // Function-local passes: exactly one computation per function,
        // no matter how many program-level passes consumed them.
        assert_eq!(s.cfg.misses, n_funcs, "cfg rebuilt: {s:?}");
        assert_eq!(s.dom.misses, n_funcs, "dom rebuilt: {s:?}");
        assert_eq!(s.reaching.misses, n_funcs, "reaching rebuilt: {s:?}");
        // Program-level passes: exactly one computation each.
        for (name, pass) in [
            ("patterns", s.patterns),
            ("loops", s.loops),
            ("indvar", s.indvar),
            ("freq", s.freq),
            ("callgraph", s.callgraph),
            ("profile", s.profile),
        ] {
            assert_eq!(pass.misses, 1, "{name} recomputed");
            assert!(pass.hits >= 1, "{name} saw no cache hits");
        }
        // The shared layers were actually shared: cfg served the
        // patterns, loops, and freq consumers from one computation.
        assert!(s.cfg.hits >= 2 * n_funcs, "cfg hits too low: {s:?}");
        assert!(s.reaching.hits >= n_funcs, "reaching not shared: {s:?}");
        assert!(s.hit_rate() > 0.5);
    }

    #[test]
    fn ctx_matches_direct_analysis() {
        let ctx = ctx();
        let direct = crate::extract::analyze_program(ctx.program(), ctx.config());
        assert_eq!(ctx.analysis().loads, direct.loads);
    }

    #[test]
    fn analysis_with_matches_direct_analysis_without_recomputing() {
        let ctx = ctx();
        let _ = ctx.analysis();
        let before = ctx.stats();
        for (max_patterns, max_depth) in [(1, 2), (2, 16), (8, 4)] {
            let config = AnalysisConfig {
                max_patterns,
                max_depth,
                ..AnalysisConfig::default()
            };
            let direct = crate::extract::analyze_program(ctx.program(), &config);
            assert_eq!(ctx.analysis_with(&config).loads, direct.loads);
        }
        // Only hits grow: no pass is recomputed, and the uncached
        // extraction counts under no pass of its own.
        let after = ctx.stats();
        assert_eq!(after.misses(), before.misses());
        assert_eq!(after.patterns, before.patterns);
        assert!(after.reaching.hits > before.reaching.hits);
    }

    #[test]
    fn ctx_loops_match_direct_build() {
        let ctx = ctx();
        let direct = ProgramLoops::build(ctx.program());
        let via = ctx.loops();
        assert_eq!(via.funcs.len(), direct.funcs.len());
        for (a, b) in via.funcs.iter().zip(direct.funcs.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.nest.loops().len(), b.nest.loops().len());
            for (la, lb) in a.nest.loops().iter().zip(b.nest.loops().iter()) {
                assert_eq!(la.header, lb.header);
                assert_eq!(la.blocks, lb.blocks);
                assert_eq!(la.trip, lb.trip);
            }
        }
    }

    #[test]
    fn profile_views_share_one_cache() {
        let base = ctx();
        let _ = base.analysis();
        let profiled = base.with_profile(&[7; 16]);
        let _ = profiled.analysis();
        // The profiled view hit the base view's cache.
        assert_eq!(base.stats().patterns.misses, 1);
        assert_eq!(base.stats().patterns.hits, 1);
        assert_eq!(profiled.exec_count(0), 7);
        assert_eq!(profiled.exec_count(999), u64::MAX);
        assert_eq!(base.exec_count(0), u64::MAX);
        assert!(base.profile().is_none());
        assert_eq!(profiled.profile().map(<[u64]>::len), Some(16));
    }

    #[test]
    fn concurrent_requests_compute_each_pass_once() {
        let ctx = ctx();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let _ = ctx.analysis();
                    let _ = ctx.load_classes();
                    let _ = ctx.freq();
                });
            }
        });
        let s = ctx.stats();
        assert_eq!(s.patterns.misses, 1);
        assert_eq!(s.indvar.misses, 1);
        assert_eq!(s.freq.misses, 1);
        assert_eq!(s.cfg.misses, 2);
    }

    #[test]
    fn reuse_predictions_come_from_cached_classes() {
        let ctx = ctx();
        let g8 = CacheGeometry::new(8 * 1024, 32, 4);
        let g64 = CacheGeometry::new(64 * 1024, 32, 4);
        let p8 = ctx.reuse_predictions(&g8);
        let p64 = ctx.reuse_predictions(&g64);
        assert_eq!(p8.len(), p64.len());
        // Two geometries, one classification.
        assert_eq!(ctx.stats().indvar.misses, 1);
        // The 16 KiB walk misses in the 8 KiB cache...
        assert!(p8.iter().any(|p| p.miss_ratio > 0.0));
    }

    #[test]
    fn observer_fires_once_per_computed_pass() {
        #[derive(Debug, Default)]
        struct Recorder(std::sync::Mutex<Vec<&'static str>>);
        impl PassObserver for Recorder {
            fn pass_computed(&self, pass: &'static str, start: Instant, duration: Duration) {
                assert!(start.elapsed() >= duration);
                self.0.lock().unwrap().push(pass);
            }
        }
        let ctx = ctx();
        let recorder = Arc::new(Recorder::default());
        ctx.set_pass_observer(Arc::clone(&recorder) as Arc<dyn PassObserver>);
        for _ in 0..2 {
            let _ = ctx.analysis();
            let _ = ctx.load_classes();
            let _ = ctx.freq();
            let _ = ctx.reuse_profiles();
        }
        let mut events = recorder.0.lock().unwrap().clone();
        events.sort_unstable();
        // Two functions → two cfg/dom/reaching computations; one of
        // each program-level pass. Cache hits fired nothing.
        assert_eq!(
            events,
            vec![
                "callgraph",
                "cfg",
                "cfg",
                "dom",
                "dom",
                "freq",
                "indvar",
                "loops",
                "patterns",
                "profile",
                "reaching",
                "reaching"
            ]
        );
        // Setting a second observer is a silent no-op (first wins).
        ctx.set_pass_observer(Arc::new(Recorder::default()));
    }

    #[test]
    fn pass_times_count_each_computation_once() {
        let ctx = ctx();
        let start = Instant::now();
        // Computes every pass but freq, most of them nested inside
        // profile, indvar, patterns or loops.
        let _ = ctx.reuse_profiles();
        let wall = start.elapsed().as_secs_f64();
        let s = ctx.stats();
        assert!(
            s.total_secs() <= wall,
            "passes counted {}s inside a {wall}s call: {s:?}",
            s.total_secs()
        );
    }

    #[test]
    fn stats_merge_accumulates() {
        let a = ctx();
        let b = ctx();
        let _ = a.analysis();
        let _ = b.analysis();
        let mut merged = a.stats();
        merged.merge(&b.stats());
        assert_eq!(merged.patterns.misses, 2);
        assert_eq!(merged.cfg.misses, 4);
        assert_eq!(merged.misses(), a.stats().misses() + b.stats().misses());
    }
}
