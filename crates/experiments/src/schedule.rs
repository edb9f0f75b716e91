//! Work scheduling for the experiment pipeline: enumerate the
//! simulation configurations a set of tables needs, then pre-warm the
//! [`Pipeline`] memo table by fanning those configurations across a
//! scoped worker pool.
//!
//! Table *assembly* stays sequential and deterministic — the workers
//! only populate the memo table, so the rendered output is
//! byte-identical to a fully sequential run regardless of the worker
//! count or completion order. In-flight deduplication inside
//! [`Pipeline::run_spec`] guarantees that overlapping specs (most
//! tables share configurations) still simulate exactly once.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dl_minic::OptLevel;
use dl_sim::{CacheConfig, MemoryConfig};
use dl_workloads::Benchmark;

use crate::pipeline::Pipeline;

/// One simulation configuration: the pipeline's memo key.
///
/// Two specs are the same run when every field but the benchmark
/// matches and the benchmarks share a name: the name stands for the
/// source and inputs, so a table asking for the full-size workload
/// hits the entry `repro --smoke` warmed with its shrunk copy.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload to compile and simulate.
    pub bench: Benchmark,
    /// Optimization level.
    pub opt: OptLevel,
    /// Input set (1 or 2).
    pub input_set: u8,
    /// Cache geometry.
    pub cache: CacheConfig,
    /// Memory system (replacement policy / L2 / prefetcher). The
    /// default — LRU, L1-only, no prefetch — for every paper table;
    /// only the memmatrix sweep and the prefetch extension vary it.
    pub memory: MemoryConfig,
    /// Instruction indices of the loads that trigger the prefetcher
    /// (`RunConfig::prefetch_sites`); `None` lets every load trigger.
    /// Only `extension-prefetch` sets it, from a base run's profile.
    pub prefetch_sites: Option<Vec<usize>>,
    /// Measure per-site reuse distances on a shadow LRU stack
    /// (`RunConfig::reuse_profile`) into [`crate::BenchRun::reuse`].
    pub reuse: bool,
}

impl RunSpec {
    /// A spec under the default memory system, with every load a
    /// prefetch trigger and no reuse measurement.
    #[must_use]
    pub fn new(bench: Benchmark, opt: OptLevel, input_set: u8, cache: CacheConfig) -> Self {
        RunSpec {
            bench,
            opt,
            input_set,
            cache,
            memory: MemoryConfig::default(),
            prefetch_sites: None,
            reuse: false,
        }
    }

    /// The fields that identify the run (see the type docs).
    fn id(
        &self,
    ) -> (
        &str,
        OptLevel,
        u8,
        CacheConfig,
        MemoryConfig,
        Option<&[usize]>,
        bool,
    ) {
        (
            self.bench.name,
            self.opt,
            self.input_set,
            self.cache,
            self.memory,
            self.prefetch_sites.as_deref(),
            self.reuse,
        )
    }
}

impl PartialEq for RunSpec {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl Eq for RunSpec {}

impl Hash for RunSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id().hash(state);
    }
}

fn specs(
    benches: Vec<Benchmark>,
    opt: OptLevel,
    input_set: u8,
    cache: CacheConfig,
) -> Vec<RunSpec> {
    benches
        .into_iter()
        .map(|bench| RunSpec::new(bench, opt, input_set, cache))
        .collect()
}

/// The simulation configurations one named table consumes through the
/// pipeline. Unknown names (and `table6`, which simulates nothing)
/// yield an empty list — prewarming simply does nothing for them.
///
/// This mirrors the `p.run(...)` calls in [`crate::tables`]; the
/// `specs_cover_every_table` test pins the two in sync. The one
/// exception is `extension-prefetch`'s site-filtered runs: their sites
/// come from the base run's execution counts, so they join the memo
/// when the table renders.
#[must_use]
pub fn table_specs(table: &str) -> Vec<RunSpec> {
    let o0 = OptLevel::O0;
    let o1 = OptLevel::O1;
    let training = CacheConfig::paper_training();
    let baseline = CacheConfig::paper_baseline();
    match table {
        "table1" | "table2" | "table14" | "ablation-profile-fidelity" => {
            specs(dl_workloads::all(), o0, 1, training)
        }
        "table3" | "table4" | "table5" => specs(dl_workloads::training_set(), o0, 1, baseline),
        "table7" => {
            let mut v = specs(dl_workloads::training_set(), o0, 1, training);
            v.extend(specs(dl_workloads::training_set(), o0, 2, training));
            v
        }
        "table8" => [2u32, 4, 8]
            .into_iter()
            .flat_map(|assoc| {
                specs(
                    dl_workloads::training_set(),
                    o1,
                    1,
                    CacheConfig::kb(8, assoc),
                )
            })
            .collect(),
        "table9" => [8u32, 16, 32, 64]
            .into_iter()
            .flat_map(|kb| specs(dl_workloads::training_set(), o1, 1, CacheConfig::kb(kb, 4)))
            .collect(),
        "table10" => specs(dl_workloads::test_set(), o0, 1, training),
        "table11"
        | "table12"
        | "ablation-classes"
        | "ablation-patterns"
        | "extension-static-frequency"
        | "extension-reuse"
        | "extension-profile"
        | "ablation-delta-tuning" => specs(dl_workloads::all(), o0, 1, baseline),
        "table13" => specs(dl_workloads::training_set(), o1, 1, CacheConfig::kb(16, 4)),
        "extension-prefetch" => {
            let benches = ["181.mcf", "183.equake", "179.art", "164.gzip"]
                .into_iter()
                .map(|n| dl_workloads::by_name(n).expect("known benchmark"))
                .collect();
            specs(benches, o0, 1, baseline)
        }
        "extension-memmatrix" => {
            let benches: Vec<_> = crate::tables::memmatrix_benches()
                .into_iter()
                .map(|n| dl_workloads::by_name(n).expect("known benchmark"))
                .collect();
            crate::tables::memmatrix_configs()
                .into_iter()
                .flat_map(|memory| {
                    benches.iter().cloned().map(move |bench| RunSpec {
                        memory,
                        ..RunSpec::new(bench, o0, 1, baseline)
                    })
                })
                .collect()
        }
        "profile-geometries" => {
            let benches: Vec<_> = ["181.mcf", "183.equake", "179.art", "164.gzip"]
                .into_iter()
                .map(|n| dl_workloads::by_name(n).expect("known benchmark"))
                .collect();
            let mut v = specs(benches.clone(), o0, 1, baseline);
            // One shadow-LRU reuse measurement per benchmark.
            v.extend(
                specs(benches.clone(), o0, 1, baseline)
                    .into_iter()
                    .map(|spec| RunSpec {
                        reuse: true,
                        ..spec
                    }),
            );
            for kb in [8u32, 16, 64] {
                for assoc in [2u32, 4, 8] {
                    v.extend(specs(benches.clone(), o0, 1, CacheConfig::kb(kb, assoc)));
                }
            }
            v
        }
        _ => Vec::new(),
    }
}

/// The deduplicated union of configurations needed by `tables`, in
/// first-seen order.
#[must_use]
pub fn union_specs<'a>(tables: impl IntoIterator<Item = &'a str>) -> Vec<RunSpec> {
    let specs: Vec<RunSpec> = tables.into_iter().flat_map(table_specs).collect();
    let mut seen = HashSet::new();
    let first: Vec<bool> = specs.iter().map(|spec| seen.insert(spec)).collect();
    specs
        .into_iter()
        .zip(first)
        .filter_map(|(spec, first)| first.then_some(spec))
        .collect()
}

/// The default worker count: available hardware parallelism, or 1 if
/// it cannot be determined.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Utilisation of one prewarm worker thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStat {
    /// Worker index (0-based).
    pub worker: usize,
    /// Specs this worker processed.
    pub specs: u64,
    /// Seconds this worker spent inside [`Pipeline::run_spec`] (simulating,
    /// or blocked on another worker's in-flight computation).
    pub busy_secs: f64,
}

/// What one [`prewarm_with_stats`] call did: how many specs ran and
/// how evenly the work spread across workers.
#[derive(Debug, Clone, Default)]
pub struct PrewarmReport {
    /// Total specs processed (= the input length).
    pub processed: usize,
    /// Per-worker utilisation, indexed by worker id.
    pub workers: Vec<WorkerStat>,
    /// Wall-clock seconds for the whole prewarm.
    pub wall_secs: f64,
}

impl PrewarmReport {
    /// Ratio of the busiest worker's spec count to the mean — 1.0 is
    /// perfectly balanced; large values mean one worker dragged the
    /// tail. Returns 0 for an empty report.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        if self.workers.is_empty() || self.processed == 0 {
            return 0.0;
        }
        let max = self.workers.iter().map(|w| w.specs).max().unwrap_or(0) as f64;
        let mean = self.processed as f64 / self.workers.len() as f64;
        max / mean
    }
}

/// Runs every spec through the pipeline across `jobs` worker threads,
/// populating the memo table. Returns the number of specs processed.
///
/// Work is claimed from a shared atomic index, so long-running
/// simulations do not stall the queue behind them. With `jobs <= 1`
/// the specs run on the calling thread in order — exactly the
/// sequential behaviour.
///
/// # Panics
///
/// Propagates a panic from any worker (a benchmark failing to compile
/// or trapping — the same conditions that panic [`Pipeline::run_spec`]).
pub fn prewarm(pipeline: &Pipeline, specs: &[RunSpec], jobs: usize) -> usize {
    prewarm_with_stats(pipeline, specs, jobs).processed
}

/// Like [`prewarm`], additionally reporting per-worker utilisation —
/// the raw material for the pipeline's `--profile` report and
/// `RUN_MANIFEST.json`.
///
/// # Panics
///
/// Propagates a panic from any worker, exactly like [`prewarm`].
pub fn prewarm_with_stats(pipeline: &Pipeline, specs: &[RunSpec], jobs: usize) -> PrewarmReport {
    let wall = Instant::now();
    if jobs <= 1 || specs.len() <= 1 {
        let start = Instant::now();
        for spec in specs {
            let _ = pipeline.run_spec(spec);
        }
        return PrewarmReport {
            processed: specs.len(),
            workers: vec![WorkerStat {
                worker: 0,
                specs: specs.len() as u64,
                busy_secs: start.elapsed().as_secs_f64(),
            }],
            wall_secs: wall.elapsed().as_secs_f64(),
        };
    }
    let next = AtomicUsize::new(0);
    let workers = jobs.min(specs.len());
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let next = &next;
                scope.spawn(move || {
                    let mut stat = WorkerStat {
                        worker,
                        ..WorkerStat::default()
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else {
                            break stat;
                        };
                        let start = Instant::now();
                        let _ = pipeline.run_spec(spec);
                        stat.specs += 1;
                        stat.busy_secs += start.elapsed().as_secs_f64();
                    }
                })
            })
            .collect();
        let mut stats = Vec::with_capacity(handles.len());
        for h in handles {
            match h.join() {
                Ok(stat) => stats.push(stat),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        stats
    });
    PrewarmReport {
        processed: specs.len(),
        workers: stats,
        wall_secs: wall.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::all_tables;

    /// Prewarming a table's specs then generating it must add no new
    /// simulation but `extension-prefetch`'s site-filtered runs — i.e.
    /// the spec registry covers everything else each table asks the
    /// pipeline for. Nothing is planned, so no shared execution can
    /// compute a spec the registry misses.
    ///
    /// Runs on shrunk inputs to keep it fast: the spec registry only
    /// depends on names/opt/input/cache, not input values.
    #[test]
    fn specs_cover_every_table() {
        for (name, f) in all_tables() {
            let pipeline = Pipeline::new().planned(&[]);
            let mut specs = table_specs(name);
            for spec in &mut specs {
                spec.bench = spec.bench.smoke();
            }
            prewarm(&pipeline, &specs, 1);
            let warmed = pipeline.simulations();
            // The memo key names the benchmark, not its input *values*,
            // so the generator hits the shrunk prewarmed entries.
            let _ = f(&pipeline);
            let unfiltered = pipeline
                .ready_runs()
                .iter()
                .filter(|run| run.spec().prefetch_sites.is_none())
                .count();
            assert_eq!(
                unfiltered, warmed,
                "{name} simulated configurations its spec registry misses"
            );
        }
    }

    /// `table_specs` keys must be unique per table after union-ing.
    #[test]
    fn union_deduplicates_shared_configs() {
        let union = union_specs(["table1", "table2", "table14"]);
        // All three tables need exactly the same configurations.
        assert_eq!(union.len(), table_specs("table1").len());
        let keys: HashSet<&RunSpec> = union.iter().collect();
        assert_eq!(keys.len(), union.len());
    }

    #[test]
    fn parallel_prewarm_matches_sequential_simulation_count() {
        let mut specs = table_specs("table3");
        for spec in &mut specs {
            spec.bench = spec.bench.smoke();
        }
        let sequential = Pipeline::new().planned(&[]);
        prewarm(&sequential, &specs, 1);
        let parallel = Pipeline::new().planned(&[]);
        prewarm(&parallel, &specs, 4);
        assert_eq!(sequential.simulations(), parallel.simulations());
        assert_eq!(parallel.simulations(), specs.len());
    }

    #[test]
    fn prewarm_reports_worker_utilisation() {
        let mut specs = table_specs("table3");
        for spec in &mut specs {
            spec.bench = spec.bench.smoke();
        }
        let pipeline = Pipeline::new().planned(&["table3"]);
        let report = prewarm_with_stats(&pipeline, &specs, 3);
        assert_eq!(report.processed, specs.len());
        assert_eq!(report.workers.len(), 3.min(specs.len()));
        let total: u64 = report.workers.iter().map(|w| w.specs).sum();
        assert_eq!(total, specs.len() as u64);
        assert!(report.imbalance() >= 1.0);
        // Sequential path reports a single worker owning everything.
        let seq = prewarm_with_stats(&Pipeline::new().planned(&["table3"]), &specs, 1);
        assert_eq!(seq.workers.len(), 1);
        assert_eq!(seq.workers[0].specs, specs.len() as u64);
    }
}
