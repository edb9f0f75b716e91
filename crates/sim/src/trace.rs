//! Memory-trace recording and replay: execute once, model many.
//!
//! The paper (§3) describes the conventional off-line methodology its
//! static heuristic replaces: *"instrument the code such that a memory
//! trace is produced … it is necessary to run the output memory trace
//! through a cache simulator in order to obtain the cache miss data"*.
//! The simulator works that way whenever a run needs more than the
//! block engine's inline L1 probe: the engine appends every data
//! access to a bounded chunk of [`TraceRecord`]s, and each full chunk
//! is replayed into one memory model per configuration — L1, L2,
//! replacement policy, prefetcher, per-site miss counters, and the
//! optional miss classifier, observatory and reuse measurement — so
//! one execution prices any number of memory systems
//! ([`crate::run_many`]) while peak memory stays independent of the
//! trace length. [`capture_trace`] is the consumer that keeps every
//! chunk instead.
//!
//! # Example
//!
//! ```
//! use dl_mips::parse::parse_asm;
//! use dl_sim::{run, run_many, CacheConfig, RunConfig};
//!
//! let p = parse_asm(
//!     "main:\n\
//!      \tli $t0, 64\n\
//!      .Lloop:\n\
//!      \tsll $t1, $t0, 4\n\
//!      \taddu $t1, $t1, $gp\n\
//!      \tlw $t2, 0($t1)\n\
//!      \taddiu $t0, $t0, -1\n\
//!      \tbgtz $t0, .Lloop\n\
//!      \tli $v0, 10\n\
//!      \tsyscall\n",
//! ).unwrap();
//! let base = RunConfig::default();
//! let small = RunConfig { cache: CacheConfig::kb(8, 2), ..base.clone() };
//! // One execution, two memory models.
//! let outs = run_many(&p, &[base, small.clone()]).unwrap();
//! let direct = run(&p, &small).unwrap();
//! assert_eq!(outs[1].result, direct);
//! ```

use std::time::Instant;

use dl_mips::program::Program;

use crate::block::BlockStats;
use crate::cpu::{Machine, RunConfig, SimOutput, Trap};
use crate::memory::{Access, MemorySystem};
use crate::observe::MissObservatory;
use crate::reuse::ReuseMeasurement;
use crate::stats::RunResult;

/// One data access, as recorded during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Instruction index of the access.
    pub at: u32,
    /// Effective address.
    pub addr: u32,
    /// `true` for stores.
    pub store: bool,
}

/// Accesses per recorded chunk: 48 KiB of records, small enough to
/// stay cache-resident while every model replays it.
pub(crate) const CHUNK: usize = 4096;

/// One configuration's memory model: its hierarchy, its miss counters
/// and its optional observers, fed the access stream in program
/// order. The block engine's fast path drives the first model's
/// counters inline instead (see [`MemoryModel::is_plain`]).
#[derive(Debug)]
pub(crate) struct MemoryModel {
    pub(crate) system: MemorySystem,
    /// Per-instruction load misses (`RunResult::load_misses`).
    pub(crate) load_misses: Vec<u64>,
    pub(crate) load_misses_total: u64,
    pub(crate) dcache_misses: u64,
    load_miss_classes: Option<Vec<[u64; 3]>>,
    observatory: Option<MissObservatory>,
    reuse: Option<ReuseMeasurement>,
    /// Wall time spent replaying chunks into this model.
    replay_secs: f64,
}

impl MemoryModel {
    /// A fresh model of `config` for a program of `insts` instructions.
    pub(crate) fn new(config: &RunConfig, insts: usize) -> Self {
        let mut system = MemorySystem::new(config, insts);
        if config.classify_misses {
            system.enable_profiling();
        }
        MemoryModel {
            system,
            load_misses: vec![0; insts],
            load_misses_total: 0,
            dcache_misses: 0,
            load_miss_classes: config.classify_misses.then(|| vec![[0u64; 3]; insts]),
            observatory: config.observe.map(|obs| MissObservatory::new(insts, obs)),
            reuse: config
                .reuse_profile
                .then(|| ReuseMeasurement::new(insts, config.cache.block_bytes())),
            replay_secs: 0.0,
        }
    }

    /// True when no access needs more than the hit/miss answer: no
    /// prefetcher, classifier, observatory or reuse measurement. Only
    /// such a model may skip the MRU hits the block engine's inline
    /// probe answers.
    pub(crate) fn is_plain(&self) -> bool {
        !self.system.prefetches()
            && self.load_miss_classes.is_none()
            && self.observatory.is_none()
            && self.reuse.is_none()
    }

    /// Folds one chunk of the access stream into the model.
    pub(crate) fn replay(&mut self, chunk: &[TraceRecord]) {
        let start = Instant::now();
        // Decided once per chunk: a plain model does the demand access
        // and the miss counters alone. Running the observer checks on
        // every access instead cost 12% of perfbench `tables` wall
        // time (2-CPU x86-64 Xeon host, 10 alternating pairs).
        let plain = self.is_plain();
        for rec in chunk {
            let at = rec.at as usize;
            let access = self.system.demand_access(rec.addr);
            if !access.hit {
                self.dcache_misses += 1;
                if !rec.store {
                    self.load_misses[at] += 1;
                    self.load_misses_total += 1;
                }
            }
            if !plain {
                self.observe(*rec, access);
            }
        }
        self.replay_secs += start.elapsed().as_secs_f64();
    }

    /// What a non-plain model does with one access beyond counting its
    /// miss: classify it, show it to the observatory, the reuse
    /// measurement and the prefetcher. The class is read first, before
    /// a prefetch fill can classify an access of its own.
    fn observe(&mut self, rec: TraceRecord, access: Access) {
        let at = rec.at as usize;
        if let Some(reuse) = &mut self.reuse {
            reuse.record(at, rec.addr, rec.store);
        }
        if rec.store {
            return;
        }
        if let (false, Some(classes)) = (access.hit, &mut self.load_miss_classes) {
            let class = self
                .system
                .last_miss_class()
                .expect("classifying implies a classified miss");
            classes[at][class.index()] += 1;
        }
        if let Some(obs) = &mut self.observatory {
            if access.hidden {
                obs.observe_hidden(at);
            }
            obs.observe(at, !access.hit);
        }
        self.system.prefetch_observe(at, rec.addr);
    }

    /// The model's output for the finished execution `exec` (whose
    /// miss-side fields it fills in).
    ///
    /// # Panics
    ///
    /// Debug builds panic if the result violates its cross-field
    /// invariants or the observatory disagrees with it.
    pub(crate) fn finish(mut self, exec: &RunResult, block_stats: Option<BlockStats>) -> SimOutput {
        let mut result = RunResult {
            load_misses: self.load_misses,
            load_misses_total: self.load_misses_total,
            dcache_misses: self.dcache_misses,
            cache_profile: self.system.take_profile(),
            load_miss_classes: self.load_miss_classes,
            ..exec.clone()
        };
        self.system.flush_into(&mut result);
        if cfg!(debug_assertions) {
            if let Err(violation) = result.check_consistency() {
                panic!("inconsistent RunResult: {violation}");
            }
        }
        let observatory = self.observatory.map(|mut obs| {
            obs.finish();
            debug_assert_eq!(
                obs.site_totals(),
                result.load_misses,
                "observatory epoch totals diverge from per-site miss counts"
            );
            obs
        });
        let reuse = self.reuse.map(|mut reuse| {
            reuse.finish();
            reuse
        });
        SimOutput {
            result,
            block_stats,
            observatory,
            reuse,
            replay_secs: self.replay_secs,
        }
    }
}

/// Runs `program` while recording its full data-access trace: the
/// consumer that keeps every chunk. Memory cost is 12 bytes per
/// dynamic access, so keep workloads scaled (as ours are); to price
/// several memory systems, [`crate::run_many`] replays the stream
/// chunk by chunk instead.
///
/// # Errors
///
/// Returns the [`Trap`] if execution faults.
pub fn capture_trace(
    program: &Program,
    config: &RunConfig,
) -> Result<(Vec<TraceRecord>, RunResult), Trap> {
    let mut machine = Machine::new(program, config);
    machine.keep_trace();
    let (trace, mut outputs) = machine.run_recorded(config.max_steps)?;
    Ok((trace, outputs.swap_remove(0).result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::cpu::{run, run_many};
    use dl_mips::parse::parse_asm;

    fn scanning_program() -> Program {
        parse_asm(
            "main:\n\
             \tli  $t0, 0\n\
             \tli  $t3, 2048\n\
             .Lloop:\n\
             \tsll $t1, $t0, 2\n\
             \taddu $t1, $t1, $gp\n\
             \tlw  $t2, 0($t1)\n\
             \tsw  $t2, 4($gp)\n\
             \taddiu $t0, $t0, 1\n\
             \tbne $t0, $t3, .Lloop\n\
             \tli $v0, 10\n\
             \tsyscall\n",
        )
        .unwrap()
    }

    #[test]
    fn one_execution_models_every_geometry() {
        let p = scanning_program();
        let base = RunConfig::default();
        let configs: Vec<RunConfig> = [
            CacheConfig::kb(1, 1),
            CacheConfig::kb(8, 2),
            CacheConfig::kb(64, 8),
        ]
        .into_iter()
        .map(|cache| RunConfig {
            cache,
            ..base.clone()
        })
        .collect();
        let shared = run_many(&p, &configs).unwrap();
        for (config, out) in configs.iter().zip(&shared) {
            let direct = run(&p, config).unwrap();
            assert_eq!(out.result, direct, "divergence at {}", config.cache);
        }
    }

    #[test]
    fn trace_records_loads_and_stores() {
        let p = scanning_program();
        let (trace, result) = capture_trace(&p, &RunConfig::default()).unwrap();
        assert_eq!(trace.len() as u64, result.dcache_accesses);
        let stores = trace.iter().filter(|r| r.store).count() as u64;
        let loads = trace.iter().filter(|r| !r.store).count() as u64;
        assert_eq!(stores, result.stores);
        assert_eq!(loads, result.loads);
    }

    #[test]
    fn capture_does_not_perturb_results() {
        let p = scanning_program();
        let cfg = RunConfig::default();
        let (_, with_trace) = capture_trace(&p, &cfg).unwrap();
        let without = run(&p, &cfg).unwrap();
        assert_eq!(with_trace, without);
    }
}
