//! Memory-trace recording and replay: execute once, model many.
//!
//! The paper (§3) describes the conventional off-line methodology its
//! static heuristic replaces: *"instrument the code such that a memory
//! trace is produced … it is necessary to run the output memory trace
//! through a cache simulator in order to obtain the cache miss data"*.
//! The simulator works that way for every run, under both engines:
//! the engine records every data access in bounded chunks of
//! [`TraceRecord`]s, and each full chunk is replayed into one memory
//! model per configuration — L1, L2, replacement policy, prefetcher,
//! per-site miss counters, and the optional miss classifier,
//! observatory and reuse measurement — so one execution prices any
//! number of memory systems ([`crate::run_many`]) while peak memory
//! stays independent of the trace length. Each access passes a shared
//! direct-mapped filter (`MruFilter`) as it is recorded, and the plain
//! models replay only the accesses it keeps: the rest are MRU hits
//! that change no model's state. The full chunk is kept only when
//! some model must see every access, or when [`capture_trace`] keeps
//! the whole stream.
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

/// Trace stripping (Puzak 1985; Wang & Baer, SIGMETRICS 1990): a
/// direct-mapped tag array that keeps an access only when its block
/// differs from the last block its filter set saw. Every access of a
/// run passes it as it is recorded, and the plain models replay what
/// it keeps.
///
/// Exact for every plain model at the filter's block size, because
/// each level of such a model has at least the filter's sets, and set
/// counts are powers of two: each set of every level lies inside one
/// filter set. A dropped access's block was the last its filter set
/// saw, so since then no access has touched any L1 or L2 set inside
/// that filter set, and no back-invalidation or exclusive-L2 victim
/// has reached one either (both stay inside the set of the access
/// that caused them). The block therefore still sits in the MRU way
/// of its L1 set, and the access is a hit that changes no state in
/// any level under any policy (the MRU contract of [`crate::memory`]),
/// so every miss counter stays exact. Prefetching and observing
/// models must see every access and replay the full stream; so does
/// a plain model at another block size.
#[derive(Debug)]
pub(crate) struct MruFilter {
    /// log₂ of the block size.
    shift: u32,
    /// The last block each filter set saw (`u64::MAX`: none yet); a
    /// power-of-two number of sets.
    last: Box<[u64]>,
    /// False for the filter that drops nothing, whose one set never
    /// holds a block.
    remembers: bool,
    /// The records kept since the last replay, in stream order.
    kept: Vec<TraceRecord>,
}

impl MruFilter {
    /// The filter for the plain models among `models`: at the first
    /// plain model's block size, with the fewest sets that any level
    /// of a plain model has at that size. `None` when no model is
    /// plain.
    pub(crate) fn for_models(models: &[MemoryModel]) -> Option<MruFilter> {
        let shift = models
            .iter()
            .find(|model| model.is_plain())?
            .system
            .hot_params();
        let sets = models
            .iter()
            .filter(|model| Self::strips_at(shift, model))
            .map(|model| model.system.fewest_sets())
            .min()?;
        Some(MruFilter {
            shift,
            last: vec![u64::MAX; sets as usize].into_boxed_slice(),
            remembers: true,
            kept: Vec::with_capacity(CHUNK),
        })
    }

    /// A filter that keeps every access: its one set holds no block
    /// (a block number fits in 32 bits), and keeping leaves it so.
    pub(crate) fn keeping_all() -> MruFilter {
        MruFilter {
            shift: 0,
            last: Box::new([u64::MAX]),
            remembers: false,
            kept: Vec::with_capacity(CHUNK),
        }
    }

    /// True when `model` replays the stream this filter strips.
    pub(crate) fn strips(&self, model: &MemoryModel) -> bool {
        Self::strips_at(self.shift, model)
    }

    /// True when a filter at block shift `shift` may strip `model`'s
    /// stream: the model is plain and shares the block size.
    fn strips_at(shift: u32, model: &MemoryModel) -> bool {
        model.is_plain() && model.system.hot_params() == shift
    }

    /// True when `addr`'s block was the last its filter set saw: an
    /// MRU hit in every model the filter strips, which it drops.
    #[inline(always)]
    pub(crate) fn drops(&self, addr: u32) -> bool {
        let block = u64::from(addr >> self.shift);
        // The set count is a power of two, so masking by `len - 1`
        // picks the block's filter set.
        self.last[block as usize & (self.last.len() - 1)] == block
    }

    /// Keeps `rec`, an access [`MruFilter::drops`] let through, whose
    /// block becomes the last its set saw. True when the kept records
    /// fill a chunk.
    #[inline(always)]
    pub(crate) fn keep(&mut self, rec: TraceRecord) -> bool {
        if self.remembers {
            let block = u64::from(rec.addr >> self.shift);
            let set = block as usize & (self.last.len() - 1);
            self.last[set] = block;
        }
        self.kept.push(rec);
        self.kept.len() == CHUNK
    }

    /// The records kept since the last [`MruFilter::clear`], in stream
    /// order.
    pub(crate) fn kept(&self) -> &[TraceRecord] {
        &self.kept
    }

    /// Empties the kept records once every model has replayed them.
    pub(crate) fn clear(&mut self) {
        self.kept.clear();
    }
}

/// One configuration's memory model: its hierarchy, its miss counters
/// and its optional observers, fed the access stream in program
/// order — the full stream, or the one the [`MruFilter`] strips when
/// the model is plain.
#[derive(Debug)]
pub(crate) struct MemoryModel {
    system: MemorySystem,
    /// Per-instruction load misses (`RunResult::load_misses`).
    load_misses: Vec<u64>,
    load_misses_total: u64,
    dcache_misses: u64,
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
    /// such a model may skip the MRU hits the [`MruFilter`] drops.
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
    let (trace, mut outputs) = Machine::with_models(program, std::slice::from_ref(config), true)
        .run_recorded(config.max_steps)?;
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
