//! Memory-trace capture and trace-driven cache simulation.
//!
//! The paper (§3) describes the conventional off-line methodology its
//! static heuristic replaces: *"instrument the code such that a memory
//! trace is produced … it is necessary to run the output memory trace
//! through a cache simulator in order to obtain the cache miss data"*.
//! This module implements that methodology: [`capture_trace`] records
//! every data access of one execution, and [`replay_trace`] runs the
//! trace through any cache geometry without re-executing the program —
//! which is exactly how one explores cache-configuration sweeps at
//! trace speed.
//!
//! # Example
//!
//! ```
//! use dl_mips::parse::parse_asm;
//! use dl_sim::trace::{capture_trace, replay_trace};
//! use dl_sim::{run, CacheConfig, RunConfig};
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
//! let cfg = RunConfig::default();
//! let (trace, _result) = capture_trace(&p, &cfg).unwrap();
//! // Replay against a different geometry; no re-execution needed.
//! let small = replay_trace(&trace, CacheConfig::kb(8, 2), p.insts.len());
//! let direct = run(&p, &RunConfig { cache: CacheConfig::kb(8, 2), ..cfg }).unwrap();
//! assert_eq!(small.load_misses, direct.load_misses);
//! ```

use dl_mips::program::Program;

use crate::cache::{Cache, CacheConfig};
use crate::cpu::{Machine, RunConfig, Trap};
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

/// Statistics recovered by replaying a trace through a cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Per-instruction load miss counts (parallel to the program).
    pub load_misses: Vec<u64>,
    /// Total load misses.
    pub load_misses_total: u64,
    /// Total misses including stores.
    pub dcache_misses: u64,
}

/// Runs `program` while recording its full data-access trace.
///
/// The trace can afterwards be replayed against arbitrary cache
/// geometries with [`replay_trace`]. Memory cost is 12 bytes per
/// dynamic access, so keep workloads scaled (as ours are).
///
/// # Errors
///
/// Returns the [`Trap`] if execution faults.
pub fn capture_trace(
    program: &Program,
    config: &RunConfig,
) -> Result<(Vec<TraceRecord>, RunResult), Trap> {
    let mut machine = Machine::new(program, config);
    machine.record_trace();
    let (result, trace) = machine.run_traced(config.max_steps)?;
    Ok((trace, result))
}

/// Replays a captured trace through a fresh cache of the given
/// geometry, recovering per-instruction miss statistics without
/// re-executing the program.
#[must_use]
pub fn replay_trace(
    trace: &[TraceRecord],
    geometry: CacheConfig,
    inst_count: usize,
) -> ReplayStats {
    let mut cache = Cache::new(geometry);
    let mut stats = ReplayStats {
        load_misses: vec![0; inst_count],
        ..ReplayStats::default()
    };
    for rec in trace {
        if cache.access(rec.addr) {
            continue;
        }
        stats.dcache_misses += 1;
        if !rec.store {
            stats.load_misses[rec.at as usize] += 1;
            stats.load_misses_total += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::run;
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
    fn replay_matches_direct_simulation_same_config() {
        let p = scanning_program();
        let cfg = RunConfig::default();
        let (trace, captured) = capture_trace(&p, &cfg).unwrap();
        assert_eq!(trace.len() as u64, captured.dcache_accesses);
        let replay = replay_trace(&trace, cfg.cache, p.insts.len());
        assert_eq!(replay.load_misses, captured.load_misses);
        assert_eq!(replay.load_misses_total, captured.load_misses_total);
        assert_eq!(replay.dcache_misses, captured.dcache_misses);
    }

    #[test]
    fn replay_matches_direct_simulation_other_configs() {
        let p = scanning_program();
        let base = RunConfig::default();
        let (trace, _) = capture_trace(&p, &base).unwrap();
        for geometry in [
            CacheConfig::kb(1, 1),
            CacheConfig::kb(8, 2),
            CacheConfig::kb(64, 8),
        ] {
            let replay = replay_trace(&trace, geometry, p.insts.len());
            let direct = run(
                &p,
                &RunConfig {
                    cache: geometry,
                    ..base.clone()
                },
            )
            .unwrap();
            assert_eq!(
                replay.load_misses, direct.load_misses,
                "divergence at {geometry}"
            );
        }
    }

    #[test]
    fn trace_records_loads_and_stores() {
        let p = scanning_program();
        let (trace, result) = capture_trace(&p, &RunConfig::default()).unwrap();
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
