//! Static execution-frequency estimation.
//!
//! The paper (§5.2, criterion H5) notes that its frequency classes do
//! not depend on profile fidelity and that *"it is entirely possible
//! to replace profiling with static heuristic approximations"* (citing
//! Wu-Larus and Wong). This module is that replacement: loop nesting
//! (from natural-loop detection over the dominator tree) gives each
//! block a within-function frequency of `LOOP_MULTIPLIER^depth`, and a
//! call-graph pass propagates function entry frequencies from `main`.
//! The result is a per-instruction *estimated* execution count usable
//! wherever the heuristic takes measured counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use dl_mips::program::{FuncSym, Program};

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dom::Dominators;

/// Assumed iterations per loop level. Wu-Larus uses 10; we calibrate
/// to 50 because a misjudged *hot* loop costs coverage (a real miss
/// source filtered as "rare") while a misjudged cold loop only costs a
/// little precision — the asymmetric risk favours over-estimating.
pub const LOOP_MULTIPLIER: f64 = 50.0;

/// Cap preventing runaway growth through recursion or deep nesting.
const FREQ_CAP: f64 = 1.0e12;

/// Loop-nesting depth per basic block of one function.
///
/// A block's depth is the nesting depth of the innermost natural loop
/// (back edge `t → h` with `h` dominating `t`) containing it, from the
/// shared discovery in [`crate::loops`]. Back edges targeting the same
/// header (e.g. a `continue` statement) belong to one loop, not two.
#[must_use]
pub fn loop_depths(cfg: &Cfg, dom: &Dominators) -> Vec<u32> {
    let nest = crate::loops::LoopNest::discover(cfg, dom);
    (0..cfg.blocks().len()).map(|b| nest.depth_of(b)).collect()
}

/// Static execution-frequency estimates for a whole program.
#[derive(Debug, Clone)]
pub struct FreqEstimate {
    /// Estimated execution count per instruction (same indexing as the
    /// simulator's measured `exec_counts`).
    pub inst_freq: Vec<f64>,
    /// Estimated entry frequency per function name.
    pub func_freq: BTreeMap<String, f64>,
}

impl FreqEstimate {
    /// The estimates as integer counts, directly substitutable for
    /// measured execution counts in the heuristic.
    #[must_use]
    pub fn as_counts(&self) -> Vec<u64> {
        self.inst_freq
            .iter()
            .map(|&f| f.min(FREQ_CAP) as u64)
            .collect()
    }
}

/// Estimates execution frequencies for every instruction of `program`.
///
/// Within a function, block frequency is `LOOP_MULTIPLIER^depth`.
/// Function entry frequencies start at 1 for the entry function and
/// propagate along the call graph (call-site frequency × caller entry
/// frequency), iterated to a fixpoint with a cap so recursion
/// converges.
#[must_use]
pub fn estimate_frequencies(program: &Program) -> FreqEstimate {
    estimate_frequencies_with(program, &CallGraph::build(program), |f| {
        let cfg = Arc::new(Cfg::build(program, f));
        let dom = Arc::new(Dominators::build(&cfg));
        (cfg, dom)
    })
}

/// [`estimate_frequencies`] over a prebuilt `callgraph`, with each
/// function's CFG and dominator tree obtained from `passes` — the hook
/// a pass manager ([`crate::ctx::AnalysisCtx`]) uses to supply its
/// cached copies instead of rebuilding them.
#[must_use]
pub fn estimate_frequencies_with(
    program: &Program,
    callgraph: &CallGraph,
    mut passes: impl FnMut(&FuncSym) -> (Arc<Cfg>, Arc<Dominators>),
) -> FreqEstimate {
    // Call-graph nodes are the non-empty functions in program order,
    // so they zip positionally with the symbol table's.
    let infos: Vec<(Arc<Cfg>, Vec<f64>)> = program
        .symbols
        .funcs()
        .iter()
        .filter(|f| f.start < f.end)
        .map(|f| {
            let (cfg, dom) = passes(f);
            let block_freq = loop_depths(&cfg, &dom)
                .iter()
                .map(|&d| LOOP_MULTIPLIER.powi(d as i32).min(FREQ_CAP))
                .collect();
            (cfg, block_freq)
        })
        .collect();
    debug_assert_eq!(infos.len(), callgraph.nodes.len());
    // Entry frequencies via fixpoint over the call graph.
    let entry = callgraph
        .nodes
        .binary_search_by_key(&program.entry, |n| n.start)
        .ok();
    let mut entry_freq = vec![0.0f64; infos.len()];
    if let Some(e) = entry {
        entry_freq[e] = 1.0;
    }
    for _round in 0..20 {
        let mut next = entry_freq.clone();
        if let Some(e) = entry {
            next[e] = 1.0;
        }
        let mut changed = false;
        for (ci, ((cfg, block_freq), node)) in infos.iter().zip(&callgraph.nodes).enumerate() {
            for site in &node.call_sites {
                let contribution =
                    (entry_freq[ci] * block_freq[cfg.block_of(site.at)]).min(FREQ_CAP);
                if contribution > next[site.callee] {
                    // Take the dominant call chain rather than summing:
                    // keeps recursion from diverging while preserving
                    // the order of magnitude.
                    if (contribution - next[site.callee]).abs() > 1e-9 {
                        changed = true;
                    }
                    next[site.callee] = contribution;
                }
            }
        }
        entry_freq = next;
        if !changed {
            break;
        }
    }
    let mut inst_freq = vec![0.0f64; program.insts.len()];
    let mut func_freq = BTreeMap::new();
    for (ci, ((cfg, block_freq), node)) in infos.iter().zip(&callgraph.nodes).enumerate() {
        func_freq.insert(node.name.clone(), entry_freq[ci]);
        let (lo, hi) = cfg.func_range();
        #[allow(clippy::needless_range_loop)] // index is an instruction address
        for idx in lo..hi {
            inst_freq[idx] = (entry_freq[ci] * block_freq[cfg.block_of(idx)]).min(FREQ_CAP);
        }
    }
    FreqEstimate {
        inst_freq,
        func_freq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_mips::parse::parse_asm;

    #[test]
    fn loop_depth_counts_nesting() {
        let p = parse_asm(
            "main:\n\
             \tli $t0, 4\n\
             .Louter:\n\
             \tli $t1, 4\n\
             .Linner:\n\
             \taddiu $t1, $t1, -1\n\
             \tbgtz $t1, .Linner\n\
             \taddiu $t0, $t0, -1\n\
             \tbgtz $t0, .Louter\n\
             \tjr $ra\n",
        )
        .unwrap();
        let f = p.symbols.func("main").unwrap().clone();
        let cfg = Cfg::build(&p, &f);
        let dom = Dominators::build(&cfg);
        let depths = loop_depths(&cfg, &dom);
        // Entry depth 0; outer body depth 1; inner body depth 2.
        assert_eq!(depths[cfg.block_of(0)], 0);
        assert_eq!(depths[cfg.block_of(1)], 1);
        assert_eq!(depths[cfg.block_of(2)], 2);
        assert_eq!(depths[cfg.block_of(6)], 0); // exit jr
    }

    #[test]
    fn frequency_scales_with_nesting() {
        let p = parse_asm(
            "main:\n\
             \tli $t0, 4\n\
             .Lh:\n\
             \tlw $t1, 0($gp)\n\
             \taddiu $t0, $t0, -1\n\
             \tbgtz $t0, .Lh\n\
             \tjr $ra\n",
        )
        .unwrap();
        let est = estimate_frequencies(&p);
        // The loop body is ~10x the entry.
        assert!(est.inst_freq[1] > 5.0 * est.inst_freq[0]);
        assert_eq!(est.func_freq["main"], 1.0);
    }

    #[test]
    fn callee_inherits_call_site_frequency() {
        let p = parse_asm(
            "main:\n\
             \tli $t0, 8\n\
             .Lh:\n\
             \tjal helper\n\
             \taddiu $t0, $t0, -1\n\
             \tbgtz $t0, .Lh\n\
             \tjr $ra\n\
             helper:\n\
             \tlw $t1, 0($gp)\n\
             \tjr $ra\n",
        )
        .unwrap();
        let est = estimate_frequencies(&p);
        // helper is called from inside a loop: entry frequency ~10.
        assert!(est.func_freq["helper"] >= 9.0);
        // helper's load inherits it.
        let helper_load = p.symbols.func("helper").unwrap().start;
        assert!(est.inst_freq[helper_load] >= 9.0);
    }

    #[test]
    fn uncalled_function_estimates_cold() {
        let p = parse_asm(
            "main:\n\
             \tjr $ra\n\
             ghost:\n\
             \tlw $t0, 0($gp)\n\
             \tjr $ra\n",
        )
        .unwrap();
        let est = estimate_frequencies(&p);
        assert_eq!(est.func_freq["ghost"], 0.0);
        let counts = est.as_counts();
        assert_eq!(counts[p.symbols.func("ghost").unwrap().start], 0);
    }

    #[test]
    fn recursion_converges() {
        let p = parse_asm(
            "main:\n\
             \tjal rec\n\
             \tjr $ra\n\
             rec:\n\
             \tjal rec\n\
             \tjr $ra\n",
        )
        .unwrap();
        let est = estimate_frequencies(&p);
        assert!(est.func_freq["rec"].is_finite());
        assert!(est.func_freq["rec"] >= 1.0);
    }
}
