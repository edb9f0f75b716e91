//! Reaching-definitions dataflow per function, solved over basic
//! blocks and answered at instruction granularity.
//!
//! The paper (§6): *"If a load's address computation is dependent on
//! values computed outside the basic block it is in, we perform a data
//! flow analysis to obtain all reaching definitions for the temporaries
//! involved."* This module is that analysis. Function entry provides
//! virtual definitions of every register (the basic registers `sp`,
//! `gp`, `$a0-$a3` carry their conventional meanings there); calls
//! define the return-value registers and clobber the caller-saved set.

use dl_mips::inst::Inst;
use dl_mips::program::{FuncSym, Program};
use dl_mips::reg::Reg;

use crate::cfg::Cfg;

/// Where a reaching definition comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefSite {
    /// The register's value at function entry.
    Entry(Reg),
    /// An ordinary instruction at this index.
    Inst(usize),
    /// A return value produced by the call/syscall at this index
    /// (`$v0`/`$v1` — the paper's `reg_ret` basic register).
    CallRet(usize),
    /// A caller-saved register clobbered by the call at this index.
    CallClobber(usize),
}

/// A compact bit set over definition ids.
#[derive(Debug, Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
    /// `self |= other`.
    fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }
    /// `self = gen ∪ (input − kill)`; returns `true` if `self` changed.
    fn transfer(&mut self, input: &BitSet, gen: &BitSet, kill: &BitSet) -> bool {
        let mut changed = false;
        for (((o, i), g), k) in self
            .words
            .iter_mut()
            .zip(&input.words)
            .zip(&gen.words)
            .zip(&kill.words)
        {
            let new = g | (i & !k);
            changed |= new != *o;
            *o = new;
        }
        changed
    }
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Registers clobbered by a call (beyond the return registers).
const CALL_CLOBBERS: [Reg; 16] = [
    Reg::At,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::T7,
    Reg::T8,
    Reg::T9,
    Reg::Ra,
];

/// Calls `f(reg, site)` for each definition instruction `idx` makes.
fn for_each_def(inst: &Inst, idx: usize, mut f: impl FnMut(Reg, DefSite)) {
    match inst {
        Inst::Jal { .. } | Inst::Jalr { .. } => {
            f(Reg::V0, DefSite::CallRet(idx));
            f(Reg::V1, DefSite::CallRet(idx));
            for r in CALL_CLOBBERS {
                f(r, DefSite::CallClobber(idx));
            }
        }
        Inst::Syscall => f(Reg::V0, DefSite::CallRet(idx)),
        _ => {
            if let Some(r) = inst.def() {
                f(r, DefSite::Inst(idx));
            }
        }
    }
}

/// The instruction index of a definition other than an entry one.
fn inst_index(site: DefSite) -> usize {
    match site {
        DefSite::Inst(i) | DefSite::CallRet(i) | DefSite::CallClobber(i) => i,
        DefSite::Entry(_) => unreachable!("entry definitions precede every instruction"),
    }
}

/// The reaching-definitions solution for one function.
///
/// Definition ids are grouped by register: register `r` owns the
/// contiguous range `first[r]..first[r + 1]`, its entry definition
/// first and then its definitions in instruction order. So a block
/// kills whole ranges and generates the last id of each register it
/// defines, and only block-level reach-in sets are kept: a query finds
/// the register's last definition above it in its block, or else reads
/// the register's range of the block's reach-in set.
///
/// # Example
///
/// ```
/// use dl_mips::parse::parse_asm;
/// use dl_mips::reg::Reg;
/// use dl_analysis::{Cfg, reaching::{ReachingDefs, DefSite}};
///
/// let p = parse_asm(
///     "main:\n\
///      \tli $t0, 1\n\
///      \tlw $t1, 0($t0)\n\
///      \tjr $ra\n",
/// ).unwrap();
/// let f = p.symbols.func("main").unwrap().clone();
/// let cfg = Cfg::build(&p, &f);
/// let rd = ReachingDefs::build(&p, &f, &cfg);
/// assert_eq!(rd.reaching(1, Reg::T0), vec![DefSite::Inst(0)]);
/// ```
#[derive(Debug)]
pub struct ReachingDefs {
    func_start: usize,
    /// Definition id → site, grouped by register.
    sites: Vec<DefSite>,
    /// The first definition id of each register (its entry
    /// definition); `first[32]` is the number of definitions.
    first: [usize; 33],
    /// Block id of each instruction, indexed by `index - func_start`.
    block_of: Vec<u32>,
    /// Per-block reach-in sets.
    reach_in: Vec<BitSet>,
}

impl ReachingDefs {
    /// Solves reaching definitions for `func`.
    #[must_use]
    pub fn build(program: &Program, func: &FuncSym, cfg: &Cfg) -> ReachingDefs {
        let (lo, hi) = (func.start, func.end);
        // Number definitions per register: the entry def, then the
        // register's defs in instruction order.
        let mut first = [0usize; 33];
        for (idx, inst) in program.insts[lo..hi].iter().enumerate() {
            for_each_def(inst, lo + idx, |r, _| first[r as usize + 1] += 1);
        }
        for r in 0..32 {
            first[r + 1] += first[r] + 1;
        }
        let ndefs = first[32];
        let mut sites = vec![DefSite::Entry(Reg::Zero); ndefs];
        let mut next = [0usize; 32];
        for (r, reg) in Reg::ALL.into_iter().enumerate() {
            sites[first[r]] = DefSite::Entry(reg);
            next[r] = first[r] + 1;
        }

        // Block-level GEN (the last def of each register the block
        // defines) and KILL (the whole range of each such register).
        let blocks = cfg.blocks();
        let nb = blocks.len();
        let mut gen = vec![BitSet::new(ndefs); nb];
        let mut kill = vec![BitSet::new(ndefs); nb];
        let mut block_of = Vec::with_capacity(hi - lo);
        for (b, block) in blocks.iter().enumerate() {
            let mut defined = 0u32;
            for idx in block.start..block.end {
                block_of.push(b as u32);
                for_each_def(&program.insts[idx], idx, |r, site| {
                    let r = r as usize;
                    sites[next[r]] = site;
                    next[r] += 1;
                    defined |= 1 << r;
                });
            }
            for r in (0..32).filter(|r| defined & (1 << r) != 0) {
                for id in first[r]..first[r + 1] {
                    kill[b].insert(id);
                }
                gen[b].insert(next[r] - 1);
            }
        }
        // Iterate to fixpoint.
        let mut reach_in = vec![BitSet::new(ndefs); nb];
        let mut reach_out = vec![BitSet::new(ndefs); nb];
        for &id in &first[..32] {
            reach_in[0].insert(id);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                for &p in &blocks[b].preds {
                    reach_in[b].union_with(&reach_out[p]);
                }
                changed |= reach_out[b].transfer(&reach_in[b], &gen[b], &kill[b]);
            }
        }
        ReachingDefs {
            func_start: lo,
            sites,
            first,
            block_of,
            reach_in,
        }
    }

    /// The definitions of `reg` that reach instruction `at`
    /// (instruction index within the analyzed function), in id order:
    /// the entry definition first, then the others in instruction
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is outside the analyzed function.
    #[must_use]
    pub fn reaching(&self, at: usize, reg: Reg) -> Vec<DefSite> {
        let b = self.block_of[at - self.func_start] as usize;
        let (entry, end) = (self.first[reg as usize], self.first[reg as usize + 1]);
        let defs = &self.sites[entry + 1..end];
        let above = defs.partition_point(|&s| inst_index(s) < at);
        if let Some(&last) = defs[..above].last() {
            if self.block_of[inst_index(last) - self.func_start] as usize == b {
                return vec![last];
            }
        }
        let set = &self.reach_in[b];
        (entry..end)
            .filter(|&id| set.contains(id))
            .map(|id| self.sites[id])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_mips::parse::parse_asm;

    fn build(src: &str) -> (Program, ReachingDefs) {
        let p = parse_asm(src).unwrap();
        let f = p.symbols.func("main").unwrap().clone();
        let cfg = Cfg::build(&p, &f);
        let rd = ReachingDefs::build(&p, &f, &cfg);
        (p, rd)
    }

    #[test]
    fn straight_line_def_reaches() {
        let (_, rd) = build(
            "main:\n\
             \tli $t0, 1\n\
             \tli $t0, 2\n\
             \tlw $t1, 0($t0)\n\
             \tjr $ra\n",
        );
        // Only the second def reaches the load.
        assert_eq!(rd.reaching(2, Reg::T0), vec![DefSite::Inst(1)]);
    }

    #[test]
    fn entry_defs_reach_when_undefined() {
        let (_, rd) = build("main:\n\tlw $t1, 4($sp)\n\tjr $ra\n");
        assert_eq!(rd.reaching(0, Reg::Sp), vec![DefSite::Entry(Reg::Sp)]);
    }

    #[test]
    fn merge_brings_both_defs() {
        let (_, rd) = build(
            "main:\n\
             \tbeq $a0, $zero, .Lelse\n\
             \tli $t0, 1\n\
             \tj .Ljoin\n\
             .Lelse:\n\
             \tli $t0, 2\n\
             .Ljoin:\n\
             \tlw $t1, 0($t0)\n\
             \tjr $ra\n",
        );
        let mut sites = rd.reaching(4, Reg::T0);
        sites.sort_by_key(|s| match s {
            DefSite::Inst(i) => *i,
            _ => usize::MAX,
        });
        assert_eq!(sites, vec![DefSite::Inst(1), DefSite::Inst(3)]);
    }

    #[test]
    fn loop_carried_def_reaches_itself() {
        let (_, rd) = build(
            "main:\n\
             \tli $t0, 0\n\
             .Lloop:\n\
             \taddiu $t0, $t0, 4\n\
             \tbne $t0, $a0, .Lloop\n\
             \tjr $ra\n",
        );
        // At the addiu (inst 1), both the init (0) and itself (1) reach.
        let mut sites = rd.reaching(1, Reg::T0);
        sites.sort_by_key(|s| match s {
            DefSite::Inst(i) => *i,
            _ => usize::MAX,
        });
        assert_eq!(sites, vec![DefSite::Inst(0), DefSite::Inst(1)]);
    }

    #[test]
    fn call_clobbers_temporaries_and_defines_v0() {
        let (_, rd) = build(
            "main:\n\
             \tli $t0, 7\n\
             \tli $v0, 8\n\
             \tjal main\n\
             \tlw $t1, 0($t0)\n\
             \tjr $ra\n",
        );
        assert_eq!(rd.reaching(3, Reg::T0), vec![DefSite::CallClobber(2)]);
        assert_eq!(rd.reaching(3, Reg::V0), vec![DefSite::CallRet(2)]);
    }

    #[test]
    fn call_preserves_saved_registers() {
        let (_, rd) = build(
            "main:\n\
             \tli $s0, 7\n\
             \tjal main\n\
             \tlw $t1, 0($s0)\n\
             \tjr $ra\n",
        );
        assert_eq!(rd.reaching(2, Reg::S0), vec![DefSite::Inst(0)]);
    }

    #[test]
    fn syscall_defines_v0_only() {
        let (_, rd) = build(
            "main:\n\
             \tli $t0, 5\n\
             \tli $v0, 9\n\
             \tsyscall\n\
             \tlw $t1, 0($v0)\n\
             \tjr $ra\n",
        );
        assert_eq!(rd.reaching(3, Reg::V0), vec![DefSite::CallRet(2)]);
        assert_eq!(rd.reaching(3, Reg::T0), vec![DefSite::Inst(0)]);
    }
}
