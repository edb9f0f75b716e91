//! Block-cached execution engine.
//!
//! The reference interpreter ([`Machine::step`]) fetches, decodes and
//! dispatches one [`dl_mips::inst::Inst`] per call, and pays per-step
//! accounting (execution counts, the step-limit compare, the
//! termination check) on every instruction. This module replaces that
//! inner loop with an r2vm-style block cache: straight-line runs of
//! instructions are decoded once into a compact pre-resolved form
//! ([`Op`]), their terminator classified ([`Term`]), and the dispatch
//! loop then executes whole basic blocks, batching `instructions`,
//! `exec_counts` and load/store totals per block retirement instead of
//! per instruction.
//!
//! Decoding pre-computes everything the hot loop would otherwise redo:
//! register numbers are widened to plain `u8` indices, immediates are
//! sign- or zero-extended to their final 32-bit form (`lui` is
//! pre-shifted), branch targets become absolute instruction indices,
//! and `jal`/`jalr` link values become the final return PC.
//!
//! Programs are immutable for the lifetime of a run and the cache is
//! private to a single [`Machine`], so there are no invalidation
//! rules: a decoded block can never go stale. Blocks may overlap (a
//! branch into the middle of a decoded block simply decodes a second,
//! shorter block); the per-block retirement counters account for this
//! correctly because each dynamic instruction is attributed to exactly
//! the one block that executed it.
//!
//! Equivalence with the reference engine — including exact `max_steps`
//! semantics, trap attribution to the precise faulting instruction
//! index, and byte-identical [`crate::RunResult`]s — is checked by the
//! differential tests in `tests/engine_differential.rs`.

use std::fmt;
use std::str::FromStr;

use dl_mips::inst::Inst;
use dl_mips::layout;
use dl_mips::program::Program;
use dl_mips::reg::Reg;

use crate::cpu::{Machine, Trap};
use crate::memory::MemorySystem;
use crate::stats::RunResult;

/// Which interpreter core executes a run.
///
/// Both engines produce bit-identical [`crate::RunResult`]s and trace
/// streams; `Step` survives as the executable specification the block
/// engine is differentially tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Reference path: one decoded [`Inst`] per [`Machine::step`] call.
    Step,
    /// Block-cached path: pre-decoded basic blocks, batched accounting.
    #[default]
    Block,
}

impl Engine {
    /// Resolves the engine from the `DL_SIM_ENGINE` environment
    /// variable (`step` or `block`, case-insensitive). Unset or
    /// unrecognized values select the default [`Engine::Block`].
    #[must_use]
    pub fn from_env() -> Engine {
        match std::env::var("DL_SIM_ENGINE") {
            Ok(v) => v.parse().unwrap_or_default(),
            Err(_) => Engine::default(),
        }
    }

    /// Stable lower-case name (`"step"` / `"block"`), matching the
    /// `DL_SIM_ENGINE` / `--engine` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Step => "step",
            Engine::Block => "block",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "step" => Ok(Engine::Step),
            "block" => Ok(Engine::Block),
            other => Err(format!("unknown engine '{other}' (expected step|block)")),
        }
    }
}

/// Block-cache behaviour counters for one run under [`Engine::Block`].
///
/// These are observability data only: they ride next to the
/// [`crate::RunResult`] (never inside it) so results stay byte-identical
/// across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockStats {
    /// Distinct basic blocks decoded into the cache.
    pub blocks_decoded: u64,
    /// Total instructions decoded across all cached blocks (counts
    /// overlap if control flow enters the middle of a decoded run).
    pub insts_decoded: u64,
    /// Block dispatches executed by the outer loop.
    pub dispatches: u64,
    /// Dispatches served from the cache (no decode needed).
    pub dispatch_hits: u64,
    /// Dynamic instructions retired through full block executions.
    pub insts_retired: u64,
}

impl BlockStats {
    /// Mean decoded block length in instructions (0 when empty).
    #[must_use]
    pub fn mean_block_len(&self) -> f64 {
        if self.blocks_decoded == 0 {
            0.0
        } else {
            self.insts_decoded as f64 / self.blocks_decoded as f64
        }
    }

    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &BlockStats) {
        self.blocks_decoded += other.blocks_decoded;
        self.insts_decoded += other.insts_decoded;
        self.dispatches += other.dispatches;
        self.dispatch_hits += other.dispatch_hits;
        self.insts_retired += other.insts_retired;
    }
}

/// A pre-decoded straight-line instruction. Register fields are raw
/// indices (masked on use so bounds checks vanish); immediates carry
/// their final sign-/zero-extended 32-bit value.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lw {
        rt: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    Lb {
        rt: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    Lbu {
        rt: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    Lh {
        rt: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    Lhu {
        rt: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    Sw {
        rt: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    Sb {
        rt: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    Sh {
        rt: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    /// `imm` is pre-shifted: the final register value.
    Lui {
        rt: u8,
        imm: u32,
    },
    /// Fused `addiu rt, $zero, imm`: a plain immediate load.
    Li {
        rt: u8,
        imm: u32,
    },
    /// Fused `addu rd, rs, $zero` (either operand): a register copy.
    Move {
        rd: u8,
        rs: u8,
    },
    Addu {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Subu {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Mul {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Div {
        rd: u8,
        rs: u8,
        rt: u8,
        at: u32,
    },
    Rem {
        rd: u8,
        rs: u8,
        rt: u8,
        at: u32,
    },
    And {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Or {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Xor {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Nor {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Slt {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Sltu {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    /// `imm` is sign-extended.
    Addiu {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    /// `imm` is zero-extended.
    Andi {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    Ori {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    Xori {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    Slti {
        rt: u8,
        rs: u8,
        imm: i32,
    },
    /// `imm` is sign-extended then compared unsigned (MIPS semantics).
    Sltiu {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    Sll {
        rd: u8,
        rt: u8,
        shamt: u32,
    },
    Srl {
        rd: u8,
        rt: u8,
        shamt: u32,
    },
    Sra {
        rd: u8,
        rt: u8,
        shamt: u32,
    },
    Sllv {
        rd: u8,
        rt: u8,
        rs: u8,
    },
    Srlv {
        rd: u8,
        rt: u8,
        rs: u8,
    },
    Srav {
        rd: u8,
        rt: u8,
        rs: u8,
    },
    Nop,
    // Fused pairs: two adjacent ops peephole-combined at decode into
    // one dispatch ([`fuse_pair`]). Each executes its halves strictly
    // in program order, so register aliasing between them behaves
    // exactly as the unfused sequence; memory halves keep their own
    // `at` for miss attribution and trap reporting. Naming is
    // first-half then second-half.
    /// `lw rt, off(base)` then `li rt2, imm`.
    LwLi {
        rt: u8,
        base: u8,
        rt2: u8,
        off: u32,
        at: u32,
        imm: u32,
    },
    /// `lw rt, off(base)` then `addiu rt2, rs2, imm`.
    LwAddiu {
        rt: u8,
        base: u8,
        rt2: u8,
        rs2: u8,
        off: u32,
        at: u32,
        imm: u32,
    },
    /// `lw rt, off(base)` then `sll rd, rt2, shamt`.
    LwSll {
        rt: u8,
        base: u8,
        rd: u8,
        rt2: u8,
        shamt: u8,
        off: u32,
        at: u32,
    },
    /// `lw rt, off(base)` then `addu rd, rs, rt2`.
    LwAddu {
        rt: u8,
        base: u8,
        rd: u8,
        rs: u8,
        rt2: u8,
        off: u32,
        at: u32,
    },
    /// `addu rd, rs, rt` then `lw rt2, off(base)`.
    AdduLw {
        rd: u8,
        rs: u8,
        rt: u8,
        rt2: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    /// `addu rd, rs, rt` then `sw rt2, off(base)`.
    AdduSw {
        rd: u8,
        rs: u8,
        rt: u8,
        rt2: u8,
        base: u8,
        off: u32,
        at: u32,
    },
    /// `li rt, imm` then `addu rd, rs, rt2`.
    LiAddu {
        rt: u8,
        rd: u8,
        rs: u8,
        rt2: u8,
        imm: u32,
    },
    /// `sll rd, rt, shamt` then `addu rd2, rs, rt2`.
    SllAddu {
        rd: u8,
        rt: u8,
        shamt: u8,
        rd2: u8,
        rs: u8,
        rt2: u8,
    },
}

/// A block terminator with pre-resolved successors. Branch targets and
/// `jal`/`jalr` link values are final — no PC arithmetic at dispatch.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// The block ran into the end of the text segment (halt sentinel).
    Fallthrough,
    Beq {
        rs: u8,
        rt: u8,
        taken: u32,
    },
    Bne {
        rs: u8,
        rt: u8,
        taken: u32,
    },
    Blez {
        rs: u8,
        taken: u32,
    },
    Bgtz {
        rs: u8,
        taken: u32,
    },
    Bltz {
        rs: u8,
        taken: u32,
    },
    Bgez {
        rs: u8,
        taken: u32,
    },
    J {
        target: u32,
    },
    Jal {
        target: u32,
        link: u32,
    },
    Jr {
        rs: u8,
    },
    Jalr {
        rd: u8,
        rs: u8,
        link: u32,
    },
    Syscall,
    // Fused compare-and-branch: a trailing `slt`/`slti` whose result
    // feeds a `beq`/`bne` against `$zero` is folded into the
    // terminator ([`fuse_term`]). The compare result is still written
    // to `rd` (later code may read it); the branch then tests the
    // written register, preserving exact sequential semantics even
    // when `rd` is `$zero`.
    /// `slt rd, rs, rt` then `beq rd, $zero, taken`.
    SltBeqz {
        rd: u8,
        rs: u8,
        rt: u8,
        taken: u32,
    },
    /// `slt rd, rs, rt` then `bne rd, $zero, taken`.
    SltBnez {
        rd: u8,
        rs: u8,
        rt: u8,
        taken: u32,
    },
    /// `slti rd, rs, imm` then `beq rd, $zero, taken`.
    SltiBeqz {
        rd: u8,
        rs: u8,
        imm: i32,
        taken: u32,
    },
    /// `slti rd, rs, imm` then `bne rd, $zero, taken`.
    SltiBnez {
        rd: u8,
        rs: u8,
        imm: i32,
        taken: u32,
    },
}

/// One decoded superblock: a straight-line body plus one terminator.
///
/// A superblock covers one basic block plus any successors reachable
/// by chaining unconditional `j`/`jal` edges at decode time
/// ([`MAX_SEGMENTS`] deep): the jump itself becomes a no-op (`jal`
/// leaves its link write behind as an [`Op::Li`]), and execution runs
/// straight through into the target's instructions. `ranges` records
/// the covered index intervals so batched `exec_counts` expansion
/// stays exact.
#[derive(Debug)]
struct Block {
    /// Entry instruction index.
    start: u32,
    /// Total instructions this block retires (all segments, including
    /// chained jumps and the terminator; the terminator contributes 0
    /// only for [`Term::Fallthrough`]).
    len: u32,
    /// Successor index after the terminator (the not-taken branch
    /// path); the terminator instruction itself sits at `fall - 1`.
    fall: u32,
    /// Static load-slot count, for batched access accounting.
    loads: u32,
    /// Static store-slot count.
    stores: u32,
    /// Covered `(start, len)` instruction-index intervals, in chain
    /// order; every retirement executed each interval exactly once.
    ranges: Box<[(u32, u32)]>,
    body: Box<[Op]>,
    term: Term,
}

/// Superblock chaining depth: how many basic blocks one decoded block
/// may cover by following unconditional jumps.
const MAX_SEGMENTS: usize = 8;

/// Per-run cache of decoded blocks, keyed by entry instruction index.
pub(crate) struct BlockCache {
    /// Entry index → block id + 1 (0 = not yet decoded). A flat table
    /// keeps the hot lookup to one load and one compare.
    ids: Box<[u32]>,
    blocks: Vec<Block>,
    /// Retirement count per block. The dispatch loop touches only this
    /// counter; `exec_counts`, access totals and the dispatch stats are
    /// all expanded from it once at the end of the run.
    retired: Vec<u64>,
    insts_decoded: u64,
}

impl BlockCache {
    pub(crate) fn new(program_len: usize) -> Self {
        BlockCache {
            ids: vec![0u32; program_len].into_boxed_slice(),
            blocks: Vec::new(),
            retired: Vec::new(),
            insts_decoded: 0,
        }
    }

    #[inline]
    fn block_id(&mut self, program: &Program, start: usize) -> usize {
        let slot = self.ids[start];
        if slot != 0 {
            return (slot - 1) as usize;
        }
        self.decode(program, start)
    }

    #[cold]
    fn decode(&mut self, program: &Program, start: usize) -> usize {
        let block = decode_block(program, start);
        self.insts_decoded += u64::from(block.len);
        let id = self.blocks.len();
        self.ids[start] = u32::try_from(id + 1).expect("block id overflow");
        self.blocks.push(block);
        self.retired.push(0);
        id
    }

    /// Expands the batched per-block retirement counters into the
    /// per-instruction `exec_counts` table. Overlapping blocks sum
    /// correctly: each retirement covered each of its index ranges
    /// exactly once.
    pub(crate) fn flush_exec_counts(&self, result: &mut RunResult) {
        for (block, &n) in self.blocks.iter().zip(&self.retired) {
            if n == 0 {
                continue;
            }
            for &(start, len) in &block.ranges {
                let start = start as usize;
                for count in &mut result.exec_counts[start..start + len as usize] {
                    *count += n;
                }
            }
        }
    }

    /// Expands the batched load/store totals (fast path only — the
    /// slow path counts per access through `dcache_load`/`dcache_store`).
    pub(crate) fn flush_access_totals(&self, result: &mut RunResult) {
        for (block, &n) in self.blocks.iter().zip(&self.retired) {
            result.loads += n * u64::from(block.loads);
            result.stores += n * u64::from(block.stores);
        }
        result.dcache_accesses += result.loads + result.stores;
    }

    pub(crate) fn stats(&self) -> BlockStats {
        let blocks_decoded = self.blocks.len() as u64;
        let mut dispatches = 0u64;
        let mut insts_retired = 0u64;
        for (block, &n) in self.blocks.iter().zip(&self.retired) {
            dispatches += n;
            insts_retired += n * u64::from(block.len);
        }
        BlockStats {
            blocks_decoded,
            insts_decoded: self.insts_decoded,
            dispatches,
            dispatch_hits: dispatches - blocks_decoded,
            insts_retired,
        }
    }
}

fn decode_block(program: &Program, start: usize) -> Block {
    let insts = &program.insts;
    let mut body = Vec::new();
    let mut loads = 0u32;
    let mut stores = 0u32;
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    let mut seg_start = start;
    let mut i = start;
    // Chains across an unconditional jump when the target is a real
    // instruction (not the halt sentinel) and the chain depth allows:
    // the current segment (including the jump, which retires but
    // executes nothing) is sealed and decoding continues at the
    // target.
    let term = loop {
        if i == insts.len() {
            break Term::Fallthrough;
        }
        let inst = insts[i];
        i += 1;
        let taken = |t: dl_mips::inst::Label| t.index() as u32;
        // The link value a call terminator writes: PC of the next inst.
        let link = layout::pc_of_index(i);
        match inst {
            Inst::Beq { rs, rt, target } => {
                break Term::Beq {
                    rs: rs as u8,
                    rt: rt as u8,
                    taken: taken(target),
                };
            }
            Inst::Bne { rs, rt, target } => {
                break Term::Bne {
                    rs: rs as u8,
                    rt: rt as u8,
                    taken: taken(target),
                };
            }
            Inst::Blez { rs, target } => {
                break Term::Blez {
                    rs: rs as u8,
                    taken: taken(target),
                };
            }
            Inst::Bgtz { rs, target } => {
                break Term::Bgtz {
                    rs: rs as u8,
                    taken: taken(target),
                };
            }
            Inst::Bltz { rs, target } => {
                break Term::Bltz {
                    rs: rs as u8,
                    taken: taken(target),
                };
            }
            Inst::Bgez { rs, target } => {
                break Term::Bgez {
                    rs: rs as u8,
                    taken: taken(target),
                };
            }
            Inst::J { target } => {
                let t = taken(target) as usize;
                if t < insts.len() && ranges.len() + 1 < MAX_SEGMENTS {
                    ranges.push((seg_start as u32, (i - seg_start) as u32));
                    seg_start = t;
                    i = t;
                    continue;
                }
                break Term::J {
                    target: taken(target),
                };
            }
            Inst::Jal { target } => {
                let t = taken(target) as usize;
                if t < insts.len() && ranges.len() + 1 < MAX_SEGMENTS {
                    // The call's only architectural effect besides the
                    // jump is the link write; leave it behind as an op.
                    body.push(Op::Li {
                        rt: Reg::Ra as u8,
                        imm: link,
                    });
                    ranges.push((seg_start as u32, (i - seg_start) as u32));
                    seg_start = t;
                    i = t;
                    continue;
                }
                break Term::Jal {
                    target: taken(target),
                    link,
                };
            }
            Inst::Jr { rs } => break Term::Jr { rs: rs as u8 },
            Inst::Jalr { rd, rs } => {
                break Term::Jalr {
                    rd: rd as u8,
                    rs: rs as u8,
                    link,
                };
            }
            Inst::Syscall => break Term::Syscall,
            straight => {
                body.push(decode_op(straight, (i - 1) as u32, &mut loads, &mut stores));
            }
        }
    };
    ranges.push((seg_start as u32, (i - seg_start) as u32));
    let term = fuse_term(&mut body, term);
    let body = fuse_body(body);
    Block {
        start: u32::try_from(start).expect("program too large"),
        len: ranges.iter().map(|r| r.1).sum(),
        fall: i as u32,
        loads,
        stores,
        ranges: ranges.into_boxed_slice(),
        body: body.into_boxed_slice(),
        term,
    }
}

/// Folds a trailing compare into a `beq`/`bne`-against-`$zero`
/// terminator, popping the compare off the body. Runs before
/// [`fuse_body`] so the compare is still a standalone op.
fn fuse_term(body: &mut Vec<Op>, term: Term) -> Term {
    let zero_test = |brs: u8, brt: u8, rd: u8| (brs == rd && brt == 0) || (brs == 0 && brt == rd);
    let fused = match (body.last(), term) {
        (
            Some(&Op::Slt { rd, rs, rt }),
            Term::Beq {
                rs: brs,
                rt: brt,
                taken,
            },
        ) if zero_test(brs, brt, rd) => Term::SltBeqz { rd, rs, rt, taken },
        (
            Some(&Op::Slt { rd, rs, rt }),
            Term::Bne {
                rs: brs,
                rt: brt,
                taken,
            },
        ) if zero_test(brs, brt, rd) => Term::SltBnez { rd, rs, rt, taken },
        (
            Some(&Op::Slti { rt: rd, rs, imm }),
            Term::Beq {
                rs: brs,
                rt: brt,
                taken,
            },
        ) if zero_test(brs, brt, rd) => Term::SltiBeqz { rd, rs, imm, taken },
        (
            Some(&Op::Slti { rt: rd, rs, imm }),
            Term::Bne {
                rs: brs,
                rt: brt,
                taken,
            },
        ) if zero_test(brs, brt, rd) => Term::SltiBnez { rd, rs, imm, taken },
        _ => return term,
    };
    body.pop();
    fused
}

/// Greedy left-to-right peephole pass combining adjacent op pairs
/// into fused macro-ops. Pairs are chosen from the idioms compilers
/// emit around memory traffic (operand load + scale/constant, address
/// formation + access, compute + spill), where one dispatch instead
/// of two matters most. Fusion is invisible to all accounting:
/// `exec_counts` expands from block `(start, len)` ranges, access
/// totals from static slot counts, and each memory half keeps its
/// own `at`.
fn fuse_body(body: Vec<Op>) -> Vec<Op> {
    let mut out = Vec::with_capacity(body.len());
    let mut iter = body.into_iter().peekable();
    while let Some(op) = iter.next() {
        let fused = iter.peek().and_then(|next| fuse_pair(op, *next));
        match fused {
            Some(f) => {
                iter.next();
                out.push(f);
            }
            None => out.push(op),
        }
    }
    out
}

fn fuse_pair(a: Op, b: Op) -> Option<Op> {
    Some(match (a, b) {
        (Op::Lw { rt, base, off, at }, Op::Li { rt: rt2, imm }) => Op::LwLi {
            rt,
            base,
            rt2,
            off,
            at,
            imm,
        },
        (
            Op::Lw { rt, base, off, at },
            Op::Addiu {
                rt: rt2,
                rs: rs2,
                imm,
            },
        ) => Op::LwAddiu {
            rt,
            base,
            rt2,
            rs2,
            off,
            at,
            imm,
        },
        (Op::Lw { rt, base, off, at }, Op::Sll { rd, rt: rt2, shamt }) => Op::LwSll {
            rt,
            base,
            rd,
            rt2,
            shamt: shamt as u8,
            off,
            at,
        },
        (Op::Lw { rt, base, off, at }, Op::Addu { rd, rs, rt: rt2 }) => Op::LwAddu {
            rt,
            base,
            rd,
            rs,
            rt2,
            off,
            at,
        },
        (
            Op::Addu { rd, rs, rt },
            Op::Lw {
                rt: rt2,
                base,
                off,
                at,
            },
        ) => Op::AdduLw {
            rd,
            rs,
            rt,
            rt2,
            base,
            off,
            at,
        },
        (
            Op::Addu { rd, rs, rt },
            Op::Sw {
                rt: rt2,
                base,
                off,
                at,
            },
        ) => Op::AdduSw {
            rd,
            rs,
            rt,
            rt2,
            base,
            off,
            at,
        },
        (Op::Li { rt, imm }, Op::Addu { rd, rs, rt: rt2 }) => Op::LiAddu {
            rt,
            rd,
            rs,
            rt2,
            imm,
        },
        (
            Op::Sll { rd, rt, shamt },
            Op::Addu {
                rd: rd2,
                rs,
                rt: rt2,
            },
        ) => Op::SllAddu {
            rd,
            rt,
            shamt: shamt as u8,
            rd2,
            rs,
            rt2,
        },
        _ => return None,
    })
}

fn decode_op(inst: Inst, at: u32, loads: &mut u32, stores: &mut u32) -> Op {
    let sx = |off: i16| off as i32 as u32;
    match inst {
        Inst::Lw { rt, base, off } => {
            *loads += 1;
            Op::Lw {
                rt: rt as u8,
                base: base as u8,
                off: sx(off),
                at,
            }
        }
        Inst::Lb { rt, base, off } => {
            *loads += 1;
            Op::Lb {
                rt: rt as u8,
                base: base as u8,
                off: sx(off),
                at,
            }
        }
        Inst::Lbu { rt, base, off } => {
            *loads += 1;
            Op::Lbu {
                rt: rt as u8,
                base: base as u8,
                off: sx(off),
                at,
            }
        }
        Inst::Lh { rt, base, off } => {
            *loads += 1;
            Op::Lh {
                rt: rt as u8,
                base: base as u8,
                off: sx(off),
                at,
            }
        }
        Inst::Lhu { rt, base, off } => {
            *loads += 1;
            Op::Lhu {
                rt: rt as u8,
                base: base as u8,
                off: sx(off),
                at,
            }
        }
        Inst::Sw { rt, base, off } => {
            *stores += 1;
            Op::Sw {
                rt: rt as u8,
                base: base as u8,
                off: sx(off),
                at,
            }
        }
        Inst::Sb { rt, base, off } => {
            *stores += 1;
            Op::Sb {
                rt: rt as u8,
                base: base as u8,
                off: sx(off),
                at,
            }
        }
        Inst::Sh { rt, base, off } => {
            *stores += 1;
            Op::Sh {
                rt: rt as u8,
                base: base as u8,
                off: sx(off),
                at,
            }
        }
        Inst::Lui { rt, imm } => Op::Lui {
            rt: rt as u8,
            imm: u32::from(imm) << 16,
        },
        Inst::Addu {
            rd,
            rs,
            rt: Reg::Zero,
        } => Op::Move {
            rd: rd as u8,
            rs: rs as u8,
        },
        Inst::Addu {
            rd,
            rs: Reg::Zero,
            rt,
        } => Op::Move {
            rd: rd as u8,
            rs: rt as u8,
        },
        Inst::Addu { rd, rs, rt } => Op::Addu {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
        },
        Inst::Subu { rd, rs, rt } => Op::Subu {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
        },
        Inst::Mul { rd, rs, rt } => Op::Mul {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
        },
        Inst::Div { rd, rs, rt } => Op::Div {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
            at,
        },
        Inst::Rem { rd, rs, rt } => Op::Rem {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
            at,
        },
        Inst::And { rd, rs, rt } => Op::And {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
        },
        Inst::Or { rd, rs, rt } => Op::Or {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
        },
        Inst::Xor { rd, rs, rt } => Op::Xor {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
        },
        Inst::Nor { rd, rs, rt } => Op::Nor {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
        },
        Inst::Slt { rd, rs, rt } => Op::Slt {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
        },
        Inst::Sltu { rd, rs, rt } => Op::Sltu {
            rd: rd as u8,
            rs: rs as u8,
            rt: rt as u8,
        },
        Inst::Addiu {
            rt,
            rs: Reg::Zero,
            imm,
        } => Op::Li {
            rt: rt as u8,
            imm: sx(imm),
        },
        Inst::Addiu { rt, rs, imm } => Op::Addiu {
            rt: rt as u8,
            rs: rs as u8,
            imm: sx(imm),
        },
        Inst::Andi { rt, rs, imm } => Op::Andi {
            rt: rt as u8,
            rs: rs as u8,
            imm: u32::from(imm),
        },
        Inst::Ori { rt, rs, imm } => Op::Ori {
            rt: rt as u8,
            rs: rs as u8,
            imm: u32::from(imm),
        },
        Inst::Xori { rt, rs, imm } => Op::Xori {
            rt: rt as u8,
            rs: rs as u8,
            imm: u32::from(imm),
        },
        Inst::Slti { rt, rs, imm } => Op::Slti {
            rt: rt as u8,
            rs: rs as u8,
            imm: i32::from(imm),
        },
        Inst::Sltiu { rt, rs, imm } => Op::Sltiu {
            rt: rt as u8,
            rs: rs as u8,
            imm: sx(imm),
        },
        Inst::Sll { rd, rt, shamt } => Op::Sll {
            rd: rd as u8,
            rt: rt as u8,
            shamt: u32::from(shamt),
        },
        Inst::Srl { rd, rt, shamt } => Op::Srl {
            rd: rd as u8,
            rt: rt as u8,
            shamt: u32::from(shamt),
        },
        Inst::Sra { rd, rt, shamt } => Op::Sra {
            rd: rd as u8,
            rt: rt as u8,
            shamt: u32::from(shamt),
        },
        Inst::Sllv { rd, rt, rs } => Op::Sllv {
            rd: rd as u8,
            rt: rt as u8,
            rs: rs as u8,
        },
        Inst::Srlv { rd, rt, rs } => Op::Srlv {
            rd: rd as u8,
            rt: rt as u8,
            rs: rs as u8,
        },
        Inst::Srav { rd, rt, rs } => Op::Srav {
            rd: rd as u8,
            rt: rt as u8,
            rs: rs as u8,
        },
        Inst::Nop => Op::Nop,
        // Control flow never reaches decode_op: decode_block breaks
        // to a Term first.
        other => unreachable!("terminator {other:?} in block body"),
    }
}

/// Cache address-decode geometry, hoisted into locals once per run so
/// the per-access fast path computes set and tag from registers
/// instead of reloading `Cache` fields per access.
#[derive(Clone, Copy)]
struct CacheView {
    set_shift: u32,
}

impl CacheView {
    fn new(cache: &MemorySystem) -> Self {
        CacheView {
            set_shift: cache.hot_params(),
        }
    }
}

/// Reads a register. The mask proves the index in-bounds so the
/// bounds check folds away.
#[inline(always)]
fn r(m: &Machine<'_>, reg: u8) -> u32 {
    m.regs[usize::from(reg) & 31]
}

/// Writes a register, discarding writes to `$zero`.
#[inline(always)]
fn w(m: &mut Machine<'_>, reg: u8, v: u32) {
    if reg != 0 {
        m.regs[usize::from(reg) & 31] = v;
    }
}

/// Executes one straight-line op. `SLOW` routes data accesses through
/// the full per-access hooks (tracing, prefetch, miss classification);
/// the fast path batches load/store totals at block retirement.
#[inline(always)]
fn exec_op<const SLOW: bool>(m: &mut Machine<'_>, cv: CacheView, op: &Op) -> Result<(), Trap> {
    match *op {
        Op::Lw { rt, base, off, at } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = mem_read(m, at, addr)?;
            w(m, rt, v);
        }
        Op::Lb { rt, base, off, at } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = m
                .mem
                .read_u8(addr)
                .map_err(|fault| Trap::Mem { at, fault })?;
            w(m, rt, v as i8 as i32 as u32);
        }
        Op::Lbu { rt, base, off, at } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = m
                .mem
                .read_u8(addr)
                .map_err(|fault| Trap::Mem { at, fault })?;
            w(m, rt, u32::from(v));
        }
        Op::Lh { rt, base, off, at } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = m
                .mem
                .read_u16(addr)
                .map_err(|fault| Trap::Mem { at, fault })?;
            w(m, rt, v as i16 as i32 as u32);
        }
        Op::Lhu { rt, base, off, at } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = m
                .mem
                .read_u16(addr)
                .map_err(|fault| Trap::Mem { at, fault })?;
            w(m, rt, u32::from(v));
        }
        Op::Sw { rt, base, off, at } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            store_access::<SLOW>(m, cv, at, addr);
            mem_write(m, at, addr, r(m, rt))?;
        }
        Op::Sb { rt, base, off, at } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            store_access::<SLOW>(m, cv, at, addr);
            m.mem
                .write_u8(addr, r(m, rt) as u8)
                .map_err(|fault| Trap::Mem { at, fault })?;
        }
        Op::Sh { rt, base, off, at } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            store_access::<SLOW>(m, cv, at, addr);
            m.mem
                .write_u16(addr, r(m, rt) as u16)
                .map_err(|fault| Trap::Mem { at, fault })?;
        }
        Op::Lui { rt, imm } => w(m, rt, imm),
        Op::Li { rt, imm } => w(m, rt, imm),
        Op::Move { rd, rs } => w(m, rd, r(m, rs)),
        Op::Addu { rd, rs, rt } => w(m, rd, r(m, rs).wrapping_add(r(m, rt))),
        Op::Subu { rd, rs, rt } => w(m, rd, r(m, rs).wrapping_sub(r(m, rt))),
        Op::Mul { rd, rs, rt } => w(m, rd, r(m, rs).wrapping_mul(r(m, rt))),
        Op::Div { rd, rs, rt, at } => {
            let at = at as usize;
            let d = r(m, rt) as i32;
            if d == 0 {
                return Err(Trap::DivByZero { at });
            }
            w(m, rd, (r(m, rs) as i32).wrapping_div(d) as u32);
        }
        Op::Rem { rd, rs, rt, at } => {
            let at = at as usize;
            let d = r(m, rt) as i32;
            if d == 0 {
                return Err(Trap::DivByZero { at });
            }
            w(m, rd, (r(m, rs) as i32).wrapping_rem(d) as u32);
        }
        Op::And { rd, rs, rt } => w(m, rd, r(m, rs) & r(m, rt)),
        Op::Or { rd, rs, rt } => w(m, rd, r(m, rs) | r(m, rt)),
        Op::Xor { rd, rs, rt } => w(m, rd, r(m, rs) ^ r(m, rt)),
        Op::Nor { rd, rs, rt } => w(m, rd, !(r(m, rs) | r(m, rt))),
        Op::Slt { rd, rs, rt } => w(m, rd, u32::from((r(m, rs) as i32) < (r(m, rt) as i32))),
        Op::Sltu { rd, rs, rt } => w(m, rd, u32::from(r(m, rs) < r(m, rt))),
        Op::Addiu { rt, rs, imm } => w(m, rt, r(m, rs).wrapping_add(imm)),
        Op::Andi { rt, rs, imm } => w(m, rt, r(m, rs) & imm),
        Op::Ori { rt, rs, imm } => w(m, rt, r(m, rs) | imm),
        Op::Xori { rt, rs, imm } => w(m, rt, r(m, rs) ^ imm),
        Op::Slti { rt, rs, imm } => w(m, rt, u32::from((r(m, rs) as i32) < imm)),
        Op::Sltiu { rt, rs, imm } => w(m, rt, u32::from(r(m, rs) < imm)),
        Op::Sll { rd, rt, shamt } => w(m, rd, r(m, rt) << shamt),
        Op::Srl { rd, rt, shamt } => w(m, rd, r(m, rt) >> shamt),
        Op::Sra { rd, rt, shamt } => w(m, rd, ((r(m, rt) as i32) >> shamt) as u32),
        Op::Sllv { rd, rt, rs } => w(m, rd, r(m, rt) << (r(m, rs) & 31)),
        Op::Srlv { rd, rt, rs } => w(m, rd, r(m, rt) >> (r(m, rs) & 31)),
        Op::Srav { rd, rt, rs } => w(m, rd, ((r(m, rt) as i32) >> (r(m, rs) & 31)) as u32),
        Op::Nop => {}
        // Fused pairs execute their halves strictly in program order;
        // see the variant docs for the underlying sequences.
        Op::LwLi {
            rt,
            base,
            rt2,
            off,
            at,
            imm,
        } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = mem_read(m, at, addr)?;
            w(m, rt, v);
            w(m, rt2, imm);
        }
        Op::LwAddiu {
            rt,
            base,
            rt2,
            rs2,
            off,
            at,
            imm,
        } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = mem_read(m, at, addr)?;
            w(m, rt, v);
            w(m, rt2, r(m, rs2).wrapping_add(imm));
        }
        Op::LwSll {
            rt,
            base,
            rd,
            rt2,
            shamt,
            off,
            at,
        } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = mem_read(m, at, addr)?;
            w(m, rt, v);
            w(m, rd, r(m, rt2) << shamt);
        }
        Op::LwAddu {
            rt,
            base,
            rd,
            rs,
            rt2,
            off,
            at,
        } => {
            let at = at as usize;
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = mem_read(m, at, addr)?;
            w(m, rt, v);
            w(m, rd, r(m, rs).wrapping_add(r(m, rt2)));
        }
        Op::AdduLw {
            rd,
            rs,
            rt,
            rt2,
            base,
            off,
            at,
        } => {
            let at = at as usize;
            w(m, rd, r(m, rs).wrapping_add(r(m, rt)));
            let addr = r(m, base).wrapping_add(off);
            load_access::<SLOW>(m, cv, at, addr);
            let v = mem_read(m, at, addr)?;
            w(m, rt2, v);
        }
        Op::AdduSw {
            rd,
            rs,
            rt,
            rt2,
            base,
            off,
            at,
        } => {
            let at = at as usize;
            w(m, rd, r(m, rs).wrapping_add(r(m, rt)));
            let addr = r(m, base).wrapping_add(off);
            store_access::<SLOW>(m, cv, at, addr);
            mem_write(m, at, addr, r(m, rt2))?;
        }
        Op::LiAddu {
            rt,
            rd,
            rs,
            rt2,
            imm,
        } => {
            w(m, rt, imm);
            w(m, rd, r(m, rs).wrapping_add(r(m, rt2)));
        }
        Op::SllAddu {
            rd,
            rt,
            shamt,
            rd2,
            rs,
            rt2,
        } => {
            w(m, rd, r(m, rt) << shamt);
            w(m, rd2, r(m, rs).wrapping_add(r(m, rt2)));
        }
    }
    Ok(())
}

/// Architectural 32-bit load: the checked arena walk, with a fault
/// attributed to instruction `at`.
#[inline(always)]
fn mem_read(m: &mut Machine<'_>, at: usize, addr: u32) -> Result<u32, Trap> {
    m.mem
        .read_u32(addr)
        .map_err(|fault| Trap::Mem { at, fault })
}

/// Architectural 32-bit store; see [`mem_read`].
#[inline(always)]
fn mem_write(m: &mut Machine<'_>, at: usize, addr: u32, v: u32) -> Result<(), Trap> {
    m.mem
        .write_u32(addr, v)
        .map_err(|fault| Trap::Mem { at, fault })
}

/// Load-slot cache access. Fast path: an access that hits the set's
/// MRU way changes no replacement state, so it is answered with one
/// compare ([`mru_hit`]) using the hoisted [`CacheView`] geometry;
/// everything else funnels through [`MemorySystem::demand_access`]. Only
/// misses update counters — `loads`/`dcache_accesses` totals are
/// batched per block retirement, and per-site hits are reconstructed
/// at the end of the run as `exec_counts - load_misses` (every
/// execution of a load site is exactly one access).
#[inline(always)]
fn load_access<const SLOW: bool>(m: &mut Machine<'_>, cv: CacheView, at: usize, addr: u32) {
    if SLOW {
        m.dcache_load(at, addr);
        return;
    }
    if mru_hit(m, cv, addr) {
        return;
    }
    load_access_slow(m, at, addr);
}

/// Non-MRU load access: full memory-system walk plus miss counters.
/// Force-inlined: letting the inliner decide here has measured as a
/// double-digit-percent throughput difference between otherwise
/// identical binaries (the engine loop's register allocation changes
/// around an opaque call), and the inlined form won.
#[inline(always)]
fn load_access_slow(m: &mut Machine<'_>, at: usize, addr: u32) {
    if !m.cache.demand_access(addr).hit {
        m.result.load_misses[at] += 1;
        m.result.load_misses_total += 1;
        m.result.dcache_misses += 1;
    }
}

/// Store-slot cache access; `stores` totals are batched per block.
#[inline(always)]
fn store_access<const SLOW: bool>(m: &mut Machine<'_>, cv: CacheView, at: usize, addr: u32) {
    if SLOW {
        m.dcache_store(at, addr);
        return;
    }
    if mru_hit(m, cv, addr) {
        return;
    }
    store_access_slow(m, addr);
}

/// Non-MRU store access. Inlined like [`load_access_slow`].
#[inline(always)]
fn store_access_slow(m: &mut Machine<'_>, addr: u32) {
    if !m.cache.demand_access(addr).hit {
        m.result.dcache_misses += 1;
    }
}

/// The fast-path MRU probe: true iff `addr` hits the MRU way of its
/// set, in which case the access is a hit with no state to update.
#[inline(always)]
fn mru_hit(m: &Machine<'_>, cv: CacheView, addr: u32) -> bool {
    let block = u64::from(addr >> cv.set_shift);
    let mru = m.cache.mru_blocks();
    // The set count is a power of two, so masking by `len - 1` keeps
    // the index in bounds and the bounds check folds away.
    let set = (block as usize) & (mru.len() - 1);
    mru[set] == block
}

/// Executes a terminator, returning the successor instruction index.
/// `at` is the terminator's own index; `fall` the fallthrough index.
#[inline(always)]
fn exec_term(m: &mut Machine<'_>, term: &Term, at: usize, fall: usize) -> Result<usize, Trap> {
    Ok(match *term {
        Term::Fallthrough => fall,
        Term::Beq { rs, rt, taken } => {
            if r(m, rs) == r(m, rt) {
                taken as usize
            } else {
                fall
            }
        }
        Term::Bne { rs, rt, taken } => {
            if r(m, rs) != r(m, rt) {
                taken as usize
            } else {
                fall
            }
        }
        Term::Blez { rs, taken } => {
            if (r(m, rs) as i32) <= 0 {
                taken as usize
            } else {
                fall
            }
        }
        Term::Bgtz { rs, taken } => {
            if (r(m, rs) as i32) > 0 {
                taken as usize
            } else {
                fall
            }
        }
        Term::Bltz { rs, taken } => {
            if (r(m, rs) as i32) < 0 {
                taken as usize
            } else {
                fall
            }
        }
        Term::Bgez { rs, taken } => {
            if (r(m, rs) as i32) >= 0 {
                taken as usize
            } else {
                fall
            }
        }
        Term::J { target } => target as usize,
        Term::Jal { target, link } => {
            m.regs[Reg::Ra as usize] = link;
            target as usize
        }
        Term::Jr { rs } => m.resolve_jump(at, r(m, rs))?,
        Term::Jalr { rd, rs, link } => {
            // Read the target before the link write: rd may alias rs.
            let target = r(m, rs);
            w(m, rd, link);
            m.resolve_jump(at, target)?
        }
        Term::Syscall => {
            m.syscall(at)?;
            fall
        }
        Term::SltBeqz { rd, rs, rt, taken } => {
            w(m, rd, u32::from((r(m, rs) as i32) < (r(m, rt) as i32)));
            if r(m, rd) == 0 {
                taken as usize
            } else {
                fall
            }
        }
        Term::SltBnez { rd, rs, rt, taken } => {
            w(m, rd, u32::from((r(m, rs) as i32) < (r(m, rt) as i32)));
            if r(m, rd) != 0 {
                taken as usize
            } else {
                fall
            }
        }
        Term::SltiBeqz { rd, rs, imm, taken } => {
            w(m, rd, u32::from((r(m, rs) as i32) < imm));
            if r(m, rd) == 0 {
                taken as usize
            } else {
                fall
            }
        }
        Term::SltiBnez { rd, rs, imm, taken } => {
            w(m, rd, u32::from((r(m, rs) as i32) < imm));
            if r(m, rd) != 0 {
                taken as usize
            } else {
                fall
            }
        }
    })
}

/// The block-dispatch outer loop. Returns the run's block-cache stats;
/// the caller expands `exec_counts` and finalizes the result.
///
/// `max_steps` is exact: a block that would overshoot the limit is
/// split, executing only the instructions the budget still allows (so
/// traps inside the prefix still surface first) before reporting
/// [`Trap::StepLimit`] — byte-for-byte the reference engine's
/// behaviour.
pub(crate) fn run_blocks<const SLOW: bool>(
    m: &mut Machine<'_>,
    bc: &mut BlockCache,
    max_steps: u64,
) -> Result<(), Trap> {
    debug_assert!(m.finished.is_none(), "run after termination");
    debug_assert!(
        SLOW || m.cache.profile().is_none(),
        "cache profiling requires the slow path"
    );
    let cv = CacheView::new(&m.cache);
    let halt = m.halt_index;
    let mut pc = m.pc;
    let mut instructions = m.result.instructions;
    'dispatch: loop {
        let bid = bc.block_id(m.program, pc);
        let block = &bc.blocks[bid];
        let start = block.start as usize;
        let len = u64::from(block.len);
        // Only a syscall terminator can set `finished`, so hoist that
        // test out of the re-entry path.
        let is_syscall = matches!(block.term, Term::Syscall);
        // Repetitions of this block not yet flushed to `bc.retired`.
        let mut reps: u64 = 0;
        // Self-loop fast path: a block whose terminator re-enters its
        // own start (the shape of every hot inner loop once chaining
        // folds the back-edge in) re-executes without touching the id
        // map or the block table, with retirement batched in `reps`.
        loop {
            let remaining = max_steps.saturating_sub(instructions);
            if len > remaining {
                // Final partial block: remaining < len implies
                // remaining fits in the body (the terminator is the
                // +1). Trapping runs discard results, so the `reps`
                // flush is cosmetic.
                bc.retired[bid] += reps;
                return run_partial(m, start, remaining as usize, max_steps);
            }
            for op in &block.body {
                exec_op::<SLOW>(m, cv, op)?;
            }
            // The terminator instruction's own index is the final
            // segment's last (fusion and chaining mean body op count
            // and start + len no longer track it).
            let fall = block.fall as usize;
            let next = exec_term(m, &block.term, fall - 1, fall)?;
            instructions += len;
            reps += 1;
            if next != start {
                bc.retired[bid] += reps;
                if m.finished.is_some() {
                    break 'dispatch;
                }
                if next == halt {
                    // Fell off the entry function: $v0 is the exit
                    // code.
                    m.finished = Some(m.reg(Reg::V0) as i32);
                    break 'dispatch;
                }
                pc = next;
                break;
            }
            if is_syscall && m.finished.is_some() {
                bc.retired[bid] += reps;
                break 'dispatch;
            }
        }
    }
    m.result.instructions = instructions;
    Ok(())
}

/// Executes the prefix of the block at `start` that still fits under
/// the step limit, then reports [`Trap::StepLimit`]. Runs the
/// reference stepper over the original instructions — `take` is an
/// instruction count, which decoded (possibly fused) ops no longer
/// mirror one-to-one. Every result of a trapping run is discarded by
/// the caller, so only the trap itself must match the reference
/// engine, and [`Machine::step`] guarantees that by construction.
/// Out of line: at most one partial block per run.
#[cold]
fn run_partial(m: &mut Machine<'_>, start: usize, take: usize, max_steps: u64) -> Result<(), Trap> {
    m.pc = start;
    for _ in 0..take {
        m.step()?;
    }
    Err(Trap::StepLimit { limit: max_steps })
}

#[cfg(test)]
mod tests {
    use super::Op;

    /// The dispatch loop streams decoded ops from the block body; the
    /// widest variants are the fused pairs carrying three 32-bit
    /// fields, so an op fits in 20 bytes.
    #[test]
    fn op_stays_compact() {
        let size = std::mem::size_of::<Op>();
        assert!(size <= 20, "Op grew to {size} bytes");
    }
}
