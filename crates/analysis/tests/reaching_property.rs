//! Differential property tests for reaching definitions: on
//! straight-line code the dataflow solution must agree with a naive
//! last-writer scan, and on random multi-block functions (forward and
//! backward branches, jumps, calls, syscalls, returns) with a naive
//! per-instruction fixpoint, for every register at every instruction.

use std::collections::BTreeMap;

use dl_analysis::reaching::{DefSite, ReachingDefs};
use dl_analysis::Cfg;
use dl_mips::inst::{Inst, Label};
use dl_mips::program::{Program, SymbolTable};
use dl_mips::reg::Reg;
use dl_testkit::{cases, Rng};

fn arb_reg(rng: &mut Rng) -> Reg {
    Reg::from_number(rng.range_i32(0, 32) as u8).expect("in range")
}

fn arb_i16(rng: &mut Rng) -> i16 {
    rng.range_i32(i32::from(i16::MIN), i32::from(i16::MAX) + 1) as i16
}

/// Straight-line instructions with simple def/use structure.
fn arb_inst(rng: &mut Rng) -> Inst {
    match rng.index(6) {
        0 => Inst::Addiu {
            rt: arb_reg(rng),
            rs: arb_reg(rng),
            imm: arb_i16(rng),
        },
        1 => Inst::Addu {
            rd: arb_reg(rng),
            rs: arb_reg(rng),
            rt: arb_reg(rng),
        },
        2 => Inst::Lw {
            rt: arb_reg(rng),
            base: arb_reg(rng),
            off: arb_i16(rng),
        },
        3 => Inst::Sw {
            rt: arb_reg(rng),
            base: arb_reg(rng),
            off: arb_i16(rng),
        },
        4 => Inst::Lui {
            rt: arb_reg(rng),
            imm: rng.range_u32(0, 0x1_0000) as u16,
        },
        _ => Inst::Nop,
    }
}

fn straight_line_program(insts: Vec<Inst>) -> Program {
    let mut all = insts;
    all.push(Inst::Jr { rs: Reg::Ra });
    let n = all.len();
    let mut symbols = SymbolTable::new();
    symbols.add_func("main", 0, n);
    Program {
        insts: all,
        symbols,
        data: Vec::new(),
        entry: 0,
    }
}

/// Naive reference: the definition of `reg` reaching instruction `at`
/// in straight-line code is the closest preceding def.
fn naive_reaching(program: &Program, at: usize, reg: Reg) -> DefSite {
    for idx in (0..at).rev() {
        if program.insts[idx].def() == Some(reg) {
            return DefSite::Inst(idx);
        }
    }
    DefSite::Entry(reg)
}

#[test]
fn straight_line_matches_last_writer() {
    cases(256, 0x4ea1, |rng| {
        let insts = rng.vec_of(0, 40, arb_inst);
        let program = straight_line_program(insts);
        let func = program.symbols.func("main").expect("exists").clone();
        let cfg = Cfg::build(&program, &func);
        let rd = ReachingDefs::build(&program, &func, &cfg);
        for at in 0..program.insts.len() {
            for reg in [Reg::T0, Reg::T1, Reg::S0, Reg::Sp, Reg::A0] {
                if reg == Reg::Zero {
                    continue;
                }
                let got = rd.reaching(at, reg);
                assert_eq!(
                    got.len(),
                    1,
                    "straight-line code has exactly one reaching def (at {at}, {reg:?})"
                );
                assert_eq!(got[0], naive_reaching(&program, at, reg));
            }
        }
    });
}

/// In a diamond, a register defined in both arms has exactly those
/// two defs reaching the join; one defined in neither has its entry
/// def.
#[test]
fn diamond_merges_exactly_the_arm_defs() {
    cases(64, 0x4ea2, |rng| {
        use dl_mips::parse::parse_asm;
        let a = arb_i16(rng);
        let b = arb_i16(rng);
        let src = format!(
            "main:\n\
             \tbeq $a0, $zero, .Le\n\
             \taddiu $t0, $zero, {a}\n\
             \tj .Lj\n\
             .Le:\n\
             \taddiu $t0, $zero, {b}\n\
             .Lj:\n\
             \tjr $ra\n"
        );
        let program = parse_asm(&src).expect("parses");
        let func = program.symbols.func("main").expect("exists").clone();
        let cfg = Cfg::build(&program, &func);
        let rd = ReachingDefs::build(&program, &func, &cfg);
        let join = program.insts.len() - 1;
        let mut defs = rd.reaching(join, Reg::T0);
        defs.sort_by_key(|d| match d {
            DefSite::Inst(i) => *i,
            _ => usize::MAX,
        });
        assert_eq!(defs, vec![DefSite::Inst(1), DefSite::Inst(3)]);
        assert_eq!(rd.reaching(join, Reg::S3), vec![DefSite::Entry(Reg::S3)]);
    });
}

/// Registers a call clobbers besides the return values `$v0`/`$v1`:
/// the caller-saved set.
const CALLER_SAVED: [Reg; 16] = [
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

/// A register, drawn mostly from a small pool so that definitions
/// collide and merge.
fn pooled_reg(rng: &mut Rng) -> Reg {
    const POOL: [Reg; 8] = [
        Reg::T0,
        Reg::T1,
        Reg::V0,
        Reg::A0,
        Reg::S0,
        Reg::Sp,
        Reg::Ra,
        Reg::Zero,
    ];
    if rng.chance(0.75) {
        *rng.pick(&POOL)
    } else {
        arb_reg(rng)
    }
}

/// One instruction of a function spanning `lo..hi` of a program whose
/// other function starts at 0: branch and jump targets fall anywhere
/// in the function, now and then outside it.
fn arb_cf_inst(rng: &mut Rng, lo: usize, hi: usize) -> Inst {
    let target = |rng: &mut Rng| {
        let t = if rng.chance(0.1) {
            rng.index(lo)
        } else {
            lo + rng.index(hi - lo)
        };
        Label(t as u32)
    };
    match rng.index(20) {
        0..=10 => match arb_inst(rng) {
            Inst::Addiu { rs, imm, .. } => Inst::Addiu {
                rt: pooled_reg(rng),
                rs,
                imm,
            },
            Inst::Lw { base, off, .. } => Inst::Lw {
                rt: pooled_reg(rng),
                base,
                off,
            },
            other => other,
        },
        11 => Inst::Beq {
            rs: arb_reg(rng),
            rt: arb_reg(rng),
            target: target(rng),
        },
        12 => Inst::Bne {
            rs: arb_reg(rng),
            rt: arb_reg(rng),
            target: target(rng),
        },
        13 => {
            let (rs, target) = (arb_reg(rng), target(rng));
            match rng.index(4) {
                0 => Inst::Blez { rs, target },
                1 => Inst::Bgtz { rs, target },
                2 => Inst::Bltz { rs, target },
                _ => Inst::Bgez { rs, target },
            }
        }
        14 => Inst::J {
            target: target(rng),
        },
        15 => Inst::Jal { target: Label(0) },
        16 => Inst::Jalr {
            rd: Reg::Ra,
            rs: arb_reg(rng),
        },
        17 | 18 => Inst::Syscall,
        _ => Inst::Jr { rs: Reg::Ra },
    }
}

/// The definitions instruction `idx` makes: a call defines the return
/// values and clobbers the caller-saved set, a syscall defines `$v0`.
fn defs_at(inst: &Inst, idx: usize) -> Vec<(Reg, DefSite)> {
    match inst {
        Inst::Jal { .. } | Inst::Jalr { .. } => {
            let mut defs = vec![
                (Reg::V0, DefSite::CallRet(idx)),
                (Reg::V1, DefSite::CallRet(idx)),
            ];
            defs.extend(CALLER_SAVED.map(|r| (r, DefSite::CallClobber(idx))));
            defs
        }
        Inst::Syscall => vec![(Reg::V0, DefSite::CallRet(idx))],
        _ => inst
            .def()
            .map(|r| (r, DefSite::Inst(idx)))
            .into_iter()
            .collect(),
    }
}

/// The instructions of `lo..hi` control reaches after instruction
/// `idx`: calls fall through, `jr` leaves the function, and targets
/// outside the function are not followed.
fn successors(inst: &Inst, idx: usize, lo: usize, hi: usize) -> Vec<usize> {
    let next = (idx + 1 < hi).then_some(idx + 1);
    let target = inst
        .target()
        .map(Label::index)
        .filter(|t| (lo..hi).contains(t));
    match inst {
        Inst::Jr { .. } => Vec::new(),
        Inst::J { .. } => target.into_iter().collect(),
        i if i.is_branch() => target.into_iter().chain(next).collect(),
        _ => next.into_iter().collect(),
    }
}

/// Reaching definitions keyed by (register, position): position 0 is
/// the entry definition, `idx + 1` one made at instruction `idx`.
type Defs = BTreeMap<(Reg, usize), DefSite>;

/// Naive reference: the reach-in set of every instruction of
/// `lo..hi`, iterated to a fixpoint one instruction at a time.
fn naive_reach_in(program: &Program, lo: usize, hi: usize) -> Vec<Defs> {
    let mut reach_in = vec![Defs::new(); hi - lo];
    for reg in Reg::ALL {
        reach_in[0].insert((reg, 0), DefSite::Entry(reg));
    }
    let mut changed = true;
    while changed {
        changed = false;
        for idx in lo..hi {
            let inst = &program.insts[idx];
            let mut out = reach_in[idx - lo].clone();
            for (reg, site) in defs_at(inst, idx) {
                out.retain(|&(r, _), _| r != reg);
                out.insert((reg, idx + 1), site);
            }
            for s in successors(inst, idx, lo, hi) {
                for (&key, &site) in &out {
                    changed |= reach_in[s - lo].insert(key, site).is_none();
                }
            }
        }
    }
    reach_in
}

/// On random multi-block functions, `reaching` gives exactly the
/// naive per-instruction fixpoint's sites for every instruction and
/// all 32 registers, in order: the entry definition first, then the
/// others in instruction order.
#[test]
fn control_flow_matches_per_instruction_fixpoint() {
    cases(256, 0x4ea3, |rng| {
        // A two-instruction function at 0 is the call target and an
        // out-of-function branch target; the tested one follows it.
        let lo = 2;
        let hi = lo + 1 + rng.index(48);
        let mut insts = vec![
            Inst::Addiu {
                rt: Reg::V0,
                rs: Reg::Zero,
                imm: 1,
            },
            Inst::Jr { rs: Reg::Ra },
        ];
        for _ in lo..hi {
            insts.push(arb_cf_inst(rng, lo, hi));
        }
        let mut symbols = SymbolTable::new();
        symbols.add_func("callee", 0, lo);
        symbols.add_func("main", lo, hi);
        let program = Program {
            insts,
            symbols,
            data: Vec::new(),
            entry: lo,
        };
        let func = program.symbols.func("main").expect("exists").clone();
        let cfg = Cfg::build(&program, &func);
        let rd = ReachingDefs::build(&program, &func, &cfg);
        let naive = naive_reach_in(&program, lo, hi);
        for at in lo..hi {
            for reg in Reg::ALL {
                let want: Vec<DefSite> = naive[at - lo]
                    .range((reg, 0)..=(reg, usize::MAX))
                    .map(|(_, &site)| site)
                    .collect();
                assert_eq!(
                    rd.reaching(at, reg),
                    want,
                    "at {at}, {reg:?}, in {:?}",
                    &program.insts[lo..hi]
                );
            }
        }
    });
}
