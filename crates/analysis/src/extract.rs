//! Address-pattern extraction: turning each static load's address
//! operand into a set of [`Ap`] expressions by backward substitution
//! through reaching definitions.
//!
//! Intermediate registers are eliminated until the expression bottoms
//! out in basic registers, constants, dereferences of other patterns
//! (when a definition is itself a load), recurrence markers (when the
//! substitution revisits a definition already on the current expansion
//! path — a loop-carried address), or [`Ap::Unknown`].

use dl_mips::inst::Inst;
use dl_mips::program::Program;
use dl_mips::reg::Reg;

use crate::cfg::Cfg;
use crate::pattern::Ap;
use crate::reaching::{DefSite, ReachingDefs};

/// Bounds on pattern expansion, preventing exponential blowup on
/// join-heavy code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Maximum number of distinct patterns kept per load.
    pub max_patterns: usize,
    /// Maximum substitution depth.
    pub max_depth: usize,
    /// Patterns larger than this many nodes are abandoned as
    /// [`Ap::Unknown`].
    pub max_nodes: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            max_patterns: 8,
            max_depth: 16,
            max_nodes: 64,
        }
    }
}

/// The analysis result for one static load instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadInfo {
    /// Instruction index of the load.
    pub index: usize,
    /// The load's address patterns — one per distinct reaching
    /// address computation (bounded by
    /// [`AnalysisConfig::max_patterns`]).
    pub patterns: Vec<Ap>,
    /// `true` if expansion hit a configured bound and the pattern set
    /// is incomplete.
    pub truncated: bool,
}

impl LoadInfo {
    /// Maximum [`Ap::deref_nesting`] over all patterns.
    #[must_use]
    pub fn max_deref_nesting(&self) -> u32 {
        self.patterns
            .iter()
            .map(Ap::deref_nesting)
            .max()
            .unwrap_or(0)
    }

    /// `true` if any pattern contains a recurrence.
    #[must_use]
    pub fn any_recurrence(&self) -> bool {
        self.patterns.iter().any(Ap::has_recurrence)
    }

    /// `true` if any pattern contains a multiplication or shift.
    #[must_use]
    pub fn any_mul_or_shift(&self) -> bool {
        self.patterns.iter().any(Ap::has_mul_or_shift)
    }
}

/// The analysis result for a whole program: one [`LoadInfo`] per static
/// load, in program order.
#[derive(Debug, Clone, Default)]
pub struct ProgramAnalysis {
    /// Per-load analysis records.
    pub loads: Vec<LoadInfo>,
}

impl ProgramAnalysis {
    /// Looks up the record for the load at instruction `index`.
    #[must_use]
    pub fn load_at(&self, index: usize) -> Option<&LoadInfo> {
        self.loads
            .binary_search_by_key(&index, |l| l.index)
            .ok()
            .map(|i| &self.loads[i])
    }
}

struct Expander<'a> {
    program: &'a Program,
    rd: &'a ReachingDefs,
    cfg: &'a AnalysisConfig,
    path: Vec<usize>,
    truncated: bool,
}

impl Expander<'_> {
    fn cap(&mut self, mut v: Vec<Ap>) -> Vec<Ap> {
        v.sort_by_key(Ap::size);
        v.dedup();
        if v.len() > self.cfg.max_patterns {
            v.truncate(self.cfg.max_patterns);
            self.truncated = true;
        }
        v
    }

    /// All patterns for the value of `reg` just before instruction `at`.
    fn expand_reg(&mut self, reg: Reg, at: usize, depth: usize) -> Vec<Ap> {
        if reg == Reg::Zero {
            return vec![Ap::Const(0)];
        }
        // The paper's grammar treats `sp` and `gp` as terminal basic
        // registers: frame adjustments (`addiu $sp, $sp, -N`) are not
        // substituted through, so patterns are relative to the value
        // of the register *at the load*.
        if reg == Reg::Sp {
            return vec![Ap::Base(dl_mips::reg::BaseReg::Sp)];
        }
        if reg == Reg::Gp {
            return vec![Ap::Base(dl_mips::reg::BaseReg::Gp)];
        }
        if depth >= self.cfg.max_depth {
            self.truncated = true;
            return vec![Ap::Unknown];
        }
        let mut out = Vec::new();
        for site in self.rd.reaching(at, reg) {
            match site {
                DefSite::Entry(r) => out.push(match r.base_reg() {
                    Some(b) => Ap::Base(b),
                    None => Ap::Unknown,
                }),
                DefSite::CallRet(_) => out.push(Ap::Base(dl_mips::reg::BaseReg::Ret)),
                DefSite::CallClobber(_) => out.push(Ap::Unknown),
                DefSite::Inst(d) => {
                    if self.path.contains(&d) {
                        out.push(Ap::Rec);
                    } else {
                        self.path.push(d);
                        out.extend(self.expand_def(d, depth + 1));
                        self.path.pop();
                    }
                }
            }
        }
        if out.is_empty() {
            out.push(Ap::Unknown);
        }
        let out = self.cap(out);
        out.into_iter()
            .map(|p| {
                if p.size() > self.cfg.max_nodes {
                    self.truncated = true;
                    Ap::Unknown
                } else {
                    p
                }
            })
            .collect()
    }

    /// Patterns for the value produced by the defining instruction `d`.
    fn expand_def(&mut self, d: usize, depth: usize) -> Vec<Ap> {
        let inst = self.program.insts[d];
        let unary = |me: &mut Self, rs: Reg, f: &dyn Fn(Ap) -> Ap| -> Vec<Ap> {
            me.expand_reg(rs, d, depth).into_iter().map(f).collect()
        };
        let binary = |me: &mut Self, rs: Reg, rt: Reg, f: &dyn Fn(Ap, Ap) -> Ap| -> Vec<Ap> {
            let left = me.expand_reg(rs, d, depth);
            let right = me.expand_reg(rt, d, depth);
            let mut out = Vec::new();
            for l in &left {
                for r in &right {
                    out.push(f(l.clone(), r.clone()));
                    if out.len() >= me.cfg.max_patterns {
                        me.truncated = me.truncated || left.len() * right.len() > out.len();
                        return out;
                    }
                }
            }
            out
        };
        match inst {
            // A defining load contributes a dereference of its own
            // address pattern.
            _ if inst.as_load().is_some() => {
                let (_, base, off, _) = inst.as_load().expect("checked");
                unary(self, base, &|p| {
                    Ap::deref(Ap::add(p, Ap::Const(i64::from(off))))
                })
            }
            Inst::Lui { imm, .. } => vec![Ap::Const(i64::from(imm) << 16)],
            Inst::Addiu { rs, imm, .. } => {
                unary(self, rs, &|p| Ap::add(p, Ap::Const(i64::from(imm))))
            }
            Inst::Addu { rs, rt, .. } => binary(self, rs, rt, &Ap::add),
            Inst::Subu { rs, rt, .. } => binary(self, rs, rt, &Ap::sub),
            Inst::Mul { rs, rt, .. } => binary(self, rs, rt, &Ap::mul),
            Inst::Sll { rt, shamt, .. } => {
                unary(self, rt, &move |p| Ap::shl(p, Ap::Const(i64::from(shamt))))
            }
            Inst::Srl { rt, shamt, .. } | Inst::Sra { rt, shamt, .. } => {
                unary(self, rt, &move |p| Ap::shr(p, Ap::Const(i64::from(shamt))))
            }
            Inst::Sllv { rt, rs, .. } => binary(self, rt, rs, &Ap::shl),
            Inst::Srlv { rt, rs, .. } | Inst::Srav { rt, rs, .. } => binary(self, rt, rs, &Ap::shr),
            // Bitwise ops with immediates: constants fold (lui/ori
            // constant synthesis); otherwise the mask is *transparent*
            // — `x & 1023` keeps `x`'s structure. The paper's grammar
            // has no bitwise operators; collapsing masked indices to
            // Unknown would hide the dereference/recurrence structure
            // criteria H1-H4 need, so transparency is the faithful
            // reading (DESIGN.md notes this deviation).
            Inst::Ori { rs, imm, .. } => unary(self, rs, &move |p| match p.as_const() {
                Some(c) => Ap::Const(c | i64::from(imm)),
                None => p,
            }),
            Inst::Andi { rs, imm, .. } => unary(self, rs, &move |p| match p.as_const() {
                Some(c) => Ap::Const(c & i64::from(imm)),
                None => p,
            }),
            Inst::Xori { rs, imm, .. } => unary(self, rs, &move |p| match p.as_const() {
                Some(c) => Ap::Const(c ^ i64::from(imm)),
                None => p,
            }),
            Inst::Or { rs, rt, .. } => binary(self, rs, rt, &|a, b| Ap::bitop(a, b, |x, y| x | y)),
            Inst::And { rs, rt, .. } => binary(self, rs, rt, &|a, b| Ap::bitop(a, b, |x, y| x & y)),
            Inst::Xor { rs, rt, .. } => binary(self, rs, rt, &|a, b| Ap::bitop(a, b, |x, y| x ^ y)),
            // Division, comparisons, nor: not expressible in the grammar.
            _ => vec![Ap::Unknown],
        }
    }
}

/// Computes address patterns for every static load of one function,
/// given its already-built reaching definitions. Records come out in
/// instruction order. This is the per-function unit the pass manager
/// ([`crate::ctx::AnalysisCtx`]) caches; [`analyze_program`] is the
/// standalone composition over all functions.
#[must_use]
pub fn analyze_function(
    program: &Program,
    func: &dl_mips::program::FuncSym,
    rd: &ReachingDefs,
    config: &AnalysisConfig,
) -> Vec<LoadInfo> {
    let mut loads = Vec::new();
    for idx in func.start..func.end {
        let Some((_, base, off, _)) = program.insts[idx].as_load() else {
            continue;
        };
        let mut ex = Expander {
            program,
            rd,
            cfg: config,
            path: Vec::new(),
            truncated: false,
        };
        let base_patterns = ex.expand_reg(base, idx, 0);
        let mut patterns: Vec<Ap> = base_patterns
            .into_iter()
            .map(|p| Ap::add(p, Ap::Const(i64::from(off))))
            .collect();
        patterns.sort_by_key(Ap::size);
        patterns.dedup();
        loads.push(LoadInfo {
            index: idx,
            patterns,
            truncated: ex.truncated,
        });
    }
    loads
}

/// Computes address patterns for every static load in `program`.
///
/// # Example
///
/// See the [crate-level example](crate).
#[must_use]
pub fn analyze_program(program: &Program, config: &AnalysisConfig) -> ProgramAnalysis {
    let mut loads = Vec::new();
    for func in program.symbols.funcs() {
        if func.start >= func.end {
            continue;
        }
        let cfg = Cfg::build(program, func);
        let rd = ReachingDefs::build(program, func, &cfg);
        loads.extend(analyze_function(program, func, &rd, config));
    }
    loads.sort_by_key(|l| l.index);
    ProgramAnalysis { loads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_mips::parse::parse_asm;
    use dl_mips::reg::BaseReg;

    fn analyze(src: &str) -> ProgramAnalysis {
        analyze_program(&parse_asm(src).unwrap(), &AnalysisConfig::default())
    }

    #[test]
    fn local_scalar_is_sp_plus_offset() {
        let a = analyze("main:\n\tlw $t0, 16($sp)\n\tjr $ra\n");
        assert_eq!(
            a.loads[0].patterns,
            vec![Ap::add(Ap::Base(BaseReg::Sp), Ap::Const(16))]
        );
        assert_eq!(a.loads[0].max_deref_nesting(), 0);
    }

    #[test]
    fn global_is_gp_relative() {
        let a = analyze("main:\n\tlw $t0, -4($gp)\n\tjr $ra\n");
        assert_eq!(a.loads[0].patterns[0].to_string(), "gp+-4");
        assert_eq!(a.loads[0].patterns[0].count_base(BaseReg::Gp), 1);
    }

    #[test]
    fn pointer_dereference_chain() {
        // p loaded from stack, then *p, then p->next->next shape.
        let a = analyze(
            "main:\n\
             \tlw $t0, 16($sp)\n\
             \tlw $t1, 8($t0)\n\
             \tlw $t2, 8($t1)\n\
             \tjr $ra\n",
        );
        assert_eq!(a.loads[1].patterns[0].to_string(), "(sp+16)+8");
        assert_eq!(a.loads[1].max_deref_nesting(), 1);
        assert_eq!(a.loads[2].patterns[0].to_string(), "((sp+16)+8)+8");
        assert_eq!(a.loads[2].max_deref_nesting(), 2);
    }

    #[test]
    fn array_indexing_unoptimized_shape() {
        // A and i on the stack: addr = (sp+4) + ((sp+8) << 2).
        let a = analyze(
            "main:\n\
             \tlw $t0, 4($sp)\n\
             \tlw $t1, 8($sp)\n\
             \tsll $t2, $t1, 2\n\
             \taddu $t3, $t0, $t2\n\
             \tlw $t4, 0($t3)\n\
             \tjr $ra\n",
        );
        let p = &a.loads[2].patterns[0];
        assert_eq!(p.to_string(), "(sp+4)+[(sp+8)<<2]");
        assert!(p.has_mul_or_shift());
        assert_eq!(p.count_base(BaseReg::Sp), 2);
        assert_eq!(p.deref_nesting(), 1);
    }

    #[test]
    fn recurrence_detected_in_loop() {
        // Classic strided loop: t0 += 4 each iteration, loaded from.
        let a = analyze(
            "main:\n\
             \tmove $t0, $a0\n\
             .Lloop:\n\
             \tlw $t1, 0($t0)\n\
             \taddiu $t0, $t0, 4\n\
             \tbne $t1, $zero, .Lloop\n\
             \tjr $ra\n",
        );
        let load = &a.loads[0];
        assert!(load.any_recurrence());
        // Patterns include both the initial (param) and the recurrent one.
        let recurrent = load
            .patterns
            .iter()
            .find(|p| p.has_recurrence())
            .expect("has recurrent pattern");
        assert_eq!(recurrent.stride(), Some(4));
        assert!(load
            .patterns
            .iter()
            .any(|p| p.count_base(BaseReg::Param) == 1));
    }

    #[test]
    fn pointer_chase_recurrence_has_no_stride() {
        // t0 = *(t0) walk.
        let a = analyze(
            "main:\n\
             \tmove $t0, $a0\n\
             .Lloop:\n\
             \tlw $t0, 0($t0)\n\
             \tbne $t0, $zero, .Lloop\n\
             \tjr $ra\n",
        );
        let load = &a.loads[0];
        assert!(load.any_recurrence());
        let rec = load.patterns.iter().find(|p| p.has_recurrence()).unwrap();
        assert_eq!(rec.stride(), None);
        assert!(rec.deref_nesting() >= 1 || *rec == Ap::Rec);
    }

    #[test]
    fn multiple_control_paths_give_multiple_patterns() {
        let a = analyze(
            "main:\n\
             \tbeq $a0, $zero, .Lelse\n\
             \taddiu $t0, $sp, 8\n\
             \tj .Ljoin\n\
             .Lelse:\n\
             \taddiu $t0, $gp, 12\n\
             .Ljoin:\n\
             \tlw $t1, 0($t0)\n\
             \tjr $ra\n",
        );
        let pats: Vec<String> = a.loads[0].patterns.iter().map(Ap::to_string).collect();
        assert_eq!(pats.len(), 2);
        assert!(pats.contains(&"sp+8".to_owned()));
        assert!(pats.contains(&"gp+12".to_owned()));
    }

    #[test]
    fn malloc_result_is_ret_base() {
        let a = analyze(
            "main:\n\
             \tli $a0, 64\n\
             \tli $v0, 9\n\
             \tsyscall\n\
             \tlw $t0, 8($v0)\n\
             \tjr $ra\n",
        );
        assert_eq!(a.loads[0].patterns[0].to_string(), "ret+8");
    }

    #[test]
    fn call_clobbered_base_is_unknown() {
        let a = analyze(
            "main:\n\
             \taddiu $t0, $sp, 8\n\
             \tjal main\n\
             \tlw $t1, 0($t0)\n\
             \tjr $ra\n",
        );
        assert_eq!(a.loads[0].patterns, vec![Ap::Unknown]);
    }

    #[test]
    fn lui_ori_constant_synthesis_folds() {
        let a = analyze(
            "main:\n\
             \tlui $t0, 0x1000\n\
             \tori $t0, $t0, 0x34\n\
             \tlw $t1, 0($t0)\n\
             \tjr $ra\n",
        );
        assert_eq!(a.loads[0].patterns[0], Ap::Const(0x1000_0034));
    }

    #[test]
    fn load_at_lookup() {
        let a = analyze("main:\n\tnop\n\tlw $t0, 0($sp)\n\tjr $ra\n");
        assert!(a.load_at(1).is_some());
        assert!(a.load_at(0).is_none());
    }

    #[test]
    fn depth_cap_truncates() {
        // A chain of 20 dependent loads exceeds max_depth=16.
        let mut src = String::from("main:\n\tlw $t0, 0($sp)\n");
        for _ in 0..20 {
            src.push_str("\tlw $t0, 0($t0)\n");
        }
        src.push_str("\tjr $ra\n");
        let a = analyze_program(
            &parse_asm(&src).unwrap(),
            &AnalysisConfig {
                max_depth: 6,
                ..AnalysisConfig::default()
            },
        );
        let last = a.loads.last().unwrap();
        assert!(last.truncated);
    }
}
