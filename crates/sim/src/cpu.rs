//! The functional CPU interpreter.
//!
//! Executes a [`Program`] instruction-by-instruction, feeding every
//! data access to one memory model per configuration (see
//! [`crate::trace`]) and recording per-PC statistics into a
//! [`RunResult`].

use std::collections::VecDeque;
use std::fmt;

use dl_mips::inst::Inst;
use dl_mips::layout::{self, GP_VALUE, STACK_TOP};
use dl_mips::program::Program;
use dl_mips::reg::Reg;
use dl_testkit::Rng;

use crate::block::{self, BlockCache, BlockStats, Engine};
use crate::cache::CacheConfig;
use crate::mem::{MemFault, Memory};
use crate::memory::MemoryConfig;
use crate::observe::{MissObservatory, ObserveConfig};
use crate::reuse::ReuseMeasurement;
use crate::stats::RunResult;
use crate::trace::{MemoryModel, MruFilter, TraceRecord};

/// Syscall numbers recognized by the simulator (selected via `$v0`).
pub mod syscalls {
    /// Print `$a0` as a signed integer (captured in `RunResult::output`).
    pub const PRINT_INT: u32 = 1;
    /// Read the next input integer into `$v0` (0 when exhausted).
    pub const READ_INT: u32 = 5;
    /// Allocate `$a0` bytes on the heap; block address in `$v0`.
    pub const MALLOC: u32 = 9;
    /// Terminate with exit code `$a0`.
    pub const EXIT: u32 = 10;
    /// Pseudo-random value in `[0, $a0)` (or full range if `$a0 <= 0`)
    /// into `$v0`. Deterministic per seed.
    pub const RAND: u32 = 42;
}

/// A runtime fault that aborts simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// A memory access faulted at the given instruction index.
    Mem {
        /// Instruction index of the faulting access.
        at: usize,
        /// The underlying memory fault.
        fault: MemFault,
    },
    /// Division by zero.
    DivByZero {
        /// Instruction index of the division.
        at: usize,
    },
    /// An indirect jump left the text segment (and is not the halt
    /// sentinel).
    BadJump {
        /// Instruction index of the jump.
        at: usize,
        /// The bad target program counter.
        target: u32,
    },
    /// Unknown syscall number.
    BadSyscall {
        /// Instruction index of the syscall.
        at: usize,
        /// The unrecognized `$v0` value.
        number: u32,
    },
    /// The configured step limit was exceeded.
    StepLimit {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Mem { at, fault } => write!(f, "memory fault at inst {at}: {fault}"),
            Trap::DivByZero { at } => write!(f, "division by zero at inst {at}"),
            Trap::BadJump { at, target } => {
                write!(f, "bad jump target {target:#010x} at inst {at}")
            }
            Trap::BadSyscall { at, number } => write!(f, "unknown syscall {number} at inst {at}"),
            Trap::StepLimit { limit } => write!(f, "step limit of {limit} instructions exceeded"),
        }
    }
}

impl std::error::Error for Trap {}

/// Configuration for one simulated run.
///
/// The fields split in two. `input`, `seed`, `max_steps` and `engine`
/// shape the *execution*; everything else shapes one *memory model*
/// of it, so [`run_many`] can model any number of configurations that
/// agree on the first four from one execution.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// L1 data-cache geometry.
    pub cache: CacheConfig,
    /// Memory-system shape beyond the L1 geometry: replacement
    /// policy, optional L2, optional prefetcher (see
    /// [`crate::memory`]). The default is the plain L1 LRU the paper
    /// evaluates.
    pub memory: MemoryConfig,
    /// Abort with [`Trap::StepLimit`] after this many instructions.
    pub max_steps: u64,
    /// Integers served to the `read_int` syscall, in order.
    pub input: Vec<i32>,
    /// Seed for the `rand` syscall (and the random replacement
    /// policy's victim stream).
    pub seed: u64,
    /// Instruction indices of the loads that trigger the configured
    /// prefetcher — the paper's motivating consumer instruments only
    /// the loads it flags. `None` lets every demand load trigger.
    pub prefetch_sites: Option<Vec<usize>>,
    /// Classify misses (compulsory/capacity/conflict) and collect
    /// per-set histograms into [`RunResult::cache_profile`] and
    /// per-site attribution into [`RunResult::load_miss_classes`].
    /// Costs a shadow LRU stack update per access (a paged index
    /// lookup and a few linked-list steps, see [`crate::reuse`]); off
    /// by default.
    pub classify_misses: bool,
    /// Collect epoch-windowed per-load-site miss counts into
    /// [`SimOutput::observatory`] (see [`crate::observe`]). The model
    /// then replays the full access stream, not the stripped one; off
    /// by default.
    pub observe: Option<ObserveConfig>,
    /// Measure per-load-site reuse-distance histograms over a shadow
    /// LRU stack into [`SimOutput::reuse`] (see [`crate::reuse`]) —
    /// the ground truth for the static reuse profiles. The stack is a
    /// second instance of the classifier's, fed demand accesses only.
    /// The model then replays the full access stream, not the stripped
    /// one; off by default.
    pub reuse_profile: bool,
    /// Which interpreter core executes the run. Both produce identical
    /// results; see [`Engine`]. Defaults to [`Engine::Block`].
    pub engine: Engine,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cache: CacheConfig::default(),
            memory: MemoryConfig::default(),
            max_steps: 500_000_000,
            input: Vec::new(),
            seed: 0x5eed_1234_abcd_ef01,
            prefetch_sites: None,
            classify_misses: false,
            observe: None,
            reuse_profile: false,
            engine: Engine::default(),
        }
    }
}

/// Everything a finished run produced for one configuration: the
/// measurement record, block-cache stats (`None` under
/// [`Engine::Step`]) and the optional observers.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The full measurement record.
    pub result: RunResult,
    /// Block-cache behaviour counters of the execution
    /// ([`Engine::Block`] only); shared by every output of one
    /// [`run_many`] call.
    pub block_stats: Option<BlockStats>,
    /// Epoch-windowed per-load-site miss counts (only when
    /// [`RunConfig::observe`] was set).
    pub observatory: Option<MissObservatory>,
    /// Measured reuse-distance histograms (only when
    /// [`RunConfig::reuse_profile`] was set).
    pub reuse: Option<ReuseMeasurement>,
    /// Wall seconds spent replaying the recorded access stream (the
    /// stripped one for a plain model) into this configuration's
    /// memory model. A timing, not a measurement of the program.
    pub replay_secs: f64,
}

/// The simulator state behind [`run`] and its siblings: one
/// execution, and one memory model per configuration fed its access
/// stream.
#[derive(Debug)]
pub(crate) struct Machine<'p> {
    pub(crate) program: &'p Program,
    pub(crate) regs: [u32; 32],
    pub(crate) pc: usize,
    pub(crate) halt_index: usize,
    pub(crate) mem: Memory,
    rng: Rng,
    input: VecDeque<i32>,
    /// The execution record: instruction and access counts, exec
    /// counts, output and exit code. The miss-side fields stay empty;
    /// each memory model keeps its own.
    pub(crate) result: RunResult,
    pub(crate) finished: Option<i32>,
    // Which interpreter core run_* methods use.
    engine: Engine,
    /// One memory model per configuration, fed the same stream.
    models: Vec<MemoryModel>,
    /// Drops the accesses no model needs, when every model replays the
    /// stripped stream; otherwise keeps every access. What it keeps
    /// between two replays, at most [`CHUNK`](crate::trace::CHUNK)
    /// records, is the stream every model replays but those `plain`
    /// strips.
    filter: MruFilter,
    /// Strips the stream for the plain models when `filter` keeps
    /// every access because some other model, or a kept trace, needs
    /// it.
    plain: Option<MruFilter>,
    /// Every recorded access, when [`crate::trace::capture_trace`]
    /// keeps the stream.
    trace: Option<Vec<TraceRecord>>,
}

impl<'p> Machine<'p> {
    /// Prepares a machine at the program's entry point.
    pub(crate) fn new(program: &'p Program, config: &RunConfig) -> Self {
        Machine::with_models(program, std::slice::from_ref(config), false)
    }

    /// A machine executing under `configs[0]`'s execution settings and
    /// modeling every config's memory system; with `keep_trace`, it
    /// also keeps every recorded access for [`Machine::run_recorded`].
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or its configs describe different
    /// executions.
    pub(crate) fn with_models(
        program: &'p Program,
        configs: &[RunConfig],
        keep_trace: bool,
    ) -> Self {
        let first = configs.first().expect("at least one config");
        assert!(
            configs.iter().all(|c| c.input == first.input
                && c.seed == first.seed
                && c.max_steps == first.max_steps
                && c.engine == first.engine),
            "configs of one execution must share input, seed, step limit and engine"
        );
        let insts = program.insts.len();
        let mut regs = [0u32; 32];
        regs[Reg::Sp as usize] = STACK_TOP;
        regs[Reg::Fp as usize] = STACK_TOP;
        regs[Reg::Gp as usize] = GP_VALUE;
        // Returning from the entry function jumps to the halt sentinel.
        let halt_index = insts;
        regs[Reg::Ra as usize] = layout::pc_of_index(halt_index);
        let models: Vec<MemoryModel> = configs.iter().map(|c| MemoryModel::new(c, insts)).collect();
        let (filter, plain) = match MruFilter::for_models(&models) {
            Some(filter) if !keep_trace && models.iter().all(|model| filter.strips(model)) => {
                (filter, None)
            }
            plain => (MruFilter::keeping_all(), plain),
        };
        Machine {
            program,
            regs,
            pc: program.entry,
            halt_index,
            mem: Memory::new(&program.data),
            rng: Rng::new(first.seed),
            input: first.input.iter().copied().collect(),
            result: RunResult {
                exec_counts: vec![0; insts],
                ..RunResult::default()
            },
            finished: None,
            engine: first.engine,
            models,
            filter,
            plain,
            trace: keep_trace.then(Vec::new),
        }
    }

    /// Reads a register.
    #[must_use]
    pub(crate) fn reg(&self, r: Reg) -> u32 {
        self.regs[r as usize]
    }

    /// Writes a register (writes to `$zero` are ignored).
    pub(crate) fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::Zero {
            self.regs[r as usize] = v;
        }
    }

    /// The `rand` syscall's raw draw: the top 31 bits of the seeded
    /// xorshift64* stream.
    fn next_rand(&mut self) -> u32 {
        (self.rng.next_u64() >> 33) as u32
    }

    /// Records one data access — the one way both engines feed the
    /// memory models: the filter drops it when no model needs it, and
    /// otherwise keeps it for the models to replay once a chunk's worth
    /// has built up.
    #[inline(always)]
    pub(crate) fn record(&mut self, at: usize, addr: u32, store: bool) {
        if self.filter.drops(addr) {
            return;
        }
        let rec = TraceRecord {
            at: at as u32,
            addr,
            store,
        };
        let full = self.filter.keep(rec);
        if let Some(plain) = &mut self.plain {
            // A subset of what `filter` keeps, so it fills no sooner.
            if !plain.drops(addr) {
                plain.keep(rec);
            }
        }
        if full {
            self.replay_chunk();
        }
    }

    /// Replays what was kept since the last replay into every model
    /// (and the kept trace), then empties it: the plain models replay
    /// what `plain` kept when there is one, the others what `filter`
    /// kept. Out of line: at most once per
    /// [`CHUNK`](crate::trace::CHUNK) records.
    #[cold]
    #[inline(never)]
    fn replay_chunk(&mut self) {
        for model in &mut self.models {
            match &self.plain {
                Some(plain) if plain.strips(model) => model.replay(plain.kept()),
                _ => model.replay(self.filter.kept()),
            }
        }
        if let Some(trace) = &mut self.trace {
            trace.extend_from_slice(self.filter.kept());
        }
        self.filter.clear();
        if let Some(plain) = &mut self.plain {
            plain.clear();
        }
    }

    /// The step engine's load access: counted here, modeled from the
    /// recorded stream.
    fn load(&mut self, at: usize, addr: u32) {
        self.result.loads += 1;
        self.record(at, addr, false);
    }

    /// The step engine's store access; see [`Machine::load`].
    fn store(&mut self, at: usize, addr: u32) {
        self.result.stores += 1;
        self.record(at, addr, true);
    }

    /// Resolves an indirect jump target PC to an instruction index.
    /// The halt sentinel (one past the last instruction) is a valid
    /// target: returning there terminates the program.
    pub(crate) fn resolve_jump(&self, at: usize, target: u32) -> Result<usize, Trap> {
        match layout::index_of_pc(target) {
            Some(idx) if idx <= self.halt_index => Ok(idx),
            _ => Err(Trap::BadJump { at, target }),
        }
    }

    /// Executes the syscall selected by `$v0`. `EXIT` marks the
    /// machine finished; callers must check `finished`.
    pub(crate) fn syscall(&mut self, at: usize) -> Result<(), Trap> {
        let number = self.regs[Reg::V0 as usize];
        let a0 = self.regs[Reg::A0 as usize];
        match number {
            syscalls::PRINT_INT => self.result.output.push(a0 as i32),
            syscalls::READ_INT => {
                let v = self.input.pop_front().unwrap_or(0);
                self.set_reg(Reg::V0, v as u32);
            }
            syscalls::MALLOC => {
                let addr = self
                    .mem
                    .malloc(a0)
                    .map_err(|fault| Trap::Mem { at, fault })?;
                self.set_reg(Reg::V0, addr);
            }
            syscalls::EXIT => self.finished = Some(a0 as i32),
            syscalls::RAND => {
                let raw = self.next_rand();
                let bound = a0 as i32;
                let v = if bound > 0 {
                    raw % bound as u32
                } else {
                    raw & 0x7fff_ffff
                };
                self.set_reg(Reg::V0, v);
            }
            _ => return Err(Trap::BadSyscall { at, number }),
        }
        Ok(())
    }

    /// Executes a single instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on a runtime fault.
    ///
    /// # Panics
    ///
    /// Panics if called after the program has terminated.
    pub(crate) fn step(&mut self) -> Result<(), Trap> {
        assert!(self.finished.is_none(), "step() after termination");
        let at = self.pc;
        let inst = self.program.insts[at];
        self.result.exec_counts[at] += 1;
        self.result.instructions += 1;
        let mut next = at + 1;
        let r = |m: &Self, reg: Reg| m.regs[reg as usize];
        match inst {
            Inst::Lw { rt, base, off } => {
                let addr = r(self, base).wrapping_add(off as i32 as u32);
                self.load(at, addr);
                let v = self
                    .mem
                    .read_u32(addr)
                    .map_err(|fault| Trap::Mem { at, fault })?;
                self.set_reg(rt, v);
            }
            Inst::Lb { rt, base, off } => {
                let addr = r(self, base).wrapping_add(off as i32 as u32);
                self.load(at, addr);
                let v = self
                    .mem
                    .read_u8(addr)
                    .map_err(|fault| Trap::Mem { at, fault })?;
                self.set_reg(rt, v as i8 as i32 as u32);
            }
            Inst::Lbu { rt, base, off } => {
                let addr = r(self, base).wrapping_add(off as i32 as u32);
                self.load(at, addr);
                let v = self
                    .mem
                    .read_u8(addr)
                    .map_err(|fault| Trap::Mem { at, fault })?;
                self.set_reg(rt, u32::from(v));
            }
            Inst::Lh { rt, base, off } => {
                let addr = r(self, base).wrapping_add(off as i32 as u32);
                self.load(at, addr);
                let v = self
                    .mem
                    .read_u16(addr)
                    .map_err(|fault| Trap::Mem { at, fault })?;
                self.set_reg(rt, v as i16 as i32 as u32);
            }
            Inst::Lhu { rt, base, off } => {
                let addr = r(self, base).wrapping_add(off as i32 as u32);
                self.load(at, addr);
                let v = self
                    .mem
                    .read_u16(addr)
                    .map_err(|fault| Trap::Mem { at, fault })?;
                self.set_reg(rt, u32::from(v));
            }
            Inst::Sw { rt, base, off } => {
                let addr = r(self, base).wrapping_add(off as i32 as u32);
                self.store(at, addr);
                self.mem
                    .write_u32(addr, r(self, rt))
                    .map_err(|fault| Trap::Mem { at, fault })?;
            }
            Inst::Sb { rt, base, off } => {
                let addr = r(self, base).wrapping_add(off as i32 as u32);
                self.store(at, addr);
                self.mem
                    .write_u8(addr, r(self, rt) as u8)
                    .map_err(|fault| Trap::Mem { at, fault })?;
            }
            Inst::Sh { rt, base, off } => {
                let addr = r(self, base).wrapping_add(off as i32 as u32);
                self.store(at, addr);
                self.mem
                    .write_u16(addr, r(self, rt) as u16)
                    .map_err(|fault| Trap::Mem { at, fault })?;
            }
            Inst::Lui { rt, imm } => self.set_reg(rt, u32::from(imm) << 16),
            Inst::Addu { rd, rs, rt } => {
                self.set_reg(rd, r(self, rs).wrapping_add(r(self, rt)));
            }
            Inst::Subu { rd, rs, rt } => {
                self.set_reg(rd, r(self, rs).wrapping_sub(r(self, rt)));
            }
            Inst::Mul { rd, rs, rt } => {
                self.set_reg(rd, r(self, rs).wrapping_mul(r(self, rt)));
            }
            Inst::Div { rd, rs, rt } => {
                let d = r(self, rt) as i32;
                if d == 0 {
                    return Err(Trap::DivByZero { at });
                }
                self.set_reg(rd, (r(self, rs) as i32).wrapping_div(d) as u32);
            }
            Inst::Rem { rd, rs, rt } => {
                let d = r(self, rt) as i32;
                if d == 0 {
                    return Err(Trap::DivByZero { at });
                }
                self.set_reg(rd, (r(self, rs) as i32).wrapping_rem(d) as u32);
            }
            Inst::And { rd, rs, rt } => self.set_reg(rd, r(self, rs) & r(self, rt)),
            Inst::Or { rd, rs, rt } => self.set_reg(rd, r(self, rs) | r(self, rt)),
            Inst::Xor { rd, rs, rt } => self.set_reg(rd, r(self, rs) ^ r(self, rt)),
            Inst::Nor { rd, rs, rt } => self.set_reg(rd, !(r(self, rs) | r(self, rt))),
            Inst::Slt { rd, rs, rt } => {
                self.set_reg(rd, u32::from((r(self, rs) as i32) < (r(self, rt) as i32)));
            }
            Inst::Sltu { rd, rs, rt } => {
                self.set_reg(rd, u32::from(r(self, rs) < r(self, rt)));
            }
            Inst::Addiu { rt, rs, imm } => {
                self.set_reg(rt, r(self, rs).wrapping_add(imm as i32 as u32));
            }
            Inst::Andi { rt, rs, imm } => self.set_reg(rt, r(self, rs) & u32::from(imm)),
            Inst::Ori { rt, rs, imm } => self.set_reg(rt, r(self, rs) | u32::from(imm)),
            Inst::Xori { rt, rs, imm } => self.set_reg(rt, r(self, rs) ^ u32::from(imm)),
            Inst::Slti { rt, rs, imm } => {
                self.set_reg(rt, u32::from((r(self, rs) as i32) < i32::from(imm)));
            }
            Inst::Sltiu { rt, rs, imm } => {
                self.set_reg(rt, u32::from(r(self, rs) < (imm as i32 as u32)));
            }
            Inst::Sll { rd, rt, shamt } => self.set_reg(rd, r(self, rt) << shamt),
            Inst::Srl { rd, rt, shamt } => self.set_reg(rd, r(self, rt) >> shamt),
            Inst::Sra { rd, rt, shamt } => {
                self.set_reg(rd, ((r(self, rt) as i32) >> shamt) as u32);
            }
            Inst::Sllv { rd, rt, rs } => {
                self.set_reg(rd, r(self, rt) << (r(self, rs) & 31));
            }
            Inst::Srlv { rd, rt, rs } => {
                self.set_reg(rd, r(self, rt) >> (r(self, rs) & 31));
            }
            Inst::Srav { rd, rt, rs } => {
                self.set_reg(rd, ((r(self, rt) as i32) >> (r(self, rs) & 31)) as u32);
            }
            Inst::Beq { rs, rt, target } => {
                if r(self, rs) == r(self, rt) {
                    next = target.index();
                }
            }
            Inst::Bne { rs, rt, target } => {
                if r(self, rs) != r(self, rt) {
                    next = target.index();
                }
            }
            Inst::Blez { rs, target } => {
                if (r(self, rs) as i32) <= 0 {
                    next = target.index();
                }
            }
            Inst::Bgtz { rs, target } => {
                if (r(self, rs) as i32) > 0 {
                    next = target.index();
                }
            }
            Inst::Bltz { rs, target } => {
                if (r(self, rs) as i32) < 0 {
                    next = target.index();
                }
            }
            Inst::Bgez { rs, target } => {
                if (r(self, rs) as i32) >= 0 {
                    next = target.index();
                }
            }
            Inst::J { target } => next = target.index(),
            Inst::Jal { target } => {
                self.set_reg(Reg::Ra, layout::pc_of_index(at + 1));
                next = target.index();
            }
            Inst::Jr { rs } => {
                next = self.resolve_jump(at, r(self, rs))?;
            }
            Inst::Jalr { rd, rs } => {
                let target = r(self, rs);
                self.set_reg(rd, layout::pc_of_index(at + 1));
                next = self.resolve_jump(at, target)?;
            }
            Inst::Syscall => {
                self.syscall(at)?;
                if self.finished.is_some() {
                    return Ok(());
                }
            }
            Inst::Nop => {}
        }
        if next == self.halt_index {
            // Fell off the entry function: $v0 is the exit code.
            self.finished = Some(self.reg(Reg::V0) as i32);
        } else {
            self.pc = next;
        }
        Ok(())
    }

    /// Runs to completion under the configured [`Engine`], consuming
    /// the machine and returning every output of the run.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] that aborted execution.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the finished [`RunResult`] violates its
    /// cross-field invariants.
    pub(crate) fn run_full(self, max_steps: u64) -> Result<SimOutput, Trap> {
        self.run_recorded(max_steps)
            .map(|(_, mut outputs)| outputs.swap_remove(0))
    }

    /// Runs to completion and returns the kept trace (empty unless
    /// the machine keeps one) and one output per model,
    /// in configuration order.
    pub(crate) fn run_recorded(
        mut self,
        max_steps: u64,
    ) -> Result<(Vec<TraceRecord>, Vec<SimOutput>), Trap> {
        let block_stats = match self.engine {
            Engine::Step => {
                self.run_steps(max_steps)?;
                None
            }
            Engine::Block => Some(self.run_block_engine(max_steps)?),
        };
        self.replay_chunk();
        self.result.exit_code = self.finished.unwrap_or(0);
        self.result.dcache_accesses = self.result.loads + self.result.stores;
        if cfg!(debug_assertions) {
            // Every execution of a load site is exactly one load
            // access; under the block engine this ties each block's
            // static load slots to the range-expanded exec counts.
            let load_execs: u64 = self
                .program
                .insts
                .iter()
                .zip(&self.result.exec_counts)
                .filter(|(inst, _)| inst.is_load())
                .map(|(_, &n)| n)
                .sum();
            assert_eq!(
                load_execs, self.result.loads,
                "load-site executions diverge from dynamic loads"
            );
        }
        let exec = self.result;
        let outputs = self
            .models
            .into_iter()
            .map(|model| model.finish(&exec, block_stats))
            .collect();
        Ok((self.trace.unwrap_or_default(), outputs))
    }

    /// Reference engine: the per-instruction `step()` loop.
    fn run_steps(&mut self, max_steps: u64) -> Result<(), Trap> {
        while self.finished.is_none() {
            if self.result.instructions >= max_steps {
                return Err(Trap::StepLimit { limit: max_steps });
            }
            self.step()?;
        }
        Ok(())
    }

    /// Block-cached engine: decoded basic-block dispatch.
    fn run_block_engine(&mut self, max_steps: u64) -> Result<BlockStats, Trap> {
        let mut cache = BlockCache::new(self.program.insts.len());
        block::run_blocks(self, &mut cache, max_steps)?;
        cache.flush_exec_counts(&mut self.result);
        cache.flush_access_totals(&mut self.result);
        Ok(cache.stats())
    }
}

/// Simulates `program` under `config`, returning the full measurement
/// record.
///
/// # Errors
///
/// Returns a [`Trap`] if the program faults or exceeds
/// `config.max_steps`.
pub fn run(program: &Program, config: &RunConfig) -> Result<RunResult, Trap> {
    Machine::new(program, config)
        .run_full(config.max_steps)
        .map(|out| out.result)
}

/// Like [`run`], also returning the block-cache stats (`None` under
/// [`Engine::Step`]).
///
/// # Errors
///
/// Returns a [`Trap`] if the program faults or exceeds
/// `config.max_steps`.
pub fn run_with_stats(
    program: &Program,
    config: &RunConfig,
) -> Result<(RunResult, Option<BlockStats>), Trap> {
    Machine::new(program, config)
        .run_full(config.max_steps)
        .map(|out| (out.result, out.block_stats))
}

/// Like [`run`], returning every output of the run — including the
/// miss observatory when [`RunConfig::observe`] is set.
///
/// # Errors
///
/// Returns a [`Trap`] if the program faults or exceeds
/// `config.max_steps`.
pub fn run_full(program: &Program, config: &RunConfig) -> Result<SimOutput, Trap> {
    Machine::new(program, config).run_full(config.max_steps)
}

/// Executes `program` once and models every configuration in
/// `configs` from its one access stream: the outputs, in order, equal
/// those of [`run_full`] on each config alone. The execution follows
/// `configs[0]`'s input, seed, step limit and engine, which every
/// config must share.
///
/// # Errors
///
/// Returns a [`Trap`] if the program faults or exceeds the step
/// limit.
///
/// # Panics
///
/// Panics if `configs` is empty or its configs disagree on input,
/// seed, step limit or engine.
pub fn run_many(program: &Program, configs: &[RunConfig]) -> Result<Vec<SimOutput>, Trap> {
    let max_steps = configs.first().expect("at least one config").max_steps;
    Machine::with_models(program, configs, false)
        .run_recorded(max_steps)
        .map(|(_, outputs)| outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_mips::parse::parse_asm;

    fn exec(src: &str) -> RunResult {
        run(&parse_asm(src).unwrap(), &RunConfig::default()).unwrap()
    }

    #[test]
    fn arithmetic_loop() {
        // Sum 1..=10 into $t1, print it.
        let r = exec(
            "main:\n\
             \tli $t0, 10\n\
             \tli $t1, 0\n\
             .Lloop:\n\
             \taddu $t1, $t1, $t0\n\
             \taddiu $t0, $t0, -1\n\
             \tbgtz $t0, .Lloop\n\
             \tmove $a0, $t1\n\
             \tli $v0, 1\n\
             \tsyscall\n\
             \tli $v0, 10\n\
             \tli $a0, 0\n\
             \tsyscall\n",
        );
        assert_eq!(r.output, vec![55]);
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn memory_and_cache_stats() {
        // Store then load the same word twice: 1 store access, 2 load
        // accesses, and only the store misses (write-allocate).
        let r = exec(
            "main:\n\
             \tli $t0, 7\n\
             \tsw $t0, 0($gp)\n\
             \tlw $t1, 0($gp)\n\
             \tlw $t2, 0($gp)\n\
             \tli $v0, 10\n\
             \tli $a0, 0\n\
             \tsyscall\n",
        );
        assert_eq!(r.loads, 2);
        assert_eq!(r.stores, 1);
        assert_eq!(r.dcache_misses, 1);
        assert_eq!(r.load_misses_total, 0);
        assert_eq!(r.exec_counts[2] - r.load_misses[2], 1);
        assert_eq!(r.exec_counts[3] - r.load_misses[3], 1);
    }

    #[test]
    fn per_pc_miss_attribution() {
        // Strided scan over 4 KiB: every 8th word access misses
        // (32-byte blocks), attributed to the single load site.
        let r = exec(
            "main:\n\
             \tli  $t0, 0\n\
             \tli  $t3, 1024\n\
             .Lloop:\n\
             \tsll $t1, $t0, 2\n\
             \taddu $t1, $t1, $gp\n\
             \tlw  $t2, 0($t1)\n\
             \taddiu $t0, $t0, 1\n\
             \tbne $t0, $t3, .Lloop\n\
             \tli $v0, 10\n\
             \tsyscall\n",
        );
        let load_idx = 4;
        assert_eq!(r.load_misses[load_idx], 1024 / 8);
        assert_eq!(
            r.exec_counts[load_idx] - r.load_misses[load_idx],
            1024 - 1024 / 8
        );
        assert_eq!(r.exec_counts[load_idx], 1024);
    }

    #[test]
    fn miss_classification_end_to_end() {
        // The strided-scan kernel under classification: counts must be
        // unchanged, every site miss classified, and a pure forward
        // scan has no conflict misses.
        let src = "main:\n\
                   \tli  $t0, 0\n\
                   \tli  $t3, 1024\n\
                   .Lloop:\n\
                   \tsll $t1, $t0, 2\n\
                   \taddu $t1, $t1, $gp\n\
                   \tlw  $t2, 0($t1)\n\
                   \taddiu $t0, $t0, 1\n\
                   \tbne $t0, $t3, .Lloop\n\
                   \tli $v0, 10\n\
                   \tsyscall\n";
        let p = parse_asm(src).unwrap();
        let plain = run(&p, &RunConfig::default()).unwrap();
        let cfg = RunConfig {
            classify_misses: true,
            ..RunConfig::default()
        };
        let classified = run(&p, &cfg).unwrap();
        assert_eq!(plain.load_misses, classified.load_misses);
        assert_eq!(plain.instructions, classified.instructions);
        assert_eq!(plain.output, classified.output);
        assert!(plain.cache_profile.is_none());
        let profile = classified.cache_profile.as_ref().expect("profile present");
        assert_eq!(profile.classes.total(), classified.dcache_misses);
        // 4 KiB forward scan fits the 32 KiB cache: all compulsory.
        assert_eq!(profile.classes.compulsory, classified.dcache_misses);
        let site_classes = classified.load_miss_classes.as_ref().unwrap();
        let load_idx = 4;
        assert_eq!(
            site_classes[load_idx].iter().sum::<u64>(),
            classified.load_misses[load_idx]
        );
        classified.check_consistency().expect("consistent");
    }

    #[test]
    fn observatory_windows_misses_identically_on_both_engines() {
        // Strided scan over 4 KiB (1024 loads): every 8th access
        // misses. With 256-access epochs the run splits into exactly
        // 4 full epochs of 32 misses each at the single load site.
        let src = "main:\n\
                   \tli  $t0, 0\n\
                   \tli  $t3, 1024\n\
                   .Lloop:\n\
                   \tsll $t1, $t0, 2\n\
                   \taddu $t1, $t1, $gp\n\
                   \tlw  $t2, 0($t1)\n\
                   \taddiu $t0, $t0, 1\n\
                   \tbne $t0, $t3, .Lloop\n\
                   \tli $v0, 10\n\
                   \tsyscall\n";
        let p = parse_asm(src).unwrap();
        let load_idx = 4;
        let mut outputs = Vec::new();
        for engine in [Engine::Step, Engine::Block] {
            let cfg = RunConfig {
                observe: Some(crate::observe::ObserveConfig { epoch_len: 256 }),
                engine,
                ..RunConfig::default()
            };
            let out = super::run_full(&p, &cfg).unwrap();
            let obs = out.observatory.as_ref().expect("observatory collected");
            assert_eq!(obs.epochs().len(), 4);
            for epoch in obs.epochs() {
                assert_eq!(epoch.loads, 256);
                assert_eq!(epoch.misses, vec![(load_idx as u32, 32)]);
            }
            assert_eq!(obs.site_totals(), out.result.load_misses);
            // Observation must not perturb the measurement record.
            let plain = run(
                &p,
                &RunConfig {
                    engine,
                    ..RunConfig::default()
                },
            )
            .unwrap();
            assert_eq!(out.result, plain);
            outputs.push(obs.epochs().to_vec());
        }
        assert_eq!(outputs[0], outputs[1], "epochs diverge across engines");
    }

    #[test]
    fn reuse_measurement_is_engine_invariant_and_non_perturbing() {
        // Strided scan over 4 KiB: 7/8 of accesses reuse their block
        // at distance 0, 1/8 first-touch 128 distinct blocks.
        let src = "main:\n\
                   \tli  $t0, 0\n\
                   \tli  $t3, 1024\n\
                   .Lloop:\n\
                   \tsll $t1, $t0, 2\n\
                   \taddu $t1, $t1, $gp\n\
                   \tlw  $t2, 0($t1)\n\
                   \taddiu $t0, $t0, 1\n\
                   \tbne $t0, $t3, .Lloop\n\
                   \tli $v0, 10\n\
                   \tsyscall\n";
        let p = parse_asm(src).unwrap();
        let load_idx = 4;
        let mut per_engine = Vec::new();
        for engine in [Engine::Step, Engine::Block] {
            let cfg = RunConfig {
                reuse_profile: true,
                engine,
                ..RunConfig::default()
            };
            let out = super::run_full(&p, &cfg).unwrap();
            let site = out
                .reuse
                .as_ref()
                .expect("measurement collected")
                .site(load_idx);
            assert_eq!(site.cold, 128);
            assert_eq!(site.buckets[0], 896);
            assert_eq!(site.total(), 1024);
            // Measurement must not perturb the run itself.
            let plain = run(
                &p,
                &RunConfig {
                    engine,
                    ..RunConfig::default()
                },
            )
            .unwrap();
            assert_eq!(out.result, plain);
            per_engine.push(site.clone());
        }
        assert_eq!(per_engine[0].buckets, per_engine[1].buckets);
        assert_eq!(per_engine[0].cold, per_engine[1].cold);
    }

    #[test]
    fn call_and_return() {
        let r = exec(
            "main:\n\
             \tjal helper\n\
             \tmove $a0, $v0\n\
             \tli $v0, 1\n\
             \tsyscall\n\
             \tli $v0, 10\n\
             \tli $a0, 0\n\
             \tsyscall\n\
             helper:\n\
             \tli $v0, 99\n\
             \tjr $ra\n",
        );
        assert_eq!(r.output, vec![99]);
    }

    #[test]
    fn fallthrough_return_exits_with_v0() {
        let r = exec("main:\n\tli $v0, 3\n\tjr $ra\n");
        assert_eq!(r.exit_code, 3);
    }

    #[test]
    fn malloc_and_heap_access() {
        let r = exec(
            "main:\n\
             \tli $a0, 64\n\
             \tli $v0, 9\n\
             \tsyscall\n\
             \tli $t0, 5\n\
             \tsw $t0, 32($v0)\n\
             \tlw $a0, 32($v0)\n\
             \tli $v0, 1\n\
             \tsyscall\n\
             \tli $v0, 10\n\
             \tli $a0, 0\n\
             \tsyscall\n",
        );
        assert_eq!(r.output, vec![5]);
    }

    #[test]
    fn read_int_consumes_input() {
        let p = parse_asm(
            "main:\n\
             \tli $v0, 5\n\
             \tsyscall\n\
             \tmove $a0, $v0\n\
             \tli $v0, 1\n\
             \tsyscall\n\
             \tli $v0, 5\n\
             \tsyscall\n\
             \tmove $a0, $v0\n\
             \tli $v0, 1\n\
             \tsyscall\n\
             \tli $v0, 10\n\
             \tsyscall\n",
        )
        .unwrap();
        let cfg = RunConfig {
            input: vec![11, -4],
            ..RunConfig::default()
        };
        let r = run(&p, &cfg).unwrap();
        assert_eq!(r.output, vec![11, -4]);
    }

    #[test]
    fn rand_is_deterministic_and_bounded() {
        let src = "main:\n\
                   \tli $a0, 10\n\
                   \tli $v0, 42\n\
                   \tsyscall\n\
                   \tmove $a0, $v0\n\
                   \tli $v0, 1\n\
                   \tsyscall\n\
                   \tli $v0, 10\n\
                   \tsyscall\n";
        let r1 = exec(src);
        let r2 = exec(src);
        assert_eq!(r1.output, r2.output);
        assert!((0..10).contains(&r1.output[0]));
    }

    #[test]
    fn div_by_zero_traps() {
        let p = parse_asm("main:\n\tli $t0, 1\n\tdiv $t1, $t0, $zero\n").unwrap();
        assert_eq!(
            run(&p, &RunConfig::default()),
            Err(Trap::DivByZero { at: 1 })
        );
    }

    #[test]
    fn null_load_traps() {
        let p = parse_asm("main:\n\tlw $t0, 0($zero)\n").unwrap();
        assert!(matches!(
            run(&p, &RunConfig::default()),
            Err(Trap::Mem { at: 0, .. })
        ));
    }

    #[test]
    fn step_limit_traps() {
        let p = parse_asm("main:\n.Lspin:\n\tj .Lspin\n").unwrap();
        let cfg = RunConfig {
            max_steps: 1000,
            ..RunConfig::default()
        };
        assert_eq!(run(&p, &cfg), Err(Trap::StepLimit { limit: 1000 }));
    }

    #[test]
    fn bad_jump_traps() {
        let p = parse_asm("main:\n\tli $t0, 3\n\tjr $t0\n").unwrap();
        assert!(matches!(
            run(&p, &RunConfig::default()),
            Err(Trap::BadJump { at: 1, .. })
        ));
    }

    #[test]
    fn signed_ops() {
        let r = exec(
            "main:\n\
             \tli $t0, -12\n\
             \tli $t1, 5\n\
             \tdiv $t2, $t0, $t1\n\
             \trem $t3, $t0, $t1\n\
             \tsra $t4, $t0, 1\n\
             \tslt $t5, $t0, $t1\n\
             \tmove $a0, $t2\n\tli $v0, 1\n\tsyscall\n\
             \tmove $a0, $t3\n\tli $v0, 1\n\tsyscall\n\
             \tmove $a0, $t4\n\tli $v0, 1\n\tsyscall\n\
             \tmove $a0, $t5\n\tli $v0, 1\n\tsyscall\n\
             \tli $v0, 10\n\tli $a0, 0\n\tsyscall\n",
        );
        assert_eq!(r.output, vec![-2, -2, -6, 1]);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::memory::Prefetch;
    use dl_mips::parse::parse_asm;

    /// Next-line prefetch of `degree` blocks, triggered at `sites`.
    fn next_line(sites: Vec<usize>, degree: u32) -> RunConfig {
        RunConfig {
            memory: MemoryConfig {
                prefetch: Some(Prefetch::NextLine(degree)),
                ..MemoryConfig::default()
            },
            prefetch_sites: Some(sites),
            ..RunConfig::default()
        }
    }

    /// A forward streaming scan: next-line prefetch at the load site
    /// should roughly halve its misses.
    fn streaming_program() -> Program {
        parse_asm(
            "main:\n\
             \tli  $t0, 0\n\
             \tli  $t3, 4096\n\
             .Lloop:\n\
             \tsll $t1, $t0, 2\n\
             \taddu $t1, $t1, $gp\n\
             \tlw  $t2, 0($t1)\n\
             \taddiu $t0, $t0, 1\n\
             \tbne $t0, $t3, .Lloop\n\
             \tli $v0, 10\n\
             \tsyscall\n",
        )
        .unwrap()
    }

    #[test]
    fn next_line_prefetch_cuts_streaming_misses() {
        let p = streaming_program();
        let load_site = 4;
        let base = run(&p, &RunConfig::default()).unwrap();
        let pf = run(&p, &next_line(vec![load_site], 1)).unwrap();
        assert!(base.load_misses[load_site] > 100);
        assert!(
            pf.load_misses[load_site] * 2 <= base.load_misses[load_site],
            "prefetch did not help: {} vs {}",
            pf.load_misses[load_site],
            base.load_misses[load_site]
        );
        assert_eq!(pf.prefetches_issued, pf.exec_counts[load_site]);
        // Functional behaviour is unchanged.
        assert_eq!(pf.output, base.output);
        assert_eq!(pf.exit_code, base.exit_code);
    }

    #[test]
    fn uninstrumented_sites_issue_nothing() {
        let p = streaming_program();
        let r = run(&p, &next_line(vec![0], 1)).unwrap(); // a non-load
        assert_eq!(r.prefetches_issued, 0);
    }

    #[test]
    fn higher_degree_prefetches_more() {
        let p = streaming_program();
        let r = run(&p, &next_line(vec![4], 4)).unwrap();
        assert_eq!(r.prefetches_issued, 4 * r.exec_counts[4]);
    }

    #[test]
    fn out_of_range_site_is_ignored() {
        let p = streaming_program();
        let r = run(&p, &next_line(vec![10_000], 1)).unwrap();
        assert_eq!(r.prefetches_issued, 0);
    }
}

#[cfg(test)]
mod isa_coverage_tests {
    use super::*;
    use dl_mips::parse::parse_asm;

    fn exec(src: &str) -> RunResult {
        run(&parse_asm(src).unwrap(), &RunConfig::default()).unwrap()
    }

    #[test]
    fn halfword_loads_and_stores() {
        let r = exec(
            "main:\n\
             \tli $t0, -2\n\
             \tsh $t0, 0($gp)\n\
             \tlh $a0, 0($gp)\n\
             \tli $v0, 1\n\tsyscall\n\
             \tlhu $a0, 0($gp)\n\
             \tli $v0, 1\n\tsyscall\n\
             \tli $v0, 10\n\tli $a0, 0\n\tsyscall\n",
        );
        assert_eq!(r.output, vec![-2, 0xfffe]);
    }

    #[test]
    fn byte_sign_and_zero_extension() {
        let r = exec(
            "main:\n\
             \tli $t0, 200\n\
             \tsb $t0, 0($gp)\n\
             \tlb $a0, 0($gp)\n\
             \tli $v0, 1\n\tsyscall\n\
             \tlbu $a0, 0($gp)\n\
             \tli $v0, 1\n\tsyscall\n\
             \tli $v0, 10\n\tli $a0, 0\n\tsyscall\n",
        );
        assert_eq!(r.output, vec![-56, 200]);
    }

    #[test]
    fn sign_branches() {
        let r = exec(
            "main:\n\
             \tli $t0, -5\n\
             \tli $a0, 0\n\
             \tbltz $t0, .La\n\
             \tli $a0, 99\n\
             .La:\n\
             \tbgez $t0, .Lb\n\
             \taddiu $a0, $a0, 1\n\
             .Lb:\n\
             \tli $t1, 0\n\
             \tbgez $t1, .Lc\n\
             \taddiu $a0, $a0, 100\n\
             .Lc:\n\
             \tli $v0, 1\n\tsyscall\n\
             \tli $v0, 10\n\tli $a0, 0\n\tsyscall\n",
        );
        // bltz taken (a0 stays 0), bgez -5 not taken (+1), bgez 0 taken.
        assert_eq!(r.output, vec![1]);
    }

    #[test]
    fn variable_shifts_mask_to_five_bits() {
        let r = exec(
            "main:\n\
             \tli $t0, 1\n\
             \tli $t1, 33\n\
             \tsllv $a0, $t0, $t1\n\
             \tli $v0, 1\n\tsyscall\n\
             \tli $t2, -64\n\
             \tli $t3, 3\n\
             \tsrav $a0, $t2, $t3\n\
             \tli $v0, 1\n\tsyscall\n\
             \tli $t4, 0x80\n\
             \tsrlv $a0, $t4, $t3\n\
             \tli $v0, 1\n\tsyscall\n\
             \tli $v0, 10\n\tli $a0, 0\n\tsyscall\n",
        );
        // 33 & 31 = 1 -> 2; -64 >> 3 arithmetic = -8; 0x80 >> 3 = 16.
        assert_eq!(r.output, vec![2, -8, 16]);
    }

    #[test]
    fn jalr_indirect_call() {
        let src = "main:\n\
                   \tlui $t0, 0x0040\n\
                   \tori $t0, $t0, 0x0018\n\
                   \tjalr $ra, $t0\n\
                   \tmove $a0, $v0\n\
                   \tli $v0, 1\n\tsyscall\n\
                   \tli $v0, 10\n\tli $a0, 0\n\tsyscall\n\
                   helper:\n\
                   \tli $v0, 77\n\
                   \tjr $ra\n";
        // main has 9 instructions (0-8: lui, ori, jalr, move, li,
        // syscall, li, li, syscall), so helper starts at index 9:
        // pc = 0x0040_0000 + 4*9 = 0x0040_0024.
        let src = src.replace("0x0018", "0x0024");
        let r = exec(&src);
        assert_eq!(r.output, vec![77]);
    }

    #[test]
    fn bitwise_register_forms() {
        let r = exec(
            "main:\n\
             \tli $t0, 0x0f0f\n\
             \tli $t1, 0x00ff\n\
             \txor $a0, $t0, $t1\n\
             \tli $v0, 1\n\tsyscall\n\
             \tnor $a0, $t0, $t1\n\
             \tli $v0, 1\n\tsyscall\n\
             \tandi $a0, $t0, 0xff\n\
             \tli $v0, 1\n\tsyscall\n\
             \txori $a0, $t0, 0xffff\n\
             \tli $v0, 1\n\tsyscall\n\
             \tli $v0, 10\n\tli $a0, 0\n\tsyscall\n",
        );
        assert_eq!(r.output, vec![0x0ff0, !(0x0f0f | 0x00ff), 0x0f, 0xf0f0]);
    }

    #[test]
    fn slti_and_sltiu_semantics() {
        let r = exec(
            "main:\n\
             \tli $t0, -1\n\
             \tslti $a0, $t0, 0\n\
             \tli $v0, 1\n\tsyscall\n\
             \tsltiu $a0, $t0, 0\n\
             \tli $v0, 1\n\tsyscall\n\
             \tli $v0, 10\n\tli $a0, 0\n\tsyscall\n",
        );
        // Signed: -1 < 0. Unsigned: 0xffffffff is not < 0.
        assert_eq!(r.output, vec![1, 0]);
    }

    #[test]
    fn bad_syscall_traps() {
        let p = parse_asm("main:\n\tli $v0, 99\n\tsyscall\n").unwrap();
        assert_eq!(
            run(&p, &RunConfig::default()),
            Err(Trap::BadSyscall { at: 1, number: 99 })
        );
    }

    #[test]
    fn blez_boundary() {
        let r = exec(
            "main:\n\
             \tli $a0, 0\n\
             \tli $t0, 0\n\
             \tblez $t0, .La\n\
             \tli $a0, 5\n\
             .La:\n\
             \tli $t1, 1\n\
             \tblez $t1, .Lb\n\
             \taddiu $a0, $a0, 10\n\
             .Lb:\n\
             \tli $v0, 1\n\tsyscall\n\
             \tli $v0, 10\n\tli $a0, 0\n\tsyscall\n",
        );
        assert_eq!(r.output, vec![10]);
    }
}
