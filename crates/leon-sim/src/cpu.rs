//! The cycle-level CPU model.
//!
//! [`Cpu`] executes one guest program on one [`LeonConfig`].  It is an
//! in-order, single-issue interpreter that charges cycles per instruction
//! according to the configured microarchitecture:
//!
//! * every instruction fetch goes through the instruction cache;
//! * every load/store goes through the data cache (write-through,
//!   no-write-allocate, with the `fast read` / `fast write` options);
//! * load-use interlocks cost `load delay` cycles;
//! * a branch directly after an icc-setting instruction stalls one cycle when
//!   `ICC hold` is enabled (with the interlock disabled the result is
//!   forwarded);
//! * `fast jump` accelerates call/indirect-jump address generation;
//! * `fast decode` removes one decode cycle from the complex instruction
//!   formats;
//! * multiplies and divides take the latency of the configured hardware
//!   multiplier/divider (or of the software routine when absent);
//! * register-window overflow/underflow traps flush the pipeline and
//!   spill/fill 16 registers through the data cache.

use std::collections::BTreeMap;

use leon_isa::{
    decode, AluOp, DivOp, Icc, Instr, MagicOp, MemSize, MulOp, Operand2, Program, Reg,
};

use crate::cache::{Access, Cache};
use crate::config::LeonConfig;
use crate::error::SimError;
use crate::memory::Memory;
use crate::profiler::{RunResult, Stats};
use crate::regwin::{RegisterWindows, WindowEvent};
use crate::trace::{flags, Recorder};

/// Pipeline flush + trap entry overhead of a register-window trap, in cycles.
/// Shared with [`crate::trace::replay`], which must charge identical costs.
pub(crate) const WINDOW_TRAP_OVERHEAD: u64 = 6;
/// Registers spilled or filled by a window trap.
pub(crate) const WINDOW_TRAP_REGS: u32 = 16;

/// A LEON2-like processor executing a single program.
pub struct Cpu {
    config: LeonConfig,
    memory: Memory,
    icache: Cache,
    dcache: Cache,
    windows: RegisterWindows,
    decoded: Vec<Instr>,
    pc: u32,
    icc: Icc,
    stats: Stats,
    reports: BTreeMap<u16, Vec<u32>>,
    console: String,
    halted: Option<u32>,
    /// Destination of the immediately preceding load (for the load-use
    /// interlock).
    last_load_dest: Option<Reg>,
    /// Whether the immediately preceding instruction set the condition codes
    /// (for the ICC-hold interlock).
    prev_set_icc: bool,
    /// The line the previous fetch read, as `pc >> line shift` of the
    /// i-cache (see `step`).
    last_fetch_line: Option<u32>,
    /// Shift from a pc to its i-cache line.
    fetch_line_shift: u32,
    /// Execution-trace recorder, present when tracing is enabled.
    trace: Option<Recorder>,
}

impl Cpu {
    /// Build a CPU for `config` with `program` loaded.
    pub fn new(config: LeonConfig, program: &Program) -> Result<Cpu, SimError> {
        config
            .validate()
            .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        let mut decoded = Vec::with_capacity(program.text.len());
        for (i, word) in program.text.iter().enumerate() {
            let instr = decode(*word).map_err(|error| SimError::Decode {
                pc: (i as u32) * 4,
                error,
            })?;
            decoded.push(instr);
        }
        let memory = Memory::load_program(program);
        let mut windows = RegisterWindows::new(config.iu.reg_windows as u32);
        windows.write(Reg::SP, program.stack_top);
        windows.write(Reg::FP, program.stack_top);
        Ok(Cpu {
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            config,
            memory,
            windows,
            decoded,
            pc: program.entry,
            icc: Icc::default(),
            stats: Stats::default(),
            reports: BTreeMap::new(),
            console: String::new(),
            halted: None,
            last_load_dest: None,
            prev_set_icc: false,
            last_fetch_line: None,
            fetch_line_shift: config.icache.line_bytes().trailing_zeros(),
            trace: None,
        })
    }

    /// Record an execution trace during the run (see [`crate::trace`]).
    /// Tracing never perturbs timing or architectural behaviour.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Recorder::new());
        }
    }

    /// Take the trace recorder, leaving tracing disabled.
    /// [`crate::trace::capture`] finishes it into a full [`crate::Trace`].
    pub fn take_trace(&mut self) -> Option<Recorder> {
        self.trace.take()
    }

    /// The configuration this CPU was built with.
    pub fn config(&self) -> &LeonConfig {
        &self.config
    }

    /// Current profiler counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Borrow the guest memory (for result inspection in tests).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Read an architectural register (for tests and debugging).
    pub fn reg(&self, r: Reg) -> u32 {
        self.windows.read(r)
    }

    /// Exit code if the program has halted.
    pub fn exit_code(&self) -> Option<u32> {
        self.halted
    }

    fn operand2(&self, op2: Operand2) -> u32 {
        match op2 {
            Operand2::Reg(r) => self.windows.read(r),
            Operand2::Imm(v) => v as i32 as u32,
        }
    }

    fn icache_fill_penalty(&self) -> u64 {
        let m = &self.config.memory;
        (m.read_first + (self.config.icache.line_words as u32 - 1) * m.read_burst) as u64
    }

    fn dcache_fill_penalty(&self) -> u64 {
        let m = &self.config.memory;
        (m.read_first + (self.config.dcache.line_words as u32 - 1) * m.read_burst) as u64
    }

    /// Charge a data-cache read at `addr`, returning the extra cycles beyond
    /// the base instruction cycle.
    fn dcache_read_cycles(&mut self, addr: u32) -> u64 {
        let hit_cost = if self.config.dcache_fast_read { 0 } else { 1 };
        match self.dcache.read(addr) {
            Access::Hit => hit_cost,
            Access::Miss => hit_cost + self.dcache_fill_penalty(),
        }
    }

    /// Charge a data-cache write at `addr` (write-through, no allocate).
    fn dcache_write_cycles(&mut self, addr: u32) -> u64 {
        let hit_cost = if self.config.dcache_fast_write { 0 } else { 1 };
        match self.dcache.write(addr) {
            // write-through: the store buffer hides the memory write on hits
            Access::Hit => hit_cost,
            // on a miss the write goes straight to memory
            Access::Miss => hit_cost + 1,
        }
    }

    fn set_icc_logic(&mut self, result: u32) {
        self.icc = Icc { n: (result as i32) < 0, z: result == 0, v: false, c: false };
    }

    fn alu_exec(&mut self, op: AluOp, cc: bool, a: u32, b: u32) -> u32 {
        let result = match op {
            AluOp::Add => {
                let (r, carry) = a.overflowing_add(b);
                if cc {
                    let v = ((a ^ !b) & (a ^ r) & 0x8000_0000) != 0;
                    self.icc = Icc { n: (r as i32) < 0, z: r == 0, v, c: carry };
                }
                r
            }
            AluOp::Sub => {
                let (r, borrow) = a.overflowing_sub(b);
                if cc {
                    let v = ((a ^ b) & (a ^ r) & 0x8000_0000) != 0;
                    self.icc = Icc { n: (r as i32) < 0, z: r == 0, v, c: borrow };
                }
                r
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Andn => a & !b,
            AluOp::Orn => a | !b,
            AluOp::Xnor => a ^ !b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        };
        // logic/shift ops: N and Z only
        if cc && !matches!(op, AluOp::Add | AluOp::Sub) {
            self.set_icc_logic(result);
        }
        result
    }

    /// Execute one instruction, charging its cycles.  Returns `Ok(true)` when
    /// the program halted.
    fn step(&mut self) -> Result<bool, SimError> {
        if self.pc % 4 != 0 || (self.pc / 4) as usize >= self.decoded.len() {
            return Err(SimError::PcOutOfRange { pc: self.pc });
        }

        // ---- fetch -------------------------------------------------------
        // The recorded event bits mirror every timing-relevant *event*;
        // whether an event costs cycles (and how many) stays a property of
        // the config, so the same trace can be retimed under any
        // trace-invariant perturbation (see `crate::trace`).
        let mut ev_flags: u16 = 0;
        let mut ev_aux: u32 = 0;
        let mut cycles: u64 = 1;
        // Only fetches reach the i-cache, so a fetch in the line the
        // previous fetch read always hits.  Its probe would change no state
        // any policy reads — the line stays the most recently used one, and
        // random and LRR state move only on fills — so it is counted, not
        // probed.
        let line = self.pc >> self.fetch_line_shift;
        if self.last_fetch_line == Some(line) {
            self.icache.count_read_hit();
        } else {
            self.last_fetch_line = Some(line);
            if self.icache.read(self.pc) == Access::Miss {
                cycles += self.icache_fill_penalty();
            }
        }
        let instr = self.decoded[(self.pc / 4) as usize];

        // ---- decode ------------------------------------------------------
        let slow_format = matches!(
            instr,
            Instr::Sethi { .. } | Instr::Save { .. } | Instr::Restore { .. } | Instr::JmpL { .. }
        );
        if slow_format {
            ev_flags |= flags::SLOW_DECODE;
            if !self.config.iu.fast_decode {
                cycles += 1;
            }
        }

        // load-use interlock
        if let Some(dest) = self.last_load_dest {
            if instr.reads(dest) {
                ev_flags |= flags::LOAD_USE;
                let stall = self.config.iu.load_delay as u64;
                cycles += stall;
                self.stats.load_use_stalls += stall;
            }
        }
        self.last_load_dest = None;

        // ICC-hold interlock: branch immediately after an icc-setting op
        if self.prev_set_icc && matches!(instr, Instr::Branch { .. }) {
            ev_flags |= flags::ICC_BRANCH;
            if self.config.iu.icc_hold {
                cycles += 1;
                self.stats.icc_hold_stalls += 1;
            }
        }
        self.prev_set_icc = instr.sets_icc();

        // ---- execute -----------------------------------------------------
        let mut next_pc = self.pc.wrapping_add(4);
        let mut halted = false;
        match instr {
            Instr::Nop => {}
            Instr::Alu { op, cc, rd, rs1, op2 } => {
                let a = self.windows.read(rs1);
                let b = self.operand2(op2);
                let r = self.alu_exec(op, cc, a, b);
                self.windows.write(rd, r);
            }
            Instr::Sethi { rd, imm21 } => {
                self.windows.write(rd, imm21 << 11);
            }
            Instr::Mul { op, cc, rd, rs1, op2 } => {
                let a = self.windows.read(rs1);
                let b = self.operand2(op2);
                let r = match op {
                    MulOp::Umul => a.wrapping_mul(b),
                    MulOp::Smul => (a as i32).wrapping_mul(b as i32) as u32,
                };
                if cc {
                    self.set_icc_logic(r);
                }
                self.windows.write(rd, r);
                self.stats.mul_ops += 1;
                ev_flags |= flags::MUL;
                cycles += (self.config.iu.multiplier.latency() - 1) as u64;
            }
            Instr::Div { op, cc, rd, rs1, op2 } => {
                let a = self.windows.read(rs1);
                let b = self.operand2(op2);
                if b == 0 {
                    return Err(SimError::DivisionByZero { pc: self.pc });
                }
                let r = match op {
                    DivOp::Udiv => a / b,
                    DivOp::Sdiv => ((a as i32).wrapping_div(b as i32)) as u32,
                };
                if cc {
                    self.set_icc_logic(r);
                }
                self.windows.write(rd, r);
                self.stats.div_ops += 1;
                ev_flags |= flags::DIV;
                cycles += (self.config.iu.divider.latency() - 1) as u64;
            }
            Instr::Load { size, signed, rd, rs1, op2 } => {
                let addr = self.windows.read(rs1).wrapping_add(self.operand2(op2));
                let value = match (size, signed) {
                    (MemSize::Byte, false) => self.memory.read_u8(addr)? as u32,
                    (MemSize::Byte, true) => self.memory.read_u8(addr)? as i8 as i32 as u32,
                    (MemSize::Half, false) => self.memory.read_u16(addr)? as u32,
                    (MemSize::Half, true) => self.memory.read_u16(addr)? as i16 as i32 as u32,
                    (MemSize::Word, _) => self.memory.read_u32(addr)?,
                };
                cycles += self.dcache_read_cycles(addr);
                self.windows.write(rd, value);
                self.stats.loads += 1;
                ev_flags |= flags::LOAD;
                ev_aux = addr;
                self.last_load_dest = Some(rd);
            }
            Instr::Store { size, rs_data, rs1, op2 } => {
                let addr = self.windows.read(rs1).wrapping_add(self.operand2(op2));
                let value = self.windows.read(rs_data);
                match size {
                    MemSize::Byte => self.memory.write_u8(addr, value as u8)?,
                    MemSize::Half => self.memory.write_u16(addr, value as u16)?,
                    MemSize::Word => self.memory.write_u32(addr, value)?,
                }
                cycles += self.dcache_write_cycles(addr);
                self.stats.stores += 1;
                ev_flags |= flags::STORE;
                ev_aux = addr;
            }
            Instr::Branch { cond, disp } => {
                self.stats.branches += 1;
                ev_flags |= flags::BRANCH;
                if cond.eval(self.icc) {
                    self.stats.taken_branches += 1;
                    ev_flags |= flags::TAKEN;
                    next_pc = self.pc.wrapping_add((disp * 4) as u32);
                    // taken branches refill the fetch stage
                    cycles += 1;
                }
            }
            Instr::Call { disp } => {
                self.windows.write(Reg::O7, self.pc.wrapping_add(4));
                next_pc = self.pc.wrapping_add((disp * 4) as u32);
                self.stats.calls += 1;
                ev_flags |= flags::CALL;
                cycles += if self.config.iu.fast_jump { 1 } else { 2 };
            }
            Instr::JmpL { rd, rs1, op2 } => {
                let target = self.windows.read(rs1).wrapping_add(self.operand2(op2));
                self.windows.write(rd, self.pc.wrapping_add(4));
                next_pc = target;
                self.stats.calls += 1;
                ev_flags |= flags::CALL;
                cycles += if self.config.iu.fast_jump { 1 } else { 2 };
            }
            Instr::Save { rd, rs1, op2 } => {
                let a = self.windows.read(rs1);
                let b = self.operand2(op2);
                let event = self.windows.save();
                self.windows.write(rd, a.wrapping_add(b));
                // The post-save stack pointer is architectural and therefore
                // identical under every configuration; recording it on every
                // rotation lets replay re-derive the traps of any window count.
                let sp = self.windows.read(Reg::SP) & !0x3;
                ev_flags |= flags::SAVE;
                ev_aux = sp;
                if event == WindowEvent::Overflow {
                    cycles += self.window_trap_cycles(sp, true);
                    self.stats.window_overflows += 1;
                }
            }
            Instr::Restore { rd, rs1, op2 } => {
                let a = self.windows.read(rs1);
                let b = self.operand2(op2);
                let event = self
                    .windows
                    .restore()
                    .map_err(|_| SimError::WindowUnderflowAtBase { pc: self.pc })?;
                self.windows.write(rd, a.wrapping_add(b));
                let sp = self.windows.read(Reg::SP) & !0x3;
                ev_flags |= flags::RESTORE;
                ev_aux = sp;
                if event == WindowEvent::Underflow {
                    cycles += self.window_trap_cycles(sp, false);
                    self.stats.window_underflows += 1;
                }
            }
            Instr::Magic { op, rs1, channel } => {
                let value = self.windows.read(rs1);
                match op {
                    MagicOp::Halt => {
                        self.halted = Some(value);
                        halted = true;
                    }
                    MagicOp::Report => {
                        self.reports.entry(channel).or_default().push(value);
                    }
                    MagicOp::PutChar => {
                        self.console.push((value & 0xff) as u8 as char);
                    }
                }
            }
        }

        if let Some(recorder) = &mut self.trace {
            recorder.record(self.pc, ev_flags, ev_aux);
        }
        self.stats.cycles += cycles;
        self.stats.instructions += 1;
        self.pc = next_pc;
        Ok(halted)
    }

    /// Cycles charged for a window overflow (spill) or underflow (fill) trap:
    /// trap entry/exit plus 16 register transfers through the data cache at
    /// the (word-aligned) stack pointer `sp`.
    fn window_trap_cycles(&mut self, sp: u32, spill: bool) -> u64 {
        let mut cycles = WINDOW_TRAP_OVERHEAD;
        for i in 0..WINDOW_TRAP_REGS {
            let addr = sp.wrapping_sub(4 + i * 4);
            cycles += 1;
            if spill {
                cycles += self.dcache_write_cycles(addr);
            } else {
                cycles += self.dcache_read_cycles(addr);
            }
        }
        cycles
    }

    /// Run until the program halts or `max_cycles` is exceeded.
    ///
    /// The budget bounds the run *total*: a run whose final instruction
    /// pushes the cycle count past `max_cycles` fails exactly like one cut
    /// off mid-run.  This keeps full simulation and trace replay — which can
    /// only check the reconstructed total — bit-identical at the budget
    /// boundary (DESIGN.md §3 "Exactness").
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        while self.halted.is_none() {
            if self.stats.cycles > max_cycles {
                return Err(SimError::CycleLimitExceeded { limit: max_cycles });
            }
            self.step()?;
        }
        if self.stats.cycles > max_cycles {
            return Err(SimError::CycleLimitExceeded { limit: max_cycles });
        }
        let mut stats = self.stats.clone();
        stats.icache = self.icache.stats();
        stats.dcache = self.dcache.stats();
        stats.window_overflows = self.windows.overflows;
        stats.window_underflows = self.windows.underflows;
        Ok(RunResult {
            seconds: self.config.cycles_to_seconds(stats.cycles),
            stats,
            exit_code: self.halted.unwrap_or(0),
            reports: self.reports.clone(),
            console: self.console.clone(),
        })
    }
}

/// Convenience entry point: build a CPU and run `program` on `config`.
pub fn simulate(config: &LeonConfig, program: &Program, max_cycles: u64) -> Result<RunResult, SimError> {
    Cpu::new(*config, program)?.run(max_cycles)
}
