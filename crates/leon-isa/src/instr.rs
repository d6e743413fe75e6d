//! Instruction set definition.
//!
//! The guest ISA is a compact SPARC-V8-flavoured 32-bit RISC.  It keeps the
//! features that matter for the LEON2 microarchitecture parameters studied in
//! the paper — integer condition codes, register windows, hardware
//! multiply/divide — and drops the ones that do not (FPU, co-processor, MMU,
//! alternate address spaces, architectural delay slots).

use crate::regs::Reg;
use serde::{Deserialize, Serialize};

/// Arithmetic / logic operations.  The `cc` flag on [`Instr::Alu`] selects the
/// condition-code-setting variant (`addcc`, `subcc`, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Two's complement addition.
    Add,
    /// Two's complement subtraction (`subcc` doubles as `cmp`).
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// AND with complemented second operand.
    Andn,
    /// OR with complemented second operand.
    Orn,
    /// XOR with complemented second operand (XNOR).
    Xnor,
    /// Logical shift left (shift count taken modulo 32).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
}

impl AluOp {
    /// All ALU operations, in encoding order.
    pub const ALL: [AluOp; 11] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Andn,
        AluOp::Orn,
        AluOp::Xnor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
    ];

    /// Mnemonic without the optional `cc` suffix.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Andn => "andn",
            AluOp::Orn => "orn",
            AluOp::Xnor => "xnor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
        }
    }
}

/// Hardware multiply variants (signed / unsigned 32×32 → low 32 bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MulOp {
    /// Unsigned multiply (`umul`).
    Umul,
    /// Signed multiply (`smul`).
    Smul,
}

/// Hardware divide variants (32 ÷ 32 → 32).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DivOp {
    /// Unsigned divide (`udiv`).  Division by zero yields all-ones.
    Udiv,
    /// Signed divide (`sdiv`).  Division by zero yields all-ones.
    Sdiv,
}

/// Memory access widths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemSize {
    /// 8-bit access.
    Byte,
    /// 16-bit access (address must be 2-byte aligned).
    Half,
    /// 32-bit access (address must be 4-byte aligned).
    Word,
}

impl MemSize {
    /// Width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemSize::Byte => 1,
            MemSize::Half => 2,
            MemSize::Word => 4,
        }
    }
}

/// Branch conditions over the integer condition codes (N, Z, V, C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// Always taken (`ba`).
    Always,
    /// Never taken (`bn`) — effectively a nop that still occupies the CTI slot.
    Never,
    /// Equal (`be`): Z.
    Eq,
    /// Not equal (`bne`): !Z.
    Ne,
    /// Signed greater (`bg`): !(Z | (N ^ V)).
    Gt,
    /// Signed less-or-equal (`ble`): Z | (N ^ V).
    Le,
    /// Signed greater-or-equal (`bge`): !(N ^ V).
    Ge,
    /// Signed less (`bl`): N ^ V.
    Lt,
    /// Unsigned greater (`bgu`): !(C | Z).
    Gtu,
    /// Unsigned less-or-equal (`bleu`): C | Z.
    Leu,
    /// Carry clear / unsigned greater-or-equal (`bcc`): !C.
    CarryClear,
    /// Carry set / unsigned less (`bcs`): C.
    CarrySet,
    /// Positive (`bpos`): !N.
    Pos,
    /// Negative (`bneg`): N.
    Neg,
    /// Overflow clear (`bvc`): !V.
    OverflowClear,
    /// Overflow set (`bvs`): V.
    OverflowSet,
}

impl Cond {
    /// All conditions in encoding order.
    pub const ALL: [Cond; 16] = [
        Cond::Always,
        Cond::Never,
        Cond::Eq,
        Cond::Ne,
        Cond::Gt,
        Cond::Le,
        Cond::Ge,
        Cond::Lt,
        Cond::Gtu,
        Cond::Leu,
        Cond::CarryClear,
        Cond::CarrySet,
        Cond::Pos,
        Cond::Neg,
        Cond::OverflowClear,
        Cond::OverflowSet,
    ];

    /// Assembly mnemonic (`ba`, `be`, `bne`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Always => "ba",
            Cond::Never => "bn",
            Cond::Eq => "be",
            Cond::Ne => "bne",
            Cond::Gt => "bg",
            Cond::Le => "ble",
            Cond::Ge => "bge",
            Cond::Lt => "bl",
            Cond::Gtu => "bgu",
            Cond::Leu => "bleu",
            Cond::CarryClear => "bcc",
            Cond::CarrySet => "bcs",
            Cond::Pos => "bpos",
            Cond::Neg => "bneg",
            Cond::OverflowClear => "bvc",
            Cond::OverflowSet => "bvs",
        }
    }

    /// Evaluate the condition against a condition-code snapshot.
    pub fn eval(self, icc: Icc) -> bool {
        let Icc { n, z, v, c } = icc;
        match self {
            Cond::Always => true,
            Cond::Never => false,
            Cond::Eq => z,
            Cond::Ne => !z,
            Cond::Gt => !(z || (n ^ v)),
            Cond::Le => z || (n ^ v),
            Cond::Ge => !(n ^ v),
            Cond::Lt => n ^ v,
            Cond::Gtu => !(c || z),
            Cond::Leu => c || z,
            Cond::CarryClear => !c,
            Cond::CarrySet => c,
            Cond::Pos => !n,
            Cond::Neg => n,
            Cond::OverflowClear => !v,
            Cond::OverflowSet => v,
        }
    }
}

/// Integer condition codes: negative, zero, overflow, carry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Icc {
    /// Negative: bit 31 of the result.
    pub n: bool,
    /// Zero: result was zero.
    pub z: bool,
    /// Overflow: signed overflow occurred.
    pub v: bool,
    /// Carry: carry out (add) / borrow (sub).
    pub c: bool,
}

/// The second operand of register/immediate format instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand2 {
    /// A register operand.
    Reg(Reg),
    /// A signed 13-bit immediate in `-4096..=4095`.
    Imm(i16),
}

impl Operand2 {
    /// Range of the signed immediate form.
    pub const IMM_MIN: i32 = -4096;
    /// Range of the signed immediate form.
    pub const IMM_MAX: i32 = 4095;

    /// True when the immediate form can hold `value`.
    pub fn fits_imm(value: i32) -> bool {
        (Operand2::IMM_MIN..=Operand2::IMM_MAX).contains(&value)
    }
}

impl From<Reg> for Operand2 {
    fn from(r: Reg) -> Self {
        Operand2::Reg(r)
    }
}

impl From<i16> for Operand2 {
    fn from(v: i16) -> Self {
        assert!(
            Operand2::fits_imm(v as i32),
            "immediate {v} does not fit in 13 bits"
        );
        Operand2::Imm(v)
    }
}

impl From<i32> for Operand2 {
    fn from(v: i32) -> Self {
        assert!(
            Operand2::fits_imm(v),
            "immediate {v} does not fit in 13 bits"
        );
        Operand2::Imm(v as i16)
    }
}

impl From<u32> for Operand2 {
    fn from(v: u32) -> Self {
        assert!(v <= Operand2::IMM_MAX as u32, "immediate {v} does not fit in 13 bits");
        Operand2::Imm(v as i16)
    }
}

/// Magic (simulator-assist) channels used by [`Instr::Magic`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MagicOp {
    /// Stop simulation; the value of `rs1` is the program's exit code.
    Halt,
    /// Report `rs1` on an output channel (`imm` selects the channel); used by
    /// the workloads to publish golden checksums to the profiler.
    Report,
    /// Emit the low 8 bits of `rs1` to the console buffer (debugging aid).
    PutChar,
}

/// A decoded instruction.
///
/// Semantics notes:
/// * There are no architectural branch delay slots; control transfers take
///   effect immediately.  The *timing* cost of control transfers is modelled
///   by the simulator and depends on the `fast jump` / `ICC hold`
///   configuration parameters, mirroring the LEON2 integer unit options.
/// * `Call` writes the address of the *next* instruction into `%o7`;
///   `JmpL` writes the address of the next instruction into `rd`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// No operation.
    Nop,
    /// Register/immediate ALU operation: `rd = rs1 op op2`, optionally setting
    /// the integer condition codes.
    Alu {
        /// Operation selector.
        op: AluOp,
        /// Set the integer condition codes when true.
        cc: bool,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second operand (register or 13-bit immediate).
        op2: Operand2,
    },
    /// Load the 21-bit immediate shifted left by 11 into `rd` (`sethi`).
    Sethi {
        /// Destination register.
        rd: Reg,
        /// Immediate, placed in bits 31..11 of the destination.
        imm21: u32,
    },
    /// Hardware multiply: `rd = rs1 * op2` (low 32 bits).
    Mul {
        /// Signed or unsigned variant.
        op: MulOp,
        /// Set condition codes from the low 32-bit result when true.
        cc: bool,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second operand.
        op2: Operand2,
    },
    /// Hardware divide: `rd = rs1 / op2`.
    Div {
        /// Signed or unsigned variant.
        op: DivOp,
        /// Set condition codes from the result when true.
        cc: bool,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second operand.
        op2: Operand2,
    },
    /// Load from memory: `rd = mem[rs1 + op2]`.
    Load {
        /// Access width.
        size: MemSize,
        /// Sign-extend sub-word loads when true.
        signed: bool,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset (register or immediate).
        op2: Operand2,
    },
    /// Store to memory: `mem[rs1 + op2] = rs_data`.
    Store {
        /// Access width.
        size: MemSize,
        /// Register whose value is stored.
        rs_data: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset (register or immediate).
        op2: Operand2,
    },
    /// Conditional PC-relative branch.  `disp` is a signed displacement in
    /// *instructions* relative to the branch itself.
    Branch {
        /// Branch condition.
        cond: Cond,
        /// Signed instruction-count displacement (±2²¹).
        disp: i32,
    },
    /// Call: `%o7 = pc + 4; pc += 4 * disp`.  `disp` is a signed displacement
    /// in instructions relative to the call itself.
    Call {
        /// Signed instruction-count displacement (±2²⁵).
        disp: i32,
    },
    /// Jump and link: `rd = pc + 4; pc = rs1 + op2` (byte address).
    JmpL {
        /// Link destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset.
        op2: Operand2,
    },
    /// Decrement the current window pointer and compute `rd = rs1 + op2`
    /// using the *old* window for sources and the *new* window for `rd`.
    Save {
        /// Destination register (in the new window).
        rd: Reg,
        /// First source register (in the old window).
        rs1: Reg,
        /// Second operand (read in the old window).
        op2: Operand2,
    },
    /// Increment the current window pointer and compute `rd = rs1 + op2`
    /// using the *old* window for sources and the *new* window for `rd`.
    Restore {
        /// Destination register (in the new window).
        rd: Reg,
        /// First source register (in the old window).
        rs1: Reg,
        /// Second operand (read in the old window).
        op2: Operand2,
    },
    /// Simulator-assist instruction (halt / report / putchar).
    Magic {
        /// Operation selector.
        op: MagicOp,
        /// Source register carrying the value.
        rs1: Reg,
        /// Channel selector for [`MagicOp::Report`].
        channel: u16,
    },
}

impl Instr {
    /// True for control-transfer instructions (branches, calls, jumps).
    pub fn is_control_transfer(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. } | Instr::Call { .. } | Instr::JmpL { .. }
        )
    }

    /// True for memory access instructions.
    pub fn is_memory(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Store { .. })
    }

    /// The destination register written by this instruction, if any.
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Instr::Alu { rd, .. }
            | Instr::Sethi { rd, .. }
            | Instr::Mul { rd, .. }
            | Instr::Div { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::JmpL { rd, .. }
            | Instr::Save { rd, .. }
            | Instr::Restore { rd, .. } => Some(rd),
            Instr::Call { .. } => Some(Reg::O7),
            _ => None,
        }
    }

    /// True when this instruction reads register `r` (window-relative
    /// names) — the load-use interlock check, which runs after every load
    /// and so builds no list.
    pub fn reads(&self, r: Reg) -> bool {
        let op2_reads = |op2: &Operand2| matches!(op2, Operand2::Reg(x) if *x == r);
        match self {
            Instr::Alu { rs1, op2, .. }
            | Instr::Mul { rs1, op2, .. }
            | Instr::Div { rs1, op2, .. }
            | Instr::Load { rs1, op2, .. }
            | Instr::JmpL { rs1, op2, .. }
            | Instr::Save { rs1, op2, .. }
            | Instr::Restore { rs1, op2, .. } => *rs1 == r || op2_reads(op2),
            Instr::Store { rs_data, rs1, op2, .. } => *rs_data == r || *rs1 == r || op2_reads(op2),
            Instr::Magic { rs1, .. } => *rs1 == r,
            _ => false,
        }
    }

    /// True when this instruction sets the integer condition codes.
    pub fn sets_icc(&self) -> bool {
        matches!(
            self,
            Instr::Alu { cc: true, .. } | Instr::Mul { cc: true, .. } | Instr::Div { cc: true, .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_signed_comparisons() {
        // icc as produced by `subcc a, b`: model a - b outcomes.
        let cmp = |a: i32, b: i32| {
            let (res, borrow) = (a as u32).overflowing_sub(b as u32);
            let sres = (a as i64) - (b as i64);
            Icc {
                n: (res as i32) < 0,
                z: res == 0,
                v: sres > i32::MAX as i64 || sres < i32::MIN as i64,
                c: borrow,
            }
        };
        assert!(Cond::Eq.eval(cmp(5, 5)));
        assert!(Cond::Ne.eval(cmp(5, 6)));
        assert!(Cond::Gt.eval(cmp(7, 3)));
        assert!(Cond::Lt.eval(cmp(-4, 3)));
        assert!(Cond::Ge.eval(cmp(3, 3)));
        assert!(Cond::Le.eval(cmp(-9, -9)));
        assert!(Cond::Gtu.eval(cmp(-1, 1))); // 0xffff_ffff > 1 unsigned
        assert!(Cond::Leu.eval(cmp(1, -1)));
        assert!(Cond::Always.eval(cmp(0, 0)));
        assert!(!Cond::Never.eval(cmp(0, 0)));
    }

    #[test]
    fn operand2_immediate_bounds() {
        assert!(Operand2::fits_imm(4095));
        assert!(Operand2::fits_imm(-4096));
        assert!(!Operand2::fits_imm(4096));
        assert!(!Operand2::fits_imm(-4097));
    }

    #[test]
    #[should_panic]
    fn operand2_rejects_oversized_immediate() {
        let _: Operand2 = 5000i32.into();
    }

    #[test]
    fn dest_and_sources() {
        let i = Instr::Alu {
            op: AluOp::Add,
            cc: false,
            rd: Reg::L0,
            rs1: Reg::L1,
            op2: Operand2::Reg(Reg::L2),
        };
        assert_eq!(i.dest(), Some(Reg::L0));
        assert!(i.reads(Reg::L1) && i.reads(Reg::L2));
        assert!(!i.reads(Reg::L0), "the destination is not a source");

        let st = Instr::Store {
            size: MemSize::Word,
            rs_data: Reg::O0,
            rs1: Reg::O1,
            op2: Operand2::Imm(4),
        };
        assert_eq!(st.dest(), None);
        assert!(st.reads(Reg::O0) && st.reads(Reg::O1));
        assert!(!st.reads(Reg::O2), "an immediate operand reads no register");

        let call = Instr::Call { disp: 16 };
        assert_eq!(call.dest(), Some(Reg::O7));
        assert!(call.is_control_transfer());
    }

    #[test]
    fn mem_sizes() {
        assert_eq!(MemSize::Byte.bytes(), 1);
        assert_eq!(MemSize::Half.bytes(), 2);
        assert_eq!(MemSize::Word.bytes(), 4);
    }
}
