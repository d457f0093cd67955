//! The traced instruction set.
//!
//! Swift-Sim is a performance model, not a functional simulator, so the
//! traced ISA captures what matters for timing: which execution unit an
//! instruction occupies, how long it runs uncontended, and whether it
//! touches memory. Opcode mnemonics follow NVIDIA SASS naming so traces read
//! naturally next to real NVBit output.

use crate::error::TraceError;
use std::fmt;

/// Memory space targeted by a load/store instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Global memory (device DRAM, cached in L1/L2).
    Global,
    /// Local (per-thread spill) memory; same hierarchy as global.
    Local,
    /// On-chip shared memory (scratchpad, banked).
    Shared,
    /// Constant memory (read-only, served by the constant cache).
    Const,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSpace::Global => f.write_str("global"),
            MemSpace::Local => f.write_str("local"),
            MemSpace::Shared => f.write_str("shared"),
            MemSpace::Const => f.write_str("const"),
        }
    }
}

impl std::str::FromStr for MemSpace {
    type Err = TraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "global" => Ok(MemSpace::Global),
            "local" => Ok(MemSpace::Local),
            "shared" => Ok(MemSpace::Shared),
            "const" => Ok(MemSpace::Const),
            other => Err(TraceError::invalid_value("memory space", other)),
        }
    }
}

/// Coarse timing class of an opcode; determines which execution unit the
/// instruction occupies (Fig. 1's INT / SP / DP / SFU / tensor / LD-ST
/// split) plus control classes handled by the scheduler itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpcodeClass {
    /// Integer ALU.
    Int,
    /// Single-precision floating point.
    Sp,
    /// Double-precision floating point.
    Dp,
    /// Special-function unit (transcendentals).
    Sfu,
    /// Tensor core (matrix-multiply-accumulate).
    Tensor,
    /// Memory access through the LD/ST units.
    Memory,
    /// Control flow (branches) — resolved at issue.
    Control,
    /// Block-wide barrier.
    Barrier,
    /// Thread exit.
    Exit,
}

/// A traced SASS-style opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // mnemonics are documented as a group below
pub enum Opcode {
    // Integer pipe.
    Iadd,
    Imad,
    Imul,
    Isetp,
    Shf,
    Lop3,
    Mov,
    Shfl,
    // Single-precision pipe (CUDA cores).
    Fadd,
    Fmul,
    Ffma,
    Fsetp,
    // Double-precision pipe.
    Dadd,
    Dmul,
    Dfma,
    // Special-function unit.
    Mufu,
    // Tensor cores.
    Hmma,
    // Memory.
    Ldg,
    Stg,
    Ldl,
    Stl,
    Lds,
    Sts,
    Ldc,
    // Control.
    Bra,
    Bar,
    Exit,
    Nop,
}

impl Opcode {
    /// All opcodes, for iteration in tests and generators.
    pub const ALL: [Opcode; 28] = [
        Opcode::Iadd,
        Opcode::Imad,
        Opcode::Imul,
        Opcode::Isetp,
        Opcode::Shf,
        Opcode::Lop3,
        Opcode::Mov,
        Opcode::Shfl,
        Opcode::Fadd,
        Opcode::Fmul,
        Opcode::Ffma,
        Opcode::Fsetp,
        Opcode::Dadd,
        Opcode::Dmul,
        Opcode::Dfma,
        Opcode::Mufu,
        Opcode::Hmma,
        Opcode::Ldg,
        Opcode::Stg,
        Opcode::Ldl,
        Opcode::Stl,
        Opcode::Lds,
        Opcode::Sts,
        Opcode::Ldc,
        Opcode::Bra,
        Opcode::Bar,
        Opcode::Exit,
        Opcode::Nop,
    ];

    /// The opcode's position in [`Opcode::ALL`], which is its byte in an
    /// SSTB trace.
    pub(crate) const fn index(self) -> u8 {
        self as u8
    }

    /// The timing class of this opcode.
    pub fn class(self) -> OpcodeClass {
        match self {
            Opcode::Iadd
            | Opcode::Imad
            | Opcode::Imul
            | Opcode::Isetp
            | Opcode::Shf
            | Opcode::Lop3
            | Opcode::Mov
            | Opcode::Shfl
            | Opcode::Nop => OpcodeClass::Int,
            Opcode::Fadd | Opcode::Fmul | Opcode::Ffma | Opcode::Fsetp => OpcodeClass::Sp,
            Opcode::Dadd | Opcode::Dmul | Opcode::Dfma => OpcodeClass::Dp,
            Opcode::Mufu => OpcodeClass::Sfu,
            Opcode::Hmma => OpcodeClass::Tensor,
            Opcode::Ldg
            | Opcode::Stg
            | Opcode::Ldl
            | Opcode::Stl
            | Opcode::Lds
            | Opcode::Sts
            | Opcode::Ldc => OpcodeClass::Memory,
            Opcode::Bra => OpcodeClass::Control,
            Opcode::Bar => OpcodeClass::Barrier,
            Opcode::Exit => OpcodeClass::Exit,
        }
    }

    /// For memory opcodes, the memory space accessed; `None` otherwise.
    pub fn mem_space(self) -> Option<MemSpace> {
        match self {
            Opcode::Ldg | Opcode::Stg => Some(MemSpace::Global),
            Opcode::Ldl | Opcode::Stl => Some(MemSpace::Local),
            Opcode::Lds | Opcode::Sts => Some(MemSpace::Shared),
            Opcode::Ldc => Some(MemSpace::Const),
            _ => None,
        }
    }

    /// Whether this opcode writes memory (as opposed to reading it).
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Stg | Opcode::Stl | Opcode::Sts)
    }

    /// Whether this opcode reads or writes memory.
    pub fn is_memory(self) -> bool {
        self.class() == OpcodeClass::Memory
    }

    /// The SASS-style mnemonic used in trace files.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Iadd => "IADD",
            Opcode::Imad => "IMAD",
            Opcode::Imul => "IMUL",
            Opcode::Isetp => "ISETP",
            Opcode::Shf => "SHF",
            Opcode::Lop3 => "LOP3",
            Opcode::Mov => "MOV",
            Opcode::Shfl => "SHFL",
            Opcode::Fadd => "FADD",
            Opcode::Fmul => "FMUL",
            Opcode::Ffma => "FFMA",
            Opcode::Fsetp => "FSETP",
            Opcode::Dadd => "DADD",
            Opcode::Dmul => "DMUL",
            Opcode::Dfma => "DFMA",
            Opcode::Mufu => "MUFU",
            Opcode::Hmma => "HMMA",
            Opcode::Ldg => "LDG",
            Opcode::Stg => "STG",
            Opcode::Ldl => "LDL",
            Opcode::Stl => "STL",
            Opcode::Lds => "LDS",
            Opcode::Sts => "STS",
            Opcode::Ldc => "LDC",
            Opcode::Bra => "BRA",
            Opcode::Bar => "BAR",
            Opcode::Exit => "EXIT",
            Opcode::Nop => "NOP",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

// `Opcode::index` reads the discriminant: `ALL` must list the variants in
// declaration order.
const _: () = {
    let mut i = 0;
    while i < Opcode::ALL.len() {
        assert!(Opcode::ALL[i] as usize == i);
        i += 1;
    }
};

impl std::str::FromStr for Opcode {
    type Err = TraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Opcode::ALL
            .into_iter()
            .find(|op| op.mnemonic() == s)
            .ok_or_else(|| TraceError::invalid_value("opcode", s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(op.mnemonic().parse::<Opcode>().unwrap(), op);
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {}", op);
        }
    }

    #[test]
    fn memory_classification_consistent() {
        for op in Opcode::ALL {
            assert_eq!(op.is_memory(), op.mem_space().is_some());
            if op.is_store() {
                assert!(op.is_memory());
            }
        }
    }

    #[test]
    fn stores_and_loads_share_spaces() {
        assert_eq!(Opcode::Ldg.mem_space(), Opcode::Stg.mem_space());
        assert_eq!(Opcode::Lds.mem_space(), Opcode::Sts.mem_space());
        assert_eq!(Opcode::Ldl.mem_space(), Opcode::Stl.mem_space());
        assert!(!Opcode::Ldc.is_store());
    }

    #[test]
    fn unknown_opcode_errors() {
        assert!("FROB".parse::<Opcode>().is_err());
        assert!("iadd".parse::<Opcode>().is_err(), "mnemonics are uppercase");
    }

    #[test]
    fn mem_space_round_trip() {
        for space in [
            MemSpace::Global,
            MemSpace::Local,
            MemSpace::Shared,
            MemSpace::Const,
        ] {
            assert_eq!(space.to_string().parse::<MemSpace>().unwrap(), space);
        }
    }
}
