//! Per-warp register scoreboard.
//!
//! The Warp Scheduler & Dispatch module (§III-B1) may only issue an
//! instruction whose source and destination registers have no pending
//! writes — the scoreboard tracks those pending writes. It is deliberately
//! tiny and allocation-free on the hot path: pending registers are a fixed
//! 256-bit set per warp (SASS register files have at most 256 architectural
//! registers).

use swiftsim_trace::{Reg, TraceInstruction};

/// The registers one instruction reads or writes, as a 256-bit set: what a
/// [`Scoreboard`] tests against its pending writes. The SM computes it once
/// when an instruction becomes a warp's head, so the per-cycle hazard test
/// is four ANDs however many sources the instruction has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegSet([u64; 4]);

impl RegSet {
    /// No register at all.
    pub(crate) const EMPTY: RegSet = RegSet([0; 4]);

    /// Destination (WAW) and sources (RAW) of `inst`.
    pub(crate) fn hazards_of(inst: &TraceInstruction) -> Self {
        let mut set = RegSet::EMPTY;
        for &reg in inst.dst.iter().chain(inst.srcs.iter()) {
            let (word, mask) = Scoreboard::bit(reg);
            set.0[word] |= mask;
        }
        set
    }
}

/// Pending-write tracker for one warp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scoreboard {
    pending: [u64; 4],
    outstanding: u32,
}

impl Scoreboard {
    /// Create an empty scoreboard.
    pub fn new() -> Self {
        Scoreboard::default()
    }

    #[inline]
    fn bit(reg: Reg) -> (usize, u64) {
        let r = usize::from(reg.0) & 0xff;
        (r / 64, 1u64 << (r % 64))
    }

    /// Whether `reg` has a pending write.
    pub fn is_pending(&self, reg: Reg) -> bool {
        let (word, mask) = Self::bit(reg);
        self.pending[word] & mask != 0
    }

    /// Whether `inst` can issue: no RAW hazard on its sources and no WAW
    /// hazard on its destination.
    pub fn can_issue(&self, inst: &TraceInstruction) -> bool {
        self.is_clear_of(&RegSet::hazards_of(inst))
    }

    /// Whether none of `regs` has a pending write.
    #[inline]
    pub(crate) fn is_clear_of(&self, regs: &RegSet) -> bool {
        self.pending
            .iter()
            .zip(&regs.0)
            .all(|(pending, regs)| pending & regs == 0)
    }

    /// Record the issue of `inst` (reserves its destination register).
    pub fn issue(&mut self, inst: &TraceInstruction) {
        self.issue_dst(inst.dst);
    }

    /// Record an issue by destination register alone (hot-path variant:
    /// sources only matter at the [`Scoreboard::can_issue`] check).
    pub fn issue_dst(&mut self, dst: Option<Reg>) {
        if let Some(dst) = dst {
            let (word, mask) = Self::bit(dst);
            if self.pending[word] & mask == 0 {
                self.pending[word] |= mask;
                self.outstanding += 1;
            }
        }
    }

    /// Record the writeback of `dst` (releases the register).
    pub fn writeback(&mut self, dst: Reg) {
        let (word, mask) = Self::bit(dst);
        if self.pending[word] & mask != 0 {
            self.pending[word] &= !mask;
            self.outstanding -= 1;
        }
    }

    /// Number of registers with writes in flight.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Whether no writes are in flight.
    pub fn is_clear(&self) -> bool {
        self.outstanding == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_trace::{InstBuilder, Opcode};

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        let producer = InstBuilder::new(Opcode::Iadd).dst(5).src(1).build();
        let consumer = InstBuilder::new(Opcode::Fadd).dst(6).src(5).build();
        assert!(sb.can_issue(&producer));
        sb.issue(&producer);
        assert!(!sb.can_issue(&consumer), "RAW on R5");
        sb.writeback(Reg(5));
        assert!(sb.can_issue(&consumer));
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        let first = InstBuilder::new(Opcode::Iadd).dst(5).build();
        let second = InstBuilder::new(Opcode::Imul).dst(5).build();
        sb.issue(&first);
        assert!(!sb.can_issue(&second), "WAW on R5");
        sb.writeback(Reg(5));
        assert!(sb.can_issue(&second));
    }

    #[test]
    fn independent_instructions_flow() {
        let mut sb = Scoreboard::new();
        sb.issue(&InstBuilder::new(Opcode::Iadd).dst(1).build());
        let other = InstBuilder::new(Opcode::Fadd).dst(2).src(3).build();
        assert!(sb.can_issue(&other));
    }

    #[test]
    fn no_dst_instructions_always_reissue() {
        let mut sb = Scoreboard::new();
        let store = InstBuilder::new(Opcode::Stg)
            .src(1)
            .global_strided(0, 4, 4)
            .build();
        sb.issue(&store);
        assert!(sb.is_clear());
        assert!(sb.can_issue(&store));
    }

    #[test]
    fn outstanding_counts_unique_registers() {
        let mut sb = Scoreboard::new();
        sb.issue(&InstBuilder::new(Opcode::Iadd).dst(1).build());
        sb.issue(&InstBuilder::new(Opcode::Iadd).dst(2).build());
        assert_eq!(sb.outstanding(), 2);
        sb.writeback(Reg(1));
        assert_eq!(sb.outstanding(), 1);
        // Double writeback is harmless.
        sb.writeback(Reg(1));
        assert_eq!(sb.outstanding(), 1);
        sb.writeback(Reg(2));
        assert!(sb.is_clear());
    }

    #[test]
    fn high_register_numbers_wrap_into_range() {
        let mut sb = Scoreboard::new();
        sb.issue(&InstBuilder::new(Opcode::Iadd).dst(255).build());
        assert!(sb.is_pending(Reg(255)));
        sb.writeback(Reg(255));
        assert!(sb.is_clear());
    }
}
