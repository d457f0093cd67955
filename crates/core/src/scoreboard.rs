//! Per-warp register scoreboard.
//!
//! The Warp Scheduler & Dispatch module (§III-B1) may only issue an
//! instruction whose source and destination registers have no pending
//! writes — the scoreboard tracks those pending writes. It is deliberately
//! tiny and allocation-free on the hot path: pending registers are a fixed
//! 256-bit set per warp (SASS register files have at most 256 architectural
//! registers).

use swiftsim_trace::Reg;

/// The registers one instruction reads or writes, as a 256-bit set: what a
/// [`Scoreboard`] tests against its pending writes. The SM computes it once
/// when an instruction becomes a warp's head, so the per-cycle hazard test
/// is four ANDs however many sources the instruction has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegSet([u64; 4]);

impl RegSet {
    /// No register at all.
    pub(crate) const EMPTY: RegSet = RegSet([0; 4]);

    /// The set of `regs`: an instruction's destination (WAW) and sources
    /// (RAW).
    pub(crate) fn of(regs: impl IntoIterator<Item = Reg>) -> Self {
        let mut set = RegSet::EMPTY;
        for reg in regs {
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

    /// Whether none of `regs` has a pending write: no RAW hazard on an
    /// instruction's sources and no WAW hazard on its destination when
    /// `regs` is its [`RegSet::hazards_of`].
    #[inline]
    pub(crate) fn is_clear_of(&self, regs: &RegSet) -> bool {
        self.pending
            .iter()
            .zip(&regs.0)
            .all(|(pending, regs)| pending & regs == 0)
    }

    /// Record an issue by destination register alone (sources only matter
    /// at the hazard check).
    pub fn issue_dst(&mut self, dst: Option<Reg>) {
        if let Some(dst) = dst {
            let (word, mask) = Self::bit(dst);
            self.pending[word] |= mask;
        }
    }

    /// Record the writeback of `dst` (releases the register).
    pub fn writeback(&mut self, dst: Reg) {
        let (word, mask) = Self::bit(dst);
        self.pending[word] &= !mask;
    }

    /// Whether no writes are in flight.
    pub fn is_clear(&self) -> bool {
        self.pending == [0; 4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_trace::{InstBuilder, Opcode, TraceInstruction};

    /// Whether `inst` can issue against `sb`: the SM's hazard test.
    fn can_issue(sb: &Scoreboard, inst: &TraceInstruction) -> bool {
        sb.is_clear_of(&RegSet::of(
            inst.dst.into_iter().chain(inst.srcs.iter().copied()),
        ))
    }

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        let producer = InstBuilder::new(Opcode::Iadd).dst(5).src(1).build();
        let consumer = InstBuilder::new(Opcode::Fadd).dst(6).src(5).build();
        assert!(can_issue(&sb, &producer));
        sb.issue_dst(producer.dst);
        assert!(!can_issue(&sb, &consumer), "RAW on R5");
        sb.writeback(Reg(5));
        assert!(can_issue(&sb, &consumer));
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        let first = InstBuilder::new(Opcode::Iadd).dst(5).build();
        let second = InstBuilder::new(Opcode::Imul).dst(5).build();
        sb.issue_dst(first.dst);
        assert!(!can_issue(&sb, &second), "WAW on R5");
        sb.writeback(Reg(5));
        assert!(can_issue(&sb, &second));
    }

    #[test]
    fn independent_instructions_flow() {
        let mut sb = Scoreboard::new();
        sb.issue_dst(Some(Reg(1)));
        let other = InstBuilder::new(Opcode::Fadd).dst(2).src(3).build();
        assert!(can_issue(&sb, &other));
    }

    #[test]
    fn no_dst_instructions_always_reissue() {
        let mut sb = Scoreboard::new();
        let store = InstBuilder::new(Opcode::Stg)
            .src(1)
            .global_strided(0, 4, 4)
            .build();
        sb.issue_dst(store.dst);
        assert!(sb.is_clear());
        assert!(can_issue(&sb, &store));
    }

    #[test]
    fn outstanding_counts_unique_registers() {
        let mut sb = Scoreboard::new();
        sb.issue_dst(Some(Reg(1)));
        sb.issue_dst(Some(Reg(2)));
        sb.writeback(Reg(1));
        assert!(!sb.is_clear());
        // Double writeback is harmless.
        sb.writeback(Reg(1));
        assert!(!sb.is_clear());
        sb.writeback(Reg(2));
        assert!(sb.is_clear());
    }

    #[test]
    fn high_register_numbers_wrap_into_range() {
        let mut sb = Scoreboard::new();
        sb.issue_dst(Some(Reg(255)));
        let reader = InstBuilder::new(Opcode::Iadd).dst(1).src(255).build();
        assert!(!can_issue(&sb, &reader));
        sb.writeback(Reg(255));
        assert!(sb.is_clear());
    }
}
