//! The streaming-multiprocessor model: sub-cores, Warp Scheduler &
//! Dispatch, scoreboard, execution-unit dispatch, LD/ST units, shared
//! memory, barriers, and the (simplifiable) instruction/constant caches.
//!
//! The SM implements the GPU execution model of §III-B1: blocks arrive from
//! the Block Scheduler; each cycle every sub-core's scheduler selects a
//! ready warp and issues one instruction; arithmetic goes to the execution
//! units (through the [`AluModel`] interface), loads/stores go through the
//! LD/ST units to the memory system (through the [`MemorySystem`]
//! interface); instruction-completion acknowledgments release scoreboard
//! entries and wake dependent warps.
//!
//! # Storage layout
//!
//! Warp instruction windows live in flat structure-of-arrays storage: warp
//! `w` of block slot `s` is index `s * stride + w` into parallel vectors
//! (instruction slice, program counter, head, state, scoreboard). The
//! per-cycle scan walks contiguous arrays instead of chasing
//! `Vec<Option<Block>> -> Vec<Warp>` pointers, keeping the hot loop
//! cache-friendly.
//!
//! Which warps are live, at a barrier, or parked is not stored per warp but
//! in per-sub-core bitmasks ([`SubCore`]), so the issue scan visits only the
//! warps that could issue and the policy picks from a ready mask (DESIGN.md,
//! "Warp issue stage").
//!
//! The decoded trace itself is the one structure too large for any cache,
//! so the scan never reads it: everything the issue decision needs from a
//! warp's next instruction is copied into its [`Head`] when the program
//! counter moves onto that instruction. The trace is read once per dynamic
//! instruction (that copy) and once more at issue for a memory payload.
//!
//! # Settling (event-driven engine)
//!
//! The SM measures its own per-cycle stat
//! delta: after two consecutive *quiescent* ticks (nothing issued, retired
//! or unparked, no warp held up by a busy port, no writeback drained in the
//! second) every further tick would repeat the second one's delta exactly
//! until a writeback comes due, a completion or block arrives, or the LD/ST
//! queue accepts again. The engine then stops ticking the SM and credits it
//! the delta per skipped cycle (`gpu.rs`, "Sleeping SMs"); the dense test
//! oracle never does, so `event_engine_equiv.rs` genuinely exercises this.

use crate::alu::AluModel;
use crate::scheduler::{IssueMasks, WarpSchedulerPolicy};
use crate::scoreboard::{RegSet, Scoreboard};
use crate::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use swiftsim_config::{ExecUnitKind, SmConfig};
use swiftsim_mem::AddressMapping;
use swiftsim_metrics::{ProfModule, Profiler};
use swiftsim_trace::{AddressList, BlockTrace, MemSpace, OpcodeClass, Reg, TraceInstruction};

use crate::mem_system::{CoalesceScratch, MemReply, MemorySystem};

/// Issue-stall breakdown per SM (Metrics Gatherer counters, §III-C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // self-describing counters
pub struct SmStats {
    pub issued: u64,
    pub mem_insts: u64,
    pub stall_scoreboard: u64,
    pub stall_unit_busy: u64,
    pub stall_barrier: u64,
    pub stall_empty: u64,
    pub shared_bank_conflicts: u64,
    pub icache_misses: u64,
    pub ccache_misses: u64,
    pub active_cycles: u64,
}

/// Apply `op` to every counter pair of two [`SmStats`].
macro_rules! for_each_stat {
    ($a:expr, $b:expr, $op:expr) => {{
        let (a, b, op) = ($a, $b, $op);
        op(&mut a.issued, b.issued);
        op(&mut a.mem_insts, b.mem_insts);
        op(&mut a.stall_scoreboard, b.stall_scoreboard);
        op(&mut a.stall_unit_busy, b.stall_unit_busy);
        op(&mut a.stall_barrier, b.stall_barrier);
        op(&mut a.stall_empty, b.stall_empty);
        op(&mut a.shared_bank_conflicts, b.shared_bank_conflicts);
        op(&mut a.icache_misses, b.icache_misses);
        op(&mut a.ccache_misses, b.ccache_misses);
        op(&mut a.active_cycles, b.active_cycles);
    }};
}

impl SmStats {
    /// Accumulate `other` into `self`.
    pub(crate) fn add(&mut self, other: &SmStats) {
        for_each_stat!(self, other, |a: &mut u64, b: u64| *a += b);
    }

    /// The per-field difference `self - earlier` (counters only grow).
    pub(crate) fn delta_since(&self, earlier: &SmStats) -> SmStats {
        let mut d = *self;
        for_each_stat!(&mut d, earlier, |a: &mut u64, b: u64| *a -= b);
        d
    }

    /// Accumulate `delta` scaled by `n` — replaying `n` identical quiescent
    /// cycles at once.
    pub(crate) fn add_scaled(&mut self, delta: &SmStats, n: u64) {
        for_each_stat!(self, delta, |a: &mut u64, b: u64| *a += b * n);
    }
}

/// One sub-core's issue stage: its scheduling policy and the state of its
/// warps, one bit each. Warp `w` of block slot `s` is bit
/// `s * slot_bits + w / sub_cores` of sub-core `w % sub_cores`, so bit
/// order is scan order (block slot, then warp). The SM updates the masks
/// where the state changes; they are its only copy of it.
struct SubCore {
    policy: Box<dyn WarpSchedulerPolicy>,
    /// Resident warps that have not exited.
    live: u64,
    /// Live warps waiting at their block's barrier.
    at_barrier: u64,
    /// Live warps parked on a scoreboard hazard or a full LD/ST queue: not
    /// re-checked until one of their pending writebacks lands or the memory
    /// system accepts again (readiness cannot change before then).
    parked: u64,
    /// SoA index of the warp behind each bit (the layout above, inverted
    /// once per kernel so the scan never divides).
    warp_index: [u8; 64],
}

impl SubCore {
    /// The warps a scan must check: live, not at a barrier, not parked.
    fn candidates(&self) -> u64 {
        self.live & !(self.at_barrier | self.parked)
    }
}

/// What a warp's next instruction issues through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadKind {
    /// An execution unit's issue port (`LdSt` = a memory instruction).
    Unit(ExecUnitKind),
    /// Block barrier: handled by the scheduler itself.
    Barrier,
    /// Thread exit: handled by the scheduler itself, once every write of
    /// the warp has landed.
    Exit,
    /// The instruction stream ran out without an exit.
    Empty,
}

/// The issue-relevant fields of a warp's next instruction, copied out of
/// the trace by [`Head::of`] whenever `w_next` moves.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// Registers the scoreboard must have no pending write on.
    hazards: RegSet,
    pc: u32,
    dst: Option<Reg>,
    kind: HeadKind,
}

impl Head {
    const EMPTY: Head = Head {
        hazards: RegSet::EMPTY,
        pc: 0,
        dst: None,
        kind: HeadKind::Empty,
    };

    fn of(inst: Option<&TraceInstruction>) -> Head {
        let Some(inst) = inst else {
            return Head::EMPTY;
        };
        Head {
            hazards: RegSet::hazards_of(inst),
            pc: inst.pc,
            dst: inst.dst,
            kind: match inst.opcode.class() {
                OpcodeClass::Int | OpcodeClass::Control => HeadKind::Unit(ExecUnitKind::Int),
                OpcodeClass::Sp => HeadKind::Unit(ExecUnitKind::Sp),
                OpcodeClass::Dp => HeadKind::Unit(ExecUnitKind::Dp),
                OpcodeClass::Sfu => HeadKind::Unit(ExecUnitKind::Sfu),
                OpcodeClass::Tensor => HeadKind::Unit(ExecUnitKind::Tensor),
                OpcodeClass::Memory => HeadKind::Unit(ExecUnitKind::LdSt),
                OpcodeClass::Barrier => HeadKind::Barrier,
                OpcodeClass::Exit => HeadKind::Exit,
            },
        }
    }
}

/// Simplified instruction + constant caches.
///
/// The detailed preset models both as small direct-mapped tag arrays whose
/// misses delay the instruction; Swift-Sim-Basic "simplif\[ies\] less
/// critical modules like instruction cache, constant cache" (§IV-A3) to
/// always-hit.
#[derive(Debug)]
struct FrontendCaches {
    detailed: bool,
    itags: Vec<u64>,
    ctags: Vec<u64>,
    imiss_latency: Cycle,
    cmiss_latency: Cycle,
    /// Re-probe passes ([`SmCore::detailed_core_tick`]) since a warp head,
    /// live bit or instruction tag last changed, capped at 2.
    quiet_passes: u8,
    /// Instruction-cache misses of the last pass that walked; once two
    /// walked with nothing changed, every further pass repeats it.
    quiet_pass_misses: u64,
}

impl FrontendCaches {
    fn new(detailed: bool) -> Self {
        FrontendCaches {
            detailed,
            itags: vec![u64::MAX; 256],
            ctags: vec![u64::MAX; 128],
            imiss_latency: 20,
            cmiss_latency: 40,
            quiet_passes: 0,
            quiet_pass_misses: 0,
        }
    }

    /// Extra fetch latency for the instruction at `pc`.
    fn fetch_penalty(&mut self, pc: u32, stats: &mut SmStats) -> Cycle {
        if !self.detailed {
            return 0;
        }
        // 128 B instruction lines, direct mapped.
        let line = u64::from(pc) >> 7;
        let set = (line as usize) % self.itags.len();
        if self.itags[set] == line {
            0
        } else {
            self.itags[set] = line;
            stats.icache_misses += 1;
            self.imiss_latency
        }
    }

    /// Extra latency for a constant-memory access at `addr`.
    fn const_penalty(&mut self, addr: u64, stats: &mut SmStats) -> Cycle {
        if !self.detailed {
            return 0;
        }
        let line = addr >> 6;
        let set = (line as usize) % self.ctags.len();
        if self.ctags[set] == line {
            0
        } else {
            self.ctags[set] = line;
            stats.ccache_misses += 1;
            self.cmiss_latency
        }
    }
}

/// Reference to a pending writeback target inside an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WbTarget {
    pub slot: usize,
    pub warp: usize,
    pub reg: Reg,
}

/// What one SM tick produced, for the top-level run loop. Owned by the
/// caller and handed to every [`SmCore::tick`], so its two lists keep
/// their capacity instead of allocating on each tick that retires a block
/// or issues a memory instruction.
#[derive(Debug, Default)]
pub(crate) struct TickOutcome {
    /// Instructions issued this cycle across sub-cores.
    pub issued: u32,
    /// Global block ids that completed this cycle.
    pub completed_blocks: Vec<usize>,
    /// Whether some warp was blocked only by a busy issue port this cycle
    /// (such stalls resolve within an initiation interval, so idle-skipping
    /// simulators must not jump past them).
    pub unit_busy_stall: bool,
    /// Pending memory tokens issued this cycle: (token, writeback target).
    pub new_tokens: Vec<(u64, WbTarget)>,
}

impl TickOutcome {
    fn reset(&mut self) {
        self.issued = 0;
        self.completed_blocks.clear();
        self.unit_busy_stall = false;
        self.new_tokens.clear();
    }
}

/// One streaming multiprocessor.
pub(crate) struct SmCore<'a> {
    id: usize,
    /// Global SM id for diagnostics. Under sharded execution `id` is the
    /// shard-local index the memory system keys ports by, while this is
    /// the id a user can find in the profile/trace.
    global_id: usize,
    cfg: SmConfig,
    subs: Vec<SubCore>,
    /// Warps per block slot: warp `w` of slot `s` is SoA index
    /// `s * stride + w`. Uniform per kernel (`is_consistent` is checked
    /// before cores are built).
    stride: usize,
    /// Mask bits per block slot in each sub-core: `ceil(stride / sub_cores)`.
    slot_bits: u32,
    /// Per-warp SoA arrays, length `slots * stride`.
    w_insts: Vec<&'a [TraceInstruction]>,
    w_next: Vec<u32>,
    /// `Head::of(w_insts[i].get(w_next[i]))`, refreshed only where
    /// `w_next` changes ([`SmCore::install_block`], [`SmCore::advance`]).
    w_head: Vec<Head>,
    w_scoreboard: Vec<Scoreboard>,
    /// Per-slot SoA arrays, length `slots`.
    s_occupied: Vec<bool>,
    s_global_block: Vec<usize>,
    s_barrier_waiting: Vec<u32>,
    s_live_warps: Vec<u32>,
    s_age: Vec<Cycle>,
    /// Occupied slots (cached `s_occupied.iter().filter(..).count()`).
    resident: u32,
    wb_events: BinaryHeap<Reverse<(Cycle, usize, usize, u16)>>,
    alu: Box<dyn AluModel>,
    frontend: FrontendCaches,
    mapping: AddressMapping,
    stats: SmStats,
    /// Warps parked on a full LD/ST queue, woken in bulk when the memory
    /// system accepts again.
    mem_parked: Vec<(usize, usize)>,
    /// Reused LD/ST coalescer buffers (no allocation per memory
    /// instruction).
    coalescer: CoalesceScratch,
    /// Whether the SM may settle (off only under the dense test oracle;
    /// module docs).
    event_driven: bool,
    /// Consecutive quiescent ticks observed, capped at 2 (the point at
    /// which the per-tick delta is provably constant: the icache re-probe
    /// count and scheduler no-pick state have reached their fixed points).
    q_streak: u8,
    /// The measured per-tick stat delta, valid while `q_streak >= 2`.
    q_delta: SmStats,
    /// Cycles ticked or credited, and instructions of installed blocks
    /// neither issued nor cut off behind an issued EXIT (kernel-end checks).
    cycles: u64,
    insts_left: u64,
}

impl std::fmt::Debug for SmCore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmCore")
            .field("id", &self.id)
            .field("resident_blocks", &self.resident)
            .finish()
    }
}

impl<'a> SmCore<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        global_id: usize,
        cfg: &SmConfig,
        slots: usize,
        warps_per_block: usize,
        alu: Box<dyn AluModel>,
        detailed_frontend: bool,
        event_driven: bool,
        make_scheduler: &dyn Fn() -> Box<dyn WarpSchedulerPolicy>,
    ) -> Self {
        let n = slots * warps_per_block;
        let slot_bits = warps_per_block.div_ceil(cfg.sub_cores as usize).max(1);
        // `Occupancy` keeps `slots * warps_per_block` within `max_warps`,
        // which `SmConfig::validate` caps at 64.
        assert!(
            slots * slot_bits <= 64,
            "{slots} block slots of {warps_per_block} warps exceed a sub-core's 64 warp bits"
        );
        let sub_cores = cfg.sub_cores as usize;
        let mut subs: Vec<SubCore> = (0..sub_cores)
            .map(|_| SubCore {
                policy: make_scheduler(),
                live: 0,
                at_barrier: 0,
                parked: 0,
                warp_index: [0; 64],
            })
            .collect();
        for i in 0..n {
            let (slot, w) = (i / warps_per_block, i % warps_per_block);
            subs[w % sub_cores].warp_index[slot * slot_bits + w / sub_cores] = i as u8;
        }
        SmCore {
            id,
            global_id,
            cfg: cfg.clone(),
            subs,
            stride: warps_per_block,
            slot_bits: slot_bits as u32,
            w_insts: vec![&[]; n],
            w_next: vec![0; n],
            w_head: vec![Head::EMPTY; n],
            w_scoreboard: (0..n).map(|_| Scoreboard::new()).collect(),
            s_occupied: vec![false; slots],
            s_global_block: vec![0; slots],
            s_barrier_waiting: vec![0; slots],
            s_live_warps: vec![0; slots],
            s_age: vec![0; slots],
            resident: 0,
            wb_events: BinaryHeap::new(),
            alu,
            frontend: FrontendCaches::new(detailed_frontend),
            mapping: AddressMapping::new(&cfg.l1d),
            stats: SmStats::default(),
            mem_parked: Vec::new(),
            coalescer: CoalesceScratch::default(),
            event_driven,
            q_streak: 0,
            q_delta: SmStats::default(),
            cycles: 0,
            insts_left: 0,
        }
    }

    /// Install a traced block into a free slot.
    ///
    /// # Panics
    ///
    /// Panics if no slot is free (the block scheduler counts them)
    /// or if the block's warp count differs from the kernel-uniform stride.
    pub(crate) fn install_block(&mut self, global_block: usize, block: &'a BlockTrace, now: Cycle) {
        let slot = self
            .s_occupied
            .iter()
            .position(|occ| !occ)
            .expect("install_block requires a free slot");
        let warps = block.warps();
        assert_eq!(
            warps.len(),
            self.stride,
            "block warp count must match the kernel-uniform stride"
        );
        // A slot frees only once its last warp exits, so its bits are clear
        // (`at_barrier` and `parked` only ever hold live warps).
        let slot_mask = self.slot_mask(slot);
        debug_assert!(self.subs.iter().all(|sub| sub.live & slot_mask == 0));
        let mut live = 0u32;
        for (w, warp) in warps.iter().enumerate() {
            let i = slot * self.stride + w;
            self.w_insts[i] = warp.instructions();
            self.w_next[i] = 0;
            self.w_head[i] = Head::of(warp.instructions().first());
            self.w_scoreboard[i] = Scoreboard::new();
            if !warp.is_empty() {
                live += 1;
                let (sc, bit) = self.warp_bit(slot, w);
                self.subs[sc].live |= bit;
            }
        }
        self.s_occupied[slot] = true;
        self.s_global_block[slot] = global_block;
        self.s_barrier_waiting[slot] = 0;
        self.s_live_warps[slot] = live;
        self.s_age[slot] = now;
        self.resident += 1;
        self.q_streak = 0;
        self.frontend.quiet_passes = 0;
        self.insts_left += block.num_insts();
    }

    /// Whether any block is resident.
    pub(crate) fn is_active(&self) -> bool {
        self.resident > 0
    }

    /// The sub-core and mask bit of warp `w` of block slot `slot`.
    fn warp_bit(&self, slot: usize, w: usize) -> (usize, u64) {
        let sub_cores = self.subs.len();
        let bit = slot * self.slot_bits as usize + w / sub_cores;
        (w % sub_cores, 1 << bit)
    }

    /// The bits of block slot `slot` in every sub-core's masks.
    fn slot_mask(&self, slot: usize) -> u64 {
        (u64::MAX >> (64 - self.slot_bits)) << (slot as u32 * self.slot_bits)
    }

    /// Clear the parked bit of warp `w` of `slot`; returns whether it was
    /// set.
    fn unpark(&mut self, slot: usize, w: usize) -> bool {
        let (sc, bit) = self.warp_bit(slot, w);
        let parked = &mut self.subs[sc].parked;
        let was_parked = *parked & bit != 0;
        *parked &= !bit;
        was_parked
    }

    /// Apply a writeback immediately (memory completion path). A register
    /// of `u16::MAX` marks a completion nobody waits on (a rare dst-less
    /// pending access) and is ignored.
    pub(crate) fn writeback_now(&mut self, target: WbTarget) {
        self.q_streak = 0;
        if target.reg.0 == u16::MAX {
            return;
        }
        if self.s_occupied[target.slot] {
            let i = target.slot * self.stride + target.warp;
            self.w_scoreboard[i].writeback(target.reg);
            self.unpark(target.slot, target.warp);
        }
    }

    /// Stats snapshot.
    pub(crate) fn stats(&self) -> SmStats {
        self.stats
    }

    /// Whether the per-tick delta is measured and repeats until something
    /// wakes the SM (module docs). Never under the dense engine.
    pub(crate) fn is_settled(&self) -> bool {
        self.q_streak >= 2
    }

    /// Account `cycles` unticked cycles of a settled SM, each exactly as
    /// the dense loop would have ticked it.
    pub(crate) fn credit(&mut self, cycles: u64, prof: &mut Profiler) {
        debug_assert!(self.is_settled(), "only a settled SM is credited");
        self.cycles += cycles;
        self.stats.add_scaled(&self.q_delta, cycles);
        prof.add_cycles(
            ProfModule::WarpScheduler,
            self.q_delta.active_cycles * cycles,
        );
    }

    /// Whether some warp waits for the LD/ST queue to accept again.
    pub(crate) fn waits_on_mem_queue(&self) -> bool {
        !self.mem_parked.is_empty()
    }

    /// The cycle of the earliest pending writeback.
    pub(crate) fn next_writeback(&self) -> Option<Cycle> {
        self.wb_events.peek().map(|Reverse((at, ..))| *at)
    }

    /// Kernel-end conservation checks (debug builds): each of the kernel's
    /// `cycles` accounted exactly once, ticked or credited, and with no
    /// block resident, no writeback, parked warp, scoreboard entry or
    /// unissued instruction left.
    pub(crate) fn check_kernel_end(&self, cycles: u64) {
        let sm = self.global_id;
        debug_assert_eq!(self.cycles, cycles, "SM {sm}: cycles accounted");
        debug_assert!(
            self.is_active()
                || self.wb_events.is_empty()
                    && self.mem_parked.is_empty()
                    && self.insts_left == 0
                    && self.w_scoreboard.iter().all(Scoreboard::is_clear),
            "SM {sm}: writebacks, parked warps, instructions or scoreboard entries left"
        );
    }

    /// Describe the oldest still-live warp on this SM, for deadlock
    /// diagnostics. `None` when no block is resident.
    pub(crate) fn oldest_stalled(&self) -> Option<String> {
        let mut oldest: Option<(Cycle, usize, usize)> = None;
        for slot in 0..self.s_occupied.len() {
            if !self.s_occupied[slot] {
                continue;
            }
            for w in 0..self.stride {
                let (sc, bit) = self.warp_bit(slot, w);
                if self.subs[sc].live & bit == 0 {
                    continue;
                }
                let key = (self.s_age[slot], slot, w);
                if oldest.is_none_or(|o| key < o) {
                    oldest = Some(key);
                }
            }
        }
        let (_, slot, w) = oldest?;
        let i = slot * self.stride + w;
        let (sc, bit) = self.warp_bit(slot, w);
        let sub = &self.subs[sc];
        let why = if sub.at_barrier & bit != 0 {
            "at barrier".to_owned()
        } else {
            let pos = format!("at inst {}/{}", self.w_next[i], self.w_insts[i].len());
            if sub.parked & bit != 0 {
                format!("{pos}, parked on a pending writeback or full LD/ST queue")
            } else {
                pos
            }
        };
        Some(format!(
            "SM {} block {} warp {w} {why}",
            self.global_id, self.s_global_block[slot]
        ))
    }

    /// Apply a memory reply that the coordinator resolved during its commit
    /// phase for a worker shard: exactly what the `MemReply::Done` arm of
    /// the LD/ST path does at issue time on shard 0 (LD/ST latency
    /// attribution plus a future writeback event), deferred to just before
    /// the next compute phase.
    pub(crate) fn apply_deferred_done(
        &mut self,
        target: WbTarget,
        at: Cycle,
        issue_now: Cycle,
        prof: &mut Profiler,
    ) {
        prof.add_cycles(ProfModule::LdSt, at.saturating_sub(issue_now));
        if target.reg.0 != u16::MAX {
            self.wb_events
                .push(Reverse((at, target.slot, target.warp, target.reg.0)));
        }
    }

    /// Drain due writebacks; returns whether any event fired (even for a
    /// since-freed slot — conservative for settling).
    fn drain_writebacks(&mut self, now: Cycle) -> bool {
        let mut drained = false;
        while let Some(&Reverse((at, slot, warp, reg))) = self.wb_events.peek() {
            if at > now {
                break;
            }
            self.wb_events.pop();
            drained = true;
            if self.s_occupied[slot] {
                let i = slot * self.stride + warp;
                self.w_scoreboard[i].writeback(Reg(reg));
                self.unpark(slot, warp);
            }
        }
        drained
    }

    /// Simulate one cycle; issues at most one instruction per sub-core.
    /// `outcome` is overwritten with what the cycle produced.
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        mem: &mut dyn MemorySystem,
        prof: &mut Profiler,
        outcome: &mut TickOutcome,
    ) {
        outcome.reset();
        self.cycles += 1;
        let stats_before = self.stats;
        let t0 = prof.start();
        let drained = self.drain_writebacks(now);
        prof.record(ProfModule::Alu, t0);

        if self.is_active() {
            self.stats.active_cycles += 1;
            prof.add_cycles(ProfModule::WarpScheduler, 1);
        }

        if self.frontend.detailed {
            let t0 = prof.start();
            self.detailed_core_tick();
            prof.record(ProfModule::WarpScheduler, t0);
        }
        let mem_ok = mem.can_accept(self.id);
        let mut unparked = false;
        if mem_ok && !self.mem_parked.is_empty() {
            let parked = std::mem::take(&mut self.mem_parked);
            for (slot, w) in parked {
                if self.s_occupied[slot] && self.unpark(slot, w) {
                    unparked = true;
                }
            }
        }
        if !self.frontend.detailed && self.subs.iter().all(|sub| sub.candidates() == 0) {
            // Hybrid fast path: every warp is parked, at a barrier, or
            // done — no scheduler can issue, so skip the scan entirely.
            if self.is_active() {
                self.stats.stall_scoreboard += u64::from(self.cfg.sub_cores);
            }
            self.note_quiescence(&stats_before, outcome, drained, unparked);
            return;
        }
        for sc in 0..self.cfg.sub_cores as usize {
            self.tick_sub_core(sc, now, mem, mem_ok, outcome, prof);
        }
        self.note_quiescence(&stats_before, outcome, drained, unparked);
    }

    /// Track consecutive quiescent ticks and measure the second one's stat
    /// delta (see module docs for why two ticks suffice). A writeback that
    /// drained without letting anything issue still counts as the first:
    /// the scan after it re-parked every warp it unparked, which leaves the
    /// same state a drain-free quiescent tick leaves. The measured tick
    /// itself must drain nothing.
    fn note_quiescence(
        &mut self,
        stats_before: &SmStats,
        outcome: &TickOutcome,
        drained: bool,
        unparked: bool,
    ) {
        if !self.event_driven {
            return;
        }
        let quiescent = outcome.issued == 0
            && !outcome.unit_busy_stall
            && outcome.completed_blocks.is_empty()
            && outcome.new_tokens.is_empty()
            && !unparked;
        if !quiescent {
            self.q_streak = 0;
        } else if drained || self.q_streak == 0 {
            self.q_streak = 1;
        } else if self.q_streak == 1 {
            self.q_delta = self.stats.delta_since(stats_before);
            self.q_streak = 2;
        }
    }

    /// The per-cycle fetch work of the detailed baseline: every resident
    /// warp's fetch group is looked up in the instruction cache each cycle
    /// it occupies an ibuffer slot, as a detailed simulator like Accel-Sim
    /// does (and the hybrid presets do not).
    ///
    /// A pass over an unchanged sequence of lines is idempotent on the
    /// direct-mapped tags: after one pass every set holds the last line
    /// that maps to it, so every later pass meets the same tags and misses
    /// as often as the second. Once two passes ran with no head, live bit
    /// or tag changed (an install or an issue resets the count), further
    /// passes add the second one's misses instead of walking.
    fn detailed_core_tick(&mut self) {
        let SmCore {
            frontend,
            stats,
            subs,
            w_head,
            ..
        } = self;
        if frontend.quiet_passes == 2 {
            stats.icache_misses += frontend.quiet_pass_misses;
            return;
        }
        // Slot-major, then warp: the direct-mapped tags make the miss count
        // depend on the probe order. Bit `b` of every sub-core holds warps
        // of one slot numbered `row * sub_cores + sc`, so visiting the bits
        // in order and the sub-cores within each bit keeps that order.
        let mut misses = 0;
        let mut rows = subs.iter().fold(0, |rows, sub| rows | sub.live);
        while rows != 0 {
            let bit = rows.trailing_zeros() as usize;
            rows &= rows - 1;
            for sub in subs.iter() {
                if sub.live >> bit & 1 == 0 {
                    continue;
                }
                let head = &w_head[usize::from(sub.warp_index[bit])];
                if head.kind != HeadKind::Empty {
                    let line = u64::from(head.pc) >> 7;
                    let set = (line as usize) % frontend.itags.len();
                    if frontend.itags[set] != line {
                        frontend.itags[set] = line;
                        misses += 1;
                    }
                }
            }
        }
        stats.icache_misses += misses;
        frontend.quiet_passes += 1;
        frontend.quiet_pass_misses = misses;
    }

    fn tick_sub_core(
        &mut self,
        sc: usize,
        now: Cycle,
        mem: &mut dyn MemorySystem,
        mem_ok: bool,
        outcome: &mut TickOutcome,
        prof: &mut Profiler,
    ) {
        // Check only the warps that could issue. Disjoint-field
        // destructuring keeps the SoA reads borrow-checker-clean.
        let t_sched = prof.start();
        let SmCore {
            alu,
            subs,
            w_head,
            w_scoreboard,
            s_age,
            mem_parked,
            stats,
            stride,
            slot_bits,
            ..
        } = self;
        let sub = &mut subs[sc];
        // A parked warp stalls on a pending writeback (or, from the cycle
        // after it found the LD/ST queue full, counts as one).
        let mut any_scoreboard = sub.parked != 0;
        let mut any_unit_busy = false;
        let mut ready = 0u64;
        let mut rest = sub.candidates();
        // The ports are read only when some warp could use them.
        let ports_free = if rest != 0 {
            alu.ports_free(sc, now)
        } else {
            0
        };
        while rest != 0 {
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            let i = usize::from(sub.warp_index[bit as usize]);
            match issue_check(&w_head[i], &w_scoreboard[i], ports_free, mem_ok) {
                Ok(()) => ready |= 1 << bit,
                Err(Stall::Scoreboard) => {
                    sub.parked |= 1 << bit;
                    any_scoreboard = true;
                }
                Err(Stall::UnitBusy) => any_unit_busy = true,
                Err(Stall::MemQueue) => {
                    sub.parked |= 1 << bit;
                    mem_parked.push((i / *stride, i % *stride));
                    any_unit_busy = true;
                }
                Err(Stall::Empty) => {}
            }
        }

        if any_unit_busy {
            outcome.unit_busy_stall = true;
        }
        let warps = IssueMasks {
            live: sub.live,
            ready,
            slot_bits: *slot_bits,
            ages: s_age,
        };
        let picked = sub.policy.pick(&warps, now);
        if picked.is_none() {
            if any_scoreboard {
                stats.stall_scoreboard += 1;
            } else if any_unit_busy {
                stats.stall_unit_busy += 1;
            } else if sub.at_barrier != 0 {
                stats.stall_barrier += 1;
            } else if sub.live != 0 {
                stats.stall_empty += 1;
            }
        }
        prof.record(ProfModule::WarpScheduler, t_sched);
        if let Some(bit) = picked {
            debug_assert!(
                ready >> bit & 1 != 0,
                "{} picked an unready warp",
                sub.policy.name()
            );
            let i = usize::from(sub.warp_index[bit as usize]);
            let stride = *stride;
            self.issue(i / stride, i % stride, sc, now, mem, outcome, prof);
        }
    }

    /// Move warp `i` past the instruction it just issued and copy the next
    /// one's issue-relevant fields out of the trace.
    fn advance(&mut self, i: usize) {
        self.w_next[i] += 1;
        self.w_head[i] = Head::of(self.w_insts[i].get(self.w_next[i] as usize));
    }

    /// Wake every warp waiting at `slot`'s barrier.
    fn release_barrier(&mut self, slot: usize) {
        self.s_barrier_waiting[slot] = 0;
        let slot_mask = self.slot_mask(slot);
        for sub in &mut self.subs {
            sub.at_barrier &= !slot_mask;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        slot: usize,
        warp_idx: usize,
        sc: usize,
        now: Cycle,
        mem: &mut dyn MemorySystem,
        outcome: &mut TickOutcome,
        prof: &mut Profiler,
    ) {
        let i = slot * self.stride + warp_idx;
        let Head { pc, dst, kind, .. } = self.w_head[i];
        let fetch_penalty = self.frontend.fetch_penalty(pc, &mut self.stats);
        self.frontend.quiet_passes = 0;

        self.stats.issued += 1;
        self.insts_left -= 1;
        outcome.issued += 1;

        match kind {
            HeadKind::Empty => unreachable!("a ready warp has an instruction"),
            HeadKind::Barrier => {
                self.advance(i);
                let (sc, bit) = self.warp_bit(slot, warp_idx);
                self.subs[sc].at_barrier |= bit;
                self.s_barrier_waiting[slot] += 1;
                if self.s_barrier_waiting[slot] == self.s_live_warps[slot] {
                    self.release_barrier(slot);
                }
            }
            HeadKind::Exit => {
                self.advance(i);
                self.insts_left -= (self.w_insts[i].len() - self.w_next[i] as usize) as u64;
                let (sc, bit) = self.warp_bit(slot, warp_idx);
                self.subs[sc].live &= !bit;
                self.s_live_warps[slot] -= 1;
                // A warp at the barrier may now satisfy it.
                if self.s_live_warps[slot] > 0
                    && self.s_barrier_waiting[slot] == self.s_live_warps[slot]
                {
                    self.release_barrier(slot);
                }
                if self.s_live_warps[slot] == 0 {
                    outcome.completed_blocks.push(self.s_global_block[slot]);
                    self.s_occupied[slot] = false;
                    self.resident -= 1;
                }
            }
            HeadKind::Unit(ExecUnitKind::LdSt) => {
                self.stats.mem_insts += 1;
                let t0 = prof.start();
                self.issue_memory(slot, warp_idx, sc, now, fetch_penalty, mem, outcome, prof);
                prof.record(ProfModule::LdSt, t0);
            }
            HeadKind::Unit(kind) => {
                let t0 = prof.start();
                let wb_at = self.alu.issue(sc, kind, now) + fetch_penalty;
                self.w_scoreboard[i].issue_dst(dst);
                self.advance(i);
                if let Some(dst) = dst {
                    self.wb_events.push(Reverse((wb_at, slot, warp_idx, dst.0)));
                }
                prof.add_cycles(ProfModule::Alu, wb_at.saturating_sub(now));
                prof.record(ProfModule::Alu, t0);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_memory(
        &mut self,
        slot: usize,
        warp_idx: usize,
        sc: usize,
        now: Cycle,
        fetch_penalty: Cycle,
        mem: &mut dyn MemorySystem,
        outcome: &mut TickOutcome,
        prof: &mut Profiler,
    ) {
        // Occupy the LD/ST issue port.
        let agu_done = self.alu.issue(sc, ExecUnitKind::LdSt, now) + fetch_penalty;

        // The one read of the trace at issue: the memory payload is too
        // large and too rarely needed to copy into the head.
        let i = slot * self.stride + warp_idx;
        let inst = &self.w_insts[i][self.w_next[i] as usize];
        let dst = inst.dst;
        let mem_info = inst.mem.as_ref().expect("memory opcode carries payload");
        let lanes = inst.active_lanes();

        let completion = match mem_info.space {
            MemSpace::Shared => {
                // Banked scratchpad: conflict degree serializes the access.
                let degree = shared_conflict_degree_list(
                    &mem_info.addresses,
                    lanes,
                    self.cfg.shared_mem_banks,
                );
                if degree > 1 {
                    self.stats.shared_bank_conflicts += u64::from(degree - 1);
                }
                Some(agu_done + Cycle::from(self.cfg.shared_mem_latency) + Cycle::from(degree - 1))
            }
            MemSpace::Const => {
                let first = match &mem_info.addresses {
                    AddressList::Strided { base, .. } => *base,
                    AddressList::Explicit(a) => a.first().copied().unwrap_or(0),
                };
                let penalty = self.frontend.const_penalty(first, &mut self.stats);
                Some(agu_done + Cycle::from(self.cfg.shared_mem_latency) + penalty)
            }
            MemSpace::Global | MemSpace::Local => {
                let txns = self
                    .coalescer
                    .coalesce(&self.mapping, inst)
                    .expect("global/local access coalesces");
                if txns.is_empty() {
                    Some(agu_done)
                } else {
                    match mem.access(self.id, inst.pc, txns, agu_done) {
                        MemReply::Done(at) => Some(at),
                        MemReply::Pending(token) => {
                            outcome.new_tokens.push((
                                token,
                                WbTarget {
                                    slot,
                                    warp: warp_idx,
                                    reg: dst.unwrap_or(Reg(u16::MAX)),
                                },
                            ));
                            None
                        }
                    }
                }
            }
        };

        self.w_scoreboard[i].issue_dst(dst);
        self.advance(i);
        match completion {
            Some(at) => {
                prof.add_cycles(ProfModule::LdSt, at.saturating_sub(now));
                if let Some(dst) = dst {
                    self.wb_events.push(Reverse((at, slot, warp_idx, dst.0)));
                }
            }
            None => {
                // Writeback arrives through the memory-completion path.
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    Scoreboard,
    UnitBusy,
    /// The SM's LD/ST queue is full (memory instructions only).
    MemQueue,
    Empty,
}

/// Whether a warp's next instruction (`head`, with scoreboard `sb`) could
/// issue right now, and if not, why. `ports_free` is the sub-core's
/// [`AluModel::ports_free`] for this cycle.
fn issue_check(head: &Head, sb: &Scoreboard, ports_free: u8, mem_ok: bool) -> Result<(), Stall> {
    if head.kind == HeadKind::Empty {
        return Err(Stall::Empty);
    }
    if !sb.is_clear_of(&head.hazards) {
        return Err(Stall::Scoreboard);
    }
    match head.kind {
        HeadKind::Exit if !sb.is_clear() => Err(Stall::Scoreboard),
        // LD/ST queue full: structural stall, resolves as fills drain.
        HeadKind::Unit(ExecUnitKind::LdSt) if !mem_ok => Err(Stall::MemQueue),
        HeadKind::Unit(kind) if ports_free & 1 << kind.index() == 0 => Err(Stall::UnitBusy),
        // Barrier and exit issue through the scheduler only.
        _ => Ok(()),
    }
}

/// Maximum number of lanes mapping to the same shared-memory bank
/// (identical addresses broadcast and do not conflict). Allocation-free:
/// a warp has at most 32 lanes and the modeled GPUs at most 64 banks.
fn shared_conflict_degree(addrs: &[u64], banks: u32) -> u32 {
    let banks = u64::from(banks.max(1)).min(64);
    let mut sorted = [0u64; 32];
    let n = addrs.len().min(32);
    sorted[..n].copy_from_slice(&addrs[..n]);
    let uniq = &mut sorted[..n];
    uniq.sort_unstable();
    let mut counts = [0u8; 64];
    let mut degree = 1u32;
    let mut prev: Option<u64> = None;
    for &a in uniq.iter() {
        if prev == Some(a) {
            continue; // identical addresses broadcast
        }
        prev = Some(a);
        let bank = ((a / 4) % banks) as usize;
        counts[bank] += 1;
        degree = degree.max(u32::from(counts[bank]));
    }
    degree
}

/// [`shared_conflict_degree`] straight from a compressed [`AddressList`],
/// avoiding the per-instruction address expansion on the hot path.
fn shared_conflict_degree_list(list: &AddressList, lanes: u32, banks: u32) -> u32 {
    match list {
        AddressList::Strided { base, stride } => {
            if *stride == 0 || lanes <= 1 {
                return 1; // broadcast
            }
            let banks = u64::from(banks.max(1)).min(64);
            let mut counts = [0u8; 64];
            let mut degree = 1u32;
            for i in 0..u64::from(lanes.min(32)) {
                let a = base.wrapping_add(i * stride);
                let bank = ((a / 4) % banks) as usize;
                counts[bank] += 1;
                degree = degree.max(u32::from(counts[bank]));
            }
            degree
        }
        AddressList::Explicit(addrs) => shared_conflict_degree(addrs, banks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_conflicts_counted() {
        // 32 lanes, same bank (stride 128 bytes = 32 words): full conflict.
        let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
        assert_eq!(shared_conflict_degree(&addrs, 32), 32);
        // Stride 4: conflict-free.
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(shared_conflict_degree(&addrs, 32), 1);
        // Broadcast: same address everywhere, no conflict.
        let addrs = vec![0x40u64; 32];
        assert_eq!(shared_conflict_degree(&addrs, 32), 1);
        // Empty input (fully predicated-off warp).
        assert_eq!(shared_conflict_degree(&[], 32), 1);
    }

    #[test]
    fn head_kind_covers_all_classes() {
        use swiftsim_trace::{InstBuilder, Opcode};
        let cases = [
            (Opcode::Iadd, HeadKind::Unit(ExecUnitKind::Int)),
            (Opcode::Bra, HeadKind::Unit(ExecUnitKind::Int)),
            (Opcode::Ffma, HeadKind::Unit(ExecUnitKind::Sp)),
            (Opcode::Dfma, HeadKind::Unit(ExecUnitKind::Dp)),
            (Opcode::Mufu, HeadKind::Unit(ExecUnitKind::Sfu)),
            (Opcode::Hmma, HeadKind::Unit(ExecUnitKind::Tensor)),
            (Opcode::Bar, HeadKind::Barrier),
            (Opcode::Exit, HeadKind::Exit),
        ];
        for (op, expect) in cases {
            let inst = InstBuilder::new(op).build();
            assert_eq!(Head::of(Some(&inst)).kind, expect, "{op}");
        }
        let ldg = InstBuilder::new(Opcode::Ldg)
            .pc(0x40)
            .dst(1)
            .src(2)
            .global_strided(0, 4, 4)
            .build();
        let head = Head::of(Some(&ldg));
        assert_eq!(head.kind, HeadKind::Unit(ExecUnitKind::LdSt));
        assert_eq!((head.pc, head.dst), (0x40, Some(Reg(1))));
        assert_eq!(head.hazards, RegSet::hazards_of(&ldg));
        assert_eq!(Head::of(None).kind, HeadKind::Empty);
    }

    #[test]
    fn issue_check_orders_its_stalls() {
        use swiftsim_trace::{InstBuilder, Opcode};
        let all_free = 0b11_1111;
        let ldg = InstBuilder::new(Opcode::Ldg)
            .dst(1)
            .src(2)
            .global_strided(0, 4, 4)
            .build();
        let head = Head::of(Some(&ldg));
        let mut sb = Scoreboard::new();
        assert_eq!(issue_check(&head, &sb, all_free, true), Ok(()));
        assert_eq!(
            issue_check(&head, &sb, all_free, false),
            Err(Stall::MemQueue)
        );
        let ldst_busy = all_free & !(1 << ExecUnitKind::LdSt.index());
        assert_eq!(
            issue_check(&head, &sb, ldst_busy, true),
            Err(Stall::UnitBusy)
        );
        sb.issue_dst(Some(Reg(2)));
        assert_eq!(
            issue_check(&head, &sb, ldst_busy, false),
            Err(Stall::Scoreboard),
            "a RAW hazard outranks the structural stalls"
        );

        // An exit waits for every write of the warp, not just its own
        // registers; a barrier needs no port.
        let exit = Head::of(Some(&InstBuilder::new(Opcode::Exit).build()));
        assert_eq!(issue_check(&exit, &sb, 0, false), Err(Stall::Scoreboard));
        sb.writeback(Reg(2));
        assert_eq!(issue_check(&exit, &sb, 0, false), Ok(()));
        let bar = Head::of(Some(&InstBuilder::new(Opcode::Bar).build()));
        assert_eq!(issue_check(&bar, &sb, 0, false), Ok(()));
        assert_eq!(
            issue_check(&Head::EMPTY, &sb, all_free, true),
            Err(Stall::Empty)
        );
    }

    /// Logs the live mask it is shown and what the GTO policy it wraps
    /// picks from it.
    struct RecordingPolicy(crate::scheduler::GtoScheduler, PickLog);

    type PickLog = std::sync::Arc<std::sync::Mutex<Vec<(u64, Option<u32>)>>>;

    impl WarpSchedulerPolicy for RecordingPolicy {
        fn pick(&mut self, warps: &IssueMasks<'_>, now: u64) -> Option<u32> {
            let bit = self.0.pick(warps, now);
            let mut log = self.1.lock().expect("no panic holds the log");
            log.push((warps.live, bit));
            bit
        }

        fn name(&self) -> &'static str {
            "recording"
        }
    }

    /// A policy remembers a warp by its rank among the live warps, not by
    /// its bit (`IssueMasks` docs): pinned here because GTO's greedy target
    /// and the two-level active set inherit it, and the simulated-stats
    /// goldens with them.
    #[test]
    fn view_ids_are_ranks_among_live_warps() {
        use swiftsim_trace::{InstBuilder, Opcode};
        let cfg = swiftsim_config::presets::rtx2080ti();
        let sub_cores = cfg.sm.sub_cores as usize;

        // Sub-core 0 owns warps 0, `sub_cores` and `2 * sub_cores`: bits
        // 0, 1 and 2 of one block, so all equally old. Warp 0 issues two
        // independent integer adds (the second waits out the port's
        // initiation interval), warp `sub_cores` exits at once, warp
        // `2 * sub_cores` has an FFMA to issue.
        let mut block = BlockTrace::new();
        for w in 0..3 * sub_cores {
            let warp = block.push_warp();
            if w == 0 {
                warp.push(InstBuilder::new(Opcode::Iadd).dst(1));
                warp.push(InstBuilder::new(Opcode::Iadd).pc(16).dst(2));
            } else if w == 2 * sub_cores {
                warp.push(InstBuilder::new(Opcode::Ffma).dst(3));
            }
            warp.push(InstBuilder::new(Opcode::Exit).pc(32));
        }

        // One log per sub-core, in the order the SM builds its schedulers.
        let logs: Vec<_> = (0..sub_cores).map(|_| Default::default()).collect();
        let handed_out = std::cell::Cell::new(0);
        let mut sm = SmCore::new(
            0,
            0,
            &cfg.sm,
            1,
            3 * sub_cores,
            Box::new(crate::alu::AnalyticalAlu::new(&cfg.sm)),
            false,
            false,
            &|| {
                let log = std::sync::Arc::clone(&logs[handed_out.get()]);
                handed_out.set(handed_out.get() + 1);
                Box::new(RecordingPolicy(Default::default(), log))
            },
        );
        sm.install_block(0, &block, 0);

        let mut mem = crate::mem_system::AnalyticalMemory::new(&cfg, &Default::default());
        let mut prof = Profiler::disabled();
        let mut outcome = TickOutcome::default();
        for now in 0..3 {
            sm.tick(now, &mut mem, &mut prof, &mut outcome);
        }

        let seen = logs[0].lock().unwrap();
        assert_eq!(seen[0], (0b111, Some(0)), "the lowest of equals first");
        assert_eq!(
            seen[1],
            (0b111, Some(1)),
            "warp 0 waits for the port: the greedy target becomes rank 1, which exits"
        );
        assert_eq!(
            seen[2],
            (0b101, Some(2)),
            "rank 1 is now bit 2, and the greedy target follows it there \
             although bit 0 is ready again and as old"
        );
    }

    /// Two warps stalled behind a DFMA whose head lines share an
    /// instruction-tag set thrash it: every re-probe pass misses twice,
    /// whether it walks or repeats the last quiet pass's count, until an
    /// install or an issue makes the next pass walk again.
    #[test]
    fn quiet_reprobe_passes_repeat_the_walked_miss_count() {
        use swiftsim_trace::{InstBuilder, Opcode};
        let cfg = swiftsim_config::presets::rtx2080ti();
        // `base` plus 256 lines maps to the same set as `base`.
        let far = 256 << 7;
        let stalled_block = |bases: [u32; 2]| {
            let mut block = BlockTrace::new();
            for base in bases {
                let warp = block.push_warp();
                warp.push(InstBuilder::new(Opcode::Dfma).pc(base).dst(1));
                warp.push(InstBuilder::new(Opcode::Iadd).pc(base + 0x80).src(1));
                warp.push(InstBuilder::new(Opcode::Exit).pc(base + 0x90));
            }
            block
        };
        let first = stalled_block([0, far]);
        let second = stalled_block([0x100, 0x100]);
        let mut sm = SmCore::new(
            0,
            0,
            &cfg.sm,
            2,
            2,
            Box::new(crate::alu::AnalyticalAlu::new(&cfg.sm)),
            true,
            false,
            &|| crate::scheduler::make_policy(cfg.sm.scheduler),
        );
        sm.install_block(0, &first, 0);
        let mut mem = crate::mem_system::AnalyticalMemory::new(&cfg, &Default::default());
        let mut prof = Profiler::disabled();
        let mut outcome = TickOutcome::default();
        let mut tick = |sm: &mut SmCore<'_>, now| {
            let before = sm.stats.icache_misses;
            sm.tick(now, &mut mem, &mut prof, &mut outcome);
            (sm.stats.icache_misses - before, outcome.issued)
        };

        // Cycle 0: both heads miss in set 0, then both DFMAs issue and
        // each fetch misses again.
        assert_eq!(tick(&mut sm, 0), (4, 2));
        // The IADD heads wait 68 cycles for R1 and thrash set 1. Passes 1
        // and 2 walk; from cycle 3 on they repeat pass 2's count.
        for now in 1..40 {
            assert_eq!(tick(&mut sm, now), (2, 0), "cycle {now}");
            assert_eq!(sm.frontend.quiet_passes, now.min(2) as u8, "cycle {now}");
        }

        // An install walks again: the new heads miss once in set 2 (the
        // second warp hits the first's line), then their DFMAs issue and
        // the pass after that walks too, missing once more in set 3.
        sm.install_block(1, &second, 40);
        assert_eq!(sm.frontend.quiet_passes, 0);
        assert_eq!(tick(&mut sm, 40), (3, 2));
        assert_eq!(sm.frontend.quiet_passes, 0, "the issue reset the count");
        assert_eq!(tick(&mut sm, 41), (3, 0));
        for now in 42..60 {
            assert_eq!(tick(&mut sm, now), (2, 0), "cycle {now}");
        }
        assert_eq!(sm.frontend.quiet_passes, 2);
    }

    #[test]
    fn stat_deltas_scale_exactly() {
        let mut a = SmStats {
            issued: 10,
            stall_scoreboard: 4,
            active_cycles: 7,
            ..SmStats::default()
        };
        let before = SmStats {
            issued: 10,
            stall_scoreboard: 2,
            active_cycles: 6,
            ..SmStats::default()
        };
        let delta = a.delta_since(&before);
        assert_eq!(delta.stall_scoreboard, 2);
        assert_eq!(delta.active_cycles, 1);
        a.add_scaled(&delta, 3);
        assert_eq!(a.stall_scoreboard, 4 + 6);
        assert_eq!(a.active_cycles, 7 + 3);
        assert_eq!(a.issued, 10, "zero deltas stay zero under scaling");
    }
}
