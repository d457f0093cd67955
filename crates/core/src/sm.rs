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
//! Which warps are live, at a barrier, or parked, and what their next
//! instruction issues through, is not stored per warp but in per-sub-core
//! bitmasks ([`SubCore`]). A warp's hazards are checked once per head
//! change or unpark, so a scan is a few word operations: the policy picks
//! from a ready mask built from the per-class head masks and the free
//! issue ports (DESIGN.md, "Warp issue stage").
//!
//! The decoded trace itself is the one structure too large for any cache,
//! so the scan never reads it: everything the issue decision needs from a
//! warp's next instruction is copied into its [`Head`] when the program
//! counter moves onto that instruction. The trace is read once per dynamic
//! instruction (that copy) and once more at issue for a memory payload.
//!
//! # Sleeping (event-driven engine)
//!
//! A scan that picks nothing leaves every candidate warp of its sub-core
//! checked: each is hazard-free and waits for a busy issue port, or has no
//! instruction left. Until the earliest of those ports frees, or a mask
//! changes, every further scan would charge the same stall, so the tick
//! charges it without scanning (`SubCore::idle_until`). A whole tick that
//! issues nothing does the same for the SM: until the earliest pending
//! writeback or port ([`SmCore::idle_wake`]), every further tick would
//! charge the same stalls, unless something from outside arrives (a memory
//! completion, a block, the LD/ST queue accepting again). So the engine
//! stops ticking the SM and credits it [`SmCore::fall_asleep`]'s per-cycle
//! delta for each cycle it sleeps (`gpu.rs`, "Sleeping SMs"). The dense
//! test oracle does neither, so `event_engine_equiv.rs` genuinely
//! exercises both.

use crate::alu::AluModel;
use crate::mem_system::calendar::{CalendarQueue, SM_WINDOW};
use crate::scheduler::{IssueMasks, WarpSchedulerPolicy};
use crate::scoreboard::{RegSet, Scoreboard};
use crate::Cycle;
use swiftsim_config::{ExecUnitKind, SmConfig};
use swiftsim_mem::AddressMapping;
use swiftsim_metrics::{ProfModule, Profiler};
use swiftsim_trace::{
    AddressView, BlockTrace, InstCursor, InstView, MemSpace, OpcodeClass, Reg, WarpTrace,
};

use crate::mem_system::{CoalesceScratch, MemReply, MemorySystem};

/// Issue-stall breakdown per SM (Metrics Gatherer counters, §III-C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // self-describing counters
pub(crate) struct SmStats {
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

    /// Accumulate `delta` scaled by `n` — crediting `n` identical slept
    /// cycles at once.
    pub(crate) fn add_scaled(&mut self, delta: &SmStats, n: u64) {
        for_each_stat!(self, delta, |a: &mut u64, b: u64| *a += b * n);
    }
}

/// [`SubCore::by_kind`] index of a barrier head; units take
/// [`ExecUnitKind::index`], below it.
const BARRIER: usize = ExecUnitKind::ALL.len();
/// [`SubCore::by_kind`] index of an exit head.
const EXIT: usize = BARRIER + 1;

/// What an empty warp slot points at.
static EMPTY_WARP: WarpTrace = WarpTrace::new();

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
    /// The parked warps whose LD/ST head found the queue full, unparked
    /// together once the memory system accepts again.
    mem_parked: u64,
    /// Live warps by the class of their head: [`ExecUnitKind::index`] for
    /// the six units, then [`BARRIER`] and [`EXIT`]. A warp whose stream
    /// ran out is in none.
    by_kind: [u64; 8],
    /// Warps whose hazards were not checked since their head last changed
    /// or they were unparked. A checked candidate stays hazard-free until
    /// its head changes: only its own issue adds a pending write.
    unchecked: u64,
    /// Set by a scan that picked nothing (never under the dense oracle):
    /// until this cycle, the first a port its candidates wait for frees,
    /// every scan would again pick nothing and charge the same stall, so
    /// [`SmCore::tick`] charges it without scanning. Any change to the
    /// masks that can make a warp ready resets it to 0.
    idle_until: Cycle,
    /// Whether the idle sub-core's candidates wait for ports, and whether
    /// one of them is an LD/ST head (which a full queue would park).
    idle_ports: bool,
    idle_ldst: bool,
    /// SoA index of the warp behind each bit (the layout above, inverted
    /// once per kernel so the scan never divides).
    warp_index: [u8; 64],
}

impl SubCore {
    /// The warps a scan must consider: live, not at a barrier, not parked.
    fn candidates(&self) -> u64 {
        self.live & !(self.at_barrier | self.parked)
    }

    /// Candidates whose head needs an issue port (as opposed to a barrier
    /// or an exit, which issue through the scheduler, or none at all).
    fn unit_heads(&self, set: u64) -> u64 {
        let units = self.by_kind[..BARRIER].iter().fold(0, |m, &k| m | k);
        set & units
    }

    /// Unpark warps `bits`; they are checked again at the next scan.
    fn unpark(&mut self, bits: u64) {
        if bits != 0 {
            self.parked &= !bits;
            self.mem_parked &= !bits;
            self.unchecked |= bits;
            self.idle_until = 0;
        }
    }

    /// The first cycle after `now` at which a port this sub-core's
    /// candidates wait for frees; every candidate must be checked and
    /// unready at `now`.
    fn port_wake(&self, alu: &dyn AluModel, sc: usize, now: Cycle) -> Option<Cycle> {
        let waiting = self.unit_heads(self.candidates());
        ExecUnitKind::ALL
            .into_iter()
            .filter(|kind| waiting & self.by_kind[kind.index()] != 0)
            .map(|kind| alu.port_free_at(sc, kind, now))
            .min()
    }

    /// The stall this sub-core charges in a cycle its policy picks nothing
    /// (DESIGN.md, "Stall precedence").
    fn charge_stall(&self, stats: &mut SmStats, any_scoreboard: bool, any_unit_busy: bool) {
        if any_scoreboard {
            stats.stall_scoreboard += 1;
        } else if any_unit_busy {
            stats.stall_unit_busy += 1;
        } else if self.at_barrier != 0 {
            stats.stall_barrier += 1;
        } else if self.live != 0 {
            stats.stall_empty += 1;
        }
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
/// the trace by [`Head::of`] whenever `w_cursor` moves.
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

    fn of(inst: Option<InstView<'_>>) -> Head {
        let Some(inst) = inst else {
            return Head::EMPTY;
        };
        Head {
            hazards: RegSet::of(inst.dst.into_iter().chain(inst.srcs.iter())),
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

    /// The head's [`SubCore::by_kind`] index; `None` for an empty head.
    fn class(&self) -> Option<usize> {
        match self.kind {
            HeadKind::Unit(kind) => Some(kind.index()),
            HeadKind::Barrier => Some(BARRIER),
            HeadKind::Exit => Some(EXIT),
            HeadKind::Empty => None,
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
    /// live bit or instruction tag last changed, capped at 2. A sleeping
    /// SM's is 2: [`SmCore::fall_asleep`] walks the pass it repeats.
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

    /// One re-probe pass: look every live warp's head up in the
    /// instruction tags, updating them; returns the misses.
    fn reprobe(&mut self, subs: &[SubCore], w_head: &[Head]) -> u64 {
        // Slot-major, then warp: the direct-mapped tags make the miss count
        // depend on the probe order. Bit `b` of every sub-core holds warps
        // of one slot numbered `row * sub_cores + sc`, so visiting the bits
        // in order and the sub-cores within each bit keeps that order.
        let mut misses = 0;
        let mut rows = subs.iter().fold(0, |rows, sub| rows | sub.live);
        while rows != 0 {
            let bit = rows.trailing_zeros() as usize;
            rows &= rows - 1;
            for sub in subs {
                if sub.live >> bit & 1 == 0 {
                    continue;
                }
                let head = &w_head[usize::from(sub.warp_index[bit])];
                if head.kind != HeadKind::Empty {
                    let line = u64::from(head.pc) >> 7;
                    let set = (line as usize) % self.itags.len();
                    if self.itags[set] != line {
                        self.itags[set] = line;
                        misses += 1;
                    }
                }
            }
        }
        misses
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
    /// Pending memory tokens issued this cycle: (token, writeback target).
    pub new_tokens: Vec<(u64, WbTarget)>,
}

impl TickOutcome {
    fn reset(&mut self) {
        self.issued = 0;
        self.completed_blocks.clear();
        self.new_tokens.clear();
    }
}

/// Where a warp sits: see [`SmCore::w_loc`].
#[derive(Debug, Clone, Copy)]
struct WarpLoc {
    slot: u8,
    warp: u8,
    sub_core: u8,
    bit: u8,
}

/// A pending register writeback: block slot, warp within it, register.
/// Writebacks commute (each clears one scoreboard entry and unparks its
/// warp), so the order within a cycle is free.
type Writeback = (u8, u8, u16);

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
    /// Block slot, warp within it, sub-core and mask bit of each warp: the
    /// layout above, computed once per kernel so no hot path divides.
    w_loc: Vec<WarpLoc>,
    w_warps: Vec<&'a WarpTrace>,
    w_cursor: Vec<InstCursor>,
    /// `Head::of(w_warps[i].at(w_cursor[i]))`, refreshed only where
    /// `w_cursor` moves ([`SmCore::install_block`], [`SmCore::advance`]).
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
    /// Pending writebacks by the cycle they land.
    writebacks: CalendarQueue<Writeback, SM_WINDOW>,
    alu: Box<dyn AluModel>,
    frontend: FrontendCaches,
    mapping: AddressMapping,
    stats: SmStats,
    /// Reused LD/ST coalescer buffers (no allocation per memory
    /// instruction).
    coalescer: CoalesceScratch,
    /// Whether idle sub-cores and the SM may skip their scans and ticks
    /// (off only under the dense test oracle).
    sleeps: bool,
    /// What each slept cycle adds to `stats`, set by
    /// [`SmCore::fall_asleep`].
    sleep_delta: SmStats,
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
        sleeps: bool,
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
                mem_parked: 0,
                by_kind: [0; 8],
                unchecked: 0,
                idle_until: 0,
                idle_ports: false,
                idle_ldst: false,
                warp_index: [0; 64],
            })
            .collect();
        // `slots * slot_bits <= 64` bounds every field below.
        let w_loc: Vec<WarpLoc> = (0..n)
            .map(|i| {
                let (slot, w) = (i / warps_per_block, i % warps_per_block);
                WarpLoc {
                    slot: slot as u8,
                    warp: w as u8,
                    sub_core: (w % sub_cores) as u8,
                    bit: (slot * slot_bits + w / sub_cores) as u8,
                }
            })
            .collect();
        for (i, loc) in w_loc.iter().enumerate() {
            subs[usize::from(loc.sub_core)].warp_index[usize::from(loc.bit)] = i as u8;
        }
        SmCore {
            id,
            global_id,
            cfg: cfg.clone(),
            subs,
            stride: warps_per_block,
            slot_bits: slot_bits as u32,
            w_loc,
            w_warps: vec![&EMPTY_WARP; n],
            w_cursor: vec![InstCursor::default(); n],
            w_head: vec![Head::EMPTY; n],
            w_scoreboard: (0..n).map(|_| Scoreboard::new()).collect(),
            s_occupied: vec![false; slots],
            s_global_block: vec![0; slots],
            s_barrier_waiting: vec![0; slots],
            s_live_warps: vec![0; slots],
            s_age: vec![0; slots],
            resident: 0,
            writebacks: CalendarQueue::new(),
            alu,
            frontend: FrontendCaches::new(detailed_frontend),
            mapping: AddressMapping::new(&cfg.l1d),
            stats: SmStats::default(),
            coalescer: CoalesceScratch::default(),
            sleeps,
            sleep_delta: SmStats::default(),
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
        // (every mask but `unchecked` only ever holds live warps).
        let slot_mask = self.slot_mask(slot);
        for sub in &mut self.subs {
            debug_assert!(sub.live & slot_mask == 0);
            debug_assert!(sub.by_kind.iter().all(|&k| k & slot_mask == 0));
            sub.unchecked &= !slot_mask;
        }
        let mut live = 0u32;
        for (w, warp) in warps.iter().enumerate() {
            let i = slot * self.stride + w;
            self.w_warps[i] = warp;
            self.w_cursor[i] = InstCursor::default();
            self.w_scoreboard[i] = Scoreboard::new();
            if !warp.is_empty() {
                live += 1;
                let (sc, bit) = self.warp_bit(slot, w);
                self.subs[sc].live |= bit;
            }
            self.set_head(slot, w);
        }
        self.s_occupied[slot] = true;
        self.s_global_block[slot] = global_block;
        self.s_barrier_waiting[slot] = 0;
        self.s_live_warps[slot] = live;
        self.s_age[slot] = now;
        self.resident += 1;
        self.frontend.quiet_passes = 0;
        self.insts_left += block.num_insts();
    }

    /// Whether any block is resident.
    pub(crate) fn is_active(&self) -> bool {
        self.resident > 0
    }

    /// The sub-core and mask bit of warp `w` of block slot `slot`.
    fn warp_bit(&self, slot: usize, w: usize) -> (usize, u64) {
        let loc = self.w_loc[slot * self.stride + w];
        (usize::from(loc.sub_core), 1 << loc.bit)
    }

    /// The bits of block slot `slot` in every sub-core's masks.
    fn slot_mask(&self, slot: usize) -> u64 {
        (u64::MAX >> (64 - self.slot_bits)) << (slot as u32 * self.slot_bits)
    }

    /// Land one writeback: clear the scoreboard entry and unpark the warp.
    /// Nothing waits on a slot freed since.
    fn land(&mut self, slot: usize, warp: usize, reg: Reg) {
        if self.s_occupied[slot] {
            let i = slot * self.stride + warp;
            self.w_scoreboard[i].writeback(reg);
            let (sc, bit) = self.warp_bit(slot, warp);
            let sub = &mut self.subs[sc];
            sub.unpark(sub.parked & bit);
        }
    }

    /// Apply a writeback immediately (memory completion path). A register
    /// of `u16::MAX` marks a completion nobody waits on (a rare dst-less
    /// pending access) and is ignored.
    pub(crate) fn writeback_now(&mut self, target: WbTarget) {
        if target.reg.0 != u16::MAX {
            self.land(target.slot, target.warp, target.reg);
        }
    }

    /// Stats snapshot.
    pub(crate) fn stats(&self) -> SmStats {
        self.stats
    }

    /// Account `cycles` unticked cycles of a sleeping SM, each exactly as
    /// the dense loop would have ticked it.
    pub(crate) fn credit(&mut self, cycles: u64, prof: &mut Profiler) {
        self.cycles += cycles;
        self.stats.add_scaled(&self.sleep_delta, cycles);
        prof.add_cycles(
            ProfModule::WarpScheduler,
            self.sleep_delta.active_cycles * cycles,
        );
    }

    /// Whether some warp waits for the LD/ST queue to accept again.
    pub(crate) fn waits_on_mem_queue(&self) -> bool {
        self.subs.iter().any(|sub| sub.mem_parked != 0)
    }

    /// The cycle of the earliest pending writeback.
    pub(crate) fn next_writeback(&self) -> Option<Cycle> {
        self.writebacks.next_at()
    }

    /// After a tick at `now` that issued nothing: the earliest cycle at
    /// which one of the issue ports its waiting warps need frees. Every
    /// sub-core with a candidate was scanned by that tick or skipped as
    /// idle, so its `idle_until` is that cycle for its own candidates.
    pub(crate) fn port_wake(&self, now: Cycle) -> Option<Cycle> {
        let mut wake = None;
        for (sc, sub) in self.subs.iter().enumerate() {
            if sub.candidates() == 0 {
                continue;
            }
            let at = (sub.idle_until != Cycle::MAX).then_some(sub.idle_until);
            debug_assert_eq!(
                at,
                sub.port_wake(self.alu.as_ref(), sc, now),
                "sub-core {sc}"
            );
            if let Some(at) = at {
                wake = Some(wake.map_or(at, |w: Cycle| w.min(at)));
            }
        }
        wake
    }

    /// The first cycle after a tick at `now` that issued nothing at which
    /// ticking the SM can change anything it does not get from outside:
    /// the earlier of its next writeback and [`SmCore::port_wake`].
    pub(crate) fn idle_wake(&self, now: Cycle) -> Option<Cycle> {
        match (self.next_writeback(), self.port_wake(now)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Put the SM to sleep after a tick that issued nothing and before its
    /// [`SmCore::idle_wake`]: compute the delta [`SmCore::credit`] adds per
    /// slept cycle. Each such cycle would drain nothing, unpark nothing and
    /// find every candidate still waiting for its port, so it charges the
    /// stalls the masks give now; its `pick` calls find nothing ready and
    /// leave the policies alone (no-pick idempotence). On the detailed
    /// front end it re-probes the same heads against the same tags, which
    /// repeats the second pass's misses: walked here if the tick's pass
    /// was the first.
    pub(crate) fn fall_asleep(&mut self) {
        let active = self.is_active();
        let mut delta = SmStats {
            active_cycles: u64::from(active),
            ..SmStats::default()
        };
        if self.frontend.detailed {
            debug_assert!(self.frontend.quiet_passes >= 1, "the tick walked a pass");
            if self.frontend.quiet_passes < 2 {
                self.frontend.quiet_pass_misses = self.frontend.reprobe(&self.subs, &self.w_head);
                self.frontend.quiet_passes = 2;
            }
            delta.icache_misses = self.frontend.quiet_pass_misses;
        }
        if !self.frontend.detailed && self.subs.iter().all(|sub| sub.candidates() == 0) {
            // The hybrid fast path's charge (`tick`).
            if active {
                delta.stall_scoreboard = u64::from(self.cfg.sub_cores);
            }
        } else {
            for sub in &self.subs {
                let port_wait = sub.unit_heads(sub.candidates()) != 0;
                sub.charge_stall(&mut delta, sub.parked != 0, port_wait);
            }
        }
        self.sleep_delta = delta;
    }

    /// Whether some warp waits at its block's barrier.
    #[cfg(test)]
    pub(crate) fn waits_at_barrier(&self) -> bool {
        self.subs.iter().any(|sub| sub.at_barrier != 0)
    }

    /// What each slept cycle adds to the stats.
    #[cfg(test)]
    pub(crate) fn sleep_delta(&self) -> SmStats {
        self.sleep_delta
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
                || self.writebacks.len() == 0
                    && self.subs.iter().all(|sub| sub.parked == 0)
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
            let pos = format!(
                "at inst {}/{}",
                self.w_cursor[i].index(),
                self.w_warps[i].len()
            );
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
            self.schedule_writeback(at, target.slot, target.warp, target.reg);
        }
    }

    fn schedule_writeback(&mut self, at: Cycle, slot: usize, warp: usize, reg: Reg) {
        // `SmCore::new` keeps slots and warps within a sub-core's 64 bits.
        self.writebacks.push(at, (slot as u8, warp as u8, reg.0));
    }

    /// Land every writeback due by `now`.
    fn drain_writebacks(&mut self, now: Cycle) {
        while let Some((_, (slot, warp, reg))) = self.writebacks.pop_due(now) {
            self.land(usize::from(slot), usize::from(warp), Reg(reg));
        }
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
        let t0 = prof.start();
        self.drain_writebacks(now);
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
        if mem_ok {
            for sub in &mut self.subs {
                sub.unpark(sub.mem_parked);
            }
        }
        if !self.frontend.detailed && self.subs.iter().all(|sub| sub.candidates() == 0) {
            // Hybrid fast path: every warp is parked, at a barrier, or
            // done — no scheduler can issue, so skip the scan entirely.
            // Every sub-core is charged a scoreboard stall, also one whose
            // warps all wait at a barrier or that has none live, where the
            // scan would charge a barrier stall or nothing (DESIGN.md,
            // "Stall precedence").
            if self.is_active() {
                self.stats.stall_scoreboard += u64::from(self.cfg.sub_cores);
            }
            return;
        }
        for sc in 0..self.cfg.sub_cores as usize {
            self.tick_sub_core(sc, now, mem, mem_ok, outcome, prof);
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
        let frontend = &mut self.frontend;
        if frontend.quiet_passes < 2 {
            frontend.quiet_pass_misses = frontend.reprobe(&self.subs, &self.w_head);
            frontend.quiet_passes += 1;
        }
        self.stats.icache_misses += frontend.quiet_pass_misses;
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
        // Disjoint-field destructuring keeps the SoA reads
        // borrow-checker-clean.
        let SmCore {
            alu,
            subs,
            w_loc,
            w_head,
            w_scoreboard,
            s_age,
            stats,
            slot_bits,
            sleeps,
            ..
        } = self;
        let sub = &mut subs[sc];
        if now < sub.idle_until && (mem_ok || !sub.idle_ldst) {
            sub.charge_stall(stats, sub.parked != 0, sub.idle_ports);
            return;
        }
        let t_sched = prof.start();
        #[cfg(debug_assertions)]
        let before = (sub.candidates(), sub.parked);
        // A parked warp stalls on a pending writeback (or, from the cycle
        // after it found the LD/ST queue full, counts as one).
        let mut any_scoreboard = sub.parked != 0;
        // Check the hazards of the candidates whose head is new to the scan.
        let mut rest = sub.candidates() & sub.unchecked;
        sub.unchecked &= !rest;
        while rest != 0 {
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            let i = usize::from(sub.warp_index[bit as usize]);
            if !hazard_free(&w_head[i], &w_scoreboard[i]) {
                sub.parked |= 1 << bit;
                any_scoreboard = true;
            }
        }
        // The rest wait only for their issue port, or the LD/ST queue.
        let mut any_unit_busy = false;
        let clear = sub.candidates();
        let mut ready = clear & (sub.by_kind[BARRIER] | sub.by_kind[EXIT]);
        let mut units = sub.unit_heads(clear);
        let ports_free = if units != 0 {
            let queued = units & sub.by_kind[ExecUnitKind::LdSt.index()];
            if !mem_ok && queued != 0 {
                sub.parked |= queued;
                sub.mem_parked |= queued;
                units &= !queued;
                any_unit_busy = true;
            }
            let ports_free = alu.ports_free(sc, now);
            let mut busy = !ports_free & ((1 << BARRIER) - 1);
            let mut blocked = 0;
            while busy != 0 {
                blocked |= sub.by_kind[busy.trailing_zeros() as usize];
                busy &= busy - 1;
            }
            any_unit_busy |= units & blocked != 0;
            ready |= units & !blocked;
            ports_free
        } else {
            0
        };
        #[cfg(debug_assertions)]
        check_scan(sub, before, ready, w_head, w_scoreboard, ports_free, mem_ok);
        #[cfg(not(debug_assertions))]
        let _ = ports_free;

        let warps = IssueMasks {
            live: sub.live,
            ready,
            slot_bits: *slot_bits,
            ages: s_age,
        };
        let picked = sub.policy.pick(&warps, now);
        if picked.is_none() {
            sub.charge_stall(stats, any_scoreboard, any_unit_busy);
            if *sleeps {
                // Every candidate is checked and unready: it waits for its
                // port, or has no instruction left.
                let waiting = sub.unit_heads(sub.candidates());
                sub.idle_until = sub.port_wake(alu.as_ref(), sc, now).unwrap_or(Cycle::MAX);
                sub.idle_ports = waiting != 0;
                sub.idle_ldst = waiting & sub.by_kind[ExecUnitKind::LdSt.index()] != 0;
            }
        }
        prof.record(ProfModule::WarpScheduler, t_sched);
        if let Some(bit) = picked {
            debug_assert!(
                ready >> bit & 1 != 0,
                "{} picked an unready warp",
                sub.policy.name()
            );
            let loc = w_loc[usize::from(sub.warp_index[bit as usize])];
            let (slot, warp) = (usize::from(loc.slot), usize::from(loc.warp));
            self.issue(slot, warp, sc, now, mem, outcome, prof);
        }
    }

    /// Copy warp `w` of `slot`'s next instruction into its head and move
    /// the warp to that head's class mask, to be checked at the next scan.
    fn set_head(&mut self, slot: usize, w: usize) {
        let i = slot * self.stride + w;
        let old = self.w_head[i].class();
        let head = Head::of(self.w_warps[i].at(self.w_cursor[i]));
        self.w_head[i] = head;
        let (sc, bit) = self.warp_bit(slot, w);
        let sub = &mut self.subs[sc];
        if let Some(k) = old {
            sub.by_kind[k] &= !bit;
        }
        if sub.live & bit != 0 {
            if let Some(k) = head.class() {
                sub.by_kind[k] |= bit;
            }
            sub.unchecked |= bit;
            sub.idle_until = 0;
        }
    }

    /// Move warp `w` of `slot` past the instruction it just issued.
    fn advance(&mut self, slot: usize, w: usize) {
        let i = slot * self.stride + w;
        self.w_warps[i].advance(&mut self.w_cursor[i]);
        self.set_head(slot, w);
    }

    /// Wake every warp waiting at `slot`'s barrier.
    fn release_barrier(&mut self, slot: usize) {
        self.s_barrier_waiting[slot] = 0;
        let slot_mask = self.slot_mask(slot);
        for sub in &mut self.subs {
            if sub.at_barrier & slot_mask != 0 {
                sub.at_barrier &= !slot_mask;
                sub.idle_until = 0;
            }
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
                self.advance(slot, warp_idx);
                let (sc, bit) = self.warp_bit(slot, warp_idx);
                self.subs[sc].at_barrier |= bit;
                self.s_barrier_waiting[slot] += 1;
                if self.s_barrier_waiting[slot] == self.s_live_warps[slot] {
                    self.release_barrier(slot);
                }
            }
            HeadKind::Exit => {
                let (sc, bit) = self.warp_bit(slot, warp_idx);
                self.subs[sc].live &= !bit;
                self.advance(slot, warp_idx);
                self.insts_left -= (self.w_warps[i].len() - self.w_cursor[i].index()) as u64;
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
                self.advance(slot, warp_idx);
                if let Some(dst) = dst {
                    self.schedule_writeback(wb_at, slot, warp_idx, dst);
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
        let inst = self.w_warps[i]
            .at(self.w_cursor[i])
            .expect("a ready warp has an instruction");
        let dst = inst.dst;
        let mem_info = inst.mem.expect("memory opcode carries payload");
        let lanes = inst.active_lanes();

        let completion = match mem_info.space {
            MemSpace::Shared => {
                // Banked scratchpad: conflict degree serializes the access.
                let degree = shared_conflict_degree_list(
                    mem_info.addresses,
                    lanes,
                    self.cfg.shared_mem_banks,
                );
                if degree > 1 {
                    self.stats.shared_bank_conflicts += u64::from(degree - 1);
                }
                Some(agu_done + Cycle::from(self.cfg.shared_mem_latency) + Cycle::from(degree - 1))
            }
            MemSpace::Const => {
                let first = match mem_info.addresses {
                    AddressView::Strided { base, .. } => base,
                    AddressView::Explicit(a) => a.first().copied().unwrap_or(0),
                };
                let penalty = self.frontend.const_penalty(first, &mut self.stats);
                Some(agu_done + Cycle::from(self.cfg.shared_mem_latency) + penalty)
            }
            MemSpace::Global | MemSpace::Local => {
                let txns = self
                    .coalescer
                    .coalesce(&self.mapping, &inst)
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
        self.advance(slot, warp_idx);
        match completion {
            Some(at) => {
                prof.add_cycles(ProfModule::LdSt, at.saturating_sub(now));
                if let Some(dst) = dst {
                    self.schedule_writeback(at, slot, warp_idx, dst);
                }
            }
            None => {
                // Writeback arrives through the memory-completion path.
            }
        }
    }
}

/// Whether a warp's head (`head`, with scoreboard `sb`) has no pending
/// write on a register it reads or writes; an exit waits for every write
/// of the warp.
fn hazard_free(head: &Head, sb: &Scoreboard) -> bool {
    sb.is_clear_of(&head.hazards) && (head.kind != HeadKind::Exit || sb.is_clear())
}

/// Debug builds: the scan's masks agree with [`issue_check`] on every warp
/// that was a candidate when it began (`before`: candidates and parked).
#[cfg(debug_assertions)]
fn check_scan(
    sub: &SubCore,
    before: (u64, u64),
    ready: u64,
    w_head: &[Head],
    w_scoreboard: &[Scoreboard],
    ports_free: u8,
    mem_ok: bool,
) {
    let (mut rest, parked_before) = before;
    while rest != 0 {
        let bit = rest.trailing_zeros();
        rest &= rest - 1;
        let mask = 1u64 << bit;
        let i = usize::from(sub.warp_index[bit as usize]);
        let state = (
            ready & mask != 0,
            sub.parked & !parked_before & mask != 0,
            sub.mem_parked & mask != 0,
        );
        let expect = match issue_check(&w_head[i], &w_scoreboard[i], ports_free, mem_ok) {
            Ok(()) => (true, false, false),
            Err(Stall::Scoreboard) => (false, true, false),
            Err(Stall::MemQueue) => (false, true, true),
            Err(Stall::UnitBusy | Stall::Empty) => (false, false, false),
        };
        assert_eq!(state, expect, "warp {i}: (ready, parked, queue-parked)");
    }
}

#[cfg(any(test, debug_assertions))]
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
/// [`AluModel::ports_free`] for this cycle. The scan derives the same
/// answer from its masks; debug builds check it against this.
#[cfg(any(test, debug_assertions))]
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

/// An SM's shared-memory banks (at most 64), and the bank of an address.
#[derive(Debug, Clone, Copy)]
struct Banks {
    count: u64,
    /// `count - 1` when `count` is a power of two, as on every preset, so
    /// the bank is an AND rather than a division per lane.
    mask: Option<u64>,
}

impl Banks {
    fn new(banks: u32) -> Self {
        let count = u64::from(banks.max(1)).min(64);
        Banks {
            count,
            mask: count.is_power_of_two().then(|| count - 1),
        }
    }

    /// The bank of byte address `a`: its 4-byte word modulo the banks.
    #[inline]
    fn of(self, a: u64) -> usize {
        let word = a / 4;
        (match self.mask {
            Some(mask) => word & mask,
            None => word % self.count,
        }) as usize
    }
}

/// Maximum number of lanes mapping to the same shared-memory bank
/// (identical addresses broadcast and do not conflict). Allocation-free:
/// a warp has at most 32 lanes and the modeled GPUs at most 64 banks.
fn shared_conflict_degree(addrs: &[u64], banks: u32) -> u32 {
    let banks = Banks::new(banks);
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
        let bank = banks.of(a);
        counts[bank] += 1;
        degree = degree.max(u32::from(counts[bank]));
    }
    degree
}

/// [`shared_conflict_degree`] straight from a compressed address list,
/// avoiding the per-instruction address expansion on the hot path.
fn shared_conflict_degree_list(list: AddressView<'_>, lanes: u32, banks: u32) -> u32 {
    match list {
        AddressView::Strided { base, stride } => {
            if stride == 0 || lanes <= 1 {
                return 1; // broadcast
            }
            let banks = Banks::new(banks);
            let mut counts = [0u8; 64];
            let mut degree = 1u32;
            for i in 0..u64::from(lanes.min(32)) {
                let bank = banks.of(base.wrapping_add(i.wrapping_mul(stride)));
                counts[bank] += 1;
                degree = degree.max(u32::from(counts[bank]));
            }
            degree
        }
        AddressView::Explicit(addrs) => shared_conflict_degree(addrs, banks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The conflict degree by the formula the bank mask replaces: a
    /// division per lane, for any bank count.
    fn reference_degree(list: AddressView<'_>, lanes: u32, banks: u32) -> u32 {
        let banks = u64::from(banks.max(1)).min(64);
        let mut counts = [0u8; 64];
        let mut count = |a: u64| {
            let bank = ((a / 4) % banks) as usize;
            counts[bank] += 1;
            u32::from(counts[bank])
        };
        match list {
            AddressView::Strided { base, stride } => {
                if stride == 0 || lanes <= 1 {
                    return 1;
                }
                (0..u64::from(lanes.min(32)))
                    .map(|i| count(base.wrapping_add(i.wrapping_mul(stride))))
                    .fold(1, u32::max)
            }
            AddressView::Explicit(addrs) => {
                let mut uniq = addrs[..addrs.len().min(32)].to_vec();
                uniq.sort_unstable();
                uniq.dedup();
                uniq.into_iter().map(count).fold(1, u32::max)
            }
        }
    }

    #[test]
    fn bank_mask_agrees_with_the_division() {
        let mut rng = swiftsim_rng::SmallRng::seed_from_u64(0x5ba4);
        for case in 0..4000 {
            let banks = [16, 24, 32, 64][case % 4];
            let lanes = rng.gen_range(0u32..33);
            let base = match rng.gen_range(0u32..3) {
                0 => rng.gen_range(0u64..1 << 16),
                _ => rng.next_u64(),
            };
            let stride = match rng.gen_range(0u32..4) {
                0 => 4 * rng.gen_range(0u64..70),
                1 => rng.gen_range(0u64..512),
                2 => rng.next_u64(),
                _ => 0,
            };
            let strided = AddressView::Strided { base, stride };
            assert_eq!(
                shared_conflict_degree_list(strided, lanes, banks),
                reference_degree(strided, lanes, banks),
                "case {case}: {strided:?} over {lanes} lanes, {banks} banks"
            );
            // Explicit lists with repeats, which broadcast.
            let mut addrs = strided.expand(lanes);
            for _ in 0..rng.gen_range(0usize..4) {
                if !addrs.is_empty() {
                    let (i, j) = (rng.gen_range(0..addrs.len()), rng.gen_range(0..addrs.len()));
                    addrs[i] = addrs[j];
                }
            }
            let explicit = AddressView::Explicit(&addrs);
            assert_eq!(
                shared_conflict_degree_list(explicit, lanes, banks),
                reference_degree(explicit, lanes, banks),
                "case {case}: {addrs:x?}, {banks} banks"
            );
        }
    }

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

    /// The head of a warp whose next instruction is `inst`.
    fn head_of(inst: impl Into<swiftsim_trace::TraceInstruction>) -> Head {
        let warp: WarpTrace = std::iter::once(inst.into()).collect();
        Head::of(warp.at(InstCursor::default()))
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
            assert_eq!(head_of(InstBuilder::new(op)).kind, expect, "{op}");
        }
        let ldg = InstBuilder::new(Opcode::Ldg)
            .pc(0x40)
            .dst(1)
            .src(2)
            .global_strided(0, 4, 4)
            .build();
        let head = head_of(ldg);
        assert_eq!(head.kind, HeadKind::Unit(ExecUnitKind::LdSt));
        assert_eq!((head.pc, head.dst), (0x40, Some(Reg(1))));
        assert_eq!(head.hazards, RegSet::of([Reg(1), Reg(2)]));
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
        let head = head_of(ldg);
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
        let exit = head_of(InstBuilder::new(Opcode::Exit));
        assert_eq!(issue_check(&exit, &sb, 0, false), Err(Stall::Scoreboard));
        sb.writeback(Reg(2));
        assert_eq!(issue_check(&exit, &sb, 0, false), Ok(()));
        let bar = head_of(InstBuilder::new(Opcode::Bar));
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

    /// The hybrid fast path charges every sub-core a scoreboard stall once
    /// no sub-core has a candidate, also a sub-core whose only warp waits
    /// at a barrier, which the scan charges a barrier stall (DESIGN.md,
    /// "Stall precedence"). Pinned as the goldens record it: the detailed
    /// front end, which never takes the fast path, charges the barrier. A
    /// sleeping SM is credited each cycle exactly what the tick charged.
    #[test]
    fn fast_path_charges_a_barrier_wait_as_a_scoreboard_stall() {
        use swiftsim_trace::{InstBuilder, Opcode};
        let cfg = swiftsim_config::presets::rtx2080ti();
        let sub_cores = cfg.sm.sub_cores as usize;
        // Warp 0 (sub-core 0) reaches the barrier at once; every other
        // sub-core's warp waits 48 cycles on a DFMA before its own.
        let mut block = BlockTrace::new();
        for w in 0..sub_cores {
            let warp = block.push_warp();
            if w > 0 {
                warp.push(InstBuilder::new(Opcode::Dfma).dst(1));
                warp.push(InstBuilder::new(Opcode::Iadd).pc(16).dst(2).src(1));
            }
            warp.push(InstBuilder::new(Opcode::Bar).pc(32));
            warp.push(InstBuilder::new(Opcode::Exit).pc(48));
        }
        let stalls = |s: &SmStats| (s.stall_scoreboard, s.stall_barrier);
        let parked = sub_cores as u64 - 1;
        for (detailed, settled) in [(false, (sub_cores as u64, 0)), (true, (parked, 1))] {
            let mut sm = SmCore::new(
                0,
                0,
                &cfg.sm,
                1,
                sub_cores,
                Box::new(crate::alu::AnalyticalAlu::new(&cfg.sm)),
                detailed,
                true,
                &|| crate::scheduler::make_policy(cfg.sm.scheduler),
            );
            sm.install_block(0, &block, 0);
            let mut mem = crate::mem_system::AnalyticalMemory::new(&cfg, &Default::default());
            let mut prof = Profiler::disabled();
            let mut outcome = TickOutcome::default();
            let mut tick = |sm: &mut SmCore<'_>, now| {
                let before = sm.stats;
                sm.tick(now, &mut mem, &mut prof, &mut outcome);
                (
                    outcome.issued,
                    sm.stats.stall_scoreboard - before.stall_scoreboard,
                    sm.stats.stall_barrier - before.stall_barrier,
                )
            };
            assert_eq!(
                tick(&mut sm, 0),
                (sub_cores as u32, 0, 0),
                "BAR and DFMAs issue"
            );
            // The scan parks the IADDs: the barrier is charged as such.
            assert_eq!(tick(&mut sm, 1), (0, parked, 1), "detailed {detailed}");
            for now in 2..40 {
                let (issued, scoreboard, barrier) = tick(&mut sm, now);
                assert_eq!((issued, (scoreboard, barrier)), (0, settled), "cycle {now}");
            }
            assert_eq!(sm.idle_wake(39), sm.next_writeback(), "no port to wait for");
            sm.fall_asleep();
            assert_eq!(stalls(&sm.sleep_delta), settled, "detailed {detailed}");
        }
    }

    #[test]
    fn stat_deltas_scale_exactly() {
        let mut a = SmStats {
            issued: 10,
            stall_scoreboard: 4,
            active_cycles: 7,
            ..SmStats::default()
        };
        let delta = SmStats {
            stall_scoreboard: 2,
            active_cycles: 1,
            ..SmStats::default()
        };
        a.add_scaled(&delta, 3);
        assert_eq!(a.stall_scoreboard, 4 + 6);
        assert_eq!(a.active_cycles, 7 + 3);
        assert_eq!(a.issued, 10, "zero deltas stay zero under scaling");
    }
}
