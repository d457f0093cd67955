//! The simulation engine: puts all the modules together (§III-D3).
//!
//! "In each cycle, the Warp Scheduler & Dispatch issues instructions to the
//! execution units and LD/ST units. Upon receiving the instructions, these
//! units calculate the instruction delay based on the \[chosen\] model and
//! return the instruction completion acknowledgment after X cycles. After
//! getting the acknowledgment, the Warp Scheduler & Dispatch then issues
//! the next instruction that depends on the completed instruction,
//! continuing this process until all instructions are executed."
//!
//! The engine runs a *shard*: a subset of SMs with its own memory system.
//! Single-threaded simulation is one shard covering the whole GPU; parallel
//! simulation runs several shards concurrently (see [`crate::parallel`]).
//!
//! # Sleeping SMs: the event-driven engine
//!
//! Under [`SkipPolicy::EventDriven`] an SM whose per-cycle effect is known
//! ([`SmCore::is_settled`]) stops being ticked: the shard's [`SmSet`] puts
//! it to sleep from `since`, its first unticked cycle, until its *wake*,
//! the head of its writeback heap. Each cycle the shard ticks only the
//! awake SMs, in SM index order, so the memory system sees accesses in the
//! order it would if every SM ticked. A sleeper is roused when its wake
//! comes due, when a memory completion is delivered to it or a block is
//! installed on it, or, if it has warps parked on a full LD/ST queue, once
//! the memory system accepts from it again (rechecked every cycle). A
//! two-phase `Done` reply only moves a sleeper's wake. Rousing credits the
//! sleeper `delta × (now − since)` **exactly once**, before anything else
//! touches it; the kernel's end credits every sleeper before stats are
//! read. Credited cycles count exactly as dense ticks, so stats are
//! **bit-identical** to [`SkipPolicy::Dense`], which never puts an SM to
//! sleep (`tests/event_engine_equiv.rs` enforces it).
//!
//! When every SM sleeps after a quiet iteration, nothing can happen before
//! the earliest wake or [`MemorySystem::next_event`]: the clock jumps there
//! (the jumped cycles attributed to [`ProfModule::CycleSkip`]), and with
//! neither, the kernel fails with [`SimError::Deadlock`] at once. The
//! two-phase engine (`twophase.rs`) drives its shards' SMs the same way.

use crate::alu::{AluModel, AnalyticalAlu, CycleAccurateAlu};
use crate::block_scheduler::{BlockScheduler, Occupancy};
use crate::error::SimError;
use crate::fidelity::{AluModelKind, FidelityConfig, FrontendModelKind, SkipPolicy};
use crate::mem_system::{MemCompletion, MemorySystem};
use crate::scheduler::make_policy;
use crate::sm::{SmCore, SmStats, TickOutcome, WbTarget};
use crate::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use swiftsim_config::GpuConfig;
use swiftsim_mem::FastMap;
use swiftsim_metrics::{ProfModule, Profiler};
use swiftsim_trace::{BlockTrace, KernelTrace};

/// Outcome of simulating one kernel on one shard.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardKernelOutcome {
    /// Cycle (absolute) at which the shard's last block finished.
    pub end_cycle: Cycle,
    /// Aggregated SM counters.
    pub stats: SmStats,
    /// Blocks executed by this shard.
    pub blocks: u64,
}

pub(crate) fn make_alu(kind: AluModelKind, cfg: &GpuConfig) -> Box<dyn AluModel> {
    match kind {
        AluModelKind::CycleAccurate => Box::new(CycleAccurateAlu::new(&cfg.sm)),
        AluModelKind::Analytical => Box::new(AnalyticalAlu::new(&cfg.sm)),
    }
}

/// Check `kernel` against its launch geometry, then size an SM's block
/// slots for it.
pub(crate) fn occupancy(cfg: &GpuConfig, kernel: &KernelTrace) -> Result<Occupancy, SimError> {
    if !kernel.is_consistent(cfg.sm.warp_size) {
        return Err(SimError::InconsistentTrace {
            kernel: kernel.name.clone(),
            message: format!(
                "trace has {} blocks for grid {} and warp counts must match block size",
                kernel.blocks().len(),
                kernel.grid_dim
            ),
        });
    }
    Occupancy::compute(&cfg.sm, kernel)
}

/// Per-shard kernel simulation.
///
/// `block_indices` are the kernel's block ids this shard executes; `sm_ids`
/// are the *global* SM ids the shard owns (their count sets the local SM
/// array size; memory-system calls use local indices, diagnostics use the
/// global ids). `shard` is the shard's index, used only for error
/// reporting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_kernel_shard(
    cfg: &GpuConfig,
    kernel: &KernelTrace,
    block_indices: &[usize],
    sm_ids: &[usize],
    mem: &mut dyn MemorySystem,
    fidelity: FidelityConfig,
    shard: usize,
    start: Cycle,
    prof: &mut Profiler,
) -> Result<ShardKernelOutcome, SimError> {
    let num_local_sms = sm_ids.len();
    let slots = occupancy(cfg, kernel)?.blocks_per_sm;
    let mut sms = SmSet::new(cfg, fidelity, kernel, slots as usize, sm_ids, start);
    let mut bs = BlockScheduler::new(num_local_sms, block_indices.len(), slots);
    let mut tokens: FastMap<u64, (usize, WbTarget)> = FastMap::default();
    let mut completions: Vec<MemCompletion> = Vec::new();
    let mut now = start;
    let mut idle_streak = 0u32;

    loop {
        // 1. Dispatch pending blocks to SMs with free slots (Block
        //    Scheduler, cycle-accurate in every preset).
        let mut installed = false;
        if bs.remaining() > 0 {
            let t0 = prof.start();
            for sm_idx in 0..num_local_sms {
                while sms.core(sm_idx).has_free_slot() {
                    match bs.dispatch(sm_idx) {
                        Some(local_idx) => {
                            sms.install(sm_idx, block_indices[local_idx], now, prof);
                            installed = true;
                        }
                        None => break,
                    }
                }
            }
            prof.record(ProfModule::BlockScheduler, t0);
        }

        // 2. Deliver memory completions due by now. The memory system
        //    attributes its own time per level (L1/NoC/L2/DRAM) internally;
        //    see MemorySystem::report_profile.
        completions.clear();
        mem.advance(now, &mut completions);
        let delivered = !completions.is_empty();
        for c in completions.drain(..) {
            if let Some((sm, target)) = tokens.remove(&c.token) {
                sms.touch(sm, now, prof).writeback_now(target);
            }
        }

        // 3. Tick the awake SMs. Warp-scheduler, ALU, and LD/ST time is
        //    attributed inside SmCore::tick.
        let mut issued = 0u32;
        let mut any_unit_busy = false;
        let mut any_completed = false;
        let mut any_tokens = false;
        sms.rouse_due(now, mem, prof);
        let mut next = 0;
        while let Some(sm_idx) = sms.next_awake(next) {
            next = sm_idx + 1;
            let outcome = sms.tick(sm_idx, now, mem, prof);
            issued += outcome.issued;
            any_unit_busy |= outcome.unit_busy_stall;
            for _ in &outcome.completed_blocks {
                any_completed = true;
                bs.complete(sm_idx);
            }
            for &(token, target) in &outcome.new_tokens {
                any_tokens = true;
                tokens.insert(token, (sm_idx, target));
            }
        }

        // 4. Termination: every block completed and the memory system is
        //    quiet (so no token is outstanding either).
        if bs.all_done() && tokens.is_empty() && mem.next_event().is_none() {
            return Ok(ShardKernelOutcome {
                end_cycle: now,
                stats: sms.finish(prof),
                blocks: block_indices.len() as u64,
            });
        }

        // 5. Advance time. A *quiet* iteration is one in which provably
        //    nothing observable happened: no instruction issued, no
        //    port-busy stall about to resolve, no memory completion or new
        //    request, no block installed or retired.
        let quiet = issued == 0
            && !any_unit_busy
            && !delivered
            && !any_completed
            && !any_tokens
            && !installed;
        let deadlock = |cycle, sms: &SmSet<'_>, mem: &dyn MemorySystem| SimError::Deadlock {
            cycle,
            shard,
            detail: deadlock_detail(sms.oldest_stalled(), mem),
        };
        if quiet && sms.all_asleep() {
            // Nothing can act before the earliest wake or memory event, and
            // without either, nothing ever will.
            let Some(t) = min_opt(sms.next_wake(), mem.next_event()) else {
                return Err(deadlock(now, &sms, mem));
            };
            if t > now + 1 {
                prof.add_cycles(ProfModule::CycleSkip, t - now - 1);
            }
            now = t.max(now + 1);
            idle_streak = 0;
            continue;
        }
        now += 1;
        idle_streak = if issued > 0 { 0 } else { idle_streak + 1 };
        // A memory event or token always reappears within the DRAM latency;
        // a much longer silent streak means the model deadlocked.
        if idle_streak > 1_000_000 {
            return Err(deadlock(now, &sms, mem));
        }
    }
}

pub(crate) fn min_opt(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// A deadlock report's detail: the oldest stalled warp and the oldest
/// pending memory request, whichever exist.
pub(crate) fn deadlock_detail(warp: Option<String>, mem: &dyn MemorySystem) -> String {
    match (warp, mem.oldest_pending()) {
        (Some(w), Some(m)) => format!("{w}; {m}"),
        (Some(w), None) => w,
        (None, Some(m)) => m,
        (None, None) => "no resident warp or pending memory request".to_owned(),
    }
}

/// A shard's SMs and which of them sleep (module docs). Everything that
/// reaches an SM from outside its own tick goes through here, so a sleeper
/// is credited before anything else touches it.
pub(crate) struct SmSet<'a> {
    sms: Vec<SmCore<'a>>,
    blocks: &'a [BlockTrace],
    /// Bit `i % 64` of word `i / 64` is set while SM `i` is awake.
    awake: Vec<u64>,
    /// Per sleeper: its first unticked, uncredited cycle.
    since: Vec<Cycle>,
    /// `(wake, sm)` per sleeper, earliest first; entries whose SM woke or
    /// moved its wake since stay until they surface.
    wakes: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Sleepers with warps parked on a full LD/ST queue.
    mem_waiters: Vec<usize>,
    /// The kernel's first cycle, and the one after the last cycle ticked.
    start: Cycle,
    next: Cycle,
    outcome: TickOutcome,
}

impl<'a> SmSet<'a> {
    /// SMs `sm_ids` (global ids, in local index order) with `slots` block
    /// slots each for `kernel`, all awake at `start`.
    pub(crate) fn new(
        cfg: &GpuConfig,
        fidelity: FidelityConfig,
        kernel: &'a KernelTrace,
        slots: usize,
        sm_ids: &[usize],
        start: Cycle,
    ) -> Self {
        let blocks = kernel.blocks();
        // Uniform per kernel: `is_consistent` checked every block.
        let warps_per_block = blocks.first().map_or(0, |b| b.warps().len());
        let sms = sm_ids.iter().enumerate().map(|(i, &global)| {
            SmCore::new(
                i,
                global,
                &cfg.sm,
                slots,
                warps_per_block,
                make_alu(fidelity.alu, cfg),
                fidelity.frontend == FrontendModelKind::Detailed,
                fidelity.skip_policy == SkipPolicy::EventDriven,
                &|| make_policy(cfg.sm.scheduler),
            )
        });
        let n = sm_ids.len();
        let mut awake = vec![0u64; n.div_ceil(64)];
        for i in 0..n {
            awake[i / 64] |= 1 << (i % 64);
        }
        SmSet {
            sms: sms.collect(),
            blocks,
            awake,
            since: vec![0; n],
            wakes: BinaryHeap::new(),
            mem_waiters: Vec::new(),
            start,
            next: start,
            outcome: TickOutcome::default(),
        }
    }

    pub(crate) fn core(&self, i: usize) -> &SmCore<'a> {
        &self.sms[i]
    }

    fn is_asleep(&self, i: usize) -> bool {
        self.awake[i / 64] >> (i % 64) & 1 == 0
    }

    pub(crate) fn all_asleep(&self) -> bool {
        self.awake.iter().all(|&word| word == 0)
    }

    /// SM `i`, woken first if it sleeps: credited through `now - 1`.
    pub(crate) fn touch(&mut self, i: usize, now: Cycle, prof: &mut Profiler) -> &mut SmCore<'a> {
        if self.is_asleep(i) {
            self.sms[i].credit(now - self.since[i], prof);
            self.awake[i / 64] |= 1 << (i % 64);
        }
        &mut self.sms[i]
    }

    /// Install the kernel's block `block` on SM `i`.
    pub(crate) fn install(&mut self, i: usize, block: usize, now: Cycle, prof: &mut Profiler) {
        let trace = &self.blocks[block];
        self.touch(i, now, prof).install_block(block, trace, now);
    }

    /// A two-phase `Done` reply ([`SmCore::apply_deferred_done`]), which
    /// only moves a sleeper's wake earlier.
    pub(crate) fn apply_deferred_done(
        &mut self,
        i: usize,
        target: WbTarget,
        at: Cycle,
        issue_now: Cycle,
        prof: &mut Profiler,
    ) {
        let wake = self.sms[i].next_writeback();
        self.sms[i].apply_deferred_done(target, at, issue_now, prof);
        if self.is_asleep(i) && self.sms[i].next_writeback() != wake {
            #[cfg(test)]
            tests::saw(tests::DONE_ON_SLEEPER);
            self.wakes.push(Reverse((at, i)));
        }
    }

    /// Begin cycle `now`: rouse every sleeper that can act, because its
    /// wake is due or it has warps parked on the LD/ST queue and `mem`
    /// accepts from it again.
    pub(crate) fn rouse_due(&mut self, now: Cycle, mem: &dyn MemorySystem, prof: &mut Profiler) {
        self.next = now + 1;
        while let Some(&Reverse((at, i))) = self.wakes.peek() {
            if at > now {
                break;
            }
            self.wakes.pop();
            if self.sms[i].next_writeback().is_some_and(|w| w <= now) {
                self.touch(i, now, prof);
            }
        }
        for k in (0..self.mem_waiters.len()).rev() {
            let i = self.mem_waiters[k];
            if !self.is_asleep(i) || mem.can_accept(i) {
                self.mem_waiters.swap_remove(k);
                self.touch(i, now, prof);
            }
        }
    }

    /// The first awake SM at index `from` or above.
    pub(crate) fn next_awake(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.awake.get(w)? & u64::MAX << (from % 64);
        while bits == 0 {
            w += 1;
            bits = *self.awake.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Tick awake SM `i`, and put it to sleep if that settled it.
    pub(crate) fn tick(
        &mut self,
        i: usize,
        now: Cycle,
        mem: &mut dyn MemorySystem,
        prof: &mut Profiler,
    ) -> &TickOutcome {
        let sm = &mut self.sms[i];
        sm.tick(now, mem, prof, &mut self.outcome);
        if sm.is_settled() {
            self.awake[i / 64] &= !(1 << (i % 64));
            self.since[i] = now + 1;
            if let Some(at) = sm.next_writeback() {
                self.wakes.push(Reverse((at, i)));
            }
            if sm.waits_on_mem_queue() {
                #[cfg(test)]
                tests::saw(tests::MEM_WAITER);
                self.mem_waiters.push(i);
            }
        }
        &self.outcome
    }

    /// The earliest wake of any sleeper.
    pub(crate) fn next_wake(&mut self) -> Option<Cycle> {
        while let Some(&Reverse((at, i))) = self.wakes.peek() {
            if self.is_asleep(i) && self.sms[i].next_writeback() == Some(at) {
                return Some(at);
            }
            self.wakes.pop();
        }
        None
    }

    pub(crate) fn oldest_stalled(&self) -> Option<String> {
        self.sms.iter().find_map(SmCore::oldest_stalled)
    }

    /// Credit every sleeper through the last cycle ticked, check each SM's
    /// kernel-end invariants and sum their stats.
    pub(crate) fn finish(&mut self, prof: &mut Profiler) -> SmStats {
        let (mut stats, next, cycles) = (SmStats::default(), self.next, self.next - self.start);
        for i in 0..self.sms.len() {
            let sm = self.touch(i, next, prof);
            sm.check_kernel_end(cycles);
            stats.add(&sm.stats());
        }
        stats
    }
}

/// Round-robin split of a kernel's blocks across `shards`.
pub(crate) fn split_blocks(num_blocks: usize, shards: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); shards.max(1)];
    for b in 0..num_blocks {
        out[b % shards.max(1)].push(b);
    }
    out
}

/// Distribute `partitions` memory partitions over shards proportionally to
/// their SM counts, exactly and deterministically.
///
/// Largest-remainder apportionment: every shard gets the floor of its
/// proportional share, then the leftover partitions go one each to the
/// shards with the largest fractional remainders (ties broken by shard
/// index). Shards that still end up with zero take one partition from the
/// currently-richest shard (a shard cannot simulate with no memory
/// partition), so the counts sum to `partitions` whenever
/// `shards <= partitions` and to the shard count otherwise.
pub(crate) fn shard_partitions(partitions: u32, shard_sms: &[u32]) -> Vec<u32> {
    let total: u64 = shard_sms.iter().map(|&s| u64::from(s)).sum();
    if shard_sms.is_empty() || total == 0 {
        return vec![1; shard_sms.len()];
    }
    let mut share: Vec<u32> = shard_sms
        .iter()
        .map(|&s| (u64::from(partitions) * u64::from(s) / total) as u32)
        .collect();
    // Hand out the remainder by descending fractional part, index as the
    // deterministic tiebreak.
    let mut order: Vec<usize> = (0..shard_sms.len()).collect();
    order.sort_by_key(|&i| {
        let frac = u64::from(partitions) * u64::from(shard_sms[i]) % total;
        (std::cmp::Reverse(frac), i)
    });
    let assigned: u32 = share.iter().sum();
    for &i in order
        .iter()
        .take(partitions.saturating_sub(assigned) as usize)
    {
        share[i] += 1;
    }
    // Min-1 floor: fund empty shards from the richest ones while any shard
    // still holds at least 2; once every share is 0 or 1 (possible only
    // when shards > partitions), the remaining zeros are bumped outright.
    for i in 0..share.len() {
        if share[i] > 0 {
            continue;
        }
        let richest = (0..share.len()).max_by_key(|&j| (share[j], std::cmp::Reverse(j)));
        match richest {
            Some(j) if share[j] >= 2 => {
                share[j] -= 1;
                share[i] = 1;
            }
            _ => share[i] = 1,
        }
    }
    share
}

/// A scaled-down configuration for one shard of a parallel run: the shard
/// owns `local_sms` SMs and `partitions` memory partitions (computed for
/// the whole split by [`shard_partitions`], so sibling shards' slices sum
/// to the GPU's total and per-SM bandwidth stays unskewed).
pub(crate) fn shard_config(cfg: &GpuConfig, local_sms: u32, partitions: u32) -> GpuConfig {
    let mut shard = cfg.clone();
    shard.num_sms = local_sms;
    shard.memory.partitions = partitions.max(1);
    shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOptions, SimulationResult, SimulatorPreset, SyncQuantum};
    use std::cell::Cell;
    use swiftsim_trace::{ApplicationTrace, InstBuilder, Opcode, TraceSource};

    thread_local! {
        /// How often this thread's sleep sets took each rare path below.
        static SEEN: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    }

    /// A two-phase `Done` reply moved a sleeper's wake.
    pub(super) const DONE_ON_SLEEPER: usize = 0;
    /// An SM fell asleep with warps parked on the LD/ST queue, so it sleeps
    /// on `can_accept`.
    pub(super) const MEM_WAITER: usize = 1;

    pub(super) fn saw(path: usize) {
        SEEN.with(|seen| {
            let mut counts = seen.get();
            counts[path] += 1;
            seen.set(counts);
        });
    }

    fn seen(path: usize) -> u64 {
        SEEN.with(|seen| seen.get()[path])
    }

    fn run_at(
        cfg: &GpuConfig,
        fidelity: FidelityConfig,
        threads: usize,
        app: &dyn TraceSource,
    ) -> SimulationResult {
        let options = RunOptions::default()
            .with_fidelity(fidelity)
            .with_threads(threads);
        let mut result = crate::run(app, cfg, &options).expect("run completes");
        // The only statistic that names the thread count.
        result
            .metrics
            .set("sim.threads", swiftsim_metrics::Value::Count(0));
        result
    }

    fn assert_same(a: &SimulationResult, b: &SimulationResult, ctx: &str) {
        assert_eq!(a.cycles, b.cycles, "{ctx}: cycles");
        assert_eq!(a.kernels, b.kernels, "{ctx}: kernels");
        assert_eq!(a.metrics, b.metrics, "{ctx}: metrics");
    }

    fn dense(mut fidelity: FidelityConfig) -> FidelityConfig {
        fidelity.skip_policy = SkipPolicy::Dense;
        fidelity
    }

    fn small_gpu(sms: u32) -> GpuConfig {
        let mut cfg = swiftsim_config::presets::rtx2080ti();
        cfg.num_sms = sms;
        cfg.memory.partitions = sms;
        cfg
    }

    /// A `Done` reply reaches a sleeper only under a relaxed quantum: at the
    /// per-cycle quantum the SM that issued the access cannot have settled
    /// by the next cycle. It lowers the sleeper's wake only when it lands
    /// before every writeback the SM already waits for, which at `tiny` the
    /// quantum must be long for. The run still matches the dense clock;
    /// per cycle, two threads still match one.
    #[test]
    fn deferred_done_on_a_sleeper_matches_dense_and_one_thread() {
        let cfg = small_gpu(4);
        let app = swiftsim_workloads::by_name("gemm")
            .expect("workload exists")
            .generate(swiftsim_workloads::Scale::Tiny);
        let per_cycle = FidelityConfig::for_preset(SimulatorPreset::SwiftMemory);
        let mut relaxed = per_cycle;
        relaxed.sync_quantum = SyncQuantum::Cycles(64);

        let before = seen(DONE_ON_SLEEPER);
        let event = run_at(&cfg, relaxed, 2, &app);
        assert!(seen(DONE_ON_SLEEPER) > before, "no Done reached a sleeper");
        assert_same(&run_at(&cfg, dense(relaxed), 2, &app), &event, "vs dense");
        assert_same(
            &run_at(&cfg, per_cycle, 1, &app),
            &run_at(&cfg, per_cycle, 2, &app),
            "per-cycle, 2 threads vs 1",
        );
    }

    /// Loads spanning 32 lines each fill the four L1 MSHRs and the LD/ST
    /// queue behind them, so warps park on the queue while their SM sleeps
    /// and is rechecked against `can_accept` every cycle.
    #[test]
    fn ldst_queue_waiters_asleep_match_dense_and_two_threads() {
        let mut cfg = small_gpu(2);
        cfg.sm.l1d.mshr_entries = 4;
        let mut kernel = KernelTrace::new("flood", (2, 1, 1), (256, 1, 1));
        for b in 0..2u64 {
            let block = kernel.push_block();
            for w in 0..8u64 {
                let warp = block.push_warp();
                for i in 0..4u16 {
                    let base = ((b * 8 + w) * 4 + u64::from(i)) << 16;
                    let lines = (0..32).map(|lane| base + lane * 128).collect();
                    warp.push(
                        InstBuilder::new(Opcode::Ldg)
                            .pc(u32::from(i) * 16)
                            .dst(8 + i)
                            .src(2)
                            .explicit_addrs(lines, 4),
                    );
                }
                warp.push(InstBuilder::new(Opcode::Ffma).pc(64).dst(3).src(8).src(11));
                warp.push(InstBuilder::new(Opcode::Exit).pc(80));
            }
        }
        let app = ApplicationTrace::new("flood", vec![kernel]);
        let event = FidelityConfig::for_preset(SimulatorPreset::SwiftBasic);

        let before = seen(MEM_WAITER);
        let one = run_at(&cfg, event, 1, &app);
        assert!(seen(MEM_WAITER) > before, "no sleeper waited on the queue");
        assert_same(&run_at(&cfg, dense(event), 1, &app), &one, "vs dense");
        assert_same(&one, &run_at(&cfg, event, 2, &app), "2 threads vs 1");
    }

    #[test]
    fn split_blocks_round_robin() {
        let s = split_blocks(7, 3);
        assert_eq!(s[0], vec![0, 3, 6]);
        assert_eq!(s[1], vec![1, 4]);
        assert_eq!(s[2], vec![2, 5]);
        assert_eq!(
            split_blocks(0, 3),
            vec![vec![], vec![], vec![]] as Vec<Vec<usize>>
        );
    }

    #[test]
    fn shard_config_scales_partitions() {
        let cfg = swiftsim_config::presets::rtx2080ti(); // 68 SMs, 22 parts
        let parts = shard_partitions(cfg.memory.partitions, &[17, 17, 17, 17]);
        assert_eq!(parts.iter().sum::<u32>(), 22);
        let shard = shard_config(&cfg, 17, parts[0]);
        assert_eq!(shard.num_sms, 17);
        assert_eq!(shard.memory.partitions, parts[0]);
        // Degenerate shard still has one partition.
        assert_eq!(shard_config(&cfg, 1, 0).memory.partitions, 1);
    }

    #[test]
    fn shard_partitions_sum_to_the_gpu_total() {
        // The old floor-division scaling lost partitions on uneven splits
        // (e.g. 22 partitions over 23/23/22 SMs gave 7+7+7 = 21), silently
        // skewing per-SM bandwidth between shards. The apportionment must
        // be exact for every shard count.
        let cfg = swiftsim_config::presets::rtx2080ti(); // 68 SMs, 22 parts
        let total_parts = cfg.memory.partitions;
        for shards in 1..=cfg.num_sms as usize {
            let sizes: Vec<u32> = crate::parallel::split_sms(cfg.num_sms as usize, shards)
                .iter()
                .map(|&n| n as u32)
                .collect();
            let parts = shard_partitions(total_parts, &sizes);
            let sum: u32 = parts.iter().sum();
            // Every shard needs >= 1 partition to simulate, so splits wider
            // than the partition count sum to the shard count instead.
            let expect = total_parts.max(shards as u32);
            assert_eq!(sum, expect, "{shards} shards, sizes {sizes:?}: {parts:?}");
            assert!(parts.iter().all(|&p| p >= 1), "{parts:?}");
            // Proportionality: a shard never gets more than its ceiling
            // share plus the min-1 bump.
            for (i, &p) in parts.iter().enumerate() {
                let ceil = (u64::from(total_parts) * u64::from(sizes[i]))
                    .div_ceil(u64::from(cfg.num_sms)) as u32;
                assert!(p <= ceil.max(1), "shard {i}: {p} > ceil {ceil}");
            }
        }
        // The motivating case from the issue: uneven 23/23/22 split.
        let parts = shard_partitions(22, &[23, 23, 22]);
        assert_eq!(parts.iter().sum::<u32>(), 22);
        assert_eq!(parts, vec![8, 7, 7]);
    }
}
