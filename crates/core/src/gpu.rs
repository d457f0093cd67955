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
//! This module holds what the kernel loop ([`crate::twophase`]) drives: a
//! *shard*, a contiguous range of SMs ticked by one thread, kept in an
//! [`SmSet`]. A single-threaded run is one shard covering the whole GPU;
//! `--threads N` splits the SMs into N shards over one memory system.
//!
//! # Sleeping SMs: the event-driven engine
//!
//! An SM whose per-cycle effect is known ([`SmCore::is_settled`]) stops
//! being ticked: the shard's [`SmSet`] puts it to sleep from `since`, its
//! first unticked cycle, until its *wake*, the head of its writeback heap. Each cycle the shard ticks only the
//! awake SMs, in SM index order, so the memory system sees accesses in the
//! order it would if every SM ticked. A sleeper is roused when its wake
//! comes due, when a memory completion is delivered to it or a block is
//! installed on it, or, if it has warps parked on a full LD/ST queue, once
//! the memory system accepts from it again (rechecked every cycle). A
//! `Done` reply committed for a worker shard never reaches a sleeper: the
//! SM made the access the cycle before, so it is still awake.
//! Rousing credits the sleeper `delta × (now − since)` **exactly once**,
//! before anything else touches it; the kernel's end credits every sleeper
//! before stats are read. Credited cycles count exactly as dense ticks, so
//! stats are **bit-identical** to the dense test oracle
//! ([`RunOptions::with_dense_clock`]), which never puts an SM to sleep
//! (`tests/event_engine_equiv.rs` enforces it).
//!
//! [`RunOptions::with_dense_clock`]: crate::RunOptions::with_dense_clock
//!
//! When every SM sleeps after a quiet cycle, nothing can happen before the
//! earliest wake or [`MemorySystem::next_event`]: the kernel loop jumps
//! the clock there (the jumped cycles attributed to
//! [`ProfModule::CycleSkip`](swiftsim_metrics::ProfModule::CycleSkip)),
//! and with neither, the kernel fails with
//! [`SimError::Deadlock`] at once.

use crate::alu::{AluModel, AnalyticalAlu, CycleAccurateAlu};
use crate::block_scheduler::Occupancy;
use crate::builder::GpuSimulator;
use crate::error::SimError;
use crate::fidelity::{AluModelKind, FrontendModelKind};
use crate::mem_system::MemorySystem;
use crate::scheduler::make_policy;
use crate::sm::{SmCore, SmStats, TickOutcome, WbTarget};
use crate::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use swiftsim_config::GpuConfig;
use swiftsim_metrics::Profiler;
use swiftsim_trace::{BlockTrace, KernelTrace};

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
    /// slots each for `kernel`, all awake at `start`. Under the dense test
    /// oracle no SM ever sleeps.
    pub(crate) fn new(
        sim: &GpuSimulator,
        kernel: &'a KernelTrace,
        slots: usize,
        sm_ids: Range<usize>,
        start: Cycle,
    ) -> Self {
        let (cfg, fidelity) = (&sim.cfg, sim.fidelity);
        let blocks = kernel.blocks();
        // Uniform per kernel: `is_consistent` checked every block.
        let warps_per_block = blocks.first().map_or(0, |b| b.warps().len());
        let n = sm_ids.len();
        let sms = sm_ids.enumerate().map(|(i, global)| {
            SmCore::new(
                i,
                global,
                &cfg.sm,
                slots,
                warps_per_block,
                make_alu(fidelity.alu, cfg),
                fidelity.frontend == FrontendModelKind::Detailed,
                !sim.dense_clock,
                &|| make_policy(cfg.sm.scheduler),
            )
        });
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

    /// A two-phase `Done` reply ([`SmCore::apply_deferred_done`]) for an
    /// SM that made its access last cycle, so cannot have settled since.
    pub(crate) fn apply_deferred_done(
        &mut self,
        i: usize,
        target: WbTarget,
        at: Cycle,
        issue_now: Cycle,
        prof: &mut Profiler,
    ) {
        debug_assert!(!self.is_asleep(i), "Done for sleeping SM {i}");
        #[cfg(test)]
        tests::saw(&tests::DEFERRED_DONES);
        self.sms[i].apply_deferred_done(target, at, issue_now, prof);
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
                tests::saw(&tests::MEM_WAITERS);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOptions, SimulationResult, SimulatorPreset};
    use std::sync::atomic::{AtomicU64, Ordering};
    use swiftsim_trace::{ApplicationTrace, InstBuilder, Opcode, TraceSource};

    // How often any sleep set took each path below. Global, because
    // deferred `Done`s are applied on worker threads; the tests only ask
    // whether a count grew across their own runs.

    /// A worker shard applied a two-phase `Done` reply.
    pub(super) static DEFERRED_DONES: AtomicU64 = AtomicU64::new(0);
    /// An SM fell asleep with warps parked on the LD/ST queue, so it sleeps
    /// on `can_accept`.
    pub(super) static MEM_WAITERS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn saw(path: &AtomicU64) {
        path.fetch_add(1, Ordering::Relaxed);
    }

    fn seen(path: &AtomicU64) -> u64 {
        path.load(Ordering::Relaxed)
    }

    fn run_at(cfg: &GpuConfig, options: RunOptions, app: &dyn TraceSource) -> SimulationResult {
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

    fn small_gpu(sms: u32) -> GpuConfig {
        let mut cfg = swiftsim_config::presets::rtx2080ti();
        cfg.num_sms = sms;
        cfg.memory.partitions = sms;
        cfg
    }

    /// Only worker shards take deferred `Done` replies (shard 0 takes its
    /// replies at once), each the cycle after its access, when the SM that
    /// made it is still awake: debug builds assert that in
    /// [`SmSet::apply_deferred_done`]. The analytical memory answers every
    /// access `Done`, so four one-SM shards apply many. The run still
    /// matches the dense clock and one thread.
    #[test]
    fn deferred_dones_on_worker_shards_match_dense_and_one_thread() {
        let cfg = small_gpu(4);
        let app = swiftsim_workloads::by_name("gemm")
            .expect("workload exists")
            .generate(swiftsim_workloads::Scale::Tiny);
        let event = RunOptions::default().with_preset(SimulatorPreset::SwiftMemory);

        let before = seen(&DEFERRED_DONES);
        let four = run_at(&cfg, event.clone().with_threads(4), &app);
        assert!(
            seen(&DEFERRED_DONES) > before,
            "no worker shard took a Done"
        );
        let dense = event.clone().with_threads(4).with_dense_clock();
        assert_same(&run_at(&cfg, dense, &app), &four, "vs dense");
        assert_same(&run_at(&cfg, event, &app), &four, "4 threads vs 1");
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
        let event = RunOptions::default().with_preset(SimulatorPreset::SwiftBasic);

        let before = seen(&MEM_WAITERS);
        let one = run_at(&cfg, event.clone(), &app);
        assert!(
            seen(&MEM_WAITERS) > before,
            "no sleeper waited on the queue"
        );
        let dense = event.clone().with_dense_clock();
        assert_same(&run_at(&cfg, dense, &app), &one, "vs dense");
        assert_same(
            &one,
            &run_at(&cfg, event.with_threads(2), &app),
            "2 threads vs 1",
        );
    }
}
