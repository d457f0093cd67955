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
//! An SM whose tick issued nothing sleeps: the shard's [`SmSet`] stops
//! ticking it from `since`, its first unticked cycle, until its *wake*
//! ([`SmCore::idle_wake`]), the earlier of its next writeback and the
//! earliest cycle an issue port that one of its hazard-free warps waits
//! for frees. Until then every tick would charge the same stalls, which
//! [`SmCore::fall_asleep`] computes from the SM's masks. Each cycle the
//! shard ticks only the awake SMs, in SM index order, so the memory system
//! sees accesses in the order it would if every SM ticked. A sleeper is
//! roused when its wake comes due, when a memory completion is delivered
//! to it or a block is installed on it, or, if it has warps parked on a
//! full LD/ST queue, once the memory system accepts from it again
//! (rechecked every cycle). A `Done` reply committed for a worker shard
//! never reaches a sleeper: the SM made the access the cycle before, in a
//! tick that issued, so it is still awake.
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
    /// The dense test oracle: no SM ever sleeps.
    dense: bool,
    /// Bit `i % 64` of word `i / 64` is set while SM `i` is awake.
    awake: Vec<u64>,
    /// Per sleeper: its first unticked, uncredited cycle, and its wake.
    since: Vec<Cycle>,
    wake_at: Vec<Option<Cycle>>,
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
            dense: sim.dense_clock,
            awake,
            since: vec![0; n],
            wake_at: vec![None; n],
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

    /// Whether `(at, i)` from the wake heap is SM `i`'s current wake.
    fn is_wake(&self, at: Cycle, i: usize) -> bool {
        self.is_asleep(i) && self.wake_at[i] == Some(at)
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
    /// SM that made its access last cycle in a tick that issued, so cannot
    /// have fallen asleep since.
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
            if self.is_wake(at, i) {
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

    /// Tick awake SM `i`, and put it to sleep if it issued nothing and
    /// cannot act in the next cycle.
    pub(crate) fn tick(
        &mut self,
        i: usize,
        now: Cycle,
        mem: &mut dyn MemorySystem,
        prof: &mut Profiler,
    ) -> &TickOutcome {
        let sm = &mut self.sms[i];
        sm.tick(now, mem, prof, &mut self.outcome);
        if self.dense || self.outcome.issued > 0 {
            return &self.outcome;
        }
        let wake = sm.idle_wake(now);
        if wake.is_some_and(|at| at <= now + 1) {
            return &self.outcome;
        }
        sm.fall_asleep();
        #[cfg(test)]
        tests::saw_sleep(sm, now);
        self.awake[i / 64] &= !(1 << (i % 64));
        self.since[i] = now + 1;
        self.wake_at[i] = wake;
        if let Some(at) = wake {
            self.wakes.push(Reverse((at, i)));
        }
        if sm.waits_on_mem_queue() {
            #[cfg(test)]
            tests::saw(&tests::MEM_WAITERS);
            self.mem_waiters.push(i);
        }
        &self.outcome
    }

    /// The earliest wake of any sleeper.
    pub(crate) fn next_wake(&mut self) -> Option<Cycle> {
        while let Some(&Reverse((at, i))) = self.wakes.peek() {
            if self.is_wake(at, i) {
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
    use swiftsim_metrics::ProfModule;
    use swiftsim_trace::{ApplicationTrace, InstBuilder, Opcode, TraceSource};

    // How often any sleep set took each path below. Global, because
    // deferred `Done`s are applied on worker threads; the tests only ask
    // whether a count grew across their own runs.

    /// A worker shard applied a two-phase `Done` reply.
    pub(super) static DEFERRED_DONES: AtomicU64 = AtomicU64::new(0);
    /// An SM fell asleep with warps parked on the LD/ST queue, so it sleeps
    /// on `can_accept`.
    pub(super) static MEM_WAITERS: AtomicU64 = AtomicU64::new(0);
    /// An SM fell asleep until an issue port frees, before any writeback.
    static PORT_WAKES: AtomicU64 = AtomicU64::new(0);
    /// An SM fell asleep with warps waiting at a barrier.
    static BARRIER_SLEEPS: AtomicU64 = AtomicU64::new(0);
    /// A detailed-front-end SM fell asleep credited re-probe misses.
    static REPROBE_SLEEPS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn saw(path: &AtomicU64) {
        path.fetch_add(1, Ordering::Relaxed);
    }

    /// Count the paths an SM falling asleep after its tick at `now` takes.
    pub(super) fn saw_sleep(sm: &SmCore<'_>, now: Cycle) {
        let port = sm.port_wake(now);
        if port.is_some_and(|p| sm.next_writeback().is_none_or(|w| p < w)) {
            saw(&PORT_WAKES);
        }
        if sm.waits_at_barrier() {
            saw(&BARRIER_SLEEPS);
        }
        if sm.sleep_delta().icache_misses > 0 {
            saw(&REPROBE_SLEEPS);
        }
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

    /// `app` on `preset` with the event-driven clock, at one thread and
    /// two, against the dense oracle at both: the sleep path `path` must be
    /// taken, and every statistic agree.
    fn sleeps_match_dense(
        cfg: &GpuConfig,
        preset: SimulatorPreset,
        app: &ApplicationTrace,
        path: &AtomicU64,
    ) {
        let event = RunOptions::default().with_preset(preset);
        let before = seen(path);
        let one = run_at(cfg, event.clone(), app);
        assert!(seen(path) > before, "the sleep path was not taken");
        for threads in [1, 2] {
            let event = event.clone().with_threads(threads);
            let dense = run_at(cfg, event.clone().with_dense_clock(), app);
            assert_same(&dense, &one, &format!("dense at {threads} threads"));
            assert_same(
                &run_at(cfg, event, app),
                &one,
                &format!("{threads} threads"),
            );
        }
    }

    /// A block per SM of `warps` warps, each running `body(w)` then EXIT.
    fn one_block_per_sm(
        sms: u64,
        warps: u64,
        body: impl Fn(u64, &mut swiftsim_trace::WarpTrace),
    ) -> ApplicationTrace {
        let mut kernel = KernelTrace::new("k", (sms as u32, 1, 1), (32 * warps as u32, 1, 1));
        for _ in 0..sms {
            let block = kernel.push_block();
            for w in 0..warps {
                let warp = block.push_warp();
                body(w, warp);
                warp.push(InstBuilder::new(Opcode::Exit).pc(0x200));
            }
        }
        ApplicationTrace::new("sleeps", vec![kernel])
    }

    /// Two warps per sub-core each issue two independent DFMAs: the DP
    /// port takes a DFMA every 32 cycles, so the SM sleeps until the port
    /// frees, before the first writeback lands at 48.
    #[test]
    fn sleeps_through_a_dp_port_wait() {
        let app = one_block_per_sm(2, 8, |_, warp| {
            warp.push(InstBuilder::new(Opcode::Dfma).dst(1));
            warp.push(InstBuilder::new(Opcode::Dfma).pc(16).dst(2));
        });
        sleeps_match_dense(
            &small_gpu(2),
            SimulatorPreset::SwiftMemory,
            &app,
            &PORT_WAKES,
        );
    }

    /// One warp issues a DFMA at cycle 0 and waits for the DP port with a
    /// second: cycle 1 is quiet, the SM sleeps until the port frees at 32,
    /// and the clock jumps from 2 straight there (30 cycles). Its EXIT then
    /// waits out the two writebacks, at 48 and 80: jumps of 14 and 31. A
    /// jump held back one cycle for the port wait would skip 74.
    #[test]
    fn a_port_wait_jumps_from_its_first_quiet_cycle() {
        let cfg = small_gpu(2);
        let app = one_block_per_sm(1, 1, |_, warp| {
            warp.push(InstBuilder::new(Opcode::Dfma).dst(1));
            warp.push(InstBuilder::new(Opcode::Dfma).pc(16).dst(2));
        });
        let event = RunOptions::default().with_preset(SimulatorPreset::SwiftMemory);
        let one = run_at(&cfg, event.clone(), &app);
        assert_eq!(one.cycles, 80);
        for threads in [1, 2] {
            let event = event.clone().with_threads(threads);
            let profile = crate::run(&app, &cfg, &event.clone().with_profile(true))
                .expect("run completes")
                .profile
                .expect("profile requested");
            assert_eq!(
                profile.total_cycles(ProfModule::CycleSkip),
                30 + 14 + 31,
                "skipped cycles at {threads} threads"
            );
            let dense = run_at(&cfg, event.clone().with_dense_clock(), &app);
            assert_same(&dense, &one, &format!("dense at {threads} threads"));
            assert_same(
                &run_at(&cfg, event, &app),
                &one,
                &format!("{threads} threads"),
            );
        }
    }

    /// Half the warps reach the barrier at once; the rest wait on a DFMA
    /// chain first, so the SM sleeps with warps at the barrier.
    #[test]
    fn sleeps_with_warps_at_a_barrier() {
        let app = one_block_per_sm(2, 8, |w, warp| {
            if w % 2 == 1 {
                warp.push(InstBuilder::new(Opcode::Dfma).dst(1));
                warp.push(InstBuilder::new(Opcode::Dfma).pc(16).dst(2).src(1));
            }
            warp.push(InstBuilder::new(Opcode::Bar).pc(32));
        });
        sleeps_match_dense(
            &small_gpu(2),
            SimulatorPreset::SwiftBasic,
            &app,
            &BARRIER_SLEEPS,
        );
    }

    /// On the detailed front end, two stalled warps whose heads share an
    /// instruction-tag set thrash it on every re-probe pass, and a third
    /// misses on its new head line only in the first pass: a sleeping SM is
    /// credited the second pass's misses every cycle, not the first's.
    #[test]
    fn detailed_sleeps_are_credited_the_second_pass_misses() {
        let bases = [0, 256 << 7, 0x1000];
        let app = one_block_per_sm(2, 3, |w, warp| {
            let base = bases[w as usize];
            warp.push(InstBuilder::new(Opcode::Dfma).pc(base).dst(1));
            warp.push(InstBuilder::new(Opcode::Iadd).pc(base + 0x80).src(1));
        });
        sleeps_match_dense(
            &small_gpu(2),
            SimulatorPreset::Detailed,
            &app,
            &REPROBE_SLEEPS,
        );
    }

    /// One block fits an SM at a time (its shared memory), and in each,
    /// warps 1 to 3 exit at once while warp 0 waits out the DP port: their
    /// sub-cores go idle with no live warp, and each next block's install
    /// must rouse them. A missed one never issues its warps' exits.
    #[test]
    fn installs_rouse_idle_sub_cores() {
        let cfg = small_gpu(2);
        let mut kernel = KernelTrace::new("refill", (6, 1, 1), (128, 1, 1));
        kernel.shared_mem_bytes = cfg.sm.shared_mem_bytes;
        for _ in 0..6 {
            let block = kernel.push_block();
            for w in 0..4 {
                let warp = block.push_warp();
                if w == 0 {
                    warp.push(InstBuilder::new(Opcode::Dfma).dst(1));
                    warp.push(InstBuilder::new(Opcode::Dfma).pc(16).dst(2));
                    warp.push(InstBuilder::new(Opcode::Iadd).pc(32).src(1).src(2));
                }
                warp.push(InstBuilder::new(Opcode::Exit).pc(0x200));
            }
        }
        let app = ApplicationTrace::new("refill", vec![kernel]);
        for threads in [1, 2] {
            let event = RunOptions::default()
                .with_preset(SimulatorPreset::SwiftMemory)
                .with_threads(threads);
            let dense = run_at(&cfg, event.clone().with_dense_clock(), &app);
            assert_same(
                &run_at(&cfg, event, &app),
                &dense,
                &format!("{threads} threads"),
            );
        }
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
                for i in 0..4u8 {
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
