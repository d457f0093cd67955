//! The two-phase deterministic parallel engine.
//!
//! The legacy parallel path ([`crate::parallel`]) decouples shards
//! completely: each worker owns a private slice of the memory hierarchy and
//! the shards never exchange traffic. That is fast but approximate — and
//! its results depend on the shard count. This engine removes both
//! caveats: there is **one** shared memory system, and simulated time
//! advances in *synchronization quanta* ([`SyncQuantum`]):
//!
//! 1. **Compute phase** — every shard worker ticks its SMs through the
//!    quantum independently. Memory-visible events (global/local accesses)
//!    are not applied; they are buffered into a per-shard SPSC queue
//!    ([`crate::spsc`]) behind a [`DeferredPort`], in deterministic buffer
//!    order (cycle-major, then SM, then issue order within the tick).
//! 2. **Commit phase** — the coordinator drains the queues *in shard
//!    order* and applies every buffered access to the shared memory
//!    system. Shard-major order over contiguous SM ranges is exactly the
//!    sequential engine's SM-tick order, so the memory system observes the
//!    same calls in the same order with the same arguments as a
//!    single-threaded run.
//!
//! Under [`SyncQuantum::PerCycle`] the quantum is one cycle and the replay
//! is *exact*: block dispatch, completion delivery, `can_accept`
//! back-pressure snapshots, and deferred `Done` writebacks all line up
//! with the sequential loop's intra-cycle step order (dispatch →
//! deliver → tick), making the results **bit-identical** to
//! `run_single` for any thread count — enforced by
//! `tests/event_engine_equiv.rs`. The event-driven cycle skip is folded
//! in: the coordinator arms jumps from the same quiet/candidate rules as
//! the sequential engine and the workers replay their quiescent stat
//! deltas, so quiescent shards cost no per-cycle work.
//!
//! [`SyncQuantum::Cycles`]`(q)` relaxes the hand-off: workers tick `q`
//! cycles per phase against snapshots taken at the quantum boundary.
//! Deterministic and reproducible for a fixed configuration, but memory
//! contention is observed at quantum granularity, so statistics may
//! diverge from the sequential engine (measured, not silent — see the
//! `parallel_speedup` bench). Clock jumps are disabled in this mode; the
//! per-SM quiescence cache keeps idle ticks cheap instead.

use crate::block_scheduler::{BlockScheduler, Occupancy};
use crate::builder::{GpuSimulator, RunDriver};
use crate::error::SimError;
use crate::fidelity::{
    FidelityConfig, FrontendModelKind, MemoryModelKind, SkipPolicy, SyncQuantum,
};
use crate::gpu::{make_alu, merge_into};
use crate::mem_system::{
    build_analytical_memory_for, build_analytical_memory_reuse_for, CycleAccurateMemory,
    MemCompletion, MemReply, MemorySystem,
};
use crate::parallel::split_sms;
use crate::prefetch::Prefetcher;
use crate::result::{KernelResult, SimulationResult};
use crate::sampling::RepMeasure;
use crate::scheduler::make_policy;
use crate::sm::{SmCore, SmStats, WbTarget};
use crate::spsc;
use crate::Cycle;
use std::sync::mpsc;
use swiftsim_config::GpuConfig;
use swiftsim_mem::FastMap;
use swiftsim_mem::MemTxn;
use swiftsim_metrics::{MetricsCollector, ProfModule, ProfileReport, Profiler};
use swiftsim_trace::{KernelTrace, TraceSource};

/// One buffered memory access: everything the sequential engine would have
/// passed to [`MemorySystem::access`], plus the writeback target filled in
/// from the issuing SM's [`TickOutcome::new_tokens`](crate::sm::TickOutcome).
struct AccessRecord {
    local_sm: usize,
    pc: u32,
    txns: Vec<MemTxn>,
    /// The `now` argument the SM passed (AGU/port availability), which the
    /// sequential engine hands to the memory system verbatim.
    agu_done: Cycle,
    /// The cycle the instruction issued in, for LD/ST latency attribution.
    issue_now: Cycle,
    target: WbTarget,
}

/// A `MemReply::Done` resolved during commit, to be applied by the owning
/// worker just before its next compute phase.
struct DeferredDone {
    local_sm: usize,
    target: WbTarget,
    at: Cycle,
    issue_now: Cycle,
}

/// One synchronization quantum's worth of coordinator → worker state.
struct QuantumCmd {
    base: Cycle,
    len: Cycle,
    /// Blocks dispatched this quantum: `(local SM, global block id)`.
    installs: Vec<(usize, usize)>,
    /// Memory completions due now: writeback targets per local SM.
    writebacks: Vec<(usize, WbTarget)>,
    /// `Done` replies committed last quantum.
    dones: Vec<DeferredDone>,
    /// Per-local-SM memory back-pressure snapshot.
    can_accept: Vec<bool>,
    /// Snapshot per-SM stats *before* processing this command (the
    /// coordinator just observed a quiet cycle and armed a clock jump).
    arm: bool,
}

enum Cmd {
    Quantum(QuantumCmd),
    /// Replay the armed quiescent delta `extra` times (event-driven jump).
    Jump {
        extra: Cycle,
    },
    /// Kernel over (or aborting): apply leftover dones, report and exit.
    Finish {
        dones: Vec<DeferredDone>,
    },
}

/// Worker → coordinator phase summary. Sent *after* the quantum's access
/// records are pushed to the SPSC queue, so receiving it guarantees
/// `records` entries are poppable.
#[derive(Default)]
struct Summary {
    issued: u32,
    unit_busy: bool,
    /// Local SM index per completed block, in tick order.
    completed: Vec<usize>,
    /// Minimum next-wakeup hint across SMs for the quantum's last cycle.
    wakeup: Option<Cycle>,
    /// Access records pushed this quantum.
    records: usize,
}

/// What a worker thread returns on join.
struct WorkerExit {
    stats: SmStats,
    stalled: Option<String>,
}

/// How the coordinator loop ended.
enum CoordEnd {
    Finished {
        end: Cycle,
    },
    Deadlock {
        cycle: Cycle,
    },
    /// A worker's channel closed unexpectedly (it panicked).
    Dead {
        shard: usize,
    },
}

fn min_opt(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// The worker-side stand-in for the shared memory system: buffers accesses
/// instead of applying them, and answers `can_accept` from the
/// coordinator's per-quantum snapshot. Every access "replies"
/// `Pending(record index)`, which routes the writeback target back here
/// through the SM's normal token path.
struct DeferredPort {
    can_accept: Vec<bool>,
    now: Cycle,
    records: Vec<AccessRecord>,
}

impl MemorySystem for DeferredPort {
    fn can_accept(&self, sm: usize) -> bool {
        self.can_accept[sm]
    }

    fn access(&mut self, sm: usize, pc: u32, txns: &[MemTxn], now: Cycle) -> MemReply {
        self.records.push(AccessRecord {
            local_sm: sm,
            pc,
            txns: txns.to_vec(),
            agu_done: now,
            issue_now: self.now,
            target: WbTarget {
                slot: 0,
                warp: 0,
                reg: swiftsim_trace::Reg(u16::MAX),
            },
        });
        MemReply::Pending(self.records.len() as u64 - 1)
    }

    fn advance(&mut self, _now: Cycle, _completions: &mut Vec<MemCompletion>) {}

    fn next_event(&self) -> Option<Cycle> {
        None
    }

    fn report(&self, _collector: &mut MetricsCollector) {}

    fn name(&self) -> &'static str {
        "deferred-port"
    }
}

pub(crate) fn run_two_phase(
    sim: &GpuSimulator,
    source: &dyn TraceSource,
) -> Result<SimulationResult, SimError> {
    let total_sms = sim.cfg.num_sms as usize;
    let group_sizes = split_sms(total_sms, sim.threads);
    let shards = group_sizes.len();
    let sm_id_groups: Vec<Vec<usize>> = {
        let mut next = 0usize;
        group_sizes
            .iter()
            .map(|&n| {
                let ids = (next..next + n).collect();
                next += n;
                ids
            })
            .collect()
    };
    let quantum: Cycle = match sim.fidelity.sync_quantum {
        SyncQuantum::PerCycle => 1,
        SyncQuantum::Cycles(n) => Cycle::from(n),
        SyncQuantum::Unsynchronized => {
            unreachable!("builder dispatches Unsynchronized to run_parallel")
        }
    };

    let total = source.num_kernels();
    let mut driver = RunDriver::new(sim, source)?;

    // One shared memory system, built exactly as the single-threaded path
    // builds its — the whole point of the engine.
    let mut mem: Box<dyn MemorySystem> = match sim.fidelity.memory {
        MemoryModelKind::CycleAccurate => Box::new(CycleAccurateMemory::new(&sim.cfg)),
        MemoryModelKind::Analytical => {
            build_analytical_memory_for(&sim.cfg, source, &driver.prepass_indices(total))?
        }
        MemoryModelKind::AnalyticalReuse => {
            build_analytical_memory_reuse_for(&sim.cfg, source, &driver.prepass_indices(total))?
        }
    };
    driver.restore_memory(mem.as_mut())?;

    // Shard workers render on tracks 0..shards, the coordinator (phase
    // sync, block scheduler, memory) on the next track, decode on the one
    // after; one epoch lines the frames up.
    let epoch = std::time::Instant::now();
    let mut worker_profs: Vec<Profiler> = (0..shards)
        .map(|i| {
            if sim.profile {
                Profiler::enabled_on_track(epoch, i)
            } else {
                Profiler::disabled()
            }
        })
        .collect();
    let mut prof = if sim.profile {
        Profiler::enabled_on_track(epoch, shards)
    } else {
        Profiler::disabled()
    };
    let decode_prof = if sim.profile {
        Profiler::enabled_on_track(epoch, shards + 1)
    } else {
        Profiler::disabled()
    };
    mem.set_profiling(sim.profile);

    std::thread::scope(|dscope| {
        let mut pf = Prefetcher::with_schedule(
            dscope,
            source,
            decode_prof,
            source.prefers_prefetch(),
            driver.decode_schedule(total),
        );
        let (mut start, mut total_stats, mut kernels) = driver.initial();

        for kidx in driver.start_kernel()..total {
            if driver.is_detailed(kidx) {
                let kernel = pf.get(kidx)?;
                let kernel = &*kernel;
                let outcome = run_kernel_two_phase(
                    &sim.cfg,
                    kernel,
                    kidx,
                    &sm_id_groups,
                    quantum,
                    sim.fidelity,
                    mem.as_mut(),
                    &mut worker_profs,
                    &mut prof,
                    start,
                )?;
                let measure = RepMeasure {
                    cycles: outcome.end_cycle - start,
                    stats: outcome.stats,
                    instructions: outcome.stats.issued,
                    blocks: kernel.blocks().len() as u64,
                };
                driver.record(kidx, measure);
                kernels.push(KernelResult {
                    name: kernel.name.clone(),
                    cycles: measure.cycles,
                    instructions: measure.instructions,
                    blocks: measure.blocks,
                });
                merge_into(&mut total_stats, outcome.stats);
                start = outcome.end_cycle;
            } else {
                // Replayed launch: synthesized from its cluster's
                // representatives, trace body never decoded.
                let replayed = driver.replay(kidx);
                kernels.push(KernelResult {
                    name: source.kernel_meta(kidx).name,
                    cycles: replayed.cycles,
                    instructions: replayed.instructions,
                    blocks: replayed.blocks,
                });
                total_stats.add(&replayed.stats);
                start += replayed.cycles;
            }
            if !driver.boundary(kidx, start, &total_stats, &kernels, mem.as_ref())? {
                break;
            }
        }

        let mut metrics = MetricsCollector::new();
        crate::builder::report_common(&mut metrics, start, &total_stats, sim);
        // One memory system, so its metrics land unscoped, exactly like a
        // single-threaded run — no `shard*` prefixes to reconcile.
        mem.report(&mut metrics);

        let profile = sim.profile.then(|| {
            ProfileReport::merge(
                worker_profs
                    .into_iter()
                    .chain([prof, pf.finish()])
                    .map(Profiler::into_report)
                    .collect(),
            )
        });
        let confidence = driver.confidence(&kernels);

        Ok(SimulationResult {
            app: source.name().to_owned(),
            simulator: format!("{}@{}threads", sim.description(), shards),
            fidelity: sim.fidelity,
            cycles: start,
            kernels,
            metrics,
            wall_time: std::time::Duration::ZERO, // filled by run()
            confidence,
            profile,
        })
    })
}

struct KernelOutcome {
    end_cycle: Cycle,
    stats: SmStats,
}

#[allow(clippy::too_many_arguments)]
fn run_kernel_two_phase(
    cfg: &GpuConfig,
    kernel: &KernelTrace,
    kidx: usize,
    sm_id_groups: &[Vec<usize>],
    quantum: Cycle,
    fidelity: FidelityConfig,
    mem: &mut dyn MemorySystem,
    worker_profs: &mut [Profiler],
    prof: &mut Profiler,
    start: Cycle,
) -> Result<KernelOutcome, SimError> {
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
    let occupancy = Occupancy::compute(&cfg.sm, kernel)?;
    let warps_per_block = kernel.blocks().first().map_or(0, |b| b.warps().len());
    let shards = sm_id_groups.len();
    let total_sms: usize = sm_id_groups.iter().map(Vec::len).sum();

    let mut cmd_txs = Vec::with_capacity(shards);
    let mut rec_rxs = Vec::with_capacity(shards);
    let mut sum_rxs = Vec::with_capacity(shards);
    let mut worker_ends = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
        let (rec_tx, rec_rx) = spsc::channel::<AccessRecord>();
        let (sum_tx, sum_rx) = mpsc::channel::<Summary>();
        cmd_txs.push(cmd_tx);
        rec_rxs.push(rec_rx);
        sum_rxs.push(sum_rx);
        worker_ends.push((cmd_rx, rec_tx, sum_tx));
    }

    let mut bs = BlockScheduler::new(total_sms, kernel.blocks().len(), occupancy.blocks_per_sm);
    let mut pending_dones: Vec<Vec<DeferredDone>> = (0..shards).map(|_| Vec::new()).collect();

    prof.begin_frame(&format!("k{kidx}:{}", kernel.name));
    let (end, exits) = std::thread::scope(|scope| {
        let handles: Vec<_> = worker_profs
            .iter_mut()
            .zip(sm_id_groups)
            .zip(worker_ends.drain(..))
            .map(|((wprof, sm_ids), (cmd_rx, rec_tx, sum_tx))| {
                scope.spawn(move || {
                    worker_loop(
                        cfg,
                        kernel,
                        kidx,
                        occupancy.blocks_per_sm as usize,
                        warps_per_block,
                        fidelity,
                        sm_ids,
                        cmd_rx,
                        rec_tx,
                        sum_tx,
                        wprof,
                    )
                })
            })
            .collect();

        let end = coordinate(
            mem,
            &mut bs,
            sm_id_groups,
            quantum,
            fidelity.skip_policy == SkipPolicy::EventDriven && quantum == 1,
            start,
            &cmd_txs,
            &rec_rxs,
            &sum_rxs,
            &mut pending_dones,
            prof,
        );

        // Wind down every worker (alive or not), shipping leftover dones
        // so their LD/ST attribution is complete, then collect exits.
        for (shard, tx) in cmd_txs.iter().enumerate() {
            let _ = tx.send(Cmd::Finish {
                dones: std::mem::take(&mut pending_dones[shard]),
            });
        }
        drop(cmd_txs);
        let exits: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (end, exits)
    });
    mem.report_profile(prof);
    prof.end_frame();

    // Surface a worker panic over any other outcome — it is the root cause.
    if let Some((shard, payload)) = exits
        .iter()
        .enumerate()
        .find_map(|(i, e)| e.as_ref().err().map(|p| (i, p)))
    {
        return Err(SimError::WorkerPanic {
            context: format!("shard {shard} of kernel {:?}", kernel.name),
            message: crate::error::panic_message(payload.as_ref()),
        });
    }
    let exits: Vec<WorkerExit> = exits.into_iter().filter_map(Result::ok).collect();

    match end {
        CoordEnd::Finished { end } => {
            let mut stats = SmStats::default();
            for e in &exits {
                merge_into(&mut stats, e.stats);
            }
            Ok(KernelOutcome {
                end_cycle: end,
                stats,
            })
        }
        CoordEnd::Deadlock { cycle } => {
            let stalled = exits
                .iter()
                .enumerate()
                .find_map(|(i, e)| e.stalled.as_ref().map(|s| (i, s.clone())));
            let shard = stalled.as_ref().map_or(0, |(i, _)| *i);
            let warp = stalled.map(|(_, s)| s);
            let detail = match (warp, mem.oldest_pending()) {
                (Some(w), Some(m)) => format!("{w}; {m}"),
                (Some(w), None) => w,
                (None, Some(m)) => m,
                (None, None) => "no resident warp or pending memory request".to_owned(),
            };
            Err(SimError::Deadlock {
                cycle,
                shard,
                detail,
            })
        }
        CoordEnd::Dead { shard } => Err(SimError::WorkerPanic {
            context: format!("shard {shard} of kernel {:?}", kernel.name),
            message: "worker channel closed without a panic payload".to_owned(),
        }),
    }
}

/// The coordinator: runs the quantum loop against the shared memory
/// system. Mirrors the sequential engine's per-cycle step order exactly —
/// dispatch, advance/deliver, (workers tick), commit, terminate/advance —
/// including the event-driven arm/confirm/jump protocol.
#[allow(clippy::too_many_arguments)]
fn coordinate(
    mem: &mut dyn MemorySystem,
    bs: &mut BlockScheduler,
    sm_id_groups: &[Vec<usize>],
    quantum: Cycle,
    event_driven: bool,
    start: Cycle,
    cmd_txs: &[mpsc::Sender<Cmd>],
    rec_rxs: &[spsc::Receiver<AccessRecord>],
    sum_rxs: &[mpsc::Receiver<Summary>],
    pending_dones: &mut [Vec<DeferredDone>],
    prof: &mut Profiler,
) -> CoordEnd {
    let shards = sm_id_groups.len();
    let mut tokens: FastMap<u64, (usize, usize, WbTarget)> = FastMap::default();
    let mut completions: Vec<MemCompletion> = Vec::new();
    let mut record_buf: Vec<AccessRecord> = Vec::new();
    let mut now = start;
    let mut idle_streak: u64 = 0;
    let mut plan: Option<Cycle> = None;
    let mut arm_next = false;

    loop {
        // 1. Dispatch pending blocks (global Block Scheduler over global SM
        //    ids — identical pick order to the sequential engine).
        let mut installs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); shards];
        let mut installed = false;
        if bs.remaining() > 0 {
            let t0 = prof.start();
            for (shard, ids) in sm_id_groups.iter().enumerate() {
                for (local, &global_sm) in ids.iter().enumerate() {
                    while let Some(block) = bs.dispatch(global_sm) {
                        installs[shard].push((local, block));
                        installed = true;
                    }
                }
            }
            prof.record(ProfModule::BlockScheduler, t0);
        }

        // 2. Deliver memory completions due by now, routed to the owning
        //    shard in completion order.
        completions.clear();
        mem.advance(now, &mut completions);
        let delivered = !completions.is_empty();
        let mut writebacks: Vec<Vec<(usize, WbTarget)>> = vec![Vec::new(); shards];
        for c in completions.drain(..) {
            if let Some((shard, local, target)) = tokens.remove(&c.token) {
                writebacks[shard].push((local, target));
            }
        }

        // 3. Compute phase: hand each shard its quantum. `can_accept` is
        //    snapshotted post-advance; it only depends on the SM's own
        //    queue, which cannot change before that SM's tick, so the
        //    snapshot equals what the sequential engine would read.
        let arm = std::mem::take(&mut arm_next);
        for (shard, ids) in sm_id_groups.iter().enumerate() {
            let cmd = Cmd::Quantum(QuantumCmd {
                base: now,
                len: quantum,
                installs: std::mem::take(&mut installs[shard]),
                writebacks: std::mem::take(&mut writebacks[shard]),
                dones: std::mem::take(&mut pending_dones[shard]),
                can_accept: ids.iter().map(|&g| mem.can_accept(g)).collect(),
                arm,
            });
            if cmd_txs[shard].send(cmd).is_err() {
                return CoordEnd::Dead { shard };
            }
        }
        let t0 = prof.start();
        let mut sums: Vec<Summary> = Vec::with_capacity(shards);
        for (shard, rx) in sum_rxs.iter().enumerate() {
            match rx.recv() {
                Ok(s) => sums.push(s),
                Err(_) => return CoordEnd::Dead { shard },
            }
        }
        prof.record(ProfModule::PhaseSync, t0);

        // 4. Commit phase: apply buffered accesses in shard-major order —
        //    for contiguous shards this is global SM order, i.e. the exact
        //    sequential call order.
        let t1 = prof.start();
        let mut issued = 0u32;
        let mut any_unit_busy = false;
        let mut any_completed = false;
        let mut any_tokens = false;
        let mut wakeup: Option<Cycle> = None;
        for (shard, sum) in sums.iter().enumerate() {
            record_buf.clear();
            rec_rxs[shard].pop_n(sum.records, &mut record_buf);
            for r in record_buf.drain(..) {
                let global_sm = sm_id_groups[shard][r.local_sm];
                match mem.access(global_sm, r.pc, &r.txns, r.agu_done) {
                    MemReply::Done(at) => pending_dones[shard].push(DeferredDone {
                        local_sm: r.local_sm,
                        target: r.target,
                        at,
                        issue_now: r.issue_now,
                    }),
                    MemReply::Pending(token) => {
                        any_tokens = true;
                        tokens.insert(token, (shard, r.local_sm, r.target));
                    }
                }
            }
            issued += sum.issued;
            any_unit_busy |= sum.unit_busy;
            for &local in &sum.completed {
                any_completed = true;
                bs.complete(sm_id_groups[shard][local]);
            }
            wakeup = min_opt(wakeup, sum.wakeup);
        }
        // Workers cannot see `Done` replies until next quantum, so fold
        // the committed completion times into the wakeup hint here.
        for dones in pending_dones.iter() {
            for d in dones {
                wakeup = min_opt(wakeup, Some(d.at));
            }
        }
        prof.record(ProfModule::PhaseSync, t1);

        let quantum_end = now + quantum - 1;

        // 5. Termination: every block completed and the memory is quiet.
        if bs.all_done() && tokens.is_empty() && mem.next_event().is_none() {
            return CoordEnd::Finished { end: quantum_end };
        }

        // 6. Advance time — the sequential engine's quiet/arm/jump rules,
        //    evaluated on the committed global state.
        let quiet = issued == 0
            && !any_unit_busy
            && !delivered
            && !any_completed
            && !any_tokens
            && !installed;

        if let Some(target) = plan.take() {
            if quiet {
                let extra = target - quantum_end - 1;
                for (shard, tx) in cmd_txs.iter().enumerate() {
                    if tx.send(Cmd::Jump { extra }).is_err() {
                        return CoordEnd::Dead { shard };
                    }
                }
                now = target;
                idle_streak = 0;
                continue;
            }
        }

        if event_driven && quiet {
            match min_opt(wakeup, mem.next_event()) {
                Some(t) => {
                    if t > quantum_end + 1 {
                        plan = Some(t);
                        arm_next = true;
                    }
                }
                // Nothing pending anywhere and nothing happened: the model
                // can provably never make progress again. The sequential
                // engine discovers this after a million idle (cheap) ticks;
                // here every idle cycle is a cross-thread round-trip, so
                // report immediately.
                None => return CoordEnd::Deadlock { cycle: quantum_end },
            }
            now = quantum_end + 1;
            idle_streak += 1;
        } else {
            if quiet && min_opt(wakeup, mem.next_event()).is_none() {
                return CoordEnd::Deadlock { cycle: quantum_end };
            }
            now = quantum_end + 1;
            idle_streak = if issued > 0 { 0 } else { idle_streak + quantum };
        }
        if idle_streak > 1_000_000 {
            return CoordEnd::Deadlock { cycle: now };
        }
    }
}

/// One shard worker: owns its SMs for the kernel's duration and replays
/// whatever the coordinator committed.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    cfg: &GpuConfig,
    kernel: &KernelTrace,
    kidx: usize,
    slots: usize,
    warps_per_block: usize,
    fidelity: FidelityConfig,
    sm_ids: &[usize],
    cmds: mpsc::Receiver<Cmd>,
    recs: spsc::Sender<AccessRecord>,
    sums: mpsc::Sender<Summary>,
    prof: &mut Profiler,
) -> WorkerExit {
    let blocks = kernel.blocks();
    let detailed_frontend = fidelity.frontend == FrontendModelKind::Detailed;
    let event_driven = fidelity.skip_policy == SkipPolicy::EventDriven;
    let mut sms: Vec<SmCore<'_>> = sm_ids
        .iter()
        .enumerate()
        .map(|(i, &global)| {
            SmCore::new(
                i,
                global,
                &cfg.sm,
                slots,
                warps_per_block,
                make_alu(fidelity.alu, cfg),
                detailed_frontend,
                event_driven,
                &|| make_policy(cfg.sm.scheduler),
            )
        })
        .collect();
    let mut port = DeferredPort {
        can_accept: vec![true; sm_ids.len()],
        now: 0,
        records: Vec::new(),
    };
    let mut snaps: Vec<SmStats> = Vec::new();
    prof.begin_frame(&format!("k{kidx}:{}", kernel.name));

    'run: while let Ok(cmd) = cmds.recv() {
        match cmd {
            Cmd::Finish { dones } => {
                for d in dones {
                    sms[d.local_sm].apply_deferred_done(d.target, d.at, d.issue_now, prof);
                }
                break;
            }
            Cmd::Jump { extra } => {
                for (sm, snap) in sms.iter_mut().zip(&snaps) {
                    sm.scale_quiescent_delta(snap, extra, prof);
                }
                if extra > 0 {
                    prof.add_cycles(ProfModule::CycleSkip, extra);
                }
            }
            Cmd::Quantum(q) => {
                // The arm snapshot is "state at the end of the previous
                // cycle" — i.e. before this command's events are applied.
                if q.arm {
                    snaps = sms.iter().map(SmCore::stats).collect();
                }
                for d in q.dones {
                    sms[d.local_sm].apply_deferred_done(d.target, d.at, d.issue_now, prof);
                }
                // Installs before writeback deliveries: the sequential
                // loop dispatches (step 1) before delivering completions
                // (step 2), so a completion racing a slot refill must see
                // the new block, exactly as it would there.
                for (local, block) in q.installs {
                    sms[local].install_block(block, &blocks[block], q.base);
                }
                for (local, target) in q.writebacks {
                    sms[local].writeback_now(target);
                }
                port.can_accept.clear();
                port.can_accept.extend_from_slice(&q.can_accept);

                let mut sum = Summary::default();
                for c in q.base..q.base + q.len {
                    port.now = c;
                    let mut wakeup: Option<Cycle> = None;
                    for (i, sm) in sms.iter_mut().enumerate() {
                        let outcome = sm.tick(c, &mut port, prof);
                        sum.issued += outcome.issued;
                        sum.unit_busy |= outcome.unit_busy_stall;
                        for _ in outcome.completed_blocks {
                            sum.completed.push(i);
                        }
                        for (token, target) in outcome.new_tokens {
                            port.records[token as usize].target = target;
                        }
                        wakeup = min_opt(wakeup, outcome.next_wakeup);
                    }
                    sum.wakeup = wakeup;
                }
                sum.records = port.records.len();
                for r in port.records.drain(..) {
                    if !recs.push(r) {
                        break 'run;
                    }
                }
                if sums.send(sum).is_err() {
                    break;
                }
            }
        }
    }

    prof.end_frame();
    let mut stats = SmStats::default();
    for sm in &sms {
        stats.add(&sm.stats());
    }
    WorkerExit {
        stats,
        stalled: sms.iter().find_map(SmCore::oldest_stalled),
    }
}
