//! The two-phase deterministic parallel engine.
//!
//! The legacy parallel path ([`crate::parallel`]) decouples shards
//! completely: each worker owns a private slice of the memory hierarchy and
//! the shards never exchange traffic. That is fast but approximate — and
//! its results depend on the shard count. This engine removes both
//! caveats: there is **one** shared memory system, and simulated time
//! advances in *synchronization quanta* ([`SyncQuantum`]):
//!
//! 1. **Compute phase** — every shard ticks its SMs through the quantum
//!    independently: shard 0 on the calling thread, every other shard on
//!    its own worker, so N shards are N OS threads. Memory-visible events
//!    (global/local accesses) are not applied; a [`DeferredPort`] buffers
//!    them into the shard's [`Mailbox`] in deterministic buffer order
//!    (cycle-major, then SM, then issue order within the tick).
//! 2. **Commit phase** — the coordinator (the calling thread again) takes
//!    the mailboxes *in shard order*, each as soon as that shard's epoch
//!    lands at the [`Gate`], and applies every buffered access to the
//!    shared memory system. Shard-major order over contiguous SM ranges is
//!    exactly the sequential engine's SM-tick order, so the memory system
//!    observes the same calls in the same order with the same arguments as
//!    a single-threaded run.
//!
//! Commands and results cross threads through [`crate::gate`]: one reused
//! mailbox per shard, published by an epoch counter and waited for on a
//! yield → park ladder — no channel, no per-quantum allocation.
//!
//! Under [`SyncQuantum::PerCycle`] the quantum is one cycle and the replay
//! is *exact*: block dispatch, completion delivery, `can_accept`
//! back-pressure snapshots, and deferred `Done` writebacks all line up
//! with the sequential loop's intra-cycle step order (dispatch →
//! deliver → tick), making the results **bit-identical** to
//! `run_single` for any thread count — enforced by
//! `tests/event_engine_equiv.rs`. The event-driven engine is folded in:
//! every shard ticks only its awake SMs through the same sleep set as the
//! sequential engine (`gpu.rs`, "Sleeping SMs"), reports whether all of
//! them sleep and their earliest wake, and when every shard's SMs sleep
//! after a quiet quantum the coordinator starts the next quantum at the
//! earliest wake or memory event instead of the next cycle.
//!
//! [`SyncQuantum::Cycles`]`(q)` relaxes the hand-off: workers tick `q`
//! cycles per phase against snapshots taken at the quantum boundary.
//! Deterministic and reproducible for a fixed configuration, but memory
//! contention is observed at quantum granularity, so statistics may
//! diverge from the sequential engine (measured, not silent — see the
//! `parallel_speedup` bench). Clock jumps are disabled in this mode;
//! sleeping SMs keep idle ticks cheap instead.

use crate::block_scheduler::BlockScheduler;
use crate::builder::{GpuSimulator, RunDriver};
use crate::error::SimError;
use crate::fidelity::{FidelityConfig, MemoryModelKind, SkipPolicy, SyncQuantum};
use crate::gate::{Coordinator, Dead, Gate};
use crate::gpu::{deadlock_detail, min_opt, occupancy, SmSet};
use crate::mem_system::{
    build_analytical_memory_for, build_analytical_memory_reuse_for, CycleAccurateMemory,
    MemCompletion, MemReply, MemorySystem,
};
use crate::parallel::split_sms;
use crate::prefetch::Prefetcher;
use crate::result::{KernelResult, SimulationResult};
use crate::sampling::RepMeasure;
use crate::sm::{SmStats, WbTarget};
use crate::Cycle;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use swiftsim_config::GpuConfig;
use swiftsim_mem::FastMap;
use swiftsim_mem::MemTxn;
use swiftsim_metrics::{MetricsCollector, ProfModule, ProfileReport, Profiler};
use swiftsim_trace::{KernelTrace, TraceSource};

/// One buffered memory access: everything the sequential engine would have
/// passed to [`MemorySystem::access`], plus the writeback target filled in
/// from the issuing SM's [`TickOutcome::new_tokens`].
struct AccessRecord {
    local_sm: usize,
    pc: u32,
    /// The access's transactions, as a range of [`Mailbox::txns`].
    txns: Range<usize>,
    /// The `now` argument the SM passed (AGU/port availability), which the
    /// sequential engine hands to the memory system verbatim.
    agu_done: Cycle,
    /// The cycle the instruction issued in, for LD/ST latency attribution.
    issue_now: Cycle,
    target: WbTarget,
}

/// A `MemReply::Done` resolved during commit, to be applied by the owning
/// shard just before its next compute phase.
struct DeferredDone {
    local_sm: usize,
    target: WbTarget,
    at: Cycle,
    issue_now: Cycle,
}

/// One shard's mailbox in the [`Gate`]: the coordinator fills the command
/// side and the shard's [`Shard::step`] the result side, both in place, so
/// after warm-up a quantum allocates nothing. Each list is drained by the
/// side that reads it.
#[derive(Default)]
struct Mailbox {
    // Command: coordinator → shard.
    /// The quantum's first cycle, which is where a clock jump lands, and
    /// its length.
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

    // Result: shard → coordinator.
    issued: u32,
    unit_busy: bool,
    /// Local SM index per completed block, in tick order.
    completed: Vec<usize>,
    /// Whether every SM sleeps after the quantum.
    asleep: bool,
    /// The earliest cycle an SM could act at on its own: a sleeper's wake,
    /// or the next-wakeup hint of an SM ticked in the quantum's last cycle.
    wakeup: Option<Cycle>,
    /// This quantum's accesses in buffer order (cycle-major, then SM, then
    /// issue order within the tick), their transactions flat in `txns`.
    records: Vec<AccessRecord>,
    txns: Vec<MemTxn>,
}

/// What a shard leaves behind when its kernel ends.
struct ShardExit {
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
    /// A worker unwound mid-kernel.
    Dead {
        shard: usize,
    },
}

fn elapsed_ns(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// The shard-side stand-in for the shared memory system: buffers accesses
/// into the mailbox instead of applying them, and answers `can_accept`
/// from the coordinator's per-quantum snapshot. Every access "replies"
/// `Pending(record index)`, which routes the writeback target back here
/// through the SM's normal token path.
struct DeferredPort<'m> {
    can_accept: &'m [bool],
    now: Cycle,
    records: &'m mut Vec<AccessRecord>,
    txns: &'m mut Vec<MemTxn>,
}

impl MemorySystem for DeferredPort<'_> {
    fn can_accept(&self, sm: usize) -> bool {
        self.can_accept[sm]
    }

    fn access(&mut self, sm: usize, pc: u32, txns: &[MemTxn], now: Cycle) -> MemReply {
        let first = self.txns.len();
        self.txns.extend_from_slice(txns);
        self.records.push(AccessRecord {
            local_sm: sm,
            pc,
            txns: first..self.txns.len(),
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
                total_stats.add(&outcome.stats);
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
    shard_profs: &mut [Profiler],
    prof: &mut Profiler,
    start: Cycle,
) -> Result<KernelOutcome, SimError> {
    let per_sm = occupancy(cfg, kernel)?.blocks_per_sm;
    let slots = per_sm as usize;
    let total_sms: usize = sm_id_groups.iter().map(Vec::len).sum();
    let frame = format!("k{kidx}:{}", kernel.name);

    let mut bs = BlockScheduler::new(total_sms, kernel.blocks().len(), per_sm);
    let gate: Gate<Mailbox> = Gate::new(sm_id_groups.len());
    let (own_prof, worker_profs) = shard_profs
        .split_first_mut()
        .expect("split_sms yields at least one shard");

    prof.begin_frame(&frame);
    let (end, exits) = std::thread::scope(|scope| {
        // First in, last out: however this closure is left — normally, or
        // unwinding from a failed spawn — dropping `coord` stops the
        // workers, so the scope's join cannot hang.
        let coord = gate.coordinator();
        let handles: Vec<_> = worker_profs
            .iter_mut()
            .zip(&sm_id_groups[1..])
            .enumerate()
            .map(|(i, (wprof, sm_ids))| {
                let (gate, frame) = (&gate, &frame);
                scope.spawn(move || {
                    // The port before anything that can panic: its drop is
                    // what tells the coordinator this shard is gone.
                    let mut port = gate.port(i + 1);
                    // Built here: a shard's models need not be `Send`.
                    let mut sms = SmSet::new(cfg, fidelity, kernel, slots, sm_ids, start);
                    wprof.begin_frame(frame);
                    while let Some(mut mb) = port.recv() {
                        step(&mut sms, &mut mb, wprof);
                        port.done(mb);
                    }
                    let exit = finish(sms, port.mailbox().as_deref_mut(), wprof);
                    wprof.end_frame();
                    exit
                })
            })
            .collect();

        // The calling thread is shard 0 as well as the coordinator, so
        // `--threads N` is N OS threads. A panic on it is reported like
        // one on any other shard's thread; what it was mutating (`mem`,
        // `bs`, its own shard) is abandoned with the failed run, which is
        // what makes asserting unwind safety sound.
        let own = catch_unwind(AssertUnwindSafe(|| {
            let mut own = SmSet::new(cfg, fidelity, kernel, slots, &sm_id_groups[0], start);
            own_prof.begin_frame(&frame);
            let end = coordinate(
                mem,
                &mut bs,
                sm_id_groups,
                quantum,
                fidelity.skip_policy == SkipPolicy::EventDriven && quantum == 1,
                start,
                &coord,
                &mut own,
                own_prof,
                prof,
            );
            // Every shard, whichever way the loop ended, finds the `Done`
            // replies of the last commit still in its mailbox and applies
            // them before it reports, so LD/ST attribution is complete.
            let exit = finish(own, coord.mailbox(0).ok().as_deref_mut(), own_prof);
            own_prof.end_frame();
            (end, exit)
        }));
        drop(coord);
        let (end, own_exit) = match own {
            Ok((end, exit)) => (Some(end), Ok(exit)),
            Err(payload) => (None, Err(payload)),
        };
        let exits: Vec<_> = std::iter::once(own_exit)
            .chain(handles.into_iter().map(|h| h.join()))
            .collect();
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
    let exits: Vec<ShardExit> = exits.into_iter().filter_map(Result::ok).collect();

    match end.expect("no thread panicked, so the coordinator returned") {
        CoordEnd::Finished { end } => {
            let mut stats = SmStats::default();
            for e in &exits {
                stats.add(&e.stats);
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
            Err(SimError::Deadlock {
                cycle,
                shard: stalled.as_ref().map_or(0, |(i, _)| *i),
                detail: deadlock_detail(stalled.map(|(_, s)| s), mem),
            })
        }
        CoordEnd::Dead { shard } => Err(SimError::WorkerPanic {
            context: format!("shard {shard} of kernel {:?}", kernel.name),
            message: "worker left the gate without a panic payload".to_owned(),
        }),
    }
}

/// The coordinator: runs the quantum loop against the shared memory
/// system. Mirrors the sequential engine's per-cycle step order exactly —
/// dispatch, advance/deliver, (shards tick), commit, terminate/advance —
/// including its clock jump once every SM sleeps. Shard 0's compute phase
/// runs inline between publishing the other shards' commands and waiting
/// for their results.
#[allow(clippy::too_many_arguments)]
fn coordinate(
    mem: &mut dyn MemorySystem,
    bs: &mut BlockScheduler,
    sm_id_groups: &[Vec<usize>],
    quantum: Cycle,
    event_driven: bool,
    start: Cycle,
    coord: &Coordinator<'_, Mailbox>,
    own: &mut SmSet<'_>,
    own_prof: &mut Profiler,
    prof: &mut Profiler,
) -> CoordEnd {
    let shards = sm_id_groups.len();
    let mut tokens: FastMap<u64, (usize, usize, WbTarget)> = FastMap::default();
    let mut completions: Vec<MemCompletion> = Vec::new();
    // Every shard's mailbox, held from the top of a quantum to its publish.
    let mut boxes = Vec::with_capacity(shards);
    let mut now = start;
    let mut idle_streak: u64 = 0;

    loop {
        for shard in 0..shards {
            match coord.mailbox(shard) {
                Ok(mb) => boxes.push(mb),
                Err(Dead) => return CoordEnd::Dead { shard },
            }
        }

        // 1. Dispatch pending blocks (global Block Scheduler over global SM
        //    ids — identical pick order to the sequential engine).
        let mut installed = false;
        if bs.remaining() > 0 {
            let t0 = prof.start();
            for (mb, ids) in boxes.iter_mut().zip(sm_id_groups) {
                for (local, &global_sm) in ids.iter().enumerate() {
                    while let Some(block) = bs.dispatch(global_sm) {
                        mb.installs.push((local, block));
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
        for c in completions.drain(..) {
            if let Some((shard, local, target)) = tokens.remove(&c.token) {
                boxes[shard].writebacks.push((local, target));
            }
        }

        // 3. Compute phase: hand each shard its quantum. `can_accept` is
        //    snapshotted post-advance; it only depends on the SM's own
        //    queue, which cannot change before that SM's tick, so the
        //    snapshot equals what the sequential engine would read.
        for (mb, ids) in boxes.iter_mut().zip(sm_id_groups) {
            mb.base = now;
            mb.len = quantum;
            mb.can_accept.clear();
            mb.can_accept.extend(ids.iter().map(|&g| mem.can_accept(g)));
        }
        let mut filled = boxes.drain(..);
        let mut own_box = filled.next().expect("split_sms yields at least one shard");
        for (worker, mb) in filled.enumerate() {
            drop(mb);
            coord.publish(worker + 1);
        }
        step(own, &mut own_box, own_prof);

        // 4. Commit phase: apply buffered accesses in shard-major order —
        //    for contiguous shards this is global SM order, i.e. the exact
        //    sequential call order. Each shard commits as soon as its own
        //    epoch lands; later shards keep computing meanwhile. Exactly
        //    two phase-sync records per quantum: total wait, total commit.
        let mut wait_ns = 0u64;
        let mut commit_ns = 0u64;
        let mut issued = 0u32;
        let mut any_unit_busy = false;
        let mut any_completed = false;
        let mut any_tokens = false;
        let mut all_asleep = true;
        let mut wakeup: Option<Cycle> = None;
        let mut own_box = Some(own_box);
        for (shard, ids) in sm_id_groups.iter().enumerate() {
            let mut mb = match own_box.take() {
                Some(mb) => mb,
                None => {
                    let t0 = prof.start();
                    let landed = coord.wait(shard).and_then(|()| coord.mailbox(shard));
                    wait_ns += elapsed_ns(t0);
                    match landed {
                        Ok(mb) => mb,
                        Err(Dead) => return CoordEnd::Dead { shard },
                    }
                }
            };
            let t1 = prof.start();
            let Mailbox {
                records,
                txns,
                dones,
                ..
            } = &mut *mb;
            for r in records.drain(..) {
                match mem.access(ids[r.local_sm], r.pc, &txns[r.txns], r.agu_done) {
                    MemReply::Done(at) => {
                        // The shard cannot see a `Done` reply until next
                        // quantum, so fold its time into the wakeup hint
                        // here.
                        wakeup = min_opt(wakeup, Some(at));
                        dones.push(DeferredDone {
                            local_sm: r.local_sm,
                            target: r.target,
                            at,
                            issue_now: r.issue_now,
                        });
                    }
                    MemReply::Pending(token) => {
                        any_tokens = true;
                        tokens.insert(token, (shard, r.local_sm, r.target));
                    }
                }
            }
            txns.clear();
            issued += mb.issued;
            any_unit_busy |= mb.unit_busy;
            for &local in &mb.completed {
                any_completed = true;
                bs.complete(ids[local]);
            }
            all_asleep &= mb.asleep;
            wakeup = min_opt(wakeup, mb.wakeup);
            commit_ns += elapsed_ns(t1);
        }
        prof.record_wall_ns(ProfModule::PhaseSync, wait_ns, 1);
        prof.record_wall_ns(ProfModule::PhaseSync, commit_ns, 1);

        let quantum_end = now + quantum - 1;

        // 5. Termination: every block completed and the memory is quiet.
        if bs.all_done() && tokens.is_empty() && mem.next_event().is_none() {
            return CoordEnd::Finished { end: quantum_end };
        }

        // 6. Advance time — the sequential engine's quiet and jump rules,
        //    evaluated on the committed global state.
        let quiet = issued == 0
            && !any_unit_busy
            && !delivered
            && !any_completed
            && !any_tokens
            && !installed;
        let next = min_opt(wakeup, mem.next_event());
        if quiet && next.is_none() {
            // Nothing pending anywhere and nothing happened: the model can
            // provably never make progress again. Under the dense clock
            // every idle cycle would be a cross-thread round trip, so this
            // is reported at once there too.
            return CoordEnd::Deadlock { cycle: quantum_end };
        }
        now = quantum_end + 1;
        match next {
            // Every SM sleeps: the next quantum starts where one can act.
            Some(t) if event_driven && quiet && all_asleep => {
                if t > now {
                    prof.add_cycles(ProfModule::CycleSkip, t - now);
                    now = t;
                }
                idle_streak = 0;
            }
            _ => idle_streak = if issued > 0 { 0 } else { idle_streak + quantum },
        }
        if idle_streak > 1_000_000 {
            return CoordEnd::Deadlock { cycle: now };
        }
    }
}

/// Apply `Done` replies the last commit left in the mailbox.
fn apply_dones(sms: &mut SmSet<'_>, dones: &mut Vec<DeferredDone>, prof: &mut Profiler) {
    for d in dones.drain(..) {
        sms.apply_deferred_done(d.local_sm, d.target, d.at, d.issue_now, prof);
    }
}

/// One shard's compute phase: consume the mailbox's command, tick the
/// shard's SMs through the quantum, leave the result in the same mailbox.
/// The coordinator runs shard 0's inline; every other shard's worker thread
/// runs its own through the gate.
fn step(sms: &mut SmSet<'_>, mb: &mut Mailbox, prof: &mut Profiler) {
    apply_dones(sms, &mut mb.dones, prof);
    // Installs before writeback deliveries: the sequential loop dispatches
    // (step 1) before delivering completions (step 2), so a completion
    // racing a slot refill must see the new block, exactly as it would
    // there.
    for (local, block) in mb.installs.drain(..) {
        sms.install(local, block, mb.base, prof);
    }
    for (local, target) in mb.writebacks.drain(..) {
        sms.touch(local, mb.base, prof).writeback_now(target);
    }

    mb.issued = 0;
    mb.unit_busy = false;
    mb.completed.clear();
    let mut port = DeferredPort {
        can_accept: &mb.can_accept,
        now: 0,
        records: &mut mb.records,
        txns: &mut mb.txns,
    };
    let mut wakeup: Option<Cycle> = None;
    for c in mb.base..mb.base + mb.len {
        port.now = c;
        wakeup = None;
        sms.rouse_due(c, &port, prof);
        let mut next = 0;
        while let Some(i) = sms.next_awake(next) {
            next = i + 1;
            let outcome = sms.tick(i, c, &mut port, prof);
            mb.issued += outcome.issued;
            mb.unit_busy |= outcome.unit_busy_stall;
            for _ in &outcome.completed_blocks {
                mb.completed.push(i);
            }
            for &(token, target) in &outcome.new_tokens {
                port.records[token as usize].target = target;
            }
            wakeup = min_opt(wakeup, outcome.next_wakeup);
        }
    }
    mb.asleep = sms.all_asleep();
    mb.wakeup = min_opt(wakeup, sms.next_wake());
}

/// Wind a shard down: apply what the final commit left in `mailbox` (absent
/// only if the other side unwound holding it) and report.
fn finish(mut sms: SmSet<'_>, mailbox: Option<&mut Mailbox>, prof: &mut Profiler) -> ShardExit {
    if let Some(mb) = mailbox {
        apply_dones(&mut sms, &mut mb.dones, prof);
    }
    ShardExit {
        stats: sms.finish(prof),
        stalled: sms.oldest_stalled(),
    }
}
