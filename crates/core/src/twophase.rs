//! The kernel loop: every run, on any number of threads, goes through the
//! two-phase coordinator here.
//!
//! A run splits the GPU's SMs into contiguous *shards*, one per thread, and
//! a single-threaded run is simply the one-shard case. There is **one**
//! memory system, and simulated time advances one cycle at a time, each
//! cycle in two phases:
//!
//! 1. **Compute phase** — every shard ticks its SMs through the cycle
//!    independently. Shard 0 runs on the calling thread against the memory
//!    system itself: its SMs call [`MemorySystem::access`], read the live
//!    `can_accept` and take `Done` replies at once, and their tokens go
//!    straight into the coordinator's token map. Every other shard runs on
//!    its own worker, so N shards are N OS threads; its memory-visible
//!    events (global/local accesses) are not applied: a [`DeferredPort`]
//!    buffers them into the shard's [`Mailbox`] in deterministic buffer
//!    order (SM, then issue order within the tick) and answers
//!    `can_accept` from a snapshot taken at the start of the cycle.
//! 2. **Commit phase** — the coordinator (the calling thread again) takes
//!    the other shards' mailboxes *in shard order*, each as soon as that
//!    shard's epoch lands at the [`Gate`], and applies every buffered
//!    access to the memory system. Shard 0's accesses went in first, during
//!    its own compute phase, so over contiguous SM ranges the memory system
//!    observes global SM order: the same calls in the same order with the
//!    same arguments as if one thread ticked every SM.
//!
//! Commands and results cross threads through [`crate::gate`]: one reused
//! mailbox per worker, published by an epoch counter and waited for on a
//! yield → park ladder — no channel, no per-cycle allocation.
//!
//! Because every shard commits every cycle, the replay is *exact*: block
//! dispatch, completion delivery, `can_accept` back-pressure snapshots, and
//! deferred `Done` writebacks all line up with the one-shard step order
//! (dispatch → deliver → tick), making the results **bit-identical** for
//! any thread count — enforced by `tests/event_engine_equiv.rs`.
//! Every shard ticks only its awake SMs through the sleep set (`gpu.rs`,
//! "Sleeping SMs"). When every shard's SMs sleep after a quiet cycle,
//! nothing can happen before the earliest sleeper wake or memory event:
//! the next cycle ticked is that one instead of the one after, and with
//! neither the kernel fails with [`SimError::Deadlock`] at once. Under the
//! dense test oracle ([`RunOptions::with_dense_clock`]) no SM sleeps, and
//! a million idle cycles in a row count as a deadlock.
//!
//! [`RunOptions::with_dense_clock`]: crate::RunOptions::with_dense_clock

use crate::block_scheduler::BlockScheduler;
use crate::builder::{GpuSimulator, RunDriver};
use crate::error::SimError;
use crate::fidelity::MemoryModelKind;
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
use swiftsim_mem::FastMap;
use swiftsim_mem::MemTxn;
use swiftsim_metrics::{MetricsCollector, ProfModule, ProfileReport, Profiler};
use swiftsim_trace::{KernelTrace, TraceSource};

/// One buffered memory access: everything shard 0 would have passed to
/// [`MemorySystem::access`], plus the writeback target filled in from the
/// issuing SM's [`TickOutcome::new_tokens`](crate::sm::TickOutcome).
struct AccessRecord {
    local_sm: usize,
    pc: u32,
    /// The access's transactions, as a range of [`Mailbox::txns`].
    txns: Range<usize>,
    /// The `now` argument the SM passed (AGU/port availability), handed
    /// to the memory system verbatim.
    agu_done: Cycle,
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

/// What a compute phase reports to the coordinator.
#[derive(Default)]
struct PhaseOut {
    issued: u32,
    unit_busy: bool,
    /// Local SM index per completed block, in tick order.
    completed: Vec<usize>,
    /// Whether every SM sleeps after the cycle, and if so the earliest of
    /// their wakes.
    asleep: bool,
    wake: Option<Cycle>,
}

/// A worker shard's mailbox in the [`Gate`]: the coordinator fills the
/// command side and the shard's [`step`] the result side, both in place,
/// so after warm-up a cycle allocates nothing. Each list is drained by
/// the side that reads it.
#[derive(Default)]
struct Mailbox {
    // Command: coordinator → shard.
    /// The cycle to tick, which is where a clock jump lands.
    base: Cycle,
    /// Blocks dispatched this cycle: `(local SM, global block id)`.
    installs: Vec<(usize, usize)>,
    /// Memory completions due now: writeback targets per local SM.
    writebacks: Vec<(usize, WbTarget)>,
    /// `Done` replies committed last cycle.
    dones: Vec<DeferredDone>,
    /// Per-local-SM memory back-pressure snapshot.
    can_accept: Vec<bool>,

    // Result: shard → coordinator.
    out: PhaseOut,
    /// This cycle's accesses in buffer order (SM, then issue order within
    /// the tick), their transactions flat in `txns`.
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

/// Where a shard's SMs send their memory accesses during a compute phase.
trait Port {
    fn mem(&mut self) -> &mut dyn MemorySystem;
    /// SM `sm`'s access was answered `Pending(token)`; its data writes back
    /// to `target`.
    fn pending(&mut self, token: u64, sm: usize, target: WbTarget);
}

/// Shard 0's port: the memory system itself, with tokens recorded straight
/// into the coordinator's map.
struct Direct<'m> {
    mem: &'m mut dyn MemorySystem,
    tokens: &'m mut FastMap<u64, (usize, usize, WbTarget)>,
}

impl Port for Direct<'_> {
    fn mem(&mut self) -> &mut dyn MemorySystem {
        &mut *self.mem
    }

    fn pending(&mut self, token: u64, sm: usize, target: WbTarget) {
        self.tokens.insert(token, (0, sm, target));
    }
}

/// A worker shard's stand-in for the shared memory system: buffers
/// accesses into the mailbox instead of applying them, and answers
/// `can_accept` from the coordinator's per-cycle snapshot. Every access
/// "replies" `Pending(record index)`, which routes the writeback target
/// back here through the SM's normal token path.
struct DeferredPort<'m> {
    can_accept: &'m [bool],
    records: &'m mut Vec<AccessRecord>,
    txns: &'m mut Vec<MemTxn>,
}

impl Port for DeferredPort<'_> {
    fn mem(&mut self) -> &mut dyn MemorySystem {
        self
    }

    fn pending(&mut self, token: u64, _sm: usize, target: WbTarget) {
        self.records[token as usize].target = target;
    }
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

/// Simulate `source` on `sim`: the run loop over kernels around the
/// per-kernel coordinator.
pub(crate) fn run_two_phase(
    sim: &GpuSimulator,
    source: &dyn TraceSource,
) -> Result<SimulationResult, SimError> {
    let group_sizes = split_sms(sim.cfg.num_sms as usize, sim.threads);
    let shards = group_sizes.len();
    let sm_id_groups: Vec<Range<usize>> = group_sizes
        .iter()
        .scan(0, |next, &n| {
            *next += n;
            Some(*next - n..*next)
        })
        .collect();

    let total = source.num_kernels();
    let mut driver = RunDriver::new(sim, source)?;

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

    // The calling thread (coordinator, shard 0, memory) renders on track 0,
    // worker shards on tracks 1..shards, decode on the one after; one epoch
    // lines the frames up.
    let epoch = std::time::Instant::now();
    let track = |i| {
        if sim.profile {
            Profiler::enabled_on_track(epoch, i)
        } else {
            Profiler::disabled()
        }
    };
    let mut prof = track(0);
    let mut worker_profs: Vec<Profiler> = (1..shards).map(track).collect();
    let decode_prof = track(shards);
    mem.set_profiling(sim.profile);

    std::thread::scope(|dscope| {
        let mut pf = Prefetcher::new(
            dscope,
            source,
            decode_prof,
            source.prefers_prefetch(),
            driver.decode_schedule(total),
        );
        let (mut start, mut total_stats, mut kernels) = driver.initial();

        for kidx in driver.start_kernel()..total {
            let (name, measure) = if driver.is_detailed(kidx) {
                let kernel = pf.get(kidx)?;
                let kernel = &*kernel;
                let (end, stats) = run_kernel(
                    sim,
                    kernel,
                    kidx,
                    &sm_id_groups,
                    mem.as_mut(),
                    &mut worker_profs,
                    &mut prof,
                    start,
                )?;
                let measure = RepMeasure {
                    cycles: end - start,
                    stats,
                    instructions: stats.issued,
                    blocks: kernel.blocks().len() as u64,
                };
                driver.record(kidx, measure);
                (kernel.name.clone(), measure)
            } else {
                // Replayed launch: synthesized from its cluster's
                // representatives, trace body never decoded.
                (source.kernel_meta(kidx).name, driver.replay(kidx))
            };
            kernels.push(KernelResult {
                name,
                cycles: measure.cycles,
                instructions: measure.instructions,
                blocks: measure.blocks,
            });
            total_stats.add(&measure.stats);
            start += measure.cycles;
            if !driver.boundary(kidx, start, &total_stats, &kernels, mem.as_ref())? {
                break;
            }
        }

        let mut metrics = MetricsCollector::new();
        crate::builder::report_common(&mut metrics, start, &total_stats, sim);
        mem.report(&mut metrics);

        let profile = sim.profile.then(|| {
            ProfileReport::merge(
                std::iter::once(prof)
                    .chain(worker_profs)
                    .chain([pf.finish()])
                    .map(Profiler::into_report)
                    .collect(),
            )
        });
        let confidence = driver.confidence(&kernels);

        Ok(SimulationResult {
            app: source.name().to_owned(),
            simulator: if shards > 1 {
                format!("{}@{}threads", sim.description(), shards)
            } else {
                sim.description()
            },
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

/// Simulate one kernel from cycle `start`: its end cycle and summed SM
/// statistics.
#[allow(clippy::too_many_arguments)]
fn run_kernel(
    sim: &GpuSimulator,
    kernel: &KernelTrace,
    kidx: usize,
    sm_id_groups: &[Range<usize>],
    mem: &mut dyn MemorySystem,
    worker_profs: &mut [Profiler],
    prof: &mut Profiler,
    start: Cycle,
) -> Result<(Cycle, SmStats), SimError> {
    let cfg = &sim.cfg;
    let per_sm = occupancy(cfg, kernel)?.blocks_per_sm;
    let slots = per_sm as usize;
    let frame = format!("k{kidx}:{}", kernel.name);

    let mut bs = BlockScheduler::new(cfg.num_sms as usize, kernel.blocks().len(), per_sm);
    let gate: Gate<Mailbox> = Gate::new(sm_id_groups.len());

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
                    let mut sms = SmSet::new(sim, kernel, slots, sm_ids.clone(), start);
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
            let mut own = SmSet::new(sim, kernel, slots, sm_id_groups[0].clone(), start);
            let end = coordinate(mem, &mut bs, sm_id_groups, start, &coord, &mut own, prof);
            (end, finish(own, None, prof))
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

    // Surface a shard panic over any other outcome — it is the root cause.
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
            Ok((end, stats))
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

/// The coordinator: runs the cycle loop against the shared memory system,
/// in the per-cycle step order — dispatch, advance/deliver, (shards tick),
/// commit, terminate/advance — and jumps the clock once every SM sleeps.
/// Shard 0's compute phase runs inline between publishing the other
/// shards' commands and waiting for their results.
fn coordinate(
    mem: &mut dyn MemorySystem,
    bs: &mut BlockScheduler,
    sm_id_groups: &[Range<usize>],
    start: Cycle,
    coord: &Coordinator<'_, Mailbox>,
    own: &mut SmSet<'_>,
    prof: &mut Profiler,
) -> CoordEnd {
    let (own_ids, worker_ids) = sm_id_groups
        .split_first()
        .expect("split_sms yields at least one shard");
    let mut tokens: FastMap<u64, (usize, usize, WbTarget)> = FastMap::default();
    let mut completions: Vec<MemCompletion> = Vec::new();
    let mut own_out = PhaseOut::default();
    // Every worker's mailbox, held from the top of a cycle to its
    // publish; `boxes[w]` is shard `w + 1`'s.
    let mut boxes = Vec::with_capacity(worker_ids.len());
    let mut now = start;
    let mut idle_streak: u64 = 0;

    loop {
        for shard in 1..sm_id_groups.len() {
            match coord.mailbox(shard) {
                Ok(mb) => boxes.push(mb),
                Err(Dead) => return CoordEnd::Dead { shard },
            }
        }

        // 1. Dispatch pending blocks (global Block Scheduler over global SM
        //    ids, in SM order).
        let mut installed = false;
        if bs.remaining() > 0 {
            let t0 = prof.start();
            for (local, sm) in own_ids.clone().enumerate() {
                while let Some(block) = bs.dispatch(sm) {
                    own.install(local, block, now, prof);
                    installed = true;
                }
            }
            for (mb, ids) in boxes.iter_mut().zip(worker_ids) {
                for (local, sm) in ids.clone().enumerate() {
                    while let Some(block) = bs.dispatch(sm) {
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
            match tokens.remove(&c.token) {
                Some((0, local, target)) => own.touch(local, now, prof).writeback_now(target),
                Some((shard, local, target)) => boxes[shard - 1].writebacks.push((local, target)),
                None => {}
            }
        }

        // 3. Compute phase: hand each worker its cycle, then run shard
        //    0's. A worker's `can_accept` is snapshotted post-advance; it
        //    only depends on the SM's own queue, which cannot change before
        //    that SM's tick, so the snapshot equals the live value.
        for (mb, ids) in boxes.iter_mut().zip(worker_ids) {
            mb.base = now;
            mb.can_accept.clear();
            mb.can_accept
                .extend(ids.clone().map(|sm| mem.can_accept(sm)));
        }
        for (w, mb) in boxes.drain(..).enumerate() {
            drop(mb);
            coord.publish(w + 1);
        }
        // Shard 0's new requests go straight into `tokens`.
        let known_tokens = tokens.len();
        let mut port = Direct {
            mem: &mut *mem,
            tokens: &mut tokens,
        };
        compute(own, now, &mut port, &mut own_out, prof);
        let mut any_tokens = tokens.len() > known_tokens;
        let PhaseOut {
            mut issued,
            unit_busy: mut any_unit_busy,
            mut asleep,
            mut wake,
            ..
        } = own_out;
        let mut any_completed = !own_out.completed.is_empty();
        for &local in &own_out.completed {
            bs.complete(own_ids.start + local);
        }

        // 4. Commit phase: apply the workers' buffered accesses in shard
        //    order, after shard 0's direct ones — global SM order. Each
        //    shard commits as soon as its own epoch lands; later shards
        //    keep computing meanwhile. Two phase-sync records per cycle when
        //    there are workers: total wait, total commit.
        if !worker_ids.is_empty() {
            let mut wait_ns = 0u64;
            let mut commit_ns = 0u64;
            for (w, ids) in worker_ids.iter().enumerate() {
                let shard = w + 1;
                let t0 = prof.start();
                let landed = coord.wait(shard).and_then(|()| coord.mailbox(shard));
                wait_ns += elapsed_ns(t0);
                let mut mb = match landed {
                    Ok(mb) => mb,
                    Err(Dead) => return CoordEnd::Dead { shard },
                };
                let t1 = prof.start();
                let Mailbox {
                    records,
                    txns,
                    dones,
                    out,
                    ..
                } = &mut *mb;
                // An SM that accessed memory made a token this cycle, so it
                // is awake and its shard is not asleep: the clock jump below
                // never needs a `Done`'s time, which the shard applies next
                // cycle.
                debug_assert!(records.is_empty() || !out.asleep);
                for r in records.drain(..) {
                    let sm = ids.start + r.local_sm;
                    match mem.access(sm, r.pc, &txns[r.txns], r.agu_done) {
                        MemReply::Done(at) => {
                            dones.push(DeferredDone {
                                local_sm: r.local_sm,
                                target: r.target,
                                at,
                                issue_now: now,
                            });
                        }
                        MemReply::Pending(token) => {
                            any_tokens = true;
                            tokens.insert(token, (shard, r.local_sm, r.target));
                        }
                    }
                }
                txns.clear();
                issued += out.issued;
                any_unit_busy |= out.unit_busy;
                for &local in &out.completed {
                    any_completed = true;
                    bs.complete(ids.start + local);
                }
                asleep &= out.asleep;
                wake = min_opt(wake, out.wake);
                commit_ns += elapsed_ns(t1);
            }
            prof.record_wall_ns(ProfModule::PhaseSync, wait_ns, 1);
            prof.record_wall_ns(ProfModule::PhaseSync, commit_ns, 1);
        }

        // 5. Termination: every block completed and the memory is quiet.
        if bs.all_done() && tokens.is_empty() && mem.next_event().is_none() {
            return CoordEnd::Finished { end: now };
        }

        // 6. Advance time. A *quiet* cycle is one in which provably
        //    nothing observable happened: no instruction issued, no
        //    port-busy stall about to resolve, no memory completion or new
        //    request, no block installed or retired.
        let quiet = issued == 0
            && !any_unit_busy
            && !delivered
            && !any_completed
            && !any_tokens
            && !installed;
        now += 1;
        if quiet && asleep {
            // Nothing can act before the earliest wake or memory event,
            // and without either, nothing ever will.
            let Some(t) = min_opt(wake, mem.next_event()) else {
                return CoordEnd::Deadlock { cycle: now - 1 };
            };
            if t > now {
                prof.add_cycles(ProfModule::CycleSkip, t - now);
                now = t;
            }
            idle_streak = 0;
            continue;
        }
        idle_streak = if issued > 0 { 0 } else { idle_streak + 1 };
        // A memory event or token always reappears within the DRAM latency;
        // a much longer silent streak means the model deadlocked.
        if idle_streak > 1_000_000 {
            return CoordEnd::Deadlock { cycle: now };
        }
    }
}

/// Tick `sms` through cycle `now` against `port`, reporting into `out`:
/// rouse the sleepers that can act, then tick the awake SMs in SM order.
fn compute(
    sms: &mut SmSet<'_>,
    now: Cycle,
    port: &mut impl Port,
    out: &mut PhaseOut,
    prof: &mut Profiler,
) {
    out.issued = 0;
    out.unit_busy = false;
    out.completed.clear();
    sms.rouse_due(now, port.mem(), prof);
    let mut next = 0;
    while let Some(i) = sms.next_awake(next) {
        next = i + 1;
        let outcome = sms.tick(i, now, port.mem(), prof);
        out.issued += outcome.issued;
        out.unit_busy |= outcome.unit_busy_stall;
        for _ in &outcome.completed_blocks {
            out.completed.push(i);
        }
        for &(token, target) in &outcome.new_tokens {
            port.pending(token, i, target);
        }
    }
    out.asleep = sms.all_asleep();
    out.wake = if out.asleep { sms.next_wake() } else { None };
}

/// Apply `Done` replies the last commit left in the mailbox.
fn apply_dones(sms: &mut SmSet<'_>, dones: &mut Vec<DeferredDone>, prof: &mut Profiler) {
    for d in dones.drain(..) {
        sms.apply_deferred_done(d.local_sm, d.target, d.at, d.issue_now, prof);
    }
}

/// A worker shard's compute phase: consume the mailbox's command, tick the
/// shard's SMs through the cycle, leave the result in the same mailbox.
fn step(sms: &mut SmSet<'_>, mb: &mut Mailbox, prof: &mut Profiler) {
    apply_dones(sms, &mut mb.dones, prof);
    // Installs before writeback deliveries: the coordinator dispatches
    // (step 1) before it delivers completions (step 2), so a completion
    // racing a slot refill must see the new block, exactly as shard 0's do.
    for (local, block) in mb.installs.drain(..) {
        sms.install(local, block, mb.base, prof);
    }
    for (local, target) in mb.writebacks.drain(..) {
        sms.touch(local, mb.base, prof).writeback_now(target);
    }
    let mut port = DeferredPort {
        can_accept: &mb.can_accept,
        records: &mut mb.records,
        txns: &mut mb.txns,
    };
    compute(sms, mb.base, &mut port, &mut mb.out, prof);
}

/// Wind a shard down: apply what the final commit left in `mailbox` (none
/// for shard 0, and absent if the other side unwound holding it) and
/// report.
fn finish(mut sms: SmSet<'_>, mailbox: Option<&mut Mailbox>, prof: &mut Profiler) -> ShardExit {
    if let Some(mb) = mailbox {
        apply_dones(&mut sms, &mut mb.dones, prof);
    }
    ShardExit {
        stats: sms.finish(prof),
        stalled: sms.oldest_stalled(),
    }
}
