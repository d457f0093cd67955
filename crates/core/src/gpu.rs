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
//! # The event-driven cycle-skipping engine
//!
//! Under [`SkipPolicy::EventDriven`] the shard loop fast-forwards over
//! provably quiescent spans instead of ticking them one by one. Every
//! component reports its next-actionable cycle — SMs via
//! [`TickOutcome::next_wakeup`] (writeback heap head, port wakeups), the
//! memory system via [`MemorySystem::next_event`] — and after a fully quiet
//! iteration the loop *arms a jump* to the minimum `t` of those hints. The
//! next iteration runs one more cycle at full fidelity; if it is quiet too
//! (which the loop verifies rather than assumes), its per-SM stat delta is
//! the canonical quiescent-cycle delta, and the loop replays that delta
//! once per skipped cycle and sets the clock to `t`. Stats therefore come
//! out **bit-identical** to the dense loop — the skipped cycles are
//! accounted exactly as if they had been ticked — which the differential
//! suite (`tests/event_engine_equiv.rs`) enforces. Skipped cycles are also
//! attributed to [`ProfModule::CycleSkip`] so profiles show what the
//! engine jumped over.

use crate::alu::{AluModel, AnalyticalAlu, CycleAccurateAlu};
use crate::block_scheduler::{BlockScheduler, Occupancy};
use crate::error::SimError;
use crate::fidelity::{AluModelKind, FidelityConfig, FrontendModelKind, SkipPolicy};
use crate::mem_system::{MemCompletion, MemorySystem};
use crate::scheduler::make_policy;
use crate::sm::{SmCore, SmStats, TickOutcome, WbTarget};
use crate::Cycle;
use swiftsim_config::GpuConfig;
use swiftsim_mem::FastMap;
use swiftsim_metrics::{ProfModule, Profiler};
use swiftsim_trace::KernelTrace;

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

pub(crate) fn merge_into(total: &mut SmStats, s: SmStats) {
    total.add(&s);
}

pub(crate) fn make_alu(kind: AluModelKind, cfg: &GpuConfig) -> Box<dyn AluModel> {
    match kind {
        AluModelKind::CycleAccurate => Box::new(CycleAccurateAlu::new(&cfg.sm)),
        AluModelKind::Analytical => Box::new(AnalyticalAlu::new(&cfg.sm)),
    }
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
    let blocks = kernel.blocks();
    // Uniform per kernel: `is_consistent` checked every block against the
    // launch geometry above.
    let warps_per_block = blocks.first().map_or(0, |b| b.warps().len());
    let detailed_frontend = fidelity.frontend == FrontendModelKind::Detailed;
    let event_driven = fidelity.skip_policy == SkipPolicy::EventDriven;

    let mut sms: Vec<SmCore<'_>> = (0..num_local_sms)
        .map(|i| {
            SmCore::new(
                i,
                sm_ids[i],
                &cfg.sm,
                occupancy.blocks_per_sm as usize,
                warps_per_block,
                make_alu(fidelity.alu, cfg),
                detailed_frontend,
                event_driven,
                &|| make_policy(cfg.sm.scheduler),
            )
        })
        .collect();

    let mut bs = BlockScheduler::new(num_local_sms, block_indices.len(), occupancy.blocks_per_sm);
    let mut tokens: FastMap<u64, (usize, WbTarget)> = FastMap::default();
    let mut completions: Vec<MemCompletion> = Vec::new();
    let mut outcome = TickOutcome::default();
    let mut now = start;
    let mut idle_streak = 0u32;
    // An armed clock jump: `(target, per-SM stat snapshots)` captured at
    // the end of a quiet iteration. See the module docs.
    let mut plan: Option<(Cycle, Vec<SmStats>)> = None;

    loop {
        // 1. Dispatch pending blocks to SMs with free slots (Block
        //    Scheduler, cycle-accurate in every preset).
        let mut installed = false;
        if bs.remaining() > 0 {
            let t0 = prof.start();
            for (sm_idx, sm) in sms.iter_mut().enumerate().take(num_local_sms) {
                while sm.has_free_slot() {
                    match bs.dispatch(sm_idx) {
                        Some(local_idx) => {
                            let global = block_indices[local_idx];
                            sm.install_block(global, &blocks[global], now);
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
                sms[sm].writeback_now(target);
            }
        }

        // 3. Tick every SM. Warp-scheduler, ALU, and LD/ST time is
        //    attributed inside SmCore::tick.
        let mut issued = 0u32;
        let mut wakeup: Option<Cycle> = None;
        let mut any_unit_busy = false;
        let mut any_completed = false;
        let mut any_tokens = false;
        for (sm_idx, sm) in sms.iter_mut().enumerate() {
            sm.tick(now, mem, prof, &mut outcome);
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
            wakeup = match (wakeup, outcome.next_wakeup) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }

        // 4. Termination: every block completed and the memory system is
        //    quiet.
        if bs.all_done() && tokens.is_empty() && mem.next_event().is_none() {
            let mut stats = SmStats::default();
            for sm in &sms {
                merge_into(&mut stats, sm.stats());
            }
            return Ok(ShardKernelOutcome {
                end_cycle: now,
                stats,
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

        if let Some((target, snaps)) = plan.take() {
            if quiet {
                // The tick above is the measured canonical quiescent tick;
                // every cycle in (now, target) would repeat it exactly
                // (no writeback, memory event, or unpark can occur before
                // `target` by construction). Replay its delta and jump.
                let extra = target - now - 1;
                for (sm, snap) in sms.iter_mut().zip(&snaps) {
                    sm.scale_quiescent_delta(snap, extra, prof);
                }
                if extra > 0 {
                    prof.add_cycles(ProfModule::CycleSkip, extra);
                }
                now = target;
                idle_streak = 0;
                continue;
            }
            // Something observable happened after all — the iteration
            // above already ran at full fidelity, so just fall through to
            // a normal advance. No state needs undoing.
        }

        if event_driven && quiet {
            let next_mem = mem.next_event();
            let candidate = match (wakeup, next_mem) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if let Some(t) = candidate {
                if t > now + 1 {
                    // Arm the jump; the next iteration measures the
                    // quiescent delta (by then operand collectors and
                    // frontend tag arrays have reached steady state).
                    plan = Some((t, sms.iter().map(|s| s.stats()).collect()));
                }
            }
            now += 1;
            idle_streak += 1;
        } else {
            now += 1;
            idle_streak = if issued > 0 { 0 } else { idle_streak + 1 };
        }
        // A memory event or token always reappears within the DRAM latency;
        // a much longer silent streak means the model deadlocked.
        if idle_streak > 1_000_000 {
            let warp = sms.iter().find_map(|sm| sm.oldest_stalled());
            let pending = mem.oldest_pending();
            let detail = match (warp, pending) {
                (Some(w), Some(m)) => format!("{w}; {m}"),
                (Some(w), None) => w,
                (None, Some(m)) => m,
                (None, None) => "no resident warp or pending memory request".to_owned(),
            };
            return Err(SimError::Deadlock {
                cycle: now,
                shard,
                detail,
            });
        }
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
