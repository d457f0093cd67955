//! Parallel simulation (§III-B2, evaluated in §IV-B2).
//!
//! "The modular approach provides us with the opportunity for parallel
//! simulation. We can leverage multithreading to simulate applications
//! concurrently, achieving noticeable speedup."
//!
//! The implementation shards the GPU: each worker thread owns a contiguous
//! group of SMs together with a proportional slice of the memory system
//! (L2 partitions and DRAM channels), so per-SM bandwidth and capacity
//! ratios are preserved. Blocks are distributed round-robin across shards —
//! the same policy the Block Scheduler uses across SMs — and a kernel ends
//! when its slowest shard finishes. Cross-shard L2 sharing is the one
//! interaction this approximates away; it is part of the "minor and
//! acceptable degradation in overall accuracy" the paper trades for speed.

use crate::builder::GpuSimulator;
use crate::error::SimError;
use crate::fidelity::MemoryModelKind;
use crate::gpu::{run_kernel_shard, shard_config, shard_partitions, split_blocks};
use crate::mem_system::{
    AnalyticalMemoryBuilder, CycleAccurateMemory, MemorySystem, ReuseAnalyticalMemoryBuilder,
};
use crate::prefetch::Prefetcher;
use crate::result::{KernelResult, SimulationResult};
use crate::sm::SmStats;
use crate::Cycle;
use swiftsim_metrics::{MetricsCollector, ProfileReport, Profiler};
use swiftsim_trace::TraceSource;

/// The worker threads a simulation will use on this host when the run is
/// asked for automatic threading (`RunOptions::with_threads(0)`): the
/// machine's available parallelism. The final count is additionally capped
/// at the simulated GPU's SM count by
/// [`GpuSimulator::try_new`](crate::GpuSimulator::try_new) — a shard needs
/// at least one SM. (An earlier revision hard-capped this at the paper's
/// 50-thread experimental maximum; the cap is gone, the run option
/// decides.)
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Split `total` SMs into `shards` contiguous groups (sizes differ by at
/// most one).
pub(crate) fn split_sms(total: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1).min(total.max(1));
    let base = total / shards;
    let extra = total % shards;
    (0..shards).map(|i| base + usize::from(i < extra)).collect()
}

pub(crate) fn run_parallel(
    sim: &GpuSimulator,
    source: &dyn TraceSource,
) -> Result<SimulationResult, SimError> {
    let total_sms = sim.cfg.num_sms as usize;
    let group_sizes = split_sms(total_sms, sim.threads);
    let shards = group_sizes.len();

    // The global SM ids each shard owns: contiguous ranges in shard order,
    // so diagnostics (deadlock reports, profiles) name SMs a user can find.
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

    // Shard configurations and memory systems (persisting across kernels so
    // caches stay warm, as in the single-threaded path). Memory partitions
    // are apportioned exactly across the shards — their counts sum to the
    // GPU's total. The analytical pre-passes stream: each kernel is skimmed
    // once, every memory instruction fed to every shard's accumulator.
    let group_sizes_u32: Vec<u32> = group_sizes.iter().map(|&n| n as u32).collect();
    let partition_split = shard_partitions(sim.cfg.memory.partitions, &group_sizes_u32);
    let shard_cfgs: Vec<_> = group_sizes_u32
        .iter()
        .zip(&partition_split)
        .map(|(&n, &parts)| shard_config(&sim.cfg, n, parts))
        .collect();
    let mut mems: Vec<Box<dyn MemorySystem>> = match sim.fidelity.memory {
        MemoryModelKind::CycleAccurate => shard_cfgs
            .iter()
            .map(|cfg| Box::new(CycleAccurateMemory::new(cfg)) as Box<dyn MemorySystem>)
            .collect(),
        MemoryModelKind::Analytical => {
            let mut builders: Vec<_> = shard_cfgs
                .iter()
                .map(AnalyticalMemoryBuilder::new)
                .collect();
            for k in 0..source.num_kernels() {
                source.for_each_mem_inst(k, &mut |inst| {
                    builders.iter_mut().for_each(|b| b.feed(inst));
                })?;
            }
            builders.into_iter().map(|b| b.finish()).collect()
        }
        MemoryModelKind::AnalyticalReuse => {
            let mut builders: Vec<_> = shard_cfgs
                .iter()
                .map(ReuseAnalyticalMemoryBuilder::new)
                .collect();
            for k in 0..source.num_kernels() {
                source.for_each_mem_inst(k, &mut |inst| {
                    builders.iter_mut().for_each(|b| b.feed(inst));
                })?;
            }
            builders.into_iter().map(|b| b.finish()).collect()
        }
    };

    // Per-shard profilers share one epoch so merged frames line up on a
    // common timeline; each shard renders on its own trace track, with the
    // decode profiler on the track after the last shard. They persist
    // across kernels, like the memory systems.
    let epoch = std::time::Instant::now();
    let mut profs: Vec<Profiler> = (0..shards)
        .map(|i| {
            if sim.profile {
                Profiler::enabled_on_track(epoch, i)
            } else {
                Profiler::disabled()
            }
        })
        .collect();
    let decode_prof = if sim.profile {
        Profiler::enabled_on_track(epoch, shards)
    } else {
        Profiler::disabled()
    };
    for mem in &mut mems {
        mem.set_profiling(sim.profile);
    }

    std::thread::scope(|dscope| {
        let mut pf = Prefetcher::new(dscope, source, decode_prof, source.prefers_prefetch());
        let mut start: Cycle = 0;
        let mut kernels = Vec::new();
        let mut total_stats = SmStats::default();

        for kidx in 0..source.num_kernels() {
            let kernel = pf.get(kidx)?;
            let kernel = &*kernel;
            let block_split = split_blocks(kernel.blocks().len(), shards);

            let outcomes: Vec<Result<crate::gpu::ShardKernelOutcome, SimError>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = mems
                        .iter_mut()
                        .zip(&mut profs)
                        .zip(&shard_cfgs)
                        .zip(&sm_id_groups)
                        .zip(&block_split)
                        .enumerate()
                        .map(|(shard, ((((mem, prof), cfg), sm_ids), blocks))| {
                            scope.spawn(move || {
                                prof.begin_frame(&format!("k{kidx}:{}", kernel.name));
                                let outcome = run_kernel_shard(
                                    cfg,
                                    kernel,
                                    blocks,
                                    sm_ids,
                                    mem.as_mut(),
                                    sim.fidelity,
                                    shard,
                                    start,
                                    prof,
                                );
                                mem.report_profile(prof);
                                prof.end_frame();
                                outcome
                            })
                        })
                        .collect();
                    // A panicking shard must not take down the process:
                    // capture the payload and surface it as a SimError for
                    // that shard.
                    handles
                        .into_iter()
                        .enumerate()
                        .map(|(i, h)| {
                            h.join().unwrap_or_else(|payload| {
                                Err(SimError::WorkerPanic {
                                    context: format!("shard {i} of kernel {:?}", kernel.name),
                                    message: crate::error::panic_message(payload.as_ref()),
                                })
                            })
                        })
                        .collect()
                });

            let mut end = start;
            let mut kernel_stats = SmStats::default();
            let mut blocks = 0;
            for outcome in outcomes {
                let o = outcome?;
                end = end.max(o.end_cycle);
                kernel_stats.add(&o.stats);
                blocks += o.blocks;
            }
            kernels.push(KernelResult {
                name: kernel.name.clone(),
                cycles: end - start,
                instructions: kernel_stats.issued,
                blocks,
            });
            total_stats.add(&kernel_stats);
            start = end;
        }

        let mut metrics = MetricsCollector::new();
        crate::builder::report_common(&mut metrics, start, &total_stats, sim);
        for (i, mem) in mems.iter().enumerate() {
            let mut shard_collector = MetricsCollector::new();
            mem.report(&mut shard_collector);
            metrics.absorb(&format!("shard{i}"), &shard_collector);
        }

        let profile = sim.profile.then(|| {
            ProfileReport::merge(
                profs
                    .into_iter()
                    .chain(std::iter::once(pf.finish()))
                    .map(Profiler::into_report)
                    .collect(),
            )
        });

        Ok(SimulationResult {
            app: source.name().to_owned(),
            simulator: format!("{}@{}threads", sim.description(), shards),
            fidelity: sim.fidelity,
            cycles: start,
            kernels,
            metrics,
            wall_time: std::time::Duration::ZERO, // filled by run()
            confidence: None,
            profile,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_sms_balances() {
        assert_eq!(split_sms(68, 4), vec![17, 17, 17, 17]);
        assert_eq!(split_sms(7, 3), vec![3, 2, 2]);
        assert_eq!(split_sms(2, 8), vec![1, 1], "never more shards than SMs");
        assert_eq!(split_sms(5, 1), vec![5]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
